"""The column reader in ``modelfile.read`` and the loaders built on it,
checked against the row-by-row oracles in ``oracles.py``: the same accept
or reject, the same exception and message, and the same loaded model."""

import gc
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyseg import bpe, crf, modelfile, morf
from polyseg.corpus import SURFACE, SegmentationDataset, SegmentedWord
from polyseg.crf import ALLOWED_PAIRS, LABELS
from polyseg.errors import ParseError
from oracles import (
    bpe_oracle_load_model,
    bpe_oracle_save_model,
    crf_oracle_load_model,
    crf_oracle_save_model,
    morf_oracle_load_model,
    morf_oracle_save_model,
)

COUNTS = {"kawi": 3, "suta": 2, "wisu": 1, "kasu": 2, "tawi": 1}
GOLD = SegmentationDataset(tuple(SegmentedWord("".join(m), m) for m in (
    ("ka", "wi"), ("su", "ta"), ("wi", "su"), ("ta", "ka", "wi"))), mode=SURFACE)


def _bits(value):
    """``value`` in a form whose equality is bit-for-bit and ordered: dicts
    become item lists, floats their repr, arrays their dtype, shape and
    bytes."""
    if isinstance(value, dict):
        return [(k, _bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


def _crf_view(model):
    return model.delta, model.l2, model.feat_index, model.weights, model.trans


def _morf_view(model):
    cm = model.categories
    tables = None if cm is None else (cm.start, cm.trans, cm.emit)
    return model.variant, model.alpha, model.max_lexicon_size, model.lexicon, tables


def _bpe_view(model):
    return model.target_vocab_size, model.merges


LOADERS = {
    "crf": (crf.load_model, _crf_view, crf_oracle_load_model, _crf_view),
    "morf": (morf.load_model, _morf_view, morf_oracle_load_model, tuple),
    "bpe": (bpe.load_model, _bpe_view, bpe_oracle_load_model, tuple),
}


def _outcome(load, view, path):
    try:
        return "loaded", _bits(view(load(path)))
    except Exception as exc:  # the type and message are compared
        return type(exc).__name__, str(exc)


def assert_loaders_agree(path, family):
    load, view, oracle, oracle_view = LOADERS[family]
    got = _outcome(load, view, path)
    assert got == _outcome(oracle, oracle_view, path)
    return got[0]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A directory and the text of one trained model file per family and
    morf variant."""
    d = tmp_path_factory.mktemp("trained")
    baseline = morf.train_baseline(COUNTS, seed=1)
    models = {
        "bpe": (bpe, bpe.train_bpe(COUNTS, 20)),
        "baseline": (morf, baseline),
        "lmvr": (morf, morf.train_lmvr(COUNTS, max_lexicon_size=10, seed=1)),
        "flatcat": (morf, morf.train_flatcat(COUNTS, baseline)),
        "crf": (crf, crf.train_crf(GOLD, delta=2, max_iters=10)),
    }
    texts = {}
    for name, (module, model) in models.items():
        module.save_model(model, d / name)
        texts[name] = (d / name).read_text(encoding="utf-8")
    return d, texts


FAMILY = {"bpe": "bpe", "baseline": "morf", "lmvr": "morf", "flatcat": "morf", "crf": "crf"}


@pytest.mark.parametrize("name", ["bpe", "baseline", "lmvr", "flatcat", "crf"])
def test_trained_files_load_as_the_oracle_loads_them(trained, name):
    d, texts = trained
    assert assert_loaders_agree(d / name, FAMILY[name]) == "loaded"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_files_load_or_fail_as_the_oracle_does(trained, data):
    # the mutations of test_cli.py's TestDamagedModelFiles, each file read
    # by its own family's loaders
    d, texts = trained
    name = data.draw(st.sampled_from(sorted(texts)))
    text = texts[name]
    how = data.draw(st.sampled_from(("truncate", "delete", "replace")))
    if how == "truncate":
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    else:
        lines = text.splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        if how == "delete":
            del lines[i]
        else:
            sep = " " if i == 0 else "\t"
            fields = lines[i].split(sep)
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.text())
            lines[i] = sep.join(fields)
        text = "".join(line + "\n" for line in lines)
    path = d / "damaged"
    path.write_text(text, encoding="utf-8")
    assert_loaders_agree(path, FAMILY[name])


# -- writing -------------------------------------------------------------------


ORACLE_SAVERS = {bpe: bpe_oracle_save_model, morf: morf_oracle_save_model,
                 crf: crf_oracle_save_model}
# words and morphs over a small alphabet, with characters of two and three
# UTF-8 bytes
TRAIN_WORDS = st.text(alphabet="kawi\u00e9\u27e8", min_size=1, max_size=7)
TRAIN_COUNTS = st.dictionaries(TRAIN_WORDS, st.integers(1, 9), min_size=1, max_size=10)
GOLD_WORDS = st.lists(st.lists(st.text(alphabet="kawi\u00e9\u27e8", min_size=1, max_size=3),
                               min_size=1, max_size=3), min_size=1, max_size=6)


def _random_model(name, data):
    """The family module of ``name`` and a small model of it trained on
    drawn data."""
    if name == "crf":
        gold = SegmentationDataset(tuple(SegmentedWord("".join(ms), tuple(ms))
                                         for ms in data.draw(GOLD_WORDS)), mode=SURFACE)
        return crf, crf.train_crf(gold, delta=data.draw(st.integers(1, 4)),
                                  l2=data.draw(st.sampled_from((0.0, 0.01, 0.5))),
                                  max_iters=data.draw(st.integers(1, 6)))
    counts = data.draw(TRAIN_COUNTS)
    alphabet = {ch for word in counts for ch in word}
    if name == "bpe":
        start = len(alphabet) + len({word[-1] for word in counts})
        return bpe, bpe.train_bpe(counts, start + data.draw(st.integers(0, 12)))
    opts = dict(alpha=data.draw(st.sampled_from((1.0, 0.35, 2.5))),
                seed=data.draw(st.integers(0, 99)))
    if name == "lmvr":
        cap = len(alphabet) + data.draw(st.integers(0, 4))
        return morf, morf.train_lmvr(counts, max_lexicon_size=cap, **opts)
    model = morf.train_baseline(counts, **opts)
    if name == "flatcat":
        model = morf.train_flatcat(counts, model, max_iters=data.draw(st.integers(1, 5)))
    return morf, model


def _assert_saved_as_the_oracle_saves(module, model, base):
    new, oracle, again = (base / name for name in ("new", "oracle", "again"))
    module.save_model(model, new)
    ORACLE_SAVERS[module](model, oracle)
    assert new.read_bytes() == oracle.read_bytes()
    module.save_model(module.load_model(new), again)
    assert again.read_bytes() == new.read_bytes()


@pytest.mark.parametrize("name", ["bpe", "baseline", "lmvr", "flatcat", "crf"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_saved_files_equal_the_row_writers(tmp_path_factory, name, data):
    # byte-identical to the oracle writer, and save -> load -> save is a
    # fixed point
    module, model = _random_model(name, data)
    _assert_saved_as_the_oracle_saves(module, model, tmp_path_factory.getbasetemp())


def test_counts_and_weights_of_other_types_save_as_the_row_writers(tmp_path):
    # "%d" truncates a float count; numpy scalars and float32 weights
    # print as the Python floats they hold
    model = morf.MorfModel(lexicon=Counter({"ka": 2.5, "wi": 2.5, "suta": np.int64(3)}),
                           alphabet=frozenset("kawisuta"))
    model.max_lexicon_size = np.int32(9)
    (tmp_path / "morf").mkdir()
    _assert_saved_as_the_oracle_saves(morf, model, tmp_path / "morf")
    assert (tmp_path / "morf" / "new").read_text(encoding="utf-8").splitlines()[1:] == \
        ["ka\t2", "suta\t3", "wi\t2"]
    model = crf.train_crf(GOLD, delta=2, max_iters=3)
    model.weights = model.weights.astype(np.float32)
    model.l2 = 0.1
    (tmp_path / "crf").mkdir()
    _assert_saved_as_the_oracle_saves(crf, model, tmp_path / "crf")


def test_write_then_read(tmp_path):
    # an empty first section writes nothing, an absent later section no
    # opening line; fields keep spaces and may be empty, and rows may come
    # from a generator
    path = tmp_path / "m"
    modelfile.write(path, "fam", ("7", "x"), {
        "first": [], "second": [("a", "b c"), ("\u00e9", "")], "third": None,
        "fourth": (row for row in [("x", "y", "z")])})
    assert path.read_bytes() == "fam v1 7 x\nsecond:\na\tb c\n\u00e9\t\nfourth:\nx\ty\tz\n".encode()
    text = modelfile.text
    values, sections = modelfile.read(path, "fam", (int, str), {
        "first": (text, text), "second": (text, text), "third": (text,),
        "fourth": (text, text, text)})
    assert values == [7, "x"]
    assert {name: (s.lines, s.columns, s.opened) for name, s in sections.items()} == {
        "first": ([], [[], []], False),
        "second": ([3, 4], [["a", "\u00e9"], ["b c", ""]], True),
        "third": ([], [[]], False),
        "fourth": ([6], [["x"], ["y"], ["z"]], True),
    }


# feature-key offsets, with aliases of one key (2, +2, 02)
OFFSETS = ("0", "1", "2", "+2", "02", "-1", "-2", "-02")
WEIGHTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(("0.0", "-0.0", "1", " 2.5", "1_0", "1e-320")),
)


@st.composite
def crf_rows(draw, section):
    if section == "features":
        first = "%s:%s" % (draw(st.sampled_from(OFFSETS)),
                           draw(st.text(alphabet="ka:\u27e8", min_size=1, max_size=3)))
        second = draw(st.sampled_from(LABELS))
    else:
        first, second = draw(st.sampled_from(ALLOWED_PAIRS))
    return [first, second, draw(WEIGHTS)]


@st.composite
def crf_files(draw):
    """The text of a crf model file: feature rows, then blocks opened by
    ``features:`` or ``transitions:`` lines, some empty; the
    ``transitions:`` line may be missing.  Some files are damaged: a field
    replaced by text that may be bad, hold a TAB or name a forbidden
    pair."""
    rows = [["crf", "v1", draw(st.sampled_from(("1", "2", "3"))),
             draw(st.sampled_from(("0.01", "0.0", "1e-300")))]]
    rows += draw(st.lists(crf_rows("features"), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        section = draw(st.sampled_from(("transitions", "features")))
        rows.append([section + ":"])
        rows += draw(st.lists(crf_rows(section), max_size=4))
    if draw(st.sampled_from((True, True, True, False))):
        rows.append(["transitions:"])
        rows += [[a, b, draw(WEIGHTS)]
                 for a, b in draw(st.lists(st.sampled_from(ALLOWED_PAIRS), unique=True))]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.text(alphabet="BEMSX+-0123456789.:e\tn ", max_size=5))
    return "".join((" " if i == 0 else "\t").join(row) + "\n" for i, row in enumerate(rows))


@settings(max_examples=400, deadline=None)
@given(text=crf_files())
def test_random_crf_files_load_as_the_oracle_loads_them(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "random.crf"
    path.write_text(text, encoding="utf-8")
    assert_loaders_agree(path, "crf")


@pytest.mark.parametrize("body,error", [
    ("0k\tX\tnan\ntransitions:\n", "2: bad field '0k'"),
    ("0:k\tX\tnan\ntransitions:\n", "2: bad field 'X'"),
    ("0:k\tB\tnan\n0k\n", "2: bad field 'nan'"),
    ("0:k\tB\t1\n0k\tX\n", "3: expected 3 TAB-separated fields in features, got 2"),
    ("0:k\tB\t1\ntransitions:\nB\tE\n", "4: expected 3 TAB-separated fields in transitions"),
    ("0:k\tB\t1\n0:k\tB\t2\n1:a\tB\tx\n", "4: bad field 'x'"),
    ("0:k\tB\t1\ntransitions:\nB\tS\t0\nB\tE\t0\nB\tE\t1\nfeatures:\n0:k\tB\t2\n",
     "8: repeated feature row (first at line 2)"),
    ("transitions:\nB\tS\t0\nB\tE\t0\nB\tE\t1\n", "5: repeated transition"),
    ("0:k\tB\t1\n0:k\tB\t2\n", "3: repeated feature row"),
])
def test_a_damaged_crf_file_names_its_first_fault(tmp_path, body, error):
    path = tmp_path / "bad.crf"
    path.write_text("crf v1 2 0.01\n" + body, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        crf.load_model(path)
    assert str(exc.value).startswith("%s:%s" % (path, error))
    assert assert_loaders_agree(path, "crf") == "ParseError"


def test_crf_aliases_share_one_weight_row(tmp_path):
    path = tmp_path / "alias.crf"
    path.write_text("crf v1 2 0.01\n2:k\tB\t0.5\n-1:a\tS\t0.25\n+2:k\tE\t-1.5\n02:k\tM\t2.0\n"
                    "transitions:\n", encoding="utf-8")
    model = crf.load_model(path)
    assert list(model.feat_index) == [(2, "k"), (-1, "a")]
    assert model.weights.tolist() == [[0.5, -1.5, 2.0, 0.0], [0.0, 0.0, 0.0, 0.25]]
    path.write_text("crf v1 2 0.01\n2:k\tB\t0.5\n-1:a\tS\t0.25\n+2:k\tB\t-1.5\n"
                    "transitions:\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"alias\.crf:4: repeated feature row \(first at line 2"):
        crf.load_model(path)


def test_sections_reopen_in_file_order(tmp_path):
    path = tmp_path / "blocks.crf"
    path.write_text("crf v1 2 0.01\n0:k\tB\t0.5\ntransitions:\nB\tE\t0.1\nfeatures:\n"
                    "1:a\tS\t0.2\ntransitions:\n", encoding="utf-8")
    _, sections = modelfile.read(path, "crf", (int, float),
                                 {"features": (modelfile.text,) * 3,
                                  "transitions": (modelfile.text,) * 3})
    assert sections["features"].lines == [2, 6]
    assert sections["features"].columns == [["0:k", "1:a"], ["B", "S"], ["0.5", "0.2"]]
    assert (sections["transitions"].lines, sections["features"].opened,
            sections["transitions"].opened) == ([4], True, True)


def _bench_sized_crf_file(path, rows=10_000):
    """A crf model file of ``rows`` feature rows, about four labels per
    key, like the crf-sup benchmark's model."""
    rng = random.Random(7)
    lines = ["crf v1 3 0.01"]
    while len(lines) <= rows:
        key = "%d:%s" % (rng.randint(-3, 3), len(lines))
        for label in rng.sample(LABELS, rng.randint(1, 4)):
            lines.append("%s\t%s\t%r" % (key, label, rng.gauss(0.0, 0.5)))
    lines.append("transitions:")
    lines += ["%s\t%s\t%r" % (a, b, rng.gauss(0.0, 0.5)) for a, b in ALLOWED_PAIRS]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _peak(load, path):
    gc.collect()
    tracemalloc.start()
    try:
        load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_crf_load_peaks_no_higher_than_the_row_reader(tmp_path):
    path = tmp_path / "bench-sized.crf"
    _bench_sized_crf_file(path)
    assert _bits(_crf_view(crf.load_model(path))) == \
        _bits(_crf_view(crf_oracle_load_model(path)))
    assert _peak(crf.load_model, path) <= _peak(crf_oracle_load_model, path)
