import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyseg import bpe, crf, morf
from polyseg.corpus import (
    SURFACE,
    CANONICAL,
    MODES,
    _WHITESPACE,
    ParallelCorpus,
    SegmentationDataset,
    SegmentedWord,
    Sentence,
    check_word_counts,
    corpus_stats,
    load_parallel,
    load_segmentation,
    read_lines,
    round_half_up,
    seg_stats,
    seg_stats_table,
    stats_table,
    truncate,
)
from polyseg.errors import AlignmentError, DataError, ParseError, PolysegError
from oracles import segmentation_oracle_load


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadParallel:
    def test_single_pair_tokenization(self, tmp_path):
        src = _write(tmp_path / "a.tar", "ne p+tiweiya\n")
        tgt = _write(tmp_path / "a.spa", "yo no quiero\n")
        pc = load_parallel(src, tgt)
        assert len(pc) == 1
        assert len(pc.pairs[0][0]) == 2
        assert len(pc.pairs[0][1]) == 3

    def test_line_count_mismatch(self, tmp_path):
        src = _write(tmp_path / "a", "x\ny\nz\n")
        tgt = _write(tmp_path / "b", "x\ny\n")
        with pytest.raises(AlignmentError) as exc:
            load_parallel(src, tgt)
        assert "3" in str(exc.value) and "2" in str(exc.value)

    def test_empty_line_rejected_with_number(self, tmp_path):
        src = _write(tmp_path / "a", "x\n\nz\n")
        tgt = _write(tmp_path / "b", "x\ny\nz\n")
        with pytest.raises(ParseError) as exc:
            load_parallel(src, tgt)
        assert str(exc.value) == "%s:2: empty line" % (src,)


# U+00A0, U+0085, U+2028 and U+001C are whitespace to str.split, U+200B is
# not; "\r" ends a line in the file
TSV_CHARS = "kaw\t \r\u00a0\u0085\u2028\u001c\u200b"


@st.composite
def tsv_texts(draw):
    """The text of a segmentation TSV: lines that load in surface mode,
    lines with a free surface, two-TAB lines, blank lines and noise, after
    an optional byte-order mark."""
    morphs = st.lists(st.text("kaw\u200b", min_size=1, max_size=3), min_size=1, max_size=3)
    noise = st.text(TSV_CHARS, max_size=8)
    line = st.one_of(
        morphs.map(lambda ms: "".join(ms) + "\t" + " ".join(ms)),
        st.builds(lambda s, ms: s + "\t" + " ".join(ms), st.text("kaw", max_size=4), morphs),
        st.builds(lambda s, ms: s + "\t" + " ".join(ms), st.text(TSV_CHARS, max_size=4), morphs),
        st.builds(lambda ms, x: "".join(ms) + "\t" + x + "\t" + " ".join(ms), morphs, noise),
        st.just(""),
        noise,
    )
    text = "\n".join(draw(st.lists(line, max_size=4))) + draw(st.sampled_from(("", "\n")))
    return draw(st.sampled_from(("", "\ufeff"))) + text


class TestLoadSegmentation:
    def test_surface_entry(self, tmp_path):
        path = _write(tmp_path / "d.tsv", "kawi\tka wi\n")
        ds = load_segmentation(path, mode=SURFACE)
        assert ds.entries[0] == SegmentedWord("kawi", ("ka", "wi"), mode=SURFACE)

    def test_surface_violation(self, tmp_path):
        path = _write(tmp_path / "d.tsv", "kawi\tka wa\n")
        with pytest.raises(DataError) as exc:
            load_segmentation(path, mode=SURFACE)
        assert str(exc.value).startswith("%s:1: " % (path,))
        assert "wa" in str(exc.value)

    def test_canonical_skips_concatenation_check(self, tmp_path):
        path = _write(tmp_path / "d.tsv", "kawi\tka wa\n")
        ds = load_segmentation(path, mode=CANONICAL)
        assert ds.entries[0].morphs == ("ka", "wa")

    def test_missing_tab(self, tmp_path):
        path = _write(tmp_path / "d.tsv", "kawi ka wi\n")
        with pytest.raises(ParseError) as exc:
            load_segmentation(path)
        assert "TAB" in str(exc.value)

    def test_an_entry_is_the_tuple_of_its_fields(self, tmp_path):
        path = _write(tmp_path / "d.tsv", "kawi\tka wi\n")
        entry = load_segmentation(path).entries[0]
        assert type(entry) is SegmentedWord
        assert entry == ("kawi", ("ka", "wi"), SURFACE)
        assert hash(entry) == hash(("kawi", ("ka", "wi"), SURFACE))

    @settings(max_examples=200, deadline=None)
    @given(text=tsv_texts(), mode=st.sampled_from(MODES))
    def test_loads_or_fails_as_the_oracle_does(self, tmp_path_factory, text, mode):
        path = tmp_path_factory.mktemp("tsv") / "d.tsv"
        path.write_text(text, encoding="utf-8", newline="")
        outcomes = []
        for load in (load_segmentation, segmentation_oracle_load):
            try:
                outcomes.append(load(path, mode=mode))
            except PolysegError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], SegmentationDataset):
            assert all(type(e) is SegmentedWord for e in outcomes[0].entries)


WHITESPACE = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]


class TestWhitespace:
    def test_pattern_agrees_with_isspace_on_every_code_point(self):
        assert len(WHITESPACE) > 20
        matched = [chr(cp) for cp in range(0x110000) if _WHITESPACE.match(chr(cp))]
        assert matched == WHITESPACE

    @pytest.mark.parametrize("ch", WHITESPACE, ids=lambda ch: "U+%04X" % ord(ch))
    def test_every_whitespace_code_point_is_rejected(self, ch):
        with pytest.raises(DataError, match="^bad surface form"):
            SegmentedWord("ka" + ch + "wi", ("ka", ch, "wi"))
        with pytest.raises(DataError, match="^empty or whitespace morph in 'kawi'$"):
            SegmentedWord("kawi", ("ka", "w" + ch + "i"), mode=CANONICAL)
        with pytest.raises(DataError, match="^token is empty or contains whitespace"):
            Sentence(("ka" + ch,))
        with pytest.raises(DataError, match="^bad word in counts"):
            check_word_counts({"kawi": 1, "ka" + ch + "wi": 2})


TRAINERS = {
    "bpe": lambda counts: bpe.train_bpe(counts, 50),
    "baseline": morf.train_baseline,
    "lmvr": morf.train_lmvr,
}


class TestWordCounts:
    """Every trainer that learns from word counts checks them alike."""

    @pytest.mark.parametrize("trainer", sorted(TRAINERS))
    @pytest.mark.parametrize("counts,message", [
        ({}, "empty word counts"),
        ({"ka": 1, "": 2}, "bad word in counts: ''"),
        # a TAB would split a bpe merge row into three fields
        ({"a\tb": 3, "ab": 2}, "bad word in counts: 'a\\tb'"),
        ({"a b": 1}, "bad word in counts: 'a b'"),
        ({7: 1}, "bad word in counts: 7"),
        ({"ab": -5, "abc": 3, "cd": 2}, "non-positive count for 'ab'"),
        ({"ab": 0}, "non-positive count for 'ab'"),
        ({"kawi": 2.5, "suta": 1.5}, "non-integer count for 'kawi': 2.5"),
        ({"kawi": 2.0}, "non-integer count for 'kawi': 2.0"),
        ({"kawi": "2"}, "non-integer count for 'kawi': '2'"),
    ])
    def test_bad_counts_are_rejected(self, trainer, counts, message):
        with pytest.raises(DataError) as exc:
            TRAINERS[trainer](counts)
        assert str(exc.value) == message

    @pytest.mark.parametrize("trainer", sorted(TRAINERS))
    def test_numpy_integers_count_as_integers(self, trainer):
        counts = {"kawi": 3, "suta": 2, "wisu": 1, "kasu": 2}
        numpy_counts = {w: np.int64(c) for w, c in counts.items()}
        expected = TRAINERS[trainer](counts)
        model = TRAINERS[trainer](numpy_counts)
        if trainer == "bpe":
            assert (model.merges, model.vocab) == (expected.merges, expected.vocab)
        else:
            assert (model.analyses, model.lexicon) == (expected.analyses, expected.lexicon)


class TestReadLines:
    # every character str.splitlines breaks at but "\n" and "\r"
    OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(alphabet="ab \n\r" + OTHER_BREAKS, max_size=30))
    def test_lines_are_those_of_file_iteration(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("lines") / "t.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as f:
            want = [line[:-1] if line.endswith("\n") else line for line in f]
        assert read_lines(path) == want

    @pytest.mark.parametrize("text,lines", [
        ("", []),
        ("\n", [""]),
        ("a", ["a"]),
        ("a\n\n", ["a", ""]),
        ("a\r\nb\rc\n", ["a", "b", "c"]),
        ("a\u2028b\x85c\n", ["a\u2028b\x85c"]),
    ])
    def test_examples(self, tmp_path, text, lines):
        path = tmp_path / "t.txt"
        path.write_text(text, encoding="utf-8", newline="")
        assert read_lines(path) == lines

    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(st.text(st.characters(blacklist_characters="\n\r",
                                                blacklist_categories=("Cs",)),
                                  max_size=6), min_size=1, max_size=6),
           data=st.data())
    def test_invalid_utf8_names_its_line(self, tmp_path_factory, lines, data):
        k = data.draw(st.integers(0, len(lines) - 1))
        line = lines[k].encode("utf-8")
        at = data.draw(st.integers(0, len(line)))
        bad = data.draw(st.sampled_from((b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80")))
        ends = data.draw(st.lists(st.sampled_from((b"\n", b"\r\n", b"\r")),
                                  min_size=len(lines), max_size=len(lines)))
        encoded = [l.encode("utf-8") for l in lines]
        encoded[k] = line[:at] + bad + line[at:]
        path = tmp_path_factory.mktemp("bad") / "t.txt"
        path.write_bytes(b"".join(l + end for l, end in zip(encoded, ends)))
        # the bad bytes lie in line k, which starts after the lines before
        # it; a bare \r before an empty line ending in \n makes one line end
        # of the two, so count the lines that file iteration sees there:
        # latin-1 reads each byte as one character, and newline="" splits
        # at \n, \r\n and \r without translating them
        start = sum(len(l) + len(end) for l, end in zip(encoded[:k], ends[:k]))
        with open(path, encoding="latin-1", newline="") as f:
            want = 1 + sum(stop <= start for stop in itertools.accumulate(map(len, f)))
        with pytest.raises(ParseError) as exc:
            read_lines(path)
        assert str(exc.value).startswith("%s:%d: invalid UTF-8 " % (path, want))

    def test_invalid_utf8_counts_newline_bytes(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"kawi\r\n\rsu\nta\n\xff\n")
        # the bad byte is on the fifth line: "kawi", "", "su", "ta", then it
        with pytest.raises(ParseError, match=r":5: invalid UTF-8 \(byte 0xff: invalid start byte\)$"):
            read_lines(path)

    @pytest.mark.parametrize("text", ["", "\n", "kawi suta\nkawi\n", "a\r\n\ufeffb"])
    def test_one_leading_byte_order_mark_is_dropped(self, tmp_path, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8", newline="")
        marked.write_text("\ufeff" + text, encoding="utf-8", newline="")
        assert read_lines(marked) == read_lines(plain)

    def test_only_one_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("\ufeff\ufeffkawi\n\ufeffsu\n", encoding="utf-8")
        assert read_lines(path) == ["\ufeffkawi", "\ufeffsu"]

    def test_errors_name_the_file_line(self, tmp_path):
        path = _write(tmp_path / "d.tsv", "kawi\tka wi\u2028\nsuta\tsu ta\nsu\n")
        with pytest.raises(ParseError, match=":3: no TAB separator$"):
            load_segmentation(path)


def _corpus(pairs):
    return ParallelCorpus(
        tuple(
            (Sentence(tuple(s.split())), Sentence(tuple(t.split())))
            for s, t in pairs
        )
    )


class TestUnreadableFiles:
    @pytest.mark.parametrize("load", [
        lambda path: load_parallel(path, path),
        load_segmentation,
        bpe.load_model,
        morf.load_model,
        crf.load_model,
    ], ids=["parallel", "segmentation", "bpe", "morf", "crf"])
    def test_loaders_raise_parse_error_naming_the_path(self, tmp_path, load):
        missing = tmp_path / "missing"
        with pytest.raises(ParseError, match="missing"):
            load(missing)
        undecodable = tmp_path / "undecodable"
        undecodable.write_bytes(b"\xff\n")
        with pytest.raises(ParseError, match="undecodable"):
            load(undecodable)


class TestCorpusStats:
    def test_hand_counted(self):
        stats = corpus_stats(_corpus([("a b a", "x y")]))
        assert stats.s == 1
        assert stats.n == (3, 2)
        assert stats.v == (2, 2)
        assert stats.v1 == (1, 2)
        assert stats.v_over_n[0] == pytest.approx(2 / 3)
        assert stats.v_over_n[1] == pytest.approx(1.0)

    def test_oov_type_based_over_eval_vocab(self):
        train = _corpus([("a b", "x y")])
        dev = _corpus([("a c c", "x z")])
        stats = corpus_stats(dev, reference_train=train)
        assert stats.oov == (1, 1)
        assert stats.pct_oov[0] == pytest.approx(1 / 2)

    def test_invariants_and_permutation_independence(self):
        rng = random.Random(5)
        pairs = [
            (" ".join(rng.choice("abcd") for _ in range(rng.randint(1, 6))),
             " ".join(rng.choice("wxyz") for _ in range(rng.randint(1, 6))))
            for _ in range(40)
        ]
        stats = corpus_stats(_corpus(pairs))
        for i in range(2):
            assert stats.v1[i] <= stats.v[i] <= stats.n[i]
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert corpus_stats(_corpus(shuffled)) == stats

    def test_token_ratio(self):
        stats = corpus_stats(_corpus([("a b a", "x y")]))
        assert stats.token_ratio == pytest.approx(3 / 2)


class TestSegStats:
    def test_single_multimorph_entry(self):
        ds = SegmentationDataset(
            (SegmentedWord("ab", ("a", "b")),), mode=SURFACE
        )
        stats = seg_stats(ds)
        assert stats.words == 1
        assert stats.seg_words == 1
        assert stats.morphs == 2
        assert stats.morphs_per_word == pytest.approx(2.0)

    def test_ratios_recomputable(self):
        entries = tuple(
            SegmentedWord("".join(m), tuple(m))
            for m in (("a",), ("b", "c"), ("d", "e", "f"))
        )
        stats = seg_stats(SegmentationDataset(entries, mode=SURFACE))
        assert abs(stats.seg_per_word - stats.seg_words / stats.words) < 1e-9
        assert abs(stats.morphs_per_word - stats.morphs / stats.words) < 1e-9

    def test_oov_morphs(self):
        train = SegmentationDataset(
            (SegmentedWord("ab", ("a", "b")),), mode=SURFACE
        )
        test = SegmentationDataset((SegmentedWord("ac", ("a", "c")),), mode=SURFACE)
        assert seg_stats(test, reference_train=train).oov_morphs == 1


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.2605, 3) == 0.261
        assert round_half_up(2.0116, 2) == 2.01
        assert round_half_up(0.72351, 2) == 0.72

    def test_truncate(self):
        assert truncate(0.334500875, 3) == 0.334
        assert truncate(0.27792, 3) == 0.277


class TestSyntheticTables:
    def test_parallel_train_counts(self, parallel_fixture):
        pc = load_parallel(parallel_fixture["train.tar"], parallel_fixture["train.spa"])
        stats = corpus_stats(pc)
        assert stats.s == 13102
        assert stats.n == (73022, 93410)
        assert stats.v == (19044, 16220)
        assert stats.v1 == (12894, 10021)

    def test_parallel_dev_oov(self, parallel_fixture):
        train = load_parallel(parallel_fixture["train.tar"], parallel_fixture["train.spa"])
        dev = load_parallel(parallel_fixture["dev.tar"], parallel_fixture["dev.spa"])
        stats = corpus_stats(dev, reference_train=train)
        assert stats.s == 587
        assert stats.n == (3183, 4133)
        assert stats.v == (1713, 1771)
        assert stats.v1 == (1402, 1365)
        assert stats.oov == (573, 434)
        table = stats_table(stats)
        row = table.splitlines()[1].split("\t")
        assert row[-2] == "573"
        assert row[-1] == "0.334"

    def test_seg_dataset_counts(self, segmentation_fixture):
        shp = load_segmentation(segmentation_fixture["shp.train"])
        stats = seg_stats(shp)
        assert (stats.words, stats.seg_words) == (604, 437)
        assert (stats.morphs, stats.uni_morphs) == (1215, 476)
        assert stats.max_morphs == 5
        table = seg_stats_table(stats)
        row = table.splitlines()[1].split("\t")
        assert row[4] == "0.72" and row[5] == "2.01"

    def test_seg_oovm(self, segmentation_fixture):
        train = load_segmentation(segmentation_fixture["tar.train"])
        test = load_segmentation(segmentation_fixture["tar.test"])
        assert seg_stats(test, reference_train=train).oov_morphs == 163
