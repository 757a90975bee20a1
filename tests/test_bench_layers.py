"""The traced benchmark under bench/ wraps polyseg functions by module and
attribute name, and its setup probe calls each family's ``load_model``.
A rename in src/ would drop a span or fail the probe without any other
test noticing; these tests read bench/ and change nothing there."""

import importlib.util
from pathlib import Path

import pytest

import polyseg
import polyseg.cli  # noqa: F401 - the traced run wraps cli functions too
from polyseg.corpus import SURFACE, SegmentationDataset, SegmentedWord

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    for module, attr, *_ in _layers().WRAPPED:
        assert callable(getattr(getattr(polyseg, module), attr, None)), (module, attr)


def test_setup_probe_loaders_exist():
    for module in ("bpe", "morf", "crf"):
        assert callable(getattr(getattr(polyseg, module), "load_model", None)), module


GOLD = SegmentationDataset((SegmentedWord("kawi", ("ka", "wi")),
                            SegmentedWord("suta", ("su", "ta"))), mode=SURFACE)
TRAIN = {
    "bpe": lambda: polyseg.bpe.train_bpe({"kawi": 3, "suta": 2}, 12),
    "morf": lambda: polyseg.morf.train_baseline({"kawi": 3, "suta": 2}, seed=1),
    "crf": lambda: polyseg.crf.train_crf(GOLD, delta=1, max_iters=5),
}


@pytest.mark.parametrize("module,attr", [
    ("bpe", "encode"), ("morf", "segment_words"), ("crf", "segment_words"),
])
def test_segment_word_looks_decoder_up_at_call_time(tmp_path, monkeypatch, module, attr):
    # the traced run installs its spans on these module attributes after
    # the model is loaded; a segmenter holding the function would bypass them
    mod = getattr(polyseg, module)
    path = tmp_path / module
    mod.save_model(TRAIN[module](), path)
    segment_words, _, _ = polyseg.cli._segmenter(path)
    calls = []
    real = getattr(mod, attr)
    monkeypatch.setattr(mod, attr, lambda model, arg: calls.append(arg) or real(model, arg))
    segment_words(["kawi"])
    # crf's and morf's decoders take the whole word list, bpe's one word
    assert calls == [["kawi"] if attr == "segment_words" else "kawi"]


def test_train_crf_calls_the_likelihood_through_its_module_attribute(monkeypatch):
    # the traced run's crf.llgrad span wraps this attribute; training that
    # reached a private helper instead would leave the span empty
    crf = polyseg.crf
    calls, evaluations = [], []
    real_llgrad, real_minimize = crf.log_likelihood_and_gradient, crf.minimize

    def counting_llgrad(*args, **kwargs):
        calls.append(1)
        return real_llgrad(*args, **kwargs)

    def minimize(*args, **kwargs):
        result = real_minimize(*args, **kwargs)
        evaluations.append(result.nfev)
        return result

    monkeypatch.setattr(crf, "log_likelihood_and_gradient", counting_llgrad)
    monkeypatch.setattr(crf, "minimize", minimize)
    crf.train_crf(GOLD, delta=1, max_iters=5)
    assert evaluations and len(calls) == evaluations[0] > 0


def test_flatcat_decodes_through_the_category_lattice_attribute(monkeypatch):
    # the traced run wraps morf's batch decoder by its module attribute:
    # training decodes all its words in one call through it
    morf = polyseg.morf
    counts = {"kawi": 3, "suta": 2, "wisu": 1}
    baseline = morf.train_baseline(counts, seed=1)
    calls = []
    real = morf.segment_words
    monkeypatch.setattr(morf, "segment_words",
                        lambda model, words: calls.append(list(words)) or real(model, words))
    model = morf.train_flatcat(counts, baseline)
    assert calls == [sorted(counts)]
    del calls[:]
    assert morf.viterbi_segment(model, "kawisu") == \
        morf.viterbi_segment_with_categories(model, "kawisu")[0]
    assert calls == [["kawisu"]]


@pytest.mark.parametrize("module", ["bpe", "morf", "crf"])
def test_cli_loads_models_through_the_module_attribute(tmp_path, monkeypatch, module):
    # the traced run's <family>.load_model span wraps this attribute; a
    # loader the CLI held by reference would leave the span empty
    mod = getattr(polyseg, module)
    path = tmp_path / module
    mod.save_model(TRAIN[module](), path)
    text = tmp_path / "text.txt"
    text.write_text("kawi suta\n", encoding="utf-8")
    calls = []
    real = mod.load_model
    monkeypatch.setattr(mod, "load_model", lambda arg: calls.append(arg) or real(arg))
    segmented = tmp_path / "segmented.txt"
    assert polyseg.cli.main(["segment", "--model", str(path), "--input", str(text),
                             "--output", str(segmented)]) == 0
    assert calls == [str(path)]
    assert polyseg.cli.main(["desegment", "--model", str(path), "--input", str(segmented),
                             "--output", str(tmp_path / "restored.txt")]) == 0
    assert calls == [str(path)] * 2
