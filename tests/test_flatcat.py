import itertools
import math

import pytest

from polyseg.errors import DataError
from polyseg.morf import (
    ALLOWED_NEXT,
    CATEGORIES,
    FINAL_CATS,
    START_CATS,
    CategoryModel,
    MorfModel,
    _forward_backward,
    load_model,
    save_model,
    train_flatcat,
    viterbi_segment,
    viterbi_segment_with_categories,
)

AFFIX_TOY = {
    "replay": ("re", "play"),
    "redo": ("re", "do"),
    "player": ("play", "er"),
    "doer": ("do", "er"),
}

TOY_CORPORA = (
    AFFIX_TOY,
    {"kawi": ("ka", "wi"), "kasu": ("ka", "su"), "wisu": ("wi", "su")},
    {"ababab": ("ab", "ab", "ab"), "abab": ("ab", "ab")},
)


def _flatcat(analyses, **kwargs):
    base = MorfModel.from_segmentations(analyses)
    wc = {w: 1 for w in analyses}
    kwargs.setdefault("epsilon", -1.0)  # run every iteration
    kwargs.setdefault("max_iters", 20)
    return train_flatcat(wc, base, **kwargs)


def enumerate_posterior(cm: CategoryModel, morphs, index, cat) -> float:
    """Exact label posterior by summing over all legal category sequences."""
    num = den = 0.0
    for seq in itertools.product(CATEGORIES, repeat=len(morphs)):
        if seq[0] not in START_CATS or seq[-1] not in FINAL_CATS:
            continue
        if any(b not in ALLOWED_NEXT[a] for a, b in zip(seq, seq[1:])):
            continue
        lp = cm.start_logp(seq[0]) + cm.emit_logp(seq[0], morphs[0])
        for i in range(1, len(morphs)):
            lp += cm.trans_logp(seq[i - 1], seq[i]) + cm.emit_logp(seq[i], morphs[i])
        if lp == float("-inf"):
            continue
        w = math.exp(lp)
        den += w
        if seq[index] == cat:
            num += w
    return num / den if den else 0.0


class TestEm:
    @pytest.mark.parametrize("analyses", TOY_CORPORA, ids=("affix", "shared", "reduplicated"))
    def test_log_likelihood_non_decreasing(self, analyses):
        model = _flatcat(analyses)
        hist = model.ll_history
        assert len(hist) == 20
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))

    @pytest.mark.parametrize("analyses", TOY_CORPORA, ids=("affix", "shared", "reduplicated"))
    def test_probability_tables_normalized(self, analyses):
        cm = _flatcat(analyses).categories
        assert abs(sum(math.exp(v) for v in cm.start.values()) - 1) < 1e-9
        for cat in CATEGORIES:
            assert abs(sum(math.exp(v) for v in cm.trans[cat].values()) - 1) < 1e-9
            assert abs(sum(math.exp(v) for v in cm.emit[cat].values()) - 1) < 1e-9

    def test_affix_toy_categories(self):
        model = _flatcat(AFFIX_TOY, diversity_threshold=2)
        cm = model.categories
        p_re = (
            enumerate_posterior(cm, ("re", "play"), 0, "PRE")
            + enumerate_posterior(cm, ("re", "do"), 0, "PRE")
        ) / 2
        p_er = (
            enumerate_posterior(cm, ("play", "er"), 1, "SUF")
            + enumerate_posterior(cm, ("do", "er"), 1, "SUF")
        ) / 2
        assert p_re > 0.5
        assert p_er > 0.5

    def test_forward_backward_matches_enumeration(self):
        cm = _flatcat(AFFIX_TOY, diversity_threshold=2).categories
        ll, alphas, betas = _forward_backward(cm, ("re", "play"))
        for i, cat in ((0, "PRE"), (0, "STM"), (1, "STM"), (1, "SUF")):
            g = alphas[i][cat] + betas[i][cat] - ll
            got = math.exp(g) if g != float("-inf") else 0.0
            want = enumerate_posterior(cm, ("re", "play"), i, cat)
            assert got == pytest.approx(want, abs=1e-9)

    def test_requires_baseline_coverage(self):
        base = MorfModel.from_segmentations({"ab": ("a", "b")})
        with pytest.raises(DataError):
            train_flatcat({"ab": 1, "cd": 1}, base)


class TestJointViterbi:
    def test_degenerate_single_category_equals_baseline(self):
        base = MorfModel.from_segmentations(AFFIX_TOY)
        total = base.total_tokens
        emit = {"STM": {m: math.log(c / total) for m, c in base.lexicon.items()}}
        degenerate = MorfModel(
            lexicon=base.lexicon,
            alphabet=base.alphabet,
            variant="flatcat",
            categories=CategoryModel(
                start={"STM": 0.0}, trans={"STM": {"STM": 0.0}}, emit=emit
            ),
        )
        for word in ("replay", "doer", "redoer", "playdo", "xyz"):
            joint, _ = viterbi_segment_with_categories(degenerate, word)
            assert joint == viterbi_segment(base, word)

    def test_segmentations_are_surface(self):
        model = _flatcat(AFFIX_TOY, diversity_threshold=2)
        for word in ("replayer", "dodo", "q"):
            morphs, cats = viterbi_segment_with_categories(model, word)
            assert "".join(morphs) == word
            assert len(morphs) == len(cats)
            assert cats[-1] in FINAL_CATS

    def test_affix_generalization(self):
        model = _flatcat(AFFIX_TOY, diversity_threshold=2)
        morphs, cats = viterbi_segment_with_categories(model, "redoer")
        assert morphs == ["re", "do", "er"]
        assert cats == ["PRE", "STM", "SUF"]


class TestModelFile:
    def test_category_block_round_trip(self, tmp_path):
        model = _flatcat(AFFIX_TOY, diversity_threshold=2)
        path = tmp_path / "m.fc"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "morf v1 flatcat 1.0"
        assert "transitions:" in text and "emissions:" in text
        loaded = load_model(path)
        assert loaded.categories is not None
        for cat in CATEGORIES:
            for m, lp in model.categories.emit[cat].items():
                assert loaded.categories.emit[cat][m] == pytest.approx(lp, abs=0)
        for word in ("replay", "redoer", "zq"):
            assert viterbi_segment_with_categories(loaded, word) == (
                viterbi_segment_with_categories(model, word)
            )
        again = tmp_path / "again.fc"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()
