import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _flatcat_oracle_lattice,
    flatcat_oracle_em,
    flatcat_oracle_forward_backward,
    flatcat_oracle_segment,
)

from polyseg.crf import forward_backward
from polyseg.errors import DataError, NumericError
from polyseg.morf import (
    ALLOWED_NEXT,
    CATEGORIES,
    FINAL_CATS,
    START_CATS,
    CategoryModel,
    MorfModel,
    _FINAL_MASK,
    _category_arrays,
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


def _category_chain(ids, emit, start, trans):
    """The shared chain's forward and backward values and log-likelihoods
    of a ``(words, n)`` batch of morph ids, as flatcat's EM runs it."""
    return forward_backward(emit.T[ids], start, trans, _FINAL_MASK)


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
        morphs = sorted({m for table in cm.emit.values() for m in table})
        ids = np.array([[morphs.index("re"), morphs.index("play")]])
        alpha, beta, ll = _category_chain(ids, *_category_arrays(cm, morphs))
        for i, cat in ((0, "PRE"), (0, "STM"), (1, "STM"), (1, "SUF")):
            c = CATEGORIES.index(cat)
            g = alpha[0, i, c] + beta[0, i, c] - ll[0]
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


# -- the array EM and the table lattice against the per-word oracles ----------

MORPHS = ("a", "b", "c", "ab", "ba", "abc", "bca")


@st.composite
def category_models(draw):
    """Category tables over MORPHS whose values come from a few constants,
    so equal path costs are common; ``uniform`` models give every entry of
    a table the same value.  Entries left out have zero mass."""
    uniform = draw(st.booleans())

    def table(keys):
        if uniform:
            return {k: math.log(1.0 / len(keys)) for k in keys}
        return {k: draw(st.sampled_from((0.0, -0.5, -1.0, -2.0)))
                for k in keys if draw(st.integers(0, 3))}

    start = table([c for c in START_CATS if uniform or draw(st.booleans())] or ["STM"])
    return CategoryModel(
        start=start,
        trans={c: table(ALLOWED_NEXT[c]) for c in CATEGORIES},
        emit={c: table(MORPHS) for c in CATEGORIES},
    )


def _flatcat_model(cm, alpha=1.0):
    return MorfModel(lexicon=Counter({"ab": 2, "c": 1, "bd": 1}), alphabet=frozenset("abcd"),
                     alpha=alpha, variant="flatcat", categories=cm)


def _decode(model, word):
    try:
        return viterbi_segment_with_categories(model, word)
    except NumericError:
        return None


def _assert_table_close(got: dict, want: dict):
    assert list(got) == list(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-9), key


class TestArraysMatchOracles:
    @settings(max_examples=150, deadline=None)
    @given(cm=category_models(),
           morphs=st.lists(st.sampled_from(MORPHS), min_size=1, max_size=7))
    def test_forward_backward(self, cm, morphs):
        ll, alphas, betas = flatcat_oracle_forward_backward(cm, morphs)
        ids = np.array([[MORPHS.index(m) for m in morphs]])
        alpha, beta, got_ll = _category_chain(ids, *_category_arrays(cm, list(MORPHS)))
        assert got_ll[0] == pytest.approx(ll, rel=1e-9)
        for i, c in itertools.product(range(len(morphs)), range(4)):
            assert alpha[0, i, c] == pytest.approx(alphas[i][CATEGORIES[c]], rel=1e-9)
            assert beta[0, i, c] == pytest.approx(betas[i][CATEGORIES[c]], rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        analyses=st.lists(st.lists(st.sampled_from(MORPHS), min_size=1, max_size=7),
                          max_size=12),
        one=st.sampled_from(MORPHS),
        seven=st.lists(st.sampled_from(MORPHS), min_size=7, max_size=7),
        threshold=st.integers(1, 3),
        iters=st.integers(1, 6),
    )
    def test_em(self, analyses, one, seven, threshold, iters):
        # a one-morph and a seven-morph analysis in every corpus
        by_word = {"".join(ms): tuple(ms) for ms in analyses + [[one], seven]}
        want_cm, want_ll = flatcat_oracle_em(by_word, epsilon=-1.0, max_iters=iters,
                                             diversity_threshold=threshold)
        model = _flatcat(by_word, max_iters=iters, diversity_threshold=threshold)
        assert model.ll_history == pytest.approx(want_ll, rel=1e-9)
        _assert_table_close(model.categories.start, want_cm.start)
        for cat in CATEGORIES:
            _assert_table_close(model.categories.trans[cat], want_cm.trans[cat])
            _assert_table_close(model.categories.emit[cat], want_cm.emit[cat])
        for word in by_word:
            assert _decode(model, word) == flatcat_oracle_segment(model, word)

    @settings(max_examples=200, deadline=None)
    @given(cm=category_models(), alpha=st.sampled_from((0.25, 1.0)),
           words=st.lists(st.text("abcd", min_size=1, max_size=7), min_size=1, max_size=5))
    def test_lattice(self, cm, alpha, words):
        model = _flatcat_model(cm, alpha)
        for word in words:
            assert _decode(model, word) == flatcat_oracle_segment(model, word)

    def test_lattice_on_a_uniform_model(self):
        cm = CategoryModel(
            start={c: math.log(0.5) for c in START_CATS},
            trans={c: {n: -math.log(len(ALLOWED_NEXT[c])) for n in ALLOWED_NEXT[c]}
                   for c in CATEGORIES},
            emit={c: {m: -math.log(len(MORPHS)) for m in MORPHS} for c in CATEGORIES},
        )
        model = _flatcat_model(cm)
        for n in range(1, 7):
            for chars in itertools.product("abc", repeat=n):
                word = "".join(chars)
                assert _decode(model, word) == flatcat_oracle_segment(model, word)

    def test_known_morph_with_zero_mass_in_a_category(self):
        # "ab" has no stem mass: the strict lattice may not read it as one
        # stem, although an unseen "ab" would be cheapest that way
        cm = CategoryModel(start={"PRE": -1.0, "STM": -1.0},
                           trans={"PRE": {"STM": -1.0}, "STM": {"SUF": -1.0}},
                           emit={"PRE": {"ab": -0.1}, "STM": {"a": -3.0},
                                 "SUF": {"b": -3.0}})
        model = _flatcat_model(cm, alpha=0.01)
        want = flatcat_oracle_segment(model, "ab")
        assert want == (["a", "b"], ["STM", "SUF"])
        assert _decode(model, "ab") == want

    def test_word_that_falls_back_to_the_relaxed_lattice(self):
        # every substring of "ab" is known as a prefix only, so no strict
        # path ends in a stem or suffix
        cm = CategoryModel(start={"PRE": -1.0, "STM": -1.0},
                           trans={"PRE": {"PRE": -1.0, "STM": -1.0}},
                           emit={"PRE": {"a": -1.0, "b": -1.0, "ab": -1.0}})
        model = _flatcat_model(cm)
        assert _flatcat_oracle_lattice(model, "ab", strict=True) is None
        want = flatcat_oracle_segment(model, "ab")
        assert want is not None
        assert _decode(model, "ab") == want

    def test_previous_category_ties_go_to_the_first_one_to_reach_the_position(self):
        # after "b|ba" the stem reached position 3 (from the start) before
        # the prefix (from position 1), and both reach the final "b" at the
        # same cost: the stem wins, where CATEGORIES order would pick PRE
        cm = CategoryModel(start={"STM": -1.0},
                           trans={"PRE": {"STM": -1.0}, "STM": {"PRE": 0.0, "STM": 0.0}},
                           emit={"PRE": {"ba": 0.0}, "STM": {"b": 0.0, "ba": -1.0}})
        model = _flatcat_model(cm)
        want = (["b", "ba", "b"], ["STM", "STM", "STM"])
        assert flatcat_oracle_segment(model, "bbab") == want
        assert _decode(model, "bbab") == want
