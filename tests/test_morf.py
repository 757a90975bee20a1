import math
import random
from collections import Counter

import pytest

from polyseg.errors import ConfigError, DataError
from oracles import (
    morf_best_cost,
    morf_joint_minimum,
    morf_morph_cost,
    morf_total_cost,
)
from polyseg.morf import (
    MorfModel,
    load_model,
    mdl_cost,
    save_model,
    segment_corpus,
    train_baseline,
    train_lmvr,
    viterbi_segment,
)

FOUR_WORDS = {"taka": 5, "tasu": 5, "mika": 5, "misu": 5}


# -- mdl cost -------------------------------------------------------------------


class TestMdlCost:
    def test_single_morph_closed_form(self):
        model = MorfModel(lexicon=Counter({"a": 1}), alphabet=frozenset("a"))
        cost = mdl_cost(model)
        assert cost.corpus_cost == pytest.approx(0.0, abs=1e-12)
        assert cost.lexicon_cost == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_two_morph_hand_evaluation(self):
        model = MorfModel(lexicon=Counter({"ab": 2, "c": 1}), alphabet=frozenset("abc"))
        expected = -(2 * math.log(2 / 3) + math.log(1 / 3))
        assert mdl_cost(model).corpus_cost == pytest.approx(expected, abs=1e-12)

    def test_unused_lexicon_entry_raises_total(self):
        model = MorfModel(lexicon=Counter({"ab": 2}), alphabet=frozenset("abz"))
        before = mdl_cost(model).total
        model.lexicon["zzz"] = 0
        assert mdl_cost(model).total > before

    def test_pure_function_of_state(self):
        model = train_baseline(FOUR_WORDS, seed=3)
        assert mdl_cost(model).total == pytest.approx(mdl_cost(model).total)
        assert abs(mdl_cost(model).total - model.cost_history[-1]) < 1e-6


# -- baseline training -----------------------------------------------------------


class TestBaseline:
    def test_single_letter_word(self):
        model = train_baseline({"a": 1})
        assert model.analyses["a"] == ("a",)
        assert model.lexicon == Counter({"a": 1})

    def test_reaches_exhaustive_global_minimum(self):
        expected = morf_joint_minimum({w: 1 for w in FOUR_WORDS})
        model = train_baseline(FOUR_WORDS, seed=1917, restarts=16)
        assert abs(mdl_cost(model).total - expected) < 1e-9
        assert model.analyses["taka"] == ("ta", "ka")

    def test_epoch_costs_non_increasing(self):
        rng = random.Random(11)
        for trial in range(5):
            wc = {
                "".join(rng.choice("aeikmstu") for _ in range(rng.randint(2, 7))): rng.randint(1, 6)
                for _ in range(rng.randint(3, 12))
            }
            model = train_baseline(wc, seed=trial)
            hist = model.cost_history
            assert all(a >= b - 1e-6 for a, b in zip(hist, hist[1:]))

    def test_word_init_is_deterministic_whole_words(self):
        model = train_baseline({"ab": 1}, init="words")
        assert model.analyses["ab"] == ("ab",)

    def test_determinism(self):
        m1 = train_baseline(FOUR_WORDS, seed=5)
        m2 = train_baseline(FOUR_WORDS, seed=5)
        assert m1.lexicon == m2.lexicon and m1.analyses == m2.analyses

    def test_empty_counts_rejected(self):
        with pytest.raises(DataError):
            train_baseline({})


class TestViterbi:
    def test_training_split_recovered(self):
        model = train_baseline(FOUR_WORDS, seed=1917, restarts=16)
        assert viterbi_segment(model, "taka") == ["ta", "ka"]

    def test_single_morph_lexicon_composes(self):
        model = MorfModel.from_segmentations({"a": ("a",)})
        assert viterbi_segment(model, "aa") == ["a", "a"]

    def test_matches_exhaustive_minimum_on_random_words(self):
        model = train_baseline(FOUR_WORDS, seed=1917, restarts=16)
        rng = random.Random(99)
        chars = sorted(model.alphabet) + ["z"]  # include an out-of-alphabet char
        for _ in range(200):
            word = "".join(rng.choice(chars) for _ in range(rng.randint(1, 10)))
            morphs = viterbi_segment(model, word)
            assert "".join(morphs) == word
            got = sum(morf_morph_cost(model, m) for m in morphs)
            assert got == pytest.approx(morf_best_cost(model, word), abs=1e-9)


class TestLmvr:
    def test_infeasible_cap_rejected(self):
        with pytest.raises(ConfigError):
            train_lmvr(FOUR_WORDS, max_lexicon_size=3)  # alphabet has 7 characters

    def test_cap_alphabet_forces_characters(self):
        alphabet = {ch for w in FOUR_WORDS for ch in w}
        model = train_lmvr(FOUR_WORDS, max_lexicon_size=len(alphabet), seed=2)
        for w, morphs in model.analyses.items():
            assert morphs == tuple(w)
        assert set(model.lexicon) == alphabet

    def test_cap_bounds_effective_lexicon(self):
        alphabet = {ch for w in FOUR_WORDS for ch in w}
        cap = len(alphabet) + 2
        model = train_lmvr(FOUR_WORDS, max_lexicon_size=cap, seed=4)
        multichar = sum(1 for m in model.lexicon if len(m) > 1)
        assert len(alphabet) + multichar <= cap

    def test_unbounded_type_training_matches_baseline(self):
        base = train_baseline(FOUR_WORDS, seed=8, restarts=3)
        lmvr = train_lmvr(
            FOUR_WORDS, max_lexicon_size=None, seed=8, dampening="types", restarts=3
        )
        assert lmvr.lexicon == base.lexicon
        assert lmvr.analyses == base.analyses

    def test_token_counts_split_frequent_words_harder(self):
        # one very frequent compositional word plus supporting types
        wc = {"kaka": 50, "kasu": 1, "suka": 1}
        tok = train_lmvr(wc, seed=1, restarts=8)
        cost = mdl_cost(tok)
        recomputed = morf_total_cost(tok.lexicon, tok.alphabet)
        assert cost.total == pytest.approx(recomputed, abs=1e-6)


class TestSegmentCorpus:
    def test_concatenation_invariant(self):
        model = train_baseline(FOUR_WORDS, seed=1917, restarts=16)
        sentences = [["taka", "misu"], ["zzz"]]
        segged = segment_corpus(model, sentences)
        assert len(segged) == 2
        for sent, seg in zip(sentences, segged):
            for tok, morphs in zip(sent, seg):
                assert "".join(morphs) == tok


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = train_baseline(FOUR_WORDS, seed=1917, restarts=16)
        path = tmp_path / "m.morf"
        save_model(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "morf v1 baseline 1.0"
        loaded = load_model(path)
        assert loaded.lexicon == model.lexicon
        assert loaded.alphabet == model.alphabet
        for w in ("taka", "mitasu", "zz"):
            assert viterbi_segment(loaded, w) == viterbi_segment(model, w)
        again = tmp_path / "again.morf"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_lmvr_header_carries_cap(self, tmp_path):
        model = train_lmvr(FOUR_WORDS, max_lexicon_size=9, seed=2)
        path = tmp_path / "m.lmvr"
        save_model(model, path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "morf v1 lmvr 1.0 9"
        loaded = load_model(path)
        assert loaded.max_lexicon_size == 9
        again = tmp_path / "again.lmvr"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()
