import hashlib
import math
import random
import re
import string
import sys
import time
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyseg import chain, morf
from polyseg.chain import SpanIndex, batches
from polyseg.corpus import check_word_counts
from polyseg.errors import ConfigError, DataError, NumericError
from oracles import (
    WIDE_FILLER,
    MorfOracleTrainer,
    morf_best_cost,
    morf_joint_minimum,
    morf_morph_cost,
    morf_oracle_span_table,
    morf_oracle_viterbi,
    morf_total_cost,
    morf_word_lists,
    wide_morphs,
    wide_words,
)
from polyseg.morf import (
    MorfModel,
    _Trainer,
    _train_restarts,
    load_model,
    mdl_cost,
    save_model,
    segment_words,
    train_baseline,
    train_flatcat,
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


class TestSearchMatchesOracle:
    """Scoring candidates by arithmetic leaves the trainer in exactly the
    state the mutate-and-measure oracle reaches, when both leave the
    running sum of count*log(count) as it was after scoring a candidate
    and commit a split in the same order: same analyses, lexicon
    (insertion order included), epoch costs and running sum, bit for
    bit."""

    @staticmethod
    def _trained(cls, word_counts, restarts, seed, **kw):
        kw.setdefault("alpha", 1.0)
        kw.setdefault("epsilon", 0.1)
        kw.setdefault("max_epochs", 30)
        return _train_restarts(cls, word_counts, seed, restarts, **kw)

    def _assert_same(self, word_counts, restarts=1, seed=0, **kw):
        fast = self._trained(_Trainer, word_counts, restarts, seed, **kw)
        slow = self._trained(MorfOracleTrainer, word_counts, restarts, seed, **kw)
        # the oracle searched through its own recursion, not the fast visit
        assert slow.searches >= len(word_counts) * (len(slow.cost_history) - 1)
        assert fast._analyses == slow._analyses
        assert list(fast._counts.items()) == list(slow._counts.items())
        assert fast.cost_history == slow.cost_history
        assert fast._sum_clogc == slow._sum_clogc
        return slow

    @settings(max_examples=80, deadline=None)
    @given(
        words=st.lists(
            st.one_of(st.text(st.sampled_from("aab"), min_size=1, max_size=8),
                      st.text(st.sampled_from("abkm"), min_size=1, max_size=8),
                      st.sampled_from(("abab", "aaaa", "kmkm", "aa"))),
            min_size=1, max_size=10),
        counts=st.lists(st.integers(1, 40), min_size=10, max_size=10),
        dampening=st.sampled_from(("types", "tokens")),
        init=st.sampled_from(("words", "chars", "random")),
        restarts=st.integers(1, 3),
        slack=st.one_of(st.none(), st.integers(0, 3)),
        alpha=st.sampled_from((1.0, 0.25, 3.0)),
        seed=st.integers(0, 10_000),
    )
    def test_random_configurations(self, words, counts, dampening, init, restarts,
                                   slack, alpha, seed):
        word_counts = dict(zip(words, counts))
        cap = None if slack is None else len(set("".join(word_counts))) + slack
        self._assert_same(word_counts, restarts, seed, alpha=alpha, dampening=dampening,
                          cap=cap, init=init)

    @pytest.mark.parametrize("word_counts", [
        {"abab": 10}, {"aaaa": 7}, {"abab": 1, "aaaa": 1},
        {"abab": 3, "aaaa": 2, "abba": 1, "ab": 4, "aa": 1},
    ])
    @pytest.mark.parametrize("dampening", ["types", "tokens"])
    def test_twin_halves(self, word_counts, dampening):
        # "abab" and "aaaa" split at 2 add the same morph twice
        for init in ("words", "chars", "random"):
            self._assert_same(word_counts, 2, 7, dampening=dampening, cap=None, init=init)

    def test_candidates_are_scored_in_the_commit_order(self):
        # a candidate here scores within rounding of another, so a sum taken
        # in any other order than its adds would make it picks another split
        wc = {"mtkabmabs": 11, "aamam": 41, "k": 9, "mkaakktkm": 6, "b": 20, "bmmm": 11,
              "mab": 50}
        self._assert_same(wc, 1, 366, alpha=3.0, dampening="tokens",
                          cap=len(set("".join(wc))) + 2, init="words")

    def test_frequent_word_in_small_memory(self):
        # the table of count * log(count) stops growing long before the
        # counts do; tabulating it up to 3e6 + 2 * 3e6 took ~190 MB
        word_counts = {"kawi": 3_000_000, "kawiru": 5, "ruka": 7}
        tracemalloc.start()
        try:
            train_lmvr(word_counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        self._assert_same(word_counts, 1, 1917, dampening="tokens", cap=None, init="random")

    def test_tight_cap_descends_through_cheapest_split(self):
        wc = {"kakamisu": 9, "misukaka": 4, "sukami": 6, "kamika": 3}
        alphabet = set("".join(wc))
        oracle = self._assert_same(wc, 1, 3, dampening="tokens", cap=len(alphabet) + 1,
                                   init="words")
        assert oracle.fallbacks > 0


class TestAlphaAndDrift:
    def test_flatcat_rejects_alpha_its_file_cannot_carry(self):
        base = MorfModel.from_segmentations({w: (w,) for w in FOUR_WORDS}, alpha=1e200)
        with pytest.raises(ConfigError, match="alpha 1e\\+200 is above"):
            train_flatcat(FOUR_WORDS, base)

    @pytest.mark.parametrize("train", [train_baseline, train_lmvr], ids=("baseline", "lmvr"))
    def test_alpha_that_could_overflow_the_cost_is_refused(self, train):
        with pytest.raises(ConfigError, match="alpha 1e\\+308 is above 1e\\+100"):
            train(FOUR_WORDS, alpha=1e308)

    def test_drift_in_running_sum_is_caught(self, monkeypatch):
        self._nudged(monkeypatch, 1e-3)
        with pytest.raises(NumericError, match="drifted"):
            train_baseline(FOUR_WORDS, seed=5)

    def test_drift_at_large_alpha_is_caught(self, monkeypatch):
        # the cost here is ~4e6, so the drift allowed is ~4e-4
        self._nudged(monkeypatch, 1e-2)
        with pytest.raises(NumericError, match="drifted"):
            train_baseline(FOUR_WORDS, seed=5, alpha=1e5)

    @staticmethod
    def _nudged(monkeypatch, nudge):
        real_visit = _Trainer._visit

        def nudging_visit(self, word):
            real_visit(self, word)
            if word == "taka":
                self._sum_clogc += nudge

        monkeypatch.setattr(_Trainer, "_visit", nudging_visit)

    @pytest.mark.parametrize("alpha", [1e5, 1e7, 1e12])
    def test_large_alpha_trains(self, alpha):
        # rounding in a cost of ~7e7 at alpha 1e5 (~7e14 at 1e12) exceeds
        # any fixed absolute tolerance; the drift allowed scales with it
        rng = random.Random(4)
        syllables = [c + v for c in "ptkmnsw" for v in "aiu"]
        counts = Counter()
        for _ in range(300):
            word = "".join(rng.choice(syllables) for _ in range(rng.randint(1, 4)))
            counts[word] += rng.randint(1, 20)
        model = train_baseline(counts, alpha=alpha, restarts=1)
        assert mdl_cost(model).total > alpha


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


# -- the batch decoder against the per-word oracle --------------------------------


@st.composite
def lexicon_models(draw):
    """Lexicons over a few short morphs with counts 1 or 2, so equal-cost
    splits are common.  At alpha 1e308 every unseen morph costs inf, so a
    word that known morphs do not spell has no finite path, and at -1e308
    every unseen morph costs -inf."""
    morphs = draw(st.sets(st.sampled_from(("a", "b", "ab", "ba", "abc", "cab"))))
    return MorfModel(lexicon=Counter({m: draw(st.sampled_from((1, 2))) for m in morphs}),
                     alphabet=frozenset("abcd"),
                     alpha=draw(st.sampled_from((0.0, 0.25, 1.0, 1e300, 1e308, -1e308))))


class TestSegmentWords:
    @settings(max_examples=300, deadline=None)
    @given(model=lexicon_models(), words=morf_word_lists(9), chunk=st.integers(1, 24))
    def test_matches_the_per_word_oracle(self, model, words, chunk):
        # a small CHUNK_POSITIONS cuts each length group into several chunks
        with mock.patch.object(chain, "CHUNK_POSITIONS", chunk):
            want = [morf_oracle_viterbi(model, w) for w in words]
            if None in want:
                message = "no legal category path for %r" % (words[want.index(None)],)
                with pytest.raises(NumericError, match=re.escape(message) + "$"):
                    segment_words(model, words)
            else:
                assert segment_words(model, words) == want

    def test_word_without_a_finite_path_raises(self):
        # an unseen "a" costs inf at alpha 1e308, and "a" has no other path
        model = MorfModel(lexicon=Counter({"b": 1}), alphabet=frozenset("ab"), alpha=1e308)
        assert morf_oracle_viterbi(model, "a") is None
        assert segment_words(model, ["b"]) == [["b"]]
        with pytest.raises(NumericError, match="'a'"):
            segment_words(model, ["b", "a"])

    def test_empty_word(self):
        model = MorfModel.from_segmentations({"ab": ("a", "b")})
        with pytest.raises(DataError):
            segment_words(model, ["ab", ""])
        assert segment_words(model, []) == []

    @pytest.mark.parametrize("variant", ["baseline", "flatcat"])
    def test_long_word_in_small_memory(self, variant):
        # only spans no longer than the model's longest morph are numbered,
        # one substring length at a time: a table of all 2000 * 2001 / 2
        # spans would take 16 MB as int64 alone
        model = train_baseline(FOUR_WORDS, seed=1917)
        if variant == "flatcat":
            model = train_flatcat(FOUR_WORDS, model)
        rng = random.Random(5)
        word = "".join(rng.choice("takmisuz") for _ in range(2000))
        segment_words(model, ["taka"])  # build the model's tables first
        tracemalloc.start()
        try:
            morphs = segment_words(model, [word])[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "".join(morphs) == word
        assert peak < 3_000_000


class TestSpanIndex:
    @settings(max_examples=60, deadline=None)
    @given(morphs=wide_morphs(), words=wide_words(),
           weights=st.lists(st.integers(1, 3), min_size=1, max_size=4),
           alpha=st.sampled_from((0.25, 1.0)))
    # prefix-key hits that the text refutes, and one it confirms
    @example(morphs=["aaaaaaaaa", "aaaaaaaaab", "aaaaaaaaaba", "ab"] + list(WIDE_FILLER),
             words=["aaaaaaaaaba", "aaaaaaaaabb", "zaaaaaaaaab", "aaaaaaaaaab", "aaaaaaaaaz"],
             weights=[1, 2], alpha=1.0)
    def test_matches_the_oracles(self, morphs, words, weights, alpha):
        # over the 102 characters of the morphs a key is exact up to 9
        # characters; "z" is outside the alphabet
        counts = {m: weights[i % len(weights)] for i, m in enumerate(morphs)}
        model = MorfModel(lexicon=Counter(counts), alphabet=frozenset("".join(morphs)),
                          alpha=alpha)
        ids = {m: i for i, m in enumerate(morphs)}
        index = SpanIndex(ids)
        for _, group in batches(words):
            assert np.array_equal(index.spans(group), morf_oracle_span_table(group, ids))
        assert segment_words(model, words) == [morf_oracle_viterbi(model, w) for w in words]

    def test_keys_never_wrap(self):
        # over 127 characters the base is 2 ** 7: a 10-character key taken
        # modulo 2 ** 64 would keep only the parity of its first code, so
        # texts whose first codes differ by 2 would share it
        chars = [chr(0x100 + i) for i in range(127)]
        morph = "".join(chars[:10])
        ids = {m: i for i, m in enumerate(chars + [morph])}
        words = [morph, chars[2] + morph[1:]]
        table = SpanIndex(ids).spans(words)
        assert np.array_equal(table, morf_oracle_span_table(words, ids))
        assert table[:, 9, -1].tolist() == [ids[morph], len(ids)]

    def test_long_morph_in_small_memory(self):
        # a lexicon of one 20000-character morph and its characters: the
        # spans of every length up to 20000 would take ~3.2 GB as int64,
        # the index reads two lengths
        rng = random.Random(7)
        morph = "".join(rng.choice(string.ascii_lowercase) for _ in range(20000))
        model = MorfModel(lexicon=Counter({morph: 1, **dict.fromkeys(morph, 1)}),
                          alphabet=frozenset(morph))
        # the same prefix keys as the morph, but not its text
        near = morph[:-1] + ("b" if morph.endswith("a") else "a")
        started = time.perf_counter()
        assert segment_words(model, [morph, near]) == [[morph], list(near)]
        assert time.perf_counter() - started < 20
        tracemalloc.start()
        try:
            assert segment_words(model, [morph]) == [[morph]]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000


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
        # with every count 1, lmvr's token weights are the baseline's type weights
        once = {w: 1 for w in FOUR_WORDS}
        base = train_baseline(once, seed=8, restarts=3)
        lmvr = train_lmvr(once, max_lexicon_size=None, seed=8, restarts=3)
        assert lmvr.lexicon == base.lexicon
        assert lmvr.analyses == base.analyses

    def test_token_counts_split_frequent_words_harder(self):
        # one very frequent compositional word plus supporting types
        wc = {"kaka": 50, "kasu": 1, "suka": 1}
        tok = train_lmvr(wc, seed=1, restarts=8)
        cost = mdl_cost(tok)
        recomputed = morf_total_cost(tok.lexicon, tok.alphabet)
        assert cost.total == pytest.approx(recomputed, abs=1e-6)

    def test_token_longer_than_the_recursion_limit_under_a_tight_cap(self):
        # a cap of the alphabet forbids every multi-character morph, so the
        # search descends one character per level: 1200 levels deep
        rng = random.Random(3)
        word = "".join(rng.choice("abcdefghij") for _ in range(1200))
        assert len(word) > sys.getrecursionlimit()
        started = time.perf_counter()
        model = train_lmvr({word: 2, "ab": 1}, max_lexicon_size=10)
        assert time.perf_counter() - started < 10
        assert model.analyses == {word: tuple(word), "ab": ("a", "b")}

    def test_restarts_check_the_counts_once(self, monkeypatch):
        calls = []

        def counting_check(word_counts):
            calls.append(word_counts)
            check_word_counts(word_counts)

        monkeypatch.setattr(morf, "check_word_counts", counting_check)
        model = train_lmvr(FOUR_WORDS, max_lexicon_size=9, seed=3, restarts=4)
        assert calls == [FOUR_WORDS]
        # still the cheapest of the four seeded runs
        singles = [train_lmvr(FOUR_WORDS, max_lexicon_size=9, seed=s) for s in range(3, 7)]
        assert mdl_cost(model).total == min(mdl_cost(m).total for m in singles)


class TestSegmentCorpus:
    def test_concatenation_invariant(self):
        model = train_baseline(FOUR_WORDS, seed=1917, restarts=16)
        sentences = [["taka", "misu"], ["zzz"]]
        segged = [segment_words(model, sent) for sent in sentences]
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

    @pytest.mark.parametrize("analyses,word_counts,message", [
        # "%d" would save the count as 2
        ({"ab": ("a", "b")}, {"ab": 2.5}, "non-integer count for 'ab': 2.5"),
        # the TAB would split the lexicon row into three fields on load
        ({"a\tb": ("a\tb",)}, None, "bad word in counts: 'a\\tb'"),
    ])
    def test_fixed_segmentations_that_would_not_load_back_are_rejected(
            self, analyses, word_counts, message):
        with pytest.raises(DataError) as exc:
            MorfModel.from_segmentations(analyses, word_counts=word_counts)
        assert str(exc.value) == message

    # 50 word types of prefix + stem + suffix, counts 1..13
    PINNED_CORPUS = {
        p + s + x: 1 + (7 * i) % 13
        for i, (p, s, x) in enumerate(
            (p, s, x)
            for p in ("", "pa")
            for s in ("kawi", "suta", "mika", "taro", "lupe")
            for x in ("", "n", "ta", "mi", "su")
        )
    }

    def test_saved_bytes_are_pinned(self, tmp_path):
        # for a given seed a model file stays byte-identical across changes
        # to the trainers; a change that moves one of these digests changes
        # the models users get and must be declared as such
        wc = self.PINNED_CORPUS
        base = train_baseline(wc, seed=5)
        cap = len(set("".join(wc))) + 6
        models = {
            "morfessor": (base, "581a3fc695b541236d470e6a0f16d17820f14b54cb47f1c536068f51db4976fe"),
            "lmvr": (train_lmvr(wc, max_lexicon_size=cap, seed=5),
                     "54789cf0a014c5b485bef466ca62ff9bc623d929e57b66a63040d9b3b3fbc191"),
            "flatcat": (train_flatcat(wc, base, seed=5),
                        "2c3846ae9f46462b43dc3801a272f9ed7deca2a946642c77100f7401f6a501f1"),
        }
        for name, (model, digest) in models.items():
            path = tmp_path / name
            save_model(model, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name

    def test_search_cost_histories_are_pinned(self):
        # the epoch costs are the search's running sums, read once an epoch;
        # adding its terms in another order moves these bits, though not the
        # model files'
        wc = self.PINNED_CORPUS
        cap = len(set("".join(wc))) + 6
        histories = {
            "morfessor": (train_baseline(wc, seed=5).cost_history,
                          "bc66023dad6115ef92adb6a4216cdf4b75921b0b2215afa6915513e5f29b83d4"),
            "lmvr": (train_lmvr(wc, max_lexicon_size=cap, seed=5).cost_history,
                     "094e30094faa690a39a3a5fc8d0a861978248e0fa58495d20d311b4ded2d8567"),
        }
        for name, (history, digest) in histories.items():
            assert hashlib.sha256(repr(history).encode()).hexdigest() == digest, name

    def test_flatcat_em_log_likelihoods_are_pinned(self):
        # each EM iteration sums its log-likelihood morph count by morph
        # count; summing in another order moves these bits, though not the
        # model file's
        wc = self.PINNED_CORPUS
        model = train_flatcat(wc, train_baseline(wc, seed=5), seed=5)
        assert hashlib.sha256(repr(model.ll_history).encode()).hexdigest() == \
            "9f506e692959eb04cc20aa601f921aa29bc4c233f84d5f215074955730be3c9e"
