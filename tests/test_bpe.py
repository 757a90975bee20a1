import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyseg.bpe import (
    MARKER,
    BpeModel,
    decode,
    encode,
    load_model,
    save_model,
    train_bpe,
)
from polyseg.errors import ConfigError, DataError, FormatError
from oracles import bpe_oracle_encode, bpe_oracle_merges, random_bpe_corpus


class TestTraining:
    def test_first_merge_by_pair_counting(self):
        # pair totals over the corpus: (a,a) occurs 5 times, (a,b</w>) 3
        model = train_bpe({"aaab": 2, "aab": 1}, target_vocab_size=3)
        assert model.merges[0] == ("a", "a")
        assert len(model.merges) == 1

    def test_zero_budget_gives_characters(self):
        model = train_bpe({"ab": 1}, target_vocab_size=2)
        assert model.merges == []
        assert encode(model, "ab") == ["a", "b" + MARKER]

    def test_target_below_alphabet_rejected(self):
        with pytest.raises(ConfigError):
            train_bpe({"abc": 1}, target_vocab_size=2)

    def test_marker_in_input_rejected(self):
        with pytest.raises(DataError):
            train_bpe({"a</w>b": 1}, target_vocab_size=50)

    def test_frequency_threshold_stops_training(self):
        # every pair unique: nothing reaches count 2
        model = train_bpe({"abc": 1}, target_vocab_size=100)
        assert model.merges == []

    def test_determinism(self):
        wc = random_bpe_corpus(random.Random(3))
        m1 = train_bpe(wc, 40)
        m2 = train_bpe(wc, 40)
        assert m1.merges == m2.merges and m1.vocab == m2.vocab

    def test_merges_match_oracle_on_random_corpora(self):
        rng = random.Random(1234)
        for _ in range(25):
            wc = random_bpe_corpus(rng)
            target = len({c for w in wc for c in w}) + len({w[-1] for w in wc}) + rng.randint(0, 30)
            model = train_bpe(wc, target)
            expected = bpe_oracle_merges(wc, target)
            assert model.merges == expected

    def test_count_ties_match_oracle(self):
        # every word once, every first pair and every final pair in exactly
        # three words: rounds are decided by the (left, right) tie-break
        words = ["".join(p) for p in itertools.permutations("abcde", 3)]
        wc = {w: 1 for w in words}
        model = train_bpe(wc, 60)
        assert len(model.merges) > 10
        assert model.merges == bpe_oracle_merges(wc, 60)
        wc = {"ab": 2, "ba": 2, "cd": 2, "dc": 2, "abcd": 1, "dcba": 1}
        assert train_bpe(wc, 30).merges == bpe_oracle_merges(wc, 30)

    def test_merge_monotonicity(self):
        wc = {"abab": 4, "abc": 3, "bc": 5}
        model = train_bpe(wc, 30)
        # replay prefix-by-prefix: every merge strictly shrinks the corpus
        sizes = []
        for k in range(len(model.merges) + 1):
            total = 0
            for w, c in wc.items():
                syms = list(w)
                syms[-1] += MARKER
                for pair in model.merges[:k]:
                    i = 0
                    while i < len(syms) - 1:
                        if (syms[i], syms[i + 1]) == pair:
                            syms[i : i + 2] = [syms[i] + syms[i + 1]]
                        i += 1
                total += len(syms) * c
            sizes.append(total)
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_vocab_counts_alphabet_and_merges(self):
        wc = {"aaab": 2, "aab": 1}
        model = train_bpe(wc, 3)
        assert model.vocab == {"a", "b" + MARKER, "aa"}


def _initial_symbols(word_counts):
    return {c for w in word_counts for c in w[:-1]} | {w[-1] + MARKER for w in word_counts}


# words over tiny alphabets, runs of one symbol and repeated pairs, so that
# rounds tie on counts and merged occurrences sit back to back or overlap
# ("aaaa" with pair ("a", "a"), "abab" with ("a", "b")); non-ASCII letters
# check that nothing depends on one character per byte
ADVERSARIAL_WORD = st.one_of(
    st.text(st.sampled_from("ab"), min_size=1, max_size=10),
    st.text(st.sampled_from("abcd"), min_size=1, max_size=8),
    st.text(st.sampled_from("aä語😀"), min_size=1, max_size=6),
    st.builds(lambda unit, n: unit * n,
              st.sampled_from(["a", "ab", "aab", "ä語", "aba"]), st.integers(1, 6)),
)


class TestTrainingMatchesOracle:
    """The incremental trainer against the from-scratch recount of
    ``bpe_oracle_merges``: the same merges in the same order, and a vocab of
    the initial symbols plus every merge result."""

    @staticmethod
    def _assert_same(word_counts, target):
        model = train_bpe(word_counts, target)
        merges = bpe_oracle_merges(word_counts, target)
        assert model.merges == merges
        assert model.vocab == _initial_symbols(word_counts) | {a + b for a, b in merges}

    @given(corpus=st.dictionaries(ADVERSARIAL_WORD, st.integers(1, 4), min_size=1,
                                  max_size=12),
           budget=st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_adversarial_corpora(self, corpus, budget):
        self._assert_same(corpus, len(_initial_symbols(corpus)) + budget)

    @pytest.mark.parametrize("corpus", [
        {"aaaab": 2, "aaab": 1},  # ("a", "a") overlaps itself; (aa, a) comes and goes
        {"abab": 2, "ababab": 1, "ba": 1},  # back to back: (b, a) -> (ab, a) -> (ab, ab)
        {"aaaaa": 3, "baaab": 2},  # odd runs, ending on the marker or not
        {"ab": 1, "ba": 1, "aa": 1, "bb": 1},  # every pair once: nothing merges
    ])
    def test_runs_and_back_to_back_occurrences(self, corpus):
        self._assert_same(corpus, len(_initial_symbols(corpus)) + 20)

    def test_seeded_zipfian_corpus(self):
        rng = random.Random(2016)
        syllables = [c + v for c in "ptkmnsw" for v in "aeiu"]
        stems = ["".join(rng.choice(syllables) for _ in range(rng.randint(1, 3)))
                 for _ in range(120)]
        suffixes = ["", "ka", "ni", "ta", "mu", "kani", "seta"]
        corpus = {}
        for rank in range(1, 400):
            word = rng.choice(stems) + rng.choice(suffixes)
            corpus[word] = corpus.get(word, 0) + max(1, 400 // rank)
        assert len(corpus) > 200
        self._assert_same(corpus, len(_initial_symbols(corpus)) + 150)


class TestEncodeDecode:
    def test_merge_replay_by_hand(self):
        model = train_bpe({"aaab": 2, "aab": 1}, target_vocab_size=3)
        assert encode(model, "aaab") == ["aa", "a", "b" + MARKER]

    def test_unknown_character_flagged(self):
        model = train_bpe({"ab": 1}, target_vocab_size=2)
        pieces = encode(model, "az")
        assert pieces == ["a", "z" + MARKER]
        assert model.is_unknown(pieces[1])
        assert not model.is_unknown(pieces[0])

    def test_decode_examples(self):
        assert decode(["aa", "a", "b" + MARKER]) == "aaab"
        assert decode(["a" + MARKER]) == "a"

    def test_decode_rejects_internal_marker(self):
        with pytest.raises(FormatError):
            decode(["a" + MARKER, "b"])

    def test_training_words_round_trip(self):
        wc = random_bpe_corpus(random.Random(7))
        model = train_bpe(wc, 500)
        for w in wc:
            assert decode(encode(model, w)) == w

    @given(
        st.text(
            alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_fuzzed_unicode(self, word):
        if "</w>" in word:
            return
        model = train_bpe({"taka": 3, "tasu": 2}, 20)
        assert decode(encode(model, word)) == word


WORD = st.text(alphabet="abcdefxy", min_size=1, max_size=12)


class TestEncodeMatchesReplay:
    """The rank-indexed encoder against the merge-list replay."""

    @given(seed=st.integers(0, 2**32 - 1), words=st.lists(WORD, min_size=1, max_size=10),
           extra=st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_trained_models(self, seed, words, extra):
        wc = random_bpe_corpus(random.Random(seed))
        model = train_bpe(wc, len({c for w in wc for c in w}) * 2 + extra)
        # "x" and "y" never occur in training corpora
        for word in list(wc) + words:
            assert encode(model, word) == bpe_oracle_encode(model.merges, word)

    @pytest.mark.parametrize("merges,word,pieces", [
        # after rank 1 makes "bc", pair ("a","bc") is back but its first
        # rank 0 has passed; rank 2 takes "bc" first, so rank 3 finds none
        pytest.param([("a", "bc"), ("b", "c"), ("bc", "d</w>"), ("a", "bc")],
                     "abcd", ["a", "bcd</w>"], id="pair-at-two-ranks-later-wins"),
        # here the earlier of the pair's two ranks applies
        pytest.param([("b", "c"), ("a", "bc"), ("bc", "d</w>"), ("a", "bc")],
                     "abcd", ["abc", "d</w>"], id="pair-at-two-ranks-earlier-wins"),
        # "abc" is rebuilt as ("ab","c") at rank 4, after the rank 3 of
        # ("abc","d</w>") has passed, so that pair must not fire
        pytest.param([("a", "b"), ("b", "c"), ("a", "bc"), ("abc", "d</w>"), ("ab", "c")],
                     "abcd", ["abc", "d</w>"], id="rebuilt-by-other-split"),
        # ("a","bc") at rank 0 is adjacent only after rank 1 makes "bc"
        pytest.param([("a", "bc"), ("b", "c"), ("a", "b"), ("ab", "c"), ("abc", "d</w>")],
                     "abcd", ["a", "bc", "d</w>"], id="passed-rank-reappears"),
        pytest.param([("a", "a")], "aaaaaaa", ["aa", "aa", "aa", "a</w>"],
                     id="odd-run-of-one-symbol"),
        pytest.param([("a", "a"), ("a", "a</w>"), ("aa", "aa")],
                     "aaaaa", ["aaaa", "a</w>"], id="run-then-merged-pieces"),
        pytest.param([("a", "a"), ("aa", "a"), ("a", "a")],
                     "aaaa", ["aaa", "a</w>"], id="run-with-repeated-pair"),
    ])
    def test_hostile_merge_lists(self, merges, word, pieces):
        assert bpe_oracle_encode(merges, word) == pieces
        assert encode(BpeModel(merges, vocab=set()), word) == pieces

    # short symbols over "ab", with and without the marker, so random
    # merge lists repeat pairs and rebuild symbols by different splits
    SYMBOL = st.sampled_from(["a", "b", "aa", "ab", "ba", "bb", "a</w>", "b</w>",
                              "ab</w>", "aa</w>", "ba</w>", "bb</w>", "aab</w>"])

    @given(merges=st.lists(st.tuples(SYMBOL, SYMBOL), max_size=20),
           word=st.text(alphabet="ab", min_size=1, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_merge_lists(self, merges, word):
        assert encode(BpeModel(merges, vocab=set()), word) == bpe_oracle_encode(merges, word)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = train_bpe({"aaab": 2, "aab": 1, "abab": 3}, 8)
        path = tmp_path / "model.bpe"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "bpe v1 8 </w>"
        loaded = load_model(path)
        assert loaded.merges == model.merges
        for w in ("aaab", "aab", "abab", "bbbb"):
            assert encode(loaded, w) == encode(model, w)
        again = tmp_path / "again.bpe"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()
