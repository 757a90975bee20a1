import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyseg.bpe import (
    DEFAULT_MARKER,
    decode,
    encode,
    load_model,
    save_model,
    train_bpe,
)
from polyseg.errors import ConfigError, DataError, FormatError
from oracles import bpe_oracle_merges, random_bpe_corpus


class TestTraining:
    def test_first_merge_by_pair_counting(self):
        # pair totals over the corpus: (a,a) occurs 5 times, (a,b</w>) 3
        model = train_bpe({"aaab": 2, "aab": 1}, target_vocab_size=3)
        assert model.merges[0] == ("a", "a")
        assert len(model.merges) == 1

    def test_zero_budget_gives_characters(self):
        model = train_bpe({"ab": 1}, target_vocab_size=2)
        assert model.merges == []
        assert encode(model, "ab") == ["a", "b" + DEFAULT_MARKER]

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

    def test_merge_monotonicity(self):
        wc = {"abab": 4, "abc": 3, "bc": 5}
        model = train_bpe(wc, 30)
        # replay prefix-by-prefix: every merge strictly shrinks the corpus
        sizes = []
        for k in range(len(model.merges) + 1):
            total = 0
            for w, c in wc.items():
                syms = list(w)
                syms[-1] += DEFAULT_MARKER
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
        assert model.vocab == {"a", "b" + DEFAULT_MARKER, "aa"}


class TestEncodeDecode:
    def test_merge_replay_by_hand(self):
        model = train_bpe({"aaab": 2, "aab": 1}, target_vocab_size=3)
        assert encode(model, "aaab") == ["aa", "a", "b" + DEFAULT_MARKER]

    def test_unknown_character_flagged(self):
        model = train_bpe({"ab": 1}, target_vocab_size=2)
        pieces = encode(model, "az")
        assert pieces == ["a", "z" + DEFAULT_MARKER]
        assert model.is_unknown(pieces[1])
        assert not model.is_unknown(pieces[0])

    def test_decode_examples(self):
        assert decode(["aa", "a", "b" + DEFAULT_MARKER]) == "aaab"
        assert decode(["a" + DEFAULT_MARKER]) == "a"

    def test_decode_rejects_internal_marker(self):
        with pytest.raises(FormatError):
            decode(["a" + DEFAULT_MARKER, "b"])

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


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = train_bpe({"aaab": 2, "aab": 1, "abab": 3}, 8)
        path = tmp_path / "model.bpe"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "bpe v1 8 </w>"
        loaded = load_model(path)
        assert loaded.merges == model.merges
        assert loaded.boundary_marker == model.boundary_marker
        for w in ("aaab", "aab", "abab", "bbbb"):
            assert encode(loaded, w) == encode(model, w)
        again = tmp_path / "again.bpe"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()
