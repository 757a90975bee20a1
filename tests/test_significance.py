import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mt_corpus, mt_oracle_randomization_p
from polyseg import metrics
from polyseg.errors import AlignmentError, ConfigError
from polyseg.metrics import metric_report, paired_randomization_test, significance_mark


def _random_line(rng, vocab, lo=3, hi=9):
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(lo, hi)))


class TestPairedRandomization:
    def test_identical_systems_give_p_one(self):
        refs = ["a b c d", "e f g h"]
        assert paired_randomization_test(refs, list(refs), refs, metric="chrf") == 1.0

    @pytest.mark.parametrize("metric", ("bleu", "chrf"))
    def test_empty_input_gives_p_one(self, metric):
        assert paired_randomization_test([], [], [], metric=metric) == 1.0

    def test_identical_systems_sampled_path(self):
        rng = random.Random(2)
        vocab = ["ka", "wi", "su", "ta", "mi"]
        refs = [_random_line(rng, vocab) for _ in range(40)]
        sys_a = [_random_line(rng, vocab) for _ in range(40)]
        p = paired_randomization_test(sys_a, list(sys_a), refs, metric="chrf", trials=500)
        assert p == 1.0

    @pytest.mark.parametrize("metric", ("bleu", "chrf"))
    def test_two_sentence_case_matches_exhaustive_enumeration(self, metric):
        refs = ["ka wi su ta", "mi su ka wi"]
        sys_a = ["ka wi su ta", "mi su ka ka"]
        sys_b = ["ka wi ta ta", "mi su ka wi"]
        p = paired_randomization_test(sys_a, sys_b, refs, metric=metric, trials=10000)

        # oracle: swap whole output lines per pattern and rescore via the
        # public corpus-level API
        def corpus_delta(a_lines, b_lines):
            return (
                metric_report(metric, a_lines, refs).score
                - metric_report(metric, b_lines, refs).score
            )

        obs = corpus_delta(sys_a, sys_b)
        exceed = 0
        for pattern in itertools.product((False, True), repeat=2):
            a = [b if flip else a for a, b, flip in zip(sys_a, sys_b, pattern)]
            b = [a if flip else b for a, b, flip in zip(sys_a, sys_b, pattern)]
            exceed += abs(corpus_delta(a, b)) >= abs(obs)
        assert p == exceed / 4

    def test_seed_determinism(self):
        rng = random.Random(5)
        vocab = ["ka", "wi", "su", "ta"]
        refs = [_random_line(rng, vocab) for _ in range(50)]
        sys_a = [_random_line(rng, vocab) for _ in range(50)]
        sys_b = [_random_line(rng, vocab) for _ in range(50)]
        p1 = paired_randomization_test(sys_a, sys_b, refs, trials=2000, seed=99)
        p2 = paired_randomization_test(sys_a, sys_b, refs, trials=2000, seed=99)
        assert p1 == p2

    def test_p_in_declared_range(self):
        rng = random.Random(6)
        vocab = ["ka", "wi", "su"]
        refs = [_random_line(rng, vocab) for _ in range(40)]
        sys_a = [_random_line(rng, vocab) for _ in range(40)]
        sys_b = [_random_line(rng, vocab) for _ in range(40)]
        trials = 1000
        p = paired_randomization_test(sys_a, sys_b, refs, trials=trials, seed=3)
        assert 1 / (trials + 1) <= p <= 1.0

    def test_runtime_thousand_sentences(self):
        rng = random.Random(7)
        vocab = ["ka", "wi", "su", "ta", "mi", "pe"]
        refs = [_random_line(rng, vocab) for _ in range(1000)]
        sys_a = [_random_line(rng, vocab) for _ in range(1000)]
        sys_b = [_random_line(rng, vocab) for _ in range(1000)]
        start = time.perf_counter()
        paired_randomization_test(sys_a, sys_b, refs, metric="chrf", trials=10000, seed=1)
        assert time.perf_counter() - start < 10.0

    def test_alignment_error(self):
        with pytest.raises(AlignmentError):
            paired_randomization_test(["a"], ["a", "b"], ["a"], metric="chrf")


class TestBlockwiseTrialsMatchOracle:
    """The block-wise randomization against the whole flip matrix of the
    string-level oracle: bit-identical p for any block size."""

    @pytest.mark.parametrize("metric", ("bleu", "chrf"))
    @pytest.mark.parametrize("block", (7, 1000))
    @settings(max_examples=60, deadline=None)
    @given(corpus=mt_corpus(systems=2, max_sentences=8),
           trials=st.sampled_from((1, 5, 16, 64, 300)), seed=st.integers(0, 2**32 - 1))
    def test_hostile_lines(self, metric, block, corpus, trials, seed):
        sys_a, sys_b, refs = corpus
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_TRIAL_BLOCK", block)
            p = paired_randomization_test(sys_a, sys_b, refs, metric, trials, seed)
        assert p == mt_oracle_randomization_p(sys_a, sys_b, refs, metric, trials, seed)

    @pytest.mark.parametrize("metric", ("bleu", "chrf"))
    @pytest.mark.parametrize("n,trials", [
        (5, 10000),  # exact enumeration: 32 patterns in blocks of 7
        (40, 1000),  # sampled: 1000 trials in blocks of 7
    ])
    def test_blocks_of_seven(self, monkeypatch, metric, n, trials):
        rng = random.Random(11)
        vocab = ["ka", "wi", "su", "ta", "mi", "pe"]
        refs = [_random_line(rng, vocab) for _ in range(n)]
        sys_a = [_random_line(rng, vocab) for _ in range(n)]
        sys_b = [_random_line(rng, vocab) for _ in range(n)]
        expected = mt_oracle_randomization_p(sys_a, sys_b, refs, metric, trials, 1917)
        assert paired_randomization_test(sys_a, sys_b, refs, metric, trials, 1917) == expected
        monkeypatch.setattr(metrics, "_TRIAL_BLOCK", 7)
        assert paired_randomization_test(sys_a, sys_b, refs, metric, trials, 1917) == expected
        assert 1 / (trials + 1) < expected < 1.0

    def test_blocks_draw_the_whole_matrix_stream(self):
        # drawing the flip matrix block by block reads the same random stream
        whole = np.random.default_rng(1917).random((100, 37))
        rng = np.random.default_rng(1917)
        blocks = np.concatenate([rng.random((min(7, 100 - lo), 37)) for lo in range(0, 100, 7)])
        assert np.array_equal(whole, blocks)

    def test_reports_of_one_metric_and_length(self):
        refs = ["ka wi", "su ta"]
        bleu_a, bleu_b = metrics.metric_reports("bleu", [refs, refs], refs)
        with pytest.raises(ConfigError):
            metrics.randomization_p(bleu_a, metric_report("chrf", refs, refs))
        with pytest.raises(AlignmentError):
            metrics.randomization_p(bleu_a, metric_report("bleu", refs[:1], refs[:1]))
        with pytest.raises(ConfigError):
            metrics.randomization_p(bleu_a, bleu_b, trials=0)
        assert metrics.randomization_p(bleu_a, bleu_b) == 1.0


class TestMarking:
    def test_two_way_classification(self):
        assert significance_mark(0.05) == "significant"
        assert significance_mark(0.049) == "significant"
        assert significance_mark(0.051) == "not-significant"
        assert significance_mark(1.0) == "not-significant"
