import itertools
import random
import time

import pytest

from polyseg.errors import AlignmentError
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


class TestMarking:
    def test_two_way_classification(self):
        assert significance_mark(0.05) == "significant"
        assert significance_mark(0.049) == "significant"
        assert significance_mark(0.051) == "not-significant"
        assert significance_mark(1.0) == "not-significant"
