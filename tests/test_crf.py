import hashlib
import importlib.util
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from polyseg import chain, crf
from polyseg.chain import _logsumexp
from polyseg.cli import main, render_segmented
from polyseg.corpus import (
    CANONICAL,
    SURFACE,
    SegmentationDataset,
    SegmentedWord,
    load_segmentation,
)
from polyseg.crf import (
    LABELS,
    PAD,
    CrfModel,
    _emission_sums,
    _extended,
    _feature_slots,
    decode,
    labels_to_morphs,
    load_model,
    log_likelihood_and_gradient,
    marginals,
    morphs_to_labels,
    save_model,
    segment_words,
    train_crf,
)
from polyseg.errors import ConfigError, DataError, ParseError, UnsupportedModeError
from oracles import (
    crf_oracle_decode,
    crf_oracle_feature_index,
    crf_oracle_feature_ids,
    crf_oracle_features,
    crf_oracle_length_groups,
    crf_oracle_llgrad,
    crf_oracle_marginals,
    crf_oracle_scores,
    crf_oracle_train_scipy,
    crf_sequence_score,
    extract_features,
    random_crf_model,
    valid_bmes_sequences,
)


def dataset(*words_with_morphs):
    return SegmentationDataset(
        tuple(SegmentedWord("".join(m), tuple(m)) for m in words_with_morphs),
        mode=SURFACE,
    )


TOY = dataset(
    ("ka", "wi"), ("ka", "su"), ("mi", "su"), ("ta", "ka", "wi"), ("p", "iwe")
)


class TestFeatures:
    def test_delta_one_exact_enumeration(self):
        feats = extract_features("ab", 0, delta=1)
        assert set(feats) == {(-1, PAD), (0, "a"), (1, "b")}

    def test_substrings_at_offsets(self):
        feats = set(extract_features("abc", 1, delta=3))
        assert (-1, "ab") in feats
        assert (0, "bc") in feats
        assert (-1, "abc") in feats

    def test_position_shift_consistency(self):
        rng = random.Random(31)
        for _ in range(100):
            delta = rng.randint(1, 3)
            w = "".join(rng.choice("abcd") for _ in range(rng.randint(2 * delta + 2, 10)))
            i = rng.randint(delta, len(w) - 1 - delta)
            shifted = extract_features("x" + w, i + 1, delta)
            assert extract_features(w, i, delta) == shifted

    @pytest.mark.parametrize("delta", range(1, 9))
    def test_matches_full_window_walk(self, delta):
        rng = random.Random(delta)
        for n in range(1, 12):
            w = "".join(rng.choice("abc") for _ in range(n))
            for i in range(n):
                assert extract_features(w, i, delta) == crf_oracle_features(w, i, delta)

    @given(words=st.lists(st.text(alphabet="ab\U0001f600\u00e9", min_size=1, max_size=9),
                          min_size=1, max_size=8),
           repeats=st.lists(st.integers(0, 7), max_size=4), delta=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_training_numbers_features_in_first_seen_order(self, words, repeats, delta):
        # one-character words, mixed lengths in any order, repeated entries
        # and characters outside the BMP, which the substring codes read as
        # one utf-32 unit each
        words = words + [words[k % len(words)] for k in repeats]
        data = dataset(*[(w,) for w in words])
        want = crf_oracle_feature_index(words, delta)
        model = train_crf(data, delta=delta, max_iters=1)
        assert list(model.feat_index.items()) == list(want.items())

    def test_numbering_empty_word_list(self):
        assert crf._number_features([], 3) == {}


class TestBmes:
    def test_round_trip(self):
        labels = morphs_to_labels(("ta", "ka", "w"))
        assert labels == ("B", "E", "B", "E", "S")
        assert labels_to_morphs("takaw", labels) == ("ta", "ka", "w")


class TestLikelihood:
    def test_logz_counts_wellformed_sequences_at_zero(self):
        model = CrfModel.zeros(1, 0.0, {})
        for n in range(1, 7):
            word = "a" * n
            _, log_z = marginals(model, word)
            assert log_z == pytest.approx(math.log(len(valid_bmes_sequences(n))), abs=1e-9)

    def test_length_two_partition_is_log_two(self):
        model = CrfModel.zeros(1, 0.0, {})
        _, log_z = marginals(model, "ab")
        assert log_z == pytest.approx(math.log(2), abs=1e-12)
        assert {("S", "S"), ("B", "E")} == set(valid_bmes_sequences(2))

    def test_empty_dataset_zero_l2(self):
        model = CrfModel.zeros(2, 0.0, {})
        ll, grad = log_likelihood_and_gradient(
            model, SegmentationDataset((), mode=SURFACE)
        )
        assert ll == 0.0
        assert not grad.size or np.all(grad == 0)

    @pytest.mark.parametrize("l2", (0.0, 0.1))
    def test_gradient_matches_central_finite_differences(self, l2):
        model = random_crf_model(TOY, delta=2, l2=l2, seed=1)
        _, grad = log_likelihood_and_gradient(model, TOY)
        vec = model.packed()
        h = 1e-5
        worst = 0.0
        for k in range(vec.size):
            plus = vec.copy()
            plus[k] += h
            model.set_packed(plus)
            hi, _ = log_likelihood_and_gradient(model, TOY)
            minus = vec.copy()
            minus[k] -= h
            model.set_packed(minus)
            lo, _ = log_likelihood_and_gradient(model, TOY)
            model.set_packed(vec)
            numeric = (hi - lo) / (2 * h)
            rel = abs(grad[k] - numeric) / max(abs(grad[k]), abs(numeric), 1e-6)
            worst = max(worst, rel)
        assert worst < 1e-4

    def test_distribution_sums_to_one_by_enumeration(self):
        model = random_crf_model(TOY, delta=2, seed=3)
        for word in ("ka", "kawi", "takawi"):
            _, log_z = marginals(model, word)
            total = sum(
                math.exp(crf_sequence_score(model, word, seq) - log_z)
                for seq in valid_bmes_sequences(len(word))
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_position_marginals_sum_to_one(self):
        model = random_crf_model(TOY, delta=2, seed=4)
        gamma, _ = marginals(model, "takawi")
        assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-9)


MORPHS = st.lists(st.text(alphabet="abk", min_size=1, max_size=3), min_size=1, max_size=3)


def _long_word(rng):
    """Morphs of one to four letters adding up to over 300 characters."""
    morphs = []
    while sum(map(len, morphs)) <= 300:
        morphs.append("".join(rng.choice("abkw") for _ in range(rng.randint(1, 4))))
    return tuple(morphs)


class TestBatchedMatchesOracle:
    """The batched likelihood, gradient and marginals against the
    word-by-word forward-backward."""

    @given(words=st.lists(MORPHS, max_size=8), long=st.booleans(),
           delta=st.integers(1, 3), l2=st.sampled_from((0.0, 0.1)),
           keep=st.sampled_from((1.0, 0.5)), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_likelihood_gradient_and_marginals(self, words, long, delta, l2, keep, seed):
        rng = random.Random(seed)
        # a length-1 word, and "aaaa" whose features recur at each position
        words = words + [("a",), ("aa", "aa")] + ([_long_word(rng)] if long else [])
        data = dataset(*words)
        feats = {f for e in data.entries for i in range(len(e.surface))
                 for f in extract_features(e.surface, i, delta)}
        # with keep < 1 some positions have only unknown features
        kept = [f for f in sorted(feats) if rng.random() < keep]
        model = CrfModel.zeros(delta, l2, {f: k for k, f in enumerate(kept)})
        weights = np.random.default_rng(seed).uniform(-20.0, 20.0, model.packed().size)
        model.set_packed(weights)

        ll, grad = log_likelihood_and_gradient(model, data)
        want_ll, want_grad = crf_oracle_llgrad(model, data)
        assert ll == pytest.approx(want_ll, rel=1e-9)
        scale = max(1.0, np.abs(want_grad).max())
        np.testing.assert_allclose(grad, want_grad, rtol=1e-9, atol=1e-9 * scale)

        # "xyz" never occurs in training, so position 4 of the probe has
        # no known feature for any delta up to 3
        probe = "xyz" * 3
        assert not any(f in model.feat_index for f in extract_features(probe, 4, delta))
        for word in [e.surface for e in data.entries[-3:]] + [probe]:
            gamma, log_z = marginals(model, word)
            want_gamma, want_log_z = crf_oracle_marginals(model, word)
            assert log_z == pytest.approx(want_log_z, rel=1e-9)
            np.testing.assert_allclose(gamma, want_gamma, rtol=1e-9, atol=1e-9)

    def test_logsumexp_keeps_all_minus_inf_rows_at_minus_inf(self):
        x = np.array([[-np.inf] * 4, [-np.inf, 0.0, -np.inf, 3.0], [700.0, 710.0, -5.0, 0.0]])
        for axis in (0, 1):
            with np.errstate(divide="ignore"):
                want = logsumexp(x, axis=axis)
            np.testing.assert_allclose(_logsumexp(x, axis=axis), want, rtol=1e-15)
        assert _logsumexp(x, axis=1)[0] == -np.inf


class TestTraining:
    def test_single_example_recovery(self):
        data = dataset(("ka", "wi"))
        model = train_crf(data, delta=2, l2=0.0, max_iters=200)
        assert decode(model, "kawi").morphs == ("ka", "wi")

    def test_objective_non_decreasing(self):
        model = train_crf(TOY, delta=2, l2=0.01, max_iters=100)
        hist = model.objective_history
        assert hist, "optimizer recorded no iterations"
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_history_ends_at_returned_weights(self):
        # the optimizer stops on its iteration cap, so the last recorded
        # objective is the one at the weights it returns
        model = train_crf(TOY, delta=2, l2=0.01, max_iters=5)
        assert len(model.objective_history) == 5
        assert model.objective_history[-1] == log_likelihood_and_gradient(model, TOY)[0]

    def test_stop_reason_kept_off_the_model_file(self, tmp_path):
        model = train_crf(TOY, delta=2, l2=0.01, max_iters=5)
        assert model.nit == 5
        assert "ITERATIONS REACHED LIMIT" in model.stop_message
        converged = train_crf(TOY, delta=2, l2=0.01, max_iters=200)
        assert 5 < converged.nit < 200
        assert "CONVERGENCE" in converged.stop_message
        path, again = tmp_path / "m.crf", tmp_path / "again.crf"
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.nit, loaded.stop_message) == (None, None)
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_gradient_test_wins_over_the_cap(self):
        # a cap of exactly the iterations convergence takes: both stopping
        # rules hold on the last iteration, and the gradient test is reported
        converged = train_crf(TOY, delta=2, l2=0.01, max_iters=200)
        at_cap = train_crf(TOY, delta=2, l2=0.01, max_iters=converged.nit)
        assert at_cap.nit == converged.nit
        assert "CONVERGENCE" in at_cap.stop_message
        assert at_cap.packed().tobytes() == converged.packed().tobytes()

    @pytest.mark.parametrize("step_value", [1.0, float("nan")])
    def test_line_search_without_decrease_stops(self, step_value):
        # every trial point is worse than the start (or not a number): the
        # start comes back after _HALVINGS likelihood calls past the first
        calls = []

        def fun(x):
            calls.append(1)
            return (step_value if x.any() else 0.0), np.ones_like(x)

        x, values, message = crf._lbfgs(fun, np.zeros(3), max_iters=5, tol=1e-5)
        assert (x.tolist(), values, message) == ([0.0] * 3, [], crf.NO_DECREASE)
        assert len(calls) == 1 + crf._HALVINGS

    def test_table_built_once_per_fit(self, monkeypatch):
        builds, evaluations = [], []
        real_groups, real_llgrad = crf._length_groups, crf.log_likelihood_and_gradient
        monkeypatch.setattr(crf, "_length_groups",
                            lambda *args: builds.append(1) or real_groups(*args))
        once = train_crf(TOY, delta=2, l2=0.01, max_iters=10)
        assert builds == [1]

        # a fit whose likelihood rebuilds the table on every call ends
        # bit for bit where the fit on the one table does
        def rebuilding(model, data, table=None):
            evaluations.append(1)
            return real_llgrad(model, data)

        monkeypatch.setattr(crf, "log_likelihood_and_gradient", rebuilding)
        del builds[:]
        every = train_crf(TOY, delta=2, l2=0.01, max_iters=10)
        assert len(builds) == 1 + len(evaluations) and len(evaluations) > 10
        assert once.objective_history == every.objective_history
        assert once.packed().tobytes() == every.packed().tobytes()

    def test_window_radius_below_one_rejected(self):
        with pytest.raises(ConfigError):
            train_crf(TOY, delta=0)

    def test_canonical_mode_rejected(self):
        canonical = SegmentationDataset(
            (SegmentedWord("kawi", ("kaw", "i2"), mode=CANONICAL),), mode=CANONICAL
        )
        with pytest.raises(UnsupportedModeError):
            train_crf(canonical)


class TestDecode:
    def test_length_one_is_single(self):
        model = random_crf_model(TOY, delta=2, seed=5)
        seg = decode(model, "k")
        assert seg.morphs == ("k",)

    def test_zero_weights_lexicographic_tie_break(self):
        model = CrfModel.zeros(1, 0.0, {})
        for n in range(1, 7):
            word = "a" * n
            expected = min(valid_bmes_sequences(n))  # B < E < M < S is sorted order
            got = morphs_to_labels(decode(model, word).morphs)
            assert got == expected

    def test_matches_brute_force_argmax(self):
        model = random_crf_model(TOY, delta=2, seed=6)
        rng = random.Random(7)
        for _ in range(60):
            word = "".join(rng.choice("kawisutmp") for _ in range(rng.randint(1, 8)))
            got = decode(model, word)
            assert "".join(got.morphs) == word
            got_score = crf_sequence_score(model, word, morphs_to_labels(got.morphs))
            best = max(
                crf_sequence_score(model, word, seq) for seq in valid_bmes_sequences(len(word))
            )
            assert got_score == pytest.approx(best, abs=1e-9)


    def test_ties_go_to_the_lexicographically_first_best_sequence(self):
        # weights and transitions on a coarse grid make equal scores common
        rng = random.Random(9)
        model = random_crf_model(TOY, delta=2, seed=8)
        model.weights = np.array([[rng.choice((-1.0, 0.0, 1.0)) for _ in LABELS]
                                  for _ in model.feat_index])
        model.trans[np.isfinite(model.trans)] = [rng.choice((0.0, 0.5)) for _ in range(8)]
        words = ["".join(rng.choice("kawisu") for _ in range(rng.randint(1, 7)))
                 for _ in range(60)]
        batch = segment_words(model, words)  # one call, mixed lengths
        for word, got in zip(words, batch):
            scored = [(crf_sequence_score(model, word, seq), seq)
                      for seq in valid_bmes_sequences(len(word))]
            best = max(score for score, _ in scored)
            expected = min(seq for score, seq in scored if score == best)
            assert morphs_to_labels(got) == expected
            assert morphs_to_labels(decode(model, word).morphs) == expected


PROBES = st.lists(st.text(alphabet="abkz", min_size=1, max_size=14), max_size=8)


def _model_knowing(words, delta, keep, seed, grid=False, outside=False):
    """A model that knows a random share ``keep`` of the window features
    of ``words``, with random weights and transitions; on a coarse grid
    when ``grid``, so that equal scores are common.  When ``outside``, it
    also holds ``(o, PAD)`` rows at offsets outside the window."""
    rng = random.Random(seed)
    feats = sorted({f for w in words for i in range(len(w))
                    for f in extract_features(w, i, delta)})
    kept = [f for f in feats if rng.random() < keep]
    if outside:
        kept += [(o, PAD) for o in (-20000, -delta - 1, delta + 1, 3 * delta)]
    model = CrfModel.zeros(delta, 0.0, {f: k for k, f in enumerate(kept)})
    size = model.packed().size
    if grid:
        model.set_packed(np.array([rng.choice((-1.0, 0.0, 0.5, 1.0)) for _ in range(size)]))
    else:
        model.set_packed(np.random.default_rng(seed).uniform(-5.0, 5.0, size))
    return model


class TestFastPathMatchesOracle:
    """The slot table, emission scores, batched Viterbi and training table
    against the per-word oracles."""

    @given(train=st.lists(st.text(alphabet="abk", min_size=1, max_size=14), min_size=1,
                          max_size=6),
           probes=PROBES, delta=st.integers(1, 5), keep=st.sampled_from((1.0, 0.6)),
           outside=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_slots_and_emission_scores(self, train, probes, delta, keep, outside, seed):
        model = _model_knowing(train, delta, keep, seed, outside=outside)
        unknown = len(model.feat_index)
        words = train + probes
        for n in sorted(set(map(len, words))):
            group = [w for w in words if len(w) == n]
            slots = _feature_slots(model, group)
            scores = _emission_sums(_extended(model.weights), slots)
            for k, word in enumerate(group):
                rows = slots[k * n : (k + 1) * n].tolist()
                assert [[i for i in row if i != unknown] for row in rows] == \
                    crf_oracle_feature_ids(model, word)
                # bitwise: the same additions in the same order
                assert scores[k * n : (k + 1) * n].tobytes() == \
                    crf_oracle_scores(model, word).tobytes()

    @given(train=st.lists(st.text(alphabet="abk", min_size=1, max_size=10), min_size=1,
                          max_size=6),
           probes=PROBES, delta=st.integers(1, 5), grid=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_segment_words(self, train, probes, delta, grid, seed):
        model = _model_knowing(train, delta, 0.8, seed, grid=grid)
        rng = random.Random(seed)
        long = "".join(rng.choice("abk") for _ in range(2 * delta + 2 + rng.randint(0, 6)))
        # length-1 words, an unseen character, words longer than the
        # window, and repeats
        words = probes + ["a", "z", long, "zz" + long] + train + probes[:2] + train[:1]
        assert segment_words(model, words) == [crf_oracle_decode(model, w).morphs
                                               for w in words]
        assert segment_words(model, []) == []

    def test_chunks_of_a_length_group(self, monkeypatch):
        # chunks of at most 8 positions: one to eight words each, and a
        # word longer than that alone
        monkeypatch.setattr(chain, "CHUNK_POSITIONS", 8)
        model = random_crf_model(TOY, delta=2, seed=11)
        rng = random.Random(12)
        words = ["".join(rng.choice("kawisu") for _ in range(rng.randint(1, 10)))
                 for _ in range(80)]
        assert segment_words(model, words) == [crf_oracle_decode(model, w).morphs
                                               for w in words]
        data = dataset(*[(w,) for w in words])
        slots, groups, packing = crf._length_groups(model, data)
        want_slots, want_groups, want_packing = crf_oracle_length_groups(model, data)
        unknown = len(model.feat_index)
        assert [[i for i in row if i != unknown] for row in slots.tolist()] == \
            [[i for i in row if i != unknown] for row in want_slots.tolist()]
        assert [(s, g.tolist()) for s, g in groups] == \
            [(s, g.tolist()) for s, g in want_groups]
        assert packing.order.tolist() == want_packing.order.tolist()

    @given(words=st.lists(st.text(alphabet="ab", min_size=1, max_size=6), max_size=30),
           chunk=st.integers(1, 12), empty_at=st.integers(0, 30))
    @settings(max_examples=200, deadline=None)
    def test_batches(self, words, chunk, empty_at):
        with mock.patch.object(chain, "CHUNK_POSITIONS", chunk):
            batches = list(chain.batches(words))
            # an empty word anywhere fails before any chunk is yielded
            with pytest.raises(DataError, match="empty word"):
                next(chain.batches(words[:empty_at] + [""] + words[empty_at:]))
        indices = [k for chunk_indices, _ in batches for k in chunk_indices]
        # each word once; lengths in first-seen order, input order within a length
        lengths = list(dict.fromkeys(map(len, words)))
        assert indices == sorted(range(len(words)), key=lambda k: lengths.index(len(words[k])))
        for chunk_indices, group in batches:
            n = len(group[0])
            assert group == [words[k] for k in chunk_indices]
            assert {len(w) for w in group} == {n}
            assert 1 <= len(group) <= max(1, chunk // n)

    def test_widest_window_decodes_as_the_oracle(self):
        model = random_crf_model(TOY, delta=crf.MAX_DELTA, seed=13)
        rng = random.Random(14)
        # short words, and one whose middle positions have their whole
        # window inside the word
        words = ["".join(rng.choice("kawisu") for _ in range(rng.randint(1, 12)))
                 for _ in range(30)] + ["kawisu" * 25]
        assert segment_words(model, words) == [crf_oracle_decode(model, w).morphs
                                               for w in words]

    def test_empty_word_rejected(self):
        model = random_crf_model(TOY, delta=2, seed=5)
        with pytest.raises(DataError):
            segment_words(model, ["kawi", ""])

    def test_training_matches_the_oracle_table(self, monkeypatch, tmp_path):
        data = dataset(("p",), ("ka", "wi"), ("ka", "su"), ("ta", "ka", "wi"), ("p", "iwe"),
                       ("mi", "su", "ta", "ka", "wi", "su"), ("wi",), ("su", "ta"))
        fast = train_crf(data, delta=3, l2=0.01, max_iters=20)
        save_model(fast, tmp_path / "fast.crf")
        monkeypatch.setattr(crf, "_length_groups", crf_oracle_length_groups)
        slow = train_crf(data, delta=3, l2=0.01, max_iters=20)
        save_model(slow, tmp_path / "slow.crf")
        assert fast.objective_history == slow.objective_history
        assert fast.packed().tobytes() == slow.packed().tobytes()
        assert (tmp_path / "fast.crf").read_bytes() == (tmp_path / "slow.crf").read_bytes()


GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


@pytest.fixture(scope="module")
def bench_gold(tmp_path_factory):
    """The crf-sup benchmark's 150 seed-1001 training words."""
    root = tmp_path_factory.mktemp("crf_sup")
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.gen_crf_sup(str(root), 1001)
    return root / "train.tsv"


def test_one_long_word_among_the_bench_words_trains_in_time(bench_gold, tmp_path):
    # one 5000-character word among the 150 crf-sup words: the chain runs
    # 5000 positions for it alone.  8 iterations took ~2.0 s when each word
    # length ran its own forward-backward and take ~1.3 s in one packed pass
    rng = random.Random(5)
    morphs, size = [], 0
    while size < 5000:
        morphs.append("".join(rng.choice("abcdefgh") for _ in range(min(rng.randint(1, 6),
                                                                        5000 - size))))
        size += len(morphs[-1])
    data = tmp_path / "train.tsv"
    data.write_text(bench_gold.read_text(encoding="utf-8")
                    + "%s\t%s\n" % ("".join(morphs), " ".join(morphs)), encoding="utf-8")
    model = tmp_path / "model.crf"
    began = time.perf_counter()
    assert main(["train", "--method", "crf", "--max-iters", "8", "--input", str(data),
                 "--model", str(model)]) == 0
    assert time.perf_counter() - began < 20.0
    word = "".join(morphs)
    assert "".join(segment_words(load_model(model), [word])[0]) == word


def test_no_words_train_to_zero_features_at_once():
    model = train_crf(SegmentationDataset((), mode=SURFACE), delta=3)
    assert (len(model.feat_index), model.nit, model.stop_message) == (0, 0, crf.CONVERGED)
    assert model.weights.shape == (0, 4)


class TestLbfgsAgainstScipy:
    """``crf._lbfgs`` against scipy's L-BFGS-B on one objective.  The two
    take different line searches and sum in different orders, so they are
    not bitwise equal."""

    @pytest.fixture(params=["toy", "bench"])
    def fit(self, request, bench_gold):
        if request.param == "toy":
            return TOY, 2
        return load_segmentation(str(bench_gold)), 3

    def test_same_likelihood_calls_at_the_cap(self, fit, monkeypatch):
        data, delta = fit
        calls = []
        real = crf.log_likelihood_and_gradient
        monkeypatch.setattr(crf, "log_likelihood_and_gradient",
                            lambda *args: calls.append(1) or real(*args))
        counts = []
        for train in (train_crf, crf_oracle_train_scipy):
            del calls[:]
            model = train(data, delta=delta, l2=0.01, max_iters=8)
            assert model.nit == 8
            counts.append(len(calls))
        assert counts[0] == counts[1] > 8

    def test_same_optimum(self, fit):
        data, delta = fit
        ours = train_crf(data, delta=delta, l2=0.01, max_iters=200)
        theirs = crf_oracle_train_scipy(data, delta=delta, l2=0.01, max_iters=200)
        for model in (ours, theirs):
            assert "CONVERGENCE" in model.stop_message
        assert ours.objective_history[-1] == pytest.approx(theirs.objective_history[-1],
                                                           rel=1e-6)


def test_model_bytes_do_not_depend_on_blas_threads(bench_gold, tmp_path):
    # the thread count reaches BLAS only through the environment of a
    # fresh process
    src = str(Path(crf.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        model = tmp_path / ("threads%s.crf" % threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "polyseg.cli", "train", "--method", "crf",
                        "--max-iters", "8", "--input", str(bench_gold), "--model", str(model)],
                       env=env, check=True, capture_output=True, timeout=120)
        digests.add(hashlib.sha256(model.read_bytes()).hexdigest())
    assert len(digests) == 1


def test_bench_words_segment_like_the_oracle(tmp_path):
    # the crf-sup benchmark's inputs for one seed, trained as the
    # benchmark trains; the CLI output must be the per-word oracle's
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.gen_crf_sup(str(tmp_path), 1001)
    model = str(tmp_path / "model.crf")
    assert main(["train", "--method", "crf", "--max-iters", "8",
                 "--input", str(tmp_path / "train.tsv"), "--model", model]) == 0
    loaded = load_model(model)
    pieces = {}
    for name in ("text.txt", "gold_words.txt"):
        out = tmp_path / (name + ".seg")
        assert main(["segment", "--model", model, "--input", str(tmp_path / name),
                     "--output", str(out)]) == 0
        want = []
        for line in (tmp_path / name).read_text(encoding="utf-8").splitlines():
            for tok in line.split():
                if tok not in pieces:
                    pieces[tok] = list(crf_oracle_decode(loaded, tok).morphs)
            want.append(render_segmented([pieces[tok] for tok in line.split()], "cont"))
        assert out.read_bytes() == "".join(line + "\n" for line in want).encode("utf-8")


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = train_crf(TOY, delta=2, l2=0.01, max_iters=60)
        path = tmp_path / "m.crf"
        save_model(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "crf v1 2 0.01"
        assert "transitions:" in lines
        loaded = load_model(path)
        for word in ("kawi", "takawi", "zzz"):
            assert decode(loaded, word).morphs == decode(model, word).morphs
        again = tmp_path / "again.crf"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_saved_bytes_are_pinned(self, tmp_path):
        # a change that moves this digest changes the models users get and
        # must be declared as such; the last word's first character lies
        # outside the BMP
        data = dataset(("p",), ("ka", "wi"), ("ka", "su"), ("ta", "ka", "wi"), ("p", "iwe"),
                       ("mi", "su", "ta", "ka", "wi", "su"), ("wi",), ("su", "ta"),
                       ("\U0001f600", "ka"))
        path = tmp_path / "m.crf"
        save_model(train_crf(data, delta=3, l2=0.01, max_iters=20), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "8447da7eac4c1fd08fdb07a65b50d75e1f08764bb25d785b2ac81d9bde8e2c00"

    def test_file_cut_before_transitions_rejected(self, tmp_path):
        # a trained file cut at a line boundary inside its feature rows
        path = tmp_path / "m.crf"
        save_model(train_crf(TOY, delta=2, l2=0.01, max_iters=5), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
        with pytest.raises(ParseError, match=r"m\.crf:1: crf model has no transitions: line"):
            load_model(path)

    def test_forbidden_transition_rejected(self, tmp_path):
        path = tmp_path / "m.crf"
        path.write_text("crf v1 2 0.01\n0:k\tB\t0.5\ntransitions:\nB\tS\t0.0\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=r"m\.crf:4: transition B->S"):
            load_model(path)


class TestWindowBound:
    @pytest.mark.parametrize("delta", [0, crf.MAX_DELTA + 1, 10**9])
    def test_a_model_outside_the_bound_is_refused(self, delta, monkeypatch):
        def no_slots(*args):
            raise AssertionError("a slot table was built")

        monkeypatch.setattr(crf, "_window_slots", no_slots)
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="between 1 and %d" % (crf.MAX_DELTA,)):
            CrfModel.zeros(delta, 0.0, {(0, "k"): 0})
        assert time.perf_counter() - start < 1.0


# a delta-3 model with rows no window reads: a (-20000, PAD) row, a
# character four to the right and a substring four to the left
OUT_OF_WINDOW = ("crf v1 3 0.01\n0:k\tB\t0.5\n-20000:%s\tS\t5.0\n"
                 "4:i\tB\t3.0\n-4:ka\tM\t2.0\ntransitions:\n" % PAD)


class TestOutOfWindowRows:
    def test_segment_words_matches_the_oracle(self, tmp_path):
        path = tmp_path / "m.crf"
        path.write_text(OUT_OF_WINDOW, encoding="utf-8")
        model = load_model(path)
        words = ["kawi", "k", "ka"]
        assert segment_words(model, words) == [crf_oracle_decode(model, w).morphs
                                               for w in words]
        assert segment_words(model, ["kawi"]) == [("ka", "wi")]

    def test_segment_prints_the_oracle_pieces(self, tmp_path):
        model = tmp_path / "m.crf"
        model.write_text(OUT_OF_WINDOW, encoding="utf-8")
        text = tmp_path / "kawi.txt"
        text.write_text("kawi\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main(["segment", "--model", str(model), "--input", str(text),
                     "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "ka@@ wi\n"
