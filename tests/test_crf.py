import hashlib
import importlib.util
import math
import random
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from polyseg import crf
from polyseg.cli import main, render_segmented
from polyseg.corpus import CANONICAL, SURFACE, SegmentationDataset, SegmentedWord
from polyseg.crf import (
    LABELS,
    PAD,
    CrfModel,
    _emission_sums,
    _extended,
    _feature_slots,
    _logsumexp,
    _pad_offsets,
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


def _model_knowing(words, delta, keep, seed, grid=False):
    """A model that knows a random share ``keep`` of the window features
    of ``words``, with random weights and transitions; on a coarse grid
    when ``grid``, so that equal scores are common."""
    rng = random.Random(seed)
    feats = sorted({f for w in words for i in range(len(w))
                    for f in extract_features(w, i, delta)})
    kept = [f for f in feats if rng.random() < keep]
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
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_slots_and_emission_scores(self, train, probes, delta, keep, seed):
        model = _model_knowing(train, delta, keep, seed)
        unknown = len(model.feat_index)
        pads = _pad_offsets(model)
        words = train + probes
        for n in sorted(set(map(len, words))):
            group = [w for w in words if len(w) == n]
            slots = _feature_slots(model, group, pads)
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
        monkeypatch.setattr(crf, "_CHUNK_POSITIONS", 8)
        model = random_crf_model(TOY, delta=2, seed=11)
        rng = random.Random(12)
        words = ["".join(rng.choice("kawisu") for _ in range(rng.randint(1, 10)))
                 for _ in range(80)]
        assert segment_words(model, words) == [crf_oracle_decode(model, w).morphs
                                               for w in words]
        data = dataset(*[(w,) for w in words])
        slots, groups = crf._length_groups(model, data)
        want_slots, want_groups = crf_oracle_length_groups(model, data)
        unknown = len(model.feat_index)
        assert [[i for i in row if i != unknown] for row in slots.tolist()] == \
            [[i for i in row if i != unknown] for row in want_slots.tolist()]
        assert [(s, g.tolist()) for s, g in groups] == \
            [(s, g.tolist()) for s, g in want_groups]

    @given(words=st.lists(st.text(alphabet="ab", min_size=1, max_size=6), max_size=30),
           chunk=st.integers(1, 12), empty_at=st.integers(0, 30))
    @settings(max_examples=200, deadline=None)
    def test_batches(self, words, chunk, empty_at):
        with mock.patch.object(crf, "_CHUNK_POSITIONS", chunk):
            batches = list(crf._batches(words))
            # an empty word anywhere fails before any chunk is yielded
            with pytest.raises(DataError, match="empty word"):
                next(crf._batches(words[:empty_at] + [""] + words[empty_at:]))
        indices = [k for chunk_indices, _ in batches for k in chunk_indices]
        # each word once; lengths in first-seen order, input order within a length
        lengths = list(dict.fromkeys(map(len, words)))
        assert indices == sorted(range(len(words)), key=lambda k: lengths.index(len(words[k])))
        for chunk_indices, group in batches:
            n = len(group[0])
            assert group == [words[k] for k in chunk_indices]
            assert {len(w) for w in group} == {n}
            assert 1 <= len(group) <= max(1, chunk // n)

    def test_huge_window_radius(self):
        # words no longer than 12 characters see the same known features at
        # radius 12 and at radius 10**9, whose window the oracle could not walk
        small = random_crf_model(TOY, delta=12, seed=13)
        huge = CrfModel.zeros(10**9, 0.0, small.feat_index)
        huge.set_packed(small.packed())
        rng = random.Random(14)
        words = ["".join(rng.choice("kawisu") for _ in range(rng.randint(1, 12)))
                 for _ in range(40)]
        start = time.perf_counter()
        got = segment_words(huge, words)
        assert time.perf_counter() - start < 1.0
        assert got == [crf_oracle_decode(small, w).morphs for w in words]

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
            want.append(render_segmented([pieces[tok] for tok in line.split()], "cont", "@@"))
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
            "20fd2c144bb0992f73535d68dc8dc27e34dfddcc1b9ce940be45ed192392e0d6"

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
