"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; the terminal summary
prints one PASS/FAIL line per criterion.  Criterion 11 needs external
surface-segmentation datasets (see its docstring) and is skipped when they
are not available.
"""

import itertools
import math
import os
import random
import time
from pathlib import Path

import pytest

from oracles import (
    bpe_oracle_merges,
    crf_sequence_score,
    emma_oracle_matching,
    morf_best_cost,
    morf_joint_minimum,
    morf_morph_cost,
    random_bpe_corpus,
    random_crf_model,
    random_emma_instance,
    valid_bmes_sequences,
)
from polyseg import bpe, crf, metrics, morf
from polyseg.cli import main
from polyseg.corpus import (
    SURFACE,
    SegmentationDataset,
    SegmentedWord,
    load_segmentation,
    seg_stats,
    seg_stats_table,
)

FOUR_WORDS = {"taka": 5, "tasu": 5, "mika": 5, "misu": 5}


def seg_dataset(pairs, mode=SURFACE):
    return SegmentationDataset(
        tuple(SegmentedWord(s, tuple(m), mode=mode) for s, m in pairs), mode=mode
    )


def test_c01_corpus_statistics(parallel_fixture, tmp_path):
    """stats reports the pinned train/dev values exactly, in under 5 s."""
    out = tmp_path / "stats.tsv"
    start = time.perf_counter()
    code = main([
        "stats",
        "--source", str(parallel_fixture["dev.tar"]),
        "--target", str(parallel_fixture["dev.spa"]),
        "--train-source", str(parallel_fixture["train.tar"]),
        "--train-target", str(parallel_fixture["train.spa"]),
        "--out", str(out),
    ])
    code2 = main([
        "stats",
        "--source", str(parallel_fixture["train.tar"]),
        "--target", str(parallel_fixture["train.spa"]),
        "--out", str(tmp_path / "train.tsv"),
    ])
    elapsed = time.perf_counter() - start
    assert code == 0 and code2 == 0
    train_row = (tmp_path / "train.tsv").read_text().splitlines()[1].split("\t")
    assert train_row[1] == "13102"
    assert train_row[2] == "73022"
    assert train_row[3] == "19044"
    assert train_row[4] == "12894"
    dev_row = out.read_text().splitlines()[1].split("\t")
    assert dev_row[7] == "573"
    assert dev_row[8] == "0.334"
    assert elapsed < 5.0, "stats took %.2fs" % elapsed


def test_c02_segmentation_statistics(segmentation_fixture):
    """shp-like train and tar-like test statistics match exactly."""
    shp = seg_stats(load_segmentation(segmentation_fixture["shp.train"]))
    assert shp.words == 604
    assert shp.morphs == 1215
    row = seg_stats_table(shp).splitlines()[1].split("\t")
    assert row[5] == "2.01"  # morphs per word
    assert row[4] == "0.72"  # segmented-word share
    train = load_segmentation(segmentation_fixture["tar.train"])
    test = load_segmentation(segmentation_fixture["tar.test"])
    assert seg_stats(test, reference_train=train).oov_morphs == 163


def test_c03_bpe_oracle_suite():
    """Merges match the brute-force oracle on 50 corpora; 10,000 fuzzed
    words round-trip; all inside 30 s."""
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(50):
        wc = random_bpe_corpus(rng, max_types=20)
        alphabet = {s for w in wc for s in w[:-1]} | {w[-1] + bpe.DEFAULT_MARKER for w in wc}
        target = len(alphabet) + rng.randint(0, 25)
        model = bpe.train_bpe(wc, target)
        assert model.merges == bpe_oracle_merges(wc, target)

    model = bpe.train_bpe({"taka": 9, "tasu": 5, "mika": 4, "misu": 6}, 24)
    for _ in range(10000):
        n = rng.randint(1, 12)
        word = ""
        while len(word) < n:
            ch = chr(rng.randint(0x21, 0x2FFF))
            if ch.isspace() or "⟨" in ch:
                continue
            word += ch
        if bpe.DEFAULT_MARKER in word:
            continue
        assert bpe.decode(bpe.encode(model, word)) == word
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, "bpe suite took %.2fs" % elapsed


def test_c04_morfessor_oracle():
    """Training reaches the exhaustive joint optimum on the compositional
    corpus (1e-9 nats); epoch costs are monotone; Viterbi matches the
    exhaustive oracle on 1,000 random words; all inside 60 s."""
    start = time.perf_counter()
    expected = morf_joint_minimum({w: 1 for w in FOUR_WORDS})
    model = morf.train_baseline(FOUR_WORDS, seed=1917, restarts=16)
    assert abs(morf.mdl_cost(model).total - expected) < 1e-9

    rng = random.Random(41)
    corpora = [FOUR_WORDS]
    for _ in range(4):
        corpora.append({
            "".join(rng.choice("aeikmstu") for _ in range(rng.randint(2, 7))): rng.randint(1, 9)
            for _ in range(rng.randint(3, 15))
        })
    for wc in corpora:
        trained = morf.train_baseline(wc, seed=3)
        hist = trained.cost_history
        assert all(a >= b - 1e-6 for a, b in zip(hist, hist[1:]))

    chars = sorted(model.alphabet) + ["z"]
    for _ in range(1000):
        word = "".join(rng.choice(chars) for _ in range(rng.randint(1, 10)))
        morphs = morf.viterbi_segment(model, word)
        assert "".join(morphs) == word
        got = sum(morf_morph_cost(model, m) for m in morphs)
        assert abs(got - morf_best_cost(model, word)) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, "morfessor suite took %.2fs" % elapsed


def test_c05_lmvr_lexicon_cap():
    """The effective-lexicon cap holds at every accepted state (asserted
    inline by the trainer) and cap = alphabet size forces characters."""
    alphabet = {ch for w in FOUR_WORDS for ch in w}
    for cap in (len(alphabet), len(alphabet) + 1, len(alphabet) + 3, None):
        for seed in (1, 1917):
            model = morf.train_lmvr(FOUR_WORDS, max_lexicon_size=cap, seed=seed)
            multichar = sum(1 for m in model.lexicon if len(m) > 1)
            if cap is not None:
                assert len(alphabet) + multichar <= cap
    forced = morf.train_lmvr(FOUR_WORDS, max_lexicon_size=len(alphabet), seed=2)
    for w, morphs in forced.analyses.items():
        assert morphs == tuple(w)


def test_c06_flatcat_em():
    """EM log-likelihood is non-decreasing (1e-9 slack) across 20
    iterations on three toy corpora; every probability table sums to 1
    within 1e-9."""
    toys = (
        {"replay": ("re", "play"), "redo": ("re", "do"),
         "player": ("play", "er"), "doer": ("do", "er")},
        {"kawi": ("ka", "wi"), "kasu": ("ka", "su"), "wisu": ("wi", "su")},
        {"ababab": ("ab", "ab", "ab"), "abab": ("ab", "ab")},
    )
    for analyses in toys:
        base = morf.MorfModel.from_segmentations(analyses)
        model = morf.train_flatcat(
            {w: 1 for w in analyses}, base, epsilon=-1.0, max_iters=20
        )
        hist = model.ll_history
        assert len(hist) == 20
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))
        cm = model.categories
        assert abs(sum(math.exp(v) for v in cm.start.values()) - 1) < 1e-9
        for cat in morf.CATEGORIES:
            assert abs(sum(math.exp(v) for v in cm.trans[cat].values()) - 1) < 1e-9
            assert abs(sum(math.exp(v) for v in cm.emit[cat].values()) - 1) < 1e-9


def test_c07_crf_numerics():
    """Gradient matches central finite differences (rel. error < 1e-4) on a
    five-word set; Viterbi equals brute force for fixture words up to 8
    chars; the label distribution sums to 1 within 1e-9 up to length 6;
    one-example training recovers its labels exactly."""
    toy = seg_dataset(
        [("kawi", ("ka", "wi")), ("kasu", ("ka", "su")), ("misu", ("mi", "su")),
         ("takawi", ("ta", "ka", "wi")), ("piwe", ("p", "iwe"))]
    )
    model = random_crf_model(toy, delta=2, l2=0.01, seed=11)
    _, grad = crf.log_likelihood_and_gradient(model, toy)
    vec = model.packed()
    h = 1e-5
    worst = 0.0
    for k in range(vec.size):
        plus, minus = vec.copy(), vec.copy()
        plus[k] += h
        minus[k] -= h
        model.set_packed(plus)
        hi, _ = crf.log_likelihood_and_gradient(model, toy)
        model.set_packed(minus)
        lo, _ = crf.log_likelihood_and_gradient(model, toy)
        numeric = (hi - lo) / (2 * h)
        worst = max(worst, abs(grad[k] - numeric) / max(abs(grad[k]), abs(numeric), 1e-6))
    assert worst < 1e-4
    model.set_packed(vec)

    rng = random.Random(17)
    fixture_words = ["".join(rng.choice("kawisutmp") for _ in range(rng.randint(1, 8)))
                     for _ in range(40)]
    for word in fixture_words:
        got = crf.decode(model, word)
        got_score = crf_sequence_score(model, word, crf.morphs_to_labels(got.morphs))
        best = max(crf_sequence_score(model, word, seq)
                   for seq in valid_bmes_sequences(len(word)))
        assert abs(got_score - best) < 1e-9

    for word in ("ka", "kawi", "takawi"):
        _, log_z = crf.marginals(model, word)
        total = sum(
            math.exp(crf_sequence_score(model, word, seq) - log_z)
            for seq in valid_bmes_sequences(len(word))
        )
        assert abs(total - 1.0) < 1e-9

    single = seg_dataset([("kawi", ("ka", "wi"))])
    trained = crf.train_crf(single, delta=2, l2=0.0, max_iters=200)
    assert crf.decode(trained, "kawi").morphs == ("ka", "wi")


def test_c08_metric_golden_values():
    """Identity corpora score exactly 100; the hand-derived BLEU and chrF
    fixtures match to 4 decimals; 13a output matches pinned goldens."""
    lines = ["ka wi su ta", "the cat sat on the mat"]
    assert metrics.bleu(lines, list(lines)).score == 100.0
    assert metrics.chrf(lines, list(lines)).score == 100.0

    report = metrics.bleu(["a b c d"], ["a b c c"])
    assert round(report.score, 4) == 59.4604
    hand = 100 * math.exp(
        (math.log(3 / 4) + math.log(2 / 3) + math.log(1 / 2) + math.log(1 / 2)) / 4
    )
    assert abs(report.score - hand) < 1e-9

    report = metrics.chrf(["abc"], ["abd"])
    assert round(report.score, 4) == 38.8889
    assert abs(report.score - 100 * 7 / 18) < 1e-9

    goldens = {
        "Hello, world!": "Hello , world !",
        "&quot;Nice&quot; &amp; good.": '" Nice " & good .',
        "2.5 cats, 3,000 dogs 7-9": "2.5 cats , 3,000 dogs 7 - 9",
        "(x) [y] {z} 50% a/b": "( x ) [ y ] { z } 50 % a / b",
        "<skipped> tag here": "tag here",
    }
    for raw, expected in goldens.items():
        assert metrics.tokenize_13a(raw) == expected


def test_c09_significance():
    """Identical systems give p = 1; the two-sentence case equals the
    exhaustive four-pattern enumeration; a fixed seed reproduces p
    bit-identically over 10,000 trials; 1,000 sentences run in under 10 s."""
    refs2 = ["ka wi su ta", "mi su ka wi"]
    assert metrics.paired_randomization_test(refs2, list(refs2), refs2, "chrf") == 1.0

    sys_a = ["ka wi su ta", "mi su ka ka"]
    sys_b = ["ka wi ta ta", "mi su ka wi"]
    p = metrics.paired_randomization_test(sys_a, sys_b, refs2, metric="chrf", trials=10000)
    obs = metrics.chrf(sys_a, refs2).score - metrics.chrf(sys_b, refs2).score
    exceed = 0
    for pattern in itertools.product((False, True), repeat=2):
        a = [y if f else x for x, y, f in zip(sys_a, sys_b, pattern)]
        b = [x if f else y for x, y, f in zip(sys_a, sys_b, pattern)]
        delta = metrics.chrf(a, refs2).score - metrics.chrf(b, refs2).score
        exceed += abs(delta) >= abs(obs)
    assert p == exceed / 4

    rng = random.Random(12)
    vocab = ["ka", "wi", "su", "ta", "mi", "pe"]
    refs = [" ".join(rng.choice(vocab) for _ in range(rng.randint(3, 9))) for _ in range(1000)]
    s_a = [" ".join(rng.choice(vocab) for _ in range(rng.randint(3, 9))) for _ in range(1000)]
    s_b = [" ".join(rng.choice(vocab) for _ in range(rng.randint(3, 9))) for _ in range(1000)]
    start = time.perf_counter()
    p1 = metrics.paired_randomization_test(s_a, s_b, refs, "chrf", trials=10000, seed=5)
    elapsed = time.perf_counter() - start
    p2 = metrics.paired_randomization_test(s_a, s_b, refs, "chrf", trials=10000, seed=5)
    assert p1 == p2
    assert 1 / 10001 <= p1 <= 1.0
    assert elapsed < 10.0, "randomization took %.2fs" % elapsed


def test_c10_emma_matching():
    """Matching equals the permutation brute force on 100 random instances
    with at most 6 types per side; identical datasets score 1."""
    ds = seg_dataset([("kawi", ("ka", "wi")), ("kasu", ("ka", "su"))])
    assert metrics.emma_f1(ds, ds).f1 == 1.0

    rng = random.Random(23)
    for _ in range(100):
        surfaces, preds, golds = random_emma_instance(rng)
        pred = seg_dataset(list(zip(surfaces, preds)))
        gold = seg_dataset(list(zip(surfaces, golds)))
        score = metrics.emma_f1(pred, gold)
        matched = score.precision * sum(len(m) for m in preds)
        assert abs(matched - emma_oracle_matching(preds, golds)) < 1e-9


def test_c11_supervised_over_unsupervised_ordering():
    """Optional: on released hch surface segmentation data, the trained CRF
    outscores every unsupervised segmenter (matching-F1).  Expects
    ``$POLYSEG_DATA_DIR/hch.train.tsv`` and ``hch.test.tsv`` in the TSV
    segmentation format; skipped when absent."""
    data_dir = os.environ.get("POLYSEG_DATA_DIR")
    if not data_dir:
        pytest.skip("released segmentation datasets unavailable (set POLYSEG_DATA_DIR)")
    train_path = Path(data_dir) / "hch.train.tsv"
    test_path = Path(data_dir) / "hch.test.tsv"
    if not train_path.exists() or not test_path.exists():
        pytest.skip("hch.train.tsv / hch.test.tsv not found under POLYSEG_DATA_DIR")

    train = load_segmentation(train_path)
    gold = load_segmentation(test_path)
    word_counts = {}
    for e in train.entries:
        word_counts[e.surface] = word_counts.get(e.surface, 0) + 1

    crf_model = crf.train_crf(train, delta=3, l2=0.01, max_iters=150)
    crf_pred = seg_dataset([(e.surface, crf.decode(crf_model, e.surface).morphs)
                            for e in gold.entries])
    crf_f1 = metrics.emma_f1(crf_pred, gold).f1

    base = morf.train_baseline(word_counts, seed=1917, restarts=4)
    unsup_models = {
        "morfessor": base,
        "lmvr": morf.train_lmvr(word_counts, seed=1917, restarts=4),
        "flatcat": morf.train_flatcat(word_counts, base, seed=1917),
    }
    for name, model in unsup_models.items():
        pred = seg_dataset([(e.surface, tuple(morf.viterbi_segment(model, e.surface)))
                            for e in gold.entries])
        f1 = metrics.emma_f1(pred, gold).f1
        assert crf_f1 > f1, "%s F1 %.4f not below CRF %.4f" % (name, f1, crf_f1)
