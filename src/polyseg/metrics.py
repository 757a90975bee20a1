"""Segmentation metrics, MT metrics, and paired randomization significance.

The MT metrics replicate the standard reference implementations exactly:
corpus BLEU with mteval-13a tokenization, case preserved, a single
reference and exponential smoothing of zero n-gram precisions; chrF with
character n-grams of order 1..6, whitespace removed and recall weight
beta=2.  Both report their configuration as a fixed signature string and
score on a 0-100 scale.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .corpus import SURFACE, SegmentationDataset
from .errors import AlignmentError, ConfigError, UnsupportedModeError

BLEU_ORDER = 4
CHRF_ORDER = 6
CHRF_BETA = 2.0

BLEU_SIGNATURE = "BLEU+case.mixed+numrefs.1+smooth.exp+tok.13a"
CHRF_SIGNATURE = "chrF2+numchars.6+space.false"

_MY_LOG_ZERO = -9999999999.0


@dataclass(frozen=True)
class SegScore:
    precision: float
    recall: float
    f1: float
    accuracy: float


@dataclass(frozen=True)
class ScoreReport:
    metric: str
    score: float
    sentence_scores: tuple[float, ...]
    signature: str


# -- segmentation metrics ------------------------------------------------------


def _check_aligned(pred: SegmentationDataset, gold: SegmentationDataset) -> None:
    if len(pred.entries) != len(gold.entries):
        raise AlignmentError(
            "datasets differ in length: %d vs %d" % (len(pred.entries), len(gold.entries))
        )
    for i, (p, g) in enumerate(zip(pred.entries, gold.entries)):
        if p.surface != g.surface:
            raise AlignmentError(
                "surface mismatch at index %d: %r vs %r" % (i, p.surface, g.surface)
            )


def _boundaries(morphs) -> set[int]:
    pos = 0
    cuts = set()
    for m in morphs[:-1]:
        pos += len(m)
        cuts.add(pos)
    return cuts


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def boundary_f1(pred: SegmentationDataset, gold: SegmentationDataset) -> SegScore:
    """Precision/recall/F1 over internal boundary positions, micro-averaged,
    plus exact-match word accuracy."""
    if pred.mode != SURFACE or gold.mode != SURFACE:
        raise UnsupportedModeError("boundary F1 requires surface-mode data")
    _check_aligned(pred, gold)
    match = n_pred = n_gold = exact = 0
    for p, g in zip(pred.entries, gold.entries):
        pb, gb = _boundaries(p.morphs), _boundaries(g.morphs)
        match += len(pb & gb)
        n_pred += len(pb)
        n_gold += len(gb)
        exact += p.morphs == g.morphs
    precision = match / n_pred if n_pred else (1.0 if n_gold == 0 else 0.0)
    recall = match / n_gold if n_gold else (1.0 if n_pred == 0 else 0.0)
    return SegScore(
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        accuracy=exact / len(pred.entries),
    )


def emma_f1(pred: SegmentationDataset, gold: SegmentationDataset) -> SegScore:
    """Morph-matching F1: predicted and gold morph types are put in an
    optimal one-to-one correspondence (maximum-weight bipartite matching on
    per-word co-occurrence counts) before computing precision and recall
    over morph tokens.  Works for surface and canonical data."""
    _check_aligned(pred, gold)
    co = Counter()
    n_pred = n_gold = exact = 0
    for p, g in zip(pred.entries, gold.entries):
        pc, gc = Counter(p.morphs), Counter(g.morphs)
        n_pred += len(p.morphs)
        n_gold += len(g.morphs)
        exact += p.morphs == g.morphs
        for pm, pn in pc.items():
            for gm, gn in gc.items():
                co[(pm, gm)] += min(pn, gn)
    pred_types = {t: i for i, t in enumerate(sorted({pm for pm, _ in co}))}
    gold_types = {t: i for i, t in enumerate(sorted({gm for _, gm in co}))}
    weight = np.zeros((len(pred_types), len(gold_types)))
    for (pm, gm), w in co.items():
        weight[pred_types[pm], gold_types[gm]] = w
    rows, cols = linear_sum_assignment(-weight)
    matched = float(weight[rows, cols].sum())
    precision = matched / n_pred if n_pred else 0.0
    recall = matched / n_gold if n_gold else 0.0
    return SegScore(
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        accuracy=exact / len(pred.entries),
    )


# -- 13a tokenization ----------------------------------------------------------


def tokenize_13a(line: str) -> str:
    """Minimal tokenization equivalent to the WMT mteval-v13a rule set."""
    norm = line
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")

    norm = " {} ".format(norm)
    norm = re.sub(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])", " \\1 ", norm)
    norm = re.sub(r"([^0-9])([\.,])", "\\1 \\2 ", norm)
    norm = re.sub(r"([\.,])([^0-9])", " \\1 \\2", norm)
    norm = re.sub(r"([0-9])(-)", "\\1 \\2 ", norm)
    norm = re.sub(r"\s+", " ", norm)
    norm = re.sub(r"^\s+", "", norm)
    norm = re.sub(r"\s+$", "", norm)
    return norm


# -- BLEU ----------------------------------------------------------------------


def _ngram_counts(tokens: list[str], max_order: int) -> Counter:
    counts = Counter()
    for n in range(1, max_order + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


def bleu_sentence_stats(hyp: str, ref: str) -> np.ndarray:
    """Sufficient statistics of one sentence pair:
    [correct_1..4, total_1..4, hyp_len, ref_len] after 13a tokenization."""
    hyp_toks = tokenize_13a(hyp.rstrip()).split()
    ref_toks = tokenize_13a(ref.rstrip()).split()
    stats = np.zeros(2 * BLEU_ORDER + 2)
    hyp_ngrams = _ngram_counts(hyp_toks, BLEU_ORDER)
    ref_ngrams = _ngram_counts(ref_toks, BLEU_ORDER)
    for ngram, cnt in hyp_ngrams.items():
        n = len(ngram)
        stats[n - 1] += min(cnt, ref_ngrams.get(ngram, 0))
        stats[BLEU_ORDER + n - 1] += cnt
    stats[-2] = len(hyp_toks)
    stats[-1] = len(ref_toks)
    return stats


def bleu_score_from_stats(stats: np.ndarray) -> np.ndarray:
    """Corpus BLEU from (possibly batched) summed sufficient statistics.

    Zero precisions are exponentially smoothed: the k-th zero at order n
    scores 1/(2^k * total_n); orders with no hypothesis n-grams at all
    score zero outright, driving the geometric mean to zero.
    """
    stats = np.atleast_2d(np.asarray(stats, dtype=float))
    correct = stats[:, :BLEU_ORDER]
    total = stats[:, BLEU_ORDER : 2 * BLEU_ORDER]
    hyp_len = stats[:, -2]
    ref_len = stats[:, -1]

    # precisions as fractions so an all-ones row exponentiates to exactly 1
    precisions = np.zeros_like(correct)
    smooth = np.ones(stats.shape[0])
    for n in range(BLEU_ORDER):
        has_total = total[:, n] > 0
        zero_correct = has_total & (correct[:, n] == 0)
        smooth = np.where(zero_correct, smooth * 2, smooth)
        with np.errstate(divide="ignore", invalid="ignore"):
            plain = correct[:, n] / total[:, n]
            padded = 1.0 / (smooth * total[:, n])
        precisions[:, n] = np.where(
            has_total, np.where(zero_correct, padded, plain), 0.0
        )

    logs = np.where(precisions > 0, np.log(np.maximum(precisions, 1e-300)), _MY_LOG_ZERO)
    with np.errstate(over="ignore", under="ignore"):
        geo = 100.0 * np.exp(logs.mean(axis=1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        bp = np.where(
            hyp_len < ref_len,
            np.where(hyp_len > 0, np.exp(1 - ref_len / np.maximum(hyp_len, 1e-300)), 0.0),
            1.0,
        )
    return bp * geo


def bleu(hyps: list[str], refs: list[str]) -> ScoreReport:
    """Corpus BLEU (0-100) with per-sentence scores from the same formula."""
    return metric_report("bleu", hyps, refs)


# -- chrF ----------------------------------------------------------------------


def _char_ngrams(s: str, n: int) -> Counter:
    return Counter(s[i : i + n] for i in range(len(s) - n + 1))


def chrf_sentence_stats(hyp: str, ref: str) -> np.ndarray:
    """[hyp_ngrams, ref_ngrams, matched] for each order 1..6, whitespace
    removed from both sides first."""
    hyp = re.sub(r"\s+", "", hyp)
    ref = re.sub(r"\s+", "", ref)
    stats = np.zeros(3 * CHRF_ORDER)
    for i in range(CHRF_ORDER):
        hc = _char_ngrams(hyp, i + 1)
        rc = _char_ngrams(ref, i + 1)
        stats[3 * i] = sum(hc.values())
        stats[3 * i + 1] = sum(rc.values())
        stats[3 * i + 2] = sum((hc & rc).values())
    return stats


def chrf_score_from_stats(stats: np.ndarray) -> np.ndarray:
    """chrF (0-100) from (possibly batched) summed statistics; precision and
    recall average over orders present on both sides, F weighs recall by
    beta=2."""
    stats = np.atleast_2d(np.asarray(stats, dtype=float))
    hyp_n = stats[:, 0::3]
    ref_n = stats[:, 1::3]
    match = stats[:, 2::3]
    present = (hyp_n > 0) & (ref_n > 0)
    eff = present.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = np.where(present, match / np.maximum(hyp_n, 1e-300), 0.0).sum(axis=1)
        rec = np.where(present, match / np.maximum(ref_n, 1e-300), 0.0).sum(axis=1)
    safe_eff = np.maximum(eff, 1)
    prec = prec / safe_eff
    rec = rec / safe_eff
    beta_sq = CHRF_BETA**2
    denom = beta_sq * prec + rec
    score = np.where(denom > 0, (1 + beta_sq) * prec * rec / np.maximum(denom, 1e-300), 0.0)
    return np.where(eff > 0, 100.0 * score, 0.0)


def chrf(hyps: list[str], refs: list[str]) -> ScoreReport:
    return metric_report("chrf", hyps, refs)


_METRICS = {
    "bleu": (bleu_sentence_stats, bleu_score_from_stats, BLEU_SIGNATURE),
    "chrf": (chrf_sentence_stats, chrf_score_from_stats, CHRF_SIGNATURE),
}


def _sentence_stats(metric: str, hyps: list[str], refs: list[str]) -> np.ndarray:
    """``metric``'s sufficient statistics of each sentence pair, as a
    (sentences, width) array; no sentences give zero rows of that width."""
    if metric not in _METRICS:
        raise ConfigError("unknown MT metric %r" % (metric,))
    if len(hyps) != len(refs):
        raise AlignmentError(
            "hypothesis/reference length mismatch: %d vs %d" % (len(hyps), len(refs))
        )
    sentence_stats = _METRICS[metric][0]
    width = len(sentence_stats("", ""))
    return np.array([sentence_stats(h, r) for h, r in zip(hyps, refs)]).reshape(-1, width)


def metric_report(metric: str, hyps: list[str], refs: list[str]) -> ScoreReport:
    """Corpus score of ``metric`` with per-sentence scores from the same
    formula; the corpus score sums the sentences' sufficient statistics."""
    stats = _sentence_stats(metric, hyps, refs)
    _, score_fn, signature = _METRICS[metric]
    return ScoreReport(
        metric=metric,
        score=float(score_fn(stats.sum(axis=0))[0]),
        sentence_scores=tuple(float(x) for x in score_fn(stats)),
        signature=signature,
    )


# -- paired approximate randomization ------------------------------------------


def paired_randomization_test(
    sys_a: list[str],
    sys_b: list[str],
    refs: list[str],
    metric: str = "chrf",
    trials: int = 10000,
    seed: int = 1917,
) -> float:
    """Two-sided sign-flip randomization p-value for a corpus-level metric
    difference.

    Each trial swaps both systems' outputs on a random subset of sentences
    and recomputes both corpus scores from per-sentence sufficient
    statistics (not from averaged sentence scores); the p-value is
    ``(1 + #{|delta_trial| >= |delta_observed|}) / (1 + trials)`` and is
    deterministic for a fixed seed.  When every flip pattern fits within
    the trial budget (2^sentences <= trials) the null distribution is
    enumerated exactly instead of sampled; the observed arrangement then
    plays the role of the +1 term.
    """
    if trials < 1:
        raise ConfigError("trials must be positive")
    stats_a = _sentence_stats(metric, sys_a, refs)
    stats_b = _sentence_stats(metric, sys_b, refs)
    score_fn = _METRICS[metric][1]

    sum_a = stats_a.sum(axis=0)
    sum_b = stats_b.sum(axis=0)
    delta_obs = float(score_fn(sum_a)[0] - score_fn(sum_b)[0])

    n = len(refs)
    if n <= 20 and 2**n <= trials:
        patterns = np.arange(2**n)
        flips = (patterns[:, None] >> np.arange(n)[None, :]) & 1 == 1
        denominator = 2**n
        numerator_base = 0  # the identity pattern is part of the enumeration
    else:
        rng = np.random.default_rng(seed)
        flips = rng.random((trials, n)) < 0.5
        denominator = 1 + trials
        numerator_base = 1
    diff = stats_b - stats_a  # adding this to A's stats swaps a sentence
    trial_a = sum_a[None, :] + flips @ diff
    trial_b = sum_b[None, :] - flips @ diff
    deltas = score_fn(trial_a) - score_fn(trial_b)
    exceed = int(np.sum(np.abs(deltas) >= abs(delta_obs)))
    return (numerator_base + exceed) / denominator


def significance_mark(p_value: float, threshold: float = 0.05) -> str:
    """Two-way marking: at or below the threshold counts as significant."""
    return "significant" if p_value <= threshold else "not-significant"
