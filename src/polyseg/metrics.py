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
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .corpus import SURFACE, SegmentationDataset
from .errors import AlignmentError, ConfigError, DataError, UnsupportedModeError

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
    # per-sentence sufficient statistics, (sentences, width): what the
    # corpus score sums and what randomization_p resamples
    stats: np.ndarray | None = field(default=None, compare=False, repr=False)


# -- segmentation metrics ------------------------------------------------------


def _check_aligned(pred: SegmentationDataset, gold: SegmentationDataset) -> None:
    if not pred.entries and not gold.entries:
        raise DataError("empty dataset")
    if len(pred.entries) != len(gold.entries):
        raise AlignmentError(
            "datasets differ in length: %d vs %d" % (len(pred.entries), len(gold.entries))
        )
    for i, (p, g) in enumerate(zip(pred.entries, gold.entries)):
        if p.surface != g.surface:
            raise AlignmentError(
                "surface mismatch at index %d: %r vs %r" % (i, p.surface, g.surface), index=i
            )


def _boundaries(morphs) -> set[int]:
    pos = 0
    cuts = set()
    for m in morphs[:-1]:
        pos += len(m)
        cuts.add(pos)
    return cuts


def _seg_score(matched: float, n_pred: int, n_gold: int, pred: SegmentationDataset,
               gold: SegmentationDataset) -> SegScore:
    """Micro precision and recall of ``matched`` units out of ``n_pred``
    predicted and ``n_gold`` gold ones, their F1, and the share of words
    ``pred`` segments exactly as ``gold``.  A side with no units scores 1
    when the other has none either, else 0."""
    precision = matched / n_pred if n_pred else (1.0 if n_gold == 0 else 0.0)
    recall = matched / n_gold if n_gold else (1.0 if n_pred == 0 else 0.0)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    exact = sum(p.morphs == g.morphs for p, g in zip(pred.entries, gold.entries))
    return SegScore(precision, recall, f1, exact / len(pred.entries))


def boundary_f1(pred: SegmentationDataset, gold: SegmentationDataset) -> SegScore:
    """Precision/recall/F1 over internal boundary positions, micro-averaged,
    plus exact-match word accuracy."""
    _check_aligned(pred, gold)
    if pred.mode != SURFACE or gold.mode != SURFACE:
        raise UnsupportedModeError("boundary F1 requires surface-mode data")
    match = n_pred = n_gold = 0
    for p, g in zip(pred.entries, gold.entries):
        pb, gb = _boundaries(p.morphs), _boundaries(g.morphs)
        match += len(pb & gb)
        n_pred += len(pb)
        n_gold += len(gb)
    return _seg_score(match, n_pred, n_gold, pred, gold)


def _type_counts(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The word and type of every (word, morph type) that occurs in
    ``entries``, sorted by word then type, with its count in the word, and
    the number of types."""
    types: dict = {}
    codes = np.array([types.setdefault(m, len(types)) for e in entries for m in e.morphs],
                     dtype=np.int64)
    lengths = np.array([len(e.morphs) for e in entries], dtype=np.int64)
    words = np.repeat(np.arange(len(entries)), lengths)
    keys, counts = np.unique(words * len(types) + codes, return_counts=True)
    return keys // len(types), keys % len(types), counts, len(types)


def _matched_tokens(pred_entries, gold_entries) -> float:
    """The largest total co-occurrence weight of a one-to-one matching of
    predicted to gold morph types, where a pair's weight sums over words the
    smaller of its two counts in the word.

    The matching is a minimum-cost full matching of the predicted types on
    the sparse graph of co-occurring pairs: a pair of weight ``w`` costs
    ``W + 1 - w`` (``W`` the largest weight), and each predicted type has a
    private dummy column of cost ``W + 1``, its way of staying unmatched."""
    p_word, p_type, p_count, n_p = _type_counts(pred_entries)
    g_word, g_type, g_count, n_g = _type_counts(gold_entries)
    # word i's gold types are rows g_start[i]:g_start[i + 1] of the g_ arrays
    g_start = np.searchsorted(g_word, np.arange(len(gold_entries) + 1))
    # pair each predicted row with every gold row of its word; the pair
    # arrays are the largest here, so they are built in place and g_row is
    # freed before the sort
    reps = np.diff(g_start)[p_word]
    g_row = np.repeat(g_start[p_word] - np.cumsum(reps) + reps, reps)
    g_row += np.arange(len(g_row))
    keys = np.repeat(p_type * n_g, reps)
    keys += g_type[g_row]
    counts = np.repeat(p_count, reps)
    np.minimum(counts, g_count[g_row], out=counts)
    del g_row
    pairs = np.unique(keys)
    weight = np.bincount(np.searchsorted(pairs, keys), weights=counts)
    top = weight.max()
    rows = np.concatenate([pairs // n_g, np.arange(n_p)])
    cols = np.concatenate([pairs % n_g, n_g + np.arange(n_p)])
    cost = np.concatenate([top + 1 - weight, np.full(n_p, top + 1)])
    graph = csr_matrix((cost, (rows, cols)), shape=(n_p, n_g + n_p))
    match = min_weight_full_bipartite_matching(graph)[1]
    real = match < n_g
    at = np.searchsorted(pairs, np.flatnonzero(real) * n_g + match[real])
    return float(weight[at].sum())


def emma_f1(pred: SegmentationDataset, gold: SegmentationDataset) -> SegScore:
    """Morph-matching F1 (EMMA, Spiegler & Monson, 2010): predicted and gold
    morph types are put in an optimal one-to-one correspondence
    (maximum-weight bipartite matching on per-word co-occurrence counts)
    before computing precision and recall over morph tokens.  Works for
    surface and canonical data."""
    _check_aligned(pred, gold)
    n_pred = sum(len(p.morphs) for p in pred.entries)
    n_gold = sum(len(g.morphs) for g in gold.entries)
    return _seg_score(_matched_tokens(pred.entries, gold.entries), n_pred, n_gold, pred, gold)


# -- 13a tokenization ----------------------------------------------------------

_13A_REPLACEMENTS = (
    ("<skipped>", ""),
    ("-\n", ""),
    ("\n", " "),
    ("&quot;", '"'),
    ("&amp;", "&"),
    ("&lt;", "<"),
    ("&gt;", ">"),
)
# Rule 1 pads each character of the class [\{-\~\[-\` -\&\(-\+\:-\@\/]
# with a space on either side; the table spells out the class's ranges.
# It leaves out the space itself: padding a space only lengthens a
# whitespace run, which rules 2-4 treat the same at any length and rule 5
# collapses to one space, and without it a line of plain words takes
# str.translate's fast ASCII path.
_13A_SPACED = str.maketrans({
    chr(c): " %c " % c
    for lo, hi in ("{~", "[`", "!&", "(+", ":@", "//")
    for c in range(ord(lo), ord(hi) + 1)
})
_13A_PERIOD_COMMA = (  # rules 2 and 3
    (re.compile(r"([^0-9])([\.,])"), "\\1 \\2 "),
    (re.compile(r"([\.,])([^0-9])"), " \\1 \\2"),
)
_13A_DASH = re.compile(r"([0-9])(-)")  # rule 4
_WHITESPACE = re.compile(r"\s+")


def tokenize_13a(line: str) -> str:
    """Minimal tokenization equivalent to the WMT mteval-v13a rule set."""
    norm = line
    for old, new in _13A_REPLACEMENTS:
        norm = norm.replace(old, new)
    norm = " {} ".format(norm).translate(_13A_SPACED)
    # rule 1 only adds spaces, so rules 2-4 can match only where the line
    # already holds the '.', ',' or '-' they need
    if "." in norm or "," in norm:
        for pattern, replacement in _13A_PERIOD_COMMA:
            norm = pattern.sub(replacement, norm)
    if "-" in norm:
        norm = _13A_DASH.sub("\\1 \\2 ", norm)
    # rules 5-7 squeeze each run of \s into one space and strip the ends;
    # str.split's whitespace is exactly re's \s
    return " ".join(norm.split())


# -- per-sentence sufficient statistics ---------------------------------------
#
# Each line is read once into its symbols: its 13a tokens for BLEU, its
# characters without whitespace for chrF.  The n-grams of every line of every
# input are then counted and matched at once, on integer arrays, so a
# reference shared by several systems is tokenized and counted once.


def _codes(seqs: list) -> tuple[np.ndarray, int]:
    """The symbols of ``seqs``, one after another, as dense integer codes,
    and the number of codes.  Strings are coded by their code points (lone
    surrogates included), token lists token by token."""
    if all(isinstance(seq, str) for seq in seqs):
        points = np.frombuffer("".join(seqs).encode("utf-32-le", "surrogatepass"),
                               dtype=np.uint32)
        alphabet = np.unique(points)
        return np.searchsorted(alphabet, points), len(alphabet)
    vocab: dict = {}
    codes = np.array([vocab.setdefault(sym, len(vocab)) for seq in seqs for sym in seq],
                     dtype=np.int64)
    return codes, len(vocab)


def _clipped_matches(refs: list, systems: list[list], max_order: int) -> list[np.ndarray]:
    """For each system, a (sentences, max_order) array whose entry (i, n-1)
    counts the system's n-grams in sentence i that reference i also has,
    each at most as often as the reference has it.  ``refs`` and every
    system are lists of symbol sequences, one per sentence.

    Every order takes one sort, which numbers the (sentence, n-gram)
    pairs of all inputs: a 1-gram's key is its sentence followed by its
    symbol's code, an (n+1)-gram's key its n-gram's number followed by
    the next symbol's code.  One bincount counts each number on each
    input; the smaller of the reference's and a system's count, summed
    per sentence, is the system's clipped count."""
    n_sent, n_inputs = len(refs), 1 + len(systems)
    seqs = refs + [seq for hyps in systems for seq in hyps]
    codes, n_codes = _codes(seqs)
    bits = max(n_codes - 1, 0).bit_length()  # a key is (number << bits) | code
    dtype = np.int32 if max(len(codes), n_sent) << bits < 2**31 else np.int64
    codes = codes.astype(dtype, copy=False)
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    # input k's sentence i is line k * n_sent + i (the references are input 0)
    source, sent = np.divmod(np.repeat(np.arange(len(seqs)), lengths), max(n_sent, 1))
    key = (sent << bits).astype(dtype) | codes
    del sent
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(codes))  # symbols to line end
    at = np.arange(len(codes))  # where each n-gram starts
    sentence = None  # the sentence of each n-gram number
    matches = [np.zeros((n_sent, max_order)) for _ in systems]
    for n in range(max_order):
        if n:
            keep = room[at] > n
            at = at[keep]
            key = gram[keep] << bits | codes[at + n]
        keys, gram = np.unique(key, return_inverse=True)
        gram = gram.astype(dtype, copy=False)
        sentence = keys >> bits if sentence is None else sentence[keys >> bits]
        counts = np.bincount(source[at] * len(keys) + gram,
                             minlength=n_inputs * len(keys)).reshape(n_inputs, len(keys))
        for k, out in enumerate(matches, 1):
            out[:, n] = np.bincount(sentence, weights=np.minimum(counts[0], counts[k]),
                                    minlength=n_sent)
        del counts  # freed before the next order's sort
    return matches


def _bleu_symbols(line: str) -> list[str]:
    return tokenize_13a(line.rstrip()).split()


def _bleu_rows(matches: np.ndarray, hyp_len: np.ndarray, ref_len: np.ndarray) -> np.ndarray:
    """[correct_1..4, total_1..4, hyp_len, ref_len] per sentence pair."""
    totals = np.maximum(hyp_len[:, None] - np.arange(BLEU_ORDER), 0)
    return np.column_stack([matches, totals, hyp_len, ref_len])


def _chrf_symbols(line: str) -> str:
    return _WHITESPACE.sub("", line)


def _chrf_rows(matches: np.ndarray, hyp_len: np.ndarray, ref_len: np.ndarray) -> np.ndarray:
    """[hyp_ngrams, ref_ngrams, matched] for each order 1..6 per sentence
    pair, whitespace removed from both sides."""
    orders = np.arange(CHRF_ORDER)
    hyp_n = np.maximum(hyp_len[:, None] - orders, 0)
    ref_n = np.maximum(ref_len[:, None] - orders, 0)
    return np.stack([hyp_n, ref_n, matches], axis=2).reshape(len(matches), 3 * CHRF_ORDER)


# -- BLEU ----------------------------------------------------------------------


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


class _Metric(NamedTuple):
    symbols: Callable  # line -> the sequence its n-grams are taken from
    rows: Callable  # (clipped matches, hyp lengths, ref lengths) -> statistics
    score: Callable  # summed statistics, batched -> scores
    signature: str
    order: int  # longest n-gram


_METRICS = {
    "bleu": _Metric(_bleu_symbols, _bleu_rows, bleu_score_from_stats, BLEU_SIGNATURE,
                    BLEU_ORDER),
    "chrf": _Metric(_chrf_symbols, _chrf_rows, chrf_score_from_stats, CHRF_SIGNATURE,
                    CHRF_ORDER),
}


def _sentence_stats(metric: str, systems: list[list[str]], refs: list[str]) -> list[np.ndarray]:
    """``metric``'s sufficient statistics of each system's sentence pairs,
    one (sentences, width) float array per system; no sentences give zero
    rows.  Each reference line is tokenized and counted once for all
    systems."""
    if metric not in _METRICS:
        raise ConfigError("unknown MT metric %r" % (metric,))
    for hyps in systems:
        if len(hyps) != len(refs):
            raise AlignmentError(
                "hypothesis/reference length mismatch: %d vs %d" % (len(hyps), len(refs))
            )
    m = _METRICS[metric]
    ref_symbols = [m.symbols(ref) for ref in refs]
    hyp_symbols = [[m.symbols(hyp) for hyp in hyps] for hyps in systems]
    ref_len = np.array([len(seq) for seq in ref_symbols], dtype=float)
    return [
        m.rows(matches, np.array([len(seq) for seq in seqs], dtype=float), ref_len)
        for matches, seqs in zip(_clipped_matches(ref_symbols, hyp_symbols, m.order), hyp_symbols)
    ]


def metric_reports(metric: str, systems: list[list[str]], refs: list[str]) -> list[ScoreReport]:
    """One :func:`metric_report` per system against the same references,
    which are read once for all of them."""
    all_stats = _sentence_stats(metric, systems, refs)
    m = _METRICS[metric]
    return [
        ScoreReport(
            metric=metric,
            score=float(m.score(stats.sum(axis=0))[0]),
            sentence_scores=tuple(float(x) for x in m.score(stats)),
            signature=m.signature,
            stats=stats,
        )
        for stats in all_stats
    ]


def metric_report(metric: str, hyps: list[str], refs: list[str]) -> ScoreReport:
    """Corpus score of ``metric`` with per-sentence scores from the same
    formula; the corpus score sums the sentences' sufficient statistics."""
    return metric_reports(metric, [hyps], refs)[0]


# -- paired approximate randomization ------------------------------------------

_TRIAL_BLOCK = 1000  # flip patterns drawn and scored at a time
SIGNIFICANCE = 0.05  # the largest p-value marked significant


def randomization_p(
    report_a: ScoreReport, report_b: ScoreReport, trials: int = 10000, seed: int = 1917
) -> float:
    """Two-sided sign-flip randomization p-value for the corpus-level
    difference between two reports of one metric on the same references.

    Each trial swaps both systems' outputs on a random subset of sentences
    and recomputes both corpus scores from the reports' per-sentence
    sufficient statistics (not from averaged sentence scores); the p-value
    is ``(1 + #{|delta_trial| >= |delta_observed|}) / (1 + trials)`` and is
    deterministic for a fixed seed.  When every flip pattern fits within
    the trial budget (2^sentences <= trials) the null distribution is
    enumerated exactly instead of sampled; the observed arrangement then
    plays the role of the +1 term.  Patterns are drawn and scored
    ``_TRIAL_BLOCK`` at a time from one random stream, so memory stays
    bounded and the p-value does not depend on the block size: the
    statistics are integer counts, whose sums are exact in any order.
    """
    if trials < 1:
        raise ConfigError("trials must be positive")
    if report_a.metric != report_b.metric or report_a.stats is None or report_b.stats is None:
        raise ConfigError("randomization needs two reports of one metric with their statistics")
    if len(report_a.stats) != len(report_b.stats):
        raise AlignmentError(
            "reports differ in length: %d vs %d" % (len(report_a.stats), len(report_b.stats))
        )
    score_fn = _METRICS[report_a.metric].score
    sum_a = report_a.stats.sum(axis=0)
    sum_b = report_b.stats.sum(axis=0)
    delta_obs = abs(float(score_fn(sum_a)[0] - score_fn(sum_b)[0]))
    diff = report_b.stats - report_a.stats  # adding this to A's stats swaps a sentence

    n = len(diff)
    if n <= 20 and 2**n <= trials:
        total, observed = 2**n, 0  # the identity pattern is part of the enumeration
        bits = np.arange(n)
        blocks = (
            (np.arange(lo, min(lo + _TRIAL_BLOCK, total))[:, None] >> bits) & 1 == 1
            for lo in range(0, total, _TRIAL_BLOCK)
        )
    else:
        total, observed = trials, 1
        rng = np.random.default_rng(seed)
        blocks = (
            rng.random((min(_TRIAL_BLOCK, trials - lo), n)) < 0.5
            for lo in range(0, trials, _TRIAL_BLOCK)
        )
    exceed = 0
    for flips in blocks:
        shift = flips @ diff
        deltas = score_fn(sum_a + shift) - score_fn(sum_b - shift)
        exceed += int(np.count_nonzero(np.abs(deltas) >= delta_obs))
    return (observed + exceed) / (observed + total)


def paired_randomization_test(
    sys_a: list[str],
    sys_b: list[str],
    refs: list[str],
    metric: str = "chrf",
    trials: int = 10000,
    seed: int = 1917,
) -> float:
    """:func:`randomization_p` of the two systems' ``metric`` reports
    against ``refs``."""
    if trials < 1:
        raise ConfigError("trials must be positive")
    report_a, report_b = metric_reports(metric, [sys_a, sys_b], refs)
    return randomization_p(report_a, report_b, trials, seed)


def significance_mark(p_value: float) -> str:
    """Two-way marking: at or below SIGNIFICANCE counts as significant."""
    return "significant" if p_value <= SIGNIFICANCE else "not-significant"
