"""Diagnostics relating segmentation behavior to translation quality.

Two probes: per-sentence morphological richness (morphs per token under a
reference unsupervised segmenter) against per-sentence scores, and UNK
counting of segmented output against a fixed piece vocabulary.  Both emit
CSV for downstream plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import table
from .errors import AlignmentError, ConfigError, DataError
from . import morf


MAX_BINS = 10_000  # the most bins bin_richness makes; it holds one list per bin


def check_bins(bins: int) -> None:
    if not 1 <= bins <= MAX_BINS:
        raise ConfigError("bins must be between 1 and %d, got %d" % (MAX_BINS, bins))


@dataclass(frozen=True)
class RichnessRecord:
    index: int
    morphs_per_token: float
    score: float


@dataclass(frozen=True)
class RichnessBin:
    lo: float
    hi: float
    count: int
    mean_score: float


@dataclass(frozen=True)
class UnkReport:
    system: str
    total_tokens: int
    unk_tokens: int

    @property
    def unk_rate(self) -> float:
        return self.unk_tokens / self.total_tokens if self.total_tokens else 0.0


def richness_table(
    probe_model: morf.MorfModel, sentences, per_sentence_scores, source="sentences"
) -> list[RichnessRecord]:
    """Per-sentence morphs-per-token under the probe segmenter, paired with
    that sentence's score and sorted by richness.  Each distinct token is
    segmented once per call.  An empty sentence is named as
    ``source:line``."""
    sentences = list(sentences)
    scores = list(per_sentence_scores)
    if len(sentences) != len(scores):
        raise AlignmentError(
            "scores not aligned with sentences: %d vs %d" % (len(scores), len(sentences))
        )
    for idx, tokens in enumerate(sentences):
        if not tokens:
            raise DataError("%s:%d: sentence has no tokens" % (source, idx + 1))
    distinct = list(dict.fromkeys(tok for tokens in sentences for tok in tokens))
    n_morphs = {tok: len(morphs)
                for tok, morphs in zip(distinct, morf.segment_words(probe_model, distinct))}
    records = [RichnessRecord(idx, sum(n_morphs[tok] for tok in tokens) / len(tokens),
                              float(score))
               for idx, (tokens, score) in enumerate(zip(sentences, scores))]
    return sorted(records, key=lambda r: (r.morphs_per_token, r.index))


def bin_richness(records: list[RichnessRecord], bins: int = 10) -> list[RichnessBin]:
    """Equal-width bins over the observed richness range with per-bin mean
    score; a degenerate range collapses to a single bin."""
    check_bins(bins)
    if not records:
        return []
    lo = min(r.morphs_per_token for r in records)
    hi = max(r.morphs_per_token for r in records)
    if hi == lo:
        mean = sum(r.score for r in records) / len(records)
        return [RichnessBin(lo, hi, len(records), mean)]
    width = (hi - lo) / bins
    grouped: list[list[float]] = [[] for _ in range(bins)]
    for r in records:
        k = min(int((r.morphs_per_token - lo) / width), bins - 1)
        grouped[k].append(r.score)
    out = []
    for k, scores in enumerate(grouped):
        out.append(
            RichnessBin(
                lo + k * width,
                lo + (k + 1) * width,
                len(scores),
                sum(scores) / len(scores) if scores else float("nan"),
            )
        )
    return out


def richness_csv(records: list[RichnessRecord]) -> str:
    return table(("idx", "richness", "score"),
                 ((r.index, repr(r.morphs_per_token), repr(r.score)) for r in records), ",")


def richness_bins_csv(bins: list[RichnessBin]) -> str:
    return table(("bin_lo", "bin_hi", "count", "mean_score"),
                 ((repr(b.lo), repr(b.hi), b.count, repr(b.mean_score)) for b in bins), ",")


def unk_report(segmented_corpus, vocabulary: set[str], system: str = "system") -> UnkReport:
    """Count produced pieces absent from the given piece vocabulary.

    ``segmented_corpus`` is a sequence of sentences, each a sequence of
    tokens, each a sequence of pieces.
    """
    if not vocabulary:
        raise ConfigError("empty piece vocabulary")
    total = 0
    unk = 0
    for sent in segmented_corpus:
        for token_pieces in sent:
            for piece in token_pieces:
                total += 1
                unk += piece not in vocabulary
    return UnkReport(system=system, total_tokens=total, unk_tokens=unk)


def unk_csv(reports: list[UnkReport]) -> str:
    return table(("system", "total", "unk", "rate"),
                 ((r.system, r.total_tokens, r.unk_tokens, repr(r.unk_rate)) for r in reports),
                 ",")
