"""Parallel-corpus and segmentation-dataset ingestion plus descriptive statistics.

File conventions: parallel corpora are plain-text, one sentence per line,
line-aligned across the two sides; segmentation datasets are UTF-8 TSV with
``surface<TAB>morph1 morph2 ...`` per line.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .errors import AlignmentError, DataError, ParseError

SURFACE = "surface"
CANONICAL = "canonical"
MODES = (SURFACE, CANONICAL)
# matches the characters that str.isspace() is true for
_WHITESPACE = re.compile(r"\s")


@dataclass(frozen=True)
class Sentence:
    """A whitespace-tokenized sentence."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise DataError("sentence has no tokens")
        for tok in self.tokens:
            if not tok or _WHITESPACE.search(tok):
                raise DataError("token is empty or contains whitespace: %r" % (tok,))

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class ParallelCorpus:
    """Line-aligned sentence pairs."""

    pairs: tuple[tuple[Sentence, Sentence], ...]

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class SegmentedWord:
    """A surface form with its ordered morph sequence.

    In surface mode the morphs concatenate back to the surface form exactly;
    canonical analyses are exempt from that check.
    """

    surface: str
    morphs: tuple[str, ...]
    mode: str = SURFACE

    def __post_init__(self):
        if self.mode not in MODES:
            raise DataError("unknown segmentation mode: %r" % (self.mode,))
        if not self.surface or _WHITESPACE.search(self.surface):
            raise DataError("bad surface form: %r" % (self.surface,))
        if not self.morphs:
            raise DataError("no morphs for %r" % (self.surface,))
        if not all(self.morphs) or any(map(_WHITESPACE.search, self.morphs)):
            raise DataError("empty or whitespace morph in %r" % (self.surface,))
        if self.mode == SURFACE and "".join(self.morphs) != self.surface:
            raise DataError(
                "morphs %s do not concatenate to surface %r"
                % (list(self.morphs), self.surface)
            )


@dataclass(frozen=True)
class SegmentationDataset:
    entries: tuple[SegmentedWord, ...]
    mode: str

    def __post_init__(self):
        for e in self.entries:
            if e.mode != self.mode:
                raise DataError(
                    "entry %r has mode %s, dataset is %s" % (e.surface, e.mode, self.mode)
                )

    def __len__(self):
        return len(self.entries)

    def morph_types(self) -> set[str]:
        return {m for e in self.entries for m in e.morphs}


@dataclass(frozen=True)
class CorpusStats:
    """Descriptive statistics of a parallel corpus, per side.

    Tuples are (source, target).  ``oov``/``pct_oov`` count evaluation-side
    vocabulary types absent from a reference training split and are None
    when no reference was given.
    """

    s: int
    n: tuple[int, int]
    v: tuple[int, int]
    v1: tuple[int, int]
    token_ratio: float  # N_source / N_target
    v_over_n: tuple[float, float]
    v1_over_n: tuple[float, float]
    oov: tuple[int, int] | None = None
    pct_oov: tuple[float, float] | None = None


@dataclass(frozen=True)
class SegDatasetStats:
    words: int
    seg_words: int
    morphs: int
    uni_morphs: int
    seg_per_word: float
    morphs_per_word: float
    max_morphs: int
    oov_morphs: int | None = None


def read_lines(path) -> list[str]:
    """The lines of the UTF-8 text file at ``path``, without line ends and
    without a byte-order mark (one leading U+FEFF is dropped).  A file that
    cannot be read raises ParseError naming it, and one that is not valid
    UTF-8 raises ParseError at ``path:line:``.  Lines end at ``\n``,
    ``\r\n`` and ``\r``, not at the other breaks of ``str.splitlines``
    (``\x85``, ``\u2028``, ...)."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end at each \n and at each \r not followed by \n
        line = (data.count(b"\n", 0, exc.start) + data.count(b"\r", 0, exc.start)
                - data.count(b"\r\n", 0, exc.start) + 1)
        raise ParseError("%s:%d: invalid UTF-8 (byte 0x%02x: %s)"
                         % (path, line, data[exc.start], exc.reason)) from exc
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    return text.removesuffix("\n").split("\n") if text else []


def load_parallel(source_path, target_path) -> ParallelCorpus:
    """Load a line-aligned parallel corpus from two plain-text files."""
    src_lines = read_lines(source_path)
    tgt_lines = read_lines(target_path)
    if len(src_lines) != len(tgt_lines):
        raise AlignmentError(
            "line count mismatch: %s has %d lines, %s has %d"
            % (source_path, len(src_lines), target_path, len(tgt_lines))
        )
    pairs = []
    for i, (src, tgt) in enumerate(zip(src_lines, tgt_lines), start=1):
        if not src.split():
            raise ParseError("%s:%d: empty line" % (source_path, i))
        if not tgt.split():
            raise ParseError("%s:%d: empty line" % (target_path, i))
        pairs.append((Sentence(tuple(src.split())), Sentence(tuple(tgt.split()))))
    return ParallelCorpus(tuple(pairs))


def load_segmentation(path, mode: str = SURFACE) -> SegmentationDataset:
    """Load a TSV segmentation dataset (``surface<TAB>morph1 morph2 ...``);
    a file without entries raises ParseError."""
    if mode not in MODES:
        raise DataError("unknown segmentation mode: %r" % (mode,))
    lines = read_lines(path)
    if not lines:
        raise ParseError("%s:1: no segmentation entries" % (path,))
    entries = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            raise ParseError("%s:%d: empty line" % (path, i))
        if "\t" not in line:
            raise ParseError("%s:%d: no TAB separator" % (path, i))
        surface, morph_field = line.split("\t", 1)
        morphs = tuple(morph_field.split())
        try:
            entries.append(SegmentedWord(surface, morphs, mode=mode))
        except DataError as exc:
            raise DataError("%s:%d: %s" % (path, i, exc)) from exc
    return SegmentationDataset(tuple(entries), mode=mode)


def _side_counts(corpus: ParallelCorpus, side: int) -> Counter:
    counts = Counter()
    for pair in corpus.pairs:
        counts.update(pair[side].tokens)
    return counts


def corpus_stats(
    corpus: ParallelCorpus, reference_train: ParallelCorpus | None = None
) -> CorpusStats:
    """Compute sentence/token/vocabulary statistics over whitespace tokens.

    With ``reference_train``, also count evaluation vocabulary types unseen
    in the reference's same side (OOV) and their share of the evaluated
    split's vocabulary (pctOOV).
    """
    if not corpus.pairs:
        raise DataError("empty corpus")
    counts = (_side_counts(corpus, 0), _side_counts(corpus, 1))
    n = tuple(sum(c.values()) for c in counts)
    v = tuple(len(c) for c in counts)
    v1 = tuple(sum(1 for x in c.values() if x == 1) for c in counts)
    oov = pct = None
    if reference_train is not None:
        ref_vocab = (
            set(_side_counts(reference_train, 0)),
            set(_side_counts(reference_train, 1)),
        )
        oov = tuple(
            sum(1 for t in counts[i] if t not in ref_vocab[i]) for i in range(2)
        )
        pct = tuple(oov[i] / v[i] for i in range(2))
    return CorpusStats(
        s=len(corpus.pairs),
        n=n,
        v=v,
        v1=v1,
        token_ratio=n[0] / n[1],
        v_over_n=tuple(v[i] / n[i] for i in range(2)),
        v1_over_n=tuple(v1[i] / n[i] for i in range(2)),
        oov=oov,
        pct_oov=pct,
    )


def seg_stats(
    dataset: SegmentationDataset, reference_train: SegmentationDataset | None = None
) -> SegDatasetStats:
    """Compute word/morph statistics of a segmentation dataset."""
    if not dataset.entries:
        raise DataError("empty segmentation dataset")
    words = len(dataset.entries)
    seg_words = sum(1 for e in dataset.entries if len(e.morphs) > 1)
    morphs = sum(len(e.morphs) for e in dataset.entries)
    uni = len(dataset.morph_types())
    max_morphs = max(len(e.morphs) for e in dataset.entries)
    oovm = None
    if reference_train is not None:
        train_types = reference_train.morph_types()
        oovm = sum(1 for m in dataset.morph_types() if m not in train_types)
    return SegDatasetStats(
        words=words,
        seg_words=seg_words,
        morphs=morphs,
        uni_morphs=uni,
        seg_per_word=seg_words / words,
        morphs_per_word=morphs / words,
        max_morphs=max_morphs,
        oov_morphs=oovm,
    )


def round_half_up(x: float, places: int) -> float:
    """Round with ties away from zero, e.g. 0.2605 -> 0.261 at 3 places."""
    q = Decimal(10) ** -places
    return float(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


def truncate(x: float, places: int) -> float:
    """Drop digits past ``places`` without rounding."""
    scale = 10**places
    return math.floor(x * scale) / scale


def _fmt(x: float, places: int, *, trunc: bool = False) -> str:
    val = truncate(x, places) if trunc else round_half_up(x, places)
    return "%.*f" % (places, val)


STATS_HEADER = ("S", "N", "V", "V1", "V/N", "V1/N", "OOV", "pctOOV")


def stats_table(
    stats: CorpusStats, side_names: tuple[str, str] = ("source", "target"), sep: str = "\t"
) -> str:
    """Render corpus statistics as a delimited table, one row per side.

    Ratio columns use 3 decimal places, half-up; pctOOV is truncated at 3
    decimal places, matching the reporting convention of the statistics
    tables this layout follows.
    """
    lines = [sep.join(("side",) + STATS_HEADER)]
    for i, name in enumerate(side_names):
        row = [
            name,
            str(stats.s),
            str(stats.n[i]),
            str(stats.v[i]),
            str(stats.v1[i]),
            _fmt(stats.v_over_n[i], 3),
            _fmt(stats.v1_over_n[i], 3),
            str(stats.oov[i]) if stats.oov is not None else "-",
            _fmt(stats.pct_oov[i], 3, trunc=True) if stats.pct_oov is not None else "-",
        ]
        lines.append(sep.join(row))
    return "\n".join(lines) + "\n"


SEG_STATS_HEADER = (
    "Words",
    "SegWords",
    "Morphs",
    "UniMorphs",
    "Seg/W",
    "Morphs/W",
    "MaxMorphs",
    "OOV-M",
)


def seg_stats_table(stats: SegDatasetStats, sep: str = "\t") -> str:
    """Render segmentation-dataset statistics as a single-row table."""
    row = [
        str(stats.words),
        str(stats.seg_words),
        str(stats.morphs),
        str(stats.uni_morphs),
        _fmt(stats.seg_per_word, 2),
        _fmt(stats.morphs_per_word, 2),
        str(stats.max_morphs),
        str(stats.oov_morphs) if stats.oov_morphs is not None else "-",
    ]
    return sep.join(SEG_STATS_HEADER) + "\n" + sep.join(row) + "\n"
