"""Parallel-corpus and segmentation-dataset ingestion plus descriptive statistics.

File conventions: parallel corpora are plain-text, one sentence per line,
line-aligned across the two sides; segmentation datasets are UTF-8 TSV with
``surface<TAB>morph1 morph2 ...`` per line.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import re
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import NamedTuple

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


def check_word_counts(word_counts) -> None:
    """Raise DataError unless ``word_counts`` maps at least one word without
    whitespace to a positive Python or numpy integer."""
    if not word_counts:
        raise DataError("empty word counts")
    for word, count in word_counts.items():
        if not isinstance(word, str) or word.split() != [word]:
            raise DataError("bad word in counts: %r" % (word,))
        # the type test spares a plain int the slower abstract-class check
        if not (type(count) is int or isinstance(count, numbers.Integral)):
            raise DataError("non-integer count for %r: %r" % (word, count))
        if count < 1:
            raise DataError("non-positive count for %r" % (word,))


@dataclass(frozen=True)
class ParallelCorpus:
    """Line-aligned sentence pairs."""

    pairs: tuple[tuple[Sentence, Sentence], ...]

    def __len__(self):
        return len(self.pairs)


class _SegmentedWordFields(NamedTuple):
    surface: str
    morphs: tuple[str, ...]
    mode: str = SURFACE


class SegmentedWord(_SegmentedWordFields):
    """A surface form with its ordered morph sequence.

    In surface mode the morphs concatenate back to the surface form exactly;
    canonical analyses are exempt from that check.  The constructor checks
    its fields; ``_make`` and ``_replace`` build a row without checking it,
    for callers that have checked the fields already.  A row is the tuple
    ``(surface, morphs, mode)`` and compares equal to it.
    """

    __slots__ = ()

    def __new__(cls, surface: str, morphs: tuple[str, ...], mode: str = SURFACE):
        if mode not in MODES:
            raise DataError("unknown segmentation mode: %r" % (mode,))
        if not surface or _WHITESPACE.search(surface):
            raise DataError("bad surface form: %r" % (surface,))
        if not morphs:
            raise DataError("no morphs for %r" % (surface,))
        joined = "".join(morphs)
        if not all(morphs) or _WHITESPACE.search(joined):
            raise DataError("empty or whitespace morph in %r" % (surface,))
        if mode == SURFACE and joined != surface:
            raise DataError(
                "morphs %s do not concatenate to surface %r" % (list(morphs), surface)
            )
        return super().__new__(cls, surface, morphs, mode)


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


def check_line_counts(path_a, lines_a, path_b, lines_b) -> None:
    """Raise AlignmentError naming both files when the lines read from
    ``path_a`` and ``path_b`` differ in number."""
    if len(lines_a) != len(lines_b):
        raise AlignmentError("line count mismatch: %s has %d lines, %s has %d"
                             % (path_a, len(lines_a), path_b, len(lines_b)))


def load_parallel(source_path, target_path) -> ParallelCorpus:
    """Load a line-aligned parallel corpus from two plain-text files; files
    without lines raise ParseError."""
    src_lines = read_lines(source_path)
    tgt_lines = read_lines(target_path)
    check_line_counts(source_path, src_lines, target_path, tgt_lines)
    if not src_lines:
        raise ParseError("%s:1: empty corpus" % (source_path,))
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
    a file without entries raises ParseError.

    A line is the surface, a TAB and the whitespace-separated morphs, which
    must pass the :class:`SegmentedWord` checks.  Each line is checked once
    with string operations: the morphs from ``str.split`` are non-empty and
    hold no whitespace, so in surface mode their concatenation being the
    surface is the whole check.  A line that fails is diagnosed in order:
    empty line, no TAB, then the constructor's own message.
    """
    if mode not in MODES:
        raise DataError("unknown segmentation mode: %r" % (mode,))
    lines = read_lines(path)
    if not lines:
        raise ParseError("%s:1: no segmentation entries" % (path,))
    surface_mode = mode == SURFACE
    make = SegmentedWord._make
    entries = []
    for i, line in enumerate(lines, start=1):
        surface, tab, morph_field = line.partition("\t")
        morphs = tuple(morph_field.split())
        if not (tab and morphs and ("".join(morphs) == surface if surface_mode
                                    else surface and not _WHITESPACE.search(surface))):
            if not line.strip():
                raise ParseError("%s:%d: empty line" % (path, i))
            if not tab:
                raise ParseError("%s:%d: no TAB separator" % (path, i))
            try:
                SegmentedWord(surface, morphs, mode)
            except DataError as exc:
                raise DataError("%s:%d: %s" % (path, i, exc)) from exc
        entries.append(make((surface, morphs, mode)))
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
    types = dataset.morph_types()
    max_morphs = max(len(e.morphs) for e in dataset.entries)
    oovm = None
    if reference_train is not None:
        train_types = reference_train.morph_types()
        oovm = sum(1 for m in types if m not in train_types)
    return SegDatasetStats(
        words=words,
        seg_words=seg_words,
        morphs=morphs,
        uni_morphs=len(types),
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


def table(header, rows, sep: str) -> str:
    """``header`` and ``rows`` as lines of ``sep``-delimited fields, quoting
    only the fields that need it; lines end in ``\n``.  Every TSV and CSV
    report is written by this function."""
    out = io.StringIO()
    csv.writer(out, delimiter=sep, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


STATS_HEADER = ("S", "N", "V", "V1", "V/N", "V1/N", "OOV", "pctOOV")


def stats_table(stats: CorpusStats, sep: str = "\t") -> str:
    """Render corpus statistics as a delimited table, one row per side.

    Ratio columns use 3 decimal places, half-up; pctOOV is truncated at 3
    decimal places, matching the reporting convention of the statistics
    tables this layout follows.
    """
    rows = [
        (name, stats.s, stats.n[i], stats.v[i], stats.v1[i],
         _fmt(stats.v_over_n[i], 3), _fmt(stats.v1_over_n[i], 3),
         stats.oov[i] if stats.oov is not None else "-",
         _fmt(stats.pct_oov[i], 3, trunc=True) if stats.pct_oov is not None else "-")
        for i, name in enumerate(("source", "target"))
    ]
    return table(("side",) + STATS_HEADER, rows, sep)


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
    row = (stats.words, stats.seg_words, stats.morphs, stats.uni_morphs,
           _fmt(stats.seg_per_word, 2), _fmt(stats.morphs_per_word, 2), stats.max_morphs,
           stats.oov_morphs if stats.oov_morphs is not None else "-")
    return table(SEG_STATS_HEADER, [row], sep)
