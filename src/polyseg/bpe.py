"""Byte-pair-encoding subword model: frequency-based merge learning and
rank-ordered merge application.

Words are initialized as character symbols with an end-of-word marker
appended to the final character symbol, so every encoded word carries its
boundary and decoding is the exact inverse of encoding.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property

from . import modelfile
from .errors import ConfigError, DataError, FormatError

DEFAULT_MARKER = "</w>"


@dataclass
class BpeModel:
    """Learned merge operations plus the piece vocabulary they generate.

    ``merges`` replayed in order over the character-initialized corpus
    regenerate ``vocab`` from the alphabet; ``vocab`` keeps every symbol
    ever produced (alphabet, marker variants and merge results), whether or
    not later merges consume it.
    """

    merges: list[tuple[str, str]]
    vocab: set[str]
    boundary_marker: str = DEFAULT_MARKER
    target_vocab_size: int = 0

    def is_unknown(self, piece: str) -> bool:
        return piece not in self.vocab

    @cached_property
    def pair_ranks(self) -> dict[tuple[str, str], list[int]]:
        """Each merge pair mapped to the ascending ranks (indexes into
        ``merges``) it appears at; built on first use, so ``merges`` must
        not change after the first :func:`encode`."""
        ranks: dict[tuple[str, str], list[int]] = {}
        for rank, pair in enumerate(self.merges):
            ranks.setdefault(pair, []).append(rank)
        return ranks


def _word_symbols(word: str, marker: str) -> tuple[str, ...]:
    if marker in word:
        raise DataError("word %r contains the boundary marker %r" % (word, marker))
    chars = list(word)
    chars[-1] = chars[-1] + marker
    return tuple(chars)


def _merge_word(syms: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    a, b = pair
    out = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return tuple(out)


def train_bpe(
    word_counts: dict[str, int],
    target_vocab_size: int,
    marker: str = DEFAULT_MARKER,
) -> BpeModel:
    """Learn merges until the vocabulary reaches ``target_vocab_size``.

    The most frequent adjacent symbol pair (weighted by word frequency) is
    merged each round; ties break lexicographically on (left, right) so
    training is deterministic.  Stops early once no pair occurs at least
    twice.
    """
    if not word_counts:
        raise DataError("empty word counts")
    agg: dict[tuple[str, ...], int] = {}
    for word, freq in word_counts.items():
        if not word:
            raise DataError("empty word in counts")
        syms = _word_symbols(word, marker)
        agg[syms] = agg.get(syms, 0) + freq
    words = [[list(syms), freq] for syms, freq in agg.items()]

    vocab = {s for syms, _ in agg.items() for s in syms}
    if target_vocab_size < len(vocab):
        raise ConfigError(
            "target vocab size %d below initial alphabet size %d"
            % (target_vocab_size, len(vocab))
        )

    # pair counts and a pair -> word-index map are maintained incrementally:
    # a merge only touches the words that contain the merged pair
    pair_counts = Counter()
    pair_where: dict[tuple[str, str], set[int]] = defaultdict(set)
    for idx, (syms, freq) in enumerate(words):
        for a, b in zip(syms, syms[1:]):
            pair_counts[(a, b)] += freq
            pair_where[(a, b)].add(idx)

    # a lazy max-heap of (-count, pair): the smallest entry is the most
    # frequent pair, ties going to the lexicographically first; an entry
    # whose count no longer matches pair_counts is stale and skipped
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []
    while len(vocab) < target_vocab_size and heap:
        neg_count, best = heapq.heappop(heap)
        if pair_counts.get(best) != -neg_count:
            continue
        if -neg_count < 2:
            break
        merges.append(best)
        vocab.add(best[0] + best[1])
        changed = Counter()  # net count change; most pairs of a word keep theirs
        for idx in sorted(pair_where[best]):
            syms, freq = words[idx]
            for a, b in zip(syms, syms[1:]):
                pair_counts[(a, b)] -= freq
                if pair_counts[(a, b)] <= 0:
                    del pair_counts[(a, b)]
                pair_where[(a, b)].discard(idx)
                changed[(a, b)] -= freq
            merged = list(_merge_word(tuple(syms), best))
            words[idx][0] = merged
            for a, b in zip(merged, merged[1:]):
                pair_counts[(a, b)] += freq
                pair_where[(a, b)].add(idx)
                changed[(a, b)] += freq
        for pair, change in changed.items():
            if change and pair in pair_counts:
                heapq.heappush(heap, (-pair_counts[pair], pair))

    return BpeModel(
        merges=merges,
        vocab=vocab,
        boundary_marker=marker,
        target_vocab_size=target_vocab_size,
    )


def encode(model: BpeModel, word: str) -> list[str]:
    """Segment ``word`` into pieces, applying the learned merges in rank
    order with the result of replaying the whole merge list.

    Only merges whose pair is adjacent in the word change it, so each step
    jumps to the lowest rank at or after the last one applied among the
    word's current pairs.  Ranks already passed stay passed: a pair can
    reappear after its rank when a later merge rebuilds one of its symbols
    from a different split, and replay would not merge it then.

    Characters never seen in training pass through as single-character
    pieces; callers can detect them with ``model.is_unknown``.
    """
    if not word:
        raise DataError("cannot encode an empty word")
    syms = _word_symbols(word, model.boundary_marker)
    pair_ranks = model.pair_ranks
    first = 0  # the lowest rank replay could still apply
    while len(syms) > 1:
        rank = None
        for pair in zip(syms, syms[1:]):
            ranks = pair_ranks.get(pair)
            if ranks is None or ranks[-1] < first:
                continue
            r = ranks[bisect_left(ranks, first)]
            if rank is None or r < rank:
                rank = r
        if rank is None:
            break
        syms = _merge_word(syms, model.merges[rank])
        first = rank + 1
    return list(syms)


def decode(pieces: list[str], marker: str = DEFAULT_MARKER) -> str:
    """Reassemble a word from its pieces; inverse of :func:`encode`."""
    if not pieces:
        raise DataError("cannot decode an empty piece list")
    joined = "".join(pieces)
    idx = joined.find(marker)
    if idx >= 0 and idx != len(joined) - len(marker):
        raise FormatError(
            "boundary marker %r at position %d, expected only at the end" % (marker, idx)
        )
    return joined[: idx] if idx >= 0 else joined


def save_model(model: BpeModel, path) -> None:
    """Write the model as text: a header line, then merge pairs in order."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("bpe v1 %d %s\n" % (model.target_vocab_size, model.boundary_marker))
        for a, b in model.merges:
            f.write("%s\t%s\n" % (a, b))


def load_model(path) -> BpeModel:
    (target, marker), rows = modelfile.read(path, "bpe", (int, str), {"merges": (str, str)})
    merges = [(a, b) for _, (a, b) in rows["merges"]]
    # The file format stores merges only; vocab is rebuilt from them.
    # Alphabet symbols that never merged are not recoverable from the file.
    vocab = set()
    for a, b in merges:
        vocab.update((a, b, a + b))
    return BpeModel(merges=merges, vocab=vocab, boundary_marker=marker, target_vocab_size=target)
