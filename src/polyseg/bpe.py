"""Byte-pair-encoding subword model: frequency-based merge learning and
rank-ordered merge application.

Words are initialized as character symbols with the family's end-of-word
marker ``</w>`` appended to the final one, so every encoded word carries
its boundary and decoding is the exact inverse of encoding.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from . import modelfile
from .corpus import check_word_counts
from .errors import ConfigError, DataError, FormatError

MARKER = "</w>"
_marker = {MARKER: MARKER}.__getitem__  # the header's marker field must be MARKER


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


def _word_symbols(word: str) -> tuple[str, ...]:
    if MARKER in word:
        raise DataError("word %r contains the boundary marker %r" % (word, MARKER))
    chars = list(word)
    chars[-1] = chars[-1] + MARKER
    return tuple(chars)


def _find_pair(syms: list[str], a: str, b: str, i: int) -> int:
    """The first index at or after ``i`` where ``syms`` holds ``a``
    followed by ``b``, or -1.  Merging each find and searching again one
    past it merges the pair's occurrences left to right."""
    end = len(syms) - 1
    while i < end:
        if syms[i] == a and syms[i + 1] == b:
            return i
        i += 1
    return -1


def train_bpe(word_counts: dict[str, int], target_vocab_size: int) -> BpeModel:
    """Learn merges until the vocabulary reaches ``target_vocab_size``.

    The most frequent adjacent symbol pair (weighted by word frequency) is
    merged each round; ties break lexicographically on (left, right) so
    training is deterministic.  Stops early once no pair occurs at least
    twice.

    Pair counts are updated incrementally (Sennrich et al., 2016): a merge
    rewrites only the words that hold its pair, and moves only the counts
    of the pairs beside each merged occurrence.
    """
    check_word_counts(word_counts)
    # words are tuples of symbols and the sets of word indexes below are
    # dicts of ints: the cyclic garbage collector does not track either, so
    # the tables training keeps for its whole run add nothing to the full
    # collections the process runs later
    words = list(map(_word_symbols, word_counts))
    freqs = list(word_counts.values())

    vocab = {s for syms in words for s in syms}
    if target_vocab_size < len(vocab):
        raise ConfigError(
            "target vocab size %d below initial alphabet size %d"
            % (target_vocab_size, len(vocab))
        )

    # pair counts and a pair -> word-index map are maintained incrementally:
    # a merge only touches the words that contain the merged pair.  The map
    # is a superset: a word stays listed under a pair it no longer holds
    # and is skipped when the pair is merged.
    pair_counts: dict[tuple[str, str], int] = {}
    pair_where: dict[tuple[str, str], dict[int, None]] = defaultdict(dict)
    for idx, (syms, freq) in enumerate(zip(words, freqs)):
        for pair in zip(syms, syms[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
            pair_where[pair][idx] = None

    # a lazy max-heap of (-count, pair): the smallest entry is the most
    # frequent pair, ties going to the lexicographically first; an entry
    # whose count no longer matches pair_counts is stale and skipped
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)
    touched: set[tuple[str, str]] = set()  # pairs whose count a merge changed

    def move(old, new, idx, freq):
        pair_counts[old] -= freq
        pair_counts[new] = pair_counts.get(new, 0) + freq
        pair_where[new][idx] = None
        touched.add(old)
        touched.add(new)

    merges: list[tuple[str, str]] = []
    while len(vocab) < target_vocab_size and heap:
        neg_count, best = heapq.heappop(heap)
        if pair_counts.get(best) != -neg_count:
            continue
        if -neg_count < 2:
            break
        merges.append(best)
        a, b = best
        ab = a + b
        vocab.add(ab)
        touched.add(best)  # its count ends at 0 and is dropped below
        for idx in pair_where.pop(best):
            syms, freq = list(words[idx]), freqs[idx]
            # a stale word holds no a followed by b and keeps its tuple
            i = _find_pair(syms, a, b, 0)
            while i >= 0:
                # merge the occurrence: the pair goes, and each neighbour
                # pair now holds ab.  The left neighbour is read after the
                # word's earlier merges, so a back-to-back occurrence has
                # already turned (b, a) into (ab, a), which becomes (ab, ab)
                syms[i] = ab
                del syms[i + 1]
                pair_counts[best] -= freq
                if i:
                    x = syms[i - 1]
                    move((x, a), (x, ab), idx, freq)
                if i + 1 < len(syms):
                    y = syms[i + 1]
                    move((b, y), (ab, y), idx, freq)
                i = _find_pair(syms, a, b, i + 1)
            if len(syms) < len(words[idx]):
                words[idx] = tuple(syms)
        for pair in touched:
            count = pair_counts[pair]
            if count:
                heapq.heappush(heap, (-count, pair))
            else:
                del pair_counts[pair]
        touched.clear()

    return BpeModel(merges=merges, vocab=vocab, target_vocab_size=target_vocab_size)


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
    syms = list(_word_symbols(word))
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
        a, b = model.merges[rank]
        ab = a + b
        i = _find_pair(syms, a, b, 0)
        while i >= 0:
            syms[i] = ab
            del syms[i + 1]
            i = _find_pair(syms, a, b, i + 1)
        first = rank + 1
    return syms


def segment_words(model: BpeModel, words) -> list[list[str]]:
    """The pieces of each of ``words``, in input order (see :func:`encode`)."""
    return [encode(model, word) for word in words]


def decode(pieces: list[str]) -> str:
    """Reassemble a word from its pieces; inverse of :func:`encode`."""
    if not pieces:
        raise DataError("cannot decode an empty piece list")
    joined = "".join(pieces)
    idx = joined.find(MARKER)
    if idx >= 0 and idx != len(joined) - len(MARKER):
        raise FormatError(
            "boundary marker %r at position %d, expected only at the end" % (MARKER, idx)
        )
    return joined[: idx] if idx >= 0 else joined


def save_model(model: BpeModel, path) -> None:
    """Write the model as text: a header line, then merge pairs in order."""
    modelfile.write(path, "bpe", ("%d" % model.target_vocab_size, MARKER),
                    {"merges": model.merges})


def load_model(path) -> BpeModel:
    (target, _), sections = modelfile.read(
        path, "bpe", (int, _marker), {"merges": (modelfile.text, modelfile.text)})
    merges = list(zip(*sections["merges"].columns))
    # The file format stores merges only; vocab is rebuilt from them.
    # Alphabet symbols that never merged are not recoverable from the file.
    vocab = set()
    for a, b in merges:
        vocab.update((a, b, a + b))
    return BpeModel(merges=merges, vocab=vocab, target_vocab_size=target)
