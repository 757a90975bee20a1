"""Byte-pair-encoding subword model: frequency-based merge learning and replay.

Words are initialized as character symbols with an end-of-word marker
appended to the final character symbol, so every encoded word carries its
boundary and decoding is the exact inverse of encoding.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

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

    merges: list[tuple[str, str]] = []
    while len(vocab) < target_vocab_size and pair_counts:
        best_count = max(pair_counts.values())
        if best_count < 2:
            break
        best = min(p for p, c in pair_counts.items() if c == best_count)
        merges.append(best)
        vocab.add(best[0] + best[1])
        for idx in sorted(pair_where[best]):
            syms, freq = words[idx]
            for a, b in zip(syms, syms[1:]):
                pair_counts[(a, b)] -= freq
                if pair_counts[(a, b)] <= 0:
                    del pair_counts[(a, b)]
                pair_where[(a, b)].discard(idx)
            merged = list(_merge_word(tuple(syms), best))
            words[idx][0] = merged
            for a, b in zip(merged, merged[1:]):
                pair_counts[(a, b)] += freq
                pair_where[(a, b)].add(idx)

    return BpeModel(
        merges=merges,
        vocab=vocab,
        boundary_marker=marker,
        target_vocab_size=target_vocab_size,
    )


def encode(model: BpeModel, word: str) -> list[str]:
    """Segment ``word`` into pieces by replaying the learned merges.

    Characters never seen in training pass through as single-character
    pieces; callers can detect them with ``model.is_unknown``.
    """
    if not word:
        raise DataError("cannot encode an empty word")
    syms = _word_symbols(word, model.boundary_marker)
    for pair in model.merges:
        if len(syms) == 1:
            break
        syms = _merge_word(syms, pair)
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
    merges = [(a, b) for a, b in rows["merges"]]
    # The file format stores merges only; vocab is rebuilt from them.
    # Alphabet symbols that never merged are not recoverable from the file.
    vocab = set()
    for a, b in merges:
        vocab.update((a, b, a + b))
    return BpeModel(merges=merges, vocab=vocab, boundary_marker=marker, target_vocab_size=target)
