"""Machinery the crf and morf decoders share.

* :func:`batches` cuts a word list into chunks of one length, which each
  decoder runs through one numpy dynamic program.
* :class:`SpanIndex` finds the morphs of a lexicon among the spans of such a
  chunk by sorted integer keys.
* :func:`forward_backward` runs a log-space chain over a :class:`Packing`
  of chains of every length at once, and :func:`transition_counts` sums
  its label pairs: the crf's BMES labels over characters and flatcat's
  categories over morphs.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

# decoding and the training table take the words of one length in chunks
# of at most this many character positions, so their arrays stay small
# however many words share a length
CHUNK_POSITIONS = 1 << 14


def batches(words: list[str]):
    """``words`` in chunks of one length: yields ``(indices, group)``, the
    positions in ``words`` of one chunk and those words.  Lengths come in
    first-seen order and words in input order; a chunk holds at most
    ``CHUNK_POSITIONS`` characters, or one longer word."""
    by_length: dict[int, list[int]] = {}
    for k, word in enumerate(words):
        if not word:
            raise DataError("cannot decode an empty word")
        by_length.setdefault(len(word), []).append(k)
    for n, members in by_length.items():
        size = max(1, CHUNK_POSITIONS // n)
        for k in range(0, len(members), size):
            indices = members[k : k + size]
            yield indices, [words[i] for i in indices]


def code_points(texts: list[str], length: int) -> np.ndarray:
    """The code points of ``texts``, which all have ``length`` characters,
    as a ``(len(texts), length)`` array."""
    flat = "".join(texts).encode("utf-32-le", "surrogatepass")
    return np.frombuffer(flat, dtype=np.uint32).reshape(len(texts), length)


_KEY_BOUND = 1 << 63


class SpanIndex:
    """The morphs of ``ids`` (morph -> id), found among the spans of words
    by sorted integer keys.

    A character's code is 1 + its index among the characters of the
    morphs, and 0 for any other character, so a span holding one matches
    no morph.  The key of a text is the base ``|chars| + 1`` polynomial of
    its codes, exact for the lengths ``L`` with ``(|chars| + 1) ** L <
    2 ** 63``.  Each morph length keeps its morphs' keys sorted, with their
    ids alongside; a length beyond the exact ones keeps the keys of its
    morphs' prefixes of the longest exact length instead, and a span whose
    prefix key is among them is confirmed by looking its text up in
    ``ids``.  The empty morph is never found.
    """

    def __init__(self, ids: dict[str, int]):
        self.ids = ids
        self.unknown = len(ids)
        by_length: dict[int, list[str]] = {}
        for m in ids:
            if m:
                by_length.setdefault(len(m), []).append(m)
        self.lengths = sorted(by_length)
        points = [code_points(ms, n).ravel() for n, ms in by_length.items()]
        self._chars = np.unique(np.concatenate(points)) if points else np.zeros(0, np.uint32)
        self._base = len(self._chars) + 1
        # the longest exact key length, capped at the longest morph
        self._exact = 0
        while self._exact < max(self.lengths, default=0) and \
                self._base ** (self._exact + 1) < _KEY_BOUND:
            self._exact += 1
        self._keys = {}
        for n, ms in by_length.items():
            codes = self._codes(code_points(ms, n))
            key = codes[:, 0]
            for j in range(1, min(n, self._exact)):
                key = key * self._base + codes[:, j]
            order = np.argsort(key, kind="stable")
            self._keys[n] = key[order], np.array([ids[m] for m in ms], dtype=np.intp)[order]

    def _codes(self, points: np.ndarray) -> np.ndarray:
        """The character codes of an array of code points, as int64."""
        pos = np.searchsorted(self._chars, points)
        pos[pos == len(self._chars)] = 0
        return np.where(self._chars[pos] == points, pos + 1, 0).astype(np.int64)

    def spans(self, words: list[str]) -> np.ndarray:
        """The morph ids of the spans of ``words`` (all of one length ``n``)
        at the lexicon's lengths up to ``n``: a ``(len(words), n, m)``
        array whose ``[w, end - 1, j]`` is the id of the span of length
        ``self.lengths[j]`` ending at ``end``, ``self.unknown`` where that
        span is no morph or would start before the word."""
        count, n = len(words), len(words[0])
        fit = [length for length in self.lengths if length <= n]
        table = np.full((count, n, len(fit)), self.unknown, dtype=np.intp)
        if not fit:
            return table
        codes = self._codes(code_points(words, n))
        # key[w, a]: the key of the span of klen characters from a
        key, klen = codes, 1
        for j, length in enumerate(fit):
            while klen < min(length, self._exact):
                # a span's key is the one a character shorter times the
                # base plus its last character's code
                key = key[:, :-1] * self._base + codes[:, klen:]
                klen += 1
            keys, found = self._keys[length]
            probe = key[:, : n - length + 1]
            pos = np.searchsorted(keys, probe)
            pos[pos == len(keys)] = 0
            hit = keys[pos] == probe
            if length == klen:
                table[:, length - 1 :, j] = np.where(hit, found[pos], self.unknown)
            else:
                # a prefix key hit: the span's text decides
                w, a = np.nonzero(hit)
                get = self.ids.get
                table[w, a + length - 1, j] = [get(words[x][y : y + length], self.unknown)
                                               for x, y in zip(w.tolist(), a.tolist())]
        return table


_LOWEST = -np.finfo(np.float64).max


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(x)))`` along ``axis``; a slice that is all -inf gives -inf."""
    # the lowest finite float stands in for the top of an all -inf slice,
    # so that ``x - top`` stays -inf there instead of NaN
    top = x.max(axis=axis, keepdims=True, initial=_LOWEST)
    shifted = x - top
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        total = np.log(shifted.sum(axis=axis))
    return total + top.squeeze(axis=axis)


class Packing:
    """A batch of chains of the given ``lengths`` (each at least 1), laid
    out for :func:`forward_backward`.

    Callers keep a batch's rows chain by chain: chain ``c``'s position
    ``i`` is row ``starts[c] + i``.  The packed layout sorts the chains by
    length, longest first (equal lengths in caller order), and stores them
    position by position: block ``i``, rows ``offsets[i]:offsets[i + 1]``,
    holds position ``i`` of every chain longer than ``i``, and those chains
    are the first rows of block ``i - 1`` too.  So one step of the
    recursion is one slice, and no row is padding.

    ``order`` maps packed rows to caller rows and ``index`` caller rows to
    packed ones; ``last`` is the packed row of each chain's last position
    and ``chain`` the chain of each caller row, both in caller order.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.intp)
        count = len(lengths)
        ranked = np.argsort(-lengths, kind="stable")
        rank = np.empty(count, dtype=np.intp)
        rank[ranked] = np.arange(count)
        # chains longer than i, for each position i of the longest chain
        shorter = np.cumsum(np.bincount(lengths, minlength=1))[:-1]
        offsets = np.concatenate([[0], np.cumsum(count - shorter)])
        self.offsets = offsets.tolist()
        self.chain = np.repeat(np.arange(count), lengths)
        starts = np.cumsum(lengths) - lengths
        position = np.arange(len(self.chain)) - starts[self.chain]
        self.index = offsets[position] + rank[self.chain]
        self.order = np.empty_like(self.index)
        self.order[self.index] = np.arange(len(self.index))
        self.last = offsets[lengths - 1] + rank


def forward_backward(scores: np.ndarray, packing: Packing, start: np.ndarray,
                     trans: np.ndarray, final: np.ndarray):
    """Log-space forward and backward values of a batch of chains, and each
    chain's log partition value.

    ``scores`` holds the ``(rows, 4)`` label scores of the chains of
    ``packing``, chain by chain; ``start`` and ``final`` score each label
    opening and closing a chain (-inf forbids).  ``alpha`` and ``beta``
    come back in the rows of ``scores`` and ``log_z`` in chain order.  All
    chains step together in :class:`Packing`'s layout, and each chain's
    values are those of the same recursion run on its own.  The crf's BMES
    chain and flatcat's category chain run here.
    """
    # held label by packed row: each step reduces over a leading axis of
    # four labels, so numpy's inner loops run over whole blocks, and it
    # still adds the four labels one after another, as a sum over one
    # row's labels does
    packed = scores.T[:, packing.order]
    alpha = np.empty_like(packed)
    o = packing.offsets
    if len(o) > 1:
        alpha[:, : o[1]] = packed[:, : o[1]] + start[:, None]
    forward = trans[:, :, None]
    for i in range(1, len(o) - 1):
        # the chains still running at i are the first o[i + 1] - o[i] of i - 1
        here, k = slice(o[i], o[i + 1]), o[i + 1] - o[i]
        alpha[:, here] = packed[:, here] + _logsumexp(
            alpha[:, None, o[i - 1] : o[i - 1] + k] + forward, axis=0)
    log_z = _logsumexp(alpha[:, packing.last] + final[:, None], axis=0)
    # each packed array is dropped once it is back in caller rows, so no
    # more than three batch-sized arrays are held at a time
    alpha = alpha.T[packing.index]
    beta = np.empty_like(packed)
    beta[:, packing.last] = final[:, None]
    backward = trans.T[:, :, None]
    for i in range(len(o) - 3, -1, -1):
        after = slice(o[i + 1], o[i + 2])
        beta[:, o[i] : o[i] + o[i + 2] - o[i + 1]] = _logsumexp(
            (packed[:, after] + beta[:, after])[:, None, :] + backward, axis=0)
    del packed
    return alpha, beta.T[packing.index], log_z


def transition_counts(scores, trans, alpha, beta, log_z) -> np.ndarray:
    """The expected ``(4, 4)`` label-pair counts of a ``(chains, length,
    4)`` batch of chains of one length, summed over its chains and adjacent
    positions, from their :func:`forward_backward` values."""
    # log marginals of each adjacent label pair, (chains, n - 1, 4, 4)
    xi = alpha[:, :-1, :, None] + trans + (scores[:, 1:] + beta[:, 1:])[:, :, None, :]
    return np.exp(xi - log_z[:, None, None, None]).sum(axis=(0, 1))
