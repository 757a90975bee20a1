"""Supervised surface segmentation as character tagging with a linear-chain CRF.

Characters carry BMES labels (Begin / Middle / End / Single); the chain is
hard-constrained to well-formed sequences, so decoding always yields a
surface segmentation whose concatenation restores the word.  Features are
character substrings drawn from a window around each position, keyed by
offset and content.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import modelfile
from .corpus import SURFACE, SegmentationDataset, SegmentedWord
from .errors import ConfigError, DataError, ParseError, UnsupportedModeError

LABELS = ("B", "E", "M", "S")  # index order doubles as the tie-break order
_L = {lab: i for i, lab in enumerate(LABELS)}

ALLOWED_NEXT = {
    "B": ("M", "E"),
    "M": ("M", "E"),
    "E": ("B", "S"),
    "S": ("B", "S"),
}
START_LABELS = ("B", "S")
FINAL_LABELS = ("E", "S")
ALLOWED_PAIRS = tuple(
    (a, b) for a in LABELS for b in LABELS if b in ALLOWED_NEXT[a]
)

PAD = "⟨pad⟩"  # ⟨pad⟩


def morphs_to_labels(morphs) -> tuple[str, ...]:
    labels = []
    for m in morphs:
        if len(m) == 1:
            labels.append("S")
        else:
            labels.extend(["B"] + ["M"] * (len(m) - 2) + ["E"])
    return tuple(labels)


def labels_to_morphs(word: str, labels) -> tuple[str, ...]:
    morphs = []
    start = 0
    for i, lab in enumerate(labels):
        if lab in ("E", "S"):
            morphs.append(word[start : i + 1])
            start = i + 1
    return tuple(morphs)


@dataclass
class CrfModel:
    """Feature and transition weights with the window radius they were
    trained for.  Parameters pack feature-major (F x 4 labels) followed by
    the allowed transition pairs; forbidden transitions stay -inf and are
    not parameters."""

    delta: int
    l2: float
    feat_index: dict[tuple[int, str], int]
    weights: np.ndarray  # (F, 4)
    trans: np.ndarray  # (4, 4), -inf on forbidden pairs
    objective_history: list[float] = field(default_factory=list)
    # how L-BFGS ended (scipy's ``nit`` and ``message``); None on a model
    # loaded from a file, which does not store them
    nit: int | None = None
    stop_message: str | None = None

    @classmethod
    def zeros(cls, delta: int, l2: float, feat_index) -> "CrfModel":
        trans = np.full((4, 4), -np.inf)
        for a, b in ALLOWED_PAIRS:
            trans[_L[a], _L[b]] = 0.0
        return cls(
            delta=delta,
            l2=l2,
            feat_index=dict(feat_index),
            weights=np.zeros((len(feat_index), 4)),
            trans=trans,
        )

    def packed(self) -> np.ndarray:
        pairs = [self.trans[_L[a], _L[b]] for a, b in ALLOWED_PAIRS]
        return np.concatenate([self.weights.ravel(), np.asarray(pairs)])

    def set_packed(self, vec: np.ndarray) -> None:
        nfeat = len(self.feat_index)
        self.weights = vec[: nfeat * 4].reshape(nfeat, 4).copy()
        for k, (a, b) in enumerate(ALLOWED_PAIRS):
            self.trans[_L[a], _L[b]] = vec[nfeat * 4 + k]


# decoding and the training table take the words of one length in chunks
# of at most this many character positions, so their arrays stay small
# however many words share a length
_CHUNK_POSITIONS = 1 << 14


def _batches(words: list[str]):
    """``words`` in chunks of one length: yields ``(indices, group)``, the
    positions in ``words`` of one chunk and those words.  Lengths come in
    first-seen order and words in input order; a chunk holds at most
    ``_CHUNK_POSITIONS`` characters, or one longer word."""
    by_length: dict[int, list[int]] = {}
    for k, word in enumerate(words):
        if not word:
            raise DataError("cannot decode an empty word")
        by_length.setdefault(len(word), []).append(k)
    for n, members in by_length.items():
        size = max(1, _CHUNK_POSITIONS // n)
        for k in range(0, len(members), size):
            indices = members[k : k + size]
            yield indices, [words[i] for i in indices]


def _pad_offsets(model: CrfModel) -> list[int]:
    """The offsets ``o`` of the ``(o, PAD)`` features the model knows,
    ascending; found among the model's features, so a huge window radius
    costs nothing here."""
    return sorted(o for o, content in model.feat_index if content == PAD)


def _substrings(words: list[str], max_length: int):
    """Integer codes of the substrings of ``words``, which all have one
    length ``n``.  Yields ``(codes, distinct)`` for each length
    ``1..max_length`` in turn: ``codes[w, a]`` numbers the substring of
    that length starting at ``a`` in ``words[w]``, and ``distinct[code]``
    is its text."""
    count, n = len(words), len(words[0])
    key = np.frombuffer(
        "".join(words).encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    ).reshape(count, n)
    for length in range(1, max_length + 1):
        if length > 1:
            # a substring is the one a character shorter plus its last character
            key = codes[:, :-1] * nchars + char_codes[:, length - 1 :]
        span = n - length + 1
        _, first, inverse = np.unique(key.ravel(), return_index=True, return_inverse=True)
        codes = inverse.reshape(count, span)
        w, a = np.divmod(first, span)
        distinct = [words[x][y : y + length] for x, y in zip(w.tolist(), a.tolist())]
        if length == 1:
            char_codes, nchars = codes, len(distinct)
        yield codes, distinct


def _window_slots(words: list[str], delta: int, pad_offsets, ids, fill: int) -> np.ndarray:
    """The window feature ids of every position of ``words``, which all
    have one length ``n``, as a ``(words * n, slots)`` array.

    The window features of position ``i`` are ``(o, c)`` for each offset
    ``o`` in ``-delta..delta``, with ``c`` the character at ``i + o`` or
    :data:`PAD` outside the word, then ``(a - i, s)`` for each substring
    ``s`` of length ``2..delta`` starting at ``a`` that lies inside both
    the window ``[i - delta, i + delta]`` and the word, by length and then
    start ascending.  Row ``w * n + i`` holds their ids in that order, one
    slot each; ``ids(r, texts)`` gives the ids of the features ``(r, s)``
    for the ``s`` in ``texts``, and a slot whose substring does not fit in
    the word reads ``fill``.  Only offsets that a word of length ``n`` can
    reach get a slot, plus the offsets in ``pad_offsets`` farther out,
    whose ``(offset, PAD)`` features every position has.
    """
    count, n = len(words), len(words[0])
    reach = min(delta, n - 1)
    # the start offsets of each substring length 1..min(delta, n)
    offsets = [[o for o in pad_offsets if o < -reach] + list(range(-reach, reach + 1))
               + [o for o in pad_offsets if o > reach]]
    offsets += [range(max(-delta, 1 - n), min(delta - length + 1, n - length) + 1)
                for length in range(2, min(delta, n) + 1)]
    width = sum(map(len, offsets))
    slots = np.full((count, n, width), fill, dtype=np.intp)
    k = 0
    for length, (rs, (codes, distinct)) in enumerate(
            zip(offsets, _substrings(words, len(offsets))), 1):
        for r in rs:
            # positions i whose substring starts inside the word: 0 <= i + r <= n - length
            lo = min(n, max(0, -r))
            hi = max(lo, min(n, n - length + 1 - r))
            if length == 1:
                slots[:, :lo, k] = slots[:, hi:, k] = ids(r, [PAD])[0]
            if lo < hi:
                slots[:, lo:hi, k] = np.array(ids(r, distinct), dtype=np.intp)[
                    codes[:, lo + r : hi + r]]
            k += 1
    return slots.reshape(count * n, width)


def _feature_slots(model: CrfModel, words: list[str], pad_offsets: list[int]) -> np.ndarray:
    """:func:`_window_slots` with the model's feature ids and window
    radius, ``pad_offsets`` as :func:`_pad_offsets` finds them.  A feature
    the model does not know, or a substring that does not fit in the word,
    reads ``len(model.feat_index)``."""
    index = model.feat_index
    unknown = len(index)
    return _window_slots(words, model.delta, pad_offsets,
                         lambda r, texts: [index.get((r, s), unknown) for s in texts], unknown)


def _number_features(words: list[str], delta: int) -> dict[tuple[int, str], int]:
    """The window features of ``words`` (see :func:`_window_slots`), each
    numbered by where it is first seen: word, then position, then slot."""
    provisional: dict[tuple[int, str], int] = {}

    def ids(r, texts):
        return [provisional.setdefault((r, s), len(provisional)) for s in texts]

    # every offset, so each row holds all its position's window features
    pads = range(-delta, delta + 1)
    tables = [(indices, _window_slots(group, delta, pads, ids, -1))
              for indices, group in _batches(words)]
    # the tables' rows back in word order, each word's positions in turn
    starts = np.cumsum([0] + [len(word) for word in words])
    width = max((t.shape[1] for _, t in tables), default=0)
    table = np.full((starts[-1], width), -1, dtype=np.intp)
    for indices, t in tables:
        rows = starts[indices][:, None] + np.arange(len(t) // len(indices))
        table[rows.ravel(), : t.shape[1]] = t
    seen = table[table >= 0]
    first = np.unique(seen, return_index=True)[1]
    keys = list(provisional)
    return {keys[p]: k for k, p in enumerate(seen[np.sort(first)].tolist())}


def _extended(weights: np.ndarray) -> np.ndarray:
    """``weights`` with a zero row appended: the row of an unknown feature."""
    return np.vstack([weights, np.zeros((1, 4))])


def _emission_sums(extended: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Each row's emission scores: its slots' weight rows added one after
    another in slot order, as ``weights[ids].sum(axis=0)`` adds them;
    adding the zero row of an unknown feature changes no bit."""
    scores = extended[slots[:, 0]]
    for k in range(1, slots.shape[1]):
        scores += extended[slots[:, k]]
    return scores


def _emission_scores(model: CrfModel, word: str) -> np.ndarray:
    slots = _feature_slots(model, [word], _pad_offsets(model))
    return _emission_sums(_extended(model.weights), slots)


_START_MASK = np.array([0.0 if l in START_LABELS else -np.inf for l in LABELS])
_FINAL_MASK = np.array([0.0 if l in FINAL_LABELS else -np.inf for l in LABELS])


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(x)))`` along ``axis``; a slice that is all -inf gives -inf."""
    top = np.max(x, axis=axis, keepdims=True)
    top[np.isneginf(top)] = 0.0
    with np.errstate(divide="ignore"):
        total = np.log(np.sum(np.exp(x - top), axis=axis))
    return total + np.squeeze(top, axis=axis)


def forward_backward(scores: np.ndarray, start: np.ndarray, trans: np.ndarray,
                     final: np.ndarray):
    """Log-space forward and backward values of a ``(chains, length, 4)``
    batch of label scores, and each chain's log partition value; ``start``
    and ``final`` score each label opening and closing a chain (-inf
    forbids).  The crf's BMES chain and flatcat's category chain run here."""
    n = scores.shape[1]
    alpha = np.empty_like(scores)
    beta = np.empty_like(scores)
    alpha[:, 0] = scores[:, 0] + start
    for i in range(1, n):
        alpha[:, i] = scores[:, i] + _logsumexp(alpha[:, i - 1, :, None] + trans, axis=1)
    beta[:, -1] = final
    for i in range(n - 2, -1, -1):
        beta[:, i] = _logsumexp(trans + (scores[:, i + 1] + beta[:, i + 1])[:, None, :], axis=2)
    log_z = _logsumexp(alpha[:, -1] + final, axis=1)
    return alpha, beta, log_z


def transition_counts(scores, trans, alpha, beta, log_z) -> np.ndarray:
    """The expected ``(4, 4)`` label-pair counts of a batch, summed over its
    chains and adjacent positions, from :func:`forward_backward`'s values."""
    # log marginals of each adjacent label pair, (chains, n - 1, 4, 4)
    xi = alpha[:, :-1, :, None] + trans + (scores[:, 1:] + beta[:, 1:])[:, :, None, :]
    return np.exp(xi - log_z[:, None, None, None]).sum(axis=(0, 1))


def marginals(model: CrfModel, word: str):
    """Per-position label marginals and the sequence partition value."""
    alpha, beta, log_z = forward_backward(
        _emission_scores(model, word)[None], _START_MASK, model.trans, _FINAL_MASK
    )
    return np.exp(alpha[0] + beta[0] - log_z[0]), log_z[0]


def _length_groups(model: CrfModel, dataset: SegmentationDataset):
    """The dataset's words grouped by exact length, behind one slot table.

    Returns ``(slots, groups)``.  ``slots`` holds the :func:`_feature_slots`
    row of every character position, laid out group by group (lengths
    ascending), word by word, each padded on the right with the unknown id
    up to the widest row.  Each group is ``(start, gold)``: its first row
    in ``slots`` and its ``(words, length)`` array of gold label ids.
    """
    entries = sorted(dataset.entries, key=lambda entry: len(entry.surface))
    words = [entry.surface for entry in entries]
    pads = _pad_offsets(model)
    tables = [_feature_slots(model, group, pads) for _, group in _batches(words)]
    gold = np.array([_L[l] for entry in entries for l in morphs_to_labels(entry.morphs)],
                    dtype=np.intp)
    groups = []
    start = 0
    for n, count in Counter(map(len, words)).items():
        groups.append((start, gold[start : start + count * n].reshape(count, n)))
        start += count * n
    width = max((t.shape[1] for t in tables), default=1)
    slots = np.full((start, width), len(model.feat_index), dtype=np.intp)
    row = 0
    for t in tables:
        slots[row : row + len(t), : t.shape[1]] = t
        row += len(t)
    return slots, groups


def log_likelihood_and_gradient(model: CrfModel, dataset: SegmentationDataset, table=None):
    """Regularized conditional log-likelihood and its gradient.

    Returns ``(ll, grad)`` with ``grad`` packed like ``model.packed()``:
    empirical minus expected feature counts, minus the l2 term.  Words of
    one length run through the forward-backward together.  ``table`` is
    the :func:`_length_groups` table of ``model`` and ``dataset``, built
    here when not given; it depends on the model only through its
    features, so training builds it once per fit.
    """
    slots, groups = _length_groups(model, dataset) if table is None else table
    scores = _emission_sums(_extended(model.weights), slots)  # (positions, 4)
    residual = np.empty_like(scores)  # gold one-hot minus label marginals
    grad_t = np.zeros((4, 4))
    ll = 0.0
    for start, gold in groups:
        words, n = gold.shape
        stop = start + gold.size
        group_scores = scores[start:stop].reshape(words, n, 4)
        alpha, beta, log_z = forward_backward(group_scores, _START_MASK, model.trans,
                                              _FINAL_MASK)
        prev, nxt = gold[:, :-1], gold[:, 1:]
        ll += np.take_along_axis(group_scores, gold[..., None], axis=2).sum()
        ll += model.trans[prev, nxt].sum() - log_z.sum()

        gamma = np.exp(alpha + beta - log_z[:, None, None])
        residual[start:stop] = -gamma.reshape(-1, 4)
        residual[np.arange(start, stop), gold.ravel()] += 1.0

        grad_t += np.bincount((prev * 4 + nxt).ravel(), minlength=16).reshape(4, 4)
        grad_t -= transition_counts(group_scores, model.trans, alpha, beta, log_z)
    # one bincount per label over every slot in row order, less the unknown id's bin
    ids, width, bins = slots.ravel(), slots.shape[1], len(model.feat_index) + 1
    grad_w = np.stack([np.bincount(ids, np.repeat(r, width), bins)[:-1] for r in residual.T],
                      axis=1)

    packed = model.packed()
    ll -= 0.5 * model.l2 * float(packed @ packed)
    grad = np.concatenate(
        [grad_w.ravel(), np.asarray([grad_t[_L[a], _L[b]] for a, b in ALLOWED_PAIRS])]
    )
    grad -= model.l2 * packed
    return ll, grad


def train_crf(
    dataset: SegmentationDataset,
    delta: int = 3,
    l2: float = 0.01,
    max_iters: int = 200,
    tol: float = 1e-5,
) -> CrfModel:
    """Fit the CRF by quasi-Newton ascent on the regularized likelihood.

    Only surface-mode data is supported: canonical analyses do not define a
    character labeling.  The features are those of the training words,
    numbered by :func:`_number_features`.
    """
    if dataset.mode != SURFACE:
        raise UnsupportedModeError(
            "CRF training requires surface-mode data, got %r" % (dataset.mode,)
        )
    if delta < 1:
        raise ConfigError("window radius delta must be at least 1, got %d" % (delta,))
    if not (math.isfinite(l2) and l2 >= 0):
        raise ConfigError("l2 weight must be finite and at least 0, got %r" % (l2,))
    if max_iters < 1:
        raise ConfigError("max_iters must be at least 1, got %r" % (max_iters,))
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError("tol must be finite and at least 0, got %r" % (tol,))
    feat_index = _number_features([entry.surface for entry in dataset.entries], delta)
    model = CrfModel.zeros(delta, l2, feat_index)
    table = _length_groups(model, dataset)

    history: list[float] = []

    def objective(vec):
        model.set_packed(vec)
        # through the module attribute, which the benchmark's trace wraps
        ll, grad = log_likelihood_and_gradient(model, dataset, table)
        return -ll, -grad

    def record(intermediate_result):
        history.append(-intermediate_result.fun)

    result = minimize(
        objective,
        model.packed(),
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={"maxiter": max_iters, "gtol": tol, "ftol": 0.0},
    )
    model.set_packed(result.x)
    model.objective_history = history
    model.nit = int(result.nit)
    model.stop_message = str(result.message)
    return model


def _viterbi(scores: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """The best label ids of a ``(words, length, 4)`` batch of same-length
    words; among equal-scoring sequences the lexicographically first under
    B < E < M < S wins."""
    count, n, _ = scores.shape
    # suffix-best values let reconstruction run front-to-back, which makes
    # the lexicographic tie-break exact
    suffix = np.empty_like(scores)
    suffix[:, -1] = scores[:, -1] + _FINAL_MASK
    for i in range(n - 2, -1, -1):
        suffix[:, i] = scores[:, i] + np.max(trans + suffix[:, i + 1, None, :], axis=2)

    # the best label at each position after each previous label, (words,
    # 4, n - 1); forbidden starts and transitions are -inf in the mask and
    # in trans, and argmax takes the first of equal maxima
    best_next = np.argmax(trans[None, :, None, :] + suffix[:, None, 1:], axis=3)
    labels = np.empty((count, n), dtype=np.intp)
    labels[:, 0] = np.argmax(_START_MASK + suffix[:, 0], axis=1)
    rows = np.arange(count)
    for i in range(n - 1):
        labels[:, i + 1] = best_next[rows, labels[:, i], i]
    return labels


def segment_words(model: CrfModel, words) -> list[tuple[str, ...]]:
    """The morphs of each of ``words`` under Viterbi decoding, in input
    order; among equal-scoring sequences the lexicographically first under
    B < E < M < S wins.  Words of one length are decoded together."""
    words = list(words)
    extended = _extended(model.weights)
    pads = _pad_offsets(model)
    out: list = [None] * len(words)
    for indices, group in _batches(words):
        scores = _emission_sums(extended, _feature_slots(model, group, pads))
        labels = _viterbi(scores.reshape(len(group), -1, 4), model.trans)
        for k, word, row in zip(indices, group, labels.tolist()):
            out[k] = labels_to_morphs(word, [LABELS[j] for j in row])
    return out


def decode(model: CrfModel, word: str) -> SegmentedWord:
    """Viterbi decoding of one word (see :func:`segment_words`)."""
    return SegmentedWord(word, segment_words(model, [word])[0], mode=SURFACE)


# -- model files -------------------------------------------------------------


def save_model(model: CrfModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("crf v1 %d %s\n" % (model.delta, repr(model.l2)))
        inv = sorted(model.feat_index.items(), key=lambda kv: kv[1])
        for (offset, content), idx in inv:
            for j, lab in enumerate(LABELS):
                w = model.weights[idx, j]
                if w != 0.0:
                    f.write("%d:%s\t%s\t%s\n" % (offset, content, lab, repr(float(w))))
        f.write("transitions:\n")
        for a, b in ALLOWED_PAIRS:
            f.write("%s\t%s\t%s\n" % (a, b, repr(float(model.trans[_L[a], _L[b]]))))


def _feature_key(text: str) -> tuple[int, str]:
    offset, content = text.split(":", 1)
    return int(offset), content


def _delta(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("window radius below 1")
    return value


def _l2(text: str) -> float:
    value = modelfile.finite(text)
    if value < 0:
        raise ValueError("negative l2 weight")
    return value


_labels = modelfile.each(_L.__getitem__)


def load_model(path) -> CrfModel:
    (delta, l2), sections = modelfile.read(
        path, "crf", (_delta, _l2),
        {"features": (modelfile.once(_feature_key), _labels, modelfile.finites),
         "transitions": (_labels, _labels, modelfile.finites)},
    )
    features, transitions = sections["features"], sections["transitions"]
    keys, labels, weights = features.columns
    # aliases such as 3:x and +3:x parse to one key, so to one weight row
    feat_index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    rows = np.fromiter(map(feat_index.__getitem__, keys), dtype=np.intp, count=len(keys))
    labels = np.array(labels, dtype=np.intp)
    modelfile.unique(path, features.lines, (rows * 4 + labels).tolist(), "feature row")
    modelfile.unique(path, transitions.lines, list(zip(*transitions.columns[:2])),
                     "transition")
    model = CrfModel.zeros(delta, l2, feat_index)
    model.weights[rows, labels] = weights
    for lineno, a, b, w in zip(transitions.lines, *transitions.columns):
        # decode and the likelihood read -inf in trans as a forbidden pair
        if model.trans[a, b] == -np.inf:
            raise ParseError("%s:%d: transition %s->%s is not allowed"
                             % (path, lineno, LABELS[a], LABELS[b]))
        model.trans[a, b] = w
    # save_model always writes it; a file cut short loses it from the end
    if not transitions.opened:
        raise ParseError("%s:1: crf model has no transitions: line" % (path,))
    return model
