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

from . import modelfile
from .chain import Packing, batches, code_points, forward_backward, transition_counts
from .corpus import SURFACE, SegmentationDataset, SegmentedWord
from .errors import ConfigError, ParseError, UnsupportedModeError

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

# the largest window radius of any model, trained, loaded or built: its
# slot table gives every character position 2 * delta + 1 offset slots
MAX_DELTA = 64


def _check_delta(delta: int) -> None:
    if not 1 <= delta <= MAX_DELTA:
        raise ConfigError("window radius delta must be between 1 and %d, got %d"
                          % (MAX_DELTA, delta))


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
    # how L-BFGS ended (iterations taken and stop message); None on a model
    # loaded from a file, which does not store them
    nit: int | None = None
    stop_message: str | None = None

    def __post_init__(self) -> None:
        _check_delta(self.delta)

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


def _substrings(words: list[str], max_length: int):
    """Integer codes of the substrings of ``words``, which all have one
    length ``n``.  Yields ``(codes, distinct)`` for each length
    ``1..max_length`` in turn: ``codes[w, a]`` numbers the substring of
    that length starting at ``a`` in ``words[w]``, and ``distinct[code]``
    is its text."""
    count, n = len(words), len(words[0])
    key = code_points(words, n)
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


def _window_slots(words: list[str], delta: int, ids, fill: int) -> np.ndarray:
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
    the word reads ``fill``.  The layout depends only on ``delta`` and
    ``n``, so a feature outside the window has no slot.
    """
    count, n = len(words), len(words[0])
    # the start offsets of each substring length 1..min(delta, n)
    offsets = [range(-delta, delta + 1)]
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


def _feature_slots(model: CrfModel, words: list[str]) -> np.ndarray:
    """:func:`_window_slots` with the model's feature ids and window
    radius.  A feature the model does not know, or a substring that does
    not fit in the word, reads ``len(model.feat_index)``."""
    index = model.feat_index
    unknown = len(index)
    return _window_slots(words, model.delta,
                         lambda r, texts: [index.get((r, s), unknown) for s in texts], unknown)


def _number_features(words: list[str], delta: int) -> dict[tuple[int, str], int]:
    """The window features of ``words`` (see :func:`_window_slots`), each
    numbered by where it is first seen: word, then position, then slot."""
    provisional: dict[tuple[int, str], int] = {}

    def ids(r, texts):
        return [provisional.setdefault((r, s), len(provisional)) for s in texts]

    tables = [(indices, _window_slots(group, delta, ids, -1))
              for indices, group in batches(words)]
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


_START_MASK = np.array([0.0 if l in START_LABELS else -np.inf for l in LABELS])
_FINAL_MASK = np.array([0.0 if l in FINAL_LABELS else -np.inf for l in LABELS])


def marginals(model: CrfModel, word: str):
    """Per-position label marginals and the sequence partition value."""
    scores = _emission_sums(_extended(model.weights), _feature_slots(model, [word]))
    alpha, beta, log_z = forward_backward(scores, Packing([len(word)]), _START_MASK,
                                          model.trans, _FINAL_MASK)
    return np.exp(alpha + beta - log_z[0]), log_z[0]


def _length_groups(model: CrfModel, dataset: SegmentationDataset):
    """The dataset's words grouped by exact length, behind one slot table.

    Returns ``(slots, groups, packing)``.  ``slots`` holds the
    :func:`_feature_slots` row of every character position, laid out group
    by group (lengths ascending), word by word, each padded on the right
    with the unknown id up to the widest row.  Each group is ``(start,
    gold)``: its first row in ``slots`` and its ``(words, length)`` array of
    gold label ids.  ``packing`` is the :class:`~polyseg.chain.Packing` of
    the words in that order.
    """
    entries = sorted(dataset.entries, key=lambda entry: len(entry.surface))
    words = [entry.surface for entry in entries]
    tables = [_feature_slots(model, group) for _, group in batches(words)]
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
    return slots, groups, Packing(list(map(len, words)))


def log_likelihood_and_gradient(model: CrfModel, dataset: SegmentationDataset, table=None):
    """Regularized conditional log-likelihood and its gradient.

    Returns ``(ll, grad)`` with ``grad`` packed like ``model.packed()``:
    empirical minus expected feature counts, minus the l2 term.  Words of
    every length run through one forward-backward; the sums then run
    length group by length group.  ``table`` is the :func:`_length_groups`
    table of ``model`` and ``dataset``, built here when not given; it
    depends on the model only through its features, so training builds it
    once per fit.
    """
    slots, groups, packing = _length_groups(model, dataset) if table is None else table
    scores = _emission_sums(_extended(model.weights), slots)  # (positions, 4)
    alpha, beta, log_z = forward_backward(scores, packing, _START_MASK, model.trans, _FINAL_MASK)
    # gold one-hot minus label marginals
    residual = -np.exp(alpha + beta - log_z[packing.chain][:, None])
    grad_t = np.zeros((4, 4))
    ll = 0.0
    first = 0  # the group's first word
    for start, gold in groups:
        words, n = gold.shape
        rows = slice(start, start + gold.size)
        group_z = log_z[first : first + words]
        first += words
        group_scores = scores[rows].reshape(words, n, 4)
        prev, nxt = gold[:, :-1], gold[:, 1:]
        ll += np.take_along_axis(group_scores, gold[..., None], axis=2).sum()
        ll += model.trans[prev, nxt].sum() - group_z.sum()
        residual[np.arange(rows.start, rows.stop), gold.ravel()] += 1.0

        grad_t += np.bincount((prev * 4 + nxt).ravel(), minlength=16).reshape(4, 4)
        grad_t -= transition_counts(group_scores, model.trans, alpha[rows].reshape(words, n, 4),
                                    beta[rows].reshape(words, n, 4), group_z)
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


# L-BFGS: curvature pairs kept, the Armijo constant, and how many times
# a step may be halved before the line search gives up
_PAIRS = 10
_ARMIJO = 1e-4
_HALVINGS = 60
CONVERGED = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
ITERATION_LIMIT = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
NO_DECREASE = "ABNORMAL: LINE SEARCH FOUND NO DECREASE"


def _lbfgs(fun, x: np.ndarray, max_iters: int, tol: float):
    """Minimise ``fun`` from ``x`` by limited-memory BFGS.

    ``fun(x)`` returns ``(f, grad)``.  The direction comes from the
    two-loop recursion over the last ``_PAIRS`` curvature pairs, each kept
    only when ``s . y > 0``; a backtracking search halves the step until
    the Armijo condition holds, from ``1 / |d|`` on the first iteration
    and 1 after.  It stops when ``max |grad| <= tol``, which is tested
    before the iteration cap, so it wins when both hold.  Every reduction
    is an elementwise product summed by numpy, not a BLAS call, so the
    result does not depend on the BLAS thread count.  Returns ``(x,
    values, message)``: the final point, ``f`` after each iteration, and
    why it stopped.
    """
    f, g = fun(x)
    values: list[float] = []
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, 1 / s.y)
    while not np.abs(g).max() <= tol:  # a NaN gradient never passes
        if len(values) == max_iters:
            return x, values, ITERATION_LIMIT
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s * d).sum())
            d -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            d *= (s * y).sum() / (y * y).sum()
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - rho * (y * d).sum()) * s
        slope = (g * d).sum()
        step = 1.0 if values else 1.0 / math.sqrt((d * d).sum())
        for _ in range(_HALVINGS):
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            if f_new <= f + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            return x, values, NO_DECREASE
        s, y = x_new - x, g_new - g
        sy = (s * y).sum()
        if sy > 0:  # the newest _PAIRS pairs
            pairs = pairs[1 - _PAIRS :] + [(s, y, 1.0 / sy)]
        x, f, g = x_new, f_new, g_new
        values.append(f)
    return x, values, CONVERGED


def train_crf(
    dataset: SegmentationDataset,
    delta: int = 3,
    l2: float = 0.01,
    max_iters: int = 200,
    tol: float = 1e-5,
) -> CrfModel:
    """Fit the CRF by quasi-Newton ascent (:func:`_lbfgs`) on the
    regularized likelihood.

    Only surface-mode data is supported: canonical analyses do not define a
    character labeling.  The features are those of the training words,
    numbered by :func:`_number_features`.
    """
    if dataset.mode != SURFACE:
        raise UnsupportedModeError(
            "CRF training requires surface-mode data, got %r" % (dataset.mode,)
        )
    _check_delta(delta)  # before any feature is numbered
    if not (math.isfinite(l2) and l2 >= 0):
        raise ConfigError("l2 weight must be finite and at least 0, got %r" % (l2,))
    if max_iters < 1:
        raise ConfigError("max_iters must be at least 1, got %r" % (max_iters,))
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError("tol must be finite and at least 0, got %r" % (tol,))
    feat_index = _number_features([entry.surface for entry in dataset.entries], delta)
    model = CrfModel.zeros(delta, l2, feat_index)
    table = _length_groups(model, dataset)

    def objective(vec):
        model.set_packed(vec)
        # through the module attribute, which the benchmark's trace wraps
        ll, grad = log_likelihood_and_gradient(model, dataset, table)
        return -ll, -grad

    x, values, message = _lbfgs(objective, model.packed(), max_iters, tol)
    model.set_packed(x)
    model.objective_history = [-v for v in values]
    model.nit = len(values)
    model.stop_message = message
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
    out: list = [None] * len(words)
    for indices, group in batches(words):
        scores = _emission_sums(extended, _feature_slots(model, group))
        labels = _viterbi(scores.reshape(len(group), -1, 4), model.trans)
        for k, word, row in zip(indices, group, labels.tolist()):
            out[k] = labels_to_morphs(word, [LABELS[j] for j in row])
    return out


def decode(model: CrfModel, word: str) -> SegmentedWord:
    """Viterbi decoding of one word (see :func:`segment_words`)."""
    return SegmentedWord(word, segment_words(model, [word])[0], mode=SURFACE)


# -- model files -------------------------------------------------------------


def save_model(model: CrfModel, path) -> None:
    weights, trans = model.weights.tolist(), model.trans.tolist()
    features = (("%d:%s" % key, label, repr(w))
                for key, idx in sorted(model.feat_index.items(), key=lambda kv: kv[1])
                for label, w in zip(LABELS, weights[idx]) if w != 0.0)
    transitions = [(a, b, repr(trans[_L[a]][_L[b]])) for a, b in ALLOWED_PAIRS]
    modelfile.write(path, "crf", ("%d" % model.delta, repr(model.l2)),
                    {"features": features, "transitions": transitions})


def _feature_key(text: str) -> tuple[int, str]:
    offset, content = text.split(":", 1)
    return int(offset), content


def _l2(text: str) -> float:
    value = modelfile.finite(text)
    if value < 0:
        raise ValueError("negative l2 weight")
    return value


_labels = modelfile.each(_L.__getitem__)


def load_model(path) -> CrfModel:
    (delta, l2), sections = modelfile.read(
        path, "crf", (int, _l2),
        {"features": (modelfile.once(_feature_key), _labels, modelfile.finites),
         "transitions": (_labels, _labels, modelfile.finites)},
    )
    try:
        _check_delta(delta)
    except ConfigError as exc:
        raise ParseError("%s:1: %s" % (path, exc)) from None
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
