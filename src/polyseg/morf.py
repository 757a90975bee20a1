"""Unsupervised morphological segmentation by description-length minimization.

Three variants share one lexicon model:

* ``baseline`` greedily re-splits word types, accepting only cost-lowering
  analyses, until an epoch improves the total code length by less than
  ``epsilon`` nats.
* ``lmvr`` trains on token counts instead of dampened types and enforces a
  hard cap on the effective lexicon size (character inventory plus active
  multi-character morphs).
* ``flatcat`` refines a trained baseline with an EM-trained hidden Markov
  model over morph categories (prefix / stem / suffix / non-morpheme) and
  re-segments through a joint split-and-category lattice.

The total cost is ``corpus_cost + alpha * lexicon_cost`` where the corpus
cost is the maximum-likelihood code length of the morph tokens and the
lexicon cost spells each lexicon entry with a uniform character model over
the alphabet plus an end-of-morph marker.  The lexicon-ordering correction
used by some description-length segmenters is deliberately omitted so the
cost is an exact, testable function of the lexicon state.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import modelfile
from .chain import Packing, SpanIndex, batches, forward_backward, transition_counts
from .corpus import check_word_counts
from .errors import ConfigError, DataError, NumericError, ParseError

BASELINE = "baseline"
LMVR = "lmvr"
FLATCAT = "flatcat"

CATEGORIES = ("PRE", "STM", "SUF", "NON")
START_CATS = ("PRE", "STM")
FINAL_CATS = ("STM", "SUF")
ALLOWED_NEXT = {
    "PRE": ("PRE", "STM"),
    "STM": ("PRE", "STM", "SUF", "NON"),
    "SUF": ("PRE", "STM", "SUF", "NON"),
    "NON": ("PRE", "STM", "NON"),
}

_EPS_AFFINITY = 1e-3
_NEG_INF = float("-inf")
_FINAL_MASK = np.array([0.0 if c in FINAL_CATS else _NEG_INF for c in CATEGORIES])


@dataclass
class CategoryModel:
    """HMM parameters over morph categories.

    ``start`` is a distribution over categories that may open a word and
    ``trans[c]`` one over the allowed successors of ``c``; word-final
    legality (stem or suffix) is structural and carries no probability.
    All values are natural-log probabilities; forbidden transitions are
    absent from the tables and read as -inf.  The tables are read-only once
    a word has been decoded, because ``_lattice_tables`` is built from them
    then.
    """

    start: dict[str, float]
    trans: dict[str, dict[str, float]]
    emit: dict[str, dict[str, float]]

    def trans_logp(self, prev: str, nxt: str) -> float:
        return self.trans.get(prev, {}).get(nxt, _NEG_INF)

    def start_logp(self, cat: str) -> float:
        return self.start.get(cat, _NEG_INF)

    def emit_logp(self, cat: str, morph: str) -> float:
        return self.emit.get(cat, {}).get(morph, _NEG_INF)

    @cached_property
    def _lattice_tables(self):
        """``(spans, emit, steps, final)`` for :func:`_lattice`,
        categories in CATEGORIES order: the tables of
        :func:`_category_arrays`, negated.

        ``spans`` is the :class:`~polyseg.chain.SpanIndex` of ``ids``,
        which numbers every emitted morph, and row ``ids[m]`` of the
        ``(len(ids) + 1, 4)`` array ``emit`` holds its costs ``-logp``, inf
        where a category gives it no mass; the last row, for any other
        morph, is all inf.  ``steps[p, c]`` is the cost ``-logp`` of ``c``
        after ``p``, ``steps[4, c]`` of ``c`` opening a word and
        ``final[c]`` of ``c`` ending one (0); inf where that is forbidden.
        """
        morphs = list(dict.fromkeys(m for table in self.emit.values() for m in table))
        emit, start, trans = _category_arrays(self, morphs)
        emit = np.vstack([-emit.T, np.full((1, 4), math.inf)])
        spans = SpanIndex({m: i for i, m in enumerate(morphs)})
        final = np.where(_FINAL_MASK < 0, math.inf, 0.0)
        return spans, emit, -np.vstack([trans, start]), final


@dataclass
class MorfModel:
    """Morph lexicon with counts, shared by all variants.

    ``lexicon`` maps each morph to its token count under the training
    segmentation; ``alphabet`` is the plain character inventory (the
    end-of-morph marker is accounted for as one extra uniform symbol).
    """

    lexicon: Counter
    alphabet: frozenset[str]
    alpha: float = 1.0
    variant: str = BASELINE
    max_lexicon_size: int | None = None
    categories: CategoryModel | None = None
    analyses: dict[str, tuple[str, ...]] = field(default_factory=dict)
    cost_history: list[float] = field(default_factory=list)
    ll_history: list[float] = field(default_factory=list)

    @property
    def total_tokens(self) -> int:
        return sum(self.lexicon.values())

    @classmethod
    def from_segmentations(
        cls,
        analyses: dict[str, tuple[str, ...]],
        word_counts: dict[str, int] | None = None,
        alpha: float = 1.0,
        variant: str = BASELINE,
    ) -> "MorfModel":
        """Build a model directly from fixed segmentations (tests, refinement).
        ``word_counts``, or a count of 1 for every analysed word, must pass
        :func:`~polyseg.corpus.check_word_counts`, so the model saves and
        loads back unchanged."""
        check_word_counts(dict.fromkeys(analyses, 1) if word_counts is None else word_counts)
        lexicon = Counter()
        for word, morphs in analyses.items():
            if "".join(morphs) != word:
                raise DataError("analysis %s does not spell %r" % (list(morphs), word))
            weight = 1 if word_counts is None else word_counts[word]
            for m in morphs:
                lexicon[m] += weight
        alphabet = frozenset(ch for word in analyses for ch in word)
        return cls(
            lexicon=lexicon,
            alphabet=alphabet,
            alpha=alpha,
            variant=variant,
            analyses=dict(analyses),
        )


@dataclass(frozen=True)
class MdlCost:
    corpus_cost: float
    lexicon_cost: float
    total: float


def mdl_cost(model: MorfModel) -> MdlCost:
    """Recompute the description length from the model state alone.

    Every lexicon entry pays its spelling cost, including entries whose
    count happens to be zero; only positive counts contribute corpus cost.
    """
    total_tokens = model.total_tokens
    corpus = 0.0
    if total_tokens > 0:
        log_total = math.log(total_tokens)
        corpus = sum(c * (log_total - math.log(c)) for c in model.lexicon.values() if c > 0)
    per_symbol = math.log(len(model.alphabet) + 1)
    lex = sum((len(m) + 1) * per_symbol for m in model.lexicon)
    return MdlCost(corpus_cost=corpus, lexicon_cost=lex, total=corpus + model.alpha * lex)


def check_alpha(alpha: float) -> None:
    """Reject an ``alpha`` no model can be trained with: one that is not
    finite, or above ``_MAX_MAGNITUDE`` in magnitude, which ``load_model``
    would refuse."""
    if not math.isfinite(alpha):
        raise ConfigError("alpha must be finite, got %r" % (alpha,))
    if abs(alpha) > _MAX_MAGNITUDE:
        raise ConfigError("alpha %r is above %g in magnitude" % (alpha, _MAX_MAGNITUDE))


class _Trainer:
    """Greedy recursive-split trainer with incremental cost bookkeeping.

    ``word_counts`` have passed :func:`~polyseg.corpus.check_word_counts`
    and are not changed; ``alphabet`` holds their characters.  ``dampening``
    weighs each word by 1 (``"types"``, the baseline) or by its count
    (``"tokens"``, lmvr)."""

    def __init__(self, word_counts, alphabet, alpha, dampening, cap, seed, epsilon, init,
                 max_epochs):
        check_alpha(alpha)
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ConfigError("epsilon must be finite and at least 0, got %r" % (epsilon,))
        self.word_counts = word_counts
        self.alpha = alpha
        self.dampening = dampening
        self.alphabet = alphabet
        if cap is not None and cap < len(self.alphabet):
            raise ConfigError(
                "lexicon cap %d cannot cover the alphabet (%d characters)"
                % (cap, len(self.alphabet))
            )
        self.cap = cap
        self.epsilon = epsilon
        self.max_epochs = max_epochs
        self.rng = random.Random(seed)

        self._counts = Counter()
        self._total = 0
        self._sum_clogc = 0.0  # sum of count*log(count) over the lexicon
        self._lex_symbols = 0  # sum of (len(m)+1) over active morphs
        self._active_multichar = 0
        self._xlogx = [0.0]  # see _xlogx_upto
        self._per_symbol = math.log(len(self.alphabet) + 1)
        self._analyses: dict[str, tuple[str, ...]] = {}
        self._init_analyses(init)
        self.cost_history = [self._tracked_total()]

    # -- incremental bookkeeping -------------------------------------------

    def _weight(self, word: str) -> int:
        return 1 if self.dampening == "types" else self.word_counts[word]

    def _add(self, morph: str, count: int) -> None:
        old = self._counts[morph]
        new = old + count
        self._counts[morph] = new
        if old > 0:
            self._sum_clogc -= old * math.log(old)
        else:
            self._lex_symbols += len(morph) + 1
            if len(morph) > 1:
                self._active_multichar += 1
        self._sum_clogc += new * math.log(new)
        self._total += count

    def _remove(self, morph: str, count: int) -> None:
        old = self._counts[morph]
        new = old - count
        if new < 0:
            raise NumericError("count of %r would go negative" % (morph,))
        self._sum_clogc -= old * math.log(old)
        if new > 0:
            self._counts[morph] = new
            self._sum_clogc += new * math.log(new)
        else:
            del self._counts[morph]
            self._lex_symbols -= len(morph) + 1
            if len(morph) > 1:
                self._active_multichar -= 1
        self._total -= count

    def _tracked_total(self) -> float:
        corpus = 0.0
        if self._total > 0:
            corpus = self._total * math.log(self._total) - self._sum_clogc
        return corpus + self.alpha * self._lex_symbols * self._per_symbol

    def _effective_size(self) -> int:
        return len(self.alphabet) + self._active_multichar

    def _within_cap(self) -> bool:
        return self.cap is None or self._effective_size() <= self.cap

    def _check_sync(self) -> None:
        cost = mdl_cost(self._snapshot())
        tracked = self._tracked_total()
        # rounding grows with the magnitude of the summed terms (~1e-14 of
        # it measured), so the drift allowed does too, down to 1e-6; a
        # non-finite drift (an overflowed cost) always fails
        scale = cost.corpus_cost + abs(self.alpha * cost.lexicon_cost)
        drift = abs(cost.total - tracked)
        if not (math.isfinite(drift) and drift <= max(1e-6, 1e-10 * scale)):
            raise NumericError(
                "tracked cost %.9f drifted from recomputed %.9f (alpha %r)"
                % (tracked, cost.total, self.alpha)
            )

    # -- initialization ----------------------------------------------------

    def _init_analyses(self, init: str) -> None:
        words = sorted(self.word_counts)
        if init == "words":
            plan = {w: (w,) for w in words}
        elif init == "chars":
            plan = {w: tuple(w) for w in words}
        elif init == "random":
            plan = {}
            for w in words:
                bounds = [i for i in range(1, len(w)) if self.rng.random() < 0.5]
                plan[w] = tuple(
                    w[a:b] for a, b in zip([0] + bounds, bounds + [len(w)])
                )
        else:
            raise ConfigError("unknown init %r" % (init,))
        self._install(plan)
        if not self._within_cap():
            # the requested start state busts the cap; characters always fit
            self._uninstall()
            self._install({w: tuple(w) for w in words})

    def _install(self, plan: dict[str, tuple[str, ...]]) -> None:
        for w, morphs in plan.items():
            weight = self._weight(w)
            for m in morphs:
                self._add(m, weight)
            self._analyses[w] = morphs

    def _uninstall(self) -> None:
        for w, morphs in self._analyses.items():
            weight = self._weight(w)
            for m in morphs:
                self._remove(m, weight)
        self._analyses.clear()

    # -- search ------------------------------------------------------------

    def _xlogx_upto(self, k: int) -> list[float]:
        """The table ``[0.0, 1*log(1), 2*log(2), ...]``, grown to cover ``k``;
        entry 0 makes adding or removing a zero count an exact no-op."""
        table = self._xlogx
        if k >= len(table):
            table.extend(j * math.log(j) for j in range(len(table), k + 1))
        return table

    def _resegment(self, construction: str, weight: int) -> tuple[str, ...]:
        """Place ``construction`` (currently uncounted) back into the model,
        recursively choosing between keeping it whole and the best binary
        split; returns the committed morphs.

        Scoring a candidate leaves the running sum ``_sum_clogc`` untouched:
        the sum its morphs would give is computed from the current one in
        ``_add``'s order (for a split into ``x + x`` the second add starts
        from the raised count), and the candidate costs what
        ``_tracked_total`` would read after those adds.  A chosen split is
        committed as add right, recurse into left, remove right, recurse
        into right, so the left half is searched with the right one counted.
        """
        n = len(construction)
        if n == 1:
            self._add(construction, weight)
            return (construction,)

        w = weight
        get = self._counts.get
        cuts = range(1, n)
        lefts = [get(construction[:i], 0) for i in cuts]
        rights = [get(construction[i:], 0) for i in cuts]
        whole = get(construction, 0)
        xlogx = self._xlogx_upto(max(whole, max(lefts), max(rights)) + 2 * w)
        s = self._sum_clogc
        lex = self._lex_symbols
        multichar = self._active_multichar
        alpha = self.alpha
        per_symbol = self._per_symbol
        # the most multi-character morphs the cap admits
        room = None if self.cap is None else self.cap - len(self.alphabet)

        best_cost = math.inf
        best_i = None
        whole_ok = room is None or whole > 0 or multichar + 1 <= room
        if whole_ok:
            t = self._total + w
            added = s - xlogx[whole] + xlogx[whole + w]
            grown = lex if whole > 0 else lex + n + 1
            best_cost = t * math.log(t) - added + alpha * grown * per_symbol

        t = self._total + 2 * w
        corpus_total = t * math.log(t)
        h = n // 2
        twin = h if construction[:h] * 2 == construction else 0  # split into x + x
        fallback_cost = math.inf
        fallback_i = None
        for i, cl, cr in zip(cuts, lefts, rights):
            grown, grown_multi = lex, multichar
            if cl == 0:
                grown += i + 1
                grown_multi += i > 1
            if i == twin:
                # right is left again: its add starts from the raised count
                cr = cl + w
            elif cr == 0:
                grown += n - i + 1
                grown_multi += n - i > 1
            added = s - xlogx[cl] + xlogx[cl + w] - xlogx[cr] + xlogx[cr + w]
            cost = corpus_total - added + alpha * grown * per_symbol
            if fallback_i is None or cost < fallback_cost:
                fallback_cost, fallback_i = cost, i
            if (room is None or grown_multi <= room) and cost < best_cost - 1e-12:
                best_cost = cost
                best_i = i

        if best_i is None:
            if whole_ok:
                self._add(construction, weight)
                return (construction,)
            # cap forbids both the whole construction and every admissible
            # split at this level: descend through the cheapest split and
            # let deeper levels fall back toward single characters.
            best_i = fallback_i

        left, right = construction[:best_i], construction[best_i:]
        self._add(right, weight)
        lparts = self._resegment(left, weight)
        self._remove(right, weight)
        rparts = self._resegment(right, weight)
        return lparts + rparts

    def _visit(self, word: str) -> None:
        weight = self._weight(word)
        prev = self._analyses[word]
        prev_cost = self._tracked_total()
        for m in prev:
            self._remove(m, weight)
        result = self._resegment(word, weight)
        if self._tracked_total() > prev_cost + 1e-9 or not self._within_cap():
            for m in result:
                self._remove(m, weight)
            for m in prev:
                self._add(m, weight)
        else:
            self._analyses[word] = result
        if not self._within_cap():
            raise NumericError("lexicon cap violated after accepting a move")

    def train(self) -> None:
        words = sorted(self.word_counts)
        for _ in range(self.max_epochs):
            before = self._tracked_total()
            self.rng.shuffle(words)
            for w in words:
                self._visit(w)
            after = self._tracked_total()
            self._check_sync()
            self.cost_history.append(after)
            if before - after < self.epsilon:
                break

    def _snapshot(self) -> MorfModel:
        return MorfModel(
            lexicon=Counter(self._counts),
            alphabet=self.alphabet,
            alpha=self.alpha,
            variant=BASELINE,
            analyses=dict(self._analyses),
        )

    def finish(self, variant: str) -> MorfModel:
        model = self._snapshot()
        model.variant = variant
        model.max_lexicon_size = self.cap
        model.cost_history = list(self.cost_history)
        return model


def _train_restarts(trainer, word_counts, seed: int, restarts: int, **options) -> _Trainer:
    """Run seeded restarts (seed, seed+1, ...) of ``trainer`` on
    ``word_counts`` and keep the cheapest; greedy accept-only-improving
    search depends on its start point, so a few restarts reliably find
    compositional optima single runs can miss.  The counts are checked and
    copied, and their alphabet built, once for all restarts."""
    if restarts < 1:
        raise ConfigError("restarts must be positive")
    check_word_counts(word_counts)
    word_counts = dict(word_counts)
    alphabet = frozenset(ch for w in word_counts for ch in w)
    best = None
    best_cost = math.inf
    for k in range(restarts):
        candidate = trainer(word_counts, alphabet, seed=seed + k, **options)
        candidate.train()
        cost = candidate._tracked_total()
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = candidate
    return best


def train_baseline(
    word_counts: dict[str, int],
    alpha: float = 1.0,
    seed: int = 1917,
    epsilon: float = 0.1,
    init: str = "random",
    max_epochs: int = 30,
    restarts: int = 1,
) -> MorfModel:
    """Train the baseline segmenter on word types (counts dampened to 1).

    ``init`` seeds the search: ``random`` scatters split points so shared
    substructure across types is discoverable (the all-whole-words start is
    a local optimum a strictly-improving search cannot leave), ``words``
    and ``chars`` start from whole words / single characters.
    """
    best = _train_restarts(_Trainer, word_counts, seed, restarts, alpha=alpha,
                           dampening="types", cap=None, epsilon=epsilon, init=init,
                           max_epochs=max_epochs)
    return best.finish(BASELINE)


def train_lmvr(
    word_counts: dict[str, int],
    alpha: float = 1.0,
    max_lexicon_size: int | None = None,
    seed: int = 1917,
    epsilon: float = 0.1,
    init: str = "random",
    max_epochs: int = 30,
    restarts: int = 1,
) -> MorfModel:
    """Train the lexicon-restricted variant.

    Token-count training raises the pressure to split frequent words; the
    cap bounds the effective lexicon (character inventory plus active
    multi-character morphs) after every accepted move, so a cap equal to
    the alphabet size forces single-character segmentation.
    """
    best = _train_restarts(_Trainer, word_counts, seed, restarts, alpha=alpha,
                           dampening="tokens", cap=max_lexicon_size, epsilon=epsilon,
                           init=init, max_epochs=max_epochs)
    return best.finish(LMVR)


# -- inference ---------------------------------------------------------------


def _lattice(words: list[str], tables, unseen, strict: bool = True, ends: bool = False) -> list:
    """The cheapest path of each of ``words`` (one length) through the
    ``k`` categories of ``tables = (spans, emit, steps, final)``: its
    morphs, or with ``ends`` its ``(morphs, ends)`` with ``ends[m] = end *
    k + c`` for morph ``m`` of category ``c``; None where every path costs
    inf.  A morph ``spans`` knows costs ``emit[id, c]``, an unseen one of
    length ``j`` ``unseen[j]``; ``steps[p, c]`` is the cost of ``c`` after
    ``p`` (row ``k``: opening the word) and ``final[c]`` of ending in
    ``c``, and with ``k = 1`` they must all be 0.  With ``strict`` a known
    morph cannot take a category that gives it no mass, and words left
    without a path are decoded again without.

    Once a position's costs are final, each category takes its cheapest
    step in (the lowest previous category on a tie); each end takes the
    cheapest start of that step plus the morph's cost (the first on a
    tie), and each word its cheapest final category (the lowest on a tie).
    """
    spans, emit, steps, final = tables
    k = emit.shape[1]
    count, n = len(words), len(words[0])
    table = spans.spans(words)
    lengths = np.array(spans.lengths[: table.shape[2]], dtype=np.intp)
    # via[w, s, c]: the cheapest path to s followed by a step into c, taken
    # from category link[w, s, c] - s * k; back[w, end, c] is the link at
    # the start of the cheapest path to end whose last morph has c.  A
    # link is a flat index s * k + p into back, 0 at the word start.  With
    # one category that costs nothing the step is the path and the link
    # its end
    via = np.empty((count, n, k))
    via[:, 0] = steps[k]
    back = np.zeros((count, n + 1, k), dtype=np.intp)
    if k > 1:
        rows, cols = np.arange(count)[:, None], np.arange(k)
        link = np.zeros((count, n, k), dtype=np.intp)
    for end in range(1, n + 1):
        known_lengths = np.searchsorted(lengths, end, side="right")
        # the starts of the known spans ending here, latest first
        starts = end - lengths[:known_lengths]
        span = table[:, end - 1, :known_lengths]
        cand = via[:, :end] + unseen[end:0:-1, None]
        known = emit[span]
        keep = (span < spans.unknown)[..., None] if strict else known != math.inf
        at = cand[:, starts]
        np.add(via[:, starts], known, out=at, where=keep)
        cand[:, starts] = at
        start = np.argmin(cand, axis=1)
        best = cand.min(axis=1)
        if k == 1:
            back[:, end] = start
            if end < n:
                via[:, end] = best
        else:
            back[:, end] = link[rows, start, cols]
            if end < n:
                step = best[:, :, None] + steps[:k]
                link[:, end] = np.argmin(step, axis=1) + end * k
                via[:, end] = step.min(axis=1)
    best += final
    out = []
    for word, i, ptrs in zip(words, (n * k + np.argmin(best, axis=1)).tolist(),
                             back.reshape(count, -1).tolist()):
        morphs, end = [], n
        if ends:
            path = []
            while end:
                path.append(i)
                i = ptrs[i]
                start = i // k
                morphs.append(word[start:end])
                end = start
            out.append((morphs[::-1], path[::-1]))
        else:
            while end:
                i = ptrs[i]
                start = i // k
                morphs.append(word[start:end])
                end = start
            out.append(morphs[::-1])
    retry = np.flatnonzero(~(best.min(axis=1) < math.inf)).tolist()
    for j in retry:
        out[j] = None
    if strict and retry:
        # every legal path died on zeroed emissions: let any substring
        # fall back to the add-to-lexicon cost instead
        again = _lattice([words[j] for j in retry], tables, unseen, False, ends)
        for j, result in zip(retry, again):
            out[j] = result
    return out


def _decode(model: MorfModel, words, categories: bool = False) -> list:
    """Each of ``words`` decoded by :func:`_lattice`, in input order: its
    morphs, or with ``categories`` (a category model only) its ``(morphs,
    categories)``; a lexicon-only model is one category whose steps cost
    nothing.  Words of one length are decoded together, in the batches of
    :func:`polyseg.chain.batches`."""
    words = list(words)
    total = model.total_tokens
    # an unseen morph of each length pays its spelling, added to the
    # lexicon, and one smoothed corpus token
    per_symbol = math.log(len(model.alphabet) + 1)
    smoothed = math.log(total + 1)
    unseen = np.array([model.alpha * (k + 1) * per_symbol + smoothed
                       for k in range(max(map(len, words), default=0) + 1)])
    if model.categories is None:
        log_total = math.log(total) if total > 0 else 0.0
        known = {m: c for m, c in model.lexicon.items() if c > 0}
        costs = np.array([log_total - math.log(c) for c in known.values()] + [math.inf])
        tables = (SpanIndex(dict(zip(known, range(len(known))))), costs[:, None],
                  np.zeros((2, 1)), np.zeros(1))
    else:
        tables = model.categories._lattice_tables
    out: list = [None] * len(words)
    # inf and nan mark impossible steps; sums overflow to inf as Python floats do
    with np.errstate(over="ignore", invalid="ignore"):
        for indices, group in batches(words):
            for j, result in zip(indices, _lattice(group, tables, unseen, ends=categories)):
                out[j] = result
    if None in out:
        raise NumericError("no legal category path for %r" % (words[out.index(None)],))
    if categories:
        return [(morphs, [CATEGORIES[i % len(CATEGORIES)] for i in ends])
                for morphs, ends in out]
    return out


def segment_words(model: MorfModel, words) -> list[list[str]]:
    """The cheapest morph sequence of each of ``words``, in input order.

    Known morphs cost their negative log probability; unknown substrings
    pay the add-to-lexicon price (uniform-character spelling, corpus-weight
    scaled) plus a one-token smoothed corpus cost, so out-of-vocabulary
    words segment at any alpha ``check_alpha`` admits.  Among equal-cost
    splits the one whose last morph starts first wins.  A category model
    decodes through the joint split-and-category lattice (see :func:`_lattice`).
    """
    return _decode(model, words)


def viterbi_segment(model: MorfModel, word: str) -> list[str]:
    """The morphs of one word (see :func:`segment_words`)."""
    return segment_words(model, [word])[0]


def viterbi_segment_with_categories(model: MorfModel, word: str) -> tuple[list[str], list[str]]:
    """Joint split-and-category decoding of one word for category-model
    variants: its ``(morphs, categories)`` (see :func:`_lattice`)."""
    if model.categories is None:
        raise ConfigError("model has no category parameters")
    return _decode(model, [word], categories=True)[0]


# -- category-model training -------------------------------------------------


def _initial_category_model(analyses, diversity_threshold: int) -> CategoryModel:
    left_ctx: dict[str, set] = {}
    right_ctx: dict[str, set] = {}
    counts = Counter()
    for word, morphs in analyses.items():
        for i, m in enumerate(morphs):
            counts[m] += 1
            if i > 0:
                left_ctx.setdefault(m, set()).add(morphs[i - 1])
            if i + 1 < len(morphs):
                right_ctx.setdefault(m, set()).add(morphs[i + 1])
    morph_list = sorted(counts)

    def affinity(m: str, cat: str) -> float:
        if cat == "PRE":
            div = len(right_ctx.get(m, ()))
            return float(div) if div >= diversity_threshold else _EPS_AFFINITY
        if cat == "SUF":
            div = len(left_ctx.get(m, ()))
            return float(div) if div >= diversity_threshold else _EPS_AFFINITY
        if cat == "STM":
            return float(len(m))
        return _EPS_AFFINITY

    emit = {}
    for cat in CATEGORIES:
        scores = {m: counts[m] * affinity(m, cat) for m in morph_list}
        z = sum(scores.values())
        emit[cat] = {m: math.log(s / z) for m, s in scores.items() if s > 0}
    start = {c: math.log(1.0 / len(START_CATS)) for c in START_CATS}
    trans = {
        c: {n: math.log(1.0 / len(ALLOWED_NEXT[c])) for n in ALLOWED_NEXT[c]}
        for c in CATEGORIES
    }
    return CategoryModel(start=start, trans=trans, emit=emit)


def _category_arrays(cm: CategoryModel, morphs: list[str]):
    """``cm`` as log arrays ``(emit, start, trans)`` of shapes
    ``(4, len(morphs))``, ``(4,)`` and ``(4, 4)`` in CATEGORIES order,
    -inf where ``cm`` has no entry."""
    emit = np.array([[cm.emit_logp(c, m) for m in morphs] for c in CATEGORIES])
    start = np.array([cm.start_logp(c) for c in CATEGORIES])
    trans = np.array([[cm.trans_logp(a, b) for b in CATEGORIES] for a in CATEGORIES])
    return emit, start, trans


def _category_model(emit, start, trans, morphs: list[str]) -> CategoryModel:
    """The inverse of ``_category_arrays``: -inf entries are left out and
    every table is sorted by key."""

    def table(values, keys):
        return {k: v for k, v in sorted(zip(keys, values.tolist())) if v != _NEG_INF}

    return CategoryModel(
        start=table(start, CATEGORIES),
        trans={c: table(trans[i], CATEGORIES) for i, c in enumerate(CATEGORIES)},
        emit={c: table(emit[i], morphs) for i, c in enumerate(CATEGORIES)},
    )


def _normalize(counts, previous):
    """Each row of ``counts`` as log-probabilities over its total, -inf
    where a count is zero; a row whose total is not positive keeps its
    ``previous`` values."""
    z = counts.sum(axis=-1, keepdims=True)
    # log-space division: v/z can underflow to 0.0 for denormal-scale counts
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.log(counts) - np.log(z)
    return np.where(z > 0, logp, previous)


def _em(groups, emit, start, trans, epsilon, max_iters):
    """EM over the baseline analyses, ``groups`` holding the ``(words,
    count)`` morph ids of the analyses of each morph count, from the
    ``(4, morphs)`` emission, start and transition log-probabilities of
    :func:`_category_arrays`.  Returns those fitted and the log-likelihood
    of each iteration.  Its batch-sized arrays are freed on return, before
    the refined model re-segments the words."""
    morphs = emit.shape[1]
    # the analyses group by group, each group's morph ids row by row
    ids = np.concatenate([g.ravel() for g in groups]) if groups else np.zeros(0, np.intp)
    packing = Packing([g.shape[1] for g in groups for _ in range(len(g))])
    # each group's rows and chains in that order, and the flat (category,
    # morph) index of each of its emissions
    spans = []
    row = first = 0
    for g in groups:
        spans.append((slice(row, row + g.size), slice(first, first + len(g)), g.shape,
                      (g[:, :, None] + np.arange(4) * morphs).ravel()))
        row, first = row + g.size, first + len(g)

    ll_history = []
    for _ in range(max_iters):
        emit_counts = np.zeros(4 * morphs)
        start_counts = np.zeros(4)
        trans_counts = np.zeros((4, 4))
        total_ll = 0.0
        e = emit.T[ids]  # each morph's emission log-probabilities
        alpha, beta, ll = forward_backward(e, packing, start, trans, _FINAL_MASK)
        if np.isneginf(ll).any():
            raise NumericError("zero-probability segmentation in EM")
        gamma = alpha + beta
        gamma -= ll[packing.chain][:, None]
        np.exp(gamma, out=gamma)
        # the sums run group by group, as one forward-backward per group would
        for rows, chains, shape, slot in spans:
            total_ll += float(ll[chains].sum())
            emit_counts += np.bincount(slot, gamma[rows].ravel(), len(emit_counts))
            start_counts += gamma[rows].reshape(*shape, 4)[:, 0].sum(axis=0)
            trans_counts += transition_counts(e[rows].reshape(*shape, 4), trans,
                                              alpha[rows].reshape(*shape, 4),
                                              beta[rows].reshape(*shape, 4), ll[chains])
        ll_history.append(total_ll)

        start = _normalize(start_counts, start)
        trans = _normalize(trans_counts, trans)
        emit = _normalize(emit_counts.reshape(4, -1), emit)
        if len(ll_history) >= 2 and ll_history[-1] - ll_history[-2] < epsilon:
            break
    return emit, start, trans, ll_history


def train_flatcat(
    word_counts: dict[str, int],
    baseline_model: MorfModel,
    seed: int = 1917,
    epsilon: float = 1e-4,
    max_iters: int = 20,
    diversity_threshold: int = 3,
) -> MorfModel:
    """Refine a trained baseline with a category HMM and re-segment.

    Emissions start from context-diversity affinities (morphs preceded by
    many distinct morphs look suffix-like, followed by many look
    prefix-like, long morphs look stem-like), EM then fits the constrained
    HMM to the baseline segmentation; the data log-likelihood is
    non-decreasing per iteration.  Each EM iteration runs one
    forward-backward over all analyses, of every morph count at once.  EM
    stops once an iteration raises the log-likelihood by less than the
    finite ``epsilon``; a negative one runs all ``max_iters``.  The
    returned model re-segments words through the joint split-and-category
    lattice.
    """
    check_alpha(baseline_model.alpha)
    if not math.isfinite(epsilon):
        raise ConfigError("EM epsilon must be finite, got %r" % (epsilon,))
    for w in word_counts:
        if w not in baseline_model.analyses:
            raise DataError("word %r missing from the baseline analyses" % (w,))
    analyses = {w: baseline_model.analyses[w] for w in sorted(word_counts)}
    vocab = sorted({m for ms in analyses.values() for m in ms})
    index = {m: i for i, m in enumerate(vocab)}
    by_count: dict[int, list] = {}
    for ms in analyses.values():
        by_count.setdefault(len(ms), []).append([index[m] for m in ms])
    groups = [np.array(rows, dtype=np.intp) for _, rows in sorted(by_count.items())]
    emit, start, trans = _category_arrays(
        _initial_category_model(analyses, diversity_threshold), vocab
    )
    emit, start, trans, ll_history = _em(groups, emit, start, trans, epsilon, max_iters)

    # the baseline lexicon scales the unseen-morph cost while re-segmenting
    refined = MorfModel(
        lexicon=Counter(baseline_model.lexicon),
        alphabet=baseline_model.alphabet,
        alpha=baseline_model.alpha,
        variant=FLATCAT,
        categories=_category_model(emit, start, trans, vocab),
    )
    words = sorted(word_counts)
    refined.analyses = {w: tuple(ms) for w, ms in zip(words, segment_words(refined, words))}
    refined.lexicon = Counter(m for ms in refined.analyses.values() for m in ms)
    refined.ll_history = ll_history
    return refined


# -- model files -------------------------------------------------------------


def save_model(model: MorfModel, path) -> None:
    cap, cm = model.max_lexicon_size, model.categories
    header = [model.variant, repr(model.alpha)] + ([] if cap is None else ["%d" % cap])
    lexicon = ((morph, "%d" % count) for morph, count in sorted(model.lexicon.items()))
    transitions = emissions = None
    if cm is not None:
        transitions = [("<s>", cat, repr(cm.start[cat])) for cat in START_CATS if cat in cm.start]
        transitions += [(prev, nxt, repr(logp)) for prev in CATEGORIES
                        for nxt, logp in sorted(cm.trans.get(prev, {}).items())]
        emissions = ((cat, morph, repr(logp)) for cat in CATEGORIES
                     for morph, logp in sorted(cm.emit.get(cat, {}).items()))
    modelfile.write(path, "morf", header,
                    {"lexicon": lexicon, "transitions": transitions, "emissions": emissions})


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("negative count")
    return value


# The largest magnitude an alpha or a flatcat log-probability may have.  A path
# through an n-character word has at most n morphs, each adding a start or
# transition term and an emission or unseen cost (alpha * (k + 1) *
# log(alphabet + 1) + log(total + 1) for k characters), so its cost stays
# below ~30 * 1e100 * n + n * log(total + 1): finite for any word that fits
# in memory.  A larger value can make every path cost inf.
_MAX_MAGNITUDE = 1e100


def _bounded(text: str) -> float:
    value = modelfile.finite(text)
    if abs(value) > _MAX_MAGNITUDE:
        raise ValueError("magnitude above %g" % (_MAX_MAGNITUDE,))
    return value


# field converters that accept only the texts they map, as bpe's marker field
_category = {cat: cat for cat in CATEGORIES}.__getitem__
_source = {src: src for src in ("<s>",) + CATEGORIES}.__getitem__
_variant = {v: v for v in (BASELINE, LMVR, FLATCAT)}.__getitem__


def load_model(path) -> MorfModel:
    each = modelfile.each
    (variant, alpha, cap), sections = modelfile.read(
        path, "morf", (_variant, modelfile.finite, int),
        {"lexicon": (modelfile.text, each(_count)),
         "transitions": (each(_source), each(_category), each(_bounded)),
         "emissions": (each(_category), modelfile.text, each(_bounded))},
        optional=1,
    )
    transitions, emissions = sections["transitions"], sections["emissions"]
    morphs, counts = sections["lexicon"].columns
    modelfile.unique(path, sections["lexicon"].lines, morphs, "lexicon morph")
    lexicon = Counter(dict(zip(morphs, counts)))
    stray = transitions.lines + emissions.lines
    if variant != FLATCAT and stray:
        raise ParseError("%s:%d: a %s model has no category tables"
                         % (path, min(stray), variant))
    if abs(alpha) > _MAX_MAGNITUDE:
        raise ParseError("%s:1: alpha %r is above %g in magnitude"
                         % (path, alpha, _MAX_MAGNITUDE))
    categories = None
    if variant == FLATCAT:
        modelfile.unique(path, transitions.lines, list(zip(*transitions.columns[:2])),
                         "transition")
        modelfile.unique(path, emissions.lines, list(zip(*emissions.columns[:2])),
                         "emission")
        start: dict[str, float] = {}
        trans: dict[str, dict[str, float]] = {}
        emit: dict[str, dict[str, float]] = {}
        for lineno, src, dst, logp in zip(transitions.lines, *transitions.columns):
            if src == "<s>":
                if dst not in START_CATS:
                    raise ParseError("%s:%d: a word cannot start with %s" % (path, lineno, dst))
                start[dst] = logp
            elif dst in ALLOWED_NEXT[src]:
                trans.setdefault(src, {})[dst] = logp
            else:
                raise ParseError("%s:%d: transition %s->%s is not allowed"
                                 % (path, lineno, src, dst))
        for cat, morph, logp in zip(*emissions.columns):
            emit.setdefault(cat, {})[morph] = logp
        # a file cut short loses its tables from the end; the header line
        # is what promised them
        if not start:
            raise ParseError("%s:1: flatcat model has no <s> start row" % (path,))
        if not any(cat in FINAL_CATS for cat in start):
            # not even a one-morph word could be decoded
            first = transitions.lines[transitions.columns[0].index("<s>")]
            raise ParseError("%s:%d: no <s> row opens a word-final category (%s)"
                             % (path, first, " or ".join(FINAL_CATS)))
        if not emit:
            raise ParseError("%s:1: flatcat model has no emission rows" % (path,))
        categories = CategoryModel(start=start, trans=trans, emit=emit)
    alphabet = frozenset(ch for m in lexicon for ch in m)
    return MorfModel(
        lexicon=lexicon,
        alphabet=alphabet,
        alpha=alpha,
        variant=variant,
        max_lexicon_size=cap,
        categories=categories,
    )
