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
from .crf import forward_backward, transition_counts
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
        """``(emit_costs, first_steps, trans)`` for the category lattice,
        categories as their CATEGORIES indices.

        ``emit_costs`` maps every emitted morph to its four costs ``-logp``,
        inf where a category gives it no mass.  ``first_steps[c]`` is
        ``[(None, -logp)]`` for a category that may open a word and ``[]``
        for one that may not; ``trans[p][c]`` is the log-probability of
        ``c`` after ``p``, None where the step is forbidden.
        """
        emit_costs = {}
        for c, cat in enumerate(CATEGORIES):
            for morph, logp in self.emit.get(cat, {}).items():
                emit_costs.setdefault(morph, [math.inf] * 4)[c] = -logp
        starts = [self.start_logp(cat) for cat in CATEGORIES]
        first_steps = [[] if s == _NEG_INF else [(None, -s)] for s in starts]
        trans = [
            [None if t == _NEG_INF else t for t in (self.trans_logp(a, b) for b in CATEGORIES)]
            for a in CATEGORIES
        ]
        return {m: tuple(v) for m, v in emit_costs.items()}, first_steps, trans


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
        """Build a model directly from fixed segmentations (tests, refinement)."""
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


def check_alpha(alpha: float, variant: str = BASELINE) -> None:
    """Reject an ``alpha`` no ``variant`` model can be trained with: one
    that is not finite, or for flatcat one that ``load_model`` would refuse
    (above ``_MAX_MAGNITUDE`` in magnitude)."""
    if not math.isfinite(alpha):
        raise ConfigError("alpha must be finite, got %r" % (alpha,))
    if variant == FLATCAT and abs(alpha) > _MAX_MAGNITUDE:
        raise ConfigError("flatcat alpha %r is above %g in magnitude" % (alpha, _MAX_MAGNITUDE))


class _Trainer:
    """Greedy recursive-split trainer with incremental cost bookkeeping."""

    def __init__(self, word_counts, alpha, dampening, cap, seed, epsilon, init, max_epochs):
        if not word_counts:
            raise DataError("empty word counts")
        for w, c in word_counts.items():
            if not w or any(ch.isspace() for ch in w):
                raise DataError("bad word in counts: %r" % (w,))
            if c < 1:
                raise DataError("non-positive count for %r" % (w,))
        check_alpha(alpha)
        if dampening not in ("types", "tokens"):
            raise ConfigError("unknown dampening %r" % (dampening,))
        self.word_counts = dict(word_counts)
        self.alpha = alpha
        self.dampening = dampening
        self.alphabet = frozenset(ch for w in word_counts for ch in w)
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

        A candidate is scored as if its morphs were added with ``_add``,
        measured with ``_tracked_total`` and removed with ``_remove``, but on
        local copies of the bookkeeping: the float steps on ``_sum_clogc``
        are the same ones in the same order, so the rounding they leave
        behind is kept too.  Only the committed split touches the lexicon.
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
            s = s - xlogx[whole] + xlogx[whole + w]
            t = self._total + w
            grown = lex if whole > 0 else lex + n + 1
            best_cost = t * math.log(t) - s + alpha * grown * per_symbol
            s = s - xlogx[whole + w] + xlogx[whole]

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
            s = s - xlogx[cl] + xlogx[cl + w]
            if i == twin:
                # right is left again: its add starts from the raised count
                s = s - xlogx[cl + w] + xlogx[cl + 2 * w]
                cost = corpus_total - s + alpha * grown * per_symbol
                s = s - xlogx[cl + 2 * w] + xlogx[cl + w]
                s = s - xlogx[cl + w] + xlogx[cl]
            else:
                if cr == 0:
                    grown += n - i + 1
                    grown_multi += n - i > 1
                s = s - xlogx[cr] + xlogx[cr + w]
                cost = corpus_total - s + alpha * grown * per_symbol
                s = s - xlogx[cl + w] + xlogx[cl]
                s = s - xlogx[cr + w] + xlogx[cr]
            if fallback_i is None or cost < fallback_cost:
                fallback_cost, fallback_i = cost, i
            if (room is None or grown_multi <= room) and cost < best_cost - 1e-12:
                best_cost = cost
                best_i = i
        self._sum_clogc = s

        if best_i is None:
            if whole_ok:
                self._add(construction, weight)
                return (construction,)
            # cap forbids both the whole construction and every admissible
            # split at this level: descend through the cheapest split and
            # let deeper levels fall back toward single characters.
            best_i = fallback_i

        left, right = construction[:best_i], construction[best_i:]
        self._add(left, weight)
        self._add(right, weight)
        self._remove(left, weight)
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


def _train_restarts(factory, seed: int, restarts: int) -> MorfModel:
    """Run seeded restarts (seed, seed+1, ...) and keep the cheapest model;
    greedy accept-only-improving search depends on its start point, so a
    few restarts reliably find compositional optima single runs can miss."""
    if restarts < 1:
        raise ConfigError("restarts must be positive")
    best = None
    best_cost = math.inf
    for k in range(restarts):
        trainer = factory(seed + k)
        trainer.train()
        cost = trainer._tracked_total()
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = trainer
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
    best = _train_restarts(
        lambda s: _Trainer(word_counts, alpha, "types", None, s, epsilon, init, max_epochs),
        seed,
        restarts,
    )
    return best.finish(BASELINE)


def train_lmvr(
    word_counts: dict[str, int],
    alpha: float = 1.0,
    max_lexicon_size: int | None = None,
    seed: int = 1917,
    epsilon: float = 0.1,
    init: str = "random",
    max_epochs: int = 30,
    dampening: str = "tokens",
    restarts: int = 1,
) -> MorfModel:
    """Train the lexicon-restricted variant.

    Token-count training raises the pressure to split frequent words; the
    cap bounds the effective lexicon (character inventory plus active
    multi-character morphs) after every accepted move, so a cap equal to
    the alphabet size forces single-character segmentation.
    """
    best = _train_restarts(
        lambda s: _Trainer(
            word_counts, alpha, dampening, max_lexicon_size, s, epsilon, init, max_epochs
        ),
        seed,
        restarts,
    )
    return best.finish(LMVR)


# -- inference ---------------------------------------------------------------


def _unseen_costs(model: MorfModel, word: str, total: int) -> list[float]:
    """The cost of an unseen morph of every length 0..len(word): its
    spelling added to the lexicon plus one smoothed corpus token."""
    per_symbol = math.log(len(model.alphabet) + 1)
    smoothed = math.log(total + 1)
    return [model.alpha * (k + 1) * per_symbol + smoothed for k in range(len(word) + 1)]


def viterbi_segment(model: MorfModel, word: str) -> list[str]:
    """Split ``word`` into the cheapest morph sequence under the lexicon.

    Known morphs cost their negative log probability; unknown substrings
    pay the add-to-lexicon price (uniform-character spelling, corpus-weight
    scaled) plus a one-token smoothed corpus cost, so out-of-vocabulary
    words always segment.
    """
    if not word:
        raise DataError("cannot segment an empty word")
    if model.categories is not None:
        morphs, _ = viterbi_segment_with_categories(model, word)
        return morphs
    total = model.total_tokens
    log_total = math.log(total) if total > 0 else 0.0
    unseen = _unseen_costs(model, word, total)
    n = len(word)
    best = [math.inf] * (n + 1)
    back = [0] * (n + 1)
    best[0] = 0.0
    for end in range(1, n + 1):
        for start in range(end):
            if best[start] == math.inf:
                continue
            m = word[start:end]
            count = model.lexicon.get(m, 0)
            if count > 0:
                cost = log_total - math.log(count)
            else:
                cost = unseen[end - start]
            cand = best[start] + cost
            if cand < best[end]:
                best[end] = cand
                back[end] = start
    morphs = []
    pos = n
    while pos > 0:
        morphs.append(word[back[pos] : pos])
        pos = back[pos]
    morphs.reverse()
    return morphs


def viterbi_segment_with_categories(model: MorfModel, word: str) -> tuple[list[str], list[str]]:
    """Joint split-and-category decoding for category-model variants."""
    if model.categories is None:
        raise ConfigError("model has no category parameters")
    if not word:
        raise DataError("cannot segment an empty word")
    total = model.total_tokens
    unseen = _unseen_costs(model, word, total)
    result = _viterbi_categories(model.categories, word, unseen, strict=True)
    if result is None:
        # Every category-legal path died on zeroed emissions; let any
        # substring fall back to the add-to-lexicon cost instead.
        result = _viterbi_categories(model.categories, word, unseen, strict=False)
    if result is None:
        raise NumericError("no legal category path for %r" % (word,))
    return result


def _viterbi_categories(cm: CategoryModel, word: str, unseen: list[float], strict: bool):
    """The cheapest (morphs, categories) of ``word``, or None without a
    legal path.  ``unseen[k]`` is the cost of an unseen morph of length k;
    with ``strict`` a known morph cannot take a category that gives it no
    mass.

    Ties keep the first start, and among previous categories the one that
    first reached that position; the final category is the cheapest, then
    the first by name.
    """
    emit_costs, first_steps, trans = cm._lattice_tables
    inf = math.inf
    n = len(word)
    # steps[pos][c]: (previous category, its cost - log p(c | previous)) for
    # every category that reached pos and may precede c, in the order they
    # reached it; a morph ending later only adds its emission cost
    steps: list = [first_steps] + [None] * n
    back: list = [None] * (n + 1)
    best: dict = {}
    for end in range(1, n + 1):
        best, ptr = {}, {}
        for start in range(end):
            prev = steps[start]
            if prev is None:
                continue
            costs = emit_costs.get(word[start:end])
            if costs is None:
                costs = (unseen[end - start],) * 4
            elif not strict:
                costs = [unseen[end - start] if e == inf else e for e in costs]
            for c in range(4):
                e = costs[c]
                if e == inf:
                    continue  # no mass, or an overflowing unseen cost
                cand = inf
                for p, x in prev[c]:
                    y = x + e
                    if y < cand:
                        cand = y
                        pc = p
                if cand < best.get(c, inf):
                    best[c] = cand
                    ptr[c] = (start, pc)
        back[end] = ptr
        if best:
            steps[end] = [
                [(p, cost - trans[p][c]) for p, cost in best.items() if trans[p][c] is not None]
                for c in range(4)
            ]
    finals = [c for c in best if CATEGORIES[c] in FINAL_CATS]
    if not finals:
        return None
    cat = min(finals, key=lambda c: (best[c], CATEGORIES[c]))
    morphs: list[str] = []
    cats: list[str] = []
    pos = n
    while pos > 0:
        start, prev_cat = back[pos][cat]
        morphs.append(word[start:pos])
        cats.append(CATEGORIES[cat])
        pos, cat = start, prev_cat
    morphs.reverse()
    cats.reverse()
    return morphs, cats


def segment_corpus(model: MorfModel, sentences) -> list[list[list[str]]]:
    """Segment every token of every sentence; concatenation restores tokens."""
    out = []
    for sent in sentences:
        tokens = sent.tokens if hasattr(sent, "tokens") else sent
        out.append([viterbi_segment(model, tok) for tok in tokens])
    return out


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
    forward-backward per morph count over all analyses of that count.  The
    returned model re-segments words through the joint split-and-category
    lattice.
    """
    check_alpha(baseline_model.alpha, FLATCAT)
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
    # flat (category, morph) index of every emission in a group
    slots = [ids[:, :, None] + np.arange(4) * len(vocab) for ids in groups]
    emit, start, trans = _category_arrays(
        _initial_category_model(analyses, diversity_threshold), vocab
    )

    ll_history = []
    for _ in range(max_iters):
        emit_counts = np.zeros(4 * len(vocab))
        start_counts = np.zeros(4)
        trans_counts = np.zeros((4, 4))
        total_ll = 0.0
        for ids, slot in zip(groups, slots):
            e = emit.T[ids]  # each morph's emission log-probabilities
            alpha, beta, ll = forward_backward(e, start, trans, _FINAL_MASK)
            if np.isneginf(ll).any():
                raise NumericError("zero-probability segmentation in EM")
            total_ll += float(ll.sum())
            gamma = np.exp(alpha + beta - ll[:, None, None])
            emit_counts += np.bincount(slot.ravel(), gamma.ravel(), len(emit_counts))
            start_counts += gamma[:, 0].sum(axis=0)
            trans_counts += transition_counts(e, trans, alpha, beta, ll)
        ll_history.append(total_ll)

        start = _normalize(start_counts, start)
        trans = _normalize(trans_counts, trans)
        emit = _normalize(emit_counts.reshape(4, -1), emit)
        if len(ll_history) >= 2 and ll_history[-1] - ll_history[-2] < epsilon:
            break

    # the baseline lexicon scales the unseen-morph cost while re-segmenting
    refined = MorfModel(
        lexicon=Counter(baseline_model.lexicon),
        alphabet=baseline_model.alphabet,
        alpha=baseline_model.alpha,
        variant=FLATCAT,
        categories=_category_model(emit, start, trans, vocab),
    )
    new_analyses = {}
    new_lexicon = Counter()
    for w in sorted(word_counts):
        morphs, _ = viterbi_segment_with_categories(refined, w)
        new_analyses[w] = tuple(morphs)
        for m in morphs:
            new_lexicon[m] += 1
    refined.lexicon = new_lexicon
    refined.analyses = new_analyses
    refined.ll_history = ll_history
    return refined


# -- model files -------------------------------------------------------------


def save_model(model: MorfModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        head = "morf v1 %s %s" % (model.variant, repr(model.alpha))
        if model.max_lexicon_size is not None:
            head += " %d" % model.max_lexicon_size
        f.write(head + "\n")
        for morph in sorted(model.lexicon):
            f.write("%s\t%d\n" % (morph, model.lexicon[morph]))
        if model.categories is not None:
            cm = model.categories
            f.write("transitions:\n")
            for cat in START_CATS:
                if cat in cm.start:
                    f.write("<s>\t%s\t%s\n" % (cat, repr(cm.start[cat])))
            for prev in CATEGORIES:
                for nxt in sorted(cm.trans.get(prev, {})):
                    f.write("%s\t%s\t%s\n" % (prev, nxt, repr(cm.trans[prev][nxt])))
            f.write("emissions:\n")
            for cat in CATEGORIES:
                for morph in sorted(cm.emit.get(cat, {})):
                    f.write("%s\t%s\t%s\n" % (cat, morph, repr(cm.emit[cat][morph])))


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("negative count")
    return value


# The largest magnitude a flatcat alpha or log-probability may have.  A path
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


def _category(text: str) -> str:
    if text not in CATEGORIES:
        raise ValueError("unknown category")
    return text


def _source(text: str) -> str:
    return text if text == "<s>" else _category(text)


def _variant(text: str) -> str:
    if text not in (BASELINE, LMVR, FLATCAT):
        raise ValueError("unknown variant")
    return text


def load_model(path) -> MorfModel:
    (variant, alpha, cap), rows = modelfile.read(
        path, "morf", (_variant, modelfile.finite, int),
        {"lexicon": (str, _count), "transitions": (_source, _category, _bounded),
         "emissions": (_category, str, _bounded)},
        optional=1,
    )
    modelfile.unique(path, rows["lexicon"], 1, "lexicon morph")
    lexicon = Counter(dict(row for _, row in rows["lexicon"]))
    stray = rows["transitions"] + rows["emissions"]
    if variant != FLATCAT and stray:
        raise ParseError("%s:%d: a %s model has no category tables"
                         % (path, min(lineno for lineno, _ in stray), variant))
    categories = None
    if variant == FLATCAT:
        if abs(alpha) > _MAX_MAGNITUDE:
            raise ParseError("%s:1: flatcat alpha %r is above %g in magnitude"
                             % (path, alpha, _MAX_MAGNITUDE))
        modelfile.unique(path, rows["transitions"], 2, "transition")
        modelfile.unique(path, rows["emissions"], 2, "emission")
        start: dict[str, float] = {}
        trans: dict[str, dict[str, float]] = {}
        emit: dict[str, dict[str, float]] = {}
        for lineno, (src, dst, logp) in rows["transitions"]:
            if src == "<s>":
                if dst not in START_CATS:
                    raise ParseError("%s:%d: a word cannot start with %s" % (path, lineno, dst))
                start[dst] = logp
            elif dst in ALLOWED_NEXT[src]:
                trans.setdefault(src, {})[dst] = logp
            else:
                raise ParseError("%s:%d: transition %s->%s is not allowed"
                                 % (path, lineno, src, dst))
        for _, (cat, morph, logp) in rows["emissions"]:
            emit.setdefault(cat, {})[morph] = logp
        # a file cut short loses its tables from the end; the header line
        # is what promised them
        if not start:
            raise ParseError("%s:1: flatcat model has no <s> start row" % (path,))
        if not any(cat in FINAL_CATS for cat in start):
            # not even a one-morph word could be decoded
            first = next(n for n, (src, _, _) in rows["transitions"] if src == "<s>")
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
