"""Brute-force reference implementations the test suite checks against.

Everything here recomputes results from first principles: full rescans,
exhaustive enumeration, and naive scoring, deliberately independent of the
library's incremental/DP code paths.
"""

import itertools
import math
import random
import re
from collections import Counter

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, minimize
from scipy.special import logsumexp

from polyseg import bpe, crf, modelfile, morf
from polyseg.chain import Packing, _logsumexp
from polyseg.corpus import CANONICAL, SURFACE, SegmentationDataset, SegmentedWord, read_lines
from polyseg.crf import (
    ALLOWED_NEXT,
    ALLOWED_PAIRS,
    FINAL_LABELS,
    LABELS,
    PAD,
    START_LABELS,
    CrfModel,
    labels_to_morphs,
    morphs_to_labels,
)
from polyseg.errors import DataError, NumericError, ParseError
from polyseg.metrics import (
    BLEU_ORDER,
    CHRF_ORDER,
    SegScore,
    bleu_score_from_stats,
    chrf_score_from_stats,
)
from polyseg.morf import ALLOWED_NEXT as CAT_NEXT
from polyseg.morf import (
    CATEGORIES,
    FINAL_CATS,
    START_CATS,
    CategoryModel,
    _initial_category_model,
    _Trainer,
)

_L = {lab: i for i, lab in enumerate(LABELS)}


# -- segmentation datasets -----------------------------------------------------


def segmentation_oracle_load(path, mode=SURFACE):
    """Load a TSV segmentation dataset line by line, building every entry
    through the validating :class:`SegmentedWord` constructor."""
    if mode not in (SURFACE, CANONICAL):
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


# -- bpe -----------------------------------------------------------------------


def bpe_oracle_merges(word_counts, target_vocab_size):
    """Re-derive the merge sequence: recount every adjacent pair from
    scratch each round and apply the winner by list scanning."""
    words = []
    for w, c in word_counts.items():
        syms = list(w)
        syms[-1] += bpe.MARKER
        words.append((syms, c))
    vocab = {s for syms, _ in words for s in syms}
    merges = []
    while len(vocab) < target_vocab_size:
        counts = Counter()
        for syms, c in words:
            for i in range(len(syms) - 1):
                counts[(syms[i], syms[i + 1])] += c
        if not counts or max(counts.values()) < 2:
            break
        top = max(counts.values())
        best = min(p for p, c in counts.items() if c == top)
        merges.append(best)
        vocab.add(best[0] + best[1])
        for syms, _ in words:
            i = 0
            while i < len(syms) - 1:
                if (syms[i], syms[i + 1]) == best:
                    syms[i : i + 2] = [syms[i] + syms[i + 1]]
                i += 1
    return merges


def bpe_oracle_encode(merges, word):
    """Encode by replaying every merge in order over the word's symbols,
    each one left to right and non-overlapping."""
    syms = list(word)
    syms[-1] += bpe.MARKER
    for a, b in merges:
        out = []
        i = 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return syms


def random_bpe_corpus(rng, max_types=20):
    alphabet = "abcdef"
    counts = {}
    for _ in range(rng.randint(1, max_types)):
        w = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        counts[w] = counts.get(w, 0) + rng.randint(1, 9)
    return counts


# -- description-length segmentation ---------------------------------------------


def all_segmentations(word):
    out = []
    for mask in range(2 ** (len(word) - 1)):
        bounds = [i + 1 for i in range(len(word) - 1) if mask >> i & 1]
        out.append(tuple(word[a:b] for a, b in zip([0] + bounds, bounds + [len(word)])))
    return out


def morf_total_cost(counts, alphabet, alpha=1.0):
    total = sum(counts.values())
    per_sym = math.log(len(alphabet) + 1)
    corpus = sum(c * (math.log(total) - math.log(c)) for c in counts.values() if c > 0)
    lex = sum((len(m) + 1) * per_sym for m, c in counts.items() if c > 0)
    return corpus + alpha * lex


def morf_joint_minimum(word_weights, alpha=1.0):
    words = sorted(word_weights)
    alphabet = {ch for w in words for ch in w}
    best = math.inf
    for combo in itertools.product(*(all_segmentations(w) for w in words)):
        counts = Counter()
        for w, segs in zip(words, combo):
            for m in segs:
                counts[m] += word_weights[w]
        best = min(best, morf_total_cost(counts, alphabet, alpha))
    return best


def morf_unseen_cost(model, length, total):
    per_sym = math.log(len(model.alphabet) + 1)
    return model.alpha * (length + 1) * per_sym + math.log(total + 1)


def morf_morph_cost(model, morph):
    total = model.total_tokens
    count = model.lexicon.get(morph, 0)
    if count > 0:
        return math.log(total) - math.log(count)
    return morf_unseen_cost(model, len(morph), total)


def morf_best_cost(model, word):
    return min(
        sum(morf_morph_cost(model, m) for m in segs) for segs in all_segmentations(word)
    )


def morf_oracle_viterbi(model, word):
    """The lexicon Viterbi over one word, one span at a time: every start
    before every end, a known morph costing ``log(total) - log(count)`` and
    an unseen one ``morf_unseen_cost``; a strictly cheaper start replaces
    the one kept, so ties keep the first start.  None where every
    segmentation costs inf."""
    total = model.total_tokens
    log_total = math.log(total) if total > 0 else 0.0
    n = len(word)
    best = [math.inf] * (n + 1)
    back = [0] * (n + 1)
    best[0] = 0.0
    for end in range(1, n + 1):
        for start in range(end):
            if best[start] == math.inf:
                continue
            count = model.lexicon.get(word[start:end], 0)
            if count > 0:
                cost = log_total - math.log(count)
            else:
                cost = morf_unseen_cost(model, end - start, total)
            cand = best[start] + cost
            if cand < best[end]:
                best[end] = cand
                back[end] = start
    if best[n] == math.inf:
        return None
    morphs = []
    pos = n
    while pos > 0:
        morphs.append(word[back[pos] : pos])
        pos = back[pos]
    return morphs[::-1]


def morf_oracle_span_ids(words, ids, limit):
    """For each end ``1..n`` of ``words`` (all of length ``n``), the ids of
    the spans ending there that are at most ``limit`` long: a
    ``(len(words), width)`` array whose column ``j`` is the span from
    ``end - width + j``, ``len(ids)`` where ``ids`` lacks it.  Every span
    length up to ``limit`` is numbered by ``crf._substrings`` and each
    distinct text looked up in ``ids``."""
    count, n = len(words), len(words[0])
    m, unknown = min(limit, n), len(ids)
    # table[:, end - 1, m - k] is the span of length k ending at end
    table = np.full((count, n, m), unknown, dtype=np.intp)
    for k, (codes, distinct) in enumerate(crf._substrings(words, m), 1):
        found = np.array([ids.get(s, unknown) for s in distinct], dtype=np.intp)
        table[:, k - 1 :, m - k] = found[codes]
    for end in range(1, n + 1):
        yield table[:, end - 1, max(0, m - end) :]


def morf_oracle_span_table(words, ids):
    """``SpanIndex(ids).spans(words)`` read off :func:`morf_oracle_span_ids`:
    for each end and each length of ``ids``' morphs up to ``n``, shortest
    first, the id of that span."""
    count, n = len(words), len(words[0])
    lengths = sorted({len(m) for m in ids if 0 < len(m) <= n})
    table = np.full((count, n, len(lengths)), len(ids), dtype=np.intp)
    dense = morf_oracle_span_ids(words, ids, max(map(len, ids), default=1))
    for end, spans in enumerate(dense, 1):
        width = spans.shape[1]
        for j, length in enumerate(lengths):
            if length <= width:
                table[:, end - 1, j] = spans[:, width - length]
    return table


def morf_word_lists(max_length):
    """Lists of words of one to ``max_length`` characters over "abcd",
    then the same words again in another order."""
    words = st.lists(st.text("abcd", min_size=1, max_size=max_length), min_size=1, max_size=8)
    return words.flatmap(lambda first: st.permutations(first).map(lambda again: first + again))


# 100 filler characters: with "a" and "b" they make 102, over which a
# span's key is exact up to 9 characters, so longer morphs are found by
# their 9-character prefix key and then by text
WIDE_FILLER = "".join(chr(0x100 + i) for i in range(100))
_WIDE_PREFIXES = ("aaaaaaaaa", "abababab", "ab" + WIDE_FILLER[0] + "babab")


def wide_pieces():
    """Texts of up to 4 characters over "a", "b" and two filler characters,
    and texts of 8 to 14 that open with one of a few shared prefixes, so
    that morphs past the exact key length share prefix keys."""
    short = st.text("ab" + WIDE_FILLER[:2], min_size=1, max_size=4)
    long = st.tuples(st.sampled_from(_WIDE_PREFIXES), st.text("ab", max_size=5)).map("".join)
    return st.one_of(short, long)


def wide_morphs():
    """Sorted morph lists: a few :func:`wide_pieces` and every filler
    character."""
    return st.sets(wide_pieces(), max_size=10).map(lambda ms: sorted(ms | set(WIDE_FILLER)))


def wide_words():
    """Lists of words glued from one to three :func:`wide_pieces` or "z",
    a character no morph holds."""
    word = st.lists(st.one_of(wide_pieces(), st.just("z")), min_size=1, max_size=3)
    return st.lists(word.map("".join), min_size=1, max_size=6)


class MorfOracleTrainer(_Trainer):
    """The recursive mutate-and-measure search, with its own string-keyed
    ``_visit``, ``_add`` and ``_remove``: every candidate is scored by
    adding its morphs to the lexicon with ``_add``, reading
    ``_tracked_total`` and removing them again, after which the running sum
    ``_sum_clogc`` is put back to the value it had before the adds.  A
    chosen split is committed as add right, recurse into left, remove
    right, recurse into right.  ``fallbacks`` counts the levels where the
    cap forbade every candidate and the cheapest split was taken anyway,
    ``searches`` the calls of ``_resegment``."""

    fallbacks = 0
    searches = 0

    def _add(self, morph, count):
        old = self._counts.get(morph, 0)
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

    def _remove(self, morph, count):
        old = self._counts.get(morph, 0)
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

    def _visit(self, word):
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

    def _fits_if_added(self, morph):
        if self.cap is None or len(morph) == 1 or self._counts.get(morph, 0) > 0:
            return True
        return self._effective_size() + 1 <= self.cap

    def _resegment(self, construction, weight):
        self.searches += 1
        if len(construction) == 1:
            self._add(construction, weight)
            return (construction,)

        best_cost = math.inf
        best_i = None
        whole_ok = self._fits_if_added(construction)
        s = self._sum_clogc
        if whole_ok:
            self._add(construction, weight)
            best_cost = self._tracked_total()
            self._remove(construction, weight)
            self._sum_clogc = s

        fallback = []
        for i in range(1, len(construction)):
            left, right = construction[:i], construction[i:]
            self._add(left, weight)
            self._add(right, weight)
            cost = self._tracked_total()
            fits = self._within_cap()
            self._remove(left, weight)
            self._remove(right, weight)
            self._sum_clogc = s
            fallback.append((cost, i))
            if fits and cost < best_cost - 1e-12:
                best_cost = cost
                best_i = i

        if best_i is None:
            if whole_ok:
                self._add(construction, weight)
                return (construction,)
            self.fallbacks += 1
            best_i = min(fallback)[1]

        left, right = construction[:best_i], construction[best_i:]
        self._add(right, weight)
        lparts = self._resegment(left, weight)
        self._remove(right, weight)
        rparts = self._resegment(right, weight)
        return lparts + rparts


# -- crf -------------------------------------------------------------------------


def extract_features(word, i, delta=3):
    """Window features for position ``i``: every character offset in
    [-delta, +delta] (padded outside the word) plus all substrings of
    length 2..delta lying fully inside both the window and the word.
    The order in which a walk over each training position meets them is
    the order ``crf.train_crf`` numbers the features in."""
    if not 0 <= i < len(word):
        raise DataError("position %d outside word of length %d" % (i, len(word)))
    n = len(word)
    feats = []
    for o in range(-delta, delta + 1):
        p = i + o
        feats.append((o, word[p] if 0 <= p < n else PAD))
    # lengths and start positions clamped to substrings inside both the
    # window [i - delta, i + delta] and the word
    for length in range(2, min(delta, n) + 1):
        for a in range(max(0, i - delta), min(i + delta + 1, n) - length + 1):
            feats.append((a - i, word[a : a + length]))
    return feats


def crf_oracle_feature_index(words, delta):
    """The window features of ``words`` numbered in the order a walk over
    each word's positions first meets them."""
    index = {}
    for word in words:
        for i in range(len(word)):
            for f in extract_features(word, i, delta):
                index.setdefault(f, len(index))
    return index


def crf_oracle_features(word, i, delta):
    """Window features by walking the whole window: every offset, then for
    each length every start position, keeping those inside the word."""
    feats = []
    for o in range(-delta, delta + 1):
        p = i + o
        feats.append((o, word[p] if 0 <= p < len(word) else PAD))
    for length in range(2, delta + 1):
        for a in range(i - delta, i + delta - length + 2):
            if 0 <= a and a + length <= len(word):
                feats.append((a - i, word[a : a + length]))
    return feats


def valid_bmes_sequences(n):
    out = []
    for seq in itertools.product(LABELS, repeat=n):
        if seq[0] not in START_LABELS or seq[-1] not in FINAL_LABELS:
            continue
        if any(b not in ALLOWED_NEXT[a] for a, b in zip(seq, seq[1:])):
            continue
        out.append(seq)
    return out


def crf_sequence_score(model, word, seq):
    total = 0.0
    for i, lab in enumerate(seq):
        j = _L[lab]
        for f in extract_features(word, i, model.delta):
            idx = model.feat_index.get(f)
            if idx is not None:
                total += model.weights[idx, j]
    for a, b in zip(seq, seq[1:]):
        total += model.trans[_L[a], _L[b]]
    return total


_START_MASK = np.array([0.0 if l in START_LABELS else -np.inf for l in LABELS])
_FINAL_MASK = np.array([0.0 if l in FINAL_LABELS else -np.inf for l in LABELS])


def crf_oracle_feature_ids(model, word):
    """Per position of ``word``, the ids of its window features the model
    knows, in ``extract_features`` order."""
    index = model.feat_index
    return [
        [index[f] for f in extract_features(word, i, model.delta) if f in index]
        for i in range(len(word))
    ]


def _crf_oracle_scores(model, word):
    """Emission scores and, per position, the ids of the known features."""
    feats = crf_oracle_feature_ids(model, word)
    scores = np.zeros((len(word), 4))
    for i, idxs in enumerate(feats):
        if idxs:
            scores[i] = model.weights[idxs].sum(axis=0)
    return scores, feats


def crf_oracle_scores(model, word):
    """Emission scores of ``word``, one position at a time."""
    return _crf_oracle_scores(model, word)[0]


def crf_oracle_decode(model, word):
    """Viterbi decoding of one word, its best next labels found with the
    suffix-best values; ties go to the lexicographically first sequence
    under B < E < M < S."""
    scores = crf_oracle_scores(model, word)
    n = len(word)
    suffix = np.empty((n, 4))
    suffix[-1] = scores[-1] + _FINAL_MASK
    for i in range(n - 2, -1, -1):
        suffix[i] = scores[i] + np.max(model.trans + suffix[i + 1][None, :], axis=1)
    best_next = np.argmax(model.trans[:, None, :] + suffix[None, 1:], axis=2).tolist()
    j = int(np.argmax(_START_MASK + suffix[0]))
    labels = [LABELS[j]]
    for i in range(n - 1):
        j = best_next[j][i]
        labels.append(LABELS[j])
    return SegmentedWord(word, labels_to_morphs(word, labels), mode=SURFACE)


def _crf_oracle_forward(scores, trans):
    n = scores.shape[0]
    alpha = np.empty((n, 4))
    alpha[0] = scores[0] + _START_MASK
    for i in range(1, n):
        alpha[i] = scores[i] + logsumexp(alpha[i - 1][:, None] + trans, axis=0)
    log_z = logsumexp(alpha[-1] + _FINAL_MASK)
    return alpha, log_z


def _crf_oracle_backward(scores, trans):
    n = scores.shape[0]
    beta = np.empty((n, 4))
    beta[-1] = _FINAL_MASK
    for i in range(n - 2, -1, -1):
        beta[i] = logsumexp(trans + (scores[i + 1] + beta[i + 1])[None, :], axis=1)
    return beta


def crf_oracle_marginals(model, word):
    """Label marginals and log partition value of one word, one position
    at a time."""
    scores, _ = _crf_oracle_scores(model, word)
    alpha, log_z = _crf_oracle_forward(scores, model.trans)
    beta = _crf_oracle_backward(scores, model.trans)
    return np.exp(alpha + beta - log_z), log_z


def crf_oracle_llgrad(model, dataset):
    """Regularized log-likelihood and packed gradient, word by word, with
    expected counts added feature by feature and pair by pair."""
    nfeat = len(model.feat_index)
    grad_w = np.zeros((nfeat, 4))
    grad_t = np.zeros((4, 4))
    ll = 0.0
    for entry in dataset.entries:
        word = entry.surface
        scores, feats = _crf_oracle_scores(model, word)
        n = len(word)
        lab_idx = [_L[l] for l in morphs_to_labels(entry.morphs)]

        gold = scores[np.arange(n), lab_idx].sum()
        gold += sum(model.trans[a, b] for a, b in zip(lab_idx, lab_idx[1:]))

        alpha, log_z = _crf_oracle_forward(scores, model.trans)
        beta = _crf_oracle_backward(scores, model.trans)
        ll += gold - log_z

        gamma = np.exp(alpha + beta - log_z)
        for i in range(n):
            for f in feats[i]:
                grad_w[f, lab_idx[i]] += 1.0
                grad_w[f] -= gamma[i]
        for i in range(n - 1):
            grad_t[lab_idx[i], lab_idx[i + 1]] += 1.0
            xi = (
                alpha[i][:, None]
                + model.trans
                + (scores[i + 1] + beta[i + 1])[None, :]
                - log_z
            )
            with np.errstate(invalid="ignore"):
                grad_t -= np.where(np.isneginf(xi), 0.0, np.exp(xi))

    packed = model.packed()
    ll -= 0.5 * model.l2 * float(packed @ packed)
    grad = np.concatenate(
        [grad_w.ravel(), np.asarray([grad_t[_L[a], _L[b]] for a, b in ALLOWED_PAIRS])]
    )
    grad -= model.l2 * packed
    return ll, grad


def crf_oracle_length_groups(model, dataset):
    """``crf._length_groups`` with each row's ids taken from
    :func:`crf_oracle_feature_ids`, so a row holds only the known ids, then
    the unknown id up to the widest row."""
    by_length = {}
    for entry in dataset.entries:
        by_length.setdefault(len(entry.surface), []).append(entry)
    rows, groups = [], []
    start = 0
    for n in sorted(by_length):
        group = by_length[n]
        for entry in group:
            rows.extend(crf_oracle_feature_ids(model, entry.surface))
        gold = np.array([[_L[l] for l in morphs_to_labels(e.morphs)] for e in group],
                        dtype=np.intp)
        groups.append((start, gold))
        start += gold.size
    unknown = len(model.feat_index)
    width = max([1, *map(len, rows)])
    slots = np.array([ids + [unknown] * (width - len(ids)) for ids in rows], dtype=np.intp)
    lengths = [n for _, gold in groups for n in [gold.shape[1]] * len(gold)]
    return slots.reshape(start, width), groups, Packing(lengths)


def crf_oracle_train_scipy(dataset, delta=3, l2=0.01, max_iters=200, tol=1e-5):
    """``crf.train_crf`` on scipy's L-BFGS-B in place of ``crf._lbfgs``:
    the same features, table and objective, the likelihood reached through
    ``crf.log_likelihood_and_gradient``.  Its ``stop_message`` is scipy's."""
    feat_index = crf._number_features([entry.surface for entry in dataset.entries], delta)
    model = CrfModel.zeros(delta, l2, feat_index)
    table = crf._length_groups(model, dataset)

    def objective(vec):
        model.set_packed(vec)
        ll, grad = crf.log_likelihood_and_gradient(model, dataset, table)
        return -ll, -grad

    history = []
    result = minimize(objective, model.packed(), jac=True, method="L-BFGS-B",
                      callback=lambda intermediate_result: history.append(-intermediate_result.fun),
                      options={"maxiter": max_iters, "gtol": tol, "ftol": 0.0})
    model.set_packed(result.x)
    model.objective_history = history
    model.nit = int(result.nit)
    model.stop_message = str(result.message)
    return model


def random_crf_model(data, delta=2, l2=0.0, seed=0):
    feat_index = crf_oracle_feature_index([entry.surface for entry in data.entries], delta)
    model = CrfModel.zeros(delta, l2, feat_index)
    rng = np.random.default_rng(seed)
    model.set_packed(rng.normal(scale=0.5, size=model.packed().shape))
    return model


# -- chains ----------------------------------------------------------------------


def chain_oracle_forward_backward(scores, start, trans, final):
    """``chain.forward_backward`` on a ``(chains, length, 4)`` batch of
    chains of one length: the recursion steps every chain of that length
    at once, one position after another."""
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


# -- flatcat ---------------------------------------------------------------------

_NEG_INF = float("-inf")


def _scalar_logsumexp(values):
    m = max(values, default=_NEG_INF)
    if m == _NEG_INF:
        return _NEG_INF
    return m + math.log(sum(math.exp(v - m) for v in values))


def flatcat_oracle_forward_backward(cm, morphs):
    """Log-space forward/backward over categories for one morph sequence,
    one dict lookup per category pair; returns (log-likelihood, alphas,
    betas) with ``alphas[i][cat]``."""
    n = len(morphs)
    first = {}
    for cat in CATEGORIES:
        if cat in START_CATS:
            first[cat] = cm.start_logp(cat) + cm.emit_logp(cat, morphs[0])
        else:
            first[cat] = _NEG_INF
    alphas = [first]
    for i in range(1, n):
        cur = {}
        for cat in CATEGORIES:
            e = cm.emit_logp(cat, morphs[i])
            if e == _NEG_INF:
                cur[cat] = _NEG_INF
                continue
            terms = [
                alphas[-1][pc] + cm.trans_logp(pc, cat)
                for pc in CATEGORIES
                if alphas[-1][pc] != _NEG_INF
            ]
            cur[cat] = _scalar_logsumexp(terms) + e if terms else _NEG_INF
        alphas.append(cur)
    ll = _scalar_logsumexp([alphas[-1][c] for c in FINAL_CATS])

    betas = [dict() for _ in range(n)]
    betas[-1] = {c: (0.0 if c in FINAL_CATS else _NEG_INF) for c in CATEGORIES}
    for i in range(n - 2, -1, -1):
        for cat in CATEGORIES:
            terms = []
            for nc in CAT_NEXT.get(cat, ()):
                e = cm.emit_logp(nc, morphs[i + 1])
                b = betas[i + 1][nc]
                if e == _NEG_INF or b == _NEG_INF:
                    continue
                terms.append(cm.trans_logp(cat, nc) + e + b)
            betas[i][cat] = _scalar_logsumexp(terms) if terms else _NEG_INF
    return ll, alphas, betas


def _flatcat_oracle_normalize(counts, previous):
    z = sum(counts.values())
    if z <= 0:
        return dict(previous)
    log_z = math.log(z)
    return {k: math.log(v) - log_z for k, v in sorted(counts.items()) if v > 0}


def flatcat_oracle_em(analyses, epsilon=1e-4, max_iters=20, diversity_threshold=3):
    """EM over the category HMM word by word, with expected counts added
    position by position into dicts; returns (CategoryModel, ll_history)."""
    analyses = dict(sorted(analyses.items()))
    cm = _initial_category_model(analyses, diversity_threshold)
    ll_history = []
    for _ in range(max_iters):
        start_counts = Counter()
        trans_counts = {c: Counter() for c in CATEGORIES}
        emit_counts = {c: Counter() for c in CATEGORIES}
        total_ll = 0.0
        for morphs in analyses.values():
            ll, alphas, betas = flatcat_oracle_forward_backward(cm, morphs)
            if ll == _NEG_INF:
                raise NumericError("zero-probability segmentation in EM")
            total_ll += ll
            n = len(morphs)
            for i in range(n):
                for cat in CATEGORIES:
                    g = alphas[i][cat] + betas[i][cat] - ll
                    if g == _NEG_INF or g != g:
                        continue
                    p = math.exp(g)
                    emit_counts[cat][morphs[i]] += p
                    if i == 0:
                        start_counts[cat] += p
            for i in range(n - 1):
                for pc in CATEGORIES:
                    if alphas[i][pc] == _NEG_INF:
                        continue
                    for nc in CAT_NEXT[pc]:
                        e = cm.emit_logp(nc, morphs[i + 1])
                        b = betas[i + 1][nc]
                        if e == _NEG_INF or b == _NEG_INF:
                            continue
                        g = alphas[i][pc] + cm.trans_logp(pc, nc) + e + b - ll
                        trans_counts[pc][nc] += math.exp(g)
        ll_history.append(total_ll)
        cm = CategoryModel(
            start=_flatcat_oracle_normalize(start_counts, cm.start),
            trans={c: _flatcat_oracle_normalize(trans_counts[c], cm.trans[c])
                   for c in CATEGORIES},
            emit={c: _flatcat_oracle_normalize(emit_counts[c], cm.emit[c])
                  for c in CATEGORIES},
        )
        if len(ll_history) >= 2 and ll_history[-1] - ll_history[-2] < epsilon:
            break
    return cm, ll_history


def _flatcat_oracle_lattice(model, word, strict):
    cm = model.categories
    total = model.total_tokens
    known = set()
    for table in cm.emit.values():
        known.update(table)
    n = len(word)
    # state: (position, category of the morph ending there)
    best = [dict() for _ in range(n + 1)]
    back = [dict() for _ in range(n + 1)]
    for end in range(1, n + 1):
        for start in range(end):
            m = word[start:end]
            for cat in CATEGORIES:
                logp = cm.emit_logp(cat, m)
                if logp == _NEG_INF:
                    if strict and m in known:
                        continue  # known morph, zero mass in this category
                    emit_cost = morf_unseen_cost(model, len(m), total)
                else:
                    emit_cost = -logp
                if start == 0:
                    slog = cm.start_logp(cat)
                    if slog == _NEG_INF:
                        continue
                    cand = -slog + emit_cost
                    prev_cat = None
                else:
                    # the previous category is chosen before the emission
                    # is added, the lowest one on a tie
                    cand = math.inf
                    prev_cat = None
                    for pc in CATEGORIES:
                        pcost = best[start].get(pc, math.inf)
                        tlog = cm.trans_logp(pc, cat)
                        if tlog == _NEG_INF:
                            continue
                        c = pcost - tlog
                        if c < cand:
                            cand = c
                            prev_cat = pc
                    if prev_cat is None:
                        continue
                    cand += emit_cost
                if cand < best[end].get(cat, math.inf):
                    best[end][cat] = cand
                    back[end][cat] = (start, prev_cat)
    finals = {c: v for c, v in best[n].items() if c in FINAL_CATS}
    if not finals:
        return None
    cat = min(finals, key=lambda c: (finals[c], c))
    morphs, cats = [], []
    pos = n
    while pos > 0:
        start, prev_cat = back[pos][cat]
        morphs.append(word[start:pos])
        cats.append(cat)
        pos, cat = start, prev_cat
    return morphs[::-1], cats[::-1]


def flatcat_oracle_segment(model, word):
    """Joint split-and-category decoding with dict lookups per substring,
    category and previous category; the relaxed lattice (unseen cost for
    zero-mass known morphs) runs when the strict one finds no path.
    Returns (morphs, categories) or None."""
    result = _flatcat_oracle_lattice(model, word, strict=True)
    if result is None:
        result = _flatcat_oracle_lattice(model, word, strict=False)
    return result


def flatcat_oracle_lattice_tables(cm):
    """``CategoryModel._lattice_tables`` by a walk over the dict tables:
    the emitted morphs' ids and their sorted lengths, each emitted morph's
    costs written into an all-inf array one entry at a time, the step
    costs read pair by pair, and a final cost of 0 for each word-final
    category."""
    morphs = dict.fromkeys(m for table in cm.emit.values() for m in table)
    ids = {m: i for i, m in enumerate(morphs)}
    emit = np.full((len(ids) + 1, 4), math.inf)
    for c, cat in enumerate(CATEGORIES):
        for morph, logp in cm.emit.get(cat, {}).items():
            emit[ids[morph], c] = -logp
    steps = -np.array([[cm.trans_logp(a, b) for b in CATEGORIES] for a in CATEGORIES]
                      + [[cm.start_logp(b) for b in CATEGORIES]])
    final = np.array([0.0 if cat in FINAL_CATS else math.inf for cat in CATEGORIES])
    return ids, sorted({len(m) for m in ids if m}), emit, steps, final


# -- emma ------------------------------------------------------------------------


def _emma_oracle_weights(pred_entries, gold_entries):
    """(pred morph, gold morph) -> the sum over words of the smaller of the
    two morphs' counts in the word, for each pair that co-occurs."""
    co = Counter()
    for p, g in zip(pred_entries, gold_entries):
        pc, gc = Counter(p), Counter(g)
        for pm, pn in pc.items():
            for gm, gn in gc.items():
                co[(pm, gm)] += min(pn, gn)
    return co


def emma_oracle_matching(pred_entries, gold_entries):
    """Maximum-weight one-to-one matching by permutation enumeration."""
    co = _emma_oracle_weights(pred_entries, gold_entries)
    pred_types = sorted({pm for pm, _ in co})
    gold_types = sorted({gm for _, gm in co})
    small, large, flip = (
        (pred_types, gold_types, False)
        if len(pred_types) <= len(gold_types)
        else (gold_types, pred_types, True)
    )
    best = 0.0
    for perm in itertools.permutations(large, len(small)):
        total = 0.0
        for s, l in zip(small, perm):
            total += co[(l, s)] if flip else co[(s, l)]
        best = max(best, total)
    return best


def emma_oracle_dense(pred, gold):
    """``metrics.emma_f1`` from Counter loops and a dense (pred types x
    gold types) weight matrix solved with ``linear_sum_assignment``."""
    co = _emma_oracle_weights([p.morphs for p in pred.entries], [g.morphs for g in gold.entries])
    n_pred = sum(len(p.morphs) for p in pred.entries)
    n_gold = sum(len(g.morphs) for g in gold.entries)
    exact = sum(p.morphs == g.morphs for p, g in zip(pred.entries, gold.entries))
    pred_types = {t: i for i, t in enumerate(sorted({pm for pm, _ in co}))}
    gold_types = {t: i for i, t in enumerate(sorted({gm for _, gm in co}))}
    weight = np.zeros((len(pred_types), len(gold_types)))
    for (pm, gm), w in co.items():
        weight[pred_types[pm], gold_types[gm]] = w
    rows, cols = linear_sum_assignment(-weight)
    matched = float(weight[rows, cols].sum())
    precision = matched / n_pred if n_pred else 0.0
    recall = matched / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return SegScore(precision=precision, recall=recall, f1=f1,
                    accuracy=exact / len(pred.entries))


def random_emma_instance(rng):
    """Aligned pred/gold segmentations with at most 6 morph types per side."""
    while True:
        surfaces, preds, golds = [], [], []
        for _ in range(rng.randint(1, 5)):
            word = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
            surfaces.append(word)

            def split(w):
                bounds = sorted(rng.sample(range(1, len(w)), rng.randint(0, len(w) - 1)))
                return tuple(w[a:b] for a, b in zip([0] + bounds, bounds + [len(w)]))

            preds.append(split(word))
            golds.append(split(word))
        if (
            len({m for ms in preds for m in ms}) <= 6
            and len({m for ms in golds for m in ms}) <= 6
        ):
            return surfaces, preds, golds


@st.composite
def emma_datasets(draw, max_words=6):
    """Aligned (pred, gold) segmentation datasets over a two-letter
    alphabet, so morphs repeat within and across words and either side can
    have more than 6 types; in some draws the gold side is canonical, its
    morphs free strings that need not spell the surface."""
    morph = st.text("ab", min_size=1, max_size=3)
    preds = draw(st.lists(st.lists(morph, min_size=1, max_size=5),
                          min_size=1, max_size=max_words))
    surfaces = ["".join(ms) for ms in preds]
    mode = draw(st.sampled_from((SURFACE, CANONICAL)))
    golds = []
    for word in surfaces:
        if mode == CANONICAL:
            golds.append(draw(st.lists(st.text("ab2", min_size=1, max_size=3),
                                       min_size=1, max_size=5)))
        else:
            cuts = sorted(draw(st.sets(st.integers(1, len(word) - 1), max_size=4))
                          if len(word) > 1 else ())
            golds.append([word[a:b] for a, b in zip([0, *cuts], [*cuts, len(word)])])

    def dataset(analyses, mode):
        return SegmentationDataset(
            tuple(SegmentedWord(w, tuple(ms), mode=mode) for w, ms in zip(surfaces, analyses)),
            mode=mode)

    return dataset(preds, SURFACE), dataset(golds, mode)


# -- MT metrics ------------------------------------------------------------------


def mt_oracle_tokenize_13a(line):
    """The mteval-v13a rules applied one uncompiled substitution at a time."""
    norm = line
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")

    norm = " {} ".format(norm)
    norm = re.sub(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])", " \\1 ", norm)
    norm = re.sub(r"([^0-9])([\.,])", "\\1 \\2 ", norm)
    norm = re.sub(r"([\.,])([^0-9])", " \\1 \\2", norm)
    norm = re.sub(r"([0-9])(-)", "\\1 \\2 ", norm)
    norm = re.sub(r"\s+", " ", norm)
    norm = re.sub(r"^\s+", "", norm)
    norm = re.sub(r"\s+$", "", norm)
    return norm


def _mt_oracle_ngrams(tokens, max_order):
    counts = Counter()
    for n in range(1, max_order + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


def bleu_oracle_sentence_stats(hyp, ref):
    """[correct_1..4, total_1..4, hyp_len, ref_len] of one sentence pair,
    tokenizing and counting both sides afresh."""
    hyp_toks = mt_oracle_tokenize_13a(hyp.rstrip()).split()
    ref_toks = mt_oracle_tokenize_13a(ref.rstrip()).split()
    stats = np.zeros(2 * BLEU_ORDER + 2)
    hyp_ngrams = _mt_oracle_ngrams(hyp_toks, BLEU_ORDER)
    ref_ngrams = _mt_oracle_ngrams(ref_toks, BLEU_ORDER)
    for ngram, cnt in hyp_ngrams.items():
        n = len(ngram)
        stats[n - 1] += min(cnt, ref_ngrams.get(ngram, 0))
        stats[BLEU_ORDER + n - 1] += cnt
    stats[-2] = len(hyp_toks)
    stats[-1] = len(ref_toks)
    return stats


def _mt_oracle_char_ngrams(s, n):
    return Counter(s[i : i + n] for i in range(len(s) - n + 1))


def chrf_oracle_sentence_stats(hyp, ref):
    """[hyp_ngrams, ref_ngrams, matched] for each order 1..6, whitespace
    removed from both sides first, every total counted n-gram by n-gram."""
    hyp = re.sub(r"\s+", "", hyp)
    ref = re.sub(r"\s+", "", ref)
    stats = np.zeros(3 * CHRF_ORDER)
    for i in range(CHRF_ORDER):
        hc = _mt_oracle_char_ngrams(hyp, i + 1)
        rc = _mt_oracle_char_ngrams(ref, i + 1)
        stats[3 * i] = sum(hc.values())
        stats[3 * i + 1] = sum(rc.values())
        stats[3 * i + 2] = sum((hc & rc).values())
    return stats


def mt_oracle_clipped_matches(refs, systems, max_order):
    """For each system, the (sentences, max_order) clipped n-gram matches
    against ``refs``, with symbols coded by a dict and two sorts per order:
    one numbering the n-grams, one counting them per line."""
    n_sent = len(refs)
    seqs = refs + [seq for hyps in systems for seq in hyps]
    vocab = {}
    codes = np.array([vocab.setdefault(sym, len(vocab)) for seq in seqs for sym in seq],
                     dtype=np.int64)
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    # input k's sentence i is line k * n_sent + i (the references are input 0)
    line = np.repeat(np.arange(len(seqs)), lengths)
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(codes))  # symbols to line end
    at, gram = np.arange(len(codes)), codes  # where each n-gram starts, and its id
    matches = [np.zeros((n_sent, max_order)) for _ in systems]
    for n in range(max_order):
        if n:
            # extend every n-gram with room by its next symbol; equal
            # (n+1)-grams get equal ids, on every input
            keep = room[at] > n
            at = at[keep]
            gram = np.unique(gram[keep] * len(vocab) + codes[at + n], return_inverse=True)[1]
        width = len(at) + 1
        keys, counts = np.unique(line[at] * width + gram, return_counts=True)
        bounds = np.searchsorted(keys, np.arange(len(systems) + 2) * n_sent * width)
        ref_keys = np.append(keys[: bounds[1]], -1)  # -1 matches no key past the last one
        ref_counts = counts[: bounds[1]]
        for k, out in enumerate(matches, 1):
            sys_keys = keys[bounds[k] : bounds[k + 1]] - k * n_sent * width
            sys_counts = counts[bounds[k] : bounds[k + 1]]
            idx = np.searchsorted(ref_keys[:-1], sys_keys)
            found = ref_keys[idx] == sys_keys
            clipped = np.minimum(sys_counts[found], ref_counts[idx[found]])
            out[:, n] = np.bincount(sys_keys[found] // width, weights=clipped, minlength=n_sent)
    return matches


# pieces of hostile MT lines: 13a entities, number punctuation, unicode,
# words shorter than chrF's order; MT_SEPARATORS go between them
MT_FRAGMENTS = (
    "ka", "wi", "Su", "kawikawisu", "&amp;", "&quot;", "&lt;b&gt;", "1,000.5", "3-4",
    "x-", "-y", "a.b", "e.g.", ",", ".", "-", "don't", "(x)", "50%", "a/b", "<skipped>",
    "é", "e\u0301", "Straße", "日本語", "\U0001f642", "ǅ", "İ",
)
MT_SEPARATORS = ("", " ", "  ", "\t", "\n", "\u00a0", "\u3000", "\x1c", "\u2028")


def mt_lines():
    """Hostile MT lines: joined fragments, any short text, blank lines."""
    joined = st.lists(
        st.tuples(st.sampled_from(MT_SEPARATORS), st.sampled_from(MT_FRAGMENTS)), max_size=8
    ).map(lambda parts: "".join(sep + frag for sep, frag in parts))
    return st.one_of(joined, st.text(max_size=7), st.sampled_from(("", " ", "\t", "   ")))


def mt_corpus(systems, max_sentences=6):
    """``systems`` hypothesis line lists plus a reference list, equally long."""
    return st.integers(0, max_sentences).flatmap(
        lambda n: st.lists(st.lists(mt_lines(), min_size=n, max_size=n),
                           min_size=systems + 1, max_size=systems + 1)
    )


MT_ORACLES = {
    "bleu": (bleu_oracle_sentence_stats, bleu_score_from_stats, 2 * BLEU_ORDER + 2),
    "chrf": (chrf_oracle_sentence_stats, chrf_score_from_stats, 3 * CHRF_ORDER),
}


def mt_oracle_stats(metric, hyps, refs):
    """(sentences, width) statistics, one string pair at a time."""
    sentence_stats, _, width = MT_ORACLES[metric]
    return np.array([sentence_stats(h, r) for h, r in zip(hyps, refs)]).reshape(-1, width)


def mt_oracle_scores(metric, hyps, refs):
    """(corpus score, per-sentence scores) from the oracle statistics."""
    stats = mt_oracle_stats(metric, hyps, refs)
    score_fn = MT_ORACLES[metric][1]
    return float(score_fn(stats.sum(axis=0))[0]), tuple(float(x) for x in score_fn(stats))


def mt_oracle_randomization_p(sys_a, sys_b, refs, metric, trials, seed):
    """Paired sign-flip randomization over the whole flip matrix at once,
    recomputing each system's statistics from the strings and applying the
    swaps to each side separately."""
    stats_a = mt_oracle_stats(metric, sys_a, refs)
    stats_b = mt_oracle_stats(metric, sys_b, refs)
    score_fn = MT_ORACLES[metric][1]
    sum_a = stats_a.sum(axis=0)
    sum_b = stats_b.sum(axis=0)
    delta_obs = float(score_fn(sum_a)[0] - score_fn(sum_b)[0])
    n = len(refs)
    if n <= 20 and 2**n <= trials:
        patterns = np.arange(2**n)
        flips = (patterns[:, None] >> np.arange(n)[None, :]) & 1 == 1
        denominator, numerator_base = 2**n, 0
    else:
        flips = np.random.default_rng(seed).random((trials, n)) < 0.5
        denominator, numerator_base = 1 + trials, 1
    diff = stats_b - stats_a
    trial_a = sum_a[None, :] + flips @ diff
    trial_b = sum_b[None, :] - flips @ diff
    deltas = score_fn(trial_a) - score_fn(trial_b)
    return (numerator_base + int(np.sum(np.abs(deltas) >= abs(delta_obs)))) / denominator


# -- model files -------------------------------------------------------------------


def modelfile_oracle_read(path, family, header, sections, optional=0):
    """The row-by-row reader: ``sections`` maps each section name to one
    field converter per row field.  Returns the converted header fields,
    ``{section: [(line number, converted row), ...]}`` and the set of
    sections a ``<name>:`` line opened."""
    lines = read_lines(path)
    if not lines:
        raise ParseError("%s:1: empty model file" % (path,))
    head = lines[0].split(" ")
    n = len(head) - 2
    if (head[:2] != [family, modelfile.VERSION]
            or not len(header) - optional <= n <= len(header) or "" in head):
        raise ParseError("%s:1: bad %s header %r" % (path, family, lines[0]))
    values = [modelfile.field(path, 1, conv, text) for conv, text in zip(header, head[2:])]
    values += [None] * (len(header) - n)

    rows = {name: [] for name in sections}
    opened = set()
    section = next(iter(sections))
    for lineno, line in enumerate(lines[1:], start=2):
        if line.endswith(":") and line[:-1] in sections:
            section = line[:-1]
            opened.add(section)
            continue
        convs = sections[section]
        parts = line.split("\t")
        if len(parts) != len(convs):
            raise ParseError("%s:%d: expected %d TAB-separated fields in %s, got %d"
                             % (path, lineno, len(convs), section, len(parts)))
        rows[section].append((lineno, [modelfile.field(path, lineno, conv, text)
                                       for conv, text in zip(convs, parts)]))
    return values, rows, opened


def bpe_oracle_save_model(model, path):
    """Write a bpe model file one row at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("bpe v1 %d %s\n" % (model.target_vocab_size, bpe.MARKER))
        for a, b in model.merges:
            f.write("%s\t%s\n" % (a, b))


def morf_oracle_save_model(model, path):
    """Write a morf model file one row at a time."""
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


def crf_oracle_save_model(model, path):
    """Write a crf model file one row at a time, reading one numpy scalar
    per weight."""
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


def modelfile_oracle_unique(path, rows, width, what):
    """Raise a ParseError naming the first of ``rows`` (``(line number,
    row)`` pairs) whose first ``width`` fields repeat an earlier row's."""
    first = {}
    for lineno, row in rows:
        key = tuple(row[:width])
        if key in first:
            raise ParseError("%s:%d: repeated %s (first at line %d)"
                             % (path, lineno, what, first[key]))
        first[key] = lineno


def crf_oracle_load_model(path):
    """Load a crf model file row by row, one field at a time."""
    label = _L.__getitem__
    (delta, l2), rows, opened = modelfile_oracle_read(
        path, "crf", (int, crf._l2),
        {"features": (crf._feature_key, label, modelfile.finite),
         "transitions": (label, label, modelfile.finite)},
    )
    if not 1 <= delta <= crf.MAX_DELTA:
        raise ParseError("%s:1: window radius delta must be between 1 and %d, got %d"
                         % (path, crf.MAX_DELTA, delta))
    modelfile_oracle_unique(path, rows["features"], 2, "feature row")
    modelfile_oracle_unique(path, rows["transitions"], 2, "transition")
    feat_index = {}
    for _, (feat, _, _) in rows["features"]:
        feat_index.setdefault(feat, len(feat_index))
    model = CrfModel.zeros(delta, l2, feat_index)
    for _, (feat, lab, w) in rows["features"]:
        model.weights[feat_index[feat], lab] = w
    for lineno, (a, b, w) in rows["transitions"]:
        if model.trans[a, b] == -np.inf:
            raise ParseError("%s:%d: transition %s->%s is not allowed"
                             % (path, lineno, LABELS[a], LABELS[b]))
        model.trans[a, b] = w
    if "transitions" not in opened:
        raise ParseError("%s:1: crf model has no transitions: line" % (path,))
    return model


def bpe_oracle_load_model(path):
    """The target size and merges of a bpe model file, read row by row."""
    (target, _), rows, _ = modelfile_oracle_read(
        path, "bpe", (int, bpe._marker), {"merges": (str, str)})
    return target, [(a, b) for _, (a, b) in rows["merges"]]


def morf_oracle_load_model(path):
    """``(variant, alpha, cap, lexicon, categories)`` of a morf model file,
    read row by row; ``categories`` is ``(start, trans, emit)`` or None."""
    (variant, alpha, cap), rows, _ = modelfile_oracle_read(
        path, "morf", (morf._variant, modelfile.finite, int),
        {"lexicon": (str, morf._count),
         "transitions": (morf._source, morf._category, morf._bounded),
         "emissions": (morf._category, str, morf._bounded)},
        optional=1,
    )
    modelfile_oracle_unique(path, rows["lexicon"], 1, "lexicon morph")
    lexicon = Counter(dict(row for _, row in rows["lexicon"]))
    stray = rows["transitions"] + rows["emissions"]
    if variant != "flatcat" and stray:
        raise ParseError("%s:%d: a %s model has no category tables"
                         % (path, min(lineno for lineno, _ in stray), variant))
    if abs(alpha) > morf._MAX_MAGNITUDE:
        raise ParseError("%s:1: alpha %r is above %g in magnitude"
                         % (path, alpha, morf._MAX_MAGNITUDE))
    if variant != "flatcat":
        return variant, alpha, cap, lexicon, None
    modelfile_oracle_unique(path, rows["transitions"], 2, "transition")
    modelfile_oracle_unique(path, rows["emissions"], 2, "emission")
    start, trans, emit = {}, {}, {}
    for lineno, (src, dst, logp) in rows["transitions"]:
        if src == "<s>":
            if dst not in START_CATS:
                raise ParseError("%s:%d: a word cannot start with %s" % (path, lineno, dst))
            start[dst] = logp
        elif dst in CAT_NEXT[src]:
            trans.setdefault(src, {})[dst] = logp
        else:
            raise ParseError("%s:%d: transition %s->%s is not allowed"
                             % (path, lineno, src, dst))
    for _, (cat, morph, logp) in rows["emissions"]:
        emit.setdefault(cat, {})[morph] = logp
    if not start:
        raise ParseError("%s:1: flatcat model has no <s> start row" % (path,))
    if not any(cat in FINAL_CATS for cat in start):
        first = next(n for n, (src, _, _) in rows["transitions"] if src == "<s>")
        raise ParseError("%s:%d: no <s> row opens a word-final category (%s)"
                         % (path, first, " or ".join(FINAL_CATS)))
    if not emit:
        raise ParseError("%s:1: flatcat model has no emission rows" % (path,))
    return variant, alpha, cap, lexicon, (start, trans, emit)
