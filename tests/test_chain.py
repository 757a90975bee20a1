import time
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import chain_oracle_forward_backward

from polyseg.chain import Packing, forward_backward
from polyseg.crf import CrfModel, _FINAL_MASK, _START_MASK


def _bmes_trans(rng):
    """The crf's transition table, forbidden pairs -inf, with random values
    on the allowed ones."""
    trans = CrfModel.zeros(1, 0.0, {}).trans
    return np.where(np.isneginf(trans), -np.inf, rng.uniform(-3.0, 3.0, (4, 4)))


def _with_minus_inf(rng, values, share):
    return np.where(rng.random(values.shape) < share, -np.inf, values)


def _per_length(scores, lengths, start, trans, final):
    """The oracle run once per length on that length's chains, its values
    put back in the rows and chain order of ``scores``."""
    starts = np.cumsum([0] + lengths)
    alpha, beta = np.empty_like(scores), np.empty_like(scores)
    log_z = np.empty(len(lengths))
    for n in sorted(set(lengths)):
        chains = [c for c, m in enumerate(lengths) if m == n]
        rows = (starts[chains][:, None] + np.arange(n)).ravel()
        a, b, z = chain_oracle_forward_backward(scores[rows].reshape(len(chains), n, 4),
                                                start, trans, final)
        alpha[rows], beta[rows], log_z[chains] = a.reshape(-1, 4), b.reshape(-1, 4), z
    return alpha, beta, log_z


LENGTHS = st.one_of(
    st.lists(st.integers(1, 9), min_size=1, max_size=12),  # mixed
    st.integers(1, 8).map(lambda k: [1] * k),  # only length-1 chains
    st.integers(1, 12).map(lambda n: [n]),  # one chain
    st.tuples(st.integers(1, 9), st.integers(2, 8)).map(lambda nk: [nk[0]] * nk[1]),  # equal
)


class TestPackedMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(lengths=LENGTHS, seed=st.integers(0, 2**32 - 1),
           share=st.sampled_from((0.0, 0.2, 0.6)), bmes=st.booleans())
    def test_bit_for_bit(self, lengths, seed, share, bmes):
        rng = np.random.default_rng(seed)
        scores = _with_minus_inf(rng, rng.uniform(-30.0, 30.0, (sum(lengths), 4)), share)
        if bmes:  # the crf's forbidden transitions, starts and ends
            start, trans, final = _START_MASK, _bmes_trans(rng), _FINAL_MASK
        else:
            start, trans, final = (_with_minus_inf(rng, rng.uniform(-3.0, 3.0, shape), share)
                                   for shape in (4, (4, 4), 4))
        got = forward_backward(scores, Packing(lengths), start, trans, final)
        want = _per_length(scores, lengths, start, trans, final)
        for g, w in zip(got, want):
            # C order, which the per-length sums over these values assume
            assert g.shape == w.shape and g.flags.c_contiguous
            assert g.tobytes() == w.tobytes()

    def test_layout(self):
        # chains of lengths 2, 3, 1, 3 start at rows 0, 2, 5 and 6; longest
        # first, equal lengths in caller order: chains 1, 3, 0, 2
        packing = Packing([2, 3, 1, 3])
        assert packing.offsets == [0, 4, 7, 9]
        assert packing.order.tolist() == [2, 6, 0, 5, 3, 7, 1, 4, 8]
        assert packing.index.tolist() == [2, 6, 0, 4, 7, 3, 1, 5, 8]
        assert packing.last.tolist() == [6, 7, 3, 8]
        assert packing.chain.tolist() == [0, 0, 1, 1, 1, 2, 3, 3, 3]

    def test_empty_batch(self):
        packing = Packing([])
        assert packing.offsets == [0]
        alpha, beta, log_z = forward_backward(np.zeros((0, 4)), packing, _START_MASK,
                                              _bmes_trans(np.random.default_rng(0)),
                                              _FINAL_MASK)
        assert (alpha.shape, beta.shape, log_z.shape) == ((0, 4), (0, 4), (0,))


def test_one_long_chain_among_short_ones_stays_linear():
    # a padded layout would hold 101 chains of 20000 positions: ~65 MB of
    # scores alone; the packed one holds each position once in each array
    rng = np.random.default_rng(5)
    lengths = [20000] + rng.integers(1, 9, 100).tolist()
    scores = rng.uniform(-5.0, 5.0, (sum(lengths), 4))
    trans = _bmes_trans(rng)
    tracemalloc.start()
    try:
        began = time.perf_counter()
        alpha, beta, log_z = forward_backward(scores, Packing(lengths), _START_MASK, trans,
                                              _FINAL_MASK)
        seconds = time.perf_counter() - began
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(log_z).all()
    # scores.nbytes is 32 bytes a position
    assert peak < 12 * scores.nbytes
    assert seconds < 30.0
    # the short chains' values are those of the oracle
    short = _per_length(scores[20000:], lengths[1:], _START_MASK, trans, _FINAL_MASK)
    for got, want in zip((alpha[20000:], beta[20000:], log_z[1:]), short):
        assert got.tobytes() == want.tobytes()
