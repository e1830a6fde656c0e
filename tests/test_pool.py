"""The aspect pool under ``poisson_loglik`` and ranking: its results do not
depend on whether, or how widely, it runs, and it stays out of the way below
its size gate.

The pool is forced on by zeroing the gate and reporting two CPUs, and off by
reporting one; neither is a user setting.
"""

import contextlib
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dualvae import data, evaluation as ev, generation as gen, model, synth, tensor as T, trainer
from dualvae.errors import DomainError

from helpers import loop_ranking, stacked_codes, whole_matrix_rank


@contextlib.contextmanager
def pool(on: bool):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gen, "_GATE", 0 if on else gen._GATE)
        mp.setattr(gen, "_pool_width", lambda: 2 if on else 1)
        yield


class RecordingPool:
    """Stands in for the executor: runs each lane in the calling thread and
    counts it."""

    def __init__(self):
        self.lanes = 0

    def map(self, fn, items):
        items = list(items)
        self.lanes += len(items)
        return [fn(k) for k in items]


@pytest.fixture
def recording_pool(monkeypatch):
    stub = RecordingPool()
    monkeypatch.setattr(gen, "_pool", stub)
    monkeypatch.setattr(gen, "_pool_width", lambda: 2)
    return stub


def world(seed, b, n, A, d, dtype, density=0.3):
    """A frozen side of n entities, a batch's (A * b, 2d) codes and (b, A)
    probabilities, and its CSR target with some empty rows."""
    rng = np.random.default_rng(seed)
    frozen = gen.FrozenSide(stacked_codes(rng.standard_normal((n, A, d)).astype(dtype),
                                          np.tanh(rng.standard_normal((n, A, d))).astype(dtype)),
                            rng.dirichlet(np.ones(A), n).astype(dtype))
    r = (rng.random((b, n)) < density).astype(dtype)
    r[rng.random(b) < 0.3] = 0.0
    codes = 2.0 * rng.standard_normal((A * b, 2 * d)).astype(dtype)
    probs = rng.dirichlet(np.ones(A), b).astype(dtype)
    return frozen, codes, probs, sp.csr_matrix(r)


def loglik_and_grads(frozen, codes, probs, target, pinned):
    """The value, the codes gradient and (unless pinned) the probs gradient,
    with an upstream gradient other than 1; and the tape's node count."""
    x, p = T.Parameter("x", codes.copy()), T.Parameter("p", probs.copy())
    tape = T.Tape()
    value = gen.poisson_loglik(tape.leaf(x), T.constant(p.value) if pinned else tape.leaf(p),
                               frozen, target)
    nodes = len(tape.nodes)
    tape.backward(T.scale(value, 1.7))
    return [value.value, x.grad, p.grad], nodes


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 9), st.integers(1, 13), st.integers(1, 4),
       st.integers(1, 3), st.booleans(), st.sampled_from([np.float64, np.float32]))
def test_pooled_likelihood_is_bytewise_the_serial_one(seed, b, n, A, d, pinned, dtype):
    args = world(seed, b, n, A, d, dtype)
    with pool(False):
        want, _ = loglik_and_grads(*args, pinned)
    with pool(True):
        got, _ = loglik_and_grads(*args, pinned)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == dtype
        assert g.tobytes() == w.tobytes()


def snapshot(seed, m, n, A, d, dtype):
    rng = np.random.default_rng(seed)
    return model.Snapshot(
        C=rng.dirichlet(np.ones(A), n).astype(dtype), P=rng.dirichlet(np.ones(A), m).astype(dtype),
        user_codes=rng.standard_normal((A, m, 2 * d)).astype(dtype),
        item_codes=rng.standard_normal((A, n, 2 * d)).astype(dtype))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 23), st.integers(1, 13), st.integers(1, 4),
       st.integers(1, 3), st.integers(1, 5), st.sampled_from([np.float64, np.float32]))
def test_pooled_ranking_is_bytewise_the_serial_one(seed, m, n, A, d, block, dtype):
    # blocks of a few rows, so most draws have several and a ragged last one
    snap = snapshot(seed, m, n, A, d, dtype)
    rng = np.random.default_rng(seed)
    users = rng.permutation(m)[:rng.integers(1, m + 1)]
    mask = data.InteractionMatrix(m, n, rng.integers(0, m, 2 * m), rng.integers(0, n, 2 * m))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "_SCORE_BLOCK", block)
        with pool(False):
            want = ev.score_all(snap, users, [mask])
        with pool(True):
            got = ev.score_all(snap, users, [mask])
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 23), st.integers(1, 13), st.integers(1, 4),
       st.integers(1, 5), st.integers(1, 3), st.integers(1, 16), st.booleans(),
       st.sampled_from([np.float64, np.float32]))
def test_streamed_rank_is_bytewise_the_whole_matrix_rank(seed, m, n, A, chunk, block, top, on,
                                                         dtype):
    # chunks of a few users, so most draws have several and a ragged last
    # one. Codes on a grid of 1/4 make every skip score exact, so a one-row
    # task (a vector-matrix product) rounds as a matrix product does, and
    # many scores tie; so do the items whose aspect probabilities are all 0.
    # A dense mask leaves some users fewer unmasked items than top.
    snap = snapshot(seed, m, n, A, 2, dtype)
    for codes in (snap.user_codes, snap.item_codes):
        codes[...] = np.round(4.0 * codes) / 4.0
    rng = np.random.default_rng(seed)
    snap.C[rng.random(n) < 0.3] = 0.0
    users = rng.permutation(m)[:rng.integers(0, m + 1)]
    mask = data.InteractionMatrix(m, n, rng.integers(0, m, 3 * m), rng.integers(0, n, 3 * m))
    with pool(False):
        want = whole_matrix_rank(snap, users, [mask], top)
    with pytest.MonkeyPatch.context() as mp, pool(on):
        mp.setattr(ev, "_RANK_USERS", chunk)
        mp.setattr(ev, "_SCORE_BLOCK", block)
        got = ev.rank(snap, users, [mask], top)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 23), st.integers(1, 13), st.integers(1, 4),
       st.sampled_from(["valid", "test", "train"]),
       st.sampled_from([(1,), (3, 8), (20,), (2, 50), (5, 12, 13)]), st.integers(1, 5),
       st.booleans(), st.sampled_from([np.float64, np.float32]))
def test_held_ranks_are_bytewise_the_whole_matrix_metrics(seed, m, n, A, target, cutoffs, chunk,
                                                          on, dtype):
    # codes on a grid of 1/4 and items with all-zero aspect probabilities make
    # many scores tie, at the K-th best value too; dense random splits leave
    # some users fewer unmasked items than K and mask some held items; most
    # cutoffs pass the item count
    snap = snapshot(seed, m, n, A, 2, dtype)
    for codes in (snap.user_codes, snap.item_codes):
        codes[...] = np.round(4.0 * codes) / 4.0
    rng = np.random.default_rng(seed)
    snap.C[rng.random(n) < 0.3] = 0.0

    def pairs(k):
        return data.InteractionMatrix(m, n, rng.integers(0, m, k * m), rng.integers(0, n, k * m))

    split = data.DatasetSplit(pairs(3), pairs(1), pairs(2), {})
    with pool(False):
        want = loop_ranking(None, snap, split, target, cutoffs)
    with pytest.MonkeyPatch.context() as mp, pool(on):
        mp.setattr(ev, "_RANK_USERS", chunk)
        got = ev.evaluate_ranking(None, snap, split, target, cutoffs)
    assert got.keys() == want.keys()
    for key in want:
        assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes(), key


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 9), st.integers(1, 13), st.integers(1, 13),
       st.sampled_from([np.float64, np.float32]))
def test_pooled_partition_is_bytewise_the_serial_one(seed, rows, items, top, dtype):
    rng = np.random.default_rng(seed)
    scores = (np.round(4.0 * rng.standard_normal((rows, items))) / 4.0).astype(dtype)
    scores[rng.random((rows, items)) < 0.3] = -np.inf
    top = min(top, items)
    want = ev._best_values(scores, top, np.empty((1, rows, items), dtype))
    with pool(True):
        got = ev._best_values(scores, top, np.empty((2, -(-rows // 2), items), dtype))
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()
    ordered = np.sort(scores, axis=1)
    assert (want[:, 0] == ordered[:, items - top]).all()
    assert (np.sort(want, axis=1) == ordered[:, items - top:]).all()


def test_pooled_ranking_lanes_keep_their_own_scratch():
    # blocks large enough that the two lanes' BLAS and ufunc calls overlap,
    # with frequent thread switches: a scratch array shared between lanes
    # would mix one block's addends into another's rows
    snap = snapshot(5, 256, 4000, 4, 16, np.float64)
    users = np.arange(256)
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ev, "_SCORE_BLOCK", 64)
            with pool(False):
                want = ev.score_block(snap, users)
            with pool(True):
                for _ in range(3):
                    assert ev.score_block(snap, users).tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(switch)


def test_forced_pool_runs_lanes_on_worker_threads_and_keeps_task_order():
    with pool(True):
        got = gen._map(lambda k, lane: (k, lane, threading.current_thread().name), 5, 2)
    assert [(k, lane) for k, lane, _ in got] == [(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)]
    assert all(name.startswith("dualvae-aspect") for _, _, name in got)


@pytest.mark.parametrize("n, lanes", [(1023, 0), (1024, 2)])
def test_likelihood_uses_the_pool_only_from_the_gate_up(recording_pool, n, lanes):
    # b * n = 128 * 1024 = 2 ** 17 cells per aspect is the smallest pooled block
    frozen, codes, probs, target = world(0, 128, n, 4, 2, np.float64, density=0.01)
    loglik_and_grads(frozen, codes, probs, target, pinned=False)
    assert recording_pool.lanes == 2 * lanes  # the forward and the codes backward


@pytest.mark.parametrize("m, n, lanes", [(20, 3000, 0), (300, 1310, 0), (300, 1311, 2)])
def test_ranking_uses_the_pool_only_from_the_gate_up(recording_pool, m, n, lanes):
    # 20 users (what recommend ranks) are one task; 300 users are three
    # 100-row tasks, and 100 * 1311 is the first width past 2 ** 17 cells
    ev.score_all(snapshot(0, m, n, 4, 2, np.float64), np.arange(m), [])
    assert recording_pool.lanes == lanes


@pytest.mark.parametrize("m, n, lanes", [(256, 400, 0), (512, 1025, 4)])
def test_held_ranks_partition_on_the_pool_only_from_the_gate_up(recording_pool, m, n, lanes):
    # a planted-size pass (256 users, 400 items) partitions in a plain loop;
    # 512 users are two chunks, whose 128-row halves of 1,025 items are past
    # 2 ** 17 cells, so each chunk runs two lanes. One score task per chunk,
    # which runs no lane, leaves the partition's lanes alone on the count.
    rng = np.random.default_rng(0)
    held = data.InteractionMatrix(m, n, np.arange(m), rng.integers(0, n, m))
    split = data.DatasetSplit(held, held, held, {})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "_SCORE_BLOCK", m)
        ev.evaluate_ranking(None, snapshot(0, m, n, 4, 2, np.float64), split, "train", (20, 50))
    assert recording_pool.lanes == lanes


def test_pooled_zero_stored_score_is_domain_error():
    # aspect 1's frozen probability of item 0 is 0 and aspect 0's skip sigmoid
    # underflows there, so the stored pair (0, 0) scores exactly 0
    frozen, codes, probs, target = world(1, 6, 8, 2, 1, np.float64)
    frozen.probs[0] = [1.0, 0.0]
    frozen.codes[0, 0] = [1.0, 0.0]
    frozen = gen.FrozenSide(frozen.codes, frozen.probs)  # its negated codes, after the edit
    codes[:6] = [-1000.0, 0.0]
    target = sp.csr_matrix(np.eye(6, 8))
    for on in (False, True):
        with pool(on), pytest.raises(DomainError, match="strictly positive where r > 0"):
            gen.poisson_loglik(T.constant(codes), T.constant(probs), frozen, target)


def test_pooled_likelihood_records_one_tape_node():
    args = world(2, 8, 9, 4, 2, np.float64)
    with pool(True):
        _, nodes = loglik_and_grads(*args, pinned=False)
    assert nodes == 3  # the two leaves and the likelihood


def test_planted_fit_gives_the_same_checkpoint_bytes_with_the_pool(tmp_path):
    matrix, _ = synth.generate(400, 400, 4, 0.0125, 1)
    split = data.split(matrix, 0.8, 0.5, seed=1)
    blobs = []
    for on in (False, True):
        cfg = trainer.TrainConfig(aspects=4, dim=25, hidden=64, lr=0.03, temp=0.7, epochs=2,
                                  seed=1, patience=100)
        with pool(on):
            result = trainer.fit(split, cfg)
        path = tmp_path / f"pool_{on}.ckpt"
        trainer.save_checkpoint(result.checkpoint, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.floats(-2000.0, 50.0), st.just(np.nan), st.just(-np.inf)),
                max_size=12),
       st.sampled_from([np.float64, np.float32]))
def test_logistic_is_bytewise_the_always_masked_form(values, dtype):
    v = np.array(values, dtype)
    with np.errstate(invalid="ignore"):
        got = T._logistic(v)
    assert got.dtype == dtype and got.tobytes() == always_masked_logistic(v).tobytes()


def always_masked_logistic(v):
    """The logistic in the form that always builds the v < -40 mask."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = 1.0 / (1.0 + np.exp(-v))
        out[v < -40.0] = np.exp(v[v < -40.0])
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 9), st.integers(1, 13), st.integers(1, 3),
       st.floats(0.1, 300.0), st.sampled_from([np.float64, np.float32]))
def test_skip_sigmoid_from_negated_codes_is_bytewise_the_logistic_of_the_product(
        seed, b, n, d, spread, dtype):
    # spread codes reach the logistic's -40 tail and exp's overflow in both dtypes
    frozen, codes, _, _ = world(seed, b, n, 1, d, dtype)
    code = (spread * codes).astype(dtype)
    want = always_masked_logistic(code @ frozen.codes[0].T)
    got = gen._skip_sigmoid(code, frozen, 0)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
