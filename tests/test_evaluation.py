import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvae import data, evaluation as ev, generation as gen, model, tensor as T

from helpers import (aspect_addends, from_dense, loop_ranking, ndcg_at_n, recall_at_n,
                     snapshot_addends, stable_top_n)


def brute_force_metrics(order, test_set, n):
    """Set/loop arithmetic straight from the definitions."""
    hits = [r for r, item in enumerate(order[:n], start=1) if item in test_set]
    recall = len(hits) / min(n, len(test_set))
    dcg = sum(1.0 / np.log2(r + 1) for r in hits)
    idcg = sum(1.0 / np.log2(r + 1) for r in range(1, min(n, len(test_set)) + 1))
    return recall, dcg / idcg


def test_recall_all_hits_and_no_hits():
    top = np.array([3, 1, 4, 0, 5])
    assert recall_at_n(top, {3, 1, 4}, 5) == 1.0
    assert recall_at_n(top, {9, 8}, 5) == 0.0


def test_recall_two_of_three_hits():
    top = np.arange(20)
    assert abs(recall_at_n(top, {0, 5, 99}, 20) - 2 / 3) < 1e-12


def test_recall_capped_denominator():
    # more test items than the cutoff: denominator is N, not |test|
    top = np.arange(5)
    assert recall_at_n(top, set(range(50)), 5) == 1.0


def test_ndcg_rank_one_and_rank_two():
    assert ndcg_at_n(np.array([7, 3, 9]), {7}, 20) == 1.0
    got = ndcg_at_n(np.concatenate([[3], [7], np.arange(100, 118)]), {7}, 20)
    assert abs(got - 1.0 / np.log2(3)) < 1e-12


def test_ndcg_perfect_prefix():
    for k in (1, 3, 5):
        top = np.arange(20)
        assert abs(ndcg_at_n(top, set(range(k)), 20) - 1.0) < 1e-12


def test_metrics_match_brute_force_on_random_instances():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n_items = int(rng.integers(10, 60))
        cutoff = int(rng.integers(1, 25))
        order = rng.permutation(n_items)
        n_test = int(rng.integers(1, 8))
        test_set = set(int(x) for x in rng.choice(n_items, n_test, replace=False))
        want_r, want_n = brute_force_metrics(list(order), test_set, cutoff)
        assert abs(recall_at_n(order, test_set, cutoff) - want_r) < 1e-12
        assert abs(ndcg_at_n(order, test_set, cutoff) - want_n) < 1e-12


def test_metric_monotonicity_add_a_hit():
    rng = np.random.default_rng(9)
    for _ in range(100):
        order = rng.permutation(30)
        test_set = set(int(x) for x in rng.choice(30, 4, replace=False))
        in_top = [i for i in order[:10] if i in test_set]
        out_top = [i for i in order[:10] if i not in test_set]
        if not out_top:
            continue
        promoted = set(test_set) | {int(out_top[0])}
        assert recall_at_n(order, promoted, 10) >= recall_at_n(order, test_set, 10) - 1e-12
        assert ndcg_at_n(order, promoted, 10) >= ndcg_at_n(order, test_set, 10) - 1e-12


def test_ndcg_demotion_never_helps():
    order = list(range(20))
    for pos in range(19):
        better = ndcg_at_n(np.array(order), {pos}, 20)
        worse = ndcg_at_n(np.array(order), {pos + 1}, 20)
        assert better >= worse


def test_top_n_tie_break_by_index():
    scores = np.array([[0.5, 0.9, 0.5, 0.9]])
    np.testing.assert_array_equal(ev.top_n(scores, 4)[0], [1, 3, 0, 2])


_score = st.one_of(st.sampled_from([-np.inf, 0.0, -0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda cols: st.tuples(
    st.lists(st.lists(_score, min_size=cols, max_size=cols), min_size=1, max_size=5),
    st.integers(-1, cols + 2))), st.booleans())
def test_top_n_equals_stable_argsort(rows_and_n, first_row_masked):
    # repeated values and -inf (masked) entries put ties at the partition
    # boundary; n may reach or pass the number of finite entries
    rows, n = rows_and_n
    scores = np.array(rows, dtype=np.float64)
    if first_row_masked:
        scores[0] = -np.inf
    np.testing.assert_array_equal(ev.top_n(scores, n), stable_top_n(scores, n))


def test_top_n_equals_stable_argsort_on_wide_rows():
    rng = np.random.default_rng(4)
    scores = np.round(rng.random((300, 400)), 2)  # about four ties per value
    scores[rng.random(scores.shape) < 0.3] = -np.inf
    scores[:3] = -np.inf
    for n in (1, 20, 50, 280, 400):
        np.testing.assert_array_equal(ev.top_n(scores, n), stable_top_n(scores, n))
    distinct = rng.random((50, 400))
    np.testing.assert_array_equal(ev.top_n(distinct, 20), stable_top_n(distinct, 20))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 14), st.integers(2, 25),
       st.sampled_from(["valid", "test", "train"]),
       st.sampled_from([(1,), (5, 10), (20, 50), (3, 30)]), st.integers(3, 5))
def test_evaluate_ranking_matches_per_user_loop(seed, m, n, target, cutoffs, chunk):
    _, split, params, snap = scored_world(seed, m, n)
    want = loop_ranking(params, snap, split, target, cutoffs)
    got = ev.evaluate_ranking(params, snap, split, target=target, cutoffs=cutoffs)
    with pytest.MonkeyPatch.context() as mp:
        # several near-equal chunks; with at most 3 to 5 users a chunk, none
        # is a lone user, whose row a vector-matrix product would score
        mp.setattr(ev, "_RANK_USERS", chunk)
        chunked = ev.evaluate_ranking(params, snap, split, target=target, cutoffs=cutoffs)
    for result in (got, chunked):
        assert result["n_users"] == want["n_users"]
        for key in want:
            # bit-equal: validation Recall@20 is stored as the checkpoint's
            # best_metric, and NDCG sums the same discounts in the same order
            assert result[key] == want[key] or np.isnan(result[key]) and np.isnan(want[key]), key


def test_evaluate_ranking_builds_no_top_n_list(monkeypatch):
    # the metrics come from held-item ranks; rank and top_n serve recommend
    _, split, params, snap = scored_world(3, 12, 15)
    want = ev.evaluate_ranking(params, snap, split, "test", (5, 10))

    def refuse(*args):
        raise AssertionError("evaluate_ranking built a top-N list")

    monkeypatch.setattr(ev, "rank", refuse)
    monkeypatch.setattr(ev, "top_n", refuse)
    assert ev.evaluate_ranking(params, snap, split, "test", (5, 10)) == want


def test_a_fully_held_list_scores_exactly_one():
    # every item held: the hits are ranks 1..N, whose discounts summed in rank
    # order are the ideal cumulative sum bit for bit (in reverse order, the
    # 20 discounts round apart)
    rng = np.random.default_rng(2)
    m, n = 7, 60
    full = data.InteractionMatrix(m, n, np.repeat(np.arange(m), n), np.tile(np.arange(n), m))
    snap = model.Snapshot(rng.dirichlet(np.ones(2), n), rng.dirichlet(np.ones(2), m),
                          rng.standard_normal((2, m, 4)), rng.standard_normal((2, n, 4)))
    result = ev.evaluate_ranking(None, snap, data.DatasetSplit(full, full, full, {}), "train",
                                 (20, 50))
    assert [result[f"{metric}@{n}"] for metric in ("recall", "ndcg") for n in (20, 50)] == [1.0] * 4


def test_evaluate_ranking_memory_does_not_grow_with_users():
    # ranking streams its users in chunks: four times the users must not
    # add a users x items array (3,072 more rows of 2,000 float64 are 49 MB)
    peaks = []
    for m in (1024, 4096):
        rng = np.random.default_rng(m)
        pairs = [(np.repeat(np.arange(m), k), rng.integers(0, 2000, k * m)) for k in (20, 3, 3)]
        split = data.DatasetSplit(*(data.InteractionMatrix(m, 2000, u, i) for u, i in pairs), {})
        snap = model.Snapshot(rng.dirichlet(np.ones(2), 2000), rng.dirichlet(np.ones(2), m),
                              rng.standard_normal((2, m, 4)), rng.standard_normal((2, 2000, 4)))
        tracemalloc.start()
        try:
            ev.evaluate_ranking(None, snap, split, "valid", (20, 50))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 8e6


def test_metrics_reject_empty_test_set():
    with pytest.raises(ValueError):
        recall_at_n(np.arange(5), set(), 5)
    with pytest.raises(ValueError):
        ndcg_at_n(np.arange(5), set(), 5)


# ---------------------------------------------------------------------------
# model-backed scoring

def scored_world(seed=0, m=12, n=15):
    rng = np.random.default_rng(seed)
    dense = (rng.random((m, n)) < 0.4).astype(float)
    dense[:, 0] = 1.0
    matrix = from_dense(dense)
    split = data.split(matrix, 0.7, 0.1, seed=seed)
    params = model.ModelParams(m, n, 2, 3, 4, T.RngState(seed), np.float64)
    snap = model.bootstrap(matrix, params)
    snap = model.refresh(split.train, params, snap.C, snap.P, temp=0.5)
    return matrix, split, params, snap


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from([np.float32, np.float64]), st.integers(0, 2**31 - 1),
       st.integers(1, 40))
def test_a_lone_user_scores_as_in_a_larger_call(n_aspects, dtype, seed, n):
    # one user is scored as a two-row block, so recommend for one user prints
    # the bytes a multi-user call gives that user
    rng = np.random.default_rng(seed)
    m, d = 5, 3
    probs = [rng.dirichlet(np.ones(n_aspects), size) for size in (n, m)]
    snap = model.Snapshot(*(p.astype(dtype) for p in probs),
                          *(rng.uniform(-3.0, 3.0, (n_aspects, size, 2 * d)).astype(dtype)
                            for size in (m, n)))
    u, v = rng.integers(0, m, 2)
    alone, pair = ev.score_block(snap, [u]), ev.score_block(snap, [u, v])
    assert alone.shape == (1, n) and alone.dtype == dtype
    assert alone.tobytes() == pair[:1].tobytes()
    assert ev.rank(snap, [u], [], 3)[0].tolist() == ev.top_n(pair[:1], 3).tolist()


def test_scores_repeatable_and_in_range():
    _, split, params, snap = scored_world()
    users = np.arange(split.train.num_users)
    s1 = ev.score_block(snap, users)
    s2 = ev.score_block(snap, users)
    np.testing.assert_array_equal(s1, s2)
    assert np.all(s1 > 0.0) and np.all(s1 < 1.0)


def test_training_and_ranking_score_the_same_pairs():
    # the bootstrap snapshot's means were encoded under its own uniform C,
    # and pinned probabilities equal its uniform P, so training's
    # evaluation-mode scores and ranking's must agree
    rng = np.random.default_rng(4)
    matrix = from_dense((rng.random((9, 11)) < 0.4).astype(float))
    params = model.ModelParams(9, 11, 3, 4, 5, T.RngState(4), np.float64)
    snap = model.bootstrap(matrix, params)
    users = np.array([0, 3, 4, 8])
    rows = matrix.rows("user").select(users, np.float64)
    terms, fwd = gen.side_loss(
        rows, rows, params.enc_u, params.dec_u,
        None, snap.frozen("item"), temp=0.5, beta=1.0, eps=None, tape=None,
    )
    scores = ev.score_block(snap, users)
    codes = np.concatenate([fwd.z.value, gen.decode(fwd.z, params.dec_u).value], axis=1)
    training = sum(aspect_addends(codes, fwd.probs.value, snap.frozen("item")))
    np.testing.assert_allclose(training, scores, rtol=0.0, atol=1e-12)
    # and the fused likelihood is the Poisson term of those very scores
    r = matrix.densify_users(users)
    want = np.mean(np.sum(r * np.log(scores) - scores, axis=1))
    np.testing.assert_allclose(terms.recon.item(), want, rtol=1e-12)


def test_float32_snapshot_scores_in_float32():
    _, split, params, snap = scored_world(seed=2)
    snap32 = model.Snapshot(**{k: v.astype(np.float32) for k, v in vars(snap).items()})
    users = np.arange(split.train.num_users)
    got = ev.score_all(snap32, users, [split.train])
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, ev.score_all(snap, users, [split.train]), rtol=1e-5)


def test_masked_items_never_ranked():
    _, split, params, snap = scored_world(seed=3)
    users = np.arange(split.train.num_users)
    scores = ev.score_all(snap, users, [split.train, split.valid])
    ranked = ev.top_n(scores, 5)
    for k, u in enumerate(users):
        banned = set(split.train.user_items[u]) | set(split.valid.user_items[u])
        ranked_positive = [i for i in ranked[k] if np.isfinite(scores[k, i])]
        assert banned.isdisjoint(ranked_positive)


def test_evaluate_ranking_shapes_and_bounds():
    _, split, params, snap = scored_world(seed=5)
    out = ev.evaluate_ranking(params, snap, split, target="test", cutoffs=(5, 10))
    assert out["n_users"] > 0
    for key in ("recall@5", "recall@10", "ndcg@5", "ndcg@10"):
        assert 0.0 <= out[key] <= 1.0


def test_metrics_tsv_format(tmp_path):
    _, split, params, snap = scored_world(seed=6)
    out = ev.evaluate_ranking(params, snap, split, "test", (5, 10))
    path = tmp_path / "metrics.tsv"
    ev.write_metrics_tsv(path, out, cutoffs=(5, 10))
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["metric", "N", "value", "n_users"]
    assert len(lines) == 5
    assert lines[1].startswith("recall\t5\t")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from([np.float32, np.float64]), st.integers(0, 2**31 - 1))
def test_pair_addends_match_the_score_oracle(n_aspects, dtype, seed):
    rng = np.random.default_rng(seed)
    m, n, d = 7, 9, 3
    probs = [rng.dirichlet(np.ones(n_aspects), size) for size in (n, m)]
    snap = model.Snapshot(*(p.astype(dtype) for p in probs),
                          *(rng.uniform(-1.0, 1.0, (n_aspects, size, 2 * d)).astype(dtype)
                            for size in (m, n)))
    users = rng.integers(0, m, 20)
    items = rng.integers(0, n, 20)
    got = ev.pair_addends(snap, users, items)
    assert got.shape == (20, n_aspects) and got.dtype == dtype
    want = np.stack([x[np.arange(20), items] for x in snapshot_addends(snap, users)], axis=1)
    # the skip scores are 6-term dot products here and a matmul in the
    # oracle, so they round differently (at most 8 ulps seen in 4,000 cases)
    np.testing.assert_array_max_ulp(got, want, maxulp=16)
    total = got[:, 0].copy()
    for a in range(1, n_aspects):  # in aspect order, as score_block adds them
        total += got[:, a]
    np.testing.assert_array_max_ulp(total, ev.score_all(snap, users, [])[np.arange(20), items],
                                    maxulp=16)

