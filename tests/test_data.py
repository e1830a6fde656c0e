import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvae import data
from dualvae.errors import ConfigError, DataError
from helpers import from_dense, slow_ingest, slow_split


def write(tmp_path, text, name="inter.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def brute_force_kcore(pairs, ku, ki):
    """Independent iterative-deletion oracle."""
    pairs = set(pairs)
    changed = True
    while changed:
        changed = False
        users = {}
        items = {}
        for u, i in pairs:
            users.setdefault(u, set()).add(i)
            items.setdefault(i, set()).add(u)
        bad_u = {u for u, s in users.items() if len(s) < ku}
        bad_i = {i for i, s in items.items() if len(s) < ki}
        if bad_u or bad_i:
            pairs = {(u, i) for u, i in pairs if u not in bad_u and i not in bad_i}
            changed = True
    return pairs


def kcore_pairs(pairs, ku, ki):
    """``data.kcore_filter`` on a set of id pairs, as a set of id pairs."""
    pairs = sorted(set(pairs))
    users = sorted({u for u, _ in pairs})
    items = sorted({i for _, i in pairs})
    keep = data.kcore_filter(np.array([users.index(u) for u, _ in pairs], dtype=np.int64),
                             np.array([items.index(i) for _, i in pairs], dtype=np.int64),
                             ku, ki)
    return {p for p, k in zip(pairs, keep) if k}


# ---------------------------------------------------------------------------
# ingest

def test_ingest_full_bipartite_survives_2core(tmp_path):
    lines = "\n".join(f"u{u}\ti{i}" for u in range(3) for i in range(3))
    m = data.ingest(write(tmp_path, lines), min_user_core=2, min_item_core=2)
    assert (m.num_users, m.num_items, m.nnz) == (3, 3, 9)


def test_ingest_dedups_pairs(tmp_path):
    m = data.ingest(write(tmp_path, "a\tx\na\tx\nb\tx\n"))
    assert m.nnz == 2


def test_ingest_chain_matches_kcore_oracle(tmp_path):
    text = "u1\ti1\nu2\ti1\nu2\ti2\n"
    raw = [("u1", "i1"), ("u2", "i1"), ("u2", "i2")]
    expect = brute_force_kcore(raw, 2, 2)
    got = kcore_pairs(raw, 2, 2)
    assert got == expect
    if expect:
        m = data.ingest(write(tmp_path, text), min_user_core=2, min_item_core=2)
        assert m.nnz == len(expect)
    else:
        with pytest.raises(DataError):
            data.ingest(write(tmp_path, text), min_user_core=2, min_item_core=2)


def test_kcore_random_instances_match_oracle():
    rng = np.random.default_rng(99)
    for trial in range(25):
        nu, ni = rng.integers(3, 12), rng.integers(3, 12)
        pairs = {
            (int(u), int(i))
            for u, i in zip(rng.integers(0, nu, 40), rng.integers(0, ni, 40))
        }
        ku, ki = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        assert kcore_pairs(pairs, ku, ki) == brute_force_kcore(pairs, ku, ki)


def test_ingest_header_detection(tmp_path):
    m = data.ingest(write(tmp_path, "user\titem\n1\t10\n2\t10\n"))
    assert m.num_users == 2 and m.nnz == 2


def test_ingest_csv_and_extra_columns(tmp_path):
    m = data.ingest(write(tmp_path, "1,5,4.0,t\n2,5,3.5,t\n", name="r.csv"))
    assert m.num_users == 2 and m.num_items == 1


def test_ingest_bad_line_reports_number(tmp_path):
    with pytest.raises(DataError, match=":2"):
        data.ingest(write(tmp_path, "1\t2\nonlyonecolumn\n"))


def test_ingest_missing_file():
    with pytest.raises(DataError):
        data.ingest("/nonexistent/file.tsv")


def test_ingest_roundtrip_via_id_maps(tmp_path):
    rng = np.random.default_rng(3)
    lines = {(f"user{u}", f"thing{i}") for u, i in zip(rng.integers(0, 9, 50), rng.integers(0, 9, 50))}
    m1 = data.ingest(write(tmp_path, "\n".join(f"{u}\t{i}" for u, i in sorted(lines))))
    # serialize using the retained id maps, re-ingest, expect identical matrix
    out = "\n".join(f"{m1.user_ids[u]}\t{m1.item_ids[i]}" for u, i in m1.pairs())
    m2 = data.ingest(write(tmp_path, out, name="again.tsv"))
    assert m1.digest() == m2.digest()
    m1.write_id_maps(tmp_path / "maps")
    lines = (tmp_path / "maps" / "user_ids.tsv").read_text().splitlines()
    assert lines[0].split("\t") == [m1.user_ids[0], "0"]


# ---------------------------------------------------------------------------
# split

def make_matrix(num_users=20, num_items=15, density=0.4, seed=0):
    rng = np.random.default_rng(seed)
    dense = (rng.random((num_users, num_items)) < density).astype(float)
    dense[:, 0] = 1.0  # avoid empty users
    return from_dense(dense)


def test_split_ratio_for_ten_interactions():
    m = from_dense(np.ones((1, 10)))
    s = data.split(m, 0.8, 0.0, seed=1)
    assert len(s.train.user_items[0]) == 8
    assert len(s.test.user_items[0]) + len(s.valid.user_items[0]) == 2


def test_split_single_interaction_user_goes_to_train():
    dense = np.zeros((2, 3))
    dense[0, 0] = 1.0
    dense[1, :] = 1.0
    s = data.split(from_dense(dense), 0.8, 0.1, seed=0)
    assert len(s.train.user_items[0]) == 1
    assert len(s.test.user_items[0]) == 0 and len(s.valid.user_items[0]) == 0


def test_split_deterministic_and_disjoint():
    m = make_matrix()
    s1 = data.split(m, 0.8, 0.1, seed=5)
    s2 = data.split(m, 0.8, 0.1, seed=5)
    assert s1.train.digest() == s2.train.digest()
    assert s1.valid.digest() == s2.valid.digest()
    assert s1.test.digest() == s2.test.digest()
    all_pairs = set(m.pairs())
    tr, va, te = set(s1.train.pairs()), set(s1.valid.pairs()), set(s1.test.pairs())
    assert tr | va | te == all_pairs
    assert tr & va == set() and tr & te == set() and va & te == set()
    assert s1.train.nnz + s1.valid.nnz + s1.test.nnz == m.nnz


def test_split_rejects_bad_ratio():
    with pytest.raises(ConfigError):
        data.split(make_matrix(), 1.5, 0.1, seed=0)


# ---------------------------------------------------------------------------
# batches

def test_batch_sizes_300_users():
    m = make_matrix(num_users=300, num_items=10, density=0.5)
    sizes = [len(b.indices) for b in data.make_batches(m, "user", 128, seed=0)]
    assert sizes == [128, 128, 44]


def test_batch_dense_matches_sparse_rows():
    m = make_matrix(seed=2)
    batch = next(data.make_batches(m, "user", 7, seed=3))
    slab = batch.sparse().toarray()
    for k, u in enumerate(batch.indices):
        np.testing.assert_array_equal(np.nonzero(slab[k])[0], m.user_items[u])
    ib = next(data.make_batches(m, "item", 5, seed=3))
    islab = ib.sparse().toarray()
    for k, i in enumerate(ib.indices):
        np.testing.assert_array_equal(np.nonzero(islab[k])[0], m.item_users[i])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batch_csr_equals_dense_slab(dtype):
    m = make_matrix(seed=5)
    for side, size in (("user", 7), ("item", 5)):
        for batch in data.make_batches(m, side, size, seed=1):
            rows = batch.sparse(dtype)
            assert rows.dtype == dtype and rows.has_sorted_indices
            densify = m.densify_users if side == "user" else m.densify_items
            np.testing.assert_array_equal(rows.toarray(), densify(batch.indices, dtype))
    some = np.array([4, 0, 4, 2])
    np.testing.assert_array_equal(m.sparse_users(some).toarray(), m.densify_users(some))
    np.testing.assert_array_equal(m.sparse_items(some).toarray(), m.densify_items(some))
    assert m.sparse_users(np.array([], dtype=int)).shape == (0, m.num_items)


def test_batch_shuffles_differ_by_epoch_but_reproduce():
    m = make_matrix(num_users=50)
    e0 = np.concatenate([b.indices for b in data.make_batches(m, "user", 16, seed=4, epoch=0)])
    e1 = np.concatenate([b.indices for b in data.make_batches(m, "user", 16, seed=4, epoch=1)])
    e0_again = np.concatenate([b.indices for b in data.make_batches(m, "user", 16, seed=4, epoch=0)])
    assert not np.array_equal(e0, e1)
    np.testing.assert_array_equal(e0, e0_again)


# ---------------------------------------------------------------------------
# train-split adjacency, the neighbourhoods of the contrastive constraint

def test_neighbor_sets_single_pair():
    dense = np.zeros((2, 2))
    dense[0, 0] = 1.0
    m = from_dense(dense)
    assert list(m.user_items[0]) == [0]
    assert list(m.item_users[0]) == [0]
    assert len(m.user_items[1]) == 0


def test_neighbor_sets_symmetry_and_counts():
    m = make_matrix(seed=11)
    for u in range(m.num_users):
        for i in m.user_items[u]:
            assert u in m.item_users[i]
    for i in range(m.num_items):
        for u in m.item_users[i]:
            assert i in m.user_items[u]
    assert sum(len(v) for v in m.user_items) == m.nnz
    assert sum(len(v) for v in m.item_users) == m.nnz


def test_no_test_leakage_into_neighbors():
    m = make_matrix(seed=12)
    s = data.split(m, 0.8, 0.1, seed=1)
    held_out = set(s.valid.pairs()) | set(s.test.pairs())
    for u, i in held_out:
        assert i not in s.train.user_items[u]


def test_split_proportions_within_one_interaction_per_user():
    m = make_matrix(num_users=40, num_items=30, density=0.5, seed=21)
    s = data.split(m, 0.8, 0.1, seed=3)
    for u in range(m.num_users):
        n_u = len(m.user_items[u])
        held = len(s.valid.user_items[u]) + len(s.test.user_items[u])
        assert abs(held - 0.2 * n_u) < 1.0
    pool = s.valid.nnz + s.test.nnz
    assert abs(s.valid.nnz - 0.1 * pool) <= 1.0


def test_digest_format_is_pinned():
    # the digest's format must not drift: this value was computed by the
    # per-pair code
    dense = np.zeros((3, 4))
    dense[0, [1, 3]] = 1.0
    dense[2, [0, 1, 2]] = 1.0
    assert from_dense(dense).digest() == "44f32ad542c65716"


def test_pair_out_of_range_is_rejected():
    with pytest.raises(DataError, match=r"pair \(0, 5\) out of range"):
        data.InteractionMatrix(2, 3, [1, 0, 1], [7, 5, 1])


# random small interaction files: a header (skipped only when the next line
# is numeric), repeated lines, ids whose string order differs from their
# numeric order, non-ASCII ids, and a third column that is ignored
_tokens = st.sampled_from(["1", "2", "10", "9", "a", "B", "c10", "c9", "é", "x y"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_tokens, _tokens), min_size=1, max_size=40),
       st.booleans(), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([0.5, 0.7, 0.8]), st.sampled_from([0.0, 0.3, 0.5]),
       st.integers(0, 2 ** 31 - 1))
def test_ingest_and_split_match_per_pair_oracle(tmp_path_factory, lines, header, ku, ki,
                                                train_ratio, valid_of_test, seed):
    path = tmp_path_factory.mktemp("ingest") / "inter.tsv"
    text = "".join(f"{u}\t{i}\t1\n" for u, i in lines)
    path.write_text(("user\titem\trating\n" if header else "") + text, encoding="utf-8")
    want = slow_ingest(path, None, ku, ki)
    if want is None:
        with pytest.raises(DataError, match="empty after"):
            data.ingest(path, None, ku, ki)
        return
    got = data.ingest(path, None, ku, ki)
    s = data.split(got, train_ratio, valid_of_test, seed)
    for g, w in [(got, want)] + list(zip((s.train, s.valid, s.test),
                                         slow_split(want, train_ratio, valid_of_test, seed))):
        assert (g.user_ids, g.item_ids, g.nnz) == (w.user_ids, w.item_ids, w.nnz)
        assert [r.tolist() for r in g.user_items] == [r.tolist() for r in w.user_items]
        assert [r.tolist() for r in g.item_users] == [r.tolist() for r in w.item_users]
        assert list(g.pairs()) == list(w.pairs())
        assert g.digest() == w.digest()
