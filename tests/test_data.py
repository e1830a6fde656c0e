import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvae import data
from dualvae.errors import ConfigError, DataError
from helpers import from_dense, pairs, slow_ingest, slow_read_pairs, slow_split


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
    m = data.ingest(write(tmp_path, lines), None, 2, 2)
    assert (m.num_users, m.num_items, m.nnz) == (3, 3, 9)


def test_ingest_dedups_pairs(tmp_path):
    m = data.ingest(write(tmp_path, "a\tx\na\tx\nb\tx\n"), None, 1, 1)
    assert m.nnz == 2


def test_ingest_chain_matches_kcore_oracle(tmp_path):
    text = "u1\ti1\nu2\ti1\nu2\ti2\n"
    raw = [("u1", "i1"), ("u2", "i1"), ("u2", "i2")]
    expect = brute_force_kcore(raw, 2, 2)
    got = kcore_pairs(raw, 2, 2)
    assert got == expect
    if expect:
        m = data.ingest(write(tmp_path, text), None, 2, 2)
        assert m.nnz == len(expect)
    else:
        with pytest.raises(DataError):
            data.ingest(write(tmp_path, text), None, 2, 2)


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
    m = data.ingest(write(tmp_path, "user\titem\n1\t10\n2\t10\n"), None, 1, 1)
    assert m.num_users == 2 and m.nnz == 2


def test_ingest_csv_and_extra_columns(tmp_path):
    m = data.ingest(write(tmp_path, "1,5,4.0,t\n2,5,3.5,t\n", name="r.csv"), None, 1, 1)
    assert m.num_users == 2 and m.num_items == 1


def test_ingest_bad_line_reports_number(tmp_path):
    with pytest.raises(DataError, match=":2"):
        data.ingest(write(tmp_path, "1\t2\nonlyonecolumn\n"), None, 1, 1)


def test_csv_token_with_a_tab_is_a_data_error_at_its_line(tmp_path):
    # written back tab-separated, "a<TAB>b,x" would read as user a with item b
    path = write(tmp_path, "c,y\na\tb,x\nc,x\n", name="inter.csv")
    with pytest.raises(DataError, match=r"inter\.csv:2: tab inside a user or item token"):
        data.ingest(path, None, 1, 1)
    path = write(tmp_path, "a\tb,x\nc,y\nc,x\n", name="inter.csv")
    with pytest.raises(DataError, match=r"inter\.csv:1: tab inside"):
        data.read_pairs(path, None)
    path = write(tmp_path, "c,y\na,x\tz\n", name="inter.csv")  # in the item token
    with pytest.raises(DataError, match=r"inter\.csv:2: tab inside"):
        data.read_pairs(path, None)


def test_non_utf8_file_is_a_data_error_at_its_byte_offset(tmp_path):
    p = tmp_path / "inter.tsv"
    p.write_bytes("é\t1\n".encode() + b"\xff\xfe\t2\n")  # é is two bytes
    with pytest.raises(DataError, match=r"inter\.tsv: not UTF-8 text \(byte offset 5\)"):
        data.read_pairs(p, None)
    with pytest.raises(DataError, match="byte offset 5"):
        data.ingest(p, None, 1, 1)


def test_ingest_missing_file():
    with pytest.raises(DataError):
        data.ingest("/nonexistent/file.tsv", None, 1, 1)


def test_ingest_roundtrip_via_id_maps(tmp_path):
    rng = np.random.default_rng(3)
    lines = {(f"user{u}", f"thing{i}") for u, i in zip(rng.integers(0, 9, 50), rng.integers(0, 9, 50))}
    m1 = data.ingest(write(tmp_path, "\n".join(f"{u}\t{i}" for u, i in sorted(lines))), None, 1, 1)
    # serialize using the retained id maps, re-ingest, expect identical matrix
    m1.write_tsv(tmp_path / "maps")
    want = "".join(f"{m1.user_ids[u]}\t{m1.item_ids[i]}\n" for u, i in pairs(m1))
    assert (tmp_path / "maps" / "interactions.tsv").read_text() == want
    m2 = data.ingest(tmp_path / "maps" / "interactions.tsv", None, 1, 1)
    assert m1.digest() == m2.digest()
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
    all_pairs = set(pairs(m))
    tr, va, te = set(pairs(s1.train)), set(pairs(s1.valid)), set(pairs(s1.test))
    assert tr | va | te == all_pairs
    assert tr & va == set() and tr & te == set() and va & te == set()
    assert s1.train.nnz + s1.valid.nnz + s1.test.nnz == m.nnz


def test_split_rejects_bad_ratio():
    with pytest.raises(ConfigError):
        data.split(make_matrix(), 1.5, 0.1, seed=0)


# ---------------------------------------------------------------------------
# batches

def test_batch_sizes_300_users():
    sizes = [len(b) for b in data.make_batches(300, 128, seed=0)]
    assert sizes == [128, 128, 44]


def test_batch_dense_matches_sparse_rows():
    m = make_matrix(seed=2)
    batch = next(data.make_batches(m.num_users, 7, seed=3))
    slab = m.rows("user").select(batch, np.float64).toarray()
    for k, u in enumerate(batch):
        np.testing.assert_array_equal(np.nonzero(slab[k])[0], m.user_items[u])
    ib = next(data.make_batches(m.num_items, 5, seed=3))
    islab = m.rows("item").select(ib, np.float64).toarray()
    for k, i in enumerate(ib):
        np.testing.assert_array_equal(np.nonzero(islab[k])[0], m.item_users[i])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batch_csr_equals_dense_slab(dtype):
    m = make_matrix(seed=5)
    for side, size in (("user", 7), ("item", 5)):
        densify = m.densify_users if side == "user" else m.densify_items
        for batch in data.make_batches(len(m.rows(side)), size, seed=1):
            rows = m.rows(side).select(batch, dtype)
            assert rows.dtype == dtype and rows.has_sorted_indices
            np.testing.assert_array_equal(rows.toarray(), densify(batch, dtype))
        some = np.array([4, 0, 4, 2])
        rows = m.rows(side).select(some, dtype)
        assert rows.dtype == dtype
        np.testing.assert_array_equal(rows.toarray(), densify(some, dtype))
        # an empty selection keeps the side's width
        width = m.num_items if side == "user" else m.num_users
        assert m.rows(side).select(np.array([], dtype=int), dtype).shape == (0, width)


def test_rows_rejects_an_unknown_side():
    with pytest.raises(ConfigError, match="unknown side 'bogus'"):
        make_matrix().rows("bogus")


def test_batch_shuffles_differ_by_epoch_but_reproduce():
    e0 = np.concatenate(list(data.make_batches(50, 16, seed=4, epoch=0)))
    e1 = np.concatenate(list(data.make_batches(50, 16, seed=4, epoch=1)))
    e0_again = np.concatenate(list(data.make_batches(50, 16, seed=4, epoch=0)))
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
    held_out = set(pairs(s.valid)) | set(pairs(s.test))
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
        assert_same_matrix(g, w)


def assert_same_matrix(got, want):
    assert (got.user_ids, got.item_ids, got.nnz) == (want.user_ids, want.item_ids, want.nnz)
    assert [r.tolist() for r in got.user_items] == [r.tolist() for r in want.user_items]
    assert [r.tolist() for r in got.item_users] == [r.tolist() for r in want.item_users]
    assert list(pairs(got)) == list(want.pairs())
    assert got.digest() == want.digest()


# random interaction files for the bulk parser: blank lines, CRLF and lone
# CR, whitespace (non-ASCII too) around tokens, extra columns (some long),
# a header or an all-string first line, "01" beside "1", non-ASCII ids and
# ids with NULs or a tab, and lines with one column or an empty token
_ids = st.sampled_from(["1", "01", "10", "9", "1.5", "nan", "a", "user", "item", "é", "中",
                        "😀", "a\0", "\0", "\0b", "\x01", "\x01\x02", "\0\x01", "x y", "B",
                        "a\tb"])
_pads = st.sampled_from(["", " ", "  ", "\u3000", "\xa0", "\x1c", "\x85", "\u2028", "\x0b"])
_extras = st.sampled_from(["", "{d}4", "{d}4{d}t", "{d}" + "r" * 300, "{d}"])


@st.composite
def interaction_text(draw):
    delim = draw(st.sampled_from(["\t", ","]))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["pair"] * 6 + ["blank", "spaces", "one column", "empty"]))
        u, i = draw(_ids), draw(_ids)

        def pad(tok):
            return draw(_pads) + tok + draw(_pads)

        lines.append({"pair": pad(u) + delim + pad(i) + draw(_extras).format(d=delim),
                      "blank": "", "spaces": draw(_pads) + " ", "one column": pad(u),
                      "empty": pad(u) + delim + draw(_pads)}[kind])
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no newline at the end of the file
    return delim, text


@settings(max_examples=300, deadline=None)
@given(interaction_text())
def test_read_pairs_and_ingest_match_line_by_line_oracle(tmp_path_factory, case):
    delim, text = case
    path = tmp_path_factory.mktemp("parse") / ("inter.tsv" if delim == "\t" else "inter.csv")
    path.write_text(text, encoding="utf-8", newline="")
    try:
        want = slow_read_pairs(path)
    except DataError as exc:
        for parse in (lambda p: data.read_pairs(p, None), lambda p: data.ingest(p, None, 1, 1)):
            with pytest.raises(DataError) as got:
                parse(path)
            assert str(got.value) == str(exc)
        return
    if not want:
        with pytest.raises(DataError, match="no interactions parsed"):
            data.ingest(path, None, 1, 1)
        return
    (user_ids, users), (item_ids, items) = data.read_pairs(path, None)
    assert users.dtype == items.dtype == np.int64
    assert (user_ids, item_ids) == (sorted({u for u, _ in want}), sorted({i for _, i in want}))
    assert [(user_ids[u], item_ids[i]) for u, i in zip(users.tolist(), items.tolist())] == want
    assert_same_matrix(data.ingest(path, None, 1, 1), slow_ingest(path))


def test_parser_strip_is_str_strip_on_every_codepoint():
    # the parser strips its token columns with numpy; NUL, which fixed-width
    # strings cannot end in, is escaped before they are made
    toks = [chr(c) + "x" + chr(c) for c in range(1, 0x110000) if not 0xD800 <= c < 0xE000]
    got = data._tokens(np.array(toks, np.dtypes.StringDType()))
    assert got.tolist() == [t.strip() for t in toks]
