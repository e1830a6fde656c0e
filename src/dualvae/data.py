"""Implicit-feedback data handling.

Builds the sparse user-item interaction matrix from delimited text, applies
iterative k-core filtering, produces per-user train/validation/test splits
and per-side minibatches. Pairs are held as integer arrays (CSR for each
side), so every step is an array operation rather than a per-pair loop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .tensor import RngState

_DELIMS = {"tsv": "\t", "csv": ","}


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


class Csr:
    """Rows of one side in CSR form: ``rows[k]`` is the sorted, read-only
    array ``indices[indptr[k]:indptr[k + 1]]``."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n_rows: int):
        # pairs sorted by row, then by column
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
        self.indices = cols
        cols.flags.writeable = False

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, k) -> np.ndarray:
        if not 0 <= k < len(self):
            raise IndexError(f"row {k} out of range")
        return self.indices[self.indptr[k]: self.indptr[k + 1]]

    def gather(self, rows):
        """Each entry of the given rows: its position in ``rows``, its column."""
        rows = np.asarray(rows, dtype=np.int64)
        starts, lens = self.indptr[rows], np.diff(self.indptr)[rows]
        flat = np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)
        return np.repeat(np.arange(len(rows)), lens), self.indices[flat]

    def select(self, rows, n_cols: int, dtype=np.float64) -> sp.csr_matrix:
        """The given rows as a scipy CSR matrix of ones, ``n_cols`` wide."""
        rows = np.asarray(rows, dtype=np.int64)
        _, cols = self.gather(rows)
        indptr = np.concatenate([[0], np.cumsum(np.diff(self.indptr)[rows])])
        return sp.csr_matrix((np.ones(len(cols), dtype), cols, indptr), shape=(len(rows), n_cols))


class InteractionMatrix:
    """Binary user-item interactions held as paired row and column views.

    ``user_items`` is the CSR of the matrix and ``item_users`` that of its
    transpose: ``user_items[u]`` is the sorted array of item indices user
    ``u`` touched, ``item_users[i]`` the sorted array of users that touched
    item ``i``. The two views always encode the same pair set. Original
    string ids are kept so results can be reported in the input vocabulary.
    ``source`` is the ``file_record`` of an ingested matrix, else None.
    """

    def __init__(self, num_users, num_items, users, items, user_ids=None, item_ids=None,
                 source=None):
        """``users`` and ``items``: pair coordinates, in any order, repeats allowed."""
        self.source = source
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.user_ids = list(user_ids) if user_ids is not None else [str(u) for u in range(num_users)]
        self.item_ids = list(item_ids) if item_ids is not None else [str(i) for i in range(num_items)]
        if len(self.user_ids) != self.num_users or len(self.item_ids) != self.num_items:
            raise DataError("id map sizes disagree with matrix dimensions")

        users = np.asarray(users, dtype=np.int64).reshape(-1)
        items = np.asarray(items, dtype=np.int64).reshape(-1)
        bad = (users < 0) | (users >= self.num_users) | (items < 0) | (items >= self.num_items)
        if bad.any():
            u, i = min(zip(users[bad].tolist(), items[bad].tolist()))
            raise DataError(f"pair ({u}, {i}) out of range")
        # sorted keys: faster than np.unique (which hashes) or a stable argsort
        keys = np.sort(users * self.num_items + items)
        rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) != 0], self.num_items)
        self.user_items = Csr(rows, cols, self.num_users)
        self.item_users = Csr(*np.divmod(np.sort(cols * self.num_users + rows), self.num_users),
                              self.num_items)
        self.nnz = len(cols)

    def _coords(self):
        """Row and column of every pair, in user-major order."""
        rows = self.user_items
        return np.repeat(np.arange(self.num_users), np.diff(rows.indptr)), rows.indices

    def pairs(self):
        rows, cols = self._coords()
        return zip(rows.tolist(), cols.tolist())

    def sparse_users(self, users, dtype=np.float64) -> sp.csr_matrix:
        """CSR interaction rows, one per requested user (``densify_users``
        without the zeros)."""
        return self.user_items.select(users, self.num_items, dtype)

    def sparse_items(self, items, dtype=np.float64) -> sp.csr_matrix:
        """CSR interaction columns, one row per requested item."""
        return self.item_users.select(items, self.num_users, dtype)

    def densify_users(self, users, dtype=np.float64) -> np.ndarray:
        """Dense slab of interaction rows, one per requested user."""
        out = np.zeros((len(users), self.num_items), dtype=dtype)
        out[self.user_items.gather(users)] = 1.0
        return out

    def densify_items(self, items, dtype=np.float64) -> np.ndarray:
        """Dense slab of interaction columns, one row per requested item."""
        out = np.zeros((len(items), self.num_users), dtype=dtype)
        out[self.item_users.gather(items)] = 1.0
        return out

    def digest(self) -> str:
        """Stable fingerprint of the pair set: ``"U,I,nnz;"`` then ``"u:i;"``
        for every pair in user-major order, SHA-256, first 16 hex digits."""
        body = "".join(map("{}:{};".format, *(a.tolist() for a in self._coords())))
        text = f"{self.num_users},{self.num_items},{self.nnz};{body}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def write_id_maps(self, out_dir):
        """Two-column ``original_id index`` text files for both sides."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, ids in (("user_ids.tsv", self.user_ids), ("item_ids.tsv", self.item_ids)):
            with open(out_dir / name, "w", encoding="utf-8") as fh:
                for idx, orig in enumerate(ids):
                    fh.write(f"{orig}\t{idx}\n")


@dataclass
class DatasetSplit:
    train: InteractionMatrix
    valid: InteractionMatrix
    test: InteractionMatrix
    source: dict  # the split_record of how the three were made


@dataclass
class Batch:
    side: str  # "user" or "item"
    indices: np.ndarray
    _matrix: InteractionMatrix = field(repr=False)

    def sparse(self, dtype=np.float64) -> sp.csr_matrix:
        if self.side == "user":
            return self._matrix.sparse_users(self.indices, dtype)
        return self._matrix.sparse_items(self.indices, dtype)


def _resolve_format(path: Path, fmt):
    """``fmt``, else the format of a file's suffix; the file must exist."""
    if not path.exists():
        raise DataError(f"no such file: {path}")
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "tsv"
    if fmt not in _DELIMS:
        raise ConfigError(f"unknown format {fmt!r}; expected tsv or csv")
    return fmt


def file_record(path, fmt=None, min_user_core: int = 1, min_item_core: int = 1) -> dict:
    """What ``ingest`` makes its matrix from, without the path: the file's
    SHA-256 and size, the resolved format and the k-core thresholds."""
    path = Path(path)
    fmt = _resolve_format(path, fmt)
    blob = path.read_bytes()
    return {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob), "format": fmt,
            "min_user_core": int(min_user_core), "min_item_core": int(min_item_core)}


def split_record(source, train_ratio: float, valid_of_test: float, seed: int) -> dict:
    """A matrix's ``source`` (None if not from a file) plus ``split``'s arguments."""
    return {**(source or {}), "train_ratio": float(train_ratio),
            "valid_of_test": float(valid_of_test), "seed": int(seed)}


def read_pairs(path, fmt=None):
    """Parse ``user<delim>item[<delim>ignored...]`` lines into id pairs.

    The delimiter comes from ``fmt`` ("tsv"/"csv") or the file suffix. A
    single leading header line is skipped when its first two tokens are both
    non-numeric.
    """
    path = Path(path)
    delim = _DELIMS[_resolve_format(path, fmt)]

    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.rstrip("\n").rstrip("\r")) for n, ln in enumerate(fh, start=1)]
    lines = [(n, ln) for n, ln in lines if ln]

    # header only when line 1 looks symbolic while line 2 looks like data;
    # all-string id files keep their first line
    if len(lines) >= 2:
        first, second = lines[0][1].split(delim), lines[1][1].split(delim)
        if (
            len(first) >= 2
            and len(second) >= 2
            and not _is_number(first[0].strip())
            and not _is_number(first[1].strip())
            and _is_number(second[0].strip())
            and _is_number(second[1].strip())
        ):
            lines = lines[1:]

    pairs = []
    for lineno, line in lines:
        toks = line.split(delim)
        if len(toks) < 2:
            raise DataError(f"{path}:{lineno}: expected at least 2 columns, got {len(toks)}")
        u, i = toks[0].strip(), toks[1].strip()
        if not u or not i:
            raise DataError(f"{path}:{lineno}: empty user or item token")
        pairs.append((u, i))
    return pairs


def kcore_filter(users: np.ndarray, items: np.ndarray, min_user_core: int,
                 min_item_core: int) -> np.ndarray:
    """Mask of the pairs left after iteratively dropping users and items
    below their degree threshold until stable.

    ``users`` and ``items`` are non-negative integer codes of distinct pairs.
    """
    keep = np.ones(len(users), dtype=bool)
    while True:
        ucnt = np.bincount(users[keep], minlength=users.max(initial=-1) + 1)
        icnt = np.bincount(items[keep], minlength=items.max(initial=-1) + 1)
        kept = keep & (ucnt[users] >= min_user_core) & (icnt[items] >= min_item_core)
        if kept.sum() == keep.sum():
            return keep
        keep = kept


def _factorize(tokens: list):
    """Distinct tokens in ``sorted`` order, and each token's index among them."""
    distinct = sorted(set(tokens))
    index = dict(zip(distinct, range(len(distinct))))
    return distinct, np.array(list(map(index.__getitem__, tokens)), dtype=np.int64)


def ingest(path, fmt=None, min_user_core: int = 1, min_item_core: int = 1) -> InteractionMatrix:
    """Read interactions, dedup, k-core filter, and reindex contiguously.

    Indices follow ``sorted`` order of the surviving string ids, and the
    matrix's ``source`` is the file's ``file_record``.
    """
    source = file_record(path, fmt, min_user_core, min_item_core)
    raw = read_pairs(path, fmt)
    if not raw:
        raise DataError(f"{path}: no interactions parsed")
    user_ids, users = _factorize([u for u, _ in raw])
    item_ids, items = _factorize([i for _, i in raw])
    users, items = np.divmod(np.unique(users * len(item_ids) + items), len(item_ids))
    keep = kcore_filter(users, items, min_user_core, min_item_core)
    if not keep.any():
        raise DataError(
            f"{path}: empty after {min_user_core}/{min_item_core}-core filtering"
        )
    users, items = users[keep], items[keep]
    kept_users, users = np.unique(users, return_inverse=True)
    kept_items, items = np.unique(items, return_inverse=True)
    return InteractionMatrix(len(kept_users), len(kept_items), users, items,
                             [user_ids[k] for k in kept_users.tolist()],
                             [item_ids[k] for k in kept_items.tolist()], source)


def split(
    matrix: InteractionMatrix,
    train_ratio: float = 0.8,
    valid_of_test: float = 0.1,
    seed: int = 0,
) -> DatasetSplit:
    """Per-user random split into train/validation/test.

    For each user, floor(n_u * (1 - train_ratio)) interactions go to a test
    pool (so a 1-interaction user trains on it); validation is then carved
    globally from that pool at ``valid_of_test`` and excluded from the final
    test set.
    """
    if not (0.0 < train_ratio < 1.0) or not (0.0 <= valid_of_test < 1.0):
        raise ConfigError("split ratios must lie in (0, 1)")
    rng = RngState(seed).derive(101)
    rows = matrix.user_items
    lens = np.diff(rows.indptr)
    # epsilon guards floor against float dust (10 * 0.2 -> 1.999...)
    n_test = np.floor(lens * (1.0 - train_ratio) + 1e-9).astype(np.int64)
    # one permutation per user, in user order: entry positions, each user's
    # shuffled, the first len - n_test of them train and the rest the pool
    order = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        start + rng.permutation(n) for start, n in zip(rows.indptr.tolist(), lens.tolist())])
    users = np.repeat(np.arange(matrix.num_users), lens)
    items = rows.indices[order]
    to_train = np.arange(len(order)) - rows.indptr[users] < (lens - n_test)[users]
    pool = np.flatnonzero(~to_train)

    n_valid = int(round(valid_of_test * len(pool)))
    to_valid = np.zeros(len(users), dtype=bool)
    if n_valid:
        to_valid[pool[rng.choice(len(pool), n_valid, replace=False)]] = True

    def build(mask):
        return InteractionMatrix(matrix.num_users, matrix.num_items, users[mask], items[mask],
                                 matrix.user_ids, matrix.item_ids)

    return DatasetSplit(build(to_train), build(to_valid), build(~to_train & ~to_valid),
                        split_record(matrix.source, train_ratio, valid_of_test, seed))


def make_batches(matrix: InteractionMatrix, side: str, batch_size: int, seed: int, epoch: int = 0):
    """Seeded shuffled minibatches over one side; the last batch may be short.

    Shuffles differ across epochs but are reproducible for a given
    (seed, epoch) pair. Rows are materialized lazily, as CSR, by
    ``Batch.sparse()``.
    """
    if side not in ("user", "item"):
        raise ConfigError(f"unknown side {side!r}")
    n = matrix.num_users if side == "user" else matrix.num_items
    order = RngState(seed).derive(7, epoch).permutation(n)
    for start in range(0, n, batch_size):
        yield Batch(side, order[start: start + batch_size], matrix)

