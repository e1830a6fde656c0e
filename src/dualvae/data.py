"""Implicit-feedback data handling.

Builds the sparse user-item interaction matrix from delimited text, applies
iterative k-core filtering, produces per-user train/validation/test splits
and per-side minibatches of row indices. Pairs are held as integer arrays
(CSR for each side, ``rows(side)``), so every step is an array operation
rather than a per-pair loop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
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
    """Rows of one side in CSR form, ``width`` columns wide: ``rows[k]`` is
    the sorted, read-only array ``indices[indptr[k]:indptr[k + 1]]``."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n_rows: int, width: int):
        # pairs sorted by row, then by column
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
        self.indices = cols
        self.width = width
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

    def select(self, rows, dtype) -> sp.csr_matrix:
        """The given rows as a scipy CSR matrix of ``dtype`` ones: the encoders' input."""
        rows = np.asarray(rows, dtype=np.int64)
        _, cols = self.gather(rows)
        indptr = np.concatenate([[0], np.cumsum(np.diff(self.indptr)[rows])])
        return sp.csr_matrix((np.ones(len(cols), dtype), cols, indptr), shape=(len(rows), self.width))


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
        self.user_items = Csr(rows, cols, self.num_users, self.num_items)
        self.item_users = Csr(*np.divmod(np.sort(cols * self.num_users + rows), self.num_users),
                              self.num_items, self.num_users)
        self.nnz = len(cols)

    def _coords(self):
        """Row and column of every pair, in user-major order."""
        rows = self.user_items
        return np.repeat(np.arange(self.num_users), np.diff(rows.indptr)), rows.indices

    def rows(self, side: str) -> Csr:
        """The CSR view of one side: ``user_items`` for "user", ``item_users``
        for "item"."""
        if side == "user":
            return self.user_items
        if side == "item":
            return self.item_users
        raise ConfigError(f"unknown side {side!r}")

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

    def write_tsv(self, out_dir):
        """``interactions.tsv``, one ``user_id item_id`` line per pair, and
        the two-column ``original_id index`` id maps of both sides. The pair
        file is one join over its lines' halves, interleaved: no string per pair."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        heads = np.array([u + "\t" for u in self.user_ids], dtype=object)
        tails = np.array([i + "\n" for i in self.item_ids], dtype=object)
        rows, cols = self._coords()
        (out_dir / "interactions.tsv").write_text(
            "".join(np.column_stack((heads[rows], tails[cols])).ravel().tolist()), "utf-8")
        for name, ids in (("user_ids.tsv", self.user_ids), ("item_ids.tsv", self.item_ids)):
            (out_dir / name).write_text("".join(f"{o}\t{k}\n" for k, o in enumerate(ids)), "utf-8")


@dataclass
class DatasetSplit:
    train: InteractionMatrix
    valid: InteractionMatrix
    test: InteractionMatrix
    source: dict  # the split_record of how the three were made


def _resolve_format(path: Path, fmt):
    """``fmt``, else the format of a file's suffix; the file must exist."""
    if not path.exists():
        raise DataError(f"no such file: {path}")
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "tsv"
    if fmt not in _DELIMS:
        raise ConfigError(f"unknown format {fmt!r}; expected tsv or csv")
    return fmt


def file_record(path, fmt, min_user_core: int, min_item_core: int) -> dict:
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


def _tokens(column: np.ndarray) -> np.ndarray:
    """A column of variable-width tokens, stripped, as fixed-width strings:
    numpy strips, compares, sorts and takes those many times faster."""
    width = max(int(np.strings.str_len(column).max(initial=0)), 1)
    return np.strings.strip(column.astype(f"U{width}"))


def _factorize(tokens: np.ndarray, escaped: bool):
    """Distinct tokens in ``sorted`` order, as Python strings, and each
    token's index among them: numpy sorts strings by codepoint, as ``sorted``."""
    order = np.argsort(tokens, kind="stable")
    ranked = tokens[order]
    first = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    codes = np.empty(len(ranked), dtype=np.int64)
    codes[order] = np.cumsum(first) - 1
    distinct = ranked[first].tolist()
    if escaped:  # undo ``read_pairs``' escape of NUL
        distinct = [t.replace("\x01\x01", "\0").replace("\x01\x02", "\x01") for t in distinct]
    return distinct, codes


def read_pairs(path, fmt):
    """Parse ``user<delim>item[<delim>ignored...]`` lines into factorized id
    pairs, ``(user_ids, users), (item_ids, items)``: a column's distinct
    stripped tokens in ``sorted`` order, and each line's index among them.

    The delimiter comes from ``fmt`` ("tsv"/"csv"), or if None the file suffix.
    Blank lines are skipped, as is a first line of non-numeric tokens before
    numeric ones. Lines are split, partitioned and stripped as whole arrays; an
    error message is made only for the first bad line.
    """
    path = Path(path)
    delim = _DELIMS[_resolve_format(path, fmt)]
    try:
        text = path.read_text("utf-8")  # universal newlines, as ``open`` in text mode
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text (byte offset {e.start})") from e
    # fixed-width numpy strings drop trailing NULs: this escape, prefix-free
    # and order-keeping, leaves none (\x01 -> \x01\x02, \x00 -> \x01\x01)
    if escaped := "\0" in text:
        text = text.replace("\x01", "\x01\x02").replace("\0", "\x01\x01")
    # variable width, so a long extra column (say, free text) costs no padding
    lines = np.array(text.split("\n"), np.dtypes.StringDType())
    del text
    kept = np.flatnonzero(np.strings.str_len(lines))  # 0-based numbers of the lines read
    if not len(kept):
        raise DataError(f"{path}: no interactions parsed")
    numeric = [[_is_number(t.strip()) for t in str(lines[k]).split(delim)[:2]] for k in kept[:2]]
    if numeric == [[False, False], [True, True]]:  # a header
        kept = kept[1:]

    # blank lines are partitioned too, and dropped as tokens: no copy of the lines
    sep = np.array(delim, lines.dtype)
    head, found, rest = np.strings.partition(lines, sep)
    del lines
    lone = np.strings.str_len(found)[kept] == 0
    users = _tokens(head)[kept]
    del head, found
    items = _tokens(np.strings.partition(rest, sep)[0])[kept]
    del rest
    empty = (users == "") | (items == "")
    # every file written is tab-separated: a tab inside a CSV token would split it there
    tab = delim != "\t" and np.strings.find(users + items, "\t") >= 0
    bad = np.flatnonzero(lone | empty | tab)
    if len(bad):
        k = bad[0]
        raise DataError(f"{path}:{kept[k] + 1}: " + (
            "expected at least 2 columns, got 1" if lone[k] else
            "empty user or item token" if empty[k] else "tab inside a user or item token"))
    return _factorize(users, escaped), _factorize(items, escaped)


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


def _renumber(codes: np.ndarray, ids: list):
    """``codes`` renumbered 0, 1, ... in order over the codes that occur, and their ids."""
    present = np.bincount(codes) > 0
    return (np.cumsum(present) - 1)[codes], [ids[k] for k in np.flatnonzero(present).tolist()]


def ingest(path, fmt, min_user_core: int, min_item_core: int) -> InteractionMatrix:
    """Read interactions, dedup, k-core filter, and reindex contiguously.

    Indices follow ``sorted`` order of the surviving string ids, and the
    matrix's ``source`` is the file's ``file_record``.
    """
    source = file_record(path, fmt, min_user_core, min_item_core)
    (user_ids, users), (item_ids, items) = read_pairs(path, fmt)
    keys = np.sort(users * len(item_ids) + items)
    users, items = np.divmod(keys[np.diff(keys, prepend=-1) != 0], len(item_ids))
    keep = kcore_filter(users, items, min_user_core, min_item_core)
    if not keep.any():
        raise DataError(f"{path}: empty after {min_user_core}/{min_item_core}-core filtering")
    users, user_ids = _renumber(users[keep], user_ids)
    items, item_ids = _renumber(items[keep], item_ids)
    return InteractionMatrix(len(user_ids), len(item_ids), users, items, user_ids, item_ids,
                             source)


def split(matrix: InteractionMatrix, train_ratio: float, valid_of_test: float,
          seed: int) -> DatasetSplit:
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


def make_batches(n: int, batch_size: int, seed: int, epoch: int = 0):
    """Seeded shuffled minibatches of the row indices 0..n-1 of one side, as
    index arrays; the last batch may be short.

    Shuffles differ across epochs but are reproducible for a given
    (seed, epoch) pair. A batch's rows are ``matrix.rows(side).select(batch)``.
    """
    order = RngState(seed).derive(7, epoch).permutation(n)
    for start in range(0, n, batch_size):
        yield order[start: start + batch_size]

