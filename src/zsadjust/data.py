"""Datasets, prototype tables, on-disk formats, and synthetic data.

Conventions
-----------
Instances are matrix *columns*: a feature matrix is (d_v, m) with one
column per instance, and a prototype matrix is (d_s, n_classes) with one
column per class. Labels are integer class ids, one per instance column.

On-disk formats
---------------
* Binary matrix: magic bytes ``ZSRM``, u32 little-endian rows, u32
  little-endian cols, then rows*cols float64 little-endian, row-major.
* CSV matrix: one row per line, comma-separated decimal floats, no header.
* Labels: one base-10 integer per line, line i = class of column i.
* Prototypes: a binary matrix (d_s, n_classes) plus a sidecar text file
  with one ``<class id> <S|U>`` line per column.
* Text files are UTF-8 whatever the locale; blank lines are skipped.
"""

from __future__ import annotations

import os
import re
import struct
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError
from .linalg import as_matrix, as_number

MAGIC = b"ZSRM"
_HEADER = struct.Struct("<4sII")


def _ids(values, name):
    """``values`` as int64; a non-integer is a DataError naming ``name``."""
    a = np.asarray(values)
    with np.errstate(invalid="ignore"):     # checked on the next line
        ids = a.astype(np.int64, copy=False) if a.dtype.kind in "iuf" else None
    if ids is None or not np.array_equal(ids, a):
        raise DataError(f"{name} must be integers")
    return ids


@dataclass(frozen=True)
class LabeledDataset:
    """Feature columns with one integer class id per column.

    Attributes
    ----------
    features : ndarray, shape (d_v, m)
    labels : ndarray of int, shape (m,)
    class_count : int
        Upper bound (exclusive) on class ids.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self._set_columns(as_matrix(self.features, "features"), self.labels)

    @classmethod
    def _of_checked(cls, features, labels, class_count):
        """Dataset over ``features`` already known to be finite (a
        checked file or columns of a checked dataset): the labels and
        shape are validated, the features are not scanned again."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "class_count", class_count)
        dataset._set_columns(np.ascontiguousarray(features, dtype=np.float64),
                             labels)
        return dataset

    def _set_columns(self, feats, labels):
        labels = _ids(labels, "labels")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[1]:
            raise DataError(
                f"expected one label per instance column: "
                f"{labels.shape[0]} labels for {feats.shape[1]} columns"
            )
        bad = labels[(labels < 0) | (labels >= self.class_count)]
        if bad.size:
            raise DataError(f"label {bad[0]} out of range for "
                            f"class_count={self.class_count}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def feature_dim(self):
        return self.features.shape[0]

    @property
    def instance_count(self):
        return self.features.shape[1]


@dataclass(frozen=True)
class PrototypeTable:
    """One semantic vector per class, each tagged seen or unseen.

    Attributes
    ----------
    class_ids : ndarray of int, shape (n,)
        Unique class ids, one per column of ``vectors``.
    vectors : ndarray, shape (d_s, n)
    seen : ndarray of bool, shape (n,)
        True where the class has training instances.
    """

    class_ids: np.ndarray
    vectors: np.ndarray
    seen: np.ndarray

    def __post_init__(self):
        ids = _ids(self.class_ids, "class ids")
        vecs = as_matrix(self.vectors, "prototypes")
        seen = np.asarray(self.seen, dtype=bool)
        if ids.ndim != 1 or seen.shape != ids.shape or vecs.shape[1] != ids.shape[0]:
            raise DataError("class_ids, vectors and seen tags must align")
        if ids.size == 0:
            raise DataError("prototype table must contain at least one class")
        if np.unique(ids).size != ids.size:
            raise DataError("duplicate class id in prototype table")
        norms = np.linalg.norm(vecs, axis=0)
        if np.any(norms == 0.0):
            zero_id = ids[int(np.argmin(norms))]
            raise DataError(
                f"prototype of class {zero_id} is the zero vector "
                f"(similarity would be undefined)"
            )
        object.__setattr__(self, "class_ids", ids)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "seen", seen)

    @property
    def semantic_dim(self):
        return self.vectors.shape[0]

    @property
    def seen_ids(self):
        return self.class_ids[self.seen]

    @property
    def unseen_ids(self):
        return self.class_ids[~self.seen]

    def column_of(self, class_id):
        """Column index of ``class_id``; raises DataError if absent."""
        hits = np.flatnonzero(self.class_ids == class_id)
        if hits.size == 0:
            raise DataError(f"class {class_id} has no prototype")
        return int(hits[0])

    def vector(self, class_id):
        return self.vectors[:, self.column_of(class_id)].copy()

    def with_vectors(self, vectors):
        """Copy of the table with replaced prototype columns."""
        return PrototypeTable(self.class_ids.copy(), vectors, self.seen.copy())


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic zero-shot dataset.

    Class prototypes are sampled on the unit sphere in d_s dimensions and
    a ground-truth linear map G (d_v, d_s) is sampled once, with entries
    scaled by 1/sqrt(d_v) so clean features have roughly unit norm; an
    instance of class c is ``G @ p_c`` plus isotropic Gaussian noise.
    Instances of unseen classes are generated from a per-class perturbed
    copy of G (entries jittered with std ``shift_sigma``), which
    manufactures a controllable, systematic displacement of unseen-class
    features. With d_s above ``seen_count`` the seen prototypes span only
    a subspace of semantic space, reproducing the geometry that makes
    mapped unseen instances drift toward seen-class territory.
    """

    d_v: int = 50
    d_s: int = 20
    seen_count: int = 40
    unseen_count: int = 10
    per_class: int = 25
    noise_sigma: float = 0.0
    shift_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            zero_ok = f.name in ("seed", "noise_sigma", "shift_sigma")
            as_number(getattr(self, f.name), f.name, 0 if zero_ok else 1,
                      type(f.default), DataError)
        if self.d_s > self.d_v:
            warnings.warn(
                "semantic dimension exceeds visual dimension; the linear "
                "generator cannot be injective",
                stacklevel=2,
            )


# ---------------------------------------------------------------------------
# matrix / label / prototype IO


def save_matrix(path, a, fmt="binary"):
    """Write a matrix as ``binary`` (ZSRM) or ``csv``."""
    a = as_matrix(a, "matrix")
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, a.shape[0], a.shape[1]))
            fh.write(a.astype("<f8", copy=False).tobytes(order="C"))
    elif fmt == "csv":
        # %.17g round-trips float64 exactly through decimal text.
        with open(path, "w") as fh:
            for row in a:
                fh.write(",".join(f"{x:.17g}" for x in row))
                fh.write("\n")
    else:
        raise ValueError(f"unknown matrix format: {fmt!r}")


def load_matrix(path, fmt=None):
    """Read a matrix written by :func:`save_matrix`.

    ``fmt`` is ``"binary"``, ``"csv"``, or None to sniff the magic bytes.
    Non-finite entries are rejected with their location.
    """
    if fmt is None:
        with open(path, "rb") as fh:
            head = fh.read(4)
        fmt = "binary" if head == MAGIC else "csv"
    if fmt not in ("binary", "csv"):
        raise ValueError(f"unknown matrix format: {fmt!r}")
    a = _load_binary(path) if fmt == "binary" else _load_csv(path)
    try:
        return as_matrix(a, path)
    except ValueError as exc:   # the row and column of a non-finite entry
        raise DataError(str(exc)) from None


def _load_binary(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DataError(f"{path}: truncated header")
        magic, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic bytes {magic!r}")
        expected = rows * cols * 8
        # sized from the file before anything is allocated, so a corrupt
        # header cannot ask for a huge array
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size == expected:
            # the payload goes straight into its array, with no bytes copy
            a = np.empty((rows, cols), dtype="<f8")
            size = fh.readinto(a)
    if size != expected:
        raise DataError(
            f"{path}: payload is {size} bytes but header declares "
            f"{rows}x{cols} ({expected} bytes)"
        )
    return a


def _load_csv(path):
    rows = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line:
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparsable value") from exc
        if rows and len(row) != len(rows[0]):
            raise DataError(f"{path}:{lineno}: expected {len(rows[0])} "
                            f"columns, got {len(row)}")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: empty matrix file")
    return rows


def _read_lines(path, error=DataError):
    """The stripped lines of the UTF-8 text file ``path``, blank ones
    included, so that line n of the file is item n - 1. A byte that is
    not UTF-8, whatever the locale, is an ``error`` naming its line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()    # newlines as in text mode: \r\n and \r become \n
    # surrogateescape decodes each byte that is not UTF-8 to a lone surrogate
    bad = re.search("[\udc80-\udcff]", text)
    if bad:
        lineno = text.count("\n", 0, bad.start()) + 1
        raise error(f"{path}:{lineno}: not valid UTF-8")
    return [line.strip() for line in text.split("\n")]


def _int64s(path, tokens, what):
    """The base-10 integers ``tokens`` (blank ones skipped) as int64; token
    n - 1 is from line n of ``path``, named in a DataError when it is not
    an integer (``what``) or does not fit in 64 bits."""
    try:
        return np.array([int(t, 10) for t in tokens if t], dtype=np.int64)
    except (ValueError, OverflowError):
        for lineno, token in enumerate(tokens, start=1):
            try:
                if token and not -2**63 <= int(token, 10) < 2**63:
                    raise DataError(f"{path}:{lineno}: {token} does not "
                                    f"fit in 64 bits") from None
            except ValueError:
                raise DataError(f"{path}:{lineno}: {what}") from None


def save_labels(path, labels):
    with open(path, "w") as fh:
        for lab in np.asarray(labels, dtype=np.int64):
            fh.write(f"{lab}\n")


def load_labels(path):
    return _int64s(path, _read_lines(path), "not an integer label")


def save_prototypes(table, matrix_path, partition_path, fmt="binary"):
    """Write a prototype table as matrix file + ``<id> <S|U>`` sidecar."""
    save_matrix(matrix_path, table.vectors, fmt=fmt)
    with open(partition_path, "w") as fh:
        for cid, seen in zip(table.class_ids, table.seen):
            fh.write(f"{cid} {'S' if seen else 'U'}\n")


def load_prototypes(matrix_path, partition_path):
    vectors = load_matrix(matrix_path)
    rows = [line.split() for line in _read_lines(partition_path)]
    bad = next((n for n, row in enumerate(rows) if row and (
        len(row) != 2 or row[1] not in ("S", "U"))), None)
    # ids up to the first malformed line, so that an earlier bad id wins
    heads = [row[0] if row else "" for row in rows[:bad]]
    ids = _int64s(partition_path, heads, "bad class id")
    if bad is not None:
        raise DataError(f"{partition_path}:{bad + 1}: expected '<id> <S|U>'")
    if ids.size != vectors.shape[1]:
        raise DataError(f"{partition_path}: {ids.size} partition lines for "
                        f"{vectors.shape[1]} prototype columns")
    return PrototypeTable(ids, vectors, [row[1] == "S" for row in rows if row])


# ---------------------------------------------------------------------------
# splitting and synthesis


def split(dataset, table):
    """Partition instances into (seen, unseen) datasets by class tag.

    Every label must have a prototype, and the seen side must be
    nonempty (there is nothing to train on otherwise).
    """
    seen_mask = _seen_mask(dataset, table)
    if not seen_mask.any():
        raise DataError("seen partition is empty: nothing to train on")
    return _columns(dataset, seen_mask), _columns(dataset, ~seen_mask)


def _unseen_partition(dataset, table):
    """The unseen side of :func:`split` alone: the seen columns are not
    copied, and there need not be any."""
    return _columns(dataset, ~_seen_mask(dataset, table))


def _seen_mask(dataset, table):
    """Per instance, whether its class is seen; every label must have a
    prototype."""
    present = np.unique(dataset.labels)
    missing = present[~np.isin(present, table.class_ids)]
    if missing.size:
        raise DataError(f"labels without a prototype: {missing.tolist()}")
    return np.isin(dataset.labels, table.seen_ids)


def _columns(dataset, mask):
    # compress keeps the C order that LabeledDataset stores, where a
    # boolean column index returns an F-ordered copy to be copied again
    features = np.compress(mask, dataset.features, axis=1)
    return LabeledDataset._of_checked(features, dataset.labels[mask],
                                      dataset.class_count)


@np.errstate(over="ignore", invalid="ignore")  # the features are checked
def synthesize(spec):
    """Generate (LabeledDataset, PrototypeTable, ground_truth_map).

    Deterministic in ``spec.seed``. Classes 0..seen_count-1 are seen,
    the remaining ``unseen_count`` ids are unseen; every class
    contributes ``per_class`` instance columns, grouped by class.
    """
    rng = np.random.default_rng(spec.seed)
    n_classes = spec.seen_count + spec.unseen_count

    protos = rng.standard_normal((spec.d_s, n_classes))
    protos /= np.linalg.norm(protos, axis=0, keepdims=True)
    gmap = rng.standard_normal((spec.d_v, spec.d_s)) / np.sqrt(spec.d_v)

    m = n_classes * spec.per_class
    features = np.empty((spec.d_v, m))
    labels = np.repeat(np.arange(n_classes), spec.per_class)
    for c in range(n_classes):
        gen = gmap
        if c >= spec.seen_count and spec.shift_sigma > 0:
            gen = gmap + spec.shift_sigma * rng.standard_normal(gmap.shape)
        block = slice(c * spec.per_class, (c + 1) * spec.per_class)
        clean = gen @ protos[:, c]
        noise = 0.0
        if spec.noise_sigma > 0:
            noise = spec.noise_sigma * rng.standard_normal(
                (spec.d_v, spec.per_class)
            )
        features[:, block] = clean[:, None] + noise
    if not np.isfinite(features).all():
        raise DataError(f"{spec} generates features beyond the float "
                        f"range; lower noise_sigma or shift_sigma")

    table = PrototypeTable(
        np.arange(n_classes),
        protos,
        np.arange(n_classes) < spec.seen_count,
    )
    dataset = LabeledDataset(features, labels, n_classes)
    return dataset, table, gmap
