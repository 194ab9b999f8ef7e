"""Datasets, prototype tables, on-disk formats, and synthetic data.

Instances are matrix *columns*: a feature matrix is (d_v, m) and a
prototype matrix (d_s, n_classes), with one integer class id per
instance column. README.md specifies the file formats. Class ids are
looked up, and the absent ones refused, by :func:`_rows`.

Streaming
---------
:func:`_matrix_columns` opens a matrix file (checking a binary header
against the file size, or parsing a CSV file whole) as a reader of any
band of rows of any range of columns; :func:`load_matrix` reads it all
at once. The commands stream a features file through
:func:`_stream_columns` and never hold a binary one whole. ``train``,
``sweep-k`` and ``bench`` take the seen columns for the Gram product:
they read blocks of about :func:`block_width` columns (``BLOCK_BYTES``
of float64) into one block buffer, a row segment per read. ``eval``
only keeps columns: it reads one block of every column into a buffer of
one band, each band one run of the payload. A block is read in bands of
rows, about a sixteenth of ``BLOCK_BYTES`` each; while a band is in
cache it is checked to be finite, its column squares are added up for
unit norms, and the columns a command keeps are copied out. Once a
block's norms are known, its taken columns are scaled and handed on, in
blocks of ``block_width`` columns, to the accumulator of
:func:`zsadjust.mapping.class_stats`, which blocks an in-memory dataset
the same way.

Faults come in this order. What the shapes alone rule out (a header, the
labels, the partition, a model that does not fit) comes before any
entry is checked. Then, as if the whole matrix were checked and then
normalized: the first non-finite entry in row-major order, the first
feature column whose norm overflows, the first zero feature column, and
last a prototype column that cannot be normalized. No block from the
first faulty one on is handed on. ``eval``'s row-band pass meets these
faults in that order; a held block that meets one has the matrix read
again by that pass, which keeps nothing and raises the first. An
OSError while an input file is opened or read is a DataError that names
the file.
"""

from __future__ import annotations

import os
import re
import struct
import warnings
from dataclasses import dataclass, fields
from functools import partial
from itertools import islice

import numpy as np

from .errors import DataError
from .linalg import as_matrix, as_number, as_type

MAGIC = b"ZSRM"
_HEADER = struct.Struct("<4sII")

# bytes of float64 per column block of a features file or feature matrix
BLOCK_BYTES = 32 * 2**20


def block_width(rows):
    """Columns per block of a matrix with ``rows`` rows."""
    return max(1, BLOCK_BYTES // (8 * max(1, rows)))


def _ids(values, name, flat=False):
    """``values`` as int64; a non-integer, or with ``flat`` an array that
    is not 1-D, is a DataError naming ``name``."""
    a = np.asarray(values)
    with np.errstate(invalid="ignore"):     # checked on the next line
        ids = a.astype(np.int64, copy=False) if a.dtype.kind in "iuf" else None
    if ids is None or not np.array_equal(ids, a):
        raise DataError(f"{name} must be integers")
    if flat and ids.ndim != 1:
        raise DataError(f"{name} must be 1-D, got shape {ids.shape}")
    return ids


def _rows(ids, wanted, what):
    """The position of each of the ids ``wanted`` in the ascending
    ``ids``, which may be empty; those it lacks are the DataError
    ``what`` followed by their ascending list."""
    rows = np.minimum(np.searchsorted(ids, wanted), ids.size - 1)
    missing = wanted if ids.size == 0 else wanted[ids[rows] != wanted]
    if missing.size:
        raise DataError(f"{what} {np.unique(missing).tolist()}")
    return rows


def _check_labels(labels, columns, class_count):
    """``labels`` as int64: one per column of a matrix with ``columns``
    columns, each in ``[0, class_count)``."""
    labels = _ids(labels, "labels", flat=True)
    if labels.shape[0] != columns:
        raise DataError(
            f"expected one label per instance column: "
            f"{labels.shape[0]} labels for {columns} columns"
        )
    bad = labels[(labels < 0) | (labels >= class_count)]
    if bad.size:
        raise DataError(f"label {bad[0]} out of range for "
                        f"class_count={class_count}")
    return labels


@dataclass(frozen=True)
class LabeledDataset:
    """Feature columns with one integer class id per column.

    ``features`` and ``labels`` are read-only views; the arrays given stay
    writable. The dataset keeps its :func:`zsadjust.mapping.class_stats`,
    so build a new one after changing the arrays it was built from.

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
        """Dataset over ``features`` already known to be finite: the labels
        and shape are validated, the features not scanned again."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "class_count", class_count)
        dataset._set_columns(np.ascontiguousarray(features, dtype=np.float64),
                             labels)
        return dataset

    def _set_columns(self, feats, labels):
        labels = _check_labels(labels, feats.shape[1], self.class_count)
        for name, a in (("features", feats), ("labels", labels)):
            view = a.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

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
        True where the class has training instances; given as booleans
        or 0/1, anything else is a DataError.
    """

    class_ids: np.ndarray
    vectors: np.ndarray
    seen: np.ndarray

    def __post_init__(self):
        ids = _ids(self.class_ids, "class ids")
        vecs = as_matrix(self.vectors, "prototypes")
        tags = np.asarray(self.seen)
        seen = tags.astype(bool, copy=False)
        if not np.array_equal(seen, tags):
            raise DataError("seen tags must be booleans or 0/1")
        if ids.ndim != 1 or seen.shape != ids.shape or vecs.shape[1] != ids.shape[0]:
            raise DataError("class_ids, vectors and seen tags must align")
        if ids.size == 0:
            raise DataError("prototype table must contain at least one class")
        if np.unique(ids).size != ids.size:
            raise DataError("duplicate class id in prototype table")
        with np.errstate(over="ignore"):    # only a zero norm matters here
            norms = np.linalg.norm(vecs, axis=0)
        if np.any(norms == 0.0):
            zero_id = ids[int(np.argmin(norms))]
            raise DataError(
                f"prototype of class {zero_id} is the zero vector "
                f"(similarity would be undefined)"
            )
        self.__dict__.update(class_ids=ids, vectors=vecs, seen=seen)

    @classmethod
    def _of_checked(cls, class_ids, vectors, seen):
        """Table over fields known to be valid: nothing is scanned again."""
        table = object.__new__(cls)
        table.__dict__.update(class_ids=class_ids, vectors=vectors, seen=seen)
        return table

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
        """Column index of ``class_id``, one integer; any other value, or
        an id that the table lacks, is a DataError."""
        cid = _ids(class_id, "class ids")
        if cid.ndim:
            raise DataError(f"class id must be a scalar, got shape "
                            f"{cid.shape}")
        hits = np.flatnonzero(self.class_ids == cid)
        if hits.size == 0:
            raise DataError(f"class {cid} has no prototype")
        return int(hits[0])

    def _columns_of(self, labels):
        """The column of each of the class ids ``labels``; an id without
        one is a DataError."""
        order = np.argsort(self.class_ids)
        return order[_rows(self.class_ids[order], labels,
                           "labels without a prototype:")]

    def with_vectors(self, vectors):
        """Copy of the table with replaced prototype columns."""
        return PrototypeTable(self.class_ids.copy(), vectors, self.seen.copy())


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic zero-shot dataset.

    Class prototypes are sampled on the unit sphere in d_s dimensions and
    a ground-truth linear map G (d_v, d_s) once, with entries scaled by
    1/sqrt(d_v) so clean features have roughly unit norm; an instance of
    class c is ``G @ p_c`` plus isotropic Gaussian noise. Unseen classes
    use a per-class copy of G jittered with std ``shift_sigma``: a
    controlled domain shift. With d_s above ``seen_count`` the seen
    prototypes span only a subspace of semantic space, so mapped unseen
    instances drift toward seen-class territory.
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
            # straight from the array's buffer, with no bytes copy
            fh.write(memoryview(a.astype("<f8", copy=False)))
    elif fmt == "csv":
        # %.17g round-trips float64 exactly through decimal text.
        with open(path, "w") as fh:
            np.savetxt(fh, a, fmt="%.17g", delimiter=",")
    else:
        raise ValueError(f"unknown matrix format: {fmt!r}")


class _reading:
    """A context in which an OSError raised while ``path`` is opened or
    read becomes an ``error`` that names the file. A class, which is
    cheaper to enter than a generator context: a matrix load enters it
    twice."""

    def __init__(self, path, error=DataError):
        self.path, self.error = path, error

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, OSError):
            raise self.error(f"cannot read {self.path}: "
                             f"{exc.strerror or exc}") from exc


def load_matrix(path, fmt=None):
    """Read a matrix written by :func:`save_matrix`; ``fmt`` is
    ``"binary"``, ``"csv"``, or None to sniff the magic bytes. Non-finite
    entries are rejected with their location."""
    shape, read = _matrix_columns(path, fmt)
    a = np.empty(shape, dtype="<f8")
    read(0, 0, a)
    del read    # a CSV file's parsed array, which the scan does not need
    return _finite(a, path)


def _finite(a, path):
    """``a`` as a finite float64 matrix; the first non-finite entry in
    row-major order is a DataError naming ``path``, its row and column."""
    try:
        return as_matrix(a, path)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _payload_error(path, rows, cols, size):
    return DataError(f"{path}: payload is {size} bytes but header declares "
                     f"{rows}x{cols} ({rows * cols * 8} bytes)")


def _binary_shape(fh, path):
    """``(rows, cols)`` from the header of the open binary matrix ``fh``,
    checked against the file size before anything is allocated, so that
    a corrupt header cannot ask for a huge array."""
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise DataError(f"{path}: truncated header")
    magic, rows, cols = _HEADER.unpack(header)
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic bytes {magic!r}")
    size = os.fstat(fh.fileno()).st_size - _HEADER.size
    if size != rows * cols * 8:
        raise _payload_error(path, rows, cols, size)
    return rows, cols


# rows joined at a time: a row array costs about 100 bytes beyond its
# values, and this many cost little beside the chunks
_CSV_CHUNK = 256


def _load_csv(path):
    """The CSV matrix ``path`` as one float64 array: its rows are parsed a
    line at a time, joined ``_CSV_CHUNK`` at a time and the chunks joined
    once, so that, for short rows as for long ones, the chunks and the
    array are about the most it holds."""
    rows, chunks = _csv_rows(path), []
    while chunk := list(islice(rows, _CSV_CHUNK)):
        chunks.append(np.stack(chunk))
    if not chunks:
        raise DataError(f"{path}: empty matrix file")
    return np.concatenate(chunks)


def _csv_rows(path):
    """The rows of the CSV matrix ``path``, each a float64 array. Lines
    are those of :func:`_read_text`, and blank ones are skipped. A fault
    names its line; a byte that is not UTF-8 is reported first, wherever
    it is in the file."""
    width = None
    with _reading(path), open(path, encoding="utf-8",
                              errors="surrogateescape") as fh:
        lines = enumerate(fh, start=1)
        for lineno, line in lines:
            _check_utf8(path, lineno, line)
            tokens = line.strip().split(",")
            if tokens == [""]:
                continue
            # numpy parses each token as float() does; should it refuse
            # one, float() decides
            try:
                row = np.array(tokens, dtype=np.float64)
            except ValueError:
                try:
                    row = np.array([float(tok) for tok in tokens])
                except ValueError:
                    raise _csv_fault(path, lines, lineno,
                                     "unparsable value") from None
            if width is None:
                width = row.size
            elif row.size != width:
                raise _csv_fault(path, lines, lineno, f"expected {width} "
                                 f"columns, got {row.size}")
            yield row


def _csv_fault(path, lines, lineno, message):
    """The DataError ``message`` at ``lineno`` of ``path``, once the rest
    of its ``lines`` are checked to be UTF-8."""
    for later, line in lines:
        _check_utf8(path, later, line)
    return DataError(f"{path}:{lineno}: {message}")


# surrogateescape decodes each byte that is not UTF-8 to a lone surrogate
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _check_utf8(path, lineno, line):
    """DataError naming line ``lineno`` of ``path`` when ``line``, as
    decoded with surrogateescape, held a byte that is not UTF-8."""
    if not line.isascii() and _NOT_UTF8.search(line):
        raise DataError(f"{path}:{lineno}: not valid UTF-8")


def _read_text(path, error=DataError):
    """The text of the UTF-8 file ``path``. A byte that is not UTF-8,
    whatever the locale, is an ``error`` naming its line."""
    with _reading(path, error), open(path, encoding="utf-8",
                                     errors="surrogateescape") as fh:
        text = fh.read()    # newlines as in text mode: \r\n and \r become \n
    bad = not text.isascii() and _NOT_UTF8.search(text)
    if bad:
        lineno = text.count("\n", 0, bad.start()) + 1
        raise error(f"{path}:{lineno}: not valid UTF-8")
    return text


def _read_lines(path, error=DataError):
    """The stripped lines of :func:`_read_text`; item n - 1 is line n."""
    return [line.strip() for line in _read_text(path, error).split("\n")]


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
    text = _read_text(path)
    # numpy parses digit lines as int() does, but saturates past int64
    if text.isascii() and text.replace("\n", "").isdigit():
        labels = np.fromstring(text, dtype=np.int64, sep=" ")
        if not (labels == np.iinfo(np.int64).max).any():
            return labels
    return _int64s(path, [line.strip() for line in text.split("\n")],
                   "not an integer label")


def save_prototypes(table, matrix_path, partition_path):
    """Write a prototype table as binary matrix file + ``<id> <S|U>``
    sidecar."""
    save_matrix(matrix_path, table.vectors)
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
# streaming column blocks


def _matrix_columns(source, fmt=None):
    """``(shape, read)`` of an array or of the matrix file ``source`` in
    the format ``fmt``, where ``read(start, row, out)`` fills ``out``
    (h, w) with rows ``row:row + h`` of columns ``start:start + w``. What
    it reads is not checked to be finite: the caller scans it."""
    if fmt not in (None, "binary", "csv"):
        raise ValueError(f"unknown matrix format: {fmt!r}")
    if isinstance(source, np.ndarray):
        return source.shape, partial(_copy_block, source)
    if fmt != "csv":
        with _reading(source), open(source, "rb") as fh:
            if fmt == "binary" or fh.read(len(MAGIC)) == MAGIC:
                fh.seek(0)
                shape = _binary_shape(fh, source)
                return shape, partial(_read_block, source, shape)
    matrix = _load_csv(source)
    return matrix.shape, partial(_copy_block, matrix)


def _copy_block(matrix, start, row, out):
    out[...] = matrix[row:row + out.shape[0], start:start + out.shape[1]]


def _read_block(path, shape, start, row, out):
    """The ``read`` of :func:`_matrix_columns` for the binary matrix
    ``path``: a row segment at a time, or at once when ``out`` spans
    every column and so is one run of the payload."""
    rows, cols = shape
    whole = out.shape[1] == cols
    # unbuffered row reads after each seek; a buffered readinto of the
    # whole run repeats short raw reads (each stops below 2 GiB)
    with _reading(path), open(path, "rb", buffering=-1 if whole else 0) as fh:
        for r, run in enumerate([out] if whole else out, start=row):
            fh.seek(_HEADER.size + 8 * (r * cols + start))
            if fh.readinto(run) != run.nbytes:    # cut short since checked
                raise _payload_error(path, rows, cols,
                                     fh.seek(0, os.SEEK_END) - _HEADER.size)


def _stream_columns(columns, name, take, keep, kept, unit=False):
    """Stream the ``(shape, read)`` matrix ``columns`` as the module's
    Streaming section sets out: copy the columns of the mask ``keep`` into
    ``kept`` and yield those of ``take`` in blocks, each overwritten by
    the next; with ``unit`` both are scaled to unit norm."""
    (rows, cols), read = columns
    width = block_width(rows)
    hold = take.any()
    # a held block has an eighth to spare, so that no read is narrower
    span = min(width + max(1, width // 8), cols) if hold else cols
    height = max(1, BLOCK_BYTES // (128 * max(1, span)))   # rows per band
    buf = np.empty((rows if hold else min(height, rows), span), dtype="<f8")
    fill = used = 0     # taken columns waiting in buf; columns kept so far
    start = 0
    while start < cols:
        new = buf[:, fill:fill + min(span - fill, cols - start)]
        w = new.shape[1]
        kept_idx = np.flatnonzero(keep[start:start + w])
        taken_idx = np.flatnonzero(take[start:start + w])
        squares = np.zeros(w)
        for top in range(0, rows, height):
            band = new[top:top + height] if hold else new[:rows - top]
            read(start, top, band)
            finite = np.isfinite(band)
            if not finite.all():
                row, col = divmod(int(np.argmin(finite)), w)
                _first_fault(columns, name, unit, hold)
                raise DataError(f"{name} contains a non-finite entry at row "
                                f"{top + row}, col {start + col}")
            if unit:
                _add_squares(squares, band)
            _take_columns(kept[top:top + band.shape[0],
                               used:used + kept_idx.size], band, kept_idx)
            if taken_idx.size and taken_idx[-1] >= taken_idx.size:
                _take_columns(band, band, taken_idx)   # not yet in front
        if unit:
            norms, faults = _norms(squares, start)
            if faults != (None, None):
                _first_fault(columns, name, unit, hold)
                _raise_norm_fault("feature", *faults)
            kept[:, used:used + kept_idx.size] /= norms[kept_idx]
            new[:, :taken_idx.size] /= norms[taken_idx]
        used += kept_idx.size
        fill += taken_idx.size
        if fill >= width:
            yield buf[:, :width]
            fill -= width   # at most the spare columns, moved to the front
            buf[:, :fill] = buf[:, width:width + fill]
        start += w
    if fill:
        yield buf[:, :fill]


def _first_fault(columns, name, unit, hold):
    """With ``hold``, read ``columns`` again in row bands, keeping
    nothing, and raise the first fault in the Streaming section's order;
    return if the read finds none."""
    if hold:
        (rows, cols), _ = columns
        none = np.zeros(cols, dtype=bool)
        for _ in _stream_columns(columns, name, none, none,
                                 np.empty((rows, 0)), unit):
            pass


def _take_columns(dst, src, idx):
    """``dst[:, j] = src[:, idx[j]]`` for each j, an eighth of a block at
    a time, so that no temporary is larger. ``dst`` may be ``src``
    itself, since ``idx[j] >= j`` shifts each column left."""
    step = max(1, block_width(src.shape[0]) // 8)
    for j in range(0, idx.size, step):
        part = idx[j:j + step]
        if part[-1] - part[0] == part.size - 1:     # one run: a slice
            dst[:, j:j + part.size] = src[:, part[0]:part[-1] + 1]
        else:
            dst[:, j:j + part.size] = np.take(src, part, axis=1)


def _column_norms(a, first=0):
    """``(norms, (overflow, zero))``: the L2 norm of each column of ``a``
    and the first columns, counted from ``first``, whose norm overflows or
    is zero (None if none). Squares add in row order, as in
    ``np.linalg.norm(x, axis=0)``, so no block or band changes a bit."""
    return _norms(_add_squares(np.zeros(a.shape[1]), a), first)


def _add_squares(squares, a):
    """Add the squares of each column of ``a`` to ``squares``, one row
    at a time in row order; return ``squares``."""
    with np.errstate(over="ignore"):    # an overflow is a fault of _norms
        for row in a:
            squares += row * row
    return squares


def _norms(squares, first):
    """:func:`_column_norms` from the column sums of squares."""
    norms = np.sqrt(squares)
    return norms, tuple(first + int(bad.argmax()) if bad.any() else None
                        for bad in (~np.isfinite(norms), norms == 0.0))


def _raise_norm_fault(what, overflow, zero):
    """A DataError for a column whose norm overflows, else for a zero
    column, if either is given."""
    if overflow is not None:
        raise DataError(f"cannot normalize {what} column {overflow}: its "
                        f"norm overflows; rescale the input")
    if zero is not None:
        raise DataError(f"cannot normalize a zero {what} column "
                        f"(column {zero})")


# ---------------------------------------------------------------------------
# splitting and synthesis


def split(dataset, table):
    """Partition instances into (seen, unseen) datasets by class tag.
    Every label must have a prototype, and the seen side must be nonempty.
    A ``dataset`` or ``table`` of another type is a TypeError.
    """
    as_type(dataset, "dataset", LabeledDataset)
    as_type(table, "table", PrototypeTable)
    seen_mask = table.seen[table._columns_of(dataset.labels)]
    if not seen_mask.any():
        raise DataError("seen partition is empty: nothing to train on")
    return _columns(dataset, seen_mask), _columns(dataset, ~seen_mask)


def _columns(dataset, mask):
    # compress keeps the C order that LabeledDataset stores, where a
    # boolean column index returns an F-ordered copy to be copied again
    features = np.compress(mask, dataset.features, axis=1)
    return LabeledDataset._of_checked(features, dataset.labels[mask],
                                      dataset.class_count)


@np.errstate(over="ignore", invalid="ignore")  # the features are checked
def synthesize(spec):
    """Generate (LabeledDataset, PrototypeTable, ground_truth_map),
    deterministic in ``spec.seed``: classes 0..seen_count-1 are seen, the
    next ``unseen_count`` unseen, each ``per_class`` adjacent columns. A
    ``spec`` that is no SynthSpec is a TypeError."""
    as_type(spec, "spec", SynthSpec)
    rng = np.random.default_rng(spec.seed)
    n_classes = spec.seen_count + spec.unseen_count
    m = n_classes * spec.per_class
    try:
        protos = rng.standard_normal((spec.d_s, n_classes))
        protos /= np.linalg.norm(protos, axis=0, keepdims=True)
        gmap = rng.standard_normal((spec.d_v, spec.d_s)) / np.sqrt(spec.d_v)
        features = np.empty((spec.d_v, m))
        labels = np.repeat(np.arange(n_classes), spec.per_class)
    except (MemoryError, ValueError, OverflowError):    # numpy's size limits
        need = 8 * (spec.d_v * (m + spec.d_s) + spec.d_s * n_classes + m)
        raise DataError(f"{spec} asks for {need} bytes, more memory than "
                        f"can be allocated") from None
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
        # checked per class: no mask the size of all the features
        if not np.isfinite(features[:, block]).all():
            raise DataError(f"{spec} generates features beyond the float "
                            f"range; lower noise_sigma or shift_sigma")

    table = PrototypeTable(
        np.arange(n_classes),
        protos,
        np.arange(n_classes) < spec.seen_count,
    )
    return LabeledDataset._of_checked(features, labels, n_classes), table, gmap
