"""Dense and sparse 2-D arrays and the byte codec.

Matrices are immutable wrappers around read-only float64 numpy arrays.
``encode_array``/``decode_array`` implement the ``.ens`` byte format used
inside model bundles.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError

MAGIC = b"ENSY"
FORMAT_VERSION = 1

_DTYPE_CODE = {"f32": 0, "f64": 1, "i64": 2}
_CODE_DTYPE = {v: k for k, v in _DTYPE_CODE.items()}
_NUMPY_DTYPE = {"f32": "<f4", "f64": "<f8", "i64": "<i8"}
_ITEMSIZE = {"f32": 4, "f64": 8, "i64": 8}

_ENCODING_CODE = {"dense": 0, "coo": 1}
_CODE_ENCODING = {v: k for k, v in _ENCODING_CODE.items()}


def _freeze(arr):
    arr = np.asarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Row-major 2-D array of finite 64-bit floats."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"DenseMatrix requires 2-D data, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"DenseMatrix requires rows, cols >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("DenseMatrix values must be finite")
        object.__setattr__(self, "data", _freeze(arr))

    @classmethod
    def from_rows(cls, rows):
        return cls(np.array(rows, dtype=np.float64))

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    @property
    def values(self):
        """Row-major flat view of the entries."""
        return self.data.reshape(-1)

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data.tobytes() == other.data.tobytes()

    __hash__ = None

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """COO matrix: entries sorted by (row, col), no duplicates, no zeros."""

    rows: int
    cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ShapeError(f"SparseMatrix requires rows, cols >= 1, got "
                             f"({self.rows}, {self.cols})")
        ri = np.ascontiguousarray(self.row_idx, dtype=np.int64)
        ci = np.ascontiguousarray(self.col_idx, dtype=np.int64)
        vals = np.ascontiguousarray(self.data, dtype=np.float64)
        if not (ri.ndim == ci.ndim == vals.ndim == 1 and len(ri) == len(ci) == len(vals)):
            raise ShapeError("SparseMatrix index/value arrays must be 1-D and equal length")
        if len(ri):
            if ri.min() < 0 or ri.max() >= self.rows or ci.min() < 0 or ci.max() >= self.cols:
                raise ShapeError("SparseMatrix entry index out of range")
            keys = ri * self.cols + ci
            if not (np.diff(keys) > 0).all():
                raise ValueError("SparseMatrix entries must be sorted by (row, col) "
                                 "without duplicates")
            if (vals == 0.0).any():
                raise ValueError("SparseMatrix must not store explicit zeros")
        for name, arr in (("row_idx", ri), ("col_idx", ci), ("data", vals)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.isfinite(vals).all():
            raise ValueError("SparseMatrix values must be finite")

    @classmethod
    def from_entries(cls, rows, cols, entries):
        """Build from an iterable of (row, col, value) triples."""
        entries = sorted(entries)
        ri = np.array([e[0] for e in entries], dtype=np.int64)
        ci = np.array([e[1] for e in entries], dtype=np.int64)
        vals = np.array([e[2] for e in entries], dtype=np.float64)
        return cls(rows, cols, ri, ci, vals)

    @classmethod
    def from_dense(cls, dense):
        arr = dense.data if isinstance(dense, DenseMatrix) else np.asarray(dense, dtype=np.float64)
        ri, ci = np.nonzero(arr)
        return cls(arr.shape[0], arr.shape[1], ri.astype(np.int64),
                   ci.astype(np.int64), arr[ri, ci])

    @property
    def nnz(self):
        return len(self.data)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def to_dense(self):
        out = np.zeros((self.rows, self.cols), dtype=np.float64)
        out[self.row_idx, self.col_idx] = self.data
        return DenseMatrix(out)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.row_idx, other.row_idx)
                and np.array_equal(self.col_idx, other.col_idx)
                and self.data.tobytes() == other.data.tobytes())

    __hash__ = None

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


@dataclass(frozen=True)
class ArrayRecord:
    """A named, fully self-describing ``.ens`` byte string."""

    name: str
    dtype: str
    encoding: str
    dims: tuple
    payload: bytes

    def __post_init__(self):
        if self.dtype not in _DTYPE_CODE:
            raise ValueError(f"unknown dtype {self.dtype!r}")
        if self.encoding not in _ENCODING_CODE:
            raise ValueError(f"unknown encoding {self.encoding!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))


# --- operations -------------------------------------------------------------


def _check_integral(arr):
    if not (arr == np.trunc(arr)).all():
        raise ValueError("i64 encoding requires integer-valued entries")
    if (np.abs(arr) > 2**62).any():
        raise ValueError("i64 entry magnitude too large")


def encode_array(name, matrix, encoding, dtype="f64") -> ArrayRecord:
    """Serialize a matrix into an ``.ens`` record.

    Dense matrices may be encoded either way (coo stores the nonzeros);
    sparse matrices likewise.  ``f32`` storage is lossy for values that are
    not exactly representable in single precision.
    """
    if encoding not in _ENCODING_CODE:
        raise ValueError(f"unknown encoding {encoding!r}")
    if dtype not in _DTYPE_CODE:
        raise ValueError(f"unknown dtype {dtype!r}")

    if isinstance(matrix, SparseMatrix):
        rowsxcols = matrix.shape
        ri, ci, vals = matrix.row_idx, matrix.col_idx, matrix.data
        dense_values = None
    elif isinstance(matrix, DenseMatrix):
        rowsxcols = matrix.shape
        if encoding == "coo":
            sp = SparseMatrix.from_dense(matrix)
            ri, ci, vals = sp.row_idx, sp.col_idx, sp.data
        dense_values = matrix.data
    else:
        raise TypeError(f"cannot encode {type(matrix).__name__}")

    header = MAGIC + struct.pack(
        "<BBBB", FORMAT_VERSION, _DTYPE_CODE[dtype], _ENCODING_CODE[encoding], 2
    ) + struct.pack("<QQ", rowsxcols[0], rowsxcols[1])

    np_dt = np.dtype(_NUMPY_DTYPE[dtype])
    if encoding == "dense":
        if dense_values is None:
            dense_values = matrix.to_dense().data
        if dtype == "i64":
            _check_integral(dense_values)
        body = np.ascontiguousarray(dense_values, dtype=np_dt).tobytes()
    else:
        if dtype == "i64":
            _check_integral(vals)
        nnz = len(vals)
        entry = np.zeros(nnz, dtype=np.dtype([("r", "<u4"), ("c", "<u4"), ("v", np_dt)]))
        entry["r"] = ri
        entry["c"] = ci
        entry["v"] = vals.astype(np_dt)
        body = struct.pack("<Q", nnz) + entry.tobytes()

    return ArrayRecord(name=name, dtype=dtype, encoding=encoding,
                       dims=rowsxcols, payload=header + body)


def _need(buf, offset, count, what):
    if offset + count > len(buf):
        raise FormatError(f"truncated payload while reading {what}", offset)
    return buf[offset:offset + count], offset + count


def decode_array(record: ArrayRecord):
    """Exact inverse of :func:`encode_array`.

    Dense records decode to :class:`DenseMatrix`, coo records to
    :class:`SparseMatrix`.
    """
    buf = record.payload
    magic, off = _need(buf, 0, 4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}", 0)
    hdr, off = _need(buf, off, 4, "header")
    version, dtype_code, enc_code, ndim = struct.unpack("<BBBB", hdr)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    if dtype_code not in _CODE_DTYPE:
        raise FormatError(f"unknown dtype code {dtype_code}", 5)
    if enc_code not in _CODE_ENCODING:
        raise FormatError(f"unknown encoding code {enc_code}", 6)
    if ndim != 2:
        raise FormatError(f"unsupported ndim {ndim} (matrices only)", 7)
    dims_raw, off = _need(buf, off, 16, "dims")
    rows, cols = struct.unpack("<QQ", dims_raw)
    if rows < 1 or cols < 1:
        raise FormatError(f"invalid dims ({rows}, {cols})", 8)

    dtype = _CODE_DTYPE[dtype_code]
    encoding = _CODE_ENCODING[enc_code]
    np_dt = np.dtype(_NUMPY_DTYPE[dtype])
    item = _ITEMSIZE[dtype]

    if encoding == "dense":
        body, end = _need(buf, off, rows * cols * item, "dense values")
        if end != len(buf):
            raise FormatError("trailing bytes after dense payload", end)
        arr = np.frombuffer(body, dtype=np_dt).astype(np.float64).reshape(rows, cols)
        try:
            return DenseMatrix(arr)
        except ValueError as exc:
            raise FormatError(f"invalid dense values: {exc}", off) from None

    nnz_raw, off = _need(buf, off, 8, "nnz")
    (nnz,) = struct.unpack("<Q", nnz_raw)
    entry_dt = np.dtype([("r", "<u4"), ("c", "<u4"), ("v", np_dt)])
    body, end = _need(buf, off, nnz * entry_dt.itemsize, "coo entries")
    if end != len(buf):
        raise FormatError("trailing bytes after coo payload", end)
    entries = np.frombuffer(body, dtype=entry_dt)
    ri = entries["r"].astype(np.int64)
    ci = entries["c"].astype(np.int64)
    if len(ri) and (ri.max() >= rows or ci.max() >= cols):
        bad = int(np.argmax((ri >= rows) | (ci >= cols)))
        raise FormatError(f"coo index out of range at entry {bad}",
                          off + bad * entry_dt.itemsize)
    try:
        return SparseMatrix(int(rows), int(cols), ri, ci,
                            entries["v"].astype(np.float64))
    except ValueError as exc:
        raise FormatError(f"invalid coo entries: {exc}", off) from None
