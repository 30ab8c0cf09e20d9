"""Dense/sparse matrix types, the kernels' matmul/relu, and the byte codec."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ensyth import _kernels
from ensyth.errors import FormatError, ShapeError
from ensyth.tensor import (
    DenseMatrix,
    SparseMatrix,
    decode_array,
    encode_array,
)

from _oracles import naive_matmul, scalar_relu


def dm(rows):
    return DenseMatrix.from_rows(rows)


class TestDenseMatrix:
    def test_basic_properties(self):
        a = dm([[1.0, 2.0], [3.0, 4.0]])
        assert (a.rows, a.cols) == (2, 2)
        assert list(a.values) == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ShapeError):
            DenseMatrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            dm([[np.nan]])
        with pytest.raises(ValueError):
            dm([[np.inf, 1.0]])

    def test_immutable(self):
        a = dm([[1.0]])
        with pytest.raises(ValueError):
            a.data[0, 0] = 2.0

    def test_equality_is_bitwise(self):
        assert dm([[0.0]]) != dm([[-0.0]])
        assert dm([[1.5, 2.5]]) == dm([[1.5, 2.5]])


class TestSparseMatrix:
    def test_rejects_explicit_zero(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_entries(2, 2, [(0, 0, 0.0)])

    def test_rejects_duplicates_and_bad_order(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, np.array([0, 0]), np.array([1, 1]),
                         np.array([1.0, 2.0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ShapeError):
            SparseMatrix.from_entries(2, 2, [(2, 0, 1.0)])

    def test_from_dense_round_trip(self):
        a = dm([[0.0, 1.5], [-2.0, 0.0]])
        sp = SparseMatrix.from_dense(a)
        assert sp.nnz == 2
        assert sp.to_dense() == a


def _same(a, b):
    """Bitwise equality of two float64 arrays, shapes included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(3, 4))
        assert _same(_kernels.matmul(np.eye(3), b), b)

    def test_hand_checked_2x2_by_2x1(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        assert _same(_kernels.matmul(a, b), np.array([[17.0], [39.0]]))

    def test_matches_triple_loop_exactly(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(7, 5))
        b = rng.normal(size=(5, 3))
        got = _kernels.matmul(a, b)
        assert got.tobytes() == naive_matmul(a, b).tobytes()

    def test_shape_error_names_both_shapes(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match=r"\(1, 2\) x \(1, 2\)"):
            _kernels.matmul(a, b)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 2**32 - 1))
    def test_associativity_within_tolerance(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        c = rng.normal(size=(n, 3))
        left = _kernels.matmul(_kernels.matmul(a, b), c)
        right = _kernels.matmul(a, _kernels.matmul(b, c))
        scale = np.maximum(np.abs(left), np.abs(right)) + 1e-30
        assert (np.abs(left - right) / scale).max() < 1e-9


class TestRelu:
    def test_sign_cases(self):
        got = _kernels.relu(np.array([[-1.0, 2.0], [0.0, -3.0]]))
        assert _same(got, np.array([[0.0, 2.0], [0.0, 0.0]]))

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        once = _kernels.relu(rng.normal(size=(6, 6)))
        assert _same(_kernels.relu(once), once)

    def test_matches_scalar_map(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 9))
        assert _kernels.relu(a).tobytes() == scalar_relu(a).tobytes()


def _random_dense(rng, rows, cols, dtype):
    vals = rng.normal(size=(rows, cols))
    if dtype == "f32":
        vals = vals.astype(np.float32).astype(np.float64)
    elif dtype == "i64":
        # integer dtypes carry no signed zero, so normalize -0.0 away
        vals = np.trunc(vals * 100) + 0.0
    return DenseMatrix(vals)


class TestCodec:
    def test_zero_matrix_coo_has_no_entries(self):
        rec = encode_array("z", DenseMatrix(np.zeros((4, 4))), "coo")
        # header: magic(4) version(1) dtype(1) encoding(1) ndim(1) dims(16)
        (nnz,) = struct.unpack("<Q", rec.payload[24:32])
        assert nnz == 0
        assert decode_array(rec).nnz == 0

    @given(st.integers(1, 6), st.integers(1, 6),
           st.sampled_from(["f32", "f64", "i64"]),
           st.sampled_from(["dense", "coo"]),
           st.integers(0, 2**32 - 1))
    def test_round_trip_bitwise(self, rows, cols, dtype, encoding, seed):
        rng = np.random.default_rng(seed)
        mat = _random_dense(rng, rows, cols, dtype)
        if encoding == "coo":
            mat = SparseMatrix.from_dense(mat) if rng.random() < 0.5 else mat
        rec = encode_array("m", mat, encoding, dtype=dtype)
        decoded = decode_array(rec)
        if isinstance(mat, SparseMatrix):
            expected = mat.to_dense()
        else:
            expected = mat
        if isinstance(decoded, SparseMatrix):
            decoded = decoded.to_dense()
        assert decoded == expected

    def test_coo_smaller_for_sparse_matrix(self):
        rng = np.random.default_rng(9)
        dense_vals = np.zeros((10, 10))
        idx = rng.choice(100, size=10, replace=False)
        dense_vals.flat[idx] = rng.normal(size=10)
        mat = DenseMatrix(dense_vals)
        dense_rec = encode_array("m", mat, "dense")
        coo_rec = encode_array("m", mat, "coo")
        assert len(coo_rec.payload) < len(dense_rec.payload)

    def test_sparse_encoding_never_stores_zero(self):
        mat = dm([[0.0, 1.0], [0.0, 0.0]])
        rec = encode_array("m", mat, "coo")
        decoded = decode_array(rec)
        assert decoded.nnz == 1
        assert (decoded.data != 0.0).all()

    def test_decode_is_inverse_of_encode(self):
        mat = dm([[1.25, -3.5], [0.0, 7.0]])
        assert decode_array(encode_array("m", mat, "dense")) == mat

    def test_truncated_payload_is_format_error(self):
        rec = encode_array("m", dm([[1.0, 2.0]]), "dense")
        clipped = type(rec)(name=rec.name, dtype=rec.dtype, encoding=rec.encoding,
                            dims=rec.dims, payload=rec.payload[:-1])
        with pytest.raises(FormatError):
            decode_array(clipped)

    def test_hand_built_record(self):
        payload = (b"ENSY" + struct.pack("<BBBB", 1, 1, 0, 2)
                   + struct.pack("<QQ", 1, 1) + struct.pack("<d", 1.5))
        rec = encode_array("m", dm([[1.5]]), "dense")
        assert rec.payload == payload
        from ensyth.tensor import ArrayRecord
        hand = ArrayRecord(name="h", dtype="f64", encoding="dense", dims=(1, 1),
                           payload=payload)
        assert decode_array(hand) == dm([[1.5]])

    def test_bad_magic_reports_offset_zero(self):
        from ensyth.tensor import ArrayRecord
        rec = ArrayRecord(name="x", dtype="f64", encoding="dense", dims=(1, 1),
                          payload=b"NOPE" + bytes(28))
        with pytest.raises(FormatError) as err:
            decode_array(rec)
        assert err.value.offset == 0

    def test_out_of_range_coo_index(self):
        good = encode_array("m", SparseMatrix.from_entries(2, 2, [(1, 1, 3.0)]), "coo")
        raw = bytearray(good.payload)
        raw[32:36] = struct.pack("<I", 9)   # row index beyond dims
        from ensyth.tensor import ArrayRecord
        bad = ArrayRecord(name="m", dtype="f64", encoding="coo", dims=(2, 2),
                          payload=bytes(raw))
        with pytest.raises(FormatError):
            decode_array(bad)

    def test_i64_requires_integer_values(self):
        with pytest.raises(ValueError):
            encode_array("m", dm([[1.5]]), "dense", dtype="i64")
