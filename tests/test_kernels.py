"""Backend parity: the compiled and pure-Python kernels must agree bitwise."""

import numpy as np
import pytest

from ensyth import _kernels
from ensyth._kernels import _pykernels

from _oracles import naive_matmul

try:
    from ensyth._kernels import _ckernels as _installed_ckernels
except ImportError:
    _installed_ckernels = None


def _random_pair(rng, m, k, n):
    return rng.normal(size=(m, k)), rng.normal(size=(k, n))


def _special_pair():
    """Operands holding -0.0, +-inf and NaN.

    IEEE 754 leaves open which NaN an operation returns when both operands
    are NaN, and numpy's SIMD loops and compilers differ on it, so the
    special values are placed so that no output cell meets two different
    NaNs: row 0 of a carries a NaN, rows 1-2 infinities, row 3 only -0.0,
    and column 0 of b is -0.0 throughout.
    """
    rng = np.random.default_rng(4)
    a, b = _random_pair(rng, 9, 6, 11)
    a[0, 2] = np.nan
    a[1, 0] = np.inf
    a[2, 0], a[2, 3] = -np.inf, np.inf
    a[3, :] = -0.0
    b[:, 0] = -0.0
    b[4, 5] = np.inf
    return a, b


def test_matmul_backends_bitwise_equal(ckernels, monkeypatch):
    rng = np.random.default_rng(0)
    shapes = [(1, 1, 1), (7, 5, 3), (13, 64, 9), (65, 200, 32), (3, 1000, 2),
              # rows and columns off the tile sizes, every narrow n
              *[(m, 7, n) for m in (1, 3, 4, 5, 8, 11) for n in range(1, 10)],
              (17, 65, 13), (65, 2000, 5), (9, 33, 65),
              # empty inner dimension and empty outputs
              (5, 0, 7), (0, 4, 3), (4, 3, 0), (0, 0, 0)]
    pairs = [_random_pair(rng, m, k, n) for m, k, n in shapes] + [_special_pair()]
    for a, b in pairs:
        compiled = ckernels.matmul(np.ascontiguousarray(a), np.ascontiguousarray(b))
        with np.errstate(invalid="ignore"):
            fallback = _pykernels.matmul(a, b)
        assert compiled.shape == fallback.shape
        assert compiled.tobytes() == fallback.tobytes(), (a.shape, b.shape)
    empty_k = ckernels.matmul(np.zeros((5, 0)), np.zeros((0, 7)))
    assert empty_k.tolist() == [[0.0] * 7] * 5
    assert not np.signbit(empty_k).any()
    # a transposed operand through the dispatch, which makes it contiguous
    monkeypatch.setattr(_kernels, "_impl", ckernels)
    at, b = rng.normal(size=(6, 10)), rng.normal(size=(6, 4))
    assert (_kernels.matmul(at.T, b).tobytes()
            == _pykernels.matmul(np.ascontiguousarray(at.T), b).tobytes())


def test_compiled_kernels_reject_bad_buffers(ckernels):
    good = np.zeros((3, 4))
    with pytest.raises(ValueError):
        ckernels.matmul(np.zeros((4, 3)).T, good)         # not C-contiguous
    with pytest.raises(TypeError):
        ckernels.matmul(good.astype(np.float32), np.zeros((4, 2)))
    with pytest.raises(TypeError):
        ckernels.matmul(good, np.zeros((4, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        ckernels.matmul(good, np.zeros((3, 2)))           # inner dimensions differ
    with pytest.raises(ValueError):
        ckernels.matmul(np.zeros(4), np.zeros((4, 2)))    # 1-D
    with pytest.raises(TypeError):
        ckernels.matmul([[1.0]], [[1.0]])                 # no buffer
    with pytest.raises(ValueError):
        ckernels.relu(np.zeros((4, 6))[:, ::2])
    with pytest.raises(TypeError):
        ckernels.relu(np.zeros((2, 2), dtype=np.float32))


def test_relu_backends_bitwise_equal(ckernels):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(40, 30))
    a[0, 0] = -0.0
    a[1, 1] = 0.0
    a[2, 2], a[3, 3], a[4, 4] = np.nan, np.inf, -np.inf
    compiled = ckernels.relu(np.ascontiguousarray(a))
    fallback = _pykernels.relu(a)
    assert compiled.tobytes() == fallback.tobytes()


def test_matmul_matches_triple_loop_bitwise():
    rng = np.random.default_rng(2)
    a, b = _random_pair(rng, 7, 5, 3)
    assert _kernels.matmul(a, b).tobytes() == naive_matmul(a, b).tobytes()


def test_python_fallback_matches_triple_loop_bitwise():
    rng = np.random.default_rng(3)
    a, b = _random_pair(rng, 9, 17, 4)
    assert _pykernels.matmul(a, b).tobytes() == naive_matmul(a, b).tobytes()


def test_relu_zero_sign():
    out = _kernels.relu(np.array([[-0.0, 0.0, -1.0, 2.0]]))
    assert out.tolist() == [[0.0, 0.0, 0.0, 2.0]]
    assert not np.signbit(out[0, 0])


def test_kernel_shape_validation():
    with pytest.raises(ValueError):
        _kernels.matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        _kernels.relu(np.zeros(5))


def test_backend_reported():
    import os
    assert _kernels.BACKEND in ("python", "compiled")
    requested = os.environ.get("ENSYTH_KERNELS", "auto")
    if requested == "python":
        assert _kernels.BACKEND == "python"
    elif _installed_ckernels is not None:
        assert _kernels.BACKEND == "compiled"
