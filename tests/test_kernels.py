"""Backend parity: the compiled and pure-Python kernels must agree bitwise."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from ensyth import _kernels, pruner
from ensyth._kernels import _pykernels

from _oracles import assert_same_bits, naive_matmul

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


def _signed_zeros(rng, a, share):
    """a with a share of its cells set to +0.0 or -0.0."""
    hit = rng.random(a.shape) < share
    a[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    return a


def _fit_args(rng, p, m, act, eps_fit, share):
    """admm_fit operands: au, zf, wf, yt, act, eps_fit, eps_slack, relax."""
    arrays = [_signed_zeros(rng, rng.normal(size=(p, m)), share) for _ in range(4)]
    eps_slack = _signed_zeros(rng, rng.normal(size=m), share)
    return (*arrays, act, eps_fit, eps_slack, 1.6)


def _l1_args(rng, d, m, penalize, share, at_threshold):
    """admm_l1 operands: u, zl, wl, xau, d_cache, d_new, wx, penalize,
    rho_col, relax.  With at_threshold, u = zl = 0 and wl holds +-1/rho or
    +-0, so the soft threshold lands exactly on zero."""
    rho = np.where(rng.random(m) < 0.5, 2.0 ** rng.integers(-13, 14, m),
                   rng.uniform(1e-4, 1e4, m))
    arrays = [_signed_zeros(rng, rng.normal(size=(d, m)), share) for _ in range(7)]
    if at_threshold:
        arrays[0][:] = 0.0
        arrays[1][:] = -0.0
        arrays[2] = rng.choice([-1.0, 1.0, 0.0, -0.0], size=(d, m)) / rho
    return (*arrays, penalize, rho, 1.6)


def _assert_outputs_equal(compiled, fallback, label):
    assert len(compiled) == len(fallback), label
    for i, (c, f) in enumerate(zip(compiled, fallback)):
        assert c.shape == f.shape and c.dtype == f.dtype, (label, i)
        assert c.tobytes() == f.tobytes(), (label, i)


def test_admm_kernels_backends_bitwise_equal(ckernels):
    """Every output byte of both fused ADMM blocks matches the numpy twin:
    row counts around numpy's pairwise-sum blocks (m = 1), odd m (whose last
    column pair overlaps), all-active and all-inactive columns, eps_fit = 0
    and signed zeros."""
    rng = np.random.default_rng(6)
    for p, m, share in itertools.product((1, 7, 8, 9, 33, 128, 129, 2000),
                                         (1, 2, 3, 5, 32), (0.1, 0.6)):
        mixed = rng.random((p, m)) < 0.6
        mixed[:, 0] = True                 # an all-active column
        mixed[:, -1] = False               # an all-inactive one
        eps_fit = rng.uniform(0.0, 2.0, m) * np.sqrt(p)
        eps_fit[0] = 0.0
        cases = [(mixed, eps_fit), (np.ones((p, m), dtype=bool), np.zeros(m)),
                 (np.zeros((p, m), dtype=bool), np.zeros(m))]
        for act, eps in cases:
            args = _fit_args(rng, p, m, act, eps, share)
            _assert_outputs_equal(ckernels.admm_fit(*args), _pykernels.admm_fit(*args),
                                  ("fit", p, m, share))
        penalize = rng.random(p) < 0.9
        penalize[-1] = False               # the unpenalized bias row
        for pen, at_threshold in ((penalize, False), (np.ones(p, dtype=bool), True)):
            args = _l1_args(rng, p, m, pen, share, at_threshold)
            _assert_outputs_equal(ckernels.admm_l1(*args), _pykernels.admm_l1(*args),
                                  ("l1", p, m, share, at_threshold))


def test_compiled_admm_kernels_reject_bad_operands(ckernels):
    rng = np.random.default_rng(7)
    args = list(_fit_args(rng, 6, 3, np.ones((6, 3), dtype=bool), np.ones(3), 0.1))
    for i, bad in ((1, np.zeros((6, 4))), (4, np.ones((6, 3))), (5, np.ones(4)),
                   (2, np.zeros((3, 6)).T)):
        with pytest.raises((ValueError, TypeError)):
            ckernels.admm_fit(*args[:i], bad, *args[i + 1:])
    with pytest.raises(TypeError):
        ckernels.admm_fit(*args[:-1])
    args = list(_l1_args(rng, 5, 3, np.ones(5, dtype=bool), 0.1, False))
    for i, bad in ((7, np.ones(3, dtype=bool)), (8, np.ones(5)), (6, np.zeros(15))):
        with pytest.raises((ValueError, TypeError)):
            ckernels.admm_l1(*args[:i], bad, *args[i + 1:])


def _special_dense(rng, shape):
    """Values drawn mostly from NaNs of both signs and two payloads, +-inf
    and +-0.0."""
    payload = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
    pool = np.array([np.nan, -np.nan, payload, np.inf, -np.inf, 0.0, -0.0, 1.0, -2.5])
    a = rng.normal(size=shape)
    hit = rng.random(shape) < 0.6
    a[hit] = rng.choice(pool, size=int(hit.sum()))
    return a


def test_kernels_agree_on_nan_dense_inputs(ckernels):
    """Dense NaN, +-inf and +-0.0 inputs give the same bits on both
    backends, except for which NaN a cell that meets two NaNs ends with."""
    rng = np.random.default_rng(8)
    for _ in range(300):
        rows, k, m = (int(v) for v in rng.integers(1, 12, size=3))
        if rng.random() < 0.2:
            rows = int(rng.choice([40, 150]))
        a, b = _special_dense(rng, (rows, k)), _special_dense(rng, (k, m))
        act = rng.random((rows, m)) < 0.5
        fit = (*(_special_dense(rng, (rows, m)) for _ in range(4)), act,
               _special_dense(rng, m), _special_dense(rng, m), 1.6)
        l1 = (*(_special_dense(rng, (rows, m)) for _ in range(7)),
              rng.random(rows) < 0.8, _special_dense(rng, m), 1.6)
        with np.errstate(all="ignore"):
            assert_same_bits(ckernels.matmul(a, b), _pykernels.matmul(a, b))
            assert_same_bits(ckernels.relu(a), _pykernels.relu(a))
            for c, f in itertools.chain(zip(ckernels.admm_fit(*fit), _pykernels.admm_fit(*fit)),
                                        zip(ckernels.admm_l1(*l1), _pykernels.admm_l1(*l1))):
                assert_same_bits(c, f)


@pytest.mark.parametrize("layer, eps", [(0, 0.3), (1, 0.02)])
def test_solve_layer_backends_bitwise_equal(ckernels, monkeypatch, trained_fixture,
                                            layer, eps):
    """A hidden and an output layer solve give the same ADMM iterate, layer
    and feasibility report on both backends, through iterations whose
    working set is a single column (summed pairwise by numpy)."""
    net = trained_fixture["net"]
    ld = pruner.collect_layer_data(net, trained_fixture["train"].features)[layer]
    w_aug = np.concatenate([net.weights[layer], net.biases[layer][np.newaxis, :]], axis=0)
    admm_iterate = pruner._admm_iterate
    results = []
    for impl in (ckernels, _pykernels):
        widths, iterates = [], []

        def admm_fit(au, *rest, _fit=impl.admm_fit):
            widths.append(au.shape[1])
            return _fit(au, *rest)

        def recorded_iterate(*args, **kwargs):
            out = admm_iterate(*args, **kwargs)
            iterates.append(out[0].tobytes())
            return out

        monkeypatch.setattr(_kernels, "_impl", SimpleNamespace(
            matmul=impl.matmul, relu=impl.relu, admm_fit=admm_fit, admm_l1=impl.admm_l1))
        monkeypatch.setattr(pruner, "_admm_iterate", recorded_iterate)
        u, report = pruner._solve_layer(w_aug, ld.x_in, ld.x_out,
                                        ld.active_mask, eps, layer < net.depth - 1)
        assert 1 in widths and ld.x_in.shape[1] > 128
        results.append((iterates, u.tobytes(), report))
    assert results[0] == results[1]


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
