"""Numeric kernel dispatch: compiled fast path with pure-Python fallback.

Both backends implement the same fixed-order arithmetic (products and
partial sums rounded identically), so a package built without a C
toolchain produces bit-identical numbers, just slower.  Selection happens
once at import; set ``ENSYTH_KERNELS=python`` or ``compiled`` to force a
backend (``auto`` is the default).

Bit identity covers every value except which NaN a cell ends with when
it meets two different NaNs (say an input NaN and the default NaN of
``inf * 0``, or a negative NaN and its absolute value).  IEEE 754 leaves
that choice open, and numpy's SIMD loops and C compilers make it
differently, so such a cell is NaN on both backends but its sign and
payload may differ.
"""

import os

import numpy as np

from . import _pykernels

_requested = os.environ.get("ENSYTH_KERNELS", "auto").lower()
if _requested not in {"auto", "python", "compiled"}:
    raise RuntimeError(
        f"ENSYTH_KERNELS must be 'auto', 'python' or 'compiled', got {_requested!r}"
    )

_impl = None
if _requested in {"auto", "compiled"}:
    try:
        from . import _ckernels as _impl
    except ImportError:
        if _requested == "compiled":
            raise RuntimeError(
                "ENSYTH_KERNELS=compiled but the extension is not built"
            ) from None
if _impl is None:
    _impl = _pykernels

BACKEND = "python" if _impl is _pykernels else "compiled"


def _as_f64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def _as_matrix(a):
    arr = _as_f64(a)
    if arr.ndim != 2:
        raise ValueError(f"kernel operand must be 2-D, got ndim={arr.ndim}")
    return arr


def _as_bool(a):
    return np.ascontiguousarray(a, dtype=bool)


def matmul(a, b):
    """Fixed-summation-order matrix product of two 2-D float64 arrays."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    return _impl.matmul(a, b)


def relu(a):
    """Elementwise max(x, 0) on a 2-D float64 array."""
    return _impl.relu(_as_matrix(a))


def admm_fit(au, zf, wf, yt, act, eps_fit, eps_slack, relax):
    """Fit block of one ADMM iteration of the pruner, on (p, m) arrays.

    Over-relaxes ``au`` against ``zf``, projects each column onto its fit
    ball of radius ``eps_fit`` (active entries ``act``) and its slack bound
    ``eps_slack`` (inactive ones), and updates the scaled dual ``wf``.
    Returns ``(zf_new, wf_new, norms)``, where the rows of the (3, m)
    ``norms`` are the column norms of ``au - zf_new``, ``au`` and ``zf_new``.
    """
    return _impl.admm_fit(_as_f64(au), _as_f64(zf), _as_f64(wf), _as_f64(yt),
                          _as_bool(act), _as_f64(eps_fit), _as_f64(eps_slack),
                          float(relax))


def admm_l1(u, zl, wl, xau, d_cache, d_new, wx, penalize, rho_col, relax):
    """L1 block of one ADMM iteration of the pruner, on (d, m) arrays.

    Over-relaxes ``u`` against ``zl``, soft-thresholds the rows marked in
    ``penalize`` at ``1 / rho_col`` to give ``zl_new``, and updates the
    scaled duals ``wl`` and ``wx`` (``X @ wf``, carried through ``xau = X @
    X.T @ u``, ``d_cache = X @ zf`` and ``d_new = X @ zf_new``).  Returns
    ``(zl_new, wl_new, wx_new, norms)``, where the rows of the (5, m)
    ``norms`` are the column norms of ``u - zl_new``, of the dual residual
    ``rho_col * ((d_new - d_cache) + (zl_new - zl))``, of ``u``, of
    ``zl_new`` and of ``wx_new + wl_new``.
    """
    return _impl.admm_l1(_as_f64(u), _as_f64(zl), _as_f64(wl), _as_f64(xau),
                         _as_f64(d_cache), _as_f64(d_new), _as_f64(wx),
                         _as_bool(penalize), _as_f64(rho_col), float(relax))
