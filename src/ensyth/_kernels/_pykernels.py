"""Pure-Python (numpy) kernels, bit-identical to the compiled ones.

``matmul`` accumulates over the inner dimension with a running sum, one
rank-1 update per step: every output cell sees exactly the same sequence
of IEEE-754 multiplies and adds as the compiled triple loop, so both
backends produce the same bits.

``admm_fit`` and ``admm_l1`` are the elementwise and column-norm work of
one iteration of the pruner's ADMM, between its matmuls.  They are the
numpy expressions the compiled twins reproduce; ``np.sum(axis=0)`` fixes
the order in which column norms add their squares.
"""

import numpy as np


def matmul(a, b):
    m, kdim = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float64)
    for k in range(kdim):
        out += a[:, k, np.newaxis] * b[k, :]
    return out


def relu(a):
    return np.where(a > 0.0, a, 0.0)


def _column_norms(a):
    return np.sqrt((a * a).sum(axis=0))


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def admm_fit(au, zf, wf, yt, act, eps_fit, eps_slack, relax):
    au_r = relax * au + (1.0 - relax) * zf
    vf = au_r + wf
    dev = np.where(act, vf - yt, 0.0)
    norms = _column_norms(dev)
    scale = np.where(norms > eps_fit, eps_fit / np.maximum(norms, 1e-300), 1.0)
    zf_new = np.where(act, yt + dev * scale,
                      np.minimum(vf, eps_slack[np.newaxis, :]))
    wf_new = wf + (au_r - zf_new)
    return zf_new, wf_new, np.array([_column_norms(au - zf_new), _column_norms(au),
                                     _column_norms(zf_new)])


def admm_l1(u, zl, wl, xau, d_cache, d_new, wx, penalize, rho_col, relax):
    u_r = relax * u + (1.0 - relax) * zl
    vl = u_r + wl
    zl_new = np.where(penalize[:, np.newaxis],
                      _soft_threshold(vl, 1.0 / rho_col[np.newaxis, :]), vl)
    dual_vec = rho_col[np.newaxis, :] * ((d_new - d_cache) + (zl_new - zl))
    wx_new = wx + ((relax * xau + (1.0 - relax) * d_cache) - d_new)
    wl_new = wl + (u_r - zl_new)
    return zl_new, wl_new, wx_new, np.array([
        _column_norms(u - zl_new), _column_norms(dual_vec), _column_norms(u),
        _column_norms(zl_new), _column_norms(wx_new + wl_new)])
