"""Independent reference implementations used to check the package.

Everything here is deliberately written against the problem statements,
not against the package internals: naive loops, an LP reformulation, a
projected-subgradient scheme, and an SLSQP run.  Keeping these separate
from the code under test is what makes the comparisons meaningful.
"""

import numpy as np


def naive_matmul(a, b):
    """Triple-loop product with Python-float accumulation."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.empty((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(a[i, p]) * float(b[p, j])
            out[i, j] = acc
    return out


def scalar_relu(a):
    out = np.empty_like(a)
    flat_in = a.reshape(-1)
    flat_out = out.reshape(-1)
    for i, v in enumerate(flat_in):
        flat_out[i] = v if v > 0.0 else 0.0
    return out


def spearman(x, y):
    """Rank correlation with average ranks for ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(len(v), dtype=float)
        out = np.empty(len(v))
        for val in np.unique(v):
            idx = np.flatnonzero(v == val)
            out[idx] = r[idx].mean()
        return out

    rx = ranks(x) - (len(x) - 1) / 2.0
    ry = ranks(y) - (len(y) - 1) / 2.0
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


# --- reference solvers for the per-neuron pruning problem -------------------
#
# minimize sum(|u_i| for penalized i)
# subject to ||A u - y||_2 <= eps_fit        (fit rows)
#            B u <= eps_slack  (per row)     (slack rows, optional)


def lp_equality_l1min(a_eq, y_eq, b_ub, penalize):
    """Exact LP solution for the eps = 0 case (equality fit constraints).

    Split u = p - q with p, q >= 0; minimize the penalized sum of p + q.
    """
    from scipy.optimize import linprog

    d = a_eq.shape[1]
    cost = np.concatenate([penalize.astype(float), penalize.astype(float)])
    a_eq_split = np.concatenate([a_eq, -a_eq], axis=1)
    if b_ub is not None and len(b_ub):
        a_ub_split = np.concatenate([b_ub, -b_ub], axis=1)
        b_ub_vec = np.zeros(len(b_ub))
    else:
        a_ub_split = None
        b_ub_vec = None
    res = linprog(cost, A_ub=a_ub_split, b_ub=b_ub_vec, A_eq=a_eq_split,
                  b_eq=y_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    u = res.x[:d] - res.x[d:]
    return u


def _feasible(u, a, y, eps_fit, b, eps_slack, tol=1e-6):
    resid = np.linalg.norm(a @ u - y) if a.size else 0.0
    scale = max(1.0, np.linalg.norm(y)) if y.size else 1.0
    if resid > eps_fit + tol * scale:
        return False
    if b is not None and len(b):
        if (b @ u).max() > eps_slack + tol * scale:
            return False
    return True


def _objective(u, penalize):
    return float(np.abs(u[penalize]).sum())


def subgradient_l1min(a, y, b, eps_fit, eps_slack, penalize, u0, iters=100000,
                      step_scale=None, seed=0):
    """Projected-subgradient reference: alternate objective subgradient
    steps with Polyak feasibility corrections, tracking the best feasible
    iterate."""
    u = np.asarray(u0, dtype=float).copy()
    d = len(u)
    if step_scale is None:
        step_scale = max(np.abs(u0).max(), 1e-3) * 0.5
    best_u = u0.copy()
    best_obj = _objective(u0, penalize) if _feasible(u0, a, y, eps_fit, b, eps_slack) \
        else np.inf

    bn2 = None
    if b is not None and len(b):
        bn2 = (b * b).sum(axis=1)

    for t in range(1, iters + 1):
        g = np.where(penalize, np.sign(u), 0.0)
        u = u - (step_scale / np.sqrt(t)) * g
        for _ in range(4):
            moved = False
            if a.size:
                r = a @ u - y
                n = np.linalg.norm(r)
                if n > eps_fit:
                    grad = a.T @ (r / max(n, 1e-300))
                    denom = (grad * grad).sum()
                    if denom > 0:
                        u = u - ((n - eps_fit) / denom) * grad
                        moved = True
            if bn2 is not None:
                v = b @ u - eps_slack
                worst = int(np.argmax(v))
                if v[worst] > 0 and bn2[worst] > 0:
                    u = u - (v[worst] / bn2[worst]) * b[worst]
                    moved = True
            if not moved:
                break
        if _feasible(u, a, y, eps_fit, b, eps_slack):
            obj = _objective(u, penalize)
            if obj < best_obj:
                best_obj = obj
                best_u = u.copy()
    return best_u, best_obj


def slsqp_l1min(a, y, b, eps_fit, eps_slack, penalize, u0):
    """High-accuracy reference via SLSQP on the t-splitting reformulation."""
    from scipy.optimize import minimize

    d = len(u0)
    pen_idx = np.flatnonzero(penalize)
    n_pen = len(pen_idx)

    def unpack(x):
        return x[:d], x[d:]

    def objective(x):
        return x[d:].sum()

    def objective_jac(x):
        jac = np.zeros(d + n_pen)
        jac[d:] = 1.0
        return jac

    cons = []
    # |u_i| <= t_i for penalized coordinates
    for slot, i in enumerate(pen_idx):
        def upper(x, i=i, slot=slot):
            return x[d + slot] - x[i]
        def upper_jac(x, i=i, slot=slot):
            jac = np.zeros(d + n_pen)
            jac[d + slot] = 1.0
            jac[i] = -1.0
            return jac
        def lower(x, i=i, slot=slot):
            return x[d + slot] + x[i]
        def lower_jac(x, i=i, slot=slot):
            jac = np.zeros(d + n_pen)
            jac[d + slot] = 1.0
            jac[i] = 1.0
            return jac
        cons.append({"type": "ineq", "fun": upper, "jac": upper_jac})
        cons.append({"type": "ineq", "fun": lower, "jac": lower_jac})

    if a.size:
        def ball(x):
            r = a @ x[:d] - y
            return eps_fit ** 2 - (r * r).sum()
        def ball_jac(x):
            r = a @ x[:d] - y
            jac = np.zeros(d + n_pen)
            jac[:d] = -2.0 * (a.T @ r)
            return jac
        cons.append({"type": "ineq", "fun": ball, "jac": ball_jac})

    if b is not None and len(b):
        def slack(x):
            return eps_slack - b @ x[:d]
        def slack_jac(x):
            jac = np.zeros((len(b), d + n_pen))
            jac[:, :d] = -b
            return jac
        cons.append({"type": "ineq", "fun": slack, "jac": slack_jac})

    x0 = np.concatenate([u0, np.abs(u0[pen_idx]) + 1e-6])
    res = minimize(objective, x0, jac=objective_jac, constraints=cons,
                   method="SLSQP", options={"maxiter": 500, "ftol": 1e-12})
    u = res.x[:d]
    return u, _objective(u, penalize)


def reference_l1min(a, y, b, eps_fit, eps_slack, penalize, u0, subgrad_iters=20000):
    """Best feasible objective across the two independent references."""
    candidates = []
    u_s, obj_s = slsqp_l1min(a, y, b, eps_fit, eps_slack, penalize, u0)
    if _feasible(u_s, a, y, eps_fit, b, eps_slack, tol=1e-5):
        candidates.append(obj_s)
    u_g, obj_g = subgradient_l1min(a, y, b, eps_fit, eps_slack, penalize, u0,
                                   iters=subgrad_iters)
    if np.isfinite(obj_g):
        candidates.append(obj_g)
    candidates.append(_objective(u0, penalize))   # feasible by construction
    return min(candidates)


def assert_same_bits(actual, expected):
    """Every cell holds the same bytes, or both cells are NaN.

    IEEE 754 leaves open which NaN an operation returns when it meets two
    different NaNs, so bit identity between backends excludes such cells.
    """
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype, \
        (actual.shape, actual.dtype, expected.shape, expected.dtype)
    cells = (actual.size, actual.itemsize)
    same = (np.ascontiguousarray(actual).view(np.uint8).reshape(cells)
            == np.ascontiguousarray(expected).view(np.uint8).reshape(cells)
            ).all(axis=1).reshape(actual.shape)
    both_nan = np.isnan(actual) & np.isnan(expected)
    bad = np.argwhere(~(same | both_nan))
    assert not len(bad), (f"{len(bad)} cells differ, first at {tuple(bad[0])}: "
                          f"{actual[tuple(bad[0])]!r} != {expected[tuple(bad[0])]!r}")
