"""Per-layer L1-minimization pruning.

Each layer is sparsified against the baseline's own activations (parallel
variant: layers are independent).  For every output neuron m the solver
minimizes the L1 norm of its incoming weights subject to

  (a) sum over active samples of (u.x_p - y_p)^2  <=  eps_m^2
  (b) u.x_p <= eps_m for every inactive sample (hidden layers only),

with eps_m = epsilon_gain * ||active outputs of neuron m||_2, one
tolerance for both constraints.  The trailing bias entry is constrained
but never penalized.  All neurons of a layer are solved together by a
column-batched ADMM (initial penalty RHO, over-relaxation RELAX, stop
when a neuron's primal and dual residuals drop below STOP_TOL relative,
iteration budget MAX_ITER).

The iterate of an unconverged ADMM can sit just outside the feasible
set, so each neuron then keeps the cheapest feasible candidate, in order:
the least-squares polish of the iterate's support (debiasing; wins about
a tenth of the neurons), the iterate itself (wins most), a blend from the
iterate toward the baseline column and one from the polish (the repair of
an infeasible iterate or polish; the first wins about a third), and the
baseline column verbatim.  The baseline is feasible, so the returned
matrix is never more L1-expensive than the baseline weights.

One ADMM iteration is four fixed-order matmuls and two fused kernels
between them: ``_kernels.admm_fit`` (over-relaxation, projection onto the
fit ball and slack bound, fit dual) and ``_kernels.admm_l1`` (soft
threshold, L1 and ``X @ wf`` duals), each returning the column norms the
stopping test needs.  Compaction, penalty balancing and the stopping test
stay in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .data import Dataset
from .errors import ShapeError
from .network import (ReluNetwork, TrainConfig, _check_regularizers, _frozen_array,
                      forward, masked_train)

ZERO_TOL = 1e-8
FEAS_SLACK = 1e-3
RHO = 1.0
RELAX = 1.6
MAX_ITER = 800
STOP_TOL = 1e-4

_FINE_TUNE_DEFAULTS = TrainConfig(epochs=0, batch_size=32, learning_rate=0.01, seed=0)


@dataclass(frozen=True)
class PruneConfig:
    epsilon_gain: float
    l1: object = 0.0
    l2: object = 0.0
    dropout_keep: object = 1.0
    fine_tune_epochs: int = 0
    set_id: str = "set1"

    def __post_init__(self):
        if not self.epsilon_gain >= 0:
            raise ValueError("epsilon_gain must be >= 0")
        if self.fine_tune_epochs < 0:
            raise ValueError("fine_tune_epochs must be >= 0")
        _check_regularizers(self.l1, self.l2, self.dropout_keep)
        for name in ("l1", "l2", "dropout_keep"):
            val = getattr(self, name)
            if not np.isscalar(val):
                object.__setattr__(self, name, tuple(float(v) for v in val))

    def to_dict(self):
        def plain(v):
            return list(v) if isinstance(v, tuple) else v
        return {
            "epsilon_gain": self.epsilon_gain,
            "l1": plain(self.l1),
            "l2": plain(self.l2),
            "dropout_keep": plain(self.dropout_keep),
            "fine_tune_epochs": self.fine_tune_epochs,
            "set_id": self.set_id,
        }

    @classmethod
    def from_dict(cls, d):
        def tup(v):
            return tuple(v) if isinstance(v, list) else v
        return cls(epsilon_gain=d["epsilon_gain"], l1=tup(d["l1"]), l2=tup(d["l2"]),
                   dropout_keep=tup(d["dropout_keep"]),
                   fine_tune_epochs=d["fine_tune_epochs"], set_id=d["set_id"])


@dataclass(frozen=True)
class LayerData:
    """Pruning targets for one layer, as read-only arrays.

    ``x_in`` carries the homogeneous all-ones bias row as its last row;
    ``x_out`` is the baseline's post-activation response (linear output for
    the last layer); ``active_mask`` marks entries where x_out > 0.
    """

    x_in: np.ndarray
    x_out: np.ndarray
    active_mask: np.ndarray

    def __post_init__(self):
        x_in = _frozen_array(self.x_in)
        x_out = _frozen_array(self.x_out)
        mask = _frozen_array(self.active_mask, dtype=bool)
        if mask.shape != x_out.shape:
            raise ShapeError("active_mask shape must match x_out")
        if x_in.shape[1] != x_out.shape[1]:
            raise ShapeError("x_in and x_out must have the same sample count")
        object.__setattr__(self, "x_in", x_in)
        object.__setattr__(self, "x_out", x_out)
        object.__setattr__(self, "active_mask", mask)


@dataclass(frozen=True)
class LayerFeasibility:
    """Post-threshold residual report for one pruned layer."""

    layer: int
    epsilon: float
    residual: float
    l1_pruned: float
    l1_baseline: float
    max_slack_violation: float
    fallback_neurons: tuple
    iterations: int
    converged: bool

    def to_dict(self):
        return {
            "layer": self.layer,
            "epsilon": self.epsilon,
            "residual": self.residual,
            "l1_pruned": self.l1_pruned,
            "l1_baseline": self.l1_baseline,
            "max_slack_violation": self.max_slack_violation,
            "fallback_neurons": list(self.fallback_neurons),
            "iterations": self.iterations,
            "converged": self.converged,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(layer=d["layer"], epsilon=d["epsilon"], residual=d["residual"],
                   l1_pruned=d["l1_pruned"], l1_baseline=d["l1_baseline"],
                   max_slack_violation=d["max_slack_violation"],
                   fallback_neurons=tuple(d["fallback_neurons"]),
                   iterations=d["iterations"], converged=d["converged"])


@dataclass(frozen=True)
class PrunedModel:
    """A pruned network plus its masks, provenance, and residual report."""

    network: ReluNetwork
    masks: tuple
    config: PruneConfig
    parent_hash: str
    layer_epsilons: tuple
    feasibility_report: tuple

    def __post_init__(self):
        masks = []
        for l, (m, w) in enumerate(zip(self.masks, self.network.weights), start=1):
            m = np.ascontiguousarray(m, dtype=bool)
            if m.shape != w.shape:
                raise ShapeError(f"mask for layer {l} must have shape {w.shape}")
            if ((w != 0.0) & ~m).any():
                raise ValueError(f"layer {l} weight support exceeds its mask")
            m.setflags(write=False)
            masks.append(m)
        if len(masks) != self.network.depth:
            raise ShapeError("need one mask per layer")
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "layer_epsilons",
                           tuple(float(e) for e in self.layer_epsilons))
        object.__setattr__(self, "feasibility_report", tuple(self.feasibility_report))


def collect_layer_data(net: ReluNetwork, x) -> tuple:
    """Per-layer (x_in with ones row, x_out, active mask) from the baseline."""
    acts = forward(net, x).layers
    p = acts[0].shape[1]
    ones = np.ones((1, p))
    out = []
    for l in range(net.depth):
        x_in = np.concatenate([acts[l], ones], axis=0)
        x_out = acts[l + 1]
        if l < net.depth - 1:
            mask = x_out > 0.0
        else:
            mask = np.ones(x_out.shape, dtype=bool)
        out.append(LayerData(x_in, x_out, mask))
    return tuple(out)


def _threshold(u):
    return np.where(np.abs(u) < ZERO_TOL, 0.0, u)


def _admm_iterate(x_in, yt, act, eps, penalize, u0):
    """Column-batched ADMM; returns (per-neuron iterate, iterations, done mask).

    Callers pre-normalize the problem (inputs to unit RMS column norm,
    targets to unit norm per neuron), so both residual thresholds can
    anchor at unit scale.  Each column keeps its own penalty, started at
    ``RHO`` and rebalanced whenever its primal and dual residuals drift
    more than a decade apart; the z and dual updates are over-relaxed by
    ``RELAX``.  Columns are independent problems, so converged ones are
    snapshotted and dropped from the working set, leaving the budget of
    ``MAX_ITER`` iterations to stragglers.
    """
    d, m = u0.shape
    xt = np.ascontiguousarray(x_in.T)
    gram = _kernels.matmul(x_in, xt) + np.eye(d)
    gram_inv = np.linalg.inv(gram)

    cols = np.arange(m)               # global indices of the working set
    rho_col = np.full(m, float(RHO))
    u = u0.copy()
    au = _kernels.matmul(xt, u)
    zf = au.copy()
    zl = u.copy()
    wf = np.zeros_like(zf)
    wl = np.zeros_like(zl)
    d_cache = _kernels.matmul(x_in, zf)   # X @ Zf
    wx = np.zeros((d, m))                 # X @ Wf, maintained incrementally

    snapshot = zl.copy()
    done = np.zeros(m, dtype=bool)
    iters_used = np.full(m, MAX_ITER, dtype=np.int64)

    for it in range(MAX_ITER):
        rhs = (d_cache - wx) + (zl - wl)
        u = _kernels.matmul(gram_inv, rhs)
        au = _kernels.matmul(xt, u)
        xau = _kernels.matmul(gram, u) - u     # X @ (X^T u) via the Gram matrix

        # one tolerance bounds both the fit ball and the inactive samples
        zf_new, wf, (r_fit, n_au, n_zf) = _kernels.admm_fit(
            au, zf, wf, yt, act, eps, eps, RELAX)
        d_new = _kernels.matmul(x_in, zf_new)
        zl_new, wl, wx, (r_l1, dual, n_u, n_zl, n_w) = _kernels.admm_l1(
            u, zl, wl, xau, d_cache, d_new, wx, penalize, rho_col, RELAX)

        pri = np.sqrt(r_fit ** 2 + r_l1 ** 2)
        mu_norm = np.sqrt(n_au ** 2 + n_u ** 2)
        z_norm = np.sqrt(n_zf ** 2 + n_zl ** 2)
        pri_thresh = STOP_TOL * np.maximum(np.maximum(mu_norm, z_norm), 1.0)
        dual_thresh = STOP_TOL * np.maximum(rho_col * n_w, 1.0)

        zf, zl, d_cache = zf_new, zl_new, d_new

        converged = (pri <= pri_thresh) & (dual <= dual_thresh)
        if converged.any():
            hit = cols[converged]
            snapshot[:, hit] = zl[:, converged]
            iters_used[hit] = it + 1
            done[hit] = True
            keep = ~converged
            if not keep.any():
                return snapshot, iters_used, done
            cols = cols[keep]
            rho_col = rho_col[keep]
            yt = yt[:, keep]
            act = act[:, keep]
            eps = eps[keep]
            zf = zf[:, keep]
            zl = zl[:, keep]
            wf = wf[:, keep]
            wl = wl[:, keep]
            wx = wx[:, keep]
            d_cache = d_cache[:, keep]
            pri = pri[keep]
            dual = dual[keep]

        # Residual balancing: scaled duals shrink when the penalty grows.
        grow = (pri > 10.0 * dual) & (rho_col < 1e4)
        shrink = (dual > 10.0 * pri) & (rho_col > 1e-4)
        if grow.any() or shrink.any():
            factor = np.where(grow, 2.0, np.where(shrink, 0.5, 1.0))
            rho_col = rho_col * factor
            wf = wf / factor[np.newaxis, :]
            wl = wl / factor[np.newaxis, :]
            wx = wx / factor[np.newaxis, :]

    snapshot[:, cols] = zl
    return snapshot, iters_used, done


def _column_violation(u, xt, y, act_col, eps_c, hidden):
    """(fit overshoot, worst slack overshoot, response ``xt @ u``) for one
    neuron's candidate."""
    r = xt @ u
    fit = np.sqrt(((r - y)[act_col] ** 2).sum()) - eps_c
    if hidden and (~act_col).any():
        slack = (r[~act_col]).max() - eps_c
    else:
        slack = -np.inf
    return fit, slack, r


def _select_column(w_col, zl_col, xt, y, act_col, eps_c, hidden, penalize):
    """Cheapest feasible candidate for one neuron, by penalized L1.

    Returns ``(column, fell_back)``.  Candidates, in order: the
    least-squares polish of the iterate's support, the iterate itself, and
    a blend toward the baseline column from each of them that violates a
    constraint (feasible by convexity, since the baseline is).  Each
    candidate's violation is computed once.  When no candidate is feasible
    (``fell_back``) or none beats the baseline's L1, the baseline column
    is returned verbatim.
    """
    floor = 1e-9 * (1.0 + np.sqrt((y[act_col] ** 2).sum()))
    bound = eps_c * FEAS_SLACK + floor

    def objective(u):
        return float(np.abs(u[penalize]).sum())

    # least-squares polish on the iterate's support (debiasing)
    supp = np.flatnonzero(zl_col != 0.0)
    if penalize.any() and not penalize.all():
        supp = np.union1d(supp, np.flatnonzero(~penalize))
    polish = np.zeros(len(w_col))
    rows = np.flatnonzero(act_col)
    if len(rows) and len(supp):
        sol = np.linalg.lstsq(xt[np.ix_(rows, supp)], y[rows], rcond=None)[0]
        polish[supp] = sol
    polish = _threshold(polish)

    checked = [(u, *_column_violation(u, xt, y, act_col, eps_c, hidden))
               for u in (polish, zl_col)]

    # blend toward the baseline column: theta chosen in closed form from
    # the violations, with a small margin
    for base, fit, slack, r in (checked[1], checked[0]):
        if fit <= 0.0 and slack <= 0.0:
            continue
        theta_fit = 0.0
        if fit > 0.0:
            resid = fit + eps_c
            theta_fit = 1.0 if resid <= 0 or eps_c <= 0 else 1.0 - eps_c / resid
        theta_slack = 0.0
        if hidden and slack > 0.0:
            r_w = xt @ w_col
            for p in np.flatnonzero(~act_col & (r > eps_c)):
                denom = r[p] - r_w[p]
                if denom > 0:
                    theta_slack = max(theta_slack, (r[p] - eps_c) / denom)
                else:
                    theta_slack = 1.0
        theta = min(1.0, 1.02 * max(theta_fit, theta_slack))
        blend = _threshold(theta * w_col + (1.0 - theta) * base)
        checked.append((blend, *_column_violation(blend, xt, y, act_col, eps_c, hidden)))

    best = None
    best_obj = None
    for cand, fit, slack, _ in checked:
        if fit <= bound and slack <= bound:
            obj = objective(cand)
            if best is None or obj < best_obj:
                best, best_obj = cand, obj

    if best is None or best_obj > objective(w_col):
        return w_col, best is None
    return best, False


def _solve_layer(w_aug, x_in, x_out, active, eps, hidden, *, layer=1, penalize_bias=True):
    """Solve one layer; returns ``(U, LayerFeasibility)``, U thresholded.

    ``layer`` is the 1-based layer index the report carries.
    """
    d, m = w_aug.shape
    if x_in.shape[0] != d:
        raise ShapeError(f"x_in has {x_in.shape[0]} rows but w_aug has {d}")
    if x_out.shape[0] != m:
        raise ShapeError(f"x_out has {x_out.shape[0]} rows but w_aug has {m} columns")

    yt = np.ascontiguousarray(x_out.T)
    act = np.ascontiguousarray(active.T) if hidden else np.ones(yt.shape, dtype=bool)
    xt = np.ascontiguousarray(x_in.T)

    penalize = np.ones(d, dtype=bool)
    if penalize_bias:
        penalize[d - 1] = False   # trailing bias row is never penalized

    row_norms = np.sqrt((np.where(act, yt, 0.0) ** 2).sum(axis=0))
    eps_fit = eps * row_norms

    # Change of variables before ADMM: inputs scaled to unit RMS column
    # norm, each neuron's targets to unit norm.  The substitution
    # u = (s_m / sigma) v leaves the per-neuron argmin unchanged while
    # putting the data at the unit scale RHO = 1 expects.
    p = x_in.shape[1]
    sigma = max(float(np.sqrt((x_in * x_in).sum() / p)), 1e-300)
    s_m = np.where(row_norms > 0.0, row_norms, 1.0)
    x_hat = x_in / sigma
    yt_hat = yt / s_m[np.newaxis, :]
    eps_hat = np.where(row_norms > 0.0, eps, 0.0)
    v0 = w_aug * (sigma / s_m)[np.newaxis, :]

    iterate_hat, iters_used, done = _admm_iterate(x_hat, yt_hat, act, eps_hat, penalize, v0)
    iterate = _threshold(iterate_hat * (s_m / sigma)[np.newaxis, :])

    u = np.empty_like(w_aug)
    fallback = []
    for c in range(m):
        u[:, c], fell_back = _select_column(
            w_aug[:, c], iterate[:, c], xt, yt[:, c], act[:, c], eps_fit[c],
            hidden, penalize)
        if fell_back:
            fallback.append(c)
    u = _threshold(u)

    # residual report on the final thresholded matrix
    raw = _kernels.matmul(xt, u)
    response = _kernels.relu(raw) if hidden else raw
    residual = float(np.sqrt((np.where(act, response - yt, 0.0) ** 2).sum()))
    if hidden:
        over = np.where(~act, raw - eps_fit[np.newaxis, :], -np.inf)
        max_viol = float(max(over.max(initial=-np.inf), 0.0))
    else:
        max_viol = 0.0
    return u, LayerFeasibility(
        layer=layer,
        epsilon=float(np.sqrt((eps_fit ** 2).sum())),
        residual=residual,
        l1_pruned=float(np.abs(u[:d - 1, :]).sum()),
        l1_baseline=float(np.abs(w_aug[:d - 1, :]).sum()),
        max_slack_violation=max_viol,
        fallback_neurons=tuple(fallback),
        iterations=int(iters_used.max()) if m else 0,
        converged=bool(done.all()),
    )


def prune_network(net: ReluNetwork, data: Dataset, cfg: PruneConfig, *,
                  train_template: TrainConfig | None = None,
                  parent_hash: str | None = None) -> PrunedModel:
    """Prune every layer against the baseline activations, then ``fine_tune``.

    The solve reads only ``cfg.epsilon_gain``, so configs that share it
    share the solve: ``generate_pool`` solves each distinct epsilon once
    and fine-tunes each config from that solve, with the same bits as
    calling this function per config.
    """
    if data.sample_count < 1:
        raise ValueError("pruning dataset is empty")

    new_weights = []
    new_biases = []
    masks = []
    reports = []
    for l, ld in enumerate(collect_layer_data(net, data.features)):
        w_aug = np.concatenate([net.weights[l], net.biases[l][np.newaxis, :]], axis=0)
        u, report = _solve_layer(w_aug, ld.x_in, ld.x_out, ld.active_mask,
                                 cfg.epsilon_gain, l < net.depth - 1, layer=l + 1)
        reports.append(report)
        new_weights.append(u[:-1, :])
        new_biases.append(u[-1, :])
        masks.append(u[:-1, :] != 0.0)

    if parent_hash is None:
        from .pool_store import bundle_digest
        parent_hash = bundle_digest(net)

    solved = PrunedModel(
        network=ReluNetwork(net.layer_dims, tuple(new_weights), tuple(new_biases)),
        masks=tuple(masks), config=cfg, parent_hash=parent_hash,
        layer_epsilons=tuple(r.epsilon for r in reports),
        feasibility_report=tuple(reports))
    return fine_tune(solved, data, cfg, train_template)


def fine_tune(pruned: PrunedModel, data: Dataset, cfg: PruneConfig,
              train_template: TrainConfig | None = None) -> PrunedModel:
    """``pruned`` fine-tuned on its masks as ``cfg`` says, carrying ``cfg``.

    ``cfg.fine_tune_epochs`` of masked SGD with ``cfg``'s l1, l2 and
    dropout; batch size, learning rate and seed come from
    ``train_template`` (or fixed defaults).  With 0 epochs the result
    shares ``pruned``'s read-only network.  ``cfg`` must name the epsilon
    ``pruned`` was solved for.
    """
    if cfg.epsilon_gain != pruned.config.epsilon_gain:
        raise ValueError(f"config epsilon {cfg.epsilon_gain} differs from the solve's "
                         f"{pruned.config.epsilon_gain}")
    net = pruned.network
    if cfg.fine_tune_epochs > 0:
        tcfg = replace(train_template or _FINE_TUNE_DEFAULTS,
                       epochs=cfg.fine_tune_epochs, l1=cfg.l1, l2=cfg.l2,
                       dropout_keep=cfg.dropout_keep)
        net = masked_train(net, data, tcfg, pruned.masks)
    return replace(pruned, network=net, config=cfg)
