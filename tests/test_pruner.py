"""Layer data collection, the L1 pruning solver, and whole-network pruning."""

import numpy as np
import pytest

import ensyth as E
from ensyth import _kernels
from ensyth.network import ReluNetwork
from ensyth.pruner import (
    LayerData,
    PruneConfig,
    _solve_layer,
    collect_layer_data,
    fine_tune,
    prune_network,
)
from ensyth.tensor import DenseMatrix

from _oracles import lp_equality_l1min, subgradient_l1min, slsqp_l1min, spearman

scipy = pytest.importorskip("scipy")


def _solve(w_aug, ld, eps, hidden):
    """One layer's solve, as ``prune_network`` calls it."""
    u, _ = _solve_layer(w_aug, ld.x_in.data, ld.x_out.data, ld.active_mask, eps, hidden)
    return u


def _zero_net(dims):
    weights = [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(b) for b in dims[1:]]
    return ReluNetwork(tuple(dims), tuple(weights), tuple(biases))


class TestCollectLayerData:
    def test_zero_network(self):
        net = _zero_net([3, 4, 2])
        x = DenseMatrix(np.ones((3, 6)))
        layers = collect_layer_data(net, x)
        assert (layers[0].x_out.data == 0.0).all()
        assert not layers[0].active_mask.any()
        assert layers[1].active_mask.all()   # last layer: all entries count

    def test_ones_row_appended(self):
        net = _zero_net([2, 3])
        x = DenseMatrix(np.arange(8, dtype=float).reshape(2, 4))
        (layer,) = collect_layer_data(net, x)
        assert layer.x_in.shape == (3, 4)
        assert (layer.x_in.data[-1] == 1.0).all()
        assert (layer.x_in.data[:2] == x.data).all()

    def test_single_layer_targets_are_logits(self, trained_fixture):
        net = trained_fixture["net"]
        x = trained_fixture["train"].features
        layers = collect_layer_data(net, x)
        acts = E.forward(net, x)
        assert layers[-1].x_out.data.tobytes() == acts.final.tobytes()
        assert layers[0].x_out.data.tobytes() == acts.layers[1].tobytes()


class TestPruneLayer:
    def test_zero_layer_stays_zero(self):
        p = 6
        x_in = np.concatenate([np.random.default_rng(0).normal(size=(3, p)),
                               np.ones((1, p))])
        data = LayerData(DenseMatrix(x_in), DenseMatrix(np.zeros((2, p))),
                         np.zeros((2, p), dtype=bool))
        u = _solve(np.zeros((4, 2)), data, 0.1, hidden=True)
        assert (u == 0.0).all()

    def test_positive_part_at_zero_tolerance(self):
        """With identity inputs and eps = 0, the optimum pins the active
        entries and relaxes the inactive ones to zero, which is exactly the
        entrywise positive part of the weights."""
        w = np.array([[1.0, -2.0], [-3.0, 4.0]])
        x_in = np.eye(2)
        z = _kernels.matmul(np.ascontiguousarray(w.T), x_in)
        x_out = _kernels.relu(z)
        active = x_out > 0.0
        u, info = _solve_layer(w, x_in, x_out, active, 0.0, hidden=True,
                               penalize_bias=False)
        expected = np.maximum(w, 0.0)
        assert np.abs(u - expected).max() < 1e-8
        assert np.abs(u).sum() < np.abs(w).sum()

        # cross-check neuron by neuron against the LP reformulation
        for c in range(2):
            act = active[c]
            a_eq = x_in[:, act].T
            y_eq = x_out[c, act]
            b_ub = x_in[:, ~act].T
            ref = lp_equality_l1min(a_eq, y_eq, b_ub, np.ones(2, dtype=bool))
            assert np.abs(u[:, c] - ref).max() < 1e-6

    def test_objective_close_to_long_subgradient_run(self):
        rng = np.random.default_rng(77)
        n_in, m, p = 6, 4, 24
        w = rng.normal(size=(n_in, m)) / np.sqrt(n_in)
        b = rng.normal(size=m) * 0.1
        x = rng.normal(size=(n_in, p))
        x_in = np.concatenate([x, np.ones((1, p))])
        w_aug = np.concatenate([w, b[None, :]])
        z = _kernels.matmul(np.ascontiguousarray(w_aug.T), x_in)
        x_out = _kernels.relu(z)
        active = x_out > 0.0
        eps = 0.1
        data = LayerData(DenseMatrix(x_in), DenseMatrix(x_out), active)
        u = _solve(w_aug, data, eps, hidden=True)
        d = w_aug.shape[0]
        penalize = np.ones(d, dtype=bool)
        penalize[-1] = False
        for c in range(m):
            act = active[c]
            a = x_in[:, act].T
            y = x_out[c, act]
            bmat = x_in[:, ~act].T
            eps_fit = eps * np.linalg.norm(y)
            _, ref = subgradient_l1min(a, y, bmat, eps_fit, eps_fit, penalize,
                                       w_aug[:, c], iters=100000)
            obj = np.abs(u[penalize, c]).sum()
            assert obj <= ref * 1.02 + 1e-12

    def test_never_exceeds_baseline_l1(self, trained_fixture):
        net = trained_fixture["net"]
        layers = collect_layer_data(net, trained_fixture["train"].features)
        for l, ld in enumerate(layers):
            w_aug = np.concatenate([net.weights[l], net.biases[l][None, :]])
            u = _solve(w_aug, ld, 0.2, hidden=l < net.depth - 1)
            assert np.abs(u[:-1]).sum() <= \
                np.abs(w_aug[:-1]).sum() * (1 + 1e-6)

    def test_rejects_negative_eps(self):
        """The epsilon guard sits in ``PruneConfig``, which every solve takes."""
        for eps in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="epsilon_gain must be >= 0"):
                PruneConfig(epsilon_gain=eps)


class TestPruneNetwork:
    def test_zero_tolerance_preserves_outputs(self, trained_fixture):
        net = trained_fixture["net"]
        tr = trained_fixture["train"]
        pm = prune_network(net, tr, PruneConfig(epsilon_gain=0.0))
        out = E.forward(pm.network, tr.features).final
        base = E.forward(net, tr.features).final
        assert np.abs(out - base).max() < 1e-6

    def test_nonzeros_do_not_grow(self, trained_fixture):
        net = trained_fixture["net"]
        tr = trained_fixture["train"]
        base_nnz = E.param_count(net)
        for eps in (0.05, 0.2, 0.5):
            pm = prune_network(net, tr, PruneConfig(epsilon_gain=eps))
            assert E.param_count(pm) <= base_nnz

    def test_deterministic_bitwise(self, trained_fixture):
        net = trained_fixture["net"]
        tr = trained_fixture["train"]
        cfg = PruneConfig(epsilon_gain=0.15)
        a = prune_network(net, tr, cfg)
        b = prune_network(net, tr, cfg)
        assert a.network == b.network
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.masks, b.masks))
        assert a.feasibility_report == b.feasibility_report

    def test_feasibility_report_within_bounds(self, trained_fixture):
        net = trained_fixture["net"]
        tr = trained_fixture["train"]
        for eps in (0.05, 0.3):
            pm = prune_network(net, tr, PruneConfig(epsilon_gain=eps))
            for rep in pm.feasibility_report:
                assert rep.residual <= rep.epsilon * (1 + 1e-3)
                assert rep.l1_pruned <= rep.l1_baseline * (1 + 1e-6)

    def test_feasibility_recomputed_from_scratch(self, trained_fixture):
        """The stored report must agree with residuals recomputed directly
        from the pruned weights and the pruning data."""
        net = trained_fixture["net"]
        tr = trained_fixture["train"]
        pm = prune_network(net, tr, PruneConfig(epsilon_gain=0.25))
        layers = collect_layer_data(net, tr.features)
        for l, (ld, rep) in enumerate(zip(layers, pm.feasibility_report)):
            hidden = l < net.depth - 1
            u = np.concatenate([pm.network.weights[l],
                                pm.network.biases[l][None, :]])
            response = _kernels.matmul(np.ascontiguousarray(ld.x_in.data.T), u)
            if hidden:
                response = _kernels.relu(response)
            act = ld.active_mask.T
            resid = float(np.sqrt(
                (np.where(act, response - ld.x_out.data.T, 0.0) ** 2).sum()))
            eps_l = 0.25 * float(np.sqrt(
                (np.where(act, ld.x_out.data.T, 0.0) ** 2).sum()))
            assert resid == rep.residual
            assert resid <= eps_l * (1 + 1e-3)

    def test_masks_match_weight_support(self, trained_fixture):
        pm = prune_network(trained_fixture["net"], trained_fixture["train"],
                           PruneConfig(epsilon_gain=0.2))
        for w, m in zip(pm.network.weights, pm.masks):
            assert ((w != 0.0) == m).all()

    def test_fine_tune_respects_masks(self, trained_fixture):
        cfg = PruneConfig(epsilon_gain=0.3, fine_tune_epochs=3)
        pm = prune_network(trained_fixture["net"], trained_fixture["train"], cfg,
                           train_template=trained_fixture["cfg"])
        for w, m in zip(pm.network.weights, pm.masks):
            assert not ((w != 0.0) & ~m).any()

    def test_fine_tune_of_shared_solve_is_bitwise_prune_network(self, trained_fixture):
        net = trained_fixture["net"]
        tr = trained_fixture["train"]
        template = trained_fixture["cfg"]
        solved = prune_network(net, tr, PruneConfig(epsilon_gain=0.3))
        for epochs in (0, 3):
            cfg = PruneConfig(epsilon_gain=0.3, l2=0.004, dropout_keep=(0.5, 1.0),
                              fine_tune_epochs=epochs, set_id="set2")
            direct = prune_network(net, tr, cfg, train_template=template)
            tuned = fine_tune(solved, tr, cfg, template)
            assert tuned.config == cfg
            assert E.bundle_digest(tuned) == E.bundle_digest(direct)
            assert tuned.network == direct.network
            assert tuned.feasibility_report == direct.feasibility_report
            assert (tuned.network is solved.network) == (epochs == 0)
        assert not solved.network.weights[0].flags.writeable

    def test_fine_tune_rejects_another_epsilon(self, trained_fixture):
        solved = prune_network(trained_fixture["net"], trained_fixture["train"],
                               PruneConfig(epsilon_gain=0.3))
        with pytest.raises(ValueError, match="differs from the solve"):
            fine_tune(solved, trained_fixture["train"], PruneConfig(epsilon_gain=0.1))

    def test_sparsity_trend_over_grid(self, trained_fixture):
        net = trained_fixture["net"]
        tr = trained_fixture["train"]
        eps_grid = (0.02, 0.05, 0.1, 0.2, 0.35, 0.5)
        nnzs = [E.param_count(prune_network(net, tr, PruneConfig(epsilon_gain=e)))
                for e in eps_grid]
        assert spearman(eps_grid, nnzs) <= -0.8


class TestSolverAgainstSlsqp:
    def test_last_layer_no_relu_split(self):
        rng = np.random.default_rng(99)
        n_in, m, p = 5, 3, 20
        w_aug = np.concatenate([rng.normal(size=(n_in, m)), rng.normal(size=(1, m))])
        x_in = np.concatenate([rng.normal(size=(n_in, p)), np.ones((1, p))])
        x_out = _kernels.matmul(np.ascontiguousarray(w_aug.T), x_in)
        active = np.ones_like(x_out, dtype=bool)
        eps = 0.25
        u, _ = _solve_layer(w_aug, x_in, x_out, active, eps, hidden=False)
        d = w_aug.shape[0]
        penalize = np.ones(d, dtype=bool)
        penalize[-1] = False
        for c in range(m):
            a = x_in.T
            y = x_out[c]
            eps_fit = eps * np.linalg.norm(y)
            _, ref = slsqp_l1min(a, y, np.zeros((0, d)), eps_fit, eps_fit,
                                 penalize, w_aug[:, c])
            assert np.abs(u[penalize, c]).sum() <= ref * 1.02 + 1e-9
