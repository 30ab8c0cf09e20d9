"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -v -s`` to see them
live).  The desk-scale end-to-end runs are shared across the criteria that
consume them via a session fixture.
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

import ensyth as E
from ensyth import _kernels
from ensyth._kernels import _pykernels
from ensyth.ensemble import (
    Ensemble,
    ModelPool,
    VoteMatrix,
    backward_eliminate,
    best_ensemble,
    ensemble_accuracy,
    generate_pool,
    plurality_vote,
    predict_parallel,
    vote_matrix,
)
from ensyth.metrics import timed_inference, weight_nonzeros
from ensyth.network import ReluNetwork, TrainConfig, _loss_and_grads, batch_loss
from ensyth.pipeline import run_pipeline
from ensyth.pool_store import bundle_bytes, load_bundle, save_bundle
from ensyth.pruner import _solve_layer
from ensyth.tensor import DenseMatrix

from conftest import full_grid, make_pruned
from _oracles import reference_l1min, spearman
from test_metrics import clock_for_durations


def _criterion(num, description, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {num} failed: {description}"


# --- shared desk-scale runs (criteria 3, 5, 6) -------------------------------

SEEDS = (1, 2, 3)
SET1 = tuple(c for c in full_grid() if c.set_id == "set1")
SET1_EPSILONS = tuple(c.epsilon_gain for c in SET1)


def _desk_run(seed):
    ds = E.synth_blobs(seed=seed, samples_per_class=500, classes=5, dim=64,
                       spread=0.8)
    train_ds, _, test_ds = E.split(ds, E.SplitSpec(0.8, 0.1, 0.1, seed=seed + 100))
    init = ReluNetwork.initialize([64, 32, 5], seed=seed + 200)
    tcfg = TrainConfig(epochs=60, batch_size=32, learning_rate=0.05, l2=0.004,
                       seed=seed + 300)
    baseline = E.train(init, train_ds, tcfg)
    baseline_acc = float((E.predict(baseline, test_ds.features)
                          == test_ds.labels).mean())
    pool = generate_pool(baseline, SET1, train_ds)
    votes = vote_matrix(pool, test_ds.features)
    trace = backward_eliminate(pool, votes, test_ds.labels)
    return {
        "seed": seed,
        "baseline": baseline,
        "baseline_acc": baseline_acc,
        "baseline_nnz": weight_nonzeros(baseline),
        "pool": pool,
        "trace": trace,
        "member_nnz": [weight_nonzeros(m) for m in pool.members],
    }


@pytest.fixture(scope="session")
def desk_runs(request):
    """The three seeds on the compiled kernels, or on the numpy ones when
    no extension builds; the backends are bit-identical, so only the
    elapsed time depends on which one ran."""
    try:
        impl = request.getfixturevalue("ckernels")
    except pytest.skip.Exception:
        impl = _pykernels
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_impl", impl)
        start = time.perf_counter()
        runs = [_desk_run(seed) for seed in SEEDS]
        elapsed = time.perf_counter() - start
    return {"runs": runs, "elapsed": elapsed}


# --- criteria ----------------------------------------------------------------


def test_criterion_01_voting_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        classes = int(rng.integers(2, 11))
        samples = int(rng.integers(1, 51))
        labels = rng.integers(0, classes, size=(n, samples))
        votes = VoteMatrix(labels, classes)
        size = int(rng.integers(1, n + 1))
        ids = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        ens = Ensemble(ids, 0.0)
        for s in range(samples):
            counts = Counter(labels[list(ids), s].tolist())
            top = max(counts.values())
            expected = min(c for c, k in counts.items() if k == top)
            if plurality_vote(ens, votes, s) != expected:
                mismatches += 1
    elapsed = time.perf_counter() - start
    _criterion(1, f"plurality_vote == naive oracle on 1000 fixtures "
                  f"({elapsed:.1f}s)", mismatches == 0 and elapsed < 10.0)


def test_criterion_02_backward_elimination_semantics():
    def dummy_pool(nnz_counts):
        rng = np.random.default_rng(0)
        members = []
        for keep in nnz_counts:
            w = rng.normal(size=(4, 2))
            flat = w.reshape(-1)
            flat[np.argsort(np.abs(flat))[:flat.size - keep]] = 0.0
            members.append(make_pruned(ReluNetwork((4, 2), (w,), (np.zeros(2),))))
        return ModelPool(members=tuple(members), baseline_ref="b",
                         grid_manifest=tuple(m.config for m in members))

    def votes_for(fracs, samples=40):
        truth = np.zeros(samples, dtype=int)
        rows = []
        for frac in fracs:
            row = np.ones(samples, dtype=int)
            row[:round(frac * samples)] = 0
            rows.append(row)
        return VoteMatrix(np.stack(rows), 2), truth

    ok = True
    # ascending standalone-accuracy removal
    pool = dummy_pool([4, 4, 4, 4])
    votes, truth = votes_for([0.7, 0.5, 0.9, 0.6])
    trace = backward_eliminate(pool, votes, truth)
    ok &= [s.removed_id for s in trace.steps] == [1, 3, 0, None]
    ok &= len(trace) == 4
    # tie: more parameters first, then higher index
    pool = dummy_pool([4, 8, 8])
    votes, truth = votes_for([0.5, 0.5, 0.5])
    trace2 = backward_eliminate(pool, votes, truth)
    ok &= [s.removed_id for s in trace2.steps] == [2, 1, None]
    # stored accuracies recompute exactly
    rng = np.random.default_rng(33)
    pool = dummy_pool([4, 4, 4, 4, 4])
    votes = VoteMatrix(rng.integers(0, 2, size=(5, 50)), 2)
    truth = rng.integers(0, 2, size=50)
    trace3 = backward_eliminate(pool, votes, truth)
    for step in trace3.steps:
        ok &= ensemble_accuracy(Ensemble(step.member_ids, 0.0), votes, truth) \
            == step.accuracy
    _criterion(2, "elimination removes ascending standalone accuracy with the "
                  "documented tie rule; accuracies recompute exactly", bool(ok))


def test_criterion_03_pruning_feasibility_and_objective(desk_runs):
    checked = 0
    ok = True
    for run in desk_runs["runs"]:
        for member in run["pool"].members:
            for rep in member.feasibility_report:
                checked += 1
                ok &= rep.residual <= rep.epsilon * (1 + 1e-3)
                ok &= rep.l1_pruned <= rep.l1_baseline * (1 + 1e-6)
    _criterion(3, f"active-set residual and L1 bounds hold on all "
                  f"{checked} stored layer reports", bool(ok) and checked == 72)


def test_criterion_04_solver_vs_oracle():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    ok = True
    worst = -1.0
    for trial in range(20):
        m = int(rng.integers(2, 9))
        n_in = int(rng.integers(2, 9))
        p = int(rng.integers(8, 33))
        hidden = bool(trial % 2)
        w = rng.normal(size=(n_in, m)) / np.sqrt(n_in)
        b = rng.normal(size=m) * 0.1
        x = rng.normal(size=(n_in, p))
        x_in = np.concatenate([x, np.ones((1, p))])
        w_aug = np.concatenate([w, b[np.newaxis, :]])
        z = _kernels.matmul(np.ascontiguousarray(w_aug.T), x_in)
        x_out = _kernels.relu(z) if hidden else z
        active = x_out > 0.0 if hidden else np.ones_like(x_out, dtype=bool)
        eps = float(rng.uniform(0.1, 0.5))
        u, _ = _solve_layer(w_aug, x_in, x_out, active, eps, hidden)
        d = w_aug.shape[0]
        penalize = np.ones(d, dtype=bool)
        penalize[-1] = False
        for c in range(m):
            act = active[c]
            a = x_in[:, act].T
            y = x_out[c, act]
            bmat = x_in[:, ~act].T if hidden else np.zeros((0, d))
            eps_fit = eps * np.linalg.norm(y)
            ref = reference_l1min(a, y, bmat, eps_fit, eps_fit, penalize,
                                  w_aug[:, c], subgrad_iters=3000)
            obj = float(np.abs(u[penalize, c]).sum())
            gap = (obj - ref) / max(ref, 1e-12)
            worst = max(worst, gap)
            ok &= obj <= ref * 1.02 + 1e-12
    elapsed = time.perf_counter() - start
    _criterion(4, f"ADMM objective within 2% of reference on 20 random layers "
                  f"(worst gap {worst:.3%}, {elapsed:.0f}s)",
               bool(ok) and elapsed < 120.0)


def test_criterion_05_desk_scale_end_to_end(desk_runs):
    passing = []
    details = []
    for run in desk_runs["runs"]:
        best = best_ensemble(run["trace"])
        mean_frac = np.mean(run["member_nnz"]) / run["baseline_nnz"]
        good = (run["baseline_acc"] >= 0.95
                and best.accuracy >= run["baseline_acc"] - 0.005
                and mean_frac <= 0.60)
        passing.append(good)
        details.append(f"seed {run['seed']}: base={run['baseline_acc']:.3f} "
                       f"best={best.accuracy:.3f} frac={mean_frac:.3f}")
    elapsed = desk_runs["elapsed"]
    _criterion(5, f"{sum(passing)}/3 seeds pass ({'; '.join(details)}; "
                  f"{elapsed:.0f}s)", sum(passing) >= 2 and elapsed <= 600.0)


def test_criterion_06_sparsity_trend(desk_runs):
    rhos = []
    ok = True
    for run in desk_runs["runs"]:
        best = best_ensemble(run["trace"])
        mean_frac = np.mean(run["member_nnz"]) / run["baseline_nnz"]
        seed_passes = (run["baseline_acc"] >= 0.95
                       and best.accuracy >= run["baseline_acc"] - 0.005
                       and mean_frac <= 0.60)
        if not seed_passes:
            continue
        rho = spearman(SET1_EPSILONS, run["member_nnz"])
        rhos.append(f"seed {run['seed']}: {rho:.3f}")
        ok &= rho <= -0.8
    _criterion(6, f"Spearman(eps, nnz) <= -0.8 per passing seed "
                  f"({'; '.join(rhos)})", bool(ok) and len(rhos) >= 2)


def test_criterion_07_determinism(tmp_path):
    cfg = {
        "master_seed": 11,
        "dataset": {"type": "blobs", "samples_per_class": 50, "classes": 3,
                    "dim": 10, "spread": 0.8,
                    "split": {"train": 0.7, "val": 0.15, "test": 0.15}},
        "network": {"layer_dims": [10, 8, 3]},
        "train": {"epochs": 25, "batch_size": 16, "learning_rate": 0.05},
        "grid": [{"epsilons": [0.05, 0.3], "l2": 1}],
        "elimination": {"split": "val"},
        "bench": {"repeats": 1, "batch_size": 5},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    run_pipeline(str(path), str(tmp_path / "a"))
    run_pipeline(str(path), str(tmp_path / "b"))
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    pipeline_ok = (sa == sb
                   and sa["baseline_digest"] == sb["baseline_digest"]
                   and sa["member_digests"] == sb["member_digests"])

    rng = np.random.default_rng(77)
    parallel_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 6))
        classes = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 6))
        members = []
        for _ in range(n):
            w = rng.normal(size=(dim, classes))
            members.append(make_pruned(
                ReluNetwork((dim, classes), (w,), (rng.normal(size=classes),))))
        pool = ModelPool(members=tuple(members), baseline_ref="b",
                         grid_manifest=tuple(m.config for m in members))
        ens = Ensemble(tuple(range(n)), 0.0)
        x = DenseMatrix(rng.normal(size=(dim, int(rng.integers(1, 20)))))
        one = predict_parallel(ens, pool, x, workers=1)
        eight = predict_parallel(ens, pool, x, workers=8)
        parallel_ok &= one.tolist() == eight.tolist()
    _criterion(7, "pipeline reruns digest-identical; predict_parallel equal "
                  "for 1 vs 8 workers on 100 fixtures",
               pipeline_ok and bool(parallel_ok))


def test_criterion_08_persistence(tmp_path, trained_fixture):
    net = trained_fixture["net"]
    path = tmp_path / "m.ezip"
    digest = save_bundle(net, path, train_config=trained_fixture["cfg"])
    loaded, loaded_cfg, loaded_digest = load_bundle(path, expected_digest=digest)
    round_trip_ok = (loaded == net and loaded_cfg == trained_fixture["cfg"]
                     and loaded_digest == digest)

    rng = np.random.default_rng(8)
    dense_w = rng.normal(size=(40, 50))
    sparse_w = dense_w.copy()
    flat = sparse_w.reshape(-1)
    flat[np.argsort(np.abs(flat))[:int(0.9 * flat.size)]] = 0.0
    baseline = ReluNetwork((40, 50), (dense_w,), (rng.normal(size=50),))
    pruned = make_pruned(ReluNetwork((40, 50), (sparse_w,),
                                     (rng.normal(size=50),)))
    sparsity_value = E.sparsity(pruned)
    size_ok = len(bundle_bytes(pruned)) < len(bundle_bytes(baseline))
    _criterion(8, f"bundle round trip bitwise; sparsity-{sparsity_value:.2f} "
                  f"bundle smaller than dense baseline",
               round_trip_ok and size_ok and sparsity_value >= 0.9)


def test_criterion_09_gradient_check():
    rng = np.random.default_rng(9)
    dims = (3, 3, 2)
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1,
                      l1=0.01, l2=0.005)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        params = rng.choice([-1.0, 1.0], size=20) * rng.uniform(0.1, 1.0, size=20)
        weights = [params[:9].reshape(3, 3), params[9:15].reshape(3, 2)]
        biases = [params[15:18], params[18:20]]
        net = ReluNetwork(dims, tuple(weights), tuple(biases))
        x = rng.normal(size=(3, 8))
        labels = rng.integers(0, 2, size=8)
        _, gw, gb = _loss_and_grads([w.copy() for w in net.weights],
                                    [b.copy() for b in net.biases],
                                    x, labels, (0.01, 0.01), (0.005, 0.005),
                                    (1.0, 1.0), None)
        check_cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1,
                                l1=0.01, l2=0.005)
        for l in range(2):
            for idx in np.ndindex(weights[l].shape):
                wp = [w.copy() for w in net.weights]
                wm = [w.copy() for w in net.weights]
                wp[l][idx] += h
                wm[l][idx] -= h
                fd = (batch_loss(ReluNetwork(dims, tuple(wp), net.biases), x,
                                 labels, check_cfg)
                      - batch_loss(ReluNetwork(dims, tuple(wm), net.biases), x,
                                   labels, check_cfg)) / (2 * h)
                rel = abs(gw[l][idx] - fd) / max(abs(gw[l][idx]), abs(fd), 1e-8)
                worst = max(worst, rel)
            for j in range(len(biases[l])):
                bp = [b.copy() for b in net.biases]
                bm = [b.copy() for b in net.biases]
                bp[l][j] += h
                bm[l][j] -= h
                fd = (batch_loss(ReluNetwork(dims, net.weights, tuple(bp)), x,
                                 labels, check_cfg)
                      - batch_loss(ReluNetwork(dims, net.weights, tuple(bm)), x,
                                   labels, check_cfg)) / (2 * h)
                rel = abs(gb[l][j] - fd) / max(abs(gb[l][j]), abs(fd), 1e-8)
                worst = max(worst, rel)
    _criterion(9, f"analytic gradients within 1e-5 relative of central "
                  f"differences over 10 points (worst {worst:.2e})",
               worst < 1e-5)


def test_criterion_10_timing_protocol():
    rng = np.random.default_rng(10)
    durations = rng.uniform(5.0, 100.0, size=9).tolist()
    clock = clock_for_durations(durations)
    net = ReluNetwork((3, 2), (rng.normal(size=(3, 2)),), (np.zeros(2),))
    result = timed_inference(net, DenseMatrix(np.ones((3, 4))), repeats=9,
                             clock=clock)
    measured = [(clock.times[2 * i + 1] - clock.times[2 * i]) * 1e6
                for i in range(9)]
    expected = sum(measured) / 9
    _criterion(10, "timed_inference(repeats=9) returns the exact mean of the "
                   "nine injected durations", result.mean_us == expected)
