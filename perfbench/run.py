#!/usr/bin/env python3
"""ensyth benchmark: pool synthesis and ensemble serving, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pool-synth --seed 1 --seconds 25 --trace 0

Set-up builds the compiled kernels from the repository's ``setup.py`` in a
private copy under ``.bench_build/`` (the source tree is not touched) and
imports ensyth from there with ``ENSYTH_KERNELS=compiled``.  A run then
makes one ``run_pipeline`` call on a synthetic-blobs config made from the
seed, checks every pool member, and serves the pool until ``--seconds``
have passed since the pipeline started: bundle loads with digest checks,
``predict_parallel`` on seeded 50-sample batches, and full-pool
``vote_matrix`` scoring.  ``--trace 1`` runs the pipeline once untraced and
once traced, after a one-member warm-up, and reports per-layer metrics
instead.  The last line of stdout is the JSON result; run metadata is
printed before it.
"""

import os

# One process, at most nproc threads: the pool's own workers, no BLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_REPEATS = 3        # builds per run; setup_s is their median CPU time, which
                         # drifts less between sets of runs than one build's
SERVED_SIZE = 5          # members of the served ensemble (an elimination-trace step)
PREDICT_BATCH = 50       # samples per predict_parallel call
PREDICTS_PER_ROUND = 20  # predict calls between a bundle load and a vote pass
MIN_SERVE_S = 3.0        # the serving phase runs at least this long
TRACE_ROUNDS = 60        # traced runs serve a fixed amount, so their counts compare
KERNEL_REPEATS = 7       # timings per kernel case and backend; bench_kernels keeps the best
FEAS_SLACK = 1e-3        # residual <= epsilon * (1 + FEAS_SLACK)
OBJ_SLACK = 1e-6         # l1_pruned <= l1_baseline * (1 + OBJ_SLACK)


@dataclass(frozen=True)
class Workload:
    name: str
    config: object       # seed -> pipeline config dict
    workers: int


def _blobs_config(seed, *, dims, per_class, spread, split, epsilons, sets=None,
                  fine_tune_epochs=0):
    """A run_pipeline config on seeded Gaussian blobs; ``seed`` is the master seed."""
    sets = sets or [{"l1": 0, "l2": 1, "dropout_keep": 1}]
    return {
        "master_seed": seed,
        "dataset": {"type": "blobs", "samples_per_class": per_class,
                    "classes": dims[-1], "dim": dims[0], "spread": spread,
                    "split": dict(zip(("train", "val", "test"), split))},
        "network": {"layer_dims": list(dims)},
        "train": {"epochs": 60, "batch_size": 32, "learning_rate": 0.05, "l2": 0.004},
        "grid": [{"set_id": f"set{i + 1}", "epsilons": list(epsilons),
                  "fine_tune_epochs": fine_tune_epochs, **coeffs}
                 for i, coeffs in enumerate(sets)],
        "elimination": {"split": "test"},
        "bench": {"repeats": 9, "batch_size": 50},
    }


WORKLOADS = {w.name: w for w in (
    # blobs_small's shape with a wider spread (baseline ~0.8 accurate), every
    # solve distinct, one thread: the ADMM reference run.
    Workload("pool-synth", lambda seed: _blobs_config(
        seed, dims=(64, 32, 5), per_class=500, spread=3.0, split=(0.8, 0.1, 0.1),
        epsilons=(0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)),
        workers=1),
    # A deeper net, 3 fine-tune sets x 4 epsilons on two workers: each solve
    # key is used three times and every member runs masked SGD.
    Workload("pool-finetune", lambda seed: _blobs_config(
        seed, dims=(32, 48, 24, 6), per_class=400, spread=2.0, split=(0.8, 0.1, 0.1),
        epsilons=(0.02, 0.1, 0.3, 0.6), fine_tune_epochs=3,
        sets=[{"l1": 0, "l2": 0.001, "dropout_keep": 1},
              {"l1": 0, "l2": [0, 0.004, 0.004], "dropout_keep": 1},
              {"l1": 0, "l2": [0, 0.004, 0.004], "dropout_keep": [1, 0.5, 1]}]),
        workers=2),
    # A small, quick pool whose members span dense to nearly empty, served
    # for most of the run: forward-only small-batch work and bundle reads.
    Workload("ensemble-serve", lambda seed: _blobs_config(
        seed, dims=(64, 32, 5), per_class=200, spread=3.0, split=(0.5, 0.1, 0.4),
        epsilons=(0.01, 0.04, 0.08, 0.2, 0.3, 0.4, 0.5, 0.7)), workers=1),
)}


class BenchmarkError(Exception):
    """The benchmark could not set up or run; no result is printed."""


# --- set-up --------------------------------------------------------------------

def build_kernels(dest):
    """Copy the package sources to ``dest`` and compile the kernels there.

    Returns the sha256 of the copied sources, which names the code measured.
    """
    files = [os.path.join(ROOT, name) for name in ("setup.py", "pyproject.toml")]
    src_dir = os.path.join(ROOT, "src")
    for path in files + [src_dir]:
        if not os.path.exists(path):
            raise BenchmarkError(f"{path} is missing")
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    for path in files:
        shutil.copy2(path, dest)
    shutil.copytree(src_dir, os.path.join(dest, "src"),
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    code = source_digest(dest)
    env = {k: v for k, v in os.environ.items() if k != "ENSYTH_NO_EXT"}
    try:
        proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                              cwd=dest, env=env, capture_output=True, text=True,
                              timeout=120)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("building the compiled kernels took over 120 s") from None
    kernel_dir = os.path.join(dest, "src", "ensyth", "_kernels")
    built = [n for n in os.listdir(kernel_dir)
             if n.startswith("_ckernels.") and n.endswith(".so")]
    if proc.returncode != 0 or not built:
        raise BenchmarkError("building the compiled kernels failed:\n"
                             + proc.stdout + proc.stderr)
    return code


def source_digest(top):
    """sha256 over the relative path and contents of every file under ``top``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, top).encode() + b"\0"
                     + hashlib.sha256(data).digest())
    return h.hexdigest()


def _cpu_seconds():
    """CPU time of this process plus its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def set_up(build_dir, repeats):
    """Build ``repeats`` times, then import the last build.

    Returns (CPU seconds, wall seconds) per build and the sources' sha256.
    CPU time measures the set-up work; on a shared machine it moves far less
    than wall time when other tenants' load comes and goes.
    """
    cpu, wall = [], []
    for _ in range(repeats):
        c0, t0 = _cpu_seconds(), time.perf_counter()
        code = build_kernels(build_dir)
        cpu.append(_cpu_seconds() - c0)
        wall.append(time.perf_counter() - t0)
    os.environ["ENSYTH_KERNELS"] = "compiled"
    sys.path.insert(0, os.path.join(build_dir, "src"))
    try:
        ensyth = importlib.import_module("ensyth")
        importlib.import_module("ensyth.pipeline")
    except RuntimeError as exc:   # ENSYTH_KERNELS=compiled without a loadable build
        raise BenchmarkError(str(exc)) from None
    if not os.path.abspath(ensyth.__file__).startswith(os.path.abspath(build_dir)):
        raise BenchmarkError(f"ensyth was imported from {ensyth.__file__}, "
                             f"not from the benchmark's build")
    if ensyth.KERNEL_BACKEND != "compiled":
        raise BenchmarkError(f"kernel backend is {ensyth.KERNEL_BACKEND!r}")
    return cpu, wall, code


# --- correctness -----------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def member_report_ok(model):
    """The pruning guarantees, as acceptance criterion 3 states them."""
    return all(rep.residual <= rep.epsilon * (1 + FEAS_SLACK)
               and rep.l1_pruned <= rep.l1_baseline * (1 + OBJ_SLACK)
               for rep in model.feasibility_report)


def digest_store(workload, seed, cfg, code):
    """Where runs of one workload, seed, config and source tree keep their digests.

    Runs of other code are never compared: a change may alter digests on purpose.
    """
    key = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]
    return os.path.join(WORK, "digests", f"{workload}-{seed}-{key}-{code[:16]}.json")


def check_digests(store_path, digests):
    """Indices whose digest differs from an earlier run with the same store.

    The first such run records its digests in ``store_path``.
    """
    if os.path.exists(store_path):
        with open(store_path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        return [i for i in range(max(len(earlier), len(digests)))
                if i >= len(earlier) or i >= len(digests) or earlier[i] != digests[i]]
    os.makedirs(os.path.dirname(store_path), exist_ok=True)
    with open(store_path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh)
    return []


def check_pool(E, summary, paths, tally, store_path):
    """Load every member with its digest verified and check its report.

    Each member is one operation.  Returns the loaded pool, or None when a
    member could not be loaded.
    """
    digests = summary["member_digests"]
    changed = set(check_digests(store_path, digests))
    members = []
    for i, path in enumerate(paths):
        try:
            model = E.pool_store.load_bundle(path, expected_digest=digests[i])[0]
        except E.errors.EnsythError as exc:
            tally.op(False, f"member {i}: {exc}")
            continue
        members.append(model)
        tally.op(member_report_ok(model) and i not in changed,
                 f"member {i}: " + ("digest differs from an earlier run of this seed"
                                   if i in changed else "feasibility report out of bounds"))
    if len(members) != len(paths):
        return None
    return E.ensemble.ModelPool(members=tuple(members), baseline_ref=summary["baseline_digest"],
                                grid_manifest=tuple(m.config for m in members))


# --- the measured phases ------------------------------------------------------------

def run_pool_pipeline(E, cfg, out_dir, workers):
    """One run_pipeline call; returns (seconds, artifact paths)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    config = E.pipeline.parse_config(cfg)
    t0 = time.perf_counter()
    paths = E.pipeline.run_pipeline(config, out_dir, workers=workers)
    return time.perf_counter() - t0, paths


def quality(E, summary, pool):
    """(end-to-end, per-layer) quality scores of the pipeline's pool."""
    baseline = summary["baseline_params"]
    params = [E.metrics.param_count(m) for m in pool.members]
    best = sum(params[i] for i in summary["best_ensemble_member_ids"])
    end_to_end = {
        "pool_params_ratio": float(np.mean(params)) / baseline,
        "best_ensemble_acc_ratio": summary["best_ensemble_accuracy"] / summary["baseline_accuracy"],
    }
    per_layer = {
        "ensemble.best_params_ratio": best / baseline,
        "ensemble.best_acc_delta": summary["best_ensemble_accuracy"] - summary["baseline_accuracy"],
    }
    return end_to_end, per_layer


def serve(E, pool, paths, digests, eval_ds, seed, tally, *, deadline=None, rounds=None):
    """Closed loop, one client: load, predict, vote; until the deadline, or
    for a fixed number of rounds."""
    x = np.ascontiguousarray(eval_ds.features.data)
    ref_votes = E.ensemble.vote_matrix(pool, x)
    trace = E.ensemble.backward_eliminate(pool, ref_votes, eval_ds.labels)
    size = min(SERVED_SIZE, len(pool))
    step = next(s for s in trace.steps if len(s.member_ids) == size)
    served = E.ensemble.Ensemble(step.member_ids, step.accuracy)
    ref_fused = E.ensemble.fused_labels(served.member_ids, ref_votes)

    rng = np.random.default_rng([seed, 2])
    n = x.shape[1]
    load_s, predict_us, vote_s = [], [], []
    while not vote_s or (len(vote_s) < rounds if rounds
                         else time.perf_counter() < deadline):
        t0 = time.perf_counter()
        error = None
        try:
            members = tuple(E.pool_store.load_bundle(p, expected_digest=d)[0]
                            for p, d in zip(paths, digests))
        except E.errors.EnsythError as exc:
            error, members = exc, pool.members
        load_s.append(time.perf_counter() - t0)
        tally.op(error is None, f"pool load: {error}")
        pool = E.ensemble.ModelPool(members=members, baseline_ref=pool.baseline_ref,
                                    grid_manifest=pool.grid_manifest)
        for _ in range(PREDICTS_PER_ROUND):
            idx = rng.choice(n, size=min(PREDICT_BATCH, n), replace=False)
            batch = np.ascontiguousarray(x[:, idx])
            t0 = time.perf_counter()
            labels = E.ensemble.predict_parallel(served, pool, batch, workers=1)
            predict_us.append((time.perf_counter() - t0) * 1e6)
            tally.op(np.array_equal(labels, ref_fused[idx]),
                     "predict_parallel differs from the reference vote_matrix")
        t0 = time.perf_counter()
        votes = E.ensemble.vote_matrix(pool, x)
        vote_s.append(time.perf_counter() - t0)
        tally.op(np.array_equal(votes.labels, ref_votes.labels),
                 "vote_matrix differs from the first pass")

    return {
        "ensemble_predict_us_p50": float(np.percentile(predict_us, 50)),
        "pool_vote_samples_per_s": n / statistics.median(vote_s),
        "pool_load_s": statistics.median(load_s),
    }, {"predict_calls": len(predict_us), "predict_us_p99": float(np.percentile(predict_us, 99)),
        "vote_calls": len(vote_s), "loads": len(load_s),
        "served_members": list(served.member_ids)}


def predict_by_density(E, pool, eval_ds, repeats=200):
    """Median predict time of the densest and the sparsest member, in us."""
    x = np.ascontiguousarray(eval_ds.features.data[:, :PREDICT_BATCH])
    nnz = [E.metrics.param_count(m) for m in pool.members]
    nets = {"densest": pool.members[int(np.argmax(nnz))].network,
            "sparsest": pool.members[int(np.argmin(nnz))].network}
    times = {tag: [] for tag in nets}
    for _ in range(repeats):          # interleaved, so drift hits both alike
        for tag, net in nets.items():
            t0 = time.perf_counter()
            E.network.predict(net, x)
            times[tag].append((time.perf_counter() - t0) * 1e6)
    return {tag: statistics.median(t) for tag, t in times.items()}


def load_bench_kernels():
    """The repository's kernel benchmark module, whose shapes the kernel cases use."""
    path = os.path.join(ROOT, "benchmarks", "bench_kernels.py")
    if not os.path.isfile(path):
        raise BenchmarkError(f"{path} is missing")
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kernel_cases(tally, seed):
    """bench_kernels' cases on both backends, with a bit-identity check per case.

    Times are reported for its MATMUL_SHAPES, best of KERNEL_REPEATS.
    """
    bench = load_bench_kernels()
    from ensyth._kernels import _ckernels, _pykernels

    results = {backend: bench._bench_backend(impl, KERNEL_REPEATS,
                                             np.random.default_rng([seed, 3]))
               for backend, impl in (("compiled", _ckernels), ("python", _pykernels))}
    for label, (_, compiled) in results["compiled"].items():
        tally.op(compiled.tobytes() == results["python"][label][1].tobytes(),
                 f"kernel case {label}: backends differ")
    return {f"kernels.case.{case_name(label)}.us.{backend}": results[backend][label][0] * 1e6
            for label, _, _ in bench.MATMUL_SHAPES for backend in results}


def case_name(label):
    """'admm rhs  65x2000 @ 2000x32' -> 'admm_rhs_65x2000_2000x32'."""
    return "_".join(t for t in label.replace("@", " ").split())


# --- run metadata -------------------------------------------------------------------

def _command_output(args, cwd=ROOT):
    try:
        return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def _cpu():
    """CPU model and L2/L3 sizes as lscpu reports them ("" when unknown)."""
    fields = {}
    for line in _command_output(["lscpu"]).splitlines():
        name, _, value = line.partition(":")
        fields[name.strip()] = value.strip()
    return {"cpu_model": fields.get("Model name", ""),
            "l2_cache": fields.get("L2 cache", ""), "l3_cache": fields.get("L3 cache", "")}


def metadata(E, workload, seed, trace):
    top = _command_output(["git", "rev-parse", "--show-toplevel"])
    commit = (_command_output(["git", "rev-parse", "HEAD"])
              if top and os.path.samefile(top, ROOT) else "")
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), **_cpu(),
        "python": platform.python_version(), "numpy": np.__version__,
        "gcc": _command_output(["gcc", "-dumpfullversion"]),
        "kernel_backend": E.KERNEL_BACKEND, "git_commit": commit or "unknown",
    }


# --- one run ---------------------------------------------------------------------

def measure(workload, seed, seconds, trace):
    """Run one workload; returns (result dict, extra run details)."""
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        setup = set_up(os.path.join(run_dir, "build"), SETUP_REPEATS)
        return _measure(importlib.import_module("ensyth"), workload, seed, seconds,
                        trace, run_dir, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(E, workload, seed, seconds, trace, run_dir, setup):
    cfg = workload.config(seed)
    out_dir = os.path.join(run_dir, "pipeline")
    cpu, wall, code = setup
    store = digest_store(workload.name, seed, cfg, code)
    tally = Tally()
    metrics = {"setup_s": statistics.median(cpu)}
    extra = {"setup_cpu_s": cpu, "setup_wall_s": wall, "source_sha256": code}

    rec = None
    if trace:
        # A process's first pipeline runs cold (first calls, allocator, page
        # cache).  A one-member warm-up goes first, so that the untraced and
        # the traced pipeline both run warm and their difference is the tracing.
        first = cfg["grid"][0]
        run_pool_pipeline(E, dict(cfg, grid=[dict(first, epsilons=first["epsilons"][:1])]),
                          out_dir, workload.workers)
        untraced_s, _ = run_pool_pipeline(E, cfg, out_dir, workload.workers)
        extra["untraced_pipeline_s"] = untraced_s
        untraced_digests = _summary(out_dir)["member_digests"]
        rec = tracing.Tracer()
        tracing.instrument(rec, importlib.import_module)
    try:
        start = time.perf_counter()
        try:
            pipeline_s, paths = run_pool_pipeline(E, cfg, out_dir, workload.workers)
        except Exception:  # a failing pipeline fails every member, loudly
            traceback.print_exc()
            for _ in range(sum(len(s["epsilons"]) for s in cfg["grid"])):
                tally.op(False, "run_pipeline raised")
            return _result(tally, metrics), extra
        summary = _summary(out_dir)
        extra["member_digests"] = summary["member_digests"]
        if trace and summary["member_digests"] != untraced_digests:
            tally.failures.append("traced and untraced pipelines gave different digests")
        pool = check_pool(E, summary, paths["pool"], tally, store)
        if pool is None:
            return _result(tally, metrics), extra
        metrics["pipeline_s"] = pipeline_s
        scores, per_layer = quality(E, summary, pool)
        metrics.update(scores)

        _, _, test_ds = E.pipeline.build_dataset(E.pipeline.parse_config(cfg).dataset)
        deadline = max(start + seconds, time.perf_counter() + MIN_SERVE_S)
        served, extra["serve"] = serve(
            E, pool, paths["pool"], summary["member_digests"], test_ds, seed, tally,
            deadline=deadline, rounds=TRACE_ROUNDS if trace else None)
        metrics.update(served)
    finally:
        if rec is not None:
            rec.restore()

    if not trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return _result(tally, metrics), extra

    extra["trace_missing"] = rec.missing
    layers = tracing.layer_metrics(rec)
    layers["trace.overhead_s"] = pipeline_s - untraced_s
    layers["pool_store.bundle_bytes_total"] = sum(os.path.getsize(p) for p in paths["pool"])
    layers.update(per_layer)
    layers.update(solver_metrics(pool))
    dens = predict_by_density(E, pool, test_ds)
    layers["network.predict_us.densest"] = dens["densest"]
    layers["network.predict_us.sparsest"] = dens["sparsest"]
    layers["network.predict_sparse_dense_ratio"] = dens["sparsest"] / dens["densest"]
    layers.update(kernel_cases(tally, seed))
    return _result(tally, layers), extra


def solver_metrics(pool):
    reports = [rep for m in pool.members for rep in m.feasibility_report]
    return {
        "pruner.admm_iterations": sum(rep.iterations for rep in reports),
        "pruner.unconverged_layers": sum(not rep.converged for rep in reports),
        "pruner.fallback_neurons": sum(len(rep.fallback_neurons) for rep in reports),
        "pruner.l1_ratio_mean": float(np.mean([rep.l1_pruned / rep.l1_baseline
                                               for rep in reports])),
    }


def _summary(out_dir):
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _result(tally, metrics):
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures), "metrics": metrics,
            "failures": tally.failures}


def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(result, units):
    """The printed result: every declared metric that was measured, with its unit."""
    measured = result["metrics"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": measured[name], "unit": unit}
                        for name, unit in units.items() if name in measured}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        units = declared_metrics(args.trace)
        result, extra = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                args.trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    meta = metadata(importlib.import_module("ensyth"), args.workload, args.seed,
                    args.trace)
    out = result_line(result, units)
    missing = sorted(set(units) - set(out["metrics"]))
    for name, m in out["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6f} {m['unit']}")
    for failure in result["failures"][:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    if missing:
        print(f"not measured: {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({"meta": meta, **extra}))
    print(json.dumps(out))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
