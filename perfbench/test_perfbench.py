"""Tests of the benchmark itself, at a tiny smoke size.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import textwrap
import types

import pytest

import run
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))


# --- the whole benchmark, tiny ----------------------------------------------------

def _smoke(tmp_path, trace):
    """Run the benchmark in a fresh process on a tiny workload."""
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {HERE!r})
        import run
        run.WORK = {str(tmp_path)!r}
        run.SETUP_REPEATS = 1
        run.MIN_SERVE_S = 0.2
        run.TRACE_ROUNDS = 3
        run.WORKLOADS["tiny"] = run.Workload("tiny", lambda seed: run._blobs_config(
            seed, dims=(8, 6, 3), per_class=30, spread=1.0, split=(0.6, 0.1, 0.3),
            epsilons=(0.05, 0.3, 0.7)), workers=2)
        sys.exit(run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.5",
                           "--trace", "{trace}"]))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, trace):
    out = _smoke(tmp_path, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = run.declared_metrics(trace)
    assert set(out["metrics"]) == set(declared)
    for name, m in out["metrics"].items():
        assert m["unit"] == declared[name]
        assert isinstance(m["value"], (int, float))


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pool-synth",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# --- the correctness gate ------------------------------------------------------------

@pytest.fixture(scope="module")
def ensyth():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import ensyth
    return ensyth


@pytest.fixture
def tiny_pool(ensyth, tmp_path):
    """Two pruned members saved as bundles, with a summary like run_pipeline's."""
    ds = ensyth.synth_blobs(seed=0, samples_per_class=20, classes=3, dim=6, spread=1.0)
    net = ensyth.ReluNetwork.initialize([6, 5, 3], seed=1)
    net = ensyth.train(net, ds, ensyth.TrainConfig(epochs=5, batch_size=10,
                                                   learning_rate=0.05))
    members = [ensyth.prune_network(net, ds, ensyth.PruneConfig(epsilon_gain=e))
               for e in (0.1, 0.5)]
    return members, _save(ensyth, members, tmp_path)


def _save(ensyth, members, tmp_path):
    paths, digests = [], []
    for i, m in enumerate(members):
        path = str(tmp_path / f"model_{i}.ezip")
        digests.append(ensyth.save_bundle(m, path))
        paths.append(path)
    return paths, {"member_digests": digests, "baseline_digest": "b"}


def test_good_pool_passes(ensyth, tiny_pool, tmp_path):
    _, (paths, summary) = tiny_pool
    tally = run.Tally()
    pool = run.check_pool(ensyth, summary, paths, tally, str(tmp_path / "d.json"))
    assert pool is not None and len(pool) == 2
    assert tally.attempted == 2 and tally.failures == []


@pytest.mark.parametrize("field,factor", [("residual", 1.01), ("l1_pruned", 1.01)])
def test_corrupted_feasibility_report_is_a_failure(ensyth, tiny_pool, tmp_path,
                                                   field, factor):
    members, _ = tiny_pool
    rep = members[0].feasibility_report[0]
    bound = rep.epsilon if field == "residual" else rep.l1_baseline
    bad = dataclasses.replace(rep, **{field: bound * factor + 1e-9})
    members[0] = dataclasses.replace(
        members[0], feasibility_report=(bad,) + members[0].feasibility_report[1:])
    assert not run.member_report_ok(members[0])
    paths, summary = _save(ensyth, members, tmp_path)
    tally = run.Tally()
    run.check_pool(ensyth, summary, paths, tally, str(tmp_path / "d.json"))
    assert tally.attempted == 2 and len(tally.failures) == 1


def test_wrong_digest_is_a_failure(ensyth, tiny_pool, tmp_path):
    _, (paths, summary) = tiny_pool
    summary["member_digests"][1] = "0" * 64
    tally = run.Tally()
    assert run.check_pool(ensyth, summary, paths, tally, str(tmp_path / "d.json")) is None
    assert tally.attempted == 2 and len(tally.failures) == 1


def test_digest_differing_from_an_earlier_run_is_a_failure(ensyth, tiny_pool, tmp_path):
    _, (paths, summary) = tiny_pool
    store = str(tmp_path / "d.json")
    run.check_pool(ensyth, summary, paths, run.Tally(), store)   # first run records
    with open(store, encoding="utf-8") as fh:
        earlier = json.load(fh)
    earlier[0] = "f" * 64
    with open(store, "w", encoding="utf-8") as fh:
        json.dump(earlier, fh)
    tally = run.Tally()
    run.check_pool(ensyth, summary, paths, tally, store)
    assert len(tally.failures) == 1 and "earlier run" in tally.failures[0]


def test_digests_of_other_code_are_not_compared(ensyth, tiny_pool, tmp_path, monkeypatch):
    _, (paths, summary) = tiny_pool
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    cfg = {"master_seed": 1}
    old = run.digest_store("w", 1, cfg, "a" * 64)
    new = run.digest_store("w", 1, cfg, "b" * 64)
    assert old != new and new == run.digest_store("w", 1, cfg, "b" * 64)
    os.makedirs(os.path.dirname(old))
    with open(old, "w", encoding="utf-8") as fh:       # what the old code made
        json.dump(["f" * 64] * len(paths), fh)
    tally = run.Tally()
    run.check_pool(ensyth, summary, paths, tally, new)
    assert tally.attempted == 2 and tally.failures == []


def test_source_digest_names_the_code(tmp_path):
    (tmp_path / "a" / "pkg").mkdir(parents=True)
    (tmp_path / "a" / "setup.py").write_text("x = 1\n")
    (tmp_path / "a" / "pkg" / "mod.py").write_text("y = 2\n")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    assert run.source_digest(tmp_path / "a") == run.source_digest(tmp_path / "b")
    (tmp_path / "b" / "pkg" / "mod.py").write_text("y = 3\n")
    assert run.source_digest(tmp_path / "a") != run.source_digest(tmp_path / "b")


# --- the tracer ---------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [(1, None, "root", 0.0, 10.0),
             (2, 1, "a", 1.0, 4.0), (3, 1, "b", 3.0, 6.0),   # overlap: 1..6 covered
             (4, 1, "c", 9.0, 12.0),                          # clipped to 9..10
             (5, 2, "leaf", 1.5, 2.0)]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[5] == pytest.approx(0.5)


def test_wrapped_calls_record_parents_and_are_restored():
    mod = types.ModuleType("mod")
    mod.inner = lambda x: x * 2
    mod.outer = lambda x: mod.inner(x) + 1
    original = mod.inner
    rec = tracer.Tracer()
    rec.wrap(mod, "outer", "outer")
    rec.wrap(mod, "inner", "inner", note=lambda args, kwargs: args[0])
    rec.wrap(mod, "absent", "absent")
    assert mod.outer(3) == 7
    rec.restore()
    assert mod.inner is original and rec.missing == ["mod.absent"]
    (inner_id, inner_parent, *_), (outer_id, outer_parent, *_) = rec.spans
    assert inner_parent == outer_id and outer_parent is None
    assert rec.notes[inner_id] == 3


def test_kernel_case_metrics_follow_bench_kernels(ensyth):
    assert run.case_name("admm rhs  65x2000 @ 2000x32") == "admm_rhs_65x2000_2000x32"
    declared = {n for n in run.declared_metrics(1) if n.startswith("kernels.case.")}
    shapes = run.load_bench_kernels().MATMUL_SHAPES
    assert declared == {f"kernels.case.{run.case_name(label)}.us.{backend}"
                        for label, _, _ in shapes for backend in ("compiled", "python")}
