#!/usr/bin/env python3
"""Record a BENCH file: perfbench's workloads and the kernel cases, on one machine.

Runs ``perfbench/run.py`` (timed, ``--trace 0``) for every workload that
``BENCHMARK.json`` declares, once per seed, and ``bench_kernels.py`` on both
backends against a private build of the kernels.  Writes one JSON file with
each workload's per-metric median and quartiles, every run's correctness
and member-digest hash, the per-layer metrics of one traced run per
workload (at the first seed), the kernel timings and the machine line, then
prints the difference from the latest earlier ``BENCH_<n>.json`` beside it.

Run from the repository root:

    python3 benchmarks/record_bench.py --out BENCH_6.json --seeds 71 72 73 74 75

Nothing in the source tree is written to apart from ``--out``.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900
KERNEL_RUNS = 3       # bench_kernels.py runs; each case reports their median
KERNEL_REPEATS = 9    # bench_kernels.py --repeats: best of 9 calls per case and run


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def perfbench(workload, seed, seconds, trace):
    """One perfbench run; returns (run details, result line) as it printed them."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    if proc.returncode == 1:
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "values": list(values)}


def record_workload(workload, seeds, seconds):
    runs, values, units, meta = [], {}, {}, None
    for seed in seeds:
        details, result = perfbench(workload, seed, seconds, 0)
        meta = meta or dict(details["meta"], source_sha256=details["source_sha256"])
        digests = json.dumps(details.get("member_digests", [])).encode()
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "digests_sha256": hashlib.sha256(digests).hexdigest()})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"pipeline_s={result['metrics'].get('pipeline_s', {}).get('value')}",
              file=sys.stderr)
    out = {"runs": runs,
           "metrics": {name: {"unit": units[name], **quartiles(v)}
                       for name, v in values.items()}}
    details, result = perfbench(workload, seeds[0], seconds, 1)
    out["traced"] = {"seed": seeds[0], "correct": result["correct"],
                     "failed": result["failed"],
                     "trace_missing": details.get("trace_missing", []),
                     "per_layer": result["metrics"]}
    return out, meta


_KERNEL_ROW = re.compile(r"^(?P<case>\S.*?)\s+(?P<py>[\d.]+) us\s+(?P<cc>[\d.]+) us"
                         r"\s+[\d.]+x\s+(?P<bits>==|MISMATCH)$")
_PREDICT_ROW = re.compile(r"^predict .*: (?P<ms>[\d.]+) ms$")


def _build_kernels(dest):
    """Copy the package sources to ``dest`` and compile the kernels in place."""
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(os.path.join(ROOT, name), dest)
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=dest, capture_output=True, text=True, timeout=300)
    if not glob.glob(os.path.join(dest, "src", "ensyth", "_kernels", "_ckernels.*.so")):
        raise RuntimeError("building the compiled kernels failed:\n"
                           + proc.stdout + proc.stderr)
    return os.path.join(dest, "src")


def record_kernels(runs, repeats):
    """Median over ``runs`` runs of bench_kernels' best-of-``repeats`` times."""
    cases, predict_ms, identical = {}, [], True
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=_build_kernels(tmp), ENSYTH_KERNELS="compiled")
        for _ in range(runs):
            proc = subprocess.run(
                [sys.executable, os.path.join("benchmarks", "bench_kernels.py"),
                 "--repeats", str(repeats)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if proc.returncode not in (0, 1):
                raise RuntimeError(f"bench_kernels.py exited {proc.returncode}:\n"
                                   + proc.stderr)
            identical &= proc.returncode == 0
            for line in proc.stdout.splitlines():
                row = _KERNEL_ROW.match(line.strip())
                if row:
                    case = cases.setdefault(row["case"], {"python": [], "compiled": []})
                    case["python"].append(float(row["py"]))
                    case["compiled"].append(float(row["cc"]))
                    identical &= row["bits"] == "=="
                predict = _PREDICT_ROW.match(line.strip())
                if predict:
                    predict_ms.append(float(predict["ms"]))
    return {"runs": runs, "repeats": repeats, "bits_identical": identical,
            "cases_us": {name: {backend: float(np.median(t)) for backend, t in c.items()}
                         for name, c in cases.items()},
            "predict_ms": float(np.median(predict_ms)) if predict_ms else None}


def _bench_number(path):
    match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
    return int(match.group(1)) if match else None


def previous_file(out):
    """The BENCH_<n>.json beside ``out`` with the highest n below out's own."""
    mine = _bench_number(out)
    found = []
    for path in glob.glob(os.path.join(os.path.dirname(os.path.abspath(out)),
                                       "BENCH_*.json")):
        n = _bench_number(path)
        if n is not None and not os.path.samefile(path, out) \
                and (mine is None or n < mine):
            found.append((n, path))
    return max(found)[1] if found else None


def print_difference(old, new, old_name):
    print(f"difference from {old_name} (median, relative change):")
    for workload, cur in new["workloads"].items():
        prev = old.get("workloads", {}).get(workload)
        if prev is None:
            print(f"  {workload}: not in {old_name}")
            continue
        for name, m in cur["metrics"].items():
            if name in prev["metrics"]:
                a, b = prev["metrics"][name]["median"], m["median"]
                change = f"{(b - a) / a * 100:+7.1f}%" if a else "    n/a"
                print(f"  {workload:15s} {name:26s} {a:14.6g} -> {b:14.6g} {change}")
        prev_digests = {r["seed"]: r["digests_sha256"] for r in prev["runs"]}
        for run in cur["runs"]:
            if run["seed"] in prev_digests and prev_digests[run["seed"]] != run["digests_sha256"]:
                print(f"  {workload:15s} seed {run['seed']}: member digests differ")
    old_cases = old.get("kernels", {}).get("cases_us", {})
    for case, times in new["kernels"]["cases_us"].items():
        if case in old_cases:
            a, b = old_cases[case]["compiled"], times["compiled"]
            print(f"  kernel {case:31s} {a:10.1f} -> {b:10.1f} us compiled "
                  f"{(b - a) / a * 100:+7.1f}%")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="file to write, e.g. BENCH_6.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="perfbench seeds, one timed run per workload each")
    args = parser.parse_args(argv)

    spec = _load_spec()
    seconds = spec["run_seconds"]
    bench = {"command": f"python3 perfbench/run.py --workload W --seed S "
                        f"--seconds {seconds} --trace 0",
             "seeds": args.seeds, "workloads": {}}
    meta = None
    for workload in (w["name"] for w in spec["workloads"]):
        bench["workloads"][workload], meta = record_workload(workload, args.seeds, seconds)
    bench["machine"] = {key: meta[key] for key in
                        ("cpu_model", "nproc", "l2_cache", "l3_cache", "gcc",
                         "python", "numpy")}
    bench["source_sha256"] = meta["source_sha256"]   # of src/, setup.py, pyproject.toml
    bench["kernels"] = record_kernels(KERNEL_RUNS, KERNEL_REPEATS)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")

    previous = previous_file(args.out)
    if previous is None:
        print("no earlier BENCH_*.json to compare with")
    else:
        with open(previous, encoding="utf-8") as fh:
            print_difference(json.load(fh), bench, os.path.basename(previous))
    failed = [(w, r["seed"]) for w, rec in bench["workloads"].items()
              for r in rec["runs"] + [rec["traced"]] if not r["correct"]]
    if failed or not bench["kernels"]["bits_identical"]:
        print(f"incorrect runs: {failed}; kernel bits identical: "
              f"{bench['kernels']['bits_identical']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
