#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Both backends compute bit-identical results (verified here as a side
effect); the point of the compiled extension is speed on the hot paths:
the fixed-order matmul that dominates training, inference and the pruning
solver, the elementwise relu, and the two fused blocks of elementwise and
column-norm work in each ADMM iteration of the pruner.

Exits with status 1 if any case's results differ between the backends.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import sys
import time

import numpy as np

import ensyth
from ensyth import _kernels
from ensyth._kernels import _pykernels

try:
    from ensyth._kernels import _ckernels
except ImportError:
    _ckernels = None


MATMUL_SHAPES = [
    ("layer fwd 32x64 @ 64x2500", (32, 64), (64, 2500)),
    ("admm fit  2000x65 @ 65x32", (2000, 65), (65, 32)),
    ("admm rhs  65x2000 @ 2000x32", (65, 2000), (2000, 32)),
    ("gram      65x2000 @ 2000x65", (65, 2000), (2000, 65)),
]

# Printed by main only: ADMM working sets once most columns have converged,
# and one serving batch through the first layer.
NARROW_SHAPES = [
    ("admm fit  2000x65 @ 65x1", (2000, 65), (65, 1)),
    ("admm fit  2000x65 @ 65x3", (2000, 65), (65, 3)),
    ("admm rhs  65x2000 @ 2000x5", (65, 2000), (2000, 5)),
    ("layer fwd 32x64 @ 64x50", (32, 64), (64, 50)),
]


# Fused ADMM blocks on blobs_small's shapes: (fit block p x m, L1 block d x m)
# for the hidden layer (2000 samples, 64 inputs + bias, 32 neurons) and the
# output layer (32 inputs + bias, 5 neurons).
ADMM_SHAPES = [
    ("admm fit block 2000x32", "admm_fit", 2000, 32),
    ("admm l1 block  65x32", "admm_l1", 65, 32),
    ("admm fit block 2000x5", "admm_fit", 2000, 5),
    ("admm l1 block  33x5", "admm_l1", 33, 5),
]


def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_backend(impl, repeats, rng, shapes=MATMUL_SHAPES):
    results = {}
    for name, sa, sb in shapes:
        a = np.ascontiguousarray(rng.normal(size=sa))
        b = np.ascontiguousarray(rng.normal(size=sb))
        results[name] = (_time(lambda: impl.matmul(a, b), repeats),
                         impl.matmul(a, b))
    big = np.ascontiguousarray(rng.normal(size=(1000, 1000)))
    results["relu 1000x1000"] = (_time(lambda: impl.relu(big), repeats),
                                 impl.relu(big))
    return results


def _admm_operands(kernel, rows, m, rng):
    arrays = [rng.normal(size=(rows, m)) for _ in range(4 if kernel == "admm_fit" else 7)]
    if kernel == "admm_fit":
        act = rng.random((rows, m)) < 0.6
        eps = rng.uniform(0.0, 2.0, m) * np.sqrt(rows)
        return (*arrays, act, eps, rng.uniform(0.0, 1.0, m), 1.6)
    penalize = np.ones(rows, dtype=bool)
    penalize[-1] = False
    return (*arrays, penalize, 2.0 ** rng.integers(-4, 5, m), 1.6)


def _bench_admm(impl, repeats, rng):
    """Best time and the outputs' bytes for each case of ADMM_SHAPES."""
    results = {}
    for name, kernel, rows, m in ADMM_SHAPES:
        args = _admm_operands(kernel, rows, m, rng)
        fn = getattr(impl, kernel)
        results[name] = (_time(lambda: fn(*args), repeats),
                         b"".join(out.tobytes() for out in fn(*args)))
    return results


def _bench_forward(repeats):
    """End-to-end forward pass under whichever backend is selected."""
    ds = ensyth.synth_blobs(seed=0, samples_per_class=500, classes=5, dim=64,
                            spread=1.0)
    net = ensyth.ReluNetwork.initialize([64, 32, 5], seed=1)
    x = ds.features
    return _time(lambda: ensyth.predict(net, x), repeats)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per case (best-of is reported)")
    args = parser.parse_args()

    print(f"selected backend at import: {_kernels.BACKEND}")
    shapes = MATMUL_SHAPES + NARROW_SHAPES

    def run(impl):
        results = _bench_backend(impl, args.repeats, np.random.default_rng(0), shapes)
        results = {name: (secs, out.tobytes()) for name, (secs, out) in results.items()}
        results.update(_bench_admm(impl, args.repeats, np.random.default_rng(1)))
        return results

    py = run(_pykernels)
    if _ckernels is None:
        print("compiled kernels not built; showing fallback timings only\n")
        for name, (secs, _) in py.items():
            print(f"{name:30s} python {secs * 1e6:10.1f} us")
        return 0

    cc = run(_ckernels)
    mismatches = 0
    print(f"{'case':30s} {'python':>13s} {'compiled':>13s} {'speedup':>9s}  bits")
    for name in py:
        t_py, out_py = py[name]
        t_cc, out_cc = cc[name]
        identical = out_py == out_cc
        mismatches += not identical
        print(f"{name:30s} {t_py * 1e6:10.1f} us {t_cc * 1e6:10.1f} us "
              f"{t_py / t_cc:8.1f}x  {'==' if identical else 'MISMATCH'}")

    fwd = _bench_forward(args.repeats)
    print(f"\npredict [64,32,5] on 2500 samples ({_kernels.BACKEND}): "
          f"{fwd * 1e3:.2f} ms")
    if mismatches:
        print(f"{mismatches} case(s) differ between the backends", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
