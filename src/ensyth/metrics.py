"""Model measurements: parameter counts, sparsity, timed inference.

"Trainable parameters" counts weight entries above the 1e-8 magnitude
threshold plus every bias entry.  Timing takes an injectable clock so the
averaging protocol is unit-testable; wall-clock numbers are explicitly
outside the determinism guarantees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .network import ReluNetwork, predict

PARAM_TOL = 1e-8


@dataclass(frozen=True)
class TimingResult:
    """Mean wall time of one model's prediction run, in microseconds."""

    mean_us: float


def _network_of(model) -> ReluNetwork:
    return model.network if hasattr(model, "network") else model


def weight_nonzeros(model) -> int:
    net = _network_of(model)
    return int(sum((np.abs(w) > PARAM_TOL).sum() for w in net.weights))


def param_count(model) -> int:
    """Nonzero weight entries plus all bias entries."""
    net = _network_of(model)
    return weight_nonzeros(model) + int(sum(b.size for b in net.biases))


def sparsity(model) -> float:
    """Fraction of weight capacity that is zero; biases excluded."""
    net = _network_of(model)
    total = sum(w.size for w in net.weights)
    return 1.0 - weight_nonzeros(model) / total


def timed_inference(model, batch, repeats=9, clock=time.perf_counter) -> TimingResult:
    """Mean wall time of ``predict(model, batch)`` over ``repeats`` runs."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    net = _network_of(model)
    durations = []
    for _ in range(repeats):
        t0 = clock()
        predict(net, batch)
        t1 = clock()
        durations.append((t1 - t0) * 1e6)
    return TimingResult(mean_us=sum(durations) / repeats)
