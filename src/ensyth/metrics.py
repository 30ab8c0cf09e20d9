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
    """Mean wall time per prediction run, in microseconds.

    For ensembles ``mean_us`` is the mean of the member means and
    ``max_member_us`` the slowest member's mean (the parallel critical
    path); for single models both equal the plain mean.
    """

    mean_us: float
    max_member_us: float
    per_member_us: tuple


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


def _time_single(net, batch, repeats, clock):
    durations = []
    for _ in range(repeats):
        t0 = clock()
        predict(net, batch)
        t1 = clock()
        durations.append((t1 - t0) * 1e6)
    return durations


def timed_inference(model_or_ensemble, batch, repeats=9,
                    clock=time.perf_counter) -> TimingResult:
    """Mean prediction wall time over ``repeats`` runs.

    Pass one model, or a sequence of models for an ensemble: members are
    then timed one at a time in order, and the result reports both the
    mean of the member means and the max member mean.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if isinstance(model_or_ensemble, (list, tuple)):
        members = [_network_of(m) for m in model_or_ensemble]
    else:
        members = [_network_of(model_or_ensemble)]
    per_member = []
    for net in members:
        durations = _time_single(net, batch, repeats, clock)
        per_member.append(sum(durations) / repeats)
    mean = sum(per_member) / len(per_member)
    return TimingResult(mean_us=mean, max_member_us=max(per_member),
                        per_member_us=tuple(per_member))
