"""Pool generation, plurality voting, backward elimination, parallel inference.

The fused prediction for a sample is the class with the most member votes;
ties go to the lowest class index so results are reproducible.  Backward
elimination starts from the full pool and repeatedly drops the member with
the lowest standalone accuracy (ties: more nonzero parameters first, then
the higher pool index), recording each ensemble's accuracy before the
removal, down to a single member.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ShapeError
from .metrics import param_count
from .network import ReluNetwork, TrainConfig, predict
from .pruner import PruneConfig, fine_tune, prune_network


@dataclass(frozen=True)
class ModelPool:
    """Ordered pruned models sharing input dimension and class count."""

    members: tuple
    baseline_ref: str
    grid_manifest: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("pool must have at least one member")
        dims0 = members[0].network.input_dim
        classes0 = members[0].network.output_classes
        for i, m in enumerate(members):
            if m.network.input_dim != dims0 or m.network.output_classes != classes0:
                raise ShapeError(f"member {i} disagrees on input dim or class count")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "grid_manifest", tuple(self.grid_manifest))

    def __len__(self):
        return len(self.members)

    @property
    def class_count(self):
        return self.members[0].network.output_classes

    def member_param_counts(self):
        return tuple(param_count(m) for m in self.members)


@dataclass(frozen=True)
class VoteMatrix:
    """Predicted class per (member, sample)."""

    labels: np.ndarray
    classes: int

    def __post_init__(self):
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if labels.ndim != 2:
            raise ShapeError("vote labels must be 2-D (members x samples)")
        if labels.size and (labels.min() < 0 or labels.max() >= self.classes):
            raise ValueError(f"votes must lie in [0, {self.classes})")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def member_count(self):
        return self.labels.shape[0]

    @property
    def sample_count(self):
        return self.labels.shape[1]


@dataclass(frozen=True)
class Ensemble:
    """A subset of pool indices with its cached accuracy."""

    member_ids: tuple
    accuracy: float

    def __post_init__(self):
        ids = tuple(int(i) for i in self.member_ids)
        if not ids:
            raise ValueError("ensemble must be nonempty")
        if len(set(ids)) != len(ids):
            raise ValueError("ensemble ids must be unique")
        object.__setattr__(self, "member_ids", tuple(sorted(ids)))

    def __len__(self):
        return len(self.member_ids)


@dataclass(frozen=True)
class EliminationStep:
    member_ids: tuple
    accuracy: float
    removed_id: int | None


@dataclass(frozen=True)
class EliminationTrace:
    steps: tuple

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValueError("trace must have at least one step")
        for prev, cur in zip(steps, steps[1:]):
            removed = set(prev.member_ids) - set(cur.member_ids)
            if len(cur.member_ids) != len(prev.member_ids) - 1 or \
                    removed != {prev.removed_id}:
                raise ValueError("each step must drop exactly the recorded member")
        if len(steps[-1].member_ids) != 1 or steps[-1].removed_id is not None:
            raise ValueError("the final step must hold one member and remove none")
        object.__setattr__(self, "steps", steps)

    def __len__(self):
        return len(self.steps)


def generate_pool(baseline: ReluNetwork, grid, data: Dataset, *,
                  train_template: TrainConfig | None = None,
                  parent_hash: str | None = None, workers: int = 1) -> ModelPool:
    """One pruned model per grid config, in grid order.

    The layer solves depend only on ``epsilon_gain``, so they run once per
    distinct epsilon, in grid order; each config is then fine-tuned from
    its epsilon's solve.  Members are bit-identical to one
    ``prune_network`` call per config.  With ``workers > 1`` the solves,
    and then the fine-tunes, run on a thread pool.
    """
    grid = tuple(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if parent_hash is None:
        from .pool_store import bundle_digest
        parent_hash = bundle_digest(baseline)
    epsilons = tuple(dict.fromkeys(cfg.epsilon_gain for cfg in grid))

    def solve(eps):
        return prune_network(baseline, data, PruneConfig(epsilon_gain=eps),
                             parent_hash=parent_hash)

    def tune(cfg):
        return fine_tune(solved[cfg.epsilon_gain], data, cfg, train_template)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            solved = dict(zip(epsilons, pool.map(solve, epsilons)))
            members = tuple(pool.map(tune, grid))
    else:
        solved = {eps: solve(eps) for eps in epsilons}
        members = tuple(tune(cfg) for cfg in grid)
    return ModelPool(members=members, baseline_ref=parent_hash, grid_manifest=grid)


def vote_matrix(pool: ModelPool, x, workers: int = 1) -> VoteMatrix:
    """Each member's predictions on x, one row per member."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(lambda m: predict(m.network, x), pool.members))
    else:
        rows = [predict(m.network, x) for m in pool.members]
    return VoteMatrix(np.stack(rows, axis=0), pool.class_count)


def _vote_counts(votes: VoteMatrix, ids):
    sub = votes.labels[list(ids)]
    counts = np.zeros((votes.classes, sub.shape[1]), dtype=np.int64)
    for j in range(votes.classes):
        counts[j] = (sub == j).sum(axis=0)
    return counts


def plurality_vote(ensemble: Ensemble, votes: VoteMatrix, sample: int) -> int:
    """Class with maximal support among the ensemble; ties to lowest index."""
    if not 0 <= sample < votes.sample_count:
        raise IndexError(f"sample {sample} out of range")
    column = votes.labels[list(ensemble.member_ids), sample]
    counts = np.bincount(column, minlength=votes.classes)
    return int(np.argmax(counts))


def fused_labels(member_ids, votes: VoteMatrix) -> np.ndarray:
    """Plurality decision for every sample at once."""
    counts = _vote_counts(votes, member_ids)
    return np.argmax(counts, axis=0)


def ensemble_accuracy(ensemble: Ensemble, votes: VoteMatrix, labels) -> float:
    """Fraction of samples where the fused vote matches the truth."""
    truth = np.asarray(labels, dtype=np.int64)
    if len(truth) != votes.sample_count:
        raise ShapeError(f"{len(truth)} labels for {votes.sample_count} samples")
    fused = fused_labels(ensemble.member_ids, votes)
    correct = int((fused == truth).sum())
    return correct / len(truth)


def backward_eliminate(pool: ModelPool, votes: VoteMatrix, labels) -> EliminationTrace:
    """Greedy elimination from the full pool down to one member.

    Each step records the current ensemble's fused accuracy, then removes
    the member whose standalone accuracy is lowest; ties remove the member
    with more nonzero parameters, then the higher pool index.
    """
    truth = np.asarray(labels, dtype=np.int64)
    if len(truth) != votes.sample_count:
        raise ShapeError(f"{len(truth)} labels for {votes.sample_count} samples")
    n = len(pool)
    if votes.member_count != n:
        raise ShapeError(f"vote matrix has {votes.member_count} rows for a "
                         f"pool of {n}")
    standalone = [(votes.labels[i] == truth).sum() / len(truth) for i in range(n)]
    params = pool.member_param_counts()

    current = list(range(n))
    steps = []
    while current:
        ens = Ensemble(tuple(current), 0.0)
        acc = ensemble_accuracy(ens, votes, truth)
        if len(current) == 1:
            steps.append(EliminationStep(tuple(current), acc, None))
            break
        victim = min(current, key=lambda i: (standalone[i], -params[i], -i))
        steps.append(EliminationStep(tuple(sorted(current)), acc, victim))
        current.remove(victim)
    return EliminationTrace(tuple(steps))


def best_ensemble(trace: EliminationTrace) -> Ensemble:
    """Highest-accuracy step; ties prefer fewer members, then earlier steps."""
    best = None
    for step in trace.steps:
        if best is None or step.accuracy > best.accuracy or (
                step.accuracy == best.accuracy
                and len(step.member_ids) < len(best.member_ids)):
            best = step
    return Ensemble(best.member_ids, best.accuracy)


def predict_parallel(ensemble: Ensemble, pool: ModelPool, x,
                     workers: int = 1) -> np.ndarray:
    """Fused predictions; output is identical for any worker count."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    ids = ensemble.member_ids
    rows = [None] * len(ids)

    def run(slot):
        rows[slot] = predict(pool.members[ids[slot]].network, x)

    if workers == 1:
        for slot in range(len(ids)):
            run(slot)
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(run, range(len(ids))))

    votes = VoteMatrix(np.stack(rows, axis=0), pool.class_count)
    return fused_labels(range(len(ids)), votes)


def write_trace_csv(trace: EliminationTrace, path):
    """``step,ensemble_size,accuracy,removed_id,member_ids`` rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "ensemble_size", "accuracy", "removed_id",
                         "member_ids"])
        for k, step in enumerate(trace.steps):
            writer.writerow([
                k,
                len(step.member_ids),
                repr(step.accuracy),
                "" if step.removed_id is None else step.removed_id,
                ";".join(str(i) for i in step.member_ids),
            ])


def read_trace_csv(path) -> EliminationTrace:
    steps = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            ids = tuple(int(t) for t in row["member_ids"].split(";"))
            removed = None if row["removed_id"] == "" else int(row["removed_id"])
            steps.append(EliminationStep(ids, float(row["accuracy"]), removed))
    return EliminationTrace(tuple(steps))
