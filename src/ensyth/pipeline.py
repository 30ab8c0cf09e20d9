"""Config-driven experiment pipeline and report emission.

A JSON config describes dataset, network, training, the pruning grid,
elimination split, and benchmark settings.  The pipeline is a fixed chain
of stage functions, each implemented once here: ``data_stage``,
``train_stage``, ``pool_stage``, ``eliminate_stage``, ``bench_stage`` and
``report_stage``.  ``run_pipeline`` composes them and writes: the baseline
bundle, one bundle per pool member, ``pool_metrics.csv``,
``elimination_trace.csv``, ``summary.json`` and ``accuracy_vs_size.svg``.
The CLI subcommands call the same stages one at a time, so a stagewise run
writes the same artifacts as ``run``, apart from the ``cpu_us_mean``
column.  Everything except that measurement is deterministic given the
master seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, SplitSpec, load_csv, load_idx, split, subset_classes, synth_blobs
from .ensemble import (
    EliminationTrace,
    ModelPool,
    backward_eliminate,
    best_ensemble,
    generate_pool,
    vote_matrix,
    write_trace_csv,
)
from .errors import ConfigError, EnsythError, StageError
from .metrics import param_count, sparsity, timed_inference
from .network import ReluNetwork, TrainConfig, predict, train
from .pool_store import BUNDLE_SUFFIX, save_bundle
from .pruner import PruneConfig

METRICS_CSV = "pool_metrics.csv"
TRACE_CSV = "elimination_trace.csv"
SUMMARY_JSON = "summary.json"
REPORT_SVG = "accuracy_vs_size.svg"
BASELINE_BUNDLE = "baseline.ezip"
POOL_DIR = "pool"

_METRIC_COLUMNS = ("model_id", "set_id", "epsilon", "accuracy", "params",
                   "sparsity", "bundle_bytes", "cpu_us_mean")


def child_seed(master_seed, stage, index=0) -> int:
    """Stable 64-bit sub-seed for a pipeline stage/task."""
    digest = hashlib.sha256(f"{master_seed}:{stage}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# --- strict config parsing --------------------------------------------------


def _require_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing required key")


def _number(obj, path, minimum=None):
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ConfigError(f"{path}: expected a number")
    if isinstance(obj, float) and not np.isfinite(obj):
        raise ConfigError(f"{path}: expected a finite number, got {obj}")
    if minimum is not None and obj < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return obj


def _integer(obj, path, minimum=None):
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and obj < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return obj


def _coeff(obj, path):
    if isinstance(obj, list):
        return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(obj))
    return _number(obj, path)


@dataclass(frozen=True)
class DatasetSection:
    kind: str
    params: dict
    subset: tuple | None
    split_spec: SplitSpec


@dataclass(frozen=True)
class GridSection:
    set_id: str
    epsilons: tuple
    l1: object
    l2: object
    dropout_keep: object
    fine_tune_epochs: int

    def configs(self):
        return tuple(
            PruneConfig(epsilon_gain=e, l1=self.l1, l2=self.l2,
                        dropout_keep=self.dropout_keep,
                        fine_tune_epochs=self.fine_tune_epochs,
                        set_id=self.set_id)
            for e in self.epsilons
        )


@dataclass(frozen=True)
class BenchSection:
    repeats: int = 9
    batch_size: int = 50
    sample_seed: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSection
    layer_dims: tuple
    train: TrainConfig
    grid: tuple
    elimination_split: str
    bench: BenchSection
    output_dir: str | None
    master_seed: int

    @property
    def grid_configs(self):
        return tuple(cfg for section in self.grid for cfg in section.configs())


def _parse_dataset(obj, master_seed):
    _require_keys(obj, "dataset", ("type",),
                  ("path", "has_header", "images", "labels", "samples_per_class",
                   "classes", "dim", "spread", "seed", "subset", "split"))
    kind = obj["type"]
    params = {}
    if kind == "csv":
        if "path" not in obj:
            raise ConfigError("dataset.path: missing required key")
        params["path"] = obj["path"]
        params["has_header"] = bool(obj.get("has_header", False))
    elif kind == "idx":
        for key in ("images", "labels"):
            if key not in obj:
                raise ConfigError(f"dataset.{key}: missing required key")
            params[key] = obj[key]
    elif kind == "blobs":
        for key in ("samples_per_class", "classes", "dim"):
            if key not in obj:
                raise ConfigError(f"dataset.{key}: missing required key")
            params[key] = _integer(obj[key], f"dataset.{key}", 1)
        params["spread"] = _number(obj.get("spread", 1.0), "dataset.spread", 0.0)
        params["seed"] = (_integer(obj["seed"], "dataset.seed", 0) if "seed" in obj
                          else child_seed(master_seed, "dataset"))
    else:
        raise ConfigError(f"dataset.type: unknown type {kind!r}")

    subset = None
    if "subset" in obj:
        if not isinstance(obj["subset"], list) or not obj["subset"]:
            raise ConfigError("dataset.subset: expected a nonempty list")
        subset = tuple(_integer(c, "dataset.subset[]", 0) for c in obj["subset"])

    split_obj = obj.get("split", {"train": 0.8, "val": 0.1, "test": 0.1})
    _require_keys(split_obj, "dataset.split", ("train", "val", "test"), ("seed",))
    seed = (_integer(split_obj["seed"], "dataset.split.seed", 0)
            if "seed" in split_obj else child_seed(master_seed, "split"))
    try:
        spec = SplitSpec(_number(split_obj["train"], "dataset.split.train", 0),
                         _number(split_obj["val"], "dataset.split.val", 0),
                         _number(split_obj["test"], "dataset.split.test", 0),
                         seed=seed)
    except ValueError as exc:
        raise ConfigError(f"dataset.split: {exc}") from None
    return DatasetSection(kind=kind, params=params, subset=subset, split_spec=spec)


def _parse_train(obj, master_seed):
    _require_keys(obj, "train", ("epochs", "batch_size", "learning_rate"),
                  ("l1", "l2", "dropout_keep", "seed"))
    seed = (_integer(obj["seed"], "train.seed", 0) if "seed" in obj
            else child_seed(master_seed, "train"))
    try:
        return TrainConfig(
            epochs=_integer(obj["epochs"], "train.epochs", 0),
            batch_size=_integer(obj["batch_size"], "train.batch_size", 1),
            learning_rate=_number(obj["learning_rate"], "train.learning_rate"),
            l1=_coeff(obj.get("l1", 0.0), "train.l1"),
            l2=_coeff(obj.get("l2", 0.0), "train.l2"),
            dropout_keep=_coeff(obj.get("dropout_keep", 1.0), "train.dropout_keep"),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from None


def _parse_grid(obj):
    if not isinstance(obj, list) or not obj:
        raise ConfigError("grid: expected a nonempty list of set definitions")
    sections = []
    for i, entry in enumerate(obj):
        path = f"grid[{i}]"
        _require_keys(entry, path, ("epsilons",),
                      ("set_id", "l1", "l2", "dropout_keep", "fine_tune_epochs"))
        eps = entry["epsilons"]
        if not isinstance(eps, list) or not eps:
            raise ConfigError(f"{path}.epsilons: expected a nonempty list")
        sections.append(GridSection(
            set_id=entry.get("set_id", f"set{i + 1}"),
            epsilons=tuple(_number(e, f"{path}.epsilons[]", 0.0) for e in eps),
            l1=_coeff(entry.get("l1", 0.0), f"{path}.l1"),
            l2=_coeff(entry.get("l2", 0.0), f"{path}.l2"),
            dropout_keep=_coeff(entry.get("dropout_keep", 1.0), f"{path}.dropout_keep"),
            fine_tune_epochs=_integer(entry.get("fine_tune_epochs", 0),
                                      f"{path}.fine_tune_epochs", 0),
        ))
    return tuple(sections)


def _check_per_layer(path, section, depth):
    """Coefficient vectors must hold one value per weight layer."""
    for name in ("l1", "l2", "dropout_keep"):
        value = getattr(section, name)
        if isinstance(value, tuple) and len(value) != depth:
            raise ConfigError(f"{path}.{name}: expected a number or {depth} values, "
                              f"one per layer, got {len(value)}")


def parse_config(obj) -> ExperimentConfig:
    """Validate a parsed JSON document; unknown keys are rejected."""
    _require_keys(obj, "config", ("dataset", "network", "train", "grid"),
                  ("elimination", "bench", "output_dir", "master_seed"))
    master_seed = _integer(obj.get("master_seed", 0), "master_seed", 0)

    net_obj = obj["network"]
    _require_keys(net_obj, "network", ("layer_dims",))
    dims = net_obj["layer_dims"]
    if not isinstance(dims, list) or len(dims) < 2:
        raise ConfigError("network.layer_dims: expected a list of >= 2 sizes")
    layer_dims = tuple(_integer(d, "network.layer_dims[]", 1) for d in dims)

    elim = obj.get("elimination", {"split": "val"})
    _require_keys(elim, "elimination", ("split",))
    if elim["split"] not in ("val", "test"):
        raise ConfigError("elimination.split: must be 'val' or 'test'")

    bench_obj = obj.get("bench", {})
    _require_keys(bench_obj, "bench", (), ("repeats", "batch_size", "sample_seed"))
    bench = BenchSection(
        repeats=_integer(bench_obj.get("repeats", 9), "bench.repeats", 1),
        batch_size=_integer(bench_obj.get("batch_size", 50), "bench.batch_size", 1),
        sample_seed=(_integer(bench_obj["sample_seed"], "bench.sample_seed", 0)
                     if "sample_seed" in bench_obj
                     else child_seed(master_seed, "bench")),
    )

    output_dir = obj.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")

    dataset = _parse_dataset(obj["dataset"], master_seed)
    depth = len(layer_dims) - 1
    train = _parse_train(obj["train"], master_seed)
    _check_per_layer("train", train, depth)
    # Grid vectors reach training only through fine-tuning; without it
    # their length is never used.
    grid = _parse_grid(obj["grid"])
    for i, section in enumerate(grid):
        if section.fine_tune_epochs > 0:
            _check_per_layer(f"grid[{i}]", section, depth)

    return ExperimentConfig(
        dataset=dataset,
        layer_dims=layer_dims,
        train=train,
        grid=grid,
        elimination_split=elim["split"],
        bench=bench,
        output_dir=output_dir,
        master_seed=master_seed,
    )


def load_config(path, master_seed=None) -> ExperimentConfig:
    """Read and validate a JSON config; ``master_seed`` overrides the file's
    value before any child seeds are derived."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if master_seed is not None:
        if not isinstance(obj, dict):
            raise ConfigError("config: expected an object")
        obj = {**obj, "master_seed": master_seed}
    return parse_config(obj)


# --- stages -----------------------------------------------------------------


def build_dataset(section: DatasetSection):
    """Load or generate the dataset and return (train, val, test) splits."""
    if section.kind == "csv":
        ds = load_csv(section.params["path"], has_header=section.params["has_header"])
    elif section.kind == "idx":
        ds = load_idx(section.params["images"], section.params["labels"])
    else:
        ds = synth_blobs(seed=section.params["seed"],
                         samples_per_class=section.params["samples_per_class"],
                         classes=section.params["classes"],
                         dim=section.params["dim"],
                         spread=section.params["spread"])
    if section.subset is not None:
        ds = subset_classes(ds, section.subset)
    return split(ds, section.split_spec)


def _accuracy(net, dataset: Dataset) -> float:
    return float((predict(net, dataset.features) == dataset.labels).mean())


@dataclass
class MetricsRow:
    model_id: str
    set_id: str
    epsilon: object
    accuracy: float
    params: int
    sparsity: float
    bundle_bytes: int
    cpu_us_mean: float | None = None

    def as_csv_row(self):
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)
        return [fmt(getattr(self, col)) for col in _METRIC_COLUMNS]


def write_metrics_csv(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_METRIC_COLUMNS)
        for row in rows:
            writer.writerow(row.as_csv_row())


def read_metrics_csv(path):
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            rows.append(MetricsRow(
                model_id=rec["model_id"],
                set_id=rec["set_id"],
                epsilon=float(rec["epsilon"]) if rec["epsilon"] else None,
                accuracy=float(rec["accuracy"]),
                params=int(rec["params"]),
                sparsity=float(rec["sparsity"]),
                bundle_bytes=int(rec["bundle_bytes"]),
                cpu_us_mean=float(rec["cpu_us_mean"]) if rec["cpu_us_mean"] else None,
            ))
    return rows


def _svg_line(points):
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in points)


def render_accuracy_svg(sizes, accuracies, baseline_accuracy) -> str:
    """Accuracy vs ensemble size, sizes descending left to right.

    Output is text-stable: fixed float formatting, no timestamps.  Each
    data point carries a title with its exact plotted values so reports
    can be cross-checked against the trace CSV.
    """
    width, height = 640.0, 420.0
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    max_size = max(sizes)
    lo = min(min(accuracies), baseline_accuracy)
    hi = max(max(accuracies), baseline_accuracy)
    pad = max((hi - lo) * 0.1, 0.01)
    y0, y1 = lo - pad, hi + pad

    def x_at(size):
        if max_size == 1:
            return left + plot_w / 2.0
        return left + (max_size - size) / (max_size - 1) * plot_w

    def y_at(acc):
        return top + (y1 - acc) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" '
        f'y2="{top + plot_h:.2f}" stroke="black"/>',
        f'<line x1="{left:.2f}" y1="{top + plot_h:.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{top + plot_h:.2f}" stroke="black"/>',
    ]
    for i in range(5):
        acc = y0 + (y1 - y0) * i / 4.0
        y = y_at(acc)
        parts.append(f'<line x1="{left - 4:.2f}" y1="{y:.2f}" x2="{left:.2f}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{acc:.3f}</text>')
    ticks = sorted({max_size, 1, max(1, max_size // 2)}, reverse=True)
    for size in ticks:
        x = x_at(size)
        parts.append(f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" x2="{x:.2f}" '
                     f'y2="{top + plot_h + 4:.2f}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + plot_h + 18:.2f}" font-size="11" '
                     f'text-anchor="middle">{size}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.2f}" y="{height - 12:.2f}" '
                 f'font-size="12" text-anchor="middle">ensemble size</text>')
    parts.append(f'<text x="16" y="{top + plot_h / 2:.2f}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{top + plot_h / 2:.2f})">accuracy</text>')

    yb = y_at(baseline_accuracy)
    parts.append(f'<line x1="{left:.2f}" y1="{yb:.2f}" x2="{left + plot_w:.2f}" '
                 f'y2="{yb:.2f}" stroke="gray" stroke-dasharray="6,4"/>')
    parts.append(f'<text x="{left + plot_w:.2f}" y="{yb - 4:.2f}" font-size="11" '
                 f'text-anchor="end">baseline {baseline_accuracy:.6f}</text>')

    pts = [(x_at(s), y_at(a)) for s, a in zip(sizes, accuracies)]
    if len(pts) > 1:
        parts.append(f'<polyline points="{_svg_line(pts)}" fill="none" '
                     f'stroke="steelblue" stroke-width="1.5"/>')
    for (x, y), size, acc in zip(pts, sizes, accuracies):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="steelblue">'
                     f'<title>size={size} accuracy={acc:.6f}</title></circle>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(trace: EliminationTrace, metrics_rows, out_dir):
    """Write the accuracy SVG, with the baseline row's accuracy as reference
    line; returns its path."""
    baseline_rows = [r for r in metrics_rows if r.model_id == "baseline"]
    if not baseline_rows:
        raise ValueError("metrics rows must include the baseline row")
    sizes = [len(s.member_ids) for s in trace.steps]
    accs = [s.accuracy for s in trace.steps]
    svg_path = os.path.join(out_dir, REPORT_SVG)
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(render_accuracy_svg(sizes, accs, baseline_rows[0].accuracy))
    return svg_path


def bench_pool(models, batch_features, repeats=9):
    """Sequential per-model timing; returns TimingResult per model."""
    return [timed_inference(m, batch_features, repeats=repeats) for m in models]


def _sample_batch(dataset: Dataset, batch_size, sample_seed):
    rng = np.random.default_rng(sample_seed)
    idx = rng.choice(dataset.sample_count, size=min(batch_size, dataset.sample_count),
                     replace=False)
    return np.ascontiguousarray(dataset.features.data[:, idx])


# --- the pipeline stages ----------------------------------------------------
#
# Every stage takes the resolved config first, then the outputs of earlier
# stages; it returns its own outputs, wraps its failures in StageError and
# writes its own artifacts into ``config.output_dir``.  ``run_pipeline``
# hands the outputs from stage to stage in memory; each CLI subcommand loads
# them from the artifacts earlier stages left in the output directory.


@dataclass(frozen=True)
class StoredModel:
    """A model and the bundle file it was written to."""

    model: object
    digest: str
    path: str


def resolve_config(config: ExperimentConfig, out_dir=None,
                   elimination_split=None) -> ExperimentConfig:
    """Apply the caller's output directory and elimination split over the
    config's own, and create the output directory."""
    out_dir = out_dir or config.output_dir
    if out_dir is None:
        raise ConfigError("output_dir: missing (set it in the config or pass -o)")
    os.makedirs(out_dir, exist_ok=True)
    return replace(config, output_dir=out_dir,
                   elimination_split=elimination_split or config.elimination_split)


def _out(config, name):
    return os.path.join(config.output_dir, name)


def _eval_split(config, splits):
    """The split the eliminate and bench stages score on."""
    return splits[1] if config.elimination_split == "val" else splits[2]


def data_stage(config):
    """Build the (train, val, test) splits and check them against the network
    and the elimination split."""
    try:
        splits = build_dataset(config.dataset)
    except (EnsythError, ValueError, OSError) as exc:
        raise StageError("data", str(exc)) from exc
    train_ds = splits[0]
    if config.layer_dims[0] != train_ds.feature_dim:
        raise StageError("data", f"network.layer_dims[0]={config.layer_dims[0]} "
                                 f"but dataset dim is {train_ds.feature_dim}")
    if config.layer_dims[-1] < train_ds.class_count:
        raise StageError("data", f"network.layer_dims[-1]={config.layer_dims[-1]} "
                                 f"but dataset has {train_ds.class_count} classes")
    if _eval_split(config, splits) is None:
        raise StageError("data", f"the {config.elimination_split} split is empty")
    return splits


def train_stage(config, train_ds) -> StoredModel:
    """Train the baseline and write ``baseline.ezip``."""
    try:
        init_net = ReluNetwork.initialize(config.layer_dims,
                                          child_seed(config.master_seed, "init"))
        baseline = train(init_net, train_ds, config.train)
    except (EnsythError, ValueError) as exc:
        raise StageError("train", str(exc)) from exc
    path = _out(config, BASELINE_BUNDLE)
    return StoredModel(baseline, save_bundle(baseline, path, train_config=config.train),
                       path)


def pool_stage(config, train_ds, baseline: StoredModel, workers=1) -> list:
    """Prune the baseline once per grid config and write ``pool/model_NNN.ezip``.

    Member bundles left by an earlier pool run and not rewritten by this one
    are deleted, so ``pool/`` holds this grid's members only.
    """
    try:
        pool = generate_pool(baseline.model, config.grid_configs, train_ds,
                             train_template=config.train,
                             parent_hash=baseline.digest, workers=workers)
    except (EnsythError, ValueError) as exc:
        raise StageError("pool", str(exc)) from exc
    pool_dir = _out(config, POOL_DIR)
    os.makedirs(pool_dir, exist_ok=True)
    members = []
    for i, member in enumerate(pool.members):
        path = os.path.join(pool_dir, f"model_{i:03d}{BUNDLE_SUFFIX}")
        members.append(StoredModel(member, save_bundle(member, path), path))
    written = {os.path.basename(m.path) for m in members}
    for name in os.listdir(pool_dir):
        if name.startswith("model_") and name.endswith(BUNDLE_SUFFIX) \
                and name not in written:
            os.remove(os.path.join(pool_dir, name))
    return members


def eliminate_stage(config, splits, baseline: StoredModel, members, workers=1):
    """Vote the pool on the elimination split and run backward elimination.

    Writes ``elimination_trace.csv``, ``pool_metrics.csv`` (cpu columns
    empty until the bench stage) and ``summary.json``; returns the trace and
    the metrics rows, baseline first.  ``bundle_bytes`` is the size of the
    bundle file each model was written to.
    """
    eval_ds = _eval_split(config, splits)
    models = tuple(m.model for m in members)
    try:
        pool = ModelPool(members=models, baseline_ref=baseline.digest,
                         grid_manifest=tuple(m.config for m in models))
        votes = vote_matrix(pool, eval_ds.features, workers=workers)
        trace = backward_eliminate(pool, votes, eval_ds.labels)
        best = best_ensemble(trace)
    except (EnsythError, ValueError) as exc:
        raise StageError("eliminate", str(exc)) from exc

    def row(model_id, stored, set_id, epsilon, accuracy):
        return MetricsRow(model_id=model_id, set_id=set_id, epsilon=epsilon,
                          accuracy=accuracy, params=param_count(stored.model),
                          sparsity=sparsity(stored.model),
                          bundle_bytes=os.path.getsize(stored.path))

    baseline_acc = _accuracy(baseline.model, eval_ds)
    rows = [row("baseline", baseline, "", None, baseline_acc)]
    for i, member in enumerate(members):
        accuracy = float((votes.labels[i] == eval_ds.labels).mean())
        rows.append(row(str(i), member, member.model.config.set_id,
                        member.model.config.epsilon_gain, accuracy))
    write_trace_csv(trace, _out(config, TRACE_CSV))
    write_metrics_csv(rows, _out(config, METRICS_CSV))

    summary = {
        "dataset": splits[0].name,
        "elimination_split": config.elimination_split,
        "baseline_accuracy": baseline_acc,
        "baseline_digest": baseline.digest,
        "baseline_params": rows[0].params,
        "pool_size": len(pool),
        "member_digests": [m.digest for m in members],
        "best_ensemble_member_ids": list(best.member_ids),
        "best_ensemble_accuracy": best.accuracy,
        "best_ensemble_size": len(best),
        "master_seed": config.master_seed,
    }
    with open(_out(config, SUMMARY_JSON), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return trace, rows


def bench_stage(config, splits, models, rows):
    """Time each model, in row order, on one sampled batch of the elimination
    split; fill the rows' cpu columns and rewrite ``pool_metrics.csv``.

    Wall-clock numbers: excluded from the determinism guarantees.
    """
    eval_ds = _eval_split(config, splits)
    if len(models) != len(rows):
        raise StageError("bench", f"{len(models)} models but {len(rows)} metrics rows")
    batch = _sample_batch(eval_ds, config.bench.batch_size, config.bench.sample_seed)
    try:
        timings = bench_pool(models, batch, repeats=config.bench.repeats)
    except (EnsythError, ValueError) as exc:
        raise StageError("bench", str(exc)) from exc
    for row, timing in zip(rows, timings):
        row.cpu_us_mean = timing.mean_us
    write_metrics_csv(rows, _out(config, METRICS_CSV))
    return rows


def report_stage(config, trace, rows):
    """Write ``accuracy_vs_size.svg``; returns its path."""
    try:
        return emit_report(trace, rows, config.output_dir)
    except ValueError as exc:
        raise StageError("report", str(exc)) from exc


def run_pipeline(config: ExperimentConfig | str, out_dir=None, *,
                 workers: int = 1, elimination_split: str | None = None) -> dict:
    """Run every stage in order, handing models over in memory; returns a
    dict of artifact paths."""
    if isinstance(config, (str, os.PathLike)):
        config = load_config(config)
    config = resolve_config(config, out_dir, elimination_split)
    splits = data_stage(config)
    baseline = train_stage(config, splits[0])
    members = pool_stage(config, splits[0], baseline, workers=workers)
    trace, rows = eliminate_stage(config, splits, baseline, members, workers=workers)
    bench_stage(config, splits, [baseline.model] + [m.model for m in members], rows)
    svg_path = report_stage(config, trace, rows)
    return {
        "baseline": baseline.path,
        "pool": [m.path for m in members],
        "summary": _out(config, SUMMARY_JSON),
        "trace_csv": _out(config, TRACE_CSV),
        "metrics_csv": _out(config, METRICS_CSV),
        "svg": svg_path,
    }
