"""Command-line interface.

Subcommands mirror the pipeline stages: ``run`` executes everything;
``train``, ``pool``, ``eliminate``, ``bench`` and ``report`` each load the
artifacts an earlier stage left in the output directory and call the same
stage function ``run`` does.  Exit codes: 0 success, 2 config error,
3 stage failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ensemble import read_trace_csv
from .errors import ConfigError, EnsythError, StageError
from .pipeline import (
    BASELINE_BUNDLE,
    METRICS_CSV,
    POOL_DIR,
    SUMMARY_JSON,
    TRACE_CSV,
    StoredModel,
    bench_stage,
    data_stage,
    eliminate_stage,
    load_config,
    pool_stage,
    read_metrics_csv,
    report_stage,
    resolve_config,
    run_pipeline,
    train_stage,
)
from .pool_store import BUNDLE_SUFFIX, load_bundle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _default_workers():
    env = os.environ.get("ENSYTH_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ensyth",
        description="Train, prune, ensemble and benchmark feed-forward classifiers.",
    )
    parser.add_argument("-c", "--config", required=True, help="experiment config (JSON)")
    parser.add_argument("-o", "--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's master seed")
    parser.add_argument("--workers", type=int, default=_default_workers(),
                        help="worker count (default: ENSYTH_WORKERS or 1)")
    parser.add_argument("--elimination-split", choices=("val", "test"), default=None,
                        help="override the elimination evaluation split")
    parser.add_argument("command",
                        choices=("run", "train", "pool", "eliminate", "bench", "report"),
                        help="pipeline stage to execute")
    return parser


def _artifact(cfg, name, stage, producer):
    path = os.path.join(cfg.output_dir, name)
    if not os.path.exists(path):
        raise StageError(stage, f"{path} not found; run the {producer} stage first")
    return path


def _stored(path):
    model, _, digest = load_bundle(path)
    return StoredModel(model, digest, path)


def _baseline(cfg, stage):
    return _stored(_artifact(cfg, BASELINE_BUNDLE, stage, "train"))


def _members(cfg, stage):
    pool_dir = _artifact(cfg, POOL_DIR, stage, "pool")
    return [_stored(os.path.join(pool_dir, name)) for name in sorted(os.listdir(pool_dir))
            if name.endswith(BUNDLE_SUFFIX)]


def _cmd_train(cfg, args):
    baseline = train_stage(cfg, data_stage(cfg)[0])
    print(f"baseline -> {baseline.path}")
    print(f"digest {baseline.digest}")
    return EXIT_OK


def _cmd_pool(cfg, args):
    train_ds = data_stage(cfg)[0]
    members = pool_stage(cfg, train_ds, _baseline(cfg, "pool"), workers=args.workers)
    print(f"pool of {len(members)} -> {os.path.join(cfg.output_dir, POOL_DIR)}")
    return EXIT_OK


def _cmd_eliminate(cfg, args):
    splits = data_stage(cfg)
    eliminate_stage(cfg, splits, _baseline(cfg, "eliminate"), _members(cfg, "eliminate"),
                    workers=args.workers)
    return _print_summary(cfg)


def _cmd_bench(cfg, args):
    splits = data_stage(cfg)
    models = [s.model for s in [_baseline(cfg, "bench")] + _members(cfg, "bench")]
    rows = read_metrics_csv(_artifact(cfg, METRICS_CSV, "bench", "eliminate"))
    for row in bench_stage(cfg, splits, models, rows):
        print(f"model {row.model_id}: {row.cpu_us_mean:.1f} us")
    return EXIT_OK


def _cmd_report(cfg, args):
    trace = read_trace_csv(_artifact(cfg, TRACE_CSV, "report", "eliminate"))
    rows = read_metrics_csv(_artifact(cfg, METRICS_CSV, "report", "eliminate"))
    print(f"report -> {report_stage(cfg, trace, rows)}")
    return EXIT_OK


def _print_summary(cfg):
    with open(os.path.join(cfg.output_dir, SUMMARY_JSON), encoding="utf-8") as fh:
        summary = json.load(fh)
    print(f"baseline accuracy {summary['baseline_accuracy']:.6f}")
    print(f"best ensemble {summary['best_ensemble_member_ids']} "
          f"accuracy {summary['best_ensemble_accuracy']:.6f} "
          f"({summary['best_ensemble_size']} members)")
    print(f"artifacts in {cfg.output_dir}")
    return EXIT_OK


def _cmd_run(cfg, args):
    run_pipeline(cfg, workers=args.workers)
    return _print_summary(cfg)


_COMMANDS = {
    "run": _cmd_run,
    "train": _cmd_train,
    "pool": _cmd_pool,
    "eliminate": _cmd_eliminate,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(load_config(args.config, master_seed=args.seed),
                             args.out, args.elimination_split)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except (EnsythError, ValueError, OSError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_STAGE

if __name__ == "__main__":
    sys.exit(main())
