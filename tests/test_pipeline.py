"""Config parsing, the end-to-end pipeline, reports, and the CLI surface."""

import csv
import json
import os
import re

import numpy as np
import pytest

from ensyth import cli
from ensyth.errors import ConfigError
from ensyth.pipeline import (
    child_seed,
    load_config,
    parse_config,
    read_metrics_csv,
    render_accuracy_svg,
    run_pipeline,
)


def minimal_config(**overrides):
    cfg = {
        "master_seed": 5,
        "dataset": {"type": "blobs", "samples_per_class": 40, "classes": 3,
                    "dim": 8, "spread": 0.8,
                    "split": {"train": 0.7, "val": 0.15, "test": 0.15}},
        "network": {"layer_dims": [8, 6, 3]},
        "train": {"epochs": 20, "batch_size": 12, "learning_rate": 0.05},
        "grid": [{"set_id": "set1", "epsilons": [0.05, 0.2, 0.5],
                  "l1": 0, "l2": 1, "dropout_keep": 1}],
        "elimination": {"split": "val"},
        "bench": {"repeats": 2, "batch_size": 6},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"config\.bogus"):
            parse_config(minimal_config(bogus=1))

    def test_unknown_nested_key_paths(self):
        cfg = minimal_config()
        cfg["dataset"]["sprad"] = 1.0
        with pytest.raises(ConfigError, match=r"dataset\.sprad"):
            parse_config(cfg)
        cfg = minimal_config()
        cfg["grid"][0]["epsilon"] = [0.1]
        with pytest.raises(ConfigError, match=r"grid\[0\]\.epsilon"):
            parse_config(cfg)

    def test_missing_required_key(self):
        cfg = minimal_config()
        del cfg["train"]["epochs"]
        with pytest.raises(ConfigError, match=r"train\.epochs"):
            parse_config(cfg)

    def test_bad_elimination_split(self):
        cfg = minimal_config(elimination={"split": "train"})
        with pytest.raises(ConfigError, match=r"elimination\.split"):
            parse_config(cfg)

    def test_grid_expansion_order(self):
        cfg = parse_config(minimal_config())
        eps = [c.epsilon_gain for c in cfg.grid_configs]
        assert eps == [0.05, 0.2, 0.5]

    def test_mismatched_train_vector_is_config_error(self, tmp_path):
        """Per-layer train coefficients must give one value per weight layer,
        or parsing fails before anything is trained."""
        for key in ("l1", "l2", "dropout_keep"):
            cfg = minimal_config()
            cfg["train"][key] = [0.5, 0.5, 0.5]          # the network has 2 layers
            with pytest.raises(ConfigError, match=rf"train\.{key}: .* got 3"):
                parse_config(cfg)
        cfg["train"]["dropout_keep"] = [1, 0.5]
        parse_config(cfg)
        path = write_config(tmp_path, minimal_config(
            train={"epochs": 1, "batch_size": 4, "learning_rate": 0.1, "l2": [0.1]}))
        code = cli.main(["-c", str(path), "-o", str(tmp_path / "o"), "run"])
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_mismatched_fine_tune_vector_is_config_error(self, tmp_path):
        """A grid vector reaches training only through fine-tuning: with
        fine_tune_epochs > 0 its length must match the network depth, and
        without fine-tuning any length parses (configs/full_grid.json)."""
        cfg = minimal_config()
        cfg["grid"] = [{"epsilons": [0.1], "l2": [0, 0, 0.004, 0.004, 0],
                        "fine_tune_epochs": 2}]
        with pytest.raises(ConfigError, match=r"grid\[0\]\.l2: .* got 5"):
            parse_config(cfg)
        path = write_config(tmp_path, cfg)
        code = cli.main(["-c", str(path), "-o", str(tmp_path / "o"), "run"])
        assert code == cli.EXIT_CONFIG
        cfg["grid"][0]["fine_tune_epochs"] = 0
        parse_config(cfg)
        full = load_config(os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "configs", "full_grid.json"))
        assert {s.fine_tune_epochs for s in full.grid} == {0}

    def test_child_seed_stable(self):
        assert child_seed(5, "train") == child_seed(5, "train")
        assert child_seed(5, "train") != child_seed(5, "init")
        assert child_seed(5, "pool", 1) != child_seed(5, "pool", 2)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    path = write_config(tmp_path, minimal_config())
    out = tmp_path / "out"
    artifacts = run_pipeline(str(path), str(out))
    return {"out": out, "artifacts": artifacts, "config_path": path,
            "tmp": tmp_path}


class TestRunPipeline:
    def test_all_artifacts_present(self, pipeline_run):
        out = pipeline_run["out"]
        for name in ("baseline.ezip", "pool_metrics.csv", "elimination_trace.csv",
                     "summary.json", "accuracy_vs_size.svg"):
            assert (out / name).exists()
        assert sorted(os.listdir(out / "pool")) == [
            "model_000.ezip", "model_001.ezip", "model_002.ezip"]

    def test_metrics_rows_are_grid_plus_baseline(self, pipeline_run):
        rows = read_metrics_csv(pipeline_run["out"] / "pool_metrics.csv")
        assert len(rows) == 4
        assert rows[0].model_id == "baseline"
        assert [r.epsilon for r in rows[1:]] == [0.05, 0.2, 0.5]

    def test_summary_consistent_with_trace(self, pipeline_run):
        summary = json.loads((pipeline_run["out"] / "summary.json").read_text())
        with open(pipeline_run["out"] / "elimination_trace.csv") as fh:
            accs = [float(r["accuracy"]) for r in csv.DictReader(fh)]
        assert summary["best_ensemble_accuracy"] == max(accs)

    def test_rerun_is_digest_identical(self, pipeline_run):
        out2 = pipeline_run["tmp"] / "out2"
        run_pipeline(str(pipeline_run["config_path"]), str(out2))
        s1 = json.loads((pipeline_run["out"] / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1 == s2
        svg1 = (pipeline_run["out"] / "accuracy_vs_size.svg").read_text()
        svg2 = (out2 / "accuracy_vs_size.svg").read_text()
        assert svg1 == svg2

    def test_plotted_accuracies_appear_in_trace(self, pipeline_run):
        svg = (pipeline_run["out"] / "accuracy_vs_size.svg").read_text()
        plotted = set(re.findall(r"accuracy=(\d\.\d{6})", svg))
        with open(pipeline_run["out"] / "elimination_trace.csv") as fh:
            traced = {f"{float(r['accuracy']):.6f}" for r in csv.DictReader(fh)}
        assert plotted <= traced

    def test_seed_override_changes_results(self, pipeline_run):
        out3 = pipeline_run["tmp"] / "out3"
        run_pipeline(load_config(pipeline_run["config_path"], master_seed=99), str(out3))
        s1 = json.loads((pipeline_run["out"] / "summary.json").read_text())
        s3 = json.loads((out3 / "summary.json").read_text())
        assert s3["master_seed"] == 99
        assert s1["baseline_digest"] != s3["baseline_digest"]


class TestMinimalRun:
    def test_twelve_epsilon_grid_gives_thirteen_rows(self, tmp_path):
        cfg = minimal_config()
        cfg["dataset"] = {"type": "blobs", "samples_per_class": 20, "classes": 3,
                          "dim": 4, "spread": 0.8,
                          "split": {"train": 0.7, "val": 0.15, "test": 0.15}}
        cfg["network"] = {"layer_dims": [4, 3]}
        cfg["train"]["epochs"] = 3
        cfg["grid"] = [{"epsilons": [0.01, 0.02, 0.04, 0.06, 0.08, 0.1,
                                     0.2, 0.3, 0.4, 0.5, 0.6, 0.7]}]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        run_pipeline(str(path), str(out))
        with open(out / "pool_metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 13
        assert rows[0]["model_id"] == "baseline"

    def test_csv_dataset_with_class_subset(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for label in range(4):
            for _ in range(30):
                feats = rng.normal(size=3) + 3.0 * label
                lines.append(",".join(repr(float(v)) for v in feats) + f",{label}")
        data_path = tmp_path / "data.csv"
        data_path.write_text("\n".join(lines) + "\n")
        cfg = minimal_config()
        cfg["dataset"] = {"type": "csv", "path": str(data_path),
                          "subset": [1, 3],
                          "split": {"train": 0.7, "val": 0.15, "test": 0.15}}
        cfg["network"] = {"layer_dims": [3, 4, 2]}
        cfg["grid"] = [{"epsilons": [0.1]}]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        run_pipeline(str(path), str(out))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pool_size"] == 1
        assert summary["baseline_accuracy"] > 0.9

    def test_epochs_zero_single_member(self, tmp_path):
        cfg = minimal_config()
        cfg["train"]["epochs"] = 0
        cfg["grid"] = [{"epsilons": [0.1]}]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        run_pipeline(str(path), str(out))
        with open(out / "elimination_trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["member_ids"] == "0"

    def test_layer_dim_mismatch_is_stage_error(self, tmp_path, capsys):
        from ensyth.errors import StageError
        cfg = minimal_config()
        cfg["network"]["layer_dims"] = [9, 6, 3]
        path = write_config(tmp_path, cfg)
        with pytest.raises(StageError, match="data"):
            run_pipeline(str(path), str(tmp_path / "out"))
        code = cli.main(["-c", str(path), "-o", str(tmp_path / "o"), "train"])
        assert code == cli.EXIT_STAGE
        assert "stage 'data'" in capsys.readouterr().err

    def test_missing_dataset_file_is_data_stage_error(self, tmp_path):
        from ensyth.errors import StageError
        cfg = minimal_config()
        cfg["dataset"] = {"type": "csv", "path": str(tmp_path / "absent.csv")}
        path = write_config(tmp_path, cfg)
        with pytest.raises(StageError, match="data"):
            run_pipeline(str(path), str(tmp_path / "out"))

    def test_empty_elimination_split_is_data_stage_error(self, tmp_path, capsys):
        """An empty elimination split fails before the baseline is trained."""
        cfg = minimal_config(elimination={"split": "test"})
        cfg["dataset"]["split"] = {"train": 0.75, "val": 0.25, "test": 0}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        code = cli.main(["-c", str(path), "-o", str(out), "run"])
        assert code == cli.EXIT_STAGE
        err = capsys.readouterr().err
        assert "stage 'data'" in err and "the test split is empty" in err
        assert not (out / "baseline.ezip").exists()


class TestSvgRendering:
    def test_byte_stable(self):
        svg1 = render_accuracy_svg([3, 2, 1], [0.8, 0.9, 0.7], 0.85)
        svg2 = render_accuracy_svg([3, 2, 1], [0.8, 0.9, 0.7], 0.85)
        assert svg1 == svg2

    def test_single_point_plot(self):
        svg = render_accuracy_svg([1], [0.75], 0.8)
        assert "baseline 0.800000" in svg
        assert "size=1 accuracy=0.750000" in svg

    def test_no_polyline_for_single_point(self):
        assert "<polyline" not in render_accuracy_svg([1], [0.75], 0.8)


class TestBench:
    def test_sample_selection_reproducible(self):
        from ensyth.pipeline import _sample_batch
        import ensyth as E
        ds = E.synth_blobs(seed=1, samples_per_class=30, classes=2, dim=4,
                           spread=1.0)
        a = _sample_batch(ds, 10, sample_seed=7)
        b = _sample_batch(ds, 10, sample_seed=7)
        assert a.tobytes() == b.tobytes()

    def test_defaults_match_protocol(self):
        cfg = parse_config(minimal_config(bench={}))
        assert cfg.bench.repeats == 9
        assert cfg.bench.batch_size == 50

    def test_bench_fills_cpu_columns(self, pipeline_run):
        rows = read_metrics_csv(pipeline_run["out"] / "pool_metrics.csv")
        assert all(r.cpu_us_mean is not None for r in rows)
        assert all(r.cpu_us_mean >= 0 for r in rows)

    def test_bundle_bytes_is_size_of_written_bundle(self, pipeline_run):
        rows = read_metrics_csv(pipeline_run["out"] / "pool_metrics.csv")
        artifacts = pipeline_run["artifacts"]
        paths = [artifacts["baseline"]] + artifacts["pool"]
        assert [r.bundle_bytes for r in rows] == [os.path.getsize(p) for p in paths]


class TestCrossBackend:
    def test_fallback_kernels_reproduce_digests(self, tmp_path, ckernels, monkeypatch):
        """A pipeline run under the pure-Python kernels must produce the
        same bundle digests as under the compiled ones."""
        from ensyth import _kernels
        from ensyth._kernels import _pykernels
        cfg = minimal_config()
        cfg["bench"] = {"repeats": 1, "batch_size": 4}
        path = write_config(tmp_path, cfg)
        summaries = []
        for name, impl in (("compiled", ckernels), ("python", _pykernels)):
            monkeypatch.setattr(_kernels, "_impl", impl)
            run_pipeline(str(path), str(tmp_path / name))
            summaries.append(json.loads((tmp_path / name / "summary.json").read_text()))
        a, b = summaries
        assert a["baseline_digest"] == b["baseline_digest"]
        assert a["member_digests"] == b["member_digests"]
        assert a["best_ensemble_accuracy"] == b["best_ensemble_accuracy"]


class TestCli:
    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"bogus": 1})
        code = cli.main(["-c", str(path), "-o", str(tmp_path / "o"), "run"])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ("NaN", "Infinity"))
    def test_non_finite_epsilon_is_config_error(self, tmp_path, capsys, literal):
        """JSON's NaN and Infinity literals are rejected at parse time, before
        anything is trained or written."""
        cfg = minimal_config()
        cfg["grid"][0]["epsilons"] = [0.1, float(literal)]
        path = write_config(tmp_path, cfg)
        assert literal in path.read_text()
        out = tmp_path / "o"
        code = cli.main(["-c", str(path), "-o", str(out), "run"])
        assert code == cli.EXIT_CONFIG
        assert "grid[0].epsilons[]: expected a finite number" in capsys.readouterr().err
        assert not (out / "baseline.ezip").exists()

    def test_stage_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        code = cli.main(["-c", str(path), "-o", str(tmp_path / "o"), "eliminate"])
        assert code == cli.EXIT_STAGE
        assert "stage" in capsys.readouterr().err

    def test_stagewise_matches_run(self, tmp_path):
        """The subcommands one at a time write what ``run`` writes, byte for
        byte, apart from the wall-clock cpu_us_mean column, which every row
        of both fills."""
        path = write_config(tmp_path, minimal_config())
        out_run = tmp_path / "full"
        out_stage = tmp_path / "staged"
        assert cli.main(["-c", str(path), "-o", str(out_run), "run"]) == 0
        for command in ("train", "pool", "eliminate", "bench", "report"):
            assert cli.main(["-c", str(path), "-o", str(out_stage), command]) == 0
        for name in ("summary.json", "elimination_trace.csv", "accuracy_vs_size.svg"):
            assert (out_run / name).read_bytes() == (out_stage / name).read_bytes(), name

        def without_cpu(out):
            with open(out / "pool_metrics.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                assert row.pop("cpu_us_mean") != "", row["model_id"]
            return rows
        assert without_cpu(out_run) == without_cpu(out_stage)

    def test_pool_rerun_removes_stale_members(self, tmp_path):
        """A ``pool`` run on a smaller grid deletes the member bundles a larger
        grid left, so ``eliminate`` counts only the current grid's members."""
        cfg = minimal_config()
        big = write_config(tmp_path, cfg, "big.json")
        cfg["grid"][0]["epsilons"] = [0.2]
        small = write_config(tmp_path, cfg, "small.json")
        out = tmp_path / "o"
        for path, command in ((big, "train"), (big, "pool"), (small, "pool"),
                              (small, "eliminate")):
            assert cli.main(["-c", str(path), "-o", str(out), command]) == 0
        assert sorted(os.listdir(out / "pool")) == ["model_000.ezip"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pool_size"] == 1
        assert len(summary["member_digests"]) == 1

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("ENSYTH_WORKERS", "4")
        parser = cli._build_parser()
        args = parser.parse_args(["-c", "x.json", "run"])
        assert args.workers == 4
