"""benchmarks/record_bench.py: finding the earlier BENCH file and reading it against the new one."""

import importlib.util
import os

import pytest

from conftest import REPO


@pytest.fixture(scope="module")
def record_bench():
    path = os.path.join(REPO, "benchmarks", "record_bench.py")
    spec = importlib.util.spec_from_file_location("record_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(pipeline_s, digests, compiled_us):
    return {"workloads": {"pool-finetune": {
                "runs": [{"seed": 1, "digests_sha256": digests}],
                "metrics": {"pipeline_s": {"unit": "s", "median": pipeline_s}}}},
            "kernels": {"cases_us": {"gram": {"python": 900.0, "compiled": compiled_us}}}}


def test_previous_file_is_highest_number_below_own(record_bench, tmp_path):
    for name in ("BENCH_2.json", "BENCH_10.json", "BENCH_11.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert record_bench.previous_file(str(tmp_path / "BENCH_11.json")) == \
        str(tmp_path / "BENCH_10.json")
    assert record_bench.previous_file(str(tmp_path / "BENCH_10.json")) == \
        str(tmp_path / "BENCH_2.json")
    assert record_bench.previous_file(str(tmp_path / "BENCH_2.json")) is None


def test_difference_names_changed_medians_and_digests(record_bench, capsys):
    record_bench.print_difference(_bench(10.0, "aa", 700.0), _bench(5.0, "bb", 350.0),
                                  "BENCH_5.json")
    out = capsys.readouterr().out
    assert "difference from BENCH_5.json" in out
    assert "pipeline_s" in out and "-50.0%" in out
    assert "seed 1: member digests differ" in out
    assert "gram" in out and "700.0 ->      350.0 us compiled" in out


def test_kernel_row_parses_bench_kernels_table(record_bench):
    line = (f"{'admm fit  2000x65 @ 65x32':30s} {5578.04:10.1f} us {279.0:10.1f} us "
            f"{20.0:8.1f}x  ==")
    row = record_bench._KERNEL_ROW.match(line)
    assert (row["case"], row["py"], row["cc"], row["bits"]) == \
        ("admm fit  2000x65 @ 65x32", "5578.0", "279.0", "==")


def test_quartiles(record_bench):
    assert record_bench.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == \
        {"median": 3.0, "q1": 2.0, "q3": 4.0, "values": [5.0, 1.0, 4.0, 2.0, 3.0]}
