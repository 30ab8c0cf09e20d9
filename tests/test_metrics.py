"""Parameter counts, sparsity, bundle sizes, and the timing protocol."""

import os

import numpy as np
import pytest

from ensyth.metrics import (
    param_count,
    sparsity,
    timed_inference,
)
from ensyth.network import ReluNetwork
from ensyth.pool_store import save_bundle
from ensyth.tensor import DenseMatrix

from conftest import make_pruned


def _net(weights, biases, dims):
    return ReluNetwork(dims, tuple(weights), tuple(biases))


def _saved_size(model, path):
    """Size of the bundle file ``save_bundle`` writes for ``model``."""
    save_bundle(model, path)
    return os.path.getsize(path)


class FakeClock:
    """Emits a preset sequence of timestamps (seconds)."""

    def __init__(self, times):
        self.times = list(times)
        self.cursor = 0

    def __call__(self):
        value = self.times[self.cursor]
        self.cursor += 1
        return value


def clock_for_durations(durations_us):
    """Timestamps so consecutive (start, stop) pairs yield the durations."""
    times = []
    now = 0.0
    for d in durations_us:
        times.append(now)
        now += d * 1e-6
        times.append(now)
    return FakeClock(times)


class TestParamCount:
    def test_dense_layer_counts_everything(self):
        rng = np.random.default_rng(0)
        net = _net([rng.uniform(0.5, 1.0, size=(10, 5))], [np.ones(5)], (10, 5))
        assert param_count(net) == 55

    def test_zero_weights_leave_bias_count(self):
        net = _net([np.zeros((10, 5))], [np.ones(5)], (10, 5))
        assert param_count(net) == 5

    def test_masked_model_counts_popcount_plus_biases(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0.5, 1.0, size=(6, 4))
        w[([0, 1, 2], [0, 1, 2])] = 0.0
        net = _net([w], [np.ones(4)], (6, 4))
        pm = make_pruned(net)
        popcount = int(sum(m.sum() for m in pm.masks))
        assert param_count(pm) == popcount + 4


class TestSparsity:
    def test_dense_model_zero(self):
        rng = np.random.default_rng(2)
        net = _net([rng.uniform(0.5, 1.0, size=(4, 4))], [np.zeros(4)], (4, 4))
        assert sparsity(net) == 0.0

    def test_all_zero_weights_one(self):
        net = _net([np.zeros((4, 4))], [np.ones(4)], (4, 4))
        assert sparsity(net) == 1.0

    def test_half_zero_half(self):
        w = np.ones((4, 4))
        w[:2, :] = 0.0
        net = _net([w], [np.zeros(4)], (4, 4))
        assert sparsity(net) == 0.5


class TestBundleSize:
    def test_deterministic(self, trained_fixture, tmp_path):
        net = trained_fixture["net"]
        assert _saved_size(net, tmp_path / "a.ezip") == _saved_size(net, tmp_path / "b.ezip")

    def test_sparse_model_smaller_than_dense_baseline(self, tmp_path):
        rng = np.random.default_rng(3)
        dense_w = rng.normal(size=(40, 40))
        sparse_w = dense_w.copy()
        flat = sparse_w.reshape(-1)
        flat[np.argsort(np.abs(flat))[:int(0.9 * flat.size)]] = 0.0
        baseline = _net([dense_w], [rng.normal(size=40)], (40, 40))
        pruned = make_pruned(_net([sparse_w], [rng.normal(size=40)], (40, 40)))
        assert _saved_size(pruned, tmp_path / "p.ezip") < \
            _saved_size(baseline, tmp_path / "b.ezip")

    def test_bundle_at_least_manifest_sized(self, tmp_path):
        net = _net([np.ones((1, 1))], [np.zeros(1)], (1, 1))
        assert _saved_size(net, tmp_path / "n.ezip") > 100


class TestTimedInference:
    def _model(self):
        rng = np.random.default_rng(4)
        return _net([rng.normal(size=(3, 2))], [np.zeros(2)], (3, 2))

    def test_nine_repeats_mean(self):
        durations = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]
        clock = clock_for_durations(durations)
        batch = DenseMatrix(np.ones((3, 4)))
        result = timed_inference(self._model(), batch, repeats=9, clock=clock)
        measured = [(clock.times[2 * i + 1] - clock.times[2 * i]) * 1e6
                    for i in range(9)]
        assert result.mean_us == sum(measured) / 9

    def test_single_repeat(self):
        clock = clock_for_durations([42.0])
        batch = DenseMatrix(np.ones((3, 1)))
        result = timed_inference(self._model(), batch, repeats=1, clock=clock)
        assert result.mean_us == pytest.approx(42.0)

    def test_fake_clock_10_20_30(self):
        clock = clock_for_durations([10.0, 20.0, 30.0])
        batch = DenseMatrix(np.ones((3, 2)))
        result = timed_inference(self._model(), batch, repeats=3, clock=clock)
        assert result.mean_us == pytest.approx(20.0)

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            timed_inference(self._model(), DenseMatrix(np.ones((3, 1))), repeats=0)
