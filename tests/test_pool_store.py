"""Bundle persistence: digests, round trips, integrity validation."""

import json
import os
import zipfile

import numpy as np
import pytest

import ensyth as E
from ensyth.errors import IntegrityError
from ensyth.network import ReluNetwork
from ensyth.pool_store import bundle_bytes, bundle_digest, load_bundle, save_bundle
from ensyth.pruner import PruneConfig, prune_network
from conftest import make_pruned


@pytest.fixture(scope="module")
def pruned_model(trained_fixture):
    return prune_network(trained_fixture["net"], trained_fixture["train"],
                         PruneConfig(epsilon_gain=0.2))


class TestSaveLoad:
    def test_digest_stable_across_saves(self, trained_fixture, tmp_path):
        net = trained_fixture["net"]
        d1 = save_bundle(net, tmp_path / "a.ezip")
        d2 = save_bundle(net, tmp_path / "b.ezip")
        assert d1 == d2
        assert d1 == bundle_digest(net)

    def test_baseline_round_trip_bitwise(self, trained_fixture, tmp_path):
        net = trained_fixture["net"]
        cfg = trained_fixture["cfg"]
        path = tmp_path / "m.ezip"
        digest = save_bundle(net, path, train_config=cfg)
        loaded, loaded_cfg, loaded_digest = load_bundle(path)
        assert loaded == net
        assert loaded_cfg == cfg
        assert loaded_digest == digest

    def test_pruned_round_trip_bitwise(self, pruned_model, tmp_path):
        path = tmp_path / "p.ezip"
        digest = save_bundle(pruned_model, path)
        loaded, _, loaded_digest = load_bundle(path, expected_digest=digest)
        assert loaded.network == pruned_model.network
        assert loaded.config == pruned_model.config
        assert loaded.parent_hash == pruned_model.parent_hash
        assert loaded.layer_epsilons == pruned_model.layer_epsilons
        assert loaded.feasibility_report == pruned_model.feasibility_report
        for a, b in zip(loaded.masks, pruned_model.masks):
            assert (a == b).all()
        assert loaded_digest == digest

    def test_flipping_one_weight_changes_digest(self, trained_fixture):
        net = trained_fixture["net"]
        weights = [w.copy() for w in net.weights]
        raw = weights[0].copy()
        bits = raw.view(np.uint64)
        bits[0, 0] ^= 1
        weights[0] = raw
        other = ReluNetwork(net.layer_dims, tuple(weights), net.biases)
        assert bundle_digest(other) != bundle_digest(net)

    def test_behavioral_equivalence_after_round_trip(self, trained_fixture, tmp_path):
        net = trained_fixture["net"]
        x = trained_fixture["test"].features
        path = tmp_path / "m.ezip"
        save_bundle(net, path)
        loaded, _, _ = load_bundle(path)
        assert E.predict(loaded, x).tolist() == E.predict(net, x).tolist()

    def test_masks_agree_with_support_after_load(self, pruned_model, tmp_path):
        path = tmp_path / "p.ezip"
        save_bundle(pruned_model, path)
        loaded, _, _ = load_bundle(path)
        for w, m in zip(loaded.network.weights, loaded.masks):
            assert ((w != 0.0) == m).all()

    def test_nonfinite_weights_refused(self):
        with pytest.raises(ValueError):
            ReluNetwork((2, 2), (np.array([[np.inf, 0.0], [0.0, 1.0]]),),
                        (np.zeros(2),))


class TestIntegrity:
    def test_missing_weight_array(self, trained_fixture, tmp_path):
        net = trained_fixture["net"]
        path = tmp_path / "m.ezip"
        save_bundle(net, path)
        broken = tmp_path / "broken.ezip"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(broken, "w") as dst:
            manifest = json.loads(src.read("manifest.json"))
            manifest["layer_dims"] = [10, 8, 3, 3]   # claims one extra layer
            dst.writestr("manifest.json", json.dumps(manifest))
            for name in src.namelist():
                if name != "manifest.json":
                    dst.writestr(name, src.read(name))
        with pytest.raises(IntegrityError, match="W3"):
            load_bundle(broken)

    def test_digest_mismatch(self, trained_fixture, tmp_path):
        net = trained_fixture["net"]
        path = tmp_path / "m.ezip"
        save_bundle(net, path)
        with pytest.raises(IntegrityError, match="digest"):
            load_bundle(path, expected_digest="0" * 64)

    def test_unknown_manifest_key_rejected(self, trained_fixture, tmp_path):
        net = trained_fixture["net"]
        path = tmp_path / "m.ezip"
        save_bundle(net, path)
        broken = tmp_path / "broken.ezip"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(broken, "w") as dst:
            manifest = json.loads(src.read("manifest.json"))
            manifest["extra"] = 1
            dst.writestr("manifest.json", json.dumps(manifest))
            for name in src.namelist():
                if name != "manifest.json":
                    dst.writestr(name, src.read(name))
        with pytest.raises(IntegrityError, match="manifest keys"):
            load_bundle(broken)

    def test_shape_mismatch_names_entry(self, trained_fixture, tmp_path):
        net = trained_fixture["net"]
        path = tmp_path / "m.ezip"
        save_bundle(net, path)
        broken = tmp_path / "broken.ezip"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(broken, "w") as dst:
            manifest = json.loads(src.read("manifest.json"))
            manifest["layer_dims"] = [10, 9, 3]   # W1 no longer matches
            dst.writestr("manifest.json", json.dumps(manifest))
            for name in src.namelist():
                if name != "manifest.json":
                    dst.writestr(name, src.read(name))
        with pytest.raises(IntegrityError):
            load_bundle(broken)


class TestF32Storage:
    def test_lossy_f32_bundle_flagged_and_loadable(self, trained_fixture, tmp_path):
        net = trained_fixture["net"]
        path = tmp_path / "f32.ezip"
        save_bundle(net, path, dtype="f32")
        import zipfile
        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json"))
        assert all(e["dtype"] == "f32" for e in manifest["arrays"])
        loaded, _, _ = load_bundle(path)
        # values round-trip through single precision
        for a, b in zip(loaded.weights, net.weights):
            assert np.array_equal(a, b.astype(np.float32).astype(np.float64))

    def test_f32_smaller_than_f64(self, trained_fixture):
        net = trained_fixture["net"]
        assert len(bundle_bytes(net, dtype="f32")) < len(bundle_bytes(net))


class TestMetricPreservation:
    def test_round_trip_preserves_all_metrics(self, pruned_model, tmp_path):
        path = tmp_path / "p.ezip"
        save_bundle(pruned_model, path)
        loaded, _, _ = load_bundle(path)
        assert E.param_count(loaded) == E.param_count(pruned_model)
        assert E.sparsity(loaded) == E.sparsity(pruned_model)
        again = tmp_path / "again.ezip"
        save_bundle(loaded, again)
        assert os.path.getsize(again) == os.path.getsize(path)


class TestSizeBehavior:
    def test_high_sparsity_bundle_smaller_than_dense(self):
        rng = np.random.default_rng(6)
        dense_w = rng.normal(size=(30, 64))
        sparse_w = dense_w.copy()
        flat = sparse_w.reshape(-1)
        flat[np.argsort(np.abs(flat))[:int(0.6 * flat.size)]] = 0.0
        baseline = ReluNetwork((30, 64), (dense_w,), (rng.normal(size=64),))
        pruned = make_pruned(ReluNetwork((30, 64), (sparse_w,),
                                         (rng.normal(size=64),)))
        assert len(bundle_bytes(pruned)) < len(bundle_bytes(baseline))

    def test_stable_bytes_given_fixed_created_at(self, trained_fixture):
        net = trained_fixture["net"]
        assert bundle_bytes(net) == bundle_bytes(net)
