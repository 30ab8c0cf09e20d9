import glob
import importlib.util
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def ckernels(tmp_path_factory):
    """The compiled kernel module, built from setup.py into a temporary directory.

    Nothing is written under the source tree.  Skips only when the build
    produces no extension (no C compiler, or compilation failed).
    """
    top = tmp_path_factory.mktemp("ckernels")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(top / "lib"), "--build-temp", str(top / "tmp")],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    built = glob.glob(str(top / "lib" / "ensyth" / "_kernels" / "_ckernels.*"))
    if proc.returncode != 0 or not built:
        pytest.skip("compiled kernels could not be built:\n" + proc.stdout[-2000:]
                    + proc.stderr[-2000:])
    spec = importlib.util.spec_from_file_location("ensyth._kernels._ckernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def trained_fixture():
    """A small trained classifier plus its splits, shared across tests."""
    import ensyth as E

    ds = E.synth_blobs(seed=7, samples_per_class=80, classes=3, dim=10, spread=0.8)
    tr, va, te = E.split(ds, E.SplitSpec(0.8, 0.1, 0.1, seed=3))
    net0 = E.ReluNetwork.initialize([10, 8, 3], seed=1)
    cfg = E.TrainConfig(epochs=60, batch_size=16, learning_rate=0.05, seed=2)
    net = E.train(net0, tr, cfg)
    return {"net": net, "train": tr, "val": va, "test": te, "cfg": cfg, "init": net0}


def full_grid():
    """The stock 3-set x 12-epsilon grid, as ``configs/full_grid.json`` defines it."""
    from ensyth.pipeline import load_config

    return load_config(os.path.join(REPO, "configs", "full_grid.json")).grid_configs


def make_pruned(net, masks=None, config=None, parent="p"):
    """Wrap a network as a pruned model with consistent masks."""
    from ensyth.pruner import PruneConfig, PrunedModel

    if masks is None:
        masks = tuple(w != 0.0 for w in net.weights)
    if config is None:
        config = PruneConfig(epsilon_gain=0.1)
    return PrunedModel(network=net, masks=masks, config=config, parent_hash=parent,
                       layer_epsilons=(0.0,) * net.depth, feasibility_report=())


def random_network(rng, dims):
    """Random finite network with the given layer sizes."""
    from ensyth.network import ReluNetwork

    weights = [rng.normal(size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(size=b) * 0.1 for b in dims[1:]]
    return ReluNetwork(tuple(dims), tuple(weights), tuple(biases))
