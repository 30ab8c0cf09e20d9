"""Ensemble synthesis from pruned feed-forward ReLU networks.

Train a baseline classifier, sparsify it into a diverse pool via per-layer
L1-minimization pruning, fuse pool members by plurality voting, and search
the pool by backward elimination for ensembles that match the baseline at
a lower parameter cost.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from .data import Dataset, SplitSpec, load_csv, load_idx, split, subset_classes, synth_blobs
from .ensemble import (
    EliminationTrace,
    Ensemble,
    ModelPool,
    VoteMatrix,
    backward_eliminate,
    best_ensemble,
    ensemble_accuracy,
    generate_pool,
    plurality_vote,
    predict_parallel,
    vote_matrix,
)
from .metrics import param_count, sparsity, timed_inference
from .network import Activations, ReluNetwork, TrainConfig, forward, masked_train, predict, train
from .pool_store import bundle_digest, load_bundle, save_bundle
from .pruner import PruneConfig, PrunedModel, collect_layer_data, prune_network
from .tensor import ArrayRecord, DenseMatrix, SparseMatrix, decode_array, encode_array

__version__ = "0.1.0"

__all__ = [
    "Activations", "ArrayRecord", "Dataset", "DenseMatrix", "EliminationTrace",
    "Ensemble", "KERNEL_BACKEND", "ModelPool", "PruneConfig",
    "PrunedModel", "ReluNetwork", "SparseMatrix", "SplitSpec", "TrainConfig",
    "VoteMatrix", "backward_eliminate", "best_ensemble", "bundle_digest",
    "collect_layer_data", "decode_array",
    "encode_array", "ensemble_accuracy", "forward", "generate_pool", "load_bundle",
    "load_csv", "load_idx", "masked_train", "param_count",
    "plurality_vote", "predict", "predict_parallel",
    "prune_network", "save_bundle", "sparsity", "split",
    "subset_classes", "synth_blobs", "timed_inference", "train", "vote_matrix",
]
