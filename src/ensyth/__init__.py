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
from .metrics import bundle_size, param_count, sparsity, timed_inference
from .network import Activations, ReluNetwork, TrainConfig, forward, masked_train, predict, train
from .pool_store import bundle_digest, load_bundle, save_bundle
from .pruner import PruneConfig, PrunedModel, collect_layer_data, prune_layer, prune_network
from .tensor import ArrayRecord, DenseMatrix, SparseMatrix, decode_array, encode_array, matmul, relu

__version__ = "0.1.0"

__all__ = [
    "Activations", "ArrayRecord", "Dataset", "DenseMatrix", "EliminationTrace",
    "Ensemble", "KERNEL_BACKEND", "ModelPool", "PruneConfig",
    "PrunedModel", "ReluNetwork", "SparseMatrix", "SplitSpec", "TrainConfig",
    "VoteMatrix", "backward_eliminate", "best_ensemble", "bundle_digest",
    "bundle_size", "collect_layer_data", "decode_array",
    "encode_array", "ensemble_accuracy", "forward", "generate_pool", "load_bundle",
    "load_csv", "load_idx", "masked_train", "matmul", "param_count",
    "plurality_vote", "predict", "predict_parallel", "prune_layer",
    "prune_network", "relu", "save_bundle", "sparsity", "split",
    "subset_classes", "synth_blobs", "timed_inference", "train", "vote_matrix",
]
