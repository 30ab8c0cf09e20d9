"""Feed-forward ReLU networks: forward pass, prediction, SGD training.

The last layer is linear; classification takes the argmax of the logits
(softmax is applied only inside the loss, which argmax is invariant to).
Training is plain mini-batch SGD with optional L1/L2 penalties and
inverted dropout, fully deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import Dataset
from .errors import ShapeError
from .tensor import DenseMatrix


def _per_layer(value, depth, name):
    """Expand a scalar-or-length-L coefficient spec to one value per layer."""
    if np.isscalar(value):
        out = (float(value),) * depth
    else:
        out = tuple(float(v) for v in value)
        if len(out) != depth:
            raise ValueError(
                f"{name} must be a scalar or length-{depth} sequence, got {len(out)}"
            )
    return out


def _check_regularizers(l1, l2, dropout_keep):
    """Validate scalar-or-per-layer l1/l2 coefficients and dropout keep rates."""
    for name, val in (("l1", l1), ("l2", l2)):
        vals = [val] if np.isscalar(val) else list(val)
        if any(v < 0 for v in vals):
            raise ValueError(f"{name} coefficients must be >= 0")
    keeps = [dropout_keep] if np.isscalar(dropout_keep) else list(dropout_keep)
    if any(not (0.0 < k <= 1.0) for k in keeps):
        raise ValueError("dropout_keep probabilities must lie in (0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    l1: object = 0.0
    l2: object = 0.0
    dropout_keep: object = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        _check_regularizers(self.l1, self.l2, self.dropout_keep)


def _frozen_array(arr, dtype=np.float64):
    arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ReluNetwork:
    """Layer dims [N0..NL], weight matrices W_l (N_{l-1} x N_l), bias vectors."""

    layer_dims: tuple
    weights: tuple
    biases: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ShapeError(f"layer_dims must list >= 2 positive sizes, got {dims}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ShapeError("need exactly one weight matrix and bias per layer")
        weights = []
        biases = []
        for l, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            w = w.data if isinstance(w, DenseMatrix) else np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64).reshape(-1)
            if w.shape != (dims[l - 1], dims[l]):
                raise ShapeError(
                    f"layer {l} weights must be {dims[l-1]}x{dims[l]}, got {w.shape}"
                )
            if b.shape != (dims[l],):
                raise ShapeError(f"layer {l} bias must have length {dims[l]}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l} parameters must be finite")
            weights.append(_frozen_array(w))
            biases.append(_frozen_array(b))
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "biases", tuple(biases))

    @classmethod
    def initialize(cls, layer_dims, seed):
        """Seeded uniform init in +-sqrt(6/(fan_in+fan_out)); zero biases."""
        dims = tuple(int(d) for d in layer_dims)
        rng = np.random.default_rng(seed)
        weights = []
        biases = []
        for n_in, n_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (n_in + n_out))
            weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
            biases.append(np.zeros(n_out))
        return cls(dims, tuple(weights), tuple(biases))

    @property
    def depth(self):
        return len(self.weights)

    @property
    def input_dim(self):
        return self.layer_dims[0]

    @property
    def output_classes(self):
        return self.layer_dims[-1]

    def __eq__(self, other):
        if not isinstance(other, ReluNetwork):
            return NotImplemented
        return (self.layer_dims == other.layer_dims
                and all(a.tobytes() == b.tobytes() for a, b in zip(self.weights, other.weights))
                and all(a.tobytes() == b.tobytes() for a, b in zip(self.biases, other.biases)))

    __hash__ = None


@dataclass(frozen=True)
class Activations:
    """Per-layer responses X^(0)..X^(L); the last entry is the linear output."""

    layers: tuple

    @property
    def final(self):
        return self.layers[-1]


def _as_feature_array(x, expected_dim):
    arr = x.data if isinstance(x, DenseMatrix) else np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ShapeError(f"input must be 2-D with >= 1 column, got shape {arr.shape}")
    if arr.shape[0] != expected_dim:
        raise ShapeError(
            f"input has {arr.shape[0]} rows but the network expects {expected_dim}"
        )
    return arr


def _forward_arrays(weights, biases, x):
    acts = [x]
    h = x
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = _kernels.matmul(w.T, h) + b[:, np.newaxis]
        h = _kernels.relu(z) if l < last else z
        acts.append(h)
    return acts


def forward(net: ReluNetwork, x) -> Activations:
    """Run the network; hidden layers ReLU, final layer linear."""
    arr = _as_feature_array(x, net.input_dim)
    return Activations(tuple(_forward_arrays(net.weights, net.biases, arr)))


def predict(net: ReluNetwork, x) -> np.ndarray:
    """Per-sample argmax of the logits; ties go to the lowest class index."""
    acts = forward(net, x)
    return np.argmax(acts.final, axis=0)


def _softmax_columns(logits):
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def batch_loss(net: ReluNetwork, x, labels, cfg: TrainConfig) -> float:
    """Mean softmax cross-entropy plus the configured L1/L2 penalties."""
    arr = _as_feature_array(x, net.input_dim)
    labels = np.asarray(labels, dtype=np.int64)
    probs = _softmax_columns(_forward_arrays(net.weights, net.biases, arr)[-1])
    p = arr.shape[1]
    ce = -np.log(np.maximum(probs[labels, np.arange(p)], 1e-300)).mean()
    l1 = _per_layer(cfg.l1, net.depth, "l1")
    l2 = _per_layer(cfg.l2, net.depth, "l2")
    penalty = sum(l1[l] * np.abs(w).sum() + l2[l] * (w * w).sum()
                  for l, w in enumerate(net.weights))
    return float(ce + penalty)


def _loss_and_grads(weights, biases, x, labels, l1, l2, keeps, drop_rng):
    """One backprop pass; returns (loss, weight grads, bias grads).

    Dropout masks (inverted scaling) are drawn from ``drop_rng`` only for
    hidden layers with keep < 1, so disabled dropout never consumes
    randomness.
    """
    depth = len(weights)
    p = x.shape[1]
    acts = [x]
    gates = []
    drop_masks = []
    h = x
    for l in range(depth):
        z = _kernels.matmul(weights[l].T, h) + biases[l][:, np.newaxis]
        if l < depth - 1:
            h = _kernels.relu(z)
            gates.append(h > 0.0)
            if keeps[l] < 1.0:
                mask = (drop_rng.random(h.shape) < keeps[l]) / keeps[l]
                h = h * mask
                drop_masks.append(mask)
            else:
                drop_masks.append(None)
        else:
            h = z
        acts.append(h)

    probs = _softmax_columns(acts[-1])
    ce = -np.log(np.maximum(probs[labels, np.arange(p)], 1e-300)).mean()

    delta = probs
    delta[labels, np.arange(p)] -= 1.0
    delta /= p

    grads_w = [None] * depth
    grads_b = [None] * depth
    penalty = 0.0
    for l in range(depth - 1, -1, -1):
        gw = _kernels.matmul(acts[l], np.ascontiguousarray(delta.T))
        gw += l1[l] * np.sign(weights[l]) + 2.0 * l2[l] * weights[l]
        grads_w[l] = gw
        grads_b[l] = delta.sum(axis=1)
        penalty += l1[l] * np.abs(weights[l]).sum() + l2[l] * (weights[l] * weights[l]).sum()
        if l > 0:
            delta = _kernels.matmul(weights[l], delta) * gates[l - 1]
            if drop_masks[l - 1] is not None:
                delta = delta * drop_masks[l - 1]
    return float(ce + penalty), grads_w, grads_b


def _check_training_inputs(net, data):
    if data.feature_dim != net.input_dim:
        raise ShapeError(
            f"dataset dim {data.feature_dim} != network input dim {net.input_dim}"
        )
    if data.sample_count < 1:
        raise ValueError("dataset is empty")
    if data.labels.max() >= net.output_classes:
        raise ValueError(
            f"label {int(data.labels.max())} out of range for "
            f"{net.output_classes} output classes"
        )


def _sgd(net, data, cfg, masks):
    _check_training_inputs(net, data)
    if cfg.epochs == 0:
        if masks is None:
            return net
        weights = [np.where(m, w, 0.0) for w, m in zip(net.weights, masks)]
        return ReluNetwork(net.layer_dims, tuple(weights), net.biases)

    depth = net.depth
    l1 = _per_layer(cfg.l1, depth, "l1")
    l2 = _per_layer(cfg.l2, depth, "l2")
    keeps = _per_layer(cfg.dropout_keep, depth, "dropout_keep")
    if masks is not None:
        masks = [np.asarray(m, dtype=bool) for m in masks]
        for l, (m, w) in enumerate(zip(masks, net.weights), start=1):
            if m.shape != w.shape:
                raise ShapeError(f"mask for layer {l} must have shape {w.shape}")

    shuffle_rng = np.random.default_rng([cfg.seed, 0])
    drop_rng = np.random.default_rng([cfg.seed, 1])

    feats = data.features.data
    labels = data.labels
    p = data.sample_count
    lr = cfg.learning_rate

    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    if masks is not None:
        weights = [np.where(m, w, 0.0) for w, m in zip(weights, masks)]

    for _ in range(cfg.epochs):
        perm = shuffle_rng.permutation(p)
        for start in range(0, p, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            xb = np.ascontiguousarray(feats[:, idx])
            yb = labels[idx]
            _, gw, gb = _loss_and_grads(weights, biases, xb, yb, l1, l2, keeps, drop_rng)
            for l in range(depth):
                weights[l] = weights[l] - lr * gw[l]
                if masks is not None:
                    weights[l] = np.where(masks[l], weights[l], 0.0)
                biases[l] = biases[l] - lr * gb[l]

    return ReluNetwork(net.layer_dims, tuple(weights), tuple(biases))


def train(net: ReluNetwork, data: Dataset, cfg: TrainConfig) -> ReluNetwork:
    """Mini-batch SGD on softmax cross-entropy with L1/L2/dropout."""
    return _sgd(net, data, cfg, masks=None)


def masked_train(net: ReluNetwork, data: Dataset, cfg: TrainConfig, masks) -> ReluNetwork:
    """Like :func:`train`, but weights outside the masks stay exactly zero."""
    return _sgd(net, data, cfg, masks=list(masks))
