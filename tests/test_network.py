"""Forward pass, prediction, training, masked training."""

import numpy as np
import pytest

import ensyth as E
from ensyth import _kernels
from ensyth.errors import ShapeError
from ensyth.network import (
    ReluNetwork,
    TrainConfig,
    _loss_and_grads,
    batch_loss,
    forward,
    masked_train,
    predict,
    train,
)
from ensyth.tensor import DenseMatrix

from conftest import random_network


def _zero_net(dims):
    weights = [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(b) for b in dims[1:]]
    return ReluNetwork(tuple(dims), tuple(weights), tuple(biases))


class TestForward:
    def test_zero_network_gives_zero_activations(self):
        net = _zero_net([3, 4, 2])
        acts = forward(net, DenseMatrix(np.ones((3, 5))))
        for layer in acts.layers[1:]:
            assert (layer == 0.0).all()

    def test_single_layer_is_linear(self):
        net = ReluNetwork((2, 2), (np.eye(2),), (np.zeros(2),))
        acts = forward(net, DenseMatrix(np.array([[-1.0], [2.0]])))
        assert acts.final.tolist() == [[-1.0], [2.0]]

    def test_hidden_activations_nonnegative(self):
        rng = np.random.default_rng(11)
        net = random_network(rng, [4, 7, 5, 3])
        acts = forward(net, DenseMatrix(rng.normal(size=(4, 9))))
        for hidden in acts.layers[1:-1]:
            assert (hidden >= 0.0).all()

    def test_matches_per_sample_loop(self):
        rng = np.random.default_rng(12)
        net = random_network(rng, [4, 6, 3])
        x = rng.normal(size=(4, 5))
        batched = forward(net, DenseMatrix(x)).final
        for p in range(5):
            h = x[:, p:p + 1]
            for l, (w, b) in enumerate(zip(net.weights, net.biases)):
                z = w.T @ h + b[:, None]
                h = np.maximum(z, 0.0) if l < net.depth - 1 else z
            assert np.abs(batched[:, p:p + 1] - h).max() < 1e-12

    def test_wrong_input_dim(self):
        net = _zero_net([3, 2])
        with pytest.raises(ShapeError):
            forward(net, DenseMatrix(np.ones((4, 1))))

    def test_augmented_form_equivalent(self):
        """Appending a ones row to the input and the bias row to the weights
        must reproduce the explicit-bias forward pass."""
        rng = np.random.default_rng(13)
        net = random_network(rng, [5, 4, 3])
        x = rng.normal(size=(5, 7))
        explicit = forward(net, DenseMatrix(x)).final
        h = x
        for l, (w, b) in enumerate(zip(net.weights, net.biases)):
            h_aug = np.concatenate([h, np.ones((1, h.shape[1]))])
            w_aug = np.concatenate([w, b[None, :]]).T.copy()
            z = _kernels.matmul(w_aug, h_aug)
            h = _kernels.relu(z) if l < net.depth - 1 else z
        assert np.abs(explicit - h).max() < 1e-12


class TestPredict:
    def test_argmax_of_logit_column(self):
        net = ReluNetwork((1, 3), (np.array([[0.1, 3.0, -2.0]]),), (np.zeros(3),))
        assert predict(net, DenseMatrix(np.array([[1.0]]))).tolist() == [1]

    def test_tie_goes_to_lowest_class(self):
        net = ReluNetwork((1, 3), (np.array([[1.0, 1.0, 0.0]]),), (np.zeros(3),))
        assert predict(net, DenseMatrix(np.array([[1.0]]))).tolist() == [0]

    def test_composes_forward_and_argmax(self):
        rng = np.random.default_rng(14)
        net = random_network(rng, [3, 5, 4])
        x = DenseMatrix(rng.normal(size=(3, 9)))
        logits = forward(net, x).final
        assert predict(net, x).tolist() == list(np.argmax(logits, axis=0))


class TestTrain:
    def test_zero_epochs_is_identity(self, trained_fixture):
        net = trained_fixture["init"]
        cfg = TrainConfig(epochs=0, batch_size=8, learning_rate=0.1)
        assert train(net, trained_fixture["train"], cfg) == net

    def test_separable_blobs_reach_high_train_accuracy(self):
        ds = E.synth_blobs(seed=21, samples_per_class=100, classes=2, dim=6,
                           spread=0.3)
        net = ReluNetwork.initialize([6, 5, 2], seed=0)
        cfg = TrainConfig(epochs=200, batch_size=20, learning_rate=0.05, seed=1)
        trained = train(net, ds, cfg)
        acc = (predict(trained, ds.features) == ds.labels).mean()
        assert acc >= 0.99

    def test_deterministic_bitwise(self, trained_fixture):
        net0 = trained_fixture["init"]
        cfg = trained_fixture["cfg"]
        a = train(net0, trained_fixture["train"], cfg)
        b = train(net0, trained_fixture["train"], cfg)
        assert a == b

    def test_label_out_of_range_rejected(self):
        ds = E.synth_blobs(seed=3, samples_per_class=5, classes=3, dim=2, spread=1.0)
        net = ReluNetwork.initialize([2, 2], seed=0)
        cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.1)
        with pytest.raises(ValueError, match="out of range"):
            train(net, ds, cfg)

    def test_full_batch_loss_non_increasing(self):
        ds = E.synth_blobs(seed=31, samples_per_class=40, classes=3, dim=5,
                           spread=1.0)
        for seed in (0, 1, 2):
            net = ReluNetwork.initialize([5, 6, 3], seed=seed)
            cfg = TrainConfig(epochs=1, batch_size=ds.sample_count,
                              learning_rate=1e-3, seed=seed)
            losses = [batch_loss(net, ds.features, ds.labels, cfg)]
            for _ in range(15):
                net = train(net, ds, cfg)
                losses.append(batch_loss(net, ds.features, ds.labels, cfg))
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(40)
        dims = (3, 3, 2)
        l1, l2 = (0.01, 0.02), (0.005, 0.01)
        x = rng.normal(size=(3, 12))
        labels = rng.integers(0, 2, size=12)
        cfg = TrainConfig(epochs=1, batch_size=12, learning_rate=0.1, l1=l1, l2=l2)

        signs = rng.choice([-1.0, 1.0], size=1000)
        mags = rng.uniform(0.1, 1.0, size=1000)
        params = signs * mags
        cursor = 0

        def take(shape):
            nonlocal cursor
            n = int(np.prod(shape))
            out = params[cursor:cursor + n].reshape(shape)
            cursor += n
            return out

        weights = [take((3, 3)), take((3, 2))]
        biases = [take(3), take(2)]
        net = ReluNetwork(dims, tuple(weights), tuple(biases))
        _, gw, gb = _loss_and_grads([w.copy() for w in net.weights],
                                    [b.copy() for b in net.biases],
                                    x, labels, l1, l2, (1.0, 1.0), None)

        h = 1e-6
        for l in range(2):
            for idx in np.ndindex(net.weights[l].shape):
                w_plus = [w.copy() for w in net.weights]
                w_minus = [w.copy() for w in net.weights]
                w_plus[l][idx] += h
                w_minus[l][idx] -= h
                lp = batch_loss(ReluNetwork(dims, tuple(w_plus), net.biases),
                                x, labels, cfg)
                lm = batch_loss(ReluNetwork(dims, tuple(w_minus), net.biases),
                                x, labels, cfg)
                fd = (lp - lm) / (2 * h)
                got = gw[l][idx]
                assert abs(got - fd) / max(abs(got), abs(fd), 1e-8) < 1e-5
            for j in range(len(net.biases[l])):
                b_plus = [b.copy() for b in net.biases]
                b_minus = [b.copy() for b in net.biases]
                b_plus[l][j] += h
                b_minus[l][j] -= h
                lp = batch_loss(ReluNetwork(dims, net.weights, tuple(b_plus)),
                                x, labels, cfg)
                lm = batch_loss(ReluNetwork(dims, net.weights, tuple(b_minus)),
                                x, labels, cfg)
                fd = (lp - lm) / (2 * h)
                got = gb[l][j]
                assert abs(got - fd) / max(abs(got), abs(fd), 1e-8) < 1e-5


class TestMaskedTrain:
    def test_all_ones_mask_matches_plain_train(self, trained_fixture):
        net0 = trained_fixture["init"]
        cfg = TrainConfig(epochs=5, batch_size=16, learning_rate=0.05, seed=11)
        masks = [np.ones_like(w, dtype=bool) for w in net0.weights]
        assert masked_train(net0, trained_fixture["train"], cfg, masks) == \
            train(net0, trained_fixture["train"], cfg)

    def test_all_zero_mask_freezes_weights(self, trained_fixture):
        net0 = trained_fixture["init"]
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.05, seed=11)
        masks = [np.zeros_like(w, dtype=bool) for w in net0.weights]
        out = masked_train(net0, trained_fixture["train"], cfg, masks)
        for w in out.weights:
            assert (w == 0.0).all()
        assert any((b != 0.0).any() for b in out.biases)

    def test_support_stays_inside_mask(self, trained_fixture):
        rng = np.random.default_rng(50)
        net0 = trained_fixture["init"]
        cfg = TrainConfig(epochs=4, batch_size=16, learning_rate=0.05, seed=12)
        masks = [rng.random(w.shape) < 0.5 for w in net0.weights]
        out = masked_train(net0, trained_fixture["train"], cfg, masks)
        for w, m in zip(out.weights, masks):
            assert not ((w != 0.0) & ~m).any()
