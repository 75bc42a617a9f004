"""MLP forward/backward/optimizer: shape contracts, oracles, checkpoints."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mprl.errors import InvalidDimension, InvalidState
from mprl.labels import ground_truth_label
from mprl.losses import combined_loss
from mprl.net import (
    CHECKPOINT_MAGIC,
    ModelParams,
    backward,
    embed,
    forward,
    init_optimizer,
    init_params,
    ParamGrads,
    load_params,
    save_params,
    sgd_step,
)
from mprl.trainer import DropoutMasks


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    return (
        all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
    )


class TestInitParams:
    def test_same_seed_bitwise_identical(self):
        a = init_params((4, 8, 3), seed=42)
        b = init_params((4, 8, 3), seed=42)
        assert params_equal(a, b)

    def test_different_seed_differs(self):
        a = init_params((4, 8, 3), seed=1)
        b = init_params((4, 8, 3), seed=2)
        assert not params_equal(a, b)

    def test_zero_scale_leaves_bias_path_only(self):
        params = init_params((3, 5, 2), seed=0, scale=0.0)
        assert all(np.all(w == 0.0) for w in params.weights)
        logits, _, _ = forward(params, np.array([[1.0, -2.0, 3.0]]))
        np.testing.assert_array_equal(logits, np.zeros((1, 2)))

    def test_shape_contract(self):
        params = init_params((2, 8, 4, 3), seed=7)
        logits, _, emb = forward(params, np.array([[0.5, -0.5]]))
        assert logits.shape == (1, 3)
        assert emb.shape == (1, 4)
        assert params.layer_sizes == (2, 8, 4, 3)
        assert params.embedding_dim == 4

    def test_bad_sizes_rejected(self):
        with pytest.raises(InvalidDimension):
            init_params((4,), seed=0)
        with pytest.raises(InvalidDimension):
            init_params((4, 0, 2), seed=0)


class TestForward:
    def test_zero_net_relu_gives_zero_logits(self):
        params = init_params((3, 4, 2), seed=0, scale=0.0)
        logits, _, _ = forward(params, np.zeros((1, 3)))
        np.testing.assert_array_equal(logits, np.zeros((1, 2)))

    def test_no_dropout_means_train_equals_eval(self):
        # an all-kept mask at rate 0 is the identity: train mode equals eval
        params = init_params((3, 6, 2), seed=5)
        x = np.array([[0.1, 0.2, -0.3], [0.4, -0.5, 0.6]])
        train_logits, cache, _ = forward(params, x, np.ones((2, 6)))
        eval_logits, eval_cache, _ = forward(params, x)
        np.testing.assert_array_equal(train_logits, eval_logits)
        assert eval_cache.dropout_mask is None and cache.dropout_mask is not None

    def test_single_linear_layer_matches_matmul_oracle(self):
        params = init_params((2, 3), seed=9, scale=1.0)
        x = np.array([[1.0, 2.0]])
        logits, _, emb = forward(params, x)
        expected = x @ params.weights[0] + params.biases[0]
        np.testing.assert_allclose(logits, expected, atol=1e-15)
        np.testing.assert_array_equal(emb, x)  # no hidden layer: embedding is the input

    def test_dropout_deterministic_given_seed(self):
        # the trainer draws a batch's mask from its seed; the network applies it
        params = init_params((3, 8, 2), seed=1)
        x = np.random.default_rng(4).normal(size=(5, 3))

        def run(seed):
            mask = DropoutMasks().keep(seed, 1, 0, (5, 8), 0.5)
            return forward(params, x, mask)[0]

        a, b, c = run(77), run(77), run(78)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dropout_inverted_scaling_preserves_expectation(self):
        params = init_params((2, 400, 1), seed=2)
        x = np.array([[0.7, -0.4]])
        eval_logits, _, _ = forward(params, x)
        acc = np.zeros((1, 1))
        n = 300
        for s in range(n):
            mask = DropoutMasks().keep(s, 1, 0, (1, 400), 0.4)
            assert set(np.unique(mask)) <= {0.0, 1.0 / 0.6}
            logits, _, _ = forward(params, x, mask)
            acc += logits
        np.testing.assert_allclose(acc / n, eval_logits, rtol=0.05, atol=0.02)

    def test_dropout_mask_applies_to_the_embedding(self):
        params = init_params((3, 4, 2), seed=6)
        x = np.random.default_rng(2).normal(size=(3, 3))
        mask = np.array([[2.0, 0.0, 2.0, 2.0], [0.0, 0.0, 2.0, 0.0], [2.0, 2.0, 2.0, 2.0]])
        logits, cache, emb = forward(params, x, mask)
        np.testing.assert_array_equal(cache.dropped_embedding, emb * mask)
        np.testing.assert_array_equal(logits, (emb * mask) @ params.weights[-1]
                                      + params.biases[-1])
        # one sample is a batch of one row, with a one-row mask
        one, _, _ = forward(params, x[1:2], mask[1:2])
        assert one.shape == (1, 2)
        for bad in (mask[:2], mask[1]):
            with pytest.raises(InvalidDimension):
                forward(params, x, bad)

    def test_dim_mismatch(self):
        params = init_params((3, 4, 2), seed=0)
        # a batch of the wrong width, and a single 1-d sample
        for x in (np.zeros((2, 5)), np.zeros(3), np.zeros((1, 1, 3))):
            with pytest.raises(InvalidDimension):
                forward(params, x)

    def test_embedding_dim_constant_over_inputs(self):
        params = init_params((3, 7, 4, 2), seed=0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            _, _, emb = forward(params, rng.normal(size=(n, 3)))
            assert emb.shape == (n, 4)


class TestEmbed:
    @given(st.integers(0, 3), st.integers(1, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_forward_embedding_bit_for_bit(self, n_hidden, n, seed):
        sizes = (5, *(7 - i for i in range(n_hidden)), 3)
        params = init_params(sizes, seed=seed)
        x = np.random.default_rng(seed).normal(size=(n, 5))
        _, _, want = forward(params, x)
        assert np.array_equal(embed(params, x), want)

    def test_rejects_features_of_another_shape(self):
        params = init_params((4, 6, 3), seed=0)
        for x in (np.zeros((2, 5)), np.zeros(4)):
            with pytest.raises(InvalidDimension):
                embed(params, x)


class TestBackward:
    def test_zero_grad_logits_gives_zero_param_grads(self):
        params = init_params((3, 5, 2), seed=0)
        x = np.random.default_rng(2).normal(size=(4, 3))
        logits, cache, _ = forward(params, x)
        grads = backward(params, cache, np.zeros_like(logits))
        assert all(np.all(g == 0) for g in grads.weights)
        assert all(np.all(g == 0) for g in grads.biases)

    def test_linear_regression_closed_form(self):
        # single linear layer with squared-error head: dW = x^T (xW + b - y)
        params = init_params((3, 2), seed=8)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 2))
        logits, cache, _ = forward(params, x)
        residual = logits - y
        grads = backward(params, cache, residual)
        np.testing.assert_allclose(grads.weights[0], x.T @ residual, atol=1e-12)
        np.testing.assert_allclose(grads.biases[0], residual.sum(axis=0), atol=1e-12)

    def test_finite_difference_agreement(self):
        # squared-error head through a 2-hidden-layer net, < 500 params
        params = init_params((4, 7, 5, 3), seed=11)
        assert params.n_params < 500
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 3))

        def loss_of(p: ModelParams) -> float:
            out, _, _ = forward(p, x)
            return 0.5 * float(np.sum((out - target) ** 2))

        logits, cache, _ = forward(params, x)
        grads = backward(params, cache, logits - target)

        step = 1e-6
        for layer in range(len(params.weights)):
            for arrays, grad in ((params.weights, grads.weights),
                                 (params.biases, grads.biases)):
                a = arrays[layer]
                fd = np.empty_like(a)
                it = np.nditer(a, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = a[idx]
                    a[idx] = orig + step
                    fp = loss_of(params)
                    a[idx] = orig - step
                    fm = loss_of(params)
                    a[idx] = orig
                    fd[idx] = (fp - fm) / (2 * step)
                scale = max(np.abs(grad[layer]).max(), np.abs(fd).max(), 1e-12)
                assert np.abs(grad[layer] - fd).max() / scale < 1e-5

    def test_gradcheck_through_dropout_mask(self):
        # fixed mask: backward must agree with differences of the masked net
        params = init_params((3, 6, 2), seed=21)
        x = np.random.default_rng(3).normal(size=(2, 3))
        target = np.random.default_rng(4).normal(size=(2, 2))
        mask = DropoutMasks().keep(99, 1, 0, (2, 6), 0.5)
        assert 0 < np.count_nonzero(mask) < mask.size

        def loss_of(p):
            out, _, _ = forward(p, x, mask)
            return 0.5 * float(np.sum((out - target) ** 2))

        logits, cache, _ = forward(params, x, mask)
        grads = backward(params, cache, logits - target)
        w = params.weights[0]
        step = 1e-6
        fd = np.empty_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + step
                fp = loss_of(params)
                w[i, j] = orig - step
                fm = loss_of(params)
                w[i, j] = orig
                fd[i, j] = (fp - fm) / (2 * step)
        scale = max(np.abs(grads.weights[0]).max(), np.abs(fd).max(), 1e-12)
        assert np.abs(grads.weights[0] - fd).max() / scale < 1e-5

    def test_grad_logits_must_match_the_logits_shape(self):
        params = init_params((3, 4, 2), seed=0)
        logits, cache, _ = forward(params, np.zeros((2, 3)))
        for bad in (np.ones(2), np.ones((1, 2)), np.ones((2, 3))):
            with pytest.raises(InvalidDimension):
                backward(params, cache, bad)

    def test_stale_cache_rejected(self):
        params = init_params((3, 4, 2), seed=0)
        x = np.zeros((2, 3))
        logits, cache, _ = forward(params, x)
        opt = init_optimizer(params, 0.1, 0.0)
        grads = backward(params, cache, np.ones_like(logits))
        updated = sgd_step(params, grads, opt)
        with pytest.raises(InvalidState):
            backward(updated, cache, np.ones_like(logits))


class TestEndToEndLossGradients:
    @pytest.mark.parametrize("scheme", ["ground_truth", "lsro", "mprl", "one_hot", "all_in_one"])
    def test_every_label_scheme_backprops_correctly(self, scheme):
        from mprl.labels import (
            all_in_one_label,
            lsro_label,
            mprl_alpha,
            mprl_label,
            one_hot_pseudo_label,
            rank_weight_normalizer,
            softmax,
        )

        k = 3
        width = k + 1 if scheme == "all_in_one" else k
        params = init_params((4, 6, width), seed=31)
        assert params.n_params < 500
        rng = np.random.default_rng(37)
        x = rng.normal(size=(2, 4))

        probe = softmax(rng.normal(size=width))
        labels = {
            "ground_truth": (ground_truth_label(2, width), False),
            "lsro": (lsro_label(k), True),
            "mprl": (mprl_label(mprl_alpha(probe[:k] / probe[:k].sum() if width != k
                                           else probe), k), True),
            "one_hot": (one_hot_pseudo_label(probe), True),
            "all_in_one": (all_in_one_label(k), True),
        }
        label, is_gen = labels[scheme]
        # matrix form: rank-weighted rows carry the 2/(1+K) normalizer
        row = rank_weight_normalizer(k) * label if scheme == "mprl" else label
        # a real row by its 0-based class, generated rows by their weight rows
        classes = np.full(x.shape[0], -1 if is_gen else int(np.argmax(row)))
        gen_weights = np.tile(row, (x.shape[0], 1)) if is_gen else None

        def loss_of(p):
            out, _, _ = forward(p, x)
            return combined_loss(out, classes, gen_weights, 0.7).value

        logits, cache, _ = forward(params, x)
        grad_rows = combined_loss(logits, classes, gen_weights, 0.7).grad_logits
        grads = backward(params, cache, grad_rows)

        step = 1e-6
        for layer in range(len(params.weights)):
            w = params.weights[layer]
            fd = np.empty_like(w)
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    orig = w[i, j]
                    w[i, j] = orig + step
                    fp = loss_of(params)
                    w[i, j] = orig - step
                    fm = loss_of(params)
                    w[i, j] = orig
                    fd[i, j] = (fp - fm) / (2 * step)
            scale = max(np.abs(grads.weights[layer]).max(), np.abs(fd).max(), 1e-12)
            assert np.abs(grads.weights[layer] - fd).max() / scale < 1e-5


class TestSgdStep:
    def test_zero_momentum_is_plain_sgd(self):
        params = init_params((2, 3), seed=0, scale=1.0)
        opt = init_optimizer(params, learning_rate=0.5, momentum=0.0)
        g = [np.ones_like(w) for w in params.weights]
        gb = [np.ones_like(b) for b in params.biases]
        from mprl.net import ParamGrads

        updated = sgd_step(params, ParamGrads(g, gb), opt)
        np.testing.assert_allclose(updated.weights[0], params.weights[0] - 0.5, atol=1e-15)

    def test_zero_gradient_keeps_params(self):
        params = init_params((2, 3), seed=0)
        opt = init_optimizer(params, 0.1, 0.9)
        from mprl.net import ParamGrads

        zero = ParamGrads([np.zeros_like(w) for w in params.weights],
                          [np.zeros_like(b) for b in params.biases])
        updated = params
        for _ in range(3):
            updated = sgd_step(updated, zero, opt)
        assert params_equal(updated, params)

    def test_two_steps_hand_unrolled(self):
        # constant gradient, momentum 0.9, lr 0.1: displacements -0.1g then
        # cumulative -0.29g
        params = init_params((2, 2), seed=0, scale=0.0)
        opt = init_optimizer(params, learning_rate=0.1, momentum=0.9)
        from mprl.net import ParamGrads

        g = np.full((2, 2), 2.0)
        grads = ParamGrads([g], [np.zeros(2)])
        w0 = params.weights[0].copy()
        step1 = sgd_step(params, grads, opt)
        np.testing.assert_allclose(step1.weights[0], w0 - 0.1 * g, atol=1e-15)
        step2 = sgd_step(step1, grads, opt)
        np.testing.assert_allclose(step2.weights[0], w0 - 0.29 * g, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        params = init_params((2, 3), seed=0)
        opt = init_optimizer(params, 0.1, 0.9)
        from mprl.net import ParamGrads

        bad = ParamGrads([np.zeros((3, 2))], [np.zeros(3)])
        with pytest.raises(InvalidDimension):
            sgd_step(params, bad, opt)


class TestInPlaceArithmetic:
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([(5, 7), (5, 6, 4), (16, 32, 16, 151)]))
    @settings(max_examples=60, deadline=None)
    def test_forward_equals_matmul_plus_bias_bit_for_bit(self, n, seed, sizes):
        rng = np.random.default_rng(seed)
        params = init_params(sizes, seed=seed)
        for b in params.biases:
            b[:] = rng.normal(0.0, 1.0, size=b.size)
        x = rng.normal(0.0, 2.0, size=(n, sizes[0]))
        logits, cache, _ = forward(params, x)
        a = x
        for i, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
            z = a @ w + b
            assert np.array_equal(cache.pre_acts[i], z)
            a = np.maximum(z, 0.0)
        assert np.array_equal(logits, a @ params.weights[-1] + params.biases[-1])

    @given(st.integers(0, 2**32 - 1), st.floats(1e-4, 1.0), st.sampled_from([0.0, 0.5, 0.9]),
           st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_sgd_step_equals_the_fresh_array_update_bit_for_bit(self, seed, lr, momentum, steps):
        rng = np.random.default_rng(seed)
        params = init_params((6, 5, 4), seed=seed)
        opt = init_optimizer(params, lr, momentum)
        velocity = [np.zeros_like(w) for w in params.weights + params.biases]
        for _ in range(steps):
            g = [rng.normal(0.0, 3.0, size=w.shape) for w in params.weights + params.biases]
            want = []
            for i, (w, gi) in enumerate(zip(params.weights + params.biases, g)):
                velocity[i] = momentum * velocity[i] - lr * gi
                want.append(w + velocity[i])
            params = sgd_step(params, ParamGrads(g[:2], g[2:]), opt)
            for got, expected in zip(params.weights + params.biases, want):
                assert np.array_equal(got, expected)
            for got, expected in zip(opt.velocity_w + opt.velocity_b, velocity):
                assert np.array_equal(got, expected)

    def test_sgd_step_leaves_the_given_params_untouched(self):
        params = init_params((6, 5, 4), seed=3)
        before = [a.copy() for a in params.weights + params.biases]
        opt = init_optimizer(params, 0.1, 0.9)
        grads = ParamGrads([np.ones_like(w) for w in params.weights],
                           [np.ones_like(b) for b in params.biases])
        updated = sgd_step(params, grads, opt)
        updated = sgd_step(updated, grads, opt)
        for old, kept in zip(before, params.weights + params.biases):
            assert np.array_equal(old, kept)
        fresh = updated.weights + updated.biases
        assert not any(np.shares_memory(a, b) for a in fresh
                       for b in params.weights + params.biases + opt.velocity_w + opt.velocity_b)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params((5, 9, 4, 3), seed=123)
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        assert path.read_bytes()[len(CHECKPOINT_MAGIC)] == 0  # the ReLU activation byte
        loaded = load_params(path)
        assert loaded.layer_sizes == params.layer_sizes
        for a, b in zip(params.weights, loaded.weights):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(params.biases, loaded.biases):
            assert a.tobytes() == b.tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        params = init_params((3, 4, 2), seed=5)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_params(params, p1)
        save_params(load_params(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(InvalidState):
            load_params(path)


def _checkpoint_header(n_sizes: int, activation: int = 0) -> bytes:
    return CHECKPOINT_MAGIC + struct.pack("<BI", activation, n_sizes)


# a (3, 4, 2) relu checkpoint is 8 + 5 + 12 header bytes, then 26 float64s
MALFORMED_CHECKPOINTS = {
    "cut_in_header": lambda good: good[:len(CHECKPOINT_MAGIC) + 3],
    "cut_in_layer_sizes": lambda good: good[:23],
    "cut_in_weights": lambda good: good[:25 + 20],
    "billion_layers": lambda good: _checkpoint_header(10**9) + good[13:],
    "one_layer_size": lambda good: _checkpoint_header(1) + struct.pack("<I", 3),
    "zero_layer_size": lambda good: _checkpoint_header(2) + struct.pack("<2I", 0, 2)
    + bytes(16),
    # a whole checkpoint whose activation byte is 1, as a tanh net once wrote
    "tanh_activation": lambda good: _checkpoint_header(3, activation=1) + good[13:],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_names_its_path(tmp_path, case):
    good = tmp_path / "good.ckpt"
    save_params(init_params((3, 4, 2), seed=0), good)
    assert len(good.read_bytes()) == 25 + 26 * 8
    bad = tmp_path / f"{case}.ckpt"
    bad.write_bytes(MALFORMED_CHECKPOINTS[case](good.read_bytes()))
    with pytest.raises(InvalidState, match=f"^{re.escape(str(bad))}: "):
        load_params(bad)
