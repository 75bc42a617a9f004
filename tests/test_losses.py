"""Loss values and gradients: hand-evaluated cases, then properties."""

import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mprl.errors import InvalidClass, InvalidDimension
from mprl.gradcheck import block_coordinates, finite_difference_gradient
from mprl.labels import (
    SCHEMES,
    ground_truth_label,
    lsro_label,
    mprl_alpha,
    mprl_label,
    mprl_rows,
    rank_weight_normalizer,
    row_ranks,
    softmax,
    virtual_labels,
)
from mprl.losses import (
    LossOutput,
    combined_loss,
    lsro_loss,
    mprl_generated_loss,
    real_ce_loss,
    weighted_ce,
    weighted_ce_values_by_label,
)
from mprl.retrieval import small_ufunc_buffer

LN2 = math.log(2.0)


def fd_gradient(fn, x, step=1e-6):
    grad = np.empty_like(x)
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        grad[j] = (fn(xp) - fn(xm)) / (2 * step)
    return grad


class TestRealCeLoss:
    def test_symmetric_two_class(self):
        out = real_ce_loss([0.0, 0.0], 1)
        assert abs(out.value - LN2) < 1e-15
        np.testing.assert_allclose(out.grad_logits, [0.5, -0.5], atol=1e-15)

    def test_ln3_case(self):
        # p = [3/4, 1/4]; loss on the dominant class
        out = real_ce_loss([math.log(3.0), 0.0], 0)
        assert abs(out.value - math.log(4.0 / 3.0)) < 1e-12
        np.testing.assert_allclose(out.grad_logits, [-0.25, 0.25], atol=1e-12)

    def test_large_margin_drives_loss_to_zero(self):
        out = real_ce_loss([50.0, 0.0, 0.0], 0)
        assert 0.0 <= out.value < 1e-20

    def test_class_out_of_range(self):
        with pytest.raises(InvalidClass):
            real_ce_loss([0.0, 0.0], 2)
        with pytest.raises(InvalidClass):
            real_ce_loss([0.0, 0.0], -1)


class TestLsroLoss:
    def test_uniform_target_matches_uniform_probs(self):
        out = lsro_loss([0.0, 0.0])
        assert abs(out.value - LN2) < 1e-15
        np.testing.assert_array_equal(out.grad_logits, [0.0, 0.0])

    def test_ln2_case(self):
        out = lsro_loss([0.0, LN2])
        assert abs(out.value - (-LN2 / 2 + math.log(3.0))) < 1e-12
        np.testing.assert_allclose(out.grad_logits, [-1 / 6, 1 / 6], atol=1e-12)

    def test_constant_logits_zero_gradient(self):
        for c in [-7.5, 0.0, 3.25, 100.0]:
            out = lsro_loss([c] * 5)
            np.testing.assert_array_equal(out.grad_logits, np.zeros(5))

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(1)
        for k in [2, 5, 751]:
            out = lsro_loss(rng.normal(0, 3, size=k))
            assert abs(out.grad_logits.sum()) < 1e-12


class TestMprlGeneratedLoss:
    def test_tie_case_equals_lsro_value(self):
        alpha = mprl_alpha([0.5, 0.5])
        out = mprl_generated_loss([0.0, 0.0], alpha)
        assert abs(out.value - LN2) < 1e-12

    def test_analytic_gradient_vanishes_at_matched_probs(self):
        # p = [1/3, 2/3] matches the normalized rank target exactly
        alpha = mprl_alpha(softmax([0.0, LN2]))
        np.testing.assert_array_equal(alpha, [1.0, 2.0])
        out = mprl_generated_loss([0.0, LN2], alpha)
        np.testing.assert_allclose(out.grad_logits, [0.0, 0.0], atol=1e-12)

    def test_diagonal_gradient_differs_from_derivative(self):
        # same point as above: the diagonal formula gives [-2/9, -2/9]
        alpha = mprl_alpha(softmax([0.0, LN2]))
        out = mprl_generated_loss([0.0, LN2], alpha, diagonal=True)
        np.testing.assert_allclose(out.grad_logits, [-2 / 9, -2 / 9], atol=1e-12)

    def test_diagonal_strictly_negative_analytic_sums_to_zero(self):
        rng = np.random.default_rng(4)
        for k in [2, 5, 10, 751]:
            x = rng.normal(0, 3, size=k)
            alpha = mprl_alpha(softmax(x))
            diag = mprl_generated_loss(x, alpha, diagonal=True)
            assert np.all(diag.grad_logits < 0.0)
            analytic = mprl_generated_loss(x, alpha)
            assert abs(analytic.grad_logits.sum()) < 1e-12

    def test_degenerates_to_lsro_on_uniform_probs(self):
        rng = np.random.default_rng(9)
        for k in [2, 10, 100]:
            for _ in range(30):
                x = np.full(k, rng.uniform(-50.0, 50.0))
                alpha = mprl_alpha(softmax(x))
                assert abs(mprl_generated_loss(x, alpha).value - lsro_loss(x).value) < 1e-12

    def test_gen_weight_scales_linearly_and_doubling_is_exact(self):
        # the trade-off factor lives in the batch reduction alone
        x = np.array([[0.4, -1.2, 2.0]])
        alpha = mprl_alpha(softmax(x[0]))
        weights = mprl_rows(alpha)[None, :]
        lo = combined_loss(x, np.array([-1]), weights, 0.35)
        hi = combined_loss(x, np.array([-1]), weights, 0.70)
        assert hi.value == 2.0 * lo.value
        np.testing.assert_array_equal(hi.grad_logits, 2.0 * lo.grad_logits)
        assert lo.gen_loss == hi.gen_loss == mprl_generated_loss(x[0], alpha).value

    def test_dimension_mismatch(self):
        alpha = mprl_alpha([0.5, 0.5])
        with pytest.raises(InvalidDimension):
            mprl_generated_loss([0.0, 0.0, 0.0], alpha)
        with pytest.raises(InvalidDimension):
            mprl_generated_loss([0.0, 0.0], alpha[None, :])


class TestShiftInvariance:
    def test_all_losses_shift_invariant(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            x = rng.normal(0, 3, size=6)
            shift = rng.uniform(-50, 50)
            alpha = mprl_alpha(softmax(x))
            for fn in (
                lambda z: real_ce_loss(z, 2),
                lsro_loss,
                lambda z: mprl_generated_loss(z, alpha),
            ):
                a, b = fn(x), fn(x + shift)
                assert abs(a.value - b.value) < 1e-10
                np.testing.assert_allclose(a.grad_logits, b.grad_logits, atol=1e-12)


class TestFiniteDifferences:
    def test_analytic_gradients_match_central_differences(self):
        rng = np.random.default_rng(100)
        for k in [2, 5, 10]:
            for _ in range(30):
                x = rng.normal(0, 3, size=k)
                c = int(rng.integers(k))
                alpha = mprl_alpha(softmax(x))
                cases = [
                    (real_ce_loss(x, c).grad_logits, lambda z: real_ce_loss(z, c).value),
                    (lsro_loss(x).grad_logits, lambda z: lsro_loss(z).value),
                    (
                        mprl_generated_loss(x, alpha).grad_logits,
                        lambda z: mprl_generated_loss(z, alpha).value,
                    ),
                ]
                for analytic, fn in cases:
                    fd = fd_gradient(fn, x)
                    scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-12)
                    assert np.abs(analytic - fd).max() / scale < 1e-6


    @pytest.mark.parametrize("k", [1, 2, 5, 70, 130])
    def test_batched_central_differences_equal_the_scalar_loop(self, k):
        rng = np.random.default_rng(k)
        x = rng.normal(0, 3, size=k)
        c = int(rng.integers(k))
        alpha = mprl_alpha(softmax(x))
        classes, weights = np.array([c, -1, -1]), np.stack([np.full(k, 1.0 / k), mprl_rows(alpha)])
        scalar_fns = [
            lambda z: real_ce_loss(z, c).value,
            lambda z: lsro_loss(z).value,
            lambda z: mprl_generated_loss(z, alpha).value,
        ]
        # one sweep gives all three gradients, one row per label
        swept = finite_difference_gradient(
            lambda points: weighted_ce_values_by_label(points, classes, weights), x)
        assert swept.shape == (3, k)
        for scalar_fn, batched in zip(scalar_fns, swept):
            scalar = fd_gradient(scalar_fn, x)
            assert np.max(np.abs(batched - scalar)) <= 1e-9 * np.max(np.abs(scalar))

    @pytest.mark.parametrize("k", [1, 2, 10, 751])
    def test_a_sweep_of_several_outputs_equals_one_sweep_per_output(self, k):
        # the (m, L) form's L gradients equal L single-output sweeps, bit for
        # bit, for the losses gradcheck sweeps and for an arbitrary function
        rng = np.random.default_rng(k + 7)
        x = rng.normal(0, 3, size=k)
        classes = np.array([int(rng.integers(k)), -1, -1])
        weights = np.stack([lsro_label(k), mprl_rows(mprl_alpha(softmax(x)))])
        swept = finite_difference_gradient(
            lambda points: weighted_ce_values_by_label(points, classes, weights), x)
        for cls, row, got in zip(classes, (None, *weights), swept):
            want = finite_difference_gradient(
                lambda p: weighted_ce(p, np.full(len(p), cls),
                                      None if row is None else np.tile(row, (len(p), 1)))[0],
                x)
            assert got.tobytes() == want.tobytes()
        outputs = (lambda p: np.sin(p).sum(1), lambda p: (p * p).max(1))
        swept = finite_difference_gradient(lambda p: np.stack([f(p) for f in outputs], 1), x)
        for f, got in zip(outputs, swept):
            assert got.tobytes() == finite_difference_gradient(f, x).tobytes()


def tiled_blocks(x, step):
    """The central-difference batches as built by np.tile and fancy
    indexing, block by block: the reference for the in-place buffer."""
    block = block_coordinates(x.size)
    for start in range(0, x.size, block):
        cols = np.arange(start, min(start + block, x.size))
        rows = np.arange(cols.size)
        points = np.tile(x, (2 * cols.size, 1))
        points[rows, cols] = x[cols] + step
        points[rows + cols.size, cols] = x[cols] - step
        yield cols, points


class TestInPlaceBlocks:
    @pytest.mark.parametrize("k", [1, 7, 8, 9, 17, 751])
    def test_blocks_equal_the_tiled_construction(self, k):
        rng = np.random.default_rng(k)
        x = rng.normal(0, 3, size=k)
        step = 1e-6
        seen = []

        def recording(points):
            seen.append(points.copy())
            # a maximum is exact in any order, whatever the batch's memory
            return (points * np.arange(1.0, k + 1.0)).max(1)

        got = finite_difference_gradient(recording, x, step)
        want = np.empty(k)
        blocks = list(tiled_blocks(x, step))
        assert len(seen) == len(blocks)
        for points, (cols, expected) in zip(seen, blocks):
            assert points.shape == expected.shape
            assert points.tobytes() == expected.tobytes()
            values = recording(expected)
            want[cols] = (values[:cols.size] - values[cols.size:]) / (2.0 * step)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 9, 751])
    def test_gradients_equal_the_tiled_construction(self, k):
        rng = np.random.default_rng(k + 1)
        x = rng.normal(0, 3, size=k)
        alpha = mprl_alpha(softmax(x))
        classes, weights = np.array([int(rng.integers(k)), -1]), mprl_rows(alpha)[None]

        def fn(points):
            return weighted_ce_values_by_label(points, classes, weights)

        want = np.empty((2, k))
        for cols, points in tiled_blocks(x, 1e-6):
            values = fn(points)
            want[:, cols] = ((values[:cols.size] - values[cols.size:]) / 2e-6).T
        assert finite_difference_gradient(fn, x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cls", [3, -1])
    def test_batch_values_score_a_batch_of_any_row_count(self, cls):
        k = 12
        rng = np.random.default_rng(cls + 2)
        weights = mprl_rows(mprl_alpha(softmax(rng.normal(size=k))))
        label = None if cls >= 0 else weights[None]
        for n in (3, 16, 1, 40, 16, 2):
            points = rng.normal(0, 3, size=(n, k))
            rows = None if cls >= 0 else np.tile(weights, (n, 1))
            want = weighted_ce(points, np.full(n, cls), rows)[0]
            got = weighted_ce_values_by_label(points, [cls], label)
            assert got.shape == (n, 1)
            assert got[:, 0].tobytes() == want.tobytes()


class TestRowsNeverMix:
    """Each row of a batch scores as it does alone, bit for bit, at every
    batch height: what lets a central-difference block take any width
    without moving a gradient's byte."""

    @pytest.mark.parametrize("buffer", ["default", "small"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 5, 8, 9, 10, 751])
    def test_every_row_equals_the_row_scored_alone(self, k, weighted, buffer):
        rng = np.random.default_rng(10 * k + weighted)
        x = rng.normal(0, 3, size=k)
        # the first central-difference block at K = k, 2n rows
        _, points = next(tiled_blocks(x, 1e-6))
        height = len(points)
        if weighted:
            classes = np.full(height, -1)
            weights = mprl_rows(row_ranks(rng.normal(0, 3, size=(height, k))))
        else:
            classes = rng.integers(k, size=height)
            weights = None
            # every third row's class at the top logit: the log1p rows
            top_rows = np.arange(0, height, 3)
            points[top_rows, classes[top_rows]] = points[top_rows].max(1) + 2.0
        with small_ufunc_buffer() if buffer == "small" else contextlib.nullcontext():
            alone = [weighted_ce(points[i:i + 1], classes[i:i + 1],
                                 None if weights is None else weights[i:i + 1])
                     for i in range(height)]
            alone_values = np.concatenate([values for values, _ in alone])
            alone_grads = np.concatenate([grads for _, grads in alone])
            for h in range(1, height + 1):
                w = None if weights is None else weights[:h]
                values, grads = weighted_ce(points[:h], classes[:h], w)
                assert values.tobytes() == alone_values[:h].tobytes()
                assert grads.tobytes() == alone_grads[:h].tobytes()


def batch(items):
    """(logits, weight row, is_generated) triples in combined_loss's form:
    the logits, each real row's class (its one-hot row's argmax) or -1,
    and the generated rows' weights (None without generated rows)."""
    logits, weights, generated = (np.array(a) for a in zip(*items))
    classes = np.where(generated, -1, np.argmax(weights, axis=1))
    return logits, classes, weights[generated] if generated.any() else None


def kernel_case(k, seed, diagonal):
    """A mixed batch: real rows (one at a huge top margin), an LSRO row and
    a rank-weighted row, in the class form, with the per-vector loss each
    row must equal (under ``diagonal`` both weighted rows get the diagonal
    gradient)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 4, size=(4, k))
    c = int(rng.integers(k))
    x[3, c] = x[3].max() + 60.0
    alpha = mprl_alpha(softmax(x[2]))
    weights = np.array([np.full(k, 1.0 / k), mprl_rows(alpha)])
    lsro = lsro_loss(x[1])
    if diagonal:
        lsro = LossOutput(lsro.value, -weights[0] * (1.0 - softmax(x[1])))
    expected = [real_ce_loss(x[0], c), lsro,
                mprl_generated_loss(x[2], alpha, diagonal), real_ce_loss(x[3], c)]
    return x, np.array([c, -1, -1, c]), weights, expected


def assert_close(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestLogitShapes:
    """``weighted_ce``, ``weighted_ce_values_by_label``, ``combined_loss``
    and ``virtual_labels`` share one logits check: logits that are not
    (B, width) with width >= 1 raise InvalidDimension naming their shape,
    never numpy's bare errors."""

    @staticmethod
    def refused(x, classes):
        classes = np.array(classes)
        weights = np.zeros((np.count_nonzero(classes < 0), x.shape[-1])) if x.ndim == 2 else None
        message = re.escape(f"got {x.shape}")
        with pytest.raises(InvalidDimension, match=message):
            weighted_ce(x, classes, weights)
        with pytest.raises(InvalidDimension, match=message):
            weighted_ce_values_by_label(x, classes, weights)
        with pytest.raises(InvalidDimension, match=message):
            combined_loss(x, classes, weights, 1.0)
        for strategy in {scheme.rule: name for name, scheme in SCHEMES.items()}.values():
            with pytest.raises(InvalidDimension, match=message):
                virtual_labels(strategy, x)

    def test_a_vector(self):
        self.refused(np.zeros(3), [0])

    def test_three_dimensions(self):
        self.refused(np.zeros((1, 2, 3)), [0])

    def test_no_columns_with_weighted_rows(self):
        self.refused(np.zeros((2, 0)), [-1, -1])


class TestWeightedCeKernel:
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_the_per_vector_losses(self, k, seed, diagonal):
        x, classes, weights, expected = kernel_case(k, seed, diagonal)
        values, grads = weighted_ce(x, classes, weights, diagonal=diagonal)
        for value, grad, want in zip(values, grads, expected):
            assert_close(value, want.value)
            np.testing.assert_allclose(grad, want.grad_logits, rtol=0, atol=1e-12)
        # log1p keeps a huge-margin real row positive (K=1 has no margin)
        assert values[3] > 0.0 or k == 1

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_all_in_one_rows_at_width_k_plus_one(self, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 3, size=(3, k + 1))
        c = int(rng.integers(k))
        weights = np.zeros((2, k + 1))
        weights[:, k] = 1.0  # generated rows at the extra class
        values, grads = weighted_ce(x, np.array([c, -1, -1]), weights)
        for row, cls in ((0, c), (1, k), (2, k)):
            want = real_ce_loss(x[row], cls)
            assert_close(values[row], want.value)
            np.testing.assert_allclose(grads[row], want.grad_logits, rtol=0, atol=1e-12)

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans(),
           st.floats(0.05, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_combined_rows_scale_the_kernel_rows_and_a_closed_gate_zeroes(
            self, k, seed, diagonal, gen_weight):
        x, classes, weights, expected = kernel_case(k, seed, diagonal)
        generated = classes == -1
        out = combined_loss(x, classes, weights, gen_weight, diagonal)
        scale = gen_weight / 2
        np.testing.assert_allclose(out.grad_logits[0], expected[0].grad_logits / 2, atol=1e-12)
        np.testing.assert_allclose(out.grad_logits[1], scale * expected[1].grad_logits,
                                   atol=1e-12)
        np.testing.assert_allclose(out.grad_logits[2], scale * expected[2].grad_logits, atol=1e-12)
        assert_close(out.real_loss, (expected[0].value + expected[3].value) / 2)
        assert_close(out.gen_loss, (expected[1].value + expected[2].value) / 2)

        gated = combined_loss(x, classes, None, gen_weight, diagonal)
        np.testing.assert_array_equal(gated.grad_logits[generated], 0.0)
        np.testing.assert_array_equal(gated.grad_logits[~generated],
                                      out.grad_logits[~generated])
        assert gated.gen_loss == 0.0 and gated.value == gated.real_loss == out.real_loss


def dense_weighted_ce(logits, weights, one_hot=None, diagonal=None):
    """Oracle: the kernel evaluated densely on every row (the implementation
    before one-hot rows were collapsed), log1p for top-logit one-hot rows."""
    z = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(z)
    total = np.sum(e, axis=1, keepdims=True)
    p = e / total
    values = np.sum(weights * (np.log(total) - z), axis=1)
    grads = np.sum(weights, axis=1, keepdims=True) * p - weights
    if diagonal is not None and diagonal.any():
        grads[diagonal] = -weights[diagonal] * (1.0 - p[diagonal])
    if one_hot is not None and one_hot.any():
        rows = np.flatnonzero(one_hot)
        cls = np.argmax(weights[rows], axis=1)
        top = z[rows, cls] == 0.0
        rows, cls = rows[top], cls[top]
        width = z.shape[1]
        others = np.arange(width - 1) + (np.arange(width - 1) >= cls[:, None])
        values[rows] = np.log1p(np.sum(np.take_along_axis(e[rows], others, axis=1), axis=1))
    return values, grads


def dense_combined_loss(logits, weights, generated, gen_weight, diagonal, gate_open=True):
    """Oracle: combined_loss as it took dense (B, width) weight rows (real
    rows one-hot at their class, generated rows all zero behind a closed
    gate) and a generated mask; returns (value, real_loss, gen_loss, grads)."""
    gen = np.asarray(generated, dtype=bool)
    real = ~gen
    n_real = int(real.sum())
    n_generated = gen.size - n_real
    values, grads = dense_weighted_ce(logits, weights, one_hot=real,
                                      diagonal=gen if diagonal else None)
    if n_real:
        grads[real] /= n_real
    if gate_open and n_generated:
        grads[gen] *= gen_weight / n_generated
    else:
        grads[gen] = 0.0
    real_loss = float(np.sum(values[real])) / n_real if n_real else 0.0
    gen_loss = float(np.sum(values[gen])) / n_generated if (n_generated and gate_open) else 0.0
    return real_loss + gen_weight * gen_loss, real_loss, gen_loss, grads


def class_form(weights, hot):
    """Dense rows (one-hot where ``hot``) as classes and the other rows' weights."""
    return np.where(hot, np.argmax(weights, axis=1), -1), weights[~hot]


def mixed_batch(k, n, seed, margin):
    """n rows over k classes: one-hot rows (a third at the top logit by
    ``margin``), LSRO rows and rank-weighted rows, in a shuffled order."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 3.0, size=(n, k))
    kind = rng.integers(3, size=n)  # 0 one-hot, 1 LSRO, 2 rank-weighted
    cls = rng.integers(k, size=n)
    weights = np.zeros((n, k))
    for i in range(n):
        if kind[i] == 0:
            weights[i, cls[i]] = 1.0
            if rng.random() < 1 / 3:
                x[i, cls[i]] = x[i].max() + margin
        elif kind[i] == 1:
            weights[i] = 1.0 / k
        else:
            weights[i] = mprl_rows(mprl_alpha(softmax(x[i])))
    return x, weights, kind == 0


class TestCollapsedOneHotRows:
    @given(st.sampled_from([1, 2, 3, 8, 151, 751]), st.integers(1, 12),
           st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-3, 2.0, 40.0, 1e3]),
           st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_equals_the_dense_kernel_bit_for_bit(self, k, n, seed, margin, diagonal):
        x, weights, hot = mixed_batch(k, n, seed, margin)
        classes, rows = class_form(weights, hot)
        values, grads = weighted_ce(x, classes, rows, diagonal=diagonal)
        flags = ~hot if diagonal else None
        want_values, want_grads = dense_weighted_ce(x, weights, one_hot=hot, diagonal=flags)
        assert np.array_equal(values, want_values)
        assert np.array_equal(grads, want_grads)
        assert np.array_equal(weighted_ce(x, classes, rows)[0], want_values)

    def test_top_logit_rows_keep_the_log1p_value(self):
        x, weights, hot = mixed_batch(751, 12, 3, 40.0)
        z = x - x.max(axis=1, keepdims=True)
        top = hot & (z[np.arange(12), np.argmax(weights, axis=1)] == 0.0)
        assert top.any()
        values, _ = weighted_ce(x, *class_form(weights, hot))
        # log t - z_c rounds to 0 at a margin of 40; log1p keeps the value
        assert np.all(values[top] > 0.0)
        assert np.array_equal(values, dense_weighted_ce(x, weights, one_hot=hot)[0])

    def test_all_one_hot_and_all_dense_batches(self):
        for hot in (np.ones(6, dtype=bool), np.zeros(6, dtype=bool)):
            x, weights, _ = mixed_batch(20, 6, 9, 5.0)
            weights[hot] = np.eye(20)[:6][hot]
            got = weighted_ce(x, *class_form(weights, hot))
            want = dense_weighted_ce(x, weights, one_hot=hot)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def shared_labels(k, n_labels, rng):
    """L labels over k classes in weighted_ce's form, in a random order:
    classes (L,), a class or -1 apiece, and the weight rows of the -1s
    (None without one): LSRO's row, rank rows and nonnegative rows with
    zeros."""
    classes, rows = [], []
    for kind in rng.integers(4, size=n_labels):
        if kind == 0:
            classes.append(int(rng.integers(k)))
            continue
        classes.append(-1)
        if kind == 1:
            rows.append(lsro_label(k))
        elif kind == 2:
            rows.append(mprl_rows(mprl_alpha(softmax(rng.normal(0, 3, size=k)))))
        else:
            rows.append(rng.random(k) * (rng.random(k) < 0.5))
    return np.array(classes), np.array(rows) if rows else None


class TestValuesByLabel:
    """``weighted_ce_values_by_label`` scores a batch against several labels
    from one softmax per row, and each label's column is the values of
    ``weighted_ce`` with every row labelled so, bit for bit."""

    @given(st.sampled_from([1, 2, 3, 8, 751]), st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1e-3, 2.0, 40.0, 1e3]), st.booleans(), st.integers(1, 5),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    @example(751, 12, 5, 40.0, False, 4, True)
    @example(1, 3, 0, 0.0, False, 3, False)
    @example(2, 8, 1, 0.0, True, 4, False)
    def test_each_label_equals_weighted_ce_bit_for_bit(self, k, n, seed, margin, ties,
                                                      n_labels, small_buffer):
        rng = np.random.default_rng(seed)
        classes, weights = shared_labels(k, n_labels, rng)
        # ties: logits in {-1, 0, 1}, so a class often shares the top logit
        x = (rng.integers(-1, 2, size=(n, k)).astype(np.float64) if ties
             else rng.normal(0, 3, size=(n, k)))
        hot = classes[classes >= 0]
        for i in range(0, n, 2):  # every other row: a class at the top by the margin
            if hot.size and margin:
                c = hot[i % hot.size]
                x[i, c] = x[i].max() + margin
        with small_ufunc_buffer() if small_buffer else contextlib.nullcontext():
            got = weighted_ce_values_by_label(x, classes, weights)
            assert got.shape == (n, n_labels)
            rows = iter(() if weights is None else weights)
            for j, cls in enumerate(classes):
                row = None if cls >= 0 else np.tile(next(rows), (n, 1))
                want = weighted_ce(x, np.full(n, cls), row)[0]
                assert got[:, j].tobytes() == want.tobytes()

    def test_a_class_at_the_top_keeps_the_log1p_value(self):
        x = np.zeros((2, 751))
        x[:, 7] = 60.0
        values = weighted_ce_values_by_label(x, [7, -1, 7], lsro_label(751)[None])
        # log t - z_c rounds to 0 at a margin of 60; log1p keeps the value
        assert np.all(values[:, 0] > 0.0)
        assert values[:, 0].tobytes() == values[:, 2].tobytes()

    def test_classes_alone_need_no_weights(self):
        x = np.random.default_rng(3).normal(0, 3, size=(5, 6))
        values = weighted_ce_values_by_label(x, np.array([4, 0, 4]))
        assert values.shape == (5, 3)
        for j, cls in enumerate((4, 0, 4)):
            assert values[:, j].tobytes() == weighted_ce(x, np.full(5, cls))[0].tobytes()

    def test_no_labels_give_no_columns(self):
        for classes in ([], np.array([], dtype=np.int64)):
            values = weighted_ce_values_by_label(np.zeros((3, 4)), classes)
            assert values.shape == (3, 0)

    def test_weights_must_match_the_weighted_labels(self):
        x = np.zeros((2, 4))
        for classes, weights in (([0, -1, -1], np.ones((1, 4))), ([0, -1], np.ones((2, 4))),
                                 ([0, 1], np.ones((1, 4))), ([-1, -1], None)):
            with pytest.raises(InvalidDimension, match="-1"):
                weighted_ce_values_by_label(x, classes, weights)

    def test_bad_labels_and_logits_raise(self):
        x = np.zeros((2, 4))
        # -1 marks a weighted label, so the class below the range is -2
        for bad in (4, -2):
            with pytest.raises(InvalidClass, match=rf"^label 1: class {bad} outside 0\.\.3"):
                weighted_ce_values_by_label(x, [0, bad])
        with pytest.raises(InvalidDimension, match="^classes must be 1 integers, one per label"):
            weighted_ce_values_by_label(x, [1.0])
        with pytest.raises(InvalidDimension, match=r"^weights \(1, 3\) do not match"):
            weighted_ce_values_by_label(x, [-1], np.ones((1, 3)))
        for logits in (np.zeros(4), np.zeros((2, 0))):
            with pytest.raises(InvalidDimension, match="logits must be"):
                weighted_ce_values_by_label(logits, [0])


class TestClassForm:
    """``combined_loss`` and ``weighted_ce`` take each one-hot row as its
    class, so a real row can no longer carry weights that are not one-hot."""

    @given(st.sampled_from([1, 2, 8, 10, 751]), st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.4, 1.0]), st.booleans(), st.booleans(), st.booleans(),
           st.sampled_from([0.0, 2.0, 1e3]), st.sampled_from([1 / 3, 1.0]), st.booleans(),
           st.booleans())
    # an all-real batch, an all-generated one, and one whose real rows all
    # hold the top logit (every real value through log1p)
    @example(k=8, n=12, seed=5, gen_share=0.0, gate=True, diagonal=False, broadcast=False,
             margin=2.0, top_share=1 / 3, fortran=False, fortran_weights=False)
    @example(k=751, n=9, seed=6, gen_share=1.0, gate=True, diagonal=False, broadcast=False,
             margin=0.0, top_share=1 / 3, fortran=False, fortran_weights=False)
    @example(k=8, n=12, seed=7, gen_share=0.4, gate=True, diagonal=True, broadcast=True,
             margin=1e3, top_share=1.0, fortran=True, fortran_weights=False)
    @example(k=751, n=7, seed=8, gen_share=0.0, gate=True, diagonal=False, broadcast=False,
             margin=0.0, top_share=1.0, fortran=False, fortran_weights=False)
    # Fortran-ordered weight rows, whose sums take more than eight terms
    @example(k=10, n=12, seed=9, gen_share=1.0, gate=True, diagonal=False, broadcast=True,
             margin=0.0, top_share=1 / 3, fortran=False, fortran_weights=True)
    @example(k=751, n=12, seed=10, gen_share=0.4, gate=True, diagonal=False, broadcast=False,
             margin=0.0, top_share=1 / 3, fortran=False, fortran_weights=True)
    @settings(max_examples=150, deadline=None)
    def test_combined_loss_equals_the_dense_weight_version_bit_for_bit(
            self, k, n, seed, gen_share, gate, diagonal, broadcast, margin, top_share, fortran,
            fortran_weights):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 3.0, size=(n, k))
        gen = rng.random(n) < gen_share
        classes = np.where(gen, -1, rng.integers(k, size=n))
        for i in np.flatnonzero(~gen):  # this share of the real rows at the top logit
            if rng.random() < top_share:
                x[i, classes[i]] = x[i].max() + margin
        if broadcast:  # as the trainer passes LSRO rows
            gen_weights = np.broadcast_to(lsro_label(k), (int(gen.sum()), k))
        else:
            gen_weights = mprl_rows(row_ranks(x[gen]))
        dense = np.zeros((n, k))
        dense[np.flatnonzero(~gen), classes[~gen]] = 1.0
        if gate:
            dense[gen] = gen_weights
        # logits and weight rows in any memory layout score the same
        logits = np.asfortranarray(x) if fortran else x
        if fortran_weights:
            gen_weights = np.asfortranarray(gen_weights)
        out = combined_loss(logits, classes, gen_weights if gate else None, 0.35, diagonal)
        value, real_loss, gen_loss, grads = dense_combined_loss(x, dense, gen, 0.35, diagonal,
                                                                gate)
        assert np.array_equal(out.grad_logits, grads)
        assert (out.value, out.real_loss, out.gen_loss) == (value, real_loss, gen_loss)
        assert (out.n_real, out.n_generated) == (int((~gen).sum()), int(gen.sum()))
        if gate:
            values, row_grads = weighted_ce(logits, classes, gen_weights, diagonal)
            want_values, want_grads = dense_weighted_ce(x, dense, one_hot=~gen,
                                                        diagonal=gen if diagonal else None)
            assert np.array_equal(values, want_values)
            assert np.array_equal(row_grads, want_grads)

    @pytest.mark.parametrize("bad", [4, 7, -2])
    def test_class_out_of_range_raises_naming_the_row(self, bad):
        classes = np.array([0, -1, 3, bad, 1])
        weights = np.full((1, 4), 0.25)
        with pytest.raises(InvalidClass, match=rf"^row 3: class {bad} outside 0\.\.3"):
            combined_loss(np.zeros((5, 4)), classes, weights, 1.0)
        with pytest.raises(InvalidClass, match=r"^row 3: "):
            weighted_ce(np.zeros((5, 4)), classes, weights)
        with pytest.raises(InvalidClass, match=rf"^label 3: class {bad} outside 0\.\.3"):
            weighted_ce_values_by_label(np.zeros((2, 4)), classes, weights)

    def test_k1_takes_class_0(self):
        out = combined_loss(np.zeros((2, 1)), np.array([0, 0]), None, 1.0)
        assert out.value == 0.0 and out.n_real == 2
        with pytest.raises(InvalidClass, match=r"^row 1: "):
            combined_loss(np.zeros((2, 1)), np.array([0, 1]), None, 1.0)

    def test_weights_must_match_the_weighted_rows(self):
        x = np.zeros((3, 2))
        classes = np.array([0, -1, -1])
        for weights in (np.full((1, 2), 0.5), np.full((3, 2), 0.5), np.full((2, 3), 0.5)):
            with pytest.raises(InvalidDimension):
                combined_loss(x, classes, weights, 1.0)
            with pytest.raises(InvalidDimension):
                weighted_ce(x, classes, weights)
        with pytest.raises(InvalidDimension):
            weighted_ce(x, classes, None)
        # combined_loss leaves generated rows without weights unscored
        gated = combined_loss(x, classes, None, 1.0)
        np.testing.assert_array_equal(gated.grad_logits[1:], 0.0)

    def test_a_class_row_cannot_also_carry_weights(self):
        # x = [0, 1, 2] against w = [.5, .5, 0] is 1.908; scoring that row
        # at its argmax, as a one-hot flag on weights once did, gives 2.408
        x = np.array([[0.0, 1.0, 2.0]])
        w = np.array([[0.5, 0.5, 0.0]])
        assert abs(weighted_ce(x, np.array([-1]), w)[0][0] - 1.9076) < 1e-4
        assert abs(weighted_ce(x, np.array([0]))[0][0] - 2.4076) < 1e-4
        with pytest.raises(InvalidDimension):
            weighted_ce(x, np.array([0]), w)

    def test_classes_must_be_integers_one_per_row(self):
        for classes in (np.array([0.0, 1.0]), np.array([0]), np.array([[0, 1]])):
            with pytest.raises(InvalidDimension):
                combined_loss(np.zeros((2, 2)), classes, None, 1.0)

    def test_non_finite_logits_and_weights_raise(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidDimension, match="finite"):
                combined_loss(np.array([[0.0, bad], [0.0, 0.0]]), np.array([0, -1]),
                              np.full((1, 2), 0.5), 1.0)
            with pytest.raises(InvalidDimension, match="finite"):
                combined_loss(np.zeros((2, 2)), np.array([0, -1]), np.array([[0.5, bad]]), 1.0)


class TestCombinedLoss:
    def test_real_only_batch_equals_mean_ce(self):
        rng = np.random.default_rng(21)
        items = []
        expected = []
        for _ in range(5):
            x = rng.normal(0, 2, size=3)
            c = int(rng.integers(3)) + 1
            items.append((x, ground_truth_label(c, 3), False))
            expected.append(real_ce_loss(x, c - 1).value)
        out = combined_loss(*batch(items), 1.0)
        assert abs(out.value - np.mean(expected)) < 1e-12
        assert out.n_generated == 0 and out.gen_loss == 0.0

    def test_gate_inactive_zeroes_generated_contribution(self):
        items = [
            (np.array([0.3, -0.2]), ground_truth_label(1, 2), False),
            (np.array([1.0, 2.0]), lsro_label(2), True),
        ]
        logits, classes, _ = batch(items)
        gated = combined_loss(logits, classes, None, 0.1)
        assert gated.gen_loss == 0.0
        assert gated.value == gated.real_loss
        np.testing.assert_array_equal(gated.grad_logits[1], np.zeros(2))

    def test_all_generated_batch_behind_a_closed_gate_is_exactly_zero(self):
        x = np.random.default_rng(8).normal(0.0, 3.0, size=(5, 7))
        gated = combined_loss(x, np.full(5, -1), None, 0.1, diagonal=True)
        assert (gated.value, gated.real_loss, gated.gen_loss) == (0.0, 0.0, 0.0)
        assert (gated.n_real, gated.n_generated) == (0, 5)
        assert np.array_equal(gated.grad_logits, np.zeros((5, 7)))
        assert not np.signbit(gated.grad_logits).any()  # +0.0, never -0.0

    def test_hand_composed_aggregate(self):
        # one real two-class sample at the decision boundary plus one
        # tied-rank generated sample: ln2 + 0.1 * ln2
        alpha = mprl_alpha([0.5, 0.5])
        items = [
            (np.array([0.0, 0.0]), ground_truth_label(2, 2), False),
            (np.array([0.0, 0.0]), rank_weight_normalizer(2) * mprl_label(alpha, 2), True),
        ]
        out = combined_loss(*batch(items), 0.1)
        assert abs(out.value - (LN2 + 0.1 * LN2)) < 1e-12
        assert abs(out.real_loss - LN2) < 1e-15
        assert abs(out.gen_loss - LN2) < 1e-12

    def test_gradients_route_back_per_sample(self):
        x_real = np.array([0.7, -0.1])
        x_gen = np.array([0.2, 0.9])
        alpha = mprl_alpha(softmax(x_gen))
        items = [
            (x_real, ground_truth_label(1, 2), False),
            (x_gen, rank_weight_normalizer(2) * mprl_label(alpha, 2), True),
        ]
        out = combined_loss(*batch(items), 0.5)
        np.testing.assert_allclose(
            out.grad_logits[0], real_ce_loss(x_real, 0).grad_logits, atol=1e-15
        )
        expected_gen = 0.5 * mprl_generated_loss(x_gen, alpha).grad_logits
        np.testing.assert_allclose(out.grad_logits[1], expected_gen, atol=1e-15)

    def test_mean_reduction_keeps_gen_weight_meaning(self):
        # duplicating the generated side must not change the aggregate
        real = (np.array([0.0, 0.0]), ground_truth_label(1, 2), False)
        gen = (np.array([0.3, 0.8]), lsro_label(2), True)
        single = combined_loss(*batch([real, gen]), 0.1)
        doubled = combined_loss(*batch([real, gen, gen]), 0.1)
        assert abs(single.value - doubled.value) < 1e-15

    def test_mixed_width_rejected(self):
        with pytest.raises(InvalidDimension):
            combined_loss(np.zeros((2, 3)), np.array([0, -1]), np.zeros((1, 4)), 1.0)

    def test_real_item_requires_ground_truth_label(self):
        # a real row's label is its class, which must name a head column
        with pytest.raises(InvalidClass):
            combined_loss(np.zeros((1, 2)), np.array([2]), None, 1.0)
