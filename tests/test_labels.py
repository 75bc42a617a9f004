"""Label-scheme construction: examples, oracles, and invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mprl.errors import InvalidConfig, InvalidDimension
from mprl.labels import (
    SCHEMES,
    Rule,
    Strategy,
    _average_ranks,
    all_in_one_label,
    check_prob_vector,
    ground_truth_label,
    lsro_label,
    mprl_alpha,
    mprl_label,
    mprl_rows,
    one_hot_pseudo_label,
    rank_weight_normalizer,
    row_ranks,
    softmax,
    virtual_labels,
)


def ascending_position_oracle(probs):
    """Rank oracle for distinct values: 1-based index in the ascending sort."""
    ordered = sorted(probs)
    return [ordered.index(v) + 1 for v in probs]


class TestSoftmax:
    def test_symmetric_two_class(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_symmetric_three_class(self):
        np.testing.assert_allclose(softmax([1.0, 1.0, 1.0]), [1 / 3] * 3, atol=1e-15)

    def test_analytic_ln2(self):
        np.testing.assert_allclose(softmax([0.0, math.log(2.0)]), [1 / 3, 2 / 3], atol=1e-15)

    def test_sums_to_one_and_stable_at_large_magnitude(self):
        p = softmax([1000.0, 1000.0, 999.0])
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) < 1e-12

    def test_order_preserving(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(0, 3, size=rng.integers(2, 20))
            np.testing.assert_array_equal(np.argsort(softmax(x)), np.argsort(x))

    def test_empty_rejected(self):
        with pytest.raises(InvalidDimension):
            softmax([])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidDimension):
            softmax([0.0, np.inf])


class TestLsroLabel:
    def test_k4(self):
        np.testing.assert_array_equal(lsro_label(4), [0.25] * 4)

    def test_degenerate_k1(self):
        np.testing.assert_array_equal(lsro_label(1), [1.0])

    def test_market_scale_class_count(self):
        label = lsro_label(751)
        assert label.shape == (751,) and label.dtype == np.float64
        np.testing.assert_allclose(label, 1.0 / 751, rtol=0, atol=0)

    def test_k0_rejected(self):
        with pytest.raises(InvalidDimension):
            lsro_label(0)


class TestAllInOneLabel:
    def test_k3(self):
        np.testing.assert_array_equal(all_in_one_label(3), [0, 0, 0, 1])

    def test_degenerate_k1(self):
        np.testing.assert_array_equal(all_in_one_label(1), [0, 1])

    def test_construction_oracle_751(self):
        # independent construction: list with a single 1 appended after K zeros
        expected = np.array([0.0] * 751 + [1.0])
        label = all_in_one_label(751)
        np.testing.assert_array_equal(label, expected)
        assert label.size == 752
        assert np.argmax(label) + 1 == 752

    def test_k0_rejected(self):
        with pytest.raises(InvalidDimension):
            all_in_one_label(0)


class TestOneHotPseudoLabel:
    def test_argmax_oracle(self):
        p = [0.2, 0.5, 0.3]
        expected_class = max(range(len(p)), key=lambda i: p[i]) + 1
        label = one_hot_pseudo_label(p)
        assert np.argmax(label) + 1 == expected_class == 2
        np.testing.assert_array_equal(label, [0, 1, 0])

    def test_tie_breaks_to_lowest_index(self):
        np.testing.assert_array_equal(one_hot_pseudo_label([0.5, 0.5]), [1, 0])
        np.testing.assert_array_equal(one_hot_pseudo_label([1 / 3, 1 / 3, 1 / 3]), [1, 0, 0])

    def test_exactly_one_nonzero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            label = one_hot_pseudo_label(softmax(rng.normal(0, 3, size=9)))
            assert np.count_nonzero(label) == 1
            assert label.sum() == 1.0


class TestMprlAlpha:
    def test_argsort_oracle(self):
        p = np.array([0.2, 0.5, 0.3])
        alpha = mprl_alpha(p)
        np.testing.assert_array_equal(alpha, ascending_position_oracle(p))
        np.testing.assert_array_equal(alpha, [1, 3, 2])

    def test_tie_symmetry_average(self):
        alpha = mprl_alpha([0.5, 0.5])
        np.testing.assert_array_equal(alpha, [1.5, 1.5])

    def test_uniform_all_tied(self):
        alpha = mprl_alpha([0.2] * 5)
        np.testing.assert_array_equal(alpha, [3.0] * 5)

    def test_random_vectors_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = softmax(rng.normal(0, 3, size=rng.integers(2, 30)))
            alpha = mprl_alpha(p)
            np.testing.assert_array_equal(alpha, ascending_position_oracle(p))

    @given(st.integers(min_value=1, max_value=60), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rank_sum_invariant(self, k, seed):
        rng = np.random.default_rng(seed)
        p = softmax(rng.normal(0, 3, size=k))
        assert mprl_alpha(p).sum() == k * (k + 1) / 2

    @given(st.integers(min_value=2, max_value=30), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_permutation_without_ties(self, k, seed):
        rng = np.random.default_rng(seed)
        p = softmax(rng.normal(0, 3, size=k))
        assume(np.unique(p).size == k)
        ranks = mprl_alpha(p)
        assert sorted(ranks.tolist()) == list(range(1, k + 1))


class TestRowRanks:
    def test_logit_ranks_keep_ties_softmax_rounds_away(self):
        # softmax rounds 0 and 1e-17 to one probability; the logits differ
        np.testing.assert_array_equal(row_ranks(np.array([[0.0, 1e-17, 5.0]])), [[1, 2, 3]])
        np.testing.assert_array_equal(
            mprl_alpha(softmax([0.0, 1e-17, 5.0])), [1.5, 1.5, 3.0])

    def test_extreme_logits_rank_where_softmax_underflows(self):
        # softmax([0, -800, -801]) has zero entries, which mprl_alpha rejects
        with pytest.raises(InvalidDimension):
            mprl_alpha(softmax([0.0, -800.0, -801.0]))
        np.testing.assert_array_equal(row_ranks(np.array([[0.0, -800.0, -801.0]])), [[3, 2, 1]])

    def test_mprl_rows_are_normalized_rank_weights(self):
        rows = mprl_rows(row_ranks(np.array([[0.2, 0.5, 0.3], [1.0, 1.0, 1.0]])))
        np.testing.assert_allclose(rows[0], 0.5 * np.array([1, 3, 2]) / 3, atol=1e-15)
        np.testing.assert_allclose(rows[1], [1 / 3] * 3, atol=1e-15)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-15)

    @given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_equals_mprl_alpha_wherever_softmax_adds_no_tie(self, k, n, seed):
        rng = np.random.default_rng(seed)
        # quarter-steps in a small range: exact ties occur often
        x = rng.integers(-12, 12, size=(n, k)) / 4.0
        ranks = row_ranks(x)
        for row, got in zip(x, ranks):
            p = softmax(row)
            if np.unique(p).size == np.unique(row).size:
                np.testing.assert_array_equal(got, mprl_alpha(p))

    @given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_per_row_logit_shifts(self, k, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-12, 12, size=(n, k)) / 4.0
        shifts = rng.integers(-1000, 1000, size=(n, 1)).astype(float)  # exact in float64
        np.testing.assert_array_equal(row_ranks(x + shifts), row_ranks(x))


def stable_sort_row_ranks(scores):
    """Oracle: row ranks from one stable argsort, every run's average
    computed for every row (the implementation before the tie fast path)."""
    x = np.asarray(scores, dtype=np.float64)
    n, k = x.shape
    order = np.argsort(x, axis=1, kind="stable")
    ordered = np.take_along_axis(x, order, axis=1)
    pos = np.arange(k)
    differs = ordered[:, 1:] != ordered[:, :-1]
    edge = np.ones((n, 1), dtype=bool)
    first = np.maximum.accumulate(np.where(np.hstack([edge, differs]), pos, 0), axis=1)
    last = np.minimum.accumulate(
        np.where(np.hstack([differs, edge]), pos, k - 1)[:, ::-1], axis=1)[:, ::-1]
    sorted_ranks = (first + last + 2) / 2.0
    ranks = np.empty((n, k))
    np.put_along_axis(ranks, order, sorted_ranks, axis=1)
    return ranks


def score_rows(kind, n, k, seed):
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        return rng.normal(0.0, 3.0, size=(n, k))
    if kind == "integer":  # a few distinct values: long tie runs everywhere
        return rng.integers(-3, 3, size=(n, k)).astype(float)
    if kind == "signed_zeros":  # -0.0 == 0.0, so they tie
        return rng.choice([-0.0, 0.0, 1.0], size=(n, k))
    if kind == "all_equal":
        return np.full((n, k), rng.normal())
    # continuous rows, each holding one tie
    x = rng.normal(0.0, 3.0, size=(n, k))
    x[:, 0] = x[:, -1]
    return x


class TestRowRanksFastPath:
    @given(st.sampled_from(["continuous", "integer", "signed_zeros", "all_equal", "one_tie"]),
           st.sampled_from([1, 2, 3, 8, 751]), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_stable_sort_oracle_bit_for_bit(self, kind, k, n, seed):
        x = score_rows(kind, n, k, seed)
        assert np.array_equal(row_ranks(x), stable_sort_row_ranks(x))

    def test_a_batch_mixing_tied_and_untied_rows(self):
        x = np.vstack([score_rows(kind, 3, 751, seed) for seed, kind in enumerate(
            ["continuous", "integer", "signed_zeros", "all_equal", "one_tie"])])
        ranks = row_ranks(x)
        assert np.array_equal(ranks, stable_sort_row_ranks(x))
        np.testing.assert_array_equal(ranks[9:12], 376.0)  # all equal: (1 + 751) / 2
        np.testing.assert_array_equal(np.sort(ranks[:3], axis=1),
                                      np.broadcast_to(np.arange(1.0, 752.0), (3, 751)))


class TestMprlLabel:
    def test_direct_evaluation(self):
        alpha = mprl_alpha([0.2, 0.5, 0.3])
        np.testing.assert_allclose(mprl_label(alpha, 3), [1 / 3, 1.0, 2 / 3], atol=1e-15)

    def test_tie_case(self):
        alpha = mprl_alpha([0.5, 0.5])
        np.testing.assert_array_equal(mprl_label(alpha, 2), [0.75, 0.75])

    def test_normalizer_closes_the_mass(self):
        alpha = mprl_alpha([1 / 3, 2 / 3])
        label = mprl_label(alpha, 2)
        np.testing.assert_array_equal(label, [0.5, 1.0])
        assert abs(rank_weight_normalizer(2) * label.sum() - 1.0) < 1e-15

    def test_dimension_mismatch_rejected(self):
        alpha = mprl_alpha([0.5, 0.5])
        with pytest.raises(InvalidDimension):
            mprl_label(alpha, 3)
        with pytest.raises(InvalidDimension):
            mprl_label(alpha[None, :], 2)

    def test_consecutive_sorted_gap_is_one_over_k(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(2, 40))
            p = softmax(rng.normal(0, 3, size=k))
            label = mprl_label(mprl_alpha(p), k)
            gaps = np.diff(np.sort(label))
            np.testing.assert_allclose(gaps, 1.0 / k, atol=1e-15)


class TestCrossSchemeInvariants:
    def test_normalization_identity_sampled(self):
        rng = np.random.default_rng(19)
        for k in [1, 2, 3, 7, 10, 100, 751]:
            sigma = rank_weight_normalizer(k)
            p = softmax(rng.normal(0, 3, size=k))
            alpha = mprl_alpha(p)
            assert abs(sigma * np.sum(alpha / k) - 1.0) < 1e-12

    def test_shift_invariance_of_ranks(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            x = rng.normal(0, 3, size=10)
            shift = rng.uniform(-100, 100)
            a0 = mprl_alpha(softmax(x))
            a1 = mprl_alpha(softmax(x + shift))
            np.testing.assert_array_equal(a0, a1)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2.0, 0.5, 7.5]))
    @settings(max_examples=40, deadline=None)
    def test_rank_invariance_under_increasing_maps(self, seed, gain):
        # logits bounded so the transformed gaps stay clear of exp underflow
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3.0, 3.0, size=8)
        monotone = [gain * x + 1.0, np.exp(x / 4.0), x ** 3 + 0.1 * x]
        base = mprl_alpha(softmax(x))
        for fx in monotone:
            np.testing.assert_array_equal(base, mprl_alpha(softmax(fx)))

    def test_uniform_average_rank_degenerates_to_lsro(self):
        for k in [1, 2, 5, 10, 100]:
            p = softmax(np.zeros(k))
            label = mprl_label(mprl_alpha(p), k)
            scaled = rank_weight_normalizer(k) * label
            np.testing.assert_allclose(scaled, lsro_label(k), rtol=0, atol=1e-16)

    def test_every_label_is_a_plain_float_row(self):
        p = softmax(np.array([0.3, -1.0, 2.0, 0.0]))
        labels = [lsro_label(4), all_in_one_label(4), ground_truth_label(1, 4),
                  one_hot_pseudo_label(p), mprl_alpha(p), mprl_label(mprl_alpha(p), 4)]
        for label in labels:
            assert type(label) is np.ndarray
            assert label.dtype == np.float64 and label.ndim == 1

    def test_one_hot_vs_multiple_distribution(self):
        p = softmax(np.array([0.3, -1.0, 2.0, 0.0]))
        one_hots = [all_in_one_label(4), one_hot_pseudo_label(p)]
        multiples = [lsro_label(4), mprl_label(mprl_alpha(p), 4)]
        for label in one_hots:
            assert np.count_nonzero(label) == 1
        for label in multiples:
            assert np.all(label > 0)

    def test_same_vs_different_assignment(self):
        p1 = softmax(np.array([2.0, 0.0, -1.0]))
        p2 = softmax(np.array([-1.0, 0.0, 2.0]))
        # input-independent schemes give identical labels
        np.testing.assert_array_equal(lsro_label(3), lsro_label(3))
        np.testing.assert_array_equal(all_in_one_label(3), all_in_one_label(3))
        # input-driven schemes differ when the probability ordering differs
        assert not np.array_equal(
            one_hot_pseudo_label(p1), one_hot_pseudo_label(p2)
        )
        assert not np.array_equal(
            mprl_label(mprl_alpha(p1), 3), mprl_label(mprl_alpha(p2), 3)
        )


class TestValidation:
    def test_prob_vector_sum_tolerance(self):
        check_prob_vector([0.5, 0.5 + 5e-10])
        with pytest.raises(InvalidDimension):
            check_prob_vector([0.5, 0.6])

    def test_prob_vector_rejects_nonpositive(self):
        with pytest.raises(InvalidDimension):
            check_prob_vector([1.0, 0.0])

    def test_softmax_output_always_passes(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            check_prob_vector(softmax(rng.normal(0, 10, size=rng.integers(1, 200))))

    def test_ground_truth_label(self):
        label = ground_truth_label(2, 4)
        np.testing.assert_array_equal(label, [0, 1, 0, 0])
        assert np.argmax(label) + 1 == 2
        with pytest.raises(InvalidDimension):
            ground_truth_label(5, 4)


def along_axis_row_ranks(scores):
    """Oracle: ``row_ranks`` as it gathered and scattered with
    ``take_along_axis`` and ``put_along_axis`` (before the flat indices)."""
    x = np.asarray(scores, dtype=np.float64)
    n, k = x.shape
    order = np.argsort(x, axis=1)
    sorted_ranks = np.broadcast_to(np.arange(1.0, k + 1.0), (n, k))
    ordered = np.take_along_axis(x, order, axis=1)
    differs = ordered[:, 1:] != ordered[:, :-1]
    tied = ~differs.all(axis=1)
    if tied.any():
        sorted_ranks = sorted_ranks.copy()
        sorted_ranks[tied] = _average_ranks(differs[tied])
    ranks = np.empty((n, k))
    np.put_along_axis(ranks, order, sorted_ranks, axis=1)
    return ranks


class TestRowRanksFlatIndices:
    @given(st.sampled_from(["continuous", "integer", "signed_zeros", "all_equal", "one_tie"]),
           st.sampled_from([1, 2, 751]), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_along_axis_implementation_bit_for_bit(self, kind, k, n, seed):
        x = score_rows(kind, n, k, seed)
        assert np.array_equal(row_ranks(x), along_axis_row_ranks(x))


# a 3-class toy: rows whose softmax ties no two classes, and all-in-one's
# logits with the extra class's column appended
TOY = np.array([[0.3, -1.2, 2.0], [1.5, 0.2, -0.4], [-0.7, 0.9, 0.1], [0.0, 1e-3, -1e-3]])
TOY_WITH_EXTRA = np.hstack([TOY, [[0.5], [-2.0], [1.0], [0.0]]])
LABELLING = [s for s in Strategy if s is not Strategy.BASELINE]
RANK_WEIGHTED = [s for s, scheme in SCHEMES.items() if scheme.rule is Rule.RANK]


def toy_logits(strategy):
    return TOY_WITH_EXTRA if strategy is Strategy.ALL_IN_ONE else TOY


class TestVirtualLabels:
    def test_rows_equal_the_per_vector_builders(self):
        assert all(np.unique(softmax(x)).size == 3 for x in TOY)
        expected = {
            Strategy.ALL_IN_ONE: [all_in_one_label(3)] * len(TOY),
            Strategy.LSRO: [lsro_label(3)] * len(TOY),
            Strategy.ONE_HOT_PSEUDO: [one_hot_pseudo_label(softmax(x)) for x in TOY],
        } | {s: [mprl_rows(mprl_alpha(softmax(x))) for x in TOY] for s in RANK_WEIGHTED}
        assert set(expected) == set(LABELLING)
        for strategy, rows in expected.items():
            np.testing.assert_array_equal(virtual_labels(strategy, toy_logits(strategy)),
                                          np.stack(rows), err_msg=strategy.value)

    def test_equal_logits(self):
        equal = np.full((2, 3), 0.7)
        for strategy in RANK_WEIGHTED:
            np.testing.assert_array_equal(virtual_labels(strategy, equal),
                                          np.stack([lsro_label(3)] * 2))
        np.testing.assert_array_equal(virtual_labels(Strategy.ONE_HOT_PSEUDO, equal),
                                      [[1, 0, 0], [1, 0, 0]])

    @pytest.mark.parametrize("strategy", LABELLING)
    def test_every_row_has_mass_one_and_the_logits_width(self, strategy):
        logits = np.random.default_rng(3).normal(0, 4, size=(6, 9))
        rows = virtual_labels(strategy, logits)
        assert rows.shape == logits.shape and rows.dtype == np.float64
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=1e-15)
        assert np.all(rows >= 0)

    def test_fixed_rows_are_broadcast_read_only(self):
        for strategy in (Strategy.LSRO, Strategy.ALL_IN_ONE):
            rows = virtual_labels(strategy, np.zeros((5, 4)))
            assert not rows.flags.writeable and rows.strides[0] == 0

    def test_a_string_names_its_strategy(self):
        np.testing.assert_array_equal(virtual_labels("all_in_one", TOY_WITH_EXTRA),
                                      virtual_labels(Strategy.ALL_IN_ONE, TOY_WITH_EXTRA))

    def test_baseline_and_non_matrix_logits_rejected(self):
        with pytest.raises(InvalidConfig, match="baseline"):
            virtual_labels(Strategy.BASELINE, TOY)
        with pytest.raises(InvalidDimension):
            virtual_labels(Strategy.LSRO, TOY[0])

    @pytest.mark.parametrize("k", [3, 751])
    def test_permutation_logits_rank_to_p_plus_one(self, k):
        rng = np.random.default_rng(k)
        perms = np.stack([rng.permutation(k) for _ in range(5)])
        for strategy in RANK_WEIGHTED:
            np.testing.assert_array_equal(virtual_labels(strategy, perms), mprl_rows(perms + 1.0))
