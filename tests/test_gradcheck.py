"""The finite-difference suite: its block rule, its inputs and its verdicts."""

import math

import numpy as np
import pytest

from mprl import gradcheck
from mprl.cli import main
from mprl.errors import InvalidConfig
from mprl.gradcheck import (
    FD_BLOCK_BYTES,
    HEAP_WARMUP_BYTES,
    block_coordinates,
    finite_difference_gradient,
    run_gradcheck,
)


class TestBlockRule:
    @pytest.mark.parametrize("k", [1, 2, 5, 10, 11, 100, 751, 5000, 10**6])
    def test_block_holds_as_many_coordinates_as_fit_the_budget(self, k):
        n = block_coordinates(k)
        assert 1 <= n <= k
        assert n == k or n == 1 or 16 * n * k <= FD_BLOCK_BYTES < 16 * (n + 1) * k

    @pytest.mark.parametrize("k", range(1, 11))
    def test_small_k_takes_every_coordinate_in_one_call(self, k):
        assert block_coordinates(k) == k

    @pytest.mark.parametrize("k", [2, 5, 10, 751])
    def test_block_points_stay_below_the_heap_warmup(self, k):
        # a block larger than the freed warm-up block would fall back to
        # page-faulting mmap allocations on every kernel call
        assert 2 * block_coordinates(k) * k * 8 < HEAP_WARMUP_BYTES

    @pytest.mark.parametrize("k", [1, 10, 751])
    def test_kernel_calls_per_gradient(self, k):
        heights = []

        def values(points):
            heights.append(len(points))
            return points.sum(1)

        finite_difference_gradient(values, np.zeros(k))
        n = block_coordinates(k)
        assert len(heights) == math.ceil(k / n)
        assert max(heights) == 2 * n and sum(heights) == 2 * k

    @pytest.mark.parametrize("k", [3, 751])
    def test_one_sweep_per_trial_scores_all_three_cases(self, monkeypatch, k):
        # 32 kernel calls per K = 751 trial, each against the three labels
        real = gradcheck.weighted_ce_values_by_label
        calls = []

        def counting(points, labels):
            calls.append([case_of(label) for label in labels])
            return real(points, labels)

        monkeypatch.setattr(gradcheck, "weighted_ce_values_by_label", counting)
        assert run_gradcheck(k_values=(k,), trials=2).passed
        assert len(calls) == 2 * math.ceil(k / block_coordinates(k))
        assert all(cases == list(gradcheck.CASES) for cases in calls)


def case_of(label):
    """The checked loss a label of a gradcheck sweep differentiates."""
    if np.ndim(label) == 0:
        return "real_ce"
    return "lsro" if np.all(label == label[0]) else "mprl_analytic"


def nan_on_call(calls, name):
    """A stand-in for ``gradcheck.weighted_ce_values_by_label`` whose values
    for the loss ``name`` are NaN throughout its ``calls``-th sweep (one
    sweep per trial, one labels tuple per sweep)."""
    real = gradcheck.weighted_ce_values_by_label
    sweeps = []

    def values_by_label(points, labels):
        if not sweeps or sweeps[-1] is not labels:
            sweeps.append(labels)
        values = real(points, labels)
        if len(sweeps) == calls:
            values[:, [case_of(label) == name for label in labels]] = np.nan
        return values
    return values_by_label


class TestNonFiniteErrors:
    @pytest.mark.parametrize("name", ["real_ce", "lsro", "mprl_analytic"])
    @pytest.mark.parametrize("trial", [1, 3])
    def test_a_nan_gradient_fails_its_case(self, monkeypatch, name, trial):
        # a NaN in the first trial stays the worst error through later
        # finite ones, as it does in the last trial
        monkeypatch.setattr(gradcheck, "weighted_ce_values_by_label",
                            nan_on_call(trial, name))
        report = run_gradcheck(k_values=(3,), trials=3)
        assert not report.passed
        for case in report.cases:
            assert case.passed == (case.loss_name != name)
            assert math.isnan(case.max_rel_error) == (case.loss_name == name)
        failing = [line for line in report.lines() if line.startswith("FAIL")]
        assert len(failing) == 1 and name in failing[0]
        assert failing[0].endswith("max_rel_error=nan")

    def test_the_cli_exits_three_and_prints_nan(self, monkeypatch, capsys):
        monkeypatch.setattr(gradcheck, "weighted_ce_values_by_label", nan_on_call(1, "lsro"))
        assert main(["gradcheck", "--k", "3", "--trials", "2"]) == 3
        out = capsys.readouterr().out
        assert "FAIL lsro" in out and "max_rel_error=nan" in out
        assert "gradcheck FAILED" in out

    def test_an_infinite_error_fails_and_prints_inf(self, monkeypatch):
        monkeypatch.setattr(gradcheck, "relative_gradient_error", lambda a, fd: math.inf)
        report = run_gradcheck(k_values=(3,), trials=1)
        assert not report.passed
        assert all(line.endswith("max_rel_error=inf") for line in report.lines()
                   if not line.startswith("INFO"))

    def test_a_nan_diagonal_divergence_is_kept(self, monkeypatch):
        real = gradcheck.mprl_generated_loss
        calls = []

        def nan_once(x, ranks, diagonal=False):
            out = real(x, ranks, diagonal)
            if diagonal:
                calls.append(1)
                if len(calls) == 1:
                    return type(out)(out.value, np.full_like(out.grad_logits, np.nan))
            return out

        monkeypatch.setattr(gradcheck, "mprl_generated_loss", nan_once)
        report = run_gradcheck(k_values=(3,), trials=3)
        assert math.isnan(report.diagonal_divergence[3])
        # informational only: the checked cases still pass
        assert report.passed
        assert any("max |diagonal - analytic| = nan" in line for line in report.lines())


class TestInputs:
    @pytest.mark.parametrize("step", [0.0, -1e-6, math.nan, math.inf, -math.inf])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(InvalidConfig, match="step must be finite and > 0"):
            run_gradcheck(k_values=(3,), trials=1, step=step)
