"""Central finite-difference verification of the analytic loss gradients.

Each trial draws logits from Normal(0, 3), evaluates the analytic
gradient of one loss, and compares it against central differences of the
forward value.  The error metric per trial is

    max_k |analytic_k - fd_k| / max(max_k |analytic_k|, max_k |fd_k|)

i.e. the worst coordinate disagreement relative to the gradient's own
largest component.  The diagonal gradient mode is measured against the
analytic one and reported as a divergence, never as a failure: it is a
different formula, not a broken implementation.  The 2K perturbed points
of one central difference are evaluated as batches of kernel rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig
from .labels import lsro_label, mprl_alpha, mprl_rows, softmax
from .losses import (
    lsro_loss,
    mprl_generated_loss,
    real_ce_loss,
    weighted_ce_values,
)

DEFAULT_K_VALUES = (2, 5, 10, 751)
DEFAULT_STEP = 1e-6
DEFAULT_TOLERANCE = 1e-6
LOGIT_SIGMA = 3.0
# coordinates perturbed per kernel call; larger blocks run no faster at
# K=751 and hold (2 * FD_BLOCK, K) temporaries, which show in peak memory
FD_BLOCK = 8


def finite_difference_gradient(fn, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector.

    ``fn`` maps an (n, K) batch of points to their n values.  The 2K
    perturbed points x +- step * e_j go through it in batches of
    ``2 * FD_BLOCK`` rows.
    """
    x = np.array(x, dtype=np.float64)
    grad = np.empty_like(x)
    for start in range(0, x.size, FD_BLOCK):
        cols = np.arange(start, min(start + FD_BLOCK, x.size))
        rows = np.arange(cols.size)
        points = np.tile(x, (2 * cols.size, 1))
        points[rows, cols] = x[cols] + step
        points[rows + cols.size, cols] = x[cols] - step
        values = fn(points)
        grad[cols] = (values[:cols.size] - values[cols.size:]) / (2.0 * step)
    return grad


def _batch_values(cls: int, weights=None):
    """The forward value of one label's loss, at every point of a batch.

    The label is the one-hot row at class ``cls``, or with ``cls`` -1 the
    weight row ``weights``.  These are the kernel rows the per-vector
    losses evaluate: ``real_ce_loss`` is a one-hot row, ``lsro_loss`` the
    uniform row and ``mprl_generated_loss`` the normalized rank row.
    """
    def values(points):
        rows = None if weights is None else np.broadcast_to(weights, points.shape)
        return weighted_ce_values(points, np.full(points.shape[0], cls), rows)
    return values


def relative_gradient_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(fd))), 1e-300)
    return float(np.max(np.abs(analytic - fd))) / denom


@dataclass(frozen=True)
class GradCheckCase:
    loss_name: str
    n_classes: int
    trials: int
    max_rel_error: float
    passed: bool


@dataclass
class GradCheckReport:
    tolerance: float
    step: float
    cases: list[GradCheckCase] = field(default_factory=list)
    # max |diagonal - analytic| per class count, informational only
    diagonal_divergence: dict[int, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    def lines(self) -> list[str]:
        out = []
        for case in self.cases:
            status = "PASS" if case.passed else "FAIL"
            out.append(
                f"{status} {case.loss_name:<14} K={case.n_classes:<4} "
                f"trials={case.trials} max_rel_error={case.max_rel_error:.3e}"
            )
        for k, div in sorted(self.diagonal_divergence.items()):
            out.append(
                f"INFO diagonal-mode K={k}: max |diagonal - analytic| = {div:.3e} "
                "(different formula by construction, not checked against differences)"
            )
        return out


def run_gradcheck(
    k_values=DEFAULT_K_VALUES,
    trials: int = 100,
    tolerance: float = DEFAULT_TOLERANCE,
    step: float = DEFAULT_STEP,
    seed: int = 0,
) -> GradCheckReport:
    """Run the finite-difference suite over every loss and class count."""
    if trials < 1:
        raise InvalidConfig("trials must be >= 1")
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise InvalidConfig(f"tolerance must be finite and > 0, got {tolerance!r}")
    # Freeing one block too large for the malloc heap makes glibc raise its
    # heap-trim threshold.  Without it, whether the (2 * FD_BLOCK, K)
    # temporaries of every kernel call go back to the system and fault in
    # again depends on the heap layout, which doubled the K=751 run time in
    # about half of the checkout paths tried.
    np.empty(1 << 17)
    report = GradCheckReport(tolerance=tolerance, step=step)
    rng = np.random.default_rng(seed)
    for k in k_values:
        worst: dict[str, float] = {}
        diag_div = 0.0
        for _ in range(trials):
            x = rng.normal(0.0, LOGIT_SIGMA, size=k)
            c = int(rng.integers(k))
            ranks = mprl_alpha(softmax(x))
            mprl_out = mprl_generated_loss(x, ranks)
            # (name, analytic output, the class or weight row it differentiates)
            cases = (
                ("real_ce", real_ce_loss(x, c), c, None),
                ("lsro", lsro_loss(x), -1, lsro_label(k)),
                ("mprl_analytic", mprl_out, -1, mprl_rows(ranks)),
            )
            for name, out, cls, row in cases:
                fd = finite_difference_gradient(_batch_values(cls, row), x, step)
                worst[name] = max(worst.get(name, 0.0),
                                  relative_gradient_error(out.grad_logits, fd))

            diag = mprl_generated_loss(x, ranks, diagonal=True)
            diag_div = max(diag_div,
                           float(np.max(np.abs(diag.grad_logits - mprl_out.grad_logits))))

        for name, err in worst.items():
            report.cases.append(GradCheckCase(name, k, trials, err, err < tolerance))
        report.diagonal_divergence[k] = diag_div
    return report
