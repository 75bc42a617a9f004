"""Central finite-difference verification of the analytic loss gradients.

Each trial draws logits from Normal(0, 3), evaluates the analytic
gradients of the three checked losses (``CASES``: the real sample's
cross-entropy, LSRO's and the rank-weighted one), and compares each
against central differences of its forward value.  The error metric per
trial is

    max_k |analytic_k - fd_k| / max(max_k |analytic_k|, max_k |fd_k|)

i.e. the worst coordinate disagreement relative to the gradient's own
largest component.  The diagonal gradient mode is measured against the
analytic one and reported as a divergence, never as a failure: it is a
different formula, not a broken implementation.  A NaN or infinite
error fails its case and prints as ``nan`` or ``inf``; a NaN divergence
is kept as well.

One sweep per trial serves all three cases: the 2K perturbed points of
one central difference are evaluated as blocks of kernel rows, built in
place in one buffer, and :func:`mprl.losses.weighted_ce_values_by_label`
scores each block against the trial's one-hot, LSRO and rank-weighted
labels at once, with one softmax per point.  A block holds as many
coordinates n as fit its (2n, K) points in ``FD_BLOCK_BYTES``: every
coordinate in one call up to K = 135, and 24 at K = 751, so 32 kernel
calls per K = 751 trial.  A call holds two more buffers of a block's
size, z = x - max and exp(z), and each weighted label's terms reuse
exp(z)'s buffer once the one-hot label has read it.  So the budget is set
by peak memory, and fixed per-call costs fall with every coordinate a
block gains.

:func:`run_gradcheck` runs under :func:`mprl.retrieval.small_ufunc_buffer`:
numpy copies a broadcast operand (each block's (2n, 1) row maxima, its
weight row) into its ufunc buffer whenever two rows fit there, which at
the default 8192 elements made every pass over a block of K = 751 points
about 2-3x slower.
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
    weighted_ce_values_by_label,
)
from .retrieval import small_ufunc_buffer

DEFAULT_K_VALUES = (2, 5, 10, 751)
DEFAULT_STEP = 1e-6
DEFAULT_TOLERANCE = 1e-6
LOGIT_SIGMA = 3.0
# bytes of one block's (2n, K) perturbed points (288 KiB: 24 coordinates
# at K = 751).  The kernel's values-only pass holds two more buffers of
# that size; the widest budget tried whose K = 751 peak memory stayed
# within 2% of 8-coordinate blocks.
FD_BLOCK_BYTES = 9 << 15
# the block run_gradcheck frees first, so that glibc keeps every buffer of
# a block's size on its heap
HEAP_WARMUP_BYTES = 2 * FD_BLOCK_BYTES
# the checked losses, in the order of each trial's labels: the one-hot row
# at the trial's class, LSRO's uniform row and the normalized rank row
CASES = ("real_ce", "lsro", "mprl_analytic")


def block_coordinates(k: int) -> int:
    """Coordinates perturbed per kernel call at K = ``k``: as many as fit
    their (2n, k) float64 points in ``FD_BLOCK_BYTES``, at least 1 and at
    most ``k``."""
    return min(max(FD_BLOCK_BYTES // (16 * k), 1), k)


def finite_difference_gradient(fn, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector, or
    the gradients of L such functions at once.

    ``fn`` maps an (m, K) batch of points to their m values, or to (m, L)
    values, one column per function; the result is then (L, K), one
    gradient per row.  The 2K perturbed points x +- step * e_j go through
    it in batches of 2n rows, n = :func:`block_coordinates` (K): the first
    half of a batch adds ``step`` to coordinates start, start + 1, ... in
    turn, the second half subtracts it.  Every batch is a view of one
    buffer of copies of ``x``, whose perturbed entries are set before
    ``fn`` and reset after it.
    """
    x = np.array(x, dtype=np.float64)
    k = x.size
    block = block_coordinates(k)
    grad = None
    points = np.empty((2 * block, k))
    points[:] = x
    flat = points.reshape(-1)
    for start in range(0, k, block):
        n = min(block, k - start)
        # row i of each half perturbs coordinate start + i: the entries
        # one row and one column apart in the flat buffer
        plus = slice(start, start + n * (k + 1), k + 1)
        minus = slice(n * k + start, n * k + start + n * (k + 1), k + 1)
        flat[plus] = x[start:start + n] + step
        flat[minus] = x[start:start + n] - step
        values = fn(points[:2 * n])
        flat[plus] = flat[minus] = x[start:start + n]
        if grad is None:
            grad = np.empty(values.shape[1:] + (k,))
        grad[..., start:start + n] = ((values[:n] - values[n:]) / (2.0 * step)).T
    return grad


def relative_gradient_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    """The worst coordinate disagreement relative to the larger gradient's
    largest component; NaN when either gradient holds a NaN."""
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


@small_ufunc_buffer()
def run_gradcheck(
    k_values=DEFAULT_K_VALUES,
    trials: int = 100,
    tolerance: float = DEFAULT_TOLERANCE,
    step: float = DEFAULT_STEP,
    seed: int = 0,
) -> GradCheckReport:
    """Run the finite-difference suite over every loss and class count,
    under :func:`small_ufunc_buffer`."""
    if trials < 1:
        raise InvalidConfig("trials must be >= 1")
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise InvalidConfig(f"tolerance must be finite and > 0, got {tolerance!r}")
    if not (np.isfinite(step) and step > 0):
        raise InvalidConfig(f"step must be finite and > 0, got {step!r}")
    # Freeing one block too large for the malloc heap makes glibc raise its
    # mmap and heap-trim thresholds past that block's size.  Without it,
    # whether the block-sized temporaries of every kernel call go back to
    # the system and fault in again depends on the heap layout, which
    # doubled the K=751 run time in about half of the checkout paths tried.
    np.empty(HEAP_WARMUP_BYTES // 8)
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
            labels = (c, lsro_label(k), mprl_rows(ranks))
            # one sweep: the differences of all three losses, in CASES order
            fds = finite_difference_gradient(
                lambda points: weighted_ce_values_by_label(points, labels), x, step)
            analytic = (real_ce_loss(x, c), lsro_loss(x), mprl_out)
            for name, out, fd in zip(CASES, analytic, fds):
                # np.maximum keeps a NaN, where max would keep whichever came first
                worst[name] = float(np.maximum(worst.get(name, 0.0),
                                               relative_gradient_error(out.grad_logits, fd)))

            diag = mprl_generated_loss(x, ranks, diagonal=True)
            diag_div = float(np.maximum(
                diag_div, np.max(np.abs(diag.grad_logits - mprl_out.grad_logits))))

        for name, err in worst.items():
            report.cases.append(GradCheckCase(name, k, trials, err, err < tolerance))
        report.diagonal_divergence[k] = diag_div
    return report
