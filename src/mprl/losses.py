"""Forward losses and backward gradients for real and generated samples.

Every label in play is a plain weight row over the classifier head (see
:mod:`mprl.labels`), so one operation covers them all: the cross-entropy
of a logit row against a weight row, -sum_k w_k log softmax(x)_k.
:func:`weighted_ce` evaluates it for a whole (B, width) batch at once;
:func:`combined_loss` reduces a mini-batch with it, and the per-vector
losses (``real_ce_loss``, ``lsro_loss``, ``mprl_generated_loss``) are
one-row calls into it.  Real samples carry one-hot weights; generated
samples carry their virtual label, whose weights for multi-pseudo
(rank-weighted) labels are normalized by 2/(1+K); the generated-sample
loss is scaled by a trade-off factor against the real-sample loss.

Two gradient modes exist for the rank-weighted generated loss:

* ANALYTIC: the true derivative of the forward value with the rank
  weights held fixed (they are piecewise constant in the logits, so no
  gradient flows through the ranking).
* DIAGONAL: keeps only the diagonal of the log-softmax Jacobian, i.e.
  treats each log-probability as a function of its own logit alone.  It
  is *not* the derivative of the forward value; every entry is strictly
  negative.  Provided for fidelity comparisons, selectable but never the
  default.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidClass, InvalidConfig, InvalidDimension
from .labels import check_logits, mprl_rows


class GradientMode(str, Enum):
    ANALYTIC = "analytic"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class LossConfig:
    """Loss hyperparameters.

    ``gen_weight`` trades off generated-sample loss against real-sample
    loss (1.0 unless a training schedule says otherwise).
    """

    n_classes: int
    gen_weight: float = 1.0
    gradient_mode: GradientMode = GradientMode.ANALYTIC

    def __post_init__(self):
        if self.n_classes < 1:
            raise InvalidConfig("n_classes must be >= 1")
        if not (np.isfinite(self.gen_weight) and self.gen_weight >= 0.0):
            raise InvalidConfig("gen_weight must be finite and >= 0")


@dataclass(frozen=True)
class LossOutput:
    value: float
    grad_logits: np.ndarray


def weighted_ce(logits, weights, one_hot=None, diagonal=None) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of every logit row against its weight row.

    ``logits`` and ``weights`` are (B, width).  Row i's value is
    -sum_k W_ik log softmax(X_i)_k = sum_k W_ik (log t_i - z_ik), with
    z_i = X_i - max(X_i) and t_i = sum_k exp(z_ik), and its gradient is
    sum(W_i) p_i - W_i, the derivative of that value with the weights held
    fixed.  Rows flagged in the boolean mask ``diagonal`` get the diagonal
    gradient -W_i (1 - p_i) instead.  Rows flagged in ``one_hot`` must
    carry one-hot weights, at class c; their sums collapse to the value
    log t_i - z_ic and the gradient p_i - e_c, bit for bit, since the row
    sums to exactly 1 and every other product is +0.  Where c holds the
    top logit the value is log1p(sum of the other classes' exp(x_j - x_c)),
    which stays accurate, and strictly positive, at margins where the
    log-sum-exp form cancels to zero.  Returns the values (B,) and the
    gradients (B, width).
    """
    rows, cls = _one_hot_classes(weights, one_hot)
    return _kernel(logits, weights, rows, cls, diagonal)


def weighted_ce_values(logits, weights, one_hot=None) -> np.ndarray:
    """The values (B,) of :func:`weighted_ce`, bit for bit, without its gradients."""
    rows, cls = _one_hot_classes(weights, one_hot)
    z, e, total = _softmax_terms(logits)
    return _values(z, e, total, weights, rows, cls)


def _one_hot_classes(weights, one_hot) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the rows flagged in ``one_hot`` and each one's class."""
    if one_hot is None:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    rows = np.flatnonzero(one_hot)
    return rows, np.argmax(weights[rows], axis=1)


def _softmax_terms(logits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z = logits - row max, exp(z) and the row sums t of exp(z), (B, 1)."""
    z = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(z)
    return z, e, np.sum(e, axis=1, keepdims=True)


def _values(z, e, total, weights, rows, cls) -> np.ndarray:
    """Row values from the softmax terms; ``rows`` are one-hot at ``cls``."""
    log_total = np.log(total)
    if rows.size == 0:  # every row dense: no row subsets to copy
        return np.sum(weights * (log_total - z), axis=1)
    values = np.empty(z.shape[0])
    dense = _dense_rows(z.shape[0], rows)
    if dense.any():
        values[dense] = np.sum(weights[dense] * (log_total[dense] - z[dense]), axis=1)
    z_class = z[rows, cls]
    values[rows] = log_total[rows, 0] - z_class
    top = z_class == 0.0
    if top.any():
        rows, cls = rows[top], cls[top]
        # the other classes of each row, in order, as one contiguous
        # (n, width - 1) block, so the pairwise sum adds them as it always has
        others = np.ones((rows.size, z.shape[1]), dtype=bool)
        others[np.arange(rows.size), cls] = False
        values[rows] = np.log1p(np.sum(e[rows][others].reshape(rows.size, -1), axis=1))
    return values


def _kernel(logits, weights, rows, cls, diagonal) -> tuple[np.ndarray, np.ndarray]:
    """:func:`weighted_ce` once the one-hot ``rows`` and their classes are known."""
    z, e, total = _softmax_terms(logits)
    values = _values(z, e, total, weights, rows, cls)
    # p = softmax, computed over e (spent once the values are in); each
    # row of it then becomes that row's gradient
    grads = np.divide(e, total, out=e)
    diagonal_rows = None
    if diagonal is not None and diagonal.any():
        diagonal_rows = -weights[diagonal] * (1.0 - grads[diagonal])
    dense = _dense_rows(z.shape[0], rows)
    if dense.any():
        w = weights[dense]
        grads[dense] = np.sum(w, axis=1, keepdims=True) * grads[dense] - w
    grads[rows, cls] -= 1.0
    if diagonal_rows is not None:
        grads[diagonal] = diagonal_rows
    return values, grads


def _dense_rows(n: int, rows: np.ndarray) -> np.ndarray:
    """Boolean mask of the n rows not listed in the one-hot ``rows``."""
    dense = np.ones(n, dtype=bool)
    dense[rows] = False
    return dense


def _one_row(x: np.ndarray, w: np.ndarray, one_hot=False, diagonal=False) -> LossOutput:
    values, grads = weighted_ce(x[None, :], w[None, :], np.array([one_hot]),
                                np.array([diagonal]))
    return LossOutput(float(values[0]), grads[0])


def real_ce_loss(logits, class_index: int) -> LossOutput:
    """Softmax cross-entropy for a real sample.

    ``class_index`` is the 0-based position of the ground-truth class.
    Value: -log p_c = log sum_j exp(x_j - x_c); gradient: p - onehot(c).
    The value goes through log1p when the target class dominates, so it
    stays accurate (and strictly positive) even at huge margins where
    the naive -x_c + logsumexp form cancels to zero.
    """
    x = check_logits(logits)
    if not 0 <= class_index < x.size:
        raise InvalidClass(f"class index {class_index} outside 0..{x.size - 1}")
    w = np.zeros(x.size)
    w[class_index] = 1.0
    return _one_row(x, w, one_hot=True)


def lsro_loss(logits) -> LossOutput:
    """Cross-entropy against the uniform 1/K target.

    Value: -(1/K) sum_k log p_k; gradient: p - 1/K, which sums to zero.
    """
    x = check_logits(logits)
    return _one_row(x, np.full(x.size, 1.0 / x.size))


def mprl_generated_loss(logits, ranks, cfg: LossConfig) -> LossOutput:
    """Rank-weighted cross-entropy for a generated sample.

    ``ranks`` is the 1..K rank vector of :func:`mprl.labels.mprl_alpha`.
    Value: -gen_weight * 2/(1+K) * sum_k (rank_k / K) * log p_k.  The
    gradient follows ``cfg.gradient_mode``; rank weights are constants
    during differentiation.
    """
    x = check_logits(logits)
    r = np.asarray(ranks, dtype=np.float64)
    if r.shape != x.shape or x.size != cfg.n_classes:
        raise InvalidDimension(
            f"logits {x.shape}, ranks {r.shape} and config "
            f"({cfg.n_classes}) disagree on the class count"
        )
    w = mprl_rows(r)
    out = _one_row(x, w, diagonal=cfg.gradient_mode is GradientMode.DIAGONAL)
    return LossOutput(cfg.gen_weight * out.value, cfg.gen_weight * out.grad_logits)


@dataclass(frozen=True)
class CombinedLoss:
    """Aggregate loss over one mini-batch with per-sample gradients.

    ``real_loss`` is the mean cross-entropy over real items; ``gen_loss``
    the mean virtual-label loss over generated items *before* the
    gen_weight factor (so it is 0.0 when the epoch gate is closed).
    ``value`` = real_loss + gen_weight * gen_loss.  Row i of
    ``grad_logits`` is d(value)/d(logits of item i), so the mean
    reduction and gen_weight are already folded in.
    """

    value: float
    real_loss: float
    gen_loss: float
    n_real: int
    n_generated: int
    grad_logits: np.ndarray


def combined_loss(logits, weights, generated, cfg: LossConfig,
                  gate_active: bool = True) -> CombinedLoss:
    """Mini-batch loss of a (B, width) logit matrix against (B, width) weight rows.

    ``generated`` is a boolean mask of length B.  Real rows must carry
    one-hot weights at their class.  Generated rows carry their virtual
    label's weights, normalized: multi-pseudo rows already include the
    2/(1+K) factor (see :func:`mprl.labels.mprl_rows`).  When
    ``cfg.gradient_mode`` is DIAGONAL every generated row gets the
    diagonal gradient.  Reduction is per-origin mean, then
    value = mean(real) + gen_weight * mean(generated), so the trade-off
    factor keeps its meaning regardless of batch composition.  When
    ``gate_active`` is False, generated items contribute exactly zero
    loss and gradient (gradient rows are hard zeros).
    """
    x = np.asarray(logits, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    gen = np.asarray(generated, dtype=bool)
    if x.ndim != 2 or x.size == 0:
        raise InvalidDimension("batch must contain at least one item")
    if w.shape != x.shape or gen.shape != x.shape[:1]:
        raise InvalidDimension(
            f"logits {x.shape}, weights {w.shape} and generated mask {gen.shape} "
            "disagree on the batch shape"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise InvalidDimension("logits and weights must be finite")
    real = ~gen
    rows = np.flatnonzero(real)
    hot = w[rows]
    cls = np.argmax(hot, axis=1)
    is_one = hot[np.arange(rows.size), cls] == 1.0
    # a 1.0 in every row and no other nonzero entry: each row is one-hot
    if not (is_one.all() and np.count_nonzero(hot) == rows.size):
        not_one_hot = (np.count_nonzero(hot, axis=1) != 1) | ~is_one
        row = int(rows[np.argmax(not_one_hot)])
        raise InvalidClass(f"row {row}: real row must carry one-hot weights")
    n_real = rows.size
    n_generated = x.shape[0] - n_real

    diagonal = gen if cfg.gradient_mode is GradientMode.DIAGONAL else None
    values, grads = _kernel(x, w, rows, cls, diagonal)
    if n_real:
        grads[real] /= n_real
    if gate_active and n_generated:
        grads[gen] *= cfg.gen_weight / n_generated
    else:
        grads[gen] = 0.0

    real_loss = float(np.sum(values[real])) / n_real if n_real else 0.0
    gen_loss = float(np.sum(values[gen])) / n_generated if (n_generated and gate_active) else 0.0
    value = real_loss + cfg.gen_weight * gen_loss
    return CombinedLoss(value, real_loss, gen_loss, n_real, n_generated, grads)
