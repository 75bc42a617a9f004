"""Forward losses and backward gradients for real and generated samples.

Every label in play is a plain weight row over the classifier head (see
:mod:`mprl.labels`), so one operation covers them all: the cross-entropy
of a logit row against a weight row, -sum_k w_k log softmax(x)_k.
:func:`weighted_ce` evaluates it for a whole (B, width) batch at once;
:func:`combined_loss` reduces a mini-batch with it, and the per-vector
losses (``real_ce_loss``, ``lsro_loss``, ``mprl_generated_loss``) are
one-row calls into it.  :func:`weighted_ce_values_by_label` scores a
batch against several labels, given in the same classes-and-weights
form, from one softmax per row.  A real sample is given by its class,
whose one-hot row is scored without ever being built; a generated
sample carries its virtual label's weight row, which
for multi-pseudo (rank-weighted) labels is normalized by 2/(1+K).  Only
the batch reduction scales the generated-sample loss, by the trade-off
factor ``gen_weight`` against the real-sample loss; ``gen_weights=None``
leaves the generated rows unscored, as behind a closed warm-up gate.

Every gradient is the derivative of its loss's value with the weights
held fixed: the rank weights are piecewise constant in the logits, so no
gradient flows through the ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidClass, InvalidDimension
from .labels import check_logits, logit_rows, mprl_rows


@dataclass(frozen=True)
class LossOutput:
    value: float
    grad_logits: np.ndarray


def weighted_ce(logits, classes, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of every logit row against its label.

    ``logits`` is (B, width) and ``classes`` (B,) names each row's label:
    a class c in 0..width-1 is the one-hot row at c, and -1 marks a
    weighted row, whose weights are the next row of ``weights`` (G, width):
    one row per -1, in batch order, and None when there is no -1.  Row i's
    value is -sum_k W_ik log softmax(X_i)_k = sum_k W_ik (log t_i - z_ik),
    with z_i = X_i - max(X_i) and t_i = sum_k exp(z_ik), and its gradient
    is sum(W_i) p_i - W_i, the derivative of that value with the weights
    held fixed.  A one-hot row at c is scored in collapsed form, value
    log t_i - z_ic and gradient p_i - e_c: the
    weighted form bit for bit, since the row sums to exactly 1 and every
    other product is +0.  Where c holds the top logit the value is
    log1p(sum of the other classes' exp(x_j - x_c)), which stays accurate,
    and strictly positive, at margins where the log-sum-exp form cancels
    to zero.  Returns the values (B,) and the gradients (B, width).
    """
    x = logit_rows(logits)
    rows, cls, dense = _label_rows(classes, x.shape)
    w = _weight_rows(weights, dense.size, x.shape[1])
    v_rows, v_dense, grads, dense_grads = _kernel(x, x.max(1), rows, cls, dense, w)
    if dense_grads is not None:
        grads[dense] = dense_grads
    if not dense.size:
        return v_rows, grads
    if not rows.size:
        return v_dense, grads
    values = np.empty(len(x))
    values[rows] = v_rows
    values[dense] = v_dense
    return values, grads


def weighted_ce_values_by_label(logits, classes, weights=None) -> np.ndarray:
    """The values (B, L) of every logit row against each of L labels.

    The labels are given as :func:`weighted_ce` gives its rows' labels:
    ``classes`` (L,) holds a class c in 0..width-1 for the one-hot row at
    c, or -1 for the next row of ``weights`` (G, width), one row per -1
    in label order and None when there is no -1.  Every row of
    ``logits`` (B, width) is scored against every label, and column j
    equals the values of :func:`weighted_ce` with every row labelled j,
    bit for bit: it runs the same one-hot and weighted tails, but the row
    maxima, exp, row totals and their logs are computed once for all L
    labels.  Beside ``logits`` a call holds two (B, width) buffers,
    z = x - max and exp(z).  The one-hot labels are scored first, since a
    class that holds a row's top logit reads the other classes' exp (a
    gather of those rows while it is summed); then each weighted label's
    terms are formed in exp(z)'s buffer.
    """
    x = logit_rows(logits)
    n, width = x.shape
    one_hot, cls, dense = _label_rows(classes, (np.size(classes), width), "label")
    w = _weight_rows(weights, dense.size, width)
    z, e, _, log_total = _exp_rows(x, x.max(1))
    values = np.empty((n, one_hot.size + dense.size))
    every_row = np.arange(n)
    for j, c in zip(one_hot.tolist(), cls.tolist()):
        values[:, j] = _one_hot_values(z[:, c], log_total, e, every_row, np.full(n, c))
    for j, row in zip(dense.tolist(), () if w is None else w):
        values[:, j] = _weighted_values(z, log_total, row, out=e)
    return values


def _label_rows(classes, shape, item="row") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positions of the one-hot rows, their classes, and the positions
    of the weighted (-1) rows.  ``shape`` is (n, width) for n classes of
    width ``width``; messages name a class's ``item`` (a row, or a label)."""
    n, width = shape
    c = np.asarray(classes)
    if c.shape != (n,) or (n and c.dtype.kind not in "iu"):
        raise InvalidDimension(f"classes must be {n} integers, one per {item}, "
                               f"got {c.dtype} of shape {c.shape}")
    # argmin and argmax skip min and max's ufunc reduction overhead
    if n and (c[c.argmin()] < -1 or c[c.argmax()] >= width):
        at = int(np.argmax((c < -1) | (c >= width)))
        raise InvalidClass(f"{item} {at}: class {c[at]} outside 0..{width - 1} "
                           f"(or -1 for a weighted {item})")
    weighted = c < 0
    rows = (~weighted).nonzero()[0]
    return rows, c[rows], weighted.nonzero()[0]


def _weight_rows(weights, n_dense: int, width: int) -> np.ndarray | None:
    """The (n_dense, width) weights of the n_dense classes of -1; None when
    there is none."""
    if weights is None:
        if n_dense:
            raise InvalidDimension(f"{n_dense} classes of -1 need weight rows")
        return None
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n_dense, width):
        raise InvalidDimension(f"weights {w.shape} do not match the {n_dense} classes "
                               f"of -1 at width {width}")
    return w if n_dense else None


def _kernel(x, top, rows, cls, dense, weights):
    """The one cross-entropy kernel behind every loss here.

    ``x`` is the C-contiguous (B, width) batch, so its buffers are too and
    their rows are summed the same way whatever the caller's layout, and
    ``top`` its (B,) row maxima;
    ``rows`` and ``cls`` are the one-hot rows and their classes, ``dense``
    the weighted rows and ``weights`` their weights, or None to leave
    them unscored.  Returns the one-hot rows' values (None without one-hot
    rows), the weighted rows' values (None without weights), the
    (B, width) softmax buffer holding each one-hot row's gradient, and the
    weighted rows' gradients (None without weights).  Rows never mix, so
    a row's results do not depend on the rows scored beside it, nor on
    the layout of ``weights``:
    a row is summed in its class order.  Up to the values, a call holds
    two (B, width) buffers beside ``x``, z = x - top and exp(z), and the
    top-class rows' gather of their other classes: the weighted rows'
    terms are formed in z's buffer, and z is released before that gather.
    """
    width = x.shape[1]
    if weights is not None and weights.strides[1] != weights.itemsize:
        # a row whose classes are not adjacent (a Fortran-ordered stack, as
        # np.concatenate makes of broadcast blocks) would be summed one term
        # at a time, not pairwise; broadcast rows are adjacent and stay uncopied
        weights = np.ascontiguousarray(weights)
    z, e, total, log_total = _exp_rows(x, top)
    v_rows = v_dense = at_class = None
    if rows.size:
        at_class = rows * width + cls  # each one-hot row's class in the flat buffer
        z_class = z.ravel()[at_class]
    # every row weighted: the whole buffer is theirs, no subset to gather
    every = dense.size == x.shape[0]
    if weights is not None:
        # the terms go in z's own buffer when every row is weighted (z is
        # spent after them), else in the weighted rows taken from it
        terms = z if every else z.take(dense, 0)
        v_dense = _weighted_values(terms, log_total if every else log_total[dense], weights,
                                   out=terms)
        del terms
    del z  # the rest reads e, the row totals and the classes' logits
    if rows.size:
        v_rows = _one_hot_values(z_class, log_total[rows], e, rows, cls)

    # p = softmax, computed over e (spent once the values are in)
    p = np.divide(e, total[:, None], out=e)
    dense_grads = None
    if weights is not None:
        p_dense = p if every else p.take(dense, 0)
        dense_grads = weights.sum(1)[:, None] * p_dense - weights
    if at_class is not None:
        p.ravel()[at_class] -= 1.0
    return v_rows, v_dense, p, dense_grads


def _exp_rows(x, top):
    """The passes every label of a row shares: z = x - top, e = exp(z),
    the row totals t of e and log t."""
    z = x - top[:, None]
    e = np.exp(z)
    total = e.sum(1)
    return z, e, total, np.log(total)


def _one_hot_values(z_class, log_total, e, rows, cls) -> np.ndarray:
    """The values log t - z_c of the one-hot rows ``rows`` at classes
    ``cls``, from their classes' z and their log totals, and the batch's
    exp buffer ``e``.  Where c holds the top logit (z_c == 0) the value is
    log1p of the other classes' sum instead."""
    values = log_total - z_class
    at_top = z_class == 0.0
    if at_top.any():
        # the other classes of each such row, in order, as one contiguous
        # (n, width - 1) block, so the pairwise sum adds them as it always has
        width = e.shape[1]
        top_rows = rows[at_top]
        others = np.arange(width) != cls[at_top][:, None]
        e_top = e if top_rows.size == len(e) else e.take(top_rows, 0)
        e_others = e_top[others].reshape(top_rows.size, width - 1)
        values[at_top] = np.log1p(e_others.sum(1))
    return values


def _weighted_values(z, log_total, weights, out) -> np.ndarray:
    """Each row's value sum_k W_k (log t - z_k), its terms formed in ``out``
    (z's own buffer, or one of its size); ``weights`` is one row per row
    of z, or one row for all of them."""
    np.subtract(log_total[:, None], z, out=out)
    out *= weights
    return out.sum(1)


def _one_row(x: np.ndarray, cls: int = -1, w: np.ndarray | None = None) -> LossOutput:
    values, grads = weighted_ce(x[None, :], np.array([cls]), None if w is None else w[None, :])
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
    return _one_row(x, class_index)


def lsro_loss(logits) -> LossOutput:
    """Cross-entropy against the uniform 1/K target.

    Value: -(1/K) sum_k log p_k; gradient: p - 1/K, which sums to zero.
    """
    x = check_logits(logits)
    return _one_row(x, w=np.full(x.size, 1.0 / x.size))


def mprl_generated_loss(logits, ranks) -> LossOutput:
    """Rank-weighted cross-entropy for a generated sample.

    ``ranks`` is the 1..K rank vector of :func:`mprl.labels.mprl_alpha`.
    Value: -2/(1+K) * sum_k (rank_k / K) * log p_k; gradient: sum(w) p - w
    for that weight row w, whose rank weights are constants during
    differentiation.  The ``gen_weight`` trade-off is
    :func:`combined_loss`'s alone.
    """
    x = check_logits(logits)
    r = np.asarray(ranks, dtype=np.float64)
    if r.shape != x.shape:
        raise InvalidDimension(f"logits {x.shape} and ranks {r.shape} disagree on the class count")
    return _one_row(x, w=mprl_rows(r))


@dataclass(frozen=True)
class CombinedLoss:
    """Aggregate loss over one mini-batch with per-sample gradients.

    ``real_loss`` is the mean cross-entropy over real items; ``gen_loss``
    the mean virtual-label loss over generated items *before* the
    gen_weight factor (so it is 0.0 when ``gen_weights`` is None).
    ``value`` = real_loss + gen_weight * gen_loss.  Row i of
    ``grad_logits`` is d(value)/d(logits of item i), so the mean
    reduction and gen_weight are already folded in.  For a stack of S
    batches (``members`` = S) the three losses are lists of S floats, one
    per member; ``n_real`` and ``n_generated`` count one member's rows.
    """

    value: float | list[float]
    real_loss: float | list[float]
    gen_loss: float | list[float]
    n_real: int
    n_generated: int
    grad_logits: np.ndarray


def combined_loss(logits, classes, gen_weights, gen_weight,
                  members: int | None = None) -> CombinedLoss:
    """Mini-batch loss of a (B, width) logit matrix against its rows' labels.

    ``classes`` (B,) holds each real row's 0-based class and -1 for a
    generated row.  ``gen_weights`` (G, width) holds the generated rows'
    virtual labels, one row per -1 in batch order; multi-pseudo rows
    already include the 2/(1+K) factor (see :func:`mprl.labels.mprl_rows`).
    With ``gen_weights`` None the generated rows are not scored, as behind
    a closed warm-up gate: their loss is 0 and their gradient rows are
    exactly +0.  Real rows are scored in :func:`weighted_ce`'s collapsed
    one-hot form.  Reduction is per-origin mean, then value = mean(real) +
    gen_weight * mean(generated), so the trade-off factor keeps its
    meaning regardless of batch composition.  A class outside
    0..width-1 (other than -1) raises ``InvalidClass`` naming its row.

    ``members`` = S scores the batches of S models at once, as stacked
    by :mod:`mprl.net`: ``logits`` is (S·B, width), member s's batch in
    rows s·B to (s+1)·B, and ``classes`` (B,) is every member's.
    ``gen_weights`` and ``gen_weight`` then hold one entry per member.
    Each member's means run over its own rows only, and its losses and
    gradient rows equal a call on its batch alone bit for bit.  Non-finite
    logits anywhere in the stack raise, and so does a non-finite weight
    row, naming its row of the stack.
    """
    if members is None:
        out = combined_loss(logits, classes, [gen_weights], [gen_weight], members=1)
        return CombinedLoss(out.value[0], out.real_loss[0], out.gen_loss[0], out.n_real,
                            out.n_generated, out.grad_logits)
    x = logit_rows(logits)
    if not len(x):
        raise InvalidDimension("batch must contain at least one item")
    if not members == len(gen_weights) == len(gen_weight):
        raise InvalidDimension(f"need gen_weights and gen_weight for each of {members} members")
    n, width = len(x) // members, x.shape[1]
    if n * members != len(x):
        raise InvalidDimension(f"{len(x)} logit rows do not split into {members} batches")
    rows, cls, gen = _label_rows(classes, (n, width))
    n_real = rows.size
    n_generated = gen.size
    weights = [None if w is None else _weight_rows(w, n_generated, width) for w in gen_weights]
    scored = [s for s, w in enumerate(weights) if w is not None]
    if members == 1:  # a lone batch: no stack to lay out
        w, dense = weights[0], gen
        idle = gen if w is None else gen[:0]
    else:
        offsets = np.arange(0, len(x), n)[:, None]
        rows = (offsets + rows).ravel()
        cls = np.repeat(cls[None, :], members, 0).ravel()
        at = offsets + gen  # each member's generated rows
        dense = at[scored].ravel()
        idle = at[[s for s in range(members) if s not in scored]].ravel()  # left unscored
        w = np.concatenate([weights[s] for s in scored]) if scored else None
    top = x.max(1)
    # a NaN or +inf shows in the row maxima, a -inf only in the minimum
    if not (math.isfinite(top.max()) and math.isfinite(x.min())):
        raise InvalidDimension("logits must be finite")
    if w is not None and not (math.isfinite(w.min()) and math.isfinite(w.max())):
        bad = dense[np.isfinite(w).all(1).argmin()]
        raise InvalidDimension(f"row {bad}: label weights must be finite")

    v_real, v_gen, grads, gen_grads = _kernel(x, top, rows, cls, dense, w)
    # per-row scaling in place on the (S·B, width) buffer; the generated
    # rows it scales are overwritten below
    if n_real:
        grads /= n_real
    if w is not None:
        if members == 1:
            gen_grads *= gen_weight[0] / n_generated
        else:
            gen_grads *= np.repeat([gen_weight[s] / n_generated for s in scored],
                                   n_generated)[:, None]
        grads[dense] = gen_grads
    if idle.size:
        grads[idle] = 0.0

    # each member's sum over its own rows, as a sum over its batch alone adds them
    real_loss = ([total / n_real for total in np.add.reduce(v_real.reshape(members, n_real), 1)
                  .tolist()] if n_real else [0.0] * members)
    gen_loss = [0.0] * members
    if w is not None:
        for s, total in zip(scored, np.add.reduce(v_gen.reshape(len(scored), n_generated), 1)
                            .tolist()):
            gen_loss[s] = total / n_generated
    value = [real + weight * gen for real, weight, gen in zip(real_loss, gen_weight, gen_loss)]
    return CombinedLoss(value, real_loss, gen_loss, n_real, n_generated, grads)
