"""Virtual-label construction for unlabeled generated samples.

Every label is a plain float64 weight row over the classifier head,
and a mini-batch's labels are the rows of one (B, width) matrix.  A
softmax classifier over K pre-defined training classes induces several
ways, each a :class:`Rule`, to label a sample that has no ground-truth class:

* extra class (``all_in_one_label``): one-hot at a single extra class
  K+1 shared by every generated sample (the row, and the head, has K+1
  entries).
* top-1 (``one_hot_pseudo_label``): one-hot at the argmax predicted class.
* uniform (``lsro_label``): the row 1/K over all pre-defined classes.
* rank (``mprl_label``): a multi-pseudo row whose per-class weight is the
  rank (``mprl_alpha``) of that class's predicted probability divided by
  K.  Every class keeps a nonzero weight, and with distinct probabilities
  the gap between consecutive sorted weights is exactly 1/K.

A strategy, named in a spec, is one row of :data:`SCHEMES`: its rule,
the :class:`Schedule` of when its generated rows are labelled, its head's
extra classes and its default ``gen_weight``.  Code outside this module
reads the table and never branches on a name.

Training and static labelling build a batch's rows from its logits with
:func:`virtual_labels`, the one batch rule of every strategy; the builders
above are its one-vector forms on probabilities, kept for ``gradcheck``
and the tests.  Rank-weighted rows take one row-wise sort (:func:`row_ranks`,
then :func:`mprl_rows` with the 2/(1+K) normaliser).  Tied entries share
the mean of the positions they jointly occupy, so a row of equal values
reduces exactly to the LSRO label.  Softmax preserves order, so logits
rank as their probabilities do, except that logits keep apart values
which softmax rounds to one probability (``[0, 1e-17, 5]`` ranks
``[1, 2, 3]`` as logits and ``[1.5, 1.5, 3]`` as probabilities), and
logits never underflow to a zero probability.

Class identities are 1-based throughout this package: class ``c`` lives
at row position ``c - 1``, so a one-hot row's class is ``argmax + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

from .errors import InvalidConfig, InvalidDimension

PROB_SUM_TOL = 1e-9


class Strategy(str, Enum):
    BASELINE = "baseline"
    ALL_IN_ONE = "all_in_one"
    ONE_HOT_PSEUDO = "one_hot_pseudo"
    LSRO = "lsro"
    SMPRL = "smprl"
    DMPRL1 = "dmprl1"
    DMPRL2 = "dmprl2"


class Rule(Enum):
    """The label a generated row gets."""

    NONE = "none"  # the strategy labels nothing
    EXTRA_CLASS = "extra class"  # one-hot at the extra class K+1
    TOP1 = "top-1"  # one-hot at the top logit
    UNIFORM = "uniform"  # LSRO's 1/K row
    RANK = "rank"  # multi-pseudo rank weights


class Schedule(Enum):
    """When a generated row gets its label."""

    REAL_ONLY = "real only"  # never: the training pool holds no generated row
    DYNAMIC = "dynamic"  # from the current logits at every visit
    RANDOM_START = "dynamic, random first batch"  # epoch 1's batch 0 ranks permutations
    STATIC = "static"  # once, from a pretrained real-only model's logits
    GATED = "gated"  # dynamic, and unscored before epoch warmup_epoch


@dataclass(frozen=True)
class Scheme:
    """One strategy's row of :data:`SCHEMES`."""

    rule: Rule
    schedule: Schedule
    extra_classes: int = 0  # head columns beyond the K pre-defined classes
    gen_weight: float = 1.0  # the trade-off factor when the spec leaves it unset

    @property
    def real_only(self) -> bool:  # the training pool leaves the generated rows out
        return self.schedule is Schedule.REAL_ONLY


SCHEMES = MappingProxyType({
    Strategy.BASELINE: Scheme(Rule.NONE, Schedule.REAL_ONLY),
    Strategy.ALL_IN_ONE: Scheme(Rule.EXTRA_CLASS, Schedule.DYNAMIC, extra_classes=1),
    Strategy.ONE_HOT_PSEUDO: Scheme(Rule.TOP1, Schedule.DYNAMIC),
    Strategy.LSRO: Scheme(Rule.UNIFORM, Schedule.DYNAMIC),
    Strategy.SMPRL: Scheme(Rule.RANK, Schedule.STATIC),
    Strategy.DMPRL1: Scheme(Rule.RANK, Schedule.RANDOM_START),
    Strategy.DMPRL2: Scheme(Rule.RANK, Schedule.GATED, gen_weight=0.1),
})


def check_logits(logits) -> np.ndarray:
    """Validate and return logits as a float64 vector."""
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise InvalidDimension(f"logits must be a non-empty 1-d vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidDimension("logits must be finite")
    return x


def logit_rows(logits) -> np.ndarray:
    """``logits`` as a C-contiguous float64 (B, width) batch, width >= 1."""
    x = np.asarray(logits, dtype=np.float64, order="C")
    if x.ndim != 2 or not x.shape[1]:
        raise InvalidDimension(f"logits must be (B, width) with width >= 1, got {x.shape}")
    return x


def check_prob_vector(p) -> np.ndarray:
    """Validate a probability vector: strictly positive, summing to 1."""
    q = np.asarray(p, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise InvalidDimension(f"probability vector must be non-empty 1-d, got shape {q.shape}")
    if not np.all(np.isfinite(q)) or np.any(q <= 0.0):
        raise InvalidDimension("probabilities must be finite and strictly positive")
    total = float(np.sum(q))
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InvalidDimension(f"probabilities must sum to 1 (got {total!r})")
    return q


def softmax(logits) -> np.ndarray:
    """Stable softmax: shifts by the max before exponentiating.

    Order-preserving, so the ranking of the outputs equals the ranking of
    the inputs, and invariant under adding a constant to every logit.
    """
    x = check_logits(logits)
    shifted = x - np.max(x)
    e = np.exp(shifted)
    return e / np.sum(e)


def rank_weight_normalizer(n_classes: int) -> float:
    """Factor 2/(1+K) that scales the total rank-weight mass K(K+1)/(2K) to 1."""
    if n_classes < 1:
        raise InvalidDimension("class count must be >= 1")
    return 2.0 / (1.0 + n_classes)


def _one_hot(width: int, position: int) -> np.ndarray:
    row = np.zeros(width)
    row[position] = 1.0
    return row


def lsro_label(n_classes: int) -> np.ndarray:
    """Uniform virtual label 1/K over all pre-defined classes."""
    if n_classes < 1:
        raise InvalidDimension("class count must be >= 1")
    return np.full(n_classes, 1.0 / n_classes)


def all_in_one_label(n_classes: int) -> np.ndarray:
    """One-hot virtual label at the extra class K+1 (row length K+1)."""
    if n_classes < 1:
        raise InvalidDimension("class count must be >= 1")
    return _one_hot(n_classes + 1, n_classes)


def ground_truth_label(class_id: int, width: int) -> np.ndarray:
    """One-hot label for a real sample of class ``class_id`` (1-based).

    ``width`` is the classifier head width: K, or K+1 when an extra
    generated-data class is in use.
    """
    if width < 1:
        raise InvalidDimension("label width must be >= 1")
    if not 1 <= class_id <= width:
        raise InvalidDimension(f"class {class_id} outside 1..{width}")
    return _one_hot(width, class_id - 1)


def one_hot_pseudo_label(probs) -> np.ndarray:
    """One-hot virtual label at the argmax class; ties go to the lowest index."""
    p = check_prob_vector(probs)
    return _one_hot(p.size, int(np.argmax(p)))


def row_ranks(scores) -> np.ndarray:
    """Ascending 1-based rank of every entry within its row of a (B, K) matrix.

    The smallest entry of a row ranks 1 and the largest ranks K.  Tied
    entries (exact float equality within a row) get the mean of the
    positions they jointly occupy, so every row's ranks sum to K(K+1)/2
    and a row of equal values ranks (1+K)/2 throughout.  One row-wise
    argsort covers the whole matrix: every member of a tie run gets the
    same mean, so numpy's default (unstable) sort gives the same ranks as
    a stable one, and only rows holding a tie compute their runs.
    """
    x = np.asarray(scores, dtype=np.float64)
    n, k = x.shape
    order = np.argsort(x, axis=1)
    # the sort's positions in the flattened matrix, for one flat gather and scatter
    flat = order + np.arange(0, n * k, k)[:, None]
    sorted_ranks = np.broadcast_to(np.arange(1.0, k + 1.0), (n, k))
    ordered = np.take(x, flat)
    differs = ordered[:, 1:] != ordered[:, :-1]
    tied = ~differs.all(axis=1)
    if tied.any():
        sorted_ranks = sorted_ranks.copy()
        sorted_ranks[tied] = _average_ranks(differs[tied])
    ranks = np.empty((n, k))
    ranks.reshape(-1)[flat] = sorted_ranks
    return ranks


def _average_ranks(differs: np.ndarray) -> np.ndarray:
    """Mean 1-based position of each sorted position's run of equal values.

    ``differs`` (n, K-1) flags where a sorted row's value changes.
    """
    n, k = differs.shape[0], differs.shape[1] + 1
    pos = np.arange(k)
    edge = np.ones((n, 1), dtype=bool)
    # first and last sorted position of the run of equal values holding
    # each position; the run occupies 1-based positions first+1 .. last+1
    first = np.maximum.accumulate(np.where(np.hstack([edge, differs]), pos, 0), axis=1)
    last = np.minimum.accumulate(
        np.where(np.hstack([differs, edge]), pos, k - 1)[:, ::-1], axis=1)[:, ::-1]
    return (first + last + 2) / 2.0


def mprl_alpha(probs) -> np.ndarray:
    """Rank each class's predicted probability, ascending.

    The smallest probability ranks 1 and the largest ranks K; tied
    probabilities share their mean rank (see :func:`row_ranks`), so the
    ranks sum to K(K+1)/2 exactly.
    """
    p = check_prob_vector(probs)
    return row_ranks(p[None, :])[0]


def mprl_label(ranks, n_classes: int) -> np.ndarray:
    """Multi-pseudo label with per-class weight rank/K.

    The weights are deliberately unnormalized (their mass is (K+1)/2);
    :func:`mprl_rows` gives the normalized row the losses take.
    """
    r = np.asarray(ranks, dtype=np.float64)
    if r.shape != (n_classes,):
        raise InvalidDimension(
            f"rank vector has shape {r.shape}, expected ({n_classes},)"
        )
    return r / n_classes


def mprl_rows(ranks) -> np.ndarray:
    """Normalized multi-pseudo weights ``rank / K * 2/(1+K)``.

    ``ranks`` holds 1..K ranks along its last axis (one row per sample, as
    :func:`row_ranks` returns them), so every row's mass is 1 and the loss
    needs no further normalizer.
    """
    r = np.asarray(ranks, dtype=np.float64)
    k = r.shape[-1]
    return rank_weight_normalizer(k) * (r / k)


def virtual_labels(strategy: Strategy, logits) -> np.ndarray:
    """The rows, of mass 1, that ``strategy``'s rule gives (G, width)
    generated ``logits``, as its builder above gives them; the uniform and
    extra-class rows (extra class last) are one row broadcast read-only.
    A strategy without a rule (the baseline) raises InvalidConfig."""
    strategy = Strategy(strategy)
    x = logit_rows(logits)
    width = x.shape[1]
    rule = SCHEMES[strategy].rule
    if rule is Rule.RANK:
        return mprl_rows(row_ranks(x))
    if rule is Rule.TOP1:  # ties go to the lowest index
        return (np.arange(width) == x.argmax(1)[:, None]).astype(np.float64)
    if rule in (Rule.UNIFORM, Rule.EXTRA_CLASS):
        row = lsro_label(width) if rule is Rule.UNIFORM else all_in_one_label(width - 1)
        return np.broadcast_to(row, x.shape)
    raise InvalidConfig(f"the {strategy.value} strategy gives no virtual labels")
