"""Training strategies over merged real + generated data.

Seven strategies cover a real-only baseline, three comparison virtual
labels (all-in-one extra class, one-hot pseudo, uniform LSRO) and the
three rank-weighted multi-pseudo variants:

* ``smprl``: labels assigned once by a pretrained model, frozen as one
  (n_generated, K) weight matrix.
* ``dmprl1``: labels recomputed from the current forward pass at every
  visit, starting from the very first iteration (which uses random rank
  permutations, since the untrained model offers no signal).
* ``dmprl2``: like dmprl1 but generated samples contribute no gradient
  until a warm-up epoch is reached, and the generated-side loss weight
  defaults to 0.1.

Training is batch-first over the columnar datasets of :mod:`mprl.synthgen`.
Each epoch shuffles the pool (the real train rows' features, then the
generated rows') with an epoch-seeded RNG, so identical configs
reproduce identical parameter trajectories bit for bit.  Per mini-batch
one :func:`combined_loss` call scores the whole batch from its logits,
each row's class (0-based for a real row, -1 for a generated one) and
the generated rows' (G, width) virtual labels, which
:func:`mprl.labels.virtual_labels` reads off their logits (so a confident
model never produces an invalid label): the trainer builds no label row,
not even a real row's one-hot, and adds only smprl's frozen rows,
dmprl1's random first batch and dmprl2's warm-up gate, which opens at
1-based ``epoch >= warmup_epoch`` and leaves the rows unscored (``None``)
before.  The call also takes the two values :func:`train` resolves once
per run: the config's ``gen_weight`` and its gradient rule
(:meth:`TrainConfig.diagonal`).

An epoch's visit order depends on nothing but (seed, epoch, pool size)
and a dropout mask on nothing but (seed, epoch, batch, rows): the
strategy never reaches them, so every cell of one seed with the same
pool visits in the same order under the same masks.  :class:`SeedDraws`
draws each mask once and replays it; a grid run shares one store per
seed across its cells (see :mod:`mprl.experiment`), and a :func:`train`
call without one keeps a private store, which draws exactly what it
needs.  Orders are not stored: a cohort draws each epoch's order once,
for all its members.

The initial parameters, too, depend only on the seed and the layer
sizes, so trainings of one seed and pool that share :func:`lockstep_key`
(every setting but the :data:`MEMBER_SETTINGS`, and the gradient rule)
differ only in their generated rows' labels, their weight and dmprl2's
warm-up gate.  Such trainings run in lockstep as a :class:`Cohort`:
their parameters are one (S, n_params) stack (see :mod:`mprl.net`), and
each batch is one forward, one :func:`combined_loss` call on the
(S·B, width) stacked logits (each member reduced over its own rows), one
backward and one momentum step for all S of them.  Each member's result
equals its own :func:`train` call bit for bit.  When a batch fails, a
cohort of several trains each member again as a cohort of one, so each
ends with the result or the error of its own call.  :data:`STACK_BYTES`
bounds the stacked logits, which caps a cohort's size
(:func:`stack_limit`).  There is one training loop: a :func:`train` call
without a cohort trains a cohort of one, a stack with S = 1.

:func:`train` and :func:`assign_static_labels` run under
:func:`mprl.retrieval.small_ufunc_buffer`: numpy copies a broadcast
operand (the (B, 1) row maxima of the loss, a bias row) into its ufunc
buffer whenever two rows fit there, which at the default 8192 elements
made every pass over K = 751 logits 2-3x slower.

A :class:`TrainConfig` is the shared :class:`TrainSettings` plus a
strategy and a seed; its ``validate`` holds every rule on their values.

Training records only its history, one :class:`EpochRecord` per epoch.
Anything else, such as a generated sample's per-epoch argmax trajectory
(the README shows one), is an ``on_epoch`` observer that :func:`train`
calls with each record and the parameters at the end of that epoch.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, InvalidDimension, InvalidState, MprlError
from .labels import RANK_WEIGHTED, Strategy, virtual_labels
# not called here; the benchmark's tracer (perfbench/tracing.py) wraps these names
from .labels import (  # noqa: F401
    all_in_one_label, ground_truth_label, lsro_label, mprl_alpha, mprl_label,
    one_hot_pseudo_label, softmax,
)
from .losses import CombinedLoss, GradientMode, combined_loss
from .net import ModelParams, backward, embed, forward, init_optimizer, init_params, sgd_step
from .retrieval import EmbeddingSet, small_ufunc_buffer
from .synthgen import Dataset


GENERATED_AWARE = frozenset(Strategy) - {Strategy.BASELINE}

# sub-stream tags for deriving per-purpose RNG seeds from the run seed
_SEED_INIT = 0
_SEED_SHUFFLE = 1
_SEED_DROPOUT = 2
_SEED_FIRST_ITER = 3


@dataclass(frozen=True, kw_only=True)
class TrainSettings:
    """The schedule and model every cell of a grid shares; each field is a spec key."""

    epochs: int = 50
    batch_size: int = 64
    lr_initial: float = 0.1
    lr_after_decay: float = 0.01
    decay_epoch: int = 40
    momentum: float = 0.9
    # trade-off between generated- and real-sample loss; None resolves to
    # 0.1 for dmprl2 and 1.0 for every other strategy
    gen_weight: float | None = None
    warmup_epoch: int = 20
    gradient_mode: GradientMode = GradientMode.ANALYTIC
    dropout_rate: float = 0.5
    hidden_sizes: tuple[int, ...] = (32, 16)
    init_scale: float = 1.0


# the settings a cohort member holds for its own generated rows; a cohort's
# members share every other setting (see lockstep_key)
MEMBER_SETTINGS = frozenset({"gen_weight", "warmup_epoch", "gradient_mode"})


@dataclass(frozen=True)
class TrainConfig(TrainSettings):
    strategy: Strategy
    seed: int = field(default=0, kw_only=True)

    def resolved_gen_weight(self) -> float:
        if self.gen_weight is not None:
            return self.gen_weight
        return 0.1 if self.strategy is Strategy.DMPRL2 else 1.0

    def diagonal(self) -> bool:
        """The gradient rule: diagonal mode reaches rank-weighted labels only."""
        return self.gradient_mode is GradientMode.DIAGONAL and self.strategy in RANK_WEIGHTED

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidConfig("epochs and batch_size must be >= 1")
        if not (0 < self.lr_initial < math.inf and 0 < self.lr_after_decay < math.inf):
            raise InvalidConfig("learning rates must be positive and finite, got "
                                f"{self.lr_initial!r} and {self.lr_after_decay!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfig("momentum must be in [0, 1)")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidConfig("dropout_rate must be in [0, 1)")
        if any(size < 1 for size in self.hidden_sizes):
            raise InvalidConfig(f"hidden_sizes must all be >= 1, got {self.hidden_sizes}")
        if not 0 <= self.init_scale < math.inf:
            raise InvalidConfig(f"init_scale must be finite and >= 0, got {self.init_scale!r}")
        if self.decay_epoch < 0 or self.warmup_epoch < 0:
            raise InvalidConfig("decay_epoch and warmup_epoch must be >= 0, got "
                                f"{self.decay_epoch} and {self.warmup_epoch}")
        if self.gen_weight is not None and not 0 <= self.gen_weight < math.inf:
            raise InvalidConfig(f"gen_weight must be finite and >= 0, got {self.gen_weight!r}")
        if self.strategy is Strategy.DMPRL2 and not self.warmup_epoch < self.epochs:
            raise InvalidConfig(
                f"warmup_epoch ({self.warmup_epoch}) must be < epochs ({self.epochs}) "
                "or the warm-up gate never opens"
            )
        if self.strategy in GENERATED_AWARE and self.resolved_gen_weight() <= 0:
            raise InvalidConfig("generated-aware strategies need gen_weight > 0")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    real_loss: float  # l1: mean cross-entropy over real visits
    gen_loss: float  # l2: mean generated-label loss, before gen_weight
    combined: float  # l1 + gen_weight * l2
    train_acc: float
    lr: float
    gen_grad_norm: float  # accumulated norm of generated-side logit grads


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def to_csv(self, path) -> None:
        lines = ["epoch,l1,l2,combined,train_acc,lr"]
        for r in self.records:
            lines.append(
                f"{r.epoch},{r.real_loss:.17g},{r.gen_loss:.17g},"
                f"{r.combined:.17g},{r.train_acc:.17g},{r.lr:.17g}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


def epoch_shuffle_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Deterministic visit order for one epoch: a permutation of range(n)."""
    return np.random.default_rng((seed, _SEED_SHUFFLE, epoch)).permutation(n)


def draw_keep_mask(seed: int, epoch: int, batch_idx: int, shape: tuple[int, int],
                   rate: float) -> np.ndarray:
    """The boolean dropout keep mask of one training batch: a unit is kept
    where its uniform draw from the ``(seed, epoch, batch_idx)`` stream is
    at least ``rate``."""
    return np.random.default_rng((seed, _SEED_DROPOUT, epoch, batch_idx)).random(shape) >= rate


class SeedDraws:
    """The dropout keep masks of training, which depend on the seed alone,
    each drawn once and then replayed.

    A mask is keyed by everything it depends on: (seed, epoch, batch,
    shape, rate).  It is held flat and packed (``np.packbits``, one bit
    per unit, read-only) in :attr:`packed`; :meth:`keep` unpacks a fresh
    float copy with inverted scaling, bit-equal to dividing the boolean
    draw by ``1 - rate``.  A seed of the desk grid of ``benchmark.spec``
    holds about 61 KB of mask bits, a seed of a K = 751 grid about
    0.46 MB.
    """

    def __init__(self):
        self.packed: dict[tuple, np.ndarray] = {}

    def keep(self, seed: int, epoch: int, batch_idx: int, shape: tuple[int, int],
             rate: float) -> np.ndarray:
        """The (rows, width) float keep mask of one batch: 0 for a dropped
        unit, ``1 / (1 - rate)`` for a kept one."""
        key = (seed, epoch, batch_idx, shape, rate)
        bits = self.packed.get(key)
        if bits is None:
            bits = np.packbits(draw_keep_mask(seed, epoch, batch_idx, shape, rate))
            bits.flags.writeable = False
            self.packed[key] = bits
        # slicing off the padding bits is cheaper than unpackbits(count=...)
        return np.unpackbits(bits)[:shape[0] * shape[1]].reshape(shape) / (1.0 - rate)


def _check_datasets(real: Dataset, generated: Dataset | None) -> None:
    train_classes = real.split("train").classes
    if real.n_classes < 1 or not train_classes.size:
        raise InvalidConfig("real dataset needs classes and a train split")
    if set(train_classes.tolist()) != set(range(1, real.n_classes + 1)):
        raise InvalidConfig("every class needs at least one train sample")
    if generated is not None and len(generated):
        if generated.feature_dim != real.feature_dim:
            raise InvalidDimension(
                f"generated feature dim {generated.feature_dim} differs "
                f"from real {real.feature_dim}"
            )
        if not generated.generated.all():
            raise InvalidConfig("generated dataset contains non-generated samples")


# the byte budget of a cohort's stacked (S·B, width) logits, the widest
# array of a lockstep batch: a cohort holds as many members as fit in it
STACK_BYTES = 256 * 1024


# the byte budget of one block of logits in a pass that scores a whole
# split or the whole generated set (about 350 rows at K = 751): such a
# pass holds blocks of its (rows, width) matrices, never the whole
PASS_BYTES = 2 * 1024 * 1024


def _row_blocks(n_rows: int, width: int):
    """Slices of consecutive rows of an (n_rows, width) float64 pass, each
    within :data:`PASS_BYTES` (at least one row)."""
    step = max(1, PASS_BYTES // (8 * width))
    return (slice(start, start + step) for start in range(0, n_rows, step))


def _head_width(strategy: Strategy, n_classes: int) -> int:
    return n_classes + 1 if strategy is Strategy.ALL_IN_ONE else n_classes


def lockstep_key(cfg: TrainConfig) -> tuple:
    """What the members of one cohort share: the seed and every setting
    but the :data:`MEMBER_SETTINGS`, so a setting added later splits
    cohorts unless it is declared a member's own.  The baseline's pool
    leaves the generated rows out and all-in-one's head is one class
    wider, so each of them trains only beside its own kind, and a stack
    has one gradient rule (:meth:`TrainConfig.diagonal`)."""
    return (cfg.seed, *(getattr(cfg, f.name) for f in fields(TrainSettings)
                        if f.name not in MEMBER_SETTINGS),
            cfg.strategy is Strategy.BASELINE, cfg.strategy is Strategy.ALL_IN_ONE,
            cfg.diagonal())


def stack_limit(cfg: TrainConfig, n_classes: int) -> int:
    """The most members a cohort of ``cfg``'s kind holds within
    :data:`STACK_BYTES`; at least one."""
    return max(1, STACK_BYTES // (8 * cfg.batch_size * _head_width(cfg.strategy, n_classes)))


class Cohort:
    """Trainings of one seed and pool that run as one stack of models.

    Members are added, each with its static labels (smprl only), before
    the first :func:`train` call that names one of them.  That call trains
    every member in lockstep.  From then on the cohort holds each
    member's result (its params and history, or the error that failed
    it) until a :func:`train` call for that member takes it, once.
    """

    def __init__(self):
        self.members: dict[TrainConfig, np.ndarray | None] = {}
        self.results: dict[TrainConfig, tuple[ModelParams, TrainHistory] | MprlError] | None = None

    def add(self, cfg: TrainConfig, static_labels: np.ndarray | None = None) -> None:
        if self.results is not None:
            raise InvalidState("a cohort takes no members once it has trained")
        if cfg in self.members:
            raise InvalidConfig(f"the cohort already holds this {cfg.strategy.value} config")
        first = next(iter(self.members), cfg)
        if lockstep_key(cfg) != lockstep_key(first):
            raise InvalidConfig(f"{cfg.strategy.value} cannot train in lockstep with "
                                f"{first.strategy.value}: they differ in a shared setting "
                                "or in the gradient rule")
        self.members[cfg] = static_labels


class _Member:
    """One cohort member's own part of the lockstep loop: the labels of its
    generated rows and their weight, its history, its running sums of the
    epoch and its model at the end of the latest epoch (a view of the
    stack)."""

    def __init__(self, cfg: TrainConfig, real: Dataset, generated: Dataset | None,
                 static_labels, on_epoch):
        cfg.validate()
        _check_datasets(real, generated)
        n_generated = 0 if generated is None or cfg.strategy is Strategy.BASELINE \
            else len(generated)
        if cfg.strategy is Strategy.SMPRL and n_generated:
            if static_labels is None:
                raise InvalidConfig("smprl needs static_labels from assign_static_labels")
            if static_labels.shape != (n_generated, real.n_classes):
                raise InvalidDimension(f"static labels must have shape ({n_generated}, "
                                       f"{real.n_classes}), got {static_labels.shape}")
        self.cfg = cfg
        self.gen_weight = cfg.resolved_gen_weight()
        self.static_labels = static_labels
        self.first_iter_rng = np.random.default_rng((cfg.seed, _SEED_FIRST_ITER))
        self.history = TrainHistory()
        self.on_epoch = on_epoch
        self.params: ModelParams | None = None
        self.real_sum = self.gen_sum = self.gen_grad_norm = 0.0

    def labels(self, logits, positions, epoch: int, batch_idx: int):
        """The weight rows of a batch's generated rows (smprl's frozen rows at
        ``positions``), or None behind a closed warm-up gate (unscored)."""
        cfg = self.cfg
        if cfg.strategy is Strategy.DMPRL2 and epoch < cfg.warmup_epoch:
            return None
        if cfg.strategy is Strategy.SMPRL:
            return self.static_labels[positions]
        if epoch == 1 and batch_idx == 0 and cfg.strategy is Strategy.DMPRL1:
            # no ranking signal yet: random permutations p rank to exactly p + 1
            logits = np.stack([self.first_iter_rng.permutation(logits.shape[1]) for _ in logits])
        return virtual_labels(cfg.strategy, logits)


# floating-point warnings stay silent: a diverging run fails on its
# first non-finite logits, which the error names by epoch and batch
@np.errstate(all="ignore")
@small_ufunc_buffer()
def train(
    real: Dataset,
    generated: Dataset | None,
    cfg: TrainConfig,
    static_labels: np.ndarray | None = None,
    on_epoch: Callable[[EpochRecord, ModelParams], None] | None = None,
    draws: SeedDraws | None = None,
    cohort: Cohort | None = None,
) -> tuple[ModelParams, TrainHistory]:
    """Run one training schedule and return final params plus history.

    ``static_labels`` (the (n_generated, K) rows of :func:`assign_static_labels`)
    is required for smprl with generated rows and ignored otherwise.
    Parameters are initialized from the config seed at ``cfg.init_scale``.
    All validation happens before the first epoch.

    ``on_epoch(record, params)``, when given, is called after each epoch's
    record is appended, with the parameters as they stand at the end of
    that epoch (after the last epoch, the returned ones).  It observes
    only: it must not modify ``params``, and training draws nothing from
    it, so a run with an observer equals one without bit for bit.

    ``draws`` is a store shared with other runs of the same seed (a
    grid's cells); a mask drawn there before is replayed, so a
    run with a shared store equals one with its own bit for bit.  By
    default the run keeps a private store.

    ``cohort``, a :class:`Cohort` holding ``cfg``, trains ``cfg`` beside
    the cohort's other members: the first call for any member trains
    them all (under ``on_epoch``, which observes ``cfg`` only), and each
    call returns its own member's result, which equals a call without a
    cohort bit for bit.  The members' static labels are the cohort's, so
    ``static_labels`` is for a call without one, which trains a cohort of
    one.  Either given where it would be ignored (``static_labels`` with
    a cohort, ``on_epoch`` once the cohort has trained) raises
    :class:`InvalidConfig`.

    The loop runs under ``np.errstate(all="ignore")``, so a diverging run
    prints no floating-point warnings; its first non-finite logits fail
    the batch instead, and an error raised inside a batch names the epoch
    and batch in front of its message.  It also runs under
    :func:`small_ufunc_buffer`; the caller's buffer size and error
    state are restored on return, also on error.
    """
    if cohort is None:
        cohort = Cohort()
        cohort.add(cfg, static_labels)
    elif static_labels is not None:
        raise InvalidConfig(f"this {cfg.strategy.value} config trains in a cohort, which "
                            "holds its static labels: pass them to Cohort.add")
    if cohort.results is None and cfg in cohort.members:
        cohort.results = _train_cohort(real, generated, cohort.members, cfg, on_epoch,
                                       draws if draws is not None else SeedDraws())
        cohort.members = {}  # the static labels are spent
    elif cohort.results is not None and on_epoch is not None:
        raise InvalidConfig(f"the cohort of this {cfg.strategy.value} config has trained "
                            "already, so on_epoch would observe nothing")
    if cohort.results is None or cfg not in cohort.results:
        raise InvalidState(f"the cohort holds no result for this {cfg.strategy.value} config: "
                           "not a member, or taken before")
    result = cohort.results.pop(cfg)
    if isinstance(result, MprlError):
        raise result
    return result


def _train_cohort(real, generated, members, observed, on_epoch, draws, seen=0) -> dict:
    """Train every member of a cohort in lockstep; return each member's
    params and history, or the error that failed it.

    The members share one visit order, one dropout mask per batch, one
    initial model and one gradient rule, so their parameters are one
    (S, n_params) stack (see :mod:`mprl.net`) and each batch is one
    forward, one :func:`combined_loss`, one backward and one momentum step
    for all of them.  Only the generated rows' labels, their weight and
    dmprl2's warm-up gate are a member's own.  When a batch fails, a
    cohort of several trains each member again as a cohort of one, so each ends
    with the result or the error of its own training.  ``on_epoch``
    observes ``observed`` after each epoch but the first ``seen``.
    """
    results = {}
    stack: list[_Member] = []
    for cfg, static in members.items():
        try:
            stack.append(_Member(cfg, real, generated, static,
                                 on_epoch if cfg == observed else None))
        except MprlError as exc:
            results[cfg] = exc
    if not stack:
        return results
    error = _lockstep(real, generated, stack, draws, seen)
    if error is None:
        return results | {m.cfg: (m.params, m.history) for m in stack}
    if len(stack) == 1:
        return results | {stack[0].cfg: error}
    trained = len(stack[0].history.records)  # the epochs on_epoch has seen
    for m in stack:
        results |= _train_cohort(real, generated, {m.cfg: members[m.cfg]}, observed, on_epoch,
                                 draws, trained)
    return results


def _lockstep(real, generated, stack: list[_Member], draws, seen: int) -> MprlError | None:
    """Train the members of ``stack`` as one stack, leaving each its params
    and history; a member's ``on_epoch`` observes every epoch after the
    first ``seen``.  Return the error of the first batch that fails, or
    None."""
    lead = stack[0].cfg
    n_classes = real.n_classes
    width = _head_width(lead.strategy, n_classes)
    real_train = real.split("train")
    gen_feats = generated.features if (
        generated is not None and lead.strategy is not Strategy.BASELINE
    ) else np.empty((0, real.feature_dim))

    params = init_params((real.feature_dim, *lead.hidden_sizes, width),
                         seed=(lead.seed, _SEED_INIT), scale=lead.init_scale)
    params = ModelParams.of(np.tile(params.flat, (len(stack), 1)), params.layout)
    opt = init_optimizer(params, lead.lr_initial, lead.momentum)

    # the merged pool: real train rows first, then the generated rows
    # (0-based classes, -1 for a generated row)
    n_real = len(real_train)
    pool_feats = np.concatenate([real_train.features, gen_feats])
    pool_class = np.concatenate([real_train.classes - 1, np.full(len(gen_feats), -1)])
    embedding_dim = params.embedding_dim

    for epoch in range(1, lead.epochs + 1):
        lr = lead.lr_initial if epoch <= lead.decay_epoch else lead.lr_after_decay
        opt.learning_rate = lr
        order = epoch_shuffle_order(lead.seed, epoch, len(pool_feats))
        # the epoch's classes in visit order; each batch reads its slice
        epoch_class = pool_class[order]
        epoch_gen = epoch_class < 0
        starts = range(0, len(order), lead.batch_size)
        gen_counts = np.add.reduceat(epoch_gen, starts).tolist()

        real_count = gen_count = 0
        for m in stack:
            m.real_sum = m.gen_sum = m.gen_grad_norm = 0.0
        for batch_idx, start in enumerate(starts):
            stop = start + lead.batch_size
            batch = order[start:stop]
            mask = draws.keep(lead.seed, epoch, batch_idx, (len(batch), embedding_dim),
                              lead.dropout_rate) if lead.dropout_rate else None
            gen = epoch_gen[start:stop]
            positions = batch[gen] - n_real if gen_counts[batch_idx] else None
            try:
                params, out = _lockstep_batch(params, opt, stack, pool_feats.take(batch, 0), mask,
                                              epoch_class[start:stop], gen, positions, epoch,
                                              batch_idx)
            except MprlError as exc:
                error = type(exc)(f"epoch {epoch}, batch {batch_idx}: {exc}")
                error.__cause__ = exc  # chained as `raise ... from exc` would
                return error

            real_count += out.n_real
            gen_count += out.n_generated
            grad_rows = out.grad_logits.reshape(len(stack), -1, width)
            for m, real_loss, gen_loss, g in zip(stack, out.real_loss, out.gen_loss, grad_rows):
                m.real_sum += real_loss * out.n_real
                m.gen_sum += gen_loss * out.n_generated
                if positions is not None:
                    # the 2-norm of the generated rows, as np.linalg.norm computes it
                    gen_grads = g[gen].ravel()
                    m.gen_grad_norm += math.sqrt(gen_grads.dot(gen_grads))

        for i, m in enumerate(stack):
            l1 = m.real_sum / real_count if real_count else 0.0
            l2 = m.gen_sum / gen_count if gen_count else 0.0
            # member by member: a stacked pass over every real train row would
            # hold S times the activations
            m.params = ModelParams.of(params.flat[i], params.layout)
            train_acc = _accuracy(m.params, real_train.features, real_train.classes, n_classes)
            m.history.records.append(EpochRecord(
                epoch, l1, l2, l1 + m.gen_weight * l2, train_acc, lr, m.gen_grad_norm,
            ))
            if m.on_epoch is not None and epoch > seen:
                m.on_epoch(m.history.records[-1], m.params)
    return None


def _lockstep_batch(params, opt, stack, x, mask, classes, gen, positions, epoch, batch_idx):
    """One training batch of every member of ``stack`` on their shared
    features ``x`` under their shared dropout ``mask`` and gradient rule:
    the stepped params and the batch's :class:`CombinedLoss`.  The batch's
    temporaries end with the call.

    ``positions`` are the generated rows' positions in the generated set
    (None without generated rows).
    """
    logits, cache, _ = forward(params, x, mask)
    labels = [None] * len(stack) if positions is None else [
        m.labels(g, positions, epoch, batch_idx) for m, g in zip(stack, logits[:, gen])]
    out: CombinedLoss = combined_loss(logits.reshape(-1, logits.shape[-1]), classes, labels,
                                      [m.gen_weight for m in stack], stack[0].cfg.diagonal(),
                                      members=len(stack))
    grads = backward(params, cache, out.grad_logits.reshape(cache.logits.shape))
    return sgd_step(params, grads, opt), out


def _accuracy(params, feats, classes, n_classes) -> float:
    """Eval-mode accuracy on the pre-defined classes (the extra head
    column, when present, is excluded so strategies stay comparable).

    The rows are scored one :func:`_row_blocks` block at a time, so the
    pass holds one block of logits, and the hits are counted as an
    integer: ``hits / rows`` is ``np.mean`` of the hit mask exactly.  A
    block's logits can differ from the whole split's in the last bits
    (BLAS takes another path for fewer rows), so a row whose top two
    logits tie within rounding could change its argmax."""
    hits = 0
    for rows in _row_blocks(len(feats), params.biases[-1].shape[-1]):
        # the block's logits and activations end with its argmax
        predicted = np.argmax(forward(params, feats[rows])[0][:, :n_classes], axis=1) + 1
        hits += int(np.count_nonzero(predicted == classes[rows]))
    return hits / len(feats)


@small_ufunc_buffer()
def assign_static_labels(pretrained: ModelParams, generated: Dataset) -> np.ndarray:
    """One frozen rank-weighted label row per generated sample.

    The pretrained model (typically a baseline run over the real data)
    scores each generated sample once; row i of the (n_generated, K)
    result, smprl's :func:`virtual_labels` of those logits, is generated
    row i's label and never changes afterwards.  The logits come from one
    forward pass over every generated row; their labels are written into
    the result one :func:`_row_blocks` block at a time, so the rank
    sort's (n_generated, K) temporaries are never whole.  Ranks are per
    row, so the rows equal those of one call on every row.  Non-finite
    logits (a diverged model) raise :class:`InvalidDimension`, as they
    would rank to arbitrary labels.
    """
    logits = forward(pretrained, generated.features)[0]
    # a NaN or +inf shows in the maximum, a -inf only in the minimum
    if logits.size and not (math.isfinite(logits.max()) and math.isfinite(logits.min())):
        raise InvalidDimension("the pretrained model's logits must be finite")
    labels = np.empty(logits.shape)
    for rows in _row_blocks(*logits.shape):
        labels[rows] = virtual_labels(Strategy.SMPRL, logits[rows])
    return labels


def extract_embeddings(params: ModelParams, dataset: Dataset, split: str) -> EmbeddingSet:
    """Eval-mode penultimate activations for one split of a dataset (the
    hidden stack only; the logits head is never computed)."""
    rows = dataset.split(split)
    if not len(rows):
        raise InvalidDimension(f"dataset has no samples in split {split!r}")
    return EmbeddingSet(rows.ids, rows.classes, embed(params, rows.features))


def pretrain_baseline(real: Dataset, cfg: TrainConfig,
                      draws: SeedDraws | None = None) -> ModelParams:
    """Train the baseline (real-only) model used to assign static labels;
    ``draws`` as for :func:`train`."""
    base_cfg = replace(cfg, strategy=Strategy.BASELINE, gen_weight=None)
    params, _ = train(real, None, base_cfg, draws=draws)
    return params
