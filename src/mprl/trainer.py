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
the generated rows' (G, width) virtual labels, which the strategy maps
from their logits; no real row is ever spelled out as a one-hot row.
The call also takes the two numbers :func:`train` resolves once per
run: the config's ``gen_weight`` and whether the generated rows get the
diagonal gradient (``gradient_mode`` diagonal, rank-weighted strategies
only).  Rank-weighted and one-hot pseudo labels are read off the logits
directly (see :mod:`mprl.labels`), so an arbitrarily confident model
never produces an invalid label.  Epoch indices are 1-based; the warm-up
gate opens at ``epoch >= warmup_epoch``, and behind a closed gate the
generated rows' labels are ``None``, which leaves them unscored.

An epoch's visit order depends on nothing but (seed, epoch, pool size)
and a dropout mask on nothing but (seed, epoch, batch, rows): the
strategy never reaches them, so every cell of one seed with the same
pool visits in the same order under the same masks.  :class:`SeedDraws`
draws each order and each mask once and replays it; a grid run shares
one store per seed across its cells (see :mod:`mprl.experiment`), and a
:func:`train` call without one keeps a private store, which draws
exactly what it needs.

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
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, InvalidDimension, MprlError
from .labels import all_in_one_label, lsro_label, mprl_rows, row_ranks
# not called here; the benchmark's tracer (perfbench/tracing.py) wraps these names
from .labels import (  # noqa: F401
    ground_truth_label,
    mprl_alpha,
    mprl_label,
    one_hot_pseudo_label,
    softmax,
)
from .losses import CombinedLoss, GradientMode, combined_loss
from .net import (
    ModelParams,
    backward,
    embed,
    forward,
    init_optimizer,
    init_params,
    sgd_step,
)
from .retrieval import EmbeddingSet, small_ufunc_buffer
from .synthgen import Dataset


class Strategy(str, Enum):
    BASELINE = "baseline"
    ALL_IN_ONE = "all_in_one"
    ONE_HOT_PSEUDO = "one_hot_pseudo"
    LSRO = "lsro"
    SMPRL = "smprl"
    DMPRL1 = "dmprl1"
    DMPRL2 = "dmprl2"


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


@dataclass(frozen=True)
class TrainConfig(TrainSettings):
    strategy: Strategy
    seed: int = field(default=0, kw_only=True)

    def resolved_gen_weight(self) -> float:
        if self.gen_weight is not None:
            return self.gen_weight
        return 0.1 if self.strategy is Strategy.DMPRL2 else 1.0

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
    """The draws of training that depend on the seed alone, each drawn once
    and then replayed: every epoch's visit order and every batch's
    dropout keep mask.

    An order is keyed by (seed, epoch, pool size) and held read-only in
    :attr:`orders`, as :func:`epoch_shuffle_order` draws it.  A mask is
    keyed by everything it depends on: (seed, epoch, batch, shape,
    rate).  It is held flat and packed (``np.packbits``, one bit per
    unit, read-only) in :attr:`packed`; :meth:`keep` unpacks a fresh
    float copy with inverted scaling, bit-equal to dividing the boolean
    draw by ``1 - rate``.  A seed of the desk grid of ``benchmark.spec``
    holds about 61 KB of mask bits and 100 orders (0.32 MB), a seed of a
    K = 751 grid about 0.46 MB of bits and 20 orders (0.76 MB).
    """

    def __init__(self):
        self.orders: dict[tuple, np.ndarray] = {}
        self.packed: dict[tuple, np.ndarray] = {}

    def order(self, seed: int, epoch: int, n: int) -> np.ndarray:
        """The read-only visit order of ``epoch`` over a pool of ``n`` rows."""
        key = (seed, epoch, n)
        order = self.orders.get(key)
        if order is None:
            order = epoch_shuffle_order(seed, epoch, n)
            order.flags.writeable = False
            self.orders[key] = order
        return order

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


def _generated_rule(cfg: TrainConfig, n_classes: int, static_labels):
    """The strategy's map from a batch's generated rows to their weight rows.

    The returned function takes the generated rows' logits and their
    positions in the generated set, and returns one weight row (mass 1)
    per generated row.
    """
    if cfg.strategy in (Strategy.ALL_IN_ONE, Strategy.LSRO):
        row = (all_in_one_label if cfg.strategy is Strategy.ALL_IN_ONE else lsro_label)(n_classes)
        # one read-only block of a whole batch's rows, sliced to each batch
        rows = np.broadcast_to(row, (cfg.batch_size, row.size))
        return lambda logits, positions: rows[:len(logits)]
    if cfg.strategy is Strategy.ONE_HOT_PSEUDO:
        eye = np.eye(n_classes)
        return lambda logits, positions: eye[logits.argmax(1)]
    if cfg.strategy is Strategy.SMPRL:
        return lambda logits, positions: static_labels[positions]
    return lambda logits, positions: mprl_rows(row_ranks(logits))


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
    grid's cells); an order or a mask drawn there before is replayed, so a
    run with a shared store equals one with its own bit for bit.  By
    default the run keeps a private store.

    The loop runs under ``np.errstate(all="ignore")``, so a diverging run
    prints no floating-point warnings; its first non-finite logits fail
    the batch instead, and an error raised inside a batch names the epoch
    and batch in front of its message.  It also runs under
    :func:`small_ufunc_buffer`; the caller's buffer size and error
    state are restored on return, also on error.
    """
    cfg.validate()
    _check_datasets(real, generated)
    n_classes = real.n_classes
    head_width = n_classes + 1 if cfg.strategy is Strategy.ALL_IN_ONE else n_classes

    real_train = real.split("train")
    gen_feats = generated.features if (
        generated is not None and cfg.strategy is not Strategy.BASELINE
    ) else np.empty((0, real.feature_dim))
    if cfg.strategy is Strategy.SMPRL and len(gen_feats):
        if static_labels is None:
            raise InvalidConfig("smprl needs static_labels from assign_static_labels")
        if static_labels.shape != (len(gen_feats), n_classes):
            raise InvalidDimension(f"static labels must have shape ({len(gen_feats)}, "
                                   f"{n_classes}), got {static_labels.shape}")

    params = init_params((real.feature_dim, *cfg.hidden_sizes, head_width),
                         seed=(cfg.seed, _SEED_INIT), scale=cfg.init_scale)
    opt = init_optimizer(params, cfg.lr_initial, cfg.momentum)
    gen_weight = cfg.resolved_gen_weight()
    # the diagonal gradient mode belongs to rank-weighted labels only
    diagonal = (cfg.gradient_mode is GradientMode.DIAGONAL
                and cfg.strategy in (Strategy.SMPRL, Strategy.DMPRL1, Strategy.DMPRL2))

    history = TrainHistory()

    # the merged pool: real train rows first, then the generated rows
    # (0-based classes, -1 for a generated row)
    n_real = len(real_train)
    pool_feats = np.concatenate([real_train.features, gen_feats])
    pool_class = np.concatenate([real_train.classes - 1, np.full(len(gen_feats), -1)])
    generated_rule = _generated_rule(cfg, n_classes, static_labels)
    first_iter_rng = np.random.default_rng((cfg.seed, _SEED_FIRST_ITER))
    draws = draws if draws is not None else SeedDraws()
    embedding_dim = params.embedding_dim

    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.lr_initial if epoch <= cfg.decay_epoch else cfg.lr_after_decay
        opt.learning_rate = lr
        gate = epoch >= cfg.warmup_epoch if cfg.strategy is Strategy.DMPRL2 else True
        order = draws.order(cfg.seed, epoch, len(pool_feats))
        # the epoch's classes in visit order; each batch reads its slice
        epoch_class = pool_class[order]
        epoch_gen = epoch_class < 0
        starts = range(0, len(order), cfg.batch_size)
        gen_counts = np.add.reduceat(epoch_gen, starts).tolist()

        real_sum = real_count = 0.0
        gen_sum = gen_count = 0.0
        gen_grad_norm = 0.0
        try:
            for batch_idx, start in enumerate(starts):
                stop = start + cfg.batch_size
                batch = order[start:stop]
                mask = draws.keep(cfg.seed, epoch, batch_idx, (len(batch), embedding_dim),
                                  cfg.dropout_rate) if cfg.dropout_rate else None
                logits, cache, _ = forward(params, pool_feats.take(batch, 0), mask)
                classes = epoch_class[start:stop]
                gen = epoch_gen[start:stop]
                n_gen = gen_counts[batch_idx]
                gen_weights = None  # the generated rows go unscored behind a closed gate
                if gate and n_gen:
                    if epoch == 1 and batch_idx == 0 and cfg.strategy is Strategy.DMPRL1:
                        # the untrained model offers no ranking signal yet
                        ranks = [first_iter_rng.permutation(n_classes) for _ in range(n_gen)]
                        gen_weights = mprl_rows(np.stack(ranks) + 1.0)
                    else:
                        gen_weights = generated_rule(logits[gen], batch[gen] - n_real)

                out: CombinedLoss = combined_loss(logits, classes, gen_weights, gen_weight,
                                                  diagonal)
                grads = backward(params, cache, out.grad_logits)
                params = sgd_step(params, grads, opt)

                real_sum += out.real_loss * out.n_real
                real_count += out.n_real
                gen_sum += out.gen_loss * out.n_generated
                gen_count += out.n_generated
                if n_gen:
                    # the 2-norm of the generated rows, as np.linalg.norm computes it
                    gen_grads = out.grad_logits[gen].ravel()
                    gen_grad_norm += math.sqrt(gen_grads.dot(gen_grads))
        except MprlError as exc:
            raise type(exc)(f"epoch {epoch}, batch {batch_idx}: {exc}") from exc

        l1 = real_sum / real_count if real_count else 0.0
        l2 = gen_sum / gen_count if gen_count else 0.0
        train_acc = _accuracy(params, real_train.features, real_train.classes, n_classes)
        history.records.append(EpochRecord(
            epoch, l1, l2, l1 + gen_weight * l2, train_acc, lr, gen_grad_norm,
        ))
        if on_epoch is not None:
            on_epoch(history.records[-1], params)

    return params, history


def _accuracy(params, feats, classes, n_classes) -> float:
    """Eval-mode accuracy on the pre-defined classes (the extra head
    column, when present, is excluded so strategies stay comparable)."""
    logits, _, _ = forward(params, feats)
    predicted = np.argmax(logits[:, :n_classes], axis=1) + 1
    return float(np.mean(predicted == classes))


@small_ufunc_buffer()
def assign_static_labels(pretrained: ModelParams, generated: Dataset) -> np.ndarray:
    """One frozen rank-weighted label row per generated sample.

    The pretrained model (typically a baseline run over the real data)
    scores each generated sample once; row i of the (n_generated, K)
    result (rank/K x 2/(1+K), ranks taken on the logits) is generated
    row i's label and never changes afterwards.
    """
    logits, _, _ = forward(pretrained, generated.features)
    return mprl_rows(row_ranks(logits))


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
