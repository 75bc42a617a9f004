"""Deterministic synthetic data: labeled Gaussian clusters plus unlabeled
convex-mixture samples.

The "real" dataset is K well-separated Gaussian clusters with a
train/query/gallery split per class.  The "generated" dataset stands in
for GAN output: each sample is a convex combination of a few real
training samples from a small number of distinct classes, plus noise.
That reproduces the property the rank-weighted labels exploit: generated
samples have strong affinity to a few classes rather than a uniform
blend of all of them.  Which classes went into a sample is kept only as
a diagnostics record, never shown to training code.

A :class:`Dataset` is columnar: row-aligned arrays, no per-sample
objects; a row's origin follows from its class (-1 marks generated).

Dataset file format (plain text, locale-independent), written by
:func:`save_dataset`; the package has no reader for it:

    K dim n_samples
    id split origin class f1 ... fdim

with ``split`` in {train, query, gallery}, ``origin`` in
{real, generated}, ``class`` a 1-based integer or -1 for generated
samples, and features printed with 17 significant digits so float64
round-trips are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import GenerationFailure, InvalidConfig, InvalidDimension
from .retrieval import sq_euclidean_blocks

SPLIT_TAGS = ("train", "query", "gallery")
# class means sit >= this multiple of the cluster spread apart;
# comfortably above the 4x floor the datasets guarantee
MEAN_SEPARATION_FACTOR = 8.0
MIN_SEPARATION_FACTOR = 4.0
# mixing weights shrink toward uniform by this factor, which keeps convex
# mixtures decisively closer to their source classes than to any other
WEIGHT_SHRINK = 0.6


@dataclass
class Dataset:
    """``ids`` (N,), ``features`` (N, d), ``classes`` (N,) 1-based or -1
    for a generated row, ``splits`` (N,) from SPLIT_TAGS.  Provenance:
    (m, mix_size) source ids, classes and weights aligned with the
    generated rows; None when unknown, never serialized or trained on."""

    ids: np.ndarray
    features: np.ndarray
    classes: np.ndarray
    splits: np.ndarray
    n_classes: int
    source_ids: np.ndarray | None = field(default=None, repr=False)
    source_classes: np.ndarray | None = field(default=None, repr=False)
    source_weights: np.ndarray | None = field(default=None, repr=False)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def generated(self) -> np.ndarray:
        """Mask of the generated rows."""
        return self.classes == -1

    def split(self, tag: str) -> Dataset:
        """The rows tagged ``tag``, in order, provenance included."""
        rows = self.splits == tag
        mixed = rows[self.generated]
        provenance = (None if p is None else p[mixed]
                      for p in (self.source_ids, self.source_classes, self.source_weights))
        return Dataset(self.ids[rows], self.features[rows], self.classes[rows],
                       self.splits[rows], self.n_classes, *provenance)

    def __len__(self) -> int:
        return self.ids.size


def _simplex_means(n_classes, dim, edge, rng):
    """Vertices of a regular simplex with the given edge length, randomly
    rotated (Haar) in the full feature space.  Needs n_classes <= dim."""
    vertices = np.zeros((n_classes, dim))
    vertices[:, :n_classes] = np.eye(n_classes) - 1.0 / n_classes
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    return (edge / np.sqrt(2.0)) * vertices @ q.T


def _least_sq_separation(means: np.ndarray) -> float:
    """Least squared distance between two distinct rows of ``means`` (inf
    for one row), one distance block at a time."""
    least = np.inf
    start = 0
    for block in sq_euclidean_blocks(means, means):
        rows = np.arange(block.shape[0])
        block[rows, start + rows] = np.inf
        least = min(least, float(block.min()))
        start += block.shape[0]
    return least


def _place_class_means(n_classes, dim, min_separation, rng,
                       attempts_per_mean: int = 500, max_growths: int = 8):
    """Rejection-sample class means with a guaranteed pairwise separation.

    Fallback for class counts the simplex construction cannot host.  The
    sampling box doubles when placement stalls; if it stalls at every box
    size the separation is treated as infeasible in this dimension.
    """
    half_width = 2.0 * max(1.0, min_separation)
    for _ in range(max_growths):
        means = np.empty((n_classes, dim))
        placed = 0
        stuck = False
        for _ in range(n_classes):
            for _ in range(attempts_per_mean):
                candidate = rng.uniform(-half_width, half_width, size=dim)
                if placed == 0 or np.min(
                    np.linalg.norm(means[:placed] - candidate, axis=1)
                ) >= min_separation:
                    means[placed] = candidate
                    placed += 1
                    break
            else:
                stuck = True
                break
        if not stuck:
            return means
        half_width *= 2.0
    raise GenerationFailure(
        f"could not place {n_classes} class means with pairwise separation "
        f">= {min_separation:g} in {dim} dimensions"
    )


def check_real_params(n_classes: int, n_per_class: int, dim: int,
                      cluster_spread: float) -> None:
    """The rules :func:`make_real_dataset` holds its parameters to; a
    violation raises InvalidConfig."""
    if n_classes < 2:
        raise InvalidConfig(f"n_classes must be >= 2, got {n_classes}")
    if n_per_class < 4:
        raise InvalidConfig("n_per_class must be >= 4 (train/query/gallery split), "
                            f"got {n_per_class}")
    if dim < 2:
        raise InvalidConfig(f"dim must be >= 2, got {dim}")
    if not 0 <= cluster_spread < math.inf:
        raise InvalidConfig(f"cluster_spread must be finite and >= 0, got {cluster_spread!r}")


def make_real_dataset(n_classes: int, n_per_class: int, dim: int,
                      cluster_spread: float, seed) -> Dataset:
    """Build K Gaussian clusters with a deterministic per-class split.

    Per class: half of the samples go to train, one to query, the rest to
    gallery.  Class means are seeded and pairwise separated by at least
    4 * cluster_spread (8x is targeted, so a nearest-centroid classifier
    is nearly perfect on the train split).  When the feature space can
    host one, the means form a randomly rotated regular simplex, whose
    symmetric geometry keeps class mixtures nearer their sources than any
    third class; otherwise means fall back to box rejection sampling.
    """
    check_real_params(n_classes, n_per_class, dim, cluster_spread)
    rng = np.random.default_rng(seed)
    separation = MEAN_SEPARATION_FACTOR * cluster_spread
    if n_classes <= dim:
        means = _simplex_means(n_classes, dim, max(1.0, separation), rng)
    else:
        means = _place_class_means(n_classes, dim, separation, rng)
    # sqrt is monotone and correctly rounded: the root of the least squared
    # distance is the least distance
    if np.sqrt(_least_sq_separation(means)) < MIN_SEPARATION_FACTOR * cluster_spread:
        raise GenerationFailure("class mean separation guarantee violated")

    # one draw per class, in class order
    draws = np.concatenate([rng.standard_normal((n_per_class, dim)) for _ in range(n_classes)])
    features = np.repeat(means, n_per_class, axis=0) + cluster_spread * draws
    n_train = n_per_class // 2
    tags = ["train"] * n_train + ["query"] + ["gallery"] * (n_per_class - n_train - 1)
    return Dataset(np.arange(n_classes * n_per_class), features,
                   np.repeat(np.arange(1, n_classes + 1), n_per_class),
                   np.tile(tags, n_classes), n_classes)


def convex_mix(features: np.ndarray, weights) -> np.ndarray:
    """Convex combination of the rows of ``features``."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or features.shape[0] != w.size:
        raise InvalidDimension("need one weight per feature row")
    if np.any(w < 0) or abs(float(np.sum(w)) - 1.0) > 1e-9:
        raise InvalidConfig("weights must be nonnegative and sum to 1")
    return w @ features


def check_generated_params(n_classes: int, mix_size: int | None, noise: float) -> None:
    """The rules :func:`make_generated_dataset` holds ``mix_size`` and
    ``noise`` to, given a real dataset of ``n_classes`` classes; with
    ``mix_size`` None the noise alone is checked.  A violation raises
    InvalidConfig."""
    if not 0 <= noise < math.inf:
        raise InvalidConfig(f"noise must be finite and >= 0, got {noise!r}")
    if mix_size is not None and not 2 <= mix_size <= n_classes:
        raise InvalidConfig(f"mix_size must be in 2..{n_classes}, got {mix_size}")


def make_generated_dataset(real: Dataset, m: int, mix_size: int, noise: float,
                           seed) -> Dataset:
    """Build m unlabeled samples, each a noisy convex mixture of train samples.

    Every sample mixes one train sample from each of ``mix_size`` distinct
    classes.  Weights come from a Dirichlet(1) simplex draw shrunk toward
    uniform, so every source class keeps a substantial share; the noise is
    Gaussian clipped at 3 standard deviations, so samples provably stay
    inside the source hull expanded by 3*noise per coordinate.  The source
    ids, classes and weights go into the dataset's provenance arrays for
    diagnostics only.
    """
    if m < 1:
        raise InvalidConfig("need at least one generated sample")
    check_generated_params(real.n_classes, mix_size, noise)
    train = real.split("train")
    class_ids = np.unique(train.classes)
    if class_ids.size < mix_size:
        raise GenerationFailure(
            f"only {class_ids.size} classes have train samples, need {mix_size}"
        )
    # train rows of each class, in dataset order
    members = [np.flatnonzero(train.classes == c) for c in class_ids]

    rng = np.random.default_rng(seed)
    sources = np.empty((m, mix_size), dtype=np.int64)
    weights = np.empty((m, mix_size))
    features = np.empty((m, real.feature_dim))
    # the random stream per sample: class choice, source picks, weights, noise
    for i in range(m):
        chosen = rng.choice(class_ids.size, size=mix_size, replace=False)
        sources[i] = [members[idx][rng.integers(members[idx].size)] for idx in chosen]
        weights[i] = (1.0 - WEIGHT_SHRINK) * rng.dirichlet(np.ones(mix_size)) \
            + WEIGHT_SHRINK / mix_size
        features[i] = convex_mix(train.features[sources[i]], weights[i])
        if noise > 0:
            features[i] += noise * np.clip(rng.standard_normal(real.feature_dim), -3.0, 3.0)
    first_id = int(real.ids.max()) + 1
    return Dataset(np.arange(first_id, first_id + m), features, np.full(m, -1),
                   np.full(m, "train"), real.n_classes,
                   train.ids[sources], train.classes[sources], weights)


def save_dataset(dataset: Dataset, path) -> None:
    """Write the plain-text dataset format described in the module docstring."""
    lines = [f"{dataset.n_classes} {dataset.feature_dim} {len(dataset)}"]
    for sid, tag, label, row in zip(dataset.ids.tolist(), dataset.splits.tolist(),
                                    dataset.classes.tolist(), dataset.features.tolist()):
        origin = "generated" if label == -1 else "real"
        feats = " ".join(f"{v:.17g}" for v in row)
        lines.append(f"{sid} {tag} {origin} {label} {feats}")
    Path(path).write_text("\n".join(lines) + "\n")
