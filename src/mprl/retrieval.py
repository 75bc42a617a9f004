"""Retrieval evaluation: squared-Euclidean ranking, CMC and mAP.

Distances are exact brute force, computed over blocks of query rows
(the blocked exact search of Johnson, Douze and Jegou, arXiv 1702.08734):
each block's (rows, n_g, d) difference tensor holds at most
``BLOCK_BYTES`` (one query row when a row alone is larger), so memory
beyond the (n_q, n_g) result is bounded whatever the number of queries,
and every distance is the same ``sum(diff * diff)`` the one-shot
broadcast gives, bit for bit.

Per query, gallery items rank by ascending distance with ties broken by
gallery index.  The ranking is counted, not sorted out: a relevant
item's 1-based position is the number of items strictly closer, plus
the number of items at the same distance with a lower gallery index,
plus one.  The first count is a binary search in the sorted distance
row; the second orders only the items at a tied distance.  AP averages
precision at each relevant rank (no interpolation); CMC[k] is the
fraction of queries with a relevant item somewhere in the top k+1.

Embedding file format (plain text): header ``n dim``, then one row per
item: ``id label v1 ... vdim`` with 17-significant-digit floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidDimension, InvalidState, ProtocolViolation

# byte budget of one query block's difference tensor (at least one row)
BLOCK_BYTES = 2 * 1024 * 1024


@dataclass
class EmbeddingSet:
    ids: np.ndarray
    labels: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        n = self.ids.size
        if self.labels.size != n or self.vectors.ndim != 2 or self.vectors.shape[0] != n:
            raise InvalidDimension("ids, labels and vectors must agree on the item count")
        if n == 0:
            raise InvalidDimension("embedding set must be non-empty")
        if np.unique(self.ids).size != n:
            raise InvalidDimension("embedding ids must be unique")
        if not np.all(np.isfinite(self.vectors)):
            raise InvalidDimension("embedding vectors must be finite")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class EvalReport:
    rank1: float
    mean_ap: float
    cmc_curve: np.ndarray

    def __post_init__(self):
        self.cmc_curve = np.asarray(self.cmc_curve, dtype=np.float64)
        cmc = self.cmc_curve
        if cmc.ndim != 1 or cmc.size < 1:
            raise InvalidDimension("CMC curve must be a non-empty 1-d vector")
        if cmc[0] != self.rank1:
            raise ProtocolViolation(f"rank-1 {self.rank1!r} differs from CMC[0] {cmc[0]!r}")
        if not np.all(np.diff(cmc) >= 0.0):
            raise ProtocolViolation("CMC must be nondecreasing")
        if not (0.0 <= self.rank1 <= 1.0 and 0.0 <= self.mean_ap <= 1.0):
            raise ProtocolViolation("rank-1 and mAP must lie in [0, 1]")
        if not cmc[-1] <= 1.0 + 1e-12:
            raise ProtocolViolation("CMC must not exceed 1")


def sq_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """D[i][j] = squared Euclidean distance between rows a[i] and b[j].

    Exact and bit-equal to ``np.sum(diff * diff, axis=-1)`` over the full
    (n_a, n_b, d) broadcast, which is never built: rows of ``a`` go
    through one reused block buffer of at most ``BLOCK_BYTES``, or of
    one row when a row alone is larger.
    """
    n = a.shape[0]
    out = np.empty((n, b.shape[0]))
    rows = max(1, BLOCK_BYTES // max(1, 8 * b.size))
    block = np.empty((min(rows, n),) + b.shape)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        diff = block[:stop - start]
        np.subtract(a[start:stop, None, :], b[None, :, :], out=diff)
        np.multiply(diff, diff, out=diff)
        np.sum(diff, axis=-1, out=out[start:stop])
    return out


def pairwise_sq_euclidean(queries: EmbeddingSet, gallery: EmbeddingSet) -> np.ndarray:
    """D[i][j] = squared Euclidean distance between query i and gallery j."""
    if queries.dim != gallery.dim:
        raise InvalidDimension(
            f"query dim {queries.dim} differs from gallery dim {gallery.dim}"
        )
    return sq_euclidean(queries.vectors, gallery.vectors)


def _relevant_positions(row: np.ndarray, is_relevant: np.ndarray) -> np.ndarray:
    """Ascending 1-based positions of the relevant items when ``row`` is
    ranked by (distance, gallery index)."""
    sorted_row = np.sort(row)
    d = np.sort(row[is_relevant])  # ascending keys keep each binary search short
    positions = np.searchsorted(sorted_row, d, "left")  # items strictly closer
    # tied: the next slot of the sorted row holds the same distance
    after = positions + 1
    tied = (sorted_row[np.minimum(after, row.size - 1)] == d) & (after < row.size)
    if tied.any():
        # every item at a tied distance, ordered by (distance, index): its
        # position is the count of items strictly closer plus the count of
        # items before it in this order at the same distance
        members = np.flatnonzero(np.isin(row, d[tied]))
        order = np.lexsort((members, row[members]))
        ranked = row[members[order]]
        member_positions = (np.searchsorted(sorted_row, ranked, "left")
                            + np.arange(members.size) - np.searchsorted(ranked, ranked, "left"))
        positions = np.sort(np.concatenate(
            (positions[~tied], member_positions[is_relevant[members[order]]])))
    return positions + 1


def evaluate(distances, query_labels, gallery_labels) -> EvalReport:
    """Score a distance matrix: mAP, rank-1 and the full CMC curve.

    Every query class must occur in the gallery, and no distance may be
    NaN.  AP per query is the mean of (number of relevant items in the
    top r) / r over the ranks r where a relevant item sits.
    """
    dist = np.asarray(distances, dtype=np.float64)
    q_labels = np.asarray(query_labels, dtype=np.int64)
    g_labels = np.asarray(gallery_labels, dtype=np.int64)
    if dist.ndim != 2 or dist.shape != (q_labels.size, g_labels.size):
        raise InvalidDimension(
            f"distance matrix {dist.shape} does not match {q_labels.size} queries "
            f"x {g_labels.size} gallery items"
        )
    missing = sorted(set(q_labels.tolist()) - set(g_labels.tolist()))
    if missing:
        raise ProtocolViolation(f"query classes absent from gallery: {missing}")
    if np.isnan(dist).any():
        raise ProtocolViolation("distances must not be NaN")

    n_q, n_g = dist.shape
    first_hit = np.zeros(n_g, dtype=np.int64)
    aps = np.empty(n_q)
    for i in range(n_q):
        positions = _relevant_positions(dist[i], g_labels == q_labels[i])
        first_hit[positions[0] - 1] += 1
        precisions = np.arange(1, positions.size + 1) / positions
        aps[i] = float(np.mean(precisions))

    cmc = np.cumsum(first_hit) / n_q
    return EvalReport(rank1=float(cmc[0]), mean_ap=float(np.mean(aps)), cmc_curve=cmc)


def report_to_json(report: EvalReport) -> str:
    """Serialize with exactly six decimal places per value."""
    cmc = ", ".join(f"{v:.6f}" for v in report.cmc_curve)
    return (
        f'{{"rank1": {report.rank1:.6f}, "mAP": {report.mean_ap:.6f}, "cmc": [{cmc}]}}\n'
    )


def save_report(report: EvalReport, path) -> None:
    Path(path).write_text(report_to_json(report))


def save_embeddings(embeddings: EmbeddingSet, path) -> None:
    lines = [f"{embeddings.ids.size} {embeddings.dim}"]
    for i in range(embeddings.ids.size):
        feats = " ".join(f"{v:.17g}" for v in embeddings.vectors[i])
        lines.append(f"{embeddings.ids[i]} {embeddings.labels[i]} {feats}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_embeddings(path) -> EmbeddingSet:
    """Read an embedding file; a malformed header or row, a non-finite value
    or a repeated id raises InvalidState naming ``path:line``."""
    rows = [(no, line) for no, line in enumerate(Path(path).read_text().splitlines(), start=1)
            if line.strip()]
    if not rows:
        raise InvalidState(f"{path}: empty embedding file")
    header_no, header = rows[0]
    try:
        n, dim = (int(v) for v in header.split())
    except ValueError:
        raise InvalidState(f"{path}:{header_no}: header must be 'n dim', "
                           f"got {header.strip()!r}") from None
    if dim < 1:
        raise InvalidState(f"{path}:{header_no}: embedding dim must be >= 1, got {dim}")
    if len(rows) - 1 != n:
        raise InvalidState(f"{path}: header says {n} rows, file has {len(rows) - 1}")
    ids = np.empty(n, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    vectors = np.empty((n, dim))
    for i, (line_no, row) in enumerate(rows[1:]):
        parts = row.split()
        if len(parts) != 2 + dim:
            raise InvalidState(
                f"{path}:{line_no}: {len(parts)} fields, expected {2 + dim}")
        try:
            ids[i] = int(parts[0])
            labels[i] = int(parts[1])
            vectors[i] = [float(v) for v in parts[2:]]
        except ValueError as exc:
            raise InvalidState(f"{path}:{line_no}: {exc}") from None
    nonfinite = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if nonfinite.size:
        raise InvalidState(f"{path}:{rows[1 + nonfinite[0]][0]}: non-finite vector value")
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if repeats.size:
        i = repeats.min()
        raise InvalidState(f"{path}:{rows[1 + i][0]}: duplicate id {ids[i]}")
    return EmbeddingSet(ids, labels, vectors)
