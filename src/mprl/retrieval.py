"""Retrieval evaluation: squared-Euclidean ranking, CMC and mAP.

Distances are exact brute force, computed over blocks of query rows
(the blocked exact search of Johnson, Douze and Jegou, arXiv 1702.08734).
A block's distances are a sum of per-coordinate (rows, n_g) planes
``(q[:, k, None] - g.T[k])**2``, added in the order numpy's pairwise
sum adds a length-d axis: one by one below 8 terms, eight strided
partial sums combined as a balanced tree up to 128, and two recursive
halves above.  Every distance is therefore the same
``sum(diff * diff)`` the one-shot (n_q, n_g, d) broadcast gives, bit
for bit, while the work is whole-plane elementwise passes.  A block's
scratch planes, numpy's ufunc buffers included, hold at most
``BLOCK_BYTES`` (one query row when a row alone is larger), so memory
beyond the (n_q, n_g) result is bounded whatever the number of queries.

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

# byte budget of one query block's scratch planes, numpy's buffers included
# (at least one row of planes)
BLOCK_BYTES = 2 * 1024 * 1024
# numpy buffers a broadcast operand when a plane row is short (under a third
# of its buffer size): at most one buffer for each operand of a ufunc
_UFUNC_BUFFER_BYTES = 3 * 8 * np.getbufsize()


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


def _scratch_planes(n: int) -> int:
    """Scratch planes ``_pairwise`` needs for n terms, besides its output."""
    if n < 8:
        return int(n > 1)
    if n <= 128:
        # three finished partial sums of the 8-way tree, plus a chain's term
        return 3 + (n >= 16)
    n2 = n // 2 - n // 2 % 8
    return max(_scratch_planes(n2), 1 + _scratch_planes(n - n2))


def _square_diff(a, bt, k, dest):
    np.subtract(a[:, k, None], bt[k], out=dest)
    np.multiply(dest, dest, out=dest)


def _chain(a, bt, ks, dest, spare):
    """dest = the planes of ``ks`` added one by one, left to right."""
    _square_diff(a, bt, ks[0], dest)
    for k in ks[1:]:
        _square_diff(a, bt, k, spare[0])
        dest += spare[0]


def _tree(a, bt, groups, dest, spare):
    """dest = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), r_j the
    chain of ``groups[j]``."""
    if len(groups) == 1:
        _chain(a, bt, groups[0], dest, spare)
        return
    half = len(groups) // 2
    _tree(a, bt, groups[:half], dest, spare)
    _tree(a, bt, groups[half:], spare[0], spare[1:])
    dest += spare[0]


def _pairwise(a, bt, ks, dest, spare):
    """dest = the sum over k in ``ks`` of (a[:, k, None] - bt[k])**2, added
    in the order numpy's pairwise sum adds an axis of len(ks) terms."""
    n = len(ks)
    if n < 8:
        _chain(a, bt, ks, dest, spare)
    elif n <= 128:
        # eight strided partial sums over the largest multiple of 8, then
        # the rest one by one
        m = n - n % 8
        _tree(a, bt, [ks[j:m:8] for j in range(8)], dest, spare)
        for k in ks[m:]:
            _square_diff(a, bt, k, spare[0])
            dest += spare[0]
    else:
        n2 = n // 2 - n // 2 % 8
        _pairwise(a, bt, ks[:n2], dest, spare)
        _pairwise(a, bt, ks[n2:], spare[0], spare[1:])
        dest += spare[0]


def sq_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """D[i][j] = squared Euclidean distance between rows a[i] and b[j].

    Exact and bit-equal to ``np.sum(diff * diff, axis=-1)`` over the full
    (n_a, n_b, d) broadcast, which is never built.  A block of rows of
    ``a`` writes its (rows, n_b) result slice as a sum of per-coordinate
    planes ``(a[:, k, None] - b.T[k])**2``, added in numpy's pairwise
    order.  A block's scratch planes and numpy's ufunc buffers hold at
    most ``BLOCK_BYTES`` together; a block is one row when that row's
    planes alone are larger.
    """
    n, d = a.shape
    if d == 0:
        return np.zeros((n, b.shape[0]))
    out = np.empty((n, b.shape[0]))
    bt = np.ascontiguousarray(b.T)
    planes = _scratch_planes(d)
    rows = max(1, (BLOCK_BYTES - _UFUNC_BUFFER_BYTES) // max(1, 8 * planes * b.shape[0]))
    scratch = np.empty((planes, min(rows, n), b.shape[0]))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        _pairwise(a[start:stop], bt, range(d), out[start:stop],
                  [plane[:stop - start] for plane in scratch])
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
    if n < 1 or dim < 1:
        raise InvalidState(f"{path}:{header_no}: header needs n >= 1 and dim >= 1, "
                           f"got {n} and {dim}")
    if len(rows) - 1 != n:
        raise InvalidState(f"{path}: header says {n} rows, file has {len(rows) - 1}")
    # the first row confirms the header's width before any array is sized
    # from it, so the arrays are never larger than the file's own rows imply
    _check_fields(path, *rows[1], dim)
    ids = np.empty(n, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    vectors = np.empty((n, dim))
    for i, (line_no, row) in enumerate(rows[1:]):
        parts = _check_fields(path, line_no, row, dim)
        try:
            ids[i] = int(parts[0])
            labels[i] = int(parts[1])
            vectors[i] = [float(v) for v in parts[2:]]
        except (ValueError, OverflowError) as exc:  # OverflowError: beyond int64
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


def _check_fields(path, line_no: int, row: str, dim: int) -> list[str]:
    """The fields of an embedding row, which must number ``2 + dim``."""
    parts = row.split()
    if len(parts) != 2 + dim:
        raise InvalidState(f"{path}:{line_no}: {len(parts)} fields, expected {2 + dim}")
    return parts
