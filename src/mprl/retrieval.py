"""Retrieval evaluation: squared-Euclidean ranking, CMC and mAP.

Distances are exact brute force, computed over blocks of query rows
(the blocked exact search of Johnson, Douze and Jegou, arXiv 1702.08734).
A block accumulates one per-coordinate (rows, n_g) plane
``(q[:, k, None] - g.T[k])**2`` at a time into its zero-initialised
slice of the result, so every distance is its d squared differences
added left to right from 0: bit-equal to a pure-Python ``sum`` at every
d, while the work is whole-plane elementwise passes.  A block's result
slice and scratch plane, numpy's ufunc buffers included, hold at most
``BLOCK_BYTES`` (one query row when a row alone is larger): each pass
stays in cache, and memory beyond the (n_q, n_g) result is bounded
whatever the number of queries.  A distance beyond the float64 range
is ``inf``, which ``evaluate`` rejects.

The kernel runs under :func:`small_ufunc_buffer`.  numpy's ufunc
iterator copies a broadcast operand into its buffer whenever two rows of
the operation fit there (three for a plane: the column, the gallery row
and the output), so under its default 8192 elements every plane of a
gallery under 2731 items went through a copy and took about twice as
long a term.  Under the 1024-element buffer only galleries under 342
items are copied, and no result depends on the buffer size.

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

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidDimension, InvalidState, ProtocolViolation

# byte budget of one query block's pass: its output slice and scratch plane,
# numpy's buffers included (at least one row); a block that outgrows the
# cache slows every pass over it
BLOCK_BYTES = 1024 * 1024
# elements of the ufunc buffer the wide-row entry points run under; rows
# of at least half as many elements are read in place, not copied
UFUNC_BUFFER = 1024
# numpy buffers a broadcast operand when a plane row is short (under a third
# of the buffer): at most one buffer for each operand of a ufunc
_UFUNC_BUFFER_BYTES = 3 * 8 * UFUNC_BUFFER


@contextmanager
def small_ufunc_buffer():
    """Run under a ``UFUNC_BUFFER``-element ufunc buffer, then restore the
    caller's ``np.getbufsize()``, also on error; as a decorator, around
    each call.

    numpy copies a broadcast operand (a (B, 1) column, a bias row) into
    its buffer whenever two rows of the operation fit there, so entry
    points that loop over rows of hundreds to thousands of elements run
    under this one.  Apply it once per entry point, never per batch: a
    set and restore costs about 5 us.  numpy 2 keeps the size in a
    context variable and numpy 1 per thread, so neither the caller nor
    another thread sees it.
    """
    caller = np.setbufsize(UFUNC_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(caller)


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


@small_ufunc_buffer()
def sq_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """D[i][j] = squared Euclidean distance between rows a[i] and b[j].

    Exact: each distance is ``sum_k (a[i, k] - b[j, k])**2`` added left to
    right from 0, the order of a pure-Python ``sum``.  A block of rows of
    ``a`` accumulates one plane ``(a[:, k, None] - b.T[k])**2`` per
    coordinate into its (rows, n_b) slice of the result.  The slice, the
    plane and numpy's ufunc buffers hold at most ``BLOCK_BYTES`` together;
    a block is one row when that row alone is larger.  A distance beyond
    the float64 range is ``inf``, without a warning.  Runs under
    :func:`small_ufunc_buffer`, whatever the caller's buffer.
    """
    n, n_b = a.shape[0], b.shape[0]
    out = np.zeros((n, n_b))
    bt = np.ascontiguousarray(b.T)
    rows = max(1, (BLOCK_BYTES - _UFUNC_BUFFER_BYTES) // max(1, 16 * n_b))
    scratch = np.empty((min(rows, n), n_b))
    with np.errstate(over="ignore"):
        for start in range(0, n, rows):
            block = a[start:start + rows]
            dest = out[start:start + rows]
            plane = scratch[:len(block)]
            for k in range(a.shape[1]):
                np.subtract(block[:, k, None], bt[k], out=plane)
                np.multiply(plane, plane, out=plane)
                dest += plane
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

    Every query class must occur in the gallery, and every distance must
    be finite.  AP per query is the mean of (number of relevant items in
    the top r) / r over the ranks r where a relevant item sits.
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
    if not np.isfinite(dist).all():
        raise ProtocolViolation("distances must be finite (a NaN, or a squared "
                                "distance beyond the float64 range)")

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
