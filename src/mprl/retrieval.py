"""Retrieval evaluation: squared-Euclidean ranking, CMC and mAP.

Distances are exact brute force, computed over blocks of query rows
(the blocked exact search of Johnson, Douze and Jegou, arXiv 1702.08734).
A block accumulates one per-coordinate (rows, n_g) plane
``(q[:, k, None] - g.T[k])**2`` at a time into its zero-initialised
result, so every distance is its d squared differences added left to
right from 0: bit-equal to a pure-Python ``sum`` at every d, while the
work is whole-plane elementwise passes.  A block's result and scratch
plane, numpy's ufunc buffers included, hold at most ``BLOCK_BYTES`` (one
query row when a row alone is larger), so each pass stays in cache.
:func:`sq_euclidean_blocks` hands the (n_q, n_g) distances over one
block at a time in one reused buffer.  :func:`pairwise_sq_euclidean`
keeps the two vector sets, which :func:`evaluate` ranks one block of
query rows at a time (below), so ``mprl eval`` and every grid cell hold
one ranking block of distances whatever the number of queries; the
whole matrix is never built.  A distance beyond the float64 range is
``inf``, which ``evaluate`` rejects.

Two budgets size the blocks.  The plane kernel's, ``BLOCK_BYTES`` (1 MiB),
keeps each pass over a block and its plane in cache.  The ranker's,
``RANK_BLOCKS`` times that (4 MiB), holds a ranking block of distances
(a quarter of it), its chunks' counting arrays (half) and a plane slice
of a fallback: counting pays fixed numpy calls per chunk, which
plane-sized blocks of a few rows repeat too often.

The kernel runs under :func:`small_ufunc_buffer`.  numpy's ufunc
iterator copies a broadcast operand into its buffer whenever two rows of
the operation fit there (three for a plane: the column, the gallery row
and the output), so under its default 8192 elements every plane of a
gallery under 2731 items went through a copy and took about twice as
long a term.  Under the 1024-element buffer only galleries under 342
items are copied, and no result depends on the buffer size.

Per query, gallery items rank by ascending distance with ties broken by
gallery index.  The ranking is counted, not sorted out: a relevant
item's 1-based position is one plus the number of items ahead of it, and
no distance row is sorted.  Only the query's relevant items are sorted,
by (distance, gallery index); every other item is counted into the slot
between the relevant items it falls, one binary search each, and items
farther than every relevant item are dropped unseen.  AP averages
precision at each relevant rank (no interpolation); CMC[k] is the
fraction of queries with a relevant item somewhere in the top k+1.

:func:`evaluate` ranks a :class:`PairwiseDistances` from its vectors.
Per block of query rows one float64
BLAS product gives ``A = |q|**2 + |g|**2 - 2 q.g``, whose rounding at any
summation order, with the plane kernel's own and underflow, stays within
``r = 4 (d + 3) (2**-53 (|q| + max |g|)**2 + 2**-1074)`` of the plane
distance.  The plane distance stays the definition; ``A`` only decides
which pairs need it (the blocked GEMM filter of Johnson, Douze and
Jegou).  The relevant items' distances are computed exactly, pair by
pair, in the plane kernel's order.  An item with ``A`` more than r from
every relevant distance is surely ahead of or behind each; only the pairs
left within r get exact values.  Identical gallery rows, sought once
when some ``|g|**2`` repeats, count through one member: they are at one
distance from any query.  A block or chunk with too many pairs in doubt
takes its plane block instead, filled in slices of the plane kernel's
budget.  A block with so many items to count that this may be so lets a
sample of them decide first, before it is split into chunks or any pair
in doubt is computed.  Vectors of a norm from 2**400 on, whose squared
distances may leave the float64 range and must show as ``inf``, take
plane blocks throughout; they and a distance matrix go through the same
counting with r = 0.  Rows are counted in chunks whose index and value
arrays fit half the ranker's budget (or hold one row), so the heaviest
tie band stays bounded as well.

Embedding file format (plain text): header ``n dim``, then one row per
item: ``id label v1 ... vdim`` with 17-significant-digit floats, fields
split on whitespace, blank lines skipped, numbers in Python's ``int``
and ``float`` syntax (see :func:`load_embeddings`).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidDimension, InvalidState, ProtocolViolation, read_utf8

# byte budget of one query block's pass: its output block and scratch plane,
# numpy's buffers included (at least one row); a block that outgrows the
# cache slows every pass over it
BLOCK_BYTES = 1024 * 1024
# the ranker's budget in plane budgets: a block of GEMM distances, its
# chunks' counting arrays and a plane slice of a fallback.  Each chunk pays
# about 70 us of fixed numpy calls, which plane-sized blocks (8 rows against
# 4000 items) repeat 125 times in a 1000 x 4000 evaluate
RANK_BLOCKS = 4
# elements of the ufunc buffer the wide-row entry points run under; rows
# of at least half as many elements are read in place, not copied
UFUNC_BUFFER = 1024
# numpy buffers a broadcast operand when a plane row is short (under a third
# of the buffer): at most one buffer for each operand of a ufunc
_UFUNC_BUFFER_BYTES = 3 * 8 * UFUNC_BUFFER
# bytes of index, value and key arrays that ranking holds at once for one
# relevant or candidate item, with room to spare (about 130 measured): a
# chunk of query rows holds at most _rank_bytes() // _ITEM_BYTES of them (or
# one row), which keeps its arrays within half of the ranker's budget
_ITEM_BYTES = 256
# one pair's distance computed alone costs about as much as this many
# distances of a plane block (7 to 8 measured at d = 16 to 64): a chunk
# needing more pairs than its area over this takes its plane block instead
_PAIR_COST = 8
# items of a ranking block with many candidates whose order is checked
# first: too many in doubt among them, and the block takes its plane block
# before it is split into chunks or any pair in doubt is computed
_SAMPLE = 1024
# vectors of a norm from here on are ranked from plane blocks, where a
# squared distance beyond the float64 range shows as inf
_NORM_LIMIT = 2.0 ** 400


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


def _integers(values, what: str) -> np.ndarray:
    """``values`` as int64, without a copy when they are already; values
    of a non-integer type raise, where a cast would truncate them, and so
    do uint64 values above the int64 range, where it would wrap them."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise InvalidDimension(f"{what} must be integers, got {values.dtype}")
    top = np.iinfo(np.int64).max
    if values.dtype == np.uint64 and values.size and values.max() > top:
        big = values[values > top][0]
        raise InvalidDimension(f"{what} must fit in int64, got {big}")
    return values.astype(np.int64, copy=False)


@dataclass
class EmbeddingSet:
    ids: np.ndarray
    labels: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.ids = _integers(self.ids, "embedding ids")
        self.labels = _integers(self.labels, "embedding labels")
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.ids.ndim != 1 or self.labels.ndim != 1:  # a row holds one id and one label
            raise InvalidDimension(f"embedding ids and labels must be 1-d, got "
                                   f"{self.ids.ndim}-d ids and {self.labels.ndim}-d labels")
        n = self.ids.size
        if self.labels.size != n or self.vectors.ndim != 2 or self.vectors.shape[0] != n:
            raise InvalidDimension("ids, labels and vectors must agree on the item count")
        if n == 0:
            raise InvalidDimension("embedding set must be non-empty")
        if self.vectors.shape[1] == 0:  # the file format needs dim >= 1
            raise InvalidDimension("embedding vectors must have at least one coordinate")
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


def _block_rows(n_b: int) -> int:
    """Query rows per block against ``n_b`` items: as many as fit their
    result and scratch plane in ``BLOCK_BYTES``, at least one."""
    return max(1, (BLOCK_BYTES - _UFUNC_BUFFER_BYTES) // max(1, 16 * n_b))


def _rank_bytes() -> int:
    """The ranker's byte budget, read when a ranking starts, so that it
    follows ``BLOCK_BYTES``."""
    return RANK_BLOCKS * BLOCK_BYTES


def _fill_block(block: np.ndarray, bt: np.ndarray, dest: np.ndarray,
                plane: np.ndarray) -> None:
    """dest[i][j] = squared Euclidean distance between ``block[i]`` and
    column j of ``bt`` (the other set, transposed), added left to right
    from 0, one ``plane`` per coordinate.  ``dest`` and ``plane`` are
    (rows, n_b); a distance beyond the float64 range is ``inf``, without a
    warning.  Callers run it under :func:`small_ufunc_buffer`."""
    dest.fill(0.0)
    with np.errstate(over="ignore"):
        for k in range(block.shape[1]):
            np.subtract(block[:, k, None], bt[k], out=plane)
            np.multiply(plane, plane, out=plane)
            dest += plane


def sq_euclidean_blocks(a: np.ndarray, b: np.ndarray):
    """D[i][j] = squared Euclidean distance between rows a[i] and b[j], as
    an iterator of (rows, n_b) blocks of D in row order, computed one block
    per step.

    Exact: each distance is ``sum_k (a[i, k] - b[j, k])**2`` added left to
    right from 0, the order of a pure-Python ``sum``.  A block of rows of
    ``a`` accumulates one plane ``(a[:, k, None] - b.T[k])**2`` per
    coordinate.  Every block is a view of one buffer, which the next step
    overwrites: use a block before asking for the next one.  The buffer,
    its scratch plane and numpy's ufunc buffers hold at most
    ``BLOCK_BYTES``; a block is one row when that row alone is larger.  A
    distance beyond the float64 range is ``inf``, without a warning.  Each
    block is computed under :func:`small_ufunc_buffer` and handed over
    outside it, so the caller's numpy settings hold between blocks and
    after a consumer stops early.
    """
    n, n_b = a.shape[0], b.shape[0]
    bt = np.ascontiguousarray(b.T)
    rows = _block_rows(n_b)
    buffer = np.empty((2, min(rows, n), n_b))
    for start in range(0, n, rows):
        block = a[start:start + rows]
        dest, plane = buffer[0, :len(block)], buffer[1, :len(block)]
        with small_ufunc_buffer():
            _fill_block(block, bt, dest, plane)
        yield dest


@dataclass(frozen=True)
class PairwiseDistances:
    """The (n_q, n_g) squared distances between two vector sets, held as
    the sets: :func:`evaluate` ranks them block by block of query rows,
    and :func:`sq_euclidean_blocks` gives their exact row blocks."""

    queries: np.ndarray
    gallery: np.ndarray

    def __post_init__(self):
        """Sets that are not (n, d) matrices of one width d >= 1 raise
        InvalidDimension."""
        if np.ndim(self.queries) != 2 or np.ndim(self.gallery) != 2:
            raise InvalidDimension(f"vector sets must be 2-d, got {np.ndim(self.queries)}-d "
                                   f"queries and {np.ndim(self.gallery)}-d gallery")
        q_dim, g_dim = np.shape(self.queries)[1], np.shape(self.gallery)[1]
        if q_dim != g_dim:
            raise InvalidDimension(f"query dim {q_dim} differs from gallery dim {g_dim}")
        if q_dim == 0:
            raise InvalidDimension("vectors must have at least one coordinate, got width 0")


def pairwise_sq_euclidean(queries: EmbeddingSet, gallery: EmbeddingSet) -> PairwiseDistances:
    """D[i][j] = squared Euclidean distance between query i and gallery j,
    as the two vector sets, for :func:`evaluate` to rank without building
    the matrix.  A dimension mismatch raises here, before any distance."""
    return PairwiseDistances(queries.vectors, gallery.vectors)


def _keys(real, imag) -> np.ndarray:
    """Complex keys, which numpy orders by ``real``, then by ``imag``."""
    keys = np.empty(np.shape(imag), dtype=np.complex128)
    keys.real = real
    keys.imag = imag
    return keys


def _chunk_ends(weights: np.ndarray, limit: int, max_rows: int) -> list[int]:
    """Ends of consecutive row ranges of at most ``max_rows`` rows whose
    ``weights`` add up to at most ``limit``; a range has at least one row."""
    total = np.cumsum(weights)
    ends, lo, base = [], 0, 0
    while lo < total.size:
        hi = int(np.searchsorted(total, base + limit, "right"))
        hi = min(max(hi, lo + 1), lo + max_rows)
        ends.append(hi)
        lo, base = hi, total[hi - 1]
    return ends


def _first_copies(vectors: np.ndarray) -> np.ndarray:
    """For each row, the lowest index of the rows equal to it (its own
    index when none is; -0.0 equals 0.0), in passes of one column each:
    ``np.unique`` over the rows' bytes would hold several copies of them."""
    n = len(vectors)
    # lexicographic order, stable: equal rows sit together, in index order
    order = np.lexsort(vectors.T)
    fresh = np.arange(n) == 0  # where a row differs from the one before it
    for column in vectors.T:
        values = column[order]
        fresh[1:] |= values[1:] != values[:-1]
    copies = np.empty_like(order)
    copies[order] = order[np.maximum.accumulate(np.where(fresh, np.arange(n), 0))]
    return copies


class _Groups:
    """Gallery items as groups of identical rows, each ranked through its
    lowest index, the group's leader: identical rows are at one distance
    from any query, so they share one value and one comparison."""

    def __init__(self, leaders: np.ndarray):
        n = leaders.size
        sizes = np.bincount(leaders, minlength=n)
        self.is_leader = sizes > 0
        self.size = sizes[leaders]  # of each item's group
        # members sorted by (leader, index); a group starts at its leader's slot
        order = np.argsort(leaders, kind="stable")
        self.members = _keys(leaders[order], order)
        self.starts = np.searchsorted(leaders[order], np.arange(n))

    def below(self, leaders: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Members of each leader's group with an index below ``cols``."""
        return np.searchsorted(self.members, _keys(leaders, cols)) - self.starts[leaders]


def _groups(gallery: np.ndarray, g_sq: np.ndarray) -> _Groups | None:
    """Groups of identical gallery rows, or None when each row is alone.
    Identical rows have bit-equal squared norms ``g_sq``: rows are compared
    only when a norm repeats, and a group missed costs time, never a rank."""
    if np.unique(g_sq).size == g_sq.size:
        return None
    leaders = _first_copies(gallery)
    return None if (leaders == np.arange(leaders.size)).all() else _Groups(leaders)


class _PlanePairs:
    """Plane-kernel distances of listed (query, gallery) pairs: each one's
    d squared differences added left to right from 0, the arithmetic of
    :func:`_fill_block`, and so its bits."""

    def __init__(self, queries: np.ndarray, gallery: np.ndarray, transposed: np.ndarray,
                 groups: _Groups | None):
        self.queries, self.gallery, self.transposed = queries, gallery, transposed
        self.groups = groups  # None when every gallery row is its own group

    def __call__(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        out = np.empty(rows.size)
        step = max(1, BLOCK_BYTES // (64 * self.queries.shape[1]))
        for s in range(0, rows.size, step):
            diff = self.queries[rows[s:s + step]] - self.gallery[cols[s:s + step]]
            np.multiply(diff, diff, out=diff)
            out[s:s + step] = np.cumsum(diff, axis=1)[:, -1]  # left to right from 0
        return out

    def fill(self, start: int, dest: np.ndarray) -> None:
        """Plane distances of queries ``start`` on into the rows of ``dest``,
        in slices of as many rows as the plane kernel's budget holds, so
        each pass stays in cache however large the ranking block."""
        rows = _block_rows(dest.shape[1])
        plane = np.empty((min(rows, len(dest)), dest.shape[1]))
        for lo in range(0, len(dest), rows):
            part = dest[lo:lo + rows]
            _fill_block(self.queries[start + lo:start + lo + len(part)], self.transposed,
                        part, plane[:len(part)])


class _Ranking:
    """The 1-based positions of each query's relevant items, gallery items
    ranked by (distance, gallery index), counted chunk by chunk of query
    rows, and the report they make."""

    def __init__(self, q_labels: np.ndarray, g_labels: np.ndarray):
        self.n_g = g_labels.size
        self.by_class = np.argsort(g_labels, kind="stable")  # index order within a class
        sorted_labels = g_labels[self.by_class]
        self.first = np.searchsorted(sorted_labels, q_labels, "left")
        self.n_rel = np.searchsorted(sorted_labels, q_labels, "right") - self.first
        self.first_hit = np.empty(q_labels.size, dtype=np.int64)
        self.aps = np.empty(q_labels.size)
        # a chunk's items and rows: its counting arrays and its (rows, n_g)
        # masks and comparisons stay within the ranker's budget
        budget = _rank_bytes()
        self.items = max(1, budget // _ITEM_BYTES)
        self.rows = max(1, budget // (16 * self.n_g))
        self.sampled = 0  # queries before this one were judged by a sample

    def count(self, start: int, dist: np.ndarray, r: np.ndarray, exact=None) -> None:
        """Rank queries ``start`` to ``start + len(dist)`` from their rows
        ``dist``: exact distances when ``exact`` is None; else each within
        ``r`` (one radius per row) of the plane distance, which ``exact``
        (a :class:`_PlanePairs`) computes for the pairs whose order is in
        doubt, or writes into ``dist`` when they are too many."""
        if not self._count(start, dist, r, exact):
            exact.fill(start, dist)
            self._count(start, dist, np.zeros(len(dist)), None)

    def _split(self, start, dist, r, exact, weights) -> bool:
        lo = 0
        for hi in _chunk_ends(weights, self.items, self.rows):
            self.count(start + lo, dist[lo:hi], r[lo:hi], exact)
            lo = hi
        return True

    def _count(self, start, dist, r, exact) -> bool:
        b = len(dist)
        m = self.n_rel[start:start + b]
        if b > 1 and (b > self.rows or m.sum() > self.items):
            return self._split(start, dist, r, exact, m)
        off = np.zeros(b + 1, dtype=np.int64)
        np.cumsum(m, out=off[1:])
        n_pairs = int(off[-1])
        # the relevant items of each row, in gallery order
        rows = np.repeat(np.arange(b), m)
        cols = self.by_class[np.arange(n_pairs)
                             + np.repeat(self.first[start:start + b] - off[:-1], m)]
        if exact is None:
            values = dist[rows, cols]
        elif _PAIR_COST * n_pairs > b * self.n_g:
            return False
        else:
            values = exact(start + rows, cols)
        # sorted by (row, distance, gallery index): a stable sort keeps the
        # gallery order within a distance
        keys = _keys(rows, values)
        order = np.argsort(keys, kind="stable")
        keys, cols = keys[order], cols[order]
        # items farther than every relevant item take no part in any count
        keep = dist <= (keys.imag[off[1:] - 1] + r)[:, None]
        groups = None if exact is None else exact.groups
        if groups is not None:
            # a leader counts for its group: relevant members included, who
            # are taken off again at their own slots
            keep &= groups.is_leader
            alone = groups.size[cols] == 1
            keep[rows[alone], cols[alone]] = False
        else:
            keep[rows, cols] = False  # a relevant item's count is its slot
        flat = np.flatnonzero(keep)
        if (exact is not None and start + b > self.sampled
                and _PAIR_COST * flat.size > b * self.n_g):
            # so many items that their pairs in doubt may cost more than the
            # plane block: a sample of them decides first, before any split
            # or pair is paid for, once for the rows of a block
            sample = _doubt(keys, dist, r, flat[::max(1, flat.size // _SAMPLE)])[-1]
            if _PAIR_COST * flat.size * sample.mean() > b * self.n_g:
                return False
            self.sampled = start + b
        if b > 1 and flat.size > self.items:
            return self._split(start, dist, r, exact, np.bincount(flat // self.n_g, minlength=b))
        item_rows, item_cols, near, slots, doubt = _doubt(keys, dist, r, flat)
        # row i's slots are bins off[i] + i to off[i + 1] + i, the last for
        # items after all of the row's relevant items
        settled = ~doubt
        bins = np.bincount((slots + item_rows)[settled],
                           None if groups is None else groups.size[item_cols[settled]],
                           minlength=n_pairs + b)
        if doubt.any():
            item_rows, item_cols, near = item_rows[doubt], item_cols[doubt], near[doubt]
            if exact is not None:
                if _PAIR_COST * near.size > b * self.n_g:
                    return False
                near = exact(start + item_rows, item_cols)
            at, counts = _exact_counts(keys, cols, item_rows, item_cols, near, groups)
            bins = bins + np.bincount(at, counts, minlength=n_pairs + b)
        bins = bins.astype(np.int64, copy=False)
        if groups is not None:
            # a relevant member of a group landed just after its own slot
            shared = np.flatnonzero(groups.size[cols] > 1)
            np.subtract.at(bins, shared + rows[shared] + 1, 1)
        before = np.cumsum(bins)
        # the items ahead of each relevant slot, within its row
        closer = before[np.arange(n_pairs) + rows] - np.repeat(
            np.concatenate(([0], before[off[1:-1] + np.arange(b - 1)])), m)
        rank = np.arange(n_pairs) - np.repeat(off[:-1], m) + 1
        positions = rank + closer
        self.first_hit[start:start + b] = positions[off[:-1]]
        precisions = rank / positions
        for size in np.unique(m):
            at = np.flatnonzero(m == size)
            self.aps[start + at] = precisions[off[at, None] + np.arange(size)].mean(axis=1)
        return True

    def report(self) -> EvalReport:
        cmc = np.cumsum(np.bincount(self.first_hit - 1, minlength=self.n_g)) / self.aps.size
        return EvalReport(rank1=float(cmc[0]), mean_ap=float(np.mean(self.aps)),
                          cmc_curve=cmc)


def _doubt(keys, dist, r, flat):
    """The rows, columns and distances of the items at flat indices
    ``flat`` of ``dist``, the slot of the first relevant item not surely
    closer than each in the sorted ``keys``, and whether its order is in
    doubt: whether a relevant distance lies within r of it."""
    item_rows, item_cols = np.divmod(flat, dist.shape[1])
    near = dist.ravel()[flat]
    radius = r[item_rows]
    # relevant items surely closer: below the item's distance less r
    slots = np.searchsorted(keys, _keys(item_rows, near - radius))
    # a slot past the row reads the next row's first key: at most a
    # needless doubt
    doubt = keys.imag[np.minimum(slots, keys.size - 1)] <= near + radius
    return item_rows, item_cols, near, slots, doubt


def _exact_counts(keys, cols, rows, item_cols, values, groups):
    """Bins and counts (as in ``_Ranking._count``) of leaders ``item_cols``
    at exact distances ``values`` in ``rows``: each member of a leader's
    group (``groups``, or None when every item is its own) goes to the
    slot of the first relevant item after it by (distance, gallery index)
    in the sorted ``keys``, whose gallery indices are ``cols``."""
    probe = _keys(rows, values)
    left = np.searchsorted(keys, probe, "left")
    run = np.searchsorted(keys, probe, "right") - left
    sizes = np.ones(values.size, dtype=np.int64) if groups is None else groups.size[item_cols]
    tied = np.flatnonzero(run)
    if not tied.size:
        return left + rows, sizes
    # a group at a relevant distance splits around that run of relevant
    # items by gallery index: count its members below each of them
    lengths = run[tied]
    ends = np.cumsum(lengths)
    item = np.repeat(tied, lengths)
    member = np.arange(ends[-1]) + np.repeat(left[tied] - ends + lengths, lengths)
    if groups is None:
        below = (item_cols[item] < cols[member]).astype(np.int64)
    else:
        below = groups.below(item_cols[item], cols[member])
    step = np.diff(below, prepend=0)
    step[ends[:-1]] = below[ends[:-1]]
    untied = run == 0
    return (np.concatenate((left[untied] + rows[untied], member + rows[item],
                            left[tied] + lengths + rows[tied])),
            np.concatenate((sizes[untied], step, sizes[tied] - below[ends - 1])))


def _check_finite(dist: np.ndarray) -> None:
    if not np.isfinite(dist).all():
        raise ProtocolViolation("distances must be finite (a NaN, or a squared "
                                "distance beyond the float64 range)")


def _rank_from_vectors(ranking: _Ranking, queries: np.ndarray, gallery: np.ndarray) -> None:
    """Rank one block of query rows at a time.  A block holds GEMM
    distances ``|q|**2 + |g|**2 - 2 q.g``, each within r of its plane
    distance; once a vector's norm reaches 2**400, whose squared distances
    may leave the float64 range, every block holds plane distances (r = 0),
    which must be finite."""
    n_q, d = queries.shape
    n_g = gallery.shape[0]
    with np.errstate(over="ignore"):
        q_sq = np.einsum("ij,ij->i", queries, queries)
        g_sq = np.einsum("ij,ij->i", gallery, gallery)
        gemm = max(q_sq.max(), g_sq.max()) < _NORM_LIMIT ** 2
    # a block of distances takes a quarter of the ranker's budget, its
    # chunks' counting arrays half, and the plane slices that may replace a
    # chunk of it (at most half of BLOCK_BYTES) fit in the rest
    rows = min(max(1, _rank_bytes() // (32 * n_g)), n_q)
    if gemm:
        # bounds |GEMM - plane| at any summation order, underflow included
        r = 4 * (d + 3) * ((np.sqrt(q_sq) + np.sqrt(g_sq.max())) ** 2 * 2.0 ** -53
                           + 2.0 ** -1074)
        # one product per block: [-2q, 1, |q|^2] . [g, |g|^2, 1]
        rhs = np.empty((d + 2, n_g))
        rhs[:d] = gallery.T
        rhs[d] = g_sq
        rhs[d + 1] = 1.0
        exact = _PlanePairs(queries, gallery, rhs[:d], _groups(gallery, g_sq))
        # BLAS packs the columns of each call: a quarter of BLOCK_BYTES (the
        # plane kernel's budget, not the ranker's) of them keeps the memory
        # it touches small and in cache
        width = max(1, BLOCK_BYTES // (32 * (d + 2)))
        lhs = np.empty((rows, d + 2))
        lhs[:, d] = 1.0
    else:
        r = np.zeros(n_q)
        exact = _PlanePairs(queries, gallery, np.ascontiguousarray(gallery.T), None)
    buffer = np.empty((rows, n_g))
    for start in range(0, n_q, rows):
        stop = min(start + rows, n_q)
        block = buffer[:stop - start]
        if gemm:
            factors = lhs[:stop - start]
            np.multiply(queries[start:stop], -2.0, out=factors[:, :d])
            factors[:, d + 1] = q_sq[start:stop]
            for col in range(0, n_g, width):
                np.matmul(factors, rhs[:, col:col + width], out=block[:, col:col + width])
            ranking.count(start, block, r[start:stop], exact)
        else:
            exact.fill(start, block)
            _check_finite(block)
            ranking.count(start, block, r[start:stop])


@small_ufunc_buffer()
def evaluate(distances, query_labels, gallery_labels) -> EvalReport:
    """Score distances: mAP, rank-1 and the full CMC curve.

    ``distances`` is the (n_q, n_g) matrix, or a :class:`PairwiseDistances`
    (:func:`pairwise_sq_euclidean`), which is ranked from its two vector
    sets one block of query rows at a time, with the report of the matrix
    of its plane distances.  Both label arrays must be 1-d and of an
    integer type, there must be at least one query, every query class
    must occur in the gallery and the input must match the label counts,
    all checked before any distance is computed; every distance must be
    finite.  AP per query is the mean
    of (number of relevant items in the top r) / r over the ranks r where
    a relevant item sits.
    """
    q_labels = _integers(query_labels, "query labels")
    g_labels = _integers(gallery_labels, "gallery labels")
    if q_labels.ndim != 1 or g_labels.ndim != 1:
        raise InvalidDimension(f"labels must be 1-d, got {q_labels.ndim}-d query and "
                               f"{g_labels.ndim}-d gallery labels")
    n_q, n_g = q_labels.size, g_labels.size
    if n_q == 0:
        raise InvalidDimension("no queries to score")
    missing = sorted(set(q_labels.tolist()) - set(g_labels.tolist()))
    if missing:
        raise ProtocolViolation(f"query classes absent from gallery: {missing}")

    ranking = _Ranking(q_labels, g_labels)
    if isinstance(distances, PairwiseDistances):
        shape = distances.queries.shape[0], distances.gallery.shape[0]
        if shape != (n_q, n_g):
            raise InvalidDimension(f"{shape[0]} query and {shape[1]} gallery vectors do not "
                                   f"match {n_q} query and {n_g} gallery labels")
        _rank_from_vectors(ranking, distances.queries, distances.gallery)
    else:
        dist = np.asarray(distances, dtype=np.float64)
        if dist.shape != (n_q, n_g):
            raise InvalidDimension(f"distance matrix {dist.shape} does not match {n_q} "
                                   f"queries x {n_g} gallery items")
        _check_finite(dist)
        ranking.count(0, dist, np.zeros(n_q))
    return ranking.report()


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
    """Read an embedding file; bytes that are not UTF-8, a malformed header
    or row, a non-finite value or a repeated id raise InvalidState naming
    ``path:line``.

    The rows are parsed by one ``np.loadtxt`` call, which reads a subset
    of the format with the same values: it refuses underscores, non-ASCII
    digits and integers beyond int64, which Python's ``int`` and ``float``
    take or reject with their own message.  A file it refuses is read
    again by :func:`_read_rows`, the row loop that defines the format."""
    rows = [(no, line) for no, line in
            enumerate(read_utf8(path, InvalidState).splitlines(), start=1) if line.strip()]
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
    row_dtype = np.dtype([("id", np.int64), ("label", np.int64), ("v", np.float64, (dim,))])
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads an integer field it refuses as a float, with a
            # DeprecationWarning; as an error it sends the file to the loop
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt((row for _, row in rows[1:]), dtype=row_dtype,
                               comments=None, ndmin=1, max_rows=n)
    except ValueError:
        ids, labels, vectors = _read_rows(path, rows[1:], dim)
    else:
        # the set keeps contiguous copies; the table goes before the checks
        ids, labels = table["id"].copy(), table["label"].copy()
        vectors = np.ascontiguousarray(table["v"])
        del table
    nonfinite = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if nonfinite.size:
        raise InvalidState(f"{path}:{rows[1 + nonfinite[0]][0]}: non-finite vector value")
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if repeats.size:
        i = repeats.min()
        raise InvalidState(f"{path}:{rows[1 + i][0]}: duplicate id {ids[i]}")
    return EmbeddingSet(ids, labels, vectors)


def _read_rows(path, rows: list[tuple[int, str]], dim: int):
    """The ids, labels and vectors of the numbered data rows, each field
    read by Python's ``int`` or ``float``; the first malformed row raises
    InvalidState naming its line."""
    ids = np.empty(len(rows), dtype=np.int64)
    labels = np.empty(len(rows), dtype=np.int64)
    vectors = np.empty((len(rows), dim))
    for i, (line_no, row) in enumerate(rows):
        parts = _check_fields(path, line_no, row, dim)
        try:
            ids[i] = int(parts[0])
            labels[i] = int(parts[1])
            vectors[i] = [float(v) for v in parts[2:]]
        except (ValueError, OverflowError) as exc:  # OverflowError: beyond int64
            raise InvalidState(f"{path}:{line_no}: {exc}") from None
    return ids, labels, vectors


def _check_fields(path, line_no: int, row: str, dim: int) -> list[str]:
    """The fields of an embedding row, which must number ``2 + dim``."""
    parts = row.split()
    if len(parts) != 2 + dim:
        raise InvalidState(f"{path}:{line_no}: {len(parts)} fields, expected {2 + dim}")
    return parts
