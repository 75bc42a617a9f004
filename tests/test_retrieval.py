"""CMC / mAP evaluation against an exhaustive brute-force oracle."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mprl import retrieval
from mprl.cli import main
from mprl.errors import (
    InvalidDimension,
    InvalidState,
    MprlError,
    ProtocolViolation,
    read_utf8,
)
from mprl.retrieval import (
    EmbeddingSet,
    EvalReport,
    PairwiseDistances,
    evaluate,
    load_embeddings,
    pairwise_sq_euclidean,
    report_to_json,
    save_embeddings,
    save_report,
    sq_euclidean_blocks,
)


def stacked(blocks):
    """The whole distance matrix of an iterator of row blocks, each block
    copied out before the next step overwrites it."""
    return np.concatenate([block.copy() for block in blocks])


def ranking_blocks(monkeypatch, top_level=False):
    """The row counts of the ``_Ranking.count`` calls made from here on:
    every call, or only those not made from another (the ranking blocks)."""
    calls, depth = [], [0]
    count = retrieval._Ranking.count

    def counted(self, start, dist, r, exact=None):
        if not (top_level and depth[0]):
            calls.append(len(dist))
        depth[0] += 1
        try:
            return count(self, start, dist, r, exact)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(retrieval._Ranking, "count", counted)
    return calls


def brute_force_eval(distances, query_labels, gallery_labels):
    """Independent CMC/mAP: explicit sort with (distance, index) keys and a
    literal walk over every ranked position."""
    n_q = len(query_labels)
    n_g = len(gallery_labels)
    aps = []
    cmc_hits = [0] * n_g
    for i in range(n_q):
        ranked = sorted(range(n_g), key=lambda j: (distances[i][j], j))
        n_rel = 0
        precision_sum = 0.0
        first = None
        for pos, j in enumerate(ranked, start=1):
            if gallery_labels[j] == query_labels[i]:
                n_rel += 1
                precision_sum += n_rel / pos
                if first is None:
                    first = pos
        aps.append(precision_sum / n_rel)
        for k in range(first - 1, n_g):
            cmc_hits[k] += 1
    cmc = [h / n_q for h in cmc_hits]
    return sum(aps) / n_q, cmc


def argsort_eval(distances, query_labels, gallery_labels):
    """Ranking by a stable argsort of every row, then the same arithmetic as
    ``evaluate``: equal ranks give bit-equal reports at any size."""
    n_q, n_g = distances.shape
    first_hit = np.zeros(n_g, dtype=np.int64)
    aps = np.empty(n_q)
    for i in range(n_q):
        order = np.argsort(distances[i], kind="stable")
        positions = np.flatnonzero(gallery_labels[order] == query_labels[i]) + 1
        first_hit[positions[0] - 1] += 1
        aps[i] = float(np.mean(np.arange(1, positions.size + 1) / positions))
    cmc = np.cumsum(first_hit) / n_q
    return float(cmc[0]), float(np.mean(aps)), cmc


def retrieval_case(seed, n_q, g_labels, kind):
    """Distances for ``n_q`` queries drawn from the classes of ``g_labels``.

    ``kind`` picks the distances: "ties" are small integers (many exact
    ties), "duplicates" come from gallery vectors repeated several times,
    "real" are continuous.
    """
    rng = np.random.default_rng(seed)
    n_g = g_labels.size
    q_labels = g_labels[rng.integers(0, n_g, size=n_q)]
    if kind == "ties":
        distances = rng.integers(0, 4, size=(n_q, n_g)).astype(np.float64)
    elif kind == "duplicates":
        distinct = rng.integers(-2, 3, size=(max(1, n_g // 3), 2)).astype(np.float64)
        gallery = distinct[rng.integers(0, distinct.shape[0], size=n_g)]
        queries = rng.integers(-2, 3, size=(n_q, 2)).astype(np.float64)
        distances = stacked(sq_euclidean_blocks(queries, gallery))
    else:
        distances = rng.uniform(0, 10, size=(n_q, n_g))
    return distances, q_labels


CASE_KINDS = st.sampled_from(["ties", "duplicates", "real"])


class TestSqEuclideanBlocks:
    @staticmethod
    def left_to_right(a, b):
        """Each distance's squared differences added left to right from 0:
        ``np.cumsum`` accumulates one term at a time, and its last column is
        the whole sum."""
        diff = a[:, None, :] - b[None, :, :]
        return np.cumsum(diff * diff, axis=-1)[..., -1]

    # one by one below 8 terms, and the lengths at which numpy's pairwise
    # sum switches to eight partial sums (8) and to recursive halves (129)
    DIMS = st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300))

    @given(st.integers(1, 23), st.integers(1, 17), DIMS,
           st.integers(1, 2000), st.integers(0, 2**32 - 1))
    @example(5, 7, 8, 2000, 1)
    @example(5, 7, 15, 2000, 2)
    @example(5, 7, 128, 2000, 3)
    @example(5, 7, 129, 2000, 4)
    @example(5, 7, 300, 2000, 6)
    @example(5, 7, 513, 2000, 5)
    @settings(max_examples=120, deadline=None)
    def test_bit_equal_to_left_to_right_sum_across_block_boundaries(self, n_a, n_b, dim,
                                                                    budget, seed):
        # a small byte budget beyond the reserve for numpy's buffers makes
        # blocks of one to a few rows, so n_a is rarely a multiple of the
        # block rows
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n_a, dim)) * 10.0 ** rng.integers(-3, 4)
        b = rng.normal(size=(n_b, dim))
        with mock.patch.object(retrieval, "BLOCK_BYTES",
                               retrieval._UFUNC_BUFFER_BYTES + budget):
            blocked = stacked(sq_euclidean_blocks(a, b))
        assert blocked.tobytes() == self.left_to_right(a, b).tobytes()

    @pytest.mark.parametrize("n_a, n_b, dim", [
        (10, 4000, 16),  # a block of 13 rows holds every query
        (1, 4000, 16),  # a single query
        (9, 5000, 1),  # d = 1
        (50, 3004, 64),  # the reid_751 embedding: blocks of 17, 17 and 16 rows
        (100, 1000, 256),  # blocks of 53 and 47 rows
        (3, 300, 1000),  # a gallery row set above the budget: one row per block
        (2, 100000, 16),  # planes of one row above the budget
    ])
    def test_bit_equal_at_the_module_budget(self, n_a, n_b, dim):
        rng = np.random.default_rng(n_a * n_b + dim)
        a = rng.normal(size=(n_a, dim))
        b = rng.normal(size=(n_b, dim))
        # one query row at a time: the whole broadcast would take up to 400 MB
        expected = np.concatenate([self.left_to_right(a[i:i + 1], b) for i in range(n_a)])
        assert stacked(sq_euclidean_blocks(a, b)).tobytes() == expected.tobytes()

    def test_zero_dimensional_rows_are_at_distance_zero(self):
        blocks = sq_euclidean_blocks(np.empty((3, 0)), np.empty((2, 0)))
        assert stacked(blocks).tolist() == [[0.0] * 2] * 3

    @pytest.mark.parametrize("n_a, n_b, dim", [
        (1000, 4000, 16),  # the retrieval_eval shape
        (300, 3004, 64),
        (100, 1000, 256),
        (200, 751, 64),  # rows under 2731 items: numpy buffers the broadcast
        (60, 20, 300),  # the whole input in one block
        (5, 100000, 16),  # one row of planes above the budget
    ])
    def test_scratch_stays_within_the_block_budget(self, n_a, n_b, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(n_a, dim))
        b = rng.normal(size=(n_b, dim))
        for _ in sq_euclidean_blocks(a[:2], b):  # first-call set-up is not scratch
            pass
        tracemalloc.start()
        try:
            for _ in sq_euclidean_blocks(a, b):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the transposed copy of b is not scratch; a block's result and plane are
        scratch = peak - b.nbytes
        one_row = 16 * n_b + retrieval._UFUNC_BUFFER_BYTES
        assert scratch <= max(retrieval.BLOCK_BYTES, one_row)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
    def test_memory_stays_bounded(self):
        # pairwise + evaluate at 1000 x 4000 x 16: the one-shot difference
        # tensor and its square alone would take 1 GB.  The child reads its
        # own VmHWM: ru_maxrss would carry over the high-water mark of the
        # test process that started it.
        child = textwrap.dedent("""
            import numpy as np
            from mprl.retrieval import EmbeddingSet, evaluate, pairwise_sq_euclidean

            rng = np.random.default_rng(0)
            labels = np.repeat(np.arange(500), 8)
            gallery = EmbeddingSet(np.arange(4000), labels, rng.normal(size=(4000, 16)))
            queries = EmbeddingSet(np.arange(1000), labels[::4], rng.normal(size=(1000, 16)))
            evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels, gallery.labels)
            with open("/proc/self/status") as status:
                print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
        """)
        src = Path(retrieval.__file__).resolve().parents[1]
        result = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                                timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        peak_mb = int(result.stdout.split()[-1]) / 1024
        assert peak_mb < 300


    def test_block_size_does_not_depend_on_the_callers_buffer(self):
        # the buffer is set before the package is imported and is left in
        # place for the call; the kernel's scratch plane, seen as the
        # traced peak, holds as many rows whatever the buffer was
        child = textwrap.dedent("""
            import sys
            import tracemalloc
            import numpy as np
            np.setbufsize(int(sys.argv[1]))
            from mprl.retrieval import sq_euclidean_blocks

            rng = np.random.default_rng(0)
            a, b = rng.normal(size=(1000, 16)), rng.normal(size=(4000, 16))
            for _ in sq_euclidean_blocks(a[:2], b):
                pass
            tracemalloc.start()
            for _ in sq_euclidean_blocks(a, b):
                pass
            print(tracemalloc.get_traced_memory()[1], np.getbufsize())
        """)
        src = Path(retrieval.__file__).resolve().parents[1]
        peaks = {}
        for size in (8192, 65536):
            result = subprocess.run([sys.executable, "-c", child, str(size)],
                                    capture_output=True, text=True, timeout=120,
                                    env={**os.environ, "PYTHONPATH": str(src)})
            assert result.returncode == 0, result.stderr
            peak, after = (int(v) for v in result.stdout.split())
            assert after == size
            peaks[size] = peak
        rows = (retrieval.BLOCK_BYTES - retrieval._UFUNC_BUFFER_BYTES) // (16 * 4000)
        assert rows > 1
        # b's transposed copy, then the block's result and scratch plane
        assert peaks[65536] == peaks[8192] >= (16 + 2 * rows) * 4000 * 8


class TestPairwiseSqEuclidean:
    def _embed(self, vectors, labels=None):
        n = len(vectors)
        return EmbeddingSet(np.arange(n), np.array(labels if labels else [1] * n), vectors)

    def test_three_four_five(self):
        d = stacked(sq_euclidean_blocks(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])))
        assert d.shape == (1, 1) and d[0, 0] == 25.0

    def test_identical_sets_zero_diagonal(self):
        vecs = np.random.default_rng(0).normal(size=(6, 4))
        d = stacked(sq_euclidean_blocks(vecs, vecs))
        np.testing.assert_array_equal(np.diag(d), np.zeros(6))
        np.testing.assert_allclose(d, d.T, atol=0)

    def test_matches_double_loop_oracle(self):
        # bit for bit at every d, also where numpy's own sum would pair
        # the terms up (from 8 terms) or split them in halves (from 129)
        rng = np.random.default_rng(42)
        for dim in (3, 16, 64, 129):
            q = rng.normal(size=(5, dim))
            g = rng.normal(size=(7, dim))
            d = stacked(sq_euclidean_blocks(q, g))
            for i in range(5):
                for j in range(7):
                    expected = sum((q[i, t] - g[j, t]) ** 2 for t in range(dim))
                    assert d[i, j] == expected

    def test_dim_mismatch(self):
        with pytest.raises(InvalidDimension):
            pairwise_sq_euclidean(
                self._embed(np.zeros((2, 3))), self._embed(np.zeros((2, 4)))
            )

    def test_float32_sets_rank_as_their_float64_values(self):
        # float32 norms and pair differences would break the 2**-53 bound r
        # of the GEMM distances: offset by 100, their reports differ
        rng = np.random.default_rng(17)
        g_labels = rng.integers(0, 5, size=200)
        q_labels = g_labels[:20]
        queries = (100 + rng.normal(size=(20, 8))).astype(np.float32)
        gallery = (100 + rng.normal(size=(200, 8))).astype(np.float32)
        single = PairwiseDistances(queries, gallery)
        assert single.queries.dtype == single.gallery.dtype == np.float64
        assert single.queries.flags.c_contiguous and single.gallery.flags.c_contiguous
        double = PairwiseDistances(queries.astype(np.float64), gallery.astype(np.float64))
        assert same_report(evaluate(single, q_labels, g_labels),
                           evaluate(double, q_labels, g_labels))


class TestEvaluate:
    def test_hand_case_ap_five_sixths(self):
        # ranked relevance pattern: relevant, other, relevant
        distances = np.array([[1.0, 2.0, 3.0]])
        report = evaluate(distances, [7], [7, 5, 7])
        assert abs(report.mean_ap - 5 / 6) < 1e-12
        assert report.rank1 == 1.0

    def test_all_relevant_is_perfect(self):
        distances = np.array([[0.3, 0.1, 0.2]])
        report = evaluate(distances, [2], [2, 2, 2])
        assert report.mean_ap == 1.0 and report.rank1 == 1.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n_q = int(rng.integers(1, 11))
            n_g = int(rng.integers(2, 16))
            g_labels = rng.integers(1, 5, size=n_g)
            q_labels = g_labels[rng.integers(0, n_g, size=n_q)]  # classes present
            distances = rng.uniform(0, 10, size=(n_q, n_g))
            report = evaluate(distances, q_labels, g_labels)
            oracle_map, oracle_cmc = brute_force_eval(
                distances.tolist(), q_labels.tolist(), g_labels.tolist()
            )
            assert abs(report.mean_ap - oracle_map) < 1e-12
            np.testing.assert_allclose(report.cmc_curve, oracle_cmc, atol=1e-12)

    @given(st.integers(1, 7), st.integers(1, 28), st.integers(1, 4), CASE_KINDS,
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_brute_force_exactly(self, n_q, n_g, n_classes, kind, seed):
        # at most 7 queries and 7 items per class keep every sum at 7 terms
        # or fewer, which numpy adds left to right like the oracle: the
        # means agree bit for bit, not just to 1e-12
        g_labels = np.arange(min(n_g, 7 * n_classes)) % n_classes
        distances, q_labels = retrieval_case(seed, n_q, g_labels, kind)
        report = evaluate(distances, q_labels, g_labels)
        oracle_map, oracle_cmc = brute_force_eval(
            distances.tolist(), q_labels.tolist(), g_labels.tolist())
        assert report.rank1 == oracle_cmc[0]
        assert report.mean_ap == oracle_map
        assert report.cmc_curve.tolist() == oracle_cmc

    @given(st.integers(1, 30), st.integers(1, 300), st.integers(1, 6), CASE_KINDS,
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_stable_argsort_ranking(self, n_q, n_g, n_classes, kind, seed):
        g_labels = np.random.default_rng(seed + 1).integers(0, n_classes, size=n_g)
        distances, q_labels = retrieval_case(seed, n_q, g_labels, kind)
        report = evaluate(distances, q_labels, g_labels)
        rank1, mean_ap, cmc = argsort_eval(distances, q_labels, g_labels)
        assert report.rank1 == rank1 and report.mean_ap == mean_ap
        assert report.cmc_curve.tobytes() == cmc.tobytes()

    @pytest.mark.parametrize("kind", ["ties", "duplicates", "real"])
    def test_single_class_gallery(self, kind):
        # every item relevant, most of them tied for "ties" and "duplicates"
        g_labels = np.zeros(400, dtype=np.int64)
        distances, q_labels = retrieval_case(3, 5, g_labels, kind)
        report = evaluate(distances, q_labels, g_labels)
        assert report.rank1 == 1.0 and report.mean_ap == 1.0
        assert report.cmc_curve.tolist() == [1.0] * 400

    def test_one_gallery_item(self):
        report = evaluate(np.array([[4.0], [0.0]]), [9, 9], [9])
        assert report.rank1 == 1.0 and report.mean_ap == 1.0
        assert report.cmc_curve.tolist() == [1.0]

    def test_every_distance_tied(self):
        # the relevant items sit wherever their gallery index puts them
        report = evaluate(np.full((1, 6), 2.5), [1], [0, 1, 0, 0, 1, 0])
        assert report.rank1 == 0.0
        assert report.mean_ap == (1 / 2 + 2 / 5) / 2
        assert report.cmc_curve.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    def test_nan_distance_rejected(self):
        # inf too: a squared distance beyond float64 ranks nothing
        for bad in (np.nan, np.inf):
            with pytest.raises(ProtocolViolation):
                evaluate(np.array([[1.0, bad]]), [1], [1, 2])

    def test_ties_break_by_gallery_index(self):
        distances = np.array([[1.0, 1.0]])
        # tie: index 0 wins, which is the wrong class here
        report = evaluate(distances, [1], [2, 1])
        assert report.rank1 == 0.0
        assert report.cmc_curve[1] == 1.0

    def test_invariant_under_increasing_distance_transforms(self):
        rng = np.random.default_rng(5)
        distances = rng.uniform(0.1, 4.0, size=(6, 9))
        g_labels = rng.integers(1, 4, size=9)
        q_labels = g_labels[rng.integers(0, 9, size=6)]
        base = evaluate(distances, q_labels, g_labels)
        for transform in (np.square, np.sqrt, lambda d: np.log1p(d) * 3 + 1):
            other = evaluate(transform(distances), q_labels, g_labels)
            assert other.mean_ap == base.mean_ap
            np.testing.assert_array_equal(other.cmc_curve, base.cmc_curve)

    def test_gallery_permutation_invariant_with_distinct_distances(self):
        rng = np.random.default_rng(8)
        n_g = 11
        distances = rng.permutation(np.arange(1.0, 1.0 + 5 * n_g)).reshape(5, n_g)
        g_labels = rng.integers(1, 4, size=n_g)
        q_labels = g_labels[rng.integers(0, n_g, size=5)]
        base = evaluate(distances, q_labels, g_labels)
        perm = rng.permutation(n_g)
        shuffled = evaluate(distances[:, perm], q_labels, g_labels[perm])
        assert shuffled.mean_ap == base.mean_ap
        np.testing.assert_array_equal(shuffled.cmc_curve, base.cmc_curve)

    def test_bounds_and_monotonicity_asserted(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n_g = int(rng.integers(2, 12))
            g_labels = rng.integers(1, 4, size=n_g)
            q_labels = g_labels[rng.integers(0, n_g, size=3)]
            report = evaluate(rng.uniform(size=(3, n_g)), q_labels, g_labels)
            assert 0.0 <= report.mean_ap <= 1.0
            assert np.all(np.diff(report.cmc_curve) >= 0)
            assert report.cmc_curve[0] == report.rank1

    @pytest.mark.parametrize("rank1, mean_ap, cmc", [
        (0.5, 0.5, [0.4, 1.0]),  # rank-1 disagrees with CMC[0]
        (0.5, 0.5, [0.5, 0.25]),  # CMC decreases
        (0.5, 1.5, [0.5, 1.0]),  # mAP above 1
        (1.0, 0.5, [1.0, 1.5]),  # CMC above 1
        (0.5, 0.5, []),  # empty curve
    ])
    def test_invalid_report_raises_explicitly(self, rank1, mean_ap, cmc):
        # explicit checks, not asserts, so they hold under python -O
        with pytest.raises(MprlError):
            EvalReport(rank1, mean_ap, cmc)

    def test_missing_query_class_rejected(self):
        with pytest.raises(ProtocolViolation):
            evaluate(np.ones((1, 2)), [3], [1, 2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidDimension):
            evaluate(np.ones((2, 2)), [1], [1, 1])

    @pytest.mark.parametrize("q_labels, g_labels", [
        ([[1], [2]], [1, 2]), ([1, 2], [[1, 2]]), (1, [1, 2])])
    def test_labels_that_are_not_1d_rejected(self, q_labels, g_labels):
        with pytest.raises(InvalidDimension, match="labels must be 1-d"):
            evaluate(np.zeros((2, 2)), q_labels, g_labels)

    @pytest.mark.parametrize("q_labels, g_labels", [([1.9], [1, 2]), ([1], [1.0, 2.0])])
    def test_labels_that_are_not_integers_rejected(self, q_labels, g_labels):
        # a cast would truncate 1.9 and score the query as class 1
        with pytest.raises(InvalidDimension, match="labels must be integers"):
            evaluate(np.zeros((1, 2)), q_labels, g_labels)

    @pytest.mark.parametrize("ids, labels, match", [
        ([0.1, 0.2], [1, 2], "ids must be integers"),
        ([0, 1], [1.5, 2.0], "labels must be integers")])
    def test_embedding_ids_and_labels_that_are_not_integers_rejected(self, ids, labels, match):
        # a cast would truncate both ids to 0 and refuse them as repeated
        with pytest.raises(InvalidDimension, match=match):
            EmbeddingSet(ids, labels, [[0.0], [1.0]])

    def test_uint64_values_beyond_int64_rejected(self):
        # a cast would wrap 2**63 to -2**63
        big = np.array([2**63, 0], dtype=np.uint64)
        with pytest.raises(InvalidDimension, match=f"ids must fit in int64, got {2**63}$"):
            EmbeddingSet(big, [1, 2], [[0.0], [1.0]])
        with pytest.raises(InvalidDimension, match=f"labels must fit in int64, got {2**64 - 1}$"):
            EmbeddingSet([1, 2], np.array([3, 2**64 - 1], dtype=np.uint64), [[0.0], [1.0]])
        with pytest.raises(InvalidDimension, match="query labels must fit in int64"):
            evaluate(np.zeros((1, 2)), [2**63], [1, 2])
        with pytest.raises(InvalidDimension, match="gallery labels must fit in int64"):
            evaluate(np.zeros((1, 2)), [1], big)
        # the largest int64 still passes
        fits = np.array([2**63 - 1, 0], dtype=np.uint64)
        assert EmbeddingSet(fits, [1, 2], [[0.0], [1.0]]).ids.tolist() == [2**63 - 1, 0]

    def test_int64_ids_and_labels_are_kept_without_a_copy(self):
        ids, labels = np.arange(2), np.array([1, 2])
        embeddings = EmbeddingSet(ids, labels, [[0.0], [1.0]])
        assert embeddings.ids is ids and embeddings.labels is labels
        assert EmbeddingSet(np.arange(2, dtype=np.uint8), [1, 2], [[0.0], [1.0]]).ids.dtype \
            == np.int64


def same_report(a: EvalReport, b: EvalReport) -> bool:
    return (np.float64(a.rank1).tobytes() == np.float64(b.rank1).tobytes()
            and np.float64(a.mean_ap).tobytes() == np.float64(b.mean_ap).tobytes()
            and a.cmc_curve.tobytes() == b.cmc_curve.tobytes())


def embedding_case(seed, n_q, n_g, dim, kind):
    """Query and gallery sets whose query classes all occur in the gallery;
    "ties" puts every coordinate in {-1, 0, 1}, so most distances tie."""
    rng = np.random.default_rng(seed)
    g_labels = rng.integers(0, 4, size=n_g)
    q_labels = g_labels[rng.integers(0, n_g, size=n_q)]

    def draw(n):
        if kind == "ties":
            return rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
        return rng.normal(size=(n, dim))

    return (EmbeddingSet(np.arange(n_q), q_labels, draw(n_q)),
            EmbeddingSet(np.arange(n_g), g_labels, draw(n_g)))


class TestStreamedEvaluate:
    """``evaluate`` on a ``pairwise_sq_euclidean`` ranks one block of query
    rows at a time and equals ``evaluate`` on the whole matrix bit for
    bit."""

    @given(st.integers(1, 40), st.integers(1, 60), st.integers(1, 8),
           st.sampled_from(["ties", "real"]), st.integers(0, 3000), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_blocks_score_as_the_matrix(self, n_q, n_g, dim, kind, budget, seed):
        # budgets under 16 * n_g bytes make one-row blocks
        queries, gallery = embedding_case(seed, n_q, n_g, dim, kind)
        matrix = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
        with mock.patch.object(retrieval, "BLOCK_BYTES", retrieval._UFUNC_BUFFER_BYTES + budget):
            rows = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
            streamed = evaluate(pairwise_sq_euclidean(queries, gallery),
                                queries.labels, gallery.labels)
        assert rows.tobytes() == matrix.tobytes()
        assert same_report(streamed, evaluate(matrix, queries.labels, gallery.labels))

    @pytest.mark.parametrize("kind", ["ties", "real"])
    def test_one_row_blocks(self, kind, monkeypatch):
        # the ranker's budget follows BLOCK_BYTES: one-row ranking blocks,
        # each counted as one chunk
        queries, gallery = embedding_case(7, 30, 200, 3, kind)
        with mock.patch.object(retrieval, "BLOCK_BYTES", 1):
            assert [b.shape for b in sq_euclidean_blocks(queries.vectors, gallery.vectors)
                    ] == [(1, 200)] * 30
            calls = ranking_blocks(monkeypatch)
            streamed = evaluate(pairwise_sq_euclidean(queries, gallery),
                                queries.labels, gallery.labels)
        assert calls == [1] * 30
        matrix = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
        assert same_report(streamed, evaluate(matrix, queries.labels, gallery.labels))

    def test_ranking_blocks_are_larger_than_plane_blocks(self, monkeypatch):
        # retrieval_eval's shape: 1000 queries against 4000 items of 500
        # identities, d = 16.  Ranking blocks of a quarter of the ranker's
        # 4 MiB take 32 rows; plane blocks keep to 1 MiB.
        rng = np.random.default_rng(1)
        centres = rng.normal(size=(500, 16))
        q_labels, g_labels = np.repeat(np.arange(500), 2), np.repeat(np.arange(500), 8)
        queries = EmbeddingSet(np.arange(1000), q_labels,
                               centres[q_labels] + 0.6 * rng.normal(size=(1000, 16)))
        gallery = EmbeddingSet(np.arange(4000), g_labels,
                               centres[g_labels] + 0.6 * rng.normal(size=(4000, 16)))
        plane_rows = retrieval._block_rows(4000)
        assert [len(b) for b in sq_euclidean_blocks(queries.vectors, gallery.vectors)] == (
            [plane_rows] * (1000 // plane_rows) + [1000 % plane_rows])
        blocks = ranking_blocks(monkeypatch, top_level=True)
        streamed = evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels,
                            gallery.labels)
        assert len(blocks) <= 32 and sum(blocks) == 1000
        assert blocks[0] >= 2 * plane_rows
        matrix = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
        assert same_report(streamed, evaluate(matrix, q_labels, g_labels))

    def test_equals_the_argsort_ranking_at_the_module_budget(self):
        # blocks of 12 rows against 5000 items, most of them tied
        queries, gallery = embedding_case(3, 40, 5000, 4, "ties")
        assert len(list(sq_euclidean_blocks(queries.vectors, gallery.vectors))) == 4
        streamed = evaluate(pairwise_sq_euclidean(queries, gallery),
                            queries.labels, gallery.labels)
        matrix = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
        rank1, mean_ap, cmc = argsort_eval(matrix, queries.labels, gallery.labels)
        assert streamed.rank1 == rank1 and streamed.mean_ap == mean_ap
        assert streamed.cmc_curve.tobytes() == cmc.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_distance_first_in_the_last_block(self, bad):
        rng = np.random.default_rng(4)
        distances = rng.uniform(size=(7, 5))
        distances[6, 2] = bad
        labels = [1, 2, 1, 2, 1]
        q_labels = [1] * 7
        with pytest.raises(ProtocolViolation) as whole:
            evaluate(distances, q_labels, labels)
        assert str(whole.value) == (
            "distances must be finite (a NaN, or a squared distance beyond the float64 range)")

    def test_overflowed_distances_in_the_last_block(self):
        # the last query sits 1e200 away: only its squared distances overflow
        queries, gallery = embedding_case(5, 9, 40, 2, "real")
        queries.vectors[-1] = 1e200
        with mock.patch.object(retrieval, "BLOCK_BYTES", retrieval._UFUNC_BUFFER_BYTES + 1500):
            blocks = [b.shape[0] for b in sq_euclidean_blocks(queries.vectors, gallery.vectors)]
            assert len(blocks) > 1
            with pytest.raises(ProtocolViolation, match="must be finite") as streamed:
                evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels,
                         gallery.labels)
        matrix = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
        assert np.isinf(matrix[-1]).all() and np.isfinite(matrix[:-1]).all()
        with pytest.raises(ProtocolViolation) as whole:
            evaluate(matrix, queries.labels, gallery.labels)
        assert str(streamed.value) == str(whole.value)

    def test_a_missing_query_class_is_reported_before_any_block(self, monkeypatch):
        def no_block(*args):
            raise AssertionError("a block was computed")

        monkeypatch.setattr(retrieval, "_fill_block", no_block)
        queries = EmbeddingSet([0], [3], [[0.0, 1.0]])
        gallery = EmbeddingSet([1, 2], [1, 2], [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ProtocolViolation, match=r"absent from gallery: \[3\]"):
            evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels,
                     gallery.labels)

    def test_a_dimension_mismatch_raises_before_any_block(self):
        queries = EmbeddingSet([0], [1], [[0.0, 1.0]])
        gallery = EmbeddingSet([1], [1], [[0.0, 0.0, 0.0]])
        with pytest.raises(InvalidDimension, match="query dim 2 differs from gallery dim 3"):
            pairwise_sq_euclidean(queries, gallery)

    @pytest.mark.parametrize("distances", [
        np.empty((0, 3)), PairwiseDistances(np.empty((0, 2)), np.ones((3, 2)))],
        ids=["matrix", "vectors"])
    def test_no_queries_rejected(self, distances):
        # a divide warning fails the run (pyproject filterwarnings)
        with pytest.raises(InvalidDimension, match="no queries"):
            evaluate(distances, [], [1, 2, 3])

    @pytest.mark.parametrize("q_labels, g_labels", [([1], [1, 2, 1]), ([1, 1], [1, 2])])
    def test_labels_that_do_not_match_the_vectors_raise_before_any_distance(
            self, q_labels, g_labels, monkeypatch):
        calls = []
        monkeypatch.setattr(retrieval, "_fill_block", lambda *args: calls.append(args))
        monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: calls.append(args))
        distances = PairwiseDistances(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(InvalidDimension,
                           match="2 query and 3 gallery vectors do not match"):
            evaluate(distances, q_labels, g_labels)
        assert calls == []

    @pytest.mark.parametrize("queries, gallery, message", [
        (np.ones(3), np.ones((3, 2)), "must be 2-d, got 1-d queries and 2-d gallery"),
        (np.ones((3, 2)), np.ones((1, 3, 2)), "must be 2-d, got 2-d queries and 3-d gallery"),
        (np.ones((3, 2)), np.ones((3, 3)), "query dim 2 differs from gallery dim 3"),
        (np.empty((2, 0)), np.empty((100, 0)), "at least one coordinate, got width 0")],
        ids=["1-d_queries", "3-d_gallery", "widths_differ", "zero_width"])
    def test_vector_sets_that_are_not_matrices_of_one_width_are_refused(self, queries,
                                                                        gallery, message):
        with pytest.raises(InvalidDimension, match=message):
            evaluate(PairwiseDistances(queries, gallery), [1, 2, 1], [1, 2, 1])

    @staticmethod
    def large_sets(identical_rows=False):
        """2000 queries and 8000 gallery items of 1000 classes in 2-d; with
        ``identical_rows`` every other gallery row is the zero vector, so
        half of each class sits at one tied distance from every query."""
        rng = np.random.default_rng(11)
        g_labels = np.repeat(np.arange(1000), 8)
        g_vectors = rng.normal(size=(8000, 2))
        if identical_rows:
            g_vectors[::2] = 0.0
        gallery = EmbeddingSet(np.arange(8000), g_labels, g_vectors)
        queries = EmbeddingSet(np.arange(2000), g_labels[::4], rng.normal(size=(2000, 2)))
        return queries, gallery

    def test_eval_holds_no_distance_matrix(self, tmp_path):
        # 2000 x 8000 float64 distances would take 128 MB; the streamed eval
        # holds one ranking block, within the ranker's 4 MiB budget, beyond
        # what reading the files takes
        self.assert_eval_holds_no_distance_matrix(tmp_path, *self.large_sets())

    def test_a_half_identical_gallery_ranks_as_its_blocks_without_the_matrix(self, tmp_path,
                                                                             monkeypatch):
        # 4000 zero rows: every query's tie band holds half the gallery
        queries, gallery = self.large_sets(identical_rows=True)
        self.assert_eval_holds_no_distance_matrix(tmp_path, queries, gallery)
        vectors = evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels,
                           gallery.labels)
        monkeypatch.setattr(retrieval, "_PAIR_COST", 10**18)  # plane blocks throughout
        blocks = evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels,
                          gallery.labels)
        assert (tmp_path / "report.json").read_text() == report_to_json(blocks)
        assert same_report(vectors, blocks)

    @staticmethod
    def assert_eval_holds_no_distance_matrix(tmp_path, queries, gallery):
        q_path, g_path = tmp_path / "q.txt", tmp_path / "g.txt"
        save_embeddings(queries, q_path)
        save_embeddings(gallery, g_path)
        out = tmp_path / "report.json"
        args = ["eval", "--query", str(q_path), "--gallery", str(g_path), "--out", str(out)]
        tracemalloc.start()
        try:
            load_embeddings(q_path), load_embeddings(g_path)
            loaded = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded < 8 * 2**20
        assert peak < loaded + retrieval._rank_bytes() + 2**20


def vector_case(seed, kind, n_q, n_g, dim, n_classes):
    """Query and gallery sets whose query classes all occur in the gallery.

    ``kind`` picks the vectors: "offset" shares a common offset of 1e6, so
    ``|q|**2 + |g|**2 - 2 q.g`` cancels about 12 digits; "subnormal" has
    coordinates of 1e-160, whose products are subnormal; "lattice" has
    integer coordinates and so many exactly tied distances; "copies" draws
    every row, queries included, from a few rows, one of them zero;
    "below_2_400" and "above_2_400" have one vector of norm just below or
    just above 2**400; "offset_2_520" shares an offset of 2**520 along the
    first axis, so every squared norm and GEMM bound overflows while every
    squared distance is finite; "normal" is standard normal.
    """
    rng = np.random.default_rng(seed)
    g_labels = rng.integers(0, n_classes, size=n_g)
    q_labels = g_labels[rng.integers(0, n_g, size=n_q)]
    distinct = rng.normal(size=(max(1, (n_q + n_g) // 8), dim))
    distinct[0] = 0.0

    def draw(n):
        if kind == "offset":
            return 1e6 + rng.normal(size=(n, dim))
        if kind == "subnormal":
            return 1e-160 * rng.normal(size=(n, dim))
        if kind == "lattice":
            return rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
        if kind == "copies":
            return distinct[rng.integers(0, distinct.shape[0], size=n)]
        return rng.normal(size=(n, dim))

    q_vectors, g_vectors = draw(n_q), draw(n_g)
    if kind in ("below_2_400", "above_2_400"):
        factor = 1 - 2.0**-20 if kind == "below_2_400" else 1 + 2.0**-20
        g_vectors *= 2.0**390
        g_vectors[0] *= 2.0**400 * factor / np.linalg.norm(g_vectors[0])
    if kind == "offset_2_520":
        q_vectors[:, 0] += 2.0**520
        g_vectors[:, 0] += 2.0**520
    return (EmbeddingSet(np.arange(n_q), q_labels, q_vectors),
            EmbeddingSet(np.arange(n_g), g_labels, g_vectors))


class TestVectorRanking:
    """``evaluate`` ranks a ``pairwise_sq_euclidean`` from its vectors: the
    blocked GEMM distances only pick out the
    pairs whose order is in doubt, so the report equals that of the plane
    blocks bit for bit."""

    KINDS = ["normal", "offset", "subnormal", "lattice", "copies", "below_2_400",
             "above_2_400", "offset_2_520"]

    @staticmethod
    def plane_blocks(monkeypatch):
        """Count the plane blocks computed from here on."""
        calls = []
        fill = retrieval._fill_block

        def counted(*args):
            calls.append(args[0].shape[0])
            return fill(*args)

        monkeypatch.setattr(retrieval, "_fill_block", counted)
        return calls

    @given(st.integers(1, 30), st.integers(1, 200), st.integers(1, 129), st.integers(1, 12),
           st.sampled_from(KINDS), st.sampled_from([None, 0, 3000, 30000]),
           st.integers(0, 2**32 - 1))
    @example(7, 150, 1, 5, "offset", None, 1)
    @example(7, 150, 8, 5, "subnormal", None, 2)
    @example(7, 150, 129, 5, "copies", 0, 3)
    @example(7, 150, 3, 5, "lattice", 3000, 4)
    @example(7, 150, 16, 5, "below_2_400", None, 5)
    @example(7, 150, 16, 5, "above_2_400", None, 6)
    @example(7, 150, 16, 5, "offset_2_520", 0, 7)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_plane_blocks_and_the_argsort_ranking(self, n_q, n_g, dim, n_classes,
                                                             kind, budget, seed):
        # budgets under 16 * n_g bytes make one-row blocks and chunks
        queries, gallery = vector_case(seed, kind, n_q, n_g, dim, n_classes)
        matrix = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
        block_bytes = (retrieval.BLOCK_BYTES if budget is None
                       else retrieval._UFUNC_BUFFER_BYTES + budget)
        with mock.patch.object(retrieval, "BLOCK_BYTES", block_bytes):
            report = evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels,
                              gallery.labels)
        assert same_report(report, evaluate(matrix, queries.labels, gallery.labels))
        rank1, mean_ap, cmc = argsort_eval(matrix, queries.labels, gallery.labels)
        assert report.rank1 == rank1 and report.mean_ap == mean_ap
        assert report.cmc_curve.tobytes() == cmc.tobytes()

    @pytest.mark.parametrize("kind, planes", [
        ("normal", False),  # every doubt settles pair by pair
        ("copies", False),  # identical rows share one value
        ("below_2_400", False),
        ("above_2_400", False),  # every bound is finite
        ("offset_2_520", True),  # every bound overflows, though no distance does
        ("offset", True),  # a band of about 8 around every relevant distance
    ])
    def test_which_inputs_take_plane_blocks(self, kind, planes, monkeypatch):
        queries, gallery = vector_case(9, kind, 40, 300, 64, 60)
        matrix = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
        calls = self.plane_blocks(monkeypatch)
        report = evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels,
                          gallery.labels)
        assert bool(calls) == planes
        assert same_report(report, evaluate(matrix, queries.labels, gallery.labels))

    @pytest.mark.parametrize("kind", ["normal", "lattice", "copies"])
    def test_a_fallback_fills_its_ranking_block_in_plane_slices(self, kind, monkeypatch):
        # every block falls back at once; a ranking block of 26 rows
        # against 5000 items fills in plane slices of 12, 12 and 2 rows
        queries, gallery = vector_case(12, kind, 40, 5000, 4, 30)
        matrix = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
        plane_rows = retrieval._block_rows(5000)
        block_rows = retrieval._rank_bytes() // (32 * 5000)
        assert (plane_rows, block_rows) == (12, 26)
        monkeypatch.setattr(retrieval, "_PAIR_COST", 10**18)  # no pair is worth it
        calls = self.plane_blocks(monkeypatch)
        report = evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels,
                          gallery.labels)
        assert calls == [12, 12, 2, 12, 2]
        rank1, mean_ap, cmc = argsort_eval(matrix, queries.labels, gallery.labels)
        assert report.rank1 == rank1 and report.mean_ap == mean_ap
        assert report.cmc_curve.tobytes() == cmc.tobytes()

    def test_a_chunk_with_too_many_pairs_in_doubt_takes_its_plane_block(self, monkeypatch):
        # a sample of one item lets the block on; then the doubts of all of
        # its items outweigh the plane block, and the chunk is filled
        queries, gallery = vector_case(2, "offset", 40, 300, 16, 10)
        matrix = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
        events = []
        doubt, fill = retrieval._doubt, retrieval._fill_block

        def counted(keys, dist, r, flat):
            events.append(flat.size)
            return doubt(keys, dist, r, flat)

        monkeypatch.setattr(retrieval, "_SAMPLE", 1)
        monkeypatch.setattr(retrieval, "_doubt", counted)
        monkeypatch.setattr(retrieval, "_fill_block",
                            lambda *args: (events.append("fill"), fill(*args)))
        report = evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels,
                          gallery.labels)
        assert events.index("fill") == 2 and events[0] == 1 < events[1]
        rank1, mean_ap, cmc = argsort_eval(matrix, queries.labels, gallery.labels)
        assert report.rank1 == rank1 and report.mean_ap == mean_ap
        assert report.cmc_curve.tobytes() == cmc.tobytes()

    @pytest.mark.parametrize("kind, planes", [("normal", False), ("offset", True),
                                              ("lattice", True)])
    def test_a_sample_decides_the_fallback_before_any_chunk(self, kind, planes, monkeypatch):
        # offset and lattice inputs hold a pair in doubt for most items: a
        # sample sends the whole 40-row ranking block to plane slices of
        # 21 and 19 rows before it is split into chunks, and no pair but
        # the relevant ones, computed once, is; normal inputs settle their
        # doubts pair by pair
        queries, gallery = vector_case(13, kind, 40, 3000, 64, 20)
        matrix = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
        pairs = []
        pair_values = retrieval._PlanePairs.__call__

        def counted(self, rows, cols):
            pairs.append(rows.size)
            return pair_values(self, rows, cols)

        monkeypatch.setattr(retrieval._PlanePairs, "__call__", counted)
        calls = self.plane_blocks(monkeypatch)
        report = evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels,
                          gallery.labels)
        relevant = int(sum((gallery.labels == label).sum() for label in queries.labels))
        if planes:
            assert calls == [21, 19]
            assert pairs == [relevant]
        else:
            assert calls == [] and len(pairs) > 2
        assert same_report(report, evaluate(matrix, queries.labels, gallery.labels))

    @pytest.mark.parametrize("kind, searched", [
        ("normal", False),
        ("offset", False),  # pairs in doubt, but no squared norm repeats
        ("copies", True),
        ("lattice", True),  # integer norms repeat, though no row does
    ])
    def test_identical_rows_are_searched_for_once_before_any_pair(self, kind, searched,
                                                                  monkeypatch):
        queries, gallery = vector_case(9, kind, 40, 300, 64, 60)
        matrix = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
        events = []
        first_copies, pair_values = retrieval._first_copies, retrieval._PlanePairs.__call__

        def searched_rows(vectors):
            events.append("search")
            return first_copies(vectors)

        def counted(self, rows, cols):
            events.append("pairs")
            return pair_values(self, rows, cols)

        monkeypatch.setattr(retrieval, "_first_copies", searched_rows)
        monkeypatch.setattr(retrieval._PlanePairs, "__call__", counted)
        report = evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels,
                          gallery.labels)
        assert events.count("search") == searched and "pairs" in events
        assert events[0] == ("search" if searched else "pairs")
        assert same_report(report, evaluate(matrix, queries.labels, gallery.labels))

    @given(st.integers(1, 129), st.integers(2, 20), st.sampled_from(["C", "F", "strided"]),
           st.integers(-60, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_identical_rows_have_bit_equal_squared_norms(self, dim, n, layout, scale, seed):
        # the search for identical rows runs only when a squared norm
        # repeats: a copy of a row must repeat its norm at any position,
        # and so at any alignment, in any layout the gallery may come in
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, dim)) * 2.0 ** scale
        copies = rng.random(n) < 0.5
        copies[0] = copies[1 + rng.integers(n - 1)] = True
        rows[copies] = rows[0]
        if layout == "F":
            rows = np.asfortranarray(rows)
        elif layout == "strided":
            wide = np.empty((2 * n + 1, 2 * dim + 1))
            wide[1::2, 1::2] = rows
            rows = wide[1::2, 1::2]
        norms = np.einsum("ij,ij->i", rows, rows)
        assert len({value.tobytes() for value in norms[copies]}) == 1

    @given(st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_each_row_joins_the_first_row_equal_to_it(self, n, dim, seed):
        # few distinct values, signed zeros among them, so most rows repeat
        rows = np.random.default_rng(seed).choice([-0.0, 0.0, 1.0, -2.5], size=(n, dim))
        expected = [next(j for j in range(n) if (rows[j] == rows[i]).all()) for i in range(n)]
        assert retrieval._first_copies(rows).tolist() == expected

    def test_rows_share_a_group_only_when_equal(self):
        # (w1, 0) and (0, w0) are different rows with the same weighted sum
        # w0 * w1; each row joins the group of the first row equal to it,
        # and -0.0 and 0.0 are equal
        w = np.modf(np.arange(1, 3) * 0.6180339887498949)[0] + 0.5
        rows = np.array([[w[1], 0.0], [0.0, w[0]], [w[1], 0.0], [0.0, w[0]],
                         [1.0, 2.0], [-0.0, 0.0], [0.0, 0.0], [1.0, 2.0]])
        assert retrieval._first_copies(rows).tolist() == [0, 1, 0, 1, 4, 5, 5, 4]
        gallery = EmbeddingSet(np.arange(8), [0, 1, 1, 0, 1, 0, 1, 0], rows)
        queries = EmbeddingSet(np.arange(3), [0, 1, 0], [[0.0, 0.0], [w[1], w[0]], [0.5, 0.5]])
        matrix = stacked(sq_euclidean_blocks(queries.vectors, gallery.vectors))
        assert same_report(
            evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels, gallery.labels),
            evaluate(matrix, queries.labels, gallery.labels))


def row_loop_loader(path) -> EmbeddingSet:
    """The embedding file format as a row-by-row loader, every field read
    by Python's ``int`` or ``float``: the oracle that ``load_embeddings``
    must equal in arrays and in messages."""
    text = read_utf8(path, InvalidState)
    rows = [(no, line) for no, line in enumerate(text.splitlines(), start=1) if line.strip()]
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

    def check_fields(line_no, row):
        parts = row.split()
        if len(parts) != 2 + dim:
            raise InvalidState(f"{path}:{line_no}: {len(parts)} fields, expected {2 + dim}")
        return parts

    check_fields(*rows[1])
    ids = np.empty(n, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    vectors = np.empty((n, dim))
    for i, (line_no, row) in enumerate(rows[1:]):
        parts = check_fields(line_no, row)
        try:
            ids[i] = int(parts[0])
            labels[i] = int(parts[1])
            vectors[i] = [float(v) for v in parts[2:]]
        except (ValueError, OverflowError) as exc:
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


def load_outcome(loader, path):
    """The arrays' bytes a loader returns, or its InvalidState message."""
    try:
        emb = loader(path)
    except InvalidState as exc:
        return str(exc)
    return (emb.ids.dtype.str, emb.ids.tobytes(), emb.labels.dtype.str, emb.labels.tobytes(),
            emb.vectors.dtype.str, emb.vectors.shape, emb.vectors.tobytes())


# field separators: whitespace to Python's str.split, of which some also
# end a line for splitlines, and characters that are not whitespace
WHITESPACE = [" ", "\t", "\xa0", "\u2000", "\u3000", "\x1f"]
LINE_BREAKS = ["\x1c", "\x85", "\v", "\f", "\r"]
NOT_WHITESPACE = ["\ufeff", "\x00"]
# number forms that both numpy's parser and Python read, and forms that
# numpy refuses, which Python reads or rejects with its own message
INT_EDGES = ["+7", "007", "-0", str(2**63 - 1), str(-2**63)]
INT_REFUSED = ["1_0", "\u0661\u0662", str(2**63), str(-2**63 - 1), "99999999999999999999",
               "1.0", "1e3", "+", "-", "0x1", "x"]
FLOAT_EDGES = ["+.5", "5.", ".5", "-0.0", "00.25", "1e999", "-1e999", "nan", "-inf",
               "Infinity", "5e-324", "1.7976931348623157e308", "1e-400", "+7", "007"]
FLOAT_REFUSED = ["1_0.5", "\u0661.5", "0x1", "#", "0.5#", "1__0", "_1", "+-1", "1e"]


@st.composite
def embedding_texts(draw):
    """Embedding file text: a header, rows of ids, labels and values in
    plain or edge forms between whitespace or other separators, blank
    lines and LF or CRLF endings.  Half the files use only forms and
    separators that numpy's parser reads too; the others may refuse forms
    and use one separator that is not plain whitespace."""
    n, dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    plain = draw(st.booleans())
    int_forms = INT_EDGES + ([] if plain else INT_REFUSED)
    float_forms = FLOAT_EDGES + ([] if plain else FLOAT_REFUSED)
    ints = st.one_of(st.integers(-6, 6).map(str), st.sampled_from(int_forms))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    floats = st.one_of(finite.map(lambda v: f"{v:.17g}"), finite.map(repr),
                       st.sampled_from(float_forms))
    odd = [] if plain else draw(st.sampled_from([[], []] + [[c] for c in LINE_BREAKS
                                                           + NOT_WHITESPACE]))
    gap = st.sampled_from([" "] * 6 + WHITESPACE + odd)
    lines = [draw(st.sampled_from([f"{n} {dim}"] * 20 + [f"{n + 1} {dim}", f"{n} {dim} 1",
                                                          f"{n} x", f"{n} 0"]))]
    for _ in range(n):
        width = 2 + dim + (0 if plain else draw(st.sampled_from([0] * 8 + [-1, 1])))
        fields = [draw(ints), draw(ints)] + [draw(floats) for _ in range(width - 2)]
        row = "".join(draw(gap) + f for f in fields)
        lines.append(row[1:] if draw(st.booleans()) else row)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t \xa0"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


class TestSerialization:
    def test_report_json_six_decimals(self, tmp_path):
        report = evaluate(np.array([[1.0, 2.0, 3.0]]), [7], [7, 5, 7])
        text = report_to_json(report)
        assert '"rank1": 1.000000' in text
        assert '"mAP": 0.833333' in text
        assert '"cmc": [1.000000, 1.000000, 1.000000]' in text
        import json

        parsed = json.loads(text)
        assert parsed["mAP"] == pytest.approx(5 / 6, abs=1e-6)
        path = tmp_path / "report.json"
        save_report(report, path)
        assert path.read_text() == text

    def test_embeddings_round_trip_bit_exact(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        ids = np.array([0, 2**63 - 1, -(2**63 - 1), -(2**63), 4])
        vectors = rng.normal(size=(5, 6))
        vectors[1:4, 0] = [-0.0, 5e-324, 1.7976931348623157e308]
        emb = EmbeddingSet(ids, rng.integers(1, 4, size=5), vectors)
        path = tmp_path / "emb.txt"
        save_embeddings(emb, path)

        def no_row_loop(*args):
            raise AssertionError("a saved file is read by one loadtxt call")

        monkeypatch.setattr(retrieval, "_read_rows", no_row_loop)
        back = load_embeddings(path)
        assert back.vectors.tobytes() == emb.vectors.tobytes()
        assert back.vectors.flags.c_contiguous
        np.testing.assert_array_equal(back.ids, emb.ids)
        np.testing.assert_array_equal(back.labels, emb.labels)

    @given(embedding_texts())
    @example("1 2\n+7 007 1_0.5 \u0661.5\n")
    @example("2 1\r\n\r\n9223372036854775807\xa01 -0.0\r\n-9223372036854775808 1 5e-324\r\n")
    @example("2 1\n1 1 0.5\n1.0 1 1e999\n")  # the bad id is reported, not the inf
    @example("2 1\n1 1 0.5\n1 1 0.5 # a comment\n")
    @example("1 1\n7 1 0.5\x1c\n")  # \x1c ends a line for splitlines
    @settings(max_examples=400, deadline=None)
    def test_loader_equals_the_row_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzzed_embeddings.txt"
        path.write_bytes(text.encode("utf-8"))
        assert load_outcome(load_embeddings, path) == load_outcome(row_loop_loader, path)

    @pytest.mark.parametrize("row, values, row_loop", [
        ("7 1 1_0.5 0.25", (7, 1, [10.5, 0.25]), True),
        ("7 1 \u0661.5 0.25", (7, 1, [1.5, 0.25]), True),
        ("7 1_2 0.5 0.25", (7, 12, [0.5, 0.25]), True),
        ("+7 007 0.5 0.25", (7, 7, [0.5, 0.25]), False),
        ("7\xa01\u30000.5\x1f0.25", (7, 1, [0.5, 0.25]), False),
    ])
    def test_forms_numpy_refuses_take_the_row_loop(self, tmp_path, monkeypatch, row, values,
                                                  row_loop):
        calls = []
        read_rows = retrieval._read_rows

        def spy(*args):
            calls.append(args)
            return read_rows(*args)

        monkeypatch.setattr(retrieval, "_read_rows", spy)
        path = tmp_path / "emb.txt"
        path.write_text(f"1 2\n{row}\n", encoding="utf-8")
        emb = load_embeddings(path)
        assert (emb.ids.tolist(), emb.labels.tolist(), emb.vectors.tolist()) == (
            [values[0]], [values[1]], [values[2]])
        assert bool(calls) == row_loop

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        path.write_text(f"2 2\n1 1 0.5 0.5\n\n2 1 0.5 {value}\n")
        with pytest.raises(InvalidState, match=f"{path}:4: non-finite"):
            load_embeddings(path)

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("4 1\n5 1 0.5\n3 1 0.5\n3 2 0.5\n5 2 0.5\n")
        with pytest.raises(InvalidState, match=f"{path}:4: duplicate id 3"):
            load_embeddings(path)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidDimension):
            EmbeddingSet(np.array([1, 1]), np.array([1, 2]), np.zeros((2, 3)))

    def test_ids_and_labels_of_one_column_rejected(self):
        # a file row would read "[0] [0] 0 0", which the loader refuses
        column = np.arange(3)[:, None]
        with pytest.raises(InvalidDimension, match="must be 1-d, got 2-d ids and 1-d labels"):
            EmbeddingSet(column, [0, 1, 2], np.zeros((3, 2)))
        with pytest.raises(InvalidDimension, match="must be 1-d, got 2-d ids and 2-d labels"):
            EmbeddingSet(column, [[0], [1], [2]], np.zeros((3, 2)))

    def test_zero_wide_vectors_rejected(self):
        # a file of them would say dim 0, which the loader refuses
        with pytest.raises(InvalidDimension, match="at least one coordinate"):
            EmbeddingSet(np.arange(2), [1, 2], np.empty((2, 0)))
