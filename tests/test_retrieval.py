"""CMC / mAP evaluation against an exhaustive brute-force oracle."""

import numpy as np
import pytest

from mprl.errors import InvalidDimension, MprlError, ProtocolViolation
from mprl.retrieval import (
    EmbeddingSet,
    EvalReport,
    evaluate,
    load_embeddings,
    pairwise_sq_euclidean,
    report_to_json,
    save_embeddings,
    save_report,
)


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


class TestPairwiseSqEuclidean:
    def _embed(self, vectors, labels=None):
        n = len(vectors)
        return EmbeddingSet(np.arange(n), np.array(labels if labels else [1] * n), vectors)

    def test_three_four_five(self):
        d = pairwise_sq_euclidean(
            self._embed(np.array([[0.0, 0.0]])), self._embed(np.array([[3.0, 4.0]]))
        )
        assert d.shape == (1, 1) and d[0, 0] == 25.0

    def test_identical_sets_zero_diagonal(self):
        vecs = np.random.default_rng(0).normal(size=(6, 4))
        d = pairwise_sq_euclidean(self._embed(vecs), self._embed(vecs))
        np.testing.assert_array_equal(np.diag(d), np.zeros(6))
        np.testing.assert_allclose(d, d.T, atol=0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        q = rng.normal(size=(5, 3))
        g = rng.normal(size=(7, 3))
        d = pairwise_sq_euclidean(self._embed(q), self._embed(g))
        for i in range(5):
            for j in range(7):
                expected = sum((q[i, t] - g[j, t]) ** 2 for t in range(3))
                assert abs(d[i, j] - expected) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(InvalidDimension):
            pairwise_sq_euclidean(
                self._embed(np.zeros((2, 3))), self._embed(np.zeros((2, 4)))
            )


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

    def test_embeddings_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        emb = EmbeddingSet(np.arange(5), rng.integers(1, 4, size=5), rng.normal(size=(5, 6)))
        path = tmp_path / "emb.txt"
        save_embeddings(emb, path)
        back = load_embeddings(path)
        assert back.vectors.tobytes() == emb.vectors.tobytes()
        np.testing.assert_array_equal(back.ids, emb.ids)
        np.testing.assert_array_equal(back.labels, emb.labels)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidDimension):
            EmbeddingSet(np.array([1, 1]), np.array([1, 2]), np.zeros((2, 3)))
