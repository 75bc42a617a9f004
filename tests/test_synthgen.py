"""Synthetic dataset construction and serialization."""

import numpy as np
import pytest

from mprl.errors import GenerationFailure, InvalidConfig
from mprl.synthgen import (
    Dataset,
    _place_class_means,
    convex_mix,
    load_dataset,
    make_generated_dataset,
    make_real_dataset,
    save_dataset,
)


def class_centroids(dataset: Dataset, split="train"):
    out = {}
    for c in range(1, dataset.n_classes + 1):
        rows = [s.features for s in dataset.split(split) if s.class_label == c]
        out[c] = np.mean(rows, axis=0)
    return out


def nearest_centroid_classify(centroids: dict, features: np.ndarray) -> int:
    return min(centroids, key=lambda c: float(np.sum((features - centroids[c]) ** 2)))


class TestMakeRealDataset:
    def test_counts_and_split_sizes(self):
        ds = make_real_dataset(2, 4, 2, cluster_spread=0.5, seed=1)
        assert len(ds) == 8
        assert len(ds.split("train")) == 4
        assert len(ds.split("query")) == 2
        assert len(ds.split("gallery")) == 2

    def test_bitwise_reproducible(self):
        a = make_real_dataset(2, 4, 2, 0.5, seed=1)
        b = make_real_dataset(2, 4, 2, 0.5, seed=1)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.id == sb.id and sa.split == sb.split and sa.class_label == sb.class_label
            assert sa.features.tobytes() == sb.features.tobytes()

    def test_different_seed_differs(self):
        a = make_real_dataset(2, 4, 2, 0.5, seed=1)
        b = make_real_dataset(2, 4, 2, 0.5, seed=2)
        assert not np.array_equal(a.samples[0].features, b.samples[0].features)

    def test_zero_spread_collapses_to_means(self):
        ds = make_real_dataset(3, 5, 4, cluster_spread=0.0, seed=7)
        for c in range(1, 4):
            rows = [s.features for s in ds.samples if s.class_label == c]
            for row in rows[1:]:
                np.testing.assert_array_equal(row, rows[0])

    def test_split_invariants(self):
        ds = make_real_dataset(5, 9, 6, 1.0, seed=3)
        train_ids = {s.id for s in ds.split("train")}
        query = ds.split("query")
        gallery = ds.split("gallery")
        assert train_ids.isdisjoint({s.id for s in query} | {s.id for s in gallery})
        train_classes = {s.class_label for s in ds.split("train")}
        assert train_classes == set(range(1, 6))
        gallery_classes = {s.class_label for s in gallery}
        assert all(q.class_label in gallery_classes for q in query)

    def test_separation_guarantee(self):
        spread = 0.8
        ds = make_real_dataset(6, 8, 3, spread, seed=11)
        centroids = class_centroids(ds)
        # true means are close to centroids; verify the documented floor via
        # the diagnostic route: all pairwise centroid distances comfortably
        # above 4 * spread
        keys = sorted(centroids)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                assert np.linalg.norm(centroids[a] - centroids[b]) > 4 * spread

    def test_nearest_centroid_accuracy(self):
        ds = make_real_dataset(8, 50, 16, 1.0, seed=5)
        centroids = class_centroids(ds)
        train = ds.split("train")
        hits = sum(
            nearest_centroid_classify(centroids, s.features) == s.class_label for s in train
        )
        assert hits / len(train) > 0.95

    def test_preconditions(self):
        with pytest.raises(InvalidConfig):
            make_real_dataset(1, 4, 2, 0.5, seed=0)
        with pytest.raises(InvalidConfig):
            make_real_dataset(2, 3, 2, 0.5, seed=0)
        with pytest.raises(InvalidConfig):
            make_real_dataset(2, 4, 1, 0.5, seed=0)

    def test_infeasible_packing_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(GenerationFailure):
            _place_class_means(400, 2, 1.0, rng, attempts_per_mean=3, max_growths=1)

    def test_more_classes_than_dims_uses_rejection_path(self):
        # 5 classes in 2 dimensions cannot form a simplex; still satisfies
        # the separation floor
        spread = 0.3
        ds = make_real_dataset(5, 4, 2, spread, seed=2)
        centroids = class_centroids(ds)
        keys = sorted(centroids)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                assert np.linalg.norm(centroids[a] - centroids[b]) > 4 * spread


class TestConvexMix:
    def test_equal_weights_give_midpoint(self):
        a = np.array([0.0, 2.0, 4.0])
        b = np.array([2.0, 0.0, 0.0])
        mid = convex_mix(np.stack([a, b]), [0.5, 0.5])
        np.testing.assert_array_equal(mid, (a + b) / 2)

    def test_rejects_non_simplex_weights(self):
        rows = np.zeros((2, 3))
        with pytest.raises(InvalidConfig):
            convex_mix(rows, [0.7, 0.7])
        with pytest.raises(InvalidConfig):
            convex_mix(rows, [1.5, -0.5])


class TestMakeGeneratedDataset:
    @pytest.fixture()
    def real(self):
        return make_real_dataset(8, 20, 16, 1.0, seed=5)

    def test_counts_ids_and_tags(self, real):
        gen = make_generated_dataset(real, 30, mix_size=2, noise=0.1, seed=9)
        assert len(gen) == 30
        assert all(s.origin == "generated" for s in gen.samples)
        assert all(s.class_label is None for s in gen.samples)
        assert all(s.split == "train" for s in gen.samples)
        assert min(s.id for s in gen.samples) > max(s.id for s in real.samples)

    def test_deterministic(self, real):
        a = make_generated_dataset(real, 10, 2, 0.1, seed=4)
        b = make_generated_dataset(real, 10, 2, 0.1, seed=4)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.features.tobytes() == sb.features.tobytes()

    def test_zero_count_rejected(self, real):
        with pytest.raises(InvalidConfig):
            make_generated_dataset(real, 0, 2, 0.1, seed=1)

    def test_mix_size_bounds(self, real):
        with pytest.raises(InvalidConfig):
            make_generated_dataset(real, 5, 1, 0.1, seed=1)
        with pytest.raises(InvalidConfig):
            make_generated_dataset(real, 5, 9, 0.1, seed=1)

    @pytest.mark.parametrize("noise", [-1.0, -1e-12, float("nan")])
    def test_negative_noise_rejected(self, real, noise):
        with pytest.raises(InvalidConfig, match="noise"):
            make_generated_dataset(real, 4, 2, noise, seed=0)

    def test_empty_train_split_fails(self, real):
        queries_only = Dataset([s for s in real.samples if s.split == "query"],
                               real.n_classes, real.feature_dim)
        with pytest.raises(GenerationFailure):
            make_generated_dataset(queries_only, 5, 2, 0.1, seed=1)

    def test_noiseless_samples_sit_in_source_hull(self, real):
        gen = make_generated_dataset(real, 25, mix_size=3, noise=0.0, seed=2)
        by_id = {s.id: s for s in real.samples}
        for s in gen.samples:
            record = gen.provenance[s.id]
            sources = np.stack([by_id[i].features for i in record.source_ids])
            lo, hi = sources.min(axis=0), sources.max(axis=0)
            assert np.all(s.features >= lo - 1e-12)
            assert np.all(s.features <= hi + 1e-12)

    def test_noisy_samples_within_expanded_hull(self, real):
        noise = 0.3
        gen = make_generated_dataset(real, 50, mix_size=2, noise=noise, seed=8)
        by_id = {s.id: s for s in real.samples}
        for s in gen.samples:
            record = gen.provenance[s.id]
            sources = np.stack([by_id[i].features for i in record.source_ids])
            lo, hi = sources.min(axis=0), sources.max(axis=0)
            assert np.all(s.features >= lo - 3 * noise - 1e-12)
            assert np.all(s.features <= hi + 3 * noise + 1e-12)

    def test_provenance_has_distinct_classes_and_simplex_weights(self, real):
        gen = make_generated_dataset(real, 40, mix_size=3, noise=0.05, seed=6)
        for record in gen.provenance.values():
            assert len(set(record.source_classes)) == 3
            assert abs(record.weights.sum() - 1.0) < 1e-12
            assert np.all(record.weights >= 0)

    def test_affinity_to_source_classes(self, real):
        # for most generated samples, the two nearest class centroids (the
        # oracle classifier's top-2 mass) are exactly the two source classes
        gen = make_generated_dataset(real, 100, mix_size=2, noise=0.05, seed=12)
        centroids = class_centroids(real)
        keys = sorted(centroids)
        hits = 0
        for s in gen.samples:
            dists = {c: float(np.sum((s.features - centroids[c]) ** 2)) for c in keys}
            top2 = set(sorted(keys, key=dists.get)[:2])
            if top2 == set(gen.provenance[s.id].source_classes):
                hits += 1
        assert hits / len(gen.samples) >= 0.80


class TestSerialization:
    def test_round_trip_real(self, tmp_path):
        ds = make_real_dataset(3, 6, 5, 0.7, seed=13)
        path = tmp_path / "real.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.n_classes == ds.n_classes and back.feature_dim == ds.feature_dim
        assert len(back) == len(ds)
        for a, b in zip(ds.samples, back.samples):
            assert (a.id, a.split, a.origin, a.class_label) == (b.id, b.split, b.origin,
                                                                b.class_label)
            assert a.features.tobytes() == b.features.tobytes()

    def test_round_trip_generated(self, tmp_path):
        real = make_real_dataset(3, 6, 5, 0.7, seed=13)
        gen = make_generated_dataset(real, 7, 2, 0.2, seed=3)
        path = tmp_path / "gen.txt"
        save_dataset(gen, path)
        back = load_dataset(path)
        for a, b in zip(gen.samples, back.samples):
            assert b.class_label is None and b.origin == "generated"
            assert a.features.tobytes() == b.features.tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        ds = make_real_dataset(2, 4, 3, 0.4, seed=17)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seventeen_digit_floats_round_trip(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 1e3, size=1000)
        for v in values:
            assert float(f"{v:.17g}") == v
