"""Synthetic dataset construction and serialization."""

import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mprl import retrieval, synthgen
from mprl.errors import GenerationFailure, InvalidConfig
from mprl.retrieval import sq_euclidean_blocks
from mprl.synthgen import (
    WEIGHT_SHRINK,
    Dataset,
    _least_sq_separation,
    _place_class_means,
    make_generated_dataset,
    make_real_dataset,
    save_dataset,
)


def class_centroids(dataset: Dataset, split="train"):
    out = {}
    rows = dataset.split(split)
    for c in range(1, dataset.n_classes + 1):
        out[c] = np.mean(rows.features[rows.classes == c], axis=0)
    return out


def assert_same_rows(a: Dataset, b: Dataset):
    """Every serialized column equal, features bit for bit."""
    assert (a.n_classes, a.feature_dim, len(a)) == (b.n_classes, b.feature_dim, len(b))
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.splits, b.splits)
    np.testing.assert_array_equal(a.classes, b.classes)
    np.testing.assert_array_equal(a.generated, b.generated)
    assert a.features.tobytes() == b.features.tobytes()


def read_dataset_text(path) -> Dataset:
    """A dataset file's header and columns, read with plain ``int()`` and
    ``float()`` per field (the package writes the format and has no reader)."""
    header, *rows = (line.split() for line in Path(path).read_text().splitlines())
    n_classes, dim, count = (int(v) for v in header)
    assert len(rows) == count
    return Dataset(np.array([int(r[0]) for r in rows]),
                   np.array([[float(v) for v in r[4:]] for r in rows]).reshape(count, dim),
                   np.array([int(r[3]) for r in rows]), np.array([r[1] for r in rows]),
                   n_classes)


def reference_generated(real: Dataset, m: int, mix_size: int, noise: float, seed):
    """The generator written one sample at a time, drawing from the random
    stream in its documented order: class choice, one source pick per
    chosen class, Dirichlet weights, then noise.  Returns per sample
    (id, features, source ids, source classes, weights)."""
    by_class = {}
    for sid, feats, cls, tag in zip(real.ids.tolist(), real.features, real.classes.tolist(),
                                    real.splits.tolist()):
        if tag == "train":
            by_class.setdefault(cls, []).append((sid, feats, cls))
    class_ids = sorted(by_class)
    rng = np.random.default_rng(seed)
    out = []
    for offset in range(m):
        chosen = rng.choice(len(class_ids), size=mix_size, replace=False)
        picks = [by_class[class_ids[i]][rng.integers(len(by_class[class_ids[i]]))]
                 for i in chosen]
        weights = (1.0 - WEIGHT_SHRINK) * rng.dirichlet(np.ones(mix_size)) \
            + WEIGHT_SHRINK / mix_size
        feats = weights @ np.stack([f for _, f, _ in picks])
        if noise > 0:
            feats = feats + noise * np.clip(rng.standard_normal(real.feature_dim), -3.0, 3.0)
        out.append((int(real.ids.max()) + 1 + offset, feats, [p[0] for p in picks],
                    [p[2] for p in picks], weights))
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
        assert_same_rows(a, b)

    def test_different_seed_differs(self):
        a = make_real_dataset(2, 4, 2, 0.5, seed=1)
        b = make_real_dataset(2, 4, 2, 0.5, seed=2)
        assert not np.array_equal(a.features[0], b.features[0])

    @pytest.mark.parametrize("n_classes, n_per_class, dim, spread", [
        (8, 50, 16, 1.0), (5, 7, 5, 0.37), (20, 6, 4, 0.4), (751, 10, 64, 1.0)],
        ids=["simplex", "simplex_k_equals_dim", "rejection", "rejection_k_751"])
    def test_features_equal_one_draw_per_class(self, n_classes, n_per_class, dim, spread):
        rng = np.random.default_rng((9, 1))
        separation = synthgen.MEAN_SEPARATION_FACTOR * spread
        means = (synthgen._simplex_means(n_classes, dim, max(1.0, separation), rng)
                 if n_classes <= dim else _place_class_means(n_classes, dim, separation, rng))
        draws = np.concatenate([rng.standard_normal((n_per_class, dim))
                                for _ in range(n_classes)])
        expected = np.repeat(means, n_per_class, axis=0) + spread * draws
        ds = make_real_dataset(n_classes, n_per_class, dim, spread, seed=(9, 1))
        assert ds.features.tobytes() == expected.tobytes()

    def test_holds_one_feature_matrix_at_k_751(self):
        make_real_dataset(8, 4, 16, 1.0, seed=0)
        tracemalloc.start()
        try:
            ds = make_real_dataset(751, 10, 64, 1.0, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the features (3.8 MB), the means (0.4 MB) and the small columns;
        # per-class draws, their concatenation, the repeated means and the
        # sum took about three feature matrices
        assert peak < 1.5 * ds.features.nbytes

    def test_zero_spread_collapses_to_means(self):
        ds = make_real_dataset(3, 5, 4, cluster_spread=0.0, seed=7)
        for c in range(1, 4):
            rows = ds.features[ds.classes == c]
            for row in rows[1:]:
                np.testing.assert_array_equal(row, rows[0])

    def test_split_invariants(self):
        ds = make_real_dataset(5, 9, 6, 1.0, seed=3)
        train_ids = set(ds.split("train").ids.tolist())
        query = ds.split("query")
        gallery = ds.split("gallery")
        assert train_ids.isdisjoint(set(query.ids.tolist()) | set(gallery.ids.tolist()))
        train_classes = set(ds.split("train").classes.tolist())
        assert train_classes == set(range(1, 6))
        gallery_classes = set(gallery.classes.tolist())
        assert all(c in gallery_classes for c in query.classes.tolist())

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
            nearest_centroid_classify(centroids, f) == c
            for f, c in zip(train.features, train.classes)
        )
        assert hits / len(train) > 0.95

    def test_preconditions(self):
        with pytest.raises(InvalidConfig):
            make_real_dataset(1, 4, 2, 0.5, seed=0)
        with pytest.raises(InvalidConfig):
            make_real_dataset(2, 3, 2, 0.5, seed=0)
        with pytest.raises(InvalidConfig):
            make_real_dataset(2, 4, 1, 0.5, seed=0)

    @pytest.mark.parametrize("spread", [-1.0, float("nan"), float("inf")])
    def test_bad_spread_rejected(self, spread):
        # a non-finite spread would give all-NaN or infinite features
        with pytest.raises(InvalidConfig, match="cluster_spread"):
            make_real_dataset(4, 8, 8, spread, seed=1)

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


    def test_coincident_means_fail_the_separation_check(self, monkeypatch):
        def coincident(n_classes, dim, edge, rng):
            means = np.zeros((n_classes, dim))
            means[:, 0] = np.arange(n_classes) * 100.0
            means[-1] = means[0]
            return means

        monkeypatch.setattr(synthgen, "_simplex_means", coincident)
        with pytest.raises(GenerationFailure, match="separation"):
            make_real_dataset(4, 4, 8, 1.0, seed=0)


class TestLeastSeparation:
    """The class-mean check's least squared distance between two distinct
    means, taken one distance block at a time."""

    @pytest.mark.parametrize("n, dim, budget", [
        (1, 3, None), (2, 2, None), (9, 4, 0), (9, 4, 200), (40, 3, 700), (751, 16, None)])
    def test_equals_the_off_diagonal_minimum(self, n, dim, budget):
        rng = np.random.default_rng(n)
        means = rng.normal(size=(n, dim))
        if n > 3:
            means[n - 1] = means[1] + 1e-9  # the closest pair straddles blocks
        matrix = np.concatenate([block.copy() for block in sq_euclidean_blocks(means, means)])
        np.fill_diagonal(matrix, np.inf)
        bytes_ = retrieval.BLOCK_BYTES if budget is None else (
            retrieval._UFUNC_BUFFER_BYTES + budget)
        with mock.patch.object(retrieval, "BLOCK_BYTES", bytes_):
            least = _least_sq_separation(means)
        assert least == matrix.min()
        assert np.sqrt(least) == np.min(np.sqrt(matrix))

    def test_holds_one_block_at_k_751(self):
        means = np.random.default_rng(0).normal(size=(751, 64))
        _least_sq_separation(means[:2])
        tracemalloc.start()
        try:
            _least_sq_separation(means)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block and its plane, then the transposed copy of the means;
        # the 751 x 751 matrix alone would take 4.5 MB
        assert peak < retrieval.BLOCK_BYTES + means.nbytes + 64 * 1024


class TestMakeGeneratedDataset:
    @pytest.fixture()
    def real(self):
        return make_real_dataset(8, 20, 16, 1.0, seed=5)

    def test_counts_ids_and_tags(self, real):
        gen = make_generated_dataset(real, 30, mix_size=2, noise=0.1, seed=9)
        assert len(gen) == 30
        assert gen.generated.all()
        assert np.all(gen.classes == -1)
        assert np.all(gen.splits == "train")
        assert gen.ids.min() > real.ids.max()

    def test_deterministic(self, real):
        a = make_generated_dataset(real, 10, 2, 0.1, seed=4)
        b = make_generated_dataset(real, 10, 2, 0.1, seed=4)
        assert a.features.tobytes() == b.features.tobytes()

    def test_zero_count_rejected(self, real):
        with pytest.raises(InvalidConfig):
            make_generated_dataset(real, 0, 2, 0.1, seed=1)

    def test_mix_size_bounds(self, real):
        with pytest.raises(InvalidConfig):
            make_generated_dataset(real, 5, 1, 0.1, seed=1)
        with pytest.raises(InvalidConfig):
            make_generated_dataset(real, 5, 9, 0.1, seed=1)

    @pytest.mark.parametrize("noise", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_negative_noise_rejected(self, real, noise):
        with pytest.raises(InvalidConfig, match="noise"):
            make_generated_dataset(real, 4, 2, noise, seed=0)

    def test_empty_train_split_fails(self, real):
        queries_only = real.split("query")
        with pytest.raises(GenerationFailure):
            make_generated_dataset(queries_only, 5, 2, 0.1, seed=1)

    def test_noiseless_samples_sit_in_source_hull(self, real):
        gen = make_generated_dataset(real, 25, mix_size=3, noise=0.0, seed=2)
        row_of = {sid: i for i, sid in enumerate(real.ids.tolist())}
        for feats, source_ids in zip(gen.features, gen.source_ids.tolist()):
            sources = real.features[[row_of[i] for i in source_ids]]
            lo, hi = sources.min(axis=0), sources.max(axis=0)
            assert np.all(feats >= lo - 1e-12)
            assert np.all(feats <= hi + 1e-12)

    def test_noisy_samples_within_expanded_hull(self, real):
        noise = 0.3
        gen = make_generated_dataset(real, 50, mix_size=2, noise=noise, seed=8)
        row_of = {sid: i for i, sid in enumerate(real.ids.tolist())}
        for feats, source_ids in zip(gen.features, gen.source_ids.tolist()):
            sources = real.features[[row_of[i] for i in source_ids]]
            lo, hi = sources.min(axis=0), sources.max(axis=0)
            assert np.all(feats >= lo - 3 * noise - 1e-12)
            assert np.all(feats <= hi + 3 * noise + 1e-12)

    def test_provenance_has_distinct_classes_and_simplex_weights(self, real):
        gen = make_generated_dataset(real, 40, mix_size=3, noise=0.05, seed=6)
        assert gen.source_classes.shape == gen.source_weights.shape == (40, 3)
        for classes, weights in zip(gen.source_classes, gen.source_weights):
            assert len(set(classes.tolist())) == 3
            assert abs(weights.sum() - 1.0) < 1e-12
            assert np.all(weights >= 0)

    @pytest.mark.parametrize("mix_size, noise", [(2, 0.1), (3, 0.0), (4, 0.3)])
    def test_bit_equal_to_per_sample_reference(self, real, mix_size, noise):
        gen = make_generated_dataset(real, 25, mix_size, noise, seed=21)
        reference = reference_generated(real, 25, mix_size, noise, seed=21)
        assert gen.ids.tolist() == [r[0] for r in reference]
        assert gen.features.tobytes() == np.stack([r[1] for r in reference]).tobytes()
        assert gen.source_ids.tolist() == [r[2] for r in reference]
        assert gen.source_classes.tolist() == [r[3] for r in reference]
        assert gen.source_weights.tobytes() == np.stack([r[4] for r in reference]).tobytes()

    def test_split_keeps_provenance_aligned(self, real):
        gen = make_generated_dataset(real, 6, 2, 0.1, seed=3)
        merged = Dataset(np.concatenate([real.ids, gen.ids]),
                         np.concatenate([real.features, gen.features]),
                         np.concatenate([real.classes, gen.classes]),
                         np.concatenate([real.splits, gen.splits]), real.n_classes,
                         gen.source_ids, gen.source_classes, gen.source_weights)
        train = merged.split("train")
        assert train.generated.sum() == 6
        np.testing.assert_array_equal(train.source_ids, gen.source_ids)
        np.testing.assert_array_equal(train.source_weights, gen.source_weights)
        assert merged.split("query").source_ids.shape == (0, 2)

    def test_affinity_to_source_classes(self, real):
        # for most generated samples, the two nearest class centroids (the
        # oracle classifier's top-2 mass) are exactly the two source classes
        gen = make_generated_dataset(real, 100, mix_size=2, noise=0.05, seed=12)
        centroids = class_centroids(real)
        keys = sorted(centroids)
        hits = 0
        for feats, source_classes in zip(gen.features, gen.source_classes.tolist()):
            dists = {c: float(np.sum((feats - centroids[c]) ** 2)) for c in keys}
            top2 = set(sorted(keys, key=dists.get)[:2])
            if top2 == set(source_classes):
                hits += 1
        assert hits / len(gen) >= 0.80


class TestSerialization:
    def test_round_trip_real(self, tmp_path):
        ds = make_real_dataset(3, 6, 5, 0.7, seed=13)
        path = tmp_path / "real.txt"
        save_dataset(ds, path)
        back = read_dataset_text(path)
        assert_same_rows(ds, back)
        assert not back.generated.any()
        assert {line.split()[2] for line in path.read_text().splitlines()[1:]} == {"real"}

    def test_round_trip_generated(self, tmp_path):
        real = make_real_dataset(3, 6, 5, 0.7, seed=13)
        gen = make_generated_dataset(real, 7, 2, 0.2, seed=3)
        path = tmp_path / "gen.txt"
        save_dataset(gen, path)
        back = read_dataset_text(path)
        assert_same_rows(gen, back)
        assert back.generated.all()
        lines = path.read_text().splitlines()
        assert {line.split()[2] for line in lines[1:]} == {"generated"}
        # provenance is diagnostics only and never serialized: a row holds
        # its id, split, origin, class and features, nothing more
        assert {len(line.split()) for line in lines[1:]} == {4 + gen.feature_dim}

    def test_save_load_save_identical_bytes(self, tmp_path):
        ds = make_real_dataset(2, 4, 3, 0.4, seed=17)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(ds, p1)
        save_dataset(read_dataset_text(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seventeen_digit_floats_round_trip(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 1e3, size=1000)
        for v in values:
            assert float(f"{v:.17g}") == v
