"""Training strategies: gating, determinism, label assignment, epoch observers."""

import copy
import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

import mprl.trainer as trainer_module
from mprl.errors import InvalidConfig, InvalidDimension, InvalidState, MprlError
from mprl.labels import mprl_rows, virtual_labels
from mprl.net import forward, init_params
from mprl.synthgen import Dataset, make_generated_dataset, make_real_dataset
from mprl.trainer import (
    STACK_BYTES,
    Cohort,
    SeedDraws,
    Strategy,
    TrainConfig,
    TrainSettings,
    assign_static_labels,
    epoch_shuffle_order,
    extract_embeddings,
    pretrain_baseline,
    stack_limit,
    train,
)


@pytest.fixture(scope="module")
def real():
    return make_real_dataset(3, 6, 4, cluster_spread=0.4, seed=100)


@pytest.fixture(scope="module")
def generated(real):
    return make_generated_dataset(real, 9, mix_size=2, noise=0.05, seed=200)


def quick_config(strategy, **overrides):
    defaults = dict(
        strategy=strategy,
        epochs=4,
        batch_size=8,
        lr_initial=0.05,
        lr_after_decay=0.005,
        decay_epoch=3,
        momentum=0.9,
        warmup_epoch=3,
        dropout_rate=0.25,
        hidden_sizes=(8, 6),
        seed=7,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def histories_equal(a, b) -> bool:
    if len(a.records) != len(b.records):
        return False
    return all(ra == rb for ra, rb in zip(a.records, b.records))


def argmax_observer(generated, n_tracked, n_classes):
    """An on_epoch observer recording, per tracked generated id (lowest
    first), the eval-mode argmax class after every epoch."""
    rows = np.argsort(generated.ids)[:n_tracked]
    series = {sid: [] for sid in generated.ids[rows].tolist()}

    def observe(record, params):
        logits, _, _ = forward(params, generated.features[rows])
        for sid, cls in zip(series, np.argmax(logits[:, :n_classes], axis=1) + 1):
            series[sid].append(int(cls))

    return observe, series


def params_bitwise_equal(a, b) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.weights, b.weights)) and all(
        x.tobytes() == y.tobytes() for x, y in zip(a.biases, b.biases)
    )


class TestStrategyContracts:
    def test_baseline_excludes_generated(self, real, generated):
        _, history = train(real, generated, quick_config(Strategy.BASELINE))
        assert all(r.gen_loss == 0.0 for r in history.records)
        assert all(r.gen_grad_norm == 0.0 for r in history.records)

    def test_dmprl2_gate_opens_at_warmup(self, real, generated):
        cfg = quick_config(Strategy.DMPRL2, epochs=6, warmup_epoch=4)
        _, history = train(real, generated, cfg)
        for r in history.records:
            if r.epoch < 4:
                assert r.gen_loss == 0.0
                assert r.gen_grad_norm == 0.0
            else:
                assert r.gen_loss > 0.0
                assert r.gen_grad_norm > 0.0

    def test_generated_aware_strategies_accumulate_gen_loss(self, real, generated):
        for strategy in (Strategy.ALL_IN_ONE, Strategy.ONE_HOT_PSEUDO, Strategy.LSRO,
                         Strategy.DMPRL1):
            cfg = quick_config(strategy)
            static = None
            if strategy is Strategy.SMPRL:
                static = assign_static_labels(pretrain_baseline(real, cfg), generated)
            _, history = train(real, generated, cfg, static_labels=static)
            assert all(r.gen_loss > 0.0 for r in history.records), strategy

    def test_head_width_follows_strategy(self, real, generated):
        params_extra, _ = train(real, generated, quick_config(Strategy.ALL_IN_ONE))
        assert params_extra.layer_sizes[-1] == real.n_classes + 1
        for strategy in (Strategy.BASELINE, Strategy.LSRO, Strategy.DMPRL1):
            params, _ = train(real, generated, quick_config(strategy))
            assert params.layer_sizes[-1] == real.n_classes

    def test_lr_decay_schedule(self, real, generated):
        cfg = quick_config(Strategy.LSRO, epochs=5, decay_epoch=3)
        _, history = train(real, generated, cfg)
        lrs = [r.lr for r in history.records]
        assert lrs == [0.05, 0.05, 0.05, 0.005, 0.005]

    def test_smprl_requires_static_labels(self, real, generated):
        with pytest.raises(InvalidConfig):
            train(real, generated, quick_config(Strategy.SMPRL))

    def test_smprl_static_labels_need_one_row_per_generated_sample(self, real, generated):
        k = real.n_classes
        for shape in ((len(generated) - 1, k), (len(generated), k + 1)):
            with pytest.raises(InvalidDimension, match="static labels must have shape"):
                train(real, generated, quick_config(Strategy.SMPRL),
                      static_labels=np.full(shape, 1.0 / k))

    def test_dmprl2_warmup_must_precede_end(self, real, generated):
        cfg = quick_config(Strategy.DMPRL2, epochs=3, warmup_epoch=3)
        with pytest.raises(InvalidConfig):
            train(real, generated, cfg)

    @pytest.mark.parametrize("rates", [
        {"lr_initial": math.nan}, {"lr_initial": math.inf},
        {"lr_after_decay": math.nan}, {"lr_after_decay": -math.inf},
    ])
    def test_non_finite_learning_rate_rejected_before_training(self, real, generated, rates):
        # nan <= 0 is False, so a sign check alone lets a nan rate through
        with pytest.raises(InvalidConfig, match="learning rates"):
            train(real, generated, quick_config(Strategy.LSRO, **rates))

    @pytest.mark.parametrize("bad, match", [
        ({"init_scale": math.inf}, "init_scale"),
        ({"init_scale": math.nan}, "init_scale"),
        ({"decay_epoch": -1}, "decay_epoch"),
        ({"warmup_epoch": -4}, "warmup_epoch"),
        ({"gen_weight": -1.0}, "gen_weight"),
        ({"gen_weight": math.inf}, "gen_weight"),
        ({"gen_weight": math.nan}, "gen_weight"),
    ])
    def test_out_of_range_values_rejected_for_every_strategy(self, bad, match):
        # the baseline never uses gen_weight or the warm-up gate, yet a
        # value no strategy can use is still rejected for it
        with pytest.raises(InvalidConfig, match=match):
            quick_config(Strategy.BASELINE, **bad).validate()

    def test_zero_schedule_epochs_and_baseline_zero_gen_weight_accepted(self):
        quick_config(Strategy.DMPRL2, decay_epoch=0, warmup_epoch=0).validate()
        quick_config(Strategy.BASELINE, gen_weight=0.0).validate()

    def test_a_strategy_given_by_name_is_the_strategy(self, real, generated):
        by_name = quick_config("smprl")
        assert by_name.strategy is Strategy.SMPRL
        assert by_name == quick_config(Strategy.SMPRL)
        assert hash(by_name) == hash(quick_config(Strategy.SMPRL))
        with pytest.raises(InvalidConfig, match="smprl needs static_labels"):
            train(real, generated, by_name)

    def test_a_dmprl2_given_by_name_keeps_its_weight_and_gate(self, real, generated):
        cfg = quick_config("dmprl2", epochs=6, warmup_epoch=4)
        assert cfg.resolved_gen_weight() == 0.1
        _, history = train(real, generated, cfg)
        assert [r.gen_loss > 0.0 for r in history.records] == [False] * 3 + [True] * 3

    @pytest.mark.parametrize("name", ["mprl", "SMPRL", "", None])
    def test_an_unknown_strategy_is_named(self, name):
        with pytest.raises(InvalidConfig, match=f"unknown strategy {name!r}"):
            quick_config(name)

    def test_gen_weight_default_resolution(self):
        assert quick_config(Strategy.DMPRL2, epochs=30).resolved_gen_weight() == 0.1
        assert quick_config(Strategy.LSRO).resolved_gen_weight() == 1.0
        assert quick_config(Strategy.LSRO, gen_weight=0.3).resolved_gen_weight() == 0.3


class TestDeterminism:
    @pytest.mark.parametrize("strategy", [
        Strategy.BASELINE, Strategy.ALL_IN_ONE, Strategy.ONE_HOT_PSEUDO,
        Strategy.LSRO, Strategy.DMPRL1, Strategy.DMPRL2,
    ])
    def test_identical_seed_reproduces_bitwise(self, real, generated, strategy):
        cfg = quick_config(strategy, epochs=5, warmup_epoch=3)
        p1, h1 = train(real, generated, cfg)
        p2, h2 = train(real, generated, cfg)
        assert params_bitwise_equal(p1, p2)
        assert histories_equal(h1, h2)

    def test_smprl_deterministic_end_to_end(self, real, generated):
        cfg = quick_config(Strategy.SMPRL)
        runs = []
        for _ in range(2):
            static = assign_static_labels(pretrain_baseline(real, cfg), generated)
            runs.append(train(real, generated, cfg, static_labels=static))
        assert params_bitwise_equal(runs[0][0], runs[1][0])
        assert histories_equal(runs[0][1], runs[1][1])

    def test_different_seed_diverges(self, real, generated):
        p1, _ = train(real, generated, quick_config(Strategy.LSRO, seed=1))
        p2, _ = train(real, generated, quick_config(Strategy.LSRO, seed=2))
        assert not params_bitwise_equal(p1, p2)

    def test_epoch_shuffle_is_permutation(self):
        for seed in (0, 3):
            for epoch in (1, 2, 50):
                for n in (1, 7, 64):
                    order = epoch_shuffle_order(seed, epoch, n)
                    assert sorted(order.tolist()) == list(range(n))
        assert not np.array_equal(
            epoch_shuffle_order(0, 1, 64), epoch_shuffle_order(0, 2, 64)
        )


class TestStaticLabels:
    def test_deterministic_given_params(self, real, generated):
        params = pretrain_baseline(real, quick_config(Strategy.BASELINE))
        a = assign_static_labels(params, generated)
        b = assign_static_labels(params, generated)
        assert a.shape == (len(generated), real.n_classes)
        assert a.tobytes() == b.tobytes()

    def test_zero_weight_model_degenerates_to_lsro(self, real, generated):
        # uniform outputs plus average-rank ties: every normalized label
        # row carries the uniform mass
        k = real.n_classes
        flat = init_params((real.feature_dim, 5, k), seed=0, scale=0.0)
        labels = assign_static_labels(flat, generated)
        for row in labels:
            np.testing.assert_allclose(row, np.full(k, 1 / k), atol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_model_with_non_finite_logits_is_refused(self, real, generated, bad):
        # an all-NaN model ranked to one finite row for every generated sample
        params = init_params((real.feature_dim, 5, real.n_classes), seed=0)
        params.biases[-1][0] = bad
        with pytest.raises(InvalidDimension, match="logits must be finite"):
            assign_static_labels(params, generated)
        params.flat[:] = math.nan
        with pytest.raises(InvalidDimension, match="logits must be finite"):
            assign_static_labels(params, generated)

    def test_nontrivial_model_gives_rank_scaled_weights(self, real, generated):
        params = pretrain_baseline(real, quick_config(Strategy.BASELINE, epochs=6))
        labels = assign_static_labels(params, generated)
        k = real.n_classes
        for row in labels:
            ratio = row.max() / row.min()
            assert ratio == pytest.approx(k)
            # distinct ranks 1..K, each scaled by 1/K x 2/(1+K)
            np.testing.assert_array_equal(np.sort(row), mprl_rows(np.arange(1.0, k + 1)))

    def test_frozen_map_unchanged_by_training(self, real, generated):
        cfg = quick_config(Strategy.SMPRL)
        static = assign_static_labels(pretrain_baseline(real, cfg), generated)
        before = static.tobytes()
        train(real, generated, cfg, static_labels=static)
        assert static.tobytes() == before


class TestWholePasses:
    """The passes that score every real train row (``train_acc``) or every
    generated row (static labels) hold blocks of their (rows, K) matrices.

    A K = 200 toy whose block budget is patched to 48 KiB, 30 rows of
    logits: the 2000 train rows and 2000 generated rows take 67 blocks,
    the last one ragged."""

    K = 200

    @pytest.fixture(scope="class")
    def wide(self):
        real = make_real_dataset(self.K, 20, 6, cluster_spread=0.1, seed=3)
        rng = np.random.default_rng(4)
        n = 2000
        generated = Dataset(np.arange(10**6, 10**6 + n), rng.normal(size=(n, 6)),
                            np.full(n, -1), np.full(n, "train"), self.K)
        return real, generated

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(trainer_module, "PASS_BYTES", 48 * 1024)

    @staticmethod
    def traced_peak(call) -> int:
        call()  # warm-up: first-call allocations are not the pass's own
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def wide_config(strategy, epochs=1):
        return quick_config(strategy, epochs=epochs, batch_size=64, hidden_sizes=(8,),
                            lr_initial=0.3, lr_after_decay=0.03, decay_epoch=1)

    def test_train_holds_no_whole_logits(self, wide):
        real, _ = wide
        rows = len(real.split("train"))
        whole = rows * self.K * 8  # the split's logits, 3.2 MB
        peak = self.traced_peak(lambda: train(real, None, self.wide_config(Strategy.BASELINE)))
        assert peak < whole / 2

    def test_static_labels_hold_the_logits_and_the_result_alone(self, wide):
        real, generated = wide
        params = init_params((real.feature_dim, 8, self.K), seed=5)
        whole = len(generated) * self.K * 8
        peak = self.traced_peak(lambda: assign_static_labels(params, generated))
        # the logits, which the result overwrites, plus blocks; one rank
        # sort of every row would hold about four more whole matrices
        assert peak < 1.5 * whole

    def test_static_labels_equal_one_call_on_every_row(self, wide):
        real, generated = wide
        params = init_params((real.feature_dim, 8, self.K), seed=5)
        expected = virtual_labels(Strategy.SMPRL, forward(params, generated.features)[0])
        assert assign_static_labels(params, generated).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("strategy", [Strategy.BASELINE, Strategy.ALL_IN_ONE])
    def test_train_acc_equals_one_call_on_every_row(self, wide, strategy):
        real, generated = wide
        train_rows = real.split("train")
        seen = []

        def one_call(record, params):
            # all-in-one's extra head column is out of the argmax
            logits, _, _ = forward(params, train_rows.features)
            predicted = np.argmax(logits[:, :self.K], axis=1) + 1
            seen.append((record.train_acc, float(np.mean(predicted == train_rows.classes))))

        train(real, generated if strategy is Strategy.ALL_IN_ONE else None,
              self.wide_config(strategy, epochs=2), on_epoch=one_call)
        assert len(seen) == 2
        for blocked, whole in seen:
            assert blocked == whole and 0 < blocked < 1


class TestTrajectories:
    def test_shape_of_series(self, real, generated):
        observe, series = argmax_observer(generated, 2, real.n_classes)
        train(real, generated, quick_config(Strategy.LSRO, epochs=5), on_epoch=observe)
        assert len(series) == 2
        for values in series.values():
            assert len(values) == 5
            assert all(1 <= v <= real.n_classes for v in values)

    def test_baseline_can_still_trace(self, real, generated):
        observe, series = argmax_observer(generated, 3, real.n_classes)
        train(real, generated, quick_config(Strategy.BASELINE), on_epoch=observe)
        assert len(series) == 3
        assert all(len(values) == 4 for values in series.values())

    def test_trajectory_settles_on_source_classes(self):
        # well-separated data: late-epoch argmax stays within each sample's
        # source class pair
        real = make_real_dataset(8, 30, 16, 1.0, seed=11)
        generated = make_generated_dataset(real, 24, mix_size=2, noise=0.05, seed=12)
        cfg = TrainConfig(
            strategy=Strategy.DMPRL2, epochs=30, batch_size=32, lr_initial=0.05,
            lr_after_decay=0.01, decay_epoch=24, momentum=0.9, warmup_epoch=10,
            dropout_rate=0.25, hidden_sizes=(32, 16), seed=3,
        )
        observe, series = argmax_observer(generated, 24, real.n_classes)
        train(real, generated, cfg, on_epoch=observe)
        assert len(series) == 24
        source_classes = dict(zip(generated.ids.tolist(), generated.source_classes.tolist()))
        settled = 0
        for sid, values in series.items():
            sources = set(source_classes[sid])
            tail = values[-10:]
            inside = sum(1 for v in tail if v in sources)
            if inside >= 8:
                settled += 1
        assert settled / len(series) >= 0.8

    def test_csv_export(self, real, generated, tmp_path):
        cfg = quick_config(Strategy.LSRO, epochs=3)
        _, history = train(real, generated, cfg)
        hist_path = tmp_path / "history.csv"
        history.to_csv(hist_path)
        lines = hist_path.read_text().splitlines()
        assert lines[0] == "epoch,l1,l2,combined,train_acc,lr"
        assert len(lines) == 4


class TestEpochObserver:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_observer_cannot_move_training(self, real, generated, strategy):
        cfg = quick_config(strategy, epochs=5, warmup_epoch=3)
        static = None
        if strategy is Strategy.SMPRL:
            static = assign_static_labels(pretrain_baseline(real, cfg), generated)
        seen = []

        def observe(record, params):
            # a forward pass over every generated row, as a diagnostic would run
            forward(params, generated.features)
            seen.append((record, params))

        p1, h1 = train(real, generated, cfg, static_labels=static)
        p2, h2 = train(real, generated, cfg, static_labels=static, on_epoch=observe)
        assert params_bitwise_equal(p1, p2)
        assert histories_equal(h1, h2)
        assert [record.epoch for record, _ in seen] == [1, 2, 3, 4, 5]
        assert [record for record, _ in seen] == h2.records
        assert seen[-1][1] is p2

    def test_params_held_from_epoch_1_keep_their_values(self, real, generated):
        cfg = quick_config(Strategy.DMPRL1, epochs=4)
        seen = []
        snapshot = []

        def observe(record, params):
            seen.append(params)
            if record.epoch == 1:
                snapshot.append(copy.deepcopy(params))

        final, _ = train(real, generated, cfg, on_epoch=observe)
        # training went on for three epochs, updating its velocity in place
        assert not params_bitwise_equal(seen[0], final)
        assert params_bitwise_equal(seen[0], snapshot[0])


class TestDropoutMasks:
    @pytest.mark.parametrize("shape", [(1, 1), (64, 16), (7, 13), (3, 751)])
    @pytest.mark.parametrize("rate", [0.1, 0.25, 0.5, 0.9])
    def test_replay_equals_the_float_draw_bit_for_bit(self, shape, rate):
        # the mask forward applied when it drew its own from this stream
        rng = np.random.default_rng((5, trainer_module._SEED_DROPOUT, 3, 2))
        expected = (rng.random(shape) >= rate) / (1.0 - rate)
        masks = SeedDraws()
        first = masks.keep(5, 3, 2, shape, rate)
        again = masks.keep(5, 3, 2, shape, rate)
        for got in (first, again):
            assert got.dtype == np.float64 and got.shape == shape
            assert got.tobytes() == expected.tobytes()

    def test_each_mask_is_drawn_once_and_stored_read_only(self, monkeypatch):
        draws = []
        original = trainer_module.draw_keep_mask

        def counting(*args):
            draws.append(args)
            return original(*args)

        monkeypatch.setattr(trainer_module, "draw_keep_mask", counting)
        masks = SeedDraws()
        keys = [(1, 1, 0, (8, 6)), (1, 1, 1, (8, 6)), (1, 1, 1, (5, 6)), (2, 1, 0, (8, 6))]
        for _ in range(3):
            for key in keys:
                masks.keep(*key, 0.25)
        assert draws == [(*key, 0.25) for key in keys]
        assert len(masks.packed) == len(keys)
        for bits in masks.packed.values():
            assert bits.dtype == np.uint8 and not bits.flags.writeable
            with pytest.raises(ValueError):
                bits[0] = 0
        # the caller's copy is its own
        handed = masks.keep(1, 1, 0, (8, 6), 0.25)
        handed[:] = 0.0
        assert masks.keep(1, 1, 0, (8, 6), 0.25).any()
        # one bit per unit: 8 rows x 6 units take 6 bytes, 5 x 6 take 4
        assert masks.packed[(1, 1, 0, (8, 6), 0.25)].nbytes == 6
        assert masks.packed[(1, 1, 1, (5, 6), 0.25)].nbytes == 4

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_shared_store_trains_as_a_private_one(self, real, generated, strategy):
        cfg = quick_config(strategy, epochs=5, warmup_epoch=3)
        static = None
        if strategy is Strategy.SMPRL:
            static = assign_static_labels(pretrain_baseline(real, cfg), generated)
        shared = SeedDraws()
        # other trainings of the seed (and of another seed) fill the store first
        pretrain_baseline(real, cfg, draws=shared)
        train(real, generated, quick_config(Strategy.LSRO, epochs=5), draws=shared)
        train(real, generated, quick_config(Strategy.LSRO, epochs=5, seed=8),
              draws=shared)
        held = len(shared.packed)
        p1, h1 = train(real, generated, cfg, static_labels=static)
        p2, h2 = train(real, generated, cfg, static_labels=static, draws=shared)
        assert params_bitwise_equal(p1, p2)
        assert histories_equal(h1, h2)
        # the pretraining and the lsro run drew every mask of this seed
        assert len(shared.packed) == held

    def test_no_dropout_draws_nothing(self, real, generated, monkeypatch):
        monkeypatch.setattr(trainer_module, "draw_keep_mask", None)
        masks = SeedDraws()
        train(real, generated, quick_config(Strategy.DMPRL1, dropout_rate=0.0),
              draws=masks)
        assert masks.packed == {}


class TestEpochOrders:
    def test_a_cohort_draws_each_epoch_order_once(self, real, generated, monkeypatch):
        draws = []

        def counting(*args):
            draws.append(args)
            return epoch_shuffle_order(*args)

        monkeypatch.setattr(trainer_module, "epoch_shuffle_order", counting)
        cfgs = [quick_config(s) for s in (Strategy.LSRO, Strategy.DMPRL1, Strategy.DMPRL2)]
        cohort = Cohort()
        for cfg in cfgs:
            cohort.add(cfg)
        for cfg in cfgs:
            train(real, generated, cfg, cohort=cohort)
        # once per epoch for all three members, not once per member
        pool = len(real.split("train")) + len(generated)
        assert draws == [(cfgs[0].seed, epoch, pool) for epoch in range(1, cfgs[0].epochs + 1)]


class TestDivergence:
    def test_error_names_epoch_and_batch_without_warnings(self, real, generated):
        cfg = quick_config(Strategy.DMPRL1, epochs=2, lr_initial=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MprlError, match=r"^epoch 1, batch [1-9]\d*: training diverged: "
                                                r"the model's logits are not finite$"):
                train(real, generated, cfg)


class TestCombinedHistorySemantics:
    def test_combined_equals_l1_plus_weighted_l2(self, real, generated):
        cfg = quick_config(Strategy.LSRO, gen_weight=0.25)
        _, history = train(real, generated, cfg)
        for r in history.records:
            assert r.combined == pytest.approx(r.real_loss + 0.25 * r.gen_loss, abs=1e-15)

    def test_training_improves_accuracy(self, real, generated):
        cfg = quick_config(Strategy.DMPRL1, epochs=12, dropout_rate=0.1)
        _, history = train(real, generated, cfg)
        assert history.records[-1].train_acc >= 0.9

    def test_embeddings_extracted_from_penultimate_layer(self, real):
        cfg = quick_config(Strategy.BASELINE)
        params, _ = train(real, None, cfg)
        emb = extract_embeddings(params, real, "query")
        assert emb.vectors.shape == (len(real.split("query")), cfg.hidden_sizes[-1])
        assert emb.dim == params.embedding_dim
        # the hidden stack alone gives forward's embedding bit for bit
        _, _, want = forward(params, real.split("query").features)
        assert np.array_equal(emb.vectors, want)


class TestExtremeLogits:
    @pytest.mark.parametrize("strategy", [
        Strategy.ONE_HOT_PSEUDO, Strategy.DMPRL1, Strategy.DMPRL2, Strategy.SMPRL,
    ])
    def test_confident_model_trains_an_epoch(self, real, generated, strategy, monkeypatch):
        starts = []

        def capturing(*args, **kwargs):
            starts.append(init_params(*args, **kwargs))
            return starts[-1]

        monkeypatch.setattr(trainer_module, "init_params", capturing)
        cfg = quick_config(strategy, epochs=1, warmup_epoch=0, dropout_rate=0.0,
                           init_scale=30.0)
        static = None
        if strategy is Strategy.SMPRL:
            static = assign_static_labels(pretrain_baseline(real, cfg), generated)
        _, history = train(real, generated, cfg, static_labels=static)
        # softmax of the starting model's logits underflows to exact zeros
        # in every row
        logits, _, _ = forward(starts[-1], generated.features)
        assert np.min(np.ptp(logits, axis=1)) > 1000.0
        record = history.records[0]
        assert all(math.isfinite(v) for v in (record.real_loss, record.gen_loss,
                                               record.combined, record.gen_grad_norm))


class TestBatchContract:
    def test_one_combined_loss_call_per_mini_batch(self, real, generated, monkeypatch):
        # the benchmark's speed probe and losses.* trace hook this name
        calls = []
        original = trainer_module.combined_loss

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "combined_loss", counting)
        cfg = quick_config(Strategy.ALL_IN_ONE, epochs=3, batch_size=4)
        train(real, generated, cfg)
        pool = len(real.split("train")) + len(generated)
        assert len(calls) == cfg.epochs * math.ceil(pool / cfg.batch_size)
        assert all(isinstance(x, np.ndarray) and x.ndim == 2 for x in calls)
        assert {x.shape[1] for x in calls} == {real.n_classes + 1}
        assert sum(len(x) for x in calls) == cfg.epochs * pool

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_batch_wider_than_any_array_trains_as_one_batch(self, real, generated, strategy):
        # a batch_size no array can hold: nothing may be sized by batch_size,
        # such as LSRO's and all-in-one's fixed row broadcast to a batch
        static = None
        if strategy is Strategy.SMPRL:
            static = assign_static_labels(
                pretrain_baseline(real, quick_config(Strategy.BASELINE)), generated)
        pool = len(real.split("train")) + (0 if strategy is Strategy.BASELINE else len(generated))
        (params, history), (wide_params, wide_history) = [
            train(real, generated, quick_config(strategy, batch_size=size), static)
            for size in (pool, 2**62)]  # one batch per epoch either way
        assert params_bitwise_equal(params, wide_params)
        assert histories_equal(history, wide_history)


# every strategy that trains beside others in one cohort
LOCKSTEP = [Strategy.ONE_HOT_PSEUDO, Strategy.LSRO, Strategy.SMPRL, Strategy.DMPRL1,
            Strategy.DMPRL2]


def alone_and_together(real, generated, cfgs, static=None):
    """Each config trained alone, and all of them in one cohort (in config
    order); each smprl config gets ``static``."""
    labels = {cfg: static if cfg.strategy is Strategy.SMPRL else None for cfg in cfgs}
    alone = []
    for cfg in cfgs:
        try:
            alone.append(train(real, generated, cfg, static_labels=labels[cfg]))
        except MprlError as exc:
            alone.append(exc)
    cohort = Cohort()
    for cfg in cfgs:
        cohort.add(cfg, labels[cfg])
    together = []
    for cfg in cfgs:
        try:
            together.append(train(real, generated, cfg, cohort=cohort))
        except MprlError as exc:
            together.append(exc)
    return alone, together


def assert_same_outcomes(alone, together):
    for one, other in zip(alone, together, strict=True):
        if isinstance(one, MprlError):
            assert type(other) is type(one) and str(other) == str(one)
        else:
            assert params_bitwise_equal(one[0], other[0])
            assert histories_equal(one[1], other[1])


class TestCohort:
    @pytest.mark.parametrize("dropout_rate", [0.25, 0.0])
    @pytest.mark.parametrize("with_generated", [True, False])
    def test_lockstep_equals_one_training_per_member(self, real, generated, dropout_rate,
                                                     with_generated):
        data = generated if with_generated else None
        cfgs = [quick_config(s, dropout_rate=dropout_rate) for s in LOCKSTEP]
        static = assign_static_labels(pretrain_baseline(real, cfgs[0]), generated)
        alone, together = alone_and_together(real, data, cfgs, static)
        assert_same_outcomes(alone, together)
        # the cases this covers: a short last batch, and with generated rows
        # dmprl1's random first ranks (its first batch holds generated rows)
        # and dmprl2 behind its closed gate, then behind its open one
        pool = len(real.split("train")) + (len(generated) if with_generated else 0)
        assert pool % cfgs[0].batch_size
        if with_generated:
            first = epoch_shuffle_order(cfgs[0].seed, 1, pool)[:cfgs[0].batch_size]
            assert (first >= len(real.split("train"))).any()
            norms = [r.gen_grad_norm for r in together[-1][1].records]
            warmup = cfgs[-1].warmup_epoch
            assert all(n == 0.0 for n in norms[:warmup - 1])
            assert all(n > 0.0 for n in norms[warmup - 1:])

    @pytest.mark.parametrize("strategy", [Strategy.ALL_IN_ONE, Strategy.BASELINE])
    def test_all_in_one_and_baseline_cohorts(self, real, generated, strategy):
        # two configs of one strategy differ in gen_weight alone
        cfgs = [quick_config(strategy), quick_config(strategy, gen_weight=0.3)]
        assert_same_outcomes(*alone_and_together(real, generated, cfgs))

    def test_members_with_gates_of_their_own(self, real, generated):
        # warmup_epoch is a member's own: each dmprl2 gate opens on its epoch
        cfgs = [quick_config(Strategy.DMPRL2, warmup_epoch=w) for w in (1, 2, 3)]
        assert_same_outcomes(*alone_and_together(real, generated, cfgs))

    @pytest.mark.parametrize("strategies, gen_weights", [
        # dmprl2 behind its closed gate (warm-up epoch 3): the LSRO rows are
        # the only scored ones, until the gate opens
        ((Strategy.LSRO, Strategy.DMPRL2), (1.0, 0.1)),
        ((Strategy.LSRO, Strategy.LSRO), (1.0, 0.3)),
    ], ids=["lsro-dmprl2", "lsro-lsro"])
    def test_broadcast_rows_alone_in_the_stack_at_k_10(self, strategies, gen_weights):
        # at K = 10 a weight row's sum has enough terms to show their order
        real = make_real_dataset(10, 4, 4, cluster_spread=0.4, seed=101)
        generated = make_generated_dataset(real, 12, mix_size=2, noise=0.05, seed=201)
        cfgs = [quick_config(s, gen_weight=w) for s, w in zip(strategies, gen_weights)]
        assert cfgs[-1].warmup_epoch > 1
        assert_same_outcomes(*alone_and_together(real, generated, cfgs))

    def test_a_failing_member_fails_alone(self, real, generated):
        # dmprl1's huge generated-side weight drives its logits non-finite in
        # epoch 2; smprl meets a non-finite static label in the first batch,
        # where the dmprl1 beside it ranks at random (retrained alone, it
        # draws those ranks afresh)
        static = assign_static_labels(pretrain_baseline(real, quick_config(Strategy.SMPRL)),
                                      generated)
        static[0] = np.nan
        cfgs = [quick_config(Strategy.LSRO), quick_config(Strategy.DMPRL1, gen_weight=1e100),
                quick_config(Strategy.ONE_HOT_PSEUDO), quick_config(Strategy.SMPRL),
                quick_config(Strategy.DMPRL1, gen_weight=0.5), quick_config(Strategy.DMPRL2)]
        alone, together = alone_and_together(real, generated, cfgs, static)
        assert [type(r) for r in alone] == [tuple, InvalidDimension, tuple, InvalidDimension,
                                            tuple, tuple]
        assert str(alone[1]) == ("epoch 2, batch 0: training diverged: "
                                 "the model's logits are not finite")
        assert str(alone[3]) == "epoch 1, batch 0: row 7: label weights must be finite"
        assert_same_outcomes(alone, together)

    @pytest.mark.parametrize("case", ["none_fails", "another_fails", "it_fails"])
    def test_an_observer_sees_each_epoch_once(self, real, generated, case):
        # the configs of test_a_failing_member_fails_alone with a finite
        # static label, so the first failure is dmprl1's in epoch 2
        static = assign_static_labels(pretrain_baseline(real, quick_config(Strategy.SMPRL)),
                                      generated)
        failing = quick_config(Strategy.DMPRL1, gen_weight=1e100)
        cfgs = [quick_config(Strategy.LSRO), quick_config(Strategy.ONE_HOT_PSEUDO),
                quick_config(Strategy.SMPRL), quick_config(Strategy.DMPRL1, gen_weight=0.5),
                quick_config(Strategy.DMPRL2)]
        if case != "none_fails":
            cfgs.insert(0 if case == "it_fails" else 1, failing)
        observed = cfgs[0]
        labels = {cfg: static if cfg.strategy is Strategy.SMPRL else None for cfg in cfgs}

        def run(seen, **kwargs):
            def observe(record, params):
                seen.append((record, params.flat.tobytes()))

            if observed is failing:
                with pytest.raises(InvalidDimension, match="^epoch 2, batch 0: "):
                    train(real, generated, observed, on_epoch=observe, **kwargs)
            else:
                train(real, generated, observed, on_epoch=observe, **kwargs)

        alone, together = [], []
        run(alone, static_labels=labels[observed])
        cohort = Cohort()
        for cfg in cfgs:
            cohort.add(cfg, labels[cfg])
        run(together, cohort=cohort)
        assert [record.epoch for record, _ in together] == (
            [1] if case == "it_fails" else list(range(1, observed.epochs + 1)))
        assert together == alone
        if case == "another_fails":
            with pytest.raises(InvalidDimension, match="^epoch 2, batch 0: "):
                train(real, generated, failing, cohort=cohort)

    def test_arguments_the_cohort_would_ignore_are_refused(self, real, generated):
        cfgs = [quick_config(s, epochs=1) for s in (Strategy.SMPRL, Strategy.LSRO)]
        static = assign_static_labels(pretrain_baseline(real, cfgs[0]), generated)
        cohort = Cohort()
        cohort.add(cfgs[0], static)
        cohort.add(cfgs[1])
        with pytest.raises(InvalidConfig, match="smprl config trains in a cohort"):
            train(real, generated, cfgs[0], static_labels=static, cohort=cohort)
        assert cohort.results is None  # nothing trained
        train(real, generated, cfgs[0], cohort=cohort)
        with pytest.raises(InvalidConfig, match="lsro config has trained already"):
            train(real, generated, cfgs[1], on_epoch=lambda record, params: None, cohort=cohort)
        train(real, generated, cfgs[1], cohort=cohort)  # its result is still held
        assert cohort.results == {}

    def test_one_stacked_call_per_batch(self, real, generated, monkeypatch):
        calls = []
        for name in ("forward", "combined_loss", "backward", "sgd_step"):
            original = getattr(trainer_module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append((_name, args[0]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(trainer_module, name, counting)
        cfgs = [quick_config(s, epochs=2) for s in (Strategy.LSRO, Strategy.DMPRL1)]
        cohort = Cohort()
        for cfg in cfgs:
            cohort.add(cfg)
        train(real, generated, cfgs[1], cohort=cohort)
        # 3 batches an epoch, then each member's accuracy pass
        assert len(calls) == 2 * (3 * 4 + 2)
        losses = [x for name, x in calls if name == "combined_loss"]
        assert [len(x) for x in losses] == [16, 16, 4] * 2  # two members' rows, stacked
        assert all(x.shape[1] == real.n_classes for x in losses)
        calls.clear()
        train(real, generated, cfgs[0], cohort=cohort)
        assert calls == []  # trained by the first call

    def test_results_are_handed_out_once(self, real, generated):
        cfgs = [quick_config(s, epochs=1) for s in (Strategy.LSRO, Strategy.DMPRL1)]
        cohort = Cohort()
        for cfg in cfgs:
            cohort.add(cfg)
        train(real, generated, cfgs[0], cohort=cohort)
        assert list(cohort.results) == [cfgs[1]]
        with pytest.raises(InvalidState, match="taken before"):
            train(real, generated, cfgs[0], cohort=cohort)
        with pytest.raises(InvalidState, match="once it has trained"):
            cohort.add(quick_config(Strategy.ONE_HOT_PSEUDO, epochs=1))
        train(real, generated, cfgs[1], cohort=cohort)
        assert cohort.results == {}

    @pytest.mark.parametrize("other", [
        quick_config(Strategy.ALL_IN_ONE), quick_config(Strategy.BASELINE),
        quick_config(Strategy.LSRO, seed=8), quick_config(Strategy.LSRO, epochs=5),
        quick_config(Strategy.LSRO, hidden_sizes=(8, 5)),
    ])
    def test_only_lockstep_configs_join(self, other):
        cohort = Cohort()
        cohort.add(quick_config(Strategy.DMPRL1))
        with pytest.raises(InvalidConfig, match="lockstep"):
            cohort.add(other)
        with pytest.raises(InvalidConfig, match="already"):
            cohort.add(quick_config(Strategy.DMPRL1))

    @pytest.mark.parametrize("name", [f.name for f in fields(TrainSettings)])
    def test_a_member_differs_from_the_others_only_in_its_own_settings(self, name):
        # another value than quick_config's for every setting: a setting
        # added to TrainSettings needs one here, and splits cohorts unless
        # it is declared in trainer.MEMBER_SETTINGS and here
        other = {"epochs": 5, "batch_size": 9, "lr_initial": 0.06, "lr_after_decay": 0.004,
                 "decay_epoch": 2, "momentum": 0.8, "gen_weight": 0.3, "warmup_epoch": 2,
                 "dropout_rate": 0.5, "hidden_sizes": (8, 5), "init_scale": 0.5}[name]
        first = quick_config(Strategy.LSRO)
        assert getattr(first, name) != other
        cohort = Cohort()
        cohort.add(first)
        if name in {"gen_weight", "warmup_epoch"}:
            cohort.add(quick_config(Strategy.LSRO, **{name: other}))
        else:
            with pytest.raises(InvalidConfig, match="lockstep"):
                cohort.add(quick_config(Strategy.LSRO, **{name: other}))

    def test_the_stack_limit_keeps_the_logit_block_in_budget(self):
        # desk members take 4 KiB of logits each, K = 751 members 376 KiB
        desk = quick_config(Strategy.LSRO, batch_size=64)
        assert STACK_BYTES == 256 * 1024
        assert stack_limit(desk, 8) == 64 and stack_limit(desk, 751) == 1
        assert stack_limit(quick_config(Strategy.ALL_IN_ONE, batch_size=64), 151) == 3
        assert stack_limit(quick_config(Strategy.LSRO, batch_size=10_000), 8) == 1
