"""Spec parsing, grid expansion, artifact reproducibility, CLI exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mprl import cli, experiment, labels, trainer
from mprl.cli import main
from mprl.errors import GenerationFailure, SpecError
from mprl.experiment import (
    Cell,
    ExperimentSpec,
    RunFailure,
    expand_cells,
    parse_spec_text,
    run_cell,
    run_experiment,
)
from mprl.trainer import Strategy, TrainConfig, TrainSettings

TINY_SPEC = """\
# desk-size grid for tests
n_classes      = 3
dim            = 4
n_per_class    = 6
cluster_spread = 0.4
mix_size       = 2
noise          = 0.05
strategies     = baseline, lsro
counts         = 0, 6
seeds          = 1, 2
epochs         = 3
batch_size     = 8
lr_initial     = 0.05
lr_after_decay = 0.005
decay_epoch    = 2
momentum       = 0.9
warmup_epoch   = 2
dropout_rate   = 0.2
hidden_sizes   = 8, 6
out_dir        = results
"""

# a legal grid of a baseline cell, then an lsro cell that mixes samples
FAILING_SPEC = (
    "n_classes = 3\ndim = 4\nn_per_class = 6\n"
    "strategies = baseline, lsro\ncounts = 6\nseeds = 1\nepochs = 2\n"
    "warmup_epoch = 1\nhidden_sizes = 6\n"
)


@pytest.fixture()
def tiny_spec():
    return parse_spec_text(TINY_SPEC)


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(TINY_SPEC)
    return path


class TestSpecParsing:
    def test_round_trip_values(self, tiny_spec):
        assert tiny_spec.n_classes == 3
        assert tiny_spec.strategies == (Strategy.BASELINE, Strategy.LSRO)
        assert tiny_spec.counts == (0, 6)
        assert tiny_spec.seeds == (1, 2)
        assert tiny_spec.hidden_sizes == (8, 6)

    def test_unknown_key_carries_line_number(self):
        # trajectories come from a `train(on_epoch=...)` observer, never from a spec key
        # ties always take the average rank and the net is ReLU only: neither is a key
        for line in ("bogus_key = 1", "track_trajectories = 3", "tie_policy = average_rank",
                     "activation = relu"):
            with pytest.raises(SpecError, match="line 2: unknown key"):
                parse_spec_text(f"n_classes = 3\n{line}\n")

    def test_bad_value_carries_line_number(self):
        with pytest.raises(SpecError, match="line 1"):
            parse_spec_text("epochs = soon\n")
        with pytest.raises(SpecError, match="line 1"):
            parse_spec_text("strategies = warp_drive\n")

    @pytest.mark.parametrize("text", [
        "epochs = 3\nnoise = nan\n",
        "epochs = 3\nlr_initial = -inf\n",
        "epochs = 3\ngen_weight = inf\n",
    ])
    def test_non_finite_float_carries_line_number(self, text):
        with pytest.raises(SpecError, match="line 2: .* must be finite"):
            parse_spec_text(text)

    def test_negative_noise_rejected(self):
        with pytest.raises(SpecError, match="noise"):
            parse_spec_text("noise = -0.5\n")

    @pytest.mark.parametrize("text", [
        "n_classes = 3\nmix_size = 4\nstrategies = baseline\ncounts = 6\n",
        "n_classes = 3\nmix_size = 4\nstrategies = lsro, smprl\ncounts = 0\n",
    ])
    def test_mix_size_unchecked_when_nothing_is_mixed(self, text):
        assert parse_spec_text(text).mix_size == 4

    def test_duplicate_key_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            parse_spec_text("epochs = 3\nepochs = 4\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(SpecError, match="line 1"):
            parse_spec_text("just some words\n")

    def test_empty_lists_rejected(self):
        with pytest.raises(SpecError):
            parse_spec_text("seeds = \n")


# a valid value other than the default for every training setting
NON_DEFAULT_SETTINGS = {
    "epochs": ("7", 7),
    "batch_size": ("9", 9),
    "lr_initial": ("0.3", 0.3),
    "lr_after_decay": ("0.03", 0.03),
    "decay_epoch": ("5", 5),
    "momentum": ("0.5", 0.5),
    "gen_weight": ("0.7", 0.7),
    "warmup_epoch": ("3", 3),
    "dropout_rate": ("0.1", 0.1),
    "hidden_sizes": ("5, 4, 3", (5, 4, 3)),
    "init_scale": ("2.5", 2.5),
}


class TestSpecConfigContract:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_default_spec_gives_the_default_config(self, strategy):
        assert ExperimentSpec().train_config(strategy, 1) == TrainConfig(strategy, seed=1)

    @pytest.mark.parametrize("raw", ["none", "AUTO"])
    def test_an_unset_gen_weight_takes_each_strategy_default(self, raw):
        spec = parse_spec_text(f"strategies = dmprl2, lsro\ngen_weight = {raw}\n")
        assert spec.gen_weight is None
        assert spec.train_config(Strategy.DMPRL2, 1).resolved_gen_weight() == 0.1
        assert spec.train_config(Strategy.LSRO, 1).resolved_gen_weight() == 1.0

    def test_every_training_setting_reaches_the_config(self):
        defaults = TrainSettings()
        assert set(NON_DEFAULT_SETTINGS) == {f.name for f in fields(TrainSettings)}
        spec = parse_spec_text("strategies = dmprl2\n" + "".join(
            f"{key} = {text}\n" for key, (text, _) in NON_DEFAULT_SETTINGS.items()))
        cfg = spec.train_config(Strategy.DMPRL2, 4)
        assert (cfg.strategy, cfg.seed) == (Strategy.DMPRL2, 4)
        for key, (_, value) in NON_DEFAULT_SETTINGS.items():
            assert value != getattr(defaults, key), key
            assert getattr(cfg, key) == value, key
            assert type(getattr(cfg, key)) is type(value), key


SPEC_KEYS = [f.name for f in fields(ExperimentSpec)]
HOSTILE_VALUES = st.sampled_from([
    "1e400", "-1e400", "1e-400", "nan", "-inf", "", " ", ",", " , , ", "0", "-0", "-1",
    "\u0663", "\uff13", "\u0663.5", "1_000", "0x10", "None", "auto", "baseline,,lsro",
    "2, nan", "\x00", "9" * 5000, "#", "= =", "1e400, 2",
])
SPEC_VALUES = st.one_of(
    HOSTILE_VALUES,
    st.text(max_size=12),
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.lists(st.one_of(HOSTILE_VALUES, st.integers(-3, 9).map(str)), max_size=4).map(",".join),
)
SPEC_LINES = st.one_of(
    st.builds("{} = {}".format, st.one_of(st.sampled_from(SPEC_KEYS), st.text(max_size=8)),
              SPEC_VALUES),
    st.text(max_size=30),
)


def tiny_spec_with(index, value):
    """TINY_SPEC with the value of its ``index``-th setting replaced."""
    lines = [row for row in TINY_SPEC.splitlines() if "=" in row]
    index %= len(lines)
    lines[index] = f"{lines[index].split('=')[0]}= {value}"
    return "\n".join(lines)


@given(st.one_of(st.lists(SPEC_LINES, max_size=8).map("\n".join),
                 st.builds(tiny_spec_with, st.integers(0, 100), SPEC_VALUES)))
@settings(max_examples=250, deadline=None)
def test_spec_parser_raises_nothing_but_spec_errors(text):
    # any other exception would reach the CLI user as a traceback
    try:
        parse_spec_text(text)
    except SpecError:
        pass


class TestGridExpansion:
    def test_documented_expansion_rule(self):
        # {baseline, lsro, dmprl2} x counts {0, 200, 400} x 3 seeds:
        # baseline collapses over counts -> 3 + 2 * 3 * 3 = 21 cells
        spec = parse_spec_text(
            "strategies = baseline, lsro, dmprl2\n"
            "counts = 0, 200, 400\n"
            "seeds = 1, 2, 3\n"
        )
        cells = expand_cells(spec)
        expected = len([s for s in spec.strategies if s is Strategy.BASELINE]) * len(spec.seeds)
        expected += (
            len([s for s in spec.strategies if s is not Strategy.BASELINE])
            * len(spec.counts) * len(spec.seeds)
        )
        assert len(cells) == expected == 21
        baseline_cells = [c for c in cells if c.strategy is Strategy.BASELINE]
        assert all(c.n_generated == 0 for c in baseline_cells)
        assert len(baseline_cells) == 3

    def test_single_cell(self):
        spec = parse_spec_text("strategies = baseline\ncounts = 5\nseeds = 9\n")
        cells = expand_cells(spec)
        assert cells == [Cell(Strategy.BASELINE, 0, 9)]


    def test_cells_run_seed_major(self):
        spec = parse_spec_text("strategies = lsro, baseline\ncounts = 0, 5\nseeds = 2, 1\n")
        assert [c.name for c in expand_cells(spec)] == [
            "lsro_n0_seed2", "lsro_n5_seed2", "baseline_n0_seed2",
            "lsro_n0_seed1", "lsro_n5_seed1", "baseline_n0_seed1",
        ]


class TestRunMemo:
    """One run builds each dataset once and trains each seed's baseline once."""

    SPEC = TINY_SPEC.replace("baseline, lsro", "baseline, lsro, smprl")

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(experiment, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, name, counting)
        return calls

    def test_each_dataset_is_built_once_per_run(self, tmp_path, monkeypatch):
        real = self.count_calls(monkeypatch, "make_real_dataset")
        generated = self.count_calls(monkeypatch, "make_generated_dataset")
        pretrained = self.count_calls(monkeypatch, "pretrain_baseline")
        spec = parse_spec_text(self.SPEC)
        run_experiment(spec, out_dir=tmp_path)
        # 2 seeds x (baseline + lsro and smprl at counts 0 and 6) = 10 cells
        assert len(expand_cells(spec)) == 10
        assert len(real) == len(spec.seeds) == 2
        assert len(generated) == 2  # one per (seed, count > 0)
        assert [args[1] for args in generated] == [6, 6]
        # the smprl cells label with their seed's baseline cell's model
        assert pretrained == []

    def test_consecutive_runs_each_build_their_own(self, tmp_path, monkeypatch):
        real = self.count_calls(monkeypatch, "make_real_dataset")
        spec = parse_spec_text(self.SPEC)
        run_experiment(spec, out_dir=tmp_path / "a")
        run_experiment(spec, out_dir=tmp_path / "b")
        assert len(real) == 2 * len(spec.seeds)
        for artifact in ("report.json", "history.csv"):
            for cell in expand_cells(spec):
                assert (tmp_path / "a" / cell.name / artifact).read_bytes() == \
                    (tmp_path / "b" / cell.name / artifact).read_bytes()

    def test_cached_arrays_are_read_only(self, tmp_path, monkeypatch):
        seen = []
        original = experiment.train

        def capturing(real, generated, cfg, **kwargs):
            seen.append((real, generated, kwargs.get("static_labels")))
            return original(real, generated, cfg, **kwargs)

        monkeypatch.setattr(experiment, "train", capturing)
        run_experiment(parse_spec_text(self.SPEC), out_dir=tmp_path)
        for real, generated, _ in seen:
            for data in (real, generated):
                if data is None:
                    continue
                arrays = [data.ids, data.features, data.classes, data.splits]
                if data.source_ids is not None:
                    arrays += [data.source_ids, data.source_classes, data.source_weights]
                assert not any(a.flags.writeable for a in arrays)
            with pytest.raises(ValueError):
                real.features[0, 0] = 0.0
        assert any(generated is not None for _, generated, _ in seen)

    def test_the_baseline_model_is_read_only_through_every_handle(self, tmp_path,
                                                                 monkeypatch):
        # views of a read-only flat vector could still be written: all are frozen
        baselines = []
        original = experiment.assign_static_labels

        def capturing(pretrained, generated):
            baselines.append(pretrained)
            return original(pretrained, generated)

        monkeypatch.setattr(experiment, "assign_static_labels", capturing)
        run_experiment(parse_spec_text(self.SPEC), out_dir=tmp_path)
        assert baselines
        for params in baselines:
            for handle in (params.flat, *params.weights, *params.biases):
                with pytest.raises(ValueError):
                    handle[0] = 0.0

    def test_smprl_before_baseline_pretrains_once_per_seed(self, tmp_path, monkeypatch):
        # the pretrained model and the baseline cell's are the same bits
        run_experiment(parse_spec_text(self.SPEC.replace("counts         = 0, 6",
                                                         "counts         = 6, 9")),
                       out_dir=tmp_path / "baseline_first")
        pretrained = self.count_calls(monkeypatch, "pretrain_baseline")
        spec = parse_spec_text(self.SPEC.replace("baseline, lsro, smprl", "smprl, baseline")
                               .replace("counts         = 0, 6", "counts         = 6, 9"))
        run_experiment(spec, out_dir=tmp_path / "smprl_first")
        assert len(pretrained) == len(spec.seeds)
        for cell in expand_cells(spec):
            for artifact in ("report.json", "history.csv"):
                assert (tmp_path / "smprl_first" / cell.name / artifact).read_bytes() == \
                    (tmp_path / "baseline_first" / cell.name / artifact).read_bytes()

    @staticmethod
    def count_draws(monkeypatch):
        draws = []
        original = trainer.draw_keep_mask

        def counting(seed, epoch, batch_idx, shape, rate):
            draws.append((seed, epoch, batch_idx, shape[0]))
            return original(seed, epoch, batch_idx, shape, rate)

        monkeypatch.setattr(trainer, "draw_keep_mask", counting)
        return draws

    @pytest.mark.parametrize("strategies", ["baseline, lsro, smprl", "smprl, lsro, baseline"])
    def test_each_dropout_mask_is_drawn_once_per_run(self, tmp_path, monkeypatch, strategies):
        draws = self.count_draws(monkeypatch)
        batches = []
        original = trainer.forward

        def counting(params, features, dropout_mask=None):
            if dropout_mask is not None:  # a training batch
                batches.append(len(features))
            return original(params, features, dropout_mask)

        monkeypatch.setattr(trainer, "forward", counting)
        spec = parse_spec_text(self.SPEC.replace("baseline, lsro, smprl", strategies))
        run_experiment(spec, out_dir=tmp_path)
        # a pool of real rows only (baseline, pretraining, count 0) and one
        # with 6 generated rows: each (seed, epoch, batch, rows) is drawn
        # once, and a first batch of 8 rows is the same mask in both pools
        real_train = spec.n_classes * (spec.n_per_class // 2)
        size = spec.batch_size
        expected = {(seed, epoch, b, min(size, n - b * size))
                    for seed in spec.seeds for epoch in range(1, spec.epochs + 1)
                    for n in (real_train, real_train + 6) for b in range(math.ceil(n / size))}
        assert sorted(draws) == sorted(expected)
        assert len(draws) < len(batches)

    def test_each_epoch_order_is_drawn_once_per_cohort(self, tmp_path, monkeypatch):
        draws = []
        original = trainer.epoch_shuffle_order

        def counting(seed, epoch, n):
            draws.append((seed, epoch, n))
            return original(seed, epoch, n)

        monkeypatch.setattr(trainer, "epoch_shuffle_order", counting)
        spec = parse_spec_text(self.SPEC)
        run_experiment(spec, out_dir=tmp_path)
        # per seed three cohorts: the baseline, then lsro and smprl at count
        # 0 (the real rows alone), then lsro and smprl at count 6 (6
        # generated rows more); each draws its epochs once for all members
        real_train = spec.n_classes * (spec.n_per_class // 2)
        expected = [(seed, epoch, n) for seed in spec.seeds for n in
                    (real_train, real_train, real_train + 6)
                    for epoch in range(1, spec.epochs + 1)]
        assert draws == expected

    def test_masks_are_read_only_and_dropped_with_their_seed(self, tmp_path, monkeypatch):
        stores = []
        original = experiment.train

        def capturing(real, generated, cfg, **kwargs):
            stores.append((cfg.seed, kwargs["draws"]))
            return original(real, generated, cfg, **kwargs)

        monkeypatch.setattr(experiment, "train", capturing)
        spec = parse_spec_text(self.SPEC)
        run_experiment(spec, out_dir=tmp_path)
        by_seed = {seed: {id(store) for s, store in stores if s == seed} for seed in spec.seeds}
        assert all(len(ids) == 1 for ids in by_seed.values())
        assert len(set.union(*by_seed.values())) == len(spec.seeds)
        for _, store in stores:
            assert store.packed
            assert not any(bits.flags.writeable for bits in store.packed.values())

        memo = experiment.RunMemo()
        first = memo.at(spec, 1).draws
        first.keep(1, 1, 0, (8, 6), spec.dropout_rate)
        assert memo.at(spec, 1).draws is first and len(first.packed) == 1
        assert memo.at(spec, 2).draws.packed == {}
        assert memo.draws is not first


class TestCohorts:
    """A seed's cells that share a pool and a head width train as one cohort."""

    @staticmethod
    def record_cohorts(monkeypatch):
        cohorts = []
        original = trainer._train_cohort

        def recording(real, generated, members, *args):
            cohorts.append([cfg.strategy.value for cfg in members])
            return original(real, generated, members, *args)

        monkeypatch.setattr(trainer, "_train_cohort", recording)
        return cohorts

    @pytest.mark.parametrize("n_classes, expected", [
        # the desk grid: the five lockstep strategies train together
        (8, [["baseline"], ["all_in_one"],
             ["one_hot_pseudo", "lsro", "smprl", "dmprl1", "dmprl2"]]),
        # 64 x 151 x 8 bytes of logits a member: three fit the stack budget
        (151, [["baseline"], ["all_in_one"], ["one_hot_pseudo", "lsro", "smprl"],
               ["dmprl1", "dmprl2"]]),
    ])
    def test_cohorts_of_a_grid(self, tmp_path, monkeypatch, n_classes, expected):
        cohorts = self.record_cohorts(monkeypatch)
        spec = parse_spec_text(
            f"n_classes = {n_classes}\ndim = 4\nn_per_class = 4\n"
            "strategies = baseline, all_in_one, one_hot_pseudo, lsro, smprl, dmprl1, dmprl2\n"
            "counts = 6\nseeds = 1\nepochs = 2\nwarmup_epoch = 1\nhidden_sizes = 6\n")
        run_experiment(spec, out_dir=tmp_path)
        assert cohorts == expected

    def test_count_and_head_width_split_cohorts(self, tmp_path, monkeypatch):
        cohorts = self.record_cohorts(monkeypatch)
        spec = parse_spec_text(TINY_SPEC.replace("baseline, lsro", "lsro, smprl, baseline"))
        run_experiment(spec, out_dir=tmp_path)
        # per seed: each count's cohort; smprl's generated rows are labelled
        # before the baseline cell runs, so one baseline is pretrained
        assert cohorts == [["lsro", "smprl"], ["baseline"], ["lsro", "smprl"],
                           ["baseline"]] * 2

    @pytest.mark.parametrize("strategies, expected, pretrainings", [
        # as alone: smprl comes before the baseline cell, so it pretrains
        ("lsro, smprl, baseline", [["baseline"], ["lsro", "smprl"], ["baseline"]], 1),
        # smprl waits for the baseline cell's model rather than pretraining
        ("lsro, baseline, smprl, dmprl1", [["lsro", "dmprl1"], ["baseline"], ["smprl"]], 0),
    ])
    def test_smprl_pretrains_only_where_it_would_alone(self, tmp_path, monkeypatch, strategies,
                                                       expected, pretrainings):
        cohorts = self.record_cohorts(monkeypatch)
        pretrained = TestRunMemo.count_calls(monkeypatch, "pretrain_baseline")
        spec = parse_spec_text(TINY_SPEC.replace("baseline, lsro", strategies)
                               .replace("0, 6", "6").replace("1, 2", "1"))
        run_experiment(spec, out_dir=tmp_path)
        assert cohorts == expected
        assert len(pretrained) == pretrainings

    def test_a_failing_member_fails_its_own_cell(self, tmp_path, monkeypatch):
        # lsro's label row turns non-finite once a batch of epoch 2 has drawn
        # its dropout mask: the second member of the one_hot_pseudo, lsro,
        # dmprl1 cohort fails in epoch 2 while the others train on
        drawn = [0]
        original_label, original_keep = labels.lsro_label, trainer.SeedDraws.keep

        def lsro_label(n_classes):
            row = original_label(n_classes)
            return row * float("nan") if drawn[0] == 2 else row

        def keep(self, seed, epoch, batch_idx, shape, rate):
            drawn[0] = epoch
            return original_keep(self, seed, epoch, batch_idx, shape, rate)

        monkeypatch.setattr(labels, "lsro_label", lsro_label)
        monkeypatch.setattr(trainer.SeedDraws, "keep", keep)
        spec = parse_spec_text(
            "n_classes = 3\ndim = 4\nn_per_class = 6\ncluster_spread = 0.4\n"
            "strategies = baseline, one_hot_pseudo, lsro, dmprl1\ncounts = 6\nseeds = 1\n"
            "epochs = 3\nbatch_size = 8\nwarmup_epoch = 1\nhidden_sizes = 8, 6\n"
            "dropout_rate = 0.2\n")
        with pytest.raises(RunFailure) as failure:
            run_experiment(spec, out_dir=tmp_path)
        # what the same grid wrote when every cell trained alone
        assert str(failure.value) == ("cell lsro_n6_seed1 failed: epoch 2, batch 0: "
                                      "row 2: label weights must be finite")
        assert json.loads((tmp_path / "failure_manifest.json").read_text()) == {
            "failed_cell": "lsro_n6_seed1",
            "error": "InvalidDimension: epoch 2, batch 0: row 2: label weights must be finite",
            "completed": ["baseline_n0_seed1", "one_hot_pseudo_n6_seed1"],
        }
        got = {str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.glob("*/*"))}
        assert got == {
            "baseline_n0_seed1/history.csv":
                "0061c5e15c5d28ba83a36a851327230685a258f3e864e46c1189da1b7819cf0f",
            "baseline_n0_seed1/report.json":
                "2f3adcbb81e58c0b964226aa43d1aba61dfe315689a2716eafde3e16342f3bc1",
            "one_hot_pseudo_n6_seed1/history.csv":
                "95482e4d836b2faaf10c3234f5bd30ae336b6b202ac902e4ee438fd0935c721a",
            "one_hot_pseudo_n6_seed1/report.json":
                "2f3adcbb81e58c0b964226aa43d1aba61dfe315689a2716eafde3e16342f3bc1",
        }
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert [row.rsplit(",", 1)[0] for row in summary[1:]] == [
            "baseline,0,1,1.000000,1.000000,1.00125,0",
            "one_hot_pseudo,6,1,1.000000,1.000000,0.771347,0.562012",
        ]

    @staticmethod
    def log_calls(monkeypatch, owner, name, log):
        """Append a line to ``log`` at each call, from any worker process."""
        original = getattr(owner, name)

        def logging(*args, **kwargs):
            with open(log, "a") as out:
                out.write(f"{name}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, logging)

    @pytest.mark.parametrize("seeds", ["1, 2", "1, 2, 3"])
    def test_jobs_train_each_seed_once(self, tmp_path, monkeypatch, seeds):
        # forked workers inherit the patches and append to one file
        log = tmp_path / "calls.log"
        for owner, name in [(experiment, "make_real_dataset"),
                            (experiment, "make_generated_dataset"),
                            (trainer, "_train_cohort")]:
            self.log_calls(monkeypatch, owner, name, log)
        spec = parse_spec_text(TINY_SPEC.replace("baseline, lsro", "baseline, lsro, smprl, dmprl1")
                               .replace("0, 6", "6").replace("1, 2", seeds))
        run_experiment(spec, out_dir=tmp_path / "out", jobs=2)
        calls = Counter(log.read_text().split())
        # per seed: one real and one generated dataset, the baseline cell
        # and the lsro, smprl, dmprl1 cohort
        n = len(spec.seeds)
        assert calls == {"make_real_dataset": n, "make_generated_dataset": n,
                         "_train_cohort": 2 * n}

    @pytest.mark.parametrize("seeds, jobs, chunk", [("1, 2", 2, 4), ("1, 2, 3", 2, 4),
                                                    ("1", 2, 1), ("1, 2", 3, 1)])
    def test_chunks_are_whole_seeds_when_seeds_cover_the_workers(self, tmp_path, monkeypatch,
                                                                 seeds, jobs, chunk):
        chunks = []

        class StandInPool:
            def __init__(self, workers):
                experiment._start_worker_memo()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize=1):
                chunks.append(chunksize)
                return map(fn, args)

        monkeypatch.setattr(experiment, "_worker_pool", StandInPool)
        monkeypatch.setattr(experiment, "_worker_memo", None)
        spec = parse_spec_text(TINY_SPEC.replace("baseline, lsro", "baseline, lsro, smprl, dmprl1")
                               .replace("0, 6", "6").replace("1, 2", seeds))
        run_experiment(spec, out_dir=tmp_path, jobs=jobs)
        assert chunks == [chunk]


class TestRunExperiment:
    def test_artifacts_and_summary(self, tiny_spec, tmp_path):
        out = tmp_path / "out"
        results = run_experiment(tiny_spec, out_dir=out)
        assert len(results) == 2 + 4  # baseline per seed + lsro counts x seeds
        for cell_result in results:
            cell_dir = out / cell_result.cell.name
            assert (cell_dir / "history.csv").exists()
            assert (cell_dir / "report.json").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "strategy,n_generated,seed,rank1,mAP,l1_final,l2_final,wall_seconds"
        data_rows = [r for r in summary[1:] if ",mean," not in r]
        mean_rows = [r for r in summary[1:] if ",mean," in r]
        assert len(data_rows) == 6
        assert len(mean_rows) == 3  # one per (strategy, count) group

    def test_cell_rerun_is_byte_identical(self, tiny_spec, tmp_path):
        cell = Cell(Strategy.LSRO, 6, 1)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cell(tiny_spec, cell, out_a, experiment.RunMemo())
        run_cell(tiny_spec, cell, out_b, experiment.RunMemo())
        name = cell.name
        assert (out_a / name / "history.csv").read_bytes() == \
            (out_b / name / "history.csv").read_bytes()
        assert (out_a / name / "report.json").read_bytes() == \
            (out_b / name / "report.json").read_bytes()

    def test_baseline_only_single_seed_summary(self, tmp_path):
        spec = parse_spec_text(
            "n_classes = 3\ndim = 4\nn_per_class = 6\nstrategies = baseline\n"
            "counts = 0\nseeds = 5\nepochs = 2\nbatch_size = 8\n"
            "hidden_sizes = 6\ndropout_rate = 0.1\nwarmup_epoch = 1\n"
        )
        out = tmp_path / "solo"
        results = run_experiment(spec, out_dir=out)
        assert len(results) == 1
        assert (out / "baseline_n0_seed5" / "report.json").exists()
        rows = (out / "summary.csv").read_text().splitlines()
        assert len(rows) == 2  # header + one data row, no mean row for one seed

    @pytest.mark.parametrize("jobs, strategies, workers", [
        (5, "baseline, lsro", [2]),  # two cells: two workers, not five
        (3, "baseline", []),  # one cell runs in this process
        (2, "baseline, lsro, dmprl1", [2]),
    ])
    def test_jobs_never_start_more_workers_than_cells(self, tmp_path, monkeypatch, jobs,
                                                      strategies, workers):
        started = []

        class StandInPool:
            """Records its worker count and runs the jobs here, in order."""

            def __init__(self, workers):
                started.append(workers)
                experiment._start_worker_memo()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize=1):
                return map(fn, args)

        monkeypatch.setattr(experiment, "_worker_pool", StandInPool)
        monkeypatch.setattr(experiment, "_worker_memo", None)
        spec = parse_spec_text(
            f"n_classes = 3\ndim = 4\nn_per_class = 6\nstrategies = {strategies}\n"
            "counts = 6\nseeds = 1\nepochs = 1\nwarmup_epoch = 0\nhidden_sizes = 6\n"
        )
        results = run_experiment(spec, out_dir=tmp_path, jobs=jobs)
        assert [r.cell for r in results] == expand_cells(spec)
        assert started == workers

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mid_run_failure_leaves_manifest(self, tmp_path, monkeypatch, jobs):
        spec = parse_spec_text(FAILING_SPEC)

        def fail(*args, **kwargs):
            raise GenerationFailure("no mixture found")

        # a legal spec whose data generation fails inside the lsro cell;
        # forked workers inherit the patch
        monkeypatch.setattr(experiment, "make_generated_dataset", fail)
        out = tmp_path / "out"
        with pytest.raises(RunFailure):
            run_experiment(spec, out_dir=out, jobs=jobs)
        assert (out / "failure_manifest.json").exists()
        assert "lsro_n6_seed1" in (out / "failure_manifest.json").read_text()
        # the baseline cell completed before it
        assert (out / "summary.csv").exists()


class TestBlasThreads:
    @pytest.fixture()
    def blas(self):
        """numpy's BLAS thread calls with the count set to 2, then restored."""
        calls = experiment._blas_threads()
        if calls is None:
            pytest.skip("numpy's BLAS exports no known thread call")
        get, put = calls
        before = get()
        put(2)
        yield get
        put(before)

    def test_importing_the_cli_loads_no_process_pool(self):
        src = Path(experiment.__file__).resolve().parents[1]
        probe = ("import sys, mprl.cli; print(sorted({'multiprocessing', "
                 "'concurrent.futures.process'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cells_train_under_one_thread(self, tmp_path, monkeypatch, blas, tiny_spec, jobs):
        # forked workers inherit the patch and append to one file
        log = tmp_path / "threads.log"
        original = experiment.train

        def counting(*args, **kwargs):
            with open(log, "a") as out:
                out.write(f"{blas()}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "train", counting)
        run_experiment(tiny_spec, out_dir=tmp_path / "out", jobs=jobs)
        assert Counter(log.read_text().split()) == {"1": len(expand_cells(tiny_spec))}
        assert blas() == 2

    def test_worker_initializer_sets_one_thread(self, monkeypatch, blas):
        monkeypatch.setattr(experiment, "_worker_memo", None)
        experiment._start_worker_memo()
        assert blas() == 1
        assert isinstance(experiment._worker_memo, experiment.RunMemo)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_caller_count_is_back_after_a_failed_run(self, tmp_path, monkeypatch, blas, jobs):
        def fail(*args, **kwargs):
            raise GenerationFailure("no mixture found")

        monkeypatch.setattr(experiment, "make_generated_dataset", fail)
        with pytest.raises(RunFailure):
            run_experiment(parse_spec_text(FAILING_SPEC), out_dir=tmp_path, jobs=jobs)
        assert blas() == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_missing_thread_call_changes_no_artifact(self, tmp_path, monkeypatch, tiny_spec,
                                                       jobs):
        run_experiment(tiny_spec, out_dir=tmp_path / "pinned")
        monkeypatch.setattr(experiment, "_blas_threads", lambda: None)
        run_experiment(tiny_spec, out_dir=tmp_path / "unpinned", jobs=jobs)
        for cell in expand_cells(tiny_spec):
            for artifact in ("history.csv", "report.json"):
                assert (tmp_path / "unpinned" / cell.name / artifact).read_bytes() == \
                    (tmp_path / "pinned" / cell.name / artifact).read_bytes()


class TestSmprlWithoutGeneratedData:
    def test_count_zero_report_matches_baseline(self, tmp_path):
        # no generated rows: smprl trains exactly what the baseline trains
        spec = parse_spec_text(TINY_SPEC.replace("baseline, lsro", "baseline, smprl")
                               .replace("0, 6", "0"))
        run_experiment(spec, out_dir=tmp_path)
        for seed in spec.seeds:
            for artifact in ("report.json", "history.csv"):
                assert (tmp_path / f"smprl_n0_seed{seed}" / artifact).read_bytes() == \
                    (tmp_path / f"baseline_n0_seed{seed}" / artifact).read_bytes()


# spec values every command that reads a spec rejects before any work
REJECTED_SPEC_LINES = [
    "noise          = nan",
    "noise          = -1",
    "lr_initial     = nan",
    "cluster_spread = inf",
    # dataset parameters the generator refuses: rejected before any cell
    "mix_size       = 5",  # above n_classes = 3
    "mix_size       = 1",
    "cluster_spread = -1",
    "n_classes      = 1",
    "n_per_class    = 3",
    "dim            = 1",
    # values the first cell would fail on
    "seeds          = -1",
    "hidden_sizes   = 8, 0",
    "init_scale     = -1",
    # repeated grid values would train one cell twice into one directory
    "seeds          = 1, 1",
    "counts         = 6, 6",
    "strategies     = lsro, lsro",
    # schedule and weight values that trained silently or failed in a cell
    "decay_epoch    = -1",
    "warmup_epoch   = -4",
    "strategies     = dmprl2\nwarmup_epoch   = -4",
    "gen_weight     = -1",
    "strategies     = baseline\ngen_weight     = -1",
    # a key the spec format no longer has
    "gradient_mode  = diagonal",
]


def malformed(text, line, message):
    """A malformed embedding file, the line its error names (None for the
    whole file) and the rest of the message, with the id ``text-line``."""
    return pytest.param(text, line, message, id=f"{text}-{line}")


class TestCli:
    def test_run_and_determinism(self, spec_file, tmp_path, capsys):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["run", "--spec", str(spec_file), "--out", str(out1)]) == 0
        assert main(["run", "--spec", str(spec_file), "--out", str(out2)]) == 0
        for cell in ("baseline_n0_seed1", "lsro_n6_seed2"):
            assert (out1 / cell / "history.csv").read_bytes() == \
                (out2 / cell / "history.csv").read_bytes()
            assert (out1 / cell / "report.json").read_bytes() == \
                (out2 / cell / "report.json").read_bytes()

    def test_bad_spec_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("strategies = baseline\nnot a key value line\n")
        assert main(["run", "--spec", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_diverging_run_prints_one_error_line(self, tmp_path, capsys):
        spec = tmp_path / "diverge.txt"
        spec.write_text("n_classes = 3\nepochs = 1\nhidden_sizes = 4\nstrategies = dmprl1\n"
                        "counts = 3\nlr_initial = 1e300\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cell dmprl1_n3_seed0 failed: epoch 1, batch ")
        assert err.endswith(": training diverged: the model's logits are not finite\n")
        manifest = json.loads((out / "failure_manifest.json").read_text())
        assert manifest["failed_cell"] == "dmprl1_n3_seed0"
        assert manifest["completed"] == []

    def test_overflowed_distances_fail_the_cell(self, tmp_path, capsys):
        # finite weights of scale 1e90 and a step too small to move them:
        # training runs, and the embeddings' squared distances exceed float64
        spec = tmp_path / "overflow.txt"
        spec.write_text("n_classes = 3\ndim = 4\nn_per_class = 6\nstrategies = baseline\n"
                        "counts = 0\nseeds = 1\nepochs = 1\nhidden_sizes = 4, 4\n"
                        "init_scale = 1e90\nlr_initial = 1e-300\nlr_after_decay = 1e-300\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: cell baseline_n0_seed1 failed: ") and "finite" in err[0]
        manifest = json.loads((out / "failure_manifest.json").read_text())
        assert manifest["failed_cell"] == "baseline_n0_seed1"

    def test_very_confident_model_runs(self, tmp_path, capsys):
        # a large init_scale starts every cell from logits whose softmax
        # underflows to exact zeros (tests/test_trainer.py, TestExtremeLogits)
        spec = tmp_path / "confident.txt"
        spec.write_text(TINY_SPEC.replace("strategies     = baseline, lsro",
                                          "strategies     = one_hot_pseudo, smprl, dmprl1, dmprl2")
                        .replace("counts         = 0, 6", "counts         = 6")
                        .replace("seeds          = 1, 2", "seeds          = 1")
                        + "init_scale     = 30\n")
        out = tmp_path / "out"
        assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len((out / "summary.csv").read_text().splitlines()) == 1 + 4

    def test_an_overflowing_embedding_pass_prints_no_warning(self, tmp_path, capsys):
        # at this step the trained models' hidden products overflow when the
        # test split is embedded; ReLU clips the -inf, so every distance is
        # finite and the cells complete
        spec = tmp_path / "overflow.txt"
        spec.write_text(TINY_SPEC.replace("baseline, lsro", "lsro, dmprl1")
                        .replace("0, 6", "6").replace("1, 2", "1")
                        .replace("lr_initial     = 0.05", "lr_initial     = 1e30"))
        assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    @pytest.mark.parametrize("value", ["diagonal", "analytic"])
    def test_the_retired_gradient_mode_key_is_refused(self, tmp_path, capsys, command, value):
        spec = tmp_path / "spec.txt"
        spec.write_text(TINY_SPEC + f"gradient_mode  = {value}\n")
        line = len(TINY_SPEC.splitlines()) + 1
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: line {line}: unknown key 'gradient_mode'\n"
        assert not (tmp_path / "out").exists()

    def test_a_batch_size_no_array_can_hold_runs(self, tmp_path, capsys):
        # the spec accepts any batch_size up to 2**63 - 1; every strategy then
        # trains one batch per epoch, and no array is sized by batch_size
        spec = tmp_path / "wide.txt"
        spec.write_text(TINY_SPEC.replace("baseline, lsro", ", ".join(s.value for s in Strategy))
                        .replace("= 0, 6", "= 6").replace("= 1, 2", "= 1")
                        .replace("batch_size     = 8", "batch_size     = 9223372036854775807"))
        out = tmp_path / "out"
        assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len((out / "summary.csv").read_text().splitlines()) == 1 + len(Strategy)

    @pytest.mark.parametrize("command", ["run", "gen-data", "gradcheck"])
    def test_an_array_too_large_for_memory_exits_two(self, tmp_path, capsys, command):
        # numpy refuses these sizes (petabytes) before it allocates anything
        spec = tmp_path / "huge.txt"
        spec.write_text("n_classes = 3\ndim = 4\nn_per_class = 1000000000000000\n"
                        "strategies = baseline\ncounts = 0\nseeds = 1\n")
        argv = {"run": ["run", "--spec", str(spec), "--out", str(tmp_path / "out")],
                "gen-data": ["gen-data", "--spec", str(spec), "--out", str(tmp_path / "data")],
                "gradcheck": ["gradcheck", "--k", "1000000000000000", "--trials", "1"]}
        assert main(argv[command]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "allocate" in err[0]

    @pytest.mark.parametrize("argv", [["gen-data", "counts"], ["gen-data", "n_per_class"],
                                      ["gen-data", "dim"], ["run", "dim"],
                                      ["gradcheck", "--k", str(10**23), "--trials", "1"]],
                             ids=["gen-data-counts", "gen-data-n_per_class", "gen-data-dim",
                                  "run-dim", "gradcheck-k"])
    def test_a_size_numpy_refuses_exits_two(self, tmp_path, capsys, argv):
        # 10**30 and 10**23 lie beyond numpy's index range (2**63): numpy
        # refuses them with a ValueError before it allocates anything
        sizes = {"counts": 6, "n_per_class": 10, "dim": 4}
        if argv[0] != "gradcheck":
            sizes[argv[1]] = 10**30
            spec = tmp_path / "huge.txt"
            spec.write_text(f"n_classes = 3\ndim = {sizes['dim']}\n"
                            f"n_per_class = {sizes['n_per_class']}\nstrategies = lsro\n"
                            f"counts = {sizes['counts']}\nseeds = 1\n")
            argv = [argv[0], "--spec", str(spec), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "Maximum allowed dimension exceeded" in err[0]
        if argv[0] == "gen-data":
            assert not (tmp_path / "out").exists()

    def test_any_other_value_error_keeps_its_traceback(self, monkeypatch):
        def broken(**kwargs):
            raise ValueError("a bug, not a size")

        monkeypatch.setattr(cli, "run_gradcheck", broken)
        with pytest.raises(ValueError, match="a bug, not a size"):
            main(["gradcheck", "--k", "2", "--trials", "1"])

    def test_gen_data_that_cannot_be_generated_leaves_no_directory(self, tmp_path, capsys):
        spec = tmp_path / "huge.txt"
        spec.write_text("n_classes = 3\ndim = 4\nn_per_class = 1000000000000000\n"
                        "strategies = baseline\ncounts = 0, 6\nseeds = 1\n")
        out = tmp_path / "data" / "seed1"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 2
        assert "allocate" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_a_memory_error_without_a_message_is_named(self, capsys, monkeypatch):
        def no_memory(**kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_gradcheck", no_memory)
        assert main(["gradcheck", "--k", "2", "--trials", "1"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_missing_spec_exits_one(self, tmp_path, capsys):
        assert main(["run", "--spec", str(tmp_path / "nope.txt")]) == 1

    def test_gradcheck_exit_codes(self, capsys):
        assert main(["gradcheck", "--k", "2,5", "--trials", "3", "--tolerance", "1e-1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "gradcheck passed" in out
        # an absurd tolerance cannot be met: check failure exit code
        assert main(["gradcheck", "--k", "2", "--trials", "2", "--tolerance", "1e-18"]) == 3

    def test_gen_data_and_eval_round_trip(self, spec_file, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(data_dir)]) == 0
        assert (data_dir / "real_seed1.txt").exists()
        assert (data_dir / "generated_n6_seed1.txt").exists()

        # standalone eval: embeddings straight from a trained cell
        from mprl.experiment import RunMemo, build_datasets, parse_spec
        from mprl.retrieval import save_embeddings
        from mprl.trainer import extract_embeddings, train

        spec = parse_spec(spec_file)
        real, generated = build_datasets(spec, 1, 6, RunMemo())
        params, _ = train(real, generated, spec.train_config(Strategy.LSRO, 1))
        q_path, g_path = tmp_path / "q.txt", tmp_path / "g.txt"
        save_embeddings(extract_embeddings(params, real, "query"), q_path)
        save_embeddings(extract_embeddings(params, real, "gallery"), g_path)
        report_path = tmp_path / "report.json"
        assert main(["eval", "--query", str(q_path), "--gallery", str(g_path),
                     "--out", str(report_path)]) == 0
        text = report_path.read_text()
        assert '"rank1":' in text and '"mAP":' in text

    @pytest.mark.parametrize("text, line, message", [
        malformed("2 three\n1 1 0.5 0.5 0.5\n2 1 0.5 0.5 0.5\n", 1,
                  "header must be 'n dim', got '2 three'"),  # bad header field
        malformed("2 3\n1 1 0.5 0.5 0.5\n\n2 1 0.5 oops 0.5\n", 4,
                  "could not convert string to float: 'oops'"),  # bad feature field
        malformed("2 3\n1 x 0.5 0.5 0.5\n2 1 0.5 0.5 0.5\n", 2,
                  "invalid literal for int() with base 10: 'x'"),  # bad label field
        malformed("1 -1\n7 1\n", 1,
                  "header needs n >= 1 and dim >= 1, got 1 and -1"),  # impossible dimension
        malformed("1 3 9\n7 1 0.5 0.5 0.5\n", 1,
                  "header must be 'n dim', got '1 3 9'"),  # extra header field
        malformed("2 3\n1 1 0.5 0.5 0.5\n2 1 0.5 nan 0.5\n", 3, "non-finite vector value"),
        malformed("2 3\n1 1 0.5 0.5 0.5\n\n1 1 -inf 0.5 0.5\n", 4, "non-finite vector value"),
        malformed("2 3\n1 1 0.5 0.5 0.5\n1 2 0.5 0.5 0.5\n", 3, "duplicate id 1"),
        malformed("0 3\n", 1, "header needs n >= 1 and dim >= 1, got 0 and 3"),  # no rows
        malformed("1 3\n99999999999999999999 1 0.5 0.5 0.5\n", 2,
                  "Python int too large to convert to C long"),  # id beyond int64
        malformed("1 3\n7 99999999999999999999 0.5 0.5 0.5\n", 2,
                  "Python int too large to convert to C long"),  # label beyond int64
        # a width no array can hold; the row contradicts it before any allocation
        malformed("1 99999999999999999999\n7 1 0.5 0.5 0.5\n", 2,
                  "5 fields, expected 100000000000000000001"),
        malformed("", None, "empty embedding file"),
        malformed("3 3\n1 1 0.5 0.5 0.5\n2 1 0.5 0.5 0.5\n", None,
                  "header says 3 rows, file has 2"),
        malformed("2 3\n1 1 0.5 0.5 0.5\n2 1 1e999 0.5 0.5\n", 3, "non-finite vector value"),
        malformed("2 3\n1 1 0.5 0.5 0.5\n2 1 0.5 0.5\n", 3, "4 fields, expected 5"),
        malformed("2 3\n1 1 0.5 0.5 0.5\n2 1 0.5 0.5 0.5 # note\n", 3,
                  "7 fields, expected 5"),  # no comment syntax
        malformed("2 3\n1 1 0.5 0.5 0.5\n1.0 1 0.5 0.5 0.5\n", 3,
                  "invalid literal for int() with base 10: '1.0'"),
        malformed("2 3\n1 1 0.5 0.5 0.5\n2 1 0x1 0.5 0.5\n", 3,
                  "could not convert string to float: '0x1'"),
        malformed("2 3\n1 1 0.5 0.5 0.5\n2 1 1__0 0.5 0.5\n", 3,
                  "could not convert string to float: '1__0'"),
    ])
    def test_malformed_embedding_file_exits_two(self, tmp_path, capsys, text, line, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        good = tmp_path / "good.txt"
        good.write_text("1 3\n7 1 0.0 0.0 0.0\n")
        assert main(["eval", "--query", str(bad), "--gallery", str(good)]) == 2
        captured = capsys.readouterr()
        where = f"{bad}:{line}" if line else f"{bad}"
        assert captured.err.splitlines() == [f"error: {where}: {message}"]
        assert captured.out == ""

    @pytest.mark.parametrize("row", [
        "7 1 1_0.5 0.25 0.0",  # an underscore in a float
        "7 1 \u0661\u0660.5 0.25 0.0",  # Arabic-Indic digits
        "+7 001 10.5 0.25 0.0",  # a signed id, a label with leading zeros
        "7\xa01\xa010.5\xa00.25\u30000.0",  # NBSP and ideographic space between fields
    ])
    def test_python_number_forms_evaluate_as_their_values(self, tmp_path, capsys, row):
        gallery = tmp_path / "g.txt"
        # the query sits on a wrong-class item; the value 10.5 puts item 12
        # second and item 11 third
        gallery.write_text("3 3\n10 2 10.5 0.25 0.0\n11 1 0.0 0.0 0.0\n12 1 10.0 0.25 0.0\n")
        reports = []
        for name, query_row in (("plain", "7 1 10.5 0.25 0.0"), ("form", row)):
            query = tmp_path / f"{name}.txt"
            query.write_text(f"1 3\n{query_row}\n", encoding="utf-8")
            out = tmp_path / f"{name}.json"
            assert main(["eval", "--query", str(query), "--gallery", str(gallery),
                         "--out", str(out)]) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]
        assert reports[0].startswith('{"rank1": 0.000000, "mAP": 0.583333, ')

    @pytest.mark.parametrize("query, gallery", [
        ("1 3\n7 1 0.0 0.0 0.0\n", "1 2\n8 1 0.0 0.0\n"),  # dimension mismatch
        ("1 3\n7 4 0.0 0.0 0.0\n", "1 3\n8 1 0.0 0.0 0.0\n"),  # query class absent
    ])
    def test_mismatched_embedding_files_exit_two(self, tmp_path, capsys, query, gallery):
        (tmp_path / "q.txt").write_text(query)
        (tmp_path / "g.txt").write_text(gallery)
        assert main(["eval", "--query", str(tmp_path / "q.txt"),
                     "--gallery", str(tmp_path / "g.txt")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"{tmp_path / 'q.txt'} against {tmp_path / 'g.txt'}: " in err[0]

    def test_overflowed_distances_exit_two(self, tmp_path, capsys):
        # finite vectors 2e200 apart: every cross-class squared distance is
        # beyond float64, so no ranking of them is meaningful
        (tmp_path / "q.txt").write_text("2 2\n0 1 1e200 0\n1 2 -1e200 0\n")
        (tmp_path / "g.txt").write_text("2 2\n10 1 -1e200 0\n11 2 1e200 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--query", str(tmp_path / "q.txt"),
                         "--gallery", str(tmp_path / "g.txt")]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"{tmp_path / 'q.txt'} against {tmp_path / 'g.txt'}: " in err[0]
        assert "finite" in err[0] and captured.out == ""

    @pytest.mark.parametrize("data, line", [
        (b"\xff1 3\n7 1 0.0 0.0 0.0\n", 1),  # the first byte
        (b"1 3\n7 1 0.0 0.0 0.0\n\n8 1 0.5 \xe9 0.0\n", 4),  # Latin-1, after a blank line
        (b"1 3\r\n7 1 0.0 0.0 \xc3\n", 2),  # a sequence cut short
    ])
    @pytest.mark.parametrize("role", ["--query", "--gallery"])
    def test_embedding_file_not_utf8_exits_two(self, tmp_path, capsys, data, line, role):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        good = tmp_path / "good.txt"
        good.write_text("1 3\n7 1 0.0 0.0 0.0\n")
        files = {"--query": good, "--gallery": good, role: bad}
        assert main(["eval", *(str(v) for pair in files.items() for v in pair)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}:{line}: not valid UTF-8")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    def test_spec_not_utf8_exits_one(self, tmp_path, capsys, monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("an unreadable spec must not build a dataset")

        monkeypatch.setattr(experiment, "make_real_dataset", no_work)
        spec = tmp_path / "spec.txt"
        rows = TINY_SPEC.encode().splitlines(keepends=True)
        spec.write_bytes(b"".join(rows[:2]) + b"# caf\xe9\n" + b"".join(rows[2:]))
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {spec}:3: not valid UTF-8")
        assert not (tmp_path / "out").exists()

    def test_missing_embedding_file_exits_one(self, tmp_path, capsys):
        good = tmp_path / "g.txt"
        good.write_text("1 3\n8 1 0.0 0.0 0.0\n")
        assert main(["eval", "--query", str(tmp_path / "nope.txt"),
                     "--gallery", str(good)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("k, named", [("2,abc", "'abc'"), ("5,5", " 5 ")],
                             ids=["2,abc", "5,5"])
    def test_gradcheck_bad_k_exits_one(self, capsys, k, named):
        # a repeated class count would report its cases twice
        assert main(["gradcheck", "--k", k, "--trials", "1"]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert captured.out == ""

    @pytest.mark.parametrize("command, line", [
        # run's cases are named by the bare line, so their ids stay stable
        pytest.param(command, line, id=line if command == "run" else f"{command}-{line}")
        for command in ("run", "gen-data") for line in REJECTED_SPEC_LINES])
    def test_silently_wrong_spec_values_exit_one(self, tmp_path, capsys, monkeypatch,
                                                 command, line):
        def no_work(*args, **kwargs):
            raise AssertionError("a rejected spec must not build a dataset")

        monkeypatch.setattr(experiment, "make_real_dataset", no_work)
        rows = TINY_SPEC.splitlines()
        for new in line.splitlines():  # the last line holds the rejected key
            key = new.split("=")[0]
            if not any(row.startswith(key) for row in rows):
                rows.append(key)
            rows = [new if row.startswith(key) else row for row in rows]
        spec = tmp_path / "spec.txt"
        spec.write_text("\n".join(rows) + "\n")
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key.strip() in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--seed", "-1"],
        ["gradcheck", "--tolerance", "nan"],
        ["gradcheck", "--tolerance", "-1"],
        ["gen-data", "--spec", "SPEC", "--out", "OUT", "--seed", "-1"],
        ["gradcheck", "--k", "751,0"],
    ])
    def test_bad_numbers_exit_one_before_work(self, argv, spec_file, tmp_path, capsys):
        argv = [str(spec_file) if a == "SPEC" else str(tmp_path / "out") if a == "OUT"
                else a for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and argv[-2].strip("-") in err[0]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["spec_is_dir", "gallery_is_dir", "out_is_file"])
    def test_os_errors_exit_one_without_traceback(self, case, spec_file, tmp_path, capsys):
        embeddings = tmp_path / "q.txt"
        embeddings.write_text("1 3\n7 1 0.0 0.0 0.0\n")
        taken = tmp_path / "taken.txt"
        taken.write_text("not a directory\n")
        argv = {
            "spec_is_dir": ["run", "--spec", str(tmp_path)],
            "gallery_is_dir": ["eval", "--query", str(embeddings), "--gallery", str(tmp_path)],
            "out_is_file": ["run", "--spec", str(spec_file), "--out", str(taken)],
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert taken.read_text() == "not a directory\n"

    def test_gen_data_rewrites_the_real_file(self, spec_file, tmp_path, capsys):
        # a second run into the same directory with a changed spec must not
        # leave the first run's real dataset next to the new generated files
        from test_synthgen import read_dataset_text

        data_dir = tmp_path / "data"
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(data_dir)]) == 0
        changed = tmp_path / "changed.txt"
        changed.write_text(TINY_SPEC.replace("n_classes      = 3", "n_classes      = 4"))
        assert main(["gen-data", "--spec", str(changed), "--out", str(data_dir)]) == 0
        real = read_dataset_text(data_dir / "real_seed1.txt")
        generated = read_dataset_text(data_dir / "generated_n6_seed1.txt")
        assert real.n_classes == generated.n_classes == 4
        assert real.ids.max() < generated.ids.min()
        out = capsys.readouterr().out
        assert out.count("real_seed1.txt") == 2

    @pytest.mark.parametrize("argv", [
        ["run"],  # --spec missing
        ["run", "--spec", "spec.txt", "--jobs", "abc"],
        ["gradcheck", "--trials", "abc"],
        ["frobnicate"],  # unknown subcommand
        [],  # no subcommand
        ["run", "--spec", "spec.txt", "--jobs", "0"],
        ["run", "--spec", "spec.txt", "--jobs", "-3"],
        ["trace", "--spec", "spec.txt", "--samples", "2"],  # a retired subcommand
    ])
    def test_argument_errors_exit_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert sum(": error: " in line for line in err) == 1
        assert err[-1].startswith("mprl") and ": error: " in err[-1]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        assert "--spec" in capsys.readouterr().out

    def test_argument_error_process_exit_code(self):
        src = Path(experiment.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "mprl.cli", "run", "--jobs", "abc"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 1
        assert "error:" in result.stderr

    def test_console_entry_point(self, tmp_path):
        # the module runs standalone as well, from the source tree under test
        src = Path(experiment.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "mprl.cli", "gradcheck", "--k", "2", "--trials", "1"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0
        assert "PASS" in result.stdout

    def test_parallel_jobs_match_sequential(self, spec_file, tmp_path):
        out_seq = tmp_path / "seq"
        out_par = tmp_path / "par"
        assert main(["run", "--spec", str(spec_file), "--out", str(out_seq)]) == 0
        assert main(["run", "--spec", str(spec_file), "--out", str(out_par),
                     "--jobs", "2"]) == 0
        for cell in ("baseline_n0_seed1", "lsro_n0_seed1", "lsro_n6_seed2"):
            assert (out_seq / cell / "history.csv").read_bytes() == \
                (out_par / cell / "history.csv").read_bytes()
            assert (out_seq / cell / "report.json").read_bytes() == \
                (out_par / cell / "report.json").read_bytes()
