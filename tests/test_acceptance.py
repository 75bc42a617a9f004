"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The full-benchmark criterion trains 7 strategies x
10 seeds and is the slowest; everything else is fast.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from mprl.cli import main
from mprl.experiment import Cell, RunMemo, expand_cells, parse_spec, run_cell, run_experiment
from mprl.gradcheck import run_gradcheck
from mprl.labels import TiePolicy, mprl_alpha, rank_weight_normalizer, softmax
from mprl.losses import lsro_loss, mprl_generated_loss
from mprl.net import init_params, load_params, save_params
from mprl.retrieval import evaluate
from mprl.synthgen import load_dataset, make_generated_dataset, make_real_dataset, save_dataset
from mprl.trainer import Strategy, TrainConfig, train

# the shipped benchmark grid: K=8, dim=16, 50 samples/class, 400
# generated, 50 epochs, 10 seeds, all seven strategies
BENCHMARK_SPEC_PATH = Path(__file__).resolve().parents[1] / "benchmark.spec"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_gradient_fidelity(capsys):
    with criterion(1, "analytic gradients match central differences < 1e-6, < 30 s"):
        start = time.perf_counter()
        report = run_gradcheck(k_values=(2, 5, 10, 751), trials=100, tolerance=1e-6, seed=0)
        elapsed = time.perf_counter() - start
        assert report.passed
        worst = max(case.max_rel_error for case in report.cases)
        assert worst < 1e-6
        assert elapsed < 30.0
        # the CLI surface reports the same result
        assert main(["gradcheck", "--k", "2,5", "--trials", "5"]) == 0


def test_criterion_2_normalization_identity():
    with criterion(2, "rank-mass normalizer closes the label mass for K = 1..1000"):
        rng = np.random.default_rng(0)
        for k in range(1, 1001):
            p = softmax(rng.normal(0, 3, size=k))
            sigma = rank_weight_normalizer(k)
            for policy in TiePolicy:
                alpha = mprl_alpha(p, policy)
                assert abs(sigma * float(np.sum(alpha / k)) - 1.0) < 1e-12


def test_criterion_3_lsro_degeneracy():
    with criterion(3, "uniform probabilities + average ranks reduce the loss to LSRO"):
        rng = np.random.default_rng(1)
        for k in (2, 10, 100):
            for _ in range(100):
                x = np.full(k, rng.uniform(-50.0, 50.0))
                alpha = mprl_alpha(softmax(x), TiePolicy.AVERAGE_RANK)
                diff = mprl_generated_loss(x, alpha).value - lsro_loss(x).value
                assert abs(diff) < 1e-12


def test_criterion_4_gradient_mode_discrepancy():
    with criterion(4, "analytic gradient [0,0] vs diagonal gradient [-2/9,-2/9]"):
        x = np.array([0.0, math.log(2.0)])
        alpha = mprl_alpha(softmax(x), TiePolicy.AVERAGE_RANK)
        np.testing.assert_array_equal(alpha, [1.0, 2.0])
        analytic = mprl_generated_loss(x, alpha).grad_logits
        diagonal = mprl_generated_loss(x, alpha, diagonal=True).grad_logits
        np.testing.assert_allclose(analytic, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(diagonal, [-2.0 / 9.0, -2.0 / 9.0], atol=1e-12)


def test_criterion_5_metric_oracle_equivalence():
    with criterion(5, "mAP and CMC match the exhaustive oracle on 50 random instances"):
        from test_retrieval import brute_force_eval

        hand = evaluate(np.array([[1.0, 2.0, 3.0]]), [7], [7, 5, 7])
        assert abs(hand.mean_ap - 5.0 / 6.0) < 1e-12
        assert hand.rank1 == 1.0

        rng = np.random.default_rng(77)
        for _ in range(50):
            n_q = int(rng.integers(1, 11))
            n_g = int(rng.integers(2, 16))
            g_labels = rng.integers(1, 6, size=n_g)
            q_labels = g_labels[rng.integers(0, n_g, size=n_q)]
            distances = rng.uniform(0, 10, size=(n_q, n_g))
            report = evaluate(distances, q_labels, g_labels)
            oracle_map, oracle_cmc = brute_force_eval(
                distances.tolist(), q_labels.tolist(), g_labels.tolist())
            assert abs(report.mean_ap - oracle_map) < 1e-12
            assert np.max(np.abs(report.cmc_curve - np.asarray(oracle_cmc))) < 1e-12


def test_criterion_6_warmup_gate():
    with criterion(6, "generated gradients exactly zero before epoch 20, positive after"):
        real = make_real_dataset(4, 8, 6, cluster_spread=0.5, seed=50)
        generated = make_generated_dataset(real, 30, mix_size=2, noise=0.05, seed=51)
        cfg = TrainConfig(
            strategy=Strategy.DMPRL2, epochs=24, batch_size=16, lr_initial=0.05,
            lr_after_decay=0.005, decay_epoch=40, warmup_epoch=20,
            dropout_rate=0.25, hidden_sizes=(12, 8), seed=9,
        )
        _, history = train(real, generated, cfg)
        for record in history.records:
            if record.epoch < 20:
                assert record.gen_grad_norm == 0.0
                assert record.gen_loss == 0.0
            else:
                assert record.gen_grad_norm > 0.0


def test_criterion_7_cell_determinism(tmp_path):
    with criterion(7, "rerun cell reproduces history CSV and report JSON byte for byte"):
        spec = parse_spec(BENCHMARK_SPEC_PATH)
        cell = Cell(Strategy.DMPRL2, 400, 1)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cell(spec, cell, out_a, RunMemo())
        run_cell(spec, cell, out_b, RunMemo())
        for name in ("history.csv", "report.json"):
            assert (out_a / cell.name / name).read_bytes() == \
                (out_b / cell.name / name).read_bytes()


def test_criterion_8_desk_scale_benchmark(tmp_path):
    with criterion(8, "dmprl2 non-inferior to baseline; 7-strategy table; < 5 min"):
        spec = parse_spec(BENCHMARK_SPEC_PATH)
        assert len(expand_cells(spec)) == 70
        start = time.perf_counter()
        results = run_experiment(spec, out_dir=tmp_path / "bench")
        elapsed = time.perf_counter() - start

        rank1 = {}
        for r in results:
            rank1.setdefault(r.cell.strategy, []).append(r.rank1)
        means = {s: float(np.mean(v)) for s, v in rank1.items()}

        print("\nmean rank-1 over 10 seeds:")
        for strategy in spec.strategies:
            print(f"  {strategy.value:>15}: {means[strategy]:.4f}")
        trend = (means[Strategy.DMPRL2] >= means[Strategy.LSRO] >= means[Strategy.BASELINE])
        print(f"  directional trend dmprl2 >= lsro >= baseline: "
              f"{'holds' if trend else 'does not hold'} (reported, not gated)")
        print(f"  wall time: {elapsed:.0f}s")

        summary = (tmp_path / "bench" / "summary.csv").read_text()
        for strategy in spec.strategies:
            assert strategy.value in summary
        assert means[Strategy.DMPRL2] >= means[Strategy.BASELINE] - 0.005
        assert elapsed < 300.0


def test_criterion_9_serialization_round_trips(tmp_path):
    with criterion(9, "dataset files and checkpoints reload bit-exactly"):
        real = make_real_dataset(5, 8, 7, cluster_spread=0.9, seed=60)
        generated = make_generated_dataset(real, 12, mix_size=3, noise=0.1, seed=61)
        for ds, name in ((real, "real.txt"), (generated, "gen.txt")):
            path = tmp_path / name
            save_dataset(ds, path)
            back = load_dataset(path)
            assert len(back) == len(ds)
            assert back.features.tobytes() == ds.features.tobytes()
            for column in ("ids", "splits", "classes", "generated"):
                np.testing.assert_array_equal(getattr(back, column), getattr(ds, column))

        params = init_params((7, 12, 6, 5), seed=62)
        ckpt = tmp_path / "model.ckpt"
        save_params(params, ckpt)
        loaded = load_params(ckpt)
        assert loaded.layer_sizes == params.layer_sizes
        for a, b in zip(params.weights + params.biases,
                        loaded.weights + loaded.biases):
            assert a.tobytes() == b.tobytes()
