"""Tests of the benchmark itself: span arithmetic, output checks, wrappers.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run, tracing, workloads  # noqa: E402
from mprl.trainer import EpochRecord  # noqa: E402

# bench.op [0, 10]
#   experiment.run_experiment [1, 9]
#     trainer.train [2, 6]
#       net.forward [2.5, 3]
#       net.forward [4, 5]
#     retrieval.evaluate [7, 8]
SPAN_TREE = [
    ["bench.op", -1, 0.0, 10.0],
    ["experiment.run_experiment", 0, 1.0, 9.0],
    ["trainer.train", 1, 2.0, 6.0],
    ["net.forward", 2, 2.5, 3.0],
    ["net.forward", 2, 4.0, 5.0],
    ["retrieval.evaluate", 1, 7.0, 8.0],
]


def test_self_times_of_hand_built_tree():
    assert tracing.self_times(SPAN_TREE) == [2.0, 3.0, 2.5, 0.5, 1.0, 1.0]
    summary = tracing.summarize(SPAN_TREE)
    assert summary["net.forward"] == {"calls": 2, "s": 1.5, "self_s": 1.5}
    assert summary["trainer.train"] == {"calls": 1, "s": 4.0, "self_s": 2.5}
    layers = tracing.layer_self_times(SPAN_TREE)
    assert layers["bench"] == 2.0 and layers["experiment"] == 3.0
    assert layers["trainer"] == 2.5 and layers["net"] == 1.5
    assert layers["retrieval"] == 1.0 and layers["labels"] == 0.0
    # self times partition the root span
    assert sum(layers.values()) == 10.0


def test_tracer_records_the_tree_it_observes():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    forward = tracer.wrap("net.forward", lambda: None)
    train = tracer.wrap("trainer.train", lambda: (forward(), forward()))
    evaluate = tracer.wrap("retrieval.evaluate", lambda: None)
    grid = tracer.wrap("experiment.run_experiment", lambda: (train(), evaluate()))
    tracer.span("bench.op", grid)
    assert tracer.spans == SPAN_TREE


def test_wrappers_restore_the_original_functions():
    targets = tracing.wrap_targets()
    originals = [getattr(owner, attr) for owner, attr, _, _ in targets]
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            wrapped = [getattr(owner, attr) for owner, attr, _, _ in targets]
            assert all(w is not o for w, o in zip(wrapped, originals))
            raise RuntimeError("an op failed mid-trace")
    assert all(getattr(owner, attr) is original
               for (owner, attr, _, _), original in zip(targets, originals))


def test_every_declared_metric_resolves():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer"]]
    extra = dict.fromkeys(["trace.wall_s", "trace.untraced_s", "trace.overhead_s",
                           "trace.accounted_s", "trace.spans", "retrieval.rank1_mean",
                           "retrieval.map_mean"], 1.0)
    assert set(run.per_layer(names, tracing.Tracer(), extra)) == set(names)
    result = workloads.OpResult([(0.0, 1.0)], 10)
    assert set(run.end_to_end(0.5, [result], 1.0, [1.0])) == {
        m["name"] for m in declared["end_to_end"]}
    assert set(declared_workload["name"] for declared_workload in declared["workloads"]) \
        == set(workloads.WORKLOADS)


class SmallRetrieval(workloads.RetrievalEval):
    n_ids, oracle_subset = 12, 4


def test_corrupted_retrieval_report_is_counted_as_failed(tmp_path):
    workload = SmallRetrieval(seed=3, workdir=tmp_path)
    workload.setup()
    op = workload.op(0)
    assert workload.check([op]).failed == 0

    _, report_path = op.payload
    good = json.loads(report_path.read_text())
    corruptions = [
        dict(good, rank1=round(good["rank1"] - 0.01, 6)),
        dict(good, mAP=1.5),
        dict(good, cmc=good["cmc"][:-1]),
    ]
    for corrupted in corruptions:
        report_path.write_text(json.dumps(corrupted))
        outcome = workload.check([op])
        assert (outcome.attempted, outcome.failed) == (1, 1), corrupted
    report_path.write_text("{not json")
    assert workload.check([op]).failed == 1


def test_oracle_agrees_with_sorted_reference():
    rng = workloads.np.random.default_rng(0)
    gallery = rng.standard_normal((30, 3))
    gallery[7] = gallery[3]  # an exact tie resolves by gallery index
    labels = rng.integers(0, 4, size=30)
    queries = rng.standard_normal((5, 3))
    ranks = checks.oracle_ranks(queries, labels[:5], gallery, labels)
    for q, label, oracle in zip(queries, labels[:5], ranks):
        assert oracle.tolist() == checks.brute_force_ranks(q, label, gallery, labels)


def _record(epoch, gen_grad_norm, loss=0.5):
    return EpochRecord(epoch, loss, loss, loss, 0.9, 0.01, gen_grad_norm)


def test_grid_checks_flag_bad_histories():
    gated = [_record(1, 0.0), _record(2, 0.0), _record(3, 0.4)]
    assert checks.check_warmup_gate(gated, warmup_epoch=3) == []
    assert checks.check_warmup_gate(gated, warmup_epoch=2)  # epoch 2 has no gradient
    assert checks.check_warmup_gate(gated, warmup_epoch=4)  # epoch 3 leaked one
    assert checks.check_history(gated, epochs=3) == []
    assert checks.check_history([*gated[:2], _record(3, 0.4, float("nan"))], epochs=3)
    assert checks.check_history(gated, epochs=4)
    assert checks.check_scores(1.0, 0.0) == [] and checks.check_scores(1.01, 0.5)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_adjustment_of_a_hand_built_probe():
    from perfbench import speed

    probe = speed.SpeedProbe()
    nominal = speed.NOMINAL_SAMPLE_S
    # samples at 0, 1 and 3 s: reference speed, then twice as slow
    probe.samples = [(0.0, 0.01, nominal), (1.0, 1.01, 2 * nominal),
                     (3.0, 3.01, 2 * nominal)]
    # [0, 1] reads 1.5x slow on average, [1, 3] 2x: (1 * 1.5 + 2 * 2) / 3
    assert probe.slowdown(0.0, 3.0) == pytest.approx(5.5 / 3)
    assert probe.slowdown(1.5, 2.5) == pytest.approx(2.0)
    assert probe.probe_time(0.0, 3.02) == pytest.approx(0.03)
    # 2 s at twice the reference time, less 10 ms of probing
    assert probe.adjusted(1.0, 3.02) == pytest.approx((2.02 - 0.02) / 2.0)
    assert probe.sampled_inside(0.5, 1.5) and not probe.sampled_inside(1.5, 2.5)
