"""The names the benchmark binds in the program must keep resolving.

``perfbench`` wraps program functions by (module or class, attribute)
and samples machine speed inside calls the workloads name as probe
targets.  A rename in ``src`` that drops one of these names would break
every op of a workload, so the contract is checked here, next to the
code that must honour it.  A tiny traced grid and gradcheck run every
wrapper and counter, so a call the counters cannot read (``forward``'s
features passed by keyword, say) fails here and not only under
``perfbench/run.py --trace 1``.
"""

import math
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from mprl import experiment, gradcheck  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402

TRACED_GRID_SPEC = """\
n_classes    = 3
dim          = 4
n_per_class  = 6
strategies   = baseline, smprl
counts       = 6
seeds        = 1
epochs       = 3
batch_size   = 8
warmup_epoch = 1
hidden_sizes = 8, 6
"""


@pytest.mark.parametrize("owner, attr", [
    pytest.param(owner, attr, id=f"{owner.__name__}.{attr}")
    for owner, attr, _, _ in tracing.wrap_targets()])
def test_every_wrapped_name_resolves_to_a_callable(owner, attr):
    assert callable(getattr(owner, attr, None))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_probe_target_resolves_to_a_callable(name, tmp_path):
    targets = workloads.WORKLOADS[name](seed=1, workdir=tmp_path).probe_targets()
    for owner, attr in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_a_traced_grid_and_gradcheck_run_every_wrapper(tmp_path):
    spec = experiment.parse_spec_text(TRACED_GRID_SPEC)
    tracer = tracing.Tracer()
    with tracer.installed():
        results = tracer.span(tracing.ROOT_SPAN, experiment.run_experiment, spec,
                              out_dir=tmp_path)
        report = tracer.span(tracing.ROOT_SPAN, gradcheck.run_gradcheck, k_values=(3,),
                             trials=2, seed=0)
    assert len(results) == 2 and report.passed
    names = {name for name, _, _, _ in tracer.spans}
    assert names <= tracing.span_names()
    assert {"trainer.train", "net.forward", "net.backward", "net.sgd_step",
            "losses.combined_loss", "trainer.assign_static_labels", "retrieval.evaluate",
            "gradcheck.finite_difference_gradient", "labels.mprl_alpha"} <= names
    # gradcheck's analytic side still goes through the per-vector losses,
    # the API whose speed gradcheck_751 guards, inside each traced run
    run = [i for i, (name, _, _, _) in enumerate(tracer.spans)
           if name == "gradcheck.run_gradcheck"]
    assert len(run) == 1
    inside = Counter(name for name, parent, _, _ in tracer.spans if parent == run[0])
    assert {"losses.per_vector", "gradcheck.finite_difference_gradient",
            "labels.mprl_alpha"} <= set(inside)
    # three losses and one diagonal-mode call per trial, one sweep per trial
    assert inside["losses.per_vector"] == 2 * 4
    assert inside["gradcheck.finite_difference_gradient"] == 2
    assert all(end >= start for _, _, start, end in tracer.spans)
    # rows per cell and epoch: the training pool in mini-batches, then the
    # real train rows for the epoch's accuracy; smprl also scores its
    # generated rows once with the baseline cell's model
    real_train = spec.n_classes * (spec.n_per_class // 2)
    pools = (real_train, real_train + spec.counts[0])
    assert tracer.counts["losses.combined_loss.rows"] == spec.epochs * sum(pools)
    assert tracer.counts["net.forward.rows"] == (
        spec.epochs * sum(pool + real_train for pool in pools) + spec.counts[0])
    # each training batch goes through the four traced names exactly once, so
    # a fused step that bypassed one would show here, not as a zeroed metric;
    # forward also runs once per epoch (accuracy) and once for smprl's labels
    batches = spec.epochs * sum(math.ceil(pool / spec.batch_size) for pool in pools)
    calls = Counter(name for name, _, _, _ in tracer.spans)
    assert [calls[name] for name in ("losses.combined_loss", "net.backward", "net.sgd_step")
            ] == [batches] * 3
    assert calls["net.forward"] == batches + spec.epochs * len(pools) + 1


# a 2-member cohort (lsro and dmprl2 share the pool of 6 generated rows)
TRACED_COHORT_SPEC = TRACED_GRID_SPEC.replace("baseline, smprl", "baseline, lsro, dmprl2")


def test_a_traced_cohort_books_every_cell_and_every_member_row(tmp_path):
    spec = experiment.parse_spec_text(TRACED_COHORT_SPEC)
    tracer = tracing.Tracer()
    with tracer.installed():
        results = tracer.span(tracing.ROOT_SPAN, experiment.run_experiment, spec,
                              out_dir=tmp_path)
    assert [r.cell for r in results] == experiment.expand_cells(spec)
    calls = Counter(name for name, _, _, _ in tracer.spans)
    assert calls["trainer.train"] == len(results) == 3
    # the cohort's stacked batches hold both members' rows
    real_train = spec.n_classes * (spec.n_per_class // 2)
    pools = (real_train, real_train + spec.counts[0], real_train + spec.counts[0])
    assert tracer.counts["losses.combined_loss.rows"] == spec.epochs * sum(pools)
    batches = spec.epochs * sum(math.ceil(pool / spec.batch_size) for pool in pools[:2])
    assert [calls[name] for name in ("losses.combined_loss", "net.backward", "net.sgd_step")
            ] == [batches] * 3
