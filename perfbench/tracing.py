"""Outside-in tracing: wrap the public functions each calling module imports.

The benchmark never edits the program.  A layer is measured by replacing,
for the duration of one traced op, the name a *calling* module bound at
import time (``mprl.trainer.forward`` is the ``net.forward`` that the
trainer calls) with a wrapper that records a span and some counts, and
putting the original back afterwards.

A span is ``[name, parent_index, start, end]``; spans are appended in
start order and kept in memory until the run writes them out.  Counts
(rows, computed flops and bytes) are exact for a given seed, so they
repeat from run to run; they are counts, not timings.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

LAYERS = ("synthgen", "labels", "losses", "net", "trainer", "retrieval",
          "experiment", "gradcheck", "cli")
# the benchmark's own code between and around the program's calls
BENCH_LAYER = "bench"
ROOT_SPAN = "bench.op"
# counts the wrappers add up (everything else is derived from the spans)
COUNT_NAMES = frozenset({
    "net.forward.rows", "net.flops", "losses.combined_loss.rows",
    "retrieval.pairwise_sq_euclidean.bytes", "retrieval.evaluate.queries",
    "retrieval.load_embeddings.rows",
})


@contextlib.contextmanager
def patched(obj, attr: str, replacement):
    """Set ``obj.attr`` to ``replacement`` and restore the original on exit."""
    original = getattr(obj, attr)
    setattr(obj, attr, replacement)
    try:
        yield original
    finally:
        setattr(obj, attr, original)


# --- counters: (args, kwargs, result) -> {count_name: amount} -------------

def _matmul_size(params) -> tuple[int, int]:
    """Sum of fan_in*fan_out over all layers, and over all but the first."""
    sizes = [w.shape[0] * w.shape[1] for w in params.weights]
    return sum(sizes), sum(sizes[1:])


def _count_forward(args, kwargs, result):
    params, features = args[0], args[1]
    rows = features.shape[0] if getattr(features, "ndim", 1) == 2 else 1
    total, _ = _matmul_size(params)
    return {"net.forward.rows": rows, "net.flops": 2 * rows * total}


def _count_backward(args, kwargs, result):
    params, cache = args[0], args[1]
    rows = cache.inputs.shape[0]
    total, without_first = _matmul_size(params)
    # weight gradients for every layer, input deltas for all but the first
    return {"net.flops": 2 * rows * (total + without_first)}


def _count_combined_loss(args, kwargs, result):
    return {"losses.combined_loss.rows": len(args[0])}


def _count_pairwise(args, kwargs, result):
    queries, gallery = args[0], args[1]
    n_q, n_g, dim = queries.vectors.shape[0], gallery.vectors.shape[0], queries.dim
    return {"retrieval.pairwise_sq_euclidean.bytes": n_q * n_g * dim * 8}


def _count_evaluate(args, kwargs, result):
    return {"retrieval.evaluate.queries": len(args[1])}


def _count_load(args, kwargs, result):
    return {"retrieval.load_embeddings.rows": int(result.ids.size)}


def wrap_targets():
    """(owner, attribute, span name, counter) for every wrapped call site.

    Owners are the calling modules, so each row reads "calls that
    <owner> makes to <span name>".
    """
    import mprl.cli as cli
    import mprl.experiment as experiment
    import mprl.gradcheck as gradcheck
    import mprl.trainer as trainer

    label_builders = ("ground_truth_label", "lsro_label", "all_in_one_label",
                      "one_hot_pseudo_label", "mprl_label")
    return [
        # entry points the benchmark itself calls
        (experiment, "run_experiment", "experiment.run_experiment", None),
        (cli, "main", "cli.main", None),
        (gradcheck, "run_gradcheck", "gradcheck.run_gradcheck", None),
        # experiment -> synthgen, trainer, retrieval, artifacts
        (experiment, "run_cell", "experiment.run_cell", None),
        (experiment, "build_datasets", "synthgen.build", None),
        (experiment, "pretrain_baseline", "trainer.pretrain_baseline", None),
        (experiment, "assign_static_labels", "trainer.assign_static_labels", None),
        (experiment, "train", "trainer.train", None),
        (experiment, "extract_embeddings", "trainer.extract_embeddings", None),
        (experiment, "pairwise_sq_euclidean", "retrieval.pairwise_sq_euclidean",
         _count_pairwise),
        (experiment, "evaluate", "retrieval.evaluate", _count_evaluate),
        (experiment, "save_report", "experiment.artifacts", None),
        (experiment, "write_summary", "experiment.artifacts", None),
        (trainer.TrainHistory, "to_csv", "experiment.artifacts", None),
        # trainer -> net, losses, labels
        (trainer, "forward", "net.forward", _count_forward),
        (trainer, "backward", "net.backward", _count_backward),
        (trainer, "sgd_step", "net.sgd_step", None),
        (trainer, "combined_loss", "losses.combined_loss", _count_combined_loss),
        (trainer, "mprl_alpha", "labels.mprl_alpha", None),
        (trainer, "softmax", "labels.softmax", None),
        *[(trainer, name, "labels.label_build", None) for name in label_builders],
        # gradcheck -> losses (one vector at a time), labels
        (gradcheck, "finite_difference_gradient", "gradcheck.finite_difference_gradient",
         None),
        (gradcheck, "real_ce_loss", "losses.per_vector", None),
        (gradcheck, "lsro_loss", "losses.per_vector", None),
        (gradcheck, "mprl_generated_loss", "losses.per_vector", None),
        (gradcheck, "mprl_alpha", "labels.mprl_alpha", None),
        (gradcheck, "softmax", "labels.softmax", None),
        # cli -> retrieval
        (cli, "load_embeddings", "retrieval.load_embeddings", _count_load),
        (cli, "pairwise_sq_euclidean", "retrieval.pairwise_sq_euclidean", _count_pairwise),
        (cli, "evaluate", "retrieval.evaluate", _count_evaluate),
    ]


def span_names() -> set[str]:
    return {name for _, _, name, _ in wrap_targets()} | {ROOT_SPAN}


class Tracer:
    """In-memory span and count recorder for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block, then restore."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, counter in wrap_targets():
                stack.enter_context(
                    patched(owner, attr, self.wrap(name, getattr(owner, attr), counter)))
            yield self

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (used for the root op span)."""
        return self.wrap(name, fn)(*args, **kwargs)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Calls are single-threaded and properly nested, so children never
    overlap each other and lie inside their parent; the part of a span's
    interval its children cover is then the sum of their durations.
    """
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Aggregate spans by name: calls, total time and self time."""
    own = self_times(spans)
    by_name: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, _, start, end), self_s in zip(spans, own):
        entry = by_name[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += self_s
    return dict(by_name)


def layer_self_times(spans) -> dict[str, float]:
    """Self time per layer (the prefix of each span name), all layers listed."""
    totals = {layer: 0.0 for layer in (*LAYERS, BENCH_LAYER)}
    for name, entry in summarize(spans).items():
        totals[layer_of(name)] += entry["self_s"]
    return totals


def write_spans(spans, path) -> None:
    """Write spans as CSV: index, parent index, name, start, end."""
    with open(path, "w") as out:
        out.write("index,parent,name,start,end\n")
        for i, (name, parent, start, end) in enumerate(spans):
            out.write(f"{i},{parent},{name},{start!r},{end!r}\n")
