"""The benchmark's workloads: inputs made from a seed, one timed op, checks.

Every workload drives the program only through a public entry point
(``experiment.run_experiment``, ``cli.main(["eval", ...])`` or
``gradcheck.run_gradcheck``), looked up on its module at call time so
the tracer's wrappers see the call.  The program sees only the spec text
or embedding files written here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

import mprl.cli as cli
import mprl.experiment as experiment
import mprl.gradcheck as gradcheck
import mprl.trainer as trainer

from perfbench import checks
from perfbench.tracing import patched

# The desk-scale grid of the repository's benchmark.spec, one seed; kept
# here so edits to that file do not move the workload.
DESK_GRID_SPEC = """\
n_classes      = 8
dim            = 16
n_per_class    = 50
cluster_spread = 1.0
mix_size       = 2
noise          = 0.05
strategies     = baseline, all_in_one, one_hot_pseudo, lsro, smprl, dmprl1, dmprl2
counts         = 400
seeds          = {seed}
epochs         = 50
batch_size     = 64
lr_initial     = 0.02
lr_after_decay = 0.002
decay_epoch    = 40
momentum       = 0.9
warmup_epoch   = 20
dropout_rate   = 0.25
hidden_sizes   = 32, 16
"""

# Market-1501-shaped: 751 identities, 10 images each (5 train, 1 query,
# 4 gallery), 2000 generated samples.
REID_751_SPEC = """\
n_classes      = 751
dim            = 64
n_per_class    = 10
cluster_spread = 1.0
mix_size       = 2
noise          = 0.05
strategies     = baseline, lsro, dmprl2
counts         = 2000
seeds          = {seed}
epochs         = 10
batch_size     = 64
lr_initial     = 0.005
lr_after_decay = 0.0005
decay_epoch    = 8
momentum       = 0.9
warmup_epoch   = 4
dropout_rate   = 0.25
hidden_sizes   = 128, 64
"""

# set-up warm-up: every strategy of the workload on a tiny grid
WARMUP_SPEC = """\
n_classes      = 4
dim            = 8
n_per_class    = 4
strategies     = {strategies}
counts         = 8
seeds          = {seed}
epochs         = 2
warmup_epoch   = 1
hidden_sizes   = 8, 4
"""


@dataclass
class OpResult:
    """One timed op: (start, end) of each step, work items done, and what
    the checks read."""

    steps: list[tuple[float, float]]
    items: int
    payload: object = None
    error: str | None = None
    start: float = 0.0  # the whole op, set by the runner
    end: float = 0.0


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, unit: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{unit}: {p}" for p in problems)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def probe_targets(self) -> list[tuple[object, str]]:
        """Calls the program makes often, where a speed sample may be taken;
        none means samples between ops only."""
        return []

    def op(self, index) -> OpResult:
        raise NotImplementedError

    def check(self, results: list[OpResult]) -> CheckResult:
        raise NotImplementedError

    def quality(self, results: list[OpResult]) -> tuple[float, float]:
        """Mean rank-1 and mAP of the op outputs; zeros where nothing is ranked."""
        return 0.0, 0.0


class GridWorkload(Workload):
    """One ``run_experiment`` call over a one-seed grid; a step is a cell."""

    spec_template = ""

    def setup(self) -> None:
        spec_path = self.workdir / "spec.txt"
        spec_path.write_text(self.spec_template.format(seed=self.seed))
        self.spec = experiment.parse_spec(spec_path)
        warmup_path = self.workdir / "warmup_spec.txt"
        strategies = ", ".join(s.value for s in self.spec.strategies)
        warmup_path.write_text(WARMUP_SPEC.format(strategies=strategies, seed=self.seed))
        experiment.run_experiment(experiment.parse_spec(warmup_path),
                                  out_dir=self.workdir / "warmup", jobs=1)

    def probe_targets(self):
        return [(trainer, "combined_loss"), (experiment, "build_datasets"),
                (experiment, "extract_embeddings"), (experiment, "pairwise_sq_euclidean"),
                (experiment, "evaluate")]

    def visits(self) -> int:
        """Training sample visits of one grid, pretraining included."""
        spec = self.spec
        real_train = spec.n_classes * (spec.n_per_class // 2)
        total = 0
        for cell in experiment.expand_cells(spec):
            total += spec.epochs * (real_train + cell.n_generated)
            if cell.strategy.value == "smprl":
                total += spec.epochs * real_train
        return total

    def op(self, index) -> OpResult:
        out_dir = self.workdir / f"grid_{index}"
        trained = []
        marks = [time.perf_counter()]

        def capture_train(train):
            def capturing(real, generated, cfg, **kwargs):
                params, history = train(real, generated, cfg, **kwargs)
                trained.append((cfg, history))
                return params, history
            return capturing

        def progress(_result):
            marks.append(time.perf_counter())

        with patched(experiment, "train", capture_train(experiment.train)):
            results = experiment.run_experiment(self.spec, out_dir=out_dir, jobs=1,
                                                 progress=progress)
        return OpResult(list(zip(marks, marks[1:])), self.visits(), (out_dir, results, trained))

    def check(self, results: list[OpResult]) -> CheckResult:
        outcome = CheckResult()
        cells = experiment.expand_cells(self.spec)
        for op in results:
            if op.error is not None:
                for cell in cells:
                    outcome.add(cell.name, [op.error])
                continue
            out_dir, cell_results, trained = op.payload
            if len(cell_results) != len(cells) or len(trained) != len(cells):
                problem = (f"{len(cell_results)} results and {len(trained)} trainings "
                           f"for {len(cells)} cells")
                for cell in cells:
                    outcome.add(cell.name, [problem])
                continue
            for cell, result, (cfg, history) in zip(cells, cell_results, trained):
                problems = []
                if result.cell != cell or cfg.strategy is not cell.strategy:
                    problems.append(f"result for {result.cell.name}, training for "
                                    f"{cfg.strategy.value}")
                problems += checks.check_history(history.records, self.spec.epochs)
                if cell.strategy.value == "dmprl2":
                    problems += checks.check_warmup_gate(history.records, cfg.warmup_epoch)
                problems += checks.check_scores(result.rank1, result.mean_ap)
                report = out_dir / cell.name / "report.json"
                if report.is_file():
                    problems += checks.check_cell_report(
                        report.read_text(), result.rank1, result.mean_ap)
                else:
                    problems.append("report.json missing")
                outcome.add(cell.name, problems)
        return outcome

    def quality(self, results):
        cells = [r for op in results if op.error is None for r in op.payload[1]]
        if not cells:
            return 0.0, 0.0
        return (float(np.mean([r.rank1 for r in cells])),
                float(np.mean([r.mean_ap for r in cells])))


class DeskGrid(GridWorkload):
    name = "desk_grid"
    spec_template = DESK_GRID_SPEC


class Reid751(GridWorkload):
    name = "reid_751"
    spec_template = REID_751_SPEC


class RetrievalEval(Workload):
    """``mprl eval`` on synthetic query/gallery embedding files."""

    name = "retrieval_eval"
    # no probe targets: a sample taken between the large numpy calls of an
    # op reads the cold caches they leave, and sampling there doubled the
    # spread of this workload's figures against sampling between ops
    n_ids, per_id_query, per_id_gallery, dim = 500, 2, 8, 16
    # within-identity spread against unit-variance identity centres: a
    # non-trivial ranking (rank-1 well below 1)
    spread = 0.6
    oracle_subset = 32  # queries re-ranked by the pure-Python reference

    def _make_set(self, rng, per_id, first_id):
        labels = np.repeat(np.arange(self.n_ids), per_id)
        vectors = self.centres[labels] + self.spread * rng.standard_normal(
            (labels.size, self.dim))
        ids = np.arange(first_id, first_id + labels.size)
        return ids, labels, vectors

    @staticmethod
    def _write(path: Path, ids, labels, vectors) -> None:
        lines = [f"{ids.size} {vectors.shape[1]}"]
        for i, label, row in zip(ids, labels, vectors):
            lines.append(f"{i} {label} " + " ".join(f"{v:.17g}" for v in row))
        path.write_text("\n".join(lines) + "\n")

    def setup(self) -> None:
        rng = np.random.default_rng((self.seed, 1))
        self.centres = rng.standard_normal((self.n_ids, self.dim))
        self.query = self._make_set(rng, self.per_id_query, 0)
        self.gallery = self._make_set(rng, self.per_id_gallery, self.query[0].size)
        self.query_path = self.workdir / "query.txt"
        self.gallery_path = self.workdir / "gallery.txt"
        self._write(self.query_path, *self.query)
        self._write(self.gallery_path, *self.gallery)
        # warm-up: the same command on the first few identities
        small_q = self.workdir / "warmup_query.txt"
        small_g = self.workdir / "warmup_gallery.txt"
        self._write(small_q, *(a[: 4 * self.per_id_query] for a in self.query))
        self._write(small_g, *(a[: 4 * self.per_id_gallery] for a in self.gallery))
        cli.main(["eval", "--query", str(small_q), "--gallery", str(small_g),
                  "--out", str(self.workdir / "warmup_report.json")])

    def op(self, index) -> OpResult:
        out = self.workdir / f"report_{index}.json"
        start = time.perf_counter()
        code = cli.main(["eval", "--query", str(self.query_path),
                         "--gallery", str(self.gallery_path), "--out", str(out)])
        return OpResult([(start, time.perf_counter())], self.query[0].size, (code, out))

    @cached_property
    def oracle(self) -> tuple[dict, list[str]]:
        """Oracle report, plus problems found cross-checking it on a subset."""
        _, q_labels, q_vectors = self.query
        _, g_labels, g_vectors = self.gallery
        ranks = checks.oracle_ranks(q_vectors, q_labels, g_vectors, g_labels)
        problems = []
        subset = np.random.default_rng((self.seed, 2)).choice(
            q_labels.size, self.oracle_subset, replace=False)
        for i in subset:
            reference = checks.brute_force_ranks(q_vectors[i], q_labels[i], g_vectors,
                                                 g_labels)
            if reference != ranks[i].tolist():
                problems.append(f"query {i}: sorted() reference disagrees with the oracle")
        return checks.expected_report(ranks, g_labels.size), problems

    def check(self, results: list[OpResult]) -> CheckResult:
        outcome = CheckResult()
        expected, oracle_problems = self.oracle
        for index, op in enumerate(results):
            if op.error is not None:
                outcome.add(f"eval {index}", [op.error])
                continue
            code, out = op.payload
            problems = list(oracle_problems)
            if code != 0:
                problems.append(f"mprl eval exited {code}")
            elif not out.is_file():
                problems.append("no report written")
            else:
                problems += checks.check_retrieval_report(out.read_text(), expected)
            outcome.add(f"eval {index}", problems)
        return outcome

    def quality(self, results):
        expected = self.oracle[0]
        return expected["rank1"], expected["mAP"]


class Gradcheck751(Workload):
    """Finite-difference gradient check at K=751, one loss vector at a time."""

    name = "gradcheck_751"
    k = 751
    trials = 5  # per op; one trial takes about a third of a second

    def setup(self) -> None:
        gradcheck.run_gradcheck(k_values=(5,), trials=2, seed=self.seed)

    def evals_per_op(self) -> int:
        # per trial: three analytic losses, three central differences of
        # 2K evaluations each, and one diagonal-mode evaluation
        return self.trials * (3 * (1 + 2 * self.k) + 1)

    def probe_targets(self):
        return [(gradcheck, "finite_difference_gradient"), (gradcheck, "mprl_alpha")]

    def op(self, index) -> OpResult:
        start = time.perf_counter()
        report = gradcheck.run_gradcheck(k_values=(self.k,), trials=self.trials,
                                         seed=self.seed * 1000 + index)
        return OpResult([(start, time.perf_counter())], self.evals_per_op(), report)

    def check(self, results: list[OpResult]) -> CheckResult:
        outcome = CheckResult()
        for index, op in enumerate(results):
            problems = [op.error] if op.error is not None else checks.check_gradcheck(
                op.payload)
            outcome.add(f"gradcheck {index}", problems)
        return outcome


WORKLOADS = {w.name: w for w in (DeskGrid, Reid751, RetrievalEval, Gradcheck751)}
