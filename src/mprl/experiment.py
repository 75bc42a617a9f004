"""Experiment specs and the grid runner behind the CLI.

A spec is a flat ``key = value`` text file (``#`` starts a comment),
describing the synthetic dataset, the training template and the grid to
sweep:

    n_classes      = 8
    dim            = 16
    n_per_class    = 50
    cluster_spread = 1.0
    mix_size       = 2
    noise          = 0.05
    strategies     = baseline, lsro, dmprl2
    counts         = 0, 200, 400
    seeds          = 1, 2, 3
    epochs         = 50
    out_dir        = results

Every ``ExperimentSpec`` field is a key, and its annotation is the key's
type: ``tuple[T, ...]`` is a comma-separated list of T, ``float | None``
also takes ``none`` or ``auto``, and any other T parses as ``T(value)``;
floats must be finite.  The training keys are the inherited
``TrainSettings`` fields, which each cell's ``TrainConfig`` copies.
``ExperimentSpec.validate`` (run by ``parse_spec``) holds the dataset
keys to the generators' own rules (``synthgen.check_real_params`` and
``check_generated_params``) and the training keys to
``TrainConfig.validate``, so no cell meets a value they would refuse.

The grid expands to one cell per (strategy, count, seed), except that
the baseline ignores the generated-data counts and runs once per seed.
Cells run seed-major: every cell of the first seed (strategies in spec
order, each over its counts), then the next seed.  Datasets are built
and cells trained through a :class:`RunMemo` only: one per
:func:`run_experiment` call, and one per worker process under ``jobs >
1``; ``mprl gen-data`` uses a fresh one.
Within a memo the cells of a seed share what they would otherwise each
build: the real dataset, each count's generated dataset (read-only), the
baseline model that labels an smprl cell's generated rows, which is the
baseline cell's when it has already run there and is pretrained once
otherwise, and the dropout masks.  A mask depends only on (seed, epoch,
batch, rows), never on the strategy, so each is drawn once per seed and
replayed by the seed's later cells (see :class:`mprl.trainer.SeedDraws`).
A seed's cells that share a count, a head width and a gradient rule
(:func:`mprl.trainer.lockstep_key`), the baseline excepted, train as one
:class:`mprl.trainer.Cohort`, up to :func:`mprl.trainer.stack_limit`
cells each.  The cells of a cohort differ only in their generated rows'
labels and the settings a member holds as its own
(:data:`mprl.trainer.MEMBER_SETTINGS`), and the cohort draws each
epoch's visit order once for all of them.  The first cell of a cohort
trains every member in lockstep, and each later one takes the result
the memo holds for it.  Its ``wall_seconds`` then holds the cohort's
training, and a later member's only its own evaluation.
Nothing is shared across seeds or across calls.
Every cell writes ``history.csv`` and ``report.json`` into its own
directory; ``summary.csv`` aggregates one row per cell plus a mean row
per (strategy, count) group when several seeds ran.  All cell artifacts
are byte-reproducible from the spec, whatever ran before them; the
summary's wall_seconds column is the only timing (hence
non-reproducible) field anywhere.
"""

from __future__ import annotations

import ctypes
import json
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import InvalidConfig, MprlError, SpecError, read_utf8
from .net import ModelParams
from .retrieval import evaluate, pairwise_sq_euclidean, save_report
from .synthgen import (
    Dataset,
    check_generated_params,
    check_real_params,
    make_generated_dataset,
    make_real_dataset,
)
from .trainer import (
    Cohort,
    SeedDraws,
    Strategy,
    TrainConfig,
    TrainSettings,
    assign_static_labels,
    extract_embeddings,
    lockstep_key,
    pretrain_baseline,
    stack_limit,
    train,
)

# dataset sub-seed tags, composed with the cell seed
_SEED_REAL_DATA = 10
_SEED_GEN_DATA = 11

SUMMARY_COLUMNS = "strategy,n_generated,seed,rank1,mAP,l1_final,l2_final,wall_seconds"


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec(TrainSettings):
    n_classes: int = 8
    dim: int = 16
    n_per_class: int = 50
    cluster_spread: float = 1.0
    mix_size: int = 2
    noise: float = 0.05
    strategies: tuple[Strategy, ...] = (Strategy.BASELINE,)
    counts: tuple[int, ...] = (400,)
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "results"

    def validate(self) -> None:
        if not self.strategies:
            raise SpecError("strategies list must not be empty")
        if not self.seeds:
            raise SpecError("seeds list must not be empty")
        if any(c < 0 for c in self.counts):
            raise SpecError("generated-data counts must be >= 0")
        if not self.counts:
            raise SpecError("counts list must not be empty")
        if any(s < 0 for s in self.seeds):
            raise SpecError(f"seeds must be >= 0, got {self.seeds}")
        # a repeated grid value would train one cell twice into one directory
        for key in ("strategies", "counts", "seeds"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise SpecError(f"{key} must not repeat a value")
        mixes = (any(s is not Strategy.BASELINE for s in self.strategies)
                 and any(c > 0 for c in self.counts))
        try:
            # what dataset generation would reject inside a cell, before any
            # cell; mix_size only matters where some cell mixes
            check_real_params(self.n_classes, self.n_per_class, self.dim, self.cluster_spread)
            check_generated_params(self.n_classes, self.mix_size if mixes else None, self.noise)
            for strategy in self.strategies:
                self.train_config(strategy, self.seeds[0]).validate()
        except InvalidConfig as exc:
            raise SpecError(str(exc)) from None

    def train_config(self, strategy: Strategy, seed: int) -> TrainConfig:
        """The cell's config: the spec's training settings, ``strategy`` and ``seed``."""
        return TrainConfig(strategy, seed=seed, **{
            f.name: getattr(self, f.name) for f in fields(TrainSettings)})


def _parse_value(key: str, raw: str, annotation, line_no: int):
    """``raw`` as a value of the spec field type ``annotation``."""
    if get_origin(annotation) is tuple:
        parts = [p for p in (piece.strip() for piece in raw.split(",")) if p]
        if not parts:
            raise SpecError(f"line {line_no}: list {key!r} must not be empty")
        return tuple(_parse_value(key, p, get_args(annotation)[0], line_no) for p in parts)
    raw = raw.strip()
    if get_origin(annotation) is UnionType:  # T | None
        if raw.lower() in ("none", "auto"):
            return None
        annotation = get_args(annotation)[0]
    try:
        value = annotation(raw)
    except ValueError as exc:
        raise SpecError(f"line {line_no}: bad value {raw!r} for {key}: {exc}") from None
    if annotation is float and not math.isfinite(value):
        raise SpecError(f"line {line_no}: {key} must be finite, got {raw!r}")
    return value


def parse_spec_text(text: str) -> ExperimentSpec:
    """Parse spec text; errors carry the offending line number."""
    types = get_type_hints(ExperimentSpec)
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise SpecError(f"line {line_no}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in types:
            raise SpecError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise SpecError(f"line {line_no}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, types[key], line_no)
    spec = ExperimentSpec(**values)
    spec.validate()
    return spec


def parse_spec(path) -> ExperimentSpec:
    return parse_spec_text(read_utf8(path, SpecError))


@dataclass(frozen=True)
class Cell:
    strategy: Strategy
    n_generated: int
    seed: int

    @property
    def name(self) -> str:
        return f"{self.strategy.value}_n{self.n_generated}_seed{self.seed}"


def expand_cells(spec: ExperimentSpec) -> list[Cell]:
    """Grid expansion, seed-major: every cell of one seed (strategies in
    spec order, each over its counts) before the next seed; the baseline
    collapses over the count axis."""
    cells = []
    for seed in spec.seeds:
        for strategy in spec.strategies:
            counts = (0,) if strategy is Strategy.BASELINE else spec.counts
            for count in counts:
                cells.append(Cell(strategy, count, seed))
    return cells


class RunMemo:
    """What the cells of one seed share within one run (a
    :func:`run_experiment` call or a ``gen-data`` call): the real
    dataset, each count's generated dataset, the baseline model that
    labels an smprl cell's generated rows, the seed's dropout masks, and
    its cohorts (:attr:`cohorts`, each cell that has yet to take its
    result mapped to its :class:`mprl.trainer.Cohort`).
    Cells run seed-major, so it holds one seed at a time.  Every array it
    holds is read-only."""

    def __init__(self):
        self._hold(None)

    def at(self, spec: ExperimentSpec, seed: int) -> RunMemo:
        """This memo, emptied first unless it holds (spec, seed)."""
        if self.key != (spec, seed):
            self._hold((spec, seed))
        return self

    def _hold(self, key) -> None:
        self.key = key
        self.real: Dataset | None = None
        self.generated: dict[int, Dataset | None] = {}
        self.baseline: ModelParams | None = None
        self.draws = SeedDraws()
        self.cohorts: dict[Cell, Cohort] = {}


# a pool worker's memo, set by the pool's initializer; it ends with its
# worker, which ends with the run's pool
_worker_memo: RunMemo | None = None


def _blas_threads():
    """numpy's BLAS thread-count calls ``(get, set)``: those of the OpenBLAS
    bundled in numpy's wheels, or None where numpy does not export them."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextmanager
def _one_blas_thread():
    """Run the body under one BLAS thread, then restore the caller's count.
    Where numpy exports no known thread call the count is left alone."""
    calls = _blas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _start_worker_memo() -> None:
    """A pool worker's start: a memo of its own and one BLAS thread, which a
    forked worker inherits and a spawned one would not."""
    global _worker_memo
    _worker_memo = RunMemo()
    calls = _blas_threads()
    if calls is not None:
        calls[1](1)


def _worker_pool(workers: int):
    """A pool of ``workers`` processes, each started by :func:`_start_worker_memo`."""
    # imported here: it loads multiprocessing, socket and subprocess, which a
    # run in this process alone never uses
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers, initializer=_start_worker_memo)


def _read_only(*arrays) -> None:
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


def _frozen_dataset(data: Dataset | None) -> Dataset | None:
    if data is not None:
        _read_only(data.ids, data.features, data.classes, data.splits,
                   data.source_ids, data.source_classes, data.source_weights)
    return data


def build_datasets(spec: ExperimentSpec, seed: int, count: int,
                   memo: RunMemo) -> tuple[Dataset, Dataset | None]:
    """The real dataset of ``seed`` and the generated dataset of (seed,
    count), None at count 0.  Each is built once per ``memo`` and then
    shared, read-only."""
    memo.at(spec, seed)
    if memo.real is None:
        memo.real = _frozen_dataset(make_real_dataset(
            spec.n_classes, spec.n_per_class, spec.dim, spec.cluster_spread,
            seed=(seed, _SEED_REAL_DATA)))
    if count not in memo.generated:
        memo.generated[count] = _frozen_dataset(make_generated_dataset(
            memo.real, count, spec.mix_size, spec.noise, seed=(seed, _SEED_GEN_DATA),
        )) if count > 0 else None
    return memo.real, memo.generated[count]


@dataclass
class CellResult:
    cell: Cell
    rank1: float
    mean_ap: float
    l1_final: float
    l2_final: float
    wall_seconds: float


def _keep_baseline(memo: RunMemo, params: ModelParams) -> None:
    """Hold ``params``, read-only, as the memo's baseline model for the rest
    of its seed: its flat storage and every per-layer view of it."""
    _read_only(params.flat, *params.weights, *params.biases)
    memo.baseline = params


def _cohort_of(spec: ExperimentSpec, cell: Cell, memo: RunMemo, real: Dataset,
               generated: Dataset | None) -> Cohort:
    """The cohort that trains ``cell``: the memo's, else a new one.

    A new cohort holds ``cell`` and the later cells of its seed that no
    cohort holds yet and that train in lockstep with it: the same count
    and :func:`mprl.trainer.lockstep_key`, up to the
    :func:`mprl.trainer.stack_limit` of its kind.  Each smprl member
    labels its generated rows with the seed's baseline model in ``memo``:
    the baseline cell's parameters when that cell has run, else one
    pretraining per seed.  The two are the same bits: without generated
    rows, neither ``gen_weight`` nor the strategy-specific settings reach
    the trajectory.  An smprl cell behind a baseline cell still to run
    joins no earlier cell's cohort, so it waits for that cell's model
    instead of pretraining a copy.
    """
    cohort = memo.cohorts.pop(cell, None)
    if cohort is not None:
        return cohort
    cfg = spec.train_config(cell.strategy, cell.seed)
    cells = expand_cells(spec)
    key = (cell.seed, cell.n_generated, lockstep_key(cfg))
    later = [c for c in cells[cells.index(cell) + 1:] if c not in memo.cohorts and key == (
        c.seed, c.n_generated, lockstep_key(spec.train_config(c.strategy, c.seed)))]
    baseline_cell = Cell(Strategy.BASELINE, 0, cell.seed)
    if memo.baseline is None and baseline_cell in cells[cells.index(cell) + 1:]:
        later = [c for c in later if c.strategy is not Strategy.SMPRL
                 or cells.index(c) < cells.index(baseline_cell)]
    cohort = Cohort()
    for member in [cell, *later][:stack_limit(cfg, spec.n_classes)]:
        static = None
        if member.strategy is Strategy.SMPRL and generated is not None:
            if memo.baseline is None:
                _keep_baseline(memo, pretrain_baseline(real, cfg, draws=memo.draws))
            static = assign_static_labels(memo.baseline, generated)
        cohort.add(spec.train_config(member.strategy, member.seed), static)
        if member != cell:
            memo.cohorts[member] = cohort
    return cohort


def run_cell(spec: ExperimentSpec, cell: Cell, out_dir: Path, memo: RunMemo) -> CellResult:
    """Train one grid cell, write its artifacts, return its summary row.
    ``memo`` carries what the cells of one run share.

    The cell trains in its cohort (see :func:`_cohort_of`): the first
    cell of a cohort trains every member, and each later member takes the
    result the memo holds for it, which equals a training of its own bit
    for bit.  Every training of the seed replays the memo's dropout masks.
    """
    start = time.perf_counter()
    real, generated = build_datasets(spec, cell.seed, cell.n_generated, memo)
    cfg = spec.train_config(cell.strategy, cell.seed)
    cohort = _cohort_of(spec, cell, memo, real, generated)
    params, history = train(real, generated, cfg, draws=memo.draws, cohort=cohort)
    if cell.strategy is Strategy.BASELINE:
        _keep_baseline(memo, params)

    queries = extract_embeddings(params, real, "query")
    gallery = extract_embeddings(params, real, "gallery")
    report = evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels, gallery.labels)

    cell_dir = out_dir / cell.name
    cell_dir.mkdir(parents=True, exist_ok=True)
    history.to_csv(cell_dir / "history.csv")
    save_report(report, cell_dir / "report.json")

    last = history.records[-1]
    return CellResult(cell, report.rank1, report.mean_ap, last.real_loss,
                      last.gen_loss, time.perf_counter() - start)


def _run_cell_job(args):
    """A pool worker's cell: its result, or the error it raised, so the
    cells before it in a chunk still report."""
    try:
        return run_cell(*args, _worker_memo)
    except Exception as exc:
        return exc


def run_experiment(spec: ExperimentSpec, out_dir=None, jobs: int = 1,
                   progress=None) -> list[CellResult]:
    """Run every cell of the grid and write summary.csv.

    ``jobs > 1`` distributes cells over at most ``min(jobs, cells)``
    worker processes; each cell is internally deterministic, and the
    summary is assembled in sorted cell order, so parallelism never
    changes any artifact except the wall_seconds timing column.  With at
    least as many seeds as workers a worker takes a seed's cells as one
    chunk, so each seed's datasets are built and its cohorts trained
    once; with fewer seeds it takes one cell at a time, so a one-seed
    grid still runs in parallel.

    Every process of the run computes under one BLAS thread, so the
    artifacts do not depend on ``jobs`` or on the host's core count, and
    workers do not share cores with each other's BLAS threads.  The
    caller's thread count is back when the call returns or raises.
    """
    spec.validate()
    out_path = Path(out_dir if out_dir is not None else spec.out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    cells = expand_cells(spec)
    # the pool forks all of its workers at the first submit
    workers = min(jobs, len(cells))
    # expand_cells is seed-major, with as many cells for every seed
    chunk = len(cells) // len(spec.seeds) if len(spec.seeds) >= workers else 1

    results: list[CellResult] = []
    try:
        # one worker's work stays in this process, so patched module globals
        # apply; each worker process starts a memo of its own
        with _one_blas_thread(), _worker_pool(workers) if workers > 1 else nullcontext() as pool:
            if pool is None:
                memo = RunMemo()
                outcomes = (run_cell(spec, c, out_path, memo) for c in cells)
            else:
                outcomes = pool.map(_run_cell_job, [(spec, c, out_path) for c in cells],
                                    chunksize=chunk)
            for result in outcomes:
                if isinstance(result, Exception):
                    raise result
                results.append(result)
                if progress:
                    progress(result)
    except Exception as exc:
        # leave completed artifacts in place and record what broke
        failed = cells[len(results)] if len(results) < len(cells) else None
        manifest = {
            "failed_cell": failed.name if failed else "unknown",
            "error": f"{type(exc).__name__}: {exc}",
            "completed": [r.cell.name for r in results],
        }
        (out_path / "failure_manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n")
        if results:
            write_summary(results, out_path / "summary.csv")
        raise RunFailure(failed or cells[0], exc) from exc

    write_summary(results, out_path / "summary.csv")
    return results


def write_summary(results: list[CellResult], path) -> None:
    """One row per cell (sorted), plus mean rows for multi-seed groups."""
    ordered = sorted(results, key=lambda r: (r.cell.strategy.value, r.cell.n_generated,
                                             r.cell.seed))
    lines = [SUMMARY_COLUMNS]
    groups: dict[tuple[str, int], list[CellResult]] = {}
    for r in ordered:
        lines.append(
            f"{r.cell.strategy.value},{r.cell.n_generated},{r.cell.seed},"
            f"{r.rank1:.6f},{r.mean_ap:.6f},{r.l1_final:.6g},{r.l2_final:.6g},"
            f"{r.wall_seconds:.3f}"
        )
        groups.setdefault((r.cell.strategy.value, r.cell.n_generated), []).append(r)
    for (strategy, count), rows in sorted(groups.items()):
        if len(rows) < 2:
            continue
        lines.append(
            f"{strategy},{count},mean,"
            f"{np.mean([r.rank1 for r in rows]):.6f},"
            f"{np.mean([r.mean_ap for r in rows]):.6f},"
            f"{np.mean([r.l1_final for r in rows]):.6g},"
            f"{np.mean([r.l2_final for r in rows]):.6g},"
            f"{np.sum([r.wall_seconds for r in rows]):.3f}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


class RunFailure(MprlError):
    """A cell failed mid-run; partial artifacts stay on disk."""

    def __init__(self, cell: Cell, cause: Exception):
        super().__init__(f"cell {cell.name} failed: {cause}")
        self.cell = cell
        self.cause = cause
