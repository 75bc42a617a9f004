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
floats must be finite.  Each ``TrainConfig`` field but the per-cell
``strategy`` and ``seed`` comes from the spec field of the same name.
``ExperimentSpec.validate`` rejects, before any cell trains, every
dataset parameter the generator would refuse inside a cell.

The grid expands to one cell per (strategy, count, seed), except that
the baseline ignores the generated-data counts and runs once per seed.
Every cell writes ``history.csv`` and ``report.json`` into its own
directory; ``summary.csv`` aggregates one row per cell plus a mean row
per (strategy, count) group when several seeds ran.  All cell artifacts
are byte-reproducible from the spec; the summary's wall_seconds column
is the only timing (hence non-reproducible) field anywhere.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import MprlError, SpecError
# the enum annotations below resolve through these names (get_type_hints)
from .labels import TiePolicy
from .losses import GradientMode
from .net import Activation, forward
from .retrieval import evaluate, pairwise_sq_euclidean, save_report
from .synthgen import Dataset, make_generated_dataset, make_real_dataset
from .trainer import (
    Strategy,
    TrainConfig,
    assign_static_labels,
    extract_embeddings,
    pretrain_baseline,
    train,
)

# dataset sub-seed tags, composed with the cell seed
_SEED_REAL_DATA = 10
_SEED_GEN_DATA = 11

SUMMARY_COLUMNS = "strategy,n_generated,seed,rank1,mAP,l1_final,l2_final,wall_seconds"


@dataclass
class ExperimentSpec:
    n_classes: int = 8
    dim: int = 16
    n_per_class: int = 50
    cluster_spread: float = 1.0
    mix_size: int = 2
    noise: float = 0.05
    strategies: tuple[Strategy, ...] = (Strategy.BASELINE,)
    counts: tuple[int, ...] = (400,)
    seeds: tuple[int, ...] = (0,)
    epochs: int = 50
    batch_size: int = 64
    lr_initial: float = 0.1
    lr_after_decay: float = 0.01
    decay_epoch: int = 40
    momentum: float = 0.9
    gen_weight: float | None = None
    warmup_epoch: int = 20
    tie_policy: TiePolicy = TiePolicy.AVERAGE_RANK
    gradient_mode: GradientMode = GradientMode.ANALYTIC
    dropout_rate: float = 0.5
    hidden_sizes: tuple[int, ...] = (32, 16)
    init_scale: float = 1.0
    activation: Activation = Activation.RELU
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
        if not self.noise >= 0:
            raise SpecError(f"noise must be >= 0, got {self.noise!r}")
        # what dataset generation would reject inside a cell, before any cell
        if self.n_classes < 2:
            raise SpecError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.n_per_class < 4:
            raise SpecError("n_per_class must be >= 4 (train/query/gallery split), "
                            f"got {self.n_per_class}")
        if self.dim < 2:
            raise SpecError(f"dim must be >= 2, got {self.dim}")
        if not self.cluster_spread >= 0:
            raise SpecError(f"cluster_spread must be >= 0, got {self.cluster_spread!r}")
        mixes = (any(s is not Strategy.BASELINE for s in self.strategies)
                 and any(c > 0 for c in self.counts))
        if mixes and not 2 <= self.mix_size <= self.n_classes:
            raise SpecError(f"mix_size must be in 2..{self.n_classes}, got {self.mix_size}")

    def train_config(self, strategy: Strategy, seed: int) -> TrainConfig:
        """The cell's config: every other TrainConfig field is the spec's."""
        return TrainConfig(strategy=strategy, seed=seed, **{
            f.name: getattr(self, f.name) for f in fields(TrainConfig)
            if f.name not in ("strategy", "seed")})


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
    return parse_spec_text(Path(path).read_text())


@dataclass(frozen=True)
class Cell:
    strategy: Strategy
    n_generated: int
    seed: int

    @property
    def name(self) -> str:
        return f"{self.strategy.value}_n{self.n_generated}_seed{self.seed}"


def expand_cells(spec: ExperimentSpec) -> list[Cell]:
    """Grid expansion; the baseline collapses over the count axis."""
    cells = []
    for strategy in spec.strategies:
        counts = (0,) if strategy is Strategy.BASELINE else spec.counts
        for count in counts:
            for seed in spec.seeds:
                cells.append(Cell(strategy, count, seed))
    return cells


def build_datasets(spec: ExperimentSpec, seed: int, count: int) -> tuple[Dataset, Dataset | None]:
    real = make_real_dataset(
        spec.n_classes, spec.n_per_class, spec.dim, spec.cluster_spread,
        seed=(seed, _SEED_REAL_DATA),
    )
    return real, build_generated(spec, real, seed, count)


def build_generated(spec: ExperimentSpec, real: Dataset, seed: int,
                    count: int) -> Dataset | None:
    """The generated dataset of (seed, count) mixed from ``real``; None at count 0."""
    return make_generated_dataset(real, count, spec.mix_size, spec.noise,
                                  seed=(seed, _SEED_GEN_DATA)) if count > 0 else None


@dataclass
class CellResult:
    cell: Cell
    rank1: float
    mean_ap: float
    l1_final: float
    l2_final: float
    wall_seconds: float


def _train_cell(spec: ExperimentSpec, cell: Cell, real: Dataset,
                generated: Dataset | None, on_epoch=None):
    """Train a cell on the datasets its caller built (smprl with generated
    rows first pretrains the baseline that fixes its static labels);
    returns the trained parameters and the history.  ``on_epoch`` observes
    the cell's own training, never the pretraining."""
    cfg = spec.train_config(cell.strategy, cell.seed)
    static = None
    if cell.strategy is Strategy.SMPRL and generated is not None:
        static = assign_static_labels(pretrain_baseline(real, cfg), generated, cfg.tie_policy)
    return train(real, generated, cfg, static_labels=static, on_epoch=on_epoch)


def run_cell(spec: ExperimentSpec, cell: Cell, out_dir: Path | None) -> CellResult:
    """Train one grid cell, write its artifacts, return its summary row."""
    start = time.perf_counter()
    real, generated = build_datasets(spec, cell.seed, cell.n_generated)
    params, history = _train_cell(spec, cell, real, generated)

    queries = extract_embeddings(params, real, "query")
    gallery = extract_embeddings(params, real, "gallery")
    report = evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels, gallery.labels)

    if out_dir is not None:
        cell_dir = out_dir / cell.name
        cell_dir.mkdir(parents=True, exist_ok=True)
        history.to_csv(cell_dir / "history.csv")
        save_report(report, cell_dir / "report.json")

    last = history.records[-1]
    return CellResult(cell, report.rank1, report.mean_ap, last.real_loss,
                      last.gen_loss, time.perf_counter() - start)


def _run_cell_job(args):
    return run_cell(*args)


def run_experiment(spec: ExperimentSpec, out_dir=None, jobs: int = 1,
                   progress=None) -> list[CellResult]:
    """Run every cell of the grid and write summary.csv.

    ``jobs > 1`` distributes cells over worker processes; each cell is
    internally deterministic, and the summary is assembled in sorted cell
    order, so parallelism never changes any artifact except the
    wall_seconds timing column.
    """
    spec.validate()
    for strategy in spec.strategies:
        # config problems should surface before any cell trains
        spec.train_config(strategy, spec.seeds[0]).validate()
    out_path = Path(out_dir if out_dir is not None else spec.out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    cells = expand_cells(spec)

    results: list[CellResult] = []
    try:
        # --jobs 1 stays in this process, so patched module globals apply
        with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
            for result in (map if pool is None else pool.map)(
                    _run_cell_job, [(spec, c, out_path) for c in cells]):
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


def run_trace(spec: ExperimentSpec, n_samples: int, out_dir) -> tuple[Path, int]:
    """Train the first grid cell and write ``trajectory.csv``: for each of
    the ``n_samples`` lowest generated ids, the eval-mode argmax over the
    K pre-defined classes after every epoch (one ``sample_id,epoch,
    argmax_class`` row per sample and epoch, sample by sample).

    Returns the CSV path and the number of samples actually tracked
    (clipped to the generated set size).  With zero samples requested the
    CSV still appears, header only.
    """
    if n_samples < 0:
        raise SpecError("trace sample count must be >= 0")
    # first strategy, first count, first seed of the grid; trajectories are
    # forward-only so even the baseline can trace generated samples
    cell = Cell(spec.strategies[0], spec.counts[0], spec.seeds[0])
    real, generated = build_datasets(spec, cell.seed, cell.n_generated)
    tracked = min(n_samples, cell.n_generated)  # a generated set holds `count` samples
    rows = np.argsort(generated.ids)[:tracked] if tracked else None
    argmax_by_epoch = []

    def observe(record, params):
        logits, _, _ = forward(params, generated.features[rows], train_mode=False)
        argmax_by_epoch.append(np.argmax(logits[:, :real.n_classes], axis=1) + 1)

    _train_cell(spec, cell, real, generated, observe if tracked else None)

    lines = ["sample_id,epoch,argmax_class"]
    if tracked:
        for sid, series in zip(generated.ids[rows].tolist(),
                               np.transpose(argmax_by_epoch).tolist()):
            lines += [f"{sid},{epoch},{cls}" for epoch, cls in enumerate(series, start=1)]
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    csv_path = out_path / "trajectory.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    return csv_path, tracked


class RunFailure(MprlError):
    """A cell failed mid-run; partial artifacts stay on disk."""

    def __init__(self, cell: Cell, cause: Exception):
        super().__init__(f"cell {cell.name} failed: {cause}")
        self.cell = cell
        self.cause = cause
