"""Output checks.  Each returns a list of problems; an empty list passes.

The checks read only what the program returned or wrote, and recompute
retrieval results with an oracle that shares no code with the program.
"""

from __future__ import annotations

import json
import math

import numpy as np

REPORT_TOLERANCE = 1e-6  # reports print six decimals


def check_history(records, epochs: int) -> list[str]:
    """Every epoch recorded, every recorded value finite."""
    problems = []
    if len(records) != epochs:
        problems.append(f"history has {len(records)} epochs, expected {epochs}")
    for r in records:
        values = (r.real_loss, r.gen_loss, r.combined, r.train_acc, r.lr, r.gen_grad_norm)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"epoch {r.epoch}: non-finite history entry {values}")
    return problems


def check_warmup_gate(records, warmup_epoch: int) -> list[str]:
    """dmprl2: no generated-side gradient before the warm-up epoch, some after."""
    problems = []
    for r in records:
        if r.epoch < warmup_epoch and r.gen_grad_norm != 0.0:
            problems.append(f"epoch {r.epoch} < warm-up {warmup_epoch}: "
                            f"gen_grad_norm {r.gen_grad_norm!r} != 0")
        if r.epoch >= warmup_epoch and not r.gen_grad_norm > 0.0:
            problems.append(f"epoch {r.epoch} >= warm-up {warmup_epoch}: "
                            f"gen_grad_norm {r.gen_grad_norm!r} not > 0")
    return problems


def check_scores(rank1: float, mean_ap: float) -> list[str]:
    if 0.0 <= rank1 <= 1.0 and 0.0 <= mean_ap <= 1.0:
        return []
    return [f"rank1 {rank1!r} or mAP {mean_ap!r} outside [0, 1]"]


def check_cell_report(report_text: str, rank1: float, mean_ap: float) -> list[str]:
    """A cell's report.json agrees with the summary row the grid returned."""
    try:
        report = json.loads(report_text)
        written = (float(report["rank1"]), float(report["mAP"]))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable cell report: {exc}"]
    if (abs(written[0] - rank1) > REPORT_TOLERANCE
            or abs(written[1] - mean_ap) > REPORT_TOLERANCE):
        return [f"report.json {written} disagrees with result ({rank1}, {mean_ap})"]
    return check_scores(*written)


# --- retrieval oracle -------------------------------------------------------

def oracle_ranks(query_vectors, query_labels, gallery_vectors, gallery_labels):
    """Per query: 1-based ranks of its relevant gallery items.

    Gallery items are ordered by ascending squared distance, ties broken
    by gallery index (``np.lexsort`` keys: index, then distance).
    """
    gallery_index = np.arange(len(gallery_labels))
    ranks = []
    for vector, label in zip(query_vectors, query_labels):
        diff = gallery_vectors - vector
        dist = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((gallery_index, dist))
        ranks.append(np.flatnonzero(gallery_labels[order] == label) + 1)
    return ranks


def brute_force_ranks(query_vector, query_label, gallery_vectors, gallery_labels):
    """Pure-Python sorted() reference for one query."""
    q = [float(v) for v in query_vector]
    dist = [sum((float(g) - qv) ** 2 for g, qv in zip(row, q)) for row in gallery_vectors]
    order = sorted(range(len(dist)), key=lambda j: (dist[j], j))
    return [pos + 1 for pos, j in enumerate(order) if gallery_labels[j] == query_label]


def expected_report(ranks, n_gallery: int) -> dict:
    """rank1, mAP and the CMC curve from per-query relevant ranks."""
    first = np.array([r[0] for r in ranks])
    aps = [float(np.mean(np.arange(1, len(r) + 1) / r)) for r in ranks]
    cmc = np.array([np.mean(first <= k) for k in range(1, n_gallery + 1)])
    return {"rank1": float(cmc[0]), "mAP": float(np.mean(aps)), "cmc": cmc}


def check_retrieval_report(report_text: str, expected: dict) -> list[str]:
    """The ``mprl eval`` JSON report equals the oracle's to print precision."""
    try:
        report = json.loads(report_text)
        rank1, mean_ap = float(report["rank1"]), float(report["mAP"])
        cmc = np.asarray(report["cmc"], dtype=np.float64)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable retrieval report: {exc}"]
    problems = check_scores(rank1, mean_ap)
    if abs(rank1 - expected["rank1"]) > REPORT_TOLERANCE:
        problems.append(f"rank1 {rank1} != oracle {expected['rank1']:.6f}")
    if abs(mean_ap - expected["mAP"]) > REPORT_TOLERANCE:
        problems.append(f"mAP {mean_ap} != oracle {expected['mAP']:.6f}")
    if cmc.shape != expected["cmc"].shape:
        problems.append(f"cmc has {cmc.size} entries, oracle {expected['cmc'].size}")
    elif np.max(np.abs(cmc - expected["cmc"])) > REPORT_TOLERANCE:
        problems.append("cmc curve differs from the oracle")
    return problems


def check_gradcheck(report) -> list[str]:
    if report.passed and report.cases:
        return []
    failing = [f"{c.loss_name} K={c.n_classes} err={c.max_rel_error:.3e}"
               for c in report.cases if not c.passed]
    return [f"gradcheck did not pass: {failing or 'no cases'}"]
