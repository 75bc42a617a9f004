"""Golden artifacts: the desk benchmark grid at seed 1, pinned to the byte.

Every cell of ``benchmark.spec`` (seven strategies, 400 generated
samples) is trained at seed 1 and each ``report.json`` is compared by
SHA-256 against the digests below; so is the ``trajectory.csv`` that
``mprl trace --samples 5`` writes with dmprl2 (dynamic labels, warm-up
gate) and with smprl (pretrained static labels) as the first strategy.
A refactor that claims to leave the numbers alone must leave these
digests alone; a change that moves them on purpose re-pins them and
says why.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from mprl.cli import main
from mprl.experiment import parse_spec, run_experiment

ROOT = Path(__file__).resolve().parents[1]

# cell -> sha256 of report.json; rank-1 is 1.0 everywhere, mAP in the comment
GOLDEN_REPORT_SHA256 = {
    "all_in_one_n400_seed1":
        "43ac0ff1218d46afe6edcaaf56880cfe507e18cc107ff58c9bf84ad1705139d7",  # 0.980366
    "baseline_n0_seed1":
        "a11adbb365df8029007804d09127ed6f39a72dc92594bd438198924a7ee735a5",  # 0.981592
    "dmprl1_n400_seed1":
        "a3b55158d424abb08afaf2ec1ba73ea8859cf323da37bc2710f42fca43390587",  # 0.895015
    "dmprl2_n400_seed1":
        "9861a58c065f142fffb3bc00d587facbd57f29802c691428b4eb36b28dc37234",  # 0.968647
    "lsro_n400_seed1":
        "17183ecb55b52688df18d3efe258a95cdc8cc75fc1c3eaf743ffc98115c54b88",  # 0.824079
    "one_hot_pseudo_n400_seed1":
        "85155a2804a3366b7d7e428cf1ac00408dd3574b21086463062cb5d532a76cc1",  # 0.989630
    "smprl_n400_seed1":
        "44fcd936773544e745cb01cfe9dbd87bdb4995880f0b8f06350b7f7af06faf75",  # 0.899074
}


def test_benchmark_spec_seed_1_reports_are_byte_identical(tmp_path):
    spec = replace(parse_spec(ROOT / "benchmark.spec"), seeds=(1,))
    run_experiment(spec, out_dir=tmp_path)
    reports = sorted(tmp_path.glob("*/report.json"))
    got = {path.parent.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in reports}
    assert got == GOLDEN_REPORT_SHA256, [path.read_text()[:40] for path in reports]


# first strategy of the grid -> sha256 of trajectory.csv (5 samples, 50 epochs)
GOLDEN_TRACE_SHA256 = {
    "dmprl2": "adc03d105acc3c6588e254ac8bab54906a72ce15b3c4677bcd0339a495956087",
    "smprl": "19a1341a01c74ff4020ca46a0119729251de06388b9278f31093de24b120b29d",
}


@pytest.mark.parametrize("first", sorted(GOLDEN_TRACE_SHA256))
def test_benchmark_spec_seed_1_traces_are_byte_identical(tmp_path, first):
    text = (ROOT / "benchmark.spec").read_text()
    rows = []
    for row in text.splitlines():
        if row.startswith("strategies"):
            row = f"strategies = {first}, baseline"
        elif row.startswith("seeds"):
            row = "seeds = 1"
        rows.append(row)
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "trace"
    assert main(["trace", "--spec", str(spec_path), "--samples", "5", "--out", str(out)]) == 0
    got = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
    assert got == GOLDEN_TRACE_SHA256[first]
