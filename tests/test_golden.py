"""Golden artifacts: the desk benchmark grid at seed 1, pinned to the byte.

Every cell of ``benchmark.spec`` (seven strategies, 400 generated
samples) is trained at seed 1 and each ``report.json`` is compared by
SHA-256 against the digests below; so is the ``trajectory.csv`` that
``mprl trace --samples 5`` writes with dmprl2 (dynamic labels, warm-up
gate) and with smprl (pretrained static labels) as the first strategy.
A small wide grid (K = 151) pins every ``report.json`` and
``history.csv`` too: at K = 8 a row sum has at most 8 terms, which numpy
adds one by one in any layout, so only a wide row shows a sum taken in
another order (a generated row's value or weight sum, say).  The log1p
value of a real row at the top logit is too small against its batch's
mean loss to show in either grid; ``tests/test_losses.py`` pins it bit
for bit.  A refactor that claims to leave the numbers alone must leave these
digests alone; a change that moves them on purpose re-pins them and
says why.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from mprl.cli import main
from mprl.experiment import parse_spec, parse_spec_text, run_experiment

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


# all seven strategies at K = 151 on a few epochs: every row sum has 150
# or 151 terms, so numpy adds them pairwise
WIDE_GRID_SPEC = """\
n_classes      = 151
dim            = 16
n_per_class    = 6
strategies     = baseline, all_in_one, one_hot_pseudo, lsro, smprl, dmprl1, dmprl2
counts         = 300
seeds          = 1
epochs         = 4
warmup_epoch   = 2
decay_epoch    = 3
lr_initial     = 0.02
lr_after_decay = 0.002
dropout_rate   = 0.25
"""

# cell/artifact -> sha256
GOLDEN_WIDE_SHA256 = {
    "all_in_one_n300_seed1/history.csv":
        "b010fb6b5b2869ac9257ddbd5c51620ea88513a9651d7a3c81fd6c86f9738c7a",
    "all_in_one_n300_seed1/report.json":
        "8b037770953024f01899cdbe5930fbb0cf025ce2ad5673f01120d294e24cbd5c",
    "baseline_n0_seed1/history.csv":
        "b3aecf32d065f1faffb86722cd3be04386e7f2da2fefaccbe2f9b1844b1f4522",
    "baseline_n0_seed1/report.json":
        "4eabc02f81ed1287f1170d6123d4beddffd1cd0ed6daa27de22c16bb5aeb7b1d",
    "dmprl1_n300_seed1/history.csv":
        "2c06ef8a9796f07d672a522b186e4f7b229593fbb3eb7e3115f4b87cb3aa860d",
    "dmprl1_n300_seed1/report.json":
        "ee208469276269b9384fdab6ea0ee64dacb06a780ae8d41e28bc1dde48b45a6d",
    "dmprl2_n300_seed1/history.csv":
        "58810f8164d95b2807ff0e219b0bce2841398a94195a572351da2933189462d8",
    "dmprl2_n300_seed1/report.json":
        "24cf181c3012540cafd2b67dd7f29c322c424ac14a21f8f46f2fb54a4e0c0e19",
    "lsro_n300_seed1/history.csv":
        "4cf7e4f78b52938c75903ed82e0bae13712e6ad1e26510141dd603296ae8dc86",
    "lsro_n300_seed1/report.json":
        "8cedd8e4e01681ee87b39ec0072c2b523fd11597d1522cc8aa69831903a12e85",
    "one_hot_pseudo_n300_seed1/history.csv":
        "819c523db1254c126a1ebf9e2549c39e461e9104a0e8d2e7820ffa38783fae4e",
    "one_hot_pseudo_n300_seed1/report.json":
        "af31284e59261ec214579659e00f0e991b9e6b0d3cf70c7014cb0d5c7ebedfe6",
    "smprl_n300_seed1/history.csv":
        "aab69792c774af648ff68c0ed3dc9817c9e804d265ba7c64cdec43239407ed05",
    "smprl_n300_seed1/report.json":
        "68b3bde7defdd2c413272c0817d182170df47dff278e676dc457a71e9174d15e",
}


def test_wide_grid_artifacts_are_byte_identical(tmp_path):
    run_experiment(parse_spec_text(WIDE_GRID_SPEC), out_dir=tmp_path)
    got = {f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(tmp_path.glob("*/*"))
           if path.name in ("report.json", "history.csv")}
    assert got == GOLDEN_WIDE_SHA256
