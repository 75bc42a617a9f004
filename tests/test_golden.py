"""Golden artifacts: the desk benchmark grid at seed 1, pinned to the byte.

Every cell of ``benchmark.spec`` (seven strategies, 400 generated
samples) is trained at seed 1 and each ``report.json`` and
``history.csv`` is compared by SHA-256 against the digests below; the
history pins every epoch's losses and accuracies, so a change that moves
a trajectory but lands on the same report still shows.  A small wide
grid (K = 151) pins every ``report.json`` and ``history.csv`` too: at
K = 8 a row sum has at most 8 terms, which numpy adds one by one in any
layout, so only a wide row shows a sum taken in another order (a
generated row's value or weight sum, say).  The log1p value of a
real row at the top logit is too small against its batch's mean loss to
show in any grid; ``tests/test_losses.py`` pins it bit for bit.  A small
two-seed grid pins every ``report.json`` and ``history.csv`` at
``--jobs`` 1 and 2, which covers the seed-major cell order and what the
cells of one run share.  The stdout of ``mprl gradcheck --trials 5`` at
the default K values is pinned for seeds 0-3, and so is every file
``mprl gen-data --spec benchmark.spec --seed 1`` writes.
A refactor that claims to leave the numbers alone must leave these
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

# cell/artifact -> sha256; rank-1 is 1.0 everywhere, mAP in the comment
GOLDEN_BENCHMARK_SHA256 = {
    "all_in_one_n400_seed1/history.csv":
        "121f91688905391399f1c02f62e8e45660ffcc8f35fec9d261574b95df01412f",
    "all_in_one_n400_seed1/report.json":
        "43ac0ff1218d46afe6edcaaf56880cfe507e18cc107ff58c9bf84ad1705139d7",  # 0.980366
    "baseline_n0_seed1/history.csv":
        "6b4e12fe76c526fa6f1e634f92486cc0116d112beb4453b64db02c9bf1f990a9",
    "baseline_n0_seed1/report.json":
        "a11adbb365df8029007804d09127ed6f39a72dc92594bd438198924a7ee735a5",  # 0.981592
    "dmprl1_n400_seed1/history.csv":
        "5f727d8c2880b0afdf52eda3781a7e11f350cb616381dabe8350a544acd9ad8f",
    "dmprl1_n400_seed1/report.json":
        "a3b55158d424abb08afaf2ec1ba73ea8859cf323da37bc2710f42fca43390587",  # 0.895015
    "dmprl2_n400_seed1/history.csv":
        "27cf3ac5677346eb905e8a29d8c6a35f8af2e7efc3ee5fe975ef7f95d5640dc8",
    "dmprl2_n400_seed1/report.json":
        "9861a58c065f142fffb3bc00d587facbd57f29802c691428b4eb36b28dc37234",  # 0.968647
    "lsro_n400_seed1/history.csv":
        "c675e54cc5c162594859cb7e7b916ebb1a8b34949d752ce6bf9eecb1b2ca7ef5",
    "lsro_n400_seed1/report.json":
        "17183ecb55b52688df18d3efe258a95cdc8cc75fc1c3eaf743ffc98115c54b88",  # 0.824079
    "one_hot_pseudo_n400_seed1/history.csv":
        "d91fed5e61633e4bb73fe4697319a152f37920e2e49696f245eb944a4b1b4a0c",
    "one_hot_pseudo_n400_seed1/report.json":
        "85155a2804a3366b7d7e428cf1ac00408dd3574b21086463062cb5d532a76cc1",  # 0.989630
    "smprl_n400_seed1/history.csv":
        "1170d7d376d5dc95bb146153d42af8e65ffc53416d63a43e63ac19c8b2cb1e55",
    "smprl_n400_seed1/report.json":
        "44fcd936773544e745cb01cfe9dbd87bdb4995880f0b8f06350b7f7af06faf75",  # 0.899074
}


def test_benchmark_spec_seed_1_reports_are_byte_identical(tmp_path):
    spec = replace(parse_spec(ROOT / "benchmark.spec"), seeds=(1,))
    run_experiment(spec, out_dir=tmp_path)
    got = {f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(tmp_path.glob("*/*"))
           if path.name in ("report.json", "history.csv")}
    assert got == GOLDEN_BENCHMARK_SHA256


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


# two seeds, counts 0 and > 0, the baseline, LSRO and two MpRL strategies:
# covers the seed-major cell order, the per-run dataset memo and the smprl
# cells labelling with their seed's baseline cell's model, at --jobs 1 and 2
SMALL_GRID_SPEC = """\
n_classes      = 6
dim            = 8
n_per_class    = 8
strategies     = baseline, lsro, smprl, dmprl1
counts         = 0, 24, 48
seeds          = 1, 2
epochs         = 6
batch_size     = 16
lr_initial     = 0.05
lr_after_decay = 0.005
decay_epoch    = 4
warmup_epoch   = 2
dropout_rate   = 0.25
hidden_sizes   = 12, 8
gen_weight     = 0.5
"""

# cell/artifact -> sha256, computed before cells shared datasets or models
GOLDEN_SMALL_GRID_SHA256 = {
    "baseline_n0_seed1/history.csv":
        "8ace7cd0d403712b2ebf641268252e5642a9e9056de58a8ecb2dd30c319916db",
    "baseline_n0_seed1/report.json":
        "04683e78c00a7e07f4545037371bde7c85c5aea8844e13f6522fb1d8ba3182f9",
    "baseline_n0_seed2/history.csv":
        "dbda4c10212e97632ce7c2aa281c0d00a0439389d54716f71f6ba40aff3866f5",
    "baseline_n0_seed2/report.json":
        "cef48822b68f6d3bd3d70d698085c67e126d0a7a5dbb110a14e15720e7f81c40",
    "dmprl1_n0_seed1/history.csv":
        "8ace7cd0d403712b2ebf641268252e5642a9e9056de58a8ecb2dd30c319916db",
    "dmprl1_n0_seed1/report.json":
        "04683e78c00a7e07f4545037371bde7c85c5aea8844e13f6522fb1d8ba3182f9",
    "dmprl1_n0_seed2/history.csv":
        "dbda4c10212e97632ce7c2aa281c0d00a0439389d54716f71f6ba40aff3866f5",
    "dmprl1_n0_seed2/report.json":
        "cef48822b68f6d3bd3d70d698085c67e126d0a7a5dbb110a14e15720e7f81c40",
    "dmprl1_n24_seed1/history.csv":
        "59d49afd2cb5b4b7c155bc31f74a27fa389f3b21f2dedeedb14a1147729aebf9",
    "dmprl1_n24_seed1/report.json":
        "d86deb08690176b4d40051559f1f85a9f6d4a2ebe77cc86b04e9d61627cf2fcf",
    "dmprl1_n24_seed2/history.csv":
        "4f5da67224a90e22aa82d62ca1acd63db4eac7c6834756dd6244e4f00ad3b2de",
    "dmprl1_n24_seed2/report.json":
        "075347b9850b3d6b6fa2e89800d9e074bdd5896b29fc085d7a4154b595c5ab04",
    "dmprl1_n48_seed1/history.csv":
        "c6dceebe45bbbb13c55f7a6f97a2575473d50e86c58a684f719082fa941ad3e5",
    "dmprl1_n48_seed1/report.json":
        "788c6d30ac21a7eb7756cd6e819241989fdaf13468036cfc3905297b8412f49d",
    "dmprl1_n48_seed2/history.csv":
        "272f802641f3184ced3905e749598b9defc5f08b65ea8ac849d57f0b158cddc5",
    "dmprl1_n48_seed2/report.json":
        "1754bfe18dec241bc9f97e5a5a6fdfa64db2f5e48a67d7971035ab07b5ea98d5",
    "lsro_n0_seed1/history.csv":
        "8ace7cd0d403712b2ebf641268252e5642a9e9056de58a8ecb2dd30c319916db",
    "lsro_n0_seed1/report.json":
        "04683e78c00a7e07f4545037371bde7c85c5aea8844e13f6522fb1d8ba3182f9",
    "lsro_n0_seed2/history.csv":
        "dbda4c10212e97632ce7c2aa281c0d00a0439389d54716f71f6ba40aff3866f5",
    "lsro_n0_seed2/report.json":
        "cef48822b68f6d3bd3d70d698085c67e126d0a7a5dbb110a14e15720e7f81c40",
    "lsro_n24_seed1/history.csv":
        "044208c58ca1ba399e19cb1a00b66c59175310b5853ad3f5721f5be0b7f2bac3",
    "lsro_n24_seed1/report.json":
        "cbb1b9b600a57aaa592163588d27c2b601b38ef1cab4e356567d5bd76bc83ff5",
    "lsro_n24_seed2/history.csv":
        "c1d458e2d0332cfb42430d14454b530863e4391ef980b174937192cbda38bcf9",
    "lsro_n24_seed2/report.json":
        "39bf2da10be91844fdb30ed235126100788462a153b5c89c84d43d049e63d248",
    "lsro_n48_seed1/history.csv":
        "f44a8bf3593a76e668aae0b29463e58f271092cb5c8ca0dbf5a25489e3f7d95a",
    "lsro_n48_seed1/report.json":
        "94b6a0b22fbdecafb0c21a349920ea050b7a2c2865c5d2e96c1a1f059cab6773",
    "lsro_n48_seed2/history.csv":
        "a34c129f4b06e723b562aba423cbe452e75538b93004c85a496880baefeecdb5",
    "lsro_n48_seed2/report.json":
        "30d8f0915295ddb81222c9943f069286020fea80aba2b0f58e841e32006415b9",
    "smprl_n0_seed1/history.csv":
        "8ace7cd0d403712b2ebf641268252e5642a9e9056de58a8ecb2dd30c319916db",
    "smprl_n0_seed1/report.json":
        "04683e78c00a7e07f4545037371bde7c85c5aea8844e13f6522fb1d8ba3182f9",
    "smprl_n0_seed2/history.csv":
        "dbda4c10212e97632ce7c2aa281c0d00a0439389d54716f71f6ba40aff3866f5",
    "smprl_n0_seed2/report.json":
        "cef48822b68f6d3bd3d70d698085c67e126d0a7a5dbb110a14e15720e7f81c40",
    "smprl_n24_seed1/history.csv":
        "9e26bcdf21ce17ac180feca64a2290d76859b25873b51f7cdf33c43933c15d64",
    "smprl_n24_seed1/report.json":
        "3286597c7b0f967d0d171ca9cb3fa5f8c7cf8b1faebc3996b288aa48cbd9062f",
    "smprl_n24_seed2/history.csv":
        "6b028f3b0c7eeec4bcedccdcabc18900e3cd441a214c69b1671988c69c9b151f",
    "smprl_n24_seed2/report.json":
        "40a81bdf8f664f6f04a867b903e4b40e4aa5e4bb71e14fb1f1027e7fc4f33cf6",
    "smprl_n48_seed1/history.csv":
        "9fd4be60a8c5be999ea48c303e4fd7ed786ff066b9431c2caebb99c368cb5732",
    "smprl_n48_seed1/report.json":
        "94b6a0b22fbdecafb0c21a349920ea050b7a2c2865c5d2e96c1a1f059cab6773",
    "smprl_n48_seed2/history.csv":
        "407b8a20507902f99f6aa62152ee08896e9a9bdde15d7b1b7296116db2cbd8c9",
    "smprl_n48_seed2/report.json":
        "08fa430c730104ef5acc4d5e189183544373cf345377aa92fb19559115d63722",
}


@pytest.mark.parametrize("jobs", [1, 2])
def test_small_grid_artifacts_are_byte_identical(tmp_path, jobs):
    run_experiment(parse_spec_text(SMALL_GRID_SPEC), out_dir=tmp_path, jobs=jobs)
    got = {f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(tmp_path.glob("*/*"))
           if path.name in ("report.json", "history.csv")}
    assert got == GOLDEN_SMALL_GRID_SHA256


# seed -> sha256 of the stdout of `mprl gradcheck --trials 5 --seed s` at the
# default K values (2, 5, 10, 751)
GOLDEN_GRADCHECK_SHA256 = {
    0: "c71672d6e0792ddf10d6004ac625c25b843979f0452f1e5ee504496e16827c90",
    1: "a8ba36a8ffb3fc6428f9f10a0940f20f861ede54bf70af7cbd0c4a75e461b4df",
    2: "4195aae172734e784ff3b5bb684b69a0c96255ad378388134a006012531a7bf3",
    3: "95ebc48c91a333611cc56edd9b7cae64dd8f957610da256968ccd11c78d69544",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_GRADCHECK_SHA256))
def test_gradcheck_stdout_is_byte_identical(capsys, seed):
    assert main(["gradcheck", "--trials", "5", "--seed", str(seed)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN_GRADCHECK_SHA256[seed]


# file -> sha256 of what `mprl gen-data --spec benchmark.spec --seed 1` writes
GOLDEN_GEN_DATA_SHA256 = {
    "generated_n400_seed1.txt":
        "ea953af5bb3775ceeb05a7ecd763b14e708580772798754e5274e1332a9ea05b",
    "real_seed1.txt":
        "a40a4536fca91308303c5424b9b471decb36f90d5401a7fca96b3fe040f63768",
}


def test_gen_data_files_are_byte_identical(tmp_path):
    assert main(["gen-data", "--spec", str(ROOT / "benchmark.spec"), "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(tmp_path.iterdir())}
    assert got == GOLDEN_GEN_DATA_SHA256
