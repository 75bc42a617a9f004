"""Each spec name's row of ``mprl.labels.SCHEMES``, read through the code
that uses it: the labels ``virtual_labels`` gives, the schedule a training
member applies, the head width and the default ``gen_weight``.

The expected values are written out by hand, one row per name, so a table
edit that changes what a strategy does fails here.
"""

import numpy as np
import pytest
from test_labels import TOY, TOY_WITH_EXTRA

from mprl.errors import InvalidConfig
from mprl.labels import SCHEMES, Strategy, mprl_rows, virtual_labels
from mprl.synthgen import make_generated_dataset, make_real_dataset
from mprl.trainer import _SEED_FIRST_ITER, TrainConfig, _Member

# the labels of the toy logits (all-in-one's with their extra column), as
# the one branch per strategy before the table gave them
RANKS = np.array([[2.0, 1.0, 3.0], [3.0, 2.0, 1.0], [1.0, 3.0, 2.0], [2.0, 3.0, 1.0]]) / 6.0
TOP1 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
EXTRA = np.tile([0.0, 0.0, 0.0, 1.0], (4, 1))
UNIFORM = np.full((4, 3), 1.0 / 3.0)

# name: (toy labels or None, schedule, head width at K = 751, default gen_weight)
ROWS = {
    "baseline": (None, "real only", 751, 1.0),
    "all_in_one": (EXTRA, "dynamic", 752, 1.0),
    "one_hot_pseudo": (TOP1, "dynamic", 751, 1.0),
    "lsro": (UNIFORM, "dynamic", 751, 1.0),
    "smprl": (RANKS, "static", 751, 1.0),
    "dmprl1": (RANKS, "random start", 751, 1.0),
    "dmprl2": (RANKS, "gated", 751, 0.1),
}
WARMUP = 3
# generated rows of the batch, as positions in the generated set
POSITIONS = np.array([4, 0, 7, 2])


@pytest.fixture(scope="module")
def real():
    return make_real_dataset(3, 6, 4, cluster_spread=0.4, seed=100)


@pytest.fixture(scope="module")
def generated(real):
    return make_generated_dataset(real, 9, mix_size=2, noise=0.05, seed=200)


def expected_labels(name, logits, static, epoch, batch_idx, first_batch):
    """What the member of ``name`` labels a batch's generated rows with."""
    schedule = ROWS[name][1]
    if schedule == "gated" and epoch < WARMUP:
        return None
    if schedule == "static":
        return static[POSITIONS]
    if schedule == "random start" and (epoch, batch_idx) == (1, 0):
        return first_batch
    return virtual_labels(name, logits)


def test_the_table_names_every_strategy():
    assert set(SCHEMES) == set(Strategy) == set(ROWS)


@pytest.mark.parametrize("name", ROWS)
def test_each_row_gives_its_labels_schedule_head_and_gen_weight(name, real, generated):
    labels, schedule, head, gen_weight = ROWS[name]
    cfg = TrainConfig(Strategy(name), epochs=5, warmup_epoch=WARMUP, seed=7)
    assert cfg.scheme is SCHEMES[name]
    assert 751 + cfg.scheme.extra_classes == head
    assert cfg.resolved_gen_weight() == gen_weight

    logits = TOY_WITH_EXTRA if head == 752 else TOY
    if labels is None:
        with pytest.raises(InvalidConfig, match=name):
            virtual_labels(name, logits)
    else:
        assert virtual_labels(name, logits).tobytes() == labels.tobytes()

    static = np.arange(27.0).reshape(9, 3)
    member = _Member(cfg, real, generated, static, None)
    if schedule == "real only":
        assert member.n_generated == 0
        return
    assert member.n_generated == len(generated)
    # random permutations p of the classes rank to exactly p + 1
    perms = np.random.default_rng((7, _SEED_FIRST_ITER))
    first_batch = mprl_rows(np.stack([perms.permutation(3) for _ in TOY]) + 1.0)
    for epoch in (1, 2, WARMUP, 4):
        for batch_idx in (0, 1):
            got = member.labels(logits, POSITIONS, epoch, batch_idx)
            want = expected_labels(name, logits, static, epoch, batch_idx, first_batch)
            if want is None:
                assert got is None, (epoch, batch_idx)
            else:
                assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (epoch, batch_idx)
