"""The wide-row entry points run under a small ufunc buffer: no result
depends on it, and the caller's buffer comes back, also on error."""

import numpy as np
import pytest

from mprl import gradcheck
from mprl.errors import InvalidConfig, MprlError, ProtocolViolation
from mprl.labels import mprl_rows, row_ranks
from mprl.losses import combined_loss
from mprl.net import backward, forward, init_params
from mprl import retrieval
from mprl.retrieval import (
    UFUNC_BUFFER,
    EmbeddingSet,
    evaluate,
    pairwise_sq_euclidean,
    small_ufunc_buffer,
    sq_euclidean_blocks,
)
from mprl.synthgen import make_generated_dataset, make_real_dataset
from mprl.trainer import SeedDraws, Strategy, TrainConfig, assign_static_labels, train

DEFAULT_BUFFER = 8192
CALLER_BUFFER = 4096  # neither numpy's default nor the helper's


@pytest.fixture
def caller_buffer():
    """A caller that has set its own buffer size and error state."""
    old_size = np.setbufsize(CALLER_BUFFER)
    old_err = np.seterr(over="raise")
    yield
    np.seterr(**old_err)
    np.setbufsize(old_size)


def at_default_buffer(fn, *args):
    old = np.setbufsize(DEFAULT_BUFFER)
    try:
        return fn(*args)
    finally:
        np.setbufsize(old)


def under_helper(fn, *args):
    with small_ufunc_buffer():
        assert np.getbufsize() == UFUNC_BUFFER
        return fn(*args)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestHelper:
    def test_restores_the_caller_on_return_and_on_error(self, caller_buffer):
        with small_ufunc_buffer():
            assert np.getbufsize() == UFUNC_BUFFER
        assert np.getbufsize() == CALLER_BUFFER
        with pytest.raises(KeyError):
            with small_ufunc_buffer():
                raise KeyError("inside")
        assert np.getbufsize() == CALLER_BUFFER
        assert np.geterr()["over"] == "raise"

    def test_as_a_decorator_each_call_and_nested(self, caller_buffer):
        seen = []

        @small_ufunc_buffer()
        def inner(depth):
            seen.append(np.getbufsize())
            if depth:
                inner(depth - 1)
                seen.append(np.getbufsize())
            return depth

        assert inner(2) == 2 and inner(0) == 0
        assert seen == [UFUNC_BUFFER] * 6
        assert np.getbufsize() == CALLER_BUFFER


@pytest.fixture(scope="module")
def real():
    return make_real_dataset(3, 6, 4, cluster_spread=0.4, seed=100)


@pytest.fixture(scope="module")
def generated(real):
    return make_generated_dataset(real, 9, mix_size=2, noise=0.05, seed=200)


def quick_config(strategy, **overrides):
    return TrainConfig(strategy=strategy, epochs=2, batch_size=8, hidden_sizes=(8, 6),
                       seed=7, **overrides)


class TestEntryPointsRestoreTheCaller:
    def test_train_and_static_labels(self, caller_buffer, real, generated):
        params, _ = train(real, generated, quick_config(Strategy.LSRO))
        assert np.getbufsize() == CALLER_BUFFER
        assign_static_labels(params, generated)
        assert np.getbufsize() == CALLER_BUFFER

    def test_train_on_a_rejected_config(self, caller_buffer, real, generated):
        with pytest.raises(InvalidConfig):
            train(real, generated, quick_config(Strategy.LSRO, gen_weight=0.0))
        assert np.getbufsize() == CALLER_BUFFER
        assert np.geterr()["over"] == "raise"

    def test_train_on_non_finite_logits(self, caller_buffer, real, generated):
        with pytest.raises(MprlError, match="finite"):
            train(real, generated, quick_config(Strategy.DMPRL1, lr_initial=1e300))
        assert np.getbufsize() == CALLER_BUFFER
        assert np.geterr()["over"] == "raise"

    def test_sq_euclidean_on_mismatched_widths(self, caller_buffer):
        with pytest.raises((ValueError, IndexError)):
            list(sq_euclidean_blocks(np.ones((3, 4)), np.ones((2, 2))))
        assert np.getbufsize() == CALLER_BUFFER

    def test_between_distance_blocks(self, caller_buffer, monkeypatch):
        monkeypatch.setattr(retrieval, "BLOCK_BYTES", 1)  # one row per block
        rng = np.random.default_rng(2)
        queries = EmbeddingSet(np.arange(4), [1, 2, 1, 2], rng.normal(size=(4, 3)))
        gallery = EmbeddingSet(np.arange(6), [1, 2] * 3, rng.normal(size=(6, 3)))
        seen = [(np.getbufsize(), np.geterr()["over"])
                for _ in sq_euclidean_blocks(queries.vectors, gallery.vectors)]
        assert seen == [(CALLER_BUFFER, "raise")] * 4
        abandoned = sq_euclidean_blocks(queries.vectors, gallery.vectors)
        next(abandoned)
        del abandoned
        assert np.getbufsize() == CALLER_BUFFER
        assert np.geterr()["over"] == "raise"

    def test_evaluate_after_an_overflow_in_a_middle_block(self, caller_buffer, monkeypatch):
        # the caller raises on overflow; the kernel's own errstate turns the
        # second query's distances into inf, which evaluate then rejects
        monkeypatch.setattr(retrieval, "BLOCK_BYTES", 1)
        queries = EmbeddingSet(np.arange(3), [1, 1, 1], [[0.0, 0.0], [1e200, 0.0], [1.0, 1.0]])
        gallery = EmbeddingSet(np.arange(2), [1, 2], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ProtocolViolation, match="finite"):
            evaluate(pairwise_sq_euclidean(queries, gallery), queries.labels,
                     gallery.labels)
        assert np.getbufsize() == CALLER_BUFFER
        assert np.geterr()["over"] == "raise"

    def test_run_gradcheck_on_a_rejected_config(self, caller_buffer):
        gradcheck.run_gradcheck(k_values=(3,), trials=1)
        assert np.getbufsize() == CALLER_BUFFER
        with pytest.raises(InvalidConfig):
            gradcheck.run_gradcheck(trials=0)
        assert np.getbufsize() == CALLER_BUFFER


class TestResultsDoNotDependOnTheBuffer:
    """Each result at numpy's default buffer equals the one under the
    helper bit for bit, at shapes where the default buffer copies the
    broadcast operand and the helper's does not."""

    K = 751

    def batch(self, n_generated):
        rng = np.random.default_rng(n_generated)
        logits = rng.normal(0.0, 3.0, size=(64, self.K))
        classes = rng.integers(0, self.K, 64)
        classes[:n_generated] = -1
        # a real row whose class holds the top logit, by a huge margin
        logits[-1, classes[-1]] = 1e3
        gen_weights = (mprl_rows(row_ranks(logits[:n_generated]))
                       if n_generated else None)
        return logits, classes, gen_weights

    @pytest.mark.parametrize("n_generated", [0, 20])
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_combined_loss(self, n_generated, diagonal):
        args = (*self.batch(n_generated), 0.5, diagonal)
        want = at_default_buffer(combined_loss, *args)
        got = under_helper(combined_loss, *args)
        for name in ("value", "real_loss", "gen_loss"):
            assert same_bits(getattr(got, name), getattr(want, name))
        assert same_bits(got.grad_logits, want.grad_logits)

    def test_forward_and_backward(self):
        params = init_params((64, 128, 64, self.K), seed=3)
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(64, 64))
        mask = SeedDraws().keep(1, 1, 0, (64, 64), 0.25)
        grad_logits = rng.normal(size=(64, self.K))

        def run():
            logits, cache, emb = forward(params, feats, mask)
            return logits, emb, backward(params, cache, grad_logits).flat

        for got, want in zip(under_helper(run), at_default_buffer(run)):
            assert same_bits(got, want)

    def test_row_ranks(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(64, self.K))
        scores[::3, ::7] = 0.5  # tie runs in every third row
        assert same_bits(under_helper(row_ranks, scores), at_default_buffer(row_ranks, scores))

    @pytest.mark.parametrize("n_a, n_b, dim", [(751, 751, 64), (2000, 2730, 16)])
    def test_sq_euclidean(self, n_a, n_b, dim, monkeypatch):
        rng = np.random.default_rng(n_b)
        a = rng.normal(size=(n_a, dim))
        b = rng.normal(size=(n_b, dim))

        def matrix():
            return np.concatenate([block.copy() for block in sq_euclidean_blocks(a, b)])

        got = matrix()
        # the kernel run at the default buffer in place of the helper's
        monkeypatch.setattr(retrieval, "UFUNC_BUFFER", DEFAULT_BUFFER)
        want = matrix()
        assert same_bits(got, want)

    def test_run_gradcheck(self):
        def lines(run):
            return run(k_values=(self.K,), trials=2).lines()

        assert lines(gradcheck.run_gradcheck) == at_default_buffer(
            lines, gradcheck.run_gradcheck.__wrapped__)
