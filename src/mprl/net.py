"""A small feed-forward classifier with manual backpropagation.

The network is a plain MLP: input -> hidden layers -> logits.  The
activation of the last hidden layer is the retrieval embedding; one
inverted-scaling dropout mask, handed in by the caller, sits between it
and the logits head, so evaluation needs no rescale.  Everything is
float64 and deterministic given explicit seeds and masks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, InvalidDimension, InvalidState

CHECKPOINT_MAGIC = b"MPNET001"


class Activation(str, Enum):
    RELU = "relu"
    TANH = "tanh"


_ACTIVATION_CODES = {Activation.RELU: 0, Activation.TANH: 1}
_ACTIVATION_FROM_CODE = {code: act for act, code in _ACTIVATION_CODES.items()}


@dataclass
class ModelParams:
    """Weight matrices (fan_in x fan_out) and bias vectors per layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: Activation

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise InvalidDimension("need one bias vector per weight matrix")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.size:
                raise InvalidDimension(f"layer {i}: weight {w.shape} and bias {b.shape} disagree")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise InvalidDimension(
                    f"layer {i}: fan-in {w.shape[0]} does not chain from previous "
                    f"fan-out {self.weights[i - 1].shape[1]}"
                )

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))

    @property
    def embedding_dim(self) -> int:
        """Width of the penultimate layer (the retrieval embedding)."""
        return self.weights[-1].shape[0]

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


@dataclass
class ParamGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class OptimizerState:
    """Velocity buffers for classical momentum SGD."""

    velocity_w: list[np.ndarray]
    velocity_b: list[np.ndarray]
    learning_rate: float
    momentum: float


@dataclass
class ForwardCache:
    """Intermediate activations kept for backprop; tied to one params object."""

    params: ModelParams
    inputs: np.ndarray
    pre_acts: list[np.ndarray]
    hidden_acts: list[np.ndarray]
    dropout_mask: np.ndarray | None
    dropped_embedding: np.ndarray
    logits: np.ndarray


def init_params(layer_sizes, seed, scale: float = 1.0,
                activation: Activation = Activation.RELU) -> ModelParams:
    """Seeded initialization: W ~ Normal(0, scale/sqrt(fan_in)), biases zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise InvalidDimension("need at least input and output widths")
    if any(s < 1 for s in sizes):
        raise InvalidDimension(f"layer sizes must be positive, got {sizes}")
    if scale < 0:
        raise InvalidConfig("scale must be >= 0")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        std = scale / np.sqrt(fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases, activation)


def _activate(z: np.ndarray, activation: Activation) -> np.ndarray:
    if activation is Activation.RELU:
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activation_grad(z: np.ndarray, a: np.ndarray, activation: Activation) -> np.ndarray:
    if activation is Activation.RELU:
        return (z > 0.0).astype(np.float64)
    return 1.0 - a * a


def forward(params: ModelParams, features, dropout_mask=None):
    """Run the network on a (n, d) batch of features.

    Returns ``(logits, cache, embedding)``.  The embedding is the
    penultimate activation before dropout.  A ``dropout_mask`` means
    train-mode dropout: it is the embedding-shaped inverted-scaling keep
    mask (0 for a dropped unit, ``1 / (1 - rate)`` for a kept one), and the
    logits head sees the embedding times it.  Without a mask dropout is
    the identity (eval mode).  The network draws no randomness of its own:
    the trainer's masks depend only on (seed, epoch, batch, rows) (see
    :class:`mprl.trainer.DropoutMasks`).
    """
    x = _batch(params, features)
    pre_acts, hidden_acts, embedding = _hidden_stack(params, x)
    mask = None
    dropped = embedding
    if dropout_mask is not None:
        mask = np.asarray(dropout_mask, dtype=np.float64)
        if mask.shape != embedding.shape:
            raise InvalidDimension(
                f"dropout mask has shape {mask.shape}, embedding has {embedding.shape}"
            )
        dropped = embedding * mask

    logits = dropped @ params.weights[-1]
    logits += params.biases[-1]
    cache = ForwardCache(params, x, pre_acts, hidden_acts, mask, dropped, logits)
    return logits, cache, embedding


def embed(params: ModelParams, features) -> np.ndarray:
    """Eval-mode embeddings of a (n, d) batch: the hidden stack of
    :func:`forward`, bit for bit, without the logits head."""
    return _hidden_stack(params, _batch(params, features))[2]


def _batch(params: ModelParams, features) -> np.ndarray:
    """``features`` as a float64 (n, d) batch of the network's input width."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.layer_sizes[0]:
        raise InvalidDimension(
            f"features have shape {x.shape}, network expects (n, {params.layer_sizes[0]})"
        )
    return x


def _hidden_stack(params: ModelParams, x: np.ndarray):
    """Pre-activations and activations of every hidden layer, and the
    embedding (the last activation; the input itself without hidden layers)."""
    pre_acts = []
    hidden_acts = []
    a = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w
        z += b
        a = _activate(z, params.activation)
        pre_acts.append(z)
        hidden_acts.append(a)
    return pre_acts, hidden_acts, a


def backward(params: ModelParams, cache: ForwardCache, grad_logits) -> ParamGrads:
    """Backpropagate d(loss)/d(logits), shaped like the logits, to
    parameter gradients.

    Gradients are summed over the batch; per-sample reduction weights
    belong in ``grad_logits``.  The cache must come from a forward pass
    on this exact params object.
    """
    if cache.params is not params:
        raise InvalidState("cache was built by a different (or updated) params object")
    g = np.asarray(grad_logits, dtype=np.float64)
    if g.shape != cache.logits.shape:
        raise InvalidDimension(
            f"grad_logits shape {g.shape} does not match logits {cache.logits.shape}"
        )

    grad_w = [np.empty(0)] * len(params.weights)
    grad_b = [np.empty(0)] * len(params.biases)

    grad_w[-1] = cache.dropped_embedding.T @ g
    grad_b[-1] = g.sum(axis=0)
    delta = g @ params.weights[-1].T
    if cache.dropout_mask is not None:
        delta = delta * cache.dropout_mask

    for i in range(len(params.weights) - 2, -1, -1):
        delta = delta * _activation_grad(cache.pre_acts[i], cache.hidden_acts[i],
                                         params.activation)
        prev = cache.inputs if i == 0 else cache.hidden_acts[i - 1]
        grad_w[i] = prev.T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.weights[i].T

    return ParamGrads(grad_w, grad_b)


def init_optimizer(params: ModelParams, learning_rate: float, momentum: float) -> OptimizerState:
    if learning_rate <= 0:
        raise InvalidConfig("learning_rate must be positive")
    if not 0.0 <= momentum < 1.0:
        raise InvalidConfig("momentum must be in [0, 1)")
    return OptimizerState(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
        learning_rate,
        momentum,
    )


def sgd_step(params: ModelParams, grads: ParamGrads, state: OptimizerState) -> ModelParams:
    """Classical momentum update: v <- m*v - lr*g; w <- w + v.

    The velocity buffers of ``state`` are updated in place (``v *= m``,
    then ``v -= lr*g``: the same float operations, in the same order).
    The given params are never written to: the result is a fresh
    ModelParams with fresh arrays, so stale forward caches are detectable
    and anyone holding the old params keeps their values.
    """
    if len(grads.weights) != len(params.weights):
        raise InvalidDimension("gradient layer count differs from params")
    new_w = []
    new_b = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if grads.weights[i].shape != w.shape or grads.biases[i].shape != b.shape:
            raise InvalidDimension(f"layer {i}: gradient shape mismatch")
        for v, g in ((state.velocity_w[i], grads.weights[i]),
                     (state.velocity_b[i], grads.biases[i])):
            v *= state.momentum
            v -= state.learning_rate * g
        new_w.append(w + state.velocity_w[i])
        new_b.append(b + state.velocity_b[i])
    return ModelParams(new_w, new_b, params.activation)


def save_params(params: ModelParams, path) -> None:
    """Write a checkpoint: magic, activation, layer sizes, then row-major
    float64 little-endian weights and biases per layer."""
    sizes = params.layer_sizes
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<BI", _ACTIVATION_CODES[params.activation], len(sizes))
    blob += struct.pack(f"<{len(sizes)}I", *sizes)
    for w, b in zip(params.weights, params.biases):
        blob += np.ascontiguousarray(w, dtype="<f8").tobytes()
        blob += np.ascontiguousarray(b, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_params(path) -> ModelParams:
    """Load a checkpoint written by :func:`save_params`, bit-exactly.

    A file that is not a whole checkpoint raises :class:`InvalidState`
    naming ``path``."""
    blob = Path(path).read_bytes()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise InvalidState(f"{path}: not a model checkpoint (bad magic)")
    offset = len(CHECKPOINT_MAGIC) + struct.calcsize("<BI")
    if len(blob) < offset:
        raise InvalidState(f"{path}: checkpoint ends inside its header")
    act_code, n_sizes = struct.unpack_from("<BI", blob, len(CHECKPOINT_MAGIC))
    if act_code not in _ACTIVATION_FROM_CODE:
        raise InvalidState(f"{path}: unknown activation code {act_code}")
    if n_sizes < 2:
        raise InvalidState(f"{path}: {n_sizes} layer sizes, need input and output widths")
    if len(blob) < offset + 4 * n_sizes:
        raise InvalidState(f"{path}: checkpoint ends inside its header")
    sizes = struct.unpack_from(f"<{n_sizes}I", blob, offset)
    offset += 4 * n_sizes
    if min(sizes) < 1:
        raise InvalidState(f"{path}: layer sizes must be positive, got {sizes}")
    n_values = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    if len(blob) < offset + 8 * n_values:
        raise InvalidState(f"{path}: checkpoint ends inside its weights")
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        n = fan_in * fan_out
        weights.append(
            np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
            .reshape(fan_in, fan_out).copy()
        )
        offset += n * 8
        biases.append(np.frombuffer(blob, dtype="<f8", count=fan_out, offset=offset).copy())
        offset += fan_out * 8
    if offset != len(blob):
        raise InvalidState(f"{path}: {len(blob) - offset} trailing bytes")
    return ModelParams(weights, biases, _ACTIVATION_FROM_CODE[act_code])
