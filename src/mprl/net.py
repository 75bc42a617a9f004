"""A small feed-forward classifier with manual backpropagation.

The network is a plain ReLU MLP: input -> hidden layers -> logits.  The
activation of the last hidden layer is the retrieval embedding; one
inverted-scaling dropout mask, handed in by the caller, sits between it
and the logits head, so evaluation needs no rescale.  Everything is
float64 and deterministic given explicit seeds and masks.

Parameters live in one flat float64 vector per model, in checkpoint
order: each layer's row-major weight matrix, then its bias vector,
layer by layer.  The per-layer ``weights`` and ``biases`` of
:class:`ModelParams` are views of that vector, and so are those of the
gradients :func:`backward` fills and of the momentum velocity, so
:func:`sgd_step` updates every layer with one pass over flat vectors and
a checkpoint is a header followed by the vector's bytes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, InvalidDimension, InvalidState

CHECKPOINT_MAGIC = b"MPNET001"
# the checkpoint header's activation byte; ReLU is the only activation
_RELU_CODE = 0


class _FlatLayers:
    """Per-layer weight matrices and bias vectors, all of them views of one
    flat float64 vector, ``flat``, which is their only storage.

    The flat order is the checkpoint's: each layer's row-major weights,
    then its biases, layer by layer.  ``layout`` holds (start, mid, stop,
    weight shape) per layer: its weights fill ``flat[start:mid]`` and its
    biases ``flat[mid:stop]``.  Built from per-layer arrays, the values
    are copied into a fresh flat vector.
    """

    def __init__(self, weights, biases):
        if len(weights) != len(biases) or not len(weights):
            raise InvalidDimension("need one bias vector per weight matrix")
        if any(np.ndim(b) != 1 for b in biases):
            raise InvalidDimension("every bias must be a vector")
        flat = np.concatenate([np.ravel(a) for layer in zip(weights, biases) for a in layer],
                              dtype=np.float64)
        self._view(flat, _layout((np.shape(w), np.size(b)) for w, b in zip(weights, biases)))

    @classmethod
    def of(cls, flat: np.ndarray, layout):
        """An instance over ``flat`` itself (no copy), laid out by ``layout``."""
        self = object.__new__(cls)
        self._view(flat, layout)
        return self

    def _view(self, flat, layout) -> None:
        self.flat = flat
        self.layout = layout
        self.weights = []
        self.biases = []
        for start, mid, stop, shape in layout:
            self.weights.append(flat[start:mid].reshape(shape))
            self.biases.append(flat[mid:stop])


def _layout(layers) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
    """The layout of layers given as (weight shape, bias size), back to back."""
    layout = []
    stop = 0
    for shape, n_biases in layers:
        start, mid = stop, stop + math.prod(shape)
        stop = mid + n_biases
        layout.append((start, mid, stop, tuple(shape)))
    return tuple(layout)


class ModelParams(_FlatLayers):
    """Weight matrices (fan_in x fan_out) and bias vectors per layer, as
    views of one flat vector (see :class:`_FlatLayers`)."""

    def __init__(self, weights, biases):
        super().__init__(weights, biases)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or w.shape[1] != b.size:
                raise InvalidDimension(f"layer {i}: weight {w.shape} and bias {b.shape} disagree")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise InvalidDimension(
                    f"layer {i}: fan-in {w.shape[0]} does not chain from previous "
                    f"fan-out {self.weights[i - 1].shape[1]}"
                )

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0], *(b.size for b in self.biases))

    @property
    def embedding_dim(self) -> int:
        """Width of the penultimate layer (the retrieval embedding)."""
        return self.weights[-1].shape[0]

    @property
    def n_params(self) -> int:
        return self.flat.size


class ParamGrads(_FlatLayers):
    """Gradients (or any per-parameter values) in the params' flat layout."""


@dataclass
class OptimizerState:
    """Classical momentum SGD: the velocity, in the params' flat layout."""

    velocity: ParamGrads
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


def init_params(layer_sizes, seed, scale: float = 1.0) -> ModelParams:
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
    return ModelParams(weights, biases)


def forward(params: ModelParams, features, dropout_mask=None):
    """Run the network on a (n, d) batch of features.

    Returns ``(logits, cache, embedding)``.  The embedding is the
    penultimate activation before dropout.  A ``dropout_mask`` means
    train-mode dropout: it is the embedding-shaped inverted-scaling keep
    mask (0 for a dropped unit, ``1 / (1 - rate)`` for a kept one), and the
    logits head sees the embedding times it.  Without a mask dropout is
    the identity (eval mode).  The network draws no randomness of its own:
    the trainer's masks depend only on (seed, epoch, batch, rows) (see
    :class:`mprl.trainer.SeedDraws`).
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
    if x.ndim != 2 or x.shape[1] != params.weights[0].shape[0]:
        raise InvalidDimension(
            f"features have shape {x.shape}, network expects (n, {params.weights[0].shape[0]})"
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
        a = np.maximum(z, 0.0)
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

    grads = ParamGrads.of(np.empty(params.flat.size), params.layout)
    grad_w, grad_b = grads.weights, grads.biases
    np.matmul(cache.dropped_embedding.T, g, out=grad_w[-1])
    g.sum(0, out=grad_b[-1])
    delta = g @ params.weights[-1].T
    if cache.dropout_mask is not None:
        delta *= cache.dropout_mask

    for i in range(len(params.weights) - 2, -1, -1):
        delta *= cache.pre_acts[i] > 0.0
        prev = cache.inputs if i == 0 else cache.hidden_acts[i - 1]
        np.matmul(prev.T, delta, out=grad_w[i])
        delta.sum(0, out=grad_b[i])
        if i > 0:
            delta = delta @ params.weights[i].T

    return grads


def init_optimizer(params: ModelParams, learning_rate: float, momentum: float) -> OptimizerState:
    if learning_rate <= 0:
        raise InvalidConfig("learning_rate must be positive")
    if not 0.0 <= momentum < 1.0:
        raise InvalidConfig("momentum must be in [0, 1)")
    return OptimizerState(ParamGrads.of(np.zeros(params.flat.size), params.layout),
                          learning_rate, momentum)


def sgd_step(params: ModelParams, grads: ParamGrads, state: OptimizerState) -> ModelParams:
    """Classical momentum update: v <- m*v - lr*g; w <- w + v.

    The velocity of ``state`` is updated in place (``v *= m``, then
    ``v -= lr*g``), all layers at once on the flat vectors: every entry
    gets the same float operations, in the same order, as layer by layer.
    Neither the given params nor the grads are written to: the result is
    a fresh ModelParams over a fresh flat vector, so stale forward caches
    are detectable and anyone holding the old params keeps their values.
    """
    if not grads.layout == params.layout == state.velocity.layout:
        raise InvalidDimension(f"gradient layers {grads.layout} and velocity layers "
                               f"{state.velocity.layout} must match the params' {params.layout}")
    v = state.velocity.flat
    v *= state.momentum
    v -= state.learning_rate * grads.flat
    return ModelParams.of(params.flat + v, params.layout)


def save_params(params: ModelParams, path) -> None:
    """Write a checkpoint: magic, activation byte (always 0, ReLU), layer
    sizes, then the flat vector as float64 little-endian, which is each
    layer's row-major weights and then its biases, layer by layer."""
    sizes = params.layer_sizes
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<BI", _RELU_CODE, len(sizes))
    blob += struct.pack(f"<{len(sizes)}I", *sizes)
    blob += params.flat.astype("<f8", copy=False).tobytes()
    Path(path).write_bytes(bytes(blob))


def load_params(path) -> ModelParams:
    """Load a checkpoint written by :func:`save_params`, bit-exactly.

    A file that is not a whole ReLU checkpoint raises :class:`InvalidState`
    naming ``path``."""
    blob = Path(path).read_bytes()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise InvalidState(f"{path}: not a model checkpoint (bad magic)")
    offset = len(CHECKPOINT_MAGIC) + struct.calcsize("<BI")
    if len(blob) < offset:
        raise InvalidState(f"{path}: checkpoint ends inside its header")
    act_code, n_sizes = struct.unpack_from("<BI", blob, len(CHECKPOINT_MAGIC))
    if act_code != _RELU_CODE:
        raise InvalidState(f"{path}: activation code {act_code}, "
                           f"only {_RELU_CODE} (ReLU) is supported")
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
    if len(blob) != offset + 8 * n_values:
        raise InvalidState(f"{path}: {len(blob) - offset - 8 * n_values} trailing bytes")
    flat = np.frombuffer(blob, dtype="<f8", count=n_values, offset=offset).copy()
    return ModelParams.of(flat, _layout(((fan_in, fan_out), fan_out)
                                        for fan_in, fan_out in zip(sizes[:-1], sizes[1:])))
