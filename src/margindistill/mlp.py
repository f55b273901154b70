"""Dense feed-forward embedding models with explicit analytical backprop.

Hidden layers use the max(0, .) rectifier with the subgradient-0 convention
at 0; the output layer is affine, optionally followed by L2 normalization.
Weights live in float64 so gradient checks against central finite
differences are meaningful; checkpoints store float32 per the file format.

The chain rule through row normalization uses the exact Jacobian
``J = (I - e e^T) / ||z||`` at the pre-normalization output z, e = z/||z||.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DegenerateInput, FormatError
from .numerics import Rng, one_blas_thread

CHECKPOINT_MAGIC = b"TFMLP1"
_SMALL_NORM = 2.0 ** -450     # below this a row norm may have lost bits to underflow
_RESCALE = 2.0 ** 600         # exact, and rows below _SMALL_NORM cannot overflow by it
EMBED_ROWS = 1024             # rows per product; bounds what a whole-dataset embed holds


@dataclass
class MlpModel:
    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]          # per layer, shape (fan_in, fan_out)
    biases: list[np.ndarray]           # per layer, shape (fan_out,)
    normalize_output: bool = True
    version: int = 0                   # bumped on every in-place update

    def __post_init__(self):
        self.layer_dims = tuple(int(d) for d in self.layer_dims)
        if len(self.layer_dims) < 2 or any(d < 1 for d in self.layer_dims):
            raise ContractViolation("layer_dims needs >= 2 positive entries")
        expected = list(zip(self.layer_dims[:-1], self.layer_dims[1:]))
        if len(self.weights) != len(expected) or len(self.biases) != len(expected):
            raise ContractViolation("one weight matrix and bias per layer required")
        for (fi, fo), w, b in zip(expected, self.weights, self.biases):
            if w.shape != (fi, fo) or b.shape != (fo,):
                raise ContractViolation(
                    f"layer shapes inconsistent with layer_dims {self.layer_dims}"
                )

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def embed_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_dims=self.layer_dims,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            normalize_output=self.normalize_output,
            version=0,
        )


def init_mlp(layer_dims, normalize_output: bool, rng: Rng) -> MlpModel:
    """Glorot-uniform weights in [-s, s], s = sqrt(6/(fan_in+fan_out)); zero biases.

    Entries are drawn row-major, layer by layer, so initialization is a pure
    function of (layer_dims, seed).
    """
    dims = tuple(int(d) for d in layer_dims)
    weights = []
    biases = []
    for fi, fo in zip(dims[:-1], dims[1:]):
        s = math.sqrt(6.0 / (fi + fo))
        u = rng.uniforms(fi * fo)
        weights.append(((2.0 * u - 1.0) * s).reshape(fi, fo))
        biases.append(np.zeros(fo, dtype=np.float64))
    return MlpModel(
        layer_dims=dims, weights=weights, biases=biases,
        normalize_output=normalize_output,
    )


@dataclass
class ForwardCache:
    acts: list[np.ndarray]        # inputs to each layer: acts[0] = X
    norms: np.ndarray | None      # row norms of the pre-normalization output
    emb: np.ndarray               # final embeddings
    model_version: int


@dataclass
class ModelGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def _checked_input(model: MlpModel, x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != model.input_dim:
        raise ContractViolation(f"expected input of shape (B, {model.input_dim}), got {a.shape}")
    return a


def _affine(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ w + b, one product per EMBED_ROWS rows: BLAS picks its kernel by the row
    count too, so forward_batch and embed agree bit for bit by sharing these blocks."""
    z = np.empty((a.shape[0], w.shape[1]))
    for start in range(0, a.shape[0], EMBED_ROWS):
        np.matmul(a[start:start + EMBED_ROWS], w, out=z[start:start + EMBED_ROWS])
    z += b
    return z


def _normalize_rows(z: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Divide each row of z, the last layer's output on ``inputs``, by its L2 norm in
    place; return the norms."""
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    small = norms < _SMALL_NORM
    if small.any():
        # squares of entries below ~1e-154 underflow: take these rows'
        # directions at an exact power-of-two scale
        z[small] *= _RESCALE
        norms[small] = np.sqrt(np.einsum("ij,ij->i", z[small], z[small]))
        zero = norms == 0.0
        if zero.any():      # with zero biases, a dead last hidden layer gives a zero output
            dead = np.count_nonzero(~inputs[zero].any(axis=1))
            raise DegenerateInput(f"pre-normalization output collapsed to zero norm in "
                                  f"{zero.sum()} of {len(z)} rows; {dead} of them have every "
                                  "unit of the last hidden layer (the last layer's input) at 0")
    z /= norms[:, None]
    norms[small] /= _RESCALE      # true norms, for the backward Jacobian
    return norms


def forward_batch(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Embed a (B, input_dim) batch; the cache feeds backward_batch."""
    acts = [_checked_input(model, x)]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(_affine(acts[-1], w, b))
        np.maximum(acts[-1], 0.0, out=acts[-1])
    emb = _affine(acts[-1], model.weights[-1], model.biases[-1])
    norms = _normalize_rows(emb, acts[-1]) if model.normalize_output else None
    return emb, ForwardCache(acts=acts, norms=norms, emb=emb, model_version=model.version)


def embed(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """``forward_batch(model, x)[0]`` bit for bit, run EMBED_ROWS rows at a time,
    so a whole dataset holds one block's activations instead of every layer's.
    The products run on the calling thread."""
    x = _checked_input(model, x)
    out = np.empty((x.shape[0], model.embed_dim))
    with one_blas_thread():
        for start in range(0, x.shape[0], EMBED_ROWS):
            a = x[start:start + EMBED_ROWS]
            for w, b in zip(model.weights[:-1], model.biases[:-1]):
                a = _affine(a, w, b)
                np.maximum(a, 0.0, out=a)
            rows = out[start:start + EMBED_ROWS]
            rows[:] = _affine(a, model.weights[-1], model.biases[-1])
            if model.normalize_output:
                _normalize_rows(rows, a)
    return out


def backward_batch(
    model: MlpModel, cache: ForwardCache, grad_embedding: np.ndarray
) -> ModelGrads:
    """Exact gradients of sum_rows <grad_embedding, embedding> w.r.t. weights."""
    if cache.model_version != model.version:
        raise ContractViolation("stale forward cache: model was updated after forward")
    g = np.asarray(grad_embedding, dtype=np.float64)
    if g.shape != cache.emb.shape:
        raise ContractViolation(
            f"grad_embedding shape {g.shape} != embeddings shape {cache.emb.shape}"
        )
    if model.normalize_output:
        e = cache.emb
        dot = np.einsum("ij,ij->i", e, g)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            g = (g - dot[:, None] * e) / cache.norms[:, None]
        if not np.isfinite(g).all():
            raise DegenerateInput("normalization gradient overflowed: a pre-normalization "
                                  "output norm is too small")
    grads_w: list[np.ndarray] = [None] * model.n_layers  # type: ignore[list-item]
    grads_b: list[np.ndarray] = [None] * model.n_layers  # type: ignore[list-item]
    for layer in reversed(range(model.n_layers)):
        a_prev = cache.acts[layer]
        grads_w[layer] = a_prev.T @ g
        grads_b[layer] = g.sum(axis=0)
        if layer > 0:
            g = (g @ model.weights[layer].T) * (a_prev > 0.0)   # max(z, 0) > 0 iff z > 0
    return ModelGrads(weights=grads_w, biases=grads_b)


# ---------------------------------------------------------------------------
# SGD with momentum
# ---------------------------------------------------------------------------

@dataclass
class SgdState:
    learning_rate: float
    momentum: float
    vel_w: list[np.ndarray] = field(default_factory=list)
    vel_b: list[np.ndarray] = field(default_factory=list)


def init_sgd(model: MlpModel, learning_rate: float, momentum: float) -> SgdState:
    if not (learning_rate > 0.0):
        raise ContractViolation("learning_rate must be > 0")
    if not (0.0 <= momentum < 1.0):
        raise ContractViolation("momentum must lie in [0, 1)")
    return SgdState(
        learning_rate=learning_rate,
        momentum=momentum,
        vel_w=[np.zeros_like(w) for w in model.weights],
        vel_b=[np.zeros_like(b) for b in model.biases],
    )


def sgd_step(state: SgdState, model: MlpModel, grads: ModelGrads) -> None:
    """v <- momentum*v - lr*g; w <- w + v; in place."""
    for vw, w, gw in zip(state.vel_w, model.weights, grads.weights):
        if gw.shape != w.shape:
            raise ContractViolation("gradient shape mismatch")
        vw *= state.momentum
        vw -= state.learning_rate * gw
        w += vw
    for vb, b, gb in zip(state.vel_b, model.biases, grads.biases):
        if gb.shape != b.shape:
            raise ContractViolation("gradient shape mismatch")
        vb *= state.momentum
        vb -= state.learning_rate * gb
        b += vb
    model.version += 1


# ---------------------------------------------------------------------------
# checkpoint format: magic "TFMLP1", u32 n_dims, dims as u32, flag byte,
# then per layer row-major little-endian f32 weights followed by biases
# ---------------------------------------------------------------------------

def _layer_record(dims) -> np.dtype:
    """Every layer of a TFMLP1 file as one record: fields w0, b0, w1, b1, ..."""
    return np.dtype([(f"{kind}{i}", "<f4", shape)
                     for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:]))
                     for kind, shape in (("w", (fi, fo)), ("b", (fo,)))])


def save_checkpoint(model: MlpModel, path) -> None:
    dims = model.layer_dims
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack(f"<I{len(dims)}IB", len(dims), *dims,
                                                bool(model.normalize_output)))
        for w, b in zip(model.weights, model.biases):
            fh.write(w.astype("<f4").tobytes() + b.astype("<f4").tobytes())


def load_checkpoint(path) -> MlpModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise FormatError(f"{path}: bad checkpoint magic (expected TFMLP1)")
    try:
        (n_dims,) = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))
        *dims, flag = struct.unpack_from(f"<{n_dims}IB", blob, len(CHECKPOINT_MAGIC) + 4)
    except struct.error as exc:
        raise FormatError(f"{path}: truncated checkpoint: {exc}") from exc
    if n_dims < 2:
        raise FormatError(f"{path}: checkpoint needs >= 2 layer dims")
    off = len(CHECKPOINT_MAGIC) + 4 * (1 + n_dims) + 1
    count = sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))   # Python ints
    if len(blob) != off + 4 * count:     # checked before the dtype or any array is built
        raise FormatError(f"{path}: header declares {count} weights in {off + 4 * count} "
                          f"bytes, file has {len(blob)}")
    if not np.isfinite(np.frombuffer(blob, dtype="<f4", offset=off)).all():
        raise FormatError(f"{path}: checkpoint weights must be finite")
    layers = np.frombuffer(blob, dtype=_layer_record(dims), count=1, offset=off)[0]
    return MlpModel(
        layer_dims=dims,
        weights=[layers[f"w{i}"].astype(np.float64) for i in range(n_dims - 1)],
        biases=[layers[f"b{i}"].astype(np.float64) for i in range(n_dims - 1)],
        normalize_output=bool(flag),
    )
