"""Minimal feed-forward network machinery.

Fixed-topology MLPs with analytic backprop, written directly in numpy so
every gradient is inspectable and checkable against finite differences.
Hidden layers share one activation (tanh or relu), the output layer is
linear. Updates follow the ascent convention: callers pass the gradient of
the objective being maximized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ModelFormatError, NonFiniteGradientError

FORMAT_VERSION = 1
ACTIVATIONS = ("tanh", "relu")


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _activate_grad(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return (z > 0.0).astype(float)


@dataclass
class Mlp:
    """Dense network; weights[i] has shape (layer_sizes[i], layer_sizes[i+1])."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "tanh"

    def __post_init__(self) -> None:
        self.layer_sizes = tuple(int(n) for n in self.layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        if any(n < 1 for n in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        n_layers = len(self.layer_sizes) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ValueError("parameter count does not match layer_sizes")
        for i in range(n_layers):
            want = (self.layer_sizes[i], self.layer_sizes[i + 1])
            if self.weights[i].shape != want:
                raise ValueError(f"weight {i} has shape {self.weights[i].shape}, want {want}")
            if self.biases[i].shape != (want[1],):
                raise ValueError(f"bias {i} has shape {self.biases[i].shape}, want ({want[1]},)")
            if not (np.all(np.isfinite(self.weights[i])) and np.all(np.isfinite(self.biases[i]))):
                raise ValueError(f"layer {i} holds non-finite parameters")

    @classmethod
    def create(cls, layer_sizes: Sequence[int], rng: np.random.Generator,
               activation: str = "tanh") -> "Mlp":
        """Xavier-uniform weights (limit √(6/(fan_in+fan_out))), zero biases."""
        sizes = tuple(int(n) for n in layer_sizes)
        weights, biases = [], []
        for n_in, n_out in zip(sizes, sizes[1:]):
            limit = math.sqrt(6.0 / (n_in + n_out))
            weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
            biases.append(np.zeros(n_out))
        return cls(sizes, weights, biases, activation)

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes,
                   [w.copy() for w in self.weights],
                   [b.copy() for b in self.biases],
                   self.activation)

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class ForwardCache:
    """Intermediates from one forward pass, keyed to the net's topology."""

    layer_sizes: tuple[int, ...]
    inputs: list[np.ndarray]   # input vector fed to each layer
    pre: list[np.ndarray]      # pre-activation output of each layer


@dataclass
class Gradients:
    """Partials with the same shapes as the owning Mlp's parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def zeros_like(cls, net: Mlp) -> "Gradients":
        return cls([np.zeros_like(w) for w in net.weights],
                   [np.zeros_like(b) for b in net.biases])

    def add_(self, other: "Gradients", scale: float = 1.0) -> "Gradients":
        for mine, theirs in zip(self.weights, other.weights):
            mine += scale * theirs
        for mine, theirs in zip(self.biases, other.biases):
            mine += scale * theirs
        return self

    def scale_(self, factor: float) -> "Gradients":
        for w in self.weights:
            w *= factor
        for b in self.biases:
            b *= factor
        return self

    def global_norm(self) -> float:
        total = 0.0
        for arr in (*self.weights, *self.biases):
            total += float(np.sum(arr * arr))
        return math.sqrt(total)

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(arr)) for arr in (*self.weights, *self.biases))


def forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the net on one input vector or an (n, d) batch of row inputs.

    The output has one row per input row; the cache feeds backward().
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != net.input_size:
        raise ValueError(f"input has shape {x.shape}, net expects "
                         f"({net.input_size},) or (n, {net.input_size})")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    n_layers = len(net.weights)
    inputs, pre = [], []
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        z = h @ w + b
        pre.append(z)
        h = _activate(net.activation, z) if i < n_layers - 1 else z
    return h, ForwardCache(net.layer_sizes, inputs, pre)


def backward(net: Mlp, cache: ForwardCache, output_grad: np.ndarray) -> Gradients:
    """Exact parameter gradients of the scalar loss whose dL/d(output) is given.

    For a batched forward, output_grad holds one row per input row and the
    gradients are summed over rows: grad_W = X^T delta, grad_b = sum(delta).
    """
    if cache.layer_sizes != net.layer_sizes:
        raise ValueError("cache does not belong to this net")
    delta = np.asarray(output_grad, dtype=float)
    want = cache.pre[-1].shape
    if delta.shape != want:
        raise ValueError(f"output_grad has shape {delta.shape}, net output is {want}")
    batched = delta.ndim == 2
    n_layers = len(net.weights)
    grad_w: list[np.ndarray] = [np.empty(0)] * n_layers
    grad_b: list[np.ndarray] = [np.empty(0)] * n_layers
    for i in reversed(range(n_layers)):
        if batched:
            grad_w[i] = cache.inputs[i].T @ delta
            grad_b[i] = delta.sum(axis=0)
        else:
            grad_w[i] = np.outer(cache.inputs[i], delta)
            grad_b[i] = delta.copy()
        if i > 0:
            back = delta @ net.weights[i].T if batched else net.weights[i] @ delta
            delta = back * _activate_grad(net.activation, cache.pre[i - 1])
    return Gradients(grad_w, grad_b)


def _shifted(logits: np.ndarray) -> np.ndarray:
    """Logits minus their max over the last axis; rejects non-finite input."""
    logits = np.asarray(logits, dtype=float)
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits")
    return logits - logits.max(axis=-1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis; safe for any finite logits."""
    e = np.exp(_shifted(logits))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log of softmax() over the last axis."""
    shifted = _shifted(logits)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_sample(logits: np.ndarray,
                   rng: np.random.Generator) -> tuple[int, float, np.ndarray]:
    """Draw an index from softmax(logits) via one uniform variate.

    Returns (index, log-probability of that index, full distribution), the
    same values softmax() and log_softmax() give, from one exp pass.
    """
    shifted = _shifted(logits)
    e = np.exp(shifted)
    total = e.sum()
    probs = e / total
    u = rng.random()
    index = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    index = min(index, len(probs) - 1)
    return index, float(shifted[index] - np.log(total)), probs


@dataclass
class RmspropState:
    """Accumulated squared gradients for the RMS-style update rule."""

    decay: float
    eps: float
    sq_weights: list[np.ndarray]
    sq_biases: list[np.ndarray]

    @classmethod
    def create(cls, net: Mlp, decay: float = 0.99, eps: float = 1e-8) -> "RmspropState":
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        return cls(decay, eps,
                   [np.zeros_like(w) for w in net.weights],
                   [np.zeros_like(b) for b in net.biases])

    def step(self, net: Mlp, grad_w: list[np.ndarray], grad_b: list[np.ndarray],
             lr: float) -> None:
        for sq, g, param in zip(self.sq_weights, grad_w, net.weights):
            sq *= self.decay
            sq += (1.0 - self.decay) * g * g
            param += lr * g / (np.sqrt(sq) + self.eps)
        for sq, g, param in zip(self.sq_biases, grad_b, net.biases):
            sq *= self.decay
            sq += (1.0 - self.decay) * g * g
            param += lr * g / (np.sqrt(sq) + self.eps)


def apply_update(net: Mlp, grads: Gradients, lr: float,
                 optimizer_state: RmspropState | None = None,
                 clip_norm: float | None = None) -> float:
    """Ascent step θ += lr·g, in place; pass negated loss gradients to descend.

    Clips to the global norm first when clip_norm is set. Returns the
    pre-clip global gradient norm. Rejects non-finite gradients without
    touching the parameters.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if len(grads.weights) != len(net.weights):
        raise ValueError("gradient layout does not match net")
    for g, w in zip(grads.weights, net.weights):
        if g.shape != w.shape:
            raise ValueError("gradient shapes do not match net")
    norm = grads.global_norm()
    # any NaN or infinity makes the norm non-finite, so the scan runs only then
    if not math.isfinite(norm) and not grads.is_finite():
        raise NonFiniteGradientError("update rejected: non-finite gradient")
    grad_w, grad_b = grads.weights, grads.biases
    if clip_norm is not None and norm > clip_norm:
        factor = clip_norm / norm
        grad_w = [g * factor for g in grad_w]
        grad_b = [g * factor for g in grad_b]
    if optimizer_state is None:
        for param, g in zip(net.weights, grad_w):
            param += lr * g
        for param, g in zip(net.biases, grad_b):
            param += lr * g
    else:
        optimizer_state.step(net, grad_w, grad_b, lr)
    return norm


def fd_gradients(net: Mlp, x: np.ndarray, loss_weights: np.ndarray,
                 eps: float = 1e-5) -> Gradients:
    """Central finite differences of L(θ) = loss_weights · forward(θ, x).

    Slow by design; the verification oracle for backward().
    """
    loss_weights = np.asarray(loss_weights, dtype=float)

    def loss() -> float:
        out, _ = forward(net, x)
        return float(loss_weights @ out)

    grads = Gradients.zeros_like(net)
    for params, out_grads in ((net.weights, grads.weights), (net.biases, grads.biases)):
        for param, out in zip(params, out_grads):
            flat_p = param.reshape(-1)
            flat_g = out.reshape(-1)
            for j in range(flat_p.size):
                orig = flat_p[j]
                flat_p[j] = orig + eps
                hi = loss()
                flat_p[j] = orig - eps
                lo = loss()
                flat_p[j] = orig
                flat_g[j] = (hi - lo) / (2.0 * eps)
    return grads


def serialize(net: Mlp) -> bytes:
    """Versioned JSON container with full float64 round-trip fidelity."""
    payload = {
        "format_version": FORMAT_VERSION,
        "layer_sizes": list(net.layer_sizes),
        "activation": net.activation,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    return json.dumps(payload).encode("utf-8")


def deserialize(data: bytes) -> Mlp:
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"truncated or malformed model data: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError("model container must be a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {version!r}, "
                               f"expected {FORMAT_VERSION}")
    for key in ("layer_sizes", "activation", "weights", "biases"):
        if key not in payload:
            raise ModelFormatError(f"model container missing key {key!r}")
    try:
        weights = [np.asarray(w, dtype=float) for w in payload["weights"]]
        biases = [np.asarray(b, dtype=float) for b in payload["biases"]]
        return Mlp(tuple(payload["layer_sizes"]), weights, biases, payload["activation"])
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid model parameters: {exc}") from exc


def save_model(net: Mlp, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(serialize(net))


def load_model(path: str | Path) -> Mlp:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    return deserialize(data)
