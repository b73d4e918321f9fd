"""Minimal feed-forward network machinery.

Fixed-topology MLPs with analytic backprop, written directly in numpy so
every gradient is inspectable and checkable against finite differences.
Hidden layers share one activation (tanh or relu), the output layer is
linear. Updates follow the ascent convention: callers pass the gradient of
the objective being maximized.

Every parameter, activation and gradient may carry a leading trial axis: a
stack of K nets of one topology runs K trials through each call, and slice
k holds the same bits that net k alone would give (each stacked matmul,
reduction and elementwise op computes slice by slice).
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


def _activate_grad(name: str, h: np.ndarray) -> np.ndarray:
    """Activation derivative, read from the activation h itself."""
    if name == "tanh":
        return 1.0 - h * h
    return h > 0.0


def _views(flat: np.ndarray, sizes: tuple[int, ...]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a flat buffer laid out as
    [W0, b0, W1, b1, ...]; a leading trial axis carries through."""
    lead = flat.shape[:-1]
    weights, biases = [], []
    start = 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        mid = start + n_in * n_out
        weights.append(flat[..., start:mid].reshape(*lead, n_in, n_out))
        biases.append(flat[..., mid:mid + n_out])
        start = mid + n_out
    return weights, biases


def _pack(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]) -> np.ndarray:
    """A new flat buffer holding copies of the given arrays."""
    lead = weights[0].shape[:-2]
    return np.concatenate([np.asarray(a, dtype=float).reshape(*lead, -1)
                           for pair in zip(weights, biases) for a in pair], axis=-1)


@dataclass
class Mlp:
    """Dense network; weights[i] has shape (layer_sizes[i], layer_sizes[i+1]).

    A stack of K nets of one topology, one per trial, puts a leading trial
    axis on every array: weights[i] is then (K, n_in, n_out) and biases[i]
    (K, n_out). All parameters live in one buffer, `flat` ((P,) or (K, P));
    weights and biases are views into it. `grad`, when a trainer sets it,
    is a gradient buffer that every backward of an update reuses.
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "tanh"
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    grad: Gradients | None = field(default=None, init=False, repr=False, compare=False)

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
        lead = np.shape(self.weights[0])[:-2]
        if len(lead) > 1:
            raise ValueError("parameters take at most one leading trial axis")
        for i in range(n_layers):
            want = (*lead, self.layer_sizes[i], self.layer_sizes[i + 1])
            if np.shape(self.weights[i]) != want:
                raise ValueError(f"weight {i} has shape {np.shape(self.weights[i])}, "
                                 f"want {want}")
            if np.shape(self.biases[i]) != want[:-2] + want[-1:]:
                raise ValueError(f"bias {i} has shape {np.shape(self.biases[i])}, "
                                 f"want {want[:-2] + want[-1:]}")
        self.flat = _pack(self.weights, self.biases)
        if not np.isfinite(self.flat).all():
            raise ValueError("net holds non-finite parameters")
        self.weights, self.biases = _views(self.flat, self.layer_sizes)

    @classmethod
    def create(cls, layer_sizes: Sequence[int],
               rng: np.random.Generator | Sequence[np.random.Generator],
               activation: str = "tanh") -> "Mlp":
        """Xavier-uniform weights (limit √(6/(fan_in+fan_out))), zero biases.

        A sequence of generators creates a stack: trial k is the net that
        generator k alone would create.
        """
        if not isinstance(rng, np.random.Generator):
            return cls.stack([cls.create(layer_sizes, r, activation) for r in rng])
        sizes = tuple(int(n) for n in layer_sizes)
        weights, biases = [], []
        for n_in, n_out in zip(sizes, sizes[1:]):
            limit = math.sqrt(6.0 / (n_in + n_out))
            weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
            biases.append(np.zeros(n_out))
        return cls(sizes, weights, biases, activation)

    @classmethod
    def stack(cls, nets: Sequence["Mlp"]) -> "Mlp":
        """One stacked net from single nets of one topology and activation."""
        first = nets[0]
        if any(n.layer_sizes != first.layer_sizes or n.activation != first.activation
               or n.trials is not None for n in nets):
            raise ValueError("can only stack single nets of one topology")
        return cls.over(np.stack([n.flat for n in nets]), first.layer_sizes,
                        first.activation)

    @classmethod
    def over(cls, flat: np.ndarray, layer_sizes: Sequence[int],
             activation: str = "tanh") -> "Mlp":
        """A net whose parameters are `flat` itself (no copy, no checks)."""
        net = cls.__new__(cls)
        net.layer_sizes, net.activation, net.flat = tuple(layer_sizes), activation, flat
        net.grad = None
        net.weights, net.biases = _views(flat, net.layer_sizes)
        return net

    def trial(self, k: int) -> "Mlp":
        """Trial k of a stack as a single net viewing the stack's row k."""
        return Mlp.over(self.flat[k], self.layer_sizes, self.activation)

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, self.weights, self.biases, self.activation)

    @property
    def trials(self) -> int | None:
        """K for a stack of K nets, None for a single net."""
        return self.flat.shape[0] if self.flat.ndim == 2 else None

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
    inputs: list[np.ndarray]   # rows fed to each layer (activations past the first)
    row: bool                  # one input row (per trial): outputs drop the row axis


class Gradients:
    """Partials with the same shapes as the owning Mlp's parameters, held in
    one flat buffer laid out like the net's."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        sizes = (np.shape(weights[0])[-2], *(np.shape(w)[-1] for w in weights))
        self._wrap(_pack(weights, biases), sizes)

    def _wrap(self, flat: np.ndarray, sizes: Sequence[int]) -> None:
        self.flat = flat
        self.layer_sizes = tuple(int(n) for n in sizes)
        self.weights, self.biases = _views(flat, self.layer_sizes)

    @classmethod
    def over(cls, flat: np.ndarray, layer_sizes: Sequence[int]) -> "Gradients":
        """Gradients viewing `flat` itself (no copy)."""
        grads = cls.__new__(cls)
        grads._wrap(flat, layer_sizes)
        return grads

    @classmethod
    def zeros_like(cls, net: Mlp) -> "Gradients":
        return cls.over(np.zeros_like(net.flat), net.layer_sizes)

    def add_(self, other: "Gradients", scale: float = 1.0) -> "Gradients":
        self.flat += scale * other.flat
        return self

    def scale_(self, factor: float) -> "Gradients":
        self.flat *= factor
        return self

    def global_norm(self) -> float | np.ndarray:
        """√(Σ g²) over all parameters; one norm per trial for a stack.

        Each array's squares are one pairwise sum per trial, added weights
        first, so a trial's norm is the same bits alone or in a stack.
        """
        lead = self.flat.shape[:-1]
        total = 0.0
        for arr in (*self.weights, *self.biases):
            total = total + np.add.reduce((arr * arr).reshape(*lead, -1), axis=-1)
        return np.sqrt(total) if lead else math.sqrt(total)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the net on one input vector or an (n, d) batch of row inputs.

    A stack of K nets takes (K, d) or (K, n, d): one row or one batch per
    trial. The output has one row per input row; the cache feeds backward().
    """
    x = np.asarray(x, dtype=float)
    lead = net.flat.shape[:-1]
    rank = x.ndim - len(lead)
    if rank not in (1, 2) or x.shape[:len(lead)] != lead or x.shape[-1] != net.input_size:
        raise ValueError(f"input has shape {x.shape}, net expects "
                         f"{(*lead, net.input_size)} or {(*lead, 'n', net.input_size)}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    row = rank == 1
    h = x[..., None, :] if row else x
    last = len(net.weights) - 1
    inputs = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        z = h @ w + (b[..., None, :] if lead else b)
        h = _activate(net.activation, z) if i < last else z
    return (h[..., 0, :] if row else h), ForwardCache(net.layer_sizes, inputs, row)


def backward(net: Mlp, cache: ForwardCache, output_grad: np.ndarray,
             out: Gradients | None = None) -> Gradients:
    """Exact parameter gradients of the scalar loss whose dL/d(output) is given.

    For a batched forward, output_grad holds one row per input row and the
    gradients are summed over rows: grad_W = X^T delta, grad_b = sum(delta).
    A stack's gradients are per trial, computed slice by slice. They are
    written into `out` when given (and it is returned), else into a new
    buffer.
    """
    if cache.layer_sizes != net.layer_sizes:
        raise ValueError("cache does not belong to this net")
    delta = np.asarray(output_grad, dtype=float)
    want = (*cache.inputs[0].shape[:-1], net.output_size)
    if cache.row:
        want = want[:-2] + want[-1:]
    if delta.shape != want:
        raise ValueError(f"output_grad has shape {delta.shape}, net output is {want}")
    if cache.row:
        delta = delta[..., None, :]
    if out is None:
        out = Gradients.over(np.empty_like(net.flat), net.layer_sizes)
    elif out.layer_sizes != net.layer_sizes or out.flat.shape != net.flat.shape:
        raise ValueError("out does not match the net's parameters")
    for i in reversed(range(len(net.weights))):
        h = cache.inputs[i]
        np.matmul(h.swapaxes(-1, -2), delta, out=out.weights[i])
        np.sum(delta, axis=-2, out=out.biases[i])
        if i > 0:
            delta = (delta @ net.weights[i].swapaxes(-1, -2)) * _activate_grad(net.activation, h)
    return out


def _shifted(logits: np.ndarray) -> np.ndarray:
    """Logits minus their max over the last axis; rejects non-finite input."""
    logits = np.asarray(logits, dtype=float)
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits")
    return logits - np.maximum.reduce(logits, axis=-1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis; safe for any finite logits."""
    e = np.exp(_shifted(logits))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log of softmax() over the last axis."""
    shifted = _shifted(logits)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_sample(logits: np.ndarray,
                   rng: np.random.Generator | Sequence[np.random.Generator]):
    """Draw an index from softmax(logits) via one uniform variate.

    Returns (index, log-probability of that index, full distribution), the
    same values softmax() and log_softmax() give, from one exp pass. Given
    (K, m) logits and K generators, row k draws from generator k and the
    indices and log-probabilities come back as (K,) arrays.
    """
    single = isinstance(rng, np.random.Generator)
    shifted = _shifted(logits)
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    probs = e / total
    u = rng.random() if single else np.array([g.random() for g in rng])[:, None]
    # searchsorted(cumsum, u, side="right") capped at the last index: the
    # count of the first m - 1 cumulative probabilities that are <= u
    index = np.add.reduce(np.add.accumulate(probs, axis=-1)[..., :-1] <= u, axis=-1)
    rows = () if single else (np.arange(len(index)),)
    log_prob = shifted[(*rows, index)] - np.log(total[..., 0])
    if single:
        return int(index), float(log_prob), probs
    return index, log_prob, probs


@dataclass
class RmspropState:
    """Accumulated squared gradients for the RMS-style update rule, laid out
    like the owning net's flat buffer."""

    decay: float
    eps: float
    sq: np.ndarray

    @classmethod
    def create(cls, net: Mlp, decay: float = 0.99, eps: float = 1e-8) -> "RmspropState":
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        return cls(decay, eps, np.zeros_like(net.flat))

    def step(self, net: Mlp, grad: np.ndarray, lr: float) -> None:
        self.sq *= self.decay
        self.sq += (1.0 - self.decay) * grad * grad
        net.flat += lr * grad / (np.sqrt(self.sq) + self.eps)


def apply_update(net: Mlp, grads: Gradients, lr: float,
                 optimizer_state: RmspropState | None = None,
                 clip_norm: float | None = None) -> float | np.ndarray:
    """Ascent step θ += lr·g, in place; pass negated loss gradients to descend.

    Clips to the global norm first when clip_norm is set. Returns the
    pre-clip global gradient norm. Rejects non-finite gradients without
    touching the parameters. A stack clips each trial by its own norm and
    returns the (K,) norms.

    The gradients are consumed: the step is computed in their buffer, which
    holds the scaled step afterwards. Like the reused `net.grad` buffer,
    this avoids parameter-sized temporaries, whose allocation made the heap
    shrink and regrow (tens of page faults per lockstep step of 4 to 10
    stacked 46-64-64 trials).
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if grads.layer_sizes != net.layer_sizes:
        raise ValueError("gradient layout does not match net")
    if grads.flat.shape != net.flat.shape:
        raise ValueError("gradient shapes do not match net")
    norm = grads.global_norm()
    # any NaN or infinity makes a norm non-finite, so the scan runs only then
    if not np.isfinite(norm).all() and not grads.is_finite():
        raise NonFiniteGradientError("update rejected: non-finite gradient")
    step = grads.flat
    if clip_norm is not None and np.any(norm > clip_norm):
        # trials within the bound get a factor of exactly 1
        step *= (clip_norm / np.maximum(norm, clip_norm))[..., None]
    if optimizer_state is None:
        step *= lr
        net.flat += step
    else:
        optimizer_state.step(net, step, lr)
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
