"""Dense-network numerics: exact backprop, Adam, gradient checking, checkpoints.

Everything runs in 64-bit floats. Layers are plain dataclasses over numpy
arrays, and every network in the package backpropagates through `backward`:
`forward_layers` records each layer's input and output on the way forward
and `backward_layers` replays them in reverse. A relu layer's backward reads
its mask from the recorded output (y > 0 exactly where the pre-activation
is > 0), so no pre-activation is recomputed. Parameters travel as flat lists
of arrays in a fixed order so the optimizer, the gradient checker and the
checkpoint format all agree on the coordinate layout. Initialization is
uniform in +-sqrt(6 / (fan_in + fan_out)) from a seeded Philox stream;
training is single-threaded and bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

ACTIVATIONS = ("identity", "relu")

CKPT_MAGIC = b"EQRCKPT1"

# Adam's moment decay rates and denominator floor, the same for every trainer
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class DenseLayer:
    """y = act(x @ weight.T + bias); activation is 'identity' or 'relu'."""

    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError(
                f"inconsistent layer shapes {self.weight.shape} / {self.bias.shape}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


def init_dense(
    rng: np.random.Generator, n_in: int, n_out: int, activation: str = "identity"
) -> DenseLayer:
    limit = np.sqrt(6.0 / (n_in + n_out))
    weight = rng.uniform(-limit, limit, size=(n_out, n_in))
    return DenseLayer(weight=weight, bias=np.zeros(n_out), activation=activation)


def forward(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.in_dim:
        raise ValueError(f"input shape {x.shape} incompatible with in_dim {layer.in_dim}")
    z = x @ layer.weight.T + layer.bias
    if layer.activation == "relu":
        return np.maximum(z, 0.0)
    return z


def backward(
    layer: DenseLayer,
    x: np.ndarray,
    grad_out: np.ndarray,
    out: np.ndarray | None = None,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Chain-rule gradients (grad_x, grad_weight, grad_bias).

    `out` is the layer's output as `forward` returned it (recomputed when
    omitted); relu masks the gradient where out > 0, i.e. subgradient 0 at
    exactly 0. grad_x is None when `input_grad` is False.
    """
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (x.shape[0], layer.out_dim):
        raise ValueError(f"grad_out shape {grad_out.shape} incompatible with layer output")
    if layer.activation == "relu":
        out = forward(layer, x) if out is None else out
        grad_out = grad_out * (out > 0.0)
    grad_x = grad_out @ layer.weight if input_grad else None
    grad_w = grad_out.T @ x
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


def forward_layers(
    layers: Sequence[DenseLayer], x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Apply `layers` in order; returns the output and the activations
    [input, output of layer 0, ..., output of the last layer]."""
    acts = [x]
    for layer in layers:
        acts.append(forward(layer, acts[-1]))
    return acts[-1], acts


def backward_layers(
    layers: Sequence[DenseLayer],
    acts: Sequence[np.ndarray],
    grad_out: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Backprop through a `forward_layers` pass given its recorded activations.

    Returns the gradient w.r.t. the stack's input (None, and not computed,
    when `input_grad` is False) and [grad_weight, grad_bias, ...] in layer order.
    """
    grads: list[np.ndarray] = []
    for k in reversed(range(len(layers))):
        grad_out, grad_w, grad_b = backward(
            layers[k], acts[k], grad_out, acts[k + 1], input_grad or k > 0
        )
        grads[:0] = [grad_w, grad_b]
    return grad_out, grads


@dataclass
class AdamState:
    """Adam moments plus decoupled weight decay (applied outside the moments)."""

    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def init_adam(
    params: Sequence[np.ndarray],
    learning_rate: float = 1e-3,
    weight_decay: float = 0.0,
) -> AdamState:
    return AdamState(
        learning_rate=learning_rate,
        weight_decay=weight_decay,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(
    state: AdamState, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """One bias-corrected Adam update; returns new parameter arrays.

    The weight-decay term subtracts lr * decay * param directly, i.e. the
    gradient of the penalty 0.5 * decay * ||theta||^2, independent of the
    moment estimates.
    """
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ValueError("parameter/gradient lists do not match optimizer state")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"param {i} shape {p.shape} != grad shape {g.shape}")
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        new = p - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        if state.weight_decay:
            new = new - state.learning_rate * state.weight_decay * p
        out.append(new)
    return out


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    n_coords: int
    worst_param: int
    worst_coord: int
    analytic_at_worst: float
    numeric_at_worst: float
    passed: bool


def grad_check(
    fn: Callable[[list[np.ndarray]], tuple[float, list[np.ndarray]]],
    params: Sequence[np.ndarray],
    h: float = 1e-5,
    rel_tol: float = 1e-4,
    max_coords: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `fn(params)` must return (loss, grads). Each checked coordinate is
    perturbed by +-h and the relative error uses the floor
    max(|analytic|, |numeric|, 1e-6) so coordinates whose gradient is below
    float roundoff of the loss do not dominate.
    """
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    params = [np.array(p, dtype=np.float64) for p in params]
    loss0, grads = fn(params)
    if not np.isfinite(loss0):
        raise ValueError(f"loss is not finite: {loss0}")

    coords = [(pi, ci) for pi, p in enumerate(params) for ci in range(p.size)]
    if max_coords is not None and max_coords < len(coords):
        from .rng import STREAM_GRADCHECK, make_rng

        pick = make_rng(seed, STREAM_GRADCHECK).choice(
            len(coords), size=max_coords, replace=False
        )
        coords = [coords[i] for i in sorted(pick)]

    worst = (0.0, -1, -1, 0.0, 0.0)
    for pi, ci in coords:
        flat = params[pi].reshape(-1)
        orig = flat[ci]
        flat[ci] = orig + h
        lp, _ = fn(params)
        flat[ci] = orig - h
        lm, _ = fn(params)
        flat[ci] = orig
        numeric = (lp - lm) / (2.0 * h)
        analytic = grads[pi].reshape(-1)[ci]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        if rel > worst[0]:
            worst = (rel, pi, ci, float(analytic), float(numeric))
    return GradCheckReport(
        max_rel_error=worst[0],
        n_coords=len(coords),
        worst_param=worst[1],
        worst_coord=worst[2],
        analytic_at_worst=worst[3],
        numeric_at_worst=worst[4],
        passed=worst[0] < rel_tol,
    )


def save_checkpoint(
    path: Path | str, header: dict, params: Sequence[np.ndarray]
) -> None:
    """Single-file checkpoint: JSON header + flat little-endian float64 block.

    Round-trip is bit-exact; the header carries shapes plus whatever seeds
    and hyperparameters the caller supplies.
    """
    hdr = dict(header)
    hdr["shapes"] = [list(p.shape) for p in params]
    blob = json.dumps(hdr, sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for p in params:
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_checkpoint(path: Path | str) -> tuple[dict, list[np.ndarray]]:
    raw = Path(path).read_bytes()
    if raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    off = len(CKPT_MAGIC)
    (hlen,) = struct.unpack("<Q", raw[off : off + 8])
    off += 8
    header = json.loads(raw[off : off + hlen].decode("utf-8"))
    off += hlen
    params = []
    for shape in header["shapes"]:
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape)
        params.append(arr.astype(np.float64))
        off += count * 8
    return header, params
