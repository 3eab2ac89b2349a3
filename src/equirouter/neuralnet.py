"""Dense-network numerics: exact backprop, Adam, checkpoints.

Everything runs in 64-bit floats. Layers are plain dataclasses over numpy
arrays, and every network in the package backpropagates through `backward`:
`forward_layers` records each layer's input and output on the way forward
and `backward_layers` replays them in reverse. It returns only the
parameter gradients; no caller needs the gradient w.r.t. a stack's input,
so it is not computed. A relu layer's backward reads its mask from the
recorded output (y > 0 exactly where the pre-activation is > 0), so no
pre-activation is recomputed. Parameters travel as lists of
arrays in a fixed order, so the test suite's gradient checker and the
checkpoint format agree on the coordinate layout; Adam updates one flat
vector, those arrays concatenated in the same order, and returns a new one.
Initialization is uniform in +-sqrt(6 / (fan_in + fan_out)) from a seeded
Philox stream; training is single-threaded and bit-reproducible for a fixed
seed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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
    z = x @ layer.weight.T  # a fresh array: the bias and relu apply in place
    z += layer.bias
    if layer.activation == "relu":
        np.maximum(z, 0.0, out=z)
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
    exactly 0. grad_x is None, and not computed, when `input_grad` is False.
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
) -> list[np.ndarray]:
    """Backprop through a `forward_layers` pass given its recorded activations;
    returns [grad_weight, grad_bias, ...] in layer order."""
    grads: list[np.ndarray] = []
    for k in reversed(range(len(layers))):
        grad_out, grad_w, grad_b = backward(layers[k], acts[k], grad_out, acts[k + 1], k > 0)
        grads[:0] = [grad_w, grad_b]
    return grads


@dataclass
class AdamState:
    """Adam moments of one flat parameter vector, plus decoupled weight decay
    (applied outside the moments)."""

    learning_rate: float
    weight_decay: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam(
    size: int,
    learning_rate: float = 1e-3,
    weight_decay: float = 0.0,
) -> AdamState:
    """Zero moments for a flat parameter vector of `size` values."""
    return AdamState(
        learning_rate=learning_rate,
        weight_decay=weight_decay,
        m=np.zeros(size),
        v=np.zeros(size),
    )


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update of the flat vector `theta`; returns a
    new vector and leaves `theta` as it was.

    The weight-decay term subtracts lr * decay * theta directly, i.e. the
    gradient of the penalty 0.5 * decay * ||theta||^2, independent of the
    moment estimates.
    """
    if theta.shape != state.m.shape or grad.shape != state.m.shape:
        raise ValueError(
            f"parameter shape {theta.shape} and gradient shape {grad.shape} "
            f"do not match the optimizer state's {state.m.shape}"
        )
    state.step += 1
    t = state.step
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = state.m / (1.0 - ADAM_BETA1**t)
    v_hat = state.v / (1.0 - ADAM_BETA2**t)
    new = theta - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    if state.weight_decay:
        new = new - state.learning_rate * state.weight_decay * theta
    return new


def save_checkpoint(
    path: Path | str, header: dict, params: Sequence[np.ndarray]
) -> None:
    """Single-file checkpoint: JSON header + flat little-endian float64 block.

    Round-trip is bit-exact; the header carries shapes plus whatever seeds
    and hyperparameters the caller supplies. Arrays are written from their
    own buffers and read straight into the returned arrays, so neither side
    holds a second copy of the parameters.
    """
    hdr = dict(header)
    hdr["shapes"] = [list(p.shape) for p in params]
    blob = json.dumps(hdr, sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for p in params:
            fh.write(np.ascontiguousarray(p, dtype="<f8").data)


def load_checkpoint(path: Path | str) -> tuple[dict, list[np.ndarray]]:
    """(header, arrays) of a save_checkpoint file; ValueError if it is not
    one, is cut short or its header lacks valid array shapes."""
    with Path(path).open("rb") as fh:
        if fh.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        size = fh.read(8)
        hlen = struct.unpack("<Q", size)[0] if len(size) == 8 else -1
        blob = fh.read(max(hlen, 0))
        if len(blob) != hlen:
            raise ValueError(f"{path}: truncated checkpoint")
        header = json.loads(blob.decode("utf-8"))
        shapes = header.get("shapes") if isinstance(header, dict) else None
        if not isinstance(shapes, list) or not all(
            isinstance(s, list) and all(type(d) is int and d >= 0 for d in s) for s in shapes
        ):
            raise ValueError(f"{path}: checkpoint header field 'shapes' is missing or malformed")
        params = []
        for shape in shapes:
            count = int(np.prod(shape)) if shape else 1
            arr = np.fromfile(fh, dtype="<f8", count=count)
            if arr.size != count:
                raise ValueError(f"{path}: truncated checkpoint")
            params.append(arr.astype(np.float64, copy=False).reshape(shape))
    return header, params
