"""Routers: the EquiRouter ranking network, its ablations, kNN/MLP baselines,
and the shared cost predictor. All expose one decision interface.

EquiRouter scores every candidate model for a query q with embedding x:

    z      = trunk(x)                         shared query features, dim D
    [g; b] = film(m_j)                        per-model scale and shift
    z_j    = g * z + b                        model-conditioned features
    e_j    = proj(m_j)                        projected model vector, dim D
    h_j    = [z_j, e_j, z_j * e_j, |z_j - e_j|]
    s_j    = head(h_j)

where m_j is a learned embedding per model. Training supervises the score
ordering with a pairwise logistic loss over the per-query ordered pairs
(higher performance wins; equal performance, cheaper wins), so the objective
matches the argmax decision made at deployment. The "no joint feature"
ablation feeds [z_j, e_j] to the head; the "mse" ablation keeps the
architecture but regresses s_j onto the raw performance values. A network's
tag, one of EQUI_TAGS, is its variant: it sets the head's input and the
training objective, and a checkpoint records it as its router_type.

The ordered pairs of a split are one dense precedence tensor W (N, K, K),
W[n, i, j] = 1/|P_n| where i outranks j in query n, built once per split;
batch loss, score gradient and validation loss are masked array ops over it,
with one exp(-|s_i - s_j|) per entry serving both the loss and its gradient.
W takes N * K^2 * 8 bytes, about 1 MB for 1000 training queries over 11
models; K <= 20 keeps it negligible.

The head's first layer acts on the four D-column blocks of h_j separately.
With W1 = [Wz, We, Wu, Wv], its pre-activation is z_j Wz^T + (z_j * e_j) Wu^T
+ |z_j - e_j| Wv^T + e_j We^T + b1. Since z_j = g * z + b, the z_j and u
terms are affine in the trunk output z and fold into one matrix per model:

    A_j = g * (Wz^T + e_j * Wu^T)             (D, D), rows scaled
    c_j = b Wz^T + (b * e_j) Wu^T + e_j We^T + b1
    P_j = z A_j + c_j + |g * z + (b - e_j)| Wv^T

so the pre-activation of every model is one (B, D) x (D, K * D) product,
z A, plus the |z_j - e_j| block, the only one that needs per-model work; the
no-joint head keeps z A + c. Training and scoring so hold (B, K, D) arrays,
never a (B * K, 4D) one: two products forward and four backward, dz and dA
from z A's two, which small (D, K, D) contractions map back to g, b, e_j,
Wz, Wu and We. The trunk and the FiLM and model projections backpropagate
through `neuralnet.backward`; the head's two layers, the folding and the
|z_j - e_j| block are differentiated here (the output layer maps D to 1, so
its input gradient is an outer product, cheaper by einsum than by matmul).
Every trainer runs the same epoch loop (`_fit`) and differs only in its
batch objective and validation loss. Tests check every gradient against
finite differences.

An EquiRouter training run allocates one workspace (`_workspace`), sized for
its batch and its largest validation scoring block. Every step and
validation block writes its (B, K, D) intermediates into it with `out=`, so
no step allocates, and the OS maps in, fresh arrays of that size.
Intermediates whose lifetimes do not overlap share a slot: three for the
joint head, two for the no-joint one, no more (B, K, D) arrays than one step
would hold alive. `out=` changes where a result is stored, not how it is
computed, so training is bit-identical with or without it. Scoring outside
training allocates per block as before.

The model-side terms g, b, e_j, A, c and Wv^T depend on no query. The training
objectives compute them fresh on every call; scoring (`scores_batch`, and so
`router_scores`, `route()`, sweeps and validation) computes them once per
parameter set and keeps them in a private slot on the params, keyed on the
identity of the seven arrays they are read from. Hence the contract: once an
EquiRouter has scored, its parameter arrays are replaced, never edited in
place. `assign_params` and `load_router` replace arrays; in training they
are views of the run's flat parameter vector, and each Adam step returns a
fresh vector whose views replace the last step's (`_fit`).

Every router scores a batch in blocks of SCORE_BLOCK = 256 query rows, the
remainder merged into the last (256-511 rows), each written into the
preallocated (N, K) result: scoring memory is O(511 * K * D), for kNN
O(511 * n_train), plus the result, whatever N. Blocks at fixed
multiples of 256 rows keep the BLAS kernels' row grouping, so scores are
bit-identical to one whole-batch call.

`router_scores`, `filter_costs` and `route()` share one per-kind dispatch,
`_scores` and `_costs`, which take the table's query rows as an index array
or a slice. The batch functions pass an index array, so the table's rows are
copied out; `route()` passes the slice n:n+1, so a learned router scores the
one-row view of the query's embedding and the oracle's scores and true
costs are read-only views of the table's rows. Either way the bits are the
same.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from .dataset import RoutingTable, SplitIndices
from .neuralnet import (
    DenseLayer,
    adam_step,
    backward,
    backward_layers,
    forward,
    forward_layers,
    init_adam,
    init_dense,
    load_checkpoint,
    save_checkpoint,
)
from .oracle import select_under_budget
from .rng import STREAM_INIT, STREAM_SHUFFLE, make_rng

COST_FLOOR = float(np.finfo(np.float64).tiny)
SCORE_BLOCK = 256  # query rows per scoring block; see the module docstring
BLOW_UP = 1e6  # a batch loss over this times the first batch's is divergence
EQUI_TAGS = ("equirouter", "equirouter_nojoint", "mse")  # EquiRouter variants

# splits are either a SplitIndices or a raw (train, valid) index pair; the
# latter lets training-set evaluation train on every query
def _train_valid_arrays(split) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(split, SplitIndices):
        train, valid = split.train, split.valid
    else:
        train, valid = split
    train = np.asarray(train, dtype=np.int64)
    if train.size == 0:
        raise ValueError("training split is empty")
    return train, np.asarray(valid, dtype=np.int64)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class EquiHyper:
    """EquiRouter sizes and training schedule."""

    d_q: int
    n_models: int
    d_m: int = 64
    latent_dim: int = 128
    weight_decay: float = 1e-4
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 2048
    seed: int = 0


@dataclass(frozen=True)
class MlpHyper:
    """Two-layer regressor sizes (cost predictor and MLP baseline)."""

    d_q: int
    n_models: int
    hidden: int = 64
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 2048
    seed: int = 0


# ---------------------------------------------------------------------------
# parameters


@dataclass
class EquiRouterParams:
    model_embeddings: np.ndarray  # (K, d_m)
    trunk: list[DenseLayer]  # d_q -> D -> D, relu
    film_proj: DenseLayer  # d_m -> 2D, linear
    model_proj: DenseLayer  # d_m -> D, linear
    score_head: list[DenseLayer]  # (4D or 2D) -> D -> 1, relu hidden
    hyper: EquiHyper
    tag: str = "equirouter"  # one of EQUI_TAGS
    # (the arrays read, their `_model_terms`), built by `_scoring_terms`
    _terms: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def latent_dim(self) -> int:
        return self.trunk[-1].out_dim

    @property
    def joint_feature(self) -> bool:
        return self.tag != "equirouter_nojoint"


def init_equirouter(hyper: EquiHyper, tag: str = "equirouter") -> EquiRouterParams:
    rng = make_rng(hyper.seed, STREAM_INIT)
    D, d_m = hyper.latent_dim, hyper.d_m
    emb_limit = np.sqrt(6.0 / (d_m + d_m))
    model_embeddings = rng.uniform(-emb_limit, emb_limit, size=(hyper.n_models, d_m))
    trunk = [
        init_dense(rng, hyper.d_q, D, "relu"),
        init_dense(rng, D, D, "relu"),
    ]
    film_proj = init_dense(rng, d_m, 2 * D)
    model_proj = init_dense(rng, d_m, D)
    head_in = 2 * D if tag == "equirouter_nojoint" else 4 * D
    score_head = [init_dense(rng, head_in, D, "relu"), init_dense(rng, D, 1)]
    return EquiRouterParams(
        model_embeddings=model_embeddings,
        trunk=trunk,
        film_proj=film_proj,
        model_proj=model_proj,
        score_head=score_head,
        hyper=hyper,
        tag=tag,
    )


def _layer_params(layers: list[DenseLayer]) -> list[np.ndarray]:
    """Flat [weight, bias, ...] list of a layer stack."""
    return [v for layer in layers for v in (layer.weight, layer.bias)]


def _assign_layers(layers: list[DenseLayer], values: list[np.ndarray]) -> None:
    """Inverse of _layer_params."""
    for i, layer in enumerate(layers):
        layer.weight, layer.bias = values[2 * i], values[2 * i + 1]


def params_list(p: EquiRouterParams) -> list[np.ndarray]:
    """Canonical flat parameter order shared by Adam, grad checks, checkpoints."""
    layers = [*p.trunk, p.film_proj, p.model_proj, *p.score_head]
    return [p.model_embeddings, *_layer_params(layers)]


def assign_params(p: EquiRouterParams, values: list[np.ndarray]) -> None:
    p.model_embeddings = values[0]
    _assign_layers([*p.trunk, p.film_proj, p.model_proj, *p.score_head], values[1:])


# ---------------------------------------------------------------------------
# forward / backward


def _model_terms(p: EquiRouterParams) -> tuple[np.ndarray, ...]:
    """The query-independent terms (gamma, beta, E, beta - E, A, c, Wv^T) of
    the forward pass; A (D, K * D) and c (K, D) fold the modulation and the
    z_j and u blocks (module docstring). Wv^T is None for a no-joint head."""
    D = p.latent_dim
    M = p.model_embeddings
    G = forward(p.film_proj, M)  # (K, 2D)
    gamma, beta = G[:, :D], G[:, D:]
    E = forward(p.model_proj, M)  # (K, D)
    first = p.score_head[0]
    Wz, We = first.weight[:, :D], first.weight[:, D : 2 * D]
    rows = Wz.T[:, None, :]  # (D, 1, D): the z block's rows, shared by every model
    c = beta @ Wz.T + E @ We.T + first.bias
    WvT = None
    if p.joint_feature:
        Wu, Wv = first.weight[:, 2 * D : 3 * D], first.weight[:, 3 * D :]
        rows = rows + E.T[:, :, None] * Wu.T[:, None, :]  # (D, K, D)
        c += (beta * E) @ Wu.T
        WvT = np.ascontiguousarray(Wv.T)
    A = (gamma.T[:, :, None] * rows).reshape(D, -1)
    return gamma, beta, E, beta - E, A, c, WvT


def _scoring_terms(p: EquiRouterParams) -> tuple[np.ndarray, ...]:
    """`_model_terms(p)`, built once per parameter set. The slot is keyed on
    the identity of the arrays the terms read and holds them alive, so no
    id is reused while it exists; replacing any of them rebuilds it."""
    first = p.score_head[0]
    arrays = (
        p.model_embeddings, p.film_proj.weight, p.film_proj.bias,
        p.model_proj.weight, p.model_proj.bias, first.weight, first.bias,
    )
    if p._terms is None or any(a is not b for a, b in zip(p._terms[0], arrays)):
        p._terms = (arrays, _model_terms(p))
    return p._terms[1]


# Workspace slots. Forward: X, kept for the backward pass; |X| in P's slot,
# then V = |X| Wv^T; P, which becomes H. Backward, once the relu mask is
# applied: V's slot holds dH (= dP); P's holds |X|, then dX; X's becomes
# X's sign bits. A no-joint network uses P forward, and P and V's slot backward.
_P, _V, _X = range(3)
_SIGN_BIT = np.uint64(1 << 63)


def _workspace(p: EquiRouterParams, rows: int, score_rows: int) -> np.ndarray:
    """One flat buffer for every (B, K, D) intermediate of `_forward_scores`
    and `_backward_scores`, for training steps of B <= rows and scoring
    blocks of B <= score_rows. Slot i of a B-row pass is the i-th run of
    B * K * D values, so the buffer holds no more (B, K, D) arrays than such
    a pass would hold alive without it."""
    train_slots, score_slots = (3, 3) if p.joint_feature else (2, 1)
    size = max(train_slots * rows, score_slots * score_rows)
    return np.empty(size * p.hyper.n_models * p.latent_dim)


def _slots(workspace: np.ndarray | None, shape: tuple[int, ...], *slots: int) -> tuple:
    """The given workspace slots as arrays of `shape`, B * K * D values
    each; Nones (allocate) without a workspace."""
    if workspace is None:
        return (None,) * len(slots)
    n = math.prod(shape)
    return tuple(workspace[i * n : (i + 1) * n].reshape(shape) for i in slots)


def _forward_scores(
    p: EquiRouterParams,
    Q: np.ndarray,
    terms: tuple[np.ndarray, ...],
    workspace: np.ndarray | None = None,
):
    """Batched scores (B, K) plus the cache needed for the backward pass;
    `terms` are `_model_terms(p)`. With a `_workspace`, every (B, K, D)
    intermediate is written into it; the values are the same either way."""
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[1] != p.hyper.d_q:
        raise ValueError(f"query batch shape {Q.shape} does not match d_q={p.hyper.d_q}")
    D = p.latent_dim
    A, c, WvT = terms[4:]
    B, K = Q.shape[0], len(c)

    Z, trunk_acts = forward_layers(p.trunk, Q)  # (B, D)

    X = None
    if p.joint_feature:  # X = z_j - e_j = gamma * z + (beta - E)
        gamma, shift = terms[0], terms[3]
        abs_out, v_out, x_out = _slots(workspace, (B, K, D), _P, _V, _X)
        X = np.einsum("bd,kd->bkd", Z, gamma, out=x_out)  # faster than broadcasting
        X += shift
        V = np.matmul(np.abs(X, out=abs_out), WvT, out=v_out)
    (p_out,) = _slots(workspace, (B, K * D), _P)
    P = np.matmul(Z, A, out=p_out).reshape(B, K, D)  # every model's z_j and u blocks
    P += c
    if p.joint_feature:
        P += V
    H = np.maximum(P, 0.0, out=P).reshape(-1, D)  # the head's relu hidden layer
    s = forward(p.score_head[1], H)
    cache = (trunk_acts, Z, terms, X, H, workspace)
    return s.reshape(B, K), cache


def _backward_scores(p: EquiRouterParams, cache, dS: np.ndarray) -> list[np.ndarray]:
    """Gradients of sum(dS * scores) w.r.t. every parameter, canonical order;
    reuses the forward pass's workspace, if it had one. It overwrites the
    cached X, so a cache serves one backward pass."""
    trunk_acts, Z, terms, X, H, workspace = cache
    gamma, beta, E, _, A, _, _ = terms
    B, K = dS.shape
    D = p.latent_dim
    first, last = p.score_head
    W1 = first.weight

    dh_out, p_out = _slots(workspace, (B * K, D), _V, _P)
    # the output layer, D -> 1: its input gradient is an outer product
    dS = dS.reshape(B * K, 1)
    dH = np.einsum("ni,id->nd", dS, last.weight, out=dh_out)
    out_w_grad, out_b_grad = dS.T @ H, dS.sum(axis=0)
    dH *= H > 0.0  # relu mask from the recorded output: dH is now dP
    dP = dH.reshape(B, K * D)
    dc = dH.reshape(B, K, D).sum(axis=0)  # (K, D)
    dZ = dP @ A.T  # (B, D)
    dA = (Z.T @ dP).reshape(D, K, D)

    # A[:, j] = gamma_j * (Wz^T + e_j * Wu^T) row-wise, and c_j = beta_j Wz^T
    # + (beta_j * e_j) Wu^T + e_j We^T + b1: back to gamma, beta, E and W1
    Wz, We = W1[:, :D], W1[:, D : 2 * D]
    dGamma = np.einsum("dko,od->kd", dA, Wz)
    dBeta = dc @ Wz
    dE = dc @ We
    if p.joint_feature:
        Wu = W1[:, 2 * D : 3 * D]
        du = np.einsum("dko,od->kd", dA, Wu)
        dGamma += E * du
        dE += gamma * du
    dA *= gamma.T[:, :, None]  # now the gradient of the unscaled rows
    w1_blocks = [dA.sum(axis=1).T + dc.T @ beta, dc.T @ E]
    if p.joint_feature:
        w1_blocks.append(np.einsum("dko,kd->od", dA, E) + dc.T @ (beta * E))
        dcu = dc @ Wu
        dBeta += E * dcu
        dE += beta * dcu
        w1_blocks.append(dH.T @ np.abs(X.reshape(-1, D), out=p_out))
        dX = np.matmul(dH, W1[:, 3 * D :], out=p_out).reshape(B, K, D)
        # dX * sign(X) as a flip of dX's sign bit by X's, which takes a
        # fraction of np.sign's in-place time; sign(±0) is +0, so where X is
        # 0 the product is dX * 0.0
        zero = None if X.all() else X == 0
        if zero is not None:
            dx_at_zero = dX[zero] * 0.0
        sign_bits = X.view(np.uint64)
        sign_bits &= _SIGN_BIT
        np.bitwise_xor(dX.view(np.uint64), sign_bits, out=dX.view(np.uint64))
        if zero is not None:
            dX[zero] = dx_at_zero
        dZ += np.einsum("bkd,kd->bd", dX, gamma)
        dGamma += np.einsum("bkd,bd->kd", dX, Z)
        dShift = dX.sum(axis=0)  # (K, D)
        dBeta += dShift
        dE -= dShift
    dW1 = np.concatenate(w1_blocks, axis=1)
    head_grads = [dW1, dc.sum(axis=0), out_w_grad, out_b_grad]

    M = p.model_embeddings
    dG = np.concatenate([dGamma, dBeta], axis=1)  # (K, 2D)
    dM, film_w_grad, film_b_grad = backward(p.film_proj, M, dG)
    dM_proj, proj_w_grad, proj_b_grad = backward(p.model_proj, M, dE)
    dM = dM + dM_proj

    trunk_grads = backward_layers(p.trunk, trunk_acts, dZ)
    return [
        dM, *trunk_grads, film_w_grad, film_b_grad, proj_w_grad, proj_b_grad, *head_grads
    ]


def _in_blocks(score, Q: np.ndarray) -> np.ndarray:
    """score(Q) over consecutive SCORE_BLOCK-row blocks, the remainder in the last."""
    n = len(Q)
    if n < 2 * SCORE_BLOCK:
        return score(Q)
    edges = [*range(0, n - n % SCORE_BLOCK, SCORE_BLOCK), n]
    result = None  # (N, K), written block by block: no list of blocks to join
    for a, b in zip(edges, edges[1:]):
        block = score(Q[a:b])
        if result is None:
            result = np.empty((n, *block.shape[1:]))
        result[a:b] = block
    return result


def _largest_block(n: int) -> int:
    """Rows of the largest block `_in_blocks` scores n rows in."""
    return n if n < 2 * SCORE_BLOCK else SCORE_BLOCK + n % SCORE_BLOCK


def scores_batch(
    p: EquiRouterParams, Q: np.ndarray, workspace: np.ndarray | None = None
) -> np.ndarray:
    """Scores (N, K) in SCORE_BLOCK-row blocks; a `_workspace` holds every
    block's intermediates, so it needs `_largest_block(N)` rows."""
    terms = _scoring_terms(p)
    return _in_blocks(
        lambda q: _forward_scores(p, q, terms, workspace)[0], np.asarray(Q, dtype=np.float64)
    )


# ---------------------------------------------------------------------------
# ranking supervision


def _precedence(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Boolean (..., K, K): i outranks j iff a_i > a_j, or a_i == a_j and c_i < c_j."""
    ai, aj = a[..., :, None], a[..., None, :]
    return (ai > aj) | ((ai == aj) & (c[..., :, None] < c[..., None, :]))


def build_pair_set(table: RoutingTable, indices: np.ndarray) -> np.ndarray:
    """Precedence weights (N, K, K) of the given queries: W[n, i, j] = 1/|P_n|
    where i outranks j in query n (the `_precedence` rule), else 0. A query's
    matrix sums to 1, or is all zero when it has no ordered pair."""
    P = _precedence(table.perf[indices], table.cost[indices])
    return P / np.maximum(P.sum(axis=(1, 2)), 1)[:, None, None]


def _pair_loss(
    S: np.ndarray, W: np.ndarray, grad: bool = False
) -> tuple[float, int, np.ndarray | None]:
    """Mean over the n queries with any pair of sum_ij W_ij L_ij, where
    L_ij = log(1 + exp(-t_ij)) and t_ij = s_i - s_j; returns (loss, n, dS),
    loss 0 when n is 0, and dS, the loss's gradient w.r.t. S, when `grad`.
    One exp per entry serves both: with e = exp(-|t|), L = max(-t, 0) +
    log1p(e) and sigmoid(-t) = where(t > 0, e, 1) / (1 + e), overflow-free."""
    n = int(np.count_nonzero(W.any(axis=(1, 2))))
    t = S[:, :, None] - S[:, None, :]
    e = np.exp(-np.abs(t))
    loss = float(np.sum(W * (np.maximum(-t, 0.0) + np.log1p(e)))) / n if n else 0.0
    if not (grad and n):
        return loss, n, None
    G = W * (np.where(t > 0.0, e, 1.0) / (1.0 + e)) / n  # W * sigmoid(-t) / n
    return loss, n, np.einsum("bij->bj", G) - np.einsum("bij->bi", G)


def ranking_loss(scores: np.ndarray, weights: np.ndarray) -> float:
    """Mean per-query logistic pair loss log(1 + exp(-(s_i - s_j))) of scores
    (N, K) under precedence weights (N, K, K) from `build_pair_set`.
    Overflow-free at any finite score gap; no pair at all gives 0.
    """
    S = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(S)):
        raise ValueError("scores must be finite")
    return _pair_loss(S, weights)[0]


def ranking_objective(
    p: EquiRouterParams,
    Q: np.ndarray,
    weights: np.ndarray,
    weight_decay: float = 0.0,
    workspace: np.ndarray | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Mean per-query pairwise logistic loss plus 0.5 * wd * ||theta||^2, with
    exact analytic gradients in canonical parameter order. `weights` is the
    batch's slice of `build_pair_set`; queries without pairs are left out.
    A `_workspace` holds the network's intermediates."""
    S, cache = _forward_scores(p, Q, _model_terms(p), workspace)
    loss, n, dS = _pair_loss(S, weights, grad=True)
    if n == 0:
        raise ValueError("no ranking supervision: every query has an empty pair set")
    grads = _backward_scores(p, cache, dS)
    # the loss sees only score differences: the output bias's gradient is 0,
    # exactly, rather than the rounding left in the sum of dS
    grads[-1] = np.zeros_like(grads[-1])
    if weight_decay:
        plist = params_list(p)
        loss += 0.5 * weight_decay * sum(float(np.sum(v * v)) for v in plist)
        grads = [g + weight_decay * v for g, v in zip(grads, plist)]
    return loss, grads


def mse_objective(
    p: EquiRouterParams,
    Q: np.ndarray,
    targets: np.ndarray,
    workspace: np.ndarray | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Mean squared error of scores against per-model targets, with gradients;
    a `_workspace` holds the network's intermediates."""
    S, cache = _forward_scores(p, Q, _model_terms(p), workspace)
    loss, dS = _mse(S, targets)
    return loss, _backward_scores(p, cache, dS)


def _mse(pred: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. `pred`."""
    diff = pred - targets
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    train_loss: float
    val_loss: float


def _batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    order = rng.permutation(n)
    size = min(batch_size, n)
    return [order[i : i + size] for i in range(0, n, size)]


def _check_finite(
    epoch: int,
    what: str,
    loss: float,
    theta: np.ndarray | None = None,
    ends: np.ndarray | None = None,
) -> None:
    """Raise FloatingPointError if the flat parameter vector `theta` holds a
    non-finite value, naming its parameter (`ends` are the parameters' end
    offsets), or else if `loss`, the `what`, is not finite."""
    if theta is not None and not np.isfinite(theta).all():
        i = np.searchsorted(ends, np.argmin(np.isfinite(theta)), side="right")
        raise FloatingPointError(
            f"training diverged at epoch {epoch}: parameter {i} "
            "(canonical order) is not finite after the Adam step"
        )
    if not np.isfinite(loss):
        raise FloatingPointError(f"training diverged at epoch {epoch}: {what} is {loss}")


def _fit(
    plist: list[np.ndarray],
    assign,
    batch_objective,
    val_loss,
    n_train: int,
    hyper: EquiHyper | MlpHyper,
    weight_decay: float = 0.0,
) -> list[TrainLogRow]:
    """Seeded minibatch Adam shared by every trainer.

    The run keeps its parameters as one flat vector, the arrays of `plist`
    concatenated in order. `batch_objective(rows)` returns (loss, grads in
    `plist` order); each Adam step makes a new vector, and `assign(values)`
    installs views of it shaped like `plist`, which `val_loss()` (None: no
    validation signal) scores. No vector is edited once made, so the best
    epoch's is kept by reference. Logs both losses per epoch, leaves the
    lowest-validation-loss epoch installed (else the last), and raises
    FloatingPointError once a loss or an updated parameter is not finite.
    A finite batch loss over BLOW_UP times the first (pre-update) one raises
    it after the last epoch, naming its epoch, unless the run overflows first.
    """
    shapes = [v.shape for v in plist]
    ends = np.cumsum([v.size for v in plist])
    theta = np.concatenate([v.ravel() for v in plist])

    def install(theta: np.ndarray) -> None:
        assign([part.reshape(shape) for part, shape in zip(np.split(theta, ends[:-1]), shapes)])

    adam = init_adam(theta.size, learning_rate=hyper.learning_rate, weight_decay=weight_decay)
    log: list[TrainLogRow] = []
    best = (np.inf, theta)
    first, blow_up = None, None
    for epoch in range(hyper.epochs):
        rng = make_rng(hyper.seed, STREAM_SHUFFLE, epoch)
        total, count = 0.0, 0
        for batch in _batches(n_train, hyper.batch_size, rng):
            loss, grads = batch_objective(batch)
            theta = adam_step(adam, theta, np.concatenate([g.ravel() for g in grads]))
            _check_finite(epoch, "batch loss", loss, theta, ends)
            first = loss if first is None else first
            if blow_up is None and loss > BLOW_UP * first:
                blow_up = (epoch, loss)
            install(theta)
            total += loss * batch.size
            count += batch.size
        vl = float("nan")
        if val_loss is not None:
            vl = val_loss()
            _check_finite(epoch, "validation loss", vl)
        log.append(TrainLogRow(epoch=epoch, train_loss=total / count, val_loss=vl))
        if vl < best[0]:
            best = (vl, theta)
    if blow_up is not None:
        epoch, loss = blow_up
        raise FloatingPointError(f"training diverged at epoch {epoch}: batch loss {loss:.3g} "
                                 f"is over {BLOW_UP:g} times the first batch loss {first:.3g}")
    if np.isfinite(best[0]):
        install(best[1])
    return log


def train_equirouter(
    table: RoutingTable,
    split,
    hyper: EquiHyper | None = None,
    joint_feature: bool = True,
) -> tuple[EquiRouterParams, list[TrainLogRow]]:
    """Minibatch Adam on the pairwise ranking loss with decoupled l2 decay.

    Logs train and validation loss per epoch and returns the parameters of
    the epoch with the lowest validation loss (last epoch when there is no
    validation signal). Bit-reproducible for a fixed seed.
    """
    return _train_scores(
        table, split, hyper, "equirouter" if joint_feature else "equirouter_nojoint"
    )


def train_mse_ablation(
    table: RoutingTable, split, hyper: EquiHyper | None = None
) -> tuple[EquiRouterParams, list[TrainLogRow]]:
    """Ablation: same architecture, scores regressed onto raw performance."""
    return _train_scores(table, split, hyper, "mse")


def _train_scores(
    table: RoutingTable, split, hyper: EquiHyper | None, tag: str
) -> tuple[EquiRouterParams, list[TrainLogRow]]:
    if hyper is None:
        hyper = EquiHyper(d_q=table.embed_dim, n_models=table.n_models)
    train_idx, valid_idx = _train_valid_arrays(split)
    if tag != "mse":
        W_train = build_pair_set(table, train_idx)
        keep = W_train.any(axis=(1, 2))
        if not keep.any():
            raise ValueError("no ranking supervision: every query has an empty pair set")
        train_idx, W_train = train_idx[keep], W_train[keep]
        W_valid = build_pair_set(table, valid_idx)
        keep = W_valid.any(axis=(1, 2))
        W_valid, valid_q = W_valid[keep], table.embeddings[valid_idx[keep]]

        def batch_objective(batch):
            return ranking_objective(params, Q_train[batch], W_train[batch], workspace=workspace)

        def val_loss() -> float:
            S = scores_batch(params, valid_q, workspace)
            if not np.isfinite(S).all():  # ranking_loss would raise
                return float("nan")
            return ranking_loss(S, W_valid)

    else:
        A_train = table.perf[train_idx]
        valid_q = table.embeddings[valid_idx]

        def batch_objective(batch):
            return mse_objective(params, Q_train[batch], A_train[batch], workspace)

        def val_loss() -> float:
            return _mse(scores_batch(params, valid_q, workspace), table.perf[valid_idx])[0]

    params = init_equirouter(hyper, tag)
    Q_train = table.embeddings[train_idx]
    # one workspace for the run: every step and validation block reuses it,
    # so training allocates (and the OS maps in) no (B, K, D) array per step
    workspace = _workspace(
        params, min(hyper.batch_size, train_idx.size), _largest_block(len(valid_q))
    )
    log = _fit(
        params_list(params),
        lambda values: assign_params(params, values),
        batch_objective,
        val_loss if valid_q.shape[0] else None,
        train_idx.size,
        hyper,
        hyper.weight_decay,
    )
    return params, log


# ---------------------------------------------------------------------------
# two-layer regressors: cost predictor and MLP baseline


@dataclass
class CostPredictorParams:
    """Two-layer MLP predicting per-model costs from the query embedding.

    Targets are standardized with training-split statistics; predictions are
    de-standardized and floored at the smallest positive float at inference.
    A model whose training costs are constant gets std clamped to 1 (mean-only
    standardization).
    """

    layers: list[DenseLayer]  # d_q -> H, relu; H -> K, linear
    target_mean: np.ndarray  # (K,)
    target_std: np.ndarray  # (K,)
    hyper: MlpHyper
    tag: ClassVar[str] = "cost"


@dataclass
class MlpRouterParams:
    """Baseline: two-layer MLP regressing per-model performance."""

    layers: list[DenseLayer]  # d_q -> H, relu; H -> K, linear
    hyper: MlpHyper
    tag: ClassVar[str] = "mlp"


def _init_two_layer(hyper: MlpHyper) -> list[DenseLayer]:
    rng = make_rng(hyper.seed, STREAM_INIT)
    return [
        init_dense(rng, hyper.d_q, hyper.hidden, "relu"),
        init_dense(rng, hyper.hidden, hyper.n_models),
    ]


def _regressor_objective(
    layers: list[DenseLayer], Q: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """MSE of a layer stack's outputs against targets, with gradients in
    [weight, bias, ...] order."""
    y, acts = forward_layers(layers, Q)
    loss, dy = _mse(y, targets)
    return loss, backward_layers(layers, acts, dy)


def _train_two_layer(
    Q_train: np.ndarray,
    T_train: np.ndarray,
    Q_valid: np.ndarray,
    T_valid: np.ndarray,
    hyper: MlpHyper,
) -> tuple[list[DenseLayer], list[TrainLogRow]]:
    layers = _init_two_layer(hyper)

    def val_loss() -> float:
        return _mse(forward_layers(layers, Q_valid)[0], T_valid)[0]

    log = _fit(
        _layer_params(layers),
        lambda values: _assign_layers(layers, values),
        lambda batch: _regressor_objective(layers, Q_train[batch], T_train[batch]),
        val_loss if Q_valid.shape[0] else None,
        Q_train.shape[0],
        hyper,
    )
    return layers, log


def train_cost_predictor(
    table: RoutingTable, split, hyper: MlpHyper | None = None
) -> tuple[CostPredictorParams, list[TrainLogRow]]:
    if hyper is None:
        hyper = MlpHyper(d_q=table.embed_dim, n_models=table.n_models)
    train_idx, valid_idx = _train_valid_arrays(split)
    costs = table.cost[train_idx]
    mean = costs.mean(axis=0)
    std = costs.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    layers, log = _train_two_layer(
        table.embeddings[train_idx],
        (costs - mean) / std,
        table.embeddings[valid_idx],
        (table.cost[valid_idx] - mean) / std,
        hyper,
    )
    return CostPredictorParams(layers, mean, std, hyper), log


def predict_costs(cp: CostPredictorParams, Q: np.ndarray) -> np.ndarray:
    """De-standardized cost predictions, floored at the smallest positive float."""
    def block(q: np.ndarray) -> np.ndarray:
        # a fresh array, de-standardized in place
        y = forward_layers(cp.layers, q)[0]
        y *= cp.target_std
        y += cp.target_mean
        return np.maximum(y, COST_FLOOR, out=y)

    return _in_blocks(block, np.atleast_2d(np.asarray(Q, dtype=np.float64)))


def train_mlp_router(
    table: RoutingTable, split, hyper: MlpHyper | None = None
) -> tuple[MlpRouterParams, list[TrainLogRow]]:
    if hyper is None:
        hyper = MlpHyper(d_q=table.embed_dim, n_models=table.n_models)
    train_idx, valid_idx = _train_valid_arrays(split)
    layers, log = _train_two_layer(
        table.embeddings[train_idx],
        table.perf[train_idx],
        table.embeddings[valid_idx],
        table.perf[valid_idx],
        hyper,
    )
    return MlpRouterParams(layers, hyper), log


# ---------------------------------------------------------------------------
# kNN baseline and oracle sentinel


@dataclass(frozen=True)
class KnnRouterParams:
    """Non-parametric baseline: mean perf row of the k nearest train queries."""

    k: int
    train_indices: tuple[int, ...]
    split_seed: int
    tag: ClassVar[str] = "knn"
    # (table, reference embeddings, their squared norms, reference perf rows,
    # first-occurrence columns or None), built by `_knn_reference` for the
    # last table scored
    _reference: tuple | None = field(default=None, init=False, repr=False, compare=False)


def train_knn_router(table: RoutingTable, split, k: int) -> KnnRouterParams:
    if k < 1:
        raise ValueError("k must be >= 1")
    train_idx, _ = _train_valid_arrays(split)
    return KnnRouterParams(
        k=int(k),
        train_indices=tuple(int(i) for i in train_idx),
        split_seed=int(getattr(split, "seed", 0)),
    )


def _knn_reference(knn: KnnRouterParams, table: RoutingTable) -> tuple:
    """The training rows' embeddings, squared norms and perf rows, and, when
    some rows are bit-identical, each row's first occurrence (else None);
    built once per table. The slot is keyed on the table object itself: a
    RoutingTable and its arrays are immutable, and the slot holds the table
    alive, so no other table can pass the `is` check."""
    if knn._reference is None or knn._reference[0] is not table:
        rows = np.asarray(knn.train_indices, dtype=np.int64)
        ref = table.embeddings[rows]
        row_bytes = ref.view(np.dtype((np.void, ref.itemsize * ref.shape[1]))).ravel()
        _, first, inverse = np.unique(row_bytes, return_index=True, return_inverse=True)
        first = first[inverse]
        if np.array_equal(first, np.arange(len(ref))):
            first = None
        reference = (table, ref, (ref * ref).sum(axis=1), table.perf[rows], first)
        object.__setattr__(knn, "_reference", reference)
    return knn._reference[1:]


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(d2, axis=1, kind="stable")[:, :k], found by partition."""
    n = d2.shape[1]
    if k < n:
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        keep = d2 <= kth
        counts = keep.sum(axis=1)
        if (counts > k).any():  # ties at the k-th distance: keep the earliest
            tied = d2 == kth
            room = k - (d2 < kth).sum(axis=1, keepdims=True)
            keep &= ~tied | (np.cumsum(tied, axis=1) <= room)
        if (counts >= k).all():  # else a NaN k-th distance: argsort below
            flat = np.flatnonzero(keep).reshape(-1, k)
            order = np.argsort(d2.ravel()[flat], axis=1, kind="stable")
            order += np.arange(0, flat.size, k)[:, None]  # flat offsets into `flat`
            return flat.ravel()[order] % n
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def knn_scores(knn: KnnRouterParams, table: RoutingTable, Q: np.ndarray) -> np.ndarray:
    ref, r_sq, ref_perf, first = _knn_reference(knn, table)
    k = min(knn.k, len(ref))

    def block(q: np.ndarray) -> np.ndarray:
        # |q - r|^2 via the gemm expansion, and a query equal to a training
        # row still gets distance exactly 0 (x + x - 2x); stable selection:
        # distance ties resolve to the earlier training row
        d2 = (q * q).sum(axis=1, keepdims=True) + r_sq[None, :] - 2.0 * (q @ ref.T)
        if first is not None:  # BLAS may round copies' columns apart: tie them
            d2 = d2[:, first]
        # np.mean's own sum and count, without its Python wrapper
        return np.add.reduce(ref_perf[_nearest(d2, k)], axis=1) / k

    return _in_blocks(block, Q)


@dataclass(frozen=True)
class OracleRouter:
    """Sentinel router scoring each model by its true performance."""

    tag: ClassVar[str] = "oracle"


Router = EquiRouterParams | MlpRouterParams | KnnRouterParams | OracleRouter


# ---------------------------------------------------------------------------
# uniform decision interface


@dataclass(frozen=True)
class RouterDecision:
    query_index: int
    budget: float
    chosen: int
    scores: np.ndarray  # (K,)
    predicted_costs: np.ndarray  # (K,) costs used for the feasibility filter
    feasible_clamped: bool


def _scores(router: Router, table: RoutingTable, rows) -> np.ndarray:
    """Scores (R, K) of the table's query rows `rows`, an int64 index array
    or a slice; the per-kind dispatch of the module docstring."""
    if isinstance(router, OracleRouter):
        return table.perf[rows]
    Q = table.embeddings[rows]
    if isinstance(router, EquiRouterParams):
        return scores_batch(router, Q)
    if isinstance(router, MlpRouterParams):
        return _in_blocks(lambda q: forward_layers(router.layers, q)[0], Q)
    if isinstance(router, KnnRouterParams):
        return knn_scores(router, table, Q)
    raise TypeError(f"unknown router type {type(router)!r}")


def _costs(
    router: Router,
    table: RoutingTable,
    rows,
    cost_source: str,
    cost_predictor: CostPredictorParams | None,
) -> np.ndarray:
    """Filter costs (R, K) of the query rows `rows`, as `_scores` takes
    them. The source is checked for every kind, the oracle included."""
    if cost_source not in ("oracle", "predicted"):
        raise ValueError(f"unknown cost_source {cost_source!r}")
    if cost_source == "oracle" or isinstance(router, OracleRouter):
        return table.cost[rows]
    if cost_predictor is None:
        raise ValueError("cost_source='predicted' requires a cost predictor")
    return predict_costs(cost_predictor, table.embeddings[rows])


def router_scores(
    router: Router, table: RoutingTable, indices: np.ndarray
) -> np.ndarray:
    """Score matrix (len(indices), K) under the uniform router interface."""
    return _scores(router, table, np.asarray(indices, dtype=np.int64))


def filter_costs(
    router: Router,
    table: RoutingTable,
    indices: np.ndarray,
    cost_source: str,
    cost_predictor: CostPredictorParams | None = None,
) -> np.ndarray:
    """Costs used for the budget filter: true costs or predictor output. The
    oracle router always filters on true costs; a source other than
    "oracle" or "predicted" raises ValueError for every router."""
    return _costs(router, table, np.asarray(indices, dtype=np.int64), cost_source,
                  cost_predictor)


def route(
    router: Router,
    table: RoutingTable,
    n: int,
    budget: float,
    cost_source: str = "oracle",
    cost_predictor: CostPredictorParams | None = None,
) -> RouterDecision:
    """Budget-filtered selection: argmax score, ties to cheaper then lower index.

    The query's row is scored as the one-row view `table.embeddings[n:n+1]`
    through the dispatch `router_scores` and `filter_costs` use, so its
    scores and costs are bit-identical to theirs for [n], with no index
    array or row copy made. The oracle's arrays are read-only views of the
    table's rows; every other array is the decision's own.
    """
    N = table.n_queries
    # a negative or fractional n would silently route another query
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n < N:
        raise ValueError(f"query index n = {n!r} must be an integer in 0..{N - 1} (N = {N})")
    row = slice(n, n + 1)
    scores = _scores(router, table, row)[0]
    costs = _costs(router, table, row, cost_source, cost_predictor)[0]
    chosen, clamped = select_under_budget(scores, costs, budget)
    return RouterDecision(
        query_index=int(n),
        budget=float(budget),
        chosen=chosen,
        scores=scores,
        predicted_costs=costs,
        feasible_clamped=clamped,
    )


# ---------------------------------------------------------------------------
# checkpoints


# the hyperparameters that size a network's arrays
_HYPER_SIZES = ("d_q", "n_models", "d_m", "latent_dim", "hidden")


def _arrays(net: EquiRouterParams | MlpRouterParams | CostPredictorParams) -> list[np.ndarray]:
    """A trained network's checkpoint arrays: `params_list` for an EquiRouter,
    else the layer arrays, then a cost predictor's target mean and std."""
    if isinstance(net, EquiRouterParams):
        return params_list(net)
    arrays = _layer_params(net.layers)
    if isinstance(net, CostPredictorParams):
        arrays += [net.target_mean, net.target_std]
    return arrays


def _assign_arrays(net, values: list[np.ndarray]) -> None:
    """Inverse of _arrays."""
    if isinstance(net, EquiRouterParams):
        assign_params(net, values)
        return
    _assign_layers(net.layers, values)
    if isinstance(net, CostPredictorParams):
        net.target_mean, net.target_std = values[-2:]


def save_router(path: Path | str, router: Router | CostPredictorParams) -> None:
    """Write a checkpoint: a kNN router's header, or a trained network's
    header and `_arrays`. The oracle has no checkpoint."""
    if isinstance(router, KnnRouterParams):
        header, arrays = {"router_type": "knn", "k": router.k, "split_seed": router.split_seed,
                          "train_indices": list(router.train_indices)}, []
    elif isinstance(router, (EquiRouterParams, MlpRouterParams, CostPredictorParams)):
        header = {"router_type": router.tag, "hyper": asdict(router.hyper)}
        arrays = _arrays(router)
    else:
        raise TypeError(f"cannot checkpoint router type {type(router)!r}")
    save_checkpoint(path, header, arrays)


def save_cost_predictor(path: Path | str, cp: CostPredictorParams) -> None:
    save_router(path, cp)


def load_router(path: Path | str):
    """Load any checkpoint written by save_router or save_cost_predictor;
    ValueError naming the file and the field when a header field is missing
    or malformed, or the arrays do not fit its hyperparameters."""
    header, arrays = load_checkpoint(path)

    def field(name: str):
        if name not in header:
            raise ValueError(f"{path}: checkpoint header has no {name!r} field")
        return header[name]

    def hyper(cls):
        """The 'hyper' field as a `cls`, checked before a network is built
        from it: int fields are ints, and sizes are >= 1 and, as in any file
        that fits, an axis length of its arrays, bounding the network's size."""
        try:
            h = cls(**field("hyper"))
        except TypeError as exc:
            raise ValueError(f"{path}: checkpoint field 'hyper': {exc}") from None
        axes = {n for a in arrays for n in a.shape}
        # a JSON integer decodes to an int, and a bool's type is not int
        for f in fields(h):
            value, size = getattr(h, f.name), f.name in _HYPER_SIZES
            if f.type == "int" and not (type(value) is int and (value >= 1 or not size)):
                raise ValueError(f"{path}: checkpoint field 'hyper': {f.name} is not an "
                                 f"integer{' >= 1' if size else ''}: {value!r}")
            if size and value not in axes:
                raise ValueError(f"{path}: checkpoint arrays do not fit its field 'hyper'")
        return h

    kind = field("router_type")
    if kind == "knn":
        k, train, seed = field("k"), field("train_indices"), field("split_seed")
        if not (type(k) is int and k >= 1):
            raise ValueError(f"{path}: checkpoint field 'k' is not an integer >= 1: {k!r}")
        if not (isinstance(train, list) and set(map(type, train)) <= {int}):
            raise ValueError(f"{path}: checkpoint field 'train_indices' is not a list of "
                             "integers")
        if not train:  # no neighbours: every score would be NaN
            raise ValueError(f"{path}: checkpoint field 'train_indices' is empty")
        if type(seed) is not int:
            raise ValueError(f"{path}: checkpoint field 'split_seed' is not an integer: {seed!r}")
        return KnnRouterParams(k=k, train_indices=tuple(train), split_seed=seed)
    # a trained network: its init builds the template the file's arrays must fit
    if kind in EQUI_TAGS:
        net = init_equirouter(hyper(EquiHyper), kind)
    elif kind == "mlp":
        h = hyper(MlpHyper)
        net = MlpRouterParams(_init_two_layer(h), h)
    elif kind == "cost":
        h = hyper(MlpHyper)
        net = CostPredictorParams(_init_two_layer(h), np.zeros(h.n_models), np.ones(h.n_models), h)
    else:
        raise ValueError(f"unknown router_type {kind!r} in checkpoint")
    if [a.shape for a in arrays] != [a.shape for a in _arrays(net)]:
        raise ValueError(f"{path}: checkpoint arrays do not fit its field 'hyper'")
    _assign_arrays(net, arrays)
    return net
