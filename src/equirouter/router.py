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
architecture but regresses s_j onto the raw performance values.

The ordered pairs of a split are one dense precedence tensor W (N, K, K),
W[n, i, j] = 1/|P_n| where i outranks j in query n, built once per split;
batch loss, score gradient and validation loss are masked array ops over it.
W takes N * K^2 * 8 bytes, about 1 MB for 1000 training queries over 11
models; K <= 20 keeps it negligible.

The head's first layer acts on the four D-column blocks of h_j separately.
With W1 = [Wz, We, Wu, Wv], its pre-activation is z_j Wz^T + (z_j * e_j) Wu^T
+ |z_j - e_j| Wv^T + c_j, where c_j = e_j We^T + b1 is a per-model constant
computed once per call; the no-joint head keeps the z_j and c terms. Training
and scoring so hold (B, K, D) arrays, never a (B * K, 4D) one. The trunk, the
FiLM and model projections and the head's output layer backpropagate through
`neuralnet.backward`; the modulation, the interaction blocks and the head's
first layer are differentiated here. Every trainer runs the same epoch loop
(`_fit`) and differs only in its batch objective and validation loss. Tests
check every gradient against finite differences.

Every router scores a batch in blocks of SCORE_BLOCK = 256 query rows, the
remainder merged into the last (256-511 rows): scoring memory is O(511 * K * D),
for kNN O(511 * n_train), plus the (N, K) result, whatever N. Blocks at fixed
multiples of 256 rows keep the BLAS kernels' row grouping, so scores are
bit-identical to one whole-batch call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

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

# splits are either a SplitIndices or a raw (train, valid) index pair; the
# latter lets training-set evaluation train on every query
def _train_valid_arrays(split) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(split, SplitIndices):
        train, valid = split.train, split.valid
    else:
        train, valid = split
    return (
        np.asarray(train, dtype=np.int64),
        np.asarray(valid, dtype=np.int64),
    )


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
    joint_feature: bool = True
    tag: str = "equirouter"  # checkpoint tag: equirouter | equirouter_nojoint | mse

    @property
    def latent_dim(self) -> int:
        return self.trunk[-1].out_dim


def init_equirouter(
    hyper: EquiHyper, joint_feature: bool = True, tag: str | None = None
) -> EquiRouterParams:
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
    head_in = 4 * D if joint_feature else 2 * D
    score_head = [init_dense(rng, head_in, D, "relu"), init_dense(rng, D, 1)]
    if tag is None:
        tag = "equirouter" if joint_feature else "equirouter_nojoint"
    return EquiRouterParams(
        model_embeddings=model_embeddings,
        trunk=trunk,
        film_proj=film_proj,
        model_proj=model_proj,
        score_head=score_head,
        hyper=hyper,
        joint_feature=joint_feature,
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


def _forward_scores(p: EquiRouterParams, Q: np.ndarray):
    """Batched scores (B, K) plus the cache needed for the backward pass."""
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[1] != p.hyper.d_q:
        raise ValueError(f"query batch shape {Q.shape} does not match d_q={p.hyper.d_q}")
    D = p.latent_dim

    Z, trunk_acts = forward_layers(p.trunk, Q)  # (B, D)

    M = p.model_embeddings
    G = forward(p.film_proj, M)  # (K, 2D)
    gamma, beta = G[:, :D], G[:, D:]
    E = forward(p.model_proj, M)  # (K, D)

    Zj = Z[:, None, :] * gamma
    Zj += beta  # (B, K, D)
    first, last = p.score_head
    Wt = np.ascontiguousarray(first.weight.T)  # row block i acts on part i of h_j
    P = Zj @ Wt[:D]
    P += E @ Wt[D : 2 * D] + first.bias  # the per-model constant c
    if p.joint_feature:
        T = Zj * E  # U, then |X| with X = Zj - E; S holds each block's product
        S = T @ Wt[2 * D : 3 * D]
        P += S
        np.abs(np.subtract(Zj, E, out=T), out=T)
        P += np.matmul(T, Wt[3 * D :], out=S)
    H = np.maximum(P, 0.0, out=P).reshape(-1, D)  # the head's relu hidden layer
    s = forward(last, H)
    cache = (trunk_acts, Z, gamma, E, Zj, H)
    return s.reshape(Zj.shape[:2]), cache


def _backward_scores(p: EquiRouterParams, cache, dS: np.ndarray) -> list[np.ndarray]:
    """Gradients of sum(dS * scores) w.r.t. every parameter, canonical order."""
    trunk_acts, Z, gamma, E, Zj, H = cache
    B, K = dS.shape
    D = p.latent_dim
    first, last = p.score_head
    W1 = first.weight

    dH, out_w_grad, out_b_grad = backward(last, H, dS.reshape(B * K, 1))
    dH *= H > 0.0  # relu mask from the recorded output: dH is now dP
    dP = dH.reshape(B, K, D)
    dc = dP.sum(axis=0)  # (K, D)
    w1_blocks = [dH.T @ Zj.reshape(-1, D), dc.T @ E]
    dZj = dP @ W1[:, :D]
    dE = dc @ W1[:, D : 2 * D]  # (K, D)
    if p.joint_feature:
        T = Zj * E  # U, X, sign(X): recomputed, so scoring need not keep them
        w1_blocks.append(dH.T @ T.reshape(-1, D))
        np.subtract(Zj, E, out=T)
        w1_blocks.append(dH.T @ np.abs(T).reshape(-1, D))
        dV = dP @ W1[:, 3 * D :]
        dV *= np.sign(T, out=T)
        dZj += dV
        dE -= dV.sum(axis=0)
        dU = np.matmul(dP, W1[:, 2 * D : 3 * D], out=dV)
        dE += np.einsum("bkd,bkd->kd", dU, Zj)
        dU *= E
        dZj += dU
    dW1 = np.concatenate(w1_blocks, axis=1)
    head_grads = [dW1, dc.sum(axis=0), out_w_grad, out_b_grad]

    dGamma = np.einsum("bkd,bd->kd", dZj, Z)
    dBeta = dZj.sum(axis=0)  # (K, D)
    dZ = np.einsum("bkd,kd->bd", dZj, gamma)

    M = p.model_embeddings
    dG = np.concatenate([dGamma, dBeta], axis=1)  # (K, 2D)
    dM, film_w_grad, film_b_grad = backward(p.film_proj, M, dG)
    dM_proj, proj_w_grad, proj_b_grad = backward(p.model_proj, M, dE)
    dM = dM + dM_proj

    _, trunk_grads = backward_layers(p.trunk, trunk_acts, dZ, input_grad=False)
    return [
        dM, *trunk_grads, film_w_grad, film_b_grad, proj_w_grad, proj_b_grad, *head_grads
    ]


def _in_blocks(score, Q: np.ndarray) -> np.ndarray:
    """score(Q) over consecutive SCORE_BLOCK-row blocks, the remainder in the last."""
    n = len(Q)
    if n < 2 * SCORE_BLOCK:
        return score(Q)
    edges = [*range(0, n - n % SCORE_BLOCK, SCORE_BLOCK), n]
    return np.concatenate([score(Q[a:b]) for a, b in zip(edges, edges[1:])])


def scores_batch(p: EquiRouterParams, Q: np.ndarray) -> np.ndarray:
    return _in_blocks(lambda q: _forward_scores(p, q)[0], np.asarray(Q, dtype=np.float64))


# ---------------------------------------------------------------------------
# ranking supervision


def _precedence(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Boolean (..., K, K): i outranks j iff a_i > a_j, or a_i == a_j and c_i < c_j."""
    ai, aj = a[..., :, None], a[..., None, :]
    return (ai > aj) | ((ai == aj) & (c[..., :, None] < c[..., None, :]))


def build_pairs(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Ordered index pairs (i, j) with i ranked above j for one query: the
    nonzero pattern of its precedence matrix, as a (P, 2) int array."""
    a = np.asarray(a, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if a.shape != c.shape or a.ndim != 1:
        raise ValueError("performance and cost rows must be equal-length vectors")
    return np.argwhere(_precedence(a, c))


def build_pair_set(table: RoutingTable, indices: np.ndarray) -> np.ndarray:
    """Precedence weights (N, K, K) of the given queries: W[n, i, j] = 1/|P_n|
    where i outranks j in query n (the `build_pairs` rule), else 0. A query's
    matrix sums to 1, or is all zero when it has no ordered pair."""
    P = _precedence(table.perf[indices], table.cost[indices])
    return P / np.maximum(P.sum(axis=(1, 2)), 1)[:, None, None]


def _pair_loss(S: np.ndarray, W: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Mean over the n queries with any pair of sum_ij W_ij log(1 + exp(-t_ij)),
    t_ij = s_i - s_j; returns (loss, t, n), loss 0 when n is 0."""
    n = int(np.count_nonzero(W.any(axis=(1, 2))))
    t = S[:, :, None] - S[:, None, :]
    return (float(np.sum(W * np.logaddexp(0.0, -t))) / n if n else 0.0), t, n


def ranking_loss(scores: np.ndarray, pairs: np.ndarray) -> float:
    """Mean per-query logistic pair loss log(1 + exp(-(s_i - s_j))).

    Scores (N, K) take precedence weights (N, K, K) from `build_pair_set`;
    one query's scores (K,) take an int (P, 2) pair list, which becomes the
    weight matrix 1/|P| on the listed pairs. Stable via log1p-exp for score
    gaps up to ~1e3; no pair at all gives 0.
    """
    S = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(S)):
        raise ValueError("scores must be finite")
    if S.ndim == 1:
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        K = S.size
        hits = np.bincount(pairs[:, 0] * K + pairs[:, 1], minlength=K * K)
        S, pairs = S[None], hits.reshape(1, K, K) / max(len(pairs), 1)
    return _pair_loss(S, pairs)[0]


def ranking_objective(
    p: EquiRouterParams,
    Q: np.ndarray,
    weights: np.ndarray,
    weight_decay: float = 0.0,
) -> tuple[float, list[np.ndarray]]:
    """Mean per-query pairwise logistic loss plus 0.5 * wd * ||theta||^2, with
    exact analytic gradients in canonical parameter order. `weights` is the
    batch's slice of `build_pair_set`; queries without pairs are left out."""
    S, cache = _forward_scores(p, Q)
    loss, t, n = _pair_loss(S, weights)
    if n == 0:
        raise ValueError("no ranking supervision: every query has an empty pair set")
    G = weights * np.exp(-np.logaddexp(0.0, t)) / n  # W * sigmoid(-t), overflow-free
    grads = _backward_scores(p, cache, G.sum(axis=1) - G.sum(axis=2))
    if weight_decay:
        plist = params_list(p)
        loss += 0.5 * weight_decay * sum(float(np.sum(v * v)) for v in plist)
        grads = [g + weight_decay * v for g, v in zip(grads, plist)]
    return loss, grads


def mse_objective(
    p: EquiRouterParams, Q: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Mean squared error of scores against per-model targets, with gradients."""
    S, cache = _forward_scores(p, Q)
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


def _check_finite(epoch: int, what: str, loss: float, plist: list[np.ndarray]) -> None:
    for i, v in enumerate(plist):
        if not np.isfinite(v).all():
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

    `batch_objective(rows)` returns (loss, grads in `plist` order),
    `assign(values)` installs parameters and `val_loss()` (None: no
    validation signal) scores them. Logs both losses per epoch, leaves the
    lowest-validation-loss epoch installed (else the last), and raises
    FloatingPointError once a loss or an updated parameter is not finite.
    A finite batch loss over BLOW_UP times the first (pre-update) one raises
    it after the last epoch, naming its epoch, unless the run overflows first.
    """
    adam = init_adam(plist, learning_rate=hyper.learning_rate, weight_decay=weight_decay)
    log: list[TrainLogRow] = []
    best = (np.inf, [v.copy() for v in plist])
    first, blow_up = None, None
    for epoch in range(hyper.epochs):
        rng = make_rng(hyper.seed, STREAM_SHUFFLE, epoch)
        total, count = 0.0, 0
        for batch in _batches(n_train, hyper.batch_size, rng):
            loss, grads = batch_objective(batch)
            plist = adam_step(adam, plist, grads)
            _check_finite(epoch, "batch loss", loss, plist)
            first = loss if first is None else first
            if blow_up is None and loss > BLOW_UP * first:
                blow_up = (epoch, loss)
            assign(plist)
            total += loss * batch.size
            count += batch.size
        vl = float("nan")
        if val_loss is not None:
            vl = val_loss()
            _check_finite(epoch, "validation loss", vl, [])
        log.append(TrainLogRow(epoch=epoch, train_loss=total / count, val_loss=vl))
        if vl < best[0]:
            best = (vl, [v.copy() for v in plist])
    if blow_up is not None:
        epoch, loss = blow_up
        raise FloatingPointError(f"training diverged at epoch {epoch}: batch loss {loss:.3g} "
                                 f"is over {BLOW_UP:g} times the first batch loss {first:.3g}")
    if np.isfinite(best[0]):
        assign(best[1])
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
    if hyper is None:
        hyper = EquiHyper(d_q=table.embed_dim, n_models=table.n_models)
    train_idx, valid_idx = _train_valid_arrays(split)
    return _train_scores(
        table, train_idx, valid_idx, hyper, joint_feature=joint_feature, objective="rank"
    )


def train_mse_ablation(
    table: RoutingTable, split, hyper: EquiHyper | None = None
) -> tuple[EquiRouterParams, list[TrainLogRow]]:
    """Ablation: same architecture, scores regressed onto raw performance."""
    if hyper is None:
        hyper = EquiHyper(d_q=table.embed_dim, n_models=table.n_models)
    train_idx, valid_idx = _train_valid_arrays(split)
    return _train_scores(
        table, train_idx, valid_idx, hyper, joint_feature=True, objective="mse"
    )


def _train_scores(
    table: RoutingTable,
    train_idx: np.ndarray,
    valid_idx: np.ndarray,
    hyper: EquiHyper,
    joint_feature: bool,
    objective: str,
) -> tuple[EquiRouterParams, list[TrainLogRow]]:
    if train_idx.size == 0:
        raise ValueError("training split is empty")
    if objective == "rank":
        W_train = build_pair_set(table, train_idx)
        keep = W_train.any(axis=(1, 2))
        if not keep.any():
            raise ValueError("no ranking supervision: every query has an empty pair set")
        train_idx, W_train = train_idx[keep], W_train[keep]
        W_valid = build_pair_set(table, valid_idx)
        keep = W_valid.any(axis=(1, 2))
        W_valid, valid_q = W_valid[keep], table.embeddings[valid_idx[keep]]

        def batch_objective(batch):
            return ranking_objective(params, Q_train[batch], W_train[batch])

        def val_loss() -> float:
            S = scores_batch(params, valid_q)
            if not np.isfinite(S).all():  # ranking_loss would raise
                return float("nan")
            return ranking_loss(S, W_valid)

    else:
        A_train = table.perf[train_idx]
        valid_q = table.embeddings[valid_idx]

        def batch_objective(batch):
            return mse_objective(params, Q_train[batch], A_train[batch])

        def val_loss() -> float:
            return _mse(scores_batch(params, valid_q), table.perf[valid_idx])[0]

    params = init_equirouter(
        hyper, joint_feature=joint_feature, tag="mse" if objective == "mse" else None
    )
    Q_train = table.embeddings[train_idx]
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

    hidden_layer: DenseLayer  # d_q -> H, relu
    output_layer: DenseLayer  # H -> K, linear
    target_mean: np.ndarray  # (K,)
    target_std: np.ndarray  # (K,)
    hyper: MlpHyper
    tag: str = "cost"


@dataclass
class MlpRouterParams:
    """Baseline: two-layer MLP regressing per-model performance."""

    hidden_layer: DenseLayer
    output_layer: DenseLayer
    hyper: MlpHyper
    tag: str = "mlp"


def _init_two_layer(hyper: MlpHyper) -> tuple[DenseLayer, DenseLayer]:
    rng = make_rng(hyper.seed, STREAM_INIT)
    return (
        init_dense(rng, hyper.d_q, hyper.hidden, "relu"),
        init_dense(rng, hyper.hidden, hyper.n_models),
    )


def _regressor_objective(
    layers: list[DenseLayer], Q: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """MSE of a layer stack's outputs against targets, with gradients in
    [weight, bias, ...] order."""
    y, acts = forward_layers(layers, Q)
    loss, dy = _mse(y, targets)
    return loss, backward_layers(layers, acts, dy, input_grad=False)[1]


def _train_two_layer(
    Q_train: np.ndarray,
    T_train: np.ndarray,
    Q_valid: np.ndarray,
    T_valid: np.ndarray,
    hyper: MlpHyper,
) -> tuple[DenseLayer, DenseLayer, list[TrainLogRow]]:
    layers = list(_init_two_layer(hyper))

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
    return layers[0], layers[1], log


def train_cost_predictor(
    table: RoutingTable, split, hyper: MlpHyper | None = None
) -> tuple[CostPredictorParams, list[TrainLogRow]]:
    if hyper is None:
        hyper = MlpHyper(d_q=table.embed_dim, n_models=table.n_models)
    train_idx, valid_idx = _train_valid_arrays(split)
    if train_idx.size == 0:
        raise ValueError("training split is empty")
    costs = table.cost[train_idx]
    mean = costs.mean(axis=0)
    std = costs.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    l1, l2, log = _train_two_layer(
        table.embeddings[train_idx],
        (costs - mean) / std,
        table.embeddings[valid_idx],
        (table.cost[valid_idx] - mean) / std,
        hyper,
    )
    return (
        CostPredictorParams(
            hidden_layer=l1,
            output_layer=l2,
            target_mean=mean,
            target_std=std,
            hyper=hyper,
        ),
        log,
    )


def predict_costs(cp: CostPredictorParams, Q: np.ndarray) -> np.ndarray:
    """De-standardized cost predictions, floored at the smallest positive float."""
    def block(q: np.ndarray) -> np.ndarray:
        y = forward_layers([cp.hidden_layer, cp.output_layer], q)[0]
        return np.maximum(y * cp.target_std + cp.target_mean, COST_FLOOR)

    return _in_blocks(block, np.atleast_2d(np.asarray(Q, dtype=np.float64)))


def train_mlp_router(
    table: RoutingTable, split, hyper: MlpHyper | None = None
) -> tuple[MlpRouterParams, list[TrainLogRow]]:
    if hyper is None:
        hyper = MlpHyper(d_q=table.embed_dim, n_models=table.n_models)
    train_idx, valid_idx = _train_valid_arrays(split)
    if train_idx.size == 0:
        raise ValueError("training split is empty")
    l1, l2, log = _train_two_layer(
        table.embeddings[train_idx],
        table.perf[train_idx],
        table.embeddings[valid_idx],
        table.perf[valid_idx],
        hyper,
    )
    return MlpRouterParams(hidden_layer=l1, output_layer=l2, hyper=hyper), log


# ---------------------------------------------------------------------------
# kNN baseline and oracle sentinel


@dataclass(frozen=True)
class KnnRouterParams:
    """Non-parametric baseline: mean perf row of the k nearest train queries."""

    k: int
    train_indices: tuple[int, ...]
    split_seed: int
    tag: str = "knn"
    # (table, reference embeddings, their squared norms, reference perf rows),
    # built by `_knn_reference` for the last table scored
    _reference: tuple | None = field(default=None, init=False, repr=False, compare=False)


def train_knn_router(table: RoutingTable, split, k: int = 50) -> KnnRouterParams:
    if k < 1:
        raise ValueError("k must be >= 1")
    train_idx, _ = _train_valid_arrays(split)
    if train_idx.size == 0:
        raise ValueError("training split is empty")
    return KnnRouterParams(
        k=int(k),
        train_indices=tuple(int(i) for i in train_idx),
        split_seed=int(getattr(split, "seed", 0)),
    )


def _knn_reference(knn: KnnRouterParams, table: RoutingTable) -> tuple:
    """The training rows' embeddings, squared norms and perf rows, built once
    per table. The slot is keyed on the table object itself: a RoutingTable
    and its arrays are immutable, and the slot holds the table alive, so no
    other table can pass the `is` check."""
    if knn._reference is None or knn._reference[0] is not table:
        rows = np.asarray(knn.train_indices, dtype=np.int64)
        ref = table.embeddings[rows]
        reference = (table, ref, (ref * ref).sum(axis=1), table.perf[rows])
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
            return np.take_along_axis(flat, order, axis=1) % n
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def knn_scores(knn: KnnRouterParams, table: RoutingTable, Q: np.ndarray) -> np.ndarray:
    ref, r_sq, ref_perf = _knn_reference(knn, table)
    k = min(knn.k, len(ref))

    def block(q: np.ndarray) -> np.ndarray:
        # |q - r|^2 via the gemm expansion, and a query equal to a training
        # row still gets distance exactly 0 (x + x - 2x); stable selection:
        # distance ties resolve to the earlier training row
        d2 = (q * q).sum(axis=1, keepdims=True) + r_sq[None, :] - 2.0 * (q @ ref.T)
        return ref_perf[_nearest(d2, k)].mean(axis=1)

    return _in_blocks(block, Q)


@dataclass(frozen=True)
class OracleRouter:
    """Sentinel router scoring each model by its true performance."""

    tag: str = "oracle"


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


def router_scores(
    router: Router, table: RoutingTable, indices: np.ndarray
) -> np.ndarray:
    """Score matrix (len(indices), K) under the uniform router interface."""
    indices = np.asarray(indices, dtype=np.int64)
    if isinstance(router, OracleRouter):
        return table.perf[indices]
    if isinstance(router, EquiRouterParams):
        return scores_batch(router, table.embeddings[indices])
    if isinstance(router, MlpRouterParams):
        layers = [router.hidden_layer, router.output_layer]
        return _in_blocks(lambda q: forward_layers(layers, q)[0], table.embeddings[indices])
    if isinstance(router, KnnRouterParams):
        return knn_scores(router, table, table.embeddings[indices])
    raise TypeError(f"unknown router type {type(router)!r}")


def filter_costs(
    router: Router,
    table: RoutingTable,
    indices: np.ndarray,
    cost_source: str,
    cost_predictor: CostPredictorParams | None = None,
) -> np.ndarray:
    """Costs used for the budget filter: true costs or predictor output."""
    indices = np.asarray(indices, dtype=np.int64)
    if cost_source == "oracle" or isinstance(router, OracleRouter):
        return table.cost[indices]
    if cost_source == "predicted":
        if cost_predictor is None:
            raise ValueError("cost_source='predicted' requires a cost predictor")
        return predict_costs(cost_predictor, table.embeddings[indices])
    raise ValueError(f"unknown cost_source {cost_source!r}")


def route(
    router: Router,
    table: RoutingTable,
    n: int,
    budget: float,
    cost_source: str = "oracle",
    cost_predictor: CostPredictorParams | None = None,
) -> RouterDecision:
    """Budget-filtered selection: argmax score, ties to cheaper then lower index."""
    idx = np.array([n], dtype=np.int64)
    scores = router_scores(router, table, idx)[0]
    costs = filter_costs(router, table, idx, cost_source, cost_predictor)[0]
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


def _hyper_dict(h) -> dict:
    return {k: getattr(h, k) for k in h.__dataclass_fields__}


def save_router(path: Path | str, router: Router) -> None:
    if isinstance(router, EquiRouterParams):
        header = {
            "router_type": router.tag,
            "joint_feature": router.joint_feature,
            "hyper": _hyper_dict(router.hyper),
        }
        save_checkpoint(path, header, params_list(router))
    elif isinstance(router, MlpRouterParams):
        header = {"router_type": "mlp", "hyper": _hyper_dict(router.hyper)}
        layers = [router.hidden_layer, router.output_layer]
        save_checkpoint(path, header, _layer_params(layers))
    elif isinstance(router, KnnRouterParams):
        header = {
            "router_type": "knn",
            "k": router.k,
            "split_seed": router.split_seed,
            "train_indices": list(router.train_indices),
        }
        save_checkpoint(path, header, [])
    elif isinstance(router, OracleRouter):
        save_checkpoint(path, {"router_type": "oracle"}, [])
    else:
        raise TypeError(f"cannot checkpoint router type {type(router)!r}")


def save_cost_predictor(path: Path | str, cp: CostPredictorParams) -> None:
    header = {"router_type": "cost", "hyper": _hyper_dict(cp.hyper)}
    layers = [cp.hidden_layer, cp.output_layer]
    save_checkpoint(
        path, header, [*_layer_params(layers), cp.target_mean, cp.target_std]
    )


def load_router(path: Path | str):
    """Load any checkpoint written by save_router or save_cost_predictor."""
    header, params = load_checkpoint(path)
    kind = header["router_type"]
    if kind in ("equirouter", "equirouter_nojoint", "mse"):
        hyper = EquiHyper(**header["hyper"])
        router = init_equirouter(
            hyper, joint_feature=bool(header["joint_feature"]), tag=kind
        )
        assign_params(router, params)
        return router
    if kind == "mlp":
        hyper = MlpHyper(**header["hyper"])
        w1, b1, w2, b2 = params
        return MlpRouterParams(
            hidden_layer=DenseLayer(w1, b1, "relu"),
            output_layer=DenseLayer(w2, b2, "identity"),
            hyper=hyper,
        )
    if kind == "knn":
        return KnnRouterParams(
            k=int(header["k"]),
            train_indices=tuple(header["train_indices"]),
            split_seed=int(header["split_seed"]),
        )
    if kind == "cost":
        hyper = MlpHyper(**header["hyper"])
        w1, b1, w2, b2, mean, std = params
        return CostPredictorParams(
            hidden_layer=DenseLayer(w1, b1, "relu"),
            output_layer=DenseLayer(w2, b2, "identity"),
            target_mean=mean,
            target_std=std,
            hyper=hyper,
        )
    if kind == "oracle":
        return OracleRouter()
    raise ValueError(f"unknown router_type {kind!r} in checkpoint")
