import os

# the determinism contract is single-threaded BLAS, as the CI and the
# benchmark run it; set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from dataclasses import dataclass  # noqa: E402
from typing import Callable, Sequence  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from equirouter.dataset import ModelInfo, RoutingTable, SynthConfig, generate_synthetic
from equirouter.oracle import select_under_budget
from equirouter.rng import STREAM_GRADCHECK, STREAM_MC, make_rng
from equirouter.router import MlpHyper, _precedence, train_mlp_router

# every property test draws the same examples on every run: no random
# seed, no example database carried between runs, no per-example deadline
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def make_table(perf, cost, embeddings=None) -> RoutingTable:
    """Hand-built table from perf/cost matrices (embeddings optional noise)."""
    perf = np.asarray(perf, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    n, k = perf.shape
    if embeddings is None:
        rng = np.random.Generator(np.random.Philox(7))
        embeddings = rng.standard_normal((n, 3))
    models = tuple(ModelInfo(j, f"m{j}", float(j)) for j in range(k))
    return RoutingTable(
        models=models,
        query_ids=tuple(f"q{i}" for i in range(n)),
        embeddings=np.asarray(embeddings, dtype=np.float64),
        perf=perf,
        cost=cost,
    )


def margin(table: RoutingTable, n: int, budget: float) -> float | None:
    """Reference spec of one query's oracle margin: the gap between the best
    and second-best performance among the models with cost <= budget (the
    cheapest model alone when none is); None when fewer than two remain."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    costs = table.cost[n]
    members = np.flatnonzero(costs <= budget)
    if members.size == 0:
        members = np.array([np.argmin(costs)])
    if members.size < 2:
        return None
    a = np.sort(table.perf[n, members])
    return float(a[-1] - a[-2])


def oracle_select(table: RoutingTable, n: int, budget: float) -> int:
    """Reference spec of one query's oracle pick: the budget-feasible model
    with the highest true performance, cheapest on ties."""
    choice, _ = select_under_budget(table.perf[n], table.cost[n], budget)
    return choice


def prefix_choices(scores, filter_costs) -> np.ndarray:
    """Reference spec of the prefix table's (N, K) choices, built row-wise:
    stable-sort each query's models by (filter cost, index); column m is the
    first maximum score among the first m + 1 of them."""
    order = np.argsort(filter_costs, axis=1, kind="stable")
    ranked = np.take_along_axis(np.asarray(scores), order, axis=1)
    # a position opens a new maximum when it strictly beats every earlier one;
    # the first maximum of a prefix is the last such position inside it
    record = np.ones(ranked.shape, dtype=bool)
    record[:, 1:] = ranked[:, 1:] > np.maximum.accumulate(ranked, axis=1)[:, :-1]
    first_max = np.maximum.accumulate(np.where(record, np.arange(ranked.shape[1]), 0), axis=1)
    return np.take_along_axis(order, first_max, axis=1)


def mc_selection_frequencies(
    a: np.ndarray, sigma: float, trials: int, seed: int
) -> np.ndarray:
    """Empirical win frequencies of argmax(a + noise) over repeated trials.

    Noise is i.i.d. N(0, sigma^2) per model per trial; exact argmax ties go
    to the lowest index. Frequencies sum to 1.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        raise ValueError("mean vector must be nonempty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    rng = make_rng(seed, STREAM_MC)
    wins = np.zeros(a.size, dtype=np.int64)
    # chunked so trials=1e5 x K stays cache-friendly
    chunk = 65536
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        noisy = a[None, :] + sigma * rng.standard_normal((m, a.size))
        wins += np.bincount(np.argmax(noisy, axis=1), minlength=a.size)
        done += m
    return wins / trials


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


def build_pairs(a, c) -> np.ndarray:
    """Reference spec of one query's ordered pairs (i, j), i ranked above j:
    the nonzero pattern of its precedence matrix, as a (P, 2) int array."""
    a = np.asarray(a, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if a.shape != c.shape or a.ndim != 1:
        raise ValueError("performance and cost rows must be equal-length vectors")
    return np.argwhere(_precedence(a, c))


def one_query(scores, pairs) -> tuple[np.ndarray, np.ndarray]:
    """`ranking_loss`'s arguments for one query: its scores (K,) as (1, K) and
    its pair list (P, 2) as (1, K, K) weights, 1/P on each listed pair."""
    S = np.asarray(scores, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    K = S.size
    hits = np.bincount(pairs[:, 0] * K + pairs[:, 1], minlength=K * K)
    return S[None], hits.reshape(1, K, K) / max(len(pairs), 1)


def constant_policy_router(table, favored=0):
    """MLP with zeroed weights and a one-hot output bias: constant scores."""
    mlp, _ = train_mlp_router(
        table,
        (np.arange(table.n_queries), np.array([], dtype=int)),
        MlpHyper(d_q=table.embed_dim, n_models=table.n_models, hidden=4, epochs=1,
                 batch_size=8),
    )
    hidden, output = mlp.layers
    hidden.weight = np.zeros_like(hidden.weight)
    hidden.bias = np.zeros_like(hidden.bias)
    output.weight = np.zeros_like(output.weight)
    bias = np.zeros(table.n_models)
    bias[favored] = 1.0
    output.bias = bias
    return mlp


@pytest.fixture(scope="session")
def small_synth() -> RoutingTable:
    return generate_synthetic(
        SynthConfig(
            n_queries=400,
            n_models=4,
            embed_dim=12,
            tie_fraction=0.8,
            margin_scale=0.2,
            cost_spread=10.0,
            noise_seed=11,
        )
    )
