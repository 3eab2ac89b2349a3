import os

# the determinism contract is single-threaded BLAS, as the CI and the
# benchmark run it; set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from equirouter.dataset import ModelInfo, RoutingTable, SynthConfig, generate_synthetic
from equirouter.oracle import select_under_budget
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


def build_pairs(a, c) -> np.ndarray:
    """Reference spec of one query's ordered pairs (i, j), i ranked above j:
    the nonzero pattern of its precedence matrix, as a (P, 2) int array."""
    a = np.asarray(a, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if a.shape != c.shape or a.ndim != 1:
        raise ValueError("performance and cost rows must be equal-length vectors")
    return np.argwhere(_precedence(a, c))


def constant_policy_router(table, favored=0):
    """MLP with zeroed weights and a one-hot output bias: constant scores."""
    mlp, _ = train_mlp_router(
        table,
        (np.arange(table.n_queries), np.array([], dtype=int)),
        MlpHyper(d_q=table.embed_dim, n_models=table.n_models, hidden=4, epochs=1,
                 batch_size=8),
    )
    mlp.hidden_layer.weight = np.zeros_like(mlp.hidden_layer.weight)
    mlp.hidden_layer.bias = np.zeros_like(mlp.hidden_layer.bias)
    mlp.output_layer.weight = np.zeros_like(mlp.output_layer.weight)
    bias = np.zeros(table.n_models)
    bias[favored] = 1.0
    mlp.output_layer.bias = bias
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
