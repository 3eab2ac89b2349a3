"""Budget-sweep harness and metrics: nAUC, peak score, QNC, RCI, call rates,
training-set evaluation and the oracle-noise sensitivity curve.

A sweep routes every split query at each budget on a grid and records the
mean realized performance and mean realized cost; realized costs are always
the true costs, even when the budget filter ran on predicted costs, because
deployment pays true prices.

The sweep builds the routing rule's prefix table (oracle.prefix_table) once,
model-major: a (K, N) array of choices, one row per prefix length, filled by
a K-step running argmax across all queries. It then walks the grid in blocks
of SWEEP_BLOCK budgets. PrefixTable.select decides a whole block, (block, N)
choices at once; the sweep keeps only each budget's call counts and its
means, reductions along the query axis. The walk therefore holds
O(SWEEP_BLOCK * N + N * K) memory and never an (N, G) array; at N = 10 000,
K = 11 an oracle sweep peaks at about 5.3 (N, K) float64 tables, set by the
prefix table's build.
Means sum pairwise in fixed query order, exactly as np.mean of one budget's
values does, so results are reproducible bit for bit. The curve (SweepCurve)
is columns, one entry per budget, and so is the collapse report (rci) with
its per-query values. Every report CSV is written from such columns by
_floatfmt.write_csv.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._floatfmt import write_csv
from .dataset import RoutingTable
from .oracle import prefix_table, select_under_budget_batch
from .rng import STREAM_NOISE, make_rng
from .router import CostPredictorParams, Router, filter_costs, router_scores

QNC_SENTINEL = "/"
SWEEP_BLOCK = 8  # budgets decided per block of the grid walk


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """One budget sweep as columns, one entry per grid budget, sorted by
    (mean realized cost, budget), and the router's per-query choices with
    every model affordable."""

    budget: np.ndarray  # (G,)
    mean_cost: np.ndarray  # (G,)
    mean_perf: np.ndarray  # (G,)
    calls: np.ndarray  # (G, K): selections per model at each budget
    clamped: np.ndarray  # (G,): queries whose feasible set needed the cheapest-model fallback
    unlimited_choices: np.ndarray  # (N,)

    def __post_init__(self):
        if np.any(self.mean_cost[:-1] > self.mean_cost[1:]):
            raise ValueError("sweep points must be sorted by mean cost")

    def __eq__(self, other):
        """Equal columns, compared exactly; a NaN budget equals nothing."""
        return isinstance(other, SweepCurve) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


def budget_grid(
    table: RoutingTable, indices: Sequence[int], n_points: int
) -> np.ndarray:
    """Evenly spaced budgets from the cheapest per-query minimum cost to the
    single largest cost on the split, endpoints included."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("split is empty")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    costs = table.cost[indices]
    lo = float(costs.min(axis=1).min())
    hi = float(costs.max())
    return np.linspace(lo, hi, n_points)


def sweep(
    router: Router,
    table: RoutingTable,
    indices: Sequence[int],
    grid: Sequence[float],
    cost_source: str = "oracle",
    cost_predictor: CostPredictorParams | None = None,
) -> SweepCurve:
    """Route every split query at each budget of the grid in one walk.

    Scores, filter costs and the rule's prefix table are computed once, since
    they do not depend on the budget. The grid is then walked in blocks of
    SWEEP_BLOCK budgets, each decided by one PrefixTable.select; a block keeps
    only its call counts and its two means. Besides the (N, K) tables the walk
    holds O(SWEEP_BLOCK * N) memory; no (N, G) array is built. The columns
    are sorted by (mean cost, budget), stably from grid order.
    """
    indices = np.asarray(indices, dtype=np.int64)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("budget grid is empty")
    prefix = prefix_table(
        router_scores(router, table, indices),
        filter_costs(router, table, indices, cost_source, cost_predictor),
    )
    K = prefix.choices.shape[1]
    G = grid.size

    perf_flat, cost_flat = table.perf.ravel(), table.cost.ravel()
    row_base = indices * K  # a row's flat index in the table
    mean_cost, mean_perf = np.empty(G), np.empty(G)
    calls = np.empty((G, K), dtype=np.int64)
    clamped = np.empty(G, dtype=np.int64)
    for start in range(0, G, SWEEP_BLOCK):
        block = slice(start, start + SWEEP_BLOCK)
        model, clamp = prefix.select(grid[block])
        b = model.shape[0]
        # budget i's calls fill bins i * K to i * K + K - 1
        bins = model + (np.arange(b) * K)[:, None]
        calls[block] = np.bincount(bins.ravel(), minlength=b * K).reshape(b, K)
        clamped[block] = np.count_nonzero(clamp, axis=1)
        model += row_base  # each choice's flat index in the table
        # a mean along the contiguous query axis sums pairwise, as np.mean
        # of one budget's (N,) values does, so the bits are the same
        mean_cost[block] = np.take(cost_flat, model, mode="clip").mean(axis=1)
        mean_perf[block] = np.take(perf_flat, model, mode="clip").mean(axis=1)

    costs, budgets = mean_cost.tolist(), grid.tolist()
    order = sorted(range(G), key=lambda g: (costs[g], budgets[g]))
    return SweepCurve(
        budget=grid[order], mean_cost=mean_cost[order], mean_perf=mean_perf[order],
        calls=calls[order], clamped=clamped[order],
        # a copy: a view of the last row would keep the whole (K, N) table alive
        unlimited_choices=prefix.prefix_choices[-1].copy(),
    )


def _as_xy(curve) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(curve, SweepCurve):
        return curve.mean_cost, curve.mean_perf
    pts = sorted(((float(x), float(y)) for x, y in curve), key=lambda t: t[0])
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    return xs, ys


def _merge_equal_cost(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge points with identical mean cost, keeping the max performance;
    zero-width segments would otherwise make the integral ill-defined."""
    if xs.size == 0:
        return xs, ys
    starts = np.flatnonzero(np.concatenate([[True], xs[1:] != xs[:-1]]))
    return xs[starts], np.maximum.reduceat(ys, starts)


def nauc(curve) -> float:
    """Trapezoidal area under the performance-cost curve, normalized by the
    cost range. Accepts a SweepCurve or an iterable of (cost, perf) pairs."""
    xs, ys = _merge_equal_cost(*_as_xy(curve))
    if xs.size < 2 or xs[-1] == xs[0]:
        raise ValueError(
            "degenerate cost range: every curve point has the same mean cost "
            "(constant routing policy across budgets)"
        )
    area = float(np.sum((ys[1:] + ys[:-1]) / 2.0 * np.diff(xs)))
    return area / float(xs[-1] - xs[0])


def peak_score(curve) -> tuple[float, float]:
    """(max performance on the curve, cost at the peak); ties take the
    lowest cost among maximizers."""
    xs, ys = _as_xy(curve)
    if xs.size == 0:
        raise ValueError("empty curve")
    best = ys.max()
    at = xs[ys == best].min()
    return float(best), float(at)


def strongest_standalone(
    table: RoutingTable, indices: Sequence[int]
) -> tuple[float, float, int]:
    """(a_max, x_max, j_max): best single-model mean performance on the split,
    that model's mean cost, and its index (ties to the lowest index)."""
    indices = np.asarray(indices, dtype=np.int64)
    means = table.perf[indices].mean(axis=0)
    j_max = int(np.argmax(means))
    return float(means[j_max]), float(table.cost[indices, j_max].mean()), j_max


def qnc_from_curve(curve, a_max: float, x_max: float) -> tuple[float | None, float | None]:
    """(absolute QNC, QNC / x_max): minimal mean cost on the curve reaching
    the best standalone quality, or (None, None) when never reached."""
    xs, ys = _merge_equal_cost(*_as_xy(curve))
    reached = xs[ys >= a_max]
    if reached.size == 0:
        return None, None
    q = float(reached.min())
    return q, q / x_max


def qnc(curve, table: RoutingTable, indices: Sequence[int]) -> tuple[float | None, float | None]:
    a_max, x_max, _ = strongest_standalone(table, indices)
    return qnc_from_curve(curve, a_max, x_max)


# ---------------------------------------------------------------------------
# routing collapse index


@dataclass(frozen=True, eq=False)
class CollapseReport:
    """Per-query collapse columns in split order and their mean."""

    n: np.ndarray  # query index in the table
    m_n: np.ndarray  # selected model
    a_sel: np.ndarray  # selected model's performance
    a_star: np.ndarray  # best performance in the pool
    x_n: np.ndarray  # strictly cheaper models
    k_n: np.ndarray  # strictly cheaper models matching or beating the selection
    s_n: np.ndarray  # per-query collapse score
    rci: float


def rci(
    table: RoutingTable, selections: Sequence[int], indices: Sequence[int]
) -> CollapseReport:
    """Per-query collapse scores as columns, and their mean.

    Per query: a_star is the best performance over the full pool; S_n the
    models strictly cheaper than the selection. The score is 1 when the
    selection is not performance-optimal; otherwise the fraction of strictly
    cheaper models matching or exceeding it (0 when none are cheaper).
    Performance comparisons use exact float equality: tables are ground
    truth, an epsilon would silently change the index.
    """
    indices = np.asarray(indices, dtype=np.int64)
    selections = np.asarray(selections, dtype=np.int64)
    if selections.shape != indices.shape:
        raise ValueError("need exactly one selection per split query")
    K = table.n_models
    if selections.size and (selections.min() < 0 or selections.max() >= K):
        raise ValueError("selection index out of range")

    perf = table.perf[indices]
    cost = table.cost[indices]
    rows = np.arange(indices.size)
    a_sel = perf[rows, selections]
    a_star = perf.max(axis=1)
    cheaper = cost < cost[rows, selections][:, None]
    x_n = cheaper.sum(axis=1)
    k_n = (cheaper & (perf >= a_sel[:, None])).sum(axis=1)
    s_n = np.where(
        a_sel < a_star, 1.0, np.where(x_n > 0, k_n / np.maximum(x_n, 1), 0.0)
    )
    return CollapseReport(
        n=indices.copy(), m_n=selections.copy(), a_sel=a_sel, a_star=a_star,
        x_n=x_n, k_n=k_n, s_n=s_n,
        rci=float(s_n.mean()) if s_n.size else 0.0,
    )


def call_rate_curve(curve: SweepCurve) -> tuple[np.ndarray, np.ndarray]:
    """(budgets, shares): the sweep's budgets in ascending order, (G,), and
    each budget's per-model call shares, (G, K), every row summing to 1."""
    budgets = curve.budget.tolist()
    order = sorted(range(len(budgets)), key=budgets.__getitem__)
    calls = curve.calls[order]
    return curve.budget[order], calls / calls.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# metric bundle


@dataclass(frozen=True)
class MetricsSummary:
    nauc: float
    peak_score: float
    peak_cost: float
    qnc: float | None  # None = never reaches the strongest standalone quality
    qnc_relative: float | None
    rci: float
    a_max: float
    x_max: float
    j_max: int


def metrics_summary(
    curve: SweepCurve,
    table: RoutingTable,
    indices: Sequence[int],
    collapse: CollapseReport | None = None,
) -> MetricsSummary:
    """Curve metrics plus the collapse index of the curve's unlimited-budget
    choices; `collapse`, when given, is that report already computed."""
    indices = np.asarray(indices, dtype=np.int64)
    a_max, x_max, j_max = strongest_standalone(table, indices)
    q_abs, q_rel = qnc_from_curve(curve, a_max, x_max)
    ps, pc = peak_score(curve)
    if collapse is None:
        collapse = rci(table, curve.unlimited_choices, indices)
    return MetricsSummary(
        nauc=nauc(curve),
        peak_score=ps,
        peak_cost=pc,
        qnc=q_abs,
        qnc_relative=q_rel,
        rci=collapse.rci,
        a_max=a_max,
        x_max=x_max,
        j_max=j_max,
    )


def training_set_eval(
    train_fn: Callable[[RoutingTable, np.ndarray, np.ndarray], Router],
    table: RoutingTable,
    n_points: int,
) -> tuple[MetricsSummary, SweepCurve]:
    """Train on the full table and evaluate on the same queries.

    `train_fn(table, train_indices, valid_indices)` receives every query as
    training data and an empty validation set; the sweep then runs over the
    identical queries and filters on their true costs. Removes any
    train-test gap, so collapse observed here cannot be blamed on
    distribution shift or on cost prediction.
    """
    all_idx = np.arange(table.n_queries, dtype=np.int64)
    router = train_fn(table, all_idx, np.array([], dtype=np.int64))
    grid = budget_grid(table, all_idx, n_points)
    curve = sweep(router, table, all_idx, grid)
    summary = metrics_summary(curve, table, all_idx)
    return summary, curve


@dataclass(frozen=True)
class NoiseRow:
    sigma: float
    accuracy: float  # mean realized true performance
    strongest_share: float  # call share of the most expensive model


def noise_sensitivity(
    table: RoutingTable,
    sigmas: Sequence[float],
    budget: float,
    seed: int,
    indices: Sequence[int] | None = None,
) -> list[NoiseRow]:
    """Noisy-oracle routing at one budget for each noise scale.

    For each sigma the rule is argmax of (true perf + Gaussian noise) within
    the true-cost feasible set, ties broken by true cost then index; sigma=0
    reproduces the exact oracle. Noise streams are derived per sigma index,
    so rows are independent and the whole call is deterministic in `seed`.
    """
    if indices is None:
        indices = np.arange(table.n_queries, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    costs = table.cost[indices]
    perf = table.perf[indices]
    strongest = int(np.argmax(costs.mean(axis=0)))
    rows = np.arange(indices.size)

    out = []
    for i, sigma in enumerate(sigmas):
        if not (np.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
        noisy = perf
        if sigma > 0:
            rng = make_rng(seed, STREAM_NOISE, i)
            noisy = perf + sigma * rng.standard_normal(perf.shape)
        choices, _ = select_under_budget_batch(noisy, costs, budget)
        out.append(
            NoiseRow(
                sigma=float(sigma),
                accuracy=float(np.mean(perf[rows, choices])),
                strongest_share=float(np.mean(choices == strongest)),
            )
        )
    return out


# ---------------------------------------------------------------------------
# file emission (consumed by external plotting, byte-deterministic)


def write_curve_csv(curve: SweepCurve, path: Path | str) -> None:
    write_csv(path, {
        "budget": curve.budget, "mean_cost": curve.mean_cost, "mean_perf": curve.mean_perf,
        **{f"calls_model_{j}": calls for j, calls in enumerate(curve.calls.T)},
        "clamped": curve.clamped,
    })


def metrics_to_dict(summary: MetricsSummary) -> dict:
    d = asdict(summary)
    for name in ("qnc", "qnc_relative"):
        if d[name] is None:
            d[name] = QNC_SENTINEL
    return d


def write_metrics_json(summary: MetricsSummary, path: Path | str) -> None:
    Path(path).write_text(json.dumps(metrics_to_dict(summary), sort_keys=True) + "\n")


def write_rci_csv(report: CollapseReport, path: Path | str) -> None:
    write_csv(path, {name: getattr(report, name)
                     for name in ("n", "m_n", "a_sel", "a_star", "x_n", "k_n", "s_n")})


def write_noise_csv(rows: Sequence[NoiseRow], path: Path | str) -> None:
    write_csv(path, {name: [getattr(r, name) for r in rows]
                     for name in ("sigma", "accuracy", "strongest_share")})


def write_callrates_csv(rates: tuple[np.ndarray, np.ndarray], path: Path | str) -> None:
    budgets, shares = rates
    write_csv(path, {"budget": budgets,
                     **{f"share_model_{j}": share for j, share in enumerate(shares.T)}})
