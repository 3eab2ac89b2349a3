"""Ground-truth routing rule, true-performance margins, Monte Carlo win rates.

The oracle picks, per query and budget, the feasible model with the highest
true performance, breaking ties by lowest cost and then lowest index. The
same lexicographic rule is reused by every learned router, applied to its
own scores/predicted costs, so it lives here.

The rule is computed over cost-sorted prefixes. Stable-sort a query's models
by (filter cost, index). The models affordable at any budget are then a
prefix of that order, its length the number of costs <= budget, and within
the prefix a model's position already ranks it by (cost, index). So the
first maximum score of the prefix is the (max score, min cost, min index)
choice, and the clamped fallback, the cheapest model with the lowest index,
is the first model of the order. A running argmax gives the choice for every
prefix length at once (`prefix_table`); any budget is then a count of
affordable models and a lookup (`PrefixTable.select`). The rule only
compares and gathers, so it is exact: no arithmetic touches a score or cost.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import RoutingTable
from .rng import STREAM_MC, make_rng


@dataclass(frozen=True)
class FeasibleSet:
    """Models whose cost stays within the budget for one query.

    When no model is affordable the cheapest one is force-included and
    `clamped` is set: deployment must answer every query.
    """

    query_index: int
    budget: float
    members: tuple[int, ...]
    clamped: bool


def feasible_set(table: RoutingTable, n: int, budget: float) -> FeasibleSet:
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    costs = table.cost[n]
    members = np.flatnonzero(costs <= budget)
    clamped = members.size == 0
    if clamped:
        members = np.array([np.argmin(costs)])
    return FeasibleSet(
        query_index=int(n),
        budget=float(budget),
        members=tuple(int(j) for j in members),
        clamped=bool(clamped),
    )


def _check_scores(scores: np.ndarray) -> None:
    # NaN compares false with everything, so no model would rank first
    if np.isnan(scores).any():
        raise ValueError("router scores contain NaN; the routing rule cannot rank them")


def select_under_budget(
    scores: np.ndarray, filter_costs: np.ndarray, budget: float
) -> tuple[int, bool]:
    """Apply the routing rule for one query: the first maximum score over the
    affordable prefix of the (filter cost, index) order, or the first model
    of that order, clamped, when nothing is affordable."""
    _check_scores(scores)
    order = np.argsort(filter_costs, kind="stable")
    count = int(np.count_nonzero(filter_costs <= budget))
    if count == 0:
        return int(order[0]), True
    return int(order[np.argmax(scores[order[:count]])]), False


@dataclass(frozen=True, eq=False)
class PrefixTable:
    """The routing rule's choice for every affordable prefix of each query's
    (filter cost, index)-sorted models."""

    filter_costs: np.ndarray  # (N, K)
    choices: np.ndarray  # (N, K): column m is the choice when m + 1 models are affordable

    def select(self, budget: float) -> tuple[np.ndarray, np.ndarray]:
        """(choices, clamped) of shape (N,) at one budget. A NaN budget
        affords nothing, so every row clamps."""
        count = np.count_nonzero(self.filter_costs <= budget, axis=1)
        clamped = count == 0
        col = np.maximum(count - 1, 0)
        return self.choices[np.arange(col.size), col], clamped


def prefix_table(scores: np.ndarray, filter_costs: np.ndarray) -> PrefixTable:
    """Build the PrefixTable of (N, K) score and cost matrices: a stable sort
    by cost, then a running first-argmax of the sorted scores."""
    filter_costs = np.asarray(filter_costs)
    _check_scores(scores)
    order = np.argsort(filter_costs, axis=1, kind="stable")
    ranked = np.take_along_axis(np.asarray(scores), order, axis=1)
    running = np.maximum.accumulate(ranked, axis=1)
    # a position opens a new maximum when it strictly beats every earlier one;
    # the first maximum of a prefix is the last such position inside it
    record = np.ones(ranked.shape, dtype=bool)
    record[:, 1:] = ranked[:, 1:] > running[:, :-1]
    positions = np.where(record, np.arange(ranked.shape[1]), 0)
    first_max = np.maximum.accumulate(positions, axis=1)
    return PrefixTable(filter_costs, np.take_along_axis(order, first_max, axis=1))


def select_under_budget_batch(
    scores: np.ndarray, filter_costs: np.ndarray, budget: float
) -> tuple[np.ndarray, np.ndarray]:
    """Routing rule over (N, K) score and cost matrices at one budget.

    Returns (choices, clamped) of shape (N,), row by row equal to
    select_under_budget. To route many budgets, build prefix_table once.
    """
    return prefix_table(scores, filter_costs).select(budget)


def oracle_select(table: RoutingTable, n: int, budget: float) -> int:
    """Budget-feasible model with highest true performance, cheapest on ties."""
    choice, _ = select_under_budget(table.perf[n], table.cost[n], budget)
    return choice


def margin(table: RoutingTable, n: int, budget: float) -> float | None:
    """Gap between best and second-best feasible performance; None if |F| < 2."""
    fs = feasible_set(table, n, budget)
    if len(fs.members) < 2:
        return None
    a = np.sort(table.perf[n, list(fs.members)])
    return float(a[-1] - a[-2])


@dataclass(frozen=True)
class MarginStats:
    """Distribution of top-two performance gaps at one budget."""

    margins: np.ndarray  # defined margins only, queries with |F| >= 2
    tie_rate: float
    cdf_at: dict[float, float]


def margin_stats(
    table: RoutingTable, budget: float, thresholds: list[float]
) -> MarginStats:
    if sorted(thresholds) != list(thresholds):
        raise ValueError("thresholds must be sorted ascending")
    values = [margin(table, n, budget) for n in range(table.n_queries)]
    margins = np.array([v for v in values if v is not None], dtype=np.float64)
    if margins.size == 0:
        raise ValueError("no query has >= 2 feasible models at this budget")
    tie_rate = float(np.mean(margins == 0.0))
    cdf = {float(t): float(np.mean(margins <= t)) for t in thresholds}
    if 0.0 not in cdf:
        cdf[0.0] = tie_rate
    return MarginStats(margins=margins, tie_rate=tie_rate, cdf_at=cdf)


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
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
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


def write_margin_cdf_csv(stats: MarginStats, path: Path | str) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["threshold", "cdf"])
        for t in sorted(stats.cdf_at):
            w.writerow([repr(t), repr(stats.cdf_at[t])])
