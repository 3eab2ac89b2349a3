"""Ground-truth routing rule and true-performance margins.

The oracle picks, per query and budget, the feasible model with the highest
true performance, breaking ties by lowest cost and then lowest index. The
same lexicographic rule is reused by every learned router, applied to its
own scores/predicted costs, so it lives here.

The rule has two forms. For many queries or budgets it is computed over
cost-sorted prefixes. Stable-sort a query's models by (filter cost, index).
The models affordable at any budget are then a prefix of that order, its
length the number of costs <= budget, and within the prefix a model's
position already ranks it by (cost, index). So the first maximum score of
the prefix is the (max score, min cost, min index) choice, and the clamped
fallback, the cheapest model with the lowest index, is the first model of
the order. A running argmax gives the choice for every prefix length at once
(`prefix_table`). It is built model-major: the sorted scores are one (K, N)
array whose row m holds the score of every query's (m + 1)-th cheapest
model, and K - 1 steps of whole-row operations across all N queries carry
the running maximum and the choice from one prefix length to the next. Any
budget is then a count of affordable models and a lookup.
`PrefixTable.select` decides one budget or a block of budgets at once,
summing each model's row of filter-cost comparisons.

For one query at one budget, `select_under_budget` needs no cost order: a
single scan of the query's K models keeps the best affordable one so far. A
property test ties the two forms together, row by row, on tied, infinite
and NaN values. Both only compare and gather, so they are exact: no
arithmetic touches a score or cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._floatfmt import write_csv
from .dataset import RoutingTable


def feasible_set(table: RoutingTable, budget: float) -> np.ndarray:
    """Every query's feasible set at one budget, an (N, K) mask: cost <=
    budget, or only the cheapest model in a row where nothing is affordable
    (clamped: deployment must answer every query). A NaN budget affords
    nothing, so every row clamps."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    members = table.cost <= budget
    rows = np.flatnonzero(~members.any(axis=1))
    members[rows, np.argmin(table.cost[rows], axis=1)] = True
    return members


_NAN_SCORES = "router scores contain NaN; the routing rule cannot rank them"


def _check_scores(scores: np.ndarray) -> None:
    # NaN compares false with everything, so no model would rank first
    if np.isnan(scores).any():
        raise ValueError(_NAN_SCORES)


def _shape_mismatch(scores_shape: tuple, costs_shape: tuple, want: str) -> ValueError:
    return ValueError(
        f"scores of shape {scores_shape} and filter costs of shape {costs_shape}"
        f" must share one shape {want}"
    )


def select_under_budget(
    scores: np.ndarray, filter_costs: np.ndarray, budget: float
) -> tuple[int, bool]:
    """Apply the routing rule for one query: among the models whose filter
    cost is <= budget, the highest score, then the lowest cost, then the
    lowest index; when nothing is affordable, the lowest non-NaN cost (the
    first model of the stable cost order; model 0 if every cost is NaN),
    clamped. A NaN cost or a NaN budget never affords.

    One scan over the row's (score, cost) pairs, read as Python floats: a
    model replaces the best so far if it is affordable and scores higher, or
    scores the same at a strictly lower cost, so equal score and cost keep
    the earlier index. Its O(K) Python comparisons beat the numpy calls of a
    stable sort of the row below about K = 80; `prefix_table` serves many
    queries or budgets.
    """
    if scores.shape != filter_costs.shape or scores.ndim != 1 or not scores.size:
        raise _shape_mismatch(scores.shape, filter_costs.shape, "(K,) with K >= 1")
    budget = float(budget)  # a numpy scalar would make every comparison a numpy call
    best, top, low = -1, -math.inf, 0.0
    for j, (s, c) in enumerate(zip(scores.tolist(), filter_costs.tolist())):
        # a NaN score fails both score comparisons, so it always reaches the
        # elif; best < 0 admits a first affordable score of -inf
        if c <= budget and (s > top or (s == top and (c < low or best < 0))):
            best, top, low = j, s, c
        elif s != s:
            raise ValueError(_NAN_SCORES)
    if best >= 0:
        return best, False
    # min of (cost, index) pairs: equal costs, -0.0 and 0.0 too, keep the earlier index
    cheapest = [(c, j) for j, c in enumerate(filter_costs.tolist()) if c == c]
    return (min(cheapest)[1] if cheapest else 0), True


@dataclass(frozen=True, eq=False)
class PrefixTable:
    """The routing rule's choice for every affordable prefix of each query's
    (filter cost, index)-sorted models, stored model-major."""

    model_costs: np.ndarray  # (K, N): filter costs, one row per model
    prefix_choices: np.ndarray  # (K, N): row c - 1 holds the choices when c models are affordable

    @property
    def choices(self) -> np.ndarray:
        """(N, K) view: column m is the choice when m + 1 models are affordable."""
        return self.prefix_choices.T

    def select(self, budgets: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(choices, clamped) at one budget, each of shape (N,), or at a block
        of B budgets, each of shape (B, N). A NaN budget affords nothing, so
        every row clamps; a NaN filter cost is never affordable."""
        budgets = np.asarray(budgets, dtype=np.float64)[..., None]
        K, N = self.prefix_choices.shape
        count = np.zeros(budgets.shape[:-1] + (N,), dtype=np.min_scalar_type(K))
        for costs in self.model_costs:
            # NaN compares false; a uint8 view adds without a cast
            count += (costs <= budgets).view(np.uint8)
        clamped = count == 0
        # query n's choice at count c sits at flat index (c - 1) * N + n of
        # prefix_choices; a count of 0 clamps to row 0, the cheapest model
        index = np.multiply(np.maximum(count, 1) - 1, N, dtype=np.intp)
        index += np.arange(N)
        return np.take(self.prefix_choices, index, mode="clip"), clamped


def prefix_table(scores: np.ndarray, filter_costs: np.ndarray) -> PrefixTable:
    """Build the PrefixTable of (N, K) score and cost matrices: a stable sort
    by cost, then a running first-argmax of the sorted scores, one model-major
    step per prefix length across all queries."""
    filter_costs = np.asarray(filter_costs)
    if np.shape(scores) != filter_costs.shape or filter_costs.ndim != 2:
        raise _shape_mismatch(np.shape(scores), filter_costs.shape, "(N, K)")
    _check_scores(scores)
    N, K = filter_costs.shape
    # row m holds every query's (m + 1)-th model in (cost, index) order
    order = np.ascontiguousarray(np.argsort(filter_costs, axis=1, kind="stable").T)
    ranked = np.take(scores, order + np.arange(0, N * K, K))
    # model indices in the narrowest unsigned type, whose wrap-around keeps
    # the branch-free blend below exact
    choices = order.astype(np.min_scalar_type(K))
    del order  # freed before the final intp copy of choices is made
    best = ranked[0].copy()
    for m in range(1, K):
        # a model opens a new maximum only when it strictly beats every
        # earlier one; otherwise the prefix keeps the shorter prefix's choice
        kept = (ranked[m] <= best).view(np.uint8)
        np.maximum(best, ranked[m], out=best)
        # choices[m] = choices[m - 1] where kept; on random masks this
        # multiply-add is about ten times faster than np.copyto(where=)
        step = choices[m - 1] - choices[m]
        step *= kept
        choices[m] += step
    return PrefixTable(np.ascontiguousarray(filter_costs.T), choices.astype(np.intp))


def select_under_budget_batch(
    scores: np.ndarray, filter_costs: np.ndarray, budget: float
) -> tuple[np.ndarray, np.ndarray]:
    """Routing rule over (N, K) score and cost matrices at one budget.

    Returns (choices, clamped) of shape (N,), row by row equal to
    select_under_budget. To route many budgets, build prefix_table once and
    select blocks of them.
    """
    return prefix_table(scores, filter_costs).select(budget)


@dataclass(frozen=True)
class MarginStats:
    """Distribution of top-two performance gaps at one budget."""

    margins: np.ndarray  # defined margins only, queries with |F| >= 2, in query order
    tie_rate: float
    cdf_at: dict[float, float]


def margin_stats(
    table: RoutingTable, budget: float, thresholds: list[float]
) -> MarginStats:
    if sorted(thresholds) != list(thresholds):
        raise ValueError("thresholds must be sorted ascending")
    members = feasible_set(table, budget)
    defined = np.count_nonzero(members, axis=1) >= 2
    if not defined.any():
        raise ValueError("no query has >= 2 feasible models at this budget")
    # non-members rank below every member, so a row's last two places after
    # the partition hold its two best feasible performances
    top = np.where(members, table.perf, -np.inf)
    top.partition(top.shape[1] - 2, axis=1)
    margins = top[defined, -1] - top[defined, -2]
    tie_rate = float(np.mean(margins == 0.0))
    cdf = {float(t): float(np.mean(margins <= t)) for t in thresholds}
    if 0.0 not in cdf:
        cdf[0.0] = tie_rate
    return MarginStats(margins=margins, tie_rate=tie_rate, cdf_at=cdf)


def write_margin_cdf_csv(stats: MarginStats, path: Path | str) -> None:
    thresholds = sorted(stats.cdf_at)
    write_csv(path, {"threshold": thresholds, "cdf": [stats.cdf_at[t] for t in thresholds]})
