import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from equirouter.dataset import SynthConfig, generate_synthetic
from equirouter.evaluation import noise_sensitivity, sweep
from equirouter.oracle import (
    feasible_set,
    margin_stats,
    prefix_table,
    select_under_budget,
    select_under_budget_batch,
    write_margin_cdf_csv,
)
from equirouter.router import OracleRouter

from conftest import make_table, margin, mc_selection_frequencies, oracle_select, prefix_choices


def one_query_table(a, c):
    return make_table(perf=[a, a], cost=[c, c])  # two rows, only row 0 used


# ---------------------------------------------------------------------------
# feasible sets


def test_feasible_set_basic():
    t = one_query_table([0, 0, 0], [1, 3, 2])
    fs = feasible_set(t, 2.5)
    assert fs.members.shape == (2, 3) and fs.clamped.shape == (2,)
    assert np.flatnonzero(fs.members[0]).tolist() == [0, 2] and not fs.clamped[0]


def test_feasible_set_all_affordable():
    t = one_query_table([0, 0, 0], [1, 3, 2])
    assert np.flatnonzero(feasible_set(t, 10).members[0]).tolist() == [0, 1, 2]


def test_feasible_set_clamps_to_cheapest():
    t = one_query_table([0, 0, 0], [1, 3, 2])
    fs = feasible_set(t, 0.5)
    assert np.flatnonzero(fs.members[0]).tolist() == [0] and fs.clamped[0]


def test_feasible_set_rejects_nonpositive_budget():
    t = one_query_table([0, 0], [1, 2])
    with pytest.raises(ValueError):
        feasible_set(t, 0.0)


def test_feasible_set_nan_budget_clamps_every_row():
    t = make_table(perf=[[0, 0, 0], [0, 0, 0]], cost=[[1, 3, 2], [4, 2, 2]])
    fs = feasible_set(t, math.nan)
    assert fs.clamped.tolist() == [True, True]
    assert fs.members.tolist() == [[True, False, False], [False, True, False]]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), k=st.integers(2, 5))
def test_feasible_set_and_margins_match_spec(data, n, k):
    """Column feasible sets and one-pass margins equal the per-query spec,
    bit for bit and in query order, on small tables with tied performances,
    tied costs, budgets on a cost value and rows that clamp."""
    # values >= 0.0 exclude -0.0: sort and partition may order equal zeros
    # differently, which would flip the sign of a zero margin
    perf = data.draw(st.lists(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
                                       | st.floats(0.0, 1.0), min_size=k, max_size=k),
                              min_size=n, max_size=n))
    cost = data.draw(st.lists(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                                       min_size=k, max_size=k), min_size=n, max_size=n))
    t = make_table(perf=perf, cost=cost)
    budget = data.draw(st.sampled_from(sorted({*t.cost.ravel().tolist(), 0.25, 2.5, 10.0})))
    fs = feasible_set(t, budget)
    assert fs.budget == budget
    for row in range(n):
        affordable = np.flatnonzero(t.cost[row] <= budget)
        assert fs.clamped[row] == (affordable.size == 0)
        want = affordable if affordable.size else [np.argmin(t.cost[row])]
        assert np.flatnonzero(fs.members[row]).tolist() == list(want)
    spec = [m for m in (margin(t, row, budget) for row in range(n)) if m is not None]
    if not spec:
        with pytest.raises(ValueError, match="feasible"):
            margin_stats(t, budget, [0.0])
        return
    got = margin_stats(t, budget, [0.0]).margins
    assert got.tobytes() == np.array(spec, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# oracle selection


def test_oracle_select_prefers_cheaper_top():
    t = one_query_table([0.5, 0.9, 0.9], [1, 3, 2])
    assert oracle_select(t, 0, 10) == 2


def test_oracle_select_cost_tie_breaks_by_index():
    t = one_query_table([0.5, 0.9, 0.9], [1, 3, 3])
    assert oracle_select(t, 0, 10) == 1


def test_oracle_select_singleton():
    t = one_query_table([0.5, 0.9], [1, 5])
    assert oracle_select(t, 0, 2) == 0


def _brute_force_select(a, c, budget):
    feasible = [j for j in range(len(a)) if c[j] <= budget]
    if not feasible:
        return min(range(len(a)), key=lambda j: (c[j], j))
    return min(feasible, key=lambda j: (-a[j], c[j], j))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 6),
    k=st.integers(2, 8),
    seed=st.integers(0, 10_000),
    budget=st.floats(0.01, 5.0),
)
def test_select_matches_exhaustive_enumeration(n, k, seed, budget):
    rng = np.random.Generator(np.random.Philox(seed))
    a = np.round(rng.random((n, k)), 1)  # rounding forces frequent score ties
    c = np.round(rng.random((n, k)) * 3, 0) + 0.1  # and frequent cost ties
    t = make_table(perf=a, cost=c)
    rows = np.arange(n)
    # budgets on every cost value, below every cost, unlimited and NaN
    budgets = [budget, *np.unique(c).tolist(), 0.05, math.inf, math.nan]
    block = prefix_table(a, c).select(budgets)
    for row, b in enumerate(budgets):
        want = [_brute_force_select(a[i], c[i], b) for i in rows]
        want_clamped = [not np.any(c[i] <= b) for i in rows]
        for i in rows:
            assert select_under_budget(a[i], c[i], b) == (want[i], want_clamped[i])
        choices, clamped = select_under_budget_batch(a, c, b)
        assert choices.tolist() == want and clamped.tolist() == want_clamped
        # each row of a block of budgets is the decision at its budget alone
        assert block[0][row].tolist() == want and block[1][row].tolist() == want_clamped
        curve = sweep(OracleRouter(), t, rows, [b])
        assert curve.calls.tolist() == [np.bincount(want, minlength=k).tolist()]
        assert curve.clamped.tolist() == [sum(want_clamped)]


# scores and costs drawn mostly from a few values, so ties are common
TIED_SCORES = [-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, math.inf]
TIED_COSTS = [math.nan, 0.5, 1.0, 2.0, math.inf]


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    shape=st.sampled_from([(1, 1), (1, 300), (3, 300)])
    | st.tuples(st.integers(1, 8), st.integers(1, 12)),
)
def test_prefix_table_matches_the_row_wise_reference(data, shape):
    """The model-major running argmax gives exactly the row-wise reference
    choices: tied scores and costs, +-inf scores, NaN costs, one query, one
    model and 300 models (a uint16 count)."""
    scores = data.draw(arrays(np.float64, shape, elements=st.sampled_from(TIED_SCORES)
                              | st.floats(allow_nan=False)))
    costs = data.draw(arrays(np.float64, shape, elements=st.sampled_from(TIED_COSTS)
                             | st.floats()))
    want = prefix_choices(scores, costs)
    got = prefix_table(scores, costs).choices
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    shape=st.sampled_from([(1, 1), (1, 300)]) | st.tuples(st.integers(1, 8), st.integers(1, 12)),
)
def test_one_row_scan_decides_as_the_prefix_table(data, shape):
    """The one-row form gives, row by row, the prefix table's (choice,
    clamped) as Python (int, bool): tied, +-inf and +-0.0 scores, NaN and
    +-inf costs, and NaN, zero, infinite, on-a-cost and free budgets."""
    scores = data.draw(arrays(np.float64, shape, elements=st.sampled_from(TIED_SCORES)
                              | st.floats(allow_nan=False)))
    costs = data.draw(arrays(np.float64, shape, elements=st.sampled_from(TIED_COSTS)
                             | st.floats()))
    budgets = [math.nan, 0.0, math.inf, *np.unique(costs).tolist(), data.draw(st.floats())]
    choices, clamped = prefix_table(scores, costs).select(budgets)
    for b, row_choices, row_clamped in zip(budgets, choices.tolist(), clamped.tolist()):
        for i in range(shape[0]):
            got = select_under_budget(scores[i], costs[i], b)
            assert got == (row_choices[i], row_clamped[i])
            assert type(got[0]) is int and type(got[1]) is bool


def test_rule_refuses_scores_and_costs_of_different_shapes():
    # read by flat index, the 3-column scores would decide the 2-column costs
    scores = np.array([[0.1, 0.9, 0.5], [0.8, 0.2, 0.3]])
    costs = np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match=r"shape \(2, 3\) .* shape \(2, 2\)"):
        prefix_table(scores, costs)
    with pytest.raises(ValueError, match=r"shape \(2, 3\) .* shape \(2, 2\)"):
        select_under_budget_batch(scores, costs, 10.0)
    with pytest.raises(ValueError, match=r"shape \(3,\) .* shape \(2,\)"):
        select_under_budget(scores[0], costs[0], 10.0)
    with pytest.raises(ValueError, match=r"shape \(2,\) .* shape \(3,\)"):
        select_under_budget(costs[0], scores[0], 10.0)
    # one query's row, not a matrix, and at least one model
    with pytest.raises(ValueError, match=r"shape \(2, 3\) .* shape \(2, 3\)"):
        select_under_budget(scores, scores, 10.0)
    with pytest.raises(ValueError, match=r"shape \(0,\) .* shape \(0,\)"):
        select_under_budget(scores[0, :0], costs[0, :0], 10.0)


def test_select_rejects_nan_scores():
    scores = np.array([[0.2, np.nan, 0.9], [0.1, 0.5, 0.3]])
    costs = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="NaN"):
        select_under_budget(scores[0], costs[0], 10.0)
    with pytest.raises(ValueError, match="NaN"):
        select_under_budget_batch(scores, costs, 10.0)


def test_batch_select_matches_scalar(small_synth):
    idx = np.arange(small_synth.n_queries)
    for budget in (0.5, 2.0, 100.0):
        batch, clamped = select_under_budget_batch(
            small_synth.perf[idx], small_synth.cost[idx], budget
        )
        for n in range(0, small_synth.n_queries, 37):
            one, cl = select_under_budget(
                small_synth.perf[n], small_synth.cost[n], budget
            )
            assert batch[n] == one and clamped[n] == cl


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), budget=st.floats(0.2, 4.0))
def test_oracle_optimality_and_frugality(seed, budget):
    rng = np.random.Generator(np.random.Philox(seed))
    a = np.round(rng.random((4, 5)), 1)
    c = np.round(rng.random((4, 5)) * 2, 2) + 0.05
    t = make_table(perf=a, cost=c)
    for n in range(4):
        pick = oracle_select(t, n, budget)
        members = np.flatnonzero(feasible_set(t, budget).members[n])
        assert all(a[n, pick] >= a[n, j] for j in members)
        assert not any(
            a[n, j] == a[n, pick] and c[n, j] < c[n, pick] for j in members
        )


# ---------------------------------------------------------------------------
# margins


def test_margin_tied_top_is_zero():
    t = one_query_table([0.8, 0.8, 0.2], [1, 1, 1])
    assert margin(t, 0, 10) == 0.0
    assert margin_stats(t, 10, [0.0]).margins.tolist() == [0.0, 0.0]


def test_margin_direct_gap():
    t = one_query_table([1.0, 0.3], [1, 1])
    assert margin(t, 0, 10) == pytest.approx(0.7)
    assert margin_stats(t, 10, [0.0]).margins.tolist() == [margin(t, 0, 10)] * 2


def test_margin_singleton_undefined():
    t = make_table(perf=[[1.0, 0.3], [0.6, 0.2]], cost=[[1, 5], [1, 1]])
    assert margin(t, 0, 2) is None
    # only the second query has two affordable models
    assert margin_stats(t, 2, [0.0]).margins.tolist() == [margin(t, 1, 2)]


def test_margin_nonnegative_and_zero_iff_tie(small_synth):
    budget = float(small_synth.cost.max())
    margins = margin_stats(small_synth, budget, [0.0]).margins
    assert margins.size == small_synth.n_queries
    for n in range(small_synth.n_queries):
        m = margins[n]
        assert m == margin(small_synth, n, budget) and m >= 0
        top = small_synth.perf[n].max()
        tied = int(np.sum(small_synth.perf[n] == top))
        assert (m == 0) == (tied >= 2)


def test_margin_stats_counting():
    t = make_table(
        perf=[[0.5, 0.5], [0.2, 0.2], [1.0, 0.3]],
        cost=[[1, 2]] * 3,
    )
    stats = margin_stats(t, 10, [0.0])
    assert stats.tie_rate == pytest.approx(2 / 3)
    assert stats.cdf_at[0.0] == pytest.approx(2 / 3)


def test_margin_stats_full_mass_at_one():
    t = make_table(perf=[[0.5, 0.9], [0.1, 0.2]], cost=[[1, 2]] * 2)
    stats = margin_stats(t, 10, [0.0, 1.0])
    assert stats.cdf_at[1.0] == 1.0
    cdf = [stats.cdf_at[k] for k in sorted(stats.cdf_at)]
    assert cdf == sorted(cdf)


def test_margin_stats_errors_when_all_singleton():
    t = make_table(perf=[[1, 0]], cost=[[1, 100]])
    with pytest.raises(ValueError, match="feasible"):
        margin_stats(t, 2, [0.0])


def test_margin_stats_synthetic_regime():
    t = generate_synthetic(
        SynthConfig(n_queries=4000, n_models=5, embed_dim=8, tie_fraction=0.949, noise_seed=3)
    )
    stats = margin_stats(t, float(t.cost.max()), [0.0])
    assert stats.tie_rate == pytest.approx(0.949, abs=0.02)


# ---------------------------------------------------------------------------
# Monte Carlo selection frequencies


def test_mc_dominant_mean():
    freq = mc_selection_frequencies(np.array([1.0, 0.0, 0.0]), 0.01, 100_000, seed=1)
    assert freq[0] > 0.999


@pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
def test_mc_rejects_negative_or_nonfinite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
        mc_selection_frequencies(np.array([1.0, 0.0, 0.0]), sigma, 10, seed=1)


def test_mc_symmetric_means():
    trials = 100_000
    freq = mc_selection_frequencies(np.zeros(3), 1.0, trials, seed=2)
    err = np.sqrt(freq * (1.0 - freq) / trials)  # binomial standard error
    for f, e in zip(freq, err):
        assert abs(f - 1 / 3) <= 3 * e


def test_mc_ordering_follows_means():
    trials = 100_000
    freq = mc_selection_frequencies(np.array([0.8, 0.79, 0.5]), 0.1, trials, seed=3)
    gap_se = np.sqrt(
        (freq[:-1] * (1 - freq[:-1]) + freq[1:] * (1 - freq[1:]) + 2 * freq[:-1] * freq[1:])
        / trials
    )
    assert freq[0] - freq[1] > -3 * gap_se[0]
    assert freq[1] - freq[2] > -3 * gap_se[1]
    assert freq[0] > freq[1] > freq[2]


def test_mc_rejects_bad_args():
    with pytest.raises(ValueError):
        mc_selection_frequencies(np.array([]), 0.1, 10, seed=0)
    with pytest.raises(ValueError):
        mc_selection_frequencies(np.array([1.0]), 0.1, 0, seed=0)


# ---------------------------------------------------------------------------
# CSV emission


def test_margin_cdf_csv(tmp_path):
    t = make_table(perf=[[0.5, 0.5], [1.0, 0.3]], cost=[[1, 2]] * 2)
    stats = margin_stats(t, 10, [0.0, 0.5, 1.0])
    path = tmp_path / "margins.csv"
    write_margin_cdf_csv(stats, path)
    rows = path.read_text().splitlines()
    assert rows[0] == "threshold,cdf"
    parsed = [tuple(float(v) for v in r.split(",")) for r in rows[1:]]
    assert parsed[0] == (0.0, 0.5) and parsed[-1] == (1.0, 1.0)


# ---------------------------------------------------------------------------
# collapse from noise (qualitative trend)


def test_noisy_oracle_collapse_trend():
    t = generate_synthetic(
        SynthConfig(n_queries=3000, n_models=5, embed_dim=8, tie_fraction=0.92, noise_seed=7)
    )
    budget = float(t.cost.max())
    rows = noise_sensitivity(t, [0.0, 0.05, 0.1, 0.2, 0.4], budget, seed=13)
    for prev, cur in zip(rows, rows[1:]):
        assert cur.accuracy <= prev.accuracy + 0.02
        assert cur.strongest_share >= prev.strongest_share - 0.02
    assert rows[-1].strongest_share > rows[0].strongest_share
