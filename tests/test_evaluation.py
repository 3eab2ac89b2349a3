import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirouter import evaluation as evaluation_module
from equirouter.dataset import SynthConfig, generate_synthetic, make_split
from equirouter.evaluation import (
    SweepCurve,
    budget_grid,
    call_rate_curve,
    metrics_summary,
    metrics_to_dict,
    nauc,
    noise_sensitivity,
    peak_score,
    qnc,
    qnc_from_curve,
    rci,
    sweep,
    training_set_eval,
)
from equirouter.oracle import prefix_table, select_under_budget_batch
from equirouter.router import OracleRouter, train_knn_router

from conftest import constant_policy_router, make_table


# ---------------------------------------------------------------------------
# budget grid


def test_budget_grid_linear_spacing():
    t = make_table(perf=[[1, 0], [0, 1]], cost=[[1.0, 3.0], [1.5, 2.0]])
    assert budget_grid(t, [0, 1], 3) == pytest.approx([1.0, 2.0, 3.0])


def test_budget_grid_degenerate():
    t = make_table(perf=[[1, 0]], cost=[[2.0, 2.0]])
    assert budget_grid(t, [0], 4) == pytest.approx([2.0] * 4)


def test_budget_grid_endpoints():
    t = make_table(perf=[[1, 0]], cost=[[0.5, 7.0]])
    assert budget_grid(t, [0], 2) == pytest.approx([0.5, 7.0])


def test_budget_grid_empty_split():
    t = make_table(perf=[[1, 0]], cost=[[1.0, 2.0]])
    with pytest.raises(ValueError, match="empty"):
        budget_grid(t, [], 3)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_oracle_unconstrained_hits_row_maxima():
    t = make_table(perf=[[0.2, 0.9], [0.8, 0.1]], cost=[[1, 2], [1, 2]])
    curve = sweep(OracleRouter(), t, [0, 1], [10.0])
    assert curve.mean_perf[0] == pytest.approx(np.mean([0.9, 0.8]))


def test_sweep_constant_policy_cost():
    t = make_table(
        perf=[[0.5, 1.0], [0.5, 1.0]], cost=[[1.0, 5.0], [3.0, 5.0]]
    )
    mlp = constant_policy_router(t, favored=0)
    curve = sweep(mlp, t, [0, 1], [4.0, 10.0], cost_source="oracle")
    # both budgets exceed column 0's max cost, so x = mean of column 0
    assert curve.mean_cost.tolist() == pytest.approx([2.0, 2.0])
    assert curve.calls.tolist() == [[2, 0], [2, 0]]


def test_sweep_two_query_hand_routed():
    t = make_table(perf=[[0.4, 1.0], [0.9, 0.2]], cost=[[1.0, 4.0], [1.0, 4.0]])
    curve = sweep(OracleRouter(), t, [0, 1], [1.0, 10.0])
    assert curve.budget.tolist() == [1.0, 10.0]
    # budget 1: only model 0 feasible -> perf (0.4+0.9)/2, cost 1
    assert curve.mean_perf[0] == pytest.approx(0.65)
    assert curve.mean_cost[0] == pytest.approx(1.0)
    # budget 10: oracle picks (1.0 @ model 1) and (0.9 @ model 0)
    assert curve.mean_perf[1] == pytest.approx(0.95)
    assert curve.mean_cost[1] == pytest.approx(2.5)
    assert curve.calls[1].tolist() == [1, 1]


def test_sweep_counts_clamped_queries():
    t = make_table(perf=[[1, 0]], cost=[[2.0, 3.0]])
    curve = sweep(OracleRouter(), t, [0], [0.5])
    assert curve.clamped.tolist() == [1]


def test_oracle_sweep_refuses_an_unknown_cost_source():
    # the oracle filters on true costs, but "bogus" is no cost source
    t = make_table(perf=[[1, 0], [0, 1]], cost=[[2.0, 3.0], [1.0, 1.5]])
    with pytest.raises(ValueError, match="unknown cost_source 'bogus'"):
        sweep(OracleRouter(), t, [0, 1], [0.5, 2.0], "bogus")


def test_sweep_realized_cost_uses_true_costs():
    """Filtering may run on predicted costs, but the curve pays true prices."""
    from equirouter.dataset import make_split
    from equirouter.router import MlpHyper, train_cost_predictor

    t = make_table(perf=[[0.0, 1.0]] * 6, cost=[[1.0, 2.0]] * 6)
    split = make_split(6, (4, 1, 1), seed=0)
    cp, _ = train_cost_predictor(
        t, split, MlpHyper(d_q=3, n_models=2, hidden=4, epochs=1, batch_size=8)
    )
    # force wildly wrong predictions: both models look free
    hidden, output = cp.layers
    hidden.weight = np.zeros_like(hidden.weight)
    hidden.bias = np.zeros_like(hidden.bias)
    output.weight = np.zeros_like(output.weight)
    output.bias = -cp.target_mean / cp.target_std  # predicts ~0 cost
    curve = sweep(OracleRouter(), t, range(6), [10.0], "oracle", cp)
    mlp = constant_policy_router(t, favored=1)
    curve = sweep(mlp, t, range(6), [10.0], "predicted", cp)
    assert curve.mean_cost[0] == pytest.approx(2.0)  # true cost of model 1


CURVE_COLUMNS = ("budget", "mean_cost", "mean_perf", "calls", "clamped", "unlimited_choices")


def _columns(curve):
    """A SweepCurve's columns as Python lists, by name."""
    return {name: getattr(curve, name).tolist() for name in CURVE_COLUMNS}


def _reference_sweep(scores, fcosts, table, indices, grid):
    """The specification of sweep, as column lists: one PrefixTable.select
    per budget, each budget's means taken by np.mean over its (N,) values,
    the budgets sorted by (mean cost, budget)."""
    prefix = prefix_table(scores, fcosts)
    rows = np.arange(len(indices))
    points = []
    for budget in grid:
        choices, clamped = prefix.select(budget)
        points.append((
            float(budget),
            float(np.mean(table.cost[indices][rows, choices])),
            float(np.mean(table.perf[indices][rows, choices])),
            [int(c) for c in np.bincount(choices, minlength=table.n_models)],
            int(clamped.sum()),
        ))
    points.sort(key=lambda p: (p[1], p[0]))
    columns = dict(zip(CURVE_COLUMNS, map(list, zip(*points))))
    columns["unlimited_choices"] = prefix.choices[:, -1].tolist()
    return columns


def _reprs(columns):
    return {name: repr(values) for name, values in columns.items()}


def _sweep_drawn(scores, fcosts, table, indices, grid):
    """sweep with the router's scores and filter costs replaced by drawn ones."""
    with mock.patch.object(evaluation_module, "router_scores", lambda *a: scores.copy()), \
            mock.patch.object(evaluation_module, "filter_costs", lambda *a: fcosts.copy()):
        return sweep(OracleRouter(), table, indices, grid)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 300),
    k=st.integers(2, 8),
    seed=st.integers(0, 2**16),
    nan_costs=st.booleans(),
    n_budgets=st.integers(1, 30),
    specials=st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 0.0]), max_size=4),
)
def test_sweep_matches_per_budget_reference(n, k, seed, nan_costs, n_budgets, specials):
    rng = np.random.Generator(np.random.Philox(seed))
    scores = np.round(rng.random((n, k)), 1)  # frequent score ties
    fcosts = np.round(rng.random((n, k)) * 3, 0) + 0.1  # frequent cost ties
    if nan_costs:  # a cost predictor's output may hold NaN
        fcosts[rng.random((n, k)) < 0.2] = np.nan
    # the split is a shuffled subset of a larger table
    t = make_table(perf=np.round(rng.random((n + 3, k)), 2), cost=rng.random((n + 3, k)) + 0.1)
    indices = rng.permutation(n + 3)[:n]
    # budgets equal to filter costs and between them, NaN and infinite ones,
    # repeated and unsorted; up to 3 * 30 + 4 budgets span many blocks
    grid = np.concatenate([rng.choice(fcosts.ravel(), n_budgets), rng.random(n_budgets) * 3.5,
                           specials])
    grid = np.concatenate([grid, grid[: n_budgets]])
    rng.shuffle(grid)
    got = _columns(_sweep_drawn(scores, fcosts, t, indices, grid))
    want = _reference_sweep(scores, fcosts, t, indices, grid)
    # repr tells apart what == cannot: NaN budgets, the bits of each float
    # and an int from a float
    assert _reprs(got) == _reprs(want)
    if not any(math.isnan(b) for b in grid):
        assert got == want


def test_sweep_curve_owns_its_unlimited_choices():
    # a view of the prefix table's last row would keep all K rows alive
    rng = np.random.Generator(np.random.Philox(3))
    t = make_table(perf=rng.random((1000, 11)), cost=rng.random((1000, 11)) + 0.1)
    curve = sweep(OracleRouter(), t, range(1000), [0.5, 2.0])
    assert curve.unlimited_choices.shape == (1000,) and curve.unlimited_choices.base is None


def test_sweep_matches_reference_with_more_than_255_models():
    # the affordable-model count outgrows one byte
    rng = np.random.Generator(np.random.Philox(5))
    n, k = 6, 300
    scores, fcosts = np.round(rng.random((n, k)), 1), np.round(rng.random((n, k)) * 9, 0)
    t = make_table(perf=rng.random((n, k)), cost=rng.random((n, k)))
    grid = np.array([-1.0, 0.0, 4.0, 9.0, math.inf, 2.5])
    curve = _sweep_drawn(scores, fcosts, t, np.arange(n), grid)
    want = _reference_sweep(scores, fcosts, t, np.arange(n), grid)
    assert _reprs(_columns(curve)) == _reprs(want)
    assert max(curve.clamped) == n


def test_sweep_memory_flat_in_grid_size():
    # k11-large's test split (N=10 000, K=11): besides a few (N, K) tables
    # the sweep holds blocks of SWEEP_BLOCK budgets, never an (N, G) array
    t = generate_synthetic(
        SynthConfig(n_queries=10_000, n_models=11, embed_dim=4, tie_fraction=0.5, noise_seed=1)
    )
    idx = np.arange(t.n_queries)

    def peak(n_points):
        grid = budget_grid(t, idx, n_points)
        tracemalloc.start()
        try:
            sweep(OracleRouter(), t, idx, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    nk = t.perf.nbytes  # one (N, K) float64 table, 0.88 MB
    at_100 = peak(100)
    # the per-budget loop this walk replaced peaked at 10.4 tables, the
    # row-wise prefix table at 7.3; the model-major one reads 5.3
    assert at_100 <= 7 * nk
    # an (N, 1000) boolean array alone would be 10 MB
    assert peak(1000) <= at_100 + nk // 2


# ---------------------------------------------------------------------------
# nAUC / peak / QNC


def test_nauc_single_trapezoid():
    assert nauc([(0.0, 0.5), (1.0, 1.0)]) == pytest.approx(0.75, abs=1e-12)


def test_nauc_constant_curve():
    assert nauc([(2.0, 1.0), (3.5, 1.0), (9.0, 1.0)]) == pytest.approx(1.0)


def test_nauc_duplicate_x_merged():
    base = nauc([(0.0, 0.5), (1.0, 1.0)])
    with_dup = nauc([(0.0, 0.5), (0.0, 0.2), (1.0, 1.0)])
    assert with_dup == pytest.approx(base)


def test_nauc_interpolation_invariance():
    pts = [(0.0, 0.2), (2.0, 0.8), (5.0, 0.9)]
    mid = (1.0, 0.5)  # linear interpolation between the first two
    assert nauc(pts + [mid]) == pytest.approx(nauc(pts))


def test_nauc_degenerate_range():
    with pytest.raises(ValueError, match="degenerate"):
        nauc([(1.0, 0.5), (1.0, 0.7)])


def test_peak_score_tie_takes_lowest_cost():
    assert peak_score([(1.0, 0.7), (2.0, 0.8), (3.0, 0.8)]) == (0.8, 2.0)


def test_peak_score_single_point():
    assert peak_score([(2.0, 0.4)]) == (0.4, 2.0)


def test_peak_score_monotone_curve():
    ps, cost = peak_score([(1.0, 0.1), (2.0, 0.5), (3.0, 0.9)])
    assert (ps, cost) == (0.9, 3.0)


def test_qnc_hand_curve():
    q_abs, q_rel = qnc_from_curve([(1.0, 0.7), (2.0, 0.8), (3.0, 0.8)], a_max=0.8, x_max=3.0)
    assert q_abs == 2.0 and q_rel == pytest.approx(2.0 / 3.0)


def test_qnc_sentinel_when_unreached():
    q_abs, q_rel = qnc_from_curve([(1.0, 0.7), (3.0, 0.79)], a_max=0.8, x_max=3.0)
    assert q_abs is None and q_rel is None


def test_qnc_sentinel_on_empty_curve():
    assert qnc_from_curve([], a_max=0.8, x_max=3.0) == (None, None)


def _merge_by_loop(xs, ys):
    """The specification of _merge_equal_cost: one pass, each run of equal
    costs keeping its first cost and its largest performance."""
    out_x, out_y = [], []
    for x, y in zip(xs.tolist(), ys.tolist()):
        if out_x and x == out_x[-1]:
            out_y[-1] = max(out_y[-1], y)
        else:
            out_x.append(x)
            out_y.append(y)
    return out_x, out_y


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, math.inf]),
                          st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])), max_size=12))
def test_merge_equal_cost_matches_loop(pairs):
    xs = np.array(sorted(x for x, _ in pairs))
    ys = np.array([y for _, y in pairs])
    got_x, got_y = evaluation_module._merge_equal_cost(xs, ys)
    want_x, want_y = _merge_by_loop(xs, ys)
    assert repr(got_x.tolist()) == repr(want_x)
    # by value: the maximum of 0.0 and -0.0 may carry either sign
    assert got_y.tolist() == want_y


def test_qnc_oracle_at_most_one(small_synth):
    idx = np.arange(small_synth.n_queries)
    grid = budget_grid(small_synth, idx, 50)
    curve = sweep(OracleRouter(), small_synth, idx, grid)
    _, q_rel = qnc(curve, small_synth, idx)
    assert q_rel is not None and q_rel <= 1.0 + 1e-12


def test_qnc_monotone_under_domination():
    lo = [(1.0, 0.5), (2.0, 0.7), (3.0, 0.8)]
    hi = [(1.0, 0.6), (2.0, 0.8), (3.0, 0.85)]  # pointwise dominates lo
    q_lo = qnc_from_curve(lo, a_max=0.8, x_max=3.0)[0]
    q_hi = qnc_from_curve(hi, a_max=0.8, x_max=3.0)[0]
    assert q_hi <= q_lo


# ---------------------------------------------------------------------------
# RCI


def cheap_mid_costly():
    # three models with c_A < c_B < c_C, single query per scenario
    return np.array([1.0, 2.0, 3.0])


def test_rci_missed_cheaper_equivalent():
    t = make_table(perf=[[1.0, 1.0, 1.0]], cost=[cheap_mid_costly()])
    report = rci(t, selections=[2], indices=[0])
    assert report.s_n.tolist() == [1.0] and report.rci == 1.0


def test_rci_dominated_by_cheaper_better():
    t = make_table(perf=[[0.0, 1.0, 0.0]], cost=[cheap_mid_costly()])
    report = rci(t, selections=[2], indices=[0])
    assert report.s_n.tolist() == [1.0]


def test_rci_optimal_pick_with_worse_cheaper():
    t = make_table(perf=[[0.0, 1.0, 0.0]], cost=[cheap_mid_costly()])
    report = rci(t, selections=[1], indices=[0])
    assert (report.x_n.tolist(), report.k_n.tolist(), report.s_n.tolist()) == ([1], [0], [0.0])


def test_rci_cheapest_optimum_boundary():
    t = make_table(perf=[[1.0, 1.0, 0.5]], cost=[cheap_mid_costly()])
    report = rci(t, selections=[0], indices=[0])
    assert report.x_n.tolist() == [0] and report.s_n.tolist() == [0.0]


def test_rci_oracle_is_zero_without_cost_ties(small_synth):
    idx = np.arange(small_synth.n_queries)
    picks, _ = select_under_budget_batch(
        small_synth.perf[idx], small_synth.cost[idx], float(small_synth.cost.max())
    )
    assert rci(small_synth, picks, idx).rci == 0.0


def test_rci_always_most_expensive_on_full_ties():
    t = generate_synthetic(
        SynthConfig(n_queries=200, n_models=4, embed_dim=5, tie_fraction=1.0, noise_seed=1)
    )
    idx = np.arange(t.n_queries)
    picks = np.full(t.n_queries, 3)
    assert rci(t, picks, idx).rci == 1.0


def test_rci_call_rates_sum_to_one(small_synth):
    idx = np.arange(small_synth.n_queries)
    picks, _ = select_under_budget_batch(small_synth.perf[idx], small_synth.cost[idx], 1e9)
    report = rci(small_synth, picks, idx)
    assert sum(report.call_rates) == pytest.approx(1.0)


def test_rci_rejects_out_of_range_selection():
    t = make_table(perf=[[1.0, 0.0]], cost=[[1.0, 2.0]])
    with pytest.raises(ValueError, match="out of range"):
        rci(t, selections=[5], indices=[0])


def _brute_force_rci(table, selections, indices):
    """Per-query (n, m_n, a_sel, a_star, x_n, k_n, s_n) rows by direct
    enumeration, and their mean score."""
    records = []
    for n, m in zip(indices, selections):
        a = table.perf[n].tolist()
        c = table.cost[n].tolist()
        a_star = max(a)
        cheaper = [j for j in range(len(a)) if c[j] < c[m]]
        k_n = sum(1 for j in cheaper if a[j] >= a[m])
        if a[m] < a_star:
            s = 1.0
        elif cheaper:
            s = k_n / len(cheaper)
        else:
            s = 0.0
        records.append((int(n), int(m), a[m], a_star, len(cheaper), k_n, s))
    return records, float(np.mean([r[-1] for r in records]))


def test_rci_matches_brute_force_random():
    # exact equality, field types included: rci_detail.csv writes these
    # values with repr, and reruns are compared byte for byte
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(30):
        n, k = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        perf = np.round(rng.random((n, k)), 1)
        cost = np.round(rng.random((n, k)), 1) + 0.1
        t = make_table(perf=perf, cost=cost)
        picks = rng.integers(0, k, size=n)
        idx = np.arange(n)
        report = rci(t, picks, idx)
        want_records, want_rci = _brute_force_rci(t, picks, idx)
        columns = (report.n, report.m_n, report.a_sel, report.a_star, report.x_n,
                   report.k_n, report.s_n)
        got_records = list(zip(*(c.tolist() for c in columns)))
        assert report.rci == want_rci
        assert got_records == want_records
        for got, want in zip(got_records, want_records):
            assert list(map(type, got)) == list(map(type, want))


# ---------------------------------------------------------------------------
# call rates


def test_call_rates_constant_policy():
    t = make_table(perf=[[1, 0]] * 3, cost=[[1.0, 2.0]] * 3)
    curve = sweep(constant_policy_router(t, favored=0), t, [0, 1, 2], [2.0, 5.0])
    budgets, shares = call_rate_curve(curve)
    assert budgets.tolist() == [2.0, 5.0]
    assert shares.tolist() == [[1.0, 0.0], [1.0, 0.0]]


def test_call_rates_strongest_never_unique_best():
    # every query ties model 0; cheapest-tie-break starves the expensive model
    t = make_table(perf=[[1.0, 1.0]] * 4, cost=[[1.0, 2.0]] * 4)
    curve = sweep(OracleRouter(), t, range(4), [5.0])
    assert call_rate_curve(curve)[1].tolist() == [[1.0, 0.0]]


def test_call_rates_rows_sum_to_one(small_synth):
    idx = np.arange(small_synth.n_queries)
    grid = budget_grid(small_synth, idx, 20)
    curve = sweep(OracleRouter(), small_synth, idx, grid)
    budgets, shares = call_rate_curve(curve)
    assert budgets.tolist() == sorted(grid.tolist())
    for row in shares.tolist():
        assert sum(row) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# metric bundle, training-set evaluation, noise sensitivity


def test_metrics_dict_keys(small_synth):
    idx = np.arange(small_synth.n_queries)
    grid = budget_grid(small_synth, idx, 20)
    curve = sweep(OracleRouter(), small_synth, idx, grid)
    summary = metrics_summary(curve, small_synth, idx)
    payload = metrics_to_dict(summary)
    for key in ("nauc", "peak_score", "qnc", "rci"):
        assert key in payload


def test_training_set_eval_equals_full_split_sweep(small_synth):
    def train_fn(table, train_idx, valid_idx):
        return train_knn_router(table, (train_idx, valid_idx), k=1)

    summary, curve = training_set_eval(train_fn, small_synth, n_points=30)
    idx = np.arange(small_synth.n_queries)
    knn = train_knn_router(small_synth, (idx, np.array([], dtype=int)), k=1)
    grid = budget_grid(small_synth, idx, 30)
    direct = sweep(knn, small_synth, idx, grid)
    assert curve == direct
    assert _reprs(_columns(curve)) == _reprs(_columns(direct))
    assert metrics_summary(direct, small_synth, idx) == summary


def test_training_set_eval_memorizer_near_oracle(small_synth):
    # k=1 kNN on the training set memorizes the table: in-sample it scores a
    # query by its own perf row, so the decisions match the oracle rule
    def train_fn(table, train_idx, valid_idx):
        return train_knn_router(table, (train_idx, valid_idx), k=1)

    summary, _ = training_set_eval(train_fn, small_synth, n_points=30)
    idx = np.arange(small_synth.n_queries)
    grid = budget_grid(small_synth, idx, 30)
    oracle_curve = sweep(OracleRouter(), small_synth, idx, grid)
    assert summary.nauc == pytest.approx(nauc(oracle_curve), abs=1e-12)


def test_noise_sensitivity_sigma_zero_is_oracle(small_synth):
    idx = np.arange(small_synth.n_queries)
    budget = float(small_synth.cost.max())
    rows = noise_sensitivity(small_synth, [0.0], budget, seed=3, indices=idx)
    picks, _ = select_under_budget_batch(small_synth.perf[idx], small_synth.cost[idx], budget)
    expect_acc = float(np.mean(small_synth.perf[idx, picks]))
    strongest = int(np.argmax(small_synth.cost[idx].mean(axis=0)))
    expect_share = float(np.mean(picks == strongest))
    assert rows[0].accuracy == pytest.approx(expect_acc)
    assert rows[0].strongest_share == pytest.approx(expect_share)


def test_noise_sensitivity_noise_cannot_beat_oracle(small_synth):
    budget = float(small_synth.cost.max())
    rows = noise_sensitivity(small_synth, [0.0, 0.1, 0.5], budget, seed=4)
    assert all(r.accuracy <= rows[0].accuracy + 1e-12 for r in rows)
    assert noise_sensitivity(small_synth, [0.0, 0.1, 0.5], budget, seed=4) == rows
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
            noise_sensitivity(small_synth, [0.1, bad], budget, seed=4)


# ---------------------------------------------------------------------------
# oracle dominance


def test_oracle_dominates_any_router(small_synth):
    split = make_split(small_synth.n_queries, (3, 1, 6), seed=42)
    test_idx = np.asarray(split.test)
    grid = budget_grid(small_synth, test_idx, 40)
    oracle_curve = sweep(OracleRouter(), small_synth, test_idx, grid)
    knn = train_knn_router(small_synth, split, k=5)
    knn_curve = sweep(knn, small_synth, test_idx, grid, cost_source="oracle")
    by_budget = dict(zip(oracle_curve.budget.tolist(), oracle_curve.mean_perf.tolist()))
    assert sorted(knn_curve.budget.tolist()) == sorted(by_budget)
    for budget, perf in zip(knn_curve.budget.tolist(), knn_curve.mean_perf.tolist()):
        assert by_budget[budget] >= perf - 1e-12


def test_sweep_curve_rejects_unsorted_points():
    columns = dict(budget=np.array([1.0, 2.0]), mean_perf=np.array([0.5, 0.5]),
                   calls=np.array([[1], [1]]), clamped=np.array([0, 0]),
                   unlimited_choices=np.array([0]))
    SweepCurve(mean_cost=np.array([1.0, 2.0]), **columns)
    with pytest.raises(ValueError, match="sorted by mean cost"):
        SweepCurve(mean_cost=np.array([2.0, 1.0]), **columns)
