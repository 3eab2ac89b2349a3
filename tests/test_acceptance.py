"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Heavy fixtures (tables, trained routers) are session-scoped and
shared across criteria.
"""

import math
import time

import numpy as np
import pytest

import equirouter as eq
from equirouter import evaluation as ev
from equirouter.cli import main as cli_main
from equirouter.oracle import select_under_budget_batch
from equirouter.rng import make_rng
from equirouter.router import (
    EquiHyper,
    MlpHyper,
    OracleRouter,
    assign_params,
    build_pair_set,
    filter_costs,
    init_equirouter,
    params_list,
    predict_costs,
    ranking_objective,
    route,
    router_scores,
    save_router,
    train_cost_predictor,
    train_equirouter,
    train_knn_router,
    train_mlp_router,
    train_mse_ablation,
)

from conftest import (
    grad_check, make_table, mc_selection_frequencies, one_query, oracle_select,
)


def report(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="session")
def collapse_table():
    """5000 queries, K=6, tie_fraction=0.95 (criteria 6 and 8)."""
    return eq.generate_synthetic(
        eq.SynthConfig(
            n_queries=5000, n_models=6, embed_dim=24, tie_fraction=0.95,
            margin_scale=0.2, cost_spread=30.0, noise_seed=17,
        )
    )


@pytest.fixture(scope="session")
def ablation_table():
    """Planted per-query best-model signal, tie_fraction=0.9 (criterion 7)."""
    return eq.generate_synthetic(
        eq.SynthConfig(
            n_queries=5000, n_models=6, embed_dim=24, tie_fraction=0.9,
            margin_scale=0.2, cost_spread=30.0, noise_seed=17,
        )
    )


@pytest.fixture(scope="session")
def linear_cost_table():
    """Costs an exact linear function of the embedding (criterion 10)."""
    rng = make_rng(123, 9)
    n, k, d = 4000, 4, 8
    emb = rng.standard_normal((n, d))
    w = rng.standard_normal((k, d)) * 0.1
    bias = np.linspace(1.0, 8.0, k)
    cost = emb @ w.T + bias
    assert cost.min() > 0
    perf = rng.random((n, k))
    return make_table(perf=perf, cost=cost, embeddings=emb)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_gradient_correctness():
    start = time.monotonic()
    table = eq.generate_synthetic(
        eq.SynthConfig(n_queries=4, n_models=3, embed_dim=6, tie_fraction=0.5,
                       margin_scale=0.3, cost_spread=4.0, noise_seed=3)
    )
    pairs = build_pair_set(table, np.arange(4))
    params = init_equirouter(
        EquiHyper(d_q=6, n_models=3, d_m=4, latent_dim=8, weight_decay=1e-4, seed=7)
    )

    def objective(plist):
        assign_params(params, plist)
        return ranking_objective(params, table.embeddings, pairs, weight_decay=1e-4)

    rep = grad_check(objective, params_list(params), h=1e-5, rel_tol=1e-4)
    elapsed = time.monotonic() - start
    report(
        1,
        rep.passed and elapsed < 5.0,
        f"full-objective gradients match finite differences "
        f"(max rel err {rep.max_rel_error:.2e} over {rep.n_coords} coords, {elapsed:.1f}s)",
    )


def test_criterion_02_oracle_equivalence():
    start = time.monotonic()
    rng = make_rng(202, 0)
    k = 8
    perf = np.round(rng.random((1000, k)), 2)  # coarse grid forces ties
    cost = np.round(rng.random((1000, k)) * 3, 1) + 0.1
    table = make_table(perf=perf, cost=cost)
    budgets = rng.random(1000) * 3.5 + 0.05
    mismatches = 0
    for n in range(1000):
        feasible = [j for j in range(k) if cost[n, j] <= budgets[n]]
        if feasible:
            expected = min(feasible, key=lambda j: (-perf[n, j], cost[n, j], j))
        else:
            expected = min(range(k), key=lambda j: (cost[n, j], j))
        if oracle_select(table, n, budgets[n]) != expected:
            mismatches += 1
    elapsed = time.monotonic() - start
    report(
        2,
        mismatches == 0 and elapsed < 5.0,
        f"oracle matches exhaustive lexicographic enumeration on 1000 instances "
        f"({mismatches} mismatches, {elapsed:.1f}s)",
    )


def test_criterion_03_rci_oracle():
    start = time.monotonic()

    def brute_force(perf_row, cost_row, m):
        a_star = max(perf_row)
        cheaper = [j for j in range(len(perf_row)) if cost_row[j] < cost_row[m]]
        if perf_row[m] < a_star:
            return 1.0
        if cheaper:
            return sum(1 for j in cheaper if perf_row[j] >= perf_row[m]) / len(cheaper)
        return 0.0

    rng = make_rng(303, 0)
    exact = True
    for _ in range(200):
        n, k = int(rng.integers(1, 8)), int(rng.integers(2, 7))
        perf = np.round(rng.random((n, k)), 1)
        cost = np.round(rng.random((n, k)), 1) + 0.1
        table = make_table(perf=perf, cost=cost)
        picks = rng.integers(0, k, size=n)
        got = ev.rci(table, picks, np.arange(n))
        want = [brute_force(perf[i], cost[i], picks[i]) for i in range(n)]
        if got.rci != pytest.approx(np.mean(want), abs=0) or got.s_n.tolist() != want:
            exact = False
            break

    # worked examples: three models with c_A < c_B < c_C
    costs = [[1.0, 2.0, 3.0]]
    ex1 = ev.rci(make_table(perf=[[1.0, 1.0, 1.0]], cost=costs), [2], [0]).rci
    ex2 = ev.rci(make_table(perf=[[0.0, 1.0, 0.0]], cost=costs), [2], [0]).rci
    boundary = ev.rci(make_table(perf=[[1.0, 1.0, 0.0]], cost=costs), [0], [0]).rci
    elapsed = time.monotonic() - start
    report(
        3,
        exact and ex1 == 1.0 and ex2 == 1.0 and boundary == 0.0 and elapsed < 5.0,
        f"rci matches brute force on 200 instances and the worked examples "
        f"(s={ex1:.0f}, s={ex2:.0f}, boundary s={boundary:.0f}, {elapsed:.1f}s)",
    )


def test_criterion_04_metric_unit_values():
    v_nauc = eq.nauc([(0.0, 0.5), (1.0, 1.0)])
    v_loss = eq.ranking_loss(*one_query(np.zeros(2), np.array([(0, 1)])))
    q_abs, q_rel = eq.qnc_from_curve(
        [(1.0, 0.7), (2.0, 0.8), (3.0, 0.8)], a_max=0.8, x_max=3.0
    )
    ok = (
        abs(v_nauc - 0.75) <= 1e-12
        and abs(v_loss - math.log(2)) <= 1e-9
        and q_abs == 2.0
        and q_rel == 2.0 / 3.0
    )
    report(
        4,
        ok,
        f"nauc={v_nauc}, ranking loss at equal scores={v_loss:.9f}, "
        f"qnc relative={q_rel}",
    )


def test_criterion_05_maximum_mean_winner():
    start = time.monotonic()
    trials = 100_000
    rng = make_rng(505, 0)
    worst_violation = 0.0
    ok = True
    for trial in range(50):
        means = rng.random(5)
        order = np.argsort(-means, kind="stable")
        for s_i, sigma in enumerate((0.05, 0.1, 0.5)):
            freq = mc_selection_frequencies(
                means, sigma, trials, seed=trial * 10 + s_i
            )
            ranked = freq[order]
            gaps = ranked[:-1] - ranked[1:]
            gap_se = np.sqrt(
                (
                    ranked[:-1] * (1 - ranked[:-1])
                    + ranked[1:] * (1 - ranked[1:])
                    + 2 * ranked[:-1] * ranked[1:]
                )
                / trials
            )
            slack = gaps + 3 * gap_se
            worst_violation = min(worst_violation, float(slack.min()))
            if (slack < 0).any():
                ok = False
    elapsed = time.monotonic() - start
    report(
        5,
        ok and elapsed < 60.0,
        f"MC selection frequencies rank with the means on 50 vectors x 3 sigmas "
        f"(worst adjacent slack {worst_violation:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_06_noise_collapse(collapse_table):
    start = time.monotonic()
    budget = float(collapse_table.cost.max())
    rows = ev.noise_sensitivity(
        collapse_table, [0.0, 0.05, 0.1, 0.2, 0.4], budget, seed=29
    )
    acc_ok = all(b.accuracy <= a.accuracy + 0.02 for a, b in zip(rows, rows[1:]))
    share_ok = all(
        b.strongest_share >= a.strongest_share - 0.02 for a, b in zip(rows, rows[1:])
    )
    elapsed = time.monotonic() - start
    shares = ", ".join(f"{r.strongest_share:.3f}" for r in rows)
    report(
        6,
        acc_ok and share_ok and elapsed < 60.0,
        f"noisy-oracle accuracy nonincreasing and strongest share nondecreasing "
        f"(shares {shares}, {elapsed:.1f}s)",
    )


def test_criterion_07_ablation_direction(ablation_table):
    start = time.monotonic()
    table = ablation_table
    split = eq.make_split(table.n_queries, (3, 1, 6), seed=42)
    test_idx = np.asarray(split.test)
    grid = ev.budget_grid(table, test_idx, 100)

    def evaluate(train_fn, seed):
        hyper = EquiHyper(
            d_q=table.embed_dim, n_models=table.n_models, d_m=16, latent_dim=32,
            epochs=150, batch_size=256, learning_rate=3e-3, seed=seed,
        )
        router, _ = train_fn(table, split, hyper)
        curve = ev.sweep(router, table, test_idx, grid, "oracle")
        return ev.metrics_summary(curve, table, test_idx)

    def rel_or_inf(summary):
        return math.inf if summary.qnc_relative is None else summary.qnc_relative

    equi, mse = [], []
    for seed in range(5):
        equi.append(evaluate(train_equirouter, seed))
        mse.append(evaluate(train_mse_ablation, seed))
    rci_equi = float(np.mean([m.rci for m in equi]))
    rci_mse = float(np.mean([m.rci for m in mse]))
    qnc_equi = float(np.mean([rel_or_inf(m) for m in equi]))
    qnc_mse = float(np.mean([rel_or_inf(m) for m in mse]))
    elapsed = time.monotonic() - start
    report(
        7,
        rci_equi <= rci_mse - 0.02 and qnc_equi <= qnc_mse and elapsed < 600.0,
        f"ranking loss beats MSE ablation over 5 seeds: RCI {rci_equi:.3f} vs "
        f"{rci_mse:.3f}, QNC-rel {qnc_equi:.3f} vs {qnc_mse:.3f} ({elapsed:.0f}s)",
    )


def test_criterion_08_oracle_dominance(collapse_table):
    start = time.monotonic()
    table = collapse_table
    split = eq.make_split(table.n_queries, (3, 1, 6), seed=42)
    test_idx = np.asarray(split.test)
    grid = ev.budget_grid(table, test_idx, 100)
    oracle_curve = ev.sweep(OracleRouter(), table, test_idx, grid)
    oracle_by_budget = dict(zip(oracle_curve.budget.tolist(), oracle_curve.mean_perf.tolist()))

    routers = {
        "knn": train_knn_router(table, split, k=50),
        "mlp": train_mlp_router(
            table, split,
            MlpHyper(d_q=table.embed_dim, n_models=table.n_models, hidden=32,
                     epochs=30, batch_size=512, seed=0),
        )[0],
        "equirouter": train_equirouter(
            table, split,
            EquiHyper(d_q=table.embed_dim, n_models=table.n_models, d_m=16,
                      latent_dim=32, epochs=30, batch_size=512, seed=0),
        )[0],
    }
    dominated = True
    for router in routers.values():
        curve = ev.sweep(router, table, test_idx, grid, cost_source="oracle")
        for budget, perf in zip(curve.budget.tolist(), curve.mean_perf.tolist()):
            if oracle_by_budget[budget] < perf - 1e-12:
                dominated = False
    elapsed = time.monotonic() - start
    report(
        8,
        dominated and elapsed < 60.0,
        f"oracle curve pointwise dominates knn/mlp/equirouter at matched budgets "
        f"({elapsed:.0f}s)",
    )


def test_criterion_09_training_set_eval(tmp_path):
    table = eq.generate_synthetic(
        eq.SynthConfig(n_queries=400, n_models=4, embed_dim=10, tie_fraction=0.85,
                       margin_scale=0.25, cost_spread=10.0, noise_seed=23)
    )
    hyper = EquiHyper(d_q=10, n_models=4, d_m=8, latent_dim=16, epochs=150,
                      batch_size=64, learning_rate=3e-3, seed=5)

    def train_fn(tbl, train_idx, valid_idx):
        return train_equirouter(tbl, (train_idx, valid_idx), hyper)[0]

    summary, curve = ev.training_set_eval(train_fn, table, n_points=50)

    all_idx = np.arange(table.n_queries)
    router = train_equirouter(table, (all_idx, np.array([], dtype=int)), hyper)[0]
    grid = ev.budget_grid(table, all_idx, 50)
    direct_curve = ev.sweep(router, table, all_idx, grid)
    direct_summary = ev.metrics_summary(direct_curve, table, all_idx)

    router_b = train_equirouter(table, (all_idx, np.array([], dtype=int)), hyper)[0]
    save_router(tmp_path / "a.ckpt", router)
    save_router(tmp_path / "b.ckpt", router_b)
    reproducible = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    report(
        9,
        curve == direct_curve and summary == direct_summary and reproducible,
        "training-set evaluation equals a full-split sweep and checkpoints are "
        "bit-reproducible",
    )


def test_criterion_10_cost_predictor_regime(linear_cost_table):
    table = linear_cost_table
    split = eq.make_split(table.n_queries, (3, 1, 6), seed=42)
    test_idx = np.asarray(split.test)
    hyper = MlpHyper(d_q=table.embed_dim, n_models=table.n_models, hidden=16,
                     epochs=8000, batch_size=4096, learning_rate=1e-3, seed=0)
    predictor, _ = train_cost_predictor(table, split, hyper)
    predicted = predict_costs(predictor, table.embeddings[test_idx])
    true_cost = table.cost[test_idx]
    rel_mse = float(np.mean((predicted - true_cost) ** 2)) / float(np.var(true_cost))

    grid = ev.budget_grid(table, test_idx, 100)
    routers = {
        "knn": train_knn_router(table, split, k=10),
        "mlp": train_mlp_router(
            table, split,
            MlpHyper(d_q=table.embed_dim, n_models=table.n_models, hidden=16,
                     epochs=60, batch_size=512, seed=0),
        )[0],
        "equirouter": train_equirouter(
            table, split,
            EquiHyper(d_q=table.embed_dim, n_models=table.n_models, d_m=8,
                      latent_dim=16, epochs=40, batch_size=512, seed=0),
        )[0],
    }
    worst_flip = 0.0
    for router in routers.values():
        scores = router_scores(router, table, test_idx)
        flips = 0
        for budget in grid:
            with_pred, _ = select_under_budget_batch(scores, predicted, budget)
            with_true, _ = select_under_budget_batch(scores, true_cost, budget)
            flips += int(np.sum(with_pred != with_true))
        worst_flip = max(worst_flip, flips / (len(grid) * test_idx.size))

    report(
        10,
        rel_mse < 1e-6 and worst_flip < 0.01,
        f"cost predictor test MSE {rel_mse:.2e} of variance; worst decision flip "
        f"rate {worst_flip:.4f} between predicted and oracle costs",
    )


PIPELINE_CONFIG = """
synth.n_queries = 400
synth.n_models = 4
synth.embed_dim = 10
synth.tie_fraction = 0.9
synth.margin_scale = 0.25
synth.cost_spread = 10
synth.seed = 13
split.ratio = 3:1:6
split.seed = 42
router = equirouter
cost_source = predicted
grid_points = 40
train.latent_dim = 16
train.model_dim = 8
train.hidden = 16
train.epochs = 120
train.batch_size = 64
train.lr = 0.003
"""


def test_criterion_11_pipeline_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(PIPELINE_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["pipeline", "--config", str(cfg), "--out", str(out_a)])
    code_b = cli_main(["pipeline", "--config", str(cfg), "--out", str(out_b)])
    names = ["metrics.json", "curve.csv", "equirouter.ckpt", "cost.ckpt"]
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in names
    )
    report(
        11,
        code_a == 0 and code_b == 0 and identical,
        "pipeline reruns produce byte-identical metrics.json, curve.csv and "
        "checkpoints",
    )
