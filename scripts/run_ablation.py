#!/usr/bin/env python3
"""Router comparison on one synthetic table: oracle, EquiRouter, its two
ablations, and the kNN/MLP baselines, each summarized by nAUC, peak score,
QNC-relative and RCI on the held-out test split. A router that picks the
same model at every budget has no cost range, so its nAUC prints as "/"."""

import argparse

import numpy as np

from equirouter.dataset import SynthConfig, generate_synthetic, make_split
from equirouter.evaluation import budget_grid, nauc, peak_score, qnc, rci, sweep
from equirouter.router import (
    EquiHyper,
    MlpHyper,
    OracleRouter,
    train_equirouter,
    train_knn_router,
    train_mlp_router,
    train_mse_ablation,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--queries", type=int, default=5000)
    ap.add_argument("--models", type=int, default=6)
    ap.add_argument("--tie-fraction", type=float, default=0.9)
    ap.add_argument("--epochs", type=int, default=150)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    table = generate_synthetic(
        SynthConfig(
            n_queries=args.queries,
            n_models=args.models,
            embed_dim=24,
            tie_fraction=args.tie_fraction,
            margin_scale=0.2,
            cost_spread=30.0,
            noise_seed=17,
        )
    )
    split = make_split(table.n_queries, (3, 1, 6), seed=42)
    test_idx = np.asarray(split.test)
    grid = budget_grid(table, test_idx, 100)

    equi_hyper = EquiHyper(
        d_q=table.embed_dim, n_models=table.n_models, d_m=16, latent_dim=32,
        epochs=args.epochs, batch_size=256, learning_rate=3e-3, seed=args.seed,
    )
    mlp_hyper = MlpHyper(
        d_q=table.embed_dim, n_models=table.n_models, hidden=32,
        epochs=args.epochs, batch_size=256, learning_rate=3e-3, seed=args.seed,
    )
    routers = {
        "oracle": OracleRouter(),
        "equirouter": train_equirouter(table, split, equi_hyper)[0],
        "w/o joint feature": train_equirouter(table, split, equi_hyper, joint_feature=False)[0],
        "w/o ranking loss": train_mse_ablation(table, split, equi_hyper)[0],
        "knn (k=50)": train_knn_router(table, split, k=50),
        "mlp": train_mlp_router(table, split, mlp_hyper)[0],
    }

    print(f"{'router':>20} {'nAUC':>8} {'Ps':>8} {'QNC_rel':>8} {'RCI':>8}")
    for name, router in routers.items():
        curve = sweep(router, table, test_idx, grid, cost_source="oracle")
        try:
            area = f"{nauc(curve):.4f}"
        except ValueError:  # degenerate cost range: full collapse
            area = "/"
        ps, _ = peak_score(curve)
        _, qnc_rel = qnc(curve, table, test_idx)
        qnc_shown = "/" if qnc_rel is None else f"{qnc_rel:.4f}"
        collapse = rci(table, curve.unlimited_choices, test_idx)
        print(f"{name:>20} {area:>8} {ps:>8.4f} {qnc_shown:>8} {collapse.rci:>8.4f}")


if __name__ == "__main__":
    main()
