"""Budget-constrained model routing: data model, oracle rule, EquiRouter,
baselines, cost predictor, and the evaluation/diagnostics suite."""

import os as _os
import sys as _sys

# Outputs are byte-identical only under one BLAS thread. BLAS reads these
# variables once, when numpy loads it, so they can be set here only if numpy
# is not loaded yet; a value the caller set wins.
if "numpy" not in _sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .dataset import (
    ModelInfo,
    RoutingTable,
    SplitIndices,
    SynthConfig,
    generate_synthetic,
    load_split,
    load_table,
    make_split,
    save_split,
    save_table,
)
from .evaluation import (
    CollapseReport,
    MetricsSummary,
    SweepCurve,
    budget_grid,
    call_rate_curve,
    metrics_summary,
    nauc,
    noise_sensitivity,
    peak_score,
    qnc,
    qnc_from_curve,
    rci,
    sweep,
    training_set_eval,
)
from .neuralnet import (
    AdamState,
    DenseLayer,
    adam_step,
    backward,
    forward,
    init_adam,
    init_dense,
    load_checkpoint,
    save_checkpoint,
)
from .oracle import (
    FeasibleSet,
    MarginStats,
    feasible_set,
    margin_stats,
)
from .router import (
    CostPredictorParams,
    EquiHyper,
    EquiRouterParams,
    KnnRouterParams,
    MlpHyper,
    MlpRouterParams,
    OracleRouter,
    RouterDecision,
    init_equirouter,
    load_router,
    predict_costs,
    ranking_loss,
    route,
    save_router,
    train_cost_predictor,
    train_equirouter,
    train_knn_router,
    train_mlp_router,
    train_mse_ablation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
