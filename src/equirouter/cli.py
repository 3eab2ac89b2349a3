"""Experiment command line: synth, train, sweep, diagnose, pipeline.

Every run is described by a flat key=value config file; any CLI flag
overrides the corresponding config key. Commands validate the whole config
before touching the filesystem, and all outputs are byte-deterministic for a
fixed config, so reruns can be compared with `cmp`.

Config keys (defaults in parentheses):

    table                  path to an existing table directory (exclusive
                           with the synth.* keys)
    synth.n_queries        (5000)   synthetic generator knobs
    synth.n_models         (6)
    synth.embed_dim        (32)
    synth.tie_fraction     (0.95)
    synth.margin_scale     (0.2)
    synth.cost_spread      (50.0)
    synth.seed             (0)
    split.ratio            (3:1:6)
    split.seed             (42)
    router                 (equirouter) one of oracle, equirouter,
                           equirouter-nojoint, mse, knn, mlp
    cost_source            (predicted) or oracle
    grid_points            (100)
    out                    (out) output directory
    train.latent_dim       (128)    train.model_dim  (64)
    train.hidden           (64)     hidden width of MLP-style regressors
    train.lr               (0.001)  train.epochs (30)  train.batch_size (2048)
    train.weight_decay     (0.0001) train.seed (0)
    knn.k                  (50)
    diagnose.sigmas        (0,0.05,0.1,0.2,0.4)
    diagnose.margin_thresholds  (0,0.001,0.01,0.05)
    threshold.min_nauc     optional metric gates; violations exit with code 3
    threshold.max_rci
    threshold.max_qnc_relative

Exit codes: 0 success, 1 validation error, 2 runtime/numerics error,
3 metric threshold violated.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation as ev
from . import router as rt
from .dataset import (
    RoutingTable,
    SplitIndices,
    SynthConfig,
    generate_synthetic,
    load_split,
    load_table,
    make_split,
    save_split,
    save_table,
    validate_synth_config,
)
from .oracle import margin_stats, write_margin_cdf_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_THRESHOLD = 3

ROUTER_KINDS = ("oracle", "equirouter", "equirouter-nojoint", "mse", "knn", "mlp")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    table: str | None = None
    synth: SynthConfig | None = None
    split_ratio: tuple[float, float, float] = (3.0, 1.0, 6.0)
    split_seed: int = 42
    router: str = "equirouter"
    cost_source: str = "predicted"
    grid_points: int = 100
    out: str = "out"
    latent_dim: int = 128
    model_dim: int = 64
    hidden: int = 64
    lr: float = 1e-3
    epochs: int = 30
    batch_size: int = 2048
    weight_decay: float = 1e-4
    train_seed: int = 0
    knn_k: int = 50
    sigmas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4)
    margin_thresholds: tuple[float, ...] = (0.0, 1e-3, 1e-2, 5e-2)
    thresholds: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.router not in ROUTER_KINDS:
            raise ConfigError(f"unknown router {self.router!r}; pick from {ROUTER_KINDS}")
        if self.cost_source not in ("predicted", "oracle"):
            raise ConfigError(f"cost_source must be predicted or oracle, got {self.cost_source!r}")
        if self.grid_points < 2:
            raise ConfigError("grid_points must be >= 2")
        if self.table is not None and self.synth is not None:
            raise ConfigError("config must name a table path or synth settings, not both")
        if self.table is None and self.synth is None:
            raise ConfigError("config must name a table path or synth settings")
        if self.table is not None and not Path(self.table).is_dir():
            raise ConfigError(f"table directory not found: {self.table}")
        if self.synth is not None:
            try:
                validate_synth_config(self.synth)
            except ValueError as exc:
                raise ConfigError(f"invalid synth settings: {exc}") from exc
        if any(r <= 0 for r in self.split_ratio):
            raise ConfigError("split ratio parts must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("train.epochs and train.batch_size must be >= 1")
        if sorted(self.margin_thresholds) != list(self.margin_thresholds):
            raise ConfigError("diagnose.margin_thresholds must be sorted ascending")
        for key in self.thresholds:
            if key not in ("min_nauc", "max_rci", "max_qnc_relative"):
                raise ConfigError(f"unknown threshold key {key!r}")


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_ratio(text: str) -> tuple[float, float, float]:
    parts = [p for p in text.replace(":", ",").split(",") if p != ""]
    if len(parts) != 3:
        raise ConfigError(f"split.ratio must have 3 parts, got {text!r}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p != "")


def build_config(values: dict[str, str]) -> ExperimentConfig:
    cfg = ExperimentConfig()
    synth_keys = {}
    try:
        for key, val in values.items():
            if key == "table":
                cfg.table = val
            elif key.startswith("synth."):
                synth_keys[key.removeprefix("synth.")] = val
            elif key == "split.ratio":
                cfg.split_ratio = _parse_ratio(val)
            elif key == "split.seed":
                cfg.split_seed = int(val)
            elif key == "router":
                cfg.router = val
            elif key == "cost_source":
                cfg.cost_source = val
            elif key == "grid_points":
                cfg.grid_points = int(val)
            elif key == "out":
                cfg.out = val
            elif key == "train.latent_dim":
                cfg.latent_dim = int(val)
            elif key == "train.model_dim":
                cfg.model_dim = int(val)
            elif key == "train.hidden":
                cfg.hidden = int(val)
            elif key == "train.lr":
                cfg.lr = float(val)
            elif key == "train.epochs":
                cfg.epochs = int(val)
            elif key == "train.batch_size":
                cfg.batch_size = int(val)
            elif key == "train.weight_decay":
                cfg.weight_decay = float(val)
            elif key == "train.seed":
                cfg.train_seed = int(val)
            elif key == "knn.k":
                cfg.knn_k = int(val)
            elif key == "diagnose.sigmas":
                cfg.sigmas = _parse_floats(val)
            elif key == "diagnose.margin_thresholds":
                cfg.margin_thresholds = _parse_floats(val)
            elif key.startswith("threshold."):
                cfg.thresholds[key.removeprefix("threshold.")] = float(val)
            else:
                raise ConfigError(f"unknown config key {key!r}")
        if synth_keys:
            cfg.synth = SynthConfig(
                n_queries=int(synth_keys.pop("n_queries", 5000)),
                n_models=int(synth_keys.pop("n_models", 6)),
                embed_dim=int(synth_keys.pop("embed_dim", 32)),
                tie_fraction=float(synth_keys.pop("tie_fraction", 0.95)),
                margin_scale=float(synth_keys.pop("margin_scale", 0.2)),
                cost_spread=float(synth_keys.pop("cost_spread", 50.0)),
                noise_seed=int(synth_keys.pop("seed", 0)),
            )
            if synth_keys:
                raise ConfigError(f"unknown synth keys: {sorted(synth_keys)}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict[str, str] = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {args.config}")
        values.update(parse_config_text(path.read_text()))
    # CLI flags override config keys
    overrides = {
        "table": args.table,
        "router": args.router,
        "cost_source": args.cost_source,
        "grid_points": args.grid_points,
        "out": args.out,
        "train.seed": args.seed,
    }
    for key, val in overrides.items():
        if val is not None:
            values[key] = str(val)
    cfg = build_config(values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# shared plumbing


def _resolve_table(cfg: ExperimentConfig) -> RoutingTable:
    try:
        if cfg.table is not None:
            return load_table(cfg.table)
        return generate_synthetic(cfg.synth)
    except (ValueError, FileNotFoundError) as exc:
        raise ConfigError(f"invalid table: {exc}") from exc


def _resolve_split(cfg: ExperimentConfig, table: RoutingTable, out: Path) -> SplitIndices:
    if cfg.table is not None and (Path(cfg.table) / "split.json").is_file():
        split = load_split(Path(cfg.table) / "split.json")
        n_split = len(split.train) + len(split.valid) + len(split.test)
        if n_split != table.n_queries:
            raise ConfigError(
                f"split.json partitions {n_split} queries but the table has "
                f"{table.n_queries}"
            )
        return split
    split = make_split(table.n_queries, cfg.split_ratio, cfg.split_seed)
    save_split(split, out / "split.json")
    return split


def _mlp_hyper(cfg: ExperimentConfig, table: RoutingTable) -> rt.MlpHyper:
    """Sizes and schedule of the two-layer regressors (MLP baseline, cost predictor)."""
    return rt.MlpHyper(
        d_q=table.embed_dim,
        n_models=table.n_models,
        hidden=cfg.hidden,
        learning_rate=cfg.lr,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        seed=cfg.train_seed,
    )


def _train_router(cfg: ExperimentConfig, table: RoutingTable, split: SplitIndices):
    """Returns (router, training log or None)."""
    if cfg.router == "oracle":
        return rt.OracleRouter(), None
    if cfg.router == "knn":
        return rt.train_knn_router(table, split, k=cfg.knn_k), None
    if cfg.router == "mlp":
        return rt.train_mlp_router(table, split, _mlp_hyper(cfg, table))
    hyper = rt.EquiHyper(
        d_q=table.embed_dim,
        n_models=table.n_models,
        d_m=cfg.model_dim,
        latent_dim=cfg.latent_dim,
        weight_decay=cfg.weight_decay,
        learning_rate=cfg.lr,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        seed=cfg.train_seed,
    )
    if cfg.router == "equirouter":
        return rt.train_equirouter(table, split, hyper)
    if cfg.router == "equirouter-nojoint":
        return rt.train_no_joint_ablation(table, split, hyper)
    return rt.train_mse_ablation(table, split, hyper)


def _write_train_log(log, path: Path) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_loss", "val_loss"])
        for row in log:
            w.writerow([row.epoch, repr(row.train_loss), repr(row.val_loss)])


def _check_thresholds(cfg: ExperimentConfig, summary: ev.MetricsSummary) -> list[str]:
    failures = []
    t = cfg.thresholds
    if "min_nauc" in t and summary.nauc < t["min_nauc"]:
        failures.append(f"nauc {summary.nauc:.6f} < min_nauc {t['min_nauc']}")
    if "max_rci" in t and summary.rci > t["max_rci"]:
        failures.append(f"rci {summary.rci:.6f} > max_rci {t['max_rci']}")
    if "max_qnc_relative" in t:
        rel = summary.qnc_relative
        if rel is None or rel > t["max_qnc_relative"]:
            shown = "/" if rel is None else f"{rel:.6f}"
            failures.append(f"qnc_relative {shown} > max_qnc_relative {t['max_qnc_relative']}")
    return failures


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: ExperimentConfig) -> int:
    if cfg.synth is None:
        raise ConfigError("synth command needs synth.* config keys")
    out = Path(cfg.out)
    table = generate_synthetic(cfg.synth)
    split = make_split(table.n_queries, cfg.split_ratio, cfg.split_seed)
    out.mkdir(parents=True, exist_ok=True)
    save_table(table, out)
    save_split(split, out / "split.json")

    full_budget = float(table.cost.max())
    stats = margin_stats(table, full_budget, [0.0])
    col_means = table.cost.mean(axis=0)
    summary = {
        "n_queries": table.n_queries,
        "n_models": table.n_models,
        "embed_dim": table.embed_dim,
        "tie_rate": stats.tie_rate,
        "cost_spread_measured": float(col_means.max() / col_means.min()),
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True) + "\n")
    print(f"wrote table ({table.n_queries} queries, {table.n_models} models) to {out}")
    print(f"measured tie rate {stats.tie_rate:.4f}")
    return EXIT_OK


def cmd_train(cfg: ExperimentConfig) -> int:
    if cfg.router == "oracle":
        raise ConfigError("the oracle router has no parameters to train")
    table = _resolve_table(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    split = _resolve_split(cfg, table, out)
    router, log = _train_router(cfg, table, split)
    rt.save_router(out / f"{cfg.router}.ckpt", router)
    if log is not None:
        _write_train_log(log, out / "train_log.csv")
    if cfg.cost_source == "predicted":
        cp, cost_log = rt.train_cost_predictor(table, split, _mlp_hyper(cfg, table))
        rt.save_cost_predictor(out / "cost.ckpt", cp)
        _write_train_log(cost_log, out / "cost_train_log.csv")
    print(f"wrote checkpoint {out / (cfg.router + '.ckpt')}")
    return EXIT_OK


def _sweep_outputs(
    cfg: ExperimentConfig,
    table: RoutingTable,
    split: SplitIndices,
    router,
    cost_predictor,
    out: Path,
) -> ev.MetricsSummary:
    test_idx = np.asarray(split.test, dtype=np.int64)
    grid = ev.budget_grid(table, test_idx, cfg.grid_points)
    cost_source = "oracle" if cfg.router == "oracle" else cfg.cost_source
    curve = ev.sweep(router, table, test_idx, grid, cost_source, cost_predictor)
    report = ev.rci(table, curve.unlimited_choices, test_idx)
    # written before the metrics, which raise on a curve of one cost: a
    # router that collapses onto one model still leaves its evidence
    ev.write_curve_csv(curve, out / "curve.csv")
    ev.write_rci_csv(report, out / "rci_detail.csv")
    summary = ev.metrics_summary(curve, table, test_idx, report)
    ev.write_metrics_json(summary, out / "metrics.json")
    return summary


def cmd_sweep(cfg: ExperimentConfig, checkpoint: str | None) -> int:
    table = _resolve_table(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    split = _resolve_split(cfg, table, out)

    if cfg.router == "oracle":
        router: rt.Router = rt.OracleRouter()
    elif checkpoint is not None:
        router = rt.load_router(checkpoint)
    else:
        raise ConfigError("sweep needs --checkpoint for trained routers")
    cost_predictor = None
    if cfg.cost_source == "predicted" and cfg.router != "oracle":
        cp_path = Path(checkpoint).parent / "cost.ckpt" if checkpoint else None
        if cp_path is None or not cp_path.is_file():
            raise ConfigError("cost_source=predicted needs cost.ckpt next to the checkpoint")
        cost_predictor = rt.load_router(cp_path)

    summary = _sweep_outputs(cfg, table, split, router, cost_predictor, out)
    print(json.dumps(ev.metrics_to_dict(summary), sort_keys=True))
    failures = _check_thresholds(cfg, summary)
    if failures:
        for f in failures:
            print(f"threshold violated: {f}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_diagnose(cfg: ExperimentConfig) -> int:
    table = _resolve_table(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    split = _resolve_split(cfg, table, out)
    test_idx = np.asarray(split.test, dtype=np.int64)

    full_budget = float(table.cost[test_idx].max())
    stats = margin_stats(table, full_budget, list(cfg.margin_thresholds))
    write_margin_cdf_csv(stats, out / "margins.csv")

    rows = ev.noise_sensitivity(
        table, cfg.sigmas, full_budget, cfg.train_seed, indices=test_idx
    )
    ev.write_noise_csv(rows, out / "noise.csv")

    grid = ev.budget_grid(table, test_idx, cfg.grid_points)
    router, _ = _train_router(cfg, table, split) if cfg.router != "oracle" else (rt.OracleRouter(), None)
    curve = ev.sweep(router, table, test_idx, grid, "oracle")
    ev.write_callrates_csv(ev.call_rate_curve(curve), out / "callrates.csv")

    def train_fn(tbl, train_idx, valid_idx):
        if cfg.router == "oracle":
            return rt.OracleRouter()
        trained, _ = _train_router(cfg, tbl, (train_idx, valid_idx))
        return trained

    summary, _ = ev.training_set_eval(train_fn, table, n_points=cfg.grid_points)
    (out / "trainset_metrics.json").write_text(
        json.dumps(ev.metrics_to_dict(summary), sort_keys=True) + "\n"
    )
    print(f"diagnostics written to {out}")
    return EXIT_OK


def cmd_pipeline(cfg: ExperimentConfig) -> int:
    table = _resolve_table(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.synth is not None:
        save_table(table, out / "table")
    split = _resolve_split(cfg, table, out)

    if cfg.router == "oracle":
        router: rt.Router = rt.OracleRouter()
    else:
        router, log = _train_router(cfg, table, split)
        rt.save_router(out / f"{cfg.router}.ckpt", router)
        if log is not None:
            _write_train_log(log, out / "train_log.csv")
    cost_predictor = None
    if cfg.cost_source == "predicted" and cfg.router != "oracle":
        cost_predictor, cost_log = rt.train_cost_predictor(table, split, _mlp_hyper(cfg, table))
        rt.save_cost_predictor(out / "cost.ckpt", cost_predictor)
        _write_train_log(cost_log, out / "cost_train_log.csv")

    summary = _sweep_outputs(cfg, table, split, router, cost_predictor, out)
    print(json.dumps(ev.metrics_to_dict(summary), sort_keys=True))
    failures = _check_thresholds(cfg, summary)
    if failures:
        for f in failures:
            print(f"threshold violated: {f}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equirouter",
        description="budget-constrained model routing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("synth", "generate a synthetic routing table"),
        ("train", "train the configured router (and cost predictor)"),
        ("sweep", "budget sweep on the test split; emits curve.csv and metrics.json"),
        ("diagnose", "margin stats, noise curves, training-set eval, call rates"),
        ("pipeline", "synth/load + train + sweep in one run"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--table", help="table directory (overrides config)")
        p.add_argument("--router", choices=ROUTER_KINDS)
        p.add_argument("--cost-source", dest="cost_source", choices=("predicted", "oracle"))
        p.add_argument("--grid-points", dest="grid_points", type=int)
        p.add_argument("--seed", type=int, help="training seed override")
        p.add_argument("--out", help="output directory")
        if name == "sweep":
            p.add_argument("--checkpoint", help="router checkpoint to evaluate")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, getattr(args, "checkpoint", None))
        if args.command == "diagnose":
            return cmd_diagnose(cfg)
        if args.command == "pipeline":
            return cmd_pipeline(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - runtime/numerics failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
