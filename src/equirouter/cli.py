"""Experiment command line: synth, train, sweep, diagnose, pipeline.

Every run is described by a flat key=value config file; any CLI flag
overrides the corresponding config key. Commands read and check every input
before touching the filesystem, and all outputs are byte-deterministic for a
fixed config, so reruns can be compared with `cmp`.

Config keys (defaults in parentheses; parsers in CONFIG_KEYS, SYNTH_KEYS and
THRESHOLD_KEYS). Each CONFIG_KEYS entry also holds its key's accepted range,
and the train.* defaults are those of router.EquiHyper and router.MlpHyper:

    table                       path to an existing table directory
                                (exclusive with the synth.* keys)
    synth.n_queries             synthetic generator knobs; defaults and
    synth.n_models              meaning in dataset.SynthConfig, with
    synth.embed_dim             synth.seed its noise_seed
    synth.tie_fraction
    synth.margin_scale
    synth.cost_spread
    synth.seed
    split.ratio                 (3:1:6)
    split.seed                  (42)
    router                      (equirouter) one of oracle, equirouter,
                                equirouter-nojoint, mse, knn, mlp
    cost_source                 (predicted) or oracle; the oracle router
                                always reads true costs
    grid_points                 (100)
    out                         (out) output directory
    train.latent_dim            (128)
    train.model_dim             (64)
    train.hidden                (64) hidden width of MLP-style regressors
    train.lr                    (0.001)
    train.epochs                (30)
    train.batch_size            (2048)
    train.weight_decay          (0.0001)
    train.seed                  (0)
    knn.k                       (50)
    diagnose.sigmas             (0,0.05,0.1,0.2,0.4)
    diagnose.margin_thresholds  (0,0.001,0.01,0.05)
    threshold.min_nauc          optional metric gates; violations exit with
    threshold.max_rci           code 3
    threshold.max_qnc_relative

Exit codes: 0 success, 1 invalid config or input (a table, split.json or
checkpoint that does not fit, or an empty split part the command needs;
nothing is written), 2 runtime/numerics error, 3 metric threshold violated.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import evaluation as ev
from . import router as rt
from ._floatfmt import write_csv
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
    knn_k: int = 50
    sigmas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4)
    margin_thresholds: tuple[float, ...] = (0.0, 1e-3, 1e-2, 5e-2)
    train: dict = field(default_factory=dict)  # EquiHyper/MlpHyper field -> set value
    thresholds: dict = field(default_factory=dict)  # threshold key -> limit

    def validate(self) -> None:
        """Checks that span keys or are not ranges; build_config checks each
        key's range as it parses it."""
        if self.router not in ROUTER_KINDS:
            raise ConfigError(f"unknown router {self.router!r}; pick from {ROUTER_KINDS}")
        if self.table is not None and self.synth is not None:
            raise ConfigError("config must name a table path or synth settings, not both")
        if self.table is None and self.synth is None:
            raise ConfigError("config must name a table path or synth settings")
        if self.table is not None and not Path(self.table).is_dir():
            raise ConfigError(f"table directory not found: {self.table}")
        if self.synth is not None:
            try:
                validate_synth_config(self.synth)
            except ValueError as exc:  # its messages start with the field name
                raise ConfigError(f"synth.{exc}") from exc
        if sorted(self.margin_thresholds) != list(self.margin_thresholds):
            raise ConfigError("diagnose.margin_thresholds must be sorted ascending")


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
        raise ValueError(f"must have 3 parts, got {text!r}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p != "")


# accepted ranges: (text for the message, test of a parsed value)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_FINITE_LIST = ("one or more finite values >= 0",
                lambda vs: vs and all(np.isfinite(v) and v >= 0 for v in vs))
_FINITE = ("finite", np.isfinite)  # a NaN threshold.* gate could never fire
# config key -> (ExperimentConfig field, or for train.* the EquiHyper/MlpHyper
# field; value parser; accepted range or None)
CONFIG_KEYS = {
    "table": ("table", str, None),
    "split.ratio": ("split_ratio", _parse_ratio,
                    ("finite and > 0", lambda v: all(np.isfinite(r) and r > 0 for r in v))),
    "split.seed": ("split_seed", int, None),
    "router": ("router", str, None),
    "cost_source": ("cost_source", str,
                    ("predicted or oracle", lambda v: v in ("predicted", "oracle"))),
    "grid_points": ("grid_points", int, (">= 2", lambda v: v >= 2)),
    "out": ("out", str, None),
    "train.latent_dim": ("latent_dim", int, _AT_LEAST_1),
    "train.model_dim": ("d_m", int, _AT_LEAST_1),
    "train.hidden": ("hidden", int, _AT_LEAST_1),
    "train.lr": ("learning_rate", float, ("finite and > 0", lambda v: np.isfinite(v) and v > 0)),
    "train.epochs": ("epochs", int, _AT_LEAST_1),
    "train.batch_size": ("batch_size", int, _AT_LEAST_1),
    "train.weight_decay": ("weight_decay", float,
                           ("finite and >= 0", lambda v: np.isfinite(v) and v >= 0)),
    "train.seed": ("seed", int, None),
    "knn.k": ("knn_k", int, _AT_LEAST_1),
    "diagnose.sigmas": ("sigmas", _parse_floats, _FINITE_LIST),
    "diagnose.margin_thresholds": ("margin_thresholds", _parse_floats, _FINITE_LIST),
}
# synth.* key -> (SynthConfig field, parser of the field's type)
SYNTH_KEYS = {
    "synth." + ("seed" if f.name == "noise_seed" else f.name): (f.name, type(f.default))
    for f in fields(SynthConfig)
}
# threshold key -> (metric, comparison that violates the gate, its sign)
THRESHOLD_KEYS = {
    "threshold.min_nauc": ("nauc", operator.lt, "<"),
    "threshold.max_rci": ("rci", operator.gt, ">"),
    "threshold.max_qnc_relative": ("qnc_relative", operator.gt, ">"),
}


def build_config(values: dict[str, str]) -> ExperimentConfig:
    settings: dict = {"train": {}, "thresholds": {}}
    synth: dict = {}
    for key, text in values.items():
        if key in CONFIG_KEYS:
            name, parse, accepted = CONFIG_KEYS[key]
            target = settings["train"] if key.startswith("train.") else settings
        elif key in SYNTH_KEYS:  # dataset.validate_synth_config checks these
            (name, parse), accepted, target = SYNTH_KEYS[key], None, synth
        elif key in THRESHOLD_KEYS:
            name, parse, accepted, target = key, float, _FINITE, settings["thresholds"]
        else:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            value = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        if accepted is not None and not accepted[1](value):
            raise ConfigError(f"{key} must be {accepted[0]}, got {value!r}")
        target[name] = value
    return ExperimentConfig(**settings, synth=SynthConfig(**synth) if synth else None)


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict[str, str] = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {args.config}")
        values.update(parse_config_text(path.read_text()))
    # CLI flags override config keys: each flag's dest is its key
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            values[key] = str(getattr(args, key))
    cfg = build_config(values)
    cfg.validate()
    if cfg.router == "oracle":  # it routes on true costs: no cost predictor
        cfg.cost_source = "oracle"
    return cfg


# ---------------------------------------------------------------------------
# shared plumbing


def _read_inputs(
    cfg: ExperimentConfig, train: bool = False, test: bool = False
) -> tuple[RoutingTable, SplitIndices, bool]:
    """Read and check the table and its split; writes nothing.

    The split is the table directory's split.json or, when there is none, one
    made from split.ratio/split.seed; the flag is True for a made split,
    which `_open_out` writes. `train` and `test` require that part of the
    split to be non-empty.
    """
    try:
        table = generate_synthetic(cfg.synth) if cfg.table is None else load_table(cfg.table)
    except (ValueError, FileNotFoundError) as exc:
        raise ConfigError(f"invalid table: {exc}") from exc
    split_path = Path(cfg.table or ".", "split.json")  # only read for a table directory
    made = cfg.table is None or not split_path.is_file()
    if made:
        try:
            split = make_split(table.n_queries, cfg.split_ratio, cfg.split_seed)
        except ValueError as exc:
            raise ConfigError(f"split.ratio: {exc}") from exc
        source = f"split.ratio {':'.join(f'{r:g}' for r in cfg.split_ratio)}"
    else:
        try:
            split = load_split(split_path)
        except ValueError as exc:
            raise ConfigError(f"invalid {split_path}: {exc}") from exc
        n_split = len(split.train) + len(split.valid) + len(split.test)
        if n_split != table.n_queries:
            raise ConfigError(
                f"split.json partitions {n_split} queries but the table has {table.n_queries}"
            )
        source = str(split_path)
    for part, rows, needed in (("training", split.train, train), ("test", split.test, test)):
        if needed and not rows:
            raise ConfigError(
                f"the {part} split of the table's {table.n_queries} queries is empty ({source})"
            )
    return table, split, made


def _open_out(cfg: ExperimentConfig, split: SplitIndices, made: bool) -> Path:
    """Create the output directory and write a made split into it."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if made:
        save_split(split, out / "split.json")
    return out


def _load_checked(path: Path | str, tag: str, table: RoutingTable, split: SplitIndices):
    """Load a checkpoint, refusing one of another kind, sized for another
    table or, for kNN, trained on other rows than the run's training split."""
    try:
        model = rt.load_router(path)
    except (ValueError, IsADirectoryError) as exc:
        reason = str(exc).removeprefix(f"{path}: ")  # most loader messages name the path
        raise ConfigError(f"checkpoint {path}: {reason}") from exc
    if model.tag != tag:
        raise ConfigError(f"checkpoint {path} holds router_type {model.tag!r}, expected {tag!r}")
    hyper = getattr(model, "hyper", None)
    for name, want in (("d_q", table.embed_dim), ("n_models", table.n_models)):
        if hyper is not None and getattr(hyper, name) != want:
            raise ConfigError(
                f"checkpoint {path} has {name}={getattr(hyper, name)} "
                f"but the table has {name}={want}"
            )
    rows = getattr(model, "train_indices", ())
    if rows and not 0 <= min(rows) <= max(rows) < table.n_queries:
        raise ConfigError(
            f"checkpoint {path} trains on query rows {min(rows)}..{max(rows)} "
            f"but the table has {table.n_queries} queries"
        )
    if rows and rows != split.train:
        raise ConfigError(
            f"checkpoint {path} trains on other query rows than this run's training "
            f"split (checkpoint split.seed={model.split_seed}, run split.seed={split.seed})"
        )
    return model


def _load_checkpoints(
    cfg: ExperimentConfig, checkpoint: str | None, table: RoutingTable, split: SplitIndices
):
    """The router `sweep` evaluates and, for predicted costs, the cost
    predictor saved next to it: (router, cost predictor or None)."""
    if cfg.router == "oracle":
        return rt.OracleRouter(), None
    if checkpoint is None:
        raise ConfigError("sweep needs --checkpoint for trained routers")
    router = _load_checked(checkpoint, cfg.router.replace("-", "_"), table, split)
    if cfg.cost_source == "oracle":
        return router, None
    cp_path = Path(checkpoint).parent / "cost.ckpt"
    if not cp_path.is_file():
        raise ConfigError("cost_source=predicted needs cost.ckpt next to the checkpoint")
    return router, _load_checked(cp_path, "cost", table, split)


def _hyper(cls, cfg: ExperimentConfig, table: RoutingTable):
    """`cls` (rt.EquiHyper or rt.MlpHyper) sized for the table, with the
    train.* values the config sets for its fields; the rest keep its defaults."""
    names = {f.name for f in fields(cls)}
    return cls(d_q=table.embed_dim, n_models=table.n_models,
               **{name: value for name, value in cfg.train.items() if name in names})


def _train_router(cfg: ExperimentConfig, table: RoutingTable, split: SplitIndices):
    """Returns (router, training log or None)."""
    if cfg.router == "oracle":
        return rt.OracleRouter(), None
    if cfg.router == "knn":
        return rt.train_knn_router(table, split, k=cfg.knn_k), None
    if cfg.router == "mlp":
        return rt.train_mlp_router(table, split, _hyper(rt.MlpHyper, cfg, table))
    hyper = _hyper(rt.EquiHyper, cfg, table)
    if cfg.router == "mse":
        return rt.train_mse_ablation(table, split, hyper)
    return rt.train_equirouter(table, split, hyper, joint_feature=cfg.router == "equirouter")


def _write_train_log(log, path: Path) -> None:
    write_csv(path, {name: [getattr(row, name) for row in log]
                     for name in ("epoch", "train_loss", "val_loss")})


def _train_and_save(cfg: ExperimentConfig, table: RoutingTable, split: SplitIndices, out: Path):
    """Train the router and, for predicted costs, the cost predictor; write
    each checkpoint (the oracle has none) and training log.
    Returns (router, cost predictor or None)."""
    router, log = _train_router(cfg, table, split)
    if cfg.router != "oracle":
        rt.save_router(out / f"{cfg.router}.ckpt", router)
    if log is not None:
        _write_train_log(log, out / "train_log.csv")
    cost_predictor = None
    if cfg.cost_source == "predicted":
        cost_predictor, cost_log = rt.train_cost_predictor(
            table, split, _hyper(rt.MlpHyper, cfg, table))
        rt.save_cost_predictor(out / "cost.ckpt", cost_predictor)
        _write_train_log(cost_log, out / "cost_train_log.csv")
    return router, cost_predictor


def _sweep_and_report(
    cfg: ExperimentConfig,
    table: RoutingTable,
    split: SplitIndices,
    router,
    cost_predictor,
    out: Path,
) -> int:
    """Sweep the test split, write curve.csv, rci_detail.csv and metrics.json,
    print the metrics and apply the threshold.* gates; returns the exit code."""
    test_idx = np.asarray(split.test, dtype=np.int64)
    grid = ev.budget_grid(table, test_idx, cfg.grid_points)
    curve = ev.sweep(router, table, test_idx, grid, cfg.cost_source, cost_predictor)
    report = ev.rci(table, curve.unlimited_choices, test_idx)
    # written before the metrics, which raise on a curve of one cost: a
    # router that collapses onto one model still leaves its evidence
    ev.write_curve_csv(curve, out / "curve.csv")
    ev.write_rci_csv(report, out / "rci_detail.csv")
    summary = ev.metrics_summary(curve, table, test_idx, report)
    ev.write_metrics_json(summary, out / "metrics.json")
    print(json.dumps(ev.metrics_to_dict(summary), sort_keys=True))
    code = EXIT_OK
    for key, (metric, violates, sign) in THRESHOLD_KEYS.items():
        value, limit = getattr(summary, metric), cfg.thresholds.get(key)
        if limit is not None and (value is None or violates(value, limit)):
            shown = "/" if value is None else f"{value:.6f}"
            gate = key.removeprefix("threshold.")
            print(f"threshold violated: {metric} {shown} {sign} {gate} {limit}", file=sys.stderr)
            code = EXIT_THRESHOLD
    return code


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: ExperimentConfig) -> int:
    if cfg.synth is None:
        raise ConfigError("synth command needs synth.* config keys")
    table, split, made = _read_inputs(cfg)
    out = _open_out(cfg, split, made)
    save_table(table, out)

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
    table, split, made = _read_inputs(cfg, train=True)
    out = _open_out(cfg, split, made)
    _train_and_save(cfg, table, split, out)
    print(f"wrote checkpoint {out / (cfg.router + '.ckpt')}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, checkpoint: str | None) -> int:
    table, split, made = _read_inputs(cfg, test=True)
    router, cost_predictor = _load_checkpoints(cfg, checkpoint, table, split)
    out = _open_out(cfg, split, made)
    return _sweep_and_report(cfg, table, split, router, cost_predictor, out)


def cmd_diagnose(cfg: ExperimentConfig) -> int:
    table, split, made = _read_inputs(cfg, train=cfg.router != "oracle", test=True)
    out = _open_out(cfg, split, made)
    test_idx = np.asarray(split.test, dtype=np.int64)

    full_budget = float(table.cost[test_idx].max())
    stats = margin_stats(table, full_budget, list(cfg.margin_thresholds))
    write_margin_cdf_csv(stats, out / "margins.csv")

    seed = _hyper(rt.EquiHyper, cfg, table).seed
    rows = ev.noise_sensitivity(table, cfg.sigmas, full_budget, seed, indices=test_idx)
    ev.write_noise_csv(rows, out / "noise.csv")

    grid = ev.budget_grid(table, test_idx, cfg.grid_points)
    router, _ = _train_router(cfg, table, split)
    curve = ev.sweep(router, table, test_idx, grid, "oracle")
    ev.write_callrates_csv(ev.call_rate_curve(curve), out / "callrates.csv")

    def train_fn(tbl, train_idx, valid_idx):
        return _train_router(cfg, tbl, (train_idx, valid_idx))[0]

    summary, _ = ev.training_set_eval(train_fn, table, n_points=cfg.grid_points)
    ev.write_metrics_json(summary, out / "trainset_metrics.json")
    print(f"diagnostics written to {out}")
    return EXIT_OK


def cmd_pipeline(cfg: ExperimentConfig) -> int:
    table, split, made = _read_inputs(cfg, train=cfg.router != "oracle", test=True)
    out = _open_out(cfg, split, made)
    if cfg.synth is not None:
        save_table(table, out / "table")
    router, cost_predictor = _train_and_save(cfg, table, split, out)
    return _sweep_and_report(cfg, table, split, router, cost_predictor, out)


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
        # each override's dest is its config key
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--table", help="table directory (overrides config)")
        p.add_argument("--router", choices=ROUTER_KINDS)
        p.add_argument("--cost-source", dest="cost_source", choices=("predicted", "oracle"))
        p.add_argument("--grid-points", dest="grid_points", type=int)
        p.add_argument("--seed", dest="train.seed", type=int,
                       help="train.seed override; also seeds diagnose's noise curve")
        p.add_argument("--out", help="output directory")
        if name == "sweep":
            p.add_argument("--checkpoint", help="router checkpoint to evaluate")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite intermediate is reported by the finiteness checks as
        # exit 2, not by numpy as a warning ahead of the error line
        with np.errstate(all="ignore"):
            cfg = load_config(args)
            if args.command == "synth":
                return cmd_synth(cfg)
            if args.command == "train":
                return cmd_train(cfg)
            if args.command == "sweep":
                return cmd_sweep(cfg, args.checkpoint)
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
