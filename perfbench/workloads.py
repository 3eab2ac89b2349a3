"""The benchmark's workloads.

Every workload runs the same operations on inputs of its own shape:

* `pipeline` with `router = equirouter` and with `router = mse` (predicted
  costs), which generate the table, train and sweep;
* `sweep --checkpoint` of an EquiRouter trained in set-up, predicted costs;
* `diagnose` with `router = oracle`;
* batches of single `route()` calls for EquiRouter, kNN and the oracle.

One round runs each CLI command once and, after each of them, `rotations`
batches of each router kind, so `route()` is sampled all through the round
and a slow spell on the host falls on every kind alike. The shapes decide
where the time goes: the criterion-7 shape is mostly training, the large
11-model shape mostly scoring, selection and the per-query loops.

Each workload has four parts:

* `setup(inputs, seed)` makes the inputs the program receives (config files,
  a table directory, checkpoints) from the workload seed. It runs in a
  separate set-up process, several times, and is what `setup_s` times.
* `prepare(inputs, work, seed)` loads what the timed phase needs, untimed.
* `run_round(ctx, tracer)` runs one round and returns an `Op` per timed
  batch. An operation is one CLI command or one `route()` call.
* `check(ctx)` checks the last outputs with `checks`, apart from the program.

`tiny=True` shrinks every size so the self-test runs all of it in seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from equirouter import cli, dataset, router as rt

import checks

COMMANDS = ("pipeline_equi_s", "pipeline_mse_s", "sweep_s", "diagnose_s")
ROUTE_KINDS = ("route_equi_us", "route_knn_us", "route_oracle_us")
PIPELINE_ROUTERS = {"pipeline_equi_s": "equirouter", "pipeline_mse_s": "mse"}
DETERMINISTIC_FILES = {
    "pipeline_equi_s": ("metrics.json", "curve.csv"),
    "pipeline_mse_s": ("metrics.json", "curve.csv"),
    "sweep_s": ("metrics.json", "curve.csv"),
    "diagnose_s": ("margins.csv", "noise.csv", "callrates.csv"),
}
PAIRS = 4096  # seeded (query, budget) pairs per router kind, used in turn


@dataclass(frozen=True)
class Shape:
    n: int  # queries
    k: int  # models
    ratio: tuple[float, float, float]  # train:valid:test
    latent: int  # EquiRouter latent_dim, pipelines and set-up checkpoint
    model_dim: int
    epochs: int  # pipeline training schedule
    batch: int
    setup_epochs: int  # schedule of the checkpoints `sweep` and `route()` use
    setup_batch: int
    knn_k: int
    route_batch: tuple[int, int, int]  # calls per batch: EquiRouter, kNN, oracle
    rotations: int  # batches of each kind after each CLI command
    check_direction: bool  # criterion-7 RCI direction holds on this shape


@dataclass
class Op:
    kind: str  # end-to-end metric the batch feeds
    seconds: float
    calls: int
    failed: int


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def run_cli(argv: list[str]) -> tuple[float, bool]:
    """One CLI command, timed; its stdout is discarded."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
    return time.perf_counter() - t0, code == 0


def _synth_config(n, k, seed) -> dataset.SynthConfig:
    # half the queries tie: at criterion 7's 0.9, some seeds train an
    # EquiRouter that scores the cheapest model highest for every query, and
    # `pipeline`/`sweep` then exit 2 (see FOUND in CHANGES.md)
    return dataset.SynthConfig(
        n_queries=n, n_models=k, embed_dim=24, tie_fraction=0.5,
        margin_scale=0.2, cost_spread=30.0, noise_seed=seed,
    )


class Workload:
    def __init__(self, name: str, shape: Shape, tiny_shape: Shape, tiny: bool = False):
        self.name = name
        self.shape = tiny_shape if tiny else shape

    # -- set-up ---------------------------------------------------------

    def setup(self, inputs: Path, seed: int) -> None:
        s = self.shape
        synth = _synth_config(s.n, s.k, seed)
        table = dataset.generate_synthetic(synth)
        split = dataset.make_split(s.n, s.ratio, seed)
        dataset.save_table(table, inputs / "table")
        dataset.save_split(split, inputs / "table" / "split.json")
        equi, _ = rt.train_equirouter(table, split, rt.EquiHyper(
            d_q=synth.embed_dim, n_models=s.k, d_m=s.model_dim, latent_dim=s.latent,
            epochs=s.setup_epochs, batch_size=s.setup_batch, learning_rate=3e-3))
        cost, _ = rt.train_cost_predictor(table, split, rt.MlpHyper(
            d_q=synth.embed_dim, n_models=s.k, epochs=s.setup_epochs,
            batch_size=s.setup_batch, learning_rate=3e-3))
        (inputs / "ckpt").mkdir(parents=True, exist_ok=True)
        rt.save_router(inputs / "ckpt" / "equirouter.ckpt", equi)
        rt.save_router(inputs / "ckpt" / "knn.ckpt", rt.train_knn_router(table, split, s.knn_k))
        rt.save_cost_predictor(inputs / "ckpt" / "cost.ckpt", cost)
        ratio = ":".join(f"{r:g}" for r in s.ratio)
        for router in PIPELINE_ROUTERS.values():
            _write(inputs / f"{router}.cfg", "\n".join([
                f"synth.n_queries = {synth.n_queries}",
                f"synth.n_models = {synth.n_models}",
                f"synth.embed_dim = {synth.embed_dim}",
                f"synth.tie_fraction = {synth.tie_fraction}",
                f"synth.margin_scale = {synth.margin_scale}",
                f"synth.cost_spread = {synth.cost_spread}",
                f"synth.seed = {seed}",
                f"split.ratio = {ratio}",
                f"split.seed = {seed}",
                f"router = {router}",
                "cost_source = predicted",
                "grid_points = 100",
                f"train.latent_dim = {s.latent}",
                f"train.model_dim = {s.model_dim}",
                f"train.epochs = {s.epochs}",
                f"train.batch_size = {s.batch}",
                "train.lr = 0.003",
            ]) + "\n")
        table_line = f"table = {inputs / 'table'}\n"
        _write(inputs / "sweep.cfg",
               table_line + "router = equirouter\ncost_source = predicted\ngrid_points = 100\n")
        _write(inputs / "diagnose.cfg", table_line + "router = oracle\ngrid_points = 100\n")

    def prepare(self, inputs: Path, work: Path, seed: int) -> dict:
        s = self.shape
        table_dir, ckpt = inputs / "table", inputs / "ckpt"
        perf = checks.read_matrix(table_dir / "perf.csv")
        cost = checks.read_matrix(table_dir / "cost.csv")
        test = checks.check_split(table_dir / "split.json", s.n, s.ratio)
        train = np.asarray(
            json.loads((table_dir / "split.json").read_text())["train"], dtype=np.int64)
        emb = checks.read_embeddings(table_dir / "queries.jsonl")
        rng = np.random.default_rng([seed, 1])
        lo, hi = float(cost[test].min()), float(cost[test].max())
        return {
            "inputs": inputs,
            "work": work,
            "ok": set(),
            "fingerprints": {},
            "table": dataset.load_table(table_dir),
            "cost_predictor": rt.load_router(ckpt / "cost.ckpt"),
            "routers": {
                "route_equi_us": rt.load_router(ckpt / "equirouter.ckpt"),
                "route_knn_us": rt.load_router(ckpt / "knn.ckpt"),
                "route_oracle_us": rt.OracleRouter(),
            },
            "queries": {k: rng.choice(test, PAIRS) for k in ROUTE_KINDS},
            "budgets": {k: rng.uniform(lo, hi, PAIRS) for k in ROUTE_KINDS},
            "cursor": dict.fromkeys(ROUTE_KINDS, 0),
            "perf": perf,
            "cost": cost,
            "test": test,
            "knn_ref": (emb[train], perf[train]),
            "emb": emb,
        }

    # -- timed phase ----------------------------------------------------

    def argv(self, ctx: dict, command: str) -> list[str]:
        inputs = ctx["inputs"]
        if command in PIPELINE_ROUTERS:
            return ["pipeline", "--config", str(inputs / f"{PIPELINE_ROUTERS[command]}.cfg")]
        if command == "sweep_s":
            return ["sweep", "--config", str(inputs / "sweep.cfg"),
                    "--checkpoint", str(inputs / "ckpt" / "equirouter.ckpt")]
        return ["diagnose", "--config", str(inputs / "diagnose.cfg")]

    def run_command(self, ctx: dict, command: str, tracer=None) -> Op:
        """One CLI command, writing to its own output directory, emptied first."""
        out = ctx["work"] / "out" / command
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.begin_op(command)
        seconds, ok = run_cli(self.argv(ctx, command) + ["--out", str(out)])
        if tracer is not None:
            tracer.end_op()
        if ok:
            ctx["ok"].add(command)
            for name in DETERMINISTIC_FILES[command]:
                ctx["fingerprints"].setdefault((command, name), set()).add(
                    (out / name).read_bytes())
        return Op(command, seconds, 1, 0 if ok else 1)

    def run_batch(self, ctx: dict, kind: str, tracer=None) -> Op:
        """One batch of `route()` calls of one router kind, closed loop."""
        table, cp = ctx["table"], ctx["cost_predictor"]
        router = ctx["routers"][kind]
        source = "oracle" if kind == "route_oracle_us" else "predicted"
        b = self.shape.route_batch[ROUTE_KINDS.index(kind)]
        start = ctx["cursor"][kind]
        ctx["cursor"][kind] = (start + b) % PAIRS
        pos = (start + np.arange(b)) % PAIRS
        ns = [int(n) for n in ctx["queries"][kind][pos]]
        budgets = [float(x) for x in ctx["budgets"][kind][pos]]
        decisions = []
        failed = 0
        t0 = time.perf_counter()
        for n, budget in zip(ns, budgets):
            if tracer is not None:
                tracer.begin_op(kind)
            try:
                decisions.append(rt.route(router, table, n, budget, source, cp))
            except Exception:  # noqa: BLE001 - a raising call is a failed operation
                failed += 1
                decisions.append(None)
            if tracer is not None:
                tracer.end_op()
        op = Op(kind, time.perf_counter() - t0, b, failed)
        self.check_batch(ctx, kind, ns, budgets, decisions)
        return op

    def run_round(self, ctx: dict, tracer=None) -> list[Op]:
        ops = []
        for command in COMMANDS:
            ops.append(self.run_command(ctx, command, tracer))
            for _ in range(self.shape.rotations):
                ops += [self.run_batch(ctx, kind, tracer) for kind in ROUTE_KINDS]
        return ops

    def metrics(self, ops: list[Op]) -> dict:
        """Means over the whole run: seconds per CLI command, microseconds
        per `route()` call. The host's speed drifts in spells of seconds to
        minutes; a mean moves smoothly with the share of the run a slow
        spell covers, where a median jumps between the two speeds."""
        def mean(kind, scale):
            batches = [op for op in ops if op.kind == kind]
            return scale * sum(op.seconds for op in batches) / sum(op.calls for op in batches)

        out = {c: (mean(c, 1.0), "s") for c in COMMANDS}
        out.update({k: (mean(k, 1e6), "us") for k in ROUTE_KINDS})
        return out

    # -- checks ---------------------------------------------------------

    def check_batch(self, ctx, kind, ns, budgets, decisions) -> None:
        """Checked as the batch ends, untimed, so no decision is kept past its batch."""
        perf, cost = ctx["perf"], ctx["cost"]
        oracle = kind == "route_oracle_us"
        for i, (n, budget, d) in enumerate(zip(ns, budgets, decisions)):
            if d is None:
                continue
            if oracle:
                checks.check_decision(d, n, budget, perf[n], cost[n])
            else:
                checks.check_decision(d, n, budget)
            if kind == "route_knn_us" and i == 0:
                ref_emb, ref_perf = ctx["knn_ref"]
                checks.check_knn_scores(
                    d, checks.knn_reference(ctx["emb"][n], ref_emb, ref_perf, self.shape.knn_k))

    def check(self, ctx: dict) -> None:
        """The CLI outputs of the last round; `route()` decisions were
        checked batch by batch."""
        s = self.shape
        for (command, name), seen in ctx["fingerprints"].items():
            if len(seen) != 1:
                raise checks.CheckFailed(f"{command}: {name} differs between rounds")
        table_dir = ctx["inputs"] / "table"
        perf, cost, test = ctx["perf"], ctx["cost"], ctx["test"]
        rci = {}
        for command in ("pipeline_equi_s", "pipeline_mse_s", "sweep_s"):
            if command not in ctx["ok"]:
                continue
            out = ctx["work"] / "out" / command
            if command in PIPELINE_ROUTERS:
                for name in ("perf.csv", "cost.csv", "queries.jsonl"):
                    if (out / "table" / name).read_bytes() != (table_dir / name).read_bytes():
                        raise checks.CheckFailed(f"{command}: table/{name} is not the seeded table")
                checks.check_split(out / "split.json", s.n, s.ratio)
                checks.check_train_log(out / "train_log.csv")
                checks.check_train_log(out / "cost_train_log.csv")
            checks.check_nauc(out)
            checks.check_call_counts(out, test.size)
            rci[command] = checks.check_rci(out, perf, cost, test)
        if s.check_direction and {"pipeline_equi_s", "pipeline_mse_s"} <= rci.keys():
            checks.check_rci_direction(rci["pipeline_equi_s"], rci["pipeline_mse_s"])
        if "diagnose_s" in ctx["ok"]:
            out = ctx["work"] / "out" / "diagnose_s"
            checks.check_margins(out, perf, cost, float(cost[test].max()))
            checks.check_noise(out, perf, test)
            checks.check_callrates(out)
            checks.check_oracle_trainset(out)


def _tiny(shape: Shape, n: int, epochs: int) -> Shape:
    return dataclasses.replace(
        shape, n=n, latent=16, model_dim=8, epochs=epochs, batch=64, setup_epochs=20,
        setup_batch=64, route_batch=(4, 2, 8), rotations=1)


# criterion-7 sizes: 5000 queries, K=6, split 3:1:6, latent_dim 32, model_dim
# 16, batch 256, but 60 of its 150 epochs, so a 40-s run holds four or five
# rounds; training is most of the time. Set-up routers train 10 epochs at
# batch 64: after 5 epochs at batch 256 some seeds' EquiRouter collapses and
# `sweep` exits 2 (see FOUND in CHANGES.md).
CRITERION7 = Shape(
    n=5000, k=6, ratio=(3.0, 1.0, 6.0), latent=32, model_dim=16, epochs=60, batch=256,
    setup_epochs=10, setup_batch=64, knn_k=50, route_batch=(128, 12, 768), rotations=8,
    check_direction=True)
# RouterBench's pool size and a large test split, trained briefly (10 epochs
# at batch 64, for the same reason): scoring, selection, the per-query loops
# and table I/O are most of the time
LARGE11 = Shape(
    n=12_000, k=11, ratio=(1.0, 1.0, 10.0), latent=32, model_dim=16, epochs=10, batch=64,
    setup_epochs=10, setup_batch=64, knn_k=50, route_batch=(128, 12, 768), rotations=8,
    check_direction=False)

WORKLOADS = {
    "k6-criterion7": lambda tiny=False: Workload(
        "k6-criterion7", CRITERION7, _tiny(CRITERION7, 1000, 40), tiny),
    "k11-large": lambda tiny=False: Workload(
        "k11-large", LARGE11, _tiny(LARGE11, 4000, 20), tiny),
}
