"""Self-test: every workload and every check at tiny size, in seconds.

For each workload it runs the set-up, one traced round and the checks, which
must pass. It then feeds each independent check a deliberately wrong value
(a perturbed nAUC, a wrong `chosen`, ...) and requires that check to reject
it with its own message, so that no check passes vacuously.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import shutil
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads


class SelfTestError(AssertionError):
    pass


def _edit_json(key, delta):
    def edit(text):
        payload = json.loads(text)
        payload[key] = payload[key] + delta
        return json.dumps(payload)
    return edit


def _edit_csv(row, col, fn):
    def edit(text):
        rows = list(csv.reader(text.splitlines()))
        rows[row][col] = fn(rows[row][col])
        return "\n".join(",".join(r) for r in rows) + "\n"
    return edit


def _bump(x: str) -> str:
    return repr(float(x) + 1e-6)


def _expect_rejection(label: str, expect: str, check) -> None:
    try:
        check()
    except checks.CheckFailed as exc:
        if expect not in str(exc):
            raise SelfTestError(f"{label}: rejected for another reason: {exc}") from exc
        print(f"ok  {label}: rejected ({exc})")
        return
    raise SelfTestError(f"{label}: the wrong value was accepted")


def _expect_file_rejection(label, path: Path, edit, expect, check) -> None:
    original = path.read_bytes()
    try:
        path.write_text(edit(original.decode()))
        _expect_rejection(label, expect, check)
    finally:
        path.write_bytes(original)


def _run(workload, work: Path, seed: int) -> dict:
    inputs = work / "inputs"
    workload.setup(inputs, seed)
    ctx = workload.prepare(inputs, work, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = workload.run_round(ctx, tracer)
    finally:
        tracer.uninstall()
    if any(op.failed for op in ops):
        raise SelfTestError(f"{workload.name}: {sum(op.failed for op in ops)} operations failed")
    workload.check(ctx)
    layer = tracer.layer_metrics(0.0)
    e2e = workload.metrics(ops)
    e2e.update(setup_s=(0.0, "s"), peak_rss_mb=(0.0, "MB"))  # added by run.py
    print(f"ok  {workload.name}: {sum(op.calls for op in ops)} operations, checks pass, "
          f"{len(layer)} per-layer metrics")
    ctx["emitted"] = (e2e, layer)
    return ctx


def _check_declared(spec_path: Path, name: str, e2e: dict, layer: dict) -> None:
    """The metrics a workload prints are exactly the ones BENCHMARK.json declares."""
    spec = json.loads(spec_path.read_text())
    for section, emitted in (("end_to_end", e2e), ("per_layer", layer)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {metric: unit for metric, (_, unit) in emitted.items()}
        if declared != printed:
            raise SelfTestError(f"{name}: {spec_path.name} {section} differs from the printed "
                                f"metrics: {sorted(set(declared.items()) ^ set(printed.items()))}")
    print(f"ok  {name}: prints exactly the metrics and units {spec_path.name} declares")


def _perturb_pipeline(wl, ctx) -> None:
    out = ctx["work"] / "out" / "pipeline_equi_s"
    check = lambda: wl.check(ctx)  # noqa: E731
    _expect_file_rejection("nauc", out / "metrics.json", _edit_json("nauc", 1e-6), "nauc", check)
    _expect_file_rejection("rci", out / "metrics.json", _edit_json("rci", 1e-6), "rci:", check)
    _expect_file_rejection("rci rows", out / "rci_detail.csv",
                           lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "test split", check)
    _expect_file_rejection("call counts", out / "curve.csv",
                           _edit_csv(1, 3, lambda x: str(int(x) + 1)), "sum to", check)
    _expect_file_rejection("train loss falls", out / "train_log.csv",
                           _edit_csv(-1, 1, lambda x: "9.0"), "not below first", check)
    _expect_file_rejection("finite losses", out / "cost_train_log.csv",
                           _edit_csv(2, 2, lambda x: "nan"), "non-finite", check)
    _expect_file_rejection("split", out / "split.json",
                           lambda t: t.replace('"test": [', '"test": [0, ', 1), "partition", check)
    _expect_file_rejection("seeded table", out / "table" / "perf.csv",
                           _edit_csv(0, 0, _bump), "seeded table", check)
    _expect_rejection("rci direction", "not below", lambda: checks.check_rci_direction(0.5, 0.49))
    ctx["fingerprints"][("pipeline_equi_s", "metrics.json")].add(b"{}")
    try:
        _expect_rejection("reruns identical", "differs between rounds", check)
    finally:
        ctx["fingerprints"][("pipeline_equi_s", "metrics.json")].discard(b"{}")


def _perturb_evaluation(wl, ctx) -> None:
    sweep = ctx["work"] / "out" / "sweep_s"
    diag = ctx["work"] / "out" / "diagnose_s"
    check = lambda: wl.check(ctx)  # noqa: E731
    _expect_file_rejection("nauc", sweep / "metrics.json", _edit_json("nauc", -1e-6), "nauc", check)
    _expect_file_rejection("rci", sweep / "metrics.json", _edit_json("rci", 1e-6), "rci:", check)
    _expect_file_rejection("margin cdf", diag / "margins.csv",
                           _edit_csv(2, 1, _bump), "margin cdf", check)
    _expect_file_rejection("noise at sigma 0", diag / "noise.csv",
                           _edit_csv(1, 1, _bump), "sigma 0", check)
    _expect_file_rejection("call shares", diag / "callrates.csv",
                           _edit_csv(5, 1, _bump), "callrates", check)
    _expect_file_rejection("oracle training-set rci", diag / "trainset_metrics.json",
                           _edit_json("rci", 1e-9), "oracle rci", check)


def _perturb_route(wl, ctx) -> None:
    from equirouter import router as rt

    table, cp = ctx["table"], ctx["cost_predictor"]
    perf, cost = ctx["perf"], ctx["cost"]
    n = int(ctx["queries"]["route_equi_us"][0])
    budget = float(cost[n].max())
    d = rt.route(ctx["routers"]["route_equi_us"], table, n, budget, "predicted", cp)
    checks.check_decision(d, n, budget)
    wrong = (d.chosen + 1) % len(d.scores)
    _expect_rejection("chosen", "rule gives",
                      lambda: checks.check_decision(dataclasses.replace(d, chosen=wrong), n, budget))
    _expect_rejection("clamped flag", "rule gives", lambda: checks.check_decision(
        dataclasses.replace(d, feasible_clamped=True), n, budget))
    _expect_rejection("query index", "decision for",
                      lambda: checks.check_decision(d, n + 1, budget))

    o = rt.route(rt.OracleRouter(), table, n, budget)
    checks.check_decision(o, n, budget, perf[n], cost[n])
    scores = o.scores.copy()
    scores[0] += 1e-9
    _expect_rejection("oracle scores", "differ from the table row", lambda: checks.check_decision(
        dataclasses.replace(o, scores=scores), n, budget, perf[n], cost[n]))

    k = ctx["routers"]["route_knn_us"]
    kd = rt.route(k, table, n, budget, "predicted", cp)
    ref_emb, ref_perf = ctx["knn_ref"]
    want = checks.knn_reference(ctx["emb"][n], ref_emb, ref_perf, wl.shape.knn_k)
    checks.check_knn_scores(kd, want)
    _expect_rejection("knn scores", "kNN scores",
                      lambda: checks.check_knn_scores(kd, want + np.eye(len(want))[0] * 1e-6))


def run(root: Path, spec_path: Path, seed: int = 3) -> int:
    shutil.rmtree(root, ignore_errors=True)
    try:
        for name, make in workloads.WORKLOADS.items():
            wl = make(tiny=True)
            ctx = _run(wl, root / name, seed)
            _check_declared(spec_path, name, *ctx["emitted"])
            for perturb in (_perturb_pipeline, _perturb_evaluation, _perturb_route):
                perturb(wl, ctx)
        with contextlib.redirect_stderr(io.StringIO()):
            _, ok = workloads.run_cli(["sweep", "--config", str(root / "missing.cfg")])
        if ok:
            raise SelfTestError("a CLI command with a missing config counted as a success")
        print("ok  failed command: a non-zero exit counts as a failed operation")
    except (SelfTestError, checks.CheckFailed) as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("self-test passed")
    return 0
