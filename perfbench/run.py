"""equirouter benchmark: one command, two seeded workloads.

    python3 perfbench/run.py --workload k6-criterion7 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Each run makes its inputs from --seed in a
separate set-up process, loads them, warms up on tiny inputs, then runs
whole rounds of operations in one process, one caller, closed loop, for
about --seconds, making the set-up again in a child process after each round
(`setup_s` is the median of all the set-ups). It checks
the outputs apart from the program and prints, as its last line, one JSON
object: with --trace 0 every end-to-end metric, with --trace 1 every per-layer
metric of a traced run (the traced end-to-end figures are printed on the
line before it). See perfbench/README.md.
"""

import os

# single-threaded float64 numerics: pin BLAS/OpenMP before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_MIN_REPS = 3  # set-ups per run: one before timing, one after each round, at least this many
SETUP_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


class Terminated(BaseException):
    """Raised on SIGTERM; no `except Exception` in the program swallows it."""


def import_program() -> None:
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "equirouter" / "__init__.py").is_file():
        raise BenchError(f"no equirouter sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import equirouter

    if Path(equirouter.__file__).resolve().parent != (SRC / "equirouter").resolve():
        raise BenchError(f"imported equirouter from {equirouter.__file__}, not {SRC}")


def calibrate() -> float:
    """Host speed: best of three runs of a fixed pure-Python loop, seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i & 7
        best = min(best, time.perf_counter() - t0)
    return best


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_loop_s": calibrate(),
    }


def run_setup(workload: str, seed: int, inputs: Path, trace: bool) -> tuple[float, dict | None]:
    """Run one set-up in a child process, so set-up memory stays out of
    the timed process's peak RSS. Returns the set-up time and, when traced,
    the child's trace payload."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
            "--workload", workload, "--seed", str(seed), "--inputs", str(inputs),
            "--trace", str(int(trace))]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up took over {SETUP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    payload = None
    if trace:
        trace_path = inputs.parent / "setup_trace.json"
        payload = json.loads(trace_path.read_text())
        trace_path.unlink()
    return result["setup_s"], payload


def setup_child(args) -> int:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    inputs = Path(args.inputs)
    shutil.rmtree(inputs, ignore_errors=True)
    t0 = time.perf_counter()
    workload.setup(inputs, args.seed)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(inputs.parent / "setup_trace.json")
    print(json.dumps({"setup_s": seconds}))
    return 0


def warm_up(workload_cls, work: Path, seed: int) -> None:
    """Imports, first calls and lazy set-up, on tiny inputs, untimed."""
    warm = workload_cls(tiny=True)
    warm.setup(work / "inputs", seed)
    ctx = warm.prepare(work / "inputs", work, seed)
    warm.run_round(ctx)
    shutil.rmtree(work, ignore_errors=True)


def bench(args) -> int:
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}")
    if args.seconds < 0 or args.seed < 0:
        raise BenchError("--seconds and --seed must be >= 0")
    workload_cls = workloads.WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print("# env " + json.dumps(environment()), flush=True)

    setup_s, setup_trace = run_setup(args.workload, args.seed, work / "inputs", args.trace)
    setup_times = [setup_s]
    warm_up(workload_cls, work / "warmup", args.seed)
    workload = workload_cls()
    ctx = workload.prepare(work / "inputs", work, args.seed)

    tracer = None
    if args.trace:
        span_cost = tracing.per_span_cost()
        tracer = tracing.Tracer()
        tracer.merge(setup_trace)
        tracer.install()

    ops = []
    correct = True
    try:
        measured = 0.0
        rounds = 0
        while True:
            # whole rounds, stopping where the measured time comes nearest
            # --seconds; a set-up after each round, untimed by the round, so
            # the set-ups sample the host's speed across the whole run
            t0 = time.perf_counter()
            ops += workload.run_round(ctx, tracer)
            measured += time.perf_counter() - t0
            rounds += 1
            setup_times.append(run_setup(args.workload, args.seed, work / "setup-rep", False)[0])
            if measured + measured / rounds / 2 >= args.seconds:
                break
        while len(setup_times) < SETUP_MIN_REPS:
            setup_times.append(run_setup(args.workload, args.seed, work / "setup-rep", False)[0])
        peak = tracing.maxrss_mb()
        workload.check(ctx)
    except checks.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
        peak = tracing.maxrss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()

    good = [op for op in ops if not op.failed]
    missing = {op.kind for op in ops} - {op.kind for op in good}
    if missing:
        raise BenchError(f"every operation of {sorted(missing)} failed")
    samples: dict[str, list] = {}
    for op in good:
        samples.setdefault(op.kind, []).append(op)
    print("# per-call seconds: min, median, mean, max, batches " + json.dumps({
        k: [min(o.seconds / o.calls for o in v), statistics.median(o.seconds / o.calls for o in v),
            sum(o.seconds for o in v) / sum(o.calls for o in v),
            max(o.seconds / o.calls for o in v), len(v)]
        for k, v in samples.items()}))
    e2e = workload.metrics(good)
    e2e["setup_s"] = (statistics.median(setup_times), "s")
    e2e["peak_rss_mb"] = (peak, "MB")
    if tracer is not None:
        print("# traced end-to-end " + json.dumps({k: v for k, (v, _) in e2e.items()}))
        tracer.dump(work / "trace.json")
        metrics = tracer.layer_metrics(span_cost)
    else:
        metrics = e2e
    print(json.dumps({
        "correct": correct,
        "attempted": sum(op.calls for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run every workload and check at tiny size, and show each check rejects a wrong value")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--inputs", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.self_test and not args.workload:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    def terminate(signum, frame):
        raise Terminated

    # on SIGTERM unwind, so that subprocess.run kills and reaps the set-up child
    signal.signal(signal.SIGTERM, terminate)
    args = parse_args(argv)
    try:
        import_program()
        if args.setup_child:
            return setup_child(args)
        if args.self_test:
            import selftest

            return selftest.run(WORK / "self-test", ROOT / "BENCHMARK.json")
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM


if __name__ == "__main__":
    sys.exit(main())
