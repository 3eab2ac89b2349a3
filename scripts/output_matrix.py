#!/usr/bin/env python3
"""Byte-identity matrix: every CLI command for every router kind, into one
directory that another checkout's run can be compared with by `diff -r`.

On one small synthetic config (1000 queries, so the 600-query test split is
scored in two blocks, 256 rows then 344) it runs `synth`, then `train`,
`sweep --checkpoint`, `diagnose` and `pipeline` for each router kind, each
through `python -m equirouter.cli` on the package source beside this script,
with one BLAS thread. `equirouter-pipeline-k11` runs the EquiRouter pipeline
and `oracle-diagnose-k11` the oracle `diagnose` on an 11-model, 600-query
table. `route-decisions` runs ROUTE_DECISIONS, an inline `python -c`
driver, so a base tree runs it too: it loads the matrix's table and every
trained kind's checkpoint and writes `route.csv`, one `route()` decision
per row with the repr of every score and filter cost, for six queries from
the first to the last at budgets NaN, 0, inf and one equal to a filter
cost, under both cost sources. Five more steps must be refused with exit 1
before any write: `refuse-kind` offers the EquiRouter checkpoint as an MLP,
`refuse-split` offers the kNN checkpoint to a run at another split.seed,
`refuse-hyper-type` offers the EquiRouter checkpoint with its hyper.d_q
rewritten as the float 8.0 (by HYPER_TYPE, the `python -c` driver of the
`hyper-type` step), `refuse-empty-test` runs a pipeline whose split.ratio
(1000:1:1) leaves the test split empty, and `refuse-nan-gate` one with
threshold.min_nauc = nan.
Last, `run_ablation.py` and `run_noise_collapse.py` run at 600 queries, the
latter writing its noise curve to OUT/run_noise_collapse.csv, and
`synth-9000` writes a 9000-query table that `oracle-sweep-9000` loads, so
table I/O crosses row-block boundaries (dataset.IO_BLOCK) both ways.
Every table directory holds a `table.bin` sidecar that load_table reads in
place of the text; `oracle-sweep-text` repeats `oracle-sweep` on a copy of
the table without it, `table-text/`, and must write the same bytes.
The script exits 1 if a step exits otherwise than expected (1 for the five
refusals and for training the oracle, 0 for the rest), a refused step
writes its output directory, or the two oracle sweeps differ; it still
writes every step first.

Each step writes its outputs to OUT/<step>/ and its command line, stdout,
stderr and exit code to OUT/<step>.log. Commands run inside OUT with
relative paths, so nothing under OUT names where OUT is. Timing is printed,
never written under OUT.

    python3 scripts/output_matrix.py OUT_A
    python3 scripts/output_matrix.py OUT_B    # e.g. from a parent checkout
    diff -r OUT_A OUT_B

With `--base REV` the script compares against a git revision in one command.
It checks REV out as a git worktree under .perfbench-work/ and runs this
script's matrix on that tree's src/ and scripts/ into OUT/base, so rows new
to this script also run on the base. It then runs the matrix on this tree
into OUT/current and compares the two directories file by file. It prints
every path that differs and every step the base could not run as expected,
and exits 1 on any difference that no `--expect GLOB` matches (fnmatch on the
path relative to OUT/base, for example `--expect '*/table.bin'`), on a glob
that matches no differing path, or if a step of this tree exits otherwise
than expected.

`--expect-file PATH` adds the globs of a file, one per line; blank lines and
lines starting with `#` are skipped. A change that means to alter outputs
declares them in scripts/expected_output_changes.txt, which CI passes with the
pull request's base revision, and the next change empties it again: since an
unused glob fails the run, a declaration cannot outlive its change.

    python3 scripts/output_matrix.py OUT --base HEAD~1
    python3 scripts/output_matrix.py OUT --base main \
        --expect-file scripts/expected_output_changes.txt
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
from equirouter.cli import ROUTER_KINDS  # noqa: E402

SYNTH_KEYS = """\
synth.n_queries = 1000
synth.n_models = 4
synth.embed_dim = 6
synth.tie_fraction = 0.8
synth.seed = 1
"""
TRAIN_KEYS = """\
split.ratio = 3:1:6
split.seed = 42
cost_source = predicted
grid_points = 20
train.epochs = 20
train.batch_size = 32
train.lr = 0.003
train.latent_dim = 16
train.model_dim = 8
train.hidden = 16
knn.k = 5
diagnose.sigmas = 0,0.1,0.4
"""


# `python -c` driver of the route-decisions step, run inside OUT as
# `python -c ROUTE_DECISIONS STEP KIND...`: route() for every router kind
# on the matrix's table, the cost predictor trained beside the EquiRouter
ROUTE_DECISIONS = """\
import math, sys
from pathlib import Path
from equirouter import dataset, router as rt
out, kinds = Path(sys.argv[1]), sys.argv[2:]
table = dataset.load_table("table")
cp = rt.load_router("equirouter-train/cost.ckpt")
N, K = table.n_queries, table.n_models
rows = ["kind,cost_source,query,budget,chosen,clamped,scores,costs"]
for kind in kinds:
    path = f"{kind}-train/{kind}.ckpt"
    router = rt.OracleRouter() if kind == "oracle" else rt.load_router(path)
    for source in ("oracle", "predicted"):
        for n in (0, 1, 255, 256, 511, N - 1):
            cost = rt.route(router, table, n, math.inf, source, cp).predicted_costs[n % K]
            for budget in (math.nan, 0.0, math.inf, float(cost)):
                d = rt.route(router, table, n, budget, source, cp)
                scores = " ".join(map(repr, d.scores.tolist()))
                costs = " ".join(map(repr, d.predicted_costs.tolist()))
                rows.append(f"{kind},{source},{n},{budget!r},{d.chosen},"
                            f"{d.feasible_clamped},{scores},{costs}")
out.mkdir()
(out / "route.csv").write_text("\\n".join(rows) + "\\n")
"""

# `python -c` driver of the hyper-type step, run inside OUT as
# `python -c HYPER_TYPE STEP`: the EquiRouter checkpoint with hyper.d_q
# rewritten as the float 8.0, written to STEP/equirouter.ckpt
HYPER_TYPE = """\
import sys
from pathlib import Path
from equirouter.neuralnet import load_checkpoint, save_checkpoint
header, arrays = load_checkpoint("equirouter-train/equirouter.ckpt")
header["hyper"]["d_q"] = 8.0
out = Path(sys.argv[1])
out.mkdir()
save_checkpoint(out / "equirouter.ckpt", header, arrays)
"""

# steps that must exit 1 and write nothing; every other step must exit 0
REFUSED = ("oracle-train", "refuse-kind", "refuse-split", "refuse-hyper-type",
           "refuse-empty-test", "refuse-nan-gate")


def run(out: Path, env: dict, tree: Path, step: str, *argv: str) -> int:
    """Run argv inside OUT, log it to OUT/<step>.log and return its exit code.
    argv[0] is `equirouter`, run as `python -m equirouter.cli`, `-c`, whose
    argv[1] is the code to run, or a path under the repository root `tree`."""
    prog = {"equirouter": ["-m", "equirouter.cli"], "-c": ["-c"]}.get(
        argv[0], [str(tree / argv[0])])
    proc = subprocess.run([sys.executable, *prog, *argv[1:]], cwd=out, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    shown = " ".join(argv)
    (out / f"{step}.log").write_text(f"$ {shown}\n{proc.stdout}exit {proc.returncode}\n")
    return proc.returncode


def cli(step: str, *args: str) -> tuple[str, list[str]]:
    """A CLI step that writes its outputs to OUT/<step>/."""
    return step, ["equirouter", *args, "--out", step]


def run_matrix(out: Path, tree: Path) -> list[str]:
    """Run every step on the package and scripts of the repository root
    `tree` into OUT, which must be new or empty; returns the unexpected
    results."""
    out.mkdir(parents=True, exist_ok=True)
    # synth, diagnose and pipeline generate the table; train and sweep load it
    (out / "synth.cfg").write_text(SYNTH_KEYS + TRAIN_KEYS)
    (out / "table.cfg").write_text("table = table\n" + TRAIN_KEYS)
    (out / "split7.cfg").write_text(
        SYNTH_KEYS + TRAIN_KEYS.replace("split.seed = 42", "split.seed = 7"))
    (out / "synth9000.cfg").write_text(
        SYNTH_KEYS.replace("n_queries = 1000", "n_queries = 9000") + TRAIN_KEYS)
    (out / "table9000.cfg").write_text("table = synth-9000\n" + TRAIN_KEYS)
    (out / "table-text.cfg").write_text("table = table-text\n" + TRAIN_KEYS)
    small = SYNTH_KEYS.replace("n_queries = 1000", "n_queries = 600")
    (out / "synth-k11.cfg").write_text(
        small.replace("n_models = 4", "n_models = 11") + TRAIN_KEYS)
    (out / "empty-test.cfg").write_text(
        small + TRAIN_KEYS.replace("split.ratio = 3:1:6", "split.ratio = 1000:1:1"))
    (out / "nan-gate.cfg").write_text(small + TRAIN_KEYS + "threshold.min_nauc = nan\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))

    steps = [("synth", ["equirouter", "synth", "--config", "synth.cfg", "--out", "table"])]
    for kind in ROUTER_KINDS:
        flags = ["--router", kind]
        ckpt = [] if kind == "oracle" else ["--checkpoint", f"{kind}-train/{kind}.ckpt"]
        steps += [
            cli(f"{kind}-train", "train", "--config", "table.cfg", *flags),
            cli(f"{kind}-sweep", "sweep", "--config", "table.cfg", *flags, *ckpt),
            cli(f"{kind}-diagnose", "diagnose", "--config", "synth.cfg", *flags),
            cli(f"{kind}-pipeline", "pipeline", "--config", "synth.cfg", *flags),
        ]
    steps += [
        ("route-decisions", ["-c", ROUTE_DECISIONS, "route-decisions", *ROUTER_KINDS]),
        cli("refuse-kind", "sweep", "--config", "table.cfg", "--router", "mlp",
            "--checkpoint", "equirouter-train/equirouter.ckpt"),
        cli("refuse-split", "sweep", "--config", "split7.cfg", "--router", "knn",
            "--checkpoint", "knn-train/knn.ckpt"),
        ("hyper-type", ["-c", HYPER_TYPE, "hyper-type"]),
        cli("refuse-hyper-type", "sweep", "--config", "table.cfg", "--router", "equirouter",
            "--checkpoint", "hyper-type/equirouter.ckpt"),
        cli("equirouter-pipeline-k11", "pipeline", "--config", "synth-k11.cfg",
            "--router", "equirouter"),
        cli("oracle-diagnose-k11", "diagnose", "--config", "synth-k11.cfg",
            "--router", "oracle"),
        cli("refuse-empty-test", "pipeline", "--config", "empty-test.cfg"),
        cli("refuse-nan-gate", "pipeline", "--config", "nan-gate.cfg"),
        ("run_ablation", ["scripts/run_ablation.py", "--queries", "600", "--epochs", "5"]),
        ("run_noise_collapse", ["scripts/run_noise_collapse.py", "--queries", "600",
                                "--out", "run_noise_collapse.csv"]),
        cli("synth-9000", "synth", "--config", "synth9000.cfg"),
        cli("oracle-sweep-9000", "sweep", "--config", "table9000.cfg", "--router", "oracle"),
    ]

    wrong = []
    for step, argv in steps:
        code = run(out, env, tree, step, *argv)
        if code != (1 if step in REFUSED else 0):
            wrong.append(f"{step} exited {code}")
        if step in REFUSED and (out / step).exists():
            wrong.append(f"{step} wrote {step}/")

    # the table's text alone must give the sweep its sidecar gave
    shutil.copytree(out / "table", out / "table-text", ignore=shutil.ignore_patterns("table.bin"))
    step, argv = cli("oracle-sweep-text", "sweep", "--config", "table-text.cfg",
                     "--router", "oracle")
    if (code := run(out, env, tree, step, *argv)) != 0:
        wrong.append(f"{step} exited {code}")
    for name in ("curve.csv", "metrics.json", "rci_detail.csv"):
        text, sidecar = out / step / name, out / "oracle-sweep" / name
        if not (text.is_file() and sidecar.is_file()
                and text.read_bytes() == sidecar.read_bytes()):
            wrong.append(f"{step}/{name} differs from oracle-sweep/{name}")
    return wrong


@contextmanager
def base_worktree(rev: str, repo: Path = ROOT) -> Iterator[Path]:
    """Check REV of the git repository `repo` out as a detached worktree
    under repo/.perfbench-work/, yield its root and remove it afterwards."""
    work = repo / ".perfbench-work"
    work.mkdir(exist_ok=True)
    tree = Path(tempfile.mkdtemp(prefix="base-", dir=work))
    git = ["git", "-C", str(repo)]
    if subprocess.run([*git, "worktree", "add", "--quiet", "--detach", str(tree), rev]).returncode:
        tree.rmdir()
        sys.exit(f"cannot check out {rev!r} as a worktree of {repo}")
    try:
        yield tree
    finally:
        subprocess.run([*git, "worktree", "remove", "--force", str(tree)], check=True)


def differing_paths(a: Path, b: Path) -> list[str]:
    """Paths relative to A and B of the files that are in only one of them
    or whose bytes differ, sorted."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    fa, fb = files(a), files(b)
    return sorted(p for p in fa | fb
                  if p not in fa or p not in fb or (a / p).read_bytes() != (b / p).read_bytes())


def compare_with_base(out: Path, rev: str, expect: list[str], repo: Path = ROOT) -> list[str]:
    """Run the matrix on REV's worktree into OUT/base and on `repo` into
    OUT/current; print what differs and return the unexpected results."""
    with base_worktree(rev, repo) as tree:
        for line in run_matrix(out / "base", tree):
            print(f"base {rev}: {line}")
    wrong = run_matrix(out / "current", repo)
    return wrong + compare_trees(out / "base", out / "current", expect)


def compare_trees(base: Path, current: Path, expect: list[str]) -> list[str]:
    """Print every path that differs between the two output trees; return a
    line for each difference that no glob in `expect` matches and for each
    glob that matches no difference."""
    wrong, used = [], set()
    for path in differing_paths(base, current):
        matched = {glob for glob in expect if fnmatch(path, glob)}
        used |= matched
        if matched:
            print(f"differs (expected): {path}")
        else:
            print(f"differs: {path}")
            wrong.append(f"{path} differs from the base")
    return wrong + [f"--expect {glob!r} matches no differing path"
                    for glob in expect if glob not in used]


def read_expect_file(path: Path) -> list[str]:
    """The globs of an --expect-file: one per line, without blank lines and
    `#` comments."""
    lines = (line.strip() for line in path.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", type=Path, help="output directory; must be new or empty")
    ap.add_argument("--base", metavar="REV",
                    help="git revision to compare against, file by file")
    ap.add_argument("--expect", metavar="GLOB", action="append", default=[],
                    help="a path that may differ from the base (with --base)")
    ap.add_argument("--expect-file", metavar="PATH", type=Path,
                    help="a file of --expect globs, one per line (with --base)")
    args = ap.parse_args(argv)
    out = args.out
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    if (args.expect or args.expect_file) and args.base is None:
        sys.exit("--expect and --expect-file need --base")
    expect = args.expect + (read_expect_file(args.expect_file) if args.expect_file else [])
    start = time.perf_counter()
    if args.base is None:
        wrong = run_matrix(out, ROOT)
    else:
        wrong = compare_with_base(out, args.base, expect)
    print(f"wrote {out} in {time.perf_counter() - start:.1f} s")
    if wrong:
        sys.exit("unexpected results: " + "; ".join(wrong))


if __name__ == "__main__":
    main()
