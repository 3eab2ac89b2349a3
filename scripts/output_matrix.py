#!/usr/bin/env python3
"""Byte-identity matrix: every CLI command for every router kind, into one
directory that another checkout's run can be compared with by `diff -r`.

On one small synthetic config (1000 queries, so the 600-query test split is
scored in two blocks) it runs `synth`, then `train`, `sweep --checkpoint`,
`diagnose` and `pipeline` for each router kind, each through `python -m
equirouter.cli` on the package source beside this script, with one BLAS
thread. Each command writes its outputs to OUT/<step>/ and its command line,
stdout, stderr and exit code to OUT/<step>.log. Commands run inside OUT with
relative paths, so nothing under OUT names where OUT is. Timing is printed,
never written under OUT.

    python3 scripts/output_matrix.py OUT_A
    python3 scripts/output_matrix.py OUT_B    # e.g. from a parent checkout
    diff -r OUT_A OUT_B
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
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


def run(out: Path, env: dict, step: str, *args: str) -> None:
    cmd = [sys.executable, "-m", "equirouter.cli", *args]
    proc = subprocess.run(cmd, cwd=out, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    shown = " ".join(["equirouter", *args])
    (out / f"{step}.log").write_text(f"$ {shown}\n{proc.stdout}exit {proc.returncode}\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", type=Path, help="output directory; must be new or empty")
    out = ap.parse_args().out
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    # synth, diagnose and pipeline generate the table; train and sweep load it
    (out / "synth.cfg").write_text(SYNTH_KEYS + TRAIN_KEYS)
    (out / "table.cfg").write_text("table = table\n" + TRAIN_KEYS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))

    start = time.perf_counter()
    run(out, env, "synth", "synth", "--config", "synth.cfg", "--out", "table")
    for kind in ROUTER_KINDS:
        flags = ["--router", kind]
        run(out, env, f"{kind}-train", "train", "--config", "table.cfg", *flags,
            "--out", f"{kind}-train")
        ckpt = [] if kind == "oracle" else ["--checkpoint", f"{kind}-train/{kind}.ckpt"]
        run(out, env, f"{kind}-sweep", "sweep", "--config", "table.cfg", *flags, *ckpt,
            "--out", f"{kind}-sweep")
        for command in ("diagnose", "pipeline"):
            run(out, env, f"{kind}-{command}", command, "--config", "synth.cfg", *flags,
                "--out", f"{kind}-{command}")
    print(f"wrote {out} in {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
