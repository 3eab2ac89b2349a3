import contextlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equirouter.evaluation as evaluation_module
import equirouter.router as router_module
import equirouter.cli as cli_module
from equirouter.cli import (
    CONFIG_KEYS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_THRESHOLD,
    ROUTER_KINDS,
    SYNTH_KEYS,
    THRESHOLD_KEYS,
    build_config,
    build_parser,
    load_config,
    main,
    parse_config_text,
)
from equirouter.dataset import (
    SplitIndices,
    SynthConfig,
    generate_synthetic,
    load_split,
    load_table,
    make_split,
    save_split,
    save_table,
)
from equirouter.neuralnet import load_checkpoint, save_checkpoint
from equirouter.router import EquiHyper, MlpHyper, init_equirouter, save_router, train_knn_router

from conftest import constant_policy_router, make_table


SYNTH_CONFIG = """
# small deterministic experiment
synth.n_queries = 300
synth.n_models = 4
synth.embed_dim = 10
synth.tie_fraction = 0.9
synth.margin_scale = 0.25
synth.cost_spread = 10
synth.seed = 3
split.ratio = 3:1:6
split.seed = 42
router = equirouter
cost_source = oracle
grid_points = 25
train.latent_dim = 16
train.model_dim = 8
train.hidden = 16
train.epochs = 150
train.batch_size = 64
train.lr = 0.003
"""


def write_config(tmp_path, text, **extra):
    lines = [text]
    for key, value in extra.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_bytes_map(root, names):
    return {name: (root / name).read_bytes() for name in names}


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_ignores_comments_and_blanks():
    values = parse_config_text("# hi\n\nrouter = knn\n knn.k =  3 \n")
    assert values == {"router": "knn", "knn.k": "3"}


def test_parse_config_rejects_garbage_line():
    with pytest.raises(ValueError):
        parse_config_text("router knn")


def test_build_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        build_config({"routerr": "knn"})


def test_config_requires_table_or_synth():
    cfg = build_config({"router": "oracle"})
    with pytest.raises(ValueError, match="table path or synth"):
        cfg.validate()


def test_unknown_router_rejected(tmp_path):
    # argparse rejects a bad flag choice with a usage failure
    with pytest.raises(SystemExit):
        main(["sweep", "--config", write_config(tmp_path, SYNTH_CONFIG), "--router", "oracle2"])
    # a malformed config value goes through our validator instead
    cfg_path = write_config(tmp_path, SYNTH_CONFIG.replace("router = equirouter", "router = bogus"))
    assert main(["sweep", "--config", cfg_path]) == EXIT_CONFIG


def test_validation_happens_before_any_write(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, SYNTH_CONFIG, **{"grid_points": 1, "out": out})
    assert main(["pipeline", "--config", cfg_path]) == EXIT_CONFIG
    assert not out.exists()


def test_config_value_error_names_its_key(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, SYNTH_CONFIG, **{"train.epochs": "ten", "out": out})
    assert main(["pipeline", "--config", cfg_path]) == EXIT_CONFIG
    assert "error: train.epochs: invalid literal" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("knn.k", "0"),
        ("train.latent_dim", "0"),
        ("train.model_dim", "-1"),
        ("train.hidden", "0"),
        ("train.lr", "0"),
        ("train.lr", "nan"),
        ("train.lr", "inf"),
        ("train.weight_decay", "-1e-4"),
        ("train.weight_decay", "inf"),
        ("diagnose.sigmas", "0,-0.1"),
        ("diagnose.sigmas", "0,nan"),
        ("diagnose.sigmas", ","),
        ("diagnose.margin_thresholds", "0,nan,0.5"),
        ("diagnose.margin_thresholds", "-1,0"),
        ("split.ratio", "nan:1:1"),
        ("split.ratio", "inf:1:1"),
        ("synth.cost_spread", "inf"),
        ("synth.margin_scale", "inf"),
        ("threshold.min_nauc", "nan"),
        ("threshold.max_rci", "inf"),
    ],
)
def test_out_of_range_training_values_rejected_before_any_write(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, SYNTH_CONFIG, **{key: value, "out": out})
    assert main(["pipeline", "--config", cfg_path]) == EXIT_CONFIG
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, error",
    [
        ("split.ratio", "1e308:1:1", "overflows when splitting 300 items"),
        ("synth.n_queries", "2", "cannot split 2 items into 3 parts"),
    ],
)
def test_unsplittable_table_is_rejected_before_any_write(tmp_path, capsys, key, value, error):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, SYNTH_CONFIG, **{key: value, "out": out})
    assert main(["pipeline", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: split.ratio: ") and error in err, err
    assert not out.exists()


TINY_CONFIG = {
    "synth.n_queries": "90", "synth.n_models": "3", "synth.embed_dim": "4", "synth.seed": "1",
    "split.ratio": "1:1:1", "cost_source": "oracle", "grid_points": "5",
    "train.latent_dim": "4", "train.model_dim": "3", "train.hidden": "4",
    "train.epochs": "2", "train.batch_size": "16", "knn.k": "5",
}
# every key whose value is a number or a list of numbers
MUTABLE_KEYS = sorted(
    {*CONFIG_KEYS, *SYNTH_KEYS, *THRESHOLD_KEYS} - {"table", "out", "router", "cost_source"}
)
# the causes a numerical failure (exit 2) names
NUMERICAL_MESSAGES = ("training diverged", "degenerate cost range", "no ranking supervision")


@settings(max_examples=400)
@given(
    command=st.sampled_from(["synth", "train", "diagnose", "pipeline"]),
    router=st.sampled_from(ROUTER_KINDS),
    key=st.sampled_from(MUTABLE_KEYS),
    value=st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e308", ""]),
)
def test_one_config_key_mutation_exits_cleanly(tmp_path_factory, command, router, key, value):
    # a bad value exits 1 before any write, or 2 naming a numerical cause,
    # with no numpy warning ahead of the CLI's line (warnings raise here);
    # split.ratio takes the value as its first part (1e308 rounds the
    # others to zero)
    if key == "split.ratio":
        value = f"{value}:1:1"
    root = tmp_path_factory.mktemp("mutation")
    out = root / "out"
    config = {**TINY_CONFIG, "router": router, "out": str(out), key: value}
    path = root / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", str(path)])
    first = (err.getvalue().splitlines() or [""])[0]
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME, EXIT_THRESHOLD)
    if code == EXIT_CONFIG:
        assert first.startswith("error:") and not out.exists(), first
    if code == EXIT_RUNTIME:
        assert first.startswith("runtime error: ") and any(
            first.removeprefix("runtime error: ").startswith(m) for m in NUMERICAL_MESSAGES
        ), first


def test_flags_override_their_config_keys(tmp_path):
    cfg_path = write_config(tmp_path, SYNTH_CONFIG, out=tmp_path / "cfg-out")
    flags = ["--router", "knn", "--cost-source", "oracle", "--grid-points", "7",
             "--seed", "5", "--out", "flag-out"]
    cfg = load_config(build_parser().parse_args(["sweep", "--config", cfg_path, *flags]))
    assert (cfg.router, cfg.cost_source, cfg.grid_points, cfg.train["seed"], cfg.out) == (
        "knn", "oracle", 7, 5, "flag-out"
    )
    # the oracle reads true costs whatever cost_source says
    args = ["sweep", "--config", cfg_path, "--router", "oracle", "--cost-source", "predicted"]
    assert load_config(build_parser().parse_args(args)).cost_source == "oracle"


def test_module_docstring_lists_exactly_the_config_keys():
    section = cli_module.__doc__.split("Config keys")[1].split("Exit codes")[0]
    documented = re.findall(r"^    (\S+)", section, re.MULTILINE)
    assert sorted(documented) == sorted({*CONFIG_KEYS, *SYNTH_KEYS, *THRESHOLD_KEYS})
    # a documented train.* default is that of every hyperparameter field it sets
    shown = dict(re.findall(r"^    (train\.\S+) +\(([^)]+)\)", section, re.MULTILINE))
    assert sorted(shown) == sorted(key for key in CONFIG_KEYS if key.startswith("train."))
    for key, text in shown.items():
        name, parse, _ = CONFIG_KEYS[key]
        defaults = [f.default for cls in (EquiHyper, MlpHyper) for f in fields(cls)
                    if f.name == name]
        assert defaults and all(parse(text) == d for d in defaults), (key, text, defaults)


# ---------------------------------------------------------------------------
# synth


def test_cmd_synth_round_trip_and_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path, SYNTH_CONFIG)
    assert main(["synth", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
    assert main(["synth", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
    table = load_table(out_a)
    assert table.n_queries == 300 and table.n_models == 4
    names = ["models.json", "queries.jsonl", "perf.csv", "cost.csv", "split.json", "summary.json"]
    assert read_bytes_map(out_a, names) == read_bytes_map(out_b, names)
    summary = json.loads((out_a / "summary.json").read_text())
    assert abs(summary["tie_rate"] - 0.9) <= 0.05


def test_cmd_synth_reports_tie_rate_for_large_table(tmp_path):
    cfg = write_config(
        tmp_path, SYNTH_CONFIG,
        **{"synth.n_queries": 5000, "synth.tie_fraction": 0.95, "out": tmp_path / "big"},
    )
    assert main(["synth", "--config", cfg]) == EXIT_OK
    summary = json.loads((tmp_path / "big" / "summary.json").read_text())
    assert abs(summary["tie_rate"] - 0.95) <= 0.02


# ---------------------------------------------------------------------------
# train


def test_cmd_train_writes_log_and_checkpoint(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, SYNTH_CONFIG, out=out)
    assert main(["train", "--config", cfg]) == EXIT_OK
    assert (out / "equirouter.ckpt").is_file()
    rows = (out / "train_log.csv").read_text().splitlines()
    assert rows[0] == "epoch,train_loss,val_loss"
    first, last = rows[1].split(","), rows[-1].split(",")
    assert float(last[2]) < float(first[2])  # validation loss improved


def test_cmd_train_mse_tag(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, SYNTH_CONFIG, out=out, router="mse")
    assert main(["train", "--config", cfg]) == EXIT_OK
    from equirouter.router import load_router

    assert load_router(out / "mse.ckpt").tag == "mse"


def test_cmd_train_deterministic_checkpoints(tmp_path):
    cfg = write_config(tmp_path, SYNTH_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--out", str(a)]) == EXIT_OK
    assert main(["train", "--config", cfg, "--out", str(b)]) == EXIT_OK
    assert (a / "equirouter.ckpt").read_bytes() == (b / "equirouter.ckpt").read_bytes()


def test_cmd_train_oracle_rejected(tmp_path):
    cfg = write_config(tmp_path, SYNTH_CONFIG, router="oracle")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == EXIT_CONFIG


DIVERGING_CONFIG = """
synth.n_queries = 600
synth.n_models = 4
synth.embed_dim = 8
synth.tie_fraction = 0.5
synth.seed = 1
train.lr = 1e6
train.epochs = 8
train.batch_size = 64
train.latent_dim = 16
"""


@pytest.mark.parametrize(
    "router, reason",
    [
        ("mse", r"parameter \d+ \(canonical order\) is not finite"),
        ("equirouter", r"validation loss is nan"),
    ],
    ids=["mse", "equirouter"],
)
def test_cmd_train_nonfinite_training_exits_2(tmp_path, capsys, router, reason):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, DIVERGING_CONFIG, router=router, out=out)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", cfg]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert re.search(r"training diverged at epoch \d+: " + reason, err), err
    assert not (out / f"{router}.ckpt").exists()
    assert not (out / "train_log.csv").exists()


def test_cmd_train_finite_blow_up_exits_2(tmp_path, capsys):
    # at lr 1e6 the MLP's batch losses jump from about 1 to 1e23-1e27 and
    # stay finite, so only the relative check catches the divergence
    out = tmp_path / "run"
    cfg = write_config(tmp_path, DIVERGING_CONFIG, router="mlp", out=out)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", cfg]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    pattern = r"training diverged at epoch 0: batch loss \S+ is over 1e\+06 times the first"
    assert re.search(pattern, err), err
    assert not (out / "mlp.ckpt").exists()
    assert not (out / "train_log.csv").exists()


def _save_split_of(n):
    return lambda path: save_split(make_split(n, (3, 1, 6), 42), path)


def _save_overlapping_split(path):
    # a training query copied into the test part
    _save_split_of(300)(path)
    payload = json.loads(path.read_text())
    payload["test"].append(payload["train"][0])
    path.write_text(json.dumps(payload))


def _edit_split(edit):
    """A writer of a 300-query split.json that `edit` changes first."""
    def write(path):
        _save_split_of(300)(path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return write


def _save_models_without_id(path):
    _save_split_of(300)(path)
    models = json.loads((path.parent / "models.json").read_text())
    del models[1]["id"]
    (path.parent / "models.json").write_text(json.dumps(models))


@pytest.mark.parametrize(
    "write_split, table_n, error",
    [
        pytest.param(
            _save_split_of(100), 300, "partitions 100 queries but the table has 300",
            id="100-300",
        ),
        pytest.param(
            _save_split_of(300), 100, "partitions 300 queries but the table has 100",
            id="300-100",
        ),
        pytest.param(
            _save_overlapping_split, 300,
            "split.json: split parts must partition 0..N-1 exactly once",
            id="not-a-partition",
        ),
        pytest.param(
            lambda path: path.write_text("{bad"), 300,
            "split.json: Expecting property name", id="bad-json",
        ),
        pytest.param(
            _edit_split(lambda payload: payload.pop("valid")), 300,
            'split.json: no "valid" field', id="no-valid",
        ),
        pytest.param(
            _edit_split(lambda payload: payload["train"].__setitem__(0, "x")), 300,
            """split.json: "train" holds a non-integer index 'x'""", id="non-integer-index",
        ),
        pytest.param(
            _save_models_without_id, 300,
            'error: invalid table: models.json entry 1 has no "id"', id="model-without-id",
        ),
    ],
)
def test_split_that_does_not_cover_the_table_is_rejected(
    tmp_path, capsys, write_split, table_n, error
):
    table = generate_synthetic(
        SynthConfig(n_queries=table_n, n_models=3, embed_dim=4, noise_seed=0)
    )
    tdir = tmp_path / "table"
    save_table(table, tdir)
    write_split(tdir / "split.json")
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "router = oracle\ngrid_points = 10\n", table=tdir, out=out)
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert error in err, err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "models_text, error",
    [
        pytest.param('[{"id": 0, "name": "a", "unit_price": 1.0}, '
                     '{"id": 1.5, "name": "b", "unit_price": 2.0}]',
                     'error: invalid table: models.json entry 1: "id" is not an integer: 1.5',
                     id="fractional-id"),
        pytest.param('[{"id": 0, "name": "a", "unit_price": 1.0}, '
                     '{"id": 1, "name": "b", "unit_price": Infinity}]',
                     "error: invalid table: non-finite unit_price for model 1",
                     id="infinite-price"),
        pytest.param("[{bad", "error: invalid table: models.json: Expecting property name",
                     id="bad-json"),
    ],
)
def test_malformed_models_json_exits_1_before_any_write(tmp_path, capsys, models_text, error):
    table = generate_synthetic(SynthConfig(n_queries=60, n_models=2, embed_dim=4, noise_seed=0))
    tdir = tmp_path / "table"
    save_table(table, tdir)
    (tdir / "models.json").write_text(models_text)
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "router = oracle\ngrid_points = 10\n", table=tdir, out=out)
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(error), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "diagnose", "pipeline"])
@pytest.mark.parametrize("router", ["oracle", "equirouter"])
def test_empty_test_split_is_rejected_before_any_write(tmp_path, capsys, command, router):
    # 60 queries at 1000:1:1 all go to training
    out = tmp_path / "run"
    cfg = write_config(tmp_path, SYNTH_CONFIG, **{
        "synth.n_queries": 60, "split.ratio": "1000:1:1", "router": router, "out": out})
    checkpoint = ["--checkpoint", str(tmp_path / "x.ckpt")] if command == "sweep" else []
    assert main([command, "--config", cfg, *checkpoint]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: the test split of the table's 60 queries is empty "
                          "(split.ratio 1000:1:1)"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, router, code",
    [
        ("train", "knn", EXIT_CONFIG),
        ("train", "mse", EXIT_CONFIG),
        ("diagnose", "mlp", EXIT_CONFIG),
        ("pipeline", "equirouter", EXIT_CONFIG),
        ("pipeline", "oracle", EXIT_OK),  # the oracle trains nothing
        ("diagnose", "oracle", EXIT_OK),
    ],
)
def test_empty_training_split_is_rejected_where_something_trains(
    tmp_path, capsys, command, router, code
):
    table = generate_synthetic(SynthConfig(n_queries=60, n_models=3, embed_dim=4, noise_seed=0))
    tdir = tmp_path / "table"
    save_table(table, tdir)
    split = make_split(60, (3, 1, 6), 42)
    save_split(SplitIndices(train=(), valid=split.valid, test=tuple(sorted(
        split.train + split.test)), seed=42), tdir / "split.json")
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "grid_points = 10\ntrain.epochs = 2\n",
                       table=tdir, out=out, router=router)
    assert main([command, "--config", cfg]) == code
    if code == EXIT_CONFIG:
        err = capsys.readouterr().err
        assert err.startswith("error: the training split of the table's 60 queries is empty "
                              f"({tdir / 'split.json'})"), err
        assert not out.exists()


# ---------------------------------------------------------------------------
# sweep


def test_cmd_sweep_oracle_metrics(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, SYNTH_CONFIG, out=out, router="oracle")
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    for key in ("nauc", "peak_score", "qnc", "rci"):
        assert key in metrics
    # generator tables have no cost ties, so the oracle never collapses
    assert metrics["rci"] == 0.0
    assert (out / "curve.csv").is_file() and (out / "rci_detail.csv").is_file()


def test_cmd_sweep_qnc_sentinel(tmp_path):
    # anti-learnable table: noise embeddings, model 0 best on 70% of queries
    # but expensive; k=1 kNN can never reach the standalone quality of model 0
    rng = np.random.Generator(np.random.Philox(5))
    n = 200
    best0 = rng.random(n) < 0.7
    perf = np.where(best0[:, None], [1.0, 0.0], [0.0, 1.0])
    cost = np.tile([2.0, 1.0], (n, 1))
    table = make_table(perf=perf, cost=cost, embeddings=rng.standard_normal((n, 6)))
    tdir = tmp_path / "table"
    save_table(table, tdir)
    save_split(make_split(n, (3, 1, 6), 42), tdir / "split.json")
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        "router = knn\nknn.k = 1\ncost_source = oracle\ngrid_points = 20\n",
        table=tdir,
        out=out,
    )
    assert main(["train", "--config", cfg]) == EXIT_OK
    assert (
        main(["sweep", "--config", cfg, "--checkpoint", str(out / "knn.ckpt")])
        == EXIT_OK
    )
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["qnc"] == "/" and metrics["qnc_relative"] == "/"


def test_cmd_sweep_threshold_exit_code(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path, SYNTH_CONFIG, out=out, router="oracle", **{"threshold.min_nauc": 2.0}
    )
    assert main(["sweep", "--config", cfg]) == EXIT_THRESHOLD


def test_cmd_sweep_full_collapse_still_writes_evidence(tmp_path, capsys):
    # the favoured model is every query's cheapest, so it is affordable at
    # every budget: one model takes every call and the curve has one cost
    n = 40
    table = make_table(perf=[[0.2, 0.9, 0.5]] * n, cost=[[1.0, 2.0, 3.0]] * n)
    tdir = tmp_path / "table"
    save_table(table, tdir)
    save_split(make_split(n, (3, 1, 6), 42), tdir / "split.json")
    ckpt = tmp_path / "mlp.ckpt"
    save_router(ckpt, constant_policy_router(table, favored=0))
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path, "router = mlp\ncost_source = oracle\ngrid_points = 10\n", table=tdir, out=out
    )
    assert main(["sweep", "--config", cfg, "--checkpoint", str(ckpt)]) == EXIT_RUNTIME
    assert "degenerate cost range" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()

    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0].split(",")[3:6] == ["calls_model_0", "calls_model_1", "calls_model_2"]
    n_test = len(load_split(tdir / "split.json").test)
    assert len(curve) == 11
    assert all(row.split(",")[3:6] == [str(n_test), "0", "0"] for row in curve[1:])
    detail = (out / "rci_detail.csv").read_text().splitlines()
    assert len(detail) == n_test + 1
    assert {row.split(",")[1] for row in detail[1:]} == {"0"}


SMALL_CONFIG = """
synth.n_queries = 200
synth.n_models = 4
synth.embed_dim = 6
synth.seed = 1
grid_points = 10
train.epochs = 2
train.batch_size = 64
train.latent_dim = 8
train.model_dim = 4
train.hidden = 8
knn.k = 3
"""


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """EquiRouter, kNN and cost checkpoints of a 200-query, K=4, 6-dim table,
    plus a copy of the kNN checkpoint alone in `alone/`."""
    root = tmp_path_factory.mktemp("small")
    cfg = write_config(root, SMALL_CONFIG, cost_source="predicted", out=root / "run")
    for router in ("equirouter", "knn"):
        assert main(["train", "--config", cfg, "--router", router]) == EXIT_OK
    (root / "alone").mkdir()
    (root / "alone" / "knn.ckpt").write_bytes((root / "run" / "knn.ckpt").read_bytes())
    return root


@pytest.mark.parametrize(
    "router, checkpoint, cost_source, table_keys, error",
    [
        pytest.param("mlp", None, "oracle", {}, "sweep needs --checkpoint", id="no-checkpoint"),
        pytest.param(
            "mlp", "run/nowhere.ckpt", "oracle", {}, "No such file", id="missing-checkpoint"
        ),
        pytest.param(
            "knn", "alone/knn.ckpt", "predicted", {}, "needs cost.ckpt next to the checkpoint",
            id="no-cost-checkpoint",
        ),
        pytest.param(
            "mlp", "run/equirouter.ckpt", "oracle", {},
            "equirouter.ckpt holds router_type 'equirouter', expected 'mlp'", id="router-kind",
        ),
        pytest.param(
            "mlp", "run/cost.ckpt", "oracle", {},
            "cost.ckpt holds router_type 'cost', expected 'mlp'", id="cost-as-router",
        ),
        pytest.param(
            "equirouter-nojoint", "run/equirouter.ckpt", "oracle", {},
            "holds router_type 'equirouter', expected 'equirouter_nojoint'", id="ablation-kind",
        ),
        pytest.param(
            "equirouter", "run/equirouter.ckpt", "oracle", {"synth.n_models": 3},
            "equirouter.ckpt has n_models=4 but the table has n_models=3", id="fewer-models",
        ),
        pytest.param(
            "equirouter", "run/equirouter.ckpt", "oracle", {"synth.embed_dim": 5},
            "equirouter.ckpt has d_q=6 but the table has d_q=5", id="fewer-dims",
        ),
        pytest.param(
            "knn", "run/knn.ckpt", "oracle", {"synth.n_queries": 100},
            "knn.ckpt trains on query rows 10..198 but the table has 100 queries",
            id="knn-rows",
        ),
        pytest.param(
            "knn", "run/knn.ckpt", "oracle", {"split.seed": 7},
            "knn.ckpt trains on other query rows than this run's training split "
            "(checkpoint split.seed=42, run split.seed=7)",
            id="knn-split",
        ),
        pytest.param(
            "knn", "run/knn.ckpt", "predicted", {"synth.n_models": 3},
            "cost.ckpt has n_models=4 but the table has n_models=3", id="cost-models",
        ),
    ],
)
def test_sweep_rejects_bad_inputs_before_any_write(
    tmp_path, capsys, small_run, router, checkpoint, cost_source, table_keys, error
):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, SMALL_CONFIG, router=router, cost_source=cost_source, out=out, **table_keys
    )
    argv = ["sweep", "--config", cfg]
    if checkpoint is not None:
        argv += ["--checkpoint", str(small_run / checkpoint)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert error in err, err
    assert not out.exists() or not any(out.iterdir())


def _edit_header(path, edit):
    """Rewrite a checkpoint's JSON header in place through `edit(header)`."""
    data = path.read_bytes()
    magic, size = data[:8], int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:16 + size])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(magic + len(blob).to_bytes(8, "little") + blob + data[16 + size:])


@pytest.mark.parametrize(
    "edit, error",
    [
        pytest.param(None, "Is a directory", id="directory"),
        pytest.param(lambda h: h.pop("shapes"), "header field 'shapes' is missing", id="no-shapes"),
        pytest.param(lambda h: h.pop("router_type"), "header has no 'router_type' field",
                     id="no-router-type"),
        pytest.param(lambda h: h["hyper"].update(bogus=1),
                     "field 'hyper': MlpHyper.__init__() got an unexpected keyword argument "
                     "'bogus'", id="unknown-hyper-key"),
    ],
)
def test_malformed_checkpoint_exits_1_before_any_write(tmp_path, capsys, edit, error):
    n = 40
    table = make_table(perf=[[0.2, 0.9, 0.5]] * n, cost=[[1.0, 2.0, 3.0]] * n)
    tdir = tmp_path / "table"
    save_table(table, tdir)
    save_split(make_split(n, (3, 1, 6), 42), tdir / "split.json")
    ckpt = tmp_path / "mlp.ckpt"
    if edit is None:
        ckpt.mkdir()
    else:
        save_router(ckpt, constant_policy_router(table, favored=0))
        _edit_header(ckpt, edit)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "router = mlp\ncost_source = oracle\n", table=tdir, out=out)
    assert main(["sweep", "--config", cfg, "--checkpoint", str(ckpt)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt}: ") and error in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, error",
    [
        pytest.param({"train_indices": 5}, "field 'train_indices' is not a list of integers",
                     id="train-int"),
        pytest.param({"k": None}, "field 'k' is not an integer >= 1: None", id="k-null"),
        pytest.param({"k": 0}, "field 'k' is not an integer >= 1: 0", id="k-zero"),
        pytest.param({"split_seed": "x"}, "field 'split_seed' is not an integer: 'x'",
                     id="seed-str"),
        pytest.param({"train_indices": []}, "field 'train_indices' is empty", id="train-empty"),
    ],
)
def test_malformed_knn_checkpoint_exits_1_before_any_write(tmp_path, capsys, edit, error):
    n = 40
    table = make_table(perf=[[0.2, 0.9, 0.5]] * n, cost=[[1.0, 2.0, 3.0]] * n)
    tdir = tmp_path / "table"
    save_table(table, tdir)
    split = make_split(n, (3, 1, 6), 42)
    save_split(split, tdir / "split.json")
    ckpt = tmp_path / "knn.ckpt"
    save_router(ckpt, train_knn_router(table, split, k=3))
    _edit_header(ckpt, lambda h: h.update(edit))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "router = knn\ncost_source = oracle\n", table=tdir, out=out)
    assert main(["sweep", "--config", cfg, "--checkpoint", str(ckpt)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt}: ") and error in err, err
    assert not out.exists()


def test_sweep_refuses_mlp_checkpoint_whose_arrays_do_not_fit_its_hyper(tmp_path, capsys):
    # a first weight one column wider than hyper's d_q would load, and the
    # sweep would fail only after creating its output directory
    n = 40
    table = make_table(perf=[[0.2, 0.9, 0.5]] * n, cost=[[1.0, 2.0, 3.0]] * n)
    tdir = tmp_path / "table"
    save_table(table, tdir)
    save_split(make_split(n, (3, 1, 6), 42), tdir / "split.json")
    ckpt = tmp_path / "mlp.ckpt"
    save_router(ckpt, constant_policy_router(table, favored=0))
    header, arrays = load_checkpoint(ckpt)
    save_checkpoint(ckpt, header, [np.zeros((4, table.embed_dim + 1)), *arrays[1:]])
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "router = mlp\ncost_source = oracle\n", table=tdir, out=out)
    assert main(["sweep", "--config", cfg, "--checkpoint", str(ckpt)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: checkpoint {ckpt}: checkpoint arrays do not fit its field 'hyper'\n"
    assert not out.exists()


def test_sweep_refuses_checkpoint_whose_hyper_size_is_a_float(tmp_path, capsys):
    # d_q = 8.0 once reached numpy inside init_equirouter and exited 2 with
    # "'float' object cannot be interpreted as an integer", naming no field
    n = 40
    table = make_table(perf=[[0.2, 0.9, 0.5]] * n, cost=[[1.0, 2.0, 3.0]] * n,
                       embeddings=np.random.default_rng(0).standard_normal((n, 8)))
    tdir = tmp_path / "table"
    save_table(table, tdir)
    save_split(make_split(n, (3, 1, 6), 42), tdir / "split.json")
    ckpt = tmp_path / "equirouter.ckpt"
    save_router(ckpt, init_equirouter(EquiHyper(d_q=8, n_models=3, d_m=4, latent_dim=5)))
    _edit_header(ckpt, lambda h: h["hyper"].update(d_q=8.0))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "router = equirouter\ncost_source = oracle\n", table=tdir,
                       out=out)
    assert main(["sweep", "--config", cfg, "--checkpoint", str(ckpt)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"error: checkpoint {ckpt}: checkpoint field 'hyper': d_q is not "
                   "an integer >= 1: 8.0\n")
    assert not out.exists()


def test_sweep_refuses_checkpoint_whose_joint_feature_contradicts_its_kind(tmp_path, capsys):
    # a no-joint network relabelled as the full EquiRouter: evaluating it
    # under --router equirouter would report the wrong ablation
    n = 40
    table = make_table(perf=[[0.2, 0.9, 0.5]] * n, cost=[[1.0, 2.0, 3.0]] * n)
    tdir = tmp_path / "table"
    save_table(table, tdir)
    save_split(make_split(n, (3, 1, 6), 42), tdir / "split.json")
    ckpt = tmp_path / "equirouter.ckpt"
    hyper = EquiHyper(d_q=table.embed_dim, n_models=3, d_m=4, latent_dim=5)
    save_router(ckpt, init_equirouter(hyper, "equirouter_nojoint"))
    _edit_header(ckpt, lambda h: h.update(router_type="equirouter"))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "router = equirouter\ncost_source = oracle\n", table=tdir,
                       out=out)
    assert main(["sweep", "--config", cfg, "--checkpoint", str(ckpt)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt}: ") and "field 'joint_feature'" in err, err
    assert not out.exists()


def test_sweep_and_pipeline_score_the_test_split_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, SYNTH_CONFIG, router="mlp", cost_source="predicted")
    trained = tmp_path / "trained"
    assert main(["train", "--config", cfg, "--out", str(trained)]) == EXIT_OK

    calls = []

    def counted(name, fn):
        def wrapper(router, table, indices, *args, **kwargs):
            calls.append((name, np.asarray(indices).tolist()))
            return fn(router, table, indices, *args, **kwargs)

        return wrapper

    # evaluation imports both functions; cli reaches them through the router module
    for module in (evaluation_module, router_module):
        for name in ("router_scores", "filter_costs"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    runs = {
        "sweep": ["--out", str(trained), "--checkpoint", str(trained / "mlp.ckpt")],
        "pipeline": ["--out", str(tmp_path / "piped")],
    }
    for command, args in runs.items():
        calls.clear()
        assert main([command, "--config", cfg, *args]) == EXIT_OK
        test = list(load_split(Path(args[1]) / "split.json").test)
        assert sorted(calls) == [("filter_costs", test), ("router_scores", test)], command


# ---------------------------------------------------------------------------
# diagnose


def test_cmd_diagnose_outputs(tmp_path):
    out = tmp_path / "diag"
    cfg = write_config(
        tmp_path, SYNTH_CONFIG, out=out, router="oracle",
        **{"diagnose.sigmas": "0"},
    )
    assert main(["diagnose", "--config", cfg]) == EXIT_OK

    noise_rows = (out / "noise.csv").read_text().splitlines()
    assert noise_rows[0] == "sigma,accuracy,strongest_share"
    assert len(noise_rows) == 2  # single sigma=0 row

    # sigma=0 must equal the oracle sweep at the full budget
    sigma0 = [float(v) for v in noise_rows[1].split(",")]
    curve_rows = (out / "callrates.csv").read_text().splitlines()
    assert curve_rows[0].startswith("budget,share_model_0")
    top_shares = [float(v) for v in curve_rows[-1].split(",")[1:]]
    assert sigma0[2] == pytest.approx(top_shares[-1])

    margins = (out / "margins.csv").read_text().splitlines()
    cdf = [float(r.split(",")[1]) for r in margins[1:]]
    assert cdf == sorted(cdf)

    trainset = json.loads((out / "trainset_metrics.json").read_text())
    assert trainset["rci"] == 0.0  # oracle on a no-cost-tie table


# ---------------------------------------------------------------------------
# pipeline


def test_cmd_pipeline_deterministic(tmp_path):
    cfg = write_config(tmp_path, SYNTH_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", cfg, "--out", str(a)]) == EXIT_OK
    assert main(["pipeline", "--config", cfg, "--out", str(b)]) == EXIT_OK
    names = ["metrics.json", "curve.csv", "equirouter.ckpt", "split.json"]
    assert read_bytes_map(a, names) == read_bytes_map(b, names)


def test_cmd_pipeline_predicted_costs(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path, SYNTH_CONFIG, out=out, cost_source="predicted", router="mlp"
    )
    assert main(["pipeline", "--config", cfg]) == EXIT_OK
    assert (out / "cost.ckpt").is_file()
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["rci"] <= 1.0


def test_cmd_pipeline_nojoint_router(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, SYNTH_CONFIG, out=out, router="equirouter-nojoint")
    assert main(["pipeline", "--config", cfg]) == EXIT_OK
    from equirouter.router import load_router

    loaded = load_router(out / "equirouter-nojoint.ckpt")
    assert loaded.tag == "equirouter_nojoint" and not loaded.joint_feature


# ---------------------------------------------------------------------------
# package import


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "imports, preset, expected",
    [
        ("equirouter", None, ["1", "1", "1"]),
        ("equirouter", "2", ["2", "1", "1"]),  # the caller's value wins
        ("numpy, equirouter", None, ["-", "-", "-"]),  # too late once BLAS is loaded
    ],
)
def test_package_import_pins_blas_threads(imports, preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(cli_module.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = f"import os, {imports}; print(*(os.environ.get(v, '-') for v in {BLAS_VARS}))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == expected


def test_pipeline_bytes_do_not_depend_on_blas_thread_variables(tmp_path):
    # the host contract: a run with the BLAS variables unset, which the
    # package pins on import, writes what a run with them set to 1 writes
    cfg = write_config(tmp_path, SYNTH_CONFIG)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(cli_module.__file__).parents[1])
    runs = []
    for name, preset in (("unset", {}), ("one", dict.fromkeys(BLAS_VARS, "1"))):
        (tmp_path / name).mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "equirouter.cli", "pipeline", "--config", cfg, "--out", "run"],
            cwd=tmp_path / name, env={**env, **preset}, capture_output=True, check=True,
        )
        out = tmp_path / name / "run"
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        runs.append((proc.stdout, files))
    assert {"metrics.json", "curve.csv", "equirouter.ckpt", "table/table.bin"} <= set(runs[0][1])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("script", ["run_ablation.py", "run_noise_collapse.py"])
def test_experiment_scripts_pin_blas_threads(script):
    # a script run by hand must import equirouter before numpy loads BLAS
    path = Path(__file__).parents[1] / "scripts" / script
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(cli_module.__file__).parents[1])
    code = ("import importlib.util, os\n"
            f"spec = importlib.util.spec_from_file_location('script', {str(path)!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            f"print(*(os.environ.get(v, '-') for v in {BLAS_VARS}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["1", "1", "1"]


# ---------------------------------------------------------------------------
# output_matrix.py --base: identity against a git revision


def _load_output_matrix():
    path = Path(__file__).parents[1] / "scripts" / "output_matrix.py"
    spec = importlib.util.spec_from_file_location("output_matrix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _two_commit_repo(root, first, second):
    """A git repository whose src/value.txt holds `first` in HEAD~1 and
    `second` in HEAD, the working tree's."""
    def git(*args):
        subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    (root / "src").mkdir(parents=True)
    git("init", "-q")
    for text in (first, second):
        (root / "src" / "value.txt").write_text(text)
        git("add", "-A")
        git("commit", "-q", "--allow-empty", "-m", text)
    return root


def _copy_matrix(out, tree):
    """A one-step matrix: the tree's src/value.txt into OUT/step/; a tree
    holding "broken" cannot run the step."""
    (out / "step").mkdir(parents=True)
    text = (tree / "src" / "value.txt").read_text()
    (out / "step" / "value.txt").write_text(text)
    return ["step exited 2"] if text == "broken\n" else []


@pytest.mark.parametrize(
    "second, expect, wrong, printed",
    [
        pytest.param("a\n", [], [], [], id="identical"),
        pytest.param("b\n", [], ["step/value.txt differs from the base"],
                     ["differs: step/value.txt"], id="one-byte"),
        pytest.param("b\n", ["*/value.txt"], [], ["differs (expected): step/value.txt"],
                     id="expected"),
    ],
)
def test_output_matrix_compares_with_a_base_revision(
    tmp_path, monkeypatch, capsys, second, expect, wrong, printed
):
    om = _load_output_matrix()
    monkeypatch.setattr(om, "run_matrix", _copy_matrix)
    repo = _two_commit_repo(tmp_path / "repo", "a\n", second)
    assert om.compare_with_base(tmp_path / "out", "HEAD~1", expect, repo) == wrong
    assert capsys.readouterr().out.splitlines() == printed
    # the worktree is gone again, from the disk and from git's list
    assert list((repo / ".perfbench-work").iterdir()) == []
    listed = subprocess.run(["git", "-C", str(repo), "worktree", "list"],
                            capture_output=True, text=True, check=True).stdout
    assert len(listed.splitlines()) == 1


def test_output_matrix_names_a_step_the_base_cannot_run(tmp_path, monkeypatch, capsys):
    om = _load_output_matrix()
    monkeypatch.setattr(om, "run_matrix", _copy_matrix)
    repo = _two_commit_repo(tmp_path / "repo", "broken\n", "a\n")
    assert om.compare_with_base(tmp_path / "out", "HEAD~1", [], repo) == [
        "step/value.txt differs from the base"]
    assert capsys.readouterr().out.splitlines() == [
        "base HEAD~1: step exited 2", "differs: step/value.txt"]


def test_output_matrix_refuses_an_unknown_base_revision(tmp_path, monkeypatch):
    om = _load_output_matrix()
    monkeypatch.setattr(om, "run_matrix", _copy_matrix)
    repo = _two_commit_repo(tmp_path / "repo", "a\n", "a\n")
    with pytest.raises(SystemExit, match="cannot check out 'no-such-rev'"):
        om.compare_with_base(tmp_path / "out", "no-such-rev", [], repo)
    assert list((repo / ".perfbench-work").iterdir()) == []


@pytest.mark.parametrize(
    "current, declared, error",
    [
        pytest.param("a\n", "# nothing declared\n", None, id="identical"),
        pytest.param("b\n", "# a comment\n\n*/value.txt\n", None, id="declared"),
        pytest.param("b\n", "", "step/value.txt differs from the base", id="undeclared"),
        pytest.param("a\n", "*/value.txt\n", "--expect '*/value.txt' matches no differing path",
                     id="unused-glob"),
    ],
)
def test_output_matrix_expect_file(tmp_path, monkeypatch, current, declared, error):
    # the base's and this tree's outputs are two directories; main() exits
    # with a message (status 1) on an undeclared difference or an unused glob
    om = _load_output_matrix()
    for side, text in (("base", "a\n"), ("current", current)):
        (tmp_path / side / "step").mkdir(parents=True)
        (tmp_path / side / "step" / "value.txt").write_text(text)
    sources = {"base-tree": tmp_path / "base", om.ROOT: tmp_path / "current"}
    monkeypatch.setattr(om, "base_worktree",
                        lambda rev, repo: contextlib.nullcontext("base-tree"))

    def run_matrix(out, tree):  # the tree's outputs are a directory to copy
        shutil.copytree(sources[tree], out)
        return []

    monkeypatch.setattr(om, "run_matrix", run_matrix)
    declaration = tmp_path / "expected.txt"
    declaration.write_text(declared)
    argv = [str(tmp_path / "out"), "--base", "HEAD", "--expect-file", str(declaration)]
    if error is None:
        om.main(argv)
    else:
        with pytest.raises(SystemExit) as exc:
            om.main(argv)
        assert isinstance(exc.value.code, str) and error in exc.value.code
