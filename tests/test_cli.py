import json
import re
from pathlib import Path

import numpy as np
import pytest

import equirouter.evaluation as evaluation_module
import equirouter.router as router_module
import equirouter.cli as cli_module
from equirouter.cli import (
    CONFIG_KEYS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_THRESHOLD,
    SYNTH_KEYS,
    THRESHOLD_KEYS,
    build_config,
    build_parser,
    load_config,
    main,
    parse_config_text,
)
from equirouter.dataset import (
    SynthConfig,
    generate_synthetic,
    load_split,
    load_table,
    make_split,
    save_split,
    save_table,
)
from equirouter.router import save_router

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
        ("train.weight_decay", "-1e-4"),
        ("train.weight_decay", "inf"),
        ("diagnose.sigmas", "0,-0.1"),
        ("diagnose.sigmas", "0,nan"),
        ("diagnose.margin_thresholds", "0,nan,0.5"),
        ("split.ratio", "nan:1:1"),
        ("split.ratio", "inf:1:1"),
    ],
)
def test_out_of_range_training_values_rejected_before_any_write(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, SYNTH_CONFIG, **{key: value, "out": out})
    assert main(["pipeline", "--config", cfg_path]) == EXIT_CONFIG
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_flags_override_their_config_keys(tmp_path):
    cfg_path = write_config(tmp_path, SYNTH_CONFIG, out=tmp_path / "cfg-out")
    flags = ["--router", "knn", "--cost-source", "oracle", "--grid-points", "7",
             "--seed", "5", "--out", "flag-out"]
    cfg = load_config(build_parser().parse_args(["sweep", "--config", cfg_path, *flags]))
    assert (cfg.router, cfg.cost_source, cfg.grid_points, cfg.train_seed, cfg.out) == (
        "knn", "oracle", 7, 5, "flag-out"
    )
    # the oracle reads true costs whatever cost_source says
    args = ["sweep", "--config", cfg_path, "--router", "oracle", "--cost-source", "predicted"]
    assert load_config(build_parser().parse_args(args)).cost_source == "oracle"


def test_module_docstring_lists_exactly_the_config_keys():
    section = cli_module.__doc__.split("Config keys")[1].split("Exit codes")[0]
    documented = re.findall(r"^    (\S+)", section, re.MULTILINE)
    assert sorted(documented) == sorted({*CONFIG_KEYS, *SYNTH_KEYS, *THRESHOLD_KEYS})


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
