import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirouter.dataset import (
    ModelInfo,
    RoutingTable,
    SynthConfig,
    generate_synthetic,
    load_split,
    load_table,
    make_split,
    save_split,
    save_table,
)
from equirouter.oracle import margin

from conftest import make_table


# ---------------------------------------------------------------------------
# table construction and validation


def test_table_rejects_nonpositive_cost():
    with pytest.raises(ValueError, match=r"nonpositive cost at \(1,0\)"):
        make_table(perf=[[1, 0], [0, 1], [1, 1]], cost=[[1, 2], [0.0, 2], [1, 2]])


def test_table_rejects_dimension_mismatch():
    # perf is 3x2 but three models are declared
    models = tuple(ModelInfo(j, f"m{j}", 0.0) for j in range(3))
    with pytest.raises(ValueError, match="perf matrix shape"):
        RoutingTable(
            models=models,
            query_ids=("a", "b", "c"),
            embeddings=np.zeros((3, 2)),
            perf=np.ones((3, 2)),
            cost=np.ones((3, 3)),
        )


def test_table_rejects_empty_model_list():
    with pytest.raises(ValueError, match=">= 2 models"):
        RoutingTable(
            models=(),
            query_ids=("a",),
            embeddings=np.zeros((1, 2)),
            perf=np.ones((1, 0)),
            cost=np.ones((1, 0)),
        )


def test_table_rejects_nonfinite_perf():
    with pytest.raises(ValueError, match=r"non-finite perf at \(0,1\)"):
        make_table(perf=[[1, np.nan]], cost=[[1, 2]])


def test_table_arrays_are_readonly(small_synth):
    with pytest.raises(ValueError):
        small_synth.perf[0, 0] = 2.0


# ---------------------------------------------------------------------------
# save / load round trip


def test_round_trip_identity(tmp_path, small_synth):
    save_table(small_synth, tmp_path / "t")
    loaded = load_table(tmp_path / "t")
    assert loaded.query_ids == small_synth.query_ids
    assert loaded.models == small_synth.models
    # bit-exact float matrices
    assert np.array_equal(loaded.embeddings, small_synth.embeddings)
    assert np.array_equal(loaded.perf, small_synth.perf)
    assert np.array_equal(loaded.cost, small_synth.cost)


def test_save_table_bytes_match_json_and_repr(tmp_path):
    # the writer's bytes are pinned to json.dumps per queries.jsonl line and
    # repr per CSV cell, on values whose shortest repr is unusual
    odd = [-0.0, 5e-324, 1e-300, 0.1 + 0.2]
    t = make_table(
        perf=[[-0.0, 1.0], [0.1 + 0.2, 1e-300]],
        cost=[[5e-324, 1e-300], [0.1 + 0.2, 2.0]],
        embeddings=[odd, odd[::-1]],
    )
    save_table(t, tmp_path / "t")
    lines = [
        json.dumps({"query_id": qid, "embedding": [float(v) for v in emb]}) + "\n"
        for qid, emb in zip(t.query_ids, t.embeddings)
    ]
    assert (tmp_path / "t" / "queries.jsonl").read_text() == "".join(lines)
    assert '"embedding": [-0.0, 5e-324, 1e-300, 0.30000000000000004]' in lines[0]
    for name, mat in (("perf", t.perf), ("cost", t.cost)):
        rows = [",".join(repr(float(v)) for v in row) + "\n" for row in mat]
        assert (tmp_path / "t" / f"{name}.csv").read_text() == "".join(rows)
    loaded = load_table(tmp_path / "t")
    assert np.array_equal(loaded.embeddings, t.embeddings)
    assert np.signbit(loaded.perf[0, 0])


def test_round_trip_records_embedding_dim(tmp_path):
    rng = np.random.Generator(np.random.Philox(3))
    t = make_table(
        perf=[[1, 0], [0, 1], [1, 1]],
        cost=[[1, 2]] * 3,
        embeddings=rng.standard_normal((3, 384)),
    )
    save_table(t, tmp_path / "t")
    assert load_table(tmp_path / "t").embed_dim == 384


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_table(tmp_path / "nope")


def test_load_rejects_bad_cost(tmp_path, small_synth):
    save_table(small_synth, tmp_path / "t")
    bad = (tmp_path / "t" / "cost.csv").read_text().splitlines()
    bad[2] = ",".join(["0.0"] + bad[2].split(",")[1:])
    (tmp_path / "t" / "cost.csv").write_text("\n".join(bad) + "\n")
    with pytest.raises(ValueError, match=r"nonpositive cost at \(2,0\)"):
        load_table(tmp_path / "t")


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_nonfinite_cost_is_named_non_finite(tmp_path, small_synth, value):
    save_table(small_synth, tmp_path / "t")
    bad = (tmp_path / "t" / "cost.csv").read_text().splitlines()
    bad[2] = ",".join([value] + bad[2].split(",")[1:])
    (tmp_path / "t" / "cost.csv").write_text("\n".join(bad) + "\n")
    with pytest.raises(ValueError, match=r"non-finite cost at \(2,0\)"):
        load_table(tmp_path / "t")
    with pytest.raises(ValueError, match=r"non-finite cost at \(0,1\)"):
        generate_synthetic(SynthConfig(n_queries=20, n_models=4, embed_dim=3,
                                       cost_spread=np.inf))


def _drop_last_cell(line):
    return line.rsplit(",", 1)[0]


def _drop_last_embedding_value(line):
    rec = json.loads(line)
    rec["embedding"] = rec["embedding"][:-1]
    return json.dumps(rec)


@pytest.mark.parametrize(
    "name, row, edit, error",
    [
        pytest.param("perf.csv", 3, _drop_last_cell, "perf row 3 has 3 columns, expected 4",
                     id="perf-columns"),
        pytest.param("cost.csv", 1, lambda line: line + ",1.0",
                     "cost row 1 has 5 columns, expected 4", id="cost-columns"),
        pytest.param("perf.csv", 2, lambda line: "abc," + line.split(",", 1)[1],
                     "unparseable perf value in row 2", id="perf-value"),
        pytest.param("cost.csv", 0, lambda line: line.replace(",", ",x", 1),
                     "unparseable cost value in row 0", id="cost-value"),
        pytest.param("queries.jsonl", 5, _drop_last_embedding_value,
                     "embedding dimension mismatch at query 5: 11 != 12", id="embedding-dim"),
        pytest.param("queries.jsonl", None, None, "queries.jsonl is empty", id="empty-queries"),
        pytest.param("perf.csv", None, None, "perf matrix is empty", id="empty-perf"),
        pytest.param("cost.csv", None, None, "cost matrix is empty", id="empty-cost"),
    ],
)
def test_load_error_messages(tmp_path, small_synth, name, row, edit, error):
    """Each malformed file names what is wrong and where; an empty file is
    reported as empty. A faster loader must keep these messages."""
    save_table(small_synth, tmp_path / "t")
    path = tmp_path / "t" / name
    if edit is None:
        path.write_text("")
    else:
        lines = path.read_text().splitlines()
        lines[row] = edit(lines[row])
        path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_table(tmp_path / "t")
    assert str(info.value) == error


# ---------------------------------------------------------------------------
# splits


def test_split_sizes_3_1_6():
    split = make_split(10, (3, 1, 6), seed=42)
    assert (len(split.train), len(split.valid), len(split.test)) == (3, 1, 6)


def test_split_membership_frozen():
    # pins the Philox shuffle stream: a silent PRNG change must fail loudly
    split = make_split(10, (3, 1, 6), seed=42)
    assert split.train == (2, 3, 4)
    assert split.valid == (7,)
    assert split.test == (0, 1, 5, 6, 8, 9)


def test_split_deterministic():
    a = make_split(100, (3, 1, 6), seed=42)
    b = make_split(100, (3, 1, 6), seed=42)
    assert a == b
    c = make_split(100, (3, 1, 6), seed=43)
    assert c != a


def test_split_zero_ratio_part_rejected():
    with pytest.raises(ValueError, match="positive"):
        make_split(10, (1, 0, 0), seed=1)


def test_split_too_few_items():
    with pytest.raises(ValueError, match="cannot split"):
        make_split(2, (3, 1, 6), seed=1)


def test_split_round_trip(tmp_path):
    split = make_split(23, (3, 1, 6), seed=5)
    save_split(split, tmp_path / "split.json")
    assert load_split(tmp_path / "split.json") == split


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=200),
    ratio=st.tuples(
        st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)
    ),
    seed=st.integers(0, 2**32),
)
def test_split_partition_property(n, ratio, seed):
    split = make_split(n, ratio, seed)
    everything = sorted(split.train + split.valid + split.test)
    assert everything == list(range(n))
    assert make_split(n, ratio, seed) == split
    # sizes within one item of the exact proportion
    total = sum(ratio)
    for part, r in zip((split.train, split.valid, split.test), ratio):
        assert abs(len(part) - n * r / total) <= 1


# ---------------------------------------------------------------------------
# synthetic generator


def _full_pool_tie_rate(table):
    budget = float(table.cost.max())
    margins = [margin(table, n, budget) for n in range(table.n_queries)]
    return float(np.mean([m == 0.0 for m in margins]))


def test_generator_all_ties():
    t = generate_synthetic(
        SynthConfig(n_queries=300, n_models=3, embed_dim=6, tie_fraction=1.0, noise_seed=2)
    )
    assert _full_pool_tie_rate(t) == 1.0


def test_generator_tie_rate_tracks_target():
    cfg = SynthConfig(
        n_queries=5000, n_models=5, embed_dim=16, tie_fraction=0.949, noise_seed=4
    )
    t = generate_synthetic(cfg)
    rate = _full_pool_tie_rate(t)
    slack = 3 * np.sqrt(0.949 * 0.051 / cfg.n_queries)
    assert abs(rate - 0.949) <= slack


def test_generator_cost_spread():
    cfg = SynthConfig(
        n_queries=4000, n_models=5, embed_dim=16, cost_spread=100.0, noise_seed=6
    )
    t = generate_synthetic(cfg)
    means = t.cost.mean(axis=0)
    ratio = means.max() / means.min()
    assert abs(ratio - 100.0) <= 5.0


def test_generator_costs_positive_and_monotone(small_synth):
    assert (small_synth.cost > 0).all()
    means = small_synth.cost.mean(axis=0)
    assert (np.diff(means) > 0).all()
    # strict per-query ordering by construction
    assert (np.diff(small_synth.cost, axis=1) > 0).all()


def test_generator_deterministic():
    cfg = SynthConfig(n_queries=50, n_models=3, embed_dim=5, noise_seed=9)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert np.array_equal(a.embeddings, b.embeddings)
    assert np.array_equal(a.perf, b.perf)
    assert np.array_equal(a.cost, b.cost)


def test_generator_rejects_bad_config():
    with pytest.raises(ValueError):
        generate_synthetic(SynthConfig(n_models=1))
    with pytest.raises(ValueError):
        generate_synthetic(SynthConfig(tie_fraction=1.5))
    with pytest.raises(ValueError):
        generate_synthetic(SynthConfig(cost_spread=1.0))


def test_generator_embeddings_carry_oracle_signal():
    """A nearest-centroid classifier on the planted winners beats chance."""
    cfg = SynthConfig(
        n_queries=2000, n_models=5, embed_dim=16, tie_fraction=0.5, noise_seed=8
    )
    t = generate_synthetic(cfg)
    budget = float(t.cost.max())
    labels = np.array([0 if margin(t, n, budget) == 0 else 1 + int(np.argmax(t.perf[n]))
                       for n in range(t.n_queries)])
    half = t.n_queries // 2
    centroids = np.stack(
        [t.embeddings[:half][labels[:half] == c].mean(axis=0) for c in range(6)]
    )
    d = ((t.embeddings[half:, None, :] - centroids[None]) ** 2).sum(axis=2)
    acc = float(np.mean(np.argmin(d, axis=1) == labels[half:]))
    assert acc > 2.0 / 6.0  # clearly above the 1/6 chance rate
