import io
import json
import math
import shutil
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirouter import dataset as dataset_module
from equirouter.dataset import (
    SIDECAR,
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
from equirouter.neuralnet import load_checkpoint, save_checkpoint
from equirouter.oracle import margin_stats

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


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_nonfinite_cost_is_named_non_finite(tmp_path, small_synth, value):
    save_table(small_synth, tmp_path / "t")
    bad = (tmp_path / "t" / "cost.csv").read_text().splitlines()
    bad[2] = ",".join([value] + bad[2].split(",")[1:])
    (tmp_path / "t" / "cost.csv").write_text("\n".join(bad) + "\n")
    with pytest.raises(ValueError, match=r"non-finite cost at \(2,0\)"):
        load_table(tmp_path / "t")
    cost = small_synth.cost.copy()
    cost[0, 1] = float(value)
    with pytest.raises(ValueError, match=r"non-finite cost at \(0,1\)"):
        replace(small_synth, cost=cost)


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


def _edit_model(key, value):
    """An edit of models.json's text that sets entry 1's `key` to `value`."""
    def edit(text):
        models = json.loads(text)
        models[1][key] = value
        return json.dumps(models)
    return edit


@pytest.mark.parametrize(
    "edit, error",
    [
        pytest.param(_edit_model("id", 1.5),
                     'models.json entry 1: "id" is not an integer: 1.5', id="fractional-id"),
        pytest.param(_edit_model("id", 1.0),
                     'models.json entry 1: "id" is not an integer: 1.0', id="float-id"),
        pytest.param(_edit_model("id", True),
                     'models.json entry 1: "id" is not an integer: True', id="boolean-id"),
        pytest.param(_edit_model("id", "1"),
                     """models.json entry 1: "id" is not an integer: '1'""", id="string-id"),
        pytest.param(_edit_model("unit_price", math.inf),
                     "non-finite unit_price for model 1", id="infinite-price"),
        pytest.param(_edit_model("unit_price", math.nan),
                     "non-finite unit_price for model 1", id="nan-price"),
        pytest.param(_edit_model("unit_price", -1.0),
                     "negative unit_price for model 1", id="negative-price"),
        pytest.param(lambda text: "[{bad",
                     "models.json: Expecting property name enclosed in double quotes: "
                     "line 1 column 3 (char 2)", id="bad-json"),
    ],
)
def test_malformed_models_json_is_rejected(tmp_path, small_synth, edit, error):
    save_table(small_synth, tmp_path / "t")
    path = tmp_path / "t" / "models.json"
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError) as info:
        load_table(tmp_path / "t")
    assert str(info.value) == error


@pytest.mark.parametrize("price", [math.inf, -math.inf, math.nan])
def test_nonfinite_unit_price_is_named_non_finite(small_synth, price):
    models = list(small_synth.models)
    models[1] = replace(models[1], unit_price=price)
    with pytest.raises(ValueError, match="non-finite unit_price for model 1"):
        replace(small_synth, models=tuple(models))


# ---------------------------------------------------------------------------
# block-streamed I/O against the whole-file reference spec


def spec_load_table(path):
    """Reference spec: the whole-file loader that load_table streams in blocks
    of IO_BLOCK rows. Both must give the same arrays and the same errors."""

    def load_matrix(path, what):
        if not path.is_file():
            raise FileNotFoundError(f"missing {path.name}")
        rows = []
        width = None
        for i, line in enumerate(path.read_text().splitlines()):
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(f"{what} row {i} has {len(cells)} columns, expected {width}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ValueError(f"unparseable {what} value in row {i}") from exc
        if not rows:
            raise ValueError(f"{what} matrix is empty")
        return np.asarray(rows, dtype=np.float64)

    root = Path(path)
    models_path = root / "models.json"
    if not models_path.is_file():
        raise FileNotFoundError(f"missing {models_path}")
    models = tuple(
        ModelInfo(model_id=int(m["id"]), name=str(m["name"]), unit_price=float(m["unit_price"]))
        for m in sorted(json.loads(models_path.read_text()), key=lambda m: int(m["id"]))
    )
    queries_path = root / "queries.jsonl"
    if not queries_path.is_file():
        raise FileNotFoundError(f"missing {queries_path}")
    query_ids, embeddings = [], []
    dim = None
    for i, line in enumerate(queries_path.read_text().splitlines()):
        rec = json.loads(line)
        emb = rec["embedding"]
        if dim is None:
            dim = len(emb)
        elif len(emb) != dim:
            raise ValueError(f"embedding dimension mismatch at query {i}: {len(emb)} != {dim}")
        query_ids.append(str(rec["query_id"]))
        embeddings.append([float(v) for v in emb])
    if not query_ids:
        raise ValueError("queries.jsonl is empty")
    perf = load_matrix(root / "perf.csv", "perf")
    cost = load_matrix(root / "cost.csv", "cost")
    return RoutingTable(models=models, query_ids=tuple(query_ids),
                        embeddings=np.asarray(embeddings, dtype=np.float64),
                        perf=perf, cost=cost)


def _outcome(load, path):
    """A load's result, bit for bit, or its error's type and message."""
    try:
        t = load(path)
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome
        return type(exc), str(exc)
    return t.models, t.query_ids, t.embeddings.tobytes(), t.perf.tobytes(), t.cost.tobytes()


@pytest.fixture
def table30():
    return generate_synthetic(
        SynthConfig(n_queries=30, n_models=3, embed_dim=4, tie_fraction=0.5, noise_seed=5)
    )


@pytest.fixture
def block4(monkeypatch):
    monkeypatch.setattr(dataset_module, "IO_BLOCK", 4)


def _saved_bytes(root):
    return {f.name: f.read_bytes() for f in sorted(Path(root).iterdir())}


def test_blocked_round_trip_is_bit_exact(tmp_path, table30, block4):
    save_table(table30, tmp_path / "t")
    loaded = load_table(tmp_path / "t")
    assert loaded.query_ids == table30.query_ids
    for name in ("embeddings", "perf", "cost"):
        assert getattr(loaded, name).tobytes() == getattr(table30, name).tobytes()
    assert _outcome(load_table, tmp_path / "t") == _outcome(spec_load_table, tmp_path / "t")


def test_save_table_bytes_do_not_depend_on_the_block(tmp_path, table30, monkeypatch):
    save_table(table30, tmp_path / "one")  # 30 rows: one block
    monkeypatch.setattr(dataset_module, "IO_BLOCK", 4)
    save_table(table30, tmp_path / "many")
    assert _saved_bytes(tmp_path / "many") == _saved_bytes(tmp_path / "one")


def _edit_line(row, edit):
    def apply(text):
        lines = text.splitlines()
        lines[row] = edit(lines[row])
        return "\n".join(lines) + "\n"
    return apply


def _chain(*edits):
    def apply(text):
        for edit in edits:
            text = edit(text)
        return text
    return apply


def _replace_newline(index, sep):
    """Replace the index-th "\n" of a file's text with sep."""
    def apply(text):
        head = text.split("\n")
        return "\n".join(head[:index + 1]) + sep + "\n".join(head[index + 1:])
    return apply


def _set_embedding_value(value):
    def edit(line):
        rec = json.loads(line)
        rec["embedding"][1] = value
        return json.dumps(rec)
    return edit


@pytest.mark.parametrize(
    "edits, error",
    [
        pytest.param({"perf.csv": _edit_line(9, _drop_last_cell)},
                     "perf row 9 has 2 columns, expected 3", id="perf-columns"),
        pytest.param({"cost.csv": _edit_line(13, lambda line: "abc," + line.split(",", 1)[1])},
                     "unparseable cost value in row 13", id="cost-value"),
        pytest.param({"queries.jsonl": _edit_line(10, _drop_last_embedding_value)},
                     "embedding dimension mismatch at query 10: 3 != 4", id="embedding-dim"),
        pytest.param({"queries.jsonl": _edit_line(22, lambda line: line[:-1])},
                     None, id="json-line-22"),
        pytest.param({"queries.jsonl": _edit_line(17, _set_embedding_value(None))},
                     None, id="embedding-null"),
        pytest.param({"queries.jsonl": _edit_line(17, _set_embedding_value("x"))},
                     None, id="embedding-string"),
        pytest.param({"perf.csv": _edit_line(21, lambda line: "x" + _drop_last_cell(line))},
                     "perf row 21 has 2 columns, expected 3", id="columns-before-value"),
        pytest.param({"perf.csv": _chain(_edit_line(21, lambda line: "x" + line),
                                         _edit_line(23, _drop_last_cell))},
                     "unparseable perf value in row 21", id="value-before-later-columns"),
        pytest.param({"queries.jsonl": _chain(_edit_line(18, _set_embedding_value("x")),
                                              _edit_line(19, lambda line: line[:-1]))},
                     None, id="value-before-later-json"),
        pytest.param({"queries.jsonl": _chain(
                         _edit_line(17, lambda line: line.replace('"query_id"', '"id"')),
                         _edit_line(18, _set_embedding_value("x")))},
                     None, id="missing-id-before-later-value"),
        # a form feed splits a line: rows count lines, not "\n"s
        pytest.param({"perf.csv": _chain(_edit_line(21, _drop_last_cell),
                                         _replace_newline(2, "\x0c"))},
                     "perf row 21 has 2 columns, expected 3", id="form-feed-before-error"),
        pytest.param({"queries.jsonl": _edit_line(10, _drop_last_embedding_value),
                      "perf.csv": _edit_line(9, _drop_last_cell)},
                     "embedding dimension mismatch at query 10: 3 != 4", id="queries-before-perf"),
    ],
)
def test_load_errors_in_a_later_block(tmp_path, table30, block4, edits, error):
    """With blocks of 4 rows each error lies past the first block: it names
    its global row, and where a block has several, the first row's error wins
    as in the whole-file spec. None: the spec's message is the only pin."""
    save_table(table30, tmp_path / "t")
    for name, edit in edits.items():
        path = tmp_path / "t" / name
        path.write_text(edit(path.read_text()))
    outcome = _outcome(load_table, tmp_path / "t")
    assert outcome == _outcome(spec_load_table, tmp_path / "t")
    assert len(outcome) == 2 and (error is None or outcome[1] == error)


ROW_FILES = ("queries.jsonl", "perf.csv", "cost.csv")


@pytest.mark.parametrize(
    "files, edit",
    [
        pytest.param(ROW_FILES, lambda text: text.replace("\n", "\r\n"), id="crlf"),
        pytest.param(ROW_FILES, lambda text: text.replace("\n", "\r"), id="bare-cr"),
        pytest.param(ROW_FILES, lambda text: text.rstrip("\n"), id="no-trailing-newline"),
        pytest.param(("perf.csv",), _replace_newline(9, "\x0c"), id="form-feed"),
        pytest.param(("cost.csv",), _replace_newline(14, "\x85"), id="next-line"),
        pytest.param(("queries.jsonl",), _replace_newline(17, "\u2028"), id="raw-u2028"),
        pytest.param(("queries.jsonl",), lambda text: text.replace('"q000013"', '"q\u2028x"'),
                     id="raw-u2028-in-query-id"),
        pytest.param(("perf.csv",), _replace_newline(11, "\n\n"), id="blank-middle-line"),
        pytest.param(("cost.csv",), lambda text: text + "\n\n", id="trailing-blank-lines"),
        pytest.param(("perf.csv",), lambda text: text.replace("\n", "\r\n", 6), id="mixed-endings"),
    ],
)
def test_load_splits_lines_as_read_text_splitlines(tmp_path, table30, block4, files, edit):
    save_table(table30, tmp_path / "t")
    for name in files:
        path = tmp_path / "t" / name
        path.write_bytes(edit(path.read_text()).encode())
    assert _outcome(load_table, tmp_path / "t") == _outcome(spec_load_table, tmp_path / "t")


def test_crlf_split_across_the_text_layers_read_chunk(tmp_path, table30):
    # text mode decodes a file in chunks of io.DEFAULT_BUFFER_SIZE; a "\r"
    # that ends one chunk and the "\n" that starts the next are one line end
    save_table(table30, tmp_path / "t")
    path = tmp_path / "t" / "perf.csv"
    lines = path.read_text().splitlines()
    edge = io.DEFAULT_BUFFER_SIZE - len(lines[0])  # a pad of edge - 1 ends chunk 1 with "\r"
    for pad in range(edge - 3, edge + 2):
        first = "0" * pad + lines[0]  # leading zeros keep every value
        path.write_bytes("\r\n".join([first, *lines[1:]]).encode() + b"\r\n")
        loaded = load_table(tmp_path / "t")
        assert loaded.perf.tobytes() == table30.perf.tobytes()
    assert _outcome(load_table, tmp_path / "t") == _outcome(spec_load_table, tmp_path / "t")


def _synth_k11(n):
    return generate_synthetic(
        SynthConfig(n_queries=n, n_models=11, embed_dim=24, tie_fraction=0.5, noise_seed=1)
    )


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_table_memory_flat_in_row_count(tmp_path, monkeypatch):
    # writing holds one block's Python rows, however long the table
    monkeypatch.setattr(dataset_module, "IO_BLOCK", 64, raising=False)

    def peak(n):
        table = _synth_k11(n)
        return _traced_peak(lambda: save_table(table, tmp_path / str(n)))[1]

    assert peak(3200) < 1.5 * peak(800)


def test_load_table_memory_is_the_result_plus_one_block(tmp_path, monkeypatch):
    # the whole-file loader peaked at about 4.5x the arrays at this size;
    # the same bound holds for the sidecar and, once it is deleted, the text
    monkeypatch.setattr(dataset_module, "IO_BLOCK", 64, raising=False)
    save_table(_synth_k11(3000), tmp_path / "t")
    for sidecar in (True, False):
        if not sidecar:
            (tmp_path / "t" / SIDECAR).unlink()
        table, peak = _traced_peak(lambda: load_table(tmp_path / "t"))
        arrays = table.embeddings.nbytes + table.perf.nbytes + table.cost.nbytes
        ids = sys.getsizeof(table.query_ids) + sum(map(sys.getsizeof, table.query_ids))
        block = 64 * 4096  # generous: 4 KB of Python objects per row of a block
        assert peak <= 2.5 * arrays + ids + block, sidecar


# ---------------------------------------------------------------------------
# table.bin: a hash-checked binary sidecar of the row files


def _text_only(root: Path, dest: Path) -> Path:
    """A copy of a table directory without its sidecar."""
    shutil.copytree(root, dest, ignore=shutil.ignore_patterns(SIDECAR))
    return dest


def _uses_sidecar(root: Path) -> bool:
    return dataset_module._load_sidecar(Path(root)) is not None


_ODD_IDS = ['"', "\\", "a\nb", "\t", "\u00e9t\u00e9", "\u65e5\u672c", "\u2028", "\ud800", "\x00", ""]
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)
_positive = st.floats(min_value=5e-324, max_value=1e300)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), k=st.integers(2, 4), d=st.integers(1, 3))
def test_sidecar_loads_what_the_text_loads(data, n, k, d):
    # 1 to 9 rows at IO_BLOCK = 4: one block, a full block, and several
    ids = data.draw(st.lists(st.sampled_from(_ODD_IDS) | st.text(max_size=4),
                             min_size=n, max_size=n))

    def matrix(cols, values):
        rows = data.draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                                  min_size=n, max_size=n))
        return np.array(rows, dtype=np.float64).reshape(n, cols)

    table = RoutingTable(
        models=tuple(ModelInfo(j, f"m{j}", float(j)) for j in range(k)),
        query_ids=tuple(ids),
        embeddings=matrix(d, _finite),
        perf=matrix(k, _finite),
        cost=matrix(k, _positive),
    )
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_module, "IO_BLOCK", 4)
        root = Path(tmp) / "t"
        save_table(table, root)
        assert _uses_sidecar(root)
        text = _text_only(root, Path(tmp) / "text")
        assert _outcome(load_table, root) == _outcome(load_table, text)
        assert load_table(root).query_ids == table.query_ids


def test_edited_text_loads_from_the_text(tmp_path, table30):
    save_table(table30, tmp_path / "t")
    perf = tmp_path / "t" / "perf.csv"
    lines = perf.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = "0.125"
    lines[5] = ",".join(cells)
    perf.write_text("\n".join(lines) + "\n")
    assert not _uses_sidecar(tmp_path / "t")
    loaded = load_table(tmp_path / "t")
    assert loaded.perf[5, 1] == 0.125
    assert _outcome(load_table, tmp_path / "t") == _outcome(
        load_table, _text_only(tmp_path / "t", tmp_path / "text"))


@pytest.mark.parametrize(
    "name, edit, error",
    [
        ("perf.csv", _drop_last_cell, "perf row 7 has 2 columns, expected 3"),
        ("cost.csv", lambda line: "x" + line, "unparseable cost value in row 7"),
        ("queries.jsonl", lambda line: line[:-1], None),
    ],
)
def test_malformed_row_under_a_stale_sidecar_reports_the_text_error(
        tmp_path, table30, name, edit, error):
    save_table(table30, tmp_path / "t")
    path = tmp_path / "t" / name
    path.write_text(_edit_line(7, edit)(path.read_text()))
    outcome = _outcome(load_table, tmp_path / "t")
    assert outcome == _outcome(load_table, _text_only(tmp_path / "t", tmp_path / "text"))
    assert outcome[0] in (ValueError, json.JSONDecodeError)
    assert error is None or outcome[1] == error


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-9])


def _flip_payload_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-300] ^= 0x01  # inside the cost block
    path.write_bytes(bytes(raw))


def _bump_version(path):
    header, arrays = load_checkpoint(path)
    header["version"] += 1
    save_checkpoint(path, {k: v for k, v in header.items() if k != "shapes"}, arrays)


@pytest.mark.parametrize("spoil", [_truncate, _flip_payload_byte, _bump_version],
                         ids=["truncated", "flipped-payload-byte", "unknown-version"])
def test_bad_sidecar_falls_back_to_the_text(tmp_path, table30, spoil):
    save_table(table30, tmp_path / "t")
    spoil(tmp_path / "t" / SIDECAR)
    assert not _uses_sidecar(tmp_path / "t")
    assert _outcome(load_table, tmp_path / "t") == _outcome(spec_load_table, tmp_path / "t")


def test_save_table_replaces_the_sidecar_and_load_writes_nothing(tmp_path, table30, small_synth):
    save_table(small_synth, tmp_path / "t")
    save_table(table30, tmp_path / "t")  # same directory, another table
    assert _uses_sidecar(tmp_path / "t")
    before = _saved_bytes(tmp_path / "t")
    assert _outcome(load_table, tmp_path / "t") == _outcome(spec_load_table, tmp_path / "t")
    assert _saved_bytes(tmp_path / "t") == before


def test_save_table_hashes_the_row_files_as_written(tmp_path, monkeypatch, table30):
    # the digests come from the bytes on their way out, across row blocks,
    # and equal the digests of the files read back
    monkeypatch.setattr(dataset_module, "IO_BLOCK", 4)
    monkeypatch.setattr(dataset_module, "_file_sha256",
                        lambda path: pytest.fail(f"save_table read {path.name} back"))
    root = tmp_path / "t"
    save_table(table30, root)
    monkeypatch.undo()
    header, _ = load_checkpoint(root / SIDECAR)
    assert header["sha256"] == {
        name: dataset_module._file_sha256(root / name) for name in dataset_module.ROW_FILES
    }


@pytest.mark.parametrize("n", [30, 3000])
def test_sidecar_load_parses_no_row(tmp_path, monkeypatch, n):
    # two json.loads calls whatever the row count: models.json and the
    # sidecar's header; the text path makes one more per query
    save_table(_synth_k11(n), tmp_path / "t")
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(1) or loads(*a, **k))
    load_table(tmp_path / "t")
    assert len(calls) == 2


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


@pytest.mark.parametrize(
    "key, values, bad",
    [
        ("train", [0, 1, True, "x"], "True"),
        ("valid", [2, 1.0], "1.0"),
        ("test", [None, 3], "None"),
    ],
)
def test_load_split_names_the_first_non_integer_index(tmp_path, key, values, bad):
    payload = {"seed": 5, "train": [0], "valid": [1], "test": [2], key: values}
    (tmp_path / "split.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f'^"{key}" holds a non-integer index {bad}$'):
        load_split(tmp_path / "split.json")


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
    stats = margin_stats(table, float(table.cost.max()), [0.0])
    assert stats.margins.size == table.n_queries  # every query affords the whole pool
    return stats.tie_rate


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
    # infinite knobs are named, not reported later as a non-finite table cell
    with pytest.raises(ValueError, match="cost_spread must be finite"):
        generate_synthetic(SynthConfig(cost_spread=np.inf))
    with pytest.raises(ValueError, match="margin_scale must be finite"):
        generate_synthetic(SynthConfig(margin_scale=np.inf))


def test_generator_embeddings_carry_oracle_signal():
    """A nearest-centroid classifier on the planted winners beats chance."""
    cfg = SynthConfig(
        n_queries=2000, n_models=5, embed_dim=16, tie_fraction=0.5, noise_seed=8
    )
    t = generate_synthetic(cfg)
    # at the full budget every query has a margin, listed in query order
    margins = margin_stats(t, float(t.cost.max()), [0.0]).margins
    labels = np.where(margins == 0, 0, 1 + np.argmax(t.perf, axis=1))
    half = t.n_queries // 2
    centroids = np.stack(
        [t.embeddings[:half][labels[:half] == c].mean(axis=0) for c in range(6)]
    )
    d = ((t.embeddings[half:, None, :] - centroids[None]) ** 2).sum(axis=2)
    acc = float(np.mean(np.argmin(d, axis=1) == labels[half:]))
    assert acc > 2.0 / 6.0  # clearly above the 1/6 chance rate
