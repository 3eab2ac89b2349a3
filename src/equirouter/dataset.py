"""Routing-table data model, file formats, deterministic splits, synthetic data.

A routing table is an offline record of how K candidate models behaved on N
queries: one embedding vector per query, an N x K performance matrix and an
N x K strictly-positive cost matrix. Tables are immutable after construction
and safe to share across workers.

On-disk layout of a table directory::

    models.json    array of {"id": int, "name": str, "unit_price": float >= 0}
    queries.jsonl  one {"query_id": str, "embedding": [float, ...]} per line
    perf.csv       N rows x K columns, no header, full decimal precision
    cost.csv       same shape, strictly positive entries
    split.json     {"seed": int, "train": [...], "valid": [...], "test": [...]}
    table.bin      optional binary sidecar of the three row files, see below

Floats are written as ``repr`` writes them, the shortest representation that
parses back to the identical 64-bit value, so save -> load is bit-exact. The
row files' floats come from `_floatfmt.format_rows`, which produces the same
bytes from whole blocks of array operations.

save_table and load_table stream the row files in blocks of IO_BLOCK rows:
besides the table itself, they hold the Python objects of one block and, while
loading, the parsed blocks of the file being read, so working memory is
O(IO_BLOCK) plus about one copy of the result arrays. The block size changes
neither the bytes written nor the values loaded nor any error message.

table.bin is a `neuralnet.save_checkpoint` file that save_table writes last,
after removing any old one. Its header records a format version, the SHA-256
of queries.jsonl, perf.csv and cost.csv, taken from the bytes as they are
written (nothing is read back), the SHA-256 of its array payload and the
query ids joined into one string; its arrays are the embeddings, perf, cost
and the ids' lengths, which cut that string.
load_table uses it only when all four digests match (a content check, like a
hash-checked .pyc; modification times are not trusted), reading each array
straight into its final buffer; any mismatch, unreadable file or unknown
format falls back to parsing the text, with the same values and errors.
load_table never writes, and deleting table.bin only makes loading slower.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._floatfmt import format_rows
from .neuralnet import load_checkpoint, save_checkpoint
from .rng import STREAM_SPLIT, STREAM_SYNTH, make_rng

# Table files are read and written this many rows at a time.
IO_BLOCK = 4096

ROW_FILES = ("queries.jsonl", "perf.csv", "cost.csv")
SIDECAR = "table.bin"
SIDECAR_FORMAT = "equirouter-table"
SIDECAR_VERSION = 1


@dataclass(frozen=True)
class ModelInfo:
    """One candidate model in the pool."""

    model_id: int
    name: str
    unit_price: float


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RoutingTable:
    """Immutable per-query outcomes of a model pool.

    perf[n, j] is the measured performance of model j on query n (any finite
    real; benchmarks mix exact-match and graded scores). cost[n, j] is the
    realized per-query cost, strictly positive.
    """

    models: tuple[ModelInfo, ...]
    query_ids: tuple[str, ...]
    embeddings: np.ndarray  # (N, d_q) float64, read-only
    perf: np.ndarray  # (N, K) float64, read-only
    cost: np.ndarray  # (N, K) float64, read-only

    def __post_init__(self):
        object.__setattr__(self, "embeddings", _readonly(self.embeddings))
        object.__setattr__(self, "perf", _readonly(self.perf))
        object.__setattr__(self, "cost", _readonly(self.cost))
        validate_table(self)

    @property
    def n_queries(self) -> int:
        return len(self.query_ids)

    @property
    def n_models(self) -> int:
        return len(self.models)

    @property
    def embed_dim(self) -> int:
        return self.embeddings.shape[1]


def validate_table(table: RoutingTable) -> None:
    """Raise ValueError on any invariant violation, with coordinates."""
    K = len(table.models)
    if K < 2:
        raise ValueError(f"model pool must have >= 2 models, got {K}")
    ids = [m.model_id for m in table.models]
    if ids != list(range(K)):
        raise ValueError(f"model ids must be contiguous 0..{K - 1}, got {ids}")
    names = [m.name for m in table.models]
    if len(set(names)) != K:
        raise ValueError("model names must be unique")
    for m in table.models:
        if not np.isfinite(m.unit_price):
            raise ValueError(f"non-finite unit_price for model {m.model_id}")
        if m.unit_price < 0:
            raise ValueError(f"negative unit_price for model {m.model_id}")

    N = len(table.query_ids)
    if N < 1:
        raise ValueError("table must contain at least one query")
    if table.embeddings.ndim != 2 or table.embeddings.shape[0] != N:
        raise ValueError(
            f"embeddings shape {table.embeddings.shape} does not match {N} queries"
        )
    if table.embeddings.shape[1] < 1:
        raise ValueError("embedding dimension must be >= 1")
    for name, mat in (("perf", table.perf), ("cost", table.cost)):
        if mat.shape != (N, K):
            raise ValueError(
                f"{name} matrix shape {mat.shape} does not match (N={N}, K={K})"
            )
    # min and max propagate NaN, so both are finite only if every entry is;
    # the checks allocate nothing of the table's size unless they fail
    if not _all_finite(table.embeddings):
        n, d = np.argwhere(~np.isfinite(table.embeddings))[0]
        raise ValueError(f"non-finite embedding value at (query {n}, dim {d})")
    for name, mat in (("perf", table.perf), ("cost", table.cost)):
        if not _all_finite(mat):
            n, j = np.argwhere(~np.isfinite(mat))[0]
            raise ValueError(f"non-finite {name} at ({n},{j})")
    if not table.cost.min() > 0:
        n, j = np.argwhere(table.cost <= 0)[0]
        raise ValueError(f"nonpositive cost at ({n},{j})")


def _all_finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint train/valid/test partition of 0..N-1, stored sorted."""

    train: tuple[int, ...]
    valid: tuple[int, ...]
    test: tuple[int, ...]
    seed: int

    def __post_init__(self):
        parts = [self.train, self.valid, self.test]
        n = sum(len(p) for p in parts)
        union = sorted(i for p in parts for i in p)
        if union != list(range(n)):
            raise ValueError("split parts must partition 0..N-1 exactly once")


def make_split(n: int, ratio: Sequence[float], seed: int) -> SplitIndices:
    """Deterministic shuffled split of `n` items by a positive ratio.

    Part sizes are floor(n * r_i / sum(r)); leftover items go to the earlier
    parts in order train, valid, test. The shuffle is a Philox permutation,
    so identical (n, ratio, seed) always yield identical splits.
    """
    ratio = tuple(float(r) for r in ratio)
    if len(ratio) != 3:
        raise ValueError(f"ratio must have 3 parts, got {len(ratio)}")
    if any(r <= 0 for r in ratio):
        raise ValueError(f"ratio components must be positive, got {ratio}")
    if n < len(ratio):
        raise ValueError(f"cannot split {n} items into {len(ratio)} parts")
    total = sum(ratio)
    shares = [n * r / total for r in ratio]
    if not all(np.isfinite(shares)):
        raise ValueError(f"ratio {ratio} overflows when splitting {n} items")
    sizes = [int(np.floor(s)) for s in shares]
    leftover = n - sum(sizes)
    for i in range(leftover):
        sizes[i] += 1
    perm = make_rng(seed, STREAM_SPLIT).permutation(n)
    a, b = sizes[0], sizes[0] + sizes[1]
    return SplitIndices(
        train=tuple(sorted(int(i) for i in perm[:a])),
        valid=tuple(sorted(int(i) for i in perm[a:b])),
        test=tuple(sorted(int(i) for i in perm[b:])),
        seed=int(seed),
    )


def save_split(split: SplitIndices, path: Path | str) -> None:
    payload = {
        "seed": split.seed,
        "train": list(split.train),
        "valid": list(split.valid),
        "test": list(split.test),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def _is_int(value) -> bool:
    """True for a JSON integer (a Python int, not a bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_split(path: Path | str) -> SplitIndices:
    """A save_split file; ValueError naming the first field that is missing
    or holds something other than integers."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    for key in ("seed", "train", "valid", "test"):
        if key not in payload:
            raise ValueError(f'no "{key}" field')
    if not _is_int(payload["seed"]):
        raise ValueError(f'"seed" is not an integer: {payload["seed"]!r}')
    for key in ("train", "valid", "test"):
        if not isinstance(payload[key], list):
            raise ValueError(f'"{key}" is not a list of indices')
        # one pass over the types; a bool's type is not int
        if not set(map(type, payload[key])) <= {int}:
            bad = next(i for i in payload[key] if not _is_int(i))
            raise ValueError(f'"{key}" holds a non-integer index {bad!r}')
    return SplitIndices(
        train=tuple(payload["train"]),
        valid=tuple(payload["valid"]),
        test=tuple(payload["test"]),
        seed=payload["seed"],
    )


def save_table(table: RoutingTable, path: Path | str) -> None:
    """Write a table directory; load_table(save_table(t)) is t, bit-exact."""
    validate_table(table)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    # no sidecar may outlive the text it was made from, even if writing fails
    (root / SIDECAR).unlink(missing_ok=True)
    models = [
        {"id": m.model_id, "name": m.name, "unit_price": m.unit_price}
        for m in table.models
    ]
    (root / "models.json").write_text(json.dumps(models, sort_keys=True, indent=2) + "\n")
    # json.dumps writes a finite float as its repr, so each line is built
    # directly around format_rows' text; validate_table has already rejected
    # non-finite values
    digests = {}
    with _HashedFile(root / "queries.jsonl") as raw:
        with io.TextIOWrapper(io.BufferedWriter(raw), encoding="ascii") as fh:
            for s in range(0, table.n_queries, IO_BLOCK):
                rows = format_rows(table.embeddings[s:s + IO_BLOCK], ", ").decode("ascii")
                fh.writelines(
                    '{"query_id": ' + json.dumps(qid) + ', "embedding": [' + row + "]}\n"
                    for qid, row in zip(table.query_ids[s:s + IO_BLOCK], rows.split("\n"))
                )
        digests["queries.jsonl"] = raw.digest.hexdigest()
    for name, mat in (("perf.csv", table.perf), ("cost.csv", table.cost)):
        with _HashedFile(root / name) as raw:
            with io.BufferedWriter(raw) as fh:
                for s in range(0, len(mat), IO_BLOCK):
                    fh.write(format_rows(mat[s:s + IO_BLOCK], ","))
            digests[name] = raw.digest.hexdigest()
    # the ids travel as one string and their lengths, not as a JSON list,
    # whose encoder would hold several Python objects per row
    ids = "".join(map(str, table.query_ids))
    id_lengths = np.fromiter(map(len, map(str, table.query_ids)), np.float64, table.n_queries)
    arrays = [table.embeddings, table.perf, table.cost, id_lengths]
    header = {
        "format": SIDECAR_FORMAT,
        "version": SIDECAR_VERSION,
        "sha256": digests,
        "payload_sha256": _payload_sha256(arrays),
        "query_ids": ids,
    }
    save_checkpoint(root / SIDECAR, header, arrays)


class _HashedFile(io.FileIO):
    """A file opened for writing that hashes every byte written to it, so
    table.bin records the digests of the row files without reading them
    back."""

    def __init__(self, path: Path):
        super().__init__(path, "w")
        self.digest = hashlib.sha256()

    def write(self, data) -> int:
        n = super().write(data)
        self.digest.update(memoryview(data)[:n])
        return n


def _file_sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read in fixed 64 KB chunks."""
    digest = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with path.open("rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def _payload_sha256(arrays: Sequence[np.ndarray]) -> str:
    """Hex SHA-256 of the arrays' little-endian float64 bytes, read in place."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").data)
    return digest.hexdigest()


def _load_sidecar(root: Path) -> tuple | None:
    """(query_ids, embeddings, perf, cost) from root's table.bin, or None
    unless it exists, is readable, has this format and version, and both the
    row files and its payload hash to the digests it records."""
    path = root / SIDECAR
    if not path.is_file():
        return None
    try:
        header, arrays = load_checkpoint(path)
        if header.get("format") != SIDECAR_FORMAT or header.get("version") != SIDECAR_VERSION:
            return None
        if any(_file_sha256(root / name) != header["sha256"][name] for name in ROW_FILES):
            return None
        if _payload_sha256(arrays) != header["payload_sha256"]:
            return None
        embeddings, perf, cost, id_lengths = arrays
        ids = header["query_ids"]
        ends = id_lengths.astype(np.int64).cumsum().tolist()
        if not isinstance(ids, str) or ends[-1:] != [len(ids)]:
            return None
        query_ids = tuple(map(ids.__getitem__, map(slice, [0, *ends[:-1]], ends)))
        return query_ids, embeddings, perf, cost
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _line_blocks(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Yield (number of the first line, lines) for consecutive blocks of a file.

    The lines are exactly those of `path.read_text().splitlines()`: text mode
    turns every \\r\\n and \\r into \\n, and splitlines then splits each block
    of up to IO_BLOCK \\n-terminated lines at the other separators it honours
    (\\x0c, \\u2028, ...). A block is never empty.
    """
    with path.open() as fh:
        start = 0
        while lines := "".join(islice(fh, IO_BLOCK)).splitlines():
            yield start, lines
            start += len(lines)


def _raise_row_error(lines: list[str], start: int, width: int, what: str) -> None:
    """Raise the error of the first malformed CSV row; rows count from start."""
    for i, line in enumerate(lines, start):
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"{what} row {i} has {len(cells)} columns, expected {width}")
        try:
            list(map(float, cells))
        except ValueError as exc:
            raise ValueError(f"unparseable {what} value in row {i}") from exc


def _load_matrix(path: Path, what: str) -> np.ndarray:
    if not path.is_file():
        raise FileNotFoundError(f"missing {path.name}")
    blocks = []
    width = None
    for start, lines in _line_blocks(path):
        if width is None:
            width = lines[0].count(",") + 1
        if set(map(str.count, lines, repeat(","))) != {width - 1}:
            _raise_row_error(lines, start, width, what)
        try:
            values = np.fromiter(map(float, ",".join(lines).split(",")), np.float64,
                                 len(lines) * width)
        except ValueError:
            _raise_row_error(lines, start, width, what)
            raise
        blocks.append(values.reshape(len(lines), width))
    if not blocks:
        raise ValueError(f"{what} matrix is empty")
    return np.concatenate(blocks)


def _raise_query_error(lines: list[str], start: int, dim: int | None) -> None:
    """Raise the error of the first malformed queries.jsonl line; lines count
    from start, and dim None takes the first line's dimension."""
    for i, line in enumerate(lines, start):
        rec = json.loads(line)
        emb = rec["embedding"]
        if dim is None:
            dim = len(emb)
        elif len(emb) != dim:
            raise ValueError(
                f"embedding dimension mismatch at query {i}: {len(emb)} != {dim}"
            )
        str(rec["query_id"])
        list(map(float, emb))


def _load_queries(path: Path) -> tuple[tuple[str, ...], np.ndarray]:
    query_ids: list[str] = []
    blocks = []
    dim = None
    for start, lines in _line_blocks(path):
        # float() per value, not np.array on the lists: that would let None through as NaN
        try:
            recs = list(map(json.loads, lines))
            embs = [rec["embedding"] for rec in recs]
            block_dim = len(embs[0]) if dim is None else dim
            if set(map(len, embs)) != {block_dim}:
                raise ValueError("embedding dimension mismatch")
            ids = [str(rec["query_id"]) for rec in recs]
            values = np.fromiter(map(float, chain.from_iterable(embs)), np.float64,
                                 len(embs) * block_dim)
        except (ValueError, TypeError, KeyError):
            _raise_query_error(lines, start, dim)
            raise
        dim = block_dim
        query_ids += ids
        blocks.append(values.reshape(len(embs), dim))
    if not blocks:
        raise ValueError("queries.jsonl is empty")
    return tuple(query_ids), np.concatenate(blocks)


def _load_models(path: Path) -> tuple[ModelInfo, ...]:
    """models.json's entries sorted by id; ValueError naming the file on
    malformed JSON, or the first entry with a missing field or a value of the
    wrong type."""
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path.name}: {exc}") from exc
    if not isinstance(raw, list):
        raise ValueError(f"{path.name} is not a JSON array")
    models = []
    for n, entry in enumerate(raw):
        for key in ("id", "name", "unit_price"):
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(f'{path.name} entry {n} has no "{key}"')
        if not _is_int(entry["id"]):
            raise ValueError(f'{path.name} entry {n}: "id" is not an integer: {entry["id"]!r}')
        try:
            models.append(ModelInfo(model_id=entry["id"], name=str(entry["name"]),
                                    unit_price=float(entry["unit_price"])))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path.name} entry {n}: {exc}") from exc
    return tuple(sorted(models, key=lambda m: m.model_id))


def load_table(path: Path | str) -> RoutingTable:
    """Load and validate a table directory written by save_table, from its
    table.bin sidecar when that provably matches the text files."""
    root = Path(path)
    models_path = root / "models.json"
    if not models_path.is_file():
        raise FileNotFoundError(f"missing {models_path}")
    models = _load_models(models_path)

    queries_path = root / "queries.jsonl"
    if not queries_path.is_file():
        raise FileNotFoundError(f"missing {queries_path}")
    sidecar = _load_sidecar(root)
    if sidecar is not None:
        query_ids, embeddings, perf, cost = sidecar
    else:
        query_ids, embeddings = _load_queries(queries_path)
        perf = _load_matrix(root / "perf.csv", "perf")
        cost = _load_matrix(root / "cost.csv", "cost")
    return RoutingTable(
        models=models, query_ids=query_ids, embeddings=embeddings, perf=perf, cost=cost
    )


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic routing-table generator.

    tie_fraction controls the share of queries whose top performance is
    attained by every model in the pool (margin exactly zero); the remaining
    queries have a single planted best model with a top-two gap of roughly
    margin_scale. cost_spread is the ratio between the most and least
    expensive model's mean cost.
    """

    n_queries: int = 5000
    n_models: int = 6
    embed_dim: int = 32
    tie_fraction: float = 0.95
    margin_scale: float = 0.2
    cost_spread: float = 50.0
    noise_seed: int = 0


def validate_synth_config(cfg: SynthConfig) -> None:
    if cfg.n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    if cfg.n_models < 2:
        raise ValueError("n_models must be >= 2")
    if cfg.embed_dim < 1:
        raise ValueError("embed_dim must be >= 1")
    if not (0.0 <= cfg.tie_fraction <= 1.0):
        raise ValueError("tie_fraction must be in [0, 1]")
    # an infinite value would surface later as a non-finite table cell
    if not (np.isfinite(cfg.margin_scale) and cfg.margin_scale > 0):
        raise ValueError(f"margin_scale must be finite and > 0, got {cfg.margin_scale}")
    if not (np.isfinite(cfg.cost_spread) and cfg.cost_spread > 1):
        raise ValueError(f"cost_spread must be finite and > 1, got {cfg.cost_spread}")


def generate_synthetic(cfg: SynthConfig) -> RoutingTable:
    """Generate a routing table with controllable tie structure.

    Construction, fully determined by cfg:
      * each query is a tie query with probability tie_fraction: every model
        scores 1.0; otherwise one planted winner scores 1.0 and the others
        score 1 - margin_scale * (1 + u), u ~ U[0, 1);
      * the embedding is a unit prototype vector for the query's class (tie,
        or winner identity) plus isotropic Gaussian noise, so the oracle
        decision is recoverable from the embedding well above chance;
      * per-model base costs form a geometric ladder from 1 to cost_spread
        (model K-1 is always the most expensive), scaled by a per-query
        factor that is a fixed function of the finished embedding, which
        makes cost a learnable deterministic target.
    """
    validate_synth_config(cfg)
    rng = make_rng(cfg.noise_seed, STREAM_SYNTH)
    N, K, d = cfg.n_queries, cfg.n_models, cfg.embed_dim

    prototypes = rng.standard_normal((K + 1, d))  # row K is the tie prototype
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    cost_dir = rng.standard_normal(d)
    cost_dir /= np.linalg.norm(cost_dir)

    tie = rng.random(N) < cfg.tie_fraction
    winner = rng.integers(0, K, size=N)
    emb = 0.5 * rng.standard_normal((N, d))
    emb[tie] += prototypes[K]
    emb[~tie] += prototypes[winner[~tie]]

    perf = np.ones((N, K))
    gaps = cfg.margin_scale * (1.0 + rng.random((N, K)))
    loser = ~tie[:, None] & (np.arange(K)[None, :] != winner[:, None])
    perf[loser] = 1.0 - gaps[loser]

    base = cfg.cost_spread ** (np.arange(K) / (K - 1))
    scale = np.exp(0.25 * (emb @ cost_dir))
    cost = scale[:, None] * base[None, :]

    models = tuple(
        ModelInfo(model_id=j, name=f"model_{j}", unit_price=float(base[j]) * 1e-6)
        for j in range(K)
    )
    query_ids = tuple(f"q{n:06d}" for n in range(N))
    return RoutingTable(
        models=models, query_ids=query_ids, embeddings=emb, perf=perf, cost=cost
    )
