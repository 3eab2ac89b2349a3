"""Routing-table data model, file formats, deterministic splits, synthetic data.

A routing table is an offline record of how K candidate models behaved on N
queries: one embedding vector per query, an N x K performance matrix and an
N x K strictly-positive cost matrix. Tables are immutable after construction
and safe to share across workers.

On-disk layout of a table directory::

    models.json    array of {"id": int, "name": str, "unit_price": float}
    queries.jsonl  one {"query_id": str, "embedding": [float, ...]} per line
    perf.csv       N rows x K columns, no header, full decimal precision
    cost.csv       same shape, strictly positive entries
    split.json     {"seed": int, "train": [...], "valid": [...], "test": [...]}

Floats are written with ``repr``, the shortest representation that parses
back to the identical 64-bit value, so save -> load is bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .rng import STREAM_SPLIT, STREAM_SYNTH, make_rng


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
        if not (m.unit_price >= 0):
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
    bad = np.argwhere(~np.isfinite(table.embeddings))
    if bad.size:
        n, d = bad[0]
        raise ValueError(f"non-finite embedding value at (query {n}, dim {d})")
    for name, mat in (("perf", table.perf), ("cost", table.cost)):
        bad = np.argwhere(~np.isfinite(mat))
        if bad.size:
            n, j = bad[0]
            raise ValueError(f"non-finite {name} at ({n},{j})")
    bad = np.argwhere(table.cost <= 0)
    if bad.size:
        n, j = bad[0]
        raise ValueError(f"nonpositive cost at ({n},{j})")


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
    sizes = [int(np.floor(n * r / total)) for r in ratio]
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


def load_split(path: Path | str) -> SplitIndices:
    payload = json.loads(Path(path).read_text())
    return SplitIndices(
        train=tuple(payload["train"]),
        valid=tuple(payload["valid"]),
        test=tuple(payload["test"]),
        seed=int(payload["seed"]),
    )


def save_table(table: RoutingTable, path: Path | str) -> None:
    """Write a table directory; load_table(save_table(t)) is t, bit-exact."""
    validate_table(table)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    models = [
        {"id": m.model_id, "name": m.name, "unit_price": m.unit_price}
        for m in table.models
    ]
    (root / "models.json").write_text(json.dumps(models, sort_keys=True, indent=2) + "\n")
    # json.dumps writes a finite float as its repr, so each line is built
    # directly; validate_table has already rejected non-finite values
    with (root / "queries.jsonl").open("w") as fh:
        fh.writelines(
            '{"query_id": ' + json.dumps(qid)
            + ', "embedding": [' + ", ".join(map(repr, emb)) + "]}\n"
            for qid, emb in zip(table.query_ids, table.embeddings.tolist())
        )
    for name, mat in (("perf", table.perf), ("cost", table.cost)):
        with (root / f"{name}.csv").open("w") as fh:
            fh.writelines(",".join(map(repr, row)) + "\n" for row in mat.tolist())


def _load_matrix(path: Path, what: str) -> np.ndarray:
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


def load_table(path: Path | str) -> RoutingTable:
    """Load and validate a table directory written by save_table."""
    root = Path(path)
    models_path = root / "models.json"
    if not models_path.is_file():
        raise FileNotFoundError(f"missing {models_path}")
    raw_models = json.loads(models_path.read_text())
    models = tuple(
        ModelInfo(model_id=int(m["id"]), name=str(m["name"]), unit_price=float(m["unit_price"]))
        for m in sorted(raw_models, key=lambda m: int(m["id"]))
    )

    queries_path = root / "queries.jsonl"
    if not queries_path.is_file():
        raise FileNotFoundError(f"missing {queries_path}")
    query_ids: list[str] = []
    embeddings: list[list[float]] = []
    dim = None
    for i, line in enumerate(queries_path.read_text().splitlines()):
        rec = json.loads(line)
        emb = rec["embedding"]
        if dim is None:
            dim = len(emb)
        elif len(emb) != dim:
            raise ValueError(
                f"embedding dimension mismatch at query {i}: {len(emb)} != {dim}"
            )
        query_ids.append(str(rec["query_id"]))
        embeddings.append([float(v) for v in emb])
    if not query_ids:
        raise ValueError("queries.jsonl is empty")

    perf = _load_matrix(root / "perf.csv", "perf")
    cost = _load_matrix(root / "cost.csv", "cost")
    return RoutingTable(
        models=models,
        query_ids=tuple(query_ids),
        embeddings=np.asarray(embeddings, dtype=np.float64),
        perf=perf,
        cost=cost,
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
        raise ValueError("tie_fraction must lie in [0, 1]")
    if not (cfg.margin_scale > 0):
        raise ValueError("margin_scale must be positive")
    if not (cfg.cost_spread > 1):
        raise ValueError("cost_spread must exceed 1")


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
