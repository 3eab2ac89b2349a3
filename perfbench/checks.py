"""Output checks computed apart from equirouter.

Each check reads the files a CLI command wrote (or one `route()` decision)
and recomputes the figure from its definition with code of its own: numpy
and the csv/json modules only, never an equirouter function. A check raises
`CheckFailed` with a message naming the figure; it returns nothing when the
output holds.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ABS_TOL = 1e-12


class CheckFailed(AssertionError):
    pass


def _close(name: str, got: float, want: float, tol: float = ABS_TOL) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))):
        raise CheckFailed(f"{name}: output {got!r}, recomputed {want!r}")


def read_matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def read_embeddings(path: Path) -> np.ndarray:
    with path.open() as fh:
        return np.array([json.loads(line)["embedding"] for line in fh], dtype=np.float64)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_metrics(out: Path) -> dict:
    return json.loads((out / "metrics.json").read_text())


def expected_test_size(n_queries: int, ratio: tuple[float, float, float]) -> int:
    """Size of the test part: floor(N * r_test / sum(r)); leftovers go to
    train and valid first and there are fewer than three of them."""
    return int(math.floor(n_queries * ratio[2] / sum(ratio)))


def check_split(path: Path, n_queries: int, ratio) -> np.ndarray:
    """The split partitions 0..N-1 and its test part has the ratio's size;
    returns the test indices."""
    payload = json.loads(path.read_text())
    parts = [payload["train"], payload["valid"], payload["test"]]
    union = sorted(i for p in parts for i in p)
    if union != list(range(n_queries)):
        raise CheckFailed(f"{path.name}: parts do not partition 0..{n_queries - 1}")
    test = np.asarray(payload["test"], dtype=np.int64)
    want = expected_test_size(n_queries, ratio)
    if test.size != want:
        raise CheckFailed(f"{path.name}: test part has {test.size} queries, want {want}")
    return test


def check_nauc(out: Path) -> None:
    """nAUC of metrics.json against curve.csv: sort by mean cost, merge equal
    costs keeping the best performance, trapezoid, divide by the cost range."""
    header, rows = read_csv(out / "curve.csv")
    ci, pi = header.index("mean_cost"), header.index("mean_perf")
    pts = sorted((float(r[ci]), float(r[pi])) for r in rows)
    xs: list[float] = []
    ys: list[float] = []
    for x, y in pts:
        if xs and x == xs[-1]:
            ys[-1] = max(ys[-1], y)
        else:
            xs.append(x)
            ys.append(y)
    if len(xs) < 2:
        raise CheckFailed("curve.csv: fewer than two distinct mean costs")
    area = math.fsum((ys[i] + ys[i + 1]) / 2.0 * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))
    _close("nauc", float(read_metrics(out)["nauc"]), area / (xs[-1] - xs[0]), 1e-9)


def check_call_counts(out: Path, n_test: int) -> None:
    """At every budget the per-model call counts sum to the test-split size."""
    header, rows = read_csv(out / "curve.csv")
    cols = [i for i, h in enumerate(header) if h.startswith("calls_model_")]
    for r in rows:
        total = sum(int(r[i]) for i in cols)
        if total != n_test:
            raise CheckFailed(f"curve.csv: calls at budget {r[0]} sum to {total}, want {n_test}")


def collapse_scores(perf: np.ndarray, cost: np.ndarray, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Per-query collapse score s_n of selection m for queries n (paper's RCI)."""
    a, c = perf[n], cost[n]
    rows = np.arange(n.size)
    a_sel, c_sel = a[rows, m], c[rows, m]
    cheaper = c < c_sel[:, None]
    x = cheaper.sum(axis=1)
    k = (cheaper & (a >= a_sel[:, None])).sum(axis=1)
    s = np.where(x > 0, k / np.maximum(x, 1), 0.0)
    return np.where(a_sel < a.max(axis=1), 1.0, s)


def check_rci(out: Path, perf: np.ndarray, cost: np.ndarray, test: np.ndarray) -> float:
    """RCI of metrics.json against rci_detail.csv's (n, m_n) rows; returns it."""
    header, rows = read_csv(out / "rci_detail.csv")
    n = np.array([int(r[header.index("n")]) for r in rows], dtype=np.int64)
    m = np.array([int(r[header.index("m_n")]) for r in rows], dtype=np.int64)
    if not np.array_equal(np.sort(n), np.sort(test)):
        raise CheckFailed("rci_detail.csv: rows are not the test split's queries")
    if m.size and (m.min() < 0 or m.max() >= perf.shape[1]):
        raise CheckFailed("rci_detail.csv: model index out of range")
    rci = float(read_metrics(out)["rci"])
    _close("rci", rci, float(collapse_scores(perf, cost, n, m).mean()))
    return rci


def check_rci_direction(rci_rank: float, rci_mse: float, gap: float = 0.02) -> None:
    """Criterion-7 direction: the ranking router collapses less than MSE."""
    if not rci_rank <= rci_mse - gap:
        raise CheckFailed(f"rci: ranking {rci_rank:.4f} not below mse {rci_mse:.4f} - {gap}")


def check_train_log(path: Path) -> None:
    """Only finite losses, and the last train loss is below the first."""
    header, rows = read_csv(path)
    ti, vi = header.index("train_loss"), header.index("val_loss")
    train = [float(r[ti]) for r in rows]
    valid = [float(r[vi]) for r in rows]
    if not train or not all(math.isfinite(v) for v in train + valid):
        raise CheckFailed(f"{path.name}: missing or non-finite loss")
    if not train[-1] < train[0]:
        raise CheckFailed(f"{path.name}: last train loss {train[-1]} not below first {train[0]}")


def check_margins(out: Path, perf: np.ndarray, cost: np.ndarray, budget: float) -> None:
    """margins.csv against a top-two gap over each query's feasible models
    (cost <= budget); queries with fewer than two feasible models have none."""
    feasible = cost <= budget
    defined = feasible.sum(axis=1) >= 2
    top2 = np.sort(np.where(feasible, perf, -np.inf)[defined], axis=1)[:, -2:]
    gaps = top2[:, 1] - top2[:, 0]
    header, rows = read_csv(out / "margins.csv")
    if not rows:
        raise CheckFailed("margins.csv: no rows")
    for t, cdf in rows:
        _close(f"margin cdf at {t}", float(cdf), float(np.mean(gaps <= float(t))))


def check_noise(out: Path, perf: np.ndarray, test: np.ndarray) -> None:
    """At sigma = 0 the full-budget oracle's accuracy is the mean row maximum."""
    header, rows = read_csv(out / "noise.csv")
    zero = [r for r in rows if float(r[header.index("sigma")]) == 0.0]
    if len(zero) != 1:
        raise CheckFailed("noise.csv: want exactly one sigma = 0 row")
    got = float(zero[0][header.index("accuracy")])
    _close("noise accuracy at sigma 0", got, float(perf[test].max(axis=1).mean()))


def check_callrates(out: Path) -> None:
    """Every budget's call shares sum to one."""
    _, rows = read_csv(out / "callrates.csv")
    for r in rows:
        _close(f"callrates at budget {r[0]}", math.fsum(float(v) for v in r[1:]), 1.0, 1e-9)


def check_oracle_trainset(out: Path) -> None:
    """The oracle picks the cheapest best model, so none cheaper matches it:
    its training-set RCI is exactly 0."""
    rci = float(json.loads((out / "trainset_metrics.json").read_text())["rci"])
    if rci != 0.0:
        raise CheckFailed(f"trainset_metrics.json: oracle rci {rci!r}, want 0.0")


def rule_choice(scores, costs, budget: float) -> tuple[int, bool]:
    """Brute-force routing rule: models with cost <= budget (else the
    cheapest, lowest index first), then highest score, lowest cost, lowest
    index."""
    k = len(scores)
    feasible = [j for j in range(k) if costs[j] <= budget]
    if not feasible:
        return min(range(k), key=lambda j: (costs[j], j)), True
    return min(feasible, key=lambda j: (-scores[j], costs[j], j)), False


def check_decision(d, n: int, budget: float, scores=None, costs=None) -> None:
    """A route() decision names its query and budget and follows the rule on
    the scores and costs it reports; `scores`/`costs`, when given, are the
    values it must report (the oracle's true rows)."""
    if d.query_index != n or d.budget != budget:
        raise CheckFailed(f"decision for ({d.query_index}, {d.budget}), want ({n}, {budget})")
    for name, got, want in (("scores", d.scores, scores), ("costs", d.predicted_costs, costs)):
        if want is not None and not np.array_equal(got, want):
            raise CheckFailed(f"query {n}: decision {name} differ from the table row")
    s = [float(v) for v in d.scores]
    c = [float(v) for v in d.predicted_costs]
    if not all(math.isfinite(v) for v in s + c):
        raise CheckFailed(f"query {n}: non-finite score or cost")
    want_choice, want_clamped = rule_choice(s, c, budget)
    if d.chosen != want_choice or d.feasible_clamped != want_clamped:
        raise CheckFailed(
            f"query {n} budget {budget!r}: chose {d.chosen} (clamped {d.feasible_clamped}), "
            f"rule gives {want_choice} (clamped {want_clamped})"
        )


def knn_reference(q: np.ndarray, ref_emb: np.ndarray, ref_perf: np.ndarray, k: int) -> np.ndarray:
    """Mean perf row of the k nearest reference rows by direct differences;
    distance ties go to the earlier reference row."""
    d2 = ((ref_emb - q[None, :]) ** 2).sum(axis=1)
    nearest = np.argsort(d2, kind="stable")[: min(k, d2.size)]
    return ref_perf[nearest].mean(axis=0)


def check_knn_scores(d, want: np.ndarray) -> None:
    if not np.allclose(d.scores, want, rtol=0.0, atol=ABS_TOL):
        raise CheckFailed(f"query {d.query_index}: kNN scores differ from the direct k nearest rows")
