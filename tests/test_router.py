import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirouter.dataset import ModelInfo, RoutingTable, SynthConfig, generate_synthetic, make_split
from equirouter.neuralnet import load_checkpoint, save_checkpoint
from equirouter.oracle import prefix_table, select_under_budget
import equirouter.neuralnet as neuralnet_module
import equirouter.router as router_module
from equirouter.rng import make_rng
from equirouter.router import (
    EQUI_TAGS,
    CostPredictorParams,
    EquiHyper,
    KnnRouterParams,
    MlpHyper,
    MlpRouterParams,
    OracleRouter,
    _assign_layers,
    _fit,
    _backward_scores,
    _forward_scores,
    _init_two_layer,
    _layer_params,
    _model_terms,
    _nearest,
    _regressor_objective,
    _workspace,
    assign_params,
    build_pair_set,
    filter_costs,
    init_equirouter,
    knn_scores,
    load_router,
    mse_objective,
    params_list,
    predict_costs,
    ranking_loss,
    ranking_objective,
    route,
    router_scores,
    save_cost_predictor,
    save_router,
    scores_batch,
    train_cost_predictor,
    train_equirouter,
    train_knn_router,
    train_mlp_router,
    train_mse_ablation,
)

from conftest import build_pairs, grad_check, make_table, one_query, oracle_select


def tiny_hyper(d_q, k, seed=0, **kw):
    defaults = dict(d_m=6, latent_dim=8, epochs=30, batch_size=64, learning_rate=3e-3)
    defaults.update(kw)
    return EquiHyper(d_q=d_q, n_models=k, seed=seed, **defaults)


def variant(joint: bool) -> str:
    """The tag of the joint-feature EquiRouter or of its no-joint ablation."""
    return "equirouter" if joint else "equirouter_nojoint"


# ---------------------------------------------------------------------------
# building blocks: reference specs of one model's modulation and joint
# feature, which `_reference_scores` composes into a per-model score


def film_modulate(z: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Elementwise affine modulation gamma * z + beta."""
    z, gamma, beta = (np.asarray(v, dtype=np.float64) for v in (z, gamma, beta))
    if not (z.shape == gamma.shape == beta.shape):
        raise ValueError(
            f"dimension mismatch: z {z.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    return gamma * z + beta


def joint_feature(z_j: np.ndarray, e_j: np.ndarray) -> np.ndarray:
    """Interaction feature [z_j, e_j, z_j * e_j, |z_j - e_j|], length 4D."""
    z_j = np.asarray(z_j, dtype=np.float64)
    e_j = np.asarray(e_j, dtype=np.float64)
    if z_j.shape != e_j.shape:
        raise ValueError(f"dimension mismatch: {z_j.shape} vs {e_j.shape}")
    return np.concatenate([z_j, e_j, z_j * e_j, np.abs(z_j - e_j)])


def test_film_identity():
    z = np.array([0.3, -0.7])
    assert np.array_equal(film_modulate(z, np.ones(2), np.zeros(2)), z)


def test_film_constant():
    beta = np.array([5.0, -1.0])
    assert np.array_equal(film_modulate(np.array([9.0, 9.0]), np.zeros(2), beta), beta)


def test_film_elementwise():
    out = film_modulate(np.array([1.0, 2.0]), np.array([2.0, 0.5]), np.array([-1.0, 1.0]))
    assert out == pytest.approx([1.0, 2.0])


def test_film_dimension_mismatch():
    with pytest.raises(ValueError):
        film_modulate(np.ones(2), np.ones(3), np.ones(2))


def test_joint_feature_zero_difference_block():
    v = np.array([1.5, -2.0])
    out = joint_feature(v, v)
    assert np.array_equal(out, np.concatenate([v, v, v * v, np.zeros(2)]))


def test_joint_feature_length():
    assert joint_feature(np.ones(3), np.ones(3)).shape == (12,)


def test_joint_feature_values():
    out = joint_feature(np.array([1.0, -1.0]), np.array([2.0, 3.0]))
    assert out == pytest.approx([1, -1, 2, 3, 2, -3, 1, 4])


# ---------------------------------------------------------------------------
# scoring


def _reference_scores(p, x):
    """Straight-line per-model reimplementation of the scoring pipeline."""

    def dense(layer, v):
        out = layer.weight @ v + layer.bias
        return np.maximum(out, 0.0) if layer.activation == "relu" else out

    z = x
    for layer in p.trunk:
        z = dense(layer, z)
    D = z.size
    scores = []
    for j in range(p.model_embeddings.shape[0]):
        m = p.model_embeddings[j]
        gb = dense(p.film_proj, m)
        zj = film_modulate(z, gb[:D], gb[D:])
        ej = dense(p.model_proj, m)
        h = joint_feature(zj, ej) if p.joint_feature else np.concatenate([zj, ej])
        for layer in p.score_head:
            h = dense(layer, h)
        scores.append(h[0])
    return np.array(scores)


def test_score_all_identical_model_embeddings_tie():
    p = init_equirouter(tiny_hyper(5, 3, seed=2))
    p.model_embeddings = np.tile(p.model_embeddings[0], (3, 1))
    s = scores_batch(p, np.arange(5.0)[None])[0]
    assert s[0] == s[1] == s[2]


def test_score_all_zeroed_head_gives_bias():
    p = init_equirouter(tiny_hyper(5, 3, seed=3))
    for layer in p.score_head:
        layer.weight = np.zeros_like(layer.weight)
    p.score_head[-1].bias = np.array([0.25])
    assert scores_batch(p, np.zeros((1, 5)))[0] == pytest.approx([0.25, 0.25, 0.25])


@pytest.mark.parametrize("joint", [True, False])
def test_score_all_matches_reference_pipeline(joint):
    p = init_equirouter(tiny_hyper(6, 4, seed=4), variant(joint))
    rng = make_rng(9, 0)
    for _ in range(5):
        x = rng.standard_normal(6)
        assert scores_batch(p, x[None])[0] == pytest.approx(_reference_scores(p, x), rel=1e-12)


def _tie_first_coordinate(p):
    """Zero the first latent coordinate of gamma, beta and e_j: there z_j ==
    e_j == 0 exactly for every query and model, so |z_j - e_j| meets sign(0)."""
    D = p.latent_dim
    p.film_proj.weight[[0, D]] = 0.0
    p.film_proj.bias[[0, D]] = 0.0
    p.model_proj.weight[0] = 0.0
    p.model_proj.bias[0] = 0.0


@pytest.mark.parametrize("joint", [True, False])
def test_scores_batch_matches_reference_pipeline(joint):
    p = init_equirouter(tiny_hyper(6, 4, seed=6), variant(joint))
    _tie_first_coordinate(p)
    Q = make_rng(11, 0).standard_normal((9, 6))
    S = scores_batch(p, Q)
    assert S.shape == (9, 4)
    for n in range(9):
        assert S[n] == pytest.approx(_reference_scores(p, Q[n]), rel=1e-12)


def test_score_permutation_invariance():
    p = init_equirouter(tiny_hyper(5, 4, seed=5))
    x = make_rng(10, 0).standard_normal(5)
    base = scores_batch(p, x[None])[0]
    perm = np.array([2, 0, 3, 1])
    p.model_embeddings = p.model_embeddings[perm]
    assert scores_batch(p, x[None])[0] == pytest.approx(base[perm], rel=1e-12)


def per_query_mac_counts(p) -> tuple[int, int]:
    """Reference spec: (trunk_macs, per_model_macs), the multiply-accumulate
    counts per query of `scores_batch`.

    The trunk runs once per query regardless of K. The modulation and the
    head's z_j and z_j * e_j blocks are affine in z, so they fold into one
    D x D matrix per model; the joint head adds gamma * z + (beta - e_j),
    its absolute value and the |z_j - e_j| block, and both heads the output
    layer D -> 1. The film/proj projections, the folded matrices and the
    per-model constants depend only on the model embeddings and are computed
    once per parameter set, so they amortize to zero per query.
    """
    trunk = sum(l.in_dim * l.out_dim for l in p.trunk)
    D = p.latent_dim
    per_model = D * D + D  # the folded matrix, and the head's output layer
    if p.joint_feature:
        per_model += 2 * D + D * D  # gamma * z + (beta - e_j), |.|; block v
    return trunk, per_model


def test_per_query_mac_counts_linear_in_k():
    h4 = tiny_hyper(5, 4)
    h8 = tiny_hyper(5, 8)
    trunk4, per_model4 = per_query_mac_counts(init_equirouter(h4))
    trunk8, per_model8 = per_query_mac_counts(init_equirouter(h8))
    assert trunk4 == trunk8  # trunk cost independent of pool size
    assert per_model4 == per_model8  # per-model cost independent of K
    total = lambda trunk, per, k: trunk + k * per
    assert total(trunk8, per_model8, 8) - total(trunk4, per_model4, 4) == 4 * per_model4


@pytest.mark.parametrize("joint", [True, False])
def test_per_query_mac_counts_exact(joint):
    # d_q=5, D=8: the trunk is 5*8 + 8*8; per model, the joint head applies
    # D*D (folded z_j and u blocks) + 2D (X and |X|) + D*D (v block) + D
    # (output), 2D^2 + 3D; the no-joint head D*D + D; the e_j block is per
    # parameter set
    p = init_equirouter(tiny_hyper(5, 4), variant(joint))
    per_model = 64 + 2 * 8 + 64 + 8 if joint else 64 + 8
    assert per_query_mac_counts(p) == (5 * 8 + 8 * 8, per_model)


# ---------------------------------------------------------------------------
# scoring in fixed blocks of SCORE_BLOCK rows


@pytest.fixture(scope="module")
def k11_table():
    return generate_synthetic(
        SynthConfig(n_queries=2049, n_models=11, embed_dim=24, tie_fraction=0.5, noise_seed=5)
    )


@pytest.mark.parametrize("n", [511, 512, 513, 767, 1000, 2049])
def test_block_scoring_is_bitwise_one_batch(monkeypatch, k11_table, n):
    # fixed 256-row blocks keep every row where the one-batch BLAS products
    # put it, so scores agree to the bit, not just to rounding
    t, idx = k11_table, np.arange(n)
    Q = t.embeddings[idx]
    equi = [
        init_equirouter(EquiHyper(d_q=24, n_models=11, d_m=16, latent_dim=64), variant(j))
        for j in (True, False)
    ]
    h = MlpHyper(d_q=24, n_models=11, hidden=64)
    mlp = MlpRouterParams(_init_two_layer(h), hyper=h)
    cp = CostPredictorParams(
        _init_two_layer(MlpHyper(d_q=24, n_models=11, hidden=64, seed=1)),
        target_mean=np.linspace(1.0, 3.0, 11),
        target_std=np.linspace(0.5, 1.5, 11),
        hyper=h,
    )
    knn = train_knn_router(t, (np.arange(0, 2049, 2), np.array([], dtype=int)), k=9)

    def scores():
        return [
            *(scores_batch(p, Q) for p in equi),
            predict_costs(cp, Q),
            router_scores(mlp, t, idx),
            knn_scores(knn, t, Q),
        ]

    blocked = scores()
    monkeypatch.setattr(router_module, "SCORE_BLOCK", n)  # n < 2 * n: one call
    for got, want in zip(blocked, scores()):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("n, sizes", [
    (1, [1]), (511, [511]), (512, [256, 256]), (767, [256, 511]), (768, [256, 256, 256]),
])
def test_scores_batch_block_sizes(monkeypatch, n, sizes):
    p = init_equirouter(tiny_hyper(5, 3))
    seen = []
    forward_scores = router_module._forward_scores

    def counting(p, Q, *args):
        seen.append(len(Q))
        return forward_scores(p, Q, *args)

    monkeypatch.setattr(router_module, "_forward_scores", counting)
    Q = make_rng(1, 0).standard_normal((n, 5))
    S = scores_batch(p, Q)
    assert seen == sizes and S.shape == (n, 3)
    if n == 1:  # the single-query route() path is one call too
        seen.clear()
        table = make_table(perf=np.zeros((1, 3)), cost=np.ones((1, 3)), embeddings=Q)
        assert np.array_equal(route(p, table, 0, 1.0).scores, S[0]) and seen == [1]


def test_scores_batch_memory_flat_in_batch_size():
    # beyond the (N, K) result itself, scoring holds one block's arrays; the
    # one-time model-term cache is built before either measurement
    p = init_equirouter(EquiHyper(d_q=24, n_models=11, d_m=16, latent_dim=64))
    scores_batch(p, make_rng(2, 0).standard_normal((1, 24)))

    def working_memory(n):
        Q = make_rng(2, 0).standard_normal((n, 24))
        tracemalloc.start()
        try:
            S = scores_batch(p, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - S.nbytes

    assert working_memory(16384) <= 1.10 * working_memory(4096)


# ---------------------------------------------------------------------------
# model-side terms, computed once per parameter set for scoring


def _uncached_scores(p, Q):
    return _forward_scores(p, Q, _model_terms(p))[0]


@pytest.mark.parametrize("joint", [True, False])
@pytest.mark.parametrize("k", [3, 11])
def test_cached_scores_are_bytewise_uncached(joint, k):
    p = init_equirouter(
        EquiHyper(d_q=24, n_models=k, d_m=16, latent_dim=128, seed=2), variant(joint)
    )
    Q = make_rng(3, 0).standard_normal((600, 24))
    for n in (1, 256, 600):  # one row, one block, two blocks
        assert scores_batch(p, Q[:n]).tobytes() == _uncached_scores(p, Q[:n]).tobytes()
    table = make_table(perf=np.zeros((600, k)), cost=np.ones((600, k)), embeddings=Q)
    for n in (0, 1, 599):
        want = _uncached_scores(p, Q[[n]])[0]
        assert route(p, table, n, 1.0).scores.tobytes() == want.tobytes()


# the arrays the model-side terms read, as (owner, attribute) and as their
# position in `params_list`
def _keyed_arrays(p):
    first = p.score_head[0]
    return [
        (p, "model_embeddings", 0), (p.film_proj, "weight", 5), (p.film_proj, "bias", 6),
        (p.model_proj, "weight", 7), (p.model_proj, "bias", 8),
        (first, "weight", 9), (first, "bias", 10),
    ]


@pytest.mark.parametrize("how", ["assign_params", "attribute"])
def test_replacing_a_keyed_array_refreshes_the_terms(how):
    p = init_equirouter(tiny_hyper(5, 4, seed=11))
    Q = make_rng(12, 0).standard_normal((7, 5))
    for i in range(7):
        before = scores_batch(p, Q)  # builds the terms for the current arrays
        owner, name, pos = _keyed_arrays(p)[i]
        old = getattr(owner, name)
        new = old + 0.05 * make_rng(13, i).standard_normal(old.shape)
        if how == "assign_params":
            values = params_list(p)
            values[pos] = new
            assign_params(p, values)
        else:
            setattr(owner, name, new)
        after = scores_batch(p, Q)
        assert not np.array_equal(after, before), name
        assert after.tobytes() == _uncached_scores(p, Q).tobytes(), name


def test_route_computes_model_terms_once(monkeypatch):
    # a repeated single-query route() runs only the trunk's two layers and
    # the head's output layer; film, projection, c and W1^T are reused.
    # Predicted costs add the cost predictor's two layers.
    calls = []
    forward = neuralnet_module.forward

    def counting(layer, x):
        calls.append(x.shape)
        return forward(layer, x)

    monkeypatch.setattr(neuralnet_module, "forward", counting)
    monkeypatch.setattr(router_module, "forward", counting)
    p = init_equirouter(tiny_hyper(5, 3, seed=1))
    Q = make_rng(14, 0).standard_normal((4, 5))
    table = make_table(perf=np.zeros((4, 3)), cost=np.ones((4, 3)), embeddings=Q)
    cp, _ = train_cost_predictor(table, (np.arange(4), np.array([], dtype=int)),
                                 MlpHyper(d_q=5, n_models=3, hidden=4, epochs=1))
    route(p, table, 0, 1.0, cost_source="oracle")
    for n in (1, 2, 3, 1):
        calls.clear()
        route(p, table, n, 1.0, cost_source="oracle")
        assert len(calls) == 3
        calls.clear()
        route(p, table, n, 1.0, "predicted", cp)
        assert len(calls) == 5


# ---------------------------------------------------------------------------
# training workspace: one buffer for every (B, K, D) intermediate of a run


@pytest.mark.parametrize("joint", [True, False])
@pytest.mark.parametrize("k, d, rows, score_rows", [(5, 7, 9, 12), (6, 32, 256, 500)])
def test_workspace_forward_backward_are_bytewise_fresh(joint, k, d, rows, score_rows):
    # a full batch, a shorter last batch and a scoring block larger than the
    # batch; odd sizes put slots at offsets that are not 16-byte aligned
    p = init_equirouter(
        EquiHyper(d_q=4, n_models=k, d_m=5, latent_dim=d, seed=3), variant(joint)
    )
    terms = _model_terms(p)
    workspace = _workspace(p, rows, score_rows)
    rng = make_rng(21, 0)
    for b in (rows, rows // 2 + 1):
        Q, dS = rng.standard_normal((b, 4)), rng.standard_normal((b, k))
        want_s, cache = _forward_scores(p, Q, terms)
        want_g = _backward_scores(p, cache, dS)
        got_s, cache = _forward_scores(p, Q, terms, workspace)
        got_g = _backward_scores(p, cache, dS)
        assert got_s.tobytes() == want_s.tobytes()  # and not overwritten by backward
        assert [g.tobytes() for g in got_g] == [g.tobytes() for g in want_g]
    Q = rng.standard_normal((score_rows, 4))
    assert (scores_batch(p, Q, workspace).tobytes()
            == _forward_scores(p, Q, terms)[0].tobytes())


def _largest_allocation_per_call(monkeypatch, names):
    """Wrap router functions; per call, record the largest rise of traced
    memory within one bytecode of the call (and of everything it calls in
    Python), which no allocation made by that bytecode can exceed unseen."""
    state = {"rise": 0, "base": 0}
    seen = {name: [] for name in names}

    def opcode_tracer(frame, event, arg):
        frame.f_trace_opcodes = True
        state["rise"] = max(state["rise"], tracemalloc.get_traced_memory()[1] - state["base"])
        tracemalloc.reset_peak()
        state["base"] = tracemalloc.get_traced_memory()[0]
        return opcode_tracer

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            state["rise"] = 0
            tracemalloc.reset_peak()
            state["base"] = tracemalloc.get_traced_memory()[0]
            sys.settrace(opcode_tracer)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.settrace(None)
                opcode_tracer(sys._getframe(), "return", None)
                seen[name].append(state["rise"])
        return wrapper

    for name in names:
        monkeypatch.setattr(router_module, name, spy(name, getattr(router_module, name)))
    return seen


@pytest.mark.parametrize("objective", ["rank", "mse"])
def test_training_allocates_no_bkd_array_after_the_first_batch(monkeypatch, objective):
    # criterion-7 sizes, K=6 and D=32 at batch 256, with a 128-row last batch
    # and 300 validation rows; only numpy's fixed iteration buffers and
    # arrays of (B, K, K), (B, D) or parameter size remain per call
    t = generate_synthetic(
        SynthConfig(n_queries=940, n_models=6, embed_dim=8, tie_fraction=0.5, noise_seed=3)
    )
    split = (np.arange(640), np.arange(640, 940))
    hyper = EquiHyper(d_q=8, n_models=6, d_m=8, latent_dim=32, epochs=2, batch_size=256)
    name = "ranking_objective" if objective == "rank" else "mse_objective"
    seen = _largest_allocation_per_call(monkeypatch, [name, "scores_batch"])
    tracemalloc.start()
    try:
        (train_equirouter if objective == "rank" else train_mse_ablation)(t, split, hyper)
    finally:
        tracemalloc.stop()
    assert len(seen[name]) == 6 and len(seen["scores_batch"]) == 2
    bkd_bytes = 256 * 6 * 32 * 8
    assert max(seen[name][1:] + seen["scores_batch"]) < bkd_bytes


def test_workspace_training_peak_is_no_higher_than_allocating(monkeypatch):
    # K=11, D=128 at the default batch of 2048 (capped at the 600 training
    # rows), 700 validation rows scored in blocks of 256 and 444 rows
    t = generate_synthetic(
        SynthConfig(n_queries=1300, n_models=11, embed_dim=16, tie_fraction=0.5, noise_seed=2)
    )
    split = (np.arange(600), np.arange(600, 1300))
    hyper = EquiHyper(d_q=16, n_models=11, d_m=16, latent_dim=128, epochs=1, batch_size=2048)

    def traced_training():
        tracemalloc.start()
        try:
            params, _ = train_equirouter(t, split, hyper)
            return params, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    params, peak = traced_training()
    # without a workspace every intermediate is allocated where it is made
    monkeypatch.setattr(router_module, "_workspace", lambda *args: None)
    params_alloc, peak_alloc = traced_training()
    assert [v.tobytes() for v in params_list(params)] == [
        v.tobytes() for v in params_list(params_alloc)]
    assert peak <= peak_alloc


# ---------------------------------------------------------------------------
# pair construction and ranking loss


def test_build_pairs_mixed():
    pairs = build_pairs(np.array([1.0, 1.0, 0.0]), np.array([2.0, 1.0, 1.0]))
    assert set(map(tuple, pairs)) == {(0, 2), (1, 2), (1, 0)}


def test_build_pairs_empty_when_indistinguishable():
    pairs = build_pairs(np.array([0.5, 0.5]), np.array([1.0, 1.0]))
    assert len(pairs) == 0


def test_build_pairs_single_dominance():
    pairs = build_pairs(np.array([0.0, 1.0]), np.array([9.0, 9.0]))
    assert set(map(tuple, pairs)) == {(1, 0)}


def test_build_pairs_irreflexive_antisymmetric():
    rng = make_rng(20, 0)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        a = np.round(rng.random(k), 1)
        c = np.round(rng.random(k), 1)
        pairs = set(map(tuple, build_pairs(a, c)))
        assert not any(i == j for i, j in pairs)
        assert not any((j, i) in pairs for i, j in pairs)


def test_pair_soundness_against_oracle():
    """If (i, j) is a pair, the oracle never chooses j when both are feasible."""
    rng = make_rng(21, 0)
    a = np.round(rng.random((20, 4)), 1)
    c = np.round(rng.random((20, 4)), 2) + 0.05
    t = make_table(perf=a, cost=c)
    for n in range(20):
        pairs = build_pairs(a[n], c[n])
        pick = oracle_select(t, n, budget=10.0)  # everything feasible
        # the oracle pick can never sit on the losing side of a pair
        assert not any(j == pick for _, j in pairs)


def test_ranking_loss_equal_scores_is_ln2():
    pairs = np.array([(0, 1), (2, 0)])
    assert ranking_loss(*one_query(np.zeros(3), pairs)) == pytest.approx(math.log(2), abs=1e-9)


def test_ranking_loss_hand_value():
    assert ranking_loss(*one_query(np.array([2.0, 0.0]), np.array([(0, 1)]))) == pytest.approx(
        math.log1p(math.exp(-2)), abs=1e-12
    )


def test_ranking_loss_saturation_no_overflow():
    loss = ranking_loss(*one_query(np.array([50.0, 0.0]), np.array([(0, 1)])))
    assert 0 < loss < 1e-21
    big = ranking_loss(*one_query(np.array([1000.0, 0.0]), np.array([(0, 1)])))
    assert np.isfinite(big) and big >= 0


def test_ranking_loss_shift_invariance():
    rng = make_rng(22, 0)
    s = rng.standard_normal(5)
    pairs = build_pairs(rng.random(5), rng.random(5))
    shifted = ranking_loss(*one_query(s + 17.3, pairs))
    assert ranking_loss(*one_query(s, pairs)) == pytest.approx(shifted)


def test_ranking_loss_rejects_nonfinite_scores():
    with pytest.raises(ValueError):
        ranking_loss(*one_query(np.array([np.inf, 0.0]), np.array([(0, 1)])))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 30), k=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_dense_precedence_matches_per_query_pairs(n, k, seed):
    # coarse values make tied performance and tied cost common
    rng = make_rng(seed, 0)
    a = rng.integers(0, 3, size=(n, k)) / 2.0
    c = rng.integers(1, 4, size=(n, k)) / 4.0
    t = make_table(perf=a, cost=c, embeddings=rng.standard_normal((n, 3)))
    W = build_pair_set(t, np.arange(n))
    pairs = [build_pairs(a[q], c[q]) for q in range(n)]
    for q in range(n):
        assert set(map(tuple, np.argwhere(W[q]))) == set(map(tuple, pairs[q]))
        if len(pairs[q]):
            assert W[q].sum() == pytest.approx(1.0, rel=1e-15)
    p = init_equirouter(EquiHyper(d_q=3, n_models=k, d_m=4, latent_dim=5, seed=seed))
    S = scores_batch(p, t.embeddings)
    supervised = [q for q in range(n) if len(pairs[q])]
    if not supervised:
        with pytest.raises(ValueError, match="no ranking supervision"):
            ranking_objective(p, t.embeddings, W)
        assert ranking_loss(S, W) == 0.0
        return
    per_query = []
    for q in supervised:
        i, j = pairs[q].T
        per_query.append(np.mean(np.logaddexp(0.0, -(S[q, i] - S[q, j]))))
        loss = ranking_loss(*one_query(S[q], pairs[q]))
        assert loss == pytest.approx(per_query[-1], rel=1e-12)
    reference = np.mean(per_query)
    assert ranking_objective(p, t.embeddings, W)[0] == pytest.approx(reference, rel=1e-12)
    assert ranking_loss(S, W) == pytest.approx(reference, rel=1e-12)
    empty = [q for q in range(n) if not len(pairs[q])]
    if empty:
        with pytest.raises(ValueError, match="no ranking supervision"):
            ranking_objective(p, t.embeddings[empty], W[empty])


# ---------------------------------------------------------------------------
# gradient correctness of the full objectives


def _ranking_objective_spec(p, Q, W):
    """The ranking objective with log(1 + exp(-t)) and sigmoid(-t) written
    out on each side of t = 0, each side with an exp of its own, rather than
    from one shared exp(-|t|). The loss sees only score differences, so the
    output bias's gradient is 0."""
    S, cache = _forward_scores(p, Q, _model_terms(p))
    n = int(np.count_nonzero(W.any(axis=(1, 2))))
    t = S[:, :, None] - S[:, None, :]
    pos, neg = t > 0, t <= 0
    e_pos, e_neg = np.exp(-t[pos]), np.exp(t[neg])
    L, sigmoid = np.empty_like(t), np.empty_like(t)
    L[pos], L[neg] = np.log1p(e_pos), -t[neg] + np.log1p(e_neg)
    sigmoid[pos], sigmoid[neg] = e_pos / (1.0 + e_pos), 1.0 / (1.0 + e_neg)
    loss = float(np.sum(W * L)) / n
    G = W * sigmoid / n
    grads = _backward_scores(p, cache, np.einsum("bij->bj", G) - np.einsum("bij->bi", G))
    grads[-1] = np.zeros(1)
    return loss, grads


@pytest.mark.parametrize("b, k", [(1, 2), (7, 3), (13, 5), (69, 11), (255, 6)])
def test_ranking_objective_is_bytewise_its_spec(b, k):
    # B * K * K is not a multiple of 8 in any case: SIMD loops leave a tail
    t = generate_synthetic(
        SynthConfig(n_queries=b, n_models=k, embed_dim=6, tie_fraction=0.3, noise_seed=b)
    )
    W = build_pair_set(t, np.arange(b))
    if not W.any():
        W[0, 0, 1] = 1.0
    p = init_equirouter(EquiHyper(d_q=6, n_models=k, d_m=4, latent_dim=8, seed=k))
    loss, grads = ranking_objective(p, t.embeddings, W)
    want_loss, want_grads = _ranking_objective_spec(p, t.embeddings, W)
    assert loss == want_loss
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in want_grads]


@pytest.mark.parametrize(
    "joint, tie", [(True, False), (False, False), (True, True)], ids=["True", "False", "tie"]
)
def test_full_objective_gradients_match_fd(joint, tie):
    # the no-joint head applies only the z_j and e_j blocks of its first layer;
    # at an exact tie the central difference of |x| is 0, as is sign(0)
    t = generate_synthetic(
        SynthConfig(n_queries=4, n_models=3, embed_dim=6, tie_fraction=0.5, noise_seed=3)
    )
    pairs = build_pair_set(t, np.arange(4))
    p = init_equirouter(
        EquiHyper(d_q=6, n_models=3, d_m=4, latent_dim=8, seed=7), variant(joint)
    )
    if tie:
        _tie_first_coordinate(p)
    scores_batch(p, t.embeddings)  # grad_check edits in place: the objective must not cache

    def fn(plist):
        assign_params(p, plist)
        return ranking_objective(p, t.embeddings, pairs, weight_decay=1e-4)

    report = grad_check(fn, params_list(p), h=1e-5, rel_tol=1e-4)
    assert report.passed, report


def test_mse_objective_gradients_match_fd():
    t = generate_synthetic(
        SynthConfig(n_queries=4, n_models=3, embed_dim=6, tie_fraction=0.5, noise_seed=3)
    )
    p = init_equirouter(EquiHyper(d_q=6, n_models=3, d_m=4, latent_dim=8, seed=8))
    scores_batch(p, t.embeddings)  # grad_check edits in place: the objective must not cache

    def fn(plist):
        assign_params(p, plist)
        return mse_objective(p, t.embeddings, t.perf)

    report = grad_check(fn, params_list(p), h=1e-5, rel_tol=1e-4)
    assert report.passed, report


def test_regressor_objective_gradients_match_fd():
    # the objective the cost predictor and the MLP baseline train on
    t = generate_synthetic(
        SynthConfig(n_queries=4, n_models=3, embed_dim=6, tie_fraction=0.5, noise_seed=3)
    )
    layers = _init_two_layer(MlpHyper(d_q=6, n_models=3, hidden=8, seed=9))

    def fn(plist):
        _assign_layers(layers, plist)
        return _regressor_objective(layers, t.embeddings, t.perf)

    report = grad_check(fn, _layer_params(layers), h=1e-5, rel_tol=1e-4)
    assert report.passed, report


# ---------------------------------------------------------------------------
# training


def separable_two_model_table(n=240, seed=1):
    """Winner is decided by the sign of the first embedding coordinate."""
    rng = make_rng(seed, 0)
    emb = rng.standard_normal((n, 4))
    winner = (emb[:, 0] > 0).astype(int)
    perf = np.where(np.arange(2)[None, :] == winner[:, None], 1.0, 0.0)
    cost = np.tile([1.0, 2.0], (n, 1))
    return make_table(perf=perf, cost=cost, embeddings=emb)


def test_initial_ranking_loss_at_symmetric_init():
    # with identical model embeddings every score ties, so the loss is ln 2
    # exactly; a fresh random init stays in the same neighborhood
    t = separable_two_model_table()
    pairs = build_pair_set(t, np.arange(t.n_queries))
    p = init_equirouter(tiny_hyper(4, 2, seed=0))
    loss_random, _ = ranking_objective(p, t.embeddings, pairs)
    assert loss_random == pytest.approx(math.log(2), abs=0.15)
    p.model_embeddings = np.tile(p.model_embeddings[0], (2, 1))
    loss_sym, _ = ranking_objective(p, t.embeddings, pairs)
    assert loss_sym == pytest.approx(math.log(2), abs=1e-9)


def test_train_equirouter_separable_ordering():
    t = separable_two_model_table()
    split = make_split(t.n_queries, (3, 1, 6), seed=42)
    params, log = train_equirouter(t, split, tiny_hyper(4, 2, epochs=200))
    train_idx = np.asarray(split.train)
    s = scores_batch(params, t.embeddings[train_idx])
    winner = np.argmax(t.perf[train_idx], axis=1)
    correct = np.mean(np.argmax(s, axis=1) == winner)
    assert correct >= 0.99
    assert log[-1].train_loss < log[0].train_loss


def test_train_equirouter_deterministic(tmp_path):
    t = separable_two_model_table(n=60)
    split = make_split(t.n_queries, (3, 1, 6), seed=42)
    hyper = tiny_hyper(4, 2, epochs=5)
    a, _ = train_equirouter(t, split, hyper)
    b, _ = train_equirouter(t, split, hyper)
    save_router(tmp_path / "a.ckpt", a)
    save_router(tmp_path / "b.ckpt", b)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_ranking_training_keeps_the_output_bias_at_exactly_zero(small_synth):
    # the pair loss sees only score differences, so the output bias gets an
    # exact 0 gradient and stays at its initial 0 (with K > 2 the summed
    # score gradient is 0 only up to rounding); the MSE ablation's moves
    t = small_synth
    split = make_split(t.n_queries, (3, 1, 6), seed=42)
    hyper = tiny_hyper(t.embed_dim, t.n_models, epochs=3)
    for joint in (True, False):
        p, _ = train_equirouter(t, split, hyper, joint_feature=joint)
        assert p.score_head[1].bias.tolist() == [0.0]
    p, _ = train_mse_ablation(t, split, hyper)
    assert p.score_head[1].bias[0] != 0.0


@pytest.mark.parametrize("bad", [0, 6, 12])
@pytest.mark.parametrize("where", ["first", "last"])
def test_fit_names_the_non_finite_parameter(bad, where):
    # a gradient that is NaN in one value of parameter `bad` makes that value
    # of the updated vector NaN; the message names the parameter, also when
    # the value is the first or last of its array (the offsets' boundaries)
    plist = params_list(init_equirouter(tiny_hyper(3, 2)))
    assert len(plist) == 13
    installed = []

    def objective(rows):
        grads = [np.zeros_like(v) for v in plist]
        grads[bad].reshape(-1)[0 if where == "first" else -1] = np.nan
        return 1.0, grads

    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError) as info:
        _fit(plist, installed.append, objective, None, 4, tiny_hyper(3, 2, epochs=2))
    assert str(info.value) == (
        f"training diverged at epoch 0: parameter {bad} (canonical order) "
        "is not finite after the Adam step"
    )
    assert installed == []


def test_fit_installs_views_of_fresh_vectors_and_keeps_the_best():
    # every step installs new arrays, views of one vector shaped like the
    # parameters; the best epoch's values come back at the end untouched
    plist = [np.zeros((2, 3)), np.zeros(3), np.zeros(1)]
    installed = []
    val_losses = iter([3.0, 1.0, 2.0])

    def objective(rows):
        return 1.0, [np.ones_like(v) for v in plist]

    hyper = MlpHyper(d_q=1, n_models=1, epochs=3, batch_size=4, learning_rate=0.1)
    _fit(plist, lambda values: installed.append(values), objective,
         lambda: next(val_losses), 4, hyper)
    assert len(installed) == 4  # one per epoch, then the best
    for values in installed:
        assert [v.shape for v in values] == [(2, 3), (3,), (1,)]
        assert all(v.base is values[0].base for v in values)
        assert values[0].base.shape == (10,)
    assert len({id(values[0].base) for values in installed[:3]}) == 3
    assert installed[-1][0].base is installed[1][0].base  # epoch 1's vector
    assert np.allclose(installed[-1][0], -0.2)
    assert all(np.all(v == 0.0) for v in plist)


def test_train_equirouter_no_supervision():
    t = make_table(perf=[[0.5, 0.5]] * 4, cost=[[1.0, 1.0]] * 4)
    split = make_split(4, (2, 1, 1), seed=0)
    with pytest.raises(ValueError, match="no ranking supervision"):
        train_equirouter(t, split, tiny_hyper(3, 2, epochs=2))


def test_mse_ablation_constant_targets():
    t = make_table(perf=np.full((50, 2), 0.5), cost=np.tile([1.0, 2.0], (50, 1)))
    split = make_split(50, (4, 1, 1), seed=0)
    params, log = train_mse_ablation(t, split, tiny_hyper(3, 2, epochs=800))
    s = scores_batch(params, t.embeddings[np.asarray(split.train)])
    assert np.abs(s - 0.5).max() < 0.02  # converged fit on the training queries
    assert log[-1].train_loss < 1e-4
    assert params.tag == "mse"


def test_mse_ablation_memorizes_tiny_table():
    rng = make_rng(33, 0)
    emb = np.eye(3)
    perf = rng.random((3, 2))
    t = make_table(perf=perf, cost=np.tile([1.0, 2.0], (3, 1)), embeddings=emb)
    params, _ = train_mse_ablation(
        t, (np.arange(3), np.array([], dtype=int)), tiny_hyper(3, 2, epochs=2500, learning_rate=1e-2)
    )
    s = scores_batch(params, emb)
    assert float(np.mean((s - perf) ** 2)) < 1e-4


def test_mse_ablation_deterministic(tmp_path):
    t = separable_two_model_table(n=60)
    split = make_split(t.n_queries, (3, 1, 6), seed=42)
    a, _ = train_mse_ablation(t, split, tiny_hyper(4, 2, epochs=5))
    b, _ = train_mse_ablation(t, split, tiny_hyper(4, 2, epochs=5))
    save_router(tmp_path / "a.ckpt", a)
    save_router(tmp_path / "b.ckpt", b)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_no_joint_ablation_head_width_and_tie():
    t = separable_two_model_table(n=60)
    split = make_split(t.n_queries, (3, 1, 6), seed=42)
    params, _ = train_equirouter(t, split, tiny_hyper(4, 2, epochs=2), joint_feature=False)
    assert params.score_head[0].in_dim == 2 * params.latent_dim
    assert params.tag == "equirouter_nojoint"
    params.model_embeddings = np.tile(params.model_embeddings[0], (2, 1))
    s = scores_batch(params, np.zeros((1, 4)))[0]
    assert s[0] == s[1]


# ---------------------------------------------------------------------------
# cost predictor


def test_cost_predictor_constant_targets():
    cost = np.tile([2.0, 5.0], (80, 1))
    t = make_table(perf=np.random.default_rng(0).random((80, 2)), cost=cost)
    split = make_split(80, (4, 1, 3), seed=0)
    cp, log = train_cost_predictor(
        t,
        split,
        MlpHyper(d_q=3, n_models=2, hidden=8, epochs=1500, batch_size=64,
                 learning_rate=1e-2),
    )
    assert np.array_equal(cp.target_std, np.ones(2))  # degenerate stds clamped
    pred = predict_costs(cp, t.embeddings[np.asarray(split.train)])
    assert np.abs(pred - cost[0]).max() < 0.05  # bias-only solution on train
    assert log[-1].train_loss < 1e-4  # standardized MSE ~ 0


def test_cost_predictor_outputs_positive():
    t = make_table(
        perf=np.zeros((30, 2)),
        cost=np.full((30, 2), 1e-6),
    )
    split = make_split(30, (4, 1, 1), seed=0)
    cp, _ = train_cost_predictor(
        t, split, MlpHyper(d_q=3, n_models=2, hidden=4, epochs=5, batch_size=32)
    )
    assert (predict_costs(cp, t.embeddings) > 0).all()


def test_cost_predictor_learns_linear_costs_quick():
    rng = make_rng(44, 0)
    emb = rng.standard_normal((600, 6))
    W = rng.standard_normal((3, 6)) * 0.1
    cost = emb @ W.T + np.array([2.0, 4.0, 6.0])
    t = make_table(perf=rng.random((600, 3)), cost=cost, embeddings=emb)
    split = make_split(600, (3, 1, 6), seed=42)
    cp, _ = train_cost_predictor(
        t, split, MlpHyper(d_q=6, n_models=3, hidden=16, epochs=800, batch_size=4096)
    )
    test = np.asarray(split.test)
    mse = float(np.mean((predict_costs(cp, t.embeddings[test]) - t.cost[test]) ** 2))
    assert mse < 1e-3 * float(np.var(t.cost[test]))


# ---------------------------------------------------------------------------
# routing rule


def test_route_dominant_score():
    t = make_table(perf=[[0, 0]], cost=[[1.0, 1.0]])
    mlp, _ = train_mlp_router(
        t, (np.array([0]), np.array([], dtype=int)),
        MlpHyper(d_q=3, n_models=2, hidden=4, epochs=1, batch_size=8),
    )
    hidden, output = mlp.layers
    hidden.weight = np.zeros_like(hidden.weight)
    hidden.bias = np.zeros_like(hidden.bias)
    output.weight = np.zeros_like(output.weight)
    output.bias = np.array([0.1, 0.9])
    d = route(mlp, t, 0, budget=5.0, cost_source="oracle")
    assert d.chosen == 1 and not d.feasible_clamped


def test_route_score_tie_breaks_by_cost():
    choice, clamped = select_under_budget(
        np.array([0.7, 0.7]), np.array([2.0, 1.0]), budget=5.0
    )
    assert choice == 1 and not clamped


def test_route_clamps_to_cheapest():
    choice, clamped = select_under_budget(
        np.array([0.1, 0.9]), np.array([3.0, 2.0]), budget=1.0
    )
    assert choice == 1 and clamped


def test_route_with_predicted_costs():
    t = make_table(perf=[[0.0, 1.0]] * 10, cost=[[1.0, 5.0]] * 10)
    split = make_split(10, (8, 1, 1), seed=0)
    cp, _ = train_cost_predictor(
        t, split, MlpHyper(d_q=3, n_models=2, hidden=8, epochs=500, batch_size=16,
                           learning_rate=1e-2)
    )
    d = route(OracleRouter(), t, 0, budget=2.0, cost_source="oracle")
    assert d.chosen == 0  # model 1 too expensive under true costs
    d = route(OracleRouter(), t, 0, budget=10.0, cost_source="oracle",
              cost_predictor=cp)
    assert d.chosen == 1 and d.predicted_costs == pytest.approx([1.0, 5.0])
    with pytest.raises(ValueError, match="requires a cost predictor"):
        route(train_knn_router(t, split, k=1), t, 0, budget=2.0,
              cost_source="predicted")


def test_route_invariant_to_increasing_transform():
    rng = make_rng(55, 0)
    for _ in range(20):
        s = rng.standard_normal(5)
        c = rng.random(5) + 0.1
        budget = float(rng.random() * 1.2)
        base, _ = select_under_budget(s, c, budget)
        squashed, _ = select_under_budget(np.tanh(s) * 3 + 1, c, budget)
        assert base == squashed


@pytest.mark.parametrize("kind", ["oracle", "equirouter", "mlp", "knn"])
def test_route_decides_as_the_prefix_table(kind, small_synth):
    """route() makes the prefix table's decision, built from the same
    router's scores and filter costs, on 200 (query, budget) pairs: NaN,
    zero and infinite budgets, budgets equal to a filter cost, tied kNN means
    and an EquiRouter filtering on predicted costs."""
    t = small_synth
    split = make_split(t.n_queries, (3, 1, 6), seed=5)
    mlp_hyper = MlpHyper(d_q=t.embed_dim, n_models=t.n_models, hidden=8, epochs=3,
                         batch_size=64)
    source, cp = "oracle", None
    if kind == "oracle":
        router = OracleRouter()
    elif kind == "equirouter":
        router, _ = train_equirouter(t, split, tiny_hyper(t.embed_dim, t.n_models, epochs=3))
        source, (cp, _) = "predicted", train_cost_predictor(t, split, mlp_hyper)
    elif kind == "mlp":
        router, _ = train_mlp_router(t, split, mlp_hyper)
    else:
        router = train_knn_router(t, split, k=5)
    queries = np.arange(0, t.n_queries, 16)
    S = router_scores(router, t, queries)
    C = filter_costs(router, t, queries, source, cp)
    # five budgets equal to one of the queries' filter costs
    budgets = [math.nan, 0.0, math.inf, *np.sort(C, axis=None)[[10, 30, 50, 70, 90]].tolist()]
    choices, clamped = prefix_table(S, C).select(budgets)
    assert len(queries) * len(budgets) == 200
    for b, row_choices, row_clamped in zip(budgets, choices.tolist(), clamped.tolist()):
        for j, n in enumerate(queries):
            d = route(router, t, n, b, source, cp)
            assert (d.chosen, d.feasible_clamped) == (row_choices[j], row_clamped[j])


ROUTE_KINDS = ["oracle", "equirouter", "equirouter_nojoint", "mse", "mlp", "knn"]


def _routing_setup(kind: str, t: RoutingTable):
    """A briefly trained router of `kind` and a cost predictor on t."""
    split = make_split(t.n_queries, (3, 1, 6), seed=5)
    mlp_hyper = MlpHyper(d_q=t.embed_dim, n_models=t.n_models, hidden=8, epochs=2,
                         batch_size=64)
    hyper = tiny_hyper(t.embed_dim, t.n_models, epochs=2)
    cp, _ = train_cost_predictor(t, split, mlp_hyper)
    if kind == "oracle":
        return OracleRouter(), cp
    if kind == "equirouter":
        return train_equirouter(t, split, hyper)[0], cp
    if kind == "equirouter_nojoint":
        return train_equirouter(t, split, hyper, joint_feature=False)[0], cp
    if kind == "mse":
        return train_mse_ablation(t, split, hyper)[0], cp
    if kind == "mlp":
        return train_mlp_router(t, split, mlp_hyper)[0], cp
    return train_knn_router(t, split, k=5), cp


@pytest.mark.parametrize("kind", ROUTE_KINDS)
def test_route_arrays_are_the_batch_paths_bytes(kind, small_synth):
    # route() scores its row as a view, the batch path as an index copy
    t = small_synth
    router, cp = _routing_setup(kind, t)
    for source in ("oracle", "predicted"):
        for n in (0, 1, 137, 256, t.n_queries - 1):
            d = route(router, t, n, 1.0, source, cp)
            want_scores = router_scores(router, t, [n])[0]
            want_costs = filter_costs(router, t, [n], source, cp)[0]
            assert d.scores.shape == want_scores.shape == (t.n_models,)
            assert d.scores.tobytes() == want_scores.tobytes()
            assert d.predicted_costs.shape == want_costs.shape
            assert d.predicted_costs.tobytes() == want_costs.tobytes()


@pytest.mark.parametrize("kind", ROUTE_KINDS)
def test_writing_into_a_decision_cannot_change_the_table(kind, small_synth):
    # arrays read from the table (the oracle's scores, true costs) may be
    # read-only views of its rows; computed ones are the decision's own
    t = small_synth
    router, cp = _routing_setup(kind, t)
    before = [a.copy() for a in (t.perf, t.cost, t.embeddings)]
    for source in ("oracle", "predicted"):
        d = route(router, t, 7, 1.0, source, cp)
        computed = kind != "oracle"
        owned = ((d.scores, computed), (d.predicted_costs, computed and source != "oracle"))
        for arr, own in owned:
            if own:
                assert arr.flags.writeable
            try:
                arr[...] = -1.0
            except ValueError:  # a read-only view
                assert not arr.flags.writeable
        for a, b in zip((t.perf, t.cost, t.embeddings), before):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["oracle", "mlp", "knn"])
def test_route_refuses_an_unknown_cost_source_for_every_kind(kind, small_synth):
    # the oracle filters on true costs whatever the source, but a source
    # that is neither is refused for it too
    t = small_synth
    router, cp = _routing_setup(kind, t)
    for predictor in (None, cp):
        with pytest.raises(ValueError, match="unknown cost_source 'bogus'"):
            route(router, t, 0, 1.0, cost_source="bogus", cost_predictor=predictor)
        with pytest.raises(ValueError, match="unknown cost_source 'bogus'"):
            filter_costs(router, t, [0, 1], "bogus", predictor)


@pytest.mark.parametrize("n", [-1, 10, 3.7, True])
def test_route_refuses_a_query_index_outside_the_table(n):
    # numpy would read -1 as the last row and 3.7 as row 3
    rng = make_rng(21, 0)
    t = make_table(perf=rng.random((10, 3)), cost=rng.random((10, 3)) + 0.1)
    knn = train_knn_router(t, (np.arange(10), np.array([], dtype=int)), k=1)
    for router in (OracleRouter(), init_equirouter(tiny_hyper(3, 3)), knn):
        with pytest.raises(ValueError, match=r"n = .* in 0\.\.9 \(N = 10\)"):
            route(router, t, n, 1.0)
    d = route(OracleRouter(), t, np.int64(5), 1.0)
    assert d.query_index == 5 and np.array_equal(d.scores, t.perf[5])


# ---------------------------------------------------------------------------
# baselines


def test_knn_k1_self_lookup(small_synth):
    split = make_split(small_synth.n_queries, (3, 1, 6), seed=42)
    knn = train_knn_router(small_synth, split, k=1)
    n = split.train[0]
    scores = knn_scores(knn, small_synth, small_synth.embeddings[[n]])
    assert np.array_equal(scores[0], small_synth.perf[n])


def test_knn_constant_labels():
    perf = np.tile([0.3, 0.8], (40, 1))
    t = make_table(perf=perf, cost=np.tile([1.0, 2.0], (40, 1)))
    split = make_split(40, (3, 1, 6), seed=42)
    knn = train_knn_router(t, split, k=5)
    scores = router_scores(knn, t, np.asarray(split.test))
    assert np.allclose(scores, [0.3, 0.8])


def _knn_reference_scores(table, train_rows, k, q):
    """Mean perf row of the k nearest training rows by direct differences;
    distance ties go to the earlier training row."""
    d2 = ((table.embeddings[train_rows] - q) ** 2).sum(axis=1)
    nearest = np.argsort(d2, kind="stable")[:k]
    return table.perf[train_rows[nearest]].mean(axis=0)


def test_knn_ties_at_kth_distance_go_to_earlier_rows():
    # small-integer embeddings take only 16 values, so many training rows
    # share an embedding and distances are exact: ties at the k-th distance
    # are common and must resolve toward the earlier training row
    rng = make_rng(8, 0)
    n, k = 600, 7
    t = make_table(
        perf=rng.random((n, 3)),
        cost=np.ones((n, 3)),
        embeddings=rng.integers(0, 4, size=(n, 2)).astype(float),
    )
    split = make_split(n, (3, 1, 6), seed=3)
    knn = train_knn_router(t, split, k=k)
    train_rows = np.asarray(split.train)
    want = np.array([_knn_reference_scores(t, train_rows, k, q) for q in t.embeddings])

    d2 = ((t.embeddings[train_rows][None] - t.embeddings[:, None]) ** 2).sum(axis=2)
    kth = np.sort(d2, axis=1)[:, k - 1 : k]
    assert ((d2 <= kth).sum(axis=1) > k).mean() > 0.9  # the tie case is exercised

    # all queries (more than one scoring block) and one query at a time
    assert np.array_equal(knn_scores(knn, t, t.embeddings), want)
    for i in range(0, n, 7):
        assert np.array_equal(knn_scores(knn, t, t.embeddings[[i]])[0], want[i])
        assert np.array_equal(route(knn, t, i, budget=1.0).scores, want[i])


def test_knn_duplicate_training_rows_tie_to_the_earlier_row():
    # row 1499 copies row 3 and falls in the last n_train % 8 columns of the
    # batch product, which BLAS may round apart from the copy's; every query
    # lies near the pair, so the two copies straddle the 1st distance
    rng = make_rng(15, 0)
    n_train, n_query, d = 1500, 300, 24
    emb = rng.standard_normal((n_train + n_query, d))
    emb[n_train - 1] = emb[3]
    emb[n_train:] = emb[3] + 0.01 * rng.standard_normal((n_query, d))
    t = make_table(
        perf=rng.random((n_train + n_query, 3)),
        cost=np.ones((n_train + n_query, 3)),
        embeddings=emb,
    )
    train_rows = np.arange(n_train)
    knn = train_knn_router(t, (train_rows, np.array([], dtype=int)), k=1)
    queries = np.arange(n_train, n_train + n_query)
    want = np.array([_knn_reference_scores(t, train_rows, 1, t.embeddings[i]) for i in queries])
    assert np.array_equal(want, np.tile(t.perf[3], (n_query, 1)))
    assert np.array_equal(router_scores(knn, t, queries), want)
    for j in range(0, n_query, 10):
        assert np.array_equal(route(knn, t, queries[j], budget=1.0).scores, want[j])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), b=st.integers(1, 5), n=st.integers(1, 12))
def test_nearest_equals_stable_argsort(data, b, n):
    # values 0..3 make ties at the k-th distance common; every k from 1 to
    # past n is checked, so k = 1 and k >= n are always covered
    cells = st.lists(st.integers(0, 3), min_size=b * n, max_size=b * n)
    d2 = np.array(data.draw(cells), dtype=float).reshape(b, n)
    for k in range(1, n + 2):
        want = np.argsort(d2, axis=1, kind="stable")[:, :k]
        assert np.array_equal(_nearest(d2, k), want)


def test_mlp_memorization_agrees_with_oracle():
    t = generate_synthetic(
        SynthConfig(n_queries=200, n_models=3, embed_dim=10, tie_fraction=0.0,
                    margin_scale=0.4, cost_spread=5.0, noise_seed=12)
    )
    idx = np.arange(t.n_queries)
    mlp, _ = train_mlp_router(
        t, (idx, np.array([], dtype=int)),
        MlpHyper(d_q=10, n_models=3, hidden=32, epochs=800, batch_size=256, learning_rate=3e-3),
    )
    budget = float(t.cost.max())
    agree = np.mean(
        [route(mlp, t, n, budget).chosen == oracle_select(t, n, budget) for n in idx]
    )
    assert agree >= 0.95


@pytest.mark.parametrize(
    "train",
    [train_equirouter, train_mse_ablation, train_cost_predictor, train_mlp_router,
     train_knn_router],
    ids=lambda f: f.__name__,
)
def test_trainers_refuse_an_empty_training_split(small_synth, train):
    with pytest.raises(ValueError, match="^training split is empty$"):
        train(small_synth, (np.array([], dtype=int), np.arange(5)))


def test_knn_checks_k_before_the_split():
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        train_knn_router(None, (np.array([], dtype=int), np.array([], dtype=int)), k=0)


# ---------------------------------------------------------------------------
# checkpoints


def test_router_checkpoint_round_trip(tmp_path, small_synth):
    split = make_split(small_synth.n_queries, (3, 1, 6), seed=42)
    hyper = tiny_hyper(small_synth.embed_dim, small_synth.n_models, epochs=2)
    params, _ = train_equirouter(small_synth, split, hyper)
    path = tmp_path / "r.ckpt"
    save_router(path, params)
    loaded = load_router(path)
    assert loaded.tag == "equirouter"
    x = small_synth.embeddings[0]
    assert np.array_equal(scores_batch(loaded, x[None]), scores_batch(params, x[None]))


def test_load_router_refuses_arrays_that_do_not_fit_hyper(tmp_path, small_synth):
    # a latent_dim other than the arrays' would slice the FiLM terms wrongly
    hyper = tiny_hyper(small_synth.embed_dim, small_synth.n_models)
    path = tmp_path / "r.ckpt"
    save_router(path, init_equirouter(hyper))
    header, _ = load_checkpoint(path)
    wider = init_equirouter(tiny_hyper(small_synth.embed_dim, small_synth.n_models, latent_dim=9))
    save_checkpoint(path, header, params_list(wider))
    with pytest.raises(ValueError, match="r.ckpt: checkpoint arrays do not fit its field 'hyper'"):
        load_router(path)


@pytest.mark.parametrize("kind", ["mlp", "cost"])
@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda arrays: arrays[:-1], id="dropped-array"),
        pytest.param(lambda arrays: [np.zeros((8, 9)), *arrays[1:]], id="wide-first-weight"),
        pytest.param(lambda arrays: [*arrays[:-1], np.ones(4)], id="long-last-array"),
    ],
)
def test_load_router_refuses_two_layer_arrays_that_do_not_fit_hyper(tmp_path, kind, edit):
    # unchecked, a missing array fails to unpack without naming a field, and
    # a wrong shape loads and fails once a sweep has begun writing
    hyper = MlpHyper(d_q=8, n_models=3, hidden=8)
    layers = _init_two_layer(hyper)
    path = tmp_path / f"{kind}.ckpt"
    if kind == "mlp":
        save_router(path, MlpRouterParams(layers, hyper))
    else:
        save_cost_predictor(path, CostPredictorParams(layers, np.zeros(3), np.ones(3), hyper))
    assert load_router(path).tag == kind
    header, arrays = load_checkpoint(path)
    save_checkpoint(path, header, edit(arrays))
    with pytest.raises(ValueError) as info:
        load_router(path)
    assert str(info.value) == f"{path}: checkpoint arrays do not fit its field 'hyper'"


@pytest.mark.parametrize(
    "edit, error",
    [
        pytest.param({"k": None}, "field 'k' is not an integer >= 1: None", id="k-null"),
        pytest.param({"k": 0}, "field 'k' is not an integer >= 1: 0", id="k-zero"),
        pytest.param({"k": 2.0}, "field 'k' is not an integer >= 1: 2.0", id="k-float"),
        pytest.param({"k": True}, "field 'k' is not an integer >= 1: True", id="k-bool"),
        pytest.param({"train_indices": 5}, "field 'train_indices' is not a list of integers",
                     id="train-int"),
        pytest.param({"train_indices": ["a"]}, "field 'train_indices' is not a list of integers",
                     id="train-str"),
        pytest.param({"train_indices": [0, True]},
                     "field 'train_indices' is not a list of integers", id="train-bool"),
        pytest.param({"split_seed": "x"}, "field 'split_seed' is not an integer: 'x'",
                     id="seed-str"),
        pytest.param({"split_seed": None}, "field 'split_seed' is not an integer: None",
                     id="seed-null"),
    ],
)
def test_load_router_refuses_malformed_knn_header(tmp_path, edit, error):
    path = tmp_path / "knn.ckpt"
    save_router(path, KnnRouterParams(k=3, train_indices=(0, 2, 4), split_seed=42))
    assert load_router(path) == KnnRouterParams(k=3, train_indices=(0, 2, 4), split_seed=42)
    header, arrays = load_checkpoint(path)
    save_checkpoint(path, {**header, **edit}, arrays)
    with pytest.raises(ValueError) as info:
        load_router(path)
    assert str(info.value) == f"{path}: checkpoint {error}"


@pytest.mark.parametrize(
    "tag, edit, value",
    [
        pytest.param("equirouter_nojoint", {"router_type": "equirouter"}, False,
                     id="nojoint-as-equirouter"),
        pytest.param("equirouter_nojoint", {"router_type": "mse"}, False, id="nojoint-as-mse"),
        pytest.param("equirouter", {"joint_feature": False}, False, id="equirouter-false"),
        pytest.param("mse", {"joint_feature": 1}, 1, id="mse-int"),
    ],
)
def test_load_router_refuses_joint_feature_that_contradicts_router_type(
    tmp_path, tag, edit, value
):
    # the tag sets the head's input: a contradicting field would load one
    # variant under another's name
    path = tmp_path / "r.ckpt"
    save_router(path, init_equirouter(tiny_hyper(5, 3), tag))
    header, arrays = load_checkpoint(path)
    save_checkpoint(path, {**header, **edit}, arrays)
    kind = edit.get("router_type", tag)
    with pytest.raises(ValueError) as info:
        load_router(path)
    assert str(info.value) == (
        f"{path}: checkpoint field 'joint_feature' is {value!r}, but router_type {kind!r} "
        f"has joint_feature {kind != 'equirouter_nojoint'}"
    )


def checkpointed(kind: str):
    """An untrained router or cost predictor of a checkpointed kind."""
    if kind in EQUI_TAGS:
        return init_equirouter(tiny_hyper(8, 3), kind)
    if kind == "knn":
        return KnnRouterParams(k=3, train_indices=(0, 2, 4), split_seed=42)
    h = MlpHyper(d_q=8, n_models=3, hidden=8)
    if kind == "mlp":
        return MlpRouterParams(_init_two_layer(h), h)
    return CostPredictorParams(_init_two_layer(h), np.linspace(1.0, 2.0, 3),
                               np.linspace(0.5, 1.5, 3), h)


HYPER, NOT_FIT = "checkpoint field 'hyper': ", "checkpoint arrays do not fit its field 'hyper'"


@pytest.mark.parametrize(
    "kind, edit, error",
    [
        pytest.param("equirouter", {"d_q": 8.0}, HYPER + "d_q is not an integer >= 1: 8.0",
                     id="equirouter-d_q-float"),
        pytest.param("equirouter_nojoint", {"latent_dim": 8.0},
                     HYPER + "latent_dim is not an integer >= 1: 8.0",
                     id="nojoint-latent_dim-float"),
        pytest.param("mlp", {"hidden": 8.0}, HYPER + "hidden is not an integer >= 1: 8.0",
                     id="mlp-hidden-float"),
        pytest.param("cost", {"n_models": True}, HYPER + "n_models is not an integer >= 1: True",
                     id="cost-n_models-bool"),
        pytest.param("cost", {"hidden": 0}, HYPER + "hidden is not an integer >= 1: 0",
                     id="cost-hidden-zero"),
        pytest.param("mse", {"seed": 0.5}, HYPER + "seed is not an integer: 0.5",
                     id="mse-seed-float"),
        # a size no array of the file has: refused before an init would
        # allocate about 10**9 rows
        pytest.param("equirouter", {"d_q": 10**9}, NOT_FIT, id="equirouter-d_q-huge"),
        pytest.param("mse", {"d_m": 10**9}, NOT_FIT, id="mse-d_m-huge"),
        pytest.param("cost", {"hidden": 10**9}, NOT_FIT, id="cost-hidden-huge"),
    ],
)
def test_load_router_checks_hyper_before_building_the_network(tmp_path, kind, edit, error):
    # a float size once failed inside numpy (exit 2, no field named), or,
    # compared as a shape, loaded: 8.0 == 8
    path = tmp_path / f"{kind}.ckpt"
    save_router(path, checkpointed(kind))
    header, arrays = load_checkpoint(path)
    save_checkpoint(path, {**header, "hyper": {**header["hyper"], **edit}}, arrays)
    with pytest.raises(ValueError) as info:
        load_router(path)
    assert str(info.value) == f"{path}: {error}"


@pytest.mark.parametrize("kind", [*EQUI_TAGS, "mlp", "knn", "cost"])
def test_checkpoint_save_load_save_is_byte_stable(tmp_path, kind):
    # one writer and one reader for every kind: what is read writes back as it was
    save = save_cost_predictor if kind == "cost" else save_router
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save(a, checkpointed(kind))
    loaded = load_router(a)
    assert loaded.tag == kind
    save(b, loaded)
    assert a.read_bytes() == b.read_bytes()


def test_oracle_has_no_checkpoint(tmp_path):
    # the CLI neither writes nor reads one; the oracle needs no parameters
    path = tmp_path / "oracle.ckpt"
    with pytest.raises(TypeError, match="^cannot checkpoint router type"):
        save_router(path, OracleRouter())
    save_checkpoint(path, {"router_type": "oracle"}, [])
    with pytest.raises(ValueError, match="^unknown router_type 'oracle' in checkpoint$"):
        load_router(path)


def test_all_router_kinds_round_trip(tmp_path, small_synth):
    split = make_split(small_synth.n_queries, (3, 1, 6), seed=42)
    idx = np.asarray(split.test)[:5]
    hyper = tiny_hyper(small_synth.embed_dim, small_synth.n_models, epochs=2)
    mhyper = MlpHyper(d_q=small_synth.embed_dim, n_models=small_synth.n_models,
                      hidden=8, epochs=2, batch_size=64)
    routers = {
        "equirouter_nojoint": train_equirouter(small_synth, split, hyper, joint_feature=False)[0],
        "mse": train_mse_ablation(small_synth, split, hyper)[0],
        "mlp": train_mlp_router(small_synth, split, mhyper)[0],
        "knn": train_knn_router(small_synth, split, k=3),
    }
    for tag, router in routers.items():
        path = tmp_path / f"{tag}.ckpt"
        save_router(path, router)
        loaded = load_router(path)
        assert loaded.tag == tag
        assert np.array_equal(
            router_scores(loaded, small_synth, idx),
            router_scores(router, small_synth, idx),
        )
    cp, _ = train_cost_predictor(small_synth, split, mhyper)
    save_cost_predictor(tmp_path / "cost.ckpt", cp)
    loaded_cp = load_router(tmp_path / "cost.ckpt")
    assert loaded_cp.tag == "cost"
    assert np.array_equal(
        predict_costs(loaded_cp, small_synth.embeddings[idx]),
        predict_costs(cp, small_synth.embeddings[idx]),
    )
