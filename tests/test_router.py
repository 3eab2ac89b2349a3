import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirouter.dataset import ModelInfo, RoutingTable, SynthConfig, generate_synthetic, make_split
from equirouter.neuralnet import grad_check
from equirouter.oracle import oracle_select, select_under_budget
import equirouter.router as router_module
from equirouter.rng import make_rng
from equirouter.router import (
    CostPredictorParams,
    EquiHyper,
    MlpHyper,
    MlpRouterParams,
    OracleRouter,
    _assign_layers,
    _init_two_layer,
    _layer_params,
    _nearest,
    _regressor_objective,
    assign_params,
    build_pair_set,
    build_pairs,
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

from conftest import make_table


def tiny_hyper(d_q, k, seed=0, **kw):
    defaults = dict(d_m=6, latent_dim=8, epochs=30, batch_size=64, learning_rate=3e-3)
    defaults.update(kw)
    return EquiHyper(d_q=d_q, n_models=k, seed=seed, **defaults)


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
    p = init_equirouter(tiny_hyper(6, 4, seed=4), joint_feature=joint)
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
    p = init_equirouter(tiny_hyper(6, 4, seed=6), joint_feature=joint)
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

    The trunk runs once per query regardless of K; per model the router
    applies the modulation, the interaction blocks and the head. The film/proj
    projections and the head's e_j block c depend only on the model embeddings
    and are computed once per block, so they amortize to zero per query.
    """
    trunk = sum(l.in_dim * l.out_dim for l in p.trunk)
    D = p.latent_dim
    per_model = 2 * D  # gamma * z + beta, and the head's output layer D -> 1
    if p.joint_feature:
        per_model += 2 * D + 3 * D * D  # z_j * e_j, |z_j - e_j|; blocks z, u, v
    else:
        per_model += D * D  # the head's z_j block
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
    # D (modulation) + 2D (interaction) + 3*D*D (z_j, u, v blocks) + D (output),
    # the no-joint head D + D*D + D; the e_j block is per call, not per query
    p = init_equirouter(tiny_hyper(5, 4), joint_feature=joint)
    per_model = 8 + 2 * 8 + 3 * 64 + 8 if joint else 8 + 64 + 8
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
        init_equirouter(EquiHyper(d_q=24, n_models=11, d_m=16, latent_dim=64), joint_feature=j)
        for j in (True, False)
    ]
    h = MlpHyper(d_q=24, n_models=11, hidden=64)
    mlp = MlpRouterParams(*_init_two_layer(h), hyper=h)
    cp = CostPredictorParams(
        *_init_two_layer(MlpHyper(d_q=24, n_models=11, hidden=64, seed=1)),
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

    def counting(p, Q):
        seen.append(len(Q))
        return forward_scores(p, Q)

    monkeypatch.setattr(router_module, "_forward_scores", counting)
    Q = make_rng(1, 0).standard_normal((n, 5))
    S = scores_batch(p, Q)
    assert seen == sizes and S.shape == (n, 3)
    if n == 1:  # the single-query route() path is one call too
        seen.clear()
        table = make_table(perf=np.zeros((1, 3)), cost=np.ones((1, 3)), embeddings=Q)
        assert np.array_equal(route(p, table, 0, 1.0).scores, S[0]) and seen == [1]


def test_scores_batch_memory_flat_in_batch_size():
    # beyond the (N, K) result itself, scoring holds one block's arrays
    p = init_equirouter(EquiHyper(d_q=24, n_models=11, d_m=16, latent_dim=64))

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
    assert ranking_loss(np.zeros(3), pairs) == pytest.approx(math.log(2), abs=1e-9)


def test_ranking_loss_hand_value():
    assert ranking_loss(np.array([2.0, 0.0]), np.array([(0, 1)])) == pytest.approx(
        math.log1p(math.exp(-2)), abs=1e-12
    )


def test_ranking_loss_saturation_no_overflow():
    loss = ranking_loss(np.array([50.0, 0.0]), np.array([(0, 1)]))
    assert 0 < loss < 1e-21
    big = ranking_loss(np.array([1000.0, 0.0]), np.array([(0, 1)]))
    assert np.isfinite(big) and big >= 0


def test_ranking_loss_shift_invariance():
    rng = make_rng(22, 0)
    s = rng.standard_normal(5)
    pairs = build_pairs(rng.random(5), rng.random(5))
    assert ranking_loss(s, pairs) == pytest.approx(ranking_loss(s + 17.3, pairs))


def test_ranking_loss_rejects_nonfinite_scores():
    with pytest.raises(ValueError):
        ranking_loss(np.array([np.inf, 0.0]), np.array([(0, 1)]))


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
        assert ranking_loss(S[q], pairs[q]) == pytest.approx(per_query[-1], rel=1e-12)
    reference = np.mean(per_query)
    assert ranking_objective(p, t.embeddings, W)[0] == pytest.approx(reference, rel=1e-12)
    assert ranking_loss(S, W) == pytest.approx(reference, rel=1e-12)
    empty = [q for q in range(n) if not len(pairs[q])]
    if empty:
        with pytest.raises(ValueError, match="no ranking supervision"):
            ranking_objective(p, t.embeddings[empty], W[empty])


# ---------------------------------------------------------------------------
# gradient correctness of the full objectives


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
        EquiHyper(d_q=6, n_models=3, d_m=4, latent_dim=8, seed=7), joint_feature=joint
    )
    if tie:
        _tie_first_coordinate(p)

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
    layers = list(_init_two_layer(MlpHyper(d_q=6, n_models=3, hidden=8, seed=9)))

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
    mlp.hidden_layer.weight = np.zeros_like(mlp.hidden_layer.weight)
    mlp.hidden_layer.bias = np.zeros_like(mlp.hidden_layer.bias)
    mlp.output_layer.weight = np.zeros_like(mlp.output_layer.weight)
    mlp.output_layer.bias = np.array([0.1, 0.9])
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
