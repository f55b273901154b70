import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margindistill.errors import ContractViolation
from margindistill.loss import (
    MarginConfig,
    batch_loss,
    margin_fn,
    triplet_grads,
    triplet_loss,
    triplet_loss_dynamic,
)
from margindistill.numerics import Rng, sq_euclidean

from oracles import add_at_batch_grad, central_diff_grad, unit_vector


def test_triplet_loss_examples():
    assert triplet_loss(0.6, 0.8, 0.3) == pytest.approx(0.1, abs=1e-15)
    assert triplet_loss(0.2, 0.9, 0.3) == 0.0
    assert triplet_loss(0.5, 0.5, 0.0) == 0.0


def test_triplet_loss_rejects_negative_inputs():
    for bad in [(-0.1, 0.5, 0.3), (0.5, -0.1, 0.3), (0.5, 0.5, -0.3)]:
        with pytest.raises(ContractViolation):
            triplet_loss(*bad)


def test_margin_fn_endpoints_and_midpoint():
    assert margin_fn(0.0, 0.2, 0.5, 1.0) == 0.2
    assert margin_fn(1.0, 0.2, 0.5, 1.0) == 0.5
    assert margin_fn(0.5, 0.2, 0.5, 1.0) == pytest.approx(0.35, abs=1e-15)


def test_margin_fn_degenerate_batch_returns_lower_bound():
    assert margin_fn(0.0, 0.2, 0.5, 0.0) == 0.2


def test_margin_fn_rejects_d_above_batch_max():
    with pytest.raises(ContractViolation):
        margin_fn(1.5, 0.2, 0.5, 1.0)


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5),
    st.floats(0.5, 1.0),
    st.floats(1e-6, 10.0),
)
def test_margin_fn_monotone_and_in_range(f1, f2, m_min, m_max, d_max):
    d1, d2 = sorted((f1 * d_max, f2 * d_max))
    v1 = margin_fn(d1, m_min, m_max, d_max)
    v2 = margin_fn(d2, m_min, m_max, d_max)
    assert v1 <= v2
    assert m_min <= v1 <= m_max
    assert m_min <= v2 <= m_max


def test_margin_config_validation():
    with pytest.raises(ContractViolation):
        MarginConfig.fixed(-0.1)
    with pytest.raises(ContractViolation):
        MarginConfig.dynamic(0.5, 0.2)
    with pytest.raises(ContractViolation):
        MarginConfig(mode="other")


def test_triplet_grads_inactive_is_zero():
    ga, gp, gn = triplet_grads([1.0, 2.0], [0.0, 1.0], [3.0, 0.0], active=False)
    assert not ga.any() and not gp.any() and not gn.any()


def test_triplet_grads_closed_form_example():
    ga, gp, gn = triplet_grads([0, 0], [1, 0], [0, 1], active=True)
    np.testing.assert_array_equal(ga, [-2, 2])
    np.testing.assert_array_equal(gp, [2, 0])
    np.testing.assert_array_equal(gn, [0, -2])


def test_triplet_grads_match_finite_differences_dim16():
    rng = Rng(31)
    m = 0.4
    for _ in range(5):
        a = rng.normals(16)
        p = rng.normals(16)
        n = rng.normals(16)
        if abs(sq_euclidean(a, p) - sq_euclidean(a, n) + m) < 1e-3:
            continue  # keep clear of the hinge kink
        active = sq_euclidean(a, p) - sq_euclidean(a, n) + m > 0
        ga, gp, gn = triplet_grads(a, p, n, active)
        for point, grad, rebuild in [
            (a, ga, lambda v: (v, p, n)),
            (p, gp, lambda v: (a, v, n)),
            (n, gn, lambda v: (a, p, v)),
        ]:
            fd = central_diff_grad(
                lambda v: triplet_loss(
                    sq_euclidean(rebuild(v)[0], rebuild(v)[1]),
                    sq_euclidean(rebuild(v)[0], rebuild(v)[2]),
                    m,
                ),
                point,
            )
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)


def test_dynamic_loss_degenerate_triplet_equals_margin():
    a = np.array([0.3, 0.7, 0.1])
    cfg = MarginConfig.dynamic(0.2, 0.5)
    res = triplet_loss_dynamic(a, a, a, d_teacher=0.4, d_max=1.0, cfg=cfg)
    expected_margin = margin_fn(0.4, 0.2, 0.5, 1.0)
    assert res.loss == res.margin_used == expected_margin
    assert res.active


def test_dynamic_loss_direct_example_inactive():
    cfg = MarginConfig.dynamic(0.2, 0.5)
    res = triplet_loss_dynamic(
        [0, 0], [1, 0], [0, 2], d_teacher=0.0, d_max=1.0, cfg=cfg
    )
    assert res.loss == 0.0
    assert not res.active
    assert not res.grad_a.any() and not res.grad_p.any() and not res.grad_n.any()


def test_dynamic_loss_matches_finite_differences_unit_vectors():
    # seeds 0-9, dim 8, per the hinge-free finite-difference protocol
    cfg = MarginConfig.dynamic(0.2, 0.5)
    d_max = 1.0
    for seed in range(10):
        rng = Rng(seed)
        a = unit_vector(rng, 8)
        p = unit_vector(rng, 8)
        n = unit_vector(rng, 8)
        d_teacher = rng.random() * d_max
        res = triplet_loss_dynamic(a, p, n, d_teacher, d_max, cfg)
        margin = margin_fn(d_teacher, 0.2, 0.5, d_max)
        brute = max(sq_euclidean(a, p) - sq_euclidean(a, n) + margin, 0.0)
        assert res.loss == brute
        if abs(sq_euclidean(a, p) - sq_euclidean(a, n) + margin) < 1e-3:
            continue
        for point, grad, rebuild in [
            (a, res.grad_a, lambda v: (v, p, n)),
            (p, res.grad_p, lambda v: (a, v, n)),
            (n, res.grad_n, lambda v: (a, p, v)),
        ]:
            fd = central_diff_grad(
                lambda v: triplet_loss_dynamic(*rebuild(v), d_teacher, d_max, cfg).loss,
                point,
            )
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)


def test_dynamic_loss_requires_dynamic_mode():
    with pytest.raises(ContractViolation):
        triplet_loss_dynamic([0, 0], [1, 0], [0, 1], 0.1, 1.0, MarginConfig.fixed(0.3))


def test_result_invariant_active_iff_positive_loss():
    cfg = MarginConfig.dynamic(0.0, 0.6)
    rng = Rng(5)
    for _ in range(100):
        a, p, n = (rng.normals(4) for _ in range(3))
        d = rng.random()
        res = triplet_loss_dynamic(a, p, n, d, 1.0, cfg)
        assert res.active == (res.loss > 0)
        if not res.active:
            assert not res.grad_a.any()


def test_hinge_characterization():
    cfg = MarginConfig.dynamic(0.2, 0.5)
    rng = Rng(77)
    for _ in range(200):
        a, p, n = (rng.normals(3) for _ in range(3))
        d = rng.random()
        res = triplet_loss_dynamic(a, p, n, d, 1.0, cfg)
        gap = sq_euclidean(a, n) - sq_euclidean(a, p)
        assert (res.loss == 0.0) == (gap >= res.margin_used)
        assert res.loss >= 0.0


def test_fixed_margin_reduction_exact():
    m = 0.37
    cfg = MarginConfig.dynamic(m, m)
    rng = Rng(123)
    for _ in range(100):
        a, p, n = (rng.normals(5) for _ in range(3))
        d = rng.random() * 2.0
        res = triplet_loss_dynamic(a, p, n, d, 2.0, cfg)
        assert res.margin_used == m
        assert res.loss == triplet_loss(sq_euclidean(a, p), sq_euclidean(a, n), m)


def test_translation_invariance():
    cfg = MarginConfig.dynamic(0.2, 0.5)
    rng = Rng(9)
    for _ in range(30):
        a, p, n = (rng.normals(6) for _ in range(3))
        shift = rng.normals(6)
        d = rng.random()
        base = triplet_loss_dynamic(a, p, n, d, 1.0, cfg).loss
        moved = triplet_loss_dynamic(a + shift, p + shift, n + shift, d, 1.0, cfg).loss
        assert moved == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# batch_loss
# ---------------------------------------------------------------------------

def _naive_batch(embeddings, triplets, gaps, cfg):
    """Loop oracle built on the per-triplet op."""
    total = 0.0
    grad = np.zeros_like(embeddings)
    n = len(triplets)
    d_max = float(np.max(gaps)) if cfg.mode == "dynamic" else 0.0
    for (a, p, ng), d in zip(triplets, gaps):
        if cfg.mode == "dynamic":
            res = triplet_loss_dynamic(
                embeddings[a], embeddings[p], embeddings[ng], d, d_max, cfg
            )
            loss, ga, gp, gn = res.loss, res.grad_a, res.grad_p, res.grad_n
        else:
            loss = triplet_loss(
                sq_euclidean(embeddings[a], embeddings[p]),
                sq_euclidean(embeddings[a], embeddings[ng]),
                cfg.m,
            )
            ga, gp, gn = triplet_grads(
                embeddings[a], embeddings[p], embeddings[ng], loss > 0
            )
        total += loss
        grad[a] += ga / n
        grad[p] += gp / n
        grad[ng] += gn / n
    return total / n, grad


def test_batch_loss_single_triplet_equals_pointwise():
    rng = Rng(4)
    emb = np.stack([rng.normals(5) for _ in range(3)])
    cfg = MarginConfig.dynamic(0.2, 0.5)
    gaps = np.array([0.3])
    res = batch_loss(emb, np.array([[0, 1, 2]]), gaps, cfg)
    ref = triplet_loss_dynamic(emb[0], emb[1], emb[2], 0.3, 0.3, cfg)
    assert res.loss == ref.loss
    np.testing.assert_array_equal(res.grad[0], ref.grad_a)
    np.testing.assert_array_equal(res.grad[1], ref.grad_p)
    np.testing.assert_array_equal(res.grad[2], ref.grad_n)


def test_batch_loss_duplicated_triplet_unchanged():
    rng = Rng(6)
    emb = np.stack([rng.normals(4) for _ in range(3)])
    cfg = MarginConfig.dynamic(0.1, 0.9)
    single = batch_loss(emb, np.array([[0, 1, 2]]), np.array([0.5]), cfg)
    double = batch_loss(emb, np.array([[0, 1, 2]] * 2), np.array([0.5, 0.5]), cfg)
    assert double.loss == pytest.approx(single.loss, abs=1e-15)
    np.testing.assert_allclose(double.grad, single.grad, atol=1e-15)


@pytest.mark.parametrize("mode", ["dynamic", "fixed"])
def test_batch_loss_matches_naive_loop_50_triplets(mode):
    rng = Rng(2)
    emb = np.stack([rng.normals(8) for _ in range(20)])
    triplets = np.array(
        [[rng.randint(20), rng.randint(20), rng.randint(20)] for _ in range(50)]
    )
    gaps = rng.uniforms(50) * 1.7
    cfg = MarginConfig.dynamic(0.2, 0.5) if mode == "dynamic" else MarginConfig.fixed(0.4)
    res = batch_loss(emb, triplets, gaps if mode == "dynamic" else None, cfg)
    ref_loss, ref_grad = _naive_batch(emb, triplets, gaps, cfg)
    assert res.loss == pytest.approx(ref_loss, abs=1e-12)
    np.testing.assert_allclose(res.grad, ref_grad, atol=1e-12)


def test_batch_loss_d_max_is_batch_maximum():
    emb = np.zeros((3, 2))
    gaps = np.array([0.2, 1.4, 0.7])
    res = batch_loss(emb, np.array([[0, 1, 2]] * 3), gaps, MarginConfig.dynamic(0.2, 0.5))
    assert res.d_max == 1.4


def test_batch_loss_rejects_empty():
    with pytest.raises(ContractViolation):
        batch_loss(np.zeros((2, 2)), np.zeros((0, 3), dtype=int), None, MarginConfig.fixed(0.3))


def test_batch_loss_margins_within_bounds():
    rng = Rng(14)
    emb = np.stack([rng.normals(4) for _ in range(10)])
    triplets = np.array([[rng.randint(10), rng.randint(10), rng.randint(10)] for _ in range(40)])
    gaps = rng.uniforms(40) * 3.0
    res = batch_loss(emb, triplets, gaps, MarginConfig.dynamic(0.2, 0.5))
    assert np.all(res.margins >= 0.2) and np.all(res.margins <= 0.5)


def _grid_batch(seed, n_rows, dim, n_triplets):
    """Embeddings on a small grid holding +-0.0, so per-triplet gradient terms
    include -0.0 and exact cancellations; random triplets with repeated rows."""
    gen = np.random.default_rng(seed)
    emb = gen.choice([-1.0, -0.25, -0.0, 0.0, 0.25, 1.0], size=(n_rows, dim))
    triplets = gen.integers(0, n_rows, size=(n_triplets, 3))
    gaps = gen.choice([0.0, 0.5, 2.0], size=n_triplets)
    return emb, triplets, gaps


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 64),
       st.integers(1, 60), st.sampled_from(["fixed", "dynamic"]))
def test_batch_loss_grad_matches_add_at_bitwise(seed, n_rows, dim, n_triplets, mode):
    emb, triplets, gaps = _grid_batch(seed, n_rows, dim, n_triplets)
    cfg = MarginConfig.fixed(0.5) if mode == "fixed" else MarginConfig.dynamic(0.2, 1.0)
    res = batch_loss(emb, triplets, gaps, cfg)
    assert res.grad.tobytes() == add_at_batch_grad(emb, triplets, res.active).tobytes()


@pytest.mark.parametrize("n_triplets, dim", [(3000, 64), (25088, 5)])
def test_batch_loss_grad_matches_add_at_on_large_batches(n_triplets, dim):
    # enough triplets that the gradient is scattered a few columns at a time
    emb, triplets, gaps = _grid_batch(7, 64, dim, n_triplets)
    res = batch_loss(emb, triplets, gaps, MarginConfig.dynamic(0.5, 2.0))
    assert res.active.sum() > 1000
    assert res.grad.tobytes() == add_at_batch_grad(emb, triplets, res.active).tobytes()


def test_batch_loss_negative_zero_terms_sum_to_positive_zero():
    # anchor +0.0 and positive -0.0: the positive's term -2/T (a - p) is -0.0,
    # and accumulation from +0.0 leaves +0.0
    emb = np.array([[0.0], [-0.0], [1.0]])
    assert np.signbit(-2.0 * (emb[0, 0] - emb[1, 0]))
    res = batch_loss(emb, np.array([[0, 1, 2]]), None, MarginConfig.fixed(3.0))
    want = add_at_batch_grad(emb, np.array([[0, 1, 2]]), res.active)
    assert res.grad.tobytes() == want.tobytes()
    assert not np.signbit(res.grad[1, 0])
