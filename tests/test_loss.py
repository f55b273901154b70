import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margindistill.errors import ContractViolation
from margindistill.loss import MarginConfig, batch_loss
from margindistill.numerics import Rng

from oracles import (
    add_at_batch_grad,
    central_diff_grad,
    randint,
    sq_euclidean,
    uniform,
    unit_vector,
)

DYN = MarginConfig.dynamic(0.2, 0.5)


def _rows(*vectors):
    return np.array(vectors, dtype=np.float64)


def _pinned(points, gap, d_max, cfg=DYN):
    """One (0, 1, 2) triplet on ``points`` whose margin uses ``d_max``: a second
    triplet on two extra rows carries the batch-maximum gap, and its negative is
    so far away that it adds nothing to the loss or the gradient.  Returns the
    first triplet's loss, its margin and active flag, and the gradient rows of
    a, p, n."""
    far = np.zeros((2, points.shape[1]))
    far[1, 0] = 10.0
    res = batch_loss(np.vstack([points, far]), np.array([[0, 1, 2], [3, 3, 4]]),
                     np.array([gap, d_max]), cfg)
    assert not res.active[1]
    return 2.0 * res.loss, res.margins[0], res.active[0], 2.0 * res.grad[:3]


def test_triplet_loss_examples():
    # 1-d embeddings: every distance is one exact square
    cfg = MarginConfig.fixed(0.25)
    triplets = np.array([[0, 1, 2], [0, 2, 1], [0, 3, 3]])
    res = batch_loss(_rows([0.0], [1.0], [0.5], [0.75]), triplets, None, cfg)
    assert res.active.tolist() == [True, False, True]   # 1 - 0.25 + 0.25; 0.25 - 1 + 0.25; 0.25
    assert res.loss == (1.0 + 0.0 + 0.25) / 3
    res = batch_loss(_rows([0.0], [0.5], [-0.5]), np.array([[0, 1, 2]]), None,
                     MarginConfig.fixed(0.0))
    assert res.loss == 0.0 and not res.active[0]         # d_ap == d_an at margin 0


def test_triplet_loss_rejects_negative_inputs():
    emb = np.zeros((3, 2))
    tri = np.array([[0, 1, 2], [2, 1, 0]])
    for bad in ([-0.1, 0.5], [0.5, np.nan], [np.inf, 0.5], [-np.inf, 0.5], [np.nan, -1.0]):
        with pytest.raises(ContractViolation, match="finite and >= 0"):
            batch_loss(emb, tri, np.array(bad), DYN)


def test_batch_loss_rejects_wrong_gap_count_and_bad_indices():
    emb = np.zeros((3, 2))
    tri = np.array([[0, 1, 2], [2, 1, 0]])
    for gaps in (np.array([0.5]), np.array([0.5, 0.5, 0.5]), np.array([[0.5, 0.5]])):
        with pytest.raises(ContractViolation, match="one entry per triplet"):
            batch_loss(emb, tri, gaps, DYN)
    for bad in ([[0, 1, 3]], [[-1, 1, 2]]):
        with pytest.raises(ContractViolation, match="out of range"):
            batch_loss(emb, np.array(bad), None, MarginConfig.fixed(0.3))
    with pytest.raises(ContractViolation):
        batch_loss(emb, np.array([[0, 1]]), None, MarginConfig.fixed(0.3))
    with pytest.raises(ContractViolation):
        batch_loss(np.zeros(3), tri, None, MarginConfig.fixed(0.3))


def test_margin_fn_endpoints_and_midpoint():
    res = batch_loss(np.zeros((3, 2)), np.array([[0, 1, 2]] * 3), np.array([0.0, 1.0, 0.5]), DYN)
    assert res.margins[0] == 0.2
    assert res.margins[1] == 0.5
    assert res.margins[2] == pytest.approx(0.35, abs=1e-15)


def test_margin_fn_degenerate_batch_returns_lower_bound():
    res = batch_loss(np.zeros((3, 2)), np.array([[0, 1, 2]] * 2), np.zeros(2), DYN)
    assert res.d_max == 0.0
    assert res.margins.tolist() == [0.2, 0.2]


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    st.floats(0.0, 0.5),
    st.floats(0.5, 1.0),
    st.floats(1e-6, 10.0),
)
def test_margin_fn_monotone_and_in_range(fractions, m_min, m_max, d_max):
    # the batch maximum is d_max itself; the other gaps lie below it
    gaps = np.array(sorted(fractions) + [1.0]) * d_max
    gaps[-1] = d_max
    res = batch_loss(np.zeros((3, 1)), np.array([[0, 1, 2]] * gaps.size), gaps,
                     MarginConfig.dynamic(m_min, m_max))
    assert res.d_max == d_max
    assert np.all(np.diff(res.margins) >= 0.0)
    assert np.all((res.margins >= m_min) & (res.margins <= m_max))


def test_margin_config_validation():
    with pytest.raises(ContractViolation):
        MarginConfig.fixed(-0.1)
    with pytest.raises(ContractViolation):
        MarginConfig.dynamic(0.5, 0.2)
    with pytest.raises(ContractViolation):
        MarginConfig(mode="other")


def test_triplet_grads_inactive_is_zero():
    res = batch_loss(_rows([1.0, 2.0], [0.0, 1.0], [3.0, 0.0]), np.array([[0, 1, 2]]), None,
                     MarginConfig.fixed(0.0))
    assert not res.active[0]
    assert not res.grad.any()


def test_triplet_grads_closed_form_example():
    res = batch_loss(_rows([0, 0], [1, 0], [0, 1]), np.array([[0, 1, 2]]), None,
                     MarginConfig.fixed(0.5))
    assert res.active[0]
    np.testing.assert_array_equal(res.grad[0], [-2, 2])    # 2 (n - p)
    np.testing.assert_array_equal(res.grad[1], [2, 0])     # -2 (a - p)
    np.testing.assert_array_equal(res.grad[2], [0, -2])    # 2 (a - n)


def _triplet_fd_check(points, grads, loss_of, active):
    """Each of a, p, n's gradient rows against central differences of loss_of."""
    for row in range(3):
        def f(v, row=row):
            moved = points.copy()
            moved[row] = v
            return loss_of(moved)

        fd = central_diff_grad(f, points[row])
        if active:
            np.testing.assert_allclose(grads[row], fd, rtol=1e-4, atol=1e-7)
        else:
            assert not grads[row].any() and np.abs(fd).max() <= 1e-10


def test_triplet_grads_match_finite_differences_dim16():
    rng = Rng(31)
    cfg = MarginConfig.fixed(0.4)
    tri = np.array([[0, 1, 2]])
    checked = 0
    for _ in range(5):
        points = np.stack([rng.normals(16) for _ in range(3)])
        res = batch_loss(points, tri, None, cfg)
        hinge = sq_euclidean(points[0], points[1]) - sq_euclidean(points[0], points[2]) + 0.4
        if abs(hinge) < 1e-3:
            continue  # keep clear of the hinge kink
        assert res.active[0] == (hinge > 0)
        _triplet_fd_check(points, res.grad, lambda e: batch_loss(e, tri, None, cfg).loss,
                          res.active[0])
        checked += 1
    assert checked == 5


def test_dynamic_loss_degenerate_triplet_equals_margin():
    a = np.array([0.3, 0.7, 0.1])
    loss, margin, active, _ = _pinned(np.stack([a, a, a]), 0.4, 1.0)
    assert margin == (0.5 - 0.2) / 1.0 * 0.4 + 0.2
    assert loss == margin and active


def test_dynamic_loss_direct_example_inactive():
    loss, margin, active, grads = _pinned(_rows([0, 0], [1, 0], [0, 2]), 0.0, 1.0)
    assert margin == 0.2
    assert loss == 0.0 and not active
    assert not grads.any()


def test_dynamic_loss_matches_finite_differences_unit_vectors():
    # seeds 0-9, dim 8, per the hinge-free finite-difference protocol
    d_max = 1.0
    for seed in range(10):
        rng = Rng(seed)
        points = np.stack([unit_vector(rng, 8) for _ in range(3)])
        d_teacher = uniform(rng) * d_max
        loss, margin, active, grads = _pinned(points, d_teacher, d_max)
        hinge = sq_euclidean(points[0], points[1]) - sq_euclidean(points[0], points[2]) + margin
        assert loss == pytest.approx(max(hinge, 0.0), abs=1e-15)
        if abs(hinge) < 1e-3:
            continue
        _triplet_fd_check(points, grads, lambda e: _pinned(e, d_teacher, d_max)[0], active)


def test_dynamic_loss_requires_dynamic_mode():
    # dynamic margins need one teacher gap per triplet; fixed mode ignores gaps
    emb = _rows([0, 0], [1, 0], [0, 1])
    with pytest.raises(ContractViolation, match="requires per-triplet teacher gaps"):
        batch_loss(emb, np.array([[0, 1, 2]]), None, DYN)
    fixed = MarginConfig.fixed(0.3)
    with_gaps = batch_loss(emb, np.array([[0, 1, 2]]), np.array([7.0]), fixed)
    assert with_gaps.loss == batch_loss(emb, np.array([[0, 1, 2]]), None, fixed).loss


def _random_batch(rng, n_triplets, dim):
    emb = np.stack([rng.normals(dim) for _ in range(3 * n_triplets)])
    triplets = np.arange(3 * n_triplets).reshape(n_triplets, 3)
    return emb, triplets, rng.uniforms(n_triplets)


def _distances(emb, triplets):
    """(d_ap, d_an) per triplet, one np.dot each."""
    return np.array([(sq_euclidean(emb[a], emb[p]), sq_euclidean(emb[a], emb[n]))
                     for a, p, n in triplets]).T


def test_result_invariant_active_iff_positive_loss():
    rng = Rng(5)
    emb, triplets, gaps = _random_batch(rng, 100, 4)
    res = batch_loss(emb, triplets, gaps, MarginConfig.dynamic(0.0, 0.6))
    d_ap, d_an = _distances(emb, triplets)
    assert np.array_equal(res.active, d_ap - d_an + res.margins > 0)
    for t in np.flatnonzero(~res.active):     # an inactive triplet moves nothing alone
        alone = batch_loss(emb, triplets[t:t + 1], None, MarginConfig.fixed(res.margins[t]))
        assert alone.loss == 0.0 and not alone.active[0] and not alone.grad.any()


def test_hinge_characterization():
    rng = Rng(77)
    emb, triplets, gaps = _random_batch(rng, 200, 3)
    res = batch_loss(emb, triplets, gaps, DYN)
    d_ap, d_an = _distances(emb, triplets)
    assert np.array_equal(~res.active, d_an - d_ap >= res.margins)
    assert res.active.any() and not res.active.all()
    assert res.loss >= 0.0


def test_fixed_margin_reduction_exact():
    m = 0.37
    rng = Rng(123)
    emb, triplets, gaps = _random_batch(rng, 100, 5)
    dynamic = batch_loss(emb, triplets, gaps * 2.0, MarginConfig.dynamic(m, m))
    fixed = batch_loss(emb, triplets, None, MarginConfig.fixed(m))
    assert np.all(dynamic.margins == m)
    assert dynamic.loss == fixed.loss
    assert np.array_equal(dynamic.active, fixed.active)
    assert dynamic.grad.tobytes() == fixed.grad.tobytes()


def test_translation_invariance():
    rng = Rng(9)
    for _ in range(30):
        emb, triplets, gaps = _random_batch(rng, 1, 6)
        shift = rng.normals(6)
        base = batch_loss(emb, triplets, gaps, DYN)
        moved = batch_loss(emb + shift, triplets, gaps, DYN)
        assert moved.loss == pytest.approx(base.loss, abs=1e-9)
        np.testing.assert_allclose(moved.grad, base.grad, atol=1e-9)


# ---------------------------------------------------------------------------
# batch_loss against an independent per-triplet loop
# ---------------------------------------------------------------------------

def _naive_batch(embeddings, triplets, gaps, cfg):
    """Per-triplet loop on np.dot distances and the closed-form hinge gradients."""
    total = 0.0
    grad = np.zeros_like(embeddings)
    n = len(triplets)
    d_max = float(np.max(gaps)) if cfg.mode == "dynamic" else 0.0
    for (a, p, ng), d in zip(triplets, gaps):
        if cfg.mode == "fixed":
            margin = cfg.m
        elif d_max == 0.0:
            margin = cfg.m_min
        else:
            margin = min(max((cfg.m_max - cfg.m_min) / d_max * d + cfg.m_min, cfg.m_min),
                         cfg.m_max)
        ea, ep, en = embeddings[a], embeddings[p], embeddings[ng]
        loss = max(sq_euclidean(ea, ep) - sq_euclidean(ea, en) + margin, 0.0)
        total += loss
        if loss > 0.0:
            grad[a] += 2.0 * (en - ep) / n
            grad[p] += -2.0 * (ea - ep) / n
            grad[ng] += 2.0 * (ea - en) / n
    return total / n, grad


def test_batch_loss_single_triplet_equals_pointwise():
    rng = Rng(4)
    emb = np.stack([rng.normals(5) for _ in range(3)])
    active = []
    for a, p, n in ([0, 1, 2], [0, 2, 1]):
        res = batch_loss(emb, np.array([[a, p, n]]), np.array([0.3]), DYN)
        assert res.margins[0] == 0.5                  # a lone triplet's gap is d_max
        hinge = sq_euclidean(emb[a], emb[p]) - sq_euclidean(emb[a], emb[n]) + 0.5
        assert res.active[0] == (hinge > 0)
        assert res.loss == pytest.approx(max(hinge, 0.0), abs=1e-15)
        want = np.zeros_like(emb)
        if res.active[0]:
            want[[a, p, n]] = [2.0 * (emb[n] - emb[p]), -2.0 * (emb[a] - emb[p]),
                               2.0 * (emb[a] - emb[n])]
        np.testing.assert_array_equal(res.grad, want)
        active.append(res.active[0])
    assert active == [False, True]


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
        [[randint(rng, 20), randint(rng, 20), randint(rng, 20)] for _ in range(50)]
    )
    gaps = rng.uniforms(50) * 1.7
    cfg = DYN if mode == "dynamic" else MarginConfig.fixed(0.4)
    res = batch_loss(emb, triplets, gaps if mode == "dynamic" else None, cfg)
    ref_loss, ref_grad = _naive_batch(emb, triplets, gaps, cfg)
    assert res.active.any() and not res.active.all()
    assert res.loss == pytest.approx(ref_loss, abs=1e-12)
    np.testing.assert_allclose(res.grad, ref_grad, atol=1e-12)


def test_batch_loss_d_max_is_batch_maximum():
    emb = np.zeros((3, 2))
    gaps = np.array([0.2, 1.4, 0.7])
    res = batch_loss(emb, np.array([[0, 1, 2]] * 3), gaps, DYN)
    assert res.d_max == 1.4


def test_batch_loss_rejects_empty():
    with pytest.raises(ContractViolation):
        batch_loss(np.zeros((2, 2)), np.zeros((0, 3), dtype=int), None, MarginConfig.fixed(0.3))


def test_batch_loss_margins_within_bounds():
    rng = Rng(14)
    emb = np.stack([rng.normals(4) for _ in range(10)])
    triplets = np.array([[randint(rng, 10) for _ in range(3)] for _ in range(40)])
    gaps = rng.uniforms(40) * 3.0
    res = batch_loss(emb, triplets, gaps, DYN)
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


@pytest.mark.parametrize("dim", [1, 16, 32])
@pytest.mark.parametrize("margin, active", [(0.0, "none"), (0.5, "some"), (1e3, "all")])
def test_batch_loss_grad_matches_add_at_with_none_some_or_all_active(margin, active, dim):
    # all active takes the gathered rows as they are; some active gathers again
    emb, triplets, _ = _grid_batch(dim, 64, dim, 448)
    if active == "none":
        triplets[:, 1] = triplets[:, 0]       # d_ap = 0 <= d_an, no hinge at margin 0
    res = batch_loss(emb, triplets, None, MarginConfig.fixed(margin))
    n_active = int(res.active.sum())
    assert {"none": n_active == 0, "some": 0 < n_active < 448, "all": n_active == 448}[active]
    assert res.grad.tobytes() == add_at_batch_grad(emb, triplets, res.active).tobytes()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: MarginConfig.dynamic(float("nan"), 1.0),
                 "margin bounds must be finite", id="dynamic-nan"),
])
def test_loss_contract_errors(call, message):
    with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
        call()
