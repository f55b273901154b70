import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margindistill.errors import ContractViolation, DegenerateInput, FormatError
from margindistill.loss import MarginConfig
from margindistill.mlp import (
    EMBED_ROWS,
    MlpModel,
    backward_batch,
    embed,
    forward_batch,
    init_mlp,
    init_sgd,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from margindistill.numerics import Rng
from margindistill.training import DistillConfig

from oracles import central_diff_grad, scalar_uniforms, straightline_mlp_forward


def forward(model, x):
    """One input vector through forward_batch."""
    emb, cache = forward_batch(model, np.asarray(x, dtype=np.float64)[None])
    return emb[0], cache


def backward(model, cache, grad_embedding):
    """One embedding gradient through backward_batch."""
    return backward_batch(model, cache, np.asarray(grad_embedding)[None])


def _zero_model(dims, normalize=False):
    weights = [np.zeros((fi, fo)) for fi, fo in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(fo) for fo in dims[1:]]
    return MlpModel(layer_dims=dims, weights=weights, biases=biases,
                    normalize_output=normalize)


def test_zero_weight_model_outputs_zero():
    model = _zero_model((3, 4, 2))
    emb, _ = forward(model, [1.0, -2.0, 0.5])
    np.testing.assert_array_equal(emb, [0.0, 0.0])


def test_single_layer_identity_weights():
    model = MlpModel(
        layer_dims=(3, 3), weights=[np.eye(3)], biases=[np.zeros(3)],
        normalize_output=False,
    )
    emb, _ = forward(model, [0.2, -0.4, 1.5])
    np.testing.assert_array_equal(emb, [0.2, -0.4, 1.5])


@pytest.mark.parametrize("normalize", [False, True])
def test_forward_matches_straightline_reimplementation(normalize):
    model = init_mlp((5, 7, 6, 4), normalize_output=normalize, rng=Rng(0))
    x = Rng(1).normals(5)
    emb, _ = forward(model, x)
    ref = straightline_mlp_forward(model.weights, model.biases, x, normalize)
    np.testing.assert_allclose(emb, ref, rtol=1e-12, atol=1e-14)


def test_init_is_deterministic_and_in_glorot_range():
    m1 = init_mlp((4, 8, 3), True, Rng(5))
    m2 = init_mlp((4, 8, 3), True, Rng(5))
    for w1, w2 in zip(m1.weights, m2.weights):
        np.testing.assert_array_equal(w1, w2)
    s0 = np.sqrt(6.0 / (4 + 8))
    assert np.abs(m1.weights[0]).max() <= s0
    for b in m1.biases:
        assert not b.any()


def _scalar_glorot(dims, seed):
    """init_mlp's weights from one random() draw per entry."""
    draw = Rng(seed).next_uint64
    return [((2.0 * scalar_uniforms(draw, fi * fo) - 1.0) * math.sqrt(6.0 / (fi + fo)))
            .reshape(fi, fo) for fi, fo in zip(dims[:-1], dims[1:])]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 140), min_size=2, max_size=5), st.integers(0, 2**64 - 1))
def test_init_weights_equal_scalar_draws(dims, seed):
    model = init_mlp(dims, True, Rng(seed))
    for got, want in zip(model.weights, _scalar_glorot(dims, seed), strict=True):
        assert got.tobytes() == want.tobytes()


def test_teacher_init_equals_scalar_draws():
    dims = (32, 128, 128, 128, 32)
    model = init_mlp(dims, True, Rng(3))
    for got, want in zip(model.weights, _scalar_glorot(dims, 3), strict=True):
        assert got.tobytes() == want.tobytes()


def test_normalized_output_unit_norm():
    model = init_mlp((4, 6, 3), True, Rng(2))
    emb, _ = forward_batch(model, np.stack([Rng(3).normals(4) for _ in range(10)]))
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-6)


def test_forward_dimension_mismatch():
    model = init_mlp((4, 3), True, Rng(0))
    with pytest.raises(ContractViolation):
        forward(model, [1.0, 2.0])
    for x in (np.zeros((5, 3)), np.zeros(4), np.zeros((0, 5))):
        with pytest.raises(ContractViolation):
            embed(model, x)


def _embedding_or_error(f, model, x):
    try:
        return f(model, x).tobytes()
    except DegenerateInput:
        return DegenerateInput


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(1, 48), min_size=2, max_size=4), normalize=st.booleans(),
       n=st.sampled_from([0, 1, EMBED_ROWS - 1, EMBED_ROWS, EMBED_ROWS + 1,
                          2 * EMBED_ROWS + 37]),
       bias=st.sampled_from([0.0, 0.5]), tiny=st.booleans(), zero_row=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_embed_equals_forward_batch_bit_for_bit(dims, normalize, n, bias, tiny, zero_row,
                                                seed):
    model = init_mlp(dims, normalize, Rng(seed))
    rng = np.random.default_rng(seed)
    for b in model.biases:
        b[:] = bias * rng.standard_normal(b.shape)
    x = rng.standard_normal((n, dims[0]))
    # with zero biases, output rows scale with input rows: the second half of the
    # rows, which reaches the last block, takes the tiny-norm rescale, and a zero row
    # has norm 0
    if tiny:
        x[n // 2:] *= 1e-160
    if zero_row and n:
        x[-1] = 0.0
    want = _embedding_or_error(lambda m, v: forward_batch(m, v)[0], model, x)
    assert _embedding_or_error(embed, model, x) == want
    if zero_row and n and normalize and bias == 0.0:
        assert want is DegenerateInput


def test_embed_rescales_tiny_rows_in_a_later_block():
    model = init_mlp((3, 64, 4), True, Rng(1))       # zero biases: outputs scale with inputs
    x = Rng(2).normals(3 * (EMBED_ROWS + 5)).reshape(-1, 3)
    tiny = x.copy()
    tiny[EMBED_ROWS + 2] *= 1e-160
    got = embed(model, tiny)
    assert got.tobytes() == forward_batch(model, tiny)[0].tobytes()
    np.testing.assert_allclose(got[EMBED_ROWS + 2], embed(model, x)[EMBED_ROWS + 2],
                               rtol=0, atol=1e-15)
    tiny[EMBED_ROWS + 3] = 0.0
    with pytest.raises(DegenerateInput, match="zero norm"):
        embed(model, tiny)


@pytest.mark.parametrize("f", [lambda m, x: forward_batch(m, x)[0], embed],
                         ids=["forward_batch", "embed"])
def test_a_collapsed_output_says_whether_the_last_hidden_layer_died(f):
    # zero biases and negative first-layer weights: a positive input switches off every
    # hidden unit, so the output is exactly zero
    model = init_mlp((3, 8, 8, 4), True, Rng(5))
    model.weights[0][:] = -np.abs(model.weights[0])
    x = np.abs(Rng(6).normals(15).reshape(5, 3)) + 0.1
    x[3:] *= -1.0                                       # two rows that keep units alive
    with pytest.raises(DegenerateInput, match="zero norm in 3 of 5 rows; 3 of them have "
                                              "every unit of the last hidden layer"):
        f(model, x)
    model.weights[0][:] *= -1.0
    model.weights[-1][:] = 0.0                          # alive units, a zero last layer
    with pytest.raises(DegenerateInput, match="zero norm in 3 of 3 rows; 0 of them"):
        f(model, x[:3])


def test_zero_prenorm_output_raises():
    model = _zero_model((2, 2), normalize=True)
    with pytest.raises(DegenerateInput):
        forward(model, [1.0, 1.0])


def test_backward_tiny_prenorm_row_raises_instead_of_inf_gradients():
    model = MlpModel(layer_dims=(3, 3), weights=[np.eye(3)], biases=[np.zeros(3)],
                     normalize_output=True)
    x = np.array([[1e-160, 0, 0], [3, 4, 0], [1e-300, 2e-300, 1e-320], [5e-324, 0, 0]])
    emb, cache = forward_batch(model, x)
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-15)
    with np.errstate(all="raise"), pytest.raises(DegenerateInput, match="too small"):
        backward_batch(model, cache, np.ones_like(emb))
    emb, cache = forward_batch(model, x[:3])        # norms down to 2e-300: finite gradients
    grads = backward_batch(model, cache, np.ones_like(emb))
    assert all(np.isfinite(g).all() for g in grads.weights + grads.biases)


def test_backward_zero_grad_gives_zero():
    model = init_mlp((3, 5, 2), True, Rng(7))
    emb, cache = forward(model, [0.1, 0.2, 0.3])
    grads = backward(model, cache, np.zeros(2))
    for gw, gb in zip(grads.weights, grads.biases):
        assert not gw.any() and not gb.any()


def test_backward_linear_model_closed_form():
    # one affine layer, loss = sum(embedding): dW[i, j] = x[i]
    model = _zero_model((3, 2))
    x = np.array([0.5, -1.0, 2.0])
    _, cache = forward(model, x)
    grads = backward(model, cache, np.ones(2))
    np.testing.assert_array_equal(grads.weights[0], np.column_stack([x, x]))
    np.testing.assert_array_equal(grads.biases[0], [1.0, 1.0])


@pytest.mark.parametrize("normalize", [False, True])
def test_backward_matches_finite_differences(normalize):
    # scalar probe f = sum(R * emb) exercises every path incl. the
    # normalization Jacobian
    model = init_mlp((4, 6, 5, 3), normalize_output=normalize, rng=Rng(11))
    x = np.stack([Rng(12).normals(4) for _ in range(7)])
    r = Rng(13).normals(7 * 3).reshape(7, 3)

    emb, cache = forward_batch(model, x)
    grads = backward_batch(model, cache, r)

    for layer in range(model.n_layers):
        w_shape = model.weights[layer].shape

        def f_at(flat_w):
            probe = model.copy()
            probe.weights[layer] = flat_w.reshape(w_shape)
            e, _ = forward_batch(probe, x)
            return float((r * e).sum())

        fd = central_diff_grad(f_at, model.weights[layer].ravel()).reshape(w_shape)
        np.testing.assert_allclose(grads.weights[layer], fd, rtol=1e-5, atol=1e-7)

        def f_at_b(bvec):
            probe = model.copy()
            probe.biases[layer] = bvec
            e, _ = forward_batch(probe, x)
            return float((r * e).sum())

        fd_b = central_diff_grad(f_at_b, model.biases[layer])
        np.testing.assert_allclose(grads.biases[layer], fd_b, rtol=1e-5, atol=1e-7)


def test_stale_cache_rejected():
    model = init_mlp((3, 4, 2), True, Rng(1))
    _, cache = forward(model, [0.1, 0.2, 0.3])
    grads = backward(model, cache, np.ones(2))
    state = init_sgd(model, 0.1, 0.0)
    sgd_step(state, model, grads)
    with pytest.raises(ContractViolation):
        backward(model, cache, np.ones(2))


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

def _scalar_model(w0=0.0):
    return MlpModel(
        layer_dims=(1, 1), weights=[np.array([[w0]])], biases=[np.zeros(1)],
        normalize_output=False,
    )


def _grads_like(model, value):
    from margindistill.mlp import ModelGrads

    return ModelGrads(
        weights=[np.full_like(w, value) for w in model.weights],
        biases=[np.zeros_like(b) for b in model.biases],
    )


def test_sgd_plain_step():
    model = _scalar_model(0.0)
    state = init_sgd(model, learning_rate=1.0, momentum=0.0)
    sgd_step(state, model, _grads_like(model, 1.0))
    assert model.weights[0][0, 0] == -1.0


def test_sgd_zero_gradient_fixed_point():
    model = _scalar_model(0.7)
    state = init_sgd(model, 0.5, 0.9)
    for _ in range(5):
        sgd_step(state, model, _grads_like(model, 0.0))
    assert model.weights[0][0, 0] == 0.7


def test_sgd_two_steps_momentum_hand_rolled():
    # v1 = -0.1, w1 = -0.1; v2 = 0.9*(-0.1) - 0.1 = -0.19; w2 = -0.29
    model = _scalar_model(0.0)
    state = init_sgd(model, learning_rate=0.1, momentum=0.9)
    sgd_step(state, model, _grads_like(model, 1.0))
    sgd_step(state, model, _grads_like(model, 1.0))
    assert model.weights[0][0, 0] == pytest.approx(-0.29, abs=1e-12)


def test_sgd_validation():
    model = _scalar_model()
    with pytest.raises(ContractViolation):
        init_sgd(model, 0.0, 0.5)
    with pytest.raises(ContractViolation):
        init_sgd(model, 0.1, 1.0)


@pytest.mark.parametrize("learning_rate, momentum", [
    (0.0, 0.5), (-0.1, 0.5), (math.inf, 0.9), (math.nan, 0.9), (0.1, 1.0), (0.1, -0.1),
    (0.1, math.nan),
])
def test_sgd_settings_are_refused_as_the_training_configs_refuse_them(learning_rate, momentum):
    # one rule for both: the same values refused with the same message
    with pytest.raises(ContractViolation) as direct:
        init_sgd(_scalar_model(), learning_rate, momentum)
    with pytest.raises(ContractViolation) as config:
        DistillConfig(margin=MarginConfig.fixed(0.3), learning_rate=learning_rate,
                      momentum=momentum)
    assert str(direct.value) == str(config.value)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    model = init_mlp((4, 6, 3), True, Rng(42))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.layer_dims == model.layer_dims
    assert back.normalize_output == model.normalize_output
    for w, wb in zip(model.weights, back.weights):
        np.testing.assert_array_equal(w.astype(np.float32).astype(np.float64), wb)


def test_checkpoint_bytes_deterministic(tmp_path):
    model = init_mlp((3, 5, 2), False, Rng(8))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMLP" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("header, message", [
    (b"\x03\x00", "truncated checkpoint: "),                    # no whole dim count
    (struct.pack("<II", 3, 4), "truncated checkpoint: "),         # 3 dims, one present
    (struct.pack("<III", 3, 4, 4), "truncated checkpoint: "),     # 3 dims, no flag
    (struct.pack("<IIB", 1, 4, 1), "checkpoint needs >= 2 layer dims"),
    (struct.pack("<IB", 0, 1), "checkpoint needs >= 2 layer dims"),
], ids=["count", "dims", "flag", "one-dim", "no-dim"])
def test_checkpoint_header_faults(tmp_path, header, message):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"TFMLP1" + header)
    with pytest.raises(FormatError) as caught:
        load_checkpoint(path)
    assert str(caught.value).startswith(f"{path}: {message}")


def test_checkpoint_truncated(tmp_path):
    model = init_mlp((3, 5, 2), False, Rng(8))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 6])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _shifted_grads(shift_weights: bool):
    """One layer's forward, backward and SGD state, with the gradient of its weights
    (or of its biases) given one column too many."""
    model = init_mlp((3, 2), False, Rng(0))
    emb, cache = forward_batch(model, np.ones((4, 3)))
    grads = backward_batch(model, cache, np.ones_like(emb))
    grads.weights[0] = np.pad(grads.weights[0], ((0, 0), (0, int(shift_weights))))
    grads.biases[0] = np.pad(grads.biases[0], (0, int(not shift_weights)))
    return init_sgd(model, 0.1, 0.0), model, grads


def _backward_with_extra_column():
    model = init_mlp((3, 2), False, Rng(0))
    _, cache = forward_batch(model, np.ones((4, 3)))
    return backward_batch(model, cache, np.ones((4, 3)))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: MlpModel((3,), [], []), "layer_dims needs >= 2 positive entries",
                 id="dims-one"),
    pytest.param(lambda: MlpModel((3, 0), [np.zeros((3, 0))], [np.zeros(0)]),
                 "layer_dims needs >= 2 positive entries", id="dims-zero"),
    pytest.param(lambda: MlpModel((3, 2), [], []),
                 "one weight matrix and bias per layer required", id="no-layers"),
    pytest.param(lambda: MlpModel((3, 2), [np.zeros((2, 3))], [np.zeros(2)]),
                 "layer shapes inconsistent with layer_dims (3, 2)", id="weight-shape"),
    pytest.param(lambda: MlpModel((3, 2), [np.zeros((3, 2))], [np.zeros(3)]),
                 "layer shapes inconsistent with layer_dims (3, 2)", id="bias-shape"),
    pytest.param(_backward_with_extra_column,
                 "grad_embedding shape (4, 3) != embeddings shape (4, 2)",
                 id="backward-shape"),
    pytest.param(lambda: sgd_step(*_shifted_grads(True)), "gradient shape mismatch",
                 id="sgd-weights"),
    pytest.param(lambda: sgd_step(*_shifted_grads(False)), "gradient shape mismatch",
                 id="sgd-biases"),
])
def test_mlp_contract_errors(call, message):
    with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
        call()
