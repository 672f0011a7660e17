"""Engine tests: forward oracles, gradient checks, optimizer and averaging."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcond import nn


def finite_diff_check(params, arch, X, y, stats=None, coords_per_layer=12,
                      eps=1e-5, rng=None):
    """Max relative error between analytic and central-difference gradients
    over randomly sampled coordinates of every parameter tensor.

    A coordinate whose +-eps step straddles a ReLU/maxpool kink shows a
    spurious mismatch that shrinks with the step, so any suspect coordinate
    is re-measured at eps/10; a genuine gradient bug fails at every step.
    """
    rng = rng or np.random.default_rng(0)
    _, grads = nn.loss_and_grad(params, arch, X, y, stats=stats)

    def rel_err_at(flat, k, g_k, step):
        orig = flat[k]
        flat[k] = orig + step
        lp, _ = nn.loss_and_grad(params, arch, X, y, stats=stats)
        flat[k] = orig - step
        lm, _ = nn.loss_and_grad(params, arch, X, y, stats=stats)
        flat[k] = orig
        fd = (lp - lm) / (2 * step)
        return abs(fd - g_k) / max(abs(fd), abs(g_k), 1e-8)

    worst = 0.0
    for name, arr in params.values.items():
        flat = arr.ravel()
        g = grads.values[name].ravel()
        k_count = min(coords_per_layer, flat.size)
        for k in rng.choice(flat.size, size=k_count, replace=False):
            err = rel_err_at(flat, k, g[k], eps)
            if err >= 1e-4:
                err = rel_err_at(flat, k, g[k], eps / 10)
            worst = max(worst, err)
    return worst


def zeroed(params):
    out = params.copy()
    for v in out.values.values():
        v[...] = 0.0
    return out


# -------------------------------------------------------------------- forward

def test_zero_weight_mlp_logits_equal_biases():
    arch = nn.mlp_architecture(6, 4, hidden_dim=5)
    params = zeroed(nn.init_params(arch, 0))
    params.values["out.b"][:] = [0.5, -1.0, 2.0, 0.0]
    logits = nn.forward(params, arch, np.random.default_rng(0).random(6))
    assert np.array_equal(logits, [0.5, -1.0, 2.0, 0.0])


def test_conditional_with_zeroed_stats_path_matches_unconditioned():
    rng = np.random.default_rng(3)
    cond = nn.mlp_architecture(10, 3, hidden_dim=7, stats_dim=4)
    plain = nn.mlp_architecture(10, 3, hidden_dim=7)
    p_cond = nn.init_params(cond, 5)
    p_cond.values["fc1.W"][10:, :] = 0.0  # kill the stats block
    p_plain = nn.init_params(plain, 0)
    for k, v in p_plain.values.items():
        v[...] = p_cond.values[k][:10, :] if k == "fc1.W" else p_cond.values[k]
    X = rng.random((8, 10))
    S = rng.random((8, 4))
    out_c = nn.forward(p_cond, cond, X, stats=S)
    out_p = nn.forward(p_plain, plain, X)
    assert np.array_equal(out_c, out_p)


def test_forward_matches_hand_rolled_affine_relu_chain():
    # straight-line reimplementation of the flatten/dense/relu stack
    arch = nn.mlp_architecture(4, 3, hidden_dim=6)
    params = nn.init_params(arch, 11)
    x = np.array([0.3, -0.2, 0.9, 0.5])
    v = params.values
    h1 = np.maximum(x @ v["fc1.W"] + v["fc1.b"], 0.0)
    h2 = np.maximum(h1 @ v["fc2.W"] + v["fc2.b"], 0.0)
    expected = h2 @ v["out.W"] + v["out.b"]
    assert np.allclose(nn.forward(params, arch, x), expected, rtol=0, atol=1e-14)


def test_forward_single_sample_and_batch_agree():
    arch = nn.mlp_architecture(5, 3)
    params = nn.init_params(arch, 1)
    X = np.random.default_rng(2).random((4, 5))
    batch = nn.forward(params, arch, X)
    assert batch.shape == (4, 3)
    for i in range(4):
        # single-row and batched matmuls may differ by an ulp (BLAS kernels)
        assert np.allclose(nn.forward(params, arch, X[i]), batch[i],
                           rtol=0, atol=1e-12)


def test_forward_shape_mismatch_names_input():
    arch = nn.mlp_architecture(5, 3)
    params = nn.init_params(arch, 0)
    with pytest.raises(nn.ShapeMismatchError, match="input"):
        nn.forward(params, arch, np.zeros((2, 7)))


def test_architecture_is_conditional_iff_stats_dim_is_positive():
    assert nn.ARCHITECTURE_KINDS == ("mlp", "mnist_cnn")
    assert nn.mlp_architecture(5, 3, stats_dim=2).conditional
    assert not nn.mlp_architecture(5, 3).conditional
    assert nn.cnn_architecture(3, stats_dim=1).kind == "mnist_cnn"
    with pytest.raises(ValueError, match="unknown architecture kind"):
        nn.Architecture("mlp_conditional", (5,), 3, stats_dim=2)
    with pytest.raises(ValueError, match="stats_dim must be >= 0"):
        nn.mlp_architecture(5, 3, stats_dim=-1)


def test_stats_required_iff_conditional():
    cond = nn.mlp_architecture(5, 3, stats_dim=2)
    plain = nn.mlp_architecture(5, 3)
    x = np.zeros(5)
    with pytest.raises(nn.ConditioningError):
        nn.forward(nn.init_params(cond, 0), cond, x)
    with pytest.raises(nn.ConditioningError):
        nn.forward(nn.init_params(plain, 0), plain, x, stats=np.zeros(2))


@pytest.mark.parametrize("stats_dim, stats, message", [
    (2, None, "requires a stats vector of length 2"),
    (0, np.zeros(2), "takes no stats vector"),
    (2, np.zeros(3), "stats length 3 != stats_dim 2"),
    (2, np.zeros((3, 2)), r"stats shape \(3, 2\) incompatible with batch of 4"),
    (2, np.zeros((4, 3)), r"stats shape \(4, 3\) incompatible with batch of 4"),
], ids=["missing", "unconditional", "1d-wrong-length", "2d-wrong-rows", "2d-wrong-width"])
@pytest.mark.parametrize("entry", ["forward", "loss_and_grad"])
def test_conditioning_input_is_checked_at_both_entry_points(entry, stats_dim, stats, message):
    arch = nn.mlp_architecture(5, 3, stats_dim=stats_dim)
    params = nn.init_params(arch, 0)
    x, y = np.zeros((4, 5)), np.zeros(4, dtype=int)
    with pytest.raises(nn.ConditioningError, match=message):
        if entry == "forward":
            nn.forward(params, arch, x, stats=stats)
        else:
            nn.loss_and_grad(params, arch, x, y, stats=stats)


def test_nonfinite_activation_names_layer():
    arch = nn.mlp_architecture(5, 3)
    params = nn.init_params(arch, 0)
    params.values["fc2.W"][0, 0] = np.inf
    with pytest.raises(nn.NumericsError) as err:
        nn.forward(params, arch, np.ones(5))
    assert err.value.layer == "fc2"


# ----------------------------------------------------------------------- loss

def test_uniform_logits_loss_is_ln_c():
    arch = nn.mlp_architecture(8, 10)
    params = zeroed(nn.init_params(arch, 0))
    X = np.random.default_rng(0).random((3, 8))
    loss, _ = nn.loss_and_grad(params, arch, X, np.array([1, 5, 9]))
    assert abs(loss - math.log(10)) < 1e-12


def test_loss_decreases_as_correct_logit_grows():
    y = np.array([2])
    losses = []
    for margin in [0.0, 0.5, 1.0, 2.0, 5.0]:
        logits = np.array([[0.1, -0.3, margin, 0.2]])
        losses.append(nn.mean_cross_entropy(logits, y))
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_label_out_of_range_rejected():
    arch = nn.mlp_architecture(4, 3)
    params = nn.init_params(arch, 0)
    with pytest.raises(ValueError, match="label out of range"):
        nn.loss_and_grad(params, arch, np.zeros((1, 4)), np.array([3]))


def test_empty_batch_rejected():
    arch = nn.mlp_architecture(4, 3)
    with pytest.raises(ValueError, match="empty"):
        nn.loss_and_grad(nn.init_params(arch, 0), arch, np.zeros((0, 4)), np.array([]))


# ------------------------------------------------------------- gradient check

def test_gradients_mlp():
    rng = np.random.default_rng(0)
    arch = nn.mlp_architecture(9, 4, hidden_dim=7)
    params = nn.init_params(arch, 1)
    X = rng.random((6, 9))
    y = rng.integers(0, 4, 6)
    assert finite_diff_check(params, arch, X, y, rng=rng) < 1e-4


def test_gradients_mlp_conditional_concat_junction():
    rng = np.random.default_rng(1)
    arch = nn.mlp_architecture(9, 4, hidden_dim=7, stats_dim=5)
    params = nn.init_params(arch, 2)
    X = rng.random((6, 9))
    y = rng.integers(0, 4, 6)
    S = rng.random((6, 5))
    assert finite_diff_check(params, arch, X, y, stats=S, rng=rng) < 1e-4


def test_gradients_cnn_conditional_all_layer_types():
    rng = np.random.default_rng(2)
    arch = nn.cnn_architecture(3, hidden_dim=6, stats_dim=4)
    params = nn.init_params(arch, 3)
    X = rng.random((2, 784))
    y = rng.integers(0, 3, 2)
    S = rng.random((2, 4))
    assert finite_diff_check(params, arch, X, y, stats=S,
                             coords_per_layer=6, rng=rng) < 1e-4


# ------------------------------------------------------------------ optimizer

def test_sgd_step_zero_momentum_unit_lr_cancels_params():
    arch = nn.mlp_architecture(3, 2)
    params = nn.init_params(arch, 4)
    opt = nn.OptimizerState(learning_rate=1.0, momentum=0.0)
    nn.sgd_step(params, params.copy(), opt)  # gradient equals params
    assert np.linalg.norm(params.vector) == 0.0


def test_sgd_two_steps_constant_gradient_closed_form():
    arch = nn.mlp_architecture(3, 2)
    theta0 = nn.init_params(arch, 5)
    g = nn.init_params(arch, 6)
    opt = nn.OptimizerState(learning_rate=0.01, momentum=0.9)
    theta = theta0.copy()
    nn.sgd_step(theta, g, opt)
    nn.sgd_step(theta, g, opt)
    # v1 = g, v2 = 1.9 g  =>  theta2 = theta0 - 0.01 g - 0.019 g
    expected = theta0.vector - g.vector * 0.01 - g.vector * (0.01 * 1.9)
    assert np.linalg.norm(theta.vector - expected) < 1e-15


def test_sgd_zero_gradient_keeps_params_decays_velocity():
    arch = nn.mlp_architecture(3, 2)
    params = nn.init_params(arch, 7)
    opt = nn.OptimizerState(learning_rate=0.1, momentum=0.9)
    g = nn.init_params(arch, 8)
    nn.sgd_step(params, g, opt)
    params1, v1 = params.copy(), opt.velocity.copy()
    nn.sgd_step(params, params.from_flat(np.zeros_like(params.vector)), opt)
    assert np.linalg.norm(opt.velocity - v1 * 0.9) == 0.0
    assert np.linalg.norm(params.vector - (params1.vector - v1 * (0.9 * 0.1))) < 1e-14


def test_lr_schedule_constant_and_cosine_endpoints():
    from fedcond.federation import lr_at
    assert lr_at(0.01, 3, 10, "constant") == 0.01
    assert lr_at(0.01, 0, 10, "cosine") == pytest.approx(0.01)
    assert lr_at(0.01, 9, 10, "cosine") == pytest.approx(0.01 * 0.05)


# ------------------------------------------------------------------ averaging

@given(st.integers(min_value=1, max_value=7))
@settings(max_examples=10, deadline=None)
def test_average_of_identical_models_is_identity(k):
    arch = nn.mlp_architecture(4, 3)
    params = nn.init_params(arch, 9)
    avg = nn.average_params([params] * k, [1.0] * k)
    for name, v in avg.values.items():
        assert np.array_equal(v, params.values[name])


def test_average_of_theta_and_minus_theta_is_zero():
    arch = nn.mlp_architecture(4, 3)
    theta = nn.init_params(arch, 10)
    minus_theta = theta.from_flat(theta.vector * -1.0)
    assert np.linalg.norm(nn.average_params([theta, minus_theta], [1, 1]).vector) == 0.0


def test_weighted_average_matches_scalar_loop_oracle():
    arch = nn.mlp_architecture(4, 3)
    models = [nn.init_params(arch, s) for s in (11, 12, 13)]
    weights = [1.0, 2.0, 3.0]
    avg = nn.average_params(models, weights)
    for name in avg.values:
        stacked = np.stack([m.values[name] for m in models])
        expected = np.zeros_like(stacked[0])
        for w, layer in zip(weights, stacked):
            expected += (w / 6.0) * layer
        assert np.allclose(avg.values[name], expected, rtol=0, atol=1e-15)


def two_temporary_average(models, weights):
    """The averaging expression with its two temporaries per model."""
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    base = models[0].vector
    out = base.copy()
    for wi, m in zip(w, models):
        out += wi * (m.vector - base)
    return out


@pytest.mark.parametrize("k", [1, 2, 17])
def test_average_matches_two_temporary_expression_bit_for_bit(k):
    """`average_params`, and a `Fold` fed one model at a time through one
    work buffer that it may overwrite (as the round loop feeds it), give the
    reference's bits, signs of zeros included."""
    arch = nn.mlp_architecture(30, 5, hidden_dim=16)
    rng = np.random.default_rng(k)
    models = [nn.init_params(arch, s) for s in range(k)]
    models[-1] = models[0].copy()  # zero differences, signed zeros included
    for i, m in enumerate(models):
        m.vector[:8] = (-1.0) ** (i + 1) * 0.0  # -0.0 in the first model, then +0.0, -0.0, ...
    weights = rng.integers(1, 50, k)
    weights[1:2] = 0  # a zero weight, from two models on
    want = two_temporary_average(models, weights)
    assert_bits_equal(nn.average_params(models, weights).vector, want)
    fold = nn.Fold(weights)
    work = np.empty_like(models[0].vector)
    for m in models:
        work[...] = m.vector
        fold.add(work, work)
    assert_bits_equal(fold.vector, want)


def test_average_rejects_mixed_architectures():
    a = nn.init_params(nn.mlp_architecture(4, 3), 0)
    b = nn.init_params(nn.mlp_architecture(5, 3), 0)
    with pytest.raises(ValueError, match="mixed architectures"):
        nn.average_params([a, b], [1, 1])


def test_average_preserves_shared_linear_constraint():
    # a coordinate frozen to the same value in every model stays frozen
    arch = nn.mlp_architecture(4, 3)
    models = [nn.init_params(arch, s) for s in (1, 2, 3)]
    for m in models:
        m.values["out.b"][0] = 0.25
    avg = nn.average_params(models, [3, 1, 2])
    assert avg.values["out.b"][0] == 0.25


# --------------------------------------------------------------- determinism

def test_training_is_bit_deterministic():
    arch = nn.mlp_architecture(12, 3, hidden_dim=8)
    rng = np.random.default_rng(0)
    X = rng.random((40, 12))
    y = rng.integers(0, 3, 40)

    def train():
        params = nn.init_params(arch, 42)
        opt = nn.OptimizerState(0.01, 0.9, batch_size=8)
        out, losses = nn.train_sgd(params, arch, X, y, opt, 3,
                                   np.random.default_rng(42))
        return out, losses

    a, la = train()
    b, lb = train()
    assert la == lb
    for name in a.values:
        assert np.array_equal(a.values[name], b.values[name])


def test_training_reduces_loss_on_separable_data():
    rng = np.random.default_rng(1)
    X = np.vstack([rng.normal(0.2, 0.05, (30, 6)), rng.normal(0.8, 0.05, (30, 6))])
    y = np.array([0] * 30 + [1] * 30)
    arch = nn.mlp_architecture(6, 2, hidden_dim=8)
    params = nn.init_params(arch, 0)
    opt = nn.OptimizerState(0.05, 0.9, batch_size=16)
    _, losses = nn.train_sgd(params, arch, X, y, opt, 5, np.random.default_rng(0))
    assert losses[-1] < losses[0]


def test_flatten_round_trip():
    arch = nn.mlp_architecture(5, 3)
    params = nn.init_params(arch, 3)
    rebuilt = params.from_flat(params.flatten())
    assert np.linalg.norm(rebuilt.vector - params.vector) == 0.0
    for name, v in rebuilt.values.items():
        assert np.array_equal(v, params.values[name])


def test_values_are_views_into_the_flat_vector():
    params = nn.init_params(nn.mlp_architecture(5, 3, hidden_dim=4), 3)
    params.values["fc2.W"][1, 2] = 7.5
    offset = 5 * 4 + 4  # fc1.W, fc1.b come first
    assert params.vector[offset + 1 * 4 + 2] == 7.5
    params.vector[-1] = -2.0
    assert params.values["out.b"][-1] == -2.0


def test_flat_vector_of_the_wrong_length_rejected():
    params = nn.init_params(nn.mlp_architecture(5, 3), 0)
    with pytest.raises(ValueError, match="expected flat vector of length"):
        params.from_flat(np.zeros(params.vector.size + 1))


def test_train_sgd_leaves_params_and_prox_target_unchanged():
    arch = nn.mlp_architecture(6, 3, hidden_dim=5)
    rng = np.random.default_rng(4)
    X = rng.random((20, 6))
    y = rng.integers(0, 3, 20)
    params = nn.init_params(arch, 1)
    target = nn.init_params(arch, 2)
    params_before, target_before = params.flatten(), target.flatten()
    opt = nn.OptimizerState(0.05, 0.9, batch_size=8)
    trained, _ = nn.train_sgd(params, arch, X, y, opt, 2, np.random.default_rng(0),
                              prox_target=target, prox_lambda=0.5)
    assert np.array_equal(params.vector, params_before)
    assert np.array_equal(target.vector, target_before)
    assert not np.array_equal(trained.vector, params_before)


def test_step_with_caller_buffers_gives_the_bits_of_fresh_ones():
    """`loss_and_grad(grads=...)` and `sgd_step(scratch=...)` fill the
    caller's buffers with the bits the fresh-vector calls give, and change
    no other argument: the gradient survives the step."""
    arch = nn.mlp_architecture(6, 3, hidden_dim=5, stats_dim=2)
    rng = np.random.default_rng(3)
    X, y, stats = rng.random((9, 6)), rng.integers(0, 3, 9), rng.random(2)
    params = nn.init_params(arch, 3)
    params_before = params.vector.tobytes()
    loss, grads = nn.loss_and_grad(params, arch, X, y, stats=stats)
    buffer = params.from_flat(np.full_like(params.vector, np.nan))
    loss_b, grads_b = nn.loss_and_grad(params, arch, X, y, stats=stats, grads=buffer)
    assert grads_b is buffer and loss_b == loss
    assert grads_b.vector.tobytes() == grads.vector.tobytes()
    assert params.vector.tobytes() == params_before
    grads_before = grads.vector.tobytes()
    fresh, buffered = params.copy(), params.copy()
    opt_f, opt_b = nn.OptimizerState(0.05, 0.9), nn.OptimizerState(0.05, 0.9)
    scratch = np.full_like(params.vector, np.nan)
    for _ in range(2):
        nn.sgd_step(fresh, grads, opt_f)
        nn.sgd_step(buffered, grads, opt_b, scratch)
    assert buffered.vector.tobytes() == fresh.vector.tobytes()
    assert opt_b.velocity.tobytes() == opt_f.velocity.tobytes()
    assert grads.vector.tobytes() == grads_before


@pytest.mark.parametrize("where", ["in_place", "into_other"])
def test_train_sgd_into_out_gives_the_bits_of_a_copy(where):
    arch = nn.mlp_architecture(6, 3, hidden_dim=5)
    rng = np.random.default_rng(5)
    X, y = rng.random((20, 6)), rng.integers(0, 3, 20)
    params, target = nn.init_params(arch, 1), nn.init_params(arch, 2)

    def train(start, out=None):
        return nn.train_sgd(start, arch, X, y, nn.OptimizerState(0.05, 0.9, batch_size=8),
                            2, np.random.default_rng(0), prox_target=target,
                            prox_lambda=0.5, out=out)

    want, want_losses = train(params)
    start = params.copy()
    out = start if where == "in_place" else params.from_flat(np.full_like(params.vector, np.nan))
    got, losses = train(start, out)
    assert got is out and losses == want_losses
    assert got.vector.tobytes() == want.vector.tobytes()
    if where == "into_other":
        assert start.vector.tobytes() == params.vector.tobytes()


def test_sgd_step_rejects_velocity_of_another_architecture():
    small = nn.init_params(nn.mlp_architecture(3, 2), 0)
    large = nn.init_params(nn.mlp_architecture(4, 2), 0)
    opt = nn.OptimizerState()
    nn.sgd_step(small, small.copy(), opt)
    with pytest.raises(ValueError, match="different architecture"):
        nn.sgd_step(large, large.copy(), opt)


# ------------------------------------------- conv stack against NCHW einsum
# The oracle is the plain NCHW formulation of the same layers: Conv2d as
# three einsums over (n, c*k*k, h*w) columns, MaxPool2d as an argmax over
# reshaped 2x2 windows. The engine must match it bit for bit, whatever the
# memory layout of the arrays it is handed.

class OracleConv2d(nn.Layer):
    KSIZE = 3
    PAD = 1

    def __init__(self, name, in_ch, out_ch):
        self.name = name
        self.in_ch = in_ch
        self.out_ch = out_ch

    def _im2col(self, x):
        n, c, h, w = x.shape
        k, p = self.KSIZE, self.PAD
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        return windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, h * w)

    def _col2im(self, dcols, x_shape):
        n, c, h, w = x_shape
        k, p = self.KSIZE, self.PAD
        dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=dcols.dtype)
        shifted = np.ascontiguousarray(dcols).reshape(n, c, k, k, h, w)
        for di in range(k):
            for dj in range(k):
                dxp[:, :, di:di + h, dj:dj + w] += shifted[:, :, di, dj]
        return dxp[:, :, p:p + h, p:p + w]

    def forward(self, x, params, cache):
        n, _, h, w = x.shape
        cols = self._im2col(x)
        cache[self.name] = (cols, x.shape)
        wmat = params.values[f"{self.name}.W"]
        b = params.values[f"{self.name}.b"]
        out = np.einsum("oi,nij->noj", wmat, cols, optimize=True)
        out += b[None, :, None]
        return out.reshape(n, self.out_ch, h, w)

    def backward(self, dout, params, cache, grads):
        cols, x_shape = cache[self.name]
        n, _, h, w = x_shape
        dflat = dout.reshape(n, self.out_ch, h * w)
        wmat = params.values[f"{self.name}.W"]
        grads.values[f"{self.name}.W"][...] = np.einsum("noj,nij->oi", dflat, cols,
                                                        optimize=True)
        grads.values[f"{self.name}.b"][...] = dflat.sum(axis=(0, 2))
        dcols = np.einsum("oi,noj->nij", wmat, dflat, optimize=True)
        return self._col2im(dcols, x_shape)


class OracleMaxPool2d(nn.Layer):
    def forward(self, x, params, cache):
        n, c, h, w = x.shape
        ho, wo = h // 2, w // 2
        windows = (x.reshape(n, c, ho, 2, wo, 2)
                    .transpose(0, 1, 2, 4, 3, 5)
                    .reshape(n, c, ho, wo, 4))
        idx = windows.argmax(axis=-1)
        cache[self.name] = (idx, x.shape)
        return np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def backward(self, dout, params, cache, grads):
        idx, x_shape = cache[self.name]
        n, c, h, w = x_shape
        ho, wo = h // 2, w // 2
        dwin = np.zeros((n, c, ho, wo, 4), dtype=dout.dtype)
        np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
        return (dwin.reshape(n, c, ho, wo, 2, 2)
                    .transpose(0, 1, 2, 4, 3, 5)
                    .reshape(n, c, h, w))


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def channels_last_view(x):
    """The values of NCHW `x`, as an (N, C, H, W) view of (N, H, W, C) memory."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def run_layer(layer, x, dout, params=None):
    """Forward then backward; returns (output, dx, grads or None)."""
    cache = {}
    out = layer.forward(x, params, cache)
    grads = None if params is None else params.from_flat(np.empty_like(params.vector))
    return out, layer.backward(dout, params, cache, grads), grads


CONV_SHAPES = [(1, 32, 28), (32, 64, 14)]  # conv1 and conv2 of mnist_cnn
BATCH_SIZES = [1, 2, 17, 18, 64]  # conv2 `_col2im` blocks of 9: 17 is one, 18 two, 64 a merged tail


@pytest.mark.parametrize("n", BATCH_SIZES)
@pytest.mark.parametrize("in_ch, out_ch, size", CONV_SHAPES, ids=["conv1", "conv2"])
def test_conv2d_matches_einsum_oracle_bit_for_bit(in_ch, out_ch, size, n):
    rng = np.random.default_rng(n)
    layer = nn.Conv2d("c", in_ch, out_ch)
    values = layer.init(rng)
    values["c.b"] = rng.standard_normal(out_ch)
    params = nn.ModelParams("t", np.concatenate([v.ravel() for v in values.values()]),
                            tuple((k, v.shape) for k, v in values.items()))
    x = rng.standard_normal((n, in_ch, size, size))
    dout = rng.standard_normal((n, out_ch, size, size))
    want_out, want_dx, want = run_layer(OracleConv2d("c", in_ch, out_ch), x, dout, params)
    for xs, douts in [(x, dout), (channels_last_view(x), channels_last_view(dout))]:
        out, dx, got = run_layer(layer, xs, douts, params)
        assert_bits_equal(out, want_out)
        assert_bits_equal(dx, want_dx)
        assert_bits_equal(got.values["c.W"], want.values["c.W"])
        assert_bits_equal(got.values["c.b"], want.values["c.b"])


def pooling_input(rng, shape):
    """ReLU'd normals (so +0.0 and -0.0 zeros), with some 2x2 blocks all
    zero and some holding one value twice, so that windows tie."""
    x = rng.standard_normal(shape)
    x = x * (x > 0)
    n, c, h, w = shape
    blocks = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    blocks[rng.random(blocks.shape[:4]) < 0.2] = 0.0
    twice = rng.random(blocks.shape[:4]) < 0.2
    blocks[..., 1, 1][twice] = blocks[..., 0, 0][twice]
    blocks[..., 1, 0][twice] = blocks[..., 0, 1][twice]
    return x


@pytest.mark.parametrize("n", BATCH_SIZES)
@pytest.mark.parametrize("c, size", [(32, 28), (64, 14)], ids=["pool1", "pool2"])
def test_maxpool2d_matches_argmax_oracle_bit_for_bit(c, size, n):
    rng = np.random.default_rng(n)
    x = pooling_input(rng, (n, c, size, size))
    dout = rng.standard_normal((n, c, size // 2, size // 2))
    signed_zeros = dout * (rng.random(dout.shape) < 0.5)  # +0.0 and -0.0 among normals
    for xs, douts in [(x, dout), (channels_last_view(x), channels_last_view(dout)),
                      (channels_last_view(x), dout), (x, signed_zeros)]:
        want_out, want_dx, _ = run_layer(OracleMaxPool2d("p"), x, douts)
        out, dx, _ = run_layer(nn.MaxPool2d("p"), xs, douts)
        assert_bits_equal(out, want_out)
        assert_bits_equal(dx, want_dx)


def test_cnn_step_peak_memory_is_under_two_conv2_column_blocks():
    """A batch-64 conditional CNN step never holds conv2's columns and their
    gradient at once: backward frees each layer's cache as it goes, and
    conv2 drops its columns before building the column gradient."""
    n = 64
    arch = nn.cnn_architecture(10, hidden_dim=128, stats_dim=16)
    params = nn.init_params(arch, 0)
    rng = np.random.default_rng(0)
    x, y, stats = rng.random((n, 784)), rng.integers(0, 10, n), rng.standard_normal(16)
    nn.loss_and_grad(params, arch, x, y, stats=stats)
    tracemalloc.start()
    try:
        nn.loss_and_grad(params, arch, x, y, stats=stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * 14 * 14 * 32 * 9 * 8


@pytest.mark.parametrize("n", [1, 2, 64, 65, 125, 200])
def test_forward_slices_the_conv_stack_keeping_one_pass_bits(monkeypatch, n):
    """`forward` runs the conv stack on near-equal slices of at most
    CONV_BATCH samples, and its logits equal one cached pass bit for bit."""
    arch = nn.cnn_architecture(10, hidden_dim=16, stats_dim=4)
    params = nn.init_params(arch, n)
    rng = np.random.default_rng(n)
    params.values["conv2.b"][...] = 0.1 * rng.standard_normal(64)
    x, stats = rng.random((n, 784)), rng.standard_normal(4)
    want, _ = nn._forward_cached(nn._plan(arch), params, x.reshape(n, 1, 28, 28),
                                 np.broadcast_to(stats, (n, 4)))
    batches = []
    conv_forward = nn.Conv2d.forward

    def spy(self, h, *args):
        batches.append(h.shape[0])
        return conv_forward(self, h, *args)

    monkeypatch.setattr(nn.Conv2d, "forward", spy)
    assert_bits_equal(nn.forward(params, arch, x, stats=stats), want)
    slices = batches[::2]  # conv1 then conv2 per slice
    assert sum(slices) == n and max(slices) <= nn.CONV_BATCH
    assert max(slices) - min(slices) <= 1


def test_cnn_loss_and_grad_folds_columns_back_for_conv2_only(monkeypatch):
    calls = []
    col2im = nn.Conv2d._col2im

    def spy(self, *args):
        calls.append(self.name)
        return col2im(self, *args)

    monkeypatch.setattr(nn.Conv2d, "_col2im", spy)
    rng = np.random.default_rng(3)
    arch = nn.cnn_architecture(4, hidden_dim=6)
    params = nn.init_params(arch, 0)
    for n in (1, 3):
        calls.clear()
        nn.loss_and_grad(params, arch, rng.random((n, 784)), rng.integers(0, 4, n))
        assert calls == ["conv2"]


def relu_first(plan):
    """The plan with each conv stage's MaxPool2d and ReLU swapped back to
    Conv2d -> ReLU -> MaxPool2d."""
    plan = list(plan)
    for i, layer in enumerate(plan[:-1]):
        if isinstance(layer, nn.MaxPool2d) and isinstance(plan[i + 1], nn.ReLU):
            plan[i], plan[i + 1] = plan[i + 1], layer
    return plan


@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("biased", [False, True], ids=["init", "biased"])
def test_cnn_pool_before_relu_matches_relu_first(monkeypatch, n, biased):
    """Pooling before ReLU gives the logits, the loss and every nonzero
    gradient entry of ReLU-then-pool: max and ReLU commute, and both orders
    route a window's gradient to its first positive maximum."""
    arch = nn.cnn_architecture(10, hidden_dim=16, stats_dim=4)
    plan = nn._plan(arch)
    kinds = [type(layer) for layer in plan[:6]]
    assert kinds == [nn.Conv2d, nn.MaxPool2d, nn.ReLU] * 2
    rng = np.random.default_rng(n)
    params = nn.init_params(arch, n)
    if biased:  # negative regions, not just exact zeros, reach the pools
        for name in ("conv1.b", "conv2.b"):
            params.values[name][...] = 0.1 * rng.standard_normal(params.values[name].shape)
    x = np.where(rng.random((n, 784)) < 0.7, 0.0, rng.random((n, 784)))
    y = rng.integers(0, 10, n)
    stats = rng.standard_normal(4)
    logits = nn.forward(params, arch, x, stats=stats)
    loss, grads = nn.loss_and_grad(params, arch, x, y, stats=stats)
    monkeypatch.setitem(nn._PLAN_CACHE, arch, relu_first(plan))
    want_logits = nn.forward(params, arch, x, stats=stats)
    want_loss, want = nn.loss_and_grad(params, arch, x, y, stats=stats)
    assert_bits_equal(logits, want_logits)
    assert loss == want_loss
    nonzero = want.vector != 0
    assert np.array_equal(grads.vector != 0, nonzero)
    assert_bits_equal(grads.vector[nonzero], want.vector[nonzero])
