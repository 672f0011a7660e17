"""Engine tests: forward oracles, gradient checks, optimizer and averaging."""

import math

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


def test_stats_required_iff_conditional():
    cond = nn.mlp_architecture(5, 3, stats_dim=2)
    plain = nn.mlp_architecture(5, 3)
    x = np.zeros(5)
    with pytest.raises(nn.ConditioningError):
        nn.forward(nn.init_params(cond, 0), cond, x)
    with pytest.raises(nn.ConditioningError):
        nn.forward(nn.init_params(plain, 0), plain, x, stats=np.zeros(2))


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


def test_sgd_step_rejects_velocity_of_another_architecture():
    small = nn.init_params(nn.mlp_architecture(3, 2), 0)
    large = nn.init_params(nn.mlp_architecture(4, 2), 0)
    opt = nn.OptimizerState()
    nn.sgd_step(small, small.copy(), opt)
    with pytest.raises(ValueError, match="different architecture"):
        nn.sgd_step(large, large.copy(), opt)
