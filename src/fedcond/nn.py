"""Minimal neural-network engine: dense/conv/pool layers, softmax cross-entropy,
and SGD with classic momentum.

Everything runs on float64 numpy arrays. All randomness is injected through
numpy Generators, and all batch reductions use fixed summation order, so
training is bit-reproducible for a fixed seed and batch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ARCHITECTURE_KINDS = ("mlp", "mlp_conditional", "mnist_cnn", "mnist_cnn_conditional")


class ShapeMismatchError(ValueError):
    """Array shape does not match what a layer expects."""

    def __init__(self, layer: str, message: str):
        super().__init__(f"[{layer}] {message}")
        self.layer = layer


class ConditioningError(ValueError):
    """Stats vector missing/present in disagreement with the architecture."""


class NumericsError(FloatingPointError):
    """Non-finite value produced by a layer."""

    def __init__(self, layer: str, message: str):
        super().__init__(f"[{layer}] {message}")
        self.layer = layer


@dataclass(frozen=True)
class Architecture:
    """Network architecture descriptor.

    ``stats_dim > 0`` marks a conditional variant: the per-client statistics
    vector is concatenated with the flattened features right before the first
    fully-connected layer, so that layer's input width is flatten_width +
    stats_dim.
    """

    kind: str
    input_shape: tuple[int, ...]
    class_count: int
    hidden_dim: int = 128
    stats_dim: int = 0

    def __post_init__(self):
        if self.kind not in ARCHITECTURE_KINDS:
            raise ValueError(f"unknown architecture kind {self.kind!r}")
        if self.conditional and self.stats_dim <= 0:
            raise ValueError(f"{self.kind} requires stats_dim > 0")
        if not self.conditional and self.stats_dim != 0:
            raise ValueError(f"{self.kind} must have stats_dim == 0")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.kind.startswith("mnist_cnn"):
            if tuple(self.input_shape) != (1, 28, 28):
                raise ValueError("mnist_cnn expects input_shape (1, 28, 28)")
        elif len(self.input_shape) != 1:
            raise ValueError("mlp expects a flat input_shape (d,)")

    @property
    def conditional(self) -> bool:
        return self.kind.endswith("_conditional")

    @property
    def input_size(self) -> int:
        return int(np.prod(self.input_shape))

    @property
    def flatten_width(self) -> int:
        if self.kind.startswith("mnist_cnn"):
            return 64 * 7 * 7  # two conv+pool stages on 28x28
        return self.input_size


def mlp_architecture(input_size: int, class_count: int, hidden_dim: int = 128,
                     stats_dim: int = 0) -> Architecture:
    kind = "mlp_conditional" if stats_dim > 0 else "mlp"
    return Architecture(kind, (input_size,), class_count, hidden_dim, stats_dim)


def cnn_architecture(class_count: int, hidden_dim: int = 128,
                     stats_dim: int = 0) -> Architecture:
    kind = "mnist_cnn_conditional" if stats_dim > 0 else "mnist_cnn"
    return Architecture(kind, (1, 28, 28), class_count, hidden_dim, stats_dim)


@dataclass
class ModelParams:
    """Named parameter tensors plus the architecture they belong to.

    Supports elementwise arithmetic over the flattened parameter vector
    (add/scale/dot/norm), which is all the federation strategies need.
    Operations return new instances; arrays are never mutated in place.
    """

    architecture_id: str
    values: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.architecture_id, {k: v.copy() for k, v in self.values.items()})

    def zeros_like(self) -> "ModelParams":
        return ModelParams(self.architecture_id, {k: np.zeros_like(v) for k, v in self.values.items()})

    def map2(self, other: "ModelParams", fn) -> "ModelParams":
        if other.architecture_id != self.architecture_id:
            raise ValueError("architecture mismatch: "
                             f"{self.architecture_id} vs {other.architecture_id}")
        return ModelParams(self.architecture_id,
                           {k: fn(v, other.values[k]) for k, v in self.values.items()})

    def add(self, other: "ModelParams") -> "ModelParams":
        return self.map2(other, np.add)

    def sub(self, other: "ModelParams") -> "ModelParams":
        return self.map2(other, np.subtract)

    def scale(self, a: float) -> "ModelParams":
        return ModelParams(self.architecture_id, {k: v * a for k, v in self.values.items()})

    def dot(self, other: "ModelParams") -> float:
        if other.architecture_id != self.architecture_id:
            raise ValueError("architecture mismatch")
        return float(sum(np.dot(v.ravel(), other.values[k].ravel())
                         for k, v in self.values.items()))

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def distance(self, other: "ModelParams") -> float:
        return self.sub(other).norm()

    @property
    def size(self) -> int:
        return sum(v.size for v in self.values.values())

    def flatten(self) -> np.ndarray:
        return np.concatenate([v.ravel() for v in self.values.values()])

    def from_flat(self, vec: np.ndarray) -> "ModelParams":
        """Rebuild params with this instance's names/shapes from a flat vector."""
        if vec.shape != (self.size,):
            raise ValueError(f"expected flat vector of length {self.size}, got {vec.shape}")
        values, offset = {}, 0
        for k, v in self.values.items():
            values[k] = vec[offset:offset + v.size].reshape(v.shape).copy()
            offset += v.size
        return ModelParams(self.architecture_id, values)


# --------------------------------------------------------------------------
# layer primitives
# --------------------------------------------------------------------------

class Layer:
    """Forward/backward over a batch; layers with parameters override `init`."""

    def __init__(self, name: str):
        self.name = name

    def init(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return {}


class Dense(Layer):
    def __init__(self, name: str, in_dim: int, out_dim: int):
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim

    def init(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        limit = math.sqrt(6.0 / self.in_dim)
        w = rng.uniform(-limit, limit, size=(self.in_dim, self.out_dim))
        return {f"{self.name}.W": w, f"{self.name}.b": np.zeros(self.out_dim)}

    def forward(self, x, params, cache):
        if x.shape[1] != self.in_dim:
            raise ShapeMismatchError(self.name, f"expected input width {self.in_dim}, got {x.shape[1]}")
        cache[self.name] = x
        w = params.values[f"{self.name}.W"]
        b = params.values[f"{self.name}.b"]
        return x @ w + b

    def backward(self, dout, params, cache, grads):
        x = cache[self.name]
        w = params.values[f"{self.name}.W"]
        grads[f"{self.name}.W"] = x.T @ dout
        grads[f"{self.name}.b"] = dout.sum(axis=0)
        return dout @ w.T


class ReLU(Layer):
    def forward(self, x, params, cache):
        mask = x > 0
        cache[self.name] = mask
        return x * mask

    def backward(self, dout, params, cache, grads):
        return dout * cache[self.name]


class Conv2d(Layer):
    """3x3 convolution, stride 1, zero padding 1 (spatial size preserved)."""

    KSIZE = 3
    PAD = 1

    def __init__(self, name: str, in_ch: int, out_ch: int):
        self.name = name
        self.in_ch = in_ch
        self.out_ch = out_ch

    def init(self, rng):
        k = self.KSIZE
        fan_in = self.in_ch * k * k
        limit = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(self.out_ch, fan_in))
        return {f"{self.name}.W": w, f"{self.name}.b": np.zeros(self.out_ch)}

    def _im2col(self, x):
        n, c, h, w = x.shape
        k, p = self.KSIZE, self.PAD
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        cols = np.empty((n, c * k * k, h * w), dtype=x.dtype)
        row = 0
        for ci in range(c):
            for di in range(k):
                for dj in range(k):
                    cols[:, row, :] = xp[:, ci, di:di + h, dj:dj + w].reshape(n, -1)
                    row += 1
        return cols

    def _col2im(self, dcols, x_shape):
        n, c, h, w = x_shape
        k, p = self.KSIZE, self.PAD
        dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=dcols.dtype)
        row = 0
        for ci in range(c):
            for di in range(k):
                for dj in range(k):
                    dxp[:, ci, di:di + h, dj:dj + w] += dcols[:, row, :].reshape(n, h, w)
                    row += 1
        return dxp[:, :, p:p + h, p:p + w]

    def forward(self, x, params, cache):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ShapeMismatchError(self.name, f"expected (N,{self.in_ch},H,W), got {x.shape}")
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
        grads[f"{self.name}.W"] = np.einsum("noj,nij->oi", dflat, cols, optimize=True)
        grads[f"{self.name}.b"] = dflat.sum(axis=(0, 2))
        dcols = np.einsum("oi,noj->nij", wmat, dflat, optimize=True)
        return self._col2im(dcols, x_shape)


class MaxPool2d(Layer):
    """2x2 max pooling, stride 2. Ties break toward the first maximum."""

    def forward(self, x, params, cache):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ShapeMismatchError(self.name, f"spatial dims must be even, got {x.shape}")
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


class Flatten(Layer):
    def forward(self, x, params, cache):
        cache[self.name] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout, params, cache, grads):
        return dout.reshape(cache[self.name])


class ConcatStats(Layer):
    """Concatenate the per-sample statistics rows onto the flattened features.

    The stats block is a fixed input, so its gradient slice is dropped on the
    way back; only the feature slice propagates.
    """

    def __init__(self, name: str, stats_dim: int):
        self.name = name
        self.stats_dim = stats_dim

    def forward(self, x, params, cache, stats=None):
        if stats is None:
            raise ConditioningError("conditional architecture requires a stats vector")
        if stats.shape != (x.shape[0], self.stats_dim):
            raise ShapeMismatchError(
                self.name, f"expected stats ({x.shape[0]},{self.stats_dim}), got {stats.shape}")
        cache[self.name] = x.shape[1]
        return np.hstack([x, stats])

    def backward(self, dout, params, cache, grads):
        return dout[:, :cache[self.name]]


def _build_plan(arch: Architecture):
    """mnist_cnn: conv(1->32) -> pool -> conv(32->64) -> pool -> flatten
    -> [concat stats] -> FC(H) -> FC(C), matching the 28x28 reference stack.
    mlp: flatten -> [concat stats] -> FC(H) -> FC(H) -> FC(C); the second
    hidden layer lets the conditional variant compose fingerprint detection
    with classification, which one hidden layer is too shallow to learn at
    desk scale."""
    layers = []
    if arch.kind.startswith("mnist_cnn"):
        layers += [Conv2d("conv1", 1, 32), ReLU("relu1"), MaxPool2d("pool1"),
                   Conv2d("conv2", 32, 64), ReLU("relu2"), MaxPool2d("pool2"),
                   Flatten("flatten")]
    else:
        layers += [Flatten("flatten")]
    fc_in = arch.flatten_width
    if arch.conditional:
        layers.append(ConcatStats("concat_stats", arch.stats_dim))
        fc_in += arch.stats_dim
    layers += [Dense("fc1", fc_in, arch.hidden_dim), ReLU("relu_fc1")]
    if not arch.kind.startswith("mnist_cnn"):
        layers += [Dense("fc2", arch.hidden_dim, arch.hidden_dim), ReLU("relu_fc2")]
    layers += [Dense("out", arch.hidden_dim, arch.class_count)]
    return layers


_PLAN_CACHE: dict[Architecture, list] = {}


def _plan(arch: Architecture):
    plan = _PLAN_CACHE.get(arch)
    if plan is None:
        plan = _build_plan(arch)
        _PLAN_CACHE[arch] = plan
    return plan


def architecture_id(arch: Architecture) -> str:
    return (f"{arch.kind}:in={'x'.join(map(str, arch.input_shape))}"
            f":C={arch.class_count}:H={arch.hidden_dim}:l={arch.stats_dim}")


def init_params(arch: Architecture, seed: int | np.random.Generator) -> ModelParams:
    """He-uniform fan-in init for weights, zeros for biases."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    values: dict[str, np.ndarray] = {}
    for layer in _plan(arch):
        values.update(layer.init(rng))
    return ModelParams(architecture_id(arch), values)


def _prepare_input(arch: Architecture, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("empty batch")
    single = x.ndim == 1 or x.shape == tuple(arch.input_shape)
    if single:
        x = x.reshape(1, -1)
    else:
        x = x.reshape(x.shape[0], -1)
    if x.shape[1] != arch.input_size:
        raise ShapeMismatchError("input", f"expected {arch.input_size} features per sample, "
                                          f"got {x.shape[1]}")
    if arch.kind.startswith("mnist_cnn"):
        x = x.reshape(x.shape[0], *arch.input_shape)
    return x


def _prepare_stats(arch: Architecture, n: int, stats) -> np.ndarray | None:
    if not arch.conditional:
        if stats is not None:
            raise ConditioningError(f"{arch.kind} takes no stats vector")
        return None
    if stats is None:
        raise ConditioningError(f"{arch.kind} requires a stats vector of length {arch.stats_dim}")
    stats = np.asarray(stats, dtype=np.float64)
    if stats.ndim == 1:
        if stats.shape[0] != arch.stats_dim:
            raise ConditioningError(f"stats length {stats.shape[0]} != stats_dim {arch.stats_dim}")
        stats = np.broadcast_to(stats, (n, arch.stats_dim))
    if stats.shape != (n, arch.stats_dim):
        raise ConditioningError(f"stats shape {stats.shape} incompatible with batch of {n}")
    return stats


def _forward_cached(params: ModelParams, arch: Architecture, x: np.ndarray,
                    stats: np.ndarray | None, locate_nonfinite: bool = False):
    caches = {}
    h = x
    for layer in _plan(arch):
        if isinstance(layer, ConcatStats):
            h = layer.forward(h, params, caches, stats=stats)
        else:
            h = layer.forward(h, params, caches)
        if locate_nonfinite and not np.all(np.isfinite(h)):
            raise NumericsError(layer.name, "non-finite activation")
    return h, caches


def forward(params: ModelParams, arch: Architecture, x, stats=None) -> np.ndarray:
    """Logits for one sample (shape (C,)) or a batch (shape (N, C))."""
    xa = np.asarray(x)
    single = xa.ndim == 1 or xa.shape == tuple(arch.input_shape)
    xb = _prepare_input(arch, xa)
    sb = _prepare_stats(arch, xb.shape[0], stats)
    logits, _ = _forward_cached(params, arch, xb, sb)
    if not np.all(np.isfinite(logits)):
        _raise_first_nonfinite(params, arch, xb, sb)
    return logits[0] if single else logits


def _raise_first_nonfinite(params, arch, x, stats):
    _forward_cached(params, arch, x, stats, locate_nonfinite=True)
    raise NumericsError("output", "non-finite activation")


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def mean_cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean CE via the logsumexp form (exact ln(C) for uniform logits)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    picked = z[np.arange(z.shape[0]), y]
    return float(np.mean(lse - picked))


def loss_and_grad(params: ModelParams, arch: Architecture, x, y,
                  stats=None) -> tuple[float, ModelParams]:
    """Mean softmax cross-entropy over the batch and its parameter gradient."""
    xb = _prepare_input(arch, np.asarray(x))
    n = xb.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    yb = np.asarray(y).reshape(-1)
    if yb.shape[0] != n:
        raise ShapeMismatchError("labels", f"{yb.shape[0]} labels for {n} samples")
    if yb.min() < 0 or yb.max() >= arch.class_count:
        raise ValueError(f"label out of range [0,{arch.class_count}): "
                         f"min={yb.min()} max={yb.max()}")
    sb = _prepare_stats(arch, n, stats)
    logits, caches = _forward_cached(params, arch, xb, sb)
    if not np.all(np.isfinite(logits)):
        _raise_first_nonfinite(params, arch, xb, sb)
    loss = mean_cross_entropy(logits, yb)
    dlogits = softmax(logits)
    dlogits[np.arange(n), yb] -= 1.0
    dlogits /= n
    grads: dict[str, np.ndarray] = {}
    d = dlogits
    for layer in reversed(_plan(arch)):
        d = layer.backward(d, params, caches, grads)
    for name, v in params.values.items():
        grads.setdefault(name, np.zeros_like(v))
    return loss, ModelParams(params.architecture_id, grads)


@dataclass
class OptimizerState:
    """SGD-with-momentum state. Velocity buffers mirror the parameter shapes
    and are created lazily on the first step."""

    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    velocity: ModelParams | None = field(default=None, repr=False)

    def clone_config(self) -> "OptimizerState":
        return OptimizerState(self.learning_rate, self.momentum, self.batch_size)


def sgd_step(params: ModelParams, grads: ModelParams, opt: OptimizerState) -> ModelParams:
    """Classic (heavy-ball) momentum: v <- mu*v + g; theta <- theta - lr*v."""
    if opt.velocity is None:
        opt.velocity = params.zeros_like()
    elif opt.velocity.architecture_id != params.architecture_id:
        raise ValueError("optimizer state belongs to a different architecture")
    opt.velocity = opt.velocity.scale(opt.momentum).add(grads)
    return params.sub(opt.velocity.scale(opt.learning_rate))


def average_params(models: list[ModelParams], weights) -> ModelParams:
    """Weighted elementwise mean in fixed input order (weights normalized).

    Computed as first_model + sum(w_i * (model_i - first_model)), which is
    algebraically identical but exactly idempotent when all models coincide
    and better conditioned when they are close (the FL aggregation case).
    """
    if not models:
        raise ValueError("no models to average")
    arch_ids = {m.architecture_id for m in models}
    if len(arch_ids) != 1:
        raise ValueError(f"mixed architectures: {sorted(arch_ids)}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[0] != len(models) or (w < 0).any():
        raise ValueError("need one nonnegative weight per model")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    w = w / total
    base = models[0].values
    out = {k: v.copy() for k, v in base.items()}
    for wi, m in zip(w, models):
        for k, v in m.values.items():
            out[k] += wi * (v - base[k])
    return ModelParams(models[0].architecture_id, out)


def train_sgd(params: ModelParams, arch: Architecture, x: np.ndarray, y: np.ndarray,
              opt: OptimizerState, epochs: int, rng: np.random.Generator,
              stats_rows: np.ndarray | None = None,
              prox_target: ModelParams | None = None,
              prox_lambda: float = 0.0) -> tuple[ModelParams, list[float]]:
    """Minibatch SGD for `epochs` passes; one seeded shuffle per epoch.

    Returns the updated params and the mean training loss per epoch (data
    loss only). The optimizer's momentum state persists across epochs (and
    across calls, which is what the round-based strategies rely on).

    With `prox_target`, the proximal pull (prox_lambda/2)*||theta - target||^2
    is applied implicitly after each step, theta <- (theta + lr*lam*target) /
    (1 + lr*lam), so any lam >= 0 is stable and lam -> inf pins theta to the
    target.
    """
    n = x.shape[0]
    losses = []
    if prox_target is not None:
        pull = opt.learning_rate * prox_lambda
        shrink = 1.0 / (1.0 + pull)
        pulled_target = prox_target.scale(pull)
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, opt.batch_size):
            idx = order[start:start + opt.batch_size]
            sb = stats_rows[idx] if stats_rows is not None else None
            loss, grads = loss_and_grad(params, arch, x[idx], y[idx], stats=sb)
            params = sgd_step(params, grads, opt)
            if prox_target is not None:
                params = params.add(pulled_target).scale(shrink)
            epoch_loss += loss * idx.shape[0]
        losses.append(epoch_loss / n)
    return params, losses
