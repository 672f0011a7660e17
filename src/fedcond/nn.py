"""Minimal neural-network engine: dense/conv/pool layers, softmax cross-entropy,
and SGD with classic momentum.

Everything runs on float64 numpy arrays. All randomness is injected through
numpy Generators, and all batch reductions use fixed summation order, so
training is bit-reproducible for a fixed seed and batch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    """All parameters of one model as a single flat float64 `vector`.

    `values` maps each parameter name to a reshaped view into `vector`, laid
    out in the order `shapes` lists them (the layer plan's order), so a write
    through `values[name]` is a write to `vector`. Whole-model arithmetic
    (SGD, averaging, mixing) runs on `vector`. `sgd_step` updates its
    argument in place; `train_sgd` copies its input first, so a caller's
    instance never changes and one instance can be handed to many clients.
    """

    architecture_id: str
    vector: np.ndarray
    shapes: tuple[tuple[str, tuple[int, ...]], ...]
    values: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        size = sum(math.prod(shape) for _, shape in self.shapes)
        if self.vector.shape != (size,):
            raise ValueError(f"expected flat vector of length {size}, "
                             f"got {self.vector.shape}")
        self.values, offset = {}, 0
        for name, shape in self.shapes:
            end = offset + math.prod(shape)
            self.values[name] = self.vector[offset:end].reshape(shape)
            offset = end

    def copy(self) -> "ModelParams":
        return replace(self, vector=self.vector.copy())

    def flatten(self) -> np.ndarray:
        return self.vector.copy()

    def from_flat(self, vec: np.ndarray) -> "ModelParams":
        """Params with this instance's layout over `vec` (shared, not copied)."""
        return replace(self, vector=vec)


# --------------------------------------------------------------------------
# layer primitives
# --------------------------------------------------------------------------

class Layer:
    """Forward/backward over a batch; layers with parameters set `weighted`,
    override `init` and write their gradients into the views
    `grads.values[name]` in place."""

    weighted = False

    def __init__(self, name: str):
        self.name = name

    def init(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return {}


class Dense(Layer):
    weighted = True

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

    def backward(self, dout, params, cache, grads, input_grad=True):
        x = cache.pop(self.name)
        np.matmul(x.T, dout, out=grads.values[f"{self.name}.W"])
        grads.values[f"{self.name}.b"][...] = dout.sum(axis=0)
        if input_grad:
            return dout @ params.values[f"{self.name}.W"].T


class ReLU(Layer):
    def forward(self, x, params, cache):
        mask = x > 0
        cache[self.name] = mask
        return x * mask

    def backward(self, dout, params, cache, grads):
        return dout * cache.pop(self.name)


def _one_sample_order(a, n, order):
    """GEMM operand `a`, built from a batch of `n` samples, in the memory
    order BLAS must see. A one-sample batch goes in `order`, the one that
    keeps its spatial axis contiguous as in an NCHW plane: OpenBLAS's
    small-matrix kernels round that differently from the channels-last
    order, and the engine's results are fixed to the NCHW one."""
    return np.asarray(a, order=order) if n == 1 else a


def _plane_sums(d):
    """(n, m, c) -> (n, c): each of the n*c length-m columns summed in the
    pairwise order numpy's `sum` uses along a contiguous axis (halves cut at
    a multiple of 8 down to 128 or fewer, then 8 running accumulators, then
    the tail one by one). On channels-last memory this gives the bits of a
    sum over each NCHW plane without copying the array into that layout."""
    m = d.shape[1]
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _plane_sums(d[:, :half]) + _plane_sums(d[:, half:])
    whole = m - m % 8
    if whole:
        r = d[:, :8].copy()
        for i in range(8, whole, 8):
            r += d[:, i:i + 8]
        res = (((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3]))
               + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7])))
    else:
        res = np.zeros((d.shape[0], d.shape[2]), dtype=d.dtype)
    for i in range(whole, m):
        res += d[:, i]
    return res


class Conv2d(Layer):
    """3x3 convolution, stride 1, zero padding 1 (spatial size preserved), as
    one GEMM per pass over im2col columns (Chellapilla et al. 2006).

    Arrays cross the layer boundary with shape (N, C, H, W) in any memory
    layout; the output is a transposed view of channels-last (N, H, W, C)
    memory, which is what the GEMM writes, and an input in that layout is
    read with no copy besides the columns. Column row (n*H + y)*W + x holds
    the padded 3x3 window at (y, x), entry ci*9 + di*3 + dj, matching the
    weight layout (out_ch, in_ch*9). The bias gradient adds each (sample,
    channel) plane pairwise, then the samples in order.
    """

    KSIZE = 3
    PAD = 1
    weighted = True

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
        """(n*h*w, c*k*k) columns from the zero-padded channels-last input."""
        n, c, h, w = x.shape
        k, p = self.KSIZE, self.PAD
        xp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
        xp[:, p:p + h, p:p + w] = x.transpose(0, 2, 3, 1)
        windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
        return windows.reshape(n * h * w, c * k * k)

    def _col2im(self, dcols, x_shape):
        """Sum (n*h*w, k*k*c) column gradients, entry (di*k + dj)*c + ci,
        back onto the channels-last input grid, each input element's k*k
        contributions in (di, dj) order."""
        n, c, h, w = x_shape
        k, p = self.KSIZE, self.PAD
        dxp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=dcols.dtype)
        shifted = dcols.reshape(n, h, w, k, k, c)
        for di in range(k):
            for dj in range(k):
                dxp[:, di:di + h, dj:dj + w] += shifted[:, :, :, di, dj]
        return dxp[:, p:p + h, p:p + w].transpose(0, 3, 1, 2)

    def forward(self, x, params, cache):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ShapeMismatchError(self.name, f"expected (N,{self.in_ch},H,W), got {x.shape}")
        n, _, h, w = x.shape
        cols = self._im2col(x)
        cache[self.name] = (cols, x.shape)
        out = _one_sample_order(cols, n, "F") @ params.values[f"{self.name}.W"].T
        out += params.values[f"{self.name}.b"]
        return out.reshape(n, h, w, self.out_ch).transpose(0, 3, 1, 2)

    def backward(self, dout, params, cache, grads, input_grad=True):
        """Weight and bias gradients, then (with `input_grad`) the input
        gradient. The columns leave the cache here and are dropped right
        after the weight-gradient GEMM, so the column gradient of the same
        size reuses their memory instead of faulting in fresh pages."""
        cols, x_shape = cache.pop(self.name)
        n, _, h, w = x_shape
        dflat = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(n * h * w, self.out_ch)
        dflat = _one_sample_order(dflat, n, "F")
        grads.values[f"{self.name}.W"][...] = (_one_sample_order(cols.T, n, "C") @ dflat).T
        del cols
        grads.values[f"{self.name}.b"][...] = _plane_sums(
            dflat.reshape(n, h * w, self.out_ch)).sum(axis=0)
        if input_grad:
            # weight columns reordered to (di, dj, ci) so each offset's
            # slice of the column gradients is contiguous over channels
            k = self.KSIZE
            wmat = params.values[f"{self.name}.W"].reshape(self.out_ch, self.in_ch, k, k)
            return self._col2im(dflat @ wmat.transpose(0, 2, 3, 1).reshape(self.out_ch, -1),
                                x_shape)


class MaxPool2d(Layer):
    """2x2 max pooling, stride 2, over the four strided quarter-views of the
    input, so the output keeps the input's memory layout. The backward masks
    come from the strict comparisons `later > earlier`, so the gradient goes
    to the first maximum in window order (0,0), (0,1), (1,0), (1,1), +0.0
    against -0.0 included. Each value is `np.maximum(later, earlier)`. Tied
    values have the same bits except +0.0 against -0.0, where numpy does not
    document which operand it returns: its x86 SIMD loop returns the second
    (the earlier element, as the oracle test checks there), while its scalar
    loop and ARM's FMAX may not, which changes only the sign of a zero
    output. A NaN in any window slot propagates to the output. Backward
    writes each quarter of the input gradient as `dout`'s bits ANDed with
    its all-ones or all-zeros mask, so the unpicked entries are +0.0 and no
    masked select runs."""

    def forward(self, x, params, cache):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ShapeMismatchError(self.name, f"spatial dims must be even, got {x.shape}")
        q00, q01, q10, q11 = (x[:, :, di::2, dj::2] for di in (0, 1) for dj in (0, 1))
        top = np.maximum(q01, q00)
        bottom = np.maximum(q11, q10)
        cache[self.name] = (q01 > q00, q11 > q10, bottom > top, x.shape)
        return np.maximum(bottom, top)

    def backward(self, dout, params, cache, grads):
        top_right, bottom_right, lower, (n, c, h, w) = cache.pop(self.name)
        dx = np.empty((n, h, w, c), dtype=dout.dtype).transpose(0, 3, 1, 2)
        bits, dbits = dx.view(np.int64), dout.view(np.int64)
        upper = ~lower
        for (di, dj), picked in (((0, 0), upper & ~top_right), ((0, 1), upper & top_right),
                                 ((1, 0), lower & ~bottom_right), ((1, 1), lower & bottom_right)):
            np.bitwise_and(dbits, -picked.view(np.int8), out=bits[:, :, di::2, dj::2])
        return dx


class Flatten(Layer):
    """(N, ...) -> (N, features) in C order of the logical shape; for a
    channels-last conv output this is the one copy the dense layers need.
    Backward hands a 4-d gradient back in channels-last memory (one more
    copy), so the conv stack's ReLU and pool backward passes read and write
    the layout of their own caches."""

    def forward(self, x, params, cache):
        cache[self.name] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout, params, cache, grads):
        d = dout.reshape(cache.pop(self.name))
        if d.ndim == 4:
            d = np.ascontiguousarray(d.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        return d


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
        return dout[:, :cache.pop(self.name)]


def _build_plan(arch: Architecture):
    """mnist_cnn: conv(1->32) -> pool -> conv(32->64) -> pool -> flatten
    -> [concat stats] -> FC(H) -> FC(C), matching the 28x28 reference stack.
    Each conv stage pools before its ReLU, so the ReLU runs on a quarter of
    the elements: ReLU is monotone, so max and ReLU commute, and both orders
    pick the first positive maximum of a window, so every nonzero activation
    and gradient equals that of ReLU-then-pool (only signs of zeros differ).
    mlp: flatten -> [concat stats] -> FC(H) -> FC(H) -> FC(C); the second
    hidden layer lets the conditional variant compose fingerprint detection
    with classification, which one hidden layer is too shallow to learn at
    desk scale."""
    layers = []
    if arch.kind.startswith("mnist_cnn"):
        layers += [Conv2d("conv1", 1, 32), MaxPool2d("pool1"), ReLU("relu1"),
                   Conv2d("conv2", 32, 64), MaxPool2d("pool2"), ReLU("relu2"),
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
    return ModelParams(architecture_id(arch),
                       np.concatenate([v.ravel() for v in values.values()]),
                       tuple((name, v.shape) for name, v in values.items()))


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


def _forward_cached(layers, params: ModelParams, x: np.ndarray,
                    stats: np.ndarray | None, locate_nonfinite: bool = False):
    caches = {}
    h = x
    for layer in layers:
        if isinstance(layer, ConcatStats):
            h = layer.forward(h, params, caches, stats=stats)
        else:
            h = layer.forward(h, params, caches)
        if locate_nonfinite and not np.all(np.isfinite(h)):
            raise NumericsError(layer.name, "non-finite activation")
    return h, caches


CONV_BATCH = 64  # most samples `forward` runs through the conv stack at once


def forward(params: ModelParams, arch: Architecture, x, stats=None) -> np.ndarray:
    """Logits for one sample (shape (C,)) or a batch (shape (N, C)).

    The layers before `Flatten` (the conv stack) see at most `CONV_BATCH`
    samples at a time, in near-equal slices, so evaluating a whole shard
    holds the im2col columns of at most 64 samples. Each slice's output is
    copied once, in `Flatten`'s order, into the rows of one (N, features)
    array. Those layers act on each sample alone, and their GEMMs round a
    row the same way in any batch of two or more samples, so the logits are
    those of one pass over the batch (a test checks the bits)."""
    xa = np.asarray(x)
    single = xa.ndim == 1 or xa.shape == tuple(arch.input_shape)
    xb = _prepare_input(arch, xa)
    n = xb.shape[0]
    sb = _prepare_stats(arch, n, stats)
    plan = _plan(arch)
    stem = next(i for i, layer in enumerate(plan) if isinstance(layer, Flatten))
    h = xb
    if stem:
        parts = max(1, -(-n // CONV_BATCH))
        h = np.empty((n, arch.flatten_width), dtype=np.result_type(xb, params.vector))
        for part, rows in zip(np.array_split(xb, parts), np.array_split(h, parts)):
            out = _forward_cached(plan[:stem], params, part, None)[0]
            rows.reshape(out.shape)[...] = out
        plan = plan[stem + 1:]
    logits, _ = _forward_cached(plan, params, h, sb)
    if not np.all(np.isfinite(logits)):
        _raise_first_nonfinite(params, arch, xb, sb)
    return logits[0] if single else logits


def _raise_first_nonfinite(params, arch, x, stats):
    _forward_cached(_plan(arch), params, x, stats, locate_nonfinite=True)
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
    plan = _plan(arch)
    logits, caches = _forward_cached(plan, params, xb, sb)
    if not np.all(np.isfinite(logits)):
        _raise_first_nonfinite(params, arch, xb, sb)
    loss = mean_cross_entropy(logits, yb)
    dlogits = softmax(logits)
    dlogits[np.arange(n), yb] -= 1.0
    dlogits /= n
    grads = replace(params, vector=np.empty_like(params.vector))
    # backward stops at the first weighted layer: the input needs no gradient
    first = next(i for i, layer in enumerate(plan) if layer.weighted)
    d = dlogits
    for layer in reversed(plan[first + 1:]):
        d = layer.backward(d, params, caches, grads)
    plan[first].backward(d, params, caches, grads, input_grad=False)
    return loss, grads


@dataclass
class OptimizerState:
    """SGD-with-momentum state. The velocity is a flat vector laid out like
    the parameter vector, created lazily on the first step."""

    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    velocity: np.ndarray | None = field(default=None, repr=False)

    def clone_config(self) -> "OptimizerState":
        return OptimizerState(self.learning_rate, self.momentum, self.batch_size)


def sgd_step(params: ModelParams, grads: ModelParams, opt: OptimizerState) -> None:
    """Classic (heavy-ball) momentum, in place: v <- mu*v + g; theta <- theta - lr*v."""
    if opt.velocity is None:
        opt.velocity = np.zeros_like(params.vector)
    elif opt.velocity.shape != params.vector.shape:
        raise ValueError("optimizer state belongs to a different architecture")
    opt.velocity *= opt.momentum
    opt.velocity += grads.vector
    params.vector -= opt.learning_rate * opt.velocity


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
    base = models[0].vector
    out = base.copy()
    diff = np.empty_like(base)  # one scratch vector for every w_i * (model_i - first)
    for wi, m in zip(w, models):
        np.subtract(m.vector, base, out=diff)
        diff *= wi
        out += diff
    return replace(models[0], vector=out)


def train_sgd(params: ModelParams, arch: Architecture, x: np.ndarray, y: np.ndarray,
              opt: OptimizerState, epochs: int, rng: np.random.Generator,
              stats_rows: np.ndarray | None = None,
              prox_target: ModelParams | None = None,
              prox_lambda: float = 0.0) -> tuple[ModelParams, list[float]]:
    """Minibatch SGD for `epochs` passes; one seeded shuffle per epoch.

    Returns a trained copy of `params` (the argument is left unchanged) and
    the mean training loss per epoch (data loss only). The optimizer's
    momentum state persists across epochs (and across calls, which is what
    the round-based strategies rely on).

    With `prox_target`, the proximal pull (prox_lambda/2)*||theta - target||^2
    is applied implicitly after each step, theta <- (theta + lr*lam*target) /
    (1 + lr*lam), so any lam >= 0 is stable and lam -> inf pins theta to the
    target.
    """
    n = x.shape[0]
    losses = []
    params = params.copy()
    if prox_target is not None:
        pull = opt.learning_rate * prox_lambda
        shrink = 1.0 / (1.0 + pull)
        pulled_target = prox_target.vector * pull
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, opt.batch_size):
            idx = order[start:start + opt.batch_size]
            sb = stats_rows[idx] if stats_rows is not None else None
            loss, grads = loss_and_grad(params, arch, x[idx], y[idx], stats=sb)
            sgd_step(params, grads, opt)
            if prox_target is not None:
                params.vector += pulled_target
                params.vector *= shrink
            epoch_loss += loss * idx.shape[0]
        losses.append(epoch_loss / n)
    return params, losses
