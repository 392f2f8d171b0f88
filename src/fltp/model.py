"""Recurrent trajectory/attack predictor: a one-layer LSTM with a linear
head, written directly on numpy with a hand-derived backward pass.

Input is a non-empty (B, 10, 9) batch of feature windows (one window w is
the batch w[None]); output is a (B, 5, 3) batch of blocks: five future
normalized positions plus the attack-class regression value replicated per
step. Gate order inside stacked parameters is input, forget, cell, output.

The compute dtype follows the input windows: float32 windows run in float32,
anything else in float64. Parameters, the optimizer's velocity, saved blobs
and losses are float64; a float64 model applied to float32 windows is cast
once per call, and train_local keeps float64 master weights while each batch
runs on a float32 copy.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .features import FEATURE_DIM, LABEL_DIM, WINDOW_INPUT_STEPS, WINDOW_LABEL_STEPS
from .machine import fork_map

INPUT_DIM = FEATURE_DIM
OUTPUT_DIM = WINDOW_LABEL_STEPS * LABEL_DIM  # 15

_MAGIC = b"FLTP"

#: windows per pass of the cache-free forward over a large batch
PREDICT_CHUNK = 512

#: accepted TrainConfig.precision values, the dtype local training runs in
PRECISIONS = ("float64", "float32")


def _shapes(hidden_size: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of the ModelParams fields, in field and flat-vector order."""
    h4 = 4 * hidden_size
    return (h4, INPUT_DIM), (h4, hidden_size), (h4,), (OUTPUT_DIM, hidden_size), (OUTPUT_DIM,)


def flat_length(hidden_size: int) -> int:
    """Total parameter count for a given hidden size."""
    return sum(math.prod(shape) for shape in _shapes(hidden_size))


@dataclass
class ModelParams:
    """LSTM weights. Stacked gate matrices hold the four gates row-wise in
    blocks of hidden_size rows each. The flat order is the field order."""

    w_x: np.ndarray  # (4H, INPUT_DIM)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)
    w_head: np.ndarray  # (OUTPUT_DIM, H)
    b_head: np.ndarray  # (OUTPUT_DIM,)

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[1]

    @classmethod
    def view(cls, flat: np.ndarray, hidden_size: int) -> "ModelParams":
        """Fields as views into one contiguous flat vector, without copying:
        a write to either shows in the other."""
        parts = []
        start = 0
        for shape in _shapes(hidden_size):
            size = math.prod(shape)
            parts.append(flat[start : start + size].reshape(shape))
            start += size
        return cls(*parts)

    @classmethod
    def init(cls, hidden_size: int, rng: np.random.Generator) -> "ModelParams":
        """Uniform init in [-1/sqrt(H), 1/sqrt(H)], seeded, drawn in flat order."""
        if hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {hidden_size}")
        s = 1.0 / np.sqrt(hidden_size)
        return cls.view(rng.uniform(-s, s, size=flat_length(hidden_size)), hidden_size)

    def flatten(self) -> np.ndarray:
        return np.concatenate([getattr(self, f.name).ravel() for f in fields(self)])

    @classmethod
    def unflatten(cls, flat: np.ndarray, hidden_size: int) -> "ModelParams":
        """Parameters backed by a copy of flat."""
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (flat_length(hidden_size),):
            raise ValueError(
                f"expected {flat_length(hidden_size)} parameters for H={hidden_size}, got {flat.shape}"
            )
        return cls.view(flat.copy(), hidden_size)


@dataclass(frozen=True)
class TrainConfig:
    hidden_size: int = 64
    learning_rate: float = 1e-5
    momentum: float = 0.5
    batch_size: int = 128
    local_episodes: int = 10
    global_rounds: int = 300
    precision: str = "float64"  # the dtype of local training; aggregation and evaluation stay float64

    def __post_init__(self) -> None:
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.local_episodes < 0:
            raise ValueError(f"local_episodes must be >= 0, got {self.local_episodes}")
        if self.global_rounds < 1:
            raise ValueError(f"global_rounds must be >= 1, got {self.global_rounds}")
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")


@dataclass
class OptimizerState:
    """Classic momentum buffer: v <- mu*v + g; theta <- theta - lr*v."""

    velocity: np.ndarray
    learning_rate: float
    momentum: float

    @classmethod
    def fresh(cls, n_params: int, learning_rate: float, momentum: float) -> "OptimizerState":
        return cls(np.zeros(n_params), learning_rate, momentum)


@dataclass
class ForwardCache:
    params: ModelParams
    operand: np.ndarray  # (T + 1, B, H + D + 1): step t's GEMM rows [h_{t-1} | x_t | 1]; block T holds h_{T-1}
    gates: np.ndarray  # (T, 4, B, H) activations i, f, g, o: each a contiguous (B, H) block
    cell: np.ndarray  # (T, B, H) post-update cell states
    tanh_cell: np.ndarray
    pred: np.ndarray  # (B, 5, 3)

    @property
    def xt(self) -> np.ndarray:
        """(T, B, D) time-major input, a view of the operand."""
        return self.operand[:-1, :, self.params.hidden_size : -1]

    @property
    def hidden(self) -> np.ndarray:
        """(T, B, H) hidden states, a view of the operand."""
        return self.operand[1:, :, : self.params.hidden_size]


def _as_batch(windows: np.ndarray) -> np.ndarray:
    """The one check of the model's input: a non-empty (B, 10, 9) batch of
    finite windows, cast to the compute dtype (float32, or else float64)."""
    x = np.asarray(windows)
    if x.ndim != 3 or x.shape[0] == 0 or x.shape[1:] != (WINDOW_INPUT_STEPS, INPUT_DIM):
        raise ValueError(f"expected a non-empty (B, {WINDOW_INPUT_STEPS}, {INPUT_DIM}) batch of windows, got shape {x.shape}")
    x = x.astype(np.float32 if x.dtype == np.float32 else np.float64, copy=False)
    if not np.isfinite(x).all():
        raise ValueError("window contains non-finite values")
    return x


def _scratch(pool: dict[str, np.ndarray], name: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A contiguous (uninitialized) array of the given shape and dtype on
    pool[name], which grows as needed and is replaced when the dtype changes.
    Reusing one pool across calls spares the page faults of fresh
    allocations; each call overwrites what the last one left."""
    size = math.prod(shape)
    block = pool.get(name)
    if block is None or block.size < size or block.dtype != dtype:
        block = pool[name] = np.empty(size, dtype)
    return block[:size].reshape(shape)


def _lstm(
    params: ModelParams, xt: np.ndarray, keep: bool, pool: dict[str, np.ndarray] | None = None
) -> tuple[np.ndarray, ForwardCache | None]:
    """The timestep loop over a time-major batch xt (T, B, D), which may be a
    transposed view of a (B, T, D) batch.

    With keep, every step's gates, cell, tanh(cell) and GEMM operand are
    kept for backward(); without, one step's buffers are reused and no cache
    is returned. Working arrays come from pool (see _scratch), so a returned
    cache is valid until the next call on the same pool. Initial hidden and
    cell states are zero; the head reads the final hidden state only.
    Everything runs in xt's dtype; params of another dtype are cast to it,
    and the cache holds the cast copy.

    Each step makes one GEMM, z = [h_{t-1} | x_t | 1] @ W, where W stacks
    w_h.T, w_x.T and b into a (H + D + 1, 4H) matrix, and writes its hidden
    state straight into the next step's operand rows. With keep the operand
    is one (T + 1, B, H + D + 1) block; without, two (B, H + D + 1) slots
    alternate. Each step copies its input into its own rows.

    The sigmoid gates use logistic(z) = 0.5 * (1 + tanh(z / 2)), finite for
    every finite z. W's i, f and o columns are halved, which halves those
    pre-activations exactly (outside the subnormal range), so one tanh call
    gives all four gates of a step.
    """
    steps, batch, _ = xt.shape
    h_size = params.hidden_size
    dtype = xt.dtype
    if params.w_x.dtype != dtype:
        params = ModelParams.view(params.flatten().astype(dtype), h_size)
    pool = {} if pool is None else pool
    half = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype), h_size)  # per gate column: i, f, g, o
    w = _scratch(pool, "w", (h_size + INPUT_DIM + 1, 4 * h_size), dtype)
    np.multiply(params.w_h.T, half, out=w[:h_size])
    np.multiply(params.w_x.T, half, out=w[h_size:-1])
    np.multiply(params.b, half, out=w[-1])
    kept = steps if keep else 1
    gates = _scratch(pool, "gates", (kept, 4, batch, h_size), dtype)
    cell = _scratch(pool, "cell", (kept, batch, h_size), dtype)
    tanh_cell = _scratch(pool, "tanh_cell", (kept, batch, h_size), dtype)
    operand = _scratch(pool, "operand", (steps + 1 if keep else 2, batch, h_size + INPUT_DIM + 1), dtype)
    z = _scratch(pool, "z", (batch, 4 * h_size), dtype)
    ig = _scratch(pool, "ig", (batch, h_size), dtype)
    operand[0, :, :h_size] = 0.0  # h = 0
    operand[:, :, -1] = 1.0

    z_gates = z.reshape(batch, 4, h_size).transpose(1, 0, 2)  # (4, B, H) view of z
    for t in range(steps):
        k = t if keep else 0
        prev = k - 1 if keep else 0
        rows = operand[t if keep else t % 2]
        rows[:, h_size:-1] = xt[t]
        np.matmul(rows, w, out=z)
        gate = gates[k]
        np.tanh(z_gates, out=gate)
        for sigmoid in (gate[:2], gate[3]):  # i, f and o: tanh(z / 2) -> logistic(z)
            sigmoid += 1.0
            sigmoid *= 0.5
        i, f, g, o = gate
        c = cell[k]
        if t == 0:  # c = 0: no forget term
            np.multiply(i, g, out=c)
        else:
            np.multiply(f, cell[prev], out=c)
            np.multiply(i, g, out=ig)
            c += ig
        np.tanh(c, out=tanh_cell[k])
        h = operand[t + 1 if keep else 1 - t % 2, :, :h_size]  # the next step's rows
        np.multiply(o, tanh_cell[k], out=h)

    pred = (h @ params.w_head.T + params.b_head).reshape(batch, WINDOW_LABEL_STEPS, LABEL_DIM)
    cache = ForwardCache(params, operand, gates, cell, tanh_cell, pred) if keep else None
    return pred, cache


def forward_cached(params: ModelParams, window: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """The LSTM's (B, 5, 3) prediction for a non-empty (B, 10, 9) batch of
    windows, plus the activation cache consumed by backward()."""
    return _lstm(params, _as_batch(window).transpose(1, 0, 2), keep=True)


def forward(params: ModelParams, window: np.ndarray) -> np.ndarray:
    """Prediction only: forward_cached's values without keeping the cache.

    The batch runs PREDICT_CHUNK windows at a time, so the working arrays
    stay in cache and do not grow with B. With two or more chunks they run
    on forked processes when fork_map finds that safe, else here, one after
    another; each process reuses one buffer pool. Every chunk is the pass
    one call over its windows makes, so every path gives the same bits.
    """
    x = _as_batch(window)
    pool: dict[str, np.ndarray] = {}

    def chunk(start: int) -> np.ndarray:
        return _lstm(params, x[start : start + PREDICT_CHUNK].transpose(1, 0, 2), keep=False, pool=pool)[0]

    chunks = fork_map(chunk, range(0, x.shape[0], PREDICT_CHUNK))
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def loss(pred: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared residuals per (5, 3) block, averaged over B >= 1 blocks.

    Position and attack-code residuals enter identically; per sample the five
    step rows are summed, not averaged.
    """
    p = np.asarray(pred, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape:
        raise ValueError(f"prediction shape {p.shape} != label shape {y.shape}")
    if p.ndim != 3 or p.shape[0] == 0:
        raise ValueError(f"expected a non-empty batch of (5, 3) blocks, got shape {np.asarray(pred).shape}")
    return float(np.sum((p - y) ** 2) / p.shape[0])


def backward(cache: ForwardCache, labels: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of loss() against (B, 5, 3) labels w.r.t. the flattened
    parameters, via backprop through time over the cached activations, in
    the cache's dtype. Written into out (a flat vector of flat_length(H)
    values of that dtype) when given, else into a new array.

    Each step adds one operand[t].T @ d_z to a (H + D + 1, 4H) gradient of
    the stacked W (see _lstm), whose w_h, w_x and b blocks are copied out
    at the end."""
    params = cache.params
    operand = cache.operand
    dtype = operand.dtype
    y = np.asarray(labels, dtype=dtype)
    steps, batch = operand.shape[0] - 1, operand.shape[1]
    h_size = params.hidden_size
    if y.shape != cache.pred.shape:
        raise ValueError(f"label shape {y.shape} does not match cached prediction {cache.pred.shape}")
    if out is not None and out.dtype != dtype:
        raise ValueError(f"gradient buffer is {out.dtype}, the cache computes in {dtype}")
    grad = np.empty(flat_length(h_size), dtype) if out is None else out
    g_params = ModelParams.view(grad, h_size)

    d_pred = (2.0 / batch) * (cache.pred - y).reshape(batch, OUTPUT_DIM)
    np.matmul(d_pred.T, cache.hidden[-1], out=g_params.w_head)
    np.sum(d_pred, axis=0, out=g_params.b_head)
    d_h = d_pred @ params.w_head

    d_w = np.zeros((operand.shape[2], 4 * h_size), dtype)
    d_c = np.zeros((batch, h_size), dtype)
    d_z = np.empty((batch, 4 * h_size), dtype)
    d_i, d_f, d_g, d_o = (d_z[:, k * h_size : (k + 1) * h_size] for k in range(4))
    for t in range(steps - 1, -1, -1):
        i, f, g, o = cache.gates[t]
        tc = cache.tanh_cell[t]
        # each gate's gradient times its activation's derivative; the
        # products run left to right in this order, which fixes every bit
        d_c += d_h * o * (1.0 - tc * tc)
        d_o[...] = d_h * tc * o * (1.0 - o)
        d_i[...] = d_c * g * i * (1.0 - i)
        d_g[...] = d_c * i * (1.0 - g * g)
        if t > 0:
            d_f[...] = d_c * cache.cell[t - 1] * f * (1.0 - f)
        else:  # c_prev = 0
            d_f.fill(0.0)
        d_w += operand[t].T @ d_z
        if t > 0:  # h_prev = 0 at t = 0, and d_h, d_c are not needed after it
            d_h = d_z @ params.w_h
            d_c *= f

    g_params.w_h[...] = d_w[:h_size].T
    g_params.w_x[...] = d_w[h_size:-1].T
    g_params.b[...] = d_w[-1]
    return grad


def sgd_step(params: ModelParams, opt: OptimizerState, grad: np.ndarray) -> tuple[ModelParams, OptimizerState]:
    """One momentum-SGD update; inputs are left untouched."""
    flat = params.flatten()
    if grad.shape != flat.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameter count {flat.shape}")
    velocity = opt.momentum * opt.velocity + grad
    flat -= opt.learning_rate * velocity
    return ModelParams.view(flat, params.hidden_size), OptimizerState(velocity, opt.learning_rate, opt.momentum)


def train_local(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    episodes: int,
    batch_size: int,
    learning_rate: float,
    momentum: float,
    rng: np.random.Generator,
) -> tuple[ModelParams, float]:
    """Mini-batch momentum-SGD over (N, 10, 9) features and (N, 5, 3) labels.

    Each episode reshuffles the sample order with the supplied rng and sweeps
    batches of at most batch_size (the trailing partial batch is kept).
    Returns the trained float64 parameters and the full-dataset loss
    afterwards, from forward over the whole dataset (which may fork its
    chunks) once the batch buffers are released. The precision follows the
    features (see _as_batch): the parameters and velocity are float64 master
    copies, and with float32 features each batch's forward and backward run
    on a float32 copy of the parameters, whose float32 gradient is added
    into the float64 velocity.
    The values equal a loop of forward_cached, backward and sgd_step with a
    float64 OptimizerState bit for bit; here the parameters, gradient and
    velocity are flat buffers updated in place.
    """
    x = _as_batch(features)  # compute dtype, shape and finiteness, once for every batch drawn from x
    y = np.asarray(labels, dtype=x.dtype)
    if y.shape != (x.shape[0], WINDOW_LABEL_STEPS, LABEL_DIM):
        raise ValueError(f"label shape {y.shape} does not match {x.shape[0]} samples")
    if episodes < 0:
        raise ValueError(f"episodes must be >= 0, got {episodes}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")

    h_size = params.hidden_size
    theta = params.flatten().astype(np.float64, copy=False)
    velocity = np.zeros_like(theta)
    step = np.empty_like(theta)
    # the weights each batch runs on: theta itself, or its copy in x's dtype
    weights = theta if x.dtype == theta.dtype else np.empty(theta.shape, x.dtype)
    batch_params = ModelParams.view(weights, h_size)
    grad = np.empty_like(weights)
    pool: dict[str, np.ndarray] = {}
    n = x.shape[0]
    for _ in range(episodes):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if weights is not theta:
                np.copyto(weights, theta)
            backward(_lstm(batch_params, x[idx].transpose(1, 0, 2), keep=True, pool=pool)[1], y[idx], out=grad)
            velocity *= momentum
            velocity += grad
            np.multiply(velocity, learning_rate, out=step)
            theta -= step
    if weights is not theta:
        np.copyto(weights, theta)
    pool.clear()  # no cache holds the batch buffers, so forward can reuse their memory
    return ModelParams.view(theta, h_size), loss(forward(batch_params, x), y)


def save_params(params: ModelParams, path: str | Path) -> None:
    """Write parameters as a little-endian blob: magic, hidden size, input
    and output dims, then the flattened float64 values."""
    flat = params.flatten()
    header = _MAGIC + struct.pack("<III", params.hidden_size, INPUT_DIM, OUTPUT_DIM)
    Path(path).write_bytes(header + flat.astype("<f8").tobytes())


def load_params(path: str | Path) -> ModelParams:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a model parameter blob")
    hidden_size, input_dim, output_dim = struct.unpack("<III", raw[4:16])
    if input_dim != INPUT_DIM or output_dim != OUTPUT_DIM:
        raise ValueError(f"{path}: unsupported dims ({input_dim}, {output_dim})")
    if hidden_size < 1:
        raise ValueError(f"{path}: hidden_size must be >= 1, got {hidden_size}")
    if len(raw) != (size := 16 + 8 * flat_length(hidden_size)):
        raise ValueError(f"{path}: expected {size} bytes for hidden_size {hidden_size}, found {len(raw)}")
    return ModelParams.unflatten(np.frombuffer(raw[16:], dtype="<f8").astype(float), hidden_size)
