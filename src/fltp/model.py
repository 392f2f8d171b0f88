"""Recurrent trajectory/attack predictor: a single-layer LSTM with a linear
head, written directly on numpy with a hand-derived backward pass.

Input is a (10, 9) feature window (or a batch of them); output is a (5, 3)
block: five future normalized positions plus the attack-class regression
value replicated per step. Gate order inside stacked parameters is
input, forget, cell, output. All math is float64.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import FEATURE_DIM, LABEL_DIM, WINDOW_INPUT_STEPS, WINDOW_LABEL_STEPS

INPUT_DIM = FEATURE_DIM
OUTPUT_DIM = WINDOW_LABEL_STEPS * LABEL_DIM  # 15

_MAGIC = b"FLTP"


def flat_length(hidden_size: int) -> int:
    """Total parameter count for a given hidden size."""
    h = hidden_size
    return 4 * (INPUT_DIM * h + h * h + h) + (h * OUTPUT_DIM + OUTPUT_DIM)


@dataclass
class ModelParams:
    """LSTM weights. Stacked gate matrices hold the four gates row-wise in
    blocks of hidden_size rows each."""

    w_x: np.ndarray  # (4H, INPUT_DIM)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)
    w_head: np.ndarray  # (OUTPUT_DIM, H)
    b_head: np.ndarray  # (OUTPUT_DIM,)

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[1]

    @classmethod
    def init(cls, hidden_size: int, rng: np.random.Generator) -> "ModelParams":
        """Uniform init in [-1/sqrt(H), 1/sqrt(H)], seeded; draw order fixed."""
        if hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {hidden_size}")
        s = 1.0 / np.sqrt(hidden_size)
        h4 = 4 * hidden_size
        return cls(
            w_x=rng.uniform(-s, s, size=(h4, INPUT_DIM)),
            w_h=rng.uniform(-s, s, size=(h4, hidden_size)),
            b=rng.uniform(-s, s, size=h4),
            w_head=rng.uniform(-s, s, size=(OUTPUT_DIM, hidden_size)),
            b_head=rng.uniform(-s, s, size=OUTPUT_DIM),
        )

    @classmethod
    def zeros(cls, hidden_size: int) -> "ModelParams":
        h4 = 4 * hidden_size
        return cls(
            w_x=np.zeros((h4, INPUT_DIM)),
            w_h=np.zeros((h4, hidden_size)),
            b=np.zeros(h4),
            w_head=np.zeros((OUTPUT_DIM, hidden_size)),
            b_head=np.zeros(OUTPUT_DIM),
        )

    def flatten(self) -> np.ndarray:
        return np.concatenate(
            [self.w_x.ravel(), self.w_h.ravel(), self.b, self.w_head.ravel(), self.b_head]
        )

    @classmethod
    def unflatten(cls, flat: np.ndarray, hidden_size: int) -> "ModelParams":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (flat_length(hidden_size),):
            raise ValueError(
                f"expected {flat_length(hidden_size)} parameters for H={hidden_size}, got {flat.shape}"
            )
        h = hidden_size
        h4 = 4 * h
        sizes = [h4 * INPUT_DIM, h4 * h, h4, OUTPUT_DIM * h, OUTPUT_DIM]
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        return cls(
            w_x=parts[0].reshape(h4, INPUT_DIM).copy(),
            w_h=parts[1].reshape(h4, h).copy(),
            b=parts[2].copy(),
            w_head=parts[3].reshape(OUTPUT_DIM, h).copy(),
            b_head=parts[4].copy(),
        )

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.w_x.copy(), self.w_h.copy(), self.b.copy(), self.w_head.copy(), self.b_head.copy()
        )


@dataclass
class TrainConfig:
    hidden_size: int = 64
    learning_rate: float = 1e-5
    momentum: float = 0.5
    batch_size: int = 128
    local_episodes: int = 10
    global_rounds: int = 300

    def validate(self) -> None:
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
    x: np.ndarray  # (B, T, D)
    gate_i: np.ndarray  # (T, B, H) each
    gate_f: np.ndarray
    gate_g: np.ndarray
    gate_o: np.ndarray
    cell: np.ndarray  # (T, B, H) post-update cell states
    tanh_cell: np.ndarray
    hidden: np.ndarray  # (T, B, H)
    pred: np.ndarray  # (B, 5, 3)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _as_batch(window: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(window, dtype=float)
    single = x.ndim == 2
    if single:
        x = x[None, :, :]
    if x.ndim != 3 or x.shape[1] != WINDOW_INPUT_STEPS or x.shape[2] != INPUT_DIM:
        raise ValueError(f"expected window shape ({WINDOW_INPUT_STEPS}, {INPUT_DIM}) or a batch of them, got {np.asarray(window).shape}")
    if not np.isfinite(x).all():
        raise ValueError("window contains non-finite values")
    return x, single


def forward_cached(params: ModelParams, window: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the LSTM over a window (10, 9) or batch (B, 10, 9).

    Returns the prediction, shape (5, 3) or (B, 5, 3), plus the activation
    cache consumed by backward(). Initial hidden and cell states are zero;
    the head reads the final hidden state only.
    """
    x, single = _as_batch(window)
    batch, steps, _ = x.shape
    h_size = params.hidden_size

    gate_i = np.empty((steps, batch, h_size))
    gate_f = np.empty((steps, batch, h_size))
    gate_g = np.empty((steps, batch, h_size))
    gate_o = np.empty((steps, batch, h_size))
    cell = np.empty((steps, batch, h_size))
    tanh_cell = np.empty((steps, batch, h_size))
    hidden = np.empty((steps, batch, h_size))

    h = np.zeros((batch, h_size))
    c = np.zeros((batch, h_size))
    for t in range(steps):
        z = x[:, t, :] @ params.w_x.T + h @ params.w_h.T + params.b
        zi, zf, zg, zo = np.split(z, 4, axis=1)
        i = _sigmoid(zi)
        f = _sigmoid(zf)
        g = np.tanh(zg)
        o = _sigmoid(zo)
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gate_i[t], gate_f[t], gate_g[t], gate_o[t] = i, f, g, o
        cell[t], tanh_cell[t], hidden[t] = c, tc, h

    pred = (h @ params.w_head.T + params.b_head).reshape(batch, WINDOW_LABEL_STEPS, LABEL_DIM)
    cache = ForwardCache(params, x, gate_i, gate_f, gate_g, gate_o, cell, tanh_cell, hidden, pred)
    return (pred[0] if single else pred), cache


def forward(params: ModelParams, window: np.ndarray) -> np.ndarray:
    """Prediction only; see forward_cached."""
    return forward_cached(params, window)[0]


def loss(pred: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared residuals over the (5, 3) block, averaged over the batch.

    Position and attack-code residuals enter identically; per sample the five
    step rows are summed, not averaged.
    """
    p = np.asarray(pred, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape:
        raise ValueError(f"prediction shape {p.shape} != label shape {y.shape}")
    if p.ndim == 2:
        p = p[None]
        y = y[None]
    if p.ndim != 3 or p.shape[0] == 0:
        raise ValueError(f"expected a non-empty batch of (5, 3) blocks, got shape {np.asarray(pred).shape}")
    return float(np.sum((p - y) ** 2) / p.shape[0])


def backward(cache: ForwardCache, labels: np.ndarray) -> np.ndarray:
    """Gradient of loss() w.r.t. the flattened parameters, via backprop
    through time over the cached activations."""
    params = cache.params
    y = np.asarray(labels, dtype=float)
    if y.ndim == 2:
        y = y[None]
    batch, steps = cache.x.shape[0], cache.x.shape[1]
    if y.shape != cache.pred.shape:
        raise ValueError(f"label shape {y.shape} does not match cached prediction {cache.pred.shape}")

    d_pred = (2.0 / batch) * (cache.pred - y).reshape(batch, OUTPUT_DIM)
    h_final = cache.hidden[-1]
    d_w_head = d_pred.T @ h_final
    d_b_head = d_pred.sum(axis=0)
    d_h = d_pred @ params.w_head

    d_w_x = np.zeros_like(params.w_x)
    d_w_h = np.zeros_like(params.w_h)
    d_b = np.zeros_like(params.b)
    d_c = np.zeros((batch, params.hidden_size))

    for t in range(steps - 1, -1, -1):
        i, f, g, o = cache.gate_i[t], cache.gate_f[t], cache.gate_g[t], cache.gate_o[t]
        tc = cache.tanh_cell[t]
        c_prev = cache.cell[t - 1] if t > 0 else np.zeros_like(d_c)
        h_prev = cache.hidden[t - 1] if t > 0 else np.zeros_like(d_c)

        d_o = d_h * tc
        d_c = d_c + d_h * o * (1.0 - tc * tc)
        d_i = d_c * g
        d_g = d_c * i
        d_f = d_c * c_prev

        d_z = np.hstack(
            [
                d_i * i * (1.0 - i),
                d_f * f * (1.0 - f),
                d_g * (1.0 - g * g),
                d_o * o * (1.0 - o),
            ]
        )
        d_w_x += d_z.T @ cache.x[:, t, :]
        d_w_h += d_z.T @ h_prev
        d_b += d_z.sum(axis=0)
        d_h = d_z @ params.w_h
        d_c = d_c * f

    return np.concatenate([d_w_x.ravel(), d_w_h.ravel(), d_b, d_w_head.ravel(), d_b_head])


def sgd_step(params: ModelParams, opt: OptimizerState, grad: np.ndarray) -> tuple[ModelParams, OptimizerState]:
    """One momentum-SGD update; inputs are left untouched."""
    flat = params.flatten()
    if grad.shape != flat.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameter count {flat.shape}")
    velocity = opt.momentum * opt.velocity + grad
    new_flat = flat - opt.learning_rate * velocity
    new_params = ModelParams.unflatten(new_flat, params.hidden_size)
    return new_params, OptimizerState(velocity, opt.learning_rate, opt.momentum)


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
    """Mini-batch momentum-SGD over a local dataset.

    Each episode reshuffles the sample order with the supplied rng and sweeps
    batches of at most batch_size (the trailing partial batch is kept).
    Returns the trained parameters and the full-dataset loss afterwards.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 3 or x.shape[0] == 0:
        raise ValueError(f"expected a non-empty (N, {WINDOW_INPUT_STEPS}, {INPUT_DIM}) feature array, got {x.shape}")
    if y.shape != (x.shape[0], WINDOW_LABEL_STEPS, LABEL_DIM):
        raise ValueError(f"label shape {y.shape} does not match {x.shape[0]} samples")
    if episodes < 0:
        raise ValueError(f"episodes must be >= 0, got {episodes}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")

    params = params.copy()
    opt = OptimizerState.fresh(flat_length(params.hidden_size), learning_rate, momentum)
    n = x.shape[0]
    for _ in range(episodes):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            _, cache = forward_cached(params, x[idx])
            grad = backward(cache, y[idx])
            params, opt = sgd_step(params, opt, grad)
    return params, loss(forward(params, x), y)


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
    flat = np.frombuffer(raw[16:], dtype="<f8")
    if flat.shape[0] != flat_length(hidden_size):
        raise ValueError(f"{path}: expected {flat_length(hidden_size)} values, found {flat.shape[0]}")
    return ModelParams.unflatten(flat.astype(float), hidden_size)
