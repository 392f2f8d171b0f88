"""Recurrent predictor: forward oracle, gradient check, optimizer, serialization."""
import multiprocessing
import os
import re
import warnings

import numpy as np
import pytest

from fltp import model
from fltp.features import NormalizationSpec
from fltp.federated import EvalSet, evaluate_global
from fltp.model import (
    INPUT_DIM,
    ForwardCache,
    ModelParams,
    OptimizerState,
    OUTPUT_DIM,
    PREDICT_CHUNK,
    TrainConfig,
    _lstm,
    _scratch,
    backward,
    flat_length,
    forward,
    forward_cached,
    load_params,
    loss,
    save_params,
    sgd_step,
    train_local,
)
from fltp.seeding import derive_rng
from forking import pid_spy, set_cpus


def textbook_forward(params: ModelParams, window: np.ndarray) -> np.ndarray:
    """Straight-line reference: per-gate matrices, plain python loop, one
    sample. Kept deliberately different in structure from the production path."""
    h_size = params.hidden_size
    rows = {name: slice(k * h_size, (k + 1) * h_size) for k, name in enumerate("ifgo")}

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = np.zeros(h_size)
    c = np.zeros(h_size)
    for x_t in np.asarray(window, dtype=float):
        pre = {
            name: params.w_x[rows[name]] @ x_t + params.w_h[rows[name]] @ h + params.b[rows[name]]
            for name in "ifgo"
        }
        i = sig(pre["i"])
        f = sig(pre["f"])
        g = np.tanh(pre["g"])
        o = sig(pre["o"])
        c = f * c + i * g
        h = o * np.tanh(c)
    return (params.w_head @ h + params.b_head).reshape(5, 3)


def fd_gradient(params: ModelParams, x: np.ndarray, y: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of loss() in flattened parameter order."""
    flat = params.flatten()
    h_size = params.hidden_size
    out = np.empty_like(flat)
    for j in range(flat.size):
        up = flat.copy()
        dn = flat.copy()
        up[j] += eps
        dn[j] -= eps
        lu = loss(forward(ModelParams.unflatten(up, h_size), x), y)
        ld = loss(forward(ModelParams.unflatten(dn, h_size), x), y)
        out[j] = (lu - ld) / (2.0 * eps)
    return out


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-3) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def _sample(seed, batch=1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(batch, 10, INPUT_DIM))
    y = rng.uniform(0.0, 1.0, size=(batch, 5, 3))
    return x, y


class TestFlatLayout:
    @pytest.mark.parametrize("h,expected", [(1, 74), (4, 299), (32, 5871), (64, 19919)])
    def test_flat_length(self, h, expected):
        assert flat_length(h) == expected

    def test_flatten_unflatten_round_trip(self):
        p = ModelParams.init(8, derive_rng(7))
        q = ModelParams.unflatten(p.flatten(), 8)
        for name in ("w_x", "w_h", "b", "w_head", "b_head"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))

    def test_flatten_order(self):
        # each block's first element lands at the documented offset
        h = 3
        p = ModelParams.view(np.zeros(flat_length(h)), h)
        p.w_x[0, 0] = 1.0
        p.w_h[0, 0] = 2.0
        p.b[0] = 3.0
        p.w_head[0, 0] = 4.0
        p.b_head[0] = 5.0
        flat = p.flatten()
        h4 = 4 * h
        offsets = [0, h4 * INPUT_DIM, h4 * INPUT_DIM + h4 * h, h4 * INPUT_DIM + h4 * h + h4]
        offsets.append(offsets[-1] + OUTPUT_DIM * h)
        assert [flat[o] for o in offsets] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_unflatten_wrong_length(self):
        with pytest.raises(ValueError):
            ModelParams.unflatten(np.zeros(298), 4)

    def test_init_bounds_and_determinism(self):
        p = ModelParams.init(16, derive_rng(3))
        q = ModelParams.init(16, derive_rng(3))
        s = 1.0 / np.sqrt(16)
        flat = p.flatten()
        assert np.all(np.abs(flat) <= s)
        assert flat.std() > 0
        np.testing.assert_array_equal(flat, q.flatten())
        assert not np.array_equal(flat, ModelParams.init(16, derive_rng(4)).flatten())


class TestForward:
    def test_zero_params_zero_output(self):
        x, _ = _sample(0)
        np.testing.assert_array_equal(forward(ModelParams.view(np.zeros(flat_length(6)), 6), x), np.zeros((1, 5, 3)))

    def test_output_shapes(self):
        p = ModelParams.init(4, derive_rng(1))
        x, _ = _sample(1, batch=3)
        assert forward(p, x[:1]).shape == (1, 5, 3)
        assert forward(p, x).shape == (3, 5, 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_textbook_oracle(self, seed):
        p = ModelParams.init(5, derive_rng(100, seed))
        x, _ = _sample(seed)
        np.testing.assert_allclose(forward(p, x[:1])[0], textbook_forward(p, x[0]), rtol=0, atol=1e-10)

    def test_batch_consistent_with_singles(self):
        p = ModelParams.init(7, derive_rng(8))
        x, _ = _sample(2, batch=4)
        batched = forward(p, x)
        for k in range(4):
            np.testing.assert_allclose(batched[k], forward(p, x[k : k + 1])[0], rtol=0, atol=1e-12)

    def test_rejects_bad_shapes_and_nan(self):
        p = ModelParams.init(4, derive_rng(1))
        with pytest.raises(ValueError):
            forward(p, np.zeros((1, 9, 9)))
        with pytest.raises(ValueError):
            forward(p, np.zeros((1, 10, 8)))
        bad = np.zeros((1, 10, 9))
        bad[0, 3, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            forward(p, bad)

    @pytest.mark.parametrize("entry", ["forward", "forward_cached", "train_local", "evaluate_global"])
    def test_entry_point_takes_only_non_empty_batches(self, entry):
        """Each entry point rejects a 2-D window and an empty batch; one
        window w is the batch w[None]."""
        p = ModelParams.init(4, derive_rng(1))
        x, y = _sample(3)
        kw = dict(episodes=1, batch_size=4, learning_rate=0.1, momentum=0.5, rng=derive_rng(1))
        norm = NormalizationSpec(region_side=10_000.0, v_max=40.0, rssi_min=-100.0, rssi_max=-40.0)
        call = {
            "forward": lambda w, labels: forward(p, w),
            "forward_cached": lambda w, labels: forward_cached(p, w),
            "train_local": lambda w, labels: train_local(p, w, labels, **kw),
            "evaluate_global": lambda w, labels: evaluate_global(p, EvalSet(w, labels), norm),
        }[entry]
        call(x, y)  # a batch of one
        for w, labels in ((x[0], y[0]), (x[:0], y[:0])):
            with pytest.raises(ValueError, match=r"non-empty \(B, 10, 9\) batch"):
                call(w, labels)

    @pytest.mark.parametrize("batch", [0, 1, 3, 130, 2 * PREDICT_CHUNK + 3])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_forward_equals_forward_cached(self, cpus, batch, monkeypatch, tmp_path):
        """forward gives forward_cached's bytes, with its PREDICT_CHUNK-window
        chunks on forked processes only when there are two or more of them
        and two usable CPUs. Both reject an empty batch."""
        p = ModelParams.init(6, derive_rng(9))
        x, _ = _sample(12, batch=batch)
        if batch == 0:
            for entry in (forward, forward_cached):
                with pytest.raises(ValueError, match="non-empty"):
                    entry(p, x)
            return
        cached = forward_cached(p, x)[0]
        single_cached = forward_cached(p, x[:1])[0]
        set_cpus(monkeypatch, cpus)
        chunk_pids = pid_spy(monkeypatch, tmp_path / "chunk_pids", model, "_lstm")
        pred = forward(p, x)
        pids = chunk_pids()
        chunks = -(-batch // PREDICT_CHUNK)
        assert len(pids) == chunks
        if cpus == 2 and chunks >= 2:
            assert os.getpid() not in pids and len(set(pids)) == 2
        else:
            assert pids == [os.getpid()] * chunks
        assert multiprocessing.active_children() == []
        assert pred.shape == (batch, 5, 3)
        assert pred.tobytes() == cached.tobytes()
        single = forward(p, x[:1])
        assert chunk_pids() == [os.getpid()]
        assert single.shape == (1, 5, 3)
        assert single.tobytes() == single_cached.tobytes()

    def test_gates_match_logistic_without_warnings(self):
        """Every pre-activation x in [-800, 800] reaches all four gates
        through feature 0 (w_x column 0 is 1, everything else 0): the i, f
        and o gates hold the logistic of x, finite and without a
        RuntimeWarning, and the g gate tanh(x)."""
        x = np.linspace(-800.0, 800.0, 160_001)
        params = ModelParams.view(np.zeros(flat_length(1)), 1)
        params.w_x[:, 0] = 1.0
        xt = np.zeros((2, x.size, INPUT_DIM))
        xt[:, :, 0] = x
        with np.errstate(over="ignore"):
            expected = 1.0 / (1.0 + np.exp(-x))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, cache = _lstm(params, xt, keep=True)
        for t in range(2):
            i, f, g, o = cache.gates[t, :, :, 0]
            for got in (i, f, o):
                assert np.all(np.isfinite(got))
                assert np.max(np.abs(got - expected)) <= 1e-15
            np.testing.assert_array_equal(g, np.tanh(x))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2))."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _cast(params: ModelParams, dtype: np.dtype) -> ModelParams:
    return params if params.w_x.dtype == dtype else ModelParams.view(params.flatten().astype(dtype), params.hidden_size)


def _operand(xt: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """The (T + 1, B, H + D + 1) rows [h_{t-1} | x_t | 1] of T steps."""
    steps, batch, _ = xt.shape
    h_size = hidden.shape[2]
    operand = np.zeros((steps + 1, batch, h_size + INPUT_DIM + 1), xt.dtype)
    operand[1:, :, :h_size] = hidden
    operand[:steps, :, h_size:-1] = xt
    operand[:, :, -1] = 1.0
    return operand


def one_gemm_lstm(params: ModelParams, xt: np.ndarray, keep: bool):
    """The step loop as one GEMM per step, [h_{t-1} | x_t | 1] @ W with the
    unhalved W = [w_h.T; w_x.T; b], and one activation call per gate: the
    values _lstm computes with W's i, f and o columns halved."""
    steps, batch, _ = xt.shape
    params = _cast(params, xt.dtype)
    h_size = params.hidden_size
    w = np.ascontiguousarray(np.concatenate([params.w_h.T, params.w_x.T, params.b[None]]))  # row-major, as _lstm's
    operand = _operand(xt, np.zeros((steps, batch, h_size), xt.dtype))
    gates = np.empty((steps, 4, batch, h_size), xt.dtype)
    cell = np.empty((steps, batch, h_size), xt.dtype)
    tanh_cell = np.empty((steps, batch, h_size), xt.dtype)
    for t in range(steps):
        z = (operand[t] @ w).reshape(batch, 4, h_size).transpose(1, 0, 2)
        gate = gates[t]
        _sigmoid(z[:2], out=gate[:2])
        np.tanh(z[2], out=gate[2])
        _sigmoid(z[3], out=gate[3])
        i, f, g, o = gate
        cell[t] = i * g if t == 0 else f * cell[t - 1] + i * g
        np.tanh(cell[t], out=tanh_cell[t])
        np.multiply(o, tanh_cell[t], out=operand[t + 1, :, :h_size])
    pred = (operand[-1, :, :h_size] @ params.w_head.T + params.b_head).reshape(batch, 5, 3)
    return pred, ForwardCache(params, operand, gates, cell, tanh_cell, pred) if keep else None


def stacked_lstm(params: ModelParams, xt: np.ndarray, keep: bool):
    """The step loop with the input projection of all T steps in one GEMM
    up front, the recurrent and input terms in separate GEMMs, and one
    activation call per gate."""
    steps, batch, _ = xt.shape
    params = _cast(params, xt.dtype)
    h_size = params.hidden_size
    dtype = xt.dtype
    gates = np.empty((steps, 4, batch, h_size), dtype)
    cell = np.empty((steps, batch, h_size), dtype)
    tanh_cell = np.empty((steps, batch, h_size), dtype)
    hidden = np.empty((steps, batch, h_size), dtype)
    z = np.empty((batch, 4 * h_size), dtype)
    ig = np.empty((batch, h_size), dtype)
    zx = (xt.reshape(steps * batch, INPUT_DIM) @ params.w_x.T).reshape(steps, batch, 4 * h_size)
    z_gates = z.reshape(batch, 4, h_size).transpose(1, 0, 2)
    for t in range(steps):
        if t == 0:
            np.add(zx[0], params.b, out=z)
        else:
            np.matmul(hidden[t - 1], params.w_h.T, out=z)
            z += zx[t]
            z += params.b
        gate = gates[t]
        _sigmoid(z_gates[:2], out=gate[:2])
        np.tanh(z_gates[2], out=gate[2])
        _sigmoid(z_gates[3], out=gate[3])
        i, f, g, o = gate
        c = cell[t]
        if t == 0:
            np.multiply(i, g, out=c)
        else:
            np.multiply(f, cell[t - 1], out=c)
            np.multiply(i, g, out=ig)
            c += ig
        np.tanh(c, out=tanh_cell[t])
        np.multiply(o, tanh_cell[t], out=hidden[t])
    pred = (hidden[-1] @ params.w_head.T + params.b_head).reshape(batch, 5, 3)
    return pred, ForwardCache(params, _operand(xt, hidden), gates, cell, tanh_cell, pred) if keep else None


def _loop_inputs(dtype, hidden, batch):
    params = ModelParams.init(hidden, derive_rng(700, hidden, batch))
    rng = derive_rng(701, hidden, batch)
    xt = rng.uniform(-1.0, 1.0, size=(10, batch, INPUT_DIM)).astype(dtype)
    y = rng.uniform(0.0, 1.0, size=(batch, 5, 3)).astype(dtype)
    return params, xt, y


def _compare_loops(check, params, xt, y, keep, reference):
    """_lstm against a reference loop: the prediction, the cached gates,
    cell, tanh(cell), inputs and hidden states, and backward's gradient."""
    got_pred, got = _lstm(params, xt, keep)
    expected_pred, expected = reference(params, xt, keep)
    check(got_pred, expected_pred)
    if not keep:
        assert got is None
        return
    np.testing.assert_array_equal(got.params.flatten(), expected.params.flatten())  # unhalved
    np.testing.assert_array_equal(got.xt, xt)
    for field in ("gates", "cell", "tanh_cell", "hidden"):
        check(getattr(got, field), getattr(expected, field))
    check(backward(got, y), backward(expected, y))


class TestMatchesReferenceLoops:
    """_lstm against two in-test loops.

    one_gemm_lstm makes the same GEMM per step on an unhalved W. Both
    dtypes are bit-equal to it under OpenBLAS's SkylakeX, Haswell and
    Sandybridge kernels, B = 1 and odd B included: the GEMMs have the same
    shapes and layouts, and halving a column scales each of its products
    and sums exactly.

    stacked_lstm is the all-steps input projection with separate recurrent
    GEMMs and bias adds, which sums in another order: a float64 oracle
    within 1e-12 of each array's largest entry."""

    @pytest.mark.parametrize("keep", [True, False])
    @pytest.mark.parametrize("batch", [1, 2, 3, 120, 128, 130, 512, 1027])
    @pytest.mark.parametrize("hidden", [6, 32, 64])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_one_gemm_loop(self, dtype, hidden, batch, keep):
        _compare_loops(np.testing.assert_array_equal, *_loop_inputs(dtype, hidden, batch), keep, one_gemm_lstm)

    @pytest.mark.parametrize("keep", [True, False])
    @pytest.mark.parametrize("batch", [1, 2, 3, 120, 128, 130, 512, 1027])
    @pytest.mark.parametrize("hidden", [6, 32, 64])
    def test_near_stacked_loop(self, hidden, batch, keep):
        def check(got, expected):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

        _compare_loops(check, *_loop_inputs(np.float64, hidden, batch), keep, stacked_lstm)


class TestLoss:
    def test_hand_case(self):
        pred = np.zeros((1, 5, 3))
        y = np.zeros((1, 5, 3))
        y[0, 0, 0] = 1.0
        y[0, 1, 1] = 1.0
        assert loss(pred, y) == 2.0

    def test_batch_mean_semantics(self):
        pred = np.zeros((5, 3))
        y = np.full((5, 3), 0.5)  # 15 * 0.25 = 3.75 per sample
        single = loss(pred[None], y[None])
        assert single == 3.75
        assert loss(np.stack([pred, pred]), np.stack([y, y])) == single
        zero = np.zeros((5, 3))
        assert loss(np.stack([pred, zero]), np.stack([y, zero])) == single / 2

    def test_shape_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            loss(np.zeros((5, 3)), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            loss(np.zeros((0, 5, 3)), np.zeros((0, 5, 3)))


class TestBackward:
    @pytest.mark.parametrize("seed", range(3))
    def test_finite_difference_single(self, seed):
        p = ModelParams.init(4, derive_rng(200, seed))
        x, y = _sample(seed)
        _, cache = forward_cached(p, x)
        analytic = backward(cache, y)
        numeric = fd_gradient(p, x, y)
        assert max_rel_err(analytic, numeric) < 1e-4
        np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-7)

    def test_finite_difference_batch(self):
        p = ModelParams.init(4, derive_rng(201))
        x, y = _sample(11, batch=3)
        _, cache = forward_cached(p, x)
        assert max_rel_err(backward(cache, y), fd_gradient(p, x, y)) < 1e-4

    def test_zero_residual_zero_gradient(self):
        p = ModelParams.init(4, derive_rng(202))
        x, _ = _sample(3)
        pred, cache = forward_cached(p, x)
        np.testing.assert_array_equal(backward(cache, pred), np.zeros(flat_length(4)))

    def test_linear_in_residual(self):
        p = ModelParams.init(4, derive_rng(203))
        x, _ = _sample(4)
        pred, cache = forward_cached(p, x)
        delta = np.random.default_rng(5).uniform(-0.5, 0.5, size=pred.shape)
        g1 = backward(cache, pred - delta)
        g2 = backward(cache, pred - 2.0 * delta)
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-9, atol=1e-12)

    def test_head_bias_block_by_hand(self):
        p = ModelParams.init(4, derive_rng(204))
        x, y = _sample(6)
        pred, cache = forward_cached(p, x)
        grad = backward(cache, y)
        np.testing.assert_array_equal(grad[-OUTPUT_DIM:], 2.0 * (pred - y[0]).ravel())

    def test_label_shape_mismatch(self):
        p = ModelParams.init(4, derive_rng(205))
        x, _ = _sample(7, batch=2)
        _, cache = forward_cached(p, x)
        with pytest.raises(ValueError):
            backward(cache, np.zeros((3, 5, 3)))


class TestSgd:
    def test_two_steps_with_momentum(self):
        p0 = ModelParams.init(4, derive_rng(300))
        g = np.random.default_rng(9).standard_normal(flat_length(4))
        opt = OptimizerState.fresh(flat_length(4), learning_rate=0.1, momentum=0.5)
        p1, opt = sgd_step(p0, opt, g)
        p2, opt = sgd_step(p1, opt, g)
        # velocities g then 1.5g: total displacement -lr * 2.5 * g
        np.testing.assert_allclose(p2.flatten(), p0.flatten() - 0.25 * g, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(opt.velocity, 1.5 * g, rtol=1e-15, atol=0)

    def test_inputs_untouched(self):
        p0 = ModelParams.init(4, derive_rng(301))
        before = p0.flatten()
        opt0 = OptimizerState.fresh(flat_length(4), 0.1, 0.5)
        sgd_step(p0, opt0, np.ones(flat_length(4)))
        np.testing.assert_array_equal(p0.flatten(), before)
        np.testing.assert_array_equal(opt0.velocity, np.zeros(flat_length(4)))

    def test_gradient_shape_checked(self):
        p0 = ModelParams.init(4, derive_rng(302))
        opt = OptimizerState.fresh(flat_length(4), 0.1, 0.5)
        with pytest.raises(ValueError):
            sgd_step(p0, opt, np.ones(7))


class TestTrainLocal:
    def _data(self, n=16, seed=0):
        rng = np.random.default_rng(seed)
        return (
            rng.uniform(0.0, 1.0, size=(n, 10, INPUT_DIM)),
            rng.uniform(0.0, 1.0, size=(n, 5, 3)),
        )

    def test_zero_episodes_identity(self):
        x, y = self._data()
        p0 = ModelParams.init(6, derive_rng(400))
        p1, final = train_local(
            p0, x, y, episodes=0, batch_size=8, learning_rate=0.1, momentum=0.5, rng=derive_rng(1)
        )
        np.testing.assert_array_equal(p1.flatten(), p0.flatten())
        assert final == loss(forward(p0, x), y)

    def test_zero_learning_rate_identity(self):
        x, y = self._data()
        p0 = ModelParams.init(6, derive_rng(401))
        p1, _ = train_local(
            p0, x, y, episodes=3, batch_size=8, learning_rate=0.0, momentum=0.5, rng=derive_rng(1)
        )
        np.testing.assert_array_equal(p1.flatten(), p0.flatten())

    def test_loss_decreases(self):
        x, y = self._data(n=32)
        p0 = ModelParams.init(8, derive_rng(402))
        before = loss(forward(p0, x), y)
        _, after = train_local(
            p0, x, y, episodes=5, batch_size=8, learning_rate=1e-3, momentum=0.5, rng=derive_rng(2)
        )
        assert after < before

    def test_deterministic_given_rng(self):
        x, y = self._data()
        p0 = ModelParams.init(6, derive_rng(403))
        a, la = train_local(
            p0, x, y, episodes=2, batch_size=4, learning_rate=1e-3, momentum=0.5, rng=derive_rng(5)
        )
        b, lb = train_local(
            p0, x, y, episodes=2, batch_size=4, learning_rate=1e-3, momentum=0.5, rng=derive_rng(5)
        )
        np.testing.assert_array_equal(a.flatten(), b.flatten())
        assert la == lb

    def test_oversized_batch_is_single_batch(self):
        x, y = self._data(n=5)
        p0 = ModelParams.init(4, derive_rng(404))
        # batch_size > n: one full-batch step per episode, permutation irrelevant
        a, _ = train_local(
            p0, x, y, episodes=1, batch_size=64, learning_rate=1e-3, momentum=0.0, rng=derive_rng(6)
        )
        _, cache = forward_cached(p0, x)
        grad = backward(cache, y)
        expected = p0.flatten() - 1e-3 * grad
        np.testing.assert_allclose(a.flatten(), expected, rtol=1e-12, atol=1e-15)

    def _check_equals_kernel_loop(self, x, y):
        """train_local against forward_cached, backward and sgd_step with a
        float64 OptimizerState, bit for bit; 21 samples in batches of 8, so
        the last batch of each episode is partial."""
        p0 = ModelParams.init(5, derive_rng(406))
        kw = dict(episodes=3, batch_size=8, learning_rate=0.05, momentum=0.7)
        trained, final = train_local(p0, x, y, rng=derive_rng(7), **kw)

        rng = derive_rng(7)
        params = p0
        opt = OptimizerState.fresh(flat_length(5), kw["learning_rate"], kw["momentum"])
        for _ in range(kw["episodes"]):
            order = rng.permutation(21)
            for start in range(0, 21, kw["batch_size"]):
                idx = order[start : start + kw["batch_size"]]
                _, cache = forward_cached(params, x[idx])
                grad = backward(cache, y[idx])
                assert grad.dtype == x.dtype
                params, opt = sgd_step(params, opt, grad)
        assert trained.flatten().dtype == opt.velocity.dtype == np.float64
        np.testing.assert_array_equal(trained.flatten(), params.flatten())
        assert final == loss(forward(params, x), y)
        np.testing.assert_array_equal(p0.flatten(), ModelParams.init(5, derive_rng(406)).flatten())

    def test_equals_forward_backward_sgd_loop(self):
        self._check_equals_kernel_loop(*self._data(n=21, seed=3))

    def test_float32_equals_forward_backward_sgd_loop(self):
        # float32 data: each batch runs in float32 on float64 master weights
        x, y = self._data(n=21, seed=3)
        self._check_equals_kernel_loop(x.astype(np.float32), y.astype(np.float32))

    def test_rejects_non_finite_feature(self):
        x, y = self._data()
        x[5, 2, 4] = np.nan
        p0 = ModelParams.init(4, derive_rng(407))
        with pytest.raises(ValueError, match="non-finite"):
            train_local(p0, x, y, episodes=1, batch_size=4, learning_rate=0.1, momentum=0.5, rng=derive_rng(1))

    def test_input_validation(self):
        x, y = self._data()
        p0 = ModelParams.init(4, derive_rng(405))
        with pytest.raises(ValueError):
            train_local(p0, x[0], y, episodes=1, batch_size=4, learning_rate=0.1, momentum=0.5, rng=derive_rng(1))
        with pytest.raises(ValueError):
            train_local(p0, x, y[:3], episodes=1, batch_size=4, learning_rate=0.1, momentum=0.5, rng=derive_rng(1))
        with pytest.raises(ValueError):
            train_local(p0, x, y, episodes=1, batch_size=0, learning_rate=0.1, momentum=0.5, rng=derive_rng(1))


class TestPrecision:
    """The compute dtype follows the input windows: float32 stays float32,
    anything else is float64; parameters and velocity stay float64."""

    def test_float32_gradient_matches_float64(self):
        p = ModelParams.init(16, derive_rng(600))
        x, y = _sample(12, batch=32)
        grad64 = backward(forward_cached(p, x)[1], y)
        _, cache = forward_cached(p, x.astype(np.float32))
        grad32 = backward(cache, y.astype(np.float32))
        assert (cache.pred.dtype, grad32.dtype) == (np.float32, np.float32)
        # float32's unit roundoff is 2**-24 (6e-8); 1e-5 of the largest entry
        # leaves room for the roundings of ten recurrent steps over 32 windows
        np.testing.assert_allclose(grad32, grad64, rtol=0, atol=1e-5 * np.abs(grad64).max())

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_other_inputs_compute_in_float64(self, dtype):
        p = ModelParams.init(4, derive_rng(601))
        x = np.arange(2 * 10 * INPUT_DIM).reshape(2, 10, INPUT_DIM) % 3
        pred, cache = forward_cached(p, x.astype(dtype))
        assert (pred.dtype, cache.xt.dtype, cache.params.w_x.dtype) == (np.float64,) * 3
        assert backward(cache, np.zeros((2, 5, 3), dtype)).dtype == np.float64
        np.testing.assert_array_equal(forward(p, x.astype(dtype)), forward(p, x.astype(float)))

    def test_gradient_buffer_must_match_the_cache(self):
        p = ModelParams.init(4, derive_rng(602))
        x, y = _sample(13, batch=2)
        _, cache = forward_cached(p, x.astype(np.float32))
        with pytest.raises(ValueError, match="float64"):
            backward(cache, y, out=np.empty(flat_length(4)))

    def test_scratch_pool_follows_dtype(self):
        pool = {}
        assert _scratch(pool, "a", (6,), np.float64).dtype == np.float64
        block = _scratch(pool, "a", (2, 2), np.float32)
        assert block.dtype == np.float32 and pool["a"].dtype == np.float32


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.hidden_size, cfg.learning_rate, cfg.momentum) == (64, 1e-5, 0.5)
        assert (cfg.batch_size, cfg.local_episodes, cfg.global_rounds) == (128, 10, 300)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("hidden_size", 0),
            ("learning_rate", -1.0),
            ("momentum", 1.0),
            ("momentum", -0.1),
            ("batch_size", 0),
            ("local_episodes", -1),
            ("global_rounds", 0),
            ("precision", "float16"),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        p = ModelParams.init(12, derive_rng(500))
        path = tmp_path / "weights.params"
        save_params(p, path)
        q = load_params(path)
        np.testing.assert_array_equal(p.flatten(), q.flatten())
        assert q.hidden_size == 12

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.params"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ValueError):
            load_params(path)

    def test_truncated(self, tmp_path):
        p = ModelParams.init(4, derive_rng(501))
        path = tmp_path / "short.params"
        save_params(p, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_params(path)

    @pytest.mark.parametrize("delta", [3, -3], ids=["appended", "cut short"])
    def test_wrong_length_named(self, tmp_path, delta):
        """A blob whose length is not the header plus flat_length(H) float64
        values, whole or not, is rejected naming the file and both lengths."""
        path = tmp_path / "odd.params"
        save_params(ModelParams.init(4, derive_rng(502)), path)
        raw = path.read_bytes()
        path.write_bytes(raw + bytes(delta) if delta > 0 else raw[:delta])
        size = 16 + 8 * flat_length(4)
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(path))}: expected {size} bytes for hidden_size 4, found {size + delta}$"
        ):
            load_params(path)

    def test_wrong_dims_rejected(self, tmp_path):
        import struct as st

        path = tmp_path / "dims.params"
        path.write_bytes(b"FLTP" + st.pack("<III", 4, 8, 15) + bytes(8))
        with pytest.raises(ValueError):
            load_params(path)

    def test_zero_hidden_size_rejected(self, tmp_path):
        """A blob of hidden size 0 holds a valid zero-length flat vector but
        no model; ModelParams.init and TrainConfig refuse that size too."""
        import struct as st

        path = tmp_path / "empty.params"
        path.write_bytes(b"FLTP" + st.pack("<III", 0, INPUT_DIM, OUTPUT_DIM) + bytes(8 * flat_length(0)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: hidden_size must be >= 1, got 0$"):
            load_params(path)
