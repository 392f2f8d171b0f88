"""Output checks that do not depend on a stored copy of earlier output.

Everything here recomputes a program output from its inputs with arithmetic
written for the benchmark: a plain-numpy LSTM forward, its own trajectory
error and attack-judgment accuracy, cleanliness weights from label
histograms, closed-form dataset sizes, and the summary statistics rebuilt
from the per-round CSV files. Each check returns a list of problems; an empty
list means the output passed.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Window geometry and split rule, restated from the program's documentation:
# 10 input messages plus 5 label steps, the leading 80% of every stream's
# windows for training.
INPUT_STEPS = 10
LABEL_STEPS = 5
SPAN = INPUT_STEPS + LABEL_STEPS

# Attack-class codes (label column 2) and the influence-table field that
# weighs each one; code 0 is genuine traffic and has no entry.
INFLUENCE_FIELDS = {
    1: "constant",
    2: "constant_offset",
    3: "random",
    4: "random_offset",
    5: "eventual_stop",
}
CLEANLINESS_FLOOR = 1e-6
REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


# --- reference model -------------------------------------------------------


def _logistic(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def reference_forward(w_x, w_h, b, w_head, b_head, windows: np.ndarray) -> np.ndarray:
    """LSTM forward over a (B, 10, 9) batch, gate order input, forget, cell,
    output; returns (B, 5, 3). Each gate has its own weight slice and the
    sigmoid is taken through tanh, unlike the program's stacked masked form."""
    hidden = w_h.shape[1]
    gates = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]
    batch = windows.shape[0]
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    for t in range(windows.shape[1]):
        x_t = windows[:, t, :]
        pre = [x_t @ w_x[g].T + h @ w_h[g].T + b[g] for g in gates]
        i, f, o = _logistic(pre[0]), _logistic(pre[1]), _logistic(pre[3])
        c = f * c + i * np.tanh(pre[2])
        h = o * np.tanh(c)
    out = h @ w_head.T + b_head
    return out.reshape(batch, LABEL_STEPS, 3)


def reference_forward_params(params, windows: np.ndarray) -> np.ndarray:
    return reference_forward(params.w_x, params.w_h, params.b, params.w_head, params.b_head, windows)


def reference_scores(pred: np.ndarray, labels: np.ndarray, region_side: float, threshold: float):
    """(mean displacement in metres, judgment accuracy bounds, loss).

    The accuracy comes back as a (low, high) pair: judgments whose residual
    lies within 1e-9 of the threshold count as either, so a last-bit
    difference between two correct forwards cannot fail the check.
    """
    dx = (pred[:, :, 0] - labels[:, :, 0]) * region_side
    dy = (pred[:, :, 1] - labels[:, :, 1]) * region_side
    ade = float(np.sqrt(dx * dx + dy * dy).sum() / dx.size)
    resid = np.abs(pred[:, :, 2] - labels[:, :, 2])
    n = resid.size
    acc = (int((resid < threshold - 1e-9).sum()) / n, int((resid < threshold + 1e-9).sum()) / n)
    loss = float(((pred - labels) ** 2).sum() / pred.shape[0])
    return ade, acc, loss


def check_evaluation(params, features, labels, region_side, threshold, err, acc, loss=None, what="evaluation"):
    """Compare a program-reported (error, accuracy[, loss]) with the reference."""
    pred = reference_forward_params(params, features)
    ref_err, (acc_lo, acc_hi), ref_loss = reference_scores(pred, labels, region_side, threshold)
    problems = []
    if not close(err, ref_err):
        problems.append(f"{what}: error {err!r} m, reference {ref_err!r} m")
    if not acc_lo - 1e-12 <= acc <= acc_hi + 1e-12:
        problems.append(f"{what}: accuracy {acc!r}, reference in [{acc_lo!r}, {acc_hi!r}]")
    if loss is not None and not close(loss, ref_loss):
        problems.append(f"{what}: loss {loss!r}, reference {ref_loss!r}")
    return problems


# --- datasets ----------------------------------------------------------------


def expected_sizes(n_vehicles: int, n_steps: int, train_fraction: float) -> tuple[int, int]:
    """(training windows per vehicle, pool windows) for gapless streams: each
    of a receiver's n-1 streams yields n_steps-14 windows, of which the
    leading floor(train_fraction * (n_steps-14)) train it."""
    per_stream = n_steps - (SPAN - 1)
    train = math.floor(train_fraction * per_stream)
    return (n_vehicles - 1) * train, n_vehicles * (n_vehicles - 1) * (per_stream - train)


def expected_attackers(n_vehicles: int, penetration: float) -> int:
    return min(max(math.ceil(penetration * (n_vehicles - 1) - 1e-9), 0), n_vehicles - 1)


def check_cell_data(scenario, vehicles, eval_set, penetration, n_steps, train_fraction):
    """Dataset sizes, attacker assignment, label classes and feature ranges."""
    problems = []
    n = len(vehicles)
    types = {v: int(t) for v, t in scenario.attacker_types.items()}
    attackers = sorted(v for v, t in types.items() if t != 0)
    if types.get(0) != 0:
        problems.append("vehicle 0 is not genuine")
    if len(attackers) != expected_attackers(n, penetration):
        problems.append(f"{len(attackers)} attackers, expected {expected_attackers(n, penetration)}")
    if [types[v] for v in attackers] != [k % 5 + 1 for k in range(len(attackers))]:
        problems.append(f"attack classes {[types[v] for v in attackers]} are not assigned round-robin")

    per_vehicle, pool = expected_sizes(n, n_steps, train_fraction)
    per_stream = per_vehicle // (n - 1)
    for vd in vehicles:
        if vd.features.shape != (per_vehicle, INPUT_STEPS, 9) or vd.labels.shape != (per_vehicle, LABEL_STEPS, 3):
            problems.append(f"vehicle {vd.vehicle_id}: {vd.features.shape[0]} windows, expected {per_vehicle}")
            continue
        senders = [s for s in range(n) if s != vd.vehicle_id]
        codes = vd.labels[:, :, 2]
        for k, sender in enumerate(senders):
            block = codes[k * per_stream : (k + 1) * per_stream]
            if not np.all(block == types[sender]):
                problems.append(f"vehicle {vd.vehicle_id}: windows from sender {sender} not labelled class {types[sender]}")
    if eval_set.features.shape[0] != pool:
        problems.append(f"pool holds {eval_set.features.shape[0]} windows, expected {pool}")

    for name, feats, labels in [(f"vehicle {vd.vehicle_id}", vd.features, vd.labels) for vd in vehicles] + [
        ("pool", eval_set.features, eval_set.labels)
    ]:
        if not np.isfinite(feats).all():
            problems.append(f"{name}: non-finite features")
            continue
        unit = feats[:, :, [0, 1, 8]]
        signed = feats[:, :, 2:8]
        if unit.min() < 0.0 or unit.max() > 1.0:
            problems.append(f"{name}: position/RSSI features outside [0, 1]")
        if signed.min() < -1.0 or signed.max() > 1.0:
            problems.append(f"{name}: speed/difference features outside [-1, 1]")
        if labels[:, :, :2].min() < 0.0 or labels[:, :, :2].max() > 1.0:
            problems.append(f"{name}: label positions outside [0, 1]")
    return problems


# --- aggregation weights -----------------------------------------------------


def reference_weights(vehicles, influence) -> np.ndarray:
    """Cleanliness weights from each vehicle's label histogram."""
    scores = []
    for vd in sorted(vehicles, key=lambda v: v.vehicle_id):
        codes, counts = np.unique(vd.labels[:, 0, 2].astype(int), return_counts=True)
        attacked = sum(
            int(count) * getattr(influence, INFLUENCE_FIELDS[int(code)])
            for code, count in zip(codes, counts)
            if int(code) != 0
        )
        scores.append(max(1.0 - attacked / vd.labels.shape[0], CLEANLINESS_FLOOR))
    total = math.fsum(scores)
    return np.array([s / total for s in scores])


def check_weights(weights, vehicles, influence, what="weights"):
    ref = reference_weights(vehicles, influence)
    got = np.asarray(weights, dtype=float)
    if got.shape != ref.shape or not np.allclose(got, ref, rtol=1e-12, atol=1e-15):
        return [f"{what}: {got.tolist()} != reference {ref.tolist()}"]
    return []


# --- sweep outputs -----------------------------------------------------------


def _mean(values):
    return math.fsum(values) / len(values)


def _sample_std(values):
    if len(values) < 2:
        return float("nan")
    m = _mean(values)
    return math.sqrt(math.fsum((v - m) ** 2 for v in values) / (len(values) - 1))


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or close(a, b, 1e-12)


def read_rounds(out_dir: Path) -> dict[str, list[dict]]:
    runs = {}
    for path in sorted(out_dir.glob("rounds_*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            runs[path.stem[len("rounds_") :]] = list(csv.DictReader(fh))
    return runs


def check_sweep(out_dir: Path, methods, penetration, n_vehicles, repeats, rounds):
    """Per-round files, method properties and the summary, from the files."""
    problems = []
    runs = read_rounds(out_dir)
    expected = {f"{m}_p{penetration:g}_v{n_vehicles}_rep{r}" for m in methods for r in range(repeats)}
    if set(runs) != expected:
        return [f"rounds files {sorted(runs)} != expected {sorted(expected)}"]
    modes = {"fl-tp": {"uniform", "mre"}, "fed-avg": {"uniform"}, "centralized": {"centralized"}}

    finals = {}
    for run_id, rows in runs.items():
        method = run_id.split("_p")[0]
        if [int(r["round"]) for r in rows] != list(range(1, rounds + 1)):
            problems.append(f"{run_id}: rounds {[r['round'] for r in rows]}")
            continue
        for r in rows:
            err, acc, loss = float(r["pred_error_m"]), float(r["atk_accuracy"]), float(r["loss"])
            if not (math.isfinite(err) and math.isfinite(loss) and err > 0 and 0.0 <= acc <= 1.0):
                problems.append(f"{run_id} round {r['round']}: error {err}, accuracy {acc}, loss {loss}")
            if r["mode"] not in modes[method] or r["method"] != method or r["run_id"] != run_id:
                problems.append(f"{run_id} round {r['round']}: method/mode {r['method']}/{r['mode']}")
        if not float(rows[-1]["loss"]) < float(rows[0]["loss"]):
            problems.append(f"{run_id}: final loss {rows[-1]['loss']} not below round-1 loss {rows[0]['loss']}")
        finals[(method, int(rows[-1]["repeat"]))] = rows[-1]

    # the accuracy gate starts uniform, so round 1 of fl-tp is plain averaging
    keys = ("mode", "pred_error_m", "atk_accuracy", "loss")
    if "fl-tp" in methods and "fed-avg" in methods:
        for rep in range(repeats):
            a = runs[f"fl-tp_p{penetration:g}_v{n_vehicles}_rep{rep}"][0]
            b = runs[f"fed-avg_p{penetration:g}_v{n_vehicles}_rep{rep}"][0]
            if [a[k] for k in keys] != [b[k] for k in keys] or a["mode"] != "uniform":
                problems.append(f"repeat {rep}: fl-tp round 1 {[a[k] for k in keys]} != fed-avg {[b[k] for k in keys]}")
    if problems:
        return problems
    return check_summary(out_dir / "summary.csv", finals, methods, penetration, n_vehicles, rounds)


def check_summary(path: Path, finals, methods, penetration, n_vehicles, rounds):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [r["method"] for r in rows] != sorted(methods):
        return [f"summary methods {[r['method'] for r in rows]} != {sorted(methods)}"]
    stats = {}
    for m in methods:
        reps = sorted(rep for (method, rep) in finals if method == m)
        accs = [float(finals[(m, rep)]["atk_accuracy"]) for rep in reps]
        errs = [float(finals[(m, rep)]["pred_error_m"]) for rep in reps]
        stats[m] = (len(reps), _mean(accs), _sample_std(accs), _mean(errs), _sample_std(errs))
    problems = []
    for r in rows:
        n_rep, acc_mean, acc_std, err_mean, err_std = stats[r["method"]]
        base = stats.get("centralized")
        acc_gain = (acc_mean - base[1]) / base[1] * 100.0 if base and base[1] > 0 else float("nan")
        err_gain = (base[3] - err_mean) / base[3] * 100.0 if base and base[3] > 0 else float("nan")
        want = [acc_mean, acc_std, err_mean, err_std, acc_gain, err_gain]
        got = [float(r[k]) for k in ("acc_mean", "acc_std", "err_mean", "err_std", "acc_improvement_pct", "err_improvement_pct")]
        if (
            int(r["repeats"]) != n_rep
            or int(r["final_round"]) != rounds
            or float(r["penetration"]) != penetration
            or int(r["n_vehicles"]) != n_vehicles
            or not all(_same(g, w) for g, w in zip(got, want))
        ):
            problems.append(f"summary row {r['method']}: {got} != recomputed {want}")
    return problems
