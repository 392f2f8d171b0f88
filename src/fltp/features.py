"""Sliding-window feature/label construction from received message streams.

A feature window is a (10, 9) float array; each row describes one received
message relative to the receiving (ego) vehicle:

    [loc_x, loc_y, spd_x, spd_y, dis_chg_x, dis_chg_y,
     spd_chg_x, spd_chg_y, rssi]

loc      claimed position / R, clamped to [0, 1]
spd      claimed speed / v_max, clamped to [-1, 1]
dis_chg  (claimed position - ego position) / R, clamped to [-1, 1]
spd_chg  (claimed speed - ego speed) / v_max, clamped to [-1, 1]
rssi     affine [rssi_min, rssi_max] dBm -> [0, 1], clamped

The label block is a (5, 3) float array: the sender's ground-truth positions
for the next five steps normalized by R, with the attacker-class code
replicated in the third column.

The ego and sender ground truth come as column tracks, steps (L,) int64 and
kinematics (L, 4) = [pos_x, pos_y, spd_x, spd_y], the form
Scenario.vehicle_track and ingest_veremi return; windows_from_stream is the
one windowing entry point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import AttackerType, Messages

WINDOW_INPUT_STEPS = 10
WINDOW_LABEL_STEPS = 5
WINDOW_SPAN = WINDOW_INPUT_STEPS + WINDOW_LABEL_STEPS
FEATURE_DIM = 9
LABEL_DIM = 3


_MIXED = "window mixes messages from different senders"
_MISALIGNED = "ego states misaligned with message steps"
_NOT_CONSECUTIVE = "truth states must cover consecutive steps"


@dataclass
class NormalizationSpec:
    region_side: float
    v_max: float
    rssi_min: float = -100.0
    rssi_max: float = -40.0

    def validate(self) -> None:
        if self.region_side <= 0:
            raise ValueError(f"region_side must be > 0, got {self.region_side}")
        if self.v_max <= 0:
            raise ValueError(f"v_max must be > 0, got {self.v_max}")
        if self.rssi_min >= self.rssi_max:
            raise ValueError(f"rssi_min must be < rssi_max, got [{self.rssi_min}, {self.rssi_max}]")


def _clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """min(max(x, lo), hi) per element, ties included: np.maximum(-0.0, 0.0)
    is 0.0, where max(-0.0, 0.0) keeps -0.0."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def _feature_rows(claims: np.ndarray, ego: np.ndarray, spec: NormalizationSpec) -> np.ndarray:
    """Normalized (L, 9) rows from claims (L, 5) = [pos_x, pos_y, spd_x,
    spd_y, rssi] and the ego kinematics (L, 4) at the same steps."""
    r = spec.region_side
    v = spec.v_max
    out = np.empty((claims.shape[0], FEATURE_DIM))
    out[:, 0:2] = _clamp(claims[:, 0:2] / r, 0.0, 1.0)
    out[:, 2:4] = _clamp(claims[:, 2:4] / v, -1.0, 1.0)
    out[:, 4:6] = _clamp((claims[:, 0:2] - ego[:, 0:2]) / r, -1.0, 1.0)
    out[:, 6:8] = _clamp((claims[:, 2:4] - ego[:, 2:4]) / v, -1.0, 1.0)
    out[:, 8] = _clamp((claims[:, 4] - spec.rssi_min) / (spec.rssi_max - spec.rssi_min), 0.0, 1.0)
    return out


def _label_rows(truth: np.ndarray, attacker: AttackerType, spec: NormalizationSpec) -> np.ndarray:
    """(L, 3) label rows from the truth kinematics (L, 4): positions / R and
    the attacker-class code."""
    out = np.empty((truth.shape[0], LABEL_DIM))
    out[:, 0:2] = truth[:, 0:2] / spec.region_side
    out[:, 2] = float(attacker)
    return out


def _origin(steps: np.ndarray) -> int:
    """The step a track's row 0 stands for: min(step - index), which is the
    first step of a strictly rising track; a first row off its step does not
    shift the rows after it. 0 for an empty track."""
    return int((steps - np.arange(len(steps))).min()) if len(steps) else 0


def windows_from_stream(
    msgs: Messages,
    ego_track: tuple[np.ndarray, np.ndarray],
    sender_track: tuple[np.ndarray, np.ndarray],
    attacker: AttackerType,
    spec: NormalizationSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Slide a stride-1 window over one sender's stream.

    ego_track and sender_track are full per-step tracks, steps (L,) and
    kinematics (L, 4) = pos_x, pos_y, spd_x, spd_y, each indexed from its own
    first step (step == first step + index), as Scenario.vehicle_track and
    ingest_veremi return them. Returns features (K, 10, 9) and labels
    (K, 5, 3). A gapless stream of length L yields K = max(0, L - 14)
    windows; windows spanning a step gap or running past either track are
    skipped, and an empty track yields none. Each message is normalized once;
    the windows are gathered from those rows.

    Raises ValueError for the first offending window inside both tracks: one
    that mixes senders, or a gapless one whose ego steps (!= message step,
    or none: the window starts before the ego track) or future truth steps
    (not consecutive) are misaligned.
    """
    spec.validate()
    ego_t, ego_kin = ego_track
    truth_t, truth_kin = sender_track
    n_windows = max(0, len(msgs) - (WINDOW_SPAN - 1)) if len(ego_t) and len(truth_t) else 0
    senders, steps, claims = msgs.sender_id, msgs.step, msgs.claims
    idx = np.arange(n_windows)[:, None] + np.arange(WINDOW_INPUT_STEPS)
    win_steps = steps[idx]
    ego_origin, truth_origin = _origin(ego_t), _origin(truth_t)  # a step's row is step - origin
    in_tracks = (
        (win_steps[:, 0] >= truth_origin)
        & (win_steps[:, -1] + (WINDOW_LABEL_STEPS - truth_origin) < len(truth_t))
        & (win_steps[:, 0] + (WINDOW_INPUT_STEPS - ego_origin) <= len(ego_t))
    )
    mixed = (senders[idx] != senders[idx[:, :1]]).any(axis=1)
    kept = np.flatnonzero(in_tracks & (np.diff(win_steps, axis=1) == 1).all(axis=1))

    # every step of a kept window has a row in the truth track, and in the ego
    # track from its first row on; a row before that reads ego_t[0] > step
    kept_steps = win_steps[kept]
    label_idx = kept_steps[:, -1:] + (np.arange(1, 1 + WINDOW_LABEL_STEPS) - truth_origin)
    misaligned = (ego_t[np.maximum(kept_steps - ego_origin, 0)] != kept_steps).any(axis=1)
    label_gap = (np.diff(truth_t[label_idx], axis=1) != 1).any(axis=1)
    bad = in_tracks & mixed
    bad[kept] |= misaligned | label_gap
    if bad.any():  # the first failing window decides, as in a window-by-window pass
        k = int(np.argmax(bad))
        if mixed[k]:
            raise ValueError(_MIXED)
        raise ValueError(_MISALIGNED if misaligned[np.searchsorted(kept, k)] else _NOT_CONSECUTIVE)
    if not kept.size:
        return np.empty((0, WINDOW_INPUT_STEPS, FEATURE_DIM)), np.empty((0, WINDOW_LABEL_STEPS, LABEL_DIM))

    rows = _feature_rows(claims, ego_kin[np.clip(steps - ego_origin, 0, len(ego_t) - 1)], spec)
    return rows[idx[kept]], _label_rows(truth_kin, attacker, spec)[label_idx]


def denormalize_pos(norm_xy: np.ndarray, spec: NormalizationSpec) -> np.ndarray:
    """Map normalized positions (last axis = (x, y)) back to metres."""
    return np.asarray(norm_xy, dtype=float) * spec.region_side
