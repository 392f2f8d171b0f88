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
Scenario.vehicle_track and ingest_veremi return. link_windows is the one
windowing kernel: it windows many same-length links in one pass over the link
axis, and windows_from_stream is its one-link entry point.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .trace import AttackerType, Messages

WINDOW_INPUT_STEPS = 10
WINDOW_LABEL_STEPS = 5
WINDOW_SPAN = WINDOW_INPUT_STEPS + WINDOW_LABEL_STEPS
FEATURE_DIM = 9
LABEL_DIM = 3


_MIXED = "window mixes messages from different senders"
_MISALIGNED = "ego states misaligned with message steps"
_NOT_CONSECUTIVE = "truth states must cover consecutive steps"


@dataclass(frozen=True)
class NormalizationSpec:
    """The feature and label scales. ExperimentConfig.norm builds it from the
    scenario's region_side and v_max and the rssi_min and rssi_max keys."""

    region_side: float
    v_max: float
    rssi_min: float
    rssi_max: float

    def __post_init__(self) -> None:
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
    """Normalized (..., 9) rows from claims (..., 5) = [pos_x, pos_y, spd_x,
    spd_y, rssi] and the ego kinematics (..., 4) at the same steps."""
    r = spec.region_side
    v = spec.v_max
    out = np.empty(claims.shape[:-1] + (FEATURE_DIM,))
    out[..., 0:2] = _clamp(claims[..., 0:2] / r, 0.0, 1.0)
    out[..., 2:4] = _clamp(claims[..., 2:4] / v, -1.0, 1.0)
    out[..., 4:6] = _clamp((claims[..., 0:2] - ego[..., 0:2]) / r, -1.0, 1.0)
    out[..., 6:8] = _clamp((claims[..., 2:4] - ego[..., 2:4]) / v, -1.0, 1.0)
    out[..., 8] = _clamp((claims[..., 4] - spec.rssi_min) / (spec.rssi_max - spec.rssi_min), 0.0, 1.0)
    return out


def _label_rows(truth: np.ndarray, attackers: np.ndarray, spec: NormalizationSpec) -> np.ndarray:
    """(V, T, 3) label rows from V truth tracks' kinematics (V, T, 4):
    positions / R and each track's attacker-class code."""
    out = np.empty(truth.shape[:-1] + (LABEL_DIM,))
    out[..., 0:2] = truth[..., 0:2] / spec.region_side
    out[..., 2] = np.asarray(attackers, dtype=float)[:, None]
    return out


def _origins(steps: np.ndarray) -> np.ndarray:
    """(V,) the step each of V tracks' row 0 stands for: min(step - index),
    which is the first step of a strictly rising track; a first row off its
    step does not shift the rows after it."""
    return (steps - np.arange(steps.shape[1])).min(axis=1)


def _any_in_run(flags: np.ndarray, width: int, count: int) -> np.ndarray:
    """(S, count): whether any of flags[:, k : k + width] is set, for k < count."""
    seen = np.zeros((flags.shape[0], flags.shape[1] + 1), dtype=np.int64)
    np.cumsum(flags, axis=1, out=seen[:, 1:])
    return seen[:, width : width + count] > seen[:, :count]


class LinkWindows(NamedTuple):
    """The kept windows of S links, link-major and in stream order within a
    link, as (K,) int64 positions into the normalized rows (S, L, 9), one per
    message, and label rows (V, T, 3), one per truth-track step: window i is
    features rows[link[i], start[i] : start[i] + 10] with labels
    label_rows[track[i], label_at[i] : label_at[i] + 5]."""

    rows: np.ndarray
    label_rows: np.ndarray
    link: np.ndarray
    start: np.ndarray
    track: np.ndarray
    label_at: np.ndarray

    def take(self, sel=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Features (k, 10, 9) and labels (k, 5, 3) of the windows sel (an
        index, mask or slice over the K windows) picks, in the rows' dtype."""
        x = sliding_window_view(self.rows, WINDOW_INPUT_STEPS, axis=1).swapaxes(2, 3)
        y = sliding_window_view(self.label_rows, WINDOW_LABEL_STEPS, axis=1).swapaxes(2, 3)
        return x[self.link[sel], self.start[sel]], y[self.track[sel], self.label_at[sel]]


def link_windows(
    senders: np.ndarray,
    steps: np.ndarray,
    claims: np.ndarray,
    ego_tracks: tuple[np.ndarray, np.ndarray],
    truth_tracks: tuple[np.ndarray, np.ndarray],
    attackers: np.ndarray,
    links: np.ndarray,
    spec: NormalizationSpec,
) -> LinkWindows:
    """Slide a stride-1 window over each of S same-length message streams.

    Stream s is the columns senders[s], steps[s] (L,) int64 and claims[s]
    (L, 5) = pos_x, pos_y, spd_x, spd_y, rssi. Its sender's truth track is
    truth_tracks row links[s, 0] and its receiver's ego track is ego_tracks
    row links[s, 1]; each stack is steps (V, T) int64 and kinematics
    (V, T, 4) = pos_x, pos_y, spd_x, spd_y, every track indexed from its own
    first step (step == first step + index). attackers (V,) is each truth
    track's class code. A gapless stream yields max(0, L - 14) windows;
    windows spanning a step gap or running past either track are skipped,
    and an empty ego track or a truth track of fewer than 5 rows yields
    none. Every message is normalized once and every truth step labelled
    once; take() gathers the windows.

    Raises ValueError for the first offending window inside both tracks,
    streams in order and windows in order within a stream: one that mixes
    senders, or a gapless one whose ego steps (!= message step, or none: the
    window starts before the ego track) or future truth steps (not
    consecutive) are misaligned.
    """
    ego_t, ego_kin = ego_tracks
    truth_t, truth_kin = truth_tracks
    n_links, length = steps.shape
    # a window's labels are WINDOW_LABEL_STEPS rows of its truth track, so a
    # shorter truth track keeps none
    has_tracks = ego_t.shape[1] > 0 and truth_t.shape[1] >= WINDOW_LABEL_STEPS
    n_windows = max(0, length - (WINDOW_SPAN - 1)) if has_tracks else 0
    if not n_windows:  # rows of one window's length, so that take() gathers (0, 10, 9) and (0, 5, 3)
        none = np.empty(0, dtype=np.int64)
        rows = np.empty((n_links, WINDOW_INPUT_STEPS, FEATURE_DIM))
        return LinkWindows(rows, np.empty((0, WINDOW_LABEL_STEPS, LABEL_DIM)), none, none, none, none)
    track, ego = links[:, 0], links[:, 1]
    truth_origin = _origins(truth_t)[track][:, None]  # a step's row is step - origin
    ego_origin = _origins(ego_t)[ego][:, None]
    first = steps[:, :n_windows]
    last = steps[:, WINDOW_INPUT_STEPS - 1 : WINDOW_INPUT_STEPS - 1 + n_windows]
    in_tracks = (
        (first >= truth_origin)
        & (last + (WINDOW_LABEL_STEPS - truth_origin) < truth_t.shape[1])
        & (first + (WINDOW_INPUT_STEPS - ego_origin) <= ego_t.shape[1])
    )
    gap = _any_in_run(np.diff(steps, axis=1) != 1, WINDOW_INPUT_STEPS - 1, n_windows)
    mixed = _any_in_run(senders[:, 1:] != senders[:, :-1], WINDOW_INPUT_STEPS - 1, n_windows)
    # every step of a kept window has a row in the truth track, and in the ego
    # track from its first row on; a row before that reads ego_t[0] > step
    ego_row = np.clip(steps - ego_origin, 0, ego_t.shape[1] - 1)
    misaligned = _any_in_run(ego_t[ego[:, None], ego_row] != steps, WINDOW_INPUT_STEPS, n_windows)
    link, start = np.nonzero(in_tracks & ~gap)
    label_at = last[link, start] + 1 - truth_origin[link, 0]
    label_steps = truth_t[track[link, None], label_at[:, None] + np.arange(WINDOW_LABEL_STEPS)]
    bad = in_tracks & (mixed | (~gap & misaligned))
    bad[link, start] |= (np.diff(label_steps, axis=1) != 1).any(axis=1)
    if bad.any():  # the first failing window decides, as in a window-by-window pass
        s, k = np.unravel_index(np.argmax(bad), bad.shape)
        if mixed[s, k]:
            raise ValueError(_MIXED)
        raise ValueError(_MISALIGNED if misaligned[s, k] else _NOT_CONSECUTIVE)

    rows = _feature_rows(claims, ego_kin[ego[:, None], ego_row], spec)
    return LinkWindows(rows, _label_rows(truth_kin, attackers, spec), link, start, track[link], label_at)


def windows_from_stream(
    msgs: Messages,
    ego_track: tuple[np.ndarray, np.ndarray],
    sender_track: tuple[np.ndarray, np.ndarray],
    attacker: AttackerType,
    spec: NormalizationSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Slide a stride-1 window over one sender's stream: link_windows for
    one link, gathered.

    ego_track and sender_track are full per-step tracks, steps (L,) and
    kinematics (L, 4) = pos_x, pos_y, spd_x, spd_y, each indexed from its own
    first step, as Scenario.vehicle_track and ingest_veremi return them.
    Returns features (K, 10, 9) and labels (K, 5, 3), and raises the
    ValueErrors of link_windows.
    """
    (ego_t, ego_kin), (truth_t, truth_kin) = ego_track, sender_track
    return link_windows(
        msgs.sender_id[None],
        msgs.step[None],
        msgs.claims[None],
        (ego_t[None], ego_kin[None]),
        (truth_t[None], truth_kin[None]),
        np.array([int(attacker)]),
        np.zeros((1, 2), dtype=np.int64),
        spec,
    ).take()


def denormalize_pos(norm_xy: np.ndarray, spec: NormalizationSpec) -> np.ndarray:
    """Map normalized positions (last axis = (x, y)) back to metres."""
    return np.asarray(norm_xy, dtype=float) * spec.region_side
