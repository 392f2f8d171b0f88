"""Feature/label normalization and sliding-window construction."""
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fltp.features import (
    FEATURE_DIM,
    LABEL_DIM,
    NormalizationSpec,
    WINDOW_INPUT_STEPS,
    WINDOW_LABEL_STEPS,
    WINDOW_SPAN,
    denormalize_pos,
    link_windows,
    windows_from_stream,
)
from fltp.trace import AttackerType, Messages

R = 10_000.0
V_MAX = 40.0
SPEC = NormalizationSpec(region_side=R, v_max=V_MAX, rssi_min=-100.0, rssi_max=-40.0)


def _track(n, x0=1000.0, y0=2000.0, sx=10.0, sy=-5.0):
    """A straight-line column track: steps 0..n-1 and kinematics (n, 4)."""
    t = np.arange(n, dtype=np.int64)
    kin = np.column_stack([x0 + sx * t, y0 + sy * t, np.full(n, sx), np.full(n, sy)]).reshape(-1, 4)
    return t, kin


def _still(n, x, y):
    """A track parked at (x, y) for n steps."""
    return np.arange(n, dtype=np.int64), np.tile([x, y, 0.0, 0.0], (n, 1))


def _cut(track, keep):
    """The rows of a column track at the given indices (slice or mask)."""
    steps, kin = track
    return steps[keep], kin[keep]


def _messages(sender_ids, steps, claims, attacker=AttackerType.GENUINE):
    """Messages of the given senders, steps and claims."""
    step = np.asarray(steps, dtype=np.int64)
    return Messages(
        sender_id=np.asarray(sender_ids, dtype=np.int64),
        step=step,
        claims=np.asarray(claims, dtype=float).reshape(-1, 5),
        truth_attacker=np.full(len(step), int(attacker), dtype=np.int64),
    )


def _stream(track, rssi=-70.0, claimed_pos=None, attacker=AttackerType.GENUINE):
    """Sender 1's message stream echoing a truth track, optionally claiming a
    fixed position."""
    steps, kin = track
    claims = np.column_stack([kin, np.full(len(steps), rssi)])
    if claimed_pos is not None:
        claims[:, 0:2] = claimed_pos
    return _messages(np.ones(len(steps)), steps, claims, attacker)


def _rows(msgs, keep):
    """The messages at the given row indices (or boolean mask)."""
    return Messages(**{f.name: getattr(msgs, f.name)[keep] for f in fields(Messages)})


def _first_window(sender, ego, **kw):
    """x[0] and y[0] of windows_from_stream over a 15-message stream echoing
    the 15-step sender track."""
    assert len(sender[0]) == WINDOW_SPAN
    x, y = windows_from_stream(_stream(sender, **kw), ego, sender, kw.get("attacker", AttackerType.GENUINE), SPEC)
    assert len(x) == 1
    return x[0], y[0]


class TestBuildFeatureWindow:
    """The (10, 9) feature block of a stream's first window."""

    def test_shape(self):
        ego = _track(15, x0=500.0, y0=500.0, sx=0.0, sy=0.0)
        fw, _ = _first_window(_track(15), ego)
        assert fw.shape == (WINDOW_INPUT_STEPS, FEATURE_DIM)

    def test_coincident_sender_and_ego(self):
        track = _track(15)
        ego = (track[0].copy(), track[1].copy())
        fw, _ = _first_window(track, ego)
        np.testing.assert_array_equal(fw[:, 4:8], 0.0)  # disChg and SpdChg vanish

    def test_region_corner_normalizes_to_one(self):
        fw, _ = _first_window(_still(15, R, R), _track(15))
        np.testing.assert_allclose(fw[:, 0:2], 1.0)

    def test_centre_normalizes_to_half(self):
        fw, _ = _first_window(_still(15, R / 2, R / 2), _track(15))
        np.testing.assert_allclose(fw[:, 0:2], 0.5)

    def test_rssi_affine_endpoints_and_clamp(self):
        track = _track(15)
        ego = _track(15)
        assert _first_window(track, ego, rssi=-100.0)[0][0, 8] == 0.0
        assert _first_window(track, ego, rssi=-40.0)[0][0, 8] == 1.0
        assert _first_window(track, ego, rssi=-70.0)[0][0, 8] == pytest.approx(0.5)
        assert _first_window(track, ego, rssi=-120.0)[0][0, 8] == 0.0
        assert _first_window(track, ego, rssi=-10.0)[0][0, 8] == 1.0

    def test_out_of_region_claim_clamped(self):
        fw, _ = _first_window(_track(15), _track(15), claimed_pos=(R + 500.0, -500.0))
        np.testing.assert_array_equal(fw[:, 0], 1.0)
        np.testing.assert_array_equal(fw[:, 1], 0.0)
        assert np.all(fw[:, 4] <= 1.0) and np.all(fw[:, 5] >= -1.0)

    def test_gap_raises_window_error(self):
        """A window over a step gap is skipped, not built."""
        sender = _track(16)
        msgs = _stream(sender)
        gapped = _rows(msgs, np.arange(16) != 5)  # 15 messages, step 5 missing
        x, y = windows_from_stream(gapped, _track(16), sender, AttackerType.GENUINE, SPEC)
        assert len(x) == len(y) == 0
        x, _ = windows_from_stream(_rows(msgs, slice(0, 15)), _track(16), sender, AttackerType.GENUINE, SPEC)
        assert len(x) == 1

    def test_mixed_senders_rejected(self):
        sender = _track(15)
        msgs = _stream(sender)
        msgs.sender_id[9] = 2
        with pytest.raises(ValueError, match="different senders"):
            windows_from_stream(msgs, _track(15), sender, AttackerType.GENUINE, SPEC)

    def test_wrong_length_rejected(self):
        """Fewer than 15 messages, or fewer than 10 ego states, give no window."""
        sender = _track(15)
        x, _ = windows_from_stream(_stream(_cut(sender, slice(0, 14))), _track(15), sender, AttackerType.GENUINE, SPEC)
        assert len(x) == 0
        x, _ = windows_from_stream(_stream(sender), _track(9), sender, AttackerType.GENUINE, SPEC)
        assert len(x) == 0
        x, _ = windows_from_stream(_stream(sender), _track(10), sender, AttackerType.GENUINE, SPEC)
        assert len(x) == 1

    def test_misaligned_ego_rejected(self):
        sender = _track(15)
        ego = _cut(_track(16), slice(1, None))  # ego step k + 1 at index k against message steps 0..14
        with pytest.raises(ValueError, match="misaligned"):
            windows_from_stream(_stream(sender), ego, sender, AttackerType.GENUINE, SPEC)


class TestBuildLabel:
    """The (5, 3) label block of a stream's first window."""

    def test_shape_and_replication(self):
        _, lb = _first_window(_track(15), _track(15), attacker=AttackerType.RANDOM)
        assert lb.shape == (WINDOW_LABEL_STEPS, LABEL_DIM)
        np.testing.assert_array_equal(lb[:, 2], float(AttackerType.RANDOM))

    def test_positions_normalized(self):
        _, lb = _first_window(_still(15, 2500.0, 7500.0), _track(15))
        np.testing.assert_allclose(lb[:, 0], 0.25)
        np.testing.assert_allclose(lb[:, 1], 0.75)

    def test_non_consecutive_truth_rejected(self):
        track = _track(16)
        truth = _cut(track, np.arange(16) != 12)  # label steps 10..14 read t = 10, 11, 13, 14, 15
        with pytest.raises(ValueError, match="consecutive"):
            windows_from_stream(_stream(_cut(track, slice(0, 15))), _track(15), truth, AttackerType.GENUINE, SPEC)


class TestWindowsFromStream:
    def _windows(self, length, **kw):
        sender = _track(length)
        ego = _track(length, x0=4000.0, y0=4000.0, sx=-3.0, sy=2.0)
        return windows_from_stream(_stream(sender, **kw), ego, sender, AttackerType.GENUINE, SPEC)

    @pytest.mark.parametrize("length,expected", [(0, 0), (5, 0), (14, 0), (15, 1), (30, 16), (100, 86)])
    def test_pair_count(self, length, expected):
        x, y = self._windows(length)
        assert len(x) == expected
        assert x.shape == (expected, WINDOW_INPUT_STEPS, FEATURE_DIM)
        assert y.shape == (expected, WINDOW_LABEL_STEPS, LABEL_DIM)

    @given(st.integers(min_value=0, max_value=60))
    def test_pair_count_formula(self, length):
        x, _ = self._windows(length)
        assert len(x) == max(0, length - 14)

    @pytest.mark.parametrize("empty", ["ego", "sender"])
    def test_empty_track_yields_no_windows(self, empty):
        sender = ego = _track(30)
        no_track = _track(0)
        x, y = windows_from_stream(
            _stream(sender),
            no_track if empty == "ego" else ego,
            no_track if empty == "sender" else sender,
            AttackerType.GENUINE,
            SPEC,
        )
        assert x.shape == (0, WINDOW_INPUT_STEPS, FEATURE_DIM) and y.shape == (0, WINDOW_LABEL_STEPS, LABEL_DIM)

    @pytest.mark.parametrize("sender_rows", range(WINDOW_LABEL_STEPS + 1))
    def test_short_sender_track_yields_no_windows(self, sender_rows):
        """A truth track too short to label any window of a 15-message
        stream gives no windows, as the window-by-window build does."""
        msgs = _stream(_track(WINDOW_SPAN))
        ego, sender = _track(WINDOW_SPAN), _track(sender_rows)
        x, y = windows_from_stream(msgs, ego, sender, AttackerType.GENUINE, SPEC)
        ref_x, ref_y = _reference_windows(msgs, ego, sender, AttackerType.GENUINE, SPEC)
        assert x.shape == ref_x.shape == (0, WINDOW_INPUT_STEPS, FEATURE_DIM)
        assert y.shape == ref_y.shape == (0, WINDOW_LABEL_STEPS, LABEL_DIM)

    def test_gap_skips_spanning_windows(self):
        length = 40
        sender = _track(length)
        ego = _track(length)
        msgs = _rows(_stream(sender), np.arange(length) != 20)  # gap at step 20
        x, _ = windows_from_stream(msgs, ego, sender, AttackerType.GENUINE, SPEC)
        # every window covering step 20 is gone; trailing windows shifted but intact
        assert len(x) == (length - 14) - 10

    def test_labels_are_truth_futures(self):
        length = 20
        sender = _track(length)
        ego = _track(length)
        _, y = windows_from_stream(_stream(sender), ego, sender, AttackerType.GENUINE, SPEC)
        lb = y[0]
        expected = sender[1][10:15, :2] / R
        np.testing.assert_allclose(lb[:, :2], expected)

    def test_labels_ignore_falsification(self):
        length = 20
        sender = _track(length)
        ego = _track(length)
        honest_x, honest_y = windows_from_stream(_stream(sender), ego, sender, AttackerType.GENUINE, SPEC)
        lying_x, lying_y = windows_from_stream(
            _stream(sender, claimed_pos=(R / 2, R / 2), attacker=AttackerType.CONSTANT),
            ego,
            sender,
            AttackerType.CONSTANT,
            SPEC,
        )
        np.testing.assert_array_equal(honest_y[0][:, :2], lying_y[0][:, :2])
        np.testing.assert_array_equal(lying_y[0][:, 2], 1.0)
        assert not np.array_equal(honest_x[0], lying_x[0])

    def test_mixed_senders_rejected(self):
        sender = _track(30)
        msgs = _stream(sender)
        msgs.sender_id[12] = 2
        with pytest.raises(ValueError, match="different senders"):
            windows_from_stream(msgs, _track(30), sender, AttackerType.GENUINE, SPEC)

    def test_misaligned_ego_rejected(self):
        sender = _track(30)
        ego = _cut(_track(31), slice(1, None))  # ego step k + 1 at index k
        with pytest.raises(ValueError, match="misaligned"):
            windows_from_stream(_stream(sender), ego, sender, AttackerType.GENUINE, SPEC)


# The window-by-window construction windows_from_stream replaced: every
# window rebuilt from its ten messages with scalar clamps. Kept as the
# reference the array version must reproduce byte for byte.
class _Gap(Exception):
    pass


def _reference_feature_window(msgs, ego_states, spec):
    """msgs: ten (sender, step, claims) rows; ego_states: ten (step,
    [pos_x, pos_y, spd_x, spd_y]) rows."""
    sender = msgs[0][0]
    if any(m[0] != sender for m in msgs):
        raise ValueError("window mixes messages from different senders")
    for prev, cur in zip(msgs, msgs[1:]):
        if cur[1] != prev[1] + 1:
            raise _Gap
    if any(t != m[1] for (t, _), m in zip(ego_states, msgs)):
        raise ValueError("ego states misaligned with message steps")
    r = spec.region_side
    v = spec.v_max
    rssi_span = spec.rssi_max - spec.rssi_min
    out = np.empty((WINDOW_INPUT_STEPS, FEATURE_DIM))
    for k, ((_, _, (px, py, sx, sy, rssi)), (_, (ex, ey, esx, esy))) in enumerate(zip(msgs, ego_states)):
        out[k, 0] = min(max(px / r, 0.0), 1.0)
        out[k, 1] = min(max(py / r, 0.0), 1.0)
        out[k, 2] = min(max(sx / v, -1.0), 1.0)
        out[k, 3] = min(max(sy / v, -1.0), 1.0)
        out[k, 4] = min(max((px - ex) / r, -1.0), 1.0)
        out[k, 5] = min(max((py - ey) / r, -1.0), 1.0)
        out[k, 6] = min(max((sx - esx) / v, -1.0), 1.0)
        out[k, 7] = min(max((sy - esy) / v, -1.0), 1.0)
        out[k, 8] = min(max((rssi - spec.rssi_min) / rssi_span, 0.0), 1.0)
    return out


def _reference_label(truth_states, attacker, spec):
    """truth_states: five (step, [pos_x, pos_y, spd_x, spd_y]) rows."""
    for (prev, _), (cur, _) in zip(truth_states, truth_states[1:]):
        if cur != prev + 1:
            raise ValueError("truth states must cover consecutive steps")
    out = np.empty((WINDOW_LABEL_STEPS, LABEL_DIM))
    for k, (_, (px, py, _, _)) in enumerate(truth_states):
        out[k, 0] = px / spec.region_side
        out[k, 1] = py / spec.region_side
        out[k, 2] = float(attacker)
    return out


def _reference_windows(msgs, ego_track, sender_track, attacker, spec):
    """(features (K, 10, 9), labels (K, 5, 3)) built one window at a time."""
    rows = list(zip(msgs.sender_id.tolist(), msgs.step.tolist(), msgs.claims.tolist()))
    ego_states = list(zip(ego_track[0].tolist(), ego_track[1].tolist()))
    sender_states = list(zip(sender_track[0].tolist(), sender_track[1].tolist()))
    feats, labels = [], []
    for k in range(max(0, len(rows) - 14)):
        chunk = rows[k : k + WINDOW_INPUT_STEPS]
        first = chunk[0][1]
        last = chunk[-1][1]
        if first < 0 or last + WINDOW_LABEL_STEPS >= len(sender_states) or first + WINDOW_INPUT_STEPS > len(ego_states):
            continue
        try:
            fw = _reference_feature_window(chunk, ego_states[first : first + WINDOW_INPUT_STEPS], spec)
        except _Gap:
            continue
        feats.append(fw)
        labels.append(_reference_label(sender_states[last + 1 : last + 1 + WINDOW_LABEL_STEPS], attacker, spec))
    if not feats:
        return np.empty((0, WINDOW_INPUT_STEPS, FEATURE_DIM)), np.empty((0, WINDOW_LABEL_STEPS, LABEL_DIM))
    return np.stack(feats), np.stack(labels)


# values on and around the clamp bounds, signed zeros included
_EDGE_VALUES = (0.0, -0.0, R, -R, 2 * R, V_MAX, -V_MAX, 1e-300, -1e-300)


@st.composite
def _edited_stream(draw):
    """A single-sender stream with deleted and duplicated messages and a
    shifted first step, against ego and sender tracks of drawn lengths."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    start = draw(st.integers(min_value=-3, max_value=4))
    steps = list(range(start, start + draw(st.integers(min_value=0, max_value=45))))
    for dup, at in draw(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=99)), max_size=4)):
        if steps:
            i = at % len(steps)
            if dup:
                steps.insert(i, steps[i])
            else:
                del steps[i]
    horizon = max(steps, default=0) + 20
    ego_len = max(0, horizon - draw(st.integers(min_value=0, max_value=30)))
    sender_len = max(0, horizon - draw(st.integers(min_value=0, max_value=30)))

    def track(n):
        pos = rng.uniform(-0.2 * R, 1.2 * R, size=(n, 2))
        spd = rng.uniform(-1.5 * V_MAX, 1.5 * V_MAX, size=(n, 2))
        return np.arange(n, dtype=np.int64), np.column_stack([pos, spd]).reshape(-1, 4)

    claims = rng.uniform(-0.2 * R, 1.2 * R, size=(len(steps), 5))
    claims[:, 2:4] = rng.uniform(-1.5 * V_MAX, 1.5 * V_MAX, size=(len(steps), 2))
    claims[:, 4] = rng.uniform(-130.0, -10.0, size=len(steps))
    edge = rng.random(claims.shape) < 0.1
    claims[edge] = rng.choice(_EDGE_VALUES, size=int(edge.sum()))
    msgs = _messages(np.ones(len(steps)), steps, claims, AttackerType.RANDOM)
    return msgs, track(ego_len), track(sender_len)


class TestWindowsMatchReference:
    @given(_edited_stream())
    def test_equals_window_by_window_build(self, case):
        msgs, ego, sender = case
        x, y = windows_from_stream(msgs, ego, sender, AttackerType.RANDOM, SPEC)
        ref_x, ref_y = _reference_windows(msgs, ego, sender, AttackerType.RANDOM, SPEC)
        assert x.shape == ref_x.shape and y.shape == ref_y.shape
        assert x.dtype == ref_x.dtype and y.dtype == ref_y.dtype
        assert x.tobytes() == ref_x.tobytes()
        assert y.tobytes() == ref_y.tobytes()

    @settings(max_examples=300)
    @given(
        _edited_stream(),
        st.lists(
            st.tuples(st.sampled_from(["sender", "ego", "truth"]), st.integers(min_value=0, max_value=99)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_same_error_as_window_by_window_build(self, case, corruptions):
        """Foreign senders and ego or truth states off their steps: the first
        offending window raises the same ValueError in both."""
        msgs, ego, sender = case
        for kind, at in corruptions:
            if kind == "sender" and len(msgs):
                msgs.sender_id[at % len(msgs)] = 2
            steps = {"ego": ego[0], "truth": sender[0]}.get(kind)
            if steps is not None and len(steps):
                steps[at % len(steps)] += 1
        try:
            expected = _reference_windows(msgs, ego, sender, AttackerType.RANDOM, SPEC)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                windows_from_stream(msgs, ego, sender, AttackerType.RANDOM, SPEC)
            assert str(got.value) == str(exc)
            return
        x, y = windows_from_stream(msgs, ego, sender, AttackerType.RANDOM, SPEC)
        assert x.tobytes() == expected[0].tobytes() and y.tobytes() == expected[1].tobytes()


def _stacked_windows(streams, ego_tracks, truth_tracks, attackers, links):
    """link_windows over same-length streams and same-length track stacks."""
    return link_windows(
        np.stack([m.sender_id for m in streams]),
        np.stack([m.step for m in streams]),
        np.stack([m.claims for m in streams]),
        tuple(np.stack(col) for col in zip(*ego_tracks)),
        tuple(np.stack(col) for col in zip(*truth_tracks)),
        np.array([int(a) for a in attackers]),
        np.asarray(links, dtype=np.int64).reshape(-1, 2),
        SPEC,
    )


def _per_link_windows(streams, ego_tracks, truth_tracks, attackers, links):
    """The window-by-window reference, one link after another."""
    feats, labels = [], []
    for msgs, (truth, ego) in zip(streams, links):
        x, y = _reference_windows(msgs, ego_tracks[ego], truth_tracks[truth], attackers[truth], SPEC)
        feats.append(x)
        labels.append(y)
    return np.concatenate(feats), np.concatenate(labels)


@st.composite
def _edited_links(draw):
    """2-4 streams of one length whose steps are shifted, duplicated or
    skipped in place, each link reading one of 1-3 ego and truth tracks of
    common lengths; senders, ego steps and truth steps may be corrupted."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_links = draw(st.integers(min_value=2, max_value=4))
    length = draw(st.integers(min_value=0, max_value=40))
    horizon = length + 25
    ego_len = max(0, horizon - draw(st.integers(min_value=0, max_value=30)))
    truth_len = max(0, horizon - draw(st.integers(min_value=0, max_value=30)))

    def tracks(n, count):
        out = []
        for _ in range(count):
            kin = np.column_stack([rng.uniform(-0.2 * R, 1.2 * R, size=(n, 2)), rng.uniform(-60.0, 60.0, size=(n, 2))])
            out.append((np.arange(n, dtype=np.int64), kin.reshape(-1, 4)))
        return out

    ego_tracks = tracks(ego_len, draw(st.integers(min_value=1, max_value=3)))
    truth_tracks = tracks(truth_len, draw(st.integers(min_value=1, max_value=3)))
    links = [(int(rng.integers(len(truth_tracks))), int(rng.integers(len(ego_tracks)))) for _ in range(n_links)]
    streams = []
    for _ in range(n_links):
        steps = np.arange(length, dtype=np.int64) + draw(st.integers(min_value=-2, max_value=3))
        for at, shift in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(-1, 2)), max_size=3)):
            if length:
                steps[at % length] += shift
        claims = rng.uniform(-0.2 * R, 1.2 * R, size=(length, 5))
        claims[:, 4] = rng.uniform(-130.0, -10.0, size=length)
        streams.append(_messages(np.ones(length), steps, claims))
    corruptions = draw(
        st.lists(st.tuples(st.sampled_from(["sender", "ego", "truth"]), st.integers(0, 999)), max_size=3)
    )
    for kind, at in corruptions:
        if kind == "sender" and length:
            streams[at % n_links].sender_id[at % length] = 2
        stack = {"ego": ego_tracks, "truth": truth_tracks}.get(kind)
        if stack is not None and len(stack[0][0]):
            stack[at % len(stack)][0][at % len(stack[0][0])] += 1
    attackers = [AttackerType(int(a)) for a in rng.integers(0, 6, size=len(truth_tracks))]
    return streams, ego_tracks, truth_tracks, attackers, links


class TestLinkWindows:
    """link_windows over several links against the per-link reference."""

    @settings(max_examples=300)
    @given(_edited_links())
    def test_equals_per_link_pass(self, case):
        """The same windows link-major, or the error the first failing link
        raises at its first failing window."""
        try:
            expected = _per_link_windows(*case)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _stacked_windows(*case)
            assert str(got.value) == str(exc)
            return
        x, y = _stacked_windows(*case).take()
        assert x.shape == expected[0].shape and y.shape == expected[1].shape
        assert x.tobytes() == expected[0].tobytes() and y.tobytes() == expected[1].tobytes()

    @staticmethod
    def _corrupt(kind, window, stream, ego, truth):
        """Make `window` the first of a 30-step link's 16 windows to fail
        with `kind`: its last message's sender or ego step, or its last label
        step, is off."""
        if kind == "different senders":
            stream.sender_id[window + WINDOW_INPUT_STEPS - 1] = 2
        elif kind == "misaligned":
            ego[0][window + WINDOW_INPUT_STEPS - 1] += 1
        else:
            truth[0][window + WINDOW_SPAN - 1] += 1

    @pytest.mark.parametrize("first", ["different senders", "misaligned", "consecutive"])
    @pytest.mark.parametrize("later", ["different senders", "misaligned", "consecutive"])
    def test_earlier_link_wins_over_later(self, first, later):
        """Link 0 fails at its window 9, link 1 at its window 0: link 0's
        error comes out."""
        sender = _track(30)
        streams = [_stream(sender), _stream(sender)]
        egos = [_track(30), _track(30)]
        truths = [_track(30), _track(30)]
        self._corrupt(first, 9, streams[0], egos[0], truths[0])
        self._corrupt(later, 0, streams[1], egos[1], truths[1])
        with pytest.raises(ValueError, match=first):
            _stacked_windows(streams, egos, truths, [AttackerType.GENUINE] * 2, [(0, 0), (1, 1)])

    @pytest.mark.parametrize("first", ["different senders", "misaligned", "consecutive"])
    @pytest.mark.parametrize("later", ["different senders", "misaligned", "consecutive"])
    def test_earliest_window_within_a_link_wins(self, first, later):
        """A clean link 0, then link 1 failing at windows 2 and 11: window 2's
        error comes out."""
        sender = _track(30)
        streams = [_stream(sender), _stream(sender)]
        egos = [_track(30), _track(30)]
        truths = [_track(30), _track(30)]
        self._corrupt(later, 11, streams[1], egos[1], truths[1])
        self._corrupt(first, 2, streams[1], egos[1], truths[1])
        with pytest.raises(ValueError, match=first):
            _stacked_windows(streams, egos, truths, [AttackerType.GENUINE] * 2, [(0, 0), (1, 1)])


class TestDenormalize:
    def test_round_trip(self):
        xy = np.array([[0.25, 0.75], [1.0, 0.0]])
        np.testing.assert_allclose(denormalize_pos(xy, SPEC), xy * R)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_inverse_of_normalization(self, x, y):
        meters = denormalize_pos(np.array([x, y]), SPEC)
        np.testing.assert_allclose(meters / R, [x, y], rtol=1e-9, atol=1e-12)


class TestSpecValidation:
    def test_bad_rssi_band(self):
        with pytest.raises(ValueError):
            NormalizationSpec(region_side=R, v_max=V_MAX, rssi_min=-40.0, rssi_max=-100.0)

    def test_bad_region(self):
        with pytest.raises(ValueError):
            NormalizationSpec(region_side=0.0, v_max=V_MAX, rssi_min=-100.0, rssi_max=-40.0)
