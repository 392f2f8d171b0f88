"""Reception-log ingestion contract."""
import json
import math
import re

import numpy as np
import pytest

from fltp.features import NormalizationSpec, windows_from_stream
from fltp.trace import AttackerType, IngestError, ingest_veremi


def _write(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def _bsm(sender, t, pos, spd, rssi):
    return {
        "type": 3,
        "sendTime": t,
        "rcvTime": t + 1e-4,
        "sender": sender,
        "messageID": sender * 1000 + int(t),
        "pos": pos,
        "spd": spd,
        "RSSI": rssi,
    }


@pytest.fixture
def sample_logs(tmp_path):
    log = tmp_path / "log.json"
    gt = tmp_path / "gt.json"
    _write(
        log,
        [
            {"type": 2, "rcvTime": 0.0, "sendTime": 0.0, "sender": 7, "messageID": 1,
             "pos": [10.0, 20.0, 1.5], "spd": [1.0, 2.0, 0.0], "RSSI": 0.0},
            _bsm(101, 0.0, [100.0, 200.0, 1.5], [5.0, -2.0, 0.0], -60.5),
            _bsm(102, 0.0, [300.0, 400.0, 1.5], [0.0, 0.0, 0.0], -72.25),
            _bsm(103, 1.0, [500.0, 600.0, 1.5], [-3.0, 4.0, 0.0], -80.0),
        ],
    )
    _write(
        gt,
        [
            {"sender": 101, "attackerType": 0},
            {"sender": 102, "attackerType": 1},
            {"sender": 103, "attackerType": 16},
        ],
    )
    return log, gt


def test_three_record_fixture(sample_logs):
    msgs, (ego_steps, ego_kin) = ingest_veremi(*sample_logs)
    assert len(msgs) == 3
    assert msgs.truth_attacker.tolist() == [
        AttackerType.GENUINE,
        AttackerType.CONSTANT,
        AttackerType.EVENTUAL_STOP,
    ]
    assert ego_steps.shape == (1,) and ego_kin.shape == (1, 4)


def test_fields_carried_and_z_dropped(sample_logs):
    msgs, (ego_steps, ego_kin) = ingest_veremi(*sample_logs)
    assert msgs.sender_id[0] == 101
    assert msgs.claims[0].tolist() == [100.0, 200.0, 5.0, -2.0, -60.5]  # pos x/y, spd x/y, RSSI
    assert msgs.step[0] == 0
    assert msgs.step[2] == 1
    assert ego_steps.dtype == np.int64 and ego_steps.tolist() == [0]
    assert ego_kin.tolist() == [[10.0, 20.0, 1.0, 2.0]]  # pos x/y, spd x/y


def test_empty_files(tmp_path):
    log = tmp_path / "log.json"
    gt = tmp_path / "gt.json"
    log.write_text("", encoding="utf-8")
    gt.write_text("", encoding="utf-8")
    msgs, (ego_steps, ego_kin) = ingest_veremi(log, gt)
    assert len(msgs) == 0 and len(ego_steps) == 0
    assert msgs.claims.shape == (0, 5) and ego_kin.shape == (0, 4)


def test_malformed_line_reports_line_number(tmp_path, sample_logs):
    log, gt = sample_logs
    broken = tmp_path / "broken.json"
    broken.write_text(log.read_text() + "{not json\n", encoding="utf-8")
    with pytest.raises(IngestError, match=r":5"):
        ingest_veremi(broken, gt)


@pytest.mark.parametrize("line", ["5", "null", "true", "[1]"])
@pytest.mark.parametrize("which", ["log", "ground truth"])
def test_non_object_line_reports_line_number(tmp_path, sample_logs, which, line):
    """A JSON line that parses but is not an object is malformed in either file."""
    log, gt = sample_logs
    broken = tmp_path / "broken.json"
    good = log if which == "log" else gt
    broken.write_text(good.read_text() + line + "\n", encoding="utf-8")
    args = (broken, gt) if which == "log" else (log, broken)
    lines = len(good.read_text().splitlines()) + 1
    with pytest.raises(IngestError, match=rf"broken\.json:{lines}: expected a JSON object"):
        ingest_veremi(*args)


@pytest.mark.parametrize("which", ["log", "ground truth"])
def test_not_utf8_line_reports_line_number(tmp_path, sample_logs, which):
    """A byte that is not UTF-8 in either file raises IngestError naming the
    file and the line that holds it."""
    log, gt = sample_logs
    broken = tmp_path / "broken.json"
    good = log if which == "log" else gt
    broken.write_bytes(good.read_bytes() + b'{"sender": 1\xff}\n')
    args = (broken, gt) if which == "log" else (log, broken)
    lines = len(good.read_text().splitlines()) + 1
    with pytest.raises(IngestError, match=rf"^{re.escape(str(broken))}:{lines}: not UTF-8 text "):
        ingest_veremi(*args)


def test_missing_field_reports_line_number(tmp_path, sample_logs):
    _, gt = sample_logs
    log = tmp_path / "nofield.json"
    rec = _bsm(101, 0.0, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], -50.0)
    del rec["RSSI"]
    _write(log, [rec])
    with pytest.raises(IngestError, match=r":1.*RSSI"):
        ingest_veremi(log, gt)


def test_unknown_sender_named(tmp_path, sample_logs):
    log_path, gt = sample_logs
    log = tmp_path / "stranger.json"
    _write(log, [_bsm(999, 0.0, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], -50.0)])
    with pytest.raises(IngestError, match="999"):
        ingest_veremi(log, gt)


def test_unknown_attack_code_rejected(tmp_path):
    log = tmp_path / "log.json"
    gt = tmp_path / "gt.json"
    _write(log, [_bsm(101, 0.0, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], -50.0)])
    _write(gt, [{"sender": 101, "attackerType": 99}])
    with pytest.raises(IngestError, match="99"):
        ingest_veremi(log, gt)


def test_sender_with_two_attack_codes_rejected(tmp_path):
    """The ground truth has one record per message, so a sender may repeat,
    but always with the same attackerType."""
    log = tmp_path / "log.json"
    gt = tmp_path / "gt.json"
    _write(log, [_bsm(5, 0.0, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], -50.0)])
    _write(gt, [{"sender": 5, "attackerType": 1}, {"sender": 5, "attackerType": 1}])
    msgs, _ = ingest_veremi(log, gt)
    assert msgs.truth_attacker.tolist() == [AttackerType.CONSTANT]
    _write(gt, [{"sender": 5, "attackerType": 0}, {"sender": 5, "attackerType": 0}, {"sender": 5, "attackerType": 1}])
    with pytest.raises(IngestError, match=f"^{re.escape(str(gt))}:3: sender 5 has attackerType 1, but an earlier line gave 0$"):
        ingest_veremi(log, gt)


def test_unknown_record_types_skipped(tmp_path, sample_logs):
    _, gt = sample_logs
    log = tmp_path / "mixed.json"
    _write(
        log,
        [
            {"type": 4, "whatever": 1},
            _bsm(101, 0.0, [1.0, 2.0, 0.0], [0.0, 0.0, 0.0], -50.0),
        ],
    )
    msgs, (ego_steps, _) = ingest_veremi(log, gt)
    assert len(msgs) == 1 and len(ego_steps) == 0


def test_integer_columns_stay_integers(tmp_path):
    """Sender ids, steps and classes are int64, exact beyond float precision."""
    log = tmp_path / "log.json"
    gt = tmp_path / "gt.json"
    big = 2**53 + 1
    _write(log, [_bsm(big, 7.0, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], -50.0), _bsm(101, 8.0, [0.0] * 3, [0.0] * 3, -50.0)])
    _write(gt, [{"sender": big, "attackerType": 4}, {"sender": 101, "attackerType": 0}])
    msgs, _ = ingest_veremi(log, gt)
    for column in (msgs.sender_id, msgs.step, msgs.truth_attacker):
        assert column.dtype == np.int64
    assert msgs.sender_id.tolist() == [big, 101]
    assert msgs.step.tolist() == [7, 8]
    assert msgs.truth_attacker.tolist() == [int(AttackerType.RANDOM), int(AttackerType.GENUINE)]


def test_gps_steps_follow_dt(tmp_path):
    log = tmp_path / "log.json"
    gt = tmp_path / "gt.json"
    gps = {"type": 2, "rcvTime": 3.0, "pos": [1.0, 2.0, 0.0], "spd": [3.0, 4.0, 0.0]}
    _write(log, [gps, _bsm(101, 3.0, [0.0] * 3, [0.0] * 3, -50.0)])
    _write(gt, [{"sender": 101, "attackerType": 0}])
    msgs, (ego_steps, _) = ingest_veremi(log, gt, dt=0.5)
    assert ego_steps.tolist() == [6] and msgs.step.tolist() == [6]


@pytest.mark.parametrize("dt", [0.0, -1.0])
def test_non_positive_dt_rejected(tmp_path, dt):
    log = tmp_path / "log.json"
    gt = tmp_path / "gt.json"
    _write(log, [_bsm(101, 1.0, [0.0] * 3, [0.0] * 3, -50.0)])
    _write(gt, [{"sender": 101, "attackerType": 0}])
    with pytest.raises(ValueError, match="dt"):
        ingest_veremi(log, gt, dt=dt)


@pytest.mark.parametrize("dt", [math.inf, math.nan])
def test_non_finite_dt_rejected(tmp_path, dt):
    """dt=inf would map every record to step 0; dt=nan would fail in math.floor."""
    log = tmp_path / "log.json"
    gt = tmp_path / "gt.json"
    _write(log, [_bsm(101, 1.0, [0.0] * 3, [0.0] * 3, -50.0)])
    _write(gt, [{"sender": 101, "attackerType": 0}])
    with pytest.raises(ValueError, match="dt must be finite"):
        ingest_veremi(log, gt, dt=dt)


@pytest.mark.parametrize(
    "fields",
    [
        {"sendTime": math.inf},  # would escape from the step mapping as an OverflowError
        {"pos": [math.nan, 0.0, 0.0]},  # would land silently in the claims
        {"RSSI": "loud"},
        {"RSSI": None},
        {"rcvTime": [1.0]},
        {"spd": [1.0]},
        {"spd": 3.0},
        {"sender": math.nan},
        {"sender": 101.9},  # int() would truncate it to sender 101
        {"type": math.inf},
        {"type": 3.7},  # int() would truncate it to a BSM record
        {"type": 2, "rcvTime": math.nan},  # the receiver's own GPS record
        # JSON strings and booleans are not numbers, whatever float() or int() make of them
        {"pos": "12"},  # would be read as the position (1.0, 2.0)
        {"spd": [1.0, "2", 0.0]},
        {"pos": [True, 0.0, 0.0]},
        {"type": "3"},
        {"type": True},
        {"sender": "101"},
        {"sender": True},  # would be read as sender 1
        {"sendTime": "0"},
        {"rcvTime": "0"},
        {"RSSI": "-60.5"},
        {"RSSI": False},
        {"type": 2, "pos": "12"},
    ],
    ids=lambda f: ",".join(f"{k}={v!r}" for k, v in f.items()),
)
def test_non_finite_or_non_numeric_field_rejected(tmp_path, sample_logs, fields):
    """A 5th log line with one bad field fails naming its file, line and field."""
    log, gt = sample_logs
    bad = tmp_path / "bad.json"
    records = [json.loads(line) for line in log.read_text().splitlines()]
    _write(bad, records + [{**_bsm(101, 2.0, [0.0] * 3, [0.0] * 3, -50.0), **fields}])
    key = list(fields)[-1]
    with pytest.raises(IngestError, match=rf"bad\.json:5: field '{key}' is not a finite number"):
        ingest_veremi(bad, gt)


@pytest.mark.parametrize(
    "fields,dt",
    [
        ({"sendTime": 1e300}, 1.0),  # a finite time whose step int64 cannot hold
        ({"type": 2, "rcvTime": 1e300}, 1.0),  # the same for the receiver's own GPS record
        ({"sendTime": 1e300}, 1e-10),  # t / dt is infinite
    ],
    ids=["sendTime", "gps-rcvTime", "sendTime-small-dt"],
)
def test_time_beyond_int64_steps_rejected(tmp_path, sample_logs, fields, dt):
    """A 5th log line whose time maps to no int64 step fails naming its file,
    line and field instead of escaping as an OverflowError."""
    log, gt = sample_logs
    bad = tmp_path / "bad.json"
    records = [json.loads(line) for line in log.read_text().splitlines()]
    _write(bad, records + [{**_bsm(101, 2.0, [0.0] * 3, [0.0] * 3, -50.0), **fields}])
    key = list(fields)[-1]
    with pytest.raises(IngestError, match=rf"bad\.json:5: field '{key}' = 1e\+300 gives a step outside int64"):
        ingest_veremi(bad, gt, dt=dt)


@pytest.mark.parametrize(
    "key,record",
    [
        ("sender", {"sender": math.inf, "attackerType": 1}),
        ("sender", {"sender": 102.9, "attackerType": 1}),
        ("attackerType", {"sender": 102, "attackerType": 0.5}),
        ("sender", {"sender": "102", "attackerType": 1}),
        ("sender", {"sender": True, "attackerType": 1}),
        ("attackerType", {"sender": 102, "attackerType": "1"}),
    ],
)
def test_non_finite_or_fractional_ground_truth_rejected(tmp_path, sample_logs, key, record):
    log, _ = sample_logs
    gt = tmp_path / "gt.json"
    _write(gt, [{"sender": 101, "attackerType": 0}, record])
    with pytest.raises(IngestError, match=rf"gt\.json:2: field '{key}' is not a finite number"):
        ingest_veremi(log, gt)


def test_whole_float_integer_fields_accepted(tmp_path):
    log = tmp_path / "log.json"
    gt = tmp_path / "gt.json"
    _write(log, [{**_bsm(101, 0.0, [0.0] * 3, [0.0] * 3, -50.0), "type": 3.0, "sender": 101.0}])
    _write(gt, [{"sender": 101.0, "attackerType": 1.0}])
    msgs, _ = ingest_veremi(log, gt)
    assert msgs.sender_id.tolist() == [101]
    assert msgs.truth_attacker.tolist() == [int(AttackerType.CONSTANT)]


def _windows_of_log(tmp_path, t0):
    """Windows of a log whose 30 GPS records and 30 messages of one genuine
    sender run over rcvTime t0 .. t0 + 29; the sender's truth track is its
    claimed kinematics."""
    log = tmp_path / f"log_{t0}.json"
    gt = tmp_path / "gt.json"
    records = []
    for k in range(30):
        t = float(t0 + k)
        records.append({"type": 2, "rcvTime": t, "pos": [1000.0 + 5 * k, 2000.0, 0.0], "spd": [5.0, 0.0, 0.0]})
        records.append(_bsm(101, t, [3000.0 - 8 * k, 2500.0 + k, 0.0], [-8.0, 1.0, 0.0], -60.0 - k))
    _write(log, records)
    _write(gt, [{"sender": 101, "attackerType": 0}])
    msgs, ego = ingest_veremi(log, gt)
    sender = (msgs.step, msgs.claims[:, :4])
    norm = NormalizationSpec(region_side=10_000.0, v_max=40.0, rssi_min=-100.0, rssi_max=-40.0)
    return windows_from_stream(msgs, ego, sender, AttackerType.GENUINE, norm)


def test_log_late_start_windows_like_one_at_zero(tmp_path):
    """Tracks are indexed from their own first step: a log starting at
    rcvTime 100 gives the windows of the same log starting at 0."""
    late_x, late_y = _windows_of_log(tmp_path, 100)
    x, y = _windows_of_log(tmp_path, 0)
    assert len(x) == 30 - 14
    assert late_x.tobytes() == x.tobytes() and late_y.tobytes() == y.tobytes()


def test_half_step_log_windows_like_one_on_the_step(tmp_path):
    """Steps round half up: a log sampled at rcvTime k + 0.5 gets one step
    per record (round-half-even gave steps 0, 2, 2, 4, ... and no window)."""
    half_x, half_y = _windows_of_log(tmp_path, 0.5)
    x, y = _windows_of_log(tmp_path, 0)
    assert len(half_x) == len(x) == 30 - 14
    assert half_x.tobytes() == x.tobytes() and half_y.tobytes() == y.tobytes()
