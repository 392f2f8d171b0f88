"""Config text format, defaults, profiles, precedence, round-trip, and the
records a config is built from."""
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from fltp.attacks import AttackParams, inject
from fltp.config import (
    ConfigError,
    DEFAULTS,
    KEYS,
    PROFILES,
    config_from_kv,
    dump_config,
    load_config,
    parse_kv_text,
)
from fltp.features import NormalizationSpec
from fltp.federated import GateConfig, GateStrategy, InfluenceTable
from fltp.model import TrainConfig
from fltp.trace import AttackerType, ChannelConfig, ScenarioConfig


class TestParseKvText:
    def test_basic_lines(self):
        text = "alpha = 1\nbeta = two words\n"
        assert parse_kv_text(text) == {"alpha": "1", "beta": "two words"}

    def test_comments_and_blanks(self):
        text = "# full comment\n\nalpha = 1  # trailing comment\n   \n"
        assert parse_kv_text(text) == {"alpha": "1"}

    def test_value_may_contain_equals(self):
        assert parse_kv_text("expr = a=b") == {"expr": "a=b"}

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match=r"cfg:3"):
            parse_kv_text("a = 1\nb = 2\nnot a pair\n", source="cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'a'"):
            parse_kv_text("a = 1\na = 2\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_kv_text("= 3\n")


class TestDefaults:
    def test_empty_input_yields_full_scale_protocol(self):
        cfg = config_from_kv({})
        assert cfg.methods == ("fl-tp", "fed-avg", "centralized")
        assert cfg.penetrations == (0.25, 0.5, 0.75)
        assert cfg.vehicle_counts == (4, 10, 20)
        assert cfg.repeats == 50
        assert cfg.scenario.region_side == 10_000.0
        assert cfg.scenario.n_steps == 100
        assert cfg.scenario.v_max == 40.0
        assert cfg.train.hidden_size == 64
        assert cfg.train.learning_rate == 1e-5
        assert cfg.train.momentum == 0.5
        assert cfg.train.batch_size == 128
        assert cfg.train.local_episodes == 10
        assert cfg.train.global_rounds == 300
        assert cfg.gate.strategy is GateStrategy.ACCURACY
        assert cfg.gate.threshold == 0.2
        assert (cfg.influence.constant, cfg.influence.constant_offset) == (1.0, 0.8)
        assert (cfg.influence.random, cfg.influence.random_offset) == (1.0, 0.8)
        assert cfg.influence.eventual_stop == 1.0
        assert (cfg.attack.fixed_x, cfg.attack.fixed_y) == (None, None)  # the region centre
        assert (cfg.attack.offset_x, cfg.attack.offset_y) == (250.0, -150.0)
        assert cfg.attack.random_offset_max == 300.0
        assert cfg.attack.stop_probability == 0.3
        assert cfg.train_fraction == 0.8
        assert cfg.judgment_threshold == 0.5
        assert cfg.checkpoints is False
        assert cfg.train.precision == "float64"

    def test_all_default_keys_resolve(self):
        # every documented key round-trips through the resolver unchanged
        cfg = config_from_kv(dict(DEFAULTS))
        assert cfg.repeats == 50


class TestProfiles:
    def test_desk_overrides(self):
        cfg = config_from_kv({}, profile="desk")
        assert cfg.vehicle_counts == (4,)
        assert cfg.train.global_rounds == 30
        assert cfg.repeats == 2
        assert cfg.scenario.n_steps == 64
        assert cfg.train.hidden_size == 32
        # untouched keys keep their defaults
        assert cfg.penetrations == (0.25, 0.5, 0.75)
        assert cfg.scenario.region_side == 10_000.0
        assert cfg.train.precision == "float64"

    def test_paper_profile_is_defaults(self):
        # the paper profile is the defaults with float32 local training
        assert config_from_kv({}, profile="paper") == config_from_kv({"precision": "float32"})

    def test_unknown_profile(self):
        with pytest.raises(ConfigError, match="unknown profile"):
            config_from_kv({}, profile="cluster")

    def test_file_beats_profile(self):
        cfg = config_from_kv({"global_rounds": "7"}, profile="desk")
        assert cfg.train.global_rounds == 7
        assert cfg.scenario.n_steps == 64  # other profile keys still apply


#: every key read by the float parser
FLOAT_KEYS = (
    "region_side", "dt", "v_max", "accel_sigma",
    "tx_power_dbm", "path_loss_exponent", "reference_distance", "shadowing_sigma",
    "rssi_min", "rssi_max", "learning_rate", "momentum", "gate_threshold",
    "influence_constant", "influence_constant_offset", "influence_random",
    "influence_random_offset", "influence_eventual_stop",
    "attack_fixed_x", "attack_fixed_y", "attack_offset_x", "attack_offset_y",
    "attack_random_offset_max", "attack_stop_probability",
    "train_fraction", "judgment_threshold",
)


class TestValidation:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key: penetration"):
            config_from_kv({"penetration": "1.5"})

    @pytest.mark.parametrize(
        "key,value",
        [
            ("repeats", "0"),
            ("master_seed", "-1"),
            ("penetrations", "0.5, 1.5"),
            ("vehicle_counts", "1"),
            ("methods", "fl-tp, gossip"),
            ("methods", "fl-tp, fl-tp"),
            ("train_fraction", "1.0"),
            ("judgment_threshold", "0"),
            ("gate_threshold", "1.5"),
            ("n_steps", "0"),
            ("hidden_size", "0"),
            ("momentum", "1.0"),
            ("precision", "float16"),
            ("dt", "0"),
            ("reference_distance", "0"),
        ],
    )
    def test_bad_value_mentions_key(self, key, value):
        with pytest.raises(ConfigError, match=key.split("_")[0]):
            config_from_kv({key: value})

    @pytest.mark.parametrize(
        "key,value",
        [
            ("repeats", "two"),
            ("learning_rate", "fast"),
            ("checkpoints", "maybe"),
            ("vehicle_counts", "4, five"),
            ("gate_strategy", "psychic"),
        ]
        + [(key, value) for key in FLOAT_KEYS for value in ("nan", "inf", "-inf")],
    )
    def test_unparseable_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_kv({key: value})

    def test_empty_vehicle_counts(self):
        with pytest.raises(ConfigError, match="vehicle_counts"):
            config_from_kv({"vehicle_counts": ","})

    def test_stop_probability_bounds(self):
        with pytest.raises(ConfigError):
            config_from_kv({"attack_stop_probability": "1.5"})


#: each config record, built valid, with one field, a value that field
#: rejects, and the start of the rejection's message
RECORDS = [
    (ChannelConfig(), "reference_distance", 0.0, "reference_distance must be > 0"),
    (ScenarioConfig(), "n_vehicles", 1, "n_vehicles must be >= 2"),
    (NormalizationSpec(region_side=1.0, v_max=1.0), "rssi_min", -40.0, "rssi_min must be < rssi_max"),
    (TrainConfig(), "hidden_size", 0, "hidden_size must be >= 1"),
    (GateConfig(), "threshold", 1.5, "gate threshold must be in"),
    (InfluenceTable(), "constant", -1.0, "influence factor constant must be >= 0"),
    (AttackParams(region_side=1.0, v_max=1.0), "stop_probability", 1.5, "stop probability must lie"),
    (config_from_kv({}), "master_seed", -1, "master_seed: must be >= 0"),
]


@pytest.mark.parametrize("record,field,bad,message", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
class TestRecords:
    """A record is checked once, when it is built: it cannot be built or
    replaced into an invalid state, and cannot be changed afterwards."""

    def test_construction_rejects(self, record, field, bad, message):
        kwargs = {f.name: getattr(record, f.name) for f in fields(record)}
        with pytest.raises(ValueError, match=message):
            type(record)(**{**kwargs, field: bad})

    def test_replace_rejects(self, record, field, bad, message):
        with pytest.raises(ValueError, match=message):
            replace(record, **{field: bad})

    def test_assignment_refused(self, record, field, bad, message):
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, getattr(record, field))


def test_list_keys_cannot_change_after_the_checks():
    """The list keys are tuples, so a checked config cannot grow a method or
    fleet size its checks never saw; they dump as the same comma lists."""
    cfg = config_from_kv({})
    with pytest.raises(AttributeError):
        cfg.methods.append("gossip")
    with pytest.raises(TypeError):
        cfg.vehicle_counts[0] = 1
    assert dump_config(cfg).startswith(
        "methods = fl-tp, fed-avg, centralized\npenetrations = 0.25, 0.5, 0.75\nvehicle_counts = 4, 10, 20\n"
    )


class TestRoundTrip:
    def test_dump_then_load_is_equal(self, tmp_path):
        cfg = config_from_kv(
            {
                "methods": "fl-tp, centralized",
                "penetrations": "0.5",
                "vehicle_counts": "4, 6",
                "learning_rate": "0.003",
                "gate_strategy": "random",
                "attack_fixed_x": "1234.5",
                "checkpoints": "true",
            },
            profile="desk",
        )
        path = tmp_path / "dump.cfg"
        path.write_text(dump_config(cfg), encoding="utf-8")
        assert load_config(path) == cfg

    def test_default_round_trip(self, tmp_path):
        cfg = config_from_kv({})
        path = tmp_path / "defaults.cfg"
        path.write_text(dump_config(cfg), encoding="utf-8")
        assert load_config(path) == cfg

    def test_dumped_default_fixed_point_follows_the_region(self, tmp_path):
        """A dumped default config leaves the fixed point empty, so a reload
        with another region_side puts the constant attack at its centre."""
        text = dump_config(config_from_kv({}))
        assert "\nattack_fixed_x =\nattack_fixed_y =\n" in text
        path = tmp_path / "defaults.cfg"
        path.write_text(text.replace("region_side = 10000.0\n", "region_side = 3000\n"), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.scenario.region_side == 3000.0
        claims = inject(AttackerType.CONSTANT, np.zeros((2, 4)), cfg.attack, np.random.default_rng(0))
        assert claims.tolist() == [[1500.0, 1500.0, 0.0, 0.0]] * 2


#: a valid value differing from its default for every key in DEFAULTS
NON_DEFAULTS = {
    "methods": "centralized, fl-tp",
    "penetrations": "0.1, 0.9",
    "vehicle_counts": "3, 5",
    "repeats": "3",
    "master_seed": "7",
    "out_dir": "elsewhere",
    "region_side": "5000.5",
    "dt": "0.5",
    "n_steps": "50",
    "v_max": "30",
    "accel_sigma": "0.25",
    "tx_power_dbm": "23",
    "path_loss_exponent": "2.7",
    "reference_distance": "2.0",
    "shadowing_sigma": "3.5",
    "rssi_min": "-95",
    "rssi_max": "-35",
    "hidden_size": "16",
    "learning_rate": "0.003",
    "momentum": "0.9",
    "batch_size": "64",
    "local_episodes": "3",
    "global_rounds": "12",
    "precision": "float32",
    "gate_strategy": "random",
    "gate_threshold": "0.4",
    "influence_constant": "0.5",
    "influence_constant_offset": "0.6",
    "influence_random": "0.7",
    "influence_random_offset": "0.9",
    "influence_eventual_stop": "0.3",
    "attack_fixed_x": "1234.5",
    "attack_fixed_y": "4321.25",
    "attack_offset_x": "10",
    "attack_offset_y": "-20",
    "attack_random_offset_max": "50",
    "attack_stop_probability": "0.25",
    "train_fraction": "0.7",
    "judgment_threshold": "0.4",
    "checkpoints": "true",
}


class TestKeyTable:
    def test_every_key_has_a_non_default_case(self):
        assert set(NON_DEFAULTS) == set(DEFAULTS)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULTS))
    def test_each_key_reaches_the_config(self, key):
        assert config_from_kv({key: NON_DEFAULTS[key]}) != config_from_kv({})

    @pytest.mark.parametrize("key", KEYS, ids=lambda key: key.name)
    def test_each_key_fills_its_own_field(self, key):
        """A key's value lands where its getter reads it, and nowhere else:
        every other key still reads its default."""
        cfg = config_from_kv({key.name: NON_DEFAULTS[key.name]})
        base = config_from_kv({})
        assert key.get(cfg) == key.parse(key.name, NON_DEFAULTS[key.name])
        for other in KEYS:
            if other is not key:
                assert other.get(cfg) == other.get(base), other.name

    def test_no_two_keys_share_a_path(self):
        paths = [key.path for key in KEYS]
        assert len(set(paths)) == len(paths)

    def test_all_keys_changed_round_trip(self, tmp_path):
        cfg = config_from_kv(NON_DEFAULTS)
        text = dump_config(cfg)
        assert [line.split(" = ")[0] for line in text.splitlines()] == list(DEFAULTS)
        path = tmp_path / "dump.cfg"
        path.write_text(text, encoding="utf-8")
        assert load_config(path) == cfg


class TestLoadConfig:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("", encoding="utf-8")
        assert load_config(path) == config_from_kv({})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.cfg")

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("repeats = 2\nbroken line\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
            load_config(path)
