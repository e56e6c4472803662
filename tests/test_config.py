"""JSON configuration parsing and validation."""

import json

import pytest

from otfs_sync.channel import ChannelKind
from otfs_sync.config import ConfigError, load_dataset_config, parse_dataset_config


class TestParsing:
    def test_empty_document_uses_defaults(self):
        cfg = parse_dataset_config({})
        assert cfg.frame.M == 256 and cfg.frame.N == 64
        assert cfg.samples_per_channel == 30000
        assert cfg.global_seed == 0
        assert [p.label for p in cfg.channels] == ["awgn", "rayleigh", "eva"]

    def test_full_document(self):
        cfg = parse_dataset_config({
            "frame": {"M": 32, "N": 8, "L_CP": 8},
            "pilot": {"m_p": 16, "n_p": 0, "amplitude": 5.0, "guard_halfwidth": 3},
            "channels": ["awgn", 2],
            "snr_grid_db": [0, 10],
            "samples_per_channel": 50,
            "preamble": {"length": 64, "root": 5},
            "global_seed": 9,
            "sample_rate_hz": 2.0e7,
        })
        assert (cfg.frame.M, cfg.frame.N, cfg.frame.L_CP) == (32, 8, 8)
        assert cfg.pilot.m_p == 16 and cfg.pilot.amplitude == 5.0
        assert [p.label for p in cfg.channels] == ["awgn", "rayleigh"]
        assert cfg.snr_grid_db == (0.0, 10.0)
        assert cfg.preamble.length == 64 and cfg.preamble.root == 5
        assert cfg.global_seed == 9
        assert cfg.sample_rate_hz == 2.0e7

    def test_custom_channel_profile(self):
        cfg = parse_dataset_config({
            "channels": [{"delays_ns": [0, 500], "gains_db": [0, -3],
                          "max_doppler_hz": 100.0, "label": "lab-bench"}],
        })
        prof = cfg.channels[0]
        assert prof.kind == ChannelKind.CUSTOM
        assert prof.delays_ns == (0.0, 500.0)
        assert prof.label == "lab-bench"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            parse_dataset_config({"banana": 1})
        with pytest.raises(ConfigError, match="unknown keys \\['train_fraction'\\]"):
            parse_dataset_config({"train_fraction": 0.8})

    def test_unknown_channel_label(self):
        with pytest.raises(ConfigError):
            parse_dataset_config({"channels": ["undersea"]})

    def test_unknown_channel_id(self):
        with pytest.raises(ConfigError):
            parse_dataset_config({"channels": [9]})

    def test_empty_channel_list(self):
        # before: the three presets, 90,000 records at the default scale
        with pytest.raises(ConfigError, match="channels must not be empty"):
            parse_dataset_config({"channels": []})

    def test_invalid_geometry_becomes_config_error(self):
        with pytest.raises(ConfigError):
            parse_dataset_config({"frame": {"M": 12, "N": 8}})

    def test_invalid_pilot_becomes_config_error(self):
        with pytest.raises(ConfigError):
            parse_dataset_config({
                "frame": {"M": 32, "N": 8, "L_CP": 8},
                "pilot": {"m_p": 99, "n_p": 0, "amplitude": 1.0, "guard_halfwidth": 1},
            })


class TestLoading:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"frame": {"M": 16, "N": 4, "L_CP": 4}}))
        cfg = load_dataset_config(str(path))
        assert cfg.frame.M == 16

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dataset_config(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_dataset_config(str(path))
