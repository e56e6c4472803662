"""JSON configuration parsing and validation."""

import json

import numpy as np
import pytest

from otfs_sync.channel import ChannelKind
from otfs_sync.config import (ConfigError, estimator_settings, load_dataset_config,
                              parse_dataset_config)
from otfs_sync.frames import zadoff_chu


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

    @pytest.mark.parametrize("preamble,message", [
        ({"length": 16, "root": 4}, "root 4 is not coprime with length 16"),
        ({"length": -3, "root": 4}, "preamble length must be positive, got -3"),
        ({"length": "16", "root": 5}, "not supported"),
    ])
    def test_a_preamble_that_cannot_be_built_is_config_error(self, preamble, message):
        with pytest.raises(ConfigError, match=message):
            parse_dataset_config({"preamble": preamble})

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


class TestEstimatorSettings:
    TOY = {"frame": {"M": 32, "N": 8, "L_CP": 8},
           "pilot": {"m_p": 5, "n_p": 1, "amplitude": 4.0, "guard_halfwidth": 2}}

    def test_preamble_offset_and_pilot_row_come_from_the_config(self):
        cfg = parse_dataset_config({**self.TOY, "preamble": {"length": 40, "root": 3}})
        got = estimator_settings(cfg, ["crosscorr", "autocorr2d"])
        assert np.array_equal(got.preamble, zadoff_chu(40, 3))
        assert (got.preamble_offset, got.pilot_row) == (-48, 5)
        assert got.coarse is got.fine is got.onestage is None

    def test_no_preamble_is_refused_only_for_crosscorr(self):
        cfg = parse_dataset_config(self.TOY)
        got = estimator_settings(cfg, ["autocorr2d", "resnet2stage"])
        assert got.preamble is None and got.pilot_row == 5
        with pytest.raises(ConfigError, match="crosscorr needs a preamble"):
            estimator_settings(cfg, ["autocorr2d", "crosscorr"])

    def test_a_preamble_longer_than_the_window_is_refused_only_for_crosscorr(self):
        cfg = parse_dataset_config({**self.TOY, "preamble": {"length": 257, "root": 3}})
        assert estimator_settings(cfg, ["autocorr2d"]).preamble.size == 257
        with pytest.raises(ConfigError, match="the 257-sample preamble is longer than "
                                              "the 256-sample window"):
            estimator_settings(cfg, ["crosscorr"])

    def test_a_grid_the_classifiers_cannot_take_is_refused_only_for_them(self):
        cfg = parse_dataset_config({"frame": {"M": 2, "N": 2, "L_CP": 1}})
        assert estimator_settings(cfg, ["autocorr2d"]).pilot_row == 1
        with pytest.raises(ConfigError, match="M\\*N divisible by 8, got 2x2"):
            estimator_settings(cfg, ["resnet1stage"])
