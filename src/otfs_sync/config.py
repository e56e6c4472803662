"""JSON configuration files mirroring the dataclass field names.

A config document looks like::

    {
      "frame": {"M": 256, "N": 64, "L_CP": 64, "mod_order": 4},
      "pilot": {"m_p": 128, "n_p": 0, "amplitude": 16.0, "guard_halfwidth": 26},
      "channels": ["awgn", "rayleigh", "eva"],
      "snr_grid_db": [-20, -18, "...", 26],
      "samples_per_channel": 30000,
      "blocks_per_frame": 1,
      "preamble": {"length": 256, "root": 25},
      "global_seed": 7,
      "sample_rate_hz": 1.0e7
    }

Every key is optional and falls back to the dataclass default (the three
preset channels, the frame's default pilot, no preamble); the two counts
and the seed must be JSON integers, and the channel list must not be
empty.  Channels may be preset labels ("awgn", "rayleigh", "eva"), preset
ids (1, 2, 3) or inline custom profiles
``{"delays_ns": [...], "gains_db": [...], "max_doppler_hz": ..., "label": "..."}``.
"""

from __future__ import annotations

import json
from typing import Any

from .channel import ChannelKind, ChannelProfile, PROFILES_BY_ID, PROFILES_BY_LABEL
from .dataset import DatasetConfig, PreambleConfig
from .frames import FrameConfig, PilotConfig, zadoff_chu


class ConfigError(Exception):
    """Invalid or unreadable configuration: maps to CLI exit code 2."""


def _require_keys(d: dict, allowed: set[str], where: str) -> None:
    extra = set(d) - allowed
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)} (allowed: {sorted(allowed)})")


def _parse_channel(entry: Any) -> ChannelProfile:
    if isinstance(entry, str):
        prof = PROFILES_BY_LABEL.get(entry.lower())
        if prof is None:
            raise ConfigError(
                f"unknown channel label {entry!r}; presets are "
                f"{sorted(PROFILES_BY_LABEL)}"
            )
        return prof
    if isinstance(entry, int):
        prof = PROFILES_BY_ID.get(entry)
        if prof is None:
            raise ConfigError(f"unknown channel id {entry}; presets are 1, 2, 3")
        return prof
    if isinstance(entry, dict):
        _require_keys(entry, {"delays_ns", "gains_db", "max_doppler_hz", "label"}, "channels[]")
        try:
            return ChannelProfile(
                kind=ChannelKind.CUSTOM,
                delays_ns=tuple(float(x) for x in entry["delays_ns"]),
                gains_db=tuple(float(x) for x in entry["gains_db"]),
                max_doppler_hz=float(entry.get("max_doppler_hz", 0.0)),
                label=str(entry.get("label", "custom")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad custom channel profile: {exc}") from exc
    raise ConfigError(f"channel entry must be a label, id, or object, got {entry!r}")


def parse_dataset_config(doc: dict) -> DatasetConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    _require_keys(doc, {
        "frame", "pilot", "channels", "snr_grid_db", "samples_per_channel",
        "blocks_per_frame", "preamble", "global_seed", "sample_rate_hz",
    }, "config")
    try:
        frame_doc = doc.get("frame", {})
        _require_keys(frame_doc, {"M", "N", "L_CP", "mod_order"}, "frame")
        frame = FrameConfig(**frame_doc)
        kwargs: dict[str, Any] = {}

        pilot_doc = doc.get("pilot")
        if pilot_doc is not None:
            _require_keys(pilot_doc, {"m_p", "n_p", "amplitude", "guard_halfwidth"}, "pilot")
            kwargs["pilot"] = PilotConfig(**pilot_doc)

        if "channels" in doc:
            kwargs["channels"] = tuple(_parse_channel(c) for c in doc["channels"])

        pre_doc = doc.get("preamble")
        if pre_doc is not None:
            _require_keys(pre_doc, {"length", "root"}, "preamble")
            kwargs["preamble"] = PreambleConfig(**pre_doc)

        for key in ("samples_per_channel", "blocks_per_frame", "global_seed"):
            if key in doc:
                value = kwargs[key] = doc[key]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(f"{key} must be an integer, got {value!r}")
        if "sample_rate_hz" in doc:
            kwargs["sample_rate_hz"] = float(doc["sample_rate_hz"])
        if "snr_grid_db" in doc:
            kwargs["snr_grid_db"] = tuple(float(s) for s in doc["snr_grid_db"])
        return DatasetConfig(frame=frame, **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_dataset_config(path: str) -> DatasetConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_dataset_config(doc)


def complexity_settings(cfg: DatasetConfig, measure_runtime: bool = True
                        ) -> tuple[PreambleConfig, int]:
    """The preamble and pilot row whose costs ``otfs-sync complexity`` reports
    for ``cfg``: its own preamble, or the default one when it has none, and
    its pilot row.  With ``measure_runtime``, a preamble that cannot be
    built or that overruns the M*N-sample window, or a window the
    classifiers cannot run on (M*N not divisible by 8), is a ConfigError."""
    M, N = cfg.frame.M, cfg.frame.N
    preamble = cfg.preamble or PreambleConfig()
    if measure_runtime:
        try:
            zadoff_chu(preamble.length, preamble.root)  # the one crosscorr is timed with
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if preamble.length > M * N:
            raise ConfigError(f"timing crosscorr needs the {preamble.length}-sample preamble "
                              f"within the {M * N}-sample window")
        if M * N % 8:
            raise ConfigError(f"timing the classifiers needs M*N divisible by 8, got {M}x{N}")
    return preamble, cfg.pilot.m_p
