"""OTFS frame synchronization workbench.

Builds delay-Doppler frames, simulates fading captures with unknown timing
offsets, and estimates the offset three ways: preamble cross-correlation,
pilot-based 2-D autocorrelation, and a trainable coarse-to-fine residual
classifier with its own deterministic numpy training engine.
"""

from .channel import (
    AWGN_PROFILE,
    EVA_PROFILE,
    RAYLEIGH_PROFILE,
    ChannelKind,
    ChannelProfile,
    ChannelRealization,
    apply_awgn,
    apply_fading,
    realize_channel,
)
from .classic import (
    autocorr2d,
    autocorr2d_macs,
    autocorr2d_sync,
    cross_correlate_sync,
    cross_correlation_surface,
    crosscorr_macs,
)
from .dataset import (
    CaptureRecord,
    DataFormatError,
    Dataset,
    DatasetConfig,
    PreambleConfig,
    generate_dataset,
    label_of,
    per_record_rng,
    read_dataset,
    save_dataset,
    synthesize_capture,
    write_dataset,
)
from .frames import (
    DEFAULT_SAMPLE_RATE_HZ,
    FrameConfig,
    PilotConfig,
    build_dd_frame,
    dd_to_dt,
    deserialize_time,
    dt_to_dd,
    psk_constellation,
    serialize_time,
    toy_frame_config,
    zadoff_chu,
)
from .metrics import (
    ComplexityRow,
    MetricsRow,
    SweepModels,
    accuracy,
    complexity_report,
    rmse,
    rmse_raw,
    sweep,
    wrapped_error,
)
from .pipeline import (
    TrainHyper,
    TrainReport,
    TrainResult,
    compensate,
    compensate_batch,
    infer,
    infer_one_stage,
    infer_two_stage,
    train_coarse,
    train_fine,
    train_one_stage,
)

__version__ = "0.1.0"
