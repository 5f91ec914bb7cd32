"""Information-theoretic limits of sparse support recovery: threshold
formulas for the linear, 1-bit, and group-testing observation models, and
seeded Monte Carlo simulation of the matching decoders."""

from .model import (
    ModelSpec,
    Partition,
    ProblemDims,
    SignalPrior,
    enumerate_partitions,
    min_info_partition,
    sample_realization,
    snr_db,
)
from .info import density_variance, mutual_information
from .bounds import (
    BoundOptions,
    ThresholdResult,
    achievability_threshold_generic,
    converse_threshold_generic,
    cor_gt_noiseless,
    cor_gt_noisy,
    cor_gt_partial,
    cor_linear_exact,
    cor_linear_partial,
    cor_1bit_exact_lowsnr,
    cor_1bit_partial,
    figure_curves,
    psi_function_1bit,
)
from .sim import DecoderSpec, SimReport, decode_comp, decode_ml, decode_threshold, phase_sweep

__version__ = "0.1.0"

__all__ = [
    "BoundOptions",
    "DecoderSpec",
    "ModelSpec",
    "Partition",
    "ProblemDims",
    "SignalPrior",
    "SimReport",
    "ThresholdResult",
    "achievability_threshold_generic",
    "converse_threshold_generic",
    "cor_1bit_exact_lowsnr",
    "cor_1bit_partial",
    "cor_gt_noiseless",
    "cor_gt_noisy",
    "cor_gt_partial",
    "cor_linear_exact",
    "cor_linear_partial",
    "decode_comp",
    "decode_ml",
    "decode_threshold",
    "density_variance",
    "enumerate_partitions",
    "figure_curves",
    "min_info_partition",
    "mutual_information",
    "phase_sweep",
    "psi_function_1bit",
    "sample_realization",
    "snr_db",
]
