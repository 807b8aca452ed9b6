"""raincast: probabilistic precipitation nowcasting at desk scale.

Ordinal-consistent exceedance forecasting, single-pass multi-lead training
with lead-time weights, threshold-calibrated intensity extraction, a full
verification-metric suite, extrapolation baselines, and a miniature
differentiable forecaster, exercised end to end on synthetic radar
sequences.
"""

from .intensity import BinSet, ClassMasks, bucket_representative, classify, clip_dbz, dbz_to_rate, exceedance_masks, rate_to_dbz
from .probcast import (
    LeadWeights,
    ThresholdTable,
    calibrate_thresholds,
    ce_loss,
    crps,
    extract_intensity,
    lead_time_weights,
    ordinal_loss,
    reconstruct,
)
from .raster import SENTINEL, SourceStack
from .verify import ConfusionCounts, EvalSample, ReportConfig, SkillReport, accumulate_confusion, build_report, categorical_scores, error_scores, fss, pooled_csi, ssim

__version__ = "0.1.0"
