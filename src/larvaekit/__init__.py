"""Toolkit for larvae detection datasets: annotation handling, image
preprocessing, IoU-based evaluation, count extrapolation and growth-model
fitting."""

__version__ = "0.1.0"

from .annotations import (
    Box2D,
    BoxColumns,
    DatasetManifest,
    ImageAnnotation,
    LabeledBox,
    ManifestEntry,
    PixelBox,
    ScoredBox,
    detect_kind,
    load_image_annotation,
    load_manifest,
    parse_label_file,
    serialize_label_file,
    to_absolute,
    to_normalized,
)
from .raster import RasterImage, decode_raster, encode_raster
from .preprocessing import (
    add_gaussian_noise,
    area_quantile,
    center_crop,
    circular_mask,
    enlarge_small_boxes,
    gaussian_noise_stream,
    rotate90,
)
from .evaluation import (
    ConfusionCounts,
    DatasetEvaluation,
    EvalReport,
    MatchConfig,
    MatchResult,
    MetricSet,
    PRPoint,
    average_precision,
    confusion_metrics,
    evaluate_dataset,
    iou,
    match_detections,
    pr_curve,
)
from .counting import (
    CountRecord,
    DensityReport,
    DensityRow,
    count_image,
    density_summary,
    extrapolate_pond,
)
from .growth import (
    FitResult,
    GrowthModelKind,
    GrowthObservation,
    RankedModel,
    StageInterval,
    StageLookup,
    bundled_stage_means,
    fit,
    load_observations_csv,
    predict,
    r_squared,
    rank_models,
    stage_for_length,
)
