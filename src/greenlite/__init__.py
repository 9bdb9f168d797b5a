"""greenlite: a small-footprint detector benchmarking toolkit.

From-scratch inference graph for a CBAM-augmented one-stage detector,
post-training int8 quantization, detection/classification metrics, and a
resource profiler covering latency, peak tensor memory, model size, and
energy/carbon per pipeline stage.
"""

from .cbam import CbamParams, cbam_forward, channel_attention, spatial_attention
from .data import (
    AnnotatedImage,
    Dataset,
    class_distribution,
    load_manifest,
    read_ppm,
    save_manifest,
    split,
    synth_dataset,
    write_ppm,
)
from .errors import (
    CalibrationCoverageError,
    ContainerError,
    ContractViolation,
    DegenerateRangeError,
    ManifestError,
)
from .graph import (
    DEFAULT_CLASS_NAMES,
    Detection,
    Layer,
    LetterboxMeta,
    ModelGraph,
    ModelMeta,
    build_model,
    decode,
    format_detection,
    forward,
    iou,
    letterbox,
    letterbox_point,
    load_model,
    nms,
    parse_detection,
    save_model,
    save_model_bytes,
    unletterbox_point,
)
from .metrics import (
    ConfusionMatrix,
    GroundTruthBox,
    average_precision,
    class_weights,
    classification_metrics,
    detection_prf,
    map50,
    match_detections,
    undersample,
)
from .profiling import (
    DEFAULT_POWER_WATTS,
    EMISSIONS_CSV_HEADER,
    STAGES,
    TRACKER,
    WORLD_AVG_INTENSITY,
    EmissionRecord,
    LatencyStats,
    MemoryStats,
    StageReport,
    emissions,
    estimate_energy,
    parse_stage_report,
    resolve_energy_settings,
    stage_report,
    track_memory,
)
from .quant import (
    CalibrationStats,
    QuantizedModel,
    QuantizedTensor,
    QuantParams,
    calibrate,
    choose_params,
    dequantize,
    dequantize_array,
    fold_batchnorm,
    format_reduction,
    forward_quantized,
    load_any,
    load_quantized,
    quantize_array,
    quantize_model,
    quantize_tensor,
    quantized_conv2d,
    round_half_away,
    save_quantized,
    weight_params,
)
from .tensor import (
    ConvSpec,
    Tensor,
    activation,
    batchnorm_infer,
    concat_channels,
    conv2d,
    pool,
)

__version__ = "0.1.0"
