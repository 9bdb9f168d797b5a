"""Post-training int8 quantization and the quantized inference path.

Scheme (fixed): conv weights are per-channel symmetric int8 (scale =
max|w_c| / 127, zero point 0, one scale per output channel); activations
are per-tensor affine int8 with scale = (max' - min') / 255 over a
calibrated range widened to include 0, so real zero is exactly
representable. Rounding is half-away-from-zero everywhere. Biases are
stored as int32 at scale s_in * s_w_c. Batch norm is folded into the
preceding conv before quantization; CBAM attention arithmetic stays in
float (its weights are stored int8 and dequantized once, at load); the detect
head's accumulator is dequantized exactly, so the model output is float32
while every internal activation is int8.

Every int8 conv, the detect head included, accumulates through one builder,
QConvSpec.accumulator(z_in), in exact integer arithmetic:
  acc = sum (q_in - z_in) * q_w + q_bias          (int32 range)
It folds the input zero point into the bias once, bias' = q_bias - z_in *
sum(q_w) (padding uses z_in, so the fold is exact), so BLAS multiplies the
raw codes, and it returns the bound 128 * sum|q_w| + |bias'| that no |acc|
of a channel exceeds. A layer accumulates in float32 when every channel's
bound is below 2^24, which keeps every partial sum an integer float32 holds
exactly in any summation order; otherwise in float64. The accumulator is
tensor.conv_gemm, the float conv's GEMM, bound to the int8 weights, bias'
in the accumulator dtype and padding fill z_in. It runs in bands of output
rows, and each band's accumulator is requantized (or, in the head,
dequantized) as soon as it is made, so no full-plane float64 product is
ever held; each code depends only on its own accumulator, so the bands
change no output.

The requantization rule is exact and fixed: a conv output code is
  clip(round_half_away(fl64(acc * m_c)) + zp, -128, 127),  m_c = s_in * s_w_c / s_out,
and a float32 tensor x quantizes to clip(round_half_away(fl64(x) / s) + zp,
-128, 127); NaN raises ContractViolation. Each step has one float64 input t,
fl64(acc * m_c) in a conv step (_conv_step) or fl64(x) / s in a quantizer
step (_quantize_step), and both code maps read it: the exact rule,
partial(_requantize, zero_point=zp), or the cheaper affine map
clip(floor(t + zp + 128.5), 0, 255) - 128, partial(_affine_codes,
k=zp + 128.5). The public kernels (quantize_array, quantize_tensor,
quantized_conv2d) take the exact rule. A planned forward takes the affine
map for a step only after proving, once per model, that it equals the exact
rule on every possible input of that step: both maps are monotone, so they
agree everywhere when they step to each level at the same input, which a
check at a few adjacent inputs per level settles (see _steps_agree). A step
whose check fails (a negative tie such as m = 0.5 does) keeps the exact
rule, so planned and literal outputs are bit-identical either way.

Activation functions run as exact 256-entry lookup tables composing
dequantize -> f -> requantize. Max pooling reuses its input's params
(value-preserving, no requantization error); concat inputs are requantized
only if their params differ from the output's.

A QuantizedModel checks and plans everything at construction, and so at
load: the float graph's structural, shape and geometry checks, activation
params for every layer output with per-tensor scales in [2^-160, 2^120], and
each CBAM's weights, dequantized there once into finite CbamParams. Then
graph.plan binds each layer once to its accumulator, code map, output params
and lookup tables, and to the point where its output is released. Binding a
conv or the head (_bind_conv) checks its QConvSpec, whose weight scales and
accumulator scales (m_c, or s_in * s_w_c for the head) must be finite and
> 0, and the head's scale times its accumulator bound, which must not exceed
float32's largest value. Loading also requires each tensor in the dtype
save_quantized writes. A forward only runs the plan (graph.run), so a
model's weights and params must not change after it is built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import container as container_io
from .cbam import CbamParams, cbam_forward
from .errors import (
    CalibrationCoverageError,
    ContainerError,
    ContractViolation,
    DegenerateRangeError,
)
from .graph import (
    Layer,
    ModelGraph,
    ModelMeta,
    _layers_from_json,
    _layers_to_json,
    _meta_from_json,
    _meta_to_json,
    _model_from_container,
    forward,
    plan,
    run,
    validate_graph,
)
from .profiling import TRACKER
from .tensor import ACTIVATIONS, Tensor, conv_gemm, conv_geometry, max_windows

I32_MIN, I32_MAX = -(2**31), 2**31 - 1

# Bounds on a per-tensor (activation) scale s. Up to 2^120 every dequantized
# code s * (q - zp), |q - zp| <= 255, is a finite float32; from 2^-160 on,
# a float32 over s and 255 steps of one scale over another are finite
# float64s. The range holds the scale of every nonzero range of float32 data
# up to 255 * 2^120, just under float32's largest value.
_ACT_SCALE_MIN, _ACT_SCALE_MAX = 2.0**-160, 2.0**120


_BELOW_HALF = np.nextafter(0.5, 0.0)


def round_half_away(x, out=None):
    """Round to nearest with ties away from zero (scalar or ndarray).

    Computes copysign(floor(|x| + h), x) with h the largest double below 0.5,
    as trunc(x + copysign(h, x)), which is the same bit for bit because float
    rounding is symmetric in sign. floor(|x| + 0.5) is off where that sum
    rounds up: it turns 0.49999999999999994 into 1 and 2^52 + 1 into
    2^52 + 2; with h the sum reaches the next integer only from a half or
    more. out (which may be x) receives the result, as in numpy ufuncs.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.add(x, np.copysign(_BELOW_HALF, x), out=out)
    return np.trunc(y, out=out)


@dataclass(frozen=True)
class QuantParams:
    """int8 grid x ~ scale * (q - zero_point): an activation's is a float
    scale and an int zero point, a weight's a 1-d array of per-channel scales
    with zero point 0."""

    scale: float | np.ndarray
    zero_point: int

    def __post_init__(self) -> None:
        s = np.asarray(self.scale, dtype=np.float64)
        if not np.all(np.isfinite(s)) or np.any(s <= 0):
            raise ContractViolation("quant scales must be finite and > 0")
        if isinstance(self.scale, np.ndarray):
            if self.zero_point != 0:
                raise ContractViolation("symmetric params must have zero_point 0")
        elif not _ACT_SCALE_MIN <= self.scale <= _ACT_SCALE_MAX:
            raise ContractViolation(f"activation scales must lie in [2**-160, 2**120], got [{self.scale}]")
        if not -128 <= self.zero_point <= 127:
            raise ContractViolation("zero points must lie in [-128, 127]")


def choose_params(vmin: float, vmax: float) -> QuantParams:
    """Per-tensor affine int8 params for an observed [vmin, vmax] value range.

    The range is widened to include 0 (so 0 is exactly representable) and
    spread over 255 steps. An all-zero/empty range has no usable grid.
    Weights use the symmetric rule instead (weight_params).
    """
    if not (math.isfinite(vmin) and math.isfinite(vmax)) or vmin > vmax:
        raise ContractViolation(f"bad range [{vmin}, {vmax}]")
    lo, hi = min(vmin, 0.0), max(vmax, 0.0)
    if lo == 0.0 and hi == 0.0:
        raise DegenerateRangeError("cannot quantize an all-zero range")
    scale = (hi - lo) / 255.0
    zp = int(np.clip(round_half_away(-lo / scale) - 128, -128, 127))
    return QuantParams(scale, zp)


def weight_params(weight: np.ndarray) -> QuantParams:
    """Per-channel symmetric params along the leading (out-channel) axis.

    All-zero channels get scale 1.0; they quantize to exact zeros either way.
    """
    flat = np.abs(weight.reshape(weight.shape[0], -1)).max(axis=1).astype(np.float64)
    scales = np.where(flat > 0, flat / 127.0, 1.0)
    return QuantParams(scales, 0)


def _grid(params: QuantParams, shape: tuple[int, ...]) -> tuple:
    """params' scale and zero point broadcast over an array of this shape:
    scalars for a float or one-entry scale, else (C, 1, ...) with C the leading dim."""
    scale = np.reshape(params.scale, -1)
    k = len(scale)
    if k == 1:
        return scale.item(), params.zero_point
    if shape[:1] != (k,):
        raise ContractViolation(f"per-channel params are for {k} channels, got shape {shape}")
    return scale.reshape((k,) + (1,) * (len(shape) - 1)), params.zero_point


def _scaled(arr: np.ndarray, scale) -> np.ndarray:
    """t = fl64(x) / s in one pass, what every float -> int8 code map reads; NaN raises ContractViolation."""
    if np.isnan(arr).any():
        raise ContractViolation("cannot quantize a tensor holding NaN")
    return np.divide(arr, scale, dtype=np.float64)


def quantize_array(arr: np.ndarray, params: QuantParams) -> np.ndarray:
    scale, zero_point = _grid(params, np.shape(arr))
    return _requantize(_scaled(arr, scale), zero_point)


def dequantize_array(q: np.ndarray, params: QuantParams) -> np.ndarray:
    qi = np.asarray(q, dtype=np.float64)
    scale, zero_point = _grid(params, qi.shape)
    return (scale * (qi - zero_point)).astype(np.float32)


class QuantizedTensor:
    """Dense (n, c, h, w) int8 payload carrying its own per-tensor params."""

    __slots__ = ("arr", "params", "__weakref__")

    def __init__(self, arr: np.ndarray, params: QuantParams) -> None:
        arr = np.ascontiguousarray(arr, dtype=np.int8)
        if arr.ndim != 4:
            raise ContractViolation(f"quantized tensor must be 4-d, got ndim={arr.ndim}")
        if isinstance(params.scale, np.ndarray):
            raise ContractViolation("activation tensors use per-tensor params")
        self.arr = arr
        self.params = params
        TRACKER.track(self, arr.size)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(int(d) for d in self.arr.shape)  # type: ignore[return-value]


def quantize_tensor(x: Tensor, params: QuantParams) -> QuantizedTensor:
    return QuantizedTensor(quantize_array(x.arr, params), params)


def dequantize(q: QuantizedTensor) -> Tensor:
    return Tensor(dequantize_array(q.arr, q.params))


# --- calibration --------------------------------------------------------------


INPUT_SLOT = "input"


def slot_key(layer_index: int) -> str:
    return INPUT_SLOT if layer_index == -1 else f"L{layer_index:03d}"


def calibrate(model: ModelGraph, images) -> dict[str, tuple[float, float]]:
    """Run the float graph over images (any iterable, read once), returning
    every slot's (min, max) over them."""
    ranges: dict[str, tuple[float, float]] = {}

    def observe(key: str, arr: np.ndarray) -> None:
        lo, hi = float(arr.min()), float(arr.max())
        cur = ranges.get(key)
        ranges[key] = (lo, hi) if cur is None else (min(cur[0], lo), max(cur[1], hi))

    for img in images:
        observe(INPUT_SLOT, img.arr)
        forward(model, img, hook=lambda idx, out: observe(slot_key(idx), out.arr))
    if not ranges:
        raise ContractViolation("calibration needs at least one image")
    return ranges


# --- batch norm folding -------------------------------------------------------


def fold_batchnorm(model: ModelGraph) -> tuple[ModelGraph, list[str]]:
    """Fold every bn into the conv it reads, in one pass; returns the folded
    graph and, per new layer, the calibration key of its output in model's
    indexing. A bn reading no conv, or a conv another layer also reads, is
    refused by model's indices. A folded conv gets new arrays; every other
    array is shared with model, not copied."""
    consumers = Counter(ref for layer in model.layers for ref in layer.inputs)
    new_weights = {slot: dict(arrays) for slot, arrays in model.weights.items()}
    new_layers: list[Layer] = []
    stats_keys: list[str] = []
    remap = {-1: -1}  # old layer index -> new
    for idx, layer in enumerate(model.layers):
        src = layer.inputs[0]
        if layer.kind == "bn":
            cannot = f"layer {idx} (bn) cannot be folded"
            if src < 0 or model.layers[src].kind != "conv":
                read = "the input" if src < 0 else f"layer {src} ({model.layers[src].kind})"
                raise ContractViolation(f"{cannot}: it reads {read}, not a conv")
            if consumers[src] > 1:
                other = next(i for i, l in enumerate(model.layers) if src in l.inputs and i != idx)
                raise ContractViolation(f"{cannot}: conv {src} is also read by layer {other}")
            bn = new_weights.pop(layer.slot)
            eps = model.layer_attrs[idx].eps
            k = bn["gamma"].astype(np.float64) / np.sqrt(bn["var"].astype(np.float64) + eps)
            slot = new_weights[model.layers[src].slot]
            w64 = slot["weight"].astype(np.float64) * k[:, None, None, None]
            b64 = (slot["bias"].astype(np.float64) - bn["mean"].astype(np.float64)) * k
            b64 += bn["beta"].astype(np.float64)
            slot["weight"] = w64.astype(np.float32)
            slot["bias"] = b64.astype(np.float32)
            # The folded conv now produces what the bn produced.
            remap[idx] = remap[src]
            stats_keys[remap[src]] = slot_key(idx)
            continue
        new_inputs = tuple(remap[ref] for ref in layer.inputs)
        new_layers.append(Layer(layer.kind, new_inputs, layer.slot, dict(layer.attrs)))
        remap[idx] = len(new_layers) - 1
        stats_keys.append(slot_key(idx))
    return ModelGraph(new_layers, new_weights, model.meta), stats_keys


# --- quantized model ----------------------------------------------------------


_CBAM_WEIGHTS = ("mlp_w1", "mlp_w2", "spatial_weight")
_CBAM_FLOATS = ("mlp_b1", "mlp_b2", "spatial_bias")

# The dtype save_quantized writes each array of a conv or CBAM slot in; load requires it.
_CONV_DTYPES = {"q_weight": np.int8, "w_scale": np.float64, "q_bias": np.int32}
_CBAM_DTYPES = {f"{n}_{p}": t for n in _CBAM_WEIGHTS for p, t in (("q", np.int8), ("scale", np.float64))}
_CBAM_DTYPES.update(dict.fromkeys(_CBAM_FLOATS, np.float32))


def _dequantized_cbam(slot: str, w: dict[str, np.ndarray]) -> CbamParams:
    """A CBAM slot's params with its int8 weights dequantized, each finite."""
    kwargs = {name: w[name] for name in _CBAM_FLOATS}
    for name, arr in kwargs.items():
        if not np.isfinite(arr).all():
            raise ContractViolation(f"tensor {slot}/{name} holds NaN or inf")
    for name in _CBAM_WEIGHTS:
        with np.errstate(over="ignore"):  # an inf weight fails the check below
            kwargs[name] = dequantize_array(w[f"{name}_q"], QuantParams(w[f"{name}_scale"], 0))
        if not np.all(np.isfinite(kwargs[name])):
            raise ContractViolation(f"cbam {name} dequantizes to weights beyond float32's range")
    return CbamParams(**kwargs)


def _float_named(conv_weights, cbam_params) -> dict[str, dict[str, np.ndarray]]:
    """Conv slots' int8 arrays and CBAM slots' dequantized params, as the float graph's checks read them."""
    view = {slot: {"weight": w["q_weight"], "bias": w["q_bias"]} for slot, w in conv_weights.items()}
    view.update((slot, vars(params)) for slot, params in cbam_params.items())
    return view


class QuantizedModel:
    """Folded graph with int8 conv weights and per-slot activation params, checked and planned once."""

    def __init__(
        self,
        layers: list[Layer],
        meta: ModelMeta,
        conv_weights: dict[str, dict[str, np.ndarray]],
        cbam_weights: dict[str, dict[str, np.ndarray]],
        act_params: dict[str, QuantParams],
    ) -> None:
        self.layers = layers
        self.meta = meta
        self.conv_weights = conv_weights
        self.cbam_weights = cbam_weights
        self.act_params = act_params
        self._cbam_params = {slot: _dequantized_cbam(slot, w) for slot, w in cbam_weights.items()}
        self.layer_attrs = validate_graph(
            SimpleNamespace(layers=layers, meta=meta, weights=_float_named(conv_weights, self._cbam_params))
        )
        needed = {INPUT_SLOT} | {
            slot_key(i) for i, layer in enumerate(layers) if layer.kind != "detect_head"
        }
        if not needed <= act_params.keys():
            raise ContractViolation(
                f"no activation params for slots {sorted(needed - act_params.keys())}"
            )
        self.quantize_input = _bind_quantizer(act_params[INPUT_SLOT])
        self.steps = plan(layers, partial(_bind, self))
        # Dequantized CBAM weights live beside their int8 codes; the biases are the slot's own arrays.
        slots = (*conv_weights.values(), *cbam_weights.values())
        TRACKER.track(
            self,
            *(arr.nbytes for slot in slots for arr in slot.values()),
            *(getattr(p, name).nbytes for p in self._cbam_params.values() for name in _CBAM_WEIGHTS),
        )

    def cbam_params(self, slot: str) -> CbamParams:
        """The slot's CBAM params with its int8 weights dequantized, as load built them."""
        return self._cbam_params[slot]

    def param_count(self) -> int:
        groups = list(self.conv_weights.values()) + list(self.cbam_weights.values())
        return sum(int(a.size) for slot in groups for a in slot.values())


def quantize_model(model: ModelGraph, ranges: dict[str, tuple[float, float]]) -> QuantizedModel:
    """Fold bn (fold_batchnorm refuses a bn it cannot fold), check that ranges
    ({slot: (min, max)}, as calibrate returns) cover every slot, then in one
    pass over the folded layers pick each layer's activation params and
    quantize its weights."""
    folded, stats_keys = fold_batchnorm(model)
    missing = {INPUT_SLOT, *stats_keys} - ranges.keys()
    if missing:
        raise CalibrationCoverageError(sorted(missing))
    act_params: dict[str, QuantParams] = {INPUT_SLOT: choose_params(*ranges[INPUT_SLOT])}
    conv_weights: dict[str, dict[str, np.ndarray]] = {}
    cbam_weights: dict[str, dict[str, np.ndarray]] = {}
    for j, layer in enumerate(folded.layers):
        # A layer's inputs come before it, so their params are already set.
        in_params = act_params[slot_key(layer.inputs[0])]
        if layer.kind == "pool":
            # Max pooling is value-preserving: it inherits its input's grid exactly.
            act_params[slot_key(j)] = in_params
        elif layer.kind != "detect_head":  # the head's output stays float
            act_params[slot_key(j)] = choose_params(*ranges[stats_keys[j]])
        slot = folded.weights.get(layer.slot)
        if layer.kind in ("conv", "detect_head"):
            wp = weight_params(slot["weight"])
            bias_scale = in_params.scale * wp.scale
            q_bias = np.clip(round_half_away(slot["bias"].astype(np.float64) / bias_scale), I32_MIN, I32_MAX)
            conv_weights[layer.slot] = {
                "q_weight": quantize_array(slot["weight"], wp),
                "w_scale": wp.scale,
                "q_bias": q_bias.astype(np.int32),
            }
        elif layer.kind == "cbam":
            packed = {name: slot[name].astype(np.float32) for name in _CBAM_FLOATS}
            for name in _CBAM_WEIGHTS:
                wp = weight_params(slot[name])
                packed[f"{name}_q"] = quantize_array(slot[name], wp)
                packed[f"{name}_scale"] = wp.scale
            cbam_weights[layer.slot] = packed

    return QuantizedModel(folded.layers, folded.meta, conv_weights, cbam_weights, act_params)


# --- quantized kernels --------------------------------------------------------


# Integers whose magnitudes add up to less than 2^24 sum exactly in float32, in
# any order: every partial sum is itself such an integer.
_F32_EXACT = 2**24


@dataclass
class QConvSpec:
    """int8 conv weights: per-channel scales, int32 bias at s_in * s_w_c.

    Construction checks what every accumulator relies on: per-channel
    lengths, weight scales finite and > 0, and a fan-in float64 sums exactly.
    """

    q_weight: np.ndarray
    w_scale: np.ndarray
    q_bias: np.ndarray
    stride: int = 1
    padding: int = 0
    groups: int = 1
    w_sums: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.q_weight = np.ascontiguousarray(self.q_weight, dtype=np.int8)
        self.w_scale = np.asarray(self.w_scale, dtype=np.float64).reshape(-1)
        self.q_bias = np.ascontiguousarray(self.q_bias, dtype=np.int32)
        geometry = (self.stride, self.padding, self.groups)
        ic, oc, k = conv_geometry(self.q_weight.shape, self.q_bias.shape, *geometry)
        if self.w_scale.shape != (oc,):
            raise ContractViolation("per-channel scale length must equal out_channels")
        if not np.all((self.w_scale > 0) & (self.w_scale < np.inf)):  # NaN fails both
            raise ContractViolation("weight scales must be finite and > 0")
        if ic // self.groups * k * k > 2**37:
            raise ContractViolation("conv fan-in too large for exact float64 accumulation")
        w = self.q_weight.reshape(oc, -1).astype(np.int64)
        self.w_sums = w.sum(axis=1), np.abs(w).sum(axis=1)  # sum(q_w), sum|q_w|

    def accumulator(self, z_in: int) -> tuple[Callable[..., np.ndarray], np.ndarray]:
        """The exact integer accumulator for codes on zero point z_in, q_in ->
        sum (q_in - z_in) * q_w + q_bias as (n, oc, oh, ow), and its
        per-channel bound 128 * sum|q_w| + |bias'|, which no |acc| exceeds.

        The input zero point is folded into the bias here, once: bias' =
        q_bias - z_in * sum(q_w), so the matmul takes the raw codes; padding
        with z_in keeps the fold exact. When every channel's bound is below
        2^24, no partial sum leaves the integers float32 holds exactly, so
        the patch matrix and the matmul are float32. Otherwise they are
        float64, exact for fan-in up to 2^37. Either way BLAS does the matmul
        and the result is integer-valued bit for bit. The accumulator takes
        conv_gemm's finish, applied to each band of output rows.
        """
        w_sum, w_abs_sum = self.w_sums
        bias = self.q_bias.astype(np.int64) - z_in * w_sum
        bound = 128 * w_abs_sum + np.abs(bias)
        bias = bias.astype(np.float32 if bool(np.all(bound < _F32_EXACT)) else np.float64)
        geometry = (self.stride, self.padding, self.groups)
        return partial(conv_gemm, self.q_weight, bias, *geometry, z_in), bound


def _requantize(t: np.ndarray, zero_point) -> np.ndarray:
    """int8 codes clip(round_half_away(t) + zero_point, -128, 127), reusing the
    float64 array t. Clipping t to [-128 - zp, 127 - zp] first gives the same
    codes, because rounding is monotone and keeps integers; any wider bound
    would let the int8 cast wrap."""
    t = np.asarray(t)  # a 0-d array for scalar input, so the in-place steps work
    np.clip(t, -128 - zero_point, 127 - zero_point, out=t)
    round_half_away(t, out=t)
    t += zero_point
    return t.astype(np.int8)


def _acc_scale(
    in_params: QuantParams, spec: QConvSpec, out_params: QuantParams | None = None
) -> np.ndarray:
    """The float64 per-channel factor on a conv's accumulator, shaped to
    broadcast: m_c = s_in * s_w_c / s_out, or s_in * s_w_c for the head,
    whose accumulator is dequantized to float32 (no out_params)."""
    scale = in_params.scale * spec.w_scale
    if out_params is not None:
        scale = scale / out_params.scale
    return scale.reshape(1, -1, 1, 1)


def _conv_step(
    accumulate: Callable[..., np.ndarray],
    mult: np.ndarray,
    codes: Callable[[np.ndarray], np.ndarray],
    out_params: QuantParams,
    x: QuantizedTensor,
) -> QuantizedTensor:
    """The int8 conv: the exact accumulator of x's codes times the float64
    per-channel multiplier m_c, turned into codes in place by codes, the
    exact rule partial(_requantize, zero_point=zp) or a proven
    partial(_affine_codes, k=zp + 128.5), one band of output rows at a time
    (tensor.conv_gemm)."""
    return QuantizedTensor(accumulate(x.arr, finish=lambda acc: codes(acc * mult)), out_params)


def quantized_conv2d(x: QuantizedTensor, spec: QConvSpec, out_params: QuantParams) -> QuantizedTensor:
    """int8 conv by the exact rule: integer accumulation, then one
    requantization to out_params (per-tensor, as QuantizedTensor requires)."""
    c, ic = x.arr.shape[1], spec.q_weight.shape[1] * spec.groups
    if ic != c:
        raise ContractViolation(f"quantized conv expects {ic} channels, got {c}")
    accumulate, _ = spec.accumulator(x.params.zero_point)
    codes = partial(_requantize, zero_point=out_params.zero_point)
    return _conv_step(accumulate, _acc_scale(x.params, spec, out_params), codes, out_params, x)


# --- planned requantization ---------------------------------------------------
#
# The affine map costs a multiply, an add, a clip and a uint8 cast where the
# exact rule clips, rounds half away from zero in three steps and adds zp. The
# two differ on negative ties and where fl64(y + K) rounds across an integer,
# hence the per-step proof (module docstring).

_LEVELS = np.arange(-127, 128, dtype=np.float64)[:, None]  # the checked codes, one per row


def _affine_codes(t: np.ndarray, k) -> np.ndarray:
    """int8 codes clip(floor(t + k), 0, 255) - 128, reusing the float64 array t.

    The uint8 cast truncates, which is floor on [0, 255], and flipping the top
    bit turns u into u - 128 read as int8.
    """
    t += k
    np.clip(t, 0, 255, out=t)
    u = t.astype(np.uint8)
    u ^= np.uint8(0x80)
    return u.view(np.int8)


def _steps_agree(t: np.ndarray, zp) -> bool:
    """Whether the exact rule _requantize(t, zp) and the affine map
    _affine_codes(t, zp + 128.5), both monotone in the input, agree on a
    whole ordered input domain; t is consumed. Row [..., i, :] holds t at
    adjacent inputs near where the exact code first reaches level L =
    _LEVELS[i]. A monotone map is fixed by where it first reaches each level,
    so the maps agree everywhere when in every row the exact code steps from
    below L to L or above and the affine codes equal the exact ones. A row
    that misses its step fails the check; no wrong map passes.
    """
    exact = _requantize(t.copy(), zp)
    if not np.array_equal(_affine_codes(t, zp + 128.5), exact):
        return False
    return bool(np.all(((exact[..., :-1] < _LEVELS) & (_LEVELS <= exact[..., 1:])).any(axis=-1)))


def _proves_conv_affine(mult: np.ndarray, zp, bound: np.ndarray) -> bool:
    """Whether _affine_codes(acc * m_c, zp + 128.5) equals the exact rule
    _requantize(acc * m_c, zp) for every channel c and every integer acc with
    |acc| <= bound[c], both products taken in float64 (_steps_agree). Level
    L's row is est - 1, est with est = ceil((L - zp - 0.5) / m_c) clipped to
    [-bound, bound + 1]; an acc just outside [-bound, bound] stands for -inf
    or +inf, below or above the whole range.
    """
    m = np.asarray(mult, dtype=np.float64).reshape(-1, 1, 1)
    # No re-check: _bind_conv has refused every m that is not finite and > 0, and
    # with |q_w|, |z_in| <= 128 and QConvSpec's fan-in limit F <= 2**37 every bound
    # is at most 128 * 128 * F + 2**31 + 128 * 128 * F <= 2**52 + 2**31 < 2**53.
    b = np.asarray(bound, dtype=np.int64).reshape(-1, 1, 1).astype(np.float64)
    # Far thresholds of a tiny m are clipped; a t past float64's range is inf, as in the step.
    with np.errstate(over="ignore"):
        est = np.clip(np.ceil((_LEVELS - zp - 0.5) / m), -b, b + 1)
        acc = np.concatenate([est - 1, est], axis=-1)
        t = acc * m
    t[acc < -b], t[acc > b] = -np.inf, np.inf
    return _steps_agree(t, zp)


def _proves_quantizer_affine(scale, zp) -> bool:
    """Whether _affine_codes(x / scale, zp + 128.5) equals the exact
    quantize_array rule _requantize(x / scale, zp) for every float32 x, +-inf
    included, with the quotient in float64 (_steps_agree). Level L's row is
    e = fl32((L - zp - 0.5) * scale) between its two float32 neighbours.
    """
    s = np.float64(scale)
    with np.errstate(over="ignore"):  # thresholds past the float32 range become +-inf
        e = ((_LEVELS - zp - 0.5) * s).astype(np.float32)
    inf = np.float32(np.inf)
    x = np.concatenate([np.nextafter(e, -inf), e, np.nextafter(e, inf)], axis=-1)
    return _steps_agree(np.divide(x, s, dtype=np.float64), zp)


def _code_map(proven: bool, zp) -> Callable[[np.ndarray], np.ndarray]:
    """The code map a step binds: the affine map where proven, else the exact rule."""
    return partial(_affine_codes, k=zp + 128.5) if proven else partial(_requantize, zero_point=zp)


def _bind_conv(spec: QConvSpec, in_params: QuantParams, out_params: QuantParams | None) -> Callable:
    """The conv step for this input grid, checked here: its accumulator
    scales must be finite and > 0. A conv takes the affine map where it is
    proven exact on the accumulator's bound, the exact rule otherwise. The
    head (out_params None) dequantizes its accumulator exactly to float32,
    and its scale times that bound must not exceed float32's largest value."""
    accumulate, bound = spec.accumulator(in_params.zero_point)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the checks
        mult = _acc_scale(in_params, spec, out_params)
        top = mult.reshape(-1) * bound  # bounds the head's |output|
    if not np.all((mult > 0) & (mult < np.inf)):
        raise ContractViolation("accumulator scales must be finite and > 0")
    if out_params is None:
        if np.any(top > np.finfo(np.float32).max):
            raise ContractViolation("outputs could exceed float32's range")
        return lambda q: Tensor(accumulate(q.arr, finish=lambda acc: (acc * mult).astype(np.float32)))
    zp = out_params.zero_point
    codes = _code_map(_proves_conv_affine(mult, zp, bound), zp)
    return partial(_conv_step, accumulate, mult, codes, out_params)


def _quantize_step(codes: Callable, params: QuantParams, x: Tensor) -> QuantizedTensor:
    """float32 -> int8 onto params: codes(fl64(x) / s) by its bound code map; NaN raises ContractViolation."""
    return QuantizedTensor(codes(_scaled(x.arr, params.scale)), params)


def _bind_quantizer(params: QuantParams) -> Callable[[Tensor], QuantizedTensor]:
    """float32 -> int8 onto params by the affine map where it is proven exact, else by the exact rule."""
    zp = params.zero_point
    return partial(_quantize_step, _code_map(_proves_quantizer_affine(params.scale, zp), zp), params)


def _pointwise_lut(in_params: QuantParams, out_params: QuantParams, fn) -> np.ndarray:
    """256-entry int8 -> int8 table for quant(fn(dequant(v))), indexed by v + 128."""
    v = np.arange(-128, 128, dtype=np.float64)
    return quantize_array(fn(in_params.scale * (v - in_params.zero_point)), out_params)


def _code_table(lut: np.ndarray) -> bytes:
    """The same table as 256 bytes indexed by each code's uint8 bit pattern
    instead of v + 128, the form bytearray.translate takes."""
    return np.roll(lut, 128).tobytes()


def _regrid_table(in_params: QuantParams, out_params: QuantParams) -> bytes | None:
    """Code table moving codes between grids; None when the grids are the same."""
    if in_params == out_params:
        return None
    return _code_table(_pointwise_lut(in_params, out_params, ACTIVATIONS["identity"]))


def _apply_lut(q: QuantizedTensor, table: bytes | None, out_params: QuantParams) -> QuantizedTensor:
    """Map every code through a code table; no table passes q through.

    bytearray.translate maps the bytes directly, where np.take would first
    widen every uint8 index to intp; the result is a writable view of the
    new bytearray.
    """
    if table is None:
        return q
    codes = np.frombuffer(bytearray(q.arr).translate(table), dtype=np.int8)
    return QuantizedTensor(codes.reshape(q.arr.shape), out_params)


def _maxpool_int8(q: QuantizedTensor, kernel: int, stride: int, padding: int) -> QuantizedTensor:
    return QuantizedTensor(max_windows(q.arr, kernel, stride, padding, np.int8(-128)), q.params)


def _bind(model: QuantizedModel, idx: int, layer: Layer) -> Callable:
    """One layer as a function of its input tensors, with every per-model
    value (accumulator, multiplier, code map, LUT, params) computed and
    checked here, once, when the model is built."""
    kind = layer.kind
    out_params = model.act_params.get(slot_key(idx))
    in_params = model.act_params[slot_key(layer.inputs[0])]
    a = model.layer_attrs[idx]
    if kind in ("conv", "detect_head"):
        qw = model.conv_weights[layer.slot]
        try:
            spec = QConvSpec(qw["q_weight"], qw["w_scale"], qw["q_bias"], a.stride, a.padding, a.groups)
            # The head's output stays float, whatever act_params holds for its slot.
            return _bind_conv(spec, in_params, out_params if kind == "conv" else None)
        except ContractViolation as exc:
            raise ContractViolation(f"layer {idx} ({kind}): {exc}") from None
    if kind == "act":
        table = _code_table(_pointwise_lut(in_params, out_params, ACTIVATIONS[a.fn]))
        return lambda q: _apply_lut(q, table, out_params)
    if kind == "concat":
        tables = [
            _regrid_table(model.act_params[slot_key(ref)], out_params) for ref in layer.inputs
        ]

        def concat(*qs: QuantizedTensor) -> QuantizedTensor:
            parts = [_apply_lut(q, t, out_params).arr for q, t in zip(qs, tables)]
            return QuantizedTensor(np.concatenate(parts, axis=1), out_params)

        return concat
    if kind == "cbam":
        params = model.cbam_params(layer.slot)
        quantize = _bind_quantizer(out_params)
        return lambda q: quantize(cbam_forward(dequantize(q), params))
    if kind == "pool":  # validated as a max pool
        table = _regrid_table(in_params, out_params)
        return lambda q: _apply_lut(_maxpool_int8(q, a.kernel, a.stride, a.padding), table, out_params)
    # bn never gets here: validation finds no bn params in a quantized model.
    raise ContractViolation(f"unsupported quantized layer kind {layer.kind!r}")


def forward_quantized(model: QuantizedModel, x: Tensor, hook=None) -> Tensor:
    """Run the int8 plan on a float (1, 3, S, S) input; returns the float head.

    Each intermediate output, the quantized input included, is dropped right
    after its last consumer runs. hook(idx, out) is called for every layer
    output, as in graph.forward.
    """
    return run(model.steps, model.quantize_input(x), model.meta.input_size, hook)


# --- serialization ------------------------------------------------------------


def _int8_container(model: QuantizedModel) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    """The int8 model's container document and named tensors."""
    tensors: list[tuple[str, np.ndarray]] = []
    for slot in sorted(model.conv_weights):
        for name in _CONV_DTYPES:
            tensors.append((f"{slot}/{name}", model.conv_weights[slot][name]))
    for slot in sorted(model.cbam_weights):
        for name in sorted(model.cbam_weights[slot]):
            tensors.append((f"{slot}/{name}", model.cbam_weights[slot][name]))
    doc = {
        "container": "int8",
        "layers": _layers_to_json(model.layers),
        "meta": _meta_to_json(model.meta),
        "act_params": {
            key: {"scale": float(p.scale), "zero_point": int(p.zero_point)}
            for key, p in sorted(model.act_params.items())
        },
        "conv_slots": sorted(model.conv_weights),
        "cbam_slots": sorted(model.cbam_weights),
    }
    return doc, tensors


def save_quantized_bytes(model: QuantizedModel) -> bytes:
    return container_io.write_container(*_int8_container(model))


def save_quantized(model: QuantizedModel, path: str) -> int:
    """Write the same bytes as save_quantized_bytes straight to path; returns their count."""
    return container_io.save(container_io.pieces(*_int8_container(model)), path)


def load_quantized(path_or_bytes) -> QuantizedModel:
    return _quantized_from_container(*container_io.read_container(path_or_bytes))


def _quantized_from_container(doc: dict, tensors: dict[str, np.ndarray]) -> QuantizedModel:
    """An int8 model from a parsed container's document and tensors."""
    if doc.get("container") != "int8":
        raise ContainerError(f"expected an int8 container, got {doc.get('container')!r}")
    require = container_io.require

    def arrays(slot: str, dtypes: dict) -> dict[str, np.ndarray]:
        out = {name: require(tensors, f"{slot}/{name}") for name in dtypes}
        for name, dtype in dtypes.items():
            if out[name].dtype != dtype:
                raise ContainerError(f"tensor {slot}/{name} must be {np.dtype(dtype)}, got {out[name].dtype}")
        return out

    conv_weights = {slot: arrays(slot, _CONV_DTYPES) for slot in require(doc, "conv_slots", list)}
    cbam_weights = {slot: arrays(slot, _CBAM_DTYPES) for slot in require(doc, "cbam_slots", list)}
    act_params = {}
    for key, p in require(doc, "act_params", dict).items():
        scale, zp = require(p, "scale", float), require(p, "zero_point")
        if type(zp) is not int or not -128 <= zp <= 127:  # not a bool, and fits an int64
            raise ContainerError(f"act_params {key!r}: zero_point must be an int in [-128, 127], got {zp!r}")
        act_params[key] = QuantParams(scale, zp)
    return QuantizedModel(
        _layers_from_json(require(doc, "layers", list)),
        _meta_from_json(require(doc, "meta")),
        conv_weights,
        cbam_weights,
        act_params,
    )


def load_any(path_or_bytes):
    """Load either container kind; returns ModelGraph or QuantizedModel.

    The container is read and parsed once, then built by its kind.
    """
    doc, tensors = container_io.read_container(path_or_bytes)
    kind = doc.get("container")
    if kind == "float":
        return _model_from_container(doc, tensors)
    if kind == "int8":
        return _quantized_from_container(doc, tensors)
    raise ContainerError(f"unknown container kind {kind!r}")


def format_reduction(orig_size: float, quant_size: float) -> str:
    """Size reduction percent, one decimal: 6.1 -> 3.5 renders as '42.6%'."""
    if orig_size <= 0:
        raise ContractViolation("original size must be > 0")
    return f"{(1.0 - quant_size / orig_size) * 100.0:.1f}%"
