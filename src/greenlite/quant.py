"""Post-training int8 quantization and the quantized inference path.

Scheme (fixed): conv weights are per-channel symmetric int8 (scale =
max|w_c| / 127, zero point 0, one scale per output channel); activations
are per-tensor affine int8 with scale = (max' - min') / 255 over a
calibrated range widened to include 0, so real zero is exactly
representable. Rounding is half-away-from-zero everywhere. Biases are
stored as int32 at scale s_in * s_w_c. Batch norm is folded into the
preceding conv before quantization; CBAM attention arithmetic stays in
float (its weights are stored int8 and dequantized on load); the detect
head's accumulator is dequantized exactly, so the model output is float32
while every internal activation is int8.

Convolutions accumulate in exact integer arithmetic:
  acc = sum (q_in - z_in) * q_w + q_bias          (int32 range)
  q_out = clamp(round(acc * s_in * s_w_c / s_out) + z_out, -128, 127)
The input zero point is folded into the bias, bias' = q_bias - z_in *
sum(q_w) (padding uses z_in, so the fold is exact), and BLAS multiplies the
raw codes. A layer accumulates in float32 when every output channel has
128 * sum|q_w| + |bias'| < 2^24, which keeps every partial sum an integer
float32 holds exactly in any summation order; otherwise in float64. The
product acc * s_in * s_w_c / s_out is formed in float64 and rounded once.

The requantization rule is exact and fixed: a conv output code is
  clip(round_half_away(fl64(acc * m_c)) + zp, -128, 127),  m_c = s_in * s_w_c / s_out,
and a float32 tensor x quantizes to clip(round_half_away(fl64(x) / s) + zp,
-128, 127). The public kernels (quantize_array, quantize_tensor,
quantized_conv2d) compute it literally. A planned forward instead binds each
conv and each float32 -> int8 quantizer to the cheaper affine map
clip(floor(fl64(v * m) + zp + 128.5), 0, 255) - 128 (m = 1/s for a
quantizer), but only after proving, once per model, that the map equals the
exact rule on every possible input of that step: both maps are monotone, so
they agree everywhere when they step to each level at the same input, which
a check at two inputs per level settles (see _proves_conv_affine). A step
whose check fails (a negative tie such as m = 0.5 does) keeps the exact rule,
so planned and literal outputs are bit-identical either way.

Activation functions run as exact 256-entry lookup tables composing
dequantize -> f -> requantize. Max pooling reuses its input's params
(value-preserving, no requantization error); concat inputs are requantized
only if their params differ from the output's.

A QuantizedModel checks its graph at construction, and so at load, with the
float graph's structural and geometry checks. The first forward pass plans
the model once through graph.plan: each layer is bound to its conv spec,
proven requantization map, output params and lookup tables, and to the
point where its output is released; graph.run executes the plan. Later
passes reuse the plan, so a model's weights and params must not change
after its first forward.
"""

from __future__ import annotations

import math
import weakref
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
    Step,
    _layers_from_json,
    _layers_to_json,
    _meta_from_json,
    _meta_to_json,
    plan,
    run,
    validate_graph,
)
from .profiling import TRACKER
from .tensor import Tensor, _sigmoid64, max_windows

PER_TENSOR_AFFINE = "per_tensor_affine"
PER_CHANNEL_SYMMETRIC = "per_channel_symmetric"

I32_MIN, I32_MAX = -(2**31), 2**31 - 1


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
    """int8 grid: x ~ scale * (q - zero_point); arrays are length 1 or C."""

    scheme: str
    scale: np.ndarray
    zero_point: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", np.atleast_1d(np.asarray(self.scale, dtype=np.float64)))
        object.__setattr__(
            self, "zero_point", np.atleast_1d(np.asarray(self.zero_point, dtype=np.int64))
        )
        if self.scheme not in (PER_TENSOR_AFFINE, PER_CHANNEL_SYMMETRIC):
            raise ContractViolation(f"unknown quant scheme {self.scheme!r}")
        if self.scale.shape != self.zero_point.shape:
            raise ContractViolation("scale and zero_point must have matching lengths")
        if not np.all(np.isfinite(self.scale)) or np.any(self.scale <= 0):
            raise ContractViolation("quant scales must be finite and > 0")
        if np.any(self.zero_point < -128) or np.any(self.zero_point > 127):
            raise ContractViolation("zero points must lie in [-128, 127]")
        if self.scheme == PER_CHANNEL_SYMMETRIC and np.any(self.zero_point != 0):
            raise ContractViolation("symmetric params must have zero_point 0")

    def same_grid(self, other: "QuantParams") -> bool:
        return (
            self.scheme == other.scheme
            and np.array_equal(self.scale, other.scale)
            and np.array_equal(self.zero_point, other.zero_point)
        )


def choose_params(vmin: float, vmax: float, scheme: str = PER_TENSOR_AFFINE) -> QuantParams:
    """Pick int8 params for an observed [vmin, vmax] value range.

    Affine widens the range to include 0 (so 0 is exactly representable)
    and spreads it over 255 steps; symmetric centers max(|vmin|, |vmax|)
    over +-127. An all-zero/empty range has no usable grid.
    """
    if not (math.isfinite(vmin) and math.isfinite(vmax)) or vmin > vmax:
        raise ContractViolation(f"bad range [{vmin}, {vmax}]")
    if scheme == PER_TENSOR_AFFINE:
        lo, hi = min(vmin, 0.0), max(vmax, 0.0)
        if lo == 0.0 and hi == 0.0:
            raise DegenerateRangeError("cannot quantize an all-zero range")
        scale = (hi - lo) / 255.0
        zp = int(np.clip(round_half_away(-lo / scale) - 128, -128, 127))
        return QuantParams(PER_TENSOR_AFFINE, np.array([scale]), np.array([zp]))
    if scheme == PER_CHANNEL_SYMMETRIC:
        m = max(abs(vmin), abs(vmax))
        if m == 0.0:
            raise DegenerateRangeError("cannot quantize an all-zero range")
        return QuantParams(PER_CHANNEL_SYMMETRIC, np.array([m / 127.0]), np.array([0]))
    raise ContractViolation(f"unknown quant scheme {scheme!r}")


def weight_params(weight: np.ndarray) -> QuantParams:
    """Per-channel symmetric params along the leading (out-channel) axis.

    All-zero channels get scale 1.0; they quantize to exact zeros either way.
    """
    flat = np.abs(weight.reshape(weight.shape[0], -1)).max(axis=1).astype(np.float64)
    scales = np.where(flat > 0, flat / 127.0, 1.0)
    return QuantParams(PER_CHANNEL_SYMMETRIC, scales, np.zeros(len(scales), dtype=np.int64))


def quantize_array(arr: np.ndarray, params: QuantParams) -> np.ndarray:
    x = np.asarray(arr, dtype=np.float64)
    if len(params.scale) == 1:
        return _requantize(x / params.scale[0], params.zero_point[0])
    if x.shape[0] != len(params.scale):
        raise ContractViolation(
            f"per-channel params are for {len(params.scale)} channels, got {x.shape[0]}"
        )
    shape = (len(params.scale),) + (1,) * (x.ndim - 1)
    return _requantize(x / params.scale.reshape(shape), params.zero_point.reshape(shape))


def dequantize_array(q: np.ndarray, params: QuantParams) -> np.ndarray:
    qi = np.asarray(q, dtype=np.float64)
    if len(params.scale) == 1:
        x = params.scale[0] * (qi - params.zero_point[0])
    else:
        shape = (len(params.scale),) + (1,) * (qi.ndim - 1)
        x = params.scale.reshape(shape) * (qi - params.zero_point.reshape(shape))
    return x.astype(np.float32)


class QuantizedTensor:
    """Dense (n, c, h, w) int8 payload carrying its own per-tensor params."""

    __slots__ = ("arr", "params", "__weakref__")

    def __init__(self, arr: np.ndarray, params: QuantParams) -> None:
        arr = np.ascontiguousarray(arr, dtype=np.int8)
        if arr.ndim != 4:
            raise ContractViolation(f"quantized tensor must be 4-d, got ndim={arr.ndim}")
        if len(params.scale) != 1:
            raise ContractViolation("activation tensors use per-tensor params")
        self.arr = arr
        self.params = params
        nbytes = arr.size
        TRACKER.register(nbytes)
        weakref.finalize(self, TRACKER.unregister, nbytes)

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


@dataclass
class SlotRange:
    vmin: float
    vmax: float
    count: int


class CalibrationStats:
    """Per-activation-slot running min/max over calibration images."""

    def __init__(self) -> None:
        self.ranges: dict[str, SlotRange] = {}

    def observe(self, key: str, arr: np.ndarray) -> None:
        vmin, vmax = float(arr.min()), float(arr.max())
        cur = self.ranges.get(key)
        if cur is None:
            self.ranges[key] = SlotRange(vmin, vmax, 1)
        else:
            cur.vmin = min(cur.vmin, vmin)
            cur.vmax = max(cur.vmax, vmax)
            cur.count += 1

    def merge(self, other: "CalibrationStats") -> "CalibrationStats":
        out = CalibrationStats()
        for src in (self, other):
            for key, r in src.ranges.items():
                cur = out.ranges.get(key)
                if cur is None:
                    out.ranges[key] = SlotRange(r.vmin, r.vmax, r.count)
                else:
                    cur.vmin = min(cur.vmin, r.vmin)
                    cur.vmax = max(cur.vmax, r.vmax)
                    cur.count += r.count
        return out

    def keys(self):
        return self.ranges.keys()


def calibrate(model: ModelGraph, images) -> CalibrationStats:
    """Run the float graph over images, recording every slot's min/max."""
    from .graph import forward  # local import keeps module load order simple

    stats = CalibrationStats()
    count = 0
    for img in images:
        count += 1
        stats.observe(INPUT_SLOT, img.arr)
        forward(model, img, hook=lambda idx, out: stats.observe(slot_key(idx), out.arr))
    if count == 0:
        raise ContractViolation("calibration needs at least one image")
    return stats


# --- batch norm folding -------------------------------------------------------


def fold_batchnorm(model: ModelGraph) -> tuple[ModelGraph, list[str]]:
    """Fold conv+bn pairs; returns the folded graph and, per new layer, the
    calibration key of its output in the original model's indexing."""
    consumers = [0] * len(model.layers)
    for layer in model.layers:
        for ref in layer.inputs:
            if ref >= 0:
                consumers[ref] += 1
    foldable: dict[int, int] = {}  # bn index -> conv index
    for idx, layer in enumerate(model.layers):
        if layer.kind != "bn":
            continue
        src = layer.inputs[0]
        if src >= 0 and model.layers[src].kind in ("conv", "detect_head") and consumers[src] == 1:
            foldable[idx] = src

    new_weights = {
        slot: {name: arr.copy() for name, arr in arrays.items()}
        for slot, arrays in model.weights.items()
    }
    new_layers: list[Layer] = []
    stats_keys: list[str] = []
    remap: dict[int, int] = {}
    conv_new_index: dict[int, int] = {}

    for idx, layer in enumerate(model.layers):
        if idx in foldable:
            conv_idx = foldable[idx]
            conv_layer = model.layers[conv_idx]
            bn = model.weights[layer.slot]
            eps = float(layer.attrs.get("eps", 1e-5))
            k = bn["gamma"].astype(np.float64) / np.sqrt(bn["var"].astype(np.float64) + eps)
            slot = new_weights[conv_layer.slot]
            w64 = slot["weight"].astype(np.float64) * k[:, None, None, None]
            b64 = (slot["bias"].astype(np.float64) - bn["mean"].astype(np.float64)) * k
            b64 += bn["beta"].astype(np.float64)
            slot["weight"] = w64.astype(np.float32)
            slot["bias"] = b64.astype(np.float32)
            del new_weights[layer.slot]
            new_idx = conv_new_index[conv_idx]
            remap[idx] = new_idx
            # The folded conv now produces what the bn produced.
            stats_keys[new_idx] = slot_key(idx)
            continue
        new_inputs = tuple(ref if ref == -1 else remap[ref] for ref in layer.inputs)
        new_layers.append(Layer(layer.kind, new_inputs, layer.slot, dict(layer.attrs)))
        remap[idx] = len(new_layers) - 1
        if layer.kind in ("conv", "detect_head"):
            conv_new_index[idx] = len(new_layers) - 1
        stats_keys.append(slot_key(idx))

    folded = ModelGraph(new_layers, new_weights, model.meta)
    return folded, stats_keys


# --- quantized model ----------------------------------------------------------


_CBAM_WEIGHTS = ("mlp_w1", "mlp_w2", "spatial_weight")
_CBAM_FLOATS = ("mlp_b1", "mlp_b2", "spatial_bias")


def _float_named(conv_weights, cbam_weights) -> dict[str, dict[str, np.ndarray]]:
    """Each slot's int8 and float arrays under the float graph's array names,
    which is all the float graph's checks read (shapes only)."""
    view = {slot: {"weight": w["q_weight"], "bias": w["q_bias"]} for slot, w in conv_weights.items()}
    for slot, w in cbam_weights.items():
        view[slot] = {name: w[f"{name}_q"] for name in _CBAM_WEIGHTS}
        view[slot].update((name, w[name]) for name in _CBAM_FLOATS)
    return view


class QuantizedModel:
    """Folded graph with int8 conv weights and per-slot activation params."""

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
        validate_graph(
            SimpleNamespace(layers=layers, meta=meta, weights=_float_named(conv_weights, cbam_weights))
        )
        needed = {INPUT_SLOT} | {
            slot_key(i) for i, layer in enumerate(layers) if layer.kind != "detect_head"
        }
        if not needed <= act_params.keys():
            raise ContractViolation(
                f"no activation params for slots {sorted(needed - act_params.keys())}"
            )
        self._cbam_cache: dict[str, CbamParams] = {}
        self._plan_cache: tuple[Callable, list[Step]] | None = None  # see _plan()
        total = 0
        for slot in list(conv_weights.values()) + list(cbam_weights.values()):
            for arr in slot.values():
                TRACKER.register(arr.nbytes)
                total += arr.nbytes
        weakref.finalize(self, TRACKER.unregister, total)

    def cbam_params(self, slot: str) -> CbamParams:
        if slot not in self._cbam_cache:
            w = self.cbam_weights[slot]
            kwargs = {}
            for name in _CBAM_WEIGHTS:
                params = QuantParams(
                    PER_CHANNEL_SYMMETRIC,
                    w[f"{name}_scale"],
                    np.zeros(len(w[f"{name}_scale"]), dtype=np.int64),
                )
                kwargs[name] = dequantize_array(w[f"{name}_q"], params)
            for name in _CBAM_FLOATS:
                kwargs[name] = w[name]
            self._cbam_cache[slot] = CbamParams(**kwargs)
        return self._cbam_cache[slot]

    def param_count(self) -> int:
        groups = list(self.conv_weights.values()) + list(self.cbam_weights.values())
        return sum(int(a.size) for slot in groups for a in slot.values())


def quantize_model(model: ModelGraph, stats: CalibrationStats) -> QuantizedModel:
    """Fold bn, check stats coverage, pick activation params, quantize weights."""
    folded, stats_keys = fold_batchnorm(model)
    needed = {INPUT_SLOT} | set(stats_keys)
    missing = needed - set(stats.keys())
    if missing:
        raise CalibrationCoverageError(sorted(missing))

    def from_stats(key: str) -> QuantParams:
        r = stats.ranges[key]
        return choose_params(r.vmin, r.vmax, PER_TENSOR_AFFINE)

    act_params: dict[str, QuantParams] = {INPUT_SLOT: from_stats(INPUT_SLOT)}
    for j, layer in enumerate(folded.layers):
        if layer.kind == "detect_head":
            continue  # head output stays float
        if layer.kind == "pool":
            # Max pooling is value-preserving: it inherits its input's grid exactly.
            act_params[slot_key(j)] = act_params[slot_key(layer.inputs[0])]
        else:
            act_params[slot_key(j)] = from_stats(stats_keys[j])

    conv_weights: dict[str, dict[str, np.ndarray]] = {}
    for j, layer in enumerate(folded.layers):
        if layer.kind not in ("conv", "detect_head"):
            continue
        slot = folded.weights[layer.slot]
        wp = weight_params(slot["weight"])
        in_scale = act_params[slot_key(layer.inputs[0])].scale[0]
        bias_scale = in_scale * wp.scale
        q_bias = np.clip(round_half_away(slot["bias"].astype(np.float64) / bias_scale), I32_MIN, I32_MAX)
        conv_weights[layer.slot] = {
            "q_weight": quantize_array(slot["weight"], wp),
            "w_scale": wp.scale.copy(),
            "q_bias": q_bias.astype(np.int32),
        }

    cbam_weights: dict[str, dict[str, np.ndarray]] = {}
    for layer in folded.layers:
        if layer.kind != "cbam" or layer.slot in cbam_weights:
            continue
        slot = folded.weights[layer.slot]
        packed: dict[str, np.ndarray] = {}
        for name in _CBAM_WEIGHTS:
            wp = weight_params(slot[name])
            packed[f"{name}_q"] = quantize_array(slot[name], wp)
            packed[f"{name}_scale"] = wp.scale.copy()
        for name in _CBAM_FLOATS:
            packed[name] = slot[name].copy()
        cbam_weights[layer.slot] = packed

    return QuantizedModel(folded.layers, folded.meta, conv_weights, cbam_weights, act_params)


# --- quantized kernels --------------------------------------------------------


# Integers whose magnitudes add up to less than 2^24 sum exactly in float32, in
# any order: every partial sum is itself such an integer.
_F32_EXACT = 2**24


def _weight_sums(q_weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-out-channel sum(q_w) and sum(|q_w|), as int64."""
    w = q_weight.reshape(q_weight.shape[0], -1).astype(np.int64)
    return w.sum(axis=1), np.abs(w).sum(axis=1)


def _folded_bias(
    q_bias: np.ndarray, z_in: int, w_sums: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-out-channel bias' = q_bias - z_in * sum(q_w) and the accumulator
    bound 128 * sum|q_w| + |bias'|, which no |acc| exceeds, as int64."""
    w_sum, w_abs_sum = w_sums
    bias = q_bias.astype(np.int64) - z_in * w_sum
    return bias, 128 * w_abs_sum + np.abs(bias)


def _int_conv_acc(
    q_in: np.ndarray,
    z_in: int,
    q_weight: np.ndarray,
    q_bias: np.ndarray,
    stride: int,
    padding: int,
    groups: int,
    w_sums: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Exact integer accumulator (n, oc, oh, ow): sum (q_in - z_in) * q_w + q_bias.

    The input zero point is folded into the bias, bias' = q_bias - z_in *
    sum(q_w), so the matmul takes the raw codes; padding with z_in keeps the
    fold exact. When every output channel has 128 * sum|q_w| + |bias'| <
    2^24, no partial sum leaves the integers float32 holds exactly, so im2col
    and the matmul run in float32. Otherwise they run in float64, exact for
    fan-in up to 2^38. Either way BLAS does the matmul and the result is
    integer-valued bit for bit. w_sums is _weight_sums(q_weight), if known.
    """
    n, c, h, w = q_in.shape
    oc, icg, k, _ = q_weight.shape
    if icg * groups != c:
        raise ContractViolation(f"quantized conv expects {icg * groups} channels, got {c}")
    if icg * k * k > 2**38:
        raise ContractViolation("conv fan-in too large for exact float64 accumulation")
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    if oh < 1 or ow < 1:
        raise ContractViolation("quantized conv output would be empty")
    bias, bound = _folded_bias(q_bias, z_in, _weight_sums(q_weight) if w_sums is None else w_sums)
    dtype = np.float32 if bool(np.all(bound < _F32_EXACT)) else np.float64
    if k == 1 and stride == 1 and padding == 0:
        cols = q_in.astype(dtype)
    else:
        # Cast once into a z_in-filled plane; the window copies then keep the dtype.
        padded = np.full((n, c, h + 2 * padding, w + 2 * padding), z_in, dtype=dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = q_in
        cols = np.empty((n, c, k, k, oh, ow), dtype=dtype)
        for ky in range(k):
            for kx in range(k):
                cols[:, :, ky, kx] = padded[
                    :, :, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride
                ]
    cols = cols.reshape(n, groups, icg * k * k, oh * ow)
    wmat = q_weight.reshape(groups, oc // groups, icg * k * k).astype(dtype)
    acc = np.matmul(wmat[None], cols).reshape(n, oc, oh, ow)
    acc += bias.astype(dtype).reshape(1, oc, 1, 1)
    return acc


@dataclass
class QConvSpec:
    """int8 conv weights: per-channel scales, int32 bias at s_in * s_w_c."""

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
        oc = self.q_weight.shape[0]
        if self.w_scale.shape != (oc,) or self.q_bias.shape != (oc,):
            raise ContractViolation("per-channel scale/bias length must equal out_channels")
        if np.any(self.w_scale <= 0):
            raise ContractViolation("weight scales must be > 0")
        self.w_sums = _weight_sums(self.q_weight)

    def accumulate(self, x: QuantizedTensor) -> np.ndarray:
        return _int_conv_acc(
            x.arr, int(x.params.zero_point[0]), self.q_weight, self.q_bias,
            self.stride, self.padding, self.groups, self.w_sums,
        )


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


def _conv_requant(
    spec: QConvSpec, mult: np.ndarray, out_params: QuantParams, x: QuantizedTensor
) -> QuantizedTensor:
    """The int8 conv kernel: the exact accumulator times the float64 per-channel
    multiplier s_in * s_w_c / s_out, requantized in place."""
    t = spec.accumulate(x) * mult
    return QuantizedTensor(_requantize(t, out_params.zero_point[0]), out_params)


def _conv_mult(in_params: QuantParams, spec: QConvSpec, out_params: QuantParams) -> np.ndarray:
    return (in_params.scale[0] * spec.w_scale / out_params.scale[0]).reshape(1, -1, 1, 1)


def quantized_conv2d(x: QuantizedTensor, spec: QConvSpec, out_params: QuantParams) -> QuantizedTensor:
    """int8 conv: integer accumulation, then one requantization to out_params."""
    if len(out_params.scale) != 1:
        raise ContractViolation("conv output params must be per-tensor")
    return _conv_requant(spec, _conv_mult(x.params, spec, out_params), out_params, x)


# --- planned requantization ---------------------------------------------------
#
# The affine map costs a multiply, an add, a clip and a uint8 cast where the
# exact rule clips, rounds half away from zero in three steps and adds zp. The
# two differ on negative ties and where fl64(y + K) rounds across an integer,
# hence the per-step proof (module docstring).

_LEVELS = np.arange(-127, 128, dtype=np.float64)  # each code whose lower threshold is checked


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


def _proves_conv_affine(mult: np.ndarray, zp, bound: np.ndarray) -> bool:
    """Whether _affine_codes(acc * m_c, zp + 128.5) equals the exact rule
    _requantize(acc * m_c, zp) for every channel c and every integer acc with
    |acc| <= bound[c], both products taken in float64.

    Both maps are monotone non-decreasing in acc, so they are equal on that
    range when, for each level L in -127..127, the accumulators they send to
    L or above start at the same place. For the exact map g that start is
    near est = ceil((L - zp - 0.5) / m_c), clipped to [-bound, bound + 1]
    (the ends: every acc reaches L, or none does). The check proves that g's
    start is est, g(est - 1) < L <= g(est) with points beyond the range left
    out, and that the affine map equals g at est - 1 and est, so its start is
    est too; it also compares the two at +-bound. A wrong estimate fails the
    check; it cannot pass a wrong map.
    """
    m = np.asarray(mult, dtype=np.float64).reshape(-1, 1)
    b = np.asarray(bound, dtype=np.int64).reshape(-1, 1).astype(np.float64)
    if not (np.all(np.isfinite(m)) and np.all(m > 0) and np.all(b < 2.0**53)):
        return False
    with np.errstate(over="ignore"):  # far thresholds of a tiny m; clipped next
        est = np.clip(np.ceil((_LEVELS - zp - 0.5) / m), -b, b + 1)
    points = np.concatenate([np.maximum(est - 1, -b), np.minimum(est, b), -b, b], axis=1)
    t = points * m
    exact = _requantize(t.copy(), zp)
    if not np.array_equal(_affine_codes(t, zp + 128.5), exact):
        return False
    n = len(_LEVELS)
    below, at = exact[:, :n], exact[:, n : 2 * n]
    return bool(np.all(((est == -b) | (below < _LEVELS)) & ((est == b + 1) | (at >= _LEVELS))))


def _proves_quantizer_affine(scale, zp) -> bool:
    """Whether _affine_codes(x * (1 / scale), zp + 128.5) equals the exact
    quantize_array rule _requantize(x / scale, zp) for every float32 x, +-inf
    included, with 1 / scale, the product and the quotient in float64.

    The argument is _proves_conv_affine's over the ordered float32 values.
    For each level L the candidates are e = fl32((L - zp - 0.5) * scale) and
    its two float32 neighbours: the check needs the exact code to step from
    below L to L or above between two adjacent candidates, and the affine
    map to equal the exact rule at all three. It also compares them at +-inf.
    """
    s = np.float64(scale)
    with np.errstate(over="ignore"):  # thresholds past the float32 range become +-inf
        e = ((_LEVELS - zp - 0.5) * s).astype(np.float32)
    inf = np.float32(np.inf)
    points = np.concatenate([np.nextafter(e, -inf), e, np.nextafter(e, inf), [-inf, inf]])
    exact = _requantize(points.astype(np.float64) / s, zp)
    fast = _affine_codes(np.multiply(points, 1.0 / s, dtype=np.float64), zp + 128.5)
    if not np.array_equal(fast, exact):
        return False
    lo, mid, hi = exact[:-2].reshape(3, -1)
    steps = ((lo < _LEVELS) & (_LEVELS <= mid)) | ((mid < _LEVELS) & (_LEVELS <= hi))
    return bool(np.all(steps))


def _conv_affine(
    spec: QConvSpec, mult: np.ndarray, k, out_params: QuantParams, x: QuantizedTensor
) -> QuantizedTensor:
    """_conv_requant through the affine map, for a conv whose map is proven."""
    return QuantizedTensor(_affine_codes(spec.accumulate(x) * mult, k), out_params)


def _bind_conv(
    spec: QConvSpec, in_params: QuantParams, out_params: QuantParams
) -> Callable[[QuantizedTensor], QuantizedTensor]:
    """The conv step: the affine map where it is proven exact on the
    accumulator's bound for this input grid, the exact rule otherwise."""
    mult = _conv_mult(in_params, spec, out_params)
    zp = out_params.zero_point[0]
    _, bound = _folded_bias(spec.q_bias, int(in_params.zero_point[0]), spec.w_sums)
    if _proves_conv_affine(mult, zp, bound):
        return partial(_conv_affine, spec, mult, zp + 128.5, out_params)
    return partial(_conv_requant, spec, mult, out_params)


def _no_nan(x: Tensor) -> np.ndarray:
    if np.isnan(x.arr).any():
        raise ContractViolation("cannot quantize a tensor holding NaN")
    return x.arr


def _quantize_affine(params: QuantParams, recip, k, x: Tensor) -> QuantizedTensor:
    """quantize_tensor through the affine map, for params whose map is proven."""
    return QuantizedTensor(_affine_codes(np.multiply(_no_nan(x), recip, dtype=np.float64), k), params)


def _quantize_exact(params: QuantParams, x: Tensor) -> QuantizedTensor:
    return QuantizedTensor(quantize_array(_no_nan(x), params), params)


def _bind_quantizer(params: QuantParams) -> Callable[[Tensor], QuantizedTensor]:
    """float32 -> int8 onto params: the affine map where it is proven exact,
    the exact rule otherwise. NaN raises ContractViolation either way."""
    scale, zp = params.scale[0], params.zero_point[0]
    if _proves_quantizer_affine(scale, zp):
        return partial(_quantize_affine, params, 1.0 / scale, zp + 128.5)
    return partial(_quantize_exact, params)


def _pointwise_lut(in_params: QuantParams, out_params: QuantParams, fn) -> np.ndarray:
    """256-entry int8 -> int8 table for quant(fn(dequant(v))), indexed by v + 128."""
    v = np.arange(-128, 128, dtype=np.float64)
    x = in_params.scale[0] * (v - in_params.zero_point[0])
    return _requantize(fn(x) / out_params.scale[0], out_params.zero_point[0])


def _code_table(lut: np.ndarray) -> np.ndarray:
    """The same table indexed by each code's uint8 bit pattern instead of v + 128."""
    return np.roll(lut, 128)


def _regrid_table(in_params: QuantParams, out_params: QuantParams) -> np.ndarray | None:
    """Code table moving codes between grids; None when the grids are the same."""
    if in_params.same_grid(out_params):
        return None
    return _code_table(_pointwise_lut(in_params, out_params, lambda x: x))


_ACT_FNS = {
    "silu": lambda x: x * _sigmoid64(x),
    "sigmoid": _sigmoid64,
    "identity": lambda x: x,
}


def _apply_lut(
    q: QuantizedTensor, table: np.ndarray | None, out_params: QuantParams
) -> QuantizedTensor:
    """Map every code through a code table; no table passes q through."""
    if table is None:
        return q
    return QuantizedTensor(np.take(table, q.arr.view(np.uint8)), out_params)


def _requant(q: QuantizedTensor, out_params: QuantParams) -> QuantizedTensor:
    return _apply_lut(q, _regrid_table(q.params, out_params), out_params)


def _maxpool_int8(q: QuantizedTensor, kernel: int, stride: int, padding: int) -> QuantizedTensor:
    return QuantizedTensor(max_windows(q.arr, kernel, stride, padding, np.int8(-128)), q.params)


def _bind(model: QuantizedModel, idx: int, layer: Layer) -> Callable:
    """One layer as a function of its input tensors, with every per-model
    value (conv spec, multiplier, LUT, params) computed here, once."""
    kind = layer.kind
    out_params = model.act_params.get(slot_key(idx))
    in_params = model.act_params.get(slot_key(layer.inputs[0]))
    attrs = layer.attrs
    if kind in ("conv", "detect_head"):
        qw = model.conv_weights[layer.slot]
        spec = QConvSpec(
            qw["q_weight"], qw["w_scale"], qw["q_bias"],
            stride=int(attrs.get("stride", 1)),
            padding=int(attrs.get("padding", 0)),
            groups=int(attrs.get("groups", 1)),
        )
        if kind == "detect_head":
            # The head's accumulator is dequantized exactly to float32.
            scale = (in_params.scale[0] * spec.w_scale).reshape(1, -1, 1, 1)
            return lambda q: Tensor((spec.accumulate(q) * scale).astype(np.float32))
        return _bind_conv(spec, in_params, out_params)
    if kind == "act":
        table = _code_table(_pointwise_lut(in_params, out_params, _ACT_FNS[attrs["fn"]]))
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
        kernel = int(attrs["kernel"])
        stride = int(attrs.get("stride", kernel))
        padding = int(attrs.get("padding", 0))
        return lambda q: _requant(_maxpool_int8(q, kernel, stride, padding), out_params)
    # bn never gets here: validation finds no bn params in a quantized model.
    raise ContractViolation(f"unsupported quantized layer kind {layer.kind!r}")


def _plan(model: QuantizedModel) -> tuple[Callable[[Tensor], QuantizedTensor], list[Step]]:
    """The model's input quantizer, bound layers and release points, built on
    first use."""
    if model._plan_cache is None:
        model._plan_cache = (
            _bind_quantizer(model.act_params[INPUT_SLOT]),
            plan(model.layers, partial(_bind, model)),
        )
    return model._plan_cache


def forward_quantized(model: QuantizedModel, x: Tensor) -> Tensor:
    """Run the int8 graph on a float (1, 3, S, S) input; returns the float head.

    Each intermediate output, the quantized input included, is dropped right
    after its last consumer runs.
    """
    quantize_input, steps = _plan(model)
    return run(steps, quantize_input(x), model.meta.input_size)


# --- serialization ------------------------------------------------------------


def save_quantized_bytes(model: QuantizedModel) -> bytes:
    tensors: list[tuple[str, np.ndarray]] = []
    for slot in sorted(model.conv_weights):
        for name in ("q_weight", "w_scale", "q_bias"):
            tensors.append((f"{slot}/{name}", model.conv_weights[slot][name]))
    for slot in sorted(model.cbam_weights):
        for name in sorted(model.cbam_weights[slot]):
            tensors.append((f"{slot}/{name}", model.cbam_weights[slot][name]))
    doc = {
        "container": "int8",
        "layers": _layers_to_json(model.layers),
        "meta": _meta_to_json(model.meta),
        "act_params": {
            key: {"scale": float(p.scale[0]), "zero_point": int(p.zero_point[0])}
            for key, p in sorted(model.act_params.items())
        },
        "conv_slots": sorted(model.conv_weights),
        "cbam_slots": sorted(model.cbam_weights),
    }
    return container_io.write_container(doc, tensors)


def save_quantized(model: QuantizedModel, path: str) -> int:
    blob = save_quantized_bytes(model)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load_quantized(path_or_bytes) -> QuantizedModel:
    doc, tensors = container_io.read_container(path_or_bytes)
    if doc.get("container") != "int8":
        raise ContainerError(f"expected an int8 container, got {doc.get('container')!r}")
    require = container_io.require

    def arrays(slot: str, names) -> dict[str, np.ndarray]:
        return {name: require(tensors, f"{slot}/{name}") for name in names}

    conv_weights = {
        slot: arrays(slot, ("q_weight", "w_scale", "q_bias")) for slot in require(doc, "conv_slots")
    }
    cbam_names = [f"{n}_{part}" for n in _CBAM_WEIGHTS for part in ("q", "scale")] + list(_CBAM_FLOATS)
    cbam_weights = {slot: arrays(slot, cbam_names) for slot in require(doc, "cbam_slots")}
    act_params = {
        key: QuantParams(
            PER_TENSOR_AFFINE, np.array([require(p, "scale")]), np.array([require(p, "zero_point")])
        )
        for key, p in require(doc, "act_params").items()
    }
    return QuantizedModel(
        _layers_from_json(require(doc, "layers")),
        _meta_from_json(require(doc, "meta")),
        conv_weights,
        cbam_weights,
        act_params,
    )


def load_any(path_or_bytes):
    """Load either container kind; returns ModelGraph or QuantizedModel."""
    doc, _ = container_io.read_container(path_or_bytes)
    kind = doc.get("container")
    if kind == "float":
        from .graph import load_model

        return load_model(path_or_bytes)
    if kind == "int8":
        return load_quantized(path_or_bytes)
    raise ContainerError(f"unknown container kind {kind!r}")


def quantized_size_bytes(model: QuantizedModel) -> int:
    return len(save_quantized_bytes(model))


def format_reduction(orig_size: float, quant_size: float) -> str:
    """Size reduction percent, one decimal: 6.1 -> 3.5 renders as '42.6%'."""
    if orig_size <= 0:
        raise ContractViolation("original size must be > 0")
    return f"{(1.0 - quant_size / orig_size) * 100.0:.1f}%"
