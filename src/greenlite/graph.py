"""Desk-scale detector graph: build, run, pre/postprocess.

The graph is a flat DAG of layers (conv, bn, act, max pool, concat, cbam,
detect_head); each layer names the indices of the layers it consumes, with
-1 meaning the graph input. The default build is a narrow single-scale
backbone: stem conv s2, four stages of [downsampling conv s2 + C2f-style
block], SPPF, one CBAM, and an anchor-free head emitting (4 + num_classes)
channels on the stride-32 grid. Weights are drawn uniform in [-0.1, 0.1]
from a seeded generator; batch norm starts at gamma=1, beta=0, mean=0,
var=1. plan() binds each layer once and run() is the one forward loop; the
float forward and quant.forward_quantized both execute through them.

Preprocessing letterboxes raw RGB bytes (aspect-preserving nearest resize,
centered on a 114/255 gray canvas, values scaled to [0, 1]). Decoding maps
head cells back through the inverse letterbox: dx/dy are sigmoids relative
to the cell, dw/dh are exponentials capped at 4 strides, class scores are
per-class sigmoids with the argmax class kept per cell.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .cbam import CbamParams, cbam_forward
from .errors import ContainerError, ContractViolation
from . import container
from .profiling import TRACKER
from .tensor import (
    ACTIVATION_KINDS,
    ConvSpec,
    Tensor,
    _sigmoid64,
    activation,
    batchnorm_infer,
    concat_channels,
    conv2d,
    conv_geometry,
    pool,
)

LAYER_KINDS = ("conv", "bn", "act", "pool", "concat", "cbam", "detect_head")

HEAD_SLOT = "head"
GRID_STRIDE = 32
# 3.2x the paper's 640-px inputs. A larger size would load and then fail in the
# first forward's allocation (2^21 px a side is 48 TiB of activations).
MAX_INPUT_SIZE = 2048
# Far above any real label set (LVIS has 1,203 classes); class names are made
# for every id up to the largest, so an unbounded id would be unbounded memory.
MAX_CLASS_ID = 65_535
PAD_GRAY = 114.0 / 255.0
# Detection defaults: decode's score threshold and nms's IoU threshold.
DEFAULT_CONF = 0.25
DEFAULT_IOU = 0.45

_SLOT_ARRAYS = {
    "conv": ("weight", "bias"),
    "detect_head": ("weight", "bias"),
    "bn": ("gamma", "beta", "mean", "var"),
    "cbam": ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2", "spatial_weight", "spatial_bias"),
}


@dataclass(frozen=True)
class Layer:
    kind: str
    inputs: tuple[int, ...]
    slot: str | None = None
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ModelMeta:
    input_size: int
    num_classes: int
    class_names: tuple[str, ...]
    stride: int = GRID_STRIDE


@dataclass(frozen=True)
class LayerAttrs:
    """A layer's attrs as typed values (parse_attrs); unused fields keep these defaults."""

    stride: int = 1
    padding: int = 0
    groups: int = 1
    kernel: int = 0
    eps: float = 1e-5
    fn: str = "identity"


@dataclass
class ModelGraph:
    layers: list[Layer]
    weights: dict[str, dict[str, np.ndarray]]
    meta: ModelMeta
    layer_attrs: list[LayerAttrs] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.layer_attrs = validate_graph(self)
        TRACKER.track(self, *(arr.nbytes for slot in self.weights.values() for arr in slot.values()))

    def param_count(self) -> int:
        return sum(int(a.size) for slot in self.weights.values() for a in slot.values())


def validate_graph(model) -> list[LayerAttrs]:
    """Structural checks: topology, arity, slot presence, one layer per slot,
    one trailing head with 4 + num_classes channels on an input_size / stride
    grid, attrs (parse_attrs) and geometry. Returns each layer's parsed attrs.

    model is anything with layers, meta and weights (slot -> array name ->
    array, under the names in _SLOT_ARRAYS): a ModelGraph, or the view of
    its own arrays that a QuantizedModel checks itself with.
    """
    if not model.layers:
        raise ContractViolation("graph has no layers")
    head_indices = [i for i, l in enumerate(model.layers) if l.kind == "detect_head"]
    if len(head_indices) != 1 or head_indices[0] != len(model.layers) - 1:
        raise ContractViolation("graph must end with exactly one detect_head layer")
    parsed = []
    reader: dict[str, int] = {}  # slot -> the one layer that reads it
    for idx, layer in enumerate(model.layers):
        if layer.kind not in LAYER_KINDS:
            raise ContractViolation(f"layer {idx}: unknown kind {layer.kind!r}")
        want_arity = 2 if layer.kind == "concat" else 1
        if len(layer.inputs) != want_arity:
            raise ContractViolation(
                f"layer {idx} ({layer.kind}): expected {want_arity} inputs, got {len(layer.inputs)}"
            )
        for ref in layer.inputs:
            if not -1 <= ref < idx:
                raise ContractViolation(
                    f"layer {idx} ({layer.kind}): input {ref} is not a strictly earlier layer"
                )
        needed = _SLOT_ARRAYS.get(layer.kind)
        if needed is not None:
            if layer.slot is None or layer.slot not in model.weights:
                raise ContractViolation(f"layer {idx} ({layer.kind}): missing slot {layer.slot!r}")
            if reader.setdefault(layer.slot, idx) != idx:
                raise ContractViolation(f"layer {idx}: slot {layer.slot!r} is already layer {reader[layer.slot]}'s")
            have = model.weights[layer.slot]
            for name in needed:
                if name not in have:
                    raise ContractViolation(
                        f"slot {layer.slot!r} is missing array {name!r} for layer {idx}"
                    )
        parsed.append(parse_attrs(idx, layer))
    head = model.layers[-1]
    producer = model.layers[head.inputs[0]] if head.inputs[0] >= 0 else None
    if producer is None or producer.kind != "cbam":
        raise ContractViolation("detect_head must consume a cbam layer output")
    size, stride = model.meta.input_size, model.meta.stride
    if size > MAX_INPUT_SIZE:
        raise ContractViolation(f"input size {size} is above the bound {MAX_INPUT_SIZE}")
    names, n = len(model.meta.class_names), model.meta.num_classes
    channels, gh, gw = infer_shapes(model, parsed)[-1]
    if not names == n == channels - 4 >= 1:
        raise ContractViolation(
            f"got {names} class names and {channels} head channels for {n} classes (want n >= 1, 4 + n)"
        )
    if not size == stride * gh == stride * gw:
        raise ContractViolation(f"meta stride {stride} times the {gh}x{gw} head grid is not input size {size}")
    return parsed


def parse_attrs(idx: int, layer: Layer) -> LayerAttrs:
    """The one reading of a layer's raw JSON attrs into typed values: each
    geometry attr a JSON int (not a bool) within its bound or its default,
    a finite bn eps > 0, a known act fn, a 'max' pool (README: File formats)."""
    attrs = layer.attrs

    def fail(message: str):
        raise ContractViolation(f"layer {idx} ({layer.kind}): {message}")

    def integer(name: str, default: int | None, low: int) -> int:
        if name not in attrs:
            return fail(f"missing {name}") if default is None else default
        value = attrs[name]
        if type(value) is not int:  # JSON true/false load as bools, an int subclass
            fail(f"{name} must be an int, got {value!r}")
        if value < low:
            fail(f"{name} must be >= {low}, got {value}")
        return value

    if layer.kind in ("conv", "detect_head"):
        return LayerAttrs(integer("stride", 1, 1), integer("padding", 0, 0), integer("groups", 1, 1))
    if layer.kind == "pool":
        if attrs.get("pool") != "max":
            fail(f"pool must be 'max', got {attrs.get('pool')!r}")
        kernel = integer("kernel", None, 1)
        return LayerAttrs(integer("stride", kernel, 1), integer("padding", 0, 0), kernel=kernel)
    if layer.kind == "bn":
        eps = attrs.get("eps", 1e-5)
        # Bounded by the largest double, so an int too large for a float fails here.
        if type(eps) not in (int, float) or not 0.0 < eps <= sys.float_info.max:
            fail(f"eps must be finite and > 0, got {eps!r}")
        return LayerAttrs(eps=float(eps))
    if layer.kind == "act":
        if attrs.get("fn") not in ACTIVATION_KINDS:
            fail(f"fn must be one of {ACTIVATION_KINDS}, got {attrs.get('fn')!r}")
        return LayerAttrs(fn=attrs["fn"])
    return LayerAttrs()


def infer_shapes(model, layer_attrs: list[LayerAttrs] | None = None) -> list[tuple[int, int, int]]:
    """Symbolically propagate (c, h, w) through the graph, checking each conv's
    shapes (conv_geometry), each CBAM's (CbamParams) and the geometry
    (channels, padding < window, non-empty outputs); layer_attrs defaults to
    the model's parsed attrs."""
    parsed = model.layer_attrs if layer_attrs is None else layer_attrs
    # The input sits in the last slot, so input ref -1 indexes it directly, as in run().
    shapes: list = [None] * len(model.layers) + [(3, model.meta.input_size, model.meta.input_size)]
    for idx, (layer, a) in enumerate(zip(model.layers, parsed)):
        c, h, w = shapes[layer.inputs[0]]
        k = None  # the window size of a conv or pool
        if layer.kind in ("conv", "detect_head"):
            conv = model.weights[layer.slot]
            ic, oc, k = conv_geometry(conv["weight"].shape, conv["bias"].shape, a.stride, a.padding, a.groups)
            if ic != c:
                raise ContractViolation(f"layer {idx}: conv expects {ic} input channels, got {c}")
            c = oc
        elif layer.kind == "pool":
            k = a.kernel
        elif layer.kind == "bn":
            bn = model.weights[layer.slot]
            if any(bn[name].shape != (c,) for name in _SLOT_ARRAYS["bn"]):
                raise ContractViolation(f"layer {idx}: bn params do not match {c} channels")
            if not np.all(bn["var"] >= 0.0):
                raise ContractViolation(f"layer {idx} (bn): variance must be >= 0")
        elif layer.kind == "concat":
            c2, h2, w2 = shapes[layer.inputs[1]]
            if (h, w) != (h2, w2):
                raise ContractViolation(f"layer {idx}: concat spatial mismatch")
            c += c2
        elif layer.kind == "cbam":
            ch = _cbam_params(model.weights[layer.slot]).channels
            if ch != c:
                raise ContractViolation(f"layer {idx}: cbam params are for {ch} channels, got {c}")
        if k is not None:
            # Padding of a kernel or more only adds windows that see nothing but
            # padding; refusing it also bounds the patch matrix a conv builds.
            if a.padding >= k:
                raise ContractViolation(
                    f"layer {idx} ({layer.kind}): padding must be < kernel {k}, got {a.padding}"
                )
            h = (h + 2 * a.padding - k) // a.stride + 1
            w = (w + 2 * a.padding - k) // a.stride + 1
            if h < 1 or w < 1:
                raise ContractViolation(f"layer {idx}: {layer.kind} output would be empty")
        shapes[idx] = (c, h, w)
    return shapes[:-1]


def _cbam_params(arrays: dict[str, np.ndarray]) -> CbamParams:
    """A CBAM slot's arrays, by their names in _SLOT_ARRAYS, as checked params."""
    return CbamParams(*(arrays[name] for name in _SLOT_ARRAYS["cbam"]))


def _round_scaled(base: int, mult: float) -> int:
    return max(1, int(round(base * mult)))


DEFAULT_CLASS_NAMES = ("biological", "cardboard", "glass", "metal", "paper", "plastic", "trash")


def default_class_names(k: int) -> tuple[str, ...]:
    """Names for k classes: the seven defaults, then class_7, class_8, ..."""
    return DEFAULT_CLASS_NAMES[:k] + tuple(f"class_{i}" for i in range(len(DEFAULT_CLASS_NAMES), k))


STAGE_DEPTHS = (1, 2, 2, 1)  # C2f bottlenecks per stage
CBAM_REDUCTION = 16
CBAM_KERNEL = 7


def build_model(
    num_classes: int,
    width_multiple: float = 0.25,
    input_size: int = 320,
    seed: int = 42,
    cbam_per_stage: bool = False,
    class_names: tuple[str, ...] | None = None,
) -> ModelGraph:
    """Assemble the desk detector with seeded uniform [-0.1, 0.1] weights;
    class_names default to default_class_names(num_classes)."""
    if not 1 <= num_classes <= MAX_CLASS_ID + 1:
        raise ContractViolation(f"num_classes must lie in [1, {MAX_CLASS_ID + 1}], got {num_classes}")
    if input_size < GRID_STRIDE or input_size % GRID_STRIDE != 0:
        raise ContractViolation(
            f"input_size must be a positive multiple of {GRID_STRIDE}, got {input_size}"
        )
    if width_multiple <= 0:
        raise ContractViolation(f"width_multiple must be > 0, got {width_multiple}")
    if class_names is None:
        class_names = default_class_names(num_classes)

    rng = np.random.Generator(np.random.PCG64(seed))
    layers: list[Layer] = []
    weights: dict[str, dict[str, np.ndarray]] = {}

    def uniform(shape: tuple[int, ...]) -> np.ndarray:
        return rng.uniform(-0.1, 0.1, size=shape).astype(np.float32)

    def add(layer: Layer) -> int:
        layers.append(layer)
        return len(layers) - 1

    def conv(src: int, c_in: int, c_out: int, k: int, s: int, name: str) -> int:
        weights[name] = {"weight": uniform((c_out, c_in, k, k)), "bias": uniform((c_out,))}
        return add(Layer("conv", (src,), name, {"stride": s, "padding": k // 2, "groups": 1}))

    def bn(src: int, c: int, name: str) -> int:
        weights[name] = {
            "gamma": np.ones(c, dtype=np.float32),
            "beta": np.zeros(c, dtype=np.float32),
            "mean": np.zeros(c, dtype=np.float32),
            "var": np.ones(c, dtype=np.float32),
        }
        return add(Layer("bn", (src,), name, {"eps": 1e-5}))

    def cbs(src: int, c_in: int, c_out: int, k: int, s: int, name: str) -> int:
        x = conv(src, c_in, c_out, k, s, f"{name}.conv")
        x = bn(x, c_out, f"{name}.bn")
        return add(Layer("act", (x,), None, {"fn": "silu"}))

    def concat(a: int, b: int) -> int:
        return add(Layer("concat", (a, b)))

    def c2f(src: int, c: int, n: int, name: str) -> int:
        hid = max(1, c // 2)
        a = cbs(src, c, hid, 1, 1, f"{name}.cv1a")
        b = cbs(src, c, hid, 1, 1, f"{name}.cv1b")
        parts = [a, b]
        prev = b
        for j in range(n):
            prev = cbs(prev, hid, hid, 3, 1, f"{name}.m{j}")
            parts.append(prev)
        cat = parts[0]
        for part in parts[1:]:
            cat = concat(cat, part)
        return cbs(cat, hid * (2 + n), c, 1, 1, f"{name}.cv2")

    def cbam(src: int, c: int, name: str) -> int:
        r = CBAM_REDUCTION
        while c % r != 0:
            r -= 1
        weights[name] = {
            "mlp_w1": uniform((c // r, c)),
            "mlp_b1": uniform((c // r,)),
            "mlp_w2": uniform((c, c // r)),
            "mlp_b2": uniform((c,)),
            "spatial_weight": uniform((1, 2, CBAM_KERNEL, CBAM_KERNEL)),
            "spatial_bias": uniform((1,)),
        }
        return add(Layer("cbam", (src,), name))

    base_channels = (64, 128, 256, 512, 1024)
    ch = [_round_scaled(b, width_multiple) for b in base_channels]

    x = cbs(-1, 3, ch[0], 3, 2, "stem")
    for i in range(4):
        x = cbs(x, ch[i], ch[i + 1], 3, 2, f"s{i + 1}.ds")
        x = c2f(x, ch[i + 1], STAGE_DEPTHS[i], f"s{i + 1}.c2f")
        if cbam_per_stage:
            x = cbam(x, ch[i + 1], f"s{i + 1}.cbam")

    c_top = ch[4]
    hid = max(1, c_top // 2)
    a = cbs(x, c_top, hid, 1, 1, "sppf.cv1")
    p1 = add(Layer("pool", (a,), None, {"pool": "max", "kernel": 5, "stride": 1, "padding": 2}))
    p2 = add(Layer("pool", (p1,), None, {"pool": "max", "kernel": 5, "stride": 1, "padding": 2}))
    p3 = add(Layer("pool", (p2,), None, {"pool": "max", "kernel": 5, "stride": 1, "padding": 2}))
    cat = concat(concat(concat(a, p1), p2), p3)
    x = cbs(cat, hid * 4, c_top, 1, 1, "sppf.cv2")

    x = cbam(x, c_top, "cbam")
    weights[HEAD_SLOT] = {
        "weight": uniform((4 + num_classes, c_top, 1, 1)),
        "bias": uniform((4 + num_classes,)),
    }
    add(Layer("detect_head", (x,), HEAD_SLOT, {"stride": 1, "padding": 0, "groups": 1}))

    meta = ModelMeta(input_size, num_classes, tuple(class_names))
    return ModelGraph(layers, weights, meta)


class Step(NamedTuple):
    run: Callable  # the layer, bound to its weights and attrs
    inputs: tuple[int, ...]
    frees: tuple[int, ...]  # outputs (-1: the input) whose last consumer this is


def plan(layers: list[Layer], bind: Callable[[int, Layer], Callable]) -> list[Step]:
    """One step per layer: bind(idx, layer), its input refs, and the refs it
    is the last consumer of."""
    last_use = {}
    for idx, layer in enumerate(layers):
        for ref in layer.inputs:
            last_use[ref] = idx
    frees: list[list[int]] = [[] for _ in layers]
    for ref, last in last_use.items():
        frees[last].append(ref)
    return [
        Step(bind(idx, layer), layer.inputs, tuple(frees[idx])) for idx, layer in enumerate(layers)
    ]


def run(steps: list[Step], x, size: int, hook=None):
    """Run planned steps on a (1, 3, size, size) input; returns the last
    layer's output (the head).

    Each output is dropped as soon as its last consumer has run, so the
    instrumented allocator sees a deterministic peak. hook(idx, out) is
    called for every layer output; calibration uses it.
    """
    n, c, h, w = x.shape
    if (n, c, h, w) != (1, 3, size, size):
        raise ContractViolation(f"forward expects input (1, 3, {size}, {size}), got {(n, c, h, w)}")
    # The input sits in the last slot, so input ref -1 indexes it directly.
    outputs: list = [None] * len(steps) + [x]
    del x  # so releasing the slot frees the input when no caller holds it (int8)
    for idx, step in enumerate(steps):
        out = step.run(*[outputs[ref] for ref in step.inputs])
        if hook is not None:
            hook(idx, out)
        outputs[idx] = out
        for ref in step.frees:
            outputs[ref] = None
    return outputs[len(steps) - 1]


def _bind(model: ModelGraph, idx: int, layer: Layer) -> Callable:
    """One float layer as a function of its input tensors."""
    a = model.layer_attrs[idx]
    if layer.kind in ("conv", "detect_head"):
        slot = model.weights[layer.slot]
        spec = ConvSpec(slot["weight"], slot["bias"], a.stride, a.padding, a.groups)
        return lambda t: conv2d(t, spec)
    if layer.kind == "bn":
        slot = model.weights[layer.slot]
        return lambda t: batchnorm_infer(
            t, slot["gamma"], slot["beta"], slot["mean"], slot["var"], a.eps
        )
    if layer.kind == "act":
        return partial(activation, kind=a.fn)
    if layer.kind == "pool":
        return lambda t: pool(t, "max", a.kernel, a.stride, a.padding)
    if layer.kind == "concat":
        return concat_channels
    if layer.kind == "cbam":
        params = _cbam_params(model.weights[layer.slot])
        return lambda t: cbam_forward(t, params)
    raise ContractViolation(f"unknown layer kind {layer.kind!r}")


def forward(model: ModelGraph, x: Tensor, hook=None) -> Tensor:
    """Run the graph on a (1, 3, S, S) input; see run() for hook and freeing.

    The plan is rebuilt on every call, so weights edited between calls take
    effect.
    """
    return run(plan(model.layers, partial(_bind, model)), x, model.meta.input_size, hook)


# --- preprocessing -----------------------------------------------------------


@dataclass(frozen=True)
class LetterboxMeta:
    orig_w: int
    orig_h: int
    scale: float
    pad_x: float
    pad_y: float
    target: int


def _nearest_indices(dst: int, src: int) -> np.ndarray:
    return np.minimum(((np.arange(dst) + 0.5) * (src / dst)).astype(np.int64), src - 1)


def letterbox(rgb: bytes, width: int, height: int, target: int) -> tuple[Tensor, LetterboxMeta]:
    """Raw 8-bit RGB bytes -> (1, 3, target, target) tensor in [0, 1].

    Aspect-preserving nearest-neighbor resize, centered with integer pad
    offsets, gray 114/255 padding. The uint8 image is made channel-first
    before it is resized, and each code is divided by 255 in float32 straight
    into the canvas.
    """
    if width < 1 or height < 1:
        raise ContractViolation(f"image dims must be >= 1, got {width}x{height}")
    if target < 1:
        raise ContractViolation(f"letterbox target must be >= 1, got {target}")
    if len(rgb) != width * height * 3:
        raise ContractViolation(
            f"expected {width * height * 3} RGB bytes for {width}x{height}, got {len(rgb)}"
        )
    img = np.frombuffer(rgb, dtype=np.uint8).reshape(height, width, 3)
    scale = min(target / width, target / height)
    new_w = max(1, int(round(width * scale)))
    new_h = max(1, int(round(height * scale)))
    pad_x = (target - new_w) // 2
    pad_y = (target - new_h) // 2
    # The canvas, which outlives the call, is allocated before the uint8
    # temporaries, so they are freed above it rather than leaving holes below.
    canvas = np.full((1, 3, target, target), np.float32(PAD_GRAY), dtype=np.float32)
    chw = np.ascontiguousarray(img.transpose(2, 0, 1))
    resized = chw[:, _nearest_indices(new_h, height)][:, :, _nearest_indices(new_w, width)]
    inner = canvas[0, :, pad_y : pad_y + new_h, pad_x : pad_x + new_w]
    np.divide(resized, np.float32(255), out=inner, dtype=np.float32)
    return Tensor(canvas), LetterboxMeta(width, height, scale, float(pad_x), float(pad_y), target)


def letterbox_point(meta: LetterboxMeta, x: float, y: float) -> tuple[float, float]:
    """Original-image coordinates -> letterboxed-canvas coordinates."""
    return x * meta.scale + meta.pad_x, y * meta.scale + meta.pad_y


def unletterbox_point(meta: LetterboxMeta, x: float, y: float) -> tuple[float, float]:
    """Letterboxed-canvas coordinates -> original-image coordinates."""
    return (x - meta.pad_x) / meta.scale, (y - meta.pad_y) / meta.scale


# --- postprocessing ----------------------------------------------------------


@dataclass(frozen=True)
class Detection:
    class_id: int
    score: float
    box: tuple[float, float, float, float]  # x1, y1, x2, y2 in original pixels

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ContractViolation(f"score must be in [0, 1], got {self.score}")
        x1, y1, x2, y2 = self.box
        if not (x1 < x2 and y1 < y2):
            raise ContractViolation(f"box corners must be ordered, got {self.box}")


_MAX_SIDE_LOG = math.log(4.0)  # dw/dh exponent cap: 4 strides


def decode(
    raw: Tensor, meta: LetterboxMeta, conf_threshold: float = DEFAULT_CONF
) -> list[Detection]:
    """Raw (1, 4+K, G, G) head tensor -> detections in original pixel coords.

    Per cell: class = argmax of the K sigmoid scores (kept if score >=
    conf_threshold); center = (cell + sigmoid(dx/dy)) * stride; size =
    exp(dw/dh) * stride capped at 4 strides. Boxes are mapped through the
    inverse letterbox, clipped to the image, and dropped if clipping
    degenerates them, so every returned box satisfies 0 <= x1 < x2 <= W.
    """
    if not 0.0 <= conf_threshold <= 1.0:
        raise ContractViolation(f"conf_threshold must be in [0, 1], got {conf_threshold}")
    n, ck, gh, gw = raw.shape
    if n != 1 or ck < 5:
        raise ContractViolation(f"head tensor must be (1, 4+K, G, G) with K >= 1, got {raw.shape}")
    arr = raw.arr[0].astype(np.float64)
    stride = meta.target / gh
    scores = _sigmoid64(arr[4:])
    cls = scores.argmax(axis=0)
    best = scores.max(axis=0)
    gy, gx = np.mgrid[0:gh, 0:gw]
    cx = (gx + _sigmoid64(arr[0])) * stride
    cy = (gy + _sigmoid64(arr[1])) * stride
    bw = np.exp(np.minimum(arr[2], _MAX_SIDE_LOG)) * stride
    bh = np.exp(np.minimum(arr[3], _MAX_SIDE_LOG)) * stride
    dets: list[Detection] = []
    for iy in range(gh):
        for ix in range(gw):
            score = float(best[iy, ix])
            if score < conf_threshold:
                continue
            x1, y1 = unletterbox_point(meta, cx[iy, ix] - bw[iy, ix] / 2, cy[iy, ix] - bh[iy, ix] / 2)
            x2, y2 = unletterbox_point(meta, cx[iy, ix] + bw[iy, ix] / 2, cy[iy, ix] + bh[iy, ix] / 2)
            x1, x2 = max(0.0, x1), min(float(meta.orig_w), x2)
            y1, y2 = max(0.0, y1), min(float(meta.orig_h), y2)
            if x1 >= x2 or y1 >= y2:
                continue
            dets.append(Detection(int(cls[iy, ix]), score, (x1, y1, x2, y2)))
    return dets


def iou(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    """Intersection over union of two corner-form boxes (0 when disjoint)."""
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    iw, ih = max(0.0, ix2 - ix1), max(0.0, iy2 - iy1)
    inter = iw * ih
    if inter <= 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def _det_order_key(d: Detection):
    return (-d.score, d.class_id, d.box[0], d.box[1])


def nms(dets: list[Detection], iou_threshold: float = DEFAULT_IOU) -> list[Detection]:
    """Greedy per-class suppression of overlaps with IoU strictly above the
    threshold (IoU exactly equal to the threshold survives).

    Candidates are ordered by (score desc, class_id asc, x1 asc, y1 asc);
    the survivors come back in that same deterministic order.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ContractViolation(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    ordered = sorted(dets, key=_det_order_key)
    by_class: dict[int, list[int]] = {}
    for i, d in enumerate(ordered):
        by_class.setdefault(d.class_id, []).append(i)
    keep = np.ones(len(ordered), dtype=bool)
    for members in by_class.values():
        boxes = np.array([ordered[i].box for i in members], dtype=np.float64)
        over = _pairwise_iou(boxes) > iou_threshold
        alive = np.ones(len(members), dtype=bool)
        for j in range(len(members) - 1):
            if alive[j]:  # a kept box suppresses every later overlap in its class
                alive[j + 1 :] &= ~over[j, j + 1 :]
        keep[members] = alive
    return [d for d, k in zip(ordered, keep) if k]


def _pairwise_iou(boxes: np.ndarray) -> np.ndarray:
    """iou() of every pair of rows of an (n, 4) float64 box array.

    The float64 operations and their order are iou()'s, so entry (i, j)
    equals iou(boxes[i], boxes[j]) wherever it has an overlap; where it has
    none (inter <= 0) the entry is 0, as in iou().
    """
    a, b = boxes[:, None, :], boxes[None, :, :]
    iw = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]))
    ih = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]))
    inter = iw * ih
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = inter / (area[:, None] + area[None, :] - inter)
    return np.where(inter > 0.0, ratio, 0.0)


# --- detection record text format -------------------------------------------


def format_detection(d: Detection) -> str:
    """One text record: class_id, score to 4 decimals, corners to 1 decimal."""
    x1, y1, x2, y2 = d.box
    return f"{d.class_id} {d.score:.4f} {x1:.1f} {y1:.1f} {x2:.1f} {y2:.1f}"


def parse_detection(line: str) -> Detection:
    parts = line.split()
    if len(parts) != 6:
        raise ContractViolation(f"detection record needs 6 fields, got {len(parts)}: {line!r}")
    return Detection(int(parts[0]), float(parts[1]), tuple(float(p) for p in parts[2:]))


# --- serialization -----------------------------------------------------------


def _layers_to_json(layers: list[Layer]) -> list[dict]:
    return [
        {"kind": l.kind, "inputs": list(l.inputs), "slot": l.slot, "attrs": l.attrs}
        for l in layers
    ]


def _layers_from_json(doc: list[dict]) -> list[Layer]:
    """Layers from a container's JSON, each attrs object kept raw."""
    layers = []
    for d in doc:
        inputs = container.require(d, "inputs")
        if not (isinstance(inputs, list) and all(type(i) is int for i in inputs)):
            raise ContainerError(f"layer inputs must be a list of ints, got {inputs!r}")
        slot, attrs = d.get("slot"), d.get("attrs", {})
        if not ((slot is None or isinstance(slot, str)) and isinstance(attrs, dict)):
            raise ContainerError(
                f"layer slot must be a string or null, attrs must be a JSON object: {slot!r}, {attrs!r}"
            )
        layers.append(Layer(container.require(d, "kind"), tuple(inputs), slot, attrs))
    return layers


def _meta_to_json(meta: ModelMeta) -> dict:
    return {
        "input_size": meta.input_size,
        "num_classes": meta.num_classes,
        "class_names": list(meta.class_names),
        "stride": meta.stride,
    }


def _meta_from_json(doc: dict) -> ModelMeta:
    """ints (not bools) input_size, num_classes, stride; class_names strings."""
    size, classes, names = (
        container.require(doc, key) for key in ("input_size", "num_classes", "class_names")
    )
    stride = doc.get("stride", GRID_STRIDE)
    for name, value in (("input_size", size), ("num_classes", classes), ("stride", stride)):
        if type(value) is not int:
            raise ContainerError(f"meta {name} must be an int, got {value!r}")
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ContainerError(f"meta class_names must be a list of strings, got {names!r}")
    return ModelMeta(size, classes, tuple(names), stride)


def save_model_bytes(model: ModelGraph) -> bytes:
    """Serialize the float graph to the weights-container byte format."""
    tensors: list[tuple[str, np.ndarray]] = []
    for slot in sorted(model.weights):
        for name in sorted(model.weights[slot]):
            tensors.append((f"{slot}/{name}", model.weights[slot][name]))
    doc = {
        "container": "float",
        "layers": _layers_to_json(model.layers),
        "meta": _meta_to_json(model.meta),
    }
    return container.write_container(doc, tensors)


def save_model(model: ModelGraph, path: str) -> int:
    return container.save(save_model_bytes(model), path)


def load_model(path_or_bytes) -> ModelGraph:
    return _model_from_container(*container.read_container(path_or_bytes))


def _model_from_container(doc: dict, tensors: dict[str, np.ndarray]) -> ModelGraph:
    """A float model from a parsed container's document and tensors, each finite float32."""
    if doc.get("container") != "float":
        raise ContainerError(f"expected a float container, got {doc.get('container')!r}")
    weights: dict[str, dict[str, np.ndarray]] = {}
    for key, arr in tensors.items():
        if arr.dtype != np.float32:
            raise ContainerError(f"tensor {key} must be float32, got {arr.dtype}")
        if not np.isfinite(arr).all():
            raise ContainerError(f"tensor {key} holds NaN or inf")
        slot, _, name = key.rpartition("/")
        weights.setdefault(slot, {})[name] = arr
    layers = _layers_from_json(container.require(doc, "layers", list))
    return ModelGraph(layers, weights, _meta_from_json(container.require(doc, "meta")))
