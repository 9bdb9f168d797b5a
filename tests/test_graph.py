"""Detector graph tests: build goldens, executor wiring, pre/post processing.

The two sha256 goldens pin bit-stability of the seeded build and of a full
forward pass. They were recorded from a verified run on this platform; a
changed BLAS or numpy stream policy is the only legitimate reason they move.
"""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from greenlite import (
    ContainerError,
    ContractViolation,
    Detection,
    Layer,
    ModelGraph,
    ModelMeta,
    Tensor,
    build_model,
    decode,
    format_detection,
    forward,
    iou,
    letterbox,
    letterbox_point,
    load_any,
    load_model,
    nms,
    parse_detection,
    save_model,
    save_model_bytes,
    unletterbox_point,
)
from greenlite import tensor as gl_tensor
from greenlite.container import read_container, write_container
from greenlite.graph import (
    MAX_INPUT_SIZE,
    LetterboxMeta,
    _bind,
    _pairwise_iou,
    default_class_names,
    infer_shapes,
)

from _oracles import iou_ref, letterbox_hwc, nms_ref

GOLDEN_LAYERS = 93
GOLDEN_PARAMS = 1_047_982
GOLDEN_CONTAINER_BYTES = 4_208_320
GOLDEN_CONTAINER_SHA = "c3ce3c95a4447d1336e5182e5b9592a2c811b09709ca1ee8091fd7bc5e9a5372"
GOLDEN_FORWARD_SHA = "1989df3ea6ce9fe251a6abc637754adf26c116b3f30e25e885e4289f1f274d0e"


def tiny_model(num_classes=2, size=64):
    """A narrow 64-px build keeps per-test forwards around a millisecond."""
    return build_model(num_classes, width_multiple=0.0625, input_size=size)


# ---- build determinism and goldens ----


def test_build_is_deterministic_and_matches_goldens():
    a = build_model(num_classes=7)
    b = build_model(num_classes=7)
    blob_a = save_model_bytes(a)
    blob_b = save_model_bytes(b)
    assert blob_a == blob_b
    assert len(a.layers) == GOLDEN_LAYERS
    assert a.param_count() == GOLDEN_PARAMS
    assert len(blob_a) == GOLDEN_CONTAINER_BYTES
    assert hashlib.sha256(blob_a).hexdigest() == GOLDEN_CONTAINER_SHA


def test_forward_is_bit_stable():
    m = build_model(num_classes=7)
    rng = np.random.Generator(np.random.PCG64(123))
    x = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 320, 320)).astype(np.float32))
    y = forward(m, x)
    assert y.shape == (1, 11, 10, 10)
    assert hashlib.sha256(y.arr.tobytes()).hexdigest() == GOLDEN_FORWARD_SHA


@pytest.mark.parametrize("budget", [1, 300_001])
def test_forward_goldens_hold_in_bands(monkeypatch, budget):
    """One-row conv bands, and bands of a few rows whose last one is short,
    keep the float head's golden."""
    monkeypatch.setattr(gl_tensor, "BUDGET", budget)
    test_forward_is_bit_stable()


# The numpy scratch peak of one default float forward is 5.56e6 bytes: the s1
# downsampling conv's input, padded input, output and one band. Whole-tensor
# float64 temporaries in bn or the activations, a whole-plane conv GEMM, or
# conv operands kept alive past their use, take it above this bound.
FORWARD_SCRATCH_BOUND = 5.8e6


def test_float_forward_working_set_is_bounded():
    """tracemalloc peak of one forward of build_model(7, seed=1) at 320 px."""
    m = build_model(num_classes=7, seed=1)
    rng = np.random.Generator(np.random.PCG64(124))
    x = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 320, 320)).astype(np.float32))
    forward(m, x)  # warm-up: lazy numpy and BLAS set-up is not the forward's
    tracemalloc.start()
    try:
        forward(m, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= FORWARD_SCRATCH_BOUND, peak


def test_zero_image_forward_is_finite():
    m = build_model(num_classes=7)
    y = forward(m, Tensor(np.zeros((1, 3, 320, 320), dtype=np.float32)))
    assert y.shape == (1, 4 + 7, 320 // 32, 320 // 32)
    assert np.all(np.isfinite(y.arr))


def test_default_class_names_and_custom_names():
    m = build_model(num_classes=3)
    assert m.meta.class_names == default_class_names(3)
    named = build_model(num_classes=2, class_names=("cup", "pen"))
    assert named.meta.class_names == ("cup", "pen")
    with pytest.raises(ContractViolation):
        build_model(num_classes=3, class_names=("a",))


def test_build_rejects_bad_geometry():
    with pytest.raises(ContractViolation):
        build_model(num_classes=0)
    with pytest.raises(ContractViolation):
        build_model(num_classes=2, input_size=100)
    with pytest.raises(ContractViolation):
        build_model(num_classes=2, width_multiple=0.0)


def test_per_stage_attention_variant_builds_and_runs():
    m = build_model(num_classes=2, width_multiple=0.0625, input_size=64, cbam_per_stage=True)
    assert sum(1 for l in m.layers if l.kind == "cbam") == 5
    y = forward(m, Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
    assert y.shape == (1, 6, 2, 2)


# ---- container round trip ----


def test_save_load_round_trip_preserves_everything(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.glw"
    written = save_model(m, path)
    assert written == path.stat().st_size == len(save_model_bytes(m))
    back = load_model(path)
    assert back.layers == m.layers
    assert back.meta == m.meta
    assert set(back.weights) == set(m.weights)
    for slot, arrs in m.weights.items():
        for name, arr in arrs.items():
            got = back.weights[slot][name]
            assert got.dtype == arr.dtype
            assert np.array_equal(got, arr)
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
    assert np.array_equal(forward(back, x).arr, forward(m, x).arr)


def test_load_from_bytes_matches_load_from_path(tmp_path):
    m = tiny_model()
    blob = save_model_bytes(m)
    back = load_model(blob)
    assert back.layers == m.layers
    assert back.param_count() == m.param_count()


@pytest.mark.parametrize("key", ["layers", "meta"])
def test_container_without_a_doc_key_is_a_container_error(key):
    doc, tensors = read_container(save_model_bytes(tiny_model()))
    del doc[key]
    with pytest.raises(ContainerError, match=key):
        load_model(write_container(doc, list(tensors.items())))


def first_layer(doc, kind):
    return next(layer for layer in doc["layers"] if layer["kind"] == kind)


@pytest.mark.parametrize(
    "edit, error, match",
    [
        (lambda doc: doc["layers"][0].pop("kind"), ContainerError, "missing 'kind'"),
        (lambda doc: doc["layers"][0].pop("inputs"), ContainerError, "missing 'inputs'"),
        (lambda doc: doc["layers"][0].update(inputs=5), ContainerError, "inputs must be a list"),
        (lambda doc: doc["layers"][0].update(inputs=[None]), ContainerError, "inputs must be a list"),
        (lambda doc: doc["meta"].pop("input_size"), ContainerError, "missing 'input_size'"),
        (lambda doc: first_layer(doc, "act")["attrs"].update(fn="gelu"), ContractViolation, "'gelu'"),
        (lambda doc: doc["layers"][2].update(inputs=[True]), ContainerError, "inputs must be a list"),
        (lambda doc: doc["layers"][0].update(attrs=[["stride", 2]]), ContainerError, "attrs must be a JSON object"),
        (lambda doc: doc["layers"][0].update(attrs="ab"), ContainerError, "attrs must be a JSON object"),
        (lambda doc: doc["layers"][0].update(slot=["stem.conv"]), ContainerError, "slot must be a string"),
        (lambda doc: doc["meta"].update(input_size="x"), ContainerError, "input_size must be an int"),
        (lambda doc: doc["meta"].update(input_size=65.5), ContainerError, "input_size must be an int"),
        (lambda doc: doc["meta"].update(stride=None), ContainerError, "stride must be an int"),
        (lambda doc: doc["meta"].update(num_classes=True), ContainerError, "num_classes must be an int"),
        (lambda doc: doc["meta"].update(class_names="ab"), ContainerError, "list of strings"),
        (lambda doc: doc["meta"].update(num_classes=3, class_names=["a", "b", "c"]), ContractViolation,
         "6 head channels for 3 classes"),
    ],
    ids=["layer-without-kind", "layer-without-inputs", "inputs-not-a-list", "inputs-null",
         "meta-without-input-size", "act-gelu", "inputs-bool", "attrs-a-list", "attrs-a-string",
         "slot-a-list", "meta-input-size-string", "meta-input-size-float", "meta-stride-null",
         "meta-num-classes-bool", "meta-class-names-string", "meta-classes-over-the-head"],
)
def test_malformed_container_fields_fail_at_load_with_typed_errors(edit, error, match):
    doc, tensors = read_container(save_model_bytes(tiny_model()))
    edit(doc)
    with pytest.raises(error, match=match):
        load_model(write_container(doc, list(tensors.items())))


@pytest.mark.parametrize("kind", ["float", "int8"])
def test_an_input_size_above_the_bound_fails_at_load(fuzz_subjects, kind):
    """A larger input would load and then fail allocating the first forward's activations."""
    doc, tensors = read_container(fuzz_subjects[kind])
    doc["meta"]["input_size"] = 4096
    with pytest.raises(ContractViolation, match=f"input size 4096 is above the bound {MAX_INPUT_SIZE}"):
        load_any(write_container(doc, list(tensors.items())))


def replaced(key, make):
    """An edit of a container's tensors that replaces tensor key by make(it)."""
    return lambda tensors: tensors.update({key: make(tensors[key])})


@pytest.mark.parametrize(
    "edit, match",
    [
        (replaced("stem.conv/bias", lambda a: a[:3].copy()), r"conv bias must have shape \(4,\), got \(3,\)"),
        (replaced("stem.conv/weight", lambda a: a[..., :1].copy()), "conv kernels must be square, got 3x1"),
        (replaced("stem.conv/weight", lambda a: a[0].copy()), "conv weight must be 4-d, got ndim=3"),
        (replaced("cbam/mlp_b1", lambda a: np.zeros(5, np.float32)), "mlp weight/bias shapes are inconsistent"),
        (replaced("cbam/mlp_b2", lambda a: np.zeros(3, np.float32)), r"mlp_b2 must have shape \(64,\)"),
        (replaced("cbam/spatial_weight", lambda a: np.zeros((1, 2, 6, 6), np.float32)),
         "spatial kernel must be square and odd"),
    ],
    ids=["conv-bias-length-3", "conv-kernel-3x1", "conv-weight-3-d", "cbam-mlp-b1-length-5",
         "cbam-mlp-b2-length-3", "cbam-spatial-kernel-6x6"],
)
def test_malformed_conv_and_cbam_tensors_fail_at_load(edit, match):
    """Every conv's and CBAM's tensor shapes are checked when the model is
    built, by conv_geometry and CbamParams, not in its first forward."""
    doc, tensors = read_container(save_model_bytes(tiny_model()))
    edit(tensors)
    with pytest.raises(ContractViolation, match=match):
        load_model(write_container(doc, list(tensors.items())))


def slot_layer(doc, slot):
    return next(layer for layer in doc["layers"] if layer["slot"] == slot)


def retyped(key, dtype):
    return lambda doc, tensors: tensors.update({key: tensors[key].astype(dtype)})


def poisoned(key, value):
    """An edit that sets the first element of tensor key to value."""
    def edit(doc, tensors):
        tensors[key].flat[0] = value
    return edit


def zero_width_stem(doc, tensors):
    """Give the stem conv no output channels: its weight, bias and bn arrays
    empty, and the conv that reads it no input channels."""
    for key in ("stem.conv/weight", "stem.conv/bias", *(f"stem.bn/{n}" for n in ("gamma", "beta", "mean", "var"))):
        tensors[key] = tensors[key][:0].copy()
    tensors["s1.ds.conv/weight"] = tensors["s1.ds.conv/weight"][:, :0].copy()


@pytest.mark.parametrize(
    "edit, error, match",
    [
        (lambda doc, _: doc["layers"][2].update(inputs=[5]), ContractViolation,
         r"layer 2 \(act\): input 5 is not a strictly earlier layer"),
        (lambda _, tensors: tensors.pop("stem.bn/var"), ContractViolation,
         "slot 'stem.bn' is missing array 'var' for layer 1"),
        (lambda doc, _: slot_layer(doc, "s1.ds.conv").update(inputs=[-1]), ContractViolation,
         "layer 3: conv expects 4 input channels, got 3"),
        (lambda doc, _: first_layer(doc, "cbam").update(inputs=[2]), ContractViolation,
         "cbam params are for 64 channels, got 4"),
        (lambda doc, _: slot_layer(doc, "s2.c2f.m1.conv").update(slot="s2.c2f.m0.conv"), ContractViolation,
         "layer 32: slot 's2.c2f.m0.conv' is already layer 29's"),
        (lambda doc, _: slot_layer(doc, "s2.c2f.m1.bn").update(slot="s2.c2f.m0.bn"), ContractViolation,
         "layer 33: slot 's2.c2f.m0.bn' is already layer 30's"),
        (retyped("stem.conv/weight", np.int32), ContainerError, "tensor stem.conv/weight must be float32, got int32"),
        (retyped("stem.bn/var", np.float64), ContainerError, "tensor stem.bn/var must be float32, got float64"),
        (poisoned("stem.conv/weight", np.nan), ContainerError, "tensor stem.conv/weight holds NaN or inf"),
        (poisoned("stem.conv/weight", np.inf), ContainerError, "tensor stem.conv/weight holds NaN or inf"),
        (lambda doc, _: doc["meta"].update(stride=7), ContractViolation,
         "meta stride 7 times the 2x2 head grid is not input size 64"),
        (lambda doc, _: doc["meta"].update(stride=-3), ContractViolation,
         "meta stride -3 times the 2x2 head grid is not input size 64"),
        (zero_width_stem, ContractViolation, r"conv weight dims must be >= 1, got \(0, 3, 3, 3\)"),
    ],
    ids=["input-a-later-layer", "slot-missing-an-array", "conv-channel-mismatch", "cbam-channel-mismatch",
         "two-convs-share-a-slot", "two-bns-share-a-slot", "conv-weight-i32", "bn-var-f64", "conv-weight-nan",
         "conv-weight-inf", "meta-stride-7", "meta-stride-minus-3", "zero-width-conv"],
)
def test_malformed_float_graphs_fail_at_load(edit, error, match):
    """Topology, slot and channel checks, one layer per slot (two bn folds
    into one shared conv weight would be wrong), float32 tensors and a meta
    stride that scales the head grid to the input size, all at load."""
    doc, tensors = read_container(save_model_bytes(tiny_model()))
    edit(doc, tensors)
    with pytest.raises(error, match=match):
        load_model(write_container(doc, list(tensors.items())))


def test_an_extra_tensor_in_a_cbam_slot_is_ignored():
    """A CBAM layer reads its six named arrays, so an extra tensor in its slot
    changes nothing."""
    m = tiny_model()
    doc, tensors = read_container(save_model_bytes(m))
    tensors["cbam/extra"] = np.zeros(2, np.float32)
    x = Tensor(np.random.default_rng(3).uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
    back = load_model(write_container(doc, list(tensors.items())))
    assert np.array_equal(forward(back, x).arr, forward(m, x).arr)


def test_param_count_recounts_through_serialization():
    m = build_model(num_classes=7)
    back = load_model(save_model_bytes(m))
    total = sum(int(a.size) for slot in back.weights.values() for a in slot.values())
    assert total == GOLDEN_PARAMS == m.param_count()


# ---- executor wiring ----


def test_forward_replay_recomputes_every_layer():
    """Re-applying each layer to its recorded inputs must reproduce the
    recorded outputs bit for bit; this pins the executor's input routing
    and proves eager freeing never hands a consumer a recycled tensor."""
    m = tiny_model()
    rng = np.random.default_rng(17)
    x = Tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
    recorded: dict[int, Tensor] = {}
    forward(m, x, hook=lambda idx, out: recorded.__setitem__(idx, Tensor(out.arr.copy())))
    assert len(recorded) == len(m.layers)
    for idx, layer in enumerate(m.layers):
        ins = [x if ref == -1 else recorded[ref] for ref in layer.inputs]
        again = _bind(m, idx, layer)(*ins)
        assert np.array_equal(again.arr, recorded[idx].arr), f"layer {idx} ({layer.kind})"


def test_forward_rejects_wrong_input_shape():
    m = tiny_model()
    with pytest.raises(ContractViolation):
        forward(m, Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
    with pytest.raises(ContractViolation):
        forward(m, Tensor(np.zeros((2, 3, 64, 64), dtype=np.float32)))


def test_inferred_shapes_match_recorded_outputs():
    m = tiny_model()
    shapes = infer_shapes(m)
    rng = np.random.default_rng(18)
    x = Tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
    recorded = {}
    forward(m, x, hook=lambda idx, out: recorded.__setitem__(idx, out.shape))
    for idx, (c, h, w) in enumerate(shapes):
        assert recorded[idx] == (1, c, h, w)


def test_head_class_bias_shift_moves_only_that_channel():
    m = tiny_model(num_classes=3)
    rng = np.random.default_rng(19)
    x = Tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
    base = forward(m, x).arr.copy()
    m.weights["head"]["bias"] = m.weights["head"]["bias"].copy()
    m.weights["head"]["bias"][4 + 1] += 10.0
    after = forward(m, x).arr
    mask = np.arange(base.shape[1]) != 5
    assert np.array_equal(after[:, mask], base[:, mask])
    assert np.max(np.abs(after[:, 5] - base[:, 5] - 10.0)) <= 1e-3


def test_graph_validation_rejects_malformed_graphs():
    meta = ModelMeta(64, 1, ("only",))
    head_w = {"weight": np.zeros((5, 3, 1, 1), dtype=np.float32), "bias": np.zeros(5, dtype=np.float32)}
    with pytest.raises(ContractViolation):
        ModelGraph([], {}, meta)
    with pytest.raises(ContractViolation):
        # head must be the final layer and must read a layer output, not the input
        ModelGraph([Layer("detect_head", (-1,), "head")], {"head": head_w}, meta)
    with pytest.raises(ContractViolation):
        ModelGraph([Layer("concat", (-1,))], {}, meta)
    with pytest.raises(ContractViolation):
        ModelGraph([Layer("act", (3,), None, {"fn": "silu"})], {}, meta)


@pytest.mark.parametrize(
    "kind, attrs",
    [
        ("conv", {"stride": 0}),
        ("conv", {"stride": -2}),
        ("conv", {"padding": -3}),
        ("conv", {"groups": 0}),
        ("detect_head", {"stride": 0}),
        ("detect_head", {"padding": -1}),
        ("detect_head", {"groups": -1}),
        ("pool", {"kernel": 0}),
        ("pool", {"stride": 0}),
        ("pool", {"padding": -1}),
        ("pool", {"padding": 5}),
        ("pool", {"padding": 7}),
        ("pool", {"pool": "avg"}),
        ("conv", {"stride": None}),
        ("conv", {"stride": 1.5}),
        ("conv", {"stride": True}),
        ("conv", {"stride": "2"}),
        ("pool", {"kernel": None}),
        ("pool", {"kernel": 5.5}),
        ("conv", {"padding": 64}),
    ],
)
def test_graph_validation_rejects_bad_geometry(kind, attrs):
    """Out-of-range or non-int stride, padding, groups and kernel fail at
    construction with a typed error, not a ZeroDivisionError, a later kernel
    error or a silent truncation."""
    model = tiny_model()
    layers = list(model.layers)
    idx = next(i for i, layer in enumerate(layers) if layer.kind == kind)
    layers[idx] = dataclasses.replace(layers[idx], attrs={**layers[idx].attrs, **attrs})
    name = next(iter(attrs))
    with pytest.raises(ContractViolation, match=f"layer {idx} .*{name}"):
        ModelGraph(layers, model.weights, model.meta)


def test_graph_validation_requires_a_pool_kernel():
    model = tiny_model()
    layers = list(model.layers)
    idx = next(i for i, layer in enumerate(layers) if layer.kind == "pool")
    attrs = {k: v for k, v in layers[idx].attrs.items() if k != "kernel"}
    layers[idx] = dataclasses.replace(layers[idx], attrs=attrs)
    with pytest.raises(ContractViolation, match="missing kernel"):
        ModelGraph(layers, model.weights, model.meta)


# ---- letterbox ----


def test_letterbox_square_is_identity_scaling():
    rng = np.random.default_rng(25)
    raw = rng.integers(0, 256, size=(320, 320, 3), dtype=np.uint8)
    t, meta = letterbox(raw.tobytes(), 320, 320, 320)
    assert t.shape == (1, 3, 320, 320)
    assert (meta.scale, meta.pad_x, meta.pad_y) == (1.0, 0.0, 0.0)
    want = raw.astype(np.float32).transpose(2, 0, 1) / 255.0
    assert np.array_equal(t.arr[0], want)


def test_letterbox_wide_image_pads_top_and_bottom():
    raw = bytes(200 * 100 * 3)
    t, meta = letterbox(raw, 200, 100, 320)
    assert meta.scale == 1.6
    assert (meta.pad_x, meta.pad_y) == (0.0, 80.0)
    # padding rows carry the gray fill, content rows the (black) image
    gray = np.float32(114.0 / 255.0)
    assert np.all(t.arr[0, :, :80, :] == gray)
    assert np.all(t.arr[0, :, 240:, :] == gray)
    assert np.all(t.arr[0, :, 80:240, :] == 0.0)


def test_letterbox_point_round_trip():
    metas = [
        letterbox(bytes(200 * 100 * 3), 200, 100, 320)[1],
        letterbox(bytes(97 * 313 * 3), 97, 313, 320)[1],
        letterbox(bytes(320 * 320 * 3), 320, 320, 320)[1],
    ]
    rng = np.random.default_rng(26)
    for meta in metas:
        for _ in range(50):
            x = float(rng.uniform(0, meta.orig_w))
            y = float(rng.uniform(0, meta.orig_h))
            lx, ly = letterbox_point(meta, x, y)
            bx, by = unletterbox_point(meta, lx, ly)
            assert abs(bx - x) <= 0.5 and abs(by - y) <= 0.5
            assert abs(bx - x) <= 1e-9 * max(1.0, abs(x)) + 1e-9


@pytest.mark.parametrize(
    "width, height, target",
    [
        (320, 320, 320),  # square, same size
        (64, 64, 320),  # square upscale
        (640, 640, 320),  # square downscale
        (200, 100, 320),  # wide upscale
        (640, 480, 320),  # wide downscale
        (97, 313, 320),  # tall, odd sizes
        (300, 701, 320),  # tall downscale
        (1, 1, 32),
        (1, 1, 1),
        (3, 5, 7),
        (33, 17, 31),
    ],
)
def test_letterbox_matches_the_hwc_canvas_form_bitwise(width, height, target):
    rng = np.random.default_rng(width * 1000 + height)
    rgb = rng.integers(0, 256, width * height * 3, dtype=np.uint8).tobytes()
    t, meta = letterbox(rgb, width, height, target)
    want, want_meta = letterbox_hwc(rgb, width, height, target)
    assert t.arr.dtype == np.float32 and t.arr.shape == want.shape
    assert t.arr.tobytes() == want.tobytes()
    assert dataclasses.astuple(meta) == want_meta


def test_letterbox_validates_buffer():
    with pytest.raises(ContractViolation):
        letterbox(bytes(10), 2, 2, 32)
    with pytest.raises(ContractViolation):
        letterbox(bytes(12), 2, 2, 0)


# ---- decode ----


def make_meta(w=320, h=320, target=320):
    t, meta = letterbox(bytes(w * h * 3), w, h, target)
    del t
    return meta


def test_decode_single_hot_cell():
    """One cell with a +4 class-0 logit yields exactly one detection."""
    k = 7
    raw = np.full((1, 4 + k, 10, 10), 0.0, dtype=np.float32)
    raw[0, 4:] = -10.0
    raw[0, 4 + 0, 2, 3] = 4.0
    dets = decode(Tensor(raw), make_meta(), conf_threshold=0.25)
    assert len(dets) == 1
    d = dets[0]
    assert d.class_id == 0
    assert abs(d.score - 1.0 / (1.0 + math.exp(-4.0))) <= 1e-6
    # zero offsets: center (3.5, 2.5) cells, one stride (32 px) per side
    assert d.box == (3.5 * 32 - 16, 2.5 * 32 - 16, 3.5 * 32 + 16, 2.5 * 32 + 16)


def test_decode_empty_when_nothing_clears_threshold():
    raw = np.full((1, 9, 10, 10), -10.0, dtype=np.float32)
    assert decode(Tensor(raw), make_meta(), conf_threshold=0.25) == []


def test_decode_boxes_stay_inside_the_original_image():
    rng = np.random.default_rng(33)
    for _ in range(20):
        w = int(rng.integers(40, 500))
        h = int(rng.integers(40, 500))
        raw = Tensor(rng.uniform(-6, 6, (1, 6, 10, 10)).astype(np.float32))
        for d in decode(raw, make_meta(w, h), conf_threshold=0.0):
            x1, y1, x2, y2 = d.box
            assert 0.0 <= x1 < x2 <= w
            assert 0.0 <= y1 < y2 <= h
            assert 0.0 <= d.score <= 1.0


def test_decode_validates_arguments():
    raw = Tensor(np.zeros((1, 9, 10, 10), dtype=np.float32))
    with pytest.raises(ContractViolation):
        decode(raw, make_meta(), conf_threshold=1.5)
    with pytest.raises(ContractViolation):
        decode(Tensor(np.zeros((1, 4, 10, 10), dtype=np.float32)), make_meta())


# ---- iou and nms ----


def test_iou_fixtures():
    a = (0.0, 0.0, 10.0, 10.0)
    assert iou(a, a) == 1.0
    assert iou(a, (20.0, 20.0, 30.0, 30.0)) == 0.0
    assert iou(a, (10.0, 0.0, 20.0, 10.0)) == 0.0  # touching edges do not overlap
    assert abs(iou(a, (5.0, 0.0, 15.0, 10.0)) - 1.0 / 3.0) <= 1e-12


def test_iou_matches_reference_on_random_boxes():
    rng = np.random.default_rng(41)
    for _ in range(300):
        a = sorted(rng.uniform(0, 100, 2)) + sorted(rng.uniform(0, 100, 2))
        b = sorted(rng.uniform(0, 100, 2)) + sorted(rng.uniform(0, 100, 2))
        box_a = (a[0], a[2], a[1] + 1, a[3] + 1)
        box_b = (b[0], b[2], b[1] + 1, b[3] + 1)
        assert iou(box_a, box_b) == iou_ref(box_a, box_b)


def test_nms_keeps_singleton_and_suppresses_heavy_overlap():
    d1 = Detection(0, 0.9, (0.0, 0.0, 10.0, 10.0))
    assert nms([d1]) == [d1]
    d2 = Detection(0, 0.8, (0.0, 2.0, 10.0, 12.0))  # IoU 2/3 with d1
    assert nms([d1, d2], iou_threshold=0.5) == [d1]
    other = Detection(1, 0.8, (0.0, 2.0, 10.0, 12.0))
    assert nms([d1, other], iou_threshold=0.5) == [d1, other]


def test_nms_iou_equal_to_threshold_survives():
    d1 = Detection(0, 0.9, (0.0, 0.0, 10.0, 10.0))
    d2 = Detection(0, 0.8, (5.0, 0.0, 15.0, 10.0))  # IoU exactly 1/3
    thr = iou(d1.box, d2.box)
    assert nms([d1, d2], iou_threshold=thr) == [d1, d2]


def random_detections(rng, n, num_classes=3, span=40.0):
    dets = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, span, 2)
        w, h = rng.uniform(1, 15, 2)
        dets.append(
            Detection(
                int(rng.integers(0, num_classes)),
                float(np.round(rng.uniform(0.05, 1.0), 3)),
                (float(x1), float(y1), float(x1 + w), float(y1 + h)),
            )
        )
    return dets


def test_nms_matches_brute_force_reference():
    """1200 random detection sets against the O(n^2) oracle, exact equality."""
    rng = np.random.default_rng(42)
    for case in range(1200):
        dets = random_detections(rng, int(rng.integers(0, 12)))
        thr = float(rng.choice([0.3, 0.45, 0.5, 0.7]))
        got = [(d.class_id, d.score, d.box) for d in nms(dets, thr)]
        want = nms_ref([(d.class_id, d.score, d.box) for d in dets], thr)
        assert got == want, f"case {case}"


def test_pairwise_iou_equals_iou_on_every_pair():
    """Bit for bit, touching and disjoint pairs included."""
    rng = np.random.default_rng(44)
    for _ in range(20):
        boxes = [d.box for d in random_detections(rng, 30, span=30.0)]
        boxes.append((boxes[0][2], boxes[0][1], boxes[0][2] + 5.0, boxes[0][3]))  # touches box 0
        got = _pairwise_iou(np.array(boxes))
        want = np.array([[iou_ref(a, b) for b in boxes] for a in boxes])
        assert np.array_equal(got, want)


def test_nms_matches_brute_force_reference_on_dense_sets():
    """Crowded one- and two-class sets, where most boxes get suppressed."""
    rng = np.random.default_rng(45)
    for case in range(40):
        n = int(rng.integers(40, 101))
        dets = random_detections(rng, n, num_classes=1 + case % 2, span=60.0)
        thr = float(rng.choice([0.0, 0.3, 0.45, 0.7]))
        got = [(d.class_id, d.score, d.box) for d in nms(dets, thr)]
        want = nms_ref([(d.class_id, d.score, d.box) for d in dets], thr)
        assert got == want, f"case {case}"


def test_nms_is_idempotent():
    rng = np.random.default_rng(43)
    for _ in range(100):
        kept = nms(random_detections(rng, 10), 0.45)
        assert nms(kept, 0.45) == kept


# ---- detection text records ----


def test_detection_record_round_trip_is_stable():
    rng = np.random.default_rng(51)
    for _ in range(100):
        d = random_detections(rng, 1)[0]
        line = format_detection(d)
        back = parse_detection(line)
        assert format_detection(back) == line
        assert back.class_id == d.class_id
        assert abs(back.score - d.score) <= 5e-5
    with pytest.raises(ContractViolation):
        parse_detection("1 0.5 3 4")


def test_detection_validates_fields():
    with pytest.raises(ContractViolation):
        Detection(0, 1.5, (0.0, 0.0, 1.0, 1.0))
    with pytest.raises(ContractViolation):
        Detection(0, 0.5, (2.0, 0.0, 1.0, 1.0))


def test_letterbox_meta_is_plain_data():
    meta = LetterboxMeta(200, 100, 1.6, 0.0, 80.0, 320)
    assert meta == make_meta(200, 100)
