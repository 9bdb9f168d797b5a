"""Release gate: one test per numbered acceptance criterion.

Each test below is a single criterion; its pytest -v line is the pass/fail
verdict for that criterion. The suite builds desk-scale artifacts (synthetic
images, the default 320-px detector, its int8 twin) and checks kernel
fidelity, attention invariants, oracle equivalence, quantization quality,
resource reductions, emissions arithmetic, dataset plumbing, and the full
CLI pipeline end to end.
"""

import gc
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from _oracles import (
    batchnorm_naive,
    conv2d_naive,
    map50_ref,
    nms_ref,
    pool_naive,
)
from conftest import assert_tracker_empty, load_tensors
from greenlite import (
    CbamParams,
    ConvSpec,
    Detection,
    EmissionRecord,
    GroundTruthBox,
    Tensor,
    activation,
    average_precision,
    batchnorm_infer,
    build_model,
    calibrate,
    cbam_forward,
    channel_attention,
    choose_params,
    class_weights,
    classification_metrics,
    conv2d,
    emissions,
    estimate_energy,
    forward,
    forward_quantized,
    load_model,
    load_quantized,
    map50,
    nms,
    parse_stage_report,
    pool,
    quantize_array,
    quantize_model,
    save_manifest,
    save_model,
    save_quantized,
    spatial_attention,
    split,
    stage_report,
    synth_dataset,
    track_memory,
    undersample,
    weight_params,
)
from greenlite.cli import main
from greenlite.data import AnnotatedImage, Dataset
from greenlite.errors import ContractViolation


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Desk-scale artifacts: 36 synthetic images, default detector, int8 twin.

    Only file paths survive the fixture so memory criteria start from an
    empty live-tensor baseline.
    """
    root = tmp_path_factory.mktemp("desk")
    ds = synth_dataset(root, num_images=36, num_classes=7, max_boxes_per_image=3,
                       image_size=320, seed=17)
    save_manifest(ds, root / "manifest.tsv")
    model = build_model(num_classes=7)
    save_model(model, str(root / "model.glw"))
    calib = load_tensors(root / "manifest.tsv", 32)
    assert len(calib) == 32
    qmodel = quantize_model(model, calibrate(model, calib))
    save_quantized(qmodel, str(root / "model.q.glw"))
    del model, qmodel, calib
    gc.collect()
    return root


def rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref))))


def test_criterion_1_kernel_oracle_suite():
    """conv2d, pool, batchnorm, activations vs naive loop oracles, <60 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)

    for case in range(110):
        groups = int(rng.integers(1, 3))
        cin = groups * int(rng.integers(1, 4))
        cout = groups * int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        h = int(rng.integers(k + stride, 9))
        w = int(rng.integers(k + stride, 9))
        n = int(rng.integers(1, 3))
        x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
        weight = rng.normal(size=(cout, cin // groups, k, k)).astype(np.float32)
        bias = rng.normal(size=cout).astype(np.float32)
        got = conv2d(Tensor(x), ConvSpec(weight, bias, stride, padding, groups)).arr
        ref = conv2d_naive(x, weight, bias, stride, padding, groups)
        assert rel_err(got, ref) <= 1e-5, f"conv case {case}"

    for case in range(40):
        kind = "max" if case % 2 == 0 else "avg"
        k = int(rng.integers(2, 4))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, k // 2 + 1))
        x = rng.normal(size=(1, int(rng.integers(1, 4)), 7, 7)).astype(np.float32)
        got = pool(Tensor(x), kind, k, stride, padding).arr
        ref = pool_naive(x, kind, k, stride, padding)
        assert rel_err(got, ref) <= 1e-5, f"pool case {case}"

    for case in range(25):
        c = int(rng.integers(1, 6))
        x = rng.normal(size=(2, c, 5, 5)).astype(np.float32)
        gamma = rng.normal(size=c).astype(np.float32)
        beta = rng.normal(size=c).astype(np.float32)
        mean = rng.normal(size=c).astype(np.float32)
        var = rng.uniform(0.1, 2.0, size=c).astype(np.float32)
        got = batchnorm_infer(Tensor(x), gamma, beta, mean, var, eps=1e-5).arr
        ref = batchnorm_naive(x, gamma, beta, mean, var, 1e-5)
        assert rel_err(got, ref) <= 1e-5, f"bn case {case}"

    z = np.linspace(-30.0, 30.0, 2001, dtype=np.float64)
    sig_ref = 1.0 / (1.0 + np.exp(-z))
    x = Tensor(z.astype(np.float32).reshape(1, 1, 1, -1))
    zi = x.arr.astype(np.float64)  # oracle on the float32-rounded inputs
    sig_ref = 1.0 / (1.0 + np.exp(-zi))
    assert rel_err(activation(x, "sigmoid").arr, sig_ref) <= 1e-5
    assert rel_err(activation(x, "silu").arr, zi * sig_ref) <= 1e-5
    assert np.array_equal(activation(x, "identity").arr, x.arr)

    assert time.monotonic() - t0 < 60.0


def test_criterion_2_cbam_invariants():
    """Gate permutation invariance, open-interval range, 0.25x zero case."""
    rng = np.random.default_rng(202)
    c, h, w = 16, 6, 5

    def rand_params(scale=1.0):
        hidden = c // 4
        return CbamParams(
            (rng.normal(size=(hidden, c)) * scale).astype(np.float32),
            (rng.normal(size=hidden) * scale).astype(np.float32),
            (rng.normal(size=(c, hidden)) * scale).astype(np.float32),
            (rng.normal(size=c) * scale).astype(np.float32),
            (rng.normal(size=(1, 2, 7, 7)) * scale).astype(np.float32),
            (rng.normal(size=1) * scale).astype(np.float32),
        )

    for _ in range(10):
        params = rand_params()
        x = rng.normal(size=(2, c, h, w)).astype(np.float32)

        # channel gate is exactly invariant to spatial shuffles
        perm = rng.permutation(h * w)
        xs = x.reshape(2, c, h * w)[:, :, perm].reshape(2, c, h, w)
        g1 = channel_attention(Tensor(x), params).arr
        g2 = channel_attention(Tensor(xs.copy()), params).arr
        assert np.array_equal(g1, g2)

        # spatial gate is exactly invariant to channel shuffles
        cperm = rng.permutation(c)
        s1 = spatial_attention(Tensor(x), params).arr
        s2 = spatial_attention(Tensor(x[:, cperm].copy()), params).arr
        assert np.array_equal(s1, s2)

    # gates stay strictly inside (0, 1) even with saturating logits
    hot = rand_params(scale=4.0)
    for fill in (-10.0, 0.0, 10.0):
        x = np.full((1, c, h, w), fill, dtype=np.float32)
        x[0, 0, 0, 0] = -fill or 1.0
        ch = channel_attention(Tensor(x), hot).arr
        sp = spatial_attention(Tensor(x), hot).arr
        for gate in (ch, sp):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)

    zero = CbamParams(
        np.zeros((c // 4, c), np.float32), np.zeros(c // 4, np.float32),
        np.zeros((c, c // 4), np.float32), np.zeros(c, np.float32),
        np.zeros((1, 2, 7, 7), np.float32), np.zeros(1, np.float32),
    )
    x = rng.normal(size=(1, c, h, w)).astype(np.float32)
    assert np.array_equal(cbam_forward(Tensor(x), zero).arr, x * np.float32(0.25))


def random_detections(rng, n, num_classes=3):
    dets = []
    for _ in range(n):
        x1 = float(rng.uniform(0.0, 40.0))
        y1 = float(rng.uniform(0.0, 40.0))
        dets.append(Detection(
            int(rng.integers(0, num_classes)),
            round(float(rng.uniform(0.05, 1.0)), 3),
            (x1, y1, x1 + float(rng.uniform(2.0, 20.0)), y1 + float(rng.uniform(2.0, 20.0))),
        ))
    return dets


def test_criterion_3_nms_and_map_oracles():
    """Greedy NMS and map50 equal brute-force references; AP fixture 5/6."""
    rng = np.random.default_rng(303)
    for case in range(1000):
        dets = random_detections(rng, int(rng.integers(0, 13)))
        thr = float(rng.uniform(0.1, 0.9))
        got = [(d.class_id, d.score, d.box) for d in nms(dets, thr)]
        assert got == nms_ref([(d.class_id, d.score, d.box) for d in dets], thr), f"case {case}"

    # randomized scenes with at most 5 boxes per class per image
    for case in range(150):
        num_classes = int(rng.integers(1, 4))
        dets_per_image, gts_per_image = [], []
        for _ in range(int(rng.integers(1, 4))):
            gts, dets = [], []
            for cls in range(num_classes):
                for slot in range(int(rng.integers(0, 6))):
                    x = 60.0 * slot + float(rng.uniform(0, 10))
                    y = float(rng.uniform(0, 10))
                    box = (x, y, x + 20.0, y + 20.0)
                    if rng.random() < 0.8:
                        gts.append(GroundTruthBox(cls, box))
                    if rng.random() < 0.8:
                        dx = float(rng.choice([0.0, 4.0, 15.0]))
                        dets.append(Detection(
                            cls, round(float(rng.uniform(0.1, 1.0)), 2),
                            (box[0] + dx, box[1], box[2] + dx, box[3]),
                        ))
            dets_per_image.append(dets)
            gts_per_image.append(gts)
        if not any(gts_per_image):
            continue
        got = map50(dets_per_image, gts_per_image, num_classes)["map"]
        want = map50_ref(
            [[(d.class_id, d.score, d.box) for d in dets] for dets in dets_per_image],
            [[(g.class_id, g.box) for g in gts] for gts in gts_per_image],
            num_classes,
        )
        assert got == want, f"scene {case}"

    d = lambda s: Detection(0, s, (0.0, 0.0, 10.0, 10.0))
    matched = [(d(0.9), True), (d(0.8), False), (d(0.7), True)]
    assert abs(average_precision(matched, 2) - 5.0 / 6.0) <= 1e-9


def test_criterion_4_quantization_fidelity(desk):
    """Grid round-trip within scale/2; head L2 <= 0.10; argmax >= 95%."""
    rng = np.random.default_rng(404)

    params = choose_params(-4.0, 4.0)
    lo = (-128.0 - params.zero_point) * params.scale
    hi = (127.0 - params.zero_point) * params.scale
    grid = rng.uniform(lo, hi, size=20000)
    q = quantize_array(grid, params)
    dq = (q.astype(np.float64) - params.zero_point) * params.scale
    assert np.max(np.abs(grid - dq)) <= params.scale / 2.0
    # exhaustive over the code book: every int8 code is a fixed point
    codes = np.arange(-128, 128, dtype=np.int8)
    values = (codes.astype(np.float64) - params.zero_point) * params.scale
    assert np.array_equal(quantize_array(values, params), codes)

    # per-channel symmetric round trip stays within half a step per channel
    weight = rng.normal(size=(8, 4, 3, 3)).astype(np.float32)
    wp = weight_params(weight)
    qw = quantize_array(weight, wp)
    for c in range(8):
        dqc = qw[c].astype(np.float64) * float(np.asarray(wp.scale).reshape(-1)[c])
        assert np.max(np.abs(weight[c] - dqc)) <= float(np.asarray(wp.scale).reshape(-1)[c]) / 2.0

    model = load_model(str(desk / "model.glw"))
    qmodel = load_quantized(str(desk / "model.q.glw"))
    floats, quants = [], []
    for x in load_tensors(desk / "manifest.tsv", 8):
        floats.append(forward(model, x).arr.copy())
        quants.append(forward_quantized(qmodel, x).arr.copy())
    f = np.concatenate([a.ravel() for a in floats]).astype(np.float64)
    g = np.concatenate([a.ravel() for a in quants]).astype(np.float64)
    rel_l2 = float(np.linalg.norm(f - g) / np.linalg.norm(f))
    assert rel_l2 <= 0.10

    agree = total = 0
    for yf, yq in zip(floats, quants):
        af = np.argmax(yf[:, 4:], axis=1)  # class logits live past the 4 box channels
        aq = np.argmax(yq[:, 4:], axis=1)
        agree += int(np.sum(af == aq))
        total += af.size
    assert agree / total >= 0.95


def test_criterion_5_size_and_memory_reduction(desk):
    """Container <= 0.35x float bytes; inference peak <= 0.5x; < 5 min."""
    t0 = time.monotonic()
    fsize = os.path.getsize(desk / "model.glw")
    qsize = os.path.getsize(desk / "model.q.glw")
    assert qsize <= 0.35 * fsize

    assert_tracker_empty()
    x = load_tensors(desk / "manifest.tsv", 1)[0]
    model = load_model(str(desk / "model.glw"))
    float_peak = track_memory(lambda: forward(model, x)).peak_live_tensor_bytes
    del model
    gc.collect()
    qmodel = load_quantized(str(desk / "model.q.glw"))
    quant_peak = track_memory(lambda: forward_quantized(qmodel, x)).peak_live_tensor_bytes
    assert quant_peak <= 0.5 * float_peak
    assert time.monotonic() - t0 < 300.0


def test_criterion_6_emissions_arithmetic():
    """Energy/carbon formulas exact; totals exact; CSV round-trips losslessly."""
    for watts, dur, intensity in ((15.0, 12.5, 0.475), (100.0, 360.0, 0.5),
                                  (7200.0, 0.5, 0.4), (0.0, 3.0, 1.0)):
        rec = EmissionRecord("inference", dur, watts, intensity)
        assert rec.energy_kwh == watts * dur / 3.6e6
        assert rec.carbon_kg == rec.energy_kwh * intensity
        assert rec.energy_kwh == estimate_energy(watts, dur)
        assert rec.carbon_kg == emissions(rec.energy_kwh, intensity)
    with pytest.raises(TypeError):
        EmissionRecord("inference", 1.0, energy_kwh=2e-6)  # energy follows from watts and seconds

    recs = [
        EmissionRecord("load", 0.125),
        EmissionRecord("inference", 0.25),
        EmissionRecord("inference", 0.5),
        EmissionRecord("evaluate", 1.0),
    ]
    rep = stage_report(recs)
    assert rep.total_duration_s == math.fsum(r[1] for r in rep.stages)
    assert rep.total_energy_kwh == math.fsum(r[2] for r in rep.stages)
    assert rep.total_carbon_kg == math.fsum(r[3] for r in rep.stages)
    by_stage = {r[0]: r for r in rep.stages}
    assert by_stage["inference"][1] == math.fsum([0.25, 0.5])

    # values exactly representable at 6 decimals survive a round trip bit for bit
    exact = stage_report([
        EmissionRecord("load", 0.5, power_watts_assumed=7200.0, intensity_kg_per_kwh=0.4),
        EmissionRecord("inference", 0.25, power_watts_assumed=7200.0, intensity_kg_per_kwh=0.4),
    ])
    parsed = parse_stage_report(exact.to_csv())
    assert parsed.stages == exact.stages
    # and any report's serialized form is a fixed point of parse -> serialize
    text = rep.to_csv()
    assert parse_stage_report(text).to_csv() == text


def test_criterion_7_dataset_pipeline():
    """Split floor rule 11163 -> 8930/2233; undersample; class weights."""
    images = tuple(
        AnnotatedImage(f"i{i:05d}", 10, 10, ((i % 7, 0.5, 0.5, 0.2, 0.2),))
        for i in range(11163)
    )
    ds = Dataset(tuple(f"c{j}" for j in range(7)), images)
    train, val = split(ds, 0.8, seed=0)
    assert len(train.images) == 8930
    assert len(val.images) == 2233
    again, _ = split(ds, 0.8, seed=0)
    assert [i.image_path for i in again.images] == [i.image_path for i in train.images]

    labels = [0] * 9 + [1] * 4 + [2] * 6
    items = list(range(len(labels)))
    kept = undersample(items, labels, seed=1)
    counts = [sum(1 for i in kept if labels[i] == c) for c in range(3)]
    assert counts == [4, 4, 4]
    assert kept == undersample(items, labels, seed=1)

    # weights satisfy sum(w_c * n_c) == N exactly in exact arithmetic
    rng = np.random.default_rng(707)
    for _ in range(10):
        counts = [int(rng.integers(1, 500)) for _ in range(int(rng.integers(2, 8)))]
        weights = class_weights(counts)
        n, k = sum(counts), len(counts)
        exact = [Fraction(n, k * c) for c in counts]
        assert sum(w * c for w, c in zip(exact, counts)) == n
        for w, e in zip(weights, exact):
            assert abs(w - float(e)) <= 1e-15 * float(e)
    # dyadic counts make the identity exact even in float64
    w = class_weights([128, 64])
    assert w[0] * 128 + w[1] * 64 == 192.0
    assert class_weights([3, 3, 3]) == [1.0, 1.0, 1.0]


def test_criterion_8_end_to_end_smoke(tmp_path):
    """synth -> build -> quantize -> bench on 60 images, exit 0, < 10 min."""
    t0 = time.monotonic()
    data = tmp_path / "data"
    out_dir = tmp_path / "bench"
    model = tmp_path / "m.glw"
    assert main(["synth", "--out", str(data), "--images", "60"]) == 0
    assert main(["build", "--out", str(model)]) == 0
    assert main(["quantize", "--model", str(model),
                 "--calib-manifest", str(data / "manifest.tsv")]) == 0
    assert main(["bench", "--models", str(model), str(tmp_path / "m.q.glw"),
                 "--manifest", str(data / "manifest.tsv"),
                 "--out-dir", str(out_dir)]) == 0

    for name in ("bench.csv", "emissions.csv", "memory.csv", "report.md"):
        assert (out_dir / name).exists(), name

    lines = (out_dir / "bench.csv").read_text().splitlines()
    frow, qrow = lines[1].split(","), lines[2].split(",")
    assert float(qrow[6]) < float(frow[6])  # quantized wins on size
    assert int(qrow[9]) < int(frow[9])      # and on peak live tensor bytes

    report = (out_dir / "report.md").read_text().splitlines()
    assert report[0].startswith("| Model | Acc |")
    assert report[2].startswith("| m.glw | - | ")
    assert report[3].startswith("| m.q.glw | - | ")
    assert "(failed)" not in "\n".join(report)
    assert time.monotonic() - t0 < 600.0


def test_criterion_9_classification_metrics():
    """Hand fixture: acc 2/3, macro P = R = 0.75, macro F1 = 2/3."""
    out = classification_metrics([1, 1, 0], [1, 0, 0], 2)
    assert abs(out["accuracy"] - 2.0 / 3.0) <= 1e-9
    assert abs(out["macro_precision"] - 0.75) <= 1e-9
    assert abs(out["macro_recall"] - 0.75) <= 1e-9
    assert abs(out["macro_f1"] - 2.0 / 3.0) <= 1e-9
