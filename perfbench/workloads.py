"""The benchmark's two workloads and the serving loop they share.

Both are closed loops with one client: the next image is sent only after the
previous one has finished. Every input comes from the run's seed.

- detect-f32: seeded synth images through the float model's full user
  pipeline, read_ppm -> letterbox -> forward -> decode -> nms. The float
  kernels, CBAM and the graph executor do most of the work.
- detect-int8: the same images through the int8 twin, built in set-up the way
  a user builds it (calibrate on a disjoint split, quantize_model,
  save_quantized, load_quantized). The integer conv, LUT activations and
  requantize steps do most of the work; work moved from inference into
  quantize or load time shows in setup_s.

map50 and detection_prf run over each completed pass of the served pool (and
the last partial pass). The stream repeats the pool, so this scores every
served image while holding at most one pass of detections, which keeps peak
RSS independent of how many images a faster program gets through.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import math
import os
import resource
import statistics
import time

import numpy as np

import greenlite as gl
from greenlite import cli as gl_cli
from greenlite import graph as gl_graph
from greenlite import profiling as gl_profiling
from greenlite import quant as gl_quant

from checks import (
    FLOAT_REL_TOL,
    Ledger,
    decode_f32,
    heads_match,
    load_reference,
    nms_problem,
    rel_err,
    sha256,
)
from spans import NullTracer, Tracer

NUM_CLASSES = 7
INPUT_SIZE = 320
POOL_IMAGES = 50  # small enough that each image is served ~10 times in 45 s
CALIB_IMAGES = 8
SETUP_REPEATS = 25  # detect-int8 sets up 9 times: each of its set-ups calibrates
MIN_PASSES = 2
# The highest whole percentile with at least 10 serves beyond it at the
# baseline's 500-999 untraced serves per run; fixed so that a faster or slower
# program is compared at the same percentile.
TAIL_PCT = 98
MAX_STREAM_S = 120.0
FIXTURE_SEED = 0
FIXTURE_IMAGES = 4
NMS_CLUSTERS = 8  # the NMS fixture: clusters of overlapping boxes NMS must thin out
NMS_PER_CLUSTER = 6
CLI_SLICE = 6
REPLAY_REPEATS = 5
CONF = gl_cli.DEFAULT_CONF
IOU = gl_cli.DEFAULT_IOU

NULL = NullTracer()

_KIND_SPANS = {
    "conv": "tensor.conv",
    "bn": "tensor.bn",
    "act": "tensor.act",
    "pool": "tensor.pool",
    "concat": "tensor.concat",
    "cbam": "cbam.forward",
    "detect_head": "graph.head",
}


def kind_span(kind: str) -> str:
    return _KIND_SPANS.get(kind, "tensor." + kind)


def _median_time(action, repeats: int = REPLAY_REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        action()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _conv_macs(weight_shape, out_shape) -> int:
    oc, icg, k, _ = weight_shape
    _, oh, ow = out_shape
    return int(oc * icg * k * k * oh * ow)


def _act_peak(model, forward, x) -> tuple[int, gl.MemoryStats]:
    """Activation peak of one forward: window peak minus the live bytes at its start."""
    start = gl.TRACKER.current_bytes
    mem = gl.track_memory(lambda: forward(model, x))
    return mem.peak_live_tensor_bytes - start, mem


def _forward_f32(model, x, tr):
    return gl.forward(model, x, hook=tr.layer_hook(model.layers, kind_span))


def _forward_int8(model, x, tr):
    return gl.forward_quantized(model, x)


class Detect:
    """detect-f32 / detect-int8: seeded synth images through the user pipeline."""

    def __init__(self, seed: int, workdir: str, int8: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.int8 = int8
        # int8 heads must repeat bit for bit; float heads within the kernel oracle tolerance.
        self.exact = int8
        self.setup_repeats = 9 if int8 else SETUP_REPEATS
        self.forward_span = "quant.forward" if int8 else "graph.forward"
        self.forward = _forward_int8 if int8 else _forward_f32
        self.data_dir = os.path.join(workdir, "data")
        self.float_path = os.path.join(workdir, "model.glw")
        self.int8_path = os.path.join(workdir, "model.q.glw")

    def prepare(self, tr) -> None:
        total = POOL_IMAGES + CALIB_IMAGES
        ds = gl.synth_dataset(self.data_dir, total, NUM_CLASSES, image_size=INPUT_SIZE, seed=self.seed)
        self.calib, self.pool = gl.split(ds, CALIB_IMAGES / total, self.seed)
        self.paths = [os.path.join(self.data_dir, img.image_path) for img in self.pool.images]
        self.gts = [img.ground_truth() for img in self.pool.images]
        self.image_size = (float(INPUT_SIZE), float(INPUT_SIZE))
        model = gl.build_model(NUM_CLASSES, input_size=INPUT_SIZE, seed=self.seed,
                               class_names=gl.DEFAULT_CLASS_NAMES[:NUM_CLASSES])
        # The int8 workload's container.save is the int8 save in its set-up.
        with (NULL if self.int8 else tr).span("container.save"):
            gl.save_model(model, self.float_path)

    def _letterboxed(self, path: str, target: int, tr):
        with tr.span("data.read"):
            px = gl.read_ppm(path)
        with tr.span("graph.letterbox"):
            h, w = px.shape[:2]
            return gl.letterbox(px.tobytes(), w, h, target)

    def build_int8(self, fmodel, tr):
        """calibrate -> quantize_model -> save_quantized -> load_quantized."""
        calib = [
            self._letterboxed(os.path.join(self.data_dir, img.image_path), INPUT_SIZE, tr)[0]
            for img in self.calib.images
        ]
        with tr.span("quant.calibrate"):
            stats = gl.calibrate(fmodel, calib)
        del calib
        with tr.span("quant.quantize_model"):
            qmodel = gl.quantize_model(fmodel, stats)
        with tr.span("container.save"):
            gl.save_quantized(qmodel, self.int8_path)
        del qmodel
        with tr.span("container.load"):
            return gl.load_quantized(self.int8_path)

    def setup(self, tr):
        """Everything before the first image can be served, warm-up forward included."""
        if self.int8:
            with tr.span("container.load_source"):
                fmodel = gl.load_model(self.float_path)
            model = self.build_int8(fmodel, tr)
            del fmodel
        else:
            with tr.span("container.load"):
                model = gl.load_model(self.float_path)
        with tr.span("warmup"):
            self.serve(model, 0, NULL, None)
        return model

    def serve(self, model, k: int, tr, image):
        with tr.span("image", image):
            x, meta = self._letterboxed(self.paths[k], model.meta.input_size, tr)
            with tr.span(self.forward_span):
                head = self.forward(model, x, tr)
            del x
            with tr.span("graph.decode"):
                dets = gl.decode(head, meta, CONF)
            with tr.span("graph.nms"):
                kept = gl.nms(dets, IOU)
        return head, len(dets), kept

    def fixture_output(self, model, k: int):
        head, _, _ = self.serve(model, k, NULL, None)
        return sha256(head.arr.tobytes()) if self.int8 else head.arr.copy()

    def trace_extras(self, model, m: dict) -> None:
        """Per-layer figures that need more than the stream's spans."""
        plain = gl.forward_quantized if self.int8 else gl.forward
        x, _ = self._letterboxed(self.paths[0], INPUT_SIZE, NULL)
        # Only the served model and one input are alive for this measurement.
        peak, mem = _act_peak(model, plain, x)
        m["act_peak_bytes"] = peak
        m["model_bytes"] = os.path.getsize(self.int8_path if self.int8 else self.float_path)
        m["profiling.peak_live_bytes"] = mem.peak_live_tensor_bytes
        m["profiling.baseline_live_bytes"] = mem.peak_live_tensor_bytes - peak
        m["profiling.alloc_count"] = mem.allocation_count

        if self.int8:
            fmodel, qmodel = gl.load_model(self.float_path), model
            f_peak, q_peak = _act_peak(fmodel, gl.forward, x)[0], peak
        else:
            fmodel, qmodel = model, self.build_int8(model, NULL)
            f_peak, q_peak = peak, _act_peak(qmodel, gl.forward_quantized, x)[0]
        m["act_peak_ratio"] = q_peak / f_peak

        # Computed from tensor shapes, not counted.
        shapes = gl_graph.infer_shapes(fmodel)
        macs = {"conv": 0, "detect_head": 0}
        for j, layer in enumerate(fmodel.layers):
            if layer.kind in macs:
                macs[layer.kind] += _conv_macs(fmodel.weights[layer.slot]["weight"].shape, shapes[j])
        m["graph.macs_per_image"] = macs["conv"] + macs["detect_head"]
        if self.int8:
            conv_s, conv_macs, cbam_s = self._replay_int8(qmodel, fmodel)
            m["quant.conv_ms"] = conv_s * 1e3
            m["quant.other_ms"] = m["quant.forward_ms"] - m["quant.conv_ms"]
            m["quant.conv_gmacs_per_s"] = conv_macs / conv_s / 1e9
            m["cbam.forward_ms"] = cbam_s * 1e3
        else:
            m["tensor.conv_gmacs_per_s"] = macs["conv"] / m["tensor.conv_ms"] / 1e6
        del x, fmodel, qmodel
        m.update(self._cli_cross_check())

    def _replay_int8(self, qmodel, fmodel) -> tuple[float, int, float]:
        """Time quantized_conv2d on each conv layer's input shape and own int8
        weights, and cbam_forward on the CBAM layer's input shape (the int8
        forward takes no hook). Inputs are seeded random int8 planes."""
        folded, _ = gl.fold_batchnorm(fmodel)
        shapes = gl_graph.infer_shapes(folded)
        del folded
        size = qmodel.meta.input_size
        rng = np.random.Generator(np.random.PCG64(self.seed))
        conv_s = cbam_s = 0.0
        macs = 0
        for j, layer in enumerate(qmodel.layers):
            if layer.kind not in ("conv", "detect_head", "cbam"):
                continue
            ref = layer.inputs[0]
            c, h, w = (3, size, size) if ref == -1 else shapes[ref]
            in_params = qmodel.act_params[gl_quant.slot_key(ref)]
            q = gl.QuantizedTensor(rng.integers(-128, 128, (1, c, h, w), dtype=np.int8), in_params)
            if layer.kind == "cbam":
                x = gl.dequantize(q)
                params = qmodel.cbam_params(layer.slot)
                cbam_s += _median_time(lambda: gl.cbam_forward(x, params))
                continue
            qw = qmodel.conv_weights[layer.slot]
            spec = gl_quant.QConvSpec(
                qw["q_weight"], qw["w_scale"], qw["q_bias"],
                stride=int(layer.attrs.get("stride", 1)),
                padding=int(layer.attrs.get("padding", 0)),
                groups=int(layer.attrs.get("groups", 1)),
            )
            # The head's accumulator is dequantized, not requantized; replay it
            # on its input grid, which costs the same integer accumulation.
            out_params = qmodel.act_params.get(gl_quant.slot_key(j), in_params)
            conv_s += _median_time(lambda: gl.quantized_conv2d(q, spec, out_params))
            macs += _conv_macs(qw["q_weight"].shape, shapes[j])
        return conv_s, macs, cbam_s

    def _cli_cross_check(self) -> dict:
        """`greenlite bench` in-process on a slice of the pool: its reported
        int8/float peak ratio and the share of its stage time it files under
        inference."""
        manifest = os.path.join(self.data_dir, "cli_slice.tsv")
        gl.save_manifest(gl.Dataset(self.pool.class_names, self.pool.images[:CLI_SLICE]), manifest)
        out_dir = os.path.join(self.workdir, "cli_bench")
        with contextlib.redirect_stdout(io.StringIO()):
            code = gl_cli.main(["bench", "--models", self.float_path, self.int8_path,
                                "--manifest", manifest, "--out-dir", out_dir])
        if code != 0:
            raise RuntimeError(f"greenlite bench exited {code}")
        with open(os.path.join(out_dir, "memory.csv"), newline="") as fh:
            peaks = {r["model"]: int(r["peak_live_tensor_bytes"]) for r in csv.DictReader(fh)}
        with open(os.path.join(out_dir, "emissions.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        total = math.fsum(float(r["duration_s"]) for r in rows)
        inference = math.fsum(float(r["duration_s"]) for r in rows if r["stage"] == "inference")
        return {
            "cli.bench_peak_ratio": peaks[os.path.basename(self.int8_path)]
            / peaks[os.path.basename(self.float_path)],
            "cli.inference_share": inference / total,
        }


WORKLOADS = {
    "detect-f32": lambda seed, workdir: Detect(seed, workdir, int8=False),
    "detect-int8": lambda seed, workdir: Detect(seed, workdir, int8=True),
}


def fixture_outputs(name: str, workdir: str) -> list:
    """The workload's outputs on the first images of the default seed's pool."""
    w = WORKLOADS[name](FIXTURE_SEED, workdir)
    w.prepare(NULL)
    state = w.setup(NULL)
    return [w.fixture_output(state, k) for k in range(FIXTURE_IMAGES)]


def nms_fixture() -> list[list[float]]:
    """gl.nms on the default seed's clusters of overlapping detections, as
    [class_id, score, x1, y1, x2, y2] rows. The detect workloads' untrained
    heads give boxes NMS never suppresses; these it must thin out."""
    rng = np.random.Generator(np.random.PCG64(FIXTURE_SEED))
    dets = []
    for _ in range(NMS_CLUSTERS):
        cx, cy = rng.uniform(60.0, INPUT_SIZE - 60.0, 2)
        half_w, half_h = rng.uniform(15.0, 40.0, 2)
        for _ in range(NMS_PER_CLUSTER):
            corners = np.array([cx - half_w, cy - half_h, cx + half_w, cy + half_h])
            x1, y1, x2, y2 = corners + rng.uniform(-6.0, 6.0, 4)
            dets.append(gl.Detection(int(rng.integers(0, 3)), float(rng.uniform(0.3, 1.0)),
                                     (float(x1), float(y1), float(x2), float(y2))))
    kept = gl.nms(dets, IOU)
    problem = nms_problem(kept, IOU, float(INPUT_SIZE), float(INPUT_SIZE))
    if problem is not None:
        raise RuntimeError(problem)
    return [[d.class_id, d.score, *d.box] for d in kept]


def _check_fixture(name: str, workdir: str, ledger: Ledger) -> None:
    """Compare against the outputs recorded for the default seed, so every
    seed's run also checks the program against the recorded behaviour."""
    reference = load_reference()
    try:
        problem = None if nms_fixture() == reference["nms"] else "differs from the recorded reference"
    except Exception as exc:  # noqa: BLE001  (a failed op is counted, not fatal)
        problem = f"{type(exc).__name__}: {exc}"
    ledger.record("nms fixture", problem)
    expected = reference[name]
    try:
        got = fixture_outputs(name, workdir)
    except Exception as exc:  # noqa: BLE001  (a failed op is counted, not fatal)
        for k in range(FIXTURE_IMAGES):
            ledger.record(f"fixture image {k}", f"{type(exc).__name__}: {exc}")
        return
    for k, (g, e) in enumerate(zip(got, expected)):
        if isinstance(e, str):
            problem = None if g == e else "differs from the recorded reference"
        else:
            err = rel_err(g, decode_f32(e))
            problem = None if err <= FLOAT_REL_TOL else f"rel_err {err:.3g} vs the recorded reference"
        ledger.record(f"fixture image {k}", problem)


def nearest_rank(xs, pct: float) -> float:
    s = sorted(xs)
    return s[max(0, math.ceil(pct / 100.0 * len(s)) - 1)]


class Result:
    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.ledger = Ledger()
        self.notes: list[str] = []
        self.tracer: Tracer | None = None


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    """Prepare and set up, then serve the pool in passes for at least
    `seconds` of serving and MIN_PASSES passes, setting up again at even
    intervals of the stream until the workload's set-up count is reached (so
    the median set-up time samples the whole run, not one moment of it).
    Time spent in those set-ups does not count towards `seconds`.

    latency_tail_ms is a percentile of every untraced serve of the stream, and
    throughput_ips and energy_j_per_image divide the stream's serve time plus
    its evaluation time by the number of serves. latency_p50_ms is the median
    over pool images of each image's fastest serve: other tenants of a shared
    host switch it between two speeds about 1.3x apart every few seconds, so
    a median of all serves falls between the two modes and jumps with their
    mix (5.6% ten-seed spread against 2.7% for best of N on the 2-vCPU VM the
    baseline was measured on). The stream repeats the pool (about 11 serves
    per image), so a program that memoised its inputs would gain here what a
    stream of distinct images would not. When tracing, every second serve is
    traced.
    """
    res = Result()
    ledger = res.ledger
    tr = Tracer() if trace else NULL
    w = WORKLOADS[name](seed, os.path.join(workdir, "run"))
    w.prepare(tr)

    setup_times: list[float] = []

    def timed_setup():
        gc.collect()
        t0 = time.perf_counter()
        with tr.span("setup"):
            fresh = w.setup(tr)
        setup_times.append(time.perf_counter() - t0)
        return fresh

    state = timed_setup()
    setups = w.setup_repeats
    gc.collect()
    baseline = gl.TRACKER.current_bytes

    pool = len(w.gts)
    refs: list = [None] * pool
    best = [math.inf] * pool  # each image's fastest untraced serve
    traced_lat: list[float] = []
    untraced_lat: list[float] = []
    window: list = []
    pass_evals: list[float] = []
    eval_s, evaluated = 0.0, 0
    first_map = None
    served = decoded_total = kept_total = 0

    def evaluate() -> None:
        nonlocal eval_s, evaluated, first_map
        kept_lists = [kept for _, kept in window]
        gts = [w.gts[k] for k, _ in window]
        t0 = time.perf_counter()
        with tr.span("metrics.eval"):
            m = gl.map50(kept_lists, gts, NUM_CLASSES)
            gl.detection_prf(kept_lists, gts)
        dt = time.perf_counter() - t0
        eval_s += dt
        evaluated += len(window)
        if len(window) == pool:
            pass_evals.append(dt)
            if first_map is None:
                first_map = m["map"]
        window.clear()

    start = time.perf_counter()
    paused = 0.0  # wall time of the set-ups made during the stream

    def serving_s() -> float:
        return time.perf_counter() - start - paused

    i = 0
    while i < MIN_PASSES * pool or serving_s() < seconds:
        if time.perf_counter() - start > MAX_STREAM_S:
            res.notes.append(f"stream stopped at the {MAX_STREAM_S:.0f} s cap after {i} images")
            break
        if len(setup_times) < setups * serving_s() / seconds:
            # Later set-ups are spread over the stream and their models dropped.
            t0 = time.perf_counter()
            timed_setup()
            gc.collect()
            paused += time.perf_counter() - t0
        k = i % pool
        # Traced and untraced serves alternate, and each image's kind flips
        # from pass to pass, so both kinds see the same host conditions.
        is_traced = trace and (i + i // pool) % 2 == 1
        t0 = time.perf_counter()
        try:
            head, n_decoded, kept = w.serve(state, k, tr if is_traced else NULL, i)
        except Exception as exc:  # noqa: BLE001  (a failed op is counted, not fatal)
            ledger.record(f"image {i}", f"{type(exc).__name__}: {exc}")
            i += 1
            continue
        dt = time.perf_counter() - t0
        arr = head.arr
        del head
        problem = nms_problem(kept, IOU, *w.image_size)
        if refs[k] is None:
            refs[k] = (arr.copy(), kept)
        elif problem is None and not heads_match(arr, refs[k][0], w.exact):
            problem = "head differs from this image's first serve"
        elif problem is None and w.exact and kept != refs[k][1]:
            problem = "detections differ from this image's first serve"
        del arr
        if problem is None and gl.TRACKER.current_bytes != baseline:
            problem = f"live tensor bytes {gl.TRACKER.current_bytes} != baseline {baseline}"
        ledger.record(f"image {i}", problem)
        if is_traced:
            traced_lat.append(dt)
        else:
            untraced_lat.append(dt)
            best[k] = min(best[k], dt)
        served += 1
        decoded_total += n_decoded
        kept_total += len(kept)
        window.append((k, kept))
        if len(window) == pool:
            evaluate()
        i += 1
    if window:
        evaluate()
    while len(setup_times) < setups:
        timed_setup()

    _check_fixture(name, os.path.join(workdir, "fixture"), ledger)
    if not pass_evals:
        raise RuntimeError(f"served only {served} images; a full pass over {pool} is needed")
    res.notes.append(f"{served} serves over a pool of {pool} images, {served / pool:.1f} per image")

    if not trace:
        n = len(untraced_lat)
        stream_s = math.fsum(untraced_lat) + eval_s
        joules = gl.estimate_energy(gl.DEFAULT_POWER_WATTS, stream_s) * gl_profiling.JOULES_PER_KWH
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        for key, value, count in (
            ("latency_p50_ms", statistics.median(best) * 1e3, pool),
            ("latency_tail_ms", nearest_rank(untraced_lat, TAIL_PCT) * 1e3, n),
            ("throughput_ips", n / stream_s, n),
            ("energy_j_per_image", joules / n, n),
            ("setup_s", statistics.median(setup_times), setups),
            ("rss_peak_mb", rss_mb, 1),
        ):
            res.metrics[key] = value
            res.samples[key] = count
        res.notes.append(
            f"latency_p50_ms is the median of each pool image's fastest serve; "
            f"latency_tail_ms is p{TAIL_PCT} (nearest rank) of all {n} serves; throughput and "
            f"energy use the {stream_s:.2f} s of serving and evaluation over the stream"
        )
        return res

    per_image = tr.per_image_self()
    images = sorted(per_image)
    m = res.metrics
    layer_spans = sorted({s for i in images for s in per_image[i]} - {"image"})
    for span in layer_spans:
        m[span + "_ms"] = statistics.median(per_image[i].get(span, 0.0) for i in images) * 1e3
    # Per traced image, the layer self times add up to the image's time less the
    # benchmark's own glue between spans.
    m["trace.self_sum_ms"] = statistics.median(
        math.fsum(t for span, t in per_image[i].items() if span != "image") for i in images
    ) * 1e3
    m["trace.latency_p50_ms"] = statistics.median(traced_lat) * 1e3
    m["trace.overhead_pct"] = (
        m["trace.latency_p50_ms"] / (statistics.median(untraced_lat) * 1e3) - 1.0
    ) * 100
    if "graph.forward_ms" in m:
        # The float forward's self time is what the per-kind spans leave over.
        m["graph.overhead_ms"] = m["graph.forward_ms"]
        m["graph.forward_ms"] = tr.median_ms("graph.forward")
    m["graph.dets_decoded"] = decoded_total / served
    m["graph.dets_kept"] = kept_total / served
    m["graph.nms_keep_ratio"] = kept_total / decoded_total if decoded_total else 0.0
    m["metrics.eval_ms"] = eval_s / evaluated * 1e3
    m["metrics.map50"] = first_map
    res.notes.append(
        f"traced p50 {m['trace.latency_p50_ms']:.3f} ms; per-image layer self times sum to "
        f"{m['trace.self_sum_ms']:.3f} ms at the median; tracing overhead "
        f"{m['trace.overhead_pct']:+.2f}%"
    )
    res.samples = {key: len(images) for key in m}
    res.samples["metrics.eval_ms"] = len(pass_evals)
    for span in ("container.save", "container.load", "quant.quantize_model"):
        if tr.durations(span):
            m[span + "_ms"] = tr.median_ms(span)
            res.samples[span + "_ms"] = len(tr.durations(span))
    if tr.durations("quant.calibrate"):
        m["quant.calibrate_ms_per_image"] = tr.median_ms("quant.calibrate") / len(w.calib.images)
        res.samples["quant.calibrate_ms_per_image"] = len(tr.durations("quant.calibrate"))
    w.trace_extras(state, m)
    if "act_peak_ratio" in m:
        res.notes.append(f"int8/float act_peak_bytes ratio {m['act_peak_ratio']:.4f} "
                         f"(acceptance criterion 5 requires <= 0.5)")
    res.tracer = tr
    return res
