"""Command-line entry point: synth, build, quantize, detect, bench.

Exit codes are a fixed contract: 0 success, 1 usage error, 2 data or
validation error, 3 partial bench failure. Sizes print as decimal MB
(1 MB = 10^6 bytes) everywhere.

Twin rule: quantize writes the int8 twin of `m.glw` to `m.q.glw`, and of any
other name `m.bin` to `m.bin.q.glw`; bench reports a float model's twin size
when that file exists, and a quantized model's own size in both columns. A
failed model keeps its row, marked in the markdown report, and turns the
final exit code into 3.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .data import class_distribution, load_manifest, read_ppm, save_manifest, synth_dataset
from .errors import ContractViolation, ManifestError
from .graph import (
    DEFAULT_CLASS_NAMES,
    DEFAULT_CONF,
    DEFAULT_IOU,
    build_model,
    decode,
    format_detection,
    forward,
    letterbox,
    load_model,
    nms,
    save_model,
)
from .metrics import detection_prf, map50
from .profiling import (
    EMISSIONS_CSV_HEADER,
    EmissionRecord,
    LatencyStats,
    format_float,
    resolve_energy_settings,
    stage_report,
    track_memory,
)
from .quant import (
    QuantizedModel,
    calibrate,
    format_reduction,
    forward_quantized,
    load_any,
    quantize_model,
    save_quantized,
)

BENCH_CSV_HEADER = (
    "model,acc,precision,recall,f1,map50,size_mb,qsize_mb,mean_latency_s,peak_mem_bytes,total_carbon_kg"
)
MEMORY_CSV_HEADER = (
    "model,stage,peak_live_tensor_bytes,current_live_tensor_bytes,allocation_count"
)
BENCH_EMISSIONS_CSV_HEADER = "model," + EMISSIONS_CSV_HEADER

MD_HEADER = "| Model | Acc | P | R | F1 | mAP | Size (MB) | Q-Size (MB) |"
MD_RULE = "|---|---|---|---|---|---|---|---|"


def _image_tensor(path: str, target: int):
    """Read an image file, PPM natively and others via Pillow, and letterbox it to target."""
    if path.lower().endswith(".ppm"):
        arr = read_ppm(path)
    else:
        try:
            from PIL import Image
        except ImportError:
            raise ContractViolation(f"{path}: only PPM is supported without Pillow (pip install Pillow)") from None
        with Image.open(path) as im:
            arr = np.asarray(im.convert("RGB"), dtype=np.uint8)
    h, w = arr.shape[:2]
    return letterbox(arr.tobytes(), w, h, target)


def _resolve(manifest_path: str, image_path: str) -> str:
    if os.path.isabs(image_path):
        return image_path
    return os.path.join(os.path.dirname(os.path.abspath(manifest_path)), image_path)


def _twin_path(path: str) -> str:
    """Where quantize writes, and bench looks for, the int8 twin of the float model at path."""
    return (path[: -len(".glw")] if path.endswith(".glw") else path) + ".q.glw"


def _forward_fn(model):
    return forward_quantized if isinstance(model, QuantizedModel) else forward


def _run_detector(model, x, meta, conf: float, iou_thr: float):
    """The detections on x, and the nanoseconds its forward alone took."""
    t0 = time.perf_counter_ns()
    raw = _forward_fn(model)(model, x)
    forward_ns = time.perf_counter_ns() - t0
    return nms(decode(raw, meta, conf), iou_thr), forward_ns


# --- subcommands ---------------------------------------------------------------


def cmd_synth(args) -> int:
    ds = synth_dataset(
        args.out,
        num_images=args.images,
        num_classes=args.classes,
        max_boxes_per_image=args.max_boxes,
        image_size=args.size,
        seed=args.seed,
    )
    manifest = os.path.join(args.out, "manifest.tsv")
    save_manifest(ds, manifest)
    dist = class_distribution(ds)
    print(f"wrote {len(ds.images)} images and {manifest}")
    print("class\tboxes\timages")
    for name, boxes, imgs in zip(ds.class_names, dist["box_counts"], dist["image_counts"]):
        print(f"{name}\t{boxes}\t{imgs}")
    print(f"total\t{sum(dist['box_counts'])}\t{len(ds.images)}")
    return 0


def cmd_build(args) -> int:
    model = build_model(num_classes=args.classes, input_size=args.input_size, seed=args.seed)
    nbytes = save_model(model, args.out)
    print(f"parameters: {model.param_count()}")
    print(f"size: {nbytes / 1e6:.4f} MB")
    print(f"wrote {args.out}")
    return 0


def cmd_quantize(args) -> int:
    out = args.out or _twin_path(args.model)
    if os.path.exists(out) and os.path.samefile(out, args.model):
        raise ContractViolation(
            f"--out {out} is the --model file {args.model}; it would overwrite the float model"
        )
    fbytes = os.path.getsize(args.model)
    model = load_model(args.model)
    ds = load_manifest(args.calib_manifest)
    picked = ds.images[: args.calib_count]  # load_manifest refuses an empty manifest
    tensors = (
        _image_tensor(_resolve(args.calib_manifest, img.image_path), model.meta.input_size)[0]
        for img in picked
    )
    ranges = calibrate(model, tensors)  # a generator: one letterboxed image is live at a time
    qmodel = quantize_model(model, ranges)
    qbytes = save_quantized(qmodel, out)
    print(f"calibrated on {len(picked)} images")
    print(f"size: {fbytes / 1e6:.4f} MB")
    print(f"qsize: {qbytes / 1e6:.4f} MB")
    print(f"reduction: {format_reduction(fbytes, qbytes)}")
    print(f"wrote {out}")
    return 0


def cmd_detect(args) -> int:
    model = load_any(args.model)
    x, meta = _image_tensor(args.image, model.meta.input_size)
    dets, _ = _run_detector(model, x, meta, args.conf, args.iou)
    if args.emit == "json":
        payload = [
            {
                "class": model.meta.class_names[d.class_id],
                "class_id": d.class_id,
                "score": d.score,
                "box": list(d.box),
            }
            for d in dets
        ]
        print(json.dumps(payload, indent=2))
    else:
        for d in dets:
            print(format_detection(d))
    return 0


@dataclass
class BenchRow:
    """One model's row of bench.csv and report.md, the one place their formats live.
    Detector rows have no classification accuracy: acc is empty in CSV, "-" in markdown."""

    model_name: str
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    map_50: float | None = None
    size_mb: float | None = None
    qsize_mb: float | None = None
    mean_latency_s: float | None = None
    peak_mem_bytes: int | None = None
    total_carbon_kg: float | None = None
    failed: bool = False

    def _metrics(self) -> tuple:
        """The seven report metrics in column order, acc first."""
        return (None, self.precision, self.recall, self.f1, self.map_50, self.size_mb, self.qsize_mb)

    def to_csv(self) -> str:
        def fmt(v, spec: str) -> str:
            return "" if v is None else format(v, spec)

        carbon = "" if self.total_carbon_kg is None else format_float(self.total_carbon_kg)
        cells = [self.model_name] + [fmt(v, ".4f") for v in self._metrics()] + [
            fmt(self.mean_latency_s, ".6f"), fmt(self.peak_mem_bytes, "d"), carbon,
        ]
        return ",".join(cells)

    def to_md(self) -> str:
        name = self.model_name + (" (failed)" if self.failed else "")
        cells = [name] + ["-" if v is None else f"{v:.4f}" for v in self._metrics()]
        return "| " + " | ".join(cells) + " |"


def _bench_one(path: str, images, gts, args, power, intensity):
    """Bench a single model on images, each a (path, manifest (width, height))
    pair; returns (BenchRow, emission rows, memory row)."""
    records: list[EmissionRecord] = []

    t0 = time.perf_counter()
    model = load_any(path)
    records.append(EmissionRecord("load", time.perf_counter() - t0, power, intensity))
    k = model.meta.num_classes
    beyond = sorted({box.class_id for boxes in gts for box in boxes if box.class_id >= k})
    if beyond:  # map50 would skip their boxes while detection_prf counts them
        raise ContractViolation(f"manifest class ids {beyond} are beyond the model's {k} classes")

    target = model.meta.input_size
    # One untimed forward of the first image is both the warm-up and the memory window: a
    # forward does the same work whatever its pixels, and the peak is the weights, one input
    # and the activation peak.
    x, _ = _image_tensor(images[0][0], target)
    t0 = time.perf_counter_ns()
    mem = track_memory(lambda: _forward_fn(model)(model, x))
    warmup_ns = time.perf_counter_ns() - t0
    del x

    # One pass: the forwards' times are the latency samples and the inference stage; the rest
    # of the pass (reading, letterboxing, decode, NMS, metrics) is the evaluate stage.
    t0 = time.perf_counter_ns()
    dets_per_image, forward_ns = [], []
    for p, (w, h) in images:  # each image is letterboxed when the pass reaches it
        x, meta = _image_tensor(p, target)
        if (meta.orig_w, meta.orig_h) != (w, h):  # the ground truth was scaled by (w, h)
            raise ContractViolation(f"{p} is {meta.orig_w}x{meta.orig_h}, but its manifest line says {w}x{h}")
        dets, ns = _run_detector(model, x, meta, args.conf, args.iou)
        dets_per_image.append(dets)
        forward_ns.append(ns)
    detection = map50(dets_per_image, gts, model.meta.num_classes)
    prf = detection_prf(dets_per_image, gts)
    # Integer nanoseconds: the forwards lie inside the pass, so the difference is never negative.
    evaluate_ns = time.perf_counter_ns() - t0 - sum(forward_ns)
    latency = LatencyStats.from_samples((ns / 1e9 for ns in forward_ns), warmup_count=1)
    records.append(EmissionRecord("inference", (warmup_ns + sum(forward_ns)) / 1e9, power, intensity))
    records.append(EmissionRecord("evaluate", evaluate_ns / 1e9, power, intensity))

    size_mb = os.path.getsize(path) / 1e6
    twin = path if isinstance(model, QuantizedModel) else _twin_path(path)
    qsize_mb = os.path.getsize(twin) / 1e6 if os.path.exists(twin) else None

    report = stage_report(records)
    row = BenchRow(
        model_name=os.path.basename(path),
        precision=prf["precision"],
        recall=prf["recall"],
        f1=prf["f1"],
        map_50=detection["map"],
        size_mb=size_mb,
        qsize_mb=qsize_mb,
        mean_latency_s=latency.mean_s,
        peak_mem_bytes=mem.peak_live_tensor_bytes,
        total_carbon_kg=report.total_carbon_kg,
    )
    # One record per stage, so the report's stage rows, between its header
    # and its total, are the records'.
    emission_rows = [f"{row.model_name},{line}" for line in report.to_csv().splitlines()[1:-1]]
    memory_row = (
        f"{row.model_name},inference,{mem.peak_live_tensor_bytes},"
        f"{mem.current_live_tensor_bytes},{mem.allocation_count}"
    )
    return row, emission_rows, memory_row


def cmd_bench(args) -> int:
    power, intensity = resolve_energy_settings()
    ds = load_manifest(args.manifest)
    images = [(_resolve(args.manifest, img.image_path), (img.width, img.height)) for img in ds.images]
    gts = [img.ground_truth() for img in ds.images]

    os.makedirs(args.out_dir, exist_ok=True)
    rows: list[BenchRow] = []
    emissions_lines = [BENCH_EMISSIONS_CSV_HEADER]
    memory_lines = [MEMORY_CSV_HEADER]
    any_failed = False
    for path in args.models:
        try:
            row, emission_rows, memory_row = _bench_one(path, images, gts, args, power, intensity)
            emissions_lines.extend(emission_rows)
            memory_lines.append(memory_row)
        except Exception as exc:  # noqa: BLE001  (a bad model must not kill the run)
            print(f"bench failed for {path}: {exc}", file=sys.stderr)
            row = BenchRow(model_name=os.path.basename(path), failed=True)
            any_failed = True
        rows.append(row)
        gc.collect()

    report = [MD_HEADER, MD_RULE] + [row.to_md() for row in rows]
    files = {
        "bench.csv": [BENCH_CSV_HEADER] + [row.to_csv() for row in rows],
        "emissions.csv": emissions_lines,
        "memory.csv": memory_lines,
        "report.md": report,
    }
    for name, lines in files.items():
        with open(os.path.join(args.out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    print("\n".join(report))
    print(f"wrote {args.out_dir}/bench.csv, emissions.csv, memory.csv, report.md")
    return 3 if any_failed else 0


# --- argument parsing ----------------------------------------------------------


def _at_least(least: int):
    """An argparse type: an int that is >= least, else a usage error naming the flag."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return count


def _unit_interval(text: str) -> float:
    """An argparse type: a number in [0, 1] (NaN is not), else a usage error naming the flag."""
    try:
        if 0.0 <= (value := float(text)) <= 1.0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text!r}")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract says 1. Leftover
    arguments are an error of the parser left with them, so a subcommand's
    unknown flag prints that subcommand's usage."""

    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return args, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="greenlite", description="Detector benchmarking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic shapes dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--images", type=_at_least(1), default=60)
    p.add_argument("--classes", type=_at_least(1), default=len(DEFAULT_CLASS_NAMES))
    p.add_argument("--max-boxes", type=_at_least(1), default=3)
    p.add_argument("--size", type=_at_least(32), default=320, help="square image size in pixels")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("build", help="build a randomly initialized detector container")
    p.add_argument("--classes", type=_at_least(1), default=len(DEFAULT_CLASS_NAMES))
    p.add_argument("--input-size", type=_at_least(32), default=320)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="output .glw path")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("quantize", help="post-training int8 quantization")
    p.add_argument("--model", required=True, help="float .glw container")
    p.add_argument("--calib-manifest", required=True)
    p.add_argument("--calib-count", type=_at_least(1), default=32)
    p.add_argument("--out", default=None, help="output path (default: <model>.q.glw)")
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("detect", help="run detection on one image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--conf", type=_unit_interval, default=DEFAULT_CONF)
    p.add_argument("--iou", type=_unit_interval, default=DEFAULT_IOU)
    p.add_argument("--emit", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("bench", help="benchmark models against a manifest")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--conf", type=_unit_interval, default=DEFAULT_CONF)
    p.add_argument("--iou", type=_unit_interval, default=DEFAULT_IOU)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ContractViolation, ManifestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
