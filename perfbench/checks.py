"""Output checks behind the benchmark's failure count.

Each served image is one operation. It fails when the pipeline raises, when
its head differs from the reference (float: relative error above the kernel
oracle tolerance; int8: any bit), when NMS left a same-class pair above the
IoU threshold or a box outside the image, or when live tensor bytes did not
return to the baseline afterwards. The NMS check uses its own IoU code, not
greenlite's.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os

import numpy as np

FLOAT_REL_TOL = 1e-5
IOU_SLACK = 1e-9  # two IoU codes may differ in the last bits on an exact tie
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got - ref| / max(1, max |ref|), as the kernel oracle tests define it."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(got - ref)) / max(1.0, float(np.max(np.abs(ref)))))


def heads_match(got: np.ndarray, ref: np.ndarray, exact: bool) -> bool:
    if exact:
        return got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()
    return rel_err(got, ref) <= FLOAT_REL_TOL


def _pairwise_iou(boxes: np.ndarray) -> np.ndarray:
    x1 = np.maximum(boxes[:, None, 0], boxes[None, :, 0])
    y1 = np.maximum(boxes[:, None, 1], boxes[None, :, 1])
    x2 = np.minimum(boxes[:, None, 2], boxes[None, :, 2])
    y2 = np.minimum(boxes[:, None, 3], boxes[None, :, 3])
    inter = np.clip(x2 - x1, 0.0, None) * np.clip(y2 - y1, 0.0, None)
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    return inter / (area[:, None] + area[None, :] - inter)


def nms_problem(kept, iou_threshold: float, width: float, height: float) -> str | None:
    """None when the NMS output is valid, else what is wrong with it."""
    if not kept:
        return None
    boxes = np.array([d.box for d in kept], dtype=np.float64)
    classes = np.array([d.class_id for d in kept])
    inside = (
        (boxes[:, 0] >= 0) & (boxes[:, 1] >= 0)
        & (boxes[:, 2] <= width) & (boxes[:, 3] <= height)
        & (boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3])
    )
    if not inside.all():
        return f"{int((~inside).sum())} boxes outside the {width}x{height} image"
    for c in np.unique(classes):
        ious = _pairwise_iou(boxes[classes == c])
        np.fill_diagonal(ious, 0.0)
        worst = float(ious.max())
        if worst > iou_threshold + IOU_SLACK:
            return f"class {int(c)} keeps a pair with IoU {worst:.6f} > {iou_threshold}"
    return None


class Ledger:
    """Counts attempted and failed operations and keeps the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{what}: {problem}")


# --- fixture reference recorded for the default seed ---------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encode_f32(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    return {"shape": list(arr.shape), "f32_b64": base64.b64encode(arr.tobytes()).decode("ascii")}


def decode_f32(doc: dict) -> np.ndarray:
    raw = base64.b64decode(doc["f32_b64"])
    return np.frombuffer(raw, dtype="<f4").reshape(doc["shape"]).astype(np.float32)


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)
