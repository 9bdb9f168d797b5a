"""Classification and detection metrics, plus dataset balancing helpers.

Detection AP uses all-point interpolation: precision is replaced by its
running maximum over descending rank (the envelope), and AP is the exact
area under that envelope over recall. Matching is greedy per class in
(score desc, class asc, x1 asc, y1 asc) order: each detection takes the
unmatched same-class ground-truth box of highest IoU >= the threshold,
ties going to the lowest box index. Classes absent from both ground truth
and predictions are excluded from macro averages; classes with detections
but no ground truth get AP 0 and are excluded from the mAP mean.

AP and mAP accumulate in plain Python floats in ascending order so results
are reproducible bit for bit by a naive reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .graph import Detection, _det_order_key, iou


@dataclass(frozen=True)
class GroundTruthBox:
    class_id: int
    box: tuple[float, float, float, float]  # x1, y1, x2, y2

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ContractViolation(f"class_id must be >= 0, got {self.class_id}")
        x1, y1, x2, y2 = self.box
        if not (x1 < x2 and y1 < y2):
            raise ContractViolation(f"box corners must be ordered, got {self.box}")


class ConfusionMatrix:
    """K x K counts; rows are true classes, columns predicted classes."""

    def __init__(self, num_classes: int) -> None:
        if num_classes < 1:
            raise ContractViolation(f"num_classes must be >= 1, got {num_classes}")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def add(self, label: int, pred: int) -> None:
        k = self.num_classes
        if not (0 <= label < k and 0 <= pred < k):
            raise ContractViolation(f"class id out of range [0, {k}): label={label} pred={pred}")
        self.counts[label, pred] += 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def classification_metrics(preds: Sequence[int], labels: Sequence[int], num_classes: int) -> dict:
    """Accuracy plus macro precision/recall/F1 over the represented classes.

    Per-class precision and recall treat an empty denominator as 0; macro
    averages run over classes with at least one true or predicted sample.
    """
    if len(preds) != len(labels):
        raise ContractViolation(f"preds and labels differ in length: {len(preds)} vs {len(labels)}")
    if len(preds) == 0:
        raise ContractViolation("need at least one sample")
    cm = ConfusionMatrix(num_classes)
    for pred, label in zip(preds, labels):
        cm.add(label, pred)

    accuracy = float(np.trace(cm.counts)) / cm.total
    precisions, recalls, f1s = [], [], []
    for c in range(num_classes):
        true_c = int(cm.counts[c, :].sum())
        pred_c = int(cm.counts[:, c].sum())
        if true_c == 0 and pred_c == 0:
            continue
        tp = int(cm.counts[c, c])
        p = tp / pred_c if pred_c > 0 else 0.0
        r = tp / true_c if true_c > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(2.0 * p * r / (p + r) if p + r > 0 else 0.0)
    return {
        "accuracy": accuracy,
        "macro_precision": sum(precisions) / len(precisions),
        "macro_recall": sum(recalls) / len(recalls),
        "macro_f1": sum(f1s) / len(f1s),
        "confusion": cm,
    }


def match_detections(
    dets: Sequence[Detection], gts: Sequence[GroundTruthBox], iou_thr: float = 0.5
) -> list[tuple[Detection, bool]]:
    """Greedy TP/FP labeling of detections against same-class ground truth.

    Returns (detection, is_true_positive) pairs in deterministic rank order;
    each ground-truth box is consumed by at most one detection.
    """
    if not 0.0 <= iou_thr <= 1.0:
        raise ContractViolation(f"iou_thr must be in [0, 1], got {iou_thr}")
    ordered = sorted(dets, key=_det_order_key)
    taken = [False] * len(gts)
    results: list[tuple[Detection, bool]] = []
    for det in ordered:
        best_iou, best_idx = 0.0, -1
        for gi, gt in enumerate(gts):
            if taken[gi] or gt.class_id != det.class_id:
                continue
            overlap = iou(det.box, gt.box)
            if overlap >= iou_thr and overlap > best_iou:
                best_iou, best_idx = overlap, gi
        if best_idx >= 0:
            taken[best_idx] = True
            results.append((det, True))
        else:
            results.append((det, False))
    return results


def _match_all(
    dets_per_image: Sequence[Sequence[Detection]],
    gts_per_image: Sequence[Sequence[GroundTruthBox]],
    iou_thr: float,
) -> list[tuple[Detection, bool]]:
    """match_detections on each image in turn, its pairs concatenated in image order."""
    if len(dets_per_image) != len(gts_per_image):
        raise ContractViolation(
            f"image count mismatch: {len(dets_per_image)} dets vs {len(gts_per_image)} gts"
        )
    matched_all: list[tuple[Detection, bool]] = []
    for dets, gts in zip(dets_per_image, gts_per_image):
        matched_all.extend(match_detections(dets, gts, iou_thr))
    return matched_all


def average_precision(matched: Sequence[tuple[Detection, bool]], num_gt: int) -> float:
    """Area under the all-point precision envelope over recall.

    num_gt = 0 yields 0.0 (no recall is achievable); whether such a class
    enters a mean is the caller's concern. Input order does not matter.
    """
    if num_gt < 0:
        raise ContractViolation(f"num_gt must be >= 0, got {num_gt}")
    if num_gt == 0 or not matched:
        return 0.0
    ordered = sorted(matched, key=lambda pair: _det_order_key(pair[0]))
    n = len(ordered)
    precisions, recalls = [], []
    tp = 0
    for i, (_, is_tp) in enumerate(ordered):
        if is_tp:
            tp += 1
        precisions.append(tp / (i + 1))
        recalls.append(tp / num_gt)
    envelope = list(precisions)
    for i in range(n - 2, -1, -1):
        envelope[i] = max(envelope[i], envelope[i + 1])
    ap = 0.0
    prev_recall = 0.0
    for i in range(n):
        if recalls[i] > prev_recall:
            ap += (recalls[i] - prev_recall) * envelope[i]
            prev_recall = recalls[i]
    return ap


def map50(
    dets_per_image: Sequence[Sequence[Detection]],
    gts_per_image: Sequence[Sequence[GroundTruthBox]],
    num_classes: int,
    iou_thr: float = 0.5,
) -> dict:
    """Per-class AP and their mean over classes present in the ground truth.

    per_class_ap holds None for classes absent from both GT and detections.
    """
    matched_all = _match_all(dets_per_image, gts_per_image, iou_thr)
    per_class_ap: list[float | None] = []
    present_aps: list[float] = []
    for c in range(num_classes):
        num_gt = sum(1 for gts in gts_per_image for gt in gts if gt.class_id == c)
        matched_c = [pair for pair in matched_all if pair[0].class_id == c]
        if num_gt == 0 and not matched_c:
            per_class_ap.append(None)
            continue
        ap = average_precision(matched_c, num_gt)
        per_class_ap.append(ap)
        if num_gt > 0:
            present_aps.append(ap)
    mean = sum(present_aps) / len(present_aps) if present_aps else 0.0
    return {"per_class_ap": per_class_ap, "map": mean}


def detection_prf(
    dets_per_image: Sequence[Sequence[Detection]],
    gts_per_image: Sequence[Sequence[GroundTruthBox]],
    iou_thr: float = 0.5,
) -> dict:
    """Micro precision/recall/F1 at the score threshold maximizing micro F1.

    Greedy matching is stable under dropping low-score detections (higher
    ranks match first), so one full matching pass plus a threshold sweep is
    exact. Ties prefer the higher threshold (fewer detections kept).
    """
    matched_all = _match_all(dets_per_image, gts_per_image, iou_thr)
    total_gt = sum(len(gts) for gts in gts_per_image)
    if not matched_all:
        return {"precision": 0.0, "recall": 0.0, "f1": 0.0, "threshold": 0.0}

    matched_all.sort(key=lambda pair: -pair[0].score)
    best = {"precision": 0.0, "recall": 0.0, "f1": 0.0, "threshold": 0.0}
    best_f1 = -1.0
    tp = 0
    kept = 0
    i = 0
    n = len(matched_all)
    while i < n:
        threshold = matched_all[i][0].score
        while i < n and matched_all[i][0].score == threshold:
            kept += 1
            if matched_all[i][1]:
                tp += 1
            i += 1
        p = tp / kept
        r = tp / total_gt if total_gt > 0 else 0.0
        f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        if f1 > best_f1:
            best_f1 = f1
            best = {"precision": p, "recall": r, "f1": f1, "threshold": threshold}
    return best


def class_weights(counts: Sequence[int]) -> list[float]:
    """Balanced inverse-frequency weights: w_c = N / (K * n_c)."""
    k = len(counts)
    if k == 0:
        raise ContractViolation("counts must be non-empty")
    for c, n in enumerate(counts):
        if n < 1:
            raise ContractViolation(f"class {c} has zero samples; weights are undefined")
    total = sum(counts)
    return [total / (k * n) for n in counts]


def undersample(items: Sequence, labels: Sequence[int], seed: int) -> list:
    """Reduce every class to the minority count by seeded sampling.

    Survivors keep their original relative order; an already balanced input
    comes back unchanged.
    """
    if len(items) != len(labels):
        raise ContractViolation(f"items and labels differ in length: {len(items)} vs {len(labels)}")
    if not items:
        raise ContractViolation("need at least one item")
    by_class: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    min_count = min(len(v) for v in by_class.values())
    rng = np.random.Generator(np.random.PCG64(seed))
    keep: set[int] = set()
    for label in sorted(by_class):
        idxs = by_class[label]
        chosen = rng.choice(len(idxs), size=min_count, replace=False)
        keep.update(idxs[j] for j in chosen)
    return [items[i] for i in range(len(items)) if i in keep]


METRICS_CSV_HEADER = "model,acc,precision,recall,f1,map50,size_mb,qsize_mb"


def metrics_csv_row(
    model: str,
    acc: float | None = None,
    precision: float | None = None,
    recall: float | None = None,
    f1: float | None = None,
    map_50: float | None = None,
    size_mb: float | None = None,
    qsize_mb: float | None = None,
) -> str:
    """One report row; absent metrics render as empty fields, floats 4-decimal."""
    def fmt(v: float | None) -> str:
        return "" if v is None else f"{v:.4f}"

    fields = [model] + [fmt(v) for v in (acc, precision, recall, f1, map_50, size_mb, qsize_mb)]
    return ",".join(fields)
