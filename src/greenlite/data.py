"""Dataset manifests, stratified splitting, and a synthetic-shapes generator.

Manifest format: UTF-8, LF line endings, one image per line:

    image_path<TAB>width<TAB>height<TAB>class:cx:cy:w:h[,class:cx:cy:w:h...]

Boxes are normalized center/size coordinates written with 6 decimals; the
writer is canonical, so load -> save reproduces a canonically written file
byte for byte. The synthetic generator draws colored rectangles (even
classes) and ellipses (odd classes) on a gray background and derives each
manifest box from the drawn pixel mask, so a pixel-scan of the raster
reproduces every box exactly.
"""

from __future__ import annotations

import math
import os
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ManifestError
from .graph import DEFAULT_CLASS_NAMES, default_class_names
from .metrics import GroundTruthBox

_BOUND_SLACK = 1e-6
# Far above any real label set (LVIS has 1,203 classes); load_manifest names
# every id up to the largest, so an unbounded id would be unbounded memory.
MAX_CLASS_ID = 65_535

# One fixed, saturated color per class; index 7+ extends procedurally.
_BASE_PALETTE = (
    (220, 60, 60),
    (60, 180, 75),
    (65, 105, 225),
    (240, 200, 50),
    (170, 80, 200),
    (60, 200, 200),
    (230, 130, 40),
)

CANVAS_GRAY = 114


def class_color(class_id: int) -> tuple[int, int, int]:
    if class_id < len(_BASE_PALETTE):
        return _BASE_PALETTE[class_id]
    i = class_id - len(_BASE_PALETTE)
    return (30 + (i * 73) % 200, 30 + (i * 139) % 200, 30 + (i * 197) % 200)


@dataclass(frozen=True)
class AnnotatedImage:
    image_path: str
    width: int
    height: int
    boxes: tuple[tuple[int, float, float, float, float], ...]  # class, cx, cy, w, h

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ContractViolation(f"image size must be >= 1, got {self.width}x{self.height}")
        for bi, (class_id, cx, cy, w, h) in enumerate(self.boxes):
            if not 0 <= class_id <= MAX_CLASS_ID:
                raise ContractViolation(
                    f"{self.image_path} box {bi}: class_id {class_id} outside [0, {MAX_CLASS_ID}]"
                )
            # Each test is written to hold, so a NaN field fails it.
            if not (w > 0 and h > 0):
                raise ContractViolation(f"{self.image_path} box {bi}: size must be > 0, got {w} x {h}")
            for v, extent in ((cx, w), (cy, h)):
                if not (v - extent / 2 >= -_BOUND_SLACK and v + extent / 2 <= 1 + _BOUND_SLACK):
                    raise ContractViolation(
                        f"{self.image_path} box {bi}: ({cx}, {cy}, {w}, {h}) extends outside [0, 1]"
                    )

    def majority_class(self) -> int:
        """Most frequent box class; ties go to the lowest id; -1 when boxless."""
        counts = Counter(class_id for class_id, *_ in self.boxes)
        return min(counts, key=lambda c: (-counts[c], c), default=-1)

    def pixel_boxes(self) -> list[tuple[int, float, float, float, float]]:
        """Boxes as (class_id, x1, y1, x2, y2) in pixel coordinates."""
        out = []
        for class_id, cx, cy, w, h in self.boxes:
            out.append(
                (
                    class_id,
                    (cx - w / 2) * self.width,
                    (cy - h / 2) * self.height,
                    (cx + w / 2) * self.width,
                    (cy + h / 2) * self.height,
                )
            )
        return out

    def ground_truth(self) -> list[GroundTruthBox]:
        return [GroundTruthBox(c, (x1, y1, x2, y2)) for c, x1, y1, x2, y2 in self.pixel_boxes()]


@dataclass(frozen=True)
class Dataset:
    class_names: tuple[str, ...]
    images: tuple[AnnotatedImage, ...]

    def __post_init__(self) -> None:
        if not self.class_names:
            raise ContractViolation("class_names must be non-empty")
        if len(set(self.class_names)) != len(self.class_names):
            raise ContractViolation("class_names must be unique")
        k = len(self.class_names)
        for img in self.images:
            for bi, (class_id, *_) in enumerate(img.boxes):
                if class_id >= k:
                    raise ContractViolation(
                        f"{img.image_path} box {bi}: class_id {class_id} >= {k} classes"
                    )

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def _parse_box(token: str, line_no: int, image_path: str, box_index: int):
    parts = token.split(":")
    if len(parts) != 5:
        raise ManifestError(
            line_no, f"image {image_path!r} box {box_index}: expected class:cx:cy:w:h, got {token!r}"
        )
    try:
        class_id = int(parts[0])
        cx, cy, w, h = (float(p) for p in parts[1:])
    except ValueError:
        raise ManifestError(
            line_no, f"image {image_path!r} box {box_index}: non-numeric field in {token!r}"
        ) from None
    return class_id, cx, cy, w, h


def load_manifest(path: str) -> Dataset:
    """Parse and validate a manifest file; its classes are named by
    default_class_names, seven of them or as many as the largest id needs."""
    images: list[AnnotatedImage] = []
    max_class = -1
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ManifestError(line_no, f"expected 4 tab-separated fields, got {len(fields)}")
            image_path = fields[0]
            try:
                width, height = int(fields[1]), int(fields[2])
            except ValueError:
                raise ManifestError(line_no, f"bad width/height {fields[1]!r}/{fields[2]!r}") from None
            boxes = []
            if fields[3]:
                for bi, token in enumerate(fields[3].split(",")):
                    boxes.append(_parse_box(token, line_no, image_path, bi))
            try:
                img = AnnotatedImage(image_path, width, height, tuple(boxes))
            except ContractViolation as exc:
                raise ManifestError(line_no, str(exc)) from None
            for class_id, *_ in boxes:
                max_class = max(max_class, class_id)
            images.append(img)
    if not images:
        raise ManifestError(None, "empty dataset")
    return Dataset(default_class_names(max(max_class + 1, len(DEFAULT_CLASS_NAMES))), tuple(images))


def save_manifest(ds: Dataset, path: str) -> None:
    """Write the canonical form: 6-decimal box floats, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for img in ds.images:
            tokens = [
                f"{c}:{cx:.6f}:{cy:.6f}:{w:.6f}:{h:.6f}" for c, cx, cy, w, h in img.boxes
            ]
            fh.write(f"{img.image_path}\t{img.width}\t{img.height}\t{','.join(tokens)}\n")


def class_distribution(ds: Dataset) -> dict:
    """Per-class box counts and per-class image counts, in class-name order."""
    k = ds.num_classes
    box_counts = [0] * k
    image_counts = [0] * k
    for img in ds.images:
        seen = set()
        for class_id, *_ in img.boxes:
            box_counts[class_id] += 1
            seen.add(class_id)
        for class_id in seen:
            image_counts[class_id] += 1
    return {"box_counts": box_counts, "image_counts": image_counts}


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic stratified split; train gets exactly floor(n * fraction).

    Images are bucketed by majority box class and shuffled per bucket with a
    seeded generator. Largest-remainder allocation pins the train total to
    the floor rule while keeping each bucket within one image of its ideal
    proportional share.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ContractViolation(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(ds.images)
    if n < 2:
        raise ContractViolation(f"split needs at least 2 images, got {n}")
    target = math.floor(n * train_fraction)

    buckets: dict[int, list[int]] = {}
    for i, img in enumerate(ds.images):
        buckets.setdefault(img.majority_class(), []).append(i)

    shares = []
    for key in sorted(buckets):
        ideal = len(buckets[key]) * train_fraction
        base = math.floor(ideal)
        shares.append([key, base, ideal - base])
    leftover = target - sum(s[1] for s in shares)
    # Hand the leftover train slots to the largest fractional remainders.
    for s in sorted(shares, key=lambda s: (-s[2], s[0]))[:leftover]:
        s[1] += 1

    rng = np.random.Generator(np.random.PCG64(seed))
    train_idx: list[int] = []
    val_idx: list[int] = []
    take = {key: count for key, count, _ in shares}
    for key in sorted(buckets):
        order = list(buckets[key])
        rng.shuffle(order)
        train_idx.extend(order[: take[key]])
        val_idx.extend(order[take[key] :])
    train_idx.sort()
    val_idx.sort()
    train = Dataset(ds.class_names, tuple(ds.images[i] for i in train_idx))
    val = Dataset(ds.class_names, tuple(ds.images[i] for i in val_idx))
    return train, val


# --- PPM raster I/O -----------------------------------------------------------


def write_ppm(path: str, pixels: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as binary PPM (P6, maxval 255)."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ContractViolation("write_ppm expects an (h, w, 3) uint8 array")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


# P6, then width, height and maxval as unsigned decimals, each after
# whitespace or # comments that end at a newline, then one whitespace byte.
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def read_ppm(path: str) -> np.ndarray:
    """Read a binary PPM (P6, maxval 255) into an (h, w, 3) uint8 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = _PPM_HEADER.match(blob)
    if header is None:
        raise ContractViolation(f"{path}: not a P6 PPM header (P6, width, height, maxval)")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise ContractViolation(f"{path}: only maxval 255 is supported, got {maxval}")
    if len(blob) - header.end() < w * h * 3:
        raise ContractViolation(f"{path}: pixel payload truncated")
    return np.frombuffer(blob, np.uint8, w * h * 3, header.end()).reshape(h, w, 3).copy()


# --- synthetic dataset --------------------------------------------------------


def synth_dataset(
    out_dir: str,
    num_images: int,
    num_classes: int = len(DEFAULT_CLASS_NAMES),
    max_boxes_per_image: int = 3,
    image_size: int = 320,
    seed: int = 0,
) -> Dataset:
    """Generate PPM rasters plus a matching in-memory Dataset.

    Shapes: axis-aligned rectangles for even classes, ellipses for odd, one
    color per class on a uniform gray canvas. Each image's first box class
    is image_index mod num_classes, so every class appears once num_images
    >= num_classes. Placements keep a 2 px gap between shapes; a placement
    that fails 100 attempts is skipped rather than failing the run. Every
    manifest box is recomputed from the drawn pixel mask, making the raster
    and the annotation exactly consistent.
    """
    for name, v in (
        ("num_images", num_images),
        ("num_classes", num_classes),
        ("max_boxes_per_image", max_boxes_per_image),
    ):
        if v < 1:
            raise ContractViolation(f"{name} must be >= 1, got {v}")
    if image_size < 32:
        raise ContractViolation(f"image_size must be >= 32, got {image_size}")
    if num_classes > MAX_CLASS_ID + 1:  # else whether a box is refused would depend on the seed
        raise ContractViolation(f"num_classes must be <= {MAX_CLASS_ID + 1}, got {num_classes}")

    images_dir = os.path.join(out_dir, "images")
    os.makedirs(images_dir, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    s = image_size
    min_half = max(3, s // 32)
    max_half = max(min_half + 1, s // 6)

    images: list[AnnotatedImage] = []
    for idx in range(num_images):
        canvas = np.full((s, s, 3), CANVAS_GRAY, dtype=np.uint8)
        occupied: list[tuple[int, int, int, int]] = []  # x1, y1, x2, y2 inclusive
        boxes: list[tuple[int, float, float, float, float]] = []
        n_boxes = 1 + int(rng.integers(0, max_boxes_per_image))
        for b in range(n_boxes):
            class_id = idx % num_classes if b == 0 else int(rng.integers(0, num_classes))
            placed = None
            for _ in range(100):
                hx = int(rng.integers(min_half, max_half + 1))
                hy = int(rng.integers(min_half, max_half + 1))
                cx = int(rng.integers(hx + 1, s - hx - 1))
                cy = int(rng.integers(hy + 1, s - hy - 1))
                x1, y1, x2, y2 = cx - hx, cy - hy, cx + hx, cy + hy
                clear = all(
                    x1 > ox2 + 2 or x2 < ox1 - 2 or y1 > oy2 + 2 or y2 < oy1 - 2
                    for ox1, oy1, ox2, oy2 in occupied
                )
                if clear:
                    placed = (cx, cy, hx, hy, x1, y1, x2, y2)
                    break
            if placed is None:
                continue  # overfull image: drop the box, never fail
            cx, cy, hx, hy, x1, y1, x2, y2 = placed
            ys, xs = np.mgrid[y1 : y2 + 1, x1 : x2 + 1]
            ellipse = ((xs - cx) / hx) ** 2 + ((ys - cy) / hy) ** 2 <= 1.0
            mask = ellipse if class_id % 2 else np.ones_like(ellipse)  # even: the rectangle
            canvas[y1 : y2 + 1, x1 : x2 + 1][mask] = class_color(class_id)
            mys, mxs = np.nonzero(mask)
            px1, py1 = x1 + int(mxs.min()), y1 + int(mys.min())
            px2, py2 = x1 + int(mxs.max()), y1 + int(mys.max())
            occupied.append((x1, y1, x2, y2))
            # The annotation covers the drawn pixels' continuous extent.
            boxes.append(
                (
                    class_id,
                    (px1 + px2 + 1) / 2 / s,
                    (py1 + py2 + 1) / 2 / s,
                    (px2 + 1 - px1) / s,
                    (py2 + 1 - py1) / s,
                )
            )
        rel_path = os.path.join("images", f"img_{idx:05d}.ppm")
        write_ppm(os.path.join(out_dir, rel_path), canvas)
        images.append(AnnotatedImage(rel_path, s, s, tuple(boxes)))
    return Dataset(default_class_names(num_classes), tuple(images))
