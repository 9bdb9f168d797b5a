"""Dataset tests: manifest parsing, stratified split math, raster oracle."""

import hashlib
import re

import numpy as np
import pytest
import scipy.ndimage

from greenlite import (
    AnnotatedImage,
    ContractViolation,
    DEFAULT_CLASS_NAMES,
    Dataset,
    ManifestError,
    class_distribution,
    load_manifest,
    read_ppm,
    save_manifest,
    split,
    synth_dataset,
    write_ppm,
)
from greenlite.data import CANVAS_GRAY, class_color, default_class_names


def img(path, boxes, size=100):
    return AnnotatedImage(path, size, size, tuple(boxes))


def box(cls, cx=0.5, cy=0.5, w=0.2, h=0.2):
    return (cls, cx, cy, w, h)


# ---- manifest ----

FIXTURE = (
    "images/a.ppm\t320\t240\t0:0.500000:0.500000:0.250000:0.250000\n"
    "images/b.ppm\t100\t100\t1:0.300000:0.300000:0.100000:0.100000,"
    "2:0.700000:0.700000:0.200000:0.200000,1:0.500000:0.800000:0.100000:0.100000\n"
    "images/c.ppm\t64\t64\t6:0.500000:0.500000:0.500000:0.500000\n"
)


def test_manifest_fixture_parses_and_round_trips(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text(FIXTURE, encoding="utf-8")
    ds = load_manifest(p)
    assert len(ds.images) == 3
    assert sum(len(i.boxes) for i in ds.images) == 5
    assert ds.images[0].width == 320 and ds.images[0].height == 240
    assert ds.images[1].boxes[1] == (2, 0.7, 0.7, 0.2, 0.2)
    assert ds.class_names == DEFAULT_CLASS_NAMES
    out = tmp_path / "round.tsv"
    save_manifest(ds, out)
    assert out.read_bytes() == p.read_bytes()


def test_manifest_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("\n" + FIXTURE + "\n\n", encoding="utf-8")
    assert len(load_manifest(p).images) == 3


def test_a_crlf_manifest_parses_as_its_lf_form(tmp_path):
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lf.write_bytes(FIXTURE.encode())
    crlf.write_bytes(FIXTURE.replace("\n", "\r\n").encode())
    assert load_manifest(crlf) == load_manifest(lf)


def test_empty_manifest_is_an_error(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(ManifestError) as exc:
        load_manifest(p)
    assert "empty dataset" in str(exc.value)
    assert "line" not in str(exc.value)


def test_manifest_errors_carry_line_numbers(tmp_path):
    cases = [
        ("a.ppm\t10\t10\n", "expected 4"),  # 3 fields
        ("a.ppm\tten\t10\t\n", "bad width/height"),
        ("a.ppm\t10\t10\t0:0.5:0.5\n", "expected class:cx:cy:w:h"),
        ("a.ppm\t10\t10\t0:x:0.5:0.1:0.1\n", "non-numeric"),
        ("a.ppm\t10\t10\t0:0.95:0.5:0.2:0.1\n", "outside"),
        ("a.ppm\t0\t10\t\n", "size must be >= 1"),
        ("a.ppm\t10\t10\t65536:0.5:0.5:0.1:0.1\n", "class_id 65536 outside [0, 65535]"),
        ("a.ppm\t10\t10\t0:nan:0.5:0.1:0.1\n", "(nan, 0.5, 0.1, 0.1) extends outside"),
        ("a.ppm\t10\t10\t0:0.5:inf:0.1:0.1\n", "(0.5, inf, 0.1, 0.1) extends outside"),
        ("a.ppm\t10\t10\t0:0.5:0.5:nan:0.1\n", "size must be > 0, got nan x 0.1"),
        ("a.ppm\t10\t10\t0:0.5:0.5:0.1:inf\n", "extends outside"),
        ("a\udcff.ppm\t10\t10\t\n", "not valid UTF-8"),  # written as one 0xff byte
        ("a.ppm\t1_0\t10\t\n", "bad width/height"),
        ("a.ppm\t 10\t10\t\n", "bad width/height"),
        ("a.ppm\t10\t\u0661\u0660\t\n", "bad width/height"),  # Arabic-Indic 10
        ("a.ppm\t+10\t10\t\n", "bad width/height"),
        ("a.ppm\t10\t10\t1_0:0.5:0.5:0.1:0.1\n", "non-numeric"),
        ("a.ppm\t10\t10\t\u0661:0.5:0.5:0.1:0.1\n", "non-numeric"),
        ("a.ppm\t10\t10\t0:0.5:0.5:0_1:0.1\n", "non-numeric"),  # float() reads 1.0
        ("a.ppm\t10\t10\t0:0.5: 0.5:0.1:0.1\n", "non-numeric"),
        ("a.ppm\t10\t10\t0:0.5:0.5:0.1:0.\u0661\n", "non-numeric"),
    ]
    for bad, needle in cases:
        p = tmp_path / "m.tsv"
        p.write_text(FIXTURE.splitlines(keepends=True)[0] + bad, encoding="utf-8", errors="surrogateescape")
        with pytest.raises(ManifestError) as exc:
            load_manifest(p)
        assert "manifest line 2:" in str(exc.value), bad
        assert needle in str(exc.value), bad


def test_manifest_class_name_selection(tmp_path):
    """default_class_names names a manifest's classes: the seven defaults
    while every id fits, else as many as the largest id needs."""
    p = tmp_path / "m.tsv"
    p.write_text("a.ppm\t10\t10\t2:0.500000:0.500000:0.200000:0.200000\n", encoding="utf-8")
    assert load_manifest(p).class_names == DEFAULT_CLASS_NAMES
    p.write_text("a.ppm\t10\t10\t9:0.500000:0.500000:0.200000:0.200000\n", encoding="utf-8")
    assert load_manifest(p).class_names == DEFAULT_CLASS_NAMES + ("class_7", "class_8", "class_9")


def test_a_ten_class_synth_set_keeps_its_names_through_its_manifest(tmp_path):
    ds = synth_dataset(tmp_path, num_images=10, num_classes=10, image_size=64, seed=1)
    assert ds.class_names == default_class_names(10)
    assert ds.class_names[5:8] == ("plastic", "trash", "class_7")
    save_manifest(ds, tmp_path / "m.tsv")
    assert load_manifest(tmp_path / "m.tsv").class_names == ds.class_names


def test_dataset_validation():
    with pytest.raises(ContractViolation):
        Dataset((), (img("a", [box(0)]),))
    with pytest.raises(ContractViolation):
        Dataset(("x", "x"), ())
    with pytest.raises(ContractViolation):
        Dataset(("only",), (img("a", [box(3)]),))


# ---- annotated image helpers ----


def test_majority_class_rules():
    assert img("a", []).majority_class() == -1
    assert img("a", [box(2)]).majority_class() == 2
    assert img("a", [box(2), box(1), box(1)]).majority_class() == 1
    # a tie between classes 3 and 1 resolves to the lower id
    assert img("a", [box(3), box(1)]).majority_class() == 1


def test_pixel_boxes_and_ground_truth():
    im = AnnotatedImage("a", 200, 100, (box(4, cx=0.5, cy=0.5, w=0.2, h=0.4),))
    (cls, x1, y1, x2, y2), = im.pixel_boxes()
    assert cls == 4
    assert (x1, y1, x2, y2) == (80.0, 30.0, 120.0, 70.0)
    (g,) = im.ground_truth()
    assert g.class_id == 4 and g.box == (80.0, 30.0, 120.0, 70.0)


def test_annotated_image_validation():
    with pytest.raises(ContractViolation):
        img("a", [(0, 0.9, 0.5, 0.3, 0.1)])  # spills past the right edge
    with pytest.raises(ContractViolation):
        img("a", [(-1, 0.5, 0.5, 0.1, 0.1)])
    with pytest.raises(ContractViolation):
        img("a", [(0, 0.5, 0.5, 0.0, 0.1)])


# ---- distribution and split ----


def test_class_distribution_hand_tally():
    ds = Dataset(
        ("a", "b", "c"),
        (
            img("i0", [box(0), box(1), box(1)]),
            img("i1", [box(1)]),
            img("i2", []),
        ),
    )
    dist = class_distribution(ds)
    assert dist["box_counts"] == [1, 3, 0]
    assert dist["image_counts"] == [1, 2, 0]
    assert sum(dist["box_counts"]) == sum(len(i.boxes) for i in ds.images)


def big_dataset(n=11163, k=7):
    images = tuple(img(f"i{i:05d}", [box(i % k)], size=10) for i in range(n))
    return Dataset(tuple(f"c{j}" for j in range(k)), images)


def test_split_floor_rule_fixture():
    """11163 images at 0.8 give exactly 8930 train and 2233 val."""
    ds = big_dataset()
    train, val = split(ds, 0.8, seed=0)
    assert len(train.images) == 8930
    assert len(val.images) == 2233


def test_split_is_a_deterministic_partition():
    ds = big_dataset(n=500)
    t1, v1 = split(ds, 0.8, seed=7)
    t2, v2 = split(ds, 0.8, seed=7)
    assert [i.image_path for i in t1.images] == [i.image_path for i in t2.images]
    assert [i.image_path for i in v1.images] == [i.image_path for i in v2.images]
    t3, _ = split(ds, 0.8, seed=8)
    assert [i.image_path for i in t3.images] != [i.image_path for i in t1.images]
    names = sorted(i.image_path for i in t1.images) + sorted(i.image_path for i in v1.images)
    assert sorted(names) == [i.image_path for i in ds.images]
    assert len(set(names)) == len(ds.images)


def test_split_keeps_every_class_within_one_image_of_its_share():
    rng = np.random.default_rng(11)
    for frac in (0.5, 0.8, 0.9):
        n = int(rng.integers(200, 400))
        images = tuple(img(f"i{i:04d}", [box(int(rng.integers(0, 5)))], size=10) for i in range(n))
        ds = Dataset(tuple(f"c{j}" for j in range(5)), images)
        train, _ = split(ds, frac, seed=3)
        per_class_total = class_distribution(ds)["box_counts"]
        per_class_train = class_distribution(train)["box_counts"]
        import math

        assert len(train.images) == math.floor(n * frac)
        for c in range(5):
            assert abs(per_class_train[c] - per_class_total[c] * frac) < 1.0


def test_split_validates_arguments():
    ds = big_dataset(n=10)
    with pytest.raises(ContractViolation):
        split(ds, 0.0, seed=0)
    with pytest.raises(ContractViolation):
        split(ds, 1.0, seed=0)
    one = Dataset(("a",), (img("x", [box(0)]),))
    with pytest.raises(ContractViolation):
        split(one, 0.5, seed=0)


# ---- PPM ----


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    px = rng.integers(0, 256, (37, 53, 3), dtype=np.uint8)
    p = tmp_path / "x.ppm"
    write_ppm(p, px)
    assert np.array_equal(read_ppm(p), px)


def test_ppm_header_comments_are_tolerated(tmp_path):
    px = np.full((2, 3, 3), 7, dtype=np.uint8)
    p = tmp_path / "x.ppm"
    p.write_bytes(b"P6\n# made by hand\n3 2\n# another note\n255\n" + px.tobytes())
    assert np.array_equal(read_ppm(p), px)
    p.write_bytes(b"P6\n3#c\n2 255\n" + px.tobytes())  # a comment may follow a number at once
    assert np.array_equal(read_ppm(p), px)


def test_ppm_rejects_bad_files(tmp_path):
    p = tmp_path / "x.ppm"
    for blob in (
        b"P5\n2 2\n255\n" + bytes(12),
        b"P6\n2 2\n65535\n" + bytes(24),
        b"P6\n2 2\n255\n" + bytes(5),
        b"P62 2 255\n" + bytes(12),  # no whitespace after the magic
        b"P6\n+2 2\n255\n" + bytes(12),  # numbers are unsigned decimals
        b"P6\n1_0 2\n255\n" + bytes(60),
        b"P6\n-1 -1\n255\n",
    ):
        p.write_bytes(blob)
        with pytest.raises(ContractViolation, match=re.escape(str(p))):
            read_ppm(p)
    with pytest.raises(ContractViolation):
        write_ppm(p, np.zeros((2, 2), dtype=np.uint8))


# ---- synthetic generator ----


def test_synth_is_deterministic(tmp_path):
    ds1 = synth_dataset(tmp_path / "a", num_images=6, num_classes=7, image_size=96, seed=4)
    ds2 = synth_dataset(tmp_path / "b", num_images=6, num_classes=7, image_size=96, seed=4)
    assert [i.boxes for i in ds1.images] == [i.boxes for i in ds2.images]
    for a, b in zip(ds1.images, ds2.images):
        pa = (tmp_path / "a" / a.image_path).read_bytes()
        pb = (tmp_path / "b" / b.image_path).read_bytes()
        assert pa == pb
    ds3 = synth_dataset(tmp_path / "c", num_images=6, num_classes=7, image_size=96, seed=5)
    assert [i.boxes for i in ds3.images] != [i.boxes for i in ds1.images]


# sha256 over the sorted relative paths and bytes of every file synth_dataset
# writes, plus its canonical manifest, per (seed, classes, images, size).
SYNTH_SHA = {
    (0, 7, 60, 320): "456ae07cfd8e8a8b60735092885cd3a607e6d9fe78bb2c7d385b0cfc03ee5d2c",
    (1, 10, 20, 64): "936de909cbd6d473ee89b2733c47aa9d04b883037c51eab848f12da937b73085",
}


@pytest.mark.parametrize("seed, classes, images, size", list(SYNTH_SHA))
def test_synth_bytes_are_pinned(tmp_path, seed, classes, images, size):
    ds = synth_dataset(tmp_path, num_images=images, num_classes=classes, image_size=size, seed=seed)
    save_manifest(ds, tmp_path / "manifest.tsv")
    h = hashlib.sha256()
    for p in sorted(tmp_path.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(tmp_path).as_posix().encode() + b"\0" + p.read_bytes())
    assert h.hexdigest() == SYNTH_SHA[seed, classes, images, size]


def test_synth_covers_every_class_in_the_first_cycle(tmp_path):
    ds = synth_dataset(tmp_path, num_images=7, num_classes=7, image_size=96, seed=2)
    first_classes = [i.boxes[0][0] for i in ds.images]
    assert first_classes == list(range(7))
    assert ds.class_names == DEFAULT_CLASS_NAMES


def test_synth_raster_scan_reproduces_the_annotations(tmp_path):
    """Connected components of non-gray pixels must match the manifest:
    same count, same class color, and the same bounding box."""
    ds = synth_dataset(tmp_path, num_images=10, num_classes=7, image_size=128, seed=6)
    color_to_class = {class_color(c): c for c in range(7)}
    for im in ds.images:
        px = read_ppm(tmp_path / im.image_path)
        fg = np.any(px != CANVAS_GRAY, axis=2)
        labels, count = scipy.ndimage.label(fg)
        assert count == len(im.boxes)
        comps = []
        for lab in range(1, count + 1):
            ys, xs = np.nonzero(labels == lab)
            color = tuple(int(v) for v in px[ys[0], xs[0]])
            comps.append((xs.min(), ys.min(), xs.max(), ys.max(), color_to_class[color], len(xs)))
        comps.sort()
        want = sorted(
            (round(x1), round(y1), round(x2) - 1, round(y2) - 1, c, None)
            for c, x1, y1, x2, y2 in (
                (c, x1, y1, x2, y2) for c, x1, y1, x2, y2 in im.pixel_boxes()
            )
        )
        for got, exp in zip(comps, want):
            assert got[:5] == exp[:5]
            x1, y1, x2, y2, cls, npx = got
            area = (x2 - x1 + 1) * (y2 - y1 + 1)
            if cls % 2 == 0:
                assert npx == area  # rectangles fill their bounding box
            else:
                assert npx < area  # ellipses never do


def test_synth_boxes_always_fit_in_bounds(tmp_path):
    ds = synth_dataset(tmp_path, num_images=12, num_classes=3, image_size=64, seed=8)
    for im in ds.images:
        assert len(im.boxes) >= 1
        for _, cx, cy, w, h in im.boxes:
            assert cx - w / 2 >= 0 and cx + w / 2 <= 1
            assert cy - h / 2 >= 0 and cy + h / 2 <= 1
        assert (tmp_path / im.image_path).exists()


def test_synth_validates_arguments(tmp_path):
    with pytest.raises(ContractViolation):
        synth_dataset(tmp_path, num_images=0)
    with pytest.raises(ContractViolation):
        synth_dataset(tmp_path, num_images=1, image_size=16)
    with pytest.raises(ContractViolation, match="num_classes must be <= 65536, got 65537"):
        synth_dataset(tmp_path, num_images=1, num_classes=65537)


def test_class_color_palette_is_distinct():
    colors = [class_color(c) for c in range(20)]
    assert len(set(colors)) == 20
    assert all(c != (CANVAS_GRAY, CANVAS_GRAY, CANVAS_GRAY) for c in colors)
