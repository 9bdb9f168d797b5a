"""Metric tests: hand-checkable fixtures plus an independent mAP oracle."""

from fractions import Fraction

import numpy as np
import pytest

from greenlite import (
    ContractViolation,
    Detection,
    GroundTruthBox,
    average_precision,
    class_weights,
    classification_metrics,
    detection_prf,
    map50,
    match_detections,
    metrics_csv_row,
    undersample,
)
from greenlite.metrics import METRICS_CSV_HEADER, ConfusionMatrix

from _oracles import map50_ref


def det(cls, score, x1, y1=0.0, size=10.0):
    return Detection(cls, score, (x1, y1, x1 + size, y1 + size))


def gt(cls, x1, y1=0.0, size=10.0):
    return GroundTruthBox(cls, (x1, y1, x1 + size, y1 + size))


# ---- classification ----


def test_classification_hand_fixture():
    """preds [1,1,0] vs labels [1,0,0]: acc 2/3, macro P = R = 3/4, F1 2/3.

    Class 0: P 1, R 1/2, F1 2/3. Class 1: P 1/2, R 1, F1 2/3. The macro F1
    is the mean of per-class F1s, not the F1 of the macro averages (3/4).
    """
    m = classification_metrics([1, 1, 0], [1, 0, 0], 2)
    assert abs(m["accuracy"] - 2 / 3) <= 1e-9
    assert abs(m["macro_precision"] - 0.75) <= 1e-9
    assert abs(m["macro_recall"] - 0.75) <= 1e-9
    assert abs(m["macro_f1"] - 2 / 3) <= 1e-9
    hf = 2 * m["macro_precision"] * m["macro_recall"] / (m["macro_precision"] + m["macro_recall"])
    assert m["macro_f1"] != hf
    assert m["confusion"].counts.tolist() == [[1, 1], [0, 1]]


def test_perfect_predictions_score_one():
    m = classification_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
    for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
        assert m[key] == 1.0


def test_classification_is_permutation_invariant():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, 60).tolist()
    preds = rng.integers(0, 4, 60).tolist()
    base = classification_metrics(preds, labels, 4)
    perm = rng.permutation(60)
    shuffled = classification_metrics([preds[i] for i in perm], [labels[i] for i in perm], 4)
    for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
        assert base[key] == shuffled[key]


def test_accuracy_is_prevalence_weighted_recall():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n, k = 50, 3
        labels = rng.integers(0, k, n).tolist()
        preds = rng.integers(0, k, n).tolist()
        m = classification_metrics(preds, labels, k)
        cm = m["confusion"].counts
        weighted = 0.0
        for c in range(k):
            true_c = int(cm[c].sum())
            if true_c:
                weighted += (true_c / n) * (int(cm[c, c]) / true_c)
        assert abs(m["accuracy"] - weighted) <= 1e-12
        assert 0.0 <= m["macro_f1"] <= 1.0


def test_absent_classes_stay_out_of_macro_averages():
    # class 2 never appears; macro runs over classes 0 and 1 only
    m = classification_metrics([0, 1], [0, 1], 3)
    assert m["macro_precision"] == 1.0


def test_classification_input_validation():
    with pytest.raises(ContractViolation):
        classification_metrics([0], [0, 1], 2)
    with pytest.raises(ContractViolation):
        classification_metrics([], [], 2)
    with pytest.raises(ContractViolation):
        classification_metrics([5], [0], 2)
    with pytest.raises(ContractViolation):
        ConfusionMatrix(0)


# ---- matching ----


def test_match_identity_and_threshold_boundary():
    from greenlite import iou

    g = [gt(0, 0.0)]
    assert match_detections([det(0, 0.9, 0.0)], g) == [(det(0, 0.9, 0.0), True)]
    # overlap exactly equal to the threshold is inclusive, one ulp above it is not
    d = det(0, 0.9, 3.4)
    ov = iou(d.box, g[0].box)
    assert 0.4 < ov < 0.5
    assert match_detections([d], g, iou_thr=ov)[0][1] is True
    assert match_detections([d], g, iou_thr=float(np.nextafter(ov, 1.0)))[0][1] is False
    assert match_detections([det(0, 0.9, 3.42)], g, iou_thr=0.5)[0][1] is False


def test_match_consumes_each_gt_once_best_rank_first():
    g = [gt(0, 0.0)]
    d_hi, d_lo = det(0, 0.9, 0.5), det(0, 0.8, 0.0)
    flags = dict((d.score, tp) for d, tp in match_detections([d_lo, d_hi], g))
    assert flags[0.9] is True  # higher score matches first despite worse IoU
    assert flags[0.8] is False


def test_match_tie_takes_lowest_gt_index():
    # both ground-truth boxes overlap the detection identically
    g = [gt(0, 2.0), gt(0, 2.0)]
    d = det(0, 0.9, 0.0)
    res = match_detections([d], g)
    assert res == [(d, True)]
    again = match_detections([d, det(0, 0.8, 0.0)], g)
    assert [tp for _, tp in again] == [True, True]  # second det takes index 1


def test_match_ignores_other_classes():
    assert match_detections([det(1, 0.9, 0.0)], [gt(0, 0.0)])[0][1] is False


# ---- average precision ----


def test_ap_perfect_and_empty_fixtures():
    matched = [(det(0, 0.9, 0.0), True), (det(0, 0.8, 20.0), True)]
    assert average_precision(matched, 2) == 1.0
    assert average_precision([], 5) == 0.0
    assert average_precision(matched, 0) == 0.0


def test_ap_tp_fp_tp_is_five_sixths():
    matched = [
        (det(0, 0.9, 0.0), True),
        (det(0, 0.8, 50.0), False),
        (det(0, 0.7, 20.0), True),
    ]
    assert abs(average_precision(matched, 2) - 5.0 / 6.0) <= 1e-9


def test_ap_ignores_input_order():
    rng = np.random.default_rng(7)
    matched = [(det(0, float(np.round(s, 3)), float(i) * 20), bool(f)) for i, (s, f) in enumerate(zip(rng.uniform(0.1, 1, 12), rng.integers(0, 2, 12)))]
    base = average_precision(matched, 6)
    for _ in range(5):
        perm = rng.permutation(len(matched))
        assert average_precision([matched[i] for i in perm], 6) == base


def test_duplicate_detections_never_raise_ap():
    rng = np.random.default_rng(8)
    for _ in range(30):
        gts = [gt(0, float(i) * 20) for i in range(3)]
        dets = [det(0, float(np.round(rng.uniform(0.2, 1.0), 2)), float(i) * 20 + float(rng.uniform(-2, 2))) for i in range(3)]
        base = average_precision(match_detections(dets, gts), 3)
        dup = dets + [dets[int(rng.integers(0, len(dets)))]]
        duped = average_precision(match_detections(dup, gts), 3)
        assert duped <= base + 1e-12


# ---- mAP ----


def test_map_perfect_detection_is_one():
    gts = [[gt(0, 0.0), gt(1, 30.0)], [gt(1, 0.0)]]
    dets = [[det(0, 0.9, 0.0), det(1, 0.85, 30.0)], [det(1, 0.8, 0.0)]]
    out = map50(dets, gts, num_classes=3)
    assert out["map"] == 1.0
    assert out["per_class_ap"] == [1.0, 1.0, None]


def test_map_counts_only_gt_classes_in_the_mean():
    gts = [[gt(0, 0.0)]]
    dets = [[det(0, 0.9, 0.0), det(2, 0.8, 40.0)]]  # class 2 has no gt
    out = map50(dets, gts, num_classes=3)
    assert out["per_class_ap"] == [1.0, None, 0.0]
    assert out["map"] == 1.0


def test_dropping_a_class_halves_a_perfect_mean():
    gts = [[gt(0, 0.0), gt(1, 30.0)]]
    both = [[det(0, 0.9, 0.0), det(1, 0.9, 30.0)]]
    only0 = [[det(0, 0.9, 0.0)]]
    assert map50(both, gts, 2)["map"] == 1.0
    assert map50(only0, gts, 2)["map"] == 0.5


def random_scene(rng, num_classes=4, max_images=4):
    """Random gts plus hits, near-misses and spurious detections."""
    images = int(rng.integers(1, max_images + 1))
    gts_all, dets_all = [], []
    for _ in range(images):
        gts, dets = [], []
        for _ in range(int(rng.integers(0, 5))):
            c = int(rng.integers(0, num_classes))
            x = float(np.round(rng.uniform(0, 80), 1))
            y = float(np.round(rng.uniform(0, 80), 1))
            gts.append(gt(c, x, y))
            if rng.uniform() < 0.75:
                dx = float(rng.uniform(0, 8))  # jitter spans match and miss
                dets.append(det(c, float(np.round(rng.uniform(0.1, 1.0), 2)), x + dx, y))
        for _ in range(int(rng.integers(0, 3))):
            dets.append(
                det(
                    int(rng.integers(0, num_classes)),
                    float(np.round(rng.uniform(0.1, 1.0), 2)),
                    float(np.round(rng.uniform(0, 80), 1)),
                    float(np.round(rng.uniform(0, 80), 1)),
                )
            )
        gts_all.append(gts)
        dets_all.append(dets)
    return dets_all, gts_all


def test_map_matches_brute_force_oracle_exactly():
    """300 random scenes; the oracle recomputes matching, AP and the mean
    from scratch and must agree bit for bit."""
    rng = np.random.default_rng(42)
    for case in range(300):
        dets_all, gts_all = random_scene(rng)
        got = map50(dets_all, gts_all, num_classes=4)["map"]
        want = map50_ref(
            [[(d.class_id, d.score, d.box) for d in dets] for dets in dets_all],
            [[(g.class_id, g.box) for g in gts] for gts in gts_all],
            num_classes=4,
        )
        assert got == want, f"case {case}"


def test_map_validates_image_count():
    with pytest.raises(ContractViolation):
        map50([[]], [], 2)


# ---- operating-point precision / recall / F1 ----


def test_prf_hand_fixture_picks_the_best_threshold():
    gts = [[gt(0, 0.0), gt(0, 30.0)]]
    dets = [[det(0, 0.9, 0.0), det(0, 0.8, 60.0), det(0, 0.7, 30.0)]]
    out = detection_prf(dets, gts)
    assert out["threshold"] == 0.7
    assert abs(out["precision"] - 2 / 3) <= 1e-12
    assert out["recall"] == 1.0
    assert abs(out["f1"] - 0.8) <= 1e-12


def test_prf_tie_prefers_the_higher_threshold():
    gts = [[gt(0, 0.0), gt(0, 30.0)]]
    dets = [[
        det(0, 0.9, 0.0),
        det(0, 0.4, 30.0),
        det(0, 0.4, 60.0),
        det(0, 0.4, 90.0),
    ]]
    # F1 is 2/3 both at 0.9 (P 1, R 1/2) and at 0.4 (P 1/2, R 1)
    out = detection_prf(dets, gts)
    assert out["threshold"] == 0.9
    assert abs(out["f1"] - 2 / 3) <= 1e-12


def test_prf_perfect_and_empty():
    gts = [[gt(0, 0.0)]]
    perfect = detection_prf([[det(0, 0.9, 0.0)]], gts)
    assert (perfect["precision"], perfect["recall"], perfect["f1"]) == (1.0, 1.0, 1.0)
    empty = detection_prf([[]], gts)
    assert (empty["precision"], empty["recall"], empty["f1"]) == (0.0, 0.0, 0.0)


def test_prf_never_beats_exhaustive_thresholds():
    rng = np.random.default_rng(9)
    for _ in range(50):
        dets_all, gts_all = random_scene(rng, num_classes=2, max_images=2)
        out = detection_prf(dets_all, gts_all)
        total_gt = sum(len(g) for g in gts_all)
        flat = [pair for dets, gts in zip(dets_all, gts_all) for pair in match_detections(dets, gts)]
        for thr in sorted({d.score for dets in dets_all for d in dets}):
            kept = [pair for pair in flat if pair[0].score >= thr]
            if not kept or total_gt == 0:
                continue
            tp = sum(1 for _, is_tp in kept if is_tp)
            p, r = tp / len(kept), tp / total_gt
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            assert out["f1"] >= f1 - 1e-12


# ---- balancing helpers ----


def test_class_weights_fixtures():
    assert class_weights([10, 10, 10]) == [1.0, 1.0, 1.0]
    w = class_weights([100, 300])
    assert w[0] == 2.0
    assert abs(w[1] - 2 / 3) <= 1e-15
    with pytest.raises(ContractViolation):
        class_weights([5, 0])
    with pytest.raises(ContractViolation):
        class_weights([])


def test_class_weights_identity_holds_in_exact_arithmetic():
    """sum(w_c * n_c) = N as rationals; the float output matches to 1 ulp."""
    rng = np.random.default_rng(10)
    for _ in range(50):
        counts = [int(rng.integers(1, 500)) for _ in range(int(rng.integers(1, 8)))]
        total, k = sum(counts), len(counts)
        exact = [Fraction(total, k * n) for n in counts]
        assert sum(w * n for w, n in zip(exact, counts)) == total
        got = class_weights(counts)
        for g, e in zip(got, exact):
            assert abs(g - float(e)) <= abs(float(e)) * 1e-15


def test_undersample_balanced_input_is_unchanged():
    items = ["a", "b", "c", "d"]
    labels = [0, 1, 0, 1]
    assert undersample(items, labels, seed=3) == items


def test_undersample_reduces_to_minority_count():
    items = list(range(9))
    labels = [0] * 5 + [1] * 2 + [2] * 2
    out = undersample(items, labels, seed=1)
    kept_labels = [labels[i] for i in out]
    assert len(out) == 6
    assert [kept_labels.count(c) for c in (0, 1, 2)] == [2, 2, 2]
    assert out == sorted(out)  # original order preserved
    assert undersample(items, labels, seed=1) == out
    assert any(undersample(items, labels, seed=s) != out for s in range(2, 102))


def test_undersample_validates_inputs():
    with pytest.raises(ContractViolation):
        undersample([1], [0, 1], 0)
    with pytest.raises(ContractViolation):
        undersample([], [], 0)


# ---- report rows ----


def test_metrics_csv_row_formatting():
    assert METRICS_CSV_HEADER.split(",")[0] == "model"
    row = metrics_csv_row("m.glw", acc=None, precision=0.5, recall=1 / 3, f1=0.42,
                          map_50=0.12345, size_mb=4.20832, qsize_mb=None)
    assert row == "m.glw,,0.5000,0.3333,0.4200,0.1235,4.2083,"
    assert len(row.split(",")) == len(METRICS_CSV_HEADER.split(","))


def test_ground_truth_box_validation():
    with pytest.raises(ContractViolation):
        GroundTruthBox(-1, (0.0, 0.0, 1.0, 1.0))
    with pytest.raises(ContractViolation):
        GroundTruthBox(0, (1.0, 0.0, 0.0, 1.0))
