"""Independent naive reference implementations used as test oracles.

Everything here is written as plain loops from the textbook definitions,
deliberately sharing no code with the package. Where a test asserts exact
float equality (NMS sets, AP values), the oracle performs the same
mathematical operations in the same order the contract fixes, but derives
them independently from the documented rules.
"""

import math

import numpy as np


def conv2d_naive(x, weight, bias, stride, padding, groups):
    """Direct 6-loop convolution, float64 accumulation."""
    n, c, h, w = x.shape
    oc, icg, k, _ = weight.shape
    assert icg * groups == c
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    ocg = oc // groups
    for b in range(n):
        for o in range(oc):
            g = o // ocg
            for oy in range(oh):
                for ox in range(ow):
                    acc = float(bias[o])
                    for ic in range(icg):
                        for ky in range(k):
                            for kx in range(k):
                                iy = oy * stride + ky - padding
                                ix = ox * stride + kx - padding
                                if 0 <= iy < h and 0 <= ix < w:
                                    acc += float(x[b, g * icg + ic, iy, ix]) * float(
                                        weight[o, ic, ky, kx]
                                    )
                    out[b, o, oy, ox] = acc
    return out


def conv2d_int_naive(q_in, z_in, q_weight, q_bias, stride, padding, groups):
    """Direct 6-loop integer convolution in Python ints:
    sum (q_in - z_in) * q_w + q_bias, padded cells contributing nothing."""
    n, c, h, w = q_in.shape
    oc, icg, k, _ = q_weight.shape
    assert icg * groups == c
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.int64)
    ocg = oc // groups
    for b in range(n):
        for o in range(oc):
            g = o // ocg
            for oy in range(oh):
                for ox in range(ow):
                    acc = int(q_bias[o])
                    for ic in range(icg):
                        for ky in range(k):
                            for kx in range(k):
                                iy = oy * stride + ky - padding
                                ix = ox * stride + kx - padding
                                if 0 <= iy < h and 0 <= ix < w:
                                    acc += (int(q_in[b, g * icg + ic, iy, ix]) - z_in) * int(
                                        q_weight[o, ic, ky, kx]
                                    )
                    out[b, o, oy, ox] = acc
    return out


def pool_naive(x, kind, kernel, stride, padding):
    """Direct pooling loops; max pads with -inf, avg divides by valid cells."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    vals = []
                    for ky in range(kernel):
                        for kx in range(kernel):
                            iy = oy * stride + ky - padding
                            ix = ox * stride + kx - padding
                            if 0 <= iy < h and 0 <= ix < w:
                                vals.append(float(x[b, ch, iy, ix]))
                    if kind == "max":
                        out[b, ch, oy, ox] = max(vals) if vals else -math.inf
                    else:
                        out[b, ch, oy, ox] = math.fsum(vals) / len(vals)
    return out


def maxpool_scan(x, kernel, stride, padding, fill):
    """Max pool as one np.maximum(running, window) step per kernel cell, in
    row-major window order, over x padded with fill: on ties np.maximum
    returns its second argument, so the last tied cell of the scan wins."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), constant_values=fill)
    out = None
    for ky in range(kernel):
        for kx in range(kernel):
            sl = padded[:, :, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride]
            out = sl.copy() if out is None else np.maximum(out, sl)
    return out


def sigmoid64_masked(z):
    """Two-branch stable sigmoid on float64: 1 / (1 + exp(-z)) where z >= 0,
    exp(z) / (1 + exp(z)) elsewhere, each branch on its masked subset."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fsum_along(a, axis):
    """math.fsum of each row along `axis`, one Python call per row."""
    rows = np.moveaxis(np.asarray(a), axis, -1)
    out = np.empty(rows.shape[:-1], dtype=np.float64)
    for idx in np.ndindex(out.shape):
        out[idx] = math.fsum(float(v) for v in rows[idx])
    return out


def batchnorm_naive(x, gamma, beta, mean, var, eps):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h, w), dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            scale = float(gamma[ch]) / math.sqrt(float(var[ch]) + eps)
            for y in range(h):
                for xx in range(w):
                    out[b, ch, y, xx] = scale * (float(x[b, ch, y, xx]) - float(mean[ch])) + float(
                        beta[ch]
                    )
    return out


def iou_ref(a, b):
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    iw, ih = max(0.0, ix2 - ix1), max(0.0, iy2 - iy1)
    inter = iw * ih
    if inter <= 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def nms_ref(dets, iou_threshold):
    """O(n^2) greedy suppression from the documented rule.

    dets: list of (class_id, score, (x1, y1, x2, y2)). Returns the kept
    subset in (score desc, class asc, x1 asc, y1 asc) order. Overlap
    strictly above the threshold suppresses; equality survives.
    """
    order = sorted(dets, key=lambda d: (-d[1], d[0], d[2][0], d[2][1]))
    kept = []
    for cand in order:
        suppressed = False
        for k in kept:
            if k[0] == cand[0] and iou_ref(k[2], cand[2]) > iou_threshold:
                suppressed = True
                break
        if not suppressed:
            kept.append(cand)
    return kept


def match_ref(dets, gts, iou_thr):
    """Greedy matcher: (class_id, score, box) dets vs (class_id, box) gts."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], dets[i][0], dets[i][2][0], dets[i][2][1]))
    used = [False] * len(gts)
    flags = []
    for i in order:
        cls, score, box = dets[i]
        best_iou, best = 0.0, -1
        for gi, (gcls, gbox) in enumerate(gts):
            if used[gi] or gcls != cls:
                continue
            ov = iou_ref(box, gbox)
            if ov >= iou_thr and ov > best_iou:
                best_iou, best = ov, gi
        if best >= 0:
            used[best] = True
            flags.append((cls, score, box, True))
        else:
            flags.append((cls, score, box, False))
    return flags


def ap_ref(flags, num_gt):
    """All-point interpolated AP from (class, score, box, tp) tuples."""
    if num_gt == 0 or not flags:
        return 0.0
    order = sorted(flags, key=lambda f: (-f[1], f[0], f[2][0], f[2][1]))
    precisions, recalls = [], []
    tp = 0
    for i, f in enumerate(order):
        if f[3]:
            tp += 1
        precisions.append(tp / (i + 1))
        recalls.append(tp / num_gt)
    env = list(precisions)
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])
    ap = 0.0
    prev = 0.0
    for i in range(len(order)):
        if recalls[i] > prev:
            ap += (recalls[i] - prev) * env[i]
            prev = recalls[i]
    return ap


def map50_ref(dets_per_image, gts_per_image, num_classes, iou_thr=0.5):
    """Mean AP over classes present in GT; inputs are plain tuples."""
    matched = []
    for dets, gts in zip(dets_per_image, gts_per_image):
        matched.extend(match_ref(dets, gts, iou_thr))
    aps = []
    for c in range(num_classes):
        num_gt = sum(1 for gts in gts_per_image for g in gts if g[0] == c)
        if num_gt == 0:
            continue
        flags_c = [f for f in matched if f[0] == c]
        aps.append(ap_ref(flags_c, num_gt))
    return sum(aps) / len(aps) if aps else 0.0
