"""Quantization tests: grid math fixtures, exact-accumulation oracles, and
the end-to-end fold/calibrate/quantize pipeline on a small build."""

import hashlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from greenlite import (
    CalibrationCoverageError,
    ContainerError,
    ContractViolation,
    ConvSpec,
    DegenerateRangeError,
    Layer,
    ModelGraph,
    QuantizedModel,
    QuantizedTensor,
    QuantParams,
    Tensor,
    build_model,
    calibrate,
    cbam_forward,
    choose_params,
    dequantize,
    dequantize_array,
    fold_batchnorm,
    format_reduction,
    forward,
    forward_quantized,
    load_any,
    load_quantized,
    quantize_array,
    quantize_model,
    quantize_tensor,
    quantized_conv2d,
    round_half_away,
    save_model_bytes,
    save_quantized,
    weight_params,
)
from greenlite import container as container_io
from greenlite.container import read_container, write_container
from greenlite.tensor import ACTIVATIONS
from greenlite.quant import (
    INPUT_SLOT,
    QConvSpec,
    _affine_codes,
    _apply_lut,
    _bind_conv,
    _bind_quantizer,
    _code_table,
    _conv_step,
    _maxpool_int8,
    _pointwise_lut,
    _proves_conv_affine,
    _quantize_step,
    _regrid_table,
    _requantize,
    save_quantized_bytes,
    slot_key,
)

from _oracles import conv2d_int_naive, conv2d_naive, pool_naive
from conftest import load_tensors


def tiny_model(num_classes=2):
    return build_model(num_classes, width_multiple=0.0625, input_size=64)


def tiny_images(count, seed=0):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)) for _ in range(count)]


# ---- rounding ----


def test_round_half_away_fixtures():
    pairs = [(0.5, 1), (-0.5, -1), (1.5, 2), (2.5, 3), (-2.5, -3), (0.49, 0), (-1.4, -1),
             (0.49999999999999994, 0), (-0.49999999999999994, 0), (2.0**52 + 1, 2**52 + 1)]
    for x, want in pairs:
        assert round_half_away(x) == want
    got = round_half_away(np.array([0.5, -0.5, 2.5]))
    assert np.array_equal(got, [1.0, -1.0, 3.0])


def test_round_half_away_matches_rational_oracle():
    rng = np.random.default_rng(11)
    for _ in range(500):
        x = float(np.round(rng.uniform(-30, 30), 4))
        f = Fraction(x)
        frac = abs(f) - Fraction(int(abs(f)))
        mag = int(abs(f)) + (1 if frac >= Fraction(1, 2) else 0)
        want = mag if x >= 0 else -mag
        assert round_half_away(x) == want, x


# ---- parameter selection ----


def test_choose_params_affine_fixture():
    p = choose_params(0.0, 2.55)
    assert abs(p.scale - 0.01) <= 1e-15
    assert p.zero_point == -128
    # real zero sits exactly on the grid
    assert dequantize_array(np.array([-128], dtype=np.int8), p)[0] == 0.0


def test_choose_params_widens_one_sided_ranges_to_zero():
    p = choose_params(1.0, 2.0)
    assert p.scale == 2.0 / 255.0
    assert p.zero_point == -128
    n = choose_params(-3.0, -1.0)
    assert n.scale == 3.0 / 255.0
    assert n.zero_point == 127


def test_choose_params_zero_is_always_on_the_grid():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a, b = sorted(rng.uniform(-10, 10, 2))
        if a == b == 0.0:
            continue
        p = choose_params(float(a), float(b))
        q0 = quantize_array(np.array([0.0]), p)
        assert dequantize_array(q0, p)[0] == 0.0


def test_choose_params_degenerate_range_raises():
    with pytest.raises(DegenerateRangeError):
        choose_params(0.0, 0.0)
    with pytest.raises(ContractViolation):
        choose_params(2.0, 1.0)


def test_quant_params_validation():
    with pytest.raises(ContractViolation):
        QuantParams(0.0, 0)
    with pytest.raises(ContractViolation):
        QuantParams(0.1, 300)
    with pytest.raises(ContractViolation):
        QuantParams(np.array([0.1, 0.2]), 1)
    with pytest.raises(ContractViolation):
        QuantParams(2.0**130, 0)


@pytest.mark.parametrize("channels", [1, 2])
def test_a_quantized_tensor_refuses_per_channel_params(channels):
    """Weight params are per channel even with one channel; an activation's grid is one scale."""
    wp = weight_params(np.ones((channels, 1, 1, 1), dtype=np.float32))
    with pytest.raises(ContractViolation, match="activation tensors use per-tensor params"):
        QuantizedTensor(np.zeros((1, channels, 1, 1), dtype=np.int8), wp)


# ---- quantize / dequantize ----


def unit_params(scale=0.1, zp=0):
    return QuantParams(scale, zp)


def test_quantize_fixtures():
    p = unit_params(0.1, 0)
    assert quantize_array(np.array([1.234]), p)[0] == 12
    assert quantize_array(np.array([1.25]), p)[0] == 13  # tie rounds away from zero
    assert quantize_array(np.array([-1.25]), p)[0] == -13
    assert quantize_array(np.array([99.0]), p)[0] == 127  # saturates
    zp = unit_params(0.05, 7)
    assert np.all(quantize_array(np.zeros(10), zp) == 7)


def test_round_trip_error_is_at_most_half_a_step():
    # the 1e-6 slack covers the float32 cast of the dequantized values
    p = choose_params(-3.0, 5.0)
    xs = np.linspace(-3.0, 5.0, 4001)
    err = np.abs(xs - dequantize_array(quantize_array(xs, p), p).astype(np.float64))
    assert np.max(err) <= p.scale / 2 + 1e-6


def test_grid_points_survive_the_round_trip_exactly():
    for p in (choose_params(-3.0, 5.0), unit_params(0.25, -5), choose_params(0.0, 1.0)):
        q = np.arange(-128, 128, dtype=np.int8)
        x = dequantize_array(q, p)
        assert np.array_equal(quantize_array(x, p), q)


def test_quantization_is_monotone():
    rng = np.random.default_rng(13)
    p = choose_params(-4.0, 4.0)
    xs = np.sort(rng.uniform(-5, 5, 300))
    qs = quantize_array(xs, p).astype(np.int32)
    assert np.all(np.diff(qs) >= 0)


def test_weight_params_per_channel():
    rng = np.random.default_rng(14)
    w = rng.uniform(-1, 1, (5, 3, 3, 3)).astype(np.float32)
    w[2] = 0.0  # an all-zero output channel must not break the scale
    p = weight_params(w)
    assert isinstance(p.scale, np.ndarray) and p.zero_point == 0
    for c in range(5):
        m = float(np.max(np.abs(w[c].astype(np.float64))))
        assert p.scale[c] == (m / 127.0 if m > 0 else 1.0)
    q = quantize_array(w, p)
    assert np.all(q[2] == 0)
    back = dequantize_array(q, p).astype(np.float64)
    for c in range(5):
        assert np.max(np.abs(back[c] - w[c].astype(np.float64))) <= p.scale[c] / 2 + 1e-12


def test_quantized_tensor_validation():
    p = unit_params()
    with pytest.raises(ContractViolation):
        QuantizedTensor(np.zeros((2, 2), dtype=np.int8), p)
    per_channel = weight_params(np.ones((2, 1, 1, 1), dtype=np.float32))
    with pytest.raises(ContractViolation):
        QuantizedTensor(np.zeros((1, 2, 1, 1), dtype=np.int8), per_channel)


def test_tensor_round_trip_wrappers():
    rng = np.random.default_rng(15)
    x = Tensor(rng.uniform(-2, 2, (1, 3, 5, 5)).astype(np.float32))
    p = choose_params(-2.0, 2.0)
    back = dequantize(quantize_tensor(x, p))
    assert np.max(np.abs(back.arr - x.arr)) <= p.scale / 2 + 1e-6


# ---- integer convolution ----


def int_conv_acc(q_in, z_in, q_w, q_b, stride, padding, groups):
    """The exact integer accumulator QConvSpec builds for codes on zero point z_in."""
    spec = QConvSpec(q_w, np.ones(len(q_w)), q_b, stride, padding, groups)
    return spec.accumulator(z_in)[0](q_in)


def test_integer_accumulator_is_exact():
    """float64 matmul accumulation must equal the pure integer loop."""
    rng = np.random.default_rng(16)
    for case in range(30):
        groups = int(rng.choice([1, 2]))
        c = groups * int(rng.integers(1, 4))
        oc = groups * int(rng.integers(1, 4))
        k = int(rng.choice([1, 3]))
        z = int(rng.integers(-40, 40))
        q_in = rng.integers(-128, 128, (1, c, 6, 6), dtype=np.int8)
        q_w = rng.integers(-127, 128, (oc, c // groups, k, k), dtype=np.int8)
        q_b = rng.integers(-(2**20), 2**20, oc, dtype=np.int32)
        acc = int_conv_acc(q_in, z, q_w, q_b, 1, k // 2, groups)
        want = conv2d_naive(
            q_in.astype(np.float64) - z, q_w.astype(np.float64), q_b.astype(np.float64),
            1, k // 2, groups,
        )
        assert np.array_equal(acc, want), f"case {case}"
        assert np.array_equal(acc, np.round(acc))  # integer-valued bit for bit


def test_integer_accumulator_is_exact_past_the_float32_bound():
    """Odd products summing past 2^24 would lose their low bit in float32."""
    rng = np.random.default_rng(20)
    z = 121
    q_in = np.full((1, 128, 7, 7), z, dtype=np.int8)
    flip = rng.random(q_in.shape) < 0.05
    q_in[flip] = z + rng.integers(-3, 4, int(flip.sum()))
    q_w = rng.integers(-127, 128, (2, 128, 3, 3), dtype=np.int8)
    q_w[0] = 127
    q_b = np.array([12345, -678], dtype=np.int32)
    acc = int_conv_acc(q_in, z, q_w, q_b, 1, 1, 1)
    assert np.array_equal(acc, conv2d_int_naive(q_in, z, q_w, q_b, 1, 1, 1))
    assert 128 * int(np.abs(q_w[0].astype(np.int64)).sum()) >= 2**24


@pytest.mark.parametrize(
    "q_w_shape, q_b_len, geometry, match",
    [
        ((2, 3, 3), 2, (1, 0, 1), "conv weight must be 4-d, got ndim=3"),
        ((2, 3, 3, 1), 2, (1, 0, 1), "conv kernels must be square, got 3x1"),
        ((2, 3, 3, 3), 3, (1, 0, 1), r"conv bias must have shape \(2,\), got \(3,\)"),
        ((2, 3, 3, 3), 2, (1, 0, 3), "groups must divide out_channels"),
        ((2, 3, 3, 3), 2, (0, 0, 1), "stride must be >= 1"),
        ((2, 3, 3, 3), 2, (1, -1, 1), "padding >= 0"),
    ],
    ids=["weight-3-d", "kernel-3x1", "bias-length-3", "groups-3", "stride-0", "padding-minus-1"],
)
def test_qconv_spec_checks_the_float_conv_geometry(q_w_shape, q_b_len, geometry, match):
    """QConvSpec and ConvSpec share one shape check, conv_geometry."""
    with pytest.raises(ContractViolation, match=match):
        QConvSpec(np.zeros(q_w_shape, np.int8), np.ones(2), np.zeros(q_b_len, np.int32), *geometry)
    with pytest.raises(ContractViolation, match=match):
        ConvSpec(np.zeros(q_w_shape, np.float32), np.zeros(q_b_len, np.float32), *geometry)


def test_quantized_conv_zero_weights_yield_zero_point():
    p_in = choose_params(-1.0, 1.0)
    x = QuantizedTensor(np.full((1, 2, 4, 4), 37, dtype=np.int8), p_in)
    spec = QConvSpec(
        np.zeros((3, 2, 3, 3), dtype=np.int8), np.full(3, 0.02), np.zeros(3, dtype=np.int32),
        stride=1, padding=1,
    )
    out_params = choose_params(-1.0, 1.0)
    y = quantized_conv2d(x, spec, out_params)
    assert np.all(y.arr == out_params.zero_point)


def test_quantized_conv_within_one_step_of_float_oracle():
    """Final rounding is the only error once inputs are on the grid."""
    rng = np.random.default_rng(17)
    for case in range(20):
        c, oc, k = 3, 4, 3
        w = rng.uniform(-0.6, 0.6, (oc, c, k, k)).astype(np.float32)
        b = rng.uniform(-0.3, 0.3, oc)
        x = rng.uniform(-1, 1, (1, c, 6, 6)).astype(np.float32)
        in_params = choose_params(float(x.min()), float(x.max()))
        w_params = weight_params(w)
        q_in = quantize_array(x, in_params)
        q_w = quantize_array(w, w_params)
        s_bias = in_params.scale * w_params.scale
        q_b = round_half_away(b / s_bias).astype(np.int32)
        # the float oracle sees exactly what the integer path sees
        dq_in = dequantize_array(q_in, in_params).astype(np.float64)
        dq_w = dequantize_array(q_w, w_params).astype(np.float64)
        acc = conv2d_naive(dq_in, dq_w, q_b.astype(np.float64) * s_bias, 1, 1, 1)
        out_params = choose_params(float(acc.min()), float(acc.max()))
        got = quantized_conv2d(
            QuantizedTensor(q_in, in_params),
            QConvSpec(q_w, w_params.scale, q_b, 1, 1, 1),
            out_params,
        )
        err = np.abs(dequantize_array(got.arr, out_params).astype(np.float64) - acc)
        assert np.max(err) <= out_params.scale * 0.5 + 1e-9, f"case {case}"


def test_quantized_conv_requant_matches_exact_integer_oracle():
    """Output codes equal clip(round_half_away(acc * m) + zp, -128, 127), with
    acc from Python-int loops and m = s_in * s_w_c / s_out, on both
    accumulator dtypes, groups 1 and 2, z_in padding and saturation."""
    rng = np.random.default_rng(19)
    seen = {"f32": 0, "f64": 0, "lo": 0, "hi": 0, "padded": 0}
    for case in range(24):
        groups = 1 + case % 2
        c = groups * int(rng.integers(1, 4))
        oc = groups * int(rng.integers(1, 4))
        k = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        padding = k // 2
        z_in = int(rng.choice([-1, 1])) * int(rng.integers(1, 100))
        q_in = rng.integers(-128, 128, (1, c, 7, 7), dtype=np.int8)
        q_w = rng.integers(-127, 128, (oc, c // groups, k, k), dtype=np.int8)
        q_b = rng.integers(-5000, 5000, oc).astype(np.int32)
        if case % 3 == 0:
            q_b[0] = 2**25 + int(rng.integers(0, 1000))  # past the float32 bound
        acc = conv2d_int_naive(q_in, z_in, q_w, q_b, stride, padding, groups)
        # Each channel's largest |acc| lands at 75..300 steps: both ends saturate.
        w_scale = rng.uniform(0.5, 2.0, oc) / np.maximum(1, np.abs(acc).max(axis=(0, 2, 3)))
        in_params = QuantParams(0.05, z_in)
        z_out = int(rng.integers(-20, 21))
        out_params = QuantParams(0.05 / 150, z_out)
        got = quantized_conv2d(
            QuantizedTensor(q_in, in_params),
            QConvSpec(q_w, w_scale, q_b, stride, padding, groups),
            out_params,
        )
        m = (in_params.scale * w_scale / out_params.scale).reshape(1, -1, 1, 1)
        want = np.clip(round_half_away(acc.astype(np.float64) * m) + z_out, -128, 127)
        assert np.array_equal(got.arr, want.astype(np.int8)), f"case {case}"

        w_flat = q_w.reshape(oc, -1).astype(np.int64)
        bias = q_b.astype(np.int64) - z_in * w_flat.sum(axis=1)
        over = np.max(128 * np.abs(w_flat).sum(axis=1) + np.abs(bias)) >= 2**24
        seen["f64" if over else "f32"] += 1
        seen["lo"] += int(np.any(got.arr == -128))
        seen["hi"] += int(np.any(got.arr == 127))
        seen["padded"] += padding > 0
    assert min(seen.values()) > 0, seen


def test_forward_plans_each_model_once(tmp_path, monkeypatch):
    """Conv specs are built at load and LUTs by the first forward only, for a
    quantized and a loaded model alike; later forwards reuse them and repeat
    bit for bit."""
    import greenlite.quant as quant

    m = tiny_model()
    qm = quantize_model(m, calibrate(m, tiny_images(3)))
    path = tmp_path / "m.q.glw"
    save_quantized(qm, path)
    x, y = tiny_images(2, seed=9)
    for model in (qm, load_quantized(path)):
        first = forward_quantized(model, x).arr.tobytes()
        calls = {"lut": 0, "spec": 0}
        real_lut, real_spec = quant._pointwise_lut, quant.QConvSpec

        def counted_lut(*args):
            calls["lut"] += 1
            return real_lut(*args)

        def counted_spec(*args, **kwargs):
            calls["spec"] += 1
            return real_spec(*args, **kwargs)

        monkeypatch.setattr(quant, "_pointwise_lut", counted_lut)
        monkeypatch.setattr(quant, "QConvSpec", counted_spec)
        assert forward_quantized(model, x).arr.tobytes() == first
        forward_quantized(model, y)
        assert calls == {"lut": 0, "spec": 0}
        monkeypatch.undo()


def test_lut_matches_pointwise_definition_on_all_256_codes():
    in_p = choose_params(-4.0, 4.0)
    out_p = choose_params(-1.0, 1.0)
    for name, fn in (("silu", lambda v: v / (1 + np.exp(-v))), ("identity", lambda v: v)):
        lut = _pointwise_lut(in_p, out_p, ACTIVATIONS[name])
        for code in range(-128, 128):
            x = in_p.scale * (code - in_p.zero_point)
            want = int(np.clip(round_half_away(fn(x) / out_p.scale) + out_p.zero_point, -128, 127))
            assert lut[code + 128] == want, (name, code)


def test_requant_same_grid_is_a_passthrough():
    p = choose_params(-1.0, 1.0)
    q = QuantizedTensor(np.zeros((1, 1, 2, 2), dtype=np.int8), p)
    same = QuantParams(p.scale, p.zero_point)
    assert _apply_lut(q, _regrid_table(q.params, same), same) is q


def test_requant_between_grids_is_exact_per_code():
    a = choose_params(-2.0, 2.0)
    b = choose_params(-1.0, 3.0)
    codes = np.arange(-128, 128, dtype=np.int8).reshape(1, 1, 16, 16)
    out = _apply_lut(QuantizedTensor(codes, a), _regrid_table(a, b), b)
    x = a.scale * (codes.astype(np.float64) - a.zero_point)
    want = np.clip(round_half_away(x / b.scale) + b.zero_point, -128, 127)
    assert np.array_equal(out.arr, want.astype(np.int8))


def test_code_table_translate_equals_np_take_on_all_256_codes():
    """bytearray.translate through the 256-byte code table gives np.take's
    codes over the v + 128 table, in a fresh writable array."""
    rng = np.random.default_rng(19)
    p = choose_params(-1.0, 1.0)
    codes = np.arange(-128, 128, dtype=np.int8).reshape(1, 4, 8, 8)
    q = QuantizedTensor(codes, p)
    for _ in range(20):
        lut = rng.integers(-128, 128, 256, dtype=np.int8)
        out = _apply_lut(q, _code_table(lut), p)
        want = np.take(lut, codes.astype(np.intp) + 128)
        assert out.arr.dtype == np.int8 and out.arr.shape == codes.shape
        assert out.arr.tobytes() == want.tobytes()
        assert out.arr.flags.writeable and not np.shares_memory(out.arr, codes)
    assert np.array_equal(q.arr, np.arange(-128, 128).reshape(1, 4, 8, 8))


def test_int8_maxpool_commutes_with_dequantization():
    rng = np.random.default_rng(18)
    p = choose_params(-1.0, 1.0)
    for _ in range(20):
        q = QuantizedTensor(rng.integers(-128, 128, (1, 2, 6, 6), dtype=np.int8), p)
        got = dequantize(_maxpool_int8(q, 5, 1, 2)).arr.astype(np.float64)
        want = pool_naive(dequantize(q).arr, "max", 5, 1, 2)
        assert np.array_equal(got, want)


# ---- planned requantization ----


def code_map(step):
    """The code map (_affine_codes or _requantize) a bound conv or quantizer step applies."""
    (codes,) = [a.func for a in step.args if getattr(a, "func", None) in (_affine_codes, _requantize)]
    return codes


def exact_codes(t, zp):
    """The exact rule, clip(round_half_away(t) + zp, -128, 127), on float64 t."""
    return np.clip(round_half_away(t) + zp, -128, 127).astype(np.int8)


def first_reaching(g, lo, hi, levels):
    """Per level, the least integer key in [lo, hi] whose code under the
    monotone map g reaches it (hi + 1 where none does), by bisection."""
    lo = np.broadcast_to(lo, levels.shape).astype(np.int64)
    hi = np.broadcast_to(hi, levels.shape).astype(np.int64) + 1
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        up = g(np.minimum(mid, hi - 1)) >= levels
        hi = np.where((lo < hi) & up, mid, hi)
        lo = np.where((lo < hi) & ~up, mid + 1, lo)
    return lo


def test_proven_conv_map_equals_the_exact_rule_on_breakpoints_and_bounds():
    """Seeded sweep over multipliers, zero points and accumulator bounds:
    wherever the plan-time check passes, the affine map gives the exact
    rule's codes one below, at and one above every breakpoint (found by
    bisection on the exact rule), at +-bound and on random accumulators."""
    rng = np.random.default_rng(23)
    levels = np.arange(-127, 128)
    proved = 0
    for case in range(40):
        m = np.float64(10.0 ** rng.uniform(-7, 0.5)) * rng.uniform(1, 2)
        zp = int(rng.integers(-128, 128))
        bound = int(rng.choice([0, 1, 300, 2**20, 2**31 + 12345]))
        if not _proves_conv_affine(np.array([m]), zp, np.array([bound])):
            continue
        proved += 1
        t = first_reaching(lambda a: exact_codes(a * m, zp), -bound, bound, levels)
        acc = np.concatenate([t - 1, t, t + 1, [-bound, bound], rng.integers(-bound, bound + 1, 2000)])
        acc = np.clip(acc, -bound, bound).astype(np.float64)
        got = _affine_codes(acc * m, np.float64(zp) + 128.5)
        assert np.array_equal(got, exact_codes(acc * m, zp)), f"case {case}"
    assert proved >= 35


def f32_key(x):
    """float32 -> integer key in the floats' order (-0.0 and +0.0 share 0)."""
    bits = np.asarray(x, dtype=np.float32).view(np.int32).astype(np.int64)
    return np.where(bits < 0, -(bits & 0x7FFFFFFF), bits)


def f32_of(key):
    bits = np.where(key < 0, (-key) | 0x80000000, key)
    return bits.astype(np.uint32).view(np.float32)


def test_proven_quantizer_equals_quantize_array_on_breakpoints_and_infinities():
    """The same sweep for float32 inputs over random grids: the bound
    quantizer equals quantize_array one float32 below, at and above every
    breakpoint, at +-inf, +-0, the float32 extremes and on random inputs."""
    rng = np.random.default_rng(24)
    levels = np.arange(-127, 128)
    inf = np.float32(np.inf)
    proved = 0
    for case in range(40):
        lo, hi = sorted(rng.uniform(-1, 1, 2) * 10.0 ** rng.uniform(-4, 4))
        params = choose_params(float(lo), float(hi))
        quantize = _bind_quantizer(params)
        if code_map(quantize) is not _affine_codes:
            continue
        proved += 1
        t = first_reaching(
            lambda k: quantize_array(f32_of(k), params), f32_key(-inf), f32_key(inf), levels
        )
        keys = np.clip(np.concatenate([t - 1, t, t + 1]), f32_key(-inf), f32_key(inf))
        x = np.concatenate([
            f32_of(keys),
            np.array([-inf, inf, -0.0, 0.0, np.finfo(np.float32).max, np.finfo(np.float32).min]),
            rng.uniform(2 * lo, 2 * hi, 2000),
        ]).astype(np.float32)
        got = quantize(Tensor(x.reshape(1, 1, 1, -1))).arr.ravel()
        assert np.array_equal(got, quantize_array(x, params)), f"case {case}"
    assert proved >= 30


def test_the_input_quantizer_is_proven_on_every_letterbox_grid():
    """Letterboxed inputs are the bytes b / 255 in float32, pad 114 included,
    so a calibration's input grid is choose_params(0, b / 255) for its
    largest byte b. On each of the 255 grids the bound quantizer takes the
    affine map and equals quantize_array on all 256 byte values."""
    x = np.arange(256, dtype=np.float32) / np.float32(255)
    for b in range(1, 256):
        params = choose_params(0.0, float(np.float32(b) / np.float32(255)))
        quantize = _bind_quantizer(params)
        assert code_map(quantize) is _affine_codes, f"max byte {b}"
        got = quantize(Tensor(x.reshape(1, 1, 1, -1))).arr.ravel()
        assert np.array_equal(got, quantize_array(x, params)), f"max byte {b}"


def test_ties_fail_the_check_and_keep_the_exact_rule():
    """m = 0.5 puts acc = -1, -3, ... on negative ties, which the affine map
    rounds towards zero: the check fails, the plan binds the exact kernel and
    the codes match the integer oracle."""
    one = QuantParams(1.0, 0)
    k = np.float64(128.5)
    assert _affine_codes(np.array([-0.5]), k)[0] != exact_codes(np.array([-0.5]), 0)[0]
    assert not _proves_conv_affine(np.array([0.5]), 0, np.array([1000]))
    rng = np.random.default_rng(25)
    q_in = rng.integers(-128, 128, (1, 3, 5, 5), dtype=np.int8)
    q_w = rng.integers(-3, 4, (4, 3, 3, 3), dtype=np.int8)
    q_b = rng.integers(-50, 50, 4).astype(np.int32)
    spec = QConvSpec(q_w, np.full(4, 0.5), q_b, 1, 1)
    step = _bind_conv(spec, one, one)
    assert step.func is _conv_step and code_map(step) is _requantize
    acc = conv2d_int_naive(q_in, 0, q_w, q_b, 1, 1, 1)
    assert np.any(acc % 2 == 1) and np.any(acc < 0)
    got = step(QuantizedTensor(q_in, one))
    assert np.array_equal(got.arr, exact_codes(acc * 0.5, 0))
    # A grid where some float32 input lands on a negative tie keeps the exact quantizer.
    quantize = _bind_quantizer(one)
    assert quantize.func is _quantize_step and code_map(quantize) is _requantize


@pytest.mark.parametrize("params", [choose_params(-1.0, 3.0), QuantParams(1.0, 0)])
def test_quantizing_nan_is_a_contract_violation(params):
    """Both bound quantizers (proven, and the exact fallback) refuse NaN."""
    x = Tensor(np.array([0.5, np.nan, 1.0], dtype=np.float32).reshape(1, 1, 1, 3))
    with pytest.raises(ContractViolation, match="NaN"):
        _bind_quantizer(params)(x)


def test_quantize_array_refuses_nan():
    """The public kernels refuse NaN too, rather than casting it to a garbage code."""
    with pytest.raises(ContractViolation, match="NaN"):
        quantize_array(np.array([np.nan]), QuantParams(1.0, 0))
    x = Tensor(np.array([0.5, np.nan], dtype=np.float32).reshape(1, 1, 1, 2))
    with pytest.raises(ContractViolation, match="NaN"):
        quantize_tensor(x, QuantParams(1.0, 0))


def test_forward_quantized_rejects_a_nan_input():
    m = tiny_model()
    qm = quantize_model(m, calibrate(m, tiny_images(2)))
    x = tiny_images(1, seed=5)[0]
    x.arr[0, 1, 2, 3] = np.nan
    with pytest.raises(ContractViolation, match="NaN"):
        forward_quantized(qm, x)


@pytest.mark.parametrize("seed, per_stage", [(1, False), (42, False), (42, True)])
def test_built_models_take_the_proven_path_and_match_the_exact_plan(seed, per_stage, monkeypatch):
    """Every conv layer and the input quantizer of the default-size build
    use the proven affine map, so the speed-up cannot silently switch off,
    and the head equals that of a plan with every check failed."""
    import greenlite.quant as quant

    m = build_model(7, seed=seed, cbam_per_stage=per_stage)
    rng = np.random.default_rng(seed)
    images = [Tensor(rng.uniform(0, 1, (1, 3, 320, 320)).astype(np.float32)) for _ in range(3)]
    blob = save_quantized_bytes(quantize_model(m, calibrate(m, images[:2])))
    qm = load_quantized(blob)
    quantize_input, steps = qm.quantize_input, qm.steps
    assert quantize_input.func is _quantize_step and code_map(quantize_input) is _affine_codes
    convs = [steps[i].run for i, layer in enumerate(qm.layers) if layer.kind == "conv"]
    assert len(convs) >= 25
    assert all(getattr(run, "func", None) is _conv_step and code_map(run) is _affine_codes
               for run in convs)
    head = forward_quantized(qm, images[2]).arr.tobytes()

    monkeypatch.setattr(quant, "_proves_conv_affine", lambda *args: False)
    monkeypatch.setattr(quant, "_proves_quantizer_affine", lambda *args: False)
    exact = load_quantized(blob)
    assert all(step.run.func is _conv_step and code_map(step.run) is _requantize
               for step, layer in zip(exact.steps, exact.layers) if layer.kind == "conv")
    assert forward_quantized(exact, images[2]).arr.tobytes() == head


def literal_layer(qm, idx, layer, inputs):
    """One int8 layer through the public kernels and plain np.take over the
    v + 128 tables, with nothing bound or proven."""
    out_params = qm.act_params.get(slot_key(idx))
    in_params = inputs[0].params
    attrs = layer.attrs

    def regrid(q, params, fn=ACTIVATIONS["identity"]):
        return np.take(_pointwise_lut(q.params, params, fn), q.arr.astype(np.intp) + 128)

    if layer.kind in ("conv", "detect_head"):
        w = qm.conv_weights[layer.slot]
        geometry = [int(attrs.get(name, d)) for name, d in (("stride", 1), ("padding", 0), ("groups", 1))]
        if layer.kind == "conv":
            spec = QConvSpec(w["q_weight"], w["w_scale"], w["q_bias"], *geometry)
            return quantized_conv2d(inputs[0], spec, out_params).arr
        z_in = in_params.zero_point
        acc = int_conv_acc(inputs[0].arr, z_in, w["q_weight"], w["q_bias"], *geometry)
        return (acc * (in_params.scale * w["w_scale"]).reshape(1, -1, 1, 1)).astype(np.float32)
    if layer.kind == "act":
        return regrid(inputs[0], out_params, ACTIVATIONS[attrs["fn"]])
    if layer.kind == "concat":
        return np.concatenate([regrid(q, out_params) for q in inputs], axis=1)
    if layer.kind == "pool":
        kernel = int(attrs["kernel"])
        pooled = _maxpool_int8(inputs[0], kernel, int(attrs.get("stride", kernel)), int(attrs.get("padding", 0)))
        return regrid(pooled, out_params)
    assert layer.kind == "cbam"
    return quantize_tensor(cbam_forward(dequantize(inputs[0]), qm.cbam_params(layer.slot)), out_params).arr


@pytest.mark.parametrize("seed, per_stage", [(1, False), (42, False), (42, True)])
def test_every_planned_int8_layer_equals_its_literal_kernel(seed, per_stage):
    """forward_quantized's hook sees every layer output; each equals the
    literal kernel applied to the hook-captured inputs, byte for byte."""
    m = build_model(7, seed=seed, cbam_per_stage=per_stage)
    rng = np.random.default_rng(seed + 7)
    images = [Tensor(rng.uniform(0, 1, (1, 3, 320, 320)).astype(np.float32)) for _ in range(3)]
    qm = load_quantized(save_quantized_bytes(quantize_model(m, calibrate(m, images[:2]))))
    outputs = {-1: quantize_tensor(images[2], qm.act_params[INPUT_SLOT])}
    head = forward_quantized(qm, images[2], hook=lambda idx, out: outputs.setdefault(idx, out))
    assert sorted(outputs) == list(range(-1, len(qm.layers)))
    assert outputs[len(qm.layers) - 1] is head
    kinds = set()
    for idx, layer in enumerate(qm.layers):
        want = literal_layer(qm, idx, layer, [outputs[ref] for ref in layer.inputs])
        got = outputs[idx].arr
        assert got.dtype == want.dtype and got.shape == want.shape, (idx, layer.kind)
        assert got.tobytes() == want.tobytes(), (idx, layer.kind)
        kinds.add(layer.kind)
    assert kinds == {"conv", "act", "concat", "pool", "cbam", "detect_head"}


# ---- calibration ----


def test_calibrate_records_every_slot_once_per_image():
    """Each slot's range over 3 images is the min of the mins and the max of
    the maxes of its single-image ranges."""
    m = tiny_model()
    images = tiny_images(3)
    ranges = calibrate(m, images)
    assert set(ranges) == {INPUT_SLOT, *(slot_key(i) for i in range(len(m.layers)))}
    singles = [calibrate(m, [img]) for img in images]
    for key, (lo, hi) in ranges.items():
        assert type(lo) is float and type(hi) is float
        assert lo == min(r[key][0] for r in singles)
        assert hi == max(r[key][1] for r in singles)
        assert lo <= hi


def test_calibrate_ranges_are_the_forward_outputs_extremes():
    """Ranges built here from forward's hook outputs (plus the input) are
    calibrate's, from a list or a one-shot iterator, and quantize_model
    writes the same container from either dict."""
    m = tiny_model()
    images = tiny_images(3, seed=4)
    seen: dict[str, list[np.ndarray]] = {}
    for img in images:
        seen.setdefault(INPUT_SLOT, []).append(img.arr.ravel())
        forward(m, img, hook=lambda idx, out: seen.setdefault(slot_key(idx), []).append(out.arr.ravel()))
    by_hand = {key: (float(np.concatenate(a).min()), float(np.concatenate(a).max())) for key, a in seen.items()}
    ranges = calibrate(m, images)
    assert ranges == by_hand
    assert calibrate(m, iter(images)) == ranges
    assert save_quantized_bytes(quantize_model(m, by_hand)) == save_quantized_bytes(quantize_model(m, ranges))


def test_calibrate_requires_at_least_one_image():
    with pytest.raises(ContractViolation):
        calibrate(tiny_model(), [])


# ---- batch norm folding ----


def test_folding_removes_bn_and_preserves_the_function():
    m = tiny_model()
    folded, stats_keys = fold_batchnorm(m)
    assert sum(1 for l in folded.layers if l.kind == "bn") == 0
    assert len(stats_keys) == len(folded.layers)
    x = tiny_images(1, seed=9)[0]
    a = forward(m, x).arr.astype(np.float64)
    b = forward(folded, x).arr.astype(np.float64)
    assert np.max(np.abs(a - b)) <= 1e-4


def test_folded_layers_keep_their_original_calibration_keys():
    m = tiny_model()
    ranges = calibrate(m, tiny_images(2))
    folded, stats_keys = fold_batchnorm(m)
    assert len(set(stats_keys)) == len(stats_keys)
    for key in stats_keys:
        assert key in ranges  # every folded slot can be calibrated


def test_folding_shares_every_array_it_does_not_fold():
    """The folded graph's CBAM and head arrays are the source model's own
    arrays; a folded conv gets new ones and leaves the source's unchanged."""
    m = tiny_model()
    folded, _ = fold_batchnorm(m)
    for slot in ("cbam", "head"):
        for name, arr in folded.weights[slot].items():
            assert arr is m.weights[slot][name], (slot, name)
    assert folded.weights["stem.conv"]["weight"] is not m.weights["stem.conv"]["weight"]
    assert np.array_equal(m.weights["stem.conv"]["weight"], tiny_model().weights["stem.conv"]["weight"])


# ---- model quantization ----


def test_quantize_model_is_deterministic_and_round_trips(tmp_path):
    m = tiny_model()
    stats = calibrate(m, tiny_images(4))
    qm1 = quantize_model(m, stats)
    qm2 = quantize_model(m, stats)
    blob1 = save_quantized_bytes(qm1)
    assert blob1 == save_quantized_bytes(qm2)
    path = tmp_path / "m.q.glw"
    written = save_quantized(qm1, path)
    assert written == path.stat().st_size == len(blob1) == len(save_quantized_bytes(qm1))
    back = load_quantized(path)
    assert save_quantized_bytes(back) == blob1
    x = tiny_images(1, seed=5)[0]
    assert np.array_equal(forward_quantized(back, x).arr, forward_quantized(qm1, x).arr)


# (build seed, cbam_per_stage) -> sha256 of the int8 container calibrated on the
# first 2 images of the session synth set, and of its head on one seeded input
# after a save/load round trip. Re-pin only with a change that alters int8 bytes.
GOLDEN_INT8 = {
    (1, False): ("9b4e7931a709c1f8287f73680361ff438b811c740184383606d5330be5bfee43",
                 "78ab0cc86b3dd97505a7ed1cedf046c0440759cce212c4a5f3fece29a236e17e"),
    (42, False): ("d416474ad7f29612ce1ead3f7c9da8a83d40017efb5e747ffdc9fcc008bdc212",
                  "f75a8e278dcde10279158ef23aacc6bf8acedbf86b84f3816161960db6e175c2"),
    (42, True): ("bb7c5b4de3ca1d2603005961969af74f6319140ddf20672f1a090f78b130dbe1",
                 "d4ccb72884f83fc3c744ef8fa818c21a3d019e1196fcdf1fc99a8d2b34589446"),
}


def test_int8_containers_and_heads_match_goldens(synth_manifest):
    images = load_tensors(synth_manifest, 2)
    x = Tensor(np.random.default_rng(0).uniform(0.0, 1.0, (1, 3, 320, 320)).astype(np.float32))
    for (seed, per_stage), (container_sha, head_sha) in GOLDEN_INT8.items():
        m = build_model(7, seed=seed, cbam_per_stage=per_stage)
        blob = save_quantized_bytes(quantize_model(m, calibrate(m, images)))
        head = forward_quantized(load_quantized(blob), x).arr.tobytes()
        assert hashlib.sha256(blob).hexdigest() == container_sha, (seed, per_stage)
        assert hashlib.sha256(head).hexdigest() == head_sha, (seed, per_stage)


def test_quantized_forward_tracks_the_float_model():
    m = tiny_model()
    stats = calibrate(m, tiny_images(6, seed=1))
    qm = quantize_model(m, stats)
    x = tiny_images(1, seed=2)[0]
    yq = forward_quantized(qm, x)
    yf = forward(m, x)
    assert isinstance(yq, Tensor)
    assert yq.shape == yf.shape
    assert np.all(np.isfinite(yq.arr))
    rel = np.linalg.norm(yq.arr - yf.arr) / max(np.linalg.norm(yf.arr), 1e-12)
    assert rel <= 0.25


def test_quantize_model_shrinks_the_container():
    m = tiny_model()
    qm = quantize_model(m, calibrate(m, tiny_images(4)))
    assert len(save_quantized_bytes(qm)) < len(save_model_bytes(m))
    assert 0 < qm.param_count() <= m.param_count()


def test_a_head_may_read_a_layer_other_than_a_cbam():
    """The paper's baseline has no CBAM: with the final one removed and the
    head reading the layer before it, the graph calibrates, quantizes, and
    both kinds round-trip through their containers and run."""
    m = tiny_model()
    cbam = len(m.layers) - 2
    assert m.layers[cbam].kind == "cbam"
    head = m.layers[-1]
    layers = [*m.layers[:cbam], Layer(head.kind, (cbam - 1,), head.slot, dict(head.attrs))]
    plain = ModelGraph(layers, {s: w for s, w in m.weights.items() if s != m.layers[cbam].slot}, m.meta)
    images = tiny_images(2, seed=5)
    qm = quantize_model(plain, calibrate(plain, images))
    back = load_any(save_model_bytes(plain))
    qback = load_any(save_quantized_bytes(qm))
    assert isinstance(back, ModelGraph) and isinstance(qback, QuantizedModel)
    assert all(layer.kind != "cbam" for model in (back, qback) for layer in model.layers)
    want = forward(plain, images[0]).arr
    assert want.shape == (1, 6, 2, 2)
    assert np.array_equal(forward(back, images[0]).arr, want)
    got = forward_quantized(qback, images[0]).arr
    assert got.tobytes() == forward_quantized(qm, images[0]).arr.tobytes()
    assert got.shape == want.shape and np.all(np.isfinite(got))


def test_missing_calibration_keys_are_reported_sorted():
    """Only keys the folded graph still needs count as missing."""
    m = tiny_model()
    ranges = calibrate(m, tiny_images(2))
    _, stats_keys = fold_batchnorm(m)
    removed = [INPUT_SLOT, stats_keys[0], stats_keys[2]]
    for key in removed:
        del ranges[key]
    with pytest.raises(CalibrationCoverageError) as exc:
        quantize_model(m, ranges)
    assert exc.value.missing == sorted(exc.value.missing)
    for key in removed:
        assert key in exc.value.missing


@pytest.mark.parametrize(
    "at, inputs, match",
    [
        (15, (8, 9), r"layer 10 \(bn\) cannot be folded: conv 9 is also read by layer 15"),
        (10, (8,), r"layer 10 \(bn\) cannot be folded: it reads layer 8 \(act\), not a conv"),
    ],
    ids=["conv-read-twice", "bn-after-act"],
)
def test_a_bn_that_cannot_be_folded_is_refused_with_its_own_index(at, inputs, match):
    """The float graph runs; fold_batchnorm, and so quantize_model, names the
    bn and the reason by the source graph's indices, not the folded graph's."""
    m = tiny_model()
    layers = list(m.layers)
    layers[at] = replace(layers[at], inputs=inputs)
    edited = ModelGraph(layers, m.weights, m.meta)
    with pytest.raises(ContractViolation, match=match):
        fold_batchnorm(edited)
    stats = calibrate(edited, tiny_images(1))
    with pytest.raises(ContractViolation, match=match):
        quantize_model(edited, stats)


def test_degenerate_input_range_is_rejected():
    m = tiny_model()
    zero = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
    stats = calibrate(m, [zero])
    with pytest.raises(DegenerateRangeError):
        quantize_model(m, stats)


def test_load_any_dispatches_on_container_kind(tmp_path):
    m = tiny_model()
    fpath = tmp_path / "m.glw"
    fpath.write_bytes(save_model_bytes(m))
    qm = quantize_model(m, calibrate(m, tiny_images(2)))
    qpath = tmp_path / "m.q.glw"
    save_quantized(qm, qpath)
    assert isinstance(load_any(fpath), ModelGraph)
    assert isinstance(load_any(qpath), QuantizedModel)


def test_load_any_reads_and_parses_the_container_once(tmp_path, monkeypatch):
    m = tiny_model()
    fpath = tmp_path / "m.glw"
    fpath.write_bytes(save_model_bytes(m))
    qpath = tmp_path / "m.q.glw"
    save_quantized(quantize_model(m, calibrate(m, tiny_images(2))), qpath)
    parses = []

    def counting_read(path_or_bytes):
        parses.append(path_or_bytes)
        return read_container(path_or_bytes)

    monkeypatch.setattr(container_io, "read_container", counting_read)
    for path, kind in ((fpath, ModelGraph), (qpath, QuantizedModel)):
        parses.clear()
        assert isinstance(load_any(path), kind)
        assert parses == [path]


# ---- int8 containers are checked at load ----


@pytest.fixture
def int8_container(tmp_path):
    """The document and tensors of a saved tiny int8 container."""
    m = tiny_model()
    path = tmp_path / "m.q.glw"
    save_quantized(quantize_model(m, calibrate(m, tiny_images(2))), path)
    return read_container(str(path))


def first_layer(doc, kind):
    return next(layer for layer in doc["layers"] if layer["kind"] == kind)


def set_first(key, value):
    """An edit of a container's document and tensors that sets the first
    entry of tensor key to value."""
    def edit(doc, tensors):
        tensors[key][0] = value
    return edit


def set_act_scale(key, value):
    return lambda doc, tensors: doc["act_params"][key].update(scale=value)


def replaced(key, make):
    """An edit of a container's document and tensors that replaces tensor key
    by make(it)."""
    return lambda doc, tensors: tensors.update({key: make(tensors[key])})


def zero_width_stem(doc, tensors):
    """Give the stem conv no output channels: its int8 weight, scales and
    bias empty, and the conv that reads it no input channels."""
    for key in ("stem.conv/q_weight", "stem.conv/w_scale", "stem.conv/q_bias"):
        tensors[key] = tensors[key][:0].copy()
    tensors["s1.ds.conv/q_weight"] = tensors["s1.ds.conv/q_weight"][:, :0].copy()


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc, _: first_layer(doc, "conv")["attrs"].update(stride=0), "stride must be >= 1"),
        (lambda doc, _: first_layer(doc, "pool")["attrs"].pop("kernel"), "missing kernel"),
        (lambda doc, _: first_layer(doc, "pool")["attrs"].update(pool="avg"), "pool must be 'max'"),
        (lambda doc, _: first_layer(doc, "pool").update(kind="upsample"), "unknown kind 'upsample'"),
        (lambda doc, _: doc["act_params"].pop("L001"), "no activation params .*L001"),
        (lambda doc, _: first_layer(doc, "act")["attrs"].update(fn="gelu"), "fn must be one of"),
        (lambda doc, _: first_layer(doc, "conv")["attrs"].update(stride=None), "stride must be an int"),
        (lambda doc, _: first_layer(doc, "conv")["attrs"].update(stride=1.5), "stride must be an int"),
        (set_first("stem.conv/w_scale", np.nan), "weight scales must be finite and > 0"),
        (set_first("stem.conv/w_scale", np.inf), "weight scales must be finite and > 0"),
        (set_first("stem.conv/w_scale", -1.0), "weight scales must be finite and > 0"),
        (set_first("head/w_scale", np.nan), "weight scales must be finite and > 0"),
        (set_first("head/w_scale", 5e-324), r"layer \d+ \(detect_head\): accumulator scales must be finite"),
        (set_act_scale("input", 1e308), "activation scales must lie in"),
        (set_act_scale("input", 5e-324), "activation scales must lie in"),
        (set_act_scale("input", 1e-310), "activation scales must lie in"),
        (set_act_scale("L002", 1e308), "activation scales must lie in"),
        (set_act_scale("L002", 5e-324), "activation scales must lie in"),
        (set_act_scale("L002", 1e-310), "activation scales must lie in"),
        (set_first("head/w_scale", 1e300), r"layer \d+ \(detect_head\): outputs could exceed float32's range"),
        (set_first("cbam/mlp_w1_scale", np.nan), "quant scales must be finite and > 0"),
        (set_first("cbam/mlp_w1_scale", 1e300), "cbam mlp_w1 dequantizes to weights beyond float32's range"),
        (replaced("cbam/mlp_w1_scale", lambda a: a[:3].copy()), "per-channel params are for 3 channels"),
        (replaced("cbam/mlp_b1", lambda a: np.zeros(5, np.float32)), "mlp weight/bias shapes are inconsistent"),
        (set_first("cbam/mlp_b1", np.nan), "tensor cbam/mlp_b1 holds NaN or inf"),
        (replaced("cbam/spatial_weight_q", lambda a: np.zeros((1, 2, 6, 6), np.int8)),
         "spatial kernel must be square and odd"),
        (replaced("stem.conv/q_weight", lambda a: a[..., :1].copy()), "conv kernels must be square, got 3x1"),
        (lambda doc, _: next(layer for layer in doc["layers"] if layer["slot"] == "s2.c2f.m1.conv").update(
            slot="s2.c2f.m0.conv"), r"slot 's2.c2f.m0.conv' is already layer \d+'s"),
        (lambda doc, _: doc["meta"].update(stride=7), "meta stride 7 times the 2x2 head grid is not input size 64"),
        (zero_width_stem, r"conv weight dims must be >= 1, got \(0, 3, 3, 3\)"),
    ],
    ids=["conv-stride-0", "pool-without-kernel", "avg-pool", "upsample", "missing-act-params",
         "act-gelu", "conv-stride-null", "conv-stride-1.5", "w-scale-nan", "w-scale-inf",
         "w-scale-minus-1", "head-w-scale-nan", "head-w-scale-5e-324", "input-scale-1e308",
         "input-scale-5e-324", "input-scale-1e-310", "L002-scale-1e308", "L002-scale-5e-324",
         "L002-scale-1e-310", "head-w-scale-1e300", "cbam-scale-nan", "cbam-scale-1e300",
         "cbam-scale-length-3", "cbam-mlp-b1-length-5", "cbam-mlp-b1-nan", "cbam-spatial-kernel-6x6",
         "conv-kernel-3x1", "two-convs-share-a-slot", "meta-stride-7", "zero-width-conv"],
)
def test_int8_graph_errors_fail_at_load(int8_container, edit, match):
    """The float graph's checks run on a loaded int8 graph, so a bad one is a
    ContractViolation from load_quantized, not an error in its first forward.
    So are weight scales that are not finite and > 0, activation scales out
    of range, a head whose accumulator scale underflows to 0 or whose output
    could overflow float32, and CBAM weight scales that are not finite, do
    not match their weights or dequantize beyond float32's range, two convs
    that share a slot and a meta stride that does not scale the head grid to
    the input size."""
    doc, tensors = int8_container
    edit(doc, tensors)
    with pytest.raises(ContractViolation, match=match):
        load_quantized(write_container(doc, list(tensors.items())))


@pytest.mark.parametrize(
    "edit, match",
    [
        (replaced("stem.conv/q_weight", lambda a: np.full(a.shape, 1000.0, np.float32)),
         "tensor stem.conv/q_weight must be int8, got float32"),
        (replaced("stem.conv/q_bias", lambda a: np.full(a.shape, 1e20)),
         "tensor stem.conv/q_bias must be int32, got float64"),
        (replaced("cbam/mlp_w1_q", lambda a: a.astype(np.float32) * 1000),
         "tensor cbam/mlp_w1_q must be int8, got float32"),
    ],
    ids=["q-weight-f32", "q-bias-f64", "cbam-weight-f32"],
)
def test_int8_tensor_in_another_dtype_is_a_container_error(int8_container, edit, match):
    """Each tensor must be in the dtype save_quantized writes; a float weight
    is not wrapped to int8, nor a float bias cast to int32."""
    doc, tensors = int8_container
    edit(doc, tensors)
    with pytest.raises(ContainerError, match=match):
        load_quantized(write_container(doc, list(tensors.items())))


@pytest.mark.parametrize("key", ["layers", "meta", "conv_slots", "cbam_slots", "act_params"])
def test_int8_container_without_a_doc_key_is_a_container_error(int8_container, key):
    doc, tensors = int8_container
    del doc[key]
    with pytest.raises(ContainerError, match=key):
        load_quantized(write_container(doc, list(tensors.items())))


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc: doc["layers"][0].pop("kind"), "missing 'kind'"),
        (lambda doc: doc["layers"][0].update(inputs=5), "inputs must be a list"),
        (lambda doc: doc["meta"].pop("input_size"), "missing 'input_size'"),
        (lambda doc: doc["act_params"]["L001"].pop("scale"), "missing 'scale'"),
        (lambda doc: doc["act_params"]["L001"].pop("zero_point"), "missing 'zero_point'"),
    ],
    ids=["layer-without-kind", "inputs-not-a-list", "meta-without-input-size",
         "act-params-without-scale", "act-params-without-zero-point"],
)
def test_int8_container_malformed_fields_are_container_errors(int8_container, edit, match):
    doc, tensors = int8_container
    edit(doc)
    with pytest.raises(ContainerError, match=match):
        load_quantized(write_container(doc, list(tensors.items())))


@pytest.mark.parametrize("key", ["head/q_weight", "cbam/mlp_w1_scale", "cbam/spatial_bias"])
def test_int8_container_without_a_named_tensor_is_a_container_error(int8_container, key):
    doc, tensors = int8_container
    del tensors[key]
    with pytest.raises(ContainerError, match=key):
        load_quantized(write_container(doc, list(tensors.items())))


def test_an_act_params_entry_for_the_head_leaves_the_head_float(int8_container):
    """A container may carry params for the head's slot; the head is still
    dequantized exactly to float32, bit for bit as without the entry."""
    doc, tensors = int8_container
    x = tiny_images(1, seed=6)[0]
    plain = forward_quantized(load_quantized(write_container(doc, list(tensors.items()))), x)
    doc["act_params"][slot_key(len(doc["layers"]) - 1)] = {"scale": 0.5, "zero_point": 3}
    edited = load_quantized(write_container(doc, list(tensors.items())))
    assert forward_quantized(edited, x).arr.tobytes() == plain.arr.tobytes()


# ---- the int8 plan is built with the model ----


def test_each_conv_and_the_head_bind_their_accumulator_once(monkeypatch):
    """Building a model binds each conv and the head once, with one
    accumulator and one accumulator scale each; forwards build nothing."""
    import greenlite.quant as quant

    m = tiny_model()
    stats = calibrate(m, tiny_images(2))
    accumulators, scales = [], []
    accumulator, acc_scale = QConvSpec.accumulator, quant._acc_scale

    def counted_accumulator(spec, z_in):
        accumulators.append(id(spec.q_weight))
        return accumulator(spec, z_in)

    def counted_acc_scale(in_params, spec, out_params=None):
        scales.append(id(spec.q_weight))
        return acc_scale(in_params, spec, out_params)

    monkeypatch.setattr(QConvSpec, "accumulator", counted_accumulator)
    monkeypatch.setattr(quant, "_acc_scale", counted_acc_scale)
    qm = quantize_model(m, stats)
    blob = save_quantized_bytes(qm)
    for build in (lambda: qm, lambda: load_quantized(blob)):
        model = build()
        for x in tiny_images(2, seed=3):
            forward_quantized(model, x)
        weights = sorted(id(w["q_weight"]) for w in model.conv_weights.values())
        assert len(weights) == sum(layer.kind in ("conv", "detect_head") for layer in model.layers)
        assert sorted(accumulators) == sorted(scales) == weights
        accumulators.clear()
        scales.clear()


def test_the_plan_exists_once_the_model_does_and_a_forward_keeps_it():
    m = tiny_model()
    qm = quantize_model(m, calibrate(m, tiny_images(2)))
    for model in (qm, load_quantized(save_quantized_bytes(qm))):
        steps, quantize_input = model.steps, model.quantize_input
        assert len(steps) == len(model.layers)
        attrs = dict(vars(model))
        forward_quantized(model, tiny_images(1, seed=4)[0])
        assert model.steps is steps and model.quantize_input is quantize_input
        assert vars(model).keys() == attrs.keys()
        assert all(vars(model)[key] is value for key, value in attrs.items())


def test_format_reduction_fixture():
    assert format_reduction(6.1e6, 3.5e6) == "42.6%"
    assert format_reduction(100.0, 25.0) == "75.0%"
