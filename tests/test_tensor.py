"""Float kernel tests: exact hand fixtures plus randomized oracle sweeps."""

import math
import re

import numpy as np
import pytest

from greenlite import (
    ContractViolation,
    ConvSpec,
    Tensor,
    activation,
    batchnorm_infer,
    concat_channels,
    conv2d,
    pool,
)
from greenlite import tensor as gl_tensor

from _oracles import (
    activation_whole_array,
    batchnorm_naive,
    batchnorm_whole_array,
    conv2d_naive,
    fsum_along,
    im2col_padded,
    maxpool_scan,
    pool_naive,
    sigmoid64_masked,
)


def rand_tensor(rng, n, c, h, w, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, size=(n, c, h, w)).astype(np.float32))


# ---- Tensor container ----


def test_tensor_validates_rank_and_extent():
    with pytest.raises(ContractViolation):
        Tensor(np.zeros((3, 4, 5), dtype=np.float32))
    with pytest.raises(ContractViolation):
        Tensor(np.zeros((1, 0, 4, 4), dtype=np.float32))


def test_tensor_normalizes_dtype_and_layout():
    arr = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)[:, :, ::2, :]
    t = Tensor(arr)
    assert t.arr.dtype == np.float32
    assert t.arr.flags["C_CONTIGUOUS"]
    assert t.shape == (1, 1, 2, 4)
    assert t.arr.nbytes == 8 * 4


# ---- conv2d ----


def test_conv_identity_kernel_is_exact():
    """A 1x1 channel-identity kernel with zero bias reproduces the input."""
    rng = np.random.default_rng(7)
    for c in (1, 3, 8):
        x = rand_tensor(rng, 2, c, 5, 4)
        weight = np.eye(c, dtype=np.float32).reshape(c, c, 1, 1)
        y = conv2d(x, ConvSpec(weight, np.zeros(c, dtype=np.float32)))
        assert np.array_equal(y.arr, x.arr)


def test_conv_zero_weights_give_bias_everywhere():
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, 1, 3, 6, 6)
    bias = np.array([1.5, -2.0, 0.25], dtype=np.float32)
    y = conv2d(x, ConvSpec(np.zeros((3, 3, 3, 3), dtype=np.float32), bias, padding=1))
    for ch in range(3):
        assert np.all(y.arr[:, ch] == bias[ch])


def test_conv_matches_naive_oracle():
    """120 random geometries against the 6-loop reference, tol 1e-5."""
    rng = np.random.default_rng(42)
    for case in range(120):
        groups = int(rng.choice([1, 1, 2]))
        c = groups * int(rng.integers(1, 4))
        oc = groups * int(rng.integers(1, 4))
        k = int(rng.choice([1, 2, 3]))
        stride = int(rng.choice([1, 2]))
        padding = int(rng.choice([0, 1]))
        h = int(rng.integers(k, k + 5))
        w = int(rng.integers(k, k + 5))
        x = rand_tensor(rng, int(rng.integers(1, 3)), c, h, w)
        weight = rng.uniform(-1, 1, size=(oc, c // groups, k, k)).astype(np.float32)
        bias = rng.uniform(-1, 1, size=oc).astype(np.float32)
        got = conv2d(x, ConvSpec(weight, bias, stride, padding, groups))
        want = conv2d_naive(x.arr, weight, bias, stride, padding, groups)
        assert got.shape == want.shape
        assert np.max(np.abs(got.arr - want)) <= 1e-5, f"case {case}"


def test_conv_is_linear_in_the_input():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x1 = rand_tensor(rng, 1, 4, 6, 6)
        x2 = rand_tensor(rng, 1, 4, 6, 6)
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        spec = ConvSpec(
            rng.uniform(-1, 1, size=(5, 4, 3, 3)).astype(np.float32),
            np.zeros(5, dtype=np.float32),
            padding=1,
        )
        mixed = Tensor(a * x1.arr + b * x2.arr)
        lhs = conv2d(mixed, spec).arr
        rhs = a * conv2d(x1, spec).arr + b * conv2d(x2, spec).arr
        assert np.max(np.abs(lhs - rhs)) <= 1e-4


def test_conv_validates_geometry():
    x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    with pytest.raises(ContractViolation):
        conv2d(x, ConvSpec(np.zeros((2, 4, 1, 1), dtype=np.float32), np.zeros(2, dtype=np.float32)))
    with pytest.raises(ContractViolation):
        ConvSpec(np.zeros((2, 3, 1, 3), dtype=np.float32), np.zeros(2, dtype=np.float32))
    with pytest.raises(ContractViolation):
        ConvSpec(np.zeros((3, 3, 1, 1), dtype=np.float32), np.zeros(3, dtype=np.float32), groups=2)
    with pytest.raises(ContractViolation):
        conv2d(x, ConvSpec(np.zeros((1, 3, 5, 5), dtype=np.float32), np.zeros(1, dtype=np.float32)))


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_patches_match_np_pad_and_the_window_loop_bitwise(k, stride, padding):
    """Both convs' forms: float32 into float64 with fill 0, and int8 codes
    into float32 with fill z_in, against np.pad plus the window loop."""
    rng = np.random.default_rng(100 + 9 * k + 3 * stride + padding)
    for n in (1, 2):
        x = rng.uniform(-2, 2, (n, 3, 7, 6)).astype(np.float32)
        x.reshape(-1)[:4] = [-0.0, np.inf, -np.inf, np.float32(1e-45)]
        got = gl_tensor.patches(x, k, stride, padding, 0, np.float64)
        want = im2col_padded(x, k, stride, padding, 0, np.float64)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        q = rng.integers(-128, 128, (n, 3, 7, 6), dtype=np.int8)
        z_in = int(rng.integers(-128, 128))
        got = gl_tensor.patches(q, k, stride, padding, z_in, np.float32)
        want = im2col_padded(q, k, stride, padding, z_in, np.float32)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()


# ---- batch norm ----


def test_bn_hand_case():
    # gamma 3, x 4, mean 2, var 4: 3 * (4 - 2) / 2 + 1 = 4
    x = Tensor(np.full((1, 1, 2, 2), 4.0, dtype=np.float32))
    y = batchnorm_infer(x, [3.0], [1.0], [2.0], [4.0], eps=1e-12)
    assert np.max(np.abs(y.arr - 4.0)) <= 1e-9


def test_bn_identity_params_pass_through():
    rng = np.random.default_rng(21)
    x = rand_tensor(rng, 2, 3, 5, 5)
    y = batchnorm_infer(x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), eps=1e-12)
    assert np.max(np.abs(y.arr - x.arr)) <= 1e-6


def test_bn_zero_gamma_gives_beta():
    rng = np.random.default_rng(22)
    x = rand_tensor(rng, 1, 2, 4, 4)
    beta = np.array([0.5, -3.0])
    y = batchnorm_infer(x, np.zeros(2), beta, np.ones(2) * 7, np.ones(2), eps=1e-5)
    for ch in range(2):
        assert np.all(y.arr[:, ch] == np.float32(beta[ch]))


def test_bn_matches_naive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        c = int(rng.integers(1, 5))
        x = rand_tensor(rng, 1, c, 3, 3, lo=-5, hi=5)
        gamma = rng.uniform(-2, 2, c)
        beta = rng.uniform(-2, 2, c)
        mean = rng.uniform(-2, 2, c)
        var = rng.uniform(0.1, 4.0, c)
        got = batchnorm_infer(x, gamma, beta, mean, var, eps=1e-5).arr
        want = batchnorm_naive(x.arr, gamma, beta, mean, var, 1e-5)
        assert np.max(np.abs(got - want)) <= 1e-5


def test_bn_rejects_bad_params():
    x = Tensor(np.zeros((1, 2, 2, 2), dtype=np.float32))
    with pytest.raises(ContractViolation):
        batchnorm_infer(x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), eps=0.0)
    with pytest.raises(ContractViolation):
        batchnorm_infer(x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), eps=1e-5)
    with pytest.raises(ContractViolation):
        batchnorm_infer(x, np.ones(2), np.zeros(2), np.zeros(2), np.array([1.0, -0.1]), eps=1e-5)


# ---- activations ----


def test_activation_fixed_points():
    x = Tensor(np.array([[[[0.0, math.log(3.0)]]]], dtype=np.float32))
    sig = activation(x, "sigmoid").arr.ravel()
    assert sig[0] == 0.5
    assert abs(sig[1] - 0.75) <= 1e-6
    assert activation(x, "silu").arr.ravel()[0] == 0.0
    assert np.array_equal(activation(x, "identity").arr, x.arr)


def test_activation_extreme_inputs_stay_finite():
    """Large magnitudes must not overflow; sigmoid stays inside [0, 1]."""
    x = Tensor(np.array([[[[-1000.0, -50.0, 50.0, 1000.0]]]], dtype=np.float32))
    with np.errstate(over="raise"):
        sig = activation(x, "sigmoid").arr
        si = activation(x, "silu").arr
    assert np.all(np.isfinite(sig)) and np.all(np.isfinite(si))
    assert np.all(sig >= 0.0) and np.all(sig <= 1.0)
    assert sig.ravel()[0] == 0.0 and sig.ravel()[-1] == 1.0
    assert si.ravel()[0] == 0.0


def test_activation_matches_scalar_math():
    rng = np.random.default_rng(31)
    x = rand_tensor(rng, 1, 2, 4, 4, lo=-8, hi=8)
    sig = activation(x, "sigmoid").arr
    si = activation(x, "silu").arr
    for idx in np.ndindex(x.arr.shape):
        v = float(x.arr[idx])
        s = 1.0 / (1.0 + math.exp(-v))
        assert abs(float(sig[idx]) - s) <= 1e-6
        assert abs(float(si[idx]) - v * s) <= 1e-6


def sigmoid_probe_values():
    """Special values, both exp under/overflow edges, subnormals, float32
    magnitudes and random float64 bit patterns (NaN payloads included)."""
    rng = np.random.default_rng(71)
    f64 = np.finfo(np.float64)
    special = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 36.7, -36.7,
        3e38, -3e38, 709.78, -709.78, 745.13, -745.13, 745.2, -745.2,
        f64.tiny, -f64.tiny, 5e-324, -5e-324, f64.max, -f64.max,
    ])
    edges = np.concatenate([rng.uniform(709.0, 710.5, 50_000), rng.uniform(744.0, 746.5, 50_000)])
    return np.concatenate([
        special,
        edges,
        -edges,
        rng.normal(scale=8.0, size=200_000),
        rng.uniform(-800.0, 800.0, size=200_000),
        rng.uniform(-1.0, 1.0, size=50_000) * 2.0**-1022,
        rng.normal(scale=20.0, size=100_000).astype(np.float32).astype(np.float64),
        np.frombuffer(rng.bytes(8 * 400_000), dtype=np.float64),
    ])


def test_sigmoid_matches_the_masked_two_branch_form_bitwise():
    z = sigmoid_probe_values()
    before = z.copy()
    with np.errstate(over="raise", invalid="ignore"):  # signalling NaNs set "invalid"
        got = gl_tensor._sigmoid64(z)
        ref = sigmoid64_masked(z)
    assert np.array_equal(z.view(np.uint64), before.view(np.uint64)), "input was modified"
    nan = np.isnan(z)
    assert nan.sum() > 100 and (~nan).sum() > 1_000_000
    assert np.array_equal(got[~nan].view(np.uint64), ref[~nan].view(np.uint64))
    assert np.all(np.isnan(got[nan]))


CHUNK = gl_tensor.CHUNK


def chunk_probe_tensor(rng, shape):
    """A float32 tensor filled from the sigmoid probe values (cast to
    float32, so +-0, +-inf, NaN and float32 subnormals among them), with
    the special values and float32 subnormals placed first."""
    with np.errstate(over="ignore", invalid="ignore"):  # beyond float32 -> inf; NaN payloads
        pool = sigmoid_probe_values().astype(np.float32)
    f32 = np.finfo(np.float32)
    special = np.concatenate([
        pool[:24],  # sigmoid_probe_values lists its 24 special values first
        np.array([f32.smallest_subnormal, -f32.smallest_subnormal, f32.tiny / 2, -f32.tiny / 2],
                 dtype=np.float32),
    ])
    flat = rng.choice(pool, size=math.prod(shape))
    flat[: special.size] = special[: flat.size]
    return Tensor(flat.reshape(shape))


# (n, c, h, w): below one chunk, exactly one, straddling chunk boundaries,
# n = 2, and channel rows longer than one chunk (bn then takes one row a block)
CHUNK_SHAPES = [
    (1, 1, 1, 1),
    (1, 3, 7, 11),
    (1, 1, 1, CHUNK - 1),
    (1, 1, 1, CHUNK),
    (1, 4, 1, CHUNK // 4),
    (2, 1, 1, CHUNK // 2),
    (1, 1, 1, CHUNK + 1),
    (2, 5, 1, CHUNK // 8),
    (2, 3, 5, CHUNK // 7 + 3),
    (2, 2, 1, CHUNK + 3),
]


@pytest.mark.parametrize("shape", CHUNK_SHAPES)
def test_chunked_activation_matches_the_whole_array_form_bytewise(shape):
    x = chunk_probe_tensor(np.random.default_rng(72), shape)
    for kind in ("silu", "sigmoid"):
        with np.errstate(invalid="ignore"):  # silu: 0 * inf; signalling NaNs
            got = activation(x, kind).arr
            want = activation_whole_array(x.arr, kind, gl_tensor._sigmoid64)
        assert got.shape == shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), kind


@pytest.mark.parametrize("shape", CHUNK_SHAPES)
def test_chunked_batchnorm_matches_the_whole_array_form_bytewise(shape):
    rng = np.random.default_rng(73)
    x = chunk_probe_tensor(rng, shape)
    c = shape[1]
    gamma, beta, mean = (rng.uniform(-2, 2, c) for _ in range(3))
    var = rng.uniform(0.0, 4.0, c)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0, inf - inf, float32 overflow
        got = batchnorm_infer(x, gamma, beta, mean, var, eps=1e-5).arr
        want = batchnorm_whole_array(x.arr, gamma, beta, mean, var, 1e-5)
    assert got.shape == shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_activation_rejects_unknown_kind():
    x = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
    with pytest.raises(ContractViolation):
        activation(x, "relu6")


# ---- pooling ----


def test_pool_two_by_two_fixture():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
    assert pool(x, "max", 2).arr.ravel()[0] == 4.0
    assert pool(x, "avg", 2).arr.ravel()[0] == 2.5


def test_pool_matches_naive_oracle():
    rng = np.random.default_rng(44)
    for case in range(80):
        kind = "max" if case % 2 == 0 else "avg"
        k = int(rng.choice([1, 2, 3]))
        padding = int(rng.integers(0, k))
        stride = int(rng.choice([1, 2]))
        h = int(rng.integers(k, k + 5))
        w = int(rng.integers(k, k + 5))
        x = rand_tensor(rng, 1, int(rng.integers(1, 4)), h, w)
        got = pool(x, kind, k, stride, padding).arr
        want = pool_naive(x.arr, kind, k, stride, padding)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-6, f"case {case}"


def test_max_pool_keeps_the_scan_winner_on_signed_zero_ties():
    """The separable max pool picks the same element as a k * k scan, so
    windows whose maximum is a tie of -0.0 and +0.0 keep the scan's sign."""
    rng = np.random.default_rng(45)
    zero_signs = set()
    for case in range(60):
        k = int(rng.choice([1, 2, 3, 5]))
        padding = int(rng.integers(0, k))
        stride = int(rng.choice([1, 2]))
        h, w = int(rng.integers(k, k + 7)), int(rng.integers(k, k + 7))
        vals = rng.choice(np.array([-0.0, 0.0, -1.0], dtype=np.float32), (1, 2, h, w))
        got = pool(Tensor(vals), "max", k, stride, padding).arr
        want = maxpool_scan(vals, k, stride, padding, np.float32(-np.inf))
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), f"case {case}"
        zero_signs.update(np.signbit(want[want == 0]).tolist())
    assert zero_signs == {False, True}


def test_pool_avg_ignores_padding_cells():
    # 3x3 window at a corner with padding 1 sees only 4 real cells.
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
    y = pool(x, "avg", 3, stride=1, padding=1)
    assert y.arr[0, 0, 0, 0] == 2.5


def test_pool_validates_arguments():
    x = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
    with pytest.raises(ContractViolation):
        pool(x, "avg", 2, padding=2)
    with pytest.raises(ContractViolation):
        pool(x, "median", 2)
    with pytest.raises(ContractViolation):
        pool(x, "max", 5)


# ---- exact sums ----


def assert_same_bytes(got, ref):
    assert got.shape == ref.shape
    assert got.dtype == np.float64
    assert got.tobytes() == ref.tobytes()


def test_exact_sum_float64_path_equals_fsum_along_every_axis(fsum_rows):
    rng = np.random.default_rng(81)
    for scale in (1e-30, 1e-3, 1.0, 1e4, 1e30):
        a = (rng.normal(size=(3, 4, 5, 6)) * scale).astype(np.float32)
        for axis in (0, 1, 2, 3, -1):
            assert_same_bytes(gl_tensor.exact_sum(a, axis), fsum_along(a, axis))
        strided = a[:, ::2, :, ::3]
        assert_same_bytes(gl_tensor.exact_sum(strided, 1), fsum_along(strided, 1))
        assert_same_bytes(gl_tensor.exact_sum(a[0, 0, 0], 0), fsum_along(a[0, 0, 0], 0))
    assert fsum_rows == []


def test_exact_sum_falls_back_to_fsum_outside_the_bound(fsum_rows):
    rng = np.random.default_rng(82)
    big = rng.uniform(1.0, 2.0, 6).astype(np.float32) * np.float32(1e30)
    small = rng.uniform(-1.0, 1.0, 6).astype(np.float32) * np.float32(1e-30)
    subnormal = np.array([1e-45, -3e-45, 7e-42, 1.5, -2.25, 1e-44], dtype=np.float32)
    finite = rng.normal(size=6).astype(np.float32)
    cases = {
        "1e30 mixed with 1e-30": np.stack([np.concatenate([big, small, -big])] * 2),
        "subnormals": np.stack([subnormal, subnormal[::-1]]),
        "cancellation to 0": np.stack([np.concatenate([finite, -finite[::-1]])] * 2),
        "c = 1 with -0.0": np.array([[-0.0], [2.5], [-0.0]], dtype=np.float32),
    }
    for name, a in cases.items():
        seen = len(fsum_rows)
        assert_same_bytes(gl_tensor.exact_sum(a, 1), fsum_along(a, 1))
        assert_same_bytes(gl_tensor.exact_sum(a.T, 0), fsum_along(a.T, 0))
        assert len(fsum_rows) > seen, name
    # the case that shows why: a plain float64 sum loses the 1e-30 terms
    mixed = cases["1e30 mixed with 1e-30"]
    assert fsum_along(mixed, 1)[0] != mixed[0].astype(np.float64).sum()
    zero = gl_tensor.exact_sum(cases["c = 1 with -0.0"], 1)
    assert math.copysign(1.0, zero[0]) == math.copysign(1.0, math.fsum([-0.0]))


def test_exact_sum_keeps_fsum_special_values_and_errors():
    a = np.array([[np.inf, 1.0], [-np.inf, 2.0], [np.nan, 3.0], [np.inf, np.inf]], dtype=np.float32)
    got = gl_tensor.exact_sum(a, 1)
    assert got[0] == np.inf and got[1] == -np.inf and got[3] == np.inf
    assert np.isnan(got[2])
    bad = np.array([[1.0, 2.0], [np.inf, -np.inf]], dtype=np.float32)
    with pytest.raises(ValueError) as want:
        math.fsum([math.inf, -math.inf])
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        gl_tensor.exact_sum(bad, 1)


def test_exact_sum_matches_fsum_on_adversarial_rows():
    """Scales 1e-40 (subnormal) to 1e30, zeros of both signs, cancelling
    pairs: whichever path a row takes, the bytes are fsum's."""
    rng = np.random.default_rng(83)
    for trial in range(200):
        m = int(rng.integers(1, 40))
        lo, hi = sorted(rng.uniform(-40.0, 30.0, 2))
        mags = 10.0 ** rng.uniform(lo, hi, m)
        row = (mags * rng.choice([-1.0, 1.0], m)).astype(np.float32)
        row[rng.random(m) < 0.1] = 0.0
        row[rng.random(m) < 0.05] = -0.0
        if trial % 3 == 0:
            row = np.concatenate([row, -row[: m // 2]])
        rng.shuffle(row)
        a = np.stack([row, row[::-1]])
        assert_same_bytes(gl_tensor.exact_sum(a, 1), fsum_along(a, 1))


# ---- concat and upsample ----


def test_concat_stacks_channels_in_order():
    rng = np.random.default_rng(61)
    a = rand_tensor(rng, 2, 3, 4, 4)
    b = rand_tensor(rng, 2, 5, 4, 4)
    y = concat_channels(a, b)
    assert y.shape == (2, 8, 4, 4)
    assert np.array_equal(y.arr[:, :3], a.arr)
    assert np.array_equal(y.arr[:, 3:], b.arr)


def test_concat_rejects_spatial_mismatch():
    a = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    b = Tensor(np.zeros((1, 2, 4, 5), dtype=np.float32))
    with pytest.raises(ContractViolation):
        concat_channels(a, b)


def test_upsample_then_avgpool_is_identity():
    rng = np.random.default_rng(62)
    x = rand_tensor(rng, 2, 3, 5, 7, lo=-50, hi=50)
    up = Tensor(np.repeat(np.repeat(x.arr, 2, axis=2), 2, axis=3))
    back = pool(up, "avg", 2, stride=2)
    assert np.array_equal(back.arr, x.arr)
