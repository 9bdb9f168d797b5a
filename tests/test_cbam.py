"""Attention block tests built on closed-form gate fixtures."""

import math

import numpy as np
import pytest

from greenlite import (
    CbamParams,
    ContractViolation,
    Tensor,
    cbam_forward,
    channel_attention,
    spatial_attention,
)


def zero_params(c, r=4, k=7):
    return CbamParams(
        mlp_w1=np.zeros((c // r, c), dtype=np.float32),
        mlp_b1=np.zeros(c // r, dtype=np.float32),
        mlp_w2=np.zeros((c, c // r), dtype=np.float32),
        mlp_b2=np.zeros(c, dtype=np.float32),
        spatial_weight=np.zeros((1, 2, k, k), dtype=np.float32),
        spatial_bias=np.zeros(1, dtype=np.float32),
    )


def rand_params(rng, c, r=4, k=7, scale=0.5):
    return CbamParams(
        mlp_w1=rng.uniform(-scale, scale, (c // r, c)).astype(np.float32),
        mlp_b1=rng.uniform(-scale, scale, c // r).astype(np.float32),
        mlp_w2=rng.uniform(-scale, scale, (c, c // r)).astype(np.float32),
        mlp_b2=rng.uniform(-scale, scale, c).astype(np.float32),
        spatial_weight=rng.uniform(-scale, scale, (1, 2, k, k)).astype(np.float32),
        spatial_bias=rng.uniform(-scale, scale, 1).astype(np.float32),
    )


def test_zero_params_quarter_the_input_exactly():
    """All-zero weights give Mc = Ms = 0.5, so y = 0.25 * x bit-exactly."""
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-4, 4, (2, 8, 5, 5)).astype(np.float32))
    p = zero_params(8)
    assert np.all(channel_attention(x, p).arr == 0.5)
    assert np.all(spatial_attention(x, p).arr == 0.5)
    y = cbam_forward(x, p)
    assert np.array_equal(y.arr, x.arr * np.float32(0.25))


def test_constant_channels_match_closed_form_mlp():
    """avg and max pooling agree on constant channels: logits = 2 * MLP(v)."""
    rng = np.random.default_rng(4)
    c, r = 8, 4
    p = rand_params(rng, c, r)
    v = rng.uniform(-2, 2, c)
    x = Tensor(np.broadcast_to(v.reshape(1, c, 1, 1), (1, c, 6, 6)).astype(np.float32))
    got = channel_attention(x, p).arr.reshape(c)
    vec = x.arr[0, :, 0, 0].astype(np.float64)
    h = np.maximum(p.mlp_w1.astype(np.float64) @ vec + p.mlp_b1, 0.0)
    logits = 2.0 * (p.mlp_w2.astype(np.float64) @ h + p.mlp_b2)
    want = 1.0 / (1.0 + np.exp(-logits))
    assert np.max(np.abs(got - want)) <= 1e-6


def test_channel_gate_ignores_spatial_order_bitwise():
    rng = np.random.default_rng(5)
    p = rand_params(rng, 8)
    x = Tensor(rng.uniform(-3, 3, (1, 8, 4, 5)).astype(np.float32))
    base = channel_attention(x, p).arr
    perm = rng.permutation(20)
    shuffled = Tensor(x.arr.reshape(1, 8, -1)[:, :, perm].reshape(1, 8, 4, 5))
    assert np.array_equal(channel_attention(shuffled, p).arr, base)


def test_spatial_gate_ignores_channel_order_bitwise():
    """mean and max over channels are symmetric, fsum makes the mean exact."""
    rng = np.random.default_rng(6)
    p = rand_params(rng, 8)
    x = Tensor(rng.uniform(-3, 3, (1, 8, 4, 4)).astype(np.float32))
    base = spatial_attention(x, p).arr
    perm = rng.permutation(8)
    assert np.array_equal(spatial_attention(Tensor(x.arr[:, perm]), p).arr, base)


def test_spatial_gate_ignores_channel_order_on_the_fsum_fallback(fsum_rows):
    """Channels of +-1e20 that cancel push every pixel's channel sum past the
    float64 bound, so the mean comes from math.fsum; the max half of the
    spatial conv is zeroed so the gate depends on that exact mean."""
    rng = np.random.default_rng(8)
    p = rand_params(rng, 8)
    p.spatial_weight[:, 1] = 0.0
    x = rng.uniform(-3, 3, (1, 8, 4, 4)).astype(np.float32)
    x[:, 6] = rng.uniform(1e20, 2e20, (1, 4, 4)).astype(np.float32)
    x[:, 7] = -x[:, 6]
    base = spatial_attention(Tensor(x), p).arr
    assert len(fsum_rows) == 16
    assert len(np.unique(base)) > 1
    for _ in range(3):
        perm = rng.permutation(8)
        assert np.array_equal(spatial_attention(Tensor(x[:, perm]), p).arr, base)


def test_gates_are_strictly_inside_unit_interval():
    rng = np.random.default_rng(7)
    for trial in range(5):
        p = rand_params(rng, 16, r=8, scale=2.0)
        x = Tensor(rng.uniform(-10, 10, (1, 16, 5, 5)).astype(np.float32))
        mc = channel_attention(x, p).arr
        ms = spatial_attention(x, p).arr
        assert np.all(mc > 0.0) and np.all(mc < 1.0), f"trial {trial}"
        assert np.all(ms > 0.0) and np.all(ms < 1.0), f"trial {trial}"


def test_output_never_grows_magnitude():
    rng = np.random.default_rng(8)
    for _ in range(5):
        p = rand_params(rng, 8, scale=1.5)
        x = Tensor(rng.uniform(-6, 6, (2, 8, 4, 4)).astype(np.float32))
        y = cbam_forward(x, p)
        assert np.all(np.abs(y.arr) <= np.abs(x.arr))


def test_output_shape_matches_input():
    rng = np.random.default_rng(9)
    p = rand_params(rng, 4, r=2, k=3)
    x = Tensor(rng.uniform(-1, 1, (3, 4, 7, 5)).astype(np.float32))
    assert cbam_forward(x, p).shape == (3, 4, 7, 5)
    assert channel_attention(x, p).shape == (3, 4, 1, 1)
    assert spatial_attention(x, p).shape == (3, 1, 7, 5)


def test_params_are_validated():
    with pytest.raises(ContractViolation):
        CbamParams(
            mlp_w1=np.zeros((3, 8), dtype=np.float32),  # 3 does not divide 8
            mlp_b1=np.zeros(3, dtype=np.float32),
            mlp_w2=np.zeros((8, 3), dtype=np.float32),
            mlp_b2=np.zeros(8, dtype=np.float32),
            spatial_weight=np.zeros((1, 2, 7, 7), dtype=np.float32),
            spatial_bias=np.zeros(1, dtype=np.float32),
        )
    with pytest.raises(ContractViolation):
        CbamParams(
            mlp_w1=np.zeros((2, 8), dtype=np.float32),
            mlp_b1=np.zeros(2, dtype=np.float32),
            mlp_w2=np.zeros((8, 2), dtype=np.float32),
            mlp_b2=np.zeros(8, dtype=np.float32),
            spatial_weight=np.zeros((1, 2, 4, 4), dtype=np.float32),
            spatial_bias=np.zeros(1, dtype=np.float32),
        )
    p = zero_params(8)
    with pytest.raises(ContractViolation):
        channel_attention(Tensor(np.zeros((1, 4, 2, 2), dtype=np.float32)), p)


def test_silu_free_gate_is_monotone_in_bias():
    """Raising mlp_b2 for one channel can only open that channel's gate."""
    rng = np.random.default_rng(10)
    p = rand_params(rng, 8)
    x = Tensor(rng.uniform(-2, 2, (1, 8, 4, 4)).astype(np.float32))
    base = channel_attention(x, p).arr.reshape(8)
    bumped = CbamParams(
        p.mlp_w1,
        p.mlp_b1,
        p.mlp_w2,
        p.mlp_b2 + np.eye(8, dtype=np.float32)[3] * 5.0,
        p.spatial_weight,
        p.spatial_bias,
    )
    after = channel_attention(x, bumped).arr.reshape(8)
    assert after[3] > base[3]
    mask = np.arange(8) != 3
    assert np.array_equal(after[mask], base[mask])
