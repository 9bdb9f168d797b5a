"""Convolutional block attention: channel gate then spatial gate.

channel gate: Mc(x) = sigmoid(MLP(avgpool(x)) + MLP(maxpool(x))), one shared
two-layer MLP with a c/r hidden width and ReLU in between.
spatial gate: Ms(x) = sigmoid(conv_kxk([mean_c(x); max_c(x)])).
output: y = Ms(x') * x' with x' = Mc(x) * x.

Gates are computed in float64 and returned as float32 factors in (0, 1),
so |y| <= |x| elementwise. The means divide math.fsum's correctly rounded
sums, taken by tensor.exact_sum: a plain float64 sum while
sum|x| < 2**52 * ulp_min (ulp_min the smallest ulp among a row's nonzero
inputs, which keeps every partial sum exact), math.fsum itself otherwise.
That makes the channel gate bit-exact under spatial permutations and the
spatial gate bit-exact under channel permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .tensor import ConvSpec, Tensor, _sigmoid64, conv2d, exact_sum

_GATE_LO = np.nextafter(np.float32(0.0), np.float32(1.0))
_GATE_HI = np.nextafter(np.float32(1.0), np.float32(0.0))


def _gate32(logits: np.ndarray) -> np.ndarray:
    """Sigmoid cast to float32, saturation nudged back inside (0, 1).

    The float64 sigmoid never reaches 0 or 1 for finite logits, but the
    float32 cast can round to an endpoint; the clip keeps the open-interval
    gate contract at the cost of half an ulp on saturated values.
    """
    return np.clip(_sigmoid64(logits).astype(np.float32), _GATE_LO, _GATE_HI)


@dataclass
class CbamParams:
    """Shared-MLP channel gate weights plus the kxk spatial gate conv; the one
    check of a CBAM layer's shapes, which both model kinds make at load."""

    mlp_w1: np.ndarray  # (c // r, c)
    mlp_b1: np.ndarray  # (c // r,)
    mlp_w2: np.ndarray  # (c, c // r)
    mlp_b2: np.ndarray  # (c,)
    spatial_weight: np.ndarray  # (1, 2, k, k)
    spatial_bias: np.ndarray  # (1,)

    def __post_init__(self) -> None:
        for name in ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2", "spatial_weight", "spatial_bias"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float32))
        if self.mlp_w1.ndim != 2:
            raise ContractViolation(f"mlp_w1 must be 2-d, got ndim={self.mlp_w1.ndim}")
        hidden, c = self.mlp_w1.shape
        if hidden < 1 or c % hidden != 0:
            raise ContractViolation(
                f"mlp hidden width {hidden} must divide channel count {c}"
            )
        if self.mlp_b1.shape != (hidden,) or self.mlp_w2.shape != (c, hidden):
            raise ContractViolation("mlp weight/bias shapes are inconsistent")
        if self.mlp_b2.shape != (c,):
            raise ContractViolation(f"mlp_b2 must have shape ({c},)")
        if self.spatial_weight.ndim != 4 or self.spatial_weight.shape[:2] != (1, 2):
            raise ContractViolation("spatial conv must map 2 channels to 1")
        k = self.spatial_weight.shape[2]
        if self.spatial_weight.shape[3] != k or k % 2 == 0:
            raise ContractViolation(f"spatial kernel must be square and odd, got {self.spatial_weight.shape[2:]}")
        if self.spatial_bias.shape != (1,):
            raise ContractViolation(f"spatial_bias must have shape (1,), got {self.spatial_bias.shape}")

    @property
    def channels(self) -> int:
        return int(self.mlp_w1.shape[1])

    @property
    def spatial_kernel(self) -> int:
        return int(self.spatial_weight.shape[2])


def _shared_mlp(p: CbamParams, pooled: np.ndarray) -> np.ndarray:
    """(n, c) pooled vector -> (n, c) logits, float64 throughout."""
    w1 = p.mlp_w1.astype(np.float64)
    w2 = p.mlp_w2.astype(np.float64)
    h = np.maximum(pooled @ w1.T + p.mlp_b1.astype(np.float64), 0.0)
    return h @ w2.T + p.mlp_b2.astype(np.float64)


def channel_attention(x: Tensor, p: CbamParams) -> Tensor:
    """Per-channel gate Mc(x) with shape (n, c, 1, 1), values in (0, 1)."""
    n, c, h, w = x.shape
    if c != p.channels:
        raise ContractViolation(f"cbam params are for {p.channels} channels, tensor has {c}")
    planes = x.arr.reshape(n, c, h * w)
    avg = (exact_sum(planes, axis=-1) / (h * w)).astype(np.float32).astype(np.float64)
    mx = planes.max(axis=-1).astype(np.float64)
    logits = _shared_mlp(p, avg) + _shared_mlp(p, mx)
    return Tensor(_gate32(logits).reshape(n, c, 1, 1))


def spatial_attention(x: Tensor, p: CbamParams) -> Tensor:
    """Per-position gate Ms(x) with shape (n, 1, h, w), values in (0, 1)."""
    n, c, h, w = x.shape
    if c != p.channels:
        raise ContractViolation(f"cbam params are for {p.channels} channels, tensor has {c}")
    desc = np.empty((n, 2, h, w), dtype=np.float32)
    desc[:, 0] = exact_sum(x.arr, axis=1) / c
    desc[:, 1] = x.arr.max(axis=1)
    k = p.spatial_kernel
    spec = ConvSpec(p.spatial_weight, p.spatial_bias, stride=1, padding=(k - 1) // 2)
    logits = conv2d(Tensor(desc), spec)
    return Tensor(_gate32(logits.arr.astype(np.float64)))


def cbam_forward(x: Tensor, p: CbamParams) -> Tensor:
    """Apply the channel gate, then the spatial gate on the refined tensor."""
    mc = channel_attention(x, p)
    refined = Tensor(x.arr * mc.arr)
    ms = spatial_attention(refined, p)
    return Tensor(refined.arr * ms.arr)
