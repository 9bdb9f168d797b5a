"""Dense NCHW float32 tensors and the float inference kernels.

A Tensor is a shape-(n, c, h, w) row-major float32 payload; every payload
registers its byte size with the instrumented allocator in
greenlite.profiling so peak live tensor bytes can be measured. Kernels are
pure functions returning fresh tensors, deterministic for identical inputs.

Float semantics: inputs and outputs are float32; convolution, batch norm
and the activations accumulate in float64 internally (wider accumulation
is allowed, outputs are rounded once to float32 at the end). Average
pooling sums with math.fsum's correctly rounded result, which is
independent of element order; this is what makes the attention-gate
permutation invariances exact rather than approximate. exact_sum gets that
result without a Python loop: every float32 in a row is an integer multiple
of the smallest ulp among the row's nonzero inputs, ulp_min, so while
sum|x| < 2**52 * ulp_min every partial sum is exact in float64, in any
order, and a plain float64 sum equals fsum. Rows outside that bound, rows
holding inf or NaN and rows that sum to zero are summed by math.fsum itself.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .profiling import TRACKER

ACTIVATION_KINDS = ("silu", "sigmoid", "identity")
POOL_KINDS = ("max", "avg")


class Tensor:
    """Dense (n, c, h, w) float32 container; all dims must be >= 1."""

    __slots__ = ("arr", "__weakref__")

    def __init__(self, arr: np.ndarray) -> None:
        arr = np.asarray(arr)
        if arr.ndim != 4:
            raise ContractViolation(f"tensor must be 4-d (n, c, h, w), got ndim={arr.ndim}")
        for name, dim in zip("nchw", arr.shape):
            if dim < 1:
                raise ContractViolation(f"tensor dim {name} must be >= 1, got {dim}")
        self.arr = np.ascontiguousarray(arr, dtype=np.float32)
        nbytes = self.arr.size * 4
        TRACKER.register(nbytes)
        weakref.finalize(self, TRACKER.unregister, nbytes)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(int(d) for d in self.arr.shape)  # type: ignore[return-value]

    @property
    def nbytes_payload(self) -> int:
        return self.arr.size * 4

    def copy(self) -> "Tensor":
        return Tensor(self.arr.copy())

    def __repr__(self) -> str:
        return f"Tensor{self.shape}"


@dataclass
class ConvSpec:
    """Weights and geometry of one 2-d convolution.

    weight has shape (out_channels, in_channels // groups, k, k) and bias
    shape (out_channels,); kernels are square.
    """

    weight: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self) -> None:
        self.weight = np.ascontiguousarray(self.weight, dtype=np.float32)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float32)
        if self.weight.ndim != 4:
            raise ContractViolation(f"conv weight must be 4-d, got ndim={self.weight.ndim}")
        oc, icg, kh, kw = self.weight.shape
        if kh != kw:
            raise ContractViolation(f"conv kernels must be square, got {kh}x{kw}")
        if self.bias.shape != (oc,):
            raise ContractViolation(
                f"conv bias must have shape ({oc},), got {self.bias.shape}"
            )
        if self.groups < 1 or oc % self.groups != 0:
            raise ContractViolation(
                f"groups must divide out_channels: groups={self.groups}, out={oc}"
            )
        if self.stride < 1:
            raise ContractViolation(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ContractViolation(f"padding must be >= 0, got {self.padding}")

    @property
    def out_channels(self) -> int:
        return int(self.weight.shape[0])

    @property
    def in_channels(self) -> int:
        return int(self.weight.shape[1]) * self.groups

    @property
    def kernel(self) -> int:
        return int(self.weight.shape[2])


def _out_dim(size: int, k: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - k) // stride + 1
    if out < 1:
        raise ContractViolation(
            f"kernel {k} stride {stride} padding {padding} does not fit extent {size}"
        )
    return out


def _im2col(padded: np.ndarray, k: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """(n, c, H, W) zero-padded plane -> (n, c*k*k, oh*ow) float64 patches."""
    n, c = padded.shape[:2]
    cols = np.empty((n, c, k, k, oh, ow), dtype=np.float64)
    for ky in range(k):
        for kx in range(k):
            cols[:, :, ky, kx] = padded[
                :, :, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride
            ]
    return cols.reshape(n, c * k * k, oh * ow)


def conv2d(x: Tensor, spec: ConvSpec) -> Tensor:
    """Grouped, strided, zero-padded cross-correlation."""
    n, c, h, w = x.shape
    if c != spec.in_channels:
        raise ContractViolation(
            f"conv expects {spec.in_channels} input channels, tensor has {c}"
        )
    k, s, p, g = spec.kernel, spec.stride, spec.padding, spec.groups
    oc = spec.out_channels
    oh = _out_dim(h, k, s, p)
    ow = _out_dim(w, k, s, p)
    if k == 1 and s == 1 and p == 0:
        # a 1x1 patch matrix is the input itself: same operands, same shapes
        cols = x.arr.astype(np.float64).reshape(n, g, c // g, h * w)
    else:
        padded = np.pad(x.arr, ((0, 0), (0, 0), (p, p), (p, p)))
        cols = _im2col(padded, k, s, oh, ow).reshape(n, g, (c // g) * k * k, oh * ow)
    wmat = spec.weight.reshape(g, oc // g, (c // g) * k * k).astype(np.float64)
    out = np.matmul(wmat[None, :, :, :], cols).reshape(n, oc, oh, ow)
    out += spec.bias.astype(np.float64).reshape(1, oc, 1, 1)
    return Tensor(out.astype(np.float32))


def batchnorm_infer(
    x: Tensor,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float,
) -> Tensor:
    """Inference-mode batch norm: gamma * (x - mean) / sqrt(var + eps) + beta."""
    n, c, h, w = x.shape
    if eps <= 0.0:
        raise ContractViolation(f"bn eps must be > 0, got {eps}")
    params = {}
    for name, arr in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        arr = np.asarray(arr, dtype=np.float64).reshape(-1)
        if arr.shape != (c,):
            raise ContractViolation(f"bn {name} must have length {c}, got {arr.shape}")
        params[name] = arr
    if np.any(params["var"] < 0.0):
        raise ContractViolation("bn variance must be >= 0")
    scale = params["gamma"] / np.sqrt(params["var"] + eps)
    shift = params["beta"] - params["mean"] * scale
    out = x.arr.astype(np.float64)
    out *= scale.reshape(1, c, 1, 1)
    out += shift.reshape(1, c, 1, 1)
    return Tensor(out.astype(np.float32))


def _sigmoid64(z: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid on float64 input, no overflow warnings.

    With e = exp(-|z|) this is 1 / (1 + e) for z >= 0 and e / (1 + e)
    otherwise: exp never sees a positive argument, and each element goes
    through the same float64 operations as the two-branch textbook form,
    so the results are bit-identical to it without a masked gather.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def activation(x: Tensor, kind: str) -> Tensor:
    """Pointwise silu / sigmoid / identity."""
    if kind not in ACTIVATION_KINDS:
        raise ContractViolation(f"unknown activation {kind!r}, expected one of {ACTIVATION_KINDS}")
    if kind == "identity":
        return Tensor(x.arr.copy())
    z = x.arr.astype(np.float64)
    out = _sigmoid64(z)
    if kind == "silu":
        out *= z
    return Tensor(out.astype(np.float32))


def exact_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """math.fsum of a float32 array along one axis, as float64.

    A row is summed in float64 when sum|x| < 2**52 * ulp_min, with ulp_min
    the smallest ulp among its nonzero inputs: every input is then an
    integer multiple of ulp_min, so every partial sum is exact in any order
    and equals fsum's. Rows outside that bound, rows holding inf or NaN and
    rows that sum to zero (whose sign is fsum's to choose) go to math.fsum
    itself, which keeps its results and its ValueError on inf + -inf.
    """
    rows = np.moveaxis(np.asarray(a, dtype=np.float32), axis, -1)
    wide = rows.astype(np.float64)
    with np.errstate(invalid="ignore"):  # inf + -inf: fsum below raises instead
        total = np.asarray(wide.sum(axis=-1))
    magnitude = np.abs(wide, out=wide).sum(axis=-1)
    bits = rows.view(np.uint32) & np.uint32(0x7FFFFFFF)
    # float32 ulp = 2**(biased exponent - 150); subnormals share exponent 1's
    biased = np.maximum(bits >> np.uint32(23), np.uint32(1))
    biased[bits == 0] = 255  # a zero puts no floor under the granularity
    bound = np.ldexp(2.0**52, biased.min(axis=-1).astype(np.int32) - 150)
    for idx in np.argwhere(~((magnitude < bound) & (total != 0.0))):
        total[tuple(idx)] = math.fsum(rows[tuple(idx)].tolist())
    return total


def max_windows(arr: np.ndarray, kernel: int, stride: int, padding: int, fill) -> np.ndarray:
    """Max over each kernel x kernel window of an (n, c, h, w) array padded
    with fill; the float and int8 max pools share it.

    The reduction is separable: over kx within every padded row first, then
    over ky. np.maximum returns its second argument on ties, so both passes
    keep the last tied element, and the winner is the last one in row-major
    window order, as in a k * k scan: for -0.0 and +0.0 ties, the same sign.
    """
    h, w = arr.shape[2:]
    oh = _out_dim(h, kernel, stride, padding)
    ow = _out_dim(w, kernel, stride, padding)
    padded = np.pad(
        arr, ((0, 0), (0, 0), (padding, padding), (padding, padding)), constant_values=fill
    )
    rows = padded[:, :, :, 0 : stride * ow : stride].copy()
    for kx in range(1, kernel):
        np.maximum(rows, padded[:, :, :, kx : kx + stride * ow : stride], out=rows)
    out = rows[:, :, 0 : stride * oh : stride].copy()
    for ky in range(1, kernel):
        np.maximum(out, rows[:, :, ky : ky + stride * oh : stride], out=out)
    return out


def pool(x: Tensor, kind: str, kernel: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Square max / average pooling.

    Max pooling pads with -inf so padded cells never win; average pooling
    divides by the number of valid (unpadded) cells in each window.
    Padding must stay below the kernel so every window sees a real cell.
    """
    if kind not in POOL_KINDS:
        raise ContractViolation(f"unknown pool kind {kind!r}, expected one of {POOL_KINDS}")
    s = kernel if stride is None else stride
    if kernel < 1 or s < 1:
        raise ContractViolation(f"pool kernel and stride must be >= 1, got {kernel}, {s}")
    if not 0 <= padding < kernel:
        raise ContractViolation(f"pool padding must satisfy 0 <= p < kernel, got {padding}")
    if kind == "max":
        return Tensor(max_windows(x.arr, kernel, s, padding, np.float32(-np.inf)))
    n, c, h, w = x.shape
    oh = _out_dim(h, kernel, s, padding)
    ow = _out_dim(w, kernel, s, padding)
    out = np.empty((n, c, oh, ow), dtype=np.float32)
    for b in range(n):
        for ch in range(c):
            plane = x.arr[b, ch]
            for oy in range(oh):
                y0 = oy * s - padding
                ys, ye = max(0, y0), min(h, y0 + kernel)
                for ox in range(ow):
                    x0 = ox * s - padding
                    xs, xe = max(0, x0), min(w, x0 + kernel)
                    window = plane[ys:ye, xs:xe]
                    out[b, ch, oy, ox] = math.fsum(window.flat) / window.size
    return Tensor(out)


def global_pool(x: Tensor, kind: str) -> Tensor:
    """Collapse the spatial extent to 1x1 by mean or max.

    The mean divides math.fsum's correctly rounded sum, taken by exact_sum
    (a float64 sum while sum|x| < 2**52 * ulp_min, math.fsum itself
    otherwise), so it is bit-identical under any spatial permutation of the
    input and equal to pool(avg) at full extent.
    """
    if kind not in POOL_KINDS:
        raise ContractViolation(f"unknown pool kind {kind!r}, expected one of {POOL_KINDS}")
    n, c, h, w = x.shape
    if kind == "max":
        return Tensor(x.arr.max(axis=(2, 3), keepdims=True))
    mean = exact_sum(x.arr.reshape(n, c, h * w), axis=-1) / (h * w)
    return Tensor(mean.astype(np.float32).reshape(n, c, 1, 1))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis; n/h/w must match."""
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ContractViolation(f"concat shape mismatch: {a.shape} vs {b.shape}")
    return Tensor(np.concatenate([a.arr, b.arr], axis=1))
