"""Dense NCHW float32 tensors and the float inference kernels.

A Tensor is a shape-(n, c, h, w) row-major float32 payload; every payload
registers its byte size with the instrumented allocator in
greenlite.profiling so peak live tensor bytes can be measured. Kernels are
pure functions returning fresh tensors, deterministic for identical inputs.

Float semantics: inputs and outputs are float32; convolution, batch norm
and the activations accumulate in float64 internally (wider accumulation
is allowed, outputs are rounded once to float32 at the end). The float and
int8 convs share one shape check, conv_geometry, and one GEMM, conv_gemm,
which runs in bands of output rows of about BUDGET bytes of patch matrix
each and finishes every band (float32 rounding, or the int8 multiplier and
code map) into one preallocated output, so a conv's scratch stays near
BUDGET instead of growing with the plane. Band height does not change a
result: the int8 accumulators are exact integers, and the float conv's
bands match a whole-plane run bit for bit (tests/test_tensor.py). Average
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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolation
from .profiling import TRACKER

POOL_KINDS = ("max", "avg")

# Elements per float64 block in _float64_blocks, for bn and the activations:
# 256 KB each, so a chunk's chain of temporaries stays inside one core's L2.
CHUNK = 32_768

# Bytes of patch matrix per band of output rows in conv_gemm (a band is at
# least one row), so a conv's scratch stays near 1 MiB whatever its plane size.
BUDGET = 1 << 20


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
        TRACKER.track(self, self.arr.size * 4)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(int(d) for d in self.arr.shape)  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"Tensor{self.shape}"


def conv_geometry(weight_shape, bias_shape, stride, padding, groups) -> tuple[int, int, int]:
    """(in_channels, out_channels, k) of a conv, float or int8, whose weight
    has shape (out_channels, in_channels // groups, k, k), each dim >= 1,
    bias shape (out_channels,), stride >= 1, padding >= 0 and groups dividing
    out_channels; else ContractViolation."""
    if len(weight_shape) != 4:
        raise ContractViolation(f"conv weight must be 4-d, got ndim={len(weight_shape)}")
    oc, icg, kh, kw = weight_shape
    if min(weight_shape) < 1:
        raise ContractViolation(f"conv weight dims must be >= 1, got {tuple(weight_shape)}")
    if kh != kw:
        raise ContractViolation(f"conv kernels must be square, got {kh}x{kw}")
    if tuple(bias_shape) != (oc,):
        raise ContractViolation(f"conv bias must have shape ({oc},), got {tuple(bias_shape)}")
    if groups < 1 or oc % groups != 0:
        raise ContractViolation(f"groups must divide out_channels: groups={groups}, out={oc}")
    if stride < 1 or padding < 0:
        raise ContractViolation(f"stride must be >= 1 and padding >= 0, got {stride} and {padding}")
    return icg * groups, oc, kh


@dataclass
class ConvSpec:
    """Weights and geometry of one 2-d convolution.

    weight has shape (out_channels, in_channels // groups, k, k) and bias
    shape (out_channels,); kernels are square (conv_geometry).
    """

    weight: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self) -> None:
        self.weight = np.ascontiguousarray(self.weight, dtype=np.float32)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float32)
        self.in_channels, self.out_channels, self.kernel = conv_geometry(
            self.weight.shape, self.bias.shape, self.stride, self.padding, self.groups
        )


def _out_dim(size: int, k: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - k) // stride + 1
    if out < 1:
        raise ContractViolation(
            f"kernel {k} stride {stride} padding {padding} does not fit extent {size}"
        )
    return out


def _padded(arr: np.ndarray, padding: int, fill) -> np.ndarray:
    """arr with `padding` cells of fill around its last two axes, in arr's
    dtype; arr itself when padding is 0."""
    if padding == 0:
        return arr
    n, c, h, w = arr.shape
    out = np.full((n, c, h + 2 * padding, w + 2 * padding), fill, dtype=arr.dtype)
    out[:, :, padding : padding + h, padding : padding + w] = arr
    return out


def patches(arr: np.ndarray, k: int, stride: int, padding: int, fill, dtype) -> np.ndarray:
    """(n, c, h, w) array -> (n, c*k*k, oh*ow) patch matrix in dtype.

    arr is padded with fill in its own dtype, and each window is copied
    straight into dtype. conv_gemm passes each band of its already padded
    input with padding 0; average pooling pads here, and the padded plane
    is a temporary, freed on return.
    """
    n, c, h, w = arr.shape
    oh = _out_dim(h, k, stride, padding)
    ow = _out_dim(w, k, stride, padding)
    padded = _padded(arr, padding, fill)
    cols = np.empty((n, c, k, k, oh, ow), dtype=dtype)
    for ky in range(k):
        for kx in range(k):
            cols[:, :, ky, kx] = padded[
                :, :, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride
            ]
    return cols.reshape(n, c * k * k, oh * ow)


def conv_gemm(
    weight: np.ndarray, bias: np.ndarray, stride: int, padding: int, groups: int, fill, arr: np.ndarray,
    finish: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Grouped, strided conv of an (n, c, h, w) array as GEMMs in bias's
    dtype: conv2d's in float64 with fill 0, the int8 accumulator's in float32
    or float64 with fill z_in.

    The input is padded with fill once. Each band of output rows, about
    BUDGET bytes of patch matrix, gets its own patches, one matmul against
    the cast weights and the bias; finish(acc) then turns the band's
    accumulator into its final values, stored into one output in their
    dtype. Without finish the output is the accumulator itself.
    """
    n, c, h, w = arr.shape
    oc, icg, k, _ = weight.shape
    oh = _out_dim(h, k, stride, padding)
    ow = _out_dim(w, k, stride, padding)
    rows = max(1, BUDGET // (bias.dtype.itemsize * n * c * k * k * ow))
    padded = _padded(arr, padding, fill)
    wmat = weight.reshape(groups, oc // groups, icg * k * k).astype(bias.dtype)
    out = None
    for lo in range(0, oh, rows):
        hi = min(lo + rows, oh)
        band = padded[:, :, lo * stride : (hi - 1) * stride + k]
        cols = patches(band, k, stride, 0, fill, bias.dtype).reshape(n, groups, icg * k * k, -1)
        acc = np.matmul(wmat[None], cols).reshape(n, oc, hi - lo, ow)
        del cols
        acc += bias.reshape(1, oc, 1, 1)
        if finish is not None:
            acc = finish(acc)
        if out is None:
            out = np.empty((n, oc, oh, ow), dtype=acc.dtype)
        out[:, :, lo:hi] = acc
    return out


def conv2d(x: Tensor, spec: ConvSpec) -> Tensor:
    """Grouped, strided, zero-padded cross-correlation."""
    c = x.shape[1]
    if c != spec.in_channels:
        raise ContractViolation(f"conv expects {spec.in_channels} input channels, tensor has {c}")
    # the float64 accumulator of each band is rounded once to float32
    return Tensor(conv_gemm(spec.weight, spec.bias.astype(np.float64), spec.stride, spec.padding,
                            spec.groups, 0, x.arr, finish=lambda acc: acc.astype(np.float32)))


def _float64_blocks(x: Tensor, fn: Callable[..., np.ndarray], *per_row: np.ndarray) -> Tensor:
    """fn(block, *rows of per_row) on float64 copies of blocks of x's whole
    (n * c) rows, about CHUNK elements each (one row when a row is longer),
    each rounded once to float32 into a fresh tensor; fn may work in place.
    """
    n, c, h, w = x.arr.shape
    rows = x.arr.reshape(n * c, h * w)
    out = np.empty_like(rows)
    step = max(1, CHUNK // (h * w))
    for lo in range(0, n * c, step):
        block = slice(lo, lo + step)
        out[block] = fn(rows[block].astype(np.float64), *[a[block] for a in per_row])
    return Tensor(out.reshape(n, c, h, w))


def batchnorm_infer(
    x: Tensor,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float,
) -> Tensor:
    """Inference-mode batch norm: gamma * (x - mean) / sqrt(var + eps) + beta.

    Each element is x * scale + shift in float64, rounded once to float32,
    one block of whole channel rows at a time (_float64_blocks).
    """
    n, c, _, _ = x.shape
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

    def affine(block: np.ndarray, row_scale: np.ndarray, row_shift: np.ndarray) -> np.ndarray:
        block *= row_scale
        block += row_shift
        return block

    return _float64_blocks(x, affine, np.tile(scale, n)[:, None], np.tile(shift, n)[:, None])


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
    # 0 <= e <= 1, so the max picks 1 for z >= 0 and e otherwise; NaN stays NaN
    out = (z >= 0).astype(np.float64)
    np.maximum(e, out, out=out)
    e += 1.0
    out /= e
    return out


def _silu64(z: np.ndarray) -> np.ndarray:
    y = _sigmoid64(z)
    y *= z
    return y


# The activation functions on float64 arrays, for the float kernel and the int8 lookup tables alike.
ACTIVATIONS = {"silu": _silu64, "sigmoid": _sigmoid64, "identity": lambda z: z}
ACTIVATION_KINDS = tuple(ACTIVATIONS)


def activation(x: Tensor, kind: str) -> Tensor:
    """Pointwise silu / sigmoid / identity, in float64 and rounded once to
    float32, one block of whole channel rows at a time (_float64_blocks).
    """
    if kind not in ACTIVATION_KINDS:
        raise ContractViolation(f"unknown activation {kind!r}, expected one of {ACTIVATION_KINDS}")
    return _float64_blocks(x, ACTIVATIONS[kind])


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
    padded = _padded(arr, padding, fill)
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
    # -0.0 padding leaves every correctly rounded sum, and a zero sum's sign, unchanged.
    windows = patches(x.arr, kernel, s, padding, np.float32(-0.0), np.float32)
    sums = exact_sum(windows.reshape(n, c, kernel * kernel, oh * ow), axis=2)
    cells = patches(np.ones((1, 1, h, w), np.float32), kernel, s, padding, 0, np.float32).sum(axis=1)
    return Tensor((sums / cells).astype(np.float32).reshape(n, c, oh, ow))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis; n/h/w must match."""
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ContractViolation(f"concat shape mismatch: {a.shape} vs {b.shape}")
    return Tensor(np.concatenate([a.arr, b.arr], axis=1))
