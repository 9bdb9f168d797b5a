"""GLW1 weights container: one JSON document plus aligned raw tensors.

Layout, front to back:
  bytes 0..3    magic "GLW1"
  bytes 4..7    u32 little-endian metadata length
  metadata      UTF-8 JSON (caller document plus a "tensors" manifest)
  payloads      each tensor's raw little-endian bytes, in manifest order,
                starting on a 64-byte boundary measured from byte 0

The reported model size is the exact container byte length. Serialization
is canonical (sorted JSON keys, fixed separators), so identical inputs
produce bit-identical containers.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import ContainerError

MAGIC = b"GLW1"
ALIGN = 64

_DTYPES = {"f32": "<f4", "i8": "i1", "i32": "<i4", "f64": "<f8"}
_NP_TO_TAG = {("f", 4): "f32", ("i", 1): "i8", ("i", 4): "i32", ("f", 8): "f64"}


def _dtype_tag(arr: np.ndarray) -> str:
    key = (arr.dtype.kind, arr.dtype.itemsize)
    if key not in _NP_TO_TAG:
        raise ContainerError(f"unsupported tensor dtype {arr.dtype}")
    return _NP_TO_TAG[key]


def write_container(doc: dict, tensors: list[tuple[str, np.ndarray]]) -> bytes:
    """Serialize a metadata document and named tensors to container bytes."""
    manifest = []
    seen: set[str] = set()
    for key, arr in tensors:
        if key in seen:
            raise ContainerError(f"duplicate tensor key {key!r}")
        seen.add(key)
        manifest.append({"key": key, "dtype": _dtype_tag(arr), "shape": list(arr.shape)})
    meta = dict(doc)
    meta["tensors"] = manifest
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", len(meta_bytes))
    out += meta_bytes
    for (_, arr), entry in zip(tensors, manifest):
        if len(out) % ALIGN:
            out += b"\x00" * (ALIGN - len(out) % ALIGN)
        out += np.ascontiguousarray(arr).astype(_DTYPES[entry["dtype"]]).tobytes()
    return bytes(out)


def save(blob: bytes, path) -> int:
    """Write container bytes to a file; returns their count, the model size."""
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def require(mapping: dict, key: str, kind: type = object):
    """mapping[key] from a read container's document or tensors; a missing key,
    a document entry that is not a mapping, or a value not of kind is malformed."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ContainerError(f"container is missing {key!r}")
    if not isinstance(mapping[key], kind):
        raise ContainerError(f"container {key!r} must be a {kind.__name__}, got {mapping[key]!r}")
    return mapping[key]


def read_container(path_or_bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse container bytes (or a file path) back to (document, tensors).

    The container is held in one bytearray (a file is read into it, bytes
    are copied into it once) and every tensor is a writable view into it, so
    loading holds the container's bytes once.
    """
    if isinstance(path_or_bytes, (bytes, bytearray)):
        blob = bytearray(path_or_bytes)
    else:
        with open(path_or_bytes, "rb") as fh:
            blob = bytearray(os.fstat(fh.fileno()).st_size)
            del blob[fh.readinto(blob) :]
            blob += fh.read()  # whatever the size did not count (a pipe, a growing file)
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise ContainerError("not a GLW1 container (bad magic)")
    (meta_len,) = struct.unpack("<I", blob[4:8])
    if 8 + meta_len > len(blob):
        raise ContainerError("container truncated inside metadata")
    try:  # json recurses once per nesting level, so deep nesting raises RecursionError
        meta = json.loads(blob[8 : 8 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ContainerError(f"container metadata is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict) or "tensors" not in meta:
        raise ContainerError("container metadata is missing the tensor manifest")
    manifest = meta.pop("tensors")
    if not isinstance(manifest, list):
        raise ContainerError("container tensor manifest is not a list")
    pos = 8 + meta_len
    tensors: dict[str, np.ndarray] = {}
    for entry in manifest:
        key, tag, shape = (require(entry, name) for name in ("key", "dtype", "shape"))
        if not isinstance(key, str):
            raise ContainerError(f"tensor key {key!r} is not a string")
        if key in tensors:
            raise ContainerError(f"duplicate tensor key {key!r}")
        if not isinstance(tag, str) or tag not in _DTYPES:
            raise ContainerError(f"tensor {key!r} has unknown dtype {tag!r}")
        # type(d) is int: JSON true/false load as bools, an int subclass
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ContainerError(f"tensor {key!r} shape {shape!r} is not a list of dims >= 0")
        if pos % ALIGN:
            pos += ALIGN - pos % ALIGN
        dtype = np.dtype(_DTYPES[tag])
        count = math.prod(shape)
        nbytes = count * dtype.itemsize
        if pos + nbytes > len(blob):
            raise ContainerError(f"container truncated inside tensor {key!r}")
        tensors[key] = np.frombuffer(blob, dtype=dtype, count=count, offset=pos).reshape(shape)
        pos += nbytes
    if pos != len(blob):
        raise ContainerError(f"{len(blob) - pos} trailing bytes after last tensor")
    return meta, tensors
