"""Weights container tests: layout golden rules, round trips, corruption."""

import contextlib
import copy
import io
import json
import struct
import tracemalloc

import numpy as np
import pytest

from greenlite import (
    ContainerError,
    ContractViolation,
    QuantizedModel,
    Tensor,
    build_model,
    forward,
    forward_quantized,
    load_any,
    load_model,
    save_model,
    save_model_bytes,
    write_ppm,
)
from greenlite.cli import main
from greenlite.container import ALIGN, MAGIC, read_container, write_container


def sample_tensors(rng):
    return [
        ("a.weight", rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32)),
        ("a.bias", rng.uniform(-1, 1, 4).astype(np.float32)),
        ("q", rng.integers(-128, 128, (2, 5), dtype=np.int8)),
        ("acc", rng.integers(-(2**31), 2**31, 7, dtype=np.int32)),
        ("scale", rng.uniform(0.001, 1.0, 3).astype(np.float64)),
    ]


def test_round_trip_preserves_doc_and_tensors():
    rng = np.random.default_rng(1)
    tensors = sample_tensors(rng)
    doc = {"container": "float", "nested": {"k": [1, 2, 3]}, "note": "x"}
    blob = write_container(doc, tensors)
    back_doc, back = read_container(blob)
    assert back_doc == doc
    assert list(back) == [k for k, _ in tensors]
    for key, arr in tensors:
        assert back[key].dtype == arr.dtype
        assert np.array_equal(back[key], arr)


def test_serialization_is_canonical():
    rng = np.random.default_rng(2)
    tensors = sample_tensors(rng)
    a = write_container({"b": 1, "a": 2}, tensors)
    b = write_container({"a": 2, "b": 1}, tensors)
    assert a == b


def test_layout_walk_recounts_total_size():
    """Independent byte accounting: header, then 64-byte-aligned payloads."""
    rng = np.random.default_rng(3)
    tensors = sample_tensors(rng)
    doc = {"container": "float"}
    blob = write_container(doc, tensors)
    assert blob[:4] == MAGIC
    (meta_len,) = struct.unpack("<I", blob[4:8])
    meta = json.loads(blob[8 : 8 + meta_len].decode("utf-8"))
    pos = 8 + meta_len
    for entry, (_, arr) in zip(meta["tensors"], tensors):
        if pos % ALIGN:
            pos += ALIGN - pos % ALIGN
        assert pos % ALIGN == 0
        assert entry["shape"] == list(arr.shape)
        pos += arr.size * arr.dtype.itemsize
    assert pos == len(blob)


def test_model_container_starts_payloads_aligned():
    blob = save_model_bytes(build_model(num_classes=2, width_multiple=0.0625, input_size=64))
    (meta_len,) = struct.unpack("<I", blob[4:8])
    first = 8 + meta_len
    if first % ALIGN:
        first += ALIGN - first % ALIGN
    # the first payload offset is a multiple of 64 measured from byte 0
    assert first % ALIGN == 0 and first <= len(blob)


def test_duplicate_keys_and_bad_dtypes_are_rejected():
    arr = np.zeros(3, dtype=np.float32)
    with pytest.raises(ContainerError):
        write_container({}, [("x", arr), ("x", arr)])
    with pytest.raises(ContainerError):
        write_container({}, [("x", np.zeros(3, dtype=np.float16))])


def test_corrupt_containers_are_rejected():
    rng = np.random.default_rng(4)
    blob = write_container({"container": "float"}, sample_tensors(rng))
    with pytest.raises(ContainerError):
        read_container(b"NOPE" + blob[4:])
    with pytest.raises(ContainerError):
        read_container(blob[: len(blob) - 5])  # truncated payload
    with pytest.raises(ContainerError):
        read_container(blob + b"\x00")  # trailing bytes
    (meta_len,) = struct.unpack("<I", blob[4:8])
    broken = blob[:8] + b"{" * meta_len + blob[8 + meta_len :]
    with pytest.raises(ContainerError):
        read_container(broken)


def test_deeply_nested_metadata_is_a_container_error(tmp_path, capsys):
    """json recurses once per level, so this nesting would otherwise escape as a RecursionError."""
    meta = b"[" * 10_000 + b"]" * 10_000
    path = tmp_path / "nested.glw"
    path.write_bytes(MAGIC + struct.pack("<I", len(meta)) + meta)
    with pytest.raises(ContainerError, match="not valid JSON"):
        load_any(path.read_bytes())
    image = tmp_path / "img.ppm"
    write_ppm(str(image), np.zeros((8, 8, 3), dtype=np.uint8))
    assert main(["detect", "--model", str(path), "--image", str(image)]) == 2
    assert "container metadata is not valid JSON" in capsys.readouterr().err


def test_empty_tensor_list_is_allowed():
    doc, tensors = read_container(write_container({"container": "x"}, []))
    assert doc == {"container": "x"}
    assert tensors == {}


def test_read_from_file_path(tmp_path):
    rng = np.random.default_rng(5)
    blob = write_container({"container": "float"}, sample_tensors(rng))
    p = tmp_path / "t.glw"
    p.write_bytes(blob)
    doc, tensors = read_container(p)
    assert doc == {"container": "float"}
    assert len(tensors) == 5


def test_loading_holds_the_container_bytes_once(tmp_path):
    """Every tensor is a writable view into the one buffer the file is read
    into, so the load's tracemalloc peak stays near the container's size."""
    path = tmp_path / "model.glw"
    size = save_model(build_model(7), str(path))
    load_model(str(path))  # warm-up: lazy imports and numpy set-up are not the load's
    tracemalloc.start()
    try:
        model = load_model(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * size, (peak, size)
    arrays = [arr for slot in model.weights.values() for arr in slot.values()]
    assert all(arr.flags.writeable and arr.flags.aligned for arr in arrays)
    owners = []
    for arr in arrays:
        while isinstance(arr, np.ndarray):
            arr = arr.base
        owners.append(arr.obj if isinstance(arr, memoryview) else arr)
    assert isinstance(owners[0], bytearray) and all(o is owners[0] for o in owners)
    for blob in (path.read_bytes(), bytearray(path.read_bytes())):
        _, tensors = read_container(blob)
        arr = next(iter(tensors.values()))
        arr.reshape(-1)[0] += 1  # writable, and a copy: the input is left as it was
        assert blob == path.read_bytes()


# ---- mutation fuzz of model container documents ----

DELETE = object()
RETYPES = (None, True, 1.5, "x", [], {})


def _fuzz_paths(doc, rng):
    """Document paths to mutate: every top-level key; every field of one
    seeded pick of each layer kind, and of its attrs; every meta field; every
    field of two seeded act_params entries (int8 only)."""
    by_kind = {}
    for i, layer in enumerate(doc["layers"]):
        by_kind.setdefault(layer["kind"], []).append(i)
    paths = [(key,) for key in sorted(doc)]
    for kind in sorted(by_kind):
        i = int(rng.choice(by_kind[kind]))
        layer = doc["layers"][i]
        paths += [("layers", i, key) for key in sorted(layer)]
        paths += [("layers", i, "attrs", key) for key in sorted(layer["attrs"])]
    paths += [("meta", key) for key in sorted(doc["meta"])]
    if "act_params" in doc:
        for key in rng.choice(sorted(doc["act_params"]), 2, replace=False):
            paths += [("act_params", str(key), field) for field in ("scale", "zero_point")]
    return paths


def _value_mutations(doc, tensors, rng):
    """(case, document, tensors) triples with values out of range: a seeded
    entry of each of three seeded */w_scale tensors set to NaN, inf, 0 and
    -1, and two seeded act_params scales set to 1e308 and 5e-324."""
    keys = sorted(key for key in tensors if key.endswith("/w_scale"))
    for key in rng.choice(keys, 3, replace=False):
        for value in (np.nan, np.inf, 0.0, -1.0):
            arr = tensors[key].copy()
            i = int(rng.integers(len(arr)))
            arr[i] = value
            yield f"{key}[{i}] -> {value}", doc, {**tensors, key: arr}
    for key in rng.choice(sorted(doc["act_params"]), 2, replace=False):
        for value in (1e308, 5e-324):
            mutated = _mutated(doc, ("act_params", str(key), "scale"), value)
            yield f"act_params {key} scale -> {value}", mutated, tensors


MUST_REFUSE = ("last element dropped", "stored as float32", "stored as float64")


def _tensor_mutations(doc, tensors, rng, kind):
    """(case, document, tensors) triples for one seeded tensor of each array
    name: its last element along the last axis dropped, a leading axis of
    length 1 added and, in the int8 container, a tensor that is not float32
    already stored as float32 or, in the float container, stored as float64.
    Cases ending in MUST_REFUSE must be refused at load; the rest may also
    load and run (a (1, oc) w_scale keeps its meaning)."""
    by_name = {}
    for key in sorted(tensors):
        by_name.setdefault(key.rpartition("/")[2], []).append(key)
    for name in sorted(by_name):
        key = str(rng.choice(by_name[name]))
        arr = tensors[key]
        yield f"{key}: last element dropped", doc, {**tensors, key: arr[..., :-1]}
        yield f"{key}: leading axis added", doc, {**tensors, key: arr[None]}
        if kind == "int8" and arr.dtype != np.float32:
            yield f"{key}: stored as float32", doc, {**tensors, key: arr.astype(np.float32)}
        if kind == "float":
            yield f"{key}: stored as float64", doc, {**tensors, key: arr.astype(np.float64)}


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", ["float", "int8"])
def test_mutated_container_documents_fail_typed_or_run(fuzz_subjects, tmp_path, kind):
    """Each top-level key and each field of a seeded sample of layers, their
    attrs, the meta and the act_params entries is deleted or retyped to null,
    true, 1.5, "x", [] or {}; in the int8 container, weight and activation
    scales are also set out of range (_value_mutations). A seeded tensor of
    each array name is cut, given a leading axis or retyped
    (_tensor_mutations). Loading raises ContainerError or ContractViolation or
    gives a model whose forward runs (with no RuntimeWarning, which pytest
    makes an error); `greenlite detect` exits 0 or 2."""
    doc, tensors = read_container(fuzz_subjects[kind])
    image = tmp_path / "img.ppm"
    write_ppm(str(image), np.random.default_rng(1).integers(0, 256, (48, 80, 3), dtype=np.uint8))
    x = Tensor(np.random.default_rng(2).uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
    rng = np.random.default_rng(20251)
    cli_rng = np.random.default_rng(20252)
    path = tmp_path / "m.glw"
    outcomes = {"loaded": 0, "refused": 0}
    cases = [
        (f"{where} -> {'deleted' if value is DELETE else repr(value)}", _mutated(doc, where, value), tensors)
        for where in _fuzz_paths(doc, rng)
        for value in (DELETE, *RETYPES)
    ]
    if kind == "int8":
        cases += _value_mutations(doc, tensors, np.random.default_rng(20253))
    cases += _tensor_mutations(doc, tensors, np.random.default_rng(20254), kind)
    for case, mutated_doc, mutated_tensors in cases:
        blob = write_container(mutated_doc, list(mutated_tensors.items()))
        try:
            model = load_any(blob)
        except (ContainerError, ContractViolation):
            outcomes["refused"] += 1
            if cli_rng.random() > 0.1:  # detect on every model that loads, a tenth of the rest
                continue
        else:
            outcomes["loaded"] += 1
            assert not case.endswith(MUST_REFUSE), case
            run = forward_quantized if isinstance(model, QuantizedModel) else forward
            assert run(model, x).shape[:2] == (1, 6), case
        path.write_bytes(blob)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["detect", "--model", str(path), "--image", str(image),
                         "--conf", "0", "--emit", "json"])
        assert code in (0, 2), case
    assert min(outcomes.values()) > 0, outcomes
