"""Seeded byte-flip and truncation fuzz of the files greenlite reads: a float
and an int8 container through load_any, a manifest through load_manifest,
and a PPM through `greenlite detect`. Every mutant is read or refused with a
typed error; none escapes as another exception."""

import contextlib
import io
import struct

import numpy as np
import pytest

from greenlite import ContainerError, ContractViolation, ManifestError, load_any, load_manifest, write_ppm
from greenlite.cli import main

TYPED = (ContainerError, ContractViolation, ManifestError)


def mutants(blob: bytes, seed: int, count: int, head: int):
    """count seeded mutants of blob: every fourth cut to a random length, the
    rest with 1-3 bytes XORed with a random nonzero value, half of those
    inside the first head bytes, where the format's header lives."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 4 == 0:
            yield blob[: int(rng.integers(len(blob)))]
            continue
        out = bytearray(blob)
        span = min(head, len(blob)) if i % 2 else len(blob)
        for pos in rng.integers(span, size=int(rng.integers(1, 4))):
            out[pos] ^= int(rng.integers(1, 256))
        yield bytes(out)


def read_or_refuse(fn, cases) -> dict:
    """Counts of the cases fn reads and of those it refuses with a typed error."""
    outcomes = {"read": 0, "refused": 0}
    for case in cases:
        try:
            fn(case)
        except TYPED:
            outcomes["refused"] += 1
        else:
            outcomes["read"] += 1
    return outcomes


@pytest.mark.parametrize("kind", ["float", "int8"])
def test_mutated_container_bytes_fail_typed_or_load(fuzz_subjects, kind):
    blob = fuzz_subjects[kind]
    (meta_len,) = struct.unpack("<I", blob[4:8])
    outcomes = read_or_refuse(load_any, mutants(blob, 31, 400, 8 + meta_len))
    assert min(outcomes.values()) > 0, outcomes


def test_mutated_manifest_bytes_fail_typed_or_load(tmp_path):
    blob = (
        "images/a.ppm\t320\t240\t0:0.500000:0.500000:0.250000:0.250000\n"
        "images/b.ppm\t100\t100\t1:0.300000:0.300000:0.100000:0.100000,"
        "2:0.700000:0.700000:0.200000:0.200000\n"
        "images/c.ppm\t64\t64\t\n"
    ).encode()
    path = tmp_path / "m.tsv"

    def load(mutant):
        path.write_bytes(mutant)
        load_manifest(path)

    outcomes = read_or_refuse(load, mutants(blob, 32, 300, len(blob)))
    assert min(outcomes.values()) > 0, outcomes


def test_mutated_ppm_bytes_exit_zero_or_two_through_detect(fuzz_subjects, tmp_path):
    model = tmp_path / "m.glw"
    model.write_bytes(fuzz_subjects["float"])
    image = tmp_path / "img.ppm"
    pixels = np.random.default_rng(3).integers(0, 256, (16, 24, 3), dtype=np.uint8)
    write_ppm(str(image), pixels)
    blob = image.read_bytes()
    codes = {0: 0, 2: 0}
    for mutant in mutants(blob, 33, 300, len(blob) - pixels.size):
        image.write_bytes(mutant)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["detect", "--model", str(model), "--image", str(image)])
        assert code in codes, mutant[:32]
        codes[code] += 1
    assert min(codes.values()) > 0, codes
