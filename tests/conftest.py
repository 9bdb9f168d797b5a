"""Shared fixtures.

Session-scoped fixtures deliberately hold only file paths and plain floats.
Tensors and models are constructed per test so the live-tensor tracker
starts every memory assertion from an empty baseline.
"""

import gc
import math
import threading
import types

import numpy as np
import pytest

from greenlite import (
    TRACKER,
    Tensor,
    build_model,
    calibrate,
    letterbox,
    load_manifest,
    quantize_model,
    read_ppm,
    save_manifest,
    save_model_bytes,
    synth_dataset,
)
from greenlite import tensor as gl_tensor
from greenlite.quant import save_quantized_bytes


@pytest.fixture(scope="session")
def synth_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthset")
    ds = synth_dataset(root, num_images=16, num_classes=7, max_boxes_per_image=3, image_size=320, seed=5)
    save_manifest(ds, root / "manifest.tsv")
    return root


@pytest.fixture(scope="session")
def synth_manifest(synth_root):
    return synth_root / "manifest.tsv"


def load_tensors(manifest_path, limit, target=320):
    """Letterboxed input tensors for the first `limit` manifest rows."""
    ds = load_manifest(manifest_path)
    tensors = []
    for img in ds.images[:limit]:
        px = read_ppm(manifest_path.parent / img.image_path)
        t, _ = letterbox(px.tobytes(), img.width, img.height, target)
        tensors.append(t)
    return tensors


@pytest.fixture(scope="session")
def calib_stats(synth_manifest):
    """Activation ranges for the default 7-class build over 8 images.

    calibrate returns a dict of {slot: (min, max)} floats, so keeping it
    alive for the whole session does not disturb memory-tracking tests.
    """
    model = build_model(num_classes=7)
    stats = calibrate(model, load_tensors(synth_manifest, 8))
    del model
    gc.collect()
    return stats


@pytest.fixture(scope="session")
def fuzz_subjects():
    """The bytes of a tiny float container and of its int8 twin."""
    model = build_model(2, width_multiple=0.0625, input_size=64)
    rng = np.random.default_rng(0)
    images = [Tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)) for _ in range(2)]
    return {
        "float": save_model_bytes(model),
        "int8": save_quantized_bytes(quantize_model(model, calibrate(model, images))),
    }


@pytest.fixture
def fsum_rows(monkeypatch):
    """Record each row that tensor.exact_sum hands to math.fsum."""
    rows = []

    def fsum(values):
        rows.append(values)
        return math.fsum(values)

    monkeypatch.setattr(gl_tensor, "math", types.SimpleNamespace(fsum=fsum))
    return rows


@pytest.fixture(autouse=True)
def _collect_garbage():
    """Keep finalizer-driven tracker bookkeeping deterministic across tests."""
    yield
    gc.collect()


def assert_tracker_empty():
    gc.collect()
    assert TRACKER.current_bytes == 0, "stray live tensors would skew this test"


def returns_within(fn, timeout=10.0):
    """fn()'s result, run in a daemon thread so that a deadlock fails the
    test after timeout seconds instead of hanging the run."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn()
        except BaseException as exc:  # noqa: BLE001  (re-raised in the test's thread)
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"did not return within {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]
