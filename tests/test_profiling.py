"""Profiler tests: tracked memory, latency stats, energy/carbon bookkeeping."""

import gc
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greenlite
from conftest import assert_tracker_empty, load_tensors, returns_within
from greenlite import (
    ContractViolation,
    EMISSIONS_CSV_HEADER,
    EmissionRecord,
    LatencyStats,
    STAGES,
    TRACKER,
    Tensor,
    build_model,
    calibrate,
    emissions,
    estimate_energy,
    forward,
    forward_quantized,
    load_quantized,
    parse_stage_report,
    quantize_model,
    resolve_energy_settings,
    stage_report,
    track_memory,
)
from greenlite.quant import save_quantized_bytes


# ---- memory tracking ----


def test_track_memory_counts_exact_payload_bytes():
    """One float32 tensor of shape (1, 3, 320, 320) is 1228800 bytes."""
    assert_tracker_empty()

    def act():
        Tensor(np.zeros((1, 3, 320, 320), dtype=np.float32))

    stats = track_memory(act)
    assert stats.peak_live_tensor_bytes == 1 * 3 * 320 * 320 * 4
    assert stats.peak_live_tensor_bytes == 1228800
    assert stats.allocation_count == 1
    assert stats.current_live_tensor_bytes == 0


def test_sequential_tensors_do_not_stack_in_the_peak():
    assert_tracker_empty()

    def act():
        a = Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
        del a
        b = Tensor(np.ones((1, 1, 8, 8), dtype=np.float32))
        del b

    stats = track_memory(act)
    assert stats.allocation_count == 2
    assert stats.peak_live_tensor_bytes == 8 * 8 * 4
    assert stats.current_live_tensor_bytes == 0


def test_tensors_alive_before_the_window_count_toward_the_peak():
    assert_tracker_empty()
    held = Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
    stats = track_memory(lambda: None)
    assert stats.peak_live_tensor_bytes == 16 * 16 * 4
    assert stats.current_live_tensor_bytes == 16 * 16 * 4
    assert stats.allocation_count == 0
    del held


@pytest.mark.parametrize("before_inner, in_inner", [(64, 8), (8, 64)])
def test_memory_windows_nest(before_inner, in_inner):
    """A window inside another returns, reports its own peak, and leaves the
    outer peak at the larger of what the outer window saw before it and the
    inner peak."""
    assert_tracker_empty()
    inner = []

    def outer_action():
        Tensor(np.zeros((1, 1, before_inner, before_inner), dtype=np.float32))
        inner.append(track_memory(lambda: Tensor(np.zeros((1, 1, in_inner, in_inner), dtype=np.float32))))

    outer = returns_within(lambda: track_memory(outer_action))
    assert inner[0].peak_live_tensor_bytes == in_inner**2 * 4
    assert inner[0].allocation_count == 1
    assert outer.peak_live_tensor_bytes == max(before_inner, in_inner) ** 2 * 4
    assert outer.peak_live_tensor_bytes >= inner[0].peak_live_tensor_bytes
    assert outer.allocation_count == 2


def test_a_failing_inner_window_keeps_the_outer_peak():
    assert_tracker_empty()

    def inner_action():
        raise RuntimeError("inner")

    def outer_action():
        Tensor(np.zeros((1, 1, 64, 64), dtype=np.float32))
        with pytest.raises(RuntimeError):
            track_memory(inner_action)

    assert returns_within(lambda: track_memory(outer_action)).peak_live_tensor_bytes == 64 * 64 * 4


GC_IN_A_WINDOW = """
import gc
import numpy as np
import greenlite as gl


def leave_cycle():
    t = gl.Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
    try:
        raise ValueError
    except ValueError as exc:
        kept = exc  # exc -> traceback -> this frame -> exc: a cycle holding t


for threshold in range(1, 41):
    gc.collect()
    gc.set_threshold(threshold)
    leave_cycle()
    gl.track_memory(lambda: None)
print("returned")
"""


def test_a_collection_inside_the_tracker_lock_does_not_hang():
    """A collection started while the tracker holds its lock can finalize a
    tensor, whose unregister then takes the lock on the same thread. Every
    gc threshold from 1 to 40 moves where that collection starts; the script
    runs in a subprocess because a hang here would block every later tensor."""
    env = dict(os.environ)
    src = str(Path(greenlite.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", GC_IN_A_WINDOW], capture_output=True, text=True, timeout=30, env=env
        )
    except subprocess.TimeoutExpired:
        pytest.fail("track_memory did not return: unregister waited on the lock its own thread held")
    assert proc.returncode == 0 and proc.stdout.strip() == "returned", proc.stderr


@pytest.mark.parametrize("per_stage, int8_bytes, dequantized_bytes", [
    (False, 1_066_338, 33_160),
    (True, 1_083_778, 78_248),
])
def test_a_loaded_int8_model_tracks_its_dequantized_cbam_weights(per_stage, int8_bytes, dequantized_bytes):
    """An int8 model holds each CBAM's dequantized mlp_w1, mlp_w2 and
    spatial_weight beside their int8 codes, so the tracker counts both. The
    CBAM biases are the int8 slot's own float32 arrays and count once."""
    m = build_model(7, seed=42, input_size=64, cbam_per_stage=per_stage)
    rng = np.random.default_rng(42)
    images = [Tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)) for _ in range(2)]
    blob = save_quantized_bytes(quantize_model(m, calibrate(m, images)))
    del m, images
    assert_tracker_empty()
    qm = load_quantized(blob)
    slots = (*qm.conv_weights.values(), *qm.cbam_weights.values())
    int8 = sum(arr.nbytes for slot in slots for arr in slot.values())
    dequantized = 0
    for slot, w in qm.cbam_weights.items():
        params = qm.cbam_params(slot)
        assert all(getattr(params, name) is w[name] for name in ("mlp_b1", "mlp_b2", "spatial_bias"))
        dequantized += sum(getattr(params, name).nbytes for name in ("mlp_w1", "mlp_w2", "spatial_weight"))
    assert (int8, dequantized) == (int8_bytes, dequantized_bytes)
    assert TRACKER.current_bytes == int8 + dequantized
    del qm
    assert_tracker_empty()


def test_quantized_forward_peaks_below_float_forward(synth_manifest):
    """int8 payloads shrink the live high-water mark even on a narrow model."""
    assert_tracker_empty()
    images = load_tensors(synth_manifest, 4, target=64)
    model = build_model(num_classes=7, width_multiple=0.0625, input_size=64)
    qmodel = quantize_model(model, calibrate(model, images))
    x = images[0]
    del images
    gc.collect()
    float_stats = track_memory(lambda: forward(model, x))
    del model
    gc.collect()
    quant_stats = track_memory(lambda: forward_quantized(qmodel, x))
    assert quant_stats.peak_live_tensor_bytes < float_stats.peak_live_tensor_bytes


# ---- latency ----


def test_latency_stats_nearest_rank_percentiles():
    stats = LatencyStats.from_samples([0.4, 0.1, 0.3, 0.2], warmup_count=2)
    assert stats.warmup_count == 2
    assert stats.sample_count == 4
    assert stats.mean_s == pytest.approx(0.25, rel=1e-12)
    assert stats.p50_s == 0.2
    assert stats.p95_s == 0.4
    assert stats.min_s == 0.1
    assert stats.max_s == 0.4

    many = LatencyStats.from_samples([float(i) for i in range(1, 21)])
    assert many.p50_s == 10.0
    assert many.p95_s == 19.0

    single = LatencyStats.from_samples([5.0])
    assert single.p50_s == single.p95_s == single.min_s == single.max_s == 5.0


def test_latency_stats_constant_samples_collapse():
    stats = LatencyStats.from_samples([0.125] * 9)
    assert stats.mean_s == stats.p50_s == stats.p95_s == stats.min_s == stats.max_s == 0.125


def test_latency_stats_need_samples():
    with pytest.raises(ContractViolation):
        LatencyStats.from_samples([])


@pytest.mark.parametrize(
    "samples, bad", [([1.0, float("nan"), 0.5], "nan"), ([-1.0], "-1.0"), ([0.2, float("inf")], "inf")]
)
def test_latency_stats_refuse_nan_infinite_and_negative_samples(samples, bad):
    with pytest.raises(ContractViolation, match=f"latency sample must be finite and >= 0, got {bad}"):
        LatencyStats.from_samples(samples)


# ---- energy and carbon ----


def test_energy_meter_fixtures():
    assert estimate_energy(100.0, 360.0) == 0.01
    assert estimate_energy(0.0, 1e6) == 0.0
    assert estimate_energy(2.0, 3.6e6) == 2.0
    # dyadic fixture where additivity is exact in float64
    assert estimate_energy(4.0, 1.8e6) + estimate_energy(4.0, 1.8e6) == estimate_energy(4.0, 3.6e6)


def test_energy_validation():
    with pytest.raises(ContractViolation):
        estimate_energy(-1.0, 10.0)
    with pytest.raises(ContractViolation):
        estimate_energy(10.0, float("nan"))
    with pytest.raises(ContractViolation):
        estimate_energy(10.0, float("inf"))


def test_emissions_fixtures():
    assert emissions(2.0, 0.5) == 1.0
    assert emissions(3.0, 0.0) == 0.0
    assert emissions(0.0, 10.0) == 0.0
    with pytest.raises(ContractViolation):
        emissions(-0.1, 0.5)
    with pytest.raises(ContractViolation):
        emissions(1.0, -0.5)


def test_emission_record_measure_is_self_consistent():
    rec = EmissionRecord("inference", 12.5)
    assert rec.stage == "inference"
    assert rec.power_watts_assumed == 15.0
    assert rec.intensity_kg_per_kwh == 0.475
    assert rec.energy_kwh == estimate_energy(15.0, 12.5)
    assert rec.carbon_kg == emissions(rec.energy_kwh, 0.475)
    custom = EmissionRecord("load", 2.0, power_watts_assumed=40.0, intensity_kg_per_kwh=0.2)
    assert custom.energy_kwh == estimate_energy(40.0, 2.0)
    assert custom.carbon_kg == custom.energy_kwh * 0.2


def test_emission_record_validates_fields():
    with pytest.raises(ContractViolation):
        EmissionRecord("training", 1.0)
    with pytest.raises(ContractViolation):
        EmissionRecord("load", -1.0)
    assert set(STAGES) == {"load", "calibrate", "quantize", "inference", "evaluate"}


# ---- stage report ----


def test_stage_report_empty():
    rep = stage_report([])
    assert rep.stages == ()
    assert rep.total_duration_s == 0.0
    assert rep.total_energy_kwh == 0.0
    assert rep.total_carbon_kg == 0.0


def test_stage_report_groups_in_canonical_order():
    recs = [
        EmissionRecord("evaluate", 0.5),
        EmissionRecord("load", 0.25),
        EmissionRecord("inference", 0.125),
        EmissionRecord("inference", 0.25),
    ]
    rep = stage_report(recs)
    assert [row[0] for row in rep.stages] == ["load", "inference", "evaluate"]
    by_stage = {row[0]: row for row in rep.stages}
    # dyadic durations make the grouped sums exact
    assert by_stage["inference"][1] == 0.375
    assert by_stage["inference"][2] == recs[2].energy_kwh + recs[3].energy_kwh
    assert rep.total_duration_s == 0.5 + 0.25 + 0.375
    assert rep.total_energy_kwh == math.fsum(r.energy_kwh for r in recs)
    assert rep.total_carbon_kg == math.fsum(r.carbon_kg for r in recs)


def test_stage_report_csv_round_trips_exactly():
    recs = [
        EmissionRecord("load", 1.234567891),
        EmissionRecord("quantize", 0.000123456, power_watts_assumed=500.0),
        EmissionRecord("evaluate", 99.5),
    ]
    rep = stage_report(recs)
    text = rep.to_csv()
    lines = text.splitlines()
    assert lines[0] == EMISSIONS_CSV_HEADER
    assert lines[-1].startswith("total,")
    assert text.endswith("\n")
    assert parse_stage_report(text) == rep
    for line in lines[1:]:  # 6 fixed decimals printed quantize's 1.7e-8 kWh as 0.000000
        _, _, kwh, kg = line.split(",")
        assert float(kwh) > 0.0 and float(kg) > 0.0, line


def test_parse_stage_report_refuses_a_total_row_that_is_not_the_sum():
    with pytest.raises(ContractViolation, match="the sum of its stage rows"):
        parse_stage_report(EMISSIONS_CSV_HEADER + "\nload,1.0,2.0,3.0\ntotal,2.0,2.0,3.0\n")
    with pytest.raises(ContractViolation, match="the sum of its stage rows"):
        parse_stage_report(EMISSIONS_CSV_HEADER + "\nload,1.0,2.0,3.0\n")


def test_parse_stage_report_rejects_malformed_text():
    with pytest.raises(ContractViolation):
        parse_stage_report("duration,energy\nload,1,2\n")
    with pytest.raises(ContractViolation):
        parse_stage_report(EMISSIONS_CSV_HEADER + "\nload,1.0,2.0\n")


# ---- energy settings ----


def test_energy_settings_precedence(monkeypatch):
    monkeypatch.delenv("GREENLITE_POWER_W", raising=False)
    monkeypatch.delenv("GREENLITE_INTENSITY", raising=False)
    assert resolve_energy_settings() == (15.0, 0.475)
    monkeypatch.setenv("GREENLITE_POWER_W", "30")
    assert resolve_energy_settings() == (30.0, 0.475)
    monkeypatch.setenv("GREENLITE_INTENSITY", "0.1")
    assert resolve_energy_settings() == (30.0, 0.1)
    monkeypatch.delenv("GREENLITE_POWER_W")
    assert resolve_energy_settings() == (15.0, 0.1)
    monkeypatch.setenv("GREENLITE_POWER_W", "-5")
    with pytest.raises(ContractViolation):
        resolve_energy_settings()


def test_energy_settings_name_the_source_of_a_bad_value(monkeypatch):
    """Each value given is checked, and the error names the variable it came from."""
    monkeypatch.delenv("GREENLITE_INTENSITY", raising=False)
    monkeypatch.setenv("GREENLITE_POWER_W", "abc")
    with pytest.raises(ContractViolation, match="GREENLITE_POWER_W must be a number, got 'abc'"):
        resolve_energy_settings()
    monkeypatch.setenv("GREENLITE_POWER_W", "20")
    monkeypatch.setenv("GREENLITE_INTENSITY", "-1")
    with pytest.raises(ContractViolation, match="GREENLITE_INTENSITY must be finite and >= 0, got -1.0"):
        resolve_energy_settings()
    monkeypatch.setenv("GREENLITE_INTENSITY", "1e999")
    with pytest.raises(ContractViolation, match="GREENLITE_INTENSITY must be finite and >= 0, got inf"):
        resolve_energy_settings()
