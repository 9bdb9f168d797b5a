"""Latency, peak tensor memory, and energy/carbon accounting.

Latency stats summarize samples that the caller times. Memory is tracked by
an instrumented allocator: every tensor payload registers its byte size on
creation and deregisters when the tensor is garbage collected, so the
tracker's tally is a VRAM proxy counting tensor payload bytes only (kernel
scratch buffers are not tensors and do not count). Tracked sections are
serialized by a module-level lock; results are only meaningful when the
measured action runs exclusively.

Energy follows the usual meter model: kWh = watts * seconds / 3.6e6, and
carbon is kWh times grid intensity. The defaults (15 W device draw, 0.475
kg CO2e per kWh world-average grid mix) can be overridden by the
GREENLITE_POWER_W / GREENLITE_INTENSITY environment variables.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import ContractViolation

DEFAULT_POWER_WATTS = 15.0
WORLD_AVG_INTENSITY = 0.475  # kg CO2e / kWh, world average grid mix
JOULES_PER_KWH = 3.6e6

ENV_POWER = "GREENLITE_POWER_W"
ENV_INTENSITY = "GREENLITE_INTENSITY"

STAGES = ("load", "calibrate", "quantize", "inference", "evaluate")

# Reentrant, so a measurement window can run inside another.
_tracking_lock = threading.RLock()


class MemoryTracker:
    """Shared atomic tally of live tensor payload bytes."""

    def __init__(self) -> None:
        # Reentrant: gc run under the lock can finalize a tensor, whose unregister takes it again.
        self._lock = threading.RLock()
        self._current = 0
        self._total_allocs = 0
        self._window_peak = 0

    def register(self, nbytes: int) -> None:
        with self._lock:
            self._current += nbytes
            self._total_allocs += 1
            if self._current > self._window_peak:
                self._window_peak = self._current

    def unregister(self, nbytes: int) -> None:
        with self._lock:
            self._current -= nbytes

    def track(self, owner: object, *sizes: int) -> None:
        """Register each payload size, and unregister their sum when owner
        is garbage collected."""
        for nbytes in sizes:
            self.register(nbytes)
        weakref.finalize(owner, self.unregister, sum(sizes))

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._current

    def _begin_window(self) -> tuple[int, int]:
        """Start a window; returns what _end_window needs: the allocation
        count so far and the peak of any window this one runs inside."""
        with self._lock:
            outer_peak, self._window_peak = self._window_peak, self._current
            return self._total_allocs, outer_peak

    def _end_window(self, allocs_before: int, outer_peak: int) -> "MemoryStats":
        with self._lock:
            stats = MemoryStats(
                peak_live_tensor_bytes=self._window_peak,
                current_live_tensor_bytes=self._current,
                allocation_count=self._total_allocs - allocs_before,
            )
            # An enclosing window's peak is the larger of its own and this one's.
            self._window_peak = max(self._window_peak, outer_peak)
            return stats


#: Global allocator instance every tensor payload registers with.
TRACKER = MemoryTracker()


@dataclass(frozen=True)
class MemoryStats:
    peak_live_tensor_bytes: int
    current_live_tensor_bytes: int
    allocation_count: int


@dataclass(frozen=True)
class LatencyStats:
    warmup_count: int
    sample_count: int
    mean_s: float
    p50_s: float
    p95_s: float
    min_s: float
    max_s: float

    @classmethod
    def from_samples(cls, samples: Iterable[float], warmup_count: int = 0) -> "LatencyStats":
        xs = sorted(float(s) for s in samples)
        for x in xs:
            _check_amount("latency sample", x)
        if not xs:
            raise ContractViolation("latency stats need at least one sample")
        n = len(xs)
        # Nearest-rank percentiles: p50 == p95 == mean for constant samples.
        p50 = xs[math.ceil(0.50 * n) - 1]
        p95 = xs[math.ceil(0.95 * n) - 1]
        return cls(warmup_count, n, math.fsum(xs) / n, p50, p95, xs[0], xs[-1])


def track_memory(action: Callable[[], object]) -> MemoryStats:
    """Measure peak live tensor bytes while action runs.

    Peak is the maximum of the global live tally during the window, so
    tensors allocated before the window (e.g. loaded model weights) count
    toward the peak as long as they stay alive, which is what a VRAM proxy
    should report. A window may run inside another; the outer peak then
    includes the inner one.
    """
    with _tracking_lock:
        window = TRACKER._begin_window()
        try:
            action()
        finally:
            stats = TRACKER._end_window(*window)
    return stats


def _check_amount(name: str, value: float) -> None:
    """ContractViolation naming value unless it is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ContractViolation(f"{name} must be finite and >= 0, got {value}")


def estimate_energy(power_watts: float, duration_s: float) -> float:
    """kWh consumed by a constant power draw over a duration."""
    _check_amount("power", power_watts)
    _check_amount("duration", duration_s)
    return power_watts * duration_s / JOULES_PER_KWH


def emissions(energy_kwh: float, intensity_kg_per_kwh: float) -> float:
    """kg CO2e for the given energy at the given grid intensity."""
    _check_amount("energy", energy_kwh)
    _check_amount("intensity", intensity_kg_per_kwh)
    return energy_kwh * intensity_kg_per_kwh


@dataclass(frozen=True)
class EmissionRecord:
    """A stage's metered duration at an assumed power and grid intensity; energy and carbon follow from them."""

    stage: str
    duration_s: float
    power_watts_assumed: float = DEFAULT_POWER_WATTS
    intensity_kg_per_kwh: float = WORLD_AVG_INTENSITY

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ContractViolation(f"unknown stage {self.stage!r}, expected one of {STAGES}")
        for name in ("duration_s", "power_watts_assumed", "intensity_kg_per_kwh", "energy_kwh", "carbon_kg"):
            _check_amount(name, getattr(self, name))

    @property
    def energy_kwh(self) -> float:
        return estimate_energy(self.power_watts_assumed, self.duration_s)

    @property
    def carbon_kg(self) -> float:
        return emissions(self.energy_kwh, self.intensity_kg_per_kwh)


EMISSIONS_CSV_HEADER = "stage,duration_s,energy_kwh,carbon_kg"


def format_float(v: float) -> str:
    """v in Python's shortest round-trip form (repr): float(text) == v, and 1.5e-07 is not 0.000000."""
    return repr(float(v))


@dataclass(frozen=True)
class StageReport:
    """Per-stage emission sums in canonical stage order; the grand totals are their exact sums."""

    stages: tuple[tuple[str, float, float, float], ...]

    @property
    def total_duration_s(self) -> float:
        return math.fsum(row[1] for row in self.stages)

    @property
    def total_energy_kwh(self) -> float:
        return math.fsum(row[2] for row in self.stages)

    @property
    def total_carbon_kg(self) -> float:
        return math.fsum(row[3] for row in self.stages)

    def to_csv(self) -> str:
        total = ("total", self.total_duration_s, self.total_energy_kwh, self.total_carbon_kg)
        rows = [",".join([stage, *map(format_float, values)]) for stage, *values in (*self.stages, total)]
        return "\n".join([EMISSIONS_CSV_HEADER, *rows]) + "\n"


def stage_report(records: Iterable[EmissionRecord]) -> StageReport:
    """Aggregate records per stage; each sum is exact (math.fsum)."""
    records = list(records)
    rows = []
    for stage in STAGES:
        group = [r for r in records if r.stage == stage]
        if group:
            rows.append(
                (
                    stage,
                    math.fsum(r.duration_s for r in group),
                    math.fsum(r.energy_kwh for r in group),
                    math.fsum(r.carbon_kg for r in group),
                )
            )
    return StageReport(tuple(rows))


def parse_stage_report(text: str) -> StageReport:
    """Parse a stage report CSV back into its values, bit for bit (format_float);
    its last row must be the total, the exact sum of the stage rows."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != EMISSIONS_CSV_HEADER:
        raise ContractViolation("bad emissions CSV header")
    rows: list[tuple[str, float, float, float]] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ContractViolation(f"bad emissions CSV row: {ln!r}")
        rows.append((parts[0], float(parts[1]), float(parts[2]), float(parts[3])))
    report = StageReport(tuple(rows[:-1]))
    if not rows or rows[-1] != ("total", report.total_duration_s, report.total_energy_kwh, report.total_carbon_kg):
        raise ContractViolation("emissions CSV must end with a total row, the sum of its stage rows")
    return report


def resolve_energy_settings() -> tuple[float, float]:
    """(power_watts, intensity) from the environment, else the defaults.

    A value given must be a finite number >= 0; an error names the variable.
    """
    resolved = []
    for env, value in ((ENV_POWER, DEFAULT_POWER_WATTS), (ENV_INTENSITY, WORLD_AVG_INTENSITY)):
        if (text := os.environ.get(env)) is not None:
            try:
                value = float(text)
            except ValueError:
                raise ContractViolation(f"{env} must be a number, got {text!r}") from None
            _check_amount(env, value)
        resolved.append(value)
    return resolved[0], resolved[1]
