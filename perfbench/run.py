"""Run one greenlite benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload detect-f32 --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: greenlite is imported from src/.
With --trace 0 it prints every end-to-end metric named in BENCHMARK.json, with
--trace 1 every per-layer metric, and writes the spans to .perfbench_out/.
Each metric is printed by name with its unit and sample count, followed by the
output checks; the last line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import bootstrap


def main(argv=None) -> int:
    bench_file = bootstrap.ROOT / "BENCHMARK.json"
    with open(bench_file, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap.pin_blas_threads()
    bootstrap.import_greenlite()
    import workloads

    workdir = bootstrap.ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    listed = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in listed}
    stray = sorted(set(res.metrics) - names)
    if stray:
        raise RuntimeError(f"metrics missing from {bench_file.name}: {stray}")

    fp = bootstrap.fingerprint()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in fp.items()))
    metrics = {}
    for m in listed:
        name, unit = m["name"], m["unit"]
        if name in res.metrics:
            value = float(res.metrics[name])
            print(f"  {name:<30} {value:>16.6f} {unit:<9} n={res.samples.get(name, 1)}")
        else:
            value = 0.0
            print(f"  {name:<30} {'n/a':>16} {unit:<9} not exercised by this workload")
        metrics[name] = {"value": value, "unit": unit}
    for note in res.notes:
        print("note: " + note)

    ledger = res.ledger
    print(f"checks: attempted {ledger.attempted}  failed {ledger.failed}  "
          f"error_rate {ledger.failed / max(1, ledger.attempted):.6f}")
    for reason in ledger.reasons:
        print("  failed " + reason)
    if res.tracer is not None:
        out_dir = bootstrap.ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        res.tracer.dump(str(path))
        print(f"spans: {len(res.tracer.spans)} written to {path.relative_to(bootstrap.ROOT)}")

    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
