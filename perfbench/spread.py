"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload detect-f32 --seeds 1-10 [--json out.json]

Runs perfbench/run.py untraced once per seed, one run at a time, each for
BENCHMARK.json's run_seconds. For every metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and for end-to-end
metrics the bound and whether the spread stays below a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", default=None, help="also write the summary to this file")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    failed = attempted = 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items() if n in bounds),
            flush=True)

    summary = {name: summarize(v) for name, v in values.items()}
    print(f"{'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if s["spread"] < bound / 3 else "WIDE"
        print(f"{name:<30} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
              f"{s['spread']:>8.4f} {bound if bound is not None else '':>6} {flag}")
    print(f"attempted {attempted} failed {failed}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": parse_seeds(args.seeds),
                       "seconds": seconds, "attempted": attempted, "failed": failed,
                       "metrics": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
