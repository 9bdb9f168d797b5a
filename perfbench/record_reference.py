"""Record the default seed's fixture outputs that every benchmark run checks.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: per workload, the outputs on the first
images of the default seed's pool (float heads as float32 arrays, int8 heads
as SHA-256 digests), and the NMS fixture's kept detections. Re-record only when the benchmark's input generation
changes or a change to the program's outputs is intended, and say which in
that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import bootstrap


def main() -> int:
    bootstrap.pin_blas_threads()
    bootstrap.import_greenlite()
    import checks
    import workloads

    workdir = bootstrap.ROOT / ".perfbench_work" / "record-reference"
    doc = {"seed": workloads.FIXTURE_SEED, "images": workloads.FIXTURE_IMAGES,
           "nms": workloads.nms_fixture()}
    try:
        for name in workloads.WORKLOADS:
            outputs = workloads.fixture_outputs(name, str(workdir / name))
            doc[name] = [o if isinstance(o, str) else checks.encode_f32(o) for o in outputs]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
