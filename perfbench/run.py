"""The ukd benchmark: one workload, end-to-end or per-layer metrics, one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload dual-default --seed 0 --seconds 28 --trace 0

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json, --trace 1
the per-layer ones. The last line of standard output is the result object
and the line before it holds the provenance and the artifact digest.
perfbench/README.md describes the workloads and metrics.

This file only validates the invocation and pins the BLAS thread count;
that must happen before numpy is first imported, so measure.py, which
imports numpy and ukd, is loaded afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The same on both sides of any comparison, and never above nproc.
# perfbench/README.md has the measured sensitivity to this count.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (SRC / "ukd" / "__init__.py").is_file():
        print(f"perfbench: no ukd sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of {names}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import measure
    return measure.main(args, spec, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
