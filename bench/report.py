"""Every end-to-end metric of every workload, in one command.

    python3 bench/report.py [--seed N] [--out FILE]

Runs ``bench/run.py`` once per workload with tracing off, for the
``run_seconds`` of BENCHMARK.json, prints each metric by name with its
unit, and writes a JSON result (default
``bench/results/report-<revision>-seed<N>.json``) holding the git
revision, Python version, nproc, seed, and per workload the sample count,
the percentile behind latency_tail_ms and every metric.  It exits 1 when
any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("transport", "modules", "cli")


def main() -> None:
    from sweep import git_revision

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="where to write the JSON result")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    revision = git_revision()
    result = {"git_revision": revision, "python": platform.python_version(),
              "nproc": os.cpu_count(), "seed": args.seed, "seconds": seconds, "workloads": {}}
    wrong = 0
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            detail_path = os.path.join(tmp, "detail.json")
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", "0", "--out", detail_path],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                sys.exit(f"report: {name} failed:\n{proc.stderr}")
            with open(detail_path, encoding="utf-8") as fh:
                detail = json.load(fh)
        result["workloads"][name] = detail
        wrong += detail["failed"]
        print(f"{name}: {detail['samples']} queries, {detail['failed']} wrong, {detail['rounds']} rounds")
        for metric, m in detail["metrics"].items():
            note = f"  (p{detail['tail_percentile']:g})" if metric == "latency_tail_ms" else ""
            print(f"  {metric:<20} {m['value']:>14.6g} {m['unit']}{note}")
    out = args.out or str(BENCH / "results" / f"report-{revision[:12]}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"wrote {out}")
    sys.exit(1 if wrong else 0)


if __name__ == "__main__":
    main()
