"""Size sweep behind the ROADMAP Baseline table, separate from the workloads.

    python3 bench/sweep.py [--out FILE]

Times each operation at the Baseline sizes, each point in its own child
process, and fits a growth exponent (log-log slope of time against size)
per operation.  A point still running after BUDGET_S seconds is killed and
reported as skipped, never dropped.  The JSON result has stable keys,
so two sweeps can be diffed point by point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
POINTS = (
    ("eval", 100), ("eval", 4000),
    ("separation_points", 1000), ("separation_points", 4000),
    ("push_forward", 50), ("push_forward", 200), ("push_forward", 800),
    ("hom_dim", 10**3), ("hom_dim", 10**5),
    ("algebra_dim_check", 100), ("algebra_dim_check", 1000),
)
UNITS = {"eval": "s/call"}  # everything else is seconds for one call
SEED = 2207
BUDGET_S = 30  # seconds allowed per point


def time_point(op: str, size: int) -> float:
    """Seconds for one call (per call for eval) at the given size; inputs
    are built first and not timed."""
    sys.path.insert(0, str(SRC))
    import inputs
    from nakarep import CIRCLE, interval, hom_dim, push_forward, separation_points
    from nakarep.cli import parse_homeo_text, parse_profile_text
    from nakarep.discrete import KupischSeries, algebra_dim_check

    rng = random.Random(f"{SEED}:{op}:{size}")
    if op in ("eval", "separation_points", "push_forward"):
        profile = parse_profile_text(inputs.circle_profile(rng, size, True, 2)[0])
    if op == "eval":
        k = profile.successor
        ts = [F(rng.randrange(0, 10**6), 10**6) for _ in range(2000)]
        t0 = time.perf_counter()
        for t in ts:
            k.eval(t)
        return (time.perf_counter() - t0) / len(ts)
    if op == "separation_points":
        call = lambda: separation_points(profile)  # noqa: E731
    elif op == "push_forward":
        f = parse_homeo_text(inputs.circle_homeo(rng, size, True))
        call = lambda: push_forward(profile, f)  # noqa: E731
    elif op == "hom_dim":
        u, v = interval(F(1, 3), F(1, 3) + size), interval(F(1, 5), F(1, 5) + size * F(3, 4))
        call = lambda: hom_dim(CIRCLE, u, v)  # noqa: E731
    else:
        series = KupischSeries(tuple(inputs.random_series(rng, size)))
        call = lambda: algebra_dim_check(series)  # noqa: E731
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def run_point(op: str, size: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(Path(__file__).resolve()), "--point", op, str(size)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=BUDGET_S)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        return {"op": op, "size": size, "status": "skipped", "reason": f"over budget of {BUDGET_S} s"}
    if proc.returncode != 0:
        return {"op": op, "size": size, "status": "failed", "reason": proc.stderr.strip()[-500:]}
    return {"op": op, "size": size, "status": "ok", "seconds": float(proc.stdout.split()[-1]),
            "unit": UNITS.get(op, "s")}


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the JSON result to this file")
    parser.add_argument("--point", nargs=2, metavar=("OP", "SIZE"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point:
        print(repr(time_point(args.point[0], int(args.point[1]))))
        return
    if not (SRC / "nakarep" / "__init__.py").is_file():
        sys.exit(f"sweep: no nakarep source at {SRC}")
    sys.path.insert(0, str(BENCH))
    from tracing import growth_exp

    points = []
    for op, size in POINTS:
        p = run_point(op, size)
        points.append(p)
        shown = f"{p['seconds']:.6g} {p['unit']}" if p["status"] == "ok" else f"{p['status']} ({p['reason']})"
        print(f"  {op:<20} {size:>8}  {shown}", flush=True)
    exps = {}
    for op in dict(POINTS):
        measured = [(p["size"], p["seconds"]) for p in points if p["op"] == op and p["status"] == "ok"]
        exps[op] = growth_exp(measured) if len(measured) >= 2 else None
        print(f"  growth_exp {op:<20} {exps[op] if exps[op] is None else round(exps[op], 3)}")
    result = {"git_revision": git_revision(), "python": platform.python_version(), "nproc": os.cpu_count(),
              "budget_s": BUDGET_S, "points": points, "growth_exp": exps}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
