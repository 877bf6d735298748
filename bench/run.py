"""Run one benchmark workload against the nakarep source in ``src/``.

    python3 bench/run.py --workload {transport,modules,cli} --seed N \\
        --seconds S --trace {0,1} [--out FILE]

One client, one thread, a closed loop: each query is sent after the
previous answer returns, in whole rounds until S seconds of query time have
been measured.  Answers are checked after each query, outside its timed
region.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` a traced run gives the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--out`` also writes the
details (tail percentile, sample count, failures, latency per query
kind) to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
TRACED_SHARE = 2 / 3  # of --seconds, in a traced run; the rest runs untraced
LINE_MODULES = ("init", "cli", "discrete", "errors", "interval", "kupisch", "pwmap", "repcat")
UNITS = {
    "setup_s": "s",
    "throughput_qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_query": "ms",
    "error_rate": "fraction",
    "peak_rss_mb": "MB",
}
# Reported by name and unit, but not among BENCHMARK.json's metrics: it
# is 0 on a correct program, and the result line carries it as
# failed/attempted.
NOT_IN_RESULT = ("error_rate",)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import nakarep from this checkout's src/, and nowhere else."""
    if not (SRC / "nakarep" / "__init__.py").is_file():
        fail(f"no nakarep source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import nakarep

    if Path(nakarep.__file__).resolve().parent != SRC / "nakarep":
        fail(f"imported nakarep from {nakarep.__file__}, not from {SRC}")


def probe_setup(directory: Path, repeats: int) -> list:
    """Set-up in fresh interpreters: import nakarep, parse the inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(directory)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        record = json.loads(proc.stdout.splitlines()[-1])
        if Path(record["module"]).resolve().parent != SRC / "nakarep":
            fail(f"set-up probe imported nakarep from {record['module']}")
        out.append(record)
    return out


class Sample:
    def __init__(self):
        self.latencies = []  # seconds per query
        self.kinds = []  # query kind per latency
        self.failures = []  # messages
        self.busy = 0.0  # seconds inside queries
        self.cpu = 0.0  # CPU seconds inside queries, child processes included
        self.rounds = 0


def beyond(n: int, p: float) -> int:
    """Samples above the nearest-rank p-th percentile of n samples."""
    return n - math.ceil(p * n / 100)


def measure(workload, tracer, seconds: float, first_round: int = 0, tail=None, between=None) -> Sample:
    """Whole rounds of queries until ``seconds`` of query time are spent
    and, given a ``tail`` percentile, at least ten samples lie beyond it.
    ``between(sample)``, if given, runs after each round, untimed."""
    s = Sample()
    while s.busy < seconds or (tail is not None and beyond(len(s.latencies), tail) < 10):
        for q in workload.round(first_round + s.rounds):
            child0 = workload.child_cpu
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                answer = q.run(tracer)
                error = None
            except Exception as e:  # an unexpected exception is a failed query
                error = f"raised {type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            s.cpu += time.process_time() - c0 + workload.child_cpu - child0
            s.busy += dt
            s.latencies.append(dt)
            s.kinds.append(q.kind)
            if error is None:
                try:
                    error = q.check(answer)
                except Exception as e:  # a malformed answer is a wrong answer
                    error = f"check raised {type(e).__name__}: {e}"
            if error is not None:
                s.failures.append(f"{q.kind}: {error}")
        s.rounds += 1
        if between is not None:
            between(s)
    return s


def timed_with_setup(workload, directory: Path, seconds: float):
    """The untraced loop, with the SETUP_REPEATS set-up probes spread over
    it between rounds, one each time another 1/SETUP_REPEATS of the query
    time has passed, so that set-up is sampled across the run."""
    from setup_probe import load_inputs
    from tracing import Tracer

    setup = []

    def between(sample):
        while len(setup) < SETUP_REPEATS * min(1.0, sample.busy / seconds):
            setup.extend(probe_setup(directory, 1))

    workload.prepare(load_inputs(str(directory)))
    sample = measure(workload, Tracer(), seconds, tail=workload.TAIL, between=between)
    return sample, setup


def percentile(sorted_values: list, p: float) -> float:
    k = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[k - 1]


def end_to_end(sample: Sample, setup: list, workload) -> dict:
    n = len(sample.latencies)
    lat_ms = sorted(1e3 * x for x in sample.latencies)
    rss_kb = workload.child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(r["import_s"] + r["load_s"] for r in setup),
        "throughput_qps": n / sample.busy,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": percentile(lat_ms, workload.TAIL),
        "cpu_ms_per_query": 1e3 * sample.cpu / n,
        "error_rate": len(sample.failures) / n,
        "peak_rss_mb": rss_kb / 1024,
    }
    details = {"tail_percentile": workload.TAIL, "samples": n, "rounds": sample.rounds,
               "setup_samples": len(setup), **by_kind(sample, workload.TAIL)}
    return {k: (v, UNITS[k]) for k, v in values.items()}, details


def by_kind(sample: Sample, tail: float) -> dict:
    """Per query kind: count and median, 1st and 99th percentile latency;
    and the kinds the median and the tail percentile of all queries fall on,
    so one can see whether they sit inside a single kind."""
    n = len(sample.latencies)
    ms = {}
    for kind, dt in zip(sample.kinds, sample.latencies):
        ms.setdefault(kind, []).append(1e3 * dt)
    order = sorted(range(n), key=sample.latencies.__getitem__)
    kinds = {}
    for kind, values in sorted(ms.items()):
        values.sort()
        kinds[kind] = {"count": len(values), "p01_ms": percentile(values, 1),
                       "p50_ms": statistics.median(values), "p99_ms": percentile(values, 99)}
    return {"kinds": kinds,
            "p50_kinds": sorted({sample.kinds[order[(n - 1) // 2]], sample.kinds[order[n // 2]]}),
            "tail_kind": sample.kinds[order[max(1, math.ceil(tail * n / 100)) - 1]]}


def extra_layer(overhead=0.0, import_ms=0.0, run_ms=0.0, interpreter_ms=0.0) -> dict:
    """The per-layer metrics not taken from spans: <module>.lines for each
    module of LINE_MODULES (``__init__`` is ``init``; 0 once a module is
    gone), nakarep.lines for the whole package, new modules included, the
    tracing overhead and the CLI costs.  Called with no arguments, it gives
    the names."""
    counts = {}
    for path in (SRC / "nakarep").glob("*.py"):
        with open(path, encoding="utf-8") as fh:
            counts[path.stem.strip("_")] = sum(1 for _ in fh)
    out = {f"{m}.lines": (counts.get(m, 0), "lines") for m in LINE_MODULES}
    out["nakarep.lines"] = (sum(counts.values()), "lines")
    out["trace.overhead_frac"] = (overhead, "fraction")
    out["cli.import_ms"] = (import_ms, "ms")
    out["cli.run_ms"] = (run_ms, "ms")
    out["cli.interpreter_ms"] = (interpreter_ms, "ms")
    return out


def traced_load(directory: Path, tracer) -> dict:
    """Parse the inputs as one cli.parse span, then rebuild every map from
    its parsed pieces as pwmap.construct, so parse self time excludes it."""
    from nakarep import PiecewiseMap
    from setup_probe import load_inputs

    objs = tracer.call("cli", "parse", load_inputs, str(directory))
    for obj in objs.values():
        pm = getattr(obj, "successor", obj)
        if isinstance(pm, PiecewiseMap):
            tracer.call("pwmap", "construct", PiecewiseMap, pm.dom, pm.pieces, pm.periodic,
                        parent=("cli", "parse"))
    return objs


def child_ms(argv: list, repeats: int = 5) -> float:
    """Median wall time of a child process, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, timeout=60)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def cli_in_process(seed: int, directory: Path, tracer):
    """One round of the cli workload's commands through ``run(argv)`` in
    this process, as cli.run spans, whatever the workload: the CLI layer
    without interpreter start and import."""
    from nakarep.cli import run as cli_run
    from setup_probe import load_inputs
    from workloads import Cli

    cli_dir = directory / "cli"
    cli_dir.mkdir()
    cli = Cli(seed, str(cli_dir), str(ROOT))
    cli.write_inputs()
    cli.prepare(load_inputs(str(cli_dir)))
    with contextlib.redirect_stdout(io.StringIO()):
        for argv, _ in cli.commands(0):
            tracer.call("cli", "run", cli_run, ["--json", *argv])
    return tracer.span("cli", "run")


def traced(workload, directory: Path, seconds: float, setup: list):
    """Per-layer metrics from a traced loop, then an untraced loop on the
    following rounds whose throughput gives the tracing overhead; the time
    of spans that only repeat work for attribution is left out of the
    traced throughput."""
    from tracing import SpanTracer, Tracer, per_layer

    tracer = SpanTracer()
    workload.prepare(traced_load(directory, tracer))
    repeats_before = tracer.repeat_s
    traced_sample = measure(workload, tracer, seconds * TRACED_SHARE)
    plain = measure(workload, Tracer(), seconds * (1 - TRACED_SHARE), first_round=traced_sample.rounds)
    repeats = tracer.repeat_s - repeats_before
    traced_qps = len(traced_sample.latencies) / (traced_sample.busy - repeats)
    plain_qps = len(plain.latencies) / plain.busy
    run_span = cli_in_process(workload.seed, directory, tracer)
    extra = extra_layer(
        overhead=1 - traced_qps / plain_qps,
        import_ms=1e3 * statistics.median(r["import_s"] for r in setup),
        run_ms=1e3 * run_span.total / run_span.calls if run_span.calls else 0,
        interpreter_ms=child_ms([sys.executable, "-c", "pass"]),
    )
    return traced_sample, per_layer(tracer, extra), {"rounds": traced_sample.rounds,
                                                     "untraced_rounds": plain.rounds}


def metric_names(trace: int) -> list:
    """The metric names a run prints in its result line, in order."""
    if not trace:
        return [k for k in UNITS if k not in NOT_IN_RESULT]
    from tracing import SpanTracer, per_layer

    return list(per_layer(SpanTracer(), extra_layer()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("transport", "modules", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the detailed result as JSON to this file")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_library()
    from workloads import WORKLOADS

    directory = WORK / f"{args.workload}-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(directory), str(ROOT))
        workload.write_inputs()
        if args.trace:
            setup = probe_setup(directory, SETUP_REPEATS)
            sample, metrics, details = traced(workload, directory, args.seconds, setup)
        else:
            sample, setup = timed_with_setup(workload, directory, args.seconds)
            metrics, details = end_to_end(sample, setup, workload)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted, failed = len(sample.latencies), len(sample.failures)
    for message in sample.failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"queries {attempted}  failed {failed}  rounds {details['rounds']}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{details['tail_percentile']:g} of {details['samples']} samples)"
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")
    if args.out:
        detail = dict(details, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, attempted=attempted, failed=failed,
                      failures=sample.failures[:10],
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)
    result = {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in metric_names(args.trace)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))


if __name__ == "__main__":
    main()
