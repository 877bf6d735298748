"""Self-test of the benchmark's checker.

    python3 bench/selftest.py

For each workload: the first query of round 0 must pass its check on the
library's real answer, and a deliberately wrong answer fed through the
measuring loop must be counted as a failure (so error_rate > 0), as must a
query that raises.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction

from run import ROOT, WORK, import_library, measure, metric_names


def wrong_answers(workload, answer):
    """Deliberately wrong answers for the first query of each workload."""
    if workload.name == "transport":  # another profile, or a lost component
        pushed, seps, comps = answer
        return [(workload.objs["chain.profile"], seps, comps), (pushed, seps, comps[:-1] or comps * 2)]
    if workload.name == "modules":  # hom_dim off by one
        return [answer + 1]
    code, out = answer  # cli: a nonzero exit, and a payload with a changed value
    return [(3, out), (code, out.replace('"valid":true', '"valid":false'))]


class OneQuery:
    """A workload whose every round is one given query."""

    child_cpu = 0.0

    def __init__(self, query):
        self.query = query

    def round(self, r):
        return [self.query]


def main() -> None:
    import_library()
    from setup_probe import load_inputs
    from tracing import Tracer
    from workloads import WORKLOADS, Query

    problems = []
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            listed = sorted(m["name"] for m in spec[key])
            if listed != sorted(metric_names(trace)):
                problems.append(f"BENCHMARK.json {key} does not match the metrics a --trace {trace} run prints")
    for name, cls in WORKLOADS.items():
        directory = WORK / f"selftest-{name}"
        directory.mkdir(parents=True, exist_ok=True)
        try:
            workload = cls(1, str(directory), str(ROOT))
            workload.write_inputs()
            workload.prepare(load_inputs(str(directory)))
            query = workload.round(0)[0]
            answer = query.run(Tracer())
            if query.check(answer) is not None:
                problems.append(f"{name}: the real answer fails its check: {query.check(answer)}")
            cases = [Query(query.kind, lambda tr, w=w: w, query.check) for w in wrong_answers(workload, answer)]
            cases.append(Query(query.kind, lambda tr: 1 / Fraction(0), query.check))
            for case in cases:
                sample = measure(OneQuery(case), Tracer(), 1e-9)
                if len(sample.failures) != 1 or len(sample.latencies) != 1:
                    problems.append(f"{name}: an injected wrong answer was not counted")
                else:
                    print(f"{name}: counted {sample.failures[0][:100]}")
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass
    for p in problems:
        print(f"SELFTEST FAILED {p}")
    print("selftest ok" if not problems else "selftest failed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
