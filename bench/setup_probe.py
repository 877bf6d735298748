"""Set-up probe: import nakarep, then load a workload's text inputs.

    python3 bench/setup_probe.py <input-dir>

Runs in a fresh interpreter so the import is paid again, as a user pays it
on every run.  Prints one JSON line with ``import_s`` and ``load_s``.  The
benchmark's own process loads its inputs through ``load_inputs`` too, so
the probe times exactly the set-up the benchmark uses.
"""

from __future__ import annotations

import json
import os
import sys
import time


def load_inputs(directory: str) -> dict:
    """Parse every input file in the directory, by extension: ``.profile``
    and ``.homeo`` files, and ``.series`` files with one series per line.
    Keys are the file names."""
    from nakarep.cli import load_homeo, load_profile, parse_series

    out = {}
    for name in sorted(os.listdir(directory)):
        ext = os.path.splitext(name)[1]
        path = os.path.join(directory, name)
        if ext == ".profile":
            out[name] = load_profile(path)
        elif ext == ".homeo":
            out[name] = load_homeo(path)
        elif ext == ".series":
            with open(path, encoding="utf-8") as fh:
                out[name] = [parse_series(line) for line in fh.read().split()]
    return out


def main() -> None:
    t0 = time.perf_counter()
    import nakarep
    import nakarep.cli  # noqa: F401  (the text parsers live here)

    t1 = time.perf_counter()
    load_inputs(sys.argv[1])
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "module": nakarep.__file__}))


if __name__ == "__main__":
    main()
