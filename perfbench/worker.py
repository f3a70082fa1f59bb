"""One cold benchmark process: set up a workload, then run one pass over it.

    python3 perfbench/worker.py <workload> <seed> <mode>

mode is ``setup`` (stop after set-up), ``pass`` or ``traced``.  The process
starts its speed probe (``probe.py``), imports the engine from ``src/`` of
the checkout that holds this file, builds the workload's inputs, and prints
``ready`` and the probe's set-up samples the moment set-up is done, so the
parent can time interpreter start, import and input building together.  A
pass then runs every operation once, checks it against its oracle, and prints
one JSON line with the pass's wall and CPU seconds (probe time taken out),
the probe's samples, the process's peak RSS, each operation's outcome and,
when traced, the per-layer counts.  A traced pass runs without the probe, so
that no span holds probe time.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from probe import Probe

PROBE = Probe()
if __name__ == "__main__":
    PROBE.start()   # before the engine import, so that set-up is sampled

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dworkcohom  # noqa: E402

if Path(dworkcohom.__file__).resolve().parent != ROOT / "src" / "dworkcohom":
    sys.exit(f"engine imported from {dworkcohom.__file__}, not from {ROOT}/src")

import workloads  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _outcome(op) -> dict:
    try:
        problem = op.check(op.run())
    except Exception as exc:  # an operation that raises counts as failed
        problem = ("error", f"{type(exc).__name__}: {exc}")
    status, detail = problem or ("ok", "")
    known = status == "error" and detail == op.known_error
    return {"name": op.name, "status": status, "detail": detail, "known": known}


def main(argv) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    ops = workloads.build(name, seed)
    print("ready", json.dumps(PROBE.take()), flush=True)
    if mode != "pass":
        PROBE.stop()
    if mode == "setup":
        return 0
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cpu0, start = _cpu_seconds(), perf_counter()
    outcomes = [_outcome(op) for op in ops]
    PROBE.stop()
    wall = perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    probe = PROBE.take()
    result = {
        "wall_s": wall - probe["probe_s"],
        "cpu_s": cpu - probe["probe_cpu_s"],
        "speed": probe["speed"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": outcomes,
    }
    if tracer is not None:
        result["layers"] = tracer.counts()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
