"""Cold-process benchmark of the exact engine.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; the engine is imported from its ``src/``.
Every pass runs in a fresh interpreter (``worker.py``), one at a time, so no
module-level cache of the engine carries over from one pass to the next.
With several workloads the passes are interleaved round by round.  After at
least two rounds for one workload, one for several, a round starts only if
it is expected to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics: the medians over the passes of
``wall_s`` and ``cpu_s`` (one pass over the workload's operations, set-up
excluded) and ``peak_rss_mb`` (the worker's ru_maxrss), and the median
``setup_s`` (interpreter start, ``import dworkcohom`` and input building)
over the set-up-only processes run before each pass and the passes.  Every
time is scaled to reference machine speed by the worker's own speed probe
(``probe.py``); the unscaled medians are printed beside them.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
``tracer.py``, with ``trace.overhead`` = traced wall / untraced wall - 1,
both unscaled.

Every operation is checked against its oracle.  ``failed`` counts the
operations that raised, returned an unexpected exit code or disagreed with
their oracle.  ``correct`` is false when any operation failed, except with
the one error its workload records as a known engine defect (or, traced,
when a count did not repeat exactly).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 1 means a worker process crashed or the run outlasted
``RUN_LIMIT_S``, and 2 that there is no engine source to measure; neither
prints a result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("window-sparse", "window-dense", "jacobian-gm")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_REPEATS = 8
RUN_LIMIT_S = 170  # every worker of a run, a hung one too, ends within this


class WorkerError(RuntimeError):
    pass


def run_worker(name: str, seed: int, mode: str,
               timeout: float = RUN_LIMIT_S) -> dict:
    """One fresh worker process; returns its result plus its ``setup_s``
    (probe time taken out, unscaled) and the speed the probe saw in set-up.

    The worker is killed, and TimeoutExpired raised, if it has not ended
    within ``timeout`` seconds, set-up included.
    """
    env = dict(os.environ)
    env.pop("DWORKCOHOM_WORKERS", None)
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), name, str(seed), mode],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], timeout)
        if not readable:
            raise subprocess.TimeoutExpired(proc.args, timeout)
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        out, _ = proc.communicate(timeout=max(timeout - setup, 0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, probe = ready.partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise WorkerError(f"{name} {mode} worker exited {proc.returncode}")
    probe = json.loads(probe)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if mode != "setup" else {}
    result["setup_s"] = setup - probe["probe_s"]
    result["setup_speed"] = probe["speed"]
    return result


class Samples:
    """Everything measured for one workload in this run."""

    def __init__(self):
        self.setups = []     # (setup_s, speed) of every worker but the warm-up
        self.passes = []     # untraced pass results
        self.traced = []     # traced pass results

    def add(self, result: dict, mode: str):
        self.setups.append((result["setup_s"], result["setup_speed"]))
        if mode == "pass":
            self.passes.append(result)
        elif mode == "traced":
            self.traced.append(result)

    def outcomes(self):
        return [op for p in self.passes + self.traced for op in p["ops"]]

    def end_to_end(self, scaled: bool = True) -> dict:
        """Every sample of each end-to-end metric; times are scaled to
        reference speed unless ``scaled`` is false."""
        def time(value, speed):
            return value * speed if scaled else value
        values = {key: [time(p[key], p["speed"]) for p in self.passes]
                  for key in ("wall_s", "cpu_s")}
        values["setup_s"] = [time(*s) for s in self.setups]
        values["peak_rss_mb"] = [p["peak_rss_mb"] for p in self.passes]
        return values

    def layers(self) -> dict:
        counts = [p["layers"] for p in self.traced]
        return tracer.combine(counts, [p["wall_s"] for p in self.passes],
                              [p["wall_s"] for p in self.traced])

    def unrepeated(self) -> list:
        return tracer.mismatched([p["layers"] for p in self.traced])


def measure(names: list, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds of passes, each workload's pass preceded by set-up-only workers.

    A single workload gets at least two rounds, so that a traced run can
    check that its counts repeat; interleaved workloads get at least one.
    After that, a round starts only if a round of median length would end
    within ``seconds``: a run lasts about ``seconds`` whatever the machine's
    speed, or its minimum rounds if they take longer.
    """
    limit = perf_counter() + RUN_LIMIT_S
    samples = {name: Samples() for name in names}
    for name in names:
        # warm-up: bytecode and file cache
        run_worker(name, seed, "setup", max(limit - perf_counter(), 0))
    min_rounds = 2 if len(names) == 1 else 1
    start = perf_counter()
    round_times = []
    while len(round_times) < min_rounds or \
            perf_counter() - start + median(round_times) <= seconds:
        began = perf_counter()
        k = len(round_times)
        for name in names[k % len(names):] + names[:k % len(names)]:
            modes = ("pass",)
            if trace:
                modes = ("pass", "traced") if k % 2 == 0 else ("traced", "pass")
            for mode in ("setup",) * SETUP_REPEATS + modes:
                left = max(limit - perf_counter(), 0)
                samples[name].add(run_worker(name, seed, mode, left), mode)
        round_times.append(perf_counter() - began)
    return samples


def _spread(values) -> str:
    return f"median of {len(values)}, range {min(values):.4g} .. {max(values):.4g}"


def report(samples: dict, trace: bool) -> dict:
    """Print every metric by name and unit; return the result object."""
    metrics = {}
    attempted = failed = 0
    correct = True
    single = len(samples) == 1
    for name, s in samples.items():
        outcomes = s.outcomes()
        bad = [op for op in outcomes if op["status"] != "ok"]
        attempted += len(outcomes)
        failed += len(bad)
        correct &= all(op["status"] == "ok" or op["known"] for op in outcomes)
        print(f"== {name}: {len(s.passes)} passes"
              + (f", {len(s.traced)} traced" if trace else ""))
        for op in sorted({(op["name"], op["status"], op["detail"], op["known"])
                          for op in bad}):
            known = " (known engine defect)" if op[3] else ""
            print(f"   FAILED{known} {op[0]}: {op[1]}: {op[2]}")
        print(f"   failed_share {len(bad) / len(outcomes):.4f} "
              f"({len(bad)} of {len(outcomes)} operations)")
        if trace:
            unrepeated = s.unrepeated()
            if unrepeated:
                correct = False
                print(f"   counts differ between traced passes: {unrepeated}")
            for key, value in s.layers().items():
                unit = tracer.UNITS[key]
                print(f"   {key} {value:.6g} {unit}")
                metrics[key if single else f"{name}.{key}"] = {
                    "value": value, "unit": unit}
        else:
            values, unscaled = s.end_to_end(), s.end_to_end(scaled=False)
            for key, unit in END_TO_END:
                value = median(values[key])
                raw = "" if unit != "s" else \
                    f"; unscaled {median(unscaled[key]):.4f} {unit}"
                print(f"   {key} {value:.4f} {unit} ({_spread(values[key])}{raw})")
                metrics[key if single else f"{name}.{key}"] = {
                    "value": value, "unit": unit}
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dworkcohom" / "__init__.py").is_file():
        print(f"no engine source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        samples = measure(names, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(samples, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
