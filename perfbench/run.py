"""Benchmark of subabsorb: sweeps, propagation and photon-count fits.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload``, every workload runs in turn, each in its own fresh
process, and the last line maps each name to its result.

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One workload per process, a closed loop with one
caller: each CLI call waits for the one before it.  No ``--threads`` pool
is used; the only extra threads are OpenBLAS's.

Untraced (``--trace 0``), the run prints the end-to-end metrics:
  setup_s       median over SETUP_REPEATS fresh interpreters of the set-up
                one CLI invocation pays (see setup_probe.py)
  run_s         median wall time of the timed passes, after one warm pass
  peak_rss_mib  peak resident memory of this process, read before the
                checks run
Traced (``--trace 1``), passes alternate untraced and traced, and the run
prints the per-layer metrics of the traced passes (see tracing.py) and the
tracing overhead.  Passes repeat until ``--seconds`` would be exceeded,
with a floor of MIN_PASSES.

The warm pass also records what the checks need; the checks compare its
outputs with the physics and with the last pass, outside the timed region.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3            # per kind: untraced, and traced in a traced run


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload, work: Path) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh interpreters, each waited for."""
    times = []
    for i in range(SETUP_REPEATS):
        out = work / f"setup_{i}"
        out.mkdir()
        spec = {"configs": workload.config_paths(), "argv": workload.first_call(str(out))}
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                               json.dumps(spec)],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up call failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def recipe_outputs(pass_dir: Path) -> tuple[int, int]:
    """Files and bytes under the run directories ``run_recipe`` made."""
    files = size = 0
    for sub in pass_dir.iterdir():
        if sub.is_dir():
            for path in sub.rglob("*"):
                if path.is_file():
                    files += 1
                    size += path.stat().st_size
    return files, size


class Passes:
    """Runs passes of one workload into numbered directories under work."""

    def __init__(self, workload, cli, work: Path):
        self.workload, self.cli, self.work = workload, cli, work
        self.count = 0
        self.attempted = self.failed = 0

    def run(self) -> tuple[float, Path]:
        out = self.work / f"pass_{self.count:03d}"
        out.mkdir()
        self.count += 1
        start = time.perf_counter()
        failed = self.workload.run_pass(self.cli, str(out))
        elapsed = time.perf_counter() - start
        self.attempted += self.workload.ops_per_pass
        self.failed += failed
        return elapsed, out


def keep_going(started: float, seconds: float, *series: list[float]) -> bool:
    """Another pass fits in the budget, or some series is below the floor."""
    if any(len(s) < MIN_PASSES for s in series):
        return True
    typical = statistics.median([t for s in series for t in s])
    return time.perf_counter() - started + typical <= seconds


def untraced_metrics(passes: Passes, seconds: float, setup: list[float]):
    times, last = [], None
    started = time.perf_counter()
    while keep_going(started, seconds, times):
        elapsed, out = passes.run()
        times.append(elapsed)
        if last is not None:
            shutil.rmtree(last)
        last = out
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(times), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }
    return metrics, last, {"pass_s": times, "setup_s": setup}


def traced_metrics(passes: Passes, seconds: float, modules, trace_path: Path):
    plain, traced, layers, spans, last = [], [], [], [], None
    started = time.perf_counter()
    while keep_going(started, seconds, plain, traced):
        tracer = tracing.Tracer() if len(traced) < len(plain) else None
        if tracer:
            tracer.install(modules)
        try:
            elapsed, out = passes.run()
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            traced.append(elapsed)
            layer = tracing.layer_metrics(tracer.spans, elapsed)
            layer["recipes.files_written"], layer["recipes.bytes_written"] = \
                recipe_outputs(out)
            layers.append(layer)
            spans.append([{"name": s.name, "start": s.start, "end": s.end,
                           "parent": s.parent, "count": s.count} for s in tracer.spans])
        else:
            plain.append(elapsed)
        if last is not None:
            shutil.rmtree(last)
        last = out
    with open(trace_path, "w") as fh:
        json.dump({"passes": spans}, fh)
    units = {"calls": "count", "iterations": "count", "files_written": "count",
             "bytes_written": "B", "node_steps_per_s": "1/s", "self_time_share": "ratio"}
    metrics = {}
    for name in layers[0]:
        value = statistics.median(layer[name] for layer in layers)
        metrics[name] = (value, units.get(name.rsplit(".", 1)[-1], "s"))
    metrics["trace.run_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics, last, {"traced_pass_s": traced, "untraced_pass_s": plain}


def run_all(args, names) -> int:
    """Each workload in a fresh process of this script, one after another."""
    results = {}
    for name in names:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True)
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "subabsorb" / "__init__.py").is_file():
        print(f"perfbench: no subabsorb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from subabsorb import analysis, cli, coupled_dipole, maxwell_bloch, recipes
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: subabsorb imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload is None:
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    modules = {"cli": cli, "recipes": recipes, "coupled_dipole": coupled_dipole,
               "maxwell_bloch": maxwell_bloch, "analysis": analysis}
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](str(inputs), args.seed)
        workload.prepare(recipes)
        setup = measure_setup(workload, work) if not args.trace else []
        passes = Passes(workload, cli, work)
        with workload.capture(modules):
            _, first = passes.run()
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, last, samples = traced_metrics(passes, args.seconds, modules,
                                                    trace_path)
        else:
            metrics, last, samples = untraced_metrics(passes, args.seconds, setup)
        results = workload.checks(str(first), str(last))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for check in results:
        print(f"check {'PASS' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    for name, series in samples.items():
        print(f"{name}: {[round(t, 4) for t in series]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(c.ok for c in results),
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
