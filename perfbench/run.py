"""Benchmark of the syncenergy pipeline, one workload per invocation.

    python3 perfbench/run.py --workload run_series --seed 0 --seconds 28 --trace 0

Run from the root of a source tree; the package is imported from its
``src/`` directory, nothing is installed.  The workload is a closed loop:
one process, one client, operations one after another.  A run

1. writes the workload's documents for ``--seed`` (see workloads.py),
2. times set-up in fresh processes: import plus load and parse of the
   documents, repeated, median reported,
3. makes one census pass with every layer traced: it warms up, runs the
   correctness checks (including the in-memory comparison of emitted
   series) and counts the samples a pass analyses,
4. repeats passes (timed operations, untimed checks) until ``--seconds``
   have passed since it started, steps 1 to 3 included.

Times are normalised to a fixed machine speed (see speed.py); the wall
times are in the report.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports per-layer metrics, including the tracing overhead.  A JSON report
(machine facts, inputs, digests of every emitted file, per-op times, span
summary) precedes the result, which is the last line of standard output.  Emitted files go to
a fresh directory under ``.perfbench_work/`` that is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
# workload -> the speed kernel that matches where its time goes (speed.py)
WORKLOADS = {
    "run_series": "python",
    "verify_sweep": "python",
    "pll_estimator": "python",
    "analyze_long": "numpy",
}
MIN_ROUNDS = 2  # a round is one untraced pass, plus one traced pass when tracing
SETUP_REPEATS = 9

SETUP_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
import speed

def setup():
    from syncenergy import config
    for path in sys.argv[3:]:
        doc = config.load_document(path)
        (config.parse_sweep if "sweep" in doc else config.parse_scenario)(doc)

_, wall, norm = speed.measure(setup)
print(repr(wall), repr(norm))
"""


def measure_setup(paths: dict) -> tuple:
    """(wall, normalised) seconds to import syncenergy and parse the documents in a fresh process."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(BENCH), str(SRC), *map(str, paths.values())]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    wall, norm = done.stdout.split()
    return float(wall), float(norm)


def machine_facts() -> dict:
    import numpy
    import yaml

    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "l2": None,
        "l3": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in lscpu.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                facts[key.strip()[:2].lower()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    if (ROOT / ".git").exists():
        try:
            facts["git_commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return facts


class Runner:
    """Runs passes of one workload and tallies correctness."""

    def __init__(self, workload, kernel: str) -> None:
        self.workload = workload
        self.kernel = kernel
        self.attempted = 0
        self.failures: list = []  # one entry per failed operation
        self.op_times: dict = {op.name: [] for op in workload.ops}
        self.op_norm: dict = {op.name: [] for op in workload.ops}

    def run_pass(self, recorder=None, census: bool = False) -> tuple:
        """One pass over the operations; returns the summed (wall, normalised) time.

        A traced pass is timed by wall clock only.  Operation times of
        untraced passes are kept in ``op_times`` and ``op_norm``.
        """
        total = total_norm = 0.0
        for op in self.workload.ops:
            self.attempted += 1
            problems = None
            start = time.perf_counter()
            elapsed = None
            try:
                if recorder is not None:
                    with recorder.span("bench.op"):
                        result = op.run()
                else:
                    result, elapsed, norm = speed.measure(op.run, self.kernel)
            except Exception:
                problems = [f"{op.name}: {traceback.format_exc(limit=-3)}"]
            if elapsed is None:
                elapsed = norm = time.perf_counter() - start
            total += elapsed
            total_norm += norm
            if problems is None:
                try:
                    problems = op.check(result, census)
                except Exception:
                    problems = [f"{op.name} check: {traceback.format_exc(limit=-3)}"]
                del result
            if problems:
                self.failures.append({"op": op.name, "problems": problems})
            if recorder is None:
                self.op_times[op.name].append(elapsed)
                self.op_norm[op.name].append(norm)
        return total, total_norm


def merge(into: dict, summary: dict) -> None:
    """Add one pass's span summary into a running total."""
    for name, entry in summary.items():
        slot = into.setdefault(name, {key: 0.0 for key in entry})
        for key, value in entry.items():
            slot[key] += value


def layer_metrics(spans_by_pass: list, traced_s: list, untraced_s: list, missing: list) -> tuple:
    """Per-layer metrics per traced pass, and self-time shares for the report."""
    merged: dict = {}
    for spans in spans_by_pass:
        merge(merged, tracer.summarize(spans))
    n = len(spans_by_pass)

    def total(name):
        return merged.get(name, {}).get("total_s", 0.0) / n

    def self_s(name):
        return merged.get(name, {}).get("self_s", 0.0) / n

    def count(name):
        return merged.get(name, {}).get("count", 0.0) / n

    def rate(amount, seconds):
        return amount / seconds if seconds > 0.0 else 0.0

    write_s, read_s = total("runner.write_series_csv"), total("runner.read_series_csv")
    sim_s, pll_s = total("simulator.smib_simulate"), total("pll.pll_run")
    traced_run = statistics.median(traced_s)
    values = {
        "runner.write_series_csv_s": (write_s, "s"),
        "runner.series_bytes": (count("runner.write_series_csv"), "bytes"),
        "runner.write_mb_per_s": (rate(count("runner.write_series_csv") / 1e6, write_s), "MB/s"),
        "runner.read_series_csv_s": (read_s, "s"),
        "runner.read_mb_per_s": (rate(count("runner.read_series_csv") / 1e6, read_s), "MB/s"),
        "simulator.smib_simulate_s": (sim_s, "s"),
        "simulator.rk4_steps": (count("simulator.smib_simulate"), "count"),
        "simulator.steps_per_s": (rate(count("simulator.smib_simulate"), sim_s), "1/s"),
        "pll.pll_run_s": (pll_s, "s"),
        "pll.rk4_steps": (count("pll.pll_run"), "count"),
        "pll.steps_per_s": (rate(count("pll.pll_run"), pll_s), "1/s"),
        "pipeline.analyze_self_s": (self_s("pipeline.analyze"), "s"),
        "signals.complex_frequency_s": (total("signals.complex_frequency"), "s"),
        "metric.se_from_cf_s": (total("metric.se_from_cf"), "s"),
        "metric.se_numeric_s": (total("metric.se_numeric"), "s"),
        "metric.classify_sync_s": (total("metric.classify_sync"), "s"),
        "pipeline.identity_gap_s": (total("pipeline.identity_gap"), "s"),
        "simulator.synthetic_signal_s": (total("simulator.synthetic_signal"), "s"),
        "runner.execute_scenario_self_s": (self_s("runner.execute_scenario"), "s"),
        "runner.verify_scenario_self_s": (self_s("runner.verify_scenario"), "s"),
        "runner.run_sweep_self_s": (self_s("runner.run_sweep"), "s"),
        "cli.main_self_s": (self_s("cli.main"), "s"),
        "config.parse_s": (sum(self_s(k) for k in merged if k.startswith("config.")), "s"),
        "config.docs": (count("config.parse_scenario"), "count"),
        "pipeline.samples": (count("pipeline.analyze"), "count"),
        "pipeline.identity_rel_gap_max": (
            max(tracer.max_count(spans, "pipeline.identity_gap") for spans in spans_by_pass), "ratio"),
        "trace.run_s": (traced_run, "s"),
        "trace.overhead_s": (traced_run - statistics.median(untraced_s), "s"),
        "trace.missing_spans": (len(missing), "count"),
    }
    mean_pass = statistics.fmean(traced_s)
    spans = {
        name: {
            "calls_per_pass": entry["calls"] / n,
            "self_s": entry["self_s"] / n,
            "self_share": entry["self_s"] / n / mean_pass,
        }
        for name, entry in sorted(merged.items(), key=lambda kv: -kv[1]["self_s"])
    }
    layers: dict = {}
    for name, entry in spans.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_share"]
    shares = {
        "top_self_span": next(iter(spans), None),
        "analysis_kernels_self_share": sum(
            spans[k]["self_share"] for k in tracer.ANALYSIS_SPANS if k in spans),
        "layer_self_share": layers,
        "spans": spans,
    }
    return values, shares


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    deadline = time.perf_counter() + seconds
    import workloads  # imports syncenergy, so only once src/ is on the path

    paths, perturbations = workloads.write_inputs(name, seed, SRC, work / "inputs")
    setup = [measure_setup(paths) for _ in range(SETUP_REPEATS)]
    out_dir = work / "out"
    out_dir.mkdir()
    runner = Runner(workloads.Workload(name, paths, out_dir), WORKLOADS[name])

    census = tracer.Tracer()
    with census:
        census_s, _ = runner.run_pass(census, census=True)
    samples = tracer.summarize(census.spans).get("pipeline.analyze", {}).get("count", 0)

    untraced, untraced_norm, traced, spans_by_pass, rounds = [], [], [], [], []
    missing = census.missing
    while True:
        round_start = time.perf_counter()
        wall, norm = runner.run_pass()
        untraced.append(wall)
        untraced_norm.append(norm)
        if trace:
            recorder = tracer.Tracer()
            with recorder:
                traced.append(runner.run_pass(recorder)[0])
            spans_by_pass.append(recorder.spans)
        now = time.perf_counter()
        rounds.append(now - round_start)
        # stop at the round boundary nearest to the deadline
        if len(rounds) >= MIN_ROUNDS and now + statistics.median(rounds) / 2 >= deadline:
            break

    run_s = statistics.median(untraced_norm)
    if trace:
        values, shares = layer_metrics(spans_by_pass, traced, untraced, missing)
    else:
        values = {
            "run_s": (run_s, "s"),
            "samples_per_s": (samples / run_s, "1/s"),
            "setup_s": (statistics.median(norm for _, norm in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": (1.0 - len(runner.failures) / runner.attempted, "ratio"),
        }
        shares = None

    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "machine": machine_facts(),
        "loop": "closed: one process, one client, operations one after another",
        "inputs": {doc: str(path.relative_to(work)) for doc, path in paths.items()},
        "perturbations": perturbations,
        "samples_per_pass": samples,
        "census_s": census_s,
        "untraced_pass_wall_s": untraced,
        "untraced_pass_norm_s": untraced_norm,
        "traced_pass_wall_s": traced,
        "op_median_wall_s": {op: statistics.median(t) for op, t in runner.op_times.items()},
        "op_median_norm_s": {op: statistics.median(t) for op, t in runner.op_norm.items()},
        "setup_wall_norm_s": setup,
        "digests": runner.workload.digests,
        "failures": runner.failures[:20],
        "missing_spans": missing,
        "count_errors": census.count_errors[:20],
        "layer_shares": shares,
    }
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="input generator seed; 0 = as shipped")
    parser.add_argument("--seconds", type=float, default=28.0, help="length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "syncenergy" / "__init__.py").is_file():
        print(f"perfbench: no syncenergy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import syncenergy

    if Path(syncenergy.__file__).resolve().parent != SRC / "syncenergy":
        print(f"perfbench: syncenergy imported from {syncenergy.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(json.dumps({"report": report}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
