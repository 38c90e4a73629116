"""The coinwalk benchmark: closed-loop passes over one workload.

Run from the root of a checkout (the package need not be installed)::

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0

One client runs one operation at a time.  A CLI operation is a fresh
``python -m coinwalk.cli ... --out FILE`` process with ``PYTHONPATH=src``;
a ``point`` pass is one fresh process running the library calls.  Passes
repeat until the next one would end after ``--seconds``; an untraced run
makes at least ``MIN_PASSES``.  Every output is
checked against the references recorded by ``record.py``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
``SETUP_SAMPLES`` fresh interpreters importing ``coinwalk.cli``, taken between
operations all through the run), ``wall_s`` (median pass),
``peak_rss_mb`` (largest peak RSS of any operation in the run) and
``ok_ratio`` (operations that succeeded, known-defect probes included, over
those attempted).  ``--trace 1`` alternates untraced and traced passes over
the same inputs and prints the per-layer metrics of the traced passes; a
traced run whose work counters cannot read the program is not correct.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
SETUP_SAMPLES = 31
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # a run is cut here so that it ends within 180 s
POINT_TOL = 1e-12
#: One pass per seeded bias; the bias-first order then gives every memory-heavy
#: operation every bias.
MIN_PASSES = len(workloads.P_GRID)


class Runner:
    """Runs operations of one workload as child processes in a scratch dir."""

    def __init__(self, root: Path, scratch: Path, reference: bool = True):
        self.root = root
        self.scratch = scratch
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        self.cli_reference, self.point_reference = {}, {}
        if reference:
            with open(REFERENCE / "cli_sha256.json", encoding="utf-8") as fh:
                self.cli_reference = json.load(fh)
            self.point_reference = dict(np.load(REFERENCE / "point.npz"))
        self._serial = 0
        self.deadline: float | None = None  # perf_counter time children are killed at

    def path(self, suffix: str) -> Path:
        self._serial += 1
        return self.scratch / f"{self._serial}{suffix}"

    def spawn(self, cmd: list[str]) -> tuple[float, float, int, str]:
        """Run a child to completion: wall seconds, peak RSS MB, exit code, stderr."""
        log = self.path(".err")
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timeout = OP_TIMEOUT_S
            if self.deadline is not None:
                timeout = min(timeout, max(self.deadline - start, 0.1))
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = log.read_text(errors="replace").strip()
        log.unlink()
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr[-300:]

    def setup_sample(self) -> float:
        """Seconds for a fresh interpreter to import ``coinwalk.cli``."""
        wall, _, code, stderr = self.spawn([sys.executable, "-c", "import coinwalk.cli"])
        if code != 0:
            raise RuntimeError(f"cannot import coinwalk.cli: {stderr}")
        return wall

    def run_pass(self, workload: str, ops: list, traced: bool, between=None) -> dict:
        """One pass; timings cover the workload's operations, not its probes.

        ``between`` is called after each child process, outside the timings.
        """
        result = {"wall_s": 0.0, "peak_rss_mb": 0.0, "attempted": 0, "failed": 0,
                  "probes": 0, "probes_failed": 0, "stats": [], "failures": []}
        if workload == "point":
            units = [(ops, self.point_command(ops, traced))]
        else:
            units = [([op], self.cli_command(op, traced)) for op in ops]
        for unit_ops, (cmd, out, stats) in units:
            wall, rss, code, stderr = self.spawn(cmd)
            for op, problem in zip(unit_ops, self._check(unit_ops, out, code, stderr)):
                result["probes" if op.probe else "attempted"] += 1
                if problem:
                    result["probes_failed" if op.probe else "failed"] += 1
                    result["failures"].append({"op": op.key, "probe": op.probe,
                                               "problem": problem})
            if not unit_ops[0].probe:
                result["wall_s"] += wall
                result["peak_rss_mb"] = max(result["peak_rss_mb"], rss)
            if stats is not None and stats.exists():
                with open(stats, encoding="utf-8") as fh:
                    result["stats"].append(json.load(fh))
            for path in (out, stats):
                if path is not None and path.exists():
                    path.unlink()
            if between is not None:
                between()
        return result

    def cli_command(self, op, traced: bool):
        out = self.path(".out")
        if traced:
            stats = self.path(".json")
            cmd = [sys.executable, str(HERE / "tracer.py"), str(stats)]
        else:
            stats = None
            cmd = [sys.executable, "-m", "coinwalk.cli"]
        return cmd + list(op.args) + ["--out", str(out)], out, stats

    def point_command(self, ops, traced: bool):
        out = self.path(".npz")
        spec = json.dumps([[op.name, op.args[0], op.p, op.coin] for op in ops])
        cmd = [sys.executable, str(HERE / "point.py"), str(out), spec]
        stats = self.path(".json") if traced else None
        if stats is not None:
            cmd.append(str(stats))
        return cmd, out, stats

    def _check(self, ops, out: Path, code: int, stderr: str) -> list:
        """One problem string (empty when correct) per operation."""
        if code != 0:
            return [f"exit {code}: {stderr}"] * len(ops)
        if not out.exists():
            return ["no output written"] * len(ops)
        if ops[0].probe:  # a fixed probe has no recorded output; it must pass
            try:
                report = json.loads(out.read_text(encoding="utf-8"))
            except ValueError as exc:
                return [f"unreadable report: {exc}"]
            return ["" if report.get("pass") is True else "report does not pass"]
        if out.suffix == ".npz":
            return self._check_point(ops, out)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        expected = self.cli_reference.get(ops[0].key)
        if expected is None:
            return [f"no reference for {ops[0].key}"]
        return ["" if digest == expected else f"sha256 {digest} != {expected}"]

    def _check_point(self, ops, out: Path) -> list:
        try:
            got = dict(np.load(out))
        except (OSError, ValueError) as exc:
            return [f"unreadable results: {exc}"] * len(ops)
        problems = []
        for i, op in enumerate(ops):
            ref_lo = self.point_reference.get(f"{op.key}|lo")
            if ref_lo is None or f"v{i}" not in got:
                problems.append("missing result or reference")
                continue
            err = window_distance(int(got[f"lo{i}"]), got[f"v{i}"],
                                  int(ref_lo), self.point_reference[f"{op.key}|v"])
            problems.append("" if err <= POINT_TOL else f"max deviation {err:.3e}")
        return problems


def window_distance(lo_a: int, a: np.ndarray, lo_b: int, b: np.ndarray) -> float:
    """Max absolute difference of two dense windows, zero outside each."""
    lo = min(lo_a, lo_b)
    hi = max(lo_a + a.size, lo_b + b.size)
    da, db = np.zeros(hi - lo), np.zeros(hi - lo)
    da[lo_a - lo : lo_a - lo + a.size] = a
    db[lo_b - lo : lo_b - lo + b.size] = b
    return float(np.max(np.abs(da - db)))


# -- per-layer metrics from tracer aggregates ----------------------------------


def _sum_stats(stats: list[dict]) -> tuple[dict, dict]:
    functions: dict[str, list] = {}
    counts: dict[str, float] = {}
    for record in stats:
        for name, (calls, self_s) in record["functions"].items():
            acc = functions.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return functions, counts


def layer_metrics(stats: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (summed over its processes)."""
    functions, counts = _sum_stats(stats)

    def calls(*names):
        return sum(functions.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(functions.get(n, (0, 0.0))[1] for n in names)

    def layer_self(layer):
        return sum(v[1] for k, v in functions.items() if k.startswith(layer + "."))

    mul = ("laurent.LaurentOperator.__mul__", "laurent.LaurentOperator.__rmul__")
    kraus_calls = calls("engine.kraus_pair")
    distinct = counts.get("engine.kraus_pair.distinct", 0)
    metrics = {
        "laurent.self_s": layer_self("laurent"),
        "laurent.mul.calls": calls(*mul),
        "laurent.mul.self_s": self_s(*mul),
        "laurent.init.calls": calls("laurent.LaurentOperator.__init__"),
        "laurent.block_matmul.calls": calls("laurent.CoinBlock.__matmul__"),
        "engine.self_s": layer_self("engine"),
        "engine.site_distribution.calls": calls("engine.SiteDistribution.__init__"),
        "engine.site_distribution.self_s": self_s("engine.SiteDistribution.__init__"),
        "engine.sites_out": counts.get("engine.sites_out", 0),
        "engine.cp_apply.calls": calls("engine.cp_apply"),
        "engine.cp_apply.self_s": self_s("engine.cp_apply"),
        "engine.density_cells": counts.get("engine.density_cells", 0),
        "engine.kraus_pair.calls": kraus_calls,
        "engine.kraus_pair.distinct": distinct,
        "engine.kraus_pair.useful_ratio": distinct / kraus_calls if kraus_calls else 0.0,
        "kernels.self_s": layer_self("kernels"),
        "kernels.apply.calls": calls("kernels.RealKernel.apply"),
        "kernels.apply.self_s": self_s("kernels.RealKernel.apply"),
        "kernels.apply.terms": counts.get("kernels.apply.terms", 0),
        "kernels.convolve.calls": calls("kernels.RealKernel.convolve"),
        "analysis.self_s": layer_self("analysis"),
        "analysis.majorize.self_s": self_s("analysis.compare_majorization"),
        "analysis.entropy.self_s": self_s("analysis.shannon_entropy",
                                          "analysis.entropy_series"),
        "analysis.probs_in": counts.get("analysis.probs_in", 0),
        "verify.self_s": layer_self("verify"),
        "verify.checks": counts.get("verify.checks", 0),
        "cli.self_s": layer_self("cli"),
        "cli.fmt.calls": calls("cli._fmt"),
        "cli.bytes_out": counts.get("cli.bytes_out", 0),
        "svgplot.self_s": layer_self("svgplot"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = counts.get(f"{layer}.errors", 0)
    metrics["trace.count_errors"] = counts.get("trace.count_errors", 0)
    return metrics


# -- reporting -----------------------------------------------------------------


def timing_summary(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "samples": n, "high_percentile": None}
    if n >= 11:
        summary["high_percentile"] = {"pct": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return summary


def metadata(root: Path, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": seed, "src_lines": src_lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "coinwalk" / "cli.py").is_file():
        print(f"error: no coinwalk source tree under {root}/src", file=sys.stderr)
        return 2
    scratch = root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        return measure(args, root, Runner(root, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, root: Path, runner: Runner) -> int:
    meta = metadata(root, args.seed)
    runner.deadline = time.perf_counter() + RUN_LIMIT_S
    runner.setup_sample()  # fills the bytecode and page caches; not counted
    setup: list[float] = []
    begin = time.perf_counter()
    deadline = begin + args.seconds

    def pace() -> None:
        """Take the set-up samples due by now.

        Spreading them evenly over the run keeps one slow phase of a shared
        machine from deciding their median.  Traced runs do not report set-up.
        """
        if args.trace:
            return
        due = math.ceil(SETUP_SAMPLES * (time.perf_counter() - begin) / args.seconds)
        while len(setup) < min(due, SETUP_SAMPLES):
            setup.append(runner.setup_sample())

    # traced runs report no peak RSS, so they need no full bias cycle
    min_passes = 1 if args.trace else MIN_PASSES
    passes, traced_passes, durations = [], [], []
    for ops in workloads.passes(args.workload, args.seed):
        start = time.perf_counter()
        passes.append(runner.run_pass(args.workload, ops, traced=False, between=pace))
        if args.trace:
            traced_passes.append(runner.run_pass(args.workload, ops, traced=True))
        durations.append(time.perf_counter() - start)
        if (len(passes) >= min_passes
                and time.perf_counter() + statistics.median(durations) > deadline):
            break
    if not args.trace:
        setup += [runner.setup_sample() for _ in range(SETUP_SAMPLES - len(setup))]

    every = passes + traced_passes
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    tried = attempted + sum(p["probes"] for p in every)
    ok = tried - failed - sum(p["probes_failed"] for p in every)
    wall = [p["wall_s"] for p in passes]
    summary = {
        "workload": args.workload,
        "passes": len(passes),
        "wall_s": timing_summary(wall),
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "fail_ratio": 1.0 - ok / tried,
        "probes": {"attempted": sum(p["probes"] for p in every),
                   "failed": sum(p["probes_failed"] for p in every)},
        "failures": [f for p in every for f in p["failures"]][:20],
    }
    correct = failed == 0
    if args.trace:
        per_pass = [layer_metrics(p["stats"]) for p in traced_passes]
        metrics = {name: {"value": statistics.median(m[name] for m in per_pass),
                          "unit": unit_of(name)}
                   for name in per_pass[0] if name != "trace.count_errors"}
        # each traced pass repeats the inputs of the untraced pass before it
        overhead = [t["wall_s"] - u["wall_s"] for u, t in zip(passes, traced_passes)]
        metrics["trace.overhead_s"] = {"value": statistics.median(overhead), "unit": "s"}
        total_self = sum(metrics[f"{l}.self_s"]["value"] for l in LAYERS)
        summary["layer_share"] = {l: metrics[f"{l}.self_s"]["value"] / total_self
                                  for l in LAYERS} if total_self else {}
        summary["traced_wall_s"] = timing_summary([p["wall_s"] for p in traced_passes])
        count_errors = sum(m["trace.count_errors"] for m in per_pass)
        summary["trace_count_errors"] = count_errors
        if count_errors:
            # a counter that no longer reads the program would report a
            # false gain on a lower-is-better metric
            print(f"error: {count_errors:g} work counts failed to read the program",
                  file=sys.stderr)
            correct = False
    else:
        summary["setup_s"] = timing_summary(setup)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            # peak RSS is set by the drawn bias, and the first MIN_PASSES passes give
            # the memory-heavy ops every bias, so the maximum does not depend on the seed
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
            "ok_ratio": {"value": ok / tried, "unit": "ratio"},
        }
    print("meta " + json.dumps(meta))
    print("summary " + json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
