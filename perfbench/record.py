"""Record the reference outputs the benchmark's correctness gate compares to.

Run from the repository root at the commit whose outputs are the reference::

    python3 perfbench/record.py

It runs every operation any seed can draw once: CLI outputs are stored as
sha256 digests (``reference/cli_sha256.json``) and point results as dense
windows (``reference/point.npz``).  It also prints how closely the recorded
pseudo-memory reconstructions agree with direct stepping.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import workloads
from point import _config, window
from run import REFERENCE, Runner, window_distance


def main() -> int:
    root = Path.cwd()
    scratch = root / ".bench_tmp" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, scratch, reference=False)
    try:
        digests = {}
        for workload in workloads.CLI_OPS:
            for op in workloads.every_op(workload):
                cmd, out, _ = runner.cli_command(op, traced=False)
                wall, _, code, stderr = runner.spawn(cmd)
                if code != 0:
                    print(f"error: {op.key} exited {code}: {stderr}", file=sys.stderr)
                    return 1
                digests[op.key] = hashlib.sha256(out.read_bytes()).hexdigest()
                out.unlink()
                print(f"{wall:6.2f}s {op.key}", flush=True)

        ops = workloads.every_op("point")
        cmd, out, _ = runner.point_command(ops, traced=False)
        wall, _, code, stderr = runner.spawn(cmd)
        if code != 0:
            print(f"error: point calls exited {code}: {stderr}", file=sys.stderr)
            return 1
        got = dict(np.load(out))
        print(f"{wall:6.2f}s {len(ops)} point calls", flush=True)
        point = {}
        for i, op in enumerate(ops):
            point[f"{op.key}|lo"] = got[f"lo{i}"]
            point[f"{op.key}|v"] = got[f"v{i}"]
        memory_agreement(root, ops, point)

        with open(REFERENCE / "cli_sha256.json", "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        np.savez_compressed(REFERENCE / "point.npz", **point)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def memory_agreement(root: Path, ops, point) -> None:
    """Print max |pseudo-memory - direct stepping| over the recorded configs."""
    sys.path.insert(0, str(root / "src"))
    import coinwalk as cw

    worst = 0.0
    for op in ops:
        if op.name != "pseudo_memory_reconstruct":
            continue
        lo, values = window(cw.global_distribution(_config(cw, op.p, op.coin), op.args[0]))
        worst = max(worst, window_distance(lo, values, int(point[f"{op.key}|lo"]),
                                           point[f"{op.key}|v"]))
    print(f"pseudo-memory vs direct stepping: max deviation {worst:.3e}")


if __name__ == "__main__":
    sys.exit(main())
