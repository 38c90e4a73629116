"""One pass of the ``point`` workload: single-step-N library queries.

Runs each requested call in this process and saves every result as a dense
window ``(lo, values)`` in an ``.npz`` file for the correctness gate.

    python3 perfbench/point.py OUT.npz OPS_JSON [STATS.json]

``OPS_JSON`` is a list of ``[name, steps, p, coin]``; with ``STATS.json``
the calls run under the layer tracer.
"""

from __future__ import annotations

import importlib
import json
import sys

import numpy as np


def _config(cw, p: float, coin: str):
    if coin == "symmetric":
        return cw.WalkConfig.symmetric(p)
    return cw.WalkConfig(c=0.0, d=1.0, p=p)


def _call(cw, name: str, steps, cfg):
    if name == "global_distribution":
        return cw.global_distribution(cfg, steps)
    if name == "pseudo_memory_reconstruct":
        return cw.pseudo_memory_reconstruct(cfg, steps)
    if name == "quantum_kernel":
        return cw.quantum_kernel(cfg, steps)
    if name == "cp_walk_diagonal":
        m, iterations = steps
        return cw.cp_walk(cfg, m, iterations)[-1].diagonal()
    raise ValueError(f"unknown point operation: {name!r}")


def window(result) -> tuple[int, np.ndarray]:
    """Dense ``(lo, values)`` of a site distribution or a real kernel."""
    items = list(result.items())
    lo = min(k for k, _ in items)
    values = np.zeros(max(k for k, _ in items) - lo + 1)
    for k, v in items:
        values[k - lo] = v
    return lo, values


def main() -> None:
    out, ops = sys.argv[1], json.loads(sys.argv[2])
    if len(sys.argv) > 3:
        import tracer

        tracer.install(sys.argv[3])
    cw = importlib.import_module("coinwalk")
    arrays = {}
    for i, (name, steps, p, coin) in enumerate(ops):
        steps = tuple(steps) if isinstance(steps, list) else steps
        lo, values = window(_call(cw, name, steps, _config(cw, p, coin)))
        arrays[f"lo{i}"] = np.array(lo)
        arrays[f"v{i}"] = values
    np.savez(out, **arrays)


if __name__ == "__main__":
    main()
