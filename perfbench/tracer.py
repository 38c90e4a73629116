"""Outside-in tracer for the coinwalk layers.

``Tracer.install`` wraps the public functions and methods of each layer
module (plus the private CLI helpers the metrics count) and rebinds every
reference to a wrapped function in the package's namespaces, because
``cli``, ``verify`` and ``coinwalk/__init__`` import names directly.  Spans
are aggregated in memory per function: calls and self seconds (the span
minus its child spans).  Work counts are computed from arguments and
results.  ``dump`` writes everything as JSON at exit.

Run one CLI command traced (from the repository root, ``PYTHONPATH=src``)::

    python3 perfbench/tracer.py STATS.json simulate --steps 5 --p 0.5
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("laurent", "engine", "kernels", "analysis", "verify", "cli", "svgplot")

#: Private helpers whose calls the per-layer metrics count.
PRIVATE = {"cli": ("_fmt", "_write")}


def _count_sites(tracer, args, kwargs, result, outer):
    tracer.counts["engine.sites_out"] += len(args[0])


def _count_density(tracer, args, kwargs, result, outer):
    lo, hi = result.site_range
    tracer.counts["engine.density_cells"] += (hi - lo + 1) ** 2


def _count_kraus(tracer, args, kwargs, result, outer):
    config = args[0] if args else kwargs["config"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    coin = None if config.coin is None else config.coin.tobytes()
    tracer.kraus_keys.add((complex(config.c), complex(config.d), config.p, coin, n))


def _count_terms(tracer, args, kwargs, result, outer):
    mapping = args[1] if len(args) > 1 else kwargs["mapping"]
    tracer.counts["kernels.apply.terms"] += len(args[0].support) * len(mapping)


def _count_checks(tracer, args, kwargs, result, outer):
    tracer.counts["verify.checks"] += len(result["checks"])


def _count_bytes(tracer, args, kwargs, result, outer):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counts["cli.bytes_out"] += len(text.encode("utf-8"))


def _count_probs(tracer, args, kwargs, result, outer):
    """Probabilities entering the analysis layer from outside it."""
    if not outer:
        return
    engine = sys.modules["coinwalk.engine"]
    total = 0
    for arg in (*args, *kwargs.values()):
        if isinstance(arg, engine.SiteDistribution):
            total += len(arg)
        elif isinstance(arg, (list, tuple)):
            total += sum(len(d) for d in arg if isinstance(d, engine.SiteDistribution))
    tracer.counts["analysis.probs_in"] += total


COUNTERS = {
    "engine.SiteDistribution.__init__": _count_sites,
    "engine.cp_apply": _count_density,
    "engine.kraus_pair": _count_kraus,
    "kernels.RealKernel.apply": _count_terms,
    "verify.run_suite": _count_checks,
    "cli._write": _count_bytes,
}


class Tracer:
    """Per-function span aggregates and work counts for one process."""

    def __init__(self):
        self.functions: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: Counter = Counter()
        self.kraus_keys: set = set()
        self._frames: list[list] = []  # open spans: [layer, child seconds]
        self._paused = [False]  # set while a counter runs, so it adds no spans

    def _wrap(self, layer: str, name: str, fn):
        stat = self.functions.setdefault(name, [0, 0.0])
        count = COUNTERS.get(name, _count_probs if layer == "analysis" else None)
        frames, counts, paused = self._frames, self.counts, self._paused
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            outer = not frames or frames[-1][0] != layer
            frame = [layer, 0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if outer:  # the exception leaves the layer
                    counts[layer + ".errors"] += 1
                raise
            finally:
                elapsed = clock() - start
                frames.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                if frames:
                    frames[-1][1] += elapsed
            if count is not None:
                paused[0] = True
                try:
                    count(self, args, kwargs, result, outer)
                except Exception:
                    counts["trace.count_errors"] += 1
                finally:
                    paused[0] = False
            return result

        return traced

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            dunder = attr.startswith("__") and attr.endswith("__")
            if attr.startswith("_") and not dunder:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                new = self._wrap(layer, name, member)
            elif isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self._wrap(layer, name, member.__func__))
            elif isinstance(member, property) and member.fget is not None:
                new = property(self._wrap(layer, name, member.fget),
                               member.fset, member.fdel, member.__doc__)
            else:
                continue
            setattr(cls, attr, new)

    def install(self) -> None:
        """Wrap every layer and rebind the wrapped functions package-wide."""
        wrapped = {}  # id(original) -> wrapper; each wrapper keeps its original alive
        for layer in LAYERS:
            module = importlib.import_module(f"coinwalk.{layer}")
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and (
                    not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                ):
                    wrapped[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)

        for name, module in list(sys.modules.items()):
            if name != "coinwalk" and not name.startswith("coinwalk."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
                elif isinstance(value, dict):  # dispatch tables such as verify.SUITES
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            value[key] = wrapped[id(item)]

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        counts["engine.kraus_pair.distinct"] = len(self.kraus_keys)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.functions, "counts": counts}, fh)


def install(stats_path: str) -> Tracer:
    """Install a tracer that writes its aggregates to ``stats_path`` at exit."""
    tracer = Tracer()
    tracer.install()
    atexit.register(tracer.dump, stats_path)
    return tracer


def main() -> None:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    install(stats_path)
    cli = importlib.import_module("coinwalk.cli")
    sys.exit(cli.main(argv))


if __name__ == "__main__":
    main()
