"""Command-line front end: simulate walks, analyze them, draw figures, verify.

Exit codes: 0 success, 1 verification failure, 2 argument error, 3 I/O error.
All output is deterministic; identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, svgplot
from .engine import (
    WalkConfig,
    cp_walk,
    global_trajectory,
    prompt_trajectory,
)
from .kernels import delayed_kernel, kernel_walk
from .verify import run_suite

SCHEMES = ("prompt", "global", "kernel", "cp")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _rows(step: int, template: str, *columns: list) -> str:
    """One CSV line ``f"{step},{template % row}"`` per row of the columns.

    The lines are rendered by a single ``%`` operation on the interleaved
    columns.  ``"%.17g" % x`` prints x through the same CPython routine as
    ``_fmt(x)`` (``PyOS_double_to_string(x, 'g', 17, ...)``), so the bytes
    are the same as one ``_fmt`` call per value.
    """
    width, k = len(columns), len(columns[0])
    flat = [None] * (width * k)
    for i, column in enumerate(columns):
        flat[i::width] = column
    return (f"{step},{template}\n" * k) % tuple(flat)


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}i"


def parse_complex(text: str) -> complex:
    """Parse a complex literal in ``a+bi`` form (also plain reals and ``bi``)."""
    cleaned = text.strip().replace(" ", "")
    try:
        return complex(cleaned.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad complex literal: {text!r}")


def parse_coin(text: str) -> tuple[complex, complex]:
    """Parse ``c=<complex>,d=<complex>``."""
    parts = dict(
        item.split("=", 1) for item in text.split(",") if "=" in item
    )
    if set(parts) != {"c", "d"}:
        raise argparse.ArgumentTypeError(
            f"coin must be given as c=<complex>,d=<complex>, got {text!r}"
        )
    return parse_complex(parts["c"]), parse_complex(parts["d"])


def _int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


def _float_list(text: str) -> list[float]:
    return [float(s) for s in text.split(",") if s]


def build_config(args) -> WalkConfig:
    if getattr(args, "symmetric", False):
        return WalkConfig.symmetric(args.p if args.p is not None else 0.5)
    if args.p is None:
        print("error: --p is required unless --symmetric is given", file=sys.stderr)
        raise SystemExit(2)
    if args.coin is not None:
        c, d = args.coin
    else:
        c, d = 1.0, 0.0
    try:
        return WalkConfig(c=c, d=d, p=args.p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def walk_trajectory(config: WalkConfig, scheme: str, steps: int, m: int):
    """Step-0..N distributions for any of the four tracing schemes."""
    if scheme == "prompt":
        return prompt_trajectory(config, steps)
    if scheme == "global":
        return global_trajectory(config, steps)
    if scheme == "kernel":
        return kernel_walk(delayed_kernel(config, m), steps)
    if scheme == "cp":
        return [rho.diagonal() for rho in cp_walk(config, m, steps)]
    raise ValueError(f"unknown scheme: {scheme!r}")


#: Characters handed to the output stream per write.  A text stream encodes
#: each write into a new bytes object, so writing a whole table at once
#: would hold a second copy of it (about 22 MB for a 1200-step CSV).
_WRITE_CHUNK = 1 << 20


def _write(path: str | None, text: str) -> None:
    try:
        if path is None or path == "-":
            _write_chunks(sys.stdout, text)
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                _write_chunks(fh, text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        raise SystemExit(3)


def _write_chunks(stream, text: str) -> None:
    for start in range(0, len(text), _WRITE_CHUNK):
        stream.write(text[start:start + _WRITE_CHUNK])


def _config_record(config: WalkConfig, scheme: str, m: int) -> dict:
    return {
        "scheme": scheme,
        "p": config.p,
        "c": _fmt_complex(complex(config.c)),
        "d": _fmt_complex(complex(config.d)),
        "m": m,
    }


# -- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    config = build_config(args)
    trajectory = walk_trajectory(config, args.scheme, args.steps, args.m)
    if args.emit == "csv":
        rows = ["step,site,probability\n"]
        for n, dist in enumerate(trajectory):
            sites, probs = dist.to_arrays()
            rows.append(_rows(n, "%d,%.17g", sites.tolist(), probs.tolist()))
        _write(args.out, "".join(rows))
    elif args.emit == "json":
        record = {
            "config": _config_record(config, args.scheme, args.m),
            "steps": [
                {
                    "n": n,
                    "sites": [int(s) for s in dist.support],
                    "probs": [dist[s] for s in dist.support],
                }
                for n, dist in enumerate(trajectory)
            ],
        }
        _write(args.out, json.dumps(record, indent=2) + "\n")
    else:  # svg
        series = []
        for n, dist in enumerate(trajectory):
            if n == 0 or n % max(len(trajectory) // 6, 1) == 0 or n == len(trajectory) - 1:
                sites, probs = dist.to_arrays()
                series.append((f"step {n}", sites.tolist(), probs.tolist()))
        _write(
            args.out,
            svgplot.line_chart(
                series,
                title=f"{args.scheme} walk site distributions",
                xlabel="site",
                ylabel="probability",
            ),
        )
    return 0


# -- analyze ----------------------------------------------------------------


def _entropy_table(config: WalkConfig, scheme: str, steps: int, m: int):
    classical = prompt_trajectory(WalkConfig(c=0.0, d=1.0, p=config.p), steps)
    quantum = walk_trajectory(config, scheme, steps, m)
    rows = []
    for n in range(steps + 1):
        rows.append(
            (
                n,
                analysis.shannon_entropy(classical[n]),
                analysis.shannon_entropy(quantum[n]),
            )
        )
    return rows


def cmd_analyze(args) -> int:
    config = build_config(args)
    if args.which == "entropy":
        lines = ["step,entropy_classical_nats,entropy_quantum_nats"]
        for n, sc, sq in _entropy_table(config, args.scheme, args.steps, args.m):
            lines.append(f"{n},{_fmt(sc)},{_fmt(sq)}")
        _write(args.out, "\n".join(lines) + "\n")
    elif args.which == "lorenz":
        trajectory = walk_trajectory(config, args.scheme, args.steps, args.m)
        rows = ["step,n,n_over_N,gamma\n"]
        for step, dist in enumerate(trajectory):
            curve = analysis.lorenz_curve(dist)
            fractions = curve.fractions.tolist()
            rows.append(_rows(step, "%d,%.17g,%.17g", range(len(fractions)),
                              fractions, curve.gammas.tolist()))
        _write(args.out, "".join(rows))
    elif args.which == "majorize":
        trajectory = walk_trajectory(config, args.scheme, args.steps, args.m)
        lines = ["step_a,step_b,verdict,crossings"]
        for n in range(len(trajectory) - 1):
            verdict = analysis.compare_majorization(trajectory[n], trajectory[n + 1])
            crossings = ";".join(str(i) for i in verdict.crossings)
            lines.append(f"{n},{n + 1},{verdict.relation},{crossings}")
        _write(args.out, "\n".join(lines) + "\n")
    elif args.which == "sigma":
        trajectory = walk_trajectory(config, args.scheme, args.steps, args.m)
        lines = ["step,scheme,sigma,ratio_to_classical"]
        for n in range(1, len(trajectory)):
            sigma = analysis.standard_deviation(trajectory[n])
            ratio = sigma / math.sqrt(n)
            lines.append(f"{n},{args.scheme},{_fmt(sigma)},{_fmt(ratio)}")
        _write(args.out, "\n".join(lines) + "\n")
    return 0


# -- figure -----------------------------------------------------------------


def lorenz_figure_series(config: WalkConfig, steps: list[int], scheme: str, m: int):
    horizon = max(steps)
    trajectory = walk_trajectory(config, scheme, horizon, m)
    series = []
    for n in steps:
        curve = analysis.lorenz_curve(trajectory[n])
        series.append(
            (f"step {n}", curve.fractions.tolist(), curve.gammas.tolist())
        )
    return series


def entropy_figure_series(p_values: list[float], steps: int, symmetric: bool = True):
    series = []
    xs = list(range(steps + 1))
    for p in p_values:
        cfg = WalkConfig.symmetric(p) if symmetric else WalkConfig(c=0.0, d=1.0, p=p)
        walk = global_trajectory(cfg, steps)
        series.append(
            (f"quantum p={p:.4g}", xs,
             [analysis.shannon_entropy(d) for d in walk])
        )
    classical = prompt_trajectory(WalkConfig(c=0.0, d=1.0, p=0.5), steps)
    series.append(
        ("classical p=0.5", xs, [analysis.shannon_entropy(d) for d in classical])
    )
    return series


def cmd_figure(args) -> int:
    if args.which == "memory-diagram":
        _write(args.out, svgplot.memory_diagram(args.steps[0]))
        return 0
    p_values = args.p if args.p else [0.5]
    if args.which == "lorenz":
        if args.coin is not None:
            config = WalkConfig(c=args.coin[0], d=args.coin[1], p=p_values[0])
        else:
            config = WalkConfig.symmetric(p_values[0])
        series = lorenz_figure_series(config, args.steps, args.scheme, args.m)
        _write(
            args.out,
            svgplot.line_chart(
                series,
                title="Lorenz curves of successive walk distributions",
                xlabel="fraction of slots",
                ylabel="cumulative probability",
            ),
        )
        return 0
    # entropy
    if not args.p:
        p_values = [1.0 / 3.0, 0.5, 0.75]
    series = entropy_figure_series(p_values, args.steps[0])
    _write(
        args.out,
        svgplot.line_chart(
            series,
            title="Quantum and classical entropies by step",
            xlabel="step",
            ylabel="entropy (nats)",
        ),
    )
    return 0


# -- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.max_steps, args.tol)
    _write(args.out, json.dumps(report, indent=2, default=_json_default) + "\n")
    return 0 if report["pass"] else 1


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# -- parser -----------------------------------------------------------------


def _add_walk_options(parser, *, scheme_default="global", p_list=False):
    parser.add_argument("--scheme", choices=SCHEMES, default=scheme_default)
    if p_list:
        parser.add_argument("--p", type=_float_list, default=None,
                            help="coin bias, or comma list of biases")
    else:
        parser.add_argument("--p", type=float, default=None,
                            help="coin bias in [0, 1]")
    parser.add_argument(
        "--coin", type=parse_coin, default=None,
        help="initial coin amplitudes, c=<complex>,d=<complex> with i literals",
    )
    parser.add_argument(
        "--symmetric", action="store_true",
        help="use the canonical symmetric initialization c=1/sqrt(2), d=i/sqrt(2)",
    )
    parser.add_argument("--m", type=int, default=2,
                        help="trace period for the kernel and cp schemes")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinwalk",
        description="Discrete-time quantum walk simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a walk and emit its trajectory")
    _add_walk_options(sim)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--emit", choices=("csv", "json", "svg"), default="csv")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="entropy, Lorenz, majorization, sigma")
    ana.add_argument("which", choices=("entropy", "lorenz", "majorize", "sigma"))
    _add_walk_options(ana)
    ana.add_argument("--steps", type=int, required=True)
    ana.set_defaults(func=cmd_analyze)

    fig = sub.add_parser("figure", help="render a static SVG figure")
    fig.add_argument("which", choices=("memory-diagram", "lorenz", "entropy"))
    _add_walk_options(fig, p_list=True)
    fig.add_argument("--steps", type=_int_list, required=True,
                     help="step count, or comma list of steps for lorenz")
    fig.set_defaults(func=cmd_figure)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument(
        "suite",
        choices=("kraus", "stochastic", "recurrence", "memory", "prop2",
                 "analysis", "all"),
    )
    ver.add_argument("--max-steps", type=int, default=12)
    ver.add_argument("--tol", type=float, default=None)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "steps"):
        steps = args.steps if isinstance(args.steps, list) else [args.steps]
        if any(s < 0 for s in steps):
            parser.error("step counts must be nonnegative")
    if getattr(args, "m", 1) < 1:
        parser.error("trace period m must be at least 1")
    if getattr(args, "max_steps", 1) < 1:
        parser.error("max-steps must be at least 1")
    try:
        return args.func(args)
    except SystemExit:
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
