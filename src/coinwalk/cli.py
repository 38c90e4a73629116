"""Command-line front end: simulate walks, analyze them, draw figures, verify.

Exit codes: 0 success, 1 verification failure, 2 argument error, 3 I/O error,
4 numerical failure (a computed value failed a check, and no output file is
written).  ``main`` alone maps errors to exit codes and prints them.
All output is deterministic; identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from typing import Iterable, Iterator

from . import analysis, svgplot
from .engine import NumericalError, SiteDistribution, WalkConfig, _cp_steps, _global_steps
from .kernels import _kernel_steps, _prompt_steps, delayed_kernel
from .verify import SUITES, run_suite

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
    values = [int(s) for s in text.split(",") if s]
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}")
    return values


def _step_count(text: str) -> int:
    values = _int_list(text)
    if len(values) > 1:
        raise argparse.ArgumentTypeError(f"expected one step count, got {text!r}")
    return values[0]


def _float_list(text: str) -> list[float]:
    values = [float(s) for s in text.split(",") if s]
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}")
    return values


def build_config(args) -> WalkConfig:
    if getattr(args, "symmetric", False):
        return WalkConfig.symmetric(args.p if args.p is not None else 0.5)
    if args.p is None:
        raise ValueError("--p is required unless --symmetric is given")
    if args.coin is not None:
        c, d = args.coin
    else:
        c, d = 1.0, 0.0
    return WalkConfig(c=c, d=d, p=args.p)


def walk_steps(config: WalkConfig, scheme: str, steps: int,
               m: int) -> Iterator[SiteDistribution]:
    """Step-0..N distributions for any of the four tracing schemes, one at a time."""
    if scheme == "prompt":
        return _prompt_steps(config, steps)
    if scheme == "global":
        return _global_steps(config, steps)
    if scheme == "kernel":
        return _kernel_steps(delayed_kernel(config, m), steps)
    if scheme == "cp":
        return (rho.diagonal() for rho in _cp_steps(config, m, steps))
    raise ValueError(f"unknown scheme: {scheme!r}")


#: Characters handed to the output stream per write.  A text stream encodes
#: each write into a new bytes object, so writing a whole table at once
#: would hold a second copy of it (about 22 MB for a 1200-step CSV).
_WRITE_CHUNK = 1 << 20


def _emit(path: str | None, pieces: Iterable[str]) -> None:
    """Write the text pieces in order to ``path``, or to stdout for None or "-".

    The pieces are rendered as they are written, so no joined text exists;
    anything that can fail numerically must have run before this is called,
    because the file is opened first.
    """
    if path is None or path == "-":
        stream = contextlib.nullcontext(sys.stdout)
    else:
        stream = open(path, "w", encoding="utf-8", newline="")
    with stream as fh:
        for text in pieces:
            _write(fh, text)


def _write(stream, text: str) -> None:
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


# The per-site tables are rendered one step at a time as they are written.
# Their callers list the distributions first, so that a numerical failure in
# any step is raised before the output is opened.


def _site_table(trajectory: list[SiteDistribution]) -> Iterator[str]:
    yield "step,site,probability\n"
    for n, dist in enumerate(trajectory):
        sites, probs = dist.to_arrays()
        yield _rows(n, "%d,%.17g", sites.tolist(), probs.tolist())


def _lorenz_table(trajectory: list[SiteDistribution]) -> Iterator[str]:
    yield "step,n,n_over_N,gamma\n"
    for step, dist in enumerate(trajectory):
        curve = analysis.lorenz_curve(dist)
        fractions = curve.fractions.tolist()
        yield _rows(step, "%d,%.17g,%.17g", range(len(fractions)),
                    fractions, curve.gammas.tolist())


def cmd_simulate(args) -> int:
    config = build_config(args)
    steps = walk_steps(config, args.scheme, args.steps, args.m)
    if args.emit == "csv":
        _emit(args.out, _site_table(list(steps)))
    elif args.emit == "json":
        records = []
        for n, dist in enumerate(steps):
            sites, probs = dist.to_arrays()
            records.append({"n": n, "sites": sites.tolist(), "probs": probs.tolist()})
        record = {"config": _config_record(config, args.scheme, args.m), "steps": records}
        _emit(args.out, [json.dumps(record, indent=2) + "\n"])
    else:  # svg
        stride = max((args.steps + 1) // 6, 1)
        series = []
        for n, dist in enumerate(steps):
            if n % stride == 0 or n == args.steps:
                sites, probs = dist.to_arrays()
                series.append((f"step {n}", sites.tolist(), probs.tolist()))
        chart = svgplot.line_chart(series, title=f"{args.scheme} walk site distributions",
                                   xlabel="site", ylabel="probability")
        _emit(args.out, [chart])
    return 0


# -- analyze ----------------------------------------------------------------


def cmd_analyze(args) -> int:
    config = build_config(args)
    steps = walk_steps(config, args.scheme, args.steps, args.m)
    if args.which == "lorenz":
        _emit(args.out, _lorenz_table(list(steps)))
        return 0
    if args.which == "entropy":
        classical = _prompt_steps(WalkConfig(c=0.0, d=1.0, p=config.p), args.steps)
        lines = ["step,entropy_classical_nats,entropy_quantum_nats"]
        for n, (dc, dq) in enumerate(zip(classical, steps)):
            sc, sq = analysis.shannon_entropy(dc), analysis.shannon_entropy(dq)
            lines.append(f"{n},{_fmt(sc)},{_fmt(sq)}")
    elif args.which == "majorize":
        lines = ["step_a,step_b,verdict,crossings"]
        for n, verdict in enumerate(analysis.majorization_chain(steps)):
            crossings = ";".join(str(i) for i in verdict.crossings)
            lines.append(f"{n},{n + 1},{verdict.relation},{crossings}")
    else:  # sigma
        lines = ["step,scheme,sigma,ratio_to_classical"]
        for n, dist in enumerate(itertools.islice(steps, 1, None), 1):
            sigma = analysis.standard_deviation(dist)
            # the classical walk's spread; 0 at p = 0 or 1, where a ratio is inf or nan
            spread = 2 * math.sqrt(n * config.p * (1 - config.p))
            ratio = sigma / spread if spread else (math.inf if sigma else math.nan)
            lines.append(f"{n},{args.scheme},{_fmt(sigma)},{_fmt(ratio)}")
    _emit(args.out, ["\n".join(lines) + "\n"])
    return 0


# -- figure -----------------------------------------------------------------


def lorenz_figure_series(config: WalkConfig, steps: list[int], scheme: str, m: int):
    wanted = set(steps)
    curves = {n: analysis.lorenz_curve(dist)
              for n, dist in enumerate(walk_steps(config, scheme, max(steps), m))
              if n in wanted}
    return [(f"step {n}", curves[n].fractions.tolist(), curves[n].gammas.tolist())
            for n in steps]


def entropy_figure_series(p_values: list[float], steps: int):
    series = []
    xs = list(range(steps + 1))
    for p in p_values:
        walk = _global_steps(WalkConfig.symmetric(p), steps)
        series.append(
            (f"quantum p={p:.4g}", xs, [analysis.shannon_entropy(d) for d in walk])
        )
    classical = _prompt_steps(WalkConfig(c=0.0, d=1.0, p=0.5), steps)
    series.append(
        ("classical p=0.5", xs, [analysis.shannon_entropy(d) for d in classical])
    )
    return series


def cmd_memory_diagram(args) -> int:
    _emit(args.out, [svgplot.memory_diagram(args.steps)])
    return 0


def cmd_lorenz_figure(args) -> int:
    if args.coin is not None:
        config = WalkConfig(c=args.coin[0], d=args.coin[1], p=args.p)
    else:
        config = WalkConfig.symmetric(args.p)
    series = lorenz_figure_series(config, args.steps, args.scheme, args.m)
    chart = svgplot.line_chart(series, title="Lorenz curves of successive walk distributions",
                               xlabel="fraction of slots", ylabel="cumulative probability")
    _emit(args.out, [chart])
    return 0


def cmd_entropy_figure(args) -> int:
    series = entropy_figure_series(args.p or [1.0 / 3.0, 0.5, 0.75], args.steps)
    chart = svgplot.line_chart(series, title="Quantum and classical entropies by step",
                               xlabel="step", ylabel="entropy (nats)")
    _emit(args.out, [chart])
    return 0


# -- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.max_steps, args.tol)
    _emit(args.out, [json.dumps(report, indent=2) + "\n"])
    return 0 if report["pass"] else 1


# -- parser -----------------------------------------------------------------


def _add_walk_options(parser):
    parser.add_argument("--p", type=float, default=None, help="coin bias in [0, 1]")
    initial = parser.add_mutually_exclusive_group()
    initial.add_argument(
        "--symmetric", action="store_true",
        help="use the canonical symmetric initialization c=1/sqrt(2), d=i/sqrt(2)",
    )
    _add_scheme_options(parser, initial)


def _add_scheme_options(parser, initial=None):
    """The walk options shared with ``figure lorenz``: scheme, coin, period, output.

    ``--coin`` goes into the group ``initial`` when one is given.
    """
    parser.add_argument("--scheme", choices=SCHEMES, default="global")
    (initial or parser).add_argument(
        "--coin", type=parse_coin, default=None,
        help="initial coin amplitudes, c=<complex>,d=<complex> with i literals",
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
    figures = fig.add_subparsers(dest="which", required=True)
    memory = figures.add_parser("memory-diagram", help="the pseudo-memory diagram")
    memory.set_defaults(func=cmd_memory_diagram)
    entropy = figures.add_parser("entropy", help="global-walk and classical entropies by step")
    entropy.add_argument("--p", type=_float_list, default=None,
                         help="comma list of coin biases (default 1/3,0.5,0.75)")
    entropy.set_defaults(func=cmd_entropy_figure)
    for figure in (memory, entropy):
        figure.add_argument("--steps", type=_step_count, required=True, help="step count")
        figure.add_argument("--out", default=None, help="output path (default stdout)")
    lorenz = figures.add_parser("lorenz", help="Lorenz curves of chosen steps")
    lorenz.add_argument("--p", type=float, default=0.5, help="coin bias in [0, 1]")
    _add_scheme_options(lorenz)
    lorenz.add_argument("--steps", type=_int_list, required=True,
                        help="comma list of steps")
    lorenz.set_defaults(func=cmd_lorenz_figure)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=(*SUITES, "all"))
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
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
