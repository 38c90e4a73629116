"""Command-line front end: simulate walks, analyze them, draw figures, verify.

Exit codes: 0 success, 1 verification failure, 2 argument error, 3 I/O error,
4 numerical failure (a computed value failed a check).  Each ``cmd_*`` returns
its exit code and its output's text pieces; ``main`` alone writes them, once,
and maps errors to exit codes and prints them.  In ``verify`` a numerical
failure is a failing check of its report, so exit 1.  Output replaces ``--out``,
or reaches stdout, only on success: a failure leaves an existing file as it was.
All output is deterministic: identical invocations give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
from typing import Iterable, Iterator

import numpy as np

from . import analysis, svgplot
from .engine import NumericalError, SiteDistribution, WalkConfig
from .kernels import SCHEMES, walk_steps
from .verify import SUITES, run_suite


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


#: Rows per pass of :func:`_render`; a pass may end inside a step.
_CHUNK = 1024


@functools.cache
def _tables() -> dict:
    """:func:`_render`'s lookup tables.  ``words[10**4 * m + g]``: g's four digits as a
    uint32 of characters, NUL for each dropped trailing (m = 0) or leading (m = 2) zero.
    By s = 16 - k for x = d.ddd × 10**k: ``head[20 * s + 10 * dot + d]``, "," to the dot;
    ``tail[last][s]``, the exponent and "\\n"; ``p10[:, s]``, 10**s as hi, hi's Veltkamp
    halves, and lo = float(10**s - hi).
    """
    g = np.arange(10**4)[:, None]
    digits = (g // 10 ** np.arange(3, -1, -1) % 10 + 48).astype(np.uint8)
    kept = (g % 10 ** np.arange(4, 0, -1) != 0, True, g >= [1000, 100, 10, 0])
    words = np.concatenate([(digits * keep).view(np.uint32).ravel() for keep in kept])
    head = [f",0.{'0' * (s - 17)}{d}" if s < 21 else f",{d}{'.' * dot}"
            for s in range(299) for dot in (0, 1) for d in range(10)]
    tail = [[f"e-{s - 16:02d}" * (s > 20) + end for s in range(299)] for end in ("", "\n")]
    hi = np.array([float(10**s) for s in range(299)])
    lo = [float(10**s - int(h)) for s, h in enumerate(hi)]
    c = hi * 134217729.0  # 2**27 + 1: Veltkamp's split
    hi_hi = c - (c - hi)
    return {"words": words, "head": np.array(head, "S8").view(np.uint64),
            "tail": [np.array(t, "S8").view(np.uint64) for t in tail],
            "p10": np.array([hi, hi_hi, hi - hi_hi, lo])}


def _int_words(v: np.ndarray, words: np.ndarray) -> list[np.ndarray]:
    """``"%d" % v`` for integers v >= 0, as a uint32 word per four digits."""
    if v.max() < 10**4:
        return [words[v + 2 * 10**4]]
    groups = []
    for p in [10**i for i in range((len(str(v.max())) - 1) // 4 * 4, -1, -4)]:
        # all four digits after a nonzero group, else leading zeros dropped, and none before
        lead = np.where((v >= p) | (p == 1), 2 * 10**4, 0)
        groups.append(words[v // p % 10**4 + np.where(v >= p * 10**4, 10**4, lead)])
    return groups


def _fraction_words(x: np.ndarray, last: bool, out: np.ndarray, tables: dict) -> None:
    """Write ``",%.17g" % x`` (and "\\n" if ``last``) to the 8 uint32 words of ``out``.

    For x in [1e-280, 1) the digits D are x * 10**s rounded, s guessed by log10 and
    x * 10**s formed as a double-double by Dekker's two-product.  ``%`` prints the other
    rows, rows within 1e-6 of a tie, and rows whose D is not in (1e16, 1e17): log10
    missed the decade, or D = 1e16 may have been rounded up from the decade below.
    """
    y = np.where((x >= 1e-280) & (x < 1), x, 1.0)  # 1.0 gets the digits 10**16
    s = 16 - np.floor(np.log10(y)).astype(np.int64)
    big, big_hi, big_lo, small = (row.take(s) for row in tables["p10"])
    hi = y * big
    c = y * 134217729.0
    y_hi = c - (c - y)
    y_lo = y - y_hi
    lo = ((y_hi * big_hi - hi) + y_hi * big_lo + y_lo * big_hi) + y_lo * big_lo + y * small
    up = np.floor(lo + 0.5)
    rest = hi.astype(np.int64) + up.astype(np.int64)
    slow = np.flatnonzero((rest <= 10**16) | (rest >= 10**17) | (np.abs(lo - up) > 0.5 - 1e-6))
    lead = rest // 10**16
    rest -= lead * 10**16
    dot = rest != 0
    for j, p in enumerate((10**12, 10**8, 10**4)):
        g = rest // p
        rest -= g * p
        out[:, 2 + j] = tables["words"][g + 10**4 * (rest != 0)]  # trailing zeros dropped
    out[:, 5] = tables["words"][rest]
    # clipped: only a row that % prints has a lead digit past 9
    out.view(np.uint64)[:, 0] = tables["head"].take(s * 20 + dot * 10 + lead, mode="clip")
    out.view(np.uint64)[:, 3] = tables["tail"][last][s]
    if slow.size:
        text = [(",%.17g" + "\n" * last) % v for v in x[slow].tolist()]
        out[slow] = np.array(text, "S32").view(np.uint32).reshape(-1, 8)


def _render(step: np.ndarray, ints: np.ndarray, *values: np.ndarray) -> str:
    """The lines ``"%d,%d" + ",%.17g" * len(values)``, laid out as uint32 words, NULs dropped."""
    tables = _tables()
    sign = np.where(ints < 0, *np.frombuffer(b",-\0\0,\0\0\0", np.uint32))
    columns = [*_int_words(step, tables["words"]), sign, *_int_words(abs(ints), tables["words"])]
    at = len(columns) + len(columns) % 2  # the fractions' 8-byte words aligned
    frame = np.zeros((len(step), at + 8 * len(values)), np.uint32)
    frame[:, :len(columns)] = np.stack(columns, 1)
    for i, x in enumerate(values):
        _fraction_words(x, i == len(values) - 1, frame[:, at + 8 * i:at + 8 * i + 8], tables)
    return frame.tobytes().translate(None, b"\0").decode("ascii")


def _table(header: str, steps: Iterable[tuple]) -> Iterator[str]:
    """The header, then the lines of ``(step, ints, *floats)``, a ``_CHUNK`` buffer at a time."""
    yield header
    chunk, fill = [], 0
    for step, *columns in steps:
        columns = [np.broadcast_to(step, len(columns[0])), *columns]
        chunk = chunk or [np.empty(_CHUNK, int if i < 2 else float) for i in range(len(columns))]
        while len(columns[0]):
            take = min(_CHUNK - fill, len(columns[0]))
            for buffer, column in zip(chunk, columns):
                buffer[fill:fill + take] = column[:take]
            columns, fill = [column[take:] for column in columns], fill + take
            if fill == _CHUNK:
                yield _render(*chunk)
                fill = 0
    if fill:
        yield _render(*(buffer[:fill] for buffer in chunk))


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
    """Parse ``c=<complex>,d=<complex>``: each key once, and no other item."""
    items = [item.partition("=") for item in text.split(",")]
    parts = {key: value for key, eq, value in items if eq}
    if len(items) != 2 or set(parts) != {"c", "d"}:
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
    # ``figure lorenz`` has no --symmetric: it starts from the symmetric coin
    # unless --coin is given
    if getattr(args, "symmetric", args.coin is None):
        return WalkConfig.symmetric(args.p if args.p is not None else 0.5)
    if args.p is None:
        raise ValueError("--p is required unless --symmetric is given")
    c, d = args.coin or (1.0, 0.0)
    return WalkConfig(c=c, d=d, p=args.p)


#: Characters handed to the output stream per write.  A text stream encodes
#: each write into a new bytes object, so writing a one-piece output at once
#: would hold a second copy of it (about 32 MB for a 1200-step ``--emit json``).
_WRITE_CHUNK = 1 << 20


def _emit(path: str | None, pieces: Iterable[str]) -> None:
    """Write the text pieces in order to ``path``, or to stdout for None or "-".

    The pieces go to a temporary file as they are rendered, so no joined text
    exists.  Only once all are written does it replace the file ``path`` names
    (through any symlink), or get copied to stdout, a device or a pipe.
    """
    stdout = path is None or path == "-"
    if stdout or os.path.exists(path) and not os.path.isfile(path):
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            for text in pieces:
                _write(spool, text)
            spool.seek(0)
            if stdout:
                return shutil.copyfileobj(spool, sys.stdout)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                return shutil.copyfileobj(spool, fh)
    target = path
    if os.path.islink(path):
        # only a symlink is resolved: realpath would also collapse ".", ".."
        # and a trailing "/" and so write to a path that open() rejects
        target = os.path.realpath(path)
    # not mkstemp (mode 0o600): open() gives it the mode a new path gets, 0o666 & ~umask
    temp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        fh = open(temp, "x", encoding="utf-8", newline="")
    except OSError as exc:  # name the path given, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            for text in pieces:
                _write(fh, text)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _write(stream, text: str) -> None:
    for start in range(0, len(text), _WRITE_CHUNK):
        stream.write(text[start:start + _WRITE_CHUNK])


def _config_record(config: WalkConfig, scheme: str, m: int) -> dict:
    return {
        "scheme": scheme,
        "p": config.p,
        "c": _fmt_complex(config.c),
        "d": _fmt_complex(config.d),
        "m": m,
    }


# -- simulate ---------------------------------------------------------------


def _site_table(trajectory: Iterable[SiteDistribution]) -> Iterator[str]:
    return _table("step,site,probability\n",
                  ((n, *dist.to_arrays()) for n, dist in enumerate(trajectory)))


def _lorenz_table(trajectory: Iterable[SiteDistribution]) -> Iterator[str]:
    curves = enumerate(map(analysis.lorenz_curve, trajectory))
    return _table("step,n,n_over_N,gamma\n",
                  ((n, np.arange(c.fractions.size), c.fractions, c.gammas) for n, c in curves))


def cmd_simulate(args) -> tuple[int, Iterable[str]]:
    config = build_config(args)
    steps = walk_steps(config, args.scheme, args.steps, args.m)
    if args.emit == "csv":
        return 0, _site_table(steps)
    if args.emit == "json":
        records = []
        for n, dist in enumerate(steps):
            sites, probs = dist.to_arrays()
            records.append({"n": n, "sites": sites.tolist(), "probs": probs.tolist()})
        record = {"config": _config_record(config, args.scheme, args.m), "steps": records}
        return 0, [json.dumps(record, indent=2) + "\n"]
    stride = max((args.steps + 1) // 6, 1)
    series = []
    for n, dist in enumerate(steps):
        if n % stride == 0 or n == args.steps:
            sites, probs = dist.to_arrays()
            series.append((f"step {n}", sites.tolist(), probs.tolist()))
    chart = svgplot.line_chart(series, title=f"{args.scheme} walk site distributions",
                               xlabel="site", ylabel="probability")
    return 0, [chart]


# -- analyze ----------------------------------------------------------------


def cmd_analyze(args) -> tuple[int, Iterable[str]]:
    config = build_config(args)
    steps = walk_steps(config, args.scheme, args.steps, args.m)
    if args.which == "lorenz":
        return 0, _lorenz_table(steps)
    if args.which == "entropy":
        classical = walk_steps(WalkConfig(c=0.0, d=1.0, p=config.p), "prompt", args.steps)
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
    return 0, ["\n".join(lines) + "\n"]


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
        walk = walk_steps(WalkConfig.symmetric(p), "global", steps)
        series.append(
            (f"quantum p={p:.4g}", xs, [analysis.shannon_entropy(d) for d in walk])
        )
    classical = walk_steps(WalkConfig(c=0.0, d=1.0, p=0.5), "prompt", steps)
    series.append(
        ("classical p=0.5", xs, [analysis.shannon_entropy(d) for d in classical])
    )
    return series


def cmd_memory_diagram(args) -> tuple[int, Iterable[str]]:
    return 0, [svgplot.memory_diagram(args.steps)]


def cmd_lorenz_figure(args) -> tuple[int, Iterable[str]]:
    series = lorenz_figure_series(build_config(args), args.steps, args.scheme, args.m)
    chart = svgplot.line_chart(series, title="Lorenz curves of successive walk distributions",
                               xlabel="fraction of slots", ylabel="cumulative probability")
    return 0, [chart]


def cmd_entropy_figure(args) -> tuple[int, Iterable[str]]:
    series = entropy_figure_series(args.p or [1.0 / 3.0, 0.5, 0.75], args.steps)
    chart = svgplot.line_chart(series, title="Quantum and classical entropies by step",
                               xlabel="step", ylabel="entropy (nats)")
    return 0, [chart]


# -- verify -----------------------------------------------------------------


def cmd_verify(args) -> tuple[int, Iterable[str]]:
    report = run_suite(args.suite, args.max_steps, args.tol)
    return 0 if report["pass"] else 1, [json.dumps(report, indent=2) + "\n"]


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
    if args.out == "":
        parser.error("--out must name a file")
    try:
        code, pieces = args.func(args)
        _emit(args.out, pieces)
        return code
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
