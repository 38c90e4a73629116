"""Seeded operations of the coinwalk benchmark workloads.

Every workload is a fixed list of operation templates whose sizes come from
the README, the CLI defaults and the ROADMAP baseline table.  The seed only
draws each operation's coin bias from ``P_GRID`` and its initial coin from
the states that operation accepts; operations run in the listed order.
Every drawable input has a recorded reference output (``reference/``), so
any seed is checked by the same correctness gate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

#: Coin biases the verify suites use; every operation draws from these.
P_GRID = (0.25, 1.0 / 3.0, 0.5, 0.75)

#: Initial coin states, as CLI options.  Both are accepted by every CLI
#: operation; ``pseudo_memory_reconstruct`` accepts c=0,d=1 at every bias
#: but the symmetric state only at p = 1/2 (IncompatibleCoinError otherwise).
COINS = {"c=0,d=1": ("--coin", "c=0,d=1"), "symmetric": ("--symmetric",)}

# name, CLI arguments (without --out), what the seed draws:
#   "coin"  - one bias from P_GRID and one initial coin from COINS
#   "plist" - three distinct biases from P_GRID for the figure's --p list
#   None    - nothing; the operation takes no coin
CLI_OPS = {
    # full step-0..N trajectories: SiteDistribution construction and _fmt
    "trajectory": (
        ("simulate-global-csv", "simulate --scheme global --steps 1200 --emit csv", "coin"),
        ("entropy-global", "analyze entropy --steps 1500", "coin"),
        ("majorize-global", "analyze majorize --scheme global --steps 1500", "coin"),
        ("figure-entropy", "figure entropy --steps 800", "plist"),
    ),
    # many tiny LaurentOperators; process start-up is a third of the pass
    "verify": (
        ("verify-all-12", "verify all --max-steps 12", None),
        ("verify-all-14", "verify all --max-steps 14", None),
        ("verify-kraus-20", "verify kraus --max-steps 20", None),
    ),
}

#: Known-defect probes: attempted every pass and counted in ``ok_ratio``,
#: but kept out of the timings and of the workload's ``attempted``/``failed``.
#: ``verify prop2 --max-steps 16`` exits 2 without a report because
#: ``binomial_solution`` trips the absolute null-sum tolerance from n = 15.
PROBES = {
    "verify": (("probe-prop2-16", "verify prop2 --max-steps 16", None),),
}

# Single-step-N library queries, one process per pass: they pay for whole
# trajectories and rebuild kraus_pair(i) per i, and exercise laurent at
# large degree.  name, step argument(s), what the seed draws ("coin" or
# "memory-coin": the states pseudo_memory_reconstruct accepts)
POINT_OPS = (
    ("global_distribution", 3000, "coin"),
    ("pseudo_memory_reconstruct", 200, "memory-coin"),
    ("quantum_kernel", 1000, "coin"),
    ("cp_walk_diagonal", (2, 150), "coin"),
)

WORKLOADS = ("trajectory", "verify", "point")


@dataclass(frozen=True)
class Op:
    """One operation of a pass, with the key of its reference output."""

    name: str
    args: tuple  # CLI arguments, or the point call's step argument(s)
    combo: str  # the drawn inputs; "" when nothing is drawn
    p: float | None = None
    coin: str | None = None
    probe: bool = False

    @property
    def key(self) -> str:
        return f"{self.name}|{self.combo}"


def _choices(draw, rng: random.Random | None = None) -> list:
    """The inputs an operation accepts; with ``rng``, in a seeded order.

    Coin draws cycle through the biases first, so a run of a few passes
    covers every bias once before it repeats one.
    """
    if draw in ("coin", "memory-coin"):
        ps, coins = list(P_GRID), list(COINS)
        if rng is not None:
            rng.shuffle(ps)
            rng.shuffle(coins)
        combos = [(ps[j % 4], coins[(j + j // 4) % 2]) for j in range(8)]
        if draw == "memory-coin":
            combos = [(p, c) for p, c in combos if c == "c=0,d=1" or p == 0.5]
        return combos
    if draw == "plist":
        combos = list(itertools.combinations(P_GRID, 3))
        if rng is not None:
            rng.shuffle(combos)
        return combos
    return [None]


def _templates(workload: str) -> list[tuple]:
    """(name, CLI arguments or call steps, draw, probe) per operation."""
    if workload == "point":
        return [(name, steps, draw, False) for name, steps, draw in POINT_OPS]
    return [(name, tuple(text.split()), draw, probe)
            for table, probe in ((CLI_OPS, False), (PROBES, True))
            for name, text, draw in table.get(workload, ())]


def _op(workload: str, template: tuple, choice) -> Op:
    name, args, draw, probe = template
    if workload == "point":
        p, coin = choice
        return Op(name, (args,), f"p={p!r},coin={coin}", p, coin)
    if draw == "plist":
        plist = ",".join(repr(p) for p in choice)
        return Op(name, args + ("--p", plist), f"p={plist}", probe=probe)
    if draw == "coin":
        p, coin = choice
        return Op(name, args + ("--p", repr(p)) + COINS[coin], f"p={p!r},coin={coin}",
                  p, coin, probe)
    return Op(name, args, "", probe=probe)


def passes(workload: str, seed: int) -> Iterator[list[Op]]:
    """The passes of a run; the seed fixes every pass's inputs."""
    rng = random.Random(seed)
    templates = _templates(workload)
    orders = [_choices(t[2], rng) for t in templates]
    for k in itertools.count():
        yield [_op(workload, t, order[k % len(order)]) for t, order in zip(templates, orders)]


def every_op(workload: str) -> list[Op]:
    """Every operation any seed can draw, probes excluded (for recording)."""
    return [_op(workload, t, choice) for t in _templates(workload) if not t[3]
            for choice in _choices(t[2])]
