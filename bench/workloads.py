"""The ops of each workload: a fixed grid of sizes, dressed by the seed.

A timed run repeats one list of ops in passes and keeps each op's best
time (see ``bench.timed_run``), so the list is short, and on a short list
seed-drawn sizes would move the p50 between seeds by more than a
regression worth catching. The sizes are therefore a fixed grid that
spans each range of the workload evenly and pairs every small parameter
(m, the --f flag, the output format) with small and large sizes alike.
The seed chooses everything else the program and its checks receive: the
order of the ops, the perturbation noise of --f, the audit --seed and the
rational check points.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from checks import eulerian_coeffs, poly_text


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    params: dict


def spaced(lo: int, hi: int, n: int) -> list[int]:
    """n integers from lo to hi inclusive, as evenly spaced as integers allow."""
    return [lo + round(i * (hi - lo) / (n - 1)) for i in range(n)]


def _rational_points(rng: random.Random) -> tuple[Fraction, Fraction]:
    # Two distinct non-integer points, so no term of a check vanishes by luck.
    p = rng.sample([n for n in range(-9, 10) if n], 2)
    return Fraction(p[0], rng.randint(2, 7)), Fraction(p[1], rng.randint(2, 7))


def _verify(ell: int, m: int, perturbed: bool, rng: random.Random) -> Op:
    argv = ["verify", "--ell", str(ell), "--m", str(m)]
    f = eulerian_coeffs(ell)
    if perturbed:
        noise = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(ell)]
        f = [a + b for a, b in zip(f, noise + [0])]
        argv += ["--f", poly_text(f)]
    params = {"ell": ell, "m": m, "f": f, "points": _rational_points(rng)}
    return Op("verify", tuple(argv), params)


def congruence(rng: random.Random) -> list[Op]:
    # 20 verify and 14 solve ops. Verify sizes run through [10, 48] while m
    # cycles through 2..6 and --f flips every five sizes, so each (m, --f)
    # pair gets one size from each half of the range; solve cycles m
    # through 2..4 over [6, 16] the same way.
    ops = [
        _verify(ell, 2 + i % 5, i // 5 % 2 == 0, rng)
        for i, ell in enumerate(spaced(10, 48, 20))
    ]
    for i, ell in enumerate(spaced(6, 16, 14)):
        m = 2 + i % 3
        argv = ("solve", "--ell", str(ell), "--m", str(m), "--format", "json")
        ops.append(Op("solve", argv, {"ell": ell, "m": m}))
    return ops


def operators(rng: random.Random) -> list[Op]:
    # 15 ops of each command over its range; linial cycles m through 1..4.
    ops = []
    for i, ell in enumerate(spaced(8, 24, 15)):
        m = 1 + i % 4
        argv = ("linial", "--ell", str(ell), "--m", str(m), "--both")
        ops.append(Op("linial", argv, {"ell": ell, "m": m}))
    for ell in spaced(10, 36, 15):
        ops.append(Op("worpitzky", ("worpitzky", "--ell", str(ell)), {"ell": ell}))
    for ell in spaced(8, 32, 15):
        ops.append(Op("bernoulli", ("bernoulli", "--ell", str(ell), "--format", "json"), {"ell": ell}))
    for ell in spaced(50, 200, 15):
        ops.append(Op("eulerian", ("eulerian", "--ell", str(ell), "--format", "json"), {"ell": ell}))
    return ops


AUDIT_FORMATS = ("plain", "json", "csv")


def audit(rng: random.Random) -> list[Op]:
    # Five ops, each with its own audit seed, per (ell, m) in {3, 4, 5} x {2, 3}
    # and (6, 2), with the formats in turn. (6, 2) breaks the tie between the
    # cheap and the dear half of the grid, which would put the p50 on the jump
    # between two cost levels. ell and m stay below the 7 and 4 the battery
    # allows: at ell 7, m 4 one audit takes about 1.2 s, and the grid over the
    # full ranges would take too long per pass for three passes in 30 s.
    ops = []
    combos = [(ell, m) for ell in (3, 4, 5) for m in (2, 3)] + [(6, 2)]
    formats = itertools.cycle(AUDIT_FORMATS)
    for ell, m in combos:
        for _ in range(5):
            seed, fmt = rng.randrange(1_000_000), next(formats)
            argv = ("audit", "--ell", str(ell), "--m", str(m), "--seed", str(seed), "--format", fmt)
            ops.append(Op("audit", argv, {"ell": ell, "m": m, "seed": seed, "format": fmt}))
    return ops


# Why each workload exists:
# congruence - the congruence layer and big-operand Poly arithmetic. Half the
#   verify ops pass a perturbed f, so the exit-0 and exit-1 paths both run;
#   solve recomputes the same window power ell+1 times.
# operators - shift operators, series division, Bernoulli polynomials and CLI
#   rendering of large outputs. It never calls the congruence layer, so it is
#   the workload a congruence change must leave unchanged.
# audit - small operands, so per-call overhead (Poly normalisation, Fraction
#   construction, gcd) outweighs bignum work; every module runs, with cache
#   hits across checks and the solver check's duplicated solves.
WORKLOADS = {"congruence": congruence, "operators": operators, "audit": audit}


def workload_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one workload for one seed, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops
