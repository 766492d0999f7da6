"""Command-line front end: direct computations and verification suites.

Matrices are read from JSON files ({"rows": R, "cols": C, "entries":
[["p/q", ...], ...]}); partitions are "3,2,1", permutations are 1-based
image lists "2,1,3", rationals are "p/q".

Exit codes: 0 on success / overall pass, 1 on any verification failure,
2 on usage or size-cap errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .adet import adet2_poly, adet_at, adet_poly, wrdet
from .characters import character, subgroup_averaged_character
from .errors import AlphadetError, IdentityViolation
from .matrices import RatMatrix
from .partitions import kostka_ssyt, parse_partition
from .perms import Perm, parse_perm
from .rationals import format_rational, parse_rational
from .verify import (
    rect_formula_value,
    verify_chi,
    verify_omega,
    verify_fourier_jm,
    verify_stanley,
    verify_theorem,
    verify_weak_alternating,
    verify_zsf,
)


def _load_matrix(path: str) -> RatMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        return RatMatrix.from_json(handle.read())


def _cmd_adet(args) -> int:
    m = _load_matrix(args.matrix)
    if args.alpha is not None:
        print(format_rational(adet_at(m, parse_rational(args.alpha))))
    else:
        print(json.dumps(adet_poly(m).to_strings()))
    return 0


def _cmd_adet2(args) -> int:
    m = _load_matrix(args.matrix)
    if (args.alpha is None) != (args.beta is None):
        raise ValueError("--alpha and --beta must be given together")
    poly = adet2_poly(m)
    if args.alpha is not None:
        print(format_rational(poly.eval(parse_rational(args.alpha), parse_rational(args.beta))))
    else:
        print(json.dumps(poly.to_strings()))
    return 0


def _cmd_wrdet(args) -> int:
    print(format_rational(wrdet(_load_matrix(args.matrix), args.k)))
    return 0


def _cmd_kostka(args) -> int:
    shape = parse_partition(args.shape)
    weight = parse_partition(args.weight)
    if args.method == "oracle":
        print(kostka_ssyt(shape, weight))
        return 0
    if len(set(shape)) != 1:
        raise ValueError("rect-formula requires a rectangular shape k,k,...,k")
    k, n = shape[0], len(shape)
    value = rect_formula_value(k, n, weight, Perm.identity(k * n))
    print(format_rational(value))
    return 0


def _cmd_character(args) -> int:
    print(character(parse_partition(args.shape), parse_partition(args.cycle_type)))
    return 0


def _cmd_omega(args) -> int:
    value = subgroup_averaged_character(
        parse_partition(args.shape), parse_partition(args.mu), parse_perm(args.perm)
    )
    print(format_rational(value))
    return 0


def _cmd_verify(args) -> int:
    suite = args.suite
    common = {"seed": args.seed, "workers": args.workers}
    if suite == "theorem":
        report = verify_theorem(args.k, args.n, args.trials, **common)
    elif suite == "omega":
        mu = parse_partition(args.mu) if args.mu else None
        g = parse_perm(args.perm) if args.perm else None
        report = verify_omega(args.k, args.n, mu=mu, g=g, **common)
    elif suite == "chi":
        report = verify_chi(args.k, args.n, samples=args.samples, **common)
    elif suite == "stanley":
        report = verify_stanley(args.k, args.n, args.m, **common)
    elif suite == "zsf":
        report = verify_zsf(args.k, args.n, samples=args.samples, **common)
    elif suite == "weak-alt":
        report = verify_weak_alternating(args.size, args.k, args.trials, **common)
    else:
        report = verify_fourier_jm(args.size, **common)

    print(
        f"suite={report.suite} params={json.dumps(report.params)} "
        f"seed={report.seed} cases={report.case_count} status={report.status} "
        f"wall={report.wall_time_s}s"
    )
    for case in report.cases:
        if case.status != "pass":
            print(f"FAIL {case.id}: {json.dumps(case.witness)}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
    return 0 if report.passed else 1


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2^64), got {value}")
    return value


def _workers(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"workers must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphadet",
        description="Exact alpha-determinant computations and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rational_hint = 'rational "p/q"; write --alpha=-1/2 for negative values'

    p = sub.add_parser("adet", help="alpha-determinant of a square matrix")
    p.add_argument("--matrix", required=True, help="path to matrix JSON")
    p.add_argument("--alpha", help=f"evaluate at a {rational_hint} (default: the polynomial)")
    p.set_defaults(func=_cmd_adet)

    p = sub.add_parser("adet2", help="two-parameter alpha-determinant")
    p.add_argument("--matrix", required=True)
    p.add_argument("--alpha", help=rational_hint)
    p.add_argument("--beta", help=rational_hint)
    p.set_defaults(func=_cmd_adet2)

    p = sub.add_parser("wrdet", help="k-wreath determinant of a kn x n matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_wrdet)

    p = sub.add_parser("kostka", help="Kostka number of a shape and weight")
    p.add_argument("--shape", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--method", choices=["oracle", "rect-formula"], default="oracle")
    p.set_defaults(func=_cmd_kostka)

    p = sub.add_parser("character", help="irreducible character value")
    p.add_argument("--shape", required=True)
    p.add_argument("--cycle-type", required=True)
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("omega", help="Young-subgroup average of a character")
    p.add_argument("--shape", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--perm", required=True)
    p.set_defaults(func=_cmd_omega)

    v = sub.add_parser("verify", help="run an identity-verification suite")
    vsub = v.add_subparsers(dest="suite", required=True)

    def common(sp):
        sp.add_argument("--seed", type=_seed, required=True, help="integer in [0, 2^64)")
        sp.add_argument("--json", help="write the JSON report to this path")
        sp.add_argument("--workers", type=_workers, default=1, help="positive integer")
        sp.set_defaults(func=_cmd_verify)

    sp = vsub.add_parser("theorem", help="main averaging identity")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, default=5)
    common(sp)

    sp = vsub.add_parser("omega", help="rectangular subgroup-average formula")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mu", help="single weight (default: all weights of kn)")
    sp.add_argument("--perm", help="group element (default: identity)")
    common(sp)

    sp = vsub.add_parser("chi", help="rectangular character formula")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, default=0, help="0 = exhaustive")
    common(sp)

    sp = vsub.add_parser("stanley", help="small-support character formula")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    common(sp)

    sp = vsub.add_parser("zsf", help="diagonal average, three routes")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, default=0, help="0 = exhaustive")
    common(sp)

    sp = vsub.add_parser("weak-alt", help="vanishing and divisibility checks")
    sp.add_argument("--size", type=int, required=True, help="matrix size")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--trials", type=int, default=25)
    common(sp)

    sp = vsub.add_parser("fourier", help="alpha-power expansion and JM product")
    sp.add_argument("--size", type=int, required=True)
    common(sp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IdentityViolation as exc:
        print(f"FALSIFIED CLAIM: {exc}", file=sys.stderr)
        return 1
    except (AlphadetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
