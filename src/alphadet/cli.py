"""Command-line front end: direct computations and verification suites.

Matrices are read from JSON files ({"rows": R, "cols": C, "entries":
[["p/q", ...], ...]}); partitions are "3,2,1", permutations are 1-based
image lists "2,1,3", rationals are "p/q".

Exit codes: 0 on success / overall pass, 1 on any verification failure,
2 on usage or size-cap errors.

Each run is a fresh process that pays for its imports, so a well-formed
argv loads neither ``argparse`` nor ``json``: ``_plain_args`` reads it
straight from the command tables, and argparse is imported only to build
the full parser, for help and usage errors.  Every JSON output (reports,
summary and FAIL lines, polynomials) comes from ``rationals.dumps``;
``json`` is imported only to read a matrix file.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from .adet import adet2_poly, adet_at, adet_poly, wrdet
from .characters import character, subgroup_averaged_character
from .errors import AlphadetError, IdentityViolation
from .matrices import RatMatrix
from .partitions import kostka_ssyt, parse_partition
from .perms import Perm, parse_perm
from .rationals import dumps, format_rational, parse_rational
from .verify import (
    check_kn_cap,
    rect_formula_value,
    verify_chi,
    verify_omega,
    verify_fourier_jm,
    verify_stanley,
    verify_theorem,
    verify_weak_alternating,
    verify_zsf,
)

if TYPE_CHECKING:
    import argparse


def _load_matrix(path: str) -> RatMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        return RatMatrix.from_json(handle.read())


def _cmd_adet(args) -> int:
    m = _load_matrix(args.matrix)
    if args.alpha is not None:
        print(format_rational(adet_at(m, parse_rational(args.alpha))))
    else:
        print(dumps(adet_poly(m).to_strings()))
    return 0


def _cmd_adet2(args) -> int:
    m = _load_matrix(args.matrix)
    if (args.alpha is None) != (args.beta is None):
        raise ValueError("--alpha and --beta must be given together")
    poly = adet2_poly(m)
    if args.alpha is not None:
        print(format_rational(poly.eval(parse_rational(args.alpha), parse_rational(args.beta))))
    else:
        print(dumps(poly.to_strings()))
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
    check_kn_cap(k * n)  # before the identity of S_kn is built
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


def _run_suite(args):
    """The report of the suite that args name."""
    suite = args.suite
    seed = args.seed
    if suite == "theorem":
        return verify_theorem(args.k, args.n, args.trials, seed=seed)
    if suite == "omega":
        mu = None if args.mu is None else parse_partition(args.mu)
        g = None if args.perm is None else parse_perm(args.perm)
        return verify_omega(args.k, args.n, mu=mu, g=g, seed=seed)
    if suite == "chi":
        return verify_chi(args.k, args.n, samples=args.samples, seed=seed)
    if suite == "stanley":
        return verify_stanley(args.k, args.n, args.m, seed=seed)
    if suite == "zsf":
        return verify_zsf(args.k, args.n, samples=args.samples, seed=seed)
    if suite == "weak-alt":
        return verify_weak_alternating(args.size, args.k, args.trials, seed=seed)
    return verify_fourier_jm(args.size, seed=seed)


def _cmd_verify(args) -> int:
    """Run a suite, print its summary and write its report to the --json path.

    The path is opened before the suite runs, so a path that cannot be
    written is refused before any case.  A new file is created then and
    kept open for the report, and removed if the suite raises.  An existing
    file is only opened for appending and closed, so a suite that raises
    leaves it as it was, and it is replaced once the report is ready; a
    device such as /dev/null takes the report as any write.  Opening the
    created file a second time cost about 0.15 ms a process, 6% of a
    ``chi`` suite.
    """
    handle = None
    if args.json is not None:
        try:
            handle = open(args.json, "x", encoding="utf-8")
        except FileExistsError:
            open(args.json, "a", encoding="utf-8").close()
    try:
        report = _run_suite(args)
    except BaseException:
        if handle is not None:
            handle.close()
            os.remove(args.json)
        raise
    print(
        f"suite={report.suite} params={dumps(report.params)} "
        f"seed={report.seed} cases={report.case_count} status={report.status} "
        f"wall={report.wall_time_s}s"
    )
    for case in report.cases:
        if case.status != "pass":
            print(f"FAIL {case.id}: {dumps(case.witness)}")
    if args.json is not None:
        with handle or open(args.json, "w", encoding="utf-8") as out:
            out.write(report.to_json() + "\n")
    return 0 if report.passed else 1


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        from argparse import ArgumentTypeError  # its message is the usage error

        raise ArgumentTypeError(f"seed must lie in [0, 2^64), got {value}")
    return value


def _workers(text: str) -> int:
    value = int(text)
    if value < 1:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"workers must be at least 1, got {value}")
    return value


_RATIONAL = 'rational "p/q"; write --alpha=-1/2 for negative values'
_K = ("--k", {"type": int, "required": True})
_N = ("--n", {"type": int, "required": True})
_SAMPLES = ("--samples", {"type": int, "default": 0, "help": "0 = exhaustive"})

# name -> (help, handler, options) of each command and of each verify suite
COMMANDS = {
    "adet": ("alpha-determinant of a square matrix", _cmd_adet, [
        ("--matrix", {"required": True, "help": "path to matrix JSON"}),
        ("--alpha", {"help": f"evaluate at a {_RATIONAL} (default: the polynomial)"}),
    ]),
    "adet2": ("two-parameter alpha-determinant", _cmd_adet2, [
        ("--matrix", {"required": True}),
        ("--alpha", {"help": _RATIONAL}),
        ("--beta", {"help": _RATIONAL}),
    ]),
    "wrdet": ("k-wreath determinant of a kn x n matrix", _cmd_wrdet, [
        ("--matrix", {"required": True}),
        _K,
    ]),
    "kostka": ("Kostka number of a shape and weight", _cmd_kostka, [
        ("--shape", {"required": True}),
        ("--weight", {"required": True}),
        ("--method", {"choices": ["oracle", "rect-formula"], "default": "oracle"}),
    ]),
    "character": ("irreducible character value", _cmd_character, [
        ("--shape", {"required": True}),
        ("--cycle-type", {"required": True}),
    ]),
    "omega": ("Young-subgroup average of a character", _cmd_omega, [
        ("--shape", {"required": True}),
        ("--mu", {"required": True}),
        ("--perm", {"required": True}),
    ]),
    "verify": ("run an identity-verification suite", _cmd_verify, []),
}
SUITES = {
    "theorem": ("main averaging identity", _cmd_verify, [
        _K,
        _N,
        ("--trials", {"type": int, "default": 5}),
    ]),
    "omega": ("rectangular subgroup-average formula", _cmd_verify, [
        _K,
        _N,
        ("--mu", {"help": "single weight (default: all weights of kn)"}),
        ("--perm", {"help": "group element (default: identity)"}),
    ]),
    "chi": ("rectangular character formula", _cmd_verify, [_K, _N, _SAMPLES]),
    "stanley": ("small-support character formula", _cmd_verify, [
        _K,
        _N,
        ("--m", {"type": int, "required": True}),
    ]),
    "zsf": ("diagonal average, three routes", _cmd_verify, [_K, _N, _SAMPLES]),
    "weak-alt": ("vanishing and divisibility checks", _cmd_verify, [
        ("--size", {"type": int, "required": True, "help": "matrix size"}),
        _K,
        ("--trials", {"type": int, "default": 25}),
    ]),
    "fourier": ("alpha-power expansion and JM product", _cmd_verify, [
        ("--size", {"type": int, "required": True}),
    ]),
}
_SUITE_COMMON = [
    ("--seed", {"type": _seed, "required": True, "help": "integer in [0, 2^64)"}),
    ("--json", {"help": "write the JSON report to this path"}),
    ("--workers", {"type": _workers, "default": 1,
                   "help": "positive integer, accepted for compatibility: every suite runs in one process"}),
]


def _add_parsers(sub, table: dict, common=()) -> dict:
    """Add to sub a parser for every name in table; returns them by name."""
    parsers = {}
    for name, (help_text, handler, options) in table.items():
        p = parsers[name] = sub.add_parser(name, help=help_text)
        for flag, kwargs in [*options, *common]:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parsers


def build_parser() -> argparse.ArgumentParser:
    """The full parser, the only source of help and usage errors; argparse
    is imported here, so that a well-formed argv never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="alphadet",
        description="Exact alpha-determinant computations and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = _add_parsers(sub, COMMANDS)["verify"]
    vsub = verify.add_subparsers(dest="suite", required=True)
    _add_parsers(vsub, SUITES, _SUITE_COMMON)
    return parser


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """build_parser().parse_args(argv), read straight from the tables when
    argv is plain: a command, under verify a suite, then distinct
    "--flag value" pairs with every required flag, each value valid and not
    starting with "-".  None for any other argv (help, "=" forms,
    abbreviations, bad values), which only the full parser answers."""
    if not argv or argv[0] not in COMMANDS:
        return None
    values = {"command": argv[0]}
    _, values["func"], options = COMMANDS[argv[0]]
    pairs = argv[1:]
    if argv[0] == "verify":
        if len(argv) < 2 or argv[1] not in SUITES:
            return None
        values["suite"] = argv[1]
        _, values["func"], options = SUITES[argv[1]]
        options, pairs = [*options, *_SUITE_COMMON], argv[2:]
    given = dict(zip(pairs[::2], pairs[1::2]))
    if len(pairs) % 2 or 2 * len(given) != len(pairs):
        return None  # a flag without a value, or a repeated flag
    for flag, spec in options:
        text = given.pop(flag, None)
        if text is None:
            if spec.get("required"):
                return None
            value = spec.get("default")
        elif text.startswith("-"):
            return None
        else:
            try:
                value = spec.get("type", str)(text)
            except Exception as exc:
                # argparse reports these as usage errors; it is imported only
                # on this branch, after which the full parser answers argv
                from argparse import ArgumentTypeError

                if isinstance(exc, (ArgumentTypeError, TypeError, ValueError)):
                    return None
                raise
            if "choices" in spec and value not in spec["choices"]:
                return None
        values[flag.lstrip("-").replace("-", "_")] = value
    return None if given else SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
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
