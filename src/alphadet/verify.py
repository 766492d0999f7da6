"""Identity-verification suites with reproducible JSON reports.

Each suite builds its constants once, the values that are the same for
every case, and lists its cases deterministically from (parameters, seed).
A case is a function of (constants, item), for item what varies per case:
a permutation, a weight, a (trial, seed) pair or a kind.  One runner,
``_run``, runs the case on each item in order, in one process, and
assembles the report, so the report content is identical for repeated runs
with the same seed (the wall-time field aside).  A case's verdict is one exact
comparison in integers, and a failing case's witness is the values that it
compared, as exact rationals, with the inputs that it needs.  No case calls
a public Fraction route: those stay public API, and the tests hold them as
oracles of the integer checks.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .adet import (
    ADET_CAP,
    _cells_class_sums,
    _inflation_class_sums,
    _tables,
    _weigh,
    _wrdet_numerator,
    _wreath_average_counts,
    adet2_structured,
    adet_at,
    det_power_coeff,
    subgroup_avg_adet,
    translate_class_sums,
)
from .characters import (
    CHARACTER_CAP,
    _character_sum,
    _mn,
    alpha_power_expansion,
)
from .errors import IdentityViolation, NotDivisible, ShapeWeightMismatch, SizeCapExceeded
from .matrices import PermutedBlockOnes
from .partitions import (
    _content_coefficients,
    check_partition,
    content_poly,
    content_poly_at,
    format_partition,
    kostka_ssyt,
    num_standard_tableaux,
    partitions_of,
)
from .perms import (
    EXHAUSTIVE_CAP,
    FOURIER_JM_CAP,
    Perm,
    enumerate_perms,
    format_perm,
    jucys_murphy_product,
    profile_cells,
    profile_coset_index,
    young_subgroup_order,
)
from .polynomials import QPoly
from .randmat import SplitMix64, random_matrix, random_perm
from .rationals import dumps, format_rational


class CaseResult:
    def __init__(self, id: str, status: str, witness: dict | None = None):
        self.id = id
        self.status = status
        self.witness = witness

    def to_dict(self) -> dict:
        out = {"id": self.id, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class SuiteReport:
    def __init__(
        self,
        suite: str,
        params: dict,
        seed: int,
        case_count: int,
        cases: list[CaseResult],
        status: str,
        wall_time_s: float,
    ):
        self.suite = suite
        self.params = params
        self.seed = seed
        self.case_count = case_count
        self.cases = cases
        self.status = status
        self.wall_time_s = wall_time_s

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "seed": self.seed,
            "case_count": self.case_count,
            "cases": [c.to_dict() for c in self.cases],
            "status": self.status,
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return dumps(self.to_dict(), indent=2)


def _run(
    suite: str,
    params: dict,
    seed: int,
    t0: float,
    case: Callable,
    constants: object,
    items: list,
) -> SuiteReport:
    """Run case(constants, item) for each item in order, in this process,
    and report the results timed from t0."""
    cases = [case(constants, item) for item in items]
    status = "pass" if all(c.status == "pass" for c in cases) else "fail"
    return SuiteReport(
        suite=suite,
        params=params,
        seed=seed,
        case_count=len(cases),
        cases=cases,
        status=status,
        wall_time_s=round(time.monotonic() - t0, 6),
    )


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _fail(case_id: str, **values: Fraction) -> CaseResult:
    """A failing case, witnessed by the value of each side that its integer
    check compared, in argument order."""
    return CaseResult(
        case_id, "fail", witness={name: format_rational(v) for name, v in values.items()}
    )


def check_kn_cap(size: int) -> None:
    """Refuse a kn above the cap of the kn x kn class-sum walks."""
    if size > ADET_CAP:
        raise SizeCapExceeded(f"kn={size} exceeds cap {ADET_CAP}")


def _case_perms(size: int, samples: int, seed: int) -> list[Perm]:
    """The permutations of a chi or zsf run: seeded samples of S_size, or
    all of S_size when samples is 0."""
    if samples > 0:
        rng = SplitMix64(seed)
        return [random_perm(size, rng) for _ in range(samples)]
    if size > EXHAUSTIVE_CAP:
        raise SizeCapExceeded(
            f"exhaustive run needs kn <= {EXHAUSTIVE_CAP}; pass samples for kn={size}"
        )
    return list(enumerate_perms(size))


# --- main averaging identity ------------------------------------------------


def _theorem_case(constants, item) -> CaseResult:
    k, n, content = constants
    trial, seed = item
    size = k * n
    a = random_matrix(size, n, seed)
    # both sides from one sum of the inflation's class sums, over its
    # denominator d: coefficient i of the average is
    # average[i] / (d row_denom), and of the content times the wreath
    # determinant content[i] numerator / (d k^size); d cancels
    sums, denom = _inflation_class_sums(a, k)
    average, row_denom = _wreath_average_counts(sums, k, size)
    wreath = _wrdet_numerator(sums, k, size) * row_denom
    scale = k**size
    if all(v * scale == c * wreath for v, c in zip(average, content)):
        return CaseResult(f"trial={trial}", "pass")
    denom *= row_denom  # d row_denom, under the coefficients of both sides
    return CaseResult(
        f"trial={trial}",
        "fail",
        witness={
            "matrix": a.to_json_dict(),
            "matrix_seed": seed,
            "lhs": QPoly(Fraction(v, denom) for v in average).to_strings(),
            "rhs": QPoly(Fraction(c * wreath, denom * scale) for c in content).to_strings(),
        },
    )


def verify_theorem(k: int, n: int, trials: int, seed: int) -> SuiteReport:
    """Averaged alpha-determinant of the inflated matrix equals the content
    polynomial of the k^n rectangle times the k-wreath determinant, as exact
    polynomial equality, on seeded random integer matrices.

    Each trial sums its inflation's class sums once, orbit by orbit of
    block profiles, and reads both sides from it in integers: the average's
    coefficients in alpha over one denominator and the wreath determinant's
    numerator, compared coefficient by coefficient against the rectangle's
    integer content coefficients, which are built once per suite.  The
    class sums of each orbit are walked once per process.  That comparison
    is the verdict; a failing trial's witness is the two polynomials that
    it compared, each coefficient over the sum's denominator."""
    _require(k >= 1 and n >= 1 and trials >= 1, "k, n, trials must be positive")
    check_kn_cap(k * n)
    t0 = time.monotonic()
    rng = SplitMix64(seed)
    constants = (k, n, _content_coefficients((k,) * n))
    items = [(t, rng.next_u64()) for t in range(trials)]
    params = {"k": k, "n": n, "trials": trials}
    return _run("theorem", params, seed, t0, _theorem_case, constants, items)


# --- rectangular-shape subgroup averages and Kostka numbers -------------------


def rect_formula_value(k: int, n: int, mu: tuple[int, ...], g: Perm) -> Fraction:
    """(f / mu!) * adet[-1/k, 1/n](P(g) 1_mu) / adet[-1/kn](all-ones)."""
    _check_weight(k * n, mu)
    # first, so that its size cap rejects a huge shape before the tableau count
    value = adet2_structured(PermutedBlockOnes(g, mu), Fraction(-1, k), Fraction(1, n))
    return _rect_scale(k, n) * value / young_subgroup_order(mu)


def _check_weight(size: int, mu: Sequence[int]) -> None:
    """Refuse a weight mu of any size but kn."""
    if sum(mu) != size:
        raise ShapeWeightMismatch(f"|{tuple(mu)}| != {size} = k*n")


def _rect_scale(k: int, n: int) -> Fraction:
    """f / adet[-1/kn](all-ones) for f the number of standard tableaux of
    the k^n rectangle: the factor of the formula that is the same for every
    mu and g of a (k, n), so a suite computes it once."""
    size = k * n
    f = num_standard_tableaux((k,) * n)
    return f / content_poly_at((size,), Fraction(-1, size))


def _rect_point(k: int, n: int) -> tuple[dict[tuple[int, ...], tuple[int, ...]], int, int]:
    """(values, p, q): the value of each cycle type of S_kn at the formula's
    point (-1/k, 1/n), as the one integer of ``_tables`` over its denominator
    d, and p / q = ``_rect_scale(k, n)`` / d, so that the formula weighs a
    point value v as p v / q.  Read once per omega or chi suite."""
    values, denom = _tables(k * n, Fraction(-1, k), Fraction(1, n))
    scale = _rect_scale(k, n)
    return values, scale.numerator, scale.denominator * denom


def _omega_case(constants, mu) -> CaseResult:
    k, n, g, values, p, q = constants
    shape = (k,) * n
    # over |S_mu|, the formula is p T / q and the character average A, for
    # T and A the point values and the characters weighed by one read of the
    # class sums of the translates g h
    sums = translate_class_sums(g, mu)
    average = _character_sum(shape, sums)
    (total,) = _weigh(values, sums)
    at_identity = g.is_identity()
    holds = p * total == q * average
    if holds and at_identity:
        holds = average == kostka_ssyt(shape, mu) * young_subgroup_order(mu)
    case_id = f"mu={format_partition(mu)};g={format_perm(g)}"
    if holds:
        return CaseResult(case_id, "pass")
    order = young_subgroup_order(mu)
    sides = {
        "rect_formula": Fraction(p * total, q * order),
        "character_average": Fraction(average, order),
    }
    if at_identity:
        sides["kostka_ssyt"] = Fraction(kostka_ssyt(shape, mu))
    return _fail(case_id, **sides)


def verify_omega(
    k: int,
    n: int,
    mu: Sequence[int] | None = None,
    g: Perm | None = None,
    seed: int = 0,
) -> SuiteReport:
    """The rectangular-shape formula (structured two-parameter value over
    the all-ones normalization) equals the character-average route, and at
    the identity also the tableau-counting Kostka oracle.  Without an
    explicit weight, all weights of kn are covered.

    A case decides in integers.  It reads the class sums of the translates
    g h, h in S_mu, once from ``translate_class_sums``, and weighs them
    twice: by the character of each cycle type, A = sum_rho chi(rho) w_rho
    (``characters._character_sum``), and by its point value at (-1/k, 1/n),
    T (``adet._weigh``).  The point values and the formula's scale p / q come
    from ``_rect_point``, read once per suite, so the formula is p T / q over
    |S_mu| and the character average A over |S_mu|.  A case passes when
    p T = q A and, at g = id, A = K |S_mu| for K from ``kostka_ssyt``;
    otherwise its witness is p T / (q |S_mu|), A / |S_mu| and, at g = id, K.

    The first two routes are not independent: both weigh the class sums of
    the translates from ``translate_class_sums``.  Their agreement is a
    weighted sum of ``chi``'s per-type checks, so ``chi`` at every cycle
    type of S_kn implies this suite at every (mu, g).  At g = id only
    ``kostka_ssyt`` is an independent route."""
    _require(k >= 1 and n >= 1, "k, n must be positive")
    size = k * n
    check_kn_cap(size)
    t0 = time.monotonic()
    if g is None:
        g = Perm.identity(size)
    _require(g.n == size, "permutation size must equal kn")
    if mu is not None:
        # the checks that the Fraction routes make, in their order
        _check_weight(size, mu)
        check_partition(mu)
    weights = [tuple(mu)] if mu is not None else partitions_of(size)
    constants = (k, n, g, *_rect_point(k, n))
    params = {"k": k, "n": n, "mu": format_partition(mu) if mu else "all", "g": format_perm(g)}
    return _run("omega", params, seed, t0, _omega_case, constants, weights)


def _chi_case(constants, g) -> CaseResult:
    k, n, f, values, p, q = constants
    rho = g.cycle_type()
    case_id = f"g={format_perm(g)}"
    # P(g) is a permutation matrix, so its one class sum is {type of g: 1},
    # and both sides are over f: chi(rho) and p v / q, v rho's point value
    if _mn((k,) * n, rho) * q == p * values[rho][0]:
        return CaseResult(case_id, "pass")
    return _fail(
        case_id,
        character_ratio=Fraction(_mn((k,) * n, rho), f),
        adet_ratio=Fraction(p * values[rho][0], q * f),
    )


def verify_chi(k: int, n: int, samples: int = 0, seed: int = 0) -> SuiteReport:
    """Normalized rectangular character equals the two-parameter value of
    the bare permutation matrix over the all-ones normalization; exhaustive
    in g up to kn = 7, seeded samples at kn = 8 and 9.

    A case decides in integers: chi(rho) q = p v, for rho the cycle type of
    g, chi from Murnaghan-Nakayama and v the point value of rho from the
    cut-and-join tables, with the point values and p / q read once per suite
    by ``_rect_point``.  The two sides share no kernel.  A failing case's
    witness is the two ratios that it compared, chi / f and p v / (q f)."""
    _require(k >= 1 and n >= 1 and samples >= 0, "k, n must be positive, samples >= 0")
    size = k * n
    check_kn_cap(size)
    t0 = time.monotonic()
    perms = _case_perms(size, samples, seed)
    # the tableau count of the rectangle, for a witness, and the point
    # values with the formula's scale
    constants = (k, n, num_standard_tableaux((k,) * n), *_rect_point(k, n))
    params = {"k": k, "n": n, "samples": samples if samples > 0 else "exhaustive"}
    return _run("chi", params, seed, t0, _chi_case, constants, perms)


# --- rectangular character values on small supports (Stanley) ----------------


def _stanley_case(constants, w) -> CaseResult:
    k, n, f, falling, values = constants
    rho = w.cycle_type()
    embedded = rho + (1,) * (k * n - w.n)  # the cycle type of w on kn letters
    case_id = f"w={format_perm(w)}"
    # the character side is falling chi / f, and the sum side is rho's point
    # value over the denominator (kn)^m, which that sum's factor cancels
    if falling * _mn((k,) * n, embedded) == f * values[rho][0]:
        return CaseResult(case_id, "pass")
    return _fail(
        case_id,
        character_side=Fraction(falling * _mn((k,) * n, embedded), f),
        sum_side=Fraction(values[rho][0]),
    )


def verify_stanley(k: int, n: int, m: int, seed: int = 0) -> SuiteReport:
    """Rescaled rectangular character on a permutation supported on the
    first m letters equals the signed double-power sum over S_m, for every
    w in S_m.  The sum side is read from the cycle-class table of w, so no
    case enumerates S_m.

    A case decides in integers: (kn)! / (kn - m)! chi(rho') = f v, for
    rho' the cycle type of w on kn letters, chi from Murnaghan-Nakayama, f
    the tableau count of the rectangle and v the point value of w's type in
    S_m at (-1/k, 1/n), which ``_tables`` gives over (kn)^m, so that v is
    the sum side itself.  For c the number of cycles and K the class table
    of w, K[i][j] = #{s : len(ws) = i, len(s) = j}, that sum is
    (-1)^m sum_s (-k)^c(ws) n^c(s) = (kn)^m sum_ij K[i][j] (-1/k)^i (1/n)^j,
    as (-1)^m (-k)^m = k^m.  The point values are read once per suite.  A
    failing case's witness is the two sides that it compared,
    (kn)! / (kn - m)! chi / f and v."""
    _require(k >= 1 and n >= 1 and m >= 1, "k, n, m must be positive")
    size = k * n
    if m > min(size, EXHAUSTIVE_CAP):
        raise SizeCapExceeded(f"m={m} exceeds min(kn, {EXHAUSTIVE_CAP})")
    if size > CHARACTER_CAP:
        raise SizeCapExceeded(f"kn={size} exceeds character-evaluation cap {CHARACTER_CAP}")
    t0 = time.monotonic()
    f = num_standard_tableaux((k,) * n)
    falling = factorial(size) // factorial(size - m)
    values, _ = _tables(m, Fraction(-1, k), Fraction(1, n))
    constants = (k, n, f, falling, values)
    items = list(enumerate_perms(m))
    params = {"k": k, "n": n, "m": m}
    return _run("stanley", params, seed, t0, _stanley_case, constants, items)


# --- diagonal subgroup average: two routes share g's orbit walk, the coefficient is independent


def _zsf_case(constants, g) -> CaseResult:
    k, n, identity_numerator = constants
    size = k * n
    shape = (k,) * n
    cells = profile_cells(g, shape)
    # the three routes as integer numerators: the character average is
    # average / |S_k^n| and the wreath ratio numerator / identity_numerator,
    # both weighing the class sums of g's orbit, and the coefficient route
    # is coeff / index, read from g's own cells
    sums = _cells_class_sums(cells, shape)
    average = _character_sum(shape, sums)
    numerator = _wrdet_numerator(sums, k, size)
    coeff = det_power_coeff(cells, k)
    index = profile_coset_index(cells, k)
    order = young_subgroup_order(shape)
    case_id = f"g={format_perm(g)}"
    if average * identity_numerator == numerator * order and average * index == coeff * order:
        return CaseResult(case_id, "pass")
    return _fail(
        case_id,
        character_average=Fraction(average, order),
        wreath_ratio=Fraction(numerator, identity_numerator),
        coefficient_over_index=Fraction(coeff, index),
    )


def verify_zsf(k: int, n: int, samples: int = 0, seed: int = 0) -> SuiteReport:
    """Three-way agreement for the rectangular diagonal average: character
    average over the Young subgroup, ratio of wreath determinants of the
    row-permuted column replicator, and determinant-power coefficient over
    the double-coset index.

    Each case builds the block profile of g once, as the flat cells of
    ``profile_cells``, and decides in integers.  The ratio's numerator
    wrdet(P(g) R, k), for the column replicator R, is the alpha-determinant
    at -1/k of inflate(P(g) R, k) = P(g) 1_(k^n), so ``character_average``
    and ``wreath_ratio`` weigh the same class sums of the translates g h,
    h in S_k^n, read once per case from the cells: A / |S_k^n| with
    A = sum_rho chi(rho) w_rho, and R / R_id with R the wreath determinant's
    integer numerator, ``_wrdet_numerator``.  R_id is that numerator at
    g = id, P(id) 1_(k^n) = inflate(R, k), computed once per suite.  At
    k >= 2 the class sums are kept per orbit of block profiles, so an
    exhaustive run walks each orbit once, not each case; at k = 1 every g
    walks.  ``coefficient_over_index`` is D / I, with D from
    ``det_power_coeff`` and Mackey's index I from ``profile_coset_index``,
    both read from g's own cells and never from an orbit's slot, so it is
    the route that does not share the orbit grouping.  A case passes when
    A R_id = R |S_k^n| and A I = D |S_k^n|; otherwise its witness is the
    three ratios A / |S_k^n|, R / R_id and D / I."""
    _require(k >= 1 and n >= 1 and samples >= 0, "k, n must be positive, samples >= 0")
    size = k * n
    check_kn_cap(size)
    t0 = time.monotonic()
    perms = _case_perms(size, samples, seed)
    shape = (k,) * n
    # the ratio's denominator R_id is the same for every g: computed once
    identity = _cells_class_sums(profile_cells(Perm.identity(size), shape), shape)
    constants = (k, n, _wrdet_numerator(identity, k, size))
    params = {"k": k, "n": n, "samples": samples if samples > 0 else "exhaustive"}
    return _run("zsf", params, seed, t0, _zsf_case, constants, perms)


# --- weak alternating / divisibility ------------------------------------------


def _weak_alt_case(constants, item) -> CaseResult:
    size, k = constants
    kind, trial, seed = item
    a = random_matrix(size, size, seed)
    if kind == "duplicate-columns":
        col = a.column(0)
        for j in range(1, k + 1):
            a = a.with_column(j, col)
        value = adet_at(a, Fraction(-1, k))
        case_id = f"dup;trial={trial}"
        if value == 0:
            return CaseResult(case_id, "pass")
        return CaseResult(
            case_id,
            "fail",
            witness={"matrix": a.to_json_dict(), "value": format_rational(value)},
        )
    total = subgroup_avg_adet(a, k)
    divisor = content_poly((k,))
    case_id = f"div;trial={trial}"
    try:
        total.exact_div(divisor)
        return CaseResult(case_id, "pass")
    except NotDivisible:
        return CaseResult(
            case_id,
            "fail",
            witness={
                "matrix": a.to_json_dict(),
                "sum": total.to_strings(),
                "divisor": divisor.to_strings(),
            },
        )


def verify_weak_alternating(size: int, k: int, trials: int, seed: int) -> SuiteReport:
    """(a) random matrices with k+1 duplicated columns vanish at -1/k;
    (b) the S_k column average of a random matrix divides exactly by the
    single-row content polynomial of size k.

    With k equal to the matrix size the duplicated-column part is vacuous
    (k+1 columns cannot fit) and only the divisibility part runs."""
    _require(size >= 2 and trials >= 1, "size >= 2 and trials >= 1 required")
    _require(1 <= k <= size, "need 1 <= k <= size")
    if size > EXHAUSTIVE_CAP:  # the bound of subgroup_avg_adet, which every run calls
        raise SizeCapExceeded(f"size={size} exceeds cap {EXHAUSTIVE_CAP}")
    t0 = time.monotonic()
    rng = SplitMix64(seed)
    items = []
    if k < size:
        items += [("duplicate-columns", t, rng.next_u64()) for t in range(trials)]
    items += [("divisibility", t, rng.next_u64()) for t in range(trials)]
    params = {"size": size, "k": k, "trials": trials}
    return _run("weak-alt", params, seed, t0, _weak_alt_case, (size, k), items)


# --- character expansion of the alpha power weight ----------------------------


def _fourier_case(size, kind) -> CaseResult:
    if kind == "expansion":
        try:
            alpha_power_expansion(size)
            return CaseResult("expansion", "pass")
        except IdentityViolation as exc:
            return CaseResult("expansion", "fail", witness={"detail": str(exc)})
    product = jucys_murphy_product(size)
    bad = [
        (p, c)
        for p, c in sorted(product.items())
        if c != QPoly.monomial(p.transposition_length)
    ]
    if len(product) == factorial(size) and not bad:
        return CaseResult("jucys-murphy", "pass")
    witness = {
        "support": len(product),
        "mismatches": [
            {"perm": format_perm(p), "coefficient": c.to_strings()} for p, c in bad[:5]
        ],
    }
    return CaseResult("jucys-murphy", "fail", witness=witness)


def verify_fourier_jm(size: int, seed: int = 0) -> SuiteReport:
    """Per-cycle-type check of the character-basis expansion of the alpha
    power weight (size <= 12), plus the Jucys-Murphy product expansion whose
    coefficients must be the plain monomials (size <= 6)."""
    _require(size >= 1, "size must be positive")
    if size > CHARACTER_CAP:
        raise SizeCapExceeded(f"size={size} exceeds character-evaluation cap {CHARACTER_CAP}")
    t0 = time.monotonic()
    kinds = ["expansion"]
    if size <= FOURIER_JM_CAP:  # larger sizes run the expansion only
        kinds.append("jucys-murphy")
    return _run("fourier", {"size": size}, seed, t0, _fourier_case, size, kinds)
