"""Outside-in tracer: records a span around each call of a chosen set of
public alphadet functions, without changing the package.

`Tracer.install` replaces each function with a wrapper in its defining
module or class and in every module of the package that bound it by name
(``verify.py`` imports ``adet2_structured``, ``wrdet`` and ``adet_at``
directly, so patching ``alphadet.adet`` alone would miss those calls).
Wrappers pass return values and exceptions through unchanged.  Spans are
kept in memory as [parent index, name, start, end, argument key] and dumped
once, at the end of the run.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from fractions import Fraction


def _adet_at_key(a, x):
    return (a, Fraction(x))


def _character_key(shape, rho):
    return (tuple(shape), tuple(rho))


def _structured_class_key(s, x, y):
    return (s.g.cycle_type(), tuple(s.mu), Fraction(x), Fraction(y))


# (defining module, attribute path, span name, argument key for waste ratios)
LAYERS = [
    ("alphadet.adet", "adet2_structured", "adet.adet2_structured", _structured_class_key),
    ("alphadet.adet", "adet_poly", "adet.adet_poly", None),
    ("alphadet.adet", "adet_at", "adet.adet_at", _adet_at_key),
    ("alphadet.adet", "wrdet", "adet.wrdet", None),
    ("alphadet.adet", "wreath_average_poly", "adet.wreath_average_poly", None),
    ("alphadet.adet", "det_power_coeff", "adet.det_power_coeff", None),
    ("alphadet.characters", "character", "characters.character", _character_key),
    (
        "alphadet.characters",
        "subgroup_averaged_character",
        "characters.subgroup_averaged_character",
        None,
    ),
    ("alphadet.partitions", "content_poly", "partitions.content_poly", None),
    ("alphadet.partitions", "content_poly_at", "partitions.content_poly_at", None),
    ("alphadet.partitions", "num_standard_tableaux", "partitions.num_standard_tableaux", None),
    ("alphadet.partitions", "kostka_ssyt", "partitions.kostka_ssyt", None),
    ("alphadet.perms", "double_coset_index", "perms.double_coset_index", None),
    ("alphadet.perms", "block_profile", "perms.block_profile", None),
    ("alphadet.matrices", "scaled_int_rows", "matrices.scaled_int_rows", None),
    ("alphadet.matrices", "inflate", "matrices.inflate", None),
    ("alphadet.matrices", "column_replicator", "matrices.column_replicator", None),
    ("alphadet.polynomials", "QPoly.__add__", "polynomials.QPoly.add", None),
    ("alphadet.polynomials", "QPoly.__mul__", "polynomials.QPoly.mul", None),
]

SUITES = [
    ("alphadet.verify", f"verify_{suite}", f"verify.{suite}", None)
    for suite in ("chi", "omega", "theorem", "zsf")
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, key=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [stack[-1] if stack else -1, name, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if key is not None:
                span[4] = hash(key(*args, **kwargs))
            return result

        return traced

    def install(self, targets, package: str = "alphadet") -> None:
        """Wrap each target wherever the package holds a reference to it."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for module_name, path, name, key in targets:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            traced = self.wrap(name, original, key)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for bound_name, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, bound_name, value))
                        setattr(holder, bound_name, traced)

    def uninstall(self) -> None:
        while self._patches:
            holder, bound_name, value = self._patches.pop()
            setattr(holder, bound_name, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for parent, _name, start, end, _key in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_parent, _name, start, end, _key) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, per-call durations
    and the argument keys recorded."""
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "keys": []}
    )
    for span, own in zip(spans, self_times(spans)):
        _parent, name, start, end, key = span
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        row["durations"].append(end - start)
        if key is not None:
            row["keys"].append(key)
    return dict(out)


def repeat_ratio(keys) -> float:
    """Share of calls whose argument key was seen before in the run."""
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
