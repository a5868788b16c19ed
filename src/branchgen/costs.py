"""Cost functions scoring how far a probability map's predicted constructor
distribution sits from a target distribution, via the chi-square statistic."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .adt import ADTUniverse, AdtError, is_number, live_support, resolve_constructor
from .prediction import Process, _check_size, _family_probs


class ConstraintError(AdtError):
    """A constructor/type exclusion that leaves no viable generator."""


def chi_square(observed: Sequence[float], expected: Sequence[float]) -> float:
    """sum((obs - exp)^2 / exp); expected entries must be positive and
    finite (an infinite one, such as a huge weight times the size, would
    make the sum NaN)."""
    if len(observed) != len(expected):
        raise AdtError("observed and expected lengths differ")
    total = 0.0
    for o, e in zip(observed, expected):
        if not 0.0 < e < math.inf:
            raise AdtError(f"expected entries must be positive and finite, got {e}")
        d = o - e
        total += d * d / e
    return total


@dataclass(frozen=True, eq=False)
class CostFunction:
    """Pure map (size, probmap) -> nonnegative real.

    ``targets`` lists (constructor, weight) pairs in declaration order; the
    expected count of each is weight * size. ``pinned`` constructors are
    hard-constrained to probability 0 and never contribute to the sum.
    """

    label: str
    universe: ADTUniverse = field(repr=False)
    targets: tuple[tuple[str, float], ...]
    pinned: frozenset[str]

    def __call__(self, size: int, probs: Mapping[str, float]) -> float:
        """The cost of ``probs`` at ``size``, on one ``Scorer``: ``chi_square``
        on the map's totals, bit for bit. A cost that overflows a double
        reads inf or nan, without a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            scorer = Scorer(self, size)
            cost = scorer(_family_probs(scorer.cu, probs))[0]
            scorer.warn()
            return cost

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """The targets' columns in ``u.compiled.ctors``, their weights, and
        the least and greatest weight (nan if any weight is)."""
        column = {cid: c for c, cid in enumerate(self.universe.compiled.ctors)}
        weights = np.array([w for _, w in self.targets], dtype=float)
        bounds = (float(weights.min()), float(weights.max())) if len(weights) else (1.0, 1.0)
        return np.array([column[c] for c, _ in self.targets], dtype=np.intp), weights, *bounds


class Scorer(Process):
    """``cost``'s scores at one size, on the prediction engine. A cost's
    ``__call__`` builds one per map; ``optimize`` builds one per search, so
    the size, the expected counts and the terminal check are checked once,
    and a step only predicts and sums. A call does not warn about starved
    terminals; its caller warns for the rows it keeps (see
    ``Process.warn``)."""

    def __init__(self, cost: CostFunction, size: int):
        _check_size(size)
        self.columns, weights, low, high = cost._columns
        self.expected = weights * size
        # w * size rises with w, so the extreme weights bound every entry
        if not (0.0 < low * size and high * size < math.inf):
            e = self.expected
            raise AdtError("expected entries must be positive and finite, "
                           f"got {e[~((0.0 < e) & (e < math.inf))][0]}")
        super().__init__(cost.universe, size)

    def __call__(self, p: np.ndarray, types: np.ndarray | None = None) -> list[float]:
        """The cost of each row of ``p``, a family-probability matrix whose
        entries are already checked (see ``_family_probs``): a search checks
        its rows once. ``types`` names the family type each row changes from
        the focus (see ``Process.matrices``).

        The targets' totals are taken from every constructor's with one
        ``take``. The chi-square sum is one cumulative sum per map over the
        targets in order (``np.add.accumulate``, the kernel of ``cumsum``
        without its method's overhead), which adds the terms left to right
        as ``chi_square`` does."""
        branching, last = self.counts(p, self.stars(p), types)
        d = (branching + last).take(self.columns, axis=1) - self.expected
        terms = d * d / self.expected
        if not terms.shape[1]:
            return [0.0] * len(terms)
        return np.add.accumulate(terms, axis=1)[:, -1].tolist()


def uniform_cost(u: ADTUniverse) -> CostFunction:
    """Drive every family constructor's expected count toward the size."""
    targets = tuple((c, 1.0) for c in u.family_constructors())
    return CostFunction("uniform", u, targets, frozenset())


def weighted_cost(u: ADTUniverse, weights: Mapping[str, float]) -> CostFunction:
    """Drive listed constructors toward weight * size; unlisted constructors
    do not contribute and are left free."""
    if not weights:
        raise AdtError("weighted cost needs at least one (constructor, weight) pair")
    family = set(u.family_constructors())
    resolved: dict[str, float] = {}
    for name, w in weights.items():
        cid = resolve_constructor(u, name)
        if cid not in family:
            raise ConstraintError(f"{cid} is not in the branching family")
        if not is_number(w):
            raise AdtError(f"weight for {cid} must be a number, got {w!r}")
        if not 0.0 < w < math.inf:
            raise AdtError(f"weight for {cid} must be positive and finite, got {w}")
        resolved[cid] = float(w)
    targets = tuple((c, resolved[c]) for c in u.family_constructors() if c in resolved)
    label = "weighted(" + ",".join(f"{c}={w:g}" for c, w in targets) + ")"
    return CostFunction(label, u, targets, frozenset())


def _resolve_family_ctors(u: ADTUniverse, names: Iterable[str]) -> set[str]:
    family = set(u.family_constructors())
    out = set()
    for name in names:
        cid = resolve_constructor(u, name)
        if cid not in family:
            raise ConstraintError(f"{cid} is not in the branching family")
        out.add(cid)
    return out


def _check_viable(u: ADTUniverse, live: np.ndarray, types: np.ndarray) -> None:
    """Reject the first of ``types`` (a mask over the family types), in
    family order, that keeps no live constructor or no live terminal."""
    cu = u.compiled
    nlive = np.bincount(cu.family_owner[live], minlength=cu.nfamily)
    nterm = np.bincount(cu.family_owner[live & cu.family_terminal], minlength=cu.nfamily)
    bad = np.flatnonzero(types & (nterm == 0))
    if not len(bad):
        return
    if not nlive[bad[0]]:
        raise ConstraintError(f"exclusion removes every constructor of {cu.types[bad[0]]}")
    raise ConstraintError(
        f"exclusion removes every terminal constructor of {cu.types[bad[0]]}; "
        "generation could not terminate")


def _live_cost(u: ADTUniverse, live: np.ndarray, label: str) -> CostFunction:
    kept = dict(zip(u.family_constructors(), live.tolist()))
    targets = tuple((c, 1.0) for c, keep in kept.items() if keep)
    pinned = frozenset(c for c, keep in kept.items() if not keep)
    return CostFunction(label, u, targets, pinned)


def _excluded_cost(u: ADTUniverse, pinned: set[str], label: str) -> CostFunction:
    """Every family type, reachable or not, must keep a live terminal."""
    live = np.array([c not in pinned for c in u.family_constructors()])
    _check_viable(u, live, np.ones(u.compiled.nfamily, dtype=bool))
    return _live_cost(u, live, label)


def only_cost(u: ADTUniverse, whitelist: Iterable[str]) -> CostFunction:
    """Pin everything outside the whitelist to probability 0; whitelisted
    constructors follow the uniform target."""
    keep = _resolve_family_ctors(u, whitelist)
    pinned = set(u.family_constructors()) - keep
    label = "only(" + ",".join(sorted(keep)) + ")"
    return _excluded_cost(u, pinned, label)


def without_cost(u: ADTUniverse, blacklist: Iterable[str]) -> CostFunction:
    """Pin the blacklisted constructors to probability 0."""
    pinned = _resolve_family_ctors(u, blacklist)
    label = "without(" + ",".join(sorted(pinned)) + ")"
    return _excluded_cost(u, pinned, label)


def _types_cost(u: ADTUniverse, excluded: list[str], label: str) -> CostFunction:
    """Pin the excluded types' constructors and every constructor that
    needs a type left with none; each type the root still reaches must
    keep a live terminal. The names are checked in the order given."""
    for tid in excluded:
        if tid not in u.decls:
            raise AdtError(f"unknown type: {tid}")
        if not u.is_family(tid):
            raise ConstraintError(f"{tid} is not in the branching family")
    if u.root in excluded:
        raise ConstraintError(f"the root type {u.root} may not be excluded")

    cu = u.compiled
    live, reached = live_support(u, np.isin(cu.family_owner, [cu.index[t] for t in excluded]))
    if not live[cu.slices[cu.root]].any():
        raise ConstraintError(
            "exclusion disconnects the family: no constructor of the root "
            f"type {u.root} survives")
    _check_viable(u, live, reached)
    return _live_cost(u, live, label)


def only_types_cost(u: ADTUniverse, types: Iterable[str]) -> CostFunction:
    keep = list(types)
    for tid in keep:
        if tid not in u.decls:
            raise AdtError(f"unknown type: {tid}")
    label = "onlyTypes(" + ",".join(sorted(set(keep))) + ")"
    return _types_cost(u, [t for t in u.family if t not in keep], label)


def without_types_cost(u: ADTUniverse, types: Iterable[str]) -> CostFunction:
    excluded = list(types)
    label = "withoutTypes(" + ",".join(sorted(set(excluded))) + ")"
    return _types_cost(u, excluded, label)


_COST_RE = re.compile(r"^\s*(\w+)\s*(?:\((.*)\))?\s*$", re.S)


def parse_cost_expression(u: ADTUniverse, text: str) -> CostFunction:
    """Parse the command-line cost syntax: uniform, weighted(C=3,...),
    only(C,...), without(C,...), onlyTypes(T,...), withoutTypes(T,...)."""
    m = _COST_RE.match(text)
    if not m:
        raise AdtError(f"cannot parse cost expression: {text!r}")
    name, body = m.group(1), m.group(2)
    args = [a.strip() for a in body.split(",")] if body and body.strip() else []

    if name == "uniform":
        if args:
            raise AdtError("uniform takes no arguments")
        return uniform_cost(u)
    if name == "weighted":
        weights: dict[str, float] = {}
        for arg in args:
            if "=" not in arg:
                raise AdtError(f"weighted entries look like Ctor=weight, got {arg!r}")
            key, val = arg.split("=", 1)
            try:
                weights[key.strip()] = float(val)
            except ValueError:
                raise AdtError(f"bad weight {val!r} for {key.strip()}") from None
        return weighted_cost(u, weights)
    if name == "only":
        return only_cost(u, args)
    if name == "without":
        return without_cost(u, args)
    if name == "onlyTypes":
        return only_types_cost(u, args)
    if name == "withoutTypes":
        return without_types_cost(u, args)
    raise AdtError(f"unknown cost function: {name!r}")
