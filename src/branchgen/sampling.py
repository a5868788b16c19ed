"""Random value generation under three strategies, plus empirical statistics.

Strategies:
  dragen   - size-bounded; family children at size-1; at size 0 only the
             type's terminal constructors (renormalized probabilities).
  megadeth - size-bounded with halving; uniform constructor choice, family
             children at size//2, terminals chosen uniformly at size 0.
  derive   - unbounded uniform choice; aborts once the emitted constructor
             count exceeds a budget.

Randomness contract: per-sample streams are derived with splitmix64 from
(seed, sample index); tree walks consume them through random.Random
(MT19937) and the derive statistics path through numpy PCG64. Identical
seeds reproduce identical values.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from math import sqrt
from typing import Mapping

import numpy as np

from .adt import (
    MODE_FAMILY,
    MODE_FOREIGN,
    MODE_GROUND,
    ADTUniverse,
    AdtError,
    uniform_probmap,
    unqualify,
    universe_hash,
)
from .prediction import star_probs
from .search import (
    STRATEGIES,
    STRATEGY_DERIVE,
    STRATEGY_DRAGEN,
    STRATEGY_MEGADETH,
    GenSpec,
)

DEFAULT_DERIVE_BUDGET = 10 ** 6

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_PRINTABLE = "".join(chr(c) for c in range(0x20, 0x7F))

_F_INT, _F_DOUBLE, _F_CHAR = (MODE_GROUND[atom] for atom in ("Int", "Double", "Char"))

# family-child size rules
_SIZE_DECREMENT = 0
_SIZE_HALVE = 1
_SIZE_NONE = 2


def splitmix64(x: int) -> int:
    x &= _M64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _M64
    return x ^ (x >> 31)


def stream_seed(seed: int, index: int) -> int:
    """Seed for the index-th per-sample stream: the (index+1)-th splitmix64
    output of the base seed."""
    return splitmix64((seed + (index + 1) * _GOLDEN) & _M64)


@dataclass(frozen=True)
class Value:
    """A sampled constructor tree; children mix Values and ground atoms
    (int, float, one-character str, or None for Unit)."""

    constructor: str
    children: tuple = ()


class BudgetExhausted:
    """Returned by the derive strategy when generation did not finish
    within its constructor budget."""

    def __init__(self, budget: int):
        self.budget = budget

    def __repr__(self):
        return f"BudgetExhausted(budget={self.budget})"


class _Tables:
    """Choice tables for one sampling configuration: the cumulative weights
    per type, over the universe's compiled types and field rows."""

    __slots__ = ("types", "pos", "ctor_ids", "rows", "cum_any", "cum_final",
                 "size_rule")

    def __init__(self, u: ADTUniverse, strategy: str,
                 probs: Mapping[str, float] | None,
                 stars: Mapping[str, float] | None,
                 foreign_probs: Mapping[str, float] | None):
        cu = u.compiled
        self.types = cu.types
        self.pos = cu.index
        self.ctor_ids = [cu.ctors[s] for s in cu.slices]
        self.rows = [cu.rows[s] for s in cu.slices]
        if strategy == STRATEGY_DRAGEN:
            self.size_rule = _SIZE_DECREMENT
        elif strategy == STRATEGY_MEGADETH:
            self.size_rule = _SIZE_HALVE
        else:
            self.size_rule = _SIZE_NONE

        if foreign_probs is None:
            foreign_probs = uniform_probmap(u, cu.types[cu.nfamily:])

        self.cum_any: list[list[float]] = []
        self.cum_final: list[list[float]] = []
        for t, cids in enumerate(self.ctor_ids):
            is_family = t < cu.nfamily
            if not is_family:
                weights = [foreign_probs[c] for c in cids]
            elif strategy == STRATEGY_DRAGEN:
                weights = [probs[c] for c in cids]
            else:
                weights = [1.0] * len(cids)
            self.cum_any.append(_cumulative(weights))

            if is_family and strategy != STRATEGY_DERIVE:
                terms = cu.terminal[cu.slices[t]].tolist()
                if not any(terms):
                    raise AdtError(
                        f"family type {cu.types[t]} has no terminal constructor; "
                        "size-bounded generation cannot terminate")
                final = [(stars.get(c, 0.0) if strategy == STRATEGY_DRAGEN else 1.0)
                         if term else 0.0 for c, term in zip(cids, terms)]
                self.cum_final.append(_cumulative(final))
            else:
                self.cum_final.append(self.cum_any[-1])


def _cumulative(weights: list[float]) -> list[float]:
    total = sum(weights)
    if total <= 0.0:
        # A dead type: drawing from it indexes past its constructors, which
        # the walks report as an error.
        return [-1.0] * len(weights)
    acc = 0.0
    out = []
    for w in weights:
        acc += w / total
        out.append(acc)
    # Clamp from the last positive weight onward so rounding in the running
    # sum can never push a draw past it into a zero-probability tail entry.
    last_pos = max(i for i, w in enumerate(weights) if w > 0)
    for i in range(last_pos, len(out)):
        out[i] = 1.0
    return out


def _draw_ground(mode: int, rng: random.Random):
    if mode == _F_INT:
        return rng.randint(-100, 100)
    if mode == _F_DOUBLE:
        return rng.random()
    if mode == _F_CHAR:
        return rng.choice(_PRINTABLE)
    return None  # Unit consumes no randomness


def _count_walk(tables: _Tables, root_pos: int, size: int, rng: random.Random,
                counts: dict[str, int], budget: int | None = None) -> bool:
    """Run one generation, recording constructor counts only. Returns False
    when a budget is given and was exhausted."""
    rand = rng.random
    cum_any = tables.cum_any
    cum_final = tables.cum_final
    ctor_ids = tables.ctor_ids
    rows = tables.rows
    size_rule = tables.size_rule
    emitted = 0
    stack: list[tuple[int, int]] = [(root_pos, size)]
    try:
        while stack:
            t, sz = stack.pop()
            cum = cum_final[t] if sz == 0 else cum_any[t]
            i = bisect_right(cum, rand())
            cid = ctor_ids[t][i]
            counts[cid] = counts.get(cid, 0) + 1
            if budget is not None:
                emitted += 1
                if emitted > budget:
                    return False
            row = rows[t][i]
            if not row:
                continue
            if size_rule == _SIZE_DECREMENT:
                child_sz = sz - 1
            elif size_rule == _SIZE_HALVE:
                child_sz = sz // 2
            else:
                child_sz = -1
            # Walk fields left to right (ground atoms drawn in field order, to
            # match the tree-building walk's stream), then expand depth-first.
            pushes = []
            for mode, target in row:
                if mode == MODE_FAMILY:
                    pushes.append((target, child_sz))
                elif mode == MODE_FOREIGN:
                    pushes.append((target, -1))
                else:
                    _draw_ground(mode, rng)
            stack.extend(reversed(pushes))
    except IndexError:  # drew from a dead type's table (see _cumulative)
        raise AdtError(f"generation reached type {tables.types[t]}, whose "
                       "constructors all have probability 0") from None
    return True


def _build_walk(tables: _Tables, root_pos: int, size: int, rng: random.Random,
                budget: int | None = None) -> Value | BudgetExhausted:
    """Same choice sequence as _count_walk, materializing the value tree."""
    rand = rng.random
    holder: list = [None]
    emitted = 0
    stack: list[tuple[int, int, list, int]] = [(root_pos, size, holder, 0)]
    try:
        while stack:
            t, sz, sink, slot = stack.pop()
            cum = tables.cum_final[t] if sz == 0 else tables.cum_any[t]
            i = bisect_right(cum, rand())
            if budget is not None:
                emitted += 1
                if emitted > budget:
                    return BudgetExhausted(budget)
            row = tables.rows[t][i]
            children: list = [None] * len(row)
            if tables.size_rule == _SIZE_DECREMENT:
                child_sz = sz - 1
            elif tables.size_rule == _SIZE_HALVE:
                child_sz = sz // 2
            else:
                child_sz = -1
            pending = []
            for k, (mode, target) in enumerate(row):
                if mode == MODE_FAMILY:
                    pending.append((target, child_sz, children, k))
                elif mode == MODE_FOREIGN:
                    pending.append((target, -1, children, k))
                else:
                    children[k] = _draw_ground(mode, rng)
            stack.extend(reversed(pending))
            sink[slot] = (tables.ctor_ids[t][i], children)
    except IndexError:  # drew from a dead type's table (see _cumulative)
        raise AdtError(f"generation reached type {tables.types[t]}, whose "
                       "constructors all have probability 0") from None

    def freeze(node) -> Value:
        # two-phase: expand, then assemble bottom-up
        order = []
        todo = [node]
        while todo:
            cur = todo.pop()
            order.append(cur)
            for ch in cur[1]:
                if isinstance(ch, tuple):
                    todo.append(ch)
        frozen: dict[int, Value] = {}
        for cur in reversed(order):
            kids = tuple(frozen[id(ch)] if isinstance(ch, tuple) else ch
                         for ch in cur[1])
            frozen[id(cur)] = Value(cur[0], kids)
        return frozen[id(node)]

    return freeze(holder[0])


def _tables_for_spec(u: ADTUniverse, spec: GenSpec, strategy: str,
                     foreign_probs: Mapping[str, float] | None) -> _Tables:
    if spec.root != u.root:
        raise AdtError(f"spec root {spec.root} does not match universe root {u.root}")
    return _Tables(u, strategy, spec.probabilities, spec.star_probabilities, foreign_probs)


def sample_dragen(u: ADTUniverse, spec: GenSpec, seed: int, index: int = 0,
                  foreign_probs: Mapping[str, float] | None = None) -> Value:
    """One value from a tuned size-bounded generator."""
    tables = _tables_for_spec(u, spec, STRATEGY_DRAGEN, foreign_probs)
    rng = random.Random(stream_seed(seed, index))
    v = _build_walk(tables, tables.pos[u.root], spec.size, rng)
    assert isinstance(v, Value)
    return v


def sample_megadeth(u: ADTUniverse, probs: Mapping[str, float], size: int,
                    seed: int, index: int = 0) -> Value:
    """One value from the halving generator; the probability map is ignored
    (choices are uniform) and is accepted only for interface parity."""
    tables = _Tables(u, STRATEGY_MEGADETH, None, None, None)
    rng = random.Random(stream_seed(seed, index))
    v = _build_walk(tables, tables.pos[u.root], size, rng)
    assert isinstance(v, Value)
    return v


def sample_derive(u: ADTUniverse, budget: int, seed: int,
                  index: int = 0) -> Value | BudgetExhausted:
    """One value from the unbounded uniform generator, or BudgetExhausted."""
    if budget < 1:
        raise AdtError("budget must be a positive integer")
    tables = _Tables(u, STRATEGY_DERIVE, None, None, None)
    rng = random.Random(stream_seed(seed, index))
    return _build_walk(tables, tables.pos[u.root], -1, rng, budget=budget)


def count_constructors(v: Value) -> dict[str, int]:
    """Multiset of constructor ids in a value; ground atoms are not counted."""
    counts: dict[str, int] = {}
    stack = [v]
    while stack:
        node = stack.pop()
        counts[node.constructor] = counts.get(node.constructor, 0) + 1
        for ch in node.children:
            if isinstance(ch, Value):
                stack.append(ch)
    return counts


@dataclass
class SampleStats:
    """Aggregated per-constructor statistics over a sampling run.

    budget_exhausted counts derive runs that aborted; those runs appear in
    neither the means nor the size histogram, so histogram frequencies plus
    budget_exhausted always total ``samples``.
    """

    samples: int
    mean_counts: dict[str, float]
    std_err: dict[str, float]
    size_histogram: dict[int, int]
    budget_exhausted: int = 0

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "meanCounts": dict(sorted(self.mean_counts.items())),
            "stdErr": dict(sorted(self.std_err.items())),
            "sizeHistogram": {str(k): v for k, v in sorted(self.size_histogram.items())},
            "budgetExhausted": self.budget_exhausted,
        }


def empirical_stats(u: ADTUniverse, spec: GenSpec, samples: int, seed: int,
                    foreign_probs: Mapping[str, float] | None = None,
                    budget: int | None = None) -> SampleStats:
    """Sample ``samples`` values on independent per-index streams and
    aggregate means, standard errors and the size histogram.

    The derive strategy is simulated level-by-level with multinomial draws
    (same count distribution as the tree walk, tractable at large budgets).
    """
    if samples < 1:
        raise AdtError("sample count must be a positive integer")
    if spec.strategy not in STRATEGIES:
        raise AdtError(f"unknown strategy {spec.strategy!r}")
    if spec.strategy == STRATEGY_DERIVE:
        return _derive_stats(u, samples, seed,
                             budget if budget is not None else DEFAULT_DERIVE_BUDGET)

    tables = _tables_for_spec(u, spec, spec.strategy, foreign_probs)
    root_pos = tables.pos[u.root]
    all_ctors = u.compiled.ctors
    sums = dict.fromkeys(all_ctors, 0)
    sumsq = dict.fromkeys(all_ctors, 0)
    hist: dict[int, int] = {}
    for i in range(samples):
        rng = random.Random(stream_seed(seed, i))
        counts: dict[str, int] = {}
        _count_walk(tables, root_pos, spec.size, rng, counts)
        total = 0
        for cid, n in counts.items():
            sums[cid] += n
            sumsq[cid] += n * n
            total += n
        hist[total] = hist.get(total, 0) + 1
    return _finish_stats(samples, all_ctors, sums, sumsq, hist, 0)


def _finish_stats(samples, ctors, sums, sumsq, hist, aborted) -> SampleStats:
    """Means and standard errors from integer sums. The sample variance
    (n·Σx² − (Σx)²) / (n(n−1)) is evaluated exactly and rounded once."""
    n = samples - aborted
    means = {c: sums[c] / n if n else 0.0 for c in ctors}
    errs = {c: sqrt((n * sumsq[c] - sums[c] ** 2) / (n * n * (n - 1))) if n > 1 else 0.0
            for c in ctors}
    return SampleStats(samples, means, errs, hist, aborted)


def _derive_stats(u: ADTUniverse, samples: int, seed: int, budget: int) -> SampleStats:
    if budget < 1:
        raise AdtError("budget must be a positive integer")
    cu = u.compiled
    nt = len(cu.types)
    ctor_names = cu.ctors
    slices = cu.slices
    pvals = [np.full(s.stop - s.start, 1.0 / (s.stop - s.start)) for s in slices]
    child_mat = [cu.counts[s] for s in slices]

    sums = dict.fromkeys(ctor_names, 0)
    sumsq = dict.fromkeys(ctor_names, 0)
    hist: dict[int, int] = {}
    aborted = 0
    nc = len(ctor_names)
    root_pos = cu.index[u.root]

    for i in range(samples):
        rng = np.random.Generator(np.random.PCG64(stream_seed(seed, i)))
        counts = np.zeros(nc, dtype=np.int64)
        placeholders = np.zeros(nt, dtype=np.int64)
        placeholders[root_pos] = 1
        emitted = 0
        ok = True
        while placeholders.any():
            emitted += int(placeholders.sum())
            if emitted > budget:
                ok = False
                break
            nxt = np.zeros(nt, dtype=np.int64)
            for t in range(nt):
                k = int(placeholders[t])
                if k == 0:
                    continue
                draws = rng.multinomial(k, pvals[t])
                counts[slices[t]] += draws
                nxt += draws @ child_mat[t]
            placeholders = nxt
        if not ok:
            aborted += 1
            continue
        total = int(counts.sum())
        hist[total] = hist.get(total, 0) + 1
        for ci in np.nonzero(counts)[0]:
            c = ctor_names[ci]
            n = int(counts[ci])
            sums[c] += n
            sumsq[c] += n * n
    return _finish_stats(samples, ctor_names, sums, sumsq, hist, aborted)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _atom_sexp(atom) -> str:
    if atom is None:
        return "()"
    if isinstance(atom, str):
        return f"'{atom}'"
    if isinstance(atom, float):
        return repr(atom)
    return str(atom)


def value_to_sexp(v: Value) -> str:
    """Render as (Ctor child ...) with unqualified constructor names."""
    out: list[str] = []
    stack: list = [v]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Value):
            out.append("(" + unqualify(node.constructor))
            stack.append(")")
            for ch in reversed(node.children):
                stack.append(ch if isinstance(ch, Value) else _atom_sexp(ch))
        else:
            out.append(_atom_sexp(node))
    text = []
    for piece in out:
        if text and piece != ")":
            text.append(" ")
        text.append(piece)
    return "".join(text)


def _atom_json(atom) -> str:
    if atom is None:
        return "null"
    if isinstance(atom, str):
        return json.dumps(atom)
    if isinstance(atom, float):
        return repr(atom)
    return str(atom)


def value_to_json(v: Value) -> str:
    """Render as nested {"constructor": ..., "children": [...]} objects,
    built iteratively so arbitrarily deep values serialize safely."""
    out: list[str] = []
    stack: list = [v]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Value):
            out.append('{"constructor": "%s", "children": [' % node.constructor)
            stack.append("]}")
            for k, ch in enumerate(reversed(node.children)):
                if k > 0:
                    stack.append(", ")
                stack.append(ch if isinstance(ch, Value) else _atom_json(ch))
        else:
            out.append(_atom_json(node))
    return "".join(out)


def histogram_csv(stats: SampleStats) -> str:
    """Size-distribution CSV with columns ``constructors,count``."""
    lines = ["constructors,count"]
    for size in sorted(stats.size_histogram):
        lines.append(f"{size},{stats.size_histogram[size]}")
    return "\n".join(lines) + "\n"


def adhoc_genspec(u: ADTUniverse, size: int, strategy: str,
                  probs: Mapping[str, float] | None = None) -> GenSpec:
    """Package an untuned generator spec (uniform probabilities unless
    given) for direct sampling without an optimizer run."""
    if strategy not in STRATEGIES:
        raise AdtError(f"unknown strategy {strategy!r}")
    family_probs = {c: p for c, p in (probs or uniform_probmap(u, u.family)).items()
                    if u.is_family(u.ctor_type(c))}
    stars = {} if strategy == STRATEGY_DERIVE else star_probs(u, family_probs)
    return GenSpec(
        root=u.root,
        size=size,
        strategy=strategy,
        probabilities=family_probs,
        star_probabilities=stars,
        universe_hash=universe_hash(u),
    )
