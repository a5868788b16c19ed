"""Random value generation under three strategies, plus empirical statistics.

Strategies:
  dragen   - size-bounded; family children at size-1; at size 0 only the
             type's terminal constructors (renormalized probabilities).
  megadeth - size-bounded with halving; uniform constructor choice, family
             children at size//2, terminals chosen uniformly at size 0.
  derive   - unbounded uniform choice; aborts once the emitted constructor
             count exceeds a budget.

Randomness contract: streams are derived with splitmix64 from a base seed
and an index. Values come from tree walks, one random.Random (MT19937)
stream per sample index. Statistics come from a level-wise simulation, one
numpy PCG64 stream per block of samples: it has the tree walk's
constructor-count distribution but does not replay its draws. Identical
seeds reproduce identical values and identical statistics.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from math import sqrt
from typing import Callable, Iterator, Mapping
from weakref import WeakKeyDictionary

import numpy as np

from .adt import (
    MODE_FAMILY,
    MODE_FOREIGN,
    MODE_GROUND,
    ADTUniverse,
    AdtError,
    CompiledUniverse,
    uniform_probmap,
    unqualify,
    universe_hash,
)
from .prediction import star_probs
from .spec import (
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

# remaining size of a node's family children, given the node's size
_CHILD_SIZE = {
    STRATEGY_DRAGEN: lambda sz: sz - 1,
    STRATEGY_MEGADETH: lambda sz: sz // 2,
    STRATEGY_DERIVE: lambda sz: -1,
}

# Samples the statistics engine simulates together: its working arrays are
# bounded by this, not by the sample count.
_BLOCK = 4096
# Per-block sums of squares are exact in int64 while every count is below
# this (_BLOCK * _SQUARE_SAFE**2 < 2**63); larger counts are squared as
# Python ints.
_SQUARE_SAFE = 1 << 25
_INT64_MAX = np.iinfo(np.int64).max


def splitmix64(x: int) -> int:
    x &= _M64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _M64
    return x ^ (x >> 31)


def stream_seed(seed: int, index: int) -> int:
    """Seed for the index-th per-sample stream: the (index+1)-th splitmix64
    output of the base seed."""
    return splitmix64((seed + (index + 1) * _GOLDEN) & _M64)


@dataclass(frozen=True, eq=False, repr=False)
class Value:
    """A sampled constructor tree; children mix Values and ground atoms
    (int, float, one-character str, or None for Unit). ``==``, ``hash`` and
    ``repr`` act as the dataclass-generated ones, at any depth."""

    constructor: str
    children: tuple = ()

    def _key(self) -> tuple:
        """The tree in pre-order: ``(constructor, child count)`` for a node,
        the atom itself for an atom. Equal keys mean equal trees."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.__class__ is Value:
                out.append((node.constructor, len(node.children)))
                stack.extend(reversed(node.children))
            else:
                out.append(node)
        return tuple(out)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.__class__ is str:
                out.append(node)
                continue
            children = node.children
            out.append(f"{node.__class__.__qualname__}"
                       f"(constructor={node.constructor!r}, children=(")
            stack.append(",))" if len(children) == 1 else "))")
            for k, ch in reversed(list(enumerate(children))):
                stack.append(ch if ch.__class__ is Value else repr(ch))
                if k:
                    stack.append(", ")
        return "".join(out)


class BudgetExhausted:
    """Returned by the derive strategy when generation did not finish
    within its constructor budget."""

    def __init__(self, budget: int):
        self.budget = budget

    def __repr__(self):
        return f"BudgetExhausted(budget={self.budget})"


class _Tables:
    """Choice tables for one sampling configuration, over the universe's
    compiled types and field rows. Per type, ``p_any`` and ``p_final`` hold
    the constructor probabilities at any size and at size 0, normalized and
    cut after the last positive entry (empty for a dead type); ``cum_any``
    and ``cum_final`` are the tree walk's bisect tables derived from them,
    and ``nodes`` says how it builds each constructor's node (see
    ``_node_plan``)."""

    __slots__ = ("cu", "ctor_ids", "nodes", "p_any", "p_final", "cum_any",
                 "cum_final", "child_size")

    def __init__(self, u: ADTUniverse, strategy: str,
                 probs: Mapping[str, float] | None,
                 stars: Mapping[str, float] | None,
                 foreign_probs: Mapping[str, float] | None):
        cu = self.cu = u.compiled
        self.ctor_ids = [cu.ctors[s] for s in cu.slices]
        self.nodes = _node_plans(cu)
        self.child_size = _CHILD_SIZE[strategy]

        if foreign_probs is None:
            foreign_probs = uniform_probmap(u, cu.types[cu.nfamily:])

        self.p_any: list[list[float]] = []
        self.p_final: list[list[float]] = []
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
            p_any = _normalized(weights)
            self.p_any.append(p_any)
            self.cum_any.append(_cumulative(p_any, len(cids)))

            if is_family and strategy != STRATEGY_DERIVE:
                terms = cu.terminal[cu.slices[t]].tolist()
                if not any(terms):
                    raise AdtError(
                        f"family type {cu.types[t]} has no terminal constructor; "
                        "size-bounded generation cannot terminate")
                final = [(stars.get(c, 0.0) if strategy == STRATEGY_DRAGEN else 1.0)
                         if term else 0.0 for c, term in zip(cids, terms)]
                p_final = _normalized(final)
                self.p_final.append(p_final)
                self.cum_final.append(_cumulative(p_final, len(cids)))
            else:
                self.p_final.append(p_any)
                self.cum_final.append(self.cum_any[-1])

    def dead_type_error(self, t: int) -> AdtError:
        return AdtError(f"generation reached type {self.cu.types[t]}, whose "
                        "constructors all have probability 0")


def _normalized(weights: list[float]) -> list[float]:
    """Weights divided by their total, cut after the last positive weight, so
    that no draw can land in a zero-probability tail; empty when no weight is
    positive."""
    total = sum(weights)
    if total <= 0.0:
        return []
    last_pos = max(i for i, w in enumerate(weights) if w > 0)
    return [w / total for w in weights[:last_pos + 1]]


def _cumulative(p: list[float], n: int) -> list[float]:
    """Running sums of p, with the last set to 1.0 so rounding can never push a
    draw past it. A dead type gets n entries below every draw, which makes the
    walk index past its constructors."""
    if not p:
        return [-1.0] * n
    out = list(accumulate(p))
    out[-1] = 1.0
    return out


def _draw_ground(mode: int, rng: random.Random):
    if mode == _F_INT:
        return rng.randint(-100, 100)
    if mode == _F_DOUBLE:
        return rng.random()
    if mode == _F_CHAR:
        return rng.choice(_PRINTABLE)
    return None  # Unit consumes no randomness


def _node_plan(cid: str, row: tuple[tuple[int, int], ...]):
    """How the tree walk builds a node of constructor ``cid`` with field row
    ``row``: a nullary constructor's one shared ``Value`` (Values are
    immutable), else ``(cid, arity, ground, kids, slots)``. ``ground`` lists
    the (position, mode) of the ground fields in field order; ``kids`` lists
    the (type, is family) of the other fields right to left, the order their
    visits are pushed in; ``slots`` is their positions left to right."""
    if not row:
        return Value(cid)
    slots = tuple(k for k, (mode, _) in enumerate(row) if mode in (MODE_FAMILY, MODE_FOREIGN))
    ground = tuple((k, mode) for k, (mode, _) in enumerate(row) if k not in slots)
    kids = tuple((row[k][1], row[k][0] == MODE_FAMILY) for k in reversed(slots))
    return cid, len(row), ground, kids, slots


_PLANS: WeakKeyDictionary[CompiledUniverse, tuple[tuple, ...]] = WeakKeyDictionary()


def _node_plans(cu: CompiledUniverse) -> tuple[tuple, ...]:
    """Per type, each constructor's ``_node_plan``; built once per compiled
    universe."""
    plans = _PLANS.get(cu)
    if plans is None:
        plans = _PLANS[cu] = tuple(
            tuple(_node_plan(cu.ctors[c], cu.rows[c]) for c in range(s.start, s.stop))
            for s in cu.slices)
    return plans


def _build_walk(tables: _Tables, root_pos: int, size: int, rng: random.Random,
                budget: int | None = None) -> Value | BudgetExhausted:
    """Run one generation on ``rng`` and build its frozen value tree; the only
    tree walker.

    The stack holds ``(type, size)`` visits and three-item assemble entries.
    A node with family or foreign children pushes its assemble entry below
    their visits. Values are built in post-order onto ``built``, so when an
    assemble entry is popped its children are the last values there, left
    to right. Each node draws its constructor, then its ground atoms in
    field order; children are visited depth-first from left to right.
    """
    rand = rng.random
    child_size = tables.child_size
    nodes, cum_any, cum_final = tables.nodes, tables.cum_any, tables.cum_final
    built: list = []
    emitted = 0
    stack: list[tuple] = [(root_pos, size)]
    try:
        while stack:
            entry = stack.pop()
            if len(entry) == 3:
                # (cid, None, n): the node's fields are its n children;
                # (cid, fields, slots): its children go to fields[slots]
                cid, fields, slots = entry
                if fields is None:
                    built[-slots:] = [Value(cid, tuple(built[-slots:]))]
                else:
                    n = len(slots)
                    for k, child in zip(slots, built[-n:]):
                        fields[k] = child
                    built[-n:] = [Value(cid, tuple(fields))]
                continue
            t, sz = entry
            i = bisect_right(cum_final[t] if sz == 0 else cum_any[t], rand())
            if budget is not None:
                emitted += 1
                if emitted > budget:
                    return BudgetExhausted(budget)
            node = nodes[t][i]
            if node.__class__ is Value:
                built.append(node)
                continue
            cid, arity, ground, kids, slots = node
            if ground:
                fields = [None] * arity
                for k, mode in ground:
                    fields[k] = _draw_ground(mode, rng)
                if not kids:
                    built.append(Value(cid, tuple(fields)))
                    continue
                stack.append((cid, fields, slots))
            else:
                stack.append((cid, None, arity))
            child_sz = child_size(sz)
            for target, family in kids:
                stack.append((target, child_sz if family else -1))
    except IndexError:  # drew from a dead type's table (see _cumulative)
        raise tables.dead_type_error(t) from None
    return built[0]


def _walk(tables: _Tables, u: ADTUniverse, size: int, seed: int, index: int,
          budget: int | None = None) -> Value | BudgetExhausted:
    """Value ``index`` of ``seed`` on ``tables``: one tree walk on its own stream."""
    rng = random.Random(stream_seed(seed, index))
    return _build_walk(tables, tables.cu.index[u.root], size, rng, budget)


def _bounded_size(size: int) -> int:
    """``size`` for a size-bounded strategy, which never reaches size 0 from
    a negative size and would run unbounded."""
    if size < 0:
        raise AdtError("generator size must be nonnegative")
    return size


def _positive_budget(budget: int) -> int:
    if budget < 1:
        raise AdtError("budget must be a positive integer")
    return budget


def _sampler(u: ADTUniverse, spec: GenSpec, strategy: str,
             foreign_probs: Mapping[str, float] | None = None,
             budget: int | None = None) -> tuple[_Tables, int, int | None]:
    """Checked choice tables, size and budget for sampling ``spec`` under
    ``strategy``; derive samples at size -1 within ``budget`` (default
    ``DEFAULT_DERIVE_BUDGET``), the size-bounded strategies with no budget."""
    if strategy not in STRATEGIES:
        raise AdtError(f"unknown strategy {strategy!r}")
    if spec.root != u.root:
        raise AdtError(f"spec root {spec.root} does not match universe root {u.root}")
    if strategy == STRATEGY_DERIVE:
        size = -1
        budget = _positive_budget(DEFAULT_DERIVE_BUDGET if budget is None else budget)
    else:
        size, budget = _bounded_size(spec.size), None
    tables = _Tables(u, strategy, spec.probabilities, spec.star_probabilities, foreign_probs)
    return tables, size, budget


def sample_dragen(u: ADTUniverse, spec: GenSpec, seed: int, index: int = 0,
                  foreign_probs: Mapping[str, float] | None = None) -> Value:
    """One value from a tuned size-bounded generator."""
    tables, size, _ = _sampler(u, spec, STRATEGY_DRAGEN, foreign_probs)
    v = _walk(tables, u, size, seed, index)
    assert isinstance(v, Value)
    return v


def sample_megadeth(u: ADTUniverse, probs: Mapping[str, float], size: int,
                    seed: int, index: int = 0) -> Value:
    """One value from the halving generator; the probability map is ignored
    (choices are uniform) and is accepted only for interface parity."""
    v = _walk(_Tables(u, STRATEGY_MEGADETH, None, None, None), u, _bounded_size(size),
              seed, index)
    assert isinstance(v, Value)
    return v


def sample_derive(u: ADTUniverse, budget: int, seed: int,
                  index: int = 0) -> Value | BudgetExhausted:
    """One value from the unbounded uniform generator, or BudgetExhausted."""
    return _walk(_Tables(u, STRATEGY_DERIVE, None, None, None), u, -1, seed, index,
                 _positive_budget(budget))


def sample_values(u: ADTUniverse, spec: GenSpec, seed: int, count: int,
                  budget: int = DEFAULT_DERIVE_BUDGET,
                  foreign_probs: Mapping[str, float] | None = None,
                  ) -> Iterator[Value | BudgetExhausted]:
    """Values 0 .. count-1 of ``spec``'s strategy, with its choice tables
    built once. Value i is what ``sample_dragen(u, spec, seed, i,
    foreign_probs)`` returns, or with no ``foreign_probs``,
    ``sample_megadeth(u, spec.probabilities, spec.size, seed, i)`` or
    ``sample_derive(u, budget, seed, i)``."""
    tables, size, budget = _sampler(u, spec, spec.strategy, foreign_probs, budget)
    return (_walk(tables, u, size, seed, i, budget) for i in range(count))


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
    """Simulate ``samples`` generations and aggregate means, standard errors
    and the size histogram; ``budget`` applies to the derive strategy only.

    Generations are simulated level by level (see _block_counts), block by
    block, block b on the PCG64 stream ``stream_seed(seed, b)``. The counts
    have the distribution of the tree walk's (``sample_*``) counts, but
    sample i's statistics do not replay the value of index i.
    """
    if samples < 1:
        raise AdtError("sample count must be a positive integer")
    tables, size, budget = _sampler(u, spec, spec.strategy, foreign_probs, budget)
    ctors = tables.cu.ctors
    sums = [0] * len(ctors)
    sumsq = [0] * len(ctors)
    hist: Counter[int] = Counter()
    aborted = 0
    for b, start in enumerate(range(0, samples, _BLOCK)):
        rng = np.random.Generator(np.random.PCG64(stream_seed(seed, b)))
        counts, over = _block_counts(tables, tables.cu.index[u.root], size,
                                     min(_BLOCK, samples - start), budget, rng)
        done = counts[~over]
        aborted += int(over.sum())
        hist.update(done.sum(axis=1).tolist())
        if done.size and done.max() >= _SQUARE_SAFE:
            done = done.astype(object)
        for c, (x, xx) in enumerate(zip(done.sum(axis=0).tolist(),
                                        (done * done).sum(axis=0).tolist())):
            sums[c] += x
            sumsq[c] += xx
    return _finish_stats(samples, ctors, dict(zip(ctors, sums)),
                         dict(zip(ctors, sumsq)), dict(hist), aborted)


def _block_counts(tables: _Tables, root_pos: int, size: int, n: int,
                  budget: int | None, rng: np.random.Generator):
    """Simulate n generations from ``root_pos`` at ``size`` and return their
    (n x constructors) counts and the mask of those that passed ``budget``.

    Level k holds the placeholders at depth k. They share one remaining size,
    and each is an independent draw from its type's table, so a type's
    constructor counts at a level are one multinomial draw per generation.
    Only generations with placeholders left stay in the working arrays.

    A level whose counts could pass int64 is expanded in Python ints, and a
    count past 2**63 - 1 is an error: no count wraps.
    """
    cu = tables.cu
    # A level leaves each generation at most emitted + todo * fan <= emitted
    # * (1 + fan) constructors, so levels with emitted <= safe fit in int64.
    fan = int(cu.counts.sum(axis=1).max(initial=0))
    safe = _INT64_MAX // (1 + fan)
    counts = np.zeros((n, len(cu.ctors)), dtype=np.int64)
    over = np.zeros(n, dtype=bool)
    live = np.arange(n)
    todo = np.zeros((n, len(cu.types)), dtype=np.int64)
    todo[:, root_pos] = 1
    emitted = np.zeros(n, dtype=np.int64)
    limit = np.inf if budget is None else budget
    sz = size
    while live.size:
        emitted += todo.sum(axis=1)
        passed = emitted > limit
        over[live[passed]] = True
        todo[passed] = 0
        exact = emitted.max() > safe
        fields = cu.counts.astype(object) if exact else cu.counts
        tables_at = tables.p_final if sz == 0 else tables.p_any
        nxt = np.zeros(todo.shape, dtype=fields.dtype)
        for t in np.flatnonzero(todo.any(axis=0)):
            p = tables_at[t]
            if not p:
                raise tables.dead_type_error(t)
            start = cu.slices[t].start
            cols = slice(start, start + len(p))
            draws = rng.multinomial(todo[:, t], p)
            counts[live, cols] += draws
            nxt += draws @ fields[cols]
        if exact and (nxt.sum(axis=1) > _INT64_MAX - emitted).any():
            raise AdtError("constructor counts overflow 64-bit integers "
                           + (f"at size {size}" if budget is None else f"within budget {budget}"))
        going = nxt.any(axis=1)
        live, emitted = live[going], emitted[going]
        todo = nxt[going].astype(np.int64, copy=False)
        sz = tables.child_size(sz)
    return counts, over


def _finish_stats(samples, ctors, sums, sumsq, hist, aborted) -> SampleStats:
    """Means and standard errors from integer sums. The sample variance
    (n·Σx² − (Σx)²) / (n(n−1)) is evaluated exactly and rounded once."""
    n = samples - aborted
    means = {c: sums[c] / n if n else 0.0 for c in ctors}
    errs = {c: sqrt((n * sumsq[c] - sums[c] ** 2) / (n * n * (n - 1))) if n > 1 else 0.0
            for c in ctors}
    return SampleStats(samples, means, errs, hist, aborted)


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


def _atom_json(atom) -> str:
    if atom is None:
        return "null"
    if isinstance(atom, str):
        return json.dumps(atom)
    if isinstance(atom, float):
        return repr(atom)
    return str(atom)


@dataclass(frozen=True)
class _Format:
    """An output format as data: a constructor's opening and nullary pieces,
    the sibling separator, the closing piece and the atom printer. ``memo``
    holds each constructor's pieces, bare and after the separator."""

    pieces: Callable[[str], tuple[str, str]]
    sep: str
    close: str
    atom: Callable[[object], str]
    memo: dict = field(default_factory=dict)

    def memoize(self, cid: str) -> tuple[str, str, str, str]:
        head, leaf = self.pieces(cid)
        pieces = self.memo[cid] = (head, leaf, self.sep + head, self.sep + leaf)
        return pieces


_SEXP = _Format(lambda cid: ("(" + unqualify(cid) + " ", "(" + unqualify(cid) + ")"),
                " ", ")", _atom_sexp)
_JSON = _Format(lambda cid: ('{"constructor": "' + cid + '", "children": [',
                             '{"constructor": "' + cid + '", "children": []}'),
                ", ", "]}", _atom_json)
# stack marker for the end of a node's children
_CLOSE = object()


def _render(v: Value, fmt: _Format) -> str:
    """Print ``v`` in ``fmt``, iteratively, so values of any depth print."""
    memo, sep, close, atom = fmt.memo, fmt.sep, fmt.close, fmt.atom
    out: list[str] = []
    stack: list = [v]
    first = True  # the next item opens its parent's children: no separator
    while stack:
        node = stack.pop()
        if isinstance(node, Value):
            children = node.children
            pieces = memo.get(node.constructor) or fmt.memoize(node.constructor)
            k = 0 if first else 2
            if children:
                out.append(pieces[k])
                stack.append(_CLOSE)
                stack.extend(reversed(children))
                first = True
                continue
            out.append(pieces[k + 1])
        elif node is _CLOSE:
            out.append(close)
        elif first:
            out.append(atom(node))
        else:
            out.append(sep + atom(node))
        first = False
    return "".join(out)


def value_to_sexp(v: Value) -> str:
    """Render as (Ctor child ...) with unqualified constructor names."""
    return _render(v, _SEXP)


def value_to_json(v: Value) -> str:
    """Render as nested {"constructor": ..., "children": [...]} objects."""
    return _render(v, _JSON)


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
    if strategy != STRATEGY_DERIVE:
        _bounded_size(size)
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
