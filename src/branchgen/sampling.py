"""Random value generation under three strategies, plus empirical statistics.

What each strategy draws at each size is its schedule (``spec.build_schedule``):
dragen and megadeth are size-bounded and draw by its final row at size 0;
derive is unbounded and aborts once the emitted constructor count exceeds
a budget. The walk and the statistics read only the schedule.

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
import threading
from bisect import bisect_right
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field
from itertools import accumulate
from math import sqrt
from operator import itemgetter
from typing import Callable, Iterator, Mapping
from weakref import WeakKeyDictionary

import numpy as np

from .adt import (
    MODE_FAMILY,
    MODE_GROUND,
    ADTUniverse,
    AdtError,
    CompiledUniverse,
    as_integer,
    unqualify,
)
from .spec import (
    STRATEGY_DERIVE,
    STRATEGY_DRAGEN,
    STRATEGY_MEGADETH,
    GenSpec,
    Schedule,
    _bounded_size,
    build_schedule,
)

DEFAULT_DERIVE_BUDGET = 10 ** 6

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_PRINTABLE = "".join(chr(c) for c in range(0x20, 0x7F))

_F_INT, _F_DOUBLE, _F_CHAR = (MODE_GROUND[atom] for atom in ("Int", "Double", "Char"))

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


@dataclass(frozen=True, eq=False, repr=False, slots=True)
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


# dataclass(slots=True) returns a new class. Before Python 3.11.4 it also
# replaces any __getstate__/__setstate__ of the class body with its own,
# and its frozen __setattr__/__delattr__ test against the class it
# replaced, so assigning a name that is not a field raised TypeError. So
# the four are set here, on the final class, on every version.
def _getstate(self):
    return self.constructor, self.children


def _setstate(self, state):
    # a Value pickled before it had slots carries its __dict__
    if isinstance(state, dict):
        state = state["constructor"], state["children"]
    object.__setattr__(self, "constructor", state[0])
    object.__setattr__(self, "children", state[1])


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


Value.__getstate__, Value.__setstate__ = _getstate, _setstate
Value.__setattr__, Value.__delattr__ = _frozen_setattr, _frozen_delattr

# The tree walk builds each node by setting its two slots directly, which
# skips the generated __init__ and the frozen __setattr__ it works around.
_new_node = object.__new__
_set_constructor = Value.constructor.__set__
_set_children = Value.children.__set__


class BudgetExhausted:
    """Returned by the derive strategy when generation did not finish
    within its constructor budget."""

    def __init__(self, budget: int):
        self.budget = budget

    def __repr__(self):
        return f"BudgetExhausted(budget={self.budget})"


class _Tables:
    """Choice tables for one schedule, over the universe's compiled types
    and field rows. Per type, ``p_any`` and ``p_final`` hold the schedule's
    rows at positive sizes and on the final level, cut after the last
    positive entry (empty for a dead type); ``cum_any`` and ``cum_final``
    are the bisect tables derived from them, and ``child_size`` is the
    schedule's child rule."""

    __slots__ = ("types", "p_any", "p_final", "cum_any", "cum_final", "child_size")

    def __init__(self, cu: CompiledUniverse, schedule: Schedule):
        self.types = cu.types
        self.child_size = schedule.child
        rows, final = schedule.rows, schedule.final
        self.p_any, self.cum_any = zip(*[_table(rows[s]) for s in cu.slices])
        self.p_final, self.cum_final = zip(*[_table(final[s]) for s in cu.slices])

    def dead_type_error(self, t: int) -> AdtError:
        """The error for a draw from type ``t``'s empty table. A draw at a
        positive size fails only when ``p_any`` is empty, so a type with
        probability there failed at size 0, on its star probabilities."""
        if self.p_any[t]:
            return AdtError(f"generation reached type {self.types[t]} at size 0, whose "
                            "terminal constructors all have star probability 0")
        return AdtError(f"generation reached type {self.types[t]}, whose "
                        "constructors all have probability 0")


class _Program:
    """The tree walk's program for walks of ``tables`` from ``root_pos`` at
    ``size``; ``root`` is the root's visit entry.

    There is one visit entry per size class and type. The size classes are
    ``size``, its child size, and so on down to 0, then -1: a negative size
    draws like any positive one, so every negative size is class -1. A
    visit entry is ``[cum, opts, t]``: the class's bisect table, per
    constructor what the walk does after drawing it, and the type. That is
    the constructor's shared ``Value`` when it has no fields, else its
    ``_ctor_plan`` with the visit entries of its family and foreign fields
    in ``kids`` (right to left, the order they are pushed in).

    Class -1 holds every type (foreign visits are always there) and is
    built at once. The classes from ``size`` down hold the family types and
    are built as walks reach them: the deepest class built links to a class
    of stubs, empty entries, and the first visit of a stub builds its class
    (``grow``). So a program is only as deep as the walks on it have gone,
    and a walk at a huge size costs what it visits."""

    __slots__ = ("tables", "root", "_plans", "_foreign", "_frontier", "_lock")

    def __init__(self, cu: CompiledUniverse, tables: _Tables, root_pos: int, size: int):
        self.tables = tables
        self._plans = [[_ctor_plan(cu.ctors[c], cu.rows[c]) for c in range(s.start, s.stop)]
                       for s in cu.slices]
        self._lock = threading.Lock()
        foreign = self._foreign = [[] for _ in cu.types]
        self._fill(-1, foreign, foreign)
        if size < 0:
            self._frontier = None
            self.root = foreign[root_pos]
        else:
            stubs = [[] for _ in range(cu.nfamily)]
            self._frontier = (size, stubs)
            self.root = stubs[root_pos]

    def _fill(self, s: int, entries: list[list], below: list[list]) -> None:
        """Fill the entries of class ``s``, whose family children are the
        entries ``below``."""
        cum = self.tables.cum_final if s == 0 else self.tables.cum_any
        foreign = self._foreign
        for t, entry in enumerate(entries):
            opts = [plan if plan.__class__ is Value else
                    (plan[0], tuple([(below if family else foreign)[target]
                                     for target, family in plan[1]]), plan[2])
                    for plan in self._plans[t]]
            entry.extend((cum[t], opts, t))

    def grow(self, stub: list) -> None:
        """Build the class of ``stub``, an entry a walk reached unbuilt, and
        stub the class below it. The lock keeps the one class of stubs
        consistent when walks on several threads reach it at once."""
        with self._lock:
            if stub:  # another walk built it meanwhile
                return
            s, entries = self._frontier
            if s == 0:  # the final level draws terminals, so no family child
                below, self._frontier = self._foreign, None
            else:
                below = [[] for _ in entries]
                self._frontier = (self.tables.child_size(s), below)
            self._fill(s, entries, below)


def _ctor_plan(cid: str, row: tuple[tuple[int, int], ...]):
    """A nullary constructor's one shared ``Value`` (Values are immutable),
    else ``((cid, pick, n), kids, ground)``: ``pick`` takes its ``n``
    children in field order from the top of the build stack, where they lie
    in reverse draw order; ``kids`` are the (target, is family) of its other
    fields right to left, and ``ground`` its ground fields' modes in order."""
    if not row:
        return Value(cid)
    ground = [k for k, (_, target) in enumerate(row) if target < 0]
    slots = [k for k, (_, target) in enumerate(row) if target >= 0]
    drawn = ground + slots
    pick = (itemgetter(*[~drawn.index(k) for k in range(len(row))]) if len(row) > 1
            else lambda built: (built[-1],))
    kids = tuple((row[k][1], row[k][0] == MODE_FAMILY) for k in reversed(slots))
    return (cid, pick, len(row)), kids, tuple(row[k][0] for k in ground)


def _table(row: list[float]) -> tuple[list[float], list[float]]:
    """``row`` cut after its last positive entry, so that no draw can land
    in a zero-probability tail, and its bisect table: the running sums, with
    the last set to 1.0 so rounding can never push a draw past it. A dead
    type's row is empty, and its table has an entry per constructor below
    every draw, which makes the walk index past its constructors."""
    n = len(row)
    while n and not row[n - 1] > 0.0:
        n -= 1
    if not n:
        return [], [-1.0] * len(row)
    p = row[:n]
    cum = list(accumulate(p))
    cum[-1] = 1.0
    return p, cum


def _draw_ground(mode: int, rng: random.Random):
    if mode == _F_INT:
        return rng.randint(-100, 100)
    if mode == _F_DOUBLE:
        return rng.random()
    if mode == _F_CHAR:
        return rng.choice(_PRINTABLE)
    return None  # Unit consumes no randomness


# The last walk program per compiled universe, as (key, program). A
# program holds no reference to its universe, so the weak key drops both
# with the universe.
_PROGRAMS: WeakKeyDictionary[CompiledUniverse, tuple[tuple, _Program]] = WeakKeyDictionary()


def _walk_program(u: ADTUniverse, strategy: str, size: int,
                  probs: Mapping[str, float] | None = None,
                  stars: Mapping[str, float] | None = None,
                  foreign_probs: Mapping[str, float] | None = None) -> _Program:
    """The walk program of one configuration, shared by every ``sample_*``
    call that asks for it again.

    The last program built is kept per compiled universe under the key
    ``(strategy, size, probs, stars, foreign_probs)``, each map as a
    ``_snapshot``. A hit is one comparison of that key with the caller's,
    so a map changed in place builds a new program, and so does an entry
    that only equals the old one (``True == 1.0``): the schedule, which
    checks every entry, and the tables are built only on a miss. Callers
    that miss at the same time may each build one; the race costs time."""
    cu = u.compiled
    key = (strategy, size, _snapshot(probs), _snapshot(stars), _snapshot(foreign_probs))
    cached = _PROGRAMS.get(cu)
    if cached is not None and cached[0] == key:
        return cached[1]
    tables = _Tables(cu, build_schedule(u, strategy, size, probs, stars, foreign_probs))
    program = _Program(cu, tables, cu.index[u.root], size)
    _PROGRAMS[cu] = key, program
    return program


def _snapshot(m: Mapping[str, float] | None) -> list | None:
    """``m``'s keys, then its values, then their types, in order, or None."""
    return None if m is None else [*m, *m.values(), *map(type, m.values())]


def _build_walk(program: _Program, rng: random.Random,
                budget: int | None = None) -> Value | BudgetExhausted:
    """Run one generation of ``program`` on ``rng`` and build its frozen
    value tree; the only tree walker.

    Two passes over one list. The first draws in pre-order, children
    depth-first from left to right: each constructor goes onto ``seq``,
    then its ground atoms in field order. The second reads ``seq``
    backwards, where every node follows its children, and builds each
    node from the top of a stack; a draw past ``budget`` builds none."""
    rand = rng.random
    seq: list = []
    put = seq.append
    emitted = 0
    stack: list = [program.root]
    pop, extend = stack.pop, stack.extend
    while True:
        try:
            while stack:
                visit = pop()
                i = bisect_right(visit[0], rand())
                if budget is not None:
                    emitted += 1
                    if emitted > budget:
                        return BudgetExhausted(budget)
                opt = visit[1][i]
                if opt.__class__ is Value:
                    put(opt)
                    continue
                build, kids, ground = opt
                put(build)
                for mode in ground:
                    put(_draw_ground(mode, rng))
                extend(kids)
            break
        except IndexError:
            if visit:  # drew from a dead type's table (see _table)
                raise program.tables.dead_type_error(visit[2]) from None
            # a stub: visit[0] failed before the draw, so visit it again
            program.grow(visit)
            stack.append(visit)
    new, set_constructor, set_children = _new_node, _set_constructor, _set_children
    built: list = []
    push = built.append
    for item in reversed(seq):
        if item.__class__ is tuple:
            cid, pick, n = item
            node = new(Value)
            set_constructor(node, cid)
            set_children(node, pick(built))
            built[-n:] = (node,)
        else:
            push(item)
    return built[0]


def _walk(program: _Program, seed: int, index: int,
          budget: int | None = None) -> Value | BudgetExhausted:
    """Value ``index`` of ``seed`` on ``program``: one tree walk on its own stream."""
    return _build_walk(program, random.Random(stream_seed(seed, index)), budget)


def _seed(seed: int) -> int:
    return as_integer(seed, "seed must be an integer")


def _index(index: int) -> int:
    return as_integer(index, "sample index must be a nonnegative integer", 0)


def _positive_budget(budget: int) -> int:
    return as_integer(budget, "budget must be a positive integer", 1)


def _checked(u: ADTUniverse, spec: GenSpec, strategy: str,
             budget: int | None = None) -> tuple[int, int | None]:
    """Size and budget for sampling ``spec`` under ``strategy``, checked;
    derive samples at size -1 within ``budget`` (default
    ``DEFAULT_DERIVE_BUDGET``), the size-bounded strategies with no budget.
    The strategy itself is checked by ``build_schedule``, which every
    sampler reaches before it draws."""
    if spec.root != u.root:
        raise AdtError(f"spec root {spec.root} does not match universe root {u.root}")
    if strategy == STRATEGY_DERIVE:
        return -1, _positive_budget(DEFAULT_DERIVE_BUDGET if budget is None else budget)
    return _bounded_size(spec.size), None


def sample_dragen(u: ADTUniverse, spec: GenSpec, seed: int, index: int = 0,
                  foreign_probs: Mapping[str, float] | None = None) -> Value:
    """One value from a tuned size-bounded generator."""
    size, _ = _checked(u, spec, STRATEGY_DRAGEN)
    program = _walk_program(u, STRATEGY_DRAGEN, size, spec.probabilities,
                            spec.star_probabilities, foreign_probs)
    v = _walk(program, _seed(seed), _index(index))
    assert isinstance(v, Value)
    return v


def sample_megadeth(u: ADTUniverse, probs: Mapping[str, float], size: int,
                    seed: int, index: int = 0) -> Value:
    """One value from the halving generator; the probability map is ignored
    (choices are uniform) and is accepted only for interface parity."""
    v = _walk(_walk_program(u, STRATEGY_MEGADETH, _bounded_size(size)), _seed(seed),
              _index(index))
    assert isinstance(v, Value)
    return v


def sample_derive(u: ADTUniverse, budget: int, seed: int,
                  index: int = 0) -> Value | BudgetExhausted:
    """One value from the unbounded uniform generator, or BudgetExhausted."""
    return _walk(_walk_program(u, STRATEGY_DERIVE, -1), _seed(seed), _index(index),
                 _positive_budget(budget))


def sample_values(u: ADTUniverse, spec: GenSpec, seed: int, count: int,
                  budget: int = DEFAULT_DERIVE_BUDGET,
                  foreign_probs: Mapping[str, float] | None = None,
                  ) -> Iterator[Value | BudgetExhausted]:
    """Values 0 .. count-1 of ``spec``'s strategy, on one walk program. Value
    i is what ``sample_dragen(u, spec, seed, i, foreign_probs)`` returns, or
    with no ``foreign_probs``, ``sample_megadeth(u, spec.probabilities,
    spec.size, seed, i)`` or ``sample_derive(u, budget, seed, i)``."""
    seed, count = _seed(seed), as_integer(count, "sample count must be a positive integer", 1)
    size, budget = _checked(u, spec, spec.strategy, budget)
    program = _walk_program(u, spec.strategy, size, spec.probabilities,
                            spec.star_probabilities, foreign_probs)
    return (_walk(program, seed, i, budget) for i in range(count))


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
    samples = as_integer(samples, "sample count must be a positive integer", 1)
    seed = _seed(seed)
    size, budget = _checked(u, spec, spec.strategy, budget)
    cu = u.compiled
    tables = _Tables(cu, build_schedule(u, spec.strategy, size, spec.probabilities,
                                        spec.star_probabilities, foreign_probs))
    ctors = cu.ctors
    sums = [0] * len(ctors)
    sumsq = [0] * len(ctors)
    hist: Counter[int] = Counter()
    aborted = 0
    for b, start in enumerate(range(0, samples, _BLOCK)):
        rng = np.random.Generator(np.random.PCG64(stream_seed(seed, b)))
        counts, over = _block_counts(cu, tables, cu.index[u.root], size,
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


def _block_counts(cu: CompiledUniverse, tables: _Tables, root_pos: int, size: int,
                  n: int, budget: int | None, rng: np.random.Generator):
    """Simulate n generations from ``root_pos`` at ``size`` and return their
    (n x constructors) counts and the mask of those that passed ``budget``.

    Level k holds the placeholders at depth k. They share one remaining size,
    and each is an independent draw from its type's table, so a type's
    constructor counts at a level are one multinomial draw per generation.
    Only generations with placeholders left stay in the working arrays.

    A level whose counts could pass int64 is expanded in Python ints, and a
    count past 2**63 - 1 is an error: no count wraps.
    """
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


# Constructor ids a format's memo holds before it starts over, so that a
# process that prints values of many universes keeps a bounded memo.
_MEMO_IDS = 1024


@dataclass(frozen=True)
class _Format:
    """An output format as data: a constructor's opening and nullary pieces,
    the sibling separator, the closing piece and the atom printer. ``memo``
    holds each constructor's pieces, bare and after the separator, for at
    most ``_MEMO_IDS`` ids: a miss on a full memo empties it first."""

    pieces: Callable[[str], tuple[str, str]]
    sep: str
    close: str
    atom: Callable[[object], str]
    memo: dict = field(default_factory=dict)

    def memoize(self, cid: str) -> tuple[str, str, str, str]:
        if len(self.memo) >= _MEMO_IDS:
            self.memo.clear()
        head, leaf = self.pieces(cid)
        pieces = self.memo[cid] = (head, leaf, self.sep + head, self.sep + leaf)
        return pieces


_SEXP = _Format(lambda cid: ("(" + unqualify(cid) + " ", "(" + unqualify(cid) + ")"),
                " ", ")", _atom_sexp)
_JSON = _Format(lambda cid: ('{"constructor": "' + cid + '", "children": [',
                             '{"constructor": "' + cid + '", "children": []}'),
                ", ", "]}", _atom_json)


def _render(v: Value, fmt: _Format) -> str:
    """Print ``v`` in ``fmt``, iteratively, so values of any depth print.
    Each open node is a frame, the iterator over its children. ``k`` picks
    a constructor's memo piece: 0 when it opens its parent's children, 2
    (after the separator) when it follows a sibling."""
    memo, sep, close, atom = fmt.memo, fmt.sep, fmt.close, fmt.atom
    out: list[str] = []
    put = out.append
    frames: list = []
    children, k = iter((v,)), 0
    while True:
        for node in children:
            if isinstance(node, Value):
                try:
                    pieces = memo[node.constructor]
                except KeyError:
                    pieces = fmt.memoize(node.constructor)
                if node.children:
                    put(pieces[k])
                    frames.append(children)
                    children, k = iter(node.children), 0
                    break
                put(pieces[k + 1])
            else:
                put(sep + atom(node) if k else atom(node))
            k = 2
        else:
            if not frames:
                return "".join(out)
            put(close)
            children, k = frames.pop(), 2


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

