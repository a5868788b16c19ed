"""Random value generation under three strategies, plus empirical statistics.

What each strategy draws at each level is its schedule (``spec.build_schedule``).
Dragen and megadeth are size-bounded: every program and the statistics
count its ``levels`` down, a node at 0 draws by its final row, and family
children get one level fewer than their parent. Derive is unbounded: it
starts at -1, so it never reaches 0, and aborts once the emitted
constructor count exceeds a budget. The value programs and the statistics
read only the schedule.

Randomness contract: streams are derived with splitmix64 from a base seed
and an index. Values come from one random.Random (MT19937) stream per
sample index, drawn by the configuration's program: Python functions
compiled per type for dragen and megadeth, and a tree walk for derive and
for any configuration too deep to recurse. Both make the same draws in the
same order. Statistics come from a level-wise simulation, one numpy PCG64
stream per block of samples: it has the programs' constructor-count
distribution but does not replay their draws. Identical seeds reproduce
identical values and identical statistics.
"""

from __future__ import annotations

import json
import random
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

# Per ground mode, what a field of it draws from its value's stream; a Unit
# draws nothing. The walk and the compiled programs both call these.
_GROUND_DRAWS = {MODE_GROUND["Int"]: lambda rng: rng.randint(-100, 100),
                 MODE_GROUND["Double"]: lambda rng: rng.random(),
                 MODE_GROUND["Char"]: lambda rng: rng.choice(_PRINTABLE),
                 MODE_GROUND["Unit"]: lambda rng: None}

# Samples the statistics engine simulates together: its working arrays are
# bounded by this, not by the sample count.
_BLOCK = 4096
# Per-block sums of squares are exact in int64 while every count is below
# this (_BLOCK * _SQUARE_SAFE**2 < 2**63); larger counts are squared as
# Python ints.
_SQUARE_SAFE = 1 << 25
_INT64_MAX = np.iinfo(np.int64).max
# The deepest recursion a compiled program may make: its levels plus one,
# plus its longest chain of foreign types. Deeper configurations keep the
# walk; this leaves wide headroom under the default recursion limit (1000).
_COMPILED_DEPTH_MAX = 100


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

# The walk and the compiled programs build each node by setting its two
# slots directly, which skips the generated __init__ and the frozen
# __setattr__ it works around.
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
    rows above the final level and on it, cut after the last
    positive entry (empty for a dead type); ``cum_any`` and ``cum_final``
    are the bisect tables derived from them. ``levels`` is the schedule's
    count of levels above the final one, or -1 for derive, which has none."""

    __slots__ = ("types", "p_any", "p_final", "cum_any", "cum_final", "levels")

    def __init__(self, cu: CompiledUniverse, schedule: Schedule):
        self.types = cu.types
        self.levels = -1 if schedule.levels is None else schedule.levels
        rows, final = schedule.rows, schedule.final
        self.p_any, self.cum_any = zip(*[_table(rows[s]) for s in cu.slices])
        self.p_final, self.cum_final = zip(*[_table(final[s]) for s in cu.slices])

    def dead_type_error(self, t: int) -> AdtError:
        """The error for a draw from type ``t``'s empty table. A draw above
        the final level fails only when ``p_any`` is empty, so a type with
        probability there failed on the final level (size 0), on its star
        probabilities."""
        if self.p_any[t]:
            return AdtError(f"generation reached type {self.types[t]} at size 0, whose "
                            "terminal constructors all have star probability 0")
        return AdtError(f"generation reached type {self.types[t]}, whose "
                        "constructors all have probability 0")


class _Program:
    """The tree walk's program for walks of ``tables`` from the root: per
    type, per constructor, its ``_ctor_plan``. Only derive and the
    configurations too deep for a compiled program (``_compile``) walk.

    A walk visits ``(type, k)`` pairs, ``k`` being the levels left, and
    starts from ``root``, the root type at ``tables.levels``. Nothing in a
    program depends on the level, so it is immutable, and walks at any size
    and on any thread share it. A call, as of a compiled ``draw``, walks."""

    __slots__ = ("tables", "root", "plans")

    def __init__(self, cu: CompiledUniverse, tables: _Tables):
        self.tables = tables
        self.root = (cu.root, tables.levels)
        self.plans = tuple(tuple(_ctor_plan(cu.ctors[c], cu.rows[c])
                                 for c in range(s.start, s.stop)) for s in cu.slices)

    def __call__(self, rng: random.Random, budget: int | None = None) -> Value | BudgetExhausted:
        return _build_walk(self, rng, budget)


def _ctor_plan(cid: str, row: tuple[tuple[int, int], ...]):
    """A nullary constructor's one shared ``Value`` (Values are immutable),
    else ``((cid, pick, n), kids, targets, ground)``: ``pick`` takes its
    ``n`` children in field order from the top of the build stack, where
    they lie in reverse draw order; ``kids`` are the ``(target, -1)`` visits
    of its other fields right to left, the order they are pushed in;
    ``targets`` are those fields' types, in the same order, if one of them
    is a family field, else empty; and ``ground`` its ground fields' draws
    in order."""
    if not row:
        return Value(cid)
    ground = [k for k, (_, target) in enumerate(row) if target < 0]
    slots = [k for k, (_, target) in enumerate(row) if target >= 0]
    drawn = ground + slots
    pick = (itemgetter(*[~drawn.index(k) for k in range(len(row))]) if len(row) > 1
            else lambda built: (built[-1],))
    targets = tuple(row[k][1] for k in reversed(slots))
    family = any(row[k][0] == MODE_FAMILY for k in slots)
    return ((cid, pick, len(row)), tuple((target, -1) for target in targets),
            targets if family else (), tuple(_GROUND_DRAWS[row[k][0]] for k in ground))


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


def _depth(cu: CompiledUniverse, levels: int) -> int:
    """The deepest nesting of a compiled program's calls: ``levels`` + 1
    family levels, then the longest chain of foreign types (acyclic, and
    ordered so that each precedes the types its fields reference)."""
    chain = [0] * len(cu.types)
    for t in reversed(range(cu.nfamily, len(cu.types))):
        s = cu.slices[t]
        chain[t] = 1 + max((chain[target] for row in cu.rows[s] for _, target in row
                            if target >= 0), default=0)
    return levels + 1 + max(chain)


def _compile(cu: CompiledUniverse, tables: _Tables) -> Callable[..., Value]:
    """``tables`` compiled to Python: ``draw(rng, budget)`` is one value
    from the root with ``tables.levels`` levels above the final one, by the
    walk's draws in the walk's order; it ignores ``budget``, as derive walks.

    Each type is one function of the stream, as ``r`` (its ``random``) and
    ``g``. A family type's also takes the levels left, ``k``: while ``k`` is
    positive it draws by ``cum_any`` and gives its family children ``k - 1``,
    and at 0 it draws by ``cum_final``. A foreign type's draws by
    ``cum_any``. Constructor ids and shared values enter the source only as
    bindings of its namespace, so the code is one function per type at any
    size."""
    ns = {"new": _new_node, "Value": Value, "sc": _set_constructor, "sch": _set_children,
          "dead": tables.dead_type_error, "levels": tables.levels}
    src = [f"def draw(g, budget=None):\n    return t{cu.root}(levels, g.random, g)"]
    for t in range(len(cu.types)):
        if t < cu.nfamily:
            src += [f"def t{t}(k, r, g):", "    x = r()", "    if k:",
                    *_choice_source(cu, ns, t, tables.cum_any[t], " " * 8),
                    *_choice_source(cu, ns, t, tables.cum_final[t], "    ")]
        else:
            src += [f"def t{t}(r, g):", "    x = r()",
                    *_choice_source(cu, ns, t, tables.cum_any[t], "    ")]
    exec(compile("\n".join(src) + "\n", "<branchgen program>", "exec"), ns)
    return ns["draw"]


def _choice_source(cu: CompiledUniverse, ns: dict, t: int, cum: list[float],
                   pad: str) -> list[str]:
    """Lines that pick and build type ``t``'s constructor for the draw
    ``x`` by the bisect table ``cum``: the first constructor whose entry
    exceeds ``x``, as ``bisect_right`` picks, by an if-chain on the entries
    (``repr`` prints them exactly) that leaves out the constructors no draw
    in [0, 1) reaches. A dead table raises ``dead_type_error``."""
    live, lo = [], 0.0
    for j, hi in enumerate(cum):
        if lo < hi and lo < 1.0:
            live.append((cu.slices[t].start + j, hi))
        lo = max(lo, hi)
    if not live:
        return [f"{pad}raise dead({t})"]
    out = []
    for n, (c, hi) in enumerate(live):
        body = pad
        if n < len(live) - 1:
            out.append(f"{pad}if x < {hi!r}:")
            body += "    "
        out += [body + line for line in _node_source(cu, ns, c)]
    return out


def _node_source(cu: CompiledUniverse, ns: dict, c: int) -> list[str]:
    """Lines that return constructor ``c``'s node: its shared ``Value`` if
    it is nullary, else a node built as the walk builds one, from its ground
    atoms drawn in field order, then its other fields from left to right."""
    row = cu.rows[c]
    if not row:
        ns[f"L{c}"] = Value(cu.ctors[c])
        return [f"return L{c}"]
    ns[f"C{c}"] = cu.ctors[c]
    lines, fields = [], []
    for k, (mode, target) in enumerate(row):
        if target < 0:
            ns[f"d{mode}"] = _GROUND_DRAWS[mode]
            lines.append(f"a{k} = d{mode}(g)")
            fields.append(f"a{k}")
        else:
            fields.append(f"t{target}({'k - 1, ' if mode == MODE_FAMILY else ''}r, g)")
    return [*lines, f"n = new(Value); sc(n, C{c}); sch(n, ({', '.join(fields)},)); return n"]


# The last ``_PROGRAMS_KEPT`` programs per compiled universe, most recent
# first, as (key, program) pairs. A program holds no reference to its
# universe, so the weak key drops them all with the universe.
_PROGRAMS_KEPT = 4
_PROGRAMS: WeakKeyDictionary[CompiledUniverse, tuple[tuple[tuple, Callable], ...]] = (
    WeakKeyDictionary())


def _walk_program(u: ADTUniverse, strategy: str, size: int,
                  probs: Mapping[str, float] | None = None,
                  stars: Mapping[str, float] | None = None,
                  ) -> Callable[..., Value | BudgetExhausted]:
    """The program of one configuration, shared by every ``sample_*`` call
    that asks for it again: ``_compile``'s ``draw`` when the configuration is
    size-bounded and its calls nest at most ``_COMPILED_DEPTH_MAX`` deep,
    else a walk ``_Program``.

    The last ``_PROGRAMS_KEPT`` programs used are kept per compiled
    universe, most recent first, each under the key ``(strategy, size,
    probs, stars)``, each map as a ``_snapshot``; so callers that alternate
    a few configurations build each once. A hit on the most
    recent is one comparison of that key with the caller's. A map changed
    in place builds a new program, and so does an entry that only equals
    the old one (``True == 1.0``): the schedule, which checks every entry,
    and the tables are built only on a miss. Callers that miss at the same
    time may each build one; the race costs time."""
    cu = u.compiled
    key = (strategy, size, _snapshot(probs), _snapshot(stars))
    cached = _PROGRAMS.get(cu, ())
    for i, (old, program) in enumerate(cached):
        if old == key:
            if i:
                _PROGRAMS[cu] = (cached[i], *cached[:i], *cached[i + 1:])
            return program
    schedule = build_schedule(u, strategy, size, probs, stars)
    tables, levels = _Tables(cu, schedule), schedule.levels
    if levels is not None and _depth(cu, levels) <= _COMPILED_DEPTH_MAX:
        program = _compile(cu, tables)
    else:
        program = _Program(cu, tables)
    _PROGRAMS[cu] = ((key, program), *cached[:_PROGRAMS_KEPT - 1])
    return program


def _snapshot(m: Mapping[str, float] | None) -> list | None:
    """``m``'s keys, then its values, then their types, in order, or None."""
    return None if m is None else [*m, *m.values(), *map(type, m.values())]


def _build_walk(program: _Program, rng: random.Random,
                budget: int | None = None) -> Value | BudgetExhausted:
    """Run one generation of ``program`` on ``rng`` and build its frozen
    value tree; the only tree walker.

    Two passes over one list. The first draws in pre-order, children
    depth-first from left to right, from a stack of ``(type, k)`` visits
    (``k`` = 0 draws by the final row). Each constructor goes onto ``seq``,
    then its ground atoms in field order. A node at ``k`` > 0 with a family
    field visits its fields at ``k - 1``, foreign ones too, whose final row
    is their row at every size; every other node pushes its plan's
    ``(target, -1)`` visits. The second pass reads ``seq`` backwards, where
    every node follows its children, and builds each node from the top of
    a stack; a draw past ``budget`` builds none."""
    rand = rng.random
    tables = program.tables
    plans, cum_any, cum_final = program.plans, tables.cum_any, tables.cum_final
    seq: list = []
    put = seq.append
    emitted = 0
    stack: list = [program.root]
    pop, append, extend = stack.pop, stack.append, stack.extend
    try:
        while stack:
            t, k = pop()
            i = bisect_right(cum_final[t] if k == 0 else cum_any[t], rand())
            if budget is not None:
                emitted += 1
                if emitted > budget:
                    return BudgetExhausted(budget)
            opt = plans[t][i]
            if opt.__class__ is Value:
                put(opt)
                continue
            build, kids, targets, ground = opt
            put(build)
            for draw in ground:
                put(draw(rng))
            if k > 0 and targets:
                k -= 1
                for target in targets:
                    append((target, k))
            else:
                extend(kids)
    except IndexError:  # drew from a dead type's table (see _table)
        raise tables.dead_type_error(t) from None
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


def _walk(program: Callable[..., Value | BudgetExhausted], seed: int, index: int,
          budget: int | None = None) -> Value | BudgetExhausted:
    """Value ``index`` of ``seed`` on ``program``, on its own stream, within
    ``budget``, which only a walk ``_Program`` reads."""
    return program(random.Random(stream_seed(seed, index)), budget)


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


def sample_dragen(u: ADTUniverse, spec: GenSpec, seed: int, index: int = 0) -> Value:
    """One value from a tuned size-bounded generator."""
    size, _ = _checked(u, spec, STRATEGY_DRAGEN)
    program = _walk_program(u, STRATEGY_DRAGEN, size, spec.probabilities,
                            spec.star_probabilities)
    v = _walk(program, _seed(seed), _index(index))
    assert isinstance(v, Value)
    return v


def sample_megadeth(u: ADTUniverse, probs: Mapping[str, float], size: int,
                    seed: int, index: int = 0) -> Value:
    """One value from the halving generator: the family draws uniformly,
    the foreign types by ``probs`` (see ``build_schedule``)."""
    v = _walk(_walk_program(u, STRATEGY_MEGADETH, _bounded_size(size), probs), _seed(seed),
              _index(index))
    assert isinstance(v, Value)
    return v


def sample_derive(u: ADTUniverse, budget: int, seed: int, index: int = 0,
                  probs: Mapping[str, float] | None = None) -> Value | BudgetExhausted:
    """One value from the unbounded generator, or BudgetExhausted: the
    family draws uniformly, the foreign types by ``probs`` (see
    ``build_schedule``)."""
    return _walk(_walk_program(u, STRATEGY_DERIVE, -1, probs), _seed(seed), _index(index),
                 _positive_budget(budget))


def sample_values(u: ADTUniverse, spec: GenSpec, seed: int, count: int,
                  budget: int = DEFAULT_DERIVE_BUDGET) -> Iterator[Value | BudgetExhausted]:
    """Values 0 .. count-1 of ``spec``'s strategy, on one walk program. Value
    i is what ``sample_dragen(u, spec, seed, i)``, ``sample_megadeth(u,
    spec.probabilities, spec.size, seed, i)`` or ``sample_derive(u, budget,
    seed, i, spec.probabilities)`` returns."""
    seed, count = _seed(seed), as_integer(count, "sample count must be a positive integer", 1)
    size, budget = _checked(u, spec, spec.strategy, budget)
    program = _walk_program(u, spec.strategy, size, spec.probabilities,
                            spec.star_probabilities)
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
                                        spec.star_probabilities))
    ctors = cu.ctors
    sums = [0] * len(ctors)
    sumsq = [0] * len(ctors)
    hist: Counter[int] = Counter()
    aborted = 0
    for b, start in enumerate(range(0, samples, _BLOCK)):
        rng = np.random.Generator(np.random.PCG64(stream_seed(seed, b)))
        counts, over = _block_counts(cu, tables, size, min(_BLOCK, samples - start),
                                     budget, rng)
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


def _block_counts(cu: CompiledUniverse, tables: _Tables, size: int, n: int,
                  budget: int | None, rng: np.random.Generator):
    """Simulate n generations from the root and return their (n x
    constructors) counts and the mask of those that passed ``budget``;
    ``size`` only names the generations in an overflow error.

    A level holds the placeholders at one depth. They share the levels
    left, ``k``, counted down from ``tables.levels``: at 0 they draw by the
    final row (which a foreign type shares with every size). Each is an
    independent draw from its type's table, so a type's constructor counts
    at a level are one multinomial draw per generation. Only generations
    with placeholders left stay in the working arrays.

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
    todo[:, cu.root] = 1
    emitted = np.zeros(n, dtype=np.int64)
    limit = np.inf if budget is None else budget
    k = tables.levels
    while live.size:
        emitted += todo.sum(axis=1)
        passed = emitted > limit
        over[live[passed]] = True
        todo[passed] = 0
        exact = emitted.max() > safe
        fields = cu.counts.astype(object) if exact else cu.counts
        tables_at = tables.p_final if k == 0 else tables.p_any
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
        k -= 1
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

