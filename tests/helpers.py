"""Shared oracles and generators for the test suite.

The oracles here deliberately avoid the main library's code paths: the
depth-1 oracle enumerates generator outcomes exhaustively, and the
constructor-matrix route recomputes the report from the constructor-level
mean matrix instead of the type-level one the implementation uses. That
route's matrices, populations and generations (``MeanMatrix``,
``PopulationVector`` and the functions on them) live here, not in the
library: only the tests read them.
"""

import itertools
import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from branchgen import (
    AdtError,
    ConstraintError,
    Value,
    chi_square,
    parse_universe,
    star_probs,
    terminal_constructors,
)
from branchgen import search
from branchgen.adt import (
    FAMILY,
    GROUND,
    MODE_FAMILY,
    MODE_FOREIGN,
    MODE_GROUND,
    read_probabilities,
    unqualify,
)
from branchgen.prediction import Process, _family_probs, _level_sums, _type_matrices
from branchgen.sampling import BudgetExhausted, stream_seed


# Foreign types and ground atoms that ``random_universe(..., extras=True)``
# mixes into the family's fields
EXTRA_DECLS = ("data F = FA Int Char | FB | FC Double G Unit",
               "data G = GA | GB Int G2 Char",
               "data G2 = GC | GD Unit")
EXTRA_FIELDS = ("Int", "Double", "Char", "Unit", "F", "G")


def random_universe(rng: random.Random, max_types: int = 4, max_ctors: int = 8,
                    extras: bool = False):
    """A random mutually recursive family, returned as (universe, field
    bookkeeping) where the bookkeeping maps constructor id -> list of
    field type ids, independently of the parsed structures. With
    ``extras``, fields other than the ring's first may also be ground atoms
    or the foreign types of ``EXTRA_DECLS``."""
    ntypes = rng.randint(1, max_types)
    names = [f"T{i}" for i in range(ntypes)]
    pool = names + list(EXTRA_FIELDS) if extras else names
    # At least one terminal plus, for multi-type families, one ring
    # constructor per type; spread the remaining constructor budget.
    per_type = [2 if ntypes > 1 else 1] * ntypes
    budget = max_ctors - sum(per_type)
    while budget > 0 and rng.random() < 0.7:
        per_type[rng.randrange(ntypes)] += 1
        budget -= 1

    decls = []
    fields_of = {}
    ctor_n = 0
    for i, tname in enumerate(names):
        alts = []
        for j in range(per_type[i]):
            cname = f"K{ctor_n}"
            ctor_n += 1
            if j == 0:
                fields = []
            elif j == 1 and ntypes > 1:
                fields = [names[(i + 1) % ntypes]]
                while rng.random() < 0.4:
                    fields.append(rng.choice(pool))
            else:
                fields = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            fields_of[f"{tname}.{cname}"] = list(fields)
            alts.append(" ".join([cname] + fields))
        decls.append(f"data {tname} = " + " | ".join(alts))
    if extras:
        decls.extend(EXTRA_DECLS)
    u = parse_universe("\n".join(decls), names[0])
    return u, fields_of


def random_probmap(rng: random.Random, u) -> dict:
    probs = {}
    for tid in u.family:
        ctors = u.constructors_of(tid)
        raw = [rng.random() + 0.05 for _ in ctors]
        total = sum(raw)
        for cid, w in zip(ctors, raw):
            probs[cid] = w / total
    return probs


def enumerate_depth1(u, probs):
    """Exact expected constructor counts of a size-1 run, by exhaustive
    enumeration: the root picks any constructor, then every family-typed
    field independently picks a terminal with its renormalized probability.
    Renormalization is recomputed here, independent of the library."""
    stars = {}
    for tid in u.family:
        terms = terminal_constructors(tid, u)
        mass = sum(probs[c] for c in terms)
        for c in terms:
            stars[c] = probs[c] / mass if mass > 0 else 1.0 / len(terms)
    expected = {c: 0.0 for c in u.family_constructors()}
    for root_cid in u.constructors_of(u.root):
        p_root = probs[root_cid]
        decl = u.ctor_decl(root_cid)
        family_fields = [f.target for f in decl.fields if f.kind == FAMILY]
        choice_sets = [
            [(t_cid, stars[t_cid]) for t_cid in terminal_constructors(tid, u)]
            for tid in family_fields
        ]
        for combo in itertools.product(*choice_sets):
            p_outcome = p_root
            for _, s in combo:
                p_outcome *= s
            expected[root_cid] += p_outcome
            for t_cid, _ in combo:
                expected[t_cid] += p_outcome
    return expected


CONSTRUCTOR = "constructor"
TYPE = "type"


@dataclass(eq=False)
class MeanMatrix:
    """Square matrix of expected offspring per parent, at constructor or
    type granularity. Entry (i, j) is the expected number of j's produced
    directly by one i."""

    granularity: str
    index: tuple
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)


@dataclass(eq=False)
class PopulationVector:
    """Expected counts keyed by an ordered id list; an overflowed count is
    an ``AdtError``."""

    index: tuple
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise AdtError("population vector entries must be finite and nonnegative")

    def get(self, name):
        return float(self.values[self.index.index(name)])

    def as_dict(self):
        return dict(zip(self.index, self.values.tolist()))


def branching_factor(ctor_id, type_id, u):
    """Number of fields of ``ctor_id`` whose type is ``type_id``, read from
    the declarations, not ``u.compiled``."""
    return sum(1 for f in u.ctor_decl(ctor_id).fields
               if f.kind != GROUND and f.target == type_id)


def count_constructors(v):
    """Multiset of constructor ids in a value; ground atoms are not counted."""
    counts = {}
    stack = [v]
    while stack:
        node = stack.pop()
        counts[node.constructor] = counts.get(node.constructor, 0) + 1
        stack.extend(ch for ch in node.children if isinstance(ch, Value))
    return counts


def mean_matrix_constructors(u, probs):
    """Offspring means over the family's constructors:
    entry (i, j) = branching_factor(i, type(j)) * p(j), from the
    declarations."""
    ctors = u.family_constructors()
    p = read_probabilities(probs, ctors)
    m = np.zeros((len(ctors), len(ctors)))
    for i, ci in enumerate(ctors):
        for j, cj in enumerate(ctors):
            beta = branching_factor(ci, u.ctor_type(cj), u)
            if beta:
                m[i, j] = beta * p[j]
    return MeanMatrix(CONSTRUCTOR, ctors, m)


def mean_matrix_types(u, probs):
    """Offspring means over the family's types, by the library's
    ``_type_matrices``: entry (u, v) = sum over constructors C of u of
    branching_factor(C, v) * p(C)."""
    cu = u.compiled
    return MeanMatrix(TYPE, u.family, _type_matrices(cu, _family_probs(cu, probs))[0])


def initial_population(u, probs, granularity=CONSTRUCTOR):
    """Level-0 expectations: a unit mass at the root type at type
    granularity, else the root type's constructor probabilities."""
    cu = u.compiled
    root = cu.index[u.root]
    if granularity == TYPE:
        return PopulationVector(u.family, np.arange(cu.nfamily) == root)
    p = _family_probs(cu, probs)[0]
    return PopulationVector(cu.ctors[:len(p)], np.where(cu.family_owner == root, p, 0.0))


def family_rows(u, maps):
    """The family constructors' probabilities, one checked row per map."""
    cu = u.compiled
    return np.array([_family_probs(cu, m)[0] for m in maps]).reshape(len(maps), cu.nfamily_ctors)


@np.errstate(over="ignore", invalid="ignore")
def predict_rows(u, maps, size):
    """Expected branching and last-level counts of the family constructors,
    one row per map, from one engine run on the stacked maps, as a search
    step scores its candidates."""
    process = Process(u, size)
    p = family_rows(u, maps)
    return process.counts(p, process.stars(p))


@np.errstate(over="ignore", invalid="ignore")
def _checked_level_sums(g0, m, n):
    """The library's ``_level_sums`` of a vector and a matrix over the same
    index; an overflow is left to ``PopulationVector``, which rejects the
    non-finite result."""
    if g0.index != m.index:
        raise AdtError("population vector and mean matrix are indexed differently")
    return _level_sums(g0.values.copy(), m.entries, n)


def expected_generation(g0, m, n):
    """g0'·M^n."""
    return PopulationVector(g0.index, _checked_level_sums(g0, m, n)[0])


def expected_population(g0, m, n):
    """Cumulative expectation sum(k=0..n) g0'·M^k."""
    return PopulationVector(g0.index, _checked_level_sums(g0, m, n)[1])


def predict_via_constructor_matrix(u, probs, size):
    """Per-constructor totals computed on the constructor-level mean matrix
    (the dual route to the type-level computation the library uses)."""
    mc = mean_matrix_constructors(u, probs)
    g0 = initial_population(u, probs, "constructor")
    pop = expected_population(g0, mc, size - 1)
    gen = expected_generation(g0, mc, size - 1)
    stars = star_probs(u, probs)

    totals = {}
    for cid in u.family_constructors():
        total = pop.get(cid)
        decl = u.ctor_decl(cid)
        if decl.family_arity() == 0:
            tid = u.ctor_type(cid)
            fill = 0.0
            for did in u.family_constructors():
                if u.ctor_decl(did).family_arity() > 0:
                    fill += gen.get(did) * branching_factor(did, tid, u)
            total += stars[cid] * fill
        totals[cid] = total
    return totals


def type_matrices_add_at(cu, p):
    """One type mean matrix per row of ``p`` by one ``np.add.at`` scatter
    over the family constructors in declaration order: the assembly that
    the rank-by-rank sums over the type-major layout replaced. The library
    must match it byte for byte."""
    nf, nfc = cu.nfamily, cu.nfamily_ctors
    m = np.zeros((len(p), nf, nf))
    np.add.at(m, (slice(None), cu.owner[:nfc]), cu.counts[:nfc, :nf] * p[:, :, None])
    return m


def fill_add_at(cu, v, p):
    """The last-level fill by one ``np.add.at`` scatter over the
    (constructor, family field) pairs: the form the library's bincount over
    flat indices replaced. The library must match it bit for bit."""
    fill = np.zeros((len(p), cu.nfamily))
    np.add.at(fill, (slice(None), cu.pair_target), (v[:, cu.family_owner] * p)[:, cu.pair_ctor])
    return fill


def terminal_mass_add_at(cu, p):
    """Each family type's terminal probability by one ``np.add.at``
    scatter over the terminals."""
    mass = np.zeros((len(p), cu.nfamily))
    np.add.at(mass, (slice(None), cu.terminal_owner), p[:, cu.family_terminal])
    return mass


def star_vectors_masked(cu, p):
    """p* from ``terminal_mass_add_at`` by zeros and mask gathers, uniform
    over a type's terminals where they have no mass, without the warning:
    the form the library's single division replaced."""
    owner, term = cu.family_owner, cu.family_terminal
    own_mass = terminal_mass_add_at(cu, p)[:, owner]
    stars = np.zeros(p.shape)
    live = term & (own_mass > 0.0)
    stars[live] = p[live] / own_mass[live]
    fallback = term & (own_mass == 0.0)
    stars[fallback] = np.broadcast_to(1.0 / cu.terminal_count[owner], p.shape)[fallback]
    return stars


def stars_where(cu, p):
    """p* by the mask and ``np.where`` over the terminal masses of
    ``terminal_mass_add_at``, uniform over a type's terminals where they
    have no mass, without the warning: the formula the library's padded
    division replaced where every type has terminal mass, and still uses
    where one does not. The library must match it byte for byte."""
    owner, term = cu.family_owner, cu.family_terminal
    own_mass = terminal_mass_add_at(cu, p)[:, owner]
    stars = p / np.where(term & (own_mass > 0.0), own_mass, np.inf)
    fallback = term & (own_mass == 0.0)
    stars[fallback] = np.broadcast_to(1.0 / cu.terminal_count[owner], stars.shape)[fallback]
    return stars


def type_sums_add_at(row_type, weights, ntypes):
    """The rows of ``weights`` summed per type, row i into row_type[i], by
    ``np.add.at``: how the extinction solve summed its mean matrix and its
    Newton sums before the bincount."""
    sums = np.zeros((ntypes, weights.shape[1]))
    np.add.at(sums, row_type, weights)
    return sums


def level_sums_loop(v, m, n):
    """v·M^n and sum(k=0..n) v·M^k by n successive products: the level loop
    that the library replaces by doubling above its threshold."""
    pop = v.copy()
    for _ in range(n):
        v = v @ m
        pop += v
    return v, pop


def level_sums_elementwise(v, m, n):
    """``level_sums_loop`` on a stack of 1x1 matrices as n elementwise
    products and n additions: the one-type level loop that the library's
    running product replaced. The library must match it byte for byte."""
    pop = v.copy()
    for _ in range(n):
        v = v * m
        pop += v
    return v, pop


def scalar_cost(cost, size, probs):
    """``cost`` on one map by the scalar route the batched prediction
    replaced, read from the declarations: the type mean matrix summed
    constructor by constructor (field count times probability), the fill
    summed field by field, both in declaration order, one vector-matrix
    product per level, and terminal probabilities renormalized per type
    (uniform when a type's terminals carry no mass). The library must
    match it bit for bit."""
    u = cost.universe
    ctors = u.family_constructors()
    index = {tid: t for t, tid in enumerate(u.family)}
    owner = {c: index[u.ctor_type(c)] for c in ctors}
    fields = {c: [index[f.target] for f in u.ctor_decl(c).fields if f.kind == FAMILY]
              for c in ctors}
    m = np.zeros((len(index), len(index)))
    for c in ctors:
        for t in sorted(set(fields[c])):
            m[owner[c], t] += fields[c].count(t) * probs[c]
    v = np.zeros(len(index))
    v[index[u.root]] = 1.0
    pop = v.copy()
    for _ in range(size - 1):
        v = v @ m
        pop += v
    fill = [0.0] * len(index)
    for c in ctors:
        for t in fields[c]:
            fill[t] += v[owner[c]] * probs[c]
    totals = {}
    for c in ctors:
        totals[c] = pop[owner[c]] * probs[c]
        if not fields[c]:
            terms = terminal_constructors(u.ctor_type(c), u)
            mass = 0.0
            for d in terms:
                mass += probs[d]
            star = probs[c] / mass if mass > 0.0 else 1.0 / len(terms)
            totals[c] += star * fill[owner[c]]
    return chi_square([totals[c] for c, _ in cost.targets],
                      [w * size for _, w in cost.targets])


# ---------------------------------------------------------------------------
# Exclusion costs by declaration walks: the checks that the live-support
# analysis over the compiled form replaced, kept as oracles.
# ---------------------------------------------------------------------------

def check_types_survive(u, pinned):
    """Raise for the first family type, in family order, with no unpinned
    constructor or no unpinned terminal, reachable or not."""
    for tid in u.family:
        ctors = u.constructors_of(tid)
        live = [c for c in ctors if c not in pinned]
        if not live:
            raise ConstraintError(f"exclusion removes every constructor of {tid}")
        terms = set(terminal_constructors(tid, u))
        if not any(c in terms for c in live):
            raise ConstraintError(
                f"exclusion removes every terminal constructor of {tid}; "
                "generation could not terminate")


def propagate_dead_types(u, pinned):
    """Kill constructors that reference a family type with no live
    constructors left, to a fixpoint. Returns the enlarged pinned set."""
    pinned = set(pinned)
    family_ctors = u.family_constructors()
    changed = True
    while changed:
        changed = False
        live_by_type = {
            tid: [c for c in u.constructors_of(tid) if c not in pinned]
            for tid in u.family
        }
        for cid in family_ctors:
            if cid in pinned:
                continue
            decl = u.ctor_decl(cid)
            for f in decl.fields:
                if f.kind == FAMILY and not live_by_type[f.target]:
                    pinned.add(cid)
                    changed = True
                    break
    return pinned


def starved_types(u, pinned):
    """The family types that the root reaches along unpinned constructors
    and that keep no unpinned terminal, in the order in which a LIFO walk
    from the root visits them."""
    seen = {u.root}
    todo = [u.root]
    starved = []
    while todo:
        tid = todo.pop()
        terms = set(terminal_constructors(tid, u))
        live = [c for c in u.constructors_of(tid) if c not in pinned]
        if not any(c in terms for c in live):
            starved.append(tid)
        for cid in live:
            for f in u.ctor_decl(cid).fields:
                if f.kind == FAMILY and f.target not in seen:
                    seen.add(f.target)
                    todo.append(f.target)
    return starved


def reference_pinned(u, kind, names):
    """The pinned set of the exclusion cost ``kind`` ("only", "without",
    "onlyTypes" or "withoutTypes") over valid qualified ``names``, or the
    ConstraintError it raises, by the declaration walks. ``only`` and
    ``without`` check every family type; the type filters propagate dead
    types and check the types the root still reaches, naming the first
    such type that the walk visits."""
    if kind in ("only", "without"):
        chosen = set(names)
        pinned = set(u.family_constructors()) - chosen if kind == "only" else chosen
        check_types_survive(u, pinned)
        return frozenset(pinned)
    excluded = set(u.family) - set(names) if kind == "onlyTypes" else set(names)
    pinned = propagate_dead_types(u, {c for tid in excluded for c in u.constructors_of(tid)})
    if all(c in pinned for c in u.constructors_of(u.root)):
        raise ConstraintError(
            "exclusion disconnects the family: no constructor of the root "
            f"type {u.root} survives")
    starved = starved_types(u, pinned)
    if starved:
        raise ConstraintError(
            f"exclusion removes every terminal constructor of {starved[0]}; "
            "generation could not terminate")
    return frozenset(pinned)


def _quantized(probs, order):
    return tuple(round(probs[c] / search.QUANTUM) for c in order)


def _reference_keyed(u, probs, delta, pinned):
    """Yield (quantized key, candidate) pairs in enumeration order, one dict
    per candidate: bump each unpinned constructor (sorted ids) by +delta,
    then -delta, clamped at 0, and divide its type's unpinned entries by
    their total. The total is added left to right in an explicit loop,
    which is what ``sum`` does for floats up to Python 3.11."""
    order = tuple(sorted(probs))
    seen = {_quantized(probs, order)}
    by_type = {}
    for cid in order:
        by_type.setdefault(u.ctor_type(cid), []).append(cid)
    for cid in order:
        if cid in pinned:
            continue
        free = [c for c in by_type[u.ctor_type(cid)] if c not in pinned]
        for sign in (1.0, -1.0):
            candidate = dict(probs)
            candidate[cid] = max(0.0, probs[cid] + sign * delta)
            total = 0.0
            for c in free:
                total += candidate[c]
            if total <= 0.0:
                continue
            for c in free:
                candidate[c] = candidate[c] / total
            key = _quantized(candidate, order)
            if key in seen:
                continue
            seen.add(key)
            yield key, candidate


def reference_neighbors(u, probs, delta, pinned=frozenset()):
    """What ``neighbors`` must return, built one dict at a time."""
    return [cand for _, cand in _reference_keyed(u, probs, delta, pinned)]


def reference_optimize(cost, size, init, config):
    """Best-improvement descent on the dict enumeration, calling ``cost``
    once per map; returns (best map, steps, outcome, evaluations), which
    ``optimize`` must match."""
    focus = dict(init)
    focus_cost = cost(size, focus)
    evaluations = 1
    visited = {_quantized(focus, tuple(sorted(init)))}
    steps = [(dict(focus), focus_cost)]
    outcome = "StepCap"
    for _ in range(config.max_steps):
        fresh = []
        for key, cand in _reference_keyed(cost.universe, focus, config.delta,
                                          cost.pinned):
            if key not in visited:
                visited.add(key)
                fresh.append(cand)
        if not fresh:
            outcome = "LocalMinimum"
            break
        evaluations += len(fresh)
        costs = [cost(size, c) for c in fresh]
        # a nan cost is never chosen, and a step needs a gain that is a
        # number above epsilon
        best_cost, best_i = min(((c, i) for i, c in enumerate(costs) if c == c),
                                default=(float("inf"), None))
        gain = focus_cost - best_cost
        if not gain > 0.0:
            outcome = "LocalMinimum"
            break
        if not gain > config.epsilon:
            outcome = "EpsilonStop"
            break
        focus = fresh[best_i]
        focus_cost = best_cost
        steps.append((dict(focus), focus_cost))
    return focus, steps, outcome, evaluations


def value_depth(v, u):
    """Longest chain of family constructors from the root of a value."""
    best = 0
    stack = [(v, 0)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        for ch in node.children:
            if isinstance(ch, Value) and u.is_family(u.ctor_type(ch.constructor)):
                stack.append((ch, d + 1))
    return best


def typecheck_value(v, u):
    """Assert arity and child types match the declarations."""
    stack = [v]
    while stack:
        node = stack.pop()
        decl = u.ctor_decl(node.constructor)
        assert len(node.children) == len(decl.fields), node.constructor
        for ch, f in zip(node.children, decl.fields):
            if f.kind == "ground":
                if f.target == "Int":
                    assert isinstance(ch, int) and not isinstance(ch, bool)
                elif f.target == "Double":
                    assert isinstance(ch, float)
                elif f.target == "Char":
                    assert isinstance(ch, str) and len(ch) == 1
                else:
                    assert ch is None
            else:
                assert isinstance(ch, Value)
                assert u.ctor_type(ch.constructor) == f.target
                stack.append(ch)


# ---------------------------------------------------------------------------
# Reference tree walk and serializers: the node-by-node forms that the
# program-driven walk and the table-driven serializers replaced, kept as
# oracles.
# ---------------------------------------------------------------------------

_PRINTABLE = "".join(chr(c) for c in range(0x20, 0x7F))


def _reference_ground(mode, rng):
    if mode == MODE_GROUND["Int"]:
        return rng.randint(-100, 100)
    if mode == MODE_GROUND["Double"]:
        return rng.random()
    if mode == MODE_GROUND["Char"]:
        return rng.choice(_PRINTABLE)
    return None  # Unit consumes no randomness


def reference_walk(cu, tables, child_size, root_pos, size, rng, budget=None):
    """Expand one generation into mutable (constructor id, children) nodes,
    then freeze them bottom-up through an ``id()``-keyed dict. The draws are
    the tree walk's: the constructor, the node's ground atoms in field
    order, then the children depth-first from left to right. Family
    children are at ``child_size`` of their parent's size."""
    rows = [cu.rows[s] for s in cu.slices]
    rand = rng.random
    holder = [None]
    emitted = 0
    stack = [(root_pos, size, holder, 0)]
    while stack:
        t, sz, sink, slot = stack.pop()
        cum = tables.cum_final[t] if sz == 0 else tables.cum_any[t]
        i = bisect_right(cum, rand())
        if budget is not None:
            emitted += 1
            if emitted > budget:
                return BudgetExhausted(budget)
        row = rows[t][i]
        children = [None] * len(row)
        child_sz = child_size(sz)
        pending = []
        for k, (mode, target) in enumerate(row):
            if mode == MODE_FAMILY:
                pending.append((target, child_sz, children, k))
            elif mode == MODE_FOREIGN:
                pending.append((target, -1, children, k))
            else:
                children[k] = _reference_ground(mode, rng)
        stack.extend(reversed(pending))
        sink[slot] = (cu.ctors[cu.slices[t].start + i], children)

    order = []
    todo = [holder[0]]
    while todo:
        cur = todo.pop()
        order.append(cur)
        for ch in cur[1]:
            if isinstance(ch, tuple):
                todo.append(ch)
    frozen = {}
    for cur in reversed(order):
        kids = tuple(frozen[id(ch)] if isinstance(ch, tuple) else ch for ch in cur[1])
        frozen[id(cur)] = Value(cur[0], kids)
    return frozen[id(holder[0])]


# The oracle's own rule for the size of a node's family children, per
# strategy; the library keeps only a count of levels (``Schedule.levels``).
REFERENCE_CHILD_SIZE = {"dragen": lambda sz: sz - 1, "megadeth": lambda sz: sz // 2,
                        "derive": lambda sz: -1}


@dataclass
class OracleTables:
    """What ``reference_walk`` reads of a schedule: per compiled type, the
    probabilities above the final level and on it, each cut after its last
    positive entry, and their bisect tables."""

    p_any: list
    cum_any: list
    p_final: list
    cum_final: list


def _oracle_normalized(weights):
    total = sum(weights)
    return [w / total if total > 0.0 else 0.0 for w in weights]


def _oracle_table(row):
    """``row`` up to its last positive entry and its running sums, the last
    one 1.0; a row with no positive entry is empty, and its table is -1.0
    per constructor, below every draw."""
    live = [i for i, w in enumerate(row) if w > 0.0]
    if not live:
        return [], [-1.0] * len(row)
    p = row[:live[-1] + 1]
    cum, run = [], 0.0
    for w in p:
        run += w
        cum.append(run)
    cum[-1] = 1.0
    return p, cum


def schedule_oracle(u, strategy, size, probs=None, stars=None):
    """The choice tables of ``strategy`` at ``size``, from the type
    declarations alone (the compiled universe gives only the order of the
    types, by which the walk indexes them). Dragen draws each family type
    by ``probs``, and at size 0 its terminals by ``stars`` (an unnamed
    terminal reads 0); megadeth and derive draw the family uniformly,
    megadeth only its terminals at size 0, and derive has no size 0. A
    foreign type draws by ``probs`` if it names one of its constructors,
    else uniformly. Each type is normalized by its ``sum``."""
    probs, stars = probs or {}, stars or {}
    any_rows, final_rows = [], []
    for tid in u.compiled.types:
        ctors = u.decls[tid].constructors
        ids = [f"{tid}.{c.name}" for c in ctors]
        if not u.is_family(tid):
            named = any(c in probs for c in ids)
            above = final = [probs[c] if named else 1.0 / len(ids) for c in ids]
        elif strategy == "dragen":
            above = [probs[c] for c in ids]
            final = [0.0 if k.family_arity() else stars.get(c, 0.0) for c, k in zip(ids, ctors)]
        else:
            above = [1.0] * len(ids)
            final = (above if strategy == "derive"
                     else [0.0 if k.family_arity() else 1.0 for k in ctors])
        any_rows.append(_oracle_table(_oracle_normalized(above)))
        final_rows.append(_oracle_table(_oracle_normalized(final)))
    p_any, cum_any = map(list, zip(*any_rows))
    p_final, cum_final = map(list, zip(*final_rows))
    return OracleTables(p_any, cum_any, p_final, cum_final)


def reference_sample(u, strategy, seed, index, size=-1, spec=None, budget=None,
                     foreign_probs=None):
    """Value ``index`` of ``seed`` by ``reference_walk``: ``spec`` for dragen
    (its size is used), ``size`` for megadeth, ``budget`` for derive, and
    ``foreign_probs`` for every strategy, over any foreign entries of the
    spec's map. The size-bounded strategies ignore the budget, as the
    samplers do."""
    probs = stars = None
    if strategy == "dragen":
        probs, stars, size = spec.probabilities, spec.star_probabilities, spec.size
    if strategy == "derive":
        size = -1
    else:
        budget = None
    if foreign_probs is not None:
        probs = {**(probs or {}), **foreign_probs}
    cu = u.compiled
    rng = random.Random(stream_seed(seed, index))
    return reference_walk(cu, schedule_oracle(u, strategy, size, probs, stars),
                          REFERENCE_CHILD_SIZE[strategy], cu.index[u.root], size, rng, budget)


def megadeth_oracle(u, size):
    """Exact expected counts of the halving generator at ``size``, read
    from the declarations alone: uniform choice per type, family children
    at size // 2, uniform terminals at size 0, and foreign children drawn
    uniformly with no size bound."""
    memo = {}

    def expect(tid, sz):
        key = (tid, sz)
        if key in memo:
            return memo[key]
        ctors = u.decls[tid].constructors
        if tid in u.family and sz == 0:
            ctors = [c for c in ctors if not any(f.kind == FAMILY for f in c.fields)]
        acc = {}
        w = 1.0 / len(ctors)
        for c in ctors:
            cid = f"{tid}.{c.name}"
            acc[cid] = acc.get(cid, 0.0) + w
            for f in c.fields:
                if f.kind == GROUND:
                    continue
                child = expect(f.target, sz // 2 if f.kind == FAMILY else -1)
                for k, v in child.items():
                    acc[k] = acc.get(k, 0.0) + w * v
        memo[key] = acc
        return acc

    return expect(u.root, size)


def _reference_atom_sexp(atom):
    if atom is None:
        return "()"
    if isinstance(atom, str):
        return f"'{atom}'"
    if isinstance(atom, float):
        return repr(atom)
    return str(atom)


def reference_sexp(v):
    """(Ctor child ...) by a pass that collects pieces and a second pass
    that joins them with spaces."""
    out = []
    stack = [v]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Value):
            out.append("(" + unqualify(node.constructor))
            stack.append(")")
            for ch in reversed(node.children):
                stack.append(ch if isinstance(ch, Value) else _reference_atom_sexp(ch))
        else:
            out.append(_reference_atom_sexp(node))
    text = []
    for piece in out:
        if text and piece != ")":
            text.append(" ")
        text.append(piece)
    return "".join(text)


def _reference_atom_json(atom):
    if atom is None:
        return "null"
    if isinstance(atom, str):
        return json.dumps(atom)
    if isinstance(atom, float):
        return repr(atom)
    return str(atom)


def reference_json(v):
    """Nested {"constructor": ..., "children": [...]} objects, formatted
    node by node."""
    out = []
    stack = [v]
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
                stack.append(ch if isinstance(ch, Value) else _reference_atom_json(ch))
        else:
            out.append(_reference_atom_json(node))
    return "".join(out)


def recursive_print(v, fmt):
    """``v`` printed straight from each format's grammar by plain
    recursion, ``fmt`` being "sexp" or "json": an independent reference for
    the library's stack-based printer, for values shallow enough to
    recurse."""
    if isinstance(v, Value):
        kids = [recursive_print(c, fmt) for c in v.children]
        if fmt == "sexp":
            return "(" + " ".join([unqualify(v.constructor), *kids]) + ")"
        return ('{"constructor": ' + json.dumps(v.constructor) + ', "children": ['
                + ", ".join(kids) + "]}")
    if v is None:
        return "()" if fmt == "sexp" else "null"
    if isinstance(v, str):
        return "'" + v + "'" if fmt == "sexp" else json.dumps(v)
    return repr(v)


def same_value(a, b):
    """``a == b`` for Values and atoms, compared iteratively, so that values
    too deep for the recursive dataclass ``==`` compare too."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, Value) and isinstance(y, Value):
            if x.constructor != y.constructor or len(x.children) != len(y.children):
                return False
            stack.extend(zip(x.children, y.children))
        elif isinstance(x, Value) or isinstance(y, Value) or not x == y:
            return False
    return True


@dataclass(frozen=True)
class _DataclassValue:
    constructor: str
    children: tuple = ()


_DataclassValue.__qualname__ = "Value"


def dataclass_twin(v):
    """``v`` rebuilt, recursively, as a plain frozen dataclass with Value's
    fields and name, whose generated ``==``, ``hash`` and ``repr`` are the
    reference for Value's. Only for values shallow enough to recurse."""
    if not isinstance(v, Value):
        return v
    return _DataclassValue(v.constructor, tuple(dataclass_twin(c) for c in v.children))


def closure(names, edges):
    """Reachability over ``names`` by boolean matrix closure: returns
    (reach, cyclic), where ``reach[a]`` is the set of names reachable from
    ``a`` by zero or more edges and ``cyclic`` the names on a cycle (reachable
    from themselves by one or more edges). ``edges`` maps a name to the names
    it references."""
    pos = {n: i for i, n in enumerate(names)}
    step = np.zeros((len(names), len(names)), dtype=bool)
    for a, targets in edges.items():
        for b in targets:
            step[pos[a], pos[b]] = True
    star = step | np.eye(len(names), dtype=bool)
    while True:
        wider = (star.astype(np.int64) @ star.astype(np.int64)) > 0
        if (wider == star).all():
            break
        star = wider
    plus = (step.astype(np.int64) @ star.astype(np.int64)) > 0
    reach = {a: {b for b in names if star[pos[a], pos[b]]} for a in names}
    return reach, {a for a in names if plus[pos[a], pos[a]]}


# ---------------------------------------------------------------------------
# Extinction by Newton's method in high precision: the oracle for the
# library's decomposed double-precision solve.
# ---------------------------------------------------------------------------

def extinction_oracle(u, probs, digits=60):
    """Per-type extinction probabilities, read from the declarations: the
    least fixpoint of q(t) = sum over constructors C of t of p(C) times the
    product of q over C's family fields, with each type's probabilities
    renormalized exactly.

    A type that cannot finish a value (no constructor with probability whose
    family fields all can) gets 0. The rest are solved by Newton's method
    from 0 on the whole system at once, in ``digits``-digit decimals. The
    iterates rise monotonically to the least fixpoint (Etessami &
    Yannakakis 2009); at criticality only by one bit per step, hence the
    step allowance."""
    types = list(u.family)
    fields = {c: [f.target for f in u.ctor_decl(c).fields if f.kind == FAMILY]
              for t in types for c in u.constructors_of(t)}
    finite = set()
    while True:
        grown = {t for t in types for c in u.constructors_of(t)
                 if probs[c] > 0 and all(f in finite for f in fields[c])}
        if grown == finite:
            break
        finite = grown
    solve = [t for t in types if t in finite]
    pos = {t: i for i, t in enumerate(solve)}
    n = len(solve)
    with localcontext() as ctx:
        ctx.prec = digits
        terms = []
        for t in solve:
            mass = sum(Decimal(probs[c]) for c in u.constructors_of(t))
            for c in u.constructors_of(t):
                if probs[c] > 0 and all(f in finite for f in fields[c]):
                    terms.append((pos[t], Decimal(probs[c]) / mass, [pos[f] for f in fields[c]]))
        q = [Decimal(0)] * n
        tiny = Decimal(10) ** (10 - digits)
        for _ in range(4 * digits):
            f = [Decimal(0)] * n
            jac = [[Decimal(0)] * n for _ in range(n)]
            for t, p, fam in terms:
                prod = p
                for x in fam:
                    prod *= q[x]
                f[t] += prod
                for k, x in enumerate(fam):
                    d = p
                    for m, y in enumerate(fam):
                        if m != k:
                            d *= q[y]
                    jac[t][x] += d
            a = [[(1 if i == j else 0) - jac[i][j] for j in range(n)] + [f[i] - q[i]]
                 for i in range(n)]
            step = _gauss(a, n)
            if step is None:
                break
            q = [min(Decimal(1), qi + si) for qi, si in zip(q, step)]
            if not n or max(abs(s) for s in step) < tiny:
                break
        return {t: float(q[pos[t]]) if t in pos else 0.0 for t in types}


def _gauss(a, n):
    """Solve the augmented system ``a`` by Gaussian elimination with partial
    pivoting; None when it is singular."""
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    x = [Decimal(0)] * n
    for r in reversed(range(n)):
        x[r] = (a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n))) / a[r][r]
    return x
