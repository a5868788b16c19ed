"""Expected constructor counts for size-bounded generators.

The generator run at size n is modelled as a multi-type branching process
over the root's family: level k of a generated value is the process's k-th
generation. With the offspring mean matrix M and initial vector g0, the
expected generation is g0'·M^k and the expected population up to level k is
the running sum of those terms. Terminal constructors get an extra
last-level term because the final level can only draw terminals, with
probabilities renormalized within each type's terminal set.

Everything here reads ``u.compiled``, built once per universe and shared
with the samplers, and sums in declaration order. The constructor-level
route (``mean_matrix_constructors``) reads the declarations instead: it is
the independent reference the tests compare against.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .adt import (
    MODE_FOREIGN,
    ADTUniverse,
    AdtError,
    CompiledUniverse,
    _reachable,
    branching_factor,
    live_graph,
    uniform_probmap,
    warn_probability,
)

CONSTRUCTOR = "constructor"
TYPE = "type"

EXTINCTION_TOL = 1e-15          # Newton stops once no entry moves more than this
EXTINCTION_MAX_ITER = 300
EXTINCTION_RHO_SLACK = 1e-12    # rounding allowed in the spectral radius test


@dataclass(eq=False)
class MeanMatrix:
    """Square matrix of expected offspring per parent, at constructor or
    type granularity. Entry (i, j) is the expected number of j's produced
    directly by one i."""

    granularity: str
    index: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        n = len(self.index)
        if self.entries.shape != (n, n):
            raise AdtError(f"mean matrix shape {self.entries.shape} does not match index size {n}")
        if (self.entries < 0).any():
            raise AdtError("mean matrix entries must be nonnegative")


@dataclass(eq=False)
class PopulationVector:
    """Expected counts keyed by an ordered id list."""

    index: tuple[str, ...]
    values: np.ndarray
    _pos: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.index),):
            raise AdtError("population vector length does not match its index")
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise AdtError("population vector entries must be finite and nonnegative")
        self._pos = {name: i for i, name in enumerate(self.index)}

    def get(self, name: str) -> float:
        return float(self.values[self._pos[name]])

    def as_dict(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.index, self.values)}


def _require_probs(probs: Mapping[str, float], ctors: tuple[str, ...]) -> None:
    missing = [c for c in ctors if c not in probs]
    if missing:
        raise AdtError(f"missing probability entries: {missing}")


def _family_probs(cu: CompiledUniverse, maps: Sequence[Mapping[str, float]]) -> np.ndarray:
    """The family constructors' probabilities, one row per map, each
    checked to be finite and nonnegative."""
    ctors = cu.ctors[:cu.nfamily_ctors]
    for probs in maps:
        _require_probs(probs, ctors)
    rows = [[probs[c] for c in ctors] for probs in maps]
    p = np.array(rows, dtype=float).reshape(len(maps), len(ctors))
    bad = ~(np.isfinite(p) & (p >= 0.0))
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise AdtError(f"probability of {ctors[c]} must be finite and nonnegative, "
                       f"got {p[r, c]}")
    return p


def mean_matrix_constructors(u: ADTUniverse, probs: Mapping[str, float]) -> MeanMatrix:
    """Offspring means over the family's constructors:
    entry (i, j) = branching_factor(type(j), i) * p(j). It reads the
    declarations, not ``u.compiled``: this is the reference route."""
    ctors = u.family_constructors()
    _require_probs(probs, ctors)
    n = len(ctors)
    m = np.zeros((n, n))
    for i, ci in enumerate(ctors):
        for j, cj in enumerate(ctors):
            beta = branching_factor(ci, u.ctor_type(cj), u)
            if beta:
                m[i, j] = beta * probs[cj]
    return MeanMatrix(CONSTRUCTOR, ctors, m)


class Focus:
    """A local search's focus map as the prediction engine sees it: its
    type mean matrix, and for each map of the next batch the family type
    whose probabilities that map changes. ``predict_batch`` keeps the
    batch's matrices, so that ``move(i)`` makes map i the focus."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.types = np.empty(0, dtype=np.intp)
        self.batch = np.empty((0, *matrix.shape))

    def move(self, i: int) -> None:
        self.matrix = self.batch[i]


def _type_matrices(cu: CompiledUniverse, p: np.ndarray, focus: Focus | None = None) -> np.ndarray:
    """One type mean matrix per row of ``p``, each summed constructor by
    constructor in declaration order.

    Rank j adds every type's j-th constructor at once, so each cell gets
    0.0 + a0 + a1 + ... in declaration order. A pad adds 0.0 or -0.0,
    which leaves a sum that starts at 0.0 unchanged.

    With a ``focus``, row i of ``p`` agrees with the focus map outside the
    constructors of family type ``focus.types[i]`` (an index of nfamily or
    more changes none of them), so only that type's row is summed, the same
    way, into a copy of the focus matrix: the result is the same bit for
    bit."""
    if focus is None:
        prod = p[:, cu.type_cols, None] * cu.type_counts
        m = np.zeros((len(p), cu.nfamily, cu.nfamily))
        for j in range(prod.shape[2]):
            m += prod[:, :, j]
        return m
    m = np.repeat(focus.matrix[None], len(p), axis=0)
    rows = np.flatnonzero(focus.types < cu.nfamily)
    t = focus.types[rows]
    prod = p[rows[:, None], cu.type_cols[t], None] * cu.type_counts[t]
    changed = np.zeros((len(rows), cu.nfamily))
    for j in range(prod.shape[1]):
        changed += prod[:, j]
    m[rows, t] = changed
    return m


def mean_matrix_types(u: ADTUniverse, probs: Mapping[str, float]) -> MeanMatrix:
    """Offspring means over the family's types:
    entry (u, v) = sum over constructors C of u of branching_factor(v, C) * p(C)."""
    cu = u.compiled
    return MeanMatrix(TYPE, u.family, _type_matrices(cu, _family_probs(cu, [probs]))[0])


def initial_population(u: ADTUniverse, probs: Mapping[str, float],
                       granularity: str = CONSTRUCTOR) -> PopulationVector:
    """Level-0 expectations: the root type's constructor probabilities at
    constructor granularity, or a unit mass at the root type."""
    cu = u.compiled
    root = cu.index[u.root]
    if granularity == CONSTRUCTOR:
        p = _family_probs(cu, [probs])[0]
        return PopulationVector(cu.ctors[:len(p)], np.where(cu.family_owner == root, p, 0.0))
    if granularity == TYPE:
        return PopulationVector(u.family, np.arange(cu.nfamily) == root)
    raise AdtError(f"unknown granularity: {granularity!r}")


def _level_sums(v: np.ndarray, m: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Generation n, v·M^n, and the population up to it, sum(k=0..n) v·M^k,
    by n successive vector-matrix products. ``v`` may be one row vector or a
    stack of them, each with its own matrix.

    The geometric closed form with (I - M) inverted is an equivalent
    identity when (I - M) is nonsingular; accumulating the series directly
    needs no special case for the singular/critical situation.
    """
    pop = v.copy()
    for _ in range(n):
        v = v @ m
        pop += v
    return v, pop


def _checked_level_sums(g0: PopulationVector, m: MeanMatrix, n: int):
    if g0.index != m.index:
        raise AdtError("population vector and mean matrix are indexed differently")
    if n < 0:
        raise AdtError("generation number must be nonnegative")
    return _level_sums(g0.values.copy(), m.entries, n)


def expected_generation(g0: PopulationVector, m: MeanMatrix, n: int) -> PopulationVector:
    """g0'·M^n."""
    return PopulationVector(g0.index, _checked_level_sums(g0, m, n)[0])


def expected_population(g0: PopulationVector, m: MeanMatrix, n: int) -> PopulationVector:
    """Cumulative expectation sum(k=0..n) g0'·M^k."""
    return PopulationVector(g0.index, _checked_level_sums(g0, m, n)[1])


def _star_vectors(cu: CompiledUniverse, p: np.ndarray) -> np.ndarray:
    """p* over the family constructors, one row per row of ``p``, zero for
    non-terminals."""
    owner, term, nterms = cu.family_owner, cu.family_terminal, cu.terminal_count
    if not nterms.all():
        t = np.flatnonzero(nterms == 0)[0]
        raise AdtError(f"family type {cu.types[t]} has no terminal constructor; "
                       "generation cannot terminate")
    mass = np.zeros((len(p), cu.nfamily))
    np.add.at(mass, (slice(None), cu.terminal_owner), p[:, term])
    own_mass = mass[:, owner]
    stars = np.zeros(p.shape)
    live = term & (own_mass > 0.0)
    stars[live] = p[live] / own_mass[live]
    if mass.all():
        return stars
    starved = mass == 0.0
    # A type with probability mass left but none on its terminals warns, once
    # per (row, type) in row-major order; a type with no mass at all is the
    # dead-type form and stays silent.
    live_types = (p[:, cu.type_cols] > 0.0).any(axis=2)
    for t in np.argwhere(starved & live_types)[:, 1].tolist():
        warn_probability(
            f"all terminal constructors of {cu.types[t]} have probability 0; "
            "using a uniform terminal distribution at the last level")
    fallback = term & starved[:, owner]
    stars[fallback] = np.broadcast_to(1.0 / nterms[owner], p.shape)[fallback]
    return stars


def star_probs(u: ADTUniverse, probs: Mapping[str, float]) -> dict[str, float]:
    """Per-type renormalized terminal probabilities, used when the remaining
    size is zero: p*(C) = p(C) / sum of p over the type's terminals.

    A family type with no terminal constructor cannot terminate and is
    reported as an error. When a live type's terminals all carry zero
    probability the distribution falls back to uniform over its terminals
    (with a warning): the generator must still be able to stop.
    """
    cu = u.compiled
    stars = _star_vectors(cu, _family_probs(cu, [probs]))[0].tolist()
    return {cid: stars[c] for c, cid in enumerate(cu.ctors[:len(stars)]) if cu.terminal[c]}


@dataclass(frozen=True)
class ConstructorExpectation:
    branching: float
    last_level: float

    @property
    def total(self) -> float:
        return self.branching + self.last_level


@dataclass(eq=False)
class PredictionReport:
    """Expected per-constructor counts for one generator configuration."""

    size: int
    per_constructor: dict[str, ConstructorExpectation]
    per_foreign: dict[str, float] = field(default_factory=dict)

    def totals(self) -> dict[str, float]:
        return {cid: e.total for cid, e in self.per_constructor.items()}


@np.errstate(over="ignore", invalid="ignore")
def predict_batch(u: ADTUniverse, maps: Sequence[Mapping[str, float]] | np.ndarray,
                  size: int, focus: Focus | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Expected branching and last-level counts of the family constructors
    (columns in ``u.compiled.ctors`` order), one row per probability map.
    ``maps`` is a sequence of maps or a matrix of the family constructors'
    probabilities, one row per map, in the same column order.

    All maps share one level loop over stacked type matrices. Every row is
    computed with the same operations in the same order as a batch of one,
    so a map's numbers do not depend on the batch it is scored in. With a
    ``focus`` (see ``Focus``), each map's type matrix is the focus matrix
    with one row rebuilt; the batch's matrices are kept on the focus.

    The engine never emits a numpy RuntimeWarning: a count that overflows a
    double reads inf or nan, and callers that must print it reject it.
    """
    if not isinstance(size, numbers.Integral) or size < 1:
        raise AdtError(f"size must be a positive integer, got {size!r}")
    cu = u.compiled
    if isinstance(maps, np.ndarray):
        p = maps.astype(float, copy=False)
        if p.ndim != 2 or p.shape[1] != cu.nfamily_ctors:
            raise AdtError(f"probability matrix of shape {p.shape} does not have "
                           f"one column per family constructor ({cu.nfamily_ctors})")
    else:
        p = _family_probs(cu, maps)
    m = _type_matrices(cu, p, focus)
    if focus is not None:
        focus.batch = m
    # One row vector per map: (maps, 1, types), so each level is one
    # stacked vector-matrix product.
    v = np.zeros((len(p), 1, cu.nfamily))
    v[:, 0, cu.index[u.root]] = 1.0
    v, pop = _level_sums(v, m, size - 1)
    v, pop = v[:, 0], pop[:, 0]
    owner = cu.family_owner

    # Placeholders of each type at the final level, spawned by the
    # non-terminal constructors present at level size-1 (v).
    fill = np.zeros_like(v)
    np.add.at(fill, (slice(None), cu.pair_target), (v[:, owner] * p)[:, cu.pair_ctor])

    branching = pop[:, owner] * p
    last = np.where(cu.family_terminal, _star_vectors(cu, p) * fill[:, owner], 0.0)
    return branching, last


def predict_constructors(u: ADTUniverse, probs: Mapping[str, float],
                         size: int) -> PredictionReport:
    """Expected constructor counts for a run at the given size.

    Non-terminal C of type T: population of T-placeholders up to level
    size-1, times p(C). Terminal C adds the last-level fill: p*(C) times
    the placeholders of T spawned into level `size` by the non-terminals
    at level size-1. Constructor expectations are derived from type-level
    quantities; the result agrees with the direct constructor-matrix
    computation. This is ``predict_batch`` on one map.
    """
    branching, last = predict_batch(u, [probs], size)
    report = {cid: ConstructorExpectation(b, l)
              for cid, b, l in zip(u.compiled.ctors, branching[0].tolist(), last[0].tolist())}
    return PredictionReport(size, report)


def predict_foreign(u: ADTUniverse, report: PredictionReport,
                    foreign_probs: Mapping[str, float] | None = None) -> dict[str, float]:
    """Expected counts of foreign constructors, propagated through the
    acyclic foreign types: each expected parent contributes its field
    multiplicities, and each value of a foreign type splits among that
    type's constructors by their probabilities.

    The result is also recorded on ``report.per_foreign``.
    """
    cu = u.compiled
    nfc = cu.nfamily_ctors
    if foreign_probs is None:
        foreign_probs = uniform_probmap(u, cu.types[cu.nfamily:])
    _require_probs(foreign_probs, cu.ctors[nfc:])

    # Types are in topological order, so each foreign type has all of its
    # placeholders before its own constructors are reached.
    placeholders = [0.0] * len(cu.types)
    totals = report.totals()
    out: dict[str, float] = {}
    for c, cid in enumerate(cu.ctors):
        if c < nfc:
            expected = totals[cid]
        else:
            expected = placeholders[cu.owner[c]] * foreign_probs[cid]
            out[cid] = expected
        for mode, target in cu.rows[c]:
            if mode == MODE_FOREIGN:
                placeholders[target] += expected
    report.per_foreign = dict(out)
    return out


def extinction_probability(u: ADTUniverse, probs: Mapping[str, float]) -> PopulationVector:
    """Probability that unbounded generation of each family type terminates.

    This is the least fixpoint of q(t) = sum over constructors C of t of
    p(C) * product of q(type(f)) over C's family-typed fields, with each
    type's probabilities renormalized to sum to 1. Foreign and ground fields
    always terminate and contribute factor 1.

    A type that cannot finish any value gets 0. The others are solved by
    decomposed Newton from 0 (Etessami & Yannakakis 2009): one strongly
    connected component of the graph their live constructors span at a
    time, bottom-up, each once the components below it are known.
    """
    cu = u.compiled
    nf, owner = cu.nfamily, cu.family_owner
    p = _family_probs(cu, [probs])[0]
    mass = np.bincount(owner, p, minlength=nf)[owner]
    p = np.divide(p, mass, out=np.zeros_like(p), where=mass > 0.0)
    counts = cu.counts[:cu.nfamily_ctors, :nf]
    # The types that can finish a value, as a least fixpoint; a constructor
    # is live when it has probability and every field's type can finish.
    finite = np.zeros(nf, dtype=bool)
    while True:
        live = (p > 0.0) & ~(counts[:, ~finite] > 0).any(axis=1)
        grown = np.bincount(owner[live], minlength=nf) > 0
        if (grown == finite).all():
            break
        finite = grown
    down = live_graph(cu, live)
    up = {t: [s for s in down if t in down[s]] for t in down}
    reach = [_reachable([t], down) for t in range(nf)]
    q = np.zeros(nf)
    solved = ~finite
    # A component below another reaches strictly fewer types, so sorting by
    # the size of the reached set puts every component after those below it.
    for t in sorted(np.flatnonzero(finite).tolist(), key=lambda t: len(reach[t])):
        if not solved[t]:
            comp = np.array(sorted(reach[t] & _reachable([t], up)))
            solved[comp] = True
            q[comp] = _extinction_component(p, counts, owner, live, q, comp)
    return PopulationVector(u.family, q)


def _extinction_component(p: np.ndarray, counts: np.ndarray, owner: np.ndarray,
                          live: np.ndarray, q: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """The least fixpoint on one strongly connected component ``comp`` of
    types that can all finish a value, given ``q`` on the types below it.

    When the component keeps all of its probability on live constructors,
    every field below it terminates surely, and its mean matrix has spectral
    radius at most 1 (up to ``EXTINCTION_RHO_SLACK`` for rounding), the
    process dies out surely (Harris 1963) and the result is exactly 1: there
    Newton's iterates would only approach 1 at one bit per step. Otherwise
    Newton from 0 rises monotonically to the least fixpoint, at the end
    quadratically. A 1x1 system is solved without a LAPACK call."""
    n = len(comp)
    local = np.full(len(q), -1)
    local[comp] = np.arange(n)
    mine = local[owner] >= 0
    rows = live & mine
    row_type = local[owner[rows]]
    inner = counts[rows][:, comp]
    below = counts[rows].copy()
    below[:, comp] = 0
    outer = np.prod(q ** below, axis=1)
    a = (p[rows] * outer)[:, None]
    if not (mine & (p > 0.0) & ~live).any() and (outer == 1.0).all():
        means = np.zeros((n, n))
        np.add.at(means, row_type, a * inner)
        rho = means[0, 0] if n == 1 else np.abs(np.linalg.eigvals(means)).max()
        if rho <= 1.0 + EXTINCTION_RHO_SLACK:
            return np.ones(n)
    # parts[c, s] is constructor c's monomial with x_s^k replaced by its
    # derivative k x_s^(k-1), which is 0 where k = 0; parts[c, n] is the
    # monomial itself. Summed per type, they give the Jacobian and f(x).
    dec = np.maximum(inner - 1, 0)
    diag = np.arange(n)
    eye = np.eye(n)
    x = np.zeros(n)
    for _ in range(EXTINCTION_MAX_ITER):
        parts = np.repeat((x ** inner)[:, None, :], n + 1, axis=1)
        parts[:, diag, diag] = inner * x ** dec
        sums = np.zeros((n, n + 1))
        np.add.at(sums, row_type, a * parts.prod(axis=2))
        lhs, rhs = eye - sums[:, :n], sums[:, n] - x
        step = rhs / lhs[0] if n == 1 else np.linalg.solve(lhs, rhs)
        x = np.minimum(x + step, 1.0)
        if np.abs(step).max() <= EXTINCTION_TOL:
            break
    return x


def prediction_report_json(u: ADTUniverse, probs: Mapping[str, float], size: int,
                           foreign_probs: Mapping[str, float] | None = None) -> dict:
    """Assemble the full report document: expected totals, last-level terms,
    foreign expectations, and per-type extinction probabilities. Raises
    AdtError when an expectation overflows a double, which JSON cannot hold."""
    report = predict_constructors(u, probs, size)
    foreign = predict_foreign(u, report, foreign_probs)
    expected = {cid: e.total for cid, e in sorted(report.per_constructor.items())}
    last = {cid: e.last_level for cid, e in sorted(report.per_constructor.items())}
    if not np.isfinite([*expected.values(), *last.values(), *foreign.values()]).all():
        raise AdtError(f"expected constructor counts at size {size} overflow a double")
    extinction = extinction_probability(u, probs)
    return {
        "size": size,
        "expected": expected,
        "lastLevel": last,
        "foreign": dict(sorted(foreign.items())),
        "extinction": {tid: extinction.get(tid) for tid in u.family},
    }
