"""Expected constructor counts for size-bounded generators.

The generator run at size n is modelled as a multi-type branching process
over the root's family: level k of a generated value is the process's k-th
generation. With the offspring mean matrix M and initial vector g0, the
expected generation is g0'·M^k and the expected population up to level k is
the running sum of those terms. Terminal constructors get an extra
last-level term because the final level can only draw terminals: by p
renormalized within each type's terminal set (``predict_constructors``), or
by a schedule's final row after its levels (``predict_schedule``). Both run
on one engine, ``Process``, as do the cost functions' scorers.

Everything here reads ``u.compiled``, built once per universe and shared
with the samplers, and sums in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .adt import (
    MODE_FOREIGN,
    ADTUniverse,
    AdtError,
    CompiledUniverse,
    _live_fixpoint,
    _reachable,
    as_integer,
    flat_bins,
    live_graph,
    read_probabilities,
    require_terminals,
    warn_probability,
)

LEVEL_LOOP_MAX = 128            # above this many levels, _level_sums doubles
DOUBLING_ROW_EXP = 500          # the doubling's block rows stay below 2^this
_LDEXP_CLIP = 1 << 20
EXTINCTION_TOL = 1e-15          # Newton stops once no entry moves more than this
EXTINCTION_MAX_ITER = 300
EXTINCTION_RHO_SLACK = 1e-12    # sure extinction below spectral radius 1 + this
LOG_ZERO = -1e3                 # log 0 in the extinction solve; exp(-745) is 0.0


def _family_probs(cu: CompiledUniverse, probs: Mapping[str, float]) -> np.ndarray:
    """The family constructors' probabilities in ``probs`` as one row,
    checked by ``read_probabilities``."""
    return np.array([read_probabilities(probs, cu.ctors[:cu.nfamily_ctors])])


def _foreign_weights(cu: CompiledUniverse, probs: Mapping[str, float] | None) -> list[float]:
    """The foreign constructors' probabilities in the map ``probs``, type
    by type: a type it names by its entries, checked by
    ``read_probabilities`` (so a type named in part is an ``AdtError``),
    and a type it does not name (or None) uniform."""
    probs = probs or {}
    out: list[float] = []
    for s in cu.slices[cu.nfamily:]:
        ctors = cu.ctors[s]
        out += (read_probabilities(probs, ctors) if any(c in probs for c in ctors)
                else [1.0 / len(ctors)] * len(ctors))
    return out


def _type_matrices(cu: CompiledUniverse, p: np.ndarray) -> np.ndarray:
    """One type mean matrix per row of ``p``, by ``_rank_sum``."""
    return _rank_sum(p.take(cu.type_cols, axis=1), cu.type_counts)


def _rank_sum(q: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Type mean matrix rows from spawning probabilities ``q`` (..., rank)
    and field counts ``counts`` (..., rank, type), summed rank by rank, so
    each cell gets 0.0 + a0 + a1 + ... in declaration order. A terminal's
    term and a pad's are p * 0, that is 0.0 or -0.0, and adding either
    leaves a sum that starts at 0.0 unchanged, so both are left out."""
    prod = q[..., None] * counts
    m = np.zeros(prod.shape[:-2] + prod.shape[-1:])
    for j in range(prod.shape[-2]):
        m += prod[..., j, :]
    return m


def _level_sums(v: np.ndarray, m: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Generation n, v·M^n, and the population up to it, sum(k=0..n) v·M^k.
    ``v`` may be one row vector or a stack of them, each with its own matrix.

    Up to ``LEVEL_LOOP_MAX`` levels this takes n successive vector-matrix
    products. On a stack of 1x1 matrices (a one-type family's batch) that
    loop is one running product, sequential as the loop is, so the bits
    are the loop's: ``np.multiply.accumulate`` over v, m, ..., m gives the
    generations and ``np.add.accumulate`` of those the populations. Above
    it, it raises B = [[M, I], [0, I]] to the n-th power by
    repeated squaring, since B^n = [[M^n, sum(k<n) M^k], [0, I]]: O(log n)
    products on the blocks. Neither inverts (I - M), so the singular,
    critical case needs no special treatment. The doubling first zeroes the
    rows of M whose types ``v`` never reaches: their powers may overflow,
    and 0 * inf is nan where the loop only ever adds exact zeros. A reached
    type's powers may still pass a double where ``v`` times them, smaller by
    the probability of reaching it, does not; so once a block entry reaches
    2^``DOUBLING_ROW_EXP``, the blocks are kept row by row as a power of two
    times rows below it, and the power is applied to ``v`` before each
    product (see ``_shrink_rows``).
    """
    if n <= LEVEL_LOOP_MAX:
        if m.shape[-1] == 1 and m.ndim == v.ndim == 3:
            # row i is v_i, m_i, ..., m_i: a 1x1 product is one
            # multiplication, no sum
            levels = np.empty((len(v), n + 1))
            levels[:, :1] = v[:, 0]
            levels[:, 1:] = m[:, 0]
            np.multiply.accumulate(levels, axis=1, out=levels)
            return levels[:, -1:, None], np.add.accumulate(levels, axis=1)[:, -1:, None]
        pop = v.copy()
        for _ in range(n):
            v = v @ m
            pop += v
        return v, pop
    edges, seen = m > 0.0, v > 0.0
    for _ in range(m.shape[-1]):
        seen = seen | (seen @ edges)
    m = np.where(np.swapaxes(np.atleast_2d(seen), -1, -2), m, 0.0)
    # [g, s] times B^(2^j) = [[a, c], [0, I]], for each bit j set in n. The
    # plain powers serve while no entry of the blocks can reach ``limit``: a
    # squaring takes a cap b on their entries to k b^2 + b, and only a cap
    # past ``limit`` is checked against the blocks themselves.
    k, limit = m.shape[-1], 2.0 ** DOUBLING_ROW_EXP
    g, s = v, np.zeros_like(v)
    a, c = m, np.broadcast_to(np.eye(k), m.shape)
    bound = np.inf
    while True:
        if n & 1:
            g, s = g @ a, g @ c + s
        n >>= 1
        if not n:
            return g, s + g
        if bound >= limit:
            bound = float(np.maximum(a, c).max(initial=0.0))
            if bound >= limit:
                break
        a, c = a @ a, a @ c + c
        bound = k * bound * bound + bound
    # From here the blocks are [[2^r a, 2^r c], [0, I]], where 2^r scales
    # row i by 2^r[i]. A squaring is 2^r a 2^r [a, c] + [0, 2^r c], row i
    # over 2^(r[i] + h[i]); h keeps the entries of w below 2^DOUBLING_ROW_EXP.
    a, c, r = _shrink_rows(a, c, np.zeros(m.shape[:-1]))
    while True:
        _, e = np.frexp(a)
        top = np.where(a > 0.0, e + r[..., None, :], -np.inf).max(axis=-1, initial=-np.inf)
        h = np.maximum(top - DOUBLING_ROW_EXP, 0.0)
        w = _ldexp(a, r[..., None, :] - h[..., :, None])
        a, c, r = _shrink_rows(w @ a, w @ c + _ldexp(c, -h[..., :, None]), r + h)
        if n & 1:
            w = _ldexp(g, r.reshape(g.shape))
            g, s = w @ a, w @ c + s
        n >>= 1
        if not n:
            return g, s + g


def _shrink_rows(a: np.ndarray, c: np.ndarray, r: np.ndarray):
    """``a`` and ``c`` with every row whose largest entry in either reaches
    2^``DOUBLING_ROW_EXP`` divided by a power of two to below it, and the row
    exponents ``r`` raised by those powers. A row already scaled is
    multiplied back up to that range, or to exponent 0, so a scaled row
    times its power never overflows where their true product does not.
    Rows of exponent 0 below the range are left as they are, so a doubling
    that never comes near overflow runs on the same bits as one without
    scaling, and every scaling is exact up to underflow."""
    _, top = np.frexp(np.maximum(a.max(axis=-1), c.max(axis=-1)))
    d = np.maximum(top - DOUBLING_ROW_EXP, -r)
    return _ldexp(a, -d[..., None]), _ldexp(c, -d[..., None]), r + d


def _ldexp(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x * 2^e for integral float exponents e. Past 2^20 either way every
    nonzero finite double over- or underflows, so e is clipped there."""
    return np.ldexp(x, np.clip(e, -_LDEXP_CLIP, _LDEXP_CLIP).astype(np.int32))


def _scatter(bins: np.ndarray, weights: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A scatter-add of ``weights`` into zeros of ``shape`` as one
    ``np.bincount``: entry k of ``weights``, in C order, goes to cell bins[k]
    of the row-major array, and ``bins`` has one entry per weight. Each
    cell adds its weights in input order starting from 0.0, as numpy's
    unbuffered ``add.at`` does, so the two agree bit for bit."""
    sums = np.bincount(bins, weights.ravel(), shape[0] * shape[1])
    # with no weights at all, bincount returns integer zeros
    return sums.astype(float, copy=False).reshape(shape)


def _fill(cu: CompiledUniverse, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Placeholders of each family type at the final level, one row per row
    of ``p``, spawned by the non-terminal constructors present at level
    size-1 (``v``, one row of type expectations per row of ``p``)."""
    weights = (v.take(cu.family_owner, axis=1) * p).take(cu.pair_ctor, axis=1)
    return _scatter(cu.fill_bins(len(p)), weights, (len(p), cu.nfamily))


def _terminal_mass(cu: CompiledUniverse, p: np.ndarray) -> np.ndarray:
    """Each family type's probability on its terminals, one row per row of
    ``p``."""
    return _scatter(cu.mass_bins(len(p)), p.take(cu.terminal_cols, axis=1),
                    (len(p), cu.nfamily))


def star_probs(u: ADTUniverse, probs: Mapping[str, float]) -> dict[str, float]:
    """Per-type renormalized terminal probabilities, used when the remaining
    size is zero: p*(C) = p(C) / sum of p over the type's terminals.

    A family type with no terminal constructor cannot terminate and is
    reported as an error. When a live type's terminals all carry zero
    probability the distribution falls back to uniform over its terminals
    (with a warning): the generator must still be able to stop.
    """
    cu = u.compiled
    process = Process(u, 0)  # checks the terminals first
    stars = process.stars(_family_probs(cu, probs))[0].tolist()
    process.warn()
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

    def totals(self) -> dict[str, float]:
        return {cid: e.total for cid, e in self.per_constructor.items()}


def _check_size(size: int) -> int:
    return as_integer(size, "size must be a positive integer", 1)


class Process:
    """The prediction engine: ``u``'s branching process run for ``levels``
    levels, then a final level that draws only terminals, over every family
    constructor, one row per map. What does not change between calls is
    done once, here: the terminal check, the star pad (see ``stars``), and
    the root's start rows (kept for the largest batch served). It keeps no
    state of a search: a caller that scores one map's neighbors passes
    that map's row (see ``matrices``). Each row is computed as in a batch
    of one.

    A type with probability mass left but none on its terminals falls back
    to uniform terminals on the final level. ``stars`` records where that
    happens, and the caller warns (see ``warn``) for the rows it keeps, the
    first time each type starves in this engine: ``warned`` holds the types
    already warned about.

    Callers run it under ``np.errstate(over="ignore", invalid="ignore")``:
    a count that overflows a double reads inf or nan, without a numpy
    RuntimeWarning, and callers that must print it reject it."""

    def __init__(self, u: ADTUniverse, levels: int):
        self.cu = cu = u.compiled
        require_terminals(cu)
        self.levels = levels
        # added to a column's terminal mass: p / inf is 0 off the terminals
        self.pad = np.where(cu.family_terminal, 0.0, np.inf)
        self.root = cu.root
        self.start = np.empty((0, 1, cu.nfamily))
        self.starved: list[list[int]] = []
        self.warned: set[int] = set()

    def matrices(self, p: np.ndarray, types: np.ndarray | None = None,
                 focus: np.ndarray | None = None) -> np.ndarray:
        """The type mean matrix of each row of ``p``.

        With ``types``, row i of ``p`` agrees with the family row ``focus``
        outside the constructors of family type types[i] (an index of
        nfamily or more changes none of them), so only that type's row is
        summed, by ``_rank_sum`` as in ``_type_matrices``, into a copy of
        the focus's matrix: the result is the same bit for bit."""
        cu = self.cu
        if types is None:
            return _type_matrices(cu, p)
        m = _type_matrices(cu, focus[None]).repeat(len(p), axis=0)
        rows = np.flatnonzero(types < cu.nfamily)
        t = types[rows]
        m[rows, t] = _rank_sum(p[rows[:, None], cu.type_cols[t]], cu.type_counts[t])
        return m

    def stars(self, p: np.ndarray) -> np.ndarray:
        """p*, one row per row of ``p``, zero for non-terminals; a starved
        type falls back to uniform terminals, and ``starved`` lists its
        (row, type) pairs in row order, without a warning: a search scores
        rows it may never reach, and warns only for those it does (see
        ``warn``). A type with no mass at all is the dead-type form and is
        not listed.

        When every type has terminal mass, p* is one division by the
        column's terminal mass plus ``pad``, which is 0 at a terminal and
        inf elsewhere, where p / inf is +0.0; otherwise by the mass where
        a terminal has some and inf where not, then the fallback. The two
        divisors are equal wherever both apply, so the bits are too."""
        cu = self.cu
        owner, terminal = cu.family_owner, cu.family_terminal
        mass = _terminal_mass(cu, p)
        own_mass = mass.take(owner, axis=1)
        if mass.all():
            self.starved = []
            return p / (own_mass + self.pad)
        stars = p / np.where(terminal & (own_mass > 0.0), own_mass, np.inf)
        starved = mass == 0.0
        # a starved type's mass, if any, is on its spawning constructors;
        # the pads of a type with none read one of its zero terminals
        live_types = (p.take(cu.type_cols, axis=1) > 0.0).any(axis=2)
        self.starved = np.argwhere(starved & live_types).tolist()
        fallback = terminal & starved.take(owner, axis=1)
        stars[fallback] = np.broadcast_to(1.0 / cu.terminal_count[owner], stars.shape)[fallback]
        return stars

    def warn(self, rows: Iterable[int] | None = None) -> None:
        """Warn about each type that starves in ``rows`` (all, if None) of
        the last ``stars`` call, in row order, the first time it does in
        this engine."""
        kept = None if rows is None or not self.starved else set(rows)
        for row, t in self.starved:
            if (kept is None or row in kept) and t not in self.warned:
                self.warned.add(t)
                warn_probability(
                    f"all terminal constructors of {self.cu.types[t]} have probability 0; "
                    "using a uniform terminal distribution at the last level")

    def counts(self, p: np.ndarray, stars: np.ndarray, types: np.ndarray | None = None,
               focus: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Expected branching and last-level counts of the family
        constructors, one row per row of ``p``: the root draws by ``p`` on
        the levels (type matrices from ``matrices(p, types, focus)``), then
        by ``stars`` on the final level."""
        cu = self.cu
        if len(self.start) < len(p):
            self.start = np.zeros((len(p), 1, cu.nfamily))
            self.start[:, 0, self.root] = 1.0
        # One row vector per map: (maps, 1, types), so each level is one
        # stacked vector-matrix product.
        v = self.start[:len(p)]
        if self.levels:
            v, pop = _level_sums(v, self.matrices(p, types, focus), self.levels - 1)
            v, pop = v[:, 0], pop[:, 0]
            branching = pop.take(cu.family_owner, axis=1) * p
            fill = _fill(cu, v, p)
        else:  # the root alone, on the final level
            branching, fill = np.zeros_like(stars), v[:, 0]
        last = stars * fill.take(cu.family_owner, axis=1)
        return branching, np.where(cu.family_terminal, last, 0.0)


def predict_constructors(u: ADTUniverse, probs: Mapping[str, float],
                         size: int) -> PredictionReport:
    """Expected constructor counts for a run at the given size.

    Non-terminal C of type T: population of T-placeholders up to level
    size-1, times p(C). Terminal C adds the last-level fill: p*(C) times
    the placeholders of T spawned into level `size` by the non-terminals
    at level size-1. Constructor expectations are derived from type-level
    quantities; the result agrees with the direct constructor-matrix
    computation.
    """
    size = _check_size(size)
    process = Process(u, size)
    p = _family_probs(process.cu, probs)
    with np.errstate(over="ignore", invalid="ignore"):
        stars = process.stars(p)
        process.warn()
        branching, last = process.counts(p, stars)
    report = {cid: ConstructorExpectation(b, l)
              for cid, b, l in zip(u.compiled.ctors, branching[0].tolist(), last[0].tolist())}
    return PredictionReport(size, report)


@np.errstate(over="ignore", invalid="ignore")
def predict_schedule(u: ADTUniverse, schedule) -> dict[str, float]:
    """Expected count of every constructor, foreign ones too, under a
    size-bounded ``spec.Schedule``: the engine on its rows, run for its
    levels, then its final row on the final level. A schedule with no final
    level (derive's) is an ``AdtError``: its process is unbounded, and this
    model does not cover it."""
    if schedule.levels is None:
        raise AdtError("verify compares against the prediction model, which covers "
                       "the size-bounded strategies (dragen, megadeth)")
    cu, nfc = u.compiled, u.compiled.nfamily_ctors
    process = Process(u, schedule.levels)
    branching, last = process.counts(np.array([schedule.rows[:nfc]]),
                                     np.array([schedule.final[:nfc]]))
    report = PredictionReport(schedule.levels, dict(zip(cu.ctors, map(
        ConstructorExpectation, branching[0].tolist(), last[0].tolist()))))
    foreign = predict_foreign(u, report, dict(zip(cu.ctors[nfc:], schedule.rows[nfc:])))
    return {**report.totals(), **foreign}


def predict_foreign(u: ADTUniverse, report: PredictionReport,
                    probs: Mapping[str, float] | None = None) -> dict[str, float]:
    """Expected counts of foreign constructors, propagated through the
    acyclic foreign types: each expected parent contributes its field
    multiplicities, and each value of a foreign type splits among that
    type's constructors by their probabilities in the map ``probs``, by
    ``_foreign_weights``' rule (uniform where it names none)."""
    cu = u.compiled
    nfc = cu.nfamily_ctors
    foreign = _foreign_weights(cu, probs)

    # Types are in topological order, so each foreign type has all of its
    # placeholders before its own constructors are reached.
    placeholders = [0.0] * len(cu.types)
    totals = report.totals()
    out: dict[str, float] = {}
    for c, cid in enumerate(cu.ctors):
        if c < nfc:
            expected = totals[cid]
        else:
            expected = placeholders[cu.owner[c]] * foreign[c - nfc]
            out[cid] = expected
        for mode, target in cu.rows[c]:
            if mode == MODE_FOREIGN:
                placeholders[target] += expected
    return out


def extinction_probability(u: ADTUniverse, probs: Mapping[str, float]) -> dict[str, float]:
    """Probability that unbounded generation of each family type terminates,
    by type id in ``u.family`` order.

    This is the least fixpoint of q(t) = sum over constructors C of t of
    p(C) * product of q(type(f)) over C's family-typed fields, with each
    type's probabilities renormalized to sum to 1. Foreign and ground fields
    always terminate and contribute factor 1.

    A type that cannot finish any value gets 0; the types that can are
    ``_live_fixpoint``'s least fixpoint, run from no type over the
    constructors with probability. The others are solved by
    decomposed Newton (Etessami & Yannakakis 2009): one strongly connected
    component of the graph their live constructors span at a time,
    bottom-up, each once the components below it are known. The solve runs
    on the complements 1 - q, which keep their relative precision near 1;
    a small q is then exact to about 1e-16 absolute, not relative.
    """
    cu = u.compiled
    nf, owner = cu.nfamily, cu.family_owner
    p = _family_probs(cu, probs)[0]
    mass = np.bincount(owner, p, minlength=nf)[owner]
    p = np.divide(p, mass, out=np.zeros_like(p), where=mass > 0.0)
    counts = cu.counts[:cu.nfamily_ctors, :nf]
    # the constructors with probability whose fields' types can all finish
    live, finite = _live_fixpoint(cu, p > 0.0, np.zeros(nf, dtype=bool))
    down = live_graph(cu, live)
    up: dict[int, list[int]] = {t: [] for t in down}
    for s, targets in down.items():
        for t in targets:
            up[t].append(s)
    # Each component once, from its first member: the types it reaches that
    # reach it back, with the number of types it reaches
    comps = []
    found = ~finite
    for t in np.flatnonzero(finite).tolist():
        if not found[t]:
            reach = _reachable([t], down)
            comp = np.array(sorted(reach & _reachable([t], up)))
            found[comp] = True
            comps.append((len(reach), comp))
    # A component below another reaches strictly fewer types, so sorting by
    # the size of the reached set puts every component after those below it.
    y = np.ones(nf)             # 1 - q
    for _, comp in sorted(comps, key=lambda c: c[0]):
        y[comp] = _extinction_component(p, counts, owner, y, comp)
    return dict(zip(u.family, (1.0 - y).tolist()))


@np.errstate(divide="ignore")
def _extinction_component(p: np.ndarray, counts: np.ndarray, owner: np.ndarray,
                          y: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """1 - q on one strongly connected component ``comp`` of types that can
    all finish a value, given ``y`` = 1 - q on the types below it (1 on the
    types that cannot finish).

    When every constructor of the component with probability has only
    fields that terminate surely below it, and its mean matrix M has
    spectral radius at most s = 1 + ``EXTINCTION_RHO_SLACK`` (the slack
    absorbs rounding in M), the process dies out surely (Harris 1963) and
    the result is exactly 0: there Newton's iterates would only approach it
    at one bit per step. The radius is tested by one linear solve, not an
    eigendecomposition: for nonnegative M it is below s exactly when
    (sI - M) x = 1 has a solution with every entry positive (Berman &
    Plemmons 1979, ch. 6: Collatz-Wielandt gives one direction, the Neumann
    series the other), and a singular sI - M, an eigenvalue equal to s,
    counts as sure too. The solve is LAPACK's ``dgesv``, which Newton's
    steps call anyway. Otherwise
    Newton runs on y = 1 - f(1 - y) from y = 1, falling monotonically to the
    answer, at the end quadratically. Each type's 1 - f is summed term by
    term, as sum over C of p(C) * (1 - product over its fields of (1 - y)),
    with the products in logarithms by ``log1p`` and the complements by
    ``expm1``: the residual then keeps its relative precision however close
    q is to 1. The Jacobian comes from the same logarithms, since the
    derivative of a monomial in x_s is k_s times the monomial over x_s. The
    log of x = 0 is ``LOG_ZERO``, below the log of every positive double, so
    that a monomial holding it is 0.0. A 1x1 component is tested, and its
    system solved, without a LAPACK call."""
    n = len(comp)
    local = np.full(len(y), -1)
    local[comp] = np.arange(n)
    rows = (local[owner] >= 0) & (p > 0.0)
    pr, row_type = p[rows], local[owner[rows]]
    below = counts[rows].astype(float)
    inner = below[:, comp]
    below[:, comp] = 0.0
    # log of each constructor's product over its fields below the component:
    # 0 where they all terminate surely, LOG_ZERO or less where one cannot
    log_outer = below @ np.maximum(np.log1p(-y), LOG_ZERO)
    coef = pr[:, None] * inner
    if not log_outer.any():
        means = _scatter(flat_bins(row_type, np.arange(n), n), coef, (n, n))
        s = 1.0 + EXTINCTION_RHO_SLACK
        if n == 1:
            sure = means[0, 0] <= s
        else:
            try:
                sure = (np.linalg.solve(s * np.eye(n) - means, np.ones(n)) > 0.0).all()
            except np.linalg.LinAlgError:  # an eigenvalue equal to s
                sure = True
        if sure:
            return np.zeros(n)
    # Per constructor: columns 0..n-1 its monomial's derivatives, summed per
    # type into the Jacobian, and column n its complement, summed into 1 - f.
    bins = flat_bins(row_type, np.arange(n + 1), n + 1)
    weights = np.empty((len(pr), n + 1))
    eye = np.eye(n)
    yc = np.ones(n)
    for _ in range(EXTINCTION_MAX_ITER):
        logs = np.maximum(np.log1p(-yc), LOG_ZERO)
        mono = log_outer + inner @ logs
        # d/dx_s of the monomial is k_s * monomial / x_s, whose log is at
        # most 0 wherever k_s > 0; the cap keeps the k_s = 0 terms finite
        weights[:, :n] = coef * np.exp(np.minimum(mono[:, None] - logs, 0.0))
        weights[:, n] = pr * -np.expm1(mono)
        sums = _scatter(bins, weights, (n, n + 1))
        lhs, rhs = eye - sums[:, :n], sums[:, n] - yc
        step = rhs / lhs[0] if n == 1 else np.linalg.solve(lhs, rhs)
        # renormalized probabilities may sum to 1 + 2^-52, which would push
        # a type whose row of the Jacobian is 0 at y = 1 just above 1
        yc = np.clip(yc + step, 0.0, 1.0)
        if np.abs(step).max() <= EXTINCTION_TOL:
            break
    return yc


def prediction_report_json(u: ADTUniverse, probs: Mapping[str, float], size: int) -> dict:
    """Assemble the full report document of the map ``probs``: expected
    totals, last-level terms, foreign expectations, and per-type extinction
    probabilities. Raises AdtError when an expectation overflows a double,
    which JSON cannot hold."""
    report = predict_constructors(u, probs, size)
    foreign = predict_foreign(u, report, probs)
    expected = {cid: e.total for cid, e in sorted(report.per_constructor.items())}
    last = {cid: e.last_level for cid, e in sorted(report.per_constructor.items())}
    if not np.isfinite([*expected.values(), *last.values(), *foreign.values()]).all():
        raise AdtError(f"expected constructor counts at size {size} overflow a double")
    return {
        "size": report.size,
        "expected": expected,
        "lastLevel": last,
        "foreign": dict(sorted(foreign.items())),
        "extinction": extinction_probability(u, probs),
    }
