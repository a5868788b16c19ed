"""Greedy local search over per-type probability simplices.

Neighbors of a probability map bump one constructor by +delta or -delta
(clamped at 0) and renormalize that constructor's type over its unpinned
constructors. The search repeatedly moves to the cheapest not-yet-visited
neighbor while each move improves the cost by more than epsilon. A map is
visited when its probabilities, rounded to multiples of ``QUANTUM``, match
a visited map's; a step must be at least ``QUANTUM``, or every neighbor
would round to the map it leaves.

The search mostly repeats its last move, so each pass of its one loop
builds up to ``BATCH_ROWS`` candidates: those of the focus, and those of
the maps that repeating the last accepted move reaches (a Hooke-Jeeves
pattern move, used only to choose what to build early). A stock cost scores
them in one scorer call; an opaque cost is called on each map as the search
keeps it. The steps are then taken one at a time, as if each had been
scored alone. The search reads a block only when it accepted the repeated
move and that row has the bytes of the block's focus, so the path, the
visited set, the evaluation count and the warnings are those of a search
that scores one step per call; a guess that misses costs time only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .adt import (
    ADTUniverse,
    AdtError,
    as_integer,
    is_number,
    read_probabilities,
    renormalize_probmap,
    uniform_probmap,
)
from .costs import CostFunction, Scorer
from .prediction import _family_probs
from .spec import STRATEGY_DRAGEN, GenSpec, adhoc_genspec  # GenSpec is re-exported from here

LOCAL_MINIMUM = "LocalMinimum"
EPSILON_STOP = "EpsilonStop"
STEP_CAP = "StepCap"

QUANTUM = 1e-6  # the grid on which visited maps are told apart
BATCH_ROWS = 64  # a search scores up to this many candidates in one call


def _check_delta(delta: float) -> None:
    if not (is_number(delta) and QUANTUM <= delta < 1.0):
        raise AdtError(f"delta must be in [{QUANTUM:g}, 1), got {delta!r}")


@dataclass(frozen=True)
class SearchConfig:
    delta: float = 0.01
    epsilon: float = 1e-6
    max_steps: int = 10_000

    def __post_init__(self):
        _check_delta(self.delta)
        if not (is_number(self.epsilon) and 0.0 < self.epsilon < math.inf):
            raise AdtError("epsilon must be positive and finite")
        as_integer(self.max_steps, "max_steps must be an integer of at least 1", 1)


@dataclass
class SearchTrace:
    """Accepted (probmap, cost) path and why the search stopped.

    Outcomes: LocalMinimum when no unvisited neighbor exists or none
    improves the cost; EpsilonStop when the best improvement was positive
    but at most epsilon; StepCap when max_steps moves were taken.
    """

    steps: list[tuple[dict[str, float], float]]
    outcome: str
    evaluations: int = 0


class _Rows:
    """Probability maps over one key set as float rows, one column per key
    in sorted-id order, then a pad column that is zero in every row. A
    search step bumps every unpinned column by +delta and then by -delta:
    its k candidates, one per move, are built as one matrix, and a dict is
    made only for a row that leaves the search. The tables serve up to
    ``depth`` foci at once, ``BATCH_ROWS`` // k of them (at least one).
    With no unpinned column there is no move, and no candidate."""

    def __init__(self, u: ADTUniverse, keys: Iterable[str],
                 pinned: frozenset[str] | set[str], delta: float):
        self.keys = tuple(keys)
        # every constructor of a keyed type: one that is not a key is
        # missing, and ``row`` rejects it
        self.order = tuple(sorted({c for t in {u.ctor_type(k) for k in self.keys}
                                   for c in u.constructors_of(t)}))
        self.column = {cid: i for i, cid in enumerate(self.order)}
        self.to_keys = np.array([self.column[k] for k in self.keys], dtype=np.intp)
        n = len(self.order)
        types = [u.ctor_type(cid) for cid in self.order]
        free: dict[str, list[int]] = {}
        for i, cid in enumerate(self.order):
            if cid not in pinned:
                free.setdefault(types[i], []).append(i)
        bumped = [i for i, cid in enumerate(self.order) if cid not in pinned]
        # two moves per bumped column, +delta then -delta: each one's column
        self.bumped = np.repeat(np.array(bumped, dtype=np.intp), 2)
        k = 2 * len(bumped)
        self.depth = max(1, BATCH_ROWS // k) if k else 1
        # for ``chain``, each move's place among its column's free siblings
        # (itself included), its shift, those siblings, and their cells in
        # rows 1 to depth - 1 of a row matrix; a search of depth 1 never
        # chains
        self.moves = []
        if self.depth > 1:
            below = np.arange(1, self.depth)[:, None] * (n + 1)
            cells = {t: (np.array(cols, dtype=np.intp), (below + cols).ravel())
                     for t, cols in free.items()}
            self.moves = [(free[types[i]].index(i), d, *cells[types[i]])
                          for i in bumped for d in (delta, -delta)]
        width = max(map(len, free.values()), default=0)
        # the siblings padded with the pad column n, one row per move
        padded = [free[types[i]] + [n] * (width - len(free[types[i]])) for i in bumped]
        siblings = np.repeat(np.array(padded, dtype=np.intp).reshape(len(bumped), width),
                             2, axis=0)
        # per candidate of ``depth`` blocks of k: its shift, and the cells it
        # writes, as flat indices into the candidate matrix, for ``take``
        # and ``put``
        at = np.arange(self.depth * k)
        self.shift = np.tile([delta, -delta], self.depth * len(bumped))
        self.flat_bumped = at * (n + 1) + np.tile(self.bumped, self.depth)
        self.flat_siblings = at[:, None] * (n + 1) + np.tile(siblings, (self.depth, 1))
        # each candidate's move, and where each block ends
        self.candidate_moves = np.tile(np.arange(k), self.depth)
        self.ends = np.arange(1, self.depth + 1) * k
        # a row's bytes as one void scalar, for ``quantized``
        self.row_bytes = np.dtype((np.void, (n + 1) * np.dtype(float).itemsize))

    def row(self, probs: Mapping[str, float]) -> np.ndarray:
        return np.array([*read_probabilities(probs, self.order), 0.0])

    def quantized(self, rows: np.ndarray) -> list[bytes]:
        """Each row's key: round(p / QUANTUM) per entry, half to even as
        ``round`` does, as bytes (+ 0.0 folds -0.0 into 0.0)."""
        keys = np.rint(rows / QUANTUM) + 0.0
        # one void scalar per row, which ``tolist`` gives as its bytes
        return keys.view(self.row_bytes).ravel().tolist()

    def as_dict(self, row: np.ndarray) -> dict[str, float]:
        return dict(zip(self.keys, row.take(self.to_keys).tolist()))

    def chain(self, x: np.ndarray, move: int, m: int) -> np.ndarray:
        """``x`` and the maps that repeating ``move`` from it reaches, up to
        m rows, each the candidate that ``candidates`` builds for ``move``
        from the row before, bit for bit: the same clamp, total summed left
        to right and divisions, in Python floats. A dead candidate ends it."""
        at, shift, siblings, cells = self.moves[move]
        entries = x.take(siblings).tolist()
        written: list[float] = []
        for f in range(1, m):
            entries[at] = max(entries[at] + shift, 0.0)
            total = entries[0]
            for e in entries[1:]:
                total += e
            if not total > 0.0:
                m = f
                break
            entries = [e / total for e in entries]
            written += entries
        foci = np.empty((m, len(x)))
        foci[:] = x
        foci.put(cells[:len(written)], written)
        return foci

    def candidates(self, foci: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                     list[bytes]]:
        """The candidates one step from each row of ``foci``, one block per
        focus, each in enumeration order; each one's move, the end of each
        block, and their keys (see ``quantized``).

        A candidate sets the bumped entry to max(0, p ± delta) and divides
        the bumped type's free entries by their total, which is summed left
        to right in column order (as ``sum`` does), so every value equals
        the one-map-at-a-time arithmetic bit for bit. A candidate whose
        total is not positive is dead, and skipped."""
        m, k = len(foci), len(self.bumped)
        if not k:
            return np.empty((0, foci.shape[1])), self.bumped, np.zeros(m, dtype=np.intp), []
        end = m * k
        rows = foci.repeat(k, axis=0)
        # p is finite and at least 0, and 0 < delta < 1, so p - delta is
        # never -0.0 and the clamp gives what where(p ± delta > 0, ..., 0) does
        rows.put(self.flat_bumped[:end], np.maximum(
            foci.take(self.bumped, axis=1).ravel() + self.shift[:end], 0.0))
        flat_siblings = self.flat_siblings[:end]
        entries = rows.take(flat_siblings)
        # a cumulative sum adds sequentially; the zero padding leaves a
        # total unchanged
        total = np.add.accumulate(entries, axis=1)[:, -1:]
        if total.min() > 0.0:
            rows.put(flat_siblings, entries / total)
            return rows, self.candidate_moves[:end], self.ends[:m], self.quantized(rows)
        # a dead candidate's entries are all 0, and stay 0 until dropped
        live = total[:, 0] > 0.0
        rows.put(flat_siblings, entries / np.where(live[:, None], total, 1.0))
        rows, position = rows.compress(live, axis=0), np.flatnonzero(live)
        return rows, position % k, np.searchsorted(position, self.ends[:m]), self.quantized(rows)


def _unseen(keys: list[bytes], lo: int, hi: int, seen: set[bytes]) -> list[int]:
    """The rows from ``lo`` to ``hi`` whose keys are not in ``seen``, nor an
    earlier row's; their keys join ``seen``."""
    new = []
    for i, key in enumerate(keys[lo:hi], lo):
        if key not in seen:
            seen.add(key)
            new.append(i)
    return new


def neighbors(u: ADTUniverse, probs: Mapping[str, float], delta: float,
              pinned: frozenset[str] | set[str] = frozenset()) -> list[dict[str, float]]:
    """Candidate probability maps one delta-step away.

    Constructors are bumped in sorted-id order, +delta before -delta, so
    the returned order is deterministic; candidates that quantize to the
    focus map or to an earlier candidate are dropped. Each map has the key
    order of ``probs``.
    """
    _check_delta(delta)
    rows = _Rows(u, probs, pinned, delta)
    x = rows.row(probs)[None]
    candidates, _, _, keys = rows.candidates(x)
    return [rows.as_dict(candidates[i])
            for i in _unseen(keys, 0, len(keys), set(rows.quantized(x)))]


def optimize(cost: CostFunction, size: int, init: Mapping[str, float],
             config: SearchConfig | None = None) -> tuple[dict[str, float], SearchTrace]:
    """Best-improvement descent from ``init`` under ``cost``'s constraints.

    Every evaluated neighbor joins the visited set (keyed by its quantized
    probabilities), so no map is scored twice; ties between equally cheap
    neighbors resolve to the first in enumeration order. The search runs on
    rows (see ``_Rows``), under one ``np.errstate`` that ignores overflow
    and invalid results, so a cost that overflows reads inf or nan. Returns
    the best map found and the trace of accepted steps, whose maps have the
    key order of ``init``.

    Each pass of the loop builds the candidates of up to ``_Rows.depth``
    foci: the focus, and the maps that repeating the last accepted move
    reaches (see ``_Rows.chain``), as far as the step cap allows. A cost
    whose ``__call__`` is ``CostFunction``'s scores them all in one call of
    one ``Scorer`` per run; a pass of one focus names each candidate's
    bumped type, so only that type's row of the focus map's type matrix is
    rebuilt, and a pass of more rebuilds every row, which gives the same
    bits. Any other cost, such as a wrapper that forwards calls, is
    opaque, and is called on each map that the search keeps, when it keeps
    it: once per evaluation. Each block is filtered against the visited set
    only when the search reaches it, so a block it never reaches leaves no
    key behind. The steps are taken in order, exactly as one at a time; the
    search goes on into the next block only when it accepts that move and
    the row's bytes equal the next focus, and otherwise starts its next
    pass from the row it accepted. Starved terminals warn for the
    candidates the search keeps, in order, once per type (see
    ``Process.warn``).
    """
    cfg = config or SearchConfig()
    for cid in cost.pinned:
        if init.get(cid, 0.0) != 0.0:
            raise AdtError(f"initial probability map violates pinned constraint on {cid}")

    u = cost.universe
    cu = u.compiled
    with np.errstate(over="ignore", invalid="ignore"):
        scorer = None
        if type(cost).__call__ is CostFunction.__call__:
            scorer = Scorer(cost, size)
            focus_cost = scorer(_family_probs(cu, init))[0]
            scorer.warn()
            scorer.move(0)
        else:
            focus_cost = cost(size, init)
        evaluations = 1
        steps: list[tuple[dict[str, float], float]] = [(dict(init), focus_cost)]
        rows = _Rows(u, init, cost.pinned, cfg.delta)
        x = rows.row(init)
        visited = set(rows.quantized(x[None]))
        family = np.array([rows.column[cid] for cid in cu.ctors[:cu.nfamily_ctors]],
                          dtype=np.intp)
        # each move's type; a type outside the family changes no row
        move_type = np.array([cu.index.get(u.ctor_type(cid), cu.nfamily)
                              for cid in rows.order], dtype=np.intp).take(rows.bumped)

        outcome = None
        move = None  # the last accepted move
        while outcome is None:
            left = cfg.max_steps + 1 - len(steps)
            foci = (x[None] if move is None or rows.depth == 1
                    else rows.chain(x, move, min(rows.depth, left)))
            cands, moves, ends, keys = rows.candidates(foci)
            if scorer is not None:
                types = move_type.take(moves) if len(foci) == 1 else None
                costs = scorer(cands.take(family, axis=1), types)
            lo = 0
            for f, hi in enumerate(ends):
                kept = _unseen(keys, lo, hi, visited)
                if scorer is None:
                    scored = [cost(size, rows.as_dict(cands[i])) for i in kept]
                else:
                    scorer.warn(kept)
                    scored = [costs[i] for i in kept]
                evaluations += len(kept)
                if not kept:
                    outcome = LOCAL_MINIMUM
                    break
                best_cost = min(scored)
                best_i = kept[scored.index(best_cost)]  # the first of the cheapest
                gain = focus_cost - best_cost
                if gain <= 0.0:
                    outcome = LOCAL_MINIMUM
                    break
                if gain <= cfg.epsilon:
                    outcome = EPSILON_STOP
                    break
                x = cands[best_i]
                if scorer is not None:
                    scorer.move(best_i)
                focus_cost = best_cost
                steps.append((rows.as_dict(x), focus_cost))
                if len(steps) > cfg.max_steps:
                    outcome = STEP_CAP
                    break
                chained = (f + 1 < len(foci) and moves[best_i] == move
                           and x.tobytes() == foci[f + 1].tobytes())
                move = int(moves[best_i])
                if not chained:
                    break
                lo = hi

    return dict(steps[-1][0]), SearchTrace(steps, outcome, evaluations)


def derive_generator_with_trace(
        u: ADTUniverse, size: int, cost: CostFunction,
        config: SearchConfig | None = None) -> tuple[GenSpec, SearchTrace]:
    """Tune a generator: constrain a uniform start, optimize, and package."""
    init = renormalize_probmap(
        u, uniform_probmap(u, u.family), pinned=cost.pinned)
    tuned, trace = optimize(cost, size, init, config)
    return adhoc_genspec(u, size, STRATEGY_DRAGEN, tuned), trace
