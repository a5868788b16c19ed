"""Greedy local search over per-type probability simplices.

Neighbors of a probability map bump one constructor by +delta or -delta
(clamped at 0) and renormalize that constructor's type over its unpinned
constructors. The search repeatedly moves to the cheapest not-yet-visited
neighbor while each move improves the cost by more than epsilon.
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
    renormalize_probmap,
    uniform_probmap,
    universe_hash,
)
from .costs import CostFunction, Scorer
from .prediction import _family_probs, check_probabilities, star_probs
from .spec import STRATEGY_DRAGEN, GenSpec  # GenSpec is re-exported from here

LOCAL_MINIMUM = "LocalMinimum"
EPSILON_STOP = "EpsilonStop"
STEP_CAP = "StepCap"


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise AdtError("delta must be in (0, 1)")


def _check_quantum(quantum: float) -> None:
    if not 0.0 < quantum < math.inf:
        raise AdtError("quantum must be positive and finite")
    if not math.isfinite(1.0 / quantum):
        # p / quantum would overflow, and every map would quantize alike
        raise AdtError(f"quantum {quantum!r} is too small: its reciprocal overflows")


@dataclass(frozen=True)
class SearchConfig:
    delta: float = 0.01
    epsilon: float = 1e-6
    max_steps: int = 10_000
    quantum: float = 1e-6

    def __post_init__(self):
        _check_delta(self.delta)
        if not 0.0 < self.epsilon < math.inf:
            raise AdtError("epsilon must be positive and finite")
        as_integer(self.max_steps, "max_steps must be an integer of at least 1", 1)
        _check_quantum(self.quantum)


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
    search step bumps every unpinned column by +delta and then by -delta;
    the candidates are built as one matrix, and a dict is made only for a
    row that leaves the search."""

    def __init__(self, u: ADTUniverse, keys: Iterable[str],
                 pinned: frozenset[str] | set[str], delta: float):
        self.keys = tuple(keys)
        self.order = tuple(sorted(self.keys))
        self.column = {cid: i for i, cid in enumerate(self.order)}
        self.to_keys = np.array([self.column[k] for k in self.keys], dtype=np.intp)
        n = len(self.order)
        types = [u.ctor_type(cid) for cid in self.order]
        free: dict[str, list[int]] = {}
        for i, cid in enumerate(self.order):
            if cid not in pinned:
                free.setdefault(types[i], []).append(i)
        bumped = [i for i, cid in enumerate(self.order) if cid not in pinned]
        width = max(map(len, free.values()), default=0)
        # each bumped column's free siblings (itself included), padded with
        # the pad column n
        siblings = [free[types[i]] + [n] * (width - len(free[types[i]])) for i in bumped]
        # two candidates per bumped column: +delta, then -delta
        self.bumped = np.repeat(np.array(bumped, dtype=np.intp), 2)
        self.siblings = np.repeat(np.array(siblings, dtype=np.intp).reshape(-1, width), 2, axis=0)
        self.shift = np.tile([delta, -delta], len(bumped))
        # the cells a candidate writes, as flat indices into the k x (n + 1)
        # candidate matrix, for ``take`` and ``put``
        at = np.arange(len(self.bumped))
        self.flat_bumped = at * (n + 1) + self.bumped
        self.flat_siblings = at[:, None] * (n + 1) + self.siblings
        # a row's bytes as one void scalar, for ``quantized``
        self.row_bytes = np.dtype((np.void, (n + 1) * np.dtype(float).itemsize))

    def row(self, probs: Mapping[str, float]) -> np.ndarray:
        x = np.array([*(probs[cid] for cid in self.order), 0.0], dtype=float)
        check_probabilities(x[None, :-1], self.order)
        return x

    def quantized(self, rows: np.ndarray, quantum: float) -> list[bytes]:
        """Each row's key: round(p / quantum) per entry, half to even as
        ``round`` does, as bytes (+ 0.0 folds -0.0 into 0.0)."""
        keys = np.rint(rows / quantum) + 0.0
        # one void scalar per row, which ``tolist`` gives as its bytes
        return keys.view(self.row_bytes).ravel().tolist()

    def as_dict(self, row: np.ndarray) -> dict[str, float]:
        return dict(zip(self.keys, row.take(self.to_keys).tolist()))

    def fresh(self, x: np.ndarray, quantum: float,
              seen: set[bytes]) -> tuple[np.ndarray, np.ndarray]:
        """The candidates one step from the row ``x`` whose keys are not in
        ``seen``, in enumeration order, and the column each one bumped;
        their keys join ``seen``.

        A candidate sets the bumped entry to max(0, p ± delta) and divides
        the bumped type's free entries by their total, which is summed left
        to right in column order (as ``sum`` does), so every value equals
        the one-map-at-a-time arithmetic bit for bit. A candidate whose
        total is not positive is skipped."""
        if not len(self.bumped):
            return np.empty((0, len(x))), self.bumped
        rows = np.empty((len(self.bumped), len(x)))
        rows[:] = x
        # p is finite and at least 0, and 0 < delta < 1, so p - delta is
        # never -0.0 and the clamp gives what where(p ± delta > 0, ..., 0) does
        rows.put(self.flat_bumped, np.maximum(x.take(self.bumped) + self.shift, 0.0))
        entries = rows.take(self.flat_siblings)
        # a cumulative sum adds sequentially; the zero padding leaves a
        # total unchanged
        total = np.add.accumulate(entries, axis=1)[:, -1:]
        bumped = self.bumped
        if total.min() > 0.0:
            rows.put(self.flat_siblings, entries / total)
        else:
            # a dead candidate's entries are all 0, and stay 0 until dropped
            live = total[:, 0] > 0.0
            rows.put(self.flat_siblings, entries / np.where(live[:, None], total, 1.0))
            rows, bumped = rows.compress(live, axis=0), bumped.compress(live)
        new = []
        for i, key in enumerate(self.quantized(rows, quantum)):
            if key not in seen:
                seen.add(key)
                new.append(i)
        if len(new) == len(rows):
            return rows, bumped
        return rows.take(new, axis=0), bumped.take(new)


def neighbors(u: ADTUniverse, probs: Mapping[str, float], delta: float,
              pinned: frozenset[str] | set[str] = frozenset(),
              quantum: float = 1e-6) -> list[dict[str, float]]:
    """Candidate probability maps one delta-step away.

    Constructors are bumped in sorted-id order, +delta before -delta, so
    the returned order is deterministic; candidates that quantize to the
    focus map or to an earlier candidate are dropped. Each map has the key
    order of ``probs``.
    """
    _check_delta(delta)
    _check_quantum(quantum)
    rows = _Rows(u, probs, pinned, delta)
    x = rows.row(probs)
    fresh, _ = rows.fresh(x, quantum, set(rows.quantized(x[None], quantum)))
    return [rows.as_dict(r) for r in fresh]


@np.errstate(over="ignore", invalid="ignore")
def optimize(cost: CostFunction, size: int, init: Mapping[str, float],
             config: SearchConfig | None = None) -> tuple[dict[str, float], SearchTrace]:
    """Best-improvement descent from ``init`` under ``cost``'s constraints.

    Every evaluated neighbor joins the visited set (keyed by its quantized
    probabilities), so no map is scored twice; ties between equally cheap
    neighbors resolve to the first in enumeration order. The search runs on
    rows (see ``_Rows``). A stock ``CostFunction`` is scored through one
    ``Scorer`` per run, one call per step, from the focus map's type
    matrix; it warns once per starved type. Any other cost, including a
    ``CostFunction`` whose ``__call__`` or ``scores`` is overridden, is
    called once per map. The run is under one ``np.errstate`` that ignores
    overflow and invalid results, so a cost that overflows reads inf or nan.
    Returns the best map found and the trace of accepted steps, whose maps
    have the key order of ``init``.
    """
    cfg = config or SearchConfig()
    for cid in cost.pinned:
        if init.get(cid, 0.0) != 0.0:
            raise AdtError(f"initial probability map violates pinned constraint on {cid}")

    u = cost.universe
    cu = u.compiled
    # Any other cost (a subclass that overrides __call__ or scores, or a
    # wrapper that forwards calls) is opaque and is called once per map.
    scorer = None
    if type(cost).__call__ is CostFunction.__call__ and type(cost).scores is CostFunction.scores:
        scorer = Scorer(cost, size, warn_once=True)
        focus_cost = scorer(_family_probs(cu, [init]))[0]
        scorer.move(0)
    else:
        focus_cost = cost(size, init)
    evaluations = 1
    steps: list[tuple[dict[str, float], float]] = [(dict(init), focus_cost)]
    rows = _Rows(u, init, cost.pinned, cfg.delta)
    x = rows.row(init)
    visited = set(rows.quantized(x[None], cfg.quantum))
    if scorer is not None:
        family = np.array([rows.column[cid] for cid in cu.ctors[:cu.nfamily_ctors]],
                          dtype=np.intp)
        # each column's type; a type outside the family changes no row
        column_type = np.array([cu.index.get(u.ctor_type(cid), cu.nfamily)
                                for cid in rows.order], dtype=np.intp)

    outcome = STEP_CAP
    for _ in range(cfg.max_steps):
        fresh, bumped = rows.fresh(x, cfg.quantum, visited)
        if not len(fresh):
            outcome = LOCAL_MINIMUM
            break
        if scorer is not None:
            costs = scorer(fresh.take(family, axis=1), column_type.take(bumped))
        else:
            costs = [cost(size, rows.as_dict(r)) for r in fresh]
        evaluations += len(fresh)
        best_cost = min(costs)
        best_i = costs.index(best_cost)  # the first of the cheapest
        gain = focus_cost - best_cost
        if gain <= 0.0:
            outcome = LOCAL_MINIMUM
            break
        if gain <= cfg.epsilon:
            outcome = EPSILON_STOP
            break
        x = fresh[best_i]
        if scorer is not None:
            scorer.move(best_i)
        focus_cost = best_cost
        steps.append((rows.as_dict(x), focus_cost))

    return dict(steps[-1][0]), SearchTrace(steps, outcome, evaluations)


def derive_generator_with_trace(
        u: ADTUniverse, size: int, cost: CostFunction,
        config: SearchConfig | None = None) -> tuple[GenSpec, SearchTrace]:
    """Tune a generator: constrain a uniform start, optimize, and package."""
    init = renormalize_probmap(
        u, uniform_probmap(u, u.family), pinned=cost.pinned)
    tuned, trace = optimize(cost, size, init, config)
    spec = GenSpec(
        root=u.root,
        size=size,
        strategy=STRATEGY_DRAGEN,
        probabilities=tuned,
        star_probabilities=star_probs(u, tuned),
        universe_hash=universe_hash(u),
    )
    return spec, trace
