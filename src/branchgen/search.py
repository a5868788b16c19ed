"""Greedy local search over per-type probability simplices.

Neighbors of a probability map bump one constructor by +delta or -delta
(clamped at 0) and renormalize that constructor's type over its unpinned
constructors. The search repeatedly moves to the cheapest not-yet-visited
neighbor while each move improves the cost by more than epsilon.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Mapping

from .adt import (
    ADTUniverse,
    AdtError,
    renormalize_probmap,
    uniform_probmap,
    universe_hash,
)
from .costs import CostFunction
from .prediction import star_probs

LOCAL_MINIMUM = "LocalMinimum"
EPSILON_STOP = "EpsilonStop"
STEP_CAP = "StepCap"

STRATEGY_DRAGEN = "dragen"
STRATEGY_MEGADETH = "megadeth"
STRATEGY_DERIVE = "derive"
STRATEGIES = (STRATEGY_DRAGEN, STRATEGY_MEGADETH, STRATEGY_DERIVE)


@dataclass(frozen=True)
class SearchConfig:
    delta: float = 0.01
    epsilon: float = 1e-6
    max_steps: int = 10_000
    quantum: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise AdtError("delta must be in (0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise AdtError("epsilon must be positive and finite")
        if not isinstance(self.max_steps, numbers.Integral) or self.max_steps < 1:
            raise AdtError("max_steps must be an integer of at least 1")
        if not 0.0 < self.quantum < math.inf:
            raise AdtError("quantum must be positive and finite")


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


def _quantized(probs: Mapping[str, float], order: tuple[str, ...], quantum: float):
    return tuple(round(probs[c] / quantum) for c in order)


def _keyed_neighbors(u: ADTUniverse, probs: Mapping[str, float], delta: float,
                     pinned: frozenset[str] | set[str], quantum: float):
    """Yield (quantized key, candidate) pairs in ``neighbors`` order."""
    order = tuple(sorted(probs))
    seen = {_quantized(probs, order, quantum)}
    by_type: dict[str, list[str]] = {}
    for cid in order:
        by_type.setdefault(u.ctor_type(cid), []).append(cid)

    for cid in order:
        if cid in pinned:
            continue
        siblings = by_type[u.ctor_type(cid)]
        free = [c for c in siblings if c not in pinned]
        for sign in (1.0, -1.0):
            candidate = dict(probs)
            candidate[cid] = max(0.0, probs[cid] + sign * delta)
            total = sum(candidate[c] for c in free)
            if total <= 0.0:
                continue
            for c in free:
                candidate[c] = candidate[c] / total
            key = _quantized(candidate, order, quantum)
            if key in seen:
                continue
            seen.add(key)
            yield key, candidate


def neighbors(u: ADTUniverse, probs: Mapping[str, float], delta: float,
              pinned: frozenset[str] | set[str] = frozenset(),
              quantum: float = 1e-6) -> list[dict[str, float]]:
    """Candidate probability maps one delta-step away.

    Constructors are bumped in sorted-id order, +delta before -delta, so
    the returned order is deterministic; candidates that quantize to the
    focus map or to an earlier candidate are dropped.
    """
    return [cand for _, cand in _keyed_neighbors(u, probs, delta, pinned, quantum)]


def optimize(cost: CostFunction, size: int, init: Mapping[str, float],
             config: SearchConfig | None = None) -> tuple[dict[str, float], SearchTrace]:
    """Best-improvement descent from ``init`` under ``cost``'s constraints.

    Every evaluated neighbor joins the visited set (keyed by its quantized
    probabilities), so no map is scored twice; ties between equally cheap
    neighbors resolve to the first in enumeration order. A stock
    ``CostFunction`` scores each step's fresh neighbors in one
    ``scores`` call. Returns the best map found and the trace of accepted
    steps.
    """
    cfg = config or SearchConfig()
    for cid in cost.pinned:
        if init.get(cid, 0.0) != 0.0:
            raise AdtError(f"initial probability map violates pinned constraint on {cid}")

    u = cost.universe
    # Any other callable (a subclass with its own __call__, or a wrapper
    # that forwards calls) is opaque and can only be called once per map.
    batched = type(cost).__call__ is CostFunction.__call__
    focus = dict(init)
    focus_cost = cost(size, focus)
    evaluations = 1
    visited = {_quantized(focus, tuple(sorted(init)), cfg.quantum)}
    steps: list[tuple[dict[str, float], float]] = [(dict(focus), focus_cost)]

    outcome = STEP_CAP
    for _ in range(cfg.max_steps):
        fresh = []
        for key, cand in _keyed_neighbors(u, focus, cfg.delta, cost.pinned, cfg.quantum):
            if key not in visited:
                visited.add(key)
                fresh.append(cand)
        if not fresh:
            outcome = LOCAL_MINIMUM
            break
        costs = cost.scores(size, fresh) if batched else [cost(size, c) for c in fresh]
        scored = [(c, i) for i, c in enumerate(costs)]
        evaluations += len(fresh)
        best_cost, best_i = min(scored)
        gain = focus_cost - best_cost
        if gain <= 0.0:
            outcome = LOCAL_MINIMUM
            break
        if gain <= cfg.epsilon:
            outcome = EPSILON_STOP
            break
        focus = fresh[best_i]
        focus_cost = best_cost
        steps.append((dict(focus), focus_cost))

    return focus, SearchTrace(steps, outcome, evaluations)


@dataclass
class GenSpec:
    """A tuned generator: root, size, strategy, and its probability maps."""

    root: str
    size: int
    strategy: str
    probabilities: dict[str, float]
    star_probabilities: dict[str, float]
    universe_hash: str

    def to_json_dict(self) -> dict:
        return {
            "root": self.root,
            "size": self.size,
            "strategy": self.strategy,
            "probabilities": dict(sorted(self.probabilities.items())),
            "starProbabilities": dict(sorted(self.star_probabilities.items())),
            "universeHash": self.universe_hash,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GenSpec":
        try:
            spec = cls(
                root=data["root"],
                size=int(data["size"]),
                strategy=data["strategy"],
                probabilities={k: float(v) for k, v in data["probabilities"].items()},
                star_probabilities={k: float(v) for k, v in data["starProbabilities"].items()},
                universe_hash=data["universeHash"],
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise AdtError(f"malformed generator spec: {exc!r}") from None
        if spec.strategy not in STRATEGIES:
            raise AdtError(f"unknown strategy {spec.strategy!r}")
        if spec.size < 0:
            raise AdtError("generator size must be nonnegative")
        return spec

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "GenSpec":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise AdtError(f"cannot read {path}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise AdtError(f"malformed generator spec {path}: {exc}") from None
        return cls.from_json_dict(data)


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


def derive_generator(u: ADTUniverse, size: int, cost: CostFunction,
                     config: SearchConfig | None = None) -> GenSpec:
    return derive_generator_with_trace(u, size, cost, config)[0]
