"""Generator specs: the sampling strategies and their checks, the schedule
that says what each strategy draws at each size, and the generator record
that ``optimize`` writes and the samplers read, with its one factory,
``adhoc_genspec``."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping

from .adt import (
    ADTUniverse,
    AdtError,
    as_integer,
    as_probability,
    read_probabilities,
    require_terminals,
    uniform_probmap,
    universe_hash,
)
from .prediction import _foreign_probs, star_probs

STRATEGY_DRAGEN = "dragen"
STRATEGY_MEGADETH = "megadeth"
STRATEGY_DERIVE = "derive"
STRATEGIES = (STRATEGY_DRAGEN, STRATEGY_MEGADETH, STRATEGY_DERIVE)

# Per strategy: whether the family draws by the spec's maps (else
# uniformly), the size of a node's family children given its own, and the
# number of levels above the final one at a size (None: no final level).
_RULES = {
    STRATEGY_DRAGEN: (True, lambda sz: sz - 1, lambda n: n),
    STRATEGY_MEGADETH: (False, lambda sz: sz // 2, lambda n: int(n).bit_length()),
    STRATEGY_DERIVE: (False, lambda sz: -1, lambda n: None),
}


def _check_strategy(strategy: str) -> str:
    if strategy not in STRATEGIES:
        raise AdtError(f"unknown strategy {strategy!r}")
    return strategy


def _bounded_size(size: int) -> int:
    """``size`` for a size-bounded strategy, which never reaches size 0 from
    a negative size and would run unbounded."""
    return as_integer(size, "generator size must be a nonnegative integer", 0)


@dataclass(frozen=True, eq=False)
class Schedule:
    """What a generator draws at each size. ``rows`` and ``final`` hold
    every compiled constructor's probability at positive sizes and on the
    final level (size 0), normalized per type (all zero for a type with no
    weight); ``child`` maps a node's size to its family children's, and
    ``levels`` counts the levels above the final one (None: there is none)."""

    rows: list[float]
    final: list[float]
    child: Callable[[int], int]
    levels: int | None


def build_schedule(u: ADTUniverse, strategy: str, size: int,
                   probs: Mapping[str, float] | None = None,
                   stars: Mapping[str, float] | None = None,
                   foreign_probs: Mapping[str, float] | None = None) -> Schedule:
    """The schedule of ``strategy`` at ``size``: dragen draws by ``probs``,
    and on the final level by ``stars`` (a terminal they do not name reads
    0); the others ignore both and draw uniformly, megadeth over the
    terminals on the final level. Foreign types draw by ``foreign_probs``
    (default uniform) at every size. Each entry read is checked by
    ``read_probabilities``; an unknown strategy is an ``AdtError``."""
    tuned, child, count_levels = _RULES[_check_strategy(strategy)]
    cu, levels = u.compiled, count_levels(size)
    family = cu.ctors[:cu.nfamily_ctors]
    rows = final = read_probabilities(probs, family) if tuned else [1.0] * len(family)
    foreign = _foreign_probs(u, foreign_probs)
    if levels is not None:
        require_terminals(cu)
        if tuned:
            named = [c for c in family if c in stars]
            stars = dict(zip(named, read_probabilities(stars, named)))
        final = [(stars.get(c, 0.0) if tuned else 1.0) if term else 0.0
                 for c, term in zip(family, cu.family_terminal.tolist())]
    rows, final = ([w / total if total > 0.0 else 0.0
                    for s in cu.slices for total in [sum(ws[s])] for w in ws[s]]
                   for ws in (rows + foreign, final + foreign))
    return Schedule(rows, final, child, levels)


@dataclass
class GenSpec:
    """A generator: root, size, strategy, and its probability maps."""

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
                size=data["size"],
                strategy=data["strategy"],
                probabilities={k: as_probability(k, v) for k, v in data["probabilities"].items()},
                star_probabilities={k: as_probability(k, v)
                                    for k, v in data["starProbabilities"].items()},
                universe_hash=data["universeHash"],
            )
            for key in ("root", "strategy", "universeHash"):
                if not isinstance(data[key], str):
                    raise TypeError(f"{key} must be a string, got {data[key]!r}")
            try:
                as_integer(spec.size, "size must be an integer")
            except AdtError as exc:  # reported as the other mistyped fields are
                raise TypeError(*exc.args) from None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise AdtError(f"malformed generator spec: {exc!r}") from None
        _check_strategy(spec.strategy)
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


def adhoc_genspec(u: ADTUniverse, size: int, strategy: str,
                  probs: Mapping[str, float] | None = None) -> GenSpec:
    """Package a generator spec (uniform probabilities unless given) for
    direct sampling, or for ``optimize``'s tuned map."""
    if _check_strategy(strategy) != STRATEGY_DERIVE:
        size = _bounded_size(size)
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
