"""Generator specs: the sampling strategies and the tuned-generator record
that ``optimize`` writes and the samplers read."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .adt import AdtError

STRATEGY_DRAGEN = "dragen"
STRATEGY_MEGADETH = "megadeth"
STRATEGY_DERIVE = "derive"
STRATEGIES = (STRATEGY_DRAGEN, STRATEGY_MEGADETH, STRATEGY_DERIVE)


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
