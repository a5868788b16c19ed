"""Command-line front end: check, predict, optimize, sample, verify, histogram.

Machine-readable output (JSON, CSV, or serialized values) goes to stdout;
diagnostics go to stderr. Exit codes: 0 success, 1 domain error, 2 usage
error. When --seed is omitted the DRAGEN_SEED environment variable is used,
falling back to 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .adt import (
    ADTUniverse,
    AdtError,
    build_cdg,
    load_probmap,
    parse_universe,
    reachable_foreign_types,
    terminal_constructors,
    uniform_probmap,
    universe_hash,
    validate_probmap,
)
from .costs import parse_cost_expression
from .prediction import predict_schedule, prediction_report_json
from .sampling import (
    DEFAULT_DERIVE_BUDGET,
    BudgetExhausted,
    empirical_stats,
    histogram_csv,
    sample_values,
    value_to_json,
    value_to_sexp,
)
from .search import SearchConfig, derive_generator_with_trace
from .spec import STRATEGIES, STRATEGY_DRAGEN, GenSpec, adhoc_genspec, build_schedule

VERIFY_SE_MULTIPLE = 4.0
_VERIFY_EPS = 1e-9


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchgen",
        description="Predict, tune, sample and verify constructor distributions "
                    "of size-bounded random generators for algebraic data types.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_universe_args(p):
        p.add_argument("-f", "--file", required=True, help="declaration file (DSL)")
        p.add_argument("--root", help="generation root type")

    p = sub.add_parser("check", help="parse declarations and summarize the universe")
    add_universe_args(p)

    p = sub.add_parser("predict", help="emit the expected-constructor report")
    add_universe_args(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--probs", help="probability map JSON (default: uniform)")

    p = sub.add_parser("optimize", help="tune probabilities against a cost function")
    add_universe_args(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--cost", default="uniform",
                   help="uniform | weighted(C=3,...) | only(C,...) | without(C,...) "
                        "| onlyTypes(T,...) | withoutTypes(T,...)")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--out", help="also write the generator spec to this path")

    for name, help_text in (
            ("sample", "stream generated values"),
            ("verify", "compare predicted vs observed constructor counts"),
            ("histogram", "emit the size-distribution CSV")):
        p = sub.add_parser(name, help=help_text)
        add_universe_args(p)
        p.add_argument("--spec", help="generator spec JSON from `optimize`")
        p.add_argument("--size", type=int, help="size when no spec is given")
        p.add_argument("--strategy", choices=STRATEGIES,
                       help="override or choose the sampling strategy")
        p.add_argument("--probs", help="probability map JSON for ad hoc runs: its family "
                                       "entries apply under dragen, its foreign entries "
                                       "under every strategy")
        p.add_argument("--count", type=int, required=True)
        p.add_argument("--seed", type=int)
        if name != "verify":  # verify refuses derive
            p.add_argument("--budget", type=int, default=DEFAULT_DERIVE_BUDGET,
                           help="derive-strategy constructor budget")
        if name == "sample":
            p.add_argument("--format", choices=("sexp", "json"), default="sexp")
    return parser


def _seed_of(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("DRAGEN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise AdtError(f"DRAGEN_SEED must be an integer, got {env!r}") from None
    return 0


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise AdtError(f"cannot read {path}: {exc.strerror}") from None


def _load_universe(args, root: str | None = None) -> ADTUniverse:
    source = _read_file(args.file)
    root = root or args.root
    if not root:
        raise AdtError("--root is required")
    return parse_universe(source, root)


def _probs_arg(u: ADTUniverse, path: str | None) -> dict[str, float]:
    """The map of ``--probs``, family and foreign entries alike, or without
    a file the uniform family map (foreign types then draw uniformly)."""
    return load_probmap(_read_file(path), u) if path else uniform_probmap(u, u.family)


def _check_spec(u: ADTUniverse, spec: GenSpec) -> None:
    """A spec's probabilities must meet a --probs file's rules and name every
    family constructor; foreign entries, like a --probs file's, set their
    types' draws. Its star probabilities name family terminals only."""
    validate_probmap(u, spec.probabilities)
    missing = [c for c in u.family_constructors() if c not in spec.probabilities]
    if missing:
        raise AdtError(f"generator spec has no probabilities for {missing}")
    terminals = {c for t in u.family for c in terminal_constructors(t, u)}
    for cid, p in spec.star_probabilities.items():
        if cid not in terminals or not 0.0 <= p <= 1.0:
            raise AdtError("star probabilities must be of family terminals, in [0, 1]; "
                           f"got {cid} = {p}")


def _universe_and_spec(args) -> tuple[ADTUniverse, GenSpec]:
    """Resolve declarations and generator spec: the spec from --spec
    (hash-checked, then ``_check_spec``; its root used unless --root
    overrides), or assembled ad hoc from --size/--strategy/--probs, whose map
    the spec then holds whole. megadeth and derive draw the family
    uniformly, so there --probs may name foreign types only. --probs is an
    error where it could not apply."""
    if args.spec and args.probs:
        raise AdtError("--probs applies to ad hoc runs; it cannot be combined with --spec")
    if args.spec:
        spec = GenSpec.load(args.spec)
        u = _load_universe(args, root=args.root or spec.root)
        if spec.universe_hash != universe_hash(u):
            raise AdtError(
                "generator spec was produced for different declarations "
                f"(hash {spec.universe_hash[:12]}... vs {universe_hash(u)[:12]}...)")
        _check_spec(u, spec)
        if args.strategy:
            spec.strategy = args.strategy
        return u, spec
    strategy = args.strategy or STRATEGY_DRAGEN
    u = _load_universe(args)
    if args.size is None:
        raise AdtError("either --spec or --size is required")
    probs = _probs_arg(u, args.probs)
    if args.probs and strategy != STRATEGY_DRAGEN:
        if any(c in probs for c in u.family_constructors()):
            raise AdtError(f"--probs may name only foreign types under {strategy}; "
                           "its family draws uniformly")
    return u, adhoc_genspec(u, args.size, strategy, probs)


def _emit(document: dict) -> None:
    json.dump(document, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_check(args) -> int:
    u = _load_universe(args)
    cdg = build_cdg(u)
    _emit({
        "root": u.root,
        "family": list(u.family),
        "typeCount": len(u.decls),
        "constructorCount": sum(len(d.constructors) for d in u.decls.values()),
        "terminals": {tid: list(terminal_constructors(tid, u)) for tid in u.family},
        "foreignTypes": list(reachable_foreign_types(u)),
        "cdgEdges": [
            {"parent": e.parent, "child": e.child, "multiplicity": e.multiplicity}
            for e in cdg.edges
        ],
    })
    return 0


def _cmd_predict(args) -> int:
    u = _load_universe(args)
    _emit(prediction_report_json(u, _probs_arg(u, args.probs), args.size))
    return 0


def _cmd_optimize(args) -> int:
    u = _load_universe(args)
    cost = parse_cost_expression(u, args.cost)
    config = SearchConfig(delta=args.delta, epsilon=args.epsilon,
                          max_steps=args.max_steps)
    spec, trace = derive_generator_with_trace(u, args.size, cost, config)
    if args.out:
        spec.save(args.out)
    _emit({
        "genSpec": spec.to_json_dict(),
        "prediction": prediction_report_json(u, spec.probabilities, args.size),
        "trace": {
            "cost": cost.label,
            "steps": len(trace.steps) - 1,
            "evaluations": trace.evaluations,
            "initialCost": trace.steps[0][1],
            "finalCost": trace.steps[-1][1],
            "outcome": trace.outcome,
        },
    })
    return 0


def _cmd_sample(args) -> int:
    u, spec = _universe_and_spec(args)
    seed = _seed_of(args)
    render = value_to_sexp if args.format == "sexp" else value_to_json
    for value in sample_values(u, spec, seed, args.count, args.budget):
        if isinstance(value, BudgetExhausted):
            line = ('{"budgetExhausted": true}' if args.format == "json"
                    else "(#budget-exhausted)")
        else:
            line = render(value)
        sys.stdout.write(line + "\n")
    return 0


def _cmd_verify(args) -> int:
    u, spec = _universe_and_spec(args)
    predicted = predict_schedule(u, build_schedule(
        u, spec.strategy, spec.size, spec.probabilities, spec.star_probabilities))
    seed = _seed_of(args)
    stats = empirical_stats(u, spec, args.count, seed)

    rows = {}
    all_pass = True
    for cid in sorted(predicted):
        pred = predicted[cid]
        obs = stats.mean_counts.get(cid, 0.0)
        se = stats.std_err.get(cid, 0.0)
        ok = abs(pred - obs) <= VERIFY_SE_MULTIPLE * se + _VERIFY_EPS
        all_pass = all_pass and ok
        rows[cid] = {"predicted": pred, "observed": obs, "stdErr": se, "within": ok}
    _emit({
        "root": spec.root,
        "size": spec.size,
        "samples": args.count,
        "seed": seed,
        "seMultiple": VERIFY_SE_MULTIPLE,
        "perConstructor": rows,
        "pass": all_pass,
    })
    return 0


def _cmd_histogram(args) -> int:
    u, spec = _universe_and_spec(args)
    seed = _seed_of(args)
    stats = empirical_stats(u, spec, args.count, seed, args.budget)
    sys.stdout.write(histogram_csv(stats))
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "predict": _cmd_predict,
    "optimize": _cmd_optimize,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "histogram": _cmd_histogram,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    with warnings.catch_warnings():  # each warning as one line, like an error
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return _COMMANDS[args.command](args)
        except AdtError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
