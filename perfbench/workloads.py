"""The benchmark's workloads: inputs, one fixed batch of operations, and the
checks on every operation's output.

Every workload is closed-loop: one caller in one process, the next call
only after the previous one returned. A batch is deterministic given the
workload seed, so later batches of a run are checked by comparing their
output digests with the first batch, which is checked in full.

Why each workload exists:
  table1   - the paper's five Table-1 tuning rows on Tree at size 10. Many
             tiny evaluations (1 type, 4 constructors): per-call overhead.
  wide60   - a seeded family of 10 mutually recursive types and 60
             constructors under a step cap: per-evaluation structure walks.
  sampling - verify and histogram statistics from a checked-in tuned spec,
             plus megadeth and derive statistics: sampler counting walks.
  values   - materialized values of all three strategies and both
             serializations, including foreign types and ground atoms.
  edge     - `branchgen predict` through the CLI over critical, super-
             critical and huge-size configurations: the extinction solve
             and long-horizon prediction.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import branchgen as bg
from branchgen.adt import validate_probmap
from branchgen.search import GenSpec, SearchConfig, neighbors
from branchgen import cli

import checks
from spans import TracedCost, durations

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
GOLDEN = HERE / "golden"
OUT = HERE / "out"

DEFAULT_SEED = 0


def digest(obj) -> str:
    """SHA-256 of the canonical JSON text, encoded piecewise so a large
    output is never held twice."""
    h = hashlib.sha256()
    for chunk in json.JSONEncoder(sort_keys=True, separators=(",", ":")).iterencode(obj):
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


def read_input(name: str) -> str:
    return (INPUTS / name).read_text(encoding="utf-8")


@dataclass
class Op:
    """One operation of a batch: its name, its JSON-able output (what is
    checked and digested, then dropped), its timings, and the small objects
    the summary and the trace report read."""

    name: str
    output: dict
    times: dict = field(default_factory=dict)
    keep: dict = field(default_factory=dict)


@dataclass
class Inputs:
    describe: dict            # everything the batch depends on; hashed
    u: object                 # the workload's main universe
    data: dict = field(default_factory=dict)


def median_time(fn, args: list, min_s: float = 0.05, min_calls: int = 5) -> float:
    """Median seconds per call of fn(arg), cycling through args until both
    min_calls calls and min_s seconds have been spent."""
    times = []
    start = perf_counter()
    i = 0
    while len(times) < max(min_calls, len(args)) or perf_counter() - start < min_s:
        a = args[i % len(args)]
        t0 = perf_counter()
        fn(a)
        times.append(perf_counter() - t0)
        i += 1
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Tuning workloads (table1, wide60)
# ---------------------------------------------------------------------------

def _tune(name: str, u, cost, size: int, cfg: SearchConfig, rec) -> Op:
    traced = TracedCost(cost, rec) if rec.enabled else cost
    t0 = perf_counter()
    with rec.span("search.derive_generator_with_trace"):
        spec, trace = bg.derive_generator_with_trace(u, size, traced, cfg)
    t1 = perf_counter()
    with rec.span("prediction.prediction_report_json"):
        report = bg.prediction_report_json(u, spec.probabilities, size)
    t2 = perf_counter()
    output = {
        "outcome": trace.outcome,
        "steps": len(trace.steps) - 1,
        "evaluations": trace.evaluations,
        "final_cost": trace.steps[-1][1],
        "step_costs": [c for _, c in trace.steps],
        "probabilities": dict(sorted(spec.probabilities.items())),
        "report": report,
    }
    return Op(name, output, {"tune_s": t1 - t0, "report_s": t2 - t1},
              {"trace": trace, "cost": cost, "spec": spec})


def _check_tune(u, cost, size: int, out: dict, golden: dict | None) -> str | None:
    """Golden replay when a golden record exists, invariants always."""
    if golden is not None:
        for key in ("outcome", "steps", "evaluations"):
            if out[key] != golden[key]:
                return f"{key} {out[key]!r} != golden {golden[key]!r}"
        if not checks.close(out["final_cost"], golden["final_cost"], rtol=1e-12, atol=0.0):
            return f"final cost {out['final_cost']!r} != golden {golden['final_cost']!r}"
        gp, op = golden["probabilities"], out["probabilities"]
        if gp.keys() != op.keys() or any(abs(op[c] - gp[c]) > 1e-12 for c in gp):
            return "tuned probabilities differ from golden"
    costs = out["step_costs"]
    if any(b > a for a, b in zip(costs, costs[1:])):
        return "accepted step costs increase"
    try:
        validate_probmap(u, out["probabilities"])
    except bg.AdtError as exc:
        return f"tuned map invalid: {exc}"
    report = out["report"]
    try:
        checks.strict_json(json.dumps(report))
    except ValueError as exc:
        return f"report is not strict JSON: {exc}"
    ref = checks.reference_expected(u, out["probabilities"], size)
    bad = checks.prediction_mismatches(report["expected"], ref)
    if bad:
        return "report differs from constructor-matrix route: " + ", ".join(bad[:3])
    ref_cost = checks.chi_square_cost(cost, size, ref)
    if not checks.close(out["final_cost"], ref_cost):
        return f"final cost {out['final_cost']!r} != recomputed {ref_cost!r}"
    if not all(0.0 <= q <= 1.0 for q in report["extinction"].values()):
        return "extinction outside [0, 1]"
    return None


def _load_golden(name: str) -> dict:
    path = GOLDEN / name
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def golden_config(inp: Inputs) -> dict:
    """What a golden record depends on: the inputs minus the row list, so
    that a subset of rows (smoke mode) still replays against it."""
    return {k: v for k, v in inp.describe.items() if k != "costs"}


def golden_record(op: Op) -> dict:
    return {k: op.output[k] for k in ("outcome", "steps", "evaluations",
                                      "final_cost", "probabilities")}


class _Tuning:
    """Shared by table1 and wide60: each op tunes one cost and reports."""

    min_batches = 3
    golden_file = ""

    def run(self, inp: Inputs, rec) -> list[Op]:
        d = inp.data
        return [_tune(f"{self.name}.{cost.label}", inp.u, cost, d["size"], d["cfg"], rec)
                for cost in d["costs"]]

    def check(self, inp: Inputs, ops: list[Op]) -> list[str | None]:
        golden = _load_golden(self.golden_file)
        use = golden.get("config") == golden_config(inp)
        return [_check_tune(inp.u, op.keep["cost"], inp.data["size"], op.output,
                            golden["ops"].get(op.name) if use else None) for op in ops]

    def summary(self, inp, batches) -> dict:
        tune = statistics.median(sum(op.times["tune_s"] for op in ops) for ops in batches)
        rep = statistics.median(op.times["report_s"] for ops in batches for op in ops)
        traces = [op.keep["trace"] for op in batches[0]]
        return {"tune_s": (tune, "s"), "report_ms": (rep * 1e3, "ms"),
                "search.evals": (sum(t.evaluations for t in traces), "count"),
                "search.steps": (sum(len(t.steps) - 1 for t in traces), "count")}

    def probe_target(self, inp, ops):
        replay = [p for op in ops for p, _ in op.keep["trace"].steps]
        finals = [op.keep["spec"].probabilities for op in ops]
        return inp.u, inp.data["size"], ops[0].keep["cost"], inp.data["cfg"].delta, replay, finals

    def trace_report(self, inp, ops, recs) -> dict:
        """Span-derived numbers for the tuning layers. predict_constructors
        and neighbors run inside the optimizer, so their per-call times come
        from replaying the accepted steps outside it."""
        spans = [s for r in recs for s in r.spans]
        evals = durations(spans, "costs.eval")
        tune = durations(spans, "search.derive_generator_with_trace")
        calls = sum(op.keep["trace"].evaluations for op in ops)
        u, size, _, delta, replay, _ = self.probe_target(inp, ops)
        predict = median_time(lambda p: bg.predict_constructors(u, p, size), replay)
        pinned = ops[0].keep["cost"].pinned
        nbrs = median_time(lambda p: neighbors(u, p, delta, pinned), replay)
        eval_us = statistics.median(evals) * 1e6
        steps = sum(len(op.keep["trace"].steps) - 1 for op in ops)
        return {
            "costs.eval_calls": (len(evals) // len(recs), "count"),
            "costs.eval_calls_match_trace": (int(len(evals) == calls * len(recs)), "bool"),
            "costs.eval_us": (eval_us, "us"),
            # The costs.eval spans enclose predict_constructors; split them
            # with the replayed per-call prediction time.
            "costs.self_us": (eval_us - predict * 1e6, "us"),
            "prediction.in_eval_s": (predict * calls, "s"),
            "prediction.predict_us": (predict * 1e6, "us"),
            "prediction.predict_calls": (calls + len(ops), "count"),
            "search.neighbors_us": (nbrs * 1e6, "us"),
            "search.accept_ratio": (steps / calls, "ratio"),
            "search.evals_per_s": (calls * len(recs) / sum(tune), "1/s"),
        }


TABLE1_SIZE = 10
TABLE1_DELTA = 0.002
TABLE1_ROWS = (
    lambda u: bg.uniform_cost(u),
    lambda u: bg.weighted_cost(u, {"Tree.LeafA": 3, "Tree.LeafB": 1, "Tree.LeafC": 1}),
    lambda u: bg.weighted_cost(u, {"Tree.LeafA": 1, "Tree.Node": 3}),
    lambda u: bg.only_cost(u, ["Tree.LeafA", "Tree.Node"]),
    lambda u: bg.without_cost(u, ["Tree.LeafC"]),
)


class Table1(_Tuning):
    """The five Table-1 rows. Their inputs are the paper's and do not
    depend on the seed."""

    name = "table1"
    golden_file = "table1.json"

    def prepare(self, seed: int, smoke: bool) -> Inputs:
        text = read_input("tree.adt")
        u = bg.parse_universe(text, "Tree")
        rows = TABLE1_ROWS[3:4] if smoke else TABLE1_ROWS
        costs = [make(u) for make in rows]
        cfg = SearchConfig(delta=TABLE1_DELTA)
        describe = {"decls": text, "root": "Tree", "size": TABLE1_SIZE,
                    "delta": TABLE1_DELTA, "max_steps": cfg.max_steps,
                    "costs": [c.label for c in costs]}
        data = {"size": TABLE1_SIZE, "cfg": cfg, "costs": costs, "text": text, "root": "Tree"}
        return Inputs(describe, u, data)


WIDE60_TYPES = 10
WIDE60_CTORS = 60
WIDE60_SIZE = 10
WIDE60_DELTA = 0.01
WIDE60_STEPS = 8


def wide60_source(seed: int) -> str:
    """Declarations of a random family with exactly WIDE60_TYPES mutually
    recursive types and WIDE60_CTORS constructors, shaped like the test
    suite's random universes: per type a terminal first, a ring constructor
    to the next type second (plus extra random fields), the rest 0-3 random
    fields."""
    rng = random.Random(seed)
    ntypes = WIDE60_TYPES
    names = [f"T{i}" for i in range(ntypes)]
    per_type = [2] * ntypes
    for _ in range(WIDE60_CTORS - 2 * ntypes):
        per_type[rng.randrange(ntypes)] += 1
    decls = []
    k = 0
    for i, tname in enumerate(names):
        alts = []
        for j in range(per_type[i]):
            if j == 0:
                fields = []
            elif j == 1:
                fields = [names[(i + 1) % ntypes]]
                while rng.random() < 0.4:
                    fields.append(rng.choice(names))
            else:
                fields = [rng.choice(names) for _ in range(rng.randint(0, 3))]
            alts.append(" ".join([f"K{k}"] + fields))
            k += 1
        decls.append(f"data {tname} = " + " | ".join(alts))
    return "\n".join(decls) + "\n"


class Wide60(_Tuning):
    """Uniform cost on a seeded 60-constructor family, capped at a fixed
    number of steps (outcome StepCap). Golden replay at the default seed."""

    name = "wide60"
    golden_file = "wide60.json"

    def prepare(self, seed: int, smoke: bool) -> Inputs:
        text = wide60_source(seed)
        u = bg.parse_universe(text, "T0")
        cfg = SearchConfig(delta=WIDE60_DELTA, max_steps=1 if smoke else WIDE60_STEPS)
        describe = {"decls": text, "root": "T0", "size": WIDE60_SIZE,
                    "delta": WIDE60_DELTA, "max_steps": cfg.max_steps, "costs": "uniform"}
        data = {"size": WIDE60_SIZE, "cfg": cfg, "costs": [bg.uniform_cost(u)],
                "text": text, "root": "T0"}
        return Inputs(describe, u, data)


# ---------------------------------------------------------------------------
# Sampling statistics
# ---------------------------------------------------------------------------

SPEC_FILE = "tree_weighted_spec.json"
DERIVE_BUDGET = 10 ** 6


def _load_spec(u):
    spec = GenSpec.load(INPUTS / SPEC_FILE)
    return spec, spec.universe_hash == bg.universe_hash(u)


def _spec_target(u):
    """Layer-probe target of the spec workloads: the checked-in spec and
    the Table-1 cost it was tuned for."""
    spec, _ = _load_spec(u)
    cost = bg.weighted_cost(u, {"Tree.LeafA": 3, "Tree.LeafB": 1, "Tree.LeafC": 1})
    return u, spec.size, cost, TABLE1_DELTA, [spec.probabilities], [spec.probabilities]


class Sampling:
    """verify (prediction plus dragen statistics, z-scored here), then the
    histogram statistics of megadeth on Tree and derive on T, where about
    half the runs exhaust the budget."""

    name = "sampling"
    min_batches = 3

    def prepare(self, seed: int, smoke: bool) -> Inputs:
        text = read_input("tree.adt")
        u = bg.parse_universe(text, "Tree")
        dtext = read_input("derive.adt")
        du = bg.parse_universe(dtext, "T")
        counts = (300, 300, 100) if smoke else (4000, 8000, 1000)
        describe = {"decls": text, "derive_decls": dtext,
                    "spec": read_input(SPEC_FILE), "seed": seed, "counts": counts,
                    "budget": DERIVE_BUDGET}
        spec, _ = _load_spec(u)
        data = {"seed": seed, "counts": counts, "du": du, "text": text, "root": "Tree",
                "mega": bg.adhoc_genspec(u, spec.size, "megadeth"),
                "derive": bg.adhoc_genspec(du, 0, "derive"),
                "q": checks.extinction_reference(du, bg.uniform_probmap(du, du.family))["T"],
                "mega_ref": checks.megadeth_expected(u, spec.size)}
        return Inputs(describe, u, data)

    def run(self, inp: Inputs, rec) -> list[Op]:
        d = inp.data
        u, seed = inp.u, d["seed"]
        n_verify, n_mega, n_derive = d["counts"]
        t0 = perf_counter()
        with rec.span("sampling.GenSpec.load"):
            spec, hash_ok = _load_spec(u)
        with rec.span("prediction.predict_constructors"):
            report = bg.predict_constructors(u, spec.probabilities, spec.size)
        with rec.span("prediction.predict_foreign"):
            predicted = report.totals()
            predicted.update(bg.predict_foreign(u, report))
        with rec.span("sampling.empirical_stats.dragen"):
            stats = bg.empirical_stats(u, spec, n_verify, seed)
        z = checks.z_scores(predicted, stats.mean_counts, stats.std_err)
        t1 = perf_counter()
        with rec.span("sampling.empirical_stats.megadeth"):
            mega = bg.empirical_stats(u, d["mega"], n_mega, seed)
            mega_csv = bg.histogram_csv(mega)
        t2 = perf_counter()
        with rec.span("sampling.empirical_stats.derive"):
            der = bg.empirical_stats(d["du"], d["derive"], n_derive, seed, budget=DERIVE_BUDGET)
            der_csv = bg.histogram_csv(der)
        t3 = perf_counter()
        return [
            Op("sampling.verify", {"hash_ok": hash_ok, "predicted": predicted, "z": z,
                                   "stats": stats.to_json_dict()}, {"s": t1 - t0},
               {"stats": stats, "z": z}),
            Op("sampling.histogram.megadeth", {"stats": mega.to_json_dict(), "csv": mega_csv},
               {"s": t2 - t1}, {"stats": mega}),
            Op("sampling.histogram.derive", {"stats": der.to_json_dict(), "csv": der_csv},
               {"s": t3 - t2}, {"stats": der}),
        ]

    def check(self, inp: Inputs, ops: list[Op]) -> list[str | None]:
        d = inp.data
        verify, mega, der = (op.output for op in ops)
        out = []
        worst = max((abs(v) for v in verify["z"].values()), default=0.0)
        if not verify["hash_ok"]:
            out.append("spec universeHash does not match the declarations")
        elif worst > checks.Z_LIMIT:
            out.append(f"worst |z| {worst:.2f} > {checks.Z_LIMIT}")
        else:
            out.append(_histogram_problem(verify["stats"]))

        ms = mega["stats"]
        means = ms["meanCounts"]
        ref = d["mega_ref"]
        mz = checks.z_scores(ref, means, ms["stdErr"])
        worst_m = max(abs(v) for v in mz.values())
        out.append(f"megadeth worst |z| {worst_m:.2f}" if worst_m > checks.Z_LIMIT
                   else _histogram_problem(ms))

        ds = der["stats"]
        n = ds["samples"]
        frac = ds["budgetExhausted"] / n
        q = d["q"]
        se = math.sqrt(q * (1 - q) / n)
        if abs(frac - (1 - q)) > checks.Z_LIMIT * se:
            out.append(f"derive abort fraction {frac:.4f} vs 1-q = {1 - q:.4f}")
        else:
            out.append(_histogram_problem(ds))
        return out

    def summary(self, inp, batches) -> dict:
        n_verify, n_mega, n_derive = inp.data["counts"]
        verify = statistics.median(ops[0].times["s"] for ops in batches)
        hist = statistics.median(ops[1].times["s"] + ops[2].times["s"] for ops in batches)
        z = max(abs(v) for v in batches[0][0].keep["z"].values())
        der = batches[0][2].keep["stats"]
        return {"verify_samples_per_s": (n_verify / verify, "1/s"),
                "histogram_samples_per_s": ((n_mega + n_derive) / hist, "1/s"),
                "sampling.verify_worst_z": (z, "sigma"),
                "sampling.derive_abort_frac": (der.budget_exhausted / der.samples, "ratio")}

    def probe_target(self, inp, ops):
        return _spec_target(inp.u)

    def trace_report(self, inp, ops, recs) -> dict:
        spans = [s for r in recs for s in r.spans]
        out = {}
        total_ctors = 0.0
        total_s = 0.0
        for strat, n, op in zip(("dragen", "megadeth", "derive"), inp.data["counts"], ops):
            t = statistics.median(durations(spans, f"sampling.empirical_stats.{strat}"))
            out[f"sampling.stats_us.{strat}"] = (t / n * 1e6, "us")
            st = op.keep["stats"]
            total_ctors += sum(st.mean_counts.values()) * (st.samples - st.budget_exhausted)
            total_s += t
        out["sampling.ctors_per_s"] = (total_ctors / total_s, "1/s")
        out["prediction.predict_us"] = (
            statistics.median(durations(spans, "prediction.predict_constructors")) * 1e6, "us")
        return out


def _histogram_problem(stats: dict) -> str | None:
    """Histogram frequencies plus aborts total the sample count, and the
    histogram's constructor total equals the means' total."""
    hist = {int(k): v for k, v in stats["sizeHistogram"].items()}
    done = stats["samples"] - stats["budgetExhausted"]
    if sum(hist.values()) != done:
        return "size histogram does not total the finished samples"
    if done:
        mean_total = sum(k * v for k, v in hist.items()) / done
        if not checks.close(mean_total, sum(stats["meanCounts"].values()), rtol=1e-9):
            return "size histogram disagrees with the mean counts"
    return None


# ---------------------------------------------------------------------------
# Materialized values
# ---------------------------------------------------------------------------

VALUE_SIZE = 10
DERIVE_VALUE_BUDGET = 1000


class Values:
    """Sample and serialize values: dragen on the tuned Tree spec and on the
    composite universe (foreign types, ground atoms), megadeth on Tree,
    derive on T1/T2 and on T (where half the runs exhaust a small budget).
    Each sampler call rebuilds its tables, as the CLI's `sample` command
    does."""

    name = "values"
    min_batches = 3

    def prepare(self, seed: int, smoke: bool) -> Inputs:
        text = read_input("tree.adt")
        ctext = read_input("composite.adt")
        ttext = read_input("t1t2.adt")
        dtext = read_input("derive.adt")
        u = bg.parse_universe(text, "Tree")
        cu = bg.parse_universe(ctext, "Tree")
        tu = bg.parse_universe(ttext, "T1")
        du = bg.parse_universe(dtext, "T")
        # Tuned-Tree value sizes vary widely, so that op draws the most
        # values: its total work then varies little from seed to seed. Few
        # draws on T: whether one exhausts the budget varies with the seed,
        # and an exhausted draw costs a full budget of nodes.
        n, n_tree, n_abortable = (20, 20, 5) if smoke else (600, 2400, 40)
        spec, _ = _load_spec(u)
        plan = [  # (op suffix, universe, sampler, count, max family depth)
            ("dragen.tree", u, "dragen", n_tree, spec.size),
            ("dragen.composite", cu, "dragen", n, VALUE_SIZE),
            ("megadeth.tree", u, "megadeth", n, VALUE_SIZE.bit_length()),
            ("derive.t1t2", tu, "derive", n, None),
            ("derive.T", du, "derive", n_abortable, None),
        ]
        describe = {"decls": [text, ctext, ttext, dtext], "spec": read_input(SPEC_FILE),
                    "seed": seed, "plan": [(p[0], p[3]) for p in plan],
                    "size": VALUE_SIZE, "budget": DERIVE_VALUE_BUDGET}
        data = {"seed": seed, "plan": plan, "spec": spec, "text": text, "root": "Tree",
                "cspec": bg.adhoc_genspec(cu, VALUE_SIZE, "dragen")}
        return Inputs(describe, u, data)

    def run(self, inp: Inputs, rec) -> list[Op]:
        d = inp.data
        seed = d["seed"]
        ops = []
        for suffix, u, strategy, count, _ in d["plan"]:
            spec = d["spec"] if u is inp.u else d["cspec"]
            sexps, jsons = [], []
            aborted = 0
            t0 = perf_counter()
            for i in range(count):
                with rec.span(f"sampling.sample_{strategy}"):
                    if strategy == "dragen":
                        v = bg.sample_dragen(u, spec, seed, i)
                    elif strategy == "megadeth":
                        v = bg.sample_megadeth(u, None, VALUE_SIZE, seed, i)
                    else:
                        v = bg.sample_derive(u, DERIVE_VALUE_BUDGET, seed, i)
                if isinstance(v, bg.BudgetExhausted):
                    sexps.append(None)
                    jsons.append(None)
                    aborted += 1
                    continue
                with rec.span("sampling.value_to_sexp"):
                    sexps.append(bg.value_to_sexp(v))
                with rec.span("sampling.value_to_json"):
                    jsons.append(bg.value_to_json(v))
            ops.append(Op(f"values.{suffix}", {"sexp": sexps, "json": jsons},
                          {"s": perf_counter() - t0}, {"aborted": aborted}))
        return ops

    def check(self, inp: Inputs, ops: list[Op]) -> list[str | None]:
        out = []
        for op, (_, u, strategy, _, depth) in zip(ops, inp.data["plan"]):
            out.append(_value_problem(u, op.output, depth, strategy == "derive"))
        return out

    def summary(self, inp, batches) -> dict:
        n = sum(p[3] for p in inp.data["plan"])
        t = statistics.median(sum(op.times["s"] for op in ops) for ops in batches)
        aborted = sum(op.keep["aborted"] for op in batches[0])
        return {"values_per_s": (n / t, "1/s"), "sampling.derive_value_aborts": (aborted, "count")}

    def probe_target(self, inp, ops):
        return _spec_target(inp.u)

    def trace_report(self, inp, ops, recs) -> dict:
        spans = [s for r in recs for s in r.spans]
        out = {}
        for strat in ("dragen", "megadeth", "derive"):
            out[f"sampling.value_us.{strat}"] = (
                statistics.median(durations(spans, f"sampling.sample_{strat}")) * 1e6, "us")
        for fmt in ("sexp", "json"):
            out[f"sampling.serialize_us.{fmt}"] = (
                statistics.median(durations(spans, f"sampling.value_to_{fmt}")) * 1e6, "us")
        return out


def _value_problem(u, output: dict, max_depth, may_abort: bool) -> str | None:
    for sexp, text in zip(output["sexp"], output["json"]):
        if text is None:
            if not may_abort:
                return "budget exhausted in a size-bounded strategy"
            continue
        try:
            tree = checks.strict_json(text)
        except ValueError as exc:
            return f"value JSON does not parse: {exc}"
        problem = checks.check_value_tree(tree, u, max_depth)
        if problem:
            return problem
        if checks.render_sexp(tree) != sexp:
            return f"S-expression {sexp[:60]!r} does not match the value"
    return None


# ---------------------------------------------------------------------------
# Edge: `branchgen predict` through the CLI
# ---------------------------------------------------------------------------

EDGE_GRID = (  # (universe file, root, probability overrides, sizes)
    ("tree.adt", "Tree", {"Tree.Node": 0.3}, (10, 100, 2000, 100_000)),
    ("tree.adt", "Tree", {"Tree.Node": 0.499}, (10, 2000, 100_000)),
    ("tree.adt", "Tree", {"Tree.Node": 0.5}, (10,)),
    ("tree.adt", "Tree", {"Tree.Node": 0.6}, (10, 2000, 100_000)),
    ("tree.adt", "Tree", {"Tree.Node": 0.9}, (10, 100, 2000)),
    ("t1t2.adt", "T1", {}, (10, 2000, 100_000)),
    ("derive.adt", "T", {}, (10, 100, 2000, 100_000)),
)
EDGE_SMOKE_GRID = (
    ("tree.adt", "Tree", {"Tree.Node": 0.3}, (10, 100)),
    ("tree.adt", "Tree", {"Tree.Node": 0.9}, (10,)),
    ("t1t2.adt", "T1", {}, (10,)),
    ("derive.adt", "T", {}, (10,)),
)


def _edge_probs(u, overrides: dict) -> dict:
    """Uniform, except that an overridden constructor's type shares the
    remaining mass equally among its other constructors."""
    probs = bg.uniform_probmap(u, u.family)
    for cid, p in overrides.items():
        rest = [c for c in u.constructors_of(u.ctor_type(cid)) if c != cid]
        probs[cid] = p
        for c in rest:
            probs[c] = (1.0 - p) / len(rest)
    return probs


class Edge:
    """Each op is one in-process `branchgen predict` with stdout captured.
    It passes with exit 0 and strict JSON matching the references, or with
    a clean exit 1 and an `error:` message where the exact expectation
    overflows a double."""

    name = "edge"
    min_batches = 1

    def prepare(self, seed: int, smoke: bool) -> Inputs:
        OUT.mkdir(exist_ok=True)
        grid = EDGE_SMOKE_GRID if smoke else EDGE_GRID
        plan = []
        for fname, root, overrides, sizes in grid:
            u = bg.parse_universe(read_input(fname), root)
            probs = _edge_probs(u, overrides)
            tag = fname.split(".")[0] + "".join(
                f"-{k.split('.')[1]}={v}" for k, v in overrides.items())
            ppath = OUT / f"edge-{tag}.json"
            ppath.write_text(json.dumps(bg.probmap_to_json(probs)), encoding="utf-8")
            ext = checks.extinction_reference(u, probs)
            for size in sizes:
                argv = ["predict", "-f", str(INPUTS / fname), "--root", root,
                        "--size", str(size), "--probs", str(ppath)]
                plan.append((f"edge.{tag}.size={size}", argv,
                             checks.reference_expected(u, probs, size), ext))
        describe = {"grid": [(g[0], g[1], g[2], g[3]) for g in grid],
                    "decls": {g[0]: read_input(g[0]) for g in grid}}
        text = read_input("tree.adt")
        return Inputs(describe, bg.parse_universe(text, "Tree"),
                      {"plan": plan, "text": text, "root": "Tree"})

    def run(self, inp: Inputs, rec) -> list[Op]:
        ops = []
        for name, argv, _, _ in inp.data["plan"]:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with rec.span("cli.main"), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception:  # a traceback is an outcome to report, not a crash
                    code = None
                    err.write(traceback.format_exc())
            text = out.getvalue()
            ops.append(Op(name, {"code": code, "stdout": text, "stderr": err.getvalue()},
                          {"s": perf_counter() - t0},
                          {"nonfinite": "Infinity" in text or "NaN" in text}))
        return ops

    def check(self, inp: Inputs, ops: list[Op]) -> list[str | None]:
        return [edge_problem(op.output, ref, ext)
                for op, (_, _, ref, ext) in zip(ops, inp.data["plan"])]

    def summary(self, inp, batches) -> dict:
        times = [op.times["s"] for ops in batches for op in ops]
        return {"report_p50_ms": (statistics.median(times) * 1e3, "ms"),
                "report_max_s": (max(times), "s")}

    def probe_target(self, inp, ops):
        u = inp.u
        probs = bg.uniform_probmap(u, u.family)
        return u, 10, bg.uniform_cost(u), TABLE1_DELTA, [probs], [probs]

    def trace_report(self, inp, ops, recs) -> dict:
        """Extinction solves replayed once per distinct universe and map,
        and the median command split into the library calls it makes
        (replayed outside the CLI) and the CLI's own time."""
        def load(argv):
            u = bg.parse_universe(Path(argv[2]).read_text(encoding="utf-8"), argv[4])
            return u, bg.load_probmap(Path(argv[8]).read_text(encoding="utf-8"), u)

        plan = inp.data["plan"]
        ext: dict = {}
        for _, argv, _, _ in plan:
            key = (argv[2], argv[8])
            if key not in ext:
                u, probs = load(argv)
                t0 = perf_counter()
                bg.extinction_probability(u, probs)
                ext[key] = perf_counter() - t0
        mains = durations(recs[0].spans, "cli.main")
        mid = sorted(range(len(mains)), key=mains.__getitem__)[len(mains) // 2]
        argv = plan[mid][1]
        t0 = perf_counter()
        u, probs = load(argv)
        t1 = perf_counter()
        bg.prediction_report_json(u, probs, int(argv[6]))
        t2 = perf_counter()
        return {
            "prediction.extinction_s": (sum(ext.values()) / len(ext), "s"),
            "prediction.extinction_max_s": (max(ext.values()), "s"),
            "prediction.report_ms": ((t2 - t1) * 1e3, "ms"),
            "cli.predict_self_ms": ((mains[mid] - (t2 - t0)) * 1e3, "ms"),
            "prediction.nonfinite_reports": (sum(op.keep["nonfinite"] for op in ops), "count"),
        }


def edge_problem(output: dict, reference: dict, extinction: dict) -> str | None:
    finite = all(math.isfinite(v) for v in reference.values())
    code = output["code"]
    if code == 1:
        if output["stdout"] or not output["stderr"].startswith("error:"):
            return "exit 1 without a clean `error:` message"
        return "exit 1 although the expectation is finite" if finite else None
    if code != 0:
        return f"exit {code!r}: {output['stderr'].strip().splitlines()[-1:]}"
    try:
        doc = checks.strict_json(output["stdout"])
    except ValueError as exc:
        return f"stdout is not strict JSON ({exc})"
    bad = checks.prediction_mismatches(doc.get("expected", {}), reference)
    if bad:
        return "expected counts off: " + ", ".join(bad[:2])
    got = doc.get("extinction", {})
    for tid, q in extinction.items():
        if not isinstance(got.get(tid), (int, float)) or abs(got[tid] - q) > checks.EXT_ATOL:
            return f"extinction {tid} = {got.get(tid)!r}, reference {q!r}"
    return None


WORKLOADS = {w.name: w for w in (Table1(), Wide60(), Sampling(), Values(), Edge())}


# ---------------------------------------------------------------------------
# Per-layer unit costs on a workload's own universe and probability maps
# ---------------------------------------------------------------------------

def probe_layers(wl, inp: Inputs, ops: list[Op], seed: int) -> dict:
    """Time each layer's public call on the workload's inputs, so every
    layer has a figure on every workload: parse, one prediction, one cost
    evaluation, one neighbour enumeration, one extinction solve, one full
    report, sampler statistics per sample, one value and its serializations."""
    u, size, cost, delta, replay, finals = wl.probe_target(inp, ops)
    text, root = inp.data["text"], inp.data["root"]
    spec = GenSpec(u.root, size, "dragen", finals[0], bg.star_probs(u, finals[0]),
                   bg.universe_hash(u))
    mega = bg.adhoc_genspec(u, size, "megadeth")
    n_stats = 200
    values = [bg.sample_dragen(u, spec, seed, i) for i in range(50)]
    return {
        "adt.parse_ms": (median_time(lambda _: bg.parse_universe(text, root), [0]) * 1e3, "ms"),
        "prediction.predict_us": (
            median_time(lambda p: bg.predict_constructors(u, p, size), replay) * 1e6, "us"),
        "prediction.extinction_s": (
            median_time(lambda p: bg.extinction_probability(u, p), finals, min_calls=3), "s"),
        "prediction.report_ms": (
            median_time(lambda p: bg.prediction_report_json(u, p, size), finals,
                        min_calls=3) * 1e3, "ms"),
        "costs.eval_us": (median_time(lambda p: cost(size, p), replay) * 1e6, "us"),
        "search.neighbors_us": (
            median_time(lambda p: neighbors(u, p, delta, cost.pinned), replay) * 1e6, "us"),
        "sampling.stats_us.dragen": (
            median_time(lambda _: bg.empirical_stats(u, spec, n_stats, seed), [0],
                        min_calls=3) / n_stats * 1e6, "us"),
        "sampling.stats_us.megadeth": (
            median_time(lambda _: bg.empirical_stats(u, mega, n_stats, seed), [0],
                        min_calls=3) / n_stats * 1e6, "us"),
        "sampling.value_us.dragen": (
            median_time(lambda i: bg.sample_dragen(u, spec, seed, i), list(range(50))) * 1e6,
            "us"),
        "sampling.serialize_us.sexp": (median_time(bg.value_to_sexp, values) * 1e6, "us"),
        "sampling.serialize_us.json": (median_time(bg.value_to_json, values) * 1e6, "us"),
    }
