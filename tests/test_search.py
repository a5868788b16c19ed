import math
import random
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers
from branchgen import (
    AdtError,
    GenSpec,
    SearchConfig,
    adhoc_genspec,
    derive_generator_with_trace,
    neighbors,
    optimize,
    only_cost,
    parse_universe,
    predict_constructors,
    renormalize_probmap,
    uniform_cost,
    uniform_probmap,
    universe_hash,
    validate_probmap,
    weighted_cost,
    without_cost,
)
from branchgen.costs import CostFunction, Scorer
from branchgen.prediction import LEVEL_LOOP_MAX, _family_probs, _type_matrices
from branchgen import search
from branchgen.search import EPSILON_STOP, LOCAL_MINIMUM, STEP_CAP, _Rows
from test_acceptance import TABLE_CFG, TABLE_ROWS
from test_costs import _scored


class TestNeighbors:
    def test_bump_renormalizes(self, tree_u):
        probs = uniform_probmap(tree_u)
        out = neighbors(tree_u, probs, delta=0.05)
        # the +delta bump on Node: (0.25, 0.25, 0.25, 0.30) / 1.05
        nb = max(out, key=lambda m: m["Tree.Node"])
        assert nb["Tree.Node"] == pytest.approx(0.2857142857142857, abs=1e-12)
        for leaf in ("Tree.LeafA", "Tree.LeafB", "Tree.LeafC"):
            assert nb[leaf] == pytest.approx(0.23809523809523808, abs=1e-12)

    def test_single_constructor_type_fixed(self):
        u = parse_universe("data U = OnlyU", "U")
        assert neighbors(u, {"U.OnlyU": 1.0}, delta=0.01) == []

    def test_no_free_column_has_no_neighbors(self, tree_u):
        probs = uniform_probmap(tree_u)
        assert neighbors(tree_u, probs, 0.01, pinned=set(probs)) == []
        assert neighbors(tree_u, {}, 0.01) == []

    def test_clamped_duplicate_dropped(self, tree_u):
        probs = {"Tree.LeafA": 0.0, "Tree.LeafB": 0.4, "Tree.LeafC": 0.3,
                 "Tree.Node": 0.3}
        out = neighbors(tree_u, probs, delta=0.05)
        # LeafA - delta clamps to 0 and renormalizes back to probs: dropped
        keys = {tuple(round(nb[c], 9) for c in sorted(nb)) for nb in out}
        assert len(keys) == len(out)
        assert tuple(round(probs[c], 9) for c in sorted(probs)) not in keys

    def test_pinned_stay_zero(self, tree_u):
        pinned = frozenset({"Tree.LeafB", "Tree.LeafC"})
        probs = renormalize_probmap(tree_u, uniform_probmap(tree_u), pinned)
        for nb in neighbors(tree_u, probs, delta=0.01, pinned=pinned):
            assert nb["Tree.LeafB"] == 0.0 and nb["Tree.LeafC"] == 0.0
            validate_probmap(tree_u, nb)

    def test_per_type_normalization(self):
        rng = random.Random(11)
        for _ in range(20):
            u, _ = helpers.random_universe(rng)
            probs = helpers.random_probmap(rng, u)
            for nb in neighbors(u, probs, delta=0.02):
                validate_probmap(u, nb)

    def test_multi_type_bump_leaves_other_types_alone(self, t1t2_u):
        probs = {"T1.A": 0.5, "T1.B": 0.5, "T2.C": 0.7, "T2.D": 0.3}
        for nb in neighbors(t1t2_u, probs, delta=0.05):
            changed_t1 = any(nb[c] != probs[c] for c in ("T1.A", "T1.B"))
            changed_t2 = any(nb[c] != probs[c] for c in ("T2.C", "T2.D"))
            assert changed_t1 != changed_t2


class TestOptimize:
    def test_every_constructor_pinned_stops_at_the_start(self, tree_u):
        family = tree_u.family_constructors()
        cost = CostFunction("pinned", tree_u, (("Tree.Node", 1.0),), frozenset(family))
        init = dict.fromkeys(family, 0.0)
        best, trace = optimize(cost, 10, init)
        assert best == init and trace.steps == [(init, 10.0)]
        assert (trace.outcome, trace.evaluations) == (LOCAL_MINIMUM, 1)

    def test_no_targets_scores_zero_and_stops(self, tree_u):
        cost = CostFunction("none", tree_u, (), frozenset())
        init = uniform_probmap(tree_u)
        assert cost(10, init) == 0.0
        best, trace = optimize(cost, 10, init)
        assert best == init and trace.steps == [(init, 0.0)]
        assert (trace.outcome, trace.evaluations) == (LOCAL_MINIMUM, 9)

    def test_no_neighbors_is_local_minimum(self):
        u = parse_universe("data U = OnlyU", "U")
        cost = uniform_cost(u)
        best, trace = optimize(cost, 10, {"U.OnlyU": 1.0})
        assert best == {"U.OnlyU": 1.0}
        assert trace.outcome == LOCAL_MINIMUM
        assert len(trace.steps) == 1

    def test_init_at_minimum_is_local_minimum(self, tree_u):
        inner = uniform_cost(tree_u)

        class DistanceFromUniform(CostFunction):
            def __call__(self, size, probs):
                return sum((p - 0.25) ** 2 for p in probs.values())

        cost = DistanceFromUniform(inner.label, inner.universe, inner.targets,
                                   inner.pinned)
        init = uniform_probmap(tree_u)
        best, trace = optimize(cost, 10, init)
        assert best == init
        assert trace.outcome == LOCAL_MINIMUM
        assert len(trace.steps) == 1

    def test_epsilon_stop(self, tree_u):
        cost = uniform_cost(tree_u)
        _, trace = optimize(cost, 10, uniform_probmap(tree_u),
                            SearchConfig(epsilon=1e9))
        assert trace.outcome == EPSILON_STOP
        assert len(trace.steps) == 1

    def test_an_overflowing_start_takes_no_step(self):
        # at size 10^4 the wide60 start and each of its neighbors cost inf,
        # so every gain is inf - inf, which is nan, and no step is taken
        text = (Path(__file__).parent / "wide60_seed0.adt").read_text(encoding="utf-8")
        u = parse_universe(text, "T0")
        cost = uniform_cost(u)
        init = renormalize_probmap(u, uniform_probmap(u, u.family), pinned=cost.pinned)
        (best, trace), _ = _recorded(lambda: optimize(cost, 10_000, init))
        assert best == init and trace.steps == [(init, math.inf)]
        assert (trace.outcome, trace.evaluations) == (LOCAL_MINIMUM, 121)
        ref, _ = _recorded(lambda: helpers.reference_optimize(cost, 10_000, init, SearchConfig()))
        assert (ref[1], ref[2], ref[3]) == (trace.steps, LOCAL_MINIMUM, 121)

    def test_a_nan_cost_is_never_chosen(self, tree_u):
        # an opaque cost that is nan on the start's first neighbor, the
        # first one it scores: min() would keep that leading nan, and a nan
        # gain is neither <= 0 nor <= epsilon
        cost = uniform_cost(tree_u)
        init = uniform_probmap(tree_u)
        poisoned = neighbors(tree_u, init, 0.01)[0]

        class Poisoned(Forwarding):
            def __call__(self, size, probs):
                return math.nan if probs == poisoned else super().__call__(size, probs)

        _, trace = optimize(Poisoned(cost), 10, init)
        ref = helpers.reference_optimize(Poisoned(cost), 10, init, SearchConfig())
        assert len(trace.steps) > 1 and not any(math.isnan(c) for _, c in trace.steps)
        assert [(_items(m), c) for m, c in trace.steps] == [(_items(m), c) for m, c in ref[1]]
        assert (trace.outcome, trace.evaluations) == (ref[2], ref[3])

    def test_step_cap(self, tree_u):
        cost = uniform_cost(tree_u)
        _, trace = optimize(cost, 10, uniform_probmap(tree_u),
                            SearchConfig(max_steps=1))
        assert trace.outcome == STEP_CAP
        assert len(trace.steps) == 2

    def test_result_never_worse_than_init(self, tree_u):
        cost = uniform_cost(tree_u)
        init = uniform_probmap(tree_u)
        best, trace = optimize(cost, 10, init)
        assert cost(10, best) <= cost(10, init)
        assert trace.steps[-1][1] <= trace.steps[0][1]

    def test_trace_strictly_decreasing(self, tree_u):
        cost = uniform_cost(tree_u)
        _, trace = optimize(cost, 10, uniform_probmap(tree_u))
        costs = [c for _, c in trace.steps]
        eps = SearchConfig().epsilon
        assert all(a - b > eps for a, b in zip(costs, costs[1:]))

    def test_deterministic(self, tree_u):
        cost = uniform_cost(tree_u)
        r1 = optimize(cost, 10, uniform_probmap(tree_u))
        r2 = optimize(cost, 10, uniform_probmap(tree_u))
        assert r1[0] == r2[0]
        assert r1[1].steps == r2[1].steps
        assert r1[1].outcome == r2[1].outcome

    def test_no_probmap_evaluated_twice(self, tree_u):
        seen = []
        inner = uniform_cost(tree_u)

        class Spy(CostFunction):
            def __call__(self, size, probs):
                seen.append(tuple(round(probs[c] / 1e-6) for c in sorted(probs)))
                return inner(size, probs)

        spy = Spy(inner.label, inner.universe, inner.targets, inner.pinned)
        optimize(spy, 10, uniform_probmap(tree_u))
        assert len(seen) == len(set(seen))

    def test_every_visited_map_valid(self, tree_u):
        inner = only_cost(tree_u, ["LeafA", "Node"])

        class Spy(CostFunction):
            def __call__(self, size, probs):
                validate_probmap(tree_u, probs)
                assert probs["Tree.LeafB"] == 0.0
                assert probs["Tree.LeafC"] == 0.0
                return inner(size, probs)

        spy = Spy(inner.label, inner.universe, inner.targets, inner.pinned)
        init = renormalize_probmap(tree_u, uniform_probmap(tree_u), inner.pinned)
        best, _ = optimize(spy, 10, init)
        assert best["Tree.LeafB"] == 0.0

    def test_init_must_satisfy_pins(self, tree_u):
        cost = only_cost(tree_u, ["LeafA", "Node"])
        with pytest.raises(AdtError, match="pinned"):
            optimize(cost, 10, uniform_probmap(tree_u))

    def test_config_validation(self):
        for bad in (0.0, -0.1, float("nan"), float("inf"), 1.0, "0.1"):
            with pytest.raises(AdtError, match=r"delta must be in \[1e-06, 1\), got "):
                SearchConfig(delta=bad)
        for bad in (0.0, "1"):
            with pytest.raises(AdtError, match="epsilon must be positive and finite"):
                SearchConfig(epsilon=bad)
        with pytest.raises(AdtError):
            SearchConfig(max_steps=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(AdtError):
                SearchConfig(epsilon=bad)
            with pytest.raises(AdtError):
                SearchConfig(max_steps=bad)

    def test_delta_below_the_quantum_is_refused(self, tree_u):
        # a smaller step rounds every neighbor to the map it leaves, so the
        # search would stop after one evaluation
        message = r"delta must be in \[1e-06, 1\), got 5e-07"
        with pytest.raises(AdtError, match=message):
            SearchConfig(delta=5e-7)
        with pytest.raises(AdtError, match=message):
            neighbors(tree_u, uniform_probmap(tree_u), 5e-7)
        assert SearchConfig(delta=search.QUANTUM).delta == 1e-6
        assert len(neighbors(tree_u, uniform_probmap(tree_u), search.QUANTUM)) == 8


    @pytest.mark.parametrize("bad", [True, 2.5, "10"])
    def test_max_steps_must_be_an_integer(self, bad):
        with pytest.raises(AdtError, match="max_steps must be an integer of at least 1"):
            SearchConfig(max_steps=bad)
        assert SearchConfig(max_steps=np.int64(3)).max_steps == 3

    def test_non_finite_probability_is_an_error(self, tree_u):
        for bad in (float("nan"), float("inf")):
            probs = dict(uniform_probmap(tree_u), **{"Tree.Node": bad})
            with pytest.raises(AdtError, match="finite"):
                neighbors(tree_u, probs, 0.01)
        # a negative entry is rejected as the prediction rejects it, not
        # clamped to 0
        probs = dict(uniform_probmap(tree_u), **{"Tree.LeafA": -0.5})
        with pytest.raises(AdtError, match="probability of Tree.LeafA must be finite "
                                           "and nonnegative, got -0.5"):
            neighbors(tree_u, probs, 0.01)
        # neighbors takes the deltas SearchConfig takes, and no others
        for bad in (float("inf"), float("nan"), -0.1, 0.0, 1.0, "0.1", True):
            with pytest.raises(AdtError, match=r"delta must be in \[1e-06, 1\), got "):
                neighbors(tree_u, uniform_probmap(tree_u), bad)


def _search_input(rng, u, delta):
    """A map over ``u``'s family with random pins, some unpinned entries at
    0 or exactly delta (so their -delta bump clamps to 0), every pinned
    entry 0, and a shuffled key order. Each type's first constructor, a
    terminal, stays positive and unpinned."""
    probs = helpers.random_probmap(rng, u)
    pinned = set()
    for tid in u.family:
        for cid in u.constructors_of(tid)[1:]:
            r = rng.random()
            if r < 0.15:
                pinned.add(cid)
                probs[cid] = 0.0
            elif r < 0.3:
                probs[cid] = 0.0
            elif r < 0.45:
                probs[cid] = delta
    keys = list(probs)
    rng.shuffle(keys)
    return {k: probs[k] for k in keys}, frozenset(pinned)


def _random_cost(rng, u, kind):
    """uniform, or only/without over random non-first constructors, so
    every type keeps a terminal."""
    if kind == "uniform":
        return uniform_cost(u)
    chosen = [c for tid in u.family for c in u.constructors_of(tid)[1:] if rng.random() < 0.5]
    if kind == "only":
        return only_cost(u, [u.constructors_of(tid)[0] for tid in u.family] + chosen)
    return without_cost(u, chosen)


def _items(m):
    return list(m.items())


class TestRowsMatchReference:
    """The row-based enumeration and search equal the dict-based reference
    in ``helpers``: same maps with ``==``, same key order, same path. Both
    read ``search.QUANTUM``, which the tests also coarsen, so that many
    candidates share a key."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           delta=st.sampled_from([0.002, 0.01, 0.05, 0.3]),
           quantum=st.sampled_from([1e-6, 1e-3, 0.02]),
           wide=st.booleans())
    def test_neighbors(self, seed, delta, quantum, wide):
        assume(quantum <= delta)  # a smaller step is refused
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, *((10, 40) if wide else (4, 8)))
        probs, pinned = _search_input(rng, u, delta)
        with patch.object(search, "QUANTUM", quantum):
            got = neighbors(u, probs, delta, pinned)
            want = helpers.reference_neighbors(u, probs, delta, pinned)
        assert [_items(m) for m in got] == [_items(m) for m in want]

    def test_keys_round_half_to_even(self):
        # at quantum 0.25 the focus entry 0.125 quantizes to 0, as round()
        # does, so the candidate at (0, 3/7, 4/7) repeats the focus key
        u = parse_universe("data U = A | B | C", "U")
        probs = {"U.A": 0.125, "U.B": 0.375, "U.C": 0.5}
        with patch.object(search, "QUANTUM", 0.25):
            got = neighbors(u, probs, 0.25)
            assert got == helpers.reference_neighbors(u, probs, 0.25)
        assert {"U.A": 0.0, "U.B": 0.375 / 0.875, "U.C": 0.5 / 0.875} not in got
        assert len(got) == 4

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(0, 130),
           quantum=st.sampled_from([1e-6, 1e-3, 0.02, 1.0]))
    def test_keys_are_each_rows_bytes(self, seed, k, quantum):
        # one key per row, in row order: the bytes of that row's quantized
        # entries, each taken on its own
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, 10, 60)
        rows = _Rows(u, u.family_constructors(), frozenset(), 0.01)
        m = np.array([[rng.choice([0.0, -0.0, 0.5, rng.random()]) for _ in rows.order] + [0.0]
                      for _ in range(k)]).reshape(k, len(rows.order) + 1)
        with patch.object(search, "QUANTUM", quantum):
            keys = rows.quantized(m)
        assert keys == [(np.rint(r / quantum) + 0.0).tobytes() for r in m]

    def test_negative_zero_keys_like_zero(self):
        # A's -delta bump clamps -0.0 to 0.0 and leaves the map unchanged
        u = parse_universe("data U = A | B | C", "U")
        probs = {"U.A": -0.0, "U.B": 0.5, "U.C": 0.5}
        got = neighbors(u, probs, 0.1)
        assert got == helpers.reference_neighbors(u, probs, 0.1)
        assert len(got) == 5

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "only", "without"]),
           delta=st.sampled_from([0.01, 0.05]),
           quantum=st.sampled_from([1e-6, 1e-3, 0.02]),
           size=st.integers(1, 10))
    def test_optimize(self, seed, kind, delta, quantum, size):
        assume(quantum <= delta)  # a smaller step is refused
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng)
        cost = _random_cost(rng, u, kind)
        probs, _ = _search_input(rng, u, delta)
        init = renormalize_probmap(u, probs, cost.pinned)
        # a step may move all of a type's terminals to 0, which warns
        with patch.object(search, "QUANTUM", quantum), \
                warnings.catch_warnings(record=True) as caught:
            config = SearchConfig(delta=delta, max_steps=40)
            warnings.simplefilter("always")
            best, trace = optimize(cost, size, init, config)
            ref_best, ref_steps, ref_outcome, ref_evaluations = helpers.reference_optimize(
                cost, size, init, config)
        assert all("all terminal constructors of" in str(w.message) for w in caught)
        assert _items(best) == _items(ref_best)
        assert [(_items(m), c) for m, c in trace.steps] == [(_items(m), c) for m, c in ref_steps]
        assert (trace.outcome, trace.evaluations) == (ref_outcome, ref_evaluations)


class Forwarding:
    """A wrapper shaped like a tracing one: it forwards only calls and the
    attributes ``optimize`` reads, so the optimizer must call it per map."""

    def __init__(self, cost):
        self._cost = cost
        self.label = cost.label
        self.universe = cost.universe
        self.targets = cost.targets
        self.pinned = cost.pinned

    def __call__(self, size, probs):
        return self._cost(size, probs)


def _run(cost, size, init, config):
    best, trace = optimize(cost, size, init, config)
    return best, trace.steps, trace.outcome, trace.evaluations


class TestScoringRoutes:
    """The batched route (stock CostFunction) and the per-map route (any
    other callable) give the same search."""

    @pytest.mark.parametrize("make_cost", [make for _, make, _ in TABLE_ROWS],
                             ids=[name for name, _, _ in TABLE_ROWS])
    def test_table_one_rows(self, tree_u, make_cost):
        cost = make_cost(tree_u)
        init = renormalize_probmap(tree_u, uniform_probmap(tree_u), cost.pinned)
        assert _run(Forwarding(cost), 10, init, TABLE_CFG) == _run(cost, 10, init, TABLE_CFG)

    def test_ten_type_family(self):
        u, _ = helpers.random_universe(random.Random(5), max_types=10, max_ctors=60)
        assert len(u.family) == 10
        cost = uniform_cost(u)
        config = SearchConfig(max_steps=8)
        init = uniform_probmap(u, u.family)
        assert _run(Forwarding(cost), 10, init, config) == _run(cost, 10, init, config)

    def test_subclass_keeping_call_is_scored_by_one_scorer(self, tree_u, monkeypatch):
        # the route reads __call__ alone: a subclass that inherits it is
        # scored through one Scorer per search, not called once per map
        built = []

        class Counting(Scorer):
            def __init__(self, cost, size):
                built.append(size)
                super().__init__(cost, size)

        class Tagged(CostFunction):
            tag = "tagged"

        inner = uniform_cost(tree_u)
        cost = Tagged(inner.label, inner.universe, inner.targets, inner.pinned)
        init = uniform_probmap(tree_u)
        want = _run(inner, 10, init, None)
        monkeypatch.setattr(search, "Scorer", Counting)
        got = _run(cost, 10, init, None)
        assert got == want and built == [10]
        assert _run(Forwarding(cost), 10, init, None) == want and built == [10]


class TestTableOneLandscape:
    # The published vectors need steps finer than the 0.01 default: near
    # their optima some probabilities sit around 0.05, where an absolute
    # 0.01 bump moves expected counts by ~17%.
    CFG = SearchConfig(delta=0.002)

    def test_uniform_row(self, tree_u):
        spec, _ = derive_generator_with_trace(tree_u, 10, uniform_cost(tree_u), self.CFG)
        totals = predict_constructors(tree_u, spec.probabilities, 10).totals()
        published = {"Tree.LeafA": 5.26, "Tree.LeafB": 5.26,
                     "Tree.LeafC": 5.21, "Tree.Node": 14.73}
        for cid, want in published.items():
            assert totals[cid] == pytest.approx(want, rel=0.10)

    def test_weighted_leaf_ratio(self, tree_u):
        cost = weighted_cost(tree_u, {"Tree.LeafA": 3, "Tree.LeafB": 1,
                                      "Tree.LeafC": 1})
        spec, _ = derive_generator_with_trace(tree_u, 10, cost, self.CFG)
        totals = predict_constructors(tree_u, spec.probabilities, 10).totals()
        assert totals["Tree.LeafA"] / totals["Tree.LeafB"] == pytest.approx(3.0, rel=0.10)
        assert totals["Tree.LeafA"] / totals["Tree.LeafC"] == pytest.approx(3.0, rel=0.10)


class TestDeriveGenerator:
    def test_packaging(self, tree_u):
        spec, trace = derive_generator_with_trace(tree_u, 10, uniform_cost(tree_u))
        assert spec.root == "Tree"
        assert spec.size == 10
        assert spec.strategy == "dragen"
        assert spec.universe_hash == universe_hash(tree_u)
        validate_probmap(tree_u, spec.probabilities)
        assert sum(spec.star_probabilities.values()) == pytest.approx(1.0)
        assert trace.steps

    def test_constraint_pinning(self, treepp_u):
        spec, _ = derive_generator_with_trace(treepp_u, 10,
                                              only_cost(treepp_u, ["LeafA", "NodeA"]))
        assert spec.probabilities["Tree''.LeafB"] == 0.0
        assert spec.probabilities["Tree''.NodeB"] == 0.0
        assert spec.star_probabilities["Tree''.LeafA"] == 1.0

    def test_single_constructor_universe(self):
        u = parse_universe("data U = OnlyU", "U")
        spec, trace = derive_generator_with_trace(u, 5, uniform_cost(u))
        assert spec.probabilities == {"U.OnlyU": 1.0}
        assert len(trace.steps) == 1

    def test_genspec_json_round_trip(self, tree_u, tmp_path):
        spec = derive_generator_with_trace(tree_u, 10, uniform_cost(tree_u))[0]
        path = tmp_path / "spec.json"
        spec.save(path)
        again = GenSpec.load(path)
        assert again == spec

    def test_genspec_rejects_malformed(self):
        with pytest.raises(AdtError, match="malformed"):
            GenSpec.from_json_dict({"root": "T"})
        with pytest.raises(AdtError, match="strategy"):
            GenSpec.from_json_dict({
                "root": "T", "size": 1, "strategy": "nope",
                "probabilities": {}, "starProbabilities": {},
                "universeHash": ""})
        with pytest.raises(AdtError, match="generator size must be a nonnegative integer, got -1"):
            GenSpec.from_json_dict({
                "root": "T", "size": -1, "strategy": "dragen",
                "probabilities": {}, "starProbabilities": {},
                "universeHash": ""})

    @pytest.mark.parametrize("strategy", ["dragen", "megadeth", "derive"])
    def test_adhoc_specs_obey_the_file_format_size_rule(self, tree_u, tmp_path, strategy):
        # a numpy size is kept as an int, so the spec saves and loads back
        spec = adhoc_genspec(tree_u, np.int64(3), strategy)
        assert type(spec.size) is int
        path = tmp_path / "spec.json"
        spec.save(path)
        assert GenSpec.load(path) == spec
        # a negative size fails the factory and the format with one message
        errors = []
        data = spec.to_json_dict()
        data["size"] = -1
        for call in (lambda: adhoc_genspec(tree_u, -1, strategy),
                     lambda: GenSpec.from_json_dict(data)):
            with pytest.raises(AdtError) as err:
                call()
            errors.append(str(err.value))
        assert errors == ["generator size must be a nonnegative integer, got -1"] * 2

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read {path}: No such file or directory"),
        ('{"root": ', "malformed generator spec {path}: Expecting value"),
    ], ids=["missing", "not-json"])
    def test_genspec_load_errors(self, tmp_path, text, message):
        path = tmp_path / "spec.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(AdtError) as exc:
            GenSpec.load(path)
        assert str(exc.value).startswith(message.format(path=path))


def _starve(rng, u, probs, pinned):
    """``probs`` with one type that has an unpinned non-terminal of positive
    probability, if any, left without terminal mass (the type renormalized
    over the rest)."""
    starvable = [t for t in u.family
                 if any(u.ctor_decl(c).family_arity() and c not in pinned and probs[c] > 0.0
                        for c in u.constructors_of(t))]
    if not starvable:
        return probs
    ctors = u.constructors_of(rng.choice(starvable))
    out = dict(probs)
    for c in ctors:
        if not u.ctor_decl(c).family_arity():
            out[c] = 0.0
    total = sum(out[c] for c in ctors)
    for c in ctors:
        out[c] /= total
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _recorded(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, [str(w.message) for w in caught]


def _candidates(rng, u, cost, delta, starve):
    """A starting map for ``cost`` (starved when ``starve``) and its first
    step's candidates: as maps, as a family-probability matrix, and with
    the family type each one changes; and the starting map's family row."""
    probs, _ = _search_input(rng, u, delta)
    init = renormalize_probmap(u, probs, cost.pinned)
    if starve:
        init = _starve(rng, u, init, cost.pinned)
    rows = _Rows(u, init, cost.pinned, delta)
    x = rows.row(init)
    fresh, moves, _, _ = rows.candidates(x[None])
    cu = u.compiled
    family = [rows.column[c] for c in cu.ctors[:cu.nfamily_ctors]]
    types = np.array([cu.index[u.ctor_type(rows.order[b])] for b in rows.bumped[moves]],
                     dtype=np.intp)
    return init, [rows.as_dict(r) for r in fresh], fresh[:, family], types, x[family]


def _search_scorer(cost, size, init):
    """The scorer ``optimize`` builds for ``cost``, after it has scored
    ``init``, and the warnings scoring ``init`` gave."""
    scorer = Scorer(cost, size)
    _, caught = _recorded(lambda: _scored(scorer, _family_probs(cost.universe.compiled, init)))
    return scorer, caught


class TestFocusRows:
    """Scoring a step's candidates from the focus map's type matrix, with
    one row rebuilt per candidate, equals the full build bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "only", "without"]),
           size=st.integers(1, 12), starve=st.booleans(),
           delta=st.sampled_from([0.01, 0.05, 0.3]))
    def test_batch_equals_full_build(self, seed, kind, size, starve, delta):
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, max_types=10, max_ctors=40)
        cost = _random_cost(rng, u, kind)
        init, _, p, types, focus = _candidates(rng, u, cost, delta, starve)
        scorer, init_warnings = _search_scorer(cost, size, init)

        scored, scored_warnings = _recorded(lambda: _scored(scorer, p, types, focus))
        full, full_warnings = _recorded(lambda: _scored(Scorer(cost, size), p))
        assert _same_bits(scored, full)
        assert _same_bits(scorer.matrices(p, types, focus), _type_matrices(u.compiled, p))
        # each scorer warns once per type; the search's scorer not again for
        # a type it warned about on the focus
        assert scored_warnings == [w for w in dict.fromkeys(full_warnings)
                                   if w not in init_warnings]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "only", "without"]),
           size=st.integers(1, 10), starve=st.booleans())
    def test_optimize_on_ten_types(self, seed, kind, size, starve):
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, max_types=10, max_ctors=40)
        cost = _random_cost(rng, u, kind)
        probs, _ = _search_input(rng, u, 0.05)
        init = renormalize_probmap(u, probs, cost.pinned)
        if starve:
            init = _starve(rng, u, init, cost.pinned)
        config = SearchConfig(delta=0.05, max_steps=12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            best, trace = optimize(cost, size, init, config)
            ref_best, ref_steps, ref_outcome, ref_evaluations = helpers.reference_optimize(
                cost, size, init, config)
        assert _items(best) == _items(ref_best)
        assert [(_items(m), c) for m, c in trace.steps] == [(_items(m), c) for m, c in ref_steps]
        assert (trace.outcome, trace.evaluations) == (ref_outcome, ref_evaluations)

    def test_one_scorer_per_search(self, monkeypatch):
        # the stock cost's search builds one scorer, and scores the initial
        # map, then each step's candidates in one call that names each
        # candidate's bumped type
        u, _ = helpers.random_universe(random.Random(5), max_types=10, max_ctors=60)
        built, calls = [], []

        class Spy(Scorer):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

            def __call__(self, p, types=None, focus=None):
                calls.append((len(p), None if types is None else len(types)))
                return super().__call__(p, types, focus)

        monkeypatch.setattr("branchgen.search.Scorer", Spy)
        _, trace = optimize(uniform_cost(u), 10, uniform_probmap(u, u.family),
                            SearchConfig(max_steps=3))
        assert len(built) == 1
        assert trace.outcome == STEP_CAP and len(calls) == len(trace.steps) == 4
        assert calls[0] == (1, None) and all(n == t for n, t in calls[1:])
        assert sum(n for n, _ in calls) == trace.evaluations

    def test_search_warns_once_per_starved_type(self):
        # T's only terminal is pinned to 0, so T starves in every map the
        # search scores; U's terminal starts at 0, so U starves in some
        u = parse_universe("data T = A | N T U | M T\ndata U = B | K U T", "T")
        cost = CostFunction("starved", u, (("T.N", 1.0), ("T.M", 1.0), ("U.K", 1.0)),
                            frozenset({"T.A"}))
        init = {"T.A": 0.0, "T.N": 0.5, "T.M": 0.5, "U.B": 0.0, "U.K": 1.0}
        config = SearchConfig(delta=0.05, max_steps=30)
        (best, trace), caught = _recorded(lambda: optimize(cost, 6, init, config))
        ref, ref_caught = _recorded(lambda: helpers.reference_optimize(cost, 6, init, config))
        assert caught == [
            f"all terminal constructors of {t} have probability 0; "
            "using a uniform terminal distribution at the last level" for t in ("T", "U")]
        assert len(trace.steps) > 5 and len(ref_caught) > trace.evaluations
        assert (_items(best), [(_items(m), c) for m, c in trace.steps],
                trace.outcome, trace.evaluations) == (
            _items(ref[0]), [(_items(m), c) for m, c in ref[1]], ref[2], ref[3])


def _one_type_cost(rng, kind):
    """A random one-type family (the Table-1 shape) and a cost on it."""
    while True:
        u, _ = helpers.random_universe(rng, max_types=1, max_ctors=8)
        if any(u.ctor_decl(c).family_arity() for c in u.family_constructors()):
            return u, _random_cost(rng, u, kind)


class TestScorer:
    """The per-search scorer on one-type families, with pins and starved
    terminals, bit for bit: against the scalar route up to size 12, and
    against scoring the maps one at a time in the doubling branch."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "only", "without"]),
           size=st.integers(1, 12), starve=st.booleans(),
           delta=st.sampled_from([0.01, 0.05, 0.3]))
    def test_one_type_matches_scalar_cost(self, seed, kind, size, starve, delta):
        rng = random.Random(seed)
        u, cost = _one_type_cost(rng, kind)
        init, maps, p, types, focus = _candidates(rng, u, cost, delta, starve)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scorer, _ = _search_scorer(cost, size, init)
            got = scorer(p, types, focus)
        assert _same_bits(got, [helpers.scalar_cost(cost, size, m) for m in maps])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "only", "without"]),
           size=st.integers(129, 300), starve=st.booleans(),
           delta=st.sampled_from([0.01, 0.05, 0.3]))
    def test_one_type_doubling_matches_one_map_at_a_time(self, seed, kind, size, starve, delta):
        rng = random.Random(seed)
        u, cost = _one_type_cost(rng, kind)
        init, maps, p, types, focus = _candidates(rng, u, cost, delta, starve)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scorer, _ = _search_scorer(cost, size, init)
            got = scorer(p, types, focus)
            want = [cost(size, m) for m in maps]
        # a supercritical map's counts may overflow to inf, and inf * 0 is
        # nan: the bytes compare nans too
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestConvergedWide60:
    """The search path on a realistic universe, run to convergence: the
    wide60 benchmark family at seed 0 (checked in next to this file), under
    the uniform cost at size 10 with delta 0.01."""

    def test_uniform_search_reaches_the_pinned_endpoint(self):
        text = (Path(__file__).parent / "wide60_seed0.adt").read_text(encoding="utf-8")
        u = parse_universe(text, "T0")
        cost = uniform_cost(u)
        init = renormalize_probmap(u, uniform_probmap(u, u.family), pinned=cost.pinned)
        (best, trace), caught = _recorded(
            lambda: optimize(cost, 10, init, SearchConfig(delta=0.01)))
        assert trace.outcome == LOCAL_MINIMUM
        assert len(trace.steps) == 1437 and trace.evaluations == 166_354
        assert trace.steps[-1][1] == pytest.approx(174.4015294198668, rel=1e-12, abs=0.0)
        assert best == trace.steps[-1][0]
        # the search warns once per type it starves, and only about that
        assert caught and len(set(caught)) == len(caught)
        assert all(w.endswith("have probability 0; using a uniform terminal distribution "
                              "at the last level") for w in caught)


def _long_search_input(rng, kind, delta, starve, tight=False):
    """A family of up to 3 types and 8 constructors, a cost of ``kind`` on
    it and a starting map for it (starved when ``starve``; with ``tight``,
    most terminals start at delta). The family and the cost are redrawn
    while the cost leaves the root type one free constructor: that is its
    first, a terminal, so every map draws only that and costs the same, and
    the search stops at the start."""
    while True:
        u, _ = helpers.random_universe(rng, max_types=3, max_ctors=8)
        cost = _random_cost(rng, u, kind)
        if sum(c not in cost.pinned for c in u.constructors_of(u.root)) > 1:
            break
    probs, _ = _search_input(rng, u, delta)
    if tight:
        # terminals at delta: their -delta bumps starve a type, also in
        # blocks past the step the search leaves the chain at
        for cid in u.family_constructors():
            if not u.ctor_decl(cid).family_arity() and rng.random() < 0.7:
                probs[cid] = delta
    init = renormalize_probmap(u, probs, cost.pinned)
    if starve:
        init = _starve(rng, u, init, cost.pinned)
    return u, cost, init


class TestLookahead:
    """A scorer call covers the focus and, after a repeated move, the maps
    that repeating it reaches (``_Rows.chain``), a chain that doubles each
    time the search follows it to its end; after two different moves, the
    focus's candidates but the one that undoes the last move
    (``_Rows.branch``). The search still takes its steps one at a time, so
    it equals the one-map-at-a-time reference; a step off the lookahead
    costs time only."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "only", "without"]),
           size=st.one_of(st.integers(1, 10),
                          st.integers(LEVEL_LOOP_MAX + 1, LEVEL_LOOP_MAX + 40)),
           delta=st.sampled_from([0.002, 0.01, 0.05]),
           epsilon=st.sampled_from([1e-6, 1e-3, 0.3]),
           max_steps=st.integers(1, 60), tight=st.booleans(), starve=st.booleans())
    def test_optimize_matches_reference(self, seed, kind, size, delta, epsilon,
                                        max_steps, tight, starve):
        u, cost, init = _long_search_input(random.Random(seed), kind, delta, starve, tight)
        # at most 16 moves, so a call covers at least 4 steps
        assert _Rows(u, init, cost.pinned, delta).depth >= 4
        config = SearchConfig(delta=delta, epsilon=epsilon, max_steps=max_steps)
        (best, trace), caught = _recorded(lambda: optimize(cost, size, init, config))
        ref, ref_caught = _recorded(
            lambda: helpers.reference_optimize(cost, size, init, config))
        # the reference warns per map and type; the search once per type,
        # in the order the maps are scored
        assert caught == list(dict.fromkeys(ref_caught))
        assert _items(best) == _items(ref[0])
        assert [(_items(m), c) for m, c in trace.steps] == [(_items(m), c) for m, c in ref[1]]
        assert (trace.outcome, trace.evaluations) == (ref[2], ref[3])

    def test_inputs_take_a_step(self):
        # the examples of ``test_optimize_matches_reference`` check the
        # lookahead only where the search moves: over 200 seeds, with each
        # kind, delta, starving and tight terminals, and sizes 1 to 10, at
        # least 90% take a step
        stepped = 0
        for seed in range(200):
            kind = ("uniform", "only", "without")[seed % 3]
            delta = (0.002, 0.01, 0.05)[seed // 3 % 3]
            u, cost, init = _long_search_input(random.Random(seed), kind, delta,
                                               starve=seed // 9 % 2 == 1,
                                               tight=seed // 18 % 2 == 1)
            config = SearchConfig(delta=delta, max_steps=1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, trace = optimize(cost, 1 + seed % 10, init, config)
            stepped += len(trace.steps) > 1
        assert stepped >= 180

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), delta=st.sampled_from([0.002, 0.01, 0.3]))
    def test_chain_rows_are_the_built_candidates(self, seed, delta):
        # each focus of a chain is, bit for bit, the candidate of its move
        # that ``candidates`` builds from the focus before it
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, max_types=3, max_ctors=8)
        probs, pinned = _search_input(rng, u, delta)
        rows = _Rows(u, probs, pinned, delta)
        assume(len(rows.bumped))
        move = rng.randrange(len(rows.bumped))
        foci = rows.chain(rows.row(probs), move, rows.depth)
        for f in range(1, len(foci)):
            cands, moves, _, _ = rows.candidates(foci[f - 1][None])
            assert foci[f].tobytes() == cands[moves.tolist().index(move)].tobytes()
        if len(foci) < rows.depth:
            # the chain ends where its move's candidate is dead
            _, moves, _, _ = rows.candidates(foci[-1][None])
            assert move not in moves.tolist()

    @pytest.mark.parametrize("make_cost", [make for _, make, _ in TABLE_ROWS],
                             ids=[name for name, _, _ in TABLE_ROWS])
    def test_a_wrapper_is_called_once_per_evaluation(self, tree_u, make_cost):
        cost = make_cost(tree_u)
        calls = []

        class Counting(Forwarding):
            def __call__(self, size, probs):
                calls.append(probs)
                return super().__call__(size, probs)

        init = renormalize_probmap(tree_u, uniform_probmap(tree_u), cost.pinned)
        _, trace = optimize(Counting(cost), 10, init, TABLE_CFG)
        assert len(trace.steps) > 10 and len(calls) == trace.evaluations

    def test_chain_stops_at_a_dead_candidate(self, tree_u):
        # LeafA - delta clamps Tree's only mass to 0: move 1 has no candidate
        probs = {"Tree.LeafA": 0.001, "Tree.LeafB": 0.0, "Tree.LeafC": 0.0, "Tree.Node": 0.0}
        rows = _Rows(tree_u, probs, frozenset(), 0.01)
        x = rows.row(probs)
        assert rows.depth == 8 and 1 not in rows.candidates(x[None])[1].tolist()
        assert rows.chain(x, 1, rows.depth).tobytes() == x.tobytes()

    @pytest.mark.parametrize("make_cost", [make for _, make, _ in TABLE_ROWS],
                             ids=[name for name, _, _ in TABLE_ROWS])
    def test_a_wrapper_shares_the_lookahead(self, tree_u, make_cost, monkeypatch):
        # an opaque cost is called on the reference search's maps, in order,
        # while one candidate build covers several steps
        cost = make_cost(tree_u)
        init = renormalize_probmap(tree_u, uniform_probmap(tree_u), cost.pinned)
        seen, ref_seen, builds = [], [], []

        class Recording(Forwarding):
            def __init__(self, cost, log):
                super().__init__(cost)
                self.log = log

            def __call__(self, size, probs):
                self.log.append(_items(probs))
                return super().__call__(size, probs)

        helpers.reference_optimize(Recording(cost, ref_seen), 10, init, TABLE_CFG)
        candidates = _Rows.candidates
        monkeypatch.setattr(_Rows, "candidates",
                            lambda rows, foci: builds.append(len(foci)) or candidates(rows, foci))
        _, trace = optimize(Recording(cost, seen), 10, init, TABLE_CFG)
        steps = len(trace.steps) - 1
        assert steps > 50 and len(builds) < steps
        assert seen == ref_seen

    @pytest.mark.parametrize("make_cost", [make for _, make, _ in TABLE_ROWS],
                             ids=[name for name, _, _ in TABLE_ROWS])
    def test_tree_takes_fewer_scorer_calls_than_steps(self, tree_u, make_cost, monkeypatch):
        # on Tree (8 moves) a chain covers up to 32 steps and a branch pass
        # 2, and the search repeats its last move on most of its steps
        calls = []

        class Spy(Scorer):
            def __call__(self, p, types=None, focus=None):
                calls.append(len(p))
                return super().__call__(p, types, focus)

        monkeypatch.setattr(search, "Scorer", Spy)
        cost = make_cost(tree_u)
        init = renormalize_probmap(tree_u, uniform_probmap(tree_u), cost.pinned)
        _, trace = optimize(cost, 10, init, TABLE_CFG)
        steps = len(trace.steps) - 1
        assert steps > 50 and 2 * len(calls) < steps
        assert max(calls) <= search.LOOKAHEAD_ROWS

    def test_table_one_rows_take_at_most_270_scorer_calls(self, tree_u, monkeypatch):
        # 408 with a fixed chain of 8 foci; grown chains and branch passes
        # take 270
        calls = []

        class Spy(Scorer):
            def __call__(self, p, types=None, focus=None):
                calls.append(len(p))
                return super().__call__(p, types, focus)

        monkeypatch.setattr(search, "Scorer", Spy)
        for _, make_cost, _ in TABLE_ROWS:
            cost = make_cost(tree_u)
            init = renormalize_probmap(tree_u, uniform_probmap(tree_u), cost.pinned)
            optimize(cost, 10, init, TABLE_CFG)
        assert len(calls) <= 270

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["only", "without"]),
           size=st.integers(1, 10), delta=st.sampled_from([0.002, 0.01]),
           max_steps=st.integers(1, 400), starve=st.booleans())
    def test_long_searches_match_reference(self, seed, kind, size, delta, max_steps, starve):
        # runs long enough for chains to grow to the cap and for zig-zags
        # of branch passes, and step caps that cut either one mid-pass
        u, cost, init = _long_search_input(random.Random(seed), kind, delta, starve)
        # at most 16 moves, so a branch pass holds every candidate but the
        # undo
        assert len(_Rows(u, init, cost.pinned, delta).bumped) <= 16
        config = SearchConfig(delta=delta, max_steps=max_steps)
        (best, trace), caught = _recorded(lambda: optimize(cost, size, init, config))
        ref, ref_caught = _recorded(
            lambda: helpers.reference_optimize(cost, size, init, config))
        assert caught == list(dict.fromkeys(ref_caught))
        assert _items(best) == _items(ref[0])
        assert [(_items(m), c) for m, c in trace.steps] == [(_items(m), c) for m, c in ref[1]]
        assert (trace.outcome, trace.evaluations) == (ref[2], ref[3])

    def test_long_search_inputs_take_a_step(self):
        # the examples of ``test_long_searches_match_reference`` check the
        # lookahead only where the search moves: over 200 seeds, with each
        # kind, delta and starving, and sizes 1 to 10, at least 90% take a
        # step
        stepped = 0
        for seed in range(200):
            kind, delta = ("only", "without")[seed % 2], (0.002, 0.01)[seed // 2 % 2]
            u, cost, init = _long_search_input(random.Random(seed), kind, delta,
                                               starve=seed // 4 % 2 == 1)
            config = SearchConfig(delta=delta, max_steps=1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, trace = optimize(cost, 1 + seed % 10, init, config)
            stepped += len(trace.steps) > 1
        assert stepped >= 180

    @pytest.mark.parametrize("max_steps", [100, 204, 205, 10_000])
    def test_grown_chains_and_branches_match_reference(self, tree_u, monkeypatch, max_steps):
        # uniform on Tree: a 203-step run of Node +delta, taken in a pass of
        # one block, a branch pass, and chains of 8, 16 and 32 foci, then a
        # zig-zag among the leaves in branch passes of two steps; the caps
        # shorten a grown chain, stop at the step that leaves the run, and
        # cut a branch pass after its first step
        lengths = []
        chain = _Rows.chain
        monkeypatch.setattr(_Rows, "chain",
                            lambda rows, x, move, m: lengths.append(m) or chain(rows, x, move, m))
        cost = uniform_cost(tree_u)
        init = uniform_probmap(tree_u)
        config = SearchConfig(delta=0.002, max_steps=max_steps)
        best, trace = optimize(cost, 10, init, config)
        ref = helpers.reference_optimize(cost, 10, init, config)
        assert [(_items(m), c) for m, c in trace.steps] == [(_items(m), c) for m, c in ref[1]]
        assert (trace.outcome, trace.evaluations) == (ref[2], ref[3])
        assert max(lengths) == _Rows(tree_u, init, frozenset(), 0.002).cap == 32

    @pytest.mark.parametrize("n", [9, 12, 16])
    def test_branch_passes_past_16_moves_match_reference(self, monkeypatch, n):
        # at 18 to 32 moves a branch pass holds only the first candidates
        # that fit in ``cap`` foci
        arity = [0, 1, 2, 0, 1, 3, 0, 2, 1, 0, 1, 2, 0, 1, 2, 0]
        u = parse_universe("data T = " + " | ".join(
            f"K{i}" + " T" * arity[i] for i in range(n)), "T")
        cost, init = uniform_cost(u), uniform_probmap(u)
        config = SearchConfig(delta=0.002, max_steps=120)
        cap = _Rows(u, init, frozenset(), 0.002).cap
        assert cap < 2 * n
        branches = []
        branch = _Rows.branch

        def recording(rows, x, move):
            branches.append(branch(rows, x, move))
            return branches[-1]

        monkeypatch.setattr(_Rows, "branch", recording)
        _, trace = optimize(cost, 10, init, config)
        ref = helpers.reference_optimize(cost, 10, init, config)
        assert [(_items(m), c) for m, c in trace.steps] == [(_items(m), c) for m, c in ref[1]]
        assert (trace.outcome, trace.evaluations) == (ref[2], ref[3])
        assert sum(len(foci) == cap for foci in branches) > 10
