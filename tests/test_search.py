import random

import pytest

import helpers
from branchgen import (
    AdtError,
    GenSpec,
    SearchConfig,
    derive_generator,
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
)
from branchgen.costs import CostFunction
from branchgen.search import EPSILON_STOP, LOCAL_MINIMUM, STEP_CAP
from test_acceptance import TABLE_CFG, TABLE_ROWS


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
        with pytest.raises(AdtError):
            SearchConfig(delta=0.0)
        with pytest.raises(AdtError):
            SearchConfig(epsilon=0.0)
        with pytest.raises(AdtError):
            SearchConfig(max_steps=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(AdtError):
                SearchConfig(epsilon=bad)
            with pytest.raises(AdtError):
                SearchConfig(quantum=bad)
            with pytest.raises(AdtError):
                SearchConfig(max_steps=bad)


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

    def test_stock_cost_scores_each_step_in_one_batch(self, tree_u):
        batches = []
        inner = uniform_cost(tree_u)

        class Counting(CostFunction):
            def scores(self, size, maps):
                batches.append(len(maps))
                return super().scores(size, maps)

        cost = Counting(inner.label, inner.universe, inner.targets, inner.pinned)
        _, trace = optimize(cost, 10, uniform_probmap(tree_u))
        assert sum(batches) == trace.evaluations
        assert len(batches) <= len(trace.steps) + 1 < trace.evaluations


class TestTableOneLandscape:
    # The published vectors need steps finer than the 0.01 default: near
    # their optima some probabilities sit around 0.05, where an absolute
    # 0.01 bump moves expected counts by ~17%.
    CFG = SearchConfig(delta=0.002)

    def test_uniform_row(self, tree_u):
        spec = derive_generator(tree_u, 10, uniform_cost(tree_u), self.CFG)
        totals = predict_constructors(tree_u, spec.probabilities, 10).totals()
        published = {"Tree.LeafA": 5.26, "Tree.LeafB": 5.26,
                     "Tree.LeafC": 5.21, "Tree.Node": 14.73}
        for cid, want in published.items():
            assert totals[cid] == pytest.approx(want, rel=0.10)

    def test_weighted_leaf_ratio(self, tree_u):
        cost = weighted_cost(tree_u, {"Tree.LeafA": 3, "Tree.LeafB": 1,
                                      "Tree.LeafC": 1})
        spec = derive_generator(tree_u, 10, cost, self.CFG)
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
        spec = derive_generator(treepp_u, 10,
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
        spec = derive_generator(tree_u, 10, uniform_cost(tree_u))
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
