import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers
from branchgen import (
    AdtError,
    ConstraintError,
    chi_square,
    neighbors,
    only_cost,
    only_types_cost,
    parse_cost_expression,
    parse_universe,
    predict_constructors,
    renormalize_probmap,
    terminal_constructors,
    uniform_cost,
    uniform_probmap,
    weighted_cost,
    without_cost,
    without_types_cost,
)
from branchgen.costs import Scorer


class TestChiSquare:
    def test_identical_is_zero(self):
        assert chi_square([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_worked_values(self):
        assert chi_square([2.0, 4.0], [4.0, 4.0]) == pytest.approx(1.0)
        assert chi_square([0.0, 8.0], [4.0, 4.0]) == pytest.approx(8.0)

    def test_length_mismatch(self):
        with pytest.raises(AdtError):
            chi_square([1.0], [1.0, 2.0])

    def test_nonpositive_expected(self):
        with pytest.raises(AdtError, match="positive"):
            chi_square([1.0, 2.0], [1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=10))
    def test_self_distance_zero(self, xs):
        assert chi_square(xs, xs) == 0.0

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6),
                              st.floats(min_value=0.01, max_value=1e6)),
                    min_size=1, max_size=10))
    def test_nonnegative(self, pairs):
        obs = [o for o, _ in pairs]
        exp = [e for _, e in pairs]
        assert chi_square(obs, exp) >= 0.0


class TestUniform:
    def test_matches_direct_chi_square(self, tree_u):
        cost = uniform_cost(tree_u)
        probs = uniform_probmap(tree_u)
        predicted = predict_constructors(tree_u, probs, 10).totals()
        want = chi_square([predicted[c] for c in tree_u.family_constructors()],
                          [10.0] * 4)
        assert cost(10, probs) == want

    def test_degenerate_probs_cost_more(self, tree_u):
        cost = uniform_cost(tree_u)
        balanced = {"Tree.LeafA": 0.135, "Tree.LeafB": 0.135,
                    "Tree.LeafC": 0.135, "Tree.Node": 0.595}
        degenerate = {"Tree.LeafA": 0.97, "Tree.LeafB": 0.01,
                      "Tree.LeafC": 0.01, "Tree.Node": 0.01}
        assert cost(10, degenerate) > cost(10, balanced)

    def test_overflow_emits_no_runtime_warning(self, tree_u):
        # Node = 0.9 at size 1000: the counts are finite, their squares not
        probs = {"Tree.LeafA": 0.05, "Tree.LeafB": 0.025, "Tree.LeafC": 0.025,
                 "Tree.Node": 0.9}
        cost = uniform_cost(tree_u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            costs = [cost(size, probs) for size in (1000, 1300, 5000)]
            fine = cost(1000, uniform_probmap(tree_u))
        assert costs == [np.inf] * 3
        assert np.isfinite(fine)

    def test_pure(self, tree_u):
        cost = uniform_cost(tree_u)
        probs = uniform_probmap(tree_u)
        assert cost(10, probs) == cost(10, probs)


class TestWeighted:
    def test_all_ones_equals_uniform_bitwise(self, tree_u, t1t2_u):
        rng = random.Random(1)
        for u in (tree_u, t1t2_u):
            ones = dict.fromkeys(u.family_constructors(), 1)
            # listing order must not matter
            shuffled = list(ones)
            rng.shuffle(shuffled)
            w = weighted_cost(u, {c: 1 for c in shuffled})
            uni = uniform_cost(u)
            for size in (5, 10, 17):
                probs = helpers.random_probmap(rng, u)
                assert w(size, probs) == uni(size, probs)

    def test_unknown_constructor(self, tree_u):
        with pytest.raises(AdtError, match="unknown constructor"):
            weighted_cost(tree_u, {"Tree.Nope": 2})

    def test_empty(self, tree_u):
        with pytest.raises(AdtError, match="at least one"):
            weighted_cost(tree_u, {})

    def test_nonpositive_weight(self, tree_u):
        with pytest.raises(AdtError, match="positive"):
            weighted_cost(tree_u, {"Tree.Node": 0})
        # a weight must be a number, as a probability must: not a string,
        # and not a bool, though float takes both
        for bad in ("3", True):
            with pytest.raises(AdtError) as exc:
                weighted_cost(tree_u, {"LeafA": bad})
            assert str(exc.value) == f"weight for Tree.LeafA must be a number, got {bad!r}"
        assert weighted_cost(tree_u, {"LeafA": np.int64(3)}).targets == (("Tree.LeafA", 3.0),)

    def test_unlisted_do_not_contribute(self, tree_u):
        cost = weighted_cost(tree_u, {"Tree.LeafA": 1})
        probs = uniform_probmap(tree_u)
        predicted = predict_constructors(tree_u, probs, 10).totals()
        assert cost(10, probs) == pytest.approx(
            (predicted["Tree.LeafA"] - 10.0) ** 2 / 10.0)

    def test_foreign_constructor_rejected(self, composite_u):
        with pytest.raises(ConstraintError, match="not in the branching family"):
            weighted_cost(composite_u, {"Bool.True": 1})
        for make in (only_cost, without_cost):
            with pytest.raises(ConstraintError, match="Bool.True is not in the branching family"):
                make(composite_u, ["Bool.True"])


class TestOnlyWithout:
    def test_only_pins_complement(self, tree_u):
        cost = only_cost(tree_u, ["LeafA", "Node"])
        assert cost.pinned == {"Tree.LeafB", "Tree.LeafC"}
        assert [c for c, _ in cost.targets] == ["Tree.LeafA", "Tree.Node"]

    def test_without_pins_list(self, tree_u):
        cost = without_cost(tree_u, ["LeafC"])
        assert cost.pinned == {"Tree.LeafC"}
        assert [c for c, _ in cost.targets] == [
            "Tree.LeafA", "Tree.LeafB", "Tree.Node"]

    def test_without_empty_equals_uniform_bitwise(self, tree_u):
        rng = random.Random(2)
        w = without_cost(tree_u, [])
        uni = uniform_cost(tree_u)
        for _ in range(3):
            probs = helpers.random_probmap(rng, tree_u)
            assert w(10, probs) == uni(10, probs)

    def test_excluding_all_terminals(self, tree_u):
        with pytest.raises(ConstraintError, match="terminal"):
            without_cost(tree_u, ["LeafA", "LeafB", "LeafC"])

    def test_only_keeping_nothing_of_a_type(self, t1t2_u):
        with pytest.raises(ConstraintError, match="every constructor"):
            only_cost(t1t2_u, ["T1.A", "T1.B"])

    def test_pinned_evaluation_is_exact_zero_mass(self, tree_u):
        cost = without_cost(tree_u, ["LeafC"])
        probs = renormalize_probmap(tree_u, uniform_probmap(tree_u), cost.pinned)
        assert probs["Tree.LeafC"] == 0.0
        predicted = predict_constructors(tree_u, probs, 10).totals()
        assert predicted["Tree.LeafC"] == 0.0


class TestTypeFilters:
    def test_without_types_propagates(self, t1t2_u):
        cost = without_types_cost(t1t2_u, ["T2"])
        # B references T2, so pinning T2's constructors also kills B
        assert cost.pinned == {"T2.C", "T2.D", "T1.B"}
        assert [c for c, _ in cost.targets] == ["T1.A"]
        probs = renormalize_probmap(t1t2_u, uniform_probmap(t1t2_u), cost.pinned)
        assert probs == {"T1.A": 1.0, "T1.B": 0.0, "T2.C": 0.0, "T2.D": 0.0}
        # the process degenerates to the terminal A
        totals = predict_constructors(t1t2_u, probs, 10).totals()
        assert totals["T1.A"] == pytest.approx(1.0)
        assert totals["T1.B"] == totals["T2.C"] == totals["T2.D"] == 0.0

    def test_only_types_all_equals_uniform(self, t1t2_u):
        rng = random.Random(3)
        w = only_types_cost(t1t2_u, ["T1", "T2"])
        uni = uniform_cost(t1t2_u)
        probs = helpers.random_probmap(rng, t1t2_u)
        assert w(10, probs) == uni(10, probs)
        assert w.pinned == frozenset()

    def test_root_exclusion(self, t1t2_u):
        with pytest.raises(ConstraintError, match="root"):
            only_types_cost(t1t2_u, ["T2"])
        with pytest.raises(ConstraintError, match="root"):
            without_types_cost(t1t2_u, ["T1"])

    def test_disconnection_detected(self):
        u = parse_universe("data T1 = B T1 T2 | E T2\ndata T2 = C | D T1", "T1")
        with pytest.raises(ConstraintError, match="disconnect|terminate"):
            without_types_cost(u, ["T2"])

    def test_unknown_type(self, t1t2_u):
        with pytest.raises(AdtError, match="unknown type"):
            without_types_cost(t1t2_u, ["T9"])

    def test_foreign_type_rejected(self, composite_u):
        with pytest.raises(ConstraintError, match="not in the branching family"):
            without_types_cost(composite_u, ["Bool"])

    def test_first_bad_name_in_the_order_given(self, composite_u):
        # checking a set of names would report one of each pair's names
        # in both orders, whichever the hash seed puts first
        with pytest.raises(ConstraintError, match="Bool is not in the branching family"):
            without_types_cost(composite_u, ["Bool", "T9"])
        with pytest.raises(AdtError, match="unknown type: T9"):
            without_types_cost(composite_u, ["T9", "Bool"])
        with pytest.raises(AdtError, match="unknown type: T8"):
            only_types_cost(composite_u, ["Tree", "T8", "T9"])
        with pytest.raises(AdtError, match="unknown type: T9"):
            only_types_cost(composite_u, ["Tree", "T9", "T8"])


class TestCostExpressions:
    def test_uniform(self, tree_u):
        assert parse_cost_expression(tree_u, "uniform").label == "uniform"

    def test_weighted(self, tree_u):
        cost = parse_cost_expression(
            tree_u, "weighted(Tree.LeafA=3,Tree.LeafB=1,Tree.LeafC=1)")
        assert dict(cost.targets) == {
            "Tree.LeafA": 3.0, "Tree.LeafB": 1.0, "Tree.LeafC": 1.0}

    def test_only_without(self, tree_u):
        assert parse_cost_expression(
            tree_u, "only(Tree.LeafA,Tree.Node)").pinned == {
                "Tree.LeafB", "Tree.LeafC"}
        assert parse_cost_expression(tree_u, "without(Tree.LeafC)").pinned == {
            "Tree.LeafC"}

    def test_type_filters(self, t1t2_u):
        assert parse_cost_expression(t1t2_u, "withoutTypes(T2)").pinned == {
            "T2.C", "T2.D", "T1.B"}
        assert parse_cost_expression(t1t2_u, "onlyTypes(T1,T2)").pinned == frozenset()

    def test_bare_names_resolve(self, tree_u):
        cost = parse_cost_expression(tree_u, "weighted(LeafA=3,Node=1)")
        assert dict(cost.targets) == {"Tree.LeafA": 3.0, "Tree.Node": 1.0}

    def test_rejects_garbage(self, tree_u):
        for text in ("nope", "weighted(X)", "weighted(LeafA=much)", "only()(", ""):
            with pytest.raises(AdtError):
                parse_cost_expression(tree_u, text)
        with pytest.raises(AdtError, match="uniform takes no arguments"):
            parse_cost_expression(tree_u, "uniform(Node)")


def _random_cost(rng, u, kind):
    """uniform, or only/without over a random set of constructors. Every
    type keeps its first constructor, which random_universe makes a
    terminal, so the exclusion is always viable."""
    if kind == "uniform":
        return uniform_cost(u)
    chosen = [c for tid in u.family for c in u.constructors_of(tid)[1:] if rng.random() < 0.5]
    if kind == "only":
        return only_cost(u, [u.constructors_of(tid)[0] for tid in u.family] + chosen)
    return without_cost(u, chosen)


def _without_terminal_mass(u, probs, pinned):
    """For each type with an unpinned non-terminal, ``probs`` with that
    type's terminals set to 0 and the type renormalized over the rest."""
    out = []
    for tid in u.family:
        ctors = u.constructors_of(tid)
        terms = set(terminal_constructors(tid, u))
        if any(c not in terms and c not in pinned for c in ctors):
            starved = dict(probs)
            for c in terms:
                starved[c] = 0.0
            total = sum(starved[c] for c in ctors)
            for c in ctors:
                starved[c] /= total
            out.append(starved)
    return out


def _recorded(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, [str(w.message) for w in caught]


def _scored(scorer, p, types=None, focus=None):
    """``scorer``'s costs of the rows of ``p``, warning for all of them, as
    a caller that keeps every row does."""
    costs = scorer(p, types, focus)
    scorer.warn()
    return costs


class TestBatchedScores:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "only", "without"]),
           size=st.integers(1, 12), zero_terminal_mass=st.booleans())
    def test_equal_to_one_map_at_a_time(self, seed, kind, size, zero_terminal_mass):
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng)
        cost = _random_cost(rng, u, kind)
        probs = renormalize_probmap(u, helpers.random_probmap(rng, u), cost.pinned)
        maps = neighbors(u, probs, 0.05, cost.pinned)
        starved = _without_terminal_mass(u, probs, cost.pinned) if zero_terminal_mass else []
        for m in starved:
            maps.insert(rng.randint(0, len(maps)), m)

        p = helpers.family_rows(u, maps)
        batched, batched_warnings = _recorded(lambda: _scored(Scorer(cost, size), p))
        single, single_warnings = _recorded(lambda: [cost(size, m) for m in maps])
        assert batched == single
        assert batched == [helpers.scalar_cost(cost, size, m) for m in maps]
        # one map at a time warns once per (map, type), a scorer once per type
        assert batched_warnings == list(dict.fromkeys(single_warnings))
        assert len(single_warnings) >= len(starved)

    def test_empty_batch(self, tree_u):
        assert Scorer(uniform_cost(tree_u), 10)(np.empty((0, 4))) == []

    @pytest.mark.parametrize("row, bad", [([-0.5, 0.5, 0.5, 0.5], "Tree.LeafA.*got -0.5"),
                                          ([0.2, np.nan, 0.3, 0.5], "Tree.LeafB.*got nan"),
                                          ([0.2, 0.3, 0.5, np.inf], "Tree.Node.*got inf")])
    def test_probability_matrix_is_checked_as_maps_are(self, tree_u, row, bad):
        # a map's entries are checked one by one, each error naming its
        # constructor
        probs = dict(zip(tree_u.family_constructors(), row))
        with pytest.raises(AdtError, match=bad):
            uniform_cost(tree_u)(10, probs)
        with pytest.raises(AdtError, match=bad):
            predict_constructors(tree_u, probs, 10)

    def test_negative_and_nan_entries_in_one_matrix(self, tree_u):
        # the first bad entry of a map, in declaration order, is reported
        for row, bad in (([-0.5, np.nan, 0.5, 0.5], "Tree.LeafA .* got -0.5"),
                         ([np.nan, -0.5, 0.3, 0.5], "Tree.LeafA .* got nan")):
            probs = dict(zip(tree_u.family_constructors(), row))
            with pytest.raises(AdtError, match=bad):
                uniform_cost(tree_u)(10, probs)
            with pytest.raises(AdtError, match=bad):
                predict_constructors(tree_u, probs, 10)


EXCLUSIONS = {"only": only_cost, "without": without_cost,
              "onlyTypes": only_types_cost, "withoutTypes": without_types_cost}

# Declaration sets whose constructors take any family types, so that a type
# may have no terminal at all: T0 is the root, a field is a type index
# (modulo the number of types) or a ground atom.
_DECLS = st.lists(st.lists(st.lists(st.one_of(st.integers(0, 3), st.just("Int")),
                                    max_size=3),
                           min_size=1, max_size=4),
                  min_size=1, max_size=4)


def _declared(types):
    n = len(types)
    lines = []
    for i, ctors in enumerate(types):
        alts = [" ".join([f"C{i}_{j}"] + [f if f == "Int" else f"T{f % n}" for f in fields])
                for j, fields in enumerate(ctors)]
        lines.append(f"data T{i} = " + " | ".join(alts))
    try:
        return parse_universe("\n".join(lines), "T0")
    except AdtError:
        # a recursive type outside the root's family
        assume(False)


def _outcome(fn):
    try:
        return fn()
    except ConstraintError as exc:
        return str(exc)


class TestExclusionsMatchWalks:
    """Every exclusion cost's pinned set or error text against the
    declaration walks that the live-support analysis replaced
    (``helpers.reference_pinned``)."""

    def _check(self, u, kind, rng):
        others = [t for t in u.family if t != u.root]
        names = {
            "only": [c for c in u.family_constructors() if rng.random() < 0.7],
            "without": [c for c in u.family_constructors() if rng.random() < 0.3],
            "onlyTypes": [u.root] + [t for t in others if rng.random() < 0.6],
            "withoutTypes": [t for t in others if rng.random() < 0.4],
        }[kind]
        got = _outcome(lambda: EXCLUSIONS[kind](u, names).pinned)
        want = _outcome(lambda: helpers.reference_pinned(u, kind, names))
        if got == want:
            return
        # The walk names the first starved type it visits, the analysis the
        # first in family order; they differ only when two or more are.
        excluded = set(u.family) - set(names) if kind == "onlyTypes" else set(names)
        pinned = helpers.propagate_dead_types(
            u, {c for t in excluded for c in u.constructors_of(t)})
        starved = helpers.starved_types(u, pinned)
        assert kind.endswith("Types") and len(starved) >= 2
        first = min(starved, key=u.family.index)
        assert (got, want) == tuple(
            f"exclusion removes every terminal constructor of {t}; "
            "generation could not terminate" for t in (first, starved[0]))

    def test_propagation_takes_two_rounds(self):
        # excluding T2 kills both of T1's constructors, and then T0.B
        u = parse_universe("data T0 = A | B T1\ndata T1 = C T2 | D T2 T0\n"
                           "data T2 = E | F T0", "T0")
        want = {"T2.E", "T2.F", "T1.C", "T1.D", "T0.B"}
        assert without_types_cost(u, ["T2"]).pinned == want
        assert helpers.reference_pinned(u, "withoutTypes", ["T2"]) == want

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(sorted(EXCLUSIONS)))
    def test_random_universes(self, seed, kind):
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng)
        self._check(u, kind, rng)

    @settings(max_examples=300, deadline=None)
    @given(types=_DECLS, seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(sorted(EXCLUSIONS)))
    def test_declaration_sets(self, types, seed, kind):
        self._check(_declared(types), kind, random.Random(seed))
