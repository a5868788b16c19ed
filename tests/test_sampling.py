import copy
import dataclasses
import gc
import hashlib
import math
import pickle
import random
import statistics
import sys
import threading
import time
import tracemalloc
import types
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from branchgen import (
    AdtError,
    BudgetExhausted,
    GenSpec,
    Value,
    adhoc_genspec,
    empirical_stats,
    extinction_probability,
    histogram_csv,
    parse_universe,
    predict_constructors,
    predict_foreign,
    sample_derive,
    sample_dragen,
    sample_megadeth,
    sample_values,
    uniform_probmap,
    value_to_json,
    value_to_sexp,
)
from branchgen import sampling
from branchgen.sampling import _BLOCK, _finish_stats, stream_seed
from branchgen.spec import build_schedule
from helpers import count_constructors

TREEP_P = {"Tree'.Leaf": 0.2, "Tree'.NodeA": 0.5, "Tree'.NodeB": 0.3}
# Tree with mean offspring 1.8: counts grow ~1.8x per level
SUPERCRITICAL_P = {"Tree.LeafA": 0.05, "Tree.LeafB": 0.025, "Tree.LeafC": 0.025,
                   "Tree.Node": 0.9}

# the composite universe with a foreign type of every ground atom, and a
# constructor that mixes atoms, family and foreign fields
ATOMS_SRC = """
data Bool = True | False
data Maybe a = Nothing | Just a
data Atom = AInt Int | ADouble Double | AChar Char | AUnit Unit
data Tree = LeafA (Maybe Bool) | LeafB Bool Bool | LeafC Atom | Node Tree Tree
          | Mixed Int Tree Char Atom Double Tree Unit
"""


def dragen_spec(u, size, probs=None):
    return adhoc_genspec(u, size, "dragen", probs)


class TestCountConstructors:
    def test_small_values(self):
        node = Value("Tree.Node", (Value("Tree.LeafA"), Value("Tree.LeafA")))
        assert count_constructors(node) == {"Tree.Node": 1, "Tree.LeafA": 2}
        assert count_constructors(Value("Tree'.Leaf")) == {"Tree'.Leaf": 1}

    def test_nested_mixed_value(self):
        # NodeA(NodeB(NodeA(Leaf, Leaf)), NodeA(NodeB(Leaf), Leaf))
        l = lambda: Value("Tree'.Leaf")
        v = Value("Tree'.NodeA", (
            Value("Tree'.NodeB", (Value("Tree'.NodeA", (l(), l())),)),
            Value("Tree'.NodeA", (Value("Tree'.NodeB", (l(),)), l())),
        ))
        assert count_constructors(v) == {
            "Tree'.NodeA": 3, "Tree'.NodeB": 2, "Tree'.Leaf": 4}

    def test_ground_atoms_not_counted(self):
        v = Value("T.X", (42, Value("T.Z"), None))
        assert count_constructors(v) == {"T.X": 1, "T.Z": 1}


class TestDragen:
    def test_size_zero_always_terminal(self, treep_u):
        spec = dragen_spec(treep_u, 0, TREEP_P)
        for i in range(20):
            assert sample_dragen(treep_u, spec, seed=5, index=i) == Value("Tree'.Leaf")

    def test_single_terminal_only_type(self):
        u = parse_universe("data U = OnlyU", "U")
        spec = dragen_spec(u, 7)
        assert sample_dragen(u, spec, seed=1) == Value("U.OnlyU")

    def test_values_typecheck(self, tree_u, treep_u, t1t2_u, composite_u):
        for u, probs in ((tree_u, None), (treep_u, TREEP_P),
                         (t1t2_u, None), (composite_u, None)):
            spec = dragen_spec(u, 6, probs)
            for i in range(60):
                helpers.typecheck_value(sample_dragen(u, spec, seed=3, index=i), u)

    def test_family_depth_never_exceeds_size(self, treep_u, t1t2_u):
        for u, probs in ((treep_u, TREEP_P), (t1t2_u, None)):
            for size in (0, 1, 3, 7):
                spec = dragen_spec(u, size, probs)
                for i in range(80):
                    v = sample_dragen(u, spec, seed=11, index=i)
                    assert helpers.value_depth(v, u) <= size

    def test_reproducible(self, tree_u):
        spec = dragen_spec(tree_u, 10)
        a = [sample_dragen(tree_u, spec, seed=42, index=i) for i in range(10)]
        b = [sample_dragen(tree_u, spec, seed=42, index=i) for i in range(10)]
        assert a == b
        c = [sample_dragen(tree_u, spec, seed=43, index=i) for i in range(10)]
        assert a != c

    def test_dead_type_reached_is_an_error(self):
        u = parse_universe("data A = LA | NA B A\ndata B = LB | NB A", "A")
        probs = {"A.LA": 0.5, "A.NA": 0.5, "B.LB": 0.0, "B.NB": 0.0}
        spec = dragen_spec(u, 5, probs)
        with pytest.raises(AdtError, match="reached type B"):
            for i in range(20):
                sample_dragen(u, spec, seed=0, index=i)
        with pytest.raises(AdtError, match="reached type B"):
            empirical_stats(u, spec, 20, seed=0)

    @pytest.mark.parametrize("strategy", ["dragen", "megadeth"])
    def test_negative_size_is_an_error(self, tree_u, strategy):
        with pytest.raises(AdtError, match="nonnegative"):
            adhoc_genspec(tree_u, -1, strategy)
        spec = adhoc_genspec(tree_u, 3, strategy)
        spec.size = -1
        calls = [lambda: sample_values(tree_u, spec, 0, 5),
                 lambda: empirical_stats(tree_u, spec, 10, 0),
                 lambda: sample_dragen(tree_u, spec, 0),
                 lambda: sample_megadeth(tree_u, spec.probabilities, -1, 0)]
        for call in calls:
            with pytest.raises(AdtError, match="nonnegative"):
                call()
        spec.strategy = "derive"
        assert len(list(sample_values(tree_u, spec, 0, 5))) == 5
        assert empirical_stats(tree_u, spec, 10, 0).samples == 10


class TestMegadeth:
    def test_size_zero_terminal(self, tree_u):
        for i in range(20):
            v = sample_megadeth(tree_u, uniform_probmap(tree_u), 0, seed=2, index=i)
            assert v.constructor in ("Tree.LeafA", "Tree.LeafB", "Tree.LeafC")

    def test_mean_node_count(self, tree_u):
        # halving recursion: placeholders shrink by half per level, Node
        # drawn with probability 1/4 at sizes 10, 5, 2, 1
        spec = adhoc_genspec(tree_u, 10, "megadeth")
        stats = empirical_stats(tree_u, spec, 20_000, seed=9)
        want = 0.46875
        se = stats.std_err["Tree.Node"]
        assert abs(stats.mean_counts["Tree.Node"] - want) <= 4 * se
        assert stats.mean_counts["Tree.Node"] == pytest.approx(0.5, abs=0.06)

    def test_histogram_concentrated_small(self, tree_u):
        spec = adhoc_genspec(tree_u, 10, "megadeth")
        stats = empirical_stats(tree_u, spec, 10_000, seed=4)
        small = sum(n for size, n in stats.size_histogram.items() if size <= 5)
        assert small / 10_000 >= 0.60

    def test_probmap_ignored(self, tree_u):
        biased = {"Tree.LeafA": 0.97, "Tree.LeafB": 0.01, "Tree.LeafC": 0.01,
                  "Tree.Node": 0.01}
        a = [sample_megadeth(tree_u, biased, 10, seed=8, index=i) for i in range(20)]
        b = [sample_megadeth(tree_u, uniform_probmap(tree_u), 10, seed=8, index=i)
             for i in range(20)]
        assert a == b

    def test_foreign_entries_apply(self, composite_u):
        # the family draws uniformly, the foreign types by the map, and value
        # i is sample_values' value i for a megadeth spec with that map
        probs = {**uniform_probmap(composite_u, composite_u.family),
                 "Bool.True": 0.95, "Bool.False": 0.05}
        spec = adhoc_genspec(composite_u, 5, "megadeth", probs)
        got = [sample_megadeth(composite_u, probs, 5, seed=3, index=i) for i in range(200)]
        assert got == list(sample_values(composite_u, spec, 3, 200))
        plain = [sample_megadeth(composite_u, None, 5, seed=3, index=i) for i in range(200)]
        (t_true, t_false), (p_true, p_false) = (
            [sum(count_constructors(v).get(cid, 0) for v in values)
             for cid in ("Bool.True", "Bool.False")] for values in (got, plain))
        assert t_true > 10 * t_false
        assert p_true < 2 * p_false

    def test_values_typecheck(self, composite_u, t1t2_u):
        for u in (composite_u, t1t2_u):
            probs = uniform_probmap(u, u.family)
            for i in range(40):
                helpers.typecheck_value(
                    sample_megadeth(u, probs, 10, seed=14, index=i), u)

    def test_no_terminal_constructor(self):
        u = parse_universe("data T = N T T | M T", "T")
        with pytest.raises(AdtError) as err:
            sample_megadeth(u, None, 3, seed=0)
        assert str(err.value) == ("family type T has no terminal constructor; "
                                  "size-bounded generation cannot terminate")


class TestSchedule:
    """``build_schedule``: a row above the final level and one on it,
    normalized per type, and the count of levels."""

    @staticmethod
    def normalized(weights):
        total = sum(weights)
        return [w / total if total > 0.0 else 0.0 for w in weights]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(0, 9),
           strategy=st.sampled_from(["dragen", "megadeth", "derive"]))
    def test_rows_are_normalized_per_type(self, seed, size, strategy):
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, extras=True)
        cu = u.compiled
        probs = helpers.random_probmap(rng, u)
        stars = {c: rng.choice([0.0, rng.random()]) for c in probs}
        foreign = _foreign_map(u, rng)
        schedule = build_schedule(u, strategy, size, {**probs, **foreign}, stars)
        tuned = strategy == "dragen"
        weights = [probs[c] if tuned else 1.0 for c in cu.ctors[:cu.nfamily_ctors]]
        finals = [(stars[c] if tuned else 1.0) if term else 0.0
                  for c, term in zip(cu.ctors, cu.family_terminal.tolist())]
        if strategy == "derive":
            finals = weights
        weights += [foreign[c] for c in cu.ctors[cu.nfamily_ctors:]]
        finals += weights[cu.nfamily_ctors:]
        for got, want in ((schedule.rows, weights), (schedule.final, finals)):
            for s in cu.slices:
                assert got[s] == self.normalized(want[s])
        assert schedule.levels == {"dragen": size, "megadeth": size.bit_length(),
                                   "derive": None}[strategy]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(0, 9),
           strategy=st.sampled_from(["dragen", "megadeth", "derive"]),
           zeros=st.booleans(), foreign=st.booleans())
    def test_oracle_tables_are_the_librarys(self, seed, size, strategy, zeros, foreign):
        # ``helpers.schedule_oracle`` writes the rules afresh from the
        # declarations; its tables equal the samplers' bit for bit, zero
        # tails, dead types, unnamed stars and foreign types named or not
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, extras=True)
        cu = u.compiled
        probs = helpers.random_probmap(rng, u)
        if zeros:
            probs = {c: rng.choice([0.0, p]) for c, p in probs.items()}
        stars = {c: rng.choice([0.0, rng.random()]) for c in probs if rng.random() < 0.8}
        if foreign:
            probs.update((c, rng.choice([0.0, rng.random()]))
                         for t in cu.types[cu.nfamily:] if rng.random() < 0.5
                         for c in u.constructors_of(t))
        got = sampling._Tables(cu, build_schedule(u, strategy, size, probs, stars))
        want = helpers.schedule_oracle(u, strategy, size, probs, stars)
        for name in ("p_any", "cum_any", "p_final", "cum_final"):
            assert ([[x.hex() for x in row] for row in getattr(got, name)]
                    == [[x.hex() for x in row] for row in getattr(want, name)])

    @pytest.mark.parametrize("strategy, top", [("dragen", 16), ("megadeth", 130)])
    def test_levels_count_the_reference_child_steps(self, tree_u, strategy, top):
        # the levels are the steps the oracle's child-size rule takes from
        # the size down to 0; dragen's rule takes one per unit, so its sizes
        # stop at 2^16
        child = helpers.REFERENCE_CHILD_SIZE[strategy]
        spec = dragen_spec(tree_u, 0)
        for size in [*range(301), *(2 ** k for k in range(top + 1))]:
            steps, sz = 0, size
            while sz:
                sz, steps = child(sz), steps + 1
            schedule = build_schedule(tree_u, strategy, size, spec.probabilities,
                                      spec.star_probabilities)
            assert schedule.levels == steps
        assert build_schedule(tree_u, "derive", 2 ** 130).levels is None

    def test_unknown_strategy(self, tree_u):
        # the schedule's check is the samplers' (see TestSamplerSetup) and a
        # spec file's; a sampler's bad strategy never enters the program cache
        data = dragen_spec(tree_u, 3).to_json_dict()
        data["strategy"] = "quickcheck"
        spec = dragen_spec(tree_u, 3)
        spec.strategy = "quickcheck"
        for call in (lambda: build_schedule(tree_u, "quickcheck", 3),
                     lambda: GenSpec.from_json_dict(data),
                     lambda: sample_values(tree_u, spec, 0, 1)):
            with pytest.raises(AdtError, match="^unknown strategy 'quickcheck'$"):
                call()
        kept = sampling._PROGRAMS.get(tree_u.compiled, ())
        assert all(key[0] != "quickcheck" for key, _ in kept)


class TestDerive:
    def test_terminal_only_never_aborts(self):
        u = parse_universe("data U = A | B", "U")
        for i in range(50):
            v = sample_derive(u, budget=10, seed=3, index=i)
            assert isinstance(v, Value)

    def test_abort_is_a_value(self, derive_u):
        results = [sample_derive(derive_u, budget=5, seed=1, index=i)
                   for i in range(200)]
        aborted = [r for r in results if isinstance(r, BudgetExhausted)]
        finished = [r for r in results if isinstance(r, Value)]
        assert aborted and finished
        assert all(r.budget == 5 for r in aborted)
        assert repr(aborted[0]) == "BudgetExhausted(budget=5)"
        assert all(sum(count_constructors(v).values()) <= 5 for v in finished)

    def test_abort_fraction_matches_extinction(self, derive_u):
        stats = empirical_stats(derive_u, adhoc_genspec(derive_u, 0, "derive"),
                                4_000, seed=12, budget=10 ** 5)
        frac = stats.budget_exhausted / stats.samples
        q = extinction_probability(derive_u, uniform_probmap(derive_u)).get("T")
        assert frac == pytest.approx(1.0 - q, abs=0.03)

    def test_subcritical_never_aborts(self, tree_u):
        # uniform Tree is subcritical: extinction certain, aborts vanish
        stats = empirical_stats(tree_u, adhoc_genspec(tree_u, 0, "derive"),
                                2_000, seed=6, budget=10 ** 5)
        assert stats.budget_exhausted == 0

    def test_histogram_accounts_for_aborts(self, derive_u):
        stats = empirical_stats(derive_u, adhoc_genspec(derive_u, 0, "derive"),
                                1_000, seed=2, budget=100)
        assert sum(stats.size_histogram.values()) + stats.budget_exhausted == 1_000

    def test_aborted_draw_builds_no_node(self, derive_u, monkeypatch):
        built = []

        def new_node(cls):
            built.append(cls)
            return object.__new__(cls)

        monkeypatch.setattr(sampling, "_new_node", new_node)
        outcomes = set()
        for i in range(12):
            built.clear()
            v = sample_derive(derive_u, budget=10 ** 5, seed=0, index=i)
            if isinstance(v, BudgetExhausted):
                assert built == []
            else:  # one build per internal node; the leaves are shared
                counts = count_constructors(v)
                assert len(built) == counts.get("T.B", 0) + counts.get("T.C", 0)
            outcomes.add(type(v))
        assert outcomes == {Value, BudgetExhausted}

    def test_foreign_entries_apply(self, composite_u):
        # the family draws uniformly, the foreign types by the map, and value
        # i is sample_values' value i for a derive spec with that map
        probs = {**uniform_probmap(composite_u, composite_u.family),
                 "Bool.True": 0.95, "Bool.False": 0.05}
        spec = adhoc_genspec(composite_u, 0, "derive", probs)
        got = [sample_derive(composite_u, 500, 3, i, probs) for i in range(50)]
        assert got == list(sample_values(composite_u, spec, 3, 50, budget=500))
        plain = [sample_derive(composite_u, 500, 3, i) for i in range(50)]
        assert sum(a != b for a, b in zip(got, plain)) > 10

    def test_values_typecheck(self, composite_u):
        for i in range(60):
            v = sample_derive(composite_u, budget=500, seed=19, index=i)
            if isinstance(v, Value):
                helpers.typecheck_value(v, composite_u)


class TestEmpiricalStats:
    def test_histogram_totals(self, tree_u):
        spec = dragen_spec(tree_u, 10)
        stats = empirical_stats(tree_u, spec, 500, seed=1)
        assert sum(stats.size_histogram.values()) == 500
        assert stats.budget_exhausted == 0

    def test_all_constructors_reported(self, composite_u):
        spec = dragen_spec(composite_u, 4)
        stats = empirical_stats(composite_u, spec, 50, seed=5)
        assert set(stats.mean_counts) == set(
            composite_u.family_constructors()) | {
                "Maybe<Bool>.Just", "Maybe<Bool>.Nothing",
                "Bool.True", "Bool.False"}

    def test_json_schema(self, tree_u):
        stats = empirical_stats(tree_u, dragen_spec(tree_u, 5), 10, seed=0)
        doc = stats.to_json_dict()
        assert set(doc) == {"samples", "meanCounts", "stdErr", "sizeHistogram",
                            "budgetExhausted"}

    def test_rejects_bad_counts(self, tree_u):
        with pytest.raises(AdtError):
            empirical_stats(tree_u, dragen_spec(tree_u, 5), 0, seed=0)


    def test_overflowing_counts_are_an_error(self, tree_u):
        spec = dragen_spec(tree_u, 100, SUPERCRITICAL_P)
        with pytest.raises(AdtError, match="overflow 64-bit integers at size 100"):
            empirical_stats(tree_u, spec, 100, seed=1)

    def test_counts_up_to_the_limit_are_kept(self, tree_u, monkeypatch):
        # With the int64 limit lowered to this run's largest count, the last
        # levels' bound passes it, so they are expanded in Python ints: the
        # statistics stay the same. One below, that count is an error.
        spec = dragen_spec(tree_u, 12, SUPERCRITICAL_P)
        stats = empirical_stats(tree_u, spec, 300, seed=2)
        top = max(stats.size_histogram)
        monkeypatch.setattr(sampling, "_INT64_MAX", top)
        assert empirical_stats(tree_u, spec, 300, seed=2) == stats
        monkeypatch.setattr(sampling, "_INT64_MAX", top - 1)
        with pytest.raises(AdtError, match="overflow 64-bit integers at size 12"):
            empirical_stats(tree_u, spec, 300, seed=2)

    def test_one_level_past_the_limit(self):
        # Wide has 64 W fields and probability 1: level k holds 64**k nodes,
        # so at size 10 the last level holds 2**60 leaves, and at size 11
        # one level's children alone number 2**66
        u = parse_universe("data W = Stop | Wide" + " W" * 64, "W")
        probs = {"W.Stop": 0.0, "W.Wide": 1.0}
        # Stop's zero probability makes the last level fall back to uniform
        starved = "all terminal constructors of W have probability 0"
        with pytest.warns(UserWarning, match=starved):
            spec = dragen_spec(u, 10, probs)
        stats = empirical_stats(u, spec, 5, seed=0)
        assert stats.mean_counts == {"W.Stop": 2.0 ** 60, "W.Wide": (64 ** 10 - 1) / 63}
        assert stats.std_err == {"W.Stop": 0.0, "W.Wide": 0.0}
        with pytest.warns(UserWarning, match=starved):
            spec = dragen_spec(u, 11, probs)
        with pytest.raises(AdtError, match="overflow 64-bit integers at size 11"):
            empirical_stats(u, spec, 5, seed=0)

    def test_std_err_is_exact_for_large_counts(self):
        xs = [10 ** 7 + (i % 3 == 0) for i in range(30)]
        stats = _finish_stats(len(xs), ["C"], {"C": sum(xs)},
                              {"C": sum(x * x for x in xs)}, {}, 0)
        var = statistics.variance([Fraction(x) for x in xs])
        assert stats.std_err["C"] == math.sqrt(var / len(xs))
        assert stats.mean_counts["C"] == float(statistics.mean(Fraction(x) for x in xs))


def _bad_args(*checks):
    """(argument, bad value, message) for each bad value of each check."""
    return [(arg, bad, message) for arg, bads, message in checks for bad in bads]


class TestSamplerSetup:
    # sample_values and empirical_stats check a spec the same way
    @staticmethod
    def calls(u, spec):
        return [lambda: sample_values(u, spec, 0, 3), lambda: empirical_stats(u, spec, 10, 0)]

    def test_unknown_strategy(self, tree_u):
        spec = dragen_spec(tree_u, 3)
        spec.strategy = "quickcheck"
        for call in [*self.calls(tree_u, spec), lambda: adhoc_genspec(tree_u, 3, "quickcheck")]:
            with pytest.raises(AdtError, match="unknown strategy 'quickcheck'"):
                call()

    @pytest.mark.parametrize("strategy", ["dragen", "megadeth", "derive"])
    def test_root_mismatch(self, tree_u, strategy):
        spec = adhoc_genspec(tree_u, 3, strategy)
        spec.root = "Other"
        for call in self.calls(tree_u, spec):
            with pytest.raises(AdtError, match="spec root Other does not match"):
                call()

    # sizes, budgets and sample counts are integers: a bool or a float is
    # an error, though ``int`` and ``range`` would take some of them
    @pytest.mark.parametrize("bad", [2.5, True, "3"])
    def test_size_must_be_an_integer(self, tree_u, bad):
        message = "generator size must be a nonnegative integer"
        spec = dragen_spec(tree_u, 3)
        spec.size = bad
        for call in [*self.calls(tree_u, spec), lambda: sample_dragen(tree_u, spec, 0),
                     lambda: adhoc_genspec(tree_u, bad, "dragen"),
                     lambda: sample_megadeth(tree_u, None, bad, 0)]:
            with pytest.raises(AdtError, match=message):
                call()

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_budget_must_be_an_integer(self, tree_u, bad):
        spec = adhoc_genspec(tree_u, 3, "derive")
        for call in [lambda: sample_derive(tree_u, bad, 0),
                     lambda: sample_values(tree_u, spec, 0, 3, budget=bad),
                     lambda: empirical_stats(tree_u, spec, 10, 0, budget=bad)]:
            with pytest.raises(AdtError, match="budget must be a positive integer"):
                call()

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_sample_count_must_be_an_integer(self, tree_u, bad):
        with pytest.raises(AdtError, match="sample count must be a positive integer"):
            empirical_stats(tree_u, dragen_spec(tree_u, 3), bad, 0)

    # seeds are any integers, indices at least 0, value counts at least 1;
    # a bool, a float or None is an error, though ``int`` or ``range`` would
    # take some of them
    SEED = ("seed", [1.5, True, None, "3"], "seed must be an integer")
    INDEX = ("index", [1.5, True, -1], "sample index must be a nonnegative integer")
    COUNT = ("count", [1.5, True, 0, -2], "sample count must be a positive integer")

    @pytest.mark.parametrize("arg, bad, message", _bad_args(SEED, INDEX))
    def test_sample_dragen_arguments(self, tree_u, arg, bad, message):
        spec = dragen_spec(tree_u, 3)
        kwargs = {"seed": 0, "index": 0, arg: bad}
        with pytest.raises(AdtError, match=message):
            sample_dragen(tree_u, spec, **kwargs)
        assert sample_dragen(tree_u, spec, -5, 2) == helpers.reference_sample(
            tree_u, "dragen", -5, 2, spec=spec)

    @pytest.mark.parametrize("arg, bad, message", _bad_args(SEED, INDEX))
    def test_sample_megadeth_arguments(self, tree_u, arg, bad, message):
        kwargs = {"seed": 0, "index": 0, arg: bad}
        with pytest.raises(AdtError, match=message):
            sample_megadeth(tree_u, None, 3, **kwargs)
        assert sample_megadeth(tree_u, None, 3, -5, 2) == helpers.reference_sample(
            tree_u, "megadeth", -5, 2, size=3)

    @pytest.mark.parametrize("arg, bad, message", _bad_args(SEED, INDEX))
    def test_sample_derive_arguments(self, tree_u, arg, bad, message):
        kwargs = {"seed": 0, "index": 0, arg: bad}
        with pytest.raises(AdtError, match=message):
            sample_derive(tree_u, 100, **kwargs)
        assert sample_derive(tree_u, 100, -5, 2) == helpers.reference_sample(
            tree_u, "derive", -5, 2, budget=100)

    @pytest.mark.parametrize("arg, bad, message", _bad_args(SEED, COUNT))
    def test_sample_values_arguments(self, tree_u, arg, bad, message):
        spec = dragen_spec(tree_u, 3)
        kwargs = {"seed": 0, "count": 3, arg: bad}
        # checked at the call, before any value is drawn
        with pytest.raises(AdtError, match=message):
            sample_values(tree_u, spec, **kwargs)
        assert list(sample_values(tree_u, spec, -5, 3)) == [
            helpers.reference_sample(tree_u, "dragen", -5, i, spec=spec) for i in range(3)]

    @pytest.mark.parametrize("arg, bad, message", _bad_args(SEED))
    def test_empirical_stats_arguments(self, tree_u, arg, bad, message):
        spec = dragen_spec(tree_u, 3)
        kwargs = {"samples": 10, "seed": 0, arg: bad}
        with pytest.raises(AdtError, match=message):
            empirical_stats(tree_u, spec, **kwargs)
        assert empirical_stats(tree_u, spec, 10, -5).samples == 10

    def test_numpy_integers_pass(self, tree_u):
        spec = dragen_spec(tree_u, np.int64(3))
        assert type(spec.size) is int
        assert sample_dragen(tree_u, spec, 0) == sample_dragen(tree_u, dragen_spec(tree_u, 3), 0)
        stats = empirical_stats(tree_u, spec, np.int64(10), 0)
        assert type(stats.samples) is int and stats.samples == 10
        assert sample_derive(tree_u, np.int64(100), 0) == sample_derive(tree_u, 100, 0)
        assert sample_derive(tree_u, 100, np.int64(7), np.int64(2)) == sample_derive(
            tree_u, 100, 7, 2)
        assert len(list(sample_values(tree_u, spec, np.int64(7), np.int64(3)))) == 3


class TestEngineMatchesTreeWalk:
    # Two-sample tests: constructor means of values from the tree walk
    # (sample_*) against the level-wise statistics engine, each within 4
    # standard errors of the pooled difference.
    N = 3000

    @staticmethod
    def assert_means_agree(values, stats):
        rows = [count_constructors(v) for v in values]
        for cid, got in stats.mean_counts.items():
            xs = [r.get(cid, 0) for r in rows]
            se = math.hypot(statistics.stdev(xs) / math.sqrt(len(xs)), stats.std_err[cid])
            assert abs(statistics.fmean(xs) - got) <= 4 * se + 1e-12, (cid, xs, got, se)

    def test_dragen_foreign_and_ground(self):
        # the composite universe, with LeafC given a foreign field whose
        # constructors carry every ground atom
        u = parse_universe("""
            data Bool = True | False
            data Maybe a = Nothing | Just a
            data Atom = AInt Int | ADouble Double | AChar Char | AUnit Unit
            data Tree = LeafA (Maybe Bool) | LeafB Bool Bool | LeafC Atom | Node Tree Tree
            """, "Tree")
        spec = dragen_spec(u, 6)
        values = [sample_dragen(u, spec, seed=23, index=i) for i in range(self.N)]
        self.assert_means_agree(values, empirical_stats(u, spec, self.N, seed=23))

    def test_megadeth(self, t1t2_u):
        spec = adhoc_genspec(t1t2_u, 10, "megadeth")
        probs = uniform_probmap(t1t2_u, t1t2_u.family)
        values = [sample_megadeth(t1t2_u, probs, 10, seed=24, index=i) for i in range(self.N)]
        self.assert_means_agree(values, empirical_stats(t1t2_u, spec, self.N, seed=24))

    def test_derive_with_aborts(self, derive_u):
        budget = 15
        results = [sample_derive(derive_u, budget, seed=25, index=i) for i in range(self.N)]
        values = [r for r in results if isinstance(r, Value)]
        stats = empirical_stats(derive_u, adhoc_genspec(derive_u, 0, "derive"),
                                self.N, seed=25, budget=budget)
        self.assert_means_agree(values, stats)
        # a generation of exactly `budget` constructors still finishes
        assert max(stats.size_histogram) == budget
        walk_frac = 1 - len(values) / self.N
        frac = stats.budget_exhausted / self.N
        pooled = (walk_frac + frac) / 2
        assert 0 < pooled < 1
        assert abs(walk_frac - frac) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / self.N)

    def test_several_blocks(self, tree_u):
        spec = dragen_spec(tree_u, 6)
        samples = _BLOCK + 100
        stats = empirical_stats(tree_u, spec, samples, seed=26)
        assert sum(stats.size_histogram.values()) == samples
        assert empirical_stats(tree_u, spec, samples, seed=26) == stats
        assert empirical_stats(tree_u, spec, samples, seed=27) != stats


class TestPredictionAgreement:
    # Every predicted per-constructor total within 4 standard errors of the
    # sampled mean, at 1e5 samples, for the four reference universes.
    CASES = [
        ("tree_u", {"Tree.LeafA": 0.15, "Tree.LeafB": 0.15, "Tree.LeafC": 0.10,
                    "Tree.Node": 0.60}),
        ("treep_u", TREEP_P),
        ("treepp_u", {"Tree''.LeafA": 0.2, "Tree''.LeafB": 0.2,
                      "Tree''.NodeA": 0.4, "Tree''.NodeB": 0.2}),
        ("t1t2_u", {"T1.A": 0.4, "T1.B": 0.6, "T2.C": 0.5, "T2.D": 0.5}),
    ]

    @pytest.mark.parametrize("fixture,probs", CASES)
    @pytest.mark.parametrize("size", [3, 5, 10])
    def test_within_four_se(self, request, fixture, probs, size):
        u = request.getfixturevalue(fixture)
        spec = dragen_spec(u, size, probs)
        predicted = predict_constructors(u, probs, size).totals()
        stats = empirical_stats(u, spec, 100_000, seed=1234)
        for cid, want in predicted.items():
            got = stats.mean_counts[cid]
            se = stats.std_err[cid]
            assert abs(got - want) <= 4 * se + 1e-9, (cid, want, got, se)


class TestForeignAgreement:
    def test_foreign_counts_within_four_se(self, composite_u):
        probs = uniform_probmap(composite_u, composite_u.family)
        spec = dragen_spec(composite_u, 10, probs)
        report = predict_constructors(composite_u, probs, 10)
        foreign = predict_foreign(composite_u, report)
        stats = empirical_stats(composite_u, spec, 30_000, seed=77)
        for cid, want in foreign.items():
            se = stats.std_err[cid]
            assert abs(stats.mean_counts[cid] - want) <= 4 * se + 1e-9


class TestSerialization:
    def test_sexp_shape(self):
        v = Value("Tree.Node", (Value("Tree.LeafA"), Value("Tree.LeafB")))
        assert value_to_sexp(v) == "(Node (LeafA) (LeafB))"

    def test_sexp_ground_atoms(self):
        v = Value("T.X", (42, 0.5, "a", None, Value("T.Z")))
        assert value_to_sexp(v) == "(X 42 0.5 'a' () (Z))"

    def test_json_parses(self, composite_u):
        import json
        spec = dragen_spec(composite_u, 6)
        for i in range(20):
            v = sample_dragen(composite_u, spec, seed=31, index=i)
            doc = json.loads(value_to_json(v))
            assert doc["constructor"] in composite_u.family_constructors()

    def test_deep_value_serializes(self):
        v = Value("W.Stop")
        for _ in range(50_000):
            v = Value("W.N", (v,))
        assert value_to_sexp(v).startswith("(N (N ")
        assert value_to_json(v).endswith('"children": []}' + "]}" * 50_000)

    def test_memo_is_bounded(self):
        # the ids a process prints from many universes, each a throwaway:
        # the memo starts over once full, and still prints each one right
        for i in range(5000):
            v = Value(f"U{i}.Node", (Value(f"U{i}.Leaf"), 7))
            assert value_to_sexp(v) == "(Node (Leaf) 7)"
            assert value_to_json(v) == (f'{{"constructor": "U{i}.Node", "children": ['
                                        f'{{"constructor": "U{i}.Leaf", "children": []}}, 7]}}')
        # 10,000 ids in all, more than a memo holds
        for fmt in (sampling._SEXP, sampling._JSON):
            assert 0 < len(fmt.memo) <= sampling._MEMO_IDS < 10_000

    def test_histogram_csv(self, tree_u):
        stats = empirical_stats(tree_u, dragen_spec(tree_u, 5), 100, seed=3)
        csv = histogram_csv(stats)
        lines = csv.strip().splitlines()
        assert lines[0] == "constructors,count"
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == 100


def _sample(u, strategy, seed, index, spec, size, budget):
    if strategy == "dragen":
        return sample_dragen(u, spec, seed, index)
    if strategy == "megadeth":
        return sample_megadeth(u, spec.probabilities, size, seed, index)
    return sample_derive(u, budget, seed, index)


def _assert_matches_reference(u, strategy, seed, count, spec, size, budget):
    """sample_* and sample_values against helpers.reference_walk, value by
    value with ==, and each value's renderings against the reference
    serializers; returns the number of aborted draws."""
    run_spec = adhoc_genspec(u, size, strategy, spec.probabilities)
    if strategy == "dragen":
        run_spec = spec
    batch = list(sample_values(u, run_spec, seed, count, budget))
    aborted = 0
    for i in range(count):
        want = helpers.reference_sample(u, strategy, seed, i, size=size, spec=spec,
                                        budget=budget)
        got = _sample(u, strategy, seed, i, spec, size, budget)
        if isinstance(want, BudgetExhausted):
            assert isinstance(got, BudgetExhausted) and isinstance(batch[i], BudgetExhausted)
            aborted += 1
            continue
        assert got == want and batch[i] == want
        assert value_to_sexp(got) == helpers.reference_sexp(want)
        assert value_to_json(got) == helpers.reference_json(want)
    return aborted


class TestWalkMatchesReference:
    """The program-driven walk and the piece-table serializers equal the
    node-by-node walk and serializers in ``helpers``."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           strategy=st.sampled_from(["dragen", "megadeth", "derive"]),
           size=st.integers(0, 5))
    def test_random_universe(self, seed, strategy, size):
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng)
        spec = dragen_spec(u, size, helpers.random_probmap(rng, u))
        _assert_matches_reference(u, strategy, seed, 8, spec, size, 300)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           strategy=st.sampled_from(["dragen", "megadeth", "derive"]),
           size=st.integers(0, 6))
    def test_every_ground_atom(self, seed, strategy, size):
        u = parse_universe(ATOMS_SRC, "Tree")
        _assert_matches_reference(u, strategy, seed, 10, dragen_spec(u, size), size, 500)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_derive_aborts_at_the_same_indices(self, seed, derive_u):
        spec = dragen_spec(derive_u, 0)
        _assert_matches_reference(derive_u, "derive", seed, 30, spec, 0, 12)

    def test_derive_mixes_aborts_and_values(self, derive_u):
        spec = dragen_spec(derive_u, 0)
        aborted = _assert_matches_reference(derive_u, "derive", 3, 40, spec, 0, 12)
        assert 0 < aborted < 40

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), strategy_size=st.one_of(
        st.tuples(st.sampled_from(["dragen", "megadeth"]), st.integers(0, 110)),
        st.tuples(st.just("megadeth"), st.integers(1, 130).flatmap(
            lambda k: st.sampled_from([2 ** k - 1, 2 ** k, 2 ** k + 1])))))
    def test_walk_program_at_every_level_count(self, seed, strategy_size):
        # the walk itself, not the compiled program _walk_program would pick
        strategy, size = strategy_size
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, extras=True)
        while size > 110 and _uniform_radius(u) >= 1.0:  # keep 2^130 sizes finite
            u, _ = helpers.random_universe(rng, extras=True)
        cu = u.compiled
        with warnings.catch_warnings():  # terminals all at 0 fall back to uniform stars
            warnings.simplefilter("ignore", UserWarning)
            spec = dragen_spec(u, size, _zeroed_map(rng, u, tame=size > 6))
        for c in spec.star_probabilities:
            if rng.random() < 0.3:
                spec.star_probabilities[c] = 0.0
        foreign = {c: rng.choice([0.0, rng.random()]) for c in cu.ctors[cu.nfamily_ctors:]}
        schedule = build_schedule(u, strategy, size, {**spec.probabilities, **foreign},
                                  spec.star_probabilities)
        program = sampling._Program(cu, sampling._Tables(cu, schedule))
        for i in range(6):
            got = _outcome(lambda: sampling._build_walk(
                program, random.Random(stream_seed(seed, i))))
            try:
                want = helpers.reference_sample(u, strategy, seed, i, size=size, spec=spec,
                                                foreign_probs=foreign)
            except IndexError:  # the oracle's draw from a dead table
                assert got.startswith("AdtError: generation reached type ")
            else:
                assert got == want

    def test_atoms_are_sampled(self):
        u = parse_universe(ATOMS_SRC, "Tree")
        text = " ".join(value_to_sexp(v) for v in sample_values(u, dragen_spec(u, 6), 5, 200))
        for piece in ("(AChar '", "(AInt -", "(ADouble 0.", "(AUnit ())", "(Mixed "):
            assert piece in text

    def test_deep_chain(self):
        u = parse_universe("data W = Stop | N W", "W")
        depth = 10 ** 5
        spec = dragen_spec(u, depth, {"W.Stop": 1e-12, "W.N": 1.0 - 1e-12})
        v = sample_dragen(u, spec, 0)
        assert count_constructors(v) == {"W.N": depth, "W.Stop": 1}
        want = helpers.reference_sample(u, "dragen", 0, 0, spec=spec)
        assert helpers.same_value(v, want)
        assert value_to_sexp(v) == helpers.reference_sexp(want)
        assert value_to_json(v) == helpers.reference_json(want)
        assert v == want and not v != want
        assert v != Value("W.N", (want,))
        assert hash(v) == hash(want)
        assert repr(v) == ("Value(constructor='W.N', children=(" * depth
                           + "Value(constructor='W.Stop', children=())" + ",))" * depth)



def _foreign_map(u, rng):
    """Random weights for every foreign constructor of ``u``."""
    cu = u.compiled
    return {c: rng.random() for c in cu.ctors[cu.nfamily_ctors:]}


def _uniform_radius(u):
    """The spectral radius of ``u``'s family under uniform choice: below 1,
    a value's expected size is bounded at any number of levels."""
    m = helpers.mean_matrix_types(u, uniform_probmap(u, u.family)).entries
    return float(np.abs(np.linalg.eigvals(m)).max())


def _outcome(call):
    """What ``call()`` returns, or the text of the AdtError it raises."""
    try:
        return call()
    except AdtError as exc:
        return f"AdtError: {exc}"


def _zeroed_map(rng, u, tame):
    """A dragen map of ``u`` with zero and pinned entries. With ``tame``
    each family type keeps positive terminal weight, and its spawning
    constructors share at most 1/(2·fan) of it, so a value's expected
    size is bounded at any size."""
    cu = u.compiled
    fan = max(1, int(cu.counts[:, :cu.nfamily].sum(axis=1).max()))
    probs = {}
    for s in cu.slices[:cu.nfamily]:
        ids, term = cu.ctors[s], cu.family_terminal[s].tolist()
        w = [rng.choice([0.0, 1.0, rng.random()]) for _ in ids]
        if rng.random() < 0.2:  # pin one constructor
            pin = rng.choice([j for j in range(len(ids)) if term[j] or not tame])
            w = [float(j == pin) for j in range(len(ids))]
        if tame:
            if not sum(x for x, t in zip(w, term) if t):
                w[term.index(True)] = 1.0
            mass = sum(x for x, t in zip(w, term) if t)
            spawn = sum(x for x, t in zip(w, term) if not t)
            if spawn:
                w = [x if t else x * mass / (2 * fan * spawn) for x, t in zip(w, term)]
        total = sum(w)
        probs.update({c: x / total if total else 0.0 for c, x in zip(ids, w)})
    return probs


class TestCompiledPrograms:
    """Dragen and megadeth values come from per-type Python functions,
    compiled from the walk's tables; derive, and configurations deeper than
    ``_COMPILED_DEPTH_MAX``, keep the walk."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), strategy=st.sampled_from(["dragen", "megadeth"]),
           size=st.one_of(st.integers(0, 6), st.integers(7, 110)))
    def test_compiled_values_equal_the_walk(self, seed, strategy, size):
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, extras=True)
        cu = u.compiled
        with warnings.catch_warnings():  # terminals all at 0 fall back to uniform stars
            warnings.simplefilter("ignore", UserWarning)
            spec = dragen_spec(u, size, _zeroed_map(rng, u, tame=size > 6))
        for c in spec.star_probabilities:
            if rng.random() < 0.3:
                spec.star_probabilities[c] = 0.0
        foreign = {c: rng.choice([0.0, rng.random()]) for c in cu.ctors[cu.nfamily_ctors:]}
        maps = {**spec.probabilities, **foreign}, spec.star_probabilities
        schedule = build_schedule(u, strategy, size, *maps)
        tables = sampling._Tables(cu, schedule)
        walk = sampling._Program(cu, tables)
        compiled = sampling._compile(cu, tables)
        chosen = sampling._walk_program(u, strategy, size, *maps)
        deep = sampling._depth(cu, schedule.levels) > sampling._COMPILED_DEPTH_MAX
        assert (chosen.__class__ is sampling._Program) == deep
        for i in range(8):
            streams = [random.Random(stream_seed(seed, i)) for _ in range(2)]
            want = _outcome(lambda: sampling._build_walk(walk, streams[0]))
            assert _outcome(lambda: compiled(streams[1])) == want
            assert streams[0].getstate() == streams[1].getstate()
            assert _outcome(lambda: sampling._walk(chosen, seed, i)) == want

    @pytest.mark.parametrize("size", [0, 1])
    def test_a_draw_equal_to_a_table_entry(self, tree_u, size):
        # bisect_right passes an entry equal to the draw, zero-width
        # constructors included; a stream of chosen draws checks the edges
        spec = dragen_spec(tree_u, size, {"Tree.LeafA": 0.25, "Tree.LeafB": 0.0,
                                          "Tree.LeafC": 0.25, "Tree.Node": 0.5})
        schedule = build_schedule(tree_u, "dragen", size, spec.probabilities,
                                  spec.star_probabilities)
        cu = tree_u.compiled
        tables = sampling._Tables(cu, schedule)
        compiled = sampling._compile(cu, tables)
        walk = sampling._Program(cu, tables)
        entries = {*tables.cum_any[0], *tables.cum_final[0]}
        for x in sorted(entries | {math.nextafter(e, 0.0) for e in entries} | {0.0}):
            if x < 1.0:
                got, want = (draw(types.SimpleNamespace(random=iter([x, 0.0, 0.0]).__next__))
                             for draw in (compiled, lambda g: sampling._build_walk(walk, g)))
                assert got == want

    @pytest.mark.parametrize("case", ["family", "star", "foreign"])
    def test_dead_tables_raise_the_walks_error(self, case):
        u = parse_universe(ATOMS_SRC, "Tree")
        cu = u.compiled
        spec = dragen_spec(u, 0 if case == "star" else 3)
        if case == "family":
            spec.probabilities = dict.fromkeys(spec.probabilities, 0.0)
            message = "generation reached type Tree, whose constructors all have probability 0"
        elif case == "star":
            spec.star_probabilities = dict.fromkeys(spec.star_probabilities, 0.0)
            message = ("generation reached type Tree at size 0, whose terminal "
                       "constructors all have star probability 0")
        else:
            spec.probabilities = {c: float(c == "Tree.LeafC") for c in spec.probabilities}
            spec.probabilities.update({c: 0.0 if c.startswith("Atom.") else 0.5
                                       for c in cu.ctors[cu.nfamily_ctors:]})
            message = "generation reached type Atom, whose constructors all have probability 0"
        schedule = build_schedule(u, "dragen", spec.size, spec.probabilities,
                                  spec.star_probabilities)
        tables = sampling._Tables(cu, schedule)
        compiled = sampling._compile(cu, tables)
        walk = sampling._Program(cu, tables)
        for call in (lambda: compiled(random.Random(stream_seed(5, 0))),
                     lambda: sampling._build_walk(walk, random.Random(stream_seed(5, 0))),
                     lambda: sample_dragen(u, spec, 5, 0)):
            assert _outcome(call) == f"AdtError: {message}"

    @pytest.mark.parametrize("src, root, chain", [
        ("data Tree = LeafA | LeafB | LeafC | Node Tree Tree", "Tree", 0),
        (ATOMS_SRC, "Tree", 2),  # Maybe<Bool> -> Bool
    ], ids=["tree", "atoms"])
    def test_one_level_past_the_cap_walks(self, src, root, chain):
        u = parse_universe(src, root)
        cu = u.compiled
        probs = _zeroed_map(random.Random(1), u, tame=True)
        largest = sampling._COMPILED_DEPTH_MAX - 1 - chain
        for size, walks in ((largest, False), (largest + 1, True)):
            assert sampling._depth(cu, size) == size + 1 + chain
            spec = dragen_spec(u, size, probs)
            for i in range(40):
                want = helpers.reference_sample(u, "dragen", 3, i, spec=spec)
                assert sample_dragen(u, spec, 3, i) == want
            program = sampling._PROGRAMS[cu][0][1]
            assert (program.__class__ is sampling._Program) == walks

    def test_largest_compiled_depth_inside_deep_caller_frames(self):
        u = parse_universe("data Bool = True | False\ndata Maybe a = Nothing | Just a\n"
                           "data W = Stop (Maybe (Maybe Bool)) | N W", "W")
        cu = u.compiled
        size = sampling._COMPILED_DEPTH_MAX - 1 - 3  # Maybe<Maybe<Bool>> -> Maybe<Bool> -> Bool
        assert sampling._depth(cu, size) == sampling._COMPILED_DEPTH_MAX
        foreign = {c: 0.0 if c.endswith(".Nothing") else 1.0
                   for c in cu.ctors[cu.nfamily_ctors:]}
        spec = dragen_spec(u, size, {"W.Stop": 1e-12, "W.N": 1.0 - 1e-12, **foreign})

        def nested(n):
            return nested(n - 1) if n else sample_dragen(u, spec, 0, 0)

        v = nested(500)
        assert sampling._PROGRAMS[cu][0][1].__class__ is not sampling._Program
        counts = count_constructors(v)
        assert counts["W.N"] == size and counts["W.Stop"] == 1
        assert sum(n for c, n in counts.items() if c.endswith(".Just")) == 2
        assert v == helpers.reference_sample(u, "dragen", 0, 0, spec=spec)

    def test_threads_share_a_compiled_program(self, tree_u):
        spec = dragen_spec(tree_u, 10, {"Tree.LeafA": 0.2, "Tree.LeafB": 0.15,
                                        "Tree.LeafC": 0.15, "Tree.Node": 0.5})
        program = sampling._walk_program(tree_u, "dragen", 10, spec.probabilities,
                                         spec.star_probabilities)
        assert program.__class__ is not sampling._Program
        want = [sampling._walk(program, 8, i) for i in range(300)]
        got: dict = {}

        def run(k):
            for i in range(k, 300, 4):
                got[i] = sampling._walk(program, 8, i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside draws
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [got[i] for i in range(300)] == want


class TestWalkProgramCache:
    """Each compiled universe keeps the last walk program it sampled with,
    keyed by its tables' contents: a hit replays the same values, a changed
    configuration builds a new program."""

    @staticmethod
    def cached(u):
        return sampling._PROGRAMS[u.compiled][0][1]

    def test_probabilities_changed_in_place(self, tree_u):
        spec = dragen_spec(tree_u, 6)
        seen = []
        # the family map alone, then the star map alone, changes
        for node, star in ((0.25, 0.1), (0.45, 0.1), (0.45, 0.6)):
            spec.probabilities.update({"Tree.Node": node, "Tree.LeafA": 0.75 - node})
            spec.star_probabilities["Tree.LeafB"] = star
            for i in range(15):
                want = helpers.reference_sample(tree_u, "dragen", 4, i, spec=spec)
                assert sample_dragen(tree_u, spec, 4, i) == want
            seen.append(self.cached(tree_u))
        assert seen[0] is not seen[1] and seen[1] is not seen[2]

    def test_strategies_and_foreign_maps_alternate(self):
        u = parse_universe(ATOMS_SRC, "Tree")
        rng = random.Random(3)
        family = helpers.random_probmap(rng, u)
        maps = [_foreign_map(u, rng), _foreign_map(u, rng)]
        specs = [dragen_spec(u, 5, {**family, **fp}) for fp in maps]
        mega, derive = (adhoc_genspec(u, size, strategy, {**family, **maps[-1]})
                        for size, strategy in ((4, "megadeth"), (0, "derive")))
        for i in range(12):
            for spec in specs:
                want = helpers.reference_sample(u, "dragen", 9, i, spec=spec)
                assert sample_dragen(u, spec, 9, i) == want
            assert sample_megadeth(u, None, 4, 9, i) == helpers.reference_sample(
                u, "megadeth", 9, i, size=4)
            assert sample_derive(u, 200, 9, i) == helpers.reference_sample(
                u, "derive", 9, i, budget=200)
            want = helpers.reference_sample(u, "megadeth", 9, i, size=4, foreign_probs=maps[-1])
            assert list(sample_values(u, mega, 9, i + 1))[i] == want
            want = helpers.reference_sample(u, "derive", 9, i, budget=50, foreign_probs=maps[-1])
            assert list(sample_values(u, derive, 9, i + 1, 50))[i] == want

    def test_alternating_configurations_compile_once_each(self, monkeypatch):
        # dragen then megadeth per index, and dragen under two foreign maps:
        # three configurations, each compiled once however they alternate
        u = parse_universe(ATOMS_SRC, "Tree")
        rng = random.Random(5)
        family = helpers.random_probmap(rng, u)
        maps = [_foreign_map(u, rng), _foreign_map(u, rng)]
        specs = [dragen_spec(u, 3, {**family, **fp}) for fp in maps]
        built = []
        compile_program = sampling._compile

        def counting(*args):
            built.append(args)
            return compile_program(*args)

        monkeypatch.setattr(sampling, "_compile", counting)
        sampling._PROGRAMS.pop(u.compiled, None)
        for i in range(6):
            for spec in specs:
                want = helpers.reference_sample(u, "dragen", 1, i, spec=spec)
                assert sample_dragen(u, spec, 1, i) == want
            assert sample_megadeth(u, None, 3, 1, i) == helpers.reference_sample(
                u, "megadeth", 1, i, size=3)
        assert len(built) == 3
        assert len(sampling._PROGRAMS[u.compiled]) == 3 <= sampling._PROGRAMS_KEPT
        # one more configuration than are kept drops the least recent
        for size in range(4, 4 + sampling._PROGRAMS_KEPT):
            sample_megadeth(u, None, size, 1, 0)
        assert len(built) == 3 + sampling._PROGRAMS_KEPT
        sample_megadeth(u, None, 3, 1, 0)
        assert len(built) == 4 + sampling._PROGRAMS_KEPT

    @pytest.mark.parametrize("which", ["probabilities", "star_probabilities", "foreign"])
    def test_entry_equal_to_the_last_but_of_another_type(self, which):
        # True == 1.0, but only 1.0 is a probability: a repeat call raises
        # the error of the same call made first
        u = parse_universe(ATOMS_SRC, "Tree")
        spec = dragen_spec(u, 4)
        spec.probabilities.update(_foreign_map(u, random.Random(0)))
        m, name = {"probabilities": (spec.probabilities, "Tree.LeafA"),
                   "star_probabilities": (spec.star_probabilities, "Tree.LeafA"),
                   "foreign": (spec.probabilities, "Bool.True")}[which]
        errors = []
        for repeat in (False, True):
            sampling._PROGRAMS.pop(u.compiled, None)
            if repeat:
                m[name] = 1.0
                sample_dragen(u, spec, 0, 0)
                program = self.cached(u)
                m[name] = 1  # equal, and a probability too, but still a new program
                sample_dragen(u, spec, 0, 0)
                assert self.cached(u) is not program
            m[name] = True
            with pytest.raises(AdtError) as err:
                sample_dragen(u, spec, 0, 0)
            errors.append(str(err.value))
        assert errors[0] == errors[1] == f"probability of {name} must be a number, got True"

    def test_dead_type_error_on_a_cache_hit(self):
        u = parse_universe("data A = LA | NA B A\ndata B = LB | NB A", "A")
        spec = dragen_spec(u, 5, {"A.LA": 0.5, "A.NA": 0.5, "B.LB": 0.0, "B.NB": 0.0})
        errors, programs = [], []
        for _ in range(2):
            with pytest.raises(AdtError) as err:
                for i in range(20):
                    sample_dragen(u, spec, seed=0, index=i)
            errors.append(str(err.value))
            programs.append(self.cached(u))
        assert programs[0] is programs[1]
        assert errors[0] == errors[1] == (
            "generation reached type B, whose constructors all have probability 0")

    def test_dropped_universe_is_collected(self):
        u = parse_universe(ATOMS_SRC, "Tree")
        list(sample_values(u, dragen_spec(u, 4), 0, 5))
        sample_derive(u, 100, 0)
        assert self.cached(u) is not None
        refs = [weakref.ref(u), weakref.ref(u.compiled)]
        del u
        gc.collect()
        assert [r() for r in refs] == [None, None]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_cached_programs_match_the_reference(self, seed):
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, extras=True)
        spec = dragen_spec(u, 0, helpers.random_probmap(rng, u))
        for size in sorted(rng.sample(range(7), 3)):
            spec.size = size
            for strategy in ("dragen", "megadeth", "derive"):
                program = None
                for i in range(6):
                    want = helpers.reference_sample(u, strategy, seed, i, size=size,
                                                    spec=spec, budget=100)
                    got = _sample(u, strategy, seed, i, spec, size, 100)
                    if isinstance(want, BudgetExhausted):
                        assert isinstance(got, BudgetExhausted)
                    else:
                        assert got == want
                    program = program or self.cached(u)
                    assert self.cached(u) is program

    def test_huge_size_costs_only_what_walks_visit(self, tree_u):
        # subcritical, so walks stay shallow: nothing is built per level, so
        # the size costs nothing by itself
        spec = dragen_spec(tree_u, 10 ** 7, {"Tree.LeafA": 0.3, "Tree.LeafB": 0.2,
                                             "Tree.LeafC": 0.2, "Tree.Node": 0.3})
        tracemalloc.start()
        start = time.perf_counter()
        got = [sample_dragen(tree_u, spec, 5, i) for i in range(30)]
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < 2.0 and peak < 2 ** 20
        for i in range(30):
            assert got[i] == helpers.reference_sample(tree_u, "dragen", 5, i, spec=spec)

    def test_a_walk_program_keeps_nothing_per_level(self):
        # test_deep_chain's spec: one value 10^5 levels deep
        u = parse_universe("data W = Stop | N W", "W")
        spec = dragen_spec(u, 10 ** 5, {"W.Stop": 1e-12, "W.N": 1.0 - 1e-12})
        tracemalloc.start()
        try:
            v = sample_dragen(u, spec, 0)
            del v
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert self.cached(u).__class__ is sampling._Program
        assert kept < 2 ** 20

    def test_four_threads_share_one_immutable_program(self, tree_u):
        spec = dragen_spec(tree_u, 300, {"Tree.LeafA": 0.2, "Tree.LeafB": 0.15,
                                         "Tree.LeafC": 0.15, "Tree.Node": 0.5})
        program = sampling._walk_program(tree_u, "dragen", 300, spec.probabilities,
                                         spec.star_probabilities)
        assert program.__class__ is sampling._Program
        plans = program.plans
        got: dict = {}

        def run(k):
            for i in range(k, 60, 4):
                got[i] = sampling._walk(program, 8, i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside walks
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(got) == list(range(60))
        for i in range(60):
            assert got[i] == helpers.reference_sample(tree_u, "dragen", 8, i, spec=spec)
        assert program.plans is plans and program.root == (0, 300)


_ATOMS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=False),
    st.characters(),
    st.sampled_from(['"', "\\", "'", ")", "(", " ", ","]),
    st.none(),
)
_VALUES = st.recursive(
    st.builds(Value, st.sampled_from(["T.A", "T.B", "U.C", "M.T.Long_name'"])),
    lambda kids: st.builds(Value, st.sampled_from(["T.N", "U.M"]),
                           st.lists(st.one_of(kids, _ATOMS), max_size=4).map(tuple)),
    max_leaves=30)


class TestSerializersMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(v=_VALUES)
    def test_any_value(self, v):
        assert value_to_sexp(v) == helpers.reference_sexp(v)
        assert value_to_json(v) == helpers.reference_json(v)

    def test_quotes_backslashes_and_signs(self):
        v = Value("T.X", ('"', "\\", "'", -3, -0.5, None))
        assert value_to_sexp(v) == helpers.reference_sexp(v) == """(X '"' '\\' ''' -3 -0.5 ())"""
        assert value_to_json(v) == helpers.reference_json(v) == (
            """{"constructor": "T.X", "children": ["\\"", "\\\\", "'", -3, -0.5, null]}""")


# one atom of every kind the sampler draws, with the characters that close
# or quote a piece in either format
_ATOM_KINDS = (-100, 0, 73, 0.0, 0.625, "'", '"', ")", "]", "a", None)


class TestPrinterMatchesRecursiveReference:
    """Sampled values, and the same values beside every kind of atom as a
    first and as a later sibling, print as ``helpers.recursive_print``
    does."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), composite=st.booleans(),
           strategy=st.sampled_from(["dragen", "megadeth", "derive"]),
           size=st.integers(0, 5))
    def test_sampled_values(self, seed, composite, strategy, size):
        rng = random.Random(seed)
        if composite:
            u = parse_universe(ATOMS_SRC, "Tree")
        else:
            u, _ = helpers.random_universe(rng, extras=True)
        spec = adhoc_genspec(u, size, strategy, helpers.random_probmap(rng, u))
        for v in sample_values(u, spec, seed, 6, budget=300):
            if isinstance(v, BudgetExhausted):
                continue
            wrapped = [v, Value("W.W", (v, *_ATOM_KINDS))]
            wrapped += [Value("W.W", (atom, v, atom)) for atom in _ATOM_KINDS]
            for w in wrapped:
                assert value_to_sexp(w) == helpers.recursive_print(w, "sexp")
                assert value_to_json(w) == helpers.recursive_print(w, "json")

    def test_atoms_alone_and_nested(self):
        for atom in _ATOM_KINDS:
            for w in (Value("W.W", (atom,)), Value("W.W", (Value("W.W", (atom, atom)), atom))):
                assert value_to_sexp(w) == helpers.recursive_print(w, "sexp")
                assert value_to_json(w) == helpers.recursive_print(w, "json")


def _rebuilt(v):
    """An equal copy of ``v`` that shares no node with it."""
    if not isinstance(v, Value):
        return v
    return Value(v.constructor, tuple(_rebuilt(c) for c in v.children))


class TestValueMethods:
    # ==, != and hash against the iterative helpers.same_value and the
    # dataclass-generated methods (helpers.dataclass_twin); repr against the
    # dataclass-generated repr
    @settings(max_examples=200, deadline=None)
    @given(a=_VALUES, b=_VALUES)
    def test_like_the_dataclass(self, a, b):
        for x, y in ((a, b), (b, a), (a, _rebuilt(a))):
            tx, ty = helpers.dataclass_twin(x), helpers.dataclass_twin(y)
            assert (x == y) == helpers.same_value(x, y) == (tx == ty)
            assert (x != y) == (tx != ty)
            if x == y:
                assert hash(x) == hash(y)
        assert repr(a) == repr(helpers.dataclass_twin(a))

    def test_atoms_and_other_types(self):
        assert Value("T.X", (1, None)) == Value("T.X", (1.0, None))
        assert hash(Value("T.X", (1, None))) == hash(Value("T.X", (1.0, None)))
        assert Value("T.X", ("T.a",)) != Value("T.X", (Value("T.a"),))
        assert Value("T.X", (Value("T.a"),)) != Value("T.X", ("T.a",))
        # the same constructors in pre-order, in different shapes
        assert Value("T.N", (Value("T.A"), Value("T.B"))) != Value(
            "T.N", (Value("T.A", (Value("T.B"),)),))
        assert Value("T.A") != "T.A" and not Value("T.A") == ("T.A", ())
        assert repr(Value("T.X", (Value("T.A"),))) == (
            "Value(constructor='T.X', children=(Value(constructor='T.A', children=()),))")


class TestWalkBuiltNodes:
    """The walk builds nodes through Value's slots, not its ``__init__``;
    such a node acts as one built by ``Value(...)`` and as the plain frozen
    dataclass (``helpers.dataclass_twin``)."""

    @pytest.fixture(scope="class")
    def walked(self):
        u = parse_universe(ATOMS_SRC, "Tree")
        values = [v for v in sample_values(u, dragen_spec(u, 4), 11, 40) if v.children]
        assert any(not isinstance(c, Value) for v in values for c in v.children)
        return values

    def test_equality_hash_and_repr(self, walked):
        for v in walked:
            built, twin = _rebuilt(v), helpers.dataclass_twin(v)
            assert v == built and built == v and not v != built
            assert hash(v) == hash(built)
            assert repr(v) == repr(built) == repr(twin)
            assert v != Value("Tree.Other", v.children)

    def test_dataclass_functions(self, walked):
        for v in walked:
            built, twin = _rebuilt(v), helpers.dataclass_twin(v)
            names = [(f.name, f.type) for f in dataclasses.fields(v)]
            assert names == [(f.name, f.type) for f in dataclasses.fields(built)]
            assert [n for n, _ in names] == [f.name for f in dataclasses.fields(twin)]
            assert dataclasses.asdict(v) == dataclasses.asdict(built) == dataclasses.asdict(twin)
            swapped = dataclasses.replace(v, constructor="Tree.Other")
            assert swapped == dataclasses.replace(built, constructor="Tree.Other")
            assert repr(swapped) == repr(dataclasses.replace(twin, constructor="Tree.Other"))
            assert swapped.children is v.children

    def test_pickle_and_copies(self, walked):
        for v in walked:
            copies = [pickle.loads(pickle.dumps(v, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for w in [*copies, copy.deepcopy(v), copy.copy(v)]:
                assert type(w) is Value
                assert w == v == _rebuilt(w) and hash(w) == hash(v) and repr(w) == repr(v)

    def test_pickles_from_before_slots_load(self):
        # Value('T.N', (Value('T.A'), 3, 'x', None, 0.5)) pickled while
        # Value kept a __dict__, with protocols 2 and 0
        want = Value("T.N", (Value("T.A"), 3, "x", None, 0.5))
        old = [b"\x80\x02cbranchgen.sampling\nValue\nq\x00)\x81q\x01}q\x02(X\x0b\x00\x00\x00"
               b"constructorq\x03X\x03\x00\x00\x00T.Nq\x04X\x08\x00\x00\x00childrenq\x05"
               b"(h\x00)\x81q\x06}q\x07(h\x03X\x03\x00\x00\x00T.Aq\x08h\x05)ubK\x03X\x01\x00"
               b"\x00\x00xq\tNG?\xe0\x00\x00\x00\x00\x00\x00tq\nub.",
               b"ccopy_reg\n_reconstructor\np0\n(cbranchgen.sampling\nValue\np1\nc__builtin__\n"
               b"object\np2\nNtp3\nRp4\n(dp5\nVconstructor\np6\nVT.N\np7\nsVchildren\np8\n(g0\n"
               b"(g1\ng2\nNtp9\nRp10\n(dp11\ng6\nVT.A\np12\nsg8\n(tsbI3\nVx\np13\nNF0.5\ntp14\nsb."]
        for data in old:
            got = pickle.loads(data)
            assert type(got) is Value and repr(got) == repr(want) and got == want

    def test_frozen_without_a_dict(self, walked):
        for v in [walked[0], _rebuilt(walked[0])]:
            for name in ("constructor", "children", "other"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(v, name, ())
            with pytest.raises(dataclasses.FrozenInstanceError):
                del v.constructor
            assert not hasattr(v, "__dict__")
            with pytest.raises(TypeError):  # no __weakref__ slot, on purpose
                weakref.ref(v)
        assert Value.__slots__ == ("constructor", "children")


class TestStreams:
    def test_stream_seed_is_stable(self):
        # frozen: the derivation scheme must never drift between releases
        assert stream_seed(0, 0) == splitmix_reference(0x9E3779B97F4A7C15)
        assert stream_seed(7, 3) == splitmix_reference(
            (7 + 4 * 0x9E3779B97F4A7C15) % 2 ** 64)

    def test_distinct_indices_distinct_streams(self):
        seeds = {stream_seed(5, i) for i in range(1000)}
        assert len(seeds) == 1000


def splitmix_reference(x):
    mask = (1 << 64) - 1
    x &= mask
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & mask
    return x ^ (x >> 31)


_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
# family fields between ground fields, so building a node reorders its items
_INTERLEAVED_SRC = "data L = Nil | Cons Int L Char | Two L Double L Unit"


def _pin_case(name):
    """(universe, spec, budget) of one pinned configuration."""
    def read(file, root):
        return parse_universe((_INPUTS / file).read_text(encoding="utf-8"), root)

    if name == "dragen.tree":
        return read("tree.adt", "Tree"), GenSpec.load(_INPUTS / "tree_weighted_spec.json"), None
    if name == "dragen.composite":
        u = read("composite.adt", "Tree")
        return u, dragen_spec(u, 10), None
    if name == "dragen.interleaved":
        u = parse_universe(_INTERLEAVED_SRC, "L")
        return u, dragen_spec(u, 6, {"L.Nil": 0.4, "L.Cons": 0.3, "L.Two": 0.3}), None
    if name == "megadeth.tree":
        u = read("tree.adt", "Tree")
        return u, adhoc_genspec(u, 10, "megadeth"), None
    if name == "derive.t1t2":
        u = read("t1t2.adt", "T1")
        return u, adhoc_genspec(u, 0, "derive"), None
    u = read("derive.adt", "T")
    return u, adhoc_genspec(u, 0, "derive"), 1000


class TestPinnedValues:
    """Values 0-99 at seed 0, printed in both formats, hash to the digests
    recorded when this test was written: any change to a drawn or printed
    value fails here."""

    DIGESTS = {
        "dragen.tree":
            "b8c4c9b75ef45f67a49b795f46f1fcd1085e83305209f12b87b867cdaab1ebdc",
        "dragen.composite":
            "278e619c462a78dd17db6dae91cce4d821a519f7ac93d9c9767e512221329855",
        "dragen.interleaved":
            "1227b1814e27cd14be0bb3c7acbc09aaf358a95e9c40522dc0adeeea2de68f72",
        "megadeth.tree":
            "d31921b6572128162130bfd1baf5b033e32510656a2a7a23bfc4108713085083",
        "derive.t1t2":
            "411ef980d1853172e490bcba5a70658ab081402b91c8c9cb880b8c98420051bb",
        "derive.T":
            "ab28bed13509521e815ed9df58b8a42167f42ea08efa885b9bce563e09e51833",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, name):
        u, spec, budget = _pin_case(name)
        digest = hashlib.sha256()
        args = () if budget is None else (budget,)
        for v in sample_values(u, spec, 0, 100, *args):
            text = ("#budget-exhausted\n" if isinstance(v, BudgetExhausted)
                    else value_to_sexp(v) + "\n" + value_to_json(v) + "\n")
            digest.update(text.encode())
        assert digest.hexdigest() == self.DIGESTS[name]
