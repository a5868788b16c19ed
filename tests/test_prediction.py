import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from branchgen import (
    AdtError,
    MeanMatrix,
    PopulationVector,
    expected_generation,
    expected_population,
    extinction_probability,
    initial_population,
    mean_matrix_constructors,
    mean_matrix_types,
    parse_universe,
    predict_constructors,
    predict_foreign,
    prediction_report_json,
    star_probs,
    uniform_probmap,
)
from branchgen.prediction import (
    ConstructorExpectation,
    PredictionReport,
    _type_matrices,
    predict_batch,
)

TREEP_P = {"Tree'.Leaf": 0.2, "Tree'.NodeA": 0.5, "Tree'.NodeB": 0.3}


def half_probs(u):
    return dict.fromkeys(u.family_constructors(), 0.5)


class TestMeanMatrices:
    def test_treep_constructor_matrix(self, treep_u):
        m = mean_matrix_constructors(treep_u, TREEP_P)
        assert m.index == ("Tree'.Leaf", "Tree'.NodeA", "Tree'.NodeB")
        np.testing.assert_allclose(m.entries, [
            [0.0, 0.0, 0.0],
            [2 * 0.2, 2 * 0.5, 2 * 0.3],
            [0.2, 0.5, 0.3],
        ])

    def test_t1t2_constructor_matrix(self, t1t2_u):
        m = mean_matrix_constructors(t1t2_u, half_probs(t1t2_u))
        rows = dict(zip(m.index, m.entries.tolist()))
        assert rows["T1.B"] == [0.5, 0.5, 0.5, 0.5]
        assert rows["T2.D"] == [0.5, 0.5, 0.0, 0.0]
        assert rows["T1.A"] == [0.0] * 4
        assert rows["T2.C"] == [0.0] * 4

    def test_terminal_rows_all_zero(self, tree_u, treepp_u):
        for u in (tree_u, treepp_u):
            probs = uniform_probmap(u)
            m = mean_matrix_constructors(u, probs)
            for cid, row in zip(m.index, m.entries):
                if u.ctor_decl(cid).family_arity() == 0:
                    assert not row.any()

    def test_treep_type_matrix(self, treep_u):
        m = mean_matrix_types(treep_u, TREEP_P)
        assert m.index == ("Tree'",)
        assert m.entries[0, 0] == pytest.approx(2 * 0.5 + 0.3)

    def test_t1t2_type_matrix(self, t1t2_u):
        p = half_probs(t1t2_u)
        m = mean_matrix_types(t1t2_u, p)
        np.testing.assert_allclose(m.entries, [[0.5, 0.5], [0.5, 0.0]])

    def test_all_terminal_type_zero_row(self):
        u = parse_universe("data U = A | B", "U")
        m = mean_matrix_types(u, uniform_probmap(u))
        assert m.entries.tolist() == [[0.0]]

    def test_missing_probability_entry(self, tree_u):
        with pytest.raises(AdtError, match="missing probability"):
            mean_matrix_constructors(tree_u, {"Tree.Node": 1.0})

    def test_entries_match_independent_recount(self):
        # proposition cross-check: every entry equals beta * p recomputed
        # from the raw declaration bookkeeping
        rng = random.Random(31)
        for _ in range(20):
            u, fields_of = helpers.random_universe(rng)
            probs = helpers.random_probmap(rng, u)
            mc = mean_matrix_constructors(u, probs)
            for i, ci in enumerate(mc.index):
                for j, cj in enumerate(mc.index):
                    beta = fields_of[ci].count(u.ctor_type(cj))
                    assert mc.entries[i, j] == pytest.approx(beta * probs[cj], abs=1e-15)
            mt = mean_matrix_types(u, probs)
            for i, ti in enumerate(mt.index):
                for j, tj in enumerate(mt.index):
                    want = sum(fields_of[c].count(tj) * probs[c]
                               for c in u.constructors_of(ti))
                    assert mt.entries[i, j] == pytest.approx(want, abs=1e-12)


# A one-constructor family type (B) next to a wider one, so the type-major
# layout pads B's row
ONE_CTOR_SRC = "data A = LA | NA B A | MA B C B\ndata B = NB A\ndata C = NC B C | LC"

_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(0.0, 1.0),
                     st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


class TestTypeMatrices:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), one_ctor=st.booleans(), data=st.data())
    def test_matches_add_at_oracle_byte_for_byte(self, seed, one_ctor, data):
        if one_ctor:
            u = parse_universe(ONE_CTOR_SRC, "A")
        else:
            u, _ = helpers.random_universe(random.Random(seed), max_types=10, max_ctors=60)
        cu = u.compiled
        rows = data.draw(st.lists(
            st.lists(_ENTRIES, min_size=cu.nfamily_ctors, max_size=cu.nfamily_ctors),
            min_size=1, max_size=50))
        p = np.array(rows, dtype=float)
        got = _type_matrices(cu, p)
        assert got.shape == (len(p), cu.nfamily, cu.nfamily)
        assert got.tobytes() == helpers.type_matrices_add_at(cu, p).tobytes()


class TestPopulations:
    def test_initial_constructor_granularity(self, treep_u, t1t2_u):
        g0 = initial_population(treep_u, TREEP_P, "constructor")
        assert g0.as_dict() == TREEP_P
        g0 = initial_population(t1t2_u, half_probs(t1t2_u), "constructor")
        assert g0.as_dict() == {"T1.A": 0.5, "T1.B": 0.5, "T2.C": 0.0, "T2.D": 0.0}

    def test_initial_type_granularity(self, t1t2_u):
        g0 = initial_population(t1t2_u, half_probs(t1t2_u), "type")
        assert g0.as_dict() == {"T1": 1.0, "T2": 0.0}

    def test_generation_identity_at_zero(self, treep_u):
        m = mean_matrix_types(treep_u, TREEP_P)
        g0 = initial_population(treep_u, TREEP_P, "type")
        assert expected_generation(g0, m, 0).values.tolist() == g0.values.tolist()

    def test_single_type_generation(self):
        # 0.25 * 0.5^3, checked by hand
        g0 = PopulationVector(("Node",), np.array([0.25]))
        m = MeanMatrix("type", ("Node",), np.array([[0.5]]))
        assert expected_generation(g0, m, 3).get("Node") == pytest.approx(0.03125)

    def test_treep_type_generation_step(self, treep_u):
        m = mean_matrix_types(treep_u, TREEP_P)
        g0 = initial_population(treep_u, TREEP_P, "type")
        g1 = expected_generation(g0, m, 1)
        assert g1.get("Tree'") == pytest.approx(1.3)

    def test_population_tree_uniform(self, tree_u):
        probs = uniform_probmap(tree_u)
        m = mean_matrix_constructors(tree_u, probs)
        g0 = initial_population(tree_u, probs, "constructor")
        pop = expected_population(g0, m, 10)
        assert pop.get("Tree.Node") == pytest.approx(0.4997, rel=1e-3)

    def test_population_tree_biased(self, tree_u):
        probs = {"Tree.LeafA": 0.1, "Tree.LeafB": 0.1, "Tree.LeafC": 0.1,
                 "Tree.Node": 0.7}
        m = mean_matrix_constructors(tree_u, probs)
        g0 = initial_population(tree_u, probs, "constructor")
        pop = expected_population(g0, m, 10)
        assert pop.get("Tree.Node") == pytest.approx(69.1173, rel=1e-3)

    def test_critical_process_sum(self):
        # m = 1 exactly: the iterative sum crosses the singular (I - M) case
        g0 = PopulationVector(("X",), np.array([1.0]))
        m = MeanMatrix("type", ("X",), np.array([[1.0]]))
        assert expected_population(g0, m, 9).get("X") == pytest.approx(10.0)

    def test_population_monotone_in_n(self):
        rng = random.Random(13)
        for _ in range(15):
            u, _ = helpers.random_universe(rng)
            probs = helpers.random_probmap(rng, u)
            m = mean_matrix_constructors(u, probs)
            g0 = initial_population(u, probs, "constructor")
            prev = expected_population(g0, m, 0).values
            for n in range(1, 12):
                cur = expected_population(g0, m, n).values
                assert (cur >= prev - 1e-12).all()
                prev = cur

    def test_closed_form_identity(self, tree_u, t1t2_u):
        # iterative sum equals g0' (I - M^(n+1)) (I - M)^-1 when I - M is
        # well-conditioned
        for u, probs in ((tree_u, uniform_probmap(tree_u)),
                         (t1t2_u, half_probs(t1t2_u))):
            m = mean_matrix_constructors(u, probs)
            g0 = initial_population(u, probs, "constructor")
            n = 10
            iterative = expected_population(g0, m, n).values
            eye = np.eye(len(m.index))
            power = np.linalg.matrix_power(m.entries, n + 1)
            closed = np.linalg.solve(
                (eye - m.entries).T, (g0.values @ (eye - power)))
            np.testing.assert_allclose(iterative, closed, rtol=1e-6)

    def test_dimension_mismatch(self, tree_u, treep_u):
        m = mean_matrix_constructors(treep_u, TREEP_P)
        g0 = initial_population(tree_u, uniform_probmap(tree_u), "constructor")
        with pytest.raises(AdtError, match="indexed differently"):
            expected_generation(g0, m, 1)


class TestStarProbs:
    def test_symmetric(self, treepp_u):
        p = {"Tree''.LeafA": 0.2, "Tree''.LeafB": 0.2,
             "Tree''.NodeA": 0.4, "Tree''.NodeB": 0.2}
        s = star_probs(treepp_u, p)
        assert s == {"Tree''.LeafA": 0.5, "Tree''.LeafB": 0.5}

    def test_ratio(self, treepp_u):
        p = {"Tree''.LeafA": 0.3, "Tree''.LeafB": 0.1,
             "Tree''.NodeA": 0.4, "Tree''.NodeB": 0.2}
        s = star_probs(treepp_u, p)
        assert s["Tree''.LeafA"] == pytest.approx(0.75)
        assert s["Tree''.LeafB"] == pytest.approx(0.25)

    def test_single_terminal(self, treep_u):
        assert star_probs(treep_u, TREEP_P) == {"Tree'.Leaf": 1.0}

    def test_no_terminal_is_error(self):
        u = parse_universe("data W = N W", "W")
        with pytest.raises(AdtError, match="no terminal"):
            star_probs(u, {"W.N": 1.0})

    def test_zero_probability_terminals_warn_and_fall_back(self, treepp_u):
        p = {"Tree''.LeafA": 0.0, "Tree''.LeafB": 0.0,
             "Tree''.NodeA": 0.6, "Tree''.NodeB": 0.4}
        with pytest.warns(UserWarning, match="uniform terminal"):
            s = star_probs(treepp_u, p)
        assert s == {"Tree''.LeafA": 0.5, "Tree''.LeafB": 0.5}

    def test_dead_type_is_silent(self, t1t2_u):
        import warnings
        p = {"T1.A": 1.0, "T1.B": 0.0, "T2.C": 0.0, "T2.D": 0.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = star_probs(t1t2_u, p)
        assert s["T2.C"] == 1.0


class TestPredict:
    def test_treep_matches_geometric_oracle(self, treep_u):
        # independent closed forms: sum of 1.3^k, and 1.3^10 for the fill
        report = predict_constructors(treep_u, TREEP_P, 10)
        pop9 = sum(1.3 ** k for k in range(10))
        assert report.per_constructor["Tree'.NodeA"].total == pytest.approx(
            0.5 * pop9, rel=1e-12)
        assert report.per_constructor["Tree'.NodeB"].total == pytest.approx(
            0.3 * pop9, rel=1e-12)
        leaf = report.per_constructor["Tree'.Leaf"]
        assert leaf.branching == pytest.approx(0.2 * pop9, rel=1e-12)
        assert leaf.last_level == pytest.approx(1.3 ** 10, rel=1e-12)

    def test_treep_matches_published_values(self, treep_u):
        report = predict_constructors(treep_u, TREEP_P, 10)
        assert report.per_constructor["Tree'.NodeA"].total == pytest.approx(21.322, rel=0.01)
        assert report.per_constructor["Tree'.NodeB"].total == pytest.approx(12.813, rel=0.01)

    def test_depth_one_hand_expansion(self, treep_u):
        report = predict_constructors(treep_u, TREEP_P, 1)
        assert report.per_constructor["Tree'.NodeA"].total == pytest.approx(0.5)
        assert report.per_constructor["Tree'.NodeB"].total == pytest.approx(0.3)
        # Leaf: root choice + one terminal per pending family slot
        assert report.per_constructor["Tree'.Leaf"].total == pytest.approx(
            0.2 + (2 * 0.5 + 0.3))

    def test_depth_one_enumeration_oracle(self, tree_u, treep_u, treepp_u, t1t2_u):
        cases = [
            (tree_u, uniform_probmap(tree_u)),
            (treep_u, TREEP_P),
            (treepp_u, {"Tree''.LeafA": 0.3, "Tree''.LeafB": 0.1,
                        "Tree''.NodeA": 0.4, "Tree''.NodeB": 0.2}),
            (t1t2_u, {"T1.A": 0.4, "T1.B": 0.6, "T2.C": 0.7, "T2.D": 0.3}),
        ]
        for u, probs in cases:
            want = helpers.enumerate_depth1(u, probs)
            got = predict_constructors(u, probs, 1)
            for cid, expected in want.items():
                assert got.per_constructor[cid].total == pytest.approx(
                    expected, abs=1e-12)

    def test_nonterminal_has_no_last_level(self, treep_u):
        report = predict_constructors(treep_u, TREEP_P, 10)
        assert report.per_constructor["Tree'.NodeA"].last_level == 0.0
        assert report.per_constructor["Tree'.NodeB"].last_level == 0.0

    def test_agrees_with_constructor_matrix_route(self, tree_u, treep_u,
                                                  treepp_u, t1t2_u):
        cases = [
            (tree_u, uniform_probmap(tree_u), 10),
            (treep_u, TREEP_P, 10),
            (treepp_u, uniform_probmap(treepp_u), 7),
            (t1t2_u, {"T1.A": 0.4, "T1.B": 0.6, "T2.C": 0.7, "T2.D": 0.3}, 12),
        ]
        for u, probs, n in cases:
            direct = helpers.predict_via_constructor_matrix(u, probs, n)
            report = predict_constructors(u, probs, n)
            for cid, want in direct.items():
                assert abs(report.per_constructor[cid].total - want) < 1e-9

    def test_agrees_on_random_universes(self):
        rng = random.Random(404)
        for _ in range(25):
            u, _ = helpers.random_universe(rng)
            probs = helpers.random_probmap(rng, u)
            try:
                direct = helpers.predict_via_constructor_matrix(u, probs, 6)
            except AdtError:
                continue  # family type without terminals: not predictable
            report = predict_constructors(u, probs, 6)
            for cid, want in direct.items():
                tol = 1e-9 * max(1.0, abs(want))
                assert abs(report.per_constructor[cid].total - want) < tol

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 30))
    def test_batch_branching_is_the_public_population(self, seed, size):
        # predict_batch and expected_population run one level loop, so the
        # engine's branching counts equal the public formula bit for bit
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng)
        cu = u.compiled
        maps = [helpers.random_probmap(rng, u) for _ in range(3)]
        branching, _ = predict_batch(u, maps, size)
        for row, probs in zip(branching, maps):
            pop = expected_population(initial_population(u, probs, "type"),
                                      mean_matrix_types(u, probs), size - 1).values
            p = np.array([probs[c] for c in cu.ctors[:cu.nfamily_ctors]])
            assert row.tobytes() == (pop[cu.family_owner] * p).tobytes()

    def test_size_must_be_positive(self, tree_u):
        with pytest.raises(AdtError, match="positive"):
            predict_constructors(tree_u, uniform_probmap(tree_u), 0)

    @pytest.mark.parametrize("size", [2.5, 10.0, "10", None])
    def test_size_must_be_an_integer(self, tree_u, size):
        with pytest.raises(AdtError, match="positive integer"):
            predict_constructors(tree_u, uniform_probmap(tree_u), size)

    def test_numpy_integer_size(self, tree_u):
        probs = uniform_probmap(tree_u)
        assert (predict_constructors(tree_u, probs, np.int64(7)).totals()
                == predict_constructors(tree_u, probs, 7).totals())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.25])
    def test_bad_probability_rejected_at_the_edge(self, tree_u, bad):
        probs = dict(uniform_probmap(tree_u), **{"Tree.Node": bad})
        calls = (lambda: predict_constructors(tree_u, probs, 5),
                 lambda: prediction_report_json(tree_u, probs, 5),
                 lambda: mean_matrix_types(tree_u, probs),
                 lambda: star_probs(tree_u, probs),
                 lambda: extinction_probability(tree_u, probs))
        for call in calls:
            with pytest.raises(AdtError, match="Tree.Node must be finite and nonnegative"):
                call()


    def test_overflow_emits_no_runtime_warning(self, tree_u):
        # Node = 0.9 grows 1.8-fold per level: the counts pass a double's range
        probs = {"Tree.LeafA": 0.05, "Tree.LeafB": 0.025, "Tree.LeafC": 0.025,
                 "Tree.Node": 0.9}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            totals = predict_constructors(tree_u, probs, 5000).totals()
            batch = predict_batch(tree_u, [probs, uniform_probmap(tree_u)], 5000)
            with pytest.raises(AdtError, match="size 5000 overflow a double"):
                prediction_report_json(tree_u, probs, 5000)
        assert not np.isfinite(list(totals.values())).all()
        assert not np.isfinite(batch[0][0]).all() and np.isfinite(batch[0][1]).all()


class TestConstructorTypeConsistency:
    def test_generation_theorem_fixtures(self, tree_u, treep_u, t1t2_u):
        for u in (tree_u, treep_u, t1t2_u):
            probs = uniform_probmap(u, u.family)
            mc = mean_matrix_constructors(u, probs)
            mt = mean_matrix_types(u, probs)
            gc = initial_population(u, probs, "constructor")
            gt = initial_population(u, probs, "type")
            for n in range(0, 21):
                by_ctor = expected_generation(gc, mc, n)
                by_type = expected_generation(gt, mt, n)
                for cid in mc.index:
                    want = by_type.get(u.ctor_type(cid)) * probs[cid]
                    assert abs(by_ctor.get(cid) - want) < 1e-9 * max(1.0, want)


class TestForeign:
    def test_worked_instance(self, composite_u):
        # frozen from substituting E[LeafA]=4, E[LeafB]=2, p_Just=0.5,
        # p_True=0.5 into the path-product rule
        report = PredictionReport(10, {
            "Tree.LeafA": ConstructorExpectation(4.0, 0.0),
            "Tree.LeafB": ConstructorExpectation(2.0, 0.0),
            "Tree.LeafC": ConstructorExpectation(0.0, 0.0),
            "Tree.Node": ConstructorExpectation(5.0, 0.0),
        })
        out = predict_foreign(composite_u, report)
        assert out["Bool.True"] == pytest.approx(3.0)
        assert out["Bool.False"] == pytest.approx(3.0)
        assert out["Maybe<Bool>.Just"] == pytest.approx(2.0)
        assert out["Maybe<Bool>.Nothing"] == pytest.approx(2.0)

    def test_formula_shape(self, composite_u):
        # E[True] = p_True * (E[LeafA] * p_Just + 2 * E[LeafB])
        probs = uniform_probmap(composite_u, composite_u.family)
        report = predict_constructors(composite_u, probs, 10)
        out = predict_foreign(composite_u, report)
        e_leafa = report.per_constructor["Tree.LeafA"].total
        e_leafb = report.per_constructor["Tree.LeafB"].total
        assert out["Bool.True"] == pytest.approx(0.5 * (e_leafa * 0.5 + 2 * e_leafb))

    def test_explicit_foreign_probs(self, composite_u):
        probs = uniform_probmap(composite_u, composite_u.family)
        report = predict_constructors(composite_u, probs, 10)
        fp = {"Maybe<Bool>.Just": 0.9, "Maybe<Bool>.Nothing": 0.1,
              "Bool.True": 0.25, "Bool.False": 0.75}
        out = predict_foreign(composite_u, report, fp)
        e_leafa = report.per_constructor["Tree.LeafA"].total
        e_leafb = report.per_constructor["Tree.LeafB"].total
        assert out["Bool.True"] == pytest.approx(0.25 * (e_leafa * 0.9 + 2 * e_leafb))

    def test_no_foreign_empty(self, tree_u):
        probs = uniform_probmap(tree_u)
        report = predict_constructors(tree_u, probs, 5)
        assert predict_foreign(tree_u, report) == {}

    def test_deeper_foreign_chain(self):
        src = """
        data Bool = True | False
        data Maybe a = Nothing | Just a
        data Wrap = W (Maybe Bool) Bool
        data Tree = Leaf Wrap | Node Tree Tree
        """
        u = parse_universe(src, "Tree")
        probs = uniform_probmap(u, u.family)
        report = predict_constructors(u, probs, 10)
        out = predict_foreign(u, report)
        leafs = report.per_constructor["Tree.Leaf"].total
        # placeholders: Wrap once per Leaf; Bool once per W plus once per Just
        assert out["Wrap.W"] == pytest.approx(leafs)
        assert out["Maybe<Bool>.Just"] == pytest.approx(leafs / 2)
        assert out["Bool.True"] == pytest.approx(0.75 * leafs)
        assert report.per_foreign == out


class TestExtinction:
    def test_derive_universe(self, derive_u):
        q = extinction_probability(derive_u, uniform_probmap(derive_u))
        assert q.get("T") == pytest.approx(0.5, abs=1e-9)

    def test_all_terminal(self):
        u = parse_universe("data U = A | B", "U")
        q = extinction_probability(u, uniform_probmap(u))
        assert q.get("U") == 1.0

    def test_tree_biased_quadratic_root(self, tree_u):
        # least root of q = 0.3 + 0.7 q^2 is 3/7
        probs = {"Tree.LeafA": 0.1, "Tree.LeafB": 0.1, "Tree.LeafC": 0.1,
                 "Tree.Node": 0.7}
        q = extinction_probability(tree_u, probs)
        assert q.get("Tree") == pytest.approx(3.0 / 7.0, abs=1e-9)

    def test_subcritical_is_certain(self, tree_u):
        q = extinction_probability(tree_u, uniform_probmap(tree_u))
        assert q.get("Tree") == pytest.approx(1.0, abs=1e-9)


class TestReportJson:
    def test_schema(self, composite_u):
        probs = uniform_probmap(composite_u, composite_u.family)
        doc = prediction_report_json(composite_u, probs, 10)
        assert set(doc) == {"size", "expected", "lastLevel", "foreign", "extinction"}
        assert doc["size"] == 10
        assert set(doc["expected"]) == set(composite_u.family_constructors())
        assert doc["extinction"]["Tree"] <= 1.0
        assert "Bool.True" in doc["foreign"]
        assert doc["lastLevel"]["Tree.Node"] == 0.0
