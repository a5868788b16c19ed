import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from branchgen import (
    AdtError,
    adhoc_genspec,
    extinction_probability,
    optimize,
    parse_universe,
    predict_constructors,
    predict_foreign,
    prediction_report_json,
    star_probs,
    uniform_cost,
    uniform_probmap,
)
from branchgen.adt import flat_bins
from branchgen.prediction import (
    LEVEL_LOOP_MAX,
    ConstructorExpectation,
    PredictionReport,
    Process,
    _family_probs,
    _fill,
    _level_sums,
    _scatter,
    _terminal_mass,
    _type_matrices,
    predict_schedule,
)
from branchgen.spec import build_schedule
from helpers import (
    TYPE,
    MeanMatrix,
    PopulationVector,
    expected_generation,
    expected_population,
    initial_population,
    mean_matrix_constructors,
    mean_matrix_types,
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


def _spawning_universe(rng, one_type):
    """A random family with foreign types and ground atoms, or a one-type
    family of 8 to 16 constructors, the first a terminal."""
    if not one_type:
        return helpers.random_universe(rng, max_types=10, max_ctors=60, extras=True)[0]
    fields = ["T0", "T0", "T0", "Int", "F"]
    alts = ["K0"] + [" ".join([f"K{i}"] + rng.sample(fields, rng.randint(0, 3)))
                     for i in range(1, rng.randint(8, 16))]
    return parse_universe("\n".join(["data T0 = " + " | ".join(alts), *helpers.EXTRA_DECLS]),
                          "T0")


def _probability_rows(rng, k, n):
    """k rows of n probabilities, about a third of them 0.0, some large."""
    return np.array([[rng.choice([0.0, rng.random(), rng.expovariate(0.01)]) for _ in range(n)]
                     for _ in range(k)]).reshape(k, n)


class TestSpawningRanks:
    """The type matrices sum only the spawning constructors, rank by rank;
    a terminal's term is p * 0, so leaving it out keeps every bit of the
    full-rank sum in declaration order (``helpers.type_matrices_add_at``).
    Stacks of 1x1 matrices take each level as one multiplication, which is
    the ``@`` product's one term."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), one_type=st.booleans(), k=st.integers(1, 12))
    def test_type_matrices_match_full_rank_sum(self, seed, one_type, k):
        rng = random.Random(seed)
        cu = _spawning_universe(rng, one_type).compiled
        p = _probability_rows(rng, k, cu.nfamily_ctors)
        assert _same_bits(_type_matrices(cu, p), helpers.type_matrices_add_at(cu, p))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), one_type=st.booleans(), k=st.integers(1, 12))
    def test_focused_rebuild_matches_full_rank_sum(self, seed, one_type, k):
        # each candidate changes the focus map's constructors of one type;
        # an index of nfamily changes none of them
        rng = random.Random(seed)
        u = _spawning_universe(rng, one_type)
        cu = u.compiled
        focus = _probability_rows(rng, 1, cu.nfamily_ctors)
        types = np.array([rng.randint(0, cu.nfamily) for _ in range(k)], dtype=np.intp)
        p = focus.repeat(k, axis=0)
        for i, t in enumerate(types.tolist()):
            if t < cu.nfamily:
                s = cu.slices[t]
                p[i, s] = _probability_rows(rng, 1, s.stop - s.start)
        got = Process(u, 1).matrices(p, types, focus[0])
        assert _same_bits(got, helpers.type_matrices_add_at(cu, p))
        assert _same_bits(got, _type_matrices(cu, p))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(0, 12),
           n=st.integers(0, LEVEL_LOOP_MAX))
    def test_one_type_level_steps_match_matmul(self, seed, k, n):
        rng = random.Random(seed)
        u = _spawning_universe(rng, one_type=True)
        m = _type_matrices(u.compiled, _probability_rows(rng, k, u.compiled.nfamily_ctors))
        v = np.ones((k, 1, 1))
        # large means overflow to inf within the 128 levels
        with np.errstate(over="ignore"):
            got, want = _level_sums(v, m, n), helpers.level_sums_loop(v, m, n)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (k, 1, 1) and g.tobytes() == w.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(k=st.sampled_from([1, 1, 2, 5, 12, 40]), n=st.integers(0, LEVEL_LOOP_MAX),
           data=st.data())
    def test_one_type_running_product_matches_elementwise_loop(self, k, n, data):
        # zeros, means that overflow to inf within n levels, and starts of
        # 0 that meet inf (0 * inf is nan)
        entries = st.sampled_from([0.0, 1e-200, 0.3, 1.0, 1.7, 1e10, 1e300, np.inf])
        v = np.array(data.draw(st.lists(entries, min_size=k, max_size=k))).reshape(k, 1, 1)
        m = np.array(data.draw(st.lists(entries, min_size=k, max_size=k))).reshape(k, 1, 1)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            got, want = _level_sums(v, m, n), helpers.level_sums_elementwise(v, m, n)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (k, 1, 1) and g.tobytes() == w.tobytes()


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _maps(rng, u, k, zeros):
    maps = [helpers.random_probmap(rng, u) for _ in range(k)]
    if zeros:
        for probs in maps:
            probs.update({c: 0.0 for c in probs if rng.random() < 0.3})
    return maps


def _batch(rng, u, k, zeros):
    cu = u.compiled
    return np.array([[probs[c] for c in cu.ctors[:cu.nfamily_ctors]]
                     for probs in _maps(rng, u, k, zeros)],
                    dtype=float).reshape(k, cu.nfamily_ctors)


class TestScatterKernels:
    """Every scatter of the prediction is one ``np.bincount`` over flat
    indices; here each equals the ``np.add.at`` form in ``helpers`` bit for
    bit, sign of zero included. Batch sizes grow and shrink within one
    universe, so the indices kept on the compiled universe are regrown and
    then read in part."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), zeros=st.booleans(),
           sizes=st.lists(st.integers(0, 12), min_size=1, max_size=5))
    def test_batch_scatters_match_add_at(self, seed, zeros, sizes):
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, max_types=10, max_ctors=60)
        cu = u.compiled
        for k in sizes:
            p = _batch(rng, u, k, zeros)
            v = np.array([[rng.choice([0.0, -0.0, rng.random(), rng.expovariate(0.01)])
                           for _ in range(cu.nfamily)] for _ in range(k)]).reshape(k, cu.nfamily)
            assert _same_bits(_fill(cu, v, p), helpers.fill_add_at(cu, v, p))
            assert _same_bits(_terminal_mass(cu, p), helpers.terminal_mass_add_at(cu, p))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                stars = Process(u, 1).stars(p)
            assert all("all terminal constructors of" in str(w.message) for w in caught)
            assert _same_bits(stars, helpers.star_vectors_masked(cu, p))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([1, 1, 2, 7, 30]),
           zeros=st.booleans(), huge=st.booleans())
    def test_stars_match_the_where_formula(self, seed, k, zeros, huge):
        # the padded division where every type has terminal mass, the
        # where form where one starves; with huge entries a type's terminal
        # mass can overflow to inf, which reads p / inf = 0
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, max_types=10, max_ctors=60)
        cu = u.compiled
        p = _batch(rng, u, k, zeros)
        if huge:
            p[np.array([[rng.random() < 0.3 for _ in range(p.shape[1])] for _ in range(k)])] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with np.errstate(over="ignore"):
                got, want = Process(u, 1).stars(p), helpers.stars_where(cu, p)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), ntypes=st.integers(1, 10),
           nrows=st.integers(1, 60))
    def test_type_sums_match_add_at(self, seed, ntypes, nrows):
        # the extinction solve's layouts: constructor rows summed per type,
        # n wide for the mean matrix and n + 1 wide for the Newton sums
        rng = np.random.default_rng(seed)
        row_type = rng.integers(0, ntypes, nrows)
        for width in (ntypes, ntypes + 1):
            w = rng.choice([0.0, -0.0, 1.0], (nrows, width)) * rng.exponential(size=(nrows, width))
            got = _scatter(flat_bins(row_type, np.arange(width), width), w, (ntypes, width))
            assert _same_bits(got, helpers.type_sums_add_at(row_type, w, ntypes))

    def test_one_row_and_empty_batches(self):
        u, _ = helpers.random_universe(random.Random(7), max_types=10, max_ctors=60)
        cu = u.compiled
        maps = _maps(random.Random(8), u, 5, zeros=False)
        branching, last = helpers.predict_rows(u, maps, 6)
        one = helpers.predict_rows(u, maps[:1], 6)
        assert _same_bits(one[0], branching[:1]) and _same_bits(one[1], last[:1])
        for got in helpers.predict_rows(u, [], 6):
            assert _same_bits(got, np.zeros((0, cu.nfamily_ctors)))
        empty = np.zeros((0, cu.nfamily_ctors))
        assert _same_bits(_fill(cu, np.zeros((0, cu.nfamily)), empty),
                          np.zeros((0, cu.nfamily)))
        assert _same_bits(Process(u, 1).stars(empty), empty)

    def test_family_without_fields(self):
        # no (constructor, family field) pairs: the fill adds no weights
        u = parse_universe("data U = A | B", "U")
        cu = u.compiled
        p = np.array([[0.5, 0.5], [0.25, 0.75]])
        assert _same_bits(_fill(cu, np.ones((2, 1)), p), np.zeros((2, 1)))


class TestLevelDoubling:
    """Above ``LEVEL_LOOP_MAX`` levels ``_level_sums`` powers by doubling;
    it must be finite wherever the level loop in ``helpers`` is, and equal
    to it there to 1e-12 relative. Entries below 1e-290 are compared
    absolutely: their relative rounding depends on the order of the
    products."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), extra=st.integers(1, 64), zeros=st.booleans())
    def test_doubling_matches_the_level_loop(self, seed, extra, zeros):
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, max_types=10, max_ctors=30)
        cu = u.compiled
        p = _batch(rng, u, 3, zeros)
        m = _type_matrices(cu, p)
        v = np.zeros((3, 1, cu.nfamily))
        v[:, 0, cu.index[u.root]] = 1.0
        n = LEVEL_LOOP_MAX + extra
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = zip(_level_sums(v, m, n), helpers.level_sums_loop(v, m, n))
            single = zip(_level_sums(v[0, 0], m[0], n), helpers.level_sums_loop(v[0, 0], m[0], n))
            for got, want in [*stacked, *single]:
                finite = np.isfinite(want)
                assert np.isfinite(got[finite]).all()
                np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=1e-290)

    def test_unreached_supercritical_type(self):
        # RS = 0, so R never reaches S, whose own powers overflow by 4096
        # levels; the doubling must not form 0 * inf = nan from them
        u = parse_universe("data R = RL | RN R | RS S\ndata S = SL | SN S S | SR R", "R")
        probs = {"R.RL": 0.5, "R.RN": 0.5, "R.RS": 0.0, "S.SL": 0.2, "S.SN": 0.7, "S.SR": 0.1}
        cu = u.compiled
        m = _type_matrices(cu, _family_probs(cu, probs))
        v = np.zeros((1, 1, cu.nfamily))
        v[0, 0, cu.index["R"]] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            want = helpers.level_sums_loop(v, m, 4999)
        for got, exp in zip(_level_sums(v, m, 4999), want):
            assert np.isfinite(exp).all()
            np.testing.assert_allclose(got, exp, rtol=1e-12, atol=1e-290)
        branching, last = helpers.predict_rows(u, [probs], 5000)
        assert branching[0].tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        assert np.isfinite(last).all()

    def test_supercritical_type_reached_with_tiny_probability(self):
        # S alone grows 1.8x a level, so its own powers pass a double by
        # 2048 levels; R reaches it only with probability 1e-250, so the
        # loop's counts stay finite up to ~2e286 at 2100 levels
        u = parse_universe("data R = RL | RN R | RS S\ndata S = SL | SN S S | SR R", "R")
        probs = {"R.RL": 0.5, "R.RN": 0.5 - 1e-250, "R.RS": 1e-250,
                 "S.SL": 0.05, "S.SN": 0.9, "S.SR": 0.05}
        cu = u.compiled
        m = _type_matrices(cu, _family_probs(cu, probs))
        v = np.zeros((1, 1, cu.nfamily))
        v[0, 0, cu.index["R"]] = 1.0
        for n in (1500, 2047, 2048, 2100, 2200):
            with np.errstate(over="ignore", invalid="ignore"):
                want = helpers.level_sums_loop(v, m, n)
                got = _level_sums(v, m, n)
            for g, w in zip(got, want):
                finite = np.isfinite(w)
                assert np.isfinite(g[finite]).all()
                np.testing.assert_allclose(g[finite], w[finite], rtol=1e-12, atol=1e-290)
        assert not np.isfinite(want[1]).all()  # the loop itself overflows by 2200
        branching, last = helpers.predict_rows(u, [probs], 2101)
        assert np.isfinite(branching).all() and np.isfinite(last).all()
        assert branching[0, cu.ctors.index("S.SN")] > 1e286

    def test_at_the_threshold_the_loop_runs(self, tree_u):
        probs = {"Tree.LeafA": 0.1, "Tree.LeafB": 0.1, "Tree.LeafC": 0.1, "Tree.Node": 0.7}
        g0 = initial_population(tree_u, probs, "type")
        m = mean_matrix_types(tree_u, probs)
        want = helpers.level_sums_loop(g0.values, m.entries, LEVEL_LOOP_MAX)
        assert expected_generation(g0, m, LEVEL_LOOP_MAX).values.tobytes() == want[0].tobytes()
        assert expected_population(g0, m, LEVEL_LOOP_MAX).values.tobytes() == want[1].tobytes()

    def test_size_of_a_billion(self, tree_u):
        # critical binary Tree: the type matrix is [[1.0]], so every sum the
        # doubling forms is an exact integer, and 10**9 levels take ~60 products
        probs = {"Tree.LeafA": 0.25, "Tree.LeafB": 0.125, "Tree.LeafC": 0.125,
                 "Tree.Node": 0.5}
        totals = predict_constructors(tree_u, probs, 10 ** 9).totals()
        assert totals["Tree.Node"] == 5e8
        assert totals["Tree.LeafA"] == 2.5e8 + 0.5


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


STARVED_TREE = {"Tree.LeafA": 0.0, "Tree.LeafB": 0.0, "Tree.LeafC": 0.0, "Tree.Node": 1.0}


class TestWarningLocation:
    """A starved-terminal warning names the caller's line, not a line inside
    branchgen, whichever entry point raises it."""

    @pytest.mark.parametrize("call", [
        lambda u: predict_constructors(u, STARVED_TREE, 3),
        lambda u: star_probs(u, STARVED_TREE),
        lambda u: uniform_cost(u)(3, STARVED_TREE),
        lambda u: adhoc_genspec(u, 3, "dragen", STARVED_TREE),
        lambda u: optimize(uniform_cost(u), 3, STARVED_TREE),
    ], ids=["predict_constructors", "star_probs", "cost", "adhoc_genspec", "optimize"])
    def test_warning_names_the_callers_file(self, tree_u, call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(tree_u)
        assert [str(w.message) for w in caught][:1] == [
            "all terminal constructors of Tree have probability 0; "
            "using a uniform terminal distribution at the last level"]
        assert [w.filename for w in caught] == [__file__] * len(caught)


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
        # the engine and expected_population run one level loop, so the
        # engine's branching counts equal the public formula bit for bit
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng)
        cu = u.compiled
        maps = [helpers.random_probmap(rng, u) for _ in range(3)]
        branching, _ = helpers.predict_rows(u, maps, size)
        for row, probs in zip(branching, maps):
            pop = expected_population(initial_population(u, probs, "type"),
                                      mean_matrix_types(u, probs), size - 1).values
            p = np.array([probs[c] for c in cu.ctors[:cu.nfamily_ctors]])
            assert row.tobytes() == (pop[cu.family_owner] * p).tobytes()

    def test_size_must_be_positive(self, tree_u):
        with pytest.raises(AdtError, match="positive"):
            predict_constructors(tree_u, uniform_probmap(tree_u), 0)

    @pytest.mark.parametrize("size", [2.5, 10.0, "10", None, True])
    def test_size_must_be_an_integer(self, tree_u, size):
        with pytest.raises(AdtError, match="positive integer"):
            predict_constructors(tree_u, uniform_probmap(tree_u), size)

    def test_numpy_integer_size(self, tree_u):
        probs = uniform_probmap(tree_u)
        assert (predict_constructors(tree_u, probs, np.int64(7)).totals()
                == predict_constructors(tree_u, probs, 7).totals())
        assert type(prediction_report_json(tree_u, probs, np.int64(7))["size"]) is int

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
            batch = helpers.predict_rows(tree_u, [probs, uniform_probmap(tree_u)], 5000)
            with pytest.raises(AdtError, match="size 5000 overflow a double"):
                prediction_report_json(tree_u, probs, 5000)
        assert not np.isfinite(list(totals.values())).all()
        assert not np.isfinite(batch[0][0]).all() and np.isfinite(batch[0][1]).all()

    @pytest.mark.parametrize("level_sums", ["expected_population", "expected_generation"])
    def test_overflowing_level_sums_are_an_error_not_a_warning(self, tree_u, level_sums):
        probs = {"Tree.LeafA": 0.05, "Tree.LeafB": 0.025, "Tree.LeafC": 0.025,
                 "Tree.Node": 0.9}
        g0 = initial_population(tree_u, probs, TYPE)
        m = mean_matrix_types(tree_u, probs)
        call = {"expected_population": expected_population,
                "expected_generation": expected_generation}[level_sums]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AdtError, match="must be finite and nonnegative"):
                call(g0, m, 5000)
            assert np.isfinite(call(g0, m, 500).values).all()


class TestSchedulePrediction:
    """``predict_schedule``: the branching process on a schedule's rows, run
    for its levels, then its final row on the final level."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(0, 200))
    def test_megadeth_matches_the_declaration_oracle(self, seed, size):
        u, _ = helpers.random_universe(random.Random(seed), extras=True)
        got = predict_schedule(u, build_schedule(u, "megadeth", size))
        want = helpers.megadeth_oracle(u, size)
        assert set(want) <= set(got)
        for cid, value in got.items():
            assert value == pytest.approx(want.get(cid, 0.0), rel=1e-12, abs=0.0), cid

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 200))
    def test_dragen_with_derived_stars_is_the_report(self, seed, size):
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, extras=True)
        probs = helpers.random_probmap(rng, u)
        schedule = build_schedule(u, "dragen", size, probs, star_probs(u, probs))
        report = predict_constructors(u, probs, size)
        want = {**report.totals(), **predict_foreign(u, report)}
        got = predict_schedule(u, schedule)
        assert got.keys() == want.keys()
        for cid, value in got.items():
            assert value == pytest.approx(want[cid], rel=1e-12, abs=1e-300), cid

    def test_star_probabilities_are_the_specs(self, tree_u):
        # the final level draws by the given stars, not by ones derived
        # from the probabilities
        probs = uniform_probmap(tree_u)
        stars = {"Tree.LeafA": 2.0, "Tree.LeafB": 1.0, "Tree.LeafC": 1.0}
        got = predict_schedule(tree_u, build_schedule(tree_u, "dragen", 1, probs, stars))
        # the root draws each constructor with probability 1/4, and a Node
        # root's two children draw leaves by the stars, normalized
        assert got == {"Tree.LeafA": 0.25 + 0.5 * 0.5, "Tree.LeafB": 0.25 + 0.5 * 0.25,
                       "Tree.LeafC": 0.25 + 0.5 * 0.25, "Tree.Node": 0.25}

    @pytest.mark.parametrize("strategy", ["dragen", "megadeth"])
    def test_size_zero_is_the_roots_final_row(self, composite_u, strategy):
        probs = uniform_probmap(composite_u, composite_u.family)
        stars = {"Tree.LeafA": 0.5, "Tree.LeafB": 0.3, "Tree.LeafC": 0.2}
        got = predict_schedule(composite_u, build_schedule(composite_u, strategy, 0,
                                                           probs, stars))
        a, b, c = (0.5, 0.3, 0.2) if strategy == "dragen" else (1 / 3,) * 3
        assert got == {"Tree.LeafA": a, "Tree.LeafB": b, "Tree.LeafC": c, "Tree.Node": 0.0,
                       "Maybe<Bool>.Nothing": a / 2, "Maybe<Bool>.Just": a / 2,
                       "Bool.True": (a / 2 + 2 * b) / 2, "Bool.False": (a / 2 + 2 * b) / 2}


    def test_derive_is_refused(self, tree_u):
        # derive's process is unbounded: it has no final level to predict
        with pytest.raises(AdtError, match="covers the size-bounded strategies"):
            predict_schedule(tree_u, build_schedule(tree_u, "derive", -1))


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

    def test_a_dict_of_floats_in_family_order(self, t1t2_u):
        q = extinction_probability(t1t2_u, half_probs(t1t2_u))
        assert list(q) == list(t1t2_u.family)
        assert all(type(v) is float for v in q.values())


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


class TestExtinctionNewton:
    """The decomposed Newton solve against ``helpers.extinction_oracle``, a
    whole-system Newton iteration in 60-digit decimals, and at the edges:
    critical, reducible, dead and all-terminal systems."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), max_types=st.sampled_from([3, 6, 10]),
           zeros=st.booleans(), coarse=st.booleans())
    def test_random_universes(self, seed, max_types, zeros, coarse):
        rng = random.Random(seed)
        u, _ = helpers.random_universe(rng, max_types, max_ctors=6 * max_types)
        probs = helpers.random_probmap(rng, u)
        if coarse:
            # entries from {0, 1/4, 1/2, 1} make exactly critical components
            # common, where the sure-extinction test meets its slack
            probs = {c: rng.choice([0.0, 0.25, 0.5, 1.0]) for c in probs}
        if zeros:
            # zero entries may cut the family into several components, or
            # leave a type that can no longer finish a value
            probs.update({c: 0.0 for c in probs if rng.random() < 0.3})
        got = extinction_probability(u, probs)
        want = helpers.extinction_oracle(u, probs)
        assert got.keys() == want.keys()
        for tid in want:
            assert abs(got[tid] - want[tid]) <= 1e-12, tid

    def test_critical_tree_is_exactly_one(self, tree_u):
        probs = {"Tree.LeafA": 0.5 / 3, "Tree.LeafB": 0.5 / 3, "Tree.LeafC": 0.5 / 3,
                 "Tree.Node": 0.5}
        assert extinction_probability(tree_u, probs).get("Tree") == 1.0
        # with binary fractions the decimal renormalization is exact too
        probs = {"Tree.LeafA": 0.25, "Tree.LeafB": 0.125, "Tree.LeafC": 0.125,
                 "Tree.Node": 0.5}
        assert extinction_probability(tree_u, probs).get("Tree") == 1.0
        assert helpers.extinction_oracle(tree_u, probs)["Tree"] == 1.0

    @pytest.mark.parametrize("excess", [1e-6, 1e-5])
    def test_near_critical_tree(self, tree_u, excess):
        # q = (1 - P) / P for Node = P > 1/2; the solve on 1 - q keeps the
        # digits that a solve on q loses to 1 / (1 - rho) amplification
        node = 0.5 + excess
        leaf = (1.0 - node) / 3
        probs = {"Tree.LeafA": leaf, "Tree.LeafB": leaf, "Tree.LeafC": leaf, "Tree.Node": node}
        p = Fraction(node) / (Fraction(node) + 3 * Fraction(leaf))
        got = extinction_probability(tree_u, probs).get("Tree")
        assert abs(Fraction(got) - (1 - p) / p) <= 1e-14

    def test_renormalized_sum_above_one(self):
        # S has no terminal mass and only constructors of degree >= 2 in the
        # component, so its Jacobian row is 0 at y = 1 and its first step is
        # its renormalized probabilities' sum minus 1, here 2^-52 above 0;
        # y must stay at most 1, or log1p(-y) is nan
        u = parse_universe("data S = A | B T T | C T T T\ndata T = L | W S", "S")
        b, c = 0.40181682221254356, 0.6785150052419683
        assert b / (b + c) + c / (b + c) > 1.0
        probs = {"S.A": 0.0, "S.B": b, "S.C": c, "T.L": 0.31617713722134233,
                 "T.W": 0.2135246620646961}
        got = extinction_probability(u, probs)
        want = helpers.extinction_oracle(u, probs)
        for tid in want:
            assert abs(got[tid] - want[tid]) <= 1e-15, tid
        with pytest.warns(UserWarning, match="uniform terminal"):
            doc = prediction_report_json(u, probs, 5)
        assert np.isfinite(list(doc["extinction"].values())).all()

    def test_critical_two_type_component_is_exactly_one(self, t1t2_u):
        # mean matrix [[0.5, 0.5], [1, 0]] has spectral radius 1
        probs = {"T1.A": 0.5, "T1.B": 0.5, "T2.C": 0.0, "T2.D": 1.0}
        assert extinction_probability(t1t2_u, probs) == {"T1": 1.0, "T2": 1.0}

    # Families whose mean matrix has every row sum exactly 1 under binary
    # fractions, so spectral radius exactly 1; "nudge" moves 1e-6 of one
    # type's terminal mass to its recursive constructor
    CRITICAL = [
        ("data A = A0 | A1 B A | A2 B\ndata B = B0 | B1 A A",
         {"A.A0": 0.25, "A.A1": 0.25, "A.A2": 0.5, "B.B0": 0.5, "B.B1": 0.5},
         ("B.B0", "B.B1")),
        ("data A = A0 | A1 B C\ndata B = B0 | B1 C | B2 A A A\ndata C = C0 | C1 A B",
         {"A.A0": 0.5, "A.A1": 0.5, "B.B0": 0.5, "B.B1": 0.25, "B.B2": 0.25,
          "C.C0": 0.5, "C.C1": 0.5},
         ("C.C0", "C.C1")),
        ("data A = A0 | A1 B C\ndata B = B0 | B1 C D | B2 B\ndata C = C0 | C1 D D\n"
         "data D = D0 | D1 A A | D2 A B C D",
         {"A.A0": 0.5, "A.A1": 0.5, "B.B0": 0.25, "B.B1": 0.25, "B.B2": 0.5,
          "C.C0": 0.5, "C.C1": 0.5, "D.D0": 0.625, "D.D1": 0.25, "D.D2": 0.125},
         ("D.D0", "D.D2")),
    ]

    @pytest.mark.parametrize("src,probs,nudge", CRITICAL, ids=["2", "3", "4"])
    def test_critical_components_are_exactly_one(self, src, probs, nudge):
        u = parse_universe(src, "A")
        assert extinction_probability(u, probs) == dict.fromkeys(u.family, 1.0)
        terminal, recursive = nudge
        probs = {**probs, terminal: probs[terminal] - 1e-6,
                 recursive: probs[recursive] + 1e-6}
        got = extinction_probability(u, probs)
        want = helpers.extinction_oracle(u, probs)
        for tid in want:
            assert got[tid] < 1.0 and abs(got[tid] - want[tid]) <= 1e-12, tid

    def test_sure_extinction_needs_no_eigenvalues(self, t1t2_u, monkeypatch):
        # the sure-extinction test is one linear solve, whatever the
        # component's size and whether it is critical, sub- or supercritical
        def eigvals(*_):
            raise AssertionError("np.linalg.eigvals called")
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        probs = {"T1.A": 0.5, "T1.B": 0.5, "T2.C": 0.0, "T2.D": 1.0}
        assert extinction_probability(t1t2_u, probs) == {"T1": 1.0, "T2": 1.0}
        # test_reducible_family's universe, with B2 > 0 joining A and B
        # into one supercritical component
        u = parse_universe("data A = A0 | A1 A B | A2 A A\n"
                           "data B = B0 | B1 B B | B2 A", "A")
        probs = {"A.A0": 0.4, "A.A1": 0.3, "A.A2": 0.3,
                 "B.B0": 0.3, "B.B1": 0.7, "B.B2": 0.5}
        got = extinction_probability(u, probs)
        want = helpers.extinction_oracle(u, probs)
        assert all(abs(got[t] - want[t]) <= 1e-12 < 1.0 - got[t] for t in want)
        u = parse_universe((Path(__file__).parent / "wide60_seed0.adt").read_text(), "T0")
        uniform = uniform_probmap(u, u.family)
        assert max(extinction_probability(u, uniform).values()) < 1.0
        terminal_half = {c: 0.5 if i == 0 else 0.5 / (len(cs) - 1)
                         for t in u.family for cs in [u.constructors_of(t)]
                         for i, c in enumerate(cs)}
        assert extinction_probability(u, terminal_half) == dict.fromkeys(u.family, 1.0)

    def test_reducible_family(self):
        # B2 = 0 leaves B unable to reach A, so B is a component below A
        # and is solved first: q_B = 3/7, which A1's coefficient then carries
        u = parse_universe("data A = A0 | A1 A B | A2 A A\n"
                           "data B = B0 | B1 B B | B2 A", "A")
        probs = {"A.A0": 0.4, "A.A1": 0.3, "A.A2": 0.3,
                 "B.B0": 0.3, "B.B1": 0.7, "B.B2": 0.0}
        got = extinction_probability(u, probs)
        assert got["B"] == pytest.approx(3.0 / 7.0, abs=1e-15)
        want = helpers.extinction_oracle(u, probs)
        assert abs(got["A"] - want["A"]) <= 1e-15
        # a subcritical component whose field below it can fail is not 1
        probs.update({"A.A0": 0.8, "A.A1": 0.1, "A.A2": 0.1})
        got = extinction_probability(u, probs)
        assert got["A"] < 1.0
        assert abs(got["A"] - helpers.extinction_oracle(u, probs)["A"]) <= 1e-15

    def test_reducible_family_below_a_sure_component(self):
        # critical B (B1 = 0.5 with two B fields) dies out surely and is
        # exactly 1, and so is subcritical A above it
        u = parse_universe("data A = A0 | A1 A B\ndata B = B0 | B1 B B | B2 A", "A")
        probs = {"A.A0": 0.6, "A.A1": 0.4, "B.B0": 0.5, "B.B1": 0.5, "B.B2": 0.0}
        assert extinction_probability(u, probs) == {"A": 1.0, "B": 1.0}

    @pytest.mark.parametrize("src,probs,want", [
        # no terminal mass: the process never stops
        ("data T = Leaf | Node T T", {"T.Leaf": 0.0, "T.Node": 1.0}, {"T": 0.0}),
        # a one-child cycle: I - J is singular at every point
        ("data T = Leaf | Wrap T", {"T.Leaf": 0.0, "T.Wrap": 1.0}, {"T": 0.0}),
        # B has no mass, so A1 never finishes and A stops only through A0
        ("data A = A0 | A1 B\ndata B = B0 | B1 A",
         {"A.A0": 0.25, "A.A1": 0.75, "B.B0": 0.0, "B.B1": 0.0}, {"A": 0.25, "B": 0.0}),
        # B cannot finish a value, and only A0 avoids it
        ("data A = A0 | A1 A B\ndata B = B0 | B1 B A",
         {"A.A0": 0.5, "A.A1": 0.5, "B.B0": 0.0, "B.B1": 1.0}, {"A": 0.5, "B": 0.0}),
    ], ids=["no-terminal-mass", "one-child-cycle", "dead-type", "unfinishable-type"])
    def test_dead_components(self, src, probs, want):
        u = parse_universe(src, next(iter(want)))
        assert extinction_probability(u, probs) == want
        assert helpers.extinction_oracle(u, probs) == want

    def test_all_terminal_family_member(self):
        # C has only terminals; the family's other types still recurse
        u = parse_universe("data A = A0 | A1 A C\ndata C = C0 | C1 | C2 A", "A")
        probs = {"A.A0": 0.5, "A.A1": 0.5, "C.C0": 0.5, "C.C1": 0.5, "C.C2": 0.0}
        assert extinction_probability(u, probs) == {"A": 1.0, "C": 1.0}

    def test_unnormalized_map_is_renormalized(self, tree_u):
        # the sampler draws in proportion, so a scaled map has the same odds
        probs = {"Tree.LeafA": 0.05, "Tree.LeafB": 0.05, "Tree.LeafC": 0.05, "Tree.Node": 0.35}
        assert extinction_probability(tree_u, probs).get("Tree") == pytest.approx(
            3.0 / 7.0, abs=1e-15)
