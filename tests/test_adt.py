import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from branchgen import (
    STRATEGY_DRAGEN,
    AdtError,
    GenSpec,
    ParseError,
    adhoc_genspec,
    build_cdg,
    empirical_stats,
    extinction_probability,
    load_probmap,
    neighbors,
    parse_universe,
    predict_constructors,
    predict_foreign,
    print_universe,
    probmap_to_json,
    renormalize_probmap,
    resolve_constructor,
    sample_dragen,
    sample_values,
    star_probs,
    terminal_constructors,
    uniform_cost,
    uniform_probmap,
    universe_hash,
    validate_probmap,
)
from branchgen import adt
from branchgen.adt import ADTUniverse, reachable_foreign_types
from conftest import COMPOSITE_SRC, T1T2_SRC, TREE_SRC, TREEPP_SRC
from helpers import branching_factor


class TestParsing:
    def test_tree(self, tree_u):
        assert tree_u.family == ("Tree",)
        assert tree_u.family_constructors() == (
            "Tree.LeafA", "Tree.LeafB", "Tree.LeafC", "Tree.Node")
        assert branching_factor("Tree.Node", "Tree", tree_u) == 2

    def test_singleton_nonrecursive(self):
        u = parse_universe("data U = OnlyU", "U")
        assert u.family == ("U",)
        assert terminal_constructors("U", u) == ("U.OnlyU",)
        assert u.type_graph["U"] == ()

    def test_mutual_family(self, t1t2_u):
        assert set(t1t2_u.family) == {"T1", "T2"}

    def test_comments_and_layout(self):
        src = """
        -- a comment
        data Tree = LeafA | LeafB  -- trailing comment
                  | LeafC
                  | Node Tree Tree
        """
        u = parse_universe(src, "Tree")
        assert len(u.decls["Tree"].constructors) == 4

    def test_monomorphization(self, composite_u):
        assert "Maybe<Bool>" in composite_u.decls
        assert composite_u.constructors_of("Maybe<Bool>") == (
            "Maybe<Bool>.Nothing", "Maybe<Bool>.Just")

    def test_distinct_instantiations(self):
        src = """
        data Maybe a = Nothing | Just a
        data T = X (Maybe Int) | Y (Maybe Double) | Z
        """
        u = parse_universe(src, "T")
        assert "Maybe<Int>" in u.decls and "Maybe<Double>" in u.decls

    def test_nested_application(self):
        src = """
        data Pair a b = MkPair a b
        data Maybe a = Nothing | Just a
        data T = X (Pair (Maybe Int) Char) | Z
        """
        u = parse_universe(src, "T")
        assert "Pair<Maybe<Int>,Char>" in u.decls

    def test_generic_member_of_family(self):
        # a generic instantiation can be mutually recursive with the root
        src = """
        data List a = Nil | Cons a (List a)
        data Rose = Node (List Rose) | Tip
        """
        u = parse_universe(src, "Rose")
        assert set(u.family) == {"Rose", "List<Rose>"}

    def test_ground_atoms(self):
        u = parse_universe("data T = X Int Double Char Unit | Z", "T")
        kinds = [f.kind for f in u.ctor_decl("T.X").fields]
        assert kinds == ["ground"] * 4


class TestParseErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_universe("data T = | X", "T")
        assert exc.value.line == 1 and exc.value.column > 0

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_universe("data T = X\ndata W = ?", "W")

    def test_unknown_type(self):
        with pytest.raises(AdtError, match="unknown type reference"):
            parse_universe("data T = X Wat", "T")

    def test_duplicate_constructor(self):
        with pytest.raises(AdtError, match="duplicate constructor"):
            parse_universe("data A = X\ndata B = X", "A")

    def test_duplicate_type(self):
        with pytest.raises(AdtError, match="duplicate type"):
            parse_universe("data A = X\ndata A = Y", "A")

    def test_unbound_tyvar(self):
        with pytest.raises(AdtError, match="unbound type variable"):
            parse_universe("data T = X a", "T")

    def test_bare_generic(self):
        with pytest.raises(AdtError, match="without its 1 argument"):
            parse_universe("data Maybe a = Nothing | Just a\ndata T = X Maybe", "T")

    def test_arity_mismatch(self):
        with pytest.raises(AdtError, match="expects 1 argument"):
            parse_universe("data Maybe a = Nothing | Just a\ndata T = X (Maybe Int Int)", "T")

    def test_apply_non_generic(self):
        with pytest.raises(AdtError, match="not generic"):
            parse_universe("data W = V\ndata T = X (W Int)", "T")

    def test_generic_root(self):
        with pytest.raises(AdtError, match="generic"):
            parse_universe("data Maybe a = Nothing | Just a", "Maybe")

    def test_missing_root(self):
        with pytest.raises(AdtError, match="not declared"):
            parse_universe("data T = X", "Nope")

    def test_redeclare_builtin(self):
        with pytest.raises(ParseError):
            parse_universe("data Int = Zero", "Int")

    def test_recursive_foreign_rejected(self):
        src = """
        data List a = Nil | Cons a (List a)
        data T = X (List Int) | Z
        """
        with pytest.raises(AdtError, match="recursive type component outside"):
            parse_universe(src, "T")

    def test_deep_nesting_is_a_parse_error(self):
        src = "data T = A " + "(M " * 5000 + "T" + ")" * 5000
        with pytest.raises(ParseError, match="nested deeper") as exc:
            parse_universe(src, "T")
        assert exc.value.line == 1

    def test_polymorphic_recursion_hits_instantiation_cap(self):
        src = """
        data P a = PN | PC (P (P a))
        data T = TT (P T) | TL
        """
        with pytest.raises(AdtError, match="too many generic instantiations"):
            parse_universe(src, "T")

    @pytest.mark.parametrize("src, message", [
        ("data T =", "unexpected end of input"),
        ("data T X", "expected '=', found 'X'"),
        ("T = X", "expected 'data', found 'T'"),
        ("data t = X", "type name must start uppercase: 't'"),
        ("data T = X = Y", "unexpected '='"),
        ("data T = X (a Int)", "generic application must name a type: 'a'"),
        ("data T = X (Maybe data)", "unexpected 'data'"),
        ("data T = X (Wat Int)", "unknown type reference 'Wat' in T"),
        ("data P a a = PN\ndata T = X", "duplicate type variable in P"),
    ], ids=["end-of-input", "expected-equals", "expected-data", "lowercase-type",
            "second-equals", "lowercase-application", "data-as-field",
            "unknown-generic", "duplicate-tyvar"])
    def test_rejected_with_message(self, src, message):
        with pytest.raises(AdtError) as exc:
            parse_universe(src, "T")
        assert message in str(exc.value)

    def test_unreachable_recursive_component_allowed(self):
        src = """
        data Loop = Self Loop | Stop
        data T = X | Y T
        """
        u = parse_universe(src, "T")
        assert u.family == ("T",)


class TestStructure:
    def test_branching_factors(self, tree_u, t1t2_u):
        assert branching_factor("Tree.Node", "Tree", tree_u) == 2
        assert branching_factor("Tree.LeafA", "Tree", tree_u) == 0
        assert branching_factor("T1.B", "T2", t1t2_u) == 1

    @pytest.mark.parametrize("lookup, message", [
        (lambda u: u.constructors_of("Nope"), "unknown type: Nope"),
        (lambda u: u.ctor_type("Tree.Nope"), "unknown constructor: Tree.Nope"),
        (lambda u: u.ctor_decl("Tree.Nope"), "unknown constructor: Tree.Nope"),
    ], ids=["constructors-of", "ctor-type", "ctor-decl"])
    def test_lookup_of_unknown_id(self, tree_u, lookup, message):
        with pytest.raises(AdtError, match=message):
            lookup(tree_u)

    def test_terminals(self, tree_u, treepp_u, t1t2_u):
        assert set(terminal_constructors("Tree", tree_u)) == {
            "Tree.LeafA", "Tree.LeafB", "Tree.LeafC"}
        assert set(terminal_constructors("Tree''", treepp_u)) == {
            "Tree''.LeafA", "Tree''.LeafB"}
        assert terminal_constructors("T2", t1t2_u) == ("T2.C",)

    def test_terminals_outside_family(self, composite_u):
        with pytest.raises(AdtError, match="not in the branching family"):
            terminal_constructors("Bool", composite_u)

    def test_terminal_may_have_foreign_fields(self, composite_u):
        # LeafA carries (Maybe Bool) but no family reference: still terminal
        assert "Tree.LeafA" in terminal_constructors("Tree", composite_u)

    def test_branching_factor_brute_force(self):
        rng = random.Random(2024)
        for _ in range(30):
            u, fields_of = helpers.random_universe(rng)
            for cid, targets in fields_of.items():
                for tid in u.decls:
                    assert branching_factor(cid, tid, u) == targets.count(tid)

    def test_family_closed_under_mutual_recursion(self):
        rng = random.Random(7)
        for _ in range(30):
            u, _ = helpers.random_universe(rng)
            graph = u.type_graph
            for tid in u.family:
                reach = {tid}
                todo = [tid]
                while todo:
                    for w in graph.get(todo.pop(), ()):
                        if w not in reach:
                            reach.add(w)
                            todo.append(w)
                assert u.root in reach or tid == u.root


RECURSIVE_OUTSIDE = "unsupported: recursive type component outside the root's family: "

# A field: ("t", i) names type Ti, ("maybe", i) and ("list", i) apply the
# generic Maybe and List to Ti, ("g", atom) is a ground atom.
_FIELDS = st.one_of(
    st.tuples(st.sampled_from(["t", "t", "maybe", "list"]), st.integers(0, 5)),
    st.tuples(st.just("g"), st.sampled_from(["Int", "Unit"])),
)
_DECLS = st.lists(st.lists(st.lists(_FIELDS, max_size=3), min_size=1, max_size=3),
                  min_size=1, max_size=6)


def _declaration_set(types, root_pick):
    """DSL text, root, and the type-reference edges of a random declaration
    set, the edges worked out here from the field choices."""
    n = len(types)
    edges: dict[str, set[str]] = {}
    alts_of = []
    for i, ctors in enumerate(types):
        tname = f"T{i}"
        edges.setdefault(tname, set())
        alts = []
        for j, fields in enumerate(ctors):
            words = [f"C{i}_{j}"]
            for kind, k in fields:
                if kind == "g":
                    words.append(k)
                    continue
                target = f"T{k % n}"
                if kind == "t":
                    words.append(target)
                    edges[tname].add(target)
                    continue
                generic = "Maybe" if kind == "maybe" else "List"
                inst = f"{generic}<{target}>"
                words.append(f"({generic} {target})")
                edges[tname].add(inst)
                edges.setdefault(inst, set()).add(target)
                if generic == "List":
                    edges[inst].add(inst)
            alts.append(" ".join(words))
        alts_of.append(f"data {tname} = " + " | ".join(alts))
    text = "\n".join(alts_of + ["data Maybe a = Nothing | Just a",
                                "data List a = Nil | Cons a (List a)"])
    return text, f"T{root_pick % n}", edges


class TestFamilyAndForeign:
    """The family and the foreign types against a boolean-matrix closure of
    the reference graph (``helpers.closure``)."""

    @settings(max_examples=300, deadline=None)
    @given(types=_DECLS, root_pick=st.integers(0, 5))
    def test_against_closure(self, types, root_pick):
        text, root, edges = _declaration_set(types, root_pick)
        names = sorted(edges)
        reach, cyclic = helpers.closure(names, edges)
        family = {t for t in reach[root] if root in reach[t]}
        foreign = reach[root] - family
        on_cycle = sorted(foreign & cyclic)
        if on_cycle:
            with pytest.raises(AdtError) as exc:
                parse_universe(text, root)
            assert str(exc.value) == RECURSIVE_OUTSIDE + ", ".join(on_cycle)
            return
        u = parse_universe(text, root)
        assert set(u.family) == family and len(u.family) == len(family)
        order = reachable_foreign_types(u)
        assert sorted(order) == sorted(foreign)
        # the smallest name whose foreign referrers all come earlier, each time
        for i, t in enumerate(order):
            ready = [s for s in foreign - set(order[:i])
                     if not any(s in edges[r] for r in foreign - set(order[:i]))]
            assert t == min(ready)
        assert u.compiled.types == u.family + order

    def test_list_of_atom_type_names_only_the_list(self):
        src = """
        data Bool = True | False
        data List a = Nil | Cons a (List a)
        data X = X (List Bool) | Y
        """
        with pytest.raises(AdtError) as exc:
            parse_universe(src, "X")
        assert str(exc.value) == RECURSIVE_OUTSIDE + "List<Bool>"

    def test_two_recursive_components_both_named(self):
        src = """
        data List a = Nil | Cons a (List a)
        data Loop = Again Loop | Stop
        data T = A (List Int) | B Loop | C T | D
        """
        with pytest.raises(AdtError) as exc:
            parse_universe(src, "T")
        assert str(exc.value) == RECURSIVE_OUTSIDE + "List<Int>, Loop"

    def test_universe_built_directly(self, composite_u):
        u = ADTUniverse(composite_u.decls, composite_u.root, composite_u.family,
                        composite_u.type_graph)
        assert reachable_foreign_types(u) == ("Maybe<Bool>", "Bool")
        graph = dict(composite_u.type_graph, Bool=("Bool",))
        with pytest.raises(AdtError, match=RECURSIVE_OUTSIDE + "Bool$"):
            ADTUniverse(composite_u.decls, composite_u.root, composite_u.family, graph)


class TestCdg:
    def test_composite_edges(self, composite_u):
        cdg = build_cdg(composite_u)
        edges = {(e.parent, e.child): e.multiplicity for e in cdg.edges}
        assert edges[("Tree.LeafA", "Maybe<Bool>.Just")] == 1
        assert edges[("Tree.LeafA", "Maybe<Bool>.Nothing")] == 1
        assert edges[("Maybe<Bool>.Just", "Bool.True")] == 1
        assert edges[("Maybe<Bool>.Just", "Bool.False")] == 1
        assert edges[("Tree.LeafB", "Bool.True")] == 2
        assert edges[("Tree.LeafB", "Bool.False")] == 2
        assert ("Tree.Node", "Bool.True") not in edges

    def test_no_foreign_no_edges(self, tree_u):
        assert build_cdg(tree_u).edges == ()


class TestCompiled:
    def test_layout(self, composite_u):
        cu = composite_u.compiled
        assert cu.types[:cu.nfamily] == composite_u.family
        assert cu.types[cu.nfamily:] == reachable_foreign_types(composite_u)
        for t, tid in enumerate(cu.types):
            assert cu.ctors[cu.slices[t]] == composite_u.constructors_of(tid)
            assert (cu.owner[cu.slices[t]] == t).all()
        for c, cid in enumerate(cu.ctors):
            for t, tid in enumerate(cu.types):
                assert cu.counts[c, t] == branching_factor(cid, tid, composite_u)
            decl = composite_u.ctor_decl(cid)
            assert len(cu.rows[c]) == len(decl.fields)
            assert cu.terminal[c] == (decl.family_arity() == 0)

    def test_type_major_layout(self, composite_u):
        # each family type's spawning (non-terminal) constructors in
        # declaration order, padded to the widest type with the type's first
        # constructor at zero counts; terminals are left out
        cu = parse_universe("data A = LA | NA B A | MA A\ndata B = NB A | LB", "A").compiled
        assert cu.type_cols.tolist() == [[1, 2], [3, 3]]
        assert cu.type_counts.tolist() == [[[1.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        cu = parse_universe("data U = A | B", "U").compiled
        assert cu.type_cols.shape == (1, 0) and cu.type_counts.shape == (1, 0, 1)

        rng = random.Random(17)
        universes = [composite_u, parse_universe("data A = LA | NA B A\ndata B = NB A", "A")]
        universes += [helpers.random_universe(rng, max_types=10, max_ctors=60, extras=True)[0]
                      for _ in range(30)]
        for u in universes:
            cu = u.compiled
            nf = cu.nfamily
            spawning = [[c for c in range(s.start, s.stop)
                         if u.ctor_decl(cu.ctors[c]).family_arity()] for s in cu.slices[:nf]]
            width = max(map(len, spawning))
            assert cu.type_cols.shape == (nf, width)
            assert cu.type_counts.shape == (nf, width, nf)
            assert cu.type_counts.dtype == float
            for t, (s, cols) in enumerate(zip(cu.slices[:nf], spawning)):
                n = len(cols)
                assert cu.type_cols[t, :n].tolist() == cols
                assert (cu.type_cols[t, n:] == s.start).all()
                assert (cu.type_counts[t, n:] == 0.0).all()
                # the pads dropped, the rows are the counts of t's spawning
                # constructors, each with a family field
                assert (cu.type_counts[t, :n] == cu.counts[cols, :nf]).all()
                assert cu.type_counts[t, :n].any(axis=1).all()

    def test_built_once_and_shared(self, monkeypatch):
        calls = []

        class Counting(adt.CompiledUniverse):
            def __init__(self, u):
                calls.append(u)
                super().__init__(u)

        monkeypatch.setattr(adt, "CompiledUniverse", Counting)
        u = parse_universe(COMPOSITE_SRC, "Tree")
        probs = uniform_probmap(u, u.family)
        for size in (1, 5):
            predict_foreign(u, predict_constructors(u, probs, size))
        extinction_probability(u, probs)
        spec = adhoc_genspec(u, 4, "dragen")
        for i in range(3):
            sample_dragen(u, spec, seed=1, index=i)
        build_cdg(u)
        assert calls == [u]


class TestProbMaps:
    def test_uniform_tree(self, tree_u):
        probs = uniform_probmap(tree_u)
        assert all(p == 0.25 for p in probs.values())

    def test_uniform_singleton(self):
        u = parse_universe("data U = OnlyU", "U")
        assert uniform_probmap(u) == {"U.OnlyU": 1.0}

    def test_uniform_per_type(self, t1t2_u):
        probs = uniform_probmap(t1t2_u)
        assert probs == {"T1.A": 0.5, "T1.B": 0.5, "T2.C": 0.5, "T2.D": 0.5}
        validate_probmap(t1t2_u, probs)

    def test_validate_rejects_bad_sum(self, tree_u):
        bad = {c: 0.3 for c in tree_u.family_constructors()}
        with pytest.raises(AdtError, match="sum"):
            validate_probmap(tree_u, bad)

    def test_validate_rejects_partial_type(self, tree_u):
        with pytest.raises(AdtError, match="missing"):
            validate_probmap(tree_u, {"Tree.Node": 1.0})

    def test_validate_rejects_negative(self, tree_u):
        bad = dict.fromkeys(tree_u.family_constructors(), 0.25)
        bad["Tree.Node"] = -0.25
        bad["Tree.LeafA"] = 0.75
        with pytest.raises(AdtError, match="out of range"):
            validate_probmap(tree_u, bad)

    def test_validate_allows_dead_type(self, t1t2_u):
        probs = {"T1.A": 1.0, "T1.B": 0.0, "T2.C": 0.0, "T2.D": 0.0}
        validate_probmap(t1t2_u, probs)

    def test_renormalize_pinned(self, tree_u):
        out = renormalize_probmap(tree_u, uniform_probmap(tree_u),
                                  pinned={"Tree.LeafB", "Tree.LeafC"})
        assert out["Tree.LeafB"] == 0.0 and out["Tree.LeafC"] == 0.0
        assert out["Tree.LeafA"] == pytest.approx(0.5)
        assert out["Tree.Node"] == pytest.approx(0.5)
        validate_probmap(tree_u, out)

    def test_renormalize_all_zero_type_is_uniform(self, tree_u):
        zeros = dict.fromkeys(tree_u.family_constructors(), 0.0)
        assert renormalize_probmap(tree_u, zeros) == dict.fromkeys(zeros, 0.25)
        assert renormalize_probmap(tree_u, zeros, pinned={"Tree.Node"}) == {
            **dict.fromkeys(zeros, 1 / 3), "Tree.Node": 0.0}

    def test_renormalize_always_normalized(self):
        rng = random.Random(5)
        for _ in range(25):
            u, _ = helpers.random_universe(rng)
            probs = helpers.random_probmap(rng, u)
            ctors = u.family_constructors()
            pinned = {c for c in ctors if rng.random() < 0.2}
            # keep at least one free constructor per type
            for tid in u.family:
                tc = u.constructors_of(tid)
                if all(c in pinned for c in tc):
                    pinned.discard(tc[0])
            out = renormalize_probmap(u, probs, pinned)
            validate_probmap(u, out)
            assert all(out[c] == 0.0 for c in pinned)

    def test_json_round_trip(self, tree_u):
        probs = uniform_probmap(tree_u)
        doc = probmap_to_json(probs)
        assert doc["probabilities"]["Tree.Node"] == 0.25
        assert load_probmap(doc, tree_u) == probs

    def test_load_rejects_unknown(self, tree_u):
        with pytest.raises(AdtError, match="unknown constructor"):
            load_probmap({"probabilities": {"Tree.Nope": 1.0}}, tree_u)

    @pytest.mark.parametrize("doc, message", [
        ([1], 'must be {"probabilities"'),
        ({"probs": {}}, 'must be {"probabilities"'),
        ({"probabilities": [1]}, '"probabilities" must be an object'),
    ], ids=["list", "no-probabilities", "probabilities-list"])
    def test_load_rejects_malformed_document(self, tree_u, doc, message):
        with pytest.raises(AdtError) as exc:
            load_probmap(doc, tree_u)
        assert message in str(exc.value)

    @pytest.mark.parametrize("value", [True, False, "0", "0.25", None, [0.25]],
                             ids=["true", "false", "zero-string", "number-string", "null",
                                  "list"])
    def test_load_rejects_non_number(self, tree_u, value):
        doc = {"probabilities": {**uniform_probmap(tree_u), "Tree.LeafB": value}}
        with pytest.raises(AdtError) as exc:
            load_probmap(doc, tree_u)
        assert str(exc.value) == f"probability of Tree.LeafB must be a number, got {value!r}"

    def test_load_rejects_bad_per_type_sum(self, tree_u):
        doc = {"probabilities": dict.fromkeys(tree_u.family_constructors(), 0.3)}
        with pytest.raises(AdtError):
            load_probmap(doc, tree_u)


# A family (Tree) with foreign types (Bool, Atom), for the map readers below
RULE_SRC = """
data Bool = True | False
data Atom = AInt Int | AUnit Unit
data Tree = LeafA | LeafB Bool | LeafC Atom | Node Tree Tree
"""

# One bad entry of each kind, with the message every reader gives for it
# (``{c}`` is the constructor)
BAD_ENTRIES = {
    "missing": (None, "missing probability entries: ['{c}']"),
    "negative": (-0.5, "probability of {c} must be finite and nonnegative, got -0.5"),
    "nan": (float("nan"), "probability of {c} must be finite and nonnegative, got nan"),
    "inf": (float("inf"), "probability of {c} must be finite and nonnegative, got inf"),
    "bool": (True, "probability of {c} must be a number, got True"),
    "string": ("0.25", "probability of {c} must be a number, got '0.25'"),
}


def _spec(u, probs, stars):
    return GenSpec(u.root, 4, STRATEGY_DRAGEN, probs, stars, universe_hash(u))


# Each entry point, called with a family map, a foreign map and a star map
# (the ones it reads)
MAP_READERS = {
    "predict_constructors": lambda u, fam, fgn, st: predict_constructors(u, fam, 5),
    "star_probs": lambda u, fam, fgn, st: star_probs(u, fam),
    "extinction_probability": lambda u, fam, fgn, st: extinction_probability(u, fam),
    "predict_foreign": lambda u, fam, fgn, st: predict_foreign(
        u, predict_constructors(u, fam, 5), fgn),
    "sample_dragen": lambda u, fam, fgn, st: sample_dragen(u, _spec(u, fam, st), 0, 0, fgn),
    "sample_values": lambda u, fam, fgn, st: list(
        sample_values(u, _spec(u, fam, st), 0, 3, foreign_probs=fgn)),
    "empirical_stats": lambda u, fam, fgn, st: empirical_stats(u, _spec(u, fam, st), 10, 0, fgn),
    "neighbors": lambda u, fam, fgn, st: neighbors(u, fam, 0.1),
    "CostFunction.__call__": lambda u, fam, fgn, st: uniform_cost(u)(5, fam),
}
SAMPLERS = ("sample_dragen", "sample_values", "empirical_stats")
# (entry point, map given the bad entry, constructor given it, kind of entry);
# a star map may leave a terminal out, which reads 0
READS = [(name, which, cid, kind) for name, which, cid in (
    [(name, "family", "Tree.LeafA") for name in MAP_READERS if name != "predict_foreign"]
    + [("predict_foreign", "foreign", "Atom.AInt")]
    + [(name, "foreign", "Atom.AInt") for name in SAMPLERS]
    + [(name, "stars", "Tree.LeafA") for name in SAMPLERS])
    for kind in BAD_ENTRIES if (which, kind) != ("stars", "missing")]


class TestProbabilityRule:
    """Every map a prediction, a cost, a search or a sampler reads follows
    one rule: each entry present, a number, finite and nonnegative."""

    @pytest.mark.parametrize("name, which, cid, kind", READS,
                             ids=[f"{name}-{which}-{kind}" for name, which, _, kind in READS])
    def test_every_map_reader_gives_the_same_error(self, name, which, cid, kind):
        u = parse_universe(RULE_SRC, "Tree")
        family = uniform_probmap(u, u.family)
        maps = {"family": family,
                "foreign": uniform_probmap(u, ["Bool", "Atom"]),
                "stars": star_probs(u, family)}
        value, message = BAD_ENTRIES[kind]
        bad = dict(maps[which])
        if value is None:
            del bad[cid]
        else:
            bad[cid] = value
        maps[which] = bad
        with pytest.raises(AdtError) as exc:
            MAP_READERS[name](u, maps["family"], maps["foreign"], maps["stars"])
        assert str(exc.value) == message.format(c=cid)

    def test_numpy_and_integer_entries_are_numbers(self):
        u = parse_universe(RULE_SRC, "Tree")
        family = uniform_probmap(u, u.family)
        want = predict_constructors(u, family, 5).totals()
        assert predict_constructors(u, {c: np.float64(p) for c, p in family.items()},
                                    5).totals() == want
        one = {c: 0 for c in family} | {"Tree.LeafA": 1}
        assert star_probs(u, one) == {"Tree.LeafA": 1.0, "Tree.LeafB": 0.0, "Tree.LeafC": 0.0}


class TestResolve:
    def test_bare_and_qualified(self, tree_u):
        assert resolve_constructor(tree_u, "Node") == "Tree.Node"
        assert resolve_constructor(tree_u, "Tree.Node") == "Tree.Node"

    def test_ambiguous(self):
        src = """
        data Maybe a = Nothing | Just a
        data T = X (Maybe Int) | Y (Maybe Char) | Z
        """
        u = parse_universe(src, "T")
        with pytest.raises(AdtError, match="ambiguous"):
            resolve_constructor(u, "Just")

    def test_unknown(self, tree_u):
        with pytest.raises(AdtError, match="unknown constructor"):
            resolve_constructor(tree_u, "Nope")


class TestRoundTrip:
    @pytest.mark.parametrize("src,root", [
        (TREE_SRC, "Tree"),
        (T1T2_SRC, "T1"),
        (TREEPP_SRC, "Tree''"),
        (COMPOSITE_SRC, "Tree"),
    ])
    def test_print_parse_identity(self, src, root):
        u = parse_universe(src, root)
        again = parse_universe(print_universe(u), root)
        assert again.decls == u.decls
        assert again.family == u.family
        assert again.type_graph == u.type_graph
        assert universe_hash(again) == universe_hash(u)

    def test_random_round_trips(self):
        rng = random.Random(99)
        for _ in range(25):
            u, _ = helpers.random_universe(rng)
            again = parse_universe(print_universe(u), u.root)
            assert again.decls == u.decls and again.family == u.family

    def test_hash_distinguishes_roots(self, t1t2_u):
        other = parse_universe(T1T2_SRC, "T2")
        assert universe_hash(other) != universe_hash(t1t2_u)
