import json

import pytest

from branchgen import (
    BudgetExhausted,
    GenSpec,
    adhoc_genspec,
    parse_universe,
    sample_derive,
    sample_dragen,
    sample_megadeth,
    universe_hash,
    value_to_sexp,
)
from branchgen.cli import main
from conftest import COMPOSITE_SRC, DERIVE_SRC, T1T2_SRC, TREE_SRC, TREEP_SRC


@pytest.fixture()
def tree_file(tmp_path):
    path = tmp_path / "tree.adt"
    path.write_text(TREE_SRC + "\n")
    return str(path)


@pytest.fixture()
def treep_file(tmp_path):
    path = tmp_path / "treep.adt"
    path.write_text(TREEP_SRC + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_tree_summary(self, capsys, tree_file):
        code, out, _ = run(capsys, "check", "-f", tree_file, "--root", "Tree")
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == ["Tree"]
        assert doc["constructorCount"] == 4
        assert doc["terminals"]["Tree"] == ["Tree.LeafA", "Tree.LeafB", "Tree.LeafC"]

    def test_mutual_family(self, capsys, tmp_path):
        path = tmp_path / "t.adt"
        path.write_text(T1T2_SRC)
        code, out, _ = run(capsys, "check", "-f", str(path), "--root", "T1")
        assert code == 0
        assert json.loads(out)["family"] == ["T1", "T2"]

    def test_composite_cdg(self, capsys, tmp_path):
        path = tmp_path / "c.adt"
        path.write_text(COMPOSITE_SRC)
        code, out, _ = run(capsys, "check", "-f", str(path), "--root", "Tree")
        doc = json.loads(out)
        assert {"parent": "Tree.LeafB", "child": "Bool.True",
                "multiplicity": 2} in doc["cdgEdges"]

    def test_malformed_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.adt"
        path.write_text("data T = | X\n")
        code, out, err = run(capsys, "check", "-f", str(path), "--root", "T")
        assert code == 1
        assert out == ""
        assert "line 1" in err

    @pytest.mark.parametrize("src", [
        "data T = A " + "(M " * 5000 + "T" + ")" * 5000,
        "data P a = PN | PC (P (P a))\ndata T = TT (P T) | TL",
    ], ids=["deep-nesting", "polymorphic-recursion"])
    def test_malformed_nesting_fails_cleanly(self, capsys, tmp_path, src):
        path = tmp_path / "deep.adt"
        path.write_text(src)
        code, out, err = run(capsys, "check", "-f", str(path), "--root", "T")
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "-f", "/nonexistent.adt", "--root", "T")
        assert code == 1 and "cannot read" in err


class TestPredict:
    def test_uniform_default(self, capsys, tree_file):
        code, out, _ = run(capsys, "predict", "-f", tree_file, "--root", "Tree",
                           "--size", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["expected"]["Tree.Node"] == pytest.approx(0.4997, rel=1e-3)
        assert doc["extinction"]["Tree"] == pytest.approx(1.0, abs=1e-9)

    def test_probs_file(self, capsys, treep_file, tmp_path):
        probs = tmp_path / "p.json"
        probs.write_text(json.dumps({"probabilities": {
            "Tree'.Leaf": 0.2, "Tree'.NodeA": 0.5, "Tree'.NodeB": 0.3}}))
        code, out, _ = run(capsys, "predict", "-f", treep_file, "--root", "Tree'",
                           "--size", "10", "--probs", str(probs))
        assert code == 0
        doc = json.loads(out)
        assert doc["expected"]["Tree'.NodeA"] == pytest.approx(21.322, rel=0.01)
        assert doc["expected"]["Tree'.NodeB"] == pytest.approx(12.813, rel=0.01)

    def test_bad_probs_sum(self, capsys, tree_file, tmp_path):
        probs = tmp_path / "p.json"
        probs.write_text(json.dumps({"probabilities": {
            "Tree.LeafA": 0.5, "Tree.LeafB": 0.5, "Tree.LeafC": 0.5,
            "Tree.Node": 0.5}}))
        code, _, err = run(capsys, "predict", "-f", tree_file, "--root", "Tree",
                           "--size", "10", "--probs", str(probs))
        assert code == 1 and "sum" in err

    def test_size_one_matches_enumeration(self, capsys, treep_file, tmp_path):
        import helpers
        from branchgen import parse_universe
        probs = {"Tree'.Leaf": 0.2, "Tree'.NodeA": 0.5, "Tree'.NodeB": 0.3}
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"probabilities": probs}))
        code, out, _ = run(capsys, "predict", "-f", treep_file, "--root", "Tree'",
                           "--size", "1", "--probs", str(pfile))
        assert code == 0
        doc = json.loads(out)
        want = helpers.enumerate_depth1(parse_universe(TREEP_SRC, "Tree'"), probs)
        for cid, expected in want.items():
            assert doc["expected"][cid] == pytest.approx(expected, abs=1e-12)

    def test_overflowing_expectation_fails_cleanly(self, capsys, tree_file, tmp_path):
        probs = tmp_path / "p.json"
        probs.write_text(json.dumps({"probabilities": {
            "Tree.LeafA": 0.2, "Tree.LeafB": 0.1, "Tree.LeafC": 0.1, "Tree.Node": 0.6}}))
        code, out, err = run(capsys, "predict", "-f", tree_file, "--root", "Tree",
                             "--size", "100000", "--probs", str(probs))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "size 100000" in err

    def test_starved_terminals_warn_in_one_line(self, capsys, tree_file, tmp_path):
        probs = tmp_path / "p.json"
        probs.write_text(json.dumps({"probabilities": {
            "Tree.LeafA": 0, "Tree.LeafB": 0, "Tree.LeafC": 0, "Tree.Node": 1}}))
        code, out, err = run(capsys, "predict", "-f", tree_file, "--root", "Tree",
                             "--size", "3", "--probs", str(probs))
        assert code == 0 and json.loads(out)["size"] == 3
        assert err.splitlines() == [
            "warning: all terminal constructors of Tree have probability 0; "
            "using a uniform terminal distribution at the last level"]

    def test_usage_error(self, capsys, tree_file):
        code = main(["predict", "-f", tree_file, "--root", "Tree"])
        capsys.readouterr()
        assert code == 2


UNIFORM_TREE = {"Tree.LeafA": 0.25, "Tree.LeafB": 0.25, "Tree.LeafC": 0.25,
                "Tree.Node": 0.25}


@pytest.mark.parametrize("flag,text", [
    ("--probs", json.dumps({"probabilities": {**UNIFORM_TREE, "Tree.Node": "abc"}})),
    ("--probs", json.dumps({"probabilities": {**UNIFORM_TREE, "Tree.Node": None}})),
    ("--probs", json.dumps({"probabilities": {**UNIFORM_TREE, "Tree.Node": [1]}})),
    ("--probs", '{"probabilities": '),
    ("--spec", json.dumps({"root": "Tree", "size": "x", "strategy": "dragen",
                           "probabilities": UNIFORM_TREE, "starProbabilities": {},
                           "universeHash": ""})),
], ids=["probs-string", "probs-null", "probs-list", "probs-not-json", "spec-size-string"])
def test_malformed_input_fails_cleanly(capsys, tree_file, tmp_path, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, "sample", "-f", tree_file, "--root", "Tree",
                         "--size", "3", flag, str(path), "--count", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:")


class TestOptimize:
    def test_emits_spec_prediction_trace(self, capsys, tree_file, tmp_path):
        out_path = tmp_path / "spec.json"
        code, out, _ = run(capsys, "optimize", "-f", tree_file, "--root", "Tree",
                           "--size", "10", "--cost", "uniform",
                           "--out", str(out_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["genSpec"]["strategy"] == "dragen"
        assert doc["trace"]["outcome"] in ("LocalMinimum", "EpsilonStop", "StepCap")
        assert doc["trace"]["finalCost"] <= doc["trace"]["initialCost"]
        saved = json.loads(out_path.read_text())
        assert saved == doc["genSpec"]

    def test_constrained_cost(self, capsys, tree_file):
        code, out, _ = run(capsys, "optimize", "-f", tree_file, "--root", "Tree",
                           "--size", "10", "--cost", "only(Tree.LeafA,Tree.Node)")
        assert code == 0
        doc = json.loads(out)
        assert doc["genSpec"]["probabilities"]["Tree.LeafB"] == 0.0
        assert doc["prediction"]["expected"]["Tree.LeafB"] == 0.0

    def test_impossible_constraint(self, capsys, tree_file):
        code, _, err = run(capsys, "optimize", "-f", tree_file, "--root", "Tree",
                           "--size", "10",
                           "--cost", "without(Tree.LeafA,Tree.LeafB,Tree.LeafC)")
        assert code == 1 and "terminal" in err

    def test_bad_cost_expression(self, capsys, tree_file):
        code, _, err = run(capsys, "optimize", "-f", tree_file, "--root", "Tree",
                           "--size", "10", "--cost", "fancy(1,2)")
        assert code == 1 and "unknown cost" in err

    @pytest.mark.parametrize("flag,value", [
        ("--cost", "weighted(Tree.Node=nan)"),
        ("--cost", "weighted(Tree.Node=inf)"),
        ("--cost", "weighted(Tree.Node=1e308)"),
        ("--epsilon", "nan"),
    ], ids=["weight-nan", "weight-inf", "weight-times-size-overflows", "epsilon-nan"])
    def test_malformed_input_fails_cleanly(self, capsys, tree_file, flag, value):
        code, out, err = run(capsys, "optimize", "-f", tree_file, "--root", "Tree",
                             "--size", "10", flag, value)
        assert code == 1 and out == ""
        assert err.startswith("error:")


    @pytest.mark.parametrize("flag,value,message", [
        ("--size", "0", "size must be a positive integer, got 0"),
        # every candidate would quantize to the start map's key; the search
        # refuses it, and the CLI prints its message
        ("--delta", "5e-7", "delta must be in [1e-06, 1), got 5e-07"),
    ], ids=["size-zero", "delta-below-quantum"])
    def test_rejected_with_message(self, capsys, tree_file, flag, value, message):
        code, out, err = run(capsys, "optimize", "-f", tree_file, "--root", "Tree",
                             "--size", "10", flag, value)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_delta_at_the_quantum_takes_steps(self, capsys, tree_file):
        code, out, _ = run(capsys, "optimize", "-f", tree_file, "--root", "Tree",
                           "--size", "10", "--delta", "1e-6", "--max-steps", "3")
        assert code == 0 and json.loads(out)["trace"]["steps"] == 3


@pytest.mark.parametrize("argv,seed,message", [
    (("predict", "--size", "3"), None, "--root is required"),
    (("predict", "--root", "Tree", "--size", "0"), None, "size must be a positive integer, got 0"),
    (("sample", "--root", "Tree", "--count", "1"), None, "either --spec or --size is required"),
    (("sample", "--root", "Tree", "--size", "3", "--count", "1"), "abc",
     "DRAGEN_SEED must be an integer, got 'abc'"),
], ids=["no-root", "predict-size-zero", "no-size", "bad-seed-variable"])
def test_usage_fails_with_message(capsys, tree_file, monkeypatch, argv, seed, message):
    if seed is not None:
        monkeypatch.setenv("DRAGEN_SEED", seed)
    code, out, err = run(capsys, argv[0], "-f", tree_file, *argv[1:])
    assert (code, out, err) == (1, "", f"error: {message}\n")


class TestSample:
    def test_deterministic_under_seed(self, capsys, tree_file, tmp_path):
        spec_path = tmp_path / "spec.json"
        run(capsys, "optimize", "-f", tree_file, "--root", "Tree", "--size", "5",
            "--out", str(spec_path))
        code, out1, _ = run(capsys, "sample", "-f", tree_file, "--spec",
                            str(spec_path), "--count", "5", "--seed", "7")
        assert code == 0
        _, out2, _ = run(capsys, "sample", "-f", tree_file, "--spec",
                         str(spec_path), "--count", "5", "--seed", "7")
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 5
        assert out1.startswith("(")

    def test_env_seed_fallback(self, capsys, tree_file, monkeypatch):
        monkeypatch.setenv("DRAGEN_SEED", "99")
        code, out1, _ = run(capsys, "sample", "-f", tree_file, "--root", "Tree",
                            "--size", "5", "--count", "3")
        _, out2, _ = run(capsys, "sample", "-f", tree_file, "--root", "Tree",
                         "--size", "5", "--count", "3")
        assert code == 0 and out1 == out2

    def test_json_format(self, capsys, tree_file):
        code, out, _ = run(capsys, "sample", "-f", tree_file, "--root", "Tree",
                           "--size", "5", "--count", "2", "--seed", "1",
                           "--format", "json")
        assert code == 0
        for line in out.strip().splitlines():
            assert "constructor" in json.loads(line)

    def test_derive_reports_aborts(self, capsys, tmp_path):
        path = tmp_path / "d.adt"
        path.write_text(DERIVE_SRC)
        code, out, _ = run(capsys, "sample", "-f", str(path), "--root", "T",
                           "--size", "0", "--strategy", "derive", "--count", "40",
                           "--seed", "0", "--budget", "8")
        assert code == 0
        assert "(#budget-exhausted)" in out

    @pytest.mark.parametrize("strategy,src,root", [
        ("dragen", COMPOSITE_SRC, "Tree"),
        ("megadeth", T1T2_SRC, "T1"),
        ("derive", DERIVE_SRC, "T"),
    ])
    def test_each_line_is_that_index_sample(self, capsys, tmp_path, strategy, src, root):
        path = tmp_path / "u.adt"
        path.write_text(src)
        code, out, _ = run(capsys, "sample", "-f", str(path), "--root", root, "--size", "4",
                           "--strategy", strategy, "--count", "40", "--seed", "3",
                           "--budget", "12")
        assert code == 0
        u = parse_universe(src, root)
        spec = adhoc_genspec(u, 4, strategy)
        want = []
        for i in range(40):
            if strategy == "dragen":
                v = sample_dragen(u, spec, 3, i)
            elif strategy == "megadeth":
                v = sample_megadeth(u, spec.probabilities, 4, 3, i)
            else:
                v = sample_derive(u, 12, 3, i)
            want.append("(#budget-exhausted)" if isinstance(v, BudgetExhausted)
                        else value_to_sexp(v))
        assert out.splitlines() == want
        if strategy == "derive":
            assert 0 < want.count("(#budget-exhausted)") < len(want)

    @pytest.mark.parametrize("strategy", ["dragen", "megadeth", "derive"])
    def test_negative_size_rejected(self, capsys, tree_file, strategy):
        code, out, err = run(capsys, "sample", "-f", tree_file, "--root", "Tree",
                             "--size", "-1", "--strategy", strategy, "--count", "5")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "nonnegative" in err

    def test_derive_ignores_size(self, capsys, tree_file):
        outs = []
        for size in ("0", "7"):
            code, out, _ = run(capsys, "sample", "-f", tree_file, "--root", "Tree",
                               "--size", size, "--strategy", "derive", "--count", "5")
            assert code == 0 and len(out.splitlines()) == 5
            outs.append(out)
        assert outs[0] == outs[1]

    def test_dead_type_reached(self, capsys, tmp_path):
        path = tmp_path / "ab.adt"
        path.write_text("data A = LA | NA B A\ndata B = LB | NB A\n")
        probs = tmp_path / "p.json"
        probs.write_text(json.dumps({"probabilities": {
            "A.LA": 0.5, "A.NA": 0.5, "B.LB": 0.0, "B.NB": 0.0}}))
        code, _, err = run(capsys, "sample", "-f", str(path), "--root", "A",
                           "--size", "5", "--probs", str(probs), "--count", "20")
        assert code == 1
        assert err.startswith("error:") and "type B" in err

    def test_spec_hash_mismatch(self, capsys, tree_file, tmp_path):
        spec_path = tmp_path / "spec.json"
        run(capsys, "optimize", "-f", tree_file, "--root", "Tree", "--size", "5",
            "--out", str(spec_path))
        edited = tmp_path / "tree2.adt"
        edited.write_text("data Tree = LeafA | LeafB | Node Tree Tree\n")
        code, _, err = run(capsys, "sample", "-f", str(edited), "--spec",
                           str(spec_path), "--count", "1")
        assert code == 1 and "different declarations" in err


class TestVerify:
    def test_table_row_passes(self, capsys, tree_file, tmp_path):
        spec_path = tmp_path / "spec.json"
        run(capsys, "optimize", "-f", tree_file, "--root", "Tree", "--size", "10",
            "--out", str(spec_path))
        code, out, _ = run(capsys, "verify", "-f", tree_file, "--spec",
                           str(spec_path), "--count", "20000", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        # the flag is recomputable from the report's own rows
        for row in doc["perConstructor"].values():
            within = abs(row["predicted"] - row["observed"]) <= \
                4 * row["stdErr"] + 1e-9
            assert within == row["within"]

    def test_constrained_spec_verifies(self, capsys, tmp_path):
        adt = tmp_path / "tpp.adt"
        adt.write_text("data Tree'' = LeafA | LeafB | NodeA Tree'' Tree'' | NodeB Tree''\n")
        spec_path = tmp_path / "spec.json"
        run(capsys, "optimize", "-f", str(adt), "--root", "Tree''", "--size", "8",
            "--cost", "only(LeafA,NodeA)", "--out", str(spec_path))
        code, out, _ = run(capsys, "verify", "-f", str(adt), "--spec",
                           str(spec_path), "--count", "10000", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["perConstructor"]["Tree''.LeafB"]["observed"] == 0.0

    def test_zero_count_usage_error(self, capsys, tree_file):
        code, _, err = run(capsys, "verify", "-f", tree_file, "--root", "Tree",
                           "--size", "5", "--count", "0")
        assert code == 1

    @pytest.mark.parametrize("src, root", [(TREE_SRC, "Tree"), (COMPOSITE_SRC, "Tree"),
                                           (T1T2_SRC, "T1")], ids=["tree", "composite", "t1t2"])
    def test_megadeth_passes(self, capsys, tmp_path, src, root):
        import helpers
        adt = tmp_path / "u.adt"
        adt.write_text(src)
        code, out, _ = run(capsys, "verify", "-f", str(adt), "--root", root, "--size", "10",
                           "--strategy", "megadeth", "--count", "4000", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        want = helpers.megadeth_oracle(parse_universe(src, root), 10)
        for cid, row in doc["perConstructor"].items():
            assert row["predicted"] == pytest.approx(want.get(cid, 0.0), rel=1e-12, abs=0.0)

    def test_derive_refused(self, capsys, tree_file):
        code, out, err = run(capsys, "verify", "-f", tree_file, "--root", "Tree",
                             "--size", "5", "--strategy", "derive", "--count", "10")
        assert code == 1 and out == ""
        assert err == ("error: verify compares against the prediction model, which covers "
                       "the size-bounded strategies (dragen, megadeth)\n")

    @pytest.mark.parametrize("strategy", ["dragen", "megadeth"])
    def test_size_zero_predicts_the_roots_final_row(self, capsys, tree_file, strategy):
        code, out, _ = run(capsys, "verify", "-f", tree_file, "--root", "Tree", "--size", "0",
                           "--strategy", strategy, "--count", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True and doc["size"] == 0
        rows = doc["perConstructor"]
        assert rows["Tree.Node"] == {"predicted": 0.0, "observed": 0.0, "stdErr": 0.0,
                                     "within": True}
        assert [rows[f"Tree.Leaf{x}"]["predicted"] for x in "ABC"] == [1 / 3] * 3
        assert sum(rows[f"Tree.Leaf{x}"]["observed"] for x in "ABC") == pytest.approx(1.0)

    def test_final_level_draws_by_the_specs_stars(self, capsys, tree_file, tmp_path):
        # a tuned Tree spec whose stars put every size-0 draw on LeafA: the
        # prediction reads the stars, not ones derived from the probabilities
        probs = {"Tree.LeafA": 0.17978360606318933, "Tree.LeafB": 0.059850332738310634,
                 "Tree.LeafC": 0.05985434876880118, "Tree.Node": 0.7005117124296989}
        data = adhoc_genspec(parse_universe(TREE_SRC, "Tree"), 10, "dragen",
                             probs).to_json_dict()
        data["starProbabilities"] = {"Tree.LeafA": 1.0, "Tree.LeafB": 0.0, "Tree.LeafC": 0.0}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "-f", tree_file, "--spec", str(spec),
                           "--count", "20000")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        rows = doc["perConstructor"]
        for cid, want in (("Tree.LeafA", 41.75), ("Tree.LeafB", 4.20), ("Tree.LeafC", 4.20)):
            assert rows[cid]["predicted"] == pytest.approx(want, abs=0.005)


class TestHistogram:
    def test_megadeth_mass_small(self, capsys, tree_file):
        code, out, _ = run(capsys, "histogram", "-f", tree_file, "--root", "Tree",
                           "--size", "10", "--strategy", "megadeth",
                           "--count", "4000", "--seed", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "constructors,count"
        hist = {int(a): int(b) for a, b in
                (line.split(",") for line in lines[1:])}
        small = sum(n for size, n in hist.items() if size <= 5)
        assert small / 4000 >= 0.6

    @pytest.mark.parametrize("strategy", ["dragen", "megadeth", "derive"])
    def test_negative_size_rejected(self, capsys, tree_file, strategy):
        code, out, err = run(capsys, "histogram", "-f", tree_file, "--root", "Tree",
                             "--size", "-1", "--strategy", strategy, "--count", "200")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "nonnegative" in err

    def test_budget_applies_to_derive_only(self, capsys, tree_file):
        args = ("histogram", "-f", tree_file, "--root", "Tree", "--size", "5",
                "--count", "10", "--budget", "0")
        code, out, _ = run(capsys, *args)
        assert code == 0 and out.startswith("constructors,count")
        code, out, err = run(capsys, *args, "--strategy", "derive")
        assert code == 1 and out == "" and "budget" in err

    def test_empty_universe_file(self, capsys, tmp_path):
        path = tmp_path / "empty.adt"
        path.write_text("-- nothing here\n")
        code, _, err = run(capsys, "histogram", "-f", str(path), "--root", "T",
                           "--count", "10", "--size", "5")
        assert code == 1 and "not declared" in err


@pytest.mark.parametrize("command", ["verify", "histogram"])
def test_overflowing_counts_fail_cleanly(capsys, tree_file, tmp_path, command):
    # Node = 0.9 doubles most nodes: at size 100 the counts pass 2**63 - 1
    probs = tmp_path / "p.json"
    probs.write_text(json.dumps({"probabilities": {
        "Tree.LeafA": 0.05, "Tree.LeafB": 0.025, "Tree.LeafC": 0.025, "Tree.Node": 0.9}}))
    code, out, err = run(capsys, command, "-f", tree_file, "--root", "Tree", "--size", "100",
                         "--probs", str(probs), "--count", "100", "--seed", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "overflow" in err and "size 100" in err


class TestForeignProbs:
    """Foreign entries of --probs apply to sample, verify and histogram as
    they do to predict."""

    FAMILY = {"Tree.LeafA": 0.25, "Tree.LeafB": 0.25, "Tree.LeafC": 0.25, "Tree.Node": 0.25}

    @pytest.fixture()
    def files(self, tmp_path):
        adt = tmp_path / "composite.adt"
        adt.write_text(COMPOSITE_SRC)

        def probs(name, **foreign):
            path = tmp_path / name
            path.write_text(json.dumps({"probabilities": {**self.FAMILY, **foreign}}))
            return str(path)
        return str(adt), probs

    def test_verify_follows_foreign_entries(self, capsys, files):
        adt, probs = files
        pfile = probs("p.json", **{"Bool.True": 0.95, "Bool.False": 0.05})
        _, out, _ = run(capsys, "predict", "-f", adt, "--root", "Tree", "--size", "5",
                        "--probs", pfile)
        predicted = json.loads(out)["foreign"]
        code, out, _ = run(capsys, "verify", "-f", adt, "--root", "Tree", "--size", "5",
                           "--probs", pfile, "--count", "3000", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        rows = doc["perConstructor"]
        for cid in ("Bool.True", "Bool.False"):
            assert rows[cid]["predicted"] == predicted[cid]
        assert rows["Bool.True"]["observed"] > 10 * rows["Bool.False"]["observed"]

    def test_sample_follows_foreign_entries(self, capsys, files):
        adt, probs = files
        pfile = probs("p.json", **{"Bool.True": 0.95, "Bool.False": 0.05})
        code, out, _ = run(capsys, "sample", "-f", adt, "--root", "Tree", "--size", "5",
                           "--probs", pfile, "--count", "300", "--seed", "1",
                           "--format", "json")
        assert code == 0
        assert out.count('"Bool.True"') > 10 * out.count('"Bool.False"')

    def test_histogram_follows_foreign_entries(self, capsys, files):
        # Just carries a Bool and Nothing does not, so P(Just) moves the
        # sizes; the histogram's mean must match the predicted total
        adt, probs = files
        pfile = probs("p.json", **{"Maybe<Bool>.Nothing": 0.05, "Maybe<Bool>.Just": 0.95})
        _, out, _ = run(capsys, "predict", "-f", adt, "--root", "Tree", "--size", "6",
                        "--probs", pfile)
        doc = json.loads(out)
        want = sum(doc["expected"].values()) + sum(doc["foreign"].values())
        code, out, _ = run(capsys, "histogram", "-f", adt, "--root", "Tree", "--size", "6",
                           "--probs", pfile, "--count", "4000", "--seed", "2")
        assert code == 0
        sizes = [(int(a), int(b)) for a, b in (line.split(",") for line in out.splitlines()[1:])]
        n = sum(k for _, k in sizes)
        mean = sum(s * k for s, k in sizes) / n
        var = sum(k * (s - mean) ** 2 for s, k in sizes) / (n - 1)
        assert abs(mean - want) <= 4 * (var / n) ** 0.5

    @pytest.mark.parametrize("command,extra", [
        ("sample", ()), ("verify", ()), ("histogram", ())])
    def test_output_unchanged_without_foreign_entries(self, capsys, files, command, extra):
        # a uniform family-only map is the default
        adt, probs = files
        args = (command, "-f", adt, "--root", "Tree", "--size", "5", "--count", "200",
                "--seed", "4", *extra)
        want = run(capsys, *args)
        assert want[0] == 0
        assert run(capsys, *args, "--probs", probs("family.json")) == want


@pytest.mark.parametrize("command", ["sample", "verify", "histogram"])
@pytest.mark.parametrize("setting", ["spec", "megadeth", "derive"])
def test_probs_rejected_where_it_cannot_apply(capsys, tree_file, tmp_path, command, setting):
    # a spec carries its own probabilities, and megadeth and derive choose
    # uniformly: a --probs file there would be ignored, so it is an error
    probs = tmp_path / "p.json"
    probs.write_text(json.dumps({"probabilities": {
        "Tree.LeafA": 0.05, "Tree.LeafB": 0.025, "Tree.LeafC": 0.025, "Tree.Node": 0.9}}))
    if setting == "spec":
        spec = tmp_path / "spec.json"
        adhoc_genspec(parse_universe(TREE_SRC, "Tree"), 5, "dragen").save(str(spec))
        extra = ("--spec", str(spec))
    else:
        extra = ("--size", "5", "--root", "Tree", "--strategy", setting)
    code, out, err = run(capsys, command, "-f", tree_file, *extra, "--probs", str(probs),
                         "--count", "10", "--seed", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: --probs") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["predict", "verify"])
def test_nan_probability_fails_cleanly(capsys, tree_file, tmp_path, command):
    probs = tmp_path / "p.json"
    probs.write_text('{"probabilities": {"Tree.LeafA": NaN, "Tree.LeafB": 0.25, '
                     '"Tree.LeafC": 0.25, "Tree.Node": 0.25}}')
    extra = ("--count", "10") if command == "verify" else ()
    code, out, err = run(capsys, command, "-f", tree_file, "--root", "Tree", "--size", "5",
                         "--probs", str(probs), *extra)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Tree.LeafA" in err



@pytest.mark.parametrize("command", ["predict", "verify"])
def test_non_number_probability_fails_cleanly(capsys, tree_file, tmp_path, command):
    # float() takes False and "0", but neither is a probability
    probs = tmp_path / "p.json"
    probs.write_text('{"probabilities": {"Tree.LeafA": false, "Tree.LeafB": "0", '
                     '"Tree.LeafC": 0, "Tree.Node": true}}')
    extra = ("--count", "10") if command == "verify" else ()
    code, out, err = run(capsys, command, "-f", tree_file, "--root", "Tree", "--size", "5",
                         "--probs", str(probs), *extra)
    assert (code, out) == (1, "")
    assert err == "error: probability of Tree.LeafA must be a number, got False\n"

# One edit each to a valid Tree spec: (map, constructor, new value or None
# to delete the entry).
_MALFORMED_SPECS = {
    "missing-constructor": ("probabilities", "Tree.LeafB", None),
    "nan": ("probabilities", "Tree.Node", float("nan")),
    "negative": ("probabilities", "Tree.Node", -0.5),
    "above-one": ("probabilities", "Tree.Node", 5.0),
    "nan-star": ("starProbabilities", "Tree.LeafA", float("nan")),
    "non-terminal-star": ("starProbabilities", "Tree.Node", 0.5),
}


@pytest.mark.parametrize("command", ["sample", "verify", "histogram"])
@pytest.mark.parametrize("edit", list(_MALFORMED_SPECS))
def test_malformed_spec_fails_cleanly(capsys, tree_file, tmp_path, command, edit):
    key, cid, value = _MALFORMED_SPECS[edit]
    probs = {"Tree.LeafA": 0.3, "Tree.LeafB": 0.2, "Tree.LeafC": 0.2, "Tree.Node": 0.3}
    data = adhoc_genspec(parse_universe(TREE_SRC, "Tree"), 5, "dragen", probs).to_json_dict()
    if value is None:
        del data[key][cid]
    else:
        data[key][cid] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "-f", tree_file, "--spec", str(spec),
                         "--count", "20")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and cid in err


# One field of a valid Tree spec each, set to a value of the wrong type.
_MISTYPED_SPECS = {
    "root-int": ("root", 5, "root must be a string, got 5"),
    "strategy-int": ("strategy", 5, "strategy must be a string, got 5"),
    "hash-int": ("universeHash", 5, "universeHash must be a string, got 5"),
    "size-float": ("size", 1.5, "size must be an integer, got 1.5"),
    "size-bool": ("size", True, "size must be an integer, got True"),
}


@pytest.mark.parametrize("command", ["sample", "verify", "histogram"])
@pytest.mark.parametrize("edit", list(_MISTYPED_SPECS))
def test_mistyped_spec_field_fails_cleanly(capsys, tree_file, tmp_path, command, edit):
    key, value, message = _MISTYPED_SPECS[edit]
    data = adhoc_genspec(parse_universe(TREE_SRC, "Tree"), 5, "dragen").to_json_dict()
    data[key] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "-f", tree_file, "--root", "Tree",
                         "--spec", str(spec), "--count", "20")
    assert (code, out) == (1, "")
    assert err == f"error: malformed generator spec: TypeError('{message}')\n"


def test_spec_must_name_every_family_constructor(capsys, tmp_path):
    # a type with no entries at all passes the per-type rules of --probs
    path = tmp_path / "t1t2.adt"
    path.write_text(T1T2_SRC + "\n")
    data = adhoc_genspec(parse_universe(T1T2_SRC, "T1"), 5, "dragen").to_json_dict()
    del data["probabilities"]["T2.C"], data["probabilities"]["T2.D"]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    code, out, err = run(capsys, "sample", "-f", str(path), "--spec", str(spec),
                         "--count", "5")
    assert code == 1 and out == ""
    assert err == "error: generator spec has no probabilities for ['T2.C', 'T2.D']\n"


# One probability of a valid Tree spec each, set to a bool or a string
_NON_NUMBER_SPECS = {
    "bool": ("probabilities", "Tree.Node", True),
    "string": ("probabilities", "Tree.LeafA", "0"),
    "bool-star": ("starProbabilities", "Tree.LeafB", False),
    "string-star": ("starProbabilities", "Tree.LeafC", "0.5"),
}


@pytest.mark.parametrize("command", ["sample", "verify", "histogram"])
@pytest.mark.parametrize("edit", list(_NON_NUMBER_SPECS))
def test_non_number_spec_probability_fails_cleanly(capsys, tree_file, tmp_path, command, edit):
    key, cid, value = _NON_NUMBER_SPECS[edit]
    data = adhoc_genspec(parse_universe(TREE_SRC, "Tree"), 5, "dragen").to_json_dict()
    data[key][cid] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "-f", tree_file, "--root", "Tree",
                         "--spec", str(spec), "--count", "20")
    assert (code, out) == (1, "")
    message = TypeError(f"probability of {cid} must be a number, got {value!r}")
    assert err == f"error: malformed generator spec: {message!r}\n"

@pytest.mark.parametrize("command", ["sample", "verify", "histogram"])
def test_spec_rejects_foreign_probabilities(capsys, tmp_path, command):
    # sampling reads foreign weights only from --probs, so a spec's foreign
    # entries would be ignored
    path = tmp_path / "composite.adt"
    path.write_text(COMPOSITE_SRC)
    data = adhoc_genspec(parse_universe(COMPOSITE_SRC, "Tree"), 5, "dragen").to_json_dict()
    data["probabilities"].update({"Bool.True": 0.95, "Bool.False": 0.05})
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "-f", str(path), "--spec", str(spec),
                         "--count", "5")
    assert code == 1 and out == ""
    assert err == ("error: generator spec probabilities are of family constructors only; "
                   "got ['Bool.True', 'Bool.False']\n")


@pytest.mark.parametrize("command", ["sample", "verify", "histogram"])
def test_all_zero_stars_fail_at_size_zero(capsys, tree_file, tmp_path, command):
    # Node keeps its probability, so Tree is not dead: only its size-0
    # draws, from the star probabilities, have nothing to choose
    probs = {"Tree.LeafA": 0.1, "Tree.LeafB": 0.1, "Tree.LeafC": 0.1, "Tree.Node": 0.7}
    data = adhoc_genspec(parse_universe(TREE_SRC, "Tree"), 3, "dragen", probs).to_json_dict()
    data["starProbabilities"] = dict.fromkeys(data["starProbabilities"], 0.0)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    code, _, err = run(capsys, command, "-f", tree_file, "--spec", str(spec), "--count", "20")
    assert code == 1
    assert err == ("error: generation reached type Tree at size 0, whose terminal "
                   "constructors all have star probability 0\n")


NO_TERMINAL_SRC = "data T = N T T | M T"


@pytest.mark.parametrize("argv", [
    ("predict", "--root", "T", "--size", "3"),
    ("verify", "--root", "T", "--size", "3", "--count", "10"),
    ("verify", "--strategy", "megadeth", "--spec"),
    ("sample", "--spec"),
], ids=["predict", "verify", "verify-spec", "sample-spec"])
def test_no_terminal_constructor_fails_with_one_message(capsys, tmp_path, argv):
    adt = tmp_path / "t.adt"
    adt.write_text(NO_TERMINAL_SRC)
    if argv[-1] == "--spec":
        spec = GenSpec("T", 3, "megadeth", {"T.N": 0.5, "T.M": 0.5}, {},
                       universe_hash(parse_universe(NO_TERMINAL_SRC, "T")))
        spec.save(tmp_path / "spec.json")
        argv = (*argv, str(tmp_path / "spec.json"), "--count", "10")
    code, out, err = run(capsys, argv[0], "-f", str(adt), *argv[1:])
    assert code == 1 and out == ""
    assert err == ("error: family type T has no terminal constructor; "
                   "size-bounded generation cannot terminate\n")
