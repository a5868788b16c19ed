"""Tests of the benchmark itself: its oracles, its checks and its smoke run.

Run with `python3 -m pytest perfbench -q` from the repository root.
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import branchgen as bg  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _universe(name, root):
    return bg.parse_universe(workloads.read_input(name), root)


def test_smoke_run_passes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok", "failed": 0}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text("{}")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_wide60_shape_and_determinism():
    text = workloads.wide60_source(7)
    assert text == workloads.wide60_source(7) != workloads.wide60_source(8)
    u = bg.parse_universe(text, "T0")
    assert len(u.family) == 10 and len(u.family_constructors()) == 60


def test_reference_expected_matches_library():
    rng = random.Random(3)
    for u in (_universe("tree.adt", "Tree"), bg.parse_universe(workloads.wide60_source(2), "T0")):
        probs = bg.uniform_probmap(u, u.family)
        for cid in probs:
            probs[cid] *= 0.5 + rng.random()
        probs = bg.renormalize_probmap(u, probs)
        ref = checks.reference_expected(u, probs, 10)
        got = bg.predict_constructors(u, probs, 10).totals()
        assert checks.prediction_mismatches(got, ref) == []


def test_extinction_reference_closed_forms():
    tree = _universe("tree.adt", "Tree")
    for node, q in ((0.3, 1.0), (0.5, 1.0), (0.6, 2 / 3), (0.9, 1 / 9)):
        got = checks.extinction_reference(tree, workloads._edge_probs(tree, {"Tree.Node": node}))
        assert abs(got["Tree"] - q) < 1e-12, (node, got)
    d = _universe("derive.adt", "T")
    assert abs(checks.extinction_reference(d, bg.uniform_probmap(d, d.family))["T"] - 0.5) < 1e-15
    t = _universe("t1t2.adt", "T1")
    assert checks.extinction_reference(t, bg.uniform_probmap(t, t.family)) == {"T1": 1.0, "T2": 1.0}


def test_edge_check_outcomes():
    tree = _universe("tree.adt", "Tree")
    probs = workloads._edge_probs(tree, {"Tree.Node": 0.3})
    ref = checks.reference_expected(tree, probs, 10)
    ext = {"Tree": 1.0}
    good = json.dumps({"expected": ref, "extinction": ext})
    assert workloads.edge_problem({"code": 0, "stdout": good, "stderr": ""}, ref, ext) is None
    bad_ext = json.dumps({"expected": ref, "extinction": {"Tree": 0.999998}})
    assert "extinction" in workloads.edge_problem({"code": 0, "stdout": bad_ext, "stderr": ""},
                                                  ref, ext)
    inf = good.replace(str(ref["Tree.Node"]), "Infinity")
    assert "strict JSON" in workloads.edge_problem({"code": 0, "stdout": inf, "stderr": ""},
                                                   ref, ext)
    refused = {"code": 1, "stdout": "", "stderr": "error: expectation overflows at size 2000\n"}
    assert workloads.edge_problem(refused, ref, ext) is not None   # finite: must answer
    overflow = dict(ref, **{"Tree.Node": math.inf})
    assert workloads.edge_problem(refused, overflow, ext) is None   # clean refusal
    crash = {"code": None, "stdout": "", "stderr": "Traceback ...\nRecursionError\n"}
    assert workloads.edge_problem(crash, overflow, ext) is not None


def test_value_checks_accept_samples_and_reject_damage():
    u = _universe("composite.adt", "Tree")
    spec = bg.adhoc_genspec(u, 6, "dragen")
    for i in range(30):
        v = bg.sample_dragen(u, spec, 5, i)
        tree = checks.strict_json(bg.value_to_json(v))
        assert checks.check_value_tree(tree, u, 6) is None
        assert checks.render_sexp(tree) == bg.value_to_sexp(v)
    damaged = {"constructor": "Tree.Node", "children": [{"constructor": "Tree.LeafB",
                                                          "children": []}]}
    assert "arity" in checks.check_value_tree(damaged, u)
    atom = {"constructor": "Atom.AChar", "children": ["ab"]}
    assert "atom" in checks.check_value_tree(atom, u)


def test_megadeth_reference_matches_sampling():
    u = _universe("tree.adt", "Tree")
    stats = bg.empirical_stats(u, bg.adhoc_genspec(u, 10, "megadeth"), 4000, 11)
    z = checks.z_scores(checks.megadeth_expected(u, 10), stats.mean_counts, stats.std_err)
    assert max(abs(v) for v in z.values()) <= checks.Z_LIMIT


def test_self_times_subtract_direct_children():
    rows = [["bench.batch", 0.0, 10.0, -1], ["search.x", 1.0, 6.0, 0],
            ["costs.eval", 2.0, 3.0, 1], ["costs.eval", 4.0, 5.5, 1]]
    assert spans.self_times(rows) == [5.0, 2.5, 1.0, 1.5]
    rec = spans.Recorder()
    with rec.span("bench.batch"), rec.span("adt.parse"):
        pass
    assert [(s[0], s[3]) for s in rec.spans] == [("bench.batch", -1), ("adt.parse", 0)]
