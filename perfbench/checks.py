"""Independent oracles the benchmark checks the program's outputs against.

None of these call the library's prediction, extinction or serialization
code: they read the parsed declarations (``u.decls``, ``u.family``,
``u.root``) and recompute the quantity their own way.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext

import numpy as np

Z_LIMIT = 4.0          # |z| gate for sampled means, in standard errors
PRED_RTOL = 1e-9       # prediction against the constructor-matrix route
EXT_ATOL = 1e-9        # extinction against the high-precision reference


def _family_rows(u):
    """[(ctor id, type id, family field targets)] in declaration order."""
    rows = []
    for tid in u.family:
        for c in u.decls[tid].constructors:
            rows.append((f"{tid}.{c.name}", tid,
                         [f.target for f in c.fields if f.kind == "family"]))
    return rows


def _stars(rows, probs):
    stars = {}
    for tid in {t for _, t, _ in rows}:
        terms = [cid for cid, t, fam in rows if t == tid and not fam]
        mass = sum(probs[c] for c in terms)
        for c in terms:
            stars[c] = probs[c] / mass if mass > 0 else 1.0 / len(terms)
    return stars


def reference_expected(u, probs, size: int) -> dict[str, float]:
    """Expected family-constructor counts from the constructor-level mean
    matrix C, with sum(k<n) C^k and C^n taken from powers of the block
    matrix [[C, I], [0, I]] (binary powering, O(log n) products).
    Entries that overflow come out non-finite."""
    rows = _family_rows(u)
    n = len(rows)
    cmat = np.zeros((n, n))
    for i, (_, _, fam) in enumerate(rows):
        for j, (cj, tj, _) in enumerate(rows):
            cmat[i, j] = fam.count(tj) * probs[cj]
    g0 = np.array([probs[c] if t == u.root else 0.0 for c, t, _ in rows])
    block = np.block([[cmat, np.eye(n)], [np.zeros((n, n)), np.eye(n)]])
    with np.errstate(over="ignore", invalid="ignore"):
        bp = np.linalg.matrix_power(block, size - 1)
        gen_last = g0 @ bp[:n, :n]                    # level size-1
        pop = g0 @ bp[:n, n:] + gen_last              # levels 0..size-1
    stars = _stars(rows, probs)
    fill: dict[str, float] = {}
    for i, (_, _, fam) in enumerate(rows):
        for t in fam:
            fill[t] = fill.get(t, 0.0) + gen_last[i]
    out = {}
    for i, (cid, tid, fam) in enumerate(rows):
        total = float(pop[i])
        if not fam:
            total += stars[cid] * fill.get(tid, 0.0)
        out[cid] = total
    return out


def close(a: float, b: float, rtol: float = PRED_RTOL, atol: float = 1e-12) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def prediction_mismatches(expected: dict, reference: dict) -> list[str]:
    """Constructors whose reported total differs from a finite reference
    (or is missing); a non-finite reference accepts any finite report."""
    bad = []
    for cid, ref in reference.items():
        got = expected.get(cid)
        if not isinstance(got, (int, float)) or not math.isfinite(got):
            bad.append(f"{cid}={got!r}")
        elif math.isfinite(ref) and not close(got, ref):
            bad.append(f"{cid}={got!r} (reference {ref!r})")
    return bad


def chi_square_cost(cost, size: int, expected: dict) -> float:
    return sum((expected[c] - w * size) ** 2 / (w * size) for c, w in cost.targets)


def extinction_reference(u, probs, digits: int = 60) -> dict[str, float]:
    """Least fixpoint of q = f(q) by Newton's method from 0 in `digits`-digit
    decimal arithmetic. For these monotone polynomial systems the iterates
    rise monotonically to the least fixpoint (Etessami & Yannakakis 2009);
    at criticality the rate is 1/2 per step, hence the step allowance."""
    rows = _family_rows(u)
    types = list(u.family)
    pos = {t: i for i, t in enumerate(types)}
    n = len(types)
    with localcontext() as ctx:
        ctx.prec = digits
        # The model's per-type distributions sum to 1 by definition; the
        # floats on file only do so to ~1e-17, which at criticality would
        # move the least root by ~1e-8. Renormalize exactly first.
        mass: dict[str, Decimal] = {}
        for c, t, _ in rows:
            mass[t] = mass.get(t, Decimal(0)) + Decimal(probs[c])
        terms = [(pos[t], Decimal(probs[c]) / mass[t], [pos[x] for x in fam])
                 for c, t, fam in rows if mass[t] > 0]
        q = [Decimal(0)] * n
        tiny = Decimal(10) ** (10 - digits)
        for _ in range(60 * 4):
            f = [Decimal(0)] * n
            jac = [[Decimal(0)] * n for _ in range(n)]
            for t, p, fam in terms:
                prod = p
                for x in fam:
                    prod *= q[x]
                f[t] += prod
                for k, x in enumerate(fam):
                    d = p
                    for m, y in enumerate(fam):
                        if m != k:
                            d *= q[y]
                    jac[t][x] += d
            a = [[(1 if i == j else 0) - jac[i][j] for j in range(n)] + [f[i] - q[i]]
                 for i in range(n)]
            step = _solve(a, n)
            if step is None:
                break
            q = [min(Decimal(1), qi + si) for qi, si in zip(q, step)]
            if max(abs(s) for s in step) < tiny:
                break
        return {t: float(q[pos[t]]) for t in types}


def _solve(a, n):
    """Gaussian elimination with partial pivoting on an augmented matrix;
    None when singular."""
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, n):
            k = a[r][col] / a[col][col]
            for c in range(col, n + 1):
                a[r][c] -= k * a[col][c]
    x = [Decimal(0)] * n
    for r in range(n - 1, -1, -1):
        acc = a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / a[r][r]
    return x


def strict_json(text: str):
    """json.loads that rejects the non-standard Infinity/-Infinity/NaN."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def z_scores(predicted: dict, means: dict, errs: dict) -> dict[str, float]:
    """(observed - predicted) / standard error per constructor. A zero
    standard error yields 0 when the two agree and infinity otherwise."""
    out = {}
    for cid, pred in predicted.items():
        obs = means.get(cid, 0.0)
        se = errs.get(cid, 0.0)
        if se > 0:
            out[cid] = (obs - pred) / se
        else:
            out[cid] = 0.0 if abs(obs - pred) <= 1e-9 else math.inf
    return out


def megadeth_expected(u, size: int) -> dict[str, float]:
    """Exact expected counts of the halving generator: uniform choice per
    type, family children at size // 2, uniform terminals at size 0, and
    foreign children drawn uniformly with no size bound."""
    memo: dict = {}

    def expect(tid: str, sz: int) -> dict[str, float]:
        key = (tid, sz)
        if key in memo:
            return memo[key]
        ctors = u.decls[tid].constructors
        family = tid in u.family
        if family and sz == 0:
            ctors = [c for c in ctors if not any(f.kind == "family" for f in c.fields)]
        acc: dict[str, float] = {}
        w = 1.0 / len(ctors)
        for c in ctors:
            cid = f"{tid}.{c.name}"
            acc[cid] = acc.get(cid, 0.0) + w
            for f in c.fields:
                if f.kind == "ground":
                    continue
                child = expect(f.target, sz // 2 if f.kind == "family" else -1)
                for k, v in child.items():
                    acc[k] = acc.get(k, 0.0) + w * v
        memo[key] = acc
        return acc

    return expect(u.root, size)


_GROUND = {"Int": int, "Double": float, "Char": str, "Unit": type(None)}


def check_value_tree(node, u, max_depth: int | None = None) -> str | None:
    """Typecheck a parsed JSON value ({"constructor", "children"}) against
    the declarations; optionally bound its family depth. Returns the first
    problem found, or None."""
    stack = [(node, 0)]
    while stack:
        cur, depth = stack.pop()
        cid = cur.get("constructor") if isinstance(cur, dict) else None
        tid, _, name = (cid or "").rpartition(".")
        decl = u.decls.get(tid)
        ctor = next((c for c in decl.constructors if c.name == name), None) if decl else None
        if ctor is None:
            return f"unknown constructor {cid!r}"
        kids = cur.get("children")
        if not isinstance(kids, list) or len(kids) != len(ctor.fields):
            return f"{cid}: wrong arity"
        if tid in u.family and max_depth is not None and depth > max_depth:
            return f"{cid}: family depth {depth} exceeds {max_depth}"
        for ch, f in zip(kids, ctor.fields):
            if f.kind == "ground":
                want = _GROUND[f.target]
                if type(ch) is not want or (want is str and len(ch) != 1):
                    return f"{cid}: bad {f.target} atom {ch!r}"
            elif not (isinstance(ch, dict)
                      and str(ch.get("constructor", "")).rpartition(".")[0] == f.target):
                return f"{cid}: child is not a {f.target}"
            else:
                stack.append((ch, depth + 1 if f.kind == "family" else depth))
    return None


def _atom_text(atom) -> str:
    if atom is None:
        return "()"
    if isinstance(atom, str):
        return "'" + atom + "'"
    return repr(atom)


_CLOSE = object()


def render_sexp(node) -> str:
    """S-expression of a parsed JSON value: (Ctor child ...) with the bare
    constructor name, children separated by single spaces."""
    parts: list[str] = []
    stack: list = [node]
    while stack:
        cur = stack.pop()
        if cur is _CLOSE:
            parts.append(")")
            continue
        if parts:
            parts.append(" ")
        if isinstance(cur, dict):
            parts.append("(" + cur["constructor"].rpartition(".")[2])
            stack.append(_CLOSE)
            stack.extend(reversed(cur["children"]))
        else:
            parts.append(_atom_text(cur))
    return "".join(parts)
