"""Algebraic data type declarations: the text DSL, monomorphization of
generic applications, recursive-family analysis, and per-constructor
probability maps.

A universe is built from declarations like

    data Tree = LeafA | LeafB | LeafC | Node Tree Tree

plus a designated generation root. Types are named with an uppercase
initial, type variables with a lowercase one, and generic applications
are parenthesized (``LeafA (Maybe Bool)``). Ground atoms ``Int``,
``Double``, ``Char`` and ``Unit`` are built in and contribute no
constructors of their own.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import numbers
import os
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

GROUND_ATOMS = ("Int", "Double", "Char", "Unit")

FAMILY = "family"
FOREIGN = "foreign"
GROUND = "ground"

# Field modes in compiled field rows; a ground atom's mode follows its
# position in GROUND_ATOMS.
MODE_FAMILY = 0
MODE_FOREIGN = 1
MODE_GROUND = {atom: 2 + i for i, atom in enumerate(GROUND_ATOMS)}

PROB_SUM_TOL = 1e-9

_MAX_INSTANTIATIONS = 4096
_MAX_NESTING = 100


class AdtError(ValueError):
    """A semantic problem with declarations, probabilities or constraints."""


class ParseError(AdtError):
    """Syntax error in the declaration DSL, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Resolved model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """One constructor argument: a family type, a foreign type, or a ground atom."""

    kind: str   # FAMILY | FOREIGN | GROUND
    target: str  # type id, or ground atom name


@dataclass(frozen=True)
class ConstructorDecl:
    name: str
    fields: tuple[Field, ...]

    def family_arity(self) -> int:
        return sum(1 for f in self.fields if f.kind == FAMILY)


@dataclass(frozen=True)
class TypeDecl:
    name: str
    constructors: tuple[ConstructorDecl, ...]


@dataclass(frozen=True)
class _FieldSyn:
    """Raw field syntax kept for printing: plain name, tyvar, or application."""

    kind: str  # "name" | "var" | "app"
    name: str
    args: tuple["_FieldSyn", ...] = ()


@dataclass(frozen=True)
class _RawDecl:
    name: str
    params: tuple[str, ...]
    constructors: tuple[tuple[str, tuple[_FieldSyn, ...]], ...]


@dataclass(eq=True)
class ADTUniverse:
    """A monomorphized set of declarations bound to a generation root.

    ``family`` holds the types that are reachable from ``root`` in the
    type-reference graph and can reach it again; every other reachable
    type is foreign and must be non-recursive.
    """

    decls: dict[str, TypeDecl]
    root: str
    family: tuple[str, ...]
    type_graph: dict[str, tuple[str, ...]]
    source_decls: tuple[_RawDecl, ...] = field(repr=False, default=())

    def __post_init__(self):
        self._family_set = frozenset(self.family)
        index: dict[str, tuple[str, ConstructorDecl]] = {}
        self._ctors_of: dict[str, tuple[str, ...]] = {}
        for tid, decl in self.decls.items():
            ids = self._ctors_of[tid] = tuple(qualify(tid, c.name) for c in decl.constructors)
            for cid, ctor in zip(ids, decl.constructors):
                index[cid] = (tid, ctor)
        self._ctor_index = index
        self._foreign = _foreign_order(self.root, self._family_set, self.type_graph)

    # -- lookups ------------------------------------------------------------

    def is_family(self, type_id: str) -> bool:
        return type_id in self._family_set

    def constructors_of(self, type_id: str) -> tuple[str, ...]:
        try:
            return self._ctors_of[type_id]
        except KeyError:
            raise AdtError(f"unknown type: {type_id}") from None

    def family_constructors(self) -> tuple[str, ...]:
        return self.compiled.ctors[:self.compiled.nfamily_ctors]

    def ctor_decl(self, ctor_id: str) -> ConstructorDecl:
        try:
            return self._ctor_index[ctor_id][1]
        except KeyError:
            raise AdtError(f"unknown constructor: {ctor_id}") from None

    def ctor_type(self, ctor_id: str) -> str:
        try:
            return self._ctor_index[ctor_id][0]
        except KeyError:
            raise AdtError(f"unknown constructor: {ctor_id}") from None

    def has_ctor(self, ctor_id: str) -> bool:
        return ctor_id in self._ctor_index

    @cached_property
    def compiled(self) -> "CompiledUniverse":
        """The universe's numeric form, built on first use and kept."""
        return CompiledUniverse(self)


def qualify(type_id: str, ctor_name: str) -> str:
    return f"{type_id}.{ctor_name}"


def unqualify(ctor_id: str) -> str:
    return ctor_id.rsplit(".", 1)[-1]


def resolve_constructor(u: ADTUniverse, name: str) -> str:
    """Resolve a possibly-unqualified constructor name to its id."""
    if "." in name:
        if not u.has_ctor(name):
            raise AdtError(f"unknown constructor: {name}")
        return name
    hits = [cid for cid in u._ctor_index if unqualify(cid) == name]
    if not hits:
        raise AdtError(f"unknown constructor: {name}")
    if len(hits) > 1:
        raise AdtError(f"ambiguous constructor name {name}: {sorted(hits)}")
    return hits[0]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha()


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_'"


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("--", 1)[0]
        i = 0
        while i < len(line):
            ch = line[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "=|()":
                tokens.append(_Token(ch, lineno, i + 1))
                i += 1
                continue
            if _is_ident_start(ch):
                j = i + 1
                while j < len(line) and _is_ident_char(line[j]):
                    j += 1
                tokens.append(_Token(line[i:j], lineno, i + 1))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}", lineno, i + 1)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def parse_decls(self) -> tuple[_RawDecl, ...]:
        decls = []
        while self.peek() is not None:
            decls.append(self.parse_decl())
        return tuple(decls)

    def parse_decl(self) -> _RawDecl:
        tok = self.next()
        if tok.text != "data":
            raise ParseError(f"expected 'data', found {tok.text!r}", tok.line, tok.column)
        name_tok = self.next()
        if not name_tok.text[0].isupper():
            raise ParseError(f"type name must start uppercase: {name_tok.text!r}",
                             name_tok.line, name_tok.column)
        if name_tok.text in GROUND_ATOMS:
            raise ParseError(f"cannot redeclare builtin atom {name_tok.text!r}",
                             name_tok.line, name_tok.column)
        params = []
        while True:
            tok = self.peek()
            if tok is not None and tok.text[0].islower() and tok.text != "data":
                params.append(self.next().text)
            else:
                break
        self.expect("=")
        ctors = [self.parse_alternative()]
        while self.peek() is not None and self.peek().text == "|":
            self.next()
            ctors.append(self.parse_alternative())
        return _RawDecl(name_tok.text, tuple(params), tuple(ctors))

    def parse_alternative(self) -> tuple[str, tuple[_FieldSyn, ...]]:
        tok = self.next()
        if not tok.text[0].isupper():
            raise ParseError(f"constructor name must start uppercase: {tok.text!r}",
                             tok.line, tok.column)
        fields = []
        while True:
            nxt = self.peek()
            if nxt is None or nxt.text in ("|", ")", "data"):
                break
            if nxt.text == "=":
                raise ParseError("unexpected '='", nxt.line, nxt.column)
            fields.append(self.parse_field())
        return tok.text, tuple(fields)

    def parse_field(self, depth: int = 0) -> _FieldSyn:
        tok = self.next()
        if tok.text == "(":
            if depth >= _MAX_NESTING:
                raise ParseError(f"type application nested deeper than {_MAX_NESTING} levels",
                                 tok.line, tok.column)
            head = self.next()
            if not head.text[0].isupper():
                raise ParseError(f"generic application must name a type: {head.text!r}",
                                 head.line, head.column)
            args = [self.parse_field(depth + 1)]
            while self.peek() is not None and self.peek().text != ")":
                args.append(self.parse_field(depth + 1))
            self.expect(")")
            return _FieldSyn("app", head.text, tuple(args))
        if tok.text[0].isupper():
            return _FieldSyn("name", tok.text)
        if tok.text == "data":
            raise ParseError("unexpected 'data'", tok.line, tok.column)
        return _FieldSyn("var", tok.text)


# ---------------------------------------------------------------------------
# Monomorphization and universe construction
# ---------------------------------------------------------------------------

# A resolved field target before family classification: ("t", type id) or
# ("g", ground atom name).
_Target = tuple[str, str]


# A type to fill in: (type id, declaration, type-variable substitution). An
# instantiation is a job whose declaration has parameters.
_Job = tuple[str, _RawDecl, dict[str, _Target]]


class _Monomorphizer:
    """Fills in every concrete declaration and the generic instantiations
    they reach, depth-first in reference order (which fixes the family
    order), on an explicit stack so that only ``_MAX_INSTANTIATIONS``
    bounds how deep instantiations nest."""

    def __init__(self, raw: Mapping[str, _RawDecl]):
        self.templates = {n: d for n, d in raw.items() if d.params}
        self.concrete = {n: d for n, d in raw.items() if not d.params}
        # id -> [(ctor name, [target])], in visiting order
        self.out: dict[str, list[tuple[str, list[_Target]]]] = {}

    def run(self) -> None:
        stack = [iter([(name, decl, {}) for name, decl in self.concrete.items()])]
        while stack:
            job = next(stack[-1], None)
            if job is None:
                stack.pop()
            elif job[0] not in self.out:
                stack.append(self._open(job))

    def _open(self, job: _Job):
        tid, decl, subst = job
        if decl.params and len(self.out) >= _MAX_INSTANTIATIONS:
            raise AdtError(
                f"too many generic instantiations (>{_MAX_INSTANTIATIONS}); "
                "polymorphic recursion is not supported")
        ctors: list[tuple[str, list[_Target]]] = []
        self.out[tid] = ctors
        return self._fill(decl, subst, ctors)

    def _fill(self, decl: _RawDecl, subst: dict[str, _Target], ctors: list):
        """Resolve each constructor's fields, yielding the types they
        reference in resolution order."""
        for cname, fsyns in decl.constructors:
            refs: list[_Job] = []
            ctors.append((cname, [self._resolve(f, subst, decl.name, refs) for f in fsyns]))
            yield from refs

    def _resolve(self, syn: _FieldSyn, subst: dict[str, _Target], where: str,
                 refs: list[_Job]) -> _Target:
        if syn.kind == "var":
            return subst[syn.name]
        if syn.kind == "name":
            if syn.name in GROUND_ATOMS:
                return ("g", syn.name)
            if syn.name in self.concrete:
                refs.append((syn.name, self.concrete[syn.name], {}))
                return ("t", syn.name)
            if syn.name in self.templates:
                n = len(self.templates[syn.name].params)
                raise AdtError(f"generic type {syn.name} used without its {n} argument(s) in {where}")
            raise AdtError(f"unknown type reference {syn.name!r} in {where}")
        # application
        if syn.name in GROUND_ATOMS or syn.name in self.concrete:
            raise AdtError(f"type {syn.name} is not generic but is applied to arguments in {where}")
        if syn.name not in self.templates:
            raise AdtError(f"unknown type reference {syn.name!r} in {where}")
        template = self.templates[syn.name]
        if len(syn.args) != len(template.params):
            raise AdtError(
                f"{syn.name} expects {len(template.params)} argument(s), "
                f"got {len(syn.args)} in {where}")
        args = tuple(self._resolve(a, subst, where, refs) for a in syn.args)
        tid = f"{syn.name}<{','.join(a[1] for a in args)}>"
        refs.append((tid, template, dict(zip(template.params, args))))
        return ("t", tid)


def _reachable(start: Iterable[str], edges: Mapping[str, Iterable[str]]) -> set[str]:
    seen = set(start)
    todo = list(seen)
    while todo:
        v = todo.pop()
        for w in edges.get(v, ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def live_support(u: ADTUniverse, pinned: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The family constructors left live when ``pinned`` (a mask over them)
    are excluded, and the family types the root reaches along them, as
    masks over the family constructors and types.

    A constructor dies when it is pinned or has a field of a type that has
    no live constructor left, to a fixpoint."""
    cu = u.compiled
    nf, owner = cu.nfamily, cu.family_owner
    refs = cu.counts[:cu.nfamily_ctors, :nf] > 0
    live = ~pinned
    while True:
        dead_types = np.bincount(owner[live], minlength=nf) == 0
        still = live & ~refs[:, dead_types].any(axis=1)
        if (still == live).all():
            break
        live = still
    reached = np.zeros(nf, dtype=bool)
    reached[list(_reachable([cu.index[u.root]], live_graph(cu, live)))] = True
    return live, reached


def live_graph(cu: CompiledUniverse, live: np.ndarray) -> dict[int, list[int]]:
    """Each family type's family field types along the ``live`` family
    constructors (a mask over them), as family type indices."""
    nf, owner = cu.nfamily, cu.family_owner
    edges = np.zeros((nf, nf), dtype=bool)
    np.logical_or.at(edges, owner[live], cu.counts[:cu.nfamily_ctors, :nf][live] > 0)
    return {t: np.flatnonzero(row).tolist() for t, row in enumerate(edges)}


def _foreign_order(root: str, family: frozenset[str],
                   graph: Mapping[str, Iterable[str]]) -> tuple[str, ...]:
    """The types reachable from ``root`` outside ``family``, topologically
    sorted so that every referrer precedes what it references, ties broken
    by name. The sort fails exactly when one of them lies on a cycle; the
    error names every such type."""
    reach = _reachable([root], graph) - family
    indegree = Counter(w for t in reach for w in graph.get(t, ()) if w in reach)
    ready = sorted(t for t in reach if not indegree[t])
    order: list[str] = []
    while ready:
        t = heapq.heappop(ready)
        order.append(t)
        for w in graph.get(t, ()):
            if w in reach:
                indegree[w] -= 1
                if indegree[w] == 0:
                    heapq.heappush(ready, w)
    if len(order) != len(reach):
        cyclic = sorted(t for t in reach if t in _reachable(graph.get(t, ()), graph))
        raise AdtError("unsupported: recursive type component outside the root's family: "
                       + ", ".join(cyclic))
    return tuple(order)


def parse_universe(source: str, root: str) -> ADTUniverse:
    """Parse DSL text and build the monomorphized universe rooted at ``root``.

    Raises ParseError for syntax problems (with position) and AdtError for
    semantic ones: unknown references, duplicate constructor names, a
    generic or missing root, or a recursive type component that is
    reachable from the root's family without being part of it.
    """
    raw_decls = _Parser(_tokenize(source)).parse_decls()

    by_name: dict[str, _RawDecl] = {}
    for decl in raw_decls:
        if decl.name in by_name:
            raise AdtError(f"duplicate type declaration: {decl.name}")
        by_name[decl.name] = decl
    seen_ctors: dict[str, str] = {}
    for decl in by_name.values():
        if len(set(decl.params)) != len(decl.params):
            raise AdtError(f"duplicate type variable in {decl.name}")
        for cname, fsyns in decl.constructors:
            if cname in seen_ctors:
                raise AdtError(
                    f"duplicate constructor name {cname} "
                    f"(declared in both {seen_ctors[cname]} and {decl.name})")
            seen_ctors[cname] = decl.name
            for syn in fsyns:
                _check_tyvars(syn, decl)

    if root not in by_name:
        raise AdtError(f"root type {root!r} is not declared")
    if by_name[root].params:
        raise AdtError(f"root type {root} is generic; apply it to concrete arguments first")

    mono = _Monomorphizer(by_name)
    mono.run()

    graph: dict[str, tuple[str, ...]] = {}
    for tid, ctors in mono.out.items():
        targets = []
        for _, fields in ctors:
            targets.extend(t for kind, t in fields if kind == "t")
        graph[tid] = tuple(dict.fromkeys(targets))

    # The family is the root's strongly connected component: the types
    # reachable from the root that can also reach it.
    referrers: dict[str, list[str]] = {}
    for tid, targets in graph.items():
        for target in targets:
            referrers.setdefault(target, []).append(tid)
    family_set = _reachable([root], graph) & _reachable([root], referrers)
    family = tuple(tid for tid in mono.out if tid in family_set)

    decls: dict[str, TypeDecl] = {}
    for tid, ctors in mono.out.items():
        resolved = []
        for cname, fields in ctors:
            rfields = tuple(
                Field(GROUND, t) if kind == "g"
                else Field(FAMILY if t in family_set else FOREIGN, t)
                for kind, t in fields)
            resolved.append(ConstructorDecl(cname, rfields))
        decls[tid] = TypeDecl(tid, tuple(resolved))

    return ADTUniverse(decls, root, family, graph, raw_decls)


def _check_tyvars(syn: _FieldSyn, decl: _RawDecl) -> None:
    if syn.kind == "var":
        if syn.name not in decl.params:
            raise AdtError(f"unbound type variable {syn.name!r} in {decl.name}")
    elif syn.kind == "app":
        for a in syn.args:
            _check_tyvars(a, decl)


# ---------------------------------------------------------------------------
# Printing and hashing
# ---------------------------------------------------------------------------

def _field_syntax(syn: _FieldSyn) -> str:
    if syn.kind == "app":
        return "(" + " ".join([syn.name] + [_field_syntax(a) for a in syn.args]) + ")"
    return syn.name


def print_universe(u: ADTUniverse) -> str:
    """Render the universe back to DSL text (parse/print round-trips)."""
    lines = []
    for decl in u.source_decls:
        head = " ".join(["data", decl.name, *decl.params])
        alts = []
        for cname, fsyns in decl.constructors:
            alts.append(" ".join([cname] + [_field_syntax(f) for f in fsyns]))
        lines.append(f"{head} = " + " | ".join(alts))
    return "\n".join(lines) + "\n"


def universe_hash(u: ADTUniverse) -> str:
    """Stable hex digest identifying (declarations, root)."""
    payload = print_universe(u) + "\x00root=" + u.root
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def terminal_constructors(type_id: str, u: ADTUniverse) -> tuple[str, ...]:
    """Constructors of a family type with no family-typed fields, in
    declaration order."""
    if not u.is_family(type_id):
        raise AdtError(f"{type_id} is not in the branching family of {u.root}")
    decl = u.decls[type_id]
    return tuple(qualify(type_id, c.name) for c in decl.constructors
                 if c.family_arity() == 0)


def reachable_foreign_types(u: ADTUniverse) -> tuple[str, ...]:
    """Foreign types reachable from the family, in ``_foreign_order``."""
    return u._foreign


def flat_bins(rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """Row-major flat indices rows[i] * width + cols[j], in (i, j) order: the
    bins of a scatter that adds entry (i, j) of a weight matrix into cell
    (rows[i], cols[j]) of an array ``width`` cells wide."""
    return (rows[:, None] * width + cols).ravel()


class BatchBins:
    """``flat_bins`` of a batch scatter, row r of the batch adding into row r:
    kept for the largest batch served, so a k-row batch reads the first
    k * len(cols) entries and only a larger batch rebuilds them."""

    def __init__(self, cols: np.ndarray, width: int):
        self.cols, self.width = cols, width
        self.flat = np.empty(0, dtype=np.intp)

    def __call__(self, rows: int) -> np.ndarray:
        need = rows * len(self.cols)
        if len(self.flat) < need:
            self.flat = flat_bins(np.arange(rows), self.cols, self.width)
        return self.flat[:need]


class CompiledUniverse:
    """The branching structure of a universe in numeric form; prediction,
    sampling and the CDG read only this. Build it through ``u.compiled``,
    which keeps it.

    Types in play are the family, then the reachable foreign types in
    ``reachable_foreign_types`` order. Constructors follow their types in
    declaration order, so each type's constructors are contiguous.
    """

    def __init__(self, u: ADTUniverse):
        self.types = u.family + reachable_foreign_types(u)
        self.nfamily = len(u.family)
        self.index = {tid: t for t, tid in enumerate(self.types)}
        ctors: list[str] = []
        owner: list[int] = []
        slices: list[slice] = []
        rows: list[tuple[tuple[int, int], ...]] = []
        for t, tid in enumerate(self.types):
            start = len(ctors)
            for ctor in u.decls[tid].constructors:
                ctors.append(qualify(tid, ctor.name))
                owner.append(t)
                rows.append(tuple(
                    (MODE_GROUND[f.target], -1) if f.kind == GROUND
                    else (MODE_FAMILY if f.kind == FAMILY else MODE_FOREIGN, self.index[f.target])
                    for f in ctor.fields))
            slices.append(slice(start, len(ctors)))
        self.ctors = tuple(ctors)                        # qualified ids
        self.owner = np.array(owner, dtype=np.intp)      # constructor -> its type
        self.slices = tuple(slices)                      # type -> its constructors
        self.rows = tuple(rows)                          # per field: (mode, target or -1)
        self.nfamily_ctors = slices[self.nfamily - 1].stop

        # counts[c, t]: non-ground fields of constructor c with type t;
        # pairs: each (constructor, family-field target), in field order
        self.counts = np.zeros((len(ctors), len(self.types)), dtype=np.int64)
        pairs = []
        for c, row in enumerate(rows):
            for mode, target in row:
                if target >= 0:
                    self.counts[c, target] += 1
                if mode == MODE_FAMILY:
                    pairs.append((c, target))
        self.terminal = ~self.counts[:, :self.nfamily].any(axis=1)
        self.pair_ctor, self.pair_target = np.array(pairs, dtype=np.intp).reshape(-1, 2).T

        # The family constructors' owners and terminal flags, the terminals'
        # columns, and the owner and number of each family type's terminals
        nf, nfc = self.nfamily, self.nfamily_ctors
        self.family_owner = self.owner[:nfc]
        self.family_terminal = self.terminal[:nfc]
        self.terminal_cols = np.flatnonzero(self.family_terminal)
        self.terminal_owner = self.family_owner[self.terminal_cols]
        self.terminal_count = np.bincount(self.terminal_owner, minlength=nf)
        # The bins of the prediction's two batch scatters: the last-level
        # fill by field target, and the terminal mass by owner
        self.fill_bins = BatchBins(self.pair_target, nf)
        self.mass_bins = BatchBins(self.terminal_owner, nf)

        # Type-major layout of the spawning constructors, the only ones
        # with family fields: type_cols[t, j] is family type t's j-th
        # non-terminal constructor, and type_counts[t, j] its family field
        # counts. Rows are padded to the widest type; a pad points at t's
        # first constructor and counts zero fields.
        spawning = [[c for c in range(s.start, s.stop) if not self.terminal[c]]
                    for s in slices[:nf]]
        sizes = [len(cols) for cols in spawning]
        width = max(sizes)
        self.type_cols = np.array([[*cols, *[s.start] * (width - n)]
                                   for s, cols, n in zip(slices, spawning, sizes)], dtype=np.intp)
        self.type_counts = self.counts[self.type_cols, :nf].astype(float)
        self.type_counts[np.arange(width) >= np.array(sizes)[:, None]] = 0.0


def require_terminals(cu: CompiledUniverse) -> None:
    """Reject a family type with no terminal constructor: the final level
    of a size-bounded generator could not draw it."""
    if not cu.terminal_count.all():
        raise AdtError(f"family type {cu.types[cu.terminal_count.tolist().index(0)]} has "
                       "no terminal constructor; size-bounded generation cannot terminate")


@dataclass(frozen=True)
class CdgEdge:
    """Dependency edge: generating ``parent`` forces ``multiplicity``
    independent choices of ``child``'s type, each picking ``child`` with its
    probability."""

    parent: str
    child: str
    multiplicity: int


@dataclass(frozen=True)
class CDG:
    """Constructor dependency graph from family constructors through the
    acyclic foreign types they reach."""

    edges: tuple[CdgEdge, ...]


def build_cdg(u: ADTUniverse) -> CDG:
    cu = u.compiled
    edges = [
        CdgEdge(parent, child, int(cu.counts[c, t]))
        for c, parent in enumerate(cu.ctors)
        for t in dict.fromkeys(t for mode, t in cu.rows[c] if mode == MODE_FOREIGN)
        for child in cu.ctors[cu.slices[t]]
    ]
    return CDG(tuple(edges))


# ---------------------------------------------------------------------------
# Probability maps
# ---------------------------------------------------------------------------

def uniform_probmap(u: ADTUniverse, types: Iterable[str] | None = None) -> dict[str, float]:
    """Equal probability for each constructor, per type."""
    probs: dict[str, float] = {}
    for tid in (types if types is not None else u.decls):
        ctors = u.constructors_of(tid)
        p = 1.0 / len(ctors)
        for cid in ctors:
            probs[cid] = p
    return probs


def _entries_by_type(u: ADTUniverse, probs: Mapping[str, float]) -> dict[str, dict[str, float]]:
    grouped: dict[str, dict[str, float]] = {}
    for cid, p in probs.items():
        grouped.setdefault(u.ctor_type(cid), {})[cid] = p
    return grouped


def validate_probmap(u: ADTUniverse, probs: Mapping[str, float]) -> None:
    """Check the per-type distribution invariant.

    Every type with an entry must have all of its constructors present,
    each in [0, 1], summing to 1 within 1e-9. A type whose entries are all
    exactly zero is allowed: it is the dead-type form produced by hard
    constraints, and such a type is never reached during generation.
    """
    for tid, entries in _entries_by_type(u, probs).items():
        ctors = u.constructors_of(tid)
        missing = [c for c in ctors if c not in entries]
        if missing:
            raise AdtError(f"incomplete distribution for {tid}: missing {missing}")
        for cid, p in entries.items():
            if not (0.0 <= p <= 1.0 + PROB_SUM_TOL):
                raise AdtError(f"probability out of range for {cid}: {p}")
        total = sum(entries[c] for c in ctors)
        if total == 0.0:
            continue
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise AdtError(f"probabilities for {tid} sum to {total}, expected 1")


def renormalize_probmap(u: ADTUniverse, probs: Mapping[str, float],
                        pinned: frozenset[str] | set[str] = frozenset()) -> dict[str, float]:
    """Zero the pinned constructors and rescale each type's remaining
    entries to sum to 1. A type with every constructor pinned keeps
    explicit zeros."""
    out: dict[str, float] = {}
    for tid, entries in _entries_by_type(u, probs).items():
        free = {c: p for c, p in entries.items() if c not in pinned}
        total = sum(free.values())
        for cid in entries:
            if cid in pinned:
                out[cid] = 0.0
            elif total > 0.0:
                out[cid] = free[cid] / total
            else:
                out[cid] = 1.0 / len(free)
    return out


def probmap_to_json(probs: Mapping[str, float]) -> dict:
    return {"probabilities": dict(sorted(probs.items()))}


def is_number(x) -> bool:
    """Whether ``x`` is a real number: an int, a float or a numpy number.
    A bool or a numeric string is not, though ``float`` takes both."""
    return type(x) is float or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def as_probability(cid: str, p) -> float:
    """A probability file's entry for ``cid`` as a float; one that is not a
    number (see ``is_number``) is a ``TypeError``."""
    if not is_number(p):
        raise TypeError(f"probability of {cid} must be a number, got {p!r}")
    return float(p)


def read_probabilities(probs: Mapping[str, float], ctors: Sequence[str]) -> list[float]:
    """The entries of ``probs`` for ``ctors``, in order, as floats, by the
    one rule for a probability: present, a number, finite and nonnegative.
    The missing entries, else the first entry that breaks the rule, are an
    ``AdtError``. Every map a prediction, a cost, a search or a sampler
    reads goes through here."""
    missing = [c for c in ctors if c not in probs]
    if missing:
        raise AdtError(f"missing probability entries: {missing}")
    out = []
    for c in ctors:
        p = probs[c]
        if not is_number(p):
            raise AdtError(f"probability of {c} must be a number, got {p!r}")
        p = float(p)
        if not 0.0 <= p < math.inf:
            raise AdtError(f"probability of {c} must be finite and nonnegative, got {p}")
        out.append(p)
    return out


def as_integer(n, message: str, least: int | None = None) -> int:
    """``n`` as an int, of at least ``least`` if given, else an ``AdtError``
    of ``message`` and ``n``. A numpy integer passes; a bool or a
    non-integral number does not, though ``int`` takes both."""
    if type(n) is not int:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise AdtError(f"{message}, got {n!r}")
        n = int(n)
    if least is not None and n < least:
        raise AdtError(f"{message}, got {n!r}")
    return n


def load_probmap(data, u: ADTUniverse) -> dict[str, float]:
    """Load a probability map from a JSON document (dict or text)."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise AdtError(f"probability file is not JSON: {exc}") from None
    if not isinstance(data, dict) or "probabilities" not in data:
        raise AdtError('probability file must be {"probabilities": {...}}')
    entries = data["probabilities"]
    if not isinstance(entries, dict):
        raise AdtError('"probabilities" must be an object')
    probs = {}
    for cid, p in entries.items():
        if not u.has_ctor(cid):
            raise AdtError(f"unknown constructor: {cid}")
        try:
            probs[cid] = as_probability(cid, p)
        except TypeError as exc:
            raise AdtError(*exc.args) from None
    validate_probmap(u, probs)
    return probs


def warn_probability(message: str) -> None:
    """Warn at the caller's line: the first frame outside this package, found
    by walking the stack (``warnings.warn``'s ``skip_file_prefixes`` needs
    Python 3.12)."""
    frame, level, package = sys._getframe(1), 2, os.path.dirname(__file__) + os.sep
    while frame.f_back and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)
