"""Epistemic formulas over input atoms.

Formulas are hash-consed into a global DAG: building the same subformula twice
yields the same node, so equality is identity and shared structure is free.
The language is atoms ip_a^v, negation, finite conjunction/disjunction,
individual knowledge ``K a``, and distributed knowledge ``D A`` for an agent
set A (``D {a}`` coincides with ``K a``; ``D {}`` is the global modality).

`ModelTable` is the model checker: it evaluates every DAG node as a boolean
vector over all facets of a model (or of several side by side), which is both
the memoization the DAG needs and the natural shape for obstruction checks.
"""

from __future__ import annotations

import enum
import json
import re
from typing import Iterable

import numpy as np

from .errors import UsageError

ATOM = "atom"
NOT = "not"
AND = "and"
OR = "or"
K = "K"
D = "D"


class FormulaClass(enum.Enum):
    LK_POS = "L_K+"
    LD_POS = "L_D+"
    LK = "L_K"
    LD = "L_D"
    NON_POSITIVE = "none-positive"


# Formula.flags bits; each holds at a node when it holds at a descendant.
_NON_POSITIVE, _HAS_OR, _HAS_D, _HAS_WIDE_D = 1, 2, 4, 8


class Formula:
    """One interned node. Do not instantiate directly; use the factories."""

    __slots__ = ("kind", "payload", "children", "uid", "degree", "flags")

    def __init__(self, kind, payload, children, uid):
        self.kind = kind
        self.payload = payload
        self.children = children
        self.uid = uid
        if kind == OR:
            flags = _HAS_OR
        elif kind == D:
            flags = _HAS_D if len(payload) == 1 else _HAS_D | _HAS_WIDE_D
        elif kind == NOT and children[0].kind != ATOM:
            flags = _NON_POSITIVE
        else:
            flags = 0
        degree = 0
        for c in children:
            flags |= c.flags
            if c.degree > degree:
                degree = c.degree
        self.flags = flags
        self.degree = degree + 1 if kind == K or kind == D else degree

    positive = property(lambda self: not self.flags & _NON_POSITIVE,
                        doc="Negation only on atoms.")
    has_or = property(lambda self: bool(self.flags & _HAS_OR))
    has_d = property(lambda self: bool(self.flags & _HAS_D))
    has_wide_d = property(lambda self: bool(self.flags & _HAS_WIDE_D),
                          doc="Some ``D`` over a group of other than one agent.")

    def __repr__(self):
        return f"<Formula {to_sexp(self, share=False) if tree_size(self) < 80 else self.kind}>"


_INTERNED: dict[tuple, Formula] = {}


def _intern(kind, payload, children: tuple) -> Formula:
    key = (kind, payload, tuple([c.uid for c in children]))
    node = _INTERNED.get(key)
    if node is None:
        node = Formula(kind, payload, children, uid=len(_INTERNED))
        _INTERNED[key] = node
    return node


def atom(agent: int, value) -> Formula:
    if not isinstance(agent, int) or agent < 0:
        raise UsageError(f"atom agent must be a nonnegative int, got {agent!r}")
    return _intern(ATOM, (agent, value), ())


def neg(f: Formula) -> Formula:
    return _intern(NOT, None, (f,))


def _junction(kind, parts: Iterable[Formula]) -> Formula:
    seen, uniq = set(), []
    for p in parts:
        if not isinstance(p, Formula):
            raise UsageError(f"{kind} expects formulas, got {p!r}")
        if p.uid not in seen:
            seen.add(p.uid)
            uniq.append(p)
    if not uniq:
        raise UsageError(f"empty {kind} is not a formula")
    if len(uniq) == 1:
        return uniq[0]
    return _intern(kind, None, tuple(uniq))


def conj(parts: Iterable[Formula]) -> Formula:
    return _junction(AND, parts)


def disj(parts: Iterable[Formula]) -> Formula:
    return _junction(OR, parts)


def know(agent: int, f: Formula) -> Formula:
    if not isinstance(agent, int) or agent < 0:
        raise UsageError(f"K agent must be a nonnegative int, got {agent!r}")
    return _intern(K, agent, (f,))


def dknow(agents: Iterable[int], f: Formula) -> Formula:
    group = frozenset(agents)
    for a in group:
        if not isinstance(a, int) or a < 0:
            raise UsageError(f"D agent must be a nonnegative int, got {a!r}")
    return _intern(D, group, (f,))


def classify(f: Formula) -> FormulaClass:
    """Tightest language class of ``f``.

    Singleton ``D {a}`` counts as K-expressible. The plain (non-positive)
    fragments have no disjunction, so a formula with general negation and an
    Or node falls outside all four and is reported none-positive.
    """
    if f.positive:
        return FormulaClass.LD_POS if f.has_wide_d else FormulaClass.LK_POS
    if f.has_or:
        return FormulaClass.NON_POSITIVE
    return FormulaClass.LD if f.has_wide_d else FormulaClass.LK


def dag_size(f: Formula) -> int:
    seen: set[int] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node.uid in seen:
            continue
        seen.add(node.uid)
        stack.extend(node.children)
    return len(seen)


def tree_size(f: Formula) -> int:
    """Node count of the fully expanded tree (can be exponentially larger
    than the DAG; exact big-int arithmetic)."""
    sizes: dict[int, int] = {}
    order = _postorder(f)
    for node in order:
        sizes[node.uid] = 1 + sum(sizes[c.uid] for c in node.children)
    return sizes[f.uid]


def _postorder(f: Formula) -> list[Formula]:
    out: list[Formula] = []
    seen: set[int] = set()
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        node, expanded = stack.pop()
        if node.uid in seen:
            continue
        if expanded:
            seen.add(node.uid)
            out.append(node)
        else:
            stack.append((node, True))
            for c in node.children:
                if c.uid not in seen:
                    stack.append((c, False))
    return out


# ---------------------------------------------------------------------------
# Model checking

class ModelTable:
    """Truth tables for formulas over one model, or over the disjoint union
    of several models of one workspace.

    For each DAG node the table holds a read-only boolean vector indexed by
    facet, the models' facets in order, so repeated queries (and every modal
    step) reuse earlier work. ``D A phi`` holds at X iff phi holds at every
    facet of X's model sharing X's A-face (every facet of X's model when A is
    empty), and ``K a phi`` is ``D {a} phi``. Each group's face classes are
    read once per table; a modal step then marks the classes where phi fails
    and reads the mark back per facet. When every class is one facet it is
    phi's own vector, and when there is one class a constant.
    """

    def __init__(self, *models):
        if not models:
            raise UsageError("a model table needs a model")
        self.models = models
        self.workspace = models[0].workspace
        if any(m.workspace != self.workspace for m in models):
            raise UsageError("models use different workspaces")
        self.n_facets = sum(m.n_facets for m in models)
        self._vals: dict[int, np.ndarray] = {}
        self._classes: dict[tuple[int, ...], tuple[np.ndarray, int]] = {}

    def satisfies(self, f: Formula) -> np.ndarray:
        """Read-only boolean vector: entry i <=> formula holds at facet i."""
        for node in _postorder(f):
            if node.uid not in self._vals:
                vec = self._compute(node)
                vec.setflags(write=False)
                self._vals[node.uid] = vec
        return self._vals[f.uid]

    def check(self, facet: int, f: Formula) -> bool:
        if not 0 <= facet < self.n_facets:
            raise UsageError(f"facet index {facet} out of range")
        return bool(self.satisfies(f)[facet])

    def _compute(self, node: Formula) -> np.ndarray:
        kind = node.kind
        if kind == ATOM:
            a, v = node.payload
            ws = self.workspace
            if a >= ws.n_agents or v not in ws.value_set:
                raise UsageError(f"atom {(a, v)!r} outside workspace {ws.agents}/{ws.values}")
            return np.array([node.payload in lab for m in self.models
                             for lab in m.facet_labels], dtype=bool)
        if kind == NOT:
            return ~self._vals[node.children[0].uid]
        if kind == AND or kind == OR:
            op = np.logical_and if kind == AND else np.logical_or
            vecs = [self._vals[c.uid] for c in node.children]
            return op(*vecs) if len(vecs) == 2 else op.reduce(vecs)
        child = self._vals[node.children[0].uid]
        group = (node.payload,) if kind == K else tuple(sorted(node.payload))
        found = self._classes.get(group)
        if found is None:
            # each model's classes numbered after the previous model's
            parts, count = [], 0
            for m in self.models:
                ids, _, starts = m.face_classes(group)
                parts.append(ids + count)
                count += len(starts)
            found = self._classes[group] = (np.concatenate(parts), count)
        ids, n_classes = found
        if n_classes == self.n_facets:
            return child
        if n_classes == 1:
            return np.full(self.n_facets, child.all())
        hit = np.zeros(n_classes, dtype=bool)
        hit[ids[~child]] = True
        return ~hit[ids]


def eval_formula(model, facet: int, f: Formula) -> bool:
    """One-off query with a fresh per-evaluation cache."""
    return ModelTable(model).check(facet, f)


# ---------------------------------------------------------------------------
# S-expressions

_EXPAND_GUARD = 10_000_000


def to_sexp(f: Formula, share: bool = True) -> str:
    """Serialize. With ``share`` (default) nodes referenced more than once are
    bound in a ``(let ((x0 ...) ...) body)`` prefix, preserving the DAG;
    without it the tree is written out (guarded at 10^7 nodes)."""
    if not share:
        if tree_size(f) > _EXPAND_GUARD:
            raise UsageError(
                f"expanded tree exceeds {_EXPAND_GUARD:,} nodes; keep sharing enabled")
        return _write(f, {})
    order = _postorder(f)
    refs: dict[int, int] = {}
    for node in order:
        for c in node.children:
            refs[c.uid] = refs.get(c.uid, 0) + 1
    names: dict[int, str] = {}
    bindings: list[str] = []
    for node in order:
        if node.uid != f.uid and refs.get(node.uid, 0) >= 2 and node.kind != ATOM:
            body = _write(node, names)
            names[node.uid] = f"x{len(names)}"
            bindings.append(f"({names[node.uid]} {body})")
    body = _write(f, names)
    if not bindings:
        return body
    return f"(let ({' '.join(bindings)}) {body})"


def _write(f: Formula, names: dict[int, str]) -> str:
    # An explicit stack of nodes still to write and text to emit after them,
    # so nesting depth is not bounded by the interpreter's recursion limit.
    out: list[str] = []
    stack: list = [f]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        name = names.get(item.uid)
        if name is not None:
            out.append(name)
            continue
        if item.kind == ATOM:
            a, v = item.payload
            out.append(f"(atom {a} {_value_token(v)})")
            continue
        if item.kind == K:
            out.append(f"(K {item.payload} ")
        elif item.kind == D:
            group = " ".join(str(a) for a in sorted(item.payload))
            out.append(f"(D ({group}) ")
        else:
            out.append(f"({item.kind} ")
        stack.append(")")
        for i in range(len(item.children) - 1, 0, -1):
            stack.append(item.children[i])
            stack.append(" ")
        stack.append(item.children[0])
    return "".join(out)


def _value_token(v) -> str:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise UsageError(f"values must be int or str, got {v!r}")
    return json.dumps(v)


# A parenthesis, a string with backslash escapes, a bare token, or the
# opening quote of a string that never closes.
_TOKEN = re.compile(r'[()]|"(?:[^"\\]|\\.)*"|[^\s()"][^\s()]*|"', re.S)


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    if '"' in tokens:
        raise UsageError("unterminated string in formula")
    return tokens


def from_sexp(text: str) -> Formula:
    tokens = _tokenize(text)
    if not tokens:
        raise UsageError("empty formula")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise UsageError("unexpected end of formula")
        tok = tokens[pos]
        pos += 1
        if expected is not None and tok != expected:
            raise UsageError(f"expected {expected!r}, got {tok!r}")
        return tok

    def parse_int(tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise UsageError(f"expected an integer, got {tok!r}") from None

    def parse_value(tok: str):
        if tok.startswith('"'):
            return json.loads(tok)
        return parse_int(tok)

    def start(env: dict[str, Formula]):
        """Read a name or an atom outright; for any other form return the
        generator that reads the rest of it."""
        tok = take()
        if tok != "(":
            if tok in env:
                return env[tok]
            raise UsageError(f"unbound name {tok!r} in formula")
        head = take()
        if head == ATOM:
            a = parse_int(take())
            v = parse_value(take())
            take(")")
            return atom(a, v)
        return compound(head, env)

    def compound(head: str, env: dict[str, Formula]):
        """Yield the scope of each subformula the form needs and get that
        subformula sent back, so the loop below keeps the nesting on a list
        rather than on the call stack."""
        if head == NOT:
            f = yield env
            take(")")
            return neg(f)
        if head in (AND, OR):
            parts = []
            while peek() != ")":
                parts.append((yield env))
            take(")")
            return conj(parts) if head == AND else disj(parts)
        if head == K:
            a = parse_int(take())
            f = yield env
            take(")")
            return know(a, f)
        if head == D:
            take("(")
            group = []
            while peek() != ")":
                group.append(parse_int(take()))
            take(")")
            f = yield env
            take(")")
            return dknow(group, f)
        if head == "let":
            take("(")
            inner = dict(env)
            while peek() == "(":
                take("(")
                name = take()
                inner[name] = yield inner
                take(")")
            take(")")
            body = yield inner
            take(")")
            return body
        raise UsageError(f"unknown operator {head!r}")

    stack = []
    value = start({})
    while True:
        if not isinstance(value, Formula):
            stack.append(value)
            value = None
        if not stack:
            break
        try:
            scope = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            value = start(scope)
    if pos != len(tokens):
        raise UsageError("trailing tokens after formula")
    return value
