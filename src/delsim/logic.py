"""Epistemic formulas over input atoms.

Formulas are hash-consed into a global DAG: building the same subformula twice
yields the same node, so equality is identity and shared structure is free.
`_INTERNED` holds one table per kind and payload, and a table is keyed on
the tuple of child nodes, interned already, that its node holds itself, so
no node carries a key of its own; every table and DAG walk keys on the node
itself. Agents are exactly ``int`` and atom values exactly ``int`` or
``str``, so payloads that compare equal are spelled alike.
The language is atoms ip_a^v, negation, finite conjunction/disjunction,
individual knowledge ``K a``, and distributed knowledge ``D A`` for an agent
set A (``D {a}`` coincides with ``K a``; ``D {}`` is the global modality).

Each node keeps a walk plan, made the first time it is needed (`_plan`):
its DAG in postorder and the schedule by which a query frees each child's
vector after its last parent. The plan depends on no model, so the writer,
the size functions and every query on a fresh model table read the one
plan, and a formula's DAG is walked once however often it is checked on
fresh tables, written or measured. The plan lives as long as the interned
node.

The s-expression writer, `sexp_chunks`, streams: it yields the text in
joined chunks of about `_CHUNK` pieces, so a caller that writes each chunk
out (``delsim obstruct``) never holds the text; `to_sexp` joins them.

`ModelTable` is the model checker: it evaluates a formula's DAG bottom-up as
truth vectors over all facets of a model (or of several side by side), one
vector per node in postorder, and frees each subformula's vector after its
last parent. It keeps the vectors of the formulas it was asked about, so
its vectors' memory follows the DAG's width, not its size. A table that
holds no formula yet reads the formula's plan; one that holds some walks
only the nodes above them and keeps no plan, so asking one table about
nested formulas one at a time does not walk the inner ones again. A
vector is a Python int used as a bitset, bit i for facet i, so the boolean
connectives are one int operation each on 14 facets or on 38k. A modal step
closes the facets where its subformula fails under the group's face classes
(`_Classes`): by one shift per in-class facet offset when a group's classes
have few offsets, and otherwise by a walk over the failing classes. Only
the answer is unpacked.
"""

from __future__ import annotations

import enum
import json
import re
from array import array
from collections import Counter
from functools import lru_cache, reduce
from itertools import chain, repeat
from operator import and_, attrgetter, or_
from typing import Iterable, Iterator, Sequence

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

    __slots__ = ("kind", "payload", "children", "degree", "flags", "_plan")

    def __init__(self, kind, payload, children):
        self.kind = kind
        self.payload = payload
        self.children = children
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
        self._plan = None

    positive = property(lambda self: not self.flags & _NON_POSITIVE,
                        doc="Negation only on atoms.")
    has_or = property(lambda self: bool(self.flags & _HAS_OR))
    has_d = property(lambda self: bool(self.flags & _HAS_D))
    has_wide_d = property(lambda self: bool(self.flags & _HAS_WIDE_D),
                          doc="Some ``D`` over a group of other than one agent.")

    def __repr__(self):
        # count the expanded tree only as far as the bound, and make no plan
        n, stack = 0, [self]
        while stack and n < 80:
            n += 1
            stack.extend(stack.pop().children)
        return f"<Formula {''.join(_chunks([self])) if n < 80 else self.kind}>"


_INTERNED: dict[tuple, dict[tuple, Formula]] = {}


def _intern(kind, payload, children: tuple) -> Formula:
    table = _INTERNED.get((kind, payload))
    if table is None:
        table = _INTERNED[kind, payload] = {}
    node = table.get(children)
    if node is None:
        node = table[children] = Formula(kind, payload, children)
    return node


def _check_agent(a, kind: str) -> None:
    if type(a) is not int or a < 0:
        raise UsageError(f"{kind} agent must be a nonnegative int, got {_shown(a)}")


def atom(agent: int, value) -> Formula:
    _check_agent(agent, ATOM)
    if type(value) is not int and type(value) is not str:
        raise UsageError(f"values must be int or str, got {value!r}")
    return _intern(ATOM, (agent, value), ())


def neg(f: Formula) -> Formula:
    return _intern(NOT, None, (f,))


def _junction(kind, parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    for p in parts:
        if type(p) is not Formula:
            raise UsageError(f"{kind} expects formulas, got {_shown(p)}")
    uniq = tuple(dict.fromkeys(parts))
    if not uniq:
        raise UsageError(f"empty {kind} is not a formula")
    if len(uniq) == 1:
        return uniq[0]
    return _intern(kind, None, uniq)


def conj(parts: Iterable[Formula]) -> Formula:
    return _junction(AND, parts)


def disj(parts: Iterable[Formula]) -> Formula:
    return _junction(OR, parts)


def know(agent: int, f: Formula) -> Formula:
    _check_agent(agent, K)
    return _intern(K, agent, (f,))


def dknow(agents: Iterable[int], f: Formula) -> Formula:
    # Check the agents as given: a set would merge True into 1 first.
    if type(agents) is not frozenset:
        agents = tuple(agents)
    for a in agents:
        _check_agent(a, D)
    return _intern(D, frozenset(agents), (f,))


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
    return len(_plan(f)[0])


def tree_size(f: Formula) -> int:
    """Node count of the fully expanded tree (can be exponentially larger
    than the DAG; exact big-int arithmetic)."""
    sizes: dict[Formula, int] = {}
    for node in _plan(f)[0]:
        sizes[node] = 1 + sum(sizes[c] for c in node.children)
    return sizes[f]


def _plan(f: Formula) -> tuple[list[Formula], list[Formula], array]:
    """``f``'s walk plan, made on first use and kept on ``f``: ``order``, the
    nodes of its DAG in postorder, then its `_schedule`."""
    plan = f._plan
    if plan is None:
        order = _postorder(f)
        plan = f._plan = (order, *_schedule(order))
    return plan


def _schedule(order: list[Formula]) -> tuple[list[Formula], array]:
    """The last-use schedule of a postorder: ``dying``, every child of a node
    in ``order`` in the order of its last use, and ``ends``, where
    ``ends[j]`` is the position in ``order`` of ``dying[j]``'s last parent,
    then -1."""
    kids = list(map(attrgetter("children"), order))
    last = dict(zip(chain.from_iterable(kids),
                    chain.from_iterable(map(repeat, range(len(order)),
                                            map(len, kids)))))
    ends = array("i", sorted(last.values()))
    ends.append(-1)
    return sorted(last, key=last.__getitem__), ends


def _postorder(f: Formula, held=()) -> list[Formula]:
    """Every node under ``f`` after its children, depth first. Nodes in
    ``held`` (other than ``f``) are neither entered nor listed."""
    out: list[Formula] = []
    seen: set[Formula] = set()
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        node, expanded = stack.pop()
        if node in seen:
            continue
        if expanded:
            seen.add(node)
            out.append(node)
        else:
            stack.append((node, True))
            for c in node.children:
                if c not in seen and c not in held:
                    stack.append((c, False))
    return out


# ---------------------------------------------------------------------------
# Model checking

class ModelTable:
    """Truth tables for formulas over one model, or over the disjoint union
    of several models of one workspace.

    ``satisfies(f)`` returns a read-only boolean vector indexed by facet,
    the models' facets in order. Inside, a truth vector is a Python int
    used as a bitset, bit i for facet i: NOT is ``full ^ v`` and AND/OR
    fold ``&``/``|`` over the children, one operation each whatever the
    number of facets. The table keeps the vector of each formula it was
    asked about, packed and unpacked, and a later query returns that same
    array. While the table holds no formula, a query walks the formula's
    plan (`_plan`), the same for every table. Once it holds some, a query
    walks the formula's DAG afresh, keeps no plan, and skips the subtree of
    every formula the table holds, reading its bits as a leaf. Other subformulas' vectors live only while
    a query runs: each is freed once its last parent in the postorder is
    computed, so a query holds the DAG's widest cut of vectors, not one per
    node. A query that raises keeps nothing.

    ``D A phi`` holds at X iff phi holds at every facet of X's model sharing
    X's A-face (every facet of X's model when A is empty), and ``K a phi``
    is ``D {a} phi``. A modal step is phi's own vector when phi holds
    everywhere or every class is one facet, and a constant when there is one
    class. Otherwise it takes the facets where phi fails and closes them
    under the group's face classes (`_Classes`, built once per K agent or D
    agent set); the step holds off that closure.
    """

    def __init__(self, *models):
        if not models:
            raise UsageError("a model table needs a model")
        self.models = models
        self.workspace = models[0].workspace
        if any(m.workspace != self.workspace for m in models):
            raise UsageError("models use different workspaces")
        self.n_facets = sum(m.n_facets for m in models)
        self._full = (1 << self.n_facets) - 1
        self._vals: dict[Formula, tuple[int, np.ndarray]] = {}
        # face classes by modal payload, K's agent or D's agent set, so a
        # modal step builds and sorts its group once
        self._modal: dict[int | frozenset, _Classes] = {}

    def satisfies(self, f: Formula) -> np.ndarray:
        """Read-only boolean vector: entry i <=> formula holds at facet i."""
        vals = self._vals
        held = vals.get(f)
        if held is not None:
            return held[1]
        if vals:
            # stop at the formulas held and keep no plan: a whole-DAG plan
            # would recompute their subtrees at every query
            order = _postorder(f, vals)
            dying, ends = _schedule(order)
            live = {c: vals[c][0] for c in vals.keys() & dying}
        else:
            order, dying, ends = _plan(f)
            live = {}
        compute = self._compute
        j = 0
        for i, node in enumerate(order):
            live[node] = compute(node, live)
            while ends[j] == i:
                del live[dying[j]]
                j += 1
        bits = live[f]
        vec = _unpack(bits, self.n_facets)
        vec.setflags(write=False)
        vals[f] = (bits, vec)
        return vec

    def check(self, facet: int, f: Formula) -> bool:
        if not 0 <= facet < self.n_facets:
            raise UsageError(f"facet index {facet} out of range")
        return bool(self.satisfies(f)[facet])

    def _compute(self, node: Formula, live: dict) -> int:
        kind = node.kind
        if kind == ATOM:
            a, v = node.payload
            ws = self.workspace
            if a >= ws.n_agents or v not in ws.value_set:
                raise UsageError(f"atom {_shown((a, v))} outside workspace {ws.agents}/{ws.values}")
            return _pack(np.array([node.payload in lab for m in self.models
                                   for lab in m.facet_labels], dtype=bool))
        if kind == NOT:
            return self._full ^ live[node.children[0]]
        if kind == AND or kind == OR:
            return reduce(and_ if kind == AND else or_, map(live.__getitem__, node.children))
        # the group first: it rejects an agent outside the workspace
        payload = node.payload
        classes = self._modal.get(payload)
        if classes is None:
            classes = self._modal[payload] = self._group(
                (payload,) if kind == K else tuple(sorted(payload)))
        child = live[node.children[0]]
        full = self._full
        if child == full or classes.n_classes == self.n_facets:
            return child
        if classes.n_classes == 1:
            return 0
        return full ^ classes.close(full ^ child)

    def _group(self, group: tuple[int, ...]) -> _Classes:
        """The face classes of the sorted agent tuple ``group``, built anew."""
        # each model's classes numbered after the previous model's, and its
        # facets after the previous model's facets
        ids, order, starts = [], [], []
        n_classes = n_facets = 0
        for m in self.models:
            i, o, s = m.face_classes(group)
            ids.append(i + n_classes)
            order.append(o + n_facets)
            starts.append(s + n_facets)
            n_classes += len(s)
            n_facets += m.n_facets
        return _Classes(np.concatenate(ids), np.concatenate(order), np.concatenate(starts))


# A group whose classes hold more distinct (target - source) facet offsets
# than this closes its failing facets by the walk instead.
_MAX_SHIFTS = 32


class _Classes:
    """One group's face classes over a table's facets, and two ways to close
    a set of facets ``fail`` (an int bitset) under them: the union of the
    classes that meet ``fail``.

    * `shifts`: ``fail | OR_d ((fail & M_d) shifted by d)`` over each
      distinct offset d from a facet to another of its class, where M_d
      holds the facets x with x + d in x's class. Offsets are enumerated
      only when the largest class is small enough to have at most
      ``_MAX_SHIFTS`` of them (a class of s facets has at least 2(s - 1)),
      and ``offsets`` is None when there are more.
    * `walk`: take the highest failing facet, OR in its class, drop that
      class from ``fail`` and repeat; one step per class that meets it.
      Each class's mask is kept once made, for the record's life: at most
      one int per class, 221 MB for every class of the W5 D verification
      table's walking groups (69746 classes over 37780 facets). Building
      the mask at each step instead was 1.5-3 times slower.

    `close` takes the shifts where there are fewer offsets than two per
    class, else the walk.
    """

    def __init__(self, ids: np.ndarray, order: np.ndarray, starts: np.ndarray):
        self.ids, self.order = ids, order
        self.n_facets = n = len(ids)
        self.n_classes = len(starts)
        self.bounds = np.append(starts, n)
        self._id_list: list[int] | None = None
        self._masks: list[int | None] = [None] * self.n_classes
        largest = int(np.diff(self.bounds).max(initial=1))
        self.offsets = self._offsets(largest) if 2 * (largest - 1) <= _MAX_SHIFTS else None

    def _offsets(self, largest: int) -> list[tuple[int, int]] | None:
        """(d, M_d) for each offset d, or None past ``_MAX_SHIFTS``."""
        order = self.order
        cls = self.ids[order]
        empty = np.zeros(0, dtype=np.intp)
        src, ds = [empty], [empty]
        # every pair of one class, k apart in ``order``, read both ways
        for k in range(1, largest):
            at = np.flatnonzero(cls[:-k] == cls[k:])
            x, y = order[at], order[at + k]
            src += [x, y]
            ds += [y - x, x - y]
        src = np.concatenate(src)
        offsets, which = np.unique(np.concatenate(ds), return_inverse=True)
        if len(offsets) > _MAX_SHIFTS:
            return None
        return [(d, _pack_at(src[which == i], self.n_facets))
                for i, d in enumerate(offsets.tolist())]

    def close(self, fail: int) -> int:
        """The facets sharing a class with some facet of ``fail``."""
        # with up to four offsets per class the shifts lost to the walk on
        # consensus-k's task (BENCH_16.json, "sweep")
        if self.offsets is not None and len(self.offsets) < 2 * self.n_classes:
            return self.shifts(fail)
        return self.walk(fail)

    def shifts(self, fail: int) -> int:
        closed = fail
        for d, sources in self.offsets:
            moved = fail & sources
            closed |= moved << d if d > 0 else moved >> -d
        return closed

    def walk(self, fail: int) -> int:
        ids = self._id_list
        if ids is None:
            ids = self._id_list = self.ids.tolist()
        masks = self._masks
        closed = 0
        while fail:
            # bit_length reads the top digit only: walk from the top down
            c = ids[fail.bit_length() - 1]
            mask = masks[c]
            if mask is None:
                mask = masks[c] = _pack_at(
                    self.order[self.bounds[c]:self.bounds[c + 1]], self.n_facets)
            closed |= mask
            fail ^= fail & mask
        return closed


def _pack(vec: np.ndarray) -> int:
    """A boolean vector as an int bitset, bit i for entry i."""
    return int.from_bytes(np.packbits(vec, bitorder="little").tobytes(), "little")


def _pack_at(index: np.ndarray, n: int) -> int:
    """The bitset of the entries ``index`` out of ``n``."""
    vec = np.zeros(n, dtype=bool)
    vec[index] = True
    return _pack(vec)


def _unpack(bits: int, n: int) -> np.ndarray:
    """The first ``n`` bits of ``bits`` as a boolean vector."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


# ---------------------------------------------------------------------------
# S-expressions

_EXPAND_GUARD = 10_000_000
_CHUNK = 4096


def to_sexp(f: Formula, share: bool = True) -> str:
    """Serialize ``f``: the chunks of `sexp_chunks` joined into one string."""
    return "".join(sexp_chunks(f, share))


# one text per agent set: an obstruction has thousands of D nodes over a
# few groups
@lru_cache(maxsize=256)
def _d_head(group: frozenset) -> str:
    return f"(D ({' '.join(map(str, sorted(group)))}) "


def sexp_chunks(f: Formula, share: bool = True) -> Iterator[str]:
    """``f``'s text as `_chunks` writes it. With ``share`` (default) nodes
    referenced more than once are bound in a ``(let ((x0 ...) ...) body)``
    prefix, preserving the DAG, and named in the order of ``f``'s plan;
    without it the tree is written out (guarded at 10^7 nodes). The plan
    and the guard are read before this returns, so an error comes before
    any chunk."""
    if not share:
        if tree_size(f) > _EXPAND_GUARD:
            raise UsageError(
                f"expanded tree exceeds {_EXPAND_GUARD:,} nodes; keep sharing enabled")
        return _chunks([f])
    order = _plan(f)[0]
    refs = Counter(chain.from_iterable(map(attrgetter("children"), order)))
    bound = [node for node in order if node is not f and refs[node] >= 2 and node.kind != ATOM]
    return _chunks(bound + [f])


def _chunks(tops: list[Formula]) -> Iterator[str]:
    """The text of ``tops[-1]``, with each earlier top bound to the name
    ``x<i>`` in a let prefix (none when there is one top), in joined chunks
    of about `_CHUNK` pieces: filled across bindings and split inside a wide
    form, so that neither the whole text nor a string per binding is held."""
    names: dict[Formula, str] = {}
    last = len(tops) - 1
    buf = ["(let ("] if last else []
    for i, top in enumerate(tops):
        if i < last:
            buf.append(f" (x{i} " if i else f"(x{i} ")
        elif last:
            buf.append(") ")
        # An explicit stack of nodes still to write and text to emit after
        # them, so nesting depth is not bounded by the recursion limit. A top
        # is named only once written.
        stack: list = [top]
        while stack:
            item = stack.pop()
            if type(item) is str:
                buf.append(item)
                continue
            if len(buf) > _CHUNK:
                yield "".join(buf)
                buf.clear()
            name = names.get(item)
            if name is not None:
                buf.append(name)
                continue
            if item.kind == ATOM:
                a, v = item.payload
                buf.append(f"(atom {a} {json.dumps(v)})")
                continue
            if item.kind == K:
                buf.append(f"(K {item.payload} ")
            elif item.kind == D:
                buf.append(_d_head(item.payload))
            else:
                buf.append(f"({item.kind} ")
            stack.append(")")
            for j in range(len(item.children) - 1, 0, -1):
                stack.append(item.children[j])
                stack.append(" ")
            stack.append(item.children[0])
        if last:  # the binding's or, after the body, the let's
            buf.append(")")
        if i < last:
            names[top] = f"x{i}"
    yield "".join(buf)


# a string token, with backslash escapes
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.S)
_TOKEN_END = re.compile(r'[\s()]')


def _lift_strings(text: str, spelled: list[str]) -> str:
    """``text`` with each string token swapped for the bare token ``"i``,
    where ``spelled[i]`` is its spelling; equal strings get one placeholder.
    A string starts a token, which starts the text or follows whitespace, a
    bracket or a string; no bare token starts with a quote, so only a
    string can spell a placeholder."""
    ids: dict[str, str] = {}
    out: list[str] = []
    done = 0  # the text before this is copied, and ends a token
    q = text.find('"')
    while q >= 0:
        c = text[q - 1]
        if q == done or c.isspace() or c == "(" or c == ")":
            m = _STRING.match(text, q)
            if m is None:
                raise UsageError("unterminated string in formula")
            s = m.group()
            p = ids.get(s)
            if p is None:
                p = ids[s] = f' "{len(spelled)} '
                spelled.append(s)
            out += text[done:q], p
            done = m.end()
            q = text.find('"', done)
        else:  # a quote inside a bare token: go on after the token
            m = _TOKEN_END.search(text, q)
            q = -1 if m is None else text.find('"', m.end())
    out.append(text[done:])
    return "".join(out)


# Heads of the lists that hold the whole text, a let's binding list, one
# binding and a D group; no token has a space, so none is one of them.
_ROOT, _BINDINGS, _BINDING, _GROUP = "the text", "let bindings", "let binding", "D group"
# the length of a list whose form still lacks its one subformula
_ONE_CHILD_AT = {_ROOT: 1, NOT: 1, K: 2, D: 2, "let": 2, _BINDING: 2}
# a piece of the text ends just before the first "(" this far or further
# past its start
_PIECE = 1024
# an error quotes at most this many characters of a token
_SHOWN = 40


def from_sexp(text: str) -> Formula:
    """Read a formula that `to_sexp` wrote, shared or expanded, in one
    shift-reduce pass over its tokens that keeps no list of them. The text
    is read in pieces, each ending just before the first ``(`` at least
    `_PIECE` characters past its start, so that no token spans a cut, and
    a piece's tokens are its runs between brackets and whitespace.

    ``(`` pushes a list that starts with the token after it, whatever that
    is: a form's head, or a binding's name when the innermost list is a
    let's binding list. Directly under ``D`` it pushes the D group, which
    reduces to its agent set, read once per spelling, and directly under
    ``let`` the binding list, with a scope that closes with the let. Other
    tokens are appended to the innermost list, and ``)`` pops it and
    reduces it through the node builders into its parent. Where a form
    lacks its one subformula any token is a name, ``)`` too, looked up when
    its list reduces. Other texts raise `UsageError`.

    If the text holds a quote, a copy with each string token swapped for a
    placeholder that no bare token can spell is read instead. Otherwise the
    reader's memory follows the widest form, one piece and the bound names,
    not the length of the text."""
    spelled: list[str] = []
    if '"' in text:
        text = _lift_strings(text, spelled)
    env: dict[str, Formula] = {}
    scopes: list[dict[str, Formula]] = []
    groups: dict[tuple, frozenset] = {}
    agents: dict[str, int] = {}
    cur = root = [_ROOT]
    stack = [root]
    raw = False  # the next token goes into the innermost list as it is
    find, end, pos = text.find, len(text), 0
    try:  # a name is looked up as env[name]: a KeyError is an unbound name
        while pos < end:
            cut = find("(", pos + _PIECE)
            if cut < 0:
                cut = end
            for tok in text[pos:cut].replace("(", " ( ").replace(")", " ) ").split():
                if raw:
                    cur.append(tok)
                    raw = False
                elif tok == "(":
                    head = cur[0]
                    if head == _BINDINGS:
                        cur = [_BINDING]
                        raw = True
                    elif len(cur) > 1 or head != D and head != "let":
                        cur = []
                        raw = True
                    elif head == D:
                        cur = [_GROUP]
                    else:
                        cur = [_BINDINGS]
                        scopes.append(env)
                        env = dict(env)
                    stack.append(cur)
                elif tok != ")":
                    cur.append(tok)
                else:
                    n = len(cur)
                    head = cur[0]
                    if _ONE_CHILD_AT.get(head) == n:
                        cur.append(tok)
                        continue
                    stack.pop()
                    if head == OR or head == AND:
                        node = _junction(OR if head == OR else AND,
                                         [p if type(p) is Formula else env[p] for p in cur[1:]])
                    elif head == K and n == 3:
                        a = agents.get(cur[1])
                        if a is None:
                            a = agents[cur[1]] = _scalar(cur[1], spelled)
                            _check_agent(a, K)
                        f = cur[2]
                        node = _intern(K, a, (f if type(f) is Formula else env[f],))
                    elif head == _GROUP:
                        key = tuple(cur)
                        node = groups.get(key)
                        if node is None:
                            node = groups[key] = frozenset(
                                _scalar(t, spelled) for t in cur[1:])
                            for a in node:
                                _check_agent(a, D)
                    elif head == D and n == 3 and type(cur[1]) is frozenset:
                        f = cur[2]
                        node = _intern(D, cur[1], (f if type(f) is Formula else env[f],))
                    elif head == _BINDING and n == 3:
                        f = cur[2]
                        env[cur[1]] = f if type(f) is Formula else env[f]
                        cur = stack[-1]
                        continue
                    elif head == NOT and n == 2:
                        f = cur[1]
                        node = _intern(NOT, None, (f if type(f) is Formula else env[f],))
                    elif head == ATOM and n == 3:
                        node = atom(_scalar(cur[1], spelled), _scalar(cur[2], spelled, True))
                    elif head == _BINDINGS and n == 1:
                        node = _BINDINGS
                    elif head == "let" and n == 3 and cur[1] == _BINDINGS:
                        f = cur[2]
                        node = f if type(f) is Formula else env[f]
                        env = scopes.pop()
                    elif head == _ROOT:
                        raise UsageError("trailing tokens after formula")
                    else:
                        raise UsageError("unknown or malformed form "
                                         f"({_shown(head, spelled, quote=False)} ...) in formula")
                    cur = stack[-1]
                    cur.append(node)
            pos = cut
        if len(stack) > 1:
            raise UsageError("unexpected end of formula")
        if len(root) == 1:
            raise UsageError("empty formula")
        if len(root) > 2:
            raise UsageError("trailing tokens after formula")
        f = root[1]
        return f if type(f) is Formula else env[f]
    except KeyError as e:
        raise UsageError(f"unbound name {_shown(e.args[0], spelled)} in formula") from None


def _shown(tok, spelled: Sequence[str] = (), quote: bool = True) -> str:
    """``tok`` as the text spelled it, a string placeholder into ``spelled``
    swapped back, in ASCII and quoted unless not ``quote``, or any other
    value (a node read in a token's place, an agent, an atom's payload) as
    its repr; a longer one than `_SHOWN` characters as its first ones and
    its length."""
    if type(tok) is not str:
        tok, quote = repr(tok), False
    elif spelled and tok[:1] == '"':
        tok = spelled[int(tok[1:])]
    shown = ascii(tok[:_SHOWN])
    if not quote:
        shown = shown[1:-1]
    return shown if len(tok) <= _SHOWN else f"{shown}... ({len(tok)} characters)"


def _scalar(tok, spelled: list[str], value: bool = False):
    """The int ``tok`` spells; for an atom's ``value`` also a JSON string,
    which the text has as a placeholder into ``spelled``."""
    if spelled and type(tok) is str and tok[:1] == '"':
        if value:
            try:
                return json.loads(spelled[int(tok[1:])])
            except ValueError:
                pass
    else:
        try:
            return int(tok)
        except (TypeError, ValueError):
            pass
    what = "an int or a string" if value else "an int"
    raise UsageError(f"expected {what}, got {_shown(tok, spelled)}")
