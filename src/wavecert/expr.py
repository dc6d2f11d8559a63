"""Closed-form scalar expressions: parsing, evaluation, exact differentiation.

Every derivative in the toolkit is produced symbolically by
:func:`differentiate`, never by finite differences, so positivity margins
downstream are not polluted by truncation error.  Expressions are immutable
trees over numeric literals, variables ``x1..xn``, named constants, the
binary operators ``+ - * / ^``, unary negation, and the functions
``exp log sin cos sqrt``.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)* ;
    term   := factor (('*'|'/') factor)* ;
    factor := unary ('^' unary)? ;
    unary  := '-' unary | atom ;
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')' ;

An ``IDENT`` followed by ``(`` must be one of the five function names;
otherwise ``x<digits>`` is a variable and anything else a named constant.
``^`` with an integer-literal exponent stays a power node; any other
exponent is rewritten to ``exp(e*log(b))`` at parse time so differentiation
is total on the whole tree.

:func:`compile` hash-conses one or more trees into a tape that evaluates each
structurally distinct node once over a whole batch of points; :func:`evaluate`
runs a one-expression tape, a single point being a batch of one row.  For
callers of many small batches, :attr:`Tape.kernel` is the same tape as one
generated straight-line function.

No code path recurses, so text and trees of any depth are taken.  Text is
parsed in one loop over its tokens.  :func:`parse`, :func:`differentiate`,
:func:`compile` and :func:`render` share one post-order loop over a tree,
which raises one TypeError for a node type, operator, function, variable
index, power exponent, literal or constant name outside the grammar;
:func:`render` reads each node's own level in the grammar.
"""

import builtins
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .errors import (
    DomainError,
    EvaluationError,
    ExpOverflowError,
    ParseError,
    UnboundConstantError,
)

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")

# exp() results are monitored against this bound; anything above is treated
# as an overflow rather than silently saturating toward inf.
EXP_LIMIT = 1e300
_EXP_MAX_ARG = math.log(EXP_LIMIT)


@dataclass(frozen=True, slots=True)
class Expression:
    """Abstract syntax tree node; immutable, so subtrees may be shared."""


@dataclass(frozen=True, slots=True)
class Num(Expression):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expression):
    index: int  # 1-based


@dataclass(frozen=True, slots=True)
class Const(Expression):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True, slots=True)
class BinOp(Expression):
    op: str  # one of + - * /
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Pow(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True, slots=True)
class Call(Expression):
    func: str
    arg: Expression


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<space>\s+)"
    r"|(?P<bad>.)"  # a newline is whitespace, so this is any other character
)
_VAR_RE = re.compile(r"^x(\d+)$")
_CONST_RE = re.compile(r"(?!x\d+$)[A-Za-z_][A-Za-z0-9_]*")  # an identifier, not a variable
_PRECEDENCE = {"+": 0, "-": 0, "*": 1, "/": 1, "^": 2}


def _parse_text(text: str, dim: int) -> Expression:
    """The tree of ``text`` by the grammar above, in one loop over its
    tokens (operator precedence, Dijkstra's shunting-yard): ``out`` holds
    finished operands, ``ops`` the binary operators not yet applied and,
    below them, each open ``(`` or ``f(`` with the negations before it.
    Negations apply as soon as their operand is finished, so they bind
    before ``^``, and a ``^`` over a finished exponent ends the expression
    as the grammar's one optional ``^`` does.  All of the text is tokenized
    before any syntax error is raised."""
    tokens = []  # (kind, value, offset)
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup != "space":
            tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    out, ops, negations, operand, i = [], [], 0, True, 0
    while True:
        kind, value, offset = tokens[i]
        i += 1
        if operand:  # a unary: '-'s, then an atom
            if value == "-":
                negations += 1
                continue
            if value == "(" or kind == "ident" and tokens[i][1] == "(":
                if value != "(":  # a function's name, and its '(' next
                    if value not in FUNCTIONS:
                        raise ParseError(f"unknown function name {value!r}", offset)
                    i += 1
                ops.append((value, negations))
                negations = 0
                continue
            if kind == "num":
                e = Num(float(value))
            elif kind == "ident":
                m = _VAR_RE.match(value)
                e = _variable(int(m.group(1)), dim, offset) if m else Const(value)
            else:
                raise ParseError(f"unexpected token {value!r}", offset)
        else:  # after an operand: an operator, else the end of a context
            level = -1 if value == "^" and ops[-1:] == ["^"] else _PRECEDENCE.get(value, -1)
            while ops and type(ops[-1]) is str and _PRECEDENCE[ops[-1]] >= level:
                op, right = ops.pop(), out.pop()
                left = out.pop()
                out.append(_make_power(left, right) if op == "^" else BinOp(op, left, right))
            if level >= 0:
                ops.append(value)
                operand = True
                continue
            if not ops:
                if kind != "end":
                    raise ParseError(f"unexpected trailing input {value!r}", offset)
                return out.pop()
            if value != ")":
                raise ParseError(f"expected ')', found {value!r}", offset)
            opened, negations = ops.pop()
            e = out.pop() if opened == "(" else Call(opened, out.pop())
        for _ in range(negations):
            e = Neg(e)
        out.append(e)
        negations, operand = 0, False


def _variable(index: int, dim: int, offset: int) -> Var:
    """``Var(index)``, or the ParseError at ``offset`` for an index outside 1..dim."""
    if index < 1:
        raise ParseError("variable index must be >= 1", offset)
    if index > dim:
        raise ParseError(f"variable x{index} exceeds dimension {dim}", offset)
    return Var(index)


def _integer_literal(e: Expression):
    """Return the int value of a (possibly negated) integral literal, else None."""
    sign = 1
    while isinstance(e, Neg):
        sign, e = -sign, e.arg
    if isinstance(e, Num) and float(e.value).is_integer() and abs(e.value) < 2**31:
        return sign * int(e.value)
    return None


def _make_power(base: Expression, exponent: Expression) -> Expression:
    k = _integer_literal(exponent)
    if k is not None:
        return Pow(base, k)
    return Call("exp", BinOp("*", exponent, Call("log", base)))


_WALKED = object()  # marks a node on the walk's stack whose operands are done
_BINOPS = ("+", "-", "*", "/")
_FIELDS = {BinOp: "op", Call: "func", Pow: "exponent", Var: "index", Num: "value", Const: "name"}


def _integer(v) -> bool:  # numpy integers pass; an int skips the slow ABC check
    return type(v) is int or isinstance(v, Integral) and type(v) is not bool


def _walk(root: Expression, seen: set) -> list:
    """Each node of ``root`` whose id is not in ``seen``, once, after its
    operands, left before right; a negated literal is a leaf.  The ids walked
    join ``seen``.  A node outside the grammar is a TypeError, raised before
    any node is returned.  One loop, so no depth of tree recurses."""
    order, stack = [], [root]
    while stack:
        e = stack.pop()
        if e is _WALKED:  # the node under the mark has its operands walked
            e = stack.pop()
        elif id(e) in seen:
            continue
        else:
            t = type(e)
            if t is BinOp and e.op in _BINOPS:
                stack += (e, _WALKED, e.right, e.left)
                continue
            if (t is Pow and _integer(e.exponent) or t is Neg and type(e.arg) is not Num
                    or t is Call and e.func in FUNCTIONS):
                stack += (e, _WALKED, e.base if t is Pow else e.arg)
                continue
            leaf = e.arg if t is Neg else e  # a negated literal is checked as its Num
            t = type(leaf)
            if not (t is Num and (type(leaf.value) is float or isinstance(leaf.value, Real))
                    or t is Var and _integer(leaf.index) or t is Const and isinstance(leaf.name, str) and _CONST_RE.fullmatch(leaf.name)):
                field = _FIELDS.get(t)
                what = f" with {field} {getattr(leaf, field)!r}" if field else ""
                raise TypeError(f"{t.__name__}{what} is not an expression node")
        seen.add(id(e))
        order.append(e)
    return order


def parse(source, dim: int) -> Expression:
    """An expression over at most ``dim`` variables from ``source``: text is
    parsed, a tree checked and returned as it is, else TypeError is raised."""
    if isinstance(source, Expression):
        for e in _walk(source, set()):
            if type(e) is Var:
                _variable(e.index, dim, 0)
        return source
    if not isinstance(source, str):
        raise TypeError(f"{source!r} is neither expression text nor an expression")
    if dim < 1:
        raise ParseError("dimension must be >= 1", 0)
    return _parse_text(source, dim)


# ---------------------------------------------------------------------------
# rendering (inverse of parse up to structural equality)


def _fmt_num(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def render(e: Expression) -> str:
    """Render ``e`` as text that reparses to a structurally equal tree.

    After the walk checks the grammar, one loop over a stack of text pieces
    and (node, level asked) pairs: a node's own level is sum 0, product 1,
    power 2, negation 3 or atom 4, and a node below the level asked of it is
    parenthesized.  No depth of tree recurses."""
    _walk(e, set())
    out, stack = [], [(e, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        e, asked = item
        t = type(e)
        if t is BinOp and e.op in "+-":
            level, parts = 0, [(e.left, 0), f" {e.op} ", (e.right, 1)]
        elif t is BinOp:
            level, parts = 1, [(e.left, 1), e.op, (e.right, 2)]
        elif t is Pow:
            level, parts = 2, [(e.base, 3), f"^{e.exponent}"]
        elif t is Neg:
            level, parts = 3, ["-", (e.arg, 3)]
        elif t is Call:
            level, parts = 4, [f"{e.func}(", (e.arg, 0), ")"]
        else:  # a literal, a variable or a named constant
            text = _fmt_num(e.value) if t is Num else f"x{e.index}" if t is Var else e.name
            level, parts = 4, [text]
        if level < asked:
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(out)


# ---------------------------------------------------------------------------
# constant-folding constructors (used by differentiate; no general rewriting)


def _num(v: float) -> Expression:
    if v == 0.0:
        return Num(0.0)
    if v < 0.0:
        return Neg(Num(-v))
    return Num(v)


def _lit(e: Expression):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg) and isinstance(e.arg, Num):
        return -e.arg.value
    return None


def add(l: Expression, r: Expression) -> Expression:
    lv, rv = _lit(l), _lit(r)
    if lv is not None and rv is not None and math.isfinite(lv + rv):
        return _num(lv + rv)
    if lv == 0.0:
        return r
    if rv == 0.0:
        return l
    return BinOp("+", l, r)


def sub(l: Expression, r: Expression) -> Expression:
    lv, rv = _lit(l), _lit(r)
    if lv is not None and rv is not None and math.isfinite(lv - rv):
        return _num(lv - rv)
    if rv == 0.0:
        return l
    if lv == 0.0:
        return neg(r)
    return BinOp("-", l, r)


def mul(l: Expression, r: Expression) -> Expression:
    lv, rv = _lit(l), _lit(r)
    if lv is not None and rv is not None and math.isfinite(lv * rv):
        return _num(lv * rv)
    if lv == 0.0 or rv == 0.0:
        return Num(0.0)
    if lv == 1.0:
        return r
    if rv == 1.0:
        return l
    if lv == -1.0:
        return neg(r)
    if rv == -1.0:
        return neg(l)
    return BinOp("*", l, r)


def div(l: Expression, r: Expression) -> Expression:
    lv, rv = _lit(l), _lit(r)
    if rv is not None and rv != 0.0:
        if lv is not None and math.isfinite(lv / rv):
            return _num(lv / rv)
        if rv == 1.0:
            return l
    if lv == 0.0:
        return Num(0.0)
    return BinOp("/", l, r)


def neg(e: Expression) -> Expression:
    if isinstance(e, Neg):
        return e.arg
    v = _lit(e)
    if v is not None:
        return _num(-v)
    return Neg(e)


def powi(base: Expression, exponent: int) -> Expression:
    if exponent == 1:
        return base
    if exponent == 0:
        return Num(1.0)
    v = _lit(base)
    if v is not None and (exponent > 0 or v != 0.0):
        try:
            folded = float(v) ** exponent
        except OverflowError:  # kept unfolded, as a non-finite result is
            return Pow(base, exponent)
        if math.isfinite(folded):
            return _num(folded)
    return Pow(base, exponent)


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e: Expression, var_index: int) -> Expression:
    """Exact partial derivative of ``e`` with respect to ``x<var_index>``.

    The result is constant-folded: subtrees made of literals collapse and
    additive/multiplicative identities with literal 0/1 are eliminated.  No
    other simplification is performed.
    """
    if var_index < 1:
        raise ValueError("variable index must be >= 1")
    d = {}  # id(node) -> its derivative
    for node in _walk(e, set()):
        t = type(node)
        if t is Const or _lit(node) is not None:
            dn = Num(0.0)
        elif t is Var:
            dn = Num(1.0) if node.index == var_index else Num(0.0)
        elif t is Neg:
            dn = neg(d[id(node.arg)])
        elif t is BinOp and node.op in "+-":
            dn = (add if node.op == "+" else sub)(d[id(node.left)], d[id(node.right)])
        elif t is BinOp and node.op == "*":
            dn = add(mul(d[id(node.left)], node.right), mul(node.left, d[id(node.right)]))
        elif t is BinOp:  # quotient rule; the folded numerator keeps literal zeros out
            dl, dr = d[id(node.left)], d[id(node.right)]
            dn = div(sub(mul(dl, node.right), mul(node.left, dr)), powi(node.right, 2))
        elif t is Pow and node.exponent == 0:
            dn = Num(0.0)
        elif t is Pow:
            n = node.exponent
            dn = mul(mul(_num(float(n)), powi(node.base, n - 1)), d[id(node.base)])
        elif t is Call and node.func == "exp":
            dn = mul(d[id(node.arg)], node)
        elif t is Call and node.func == "log":
            dn = div(d[id(node.arg)], node.arg)
        elif t is Call and node.func == "sqrt":
            dn = div(d[id(node.arg)], mul(Num(2.0), node))
        elif t is Call and node.func == "sin":
            dn = mul(d[id(node.arg)], Call("cos", node.arg))
        else:  # cos, the one node left in the grammar
            dn = neg(mul(d[id(node.arg)], Call("sin", node.arg)))
        d[id(node)] = dn
    return d[id(e)]


# ---------------------------------------------------------------------------
# evaluation: expressions compile into one shared tape


def _first_bad_point(mask, pts):
    mask = np.asarray(mask)
    if mask.ndim == 0:
        return pts[0] if len(pts) else None
    return pts[int(np.argmax(mask))]


# op -> (function, guard); a guard is (test for a bad argument, error, message)
_OPS = {
    "+": (operator.add, None),
    "-": (operator.sub, None),
    "*": (operator.mul, None),
    "^": (operator.pow, None),
    "neg": (operator.neg, None),
    "sin": (np.sin, None),
    "cos": (np.cos, None),
    "/": (operator.truediv, (lambda l, r: r == 0.0, DomainError, "division by zero")),
    "^-": (operator.pow, (lambda b, k: b == 0.0, DomainError, "zero raised to a negative power")),
    "exp": (np.exp, (lambda a: a > _EXP_MAX_ARG, ExpOverflowError, "exponential exceeds 1e300")),
    "log": (np.log, (lambda a: a <= 0.0, DomainError, "log of non-positive value")),
    "sqrt": (np.sqrt, (lambda a: a <= 0.0, DomainError, "sqrt of non-positive value")),
}


@dataclass(frozen=True)
class Tape:
    """Expressions compiled by :func:`compile` into one instruction per
    structurally unique node; literals are scalar slots, not instructions."""

    code: tuple  # (op, function, guard, slot, a, b, slots freed after it)
    literals: tuple  # (slot, value)
    outputs: tuple  # result slot of each expression
    ends: tuple  # instructions run once each expression is complete
    shape: tuple  # shape of the results at one point
    size: int  # unique nodes, literals included

    def __call__(self, points, consts=None) -> np.ndarray:
        """Evaluate at one point ``(n,)`` or a batch ``(m, n)``; the result
        has shape ``points.shape[:-1] + shape``, a batch's with the batch axis
        innermost in memory, so a later elementwise pass is one long loop.
        Errors are those of :func:`evaluate`, raised where evaluating the
        expressions one after another, each depth first, would first fail.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim not in (1, 2):
            raise EvaluationError("point must have shape (n,) or (m, n)")
        batch = pts if pts.ndim == 2 else pts[None, :]
        out = self._run(batch, consts or {}).reshape((batch.shape[0],) + self.shape)
        return out if pts.ndim == 2 else out[0]

    def _run(self, pts, consts):
        vals = [None] * self.size
        for slot, value in self.literals:
            vals[slot] = value
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (op, fn, guard, dst, a, b, free) in enumerate(self.code):
                if fn is not None:
                    args = (vals[a],) if b is None else (vals[a], vals[b])
                    if guard is not None:
                        bad = guard[0](*args)
                        if bad.any():
                            raise self._fail(i, vals, pts, guard[1], guard[2], bad)
                    vals[dst] = fn(*args)
                elif op == "var":
                    if a >= pts.shape[1]:
                        message = f"variable x{a + 1} exceeds point dimension {pts.shape[1]}"
                        raise self._fail(i, vals, pts, EvaluationError, message)
                    vals[dst] = pts[:, a]
                elif a in consts:
                    vals[dst] = np.float64(consts[a])
                else:
                    raise self._fail(i, vals, pts, UnboundConstantError, f"unbound constant {a!r}")
                for slot in free:
                    vals[slot] = None
        out = np.empty((len(self.outputs), pts.shape[0])).T  # the batch axis innermost
        for col, slot in enumerate(self.outputs):
            out[:, col] = vals[slot]
        if not np.isfinite(out).all():
            raise self._fail(len(self.code), vals, pts, DomainError, "non-finite result")
        return out

    @cached_property
    def kernel(self):
        """The tape as one straight-line function ``kernel(pts, consts, out)``
        of a batch ``pts`` (m, n): it writes the flat results into the
        columns of ``out`` (m, outputs) and returns ``out``, or returns None
        where :meth:`_run` would raise before its finiteness check.

        Each line calls the tape's own function, guard or literal, in tape
        order, so every value is bitwise the interpreter's.  A literal is
        bound as a 0-d array, which numpy combines with a batch faster than
        a scalar, except in a power, where the tape's scalar keeps
        ``ndarray.__pow__`` on its fast path; a guard is tested by
        ``np.count_nonzero``, cheaper than ``.any()``.  The kernel enters no
        ``errstate`` and leaves the finiteness of the results to the caller,
        who replays a failed batch through the tape for its error.  Built on
        first use: compiling the source costs about ten interpreted calls,
        which only a caller of many small batches earns back.
        """
        names = {"_f64": np.float64, "_nonzero": np.count_nonzero}
        literals = dict(self.literals)
        names.update((f"s{slot}", np.array(value)) for slot, value in literals.items())
        names.update((f"p{slot}", value) for slot, value in literals.items())
        width = max((a + 1 for op, _, _, _, a, _, _ in self.code if op == "var"), default=0)
        lines = ["def kernel(pts, consts, out):", f"    if pts.shape[1] < {width}: return None"]
        for i, (op, fn, guard, dst, a, b, free) in enumerate(self.code):
            if fn is not None:
                kind = "p" if op in ("^", "^-") else "s"  # a power takes scalar literals
                operands = (a,) if b is None else (a, b)
                args = ", ".join(f"{kind if s in literals else 's'}{s}" for s in operands)
                names[f"f{i}"] = fn
                if guard is not None:
                    names[f"g{i}"] = guard[0]
                    lines.append(f"    if _nonzero(g{i}({args})): return None")
                lines.append(f"    s{dst} = f{i}({args})")
            elif op == "var":
                lines.append(f"    s{dst} = pts[:, {a}]")
            else:
                names[f"c{i}"] = a
                lines.append(f"    if c{i} not in consts: return None")
                lines.append(f"    s{dst} = _f64(consts[c{i}])")
            dead = [f"s{slot}" for slot in free if slot not in literals]
            if dead:
                lines.append(f"    del {', '.join(dead)}")
        lines += [f"    out[:, {col}] = s{slot}" for col, slot in enumerate(self.outputs)]
        lines.append("    return out")
        exec(builtins.compile("\n".join(lines), "<tape kernel>", "exec"), names)
        return names.pop("kernel")  # so the function and its globals form no cycle

    def _fail(self, done, vals, pts, error, message, bad=True):
        """The error to raise at instruction ``done``: a non-finite result of
        an expression finished before it comes first, else ``error`` at the
        first row where ``bad`` holds."""
        for slot, end in zip(self.outputs, self.ends):
            if end > done:
                break
            nonfinite = ~np.isfinite(vals[slot])
            if nonfinite.any():
                return DomainError("non-finite result", point=_first_bad_point(nonfinite, pts))
        return error(message, point=_first_bad_point(bad, pts))


def compile(exprs) -> Tape:
    """Hash-cons an expression, or a nested sequence of them, into a tape.

    Structurally equal subtrees, within one expression or across several,
    become one node, so a shared subterm is evaluated once per batch.  The
    negation of a literal is the literal of its exact negative.  Each
    intermediate is released after its last use.
    """
    table = np.array(exprs, dtype=object)  # nodes are not sequences, so they stay cells
    flat, shape = table.ravel().tolist(), table.shape
    slots = {}  # structural key -> slot
    slot_of = {}  # id(node) -> slot; every node stays alive in ``flat``
    seen, code, literals, outputs, ends = set(), [], [], [], []

    def node(key, literal=None):
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(slots)
            if literal is not None:
                literals.append((slot, np.float64(literal)))
            else:
                code.append((key[0], slot, key[1], key[2] if len(key) > 2 else None))
        return slot

    for root in flat:
        for e in _walk(root, seen):
            t = type(e)
            v = _lit(e)
            if v is not None:  # a literal, or exactly the negative of one
                slot = node(("num", float(v).hex()), v)
            elif t is Var:
                if e.index < 1:
                    raise EvaluationError(f"variable index must be >= 1, not {e.index}")
                slot = node(("var", e.index - 1))
            elif t is Const:
                slot = node(("const", e.name))
            elif t is Neg:
                slot = node(("neg", slot_of[id(e.arg)]))
            elif t is BinOp:
                slot = node((e.op, slot_of[id(e.left)], slot_of[id(e.right)]))
            elif t is Pow:
                k = float(e.exponent)
                op = "^" if k >= 0 else "^-"
                slot = node((op, slot_of[id(e.base)], node(("num", k.hex()), k)))
            else:  # a Call, the one node left in the grammar
                slot = node((e.func, slot_of[id(e.arg)]))
            slot_of[id(e)] = slot
        outputs.append(slot_of[id(root)])
        ends.append(len(code))
    last_use = {
        s: i for i, (op, _, a, b) in enumerate(code) if op not in ("var", "const") for s in (a, b)
    }
    frees = [[] for _ in code]
    for slot, i in last_use.items():
        if slot is not None and slot not in outputs:
            frees[i].append(slot)
    return Tape(
        code=tuple([  # a generator's tuple is resized, and freed ones pile up in a free list
            (op, *_OPS.get(op, (None, None)), slot, a, b, tuple(free))
            for (op, slot, a, b), free in zip(code, frees)
        ]),
        literals=tuple(literals),
        outputs=tuple(outputs),
        ends=tuple(ends),
        shape=shape,
        size=len(slots),
    )


def evaluate(e: Expression, point, consts=None):
    """Evaluate ``e`` at one point ``(x1..xn)`` or a batch of shape (m, n).

    Returns a float for a single point and an (m,) array for a batch; a
    single point is a batch of one row of :func:`compile`'s tape.  Raises
    :class:`DomainError` on log/sqrt of a non-positive value, division by
    zero, or a non-finite result, :class:`ExpOverflowError` for exponentials
    above 1e300, and :class:`UnboundConstantError` for missing constants; all
    carry the offending point.
    """
    values = compile(e)(point, consts)
    return float(values) if values.ndim == 0 else values
