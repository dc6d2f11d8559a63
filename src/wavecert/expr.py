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
"""

import builtins
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property

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
    """Abstract syntax tree node; immutable and safe to share across threads."""


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
)
_VAR_RE = re.compile(r"^x(\d+)$")


class _Parser:
    def __init__(self, text: str, dim: int):
        self.dim = dim
        self.tokens = []  # (kind, value, offset)
        pos = 0
        n = len(text)
        while pos < n:
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", n))
        self.i = 0

    def _peek(self):
        return self.tokens[self.i]

    def _next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        kind, value, offset = self._next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value!r}", offset)

    def parse(self) -> Expression:
        e = self.expr()
        kind, value, offset = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in "+-":
                self._next()
                e = BinOp(value, e, self.term())
            else:
                return e

    def term(self) -> Expression:
        e = self.factor()
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in "*/":
                self._next()
                e = BinOp(value, e, self.factor())
            else:
                return e

    def factor(self) -> Expression:
        base = self.unary()
        kind, value, offset = self._peek()
        if kind == "op" and value == "^":
            self._next()
            exponent = self.unary()
            return _make_power(base, exponent)
        return base

    def unary(self) -> Expression:
        kind, value, _ = self._peek()
        if kind == "op" and value == "-":
            self._next()
            return Neg(self.unary())
        return self.atom()

    def atom(self) -> Expression:
        kind, value, offset = self._next()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            peek_kind, peek_value, _ = self._peek()
            if peek_kind == "op" and peek_value == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function name {value!r}", offset)
                self._next()
                arg = self.expr()
                self._expect_op(")")
                return Call(value, arg)
            m = _VAR_RE.match(value)
            if m:
                index = int(m.group(1))
                if index < 1:
                    raise ParseError("variable index must be >= 1", offset)
                if index > self.dim:
                    raise ParseError(
                        f"variable x{index} exceeds dimension {self.dim}", offset
                    )
                return Var(index)
            return Const(value)
        if kind == "op" and value == "(":
            e = self.expr()
            self._expect_op(")")
            return e
        raise ParseError(f"unexpected token {value!r}", offset)


def _integer_literal(e: Expression):
    """Return the int value of a (possibly negated) integral literal, else None."""
    if isinstance(e, Num) and float(e.value).is_integer() and abs(e.value) < 2**31:
        return int(e.value)
    if isinstance(e, Neg):
        inner = _integer_literal(e.arg)
        if inner is not None:
            return -inner
    return None


def _make_power(base: Expression, exponent: Expression) -> Expression:
    k = _integer_literal(exponent)
    if k is not None:
        return Pow(base, k)
    return Call("exp", BinOp("*", exponent, Call("log", base)))


def parse(text: str, dim: int) -> Expression:
    """Parse ``text`` into an expression over at most ``dim`` variables."""
    if dim < 1:
        raise ParseError("dimension must be >= 1", 0)
    return _Parser(text, dim).parse()


# ---------------------------------------------------------------------------
# rendering (inverse of parse up to structural equality)


def _fmt_num(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def render(e: Expression) -> str:
    """Render ``e`` as text that reparses to a structurally equal tree.

    One loop over a stack of text pieces and (node, level) pairs, the levels
    being the grammar's sum, product, power, negation and atom: a node that
    does not fit its level drops to the next, and a compound atom is
    parenthesized.  No depth of tree recurses."""
    out, stack = [], [(e, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        e, level = item
        if level == 0 and isinstance(e, BinOp) and e.op in "+-":
            parts = [(e.left, 0), f" {e.op} ", (e.right, 1)]
        elif level == 1 and isinstance(e, BinOp) and e.op in "*/":
            parts = [(e.left, 1), e.op, (e.right, 2)]
        elif level == 2 and isinstance(e, Pow):
            parts = [(e.base, 3), f"^{e.exponent}"]
        elif level == 3 and isinstance(e, Neg):
            parts = ["-", (e.arg, 3)]
        elif level < 4:
            parts = [(e, level + 1)]
        elif isinstance(e, Num):
            parts = [_fmt_num(e.value)]
        elif isinstance(e, Var):
            parts = [f"x{e.index}"]
        elif isinstance(e, Const):
            parts = [e.name]
        elif isinstance(e, Call):
            parts = [f"{e.func}(", (e.arg, 0), ")"]
        else:
            parts = ["(", (e, 0), ")"]
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


def call(func: str, arg: Expression) -> Expression:
    v = _lit(arg)
    if v is not None:
        if func == "exp" and v <= _EXP_MAX_ARG:
            return _num(math.exp(v))
        if func == "log" and v > 0.0:
            return _num(math.log(v))
        if func == "sqrt" and v > 0.0:
            return _num(math.sqrt(v))
        if func == "sin":
            return _num(math.sin(v))
        if func == "cos":
            return _num(math.cos(v))
    return Call(func, arg)


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
    return _d(e, var_index, {})


def _d(e: Expression, k: int, done: dict) -> Expression:
    """The derivative of ``e``; ``done`` maps the id of each binary node
    already differentiated to its derivative, so a subtree shared along a
    chain (a product's partial products in its derivative) is walked once."""
    if id(e) in done:
        return done[id(e)]
    t = type(e)
    if t is Num or t is Const:
        return Num(0.0)
    if t is Var:
        return Num(1.0) if e.index == k else Num(0.0)
    if t is Neg:
        return neg(_d(e.arg, k, done))
    if t is BinOp:  # the left spine in a loop, as long as a sum or product is
        spine = []
        while type(e) is BinOp and id(e) not in done:
            spine.append(e)
            e = e.left
        d = _d(e, k, done)
        for e in reversed(spine):  # d is the derivative of e.left
            dr = _d(e.right, k, done)
            if e.op in "+-":
                d = (add if e.op == "+" else sub)(d, dr)
            elif e.op == "*":
                d = add(mul(d, e.right), mul(e.left, dr))
            else:  # quotient rule; the folded numerator keeps literal zeros out
                d = div(sub(mul(d, e.right), mul(e.left, dr)), powi(e.right, 2))
            done[id(e)] = d
        return d
    if t is Pow:
        n = e.exponent
        if n == 0:
            return Num(0.0)
        return mul(mul(_num(float(n)), powi(e.base, n - 1)), _d(e.base, k, done))
    if t is Call:
        da = _d(e.arg, k, done)
        if e.func == "exp":
            return mul(da, e)
        if e.func == "log":
            return div(da, e.arg)
        if e.func == "sqrt":
            return div(da, mul(Num(2.0), e))
        if e.func == "sin":
            return mul(da, call("cos", e.arg))
        if e.func == "cos":
            return neg(mul(da, call("sin", e.arg)))
    raise TypeError(f"cannot differentiate node {e!r}")


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
    seen = {}  # id(node) -> slot; every node stays alive in ``flat``
    code, literals = [], []

    def node(key, literal=None):
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(slots)
            if literal is not None:
                literals.append((slot, np.float64(literal)))
            else:
                code.append((key[0], slot, key[1], key[2] if len(key) > 2 else None))
        return slot

    def visit(e):
        slot = seen.get(id(e))
        if slot is None:
            t = type(e)
            if t is Num:
                slot = node(("num", float(e.value).hex()), e.value)
            elif t is Var:
                slot = node(("var", e.index - 1))
            elif t is Const:
                slot = node(("const", e.name))
            elif t is Neg and type(e.arg) is Num:  # a negative literal, exactly
                v = -e.arg.value
                slot = node(("num", float(v).hex()), v)
            elif t is Neg:
                slot = node(("neg", visit(e.arg)))
            elif t is BinOp:  # the left spine in a loop, as long as a sum or product is
                spine = []
                while type(e) is BinOp and id(e) not in seen:
                    spine.append(e)
                    e = e.left
                slot = visit(e)
                for e in reversed(spine):
                    slot = seen[id(e)] = node((e.op, slot, visit(e.right)))
            elif t is Pow:
                k = float(e.exponent)
                op = "^" if k >= 0 else "^-"
                slot = node((op, visit(e.base), node(("num", k.hex()), k)))
            elif t is Call:
                slot = node((e.func, visit(e.arg)))
            else:
                raise TypeError(f"cannot evaluate node {e!r}")
            seen[id(e)] = slot
        return slot

    outputs, ends = [], []
    for e in flat:
        outputs.append(visit(e))
        ends.append(len(code))
    del visit  # it refers to itself
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
