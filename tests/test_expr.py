import random
import re
import sys
import zlib

import numpy as np
import pytest

from wavecert.coeff import build
from wavecert.condition import weight_function
from wavecert.curvature import curvature_closed_form_expression, gauss_curvature_expression
from wavecert.domain import region
from wavecert.errors import (
    DomainError,
    EvaluationError,
    ExpOverflowError,
    ParseError,
    UnboundConstantError,
)
from wavecert.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    Expression,
    Neg,
    Num,
    Pow,
    Var,
    add,
    compile,
    differentiate,
    div,
    mul,
    powi,
    sub,
    evaluate,
    parse,
    render,
)

# expressions exercised throughout the suite; dim, text, box for sampling,
# constants needed
CORPUS = [
    (2, "1 + x1^2 + x2^2", [(-1.4, 1.4), (-1.4, 1.4)], {}),
    (2, "exp(x1 + x2)", [(1.0, 3.0), (-1.0, 1.0)], {}),
    (2, "exp(x1^3 + x2^3)", [(1.0, 3.0), (1.0, 3.0)], {}),
    (2, "exp(mu1*x1)", [(0.5, 3.5), (-1.5, 1.5)], {"mu1": 0.5}),
    (2, "exp(-mu2*x1^2)", [(0.5, 3.5), (-1.5, 1.5)], {"mu2": 0.1}),
    (2, "(x1^2 + x2^2)/2", [(1.0, 3.0), (-1.0, 1.0)], {}),
    (2, "(x1 - 2)^2 + x2^2 - 1.5", [(0.8, 3.2), (-1.2, 1.2)], {}),
    (3, "x1*x2*x3 + sin(x1)*cos(x2) + sqrt(x3)", [(0.1, 2.0)] * 3, {}),
    (1, "log(1 + x1^2) + x1^-2", [(0.5, 2.0)], {}),
    (2, "2^x1 + x2^0.5", [(0.5, 2.0), (0.5, 2.0)], {}),
]


def central_diff(e, pt, k, consts, step=1e-6):
    lo = list(pt)
    hi = list(pt)
    lo[k - 1] -= step
    hi[k - 1] += step
    return (evaluate(e, hi, consts) - evaluate(e, lo, consts)) / (2 * step)


def interior_points(box, count, seed):
    rng = np.random.default_rng(seed)
    lows = np.array([b[0] for b in box])
    highs = np.array([b[1] for b in box])
    # stay away from the walls so finite differences never step out
    pad = 0.01 * (highs - lows)
    return rng.uniform(lows + pad, highs - pad, size=(count, len(box)))


def reference_parse(text, dim):
    """The grammar of the expr module's docstring by recursive descent, one
    function per rule, with the parser's messages and offsets.  It recurses
    once per nesting level, so it is given short texts only."""
    tokens, at = [], 0
    pattern = r"(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()])|(\s+)|(.)"
    for m in re.finditer(pattern, text):
        if m.lastindex == 5:
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if m.lastindex != 4:
            tokens.append((("num", "ident", "op")[m.lastindex - 1], m.group(), m.start()))
    tokens.append(("end", "", len(text)))

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def closed(e):
        _, value, offset = take()
        if value != ")":
            raise ParseError(f"expected ')', found {value!r}", offset)
        return e

    def chain(ops, operand):  # expr and term: operands folded to the left
        e = operand()
        while tokens[at][1] in ops:
            e = BinOp(take()[1], e, operand())
        return e

    def integer(e):
        if type(e) is Neg:
            k = integer(e.arg)
            return None if k is None else -k
        return int(e.value) if type(e) is Num and e.value.is_integer() and abs(e.value) < 2**31 else None

    def factor():
        base = unary()
        if tokens[at][1] != "^":
            return base
        take()
        exponent = unary()
        k = integer(exponent)
        return Call("exp", BinOp("*", exponent, Call("log", base))) if k is None else Pow(base, k)

    def unary():
        return Neg(take() and unary()) if tokens[at][1] == "-" else atom()

    def atom():
        kind, value, offset = take()
        if kind == "num":
            return Num(float(value))
        if kind == "ident" and tokens[at][1] == "(":
            if value not in FUNCTIONS:
                raise ParseError(f"unknown function name {value!r}", offset)
            take()
            return closed(Call(value, expr()))
        if kind == "ident" and re.fullmatch(r"x\d+", value):
            if int(value[1:]) < 1:
                raise ParseError("variable index must be >= 1", offset)
            if int(value[1:]) > dim:
                raise ParseError(f"variable x{int(value[1:])} exceeds dimension {dim}", offset)
            return Var(int(value[1:]))
        if kind == "ident":
            return Const(value)
        if value == "(":
            return closed(expr())
        raise ParseError(f"unexpected token {value!r}", offset)

    def expr():
        return chain(("+", "-"), lambda: chain(("*", "/"), factor))

    e = expr()
    _, value, offset = tokens[at]
    if value:
        raise ParseError(f"unexpected trailing input {value!r}", offset)
    return e


def short_texts(rng, count):
    """Short expression texts, valid and not: token soup, and grown
    expressions with a few characters inserted, dropped or doubled."""
    pieces = ["x1", "x2", "x3", "x0", "x01", "2", "3.5", "1e3", "0", "-", "+", "*", "/", "^",
              "(", ")", "sin", "exp(", "tan(", "mu", " ", "$", "2^-", "--", "x1^2^3", "\u00a0"]
    atoms = ["x1", "x2", "2", "0.5", "mu", "sin", "3"]
    exponents = ["2", "-2", "--3", "0.5", "(2)", "x1", "-(1)", "-2.5"]

    def grow(depth):
        pick = rng.randrange(6) if depth and rng.random() > 0.3 else -1
        if pick == 0:
            return grow(depth - 1) + rng.choice(["+", "-", "*", "/", " + ", "^"]) + grow(depth - 1)
        if pick in (1, 2, 3):
            inner = grow(depth - 1)
            return ("-" + inner, f"({inner})", f"{rng.choice(FUNCTIONS)}({inner})")[pick - 1]
        if pick == 4:
            return grow(depth - 1) + "^" + rng.choice(exponents)
        return rng.choice(atoms) if pick < 0 else grow(depth - 1)

    for _ in range(count):
        if rng.random() < 0.5:
            text = "".join(rng.choice(pieces) for _ in range(rng.randrange(13)))
        else:
            text = grow(rng.randrange(6))
            for _ in range(rng.randrange(3)):
                j = rng.randrange(len(text) + 1)
                text = rng.choice([text[:j] + rng.choice("-+*/^()x1 $") + text[j:],
                                   text[:j] + text[j + 1:], text[:j] + text[j:j + 1] + text[j:]])
        yield text


class TestParse:
    def test_example_coefficient(self):
        e = parse("1 + x1^2 + x2^2", dim=2)
        assert e == BinOp(
            "+", BinOp("+", Num(1.0), Pow(Var(1), 2)), Pow(Var(2), 2)
        )

    def test_single_variable(self):
        assert parse("x1", dim=2) == Var(1)

    def test_named_constant(self):
        e = parse("exp(mu1*x1)", dim=2)
        assert e == Call("exp", BinOp("*", Const("mu1"), Var(1)))

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse("1 + * 2", dim=1)
        assert err.value.offset == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("tan(x1)", dim=1)

    def test_variable_index_beyond_dim(self):
        with pytest.raises(ParseError, match="exceeds dimension"):
            parse("x3", dim=2)

    def test_variable_index_zero(self):
        with pytest.raises(ParseError):
            parse("x0", dim=2)

    @pytest.mark.parametrize("text,dim,message,offset", [
        ("x1 $ 2", 1, "unexpected character '$'", 3),
        ("exp(x1", 1, "expected ')', found ''", 6),
        ("x1 )", 1, "unexpected trailing input ')'", 3),
        ("x1^2^3", 1, "unexpected trailing input '^'", 4),
        ("tan(x1)", 1, "unknown function name 'tan'", 0),
        ("1 + * 2", 1, "unexpected token '*'", 4),
        ("", 1, "unexpected token ''", 0),
        ("x0", 2, "variable index must be >= 1", 0),
        ("x3", 2, "variable x3 exceeds dimension 2", 0),
        ("x1", 0, "dimension must be >= 1", 0),
        # a tab and a non-breaking space are whitespace, as str.isspace says
        ("2 +\t\u00a0x1 ^", 1, "unexpected token ''", 9),
    ])
    def test_every_parse_error_has_its_message_and_offset(self, text, dim, message, offset):
        with pytest.raises(ParseError) as err:
            parse(text, dim)
        assert (str(err.value), err.value.offset) == (f"{message} (offset {offset})", offset)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("x1 )", dim=1)

    def test_noninteger_exponent_rewritten(self):
        e = parse("x1^0.5", dim=1)
        assert e == Call("exp", BinOp("*", Num(0.5), Call("log", Var(1))))
        assert evaluate(e, (4.0,)) == pytest.approx(2.0)

    def test_negative_integer_exponent(self):
        e = parse("x1^-2", dim=1)
        assert e == Pow(Var(1), -2)
        assert evaluate(e, (2.0,)) == pytest.approx(0.25)

    def test_unary_minus_binds_inside_power(self):
        # grammar: factor := unary ('^' unary)?, so -x1^2 means (-x1)^2
        assert evaluate(parse("-x1^2", dim=1), (3.0,)) == pytest.approx(9.0)

    def test_matches_a_recursive_descent_reference(self):
        # the parser is one loop; on short generated and mutated texts it
        # gives the tree, or the message and offset, of the grammar read by
        # recursive descent
        def outcome(parser, text, dim):
            try:
                return parser(text, dim)
            except ParseError as exc:
                return str(exc), exc.offset

        rng, parsed = random.Random(1961), 0
        for text in short_texts(rng, 4000):
            dim = rng.randint(1, 3)
            want = outcome(reference_parse, text, dim)
            assert outcome(parse, text, dim) == want, (text, dim)
            parsed += isinstance(want, Expression)
        assert 800 < parsed < 3200  # both trees and errors are compared

    def test_text_nested_past_the_recursion_limit_parses(self):
        # one loop over the tokens, so no depth of text recurses; checked in
        # loops, as == on a tree recurses
        depth = 10 * sys.getrecursionlimit()
        text = "1 + 0*" + "(" * depth + "x1" + ")" * depth
        assert parse(text, 1) == BinOp("+", Num(1.0), BinOp("*", Num(0.0), Var(1)))
        with pytest.raises(ParseError) as err:
            parse(text[:-1], 1)
        end = len(text) - 1
        assert (str(err.value), err.value.offset) == (f"expected ')', found '' (offset {end})", end)
        for text, node in (("-" * depth + "x1", Neg), ("exp(" * depth + "x1" + ")" * depth, Call)):
            e, count = parse(text, 1), 0
            while type(e) is node:
                e, count = e.arg, count + 1
            assert (count, e) == (depth, Var(1))
        # a sign chain of any length in an exponent folds into the power
        assert parse("x1^" + "-" * depth + "2", 1) == Pow(Var(1), 2)
        assert parse("x1^" + "-" * (depth + 1) + "2", 1) == Pow(Var(1), -2)
        assert evaluate(parse("x1^" + "-" * (depth + 1) + "0.5", 1), (4.0,)) == 0.5

    def test_a_tree_is_returned_as_it_is(self):
        tree = parse("1 + x1", dim=1)
        assert parse(tree, dim=2) is tree

    def test_a_tree_has_its_variables_checked_as_text_does(self):
        with pytest.raises(ParseError, match=r"variable x3 exceeds dimension 2 \(offset 0\)"):
            build([parse("1 + x3^2", 3), "1"], diagonal=True)
        with pytest.raises(ParseError, match="variable index must be >= 1"):
            weight_function(BinOp("*", Var(0), Var(0)), 2)
        for source in ("x3 + x4", BinOp("+", Var(3), Var(4))):  # the first bad one is named
            with pytest.raises(ParseError, match="variable x3 exceeds dimension 2"):
                parse(source, 2)

    def test_a_tree_is_checked_once_per_shared_node_without_recursion(self):
        # 300 doublings share each half: 2^300 leaves, 301 distinct nodes;
        # and chains of negations, right operands and exponentials deeper
        # than the recursion limit.  parse, differentiate and compile each
        # walk a tree in one loop, a shared node once
        depth = 2 * sys.getrecursionlimit()
        shared, negations, rights, exps = Var(1), Var(1), Var(1), Var(1)
        for _ in range(300):
            shared = BinOp("+", shared, shared)
        for _ in range(depth):
            negations, rights = Neg(negations), BinOp("+", Var(1), rights)
            exps = Call("exp", exps)
        for tree in (shared, negations, rights, exps):
            assert parse(tree, 1) is tree
            with pytest.raises(ParseError, match="variable x2 exceeds dimension 1"):
                parse(BinOp("*", tree, Var(2)), 1)
        for tree, slope, size in ((shared, 2.0**300, 301), (negations, 1.0, depth + 1),
                                  (rights, depth + 1.0, depth + 1)):
            assert differentiate(tree, 1) == Num(slope)
            assert compile(tree).size == size
            assert compile([tree, differentiate(tree, 1)])((1.0,)).tolist() == [slope, slope]
        # the chain rule multiplies each exponential into the one below:
        # depth exponentials, x1 and depth - 1 products
        assert compile([exps, differentiate(exps, 1)]).size == 2 * depth
        # a field and a weight of such a tree build and evaluate
        field, point = build([negations, "1"], diagonal=True), np.array([3.0, 1.0])
        assert field.values(point).tolist() == [[3.0, 0.0], [0.0, 1.0]]
        assert field.partial_values(point)[0, 0].tolist() == [1.0, 0.0]
        grad, hess = weight_function(BinOp("*", negations, Var(2)), 2).derivatives(point)
        assert grad.tolist() == [1.0, 3.0] and hess.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize("source", [None, 1.5, b"x1", ["x1"]])
    def test_anything_else_is_a_type_error(self, source):
        with pytest.raises(TypeError, match="neither expression text nor an expression"):
            parse(source, dim=1)


class Foreign(Expression):
    """An expression node type that no part of the toolkit knows."""


@pytest.mark.parametrize("leaf,name", [
    (3.0, "float"),
    (Foreign(), "Foreign"),
    pytest.param(BinOp("%", Var(1), Var(2)), "BinOp with op '%'", id="modulo"),
    pytest.param(Call("tan", Var(1)), "Call with func 'tan'", id="tan"),
    pytest.param(Var(1.0), "Var with index 1.0", id="float-index"),
    pytest.param(Var(True), "Var with index True", id="bool-index"),
    pytest.param(Num("3"), "Num with value '3'", id="string-literal"),
    pytest.param(Neg(Num("3")), "Num with value '3'", id="negated-string-literal"),
    pytest.param(Const(3), "Const with name 3", id="integer-constant-name"),
    # a constant's name is an identifier that does not read as a variable
    pytest.param(Const("x1"), "Const with name 'x1'", id="variable-name"),
    pytest.param(Const("x01"), "Const with name 'x01'", id="padded-variable-name"),
    pytest.param(Const("x0"), "Const with name 'x0'", id="variable-zero-name"),
    pytest.param(Const("a b"), "Const with name 'a b'", id="spaced-name"),
    pytest.param(Const(""), "Const with name ''", id="empty-name"),
    pytest.param(Pow(Var(1), 0.5), "Pow with exponent 0.5", id="float-exponent"),
    pytest.param(Pow(Var(1), "2"), "Pow with exponent '2'", id="string-exponent"),
    pytest.param(Pow(Var(1), True), "Pow with exponent True", id="bool-exponent"),
])
def test_a_node_of_unknown_type_is_a_type_error(leaf, name):
    # the walk every entry point shares checks the grammar, so each names the
    # node alike; render must not parenthesize such a node back into itself,
    # which would never end, and compile must not read an unknown function
    # as a constant
    tree = BinOp("+", Var(1), leaf)
    entries = (
        lambda: parse(tree, 2),
        lambda: build([tree, "1"], diagonal=True),
        lambda: region(2, [(1, 3), (-1, 1)], [tree]),
        lambda: weight_function(tree, 2),
        lambda: differentiate(tree, 1),
        lambda: compile(tree),
        lambda: evaluate(tree, (1.0, 2.0)),
        lambda: render(tree),
    )
    for entry in entries:
        with pytest.raises(TypeError, match=f"^{re.escape(name)} is not an expression node$"):
            entry()


def test_a_numpy_integer_is_a_variable_index():
    tree = BinOp("*", Var(np.int64(1)), Pow(Var(np.int64(2)), np.int64(2)))
    assert parse(tree, 2) is tree
    assert evaluate(tree, (2.0, 3.0)) == 18.0
    assert differentiate(tree, 2) == BinOp("*", Var(1), BinOp("*", Num(2.0), Var(2)))
    assert render(tree) == "x1*x2^2"


# each builder of expressions, returning where it keeps the one it was given
BUILDERS = {
    "build": lambda e: build([e, "1"], diagonal=True).entries[0][0],
    "region": lambda e: region(2, [(1, 3), (-1, 1)], [e]).constraints[0],
    "weight_function": lambda e: weight_function(e, 2).expression,
    "closed_form": lambda e: curvature_closed_form_expression(e, "1"),
    "gauss": lambda e: gauss_curvature_expression("1", e),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_take_expressions_through_parse(name):
    # every builder hands its expressions to parse, which alone tells text
    # from a tree; a non-expression is rejected there, before any other use
    make = BUILDERS[name]
    tree = parse("2 + x1", dim=2)
    if name not in ("closed_form", "gauss"):
        assert make(tree) is tree
        assert make("2 + x1") == tree
    with pytest.raises(TypeError, match="neither expression text nor an expression"):
        make(2.0)


class TestRender:
    @pytest.mark.parametrize("dim,text,_box,_consts", CORPUS)
    def test_rendered_output_is_fixed_point(self, dim, text, _box, _consts):
        once = render(parse(text, dim))
        twice = render(parse(once, dim))
        assert once == twice

    @pytest.mark.parametrize("dim,text,_box,_consts", CORPUS)
    def test_reparse_is_structurally_equal(self, dim, text, _box, _consts):
        e = parse(text, dim)
        assert parse(render(e), dim) == e

    def test_derivative_trees_round_trip(self):
        for dim, text, _box, _consts in CORPUS:
            e = parse(text, dim)
            for k in range(1, dim + 1):
                d = differentiate(e, k)
                assert parse(render(d), dim) == d

    def test_negation_of_power_parenthesized(self):
        e = Neg(Pow(Var(1), 2))
        assert render(e) == "-(x1^2)"
        assert parse("-(x1^2)", 1) == e

    def test_long_product_derivative_renders_without_recursion(self):
        # each quotient factor's derivative puts a sum inside a product on
        # the left spine, so every factor nests one parenthesized level
        # deeper: 100 factors go past the recursion limit
        for count in (12, 100):
            d = differentiate(parse("*".join(["(x1 + 0.5)/x1"] * count), 2), 1)
            text = render(d)
            if count == 12:
                assert parse(text, 2) == d
        assert text.count("(") == text.count(")") > sys.getrecursionlimit()


def random_tree(rng, depth, dim=2, names=("mu1", "mu2", "kappa")):
    """Seeded random AST over the full node set, constants named from
    ``names``; literals stay nonnegative (the grammar spells negatives with
    unary minus)."""
    if depth == 0 or rng.random() < 0.25:
        pick = rng.integers(0, 3)
        if pick == 0:
            return Num(float(round(rng.uniform(0.0, 9.0), 3)))
        if pick == 1:
            return Var(int(rng.integers(1, dim + 1)))
        return Const(rng.choice(names))
    pick = rng.integers(0, 4)
    if pick == 0:
        op = rng.choice(["+", "-", "*", "/"])
        return BinOp(op, random_tree(rng, depth - 1, dim, names), random_tree(rng, depth - 1, dim, names))
    if pick == 1:
        return Neg(random_tree(rng, depth - 1, dim, names))
    if pick == 2:
        return Pow(random_tree(rng, depth - 1, dim, names), int(rng.integers(-3, 4)))
    func = rng.choice(["exp", "log", "sin", "cos", "sqrt"])
    return Call(func, random_tree(rng, depth - 1, dim, names))


class TestRenderProperty:
    def test_random_trees_round_trip_structurally(self):
        rng = np.random.default_rng(424242)
        for _ in range(300):
            tree = random_tree(rng, depth=int(rng.integers(1, 6)))
            text = render(tree)
            assert parse(text, 2) == tree, text

    def test_random_trees_with_any_constant_name_round_trip(self):
        # a constant may be named by any identifier that is not a variable,
        # a function's name included: with no '(' after it, it reads back as
        # the constant
        names = (*FUNCTIONS, "x", "X1", "x1a", "_1", "e", "lambda")
        rng = np.random.default_rng(1729)
        for _ in range(300):
            tree = random_tree(rng, depth=int(rng.integers(1, 6)), names=names)
            text = render(tree)
            assert parse(text, 2) == tree, text

    def test_random_derivative_trees_round_trip(self):
        rng = np.random.default_rng(31415)
        for _ in range(100):
            tree = random_tree(rng, depth=3)
            d = differentiate(tree, 1)
            assert parse(render(d), 2) == d


class TestEvaluate:
    def test_direct_arithmetic(self):
        assert evaluate(parse("1 + x1^2 + x2^2", 2), (1.0, 1.0)) == 3.0

    def test_error_keeps_its_reason_apart_from_the_point(self):
        with pytest.raises(DomainError) as err:
            evaluate(parse("log(x1)", 1), (0.0,))
        assert err.value.reason == "log of non-positive value"
        assert str(err.value) == "log of non-positive value at point (0.0,)"

    def test_exp_zero(self):
        assert evaluate(parse("exp(mu1*x1)", 2), (0.0, 0.0), {"mu1": 0.5}) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse("x1/x2", 2), (1.0, 0.0))

    def test_log_of_nonpositive(self):
        with pytest.raises(DomainError):
            evaluate(parse("log(x1)", 1), (-1.0,))

    def test_sqrt_of_nonpositive(self):
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x1)", 1), (0.0,))

    def test_unbound_constant(self):
        with pytest.raises(UnboundConstantError):
            evaluate(parse("mu1*x1", 1), (1.0,))

    def test_exp_overflow_guard(self):
        with pytest.raises(ExpOverflowError):
            evaluate(parse("exp(x1)", 1), (800.0,))

    def test_power_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(parse("(10*x1)^400 - 2", 2), (1.0, 0.0))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        for dim, text, box, consts in CORPUS:
            e = parse(text, dim)
            pts = interior_points(box, 20, seed=11)
            batch = evaluate(e, pts, consts)
            for row, value in zip(pts, batch):
                assert evaluate(e, row, consts) == pytest.approx(
                    value, rel=1e-14, abs=1e-300
                )

    def test_batch_error_carries_point(self):
        pts = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError) as err:
            evaluate(parse("x1/x2", 2), pts)
        assert err.value.point == (1.0, 0.0)


def tree_size(e):
    return 1 + sum(
        tree_size(getattr(e, f)) for f in e.__dataclass_fields__
        if isinstance(getattr(e, f), Expression)
    )


def raised(fn):
    """(type, message, point) of the error ``fn`` raises."""
    with pytest.raises(EvaluationError) as err:
        fn()
    return type(err.value), str(err.value), err.value.point


def negated_literals(tape):
    """The tape's negations of a literal slot, which it should bind as literals."""
    literals = {slot for slot, _ in tape.literals}
    return [step for step in tape.code if step[0] == "neg" and step[4] in literals]


class TestCompile:
    def test_single_point_is_bitwise_a_batch_row(self):
        for dim, text, box, consts in CORPUS:
            e = parse(text, dim)
            pts = interior_points(box, 20, seed=11)
            batch = evaluate(e, pts, consts)
            for row, value in zip(pts, batch):
                assert evaluate(e, row, consts) == value

    def test_batch_keeps_the_grid_axis_innermost(self):
        # each output is one contiguous run over the batch, and each row is
        # the single-point result bit for bit
        for dim, text, box, consts in CORPUS:
            e = parse(text, dim)
            tape = compile([[e, differentiate(e, 1)], [parse("2", dim), parse("x1", dim)]])
            pts = interior_points(box, 20, seed=13)
            batch = tape(pts, consts)
            assert batch.shape == (20, 2, 2) and batch.strides[0] == batch.itemsize
            assert np.array_equal(batch, np.stack([tape(row, consts) for row in pts]))

    def test_kernel_is_bitwise_the_tape(self):
        # the corpus, and a tape with many literals: multiplicands, addends,
        # divisors and exponents, one literal both in a product and as an
        # exponent, and negative powers
        coefficients = (0.37, 1.25e-3, -2.5, 7e5, 3.0, 2.0)
        terms = [f"{c!r}*x1^{k}*x2" for k, c in enumerate(coefficients, start=1)]
        terms += ["3.5/x1", "2*x2^2", "(x1 + 0.125)^-3", "1e-7*exp(0.3*x2)", "-0.5*sqrt(2 + x1)"]
        literals = (2, " + ".join(terms), [(0.5, 2.0), (-1.5, 1.5)], {})
        for dim, text, box, consts in [*CORPUS, literals]:
            e = parse(text, dim)
            tape = compile([e, differentiate(e, 1), parse("2", dim), parse("x1", dim)])
            pts = interior_points(box, 20, seed=5)
            out = np.empty((20, 4))
            assert tape.kernel(pts, consts, out) is out
            assert out.tobytes() == tape(pts, consts).tobytes()
        assert len(tape.literals) >= 15

    def test_kernel_inlines_single_use_values(self):
        # no value is inlined, single-use or not: a ball constraint names one
        # local per tape instruction, in tape order; a sum of 400 products
        # nests no calls for the parser to limit; both stay the tape's bits
        ball = compile(parse("(x1 - 2.05)^2 + (x2 + 0.5)^2 + x3^2 - 1", 3))
        slots = tuple(f"s{dst}" for _, _, _, dst, _, _, _ in ball.code)
        assert ball.kernel.__code__.co_varnames == ("pts", "consts", "out", *slots)
        chain = compile(parse(" + ".join(f"{k}.5*x{1 + k % 3}" for k in range(400)), 3))
        for tape in (ball, chain):
            pts = interior_points([(-1.0, 1.0)] * 3, 20, seed=2)
            out = np.empty((20, 1))
            assert tape.kernel(pts, {}, out).tobytes() == tape(pts).tobytes()

    def test_kernel_returns_none_where_the_tape_raises(self):
        pts = np.array([[1.0, 0.0], [-1.0, 1.0]])
        for text, consts, points in (
            ("log(x1) + 1/x2", {}, pts),  # a guard
            ("mu*x1", {}, pts),  # an unbound constant
            ("x1 + x2", {}, pts[:, :1]),  # a point narrower than the variables
        ):
            tape = compile(parse(text, 2))
            raised(lambda: tape(points, consts))
            assert tape.kernel(points, consts, np.empty((2, 1))) is None

    def test_variable_below_x1_is_rejected_when_compiled(self):
        # Var(0) would read a point's last column, though its derivative is
        # zero in every variable; neither the tape nor its kernel is built
        with pytest.raises(EvaluationError, match="variable index must be >= 1, not 0"):
            evaluate(Var(0), (1.0, 2.0))
        with pytest.raises(EvaluationError, match="variable index must be >= 1, not -1"):
            compile([parse("x1", 2), BinOp("+", Var(1), Var(-1))])

    def test_kernel_leaves_finiteness_to_the_caller(self):
        tape = compile(parse("(10*x1)^400", 1))
        pts = np.array([[1.0]])
        assert raised(lambda: tape(pts))[0] is DomainError
        with np.errstate(over="ignore"):
            assert tape.kernel(pts, {}, np.empty((1, 1)))[0, 0] == np.inf

    def test_negative_literals_are_literals(self):
        # a negated literal is a literal slot, bound once per tape, not a
        # negation run at every call; its value is the negation's, bit for bit
        tape = compile(parse("-0.5*x1", 1))
        assert [op for op, *_ in tape.code] == ["var", "*"]
        pts = interior_points([(-2.0, 2.0)], 20, seed=3)
        want = (np.negative(0.5) * pts[:, 0]).tobytes()
        assert tape(pts).tobytes() == want
        assert tape.kernel(pts, {}, np.empty((20, 1))).tobytes() == want
        zero = compile(Neg(Num(0.0)))
        assert zero.code == () and len(zero.literals) == 1
        assert np.copysign(1.0, zero.literals[0][1]) == -1.0
        assert np.copysign(1.0, zero(np.zeros(1))) == -1.0
        assert len(compile([Neg(Num(0.0)), Num(0.0)]).literals) == 2

    def test_walk_order_is_pinned(self):
        # operands before their node, left before right, one expression
        # after another; a shared node keeps its first slot, a negated
        # literal is a literal and an exponent a literal after its base
        tape = compile([parse("exp(x2)/x1^2 - -2*c", 2), parse("-x1 + exp(x2)", 2)])
        assert [(op, slot, a, b) for op, _, _, slot, a, b, _ in tape.code] == [
            ("var", 0, 1, None), ("exp", 1, 0, None), ("var", 2, 0, None), ("^", 4, 2, 3),
            ("/", 5, 1, 4), ("const", 7, "c", None), ("*", 8, 6, 7), ("-", 9, 5, 8),
            ("neg", 10, 2, None), ("+", 11, 10, 1),
        ]
        assert tape.literals == ((3, 2.0), (6, -2.0))
        assert (tape.outputs, tape.ends, tape.size) == ((9, 11), (8, 10), 12)

    def test_error_after_a_negative_literal(self):
        pts = np.array([[1.0], [0.0], [-1.0]])
        want = (DomainError, "log of non-positive value at point (0.0,)", (0.0,))
        assert raised(lambda: evaluate(parse("-2*log(x1)", 1), pts)) == want

    def test_fourth_derivative_shares_nodes(self):
        e = parse("exp(sin(x1*x2)/(1+x1^2+x2^2))", 2)
        for k in (1, 2, 1, 2):
            e = differentiate(e, k)
        assert tree_size(e) == 5152
        assert compile(e).size <= 257

    def test_nested_shape(self):
        rows = [[parse("x1", 2), parse("x2", 2)], [parse("2", 2), parse("x1*x2", 2)]]
        pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = compile(rows)(pts)
        assert out.shape == (3, 2, 2)
        assert out[2].tolist() == [[5.0, 6.0], [2.0, 30.0]]
        assert compile(rows)(pts[1]).tolist() == [[3.0, 4.0], [2.0, 12.0]]

    def test_first_failing_node_in_walk_order(self):
        # the log fails on row 1 and the division on row 0; the log comes
        # first in a depth-first walk, so its error and point are reported
        pts = np.array([[1.0, 0.0], [-1.0, 1.0]])
        kind, message, point = raised(lambda: evaluate(parse("log(x1) + 1/x2", 2), pts))
        assert kind is DomainError and "log" in message and point == (-1.0, 1.0)

    def test_first_error_matches_one_expression_after_another(self):
        pts = np.array([[0.5, 1.0], [1.0, 0.0]])
        for exprs in (
            ["(10*x1)^400", "1/x2"],  # a non-finite result before a failing node
            ["1/x2", "(10*x1)^400"],
            ["x1 + x2", "log(x1 - 1)", "mu*x1"],  # the log before the constant
            ["x1 + x2", "mu*x1", "log(x1 - 1)"],
        ):
            trees = [parse(text, 2) for text in exprs]
            sequential = raised(lambda: [evaluate(e, pts) for e in trees])
            assert raised(lambda: compile(trees)(pts)) == sequential


class TestDifferentiate:
    def test_polynomial_rule(self):
        assert render(differentiate(parse("1 + x1^2 + x2^2", 2), 1)) == "2*x1"

    def test_chain_rule(self):
        assert (
            render(differentiate(parse("exp(mu1*x1)", 2), 1)) == "mu1*exp(mu1*x1)"
        )

    def test_gaussian_derivative_against_central_differences(self):
        e = parse("exp(-mu2*x1^2)", 2)
        d = differentiate(e, 1)
        consts = {"mu2": 0.1}
        rng = np.random.default_rng(3)
        for _ in range(10):
            pt = rng.uniform(-2.0, 2.0, size=2)
            sym = evaluate(d, pt, consts)
            fd = central_diff(e, pt, 1, consts)
            assert sym == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("dim,text,box,consts", CORPUS)
    def test_corpus_against_central_differences(self, dim, text, box, consts):
        e = parse(text, dim)
        pts = interior_points(box, 100, seed=zlib.crc32(text.encode()))
        for k in range(1, dim + 1):
            d = differentiate(e, k)
            sym = evaluate(d, pts, consts)
            sym = np.broadcast_to(np.asarray(sym), (pts.shape[0],))
            for row, value in zip(pts, sym):
                fd = central_diff(e, row, k, consts)
                # relative where the derivative has size, unit floor where it
                # crosses zero (central differences carry O(ulp/step) noise)
                denom = max(abs(fd), abs(value), 1.0)
                assert abs(value - fd) / denom < 1e-6

    @pytest.mark.parametrize("dim,text,box,consts", CORPUS)
    def test_mixed_partials_commute(self, dim, text, box, consts):
        if dim < 2:
            pytest.skip("needs two variables")
        e = parse(text, dim)
        pts = interior_points(box, 25, seed=5)
        d12 = differentiate(differentiate(e, 1), 2)
        d21 = differentiate(differentiate(e, 2), 1)
        v12 = evaluate(d12, pts, consts)
        v21 = evaluate(d21, pts, consts)
        v12 = np.broadcast_to(np.asarray(v12), (pts.shape[0],))
        v21 = np.broadcast_to(np.asarray(v21), (pts.shape[0],))
        for a, b in zip(v12, v21):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_constant_folding_collapses_literals(self):
        d = differentiate(parse("3*x1 + 5", 1), 1)
        assert d == Num(3.0)

    def test_derivative_of_constant_expression(self):
        assert differentiate(parse("mu1*mu2", 1), 1) == Num(0.0)

    def test_chains_match_the_recursive_rules(self):
        # a chain of + - * / is differentiated in one post-order loop; on short
        # chains it gives the tree that recursing on both sides of each node
        # gives, by the sum, product and quotient rules
        def reference(e, k):
            if not isinstance(e, BinOp):
                return differentiate(e, k)
            dl, dr = reference(e.left, k), reference(e.right, k)
            if e.op in "+-":
                return (add if e.op == "+" else sub)(dl, dr)
            if e.op == "*":
                return add(mul(dl, e.right), mul(e.left, dr))
            return div(sub(mul(dl, e.right), mul(e.left, dr)), powi(e.right, 2))

        rng = np.random.default_rng(2718)
        for _ in range(300):
            e = random_tree(rng, depth=2)
            for _ in range(int(rng.integers(1, 12))):
                e = BinOp(rng.choice(["+", "-", "*", "/"]), e, random_tree(rng, depth=2))
            for k in (1, 2):
                assert differentiate(e, k) == reference(e, k), render(e)

    def test_second_derivative_of_a_product_grows_with_its_length(self):
        # a product's derivative refers to its partial products; each is
        # differentiated once, so the second derivative has distinct nodes in
        # proportion to the factors, not to their square
        def distinct(e):
            seen, todo = set(), [e]
            while todo:
                node = todo.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    children = (getattr(node, f, None) for f in ("arg", "left", "right", "base"))
                    todo += [c for c in children if isinstance(c, Expression)]
            return len(seen)

        counts = []
        for n in (100, 400):
            e = parse("*".join(["(x1 + 0.5)/x1"] * n), 1)
            counts.append(distinct(differentiate(differentiate(e, 1), 1)))
        assert counts[1] < 4.5 * counts[0]
