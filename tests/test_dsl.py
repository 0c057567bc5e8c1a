"""Tokenizer, parser, printer and exact-derivative evaluation checks."""

import math
import random

import numpy as np
import pytest

from solab import dsl, jets
from solab.errors import (
    ArityMismatch,
    DomainError,
    ExpressionError,
    UnexpectedToken,
    UnknownCharacter,
    UnknownFunction,
    UnknownIdentifier,
    UnterminatedNumber,
)


# --- tokenizer ----------------------------------------------------------------

def kinds(src):
    return [(t.kind, t.lexeme) for t in dsl.tokenize(src)]


def test_tokenize_call():
    assert kinds("cosh(u1)") == [
        ("identifier", "cosh"),
        ("paren", "("),
        ("identifier", "u1"),
        ("paren", ")"),
    ]


def test_tokenize_number_times_constant():
    assert kinds("2*pi") == [
        ("number", "2"),
        ("operator", "*"),
        ("identifier", "pi"),
    ]


def test_tokenize_malformed_number():
    with pytest.raises(UnterminatedNumber) as err:
        dsl.tokenize("3..5")
    assert err.value.position == 0


def test_tokenize_positions_strictly_increase():
    toks = dsl.tokenize("sin(u1) + 2.5e-1*u2")
    positions = [t.position for t in toks]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)
    assert all(t.lexeme for t in toks)


def test_tokenize_concatenation_reproduces_source():
    src = "sin(u1)^2 + 17.25e-2*cosh(u2)/(1 - u1)"
    joined = "".join(t.lexeme for t in dsl.tokenize(src))
    assert joined == src.replace(" ", "")


def test_tokenize_unknown_character():
    with pytest.raises(UnknownCharacter) as err:
        dsl.tokenize("u1 $ u2")
    assert err.value.position == 3


# --- parser -------------------------------------------------------------------

def test_parse_precedence():
    e = dsl.parse("u1 + u2 * u1")
    assert e == dsl.BinOp(
        "+",
        dsl.Param(1, "u1"),
        dsl.BinOp("*", dsl.Param(2, "u2"), dsl.Param(1, "u1")),
    )


def test_parse_unary_binds_looser_than_power():
    e = dsl.parse("-u1^2")
    assert e == dsl.Neg(dsl.BinOp("^", dsl.Param(1, "u1"), dsl.Const(2.0)))


def test_parse_power_right_associative():
    e = dsl.parse("u1^u2^2")
    inner = dsl.BinOp("^", dsl.Param(2, "u2"), dsl.Const(2.0))
    assert e == dsl.BinOp("^", dsl.Param(1, "u1"), inner)


def test_parse_unknown_function():
    with pytest.raises(UnknownFunction):
        dsl.parse("foo(u1)")


@pytest.mark.parametrize(
    "src,exc",
    [
        ("(u1", UnexpectedToken),
        ("u1 +", UnexpectedToken),
        ("u1 u2", UnexpectedToken),
        ("sin(u1, u2)", ArityMismatch),
        ("u99", UnknownIdentifier),
        ("1.2.3", UnterminatedNumber),
        ("2e", UnterminatedNumber),
    ],
)
def test_parse_rejects_malformed(src, exc):
    with pytest.raises(exc):
        dsl.parse(src, ["u1", "u2"])


def test_malformed_errors_carry_positions():
    for src, pos in [("3..5", 0), ("u1 @ 2", 3), ("u1 + (", 6)]:
        with pytest.raises(ExpressionError) as err:
            dsl.parse(src, ["u1"])
        assert err.value.position == pos


def test_parser_never_accepts_what_tokenizer_rejects():
    for src in ["3..5", "u1 ? 2", "1e+", "#"]:
        with pytest.raises(ExpressionError):
            dsl.tokenize(src)
        with pytest.raises(ExpressionError):
            dsl.parse(src)


# --- printer ------------------------------------------------------------------

ROUND_TRIP_SOURCES = [
    "u1 + u2*u1",
    "-u1^2",
    "(u1 + u2)^2",
    "u1 - (u2 - u1)",
    "u1/(u2*u1)",
    "u1*(u2*u1)",
    "u1^u2^2",
    "(u1^u2)^2",
    "sin(u1)*cos(u2) - tanh(u1/2)",
    "-(u1 + u2)",
    "2^-u1",
    "exp(-u1^2/2)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_parse_print_round_trip(src):
    tree = dsl.parse(src)
    printed = dsl.to_source(tree)
    assert dsl.parse(printed) == tree
    assert dsl.to_source(dsl.parse(printed)) == printed  # idempotent form


# --- exact derivatives ----------------------------------------------------------

def test_jet2_square():
    v, g, h = dsl.eval_jet2(dsl.parse("u1^2", ["u1"]), [3.0])
    assert v == 9.0
    np.testing.assert_allclose(g, [6.0])
    np.testing.assert_allclose(h, [[2.0]])


def test_jet2_product_of_waves():
    v, g, h = dsl.eval_jet2(dsl.parse("sin(u1)*cos(u2)"), [0.0, 0.0])
    assert v == 0.0
    np.testing.assert_allclose(g, [1.0, 0.0])
    np.testing.assert_allclose(h, [[0.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_jet2_exp_product():
    # hand-differentiated: f = exp(u*v); f_u = v f; f_uv = (1 + uv) f
    v, g, h = dsl.eval_jet2(dsl.parse("exp(u1*u2)"), [1.0, 2.0])
    e2 = math.e**2
    np.testing.assert_allclose(v, e2, rtol=1e-15)
    np.testing.assert_allclose(g, [2 * e2, e2], rtol=1e-14)
    np.testing.assert_allclose(h, [[4 * e2, 3 * e2], [3 * e2, e2]], rtol=1e-14)


def test_domain_errors_name_the_node():
    with pytest.raises(DomainError) as err:
        dsl.eval_jet2(dsl.parse("log(u1 - 2)", ["u1"]), [1.0])
    assert "log" in str(err.value)
    with pytest.raises(DomainError):
        dsl.eval_jet2(dsl.parse("1/u1", ["u1"]), [0.0])
    with pytest.raises(DomainError):
        dsl.eval_jet2(dsl.parse("u1^0.5", ["u1"]), [-1.0])


def test_batched_evaluation_matches_pointwise():
    tree = dsl.parse("sinh(u1)*u2 + u2^3")
    pts = np.array([[0.3, 1.0], [1.2, -0.5], [2.0, 0.25]])
    jet = dsl.eval_jet(tree, pts, order=2)
    for i, p in enumerate(pts):
        v, g, h = dsl.eval_jet2(tree, p)
        assert jet.value[i] == v
        np.testing.assert_array_equal(jet.grad[i], g)
        np.testing.assert_array_equal(jet.hess[i], h)


# --- the function table and the operators' domain rules ---------------------------

LOWER_ORDER_SOURCES = [f"{name}(0.5 + u1*u2)" for name in dsl.FUNCTIONS] + [
    "u1/u2", "2/u1", "u1/3", "u1^3", "u1^-2", "u1^0", "u1^1.5", "u1^u2", "2^u1", "u1^(u2 - u2)",
]


@pytest.mark.parametrize("src", LOWER_ORDER_SOURCES)
def test_lower_orders_match_order_two_bit_for_bit(src):
    # derivatives are computed only to the jet's order, from the same values
    tree = dsl.parse(src)
    pts = np.array([[0.3, 1.1], [1.7, 0.4], [0.9, 1.3], [1.2, 0.6]])
    full = dsl.eval_jet(tree, pts, order=2)
    first = dsl.eval_jet(tree, pts, order=1)
    value = dsl.eval_jet(tree, pts, order=0)
    assert value.grad is None and first.hess is None
    assert value.value.tobytes() == first.value.tobytes() == full.value.tobytes()
    assert first.grad.tobytes() == full.grad.tobytes()


def test_unused_derivatives_are_not_computed():
    # f' of sqrt and f'' of u1^1 divide by zero at 0; the suite turns that
    # warning into an error, so neither may run below its order
    jet = dsl.eval_jet(dsl.parse("sqrt(u1)"), [[0.0]], order=0)
    assert jet.value.tolist() == [0.0] and jet.grad is None
    jet = dsl.eval_jet(dsl.parse("u1^1"), [[0.0]], order=1)
    assert jet.value.tolist() == [0.0] and jet.grad.tolist() == [[1.0]]
    # a zero coefficient k or k(k - 1) of an integer power gives a zero
    # derivative at a zero base instead of 0 * (1/0)
    jet = dsl.eval_jet(dsl.parse("u1^0"), [[0.0]], order=1)
    assert jet.value.tolist() == [1.0] and jet.grad.tolist() == [[0.0]]
    jet = dsl.eval_jet(dsl.parse("u1^0"), [[0.0]], order=2)
    assert jet.grad.tolist() == [[0.0]] and jet.hess.tolist() == [[[0.0]]]
    jet = dsl.eval_jet(dsl.parse("u1^1"), [[0.0]], order=2)
    assert jet.grad.tolist() == [[1.0]] and jet.hess.tolist() == [[[0.0]]]


def test_jet_exponent_ignores_the_batch_and_the_order():
    # a parameter exponent always runs as exp(u2 log u1): the nonpositive
    # base fails at every order, though u2 takes one value on the batch
    tree = dsl.parse("u1^u2")
    for order in (0, 1, 2):
        with pytest.raises(DomainError, match="power with non-constant exponent needs positive base"):
            dsl.eval_jet(tree, [[-0.7, 2.0], [0.5, 2.0]], order)
    # and a single point gets the bits of order 2 at orders 0 and 1
    for point in np.random.default_rng(5).uniform(0.1, 3.0, size=(200, 2)):
        full = dsl.eval_jet(tree, [point], order=2)
        first = dsl.eval_jet(tree, [point], order=1)
        value = dsl.eval_jet(tree, [point], order=0)
        assert value.value.tobytes() == first.value.tobytes() == full.value.tobytes()
        assert first.grad.tobytes() == full.grad.tobytes()


@pytest.mark.parametrize(
    "src,point,order,message",
    [
        ("log(u1)", [0.0], 0, "'log(u1)': logarithm of a nonpositive value"),
        ("sqrt(u1)", [-1.0], 0, "'sqrt(u1)': square root of a negative value"),
        ("sqrt(u1)", [0.0], 1, "'sqrt(u1)': square root not differentiable at zero"),
        ("abs(u1)", [0.0], 1, "'abs(u1)': absolute value not differentiable at zero"),
        ("u1/0", [1.0], 0, "'u1/0.0': division by zero"),
        ("1/u1", [0.0], 0, "'1.0/u1': division by zero"),
        ("u1^0.5", [-1.0], 0, "'u1^0.5': non-integer exponent needs positive base"),
        ("(-2)^u1", [1.0], 0, "'(-2.0)^u1': non-integer exponent needs positive base"),
        ("u1^-1", [0.0], 0, "'u1^-1.0': zero base with negative exponent"),
        ("0^-1", [1.0], 0, "'0.0^-1.0': zero base with negative exponent"),
        (
            "u1^u2", [-1.0, 1.0], 1,
            "'u1^u2': power with non-constant exponent needs positive base",
        ),
    ],
)
def test_domain_rule_messages(src, point, order, message):
    with pytest.raises(DomainError) as err:
        dsl.eval_jet(dsl.parse(src), [point], order)
    assert str(err.value) == f"domain error in {message}"


@pytest.mark.parametrize("point", [math.pi / 2, math.nextafter(math.pi / 2, math.inf)])
def test_tangent_pole_is_a_domain_error(point):
    # float(pi/2) misses the pole by 6e-17; tan there is 1.6e16, and the
    # next double up gives -6.2e15
    for order in (0, 1, 2):
        with pytest.raises(DomainError) as err:
            dsl.eval_jet(dsl.parse("tan(u1)"), [[point]], order)
        assert str(err.value) == "domain error in 'tan(u1)': tangent pole"


def test_tangent_evaluates_off_its_poles():
    jet = dsl.eval_jet(dsl.parse("tan(u1)"), [[1.5]], 1)
    assert jet.value[0] == math.tan(1.5)
    assert jet.grad[0, 0] == pytest.approx(1.0 / math.cos(1.5) ** 2, rel=1e-12)


def test_tangent_rule_is_in_the_table():
    # no double has cos(v) == 0, so no expression reaches this rule
    assert [why for _, why in jets.FUNCTIONS["tan"][3]] == ["tangent pole"]


# --- property suite (random expressions vs. finite differences) -----------------

FUNC_NAMES = list(dsl.FUNCTIONS)
DIM = 2


def _random_expr(rng, depth):
    """Source string for a random expression over u1..u2."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return f"u{rng.randint(1, DIM)}"
        return repr(round(rng.uniform(0.2, 2.5), 3))
    choice = rng.random()
    if choice < 0.45:
        op = rng.choice("+-*/")
        return f"({_random_expr(rng, depth - 1)} {op} {_random_expr(rng, depth - 1)})"
    if choice < 0.6:
        return f"(-{_random_expr(rng, depth - 1)})"
    if choice < 0.75:
        exponent = rng.choice(["2", "3", "0.5", "1.5", "-1"])
        return f"({_random_expr(rng, depth - 1)})^{exponent}"
    fn = rng.choice(FUNC_NAMES)
    return f"{fn}({_random_expr(rng, depth - 1)})"


def _fd_gradient(tree, x, h):
    g = np.zeros(len(x))
    for i in range(len(x)):
        step = np.zeros(len(x))
        step[i] = h * max(1.0, abs(x[i]))
        fp = dsl.eval_value(tree, [x + step])[0]
        fm = dsl.eval_value(tree, [x - step])[0]
        g[i] = (fp - fm) / (2 * step[i])
    return g


def _fd_hessian(tree, x, h):
    n = len(x)
    H = np.zeros((n, n))
    steps = [h * max(1.0, abs(xi)) for xi in x]
    f0 = dsl.eval_value(tree, [x])[0]
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        H[i, i] = (
            dsl.eval_value(tree, [x + ei])[0]
            - 2 * f0
            + dsl.eval_value(tree, [x - ei])[0]
        ) / steps[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            fpp = dsl.eval_value(tree, [x + ei + ej])[0]
            fpm = dsl.eval_value(tree, [x + ei - ej])[0]
            fmp = dsl.eval_value(tree, [x - ei + ej])[0]
            fmm = dsl.eval_value(tree, [x - ei - ej])[0]
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4 * steps[i] * steps[j])
    return H


def _well_conditioned(tree, x):
    try:
        v, g, h = dsl.eval_jet2(tree, x)
        for dx in np.eye(DIM):
            for s in (-2e-4, 2e-4):
                dsl.eval_jet2(tree, x + s * dx)
    except DomainError:
        return None
    scale = max(abs(v), np.abs(g).max(), np.abs(h).max())
    if not np.isfinite(scale) or scale > 1e4:
        return None
    return v, g, h


def test_property_suite_100_cases():
    """Derivatives agree with central differences; printing is stable."""
    rng = random.Random(20260810)
    checked = 0
    while checked < 100:
        src = _random_expr(rng, rng.randint(1, 4))
        try:
            tree = dsl.parse(src)
        except ExpressionError:
            continue
        x = np.array([rng.uniform(0.3, 1.7) for _ in range(DIM)])
        probe = _well_conditioned(tree, x)
        if probe is None:
            continue
        v, g, h = probe
        scale = max(1.0, abs(v), np.abs(g).max())
        fd_g = _fd_gradient(tree, x, 1e-5)
        assert np.abs(fd_g - g).max() <= 1e-6 * scale, src
        hscale = max(scale, np.abs(h).max())
        fd_h = _fd_hessian(tree, x, 1e-4)
        assert np.abs(fd_h - h).max() <= 1e-4 * hscale, src
        # printed form round-trips and is idempotent
        printed = dsl.to_source(tree)
        assert dsl.parse(printed) == tree, src
        assert dsl.to_source(dsl.parse(printed)) == printed, src
        checked += 1
    assert checked == 100
