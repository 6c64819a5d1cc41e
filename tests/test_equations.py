import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from consol.equations import (CanonicalEquation, Term, canonicalize,
                              canonicalize_term, equation_from_json_obj,
                              evaluate, render_terms)
from consol.errors import DomainError, ShapeError
from test_metrics import term


def test_paired_sqrt_factors_merge():
    # sqrt(3x) * sqrt(3x) == 3x
    coeff, factors = canonicalize_term(
        2.0, [(1, ("sqrt", 3.0)), (1, ("sqrt", 3.0))])
    assert factors == ((1, ("id", None)),)
    assert coeff == pytest.approx(6.0)


def test_sqrt_scale_moves_to_the_coefficient():
    # 2*sqrt(4.5*x) == 2*sqrt(4.5)*sqrt(x)
    coeff, factors = canonicalize_term(2.0, [(0, ("sqrt", 4.5))])
    assert factors == ((0, ("sqrt", None)),)
    assert coeff == pytest.approx(2.0 * 4.5 ** 0.5)
    # so a scale split between coefficient and weight gives one term
    eq = canonicalize([[term(1.0, [(0, "sqrt", 2.2)]),
                        term(2.0, [(0, "sqrt", 2.2 / 4.0)])]])
    assert len(eq.outputs[0]) == 1
    assert eq.outputs[0][0].coefficient == pytest.approx(2.0 * 2.2 ** 0.5)


def test_paired_identity_factors_become_square():
    coeff, factors = canonicalize_term(
        1.5, [(0, ("id", None)), (0, ("id", None))])
    assert factors == ((0, ("square", None)),)
    assert coeff == pytest.approx(1.5)


def test_cos_weight_sign_is_normalized():
    c_neg, f_neg = canonicalize_term(2.0, [(0, ("cos", -2.5))])
    c_pos, f_pos = canonicalize_term(2.0, [(0, ("cos", 2.5))])
    assert (c_neg, f_neg) == (c_pos, f_pos)


def test_sin_sign_flip_moves_to_coefficient():
    coeff, factors = canonicalize_term(2.0, [(0, ("sin", -1.8))])
    assert coeff == pytest.approx(-2.0)
    assert factors == ((0, ("sin", 1.8)),)


def test_vanishing_cos_factor_becomes_constant():
    coeff, factors = canonicalize_term(3.0, [(0, ("cos", 0.004)),
                                             (1, ("id", None))],
                                       prune_threshold=0.01)
    assert factors == ((1, ("id", None)),)
    assert coeff == pytest.approx(3.0)


def test_vanishing_sin_factor_kills_the_term():
    assert canonicalize_term(3.0, [(0, ("sin", 0.004))],
                             prune_threshold=0.01) is None


def test_canonicalize_merges_like_terms_and_prunes():
    raw = [[term(2.0, [(0, "id", None)]),
            term(1.5, [(0, "id", None)]),
            term(0.005, [(1, "square", None)])]]
    eq = canonicalize(raw, prune_threshold=0.01)
    assert len(eq.outputs[0]) == 1
    t = eq.outputs[0][0]
    assert t.coefficient == pytest.approx(3.5)


def test_canonicalize_drops_cancelled_terms():
    raw = [[term(2.0, [(0, "id", None)]), term(-2.0, [(0, "id", None)])]]
    eq = canonicalize(raw)
    assert eq.outputs[0] == ()


def test_factor_order_is_canonical():
    a = canonicalize([[term(1.0, [(2, "id", None), (0, "square", None)])]])
    b = canonicalize([[term(1.0, [(0, "square", None), (2, "id", None)])]])
    assert a == b


def test_render_text():
    eq = canonicalize([[term(3.0, [(0, "square", None), (1, "cos", 2.5)])],
                       [term(-4.0, [(2, "id", None)])]])
    assert eq.to_text() == "y1 = 3.000*x1^2*cos(2.500*x2)\ny2 = -4.000*x3"


def test_render_empty_output():
    assert render_terms(()) == "0"


def test_json_roundtrip():
    eq = canonicalize([[term(3.0, [(0, "square", None), (1, "cos", 2.5)]),
                        term(1.0, [(0, "sqrt", 2.2)])]])
    back = equation_from_json_obj(json.loads(json.dumps(eq.to_json_obj())))
    assert back == eq


FACTOR = st.tuples(
    st.integers(0, 2),
    st.sampled_from(["id", "square", "sqrt", "log", "cos", "sin"]),
    st.floats(0.1, 4.0),
)


@given(st.lists(
    st.tuples(
        st.floats(-5, 5, allow_nan=False).filter(lambda c: abs(c) > 0.05),
        st.lists(FACTOR, min_size=1, max_size=2),
    ),
    min_size=1, max_size=4,
))
def test_recanonicalize_is_idempotent(spec):
    raw = [[term(c, [(i, op, None if op in ("id", "square") else w)
                     for i, op, w in factors])
            for c, factors in spec]]
    eq = canonicalize(raw, prune_threshold=0.01)
    again = canonicalize([[(t.coefficient, t.factors) for t in terms]
                          for terms in eq.outputs], prune_threshold=0.01)
    assert again == eq
    assert equation_from_json_obj(json.loads(json.dumps(eq.to_json_obj()))) == eq


@pytest.mark.parametrize("coefficient, weight, message", [
    (float("nan"), 2.0, "coefficient must be finite"),
    (float("inf"), 2.0, "coefficient must be finite"),
    (1.0, float("inf"), "inner weight must be finite"),
    (1.0, float("-inf"), "inner weight must be finite"),
    (1.0, float("nan"), "inner weight must be finite"),
])
def test_equation_from_json_obj_rejects_non_finite_numbers(coefficient, weight, message):
    # canonicalize drops a NaN term, since abs(nan) >= threshold is False
    obj = json.loads(json.dumps({"outputs": [[
        {"coefficient": coefficient,
         "factors": [{"input": 0, "op": "id", "inner_weight": None}]},
        {"coefficient": 2.0, "factors": [{"input": 1, "op": "cos", "inner_weight": weight}]},
    ]]}))
    with pytest.raises(ValueError, match=message):
        equation_from_json_obj(obj)


def test_evaluate_multiplies_each_term_left_to_right_in_canonical_order():
    X = np.random.default_rng(0).uniform(1.0, 2.0, (50, 3))
    x1, x2, x3 = X.T
    eq = canonicalize([[term(3.0, [(1, "cos", 2.5), (0, "square", None)])],
                       [term(-0.5, [(2, "id", None), (0, "log", 1.6)]),
                        term(2.0, [(1, "sin", -1.8)])]])
    Y = evaluate(eq, X)
    assert np.array_equal(Y[:, 0], 3.0 * x1 ** 2 * np.cos(2.5 * x2))
    # sin(-1.8*x2) folds to -sin(1.8*x2); the terms add in canonical order
    assert np.array_equal(Y[:, 1], 0.0 + -0.5 * np.log(1.6 * x1) * x3
                          + -2.0 * np.sin(1.8 * x2))


def test_evaluate_gives_a_constant_term_and_an_empty_output():
    eq = canonicalize([[term(2.0, [(0, "cos", 0.001)])], []], prune_threshold=0.01)
    assert eq.outputs[0][0].factors == ()
    assert np.array_equal(evaluate(eq, np.ones((4, 1))), [[2.0, 0.0]] * 4)


@pytest.mark.parametrize("factor, x", [
    ((0, "log", 1.0), 0.0),
    ((0, "log", 2.0), -1.0),
    ((0, "sqrt", None), -1e-9),
    ((0, "sqrt", None), float("nan")),
])
def test_evaluate_outside_a_symbols_domain_raises(factor, x):
    eq = canonicalize([[term(1.0, [factor])]])
    with pytest.raises(DomainError):
        evaluate(eq, np.array([[1.0], [x]]))


def test_evaluate_takes_rows():
    with pytest.raises(ShapeError):
        evaluate(canonicalize([[term(1.0, [(0, "id", None)])]]), np.ones(3))
