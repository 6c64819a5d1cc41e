import json

import pytest
from hypothesis import given, strategies as st

from consol.equations import (CanonicalEquation, Term, canonicalize,
                              canonicalize_term, equation_from_json_obj,
                              render_terms)
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
