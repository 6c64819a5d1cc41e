import numpy as np
import pytest
from hypothesis import given, strategies as st

from consol.errors import DomainError
from consol.local_net import forward, init_weights, three_layer_structure
from consol.symbols import (LOG_DOMAIN_EPS, check_domain, make_library, op_d1,
                            op_d2, op_value)


def test_make_library_order_and_flags():
    lib = make_library(["id", "square", "sqrt", "cos"])
    assert lib.names == ["id", "square", "sqrt", "cos"]
    # sqrt(w*x) == sqrt(w)*sqrt(x): a summation weight holds sqrt's scale
    assert [op.has_inner_weight for op in lib.ops] == [False, False, False, True]
    assert lib.ops[3].domain_lower is None


def test_make_library_rejects_unknown():
    with pytest.raises(ValueError, match="unknown symbol"):
        make_library(["id", "tanh"])


def test_weighted_ops_have_domain_guards():
    lib = make_library(["sqrt", "log"])
    assert lib.ops[0].domain_lower == 0.0
    assert lib.ops[1].domain_lower == LOG_DOMAIN_EPS


def test_op_values_match_closed_forms():
    z = np.array([0.5, 1.0, 2.0])
    assert np.allclose(op_value("id", z), z)
    assert np.allclose(op_value("square", z), z ** 2)
    assert np.allclose(op_value("sqrt", z), np.sqrt(z))
    assert np.allclose(op_value("log", z), np.log(z))
    assert np.allclose(op_value("cos", z), np.cos(z))
    assert np.allclose(op_value("sin", z), np.sin(z))


#: the ops without an inner weight: nothing reads their derivatives, so
#: their table rows give none
UNWEIGHTED = ("id", "square", "sqrt")


@pytest.mark.parametrize("name", ["id", "square", "sqrt", "log", "cos", "sin"])
def test_first_derivative_matches_finite_difference(name):
    z = np.linspace(0.3, 2.7, 9)
    if name in UNWEIGHTED:
        with pytest.raises(TypeError):
            op_d1(name, z)
        return
    h = 1e-6
    fd = (op_value(name, z + h) - op_value(name, z - h)) / (2 * h)
    assert np.allclose(op_d1(name, z), fd, rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("name", ["id", "square", "sqrt", "log", "cos", "sin"])
def test_second_derivative_matches_finite_difference(name):
    z = np.linspace(0.3, 2.7, 9)
    if name in UNWEIGHTED:
        with pytest.raises(TypeError):
            op_d2(name, z)
        return
    h = 1e-4
    fd = (op_value(name, z + h) - 2 * op_value(name, z) + op_value(name, z - h)) / h ** 2
    assert np.allclose(op_d2(name, z), fd, rtol=1e-5, atol=1e-5)


def test_eval_applies_inner_weight():
    st = three_layer_structure(make_library(["cos"]), 1, np.array([[1]]),
                               np.array([[1]]))
    w = init_weights(st, 1.0)
    w.inner[0] = 2.5
    assert forward(st, w, np.array([1.2]))[0] == pytest.approx(np.cos(2.5 * 1.2))


def test_eval_ignores_weight_of_unweighted_op():
    # the inner weight enters only ops that carry one: id stays x
    st = three_layer_structure(make_library(["id", "cos"]), 1,
                               np.array([[1], [0]]), np.array([[1]]))
    w = init_weights(st, 1.0)
    w.inner[0] = 7.0
    assert forward(st, w, np.array([1.5]))[0] == 1.5


def test_eval_domain_errors():
    sqrt_op, log_op = make_library(["sqrt", "log"]).ops
    with pytest.raises(DomainError):
        check_domain(sqrt_op, np.array([-0.5]))
    with pytest.raises(DomainError):
        check_domain(log_op, np.array([0.0]))
    # boundary itself is fine for sqrt
    check_domain(sqrt_op, np.array([0.0]))
    assert op_value("sqrt", np.array([0.0]))[0] == 0.0


@given(st.floats(0.2, 3.0), st.floats(-3.0, 3.0))
def test_eval_grads_match_finite_difference(v, w):
    # chain rule for phi(w*v): d/dv = w*phi'(w*v), d/dw = v*phi'(w*v)
    d1 = op_d1("sin", w * v)
    h = 1e-6
    fd_v = (op_value("sin", w * (v + h)) - op_value("sin", w * (v - h))) / (2 * h)
    fd_w = (op_value("sin", (w + h) * v) - op_value("sin", (w - h) * v)) / (2 * h)
    assert w * d1 == pytest.approx(fd_v, rel=1e-5, abs=1e-6)
    assert v * d1 == pytest.approx(fd_w, rel=1e-5, abs=1e-6)


def test_eval_second_is_plain_second_derivative():
    assert op_d2("cos", 2.0 * 1.5) == pytest.approx(-np.cos(3.0))
