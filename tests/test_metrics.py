import numpy as np
import pytest

from consol import datasets
from consol.equations import canonicalize
from consol.errors import DegenerateError
from consol.local_net import (extract_equation, forward, init_weights,
                              three_layer_structure)
from consol.metrics import e_c, nrmse, percentage_error
from consol.symbols import make_library


def term(coefficient, factors):
    """A raw (coefficient, factors) term for `canonicalize`, the factors
    given as (input, op, weight) triples."""
    return coefficient, [(inp, (op, w)) for inp, op, w in factors]


def test_nrmse_vector_oracle():
    pred = np.array([[1.0], [2.0], [3.0]])
    truth = np.array([[1.0], [2.0], [4.0]])
    # rmse = sqrt(1/3), sigma = 2
    assert nrmse(pred, truth, 2.0) == pytest.approx(np.sqrt(1 / 3) / 2)


def test_nrmse_matrix_averages_per_output():
    pred = np.array([[1.0, 0.0], [3.0, 0.0]])
    truth = np.array([[2.0, 2.0], [4.0, 2.0]])
    val = nrmse(pred, truth, np.array([1.0, 4.0]))
    assert val == pytest.approx((1.0 / 1.0 + 2.0 / 4.0) / 2)


def test_nrmse_zero_for_exact():
    y = np.random.default_rng(0).normal(size=(20, 3))
    assert nrmse(y, y, y.std(axis=0)) == 0.0


def test_nrmse_rejects_zero_sigma():
    with pytest.raises(DegenerateError):
        nrmse(np.ones((3, 1)), np.ones((3, 1)), 0.0)


@pytest.mark.parametrize("sigma", [float("inf"), -1.0, float("nan")])
def test_nrmse_rejects_a_sigma_that_is_not_finite_and_positive(sigma):
    with pytest.raises(DegenerateError, match="finite and positive"):
        nrmse(np.ones((3, 1)), np.zeros((3, 1)), sigma)
    with pytest.raises(DegenerateError, match="finite and positive"):
        nrmse(np.ones((3, 2)), np.zeros((3, 2)), (1.0, sigma))


def test_nrmse_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        nrmse(np.ones((3, 1)), np.ones((4, 1)), 1.0)
    with pytest.raises(ValueError):
        nrmse(np.ones(3), np.ones(3), 1.0)  # 1-D: one column must be (N, 1)
    with pytest.raises(ValueError):
        nrmse(np.ones((3, 2)), np.ones((2, 3)), 1.0)


def test_percentage_error_caps_at_100():
    assert percentage_error(1.0, 1.1) == pytest.approx(10.0)
    assert percentage_error(1.0, 5.0) == 100.0
    assert percentage_error(2.0, 2.0) == 0.0
    assert percentage_error(0.0, 0.0) == 0.0
    assert percentage_error(0.0, 1e-9) == 100.0


TRUE_EQ = canonicalize([
    [term(3.0, [(0, "square", None), (1, "cos", 2.5)])],
    [term(4.0, [(0, "id", None), (2, "id", None)])],
])


def test_e_c_zero_for_exact_recovery():
    score, matches = e_c(TRUE_EQ, TRUE_EQ)
    assert score == 0.0
    assert all(m.pes == [0.0] * len(m.pes) for m in matches)


def test_e_c_counts_coefficient_and_inner_slots():
    learned = canonicalize([
        [term(3.3, [(0, "square", None), (1, "cos", 2.0)])],
        [term(4.0, [(0, "id", None), (2, "id", None)])],
    ])
    score, _ = e_c(TRUE_EQ, learned)
    # slots: y1 coeff 10%, y1 inner 20%, y2 coeff 0%
    assert score == pytest.approx((10.0 + 20.0 + 0.0) / 3)


def test_e_c_unmatched_true_term_scores_100():
    learned = canonicalize([
        [term(3.0, [(0, "square", None), (1, "cos", 2.5)])],
        [term(4.0, [(1, "id", None), (2, "id", None)])],  # wrong input
    ])
    score, matches = e_c(TRUE_EQ, learned)
    assert score == pytest.approx((0.0 + 0.0 + 100.0) / 3)
    missing = [m for m in matches if m.learned_term is None]
    assert len(missing) == 1 and missing[0].output == 1


def test_e_c_learned_only_terms_reported_not_averaged():
    learned = canonicalize([
        [term(3.0, [(0, "square", None), (1, "cos", 2.5)]),
         term(0.5, [(2, "id", None)])],
        [term(4.0, [(0, "id", None), (2, "id", None)])],
    ])
    score, matches = e_c(TRUE_EQ, learned)
    assert score == 0.0
    extras = [m for m in matches if m.true_term is None]
    assert len(extras) == 1


def test_e_c_picks_best_candidate_among_equal_signatures():
    learned = canonicalize([
        [term(2.0, [(0, "square", None), (1, "cos", 5.0)]),
         term(3.01, [(0, "square", None), (1, "cos", 2.51)])],
        [term(4.0, [(0, "id", None), (2, "id", None)])],
    ])
    score, _ = e_c(TRUE_EQ, learned)
    assert score < 1.0


def test_e_c_rejects_output_count_mismatch():
    other = canonicalize([[term(1.0, [(0, "id", None)])]])
    with pytest.raises(ValueError):
        e_c(TRUE_EQ, other)


def syn2_true_fit(c: float = 1.0):
    """The Syn2 generator as a network at its exact fit.  A sqrt takes no
    inner weight, so the summation weights hold sqrt's scale
    (sqrt(2.2*x1) == sqrt(2.2)*sqrt(x1)); each sqrt neuron's inner entry
    holds c, which the network ignores."""
    lib = make_library(datasets.SYN_LIBRARIES[2])   # sqrt id square log sin
    act = {(i, op): 5 * i + lib.names.index(op) for i in range(3) for op in lib.names}
    products = [                                     # per product: its factors
        [(0, "sqrt"), (1, "id")], [(0, "id"), (1, "square")],
        [(0, "sin"), (1, "log")], [(0, "sin"), (2, "sqrt")],
        [(2, "sqrt"), (0, "log")], [(0, "square")],
    ]
    z_mult = np.zeros((15, len(products)))
    for j, factors in enumerate(products):
        for f in factors:
            z_mult[act[f], j] = 1
    z_sum = np.zeros((len(products), 3))
    for j, out in enumerate((0, 0, 1, 1, 2, 2)):
        z_sum[j, out] = 1
    structure = three_layer_structure(lib, 3, z_mult, z_sum)
    w = init_weights(structure, 1.0)
    for f, v in (((0, "sqrt"), c), ((2, "sqrt"), c),
                 ((0, "sin"), 1.8), ((1, "log"), 3.0), ((0, "log"), 1.6)):
        w.inner[act[f]] = v
    for j, coefficient in ((0, 2.2 ** 0.5), (4, 3.7 ** 0.5)):
        w.summations[2][j, z_sum[j].argmax()] = coefficient
    return structure, w


@pytest.mark.parametrize("c", [1.0, 0.6, 1.9])
def test_e_c_zero_for_exact_syn2_fit_whatever_its_sqrt_scale(c):
    structure, w = syn2_true_fit(c)
    train, _ = datasets.gen_syn(2, 50, 10, 0)
    assert np.allclose(forward(structure, w, train.X), train.Y, rtol=1e-12)
    score, _ = e_c(datasets.syn_truth(2), extract_equation(structure, w))
    assert score == pytest.approx(0.0, abs=1e-9)
