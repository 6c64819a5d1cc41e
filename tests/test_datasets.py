import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consol.datasets import (Dataset, add_noise, gen_massdamper, gen_power,
                             gen_syn, load_dataset, make_massdamper_spec,
                             make_power_spec, massdamper_outputs,
                             massdamper_truth, power_outputs, power_truth,
                             save_dataset, syn_outputs, syn_truth)


def test_dataset_computes_sigma():
    ds = Dataset(np.ones((4, 1)), np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert ds.sigma_y[0] == pytest.approx(np.std([1, 2, 3, 4]))


def test_dataset_rejects_nan():
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 1)), np.array([[np.nan], [1.0]]))


def test_gen_syn_is_deterministic_and_ranged():
    tr1, te1 = gen_syn(1, 50, 40, 7)
    tr2, te2 = gen_syn(1, 50, 40, 7)
    assert np.array_equal(tr1.X, tr2.X) and np.array_equal(te1.Y, te2.Y)
    assert tr1.X.min() >= 1.0 and tr1.X.max() <= 2.0
    assert te1.X.min() >= 3.0 and te1.X.max() <= 4.0
    assert tr1.n == 50 and te1.n == 40


def test_syn1_outputs_closed_form():
    X = np.array([[1.0, 2.0, 3.0]])
    y = syn_outputs(1, X)[0]
    assert y[0] == pytest.approx(3.0 * np.cos(5.0))
    assert y[1] == pytest.approx(12.0)
    assert y[2] == pytest.approx(27.0)


def test_syn2_outputs_closed_form():
    X = np.array([[1.5, 1.2, 1.8]])
    x1, x2, x3 = X[0]
    y = syn_outputs(2, X)[0]
    assert y[0] == pytest.approx(np.sqrt(2.2 * x1) * x2 + x1 * x2 ** 2)
    assert y[1] == pytest.approx(np.sin(1.8 * x1) * (np.log(3.0 * x2) + np.sqrt(x3)))
    assert y[2] == pytest.approx(np.sqrt(3.7 * x3) * np.log(1.6 * x1) + x1 ** 2)


def test_syn_truth_term_counts():
    t1 = syn_truth(1)
    assert [len(terms) for terms in t1.outputs] == [1, 1, 1]
    t2 = syn_truth(2)
    assert [len(terms) for terms in t2.outputs] == [2, 2, 2]


def test_power_spec_symmetric_and_seeded():
    spec = make_power_spec(4, seed=3)
    assert np.array_equal(spec.G, spec.G.T)
    assert np.array_equal(spec.B, spec.B.T)
    spec2 = make_power_spec(4, seed=3)
    assert np.array_equal(spec.G, spec2.G)
    # chain lines always present
    for i in range(3):
        assert spec.G[i, i + 1] != 0.0


def test_power_outputs_match_per_node_sums():
    spec = make_power_spec(3, seed=0)
    rng = np.random.default_rng(1)
    X = rng.uniform(1.0, 2.0, (5, 6))
    Y = power_outputs(spec, X)
    # brute-force re-evaluation of the active/reactive sums
    for r in range(5):
        u = X[r, 0::2]
        v = X[r, 1::2]
        for i in range(3):
            p = sum(spec.G[i, m] * (u[i] * u[m] + v[i] * v[m])
                    + spec.B[i, m] * (v[i] * u[m] - u[i] * v[m]) for m in range(3))
            q = sum(spec.G[i, m] * (v[i] * u[m] - u[i] * v[m])
                    - spec.B[i, m] * (u[i] * u[m] + v[i] * v[m]) for m in range(3))
            assert Y[r, 2 * i] == pytest.approx(p)
            assert Y[r, 2 * i + 1] == pytest.approx(q)


def test_power_truth_predicts_outputs():
    spec = make_power_spec(3, seed=0)
    truth = power_truth(spec)
    assert truth.n_outputs == 6
    rng = np.random.default_rng(2)
    X = rng.uniform(1.0, 2.0, (4, 6))
    Y = power_outputs(spec, X)
    for r in range(4):
        for out, terms in enumerate(truth.outputs):
            val = 0.0
            for t in terms:
                prod = t.coefficient
                for inp, (op, w) in t.factors:
                    assert op in ("id", "square") and w is None
                    prod *= X[r, inp] ** (2 if op == "square" else 1)
                val += prod
            assert val == pytest.approx(Y[r, out])


def test_massdamper_chain_matrix():
    spec = make_massdamper_spec(4, seed=0)
    A = spec.system_matrix
    assert A.shape == (4, 4)
    # chain coupling: tridiagonal
    assert A[0, 2] == 0.0 and A[0, 3] == 0.0
    # momentum dissipation: eigenvalues have non-positive real part
    assert np.real(np.linalg.eigvals(A)).max() <= 1e-12


def test_massdamper_truth_matches_matrix():
    spec = make_massdamper_spec(3, seed=1)
    truth = massdamper_truth(spec)
    A = spec.system_matrix
    for i, terms in enumerate(truth.outputs):
        coeffs = {t.factors[0][0]: t.coefficient for t in terms}
        for j in range(3):
            if abs(A[i, j]) > 1e-12:
                assert coeffs[j] == pytest.approx(A[i, j])


def test_gen_massdamper_targets_are_exact_derivatives():
    spec = make_massdamper_spec(3, seed=2, duration=2.0)
    train, test = gen_massdamper(spec, seed=0)
    assert np.allclose(train.Y, massdamper_outputs(spec, train.X))
    assert train.n == test.n == 100


def test_gen_massdamper_splits_own_their_data():
    spec = make_massdamper_spec(3, seed=2, duration=2.0)
    train, test = gen_massdamper(spec, seed=0)
    for a in (train.X, train.Y, test.X, test.Y):
        assert a.base is None and a.flags.owndata
    for a in (train.X, train.Y):
        for b in (test.X, test.Y):
            assert not np.shares_memory(a, b)


def test_add_noise_hits_requested_snr():
    tr, _ = gen_syn(1, 5000, 10, 0)
    noisy = add_noise(tr, 20.0, seed=5)
    sig = np.sqrt(np.mean(tr.Y ** 2, axis=0))
    err = np.sqrt(np.mean((noisy.Y - tr.Y) ** 2, axis=0))
    measured = 20.0 * np.log10(sig / err)
    assert np.allclose(measured, 20.0, atol=0.5)
    assert np.array_equal(noisy.X, tr.X)
    assert noisy.meta["snr"] == 20.0


def test_save_load_roundtrip_exact(tmp_path):
    tr, _ = gen_syn(2, 20, 10, 3)
    path = str(tmp_path / "ds.csv")
    save_dataset(tr, path)
    back = load_dataset(path)
    assert np.array_equal(back.X, tr.X)
    assert np.array_equal(back.Y, tr.Y)
    assert back.meta["name"] == "syn2"


#: values whose text is easy to get wrong: signed zeros, subnormals, the
#: extremes of the exponent range and integers past 2**53
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300,
               1e-300, -1e-300, 1.7976931348623157e308, 2.0 ** 53 + 2, -(2.0 ** 60)]

_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(EDGE_VALUES),
                    st.integers(-2 ** 63, 2 ** 63).map(float))


def _reference_csv(ds):
    """The text of the writer that formats each value on its own."""
    n_in, n_out = ds.X.shape[1], ds.Y.shape[1]
    lines = [",".join([f"x{i + 1}" for i in range(n_in)] + [f"y{j + 1}" for j in range(n_out)])]
    lines += [",".join(format(v, ".17g") for v in list(x) + list(y))
              for x, y in zip(ds.X, ds.Y)]
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_save_dataset_writes_each_value_as_format_17g_and_reads_it_back(tmp_path_factory,
                                                                        data):
    n, n_in, n_out = (data.draw(st.integers(1, k)) for k in (5, 3, 3))
    X, Y = (np.array(data.draw(st.lists(st.lists(_values, min_size=c, max_size=c),
                                        min_size=n, max_size=n)))
            for c in (n_in, n_out))
    ds = Dataset(X, Y, {"sigma_y": [1.0] * n_out})     # no std of 1e300s
    path = str(tmp_path_factory.mktemp("csv") / "d.csv")
    save_dataset(ds, path)
    with open(path) as fh:
        assert fh.read() == _reference_csv(ds)
    back = load_dataset(path)
    # bit for bit, so -0.0 stays -0.0
    assert back.X.tobytes() == X.tobytes() and back.Y.tobytes() == Y.tobytes()
