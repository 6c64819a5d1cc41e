import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consol.datasets import (SYSTEMS, TRUTH_COEFF_THRESHOLD, Dataset, PowerSystemSpec,
                             add_noise, build_dataset, gen_massdamper, gen_power,
                             gen_syn, load_dataset, make_massdamper_spec,
                             make_power_spec, massdamper_truth, power_truth,
                             save_dataset, syn_truth)
from consol.equations import canonicalize, evaluate
from consol.q_learning import three_layer_space
from consol.symbols import make_library


def test_dataset_computes_sigma():
    ds = Dataset(np.ones((4, 1)), np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert ds.sigma_y[0] == pytest.approx(np.std([1, 2, 3, 4]))


def test_dataset_rejects_nan():
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 1)), np.array([[np.nan], [1.0]]))


@pytest.mark.parametrize("X, Y", [
    (np.ones((5, 1)), np.arange(5.0)),             # a 1-D Y
    (np.arange(5.0), np.ones((5, 1))),             # a 1-D X
    (np.ones((5, 1)), np.ones((5, 0))),            # outputs with no column
    (np.ones((5, 0)), np.ones((5, 1))),            # inputs with no column
])
def test_dataset_needs_rows_of_at_least_one_column(X, Y):
    # a fit would refuse such data only later, from inside the network
    with pytest.raises(ValueError, match="rows of at least one column"):
        Dataset(X, Y)


@pytest.mark.parametrize("scale, meta", [
    (1e155, {}),                            # np.std overflows to inf
    (1.0, {"sigma_y": [-1.0]}),
    (1.0, {"sigma_y": [float("inf")]}),
    (1.0, {"sigma_y": [float("nan")]}),
])
def test_dataset_rejects_a_sigma_y_that_is_not_finite_and_non_negative(scale, meta):
    x = np.linspace(1.0, 2.0, 50)[:, None]
    with pytest.raises(ValueError, match="sigma_y must be finite and non-negative"):
        Dataset(x, scale * x, meta)


@pytest.mark.parametrize("sigma_y", [[1.0, 1e9], [], 1.0, [[1.0]], "x", ["x"], {}])
def test_dataset_needs_one_sigma_y_per_output(sigma_y):
    # [1, 1e9] for one output would broadcast in nrmse and read an error
    # of 0.1 as 0.05
    x = np.linspace(1.0, 2.0, 50)[:, None]
    with pytest.raises(ValueError, match="sigma_y needs one number per output"):
        Dataset(x, x, {"sigma_y": sigma_y})


def test_gen_syn_is_deterministic_and_ranged():
    tr1, te1 = gen_syn(1, 50, 40, 7)
    tr2, te2 = gen_syn(1, 50, 40, 7)
    assert np.array_equal(tr1.X, tr2.X) and np.array_equal(te1.Y, te2.Y)
    assert tr1.X.min() >= 1.0 and tr1.X.max() <= 2.0
    assert te1.X.min() >= 3.0 and te1.X.max() <= 4.0
    assert tr1.n == 50 and te1.n == 40


def _syn_formula(which, X):
    """The Syn1/Syn2 systems written out as closed forms."""
    x1, x2, x3 = X.T
    if which == 1:
        return np.column_stack([3.0 * x1 ** 2 * np.cos(2.5 * x2), 4.0 * x1 * x3,
                                3.0 * x3 ** 2])
    return np.column_stack([
        np.sqrt(2.2 * x1) * x2 + x1 * x2 ** 2,
        np.sin(1.8 * x1) * (np.log(3.0 * x2) + np.sqrt(x3)),
        np.sqrt(3.7 * x3) * np.log(1.6 * x1) + x1 ** 2,
    ])


def _power_sums(spec, X):
    """The active and reactive injections (p_1, q_1, ..., p_M, q_M), summed
    node by node over the lines."""
    Y = np.zeros((len(X), 2 * spec.n_nodes))
    u, v = X[:, 0::2], X[:, 1::2]
    for i in range(spec.n_nodes):
        for m in range(spec.n_nodes):
            uu_vv = u[:, i] * u[:, m] + v[:, i] * v[:, m]
            vu_uv = v[:, i] * u[:, m] - u[:, i] * v[:, m]
            Y[:, 2 * i] += spec.G[i, m] * uu_vv + spec.B[i, m] * vu_uv
            Y[:, 2 * i + 1] += spec.G[i, m] * vu_uv - spec.B[i, m] * uu_vv
    return Y


def _assert_columns_close(Y, ref):
    """Each column within 1e-14 of its largest magnitude."""
    assert Y.shape == ref.shape
    assert (np.abs(Y - ref) <= 1e-14 * np.abs(ref).max(axis=0)).all()


def test_syn1_outputs_closed_form():
    X = np.array([[1.0, 2.0, 3.0]])
    y = evaluate(syn_truth(1), X)[0]
    assert y[0] == pytest.approx(3.0 * np.cos(5.0))
    assert y[1] == pytest.approx(12.0)
    assert y[2] == pytest.approx(27.0)


def test_syn2_outputs_closed_form():
    X = np.array([[1.5, 1.2, 1.8]])
    y = evaluate(syn_truth(2), X)[0]
    assert y == pytest.approx(_syn_formula(2, X)[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gen_syn_targets_are_the_closed_forms(seed):
    # Syn1's truth evaluates in the formula's order, so every bit agrees
    for split in gen_syn(1, 2000, 2000, seed):
        assert np.array_equal(split.Y, _syn_formula(1, split.X))
    for split in gen_syn(2, 2000, 2000, seed):
        _assert_columns_close(split.Y, _syn_formula(2, split.X))


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
    for n_nodes in (3, 4, 5):
        for seed in (0, 1, 2):
            spec = make_power_spec(n_nodes, seed)
            for voltage_range in ((1.0, 2.0), (3.0, 4.0), (-1.0, 1.0)):
                ds = gen_power(spec, 200, voltage_range, seed)
                _assert_columns_close(ds.Y, _power_sums(spec, ds.X))


def _ref_power_truth(spec):
    """power_truth with one filter loop per output kind, as it was written
    before its two term lists were built in one loop."""
    M = spec.n_nodes
    raw = []
    for i in range(M):
        p_terms, q_terms = [], []
        for m in range(M):
            u_i, v_i, u_m, v_m = 2 * i, 2 * i + 1, 2 * m, 2 * m + 1
            pairs = [
                (spec.G[i, m], (u_i, u_m)), (spec.G[i, m], (v_i, v_m)),
                (spec.B[i, m], (v_i, u_m)), (-spec.B[i, m], (u_i, v_m)),
            ]
            qairs = [
                (spec.G[i, m], (v_i, u_m)), (-spec.G[i, m], (u_i, v_m)),
                (-spec.B[i, m], (u_i, u_m)), (-spec.B[i, m], (v_i, v_m)),
            ]
            for coeff, idxs in pairs:
                if abs(coeff) > TRUTH_COEFF_THRESHOLD:
                    p_terms.append((coeff, [(a, ("id", None)) for a in idxs]))
            for coeff, idxs in qairs:
                if abs(coeff) > TRUTH_COEFF_THRESHOLD:
                    q_terms.append((coeff, [(a, ("id", None)) for a in idxs]))
        raw.append(p_terms)
        raw.append(q_terms)
    return canonicalize(raw, prune_threshold=TRUTH_COEFF_THRESHOLD)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_power_truth_matches_a_per_term_reference(n_nodes, seed):
    # diagonal entries, missing lines and coefficients at, just above and
    # below the threshold
    rng = np.random.default_rng(seed)
    picks = np.array([0.0, 1.0, -0.7, TRUTH_COEFF_THRESHOLD, 2 * TRUTH_COEFF_THRESHOLD,
                      0.5 * TRUTH_COEFF_THRESHOLD, -3e-13])
    shape = (n_nodes, n_nodes)
    G, B = (rng.choice(picks, shape) * np.where(rng.random(shape) < 0.5, 1.0,
                                                 rng.uniform(0.5, 1.5, shape))
            for _ in range(2))
    spec = PowerSystemSpec(np.triu(G) + np.triu(G, 1).T, np.triu(B) + np.triu(B, 1).T)
    truth, ref = power_truth(spec), _ref_power_truth(spec)
    assert truth == ref and truth.to_json_obj() == ref.to_json_obj()


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
    A = spec.system_matrix
    for split in (train, test):
        _assert_columns_close(split.Y, split.X @ A.T)
    assert train.n == test.n == 100


@pytest.mark.parametrize("n_nodes", [2, 4, 5])
@pytest.mark.parametrize("seed", [0, 7])
def test_massdamper_targets_are_a_q_along_the_transient(n_nodes, seed):
    # the settled test half holds only rounding, so the train half is checked
    spec = make_massdamper_spec(n_nodes, seed)
    train, _ = gen_massdamper(spec, seed)
    _assert_columns_close(train.Y, train.X @ spec.system_matrix.T)


@pytest.mark.parametrize("name", SYSTEMS)
def test_built_dataset_targets_are_the_truth_evaluated(name):
    train, test, truth = build_dataset(name, 3, n=50)
    for split in (train, test):
        assert np.array_equal(split.Y, evaluate(truth, split.X))


@pytest.mark.parametrize("name", SYSTEMS)
def test_each_systems_library_builds_a_search_space_for_its_data(name):
    train, _, _ = build_dataset(name, 0, n=20)
    library = make_library(SYSTEMS[name].library)
    n_in, n_out = train.X.shape[1], train.Y.shape[1]
    space = three_layer_space(library, n_in, n_out)
    assert space.layer_sizes == (n_in, n_in * len(library), 3 * n_out, n_out)


@pytest.mark.parametrize("n_nodes", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mas_test_split_is_a_transient(n_nodes, seed):
    # the tail of the train trajectory has settled to rounding (max|Y| < 5e-6)
    train, test, _ = build_dataset("mas", seed, n_nodes=n_nodes)
    assert (test.sigma_y > 1e-3).all()
    assert test.meta["split"] == "test" and test.meta["seed"] == seed + 1
    assert test.X.shape == train.X.shape


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
