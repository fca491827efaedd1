import ast
import math
from pathlib import Path

import numpy as np
import pytest

import cohkit
from cohkit.errors import (
    DegenerateTruncationError,
    InvalidArgumentsError,
    InvalidDimensionError,
    NotHermitianError,
    NotPositiveError,
    NotUnitaryError,
    NotUnitTraceError,
)
from cohkit.linalg import gram_defect, hermitian_eig
from cohkit.states import (
    MAX_AUDIT_DIM,
    DensityMatrix,
    DiagonalState,
    PureState,
    apply_unitary,
    glauber_truncated,
    haar_unitary,
    hadamard,
    kraus_stack,
    make_density,
    maximally_mixed,
    qubit_pair,
    dirichlet_stack,
    random_channel,
    random_density,
    require_probabilities,
    sample_generators,
)


def test_make_density_mixed():
    rho = make_density(np.eye(2) / 2)
    assert rho.dim == 2
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)


def test_make_density_diagonal():
    rho = make_density(np.diag([0.75, 0.25]))
    assert np.allclose(rho.matrix, np.diag([0.75, 0.25]), atol=1e-14)


def test_make_density_rejects_indefinite():
    m = np.array([[0.6, 0.6], [0.6, 0.4]])
    with pytest.raises(NotPositiveError):
        make_density(m)


def test_make_density_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        make_density(np.array([[0.5, 0.3], [0.0, 0.5]]))
    # the Hermiticity gate comes before the trace check
    with pytest.raises(NotHermitianError):
        make_density(np.array([[1.0, 0.3], [0.0, 1.0]]))


def test_make_density_rejects_bad_trace():
    with pytest.raises(NotUnitTraceError):
        make_density(np.eye(2))


def test_make_density_clamps_tiny_negative_eigenvalue():
    rho = make_density(np.diag([1.0 + 5e-11, -5e-11]))
    probs = rho.diagonal_probs()
    assert probs.min() >= 0.0
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_make_density_rectangular_rejected():
    with pytest.raises(Exception):
        make_density(np.zeros((2, 3)))


def test_apply_unitary_hadamard():
    rho = make_density(np.diag([0.75, 0.25]))
    out = apply_unitary(rho, hadamard())
    expected = 0.5 * np.array([[1.0, 0.5], [0.5, 1.0]])
    assert np.allclose(out.matrix, expected, atol=1e-12)


def test_apply_unitary_identity():
    rho = random_density(3, seed=4)
    out = apply_unitary(rho, np.eye(3))
    assert np.allclose(out.matrix, rho.matrix, atol=1e-14)


def test_apply_unitary_fixes_maximally_mixed():
    delta = maximally_mixed(2)
    out = apply_unitary(delta, hadamard())
    assert np.allclose(out.matrix, delta.matrix, atol=1e-12)


def test_apply_unitary_rejects_non_unitary():
    rho = maximally_mixed(2)
    with pytest.raises(NotUnitaryError):
        apply_unitary(rho, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_apply_unitary_dimension_mismatch():
    rho = maximally_mixed(2)
    with pytest.raises(Exception):
        apply_unitary(rho, np.eye(3))


def test_apply_unitary_preserves_spectrum():
    # eigenvalue multiset must survive conjugation across many random pairs
    rng = np.random.default_rng(21)
    dims = (2, 3, 4, 5, 6)
    for i in range(1000):
        d = dims[i % len(dims)]
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        u = haar_unitary(d, seed=int(rng.integers(0, 2**31)))
        before = hermitian_eig(rho.matrix).eigenvalues
        after = hermitian_eig(apply_unitary(rho, u).matrix).eigenvalues
        assert np.max(np.abs(before - after)) < 1e-9


def test_maximally_mixed():
    assert np.allclose(maximally_mixed(2).matrix, np.diag([0.5, 0.5]))
    assert np.allclose(maximally_mixed(1).matrix, [[1.0]])
    assert np.allclose(maximally_mixed(4).matrix, np.eye(4) / 4)
    with pytest.raises(InvalidDimensionError):
        maximally_mixed(0)


def test_qubit_pair_alpha_zero():
    rz, rx = qubit_pair(0.0)
    assert np.allclose(rz.matrix, np.diag([1.0, 0.0]), atol=1e-14)
    assert np.allclose(rx.matrix, np.full((2, 2), 0.5), atol=1e-14)


def test_qubit_pair_alpha_quarter_pi():
    rz, rx = qubit_pair(math.pi / 4)
    assert np.allclose(rz.matrix, np.eye(2) / 2, atol=1e-14)
    assert np.allclose(rx.matrix, np.eye(2) / 2, atol=1e-14)


def test_qubit_pair_alpha_sixth_pi():
    rz, rx = qubit_pair(math.pi / 6)
    assert np.allclose(rz.matrix, np.diag([0.75, 0.25]), atol=1e-14)
    assert np.allclose(rx.matrix, 0.5 * np.array([[1.0, 0.5], [0.5, 1.0]]), atol=1e-14)


def test_glauber_vacuum():
    for d in (1, 2, 5):
        psi = glauber_truncated(0.0, d)
        expected = np.zeros(d, dtype=complex)
        expected[0] = 1.0
        assert np.allclose(psi.amplitudes, expected)


def test_glauber_unit_amplitude_d2():
    psi = glauber_truncated(1.0, 2)
    assert np.allclose(psi.amplitudes, np.full(2, 1 / math.sqrt(2)), atol=1e-15)


def test_glauber_unit_amplitude_d3():
    psi = glauber_truncated(1.0, 3)
    expected = np.array([1.0, 1.0, 1 / math.sqrt(2)]) / math.sqrt(2.5)
    assert np.allclose(psi.amplitudes, expected, atol=1e-15)
    assert psi.amplitudes[0] == pytest.approx(0.6324555320336759, abs=1e-15)
    assert psi.amplitudes[2] == pytest.approx(0.4472135954999579, abs=1e-15)


def test_glauber_complex_amplitude():
    a = 0.5 + 0.5j
    psi = glauber_truncated(a, 3)
    ref = np.array([1.0, a, a * a / math.sqrt(2)], dtype=complex)
    ref = ref / np.linalg.norm(ref)
    assert np.allclose(psi.amplitudes, ref, atol=1e-12)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_glauber_degenerate_truncation():
    with pytest.raises(DegenerateTruncationError):
        glauber_truncated(30.0, 2)
    # |a|^2 overflows to inf, and |a| itself beyond the double range
    for a in (1e200, complex(1.7e308, 1.7e308)):
        with pytest.raises(DegenerateTruncationError):
            glauber_truncated(a, 3)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(0.0, math.inf)])
def test_glauber_rejects_non_finite_amplitude(a):
    with pytest.raises(InvalidArgumentsError):
        glauber_truncated(a, 3)


def test_glauber_invalid_dimension():
    with pytest.raises(InvalidDimensionError):
        glauber_truncated(1.0, 0)


# Each sized constructor as a function of the size it takes. The size-257 test
# runs before the test of sizes numpy cannot allocate, so that a dropped bound
# fails there first and, under pytest -x, nothing large is allocated.
SIZED = {
    "maximally_mixed": maximally_mixed,
    "glauber_truncated": lambda n: glauber_truncated(1.0, n),
    "random_density": lambda n: random_density(n, 0),
    "haar_unitary": lambda n: haar_unitary(n, 0),
    "random_channel-d": lambda n: random_channel("general_tp", n),
    "random_channel-k": lambda n: random_channel("general_tp", 2, k=n),
}


@pytest.mark.parametrize("name", SIZED)
def test_sized_constructors_reject_a_size_above_max_audit_dim(name):
    assert MAX_AUDIT_DIM == 256
    with pytest.raises(InvalidDimensionError, match=r" must be an integer from 1 to 256, got 257$"):
        SIZED[name](257)


def test_sized_constructors_build_at_max_audit_dim():
    assert maximally_mixed(256).dim == 256
    assert glauber_truncated(1.0, 256).amplitudes.shape == (256,)
    assert random_channel("general_tp", 2, k=256).operators.shape == (256, 2, 2)


@pytest.mark.parametrize("name, n", [("maximally_mixed", 10**6), ("glauber_truncated", 10**11),
                                     ("random_density", 10**5), ("haar_unitary", 10**5),
                                     ("random_channel-k", 10**9)])
def test_sized_constructors_reject_sizes_numpy_cannot_allocate(name, n):
    # 14.6 TiB, 745 GiB, 149 GiB, 149 GiB and 59.6 GiB without the bound
    with pytest.raises(InvalidDimensionError, match=f"got {n}$"):
        SIZED[name](n)


def test_states_imports_only_linalg_and_errors_of_the_package():
    tree = ast.parse(Path(cohkit.states.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):  # nested function bodies included
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported |= {base} if node.module else {base + alias.name for alias in node.names}
    assert {name for name in imported if name.startswith((".", "cohkit"))} == {".linalg", ".errors"}
    assert not any("channels" in name for name in imported)


def test_kraus_set_and_max_audit_dim_are_defined_once_in_states():
    assert cohkit.KrausSet is cohkit.states.KrausSet is cohkit.channels.KrausSet
    assert cohkit.channels.MAX_AUDIT_DIM == MAX_AUDIT_DIM
    sources = {path.name: path.read_text(encoding="utf-8") for path in Path(cohkit.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "\nclass KrausSet" in text] == ["states.py"]
    assert [name for name, text in sources.items() if "\nMAX_AUDIT_DIM = " in text] == ["states.py"]


def test_random_density_validates():
    for d in (1, 2, 3, 5):
        rho = random_density(d, seed=7)
        checked = make_density(rho.matrix)
        assert checked.dim == d
    assert np.allclose(random_density(1, seed=0).matrix, [[1.0]])


def test_random_density_deterministic():
    a = random_density(3, seed=7)
    b = random_density(3, seed=7)
    assert np.array_equal(a.matrix, b.matrix)
    c = random_density(3, seed=8)
    assert not np.array_equal(a.matrix, c.matrix)


def test_haar_unitary_contract():
    for d in (1, 2, 4, 6):
        u = haar_unitary(d, seed=3)
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) < 1e-10
    assert abs(abs(haar_unitary(1, seed=5)[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_deterministic():
    a = haar_unitary(4, seed=9)
    b = haar_unitary(4, seed=9)
    assert np.array_equal(a, b)


def test_diagonal_state_roundtrip():
    delta = DiagonalState(probs=np.array([0.3, 0.7]))
    rho = delta.to_density()
    assert np.allclose(rho.matrix, np.diag([0.3, 0.7]))


def test_pure_state_roundtrip():
    psi = PureState(amplitudes=np.array([1.0, 1.0]) / math.sqrt(2))
    rho = psi.to_density()
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5))
    checked = make_density(rho.matrix)
    assert checked.dim == 2


def test_random_channel_completeness():
    for kind in ("unital_mixture", "diagonal_incoherent", "general_tp"):
        for seed in range(5):
            ks = random_channel(kind, d=3, k=3, seed=seed)
            assert gram_defect(ks.operators) < 1e-10


def test_random_channel_unital_mixture_fixes_mixed_state():
    from cohkit.channels import apply_channel

    delta = maximally_mixed(3)
    for seed in range(5):
        ks = random_channel("unital_mixture", d=3, k=4, seed=seed)
        out = apply_channel(ks, delta)
        assert np.linalg.norm(out.matrix - delta.matrix) < 1e-10


def test_random_channel_single_unitary():
    ks = random_channel("unital_mixture", d=3, k=1, seed=2)
    u = ks.operators[0]
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-10


def test_random_channel_diagonal_structure():
    from cohkit.channels import apply_channel

    rho = make_density(np.diag([0.3, 0.7]))
    for seed in range(10):
        ks = random_channel("diagonal_incoherent", d=2, k=3, seed=seed)
        out = apply_channel(ks, rho)
        off = out.matrix - np.diag(np.diag(out.matrix))
        assert np.max(np.abs(off)) < 1e-12
        for op in ks.operators:
            # structural incoherence: at most one nonzero entry per column
            assert np.all((np.abs(op) > 1e-12).sum(axis=0) <= 1)


def test_random_channel_diagonal_preserves_diagonal_states():
    from cohkit.channels import apply_channel

    rng = np.random.default_rng(14)
    for seed in range(10):
        d = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(d))
        rho = make_density(np.diag(probs))
        ks = random_channel("diagonal_incoherent", d=d, k=int(rng.integers(1, 5)), seed=seed)
        out = apply_channel(ks, rho)
        off = out.matrix - np.diag(np.diag(out.matrix))
        assert np.max(np.abs(off)) < 1e-12


def test_random_channel_general_tp():
    ks = random_channel("general_tp", d=3, k=2, seed=1)
    total = sum(op.conj().T @ op for op in ks.operators)
    assert np.linalg.norm(total - np.eye(3)) < 1e-10


def test_random_channel_deterministic():
    a = random_channel("general_tp", d=3, k=2, seed=6)
    b = random_channel("general_tp", d=3, k=2, seed=6)
    for x, y in zip(a.operators, b.operators):
        assert np.array_equal(x, y)


def test_random_channel_unknown_kind():
    with pytest.raises(InvalidArgumentsError):
        random_channel("dephasing", d=2, k=1, seed=0)
    rng = np.random.default_rng(4)
    with pytest.raises(InvalidArgumentsError):
        kraus_stack("dephasing", 2, np.array([1]), [rng], 1)
    # nothing was drawn before the error
    assert rng.standard_normal() == np.random.default_rng(4).standard_normal()


def test_density_matrix_holds_private_read_only_copy():
    m = np.eye(2, dtype=complex) / 2
    r = DensityMatrix(m)
    m[0, 0] = 7
    assert r.matrix[0, 0] == 0.5
    with pytest.raises(ValueError):
        r.matrix[0, 0] = 1


def test_require_probabilities_gates_every_vector_of_a_stack():
    good = np.array([[0.25, 0.75], [1.0 + 5e-13, -5e-13]])
    assert np.array_equal(require_probabilities(good), [[0.25, 0.75], [1.0 + 5e-13, 0.0]])
    with pytest.raises(NotPositiveError):
        require_probabilities(np.array([[0.5, 0.5], [1.0 + 2e-12, -2e-12]]))
    with pytest.raises(NotUnitTraceError):
        require_probabilities(np.array([[0.5, 0.5], [0.5, 0.5 + 2e-12]]))
    with pytest.raises(NotPositiveError):
        require_probabilities(np.array([[0.5, 0.5], [math.nan, 1.0]]))


# The samplers as they drew before they were stacked, one RNG call and one
# QR at a time: a Ginibre matrix is a standard_normal call for its real
# parts, then one for its imaginary parts.
def _ref_ginibre(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)


def _ref_isometry(rng, rows, cols):
    q, r = np.linalg.qr(_ref_ginibre(rng, rows, cols))
    diag = np.diag(r)
    return q * np.where(np.abs(diag) < 1e-300, 1.0, diag / np.abs(diag))


def _ref_density(rng, d):
    g = _ref_ginibre(rng, d, d)
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / float(m.trace().real)


def _ref_channel(rng, kind, d, k):
    if kind == "unital_mixture":
        probs = rng.dirichlet(np.ones(k))
        return np.sqrt(probs)[:, None, None] * np.stack([_ref_isometry(rng, d, d) for _ in range(k)])
    if kind == "diagonal_incoherent":
        rows = [rng.permutation(d) for _ in range(k)]
        amp = _ref_ginibre(rng, k, d)
        amp = amp / np.linalg.norm(amp, axis=0)
        ops = np.zeros((k, d, d), dtype=complex)
        for n in range(k):
            ops[n, rows[n], np.arange(d)] = amp[n]
        return ops
    return _ref_isometry(rng, k * d, d).reshape(k, d, d)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_samplers_match_per_call_reference_bitwise(d):
    kinds = ("unital_mixture", "diagonal_incoherent", "general_tp")
    for seed in range(20):
        assert np.array_equal(random_density(d, seed).matrix, _ref_density(np.random.default_rng(seed), d))
        assert np.array_equal(haar_unitary(d, seed), _ref_isometry(np.random.default_rng(seed), d, d))
        for kind in kinds:
            for k in range(1, 5):
                ops = random_channel(kind, d, k, seed).operators
                assert np.array_equal(ops, _ref_channel(np.random.default_rng(seed), kind, d, k)), (kind, k)
        # one stream shared by consecutive calls draws in call order
        stream, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(random_density(d, stream).matrix, _ref_density(ref, d))
        assert np.array_equal(haar_unitary(d, stream), _ref_isometry(ref, d, d))
        for kind in kinds:
            assert np.array_equal(random_channel(kind, d, 3, stream).operators, _ref_channel(ref, kind, d, 3))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_kraus_stack_draws_each_set_on_its_own_generator(d):
    # 20 channels, k = 1-4 five times each in shuffled order, so general_tp
    # groups by k across non-adjacent sets
    ks = np.random.default_rng(d).permutation(np.repeat(np.arange(1, 5), 5))
    for kind in ("unital_mixture", "diagonal_incoherent", "general_tp"):
        ops = kraus_stack(kind, d, ks, [np.random.default_rng(seed) for seed in range(20)], 4)
        assert ops.shape == (20, 4, d, d)
        for seed, k in enumerate(ks):
            assert np.array_equal(ops[seed, :k], random_channel(kind, d, int(k), seed).operators), (kind, seed)
            assert not ops[seed, k:].any(), (kind, seed)


# 10**40 has five 32-bit words, so with the index the entropy overflows the
# four-word pool and the extra mixing rounds run
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 9, 2**96 + 3, 10**40]


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_generators_equal_default_rng(seed):
    # blocks of two or more catch seed words that are not C-contiguous per
    # sample: PCG64 reads them without a layout check and seeds silently wrong
    for start in (0, 2**32 - 1820):
        for n in (1, 2, 3, 100, 1820):
            indices = range(start, start + n)
            rngs = sample_generators(seed, indices)
            assert len(rngs) == n
            for i, rng in zip(indices, rngs):
                ref = np.random.default_rng([seed, i])
                assert rng.bit_generator.state == ref.bit_generator.state, (start, n, i)
                assert np.array_equal(rng.random(3), ref.random(3)), (start, n, i)


def test_dirichlet_stack_equals_generator_dirichlet():
    for k in range(1, 9):
        rngs = sample_generators(k, range(20))
        weights = dirichlet_stack(rngs, np.full(20, k), k)
        for i, rng in enumerate(rngs):
            ref = np.random.default_rng([k, i])
            assert np.array_equal(weights[i], ref.dirichlet(np.ones(k))), (k, i)
            # the same number of draws was taken
            assert rng.random() == ref.random(), (k, i)
    ks = np.random.default_rng(4).integers(1, 5, size=30)
    weights = dirichlet_stack(sample_generators(4, range(30)), ks, 4)
    assert weights.shape == (30, 4)
    for i, k in enumerate(ks):
        assert np.array_equal(weights[i, :k], np.random.default_rng([4, i]).dirichlet(np.ones(k))), i
        assert not weights[i, k:].any(), i
