import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from ccnet import (
    FiniteOperator,
    ModelParams,
    band_grid,
    band_symbol,
    build_cylinder_operator,
    build_full_cylinder_operator,
    build_parity_operators,
    determinant_identity_residual,
    dos_moments,
    eigendecompose,
    eigenvector_decay_fit,
    krylov_rank,
    ks_statistic,
    sample_node_phases,
    sample_phase_field,
)
from ccnet import spectral
from ccnet.spectral import (
    DESK_SCALE_CAP,
    EigensolverError,
    _schur_decompose,
)


# ---------------------------------------------------------------------------
# eigendecomposition


def test_eigendecompose_ring_shift(lopsided):
    # L = 0: the bare ring shift, whose spectrum is the 2M-th roots of unity
    op = build_cylinder_operator(lopsided, sample_phase_field(1, 0, 2), 0, 2)
    spec = eigendecompose(op)
    assert np.allclose(spec.eigenphases, [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-10)
    assert np.max(np.abs(np.abs(spec.eigenvalues) - 1.0)) <= 1e-10


def test_eigendecompose_charpoly_oracle(lopsided):
    # oracle: roots of the characteristic polynomial of the dense matrix
    op = build_cylinder_operator(lopsided, sample_phase_field(3, 1, 1), 1, 1)
    spec = eigendecompose(op)
    roots = np.roots(np.poly(op.matrix.toarray()))
    assert np.allclose(
        np.sort(np.mod(np.angle(roots), 2 * np.pi)), spec.eigenphases, atol=1e-8
    )


def test_eigendecompose_residuals_and_modulus(lopsided):
    op = build_cylinder_operator(lopsided, sample_phase_field(7, 2, 2), 2, 2)
    indices = range(0, op.dim, 7)
    spec = eigendecompose(op, indices)
    dense = op.matrix.toarray()
    for v, idx in zip(spec.eigenvectors.T, indices):
        res = np.linalg.norm(dense @ v - spec.eigenvalues[idx] * v)
        assert res <= 1e-8 * np.linalg.norm(v)
    assert np.mean(np.abs(spec.eigenvalues) ** 2) == pytest.approx(1.0, abs=1e-8)


def test_eigendecompose_cap(lopsided):
    # (4L + 1) 2M = 4020 > DESK_SCALE_CAP; the cap binds the dense Schur
    # solve alone, and is checked before it densifies anything
    op = build_cylinder_operator(lopsided, sample_phase_field(1, 50, 10), 50, 10)
    assert op.dim == 4020 > DESK_SCALE_CAP
    with pytest.raises(ValueError, match="desk-scale cap"):
        _schur_decompose(op, None)
    spec = eigendecompose(op, want_vectors=False)
    assert spec.solver == "banded" and spec.dim == op.dim
    assert np.all(np.diff(spec.eigenphases) >= 0.0)


def _phases_from_cut(evals, reference):
    """Sorted phases measured from the middle of the widest gap of ``reference``.

    Cutting the circle there keeps every eigenvalue away from the branch cut,
    so phases near 0 and near 2pi cannot swap ends between two solvers.
    """
    ref = np.sort(np.mod(np.angle(reference), 2 * np.pi))
    gaps = np.diff(np.r_[ref, ref[0] + 2 * np.pi])
    widest = int(np.argmax(gaps))
    cut = ref[widest] + gaps[widest] / 2
    return np.sort(np.mod(np.angle(evals) - cut, 2 * np.pi))


@pytest.mark.parametrize("L", [0, 1, 3, 6])
@pytest.mark.parametrize("M", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [0.0, 0.3, 0.6, math.sqrt(0.5), 0.95, 1.0])
def test_eigendecompose_matches_eig_oracle(r, M, L):
    op = build_cylinder_operator(ModelParams.from_r(r), sample_phase_field(3, L, M), L, M)
    dense = op.matrix.toarray()
    oracle = np.linalg.eig(dense)[0]
    spec = _schur_decompose(op, np.arange(op.dim))
    got = _phases_from_cut(spec.eigenvalues, oracle)
    assert np.max(np.abs(got - _phases_from_cut(oracle, oracle))) <= 1e-12
    vecs = spec.eigenvectors
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(op.dim))) <= 1e-12
    residuals = np.linalg.norm(dense @ vecs - vecs * spec.eigenvalues, axis=0)
    assert residuals.max() <= 1e-10
    assert spec.max_residual <= 1e-10
    values_only = eigendecompose(op, want_vectors=False)
    assert values_only.eigenvectors is None
    got = _phases_from_cut(values_only.eigenvalues, oracle)
    assert np.max(np.abs(got - _phases_from_cut(oracle, oracle))) <= 1e-12
    assert values_only.max_residual <= 1e-10
    # L = 0 is the ring shift; its block BA has the M-th roots of unity,
    # which come in mirror pairs +-phi once M > 2; at M = 2 the pair
    # {0, pi} has no lever at centre 0 and is taken once, from centre 1
    mirrored = L == 0 and M > 2
    assert values_only.solver == ("schur" if mirrored else "banded")


def _normal_operator(thetas, seed, matrix_scale=1.0):
    """A FiniteOperator (L = 2, M = 1) whose matrix is Q diag(e^{i theta}) Q^*."""
    rng = np.random.default_rng(seed)
    n = 2 * (4 * 2 + 1)
    assert len(thetas) == n
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    dense = matrix_scale * (q * np.exp(1j * np.asarray(thetas))) @ q.conj().T
    return FiniteOperator(
        L=2, M=1, params=ModelParams.from_r(0.6), matrix=sparse.csr_matrix(dense)
    )


def _site_parity(L, M):
    """(column + ring) mod 2 of every site of the (L, M) window, in flat order."""
    column, ring = np.divmod(np.arange(2 * M * (4 * L + 1)), 2 * M)
    return (column - 2 * L + ring) % 2


def _bipartite_operator(block_phases, seed):
    """A FiniteOperator (L = 2, M = 1) that joins only sites of opposite parity.

    In sublattice order it is [[0, B], [A, 0]] with A a random unitary and
    BA = Q diag(e^{i phi}) Q^*, so its phases are phi/2 and phi/2 + pi for
    each phi in ``block_phases``.
    """
    rng = np.random.default_rng(seed)
    half = 4 * 2 + 1
    assert len(block_phases) == half
    q, a = (
        np.linalg.qr(rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half)))[0]
        for _ in range(2)
    )
    ba = (q * np.exp(1j * np.asarray(block_phases))) @ q.conj().T
    dense = np.zeros((2 * half, 2 * half), dtype=complex)
    parity = _site_parity(2, 1)
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
    dense[np.ix_(odd, even)] = a
    dense[np.ix_(even, odd)] = ba @ a.conj().T
    return FiniteOperator(
        L=2, M=1, params=ModelParams.from_r(0.6), matrix=sparse.csr_matrix(dense)
    )


def _lifted(block_phases):
    """The phases phi/2 and phi/2 + pi of a bipartite operator with block phases phi."""
    half = np.asarray(block_phases) / 2
    return np.r_[half, half + np.pi]


@pytest.mark.parametrize("L", range(4))
@pytest.mark.parametrize("M", range(1, 5))
@pytest.mark.parametrize("r", [0.0, 0.6, 1.0])
def test_every_entry_joins_opposite_parities(r, M, L):
    # the premise of the sublattice split: U = [[0, B], [A, 0]] in parity order
    params = ModelParams.from_r(r)
    for op in (
        build_cylinder_operator(params, sample_phase_field(5, L, M), L, M),
        build_full_cylinder_operator(params, sample_node_phases(5, L, M), L, M),
    ):
        coo = op.matrix.tocoo()
        parity = _site_parity(L, M)
        assert coo.nnz > 0 and np.all(parity[coo.row] != parity[coo.col])


def test_equal_parity_entry_takes_the_schur_form(caplog):
    op = build_cylinder_operator(ModelParams.from_r(0.6), sample_phase_field(2, 2, 2), 2, 2)
    want = eigendecompose(op).eigenvalues
    dense = op.matrix.toarray()
    dense[0, 0] = 1e-14  # site 0 and itself: one entry of equal parity
    joined = FiniteOperator(L=2, M=2, params=op.params, matrix=sparse.csr_matrix(dense))
    with caplog.at_level(logging.INFO, logger="ccnet.spectral"):
        spec = eigendecompose(joined, want_vectors=False)
    assert spec.solver == "schur"
    (record,) = caplog.records
    assert record.levelno == logging.INFO and "equal parity" in record.message
    got = _phases_from_cut(spec.eigenvalues, want)
    assert np.max(np.abs(got - _phases_from_cut(want, want))) <= 1e-12


def _assert_exact_spectrum(op, thetas):
    expected = np.exp(1j * np.asarray(thetas))
    for want_vectors in (False, range(op.dim)):
        spec = eigendecompose(op, want_vectors=want_vectors)
        got = _phases_from_cut(spec.eigenvalues, expected)
        assert np.max(np.abs(got - _phases_from_cut(expected, expected))) <= 1e-12
        assert spec.max_residual <= 1e-10


def test_eigendecompose_separates_mirror_pairs(caplog):
    # phi and -phi of BA share one level of the centre-0 band matrix, so the
    # banded path cannot certify them and the Schur form answers
    rng = np.random.default_rng(41)
    half = 2 * np.pi * rng.random(4)
    block = np.r_[half, -half, 0.5]
    op = _bipartite_operator(block, 1)
    with caplog.at_level(logging.INFO, logger="ccnet.spectral"):
        assert eigendecompose(op).solver == "schur"
    assert "phases confirmed, expected 9" in caplog.text
    _assert_exact_spectrum(op, _lifted(block))


def test_eigendecompose_repeated_eigenvalue():
    rng = np.random.default_rng(43)
    thetas = np.r_[np.full(5, 1.234), 2 * np.pi * rng.random(13)]
    _assert_exact_spectrum(_normal_operator(thetas, 2), thetas)


@pytest.mark.parametrize("vectors", [False, True])
def test_eigendecompose_gates_reject_non_unitary(vectors):
    thetas = 2 * np.pi * np.random.default_rng(47).random(18)
    want_vectors = range(18) if vectors else False
    scaled = _normal_operator(thetas, 3, matrix_scale=1.5)
    with pytest.raises(EigensolverError, match="unit circle"):
        eigendecompose(scaled, want_vectors=want_vectors)
    skewed = _normal_operator(thetas, 3)
    dense = skewed.matrix.toarray()
    dense[0, 1] += 0.1
    non_normal = FiniteOperator(L=2, M=1, params=skewed.params, matrix=sparse.csr_matrix(dense))
    with pytest.raises(EigensolverError, match="residual"):
        eigendecompose(non_normal, want_vectors=want_vectors)


@settings(max_examples=100, deadline=None)
@given(
    r=st.floats(0.0, 1.0),
    M=st.integers(1, 5),
    L=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
# a subnormal r: on unflushed subnormal band entries the band solve misses a
# phase by 1.2e-11 (seed 0) or loses two phases (seed 868754)
@example(r=2.2250738585e-313, M=1, L=1, seed=0)
@example(r=2.2250738585e-313, M=1, L=1, seed=868754)
def test_banded_eigenphases_match_schur(r, M, L, seed):
    op = build_cylinder_operator(ModelParams.from_r(r), sample_phase_field(seed, L, M), L, M)
    banded = eigendecompose(op, want_vectors=False)
    schur = _schur_decompose(op, None)
    assert banded.solver == "banded" and banded.dim == op.dim
    got = _phases_from_cut(banded.eigenvalues, schur.eigenvalues)
    want = _phases_from_cut(schur.eigenvalues, schur.eigenvalues)
    assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    r=st.floats(0.0, 1.0),
    M=st.integers(1, 5),
    L=st.integers(1, 25),
    seed=st.integers(0, 2**32 - 1),
)
# the subnormal r of the test above, on both band paths
@example(r=2.2250738585e-313, M=1, L=1, seed=0)
@example(r=2.2250738585e-313, M=1, L=1, seed=868754)
def test_sublattice_split_matches_full_band_solve(r, M, L, seed):
    op = build_cylinder_operator(ModelParams.from_r(r), sample_phase_field(seed, L, M), L, M)
    split, _ = spectral._sublattice_eigenphases(op)
    full, _ = spectral._banded_eigenphases(op.matrix)
    got = _phases_from_cut(np.exp(1j * split), np.exp(1j * full))
    want = _phases_from_cut(np.exp(1j * full), np.exp(1j * full))
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize(
    "r, M, L, fits",
    [
        (0.6, 3, 25, 0),  # the dos-eigvals operator
        (0.6, 2, 24, 0),  # the wide det-window operator
        (0.95, 2, 50, 64),  # the decay-eigvecs operator, with decay's 67 vectors
    ],
    ids=["0.6-3-25", "0.6-2-24", "0.95-2-50"],
)
def test_benchmark_operators_take_banded_path(r, M, L, fits, caplog):
    caplog.set_level(logging.INFO, logger="ccnet.spectral")
    for seed in range(1, 5):
        op = build_cylinder_operator(ModelParams.from_r(r), sample_phase_field(seed, L, M), L, M)
        # the indices cmd_decay fits at --max-fits 64
        indices = range(0, op.dim, op.dim // fits) if fits else False
        spec = eigendecompose(op, want_vectors=indices)
        assert spec.solver == "banded"
        assert spec.max_residual <= 1e-12
        if fits:
            assert spec.eigenvectors.shape == (op.dim, 67)
    assert not caplog.records


def test_fallback_to_schur_is_logged(caplog):
    # the block BA of the L = 0, M = 3 ring shift has the mirror pair
    # +-2pi/3 at centre 0
    op = build_cylinder_operator(ModelParams.from_r(0.6), sample_phase_field(1, 0, 3), 0, 3)
    with caplog.at_level(logging.INFO, logger="ccnet.spectral"):
        spec = eigendecompose(op, want_vectors=False)
    assert spec.solver == "schur"
    assert np.allclose(spec.eigenphases, np.arange(6) * np.pi / 3, atol=1e-10)
    (record,) = caplog.records
    assert record.levelno == logging.INFO and "4 phases confirmed, expected 3" in record.message


@pytest.mark.parametrize(
    "seed, confirmed",
    [
        # a mirror candidate 1.1e-9 rad from the mirror of a true phase
        # about the other centre matches its level to 6.1e-11
        (601083, 806),
        # a pair of phases nearly mirror about centre 1: each one's mirror
        # candidate lies 9.8e-11 rad from the other and matches to 7.3e-11
        (5104, 808),
    ],
)
def test_over_count_is_retried_at_the_tight_match(seed, confirmed, monkeypatch, caplog):
    op = build_cylinder_operator(ModelParams.from_r(0.95), sample_phase_field(seed, 50, 2), 50, 2)
    with caplog.at_level(logging.INFO, logger="ccnet.spectral"):
        banded = eigendecompose(op, want_vectors=False)
    assert banded.solver == "banded" and not caplog.records
    assert banded.max_residual <= 1e-13
    schur = _schur_decompose(op, None)
    got = _phases_from_cut(banded.eigenvalues, schur.eigenvalues)
    want = _phases_from_cut(schur.eigenvalues, schur.eigenvalues)
    assert np.max(np.abs(got - want)) <= 1e-12
    # these mirror candidates arise in the band solve of U, the oracle of the
    # sublattice split; without the retry it does not certify them
    monkeypatch.setattr(spectral, "_LEVEL_MATCH_RETRY", spectral._LEVEL_MATCH)
    with pytest.raises(spectral._NotCertified, match=f"{confirmed} phases confirmed"):
        spectral._banded_eigenphases(op.matrix)


@pytest.mark.parametrize(
    "offset, confirmed",
    [
        # each phase's mirror candidate about centre 1 lies 9.8e-11 rad from
        # the other phase and matches its centre-0 level to 2e-11 and 8e-11
        (9.8e-11, 11),
        # at 2e-10 rad only the first mirror candidate matches (4e-11)
        (2e-10, 10),
    ],
)
def test_split_over_count_is_retried_at_the_tight_match(offset, confirmed, monkeypatch, caplog):
    # two phases of BA nearly mirror about centre 1, as in seed 5104 above
    block = np.r_[2.2, 2.0 - 2.2 + offset, 2 * np.pi * np.random.default_rng(5).random(7)]
    op = _bipartite_operator(block, 5)
    with caplog.at_level(logging.INFO, logger="ccnet.spectral"):
        banded = eigendecompose(op, want_vectors=False)
    assert banded.solver == "banded" and not caplog.records
    assert banded.max_residual <= 1e-13
    _assert_exact_spectrum(op, _lifted(block))
    # without the retry the split does not certify the operator
    monkeypatch.setattr(spectral, "_LEVEL_MATCH_RETRY", spectral._LEVEL_MATCH)
    with pytest.raises(spectral._NotCertified, match=f"{confirmed} phases confirmed"):
        spectral._sublattice_eigenphases(op)


def _aligned_gaps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Largest entry of each column of got - want once got takes want's phase."""
    overlap = np.einsum("ij,ij->j", got.conj(), want)
    return np.max(np.abs(got * (overlap / np.abs(overlap)) - want), axis=0)


def _decay_statuses(spec, indices):
    return [eigenvector_decay_fit(spec, k).status for k in indices]


def _dense_shifted_vectors(dense, shifts):
    """Two dense solves of (sigma - U) x = b per shift sigma: from a fixed start b, then from x.

    Each shift is a computed eigenvalue, so the first solve returns its
    eigenvector up to a tail that follows the last bits of the shift; the
    second solve shrinks that tail to rounding.  Returns the unit columns x
    and their Rayleigh quotients x* U x.
    """
    import scipy.linalg

    n = len(dense)
    b = np.random.default_rng(0).standard_normal(n)
    columns = []
    for sigma in shifts:
        lu = scipy.linalg.lu_factor(sigma * np.eye(n) - dense)
        x = scipy.linalg.lu_solve(lu, b)
        columns.append(scipy.linalg.lu_solve(lu, x / np.linalg.norm(x)))
    x = np.column_stack(columns)
    x /= np.linalg.norm(x, axis=0)
    return x, np.einsum("ij,ij->j", x.conj(), dense @ x)


@settings(max_examples=30, deadline=None)
@given(
    r=st.sampled_from([0.3, 0.6, math.sqrt(0.5), 0.95]),
    M=st.integers(1, 3),
    L=st.integers(2, 25),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12),
)
# phase 158 has a neighbour 1.48e-5 away (see the close-pair test below)
@example(r=math.sqrt(0.5), M=2, L=22, seed=7636235, picks=[0.4453125])
# one dense solve at the banded eigenvalue lands 3.1e-13 from the Schur
# vector, enough to read "not localized"; the banded vector is 2.1e-15 away
@example(r=0.95, M=1, L=21, seed=1520, picks=[0.0])
def test_banded_vectors_match_dense_solves(r, M, L, seed, picks):
    op = build_cylinder_operator(ModelParams.from_r(r), sample_phase_field(seed, L, M), L, M)
    indices = [int(p * op.dim) for p in picks]
    banded = eigendecompose(op, want_vectors=indices)
    assert banded.solver == "banded" and banded.eigenvectors.shape == (op.dim, len(indices))
    assert list(banded.vector_indices) == indices
    dense = op.matrix.toarray()
    want, want_values = _dense_shifted_vectors(dense, banded.eigenvalues[indices])
    got = banded.eigenvectors
    res_got = np.linalg.norm(dense @ got - got * banded.eigenvalues[indices], axis=0)
    res_want = np.linalg.norm(dense @ want - want * want_values, axis=0)
    assert res_got.max() <= 1e-12 and banded.max_residual <= 1e-12
    # columns agree to 1e-10, or to the Davis-Kahan bound (res + res') / gap
    # on two vectors whose phase sits that close to its neighbours
    phases = banded.eigenphases
    gaps = np.abs(np.angle(np.exp(1j * (phases[:, None] - phases[indices]))))
    gaps[indices, range(len(indices))] = np.inf
    bound = np.maximum(1e-10, (res_got + res_want) / gaps.min(axis=0))
    assert np.all(_aligned_gaps(got, want) <= bound)
    oracle = dataclasses.replace(banded, eigenvectors=want)
    assert _decay_statuses(banded, indices) == _decay_statuses(oracle, indices)


def test_fallback_vector_of_a_close_pair_matches_banded(monkeypatch):
    # phase 158 has a neighbour 1.48e-5 away; the banded column is 4.7e-13
    # and the Schur column 2.1e-11 from a refined dense inverse iteration
    r, M, L, seed, index = math.sqrt(0.5), 2, 22, 7636235, 158
    op = build_cylinder_operator(ModelParams.from_r(r), sample_phase_field(seed, L, M), L, M)
    banded = eigendecompose(op, want_vectors=[index])
    assert banded.solver == "banded"

    def refuse(*args):
        raise spectral._NotCertified("vectors refused")

    monkeypatch.setattr(spectral, "_inverse_iteration", refuse)
    fallback = eigendecompose(op, want_vectors=[index])
    assert fallback.solver == "schur"
    assert _aligned_gaps(fallback.eigenvectors, banded.eigenvectors)[0] <= 1e-10


def test_vector_fallback_returns_requested_columns(caplog):
    # the L = 0, M = 3 ring shift has mirror pairs, so the phases are not
    # certified and the Schur form answers the same columns
    op = build_cylinder_operator(ModelParams.from_r(0.6), sample_phase_field(1, 0, 3), 0, 3)
    indices = [4, 1, 4]
    with caplog.at_level(logging.INFO, logger="ccnet.spectral"):
        spec = eigendecompose(op, want_vectors=indices)
    assert spec.solver == "schur" and len(caplog.records) == 1
    assert list(spec.vector_indices) == indices
    assert spec.eigenvectors.shape == (op.dim, 3)
    full = _schur_decompose(op, np.arange(op.dim))
    assert np.array_equal(spec.eigenvectors, full.eigenvectors[:, indices])
    assert np.array_equal(spec.eigenphases, full.eigenphases)


def test_repeated_phase_vectors_come_from_the_schur_form(caplog):
    # one shift cannot tell the five copies of 1.234 apart, and inverse
    # iteration would return the same vector for each
    rng = np.random.default_rng(43)
    op = _bipartite_operator(np.r_[np.full(5, 2 * 1.234), 2 * np.pi * rng.random(4)], 2)
    banded = eigendecompose(op, want_vectors=False)
    assert banded.solver == "banded"
    first = int(np.searchsorted(banded.eigenphases, 1.234 - 1e-9))
    assert np.allclose(banded.eigenphases[first : first + 5], 1.234, atol=1e-12)
    with caplog.at_level(logging.INFO, logger="ccnet.spectral"):
        spec = eigendecompose(op, want_vectors=[first + 2, first + 3])
    assert spec.solver == "schur" and "within 1e-13 of another" in caplog.text
    vecs = spec.eigenvectors
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(2))) <= 1e-12


@pytest.mark.parametrize("want_vectors", [[-1], [18], [[0, 1]], True])
def test_eigenvector_indices_are_checked(want_vectors):
    op = build_cylinder_operator(ModelParams.from_r(0.6), sample_phase_field(1, 2, 1), 2, 1)
    with pytest.raises(ValueError, match="indices"):
        eigendecompose(op, want_vectors=want_vectors)


def test_iterate_check_catches_early_stop(monkeypatch):
    # far-apart localized states have nearly equal phases: stopped after two
    # solves from a shift 1e-10 off the circle, a vector keeps a tail of its
    # neighbour that flips decay statuses while its residual stays ~1e-14
    op = build_cylinder_operator(ModelParams.from_r(0.95), sample_phase_field(1, 50, 2), 50, 2)
    indices = list(range(0, op.dim, op.dim // 64))
    want = _decay_statuses(_schur_decompose(op, np.asarray(indices)), indices)
    monkeypatch.setattr(spectral, "_SHIFT", 1e-10)
    with_check = eigendecompose(op, want_vectors=indices)
    assert _decay_statuses(with_check, indices) == want
    monkeypatch.setattr(spectral, "_ITERATE_TOL", math.inf)
    sabotaged = eigendecompose(op, want_vectors=indices)
    assert sabotaged.solver == "banded" and sabotaged.max_residual <= 1e-12
    assert _decay_statuses(sabotaged, indices) != want


# ---------------------------------------------------------------------------
# wall operators


def test_wall_algebra_random_z(rng):
    for _ in range(100):
        z = (0.25 + 1.75 * rng.random()) * np.exp(2j * np.pi * rng.random())
        ops = build_parity_operators(z, int(rng.integers(1, 5)))
        assert ops.w_square_defect() <= 1e-12
        assert ops.v_inverse_defect() <= 1e-12
        assert np.array_equal(ops.k_swap @ ops.k_swap, np.eye(ops.k_swap.shape[0]))


def _parity_operators_loop(z, M):
    """The ring-by-ring loop the strided-slice fill replaced (test oracle)."""
    two_m = 2 * M
    s = 1.0 / math.sqrt(2.0)
    w = np.zeros((two_m, two_m), dtype=complex)
    v = np.zeros((two_m, two_m), dtype=complex)
    k_swap = np.zeros((two_m, two_m))
    for k in range(M):
        a, b = 2 * k + 1, (2 * k + 2) % two_m
        w[a, b] = z * s
        w[b, b] = s
        w[a, a] = -s
        w[b, a] = s / z
        v[2 * k, 2 * k] = z * s
        v[2 * k + 1, 2 * k] = -s
        v[2 * k, 2 * k + 1] = s
        v[2 * k + 1, 2 * k + 1] = s / z
        k_swap[2 * k, 2 * k + 1] = 1.0
        k_swap[2 * k + 1, 2 * k] = 1.0
    return w, v, k_swap


@pytest.mark.parametrize("M", range(1, 7))
def test_parity_operators_match_ring_loop(M):
    for z in (1.0, np.exp(0.9j), 0.5, 2.0 * np.exp(-2.2j), 0.7 - 1.3j):
        ops = build_parity_operators(z, M)
        # bytes and dtype: array_equal would miss a -0.0 / 0.0 swap
        for got, want in zip((ops.w, ops.v, ops.k_swap), _parity_operators_loop(complex(z), M)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_wall_w_maps_even_into_left_wall_space():
    # image vectors satisfy the wall relation psi_{2k+1} = z psi_{2k+2}
    M = 3
    z = 1.3 * np.exp(0.4j)
    ops = build_parity_operators(z, M)
    for k in range(M):
        e = np.zeros(2 * M)
        e[2 * k] = 1.0
        psi = ops.w @ e
        for kk in range(M):
            lhs = psi[(2 * kk + 1) % (2 * M)]
            rhs = z * psi[(2 * kk + 2) % (2 * M)]
            assert abs(lhs - rhs) <= 1e-12
    with pytest.raises(ValueError):
        build_parity_operators(0.0, 2)


# ---------------------------------------------------------------------------
# determinant identity


def test_determinant_identity_off_circle(rng, lopsided):
    M, L = 2, 2
    phases = sample_phase_field(5, L, M)
    op = build_cylinder_operator(lopsided, phases, L, M)
    spectrum = eigendecompose(op, want_vectors=False)
    for _ in range(10):
        z = (0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
        chk = determinant_identity_residual(z, lopsided, M, L, phases, spectrum=spectrum)
        assert chk.status == "ok"
        assert chk.rel_error <= 1e-8


def test_determinant_identity_multiple_windows(rng):
    for (M, L, r, seed) in [(1, 1, 0.6, 5), (2, 1, 0.8, 2), (3, 1, np.sqrt(0.5), 3)]:
        params = ModelParams.from_r(r)
        phases = sample_phase_field(seed, L, M)
        z = (0.6 + rng.random()) * np.exp(2j * np.pi * rng.random())
        chk = determinant_identity_residual(z, params, M, L, phases)
        assert chk.status == "ok" and chk.rel_error <= 1e-8


def test_determinant_vanishes_at_eigenvalue(lopsided):
    # at z equal to an eigenvalue both sides are zero: the restricted matrix
    # becomes singular, detected through its smallest singular value
    from ccnet import propagate

    M, L = 2, 1
    phases = sample_phase_field(9, L, M)
    op = build_cylinder_operator(lopsided, phases, L, M)
    spectrum = eigendecompose(op, want_vectors=False)
    z = complex(spectrum.eigenvalues[3])
    chk = determinant_identity_residual(z, lopsided, M, L, phases, spectrum=spectrum)
    assert chk.status == "degenerate"
    ops = build_parity_operators(z, M)
    prop = propagate(z, phases, L, lopsided)
    restricted = (ops.v_inv @ prop.matrix @ ops.w)[0::2][:, 0::2]
    svals = np.linalg.svd(restricted, compute_uv=False)
    assert svals[-1] <= 1e-10 * svals[0]


def test_determinant_identity_rejects_extremes():
    phases = sample_phase_field(1, 1, 1)
    with pytest.raises(ValueError):
        determinant_identity_residual(1.5, ModelParams.from_r(0.0), 1, 1, phases)


# ---------------------------------------------------------------------------
# density of states


def test_dos_moments_small(lopsided):
    hist = dos_moments(lopsided, 2, 8, seeds=range(8), K=4)
    assert int(hist.counts.sum()) == hist.dim * hist.samples
    assert np.max(np.abs(hist.moments)) <= 0.05
    assert hist.ks <= hist.ks_critical_1pct


def test_dos_moment_zero_case(lopsided):
    # k = 0 would be trivially 1; the table starts at k = 1 and stays small
    hist = dos_moments(lopsided, 1, 5, seeds=[3], K=2)
    assert hist.moments.shape == (2,)
    with pytest.raises(ValueError):
        dos_moments(lopsided, 1, 5, seeds=[3], K=0)
    with pytest.raises(ValueError):
        dos_moments(lopsided, 1, 5, seeds=[], K=2)


def test_ks_statistic_uniform_grid():
    # evenly spaced phases are as uniform as it gets
    phases = (np.arange(1000) + 0.5) * 2 * np.pi / 1000
    assert ks_statistic(phases) <= 1.0 / 1000 + 1e-12
    # concentrated phases are far from uniform
    assert ks_statistic(np.full(100, 0.1)) >= 0.9


def test_ks_critical_value_oracle(lopsided):
    # the 1% critical constant is the Kolmogorov distribution quantile
    from scipy.special import kolmogi

    hist = dos_moments(lopsided, 1, 3, seeds=[1], K=1)
    n = hist.dim * hist.samples
    assert hist.ks_critical_1pct == pytest.approx(kolmogi(0.01) / math.sqrt(n), rel=2e-3)


# ---------------------------------------------------------------------------
# band structure


def test_band_symbol_det_and_trace(rng, lopsided):
    for _ in range(50):
        x, y = rng.uniform(-np.pi, np.pi, 2)
        s = band_symbol(x, y, lopsided)
        assert abs(np.linalg.det(s) + 1.0) <= 1e-12
        expected_trace = 2j * lopsided.rt * (math.sin(x) - math.sin(y))
        assert abs(np.trace(s) - expected_trace) <= 1e-12


def test_band_symbol_eigenphase_law(rng, lopsided):
    # closed form: sin(theta) = rt (sin x - sin y) for both branches
    for _ in range(25):
        x, y = rng.uniform(-np.pi, np.pi, 2)
        evals = np.linalg.eigvals(band_symbol(x, y, lopsided))
        s = lopsided.rt * (math.sin(x) - math.sin(y))
        assert np.allclose(np.sort(evals.imag), np.sort([s, s]), atol=1e-12)
        assert np.max(np.abs(np.abs(evals) - 1.0)) <= 1e-12


def test_band_symbol_broadcasts(rng, lopsided):
    xs, ys = rng.uniform(-np.pi, np.pi, 5), rng.uniform(-np.pi, np.pi, 3)
    grid = band_symbol(xs[:, None], ys[None, :], lopsided)
    assert grid.shape == (5, 3, 2, 2)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert np.array_equal(grid[i, j], band_symbol(x, y, lopsided))


def test_band_symbol_degenerate_at_critical(critical):
    evals = np.linalg.eigvals(band_symbol(np.pi / 2, -np.pi / 2, critical))
    assert np.max(np.abs(evals - 1j)) <= 1e-7


def test_band_grid_edges(lopsided):
    grid = band_grid(lopsided, 64, 64)
    assert grid.det_defect <= 1e-12
    assert abs(grid.band_edge() - math.asin(2 * lopsided.rt)) <= 1e-9


def test_band_width_positive_for_all_transport():
    # non-flat bands whenever rt != 0
    for r in (0.1, 0.5, 0.9):
        grid = band_grid(ModelParams.from_r(r), 16, 16)
        assert grid.eigenphases.shape == (16, 16, 2)
        assert np.ptp(grid.eigenphases) > 0.1


# ---------------------------------------------------------------------------
# eigenvector decay


def test_decay_fit_compact_support_at_r0():
    params = ModelParams.from_r(0.0)
    op = build_cylinder_operator(params, sample_phase_field(11, 3, 2), 3, 2)
    spec = eigendecompose(op, [5])
    fit = eigenvector_decay_fit(spec, 5)
    assert fit.status == "compact support"


def test_decay_fit_plane_waves_not_localized(lopsided):
    phases = sample_phase_field(0, 12, 2)
    trivial = type(phases)(L=12, M=2, values=np.ones_like(phases.values))
    op = build_cylinder_operator(lopsided, trivial, 12, 2)
    indices = range(0, op.dim, 9)
    spec = eigendecompose(op, indices)
    statuses = {eigenvector_decay_fit(spec, i).status for i in indices}
    assert "ok" not in statuses


def test_decay_fit_localized_profile():
    params = ModelParams.from_r(0.95)
    op = build_cylinder_operator(params, sample_phase_field(2, 25, 2), 25, 2)
    indices = range(0, op.dim, 11)
    spec = eigendecompose(op, indices)
    rates = []
    for idx in indices:
        fit = eigenvector_decay_fit(spec, idx)
        if fit.status == "ok":
            rates.append(fit.rate)
    assert len(rates) >= 5
    assert all(rate > 0.05 for rate in rates)


def test_decay_fit_window_too_short(lopsided):
    op = build_cylinder_operator(lopsided, sample_phase_field(4, 1, 2), 1, 2)
    spec = eigendecompose(op, [0])
    fit = eigenvector_decay_fit(spec, 0)
    assert fit.status in ("window too short", "compact support")


def _polyfit_decay_fit(result, index):
    """The per-vector ``np.polyfit`` fit the one-pass fit replaced (test oracle)."""
    column = np.flatnonzero(result.vector_indices == index)[0]
    L, M = result.L, result.M
    norms = np.linalg.norm(result.eigenvectors[:, column].reshape(4 * L + 1, 2 * M), axis=1)
    phase = float(result.eigenphases[index])
    peak = int(np.argmax(norms))
    above = norms > spectral._DECAY_FLOOR * norms[peak]
    if np.count_nonzero(above) <= 2:
        return spectral.DecayFit(status="compact support", eigenphase=phase)
    dist = np.abs(np.arange(4 * L + 1) - peak)
    mask = (dist >= max(2, L // 4)) & above
    if np.count_nonzero(mask) < 4:
        return spectral.DecayFit(status="window too short", eigenphase=phase)
    xs = dist[mask].astype(float)
    ys = np.log(norms[mask])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    if r2 < spectral._DECAY_MIN_R_SQUARED:
        return spectral.DecayFit(status="not localized", eigenphase=phase, r_squared=r2)
    return spectral.DecayFit(status="ok", eigenphase=phase, rate=float(-slope), r_squared=r2)


@pytest.mark.parametrize(
    "r, M, L, seed",
    # compact support, window too short, then ok and not localized
    [(0.0, 2, 3, 11), (0.6, 2, 1, 4), (0.6, 2, 12, 5), (0.95, 2, 25, 2), (0.95, 1, 21, 1520),
     (0.8, 3, 10, 7)],
)
def test_one_pass_decay_fits_match_the_polyfit_loop(r, M, L, seed):
    # every status of the CLI's fit pass is the per-vector oracle's, and every
    # rate and R^2 agrees to 1e-13 of their size
    op = build_cylinder_operator(ModelParams.from_r(r), sample_phase_field(seed, L, M), L, M)
    indices = range(0, op.dim, max(1, op.dim // 40))
    spec = eigendecompose(op, indices)
    fits = spectral._decay_fits(spec, indices)
    for index, fit in zip(indices, fits, strict=True):
        want = _polyfit_decay_fit(spec, index)
        assert fit.status == want.status and fit.eigenphase == want.eigenphase
        for got, value in ((fit.rate, want.rate), (fit.r_squared, want.r_squared)):
            assert (got is None) == (value is None)
            if value is not None:
                assert abs(got - value) <= 1e-13 * max(1.0, abs(value))
        assert eigenvector_decay_fit(spec, index).status == fit.status


def test_decay_fit_requires_vectors(lopsided):
    op = build_cylinder_operator(lopsided, sample_phase_field(4, 1, 2), 1, 2)
    spec = eigendecompose(op, want_vectors=False)
    with pytest.raises(ValueError):
        eigenvector_decay_fit(spec, 0)


def test_decay_fit_requires_the_phase_vector(lopsided):
    op = build_cylinder_operator(lopsided, sample_phase_field(4, 3, 2), 3, 2)
    spec = eigendecompose(op, want_vectors=[2, 7])
    assert eigenvector_decay_fit(spec, 7).eigenphase == spec.eigenphases[7]
    with pytest.raises(ValueError, match="no eigenvector for phase 3"):
        eigenvector_decay_fit(spec, 3)


# ---------------------------------------------------------------------------
# cyclicity


def test_krylov_rank_frozen_values(lopsided):
    phases = sample_phase_field(23, 4, 2)
    assert krylov_rank(lopsided, phases, 0, 4) == 4
    assert krylov_rank(lopsided, phases, 1, 4) == 12
    assert krylov_rank(lopsided, phases, 2, 4) == 20
    assert krylov_rank(lopsided, phases, 3, 4) == 28


def test_krylov_rank_window_guard(lopsided):
    phases = sample_phase_field(23, 2, 2)
    with pytest.raises(ValueError):
        krylov_rank(lopsided, phases, 2, 2)
    with pytest.raises(ValueError):
        krylov_rank(ModelParams.from_r(1.0), phases, 1, 2)
