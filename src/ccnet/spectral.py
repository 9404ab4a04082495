"""Finite-volume spectral computations for the cylinder operator U^D.

Eigen-decomposition of the finite unitary, density-of-states moments and
histograms, the wall-operator algebra (W_z, V_z, K) and the determinant
identity tying the propagator to the characteristic polynomial of U^D, the
trivial-phase band structure, eigenvector decay fits, and the cyclic-vector
rank check.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .model import (
    FiniteOperator,
    ModelParams,
    PhaseField,
    build_cylinder_operator,
    sample_phase_field,
)
from .transfer import _check_z, _ring_pairs, propagate

__all__ = [
    "SpectrumResult",
    "DOSHistogram",
    "ParityOperators",
    "BandStructure",
    "DecayFit",
    "DetIdentityCheck",
    "eigendecompose",
    "dos_moments",
    "build_parity_operators",
    "determinant_identity_residual",
    "band_symbol",
    "band_grid",
    "eigenvector_decay_fit",
    "krylov_rank",
    "ks_statistic",
]

DESK_SCALE_CAP = 4000  # largest dense (Schur) eigenproblem attempted
_CHUNK = 64  # columns per sparse U @ V product in the Rayleigh/gate pass
_EIGEN_GATE = 1e-8  # residual and unit-modulus gates

# Band centres in rad.  They must not differ by pi/2 mod pi: the theta -> theta
# + pi symmetry of U^D would then confirm every mirror candidate.
_BAND_CENTRES = (0.0, 1.0)
_LEVEL_SLACK = 1e-8  # |cos(theta - gamma)| may exceed 1 by this much
_LEVEL_MATCH = 1e-10  # cross-centre confirmation of a candidate phase
# retried when more than N phases pass _LEVEL_MATCH: true phases match to
# 3e-14 at N = 804 and 2e-13 at N = 4804, the mirror candidates seen to pass
# _LEVEL_MATCH to 2.8e-11 .. 7.3e-11
_LEVEL_MATCH_RETRY = 1e-12
_TRACE_TOL = 1e-9  # per dimension, |sum e^{i theta} - tr U|
# shifted inverse iteration: sigma = lambda (1 + _SHIFT) sits just off the circle
_SHIFT = 1e-13
_MAX_SOLVES = 4
# largest entry of the change between phase-aligned unit iterates, or eps/g
# for a phase g from its nearest neighbour: rounding alone moves the iterates
# of such a phase by up to 0.08 eps/g (measured over 2858 vectors)
_ITERATE_TOL = 1e-12
_START_SEED = 0  # one fixed start vector keeps the vectors deterministic
_DECAY_FLOOR = 1e-13  # column norms below this fraction of the peak are noise
_DECAY_MIN_R_SQUARED = 0.9  # a decay rate is reported only above this fit quality

_log = logging.getLogger("ccnet.spectral")


class EigensolverError(RuntimeError):
    pass


class DeskScaleError(ValueError):
    """The dense Schur solve was asked for an operator larger than DESK_SCALE_CAP."""


@dataclass(frozen=True)
class SpectrumResult:
    """Full spectrum of one finite operator, phases sorted on [0, 2pi)."""

    eigenphases: np.ndarray  # (N,), sorted ascending
    eigenvalues: np.ndarray  # (N,), aligned with eigenphases
    # (N, k) unit eigenvectors; column j belongs to phase vector_indices[j]
    eigenvectors: np.ndarray | None = field(default=None, repr=False)
    vector_indices: np.ndarray | None = None  # (k,) indices into eigenphases
    L: int = 0
    M: int = 1
    # schur: worst ||U v - lambda v|| over the eigenpairs; banded: worst
    # mismatch between a kept phase and the nearest level of its other centre,
    # or worst ||U v - lambda v|| of the requested vectors if that is larger
    max_residual: float = 0.0
    solver: str = "schur"  # "banded" | "schur"

    @property
    def dim(self) -> int:
        return self.eigenphases.size


def eigendecompose(
    op: FiniteOperator, want_vectors: bool | Sequence[int] = False
) -> SpectrumResult:
    """Eigenphases of the finite unitary U^D, with eigenvectors on request.

    ``want_vectors`` is False (phases only) or a sequence of indices into the
    sorted phases; the result's ``eigenvectors`` then holds one unit column
    per requested index, in the order asked, and ``vector_indices`` the phase
    index of each column.  All N eigenvectors are ``range(N)``: they take the
    banded path like any other request.  Anything else, True included,
    raises ValueError.

    Banded phases: every entry of U^D joins two sites of opposite parity
    (column + ring) mod 2, so in parity order U = [[0, B], [A, 0]] and
    U^2 = diag(BA, AB).  The unitary BA has size N/2 and half-bandwidth 2M
    in sublattice order, and each of its phases phi gives the phases phi/2
    and phi/2 + pi of U.  For each centre gamma in {0, 1} rad the band matrix

        H_gamma = (e^{-i gamma} BA + e^{i gamma} (BA)^*)/2

    is Hermitian with levels cos(phi - gamma).  Its upper band storage is
    filled from the sparse diagonals, without densifying, and its levels are
    taken by ``scipy.linalg.eigvals_banded``.  Each phase phi = gamma +-
    arccos(c) is taken from the centre where |sin(phi - gamma)| is larger
    and kept only if cos(phi - gamma') matches a level of the other centre
    within 1e-10, or within 1e-12 if more than N/2 candidates match within
    1e-10: a mirror candidate within 1e-10/|sin(phi - gamma')| rad of a
    mirror of a true phase passes the wider match.  The centres are not
    pi/2 apart mod pi: a spectrum with the phi -> phi + pi symmetry would
    then confirm every mirror candidate.
    The phases are certified only if every entry of U^D joins opposite
    parities, every level has |c| <= 1 + 1e-8, exactly N/2 phases are kept
    and |sum e^{i phi} - tr BA| <= 1e-9 N/2; the result then carries
    ``solver="banded"``, eigenvalues e^{i theta} and, as ``max_residual``,
    the worst cross-centre level mismatch.  The same band solve of U itself
    (``_banded_eigenphases(op.matrix)``) is the test oracle of the split.

    Banded vectors (``want_vectors`` a sequence): for each requested phase
    theta, sigma - U with sigma = e^{i theta} (1 + 1e-13) is factored once in
    LAPACK general band storage (``gbtrf``, O(N M) memory) and solved
    (``gbtrs``) from one fixed start vector until two successive unit
    iterates, phase-aligned, differ by at most 1e-12 in their largest entry
    (or by eps/g, the rounding floor of a phase g from its nearest
    neighbour, if that is larger), within 4 solves.  A small residual alone is not enough: far-apart
    localized states have nearly equal phases, and an unconverged iterate
    keeps a tail of its neighbour below any residual gate.  Each vector must
    pass the residual gate ||U v - e^{i theta} v|| <= 1e-8, and a phase
    closer than 1e-13 to another, where the shift cannot tell them apart, is
    not attempted.  ``max_residual`` becomes the worst of the level mismatch
    and the vector residuals.

    Any failure of the banded path (an entry joining equal parities;
    uncertified phases, as from the mirror pairs phi, 2 gamma - phi of the
    L = 0 ring shift at M >= 3; an unconverged or ungated vector) is logged
    at INFO on the ``ccnet.spectral`` logger, and one dense complex Schur
    factorization answers the whole request (``solver="schur"``).  U^D is
    normal, so its Schur form is diagonal and the unitary Schur basis holds
    its eigenvectors, repeated phases included.
    The dense solve is capped at N <= DESK_SCALE_CAP and raises
    DeskScaleError beyond.  Each eigenvalue is the Rayleigh quotient v^* U v;
    every pair is gated on its residual ||U v - lambda v|| and on
    | |lambda| - 1 |, both at 1e-8, and EigensolverError is raised beyond; the
    worst residual is returned as ``max_residual``.  The Schur path is the
    test oracle of the banded path, and ``np.linalg.eig`` that of the Schur
    path.
    """
    n = op.dim
    indices = None
    if want_vectors is not False:
        indices = np.asarray(want_vectors, dtype=np.intp)
        if indices.ndim != 1 or not np.all((indices >= 0) & (indices < n)):
            raise ValueError(f"eigenvector indices must be a sequence in [0, {n})")
    try:
        phases, mismatch = _sublattice_eigenphases(op)
        vectors = None
        if indices is not None:
            vectors, worst = _inverse_iteration(op.matrix, phases, indices)
            mismatch = max(mismatch, worst)
    except _NotCertified as exc:
        _log.info("banded path not certified at N = %d (%s); using the Schur form", n, exc)
        return _schur_decompose(op, indices)
    return SpectrumResult(
        eigenphases=phases,
        eigenvalues=np.exp(1j * phases),
        eigenvectors=vectors,
        vector_indices=indices,
        L=op.L,
        M=op.M,
        max_residual=mismatch,
        solver="banded",
    )


class _NotCertified(Exception):
    """The banded path failed a certification check (the message says which)."""


def _band_storage(coo, offset: int, height: int) -> np.ndarray:
    """LAPACK band storage, entry (i, j) of the sparse matrix at [offset + i - j, j].

    Subnormal entries are flushed to zero: the band reduction loses accuracy
    on them (at r = 2.2e-313 it certifies a phase 1.2e-11 off), and they move
    no eigenvalue by more than their size.
    """
    band = np.zeros((height, coo.shape[1]), dtype=complex, order="F")
    band[offset + coo.row - coo.col, coo.col] = coo.data
    tiny = np.finfo(float).tiny
    band.real[np.abs(band.real) < tiny] = 0.0
    band.imag[np.abs(band.imag) < tiny] = 0.0
    return band


def _half_bandwidth(u) -> int:
    pattern = u.tocoo()
    return int(np.max(np.abs(pattern.row - pattern.col), initial=0))


def _band_levels(u, gamma: float, bandwidth: int) -> np.ndarray:
    """Sorted levels of (e^{-i gamma} U + e^{i gamma} U^*)/2 from its upper band storage."""
    import scipy.linalg
    from scipy import sparse

    half = 0.5 * np.exp(-1j * gamma)
    upper = sparse.triu(half * u + np.conj(half) * u.conj().T, format="coo")
    band = _band_storage(upper, bandwidth, bandwidth + 1)
    try:
        return scipy.linalg.eigvals_banded(
            band, lower=False, overwrite_a_band=True, check_finite=False
        )
    except np.linalg.LinAlgError as exc:
        raise _NotCertified(f"band eigensolver failed: {exc}") from exc


def _banded_eigenphases(u) -> tuple[np.ndarray, float]:
    """Certified sorted eigenphases of a unitary band matrix and the worst level mismatch."""
    n = u.shape[0]
    bandwidth = _half_bandwidth(u)
    levels = [_band_levels(u, gamma, bandwidth) for gamma in _BAND_CENTRES]
    worst_level = max(float(np.max(np.abs(lv))) for lv in levels)
    if not worst_level <= 1.0 + _LEVEL_SLACK:
        raise _NotCertified(f"level {worst_level!r} outside [-1, 1]")
    thetas, misses = [], []
    for own, other in ((0, 1), (1, 0)):
        gamma, gamma_other = _BAND_CENTRES[own], _BAND_CENTRES[other]
        arc = np.arccos(np.clip(levels[own], -1.0, 1.0))
        theta = np.concatenate([gamma + arc, gamma - arc])
        lever, lever_other = np.abs(np.sin(theta - gamma)), np.abs(np.sin(theta - gamma_other))
        # ties go to the first centre, so no phase is taken from both
        theta = theta[lever >= lever_other if own == 0 else lever > lever_other]
        thetas.append(theta)
        misses.append(_nearest_gap(levels[other], np.cos(theta - gamma_other)))
    theta, miss = np.concatenate(thetas), np.concatenate(misses)
    for tol in (_LEVEL_MATCH, _LEVEL_MATCH_RETRY):
        confirmed = miss <= tol
        if np.count_nonzero(confirmed) <= n:
            break
    theta, miss = theta[confirmed], miss[confirmed]
    if theta.size != n:
        raise _NotCertified(f"{theta.size} phases confirmed, expected {n}")
    phases = np.sort(np.mod(theta, 2.0 * np.pi))
    mismatch = float(np.max(miss, initial=0.0))
    trace_gap = abs(np.sum(np.exp(1j * phases)) - u.diagonal().sum())
    if not trace_gap <= _TRACE_TOL * n:
        raise _NotCertified(f"eigenvalue sum misses the trace by {trace_gap:.3e}")
    return phases, mismatch


def _sublattice_eigenphases(op: FiniteOperator) -> tuple[np.ndarray, float]:
    """Certified sorted eigenphases of U^D from its block BA, and the worst level mismatch.

    Site i = (column, ring) has parity (i // 2M + i) % 2, since i and the
    ring i % 2M share parity, and index i // 2 on its sublattice.
    """
    from scipy import sparse

    coo = op.matrix.tocoo()
    parity = (coo.row // (2 * op.M) + coo.row) % 2
    if np.any(parity == (coo.col // (2 * op.M) + coo.col) % 2):
        raise _NotCertified("an entry joins two sites of equal parity")
    shape = (op.dim // 2, op.dim // 2)
    a, b = (
        sparse.csr_matrix((coo.data[side], (coo.row[side] // 2, coo.col[side] // 2)), shape)
        for side in (parity == 1, parity == 0)
    )
    phases, mismatch = _banded_eigenphases(b @ a)
    return np.r_[phases / 2, phases / 2 + np.pi], mismatch


def _inverse_iteration(u, phases: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit eigenvectors of the phases at ``indices`` and their worst residual."""
    from scipy.linalg import lapack

    n = u.shape[0]
    # closer than the shift, a neighbour is amplified as much as the target
    gaps = np.diff(np.r_[phases, phases[0] + 2.0 * np.pi])
    nearest = np.minimum(gaps, np.roll(gaps, 1))[indices]
    if not np.all(nearest >= _SHIFT):
        k = int(indices[np.argmin(nearest)])
        raise _NotCertified(f"phase {k} is within {_SHIFT:g} of another")
    bw = _half_bandwidth(u)
    # -U in general band storage, with bw rows on top for the fill-in of gbtrf
    minus_u = -_band_storage(u.tocoo(), 2 * bw, 3 * bw + 1)
    tolerances = np.maximum(_ITERATE_TOL, np.finfo(float).eps / nearest)
    rng = np.random.default_rng(_START_SEED)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start /= np.linalg.norm(start)
    values = np.exp(1j * phases[indices])
    vectors = np.empty((n, indices.size), dtype=complex)
    for col, (value, tol) in enumerate(zip(values, tolerances)):
        band = minus_u.copy(order="F")
        band[2 * bw] += value * (1.0 + _SHIFT)
        lu, pivots, info = lapack.zgbtrf(band, bw, bw, overwrite_ab=True)
        if info != 0:
            raise _NotCertified(f"sigma - U is singular at phase {indices[col]}")
        previous = start
        for solve in range(_MAX_SOLVES):
            x, _ = lapack.zgbtrs(lu, bw, bw, previous, pivots)
            x /= np.linalg.norm(x)
            overlap = np.vdot(previous, x)
            x *= np.conj(overlap) / abs(overlap)
            if solve and np.max(np.abs(x - previous)) <= tol:
                break
            previous = x
        else:
            raise _NotCertified(
                f"eigenvector {indices[col]} not converged after {_MAX_SOLVES} solves"
            )
        vectors[:, col] = x
    residuals = np.linalg.norm(u @ vectors - vectors * values, axis=0)
    worst = float(np.max(residuals, initial=0.0))
    if not worst <= _EIGEN_GATE:
        raise _NotCertified(f"eigenvector residual {worst:.3e} exceeds {_EIGEN_GATE:g}")
    return vectors, worst


def _nearest_gap(sorted_levels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Distance from each value to the nearest of the sorted levels."""
    idx = np.searchsorted(sorted_levels, values)
    above = sorted_levels[np.minimum(idx, sorted_levels.size - 1)]
    below = sorted_levels[np.maximum(idx - 1, 0)]
    return np.minimum(np.abs(above - values), np.abs(values - below))


def _schur_decompose(op: FiniteOperator, indices: np.ndarray | None) -> SpectrumResult:
    """The dense Schur solve of ``eigendecompose``, gated on residual and modulus.

    ``indices`` is None (phases only) or an index array into the sorted phases.
    """
    import scipy.linalg  # deferred: importing it costs every CLI start-up

    n = op.dim
    if n > DESK_SCALE_CAP:
        raise DeskScaleError(
            f"operator dimension {n} exceeds desk-scale cap {DESK_SCALE_CAP} of the dense solve"
        )
    u = op.matrix
    try:
        _, vecs = scipy.linalg.schur(
            u.toarray(order="F"), output="complex", overwrite_a=True, check_finite=False
        )
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    evals = np.empty(n, dtype=complex)
    max_residual = 0.0
    for start in range(0, n, _CHUNK):
        block = vecs[:, start : start + _CHUNK]
        image = u @ block
        quotients = np.einsum("ij,ij->j", block.conj(), image)
        res = np.linalg.norm(image - block * quotients, axis=0)
        worst = int(np.argmax(res))
        if not res[worst] <= _EIGEN_GATE:
            raise EigensolverError(
                f"eigenpair {start + worst} residual {res[worst]:.3e} exceeds {_EIGEN_GATE:g}"
            )
        max_residual = max(max_residual, float(res[worst]))
        moduli = np.abs(quotients)
        worst = int(np.argmax(np.abs(moduli - 1.0)))
        if not abs(moduli[worst] - 1.0) <= _EIGEN_GATE:
            raise EigensolverError(
                f"eigenvalue {start + worst} modulus {moduli[worst]!r} "
                f"off the unit circle beyond {_EIGEN_GATE:g}"
            )
        evals[start : start + _CHUNK] = quotients
    phases = np.mod(np.angle(evals), 2.0 * np.pi)
    order = np.argsort(phases)
    sorted_vecs = None if indices is None else vecs[:, order[indices]]
    return SpectrumResult(
        eigenphases=phases[order],
        eigenvalues=evals[order],
        eigenvectors=sorted_vecs,
        vector_indices=indices,
        L=op.L,
        M=op.M,
        max_residual=max_residual,
        solver="schur",
    )


def ks_statistic(phases: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of eigenphases from the uniform law on [0, 2pi)."""
    x = np.sort(np.asarray(phases)) / (2.0 * np.pi)
    n = x.size
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - x), np.max(x - (grid - 1.0 / n))))


@dataclass(frozen=True)
class DOSHistogram:
    """Pooled eigenphase statistics across disorder realizations."""

    edges: np.ndarray  # (bins+1,) on [0, 2pi)
    counts: np.ndarray  # (bins,)
    samples: int  # number of realizations pooled
    dim: int  # matrix dimension per realization
    moments: np.ndarray  # (K,), seed-averaged (1/N) tr (U^D)^k for k = 1..K
    moment_spread: np.ndarray  # (K,), std error of the seed average (abs)
    ks: float

    @property
    def ks_critical_1pct(self) -> float:
        # 1% asymptotic Kolmogorov critical value for n pooled draws
        return 1.63 / math.sqrt(self.dim * self.samples)


def dos_moments(
    params: ModelParams,
    M: int,
    L: int,
    seeds,
    K: int = 8,
    bins: int = 64,
) -> DOSHistogram:
    """Average trace moments (1/N) tr (U^D)^k and pool an eigenphase histogram.

    The disorder average of every positive moment vanishes identically (each
    path picks up at least one un-conjugated uniform phase), so the density
    of states flattens onto the circle; the tolerance of the check is purely
    Monte-Carlo.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    edges = np.linspace(0.0, 2.0 * np.pi, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    moment_rows = np.zeros((len(seeds), K), dtype=complex)
    pooled = []
    dim = 2 * M * (4 * L + 1)
    for row, seed in enumerate(seeds):
        op = build_cylinder_operator(params, sample_phase_field(seed, L, M), L, M)
        spec = eigendecompose(op, want_vectors=False)
        pooled.append(spec.eigenphases)
        counts += np.histogram(spec.eigenphases, bins=edges)[0]
        powers = spec.eigenvalues.copy()
        for k in range(K):
            moment_rows[row, k] = powers.mean()
            powers = powers * spec.eigenvalues
    pooled = np.concatenate(pooled)
    moments = moment_rows.mean(axis=0)
    if len(seeds) > 1:
        spread = moment_rows.std(axis=0, ddof=1).real / math.sqrt(len(seeds))
    else:
        spread = np.zeros(K)
    return DOSHistogram(
        edges=edges,
        counts=counts,
        samples=len(seeds),
        dim=dim,
        moments=moments,
        moment_spread=spread,
        ks=ks_statistic(pooled),
    )


# ---------------------------------------------------------------------------
# wall operators and the determinant identity
_DET_IDENTITY_TOL = 1e-8  # largest relative error of the identity that passes


@dataclass(frozen=True)
class ParityOperators:
    """The ring-pair swap K and the wall operators at parameter z.

    Each is one 2x2 block on every ring pair, with s = 1/sqrt(2): K =
    [[0, 1], [1, 0]] and V_z = s[[z, 1], [-1, 1/z]] on the pairs (2k, 2k+1),
    W_z = s[[-1, z], [1/z, 1]] on the shifted pairs (2k+1, 2k+2 mod 2M).
    W_z maps the even subspace onto the left wall space F_z = {psi_{2k+1} =
    z psi_{2k+2}} and V_z the even subspace onto the complement of the right
    wall space G_z.  The algebra W_z^2 = 1 and V_z^{-1} = K V_z K holds for
    every z != 0 and pins 1/z (not conj z) as the inverse slot.
    """

    z: complex
    k_swap: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def v_inv(self) -> np.ndarray:
        return self.k_swap @ self.v @ self.k_swap

    def w_square_defect(self) -> float:
        eye = np.eye(self.w.shape[0])
        return float(np.linalg.norm(self.w @ self.w - eye, 2))

    def v_inverse_defect(self) -> float:
        eye = np.eye(self.v.shape[0])
        return float(np.linalg.norm(self.v @ self.v_inv - eye, 2))


def build_parity_operators(z: complex, M: int) -> ParityOperators:
    z = _check_z(z)
    s = 1.0 / math.sqrt(2.0)
    w = _ring_pairs(-s, z * s, s / z, s, M, shifted=True)
    v = _ring_pairs(z * s, s, -s, s / z, M, shifted=False)
    k_swap = _ring_pairs(0.0, 1.0, 1.0, 0.0, M, shifted=False)
    return ParityOperators(z=z, k_swap=k_swap, v=v, w=w)


@dataclass(frozen=True)
class DetIdentityCheck:
    """Outcome of one determinant-identity evaluation."""

    status: str  # "ok" | "degenerate"
    z: complex
    rel_error: float | None = None
    log_lhs: float | None = None
    log_rhs: float | None = None


def determinant_identity_residual(
    z: complex,
    params: ModelParams,
    M: int,
    L: int,
    phases: PhaseField,
    spectrum: SpectrumResult | None = None,
) -> DetIdentityCheck:
    """Relative error of the determinant identity at spectral parameter z.

    Left side: |z|^{(4L+1)M} |det Q_E V_z^{-1} P_2L(z) W_z Q_E| from the
    propagator and wall operators.  Right side: the same quantity from the
    eigenvalues of U^D,

        2^{-M} (rt)^{-2LM} prod_i |z - z_i|,

    both accumulated in log magnitude.  The 2^{-M} constant is forced by the
    1/sqrt(2) normalization of the wall operators (restrict to L = 0, M = 1,
    where both sides are explicit).  Points within 1e-12 of an eigenvalue are
    reported as degenerate and skipped: there the identity reads 0 = 0.
    """
    z = _check_z(z)
    params.require_transport()
    if spectrum is None:
        spectrum = eigendecompose(
            build_cylinder_operator(params, phases, L, M), want_vectors=False
        )
    dist = np.abs(z - spectrum.eigenvalues)
    if dist.min() < 1e-12:
        return DetIdentityCheck(status="degenerate", z=z)
    prop = propagate(z, phases, L, params)
    ops = build_parity_operators(z, M)
    restricted = (ops.v_inv @ prop.matrix @ ops.w)[0::2][:, 0::2]
    sign, logdet = np.linalg.slogdet(restricted)
    if sign == 0.0:
        return DetIdentityCheck(status="degenerate", z=z)
    log_lhs = (4 * L + 1) * M * math.log(abs(z)) + logdet
    log_rhs = (
        -M * math.log(2.0)
        - 2 * L * M * math.log(params.rt)
        + float(np.sum(np.log(dist)))
    )
    rel = abs(math.exp(log_lhs - log_rhs) - 1.0)
    return DetIdentityCheck(
        status="ok",
        z=z,
        rel_error=rel,
        log_lhs=log_lhs,
        log_rhs=log_rhs,
    )


# ---------------------------------------------------------------------------
# trivial-phase band structure


def band_symbol(x, y, params: ModelParams) -> np.ndarray:
    """The 2x2 momentum-space symbol of the squared trivial-phase walk.

    Broadcasts over the momenta x and y and returns shape (..., 2, 2).
    Determinant -1 everywhere; trace 2i rt (sin x - sin y), so the
    eigenphases theta solve sin theta = rt (sin x - sin y).
    """
    r2, t2, rt = params.r**2, params.t**2, params.rt
    ex, ey = np.exp(1j * np.asarray(x)), np.exp(1j * np.asarray(y))
    top = np.stack([rt * (1.0 / ey - 1.0 / ex), r2 / ex + t2 / ey], axis=-1)
    bottom = np.stack([t2 * ey + r2 * ex, rt * (ex - ey)], axis=-1)
    return np.stack([top, bottom], axis=-2)


_BAND_DET_TOL = 1e-12  # largest symbol determinant defect that passes


@dataclass(frozen=True)
class BandStructure:
    """Symbol eigenphases over the momentum grid of ``band_grid``."""

    xs: np.ndarray
    ys: np.ndarray
    eigenphases: np.ndarray  # (len(xs), len(ys), 2)
    det_defect: float
    params: ModelParams

    def band_edge(self) -> float:
        """Largest |sin theta| over the grid, as an angle: the band edge arcsin(2rt)."""
        return float(np.max(np.abs(np.arcsin(np.clip(np.sin(self.eigenphases), -1, 1)))))

    def edge_error(self) -> float:
        """|band_edge - arcsin(min(1, 2rt))|, the distance to the closed-form edge."""
        return abs(self.band_edge() - math.asin(min(1.0, 2.0 * self.params.rt)))


def band_grid(params: ModelParams, nx: int = 64, ny: int = 64) -> BandStructure:
    """Eigenphases over the full momentum torus (both components continuous)."""
    xs = np.linspace(-np.pi, np.pi, nx, endpoint=False)
    ys = np.linspace(-np.pi, np.pi, ny, endpoint=False)
    sym = band_symbol(*np.meshgrid(xs, ys, indexing="ij"), params)
    dets = np.linalg.det(sym)
    evals = np.linalg.eigvals(sym)
    thetas = np.sort(np.mod(np.angle(evals), 2.0 * np.pi), axis=-1)
    det_defect = float(np.max(np.abs(dets + 1.0)))
    return BandStructure(xs=xs, ys=ys, eigenphases=thetas, det_defect=det_defect, params=params)


# ---------------------------------------------------------------------------
# eigenvector decay


@dataclass(frozen=True)
class DecayFit:
    """Exponential tail fit of one eigenvector's column-norm profile."""

    status: str  # "ok" | "not localized" | "compact support" | "window too short"
    eigenphase: float
    rate: float | None = None
    r_squared: float | None = None


def eigenvector_decay_fit(result: SpectrumResult, index: int) -> DecayFit:
    """Fit log column norms of the eigenvector of phase ``index`` against distance from its peak.

    ``index`` counts into ``result.eigenphases``; ValueError is raised when
    the result carries no eigenvector for that phase (see ``vector_indices``).
    Tail window: columns at distance >= max(2, L // 4) from the peak whose
    norm sits above the numerical floor (1e-13 of the peak).  A slope is
    reported only when the fit explains the tail (R^2 >= 0.9); profiles
    supported on fewer than three columns are reported as compact.
    """
    return _decay_fits(result, [index])[0]


def _decay_fits(result: SpectrumResult, indices) -> list[DecayFit]:
    """``eigenvector_decay_fit`` of each index, as one masked least-squares pass.

    Every tail is fitted at once: the line through the masked points
    (distance, log norm) of each column comes from its masked sums, which
    replaces one ``np.polyfit`` per vector.
    """
    if result.eigenvectors is None:
        raise ValueError("SpectrumResult carries no eigenvectors")
    columns = []
    for index in indices:
        found = np.flatnonzero(result.vector_indices == index)
        if found.size == 0:
            raise ValueError(f"SpectrumResult carries no eigenvector for phase {index}")
        columns.append(int(found[0]))
    L, M = result.L, result.M
    vectors = result.eigenvectors
    # ``decay`` asks for every carried vector in order; the norms of that
    # view skip a column gather that costs five times the norms
    if columns != list(range(vectors.shape[1])):
        vectors = vectors[:, columns]
    norms = np.linalg.norm(vectors.reshape(4 * L + 1, 2 * M, -1), axis=1)  # (4L + 1, k)
    peaks = np.argmax(norms, axis=0)
    above = norms > _DECAY_FLOOR * norms[peaks, np.arange(len(columns))]
    dist = np.abs(np.arange(4 * L + 1)[:, None] - peaks)
    mask = (dist >= max(2, L // 4)) & above
    count = np.count_nonzero(mask, axis=0)
    xs = dist.astype(float)
    ys = np.log(np.where(mask, norms, 1.0))
    x_mean = np.sum(xs * mask, axis=0) / np.maximum(count, 1)
    y_mean = np.sum(ys * mask, axis=0) / np.maximum(count, 1)
    dx, dy = (xs - x_mean) * mask, (ys - y_mean) * mask
    with np.errstate(invalid="ignore", divide="ignore"):
        slopes = np.sum(dx * dy, axis=0) / np.sum(dx * dx, axis=0)
    ss_res = np.sum((dy - slopes * dx) ** 2, axis=0)
    ss_tot = np.sum(dy * dy, axis=0)
    fits = []
    for n, index, above_k, slope, res, tot in zip(
        count, indices, np.count_nonzero(above, axis=0), slopes, ss_res, ss_tot
    ):
        phase = float(result.eigenphases[index])
        r2 = 1.0 - float(res) / float(tot) if tot > 0 else 0.0
        if above_k <= 2:
            fit = DecayFit(status="compact support", eigenphase=phase)
        elif n < 4:
            fit = DecayFit(status="window too short", eigenphase=phase)
        elif r2 < _DECAY_MIN_R_SQUARED:
            fit = DecayFit(status="not localized", eigenphase=phase, r_squared=r2)
        else:
            fit = DecayFit(status="ok", eigenphase=phase, rate=float(-slope), r_squared=r2)
        fits.append(fit)
    return fits


# ---------------------------------------------------------------------------
# cyclicity


def krylov_rank(params: ModelParams, phases: PhaseField, n: int, L: int) -> int:
    """Numerical rank of {U^m e_mu : |m| <= n, mu in {0} x Z_2M}.

    The window must satisfy L > n so wall reflections cannot reach the
    tested columns; cyclicity predicts rank 2M (2n+1).
    """
    params.require_transport()
    if L <= n:
        raise ValueError("need window L > n so reflections stay out of reach")
    M = phases.M
    op = build_cylinder_operator(params, phases, L, M)
    two_m = 2 * M
    base = np.zeros((op.dim, two_m), dtype=complex)
    for m in range(two_m):
        base[op.index(0, m), m] = 1.0
    blocks = [base]
    fwd = base
    bwd = base
    u = op.matrix
    u_star = op.matrix.conj().T
    for _ in range(n):
        fwd = u @ fwd
        bwd = u_star @ bwd
        blocks += [fwd, bwd]
    stack = np.concatenate(blocks, axis=1)
    svals = np.linalg.svd(stack, compute_uv=False)
    return int(np.count_nonzero(svals > 1e-10))
