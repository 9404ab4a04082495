"""Transfer matrices and the 2M x 2M cocycle over the phase disorder.

For spectral parameter z != 0 the eigenvalue equation U psi = z psi is
equivalent to a two-site recursion across columns.  The 2x2 blocks T_eo
(even -> odd column) and T_oe (odd -> even) lie in U(1,1) when |z| = 1;
stacked over the ring they give the layer matrices M1(z) (pairs (2k, 2k+1))
and M2(z) (cyclic pairs (2k+1, 2k+2)), and one double column advances by

    A_z(p) = D(p_l) M2(z) D(p_m) M1(z) D(p_r),

an element of the group U_M(1,1) of the form J = diag(1,-1,1,-1,...).

A_z(p) has 4 nonzeros per row, and for M >= 2 each is one product
p_l[i] m2[i,k] p_m[k] m1[k,j] p_r[j].  ``_step_entries`` writes that formula
once, over any leading axes; ``cocycle_step`` and the Lyapunov engine
scatter its entries into the matrix.  Window propagators and eigenvector
reconstruction step through the three factors (``_apply_layer``).

Wherever a formula needs the "inverse slot" of z we use exactly 1/z (not
conj(z)); on the unit circle the two agree, and off the circle 1/z is the
choice forced by the wall-operator algebra (W_z^2 = 1) and by the
determinant identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import _UNIT_TOL, ModelParams, PhaseField, build_cylinder_operator

__all__ = [
    "LayerPhases",
    "TransferMatrix",
    "Propagator",
    "layer_matrices",
    "cocycle_step",
    "propagate",
    "reconstruct_columns",
    "reconstruct_and_verify",
    "form_signature",
]


def form_signature(M: int) -> np.ndarray:
    """Diagonal of the hermitian form J preserved by the transfer matrices."""
    sig = np.ones(2 * M)
    sig[1::2] = -1.0
    return sig


def _check_z(z: complex) -> complex:
    z = complex(z)
    if z == 0:
        raise ValueError("spectral parameter z must be nonzero")
    return z


def _check_phases(q, n: int) -> np.ndarray:
    q = np.asarray(q, dtype=complex)
    if q.shape != (n,):
        raise ValueError(f"expected {n} phases, got shape {q.shape}")
    if np.max(np.abs(np.abs(q) - 1.0)) > _UNIT_TOL:
        raise ValueError("phases must be unit modulus")
    return q


def _ring_pairs(a, b, c, d, M: int, shifted: bool) -> np.ndarray:
    """The 2M x 2M matrix with the block [[a, b], [c, d]] on every ring pair.

    The pairs are (2k, 2k+1), or (2k+1, 2k+2 mod 2M) when ``shifted``.  The
    dtype is the type of a + b + c + d (a microsecond cheaper than
    np.result_type): complex if one entry is, else float.
    """
    two_m = 2 * M
    out = np.zeros((two_m, two_m), dtype=type(a + b + c + d))
    # entry (2k+i, 2k+j) sits at i*2M + j + k*step of the flat matrix; a slice
    # stops at the last row, so the wrapped pair's b and c are set apart
    flat, step, first = out.reshape(-1), 2 * two_m + 2, (two_m + 1) * shifted
    flat[first::step] = a
    flat[first + 1 :: step] = b
    flat[first + two_m :: step] = c
    flat[(first + two_m + 1) % step :: step] = d  # the wrapped d sits at (0, 0)
    if shifted:
        out[-1, 0], out[0, -1] = b, c
    return out


def layer_matrices(z: complex, M: int, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The bare 2M x 2M layer factors (M1(z), M2(z)).

    M1 is block diagonal on ring pairs (2k, 2k+1) with blocks
    (1/t)[[1/z, -r], [-r, z]]; M2 carries (1/r)[[z, -t], [t, -1/z]] on the
    cyclically shifted pairs (2k+1, 2k+2 mod 2M), which puts -1/z and the
    +-t entries in the corners of the matrix.
    """
    z = _check_z(z)
    params.require_transport()
    if M < 1:
        raise ValueError("need M >= 1")
    r, t = params.r, params.t
    m1 = _ring_pairs((1.0 / z) / t, -r / t, -r / t, z / t, M, shifted=False)
    m2 = _ring_pairs(z / r, -t / r, t / r, (-1.0 / z) / r, M, shifted=True)
    return m1, m2


@dataclass(frozen=True)
class LayerPhases:
    """The 4M random phases entering one double-column step.

    Slot layout: the first 2M entries feed the diagonals flanking M1 --
    odd slots p1, p3, ... make up p_r = (1, p1, 1, p3, ...) on the incoming
    side and even slots p0, p2, ... make up p_l = (p0, 1, p2, 1, ...) on the
    outgoing side; the second 2M entries are the middle diagonal p_m.
    ``_split_slots`` is the one reader of this layout.
    """

    M: int
    phases: np.ndarray = field(repr=False)  # (4M,)

    def __post_init__(self):
        _check_phases(self.phases, 4 * self.M)

    @classmethod
    def random(cls, rng: np.random.Generator, M: int) -> "LayerPhases":
        return cls(M=M, phases=np.exp(2j * np.pi * rng.random(4 * M)))

    def twisted(self, w: complex) -> "LayerPhases":
        """The phase twist w . p: even slots scaled by 1/w, odd slots by w.

        Realizes the covariance A_{wz}(p) = A_z(w . p) for |w| = 1.
        """
        out = self.phases.copy()
        out[0::2] /= w
        out[1::2] *= w
        return LayerPhases(M=self.M, phases=out)


@dataclass(frozen=True)
class TransferMatrix:
    """A 2M x 2M transfer (cocycle) matrix at spectral parameter z."""

    matrix: np.ndarray
    z: complex
    M: int

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def u11_defect(self) -> float:
        """|| B* J B - J || for the alternating form; zero on |z| = 1."""
        sig = form_signature(self.M)
        b = self.matrix
        gram = b.conj().T @ (sig[:, None] * b)
        return float(np.linalg.norm(gram - np.diag(sig), 2))

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.matrix, compute_uv=False)


@dataclass(frozen=True)
class Propagator(TransferMatrix):
    """Ordered product of the 2L steps spanning columns -2L .. 2L."""

    L: int = 0


def _split_slots(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split (..., 4M) layer slots into the diagonals (p_r, p_m, p_l), each (..., 2M).

    Follows the layout documented on ``LayerPhases``; the unphased entries
    of p_r and p_l are ones.
    """
    slots = np.asarray(slots)
    two_m = slots.shape[-1] // 2
    p_r = np.ones(slots.shape[:-1] + (two_m,), dtype=complex)
    p_l = np.ones_like(p_r)
    p_r[..., 1::2] = slots[..., 1:two_m:2]
    p_l[..., 0::2] = slots[..., 0:two_m:2]
    return p_r, slots[..., two_m:], p_l


def _apply_layer(m1, m2, p_r, p_m, p_l, frame: np.ndarray) -> np.ndarray:
    """One cocycle step A_z(p) frame = D(p_l) M2(z) D(p_m) M1(z) D(p_r) frame.

    Leading axes batch independent chains: m1, m2 (..., 2M, 2M), the
    diagonals (..., 2M) and frame (..., 2M, k).  The operand order is fixed:
    numpy's complex multiply is not bitwise commutative, and every caller
    relies on this exact rounding.

    Only ``propagate`` and ``reconstruct_columns`` step this way; the
    Lyapunov engine and ``cocycle_step`` form A_z(p) from ``_step_entries``.
    For a window at M = 2 (one BLAS thread, 2-core x86 VM), a step formed one
    layer at a time is slower than this kernel, 8.7 against 7.8 us, and one
    formed for the whole window at once is faster, 2.6 us.  The window form
    is left to the stabilized determinant engine (ROADMAP item 3), whose
    stepping the Lyapunov engine is to share.
    """
    return p_l[..., :, None] * (m2 @ (p_m[..., :, None] * (m1 @ (p_r[..., :, None] * frame))))


_STEP_PATTERNS: dict[int, tuple] = {}


def _step_pattern(M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The terms (i, k, j) of A_z(p) and the flat indices i 2M + j of its entries.

    Entry (i, j) of D(p_l) M2 D(p_m) M1 D(p_r) is the sum over k of
    p_l[i] m2[i, k] p_m[k] m1[k, j] p_r[j]; M2 joins i to the two rings k of
    its shifted pair and M1 joins k to the two rings j of its pair, so a row
    has 4 terms.  For M >= 2 they fall on 4 distinct columns, and each of
    the 8M entries is one term.  For M = 1 both pairings are (0, 1): each of
    the 4 entries is two terms, adjacent in the term order.  Cached per M,
    read-only.
    """
    if M not in _STEP_PATTERNS:
        mask1 = _ring_pairs(1, 1, 1, 1, M, shifted=False) != 0
        mask2 = _ring_pairs(1, 1, 1, 1, M, shifted=True) != 0
        i, k, j = np.nonzero(mask2[:, :, None] & mask1[None, :, :])
        order = np.argsort(i * 2 * M + j, kind="stable")
        pattern = (i[order], k[order], j[order], np.unique(i * 2 * M + j))
        for part in pattern:
            part.flags.writeable = False  # shared by every caller
        _STEP_PATTERNS[M] = pattern
    return _STEP_PATTERNS[M]


def _step_entries(m1, m2, p_r, p_m, p_l) -> np.ndarray:
    """The stored entries of A_z(p) = D(p_l) M2(z) D(p_m) M1(z) D(p_r), in flat order.

    Leading axes broadcast: m1, m2 (..., 2M, 2M) and the diagonals
    (..., 2M) give (..., E) with E = 8M (4 for M = 1), the entries at the
    flat indices of ``_step_pattern``.  Each term is the phase product
    p_l[i] p_m[k] p_r[j] times the constant m2[i, k] m1[k, j], in that
    operand order, which every caller shares bitwise.
    """
    i, k, j, flat = _step_pattern(p_r.shape[-1] // 2)
    # take, unlike fancy indexing, lays the terms out last-axis-fastest, so a
    # step's entries are contiguous
    phases = p_l.take(i, axis=-1) * p_m.take(k, axis=-1) * p_r.take(j, axis=-1)
    terms = phases * (m2[..., i, k] * m1[..., k, j])
    if terms.shape[-1] > flat.size:  # M = 1: two terms per entry
        terms = terms[..., 0::2] + terms[..., 1::2]
    return terms


def cocycle_step(z: complex, layer: LayerPhases, params: ModelParams) -> TransferMatrix:
    """One generator A_z(p) = D(p_l) M2(z) D(p_m) M1(z) D(p_r), formed from its entries."""
    two_m = 2 * layer.M
    m1, m2 = layer_matrices(z, layer.M, params)
    a = np.zeros(two_m * two_m, dtype=complex)
    a[_step_pattern(layer.M)[3]] = _step_entries(m1, m2, *_split_slots(layer.phases))
    return TransferMatrix(matrix=a.reshape(two_m, two_m), z=complex(z), M=layer.M)


def _slot_layers(phases: PhaseField, j_lo: int, j_hi: int) -> np.ndarray:
    """The (j_hi - j_lo, 4M) slots of the layers j = j_lo .. j_hi - 1.

    Derived from the two-site recursions: the incoming factor D(p_r) of
    layer j holds the conjugated odd-ring phases of column 2j, the outgoing
    factor D(p_l) the even-ring phases of column 2j+2, and the middle
    diagonal D(p_m) the column 2j+1 phases with odd rings conjugated.  Each
    site phase is consumed by exactly one layer, so the slotted process is
    i.i.d. uniform.
    """
    if not phases.covers_columns(2 * j_lo, 2 * j_hi):
        raise ValueError(
            f"columns {2*j_lo}..{2*j_hi} outside phase window [-{2*phases.L}, {2*phases.L}]"
        )
    two_m = 2 * phases.M
    base = 2 * phases.L
    cols = phases.values[2 * j_lo + base : 2 * j_hi + base + 1]
    left, mid, right = cols[0:-1:2], cols[1::2], cols[2::2]
    slots = np.empty((j_hi - j_lo, 2 * two_m), dtype=complex)
    slots[:, 0:two_m:2] = right[:, 0::2]          # p_l slots: column 2j+2, even rings
    slots[:, 1:two_m:2] = np.conj(left[:, 1::2])  # p_r slots: column 2j, odd rings
    slots[:, two_m::2] = mid[:, 0::2]             # p_m, even rings
    slots[:, two_m + 1 :: 2] = np.conj(mid[:, 1::2])  # p_m, odd rings conjugated
    return slots


def propagate(z: complex, phases: PhaseField, L: int, params: ModelParams) -> Propagator:
    """The propagator P_2L(z): ring vector at column -2L mapped to column 2L.

    Ordered product of the 2L cocycle steps j = -L .. L-1, evaluated left to
    right with no internal rescaling (stabilized iteration lives in the
    Lyapunov engine).  The bare product loses the (s, 1/s) pairing of its
    singular values within a few layers: at r = 0.62, M = 2, z = e^{0.4i},
    phase seed 11, the log-pairing defect is 2.1e-10 at L = 3, 6.3e-8 at
    L = 5, 3.6e-2 at L = 8 and 15.5 at L = 12 (see "One stabilized, scaled
    determinant engine" in ROADMAP.md).
    """
    z = _check_z(z)
    if L < 0:
        raise ValueError("need L >= 0")
    p_r, p_m, p_l = _split_slots(_slot_layers(phases, -L, L))
    M = phases.M
    m1, m2 = layer_matrices(z, M, params)
    mat = np.eye(2 * M, dtype=complex)
    for j in range(2 * L):
        mat = _apply_layer(m1, m2, p_r[j], p_m[j], p_l[j], mat)
    return Propagator(matrix=mat, z=z, M=M, L=L)


def reconstruct_columns(
    z: complex, phases: PhaseField, psi0: np.ndarray, N: int, params: ModelParams
) -> np.ndarray:
    """Grow a generalized eigenvector column by column from its ring vector at column 0.

    Returns the (2N+1, 2M) array of ring vectors on columns 0 .. 2N.  Column
    2j+2 is the cocycle step of layer j applied to column 2j; column 2j+1 is
    the inner half-step M1(z) D(p_r) psi_2j with the even-ring slots of p_m
    (the column 2j+1 site phases) applied.
    """
    if N < 0:
        raise ValueError("need N >= 0")
    if not phases.covers_columns(0, 2 * N):
        raise ValueError("phase window shorter than 2N columns")
    M = phases.M
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (2 * M,):
        raise ValueError(f"psi0 must have shape ({2*M},)")
    m1, m2 = layer_matrices(z, M, params)
    p_r, p_m, p_l = _split_slots(_slot_layers(phases, 0, N))
    psi = np.empty((2 * N + 1, 2 * M), dtype=complex)
    psi[0] = psi0
    for j in range(N):
        psi[2 * j + 2] = _apply_layer(m1, m2, p_r[j], p_m[j], p_l[j], psi[2 * j][:, None])[:, 0]
    half = (p_r * psi[0:-1:2]) @ m1.T
    half[:, 0::2] *= p_m[:, 0::2]
    psi[1::2] = half
    return psi


def reconstruct_and_verify(
    z: complex, phases: PhaseField, psi0: np.ndarray, N: int, params: ModelParams
) -> float:
    """Residual of the eigenvalue equation on the reconstructed window.

    Grows psi from its column-0 ring vector with ``reconstruct_columns``,
    places it on columns 0 .. 2N of the assembled U^D over the whole phase
    window, and takes |U psi - z psi| on the rows fed only by those columns:
    the odd rings of columns 0 .. 2N-1 and the even rings of columns 1 .. 2N.
    Returns the largest such entry divided by the window norm of psi; zero
    input gives zero.
    """
    psi = reconstruct_columns(z, phases, psi0, N, params)
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        return 0.0
    L, two_m = phases.L, 2 * phases.M
    op = build_cylinder_operator(params, phases, L, phases.M)
    vec = np.zeros((4 * L + 1, two_m), dtype=complex)
    vec[2 * L : 2 * L + 2 * N + 1] = psi
    resid = (op.matrix @ vec.ravel() - z * vec.ravel()).reshape(vec.shape)[2 * L :]
    rows = np.concatenate([resid[0 : 2 * N, 1::2].ravel(), resid[1 : 2 * N + 1, 0::2].ravel()])
    return float(np.max(np.abs(rows), initial=0.0)) / norm
