"""Random unitary network model on a cylinder of perimeter 2M.

The model lives on the sites of Z x Z_{2M}.  Every even node (even column,
even ring) and every odd node (odd column, odd ring) carries a 2x2 unitary
scattering block built from a rotation by (r, t) and random unit phases.
This module constructs the scattering blocks, samples the phase disorder
(both the full six-phase-per-node form and the reduced one-phase-per-site
form), assembles the finite unitary restriction U^D with reflecting walls
at columns -2L and 2L, and exposes the rt = 0 block decompositions.

Column windows run over j in [-2L, 2L] (4L+1 columns); ring indices are
always reduced mod 2M.  State vectors are stored column-major: the block
of 2M consecutive entries at column j is the ring vector psi_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

# importing SciPy here would load it on every CLI start-up, so at run time
# (typing.get_type_hints included) the matrix annotation reads as Any
if TYPE_CHECKING:
    from scipy.sparse import csr_matrix
else:
    csr_matrix = Any

__all__ = [
    "ModelParams",
    "PhaseField",
    "NodePhaseField",
    "FiniteOperator",
    "scattering_matrix",
    "sample_phase_field",
    "sample_node_phases",
    "reduce_phases",
    "build_cylinder_operator",
    "build_full_cylinder_operator",
    "extreme_block_check",
]

_UNIT_TOL = 1e-9  # acceptable |q| - 1 for user-supplied phases


@dataclass(frozen=True)
class ModelParams:
    """Reflection/transmission pair (r, t) with r^2 + t^2 = 1.

    The single physical knob of the model.  ``from_r`` normalizes t from r;
    direct construction rejects pairs violating the circle constraint.
    """

    r: float
    t: float

    def __post_init__(self):
        if not (0.0 <= self.r <= 1.0) or not (0.0 <= self.t <= 1.0):
            raise ValueError(f"r and t must lie in [0, 1], got r={self.r}, t={self.t}")
        if abs(self.r**2 + self.t**2 - 1.0) > 1e-14:
            raise ValueError(
                f"r^2 + t^2 = {self.r**2 + self.t**2!r} violates unitarity beyond 1e-14"
            )

    @classmethod
    def from_r(cls, r: float) -> "ModelParams":
        return cls(float(r), math.sqrt(max(0.0, 1.0 - float(r) ** 2)))

    @classmethod
    def critical(cls) -> "ModelParams":
        """The self-dual point r = t = 1/sqrt(2)."""
        return cls(math.sqrt(0.5), math.sqrt(0.5))

    @property
    def rt(self) -> float:
        return self.r * self.t

    def require_transport(self) -> "ModelParams":
        """Raise unless rt != 0 (transfer matrices need both channels open)."""
        if self.rt == 0.0:
            raise ValueError("rt = 0: transfer-matrix and cocycle routines need rt != 0")
        return self


# ---------------------------------------------------------------------------
# counter-based phase RNG
#
# Phases are a pure hash of (seed, column, ring), so a field extended to a
# larger window agrees with the smaller one on shared sites, and sweeps are
# reproducible without storing state.

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_OFFSET = np.uint64(1 << 31)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _site_uniform(seed, columns, rings) -> np.ndarray:
    """Uniform [0,1) variates addressed by (seed, column, ring); broadcasts."""
    with np.errstate(over="ignore"):
        cols = np.asarray(columns, dtype=np.int64).astype(np.uint64) + _OFFSET
        rngs = np.asarray(rings, dtype=np.int64).astype(np.uint64) + _OFFSET
        counter = (cols << np.uint64(32)) | (rngs & np.uint64(0xFFFFFFFF))
        key = _mix64(np.asarray(seed, dtype=np.int64).astype(np.uint64) ^ _GOLD)
        h = _mix64(_mix64(counter ^ key) + _GOLD)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _site_phases(seed: int, columns: np.ndarray, rings: np.ndarray) -> np.ndarray:
    return np.exp(2j * np.pi * _site_uniform(seed, columns, rings))


@dataclass(frozen=True)
class PhaseField:
    """One uniform unit phase per lattice site on the window [-2L, 2L] x Z_{2M}.

    This is the reduced disorder: the full six-phase node randomness is
    unitarily equivalent to a diagonal of i.i.d. site phases (see
    ``reduce_phases``), and all production disorder is sampled in this form.
    """

    L: int
    M: int
    values: np.ndarray = field(repr=False)  # (4L+1, 2M), columns -2L..2L

    def __post_init__(self):
        expected = (4 * self.L + 1, 2 * self.M)
        if self.values.shape != expected:
            raise ValueError(f"phase array shape {self.values.shape} != {expected}")
        if np.max(np.abs(np.abs(self.values) - 1.0)) > 1e-14:
            raise ValueError("phase field entries must be unit modulus")

    def covers_columns(self, lo: int, hi: int) -> bool:
        return -2 * self.L <= lo and hi <= 2 * self.L


def sample_phase_field(seed: int, L: int, M: int) -> PhaseField:
    """Sample the reduced i.i.d. phase field on the window [-2L, 2L] x Z_{2M}.

    Deterministic per (seed, site): extending the window preserves the
    phases of shared sites.
    """
    if L < 0 or M < 1:
        raise ValueError("need L >= 0 and M >= 1")
    cols = np.arange(-2 * L, 2 * L + 1)
    rings = np.arange(2 * M)
    jj, kk = np.meshgrid(cols, rings, indexing="ij")
    values = _site_phases(seed, jj.ravel(), kk.ravel()).reshape(4 * L + 1, 2 * M)
    return PhaseField(L=L, M=M, values=values)


@dataclass(frozen=True)
class NodePhaseField:
    """Six unit phases per node pair on the node columns -2L-2, -2L, .., 2L+2.

    ``values[i, k]`` phases the pair whose even node sits at (2i - 2L - 2,
    2k): entries 0..2 the even node, entries 3..5 the odd node at
    (2i - 2L - 1, 2k + 1).  Only used to exercise the phase reduction;
    production disorder is the reduced ``PhaseField``.
    """

    L: int
    M: int
    values: np.ndarray = field(repr=False)  # (2L+3, M, 6)

    def __post_init__(self):
        expected = (2 * self.L + 3, self.M, 6)
        if self.values.shape != expected:
            raise ValueError(f"node phase array shape {self.values.shape} != {expected}")
        if np.max(np.abs(np.abs(self.values) - 1.0)) > _UNIT_TOL:
            raise ValueError("node phases must be unit modulus")

    def window(self, L: int, M: int) -> np.ndarray:
        """The (2L+3, M, 6) node pairs at columns -2L-2, .., 2L+2."""
        if self.M != M or not 0 <= L <= self.L:
            raise ValueError(
                f"node field (L={self.L}, M={self.M}) does not cover window (L={L}, M={M})"
            )
        return self.values[self.L - L : self.L + L + 3]


def sample_node_phases(seed: int, L: int, M: int) -> NodePhaseField:
    """Six i.i.d. phases per node pair, covering reductions on the (L, M) window."""
    rng = np.random.default_rng(seed)
    return NodePhaseField(L=L, M=M, values=np.exp(2j * np.pi * rng.random((2 * L + 3, M, 6))))


def _node_blocks(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Six-phase node blocks diag(q1 q2, q1 conj(q2)) [[t, -r], [r, t]] diag(q3, conj(q3)).

    ``q`` holds (q1, q2, q3) on its last axis; the blocks keep its leading axes.
    """
    q1, q2, q3 = np.moveaxis(q, -1, 0)
    right = np.stack([q3, np.conj(q3)], axis=-1)[..., None, :]
    return _reduced_blocks(q1 * q2, q1 * np.conj(q2), params) * right


def scattering_matrix(q, params: ModelParams) -> np.ndarray:
    """The U(2) node block diag(q1 q2, q1 conj(q2)) . [[t,-r],[r,t]] . diag(q3, conj(q3)).

    Unitary for unit phases, with det = q1^2.
    """
    q = np.asarray(q, dtype=complex)
    if np.max(np.abs(np.abs(q) - 1.0)) > _UNIT_TOL:
        raise ValueError(f"scattering phases must be unit modulus, got |q| = {np.abs(q)}")
    return _node_blocks(q, params)


def reduce_phases(full: NodePhaseField, L: int, M: int) -> PhaseField:
    """Collapse six phases per node to one uniform phase per site.

    The node operator factors as D1 . S . D2 with diagonal D1, D2; conjugating
    by D2 leaves D(q) S with q the per-site products below.  The map has
    maximal rank on the phase angles, so i.i.d. uniform inputs give i.i.d.
    uniform outputs.
    """
    p = np.moveaxis(full.window(L, M), -1, 0)  # p[n][i, k]: phase n of pair i, k
    own, left = p[:, 1:-1], p[:, :-2]  # pairs at even column c and c - 2
    values = np.empty((4 * L + 1, 2 * M), dtype=complex)
    # site (2j+1, 2k): conj(p6) of the pair below, p1 p2 of its own pair
    values[1::2, 0::2] = np.conj(np.roll(own[5, :-1], 1, axis=1)) * own[0, :-1] * own[1, :-1]
    # site (2j, 2k+1): p6 of the pair to the left, p1 conj(p2) of its own pair
    values[0::2, 1::2] = left[5] * own[0] * np.conj(own[1])
    # site (2j+2, 2k+2): p3 of its own pair, p4 p5 of the pair down-left
    values[0::2, 0::2] = own[2] * np.roll(left[3], 1, axis=1) * np.roll(left[4], 1, axis=1)
    # site (2j+1, 2k+1): conj(p3) of the even partner, p4 conj(p5) of its own pair
    values[1::2, 1::2] = np.conj(own[2, :-1]) * own[3, :-1] * np.conj(own[4, :-1])
    return PhaseField(L=L, M=M, values=values)


# ---------------------------------------------------------------------------
# finite cylinder operator


@dataclass(frozen=True)
class FiniteOperator:
    """Unitary restriction U^D to columns [-2L, 2L] with reflecting walls.

    Sparse, band width one in the column index.  Interior rows/columns hold
    the 2x2 node blocks; the 2M wall rules e(-2L, 2k+1) -> e(-2L, 2k+2) and
    e(2L, 2k) -> e(2L, 2k+1) close the operator unitarily.
    """

    L: int
    M: int
    params: ModelParams
    matrix: csr_matrix = field(repr=False)

    @property
    def dim(self) -> int:
        return 2 * self.M * (4 * self.L + 1)

    def index(self, column: int, ring: int) -> int:
        """Flat index of site (column, ring); column-major layout."""
        if not (-2 * self.L <= column <= 2 * self.L):
            raise ValueError(f"column {column} outside window")
        return (column + 2 * self.L) * 2 * self.M + ring % (2 * self.M)

    def unitarity_defect(self) -> float:
        gram = (self.matrix.conj().T @ self.matrix).toarray()
        return float(np.max(np.abs(gram - np.eye(self.dim))))


def _assemble(params: ModelParams, L: int, M: int, even, odd) -> FiniteOperator:
    """U^D from the 2x2 node blocks plus the two reflecting wall rules.

    ``even`` and ``odd`` are (2L, M, 2, 2) block arrays over the node columns
    c = -2L, -2L+2, .., 2L-2 and the ring pairs k.  The even node at (c, 2k)
    maps inputs (c, 2k), (c+1, 2k+1) to outputs (c+1, 2k), (c, 2k+1); the
    odd node at (c+1, 2k+1) maps inputs (c+2, 2k+1), (c+1, 2k+2) to outputs
    (c+2, 2k+2), (c+1, 2k+1).  The walls e(-2L, 2k+1) -> e(-2L, 2k+2) and
    e(2L, 2k) -> e(2L, 2k+1) are placed with amplitude one.
    """
    from scipy import sparse  # deferred: importing it costs every CLI start-up

    two_m = 2 * M
    dim = two_m * (4 * L + 1)

    def idx(c, m):
        return (c + 2 * L) * two_m + m % two_m

    c = np.arange(-2 * L, 2 * L, 2)[:, None]
    k = np.arange(M)
    # (in0, in1, out0, out1) site indices of every node, each (2L, M)
    even_sites = (idx(c, 2 * k), idx(c + 1, 2 * k + 1), idx(c + 1, 2 * k), idx(c, 2 * k + 1))
    odd_sites = (
        idx(c + 2, 2 * k + 1), idx(c + 1, 2 * k + 2), idx(c + 2, 2 * k + 2), idx(c + 1, 2 * k + 1)
    )
    rows, cols, vals = [], [], []
    for (in0, in1, out0, out1), blocks in ((even_sites, even), (odd_sites, odd)):
        rows.append(np.stack([out0, out0, out1, out1], axis=-1).ravel())
        cols.append(np.stack([in0, in1, in0, in1], axis=-1).ravel())
        vals.append(blocks.reshape(-1))
    rows.append(np.stack([idx(-2 * L, 2 * k + 2), idx(2 * L, 2 * k + 1)], axis=-1).ravel())
    cols.append(np.stack([idx(-2 * L, 2 * k + 1), idx(2 * L, 2 * k)], axis=-1).ravel())
    vals.append(np.ones(2 * M, dtype=complex))
    mat = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )
    return FiniteOperator(L=L, M=M, params=params, matrix=mat)


def _reduced_blocks(q0: np.ndarray, q1: np.ndarray, params: ModelParams) -> np.ndarray:
    """Node blocks diag(q0, q1) [[t, -r], [r, t]] for output phases q0, q1."""
    entries = [q0 * params.t, -q0 * params.r, q1 * params.r, q1 * params.t]
    return np.stack(entries, axis=-1).reshape(q0.shape + (2, 2))


def build_cylinder_operator(
    params: ModelParams, phases: PhaseField, L: int, M: int
) -> FiniteOperator:
    """Assemble U^D = D(q) S restricted to the window, reduced disorder.

    Each node block is the rotation [[t, -r], [r, t]] with its output rows
    multiplied by the output site phases (node geometry on ``_assemble``).
    """
    if M < 1 or L < 0:
        raise ValueError("need M >= 1 and L >= 0")
    if phases.M != M or phases.L < L:
        raise ValueError(
            f"phase window (L={phases.L}, M={phases.M}) does not cover operator window "
            f"(L={L}, M={M})"
        )
    # row i of q is column -2L + i of the operator window
    # output phases: even nodes (c+1, 2k), (c, 2k+1); odd nodes (c+2, 2k+2), (c+1, 2k+1)
    q = phases.values[2 * (phases.L - L) : 2 * (phases.L + L) + 1]
    even = _reduced_blocks(q[1::2, 0::2], q[0:-1:2, 1::2], params)
    odd = _reduced_blocks(np.roll(q[2::2, 0::2], -1, axis=1), q[1::2, 1::2], params)
    return _assemble(params, L, M, even, odd)


def build_full_cylinder_operator(
    params: ModelParams, nodes: NodePhaseField, L: int, M: int
) -> FiniteOperator:
    """Same window and walls, but with the unreduced six-phase node blocks."""
    pairs = nodes.window(L, M)[1:-2]  # the node columns -2L, .., 2L-2
    even, odd = _node_blocks(pairs[..., :3], params), _node_blocks(pairs[..., 3:], params)
    return _assemble(params, L, M, even, odd)


def _block_labels(op: FiniteOperator) -> np.ndarray:
    """The rt = 0 invariant four-site block of every site, -1 outside all blocks.

    For r = 0 the cycle through (2j, 2k) is
    (2j,2k) -> (2j+1,2k) -> (2j+1,2k-1) -> (2j,2k-1) -> back;
    for t = 0 it is (2j,2k) -> (2j,2k+1) -> (2j-1,2k+1) -> (2j-1,2k) -> back.
    Wall rules close the j = -L (r=0) and j = L (t=0) blocks.  Returned in
    the flat site order of ``op``.
    """
    L, M = op.L, op.M
    # block (i, k) on the column pair (2i, 2i+1) and ring pair (2k, 2k+1), counted from -2L
    ids = np.arange(2 * L * M).reshape(2 * L, M)
    blocks = np.repeat(np.repeat(ids, 2, axis=0), 2, axis=1)
    labels = np.full((4 * L + 1, 2 * M), -1)
    if op.params.r == 0.0:
        # columns (2j, 2j+1) for 2j = -2L .. 2L-2, rings (2k-1, 2k)
        labels[:-1] = np.roll(blocks, -1, axis=1)
    else:
        # columns (2j-1, 2j) for 2j = -2L+2 .. 2L, rings (2k, 2k+1)
        labels[1:] = blocks
    return labels.ravel()


def extreme_block_check(op: FiniteOperator) -> float:
    """Leakage of an rt = 0 operator out of its invariant 4-site subspaces.

    Returns the largest matrix element connecting a block to its
    complement; exact invariance means 0.0.
    """
    if op.params.rt != 0.0:
        raise ValueError("extreme_block_check requires rt = 0")
    labels = _block_labels(op)
    coo = op.matrix.tocoo()
    leaks = (labels[coo.col] >= 0) & (labels[coo.row] != labels[coo.col])
    return float(np.abs(coo.data[leaks]).max(initial=0.0))
