"""The exact-identity checks, each written once.

Every check is a function returning ``(ok, detail)`` with its tolerance
inside.  Its arguments are the draw counts and seeds it samples from, the
only things that differ between its callers: ``ccnet verify`` runs the
``CHECKS`` table at its quick or full arguments, and the acceptance suite
calls the same functions at the seeds its criteria pin.
"""

from __future__ import annotations

import math

import numpy as np

from .lyapunov import thouless_rhs
from .model import (
    ModelParams,
    NodePhaseField,
    build_cylinder_operator,
    build_full_cylinder_operator,
    extreme_block_check,
    reduce_phases,
    sample_node_phases,
    sample_phase_field,
    scattering_matrix,
)
from .spectral import (
    _BAND_DET_TOL,
    _DET_IDENTITY_TOL,
    band_grid,
    build_parity_operators,
    determinant_identity_residual,
    eigendecompose,
    krylov_rank,
)
from .transfer import LayerPhases, cocycle_step, propagate, reconstruct_and_verify


def scattering_unitarity(draws):
    """Node blocks are unitary with det S(q) = q_0^2, to 1e-14."""
    rng = np.random.default_rng(0)
    worst_u, worst_d = 0.0, 0.0
    for _ in range(draws):
        params = ModelParams.from_r(0.05 + 0.9 * rng.random())
        q = np.exp(2j * np.pi * rng.random(3))
        s = scattering_matrix(q, params)
        worst_u = max(worst_u, np.max(np.abs(s.conj().T @ s - np.eye(2))))
        worst_d = max(worst_d, abs(np.linalg.det(s) - q[0] ** 2))
    return max(worst_u, worst_d) <= 1e-14, f"max defect {max(worst_u, worst_d):.2e}"


def u11_membership(draws, seed):
    """On-circle cocycle steps lie in U(1,1) and obey the norm bound (1/rt)(1+r)(1+t)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    bound_ok = True
    for _ in range(draws):
        params = ModelParams.from_r(0.05 + 0.9 * rng.random())
        M = int(rng.integers(1, 5))
        z = np.exp(2j * np.pi * rng.random())
        step = cocycle_step(z, LayerPhases.random(rng, M), params)
        worst = max(worst, step.u11_defect() / max(1.0, step.norm() ** 2))
        bound = (1.0 / params.rt) * (1.0 + params.r) * (1.0 + params.t)
        bound_ok &= step.norm() <= bound * (1.0 + 1e-12)
    return (worst <= 1e-12 and bound_ok), f"max normalized defect {worst:.2e}"


def singular_value_pairing():
    """Log singular values of a short on-circle propagator pair as (s, 1/s)."""
    params = ModelParams.from_r(0.62)
    phases = sample_phase_field(11, 3, 2)
    prop = propagate(np.exp(0.4j), phases, 3, params)
    logs = np.sort(np.log(prop.singular_values()))[::-1]
    defect = np.max(np.abs(logs + logs[::-1]))
    return defect <= 1e-8, f"log-sv pairing defect {defect:.2e}"


def spectral_covariance():
    """A_{wz}(p) = A_z(w . p) at random off-circle z and |w| = 1, entrywise to 1e-12."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(40):
        params = ModelParams.from_r(0.1 + 0.8 * rng.random())
        M = int(rng.integers(1, 4))
        z = (0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
        w = np.exp(2j * np.pi * rng.random())
        layer = LayerPhases.random(rng, M)
        lhs = cocycle_step(w * z, layer, params).matrix
        rhs = cocycle_step(z, layer.twisted(w), params).matrix
        worst = max(worst, np.max(np.abs(lhs - rhs)))
    return worst <= 1e-12, f"max entrywise covariance defect {worst:.2e}"


def wall_operator_algebra(draws, seed):
    """W_z^2 = 1 and V_z^-1 = K V_z K at random off-circle z, to 1e-12."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        z = (0.25 + 1.75 * rng.random()) * np.exp(2j * np.pi * rng.random())
        ops = build_parity_operators(z, int(rng.integers(1, 5)))
        worst = max(worst, ops.w_square_defect(), ops.v_inverse_defect())
    return worst <= 1e-12, f"max algebra defect {worst:.2e}"


def finite_operator_unitarity():
    """U^D is unitary from r = 0 through the self-dual point to r = 1."""
    worst = 0.0
    for r in (0.0, 0.6, math.sqrt(0.5), 1.0):
        params = ModelParams.from_r(r)
        op = build_cylinder_operator(params, sample_phase_field(5, 2, 2), 2, 2)
        worst = max(worst, op.unitarity_defect())
    return worst <= 1e-12, f"max unitarity defect {worst:.2e}"


def extreme_block_invariance(field_seed):
    """At rt = 0 (r = 0 and r = 1), U^D leaks nothing out of its 4-site blocks."""
    defect = 0.0
    for r in (0.0, 1.0):
        params = ModelParams.from_r(r)
        op = build_cylinder_operator(params, sample_phase_field(field_seed, 2, 2), 2, 2)
        defect = max(defect, extreme_block_check(op))
    return defect == 0.0, f"block leakage {defect!r}"


def determinant_identity(field_seeds, z_offset, z_per_field):
    """det(z - U^D) against the transfer side, field s drawing z from rng(s + z_offset)."""
    params = ModelParams.from_r(0.6)
    worst = 0.0
    for seed in field_seeds:
        phases = sample_phase_field(seed, 2, 2)
        op = build_cylinder_operator(params, phases, 2, 2)
        spectrum = eigendecompose(op, want_vectors=False)
        zrng = np.random.default_rng(seed + z_offset)
        done = 0
        while done < z_per_field:
            z = (0.5 + 1.5 * zrng.random()) * np.exp(2j * np.pi * zrng.random())
            check = determinant_identity_residual(z, params, 2, 2, phases, spectrum=spectrum)
            if check.status != "ok":
                continue
            worst = max(worst, check.rel_error)
            done += 1
    return worst <= _DET_IDENTITY_TOL, f"max relative error {worst:.2e}"


def transfer_reconstruction(trials, seed, field_seed):
    """Vectors grown by the transfer recursion solve U psi = z psi, residual 1e-10."""
    params = ModelParams.from_r(0.6)
    rng = np.random.default_rng(seed)
    worst = 0.0
    phases = sample_phase_field(field_seed, 5, 3)
    for _ in range(trials):
        psi0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        z = np.exp(2j * np.pi * rng.random())
        worst = max(worst, reconstruct_and_verify(z, phases, psi0, 5, params))
    return worst <= 1e-10, f"max residual {worst:.2e}"


def band_symbol(rs):
    """Trivial-phase band symbol: det defect 1e-12, band edge at arcsin(2rt) to 1e-9."""
    det_defect, edge_err = 0.0, 0.0
    for r in rs:
        structure = band_grid(ModelParams.from_r(r), 64, 64)
        det_defect = max(det_defect, structure.det_defect)
        edge_err = max(edge_err, structure.edge_error())
    ok = det_defect <= _BAND_DET_TOL and edge_err <= 1e-9
    return ok, f"det defect {det_defect:.2e}, edge error {edge_err:.2e}"


def cyclicity_ranks(field_seeds, max_n):
    """{U^m e_mu : |m| <= n} has rank 2M(2n+1) for n = 0..max_n, M = 2, window L = 4."""
    params = ModelParams.from_r(0.6)
    for seed in field_seeds:
        phases = sample_phase_field(seed, 4, 2)
        for n in range(max_n + 1):
            if krylov_rank(params, phases, n, 4) != 4 * (2 * n + 1):
                return False, f"rank mismatch at field {seed}, n={n}"
    return True, "ranks 2M(2n+1) exact"


def log_potential_closed_form():
    """The log-potential quadrature and the mean law agree with closed forms to 1e-9."""
    params = ModelParams.from_r(0.6)
    worst = 0.0
    for z in (2.0, 0.5, 1.3 * np.exp(0.7j)):
        theta = np.linspace(0.0, 2.0 * np.pi, 1 << 15, endpoint=False)
        quadrature = float(np.mean(np.log(np.abs(z - np.exp(1j * theta)))))
        closed = math.log(max(1.0, abs(z)))
        predicted = 2 * quadrature + 0.5 * math.log(1 / params.rt) - math.log(abs(z))
        worst = max(
            worst,
            abs(quadrature - closed),
            abs(predicted - thouless_rhs(z, params)),
        )
    return worst <= 1e-9, f"max closed-form deviation {worst:.2e}"


def phase_reduction(node_seed):
    """Node phases reduce to site phases by a diagonal conjugation.

    Conjugating the six-phase U^D by the diagonal D2 of its nodes' right
    factors gives the reduced U^D on every row but the 2M wall rows, which
    D2 does not conjugate, to 1e-13 (r = 0.6, L = M = 2).  The reduction
    also keeps unit moduli and fixes the all-ones field.
    """
    params, L, M = ModelParams.from_r(0.6), 2, 2
    nodes = sample_node_phases(node_seed, L, M)
    reduced = reduce_phases(nodes, L, M)
    full = build_full_cylinder_operator(params, nodes, L, M).matrix.toarray()
    red = build_cylinder_operator(params, reduced, L, M)
    p = np.moveaxis(nodes.values, -1, 0)  # p[n][i, k]: phase n of pair i, k
    own, left = p[:, 1:-1], p[:, :-2]  # pairs at even column c and c - 2
    d2 = np.empty((4 * L + 1, 2 * M), dtype=complex)  # site order of U^D
    d2[0::2, 0::2] = own[2]
    d2[1::2, 1::2] = np.conj(own[2, :-1])
    d2[0::2, 1::2] = left[5]
    d2[1::2, 0::2] = np.conj(np.roll(own[5, :-1], 1, axis=1))
    d2 = d2.ravel()
    conjugated = d2[:, None] * full * np.conj(d2)
    walls = [red.index(-2 * L, 2 * k + 2) for k in range(M)] + [
        red.index(2 * L, 2 * k + 1) for k in range(M)
    ]
    interior = np.delete(np.arange(red.dim), walls)
    defect = float(np.max(np.abs(conjugated[interior] - red.matrix.toarray()[interior])))
    trivial = NodePhaseField(L=L, M=M, values=np.ones_like(nodes.values))
    ones = np.max(np.abs(reduce_phases(trivial, L, M).values - 1.0)) <= 1e-14
    unit = np.max(np.abs(np.abs(reduced.values) - 1.0)) <= 1e-14
    ok = defect <= 1e-13 and ones and unit
    detail = f"interior conjugation defect {defect:.2e}, all-ones fixed point and unit moduli"
    return bool(ok), detail


# (name, check, quick arguments, full arguments), in the order verify prints
CHECKS = [
    ("scattering unitarity & det", scattering_unitarity, (100,), (500,)),
    ("U(1,1) membership & norm bound", u11_membership, (200, 1), (1000, 1)),
    ("singular-value pairing", singular_value_pairing, (), ()),
    ("spectral-parameter covariance", spectral_covariance, (), ()),
    ("wall-operator algebra", wall_operator_algebra, (25, 4), (100, 4)),
    ("finite-operator unitarity", finite_operator_unitarity, (), ()),
    ("rt=0 block invariance", extreme_block_invariance, (6,), (6,)),
    ("determinant identity", determinant_identity, ([1], 13, 4), ([1, 2, 3, 4, 5], 13, 20)),
    ("transfer reconstruction", transfer_reconstruction, (10, 5, 17), (100, 5, 17)),
    ("band symbol det & edges", band_symbol, ([0.6],), ([0.6],)),
    ("cyclicity ranks", cyclicity_ranks, ([23], 2), ([23], 3)),
    ("log-potential closed form", log_potential_closed_form, (), ()),
    ("phase reduction", phase_reduction, (31,), (31,)),
]
