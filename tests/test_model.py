import numpy as np
import pytest

from ccnet import (
    FiniteOperator,
    ModelParams,
    NodePhaseField,
    PhaseField,
    build_cylinder_operator,
    build_full_cylinder_operator,
    extreme_block_check,
    invariants,
    reduce_phases,
    sample_node_phases,
    sample_phase_field,
    scattering_matrix,
)
from ccnet.model import _block_labels


# ---------------------------------------------------------------------------
# parameters


def test_params_circle_constraint():
    ModelParams(0.6, 0.8)
    with pytest.raises(ValueError):
        ModelParams(0.6, 0.9)
    with pytest.raises(ValueError):
        ModelParams(-0.1, 0.8)


def test_params_from_r_normalizes():
    for r in [0.0, 0.3, np.sqrt(0.5), 0.95, 1.0]:
        p = ModelParams.from_r(r)
        assert abs(p.r**2 + p.t**2 - 1.0) <= 1e-14


def test_require_transport_rejects_extremes():
    with pytest.raises(ValueError):
        ModelParams.from_r(0.0).require_transport()
    with pytest.raises(ValueError):
        ModelParams.from_r(1.0).require_transport()
    ModelParams.from_r(0.5).require_transport()


# ---------------------------------------------------------------------------
# scattering matrix


def test_scattering_trivial_phases(lopsided):
    s = scattering_matrix((1, 1, 1), lopsided)
    assert np.allclose(s, [[0.8, -0.6], [0.6, 0.8]], atol=1e-15)


def test_scattering_det_is_q1_squared(lopsided):
    s = scattering_matrix((1j, 1, 1), lopsided)
    assert abs(np.linalg.det(s) - (-1.0)) <= 1e-14


def test_scattering_zero_reflection_identity():
    p = ModelParams(0.0, 1.0)
    s = scattering_matrix((1, 1, 1), p)
    assert np.allclose(s, np.eye(2), atol=1e-15)


def test_scattering_unitary_and_det_property(rng, ):
    for _ in range(200):
        p = ModelParams.from_r(rng.uniform(0.0, 1.0))
        q = np.exp(2j * np.pi * rng.random(3))
        s = scattering_matrix(q, p)
        assert np.max(np.abs(s.conj().T @ s - np.eye(2))) <= 1e-14
        assert abs(np.linalg.det(s) - q[0] ** 2) <= 1e-14


def test_scattering_rejects_non_unit_phase(lopsided):
    with pytest.raises(ValueError):
        scattering_matrix((0.5, 1, 1), lopsided)


# ---------------------------------------------------------------------------
# phase field


def test_phase_field_deterministic():
    a = sample_phase_field(42, 3, 2)
    b = sample_phase_field(42, 3, 2)
    assert np.array_equal(a.values, b.values)


def test_phase_field_window_extension_stable():
    small = sample_phase_field(7, 2, 3)
    big = sample_phase_field(7, 4, 3)
    assert np.array_equal(small.values, big.values[4:-4])


def test_phase_field_seed_changes_field():
    a = sample_phase_field(1, 2, 2)
    b = sample_phase_field(2, 2, 2)
    assert not np.allclose(a.values, b.values)


def test_phase_field_single_site_circular_mean():
    # one site, many realizations: the empirical mean must shrink like 3/sqrt(N)
    from ccnet.model import _site_phases

    seeds = np.arange(100_000)
    samples = _site_phases(seeds, np.full_like(seeds, 3), np.full_like(seeds, 1))
    assert abs(samples.mean()) <= 0.02


def test_phase_field_ring_reduction_and_bounds(lopsided):
    # the window is [-2L, 2L] x Z_2M: sites address rings mod 2M, and columns
    # outside the window are refused
    f = sample_phase_field(5, 1, 2)
    assert f.values.shape == (5, 4)
    assert f.covers_columns(-2, 2) and not f.covers_columns(-2, 3)
    op = build_cylinder_operator(lopsided, f, 1, 2)
    assert op.index(0, 4) == op.index(0, 0)
    with pytest.raises(ValueError):
        op.index(3, 0)


# ---------------------------------------------------------------------------
# phase reduction


def _trivial_nodes(L, M):
    return NodePhaseField(L=L, M=M, values=np.ones((2 * L + 3, M, 6), dtype=complex))


def _six(nodes, col, ring):
    """The six phases of the node pair whose even node sits at (col, ring)."""
    return nodes.values[(col + 2 * nodes.L + 2) // 2, (ring % (2 * nodes.M)) // 2]


def _reduce_phases_oracle(full, L, M):
    """The per-site loop ``reduce_phases`` replaced, kept as its oracle."""
    two_m = 2 * M
    values = np.empty((4 * L + 1, two_m), dtype=complex)
    for col in range(-2 * L, 2 * L + 1):
        for ring in range(two_m):
            cpar, rpar = col % 2, ring % 2
            if cpar == 1 and rpar == 0:
                # site (2j+1, 2k): conj(p6) of pair below, p1 p2 of own pair
                p_own = _six(full, col - 1, ring)
                p_dn = _six(full, col - 1, ring - 2)
                values[col + 2 * L, ring] = np.conj(p_dn[5]) * p_own[0] * p_own[1]
            elif cpar == 0 and rpar == 1:
                # site (2j, 2k+1): p6 of pair to the left, p1 conj(p2) of own pair
                p_own = _six(full, col, ring - 1)
                p_lf = _six(full, col - 2, ring - 1)
                values[col + 2 * L, ring] = p_lf[5] * p_own[0] * np.conj(p_own[1])
            elif cpar == 0 and rpar == 0:
                # site (2j+2, 2k+2): p3 of own pair, p4 p5 of pair down-left
                p_here = _six(full, col, ring)
                p_dl = _six(full, col - 2, ring - 2)
                values[col + 2 * L, ring] = p_here[2] * p_dl[3] * p_dl[4]
            else:
                # site (2j+1, 2k+1): conj(p3) of even partner, p4 conj(p5) own
                p_pair = _six(full, col - 1, ring - 1)
                values[col + 2 * L, ring] = (
                    np.conj(p_pair[2]) * p_pair[3] * np.conj(p_pair[4])
                )
    return values


def test_reduce_matches_per_site_oracle():
    for seed in range(6):
        for L, M in ((0, 1), (1, 1), (1, 2), (2, 3), (3, 4)):
            nodes = sample_node_phases(seed, L, M)
            for window_L in range(L + 1):  # a field covering a larger window
                reduced = reduce_phases(nodes, window_L, M)
                assert reduced.values.shape == (4 * window_L + 1, 2 * M)
                oracle = _reduce_phases_oracle(nodes, window_L, M)
                assert np.max(np.abs(reduced.values - oracle)) <= 1e-15


def test_node_phases_draw_in_column_ring_order():
    # one rng.random(6) per node pair, columns outer and ring pairs inner
    L, M = 2, 3
    nodes = sample_node_phases(9, L, M)
    rng = np.random.default_rng(9)
    for col in range(-2 * L - 2, 2 * L + 3, 2):
        for ring in range(0, 2 * M, 2):
            assert np.array_equal(_six(nodes, col, ring), np.exp(2j * np.pi * rng.random(6)))


def test_reduce_all_ones_is_all_ones():
    reduced = reduce_phases(_trivial_nodes(2, 2), 2, 2)
    assert np.max(np.abs(reduced.values - 1.0)) <= 1e-14


def test_reduce_single_node_phase_lands_on_site():
    # p1 = exp(i alpha) at the node pair (0, 0), everything else trivial:
    # the site phase at (1, 0) must be exactly exp(i alpha)
    alpha = 0.731
    field = _trivial_nodes(2, 2)
    field.values[3, 0, 0] = np.exp(1j * alpha)  # pair row (0 + 2L + 2) / 2
    reduced = reduce_phases(field, 2, 2)
    # column c sits at row c + 2L of the values
    assert reduced.values[1 + 4, 0] == pytest.approx(np.exp(1j * alpha), abs=1e-14)
    assert reduced.values[0 + 4, 1] == pytest.approx(np.exp(1j * alpha), abs=1e-14)


def test_reduce_outputs_unit_modulus():
    reduced = reduce_phases(sample_node_phases(3, 2, 2), 2, 2)
    assert np.max(np.abs(np.abs(reduced.values) - 1.0)) <= 1e-14


def test_reduce_missing_node_raises(lopsided):
    # a node field that does not cover the window misses the nodes it needs
    field = _trivial_nodes(1, 1)
    for L, M in ((2, 1), (1, 2)):
        with pytest.raises(ValueError):
            reduce_phases(field, L, M)
        with pytest.raises(ValueError):
            build_full_cylinder_operator(lopsided, field, L, M)


def test_node_field_rejects_bad_shape_and_moduli():
    with pytest.raises(ValueError):
        NodePhaseField(L=1, M=1, values=np.ones((4, 1, 6), dtype=complex))
    values = np.ones((5, 1, 6), dtype=complex)
    values[2, 0, 4] = 1.0 + 1e-6
    with pytest.raises(ValueError):
        NodePhaseField(L=1, M=1, values=values)


def test_reduce_outputs_uncorrelated():
    # i.i.d. uniform inputs stay i.i.d. after reduction: circular correlation
    # between any two output sites is Monte-Carlo small
    n = 10_000
    sites = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (-1, 2)]
    rows, rings = (np.array(axis) for axis in zip(*sites))
    acc = np.zeros((len(sites), len(sites)), dtype=complex)
    for seed in range(n):
        reduced = reduce_phases(sample_node_phases(seed, 1, 2), 1, 2)
        vals = reduced.values[rows + 2, rings]
        acc += np.outer(vals, np.conj(vals))
    acc /= n
    off_diag = acc - np.diag(np.diag(acc))
    assert np.max(np.abs(off_diag)) <= 0.05


def test_reduction_equivalence_with_full_model():
    # conjugating the six-phase operator by the diagonal D2 must reproduce the
    # reduced-model operator on every interior row
    ok, detail = invariants.phase_reduction(13)
    assert ok, detail


def test_phase_reduction_invariant_catches_conjugated_reduction(monkeypatch):
    # a reduction returning the conjugate field keeps unit moduli and the
    # all-ones fixed point; only the conjugation identity tells it apart
    reduce = invariants.reduce_phases

    def conjugated(nodes, L, M):
        field = reduce(nodes, L, M)
        return PhaseField(L=field.L, M=field.M, values=np.conj(field.values))

    monkeypatch.setattr(invariants, "reduce_phases", conjugated)
    # the check exactly as verify runs it
    checks = {name: (check, quick) for name, check, quick, _ in invariants.CHECKS}
    check, quick_args = checks["phase reduction"]
    ok, detail = check(*quick_args)
    assert not ok, detail


# ---------------------------------------------------------------------------
# finite operator


def test_operator_smallest_window_is_ring_shift(lopsided):
    # L = 0 leaves no interior node: both wall rules act on the single column
    # and U^D degenerates to the cyclic ring shift
    op = build_cylinder_operator(lopsided, sample_phase_field(3, 0, 1), 0, 1)
    assert np.allclose(op.matrix.toarray(), [[0, 1], [1, 0]], atol=0)
    op2 = build_cylinder_operator(lopsided, sample_phase_field(3, 0, 2), 0, 2)
    dense = op2.matrix.toarray()
    for m in range(4):
        assert dense[(m + 1) % 4, m] == 1.0


def test_operator_hand_assembled_m1_l1():
    # trivial phases, M = 1, L = 1: all entries written out from the node rules
    p = ModelParams(0.6, 0.8)
    trivial = PhaseField(L=1, M=1, values=np.ones((5, 2), dtype=complex))
    op = build_cylinder_operator(p, trivial, 1, 1)
    r, t = 0.6, 0.8
    expected = np.zeros((10, 10), dtype=complex)
    expected[2, 0], expected[2, 3], expected[1, 0], expected[1, 3] = t, -r, r, t
    expected[6, 4], expected[6, 7], expected[5, 4], expected[5, 7] = t, -r, r, t
    expected[4, 5], expected[4, 2], expected[3, 5], expected[3, 2] = t, -r, r, t
    expected[8, 9], expected[8, 6], expected[7, 9], expected[7, 6] = t, -r, r, t
    expected[0, 1] = 1.0
    expected[9, 8] = 1.0
    assert np.array_equal(op.matrix.toarray(), expected)
    assert op.unitarity_defect() <= 1e-14


@pytest.mark.parametrize("r,M,L", [(0.6, 1, 1), (0.6, 2, 2), (np.sqrt(0.5), 3, 2), (0.0, 2, 2), (1.0, 2, 2)])
def test_operator_unitary(r, M, L):
    p = ModelParams.from_r(r)
    op = build_cylinder_operator(p, sample_phase_field(11, L, M), L, M)
    assert op.unitarity_defect() <= 1e-12


def test_operator_band_structure_and_fill(lopsided):
    L, M = 2, 2
    op = build_cylinder_operator(lopsided, sample_phase_field(5, L, M), L, M)
    coo = op.matrix.tocoo()
    # band width one in the column index (2M sites a column)
    assert np.max(np.abs(coo.row // (2 * M) - coo.col // (2 * M))) <= 1
    # interior rows and columns carry two entries, the 2M wall rows/cols one
    row_counts = np.bincount(coo.row, minlength=op.dim)
    col_counts = np.bincount(coo.col, minlength=op.dim)
    boundary_rows = {op.index(-2 * L, 2 * k + 2) for k in range(M)} | {
        op.index(2 * L, 2 * k + 1) for k in range(M)
    }
    boundary_cols = {op.index(-2 * L, 2 * k + 1) for k in range(M)} | {
        op.index(2 * L, 2 * k) for k in range(M)
    }
    for i in range(op.dim):
        assert row_counts[i] == (1 if i in boundary_rows else 2)
        assert col_counts[i] == (1 if i in boundary_cols else 2)


def test_operator_window_mismatch_raises(lopsided):
    phases = sample_phase_field(1, 1, 2)
    with pytest.raises(ValueError):
        build_cylinder_operator(lopsided, phases, 2, 2)
    with pytest.raises(ValueError):
        build_cylinder_operator(lopsided, phases, 1, 3)


def test_apply_operator_boundary_rule(lopsided):
    L, M = 2, 2
    op = build_cylinder_operator(lopsided, sample_phase_field(9, L, M), L, M)
    v = np.zeros(op.dim, dtype=complex)
    v[op.index(-2 * L, 1)] = 1.0
    w = op.matrix @ v
    expected = np.zeros(op.dim, dtype=complex)
    expected[op.index(-2 * L, 2)] = 1.0
    assert np.array_equal(w, expected)
    v2 = np.zeros(op.dim, dtype=complex)
    v2[op.index(2 * L, 0)] = 1.0
    assert (op.matrix @ v2)[op.index(2 * L, 1)] == 1.0


def test_apply_operator_zero_and_norm(rng, lopsided):
    op = build_cylinder_operator(lopsided, sample_phase_field(2, 2, 2), 2, 2)
    assert np.all(op.matrix @ np.zeros(op.dim) == 0)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    w = op.matrix @ v
    assert abs(np.linalg.norm(w) - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)


# ---------------------------------------------------------------------------
# extreme cases


def _permutation_cycles(op):
    """Cycle decomposition of a one-entry-per-column operator."""
    dense = op.matrix.toarray()
    nxt, weight = {}, {}
    for col in range(op.dim):
        idx = np.flatnonzero(np.abs(dense[:, col]) > 0)
        assert idx.size == 1
        nxt[col] = int(idx[0])
        weight[col] = dense[idx[0], col]
    seen, cycles = set(), []
    for start in range(op.dim):
        if start in seen:
            continue
        cyc, node = [], start
        while node not in seen:
            seen.add(node)
            cyc.append(node)
            node = nxt[node]
        cycles.append(cyc)
    return [(cyc, np.prod([weight[c] for c in cyc])) for cyc in cycles]


@pytest.mark.parametrize("r", [0.0, 1.0])
def test_extreme_block_check_exact(r):
    p = ModelParams.from_r(r)
    op = build_cylinder_operator(p, sample_phase_field(21, 2, 2), 2, 2)
    assert extreme_block_check(op) == 0.0


def test_extreme_block_check_rejects_transport(lopsided):
    op = build_cylinder_operator(lopsided, sample_phase_field(21, 1, 1), 1, 1)
    with pytest.raises(ValueError):
        extreme_block_check(op)


def _invariant_quadruples(op):
    """The rt = 0 blocks enumerated one by one, kept as the oracle of the labels."""
    L, M = op.L, op.M
    quads = []
    if op.params.r == 0.0:
        for c in range(-2 * L, 2 * L - 1, 2):  # even columns -2L .. 2L-2
            for k in range(M):
                quads.append(
                    [
                        op.index(c, 2 * k),
                        op.index(c + 1, 2 * k),
                        op.index(c + 1, 2 * k - 1),
                        op.index(c, 2 * k - 1),
                    ]
                )
    else:
        for c in range(-2 * L + 2, 2 * L + 1, 2):  # even columns -2L+2 .. 2L
            for k in range(M):
                quads.append(
                    [
                        op.index(c, 2 * k),
                        op.index(c, 2 * k + 1),
                        op.index(c - 1, 2 * k + 1),
                        op.index(c - 1, 2 * k),
                    ]
                )
    return quads


@pytest.mark.parametrize("r", [0.0, 1.0])
def test_block_labels_match_quadruple_oracle(r):
    p = ModelParams.from_r(r)
    for L in range(4):
        for M in range(1, 5):
            op = build_cylinder_operator(p, sample_phase_field(3, L, M), L, M)
            labels = _block_labels(op)
            blocks = {}
            for site, label in enumerate(labels):
                if label >= 0:
                    blocks.setdefault(label, []).append(site)
            expected = sorted(sorted(quad) for quad in _invariant_quadruples(op))
            assert sorted(blocks.values()) == expected


@pytest.mark.parametrize("r", [0.0, 1.0])
def test_extreme_block_check_reads_planted_leak(r, rng):
    # one entry from a block column to a site outside that block is exactly
    # the leakage reported
    from scipy import sparse

    L, M = 2, 2
    op = build_cylinder_operator(ModelParams.from_r(r), sample_phase_field(21, L, M), L, M)
    quads = _invariant_quadruples(op)
    for _ in range(5):
        quad = quads[rng.integers(len(quads))]
        col = quad[rng.integers(4)]
        row = rng.choice(np.setdiff1d(np.arange(op.dim), quad))
        modulus = 0.1 + rng.random()
        value = modulus * (1, 1j, -1, -1j)[rng.integers(4)]  # one zero part: exact modulus
        plant = sparse.csr_matrix(([value], ([row], [col])), shape=op.matrix.shape)
        leaky = FiniteOperator(L=L, M=M, params=op.params, matrix=op.matrix + plant)
        assert extreme_block_check(leaky) == modulus


@pytest.mark.parametrize("r", [0.0, 1.0])
def test_extreme_spectrum_is_union_of_block_spectra(r):
    # oracle: with rt = 0 the operator is a weighted permutation, so its
    # spectrum is the union of len-th roots of each cycle weight
    from ccnet import eigendecompose

    p = ModelParams.from_r(r)
    op = build_cylinder_operator(p, sample_phase_field(8, 2, 2), 2, 2)
    expected = []
    for cyc, w in _permutation_cycles(op):
        n = len(cyc)
        base = np.log(w)
        expected.extend(np.exp((base + 2j * np.pi * np.arange(n)) / n))
    expected = np.sort_complex(np.asarray(expected))
    actual = np.sort_complex(eigendecompose(op, want_vectors=False).eigenvalues)
    assert np.max(np.abs(expected - actual)) <= 1e-10


def test_extreme_r0_interior_cycle_length_four():
    p = ModelParams.from_r(0.0)
    op = build_cylinder_operator(p, sample_phase_field(8, 1, 3), 1, 3)
    lengths = sorted(len(c) for c, _ in _permutation_cycles(op))
    # 2LM interior quadruples plus one ring cycle of length 2M at the wall
    assert lengths == [4] * (2 * 1 * 3) + [2 * 3]
