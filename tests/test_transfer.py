import numpy as np
import pytest

from ccnet import invariants, model, transfer
from ccnet import (
    LayerPhases,
    ModelParams,
    build_cylinder_operator,
    cocycle_step,
    form_signature,
    layer_matrices,
    propagate,
    reconstruct_and_verify,
    reconstruct_columns,
    sample_phase_field,
)
from ccnet.spectral import band_symbol
from ccnet.transfer import _slot_layers


# ---------------------------------------------------------------------------
# layer matrices


def test_layer_matrix_m2_collapses_at_m1(lopsided):
    z = 0.7 * np.exp(0.31j)
    _, m2 = layer_matrices(z, 1, lopsided)
    expected = np.array([[-1 / z, 0.8], [-0.8, z]]) / 0.6
    assert np.allclose(m2, expected, atol=1e-15)


def test_layer_matrix_m1_blocks(lopsided):
    z = np.exp(0.4j)
    m1, _ = layer_matrices(z, 2, lopsided)
    block = np.array([[1 / z, -0.6], [-0.6, z]]) / 0.8
    assert np.allclose(m1[:2, :2], block, atol=1e-15)
    assert np.allclose(m1[2:, 2:], block, atol=1e-15)
    assert np.count_nonzero(m1[:2, 2:]) == 0


def test_layer_matrix_preserves_form(rng, lopsided):
    sig = form_signature(3)
    for _ in range(20):
        z = np.exp(2j * np.pi * rng.random())
        m1, m2 = layer_matrices(z, 3, lopsided)
        for m in (m1, m2):
            gram = m.conj().T @ (sig[:, None] * m)
            assert np.max(np.abs(gram - np.diag(sig))) <= 1e-12


def test_layer_matrix_norm_bound(lopsided):
    m1, _ = layer_matrices(1.0, 3, lopsided)
    norm = np.linalg.norm(m1, 2)
    assert norm <= (1 + lopsided.r) / lopsided.t + 1e-12
    # the bound is tight: the block's top singular value is exactly (1+r)/t
    assert norm == pytest.approx((1 + lopsided.r) / lopsided.t, abs=1e-12)


def test_blocks_domain_errors(lopsided):
    # z = 0 and rt = 0 are rejected wherever the transfer blocks are built
    with pytest.raises(ValueError):
        layer_matrices(0.0, 2, lopsided)
    with pytest.raises(ValueError):
        layer_matrices(1.0, 2, ModelParams.from_r(0.0))
    with pytest.raises(ValueError):
        cocycle_step(0.0, LayerPhases(2, np.ones(8)), lopsided)
    with pytest.raises(ValueError):
        cocycle_step(1.0, LayerPhases(2, np.ones(8)), ModelParams.from_r(1.0))


def _layer_matrices_loop(z, M, params):
    """The ring-by-ring loop the strided-slice fill replaced (test oracle)."""
    two_m = 2 * M
    m1 = np.zeros((two_m, two_m), dtype=complex)
    m2 = np.zeros((two_m, two_m), dtype=complex)
    for k in range(M):
        a, b = 2 * k, 2 * k + 1
        m1[a, a] = (1.0 / z) / params.t
        m1[a, b] = -params.r / params.t
        m1[b, a] = -params.r / params.t
        m1[b, b] = z / params.t
        a, b = 2 * k + 1, (2 * k + 2) % two_m
        m2[a, a] = z / params.r
        m2[a, b] = -params.t / params.r
        m2[b, a] = params.t / params.r
        m2[b, b] = (-1.0 / z) / params.r
    return m1, m2


@pytest.mark.parametrize("M", range(1, 7))
def test_layer_matrices_match_ring_loop(M, lopsided):
    # bytes and dtype: array_equal would miss a -0.0 / 0.0 swap or a dtype change
    for z in (1.0, np.exp(0.9j), 0.5, 2.0 * np.exp(-2.2j), 1.0 + 0.0j, 0.7 - 1.3j):
        for params in (lopsided, ModelParams.from_r(0.95)):
            for got, want in zip(layer_matrices(z, M, params), _layer_matrices_loop(complex(z), M, params)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_layer_matrices_m2_corner_entries(lopsided):
    z = np.exp(0.9j)
    _, m2 = layer_matrices(z, 3, lopsided)
    r, t = lopsided.r, lopsided.t
    assert m2[0, 0] == pytest.approx((-1 / z) / r, abs=1e-15)
    assert m2[0, 5] == pytest.approx(t / r, abs=1e-15)
    assert m2[5, 0] == pytest.approx(-t / r, abs=1e-15)
    assert m2[5, 5] == pytest.approx(z / r, abs=1e-15)


# ---------------------------------------------------------------------------
# cocycle generator


def test_cocycle_u11_and_norm_bound_property(rng):
    for _ in range(1000):
        params = ModelParams.from_r(rng.uniform(0.05, 0.95))
        M = int(rng.integers(1, 5))
        z = np.exp(2j * np.pi * rng.random())
        step = cocycle_step(z, LayerPhases.random(rng, M), params)
        assert step.u11_defect() <= 1e-12 * max(1.0, step.norm() ** 2)
        bound = (1 / params.rt) * (1 + params.r) * (1 + params.t)
        assert step.norm() <= bound * (1 + 1e-12)


def test_cocycle_norm_bound_critical(rng, critical):
    worst = 0.0
    for _ in range(300):
        z = np.exp(2j * np.pi * rng.random())
        step = cocycle_step(z, LayerPhases.random(rng, 2), critical)
        worst = max(worst, step.norm())
    assert worst <= 3 + 2 * np.sqrt(2) + 1e-9  # (1/rt)(1+r)(1+t) at r = t = 1/sqrt 2


def test_cocycle_trivial_layer_is_m2_m1(lopsided):
    z = np.exp(0.2j)
    m1, m2 = layer_matrices(z, 2, lopsided)
    step = cocycle_step(z, LayerPhases(2, np.ones(8)), lopsided)
    assert np.allclose(step.matrix, m2 @ m1, atol=1e-15)


def test_cocycle_spectral_covariance(rng):
    # A_{wz}(p) = A_z(w . p) entrywise, including off the circle
    for _ in range(50):
        params = ModelParams.from_r(rng.uniform(0.1, 0.9))
        M = int(rng.integers(1, 4))
        z = (0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
        w = np.exp(2j * np.pi * rng.random())
        layer = LayerPhases.random(rng, M)
        lhs = cocycle_step(w * z, layer, params).matrix
        rhs = cocycle_step(z, layer.twisted(w), params).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_cocycle_step_matches_dense_oracle(rng, lopsided):
    # D(p_l) M2 D(p_m) M1 D(p_r) built densely from the slot layout documented
    # on LayerPhases, on and off the unit circle
    for M in range(1, 5):
        for modulus in (1.0, 0.6, 1.7):
            z = modulus * np.exp(2j * np.pi * rng.random())
            layer = LayerPhases.random(rng, M)
            slots = layer.phases
            p_r = np.ones(2 * M, dtype=complex)
            p_r[1::2] = slots[1 : 2 * M : 2]
            p_l = np.ones(2 * M, dtype=complex)
            p_l[0::2] = slots[0 : 2 * M : 2]
            p_m = slots[2 * M :]
            m1, m2 = layer_matrices(z, M, lopsided)
            oracle = np.diag(p_l) @ m2 @ np.diag(p_m) @ m1 @ np.diag(p_r)
            step = cocycle_step(z, layer, lopsided).matrix
            assert np.max(np.abs(step - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("M", [1, 2, 3, 4, 8, 16])
def test_formed_step_matches_the_layer_kernel(rng, lopsided, M):
    # the formed step, as cocycle_step and as _step_entries over leading
    # (step, chain) axes the way the Lyapunov engine calls it, against the
    # three-factor kernel applied to a frame: within a few ulps of ||A|| ||F||
    two_m, steps, chains = 2 * M, 4, 3
    for modulus in (1.0, 0.5, 2.0):
        zs = modulus * np.exp(2j * np.pi * rng.random(chains))
        layers = [layer_matrices(z, M, lopsided) for z in zs]
        m1 = np.stack([a for a, _ in layers])
        m2 = np.stack([b for _, b in layers])
        slots = np.exp(2j * np.pi * rng.random((steps, chains, 4 * M)))
        frames = rng.standard_normal((steps, chains, two_m, two_m)) + 1j * rng.standard_normal(
            (steps, chains, two_m, two_m)
        )
        want = transfer._apply_layer(m1, m2, *transfer._split_slots(slots), frames)
        formed = np.zeros((steps, chains, two_m * two_m), dtype=complex)
        formed[..., transfer._step_pattern(M)[3]] = transfer._step_entries(
            m1, m2, *transfer._split_slots(slots)
        )
        formed = formed.reshape(steps, chains, two_m, two_m)
        for s in range(steps):
            for c in range(chains):
                a, frame = formed[s, c], frames[s, c]
                # one formula for the entries: the stacked call is bitwise the single step
                step = cocycle_step(zs[c], LayerPhases(M, slots[s, c]), lopsided)
                assert np.array_equal(step.matrix, a)
                bound = 4 * np.finfo(float).eps * np.linalg.norm(a, 2) * np.linalg.norm(frame, 2)
                assert np.max(np.abs(a @ frame - want[s, c])) <= bound


# ---------------------------------------------------------------------------
# slotting


def _layer(phases, j):
    """The slotted phases of layer j (columns 2j .. 2j+2) as one cocycle layer."""
    return LayerPhases(M=phases.M, phases=_slot_layers(phases, j, j + 1)[0])


def test_slotting_all_ones():
    field = sample_phase_field(0, 2, 2)
    trivial = type(field)(L=2, M=2, values=np.ones_like(field.values))
    assert np.allclose(_slot_layers(trivial, -2, 2), 1.0, atol=0)


def test_slotting_m1_site_groups():
    # the double layer starting at column 2j draws on: odd rings of column 2j
    # (incoming slots), even rings of column 2j+2 (outgoing slots), and all of
    # column 2j+1 (middle slots)
    field = sample_phase_field(5, 2, 1)
    j = 0
    (slots,) = _slot_layers(field, j, j + 1)
    column = field.values[2 * j + 2 * field.L :]  # column[c] holds column 2j + c
    assert slots[1] == np.conj(column[0, 1])  # p_r group
    assert slots[0] == column[2, 0]           # p_l group
    assert slots[2] == column[1, 0]           # p_m group
    assert slots[3] == np.conj(column[1, 1])  # p_m group


def test_slotting_injective_on_sites():
    # distinct slots read distinct sites; consecutive layers share no site
    field = sample_phase_field(6, 2, 3)
    pool = _slot_layers(field, -1, 1).ravel()
    assert len(np.unique(pool)) == pool.size


def test_slotting_window_error():
    field = sample_phase_field(6, 1, 2)
    with pytest.raises(ValueError):
        _slot_layers(field, 1, 2)


# ---------------------------------------------------------------------------
# propagator


def test_propagate_l0_identity(lopsided):
    prop = propagate(1.3, sample_phase_field(2, 2, 2), 0, lopsided)
    assert np.array_equal(prop.matrix, np.eye(4))


def test_propagate_u11_closure(rng, lopsided):
    phases = sample_phase_field(12, 3, 2)
    for _ in range(10):
        z = np.exp(2j * np.pi * rng.random())
        prop = propagate(z, phases, 3, lopsided)
        assert prop.u11_defect() <= 1e-10 * prop.norm() ** 2


def test_propagate_singular_values_pair(rng, critical):
    phases = sample_phase_field(31, 3, 3)
    z = np.exp(2j * np.pi * 0.173)
    prop = propagate(z, phases, 3, critical)
    logs = np.sort(np.log(prop.singular_values()))[::-1]
    assert np.max(np.abs(logs + logs[::-1])) <= 1e-8


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_zero_input(lopsided):
    phases = sample_phase_field(1, 5, 3)
    assert reconstruct_and_verify(1.1j, phases, np.zeros(6), 5, lopsided) == 0.0


def test_reconstruct_residual_small(rng, lopsided):
    phases = sample_phase_field(17, 5, 3)
    for _ in range(25):
        psi0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        z = np.exp(2j * np.pi * rng.random())
        assert reconstruct_and_verify(z, phases, psi0, 5, lopsided) <= 1e-10


def _conj_middle_phases(apply_layer):
    return lambda m1, m2, p_r, p_m, p_l, frame: apply_layer(m1, m2, p_r, np.conj(p_m), p_l, frame)


def _conj_even_outputs(reduced_blocks):
    return lambda q0, q1, params: reduced_blocks(np.conj(q0), q1, params)


@pytest.mark.parametrize(
    "module, name, sabotage",
    [
        (transfer, "_apply_layer", _conj_middle_phases),
        (model, "_reduced_blocks", _conj_even_outputs),
    ],
    ids=["kernel", "assembler"],
)
def test_reconstruction_invariant_catches_broken_kernel_or_assembler(
    monkeypatch, module, name, sabotage
):
    # the invariant ties the production cocycle kernel to the production U^D
    # assembler, so a wrong operand in either one must fail it
    assert invariants.transfer_reconstruction(10, 5, 17)[0]
    monkeypatch.setattr(module, name, sabotage(getattr(module, name)))
    ok, detail = invariants.transfer_reconstruction(10, 5, 17)
    assert not ok, detail


def test_reconstruct_matches_propagator(rng, lopsided):
    # the double-column cocycle and the two-site recursion must agree: the
    # slotted generator applied to a ring vector equals two transfer steps
    M, L = 3, 2
    phases = sample_phase_field(23, L, M)
    z = np.exp(0.77j)
    psi0 = rng.standard_normal(2 * M) + 1j * rng.standard_normal(2 * M)
    cols = reconstruct_columns(z, phases, psi0, L, lopsided)
    for j in range(0, L):
        step = cocycle_step(z, _layer(phases, j), lopsided)
        assert np.max(np.abs(step.matrix @ cols[2 * j] - cols[2 * j + 2])) <= 1e-10 * np.max(
            np.abs(cols)
        )
    # the propagator slots all 2L layers at once; the ordered product of the
    # single-layer steps j = -L .. L-1 is its oracle, on and off the circle
    for zz in (z, 1.4 * np.exp(-0.3j)):
        oracle = np.eye(2 * M, dtype=complex)
        for j in range(-L, L):
            oracle = cocycle_step(zz, _layer(phases, j), lopsided).matrix @ oracle
        prop = propagate(zz, phases, L, lopsided).matrix
        assert np.linalg.norm(prop - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_reconstruct_oracle_against_finite_operator(rng, lopsided):
    # independent oracle: apply the assembled operator to the grown vector and
    # check the eigen-equation on every row supported inside the strip
    M, N, L = 2, 4, 5
    phases = sample_phase_field(41, L, M)
    op = build_cylinder_operator(lopsided, phases, L, M)
    z = np.exp(1.9j)
    psi0 = rng.standard_normal(2 * M) + 1j * rng.standard_normal(2 * M)
    cols = reconstruct_columns(z, phases, psi0, N, lopsided)
    vec = np.zeros(op.dim, dtype=complex)
    for c in range(0, 2 * N + 1):
        for m in range(2 * M):
            vec[op.index(c, m)] = cols[c, m]
    resid = op.matrix @ vec - z * vec
    # rows fully determined by columns 0..2N: outputs of nodes whose sites all
    # lie in the strip; those are the rows of columns 1..2N-1
    good = []
    for c in range(1, 2 * N):
        for m in range(2 * M):
            good.append(op.index(c, m))
    assert np.max(np.abs(resid[good])) <= 1e-10 * np.linalg.norm(vec)


def test_reconstruct_plane_wave_bounded(critical):
    # trivial phases on the band: the symbol eigenvalue w sits in the spectrum
    # of the squared walk, so at quasi-energy z = sqrt(w) the constant-layer
    # transfer matrix has a unimodular eigenvalue whose eigenvector propagates
    # with flat column norms
    M = 2
    kappa = 1
    y = 2 * np.pi * kappa / M
    x = 0.9
    w = np.linalg.eigvals(band_symbol(x, y, critical))[0]
    z = np.sqrt(w)
    phases = sample_phase_field(0, 8, M)
    trivial = type(phases)(L=8, M=M, values=np.ones_like(phases.values))
    step = cocycle_step(z, LayerPhases(M, np.ones(4 * M)), critical)
    evals, evecs = np.linalg.eig(step.matrix)
    on_circle = np.argmin(np.abs(np.abs(evals) - 1.0))
    assert abs(abs(evals[on_circle]) - 1.0) <= 1e-9
    psi0 = evecs[:, on_circle]
    cols = reconstruct_columns(z, trivial, psi0, 8, critical)
    norms = np.linalg.norm(cols, axis=1)
    # flat on the double-column sublattice, bounded everywhere
    even = norms[0::2]
    assert even.max() / even.min() <= 1.0 + 1e-9
    assert norms.max() / norms.min() <= 10.0


def test_gap_z_has_no_bounded_solution(lopsided):
    # r != t opens gaps around the eighth roots e^{+-i pi/4}: the squared-walk
    # quasi-energy 2 phi falls outside |sin| <= 2rt there, and every transfer
    # eigenvalue leaves the unit circle
    step = cocycle_step(np.exp(1j * np.pi / 4), LayerPhases(2, np.ones(8)), lopsided)
    evals = np.linalg.eigvals(step.matrix)
    assert np.min(np.abs(np.abs(evals) - 1.0)) > 1e-2
