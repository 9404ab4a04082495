import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccnet import (
    CocycleRunConfig,
    LayerPhases,
    LyapunovResult,
    ModelParams,
    cocycle_step,
    localization_length,
    lyapunov_spectra,
    thouless_rhs,
    xi_upper_bound,
)
from ccnet import lyapunov
from ccnet.lyapunov import BATCH_COUNT, _COND_CAP, _qr_positive, _step_condition
from ccnet.transfer import layer_matrices

HALF_LOG_2 = 0.5 * math.log(2.0)  # mean exponent at the self-dual point


def _reference_spectrum(config):
    """The single-chain, per-step loop the batched engine replaced (test oracle).

    One chain, one ``cocycle_step`` matrix times the frame and one unstacked
    QR per due step (and at every batch edge), phases drawn 1024 steps at a
    time; returns (exponents, stderrs) as the engine sorts them.
    """
    M = config.M
    two_m = 2 * M
    rng = np.random.default_rng(config.seed)
    frame = np.eye(two_m, dtype=complex)

    n = config.n_steps
    burn = config.effective_burn_in
    nb = BATCH_COUNT
    period = config.effective_reorth_period
    batch_sums = np.zeros((nb, two_m))
    batch_cols = np.zeros(nb)
    total = np.zeros(two_m)

    pending = 0
    pending_batch = 0
    done = 0
    while done < burn + n:
        block = min(1024, burn + n - done)
        slots = np.exp(2j * np.pi * rng.random((block, 4 * M)))
        for i in range(block):
            step_matrix = cocycle_step(config.z, LayerPhases(M, slots[i]), config.params).matrix
            frame = step_matrix @ frame
            step = done + i
            pending += 1
            if step >= burn:
                pending_batch = min(nb - 1, (step - burn) * nb // n)
            edge = step >= burn and (step + 1 - burn) * nb // n > pending_batch
            if pending >= period or step == burn - 1 or edge:
                frame, logs = _qr_positive(frame)
                if step >= burn:
                    batch_sums[pending_batch] += logs
                    batch_cols[pending_batch] += 2 * pending
                    total += logs
                pending = 0
        done += block
    if pending:
        frame, logs = _qr_positive(frame)
        batch_sums[pending_batch] += logs
        batch_cols[pending_batch] += 2 * pending
        total += logs

    exponents = total / (2.0 * n)
    batch_means = batch_sums / batch_cols[:, None]
    order = np.argsort(exponents)[::-1]
    stderrs = np.std(batch_means[:, order], axis=0, ddof=1) / math.sqrt(nb)
    return exponents[order], stderrs


def _same(result, other) -> bool:
    return np.array_equal(result.exponents, other.exponents) and np.array_equal(
        result.stderrs, other.stderrs
    ) and np.array_equal(result.batch_means, other.batch_means)


# ---------------------------------------------------------------------------
# closed forms


def test_thouless_rhs_on_circle(critical):
    assert thouless_rhs(1.0, critical) == pytest.approx(0.346574, abs=5e-7)
    assert thouless_rhs(np.exp(0.9j), critical) == pytest.approx(HALF_LOG_2, abs=1e-14)


def test_thouless_rhs_off_circle(critical):
    assert thouless_rhs(2.0, critical) == pytest.approx(1.039721, abs=5e-7)
    assert thouless_rhs(0.5, critical) == pytest.approx(1.039721, abs=5e-7)


def test_thouless_rhs_quadrature_oracle(critical):
    # oracle: trapezoid quadrature of the logarithmic potential of the
    # uniform circle measure against the closed form log max(1, |z|)
    theta = np.linspace(0.0, 2.0 * np.pi, 1 << 16, endpoint=False)
    circle = np.exp(1j * theta)
    for z in (2.0, 0.5, 1.7 * np.exp(1.3j), 0.81 * np.exp(-0.4j)):
        quad = float(np.mean(np.log(np.abs(z - circle))))
        closed = math.log(max(1.0, abs(z)))
        assert quad == pytest.approx(closed, abs=1e-10)
        expected = 2 * quad + 0.5 * math.log(1 / critical.rt) - math.log(abs(z))
        assert thouless_rhs(z, critical) == pytest.approx(expected, abs=1e-9)


def test_thouless_rhs_rejects_zero(critical):
    with pytest.raises(ValueError):
        thouless_rhs(0.0, critical)


def test_xi_upper_bound_m1(critical):
    assert xi_upper_bound(critical, 1) == pytest.approx(2.885390, abs=5e-7)


def test_xi_upper_bound_vacuous_at_critical(critical):
    assert xi_upper_bound(critical, 2) == "vacuous"


def test_xi_upper_bound_shrinks_with_r():
    values = [xi_upper_bound(ModelParams.from_r(r), 1) for r in (0.2, 0.1, 0.05, 0.01)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.5


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_extreme_params():
    with pytest.raises(ValueError):
        CocycleRunConfig(params=ModelParams.from_r(0.0), M=2, n_steps=100, seed=1)


def test_config_rejects_bad_shapes(critical):
    with pytest.raises(ValueError):
        CocycleRunConfig(params=critical, M=0, n_steps=100, seed=1)
    with pytest.raises(ValueError):
        CocycleRunConfig(params=critical, M=2, n_steps=BATCH_COUNT - 1, seed=1)
    with pytest.raises(ValueError):
        CocycleRunConfig(params=critical, M=2, n_steps=100, seed=1, z=0.0)


# ---------------------------------------------------------------------------
# spectrum estimation


def _run(params, M, n, seed, **kw):
    return lyapunov_spectra([CocycleRunConfig(params=params, M=M, n_steps=n, seed=seed, **kw)])[0]


@contextlib.contextmanager
def _period_one():
    """Derive every period as 1 inside the block: a condition cap of 1 admits one step.

    The period-1 engine is the reference the derived periods are held to.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lyapunov, "_COND_CAP", 1.0)
        yield


def test_spectrum_deterministic(critical):
    a = _run(critical, 2, 5000, 7)
    b = _run(critical, 2, 5000, 7)
    assert np.array_equal(a.exponents, b.exponents)
    assert np.array_equal(a.stderrs, b.stderrs)


def test_spectrum_sorted_and_symmetric(critical):
    res = _run(critical, 3, 20_000, 3)
    assert np.all(np.diff(res.exponents) <= 0)
    # the full sum vanishes exactly (every layer has unit |det|)
    assert abs(res.exponents.sum()) <= 1e-10
    assert np.all(res.symmetry_defects() <= 3 * res.symmetry_sigmas() + 1e-12)


def test_spectrum_mean_law_small_run(critical, lopsided):
    for params, target in ((critical, HALF_LOG_2), (lopsided, 0.366985)):
        res = _run(params, 2, 40_000, 11)
        assert abs(res.mean_top() - target) <= max(0.01, 4 * res.mean_top_stderr())


def test_spectrum_norm_cap(critical):
    res = _run(critical, 2, 10_000, 5)
    cap = 0.5 * (
        math.log(1 / critical.rt)
        + math.log((1 + critical.r) * (1 + critical.t))
    )
    assert res.exponents[0] <= cap + 3 * res.stderrs[0]


def test_spectrum_reorth_period_consistency(critical):
    coarse = _run(critical, 2, 30_000, 9)
    assert coarse.config.effective_reorth_period == 5
    with _period_one():
        base = _run(critical, 2, 30_000, 9)
    assert np.max(np.abs(base.exponents - coarse.exponents)) <= 4 * np.max(
        base.stderrs + coarse.stderrs
    )


def test_spectrum_overflow_guard_off_circle(critical):
    # |z| = 2 grows like e^{2.08} per step; the derived period is the guard:
    # a step grows a frame by at most sqrt(kappa_step), so the 3 steps
    # between orthonormalizations stay below 1e4 and the estimate is intact
    guarded = _run(critical, 2, 10_000, 21, z=2.0)
    assert guarded.config.effective_reorth_period == 3
    assert np.all(np.isfinite(guarded.exponents))
    assert abs(guarded.mean_top() - thouless_rhs(2.0, critical)) <= 0.02


def test_spectrum_stderr_shrinks_with_n(critical):
    short = _run(critical, 2, 20_000, 13)
    long = _run(critical, 2, 80_000, 13)
    ratio = short.mean_top_stderr() / long.mean_top_stderr()
    # quadrupling the run should halve the error; allow wide stochastic slack
    assert 1.2 <= ratio <= 3.5


def test_gammas_and_gaps(critical):
    res = _run(critical, 2, 20_000, 17)
    gaps = res.gaps()
    assert gaps.shape == (2,)
    assert gaps[-1] == pytest.approx(res.exponents[1], abs=1e-15)
    assert res.gap_stderrs().shape == (2,)


# ---------------------------------------------------------------------------
# batched engine against the single-chain oracle


def _config(r, M, n, seed, z=1.0):
    return CocycleRunConfig(params=ModelParams.from_r(r), M=M, n_steps=n, seed=seed, z=z)


def test_engine_matches_reference_at_period_one():
    mixed = [
        _config(0.6, 3, 1500, 1),
        _config(0.3, 3, 1500, 2, z=0.5),
        _config(0.95, 3, 1500, 3, z=2.0),
        _config(0.6, 3, 1500, 4),
        _config(0.7071067811865476, 3, 1500, 5, z=np.exp(0.2j * np.pi)),
    ]
    with _period_one():
        batch = lyapunov_spectra(mixed)
        for config, result in zip(mixed[:3], batch[:3]):
            assert config.effective_reorth_period == 1
            exponents, stderrs = _reference_spectrum(config)
            alone = lyapunov_spectra([config])[0]
            for got in (alone, result):
                assert np.array_equal(got.exponents, exponents)
                assert np.array_equal(got.stderrs, stderrs)


def test_engine_matches_reference_at_other_periods():
    # 20 batches do not divide 4017 steps: its batches hold 200 or 201 steps
    for n_steps in (4000, 4017):
        configs = [
            _config(0.6, 2, n_steps, 11),
            _config(0.6, 2, n_steps, 12, z=0.5),
            _config(0.3, 2, n_steps, 13),
            _config(0.5, 2, n_steps, 14, z=2.0),
        ]
        assert [c.effective_reorth_period for c in configs] == [5, 3, 4, 3]
        batch = lyapunov_spectra(configs)
        for config, result in zip(configs, batch):
            exponents, stderrs = _reference_spectrum(config)
            assert np.array_equal(result.exponents, exponents)
            assert np.array_equal(result.stderrs, stderrs)


# the derived periods of these cells are 5 on the circle at r = 0.6 and
# sqrt(1/2), 4 at r = 0.3 and 0.95, and 3 at |z| = 0.5 or 2
_CELL = st.tuples(
    st.sampled_from([0.3, 0.6, 0.7071067811865476, 0.95]),
    st.sampled_from([1.0, np.exp(0.2j * np.pi), np.exp(-0.7j), 0.5, 2.0, 0.8 * np.exp(1.1j)]),
    st.integers(0, 10_000),
)


@settings(max_examples=25, deadline=None)
@given(M=st.integers(1, 3), cells=st.lists(_CELL, min_size=1, max_size=5))
def test_batch_composition_does_not_change_any_cell(M, cells):
    configs = [_config(r, M, 400, seed, z=z) for r, z, seed in cells]
    for config, result in zip(configs, lyapunov_spectra(configs)):
        assert _same(result, lyapunov_spectra([config])[0])
        assert result.config is config


@pytest.mark.parametrize("M", [1, 4, 16])
def test_derived_period_agrees_with_reference(M):
    # at M = 16 off the circle, r = 0.3 or 0.95, the exponents sit in
    # near-degenerate clusters and the derived period's rounding fades only
    # as 1/n (6.8e-9 at n = 2000, 7.5e-10 at n = 8000)
    grid = [
        (r, z)
        for r in (0.3, 0.6, math.sqrt(0.5), 0.95)
        for z in (1.0, np.exp(0.2j * np.pi), 0.5, 2.0)
    ]
    configs = [_config(r, M, 8000, 3, z=z) for r, z in grid]
    derived = lyapunov_spectra(configs)
    # the period-1 engine is bitwise the reference loop (see the test above)
    # and runs the 16 chains in one batch
    with _period_one():
        reference = lyapunov_spectra(configs)
    for got, want in zip(derived, reference):
        assert np.max(np.abs(got.exponents - want.exponents)) <= 1e-9


@pytest.mark.parametrize("M", [4, 8])
def test_batch_edge_flush_keeps_stderrs_at_derived_period(M):
    # the |z| = 0.5 cells of the benchmark sweep: period 3 does not divide the
    # 125-step batches, so without the edge flush up to two steps' logs land
    # in the next batch and moved stderr_k by about 10% relative
    grid = [(r, 0.5) for r in (0.6, math.sqrt(0.5))]
    configs = [_config(r, M, 2500, 1, z=z) for r, z in grid]
    derived = lyapunov_spectra(configs)
    with _period_one():
        reference = lyapunov_spectra(configs)
    for got, want in zip(derived, reference):
        assert got.config.effective_reorth_period == 3
        assert np.max(np.abs(got.stderrs - want.stderrs) / want.stderrs) <= 1e-9


def test_spectra_take_any_mix_in_input_order():
    assert lyapunov_spectra([]) == []
    # three M, two n_steps and two z (periods 5 and 3), shuffled: the
    # lockstep stacks are grouped inside, and the results come back in order
    configs = [
        _config(0.6, M, n, seed, z=z)
        for M in (1, 2, 3) for n in (200, 260) for z in (1.0, 0.5) for seed in (1, 2)
    ]
    mixed = [configs[i] for i in np.random.default_rng(5).permutation(len(configs))]
    for config, result in zip(mixed, lyapunov_spectra(mixed), strict=True):
        assert result.config is config
        assert _same(result, lyapunov_spectra([config])[0])


# ---------------------------------------------------------------------------
# the derived re-orthonormalization period


@pytest.mark.parametrize("r", [0.1, 0.3, 0.6, 0.7071067811865476, 0.95])
def test_step_condition_closed_form_on_circle(r):
    params = ModelParams.from_r(r)
    t = params.t
    closed = (1 + r) * (1 + t) / ((1 - r) * (1 - t))
    for z in (1.0, np.exp(0.3j), np.exp(-2.5j)):
        assert _step_condition(z, params) == pytest.approx(closed, rel=1e-12)
    # both 2x2 blocks have |det| = 1, so ||A_z|| <= ||M1|| ||M2|| = sqrt(kappa_step)
    # at every M and z: over a derived period a frame grows by at most 1e4
    for z in (1.0, np.exp(0.3j), 0.5, 2.0 * np.exp(-0.7j)):
        m1, m2 = layer_matrices(z, 3, params)
        norm = np.linalg.norm(m1, 2) * np.linalg.norm(m2, 2)
        assert norm == pytest.approx(math.sqrt(_step_condition(z, params)), rel=1e-12)


def test_derived_period_values():
    lopsided = ModelParams.from_r(0.6)
    assert _step_condition(1.0, lopsided) == pytest.approx(36.0, rel=1e-12)
    assert _step_condition(0.5, lopsided) == pytest.approx(117.0, abs=0.5)
    assert _config(0.6, 4, 10_000, 1).effective_reorth_period == 5
    assert _config(0.6, 4, 10_000, 1, z=0.5).effective_reorth_period == 3
    # clamped to n_steps // BATCH_COUNT, and to at least 1
    assert _config(0.6, 4, 60, 1).effective_reorth_period == 3
    assert _config(0.999, 1, 10_000, 1, z=20.0).effective_reorth_period == 1
    # a bound that overflows to nan (|z| = 1.7e308) also gives one step per QR
    assert math.isnan(_step_condition(1.7e308, lopsided))
    assert _config(0.6, 1, 40, 1, z=1.7e308).effective_reorth_period == 1


@pytest.mark.parametrize(
    "r, z", [(0.3, 1.0), (0.6, np.exp(0.4j)), (0.7071067811865476, 0.5), (0.95, 2.0)]
)
def test_derived_period_keeps_frame_condition_below_cap(r, z):
    # exact bound: a product of p steps from an orthonormal frame has
    # cond <= kappa_step^p <= 1e8
    params = ModelParams.from_r(r)
    period = _config(r, 3, 10**6, 1, z=z).effective_reorth_period
    rng = np.random.default_rng(int(1000 * r) + period)
    worst = 0.0
    for _ in range(200):
        frame = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        for _ in range(period):
            frame = cocycle_step(z, LayerPhases.random(rng, 3), params).matrix @ frame
        worst = max(worst, np.linalg.cond(frame))
    assert worst <= _COND_CAP
    assert worst <= _step_condition(z, params) ** period * (1 + 1e-9)


def test_derived_period_sets_the_orthonormalization_count():
    counts = []

    def counted(frames):
        counts.append(frames.shape[0])
        return _qr_positive(frames)

    configs = [_config(0.6, 2, 700, 1), _config(0.6, 2, 700, 2, z=0.5)]
    assert [c.effective_reorth_period for c in configs] == [5, 3]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lyapunov, "_qr_positive", counted)
        lyapunov_spectra(configs)
    # 7 burn-in steps, flushed at step 6: the period-5 chain is due once
    # before (step 4), the period-3 chain twice (steps 2, 5).  Then 20 batches
    # of 35 kept steps, each closed by a flush: per batch the period-5 chain
    # takes 35 / 5 = 7 QRs (the 7th is the flush) and the period-3 chain
    # floor(35 / 3) + 1 = 12
    assert sum(counts) == (1 + 1) + (2 + 1) + 20 * (7 + 12)


# ---------------------------------------------------------------------------
# localization length


def _fake_result(lambdas, stderrs):
    lambdas = np.asarray(lambdas, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    batches = np.tile(lambdas, (4, 1))
    return LyapunovResult(exponents=lambdas, stderrs=stderrs, batch_means=batches, config=None)


def test_localization_length_exact_value():
    res = _fake_result([0.8, 0.5, -0.5, -0.8], [0.01] * 4)
    xi = localization_length(res)
    assert xi.status == "ok"
    assert xi.value == pytest.approx(2.0, abs=1e-12)
    assert xi.stderr == pytest.approx(0.01 / 0.25, abs=1e-12)


def test_localization_length_not_resolved():
    res = _fake_result([0.8, 0.01, -0.01, -0.8], [0.02, 0.02, 0.02, 0.02])
    assert localization_length(res).status == "not resolved"


def test_localization_length_m1_critical(critical):
    res = _run(critical, 1, 60_000, 19)
    xi = localization_length(res)
    assert xi.status == "ok"
    assert xi.value == pytest.approx(1.0 / HALF_LOG_2, rel=0.10)


# ---------------------------------------------------------------------------
# z-independence


def _on_circle_pair(params, M, z2, n_steps, seeds):
    """Spectra at z = 1 and at z2 from the two seeds, stepped as one batch."""
    return lyapunov_spectra(
        CocycleRunConfig(params=params, M=M, n_steps=n_steps, seed=seed, z=z)
        for z, seed in zip((1.0, z2), seeds)
    )


def test_z_independence_same_seed_identical(critical):
    r1, r2 = _on_circle_pair(critical, 2, 1.0, 5000, (3, 3))
    assert np.array_equal(r1.exponents, r2.exponents)
    assert np.array_equal(r1.stderrs, r2.stderrs)


def test_z_independence_passes_on_circle(critical):
    r1, r2 = _on_circle_pair(critical, 2, np.exp(1j * np.pi / 5), 40_000, (1, 2))
    sigma = np.sqrt(r1.stderrs**2 + r2.stderrs**2)
    assert np.all(np.abs(r1.exponents - r2.exponents) <= 3.0 * sigma)
