"""Acceptance criteria, one test per numbered criterion.

Each test prints a single pass/fail line (visible with pytest -s) and
enforces the stated tolerance.  Criteria 5-8, 11 and 12 call the checks of
``ccnet.invariants`` that ``ccnet verify`` runs, at their own seeds and
counts.  Criterion 13 is exploratory: a miss is reported as a flagged
finding, not a failure.
"""

import time

import numpy as np
import pytest

from ccnet import (
    CocycleRunConfig,
    ModelParams,
    band_grid,
    build_cylinder_operator,
    dos_moments,
    eigendecompose,
    eigenvector_decay_fit,
    invariants,
    lyapunov_spectra,
    sample_phase_field,
    thouless_rhs,
)

CRITICAL = ModelParams.critical()
LOPSIDED = ModelParams(0.6, 0.8)
N_STEPS = 200_000


def _report(num, name, ok, detail):
    line = f"criterion {num:>2} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return ok


@pytest.fixture(scope="module")
def mean_runs():
    """Criterion-1 grid, shared with the symmetry criterion.

    The chains of one M run as one lockstep batch; each result is bitwise
    the one its chain gives alone.  Values are (result, batch seconds).
    """
    runs = {}
    for M in (1, 2, 4):
        started = time.perf_counter()
        results = lyapunov_spectra(
            CocycleRunConfig(params=params, M=M, n_steps=N_STEPS, seed=1000 + M)
            for params in (CRITICAL, LOPSIDED)
        )
        elapsed = time.perf_counter() - started
        for result in results:
            runs[(result.config.params.r, M)] = (result, elapsed)
    return runs


def test_criterion_01_mean_exponent_law(mean_runs):
    worst_dev, worst_time = 0.0, 0.0
    for params, target in ((CRITICAL, 0.346574), (LOPSIDED, 0.366985)):
        assert thouless_rhs(1.0, params) == pytest.approx(target, abs=5e-7)
        for M in (1, 2, 4):
            result, elapsed = mean_runs[(params.r, M)]
            worst_dev = max(worst_dev, abs(result.mean_top() - target))
            worst_time = max(worst_time, elapsed)
    ok = worst_dev <= 0.01 and worst_time < 120.0
    assert _report(
        1,
        "mean exponent law",
        ok,
        f"max |mean - log(1/rt)/2| = {worst_dev:.2e} (tol 0.01), "
        f"slowest batch {worst_time:.1f}s (cap 120s)",
    )


def test_criterion_02_symmetry(mean_runs):
    worst = 0.0
    for result, _ in mean_runs.values():
        excess = result.symmetry_defects() - 3.0 * result.symmetry_sigmas()
        worst = max(worst, float(excess.max()))
    ok = worst <= 0.0
    assert _report(
        2, "exponent symmetry", ok, f"max (defect - 3 sigma) = {worst:.2e} (need <= 0)"
    )


def test_criterion_03_z_independence():
    # lambda_k(1) and lambda_k(e^{i pi/5}) from two chains agree at 3 sigma
    r1, r2 = lyapunov_spectra(
        CocycleRunConfig(params=CRITICAL, M=2, n_steps=N_STEPS, seed=seed, z=z)
        for z, seed in ((1.0, 101), (np.exp(1j * np.pi / 5), 202))
    )
    sigma = np.sqrt(r1.stderrs**2 + r2.stderrs**2)
    diff = np.abs(r1.exponents - r2.exponents)
    ok = bool(np.all(diff <= 3.0 * sigma))
    detail = ", ".join(
        f"k={k + 1}: |d|={d:.1e}<=3s={3 * s:.1e}" for k, (d, s) in enumerate(zip(diff, sigma))
    )
    assert _report(3, "z-independence", ok, detail)


def test_criterion_04_simplicity_and_positivity():
    details, ok = [], True
    for M in (1, 2, 3, 4):
        n = 50_000
        resolved_at = None
        while n <= 10_000_000:
            (result,) = lyapunov_spectra(
                [CocycleRunConfig(params=CRITICAL, M=M, n_steps=n, seed=40 + M)]
            )
            gaps = result.gaps()  # top-M consecutive gaps, then lambda_M itself
            sigmas = result.gap_stderrs()
            if np.all(gaps > 3.0 * sigmas):
                resolved_at = n
                break
            n *= 2
        ok &= resolved_at is not None
        details.append(f"M={M}: n={resolved_at}")
    assert _report(4, "simple positive spectrum", ok, "resolved at " + ", ".join(details))


def test_criterion_05_u11_exactness():
    ok, detail = invariants.u11_membership(draws=1000, seed=5)
    assert _report(5, "U(1,1) exactness", ok, detail)


def test_criterion_06_transfer_equivalence():
    ok, detail = invariants.transfer_reconstruction(trials=100, seed=6, field_seed=606)
    assert _report(6, "transfer equivalence", ok, detail)


def test_criterion_07_determinant_identity():
    started = time.perf_counter()
    ok, detail = invariants.determinant_identity(
        field_seeds=(1, 2, 3, 4, 5), z_offset=700, z_per_field=20
    )
    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    assert _report(7, "determinant identity", ok, f"{detail}, {elapsed:.1f}s (cap 30s)")


def test_criterion_08_parity_operator_algebra():
    ok, detail = invariants.wall_operator_algebra(draws=100, seed=8)
    assert _report(8, "parity-operator algebra", ok, detail)


def test_criterion_09_flat_density_of_states():
    hist = dos_moments(LOPSIDED, 3, 50, seeds=range(20), K=8)
    moment_worst = float(np.max(np.abs(hist.moments)))
    ks_ok = hist.ks <= hist.ks_critical_1pct
    ok = moment_worst <= 0.01 and ks_ok
    assert _report(
        9,
        "flat density of states",
        ok,
        f"max |avg m_k| = {moment_worst:.2e} (tol 0.01), "
        f"KS = {hist.ks:.4f} vs {hist.ks_critical_1pct:.4f}",
    )


def test_criterion_10_off_circle_thouless():
    details, ok = [], True
    results = lyapunov_spectra(
        CocycleRunConfig(params=CRITICAL, M=2, n_steps=N_STEPS, seed=seed, z=z)
        for z, seed in ((0.5, 31), (2.0, 32))
    )
    for result in results:
        z = result.config.z
        target = thouless_rhs(z, CRITICAL)
        dev = abs(result.mean_top() - target)
        sigma = result.mean_top_stderr()
        ok &= dev <= 3.0 * sigma
        details.append(f"|z|={abs(z)}: |d|={dev:.1e} vs 3s={3 * sigma:.1e}")
    assert _report(10, "off-circle Thouless", ok, ", ".join(details))


def test_criterion_11_extreme_cases():
    leak_ok, leak = invariants.extreme_block_invariance(field_seed=11)
    band_ok, band = invariants.band_symbol(rs=(0.6, 0.8))
    # the critical grid checks the determinant only: at 2rt = 1 the arcsin edge
    # check is ill-conditioned
    crit_defect = band_grid(CRITICAL, 64, 64).det_defect
    ok = leak_ok and band_ok and crit_defect <= 1e-12
    detail = f"rt=0 {leak}, symbol {band}, critical det defect {crit_defect:.2e}"
    assert _report(11, "extreme cases", ok, detail)


def test_criterion_12_cyclicity():
    ok, detail = invariants.cyclicity_ranks(field_seeds=range(1200, 1210), max_n=3)
    assert _report(12, "cyclicity ranks", ok, detail)


def test_criterion_13_eigenvector_decay_exploratory():
    params = ModelParams.from_r(0.95)
    (result,) = lyapunov_spectra([CocycleRunConfig(params=params, M=2, n_steps=N_STEPS, seed=13)])
    lo = float(result.exponents[1]) - 0.1  # lambda_M - 0.1
    hi = float(result.exponents[0]) + 0.1  # lambda_1 + 0.1
    op = build_cylinder_operator(params, sample_phase_field(1300, 100, 2), 100, 2)
    spectrum = eigendecompose(op, range(op.dim))
    rates = []
    for index in range(spectrum.dim):
        fit = eigenvector_decay_fit(spectrum, index)
        if fit.status == "ok":
            rates.append(fit.rate)
    assert len(rates) > spectrum.dim // 4, "decay fits mostly failed to converge"
    median = float(np.median(rates))
    inside = lo <= median <= hi
    _report(
        13,
        "eigenvector decay (exploratory)",
        inside,
        f"median rate {median:.3f} vs [{lo:.3f}, {hi:.3f}] from {len(rates)} fits"
        + ("" if inside else "  [FLAGGED FINDING, not a gate]"),
    )
    # exploratory: a miss is flagged above, the machinery itself must work
    assert rates
