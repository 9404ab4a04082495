"""Lyapunov spectrum of the transfer cocycle by QR-stabilized iteration.

A 2M-frame is pushed through the random layer maps A_z(p); orthonormalizing
with a positive-diagonal triangular normalizer every few steps and
accumulating the log diagonals estimates all 2M exponents at once.  One
cocycle step spans two lattice columns, so exponents are normalized per
column: the exact laws then read

    (1/M) sum_{i<=M} lambda_i = log(1/rt)/2        on |z| = 1,
    lambda_k + lambda_{2M+1-k} = 0,                 (Lorentz symmetry)
    2 lambda_1 <= log(1/rt) + log((1+r)(1+t)).

Error bars come from batch means; nothing here assumes the symmetry, so the
checks stay honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams
from .transfer import _check_z, _split_slots, _step_entries, _step_pattern, layer_matrices

__all__ = [
    "CocycleRunConfig",
    "LyapunovResult",
    "LocalizationLength",
    "lyapunov_spectra",
    "localization_length",
    "thouless_rhs",
    "xi_upper_bound",
]

BATCH_COUNT = 20  # batch means per estimate
_COND_CAP = 1e8  # largest frame condition number a derived period allows
# step terms formed per chunk (8M per chain-step), shared by the chains of a
# batch so that the chunk's arrays stay small however many chains step together
_CHUNK_TERMS = 16384


@dataclass(frozen=True)
class CocycleRunConfig:
    """Everything needed to reproduce one spectrum estimate.

    The schedule is fixed: a burn-in segment of 1% of ``n_steps`` (at least
    one step), then ``BATCH_COUNT`` batch segments of ``n_steps / BATCH_COUNT``
    steps rounded up or down, and a re-orthonormalization period derived
    from the exact per-step condition bound, the largest p with
    kappa_step^p <= 1e8, clamped to [1, n_steps // BATCH_COUNT] (see
    ``effective_reorth_period``).  A chain takes a QR every period steps
    into a segment and at each segment's last step.
    """

    params: ModelParams
    M: int
    n_steps: int
    seed: int
    z: complex = 1.0 + 0.0j

    def __post_init__(self):
        self.params.require_transport()
        _check_z(self.z)
        if self.M < 1:
            raise ValueError("need M >= 1")
        if self.n_steps < BATCH_COUNT:
            raise ValueError(f"need n_steps >= {BATCH_COUNT}")

    @property
    def effective_burn_in(self) -> int:
        return max(1, self.n_steps // 100)

    @property
    def effective_reorth_period(self) -> int:
        kappa = _step_condition(self.z, self.params)
        # a bound that overflowed (to inf, or to nan at |z| = 1e-308 or 1.7e308) allows
        # one step per QR
        period = math.floor(math.log(_COND_CAP) / math.log(kappa)) if kappa < math.inf else 1
        return min(max(1, period), self.n_steps // BATCH_COUNT)


@dataclass(frozen=True)
class LyapunovResult:
    """Sorted per-column exponent estimates with batch-means standard errors."""

    exponents: np.ndarray  # (2M,), descending
    stderrs: np.ndarray  # (2M,)
    batch_means: np.ndarray = field(repr=False)  # (BATCH_COUNT, 2M)
    config: CocycleRunConfig = None

    @property
    def M(self) -> int:
        return self.exponents.size // 2

    def mean_top(self) -> float:
        """Average of the first M exponents, the Thouless-formula observable."""
        return float(np.mean(self.exponents[: self.M]))

    def mean_top_stderr(self) -> float:
        per_batch = self.batch_means[:, : self.M].mean(axis=1)
        return float(np.std(per_batch, ddof=1) / math.sqrt(per_batch.size))

    def symmetry_defects(self) -> np.ndarray:
        """|lambda_k + lambda_{2M+1-k}| for k = 1..2M."""
        return np.abs(self.exponents + self.exponents[::-1])

    def symmetry_sigmas(self) -> np.ndarray:
        return self.stderrs + self.stderrs[::-1]

    def gaps(self) -> np.ndarray:
        """Gaps lambda_k - lambda_{k+1} among the top M exponents, then lambda_M itself."""
        top = self.exponents[: self.M]
        return np.concatenate([top[:-1] - top[1:], [top[-1]]])

    def gap_stderrs(self) -> np.ndarray:
        top = self.batch_means[:, : self.M]
        diffs = np.concatenate([top[:, :-1] - top[:, 1:], top[:, -1:]], axis=1)
        return np.std(diffs, axis=0, ddof=1) / math.sqrt(diffs.shape[0])


def _step_condition(z: complex, params: ModelParams) -> float:
    """Exact condition-number bound of one cocycle step A_z(p).

    The phase diagonals are unitary, and M1, M2 are (up to a ring
    permutation) block diagonal with M copies of one 2x2 block each, so the
    M = 1 layer matrices carry every singular value: kappa(A) <= kappa(M1)
    kappa(M2) for every M and every draw.  On the circle kappa_step =
    (1+r)(1+t) / ((1-r)(1-t)).  Both blocks have |det| = 1, so ||A|| <=
    ||M1|| ||M2|| = sqrt(kappa_step): over a derived period a frame grows by
    at most 1e4 and no overflow guard is needed.
    """
    m1, m2 = layer_matrices(z, 1, params)
    s1 = np.linalg.svd(m1, compute_uv=False)
    s2 = np.linalg.svd(m2, compute_uv=False)
    return float(s1[0] / s1[-1] * (s2[0] / s2[-1]))


def _qr_positive(frames: np.ndarray):
    """QR with positive real diagonal in the triangular factor, over leading batch axes."""
    q, r = np.linalg.qr(frames)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    absd = np.abs(d)
    absd[absd == 0.0] = 1.0  # cannot occur for invertible cocycles; keeps log finite
    q = q * (d / absd)[..., None, :]
    return q, np.log(absd)


def _entry_stream(rngs, m1, m2, steps: int):
    """Yield each step's entries of A_z(p) (``_step_entries``), stacked over the chains.

    Phases are drawn, and the entries formed, in chunks of at most
    ``_CHUNK_TERMS`` terms; each generator's stream does not depend on the
    chunking.
    """
    M = m1.shape[-1] // 2
    chunk = max(1, _CHUNK_TERMS // (len(rngs) * 8 * M))
    for done in range(0, steps, chunk):
        block = min(chunk, steps - done)
        uni = np.stack([rng.random((block, 4 * M)) for rng in rngs], axis=1)
        yield from _step_entries(m1, m2, *_split_slots(np.exp(2j * np.pi * uni)))


def lyapunov_spectra(configs) -> list[LyapunovResult]:
    """Estimate the full 2M Lyapunov spectrum of each config's chain, in input order.

    Chains of equal M and n_steps (and so equal segments) step in lockstep
    as one stack (``_lockstep``); any mix of shapes is grouped that way.
    Each result is bitwise the one its chain gives alone: no chain reads
    another's draws, frame or sums.
    """
    configs = list(configs)
    stacks = {}
    for index, config in enumerate(configs):
        stacks.setdefault((config.M, config.n_steps), []).append(index)
    results = [None] * len(configs)
    for indices in stacks.values():
        for index, result in zip(indices, _lockstep([configs[i] for i in indices])):
            results[index] = result
    return results


def _lockstep(configs) -> list[LyapunovResult]:
    """Estimate the spectra of chains of equal M and n_steps, stepped as one stack.

    r, t, z, seed and the period are per chain.  Phases are drawn i.i.d.
    uniform per layer from each chain's own seeded generator, and each
    chain's step A_z(p) is formed from its entries (``_entry_stream``), so a
    step is one scatter into the stack of step matrices and one batched
    product with the frames.  The steps run
    as segments: the burn-in, whose logs are dropped, then ``BATCH_COUNT``
    batches, batch b holding the kept steps from ceil(b n / nb) up to
    ceil((b+1) n / nb) exclusive.  Within a segment a chain is re-orthonormalized every
    ``effective_reorth_period`` steps, with one stacked QR over the chains
    that are due, and every chain at the segment's last step, so a batch
    holds the logs of exactly its own steps whatever the period.  The
    estimate is total / (2 * n_steps) per exponent and the standard error is
    the batch-means spread.  Exponents are returned sorted descending
    together with the matching stderr permutation, one result per config in
    order.
    """
    M, n = configs[0].M, configs[0].n_steps
    burn, nb = configs[0].effective_burn_in, BATCH_COUNT
    B, two_m = len(configs), 2 * M
    rngs = [np.random.default_rng(c.seed) for c in configs]
    layers = [layer_matrices(c.z, M, c.params) for c in configs]
    m1 = np.stack([a for a, _ in layers])
    m2 = np.stack([b for _, b in layers])
    periods = np.array([c.effective_reorth_period for c in configs])
    frames = np.repeat(np.eye(two_m, dtype=complex)[None], B, axis=0)
    # each step's matrices are scattered into one stack whose zeros never change
    steps = np.zeros((B, two_m, two_m), dtype=complex)
    flat_steps = steps.reshape(-1)
    stored = np.arange(B)[:, None] * two_m * two_m + _step_pattern(M)[3]
    batch_sums = np.zeros((B, nb, two_m))
    total = np.zeros((B, two_m))
    # batch b holds kept steps edges[b] .. edges[b+1] - 1, edges[b] = ceil(b n / nb)
    edges = [-(-b * n // nb) for b in range(nb + 1)]
    sizes = np.diff(edges)
    entries = _entry_stream(rngs, m1, m2, burn + n)
    everyone = np.arange(B)
    # before a segment's last step, the chains due at step j repeat with the
    # periods' least common multiple
    cycle = min(math.lcm(*periods.tolist()), max(burn, *sizes.tolist()) + 1)
    due_at = [np.flatnonzero(j % periods == 0) for j in range(cycle)]
    # segment -1 is the burn-in, whose logs are dropped
    for batch, length in enumerate([burn, *sizes.tolist()], start=-1):
        for j in range(1, length + 1):
            flat_steps[stored] = next(entries)
            frames = steps @ frames
            due = everyone if j == length else due_at[j % cycle]
            if due.size == B:
                frames, logs = _qr_positive(frames)
            elif due.size:
                q, logs = _qr_positive(frames[due])
                frames[due] = q
            if due.size and batch >= 0:
                batch_sums[due, batch] += logs
                total[due] += logs

    results = []
    for c, chain_total, sums in zip(configs, total, batch_sums):
        exponents = chain_total / (2.0 * n)
        batch_means = sums / (2.0 * sizes[:, None])  # two lattice columns per step
        order = np.argsort(exponents)[::-1]
        exponents = exponents[order]
        batch_means = batch_means[:, order]
        stderrs = np.std(batch_means, axis=0, ddof=1) / math.sqrt(nb)
        results.append(
            LyapunovResult(exponents=exponents, stderrs=stderrs, batch_means=batch_means, config=c)
        )
    return results


@dataclass(frozen=True)
class LocalizationLength:
    """1/lambda_M with a propagated error bar, or an explicit refusal."""

    status: str  # "ok" | "not resolved"
    value: float | None = None
    stderr: float | None = None


def localization_length(result: LyapunovResult) -> LocalizationLength:
    """xi_M = 1/lambda_M; reported only when lambda_M clears 3 sigma."""
    lam = float(result.exponents[result.M - 1])
    sig = float(result.stderrs[result.M - 1])
    if lam <= 3.0 * sig:
        return LocalizationLength(status="not resolved")
    return LocalizationLength(status="ok", value=1.0 / lam, stderr=sig / lam**2)


def thouless_rhs(z: complex, params: ModelParams) -> float:
    """Mean of the top M exponents predicted at spectral parameter z.

    Uses the closed form of the logarithmic potential of the flat density
    of states, int log|z - x| dl(x) = log max(1, |z|), which vanishes on the
    unit circle and leaves log(1/rt)/2 there.
    """
    params.require_transport()
    az = abs(_check_z(z))
    return 2.0 * math.log(max(1.0, az)) + 0.5 * math.log(1.0 / params.rt) - math.log(az)


def xi_upper_bound(params: ModelParams, M: int):
    """2 / (log(1/rt) - (M-1) log((1+r)(1+t))), or "vacuous" when the
    denominator is not positive (near criticality the crude bound fails)."""
    params.require_transport()
    denom = math.log(1.0 / params.rt) - (M - 1) * math.log((1.0 + params.r) * (1.0 + params.t))
    if denom <= 0.0:
        return "vacuous"
    return 2.0 / denom
