"""The four benchmark workloads.

Each workload turns the benchmark seed into ``ccnet`` command lines, says
how much work one round does, which output rows the program itself marks as
failed, and checks a round's CSV output against values computed here: a
closed form of the mean law, LU determinants, traces of sparse matrix
powers, and the documented decay-fit statuses.  The program's own checking
helpers (``thouless_rhs``, ``dos_moments``, ``read_records``) are not used.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import scipy.linalg

from ccnet.model import ModelParams, build_cylinder_operator, sample_phase_field
from ccnet.spectral import determinant_identity_residual, eigendecompose

DET_TOL = 1e-8  # the determinant-identity tolerance pinned by the program


def parse_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _num(text: str):
    return None if text == "" else float(text)


def _rt(r: float) -> tuple[float, float]:
    t = math.sqrt(1.0 - r * r)
    return t, r * t


class Workload:
    """One benchmark workload.  ``seed`` is the seed of one round and
    ``size`` is "full" or "smoke"."""

    name = ""
    unit = ""  # what the throughput metric counts

    def invocations(self, seed: int, size: str) -> list[list[str]]:
        """Command lines of one round, without --workers and --out."""
        raise NotImplementedError

    def work_units(self, seed: int, size: str) -> int:
        """Units of ``self.unit`` done by one round."""
        raise NotImplementedError

    def failed_row(self, row: dict) -> bool:
        """True when the program itself marks this output row as failed."""
        return False

    def check(self, seed: int, size: str, index: int, rows: list[dict], code: int) -> list[str]:
        """Problems in the output of command line ``index`` of a round; empty when all is right."""
        raise NotImplementedError


class LyapunovSweep(Workload):
    name = "lyapunov-sweep"
    unit = "cocycle steps"
    R = (0.6, 0.7071067811865476)
    M = (4, 8, 16)  # M <= 2 left out: its 3-sigma mean-law gate fires by chance
    Z = ((1.0, 0.0), (1.0, 0.2), (0.5, 0.0))
    STEPS = {"full": 2500, "smoke": 200}

    def invocations(self, seed, size):
        return [
            [
                "lyapunov",
                "--r", ",".join(repr(r) for r in self.R),
                "--M", ",".join(str(m) for m in self.M),
                "--z", ";".join(f"{mod!r},{arg!r}" for mod, arg in self.Z),
                "--steps", str(self.STEPS[size]),
                "--seeds", str(seed + 1),
            ]
        ]

    def work_units(self, seed, size):
        steps = self.STEPS[size]
        burn_in = max(1, steps // 100)  # the program's documented default
        return len(self.R) * len(self.Z) * len(self.M) * (steps + burn_in)

    def failed_row(self, row):
        return "mean-law" in row["status"] or "symmetry" in row["status"]

    def check(self, seed, size, index, rows, code):
        problems = []
        cells: dict[tuple, dict[int, dict]] = {}
        for row in rows:
            key = (float(row["r"]), int(row["M"]), float(row["z_mod"]), float(row["z_arg_over_pi"]))
            cells.setdefault(key, {})[int(row["k"])] = row
        expected = {(r, m, mod, arg) for r in self.R for m in self.M for mod, arg in self.Z}
        if set(cells) != expected:
            return [f"lyapunov: cells {sorted(cells)} != {sorted(expected)}"]
        any_failed = False
        for (r, M, mod, arg), by_k in sorted(cells.items()):
            label = f"lyapunov r={r} M={M} z=({mod},{arg})"
            if sorted(by_k) != list(range(2 * M + 1)):
                problems.append(f"{label}: rows k={sorted(by_k)}")
                continue
            any_failed |= any(self.failed_row(row) for row in by_k.values())
            lam = np.array([float(by_k[k]["lambda_k"]) for k in range(1, 2 * M + 1)])
            sig = np.array([float(by_k[k]["stderr_k"]) for k in range(1, 2 * M + 1)])
            mean, mean_sig = float(by_k[0]["lambda_k"]), float(by_k[0]["stderr_k"])
            t, rt = _rt(r)
            if np.any(np.diff(lam) > 0):
                problems.append(f"{label}: exponents not sorted descending")
            if abs(lam[:M].mean() - mean) > 1e-12:
                problems.append(f"{label}: k=0 row {mean} is not the mean of the top M")
            # every layer factor has |det| = 1, so the exponents sum to zero
            if abs(lam.sum()) > 1e-9:
                problems.append(f"{label}: exponent sum {lam.sum():.3e} != 0")
            # the mean law, written through the z -> 1/z symmetry of the
            # flat-DOS log potential
            target = 0.5 * math.log(1.0 / rt) + abs(math.log(mod))
            if abs(mean - target) > max(0.01, 3.0 * mean_sig):
                problems.append(f"{label}: mean {mean:.5f} misses the mean law {target:.5f}")
            if mod == 1.0:
                pairing = np.abs(lam + lam[::-1])
                if np.any(pairing > 3.0 * (sig + sig[::-1]) + 1e-12):
                    problems.append(f"{label}: Lorentz pairing defect {pairing.max():.3e} beyond 3 sigma")
                bound = math.log(1.0 / rt) + math.log((1.0 + r) * (1.0 + t))
                if 2.0 * lam[0] > bound:
                    problems.append(f"{label}: 2 lambda_1 = {2 * lam[0]:.5f} above the norm bound {bound:.5f}")
        if code != (1 if any_failed else 0):
            problems.append(f"lyapunov: exit code {code} with failed rows={any_failed}")
        return problems


class DetWindow(Workload):
    name = "det-window"
    unit = "determinant-identity evaluations"
    R = 0.6
    # (M, L, z per seed, seeds) of the small and the wide window
    SMALL = {"full": (2, 2, 400, 5), "smoke": (2, 2, 10, 2)}
    WIDE = {"full": (2, 24, 100, 4), "smoke": (2, 24, 5, 1)}
    SAMPLES_PER_SEED = 3  # rows per seed recomputed by dense LU

    def _windows(self, seed, size):
        m, l, z, n = self.SMALL[size]
        small = (m, l, z, [n * seed + i for i in range(1, n + 1)])
        # the wide window's inputs do not depend on the seed: its failing
        # rows are the named propagator fault, identical on every run
        m, l, z, n = self.WIDE[size]
        wide = (m, l, z, list(range(1, n + 1)))
        return [small, wide]

    def invocations(self, seed, size):
        return [
            [
                "det-check",
                "--r", repr(self.R),
                "--M", str(m),
                "--L", str(l),
                "--z-count", str(z),
                "--seeds", ",".join(str(s) for s in seeds),
            ]
            for m, l, z, seeds in self._windows(seed, size)
        ]

    def work_units(self, seed, size):
        return sum(z * len(seeds) for _, _, z, seeds in self._windows(seed, size))

    def failed_row(self, row):
        return row["status"] == "FAIL"

    def check(self, seed, size, index, rows, code):
        M, L, z_count, seeds = self._windows(seed, size)[index]
        label = f"det-check {('small', 'wide')[index]} M={M} L={L}"
        if [int(row["seed"]) for row in rows] != [s for s in seeds for _ in range(z_count)]:
            return [f"{label}: rows do not cover {z_count} z per seed {seeds}"]
        problems = []
        if [int(row["k"]) for row in rows] != list(range(1, len(rows) + 1)):
            problems.append(f"{label}: trial indices not 1..{len(rows)}")
        failed = 0
        for row in rows:
            rel, status = _num(row["lambda_k"]), row["status"]
            mod, arg = float(row["z_mod"]), float(row["z_arg_over_pi"])
            if not (0.5 <= mod < 2.0 and -1.0 <= arg < 1.0):
                problems.append(f"{label}: z=({mod},{arg}) outside the sampled annulus")
            if status == "FAIL":
                failed += 1
            if status not in ("ok", "FAIL", "degenerate") or (
                status != "degenerate" and (status == "ok") != (rel <= DET_TOL)
            ):
                problems.append(f"{label} k={row['k']}: status {status!r} with error {rel}")
        if index == 0 and failed:
            problems.append(f"{label}: {failed} rows miss the identity")
        if code != (1 if failed else 0):
            problems.append(f"{label}: exit code {code} with {failed} failed rows")
        params = ModelParams.from_r(self.R)
        step = max(1, z_count // self.SAMPLES_PER_SEED)
        for i, s in enumerate(seeds):
            sample = rows[i * z_count : (i + 1) * z_count : step]
            problems += self._lu_oracle(label, params, M, L, s, sample)
        return problems

    @staticmethod
    def _lu_oracle(label, params, M, L, seed, rows) -> list[str]:
        """Right-hand side as log|det(z - U^D)| from a dense LU factorization."""
        problems = []
        phases = sample_phase_field(seed, L, M)
        op = build_cylinder_operator(params, phases, L, M)
        dense = op.matrix.toarray()
        spectrum = eigendecompose(op, want_vectors=False)
        offset = -M * math.log(2.0) - 2 * L * M * math.log(_rt(params.r)[1])
        for row in rows:
            mod, arg = float(row["z_mod"]), float(row["z_arg_over_pi"])
            z = complex(mod) if arg == 0.0 else mod * np.exp(1j * math.pi * arg)
            lu, _ = scipy.linalg.lu_factor(z * np.eye(dense.shape[0]) - dense)
            rhs = offset + float(np.sum(np.log(np.abs(np.diagonal(lu)))))
            got = determinant_identity_residual(z, params, M, L, phases, spectrum=spectrum)
            where = f"{label} seed={seed} k={row['k']}"
            if (got.status == "ok") != (row["status"] != "degenerate"):
                problems.append(f"{where}: recomputed status {got.status} != {row['status']}")
            if got.status != "ok" or row["status"] == "degenerate":
                continue
            if got.rel_error != float(row["lambda_k"]):
                problems.append(f"{where}: CSV error {row['lambda_k']} != recomputed {got.rel_error!r}")
            if abs(got.log_rhs - rhs) > 1e-9:
                problems.append(f"{where}: eigenvalue product {got.log_rhs!r} != LU {rhs!r}")
            if row["status"] == "ok" and abs(math.expm1(got.log_lhs - rhs)) > DET_TOL:
                problems.append(f"{where}: propagator side misses the LU determinant")
        return problems


class DosEigvals(Workload):
    name = "dos-eigvals"
    unit = "eigensolves"
    R, M, K = 0.6, 3, 8
    L = {"full": 25, "smoke": 4}
    SEEDS = {"full": 4, "smoke": 2}
    MOMENT_SIGMAS = 4.0  # moment tolerance in units of 1/sqrt(N * seeds)

    def _setup(self, seed, size):
        L, n = self.L[size], self.SEEDS[size]
        dim = 2 * self.M * (4 * L + 1)
        seeds = [n * seed + i for i in range(1, n + 1)]
        return L, dim, seeds, self.MOMENT_SIGMAS / math.sqrt(dim * len(seeds))

    def invocations(self, seed, size):
        L, _, seeds, tol = self._setup(seed, size)
        return [
            [
                "dos",
                "--r", repr(self.R),
                "--M", str(self.M),
                "--L", str(L),
                "--moments", str(self.K),
                "--moment-tol", repr(tol),
                "--seeds", ",".join(str(s) for s in seeds),
            ]
        ]

    def work_units(self, seed, size):
        return self.SEEDS[size]

    def failed_row(self, row):
        return row["status"].endswith("FAIL")

    def check(self, seed, size, index, rows, code):
        L, dim, seeds, _ = self._setup(seed, size)
        by_k = {int(row["k"]): row for row in rows}
        if sorted(by_k) != list(range(self.K + 1)) or len(rows) != self.K + 1:
            return [f"dos: rows k={sorted(by_k)}"]
        problems = []
        if any(int(row["n_steps"]) != len(seeds) for row in rows):
            problems.append("dos: n_steps is not the seed count")
        params = ModelParams.from_r(self.R)
        # (1/N) tr U^k from sparse powers: no eigenvalues involved
        traces = np.zeros((len(seeds), self.K), dtype=complex)
        for i, s in enumerate(seeds):
            u = build_cylinder_operator(params, sample_phase_field(s, L, self.M), L, self.M).matrix
            power = u
            for k in range(self.K):
                traces[i, k] = power.diagonal().sum() / dim
                power = power @ u
        mean = np.abs(traces.mean(axis=0))
        spread = traces.std(axis=0, ddof=1) / math.sqrt(len(seeds))
        for k in range(1, self.K + 1):
            got, got_spread = float(by_k[k]["lambda_k"]), float(by_k[k]["stderr_k"])
            want, want_spread = float(mean[k - 1]), float(spread[k - 1])
            if abs(got - want) > 1e-12 or abs(got_spread - want_spread) > 1e-12:
                problems.append(f"dos k={k}: moment {got!r} +- {got_spread!r} != trace {want!r} +- {want_spread!r}")
        ks, critical = float(by_k[0]["lambda_k"]), float(by_k[0]["stderr_k"])
        if abs(critical - 1.63 / math.sqrt(dim * len(seeds))) > 1e-15:
            problems.append(f"dos: KS critical value {critical!r} is not 1.63/sqrt(N seeds)")
        if not 0.0 < ks <= critical:
            problems.append(f"dos: KS statistic {ks!r} outside (0, {critical!r}]")
        failed = any(self.failed_row(row) for row in rows)
        if code != (1 if failed else 0):
            problems.append(f"dos: exit code {code} with failed rows={failed}")
        return problems


class DecayEigvecs(Workload):
    name = "decay-eigvecs"
    unit = "eigensolves"
    R, M = 0.95, 2
    L = {"full": 50, "smoke": 6}
    STATUSES = ("ok", "not localized", "compact support", "window too short")
    MAX_FITS = 64  # the program's default --max-fits

    def invocations(self, seed, size):
        return [["decay", "--r", repr(self.R), "--M", str(self.M), "--L", str(self.L[size]), "--seeds", str(seed + 1)]]

    def work_units(self, seed, size):
        return 1

    def check(self, seed, size, index, rows, code):
        problems = []
        dim = 2 * self.M * (4 * self.L[size] + 1)
        if [int(row["k"]) for row in rows] != list(range(0, dim, max(1, dim // self.MAX_FITS))):
            problems.append("decay: fitted eigenvector indices do not follow the subsampling rule")
        ok = 0
        for row in rows:
            status, rate, r2 = row["status"], _num(row["lambda_k"]), _num(row["stderr_k"])
            if status not in self.STATUSES:
                problems.append(f"decay k={row['k']}: undocumented status {status!r}")
            elif status == "ok":
                ok += 1
                if not (r2 >= 0.9 and rate > 0.0):
                    problems.append(f"decay k={row['k']}: ok fit with R^2={r2} rate={rate}")
            elif status == "not localized" and not (r2 is not None and r2 < 0.9 and rate is None):
                problems.append(f"decay k={row['k']}: 'not localized' with R^2={r2} rate={rate}")
        if 4 * ok <= len(rows):
            problems.append(f"decay: only {ok} of {len(rows)} fits are ok")
        if code != 0:
            problems.append(f"decay: exit code {code}")
        return problems


WORKLOADS = {w.name: w for w in (LyapunovSweep(), DetWindow(), DosEigvals(), DecayEigvecs())}
