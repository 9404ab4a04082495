"""Command-line harness: seeded sweeps, invariant verification, data emission.

Subcommands
-----------
lyapunov    spectrum estimates over an (r, M, z, seed) grid + mean-law check
xi-scaling  localization length versus strip width
dos         density-of-states moments, histogram, and KS test
det-check   determinant-identity residuals at random off-circle z
bands       trivial-phase band structure tables
decay       eigenvector decay-rate fits
verify      the exact-identity suite; nonzero exit on first violation
dump        sparse operator / phase-field export

Configuration can come from a flat ``key = value`` text file (``--config``);
explicit flags win.  z values are given as ``modulus,angle_over_pi`` pairs so
on-circle points are exact.  Numerical outputs are deterministic per
(config, seed); records go to CSV (fixed header) or JSON lines.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from . import __version__, invariants
from .model import ModelParams, build_cylinder_operator, sample_phase_field
from .lyapunov import (
    BATCH_COUNT,
    CocycleRunConfig,
    localization_length,
    lyapunov_spectra,
    thouless_rhs,
    xi_upper_bound,
)
from .records import ResultRecord, canonical_row, emit
from .spectral import (
    _DET_IDENTITY_TOL,
    DeskScaleError,
    band_grid,
    determinant_identity_residual,
    dos_moments,
    eigendecompose,
    eigenvector_decay_fit,
)

DEFAULT_R_GRID = [0.6, 0.66, math.sqrt(0.5), math.sqrt(1 - 0.66**2), 0.8]
_SEED_MAX = 2**63 - 1  # the site-phase hash reads a seed as a signed 64-bit integer


def _typed(convert, ok, domain: str, shape: str = "scalar"):
    """The argparse type of a flag whose values ``convert`` and satisfy ``ok``.

    ``shape`` "scalar" reads the text as one value; "list" reads a non-empty
    comma list (blank items skipped); "one" reads such a list of exactly one
    value and returns it bare.  ``domain`` words one value for the error.
    """
    want = {
        "scalar": domain,
        "one": f"one value, {domain}",
        "list": f"a non-empty comma list, each {domain}",
    }[shape]

    def parse(text: str):
        items = [text] if shape == "scalar" else [t for t in text.split(",") if t.strip()]
        try:
            values = [convert(item) for item in items]
        except ValueError:
            values = []
        if not values or not all(map(ok, values)) or (shape == "one" and len(values) > 1):
            raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")
        return values if shape == "list" else values[0]

    return parse


def _at_least(least: int, shape: str = "scalar"):
    return _typed(int, lambda n: n >= least, f"an integer >= {least}", shape)


def _parse_z(text: str) -> list[tuple[float, float]]:
    """Parse 'mod,arg_over_pi' pairs separated by ';' (at least one).

    The cocycle steps with z and 1/z, so the modulus must be positive with
    it and its inverse finite, and the angle finite.
    """
    pairs = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"z must be 'modulus,angle_over_pi', got {chunk!r}"
            )
        mod, arg = float(parts[0]), float(parts[1])
        # comparisons with nan are false, so these also reject it
        if not (0 < mod < math.inf and 1 / mod < math.inf and math.isfinite(arg)):
            raise argparse.ArgumentTypeError(
                f"z needs a modulus > 0 with it and its inverse finite, and a finite angle, "
                f"got {chunk!r}"
            )
        pairs.append((mod, arg))
    if not pairs:
        raise argparse.ArgumentTypeError("z needs at least one 'modulus,angle_over_pi' pair")
    return pairs


def _z_value(mod: float, arg_over_pi: float) -> complex:
    if arg_over_pi == 0.0:
        return complex(mod)
    return mod * np.exp(1j * math.pi * arg_over_pi)


def _config_flags(path: str) -> list[str]:
    """The ``key = value`` lines of a flat config file as ``--key=value`` flags.

    Blank lines and ``#`` comments are skipped; ``_`` in a key reads as ``-``.
    """
    flags = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = stripped.partition("=")
            flags.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return flags


def _parallel(fn, cells, workers: int):
    if workers <= 1 or len(cells) <= 1:
        return [fn(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells))


# ---------------------------------------------------------------------------
# lyapunov / xi-scaling


def _lyapunov_group(cells):
    """Run cells of equal (M, n_steps) as one lockstep batch; returns (cell, result) pairs."""
    configs = [
        CocycleRunConfig(
            params=ModelParams.from_r(r), M=M, n_steps=n_steps, seed=seed, z=_z_value(*z_pair)
        )
        for r, M, z_pair, seed, n_steps in cells
    ]
    return list(zip(cells, lyapunov_spectra(configs)))


def _lyapunov_rows(cell, result):
    r, M, z_pair, seed, n_steps = cell
    params = result.config.params
    xi = localization_length(result)
    on_circle = abs(z_pair[0] - 1.0) < 1e-12
    failures = []
    target = thouless_rhs(_z_value(*z_pair), params)
    tol = max(0.01, 3.0 * result.mean_top_stderr())
    # written as "not within" so that a nan exponent fails
    if not abs(result.mean_top() - target) <= tol:
        failures.append("mean-law")
    # the Lorentz pairing of exponents holds on the unit circle only
    if on_circle and not np.all(
        result.symmetry_defects() <= 3.0 * result.symmetry_sigmas() + 1e-12
    ):
        failures.append("symmetry")
    base = dict(
        command="lyapunov",
        r=params.r,
        t=params.t,
        M=M,
        z_mod=z_pair[0],
        z_arg_over_pi=z_pair[1],
        seed=seed,
        n_steps=n_steps,
    )
    # k = 0 summary row: the mean of the top M exponents (the Thouless check)
    rows = [
        canonical_row(
            **base,
            k=0,
            lambda_k=result.mean_top(),
            stderr_k=result.mean_top_stderr(),
            status="mean-top-M" if not failures else "mean-top-M;" + ";".join(failures),
        )
    ]
    for k in range(2 * M):
        status = "ok" if not failures else ";".join(failures)
        if k + 1 == M and xi.status != "ok":
            status = status + ";xi " + xi.status if status != "ok" else "xi " + xi.status
        rows.append(
            canonical_row(
                **base,
                k=k + 1,
                lambda_k=float(result.exponents[k]),
                stderr_k=float(result.stderrs[k]),
                xi_M=xi.value if k + 1 == M else None,
                status=status,
            )
        )
    return rows, failures


def _lyapunov_results(args, zs):
    """Run the sorted (r, M, z, seed) cells in lockstep batches of equal (M, steps).

    Each (M, steps) group is split into at most ``workers`` contiguous,
    near-equal batches, so one M still spreads over the pool; a cell's
    result does not depend on its batch.  Returns the (cell, result) pairs
    in sorted cell order.
    """
    cells = sorted(
        (r, M, z, seed, args.steps)
        for r in args.r for M in args.M for z in zs for seed in args.seeds
    )
    groups = {}
    for cell in cells:
        groups.setdefault((cell[1], cell[4]), []).append(cell)
    batches = []
    for group in groups.values():
        parts = min(args.workers, len(group))
        edges = [i * len(group) // parts for i in range(parts + 1)]
        batches += [group[a:b] for a, b in zip(edges, edges[1:])]
    results = dict(
        pair for done in _parallel(_lyapunov_group, batches, args.workers) for pair in done
    )
    return [(cell, results[cell]) for cell in cells]


def cmd_lyapunov(args):
    all_rows, any_fail = [], False
    for cell, result in _lyapunov_results(args, args.z):
        rows, failures = _lyapunov_rows(cell, result)
        all_rows.extend(rows)
        any_fail |= bool(failures)
    return all_rows, 1 if any_fail else 0


def cmd_xi_scaling(args):
    """The k = M rows of ``lyapunov`` at z = 1, with a status from xi alone.

    The config echo adds the crude xi upper bound per (r, M).
    """
    view = []
    for cell, result in _lyapunov_results(args, [(1.0, 0.0)]):
        rows, _ = _lyapunov_rows(cell, result)
        xi = localization_length(result)
        status = "ok" if xi.status == "ok" else "xi " + xi.status
        # rows[k] carries exponent k; xi_M sits on row k = M
        view.append(dict(rows[cell[1]], command="xi-scaling", status=status))
    bounds = [[r, M, xi_upper_bound(ModelParams.from_r(r), M)] for r in args.r for M in args.M]
    return view, 0, {"xi_upper_bound": bounds}


# ---------------------------------------------------------------------------
# dos / det-check / bands / decay


def cmd_dos(args):
    params, M = ModelParams.from_r(args.r), args.M
    hist = dos_moments(params, M, args.L, args.seeds, K=args.moments, bins=args.bins)
    rows = []
    ok = True
    for k in range(args.moments):
        value = float(abs(hist.moments[k]))
        passed = value <= args.moment_tol
        ok &= passed
        rows.append(
            canonical_row(
                command="dos",
                r=params.r,
                t=params.t,
                M=M,
                L=args.L,
                n_steps=hist.samples,
                k=k + 1,
                lambda_k=value,
                stderr_k=float(hist.moment_spread[k]),
                status="moment ok" if passed else "moment FAIL",
            )
        )
    ks_pass = hist.ks <= hist.ks_critical_1pct
    ok &= ks_pass
    rows.append(
        canonical_row(
            command="dos",
            r=params.r,
            t=params.t,
            M=M,
            L=args.L,
            n_steps=hist.samples,
            k=0,
            lambda_k=hist.ks,
            stderr_k=hist.ks_critical_1pct,
            status="ks ok" if ks_pass else "ks FAIL",
        )
    )
    if args.hist_out:
        with open(args.hist_out, "w") as fh:
            fh.write("bin_lo,bin_hi,count\n")
            for lo, hi, count in zip(hist.edges[:-1], hist.edges[1:], hist.counts):
                fh.write(f"{float(lo)!r},{float(hi)!r},{int(count)}\n")
    return rows, 0 if ok else 1


def cmd_det_check(args):
    params, M, L = ModelParams.from_r(args.r), args.M, args.L
    rows = []
    trial = 0
    for seed in args.seeds:
        phases = sample_phase_field(seed, L, M)
        op = build_cylinder_operator(params, phases, L, M)
        spectrum = eigendecompose(op, want_vectors=False)
        zrng = np.random.default_rng(seed + 7_654_321)
        for _ in range(args.z_count):
            mod = 0.5 + 1.5 * zrng.random()
            arg = 2.0 * zrng.random() - 1.0
            check = determinant_identity_residual(
                _z_value(mod, arg), params, M, L, phases, spectrum=spectrum
            )
            trial += 1
            rows.append(
                canonical_row(
                    command="det-check",
                    r=params.r,
                    t=params.t,
                    M=M,
                    L=L,
                    z_mod=mod,
                    z_arg_over_pi=arg,
                    seed=seed,
                    k=trial,
                    lambda_k=check.rel_error,
                    status=check.status
                    if check.status != "ok"
                    else ("ok" if check.rel_error <= _DET_IDENTITY_TOL else "FAIL"),
                )
            )
    # a nan residual is a FAIL row too: take the exit code from the rows
    return rows, 1 if any(row["status"] == "FAIL" for row in rows) else 0


def cmd_bands(args):
    params = ModelParams.from_r(args.r)
    structure = band_grid(params, args.nx, args.ny)
    edge = structure.band_edge()
    expected = math.asin(min(1.0, 2.0 * params.rt))
    rows = [
        canonical_row(
            command="bands",
            r=params.r,
            t=params.t,
            k=0,
            lambda_k=structure.det_defect,
            status="det defect",
        ),
        canonical_row(
            command="bands",
            r=params.r,
            t=params.t,
            k=1,
            lambda_k=edge,
            stderr_k=abs(edge - expected),
            status="band edge (stderr column = |edge - arcsin(2rt)|)",
        ),
    ]
    if args.table_out:
        with open(args.table_out, "w") as fh:
            fh.write("x,y,theta_lower,theta_upper\n")
            for i, x in enumerate(structure.xs):
                for j, y in enumerate(structure.ys):
                    lo, hi = structure.eigenphases[i, j]
                    fh.write(f"{float(x)!r},{float(y)!r},{float(lo)!r},{float(hi)!r}\n")
    return rows, 0 if structure.det_defect <= 1e-12 else 1


def cmd_decay(args):
    params, M, L = ModelParams.from_r(args.r), args.M, args.L
    rows = []
    for seed in args.seeds:
        phases = sample_phase_field(seed, L, M)
        op = build_cylinder_operator(params, phases, L, M)
        indices = range(0, op.dim, max(1, op.dim // args.max_fits))
        spectrum = eigendecompose(op, want_vectors=indices)
        for index in indices:
            fit = eigenvector_decay_fit(spectrum, index)
            rows.append(
                canonical_row(
                    command="decay",
                    r=params.r,
                    t=params.t,
                    M=M,
                    L=L,
                    seed=seed,
                    k=index,
                    lambda_k=fit.rate,
                    stderr_k=fit.r_squared,
                    status=fit.status,
                )
            )
    return rows, 0


def cmd_dump(args) -> int:
    params, M, L, seed = ModelParams.from_r(args.r), args.M, args.L, args.seeds
    phases = sample_phase_field(seed, L, M)
    out = args.out or f"ccnet-{args.what}.csv"
    if args.what == "operator":
        op = build_cylinder_operator(params, phases, L, M)
        with open(out, "w") as fh:
            fh.write("row,col,re,im\n")
            for row, col, re, im in op.to_triplets():
                fh.write(f"{int(row)},{int(col)},{float(re)!r},{float(im)!r}\n")
    else:
        with open(out, "w") as fh:
            fh.write("column,ring,arg\n")
            for j, k, arg in phases.to_triples():
                fh.write(f"{int(j)},{int(k)},{float(arg)!r}\n")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    failures = 0
    started = time.perf_counter()
    for name, check, quick_args, full_args in invariants.CHECKS:
        try:
            ok, detail = check(*(quick_args if args.quick else full_args))
        except Exception as exc:  # surface, then keep going
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1
    print(f"verify: {failures} failure(s) in {time.perf_counter() - started:.1f}s")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# plumbing

# parsed names that are not run settings: the dispatch, the file whose values
# are echoed as flags, and the worker count, which no number depends on
_NOT_ECHOED = ("command", "run", "config", "workers")


def _record(cmd, args) -> int:
    """Run ``cmd`` and emit its rows as one record for ``args.command``; return its exit code.

    ``cmd(args)`` returns ``(rows, exit code)``, or a third item: a dict of
    keys the echo adds.  The config echo is every parsed flag but
    ``_NOT_ECHOED``.  Written to ``--out`` in ``--format``, or printed as a
    stdout summary.
    """
    started = time.perf_counter()
    rows, code, *extra = cmd(args)
    wall_clock_s = time.perf_counter() - started
    echo = {key: val for key, val in vars(args).items() if key not in _NOT_ECHOED}
    echo.update(*extra)
    # tuples (the z pairs) are not JSON round-trippable; normalize
    for key, val in echo.items():
        if isinstance(val, list):
            echo[key] = [list(v) if isinstance(v, tuple) else v for v in val]
    record = ResultRecord(command=args.command, config=echo, rows=rows, wall_clock_s=wall_clock_s)
    if args.out:
        emit([record], args.format, args.out)
        print(f"wrote 1 record(s) to {args.out}")
    else:
        for row in rows:
            print({k: v for k, v in row.items() if v is not None})
    return code


def _add_flags(sub, names: str, r: str = repr(DEFAULT_R_GRID[2]), one: str = "",
               seed_max=_SEED_MAX):
    """Add the shared flags ``names`` (space-separated) to the subcommand ``sub``.

    ``r`` is the default --r text.  --r, --M and --seeds take one value when
    named in ``one``, else a comma list; seeds above ``seed_max`` are refused.
    """
    def shape(name):
        return "one" if name in one.split() else "list"

    seed_domain = "a seed >= 0" if seed_max == math.inf else f"a seed in [0, {seed_max}]"
    workers = _typed(int, lambda n: n >= 1, "a worker count >= 1 (flag or env CCNET_WORKERS)")
    flags = {
        "config": (["--config"], dict(help="flat key=value config file; flags win")),
        "out": (["--out"], dict(help="output path (stdout summary if omitted)")),
        "format": (["--format"], dict(choices=("csv", "json"), default="csv")),
        "workers": (["--workers"], dict(
            type=workers, default=os.environ.get("CCNET_WORKERS") or "1",
            help="lyapunov/xi-scaling worker processes (env CCNET_WORKERS); other commands ignore it",
        )),
        "r": (["--r"], dict(
            type=_typed(float, lambda r: 0 < r < 1, "r strictly inside (0, 1)", shape("r")),
            default=r, help="comma list of r values",
        )),
        "M": (["--M"], dict(
            type=_at_least(1, shape("M")), default="2", help="comma list of strip half-widths"
        )),
        "L": (["--L"], dict(type=_at_least(0), default="2", help="window half-length parameter")),
        "seeds": (["--seeds", "--seed"], dict(
            type=_typed(int, lambda s: 0 <= s <= seed_max, seed_domain, shape("seeds")),
            default="1", help="comma list of seeds (non-empty)",
        )),
    }
    for name in names.split():
        flag_names, options = flags[name]
        sub.add_argument(*flag_names, **options)


def build_parser() -> argparse.ArgumentParser:
    """The ccnet parser.  Each subcommand takes exactly the flags it reads, and
    each flag's type states its domain, so parsing is the only validation;
    --workers defaults to CCNET_WORKERS as read here."""
    parser = argparse.ArgumentParser(
        prog="ccnet",
        description="Cylinder network-model laboratory: cocycles, Lyapunov spectra, spectral checks.",
    )
    parser.add_argument("--version", action="version", version=f"ccnet {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, flags="", **shared):
        sub = subs.add_parser(name, help=help)
        sub.set_defaults(run=run)
        _add_flags(sub, flags, **shared)
        return sub

    def recorded(name, cmd, help, flags, **shared):
        # a command whose rows go out as one record, through _record
        return command(name, partial(_record, cmd), help, "config out format " + flags, **shared)

    grid = ",".join(map(repr, DEFAULT_R_GRID))
    steps = _at_least(BATCH_COUNT)

    ly = recorded("lyapunov", cmd_lyapunov, "Lyapunov spectrum sweep + mean-law check",
                  "workers r M seeds", r=grid, seed_max=math.inf)
    ly.add_argument("--steps", type=steps, default="200000")
    ly.add_argument("--z", type=_parse_z, default="1,0", help="mod,arg/pi pairs; ';'-separated")

    xi = recorded("xi-scaling", cmd_xi_scaling, "localization length vs strip width",
                  "workers r M seeds", r=grid, seed_max=math.inf)
    xi.add_argument("--steps", type=steps, default="200000")

    # dos, det-check and decay read no --workers; they take it because the
    # benchmark harness (perfbench/run.py) passes --workers 1 to every command
    dos = recorded("dos", cmd_dos, "density-of-states moments and histogram",
                   "workers r M L seeds", one="r M")
    dos.add_argument("--moments", type=_at_least(1), default="8")
    dos.add_argument("--bins", type=_at_least(1), default="64")
    dos.add_argument(
        "--moment-tol", type=_typed(float, lambda x: 0 < x < math.inf, "a finite real > 0"),
        default="0.01",
    )
    dos.add_argument("--hist-out", help="histogram CSV path")

    det = recorded("det-check", cmd_det_check, "determinant identity residuals",
                   "workers r M L seeds", r="0.6", one="r M")
    det.add_argument("--z-count", type=_at_least(1), default="20")

    bands = recorded("bands", cmd_bands, "trivial-phase symbol eigenphases", "r", one="r")
    bands.add_argument("--nx", type=_at_least(1), default="64")
    bands.add_argument("--ny", type=_at_least(1), default="64")
    bands.add_argument("--table-out", help="full (x, y, theta) table CSV path")

    decay = recorded("decay", cmd_decay, "eigenvector decay fits",
                     "workers r M L seeds", r="0.95", one="r M")
    decay.add_argument(
        "--max-fits", type=_at_least(1), default="64", help="subsample this many eigenvectors"
    )

    verify = command("verify", cmd_verify, "exact-identity suite; exit 1 on violation")
    verify.add_argument("--quick", action="store_true", help="reduced draw counts, < 10 s")

    dump = command("dump", cmd_dump, "export operator triplets or phase triples",
                   "config out r M L seeds", one="r M seeds")
    dump.add_argument("--what", choices=["operator", "phases"], default="operator")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            file_flags = _config_flags(args.config)
        except (OSError, ValueError) as exc:
            parser.error(f"--config: {exc}")
        # the file's values go right after the command name, so the explicit flags win
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + file_flags + argv[at:])
    try:
        return args.run(args)
    except DeskScaleError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
