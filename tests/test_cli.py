import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccnet
from ccnet import __version__, cli, invariants, spectral
from ccnet.cli import main
from ccnet.lyapunov import BATCH_COUNT
from ccnet.records import CSV_HEADER, ResultRecord, canonical_row, emit, read_records


# ---------------------------------------------------------------------------
# records


def test_emit_empty_csv_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], "csv", path)
    assert path.read_bytes() == (",".join(CSV_HEADER) + "\r\n").encode()


def test_canonical_row_rejects_unknown_columns():
    with pytest.raises(ValueError):
        canonical_row(command="x", bogus=1)


def test_csv_round_trip(tmp_path):
    rows = [
        canonical_row(
            command="lyapunov",
            r=0.6,
            t=0.8,
            M=2,
            z_mod=1.0,
            z_arg_over_pi=0.2,
            seed=5,
            n_steps=1000,
            k=1,
            lambda_k=0.123456789012345,
            stderr_k=0.001,
            status="ok",
        ),
        canonical_row(command="lyapunov", k=2, lambda_k=-0.5, status="ok"),
    ]
    record = ResultRecord(command="lyapunov", config={"r": [0.6]}, rows=rows)
    path = tmp_path / "out.csv"
    emit([record], "csv", path)
    assert read_records(path, "csv") == rows


def test_json_round_trip(tmp_path):
    rows = [canonical_row(command="dos", k=1, lambda_k=0.25, status="moment ok")]
    record = ResultRecord(
        command="dos", config={"M": [3], "seeds": [1, 2]}, rows=rows, wall_clock_s=1.5
    )
    path = tmp_path / "out.json"
    emit([record], "json", path)
    (loaded,) = read_records(path, "json")
    assert (loaded.command, loaded.config, loaded.rows) == (record.command, record.config, rows)


def test_record_version_is_package_version():
    assert ResultRecord(command="dos", config={}).version == __version__


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit([], "xml", tmp_path / "x")


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_import_leaves_scipy_unloaded():
    # the operator builder and the eigensolver import scipy on first use; a
    # module-level import would add its load time and memory to every
    # command's start-up, including the cocycle commands that never solve
    src = str(Path(ccnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, ccnet.cli; ccnet.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["verify"], ["verify", "--quick"]], ids=["full", "quick"])
def test_verify_quick_exits_clean(capsys, argv):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("[PASS] ") for line in lines[:-1])
    names = [line[len("[PASS] ") :].split(": ")[0] for line in lines[:-1]]
    assert names == [name for name, *_ in invariants.CHECKS]
    assert lines[-1].startswith("verify: 0 failure(s) in ")


def test_verify_reports_failures_and_keeps_going(capsys, monkeypatch):
    checks = [
        ("fails", lambda: (False, "defect 1.00e+00"), (), ()),
        ("raises", lambda: 1 / 0, (), ()),
        ("after", lambda: (True, "fine"), (), ()),
    ]
    monkeypatch.setattr(invariants, "CHECKS", checks)
    assert main(["verify", "--quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "[FAIL] fails: defect 1.00e+00",
        "[FAIL] raises: raised ZeroDivisionError: division by zero",
        "[PASS] after: fine",
    ]
    assert lines[3].startswith("verify: 2 failure(s) in ")


def test_lyapunov_deterministic_data_sections(tmp_path):
    args = ["lyapunov", "--r", "0.6", "--M", "1", "--steps", "3000", "--seeds", "4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_lyapunov_json_records_reproducible_config(tmp_path):
    path = tmp_path / "run.json"
    assert (
        main(
            [
                "lyapunov",
                "--r",
                "0.7071067811865476",
                "--M",
                "2",
                "--steps",
                "4000",
                "--seeds",
                "1,2",
                "--format",
                "json",
                "--out",
                str(path),
            ]
        )
        == 0
    )
    record = read_records(path, "json")[0]
    assert record.config["steps"] == 4000
    assert record.config["seeds"] == [1, 2]
    # one row per exponent plus the k = 0 mean-of-top-M summary, per cell
    assert len(record.rows) == 2 * (2 * 2 + 1)
    ks = {(row["seed"], row["k"]) for row in record.rows}
    assert ks == {(s, k) for s in (1, 2) for k in (0, 1, 2, 3, 4)}
    means = [row for row in record.rows if row["k"] == 0]
    for row in means:
        assert abs(row["lambda_k"] - 0.346574) <= 0.05  # short run, loose check


def test_lyapunov_rejects_extreme_r(capsys):
    with pytest.raises(SystemExit) as err:
        main(["lyapunov", "--r", "0", "--M", "1", "--steps", "1000", "--seeds", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("env", ["abc", "0", "-3"])
def test_workers_env_must_be_integer(monkeypatch, capsys, env):
    # a non-integer or non-positive worker count is a usage error, as for --workers
    monkeypatch.setenv("CCNET_WORKERS", env)
    with pytest.raises(SystemExit) as err:
        main(["lyapunov", "--r", "0.6", "--M", "1", "--steps", "1000", "--seeds", "1"])
    assert err.value.code == 2
    assert "CCNET_WORKERS" in capsys.readouterr().err


def test_seeds_must_be_nonempty():
    with pytest.raises(SystemExit):
        main(["lyapunov", "--r", "0.6", "--M", "1", "--steps", "1000", "--seeds", ""])


@pytest.mark.parametrize(
    "argv",
    [
        ["dos", "--M", "1,2"],
        ["dos", "--r", "0.6,0.7"],
        ["det-check", "--M", "1,2"],
        ["det-check", "--r", "0.6,0.7"],
        ["decay", "--M", "1,2"],
        ["decay", "--r", "0.6,0.7"],
        ["bands", "--r", "0.6,0.7"],
        ["dump", "--M", "1,2"],
        ["dump", "--r", "0.6,0.7"],
        ["dump", "--seeds", "1,2"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_single_value_commands_reject_extra_values(tmp_path, capsys, argv):
    # these commands read one r, M (and, for dump, seed); a second value used
    # to be dropped without a word
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[1]}" in err and "expected one value" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["lyapunov", "--workers", "0"], "--workers"),
        (["lyapunov", "--steps", "10"], "--steps"),
        (["xi-scaling", "--steps", "19"], "--steps"),
        (["lyapunov", "--z", "0,0"], "--z"),
        (["lyapunov", "--M", "1,0"], "--M"),
        (["decay", "--max-fits", "0"], "--max-fits"),
        (["dos", "--moments", "0"], "--moments"),
        (["dos", "--bins", "-3"], "--bins"),
        (["det-check", "--L", "-1"], "--L"),
        (["bands", "--nx", "0"], "--nx"),
        (["det-check", "--z-count", "0"], "--z-count"),
        (["lyapunov", "--z", "nan,0"], "--z"),
        (["lyapunov", "--z", "1,inf"], "--z"),
        (["dos", "--moment-tol", "nan"], "--moment-tol"),
        # an empty list runs nothing: a traceback, or an exit 0 for no check
        (["dos", "--M", ""], "--M"),
        (["lyapunov", "--r", "0.6", "--M", "", "--steps", "40"], "--M"),
        (["lyapunov", "--r", "0.6", "--M", "1", "--z", ";", "--steps", "40"], "--z"),
        # an empty --r used to run the default r values
        (["lyapunov", "--r", "", "--M", "1", "--steps", "40"], "--r"),
        (["dos", "--r", ""], "--r"),
        # seeds feed np.random.default_rng, which refuses negative ones
        (["lyapunov", "--seeds", "-1"], "--seeds"),
        (["xi-scaling", "--seeds", "-3"], "--seeds"),
        (["det-check", "--seeds", "-7654322"], "--seeds"),
        (["dos", "--seeds", "-1"], "--seeds"),
        (["decay", "--seeds", "-1"], "--seeds"),
        (["dump", "--seeds", "-1"], "--seeds"),
        # the site-phase hash reads a seed as a signed 64-bit integer; these
        # ended in an OverflowError traceback
        (["dos", "--M", "1", "--L", "1", "--seeds", str(2**63), "--moments", "1"], "--seeds"),
        (["det-check", "--seeds", f"1,{2**63}"], "--seeds"),
        (["decay", "--seed", str(2**64)], "--seeds"),
        (["dump", "--seeds", str(2**63)], "--seeds"),
        # the cocycle steps with 1/z, which is inf here (was a ValueError traceback)
        (["lyapunov", "--M", "1", "--steps", "20", "--r", "0.5", "--z", "1e-320,0"], "--z"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_out_of_range_flags_are_usage_errors(tmp_path, capsys, argv, flag):
    # rejected as usage errors up front, not by a ZeroDivisionError or
    # ValueError traceback from inside the run
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert f"error: argument {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def _accepts(convert, ok, shape, text):
    """Whether a flag of this domain and shape takes ``text`` (the test's oracle)."""
    items = [text] if shape == "scalar" else [item for item in text.split(",") if item.strip()]
    try:
        values = [convert(item) for item in items]
    except ValueError:
        return False
    return bool(values) and all(map(ok, values)) and (shape != "one" or len(values) == 1)


def _z_accepts(text):
    chunks = [chunk for chunk in text.split(";") if chunk.strip()]
    try:
        pairs = [[float(part) for part in chunk.split(",")] for chunk in chunks]
    except ValueError:
        return False
    return bool(pairs) and all(
        len(pair) == 2
        and 0 < pair[0] < math.inf
        and 1 / pair[0] < math.inf
        and math.isfinite(pair[1])
        for pair in pairs
    )


def _at_least(least):
    return lambda value: value >= least


def _flag_domains():
    """(command, flag, convert, in-domain test, shape, least) for each numeric flag, as documented."""
    flags = {  # each command's numeric flags; those in the second string take one value
        "lyapunov": ("--workers --r --M --seeds", ""),
        "xi-scaling": ("--workers --r --M --seeds", ""),
        "dos": ("--workers --r --M --L --seeds", "--r --M"),
        "det-check": ("--workers --r --M --L --seeds", "--r --M"),
        "bands": ("--r", "--r"),
        "decay": ("--workers --r --M --L --seeds", "--r --M"),
        "dump": ("--r --M --L --seeds", "--r --M --seeds"),
    }
    extra = {
        "lyapunov": [("--steps", BATCH_COUNT)],
        "xi-scaling": [("--steps", BATCH_COUNT)],
        "dos": [("--moments", 1), ("--bins", 1)],
        "det-check": [("--z-count", 1)],
        "bands": [("--nx", 1), ("--ny", 1)],
        "decay": [("--max-fits", 1)],
        "dump": [],
    }
    rows = []
    for command, (shared, one) in flags.items():
        if command in ("lyapunov", "xi-scaling"):
            seed_ok = _at_least(0)
        else:  # seeds feed the site-phase hash
            seed_ok = lambda seed: 0 <= seed <= 2**63 - 1  # noqa: E731
        domains = {
            "--workers": (int, _at_least(1), 1),
            "--L": (int, _at_least(0), 0),
            "--r": (float, lambda r: 0 < r < 1, 0),
            "--M": (int, _at_least(1), 1),
            "--seeds": (int, seed_ok, 0),
        }
        for flag in shared.split():
            convert, ok, least = domains[flag]
            shape = "scalar" if flag in ("--workers", "--L") else "one" if flag in one.split() else "list"
            rows.append((command, flag, convert, ok, shape, least))
        rows += [(command, flag, int, _at_least(least), "scalar", least) for flag, least in extra[command]]
    rows.append(("dos", "--moment-tol", float, lambda tol: 0 < tol < math.inf, "scalar", 0))
    return rows


_FLAG_DOMAINS = _flag_domains()


def _edge_texts(least):
    edges = [str(least), str(least - 1), "0", "-1", str(2**63), str(2**63 - 1), "nan", "inf",
             "-inf", "5e-324", "0.5", "1", "", ",", f"{least},{least}", f"{least + 1},{least - 1}"]
    value = st.one_of(
        st.sampled_from(edges), st.integers(least - 3, least + 3).map(str), st.floats().map(repr)
    )
    return st.one_of(value, st.lists(value, min_size=2, max_size=3).map(",".join))


@pytest.fixture(scope="module")
def parser():
    # --workers defaults to CCNET_WORKERS as the parser is built
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("CCNET_WORKERS", raising=False)
        return cli.build_parser()


def _parse_exit(parser, argv):
    """0 when ``parser`` takes ``argv``, else (exit code, stderr)."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, err.getvalue()
    return 0


@pytest.mark.parametrize(
    "command, flag, convert, ok, shape, least",
    _FLAG_DOMAINS,
    ids=[f"{row[0]} {row[1]}" for row in _FLAG_DOMAINS],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flag_types_refuse_exactly_outside_the_domain(
    parser, command, flag, convert, ok, shape, least, data
):
    # parsing is the only validation: exit 2, naming the flag, exactly outside the domain
    text = data.draw(_edge_texts(least), label="text")
    got = _parse_exit(parser, [command, f"{flag}={text}"])
    if _accepts(convert, ok, shape, text):
        assert got == 0
    else:
        assert got[0] == 2 and f"error: argument {flag}" in got[1]


@settings(max_examples=200, deadline=None)
@given(
    text=st.one_of(
        st.sampled_from(["", ";", "1", "1,0,0", "0,0", "nan,0", "1,inf", "1e-320,0", "1e-308,0",
                         "5e-324,1", "1.7e308,0", "1,0;0,0", "1,0;", "x,0"]),
        st.lists(
            st.tuples(st.floats(), st.floats()).map(lambda p: f"{p[0]!r},{p[1]!r}"),
            min_size=1, max_size=3,
        ).map(";".join),
    )
)
def test_z_type_refuses_exactly_outside_the_domain(parser, text):
    got = _parse_exit(parser, ["lyapunov", f"--z={text}"])
    if _z_accepts(text):
        assert got == 0
    else:
        assert got[0] == 2 and "error: argument --z" in got[1]


# each command's flags that take no number
_OTHER_FLAGS = {
    "lyapunov": "--config --out --format --z",
    "xi-scaling": "--config --out --format",
    "dos": "--config --out --format --hist-out",
    "det-check": "--config --out --format",
    "bands": "--config --out --format --table-out",
    "decay": "--config --out --format",
    "verify": "--quick",
    "dump": "--config --out --what",
}


def test_each_command_takes_exactly_the_documented_flags(parser):
    (subs,) = [action.choices for action in parser._actions if action.dest == "command"]
    taken = {
        (command, action.option_strings[0])
        for command, sub in subs.items()
        for action in sub._actions
        if action.dest != "help"
    }
    documented = {(row[0], row[1]) for row in _FLAG_DOMAINS} | {
        (command, flag) for command, flags in _OTHER_FLAGS.items() for flag in flags.split()
    }
    assert taken == documented
    assert len(taken) == 62


@pytest.mark.parametrize(
    "argv",
    [
        ["lyapunov", "--L", "2"],
        ["xi-scaling", "--L", "2"],
        ["bands", "--M", "2"],
        ["bands", "--L", "2"],
        ["bands", "--seeds", "1"],
        ["bands", "--workers", "1"],
        ["dump", "--workers", "1"],
        ["dump", "--format", "csv"],
        ["dump", "--format", "json"],
    ],
    ids=" ".join,
)
def test_flags_a_command_does_not_read_are_refused(tmp_path, capsys, argv):
    # these parsed and were then ignored; dump --format json wrote CSV
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()

@pytest.mark.parametrize("z", ["1e-200,0", "1e200,0", "1.7e308,0"])
def test_lyapunov_nan_exponents_fail_the_mean_law(tmp_path, z):
    # the cocycle overflows in one step; a nan mean used to pass (exit 0, status ok),
    # and at 1.7e308 the period derivation raised a ValueError
    out = tmp_path / "ly.csv"
    argv = ["lyapunov", "--M", "2", "--steps", "40", "--r", "0.6", "--z", z, "--out", str(out)]
    assert main(argv) == 1
    rows = read_records(out, "csv")
    assert all("mean-law" in row["status"] for row in rows)


def test_det_check_nan_residual_fails(tmp_path, monkeypatch):
    # max(worst, nan) kept the old worst, so nan-only misses exited 0
    def nan_residual(z, *args, **kwargs):
        return spectral.DetIdentityCheck(status="ok", z=z, rel_error=math.nan)

    monkeypatch.setattr(cli, "determinant_identity_residual", nan_residual)
    out = tmp_path / "det.csv"
    argv = ["det-check", "--M", "1", "--L", "1", "--z-count", "2", "--out", str(out)]
    assert main(argv) == 1
    assert [row["status"] for row in read_records(out, "csv")] == ["FAIL", "FAIL"]


def test_det_check_tolerance_is_not_a_flag(tmp_path, capsys):
    # the determinant identity's tolerance is fixed, not configurable
    with pytest.raises(SystemExit) as exc:
        main(["det-check", "--tol", "1e-3", "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep defaults\nr = 0.6\nsteps = 3000\nseeds = 9\nM = 1\n")
    out = tmp_path / "out.csv"
    assert main(["lyapunov", "--config", str(cfg), "--M", "2", "--out", str(out)]) == 0
    rows = read_records(out, "csv")
    assert {row["M"] for row in rows} == {2}  # flag wins
    assert {row["seed"] for row in rows} == {9}  # file value survives
    assert {row["n_steps"] for row in rows} == {3000}
    cfg.write_text("quick = true\n")
    with pytest.raises(SystemExit) as exc:  # verify takes no --config
        main(["verify", "--config", str(cfg)])
    assert exc.value.code == 2
    capsys.readouterr()
    # a line without '=' and a missing file are usage errors, not tracebacks
    cfg.write_text("r = 0.6\nsteps 3000\n")
    for path in (cfg, tmp_path / "missing.cfg"):
        with pytest.raises(SystemExit) as exc:
            main(["lyapunov", "--config", str(path), "--out", str(out)])
        assert exc.value.code == 2
        assert "error: --config: " in capsys.readouterr().err


def test_config_spellings_read_the_same_file(tmp_path):
    # --config=PATH and the prefix --conf used to parse and leave the file
    # unread, running the default r grid at 200000 steps
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 0.6\nM = 1\nsteps = 2000\nseeds = 3\n")
    outputs = []
    for spelling in (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)]):
        out = tmp_path / f"out{len(outputs)}.csv"
        main(["lyapunov", *spelling, "--out", str(out)])
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert {(row["r"], row["n_steps"]) for row in read_records(out, "csv")} == {(0.6, 2000)}


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("r = 0.6\nL = 2\n", [], "unrecognized arguments: --L=2"),
        # a bad file value is refused even where a flag overrides it
        ("steps = 5\n", ["--steps", "3000"], "argument --steps"),
    ],
    ids=["unknown-key", "bad-overridden-value"],
)
def test_config_file_values_parse_as_flags(tmp_path, capsys, text, flags, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["lyapunov", "--config", str(cfg), *flags, "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()

def test_det_check_command(tmp_path):
    out = tmp_path / "det.csv"
    code = main(
        [
            "det-check",
            "--r",
            "0.6",
            "--M",
            "2",
            "--L",
            "2",
            "--seeds",
            "1",
            "--z-count",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_records(out, "csv")
    assert len(rows) == 4
    assert all(row["lambda_k"] <= 1e-8 for row in rows if row["status"] == "ok")


def test_dos_stdout_shows_plain_floats(capsys):
    main(["dos", "--M", "1", "--L", "1", "--moments", "2", "--bins", "1"])
    out = capsys.readouterr().out
    assert "'lambda_k': " in out
    assert "np.float64" not in out


def test_dos_command_and_histogram(tmp_path):
    out = tmp_path / "dos.csv"
    hist = tmp_path / "hist.csv"
    code = main(
        [
            "dos",
            "--r",
            "0.6",
            "--M",
            "2",
            "--L",
            "5",
            "--seeds",
            "1,2,3,4",
            "--moments",
            "4",
            "--moment-tol",
            "0.08",
            "--out",
            str(out),
            "--hist-out",
            str(hist),
        ]
    )
    assert code == 0
    rows = read_records(out, "csv")
    assert len(rows) == 5  # 4 moments + KS line
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    counts = sum(int(line.split(",")[2]) for line in lines[1:])
    assert counts == 2 * 2 * (4 * 5 + 1) * 4


def test_bands_command(tmp_path):
    out = tmp_path / "bands.csv"
    table = tmp_path / "table.csv"
    assert main(["bands", "--r", "0.6", "--out", str(out), "--table-out", str(table)]) == 0
    rows = read_records(out, "csv")
    assert rows[0]["status"] == "det defect" and rows[0]["lambda_k"] <= 1e-12
    assert rows[1]["stderr_k"] <= 1e-9  # |edge - arcsin(2rt)|
    header = table.read_text().splitlines()[0]
    assert header == "x,y,theta_lower,theta_upper"


def test_decay_command(tmp_path):
    out = tmp_path / "decay.csv"
    assert (
        main(
            [
                "decay",
                "--r",
                "0.95",
                "--M",
                "2",
                "--L",
                "15",
                "--seeds",
                "1",
                "--max-fits",
                "6",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = read_records(out, "csv")
    assert len(rows) >= 6
    assert {row["status"] for row in rows} <= {
        "ok",
        "not localized",
        "compact support",
        "window too short",
    }


def test_decay_runs_past_the_schur_cap(tmp_path):
    # N = 2M (4L + 1) = 4804 > DESK_SCALE_CAP: phases and the fitted vectors
    # come from band solves, so the cap of the dense Schur solve does not apply
    out = tmp_path / "decay.csv"
    argv = ["decay", "--r", "0.95", "--M", "2", "--L", "300", "--seeds", "1", "--out", str(out)]
    assert main(argv) == 0
    rows = read_records(out, "csv")
    assert [row["k"] for row in rows] == list(range(0, 4804, 4804 // 64))


def test_schur_past_the_cap_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the L = 0 ring shift has mirror pairs, so its phases need the Schur form
    monkeypatch.setattr(spectral, "DESK_SCALE_CAP", 3)
    with pytest.raises(SystemExit) as exc:
        main(["dos", "--M", "2", "--L", "0", "--out", str(tmp_path / "dos.csv")])
    assert exc.value.code == 2
    assert "exceeds desk-scale cap 3" in capsys.readouterr().err
    assert not (tmp_path / "dos.csv").exists()


@pytest.mark.parametrize("M", [1, 2, 3])
def test_ring_shift_runs_end_to_end_through_the_fallback(tmp_path, caplog, M):
    # L = 0 is the ring shift: from M = 2 on its mirror pairs are not
    # certified on the banded path, and the Schur form answers every solve
    det, decay = tmp_path / "det.csv", tmp_path / "decay.csv"
    with caplog.at_level("INFO", logger="ccnet.spectral"):
        assert main(["det-check", "--M", str(M), "--L", "0", "--out", str(det)]) == 0
        argv = ["decay", "--M", str(M), "--L", "0", "--seeds", "1,2", "--out", str(decay)]
        assert main(argv) == 0
    assert {row["status"] for row in read_records(det, "csv")} == {"ok"}
    rows = read_records(decay, "csv")
    assert len(rows) == 2 * 2 * M
    assert {row["status"] for row in rows} == {"compact support"}
    # one solve per seed: det-check's default seed and decay's two
    fallbacks = [rec for rec in caplog.records if "using the Schur form" in rec.message]
    assert len(fallbacks) == (0 if M == 1 else 3)


def test_dos_and_decay_echo_the_flags_that_shape_their_rows(tmp_path):
    dos = tmp_path / "dos.json"
    argv = ["dos", "--M", "1", "--L", "1", "--moments", "2", "--bins", "8"]
    main([*argv, "--moment-tol", "0.5", "--format", "json", "--out", str(dos)])
    config = read_records(dos, "json")[0].config
    assert (config["moments"], config["bins"], config["moment_tol"]) == (2, 8, 0.5)
    records = {}
    for fits in (8, 64):
        out = tmp_path / f"decay{fits}.json"
        argv = ["decay", "--M", "1", "--L", "3", "--max-fits", str(fits), "--seeds", "1"]
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        records[fits] = read_records(out, "json")[0]
        assert records[fits].config["max_fits"] == fits
    # N = 26: every third vector at --max-fits 8, all 26 at --max-fits 64
    assert [len(records[fits].rows) for fits in (8, 64)] == [9, 26]


@pytest.mark.parametrize(
    "argv",
    [
        ["lyapunov", "--r", "0.6", "--M", "1", "--steps", "20", "--z", "1,0;1,0.5"],
        ["xi-scaling", "--r", "0.6", "--M", "1", "--steps", "20"],
        ["dos", "--M", "1", "--L", "1", "--moments", "1", "--bins", "2"],
        ["det-check", "--M", "1", "--L", "1", "--z-count", "1"],
        ["bands", "--nx", "2", "--ny", "2"],
        ["decay", "--M", "1", "--L", "2", "--max-fits", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_echo_is_every_parsed_flag_but_dispatch_config_and_workers(parser, tmp_path, argv):
    argv = [*argv, "--format", "json", "--out", str(tmp_path / "out.json")]
    main(argv)
    (record,) = read_records(tmp_path / "out.json", "json")
    parsed = vars(parser.parse_args(argv))
    echo = {k: v for k, v in parsed.items() if k not in ("command", "run", "config", "workers")}
    # JSON holds the z pairs as lists
    echo = json.loads(json.dumps(echo))
    if argv[0] == "xi-scaling":
        echo["xi_upper_bound"] = record.config["xi_upper_bound"]
    assert record.config == echo

def test_xi_scaling_command(tmp_path):
    out = tmp_path / "xi.json"
    assert (
        main(
            [
                "xi-scaling",
                "--r",
                "0.6",
                "--M",
                "1,2",
                "--steps",
                "3000",
                "--seeds",
                "2",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    record = read_records(out, "json")[0]
    assert [row["M"] for row in record.rows] == [1, 2]
    assert all(row["k"] == row["M"] for row in record.rows)


def test_xi_scaling_is_the_lyapunov_k_equals_m_row(tmp_path):
    sweep = ["--r", "0.6,0.8", "--M", "1,2", "--steps", "2000", "--seeds", "1,2"]
    ly, xi = tmp_path / "ly.csv", tmp_path / "xi.csv"
    main(["lyapunov", *sweep, "--out", str(ly)])
    assert main(["xi-scaling", *sweep, "--out", str(xi)]) == 0
    expected = [
        row
        for row in read_records(ly, "csv")
        if row["k"] == row["M"] and (row["z_mod"], row["z_arg_over_pi"]) == (1.0, 0.0)
    ]
    got = read_records(xi, "csv")
    assert len(got) == len(expected) == 8
    rest = set(CSV_HEADER) - {"command", "status"}
    for a, b in zip(got, expected):
        assert a["command"] == "xi-scaling" and b["command"] == "lyapunov"
        assert a["status"] == "ok" or a["status"].startswith("xi ")
        assert {c: a[c] for c in rest} == {c: b[c] for c in rest}


def test_xi_scaling_echoes_the_crude_upper_bound(tmp_path):
    from ccnet import ModelParams, xi_upper_bound

    sweep = ["--r", "0.3,0.7071067811865476", "--M", "1,2", "--steps", "1000", "--seeds", "1"]
    js, csv_a, csv_b = tmp_path / "xi.json", tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["xi-scaling", *sweep, "--format", "json", "--out", str(js)]) == 0
    record = read_records(js, "json")[0]
    assert record.config["xi_upper_bound"] == [
        [r, M, xi_upper_bound(ModelParams.from_r(r), M)]
        for r in (0.3, 0.7071067811865476)
        for M in (1, 2)
    ]
    # critical r = t: vacuous from M = 2 on; r = 0.3 stays finite at M = 2
    bounds = {(r, M): value for r, M, value in record.config["xi_upper_bound"]}
    assert bounds[(0.7071067811865476, 2)] == "vacuous"
    assert isinstance(bounds[(0.7071067811865476, 1)], float)
    assert isinstance(bounds[(0.3, 2)], float)
    # the CSV carries rows only, so it does not change
    main(["xi-scaling", *sweep, "--out", str(csv_a)])
    main(["xi-scaling", *sweep, "--out", str(csv_b)])
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert [row for row in read_records(csv_a, "csv")] == record.rows


def test_package_exports_are_the_layer_all_lists():
    # ``ccnet`` re-exports exactly the public names of its layers, so an
    # export removed from a layer cannot linger at the package level
    from ccnet import lyapunov, model, records, spectral, transfer

    layers = (model, transfer, lyapunov, spectral, records)
    exported = {
        name
        for name, value in vars(ccnet).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == set().union(*(module.__all__ for module in layers))


def test_readme_command_lines_parse(parser):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#")[0].split() for line in block.splitlines() if line.startswith("ccnet ")]
    assert len(lines) == 9
    for argv in lines:
        assert _parse_exit(parser, argv[1:]) == 0, argv

def test_dump_operator_round_trip(tmp_path):
    out = tmp_path / "op.csv"
    assert (
        main(
            ["dump", "--what", "operator", "--r", "0.6", "--M", "1", "--L", "1",
             "--seeds", "3", "--out", str(out)]
        )
        == 0
    )
    from ccnet import ModelParams, build_cylinder_operator, sample_phase_field

    op = build_cylinder_operator(ModelParams.from_r(0.6), sample_phase_field(3, 1, 1), 1, 1)
    dense = np.zeros((op.dim, op.dim), dtype=complex)
    for line in out.read_text().splitlines()[1:]:
        i, j, re, im = line.split(",")
        dense[int(i), int(j)] = float(re) + 1j * float(im)
    assert np.array_equal(dense, op.matrix.toarray())


def test_workers_parallel_matches_serial(tmp_path):
    # two M values make two lockstep batches, so the pool really runs both
    base = ["lyapunov", "--r", "0.6,0.7", "--M", "1,2", "--steps", "2000", "--seeds", "1,2"]
    a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
    assert main(base + ["--workers", "1", "--out", str(a)]) == 0
    assert main(base + ["--workers", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_workers_split_one_m_over_the_pool(tmp_path, monkeypatch):
    # one M is one (M, steps) group; --workers 2 splits it into two batches
    tasks = []

    class CountingPool(cli.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            batches = list(iterables[0])
            tasks.append(len(batches))
            return super().map(fn, batches, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    base = ["lyapunov", "--r", "0.6,0.7", "--M", "1", "--steps", "2000", "--seeds", "1,2"]
    a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
    assert main(base + ["--workers", "1", "--out", str(a)]) == 0
    assert tasks == []
    assert main(base + ["--workers", "2", "--out", str(b)]) == 0
    assert tasks == [2]
    assert a.read_bytes() == b.read_bytes()
