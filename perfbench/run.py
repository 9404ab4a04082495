"""Benchmark of the ccnet command line.

Run from the repository root:

    python3 perfbench/run.py --workload det-window --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload.  It times set-up in fresh interpreters, then
calls ``ccnet.cli.main`` in-process, in whole rounds of the same make-up,
until the run length is used.  It checks the outputs against values
computed here and prints, as its last stdout line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the environment block and the raw round times.
``--smoke`` runs every workload at a tiny size and checks that every metric
named in BENCHMARK.json is emitted.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BLAS_THREADS = 1  # fixed, so CSV bytes and timings do not depend on the thread count
SETUP_SPAWNS = 5
ROUND_SEEDS = 1000  # round seeds per benchmark seed; far more rounds than a run makes
# |traced wall - sum of layer self times| allowed per traced round
SLACK_SHARE, SLACK_S = 0.01, 0.002


def import_ccnet():
    """Import ccnet from this checkout's sources, never from elsewhere."""
    if not (SRC / "ccnet" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no ccnet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ccnet.cli

    if Path(ccnet.cli.__file__).resolve().parent != (SRC / "ccnet").resolve():
        raise SystemExit(f"perfbench: imported ccnet from {ccnet.cli.__file__}, not {SRC}")


def openblas_block() -> dict:
    """Version string and thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    symbols = [
        (f"{prefix}get_config{suffix}", f"{prefix}get_num_threads{suffix}")
        for prefix in ("scipy_openblas_", "openblas_")
        for suffix in ("64_", "")
    ]
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        found[Path(path).name] = {}
        for config_name, threads_name in symbols:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                config = getattr(lib, config_name)
                config.restype = ctypes.c_char_p
                found[Path(path).name] = {
                    "config": config().decode().strip(),
                    "threads": getattr(lib, threads_name)(),
                }
                break
    return found


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_block(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": list(load_at_start),
    }


def measure_setup(spawns: int) -> float:
    """Median time from starting a fresh interpreter until ccnet is imported
    and its parser built.  One extra first spawn warms the file cache."""
    code = "import ccnet.cli as c; c.build_parser(); print('ready', flush=True)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(spawns + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
                raise RuntimeError("set-up probe failed")
        times.append(elapsed)
    return statistics.median(times[1:])


def run_round(cli, argvs, workdir: Path, tracer=None):
    """Call ccnet.cli.main once per command line; returns (wall, exit codes, CSV bytes)."""
    wall, codes, outputs = 0.0, [], []
    for index, argv in enumerate(argvs):
        out = workdir / f"out{index}.csv"
        full = argv + ["--workers", "1", "--out", str(out)]
        if tracer is not None:
            tracer.request += 1
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(full)
        wall += time.perf_counter() - start
        codes.append(code)
        outputs.append(out.read_bytes())
    return wall, codes, outputs


def run_workload(workload, seed: int, seconds: float, trace: bool, size: str, spawns: int) -> tuple[dict, dict]:
    """Measure one workload; returns (details, result).

    Round r draws its inputs from round seed ``ROUND_SEEDS * seed + r``, so a
    run averages over several disorder draws.  With ``trace`` each round is
    run twice on the same inputs, plain and then traced, and the two outputs
    must agree byte for byte.
    """
    import ccnet.cli as cli
    from spans import Tracer, layer_metrics
    from workloads import parse_csv

    setup_s = None if trace else measure_setup(spawns)
    tracer = Tracer()
    walls, traced_walls, layer_rounds, unattributed = [], [], [], []
    outputs = []  # (round seed, exit codes, CSV bytes) of every round run
    problems = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        start = time.perf_counter()
        for r in range(ROUND_SEEDS):
            round_seed = ROUND_SEEDS * seed + r
            argvs = workload.invocations(round_seed, size)
            wall, codes, data = run_round(cli, argvs, Path(tmp))
            walls.append(wall)
            outputs.append((round_seed, codes, data))
            if trace:
                tracer.spans = []  # only the latest traced round is kept
                tracer.install()
                try:
                    traced_wall, traced_codes, traced_data = run_round(cli, argvs, Path(tmp), tracer)
                finally:
                    tracer.uninstall()
                if (traced_codes, traced_data) != (codes, data):
                    problems.append(f"round seed {round_seed}: traced output differs from untraced")
                outputs.append((round_seed, traced_codes, traced_data))
                traced_walls.append(traced_wall)
                layers = layer_metrics(tracer.spans)
                layer_rounds.append(layers)
                unattributed.append(
                    traced_wall - sum(value for name, (value, _) in layers.items() if name.endswith(".self_s"))
                )
            round_time = statistics.median(walls) + (statistics.median(traced_walls) if trace else 0.0)
            if time.perf_counter() - start + round_time > seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            Tracer.write_spans(tracer.spans, OUT / f"spans-{workload.name}.jsonl")

    attempted = failed = 0
    checked = set()  # an output already checked, such as a fixed-input window, is not checked again
    for round_seed, codes, data in outputs:
        for index, (code, raw) in enumerate(zip(codes, data)):
            rows = parse_csv(raw)
            attempted += len(rows)
            failed += sum(workload.failed_row(row) for row in rows)
            if (index, code, raw) not in checked:
                checked.add((index, code, raw))
                problems += workload.check(round_seed, size, index, rows, code)

    if trace:
        metrics = {
            name: {"value": statistics.median(layers[name][0] for layers in layer_rounds), "unit": unit}
            for name, (_, unit) in layer_rounds[0].items()
        }
        traced_wall = statistics.median(traced_walls)
        gap = statistics.median(unattributed)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(t - u for t, u in zip(traced_walls, walls)),
            "unit": "s",
        }
        metrics["trace.unattributed_s"] = {"value": gap, "unit": "s"}
        if abs(gap) > SLACK_SHARE * traced_wall + SLACK_S:
            problems.append(f"layer self times leave {gap:.4f} s of the traced {traced_wall:.4f} s unaccounted")
    else:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "throughput_per_s": {"value": workload.work_units(seed, size) / wall, "unit": "1/s"},
        }
    details = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "rounds": len(walls),
        "round_wall_s": walls,
        "traced_round_wall_s": traced_walls,
        "throughput_unit": workload.unit,
        "problems": problems,
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, result


def smoke(env: dict) -> int:
    """Every workload at its smoke size, untraced and traced; checks that
    every metric BENCHMARK.json names is emitted and every check passes."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    ok = set(names) == set(WORKLOADS)
    for name in names:
        for trace in (False, True):
            details, result = run_workload(WORKLOADS[name], 0, 0.0, trace, "smoke", spawns=1)
            emitted = set(result["metrics"])
            passed = result["correct"] and emitted == expected[trace]
            ok &= passed
            print(
                json.dumps(
                    {
                        "workload": name,
                        "trace": int(trace),
                        "passed": passed,
                        "missing": sorted(expected[trace] - emitted),
                        "unexpected": sorted(emitted - expected[trace]),
                        "problems": details["problems"],
                    }
                ),
                flush=True,
            )
    print(json.dumps({"smoke": ok, "env": env}))
    return 0 if ok else 1


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; check every metric is emitted")
    args = parser.parse_args(argv)
    if not args.smoke and (args.workload is None or args.seed is None or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required unless --smoke")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    import_ccnet()
    from workloads import WORKLOADS  # imports numpy and scipy.linalg

    if not args.smoke and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = environment(load_at_start)
    if args.smoke:
        return smoke(env)
    details, result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), "full", SETUP_SPAWNS
    )
    for problem in details["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(dict(details, env=env)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
