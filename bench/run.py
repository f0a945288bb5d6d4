"""Benchmark of the satfeas command line.

    python3 bench/run.py --workload {fixtures,universe,trades} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout. The benchmark writes seeded inputs
under ``.bench_work/``, then drives the CLI from outside: one fresh
``python -m satfeas.cli`` process per invocation, one at a time (a closed
loop with a single client). Every output is checked. With ``--trace 0`` it
prints the end-to-end metrics, in reference-speed time (see
``end_to_end``); with ``--trace 1`` it runs the same
invocations in one process under tracing hooks and prints the per-layer
metrics. The last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

SRC = Path("src")
WORK = Path(".bench_work")
SETUP_SPACING_S = 2.0

#: A fixed pure-Python task that never imports satfeas. It runs between
#: timed children so that every time can be stated at a reference speed.
CALIBRATION = (
    "rows = [f'id{i},{i * 1.5!r},true' for i in range(80000)]\n"
    "parsed = [(a, float(b), c == 'true') for a, b, c in (r.split(',') for r in rows)]\n"
    "index = {a: (b, c) for a, b, c in parsed}\n"
    "text = ','.join(repr(b) for b, _ in index.values())\n"
)
#: Wall time the calibration task is taken to have at reference speed.
CALIBRATION_REFERENCE_S = 0.25
#: The calibration runs before a timed child once this long has passed since
#: the last one. A child's speed is judged by the calibrations within
#: CALIBRATION_WINDOW_S of its midpoint: enough of them to smooth each one's
#: noise, over a span short next to the tens of seconds over which the
#: machine's speed drifts.
CALIBRATION_SPACING_S = 1.0
CALIBRATION_WINDOW_S = 5.0
MIN_ROUNDS = 2  # the second round is what checks determinism
CHILD_TIMEOUT_S = 150.0
COMMAND_METRICS = {"bounds": "bounds_ms", "design": "design_ms", "check": "check_ms",
                   "filter-rebalance": "filter_ms", "replay": "replay_ms"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.resolve())
    return env


def spawn(argv: list[str], work: Path, env: dict[str, str]) -> tuple[float, int, float, bytes]:
    """Run one child to completion: (wall seconds, exit code, peak RSS MB, stdout).

    stdout goes to a file rather than a pipe, so the parent never has to
    drain it while the child runs and ``os.wait4`` can return the child's
    own resource usage.
    """
    out_path, err_path = work / "stdout", work / "stderr"
    with out_path.open("wb") as out_fh, err_path.open("wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out_fh, stderr=err_fh, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_bytes()


def check_checkout() -> None:
    for path in (SRC / "satfeas" / "cli.py", workloads.FIXTURES, workloads.GOLDEN):
        if not path.exists():
            raise SystemExit(f"bench: {path} not found; run from the root of a "
                             f"satfeas source checkout")
    if str(SRC.resolve()) not in sys.path:
        sys.path.insert(0, str(SRC.resolve()))


def _checked_spawn(argv: list[str], work: Path, env: dict[str, str]) -> float:
    """Wall time of a child that must exit 0 and print nothing."""
    wall, code, _rss, out = spawn(argv, work, env)
    if code != 0 or out:
        raise SystemExit(f"bench: {argv[1:3]} failed (exit {code}): "
                         f"{(work / 'stderr').read_text(errors='replace')}")
    return wall


def _speed_near(calibrations: list[tuple[float, float]], mid: float) -> float:
    """Median calibration wall time within CALIBRATION_WINDOW_S of ``mid``,
    or of the two calibrations nearest to it."""
    near = [w for t, w in calibrations if abs(t - mid) <= CALIBRATION_WINDOW_S]
    if len(near) < 2:
        near = [w for _t, w in sorted(calibrations, key=lambda c: abs(c[0] - mid))[:2]]
    return statistics.median(near)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(plan: workloads.Plan, seconds: float, seed: int, work: Path,
               verifier: checks.Verifier) -> dict[str, tuple[float, str, int]]:
    """Time every invocation of the plan, round after round, for ``seconds``.

    The machine's speed can drift by tens of percent within a minute when
    other tenants load the host, and it moves every child alike. So the
    CALIBRATION task runs between the timed children (CLI invocations, and
    bare ``import satfeas.cli`` runs for set-up time), at least every
    CALIBRATION_SPACING_S, and at both ends of the run. Each child's wall
    time is multiplied by CALIBRATION_REFERENCE_S over the calibration time
    measured around it: the time it would take on a machine where the
    calibration task takes exactly CALIBRATION_REFERENCE_S.
    """
    env = child_env()
    calibrate = [sys.executable, "-c", CALIBRATION]
    import_cli = [sys.executable, "-c", "import satfeas.cli"]
    _checked_spawn(import_cli, work, env)  # compiles bytecode if none is cached yet
    peak_rss = 0.0
    for inv in plan.prepare:
        _wall, code, rss, out = spawn([sys.executable, "-m", "satfeas.cli", *inv.argv],
                                      work, env)
        peak_rss = max(peak_rss, rss)
        if verifier.verify(inv, code, out) and inv.after is not None:
            inv.after(out)

    calibrations: list[tuple[float, float]] = []  # (mid-time, wall)
    timed: list[tuple[str, float, float]] = []  # (command or "setup", mid-time, wall)

    def calibrate_now() -> None:
        wall = _checked_spawn(calibrate, work, env)
        calibrations.append((time.perf_counter() - wall / 2, wall))

    def run_timed(key: str, argv: list[str]) -> tuple[float, int, float, bytes]:
        if time.perf_counter() - calibrations[-1][0] >= CALIBRATION_SPACING_S:
            calibrate_now()
        result = spawn(argv, work, env)
        timed.append((key, time.perf_counter() - result[0] / 2, result[0]))
        return result

    # Set-up samples are spread over the run, every SETUP_SPACING_S between
    # invocations, so they see the same machine as the invocations do.
    calibrate_now()
    order = random.Random(f"satfeas-bench/order/{seed}")
    rows = 0
    rounds = 0
    next_setup = time.perf_counter()
    deadline = next_setup + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        invocations = list(plan.round)
        order.shuffle(invocations)
        for inv in invocations:
            now = time.perf_counter()
            if rounds >= MIN_ROUNDS and now >= deadline:
                break
            if now >= next_setup:
                _wall, code, _rss, out = run_timed("setup", import_cli)
                if code != 0 or out:
                    raise SystemExit(f"bench: importing satfeas.cli failed (exit {code})")
                next_setup = now + SETUP_SPACING_S
            _wall, code, rss, out = run_timed(
                inv.command, [sys.executable, "-m", "satfeas.cli", *inv.argv])
            verifier.verify(inv, code, out)
            peak_rss = max(peak_rss, rss)
            rows += inv.rows
        rounds += 1
    calibrate_now()

    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for key, mid, wall in timed:
        speed = CALIBRATION_REFERENCE_S / _speed_near(calibrations, mid)
        samples.setdefault(key, []).append(wall * speed)
        raw.setdefault(key, []).append(wall)
    print(f"calibration task: median {statistics.median(w for _t, w in calibrations) * 1e3:.1f}"
          f" ms over {len(calibrations)} runs (reference {CALIBRATION_REFERENCE_S * 1e3:.0f} ms);"
          f" raw median wall ms: " + ", ".join(
              f"{key} {statistics.median(ts) * 1e3:.1f}" for key, ts in raw.items()))

    setup = samples.pop("setup")
    every = [t for ts in samples.values() for t in ts]
    metrics = {"setup_s": (statistics.median(setup), "s", len(setup))}
    for command, name in COMMAND_METRICS.items():
        ts = samples[command]
        metrics[name] = (statistics.median(ts) * 1e3, "ms", len(ts))
    metrics["cli_ms_p90"] = (p90(every) * 1e3, "ms", len(every))
    metrics["rows_per_s"] = (rows / sum(every), "rows/s", len(every))
    metrics["peak_rss_mb"] = (peak_rss, "MB", verifier.attempted)
    metrics["ok_ratio"] = ((verifier.attempted - verifier.failed) / verifier.attempted,
                           "ratio", verifier.attempted)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> tuple[dict[str, tuple[float, str, int]], checks.Verifier]:
    """One benchmark run: {metric: (value, unit, samples)} and the verdicts."""
    check_checkout()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    verifier = checks.Verifier()
    try:
        plan = workloads.build(workload, seed, work, sizes)
        if trace:
            import tracing

            metrics = tracing.per_layer(plan, seconds, verifier, child_env())
        else:
            metrics = end_to_end(plan, seconds, seed, work, verifier)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    return metrics, verifier


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metrics, verifier = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}: {verifier.attempted} invocations, "
          f"{verifier.failed} failed")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<8} (n={n})")
    print(json.dumps({
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
