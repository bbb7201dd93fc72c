"""entmac's benchmark: end-to-end CLI runs, traced layers and isolated rates.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. Every run first builds the package
with the checkout's own setup.py in a throwaway copy under
.perfbench-work/, so it measures whichever kernel that build produces.

--trace 0  runs the workload's `entmac` command line as one closed-loop
           client, one child process after another, for --seconds, and
           builds the package nine times at points spread evenly over that
           time (each build followed by the first, cold `import
           entmac.cli`; build time does not count towards --seconds).
           Reports the median wall time, CPU time and peak RSS of a CLI
           run and the median set-up time.
--trace 1  builds once, runs the workload in-process untraced and then
           traced (spans at every module boundary), times `import
           entmac.cli` in fresh interpreters, and measures isolated
           per-module rates. Reports per-layer metrics.

The times of --trace 0 are given in reference seconds. The speed of a
shared host's CPUs drifts, by as much as a factor of two over minutes on a
two-vCPU virtual machine, and it moves every raw time with it. So a fixed
pure-Python loop that runs no entmac code is timed on each CPU just before
and just after every build and every CLI run, and each raw time is scaled
by REFERENCE_S over the mean of those two loop times: a time in reference
seconds is the time the same work would take on a host that runs the loop
in REFERENCE_S. CPU times are scaled by the loop's CPU time in the same
way. The raw times are printed and kept in the result file.

Every output is checked (exit status, empty stderr, the workload's own
checks, byte-identical stdout; see workloads.py). A human-readable table
of every metric with its unit goes to stdout first; the last line is one
JSON object with keys correct, attempted, failed and metrics. A result
file with the run's provenance and raw samples, and in trace mode the
spans, are written under .perfbench-work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, judge, sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())

#: builds per --trace 0 run, spread over the measured time; setup_s is their median
SETUPS = 9

#: iterations of the reference loop per CPU, about 0.1 s on a 2.0 GHz Xeon vCPU
REFERENCE_ITERATIONS = 150_000

#: the reference loop's time on the reference host; see the module docstring
REFERENCE_S = 0.1

#: a CLI run that takes longer than this counts as failed
RUN_TIMEOUT_S = 150.0

#: untraced CLI runs per measurement, at the least
MIN_RUNS = 3

#: fresh interpreters whose `import entmac.cli` is timed; cli.import_s is the median
IMPORT_REPEATS = 5

#: written to stderr just before the timed import, so -X importtime lines
#: of the interpreter's own start-up can be told apart
IMPORT_MARK = "perfbench: import entmac.cli"

#: an -X importtime line of an import started at the top level: its cumulative microseconds
TOP_IMPORT = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| (?! )")

MASK64 = (1 << 64) - 1

UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
UNITS.update(fail_rate="ratio", raw_wall_s="s", raw_cpu_s="s", raw_setup_s="s", reference_s="s")


def child_env(lib: Path) -> dict:
    """Environment of every child: the build under test, bytecode in WORK."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "ENTMAC_BACKEND")}
    env["PYTHONPATH"] = str(lib)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def run_checked(cmd: list[str], env: dict, cwd: Path, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def setup_once(scratch: Path, index: int) -> tuple[Path, float]:
    """Copy the sources, build them with setup.py and import the CLI once, cold.

    Returns the build's library directory and the seconds it all took.
    """
    copy = scratch / f"src-{index}"
    lib = copy / "build" / "lib"
    env = child_env(lib)
    t0 = time.perf_counter()
    shutil.copytree(ROOT, copy, ignore=lambda d, names: [
        n for n in names if Path(d) == ROOT and (n == HERE.name or n.startswith("."))])
    run_checked([sys.executable, "setup.py", "-q", "build", "--build-base", "build",
                 "--build-lib", str(lib)], env, copy, 600)
    run_checked([sys.executable, "-c", "import entmac.cli"], env, scratch, 120)
    return lib, time.perf_counter() - t0


def cli_import_s(lib: Path, cwd: Path) -> float:
    """Seconds a fresh interpreter spends in `import entmac.cli`, bytecode warm.

    This is the import every CLI run pays. It sums the cumulative
    -X importtime of each top-level import after the mark, so every module
    entmac.cli pulls in counts and the interpreter's start-up does not.
    """
    code = f"import sys; sys.stderr.write({IMPORT_MARK!r} + '\\n'); import entmac.cli"
    samples = []
    for _ in range(IMPORT_REPEATS):
        err = run_checked([sys.executable, "-X", "importtime", "-c", code], child_env(lib), cwd,
                          60).stderr
        after = err.split(IMPORT_MARK + "\n", 1)[1]
        samples.append(sum(int(m[1]) for m in map(TOP_IMPORT.match, after.splitlines()) if m)
                       / 1e6)
    return statistics.median(samples)


def run_child(lib: Path, cwd: Path, *args: str, timeout: float = 170) -> dict:
    proc = run_checked([sys.executable, str(HERE / "child.py"), *args], child_env(lib), cwd,
                       timeout)
    return json.loads(proc.stdout.splitlines()[-1])


def cli_run(lib: Path, cwd: Path, argv: list[str]) -> dict:
    """One `entmac` run as a child process: output, wall, CPU and peak RSS."""
    out_path, err_path = cwd / "stdout", cwd / "stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "entmac", *argv], env=child_env(lib),
                                cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "status": proc.returncode,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def pinned_sha(w, seed: int) -> str | None:
    """The sha256 of the workload's stdout, where expected.json pins it."""
    expected = EXPECTED[w.name]
    if seed == expected["seed"] and w.slots == expected["slots"]:
        return expected["sha256"]
    return None


def reference_loop() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python loop, run once on each CPU.

    The loop does what entmac's inner loops do (64-bit integer mixing,
    complex products, dict stores) but runs no entmac code, so no change to
    the program moves it; only the host's speed does. The CPUs of a virtual
    machine can be slowed by different neighbours at the same moment, and a
    CLI run may land on either, so the loop runs on each in turn.
    """
    allowed = os.sched_getaffinity(0)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            state, amp, table = 1, complex(0.6, 0.8), {}
            for _ in range(REFERENCE_ITERATIONS):
                state = (state + 0x9E3779B97F4A7C15) & MASK64
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
                amp = amp * complex(0.8, 0.6) if z & 1 else amp.conjugate()
                table[z & 255] = amp
    finally:
        os.sched_setaffinity(0, allowed)
    return ((time.perf_counter() - t0) / len(allowed),
            (time.process_time() - c0) / len(allowed))


def measure_untraced(w, scratch: Path, seed: int, seconds: float) -> tuple[Path, dict, dict]:
    """Closed-loop CLI runs for `seconds`, with SETUPS builds spread among them.

    The first build is the one the CLI runs use. Every build and run sits
    between two reference loops, whose mean scales its times to reference
    seconds. Returns the build's library directory, the metrics and details.
    """
    refs = [reference_loop()]
    setups, runs, lib = [], [], None
    t0 = time.perf_counter()

    def run_time() -> float:  # seconds since t0 not spent on builds
        return time.perf_counter() - t0 - sum(s["wall_s"] for s in setups)

    while len(setups) < SETUPS or len(runs) < MIN_RUNS or run_time() < seconds:
        if len(setups) < SETUPS and run_time() >= len(setups) * seconds / SETUPS:
            built, wall = setup_once(scratch, len(setups))
            lib = lib or built
            setups.append({"wall_s": wall, "ref": len(refs) - 1})
        else:
            run = cli_run(lib, scratch, w.argv(seed))
            run["ref"] = len(refs) - 1
            runs.append(run)
        refs.append(reference_loop())

    def scaled(sample: dict, name: str) -> float:
        col = 1 if name == "cpu_s" else 0  # the loop's CPU time scales CPU times
        ref = (refs[sample["ref"]][col] + refs[sample["ref"] + 1][col]) / 2
        return sample[name] * REFERENCE_S / ref

    pinned = pinned_sha(w, seed)
    verdicts, std_errors = judge(w, [(r["status"], r["stdout"], r["stderr"]) for r in runs],
                                 w.slots, seed, pinned)
    metrics = {
        "wall_s": statistics.median(scaled(r, "wall_s") for r in runs),
        "cpu_s": statistics.median(scaled(r, "cpu_s") for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(scaled(s, "wall_s") for s in setups),
        "raw_wall_s": statistics.median(r["wall_s"] for r in runs),
        "raw_cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "raw_setup_s": statistics.median(s["wall_s"] for s in setups),
        "reference_s": statistics.median(wall for wall, _ in refs),
    }
    detail = {
        "runs": len(runs),
        "failures": [v for v in verdicts if v is not None],
        "samples": [{**{k: r[k] for k in ("status", "wall_s", "cpu_s", "peak_rss_mb", "ref")},
                     "scaled_wall_s": scaled(r, "wall_s"), "scaled_cpu_s": scaled(r, "cpu_s")}
                    for r in runs],
        "setup_samples": [{**s, "scaled_wall_s": scaled(s, "wall_s")} for s in setups],
        "reference_samples": refs,
        "stdout_sha256": sorted({sha256(r["stdout"]) for r in runs}),
        "pinned_sha256": pinned,
        "std_errors": std_errors,
    }
    return lib, metrics, {"attempted": len(runs), "failed": len(detail["failures"]), **detail}


def measure_traced(w, lib: Path, cwd: Path, seed: int, seconds: float, spans: Path):
    trace = run_child(lib, cwd, "trace", "--workload", w.name, "--seed", str(seed),
                      "--spans", str(spans))
    verdicts, std_errors = judge(w, [tuple(r) for r in trace["runs"]], w.slots, seed,
                                 pinned_sha(w, seed))
    problems = []
    if trace["leftover_wrappers"]:
        problems.append(f"wrappers left installed: {trace['leftover_wrappers']}")
    if abs(trace["self_sum_s"] - trace["root_s"]) > 1e-6 * trace["root_s"]:
        problems.append(f"self times sum to {trace['self_sum_s']}, root is {trace['root_s']}")
    rates = run_child(lib, cwd, "rates", "--seed", str(seed), "--seconds", str(seconds))
    metrics = {**trace["metrics"], "cli.import_s": cli_import_s(lib, cwd), **rates["rates"]}
    detail = {"trace": {k: v for k, v in trace.items() if k != "runs"},
              "rates_absent": rates["absent"], "std_errors": std_errors,
              "failures": [v for v in verdicts if v is not None], "problems": problems}
    return metrics, {"attempted": len(verdicts), "failed": len(detail["failures"]), **detail}


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, value in metrics.items():
        unit = UNITS.get(name, "1/s")  # the compiled kernel's rates
        print(f"  {name:<36} {value:>16.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    w = WORKLOADS[args.workload]

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    stamp = (f"{w.name}-seed{args.seed}-trace{args.trace}-"
             f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace == 0:
            lib, metrics, detail = measure_untraced(w, scratch, args.seed, args.seconds)
            metrics["fail_rate"] = detail["failed"] / detail["attempted"]
        else:
            lib = setup_once(scratch, 0)[0]
            spans = WORK / "results" / f"{stamp}-spans.json"
            metrics, detail = measure_traced(w, lib, scratch, args.seed, args.seconds, spans)
            detail["spans_file"] = str(spans.relative_to(ROOT))
        probe = run_child(lib, scratch, "probe", "--workload", w.name, "--seed", str(args.seed))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(WORK / "pycache" / str(scratch).lstrip("/"), ignore_errors=True)

    problems = list(detail.pop("problems", []))
    if not probe["parity_ok"]:
        problems.append(f"compiled tallies differ from pure: {probe['parity']}")
    if probe["missing_boundaries"]:
        problems.append(f"traced boundaries missing from the build: {probe['missing_boundaries']}")
    if probe["probe_status"] != 0:
        problems.append(f"probe run exited {probe['probe_status']}")
    if not probe["entmac_file"].startswith(str(scratch)):
        problems.append(f"imported entmac from {probe['entmac_file']}, not the build")
    correct = detail["failed"] == 0 and not problems
    wanted = [m["name"] for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in wanted},
    }
    record = {
        "workload": w.name,
        "argv": ["entmac", *w.argv(args.seed)],
        "slots": w.slots,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "backend": {k: probe[k] for k in ("backend_name", "compiled_imported",
                                          "compiled_import_error", "effective_backend",
                                          "parity")},
        "problems": problems,
        "result": result,
        "all_metrics": metrics,
        "detail": detail,
    }
    (WORK / "results" / f"{stamp}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {w.name}: entmac {' '.join(w.argv(args.seed))}")
    print(f"backend {probe['backend_name']}, per protocol {probe['effective_backend']}; "
          f"compiled kernel " + ("imported" if probe["compiled_imported"]
                                 else f"absent ({probe['compiled_import_error']})"))
    if args.trace:
        trace = detail["trace"]
        print(f"self time per layer [under protocol], root span {trace['root_s']:.4f} s:")
        for layer, s in trace["self_s"].items():
            print(f"  {layer:<24} {s:10.4f} s {100 * s / trace['root_s']:5.1f}%")
        for name, why in detail["rates_absent"].items():
            print(f"{name}: no rows, {why}")
    else:
        print(f"{detail['runs']} closed-loop runs, {detail['failed']} failed")
    for failure in detail.get("failures", []) + problems:
        print(f"FAILED: {failure}")
    print_table("metrics:", metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
