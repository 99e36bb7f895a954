#!/usr/bin/env python3
"""trifix benchmark: the paper's family sweep (cold and warm cache) and a
deep single-p generate, timed end to end through the real CLI, plus a
separate traced pass that reports per-layer spans and counts.

Run from the repository root (stdlib only, nothing to build):

    python3 bench/run.py --workload sweep_warm --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --smoke --seconds 1     # quick self-check

--trace 0 runs `python -m trifix.cli ...` as a child process, one at a time,
for --seconds, checks every output and reports the end-to-end metrics.  A
fixed reference computation (bench/reference.py) runs before and after every
invocation, and times are reported relative to it, because the speed of a
shared host swings more than the bounds allow.
--trace 1 calls trifix.cli.main(argv) in this process, alternating untraced
and traced passes, and reports the per-layer metrics (see bench/METRICS.md).
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The run context and every sample go to .bench_out/.

The seed only permutes the --p-list order of the sweeps; every check is
order-independent and generate_deep does not depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = Path(".bench_work")
OUT_DIR = Path(".bench_out")
REFERENCE = BENCH_DIR / "reference.py"
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))

WORKLOADS = ("sweep_cold", "sweep_warm", "generate_deep")
FAMILY = (3, 5, 7, 11, 41, 97, 199)
GENERATE_P = 199
# Term counts: the paper's N = 10^4 sweep and a generate three times as deep,
# and a tiny size that exercises the harness in seconds.
SIZES = {"full": {"sweep": 10_000, "generate": 30_000},
         "smoke": {"sweep": 300, "generate": 3_000}}

MIN_INVOCATIONS = 3      # timed CLI invocations per run, even past --seconds
SETUP_REPEATS = {"sweep_warm": 5, "sweep_cold": 10, "generate_deep": 10}
CHILD_TIMEOUT_S = 120

E2E_UNITS = {"rel_wall": "x", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class Case:
    """One invocation: CLI argv, where its outputs go, and their check."""

    argv: list[str]
    stdout: Path
    export_dir: Path | None
    check: Callable[[], list[str]]

    def output_bytes(self) -> int:
        files = [self.stdout]
        if self.export_dir is not None:
            files += sorted(self.export_dir.iterdir())
        return sum(f.stat().st_size for f in files)


class Workload:
    """Builds the inputs of one workload from the seed."""

    def __init__(self, name: str, seed: int, size: str, work: Path):
        self.name = name
        self.label = name if size == "full" else f"{name}.{size}"  # names output files
        self.work = work
        self.expected = EXPECTED[size]
        self.p_list = list(FAMILY)
        random.Random(seed).shuffle(self.p_list)
        self.sweep_terms = SIZES[size]["sweep"]
        self.generate_terms = SIZES[size]["generate"]
        self.warm_cache: Path | None = None
        self._made = 0

    @property
    def terms(self) -> int:
        """Sequence terms one invocation generates or loads (N + 1 per p)."""
        if self.name == "generate_deep":
            return self.generate_terms
        return len(self.p_list) * (self.sweep_terms + 1)

    def fresh_dir(self) -> Path:
        self._made += 1
        path = self.work / f"d{self._made}"
        path.mkdir()
        return path

    def sweep_argv(self, cache: Path) -> list[str]:
        return ["sweep", "--p-list", ",".join(map(str, self.p_list)),
                "--terms", str(self.sweep_terms), "--jobs", "1", "--cache", str(cache)]

    def case(self) -> Case:
        inv = self.fresh_dir()
        stdout = inv / "stdout.txt"
        if self.name == "generate_deep":
            argv = ["generate", "--p", str(GENERATE_P), "--terms", str(self.generate_terms),
                    "--format", "table"]
            digest = self.expected["generate_sha256"]
            return Case(argv, stdout, None, lambda: checks.check_generate(
                stdout, GENERATE_P, self.generate_terms, digest))
        cache = self.warm_cache if self.name == "sweep_warm" else inv / "cache"
        if not cache.exists():
            cache.mkdir()
        export = inv / "export"
        argv = self.sweep_argv(cache) + ["--export-dir", str(export)]
        return Case(argv, stdout, export, lambda: checks.check_sweep(
            export, self.p_list, self.expected["sweep"]))


# ---------------------------------------------------------------------------
# Child processes


def run_cli(argv: list[str], stdout: Path) -> tuple[float, float, int]:
    """Run `python -m trifix.cli argv` from the checkout's src/."""
    return run_child(cli_argv(argv), stdout)


def run_child(command: list[str], stdout: Path) -> tuple[float, float, int]:
    """Run one child with stdout to a file.  Returns (wall seconds, peak RSS
    in MiB, exit code)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TRIFIX_CACHE_DIR", None)
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    return wall, usage.ru_maxrss / 1024, proc.returncode


class Tally:
    """Invocations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems += [f"{what}: {p}" for p in problems[:3]]


def fill_cache(wl: Workload, tally: Tally) -> tuple[float, list[str]]:
    """Fill a fresh cache with a cold sweep; it becomes the warm cache."""
    cache = wl.fresh_dir()
    argv = wl.sweep_argv(cache)
    wall, _, code = run_cli(argv, cache.parent / f"{cache.name}.stdout")
    cached = len(list((cache / "standard").glob("*.bfile.txt"))) if code == 0 else 0
    problems = [] if code == 0 else [f"exit code {code}"]
    if code == 0 and cached != len(wl.p_list):
        problems.append(f"cache holds {cached} runs, expected {len(wl.p_list)}")
    tally.record("cache fill", problems)
    if wl.warm_cache is not None:
        shutil.rmtree(wl.warm_cache)
    wl.warm_cache = cache
    return wall, argv


def reference(wl: Workload, tally: Tally) -> float:
    """Wall seconds of one run of the fixed reference computation."""
    out = wl.work / "reference.txt"
    wall, _, code = run_child([sys.executable, str(REFERENCE)], out)
    got = out.read_text(encoding="utf-8").strip() if code == 0 else f"exit code {code}"
    want = EXPECTED["reference"]
    tally.record("reference", [] if got == want else [f"reference printed {got!r}, expected {want!r}"])
    return wall


def startup_probe(wl: Workload, tally: Tally) -> tuple[float, list[str]]:
    argv = ["--version"]
    out = wl.work / "version.txt"
    wall, _, code = run_cli(argv, out)
    ok = code == 0 and out.read_text(encoding="utf-8").startswith("trifix ")
    tally.record("start-up probe", [] if ok else [f"exit code {code}"])
    return wall, argv


def measure_end_to_end(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setup = fill_cache if wl.name == "sweep_warm" else startup_probe
    setup_walls = []
    for _ in range(SETUP_REPEATS[wl.name]):
        wall, setup_argv = setup(wl, tally)
        setup_walls.append(wall)

    # The reference runs before the first invocation and after every one;
    # each invocation is divided by the mean of the two runs around it.
    walls, refs, rss, costs = [], [reference(wl, tally)], [], []
    argv = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        case = wl.case()
        wall, peak, code = run_cli(case.argv, case.stdout)
        tally.record(f"invocation {len(walls) + 1}",
                     case.check() if code == 0 else [f"exit code {code}"])
        shutil.rmtree(case.stdout.parent)
        refs.append(reference(wl, tally))
        argv = argv or case.argv
        walls.append(wall)
        rss.append(peak)
        costs.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_INVOCATIONS and elapsed + statistics.median(costs) > seconds:
            break

    ratios = [2 * wall / (before + after) for wall, before, after in zip(walls, refs, refs[1:])]
    metrics = {
        "rel_wall": statistics.median(ratios),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup_walls),
    }
    samples = {"argv": cli_argv(argv), "setup_argv": cli_argv(setup_argv),
               "wall_s": walls, "reference_s": refs, "rel_wall": ratios,
               "peak_rss_mb": rss, "setup_s": setup_walls}
    return metrics, samples


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "trifix.cli", *argv]


# ---------------------------------------------------------------------------
# Traced pass


def import_trifix():
    sys.path.insert(0, str(SRC))
    import trifix.cli
    import trifix.store  # noqa: F401  (imported lazily by sweep; wrap it up front)

    if not Path(trifix.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"trifix imported from {trifix.__file__}, not from {SRC}")
    return trifix.cli


def in_process(cli, case: Case, tracer: tracing.Tracer | None) -> tuple[float, list[str]]:
    """One in-process `trifix.cli.main(argv)` call, stdout and stderr to files."""
    with open(case.stdout, "w", encoding="utf-8") as out, \
            open(case.stdout.with_suffix(".err"), "w", encoding="utf-8") as err, \
            redirect_stdout(out), redirect_stderr(err), \
            (tracing.installed(tracer) if tracer else nullcontext()):
        start = time.perf_counter()
        try:
            code = cli.main(case.argv)
        except Exception as exc:  # a crash is a failed pass, not a lost run
            code = f"none, raised {exc!r}"
        wall = time.perf_counter() - start
    return wall, case.check() if code == 0 else [f"exit code {code}"]


def measure_layers(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    cli = import_trifix()
    if wl.name == "sweep_warm":
        fill_cache(wl, tally)
    plain_walls, traced_walls, passes = [], [], []
    tracer = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        case = wl.case()
        wall, problems = in_process(cli, case, None)
        tally.record(f"untraced pass {len(plain_walls) + 1}", problems)
        shutil.rmtree(case.stdout.parent)
        plain_walls.append(wall)

        case = wl.case()
        tracer = tracing.Tracer()
        wall, problems = in_process(cli, case, tracer)
        layer = tracer.layer_metrics()
        layer["cli.output.bytes"] = case.output_bytes()
        shutil.rmtree(case.stdout.parent)
        if passes:
            problems += [f"{name} = {layer[name]}, first pass {passes[0][name]}"
                         for name in tracing.COUNT_METRICS
                         if layer[name] != passes[0][name]]
        tally.record(f"traced pass {len(passes) + 1}", problems)
        traced_walls.append(wall)
        passes.append(layer)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - began) > seconds:
            break

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"{wl.label}.spans.tsv")
    metrics = tracing.median_metrics(passes)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    samples = {"argv": ["trifix.cli.main", *case.argv], "untraced_wall_s": plain_walls,
               "traced_wall_s": traced_walls, "passes": passes}
    return metrics, samples


# ---------------------------------------------------------------------------


def run_context(seed: int, workload: str, trace: int, size: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "trifix").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu_model = next((line.split(":", 1)[1].strip() for line in info
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "trace": trace, "size": size,
        "commit": commit, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Measure one workload and print its metrics; returns the result line."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    tally = Tally()
    try:
        wl = Workload(name, seed, size, work)
        measure = measure_layers if trace else measure_end_to_end
        metrics, samples = measure(wl, seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = tracing.LAYER_UNITS if trace else E2E_UNITS
    context = run_context(seed, name, trace, size)
    context["argv"] = samples["argv"]
    OUT_DIR.mkdir(exist_ok=True)
    record = {"context": context, "metrics": metrics, "samples": samples,
              "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems}
    (OUT_DIR / f"{wl.label}.trace{trace}.seed{seed}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {name} (seed {seed}, {size}, trace {trace})")
    print(f"#   context {json.dumps(context)}")
    for problem in tally.problems:
        print(f"#   FAILED {problem}")
    print(f"#   failed_ratio = {tally.failed / tally.attempted:.4f} ratio "
          f"({tally.failed} of {tally.attempted} invocations)")
    for metric, unit in units.items():
        value = metrics[metric]
        print(f"#   {metric} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    if not trace:
        # Raw wall time follows the host's speed; it is printed, not gated.
        wall_s = statistics.median(samples["wall_s"])
        print(f"#   wall_s = {wall_s:.6g} s, terms_per_s = {wl.terms / wall_s:.6g} 1/s, "
              f"reference_s = {statistics.median(samples['reference_s']):.6g} s (medians)")
        for label in ("wall_s", "rel_wall"):
            values = sorted(samples[label])
            n = len(values)
            # The highest percentile with at least ten samples beyond it, if any.
            tail = f", p{100 * (n - 10) // n} {values[n - 11]:.4f}" if n > 10 else ""
            print(f"#   {label} over {n} invocations: min {values[0]:.4f}{tail}, "
                  f"max {values[-1]:.4f}")
        print(f"#   setup_s over {len(samples['setup_s'])}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny N (300 / 3000) so the harness runs in seconds")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "trifix" / "cli.py").is_file():
        print(f"error: no trifix source at {SRC}; run from a trifix checkout", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    size = "smoke" if args.smoke else "full"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace, size)
               for name in names}
    if args.workload == "all":
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
