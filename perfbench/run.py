#!/usr/bin/env python3
"""Benchmark of the hgirr command line: time to a certified report and fuzz throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``. One
process runs one workload as a closed loop with a single caller: every call
goes through ``hgirr.cli.main`` in sequence with its output captured, and
whole passes over the workload's calls repeat while the next one is likely
to end within ``--seconds`` (always at least one). Every output is checked against
references the benchmark computes without the package, and against the
first pass's bytes.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (one untraced pass first, for the tracing overhead). Inputs,
results and spans are written under ``.perfbench/`` in the working tree.
"""

from __future__ import annotations

import argparse
import os
import sys


def _cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; numpy reads
    these variables when it is first imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


NPROC = _cap_threads()

import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Why each workload exists, and which layer it loads, is recorded in
# BENCHMARK.json. Sizes per workload: the full benchmark and the smoke test.
SIZES = {
    "analyze-uniform": {
        "full": [(3, 20_000, 200_000), (4, 5_000, 100_000)],
        "tiny": [(3, 40, 150), (4, 20, 120)],
    },
    "analyze-partite": {"full": [((150, 150, 150), 6_000)], "tiny": [((6, 6, 6), 60)]},
    "path-long": {"full": [100, 200, 250], "tiny": [4, 8, 12]},
    "verify-fuzz": {"full": 1_500, "tiny": 15},
}
VERIFY_ARGS = ["--r", "2,3,4", "--n", "4:12"]
WARMUP_VERIFY_COUNT = 10
# The warm-up inputs do not depend on --seed, so that every run's setup_s
# times the same work.
WARMUP_SEED = 0
# Set-up repeats at least SETUP_REPEATS times, and while SETUP_SECONDS last.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 120
SETUP_SECONDS = 4.0
# analyze runs at its default --tol; the shifted iteration stops when the
# bracket of rho + sigma (sigma = maximum degree) is this narrow, relatively.
ANALYZE_TOL = 1e-10
FLOAT_NOISE = 64 * float(np.finfo(np.float64).eps)

# The host is a few vCPUs of a shared machine whose speed drops by up to
# 1.6x for stretches of seconds to minutes, longer than a run, so raw pass
# times spread by up to 0.33 of their median over ten seeds. A fixed
# pure-Python loop of the benchmark's own, timed just before and just after
# each call, slows with the host. So each call's time is scaled by
# LOOP_NOMINAL_S over the mean loop time around it, and wall_s is the median
# scaled pass: seconds on a host that runs the loop in LOOP_NOMINAL_S, its
# full-speed time on a 2-vCPU Xeon VM. Over two sets of ten seeds this cut
# the spread of every workload's wall_s to at most 0.15 of the median.
LOOP_LENGTH = 100_000
LOOP_NOMINAL_S = 0.007

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "instances_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (for example, the package is missing)."""


@dataclass
class Call:
    label: str
    argv: list[str]
    instance: instances.Instance | None = None
    count: int = 1
    outputs: list[tuple[int | None, str]] = field(default_factory=list)


@dataclass
class Verdict:
    ok: bool
    ok_instances: int
    wrong: str | None = None


# ------------------------------------------------------------------ inputs

def make_inputs(workload: str, seed: int, scale: str, directory: Path) -> tuple[list[Call], Call]:
    """The timed calls of one pass and the untimed warm-up call, with their
    hgr text encoded for ``directory`` but not yet written."""
    rng, warm_rng = np.random.default_rng(seed), np.random.default_rng(WARMUP_SEED)
    sizes = SIZES[workload][scale]
    if workload == "verify-fuzz":
        timed = Call("verify", ["verify", *VERIFY_ARGS, "--count", str(sizes), "--seed", str(seed)], count=sizes)
        warm = Call("warmup", ["verify", *VERIFY_ARGS, "--count", str(WARMUP_VERIFY_COUNT),
                               "--seed", str(WARMUP_SEED)], count=WARMUP_VERIFY_COUNT)
        return [timed], warm
    if workload == "analyze-uniform":
        made = [instances.uniform(rng, f"uniform-r{r}", r, n, m) for r, n, m in sizes]
        warm = instances.uniform(warm_rng, "warmup", 3, 30, 100)
    elif workload == "analyze-partite":
        made = [instances.partite(rng, "partite", parts, m) for parts, m in sizes]
        warm = instances.partite(warm_rng, "warmup", (4, 4, 4), 30)
    else:
        made = [instances.loose_path(rng, f"path-k{k}", k) for k in sizes]
        warm = instances.loose_path(warm_rng, "warmup", 3)
    calls = []
    for inst in made + [warm]:
        inst.encode(directory)
        calls.append(Call(inst.label, ["analyze", str(inst.path), "--json"], inst))
    return calls[:-1], calls[-1]


def import_package():
    """Import hgirr afresh from this tree's src/, never from site-packages."""
    if not (SRC / "hgirr" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {SRC / 'hgirr'}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "hgirr" or k.startswith("hgirr.")]:
        del sys.modules[name]
    hgirr = importlib.import_module("hgirr")
    cli = importlib.import_module("hgirr.cli")
    if not Path(hgirr.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"hgirr imported from {hgirr.__file__}, not from {SRC}")
    return hgirr, cli


# ----------------------------------------------------------------- running

def run_call(cli, call: Call) -> float:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call, and the run goes on
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    if code is None or err.getvalue():
        text += "\n[stderr]\n" + err.getvalue()
    call.outputs.append((code, text))
    return elapsed


def loop_s() -> float:
    """The fastest of three runs of a fixed pure-Python loop: how fast the
    host runs interpreted code at this moment."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(LOOP_LENGTH):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def run_pass(cli, calls: list[Call]) -> float:
    start = time.perf_counter()
    for call in calls:
        run_call(cli, call)
    return time.perf_counter() - start


def timed_passes(cli, calls: list[Call], seconds: float) -> tuple[list[list[float]], list[float]]:
    """Whole passes, each from a collected heap, until the next one would
    likely end after ``seconds``. Returns each pass's call times, and the
    loop's time before every call and after the last one."""
    passes: list[list[float]] = []
    loops: list[float] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        times = []
        for call in calls:
            loops.append(loop_s())
            times.append(run_call(cli, call))
        passes.append(times)
        if time.perf_counter() - start + statistics.median(map(sum, passes)) > seconds:
            loops.append(loop_s())
            return passes, loops


def scaled_walls(passes: list[list[float]], loops: list[float]) -> list[float]:
    """Each pass's time with every call scaled by LOOP_NOMINAL_S over the
    mean of the loop times just before and just after it."""
    walls, k = [], 0
    for times in passes:
        wall = 0.0
        for elapsed in times:
            wall += elapsed * 2.0 * LOOP_NOMINAL_S / (loops[k] + loops[k + 1])
            k += 1
        walls.append(wall)
    return walls


# ---------------------------------------------------------------- checking

def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def check_analyze(inst: instances.Instance, code: int | None, text: str) -> Verdict:
    """A call fails on a nonzero exit, non-convergence, a violated bound or a
    rho outside the reference; it is wrong when its output contradicts the
    input, the reference or its own exit code."""
    try:
        report = json.loads(text)
    except ValueError:
        return Verdict(False, 0, f"exit {code}, no JSON report: {text[-300:]!r}")
    if (report.get("n"), report.get("m"), report.get("r")) != (inst.n, inst.m, inst.r):
        return Verdict(False, 0, "n, m, r differ from the input")
    deg = inst.degrees
    davg = inst.r * inst.m / inst.n
    alpha = inst.r / (inst.r - 1)
    v = 0.0 if deg.min() == deg.max() else float(np.mean(np.sort(deg) ** alpha) - davg**alpha)
    s = float(np.abs(inst.n * deg - inst.r * inst.m).sum()) / inst.n
    for key, want, rel in (("avg_degree", davg, 1e-15), ("s", s, 1e-12), ("v", v, 1e-9)):
        if not _close(report[key], want, rel):
            return Verdict(False, 0, f"{key} = {report[key]!r}, expected {want!r}")
    violated = [b["name"] for b in report["bounds"] if not b["holds"]]
    if violated:
        return Verdict(False, 0, f"bounds reported violated: {violated}")
    rho = report["rho"]
    lo, hi = inst.reference
    if report["converged"]:
        # The program's own bracket is at most ANALYZE_TOL * (rho + sigma) wide.
        width = (ANALYZE_TOL + FLOAT_NOISE) * max(1.0, rho + float(deg.max()))
        if not lo - width <= rho <= hi + width:
            return Verdict(False, 0, f"rho {rho!r} outside the reference [{lo!r}, {hi!r}] +- {width:.3g}")
        expected_code = 0
    else:
        if not float(deg.min()) <= rho <= float(deg.max()):
            return Verdict(False, 0, f"unconverged rho {rho!r} outside [min degree, max degree]")
        expected_code = 3
    if code != expected_code:
        return Verdict(False, 0, f"exit {code}, expected {expected_code} for this report")
    return Verdict(code == 0, int(code == 0))


def check_verify(count: int, code: int | None, text: str) -> Verdict:
    lines = text.strip().splitlines()
    summary = next((ln for ln in lines if ln.startswith("instances with failures:")), None)
    if summary is None or not lines or lines[-1] not in ("PASS", "FAIL"):
        return Verdict(False, 0, f"exit {code}, unexpected verify output: {text[-300:]!r}")
    failures, total = (int(tok) for tok in summary.split(":")[1].split("/"))
    if total != count:
        return Verdict(False, 0, f"verify ran {total} instances, asked for {count}")
    passed = failures == 0 and lines[-1] == "PASS" and code == 0
    if not passed:
        return Verdict(False, count - failures, f"verify reports {failures} / {total} failing instances")
    return Verdict(True, count)


def check_call(call: Call, code: int | None, text: str) -> Verdict:
    try:
        if call.instance is None:
            return check_verify(call.count, code, text)
        return check_analyze(call.instance, code, text)
    except (KeyError, TypeError, ValueError) as exc:
        return Verdict(False, 0, f"exit {code}, malformed output ({exc!r}): {text[-300:]!r}")


# ----------------------------------------------------------------- metrics

def distribution(samples: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with at least ten
    samples above it (absent below eleven samples)."""
    ordered = sorted(samples)
    count = len(ordered)
    out = {"count": count, "median": statistics.median(ordered), "min": ordered[0], "max": ordered[-1]}
    if count >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    if count >= 11:
        out["p_high"] = {"percentile": 100.0 * (count - 10) / count, "value": ordered[count - 11]}
    return out


def environment(hgirr) -> dict:
    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    try:
        from importlib.metadata import PackageNotFoundError, version

        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    backend = getattr(hgirr, "backend_name", None)
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numba_imports": numba,
        "backend_name": backend() if callable(backend) else None,
        "machine": platform.machine(),
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def standalone_matvec(spectral, hypergraphs) -> float:
    """Mean over the sampled hypergraphs of the median apply_adjacency time."""
    per_instance = []
    for H in hypergraphs if hasattr(spectral, "apply_adjacency") else ():
        x = np.linspace(0.5, 1.5, H.n)
        samples = []
        deadline = time.perf_counter() + 0.05
        while len(samples) < 5 or (time.perf_counter() < deadline and len(samples) < 200):
            start = time.perf_counter()
            spectral.apply_adjacency(H, x)
            samples.append(time.perf_counter() - start)
        per_instance.append(statistics.median(samples))
    return statistics.fmean(per_instance) if per_instance else 0.0


# -------------------------------------------------------------------- main

def set_up(workload: str, seed: int, scale: str, work: Path):
    """Generate the inputs once, untimed, as the benchmark's own work; then,
    several times from a collected heap, write the input files, import the
    package afresh and make the warm-up call. Returns the last set-up's
    modules, the calls and the time of each repetition, scaled like a call
    by the loop times just before and just after it."""
    inputs_dir = work / "inputs" / f"{workload}-seed{seed}"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    calls, warm = make_inputs(workload, seed, scale, inputs_dir)
    setups: list[float] = []
    setup_seconds = SETUP_SECONDS if scale == "full" else 0.0
    begin = time.perf_counter()
    while len(setups) < SETUP_REPEATS or (
        time.perf_counter() - begin < setup_seconds and len(setups) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        before = loop_s()
        start = time.perf_counter()
        for call in calls + [warm]:
            if call.instance is not None:
                call.instance.write()
        hgirr, cli = import_package()
        run_call(cli, warm)
        elapsed = time.perf_counter() - start
        setups.append(elapsed * 2.0 * LOOP_NOMINAL_S / (before + loop_s()))
    return hgirr, cli, calls, warm, setups


def judge(calls: list[Call], passes: int) -> tuple[int, int, list[int], list[str]]:
    """Check every output: attempted and failed calls, instances completed
    without failure in each pass, and the outputs found wrong."""
    attempted = failed = 0
    ok_per_pass = [0] * passes
    wrong: list[str] = []
    for call in calls:
        verdicts: dict[tuple[int | None, str], Verdict] = {}
        for index, output in enumerate(call.outputs):
            if output not in verdicts:
                verdicts[output] = check_call(call, *output)
            verdict = verdicts[output]
            attempted += 1
            failed += not verdict.ok
            ok_per_pass[index] += verdict.ok_instances
            if verdict.wrong:
                wrong.append(f"{call.label} pass {index}: {verdict.wrong}")
        if len(verdicts) > 1:
            wrong.append(f"{call.label}: output differs between passes")
    return attempted, failed, ok_per_pass, wrong


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        work: Path = WORK) -> dict:
    """Run one workload and return the result record; its ``summary`` is the
    object printed as the last line."""
    hgirr, cli, calls, warm, setups = set_up(workload, seed, scale, work)
    wrong: list[str] = []

    untraced: list[float] = []
    tracer = None
    if trace:
        untraced.append(run_pass(cli, calls))
        tracer = Tracer()
        tracer.install()
        try:
            passes, loops = timed_passes(cli, calls, seconds)
        finally:
            tracer.uninstall()
    else:
        passes, loops = timed_passes(cli, calls, seconds)
    walls = [sum(times) for times in passes]
    scaled = scaled_walls(passes, loops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for call in calls + [warm]:
        if call.instance is not None:
            call.instance.reference = instances.reference_bracket(call.instance)
    warm_wrong = check_call(warm, *warm.outputs[-1]).wrong
    if warm_wrong:
        wrong.append(f"warm-up: {warm_wrong}")
    attempted, failed, ok_per_pass, wrong_outputs = judge(calls, len(untraced) + len(walls))
    wrong.extend(wrong_outputs)

    if trace:
        matvec = standalone_matvec(importlib.import_module("hgirr.spectral"), tracer.solved)
        values, absent = tracer.layer_metrics(matvec, statistics.median(walls) / untraced[0])
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        tracer.write(work / "traces" / f"{workload}-seed{seed}.json")
    else:
        timed_ok = ok_per_pass[len(untraced):]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(scaled),
            "instances_per_s": statistics.median(ok / wall for ok, wall in zip(timed_ok, scaled)),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        absent = []

    summary = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "environment": environment(hgirr),
        "inputs": [
            {"label": c.label, "argv": c.argv, "sha256": c.instance.sha256, "n": c.instance.n,
             "m": c.instance.m, "r": c.instance.r, "reference": c.instance.reference}
            for c in calls if c.instance is not None
        ],
        "setup_s": setups,
        "wall_s": distribution(walls),
        "passes_s": walls,
        "scaled_wall_s": distribution(scaled),
        "loop_s": loops,
        "untraced_wall_s": untraced,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted,
        "absent": absent,
        "layers": tracer.by_name() if tracer else None,
        "wrong": wrong,
        "summary": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")

    wall = record["wall_s"]
    print(f"workload {args.workload} seed {args.seed}: {wall['count']} passes, "
          f"scaled median {record['scaled_wall_s']['median']:.4f}, "
          f"raw median {wall['median']:.4f} q1 {wall.get('q1', math.nan):.4f} "
          f"q3 {wall.get('q3', math.nan):.4f}, failed {record['summary']['failed']} / "
          f"{record['summary']['attempted']} calls")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for problem in record["wrong"]:
        print(f"WRONG {problem}")
    if record["absent"]:
        print(f"absent spans: {record['absent']}")
    print(f"details in {results.relative_to(ROOT)}")
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
