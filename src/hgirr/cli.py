"""Command-line interface.

Subcommands::

    hgirr analyze FILE [--partition FILE] [--tol TOL]
                       [--max-iterations N] [--json]
    hgirr verify [--r 2,3,4] [--n 2:10] [--m M] [--count K] [--seed S]
                 [--partite 2,2,2] [--tol TOL]
    hgirr regularize FILE -o OUT [--partitewise]
    hgirr transform blowup FILE --k 2 [-o OUT]
    hgirr transform product FILE1 FILE2 [-o OUT]
    hgirr transform union FILE1 FILE2 [-o OUT]

Exit codes are a contract: 0 success, 1 bound violation or verify failure,
2 input/parameter error, 3 solver non-convergence. All output is
byte-deterministic for fixed inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from .constructions import (
    blow_up,
    direct_product,
    random_r_partite,
    random_uniform,
    single_edge,
)
from .core import (
    HypergraphError,
    Partition,
    UniformHypergraph,
    symmetric_difference_size,
    union_edges,
    validate_partition,
)
from .hgr import parse_hgr, parse_partition_text, write_hgr
from .irregularity import (
    BoundCheck,
    IrregularityReport,
    analyze,
    bound_suite,
    regularize,
    regularize_partitewise,
    s_measure,
    s_r_measure,
    weyl_check,
)
from .spectral import SpectralOptions, _spectral_radii, spectral_radius

# Instances that verify generates and solves together: enough for one power
# iteration to serve many components, few enough to hold little memory.
_VERIFY_BLOCK = 100
# The most possible edges, C(n, r), that verify accepts: a random m, and the
# Weyl spot check's, can reach C(n, r) edges in one instance.
_VERIFY_MAX_EDGES = 10**6

_EXTRA_ORDER = (
    "blow_up_law",
    "product_edge_count",
    "product_law",
    "weyl",
    "regularize_contract",
    "partitewise_contract",
)


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


# ---------------------------------------------------------------- analyze

def _report_json(report: IrregularityReport) -> str:
    parts = [
        f'"n": {report.n}',
        f'"m": {report.m}',
        f'"r": {report.r}',
        f'"rho": {_fmt17(report.rho)}',
        f'"converged": {"true" if report.converged else "false"}',
        f'"avg_degree": {_fmt17(report.avg_degree)}',
        f'"epsilon": {_fmt17(report.epsilon)}',
        f'"s": {_fmt17(report.s)}',
        f'"v": {_fmt17(report.v)}',
    ]
    if report.s_r is not None:
        parts.append(f'"s_r": {_fmt17(report.s_r)}')
    bounds = []
    for check in report.bound_checks:
        if check.skipped:
            continue
        fields = [
            f'"name": "{check.name}"',
            f'"lhs": {_fmt17(check.lhs)}',
            f'"rhs": {_fmt17(check.rhs)}',
            f'"slack": {_fmt17(check.slack)}',
            f'"holds": {"true" if check.holds else "false"}',
        ]
        if check.equality_expected is not None:
            fields.append(
                f'"equality_expected": {"true" if check.equality_expected else "false"}'
            )
        bounds.append("{" + ", ".join(fields) + "}")
    parts.append('"bounds": [' + ", ".join(bounds) + "]")
    return "{" + ", ".join(parts) + "}"


def _report_text(report: IrregularityReport) -> str:
    lines = [
        f"n={report.n} m={report.m} r={report.r}",
        f"rho        = {report.rho:.12g}",
        f"converged  = {'yes' if report.converged else 'NO'}",
        f"avg_degree = {report.avg_degree:.12g}",
        f"epsilon    = {report.epsilon:.12g}",
        f"s          = {report.s:.12g}",
        f"v          = {report.v:.12g}",
    ]
    if report.s_r is not None:
        lines.append(f"s_r        = {report.s_r:.12g}")
    lines.append("bounds:")
    for check in report.bound_checks:
        if check.skipped:
            lines.append(f"  {check.name:<18} skipped: {check.skipped_reason}")
            continue
        state = "ok" if check.holds else "VIOLATED"
        note = ""
        if check.equality_expected:
            note = f"  (equality expected: {check.equality_reason})"
        lines.append(
            f"  {check.name:<18} lhs={check.lhs:<22.12g} rhs={check.rhs:<22.12g} "
            f"slack={check.slack:<15.6g} {state}{note}"
        )
    return "\n".join(lines)


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        opts = SpectralOptions(tolerance=args.tol, max_iterations=args.max_iterations)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        text = _read_text(args.file)
    except OSError as exc:
        return _fail(str(exc))
    try:
        H, partition = parse_hgr(text)
        if args.partition is not None:
            ptext = _read_text(args.partition)
            partition = parse_partition_text(ptext, H.n, H.r)
            if not validate_partition(H, partition):
                return _fail("invalid partition for the given edges")
    except (OSError, HypergraphError) as exc:
        return _fail(str(exc))

    report = analyze(H, partition, opts)
    print(_report_json(report) if args.json else _report_text(report))
    if not report.converged:
        return 3
    if any(not c.holds for c in report.bound_checks):
        return 1
    return 0


# ----------------------------------------------------------------- verify

def _make_instance(
    index: int,
    args: argparse.Namespace,
    r_choices: tuple[int, ...],
    n_range: tuple[int, int],
    sizes: tuple[int, ...] | None,
) -> tuple[UniformHypergraph, Partition | None, np.random.Generator]:
    """Instance ``index`` of a verify run, its partition, and the generator
    it was drawn from, which the extra checks draw from next."""
    rng = np.random.default_rng(args.seed + index)
    if sizes is not None:
        cap = math.prod(sizes)
        m = args.m if args.m is not None else int(rng.integers(0, cap + 1))
        H, partition = random_r_partite(sizes, m, rng)
        return H, partition, rng
    r = int(r_choices[int(rng.integers(0, len(r_choices)))])
    lo = max(r, n_range[0])
    hi = max(lo, n_range[1])
    n = int(rng.integers(lo, hi + 1))
    cap = math.comb(n, r)
    m = args.m if args.m is not None else int(rng.integers(0, cap + 1))
    return random_uniform(n, m, r, rng), None, rng


def _tally_block(
    first: int,
    args: argparse.Namespace,
    r_choices: tuple[int, ...],
    n_range: tuple[int, int],
    sizes: tuple[int, ...] | None,
    opts: SpectralOptions,
) -> tuple[list[str], Counter[tuple[str, str]], dict[str, float], int]:
    """The tally of the _VERIFY_BLOCK instances from ``first`` on: the bound
    names of the first instance, the count of every (name, "pass" | "fail" |
    "skip"), each bound's first strictly least slack, and the number of
    instances with a failed check.

    The block is made and solved in one call. A solve draws nothing, so
    every generator is where the extras expect it. Instance i depends on
    seed + i alone, so blocks can run in any process and order."""
    indices = range(first, min(first + _VERIFY_BLOCK, args.count))
    block = [_make_instance(i, args, r_choices, n_range, sizes) for i in indices]
    results = _spectral_radii([H for H, _, _ in block], opts)
    counts: Counter[tuple[str, str]] = Counter()
    min_slack: dict[str, float] = {}
    failures = 0
    for index, (H, partition, rng), result in zip(indices, block, results):
        checks = bound_suite(H, result, partition)
        if index == first:  # bound_suite emits every bound, skipped ones included
            bound_names = [check.name for check in checks]
        extras = _run_extra_checks(H, partition, result, rng, index) if index % 10 == 0 else []
        for check in checks:
            if check.skipped:
                counts[check.name, "skip"] += 1
                continue
            counts[check.name, "pass" if check.holds else "fail"] += 1
            if check.name not in min_slack or check.slack < min_slack[check.name]:
                min_slack[check.name] = check.slack
        for name, ok in extras:
            counts[name, "pass" if ok else "fail"] += 1
        if not all(c.holds for c in checks) or not all(ok for _, ok in extras):
            failures += 1
    return bound_names, counts, min_slack, failures


def _usable_cpus() -> int:
    """The CPUs that verify's workers may run on: those this process may use
    on Linux, and 1 elsewhere, where verify forks no worker."""
    if not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


def _map_blocks(tally, starts: range) -> list:
    """``tally`` of every block start, in order: in forked worker processes,
    one per usable CPU, when there are at least two blocks and two CPUs, and
    in this process otherwise.

    A forked worker starts from this process's memory, with numpy and the
    package loaded; a spawned one would first import them again, which takes
    longer than a block. The pool lives for this call alone, so no worker
    outlives it, and each worker sees the module state of the moment verify
    was called."""
    workers = min(_usable_cpus(), len(starts))
    if workers < 2:
        return list(map(tally, starts))
    import multiprocessing

    with warnings.catch_warnings():
        # Python 3.12 and later warn on a fork from a process with threads.
        # Here the threads are OpenBLAS's, which stops them before a fork
        # (pthread_atfork), so no lock is held in the child
        warnings.filterwarnings(
            "ignore", r".*multi-threaded, use of fork\(\)", DeprecationWarning
        )
        pool = multiprocessing.get_context("fork").Pool(workers)
    with pool:  # on an exception, leaving the block terminates the workers
        tallies = pool.map(tally, starts, chunksize=1)
        pool.close()
        pool.join()
    return tallies


def _run_extra_checks(H, partition, result, rng, index) -> list[tuple[str, bool]]:
    """The spot checks of instance ``index``; every solve runs at
    ``result.options``."""
    out: list[tuple[str, bool]] = []
    r = H.r
    rho = result.rho

    k = 2 + (index // 10) % 2
    if H.m >= 1 and k**r * H.m <= 1500 and k * H.n <= 30:
        blown = blow_up(H, k)
        expected = k ** (r - 1) * rho
        got = spectral_radius(blown, result.options).rho
        out.append(("blow_up_law", abs(got - expected) <= 1e-7 * max(1.0, expected)))

    if H.m >= 1 and math.factorial(r) * H.m <= 1500:
        product = direct_product(H, single_edge(r))
        out.append(("product_edge_count", product.m == math.factorial(r) * H.m))
        expected = math.factorial(r - 1) * rho
        got = spectral_radius(product, result.options).rho
        out.append(("product_law", abs(got - expected) <= 1e-7 * max(1.0, expected)))

    cap = math.comb(H.n, r)
    other = random_uniform(H.n, int(rng.integers(0, cap + 1)), r, rng)
    out.append(("weyl", weyl_check(H, result, other).holds))

    regular, _trace = regularize(H)
    deg = regular.degree_array
    ok = (
        regular.n == H.n
        and regular.m == H.m
        and int(deg.max() - deg.min()) <= 1
        and symmetric_difference_size(H, regular) <= s_measure(H) + 1e-9
        and s_measure(regular) <= s_measure(H) + 1e-9
    )
    out.append(("regularize_contract", ok))

    if partition is not None:
        regp, _tracep = regularize_partitewise(H, partition)
        degp = regp.degree_array
        okp = regp.m == H.m and validate_partition(regp, partition)
        for members in partition.classes:
            class_deg = [int(degp[v - 1]) for v in members]
            okp = okp and max(class_deg) - min(class_deg) <= 1
        okp = okp and symmetric_difference_size(H, regp) <= s_r_measure(H, partition) + 1e-9
        out.append(("partitewise_contract", okp))
    return out


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        r_choices = _parse_int_list(args.r)
        n_range = _parse_range(args.n)
        sizes = _parse_int_list(args.partite) if args.partite else None
        opts = SpectralOptions(tolerance=args.tol)
    except ValueError as exc:
        return _fail(f"bad parameter: {exc}")
    if args.count < 1:
        return _fail("count must be at least 1")
    if args.seed < 0:
        return _fail(f"seed must be nonnegative, got {args.seed}")
    if sizes is not None:
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            return _fail(f"bad partite sizes {list(sizes)}")
        if args.m is not None and not 0 <= args.m <= math.prod(sizes):
            return _fail(f"m={args.m} infeasible for sizes {list(sizes)}")
        # the weyl extra's uniform instance, C(n, r) >= product of the sizes
        widest = [(sum(sizes), len(sizes))]
    else:
        if not r_choices or any(r < 2 for r in r_choices):
            return _fail(f"bad rank list {list(r_choices)}")
        if n_range[0] > n_range[1]:
            return _fail(f"empty vertex range {args.n}")
        if args.m is not None:
            if len(r_choices) != 1 or n_range[0] != n_range[1]:
                return _fail("--m requires a single --r and a single --n")
            if not 0 <= args.m <= math.comb(n_range[0], r_choices[0]):
                return _fail(f"m={args.m} infeasible for n={n_range[0]}, r={r_choices[0]}")
        widest = [(max(r, n_range[1]), r) for r in r_choices]
    # every edge count and every edge is drawn as an int64 code
    for n, r in widest:
        possible = math.comb(n, r)
        if possible > np.iinfo(np.int64).max:
            return _fail(f"C({n}, {r}) possible edges exceed the int64 range of edge codes")
        if possible > _VERIFY_MAX_EDGES:
            return _fail(
                f"C({n}, {r}) = {possible} possible edges exceed verify's cap of "
                f"{_VERIFY_MAX_EDGES}"
            )

    tally = functools.partial(
        _tally_block, args=args, r_choices=r_choices, n_range=n_range, sizes=sizes, opts=opts
    )
    tallies = _map_blocks(tally, range(0, args.count, _VERIFY_BLOCK))
    # the blocks fold in order, and a slack replaces the kept one only when
    # strictly less, as in one pass over the instances: a tie such as 0.0
    # against -0.0 keeps the earlier one's sign
    bound_names = tallies[0][0]
    counts: Counter[tuple[str, str]] = Counter()
    min_slack: dict[str, float] = {}
    failures = 0
    for _, block_counts, block_slack, block_failures in tallies:
        counts.update(block_counts)
        for name, slack in block_slack.items():
            if name not in min_slack or slack < min_slack[name]:
                min_slack[name] = slack
        failures += block_failures

    if sizes:
        mode = f"partite {','.join(str(s) for s in sizes)}"
        r_text, n_text = len(sizes), sum(sizes)
    else:
        mode, r_text, n_text = "uniform", args.r, args.n
    print(
        f"hgirr verify: count={args.count} seed={args.seed} mode={mode} "
        f"r={r_text} n={n_text} m={'random' if args.m is None else args.m}"
    )

    print(f"{'bound':<21} {'checked':>8} {'passed':>8} {'failed':>8} {'skipped':>8}  min_slack")
    for name in bound_names:
        passed, failed, skipped = (counts[name, status] for status in ("pass", "fail", "skip"))
        slack_text = _fmt17(min_slack[name]) if name in min_slack else "n/a"
        print(f"{name:<21} {passed + failed:>8} {passed:>8} {failed:>8} {skipped:>8}  {slack_text}")

    print(f"{'extra':<21} {'checked':>8} {'passed':>8} {'failed':>8}")
    for name in _EXTRA_ORDER:
        passed, failed = counts[name, "pass"], counts[name, "fail"]
        print(f"{name:<21} {passed + failed:>8} {passed:>8} {failed:>8}")

    print(f"instances with failures: {failures} / {args.count}")
    print("PASS" if failures == 0 else "FAIL")
    return 0 if failures == 0 else 1


# ------------------------------------------------------------- regularize

def _trace_json(trace) -> str:
    rows = []
    for removed, inserted in trace:
        rem = ", ".join(str(v) for v in removed)
        ins = ", ".join(str(v) for v in inserted)
        rows.append(f'{{"remove": [{rem}], "insert": [{ins}]}}')
    return "[" + ", ".join(rows) + "]\n"


def _cmd_regularize(args: argparse.Namespace) -> int:
    try:
        H, partition = parse_hgr(_read_text(args.file))
    except (OSError, HypergraphError) as exc:
        return _fail(str(exc))

    if args.partitewise:
        if partition is None:
            return _fail("--partitewise requires a partition line in the input")
        regularized, trace = regularize_partitewise(H, partition)
        budget = s_r_measure(H, partition)
        budget_name = "s_r(H)"
    else:
        regularized, trace = regularize(H)
        budget = s_measure(H)
        budget_name = "s(H)"

    out_path = Path(args.output)
    trace_path = Path(str(out_path) + ".trace.json")
    try:
        out_path.write_text(
            write_hgr(regularized, partition if args.partitewise else None),
            encoding="utf-8",
        )
        trace_path.write_text(_trace_json(trace), encoding="utf-8")
    except OSError as exc:
        return _fail(str(exc))

    before = H.degree_array
    after = regularized.degree_array
    print(f"degrees before: min={int(before.min())} max={int(before.max())}")
    print(f"degrees after:  min={int(after.min())} max={int(after.max())}")
    print(f"swaps: {len(trace)}")
    print(f"edges changed: {symmetric_difference_size(H, regularized)} (budget {budget_name} = {budget:.12g})")
    print(f"wrote {out_path} and {trace_path}")
    return 0


# -------------------------------------------------------------- transform

def _write_result(H: UniformHypergraph, output: str | None) -> int:
    text = write_hgr(H)
    if output is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:
        return _fail(str(exc))
    print(f"wrote {output}")
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    try:
        if args.kind == "blowup":
            H, _ = parse_hgr(_read_text(args.file))
            reps = _parse_int_list(args.k)
            factor = int(reps[0]) if len(reps) == 1 else reps
            result = blow_up(H, factor)
        elif args.kind == "product":
            H1, _ = parse_hgr(_read_text(args.file1))
            H2, _ = parse_hgr(_read_text(args.file2))
            result = direct_product(H1, H2)
        else:
            H1, _ = parse_hgr(_read_text(args.file1))
            H2, _ = parse_hgr(_read_text(args.file2))
            result = union_edges(H1, H2)
    except (OSError, HypergraphError, ValueError) as exc:
        return _fail(str(exc))
    return _write_result(result, args.output)


# ------------------------------------------------------------------ main

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args keeps no
    state in it, so every main() call can share it."""
    parser = argparse.ArgumentParser(
        prog="hgirr",
        description="Spectral radius and irregularity measures of r-uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --tol and --max-iterations default to the solver's own defaults
    defaults = SpectralOptions()
    tol_help = "relative solver tolerance, in (0, 1)"

    p = sub.add_parser("analyze", help="measures and bound checks for one instance")
    p.add_argument("file", help="input .hgr file")
    p.add_argument("--partition", help="partition file overriding any inline partition")
    p.add_argument("--tol", type=float, default=defaults.tolerance, help=tol_help)
    p.add_argument("--max-iterations", type=int, default=defaults.max_iterations)
    p.add_argument("--json", action="store_true", help="emit a single JSON object")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="fuzz the inequality suite on seeded instances")
    p.add_argument("--r", default="3", help="rank or comma list of ranks")
    p.add_argument("--n", default="8", help="vertex count or LO:HI range")
    p.add_argument("--m", type=int, default=None, help="edge count (random when omitted)")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partite", default=None, help="comma class sizes, e.g. 2,2,2")
    p.add_argument("--tol", type=float, default=defaults.tolerance, help=tol_help)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("regularize", help="rewire to a near-regular instance")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--partitewise", action="store_true")
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("transform", help="blow-up, direct product, or union")
    kinds = p.add_subparsers(dest="kind", required=True)
    b = kinds.add_parser("blowup")
    b.add_argument("file")
    b.add_argument("--k", required=True, help="multiplicity, or comma list per vertex")
    b.add_argument("-o", "--output", default=None)
    pr = kinds.add_parser("product")
    pr.add_argument("file1")
    pr.add_argument("file2")
    pr.add_argument("-o", "--output", default=None)
    un = kinds.add_parser("union")
    un.add_argument("file1")
    un.add_argument("file2")
    un.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_transform)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
