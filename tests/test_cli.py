import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import hgirr.cli
import hgirr.core
import hgirr.irregularity
from helpers import (
    compensated_sum,
    fix_shift,
    loose_path,
    path_with_pendants,
    reference_random_r_partite,
    reference_random_uniform,
    star_with_tail,
)
from hgirr import (
    BoundCheck,
    build,
    complete_r_partite,
    parse_hgr,
    random_r_partite,
    random_uniform,
    single_edge,
    union_edges,
    write_hgr,
)
from hgirr.cli import _build_parser, main

TWO_PATH = "hgr 3 5 2\n1 2 3\n1 4 5\n"
STAR = "hgr 3 7 3\n1 2 3\n1 4 5\n1 6 7\n"


@pytest.fixture
def two_path_file(tmp_path):
    path = tmp_path / "path.hgr"
    path.write_text(TWO_PATH)
    return str(path)


def test_analyze_text(two_path_file, capsys):
    assert main(["analyze", two_path_file]) == 0
    out = capsys.readouterr().out
    assert "rho" in out and "epsilon" in out
    assert "s          = 1.6" in out
    assert "skipped: no partition" in out


def test_analyze_json_schema(two_path_file, capsys):
    assert main(["analyze", two_path_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "n", "m", "r", "rho", "converged",
        "avg_degree", "epsilon", "s", "v", "bounds",
    }
    assert payload["n"] == 5 and payload["m"] == 2 and payload["r"] == 3
    assert payload["converged"] is True
    assert payload["s"] == 1.6
    assert payload["rho"] == pytest.approx(2 ** (1 / 3), abs=1e-8)
    names = [b["name"] for b in payload["bounds"]]
    assert len(names) == len(set(names))
    assert all(b["holds"] for b in payload["bounds"])
    for bound in payload["bounds"]:
        assert bound["slack"] == pytest.approx(bound["rhs"] - bound["lhs"], abs=1e-15)


def test_analyze_json_values(two_path_file, capsys):
    assert main(["analyze", two_path_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon"] == pytest.approx(2 ** (1 / 3) - 1.2, abs=1e-8)
    assert payload["v"] == pytest.approx((2**1.5 + 4) / 5 - 1.2**1.5, abs=1e-9)
    assert payload["avg_degree"] == 1.2


def test_analyze_regular_input(tmp_path, capsys):
    H, P = complete_r_partite([2, 2, 2])
    path = tmp_path / "reg.hgr"
    path.write_text(write_hgr(H, P))
    assert main(["analyze", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon"] == pytest.approx(0.0, abs=1e-9)
    assert payload["s"] == 0.0 and payload["v"] == 0.0 and payload["s_r"] == 0.0
    flagged = {b["name"] for b in payload["bounds"] if b.get("equality_expected")}
    assert {"cooper_dutle", "row_sum_sandwich", "power_mean_lower", "size_upper"} <= flagged


def test_analyze_with_partition_file(two_path_file, tmp_path, capsys):
    pfile = tmp_path / "classes.txt"
    pfile.write_text("partition 1 2 3 2 3\n")
    assert main(["analyze", two_path_file, "--partition", str(pfile), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["s_r"] == 0.0
    assert "theorem1" in [b["name"] for b in payload["bounds"]]


def test_analyze_refuses_a_partition_file_that_fails_the_edges(two_path_file, tmp_path, capsys):
    pfile = tmp_path / "classes.txt"
    pfile.write_text("partition 1 1 2 2 3\n")
    assert main(["analyze", two_path_file, "--partition", str(pfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid partition for the given edges\n"


def test_analyze_exits_1_when_a_bound_is_violated(two_path_file, monkeypatch, capsys):
    real_analyze = hgirr.cli.analyze

    def violated(*args):
        broken = BoundCheck(name="cooper_dutle", lhs=2.0, rhs=1.0, tolerance=0.0)
        return dataclasses.replace(real_analyze(*args), bound_checks=(broken,))

    monkeypatch.setattr(hgirr.cli, "analyze", violated)
    assert main(["analyze", two_path_file]) == 1
    assert "VIOLATED" in capsys.readouterr().out
    assert main(["analyze", two_path_file, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["bounds"][0]["holds"] is False


def test_analyze_inline_partition(tmp_path, capsys):
    path = tmp_path / "p.hgr"
    path.write_text(TWO_PATH.rstrip("\n") + "\npartition 1 2 3 2 3\n")
    assert main(["analyze", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["s_r"] == 0.0
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "\ns_r        = 0\nbounds:\n" in out
    assert "theorem1" in out and "skipped: no partition" not in out


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.hgr"
    bad.write_text("hgr 3 5 3\n1 2 3\n1 4 5\n")
    assert main(["analyze", str(bad)]) == 2
    assert "edge count mismatch" in capsys.readouterr().err


def test_analyze_missing_file_exit_2(capsys):
    assert main(["analyze", "/nonexistent/x.hgr"]) == 2


def test_analyze_nonconvergence_exit_3(two_path_file, capsys):
    code = main(["analyze", two_path_file, "--tol", "1e-30", "--max-iterations", "5"])
    assert code == 3
    assert "converged  = NO" in capsys.readouterr().out


def test_analyze_converges_on_a_long_loose_path(tmp_path, capsys):
    # 501 vertices: the power iteration alone stops unconverged at 100k
    path = tmp_path / "path.hgr"
    path.write_text(write_hgr(loose_path(3, 250)))
    assert main(["analyze", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert all(b["holds"] for b in payload["bounds"])


def test_analyze_exits_3_when_the_solve_does_not_converge(tmp_path, capsys):
    path = tmp_path / "pendants.hgr"
    path.write_text(write_hgr(path_with_pendants()))
    assert main(["analyze", str(path), "--max-iterations", "2000", "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["converged"] is False


def test_verify_small_run(capsys):
    code = main(["verify", "--r", "3", "--n", "4:7", "--count", "20", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "instances with failures: 0 / 20" in out


def test_verify_exits_1_and_counts_the_failing_instance(monkeypatch, capsys):
    real_bound_suite = hgirr.cli.bound_suite
    calls = itertools.count()

    def one_violated(*args):
        checks = real_bound_suite(*args)
        if next(calls) == 7:
            broken = BoundCheck(name="cooper_dutle", lhs=2.0, rhs=1.0, tolerance=0.0)
            checks = [broken if check.name == "cooper_dutle" else check for check in checks]
        return checks

    monkeypatch.setattr(hgirr.cli, "bound_suite", one_violated)
    code = main(["verify", "--r", "3", "--n", "4:7", "--count", "20", "--seed", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-2:] == ["instances with failures: 1 / 20", "FAIL"]
    row = next(line for line in lines if line.startswith("cooper_dutle")).split()
    assert row[1:5] == ["20", "19", "1", "0"]  # checked, passed, failed, skipped
    assert next(calls) == 20


def test_verify_partite_run(capsys):
    code = main(
        ["verify", "--partite", "2,2,2", "--count", "15", "--seed", "9"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "theorem1" in out and "claim1" in out
    # partition checks actually ran
    line = [l for l in out.splitlines() if l.startswith("theorem1")][0]
    assert " 15 " in line


@pytest.mark.parametrize(
    "sizes, header",
    [
        ("3,4,5", "mode=partite 3,4,5 r=3 n=12 m=random"),
        ("2,2,3,3", "mode=partite 2,2,3,3 r=4 n=10 m=random"),
    ],
)
def test_verify_partite_header_reports_the_instance_shape(sizes, header, capsys):
    # the --r and --n defaults (3 and 8) play no part in partite mode
    assert main(["verify", "--partite", sizes, "--count", "20", "--seed", "11"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"hgirr verify: count=20 seed=11 {header}"


def test_verify_deterministic_bytes(capsys):
    args = ["verify", "--r", "2,3", "--n", "3:7", "--count", "25", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_fixed_m(capsys):
    code = main(["verify", "--r", "3", "--n", "8", "--m", "12", "--count", "10", "--seed", "1"])
    assert code == 0


def test_verify_parameter_errors(capsys):
    assert main(["verify", "--r", "2,3", "--n", "4:6", "--m", "3"]) == 2
    assert main(["verify", "--r", "3", "--n", "5", "--m", "99"]) == 2
    assert main(["verify", "--partite", "0,2,2"]) == 2
    assert main(["verify", "--r", "1", "--n", "5"]) == 2
    assert main(["verify", "--count", "0"]) == 2
    # more possible edges than int64 codes, for the instances or the weyl
    # extra's instance on all sum(sizes) vertices; refused before any draw
    assert main(["verify", "--r", "50", "--n", "100", "--count", "1"]) == 2
    assert main(["verify", "--r", "3,40", "--n", "4:70", "--count", "1"]) == 2
    assert main(["verify", "--partite", "300,300,300,300,300,300,300,300", "--count", "1"]) == 2
    assert main(["verify", "--partite", ",".join(["2"] * 34), "--count", "1"]) == 2
    err = capsys.readouterr().err
    assert "error: C(100, 50) possible edges exceed the int64 range" in err
    assert "error: C(2400, 8) possible edges exceed" in err
    # within int64 but beyond verify's cap, with or without --m, since the
    # weyl extra draws a random m of its own
    assert main(["verify", "--r", "10", "--n", "30", "--count", "1"]) == 2
    assert main(["verify", "--r", "3,10", "--n", "4:30", "--count", "1"]) == 2
    assert main(["verify", "--r", "3", "--n", "200", "--m", "5", "--count", "1"]) == 2
    assert main(["verify", "--partite", "10,10,10,10,10,10", "--count", "1"]) == 2
    err = capsys.readouterr().err
    assert "error: C(30, 10) = 30045015 possible edges exceed verify's cap of 1000000" in err
    assert "error: C(200, 3) = 1313400 possible edges exceed" in err
    assert "error: C(60, 6) = 50063860 possible edges exceed" in err
    assert main(["verify", "--partite", "2,2,2", "--m", "9"]) == 2
    assert main(["verify", "--n", "6:4"]) == 2
    err = capsys.readouterr().err
    assert "error: m=9 infeasible for sizes [2, 2, 2]" in err
    assert "error: empty vertex range 6:4" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "FILE", "--tol", "0"],
        ["analyze", "FILE", "--tol", "nan"],
        ["analyze", "FILE", "--max-iterations", "0"],
        ["analyze", "FILE", "--max-iterations", "-1"],
        ["verify", "--count", "1", "--tol", "-1"],
        ["verify", "--count", "1", "--seed", "-2"],
        ["verify", "--count", "1", "--tol", "nan"],
        ["analyze", "FILE", "--tol", "inf"],
        ["analyze", "FILE", "--tol", "1"],
        ["verify", "--count", "1", "--tol", "inf"],
        ["verify", "--count", "1", "--tol", "1"],
    ],
)
def test_bad_solver_parameters_exit_2(argv, two_path_file, capsys):
    argv = [two_path_file if a == "FILE" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_workers_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--count", "1", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["analyze", "FILE"], ["verify", "--count", "1"]])
def test_check_tol_flag_is_gone(command, two_path_file, capsys):
    # every check tolerance derives from the certified bracket alone
    argv = [two_path_file if a == "FILE" else a for a in command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--check-tol", "1e-8"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--check-tol" in captured.err


def _synopsis_blocks() -> dict[str, str]:
    """The CLI synopsis of the README and of the ``hgirr.cli`` docstring."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return {
        "README.md": readme.split("## CLI", 1)[1].split("```")[1],
        "hgirr.cli": hgirr.cli.__doc__.split("Subcommands::", 1)[1].split("\n\n")[1],
    }


def _synopsis_flags(block: str) -> dict[tuple[str, ...], set[str]]:
    """Flag tokens per subcommand in a synopsis block."""
    flags: dict[tuple[str, ...], set[str]] = {}
    for line in block.strip().splitlines():
        words = line.split()
        if words[0] == "hgirr":
            command = tuple(itertools.takewhile(lambda w: w.isalpha() and w.islower(), words[1:]))
        flags.setdefault(command, set()).update(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", line))
    return flags


def _leaf_parsers(parser, prefix=()):
    """(command words, parser) for every subcommand that takes no further one."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix, parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaf_parsers(sub, prefix + (name,))


def test_readme_synopsis_lists_every_flag():
    leaves = dict(_leaf_parsers(_build_parser()))
    for source, block in _synopsis_blocks().items():
        synopsis = _synopsis_flags(block)
        assert set(synopsis) == set(leaves), source
        for command, parser in leaves.items():
            actions = [a for a in parser._actions if a.option_strings and a.dest != "help"]
            known = {o for a in actions for o in a.option_strings}
            assert synopsis[command] <= known, (source, command)
            for action in actions:
                assert set(action.option_strings) & synopsis[command], (
                    source, command, action.option_strings
                )


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    path = tmp_path / "star.hgr"
    path.write_text(STAR)
    assert main(["analyze", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 3
    # the flag of the call before must not stick to the shared parser
    assert main(["analyze", str(path)]) == 0
    assert not capsys.readouterr().out.startswith("{")


def test_regularize_command(tmp_path, capsys):
    src = tmp_path / "star.hgr"
    src.write_text(STAR)
    out = tmp_path / "star.reg.hgr"
    assert main(["regularize", str(src), "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "degrees before: min=1 max=3" in printed
    assert "degrees after:  min=1 max=2" in printed
    assert "swaps: 1" in printed
    regularized, _ = parse_hgr(out.read_text())
    trace_rows = json.loads((tmp_path / "star.reg.hgr.trace.json").read_text())
    assert len(trace_rows) == 1
    # replaying the sidecar reproduces the output
    H, _ = parse_hgr(STAR)
    edge_set = set(H.edges)
    for row in trace_rows:
        edge_set.remove(tuple(row["remove"]))
        edge_set.add(tuple(row["insert"]))
    assert sorted(edge_set) == list(regularized.edges)


def test_regularize_near_regular_zero_swaps(two_path_file, tmp_path, capsys):
    out = tmp_path / "o.hgr"
    assert main(["regularize", two_path_file, "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "swaps: 0" in printed
    H, _ = parse_hgr(out.read_text())
    assert H == parse_hgr(TWO_PATH)[0]
    assert json.loads((tmp_path / "o.hgr.trace.json").read_text()) == []


def test_regularize_partitewise_command(tmp_path, capsys):
    src = tmp_path / "p.hgr"
    src.write_text("hgr 3 6 2\n1 3 5\n1 4 6\npartition 1 1 2 2 3 3\n")
    out = tmp_path / "o.hgr"
    assert main(["regularize", str(src), "-o", str(out), "--partitewise"]) == 0
    assert "swaps: 1" in capsys.readouterr().out
    H, P = parse_hgr(out.read_text())
    assert P is not None  # partition preserved in the output document


def test_regularize_partitewise_requires_partition(tmp_path, capsys):
    src = tmp_path / "p.hgr"
    src.write_text(TWO_PATH)
    out = tmp_path / "o.hgr"
    assert main(["regularize", str(src), "-o", str(out), "--partitewise"]) == 2


def test_regularize_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.hgr"
    bad.write_text("hgr 3 5 3\n1 2 3\n1 4 5\n")
    out = tmp_path / "o.hgr"
    assert main(["regularize", str(bad), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "edge count mismatch" in captured.err
    assert not out.exists()


def test_regularize_unwritable_output_exit_2(two_path_file, tmp_path, capsys):
    out = tmp_path / "missing" / "o.hgr"
    assert main(["regularize", two_path_file, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "o.hgr" in captured.err


def test_transform_blowup(tmp_path, capsys):
    src = tmp_path / "k3.hgr"
    src.write_text(write_hgr(single_edge(3)))
    assert main(["transform", "blowup", str(src), "--k", "2"]) == 0
    out = capsys.readouterr().out
    H, _ = parse_hgr(out)
    expected, _ = complete_r_partite([2, 2, 2])
    assert H == expected


def test_transform_product(tmp_path, capsys):
    a = tmp_path / "a.hgr"
    a.write_text(TWO_PATH)
    b = tmp_path / "b.hgr"
    b.write_text(write_hgr(single_edge(3)))
    dest = tmp_path / "prod.hgr"
    assert main(["transform", "product", str(a), str(b), "-o", str(dest)]) == 0
    H, _ = parse_hgr(dest.read_text())
    assert H.m == math.factorial(3) * 2


def test_transform_union(tmp_path, capsys):
    a = tmp_path / "a.hgr"
    a.write_text("hgr 3 6 1\n1 2 3\n")
    b = tmp_path / "b.hgr"
    b.write_text("hgr 3 6 1\n4 5 6\n")
    assert main(["transform", "union", str(a), str(b)]) == 0
    H, _ = parse_hgr(capsys.readouterr().out)
    assert H.m == 2


def test_transform_unwritable_output_exit_2(two_path_file, tmp_path, capsys):
    out = tmp_path / "missing" / "o.hgr"
    assert main(["transform", "blowup", two_path_file, "--k", "2", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "o.hgr" in captured.err


def test_transform_rank_mismatch_exit_2(tmp_path, capsys):
    a = tmp_path / "a.hgr"
    a.write_text(TWO_PATH)
    b = tmp_path / "b.hgr"
    b.write_text(write_hgr(single_edge(2)))
    assert main(["transform", "product", str(a), str(b)]) == 2
    assert main(["transform", "union", str(a), str(b)]) == 2


def _main_sha256(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


_PINNED_VERIFY_RUNS = (
    ["verify", "--r", "2,3,4", "--n", "4:12", "--count", "300", "--seed", "7"],
    ["verify", "--partite", "2,3,3", "--count", "100", "--seed", "3"],
)


def test_verify_bytes_are_pinned(monkeypatch):
    # recorded under the stall detector, which started each component at a
    # twentieth of its maximum degree and raised the shift to a quarter when
    # it stalled; the rank rule that replaced it left these bytes unchanged
    got = [_main_sha256(argv) for argv in _PINNED_VERIFY_RUNS]
    assert got == [
        (0, "7421616432febf6bce2d40015b853971e8882ae5279e71e32b82a647c7bff456"),
        (0, "bf22c98c280656350a7c7b9e2699891b2717c7742f69fd1f801ae0921da38367"),
    ]
    # recorded when each generator came to draw all its edges in one call,
    # with the shift at the whole maximum degree
    fix_shift(monkeypatch, 1.0)
    got = [_main_sha256(argv) for argv in _PINNED_VERIFY_RUNS]
    assert got == [
        (0, "5d52a71736aebfe50904eda5e0bd647a0872691d4ef5dc029c91a13ef3ab623f"),
        (0, "60b1ca932f9ea8f61d1477450e1c538f4013ed5d0bc503b88dba5dafc6fc0b3f"),
    ]
    # digests recorded when the check-tolerance flag and the
    # " check_tol=1e-08" token of line 1 were removed; the other lines are
    # those recorded before the verify tally became a single pass. The
    # generators of that time draw every instance again.
    monkeypatch.setattr(hgirr.cli, "random_uniform", reference_random_uniform)
    monkeypatch.setattr(hgirr.cli, "random_r_partite", reference_random_r_partite)
    got = [_main_sha256(argv) for argv in _PINNED_VERIFY_RUNS]
    assert got == [
        (0, "738695238f6586e1b81bcef10cae2802544906c2bbccc5df41cb4d24c3fd72e1"),
        (0, "7d889b448bf6ee30c97cda7155d1f28e4b1a579a4f14f6a843d867a1aabd7b07"),
    ]


def test_verify_bytes_at_a_fixed_quarter_shift_are_unchanged(monkeypatch):
    # recorded when the solver came to shift by a quarter of the maximum degree
    fix_shift(monkeypatch, 0.25)
    got = [_main_sha256(argv) for argv in _PINNED_VERIFY_RUNS]
    assert got == [
        (0, "992b643e49e33a03338c13537d3211cdf7738c4a31fef155cb99b5e69de523a6"),
        (0, "4549bb94eb3a4aaec1fe8109ee462924fb7897ca6604a730980aab180000f7ce"),
    ]


def test_verify_deterministic_across_processes():
    cmd = [
        sys.executable, "-m", "hgirr.cli",
        "verify", "--r", "3", "--n", "4:6", "--count", "12", "--seed", "21",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout


@pytest.mark.parametrize(
    "argv",
    [*_PINNED_VERIFY_RUNS, ["verify", "--partite", "2,3,4", "--count", "1000", "--seed", "5"]],
)
def test_verify_bytes_in_worker_processes_match_one_process(argv, monkeypatch):
    # the main solves are counted in this process only: in the pool every
    # block is solved in a worker
    solved_here = []
    real_spectral_radii = hgirr.cli._spectral_radii

    def counted(hypergraphs, opts):
        solved_here.append(len(hypergraphs))
        return real_spectral_radii(hypergraphs, opts)

    monkeypatch.setattr(hgirr.cli, "_spectral_radii", counted)
    monkeypatch.setattr(hgirr.cli, "_usable_cpus", lambda: 1)
    alone = _main_sha256(argv)
    count = int(argv[argv.index("--count") + 1])
    assert sum(solved_here) == count
    monkeypatch.setattr(hgirr.cli, "_usable_cpus", lambda: 2)
    solved_here.clear()
    pooled = _main_sha256(argv)
    assert pooled == alone
    # a single block stays in this process
    assert sum(solved_here) == (count if count <= hgirr.cli._VERIFY_BLOCK else 0)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("first, second, printed", [(0.0, -0.0, "0"), (-0.0, 0.0, "-0")])
def test_verify_folds_block_slacks_as_one_pass_does(first, second, printed, monkeypatch, capsys):
    # one pass over the instances keeps the first of equal least slacks, so a
    # tie between blocks keeps the earlier block's sign
    slacks = {0: first, hgirr.cli._VERIFY_BLOCK: second}

    def crafted(start, **_):
        return ["size_upper"], Counter({("size_upper", "pass"): 100}), {"size_upper": slacks[start]}, 0

    monkeypatch.setattr(hgirr.cli, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(hgirr.cli, "_tally_block", crafted)
    assert main(["verify", "--count", "200"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("size_upper"))
    assert row.split()[1:] == ["200", "200", "0", "0", printed]


class _SpotCheckError(Exception):
    pass


def test_verify_reraises_a_worker_exception_and_leaves_no_worker(monkeypatch):
    real_extras = hgirr.cli._run_extra_checks

    def failing(H, partition, result, rng, index):
        if index >= hgirr.cli._VERIFY_BLOCK:
            raise _SpotCheckError(f"instance {index}")
        return real_extras(H, partition, result, rng, index)

    monkeypatch.setattr(hgirr.cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(hgirr.cli, "_run_extra_checks", failing)
    with pytest.raises(_SpotCheckError, match="instance 1[0-9][0-9]$"):
        main(["verify", "--r", "3", "--n", "4:7", "--count", "300", "--seed", "5"])
    assert multiprocessing.active_children() == []


def test_verify_fork_warning_does_not_reach_the_user(monkeypatch, capsys):
    # Python 3.12 and later warn in the parent on a fork from a process with
    # threads, as numpy's BLAS pool makes every process that imports it
    real_fork = os.fork

    def warning_fork():
        pid = real_fork()
        if pid:
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                "may lead to deadlocks in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    monkeypatch.setattr(hgirr.cli, "_usable_cpus", lambda: 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--count", "200"]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def test_console_entry_point(tmp_path):
    src = tmp_path / "p.hgr"
    src.write_text(TWO_PATH)
    result = subprocess.run(
        [sys.executable, "-m", "hgirr.cli", "analyze", str(src), "--json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["m"] == 2


def test_package_runs_as_a_module():
    result = subprocess.run(
        [sys.executable, "-m", "hgirr", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert result.stdout.startswith("usage: hgirr")


def _analyze_json_sha256(tmp_path, text):
    path = tmp_path / "golden.hgr"
    path.write_text(text)
    return _main_sha256(["analyze", str(path), "--json"])


def _pinned_analyze_texts():
    uniform = reference_random_uniform(2000, 20000, 3, seed=1)
    partite, partition = reference_random_r_partite((20, 25, 30), 400, seed=3)
    union = union_edges(
        build(3, 11, [[1, 2, 3], [3, 4, 5], [1, 5, 6]]),
        build(3, 11, [[7, 8, 9], [8, 9, 10]]),
    )
    return [write_hgr(uniform), write_hgr(partite, partition), write_hgr(union)]


def test_analyze_json_bytes_are_pinned(tmp_path, monkeypatch):
    texts = _pinned_analyze_texts()
    # Every analyze digest was re-pinned when the "residual" item left the
    # output, and the partite instance's when power_mean_lower came to sum
    # its powers in sorted order; apart from those, the bytes are the
    # earlier ones. These were first recorded under the stall detector,
    # which started each component at a twentieth of its maximum degree and
    # raised the shift to a quarter when it stalled; the rank rule that
    # replaced it left them unchanged.
    assert [_analyze_json_sha256(tmp_path, text) for text in texts] == [
        (0, "b13e78dbf3b3ed0f87844c43122f33dc9897c068aea2b271d7554529492aa9b6"),
        (0, "676efd6793dc36fd0cc59b99f180a876c854165711b12802dbf6aead831861b9"),
        (0, "c8c84b26d434b940a15c3d7ef27fb1db06d513941551abfe78567d5402a8387e"),
    ]
    # first recorded with the per-edge Python implementation of parsing,
    # components, the kernel and the edge products, with the shift at the
    # whole maximum degree
    fix_shift(monkeypatch, 1.0)
    assert [_analyze_json_sha256(tmp_path, text) for text in texts] == [
        (0, "002e97b14fdc1eaedad5d79a90fbe3a55bfb41dc3d3fb1a64c0a92b872cc06e4"),
        (0, "bd677352813984cd41565d24b3ebe93bc7cfff7fef63275d1626f6536729bb29"),
        (0, "d5b0eb5567318f7421739af73dd13422b4f52035b4dfc79ad007b5bd31f0df5b"),
    ]


def test_analyze_json_bytes_at_a_fixed_quarter_shift_are_unchanged(tmp_path, monkeypatch):
    # first recorded when the solver came to shift by a quarter of the
    # maximum degree, and re-pinned as test_analyze_json_bytes_are_pinned's
    fix_shift(monkeypatch, 0.25)
    assert [_analyze_json_sha256(tmp_path, text) for text in _pinned_analyze_texts()] == [
        (0, "1abe4cb8719640f210a0b722e33946e0181a9c8d5febf51e48b7b5dfdea67244"),
        (0, "e7faca0bcb28ff8d36c205fa0d3731fe69d542a805e71c175d1cba590a5c837a"),
        (0, "497407d15169d7f839e7a86cc78169d23c5db3c4d03ccc2979b257122f252d0e"),
    ]


def test_analyze_json_bytes_past_the_power_phase_are_pinned(tmp_path, monkeypatch):
    # The loose path converges in Newton-Noda steps; the star's Newton phase
    # rejects a step and the power iteration finishes it.
    texts = [write_hgr(loose_path(3, 250)), write_hgr(star_with_tail(30, 300))]
    # re-pinned when Newton came to take over after 300 power iterations,
    # solving above the upper ratio and accepting any step that narrows the
    # bracket: both rhos move within their brackets
    assert [_analyze_json_sha256(tmp_path, text) for text in texts] == [
        (0, "63bc64d2250e84e85e4fe1189261ed3f04bfb715c2aa27763d6e778b4ea5f492"),
        (0, "d39e6514a35798cc8f5a02e3e8e4893e7f2c7bc396156a68aa2bc9b6e7592697"),
    ]
    # at a quarter shift the star's power fallback ends on the bytes it
    # ended on before, so only the path moved when these were re-pinned
    fix_shift(monkeypatch, 0.25)
    assert [_analyze_json_sha256(tmp_path, text) for text in texts] == [
        (0, "4afa67350ce5d65bdb2f2defd57caf1c319fea31a77a3250fca4da2b0c1afd60"),
        (0, "5a9852d404c7c9bb923021652b57805d92d427ad68a09a0d6457c82c80b4783c"),
    ]


def test_analyze_bytes_do_not_depend_on_the_builtin_sum(tmp_path, monkeypatch):
    # Python 3.12 made the builtin sum of floats compensated; the gm_lower and
    # hm_lower means must come out the same on every supported Python
    assert compensated_sum([0.1] * 10 + [1e16, 1.0, -1e16]) == 2.0
    monkeypatch.setattr(hgirr.irregularity, "sum", compensated_sum, raising=False)
    test_analyze_json_bytes_are_pinned(tmp_path, monkeypatch)


def test_analyze_checks_an_inline_partition_twice(tmp_path, monkeypatch, capsys):
    # written before the counters are installed: write_hgr checks the
    # partition too
    H, P = random_r_partite((5, 6, 7), 60, seed=4)
    path = tmp_path / "p.hgr"
    path.write_text(write_hgr(H, P))
    calls = {"validate": 0, "s_r": 0, "s_r_measure": 0, "regularize_partitewise": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    violation = counted("validate", hgirr.core.first_partition_violation)
    monkeypatch.setattr(hgirr.core, "first_partition_violation", violation)
    monkeypatch.setattr(hgirr.irregularity, "first_partition_violation", violation)
    monkeypatch.setattr(hgirr.irregularity, "_s_r", counted("s_r", hgirr.irregularity._s_r))
    monkeypatch.setattr(
        hgirr.irregularity,
        "s_r_measure",
        counted("s_r_measure", hgirr.irregularity.s_r_measure),
    )
    monkeypatch.setattr(
        hgirr.irregularity,
        "regularize_partitewise",
        counted("regularize_partitewise", hgirr.irregularity.regularize_partitewise),
    )
    assert main(["analyze", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["s_r"] > 0
    # in parse_hgr and in claim2's rewiring, which bound_suite calls once
    # through the public name so that a tracer wrapping it sees the swaps;
    # s_r is computed for theorem1 and again for the report, never through
    # the checking entry point
    assert calls == {"validate": 2, "s_r": 2, "s_r_measure": 0, "regularize_partitewise": 1}
