"""Smoke test of the benchmark: every workload at a tiny size, in this process.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import math
import re
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(autouse=True)
def restore_package_modules():
    """The benchmark re-imports hgirr; hand later tests the modules they imported."""
    saved = {k: v for k, v in sys.modules.items() if k == "hgirr" or k.startswith("hgirr.")}
    yield
    for name in [k for k in sys.modules if k == "hgirr" or k.startswith("hgirr.")]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace, tmp_path):
    record = run.run(workload, seed=5, seconds=0.01, trace=trace, scale="tiny", work=tmp_path)
    summary = record["summary"]
    assert summary["correct"], record["wrong"]
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: metric["unit"] for name, metric in summary["metrics"].items()}
    assert printed == listed
    for name, metric in summary["metrics"].items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(metric["unit"])
        assert math.isfinite(metric["value"])
        # end-to-end metrics are compared as shares of their median
        assert trace or metric["value"] > 0
    assert record["absent"] == []
    json.loads(json.dumps(summary))


def test_wrong_reference_rho_is_a_failure(tmp_path, monkeypatch):
    reference_bracket = run.instances.reference_bracket

    def wrong_bracket(inst):
        lo, hi = reference_bracket(inst)
        return lo * 1.001, hi * 1.001

    monkeypatch.setattr(run.instances, "reference_bracket", wrong_bracket)
    record = run.run("analyze-uniform", seed=5, seconds=0.01, trace=False, scale="tiny", work=tmp_path)
    summary = record["summary"]
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"]
    assert any("outside the reference" in problem for problem in record["wrong"])


def test_removed_public_name_is_reported_absent(monkeypatch):
    _, cli = run.import_package()
    core = sys.modules["hgirr.core"]
    monkeypatch.setattr(core, "__all__", [name for name in core.__all__ if name != "components"])
    tracer = run.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--count", "3"]) == 0
    finally:
        tracer.uninstall()
    values, absent = tracer.layer_metrics(matvec_s=1e-6, overhead_ratio=1.0)
    assert absent == ["core.components_s", "core.components_calls"]
    assert values["core.components_calls"] == 0.0
    assert values["spectral.solve_calls"] >= 3
