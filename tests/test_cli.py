"""Tests for the python -m repro command-line interface."""

import numpy as np
import pytest

from repro.__main__ import main, stdout_to_stderr
from repro.solver import IPModel, Sense, solve

SOURCE = """
int helper(int a) { return a * 3; }
int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i += 1) { s += helper(i); }
    return s;
}
"""


@pytest.fixture()
def program(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


class TestCLI:
    def test_alloc_all_functions(self, program, capsys):
        assert main(["alloc", program]) == 0
        out = capsys.readouterr().out
        assert "helper: optimal" in out
        assert "main: optimal" in out
        assert "assignment:" in out
        assert "code size:" in out

    def test_alloc_single_function(self, program, capsys):
        assert main(["alloc", program, "--function", "helper"]) == 0
        out = capsys.readouterr().out
        assert "helper" in out and "main: " not in out

    def test_alloc_gc(self, program, capsys):
        assert main(["alloc", program, "--allocator", "gc"]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_alloc_risc_target(self, program, capsys):
        assert main(["alloc", program, "--target", "risc"]) == 0
        assert "r0" in capsys.readouterr().out

    def test_alloc_size_only(self, program, capsys):
        assert main(["alloc", program, "--size-only"]) == 0

    def test_alloc_branch_bound_backend(self, program, capsys):
        assert main([
            "alloc", program, "--function", "helper",
            "--backend", "branch-bound",
        ]) == 0
        assert "optimal" in capsys.readouterr().out

    def test_run_symbolic(self, program, capsys):
        assert main([
            "run", program, "--args", "5", "--allocator", "none",
        ]) == 0
        out = capsys.readouterr().out
        assert "symbolic result: 30" in out

    def test_run_ip(self, program, capsys):
        assert main(["run", program, "--args", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("30") >= 2  # symbolic and allocated agree

    def test_run_gc(self, program, capsys):
        assert main([
            "run", program, "--args", "4", "--allocator", "gc",
        ]) == 0
        out = capsys.readouterr().out
        assert "graph-coloring result" in out

    def test_report_json_carries_trace_id(self, program, tmp_path):
        import json

        path = tmp_path / "report.json"
        assert main([
            "alloc", program, "--function", "helper",
            "--report-json", str(path), "--trace-id", "ci-run-7",
        ]) == 0
        report = json.loads(path.read_text())
        assert report["trace_id"] == "ci-run-7"
        assert report["functions"][0]["trace_id"] == "ci-run-7"

    def test_report_json_generates_trace_id(self, program, tmp_path):
        import json

        path = tmp_path / "report.json"
        assert main([
            "alloc", program, "--function", "helper",
            "--report-json", str(path),
        ]) == 0
        report = json.loads(path.read_text())
        assert report["trace_id"].startswith("run-")
        assert report["functions"][0]["trace_id"] == \
            report["trace_id"]


def knapsack_model(seed: int) -> IPModel:
    """300 binaries with random negative costs under three random
    30-term knapsack rows."""
    rng = np.random.default_rng(seed)
    m = IPModel("knapsacks")
    xs = [m.add_var(f"x{i}", -float(rng.integers(1, 100)))
          for i in range(300)]
    for r in range(3):
        cols = rng.choice(300, size=30, replace=False)
        weights = rng.integers(1, 50, size=30)
        m.add_constraint(
            [(float(w), xs[j]) for w, j in zip(weights, cols)],
            Sense.LE, float(weights.sum()) / 3, f"r{r}",
        )
    return m


def test_solve_phase_keeps_highs_off_stdout(capfd):
    # on this model HiGHS's MIP run writes
    # "HighsMipSolverData::transformNewIntegerFeasibleSolution ..."
    # lines to fd 1 from C, presolve on or off
    with stdout_to_stderr():
        solve(knapsack_model(7), "scipy", time_limit=30)
    out, err = capfd.readouterr()
    assert out == ""
    assert "transformNewIntegerFeasibleSolution" in err
