"""The solver stack loads only in processes that solve, and the HiGHS
path loads only numpy and HiGHS's binding.

Each check runs in a fresh interpreter, since this one has long since
imported scipy through other tests.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: the HiGHS binding's module, the one part of scipy the default
#: backend loads
CORE = "scipy.optimize._highspy._core"

#: a function whose allocation model needs a real solve
LOOP = (
    "int f(int x, int y) { int z = x * y;"
    " while (x > 0) { z = z + y; x = x - 1; } return z + y; }"
)


def run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_serving_imports_leave_scipy_out():
    out = run_fresh(
        "import sys\n"
        "import repro, repro.__main__, repro.gateway, repro.service\n"
        "import repro.engine\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy'))\n"
    )
    assert out == "[]"


def test_one_allocation_loads_only_the_highs_binding():
    out = run_fresh(
        "import sys\n"
        "from repro import IPAllocator, compile_program, x86_target\n"
        f"CORE = {CORE!r}\n"
        "fn = compile_program('int dbl(int x) { return x + x; }')"
        ".functions['dbl']\n"
        "before = CORE in sys.modules\n"
        "alloc = IPAllocator(x86_target()).allocate(fn)\n"
        "print(before, CORE in sys.modules, alloc.status)\n"
        "print('scipy.sparse' in sys.modules,"
        " 'scipy.optimize' in sys.modules)\n"
    )
    assert out.splitlines() == ["False True optimal", "False False"]


def test_pool_parent_loads_highs_before_forking():
    """Workers inherit the binding copy-on-write instead of each
    loading it on its first task."""
    out = run_fresh(
        "import os, sys\n"
        "from repro.engine import SolverPool\n"
        "seen = []\n"
        "os.register_at_fork(\n"
        f"    before=lambda: seen.append({CORE!r} in sys.modules))\n"
        "pool = SolverPool(2)\n"
        "assert pool.executor is not None\n"
        "pool.shutdown()\n"
        "print(bool(seen) and all(seen))\n"
    )
    assert out == "True"


def allocate_in_order(first: str, second: str) -> str:
    """Allocate ``LOOP`` with two backends in one fresh process; print
    both objectives and whether HiGHS's users share one binding."""
    return run_fresh(
        "import sys\n"
        "from repro import AllocatorConfig, IPAllocator, "
        "compile_program, x86_target\n"
        f"fn = compile_program({LOOP!r}).functions['f']\n"
        "objectives = [IPAllocator(x86_target(), "
        "AllocatorConfig(backend=b)).allocate(fn).objective\n"
        f"              for b in ({first!r}, {second!r})]\n"
        "from repro.solver import scipy_backend\n"
        "from scipy.optimize._highspy import _highs_wrapper\n"
        f"core = sys.modules[{CORE!r}]\n"
        "print(objectives[0] == objectives[1],\n"
        "      scipy_backend.highspy is core and _highs_wrapper._h is core)\n"
    )


def test_branch_bound_after_highs_shares_the_binding():
    assert allocate_in_order("scipy", "branch-bound") == "True True"


def test_branch_bound_before_highs_shares_the_binding():
    assert allocate_in_order("branch-bound", "scipy") == "True True"
