"""The solver stack (scipy) loads only in processes that solve.

Each check runs in a fresh interpreter, since this one has long since
imported scipy through other tests.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


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


def test_one_allocation_loads_scipy():
    out = run_fresh(
        "import sys\n"
        "from repro import IPAllocator, compile_program, x86_target\n"
        "fn = compile_program('int dbl(int x) { return x + x; }')"
        ".functions['dbl']\n"
        "before = 'scipy' in sys.modules\n"
        "alloc = IPAllocator(x86_target()).allocate(fn)\n"
        "print(before, 'scipy' in sys.modules, alloc.status)\n"
    )
    assert out == "False True optimal"


def test_pool_parent_loads_scipy_before_forking():
    """Workers inherit the stack copy-on-write instead of each
    importing it on its first task."""
    out = run_fresh(
        "import os, sys\n"
        "from repro.engine import SolverPool\n"
        "seen = []\n"
        "os.register_at_fork(\n"
        "    before=lambda: seen.append('scipy.optimize' in sys.modules))\n"
        "pool = SolverPool(2)\n"
        "assert pool.executor is not None\n"
        "pool.shutdown()\n"
        "print(bool(seen) and all(seen))\n"
    )
    assert out == "True"
