"""OpenBLAS's thread count in a process that imports disq, checked in fresh processes.

Each probe starts with none of OpenBLAS's thread variables set (unless a
test sets one), imports what the test names, runs a 2000 x 2000 product,
which a multi-threaded OpenBLAS splits over its pool, and then counts the
process's threads in /proc/self/task.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

import disq

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = os.path.dirname(os.path.dirname(disq.__file__))

PROBE = """
import json, os, subprocess, sys
before = dict(os.environ)
{imports}
import numpy as np
a = np.ones((2000, 2000))
a @ a
tasks = len(os.listdir("/proc/self/task"))
child = subprocess.run(
    [sys.executable, "-c", "import json, os; print(json.dumps(dict(os.environ)))"],
    capture_output=True, text=True, check=True,
)
print(json.dumps({{
    "tasks": tasks,
    "environ_kept": dict(os.environ) == before,
    "child_environ_kept": json.loads(child.stdout) == before,
}}))
"""

pytestmark = [
    pytest.mark.fresh_process,
    pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads"
    ),
]


@functools.cache
def probe(imports: str, **env_vars: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = SRC
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(imports=imports)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_import_disq_runs_openblas_on_one_thread():
    assert probe("import disq")["tasks"] == 1


def test_import_disq_leaves_the_environment_as_it_was():
    # The child reads the C-level environment, which os.environ's writes
    # reach through putenv and unsetenv.
    got = probe("import disq")
    assert got["environ_kept"] and got["child_environ_kept"]


@pytest.mark.skipif(usable_cpus() < 2, reason="OpenBLAS starts no second thread on one CPU")
def test_the_callers_thread_count_stays_the_override():
    got = probe("import disq", OPENBLAS_NUM_THREADS="2")
    assert got == {"tasks": 2, "environ_kept": True, "child_environ_kept": True}


def test_numpy_imported_first_keeps_its_pool():
    numpy_alone = probe("import numpy")
    got = probe("import numpy; import disq")
    assert got == numpy_alone
    assert got["environ_kept"] and got["child_environ_kept"]
