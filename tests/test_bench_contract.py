"""The benchmark harness still runs against the program, traced.

`bench/spans.py` wraps every public function and class of the modules it
lists, and `bench/run.py` drives `cli.main` and `construct` in process, so
a renamed or deleted layer module, function or option breaks the benchmark
without failing any other test.  Each workload runs here for its fixed
traced rounds on a copy of `bench/` whose `src` is a link to this
checkout's, so the run's output files land in the temporary directory.
A renamed counted function only zeroes its counter, so the names that
`bench/spans.py` counts or hooks are also looked up in the program.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dual-derive", "norm-pullback", "pencil-degrees")


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench-contract")
    (root / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, root / "bench" / path.name)
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_is_correct(bench_copy, workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--trace", "1"],
        cwd=bench_copy, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


# Counted names that no longer exist in `src/`; their counters read 0 on
# every workload until the benchmark itself is re-drawn.
DEAD_COUNTED = {
    ("construct", "dual_point_on_fiber"),
    ("exactalg.scalars", "Cyclotomic.inverse"),
    ("exactalg.matrix", "exact_matrix_nullspace"),
    ("exactalg.poly", "SparseMultiPoly.evaluate"),
}


def test_hooked_names_resolve_in_the_program():
    # a renamed hook target reads 0 per job without failing the traced run
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooked = set(spans.COUNTED) | {("perm", "orbit_decomposition")}
    missing = set()
    for layer, name in hooked:
        target = importlib.import_module(f"multisec.{layer}")
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.add((layer, name))
    assert missing <= DEAD_COUNTED, sorted(missing - DEAD_COUNTED)
