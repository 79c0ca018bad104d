"""Self-test: the benchmark's checks fail closed on a corrupted answer.

For every workload, one pass is verified as produced, where it must
score ``fail_ratio == 0``, and a second with one operation's answer
altered (one cube's column mask flipped), where ``fail_ratio`` must
rise above 0.

Usage, from the repository root; exits 0 when every check holds::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def fail_ratio(workload, index: int, corrupt: bool) -> float:
    ops = workload.run_pass(index)
    run.settle(ops, corrupt_first=corrupt)
    verdict = run.verify(workload, run.Passes(times=[0.0], ops=[(index, ops)]), {})
    return verdict["failed"] / verdict["attempted"]


def main() -> int:
    tmp_root = Path(tempfile.mkdtemp(prefix="selftest-", dir=run._mkdir(run.ROOT / ".bench_tmp")))
    ok = True
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.make(name, run.DEFAULT_SEED, tmp_root, 1)
            workload.setup()
            try:
                # Two passes: the service's pass index picks a fresh dataset.
                clean = fail_ratio(workload, 0, corrupt=False)
                corrupted = fail_ratio(workload, 1, corrupt=True)
            finally:
                workload.close()
            passed = clean == 0 and corrupted > 0
            ok &= passed
            print(f"{name}: fail_ratio clean={clean:.4f} corrupted={corrupted:.4f} "
                  f"{'ok' if passed else 'FAILED'}")
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_root.parent.rmdir()
        except OSError:
            pass
        run.stop_resource_tracker()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
