"""Recompute ``perfbench/digests.json``: the default seed's answers.

Every operation's answer is computed on the independent path (the one
``run.py`` checks against after the timed region) at the default seed
and stored as the sha256 of its canonical cube list.  ``run.py`` then
also requires the timed answers to match these pinned digests whenever
it runs at the default seed, so a change that breaks both paths alike
still fails.

Usage, from the repository root::

    python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    tmp_root = Path(tempfile.mkdtemp(prefix="pin-", dir=run._mkdir(run.ROOT / ".bench_tmp")))
    pinned = {}
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.make(name, run.DEFAULT_SEED, tmp_root, 1)
            workload.setup()
            try:
                digests = {}
                for index in range(workload.max_passes or 1):
                    digests.update(workload.expected(index))
            finally:
                workload.close()
            pinned[name] = dict(sorted(digests.items()))
            print(f"{name}: {len(digests)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_root.parent.rmdir()
        except OSError:
            pass
        run.stop_resource_tracker()
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
