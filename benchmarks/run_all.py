"""Run every figure sweep and write the outputs to files.

Usage::

    python benchmarks/run_all.py [output_dir] [--json]

Executes the standalone ``sweep()`` of every bench module in paper
order and tees each table both to stdout and to
``<output_dir>/<module>.txt`` (default ``benchmarks/results/``).
These text tables are the measured data EXPERIMENTS.md records.

With ``--json``, additionally writes ``<output_dir>/results.json``
holding, per module, the wall-clock seconds of its sweep and the table
text split into lines — a machine-readable record downstream tooling
can diff across runs without re-parsing aligned columns.

With ``--metrics`` (implies ``--json``), results.json also gains a
``metrics`` section: instrumented reference runs of CubeMiner and RSM
on the standard bench datasets, recording the full
:class:`repro.obs.MiningMetrics` counter set (per-lemma prune hits,
sons, kernel ops) so the BENCH record captures prune-rule
effectiveness alongside timings.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import bench_ablation
import bench_perf
import bench_robustness
import bench_stream
import bench_fig2_ordering
import bench_fig3_vary_minc
import bench_fig4_vary_minh
import bench_fig5_vary_minr
import bench_fig6_parallel
import bench_fig7_vary_heights
import bench_fig8_large

MODULES = [
    bench_fig2_ordering,
    bench_fig3_vary_minc,
    bench_fig4_vary_minh,
    bench_fig5_vary_minr,
    bench_fig6_parallel,
    bench_fig7_vary_heights,
    bench_fig8_large,
    bench_ablation,
    bench_robustness,
    bench_perf,
    bench_stream,
]


def _collect_metrics() -> dict[str, dict]:
    """Instrumented reference runs recording prune-rule effectiveness."""
    from common import cdc15_bench, elutriation_bench, scale_minc
    from repro.api import mine
    from repro.core.constraints import Thresholds

    runs = {
        "elutriation-cubeminer": ("cubeminer", elutriation_bench(),
                                  Thresholds(4, 4, scale_minc(40, 7161))),
        "elutriation-rsm": ("rsm", elutriation_bench(),
                            Thresholds(4, 4, scale_minc(40, 7161))),
        "cdc15-cubeminer": ("cubeminer", cdc15_bench(),
                            Thresholds(5, 4, scale_minc(40, 7761))),
    }
    section: dict[str, dict] = {}
    for name, (algorithm, dataset, thresholds) in runs.items():
        result = mine(dataset, thresholds, algorithm=algorithm)
        section[name] = {
            "algorithm": result.algorithm,
            "n_cubes": len(result),
            "elapsed_seconds": round(result.elapsed_seconds, 3),
            "stats": result.stats.to_dict(),
        }
    return section


def main(
    output_dir: str | None = None,
    write_json: bool = False,
    with_metrics: bool = False,
) -> int:
    out_root = Path(output_dir or Path(__file__).parent / "results")
    out_root.mkdir(parents=True, exist_ok=True)
    grand_start = time.perf_counter()
    records: dict[str, dict] = {}
    failed: list[str] = []
    for module in MODULES:
        name = module.__name__
        print(f"\n### {name} ###")
        start = time.perf_counter()
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                module.sweep()
        except Exception:
            # A broken sweep must not hide the remaining figures, but
            # the run as a whole reports failure (non-zero exit).
            failed.append(name)
            text = buffer.getvalue()
            print(text, end="")
            print(f"### {name} FAILED ###", file=sys.stderr)
            traceback.print_exc()
            records[name] = {
                "elapsed_seconds": round(time.perf_counter() - start, 3),
                "table_lines": text.splitlines(),
                "error": traceback.format_exc().splitlines()[-1],
            }
            continue
        text = buffer.getvalue()
        print(text, end="")
        elapsed = time.perf_counter() - start
        print(f"### {name} done in {elapsed:.1f}s ###")
        (out_root / f"{name}.txt").write_text(text)
        records[name] = {
            "elapsed_seconds": round(elapsed, 3),
            "table_lines": text.splitlines(),
        }
    total = time.perf_counter() - grand_start
    if write_json or with_metrics:
        payload = {
            "total_seconds": round(total, 3),
            "modules": records,
        }
        if with_metrics:
            print("### collecting instrumentation metrics ###")
            payload["metrics"] = _collect_metrics()
        json_path = out_root / "results.json"
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"json results in {json_path}")
    if failed:
        print(f"\n{len(failed)} sweep(s) FAILED: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print(f"\n{len(MODULES)} sweeps done in {total:.1f}s; "
          f"tables in {out_root}/")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output_dir", nargs="?", default=None,
                        help="where to write the tables (default benchmarks/results/)")
    parser.add_argument("--json", action="store_true",
                        help="also write machine-readable results.json")
    parser.add_argument("--metrics", action="store_true",
                        help="add instrumented prune-rule counters to "
                             "results.json (implies --json)")
    args = parser.parse_args()
    sys.exit(main(args.output_dir, write_json=args.json, with_metrics=args.metrics))
