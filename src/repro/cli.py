"""Command-line interface: ``repro-fcc``.

Subcommands::

    repro-fcc generate  — create a synthetic dataset and save it as .npz
    repro-fcc stats     — profile a dataset (shape, density, cutters)
    repro-fcc mine      — mine FCCs with any algorithm in the library
    repro-fcc rules     — mine FCCs and derive 3D association rules
    repro-fcc report    — mine and print a full analysis report
    repro-fcc convert   — convert between npz / dense text / triples
    repro-fcc trace     — render the CubeMiner tree or RSM walk-through
    repro-fcc verify    — check a JSON result against a dataset
    repro-fcc explore   — find the minC that fits a cube budget
    repro-fcc topk      — find the k largest closed cubes
    repro-fcc example   — reproduce the paper's running example tables
    repro-fcc serve     — run the persistent mining service daemon
    repro-fcc submit    — submit a mining job to a running daemon
    repro-fcc jobs      — list/inspect/cancel jobs on a daemon
    repro-fcc update    — apply a delta batch: patch a local result
                          incrementally, or POST to a daemon
    repro-fcc fsck      — check (and optionally repair) a service
                          data directory

Every command prints human-readable text to stdout; ``mine`` exits 0
even when no cube is found (an empty result is a valid answer).  The
mining commands accept ``--progress`` (periodic status on stderr),
``--deadline SECONDS`` (cooperative wall-clock budget; a run cut short
exits 124 after printing its partial result) and ``--metrics-json PATH``
(dump the run's instrumentation counters).  Parallel algorithms add
fault-tolerance knobs: ``--retries`` / ``--task-timeout`` /
``--backoff`` configure the supervisor, and ``--checkpoint PATH`` /
``--resume`` enable chunk-level checkpoint/resume.  A malformed
dataset file exits 65 (``EX_DATAERR``) with the offending line — and the
same code covers every *corrupt store* the service commands can hit:
``serve`` refuses to start over a structurally broken data directory,
``fsck`` reports an unreadable one, and ``update`` rejects an unreadable
base result, all exiting 65 with a typed message.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .analysis import dataset_stats, derive_rules, result_stats
from .api import ALGORITHMS, mine
from .core.constraints import Thresholds
from .core.dataset import Dataset3D
from .core.kernels import available_kernels
from .cubeminer.cutter import HeightOrder
from .datasets import (
    cdc15_like,
    elutriation_like,
    paper_example,
    planted_tensor,
    random_tensor,
)
from .fcp import FCP_MINERS
from .io import DatasetFormatError
from .obs import MiningCancelled
from .options import CubeMinerOptions, ParallelOptions, ReferenceOptions, RSMOptions

#: Exit code of a run cancelled by ``--deadline`` (same convention as
#: timeout(1)).
EXIT_DEADLINE = 124

#: Exit code for a malformed dataset file (BSD ``EX_DATAERR``).
EXIT_DATA = 65

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fcc",
        description="Frequent Closed Cube mining (VLDB 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset (.npz)")
    gen.add_argument(
        "--kind",
        choices=("random", "planted", "elutriation", "cdc15"),
        default="random",
    )
    gen.add_argument("--shape", type=int, nargs=3, metavar=("L", "N", "M"),
                     default=(8, 10, 50), help="heights rows columns")
    gen.add_argument("--density", type=float, default=0.3)
    gen.add_argument("--genes", type=int, default=800,
                     help="gene count for microarray kinds")
    gen.add_argument("--blocks", type=int, default=3,
                     help="planted block count for --kind planted")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output .npz path")

    stats = sub.add_parser("stats", help="profile a dataset")
    stats.add_argument("--input", required=True, help=".npz dataset path")

    mine_cmd = sub.add_parser("mine", help="mine frequent closed cubes")
    _add_mine_arguments(mine_cmd)
    mine_cmd.add_argument("--show", type=int, default=20,
                          help="print at most this many cubes (0 = none)")
    mine_cmd.add_argument("--out-json", help="also write the result as JSON")
    mine_cmd.add_argument("--out-csv", help="also write the result as CSV")

    rules = sub.add_parser("rules", help="mine FCCs and derive 3D rules")
    _add_mine_arguments(rules)
    rules.add_argument("--min-confidence", type=float, default=0.6)
    rules.add_argument("--max-antecedent", type=int, default=2)
    rules.add_argument("--show", type=int, default=20)

    report = sub.add_parser(
        "report", help="mine and print a full analysis report"
    )
    _add_mine_arguments(report)
    report.add_argument("--top-cubes", type=int, default=10)
    report.add_argument("--min-confidence", type=float, default=0.8)

    convert = sub.add_parser(
        "convert", help="convert a dataset between npz/dense-text/triples"
    )
    convert.add_argument("--input", required=True,
                         help="source: .npz, .txt (dense) or .triples")
    convert.add_argument("--out", required=True,
                         help="destination: .npz, .txt (dense) or .triples")

    trace = sub.add_parser(
        "trace", help="render the CubeMiner tree or RSM table (small data)"
    )
    trace.add_argument("--input", required=True, help=".npz dataset path")
    trace.add_argument("--kind", choices=("tree", "rsm"), default="tree")
    trace.add_argument("--min-h", type=int, default=2)
    trace.add_argument("--min-r", type=int, default=2)
    trace.add_argument("--min-c", type=int, default=2)

    verify = sub.add_parser(
        "verify", help="check a JSON result against a dataset"
    )
    verify.add_argument("--input", required=True, help=".npz dataset path")
    verify.add_argument("--result", required=True, help="result JSON path")
    verify.add_argument("--complete", action="store_true",
                        help="also check completeness (small datasets)")
    verify.add_argument("--show", type=int, default=10,
                        help="print at most this many violations")

    explore = sub.add_parser(
        "explore", help="find the minC that fits a cube budget"
    )
    explore.add_argument("--input", required=True, help=".npz dataset path")
    explore.add_argument("--min-h", type=int, default=2)
    explore.add_argument("--min-r", type=int, default=2)
    explore.add_argument("--min-c", type=int, default=1,
                         help="lower bound of the search")
    explore.add_argument("--max-cubes", type=int, required=True)

    topk = sub.add_parser("topk", help="find the k largest closed cubes")
    topk.add_argument("--input", required=True, help=".npz dataset path")
    topk.add_argument("-k", type=int, default=10)
    topk.add_argument("--min-h", type=int, default=1)
    topk.add_argument("--min-r", type=int, default=1)
    topk.add_argument("--min-c", type=int, default=1)

    sub.add_parser("example", help="reproduce the paper's running example")

    serve_cmd = sub.add_parser(
        "serve", help="run the persistent mining service daemon"
    )
    serve_cmd.add_argument("--data-dir", required=True,
                           help="directory for datasets, jobs and the "
                                "result cache (created if missing)")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8765,
                           help="TCP port (0 picks an ephemeral one)")
    serve_cmd.add_argument("--max-workers", type=int, default=2,
                           help="concurrent mining worker processes")
    serve_cmd.add_argument("--mmap", dest="mmap", action="store_true",
                           help="hand workers memory-mapped packed grids "
                                "(out-of-core mode: mines tensors larger "
                                "than RAM)")
    serve_cmd.add_argument("--in-memory", dest="mmap", action="store_false",
                           help="load datasets fully into worker memory "
                                "(the default)")
    serve_cmd.set_defaults(mmap=False)
    serve_cmd.add_argument("--max-queued", type=int, default=None,
                           help="admission control: reject submissions "
                                "with HTTP 429 once this many jobs are "
                                "queued (default: unbounded)")
    serve_cmd.add_argument("--max-retries", type=int, default=2,
                           help="retry budget per job before it is "
                                "quarantined")
    serve_cmd.add_argument("--heartbeat-timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="watchdog: kill and requeue a worker "
                                "whose event journal goes silent this "
                                "long (default: off)")
    serve_cmd.add_argument("--drain-timeout", type=float, default=30.0,
                           metavar="SECONDS",
                           help="on SIGTERM, wait this long for running "
                                "jobs to finish before closing")
    serve_cmd.add_argument("--no-fsck", dest="fsck", action="store_false",
                           help="skip the structural store check at "
                                "startup")
    serve_cmd.set_defaults(fsck=True)
    serve_cmd.add_argument("--verbose", action="store_true",
                           help="log every request to stderr")

    fsck_cmd = sub.add_parser(
        "fsck",
        help="check (and optionally repair) a service data directory",
        description="Walk every on-disk store of a service data "
                    "directory — dataset registry, result cache, job "
                    "directories, delta logs, mmap grids — verifying "
                    "structure and content checksums.  Exits 0 when "
                    "clean, 1 when unrepaired issues remain, 65 when "
                    "the directory itself is unreadable.  --repair "
                    "moves damaged files to quarantined/fsck/ and "
                    "sweeps stale temporaries.",
    )
    fsck_cmd.add_argument("--data-dir", required=True,
                          help="service data directory to check")
    fsck_cmd.add_argument("--repair", action="store_true",
                          help="quarantine damaged files and sweep "
                               "stale temporaries")
    fsck_cmd.add_argument("--no-verify", dest="verify_checksums",
                          action="store_false",
                          help="structural checks only (skip content "
                               "checksums; much faster on big stores)")
    fsck_cmd.set_defaults(verify_checksums=True)
    fsck_cmd.add_argument("--json", action="store_true",
                          help="print the full report as JSON")

    submit = sub.add_parser(
        "submit", help="submit a mining job to a running daemon"
    )
    submit.add_argument("--server", default="http://127.0.0.1:8765")
    submit.add_argument("--input", required=True,
                        help="dataset to upload: .npz, .triples or dense text")
    submit.add_argument("--min-h", type=int, default=2)
    submit.add_argument("--min-r", type=int, default=2)
    submit.add_argument("--min-c", type=int, default=2)
    submit.add_argument("--min-volume", type=int, default=1)
    submit.add_argument("--algorithm", choices=ALGORITHMS, default="cubeminer")
    submit.add_argument("--no-cache", dest="use_cache", action="store_false",
                        help="force a fresh mine past the result cache")
    submit.add_argument("--no-wait", dest="wait", action="store_false",
                        help="return immediately with the job id")
    submit.add_argument("--show", type=int, default=10,
                        help="print at most this many cubes (0 = none)")

    update_cmd = sub.add_parser(
        "update",
        help="apply a delta batch to a dataset (incremental maintenance)",
        description="Apply a JSON delta batch.  Local mode (--input + "
                    "--result) patches an existing mining result through "
                    "the incremental maintainer — bit-identical to "
                    "re-mining, without the re-mine.  Server mode "
                    "(--dataset) POSTs the batch to a running daemon, "
                    "which registers the successor dataset and patches "
                    "its result cache forward.",
    )
    update_cmd.add_argument("--updates", required=True, metavar="FILE",
                            help="JSON delta batch: a list of delta "
                                 "objects, or {\"deltas\": [...]}")
    update_cmd.add_argument("--input", default=None,
                            help="local mode: base .npz dataset path")
    update_cmd.add_argument("--result", default=None,
                            help="local mode: base result JSON "
                                 "(from mine --out-json)")
    update_cmd.add_argument("--out", default=None,
                            help="local mode: write the updated dataset "
                                 "to this .npz path")
    update_cmd.add_argument("--out-json", default=None,
                            help="local mode: write the maintained "
                                 "result as JSON")
    update_cmd.add_argument("--show", type=int, default=10,
                            help="print at most this many cubes (0 = none)")
    update_cmd.add_argument("--server", default="http://127.0.0.1:8765")
    update_cmd.add_argument("--dataset", default=None, metavar="FINGERPRINT",
                            help="server mode: fingerprint of the "
                                 "registered dataset to update")

    jobs_cmd = sub.add_parser(
        "jobs", help="list jobs on a daemon, or inspect/cancel one"
    )
    jobs_cmd.add_argument("--server", default="http://127.0.0.1:8765")
    jobs_cmd.add_argument("--job", default=None, help="job id to inspect")
    jobs_cmd.add_argument("--events", action="store_true",
                          help="with --job: print the event journal")
    jobs_cmd.add_argument("--cancel", action="store_true",
                          help="with --job: cancel it")
    return parser


def _add_mine_arguments(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--input", required=True, help=".npz dataset path")
    cmd.add_argument("--min-h", type=int, default=2)
    cmd.add_argument("--min-r", type=int, default=2)
    cmd.add_argument("--min-c", type=int, default=2)
    cmd.add_argument("--min-volume", type=int, default=1,
                     help="minimum cube volume (cells); 1 = no constraint")
    cmd.add_argument("--algorithm", choices=ALGORITHMS, default="cubeminer")
    cmd.add_argument("--base-axis", default="auto",
                     help="RSM base dimension: height/row/column/auto")
    cmd.add_argument("--fcp-miner", choices=sorted(FCP_MINERS), default="dminer")
    cmd.add_argument("--order", choices=[o.value for o in HeightOrder],
                     default=HeightOrder.ZERO_DECREASING.value,
                     help="CubeMiner height-slice ordering")
    cmd.add_argument("--workers", type=int, default=2,
                     help="worker processes for parallel algorithms")
    cmd.add_argument("--retries", type=int, default=2,
                     help="parallel: retry budget per task chunk")
    cmd.add_argument("--task-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="parallel: per-chunk wall-clock timeout "
                          "(hung chunks are killed and retried)")
    cmd.add_argument("--backoff", type=float, default=0.1, metavar="SECONDS",
                     help="parallel: base delay of the exponential "
                          "retry backoff")
    cmd.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="parallel: stream completed chunks to this "
                          "journal for checkpoint/resume")
    cmd.add_argument("--resume", action="store_true",
                     help="parallel: resume from --checkpoint instead "
                          "of starting over")
    cmd.add_argument("--kernel", choices=available_kernels(), default=None,
                     help="bitset kernel backend (default: $REPRO_KERNEL "
                          "or python-int)")
    cmd.add_argument("--progress", action="store_true",
                     help="print periodic progress lines to stderr")
    cmd.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                     help="wall-clock budget; a cancelled run prints its "
                          f"partial result and exits {EXIT_DEADLINE}")
    cmd.add_argument("--metrics-json", default=None, metavar="PATH",
                     help="write the run's instrumentation counters as JSON")


def _generate(args: argparse.Namespace) -> int:
    if args.kind == "random":
        dataset = random_tensor(tuple(args.shape), args.density, seed=args.seed)
    elif args.kind == "planted":
        dataset = planted_tensor(
            tuple(args.shape),
            n_blocks=args.blocks,
            background_density=args.density,
            seed=args.seed,
        ).dataset
    elif args.kind == "elutriation":
        dataset = elutriation_like(args.genes, seed=args.seed)
    else:
        dataset = cdc15_like(args.genes, seed=args.seed)
    dataset.save_npz(args.out)
    print(f"wrote {dataset!r} to {args.out}")
    return 0


def _load(path: str) -> Dataset3D:
    try:
        return Dataset3D.load_npz(path)
    except FileNotFoundError:
        raise SystemExit(f"error: dataset file not found: {path}")
    except (ValueError, KeyError, OSError) as error:
        # Not a readable npz tensor (corrupt file, wrong format, text
        # passed where .npz is expected): exit 65 like other bad data.
        print(f"error: {path}: not a readable .npz dataset ({error})",
              file=sys.stderr)
        raise SystemExit(EXIT_DATA) from None


def _options_from_args(args: argparse.Namespace):
    """Build the typed options dataclass for the selected algorithm."""
    if args.algorithm == "cubeminer":
        return CubeMinerOptions(order=HeightOrder(args.order))
    if args.algorithm == "rsm":
        return RSMOptions(base_axis=args.base_axis, fcp_miner=args.fcp_miner)
    if args.algorithm in ("parallel-rsm", "parallel-cubeminer"):
        fault_tolerance = {
            "retries": args.retries,
            "task_timeout": args.task_timeout,
            "backoff": args.backoff,
            "checkpoint_path": args.checkpoint,
            "resume": args.resume,
        }
        if args.algorithm == "parallel-rsm":
            return ParallelOptions(
                n_workers=args.workers,
                base_axis=args.base_axis,
                fcp_miner=args.fcp_miner,
                **fault_tolerance,
            )
        return ParallelOptions(
            n_workers=args.workers,
            order=HeightOrder(args.order),
            **fault_tolerance,
        )
    return ReferenceOptions()


def _print_progress(update) -> None:
    print(f"[progress] {update.format()}", file=sys.stderr, flush=True)


def _write_metrics_json(args: argparse.Namespace, result) -> None:
    path = getattr(args, "metrics_json", None)
    if not path:
        return
    payload = {
        "algorithm": result.algorithm,
        "dataset_shape": list(result.dataset_shape),
        "n_cubes": len(result),
        "elapsed_seconds": result.elapsed_seconds,
        "stats": result.stats.to_dict(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote metrics to {path}")


def _mine_with_args(args: argparse.Namespace):
    dataset = _load(args.input)
    thresholds = Thresholds(
        args.min_h, args.min_r, args.min_c, min_volume=args.min_volume
    )
    kwargs = {}
    if args.kernel:
        kwargs["kernel"] = args.kernel
    if getattr(args, "progress", False):
        kwargs["progress"] = _print_progress
    if getattr(args, "deadline", None) is not None:
        kwargs["deadline"] = args.deadline
    try:
        result = mine(
            dataset,
            thresholds,
            algorithm=args.algorithm,
            options=_options_from_args(args),
            **kwargs,
        )
    except MiningCancelled as exc:
        print(f"mining cancelled: {exc.reason}", file=sys.stderr)
        if exc.partial is not None:
            print("partial result:")
            print(exc.partial.summary())
            _write_metrics_json(args, exc.partial)
        raise SystemExit(EXIT_DEADLINE)
    _write_metrics_json(args, result)
    return dataset, result


def _mine(args: argparse.Namespace) -> int:
    dataset, result = _mine_with_args(args)
    print(result.summary())
    print(result_stats(dataset, result).format())
    if args.show:
        for cube in list(result)[: args.show]:
            print(" ", cube.format(dataset))
        if len(result) > args.show:
            print(f"  ... and {len(result) - args.show} more")
    if args.out_json:
        from .io import result_to_json

        with open(args.out_json, "w") as handle:
            handle.write(result_to_json(result, dataset))
        print(f"wrote JSON to {args.out_json}")
    if args.out_csv:
        from .io import result_to_csv

        with open(args.out_csv, "w") as handle:
            handle.write(result_to_csv(result, dataset))
        print(f"wrote CSV to {args.out_csv}")
    return 0


def _load_any(path: str) -> Dataset3D:
    """Load a dataset by extension: .npz, .triples, or dense text."""
    from .io import load_triples

    if path.endswith(".npz"):
        return _load(path)
    try:
        if path.endswith(".triples"):
            return load_triples(path)
        with open(path) as handle:
            return Dataset3D.from_text(handle.read())
    except FileNotFoundError:
        raise SystemExit(f"error: dataset file not found: {path}")
    except DatasetFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(EXIT_DATA) from None


def _convert(args: argparse.Namespace) -> int:
    from .io import save_triples

    dataset = _load_any(args.input)
    out = args.out
    if out.endswith(".npz"):
        dataset.save_npz(out)
    elif out.endswith(".triples"):
        save_triples(dataset, out)
    else:
        with open(out, "w") as handle:
            handle.write(dataset.to_text())
    print(f"wrote {dataset!r} to {out}")
    return 0


def _trace(args: argparse.Namespace) -> int:
    from .cubeminer.trace import render_tree, trace_tree
    from .rsm.trace import render_rsm_table, trace_rsm

    dataset = _load(args.input)
    thresholds = Thresholds(args.min_h, args.min_r, args.min_c)
    try:
        if args.kind == "tree":
            print(render_tree(trace_tree(dataset, thresholds), dataset))
        else:
            print(render_rsm_table(trace_rsm(dataset, thresholds), dataset))
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    return 0


def _rules(args: argparse.Namespace) -> int:
    dataset, result = _mine_with_args(args)
    print(result.summary())
    rules = derive_rules(
        dataset,
        result,
        min_confidence=args.min_confidence,
        max_antecedent=args.max_antecedent,
    )
    print(f"{len(rules)} rule(s) at confidence >= {args.min_confidence}")
    for rule in rules[: args.show]:
        print(" ", rule.format(dataset))
    if len(rules) > args.show:
        print(f"  ... and {len(rules) - args.show} more")
    return 0


def _stats(args: argparse.Namespace) -> int:
    dataset = _load(args.input)
    print(dataset_stats(dataset).format())
    return 0


def _example(_args: argparse.Namespace) -> int:
    from .cubeminer.trace import render_tree, trace_tree
    from .rsm.trace import render_rsm_table, trace_rsm

    dataset = paper_example()
    thresholds = Thresholds(2, 2, 2)
    print("== Paper running example (Table 1), minH=minR=minC=2 ==\n")
    print("-- RSM walk-through (Table 2) --")
    print(render_rsm_table(trace_rsm(dataset, thresholds), dataset))
    print("\n-- CubeMiner tree (Figure 1) --")
    print(render_tree(trace_tree(dataset, thresholds), dataset))
    result = mine(dataset, thresholds)
    print("\n-- FCCs --")
    print(result.format_table(dataset))
    return 0


def _report(args: argparse.Namespace) -> int:
    from .analysis.report import mining_report

    dataset, result = _mine_with_args(args)
    print(
        mining_report(
            dataset,
            result,
            top_cubes=args.top_cubes,
            min_confidence=args.min_confidence,
        )
    )
    return 0


def _topk(args: argparse.Namespace) -> int:
    from .analysis.topk import top_k_by_volume

    dataset = _load(args.input)
    base = Thresholds(args.min_h, args.min_r, args.min_c)
    cubes = top_k_by_volume(dataset, args.k, base)
    print(f"top {len(cubes)} cube(s) by volume:")
    for cube in cubes:
        print(f"  [{cube.volume:>6} cells] {cube.format(dataset)}")
    return 0


def _verify(args: argparse.Namespace) -> int:
    from .core.verify import verify_result
    from .io import result_from_json

    dataset = _load(args.input)
    try:
        with open(args.result) as handle:
            result = result_from_json(handle.read())
    except FileNotFoundError:
        raise SystemExit(f"error: result file not found: {args.result}")
    report = verify_result(
        dataset, result, check_completeness=args.complete
    )
    print(report.summary())
    for violation in report.violations[: args.show]:
        print(" ", violation)
    if len(report.violations) > args.show:
        print(f"  ... and {len(report.violations) - args.show} more")
    return 0 if report.ok else 1


def _explore(args: argparse.Namespace) -> int:
    from .analysis.explorer import find_min_c_for_budget

    dataset = _load(args.input)
    base = Thresholds(args.min_h, args.min_r, args.min_c)
    min_c, n_cubes = find_min_c_for_budget(
        dataset, base, max_cubes=args.max_cubes
    )
    print(
        f"minC={min_c} yields {n_cubes} cube(s) "
        f"(budget {args.max_cubes}, minH={args.min_h}, minR={args.min_r})"
    )
    if n_cubes > args.max_cubes:
        print("note: budget unreachable even at minC = column count")
    return 0


def _fsck(args: argparse.Namespace) -> int:
    from .chaos import fsck_data_dir

    try:
        report = fsck_data_dir(
            args.data_dir,
            repair=args.repair,
            verify_checksums=args.verify_checksums,
        )
    except OSError as error:
        print(f"error: cannot fsck {args.data_dir}: {error}", file=sys.stderr)
        raise SystemExit(EXIT_DATA) from None
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.clean else 1


def _serve(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from .service import ServiceApp
    from .service import serve as bind_server

    if args.fsck and os.path.isdir(args.data_dir):
        # Structural check only: content checksums are verified lazily
        # on every read, but a daemon must not come up over a store
        # whose shape is already known-broken.
        from .chaos import fsck_data_dir

        report = fsck_data_dir(args.data_dir, verify_checksums=False)
        if report.errors:
            for issue in report.errors:
                print(f"error: {issue.format()}", file=sys.stderr)
            print(
                f"error: {args.data_dir}: corrupt store "
                f"({len(report.errors)} error(s)); run "
                f"'repro-fcc fsck --data-dir {args.data_dir} --repair' "
                "to quarantine the damage",
                file=sys.stderr,
            )
            raise SystemExit(EXIT_DATA)
    app = ServiceApp(
        args.data_dir,
        max_workers=args.max_workers,
        mmap_datasets=args.mmap,
        max_queued=args.max_queued,
        max_retries=args.max_retries,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    server = bind_server(app, args.host, args.port, verbose=args.verbose)
    host, port = server.server_address[:2]
    mode = "mmap" if args.mmap else "in-memory"
    print(
        f"repro-fcc service on http://{host}:{port} "
        f"(data: {args.data_dir}, workers: {args.max_workers}, "
        f"datasets: {mode})",
        flush=True,
    )

    def _terminate(signum, frame):
        # serve_forever() must be shut down from another thread; drain
        # happens below, after the accept loop stops taking requests.
        print("SIGTERM: draining...", file=sys.stderr, flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        app.drain(timeout=args.drain_timeout)
        app.close()
    return 0


def _print_served_result(served, show: int) -> None:
    result = served.result
    provenance = "cache hit" if served.cache_hit else "fresh mine"
    if served.cache_hit and served.filtered_from is not None:
        provenance += f" (filtered from [{served.filtered_from}])"
    print(f"{result.summary()} [{provenance}]")
    for cube in list(result)[:show]:
        print(" ", cube.format())
    if len(result) > show:
        print(f"  ... and {len(result) - show} more")


def _submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceClientError

    dataset = _load_any(args.input)
    thresholds = Thresholds(
        args.min_h, args.min_r, args.min_c, min_volume=args.min_volume
    )
    client = ServiceClient(args.server)
    try:
        record = client.submit(
            dataset,
            thresholds,
            algorithm=args.algorithm,
            use_cache=args.use_cache,
        )
        tag = " (cache hit)" if record.cache_hit else ""
        print(f"job {record.id}: {record.status}{tag}")
        if not args.wait:
            return 0
        record = client.wait(record.id)
        if record.status != "done":
            print(f"job {record.id} {record.status}: {record.error or ''}",
                  file=sys.stderr)
            return 1
        _print_served_result(client.result(record.id), args.show)
        return 0
    except ServiceClientError as error:
        raise SystemExit(f"error: {error}")


def _load_updates(path: str):
    """Read a JSON delta batch; malformed content exits ``EXIT_DATA``."""
    from .stream.delta import deltas_from_payload

    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise SystemExit(f"error: updates file not found: {path}")
    except ValueError as error:
        print(f"error: {path}: not valid JSON ({error})", file=sys.stderr)
        raise SystemExit(EXIT_DATA) from None
    if isinstance(payload, dict):
        payload = payload.get("deltas")
    try:
        deltas = deltas_from_payload(payload)
    except (ValueError, KeyError, TypeError) as error:
        print(f"error: {path}: not a delta batch ({error})", file=sys.stderr)
        raise SystemExit(EXIT_DATA) from None
    if not deltas:
        print(f"error: {path}: empty delta batch", file=sys.stderr)
        raise SystemExit(EXIT_DATA)
    return deltas


def _update(args: argparse.Namespace) -> int:
    deltas = _load_updates(args.updates)
    if args.dataset is not None:
        from .service import ServiceClient, ServiceClientError

        client = ServiceClient(args.server)
        try:
            doc = client.update_dataset(args.dataset, deltas)
        except ServiceClientError as error:
            raise SystemExit(f"error: {error}")
        print(
            f"dataset {doc['base'][:12]} -> {doc['fingerprint'][:12]} "
            f"(shape {tuple(doc['shape'])}, {doc['deltas_applied']} delta(s), "
            f"{doc['dirty_heights']} dirty height(s))"
        )
        for job in doc["jobs"]:
            spec = job["spec"]
            print(
                f"  maintenance job {job['id']}  {spec['algorithm']} "
                f"[{Thresholds.from_dict(spec['thresholds'])}]"
            )
        if not doc["jobs"]:
            print("  no cached results to maintain")
        return 0
    if args.input is None or args.result is None:
        print(
            "error: update needs either --dataset (server mode) or "
            "--input + --result (local mode)",
            file=sys.stderr,
        )
        return 2
    from .io import result_from_json, result_to_json
    from .stream.maintain import maintain

    dataset = _load(args.input)
    try:
        with open(args.result) as handle:
            result = result_from_json(handle.read())
    except FileNotFoundError:
        raise SystemExit(f"error: result file not found: {args.result}")
    except (ValueError, KeyError) as error:
        print(f"error: {args.result}: not a readable result JSON ({error})",
              file=sys.stderr)
        raise SystemExit(EXIT_DATA) from None
    try:
        new_dataset, maintained = maintain(dataset, result, deltas)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(EXIT_DATA) from None
    stream = maintained.stats.extra.get("stream", {})
    print(maintained.summary())
    print(
        f"  {stream.get('deltas_applied', 0)} delta(s) applied, "
        f"{stream.get('dirty_heights', 0)} dirty height(s), "
        f"{stream.get('cubes_patched', 0)} cube(s) patched, "
        f"{stream.get('subsets_remined', 0)} subset(s) re-mined"
    )
    if args.show:
        for cube in list(maintained)[: args.show]:
            print(" ", cube.format(new_dataset))
        if len(maintained) > args.show:
            print(f"  ... and {len(maintained) - args.show} more")
    if args.out:
        new_dataset.save_npz(args.out)
        print(f"wrote updated dataset to {args.out}")
    if args.out_json:
        with open(args.out_json, "w") as handle:
            handle.write(result_to_json(maintained, new_dataset))
        print(f"wrote JSON to {args.out_json}")
    return 0


def _jobs(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceClientError

    client = ServiceClient(args.server)
    try:
        if args.job is None:
            records = client.jobs()
            print(f"{len(records)} job(s)")
            for record in records:
                tag = " cache-hit" if record.cache_hit else ""
                print(
                    f"  {record.id}  {record.status:<9} "
                    f"{record.spec.algorithm:<19} "
                    f"[{record.spec.thresholds}]{tag}"
                )
            return 0
        if args.cancel:
            record = client.cancel(args.job)
            print(f"job {record.id}: {record.status}")
            return 0
        record = client.job(args.job)
        print(f"job {record.id}: {record.status}")
        print(f"  algorithm : {record.spec.algorithm}")
        print(f"  thresholds: {record.spec.thresholds}")
        print(f"  attempts  : {record.attempts}")
        if record.progress:
            print(f"  progress  : {record.progress}")
        if record.error:
            print(f"  error     : {record.error}")
        if record.cache_hit:
            print(f"  cache hit : filtered from [{record.filtered_from}]")
        if args.events:
            events, _ = client.events(args.job)
            for event in events:
                print(f"  {json.dumps(event)}")
        return 0
    except ServiceClientError as error:
        raise SystemExit(f"error: {error}")


_HANDLERS = {
    "generate": _generate,
    "stats": _stats,
    "mine": _mine,
    "rules": _rules,
    "report": _report,
    "convert": _convert,
    "trace": _trace,
    "verify": _verify,
    "explore": _explore,
    "topk": _topk,
    "example": _example,
    "serve": _serve,
    "submit": _submit,
    "jobs": _jobs,
    "update": _update,
    "fsck": _fsck,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
