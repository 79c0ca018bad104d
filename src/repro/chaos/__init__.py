"""Cross-layer chaos harness: deterministic fault injection + fsck.

This package generalizes :class:`repro.parallel.faults.FaultPlan`
beyond pool workers to the whole service stack:

* :mod:`repro.chaos.plan` — :class:`ChaosPlan`, a seedable schedule of
  filesystem, transport and worker faults addressed by (site, op).
* :mod:`repro.chaos.io` — :class:`IOShim`, the hardened atomic-write /
  journal-append surface every store routes disk traffic through, and
  :class:`ChaosShim`, the same surface with a plan deciding each call;
  :class:`StoreCorruptionError` is the typed verify-on-read failure.
* :mod:`repro.chaos.fsck` — :func:`fsck_data_dir`, the scanner/repairer
  behind ``repro-fcc fsck``.

Inject by constructing the app over a chaos shim::

    from repro.chaos import ChaosPlan, ChaosShim
    plan = ChaosPlan.single("enospc", site="cache", op="write")
    app = ServiceApp(data_dir, io=ChaosShim(plan))

``tests/test_chaos.py`` is the standing battery: under every scheduled
fault the daemon either serves a result bit-identical to a clean mine
or returns a typed error — never a crash, never silent cube loss.

The public names load lazily (:mod:`repro._lazy`), so the stores that
route their disk traffic through :mod:`repro.chaos.io` do not load the
fsck scanner.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "CHAOS_FAULT_KINDS": ".plan",
    "ChaosPlan": ".plan",
    "ChaosRule": ".plan",
    "IOShim": ".io",
    "ChaosShim": ".io",
    "StoreCorruptionError": ".io",
    "sha256_bytes": ".io",
    "sha256_file": ".io",
    "FsckIssue": ".fsck",
    "FsckReport": ".fsck",
    "fsck_data_dir": ".fsck",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
