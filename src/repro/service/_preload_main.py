"""Run the daemon's main script once, inside the job forkserver.

Each job worker would otherwise re-run the main script of the process
that started the server, as ``__mp_main__``, before its job starts
(:func:`multiprocessing.spawn.prepare`).  The server imports this
module last among its preloads
(:func:`repro.service.jobs._forkserver_context`), and it runs that
step here once, with the starting process's ``sys.argv`` and
``sys.path``: every worker forked afterwards finds the script loaded
and skips the re-run.  A script that fails here leaves nothing behind,
and each worker re-runs it exactly as it would without this module.

Importing this module anywhere else does nothing: the hand-over exists
only in the server's environment, and is removed from it here, so the
workers do not inherit it.
"""

from __future__ import annotations

import json
import os
import sys
from multiprocessing import process, spawn

#: Environment variable carrying the preparation data, set by the
#: starting process for the server's start only.
HANDOFF = "REPRO_FORKSERVER_MAIN"


def _run_main(data: dict) -> None:
    saved = sys.argv, sys.path
    # Starting processes from the main script's top level is refused,
    # as it is in a worker.
    process.current_process()._inheriting = True
    try:
        spawn.prepare(data)
    except (Exception, SystemExit):  # noqa: BLE001 - each worker re-runs it, as before
        pass
    finally:
        del process.current_process()._inheriting
        sys.argv, sys.path = saved


_handoff = os.environ.pop(HANDOFF, None)
if _handoff:
    _run_main(json.loads(_handoff))
