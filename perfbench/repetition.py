"""One repetition of one workload, in a process of its own.

Usage: ``python3 perfbench/repetition.py WORKLOAD SEED [--trace | --setups K]``

``run.py`` starts one such process per repetition, so each repetition's
peak resident memory is its own and no repetition inherits another's heap.
Cyclic garbage collection is off for the whole process, as in the repo's
fixed-seed perf harness: where a collection pause lands depends on the
seed's allocation count, so it would move host time between ``run_s`` and
``verify_s`` at random; the process exits right after its one repetition.
Prints one JSON object: the :class:`workloads.Repetition` fields plus
``peak_rss_mb``, and with ``--trace`` the traced repetition's per-layer
metrics, reconciliation rows and self time per layer.

With ``--setups K`` the process only builds the workload ``K`` times and
prints ``{"setup_s": [...]}``, the host time of each build.  Set-up time
moves by up to a third from one process to the next, so ``run.py`` takes
``setup_s`` as a median over many such processes spread through its run.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import sys
from pathlib import Path
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ledger  # noqa: E402
import workloads  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setups", type=int, default=0, help="only time this many set-ups")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    gc.disable()
    if args.setups:
        times = workloads.time_setups(workload, args.seed, args.setups)
        json.dump({"setup_s": times}, sys.stdout)
        return 0
    book = ledger.Ledger() if args.trace else None
    rep = workloads.run_repetition(workload, args.seed, ledger=book)
    result = dataclasses.asdict(rep)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if book is not None:
        result["layers"] = ledger.layer_metrics(book, rep, workload.protocol)
        result["reconcile"] = ledger.reconcile(book, rep.counters)
        result["self_s"] = dict(book.self_s)
        result["spans"] = {
            layer: sum(n for (lay, _), n in book.counts.items() if lay == layer)
            for layer in book.self_s
        }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
