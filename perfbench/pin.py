#!/usr/bin/env python3
"""Regenerate ``perfbench/golden.json``: the pinned outputs of every pool seed.

Usage (from the repository root)::

    python3 perfbench/pin.py

Run it only for a change that is *meant* to alter factorization results;
otherwise a gate mismatch in ``perfbench/run.py`` is a bug to fix.  It
re-pins every workload on every pool seed.  The Table II cells come from
``run_table2`` itself; the serving digests come from each workload's
reference path (synchronous packing for ``openloop_inproc``, the
in-process transport for ``cluster_inline``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from h3dbench import gates  # noqa: E402
from h3dbench.workloads import (  # noqa: E402
    TABLE2_SHAPE,
    WORKLOADS,
)


def pin_table2(seed: int) -> dict:
    from repro.experiments.table2 import Table2Config, run_table2

    rows = gates.cell_rows(run_table2(Table2Config(seed=seed, **TABLE2_SHAPE)))
    return {"cells": rows, "trial_sweeps": gates.trial_sweeps(rows)}


def pin_serving(name: str, seed: int) -> dict:
    from repro.service import wire

    reference = WORKLOADS[name].pinned_reference(seed)
    return {"digest": wire.batch_digest(reference),
            "solved": gates.solved_count(reference),
            "requests": len(reference)}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    golden = gates.load_golden()
    for name in sorted(WORKLOADS):
        table = golden[name] = {}
        for seed in range(gates.POOL):
            table[str(seed)] = (pin_table2(seed) if name == "table2"
                                else pin_serving(name, seed))
            print(name, seed, table[str(seed)].get("digest",
                  table[str(seed)].get("trial_sweeps")), flush=True)
        with open(gates.GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
