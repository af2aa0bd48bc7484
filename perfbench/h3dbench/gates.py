"""Correctness gates: a mismatch fails the run instead of being recorded.

Every workload draws its inputs from a pool of :data:`POOL` pinned seeds
whose expected outputs live in ``perfbench/golden.json`` (regenerate with
``python3 perfbench/pin.py`` only when a change is *meant* to alter
results).  The serving workloads are also checked response by response
against an in-run reference path.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Mapping, Sequence

#: Number of pinned input sets per workload.
POOL = 64

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "golden.json"
)


class GateError(AssertionError):
    """A seeded output differs from its pinned or reference value."""


def pool_seed(seed: int, offset: int = 0) -> int:
    """The pinned input set a run seed (plus an offset) maps to."""
    return (int(seed) + offset) % POOL


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Any]:
    """The pinned outputs, or an empty table when none were recorded."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def pinned(golden: Mapping[str, Any], workload: str, seed: int) -> Any:
    """Pinned outputs of ``workload`` for a pool seed; GateError if absent."""
    try:
        return golden[workload][str(seed)]
    except KeyError:
        raise GateError(
            f"{workload}: no pinned outputs for pool seed {seed} "
            "(run perfbench/pin.py)"
        ) from None


def check_equal(what: str, expected: Any, actual: Any) -> None:
    """Raise :class:`GateError` unless ``actual == expected``."""
    if expected != actual:
        raise GateError(f"{what}: expected {expected!r}, got {actual!r}")


def result_row(result: Any) -> tuple:
    """The fields of a factorization that must replay bit-identically."""
    return (
        tuple(int(i) for i in result.indices),
        result.outcome.value,
        int(result.iterations),
    )


def check_responses(
    what: str,
    reference: Sequence[Any],
    served: Mapping[int, Any],
) -> None:
    """Every served response equals the reference for its list position.

    ``served`` maps a schedule position to a response; position ``k``
    carried request ``k % len(reference)``.
    """
    for position, response in served.items():
        expected = result_row(reference[position % len(reference)].result)
        actual = result_row(response.result)
        if expected != actual:
            raise GateError(
                f"{what}: response at position {position} "
                f"(request {position % len(reference)}) is {actual}, "
                f"reference is {expected}"
            )


def cell_rows(table: Any) -> list:
    """Pinned view of a Table II result: one row per grid cell."""
    rows = []
    for cell in table.cells:
        stats = cell.stats
        rows.append(
            [
                cell.design,
                cell.num_factors,
                cell.codebook_size,
                round(float(stats.accuracy), 12),
                None
                if stats.iterations_to_target is None
                else round(float(stats.iterations_to_target), 6),
                int(round(stats.mean_iterations * stats.num_trials)),
            ]
        )
    return rows


def trial_sweeps(rows: Sequence[Sequence[Any]]) -> int:
    """Sum of per-trial iterations over Table II cell rows."""
    return sum(int(row[5]) for row in rows)


def solved_count(responses: Sequence[Any]) -> int:
    """Responses whose factorization is correct."""
    return sum(1 for response in responses if response.result.correct)
