"""The one convergence/compare step shared by every fleet leg.

After a leg delivered its workload the question is always the same: do
all replicas hold the reference node's four hashes?  Gossip should have
got them there; anti-entropy is the backstop.  :func:`converge` runs
the "collect → resync → settle → collect" loop against a two-method
*view* of the fleet — in-process nodes for the sim and wire legs,
``fleet_status`` / ``fleet_resync`` RPCs for the process leg — and
:func:`leg_summary` folds the outcome into the dict every report embeds.
:func:`run_directory` is the one "given directory or throwaway
tempdir" helper the storage, process and scale runs keep their stores
and logs in.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from typing import Dict, Iterator, Optional, Tuple

__all__ = ["MAX_SYNC_ROUNDS", "hashes_agree", "converge", "leg_summary",
           "run_directory"]

MAX_SYNC_ROUNDS = 10
"""Anti-entropy rounds a leg may spend before it reports divergence."""

PerNodeHashes = Dict[str, Dict[str, str]]


def hashes_agree(per_node: PerNodeHashes) -> bool:
    distinct = {tuple(sorted(h.items())) for h in per_node.values()}
    return len(distinct) == 1


async def converge(view, reference: Dict[str, str]
                   ) -> Tuple[PerNodeHashes, int]:
    """Resync until every node matches *reference* (at most
    :data:`MAX_SYNC_ROUNDS` times); returns the last hashes read and the
    rounds used — 0 when gossip alone converged the fleet.

    *view* is the fleet, however it is hosted, behind two coroutine
    methods: ``hashes()`` returns every node's four state hashes keyed
    by address; ``resync()`` starts one anti-entropy sweep on every
    node and lets it settle.
    """
    rounds = 0
    per_node = await view.hashes()
    while (any(h != reference for h in per_node.values())
           and rounds < MAX_SYNC_ROUNDS):
        rounds += 1
        await view.resync()
        per_node = await view.hashes()
    return per_node, rounds


def leg_summary(per_node: PerNodeHashes, rounds: int,
                rejected) -> Dict[str, object]:
    agreed = hashes_agree(per_node)
    return {
        "converged": agreed,
        "sync_rounds": rounds,
        "hashes": next(iter(per_node.values())) if agreed else {},
        "per_node": per_node,
        "rejected": list(rejected),
    }


@contextlib.contextmanager
def run_directory(run_dir: Optional[str], *, prefix: str) -> Iterator[str]:
    """*run_dir* (created if missing, kept afterwards) or, when None, a
    throwaway temporary directory removed on exit."""
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        yield run_dir
    else:
        with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
            yield tmp
