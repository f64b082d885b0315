"""The one convergence/compare step shared by every fleet leg.

After a leg delivered its workload the question is always the same: do
all replicas hold the reference node's four hashes?  Gossip should have
got them there; anti-entropy is the backstop.  :func:`converge` runs
the "collect → resync → settle → collect" loop against a two-function
*view* of the fleet (``hashes()``, ``resync()``) — in-process nodes for
the sim and wire legs, ``fleet_status`` / ``fleet_resync`` RPCs for the
process leg; :func:`converge_sync` is the same loop for the simulator
leg, which has no event loop — and
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

__all__ = ["MAX_SYNC_ROUNDS", "converged", "converge", "converge_sync",
           "leg_summary", "run_directory"]

MAX_SYNC_ROUNDS = 10
"""Anti-entropy rounds a leg may spend before it reports divergence."""

PerNodeHashes = Dict[str, Dict[str, str]]


def converged(per_node: PerNodeHashes, reference: Dict[str, str]) -> bool:
    """Every replica holds exactly the reference node's four hashes."""
    return all(hashes == reference for hashes in per_node.values())


async def converge(hashes, resync, reference: Dict[str, str]
                   ) -> Tuple[PerNodeHashes, int]:
    """Resync until every node matches *reference* (at most
    :data:`MAX_SYNC_ROUNDS` times); returns the last hashes read and the
    rounds used — 0 when gossip alone converged the fleet.

    The fleet, however it is hosted, is seen through two callables:
    ``hashes()`` returns every node's four state hashes keyed by
    address; ``resync()`` starts one anti-entropy sweep on every node
    and lets it settle.  Here both are coroutine functions (the TCP
    legs); :func:`converge_sync` is the same loop over plain ones.
    """
    rounds = 0
    per_node = await hashes()
    while rounds < MAX_SYNC_ROUNDS and not converged(per_node, reference):
        rounds += 1
        await resync()
        per_node = await hashes()
    return per_node, rounds


def converge_sync(hashes, resync, reference: Dict[str, str]
                  ) -> Tuple[PerNodeHashes, int]:
    """:func:`converge` over plain functions — the discrete-event
    simulator leg, which has no event loop to await on."""
    rounds = 0
    per_node = hashes()
    while rounds < MAX_SYNC_ROUNDS and not converged(per_node, reference):
        rounds += 1
        resync()
        per_node = hashes()
    return per_node, rounds


def leg_summary(per_node: PerNodeHashes, rounds: int, rejected,
                reference: Dict[str, str]) -> Dict[str, object]:
    """The dict every leg embeds in its report.  ``converged`` means the
    same thing on all three legs: every node equals *reference* (and
    ``hashes`` is then those four hashes, else empty)."""
    agreed = converged(per_node, reference)
    return {
        "converged": agreed,
        "sync_rounds": rounds,
        "hashes": dict(reference) if agreed else {},
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
