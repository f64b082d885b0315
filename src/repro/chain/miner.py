"""A mempool-driven miner for the chain baseline.

Models the synchronous consensus loop the paper contrasts with the
tangle: transactions queue in a mempool, a miner repeatedly grinds a
block of at most ``max_block_transactions`` of them, and nothing is
confirmed until its block is buried.  The miner charges PoW cost to a
:class:`~repro.pow.engine.PowEngine`, so the DAG-vs-chain comparison
runs both systems on identical simulated hardware.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..crypto.keys import KeyPair
from ..pow.engine import PowEngine
from ..tangle.transaction import Transaction
from .block import Block
from .blockchain import Blockchain

__all__ = ["Miner"]


class Miner:
    """Mines blocks from a FIFO mempool onto a :class:`Blockchain`.

    Args:
        keypair: the miner's identity.
        chain: the blockchain being extended.
        engine: PoW engine charging solve time to a device profile and
            the simulation clock.
        block_difficulty: PoW difficulty per block (the chain's security
            parameter; the tangle spreads the same work per-transaction).
        max_block_transactions: block size limit — the chain's
            throughput ceiling per block interval.
    """

    def __init__(self, keypair: KeyPair, chain: Blockchain, engine: PowEngine, *,
                 block_difficulty: int, max_block_transactions: int = 32):
        if max_block_transactions < 1:
            raise ValueError("max_block_transactions must be >= 1")
        self.keypair = keypair
        self.chain = chain
        self.engine = engine
        self.block_difficulty = block_difficulty
        self.max_block_transactions = max_block_transactions
        self.mempool: Deque[Transaction] = deque()
        self.blocks_mined = 0

    def submit(self, tx: Transaction) -> None:
        """Queue a transaction for inclusion in a future block."""
        self.mempool.append(tx)

    def mine_next_block(self) -> Optional[Block]:
        """Mine one block from the mempool head; None if the pool is empty.

        The PoW is charged to the engine (advancing simulated time); the
        block timestamp is the clock reading at completion.
        """
        if not self.mempool:
            return None
        batch: List[Transaction] = [
            self.mempool.popleft()
            for _ in range(min(self.max_block_transactions, len(self.mempool)))
        ]
        tip = self.chain.best_tip
        draft = Block(
            prev_hash=tip.block_hash,
            height=tip.height + 1,
            timestamp=max(self.engine.clock.now(), tip.timestamp),
            difficulty=self.block_difficulty,
            miner=self.keypair.public,
            transactions=tuple(batch),
            nonce=0,
        )
        # The timestamp is part of the sealed header, so it records when
        # mining *started*; the engine's clock advances past it as the
        # solve completes.
        result = self.engine.solve(draft.header_digest, self.block_difficulty)
        block = Block(
            prev_hash=draft.prev_hash,
            height=draft.height,
            timestamp=draft.timestamp,
            difficulty=draft.difficulty,
            miner=draft.miner,
            transactions=draft.transactions,
            nonce=result.proof.nonce,
        )
        self.chain.add_block(block)
        self.blocks_mined += 1
        return block
