"""Chain-structured blockchain with longest-(heaviest-)chain consensus.

"Chain-structured blockchain maintains the longest chain as the main
chain in the system ... when two blocks are generated just a few
seconds apart, forks will happen, and the latest block in the longest
chain is always chosen, so other blocks in shorter chains are
considered as invalid blocks" (Section II-A, Fig. 1).

This class keeps *every* received block (a block tree) and designates
the branch with the greatest cumulative work as the main chain, whose
head is :attr:`Blockchain.best_tip`.
"""

from __future__ import annotations

from typing import Dict

from ..tangle.errors import (
    DuplicateTransactionError,
    InvalidPowError,
    TimestampError,
    UnknownParentError,
    ValidationError,
)
from .block import Block

__all__ = ["Blockchain"]


class Blockchain:
    """A block tree with heaviest-chain fork choice.

    Args:
        genesis: the genesis block.
    """

    def __init__(self, genesis: Block):
        if not genesis.is_genesis:
            raise ValueError("blockchain must be seeded with a genesis block")
        if not genesis.verify_pow():
            raise InvalidPowError("genesis block fails its own PoW")
        self._blocks: Dict[bytes, Block] = {genesis.block_hash: genesis}
        self._cumulative_work: Dict[bytes, int] = {genesis.block_hash: genesis.work}
        self.genesis = genesis
        self._best_tip = genesis.block_hash
        self.reorg_count = 0

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self._blocks

    def get(self, block_hash: bytes) -> Block:
        return self._blocks[block_hash]

    @property
    def best_tip(self) -> Block:
        """Head of the current main chain."""
        return self._blocks[self._best_tip]

    @property
    def height(self) -> int:
        """Height of the main chain head."""
        return self.best_tip.height

    # -- growth ----------------------------------------------------------

    def add_block(self, block: Block) -> bool:
        """Validate and insert *block*; returns True if it became (part
        of) the new main chain.

        Raises :class:`~repro.tangle.errors.ValidationError` subclasses
        on invalid blocks; valid blocks on losing forks are stored but
        return False.
        """
        if block.block_hash in self._blocks:
            raise DuplicateTransactionError(f"block {block.short_hash} already known")
        if block.is_genesis:
            raise ValidationError("a blockchain has exactly one genesis")
        parent = self._blocks.get(block.prev_hash)
        if parent is None:
            raise UnknownParentError(
                f"unknown parent {block.prev_hash.hex()[:8]} for {block.short_hash}"
            )
        if block.height != parent.height + 1:
            raise ValidationError(
                f"height {block.height} does not extend parent height {parent.height}"
            )
        if not block.verify_pow():
            raise InvalidPowError(f"block {block.short_hash} fails PoW")
        if block.timestamp < parent.timestamp:
            raise TimestampError(
                f"block {block.short_hash} predates its parent"
            )
        for tx in block.transactions:
            if not tx.verify_signature():
                raise ValidationError(
                    f"block {block.short_hash} carries a badly signed transaction"
                )

        self._blocks[block.block_hash] = block
        self._cumulative_work[block.block_hash] = (
            self._cumulative_work[block.prev_hash] + block.work
        )

        became_main = False
        if self._cumulative_work[block.block_hash] > self._cumulative_work[self._best_tip]:
            previous_tip = self._best_tip
            self._best_tip = block.block_hash
            became_main = True
            # A reorg happened if the displaced tip is not our ancestor.
            if previous_tip != block.prev_hash:
                self.reorg_count += 1
        return became_main
