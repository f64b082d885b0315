"""Tests for repro.chain.blockchain (longest/heaviest-chain consensus)."""

import pytest

from repro.crypto.keys import KeyPair
from repro.chain.block import Block
from repro.chain.blockchain import Blockchain
from repro.tangle.errors import (
    DuplicateTransactionError,
    InvalidPowError,
    TimestampError,
    UnknownParentError,
    ValidationError,
)
from repro.tangle.transaction import Transaction, ZERO_HASH

MINER = KeyPair.generate(seed=b"chain-miner")
SENDER = KeyPair.generate(seed=b"chain-sender")


def extend(chain, parent, *, timestamp=None, difficulty=4, payloads=()):
    txs = tuple(
        Transaction.create(
            SENDER, kind="data", payload=p, timestamp=parent.timestamp,
            branch=ZERO_HASH, trunk=ZERO_HASH, difficulty=1,
        )
        for p in payloads
    )
    block = Block.mine(
        MINER, prev_hash=parent.block_hash, height=parent.height + 1,
        timestamp=timestamp if timestamp is not None else parent.timestamp + 1.0,
        difficulty=difficulty, transactions=txs,
    )
    chain.add_block(block)
    return block


def main_chain(chain):
    """Blocks from genesis to the best tip, walked back through
    ``prev_hash``."""
    blocks = [chain.best_tip]
    while not blocks[-1].is_genesis:
        blocks.append(chain.get(blocks[-1].prev_hash))
    return blocks[::-1]


@pytest.fixture()
def chain():
    return Blockchain(Block.mine_genesis(MINER))


class TestGrowth:
    def test_linear_growth(self, chain):
        tip = chain.genesis
        for _ in range(3):
            tip = extend(chain, tip)
        assert chain.height == 3
        assert chain.best_tip.block_hash == tip.block_hash
        assert len(chain) == 4

    def test_main_chain_order(self, chain):
        a = extend(chain, chain.genesis)
        b = extend(chain, a)
        main = main_chain(chain)
        assert [blk.height for blk in main] == [0, 1, 2]
        assert main[-1].block_hash == b.block_hash

    def test_add_returns_main_flag(self, chain):
        a = Block.mine(MINER, prev_hash=chain.genesis.block_hash, height=1,
                       timestamp=1.0, difficulty=4)
        assert chain.add_block(a) is True


class TestValidation:
    def test_duplicate_rejected(self, chain):
        a = extend(chain, chain.genesis)
        with pytest.raises(DuplicateTransactionError):
            chain.add_block(a)

    def test_unknown_parent_rejected(self, chain):
        stray = Block.mine(MINER, prev_hash=b"\x07" * 32, height=1,
                           timestamp=1.0, difficulty=4)
        with pytest.raises(UnknownParentError):
            chain.add_block(stray)

    def test_wrong_height_rejected(self, chain):
        bad = Block.mine(MINER, prev_hash=chain.genesis.block_hash, height=5,
                         timestamp=1.0, difficulty=4)
        with pytest.raises(ValidationError):
            chain.add_block(bad)

    def test_bad_pow_rejected(self, chain):
        good = Block.mine(MINER, prev_hash=chain.genesis.block_hash,
                          height=1, timestamp=1.0, difficulty=14)
        forged = Block(
            prev_hash=good.prev_hash, height=good.height,
            timestamp=good.timestamp, difficulty=good.difficulty,
            miner=good.miner, transactions=good.transactions, nonce=0,
        )
        if forged.verify_pow():
            pytest.skip("nonce 0 accidentally valid")
        with pytest.raises(InvalidPowError):
            chain.add_block(forged)

    def test_timestamp_before_parent_rejected(self, chain):
        a = extend(chain, chain.genesis, timestamp=10.0)
        bad = Block.mine(MINER, prev_hash=a.block_hash, height=2,
                         timestamp=5.0, difficulty=4)
        with pytest.raises(TimestampError):
            chain.add_block(bad)

    def test_second_genesis_rejected(self, chain):
        with pytest.raises(ValidationError):
            chain.add_block(Block.mine_genesis(MINER))

    def test_badly_signed_transaction_rejected(self, chain):
        tx = Transaction.create(
            SENDER, kind="data", payload=b"x", timestamp=0.0,
            branch=ZERO_HASH, trunk=ZERO_HASH, difficulty=1,
        )
        forged_tx = Transaction(
            kind=tx.kind, issuer=tx.issuer, payload=b"swapped",
            timestamp=tx.timestamp, branch=tx.branch, trunk=tx.trunk,
            difficulty=tx.difficulty, nonce=tx.nonce, signature=tx.signature,
        )
        block = Block.mine(
            MINER, prev_hash=chain.genesis.block_hash, height=1,
            timestamp=1.0, difficulty=4, transactions=(forged_tx,),
        )
        with pytest.raises(ValidationError):
            chain.add_block(block)


class TestForks:
    def test_fork_does_not_become_main(self, chain):
        a = extend(chain, chain.genesis)
        b = extend(chain, a)
        fork = Block.mine(MINER, prev_hash=a.block_hash, height=2,
                          timestamp=a.timestamp + 0.5, difficulty=4)
        became_main = chain.add_block(fork)
        assert not became_main
        assert chain.best_tip.block_hash == b.block_hash
        assert fork.block_hash in chain  # kept, off the main chain
        assert fork.block_hash not in {blk.block_hash for blk in main_chain(chain)}

    def test_heavier_fork_causes_reorg(self, chain):
        a = extend(chain, chain.genesis, difficulty=4)
        fork1 = Block.mine(MINER, prev_hash=chain.genesis.block_hash,
                           height=1, timestamp=0.5, difficulty=8)
        assert chain.add_block(fork1) is True  # 2^8 > 2^4: heavier wins
        assert chain.reorg_count == 1
        assert chain.best_tip.block_hash == fork1.block_hash
        assert a.block_hash not in {blk.block_hash for blk in main_chain(chain)}

    def test_equal_work_fork_keeps_first_seen_tip(self, chain):
        a = extend(chain, chain.genesis, difficulty=4)
        rival = Block.mine(MINER, prev_hash=chain.genesis.block_hash,
                           height=1, timestamp=0.5, difficulty=4)
        assert chain.add_block(rival) is False
        assert chain.best_tip.block_hash == a.block_hash
        assert chain.reorg_count == 0

    def test_work_accumulates_along_the_branch(self, chain):
        """Fork choice sums work from genesis: three 2^4 blocks outweigh
        one 2^5 block, two only tie it and the first-seen tip stays."""
        a = extend(chain, chain.genesis, difficulty=5)
        f1 = Block.mine(MINER, prev_hash=chain.genesis.block_hash,
                        height=1, timestamp=0.5, difficulty=4)
        assert chain.add_block(f1) is False
        f2 = Block.mine(MINER, prev_hash=f1.block_hash, height=2,
                        timestamp=1.5, difficulty=4)
        assert chain.add_block(f2) is False  # 16 + 16 == 32: a tie
        assert chain.best_tip.block_hash == a.block_hash
        f3 = Block.mine(MINER, prev_hash=f2.block_hash, height=3,
                        timestamp=2.5, difficulty=4)
        assert chain.add_block(f3) is True
        assert chain.reorg_count == 1
        assert chain.height == 3
        assert [blk.block_hash for blk in main_chain(chain)] == [
            chain.genesis.block_hash, f1.block_hash, f2.block_hash,
            f3.block_hash]

    def test_unknown_hash_is_not_in_chain(self, chain):
        extend(chain, chain.genesis)
        assert b"\x00" * 32 not in chain
        with pytest.raises(KeyError):
            chain.get(b"\x00" * 32)
