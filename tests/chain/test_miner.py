"""Tests for repro.chain.miner."""

import random

import pytest

from repro.chain.block import Block
from repro.chain.blockchain import Blockchain
from repro.chain.miner import Miner
from repro.crypto.keys import KeyPair
from repro.devices.clock import SimulatedClock
from repro.devices.profiles import PC
from repro.pow.engine import PowEngine
from repro.tangle.transaction import Transaction, ZERO_HASH

MINER_KEYS = KeyPair.generate(seed=b"miner-tests")
SENDER = KeyPair.generate(seed=b"miner-sender")


def data_tx(i):
    return Transaction.create(
        SENDER, kind="data", payload=f"tx-{i}".encode(), timestamp=0.0,
        branch=ZERO_HASH, trunk=ZERO_HASH, difficulty=1,
    )


@pytest.fixture()
def setup():
    chain = Blockchain(Block.mine_genesis(MINER_KEYS))
    clock = SimulatedClock()
    engine = PowEngine(PC, clock, rng=random.Random(3))
    miner = Miner(MINER_KEYS, chain, engine, block_difficulty=6,
                  max_block_transactions=4)
    return chain, clock, miner


class TestMempool:
    def test_submit_queues(self, setup):
        _, _, miner = setup
        miner.submit(data_tx(0))
        assert len(miner.mempool) == 1

    def test_empty_pool_mines_nothing(self, setup):
        _, _, miner = setup
        assert miner.mine_next_block() is None
        assert miner.blocks_mined == 0

    def test_block_size_cap(self, setup):
        chain, _, miner = setup
        for i in range(10):
            miner.submit(data_tx(i))
        block = miner.mine_next_block()
        assert len(block.transactions) == 4
        assert len(miner.mempool) == 6

    def test_fifo_order(self, setup):
        _, _, miner = setup
        txs = [data_tx(i) for i in range(6)]
        for tx in txs:
            miner.submit(tx)
        block = miner.mine_next_block()
        assert list(block.transactions) == txs[:4]


class TestMining:
    def test_mempool_empties_in_full_blocks(self, setup):
        chain, _, miner = setup
        for i in range(10):
            miner.submit(data_tx(i))
        blocks = []
        while (block := miner.mine_next_block()) is not None:
            blocks.append(block)
        assert [len(b.transactions) for b in blocks] == [4, 4, 2]
        assert not miner.mempool
        assert chain.height == 3
        assert miner.blocks_mined == 3

    def test_clock_advances_with_mining(self, setup):
        _, clock, miner = setup
        miner.submit(data_tx(0))
        miner.mine_next_block()
        assert clock.now() > 0.0

    def test_blocks_verify_and_chain(self, setup):
        chain, _, miner = setup
        for i in range(5):
            miner.submit(data_tx(i))
        blocks = [miner.mine_next_block(), miner.mine_next_block()]  # 4 + 1
        assert not miner.mempool
        for block in blocks:
            assert block.verify_pow()
        assert chain.best_tip.block_hash == blocks[-1].block_hash
        assert blocks[1].prev_hash == blocks[0].block_hash
        assert blocks[0].prev_hash == chain.genesis.block_hash
        assert miner.blocks_mined == 2

    def test_max_block_transactions_validated(self, setup):
        chain, clock, _ = setup
        engine = PowEngine(PC, clock, rng=random.Random(1))
        with pytest.raises(ValueError):
            Miner(MINER_KEYS, chain, engine, block_difficulty=4,
                  max_block_transactions=0)
