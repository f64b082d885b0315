"""Chain-structured blockchain baseline (Section II-A of the paper).

The comparator for every "DAG beats chain" claim: blocks, heaviest-chain
fork choice with reorg tracking, and a mempool miner running on the same
device profiles as the tangle nodes.
"""
