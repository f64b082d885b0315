"""DAG-structured blockchain substrate (the tangle).

Implements Section II-B of the paper: transactions as DAG vertices, tip
selection, cumulative weights, asynchronous validation, and the token
ledger that gives double-spending concrete semantics.
"""
