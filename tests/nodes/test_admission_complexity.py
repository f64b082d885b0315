"""Complexity guard for admission: counts, not time.

Admission turns the issuer's credit into a required difficulty on every
submit (``Cr -> D``), and Eqn. 3 needs only the capped weights of the
issuer's own recent transactions.  A submit must therefore cost the
tangle a bounded number of vertex visits however large the tangle has
grown, and must never force a weight flush: the only flush epochs left
are the tangle's own, one per ``DEFAULT_WEIGHT_FLUSH_INTERVAL``
attaches.  Both are read from the node's own telemetry: the flush
counter, and the number of record weights evaluations re-read — each
such read visits at most ``max_transaction_weight`` vertices
(``tests/tangle/test_differential.py`` pins that bound), so their
count bounds the vertices visited.
"""

import math
import random
from collections import deque

from repro.core.acl import AclAction, AuthorizationList
from repro.core.consensus import CreditBasedConsensus
from repro.core.credit import CreditParameters
from repro.crypto.keys import KeyPair
from repro.network.network import Network
from repro.network.simulator import EventScheduler
from repro.network.transport import Message
from repro.nodes.full_node import FullNode
from repro.nodes.manager import ManagerNode
from repro.tangle.tangle import DEFAULT_WEIGHT_FLUSH_INTERVAL
from repro.tangle.transaction import Transaction, TransactionKind
from repro.tangle.validation import VerificationCache
from repro.telemetry.registry import MetricsRegistry

from .runs import CLIENT, NODE, Recorder

SUBMITS = 1_500
WINDOW = 150
DEVICES = 4
VIEW_LAG = 3          # issuers see the tip pool this many submits late
MAX_TIP_AGE = 8       # ...but never leave a tip unapproved this long


def test_admission_cost_does_not_grow_with_the_tangle():
    manager = KeyPair.generate(seed=b"admission-guard-manager")
    devices = [KeyPair.generate(seed=b"admission-guard-device-%d" % i)
               for i in range(DEVICES)]
    genesis = ManagerNode.create_genesis(manager,
                                         network_name="admission-guard")

    # Signatures and nonces are not the subject: every transaction is
    # pre-confirmed (as benchmarks/e2e/e2e_stream.py does for its
    # reference), so none is signed, ground or verified.
    verified = VerificationCache(max_size=2 * SUBMITS)
    telemetry = MetricsRegistry()
    scheduler = EventScheduler()
    network = Network(scheduler, rng=random.Random(1))
    node = FullNode(
        NODE, genesis,
        consensus=CreditBasedConsensus.from_params(
            CreditParameters(), initial_difficulty=1, telemetry=telemetry),
        rng=random.Random(0), enforce_pow=True,
        verification_cache=verified, telemetry=telemetry)
    client = Recorder(CLIENT)
    network.attach(node)
    network.attach(client)

    def submit(request_id, issuer, kind, payload, timestamp, branch, trunk):
        tx = Transaction(
            kind=kind, issuer=issuer.public, payload=payload,
            timestamp=timestamp, branch=branch, trunk=trunk,
            difficulty=1, nonce=0, signature=bytes(64))
        verified.confirm(tx.full_digest)
        node.handle_message(Message(
            sender=CLIENT, recipient=NODE, kind="submit_transaction",
            body={"request_id": request_id, "transaction": tx.to_bytes()},
            sent_at=0.0, message_id=request_id))
        return tx.tx_hash

    acl = submit(0, manager, TransactionKind.ACL,
                 AuthorizationList.make_update(
                     [keys.public for keys in devices],
                     action=AclAction.AUTHORIZE).to_bytes(),
                 1.0, genesis.tx_hash, genesis.tx_hash)

    flushes = telemetry.counter("repro_tangle_flush_total")
    pulls = telemetry.counter("repro_credit_weight_pulls_total")
    rng = random.Random("admission-guard")
    tips = [(0, acl)]                       # (step, hash), oldest first
    views = deque([tuple(tips)], maxlen=VIEW_LAG + 1)
    pulls_at = {}
    for step in range(1, SUBMITS + 1):
        view, oldest = views[0], tips[0]
        branch = oldest if step - oldest[0] > MAX_TIP_AGE \
            else rng.choice(view)
        trunk = rng.choice(view)
        tx_hash = submit(step, rng.choice(devices), TransactionKind.DATA,
                         b"%d" % step, 1.0 + 0.5 * step,
                         branch[1], trunk[1])
        tips = [tip for tip in tips if tip not in (branch, trunk)] \
            + [(step, tx_hash)]
        views.append(tuple(tips))
        pulls_at[step] = pulls.total
    scheduler.run()

    assert node.stats.submissions_accepted == SUBMITS + 1
    assert len(node.tangle) == SUBMITS + 2
    # No submit forced a flush: what is left is the interval's own.
    assert flushes.total <= \
        math.ceil(SUBMITS / DEFAULT_WEIGHT_FLUSH_INTERVAL) + 1
    # Evaluations did re-read weights (the guard is not vacuous), and a
    # submit into a 1 500-transaction tangle re-reads no more of them
    # than one into an empty tangle did, give or take one record per
    # submit (~4.5 per submit either way, each at most `cap` vertices; a
    # per-submit cost that grew with the tangle would be ~100x that by
    # the last window).
    first = pulls_at[WINDOW]
    last = pulls_at[SUBMITS] - pulls_at[SUBMITS - WINDOW]
    assert first > 0
    assert last <= first + WINDOW
