"""The lazy-tips attacker (threat model, Section III).

"A 'lazy' node could always verify a fixed pair of very old
transactions, while not contributing to the verification of more recent
transactions.  For example, a malicious entity can artificially inflate
the number of tips by issuing many transactions that verify a fixed
pair of transactions."

:class:`LazyLightNode` behaves exactly like an honest device except
that it discards the gateway's tip suggestions and always approves a
fixed, aging pair (the genesis by default).  Under plain PoW this is
free; under the credit mechanism each detected lazy approval cuts the
node's credit, and its assigned difficulty — and therefore its attack
cost — climbs.
"""

from __future__ import annotations

from typing import Optional

from ..network.transport import Message
from ..nodes.light_node import LightNode

__all__ = ["LazyLightNode"]


class LazyLightNode(LightNode):
    """A light node that always approves a fixed pair of transactions.

    Args:
        fixed_branch: transaction hash the attacker forever approves as
            both parents (when not given, the first tips response's
            pair is pinned instead).
    """

    def __init__(self, *args, fixed_branch: Optional[bytes] = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.fixed_branch = fixed_branch
        self.fixed_trunk = fixed_branch
        self.lazy_submissions = 0

    def _handle_tips_response(self, message: Message) -> None:
        body = message.body
        context = self._pending.pop(body.get("request_id"), None)
        if context is None:
            return
        if not body.get("ok"):
            self.stats.tips_refused += 1
            self._schedule_next_tick()
            return
        # Ignore the suggested tips; pin the fixed old pair.  The first
        # response seeds the pin when none was configured.
        if self.fixed_branch is None:
            self.fixed_branch = body["branch"]
            self.fixed_trunk = body["trunk"]
        self.lazy_submissions += 1
        self._build_and_submit(
            context,
            branch=self.fixed_branch,
            trunk=self.fixed_trunk,
            difficulty=body["difficulty"],
        )
