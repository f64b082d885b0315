"""Network substrate behind the :class:`~repro.network.base.Transport`
contract (``scheduler``, ``attach``, ``send``): a discrete-event
simulator (:class:`~repro.network.network.Network`, the
bit-deterministic reference) and a real asyncio/TCP transport
(:class:`~repro.network.aio.AsyncioTransport`,
convergence-deterministic), plus the length-prefixed frame codec,
gossip and solidification, seed-node peer discovery
(:class:`~repro.network.discovery.DiscoveryService`) and the
one-node-per-OS-process lane
(:class:`~repro.network.proc.NodeProcessSpec`, supervised by
:class:`~repro.harness.supervisor.ProcessFleet`)."""
