"""The B-IoT system facade: build and run a smart-factory deployment.

Wires the whole architecture of Fig. 3 together — one manager, a set of
gateway full nodes, and wireless-sensor light nodes — with the
credit-based consensus and data authority management active end to
end, over either transport: the discrete-event simulator (default) or
real localhost TCP (``BIoTConfig(transport="asyncio")``).  The driving
calls are the same on both, and all of them are synchronous — the only
thing that differs is how ``scheduler.run_for`` lets simulated time
pass (drain the event heap / run the deployment's own event loop).

Typical use (see ``examples/smart_factory.py``)::

    system = BIoTSystem.build(BIoTConfig(device_count=6, seed=7))
    system.initialize()           # workflow steps 1-3
    system.start_devices()        # steps 4-5, repeating
    system.run_for(90.0)
    print(system.summary())
    system.close()                # sockets, loop, stores, worker pool
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.consensus import DEFAULT_INITIAL_DIFFICULTY, CreditBasedConsensus
from ..core.credit import CreditParameters
from ..crypto.keys import KeyPair
from ..devices.sensors import SENSOR_TYPES, make_sensor
from ..faults.backoff import BackoffPolicy
from ..network.aio import AsyncioScheduler, AsyncioTransport, NodeRunner
from ..network.network import Network
from ..network.simulator import EventScheduler
from ..network.transport import BACKBONE_LINK, WIRELESS_SENSOR_LINK
from ..tangle.tip_selection import TipSelector, WeightedRandomWalkSelector
from ..telemetry.lifecycle import NULL_LIFECYCLE, LifecycleTracker
from ..telemetry.registry import NULL_REGISTRY, MetricsRegistry
from ..telemetry.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..nodes.full_node import FullNode
    from ..nodes.light_node import LightNode
    from ..nodes.manager import ManagerNode

__all__ = ["BIoTConfig", "BIoTSystem"]


@dataclass(frozen=True)
class BIoTConfig:
    """Deployment parameters for a smart factory.

    Attributes:
        gateway_count: full nodes besides the manager.
        device_count: wireless sensors (light nodes).
        sensor_cycle: sensor types assigned round-robin to devices.
        report_interval: seconds between a device's submissions.
        initial_difficulty: the PoW difficulty a neutral node gets.
        credit_params: the Eqn. 2–5 parameters.
        tip_alpha: weight bias of the gateways' MCMC tip selection
            (None selects uniform-random tips, the paper's baseline).
        seed: master seed; every stochastic component derives from it.
        enforce_pow: cryptographically verify PoW nonces at gateways.
        token_allocation: initial token balance minted per device.
        retry_policy: the :class:`~repro.faults.backoff.BackoffPolicy`
            full nodes use for recovery loops (key-distribution
            retransmits, parent re-requests).  None = the library
            default.
        telemetry: collect metrics and spans into a shared
            :class:`~repro.telemetry.MetricsRegistry` /
            :class:`~repro.telemetry.Tracer` pair (sim-clock
            timestamps).  Off by default: the null registry keeps the
            hot paths at zero measurable overhead.
        storage_backend: durable store behind each full node —
            ``"memory"`` (default; identical to the pre-storage
            behaviour) or ``"file"`` (append-only JSONL log, which
            journals every attached transaction and enables
            crash/restart recovery from disk).
        storage_dir: directory the file backend lays per-node stores
            under; required when *storage_backend* is ``"file"``, and
            must be empty for a fresh deployment
            (restores go through :meth:`~repro.nodes.full_node.
            FullNode.cold_restore`, never through ``build``).
        crypto_backend: Ed25519 implementation every full node verifies
            with — ``"reference"`` (default; the from-scratch module)
            or ``"accel"`` (precomputed tables, wNAF double-scalar and
            batch verification; see :mod:`repro.crypto.accel`).  Both
            accept exactly the same signatures, so simulation results
            are bit-identical either way.
        pow_workers: worker processes in the deployment-shared
            :class:`~repro.crypto.accel.CryptoPool`.  0 (default)
            creates no pool; with N >= 1, real PoW grinding and batch
            signature checks fan out across N processes with results
            identical to sequential execution (the pool lives at
            deployment level, never inside event handlers, so the
            discrete-event schedule is untouched).
        transport: ``"sim"`` (default) runs the deployment on the
            discrete-event simulator — bit-deterministic.
            ``"asyncio"`` hosts every node on its own
            :class:`~repro.network.aio.AsyncioTransport` listening on
            an ephemeral ``127.0.0.1`` port, all on one event loop the
            deployment owns — convergence-deterministic.  The
            :class:`BIoTSystem` calls are the same either way.
            (Multi-host fleets are configured where they are run:
            ``repro node --listen/--advertise-host/--seed-node``.)
        time_scale: simulated seconds per wall-clock second on the
            asyncio transport (the :class:`~repro.network.aio.
            AsyncClock` ratio); >1 compresses protocol timers so wire
            tests finish quickly.  Ignored by the simulator, whose
            virtual clock needs no scaling.
    """

    gateway_count: int = 2
    device_count: int = 4
    sensor_cycle: Tuple[str, ...] = (
        "temperature", "power", "vibration", "machine-status", "humidity",
    )
    report_interval: float = 3.0
    initial_difficulty: int = DEFAULT_INITIAL_DIFFICULTY
    credit_params: CreditParameters = field(default_factory=CreditParameters)
    tip_alpha: Optional[float] = None
    seed: int = 42
    enforce_pow: bool = True
    token_allocation: int = 1000
    retry_policy: Optional[BackoffPolicy] = None
    telemetry: bool = False
    trace_sample_every: int = 1
    storage_backend: str = "memory"
    storage_dir: Optional[str] = None
    crypto_backend: str = "reference"
    pow_workers: int = 0
    transport: str = "sim"
    time_scale: float = 1.0

    def __post_init__(self):
        if self.gateway_count < 1:
            raise ValueError("need at least one gateway")
        if self.device_count < 1:
            raise ValueError("need at least one device")
        if self.trace_sample_every < 1:
            raise ValueError("trace_sample_every must be >= 1")
        for sensor_type in self.sensor_cycle:
            if sensor_type not in SENSOR_TYPES:
                raise ValueError(f"unknown sensor type {sensor_type!r}")
        if self.storage_backend not in ("memory", "file"):
            raise ValueError(
                f"unknown storage backend {self.storage_backend!r} "
                f"(known: memory, file)")
        from ..crypto.accel import CRYPTO_BACKENDS
        if self.crypto_backend not in CRYPTO_BACKENDS:
            raise ValueError(
                f"unknown crypto backend {self.crypto_backend!r} "
                f"(known: {', '.join(CRYPTO_BACKENDS)})")
        if self.pow_workers < 0:
            raise ValueError("pow_workers must be >= 0")
        if self.transport not in ("sim", "asyncio"):
            raise ValueError(
                f"unknown transport {self.transport!r} "
                f"(known: sim, asyncio)")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")


class BIoTSystem:
    """A fully wired smart-factory deployment, on either transport."""

    def __init__(self, *, config: BIoTConfig, scheduler,
                 network: Optional[Network], runners: List[NodeRunner],
                 manager: ManagerNode,
                 gateways: List[FullNode], devices: List[LightNode],
                 device_keys: Dict[str, KeyPair],
                 gateway_keys: Dict[str, KeyPair],
                 crypto_pool=None,
                 telemetry=NULL_REGISTRY, tracer=NULL_TRACER,
                 lifecycle=NULL_LIFECYCLE):
        self.config = config
        self.scheduler = scheduler
        # Sim: the one shared Network and no runners.  TCP: no Network
        # and one started NodeRunner per node.
        self.network = network
        self.runners = runners
        self.manager = manager
        self.gateways = gateways
        self.devices = devices
        self.device_keys = device_keys
        self.gateway_keys = gateway_keys
        self.telemetry = telemetry
        self.tracer = tracer
        self.lifecycle = lifecycle
        self.crypto_pool = crypto_pool
        self.initialized = False
        self.closed = False

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, config: BIoTConfig = BIoTConfig()) -> "BIoTSystem":
        """Construct every node, link and identity for *config*.

        On ``transport="asyncio"`` this also creates the deployment's
        event loop and binds every node's listener, so what it returns
        is dialable; :meth:`close` gives all of it back.  If building
        fails part-way, what was already opened is given back the same
        way before the error propagates."""
        on_tcp = config.transport == "asyncio"
        scheduler = (AsyncioScheduler(time_scale=config.time_scale,
                                      loop=asyncio.new_event_loop())
                     if on_tcp else EventScheduler())
        runners: List[NodeRunner] = []
        stores: list = []
        crypto_pool = None
        try:
            # One worker pool for the whole deployment (or none):
            # pooling at node level would fork per node and, worse,
            # tempt event handlers into non-deterministic completion
            # ordering.
            if config.pow_workers > 0:
                from ..crypto.accel import CryptoPool
                crypto_pool = CryptoPool(config.pow_workers)
            return cls._assemble(config, scheduler, crypto_pool,
                                 runners, stores)
        except BaseException:
            _release(scheduler, runners, stores, crypto_pool)
            raise

    @classmethod
    def _assemble(cls, config: BIoTConfig, scheduler, crypto_pool,
                  runners: List[NodeRunner], stores: list) -> "BIoTSystem":
        """The body of :meth:`build`: every node runner and store it
        creates goes into *runners* / *stores* as soon as it exists."""
        # Imported here (not at module top) because the node classes
        # themselves import repro.core — a lazy import breaks the cycle.
        from ..nodes.full_node import FullNode
        from ..nodes.light_node import LightNode
        from ..nodes.manager import ManagerNode

        master = random.Random(config.seed)
        if config.telemetry:
            telemetry = MetricsRegistry()
            tracer = Tracer(scheduler.clock)
            lifecycle = LifecycleTracker(
                scheduler.clock, tracer=tracer, registry=telemetry,
                sample_every=config.trace_sample_every)
            # Causal propagation across deferred callbacks: the
            # scheduler captures the ambient trace context at schedule
            # time and restores it around execution.  With telemetry
            # off the binder stays None and step() takes the bare path.
            scheduler.trace_binder = tracer
        else:
            telemetry = NULL_REGISTRY
            tracer = NULL_TRACER
            lifecycle = NULL_LIFECYCLE
        on_tcp = isinstance(scheduler, AsyncioScheduler)
        network = None if on_tcp else Network(
            scheduler,
            rng=random.Random(master.randrange(2 ** 63)),
            telemetry=telemetry,
            tracer=tracer,
        )
        directory: Dict[str, Tuple[str, int]] = {}

        def attach(node) -> None:
            """Sim: join the shared Network.  TCP: the node gets its own
            listening endpoint (devices too — the manager pushes key
            distributions to them, so they must be dialable before they
            ever speak), all sharing one directory."""
            if network is not None:
                network.attach(node)
                return
            runners.append(NodeRunner(node, AsyncioTransport(
                scheduler,
                directory=directory,
                rng=random.Random(master.randrange(2 ** 63)),
                reconnect_policy=config.retry_policy,
                telemetry=telemetry,
                tracer=tracer,
            ), listen=("127.0.0.1", 0)))

        # One verification cache and one decode cache for the whole
        # deployment: verification of an immutable transaction is
        # deterministic, so the first full node to verify (or decode) a
        # flooded transaction pays and every later hop hits.  These are
        # simulation-level shortcuts — each node still *logically*
        # verifies; the caches only deduplicate the identical crypto.
        from ..tangle.transaction import TransactionDecodeCache
        from ..tangle.validation import VerificationCache

        verification_cache = VerificationCache(telemetry=telemetry)
        decode_cache = TransactionDecodeCache(telemetry=telemetry)

        manager_keys = KeyPair.generate(seed=f"manager:{config.seed}".encode())
        device_keys = {
            f"device-{i}": KeyPair.generate(seed=f"device:{config.seed}:{i}".encode())
            for i in range(config.device_count)
        }
        genesis = ManagerNode.create_genesis(
            manager_keys,
            network_name=f"smart-factory-{config.seed}",
            token_allocations=[
                (keys.node_id, config.token_allocation)
                for keys in device_keys.values()
            ],
        )

        def new_tip_selector() -> TipSelector:
            if config.tip_alpha is None:
                from ..tangle.tip_selection import UniformRandomTipSelector
                return UniformRandomTipSelector()
            return WeightedRandomWalkSelector(alpha=config.tip_alpha)

        def full_node_options() -> Dict[str, object]:
            """What the manager and every gateway are built with (own
            consensus, tip selector and rng each; the rest shared)."""
            return dict(
                consensus=CreditBasedConsensus.from_params(
                    config.credit_params,
                    initial_difficulty=config.initial_difficulty,
                    telemetry=telemetry),
                tip_selector=new_tip_selector(),
                rng=random.Random(master.randrange(2 ** 63)),
                enforce_pow=config.enforce_pow,
                retry_policy=config.retry_policy,
                verification_cache=verification_cache,
                decode_cache=decode_cache,
                crypto_backend=config.crypto_backend,
                crypto_pool=crypto_pool,
                telemetry=telemetry,
                lifecycle=lifecycle,
            )

        manager = ManagerNode("manager", manager_keys, genesis,
                              **full_node_options())
        attach(manager)

        gateways: List[FullNode] = []
        gateway_keys = {
            f"gateway-{i}": KeyPair.generate(
                seed=f"gateway:{config.seed}:{i}".encode()
            )
            for i in range(config.gateway_count)
        }
        for address in gateway_keys:
            gateway = FullNode(address, genesis, **full_node_options())
            attach(gateway)
            gateways.append(gateway)

        # Full mesh among full nodes over the backbone.
        full_nodes: List[FullNode] = [manager] + gateways
        for a in full_nodes:
            for b in full_nodes:
                if a.address != b.address:
                    a.add_peer(b.address)
                    if network is not None:
                        network.set_link(a.address, b.address, BACKBONE_LINK)

        if config.storage_backend != "memory":
            # Imported lazily: repro.storage is optional plumbing the
            # default in-memory deployment never touches.
            from ..storage.errors import StorageError
            from ..storage.persistence import NodePersistence
            from ..storage.store import open_store

            if config.storage_dir is None:
                raise StorageError(
                    f"storage_backend={config.storage_backend!r} needs "
                    f"storage_dir")
            for node in full_nodes:
                store = open_store(config.storage_backend,
                                   config.storage_dir, node=node.address,
                                   telemetry=telemetry)
                stores.append(store)
                if len(store):
                    raise StorageError(
                        f"storage_dir already holds a log for "
                        f"{node.address}: a fresh deployment needs an "
                        f"empty storage_dir; restoring an existing one "
                        f"goes through FullNode.cold_restore")
                node.attach_persistence(
                    NodePersistence(store, telemetry=telemetry))

        devices: List[LightNode] = []
        for i, (address, keys) in enumerate(sorted(device_keys.items())):
            sensor_type = config.sensor_cycle[i % len(config.sensor_cycle)]
            gateway = gateways[i % len(gateways)]
            device = LightNode(
                address, keys,
                gateway=gateway.address,
                manager=manager_keys.public,
                sensor=make_sensor(sensor_type, seed=config.seed + i),
                report_interval=config.report_interval,
                rng=random.Random(master.randrange(2 ** 63)),
                pow_pool=crypto_pool,
                telemetry=telemetry,
                lifecycle=lifecycle,
            )
            attach(device)
            if network is not None:
                network.set_link(address, gateway.address,
                                 WIRELESS_SENSOR_LINK)
                network.set_link(address, manager.address,
                                 WIRELESS_SENSOR_LINK)
            devices.append(device)

        for runner in runners:
            scheduler.loop.run_until_complete(runner.start())

        return cls(
            config=config,
            scheduler=scheduler,
            network=network,
            runners=runners,
            manager=manager,
            gateways=gateways,
            devices=devices,
            device_keys=device_keys,
            gateway_keys=gateway_keys,
            crypto_pool=crypto_pool,
            telemetry=telemetry,
            tracer=tracer,
            lifecycle=lifecycle,
        )

    @property
    def full_nodes(self) -> List["FullNode"]:
        """Every full node: the manager first, then the gateways."""
        return [self.manager] + self.gateways

    @property
    def transports(self) -> list:
        """What carries the deployment's messages: the one simulated
        ``Network``, or every node's ``AsyncioTransport``."""
        return [runner.transport for runner in self.runners] \
            or [self.network]

    # -- workflow steps 1-3 --------------------------------------------------

    def initialize(self, *, settle_seconds: float = 2.0) -> None:
        """Run workflow steps 1–3: register gateways, authorise devices,
        distribute keys to sensitive-data devices."""
        with self.tracer.span("biot.initialize",
                              gateways=len(self.gateways),
                              devices=len(self.devices)):
            with self.tracer.span("biot.register_and_authorize"):
                # Step 1: record gateway identifiers on the ledger.
                self.manager.register_gateways(
                    [keys.public for keys in self.gateway_keys.values()]
                )
                # Step 2: authorise the device population (Eqn. 1).
                self.manager.authorize_devices(
                    [keys.public for keys in self.device_keys.values()]
                )
                self.scheduler.run_for(settle_seconds)
            with self.tracer.span("biot.key_distribution"):
                # Step 3: distribute keys to sensitive-data devices.
                for device in self.devices:
                    if device.sensor.sensitive:
                        self.manager.distribute_key(device.address,
                                                    device.keypair.public)
                self.scheduler.run_for(settle_seconds)
        self.initialized = True

    # -- workflow steps 4-5 --------------------------------------------------

    def start_devices(self, *, stagger: float = 0.25) -> None:
        """Kick off every device's reporting loop (staggered starts)."""
        for index, device in enumerate(self.devices):
            device.start(initial_delay=index * stagger)

    def run_for(self, seconds: float) -> None:
        """Let *seconds* of simulated time pass (on TCP: run the
        deployment's loop for ``seconds / time_scale`` of wall time)."""
        with self.tracer.span("biot.run", seconds=seconds):
            self.scheduler.run_for(seconds)

    def close(self) -> None:
        """Give back everything :meth:`build` opened; idempotent.

        On TCP the fleet is stopped first (reverse boot order: outboxes
        flush briefly, then listeners, connections and tasks go),
        whatever is still pending on the loop is cancelled and the loop
        is closed.  Only then are the durable stores closed — nothing
        can journal into a closed store — and the crypto worker pool
        released.
        """
        if self.closed:
            return
        self.closed = True
        _release(self.scheduler, self.runners,
                 [node.persistence.store for node in self.full_nodes
                  if node.persistence is not None],
                 self.crypto_pool)

    # -- reporting -------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Aggregate statistics across the deployment."""
        accepted = sum(d.stats.submissions_accepted for d in self.devices)
        sent = sum(d.stats.submissions_sent for d in self.devices)
        transports = self.transports
        summary: Dict[str, object] = {
            "time": self.scheduler.clock.now(),
            "devices": len(self.devices),
            "gateways": len(self.gateways),
            "submissions_sent": sent,
            "submissions_accepted": accepted,
            "tangle_sizes": {n.address: n.tangle_size
                             for n in self.full_nodes},
            "messages_delivered": sum(
                t.messages_delivered for t in transports),
            "messages_dropped": sum(t.messages_dropped for t in transports),
            "mean_pow_seconds": (
                sum(d.stats.mean_pow_seconds for d in self.devices)
                / len(self.devices)
            ),
            "key_distributions": self.manager.distributor.completed_distributions,
        }
        if self.telemetry.enabled:
            summary["metrics"] = self.telemetry.snapshot()
        return summary


def _release(scheduler, runners: List[NodeRunner], stores: list,
             crypto_pool) -> None:
    """Stop the runners and close the deployment's loop, then the
    stores, then the worker pool (see :meth:`BIoTSystem.close`)."""
    if isinstance(scheduler, AsyncioScheduler):
        loop = scheduler.loop
        for runner in reversed(runners):
            loop.run_until_complete(runner.stop())
        scheduler.cancel_all()
        lingering = asyncio.all_tasks(loop)
        for task in lingering:
            task.cancel()
        if lingering:
            loop.run_until_complete(
                asyncio.gather(*lingering, return_exceptions=True))
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()
    for store in stores:
        store.close()
    if crypto_pool is not None:
        crypto_pool.close()
