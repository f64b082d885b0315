"""The B-IoT system facade: build and run a smart-factory deployment.

Wires the whole architecture of Fig. 3 together — one manager, a set of
gateway full nodes, and wireless-sensor light nodes — over the
discrete-event network, with the credit-based consensus and data
authority management active end to end.

Typical use (see ``examples/smart_factory.py``)::

    system = BIoTSystem.build(BIoTConfig(device_count=6, seed=7))
    system.initialize()           # workflow steps 1-3
    system.start_devices()        # steps 4-5, repeating
    system.run_for(90.0)
    print(system.summary())
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
from ..network.transport import BACKBONE_LINK, WIRELESS_SENSOR_LINK, LatencyModel
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
    """Deployment parameters for a simulated smart factory.

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
        wireless_link / backbone_link: latency models.
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
            behaviour), ``"file"`` (append-only JSONL log) or
            ``"sqlite"``.  Durable backends journal every attached
            transaction and enable crash/restart recovery from disk.
        storage_dir: directory the durable backends lay per-node
            stores under; required when *storage_backend* is not
            ``"memory"``, and must be empty for a fresh deployment
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
            discrete-event simulator — bit-deterministic, driven by
            :meth:`BIoTSystem.initialize` / :meth:`BIoTSystem.run_for`.
            ``"asyncio"`` hosts every node on its own
            :class:`~repro.network.aio.AsyncioTransport` over real
            localhost TCP — convergence-deterministic, driven from a
            running event loop by :meth:`BIoTSystem.start_fleet` /
            :meth:`BIoTSystem.initialize_async` /
            :meth:`BIoTSystem.run_for_async`.
        listen_host: interface full nodes bind their TCP listeners to
            (asyncio transport only).
        listen_base_port: first listen port; full node *i* binds
            ``listen_base_port + i``.  0 (default) binds ephemeral
            ports, published through the fleet's shared directory —
            the right choice for tests running in parallel.
        time_scale: simulated seconds per wall-clock second on the
            asyncio transport (the :class:`~repro.network.aio.
            AsyncClock` ratio); >1 compresses protocol timers so wire
            tests finish quickly.  Ignored by the simulator, whose
            virtual clock needs no scaling.
        advertise_host: the host peers should dial to reach this
            deployment's nodes (asyncio transport only).  Defaults to
            the listen host; set it when listening on a wildcard
            address (``0.0.0.0``) or behind NAT.
        discovery_seeds: ``address=host:port`` seed-node specs
            (asyncio transport only).  When non-empty, every full node
            runs a :class:`~repro.network.discovery.DiscoveryService`
            and bootstraps into the *external* fleet those seeds
            anchor — the multi-process deployment path, where no
            shared in-process directory exists.  Empty (default) keeps
            the single-process behaviour: peers resolve through the
            deployment's shared directory.
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
    wireless_link: LatencyModel = WIRELESS_SENSOR_LINK
    backbone_link: LatencyModel = BACKBONE_LINK
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
    listen_host: str = "127.0.0.1"
    listen_base_port: int = 0
    time_scale: float = 1.0
    advertise_host: Optional[str] = None
    discovery_seeds: Tuple[str, ...] = ()

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
        if self.storage_backend not in ("memory", "file", "sqlite"):
            raise ValueError(
                f"unknown storage backend {self.storage_backend!r} "
                f"(known: memory, file, sqlite)")
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
        if not (0 <= self.listen_base_port <= 65535):
            raise ValueError("listen_base_port must be in [0, 65535]")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.discovery_seeds and self.transport != "asyncio":
            raise ValueError(
                "discovery_seeds requires transport='asyncio' — the "
                "simulator resolves peers through its own directory")
        from ..network.discovery import parse_seed
        for spec in self.discovery_seeds:
            parse_seed(spec)  # raises ValueError on malformed specs


class BIoTSystem:
    """A fully wired smart-factory simulation."""

    def __init__(self, *, config: BIoTConfig, scheduler,
                 network: Optional[Network], manager: ManagerNode,
                 gateways: List[FullNode], devices: List[LightNode],
                 device_keys: Dict[str, KeyPair],
                 gateway_keys: Dict[str, KeyPair],
                 crypto_pool=None,
                 runners: Optional[List[NodeRunner]] = None,
                 directory: Optional[Dict[str, Tuple[str, int]]] = None,
                 discovery: Optional[List[object]] = None,
                 telemetry=NULL_REGISTRY, tracer=NULL_TRACER,
                 lifecycle=NULL_LIFECYCLE):
        self.config = config
        self.scheduler = scheduler
        self.network = network
        self.runners = runners
        self.directory = directory
        self.discovery = discovery if discovery is not None else []
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

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, config: BIoTConfig = BIoTConfig()) -> "BIoTSystem":
        """Construct every node, link and identity for *config*."""
        # Imported here (not at module top) because the node classes
        # themselves import repro.core — a lazy import breaks the cycle.
        from ..nodes.full_node import FullNode
        from ..nodes.light_node import LightNode
        from ..nodes.manager import ManagerNode

        master = random.Random(config.seed)
        asyncio_mode = config.transport == "asyncio"
        scheduler = (AsyncioScheduler(time_scale=config.time_scale)
                     if asyncio_mode else EventScheduler())
        if config.telemetry:
            telemetry = MetricsRegistry(scheduler.clock)
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
        network: Optional[Network] = None
        directory: Optional[Dict[str, Tuple[str, int]]] = None
        runners: Optional[List[NodeRunner]] = None
        if asyncio_mode:
            directory = {}
            runners = []
        else:
            network = Network(
                scheduler,
                rng=random.Random(master.randrange(2 ** 63)),
                telemetry=telemetry,
                tracer=tracer,
            )

        def attach(node, *, listen_index: Optional[int] = None) -> None:
            """Sim mode: attach to the shared Network.  Asyncio mode:
            give the node its own TCP transport (full nodes listen,
            devices stay connect-only) sharing one directory."""
            if not asyncio_mode:
                network.attach(node)
                return
            transport = AsyncioTransport(
                scheduler,
                directory=directory,
                rng=random.Random(master.randrange(2 ** 63)),
                reconnect_policy=config.retry_policy,
                telemetry=telemetry,
                tracer=tracer,
            )
            listen = None
            if listen_index is not None:
                port = (0 if config.listen_base_port == 0
                        else config.listen_base_port + listen_index)
                listen = (config.listen_host, port)
            runners.append(NodeRunner(node, transport, listen=listen,
                                      advertise_host=config.advertise_host))

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

        # One worker pool for the whole deployment (or none): pooling
        # at node level would fork per node and, worse, tempt event
        # handlers into non-deterministic completion ordering.
        crypto_pool = None
        if config.pow_workers > 0:
            from ..crypto.accel import CryptoPool
            crypto_pool = CryptoPool(config.pow_workers)

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

        manager = ManagerNode(
            "manager", manager_keys, genesis,
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
        attach(manager, listen_index=0)

        gateways: List[FullNode] = []
        gateway_keys = {
            f"gateway-{i}": KeyPair.generate(
                seed=f"gateway:{config.seed}:{i}".encode()
            )
            for i in range(config.gateway_count)
        }
        for i in range(config.gateway_count):
            gateway = FullNode(
                f"gateway-{i}", genesis,
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
            attach(gateway, listen_index=i + 1)
            gateways.append(gateway)

        # Full mesh among full nodes over the backbone.
        full_nodes: List[FullNode] = [manager] + gateways
        for a in full_nodes:
            for b in full_nodes:
                if a.address != b.address:
                    a.add_peer(b.address)
                    if network is not None:
                        network.set_link(a.address, b.address,
                                         config.backbone_link)

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
                if len(store):
                    raise StorageError(
                        f"storage_dir already holds a log for "
                        f"{node.address}: a fresh deployment needs an "
                        f"empty storage_dir; restoring an existing one "
                        f"goes through FullNode.cold_restore")
                node.attach_persistence(
                    NodePersistence(store, telemetry=telemetry))

        # Multi-process deployments: every full node bootstraps into
        # the external fleet through the configured seed nodes; the
        # in-process directory still short-circuits local lookups.
        discovery: List[object] = []
        if asyncio_mode and config.discovery_seeds:
            from ..network.discovery import DiscoveryService, parse_seed
            seeds = [parse_seed(spec) for spec in config.discovery_seeds]
            for runner, node in zip(runners, full_nodes):
                discovery.append(DiscoveryService(
                    runner.transport, address=node.address, role="full",
                    seeds=seeds, policy=config.retry_policy,
                    on_full_peer=node.add_peer, telemetry=telemetry))

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
            # Devices listen as well: the manager pushes key
            # distributions to them, so on TCP they must be dialable
            # before they ever speak.
            attach(device, listen_index=1 + config.gateway_count + i)
            if network is not None:
                network.set_link(address, gateway.address,
                                 config.wireless_link)
                network.set_link(address, manager.address,
                                 config.wireless_link)
            devices.append(device)

        return cls(
            config=config,
            scheduler=scheduler,
            network=network,
            manager=manager,
            gateways=gateways,
            devices=devices,
            device_keys=device_keys,
            gateway_keys=gateway_keys,
            crypto_pool=crypto_pool,
            runners=runners,
            directory=directory,
            discovery=discovery if asyncio_mode else None,
            telemetry=telemetry,
            tracer=tracer,
            lifecycle=lifecycle,
        )

    @property
    def full_nodes(self) -> List["FullNode"]:
        """Every full node: the manager first, then the gateways."""
        return [self.manager] + self.gateways

    @property
    def asyncio_mode(self) -> bool:
        """True when the deployment runs on real TCP transports."""
        return self.runners is not None

    def _require_sim(self, what: str) -> None:
        if self.runners is not None:
            raise RuntimeError(
                f"{what} drives the discrete-event scheduler and is "
                f"unavailable with transport='asyncio'; use start_fleet"
                f"/initialize_async/run_for_async from a running event "
                f"loop instead")

    def _require_asyncio(self, what: str) -> None:
        if self.runners is None:
            raise RuntimeError(
                f"{what} requires transport='asyncio' (this deployment "
                f"runs on the discrete-event simulator)")

    # -- workflow steps 1-3 --------------------------------------------------

    def initialize(self, *, settle_seconds: float = 2.0) -> None:
        """Run workflow steps 1–3: register gateways, authorise devices,
        distribute keys to sensitive-data devices."""
        self._require_sim("initialize")
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
                self.scheduler.run_until(
                    self.scheduler.clock.now() + settle_seconds)
            with self.tracer.span("biot.key_distribution"):
                # Step 3: distribute keys to sensitive-data devices.
                for device in self.devices:
                    if device.sensor.sensitive:
                        self.manager.distribute_key(device.address,
                                                    device.keypair.public)
                self.scheduler.run_until(
                    self.scheduler.clock.now() + settle_seconds)
        self.initialized = True

    # -- workflow steps 4-5 --------------------------------------------------

    def start_devices(self, *, stagger: float = 0.25) -> None:
        """Kick off every device's reporting loop (staggered starts)."""
        for index, device in enumerate(self.devices):
            device.start(initial_delay=index * stagger)

    def run_for(self, seconds: float) -> None:
        """Advance the simulation by *seconds*."""
        self._require_sim("run_for")
        with self.tracer.span("biot.run", seconds=seconds):
            self.scheduler.run_until(self.scheduler.clock.now() + seconds)

    # -- asyncio-transport lifecycle -----------------------------------------

    async def start_fleet(self) -> None:
        """Boot every :class:`~repro.network.aio.NodeRunner`: full
        nodes bind their TCP listeners (publishing bound addresses into
        the shared directory), devices come up connect-only.  Must run
        inside the event loop that will host the fleet."""
        self._require_asyncio("start_fleet")
        for runner in self.runners:
            await runner.start()
        for service in self.discovery:
            service.start()

    def listen_addresses(self) -> Dict[str, Tuple[str, int]]:
        """Bound ``address -> (host, port)`` for every listening node
        (meaningful after :meth:`start_fleet`; ephemeral ports included,
        which is how tests discover what the OS assigned)."""
        self._require_asyncio("listen_addresses")
        return {
            runner.address: runner.bound_address
            for runner in self.runners
            if runner.bound_address is not None
        }

    async def stop_fleet(self) -> None:
        """Gracefully shut the fleet down (reverse boot order):
        outboxes flush briefly, then listeners, connections and tasks
        are torn down.  Idempotent."""
        self._require_asyncio("stop_fleet")
        for runner in reversed(self.runners):
            await runner.stop()
        if isinstance(self.scheduler, AsyncioScheduler):
            self.scheduler.cancel_all()

    async def initialize_async(self, *, settle_seconds: float = 2.0) -> None:
        """Workflow steps 1–3 over the wire.

        Same protocol steps as :meth:`initialize`; settling means
        *waiting* (``settle_seconds`` of simulated time, wall-scaled by
        ``time_scale``) while gossip propagates, instead of draining a
        virtual event queue."""
        self._require_asyncio("initialize_async")
        settle_wall = self.scheduler.clock.to_wall(settle_seconds)
        with self.tracer.span("biot.initialize",
                              gateways=len(self.gateways),
                              devices=len(self.devices)):
            with self.tracer.span("biot.register_and_authorize"):
                self.manager.register_gateways(
                    [keys.public for keys in self.gateway_keys.values()]
                )
                self.manager.authorize_devices(
                    [keys.public for keys in self.device_keys.values()]
                )
                await asyncio.sleep(settle_wall)
            with self.tracer.span("biot.key_distribution"):
                for device in self.devices:
                    if device.sensor.sensitive:
                        self.manager.distribute_key(device.address,
                                                    device.keypair.public)
                await asyncio.sleep(settle_wall)
        self.initialized = True

    async def run_for_async(self, seconds: float) -> None:
        """Let the fleet run for *seconds* of simulated time (wall
        time scaled by ``time_scale``); devices report and gossip flows
        on real sockets meanwhile."""
        self._require_asyncio("run_for_async")
        with self.tracer.span("biot.run", seconds=seconds):
            await asyncio.sleep(self.scheduler.clock.to_wall(seconds))

    def close(self) -> None:
        """Release deployment-level resources (the crypto worker pool).

        Idempotent; a system without a pool (``pow_workers=0``, the
        default) has nothing to release and this is a no-op.
        """
        if self.crypto_pool is not None:
            self.crypto_pool.close()

    # -- reporting -------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Aggregate statistics across the deployment."""
        accepted = sum(d.stats.submissions_accepted for d in self.devices)
        sent = sum(d.stats.submissions_sent for d in self.devices)
        full_nodes = [self.manager] + self.gateways
        summary: Dict[str, object] = {
            "time": self.scheduler.clock.now(),
            "devices": len(self.devices),
            "gateways": len(self.gateways),
            "submissions_sent": sent,
            "submissions_accepted": accepted,
            "tangle_sizes": {n.address: n.tangle_size for n in full_nodes},
            "messages_delivered": (
                self.network.messages_delivered
                if self.network is not None else
                sum(r.transport.messages_delivered for r in self.runners)),
            "messages_dropped": (
                self.network.messages_dropped
                if self.network is not None else
                sum(r.transport.messages_dropped for r in self.runners)),
            "mean_pow_seconds": (
                sum(d.stats.mean_pow_seconds for d in self.devices)
                / len(self.devices)
            ),
            "key_distributions": self.manager.distributor.completed_distributions,
        }
        if self.telemetry.enabled:
            summary["metrics"] = self.telemetry.snapshot()
        return summary
