"""The three workloads: configuration, set-up, inputs and traffic.

Every workload runs in this one process, on one asyncio thread: the
generator, the ``HttpGateway`` and the ``SigningService`` share the
loop (robust-churn adds the service's own two worker processes).  Keys
come from ``ServiceHandle.from_dkg``; the write-ahead log is on, in the
run's scratch directory, because durability is the production
configuration.  Every other ``ServiceConfig`` field keeps its default
unless :data:`SPECS` names it.

* ``sign-open`` — (2, 5), in-process.  Independent users send distinct
  fresh messages to ``SigningService.sign`` as an open-loop Poisson
  stream at :data:`OPEN_RATE` (about two thirds of capacity on a 2-core
  box), then 16 closed-loop callers measure capacity and the latency
  the end-to-end metrics report.  Windows hold several requests, so
  share-sign MSMs, ``combine_window``, the in-window batch verify and
  hash-to-curve misses do most of the work.
* ``http-mixed`` — (2, 5), in-process, through ``HttpGateway`` over two
  keep-alive ``GatewayClient`` connections, two callers that each wait
  for their reply.  One sign to three verifies; half the verifies
  target signatures this run produced recently (hash-cache hits), half
  a pre-signed pool four times the 256-entry hash caches, and 5% carry
  a signature for a different message.  Windows hold one or two
  requests, so batching is bypassed and the gateway, the ``max_wait_ms``
  hold, the per-window fsync and the pairing-bound verify path dominate.
* ``robust-churn`` — (3, 7), process tier (2 workers, 2 shards).
  Signer 1 forges every partial; it sits in shard 0's quorum only, so
  5/8 of the traffic takes the robust fallback.  Open-loop signs at
  :data:`CHURN_RATE`, evenly spaced, one live refresh at a third of the
  schedule and one reshare (signer 7 out, 8 in) at two thirds.
"""

from __future__ import annotations

import asyncio
import collections
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench.loadgen import (
    Outcome, even_offsets, poisson_offsets, run_closed, run_open,
)

#: Offered sign rate of sign-open's open-loop phase (sign/s), about two
#: thirds of capacity.  Its latency is in the detail record, not among
#: the end-to-end metrics (see ``report.capacity_phase``).
OPEN_RATE = 60.0
#: Share of sign-open's run given to the open loop; the rest is the
#: closed loop every end-to-end figure of the workload is read from.
OPEN_SHARE = 1 / 3
#: Closed-loop callers of sign-open's capacity phase.
CAPACITY_CALLERS = 16
#: Offered sign rate of robust-churn (sign/s), sent at even spacing: a
#: forged-shard request costs ~150 ms of serial robust fallback, so a
#: Poisson burst of two or three of them queues for the next and the
#: tail would measure the luck of the draw instead of the program.
CHURN_RATE = 4.0
#: robust-churn routes exactly 5 of every 8 requests to shard 0, whose
#: quorum holds the forger: "about half" the traffic takes the robust
#: fallback, and the same share in every run, so that the median sits
#: inside the fallback mode instead of on the edge between two modes
#: that a binomial split would move from seed to seed.
FORGED_SHARD_BLOCK = [0] * 5 + [1] * 3
#: Callers (and keep-alive connections) of http-mixed.
HTTP_CALLERS = 2
#: The hash-to-curve caches hold 256 entries (``ThresholdParams`` and
#: the module-level G1 memo); the verify pool is four times larger.
HASH_CACHE_ENTRIES = 256
POOL_SIZE = 4 * HASH_CACHE_ENTRIES
#: Signatures a "recent" verify chooses from: the last ones this run
#: produced, well inside the hash caches.
RECENT = 32
#: http-mixed's operation mix per block: 40 signs and 120 verifies (60
#: recent, 60 pool), 3 of each verify kind forged (5%).  Blocks are
#: shuffled, so the mix is exact however long the run.
MIX_BLOCK = (["sign"] * 40 + ["recent"] * 57 + ["recent-forged"] * 3
             + ["pool"] * 57 + ["pool-forged"] * 3)

API_KEY = "perfbench"


@dataclass(frozen=True)
class Spec:
    t: int
    n: int
    http: bool = False
    #: ``ServiceConfig`` fields this workload sets (besides ``wal_path``).
    workers: int = 0
    forger: Optional[int] = None

    def config_record(self) -> Dict[str, object]:
        fields: Dict[str, object] = {"wal_path": "<scratch>/wal"}
        if self.workers:
            fields["workers"] = self.workers
        if self.forger is not None:
            fields["fault_injector"] = f"CorruptSignerFault({self.forger})"
        if self.http:
            fields["front_door"] = (
                f"HttpGateway, one tenant without quotas, {HTTP_CALLERS} "
                f"keep-alive GatewayClient connections")
        return fields


SPECS = {
    "sign-open": Spec(t=2, n=5),
    "http-mixed": Spec(t=2, n=5, http=True),
    "robust-churn": Spec(t=3, n=7, workers=2, forger=1),
}


class GateError(Exception):
    """An output was wrong: the run must fail and report nothing."""


@dataclass
class Env:
    """One live set-up of a workload."""

    spec: Spec
    handle: object
    service: object
    wal_dir: object
    setup_s: float
    gateway: object = None
    clients: List[object] = field(default_factory=list)
    #: (message, signature) pairs the warm-up windows produced.
    warm: List[tuple] = field(default_factory=list)

    @property
    def public_key(self):
        return self.handle.public_key


def _warm_messages(num_shards: int, rng: random.Random) -> List[bytes]:
    """One fresh message routed to each shard."""
    from repro.service import HashRing
    ring = HashRing(list(range(num_shards)))
    chosen: Dict[int, bytes] = {}
    while len(chosen) < num_shards:
        message = b"warm/" + rng.randbytes(16)
        chosen.setdefault(ring.shard_for(message), message)
    return [chosen[shard] for shard in sorted(chosen)]


async def set_up(spec: Spec, rng: random.Random, scratch) -> Env:
    """From nothing to ready: DKG, service and gateway start, and one
    served window per shard (lazy caches and worker warm-up paid)."""
    from repro import get_group
    from repro.core.scheme import ServiceHandle
    from repro.service import (
        CorruptSignerFault, GatewayClient, HttpGateway, ServiceConfig,
        SigningService, TenantConfig,
    )
    from repro.serialization import WireCodec
    wal_dir = scratch / f"wal-{rng.getrandbits(32):08x}"
    wal_dir.mkdir()
    warm_messages = _warm_messages(ServiceConfig().num_shards, rng)
    started = time.perf_counter()
    group = get_group("bn254")
    handle, _ = ServiceHandle.from_dkg(group, spec.t, spec.n, rng=rng)
    config = ServiceConfig(wal_path=wal_dir / "wal", workers=spec.workers)
    if spec.forger is not None:
        config.fault_injector = CorruptSignerFault(spec.forger)
    service = SigningService(handle, config)
    await service.start()
    env = Env(spec=spec, handle=handle, service=service, wal_dir=wal_dir,
              setup_s=0.0)
    if spec.http:
        env.gateway = HttpGateway(
            service, [TenantConfig(name="bench", api_key=API_KEY)])
        await env.gateway.start()
        env.clients = [
            GatewayClient(env.gateway.host, env.gateway.port, API_KEY,
                          codec=WireCodec(group))
            for _ in range(HTTP_CALLERS)]
        results = await asyncio.gather(*(
            env.clients[i % HTTP_CALLERS].sign(message)
            for i, message in enumerate(warm_messages)))
    else:
        results = await asyncio.gather(*(
            service.sign(message) for message in warm_messages))
    env.setup_s = time.perf_counter() - started
    env.warm = [(r.message, r.signature) for r in results]
    return env


async def tear_down(env: Env) -> None:
    if env.gateway is not None:
        for client in env.clients:
            await client.close()
        await env.gateway.stop()
    await env.service.stop()
    shutil.rmtree(env.wal_dir, ignore_errors=True)


@dataclass
class Phase:
    """One stretch of traffic: ``open`` (scheduled) or ``closed``."""

    kind: str
    start: float
    end: float
    outcomes: List[Outcome]

    def counted(self) -> List[Outcome]:
        """Outcomes that count towards throughput: in a closed phase,
        those done by its deadline."""
        if self.kind == "closed":
            return [o for o in self.outcomes if o.done <= self.end]
        return self.outcomes


@dataclass
class Run:
    """A measured run on one set-up, plus what the gate needs."""

    phases: List[Phase]
    #: (expected verdict, returned verdict) per verify.
    verdicts: List[tuple] = field(default_factory=list)
    #: Barrier pauses (ms) of live key-lifecycle transitions.
    pauses_ms: List[float] = field(default_factory=list)
    #: Seconds each lifecycle call took in total (DKG plus barrier).
    lifecycle_s: Dict[str, float] = field(default_factory=dict)
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)

    @property
    def outcomes(self) -> List[Outcome]:
        return [o for phase in self.phases for o in phase.outcomes]


def stats_snapshot(service) -> dict:
    """The service's public counters, copied."""
    stats = service.snapshot_stats()
    shards = stats.shards.values()
    snapshot = {
        "windows": sum(s.windows for s in shards),
        "batched": sum(s.batched_requests for s in shards),
        "busy_ms": sum(s.busy_ms for s in shards),
        "fallback": sum(s.fallback_combines for s in shards),
        "shards": len(stats.shards),
        "wal_syncs": service.wal.stats.syncs,
        "worker_jobs": stats.workers.jobs if stats.workers else 0,
        "rewarms": stats.workers.rewarms if stats.workers else 0,
    }
    return snapshot


class Messages:
    """Fresh, distinct messages drawn from the run's seed."""

    def __init__(self, rng: random.Random, tag: str):
        self._rng = rng
        self._tag = tag.encode()
        self._count = 0

    def next(self) -> bytes:
        self._count += 1
        return b"%s/%d/%s" % (self._tag, self._count,
                              self._rng.randbytes(16).hex().encode())


class Client:
    """Sends one request and records it; failures are recorded, not
    raised, so the gate can count them."""

    def __init__(self, env: Env):
        self.env = env
        self._rid = 0

    async def _send(self, kind: str, message: bytes, due: float,
                    call) -> Outcome:
        from repro.errors import ReproError
        self._rid += 1
        outcome = Outcome(rid=self._rid, kind=kind, message=message,
                          due=due, sent=time.perf_counter(), done=0.0)
        try:
            outcome.result = await call
        except (ReproError, OSError) as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.done = time.perf_counter()
        return outcome

    def sign(self, message: bytes, due: float, caller: int = 0):
        front = (self.env.clients[caller] if self.env.gateway is not None
                 else self.env.service)
        return self._send("sign", message, due, front.sign(message))

    def verify(self, message: bytes, signature, due: float,
               caller: int = 0):
        return self._send("verify", message, due,
                          self.env.clients[caller].verify(message, signature))


# -- drivers --------------------------------------------------------------------
async def drive_sign_open(env: Env, client: Client, rng: random.Random,
                          seconds: float) -> Run:
    messages = Messages(rng, "open")
    offsets = poisson_offsets(rng, OPEN_RATE, seconds * OPEN_SHARE)
    planned = [messages.next() for _ in offsets]
    queue = iter(planned)
    run = Run(phases=[], stats_before=stats_snapshot(env.service))
    start = time.perf_counter()
    outcomes = await run_open(
        offsets, lambda due: client.sign(next(queue), due))
    run.phases.append(Phase("open", start, max(o.done for o in outcomes),
                            outcomes))
    closed_s = seconds * (1 - OPEN_SHARE)
    start = time.perf_counter()
    outcomes = await run_closed(
        CAPACITY_CALLERS, closed_s,
        lambda caller, due: client.sign(messages.next(), due))
    run.phases.append(Phase("closed", start, start + closed_s, outcomes))
    run.stats_after = stats_snapshot(env.service)
    return run


def make_pool(env: Env, rng: random.Random) -> List[tuple]:
    """``POOL_SIZE`` (message, signature) pairs under the set-up's key,
    signed with the reconstructed master key through a separate
    parameter object, then the shared G1 hash memo is flushed — so the
    pool costs the service the same hash-to-curve misses as any message
    it has not seen."""
    from repro.core.keys import ThresholdParams
    from repro.core.scheme import LJYThresholdScheme, reconstruct_master_key
    from repro.curves.hash_to_curve import hash_to_g1
    params = env.handle.scheme.params
    private = ThresholdParams(group=params.group, t=params.t, n=params.n,
                              g_z=params.g_z, g_r=params.g_r,
                              hash_domain=params.hash_domain)
    signer = LJYThresholdScheme(private)
    master = reconstruct_master_key(list(env.handle.shares.values()),
                                    params.group.order, params.t)
    messages = Messages(rng, "pool")
    pool = []
    for _ in range(POOL_SIZE):
        message = messages.next()
        pool.append((message, signer.sign_with_master(master, message)))
    for index in range(HASH_CACHE_ENTRIES):
        hash_to_g1(b"perfbench-flush/%d" % index, domain="perfbench:flush")
    return pool


async def drive_http_mixed(env: Env, client: Client, rng: random.Random,
                           seconds: float) -> Run:
    pool = make_pool(env, rng)
    messages = Messages(rng, "http")
    recent = collections.deque(env.warm, maxlen=RECENT)
    plan: List[str] = []
    run = Run(phases=[], stats_before=stats_snapshot(env.service))

    def next_op() -> str:
        if not plan:
            block = list(MIX_BLOCK)
            rng.shuffle(block)
            plan.extend(reversed(block))
        return plan.pop()

    def target(kind: str):
        source = recent if kind.startswith("recent") else pool
        message, signature = source[rng.randrange(len(source))]
        if kind.endswith("forged"):
            other = message
            while other == message:
                other, signature = source[rng.randrange(len(source))]
            return message, signature, False
        return message, signature, True

    async def issue(caller: int, due: float) -> Outcome:
        kind = next_op()
        if kind == "sign":
            outcome = await client.sign(messages.next(), due, caller)
            if outcome.error is None:
                recent.append((outcome.message, outcome.result.signature))
            return outcome
        message, signature, truth = target(kind)
        outcome = await client.verify(message, signature, due, caller)
        if outcome.error is None:
            run.verdicts.append((truth, outcome.result.valid))
        return outcome

    start = time.perf_counter()
    outcomes = await run_closed(HTTP_CALLERS, seconds, issue)
    run.phases.append(Phase("closed", start, start + seconds, outcomes))
    run.stats_after = stats_snapshot(env.service)
    return run


def routed_messages(messages: Messages, rng: random.Random, count: int,
                    block: List[int]) -> List[bytes]:
    """``count`` fresh messages whose shards follow shuffled copies of
    ``block`` (routing by the service's own consistent-hash ring)."""
    from repro.service import HashRing
    ring = HashRing(list(range(max(block) + 1)))
    spare: Dict[int, List[bytes]] = {}
    planned: List[bytes] = []
    shards: List[int] = []
    while len(planned) < count:
        if not shards:
            shards = list(block)
            rng.shuffle(shards)
        want = shards.pop()
        while not spare.get(want):
            message = messages.next()
            spare.setdefault(ring.shard_for(message), []).append(message)
        planned.append(spare[want].pop(0))
    return planned


async def drive_robust_churn(env: Env, client: Client, rng: random.Random,
                             seconds: float) -> Run:
    messages = Messages(rng, "churn")
    offsets = even_offsets(CHURN_RATE, seconds)
    planned = routed_messages(messages, rng, len(offsets),
                              FORGED_SHARD_BLOCK)
    queue = iter(planned)
    lifecycle_rng = random.Random(rng.getrandbits(64))
    run = Run(phases=[], stats_before=stats_snapshot(env.service))
    service = env.service

    async def lifecycle(start: float) -> None:
        await asyncio.sleep(max(0.0, start + seconds / 3
                                - time.perf_counter()))
        began = time.perf_counter()
        run.pauses_ms.append(await service.refresh(rng=lifecycle_rng))
        run.lifecycle_s["refresh"] = time.perf_counter() - began
        await asyncio.sleep(max(0.0, start + 2 * seconds / 3
                                - time.perf_counter()))
        signers = set(service.handle.shares)
        leaver = max(signers)
        joiner = leaver + 1
        began = time.perf_counter()
        run.pauses_ms.append(await service.reshare(
            service.handle.threshold, sorted(signers - {leaver} | {joiner}),
            rng=lifecycle_rng))
        run.lifecycle_s["reshare"] = time.perf_counter() - began

    start = time.perf_counter()
    churn = asyncio.get_running_loop().create_task(lifecycle(start))
    outcomes = await run_open(
        offsets, lambda due: client.sign(next(queue), due))
    await churn
    run.phases.append(Phase("open", start, max(o.done for o in outcomes),
                            outcomes))
    run.stats_after = stats_snapshot(env.service)
    return run


DRIVERS = {
    "sign-open": drive_sign_open,
    "http-mixed": drive_http_mixed,
    "robust-churn": drive_robust_churn,
}


# -- the correctness gate ---------------------------------------------------------
def check(env: Env, run: Run) -> None:
    """Raise :class:`GateError` on any wrong output.

    * no request failed, was shed or expired (at most t forgers);
    * every returned signature verifies under the set-up's public key
      (batch-verified here, outside the timed region);
    * every verify verdict matches ground truth;
    * the public key is byte-identical after refresh and reshare.
    """
    failures = [o for o in run.outcomes if o.error is not None]
    if failures:
        raise GateError(f"{len(failures)} valid requests failed, first: "
                        f"{failures[0].error}")
    if (env.service.handle.public_key.to_bytes()
            != env.public_key.to_bytes()):
        raise GateError("the public key changed across the run")
    scheme = env.handle.scheme
    signed = [(o.message, o.result.signature) for o in run.outcomes
              if o.kind == "sign"] + list(env.warm)
    chunk = 128
    for lo in range(0, len(signed), chunk):
        messages = [m for m, _ in signed[lo:lo + chunk]]
        signatures = [s for _, s in signed[lo:lo + chunk]]
        if not scheme.batch_verify(env.public_key, messages, signatures):
            bad = scheme.locate_invalid(env.public_key, messages, signatures)
            raise GateError(f"{len(bad)} returned signatures do not verify, "
                            f"first on message {messages[bad[0]]!r}")
    wrong = [pair for pair in run.verdicts if pair[0] != pair[1]]
    if wrong:
        raise GateError(f"{len(wrong)} verify verdicts contradict ground "
                        f"truth (expected, returned) e.g. {wrong[0]}")
