"""Load generators that time requests from when they were due.

``repro.service.loadgen.LoadGenerator.run_open`` sleeps a random gap
relative to its last wake-up and times each request from its actual
send.  When window crypto blocks the event loop, every later send
slips, the offered rate drops, and the slip is missing from the
latencies (coordinated omission).  These generators fix the schedule in
advance and time each request from its due time instead; how late the
generator ran is reported separately (``loadgen.late_ms``).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, List, Optional, Sequence


@dataclass
class Outcome:
    """One request as the client saw it (perf-counter seconds)."""

    rid: int
    kind: str
    message: bytes
    due: float
    sent: float
    done: float
    #: The service's result, or None when the request failed.
    result: object = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        """From due time to completion: a stall that delays the send
        counts against the request."""
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


#: ``issue(due) -> Outcome``: sends one request; the generator has
#: already chosen its due time.
Issue = Callable[[float], Awaitable[Outcome]]


def poisson_offsets(rng: random.Random, rate: float,
                    duration: float) -> List[float]:
    """Arrival offsets of a Poisson process of ``rate`` over
    ``[0, duration)``, conditioned on its expected count.

    Given its count, a Poisson process's arrival times are sorted
    uniform samples; fixing the count at ``round(rate * duration)``
    keeps the gaps exponential-like while every seed offers exactly the
    same load, so throughput differences between seeds are the
    service's, not the sampler's.
    """
    count = round(rate * duration)
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


def even_offsets(rate: float, duration: float) -> List[float]:
    """Arrival offsets at a constant ``rate`` over ``[0, duration)``."""
    return [index / rate for index in range(round(rate * duration))]


async def run_open(offsets: Sequence[float], issue: Issue,
                   clock=time.perf_counter) -> List[Outcome]:
    """Send one request at each ``start + offset`` without waiting for
    replies; returns every outcome once all have completed."""
    loop = asyncio.get_running_loop()
    start = clock()
    tasks = []
    for offset in offsets:
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(issue(due)))
    return list(await asyncio.gather(*tasks))


async def run_closed(callers: int, duration: float,
                     issue: Callable[[int, float], Awaitable[Outcome]],
                     clock=time.perf_counter) -> List[Outcome]:
    """``callers`` clients, each sending its next request when the
    previous one completes, until ``duration`` has passed.  A request's
    due time is the moment its caller was ready to send.  Requests
    still in flight at the deadline complete and are returned; callers
    of the throughput figures count only those done by the deadline."""
    end = clock() + duration
    outcomes: List[Outcome] = []

    async def caller(index: int) -> None:
        while clock() < end:
            outcomes.append(await issue(index, clock()))

    await asyncio.gather(*(caller(index) for index in range(callers)))
    return outcomes
