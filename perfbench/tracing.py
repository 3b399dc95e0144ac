"""Span tracing around the public functions of ``repro``, from outside.

The program has no tracing of its own yet, so the traced run replaces
the public functions a request crosses with wrappers that record one
span per call: ``(sid, name, start, end, parent, keys, size)``.

* ``parent`` is the span that was current in the same task (or thread)
  when the call began.
* ``keys`` are the messages of the requests the call serves.  Calls
  that take messages (``SigningService.sign``, window jobs) read them
  from their arguments; ``BatchAccumulator.next_window`` reads them from
  the window it returns and marks them as the task's current window, so
  the shard's following calls (WAL sync, dispatch) carry every request
  of the window; other calls inherit their parent's keys.  Keys are
  resolved to request ids after the run (``report._Index``),
  by message and by time, because worker processes cannot see the
  benchmark's request ids.
* ``size`` is a count the wrapper reads off the call: points of a
  multi-exponentiation, pairs of a multi-pairing, bytes of a codec call.

Spans stay in memory.  Worker processes of the process tier are forked
after the wrappers are installed, so they run the wrappers too; each
appends its spans to a file in the run's scratch directory after every
job, and :meth:`Tracer.load_worker_spans` reads them back.
"""

from __future__ import annotations

import contextvars
import heapq
import inspect
import itertools
import os
import pathlib
import pickle
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.stats import self_time

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
_WINDOW = contextvars.ContextVar("perfbench_window", default=())

# Argument readers: the wrapped callables are called as functions of
# ``args`` (``args[0]`` is ``self`` for methods).
def _message_arg(args):
    return (args[1],)


def _messages_arg(args):
    return tuple(args[1])


def _job_messages(args):
    return tuple(args[1].messages)


def _window_messages(result):
    return tuple(request.message for request in result)


def _len_arg(index):
    return lambda args, result: len(args[index])


def _len_result(args, result):
    return len(result)


#: Nesting depth of each layer: a request's time goes to the deepest
#: layer active at each instant (see :func:`attribute`).
LAYERS = {
    "service.gateway": 1,
    "service.frontend": 2,
    "service.accumulator": 3,
    "service.wal": 4,
    "service.workers": 5,
    "core.scheme": 6,
    "dkg": 6,
    "core.keys": 7,
    "curves.hash_to_curve": 8,
    "groups": 9,
    "serialization": 9,
}


def _targets():
    """``(owner, attribute, span name, layer, options)`` for every
    wrapped callable.  Imported lazily: the module must import without
    ``repro`` on the path."""
    from repro.core import keys as core_keys
    from repro.core import scheme as core_scheme
    from repro.curves import hash_to_curve
    from repro.groups import bn254_backend
    from repro import serialization
    from repro.service import (
        accumulator, frontend, loadgen, wal, workers,
    )
    handle = core_scheme.ServiceHandle
    scheme = core_scheme.LJYThresholdScheme
    codec = serialization.WireCodec
    group = bn254_backend.BN254Group
    return [
        (loadgen.GatewayClient, "sign", "service.gateway",
         dict(keys=_message_arg)),
        (loadgen.GatewayClient, "verify", "service.gateway",
         dict(keys=_message_arg)),
        (frontend.SigningService, "sign", "service.frontend",
         dict(keys=_message_arg)),
        (frontend.SigningService, "verify", "service.frontend",
         dict(keys=_message_arg)),
        (accumulator.BatchAccumulator, "next_window", "service.accumulator",
         dict(window=True)),
        (wal.WriteAheadLog, "sync", "service.wal", {}),
        (workers.WorkerPool, "run_job", "service.workers",
         dict(keys=_job_messages)),
        (workers, "execute_job", "service.workers",
         dict(keys=_job_messages, spill=True)),
        (handle, "process_sign_window", "core.scheme",
         dict(keys=_messages_arg)),
        (handle, "verify_window", "core.scheme",
         dict(keys=_messages_arg)),
        (handle, "from_dkg", "dkg", {}),
        (handle, "refreshed", "dkg", {}),
        (handle, "reshared", "dkg", {}),
        (scheme, "share_sign", "core.scheme", {}),
        (scheme, "combine_window", "core.scheme", {}),
        (scheme, "combine", "core.scheme", {}),
        (scheme, "batch_verify", "core.scheme", {}),
        (scheme, "locate_invalid", "core.scheme", {}),
        (scheme, "batch_share_verify_window", "core.scheme",
         dict(size=_len_arg(3))),
        (scheme, "locate_invalid_partials", "core.scheme", {}),
        (core_keys.ThresholdParams, "hash_message", "core.keys", {}),
        (hash_to_curve, "hash_to_g1_uncached", "curves.hash_to_curve", {}),
        (group, "multi_exp", "groups", dict(size=_len_arg(1))),
        (bn254_backend, "multi_pairing", "groups", dict(size=_len_arg(0))),
        (codec, "encode_wal_record", "serialization",
         dict(size=_len_result, parent_only=True)),
        (codec, "encode_job", "serialization",
         dict(size=_len_result, parent_only=True)),
        (codec, "decode_outcome", "serialization",
         dict(size=_len_arg(1), parent_only=True)),
        (codec, "encode_signature", "serialization",
         dict(size=_len_result, parent_only=True)),
        (codec, "decode_signature", "serialization",
         dict(size=_len_arg(1), parent_only=True)),
    ]


def span_name(owner, attr: str) -> str:
    owner_name = getattr(owner, "__name__", str(owner))
    return f"{owner_name.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Records spans while installed; restores the originals on
    :meth:`uninstall`."""

    def __init__(self, spill_dir: pathlib.Path):
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        #: Span name -> layer, for every wrapped callable.
        self.layer_of: Dict[str, str] = {}
        self._spill_dir = pathlib.Path(spill_dir)
        self._child: List[tuple] = []
        self._ids = itertools.count()
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        for owner, attr, layer, options in _targets():
            name = span_name(owner, attr)
            self.layer_of[name] = layer
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            self._patches.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self._wrap(original.__func__, name, **options))
            else:
                wrapped = self._wrap(original, name, **options)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, name: str, keys=None, size=None,
              window: bool = False, spill: bool = False,
              parent_only: bool = False) -> Callable:
        tracer = self
        clock = time.perf_counter
        ids = self._ids

        if inspect.iscoroutinefunction(original):
            # Coroutines only ever run in the benchmark process.
            async def traced_async(*args, **kwargs):
                parent = _CURRENT.get()
                sid = next(ids)
                span_keys = (keys(args) if keys is not None else
                             parent[1] if parent is not None
                             else _WINDOW.get())
                token = _CURRENT.set((sid, span_keys))
                start = clock()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    _CURRENT.reset(token)
                end = clock()
                if window:
                    span_keys = _window_messages(result)
                    _WINDOW.set(span_keys)
                tracer.spans.append((
                    sid, name, start, end,
                    parent[0] if parent is not None else None, span_keys,
                    size(args, result) if size is not None else 0))
                return result
            return traced_async

        def traced(*args, **kwargs):
            in_parent = os.getpid() == tracer.pid
            if parent_only and not in_parent:
                return original(*args, **kwargs)
            # A worker's job entry point starts a fresh tree: the context
            # it inherited at fork time belongs to the benchmark process.
            parent = None if spill else _CURRENT.get()
            sid = next(ids)
            span_keys = (keys(args) if keys is not None else
                         parent[1] if parent is not None else _WINDOW.get())
            token = _CURRENT.set((sid, span_keys))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
            record = (sid, name, start, clock(),
                      parent[0] if parent is not None else None, span_keys,
                      size(args, result) if size is not None else 0)
            if in_parent:
                tracer.spans.append(record)
            else:
                tracer._child.append(record)
                if spill:
                    tracer._spill()
            return result
        return traced

    # -- worker processes ---------------------------------------------------
    def _spill(self) -> None:
        path = self._spill_dir / f"spans-{os.getpid()}.pickle"
        with open(path, "ab") as sink:
            pickle.dump(self._child, sink)
        self._child = []

    def load_worker_spans(self) -> List[tuple]:
        """Spans the worker processes spilled, with ids made unique by
        process (``(pid, sid)``).  Only files this run's workers wrote
        are read."""
        spans = []
        for path in sorted(self._spill_dir.glob("spans-*.pickle")):
            pid = int(path.stem.split("-", 1)[1])
            with open(path, "rb") as source:
                while True:
                    try:
                        batch = pickle.load(source)
                    except EOFError:
                        break
                    for sid, name, start, end, parent, keys, size in batch:
                        spans.append((
                            (pid, sid), name, start, end,
                            None if parent is None else (pid, parent),
                            keys, size))
        return spans


# -- analysis -----------------------------------------------------------------
def self_times(spans: Sequence[tuple]) -> Dict[object, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals (children found by their parent link)."""
    children: Dict[object, List[Tuple[float, float]]] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: self_time((start, end), children.get(sid, ()))
            for sid, _, start, end, _, _, _ in spans}


def attribute(lo: float, hi: float,
              spans: Sequence[Tuple[float, float, int, str]]
              ) -> Dict[Optional[str], float]:
    """Split ``[lo, hi]`` among ``(start, end, depth, layer)`` spans:
    each instant goes to the active span of greatest depth (the latest
    started among equals); instants no span covers go to ``None``."""
    events = []
    for start, end, depth, layer in spans:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            events.append((start, end, depth, layer))
    events.sort()
    cuts = sorted({lo, hi, *(e[0] for e in events), *(e[1] for e in events)})
    shares: Dict[Optional[str], float] = {}
    active: list = []
    position = 0
    for left, right in zip(cuts, cuts[1:]):
        while position < len(events) and events[position][0] <= left:
            start, end, depth, layer = events[position]
            heapq.heappush(active, (-depth, -start, end, layer))
            position += 1
        while active and active[0][2] <= left:
            heapq.heappop(active)
        # Lazily expired spans below the top stay until they surface.
        layer = active[0][3] if active else None
        shares[layer] = shares.get(layer, 0.0) + (right - left)
    return shares
