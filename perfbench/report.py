"""Metric definitions and their computation from runs and spans.

:data:`END_TO_END` and :data:`PER_LAYER` are the metrics the result
line carries (``BENCHMARK.json`` lists the same names, units and
directions; the self-test holds them equal).  Every one of them is
measured on every workload.  Figures that exist only on some workloads
— verify latency, lifecycle pauses, the failure share — go into the
detail record printed before the result line.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from perfbench import stats
from perfbench.tracing import LAYERS, attribute, self_times

#: A signature counts towards ``sign_rps`` only if it completed within
#: this limit (about three times sign-open's closed-loop p50).
LATENCY_LIMIT_MS = 500.0

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sign_p50_ms": ("ms", "lower"),
    "sign_tail_ms": ("ms", "lower"),
    "sign_rps": ("1/s", "higher"),
    "ops_rps": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "gateway.overhead_ms": ("ms", "lower"),
    "shards.queue_wait_ms.p50": ("ms", "lower"),
    "shards.queue_wait_ms.p99": ("ms", "lower"),
    "shards.window_size": ("count", "higher"),
    "shards.busy_share": ("share", "lower"),
    "wal.syncs_per_sign": ("count", "lower"),
    "wal.sync_ms": ("ms", "lower"),
    "workers.job_ms.p50": ("ms", "lower"),
    "workers.job_ms.p99": ("ms", "lower"),
    "workers.jobs": ("count", "lower"),
    "workers.rewarms": ("count", "lower"),
    "serialization.codec_ms": ("ms", "lower"),
    "serialization.bytes_per_op": ("bytes", "lower"),
    "core.share_sign_ms": ("ms", "lower"),
    "core.share_sign.per_sign": ("count", "lower"),
    "core.combine_window_ms": ("ms", "lower"),
    "core.combine_window.msgs": ("count", "higher"),
    "core.batch_verify_ms": ("ms", "lower"),
    "core.locate_invalid.calls": ("count", "lower"),
    "core.fallback.per_sign": ("count", "lower"),
    "groups.multi_exp.calls": ("count", "lower"),
    "groups.multi_exp.points": ("count", "lower"),
    "groups.multi_exp_ms": ("ms", "lower"),
    "groups.multi_pairing.calls": ("count", "lower"),
    "groups.multi_pairing.pairs": ("count", "lower"),
    "groups.multi_pairing_ms": ("ms", "lower"),
    "hash.miss_share": ("share", "lower"),
    "hash.hash_to_g1_ms": ("ms", "lower"),
    "dkg.keygen_ms": ("ms", "lower"),
    "loadgen.late_ms": ("ms", "lower"),
    "loadgen.client_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "ledger.unattributed_share": ("share", "lower"),
}

SERVICE_SPANS = ("SigningService.sign", "SigningService.verify")
CLIENT_SPANS = ("GatewayClient.sign", "GatewayClient.verify")
INLINE_JOBS = ("ServiceHandle.process_sign_window",
               "ServiceHandle.verify_window")
#: Job kind by span name (a worker-tier job's span does not say).
JOB_KIND = {"ServiceHandle.process_sign_window": "sign",
            "ServiceHandle.verify_window": "verify",
            "WorkerPool.run_job": "any"}


def _metric(value: float, unit: str, samples: Optional[int] = None,
            **extra) -> dict:
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    entry.update(extra)
    return entry


def capacity_phase(run):
    """Closed-loop phase if the workload has one, else the open one: the
    phase every end-to-end latency and rate is read from.

    sign-open's open loop goes to the detail record only.  On a shared
    2-core host the spread of its tail over five to ten seeds
    (quartile distance over median) read 0.18-0.28 at a third of
    capacity and 0.11-0.21 at a fifth.  The closed loop keeps the process busy: its p50 moves about
    as much as the machine's throughput does, its tail under twice as
    much."""
    return next((p for p in run.phases if p.kind == "closed"),
                run.phases[0])


def open_phase(run):
    """The open-loop phase, or None."""
    return next((p for p in run.phases if p.kind == "open"), None)


#: Throughput is the median of the capacity phase's rate over this many
#: equal time slices.
RATE_SLICES = 3


def _timed(run, kind: str, phase=None):
    phase = phase or capacity_phase(run)
    return [(o.due, o.latency_ms) for o in phase.outcomes if o.kind == kind]


def _rate(phase, keep) -> float:
    """Median over :data:`RATE_SLICES` slices of the phase of the rate
    of counted completions that ``keep`` accepts.  A slice's rate is its
    completions over the time from the previous slice's last completion
    (the phase start for the first) to its own last one, so the figure
    is not quantized by the slice width."""
    done = [(o.done, o.done) for o in phase.counted() if keep(o)]
    rates = []
    previous = phase.start
    for part in stats.time_slices(done, phase.start, phase.end,
                                  RATE_SLICES):
        if part:
            last = max(part)
            rates.append(len(part) / (last - previous))
            previous = last
    return stats.median(rates)


def end_to_end(run, setups_s: Sequence[float], peak_rss_mb: float
               ) -> Dict[str, dict]:
    """Every end-to-end metric of one untraced run, with sample counts."""
    sign = stats.summary_ms(_timed(run, "sign"))
    capacity = capacity_phase(run)
    counted = capacity.counted()
    good = sum(1 for o in counted
               if o.kind == "sign" and o.latency_ms <= LATENCY_LIMIT_MS)
    return {
        "setup_s": _metric(stats.median(setups_s), "s", len(setups_s)),
        "sign_p50_ms": _metric(sign["p50"], "ms", sign["n"]),
        "sign_tail_ms": _metric(sign["tail"], "ms", sign["n"],
                                percentile=round(sign["tail_q"], 2),
                                tail_slices=sign["slices"]),
        "sign_rps": _metric(
            _rate(capacity, lambda o: o.kind == "sign"
                  and o.latency_ms <= LATENCY_LIMIT_MS),
            "1/s", good, limit_ms=LATENCY_LIMIT_MS, phase=capacity.kind,
            slices=RATE_SLICES),
        "ops_rps": _metric(_rate(capacity, lambda o: True), "1/s",
                           len(counted), phase=capacity.kind,
                           slices=RATE_SLICES),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
    }


def detail(run) -> Dict[str, dict]:
    """Figures that exist only on some workloads (detail record)."""
    out: Dict[str, dict] = {}
    verifies = _timed(run, "verify")
    if len(verifies) > stats.TAIL_BEYOND:
        summary = stats.summary_ms(verifies)
        out["verify_p50_ms"] = _metric(summary["p50"], "ms", summary["n"])
        out["verify_tail_ms"] = _metric(
            summary["tail"], "ms", summary["n"],
            percentile=round(summary["tail_q"], 2),
            tail_slices=summary["slices"])
    attempted = len(run.outcomes)
    failed = sum(1 for o in run.outcomes if o.error is not None)
    out["failed_share"] = _metric(failed / attempted, "share", attempted)
    if run.pauses_ms:
        out["frontend.epoch_pause_ms"] = _metric(
            max(run.pauses_ms), "ms", len(run.pauses_ms),
            each=[round(p, 3) for p in run.pauses_ms])
    for kind, seconds in run.lifecycle_s.items():
        out[f"lifecycle.{kind}_ms"] = _metric(seconds * 1000.0, "ms", 1)
    signs = [latency for _, latency in _timed(run, "sign")]
    out["sign_deciles_ms"] = [round(stats.percentile(signs, q), 2)
                              for q in range(10, 100, 10)]
    opened = open_phase(run)
    if opened is not None and opened is not capacity_phase(run):
        summary = stats.summary_ms(_timed(run, "sign", opened))
        out["open_sign_p50_ms"] = _metric(summary["p50"], "ms", summary["n"])
        out["open_sign_tail_ms"] = _metric(
            summary["tail"], "ms", summary["n"],
            percentile=round(summary["tail_q"], 2),
            tail_slices=summary["slices"])
    late = [o.late_ms for o in run.outcomes]
    out["loadgen.late_ms.p99"] = _metric(stats.percentile(late, 99), "ms",
                                         len(late))
    return out


# -- per layer ---------------------------------------------------------------------
class _Index:
    """Spans of the measured stretch, grouped by name and by request."""

    def __init__(self, run, spans, layer_of):
        outcomes = run.outcomes
        self.lo = min(o.due for o in outcomes)
        self.hi = max(o.done for o in outcomes)
        self.spans = [s for s in spans if self.lo <= s[2] <= self.hi]
        self.layer_of = layer_of
        self.by_name: Dict[str, list] = {}
        for span in self.spans:
            self.by_name.setdefault(span[1], []).append(span)
        by_message: Dict[bytes, list] = {}
        for outcome in outcomes:
            by_message.setdefault(outcome.message, []).append(outcome)
        #: rid -> the spans that served the request: they carry its
        #: message and overlap its [sent, done].
        self.of_request: Dict[int, list] = {o.rid: [] for o in outcomes}
        for span in self.spans:
            start, end, keys = span[2], span[3], span[5]
            for key in set(keys):
                for outcome in by_message.get(key, ()):
                    if start < outcome.done and end > outcome.sent:
                        self.of_request[outcome.rid].append(span)

    def named(self, *names) -> list:
        return [s for name in names for s in self.by_name.get(name, ())]

    def tagged(self, *names) -> list:
        """Spans of these names that served some request."""
        return [s for s in self.named(*names) if s[5]]


def _ms(span) -> float:
    return (span[3] - span[2]) * 1000.0


def _mean_ms(spans) -> float:
    return stats.mean([_ms(s) for s in spans])


def ledger(run, index: _Index) -> Dict[str, float]:
    """Each request's due-to-done time split among the layers it
    crossed: lateness of the send, then at each instant the deepest
    active span serving it; what no span covers is ``unattributed``.
    Returns the share of all request time per layer (sums to 1)."""
    totals: Dict[str, float] = {}
    whole = 0.0
    frontend = LAYERS["service.frontend"]
    for outcome in run.outcomes:
        whole += outcome.done - outcome.due
        totals["loadgen.late"] = (totals.get("loadgen.late", 0.0)
                                  + outcome.sent - outcome.due)
        served = index.of_request[outcome.rid]
        # Service-side spans run on other tasks and may have begun
        # before this request reached the service (a shard already
        # waiting for its next window): they serve it only from then on.
        entered = min((s[2] for s in served if s[1] in SERVICE_SPANS),
                      default=outcome.sent)
        spans = []
        for span in served:
            layer = index.layer_of[span[1]]
            depth = LAYERS[layer]
            start = max(span[2], entered) if depth > frontend else span[2]
            spans.append((start, span[3], depth, layer))
        for layer, seconds in attribute(outcome.sent, outcome.done,
                                        spans).items():
            name = layer or "unattributed"
            totals[name] = totals.get(name, 0.0) + seconds
    return {name: seconds / whole for name, seconds in sorted(totals.items())}


def per_layer(run, untraced_run, spans, layer_of, keygen_spans):
    """Every per-layer metric of one traced run, and the detail record's
    per-layer figures: ``(metrics, detail)``."""
    index = _Index(run, spans, layer_of)
    outcomes = run.outcomes
    ops = len(outcomes)
    signs = sum(1 for o in outcomes if o.kind == "sign")
    before, after = run.stats_before, run.stats_after
    delta = {key: after[key] - before[key] for key in before}

    overhead, client, waits = [], [], []
    for outcome in outcomes:
        served = index.of_request[outcome.rid]
        service = [s for s in served if s[1] in SERVICE_SPANS]
        if not service:
            continue
        service_span = service[0]
        round_trip = (outcome.done - outcome.sent) * 1000.0
        overhead.append(round_trip - _ms(service_span))
        outer = [s for s in served if s[1] in CLIENT_SPANS] or service
        client.append(round_trip - _ms(outer[0]))
        windows = [s for s in served if s[1] == "BatchAccumulator.next_window"
                   and s[3] >= service_span[2]]
        if windows:
            first = min(s[3] for s in windows)
            waits.append((first - service_span[2]) * 1000.0)

    jobs = index.named("WorkerPool.run_job") or [
        s for s in index.named(*INLINE_JOBS) if not isinstance(s[0], tuple)]
    job_ms = [_ms(s) for s in jobs]
    codec = [s for s in index.spans if layer_of.get(s[1]) == "serialization"]
    share_sign = index.tagged("LJYThresholdScheme.share_sign")
    combine_window = index.tagged("LJYThresholdScheme.combine_window")
    multi_exp = index.tagged("BN254Group.multi_exp")
    pairings = index.tagged("bn254_backend.multi_pairing")
    hashes = index.tagged("ThresholdParams.hash_message")
    misses = index.tagged("hash_to_curve.hash_to_g1_uncached")
    sync_ms = sum(_ms(s) for s in index.named("WriteAheadLog.sync"))
    measured_ms = (index.hi - index.lo) * 1000.0
    traced_p50 = stats.summary_ms(_timed(run, "sign"))["p50"]
    untraced_p50 = stats.summary_ms(_timed(untraced_run, "sign"))["p50"]

    def per_op(value: float) -> float:
        return value / ops

    values = {
        "gateway.overhead_ms": (stats.median(overhead), len(overhead)),
        "shards.queue_wait_ms.p50": (stats.median(waits), len(waits)),
        "shards.queue_wait_ms.p99": (stats.percentile(waits, 99),
                                     len(waits)),
        "shards.window_size": (delta["batched"] / delta["windows"],
                               delta["windows"]),
        "shards.busy_share": (
            delta["busy_ms"] / (after["shards"] * measured_ms),
            delta["windows"]),
        "wal.syncs_per_sign": (delta["wal_syncs"] / signs, signs),
        "wal.sync_ms": (sync_ms / max(1, delta["wal_syncs"]),
                        delta["wal_syncs"]),
        "workers.job_ms.p50": (stats.median(job_ms), len(job_ms)),
        "workers.job_ms.p99": (stats.percentile(job_ms, 99), len(job_ms)),
        "workers.jobs": (delta["worker_jobs"], None),
        "workers.rewarms": (delta["rewarms"], None),
        "serialization.codec_ms": (per_op(sum(_ms(s) for s in codec)), ops),
        "serialization.bytes_per_op": (per_op(sum(s[6] for s in codec)),
                                       ops),
        "core.share_sign_ms": (_mean_ms(share_sign), len(share_sign)),
        "core.share_sign.per_sign": (len(share_sign) / signs, signs),
        "core.combine_window_ms": (_mean_ms(combine_window),
                                   len(combine_window)),
        "core.combine_window.msgs": (
            stats.mean([len(s[5]) for s in combine_window]),
            len(combine_window)),
        "core.batch_verify_ms": (
            _mean_ms(index.tagged("LJYThresholdScheme.batch_verify")),
            len(index.tagged("LJYThresholdScheme.batch_verify"))),
        "core.locate_invalid.calls": (len(index.tagged(
            "LJYThresholdScheme.locate_invalid",
            "LJYThresholdScheme.locate_invalid_partials")), None),
        "core.fallback.per_sign": (delta["fallback"] / signs, signs),
        "groups.multi_exp.calls": (per_op(len(multi_exp)), ops),
        "groups.multi_exp.points": (per_op(sum(s[6] for s in multi_exp)),
                                    ops),
        "groups.multi_exp_ms": (per_op(sum(_ms(s) for s in multi_exp)), ops),
        "groups.multi_pairing.calls": (per_op(len(pairings)), ops),
        "groups.multi_pairing.pairs": (per_op(sum(s[6] for s in pairings)),
                                       ops),
        "groups.multi_pairing_ms": (per_op(sum(_ms(s) for s in pairings)),
                                    ops),
        "hash.miss_share": (len(misses) / (2 * len(hashes)), len(hashes)),
        "hash.hash_to_g1_ms": (_mean_ms(misses), len(misses)),
        "dkg.keygen_ms": (stats.median([_ms(s) for s in keygen_spans]),
                          len(keygen_spans)),
        "loadgen.late_ms": (stats.percentile(
            [o.late_ms for o in outcomes], 99), ops),
        "loadgen.client_ms": (stats.median(client), len(client)),
        "trace.overhead_ms": (stats.overhead(traced_p50, untraced_p50),
                              None),
    }
    shares = ledger(run, index)
    values["ledger.unattributed_share"] = (shares.get("unattributed", 0.0),
                                           ops)
    out = {name: _metric(value, PER_LAYER[name][0], samples)
           for name, (value, samples) in values.items()}
    return out, _layer_detail(index, shares, run, job_ms, jobs)


def _layer_detail(index: _Index, shares, run, job_ms, jobs) -> dict:
    """Per-layer figures for the detail record."""
    detail_out = {"ledger_share": {k: round(v, 5) for k, v in shares.items()}}
    self_ms: Dict[str, float] = {}
    own = self_times(index.spans)
    for span in index.spans:
        layer = index.layer_of[span[1]]
        self_ms[layer] = self_ms.get(layer, 0.0) + own[span[0]] * 1000.0
    detail_out["self_ms_per_op"] = {
        k: round(v / len(run.outcomes), 4) for k, v in sorted(self_ms.items())}
    by_kind: Dict[str, List[float]] = {}
    for span, ms in zip(jobs, job_ms):
        by_kind.setdefault(JOB_KIND[span[1]], []).append(ms)
    detail_out["workers.job_ms_by_kind"] = {
        kind: {"p50": stats.median(v), "p99": stats.percentile(v, 99),
               "samples": len(v)} for kind, v in by_kind.items()}
    for name, label in (("ServiceHandle.refreshed", "dkg.refresh_ms"),
                        ("ServiceHandle.reshared", "dkg.reshare_ms")):
        spans = index.named(name)
        if spans:
            detail_out[label] = _ms(spans[0])
    verify_windows = index.tagged("ServiceHandle.verify_window")
    if verify_windows:
        detail_out["core.verify_window_ms"] = _mean_ms(verify_windows)
    detail_out["spans"] = len(index.spans)
    return detail_out
