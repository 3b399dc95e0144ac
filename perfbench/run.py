"""Run one benchmark workload against the real bn254 signing service.

    python3 perfbench/run.py --workload sign-open --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``
as checked out (pure Python: nothing to build).  Each run sets the
workload up five times (``setup_s`` is the median), measures for
``--seconds`` on the last set-up, checks every output, and prints a
table and a detail record, then one JSON result line:

* ``--trace 0``: the end-to-end metrics;
* ``--trace 1``: the per-layer metrics.  The run measures half its time
  untraced and half on a traced set-up, and reports the difference as
  ``trace.overhead_ms``.

Exit codes: 0 with a result; 1 when an output was wrong (no result is
printed); 2 when the program cannot be imported; 3 when the benchmark's
own self-test fails.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import pathlib
import platform
import random
import resource
import shutil
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sign-open", "http-mixed", "robust-churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


# -- the machine and configuration record ----------------------------------------------
def _git_commit():
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over ``src/`` (paths and contents), for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _filesystem(path: pathlib.Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                if (str(path).startswith(mount.rstrip("/") + "/")
                        or str(path) == mount) and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def machine_record(scratch: pathlib.Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "wal_filesystem": _filesystem(scratch),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` worker processes, each
    counted at the largest peak any joined worker reached."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


# -- orchestration ---------------------------------------------------------------
async def measure(workloads, spec, name, rng, seconds, scratch):
    """Set up, drive the workload, tear down; returns (env, run)."""
    env = await workloads.set_up(spec, rng, scratch)
    try:
        client = workloads.Client(env)
        run = await workloads.DRIVERS[name](env, client, rng, seconds)
    finally:
        await workloads.tear_down(env)
    return env, run


async def bench(args, scratch: pathlib.Path) -> dict:
    from perfbench import report, workloads
    from perfbench.tracing import Tracer
    spec = workloads.SPECS[args.workload]
    rng = random.Random(args.seed)
    setups = []
    measured = 2 if args.trace else 1
    for _ in range(SETUPS - measured):
        env = await workloads.set_up(spec, rng, scratch)
        setups.append(env.setup_s)
        await workloads.tear_down(env)
    seconds = args.seconds / measured
    env, run = await measure(workloads, spec, args.workload, rng, seconds,
                             scratch)
    setups.append(env.setup_s)
    rss = peak_rss_mb(spec.workers)
    checked = [(env, run)]
    result = {"detail": report.detail(run), "setups_s": setups}
    if not args.trace:
        result["metrics"] = report.end_to_end(run, setups, rss)
    else:
        spill = scratch / "spans"
        spill.mkdir()
        tracer = Tracer(spill)
        tracer.install()
        try:
            traced_env, traced = await measure(
                workloads, spec, args.workload, rng, seconds, scratch)
        finally:
            tracer.uninstall()
        setups.append(traced_env.setup_s)
        checked.append((traced_env, traced))
        spans = tracer.spans + tracer.load_worker_spans()
        keygen = [s for s in tracer.spans
                  if s[1] == "ServiceHandle.from_dkg"]
        metrics, layers = report.per_layer(
            traced, run, spans, tracer.layer_of, keygen)
        result["metrics"] = metrics
        result["detail"].update(layers)
        result["traced_end_to_end"] = report.end_to_end(traced, setups, rss)
        result["untraced_end_to_end"] = report.end_to_end(run, setups, rss)
    for env, checked_run in checked:
        workloads.check(env, checked_run)
    result["attempted"] = sum(len(r.outcomes) for _, r in checked)
    result["failed"] = sum(1 for _, r in checked for o in r.outcomes
                           if o.error is not None)
    return result


def _selftest() -> bool:
    import unittest
    from perfbench import selftest
    suite = unittest.defaultTestLoader.loadTestsFromModule(selftest)
    outcome = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(
        suite)
    return outcome.wasSuccessful()


def _table(metrics: dict) -> str:
    lines = [f"{'metric':32} {'value':>14}  {'unit':6} samples"]
    for name, entry in metrics.items():
        samples = entry.get("samples", "")
        lines.append(f"{name:32} {entry['value']:14.4f}  "
                     f"{entry['unit']:6} {samples}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in pathlib.Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not _selftest():
        print("perfbench: self-test failed", file=sys.stderr)
        return 3
    from perfbench import workloads
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(dir=scratch_root))
    started = time.perf_counter()
    try:
        result = asyncio.run(bench(args, scratch))
    except workloads.GateError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    spec = workloads.SPECS[args.workload]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": round(time.perf_counter() - started, 3),
        "machine": machine_record(scratch_root),
        "config": {"t": spec.t, "n": spec.n,
                   "service_config": spec.config_record()},
        "setups_s": result["setups_s"],
        "detail": result["detail"],
    }
    for key in ("traced_end_to_end", "untraced_end_to_end"):
        if key in result:
            record[key] = result[key]
    print(_table(result["metrics"]))
    print(_table({k: v for k, v in result["detail"].items()
                  if isinstance(v, dict) and "value" in v}))
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
