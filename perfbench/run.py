"""The end-to-end benchmark: ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>``, run from the repository root.

Workloads (inputs come from ``--seed``; see ``inputs.py``):

* ``cold-rewrite`` — one in-process client, no writes, chain/star/triangle
  queries against 28 views; more distinct fingerprints than the 512-entry
  caches hold.  Rewriting, containment and the caches do the work.
* ``churn-durable`` — one in-process client over a 100k-fact durable
  engine (WAL ``batch`` flush, auto-checkpoints) interleaving warm queries
  with small deltas; then the engine is abandoned un-closed and a fresh
  process recovers the directory.  Exec, materialize and storage do the work.
* ``http-serve`` — ``repro.server`` in its own process, one client process
  with at most ``nproc`` connections: closed-loop saturation, then an open
  loop at a fixed offered rate.  HTTP, queueing and the engine lock do the work.

Every set-up, run and recovery is a fresh interpreter (``worker.py``,
``server.py``), so peak memory is per run and process-global caches start
cold.  With ``--trace 0`` the untraced run gives the end-to-end metrics;
with ``--trace 1`` a traced run gives the per-layer metrics and the tracing
overhead (traced minus untraced mean operation time).  The metrics printed
are the ones ``BENCHMARK.json`` lists.  The second-to-last stdout line holds
everything else: host, provenance, workload-specific figures and the
oracle's findings.  The last line is the result; the exit code is 1 when an
answer was wrong or an operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("cold-rewrite", "churn-durable", "http-serve")
#: Set-ups per run (each in its own process); setup_s is their median.
SETUP_REPEATS = 3
#: Units of the figures BENCHMARK.json does not bound (it holds the rest):
#: they exist on some workloads only.
OTHER_UNITS = {
    "apply_p50_ms": "ms",
    "apply_p99_ms": "ms",
    "open_query_p50_ms": "ms",
    "open_query_p99_ms": "ms",
    "open_apply_p50_ms": "ms",
    "open_apply_p99_ms": "ms",
    "goodput_qps": "1/s",
    "recover_s": "s",
    "space_amp": "ratio",
    "error_rate": "ratio",
}
#: Every worker process of one workload must have finished this long after
#: the first one started; a run that has not has hung.
DEADLINE_S = 170


class Workers:
    """Starts the worker processes of one workload run, in order."""

    def __init__(self, workload, seed, seconds, workdir):
        self.workload, self.seed, self.seconds, self.workdir = workload, seed, seconds, workdir
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, mode, *extra, workdir=None):
        """One fresh interpreter; returns the JSON object it printed last."""
        launched = time.perf_counter()
        command = [
            sys.executable, os.path.join(common.HERE, "worker.py"), self.workload, mode,
            str(self.seed), str(self.seconds), repr(launched), workdir or self.workdir, *extra,
        ]
        completed = subprocess.run(
            command, capture_output=True, text=True, cwd=common.ROOT,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise SystemExit(
                f"perfbench: {self.workload} {mode} worker exited with {completed.returncode}"
            )
        return common.last_json_line(completed.stdout)


def _benchmark_spec():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _select(spec_metrics, figures):
    missing = [m["name"] for m in spec_metrics if m["name"] not in figures]
    if missing:
        raise SystemExit(f"perfbench: no figure for {', '.join(missing)}")
    return {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def _with_units(figures, spec):
    units = dict(OTHER_UNITS)
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    return {name: {"value": value, "unit": units[name]} for name, value in figures.items()}


def end_to_end(workers):
    setups = [
        workers.run("setup", workdir=os.path.join(workers.workdir, f"setup{i}"))["setup_s"]
        for i in range(SETUP_REPEATS - 1)
    ]
    run = workers.run("run")
    setups.append(run["setup_s"])
    queries = run["query_latencies"]
    figures = {
        "setup_s": common.median(setups),
        "query_p50_ms": common.percentile(queries, 0.5) * 1e3,
        "query_p99_ms": common.percentile(queries, 0.99) * 1e3,
        "ops_per_s": run.get("ops_per_s") or run["ops"] / run["busy_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    applies = run.get("apply_latencies")
    if applies:
        figures["apply_p50_ms"] = common.percentile(applies, 0.5) * 1e3
        figures["apply_p99_ms"] = common.percentile(applies, 0.99) * 1e3
    for kind in ("query", "apply"):
        samples = run.get(f"open_{kind}_latencies")
        if samples:
            figures[f"open_{kind}_p50_ms"] = common.percentile(samples, 0.5) * 1e3
            figures[f"open_{kind}_p99_ms"] = common.percentile(samples, 0.99) * 1e3
    for key in ("goodput_qps", "space_amp"):
        if key in run:
            figures[key] = run[key]
    failed = run["failed"]
    attempted = run.get("attempted") or run["ops"]
    detail = {
        "setup_samples_s": setups,
        "query_samples": len(queries),
        "query_samples_beyond_p99": sum(1 for s in queries if s * 1e3 > figures["query_p99_ms"]),
        "apply_samples": len(applies or ()),
        "oracle": run["oracle"],
        "provenance": run["provenance"],
    }
    if "generator" in run:
        detail["generator"] = run["generator"]
        detail["errors"] = run["errors"]
    if workers.workload == "churn-durable":
        recovered = workers.run("recover")
        figures["recover_s"] = recovered["recover_s"]
        failed += recovered["failed"]
        detail["recovery"] = recovered["recovery"]
        detail["recovery_probes"] = recovered["probes"]
    figures["error_rate"] = failed / attempted
    return figures, attempted, failed, detail


def per_layer(workers):
    workload = workers.workload
    run = workers.run("run", "--trace")
    traced = run["traced"]
    figures = dict(traced["layers"])
    failed = run["failed"]
    attempted = run.get("attempted") or run["ops"]
    detail = {key: value for key, value in traced.items() if key != "layers"}
    if workload == "churn-durable":
        recovered = workers.run("recover", "--trace")
        figures.update(recovered["layers"])
        failed += recovered["failed"]
    if workload == "http-serve":
        # The server cannot trace only part of the traffic, so the
        # overhead comes from a second, untraced run of the same length.
        base = workers.run("run")
        traced_ms = run["closed_busy_ms_per_op"]
        untraced_ms = base["closed_busy_ms_per_op"]
        figures["trace.overhead_ms_per_op"] = traced_ms - untraced_ms
        figures["trace.overhead_pct"] = (traced_ms - untraced_ms) / untraced_ms * 100
        detail.update(traced_ms_per_op=traced_ms, untraced_ms_per_op=untraced_ms)
        failed += base["failed"]
        attempted += base["attempted"]
    # A layer the workload never calls reports 0: the predicted bypasses.
    if workload != "churn-durable":
        figures.update(dict.fromkeys(tracing.RECOVERY_METRICS, 0.0))
    if workload != "http-serve":
        figures.update(dict.fromkeys(tracing.SERVER_METRICS, 0.0))
    return figures, attempted, failed, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        sys.stderr.write(f"perfbench: no repro package under {common.SRC}\n")
        return 2
    spec = _benchmark_spec()
    measure = per_layer if args.trace else end_to_end
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        workdir = os.path.join(common.WORK, f"{workload}-{args.seed}-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            figures, attempted, failed, detail = measure(
                Workers(workload, args.seed, args.seconds, workdir)
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        detail.update(
            workload=workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            host=common.host_block(),
            figures=_with_units(figures, spec),
        )
        if workload == "churn-durable":
            detail["wal_flush_policy"] = inputs.CHURN_FLUSH_POLICY
        common.emit({"perfbench": detail})
        metrics = _select(spec["per_layer"] if args.trace else spec["end_to_end"], figures)
        common.emit(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
        if failed:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
