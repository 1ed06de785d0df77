"""One fresh interpreter per set-up, run or recovery (see ``run.py``).

Usage: ``python3 perfbench/worker.py <workload> <mode> <seed> <seconds>
<launched> <workdir> [--trace]``.  ``mode`` is ``setup`` (build
the engine, report set-up time, exit), ``run`` (set up, then the timed
closed loop and the oracle checks) or ``recover`` (``churn-durable`` only:
reopen the directory the run abandoned).  ``launched`` is the parent's
``time.perf_counter()`` just before it started this process, so set-up time
counts from process start.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

#: Every this-many-th query's rows are kept for the oracle check.
ORACLE_EVERY = 16
#: Cap on interpreter evaluations per run (spread evenly over the samples).
ORACLE_MAX = 200


class Args:
    def __init__(self, argv):
        self.workload, self.mode, seed, seconds, launched, self.workdir = argv[:6]
        self.seed, self.seconds, self.launched = int(seed), float(seconds), float(launched)
        self.trace = "--trace" in argv


def _thin(samples, limit):
    if len(samples) <= limit:
        return samples
    step = len(samples) / limit
    return [samples[int(i * step)] for i in range(limit)]


def _interpreted(text, database):
    from repro import parse_query
    from repro.engine.evaluate import evaluate
    from repro.exec import InterpretedExecutor

    return set(evaluate(parse_query(text), database, executor=InterpretedExecutor()))


class Phase:
    """The closed loop's clock and stop rule; when traced, the span capture.

    A traced phase alternates blocks of traced and untraced operations, so
    both halves see the same mix and the same drift in machine speed; the
    difference of their mean operation times is the tracing overhead.  A
    block is one full period of the workload's operation pattern, so both
    halves hold the same operations in the same proportions.  All per-layer
    figures refer to the traced blocks only.
    """

    #: Seconds on one CPU before the loop moves to the next (see ``next_op``).
    ROTATE_S = 0.2

    def __init__(self, args, engine, block):
        self.args = args
        self.engine = engine
        self.block = block
        self.cpus = sorted(os.sched_getaffinity(0))
        self.rotations = 0
        self.rotate_at = 0.0
        self.tracer = tracing.Tracer() if args.trace else None
        self.program = {}
        self.registry = {}
        self.seconds = {True: 0.0, False: 0.0}
        self.count = {True: 0, False: 0}
        self.tracing = False
        self.started = time.perf_counter()
        self.ops = 0

    def _snapshot(self):
        return tracing.engine_counters(self.engine), tracing.engine_registry(self.engine)

    def _toggle(self, on):
        if on:
            self._before = self._snapshot()
            tracing.install(self.tracer)
        else:
            self.tracer.uninstall()
            after = self._snapshot()
            for total, now, before in zip((self.program, self.registry), after, self._before):
                for key, value in common.figure_delta(now, before).items():
                    total[key] = total.get(key, 0.0) + value
        self.tracing = on

    def more(self, may_stop=True):
        """Whether to run another operation: until time is up and ``may_stop``."""
        return time.perf_counter() - self.started < self.args.seconds or not may_stop

    def next_op(self):
        # The CPUs of a shared host run at different speeds, and a process
        # tends to stay on one; moving the loop round all of them in equal
        # turns keeps that placement out of the figures.
        now = time.perf_counter()
        if len(self.cpus) > 1 and now >= self.rotate_at:
            os.sched_setaffinity(0, {self.cpus[self.rotations % len(self.cpus)]})
            self.rotations += 1
            self.rotate_at = now + self.ROTATE_S
        if self.tracer is not None:
            on = (self.ops // self.block) % 2 == 0
            if on != self.tracing:
                self._toggle(on)
            self.tracer.set_op(self.ops)
        self.ops += 1

    def done(self, seconds):
        """Account one completed operation's latency."""
        self.seconds[self.tracing] += seconds
        self.count[self.tracing] += 1

    def finish(self):
        """Per-layer figures and tracing overhead (traced runs only)."""
        os.sched_setaffinity(0, set(self.cpus))
        if self.tracer is None:
            return None
        if self.tracing:
            self._toggle(False)
        traced_ops = self.count[True]
        table = tracing.SpanTable(self.tracer.spans)
        layers = tracing.engine_layer_metrics(table, self.tracer.counts, traced_ops, self.program)
        traced_ms = self.seconds[True] * 1e3 / max(1, traced_ops)
        untraced_ms = self.seconds[False] * 1e3 / max(1, self.count[False])
        layers["trace.overhead_ms_per_op"] = traced_ms - untraced_ms
        layers["trace.overhead_pct"] = (traced_ms - untraced_ms) / untraced_ms * 100
        self.tracer.write(os.path.join(common.WORK, f"trace-{self.args.workload}.json"))
        return {
            "layers": layers,
            "cross_check": tracing.cross_check(table, self.registry),
            "missing_wrappers": self.tracer.missing,
            "spans": len(self.tracer.spans),
            "traced_ops": traced_ops,
            "untraced_ops": self.count[False],
            "traced_ms_per_op": traced_ms,
            "untraced_ms_per_op": untraced_ms,
        }


def _setup_seconds(args, generation):
    return time.perf_counter() - args.launched - generation


# -- cold-rewrite ----------------------------------------------------------------

def cold_rewrite(args):
    started = time.perf_counter()
    rng = random.Random(args.seed)
    views, data = inputs.cold_views(), inputs.cold_data(rng)
    stream = inputs.cold_stream(rng)
    generation = time.perf_counter() - started

    common.use_source_tree()
    import repro

    engine = repro.connect(views=views, data=data)
    engine.session.store()  # materialize the views now, not on first query
    setup_s = _setup_seconds(args, generation)
    if args.mode == "setup":
        return {"setup_s": setup_s}

    latencies, samples = [], []
    cold = warm = failed = 0
    # One block: every shape twice, at the fixed share of repeats.
    block = 2 * len(inputs.COLD_SHAPES) * inputs.COLD_CYCLE // len(inputs.COLD_NEW_SLOTS)
    phase = Phase(args, engine, block)
    while phase.more():
        text = next(stream)
        phase.next_op()
        began = time.perf_counter()
        try:
            answer = engine.query(text).answers()
        except Exception as error:  # counted, reported, and the run fails
            failed += 1
            sys.stderr.write(f"query failed: {text}: {error!r}\n")
            continue
        latencies.append(time.perf_counter() - began)
        phase.done(latencies[-1])
        if answer.provenance.cache_hit:
            warm += 1
        else:
            cold += 1
        if phase.ops % ORACLE_EVERY == 0:
            samples.append((text, answer.rows))
    traced = phase.finish()
    rss = common.peak_rss_mb()

    from repro.engine.database import Database

    base = Database.from_dict(data)
    checked = _thin(samples, ORACLE_MAX)
    wrong = sum(1 for text, rows in checked if _interpreted(text, base) != set(rows))
    return {
        "setup_s": setup_s,
        "ops": phase.ops,
        "query_latencies": latencies,
        "busy_s": sum(latencies),
        "peak_rss_mb": rss,
        "failed": failed + wrong,
        "oracle": {"sampled_answers": len(checked), "mismatches": wrong},
        "provenance": {
            "views": len(views.splitlines()),
            "base_facts": sum(len(rows) for rows in data.values()),
            "cold_requests": cold,
            "warm_requests": warm,
            "cache_size": engine.session.cache_size,
        },
        "traced": traced,
    }


# -- churn-durable ---------------------------------------------------------------

def _probe_texts(texts):
    step = inputs.CHURN_HOT_CONSTANTS
    return [texts[i * step + j] for i in range(len(inputs.CHURN_TEMPLATES)) for j in range(2)]


def churn_durable(args):
    started = time.perf_counter()
    rng = random.Random(args.seed)
    views, data = inputs.churn_views(), inputs.churn_data(rng)
    constants = inputs.churn_constants(rng)
    texts = inputs.churn_query_texts(constants)
    generation = time.perf_counter() - started

    common.use_source_tree()
    import repro

    store = os.path.join(args.workdir, "store")
    shutil.rmtree(store, ignore_errors=True)
    interval = inputs.CHURN_CHECKPOINT_EVERY
    engine = repro.connect(
        views=views,
        data=data,
        storage=store,
        wal=inputs.CHURN_FLUSH_POLICY,
        snapshot=interval,
    )
    engine.session.store()
    for text in texts:  # every template x constant once: rewriting is warm
        engine.query(text).answers()
    setup_s = _setup_seconds(args, generation)
    if args.mode == "setup":
        engine.close()
        shutil.rmtree(store, ignore_errors=True)
        return {"setup_s": setup_s}

    mirror = inputs.ChurnMirror(data, constants)
    query_latencies, apply_latencies = [], []
    log = []  # ("q", text, rows | None) or ("d", inserted, removed)
    delta_bytes = failed = applies = queries = warm = 0
    # One block: a whole checkpoint interval, its checkpoint included.
    phase = Phase(args, engine, interval * (inputs.CHURN_QUERIES_PER_DELTA + 1))
    # Stop only halfway through a checkpoint interval, so the abandoned
    # directory holds a snapshot plus a real WAL tail.
    while phase.more(applies % interval == interval // 2):
        phase.next_op()
        if phase.ops % (inputs.CHURN_QUERIES_PER_DELTA + 1):
            text = rng.choice(texts)
            began = time.perf_counter()
            try:
                answer = engine.query(text).answers()
            except Exception as error:
                failed += 1
                sys.stderr.write(f"query failed: {text}: {error!r}\n")
                continue
            query_latencies.append(time.perf_counter() - began)
            phase.done(query_latencies[-1])
            queries += 1
            warm += answer.provenance.cache_hit
            keep = queries % ORACLE_EVERY == 0
            log.append(("q", text, answer.rows if keep else None))
        else:
            inserted, removed = inputs.churn_delta(rng, mirror)
            text = inputs.delta_text(inserted, removed)
            began = time.perf_counter()
            try:
                engine.apply(text)
            except Exception as error:
                failed += 1
                sys.stderr.write(f"apply failed: {error!r}\n")
                continue
            apply_latencies.append(time.perf_counter() - began)
            phase.done(apply_latencies[-1])
            applies += 1
            delta_bytes += len(text.encode("utf-8"))
            log.append(("d", inserted, removed))
    traced = phase.finish()
    rss = common.peak_rss_mb()

    # -- outside the timed region: probes, verify, oracle, space ---------------
    probes = _probe_texts(texts)
    expected = {text: sorted(engine.query(text).answers().rows) for text in probes}
    problems = engine.verify()

    from repro.engine.database import Database

    base = Database.from_dict(data)
    sampled = [i for i, entry in enumerate(log) if entry[0] == "q" and entry[2] is not None]
    checked = set(_thin(sampled, ORACLE_MAX))
    wrong = 0
    for index, entry in enumerate(log):
        if entry[0] == "d":
            for name, row in entry[2]:
                base.remove_fact(name, row)
            for name, row in entry[1]:
                base.add_fact(name, row)
        elif index in checked and _interpreted(entry[1], base) != set(entry[2]):
            wrong += 1
    probe_wrong = sum(
        1 for text in probes if _interpreted(text, base) != set(map(tuple, expected[text]))
    )
    stored = sum(
        os.path.getsize(os.path.join(store, name)) for name in os.listdir(store)
    )
    user_bytes = len(inputs.facts_text(data).encode("utf-8")) + delta_bytes
    with open(os.path.join(args.workdir, "probes.json"), "w") as handle:
        json.dump({"views": views, "probes": probes, "expected": expected}, handle)
    result = {
        "setup_s": setup_s,
        "ops": phase.ops,
        "query_latencies": query_latencies,
        "apply_latencies": apply_latencies,
        "busy_s": sum(query_latencies) + sum(apply_latencies),
        "peak_rss_mb": rss,
        "space_amp": stored / user_bytes,
        "failed": failed + wrong + probe_wrong + (1 if problems else 0),
        "oracle": {
            "sampled_answers": len(checked),
            "mismatches": wrong,
            "probe_mismatches": probe_wrong,
            "verify_problems": len(problems),
        },
        "provenance": {
            "views": len(views.splitlines()),
            "base_facts": sum(len(rows) for rows in data.values()),
            "query_templates": len(inputs.CHURN_TEMPLATES),
            "distinct_queries": len(texts),
            "warm_requests": warm,
            "cold_requests": queries - warm,
            "applies": applies,
            "facts_per_delta": inputs.CHURN_FACTS_PER_DELTA,
            "checkpoint_every": interval,
            "checkpoints": applies // interval,
            "tail_deltas": applies % interval,
            "wal_flush_policy": inputs.CHURN_FLUSH_POLICY,
        },
        "traced": traced,
    }
    common.emit(result)
    # Abandon the engine without close(): the next process recovers the
    # directory exactly as a crash would have left it.
    os._exit(0)


def churn_recover(args):
    common.use_source_tree()
    import repro

    with open(os.path.join(args.workdir, "probes.json")) as handle:
        saved = json.load(handle)
    expected = {text: set(map(tuple, rows)) for text, rows in saved["expected"].items()}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    began = time.perf_counter()
    engine = repro.connect(views=saved["views"], storage=os.path.join(args.workdir, "store"))
    first = saved["probes"][0]
    first_ok = set(engine.query(first).answers().rows) == expected[first]
    recover_s = time.perf_counter() - began
    if tracer is not None:
        tracer.uninstall()
    wrong = 0 if first_ok else 1
    for text in saved["probes"][1:]:
        wrong += set(engine.query(text).answers().rows) != expected[text]
    report = engine.recovery_report or {}
    engine.close()
    result = {
        "recover_s": recover_s,
        "failed": wrong,
        "probes": len(saved["probes"]),
        "recovery": {
            "tail_records": report.get("tail_records"),
            "store_restored": report.get("store_restored"),
            "snapshot_seq": (report.get("snapshot") or {}).get("seq"),
        },
    }
    if tracer is not None:
        table = tracing.SpanTable(tracer.spans)
        result["layers"] = tracing.recovery_layer_metrics(table, tracer.counts)
    return result


# -- http-serve (the client; the server is server.py) ----------------------------

class HttpClient:
    """Keep-alive connections to the server, one per client thread."""

    def __init__(self, port):
        self.port = port

    def connect(self):
        import http.client
        import socket

        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    @staticmethod
    def post(connection, kind, text):
        path, field = ("/apply-delta", "delta") if kind == "delta" else ("/query", "query")
        headers = {"Content-Type": "application/json"}
        connection.request("POST", path, body=json.dumps({field: text}), headers=headers)
        response = connection.getresponse()
        body = response.read()
        return response.status, body


def _start_server(args, launched):
    import subprocess

    command = [
        sys.executable,
        os.path.join(common.HERE, "server.py"),
        str(args.seed),
        repr(launched),
    ]
    if args.trace:
        command.append("--trace")
    process = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=common.ROOT
    )
    line = process.stdout.readline()
    if not line:
        process.wait(timeout=60)
        raise RuntimeError(f"server exited with {process.returncode} before it was ready")
    return process, json.loads(line)


def _stop_server(process):
    try:
        process.stdin.close()
        out = process.stdout.read()
        process.wait(timeout=120)
    except Exception:
        process.kill()
        process.wait()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"server exited with {process.returncode}")
    return common.last_json_line(out)


def http_serve(args):
    started = time.perf_counter()
    rng = random.Random(args.seed)
    views, data = inputs.http_views(), inputs.http_data(rng)
    warm = inputs.http_warm_queries(rng)
    stream = inputs.http_stream(random.Random(args.seed + 1), warm)
    generation = time.perf_counter() - started

    launched = time.perf_counter()
    process, ready = _start_server(args, launched)
    if args.mode == "setup":
        _stop_server(process)
        return {"setup_s": ready["setup_s"]}
    try:
        measured = _drive(args, HttpClient(ready["port"]), stream)
    except BaseException:
        process.kill()
        process.wait()
        raise
    server = _stop_server(process)

    common.use_source_tree()
    from repro.engine.database import Database

    base = Database.from_dict(data)
    checked = _thin(measured.pop("samples"), ORACLE_MAX)
    wrong = sum(
        1 for text, rows in checked if _interpreted(text, base) != set(map(tuple, rows))
    )
    measured["failed"] += wrong
    measured.update(
        setup_s=ready["setup_s"],
        peak_rss_mb=server["peak_rss_mb"],
        oracle={"sampled_answers": len(checked), "mismatches": wrong},
        generation_s=generation,
    )
    if args.trace:
        traced = server["traced"]
        traced["layers"].update(_server_layers(traced.pop("registry"), measured["client_mean_ms"]))
        measured["traced"] = traced
    return measured


def _server_layers(registry, client_mean_ms):
    """Server-layer figures: request time from the server's own histogram,
    engine time from the stage histograms, the rest is queue + lock wait."""
    endpoints = ("/query", "/apply-delta")
    requests = sum(registry.get(f"http.{e}.count", 0.0) for e in endpoints)
    request_s = sum(registry.get(f"http.{e}.sum", 0.0) for e in endpoints)
    engine_s = sum(v for k, v in registry.items() if k.startswith("stage.") and k.endswith(".sum"))

    def per_request(seconds):
        return seconds * 1e3 / requests if requests else 0.0

    return {
        "server.request.ms": per_request(request_s),
        "server.engine.ms": per_request(engine_s),
        "server.wait.ms": per_request(request_s - engine_s),
        "server.client_overhead.ms": client_mean_ms - per_request(request_s),
        # Per thousand requests.
        "server.coalesced": per_request(registry.get("repro_server_coalesced_total", 0.0)),
        "server.rejected": per_request(registry.get("repro_server_rejected_total", 0.0)),
    }


def _drive(args, client, stream):
    """Closed-loop saturation, then the open loop at the offered rate."""
    connections = max(1, min(2, os.cpu_count() or 1))
    lock = threading.Lock()
    results = {"closed": [], "open": []}
    errors = []
    samples = []
    counter = {"queries": 0}

    def record(phase, kind, text, status, body, latency, late):
        ok = status == 200
        with lock:
            results[phase].append((kind, ok, latency, late))
            if ok and kind != "delta":
                counter["queries"] += 1
                if counter["queries"] % ORACLE_EVERY == 0:
                    samples.append((text, json.loads(body)["rows"]))

    def closed_loop(deadline):
        connection = client.connect()
        try:
            while time.perf_counter() < deadline:
                with lock:
                    kind, text = next(stream)
                began = time.perf_counter()
                status, body = client.post(connection, kind, text)
                record("closed", kind, text, status, body, time.perf_counter() - began, 0.0)
        except Exception as error:
            errors.append(repr(error))
        finally:
            connection.close()

    closed_s = args.seconds * inputs.HTTP_CLOSED_SHARE
    began = time.perf_counter()
    threads = [
        threading.Thread(target=closed_loop, args=(began + closed_s,)) for _ in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    closed_wall = time.perf_counter() - began

    rate = inputs.HTTP_OFFERED_RATE
    open_s = args.seconds - closed_s
    total = int(open_s * rate)
    schedule_start = time.perf_counter() + 0.05
    cursor = {"next": 0}

    def open_loop():
        connection = client.connect()
        try:
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= total:
                        return
                    cursor["next"] += 1
                    kind, text = next(stream)
                due = schedule_start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, body = client.post(connection, kind, text)
                record("open", kind, text, status, body, time.perf_counter() - due, sent - due)
        except Exception as error:
            errors.append(repr(error))
        finally:
            connection.close()

    threads = [threading.Thread(target=open_loop) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    open_wall = time.perf_counter() - schedule_start

    closed, opened = results["closed"], results["open"]
    failed = sum(1 for _k, ok, _l, _t in closed + opened if not ok) + len(errors)
    query_lat = [lat for kind, ok, lat, _t in closed if ok and kind != "delta"]
    apply_lat = [lat for kind, ok, lat, _t in closed if ok and kind == "delta"]
    open_query_lat = [lat for kind, ok, lat, _t in opened if ok and kind != "delta"]
    open_apply_lat = [lat for kind, ok, lat, _t in opened if ok and kind == "delta"]
    lateness = [late for _k, _ok, _l, late in opened]
    within = sum(1 for _k, ok, lat, _t in opened if ok and lat <= inputs.HTTP_LATENCY_LIMIT_S)
    client_lat = [lat for _k, ok, lat, _t in closed if ok]
    kinds = [kind for kind, _ok, _l, _t in closed + opened]
    out = {
        "ops": len(closed),
        "ops_per_s": len(closed) / closed_wall,
        "closed_busy_ms_per_op": closed_wall * 1e3 * connections / max(1, len(closed)),
        "query_latencies": query_lat,
        "apply_latencies": apply_lat,
        "open_query_latencies": open_query_lat,
        "open_apply_latencies": open_apply_lat,
        "goodput_qps": within / open_wall,
        "client_mean_ms": sum(client_lat) * 1e3 / max(1, len(client_lat)),
        "failed": failed,
        "errors": errors[:5],
        "attempted": len(closed) + len(opened) + len(errors),
        "samples": samples,
        "generator": {
            "offered_rate": rate,
            "latency_limit_ms": inputs.HTTP_LATENCY_LIMIT_S * 1e3,
            "connections": connections,
            "open_requests": len(opened),
            "lateness_p50_ms": common.percentile(lateness, 0.5) * 1e3 if lateness else 0.0,
            "lateness_max_ms": max(lateness) * 1e3 if lateness else 0.0,
        },
        "provenance": {
            "warm_requests": kinds.count("warm"),
            "cold_requests": kinds.count("cold"),
            "delta_requests": kinds.count("delta"),
            "warm_queries": inputs.HTTP_WARM_QUERIES,
            "base_facts": inputs.HTTP_RELATIONS * inputs.HTTP_TUPLES,
        },
    }
    return out


def main(argv):
    args = Args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    if args.workload == "cold-rewrite":
        result = cold_rewrite(args)
    elif args.workload == "churn-durable":
        result = churn_recover(args) if args.mode == "recover" else churn_durable(args)
    elif args.workload == "http-serve":
        result = http_serve(args)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    common.emit(result)


if __name__ == "__main__":
    main(sys.argv[1:])
