"""The ``http-serve`` server process: ``python3 perfbench/server.py <seed>
<launched> [--trace]``.

Builds the engine from the seed's inputs, materializes the views, answers
each warm query once, starts :class:`repro.server.ReproServer` on a free
loopback port and prints ``{"port", "setup_s"}``.  It serves until its
stdin closes, then drains, and prints its peak memory (and, when traced,
its per-layer figures) as the last stdout line.
"""

from __future__ import annotations

import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


def main(argv):
    seed, launched = int(argv[0]), float(argv[1])
    traced = "--trace" in argv
    started = time.perf_counter()
    rng = random.Random(seed)
    views, data = inputs.http_views(), inputs.http_data(rng)
    warm = inputs.http_warm_queries(rng)
    generation = time.perf_counter() - started

    common.use_source_tree()
    import repro
    from repro.server import ReproServer

    engine = repro.connect(views=views, data=data)
    engine.session.store()
    for text in warm:
        engine.query(text).answers()
    server = ReproServer(engine).start()
    setup_s = time.perf_counter() - launched - generation
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer, server=True)
        before = tracing.engine_counters(engine)
        registry_before = tracing.engine_registry(engine)
    common.emit({"port": server.port, "setup_s": setup_s})

    sys.stdin.read()  # the client closes stdin when it is done
    server.shutdown()
    result = {"peak_rss_mb": common.peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        program = common.figure_delta(tracing.engine_counters(engine), before)
        registry = common.figure_delta(tracing.engine_registry(engine), registry_before)
        table = tracing.SpanTable(tracer.spans)
        work = table.select("server.work")
        result["traced"] = {
            "layers": tracing.engine_layer_metrics(table, tracer.counts, len(work), program),
            "cross_check": tracing.cross_check(table, registry),
            "registry": registry,
            "missing_wrappers": tracer.missing,
            "spans": len(tracer.spans),
        }
        tracer.write(os.path.join(common.WORK, "trace-http-serve.json"))
    common.emit(result)


if __name__ == "__main__":
    main(sys.argv[1:])
