"""Helpers shared by the orchestrator and its worker processes."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for storage directories and trace files, inside the checkout.
WORK = os.path.join(ROOT, ".perfbench_work")


def use_source_tree() -> None:
    """Make ``import repro`` load the checkout's ``src/`` (or fail loudly)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no repro package under {SRC}\n")
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_block() -> Dict[str, object]:
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
    }


def emit(payload: Dict[str, object]) -> None:
    """Print one JSON object as a single stdout line."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> Dict[str, object]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("worker printed nothing")
    return json.loads(lines[-1])


def parse_prometheus(text: str) -> Dict[str, float]:
    """``name{labels}`` -> value for every sample line of an exposition."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out


def registry_figures(samples: Dict[str, float]) -> Dict[str, float]:
    """Stage sums/counts and cache-event counts from one metrics scrape."""
    figures: Dict[str, float] = {}
    for key, value in samples.items():
        if key.startswith("repro_stage_seconds_sum{") or key.startswith(
            "repro_stage_seconds_count{"
        ):
            kind = "sum" if "_sum{" in key else "count"
            stage = key.split('stage="', 1)[1].split('"', 1)[0]
            figures[f"stage.{stage}.{kind}"] = value
        elif key.startswith("repro_cache_events_total{"):
            cache = key.split('cache="', 1)[1].split('"', 1)[0]
            outcome = key.split('outcome="', 1)[1].split('"', 1)[0]
            figures[f"cache.{cache}.{outcome}"] = value
        elif key.startswith("repro_http_request_seconds_sum{") or key.startswith(
            "repro_http_request_seconds_count{"
        ):
            kind = "sum" if "_sum{" in key else "count"
            endpoint = key.split('endpoint="', 1)[1].split('"', 1)[0]
            figures[f"http.{endpoint}.{kind}"] = value
        elif key in ("repro_server_coalesced_total", "repro_server_rejected_total"):
            figures[key] = value
    return figures


def figure_delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def median(values: List[float]) -> float:
    return percentile(values, 0.5)
