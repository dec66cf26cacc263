"""Order statistics and the span ledger of the benchmark.

Kept apart from run.py so that the self-tests can check them exactly.
"""

import json
import math
from collections import defaultdict
from decimal import Decimal

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    """The nearest-rank median of a non-empty list."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    return ordered[math.ceil(len(ordered) / 2) - 1]


def trimmed_mean(values, share):
    """The mean of `values` without the ceil(share * n) lowest and as many
    highest of them."""
    k = math.ceil(share * len(values))
    if len(values) <= 2 * k:
        raise ValueError("%d samples leave none after trimming %d at each end"
                         % (len(values), k))
    ordered = sorted(values)
    return math.fsum(ordered[k:len(ordered) - k]) / (len(ordered) - 2 * k)


def percentile(values, p):
    """The nearest-rank p-th percentile (0 < p < 100) of `values`.

    Refuses, with ValueError, when fewer than MIN_BEYOND samples lie
    beyond the rank: such a percentile says more than the data does.
    """
    if not 0 < p < 100:
        raise ValueError("percentile %r is outside (0, 100)" % p)
    n = len(values)
    rank = math.ceil(p / 100 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError("p%g of %d samples has %d beyond it; %d needed"
                         % (p, n, max(n - rank, 0), MIN_BEYOND))
    return sorted(values)[rank - 1]


def min_samples(p):
    """The fewest samples for which `percentile(values, p)` answers."""
    n = 1
    while n - math.ceil(p / 100 * n) < MIN_BEYOND:
        n += 1
    return n


def read_chrome_trace(lines):
    """The complete ("X") events of a trace written by perfbench-trace, as
    dicts with exact integer nanosecond start and end times.

    `lines` iterates over the trace file, which holds one event per line;
    reading it line by line keeps a trace of 10^5 spans small in memory.
    """
    spans = []
    for line in lines:
        line = line.strip().rstrip(",")
        if not line.startswith('{"name"'):
            continue
        e = json.loads(line, parse_float=Decimal)
        if e.get("ph") != "X":
            continue
        start = int(e["ts"] * 1000)
        spans.append({
            "id": e["args"]["span"],
            "parent": e["args"]["parent"],
            "request": e["args"]["request"],
            "name": e["name"],
            "start": start,
            "end": start + int(e["dur"] * 1000),
        })
    return spans


def self_times(spans):
    """Each span's self time: its duration minus the part of its interval
    that its child spans cover (overlapping children count once)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = 0
        reach = s["start"]
        for lo, hi in sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                             for c in children[s["id"]]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def ledger(spans, e2e_ms):
    """Compares each scenario's layer self time with its end-to-end median.

    Every request of a scenario has one root span `scenario.<name>`; the
    other spans of that request are its layer calls. For each scenario and
    layer the ledger takes the median over the scenario's requests of the
    layer's summed self time (0 in a request that lacks the layer). The
    attributed time is the sum of those medians; what is left of the
    end-to-end median `e2e_ms[scenario]` is unattributed. The roots' own
    self time is the replay's bookkeeping and is attributed to no layer.

    Returns {scenario: {"requests", "layers": {layer: ms}, "attributed_ms",
    "e2e_ms", "unattributed_pct"}} for the scenarios in `e2e_ms`.
    """
    own = self_times(spans)
    scenario_of = {}
    per_request = defaultdict(lambda: defaultdict(int))
    for s in spans:
        if s["parent"] is None and s["name"].startswith("scenario."):
            scenario_of[s["request"]] = s["name"].split(".", 1)[1]
        else:
            per_request[s["request"]][layer_of(s["name"])] += own[s["id"]]
    rows = {}
    for scenario, e2e in e2e_ms.items():
        requests = [r for r, name in scenario_of.items() if name == scenario]
        if not requests:
            continue
        layers = sorted({layer for r in requests for layer in per_request[r]})
        layer_ms = {layer: median([per_request[r][layer] for r in requests]) / 1e6
                    for layer in layers}
        attributed = sum(layer_ms.values())
        rows[scenario] = {
            "requests": len(requests),
            "layers": layer_ms,
            "attributed_ms": attributed,
            "e2e_ms": e2e,
            "unattributed_pct": (e2e - attributed) / e2e * 100,
        }
    return rows


def ledger_table(rows):
    """The ledger as a plain-text table, one row per scenario."""
    layers = sorted({layer for row in rows.values() for layer in row["layers"]})
    head = ["scenario", "requests", "e2e_ms"] + ["%s_ms" % l for l in layers] + [
        "attributed_ms", "unattributed_%"]
    lines = [head]
    for scenario, row in rows.items():
        lines.append([scenario, str(row["requests"]), "%.4f" % row["e2e_ms"]]
                     + ["%.4f" % row["layers"].get(l, 0.0) for l in layers]
                     + ["%.4f" % row["attributed_ms"], "%.1f" % row["unattributed_pct"]])
    widths = [max(len(line[i]) for line in lines) for i in range(len(head))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(line, widths))
                     for line in lines)
