#!/usr/bin/env python3
"""Per-module self-time table of a traced run, and the span nesting check.

    python3 perfbench/spans.py .bench_out/spans_<workload>_<seed>.jsonl

A span's module is its name up to the first dot ("sched.solve" -> sched;
the benchmark's own request and probe envelopes keep their whole name). A
span's self time is its duration minus the part of it its children cover.
Every child must lie inside its parent; for requests, whose spans share the
v2 request id as trace id, that means inside the request's end-to-end
interval. Exits 1 when a span escapes its parent.
"""
import json
import sys
from collections import defaultdict

# Timestamps are microseconds; frame spans are converted from the runtime's
# whole-microsecond clock, so allow that much rounding.
SLACK_US = 2.0


def covered(intervals):
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def main(path):
    spans = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                s = json.loads(line)
                spans[s["id"]] = s
    children = defaultdict(list)
    escaped = []
    for s in spans.values():
        parent = spans.get(s["parent"])
        if parent is None:
            continue
        children[parent["id"]].append(s)
        if (s["start_us"] < parent["start_us"] - SLACK_US
                or s["end_us"] > parent["end_us"] + SLACK_US):
            escaped.append((s, parent))

    self_us = defaultdict(float)
    count = defaultdict(int)
    for s in spans.values():
        kids = [(max(c["start_us"], s["start_us"]), min(c["end_us"], s["end_us"]))
                for c in children[s["id"]]]
        kids = [(a, b) for a, b in kids if b > a]
        module = s["name"].split(".")[0]
        self_us[module] += max(0.0, s["end_us"] - s["start_us"] - covered(kids))
        count[module] += 1

    total = sum(self_us.values()) or 1.0
    requests = sum(1 for s in spans.values() if s["name"] == "request")
    print(f"{len(spans)} spans, {requests} traced requests: {path}")
    print(f"{'module':<10} {'spans':>9} {'self ms':>12} {'share':>7}")
    for module in sorted(self_us, key=self_us.get, reverse=True):
        print(f"{module:<10} {count[module]:>9} {self_us[module] / 1e3:>12.3f} "
              f"{100 * self_us[module] / total:>6.1f}%")
    for s, p in escaped[:10]:
        print(f"ESCAPES: {s['name']} [{s['start_us']}, {s['end_us']}] outside "
              f"{p['name']} [{p['start_us']}, {p['end_us']}] (trace {s['trace']})")
    if escaped:
        print(f"{len(escaped)} spans escape their parent")
        return 1
    print("every span nests inside its parent")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
