#!/usr/bin/env python3
"""Trace-to-table summariser for MD-GAN Chrome trace files.

    python3 roundbench/summarize.py TRACE.json

Reads one Chrome trace-event file as the obs::Tracer writes it (the
traced episode of run.py, or a server-side `mdgan_node --trace-out`
file) and prints, for every span name and node, how many spans there
were, their total and self time, and the median self time per round.

Self time is a span's duration minus the part of it that child spans on
the same thread cover. Rounds are the server's `round` spans. A span that
carries an `iter` argument belongs to that round; any other span belongs
to the round whose interval holds its start, unless it starts inside a
`bench:evaluate` span, in which case it is eval work and belongs to no
round. A merged multi-node trace is not supported: its nodes reuse tids.
"""

import bisect
import json
import statistics
import sys
from collections import defaultdict

SERVER = 0
COMPUTE = 99  # pid of process-local spans with no protocol node


class Span:
    __slots__ = ("name", "pid", "tid", "t0", "t1", "iter", "self", "round")

    def __init__(self, ev):
        self.name = ev["name"]
        self.pid = ev.get("pid", 0)
        self.tid = ev.get("tid", 0)
        self.t0 = ev["ts"] * 1e-6
        self.t1 = self.t0 + ev.get("dur", 0.0) * 1e-6
        self.iter = ev.get("args", {}).get("iter")
        self.self = self.t1 - self.t0
        self.round = None

    @property
    def dur(self):
        return self.t1 - self.t0


def load(path):
    """The file's spans, with self time and round filled in."""
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    spans = [Span(ev) for ev in events if ev.get("ph") == "X"]
    _fill_self_time(spans)
    _fill_rounds(spans)
    return spans


def _fill_self_time(spans):
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[s.tid].append(s)
    for thread in by_thread.values():
        thread.sort(key=lambda s: (s.t0, -s.t1))
        stack = []
        for s in thread:
            while stack and stack[-1].t1 <= s.t0:
                stack.pop()
            if stack:
                parent = stack[-1]
                parent.self -= min(s.t1, parent.t1) - s.t0
            stack.append(s)
    for s in spans:
        s.self = max(s.self, 0.0)


def _fill_rounds(spans):
    rounds = sorted((s for s in spans if is_server_round(s)),
                    key=lambda s: s.t0)
    starts = [r.t0 for r in rounds]
    evals = sorted((s.t0, s.t1) for s in spans if s.name == "bench:evaluate")
    eval_starts = [e[0] for e in evals]
    for s in spans:
        if s.iter is not None:
            s.round = int(s.iter)
            continue
        j = bisect.bisect_right(eval_starts, s.t0) - 1
        if j >= 0 and s.t0 < evals[j][1]:
            continue
        i = bisect.bisect_right(starts, s.t0) - 1
        if i >= 0 and s.t0 < rounds[i].t1:
            s.round = int(rounds[i].iter)


def is_server_round(s):
    return s.pid == SERVER and s.name == "round"


def round_ids(spans):
    return sorted({int(s.iter) for s in spans if is_server_round(s)})


def per_round(spans, rounds, match, value):
    """{round: summed value} of the matching spans, one entry per round."""
    out = {r: 0.0 for r in rounds}
    for s in spans:
        if s.round in out and match(s):
            out[s.round] += value(s)
    return out


def node_of(pid):
    if pid == SERVER:
        return "server"
    if pid == COMPUTE:
        return "compute"
    return "worker"


def table(spans):
    round_time = sum(s.dur for s in spans if is_server_round(s))
    groups = defaultdict(list)
    for s in spans:
        groups[(node_of(s.pid), s.name)].append(s)
    rows = []
    for (node, name), group in groups.items():
        total = sum(s.dur for s in group)
        self_total = sum(s.self for s in group)
        by_round = defaultdict(float)
        for s in group:
            if s.round is not None:
                by_round[s.round] += s.self
        med = statistics.median(by_round.values()) if by_round else 0.0
        share = self_total / round_time if round_time > 0 else 0.0
        rows.append((node, name, len(group), total, self_total, med, share))
    rows.sort(key=lambda r: (-r[4], r[0], r[1]))
    return round_time, rows


def main(argv):
    if len(argv) != 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if len(argv) == 2 else 2
    spans = load(argv[1])
    round_time, rows = table(spans)
    print(f"{len(round_ids(spans))} rounds, {round_time:.3f} s of server "
          f"round time; share = self time / server round time")
    print(f"{'node':8} {'span':28} {'count':>8} {'total_s':>10} "
          f"{'self_s':>10} {'self/round':>11} {'share':>7}")
    for node, name, count, total, self_total, med, share in rows:
        print(f"{node:8} {name:28} {count:8d} {total:10.4f} "
              f"{self_total:10.4f} {med:11.6f} {share:7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
