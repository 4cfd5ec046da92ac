"""Chrome ``trace_event`` JSON export/import for span streams.

The exported object follows the Trace Event Format's "JSON Object
Format": a ``traceEvents`` array of complete ("ph": "X") events with
microsecond timestamps, loadable directly in Perfetto
(https://ui.perfetto.dev) or chrome://tracing.  Each request-path layer
gets its own track (``tid``) so a single NFS read renders as a stack of
nested slices: bench, client vnode, nfsiod, RPC, nfsd, read-ahead,
buffer cache, bufq, TCQ, disk mechanics.

Microseconds are a *display* unit: ``seconds * 1e6 / 1e6`` is not
float-exact, so every event also carries the raw simulation-clock
``t0``/``t1`` seconds (and the span/parent ids and detached flag) in
``args``.  :func:`loads_trace` reads those, which makes
export → import → export byte-stable and lets the property tests assert
a lossless round-trip.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .span import Span

#: The nine request-path layer categories the acceptance criteria name,
#: in stack order.  (Exports may contain a subset — a local run has no
#: client layers — or extras; this is the reference list.)
LAYER_CATEGORIES = (
    "bench",              # benchmark reader (root spans)
    "client.vnode",       # NFS client vnode/bioread layer
    "client.nfsiod",      # asynchronous client I/O daemons
    "net.rpc",            # RPC call/serve over UDP or TCP
    "server.nfsd",        # nfsd service pool
    "server.readahead",   # nfsheur sequentiality + FFS read-ahead
    "kernel.buffercache", # server buffer cache fetches
    "kernel.bufq",        # disk I/O scheduler queue residency
    "disk.tcq",           # drive tagged-command-queue residency
    "disk.mechanics",     # seek + rotation + media/interface transfer
)


def to_trace_events(spans: List[Span]) -> dict:
    """Build the Trace Event Format object for a finished-span stream."""
    categories = sorted({span.cat for span in spans})
    tids: Dict[str, int] = {}
    for cat in LAYER_CATEGORIES:
        if cat in categories:
            tids[cat] = len(tids) + 1
    for cat in categories:          # any category outside the known set
        if cat not in tids:
            tids[cat] = len(tids) + 1
    events = []
    for span in spans:
        args = dict(span.args)
        args["span_id"] = span.id
        args["parent_id"] = span.parent_id
        args["detached"] = span.detached
        args["t0"] = span.start
        args["t1"] = span.end
        # Sessions stamp each span with its run index; rendering each
        # run as its own Perfetto process keeps the restarted sim
        # clocks of successive runs from overlapping on one track.
        run = span.args.get("run", 0)
        events.append({
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": run + 1 if isinstance(run, int) else 1,
            "tid": tids[span.cat],
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "clock": "simulated-seconds",
            "categories": categories,
        },
    }


def dumps_trace(spans: List[Span]) -> str:
    """Serialize a span stream as deterministic trace_event JSON."""
    return json.dumps(to_trace_events(spans), sort_keys=True,
                      separators=(",", ":"))


def loads_trace(text: str) -> List[Span]:
    """Reconstruct the span stream from exported trace_event JSON.

    Uses the exact ``t0``/``t1`` seconds carried in ``args``, so
    ``loads_trace(dumps_trace(spans))`` reproduces every span key
    bit-for-bit.  A payload of the wrong shape raises ``ValueError``
    naming the missing or ill-typed field.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a trace_event JSON object, got "
                         f"{type(payload).__name__}")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("'traceEvents' is missing or not a list")
    spans: List[Span] = []
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        if event.get("ph") != "X":
            continue
        args = event.get("args")
        missing = [f"args.{key}" for key in ("span_id", "t0", "t1")
                   if not isinstance(args, dict) or key not in args]
        missing += [key for key in ("name", "cat") if key not in event]
        if missing:
            raise ValueError(f"traceEvents[{index}] (ph X) lacks "
                             f"{', '.join(missing)}")
        args = dict(args)
        span_id = args.pop("span_id")
        parent_id = args.pop("parent_id", None)
        detached = args.pop("detached", False)
        start = args.pop("t0")
        end = args.pop("t1")
        span = Span(None, span_id, event["name"], event["cat"],
                    parent_id, start, detached, args)
        span.end = end
        spans.append(span)
    return spans
