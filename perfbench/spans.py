"""Span arithmetic for the traced run: self time and child coverage."""


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children(spans, parent_id):
    return [s for s in spans if s["parent"] == parent_id]


def child_cover(spans, span):
    """Part of `span`'s interval that its direct children cover."""
    lo, hi = span["start_s"], span["end_s"]
    clipped = [(max(lo, c["start_s"]), min(hi, c["end_s"])) for c in children(spans, span["id"])]
    return union_length([(s, e) for s, e in clipped if e > s])


def self_time(spans, span):
    """Duration of `span` minus the part its direct children cover."""
    return (span["end_s"] - span["start_s"]) - child_cover(spans, span)


def self_times_by_name(spans):
    """Summed self time per span name."""
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + self_time(spans, s)
    return out


def find(spans, name):
    return [s for s in spans if s["name"] == name]


def total(spans, name):
    return sum(s["end_s"] - s["start_s"] for s in find(spans, name))
