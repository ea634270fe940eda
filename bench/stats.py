"""Pure functions behind the benchmark's numbers: the tail-percentile rule,
self time on span trees, and the per-layer metrics of a traced pass."""

from __future__ import annotations

from collections import defaultdict

# The tail is the highest percentile with at least this many samples above it.
TAIL_BEYOND = 10


def tail(values):
    """(percentile, value) of the highest percentile that leaves at least
    TAIL_BEYOND samples above it, or None below 2 * TAIL_BEYOND samples,
    where that percentile would not reach the median."""
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(values)
    rank = n - TAIL_BEYOND  # samples at or below the reported one
    return 100.0 * rank / n, ordered[rank - 1]


# ---- spans ------------------------------------------------------------------
# A span is a dict with "name", "parent" (index into the same list, -1 for a
# root), "start", "end" and optional "attrs".  Parents precede their children.


def _covered(intervals):
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    kids = defaultdict(list)
    for i, span in enumerate(spans):
        kids[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        clipped = [(max(start, spans[k]["start"]), min(end, spans[k]["end"])) for k in kids[i]]
        out.append((end - start) - _covered([c for c in clipped if c[1] > c[0]]))
    return out


def layer_totals(spans):
    """Additive counts and times of one process's spans.

    Sum the dicts of all jobs in a pass with ``merge`` and name them with
    ``layer_metrics``.  Every span counts one call and its self time under
    its name; spans that carry attributes add the counts below.
    """
    acc = defaultdict(float)
    selfs = self_times(spans)
    # nearest enclosing formal_inverse, and whether a degree_bound_report
    # encloses the span; parents precede children, so one forward pass works
    inverse_of = []
    in_report = []
    for span in spans:
        p = span["parent"]
        if p < 0:
            inverse_of.append(-1)
            in_report.append(False)
        else:
            parent_name = spans[p]["name"]
            inverse_of.append(p if parent_name == "inversion.formal_inverse" else inverse_of[p])
            in_report.append(in_report[p] or parent_name == "reduction.degree_bound_report")
    points = set()
    check_spans = defaultdict(list)
    for i, span in enumerate(spans):
        name, attrs = span["name"], span.get("attrs") or {}
        acc[name + ".calls"] += 1
        acc[name + ".self_s"] += selfs[i]
        if "terms" in attrs:
            acc[name + ".terms_out"] += attrs["terms"]
            acc["mpoly.terms_peak"] = max(acc["mpoly.terms_peak"], attrs["terms"])
        if attrs.get("truncated"):
            acc[name + ".truncated_calls"] += 1
            if inverse_of[i] >= 0:
                acc["inversion.passes"] += 1 / spans[inverse_of[i]]["attrs"]["n"]
        if name == "polymap.compose" and span["parent"] >= 0 and inverse_of[i] == span["parent"]:
            check_spans[span["parent"]].append(span["end"] - span["start"])
        elif name == "polymap.translate":
            points.add(attrs["point"])
        elif name == "collinear.collision_search":
            acc["collinear.witnesses"] += attrs.get("witnesses", 0)
        elif name == "inversion.formal_inverse":
            if attrs.get("degree") is not None:
                acc["inversion.degree_sum"] += attrs["degree"]
                acc["inversion.bound_sum"] += attrs["bound"]
            if in_report[i]:
                acc["reduction.report_inversions"] += 1
    for durations in check_spans.values():
        # the first compose is the F o G check, the second G o F
        acc["inversion.check_fg_s"] += durations[0]
        acc["inversion.check_gf_s"] += sum(durations[1:2])
    for i, span in enumerate(spans):
        if span["name"] == "inversion.formal_inverse":
            acc["inversion.iterate_s"] += (span["end"] - span["start"]) - sum(check_spans.get(i, ()))
    acc["polymap.translate.distinct"] += len(points)
    return acc


def merge(totals):
    """Sum per-job totals; the peak term count is a maximum, not a sum."""
    out = defaultdict(float)
    for t in totals:
        for key, value in t.items():
            if key == "mpoly.terms_peak":
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(total, names, span_names):
    """Values of the named per-layer metrics from merged totals.

    A layer that did no work in the pass reads 0, and so does a ratio whose
    base is 0.  A name that no span or count provides raises KeyError, so a
    misspelt metric cannot read as a silent 0.
    """
    derived = {
        "inversion.degree_ratio": _ratio(total["inversion.degree_sum"], total["inversion.bound_sum"]),
        "reduction.inversions_per_report": _ratio(
            total["reduction.report_inversions"], total["reduction.degree_bound_report.calls"]
        ),
        "polymap.translate.distinct_ratio": _ratio(
            total["polymap.translate.distinct"], total["polymap.translate.calls"]
        ),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name in KNOWN_TOTALS or name.rsplit(".", 1)[0] in span_names:
            out[name] = total.get(name, 0.0)
        else:
            raise KeyError(name)
    return out


KNOWN_TOTALS = {
    "mpoly.terms_peak",
    "inversion.iterate_s",
    "inversion.check_fg_s",
    "inversion.check_gf_s",
    "inversion.passes",
    "collinear.witnesses",
}
