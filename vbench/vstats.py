"""Arithmetic and the verdict oracle of the verifier benchmark.

Everything here is pure: run.py feeds it samples and the Chrome trace,
and test_vstats.py checks it.
"""

import math

# ----------------------------------------------------------------------
# The verdict oracle: the known answer of every (program, profile) job.
# None means "proved"; a function name means "not proved, and the first
# failure is in that function".
# ----------------------------------------------------------------------

ORACLE = {
    ("singly_linked", "Verus"): None,
    ("doubly_linked", "Verus"): None,
    ("mem4", "Verus"): None,
    ("dlock", "Verus"): None,
    ("break_pop", "Verus"): "pop_front",
    ("break_index", "Verus"): "list_index",
    ("vstd_seq", "Verus"): None,
    ("const_cond", "Verus"): None,
    ("singly_linked", "Dafny"): None,
    ("doubly_linked", "Dafny"): None,
    ("break_pop", "Dafny"): "pop_front",
}


def verdict_matches(program, profile, proved, failure_fn, oracle=ORACLE):
    """True when a decided job's verdict equals the known answer."""
    expected = oracle[(program, profile)]
    if expected is None:
        return proved
    return (not proved) and failure_fn == expected


# ----------------------------------------------------------------------
# Summary statistics
# ----------------------------------------------------------------------


def percentile(values, p):
    """The p-th percentile (0..100), linear between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    h = (len(xs) - 1) * p / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def median(values):
    return percentile(values, 50)


def job_weights(keys):
    """One weight per sample, so that every job (key) weighs the same in
    total however many samples it has: 1 / (number of samples of the
    sample's key)."""
    counts = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    return [1.0 / counts[k] for k in keys]


def weighted_percentile(values, weights, p):
    """The p-th percentile (0..100) of weighted values.  The sample of
    rank n sits at S(n-1) / (S - w(n)), with S(n) the summed weight of
    the n smallest values and S the total; between them it is linear.
    With equal weights this is percentile()."""
    if not values:
        raise ValueError("percentile of no values")
    pairs = sorted(zip(values, weights))
    total = sum(w for _, w in pairs)
    if len(pairs) == 1:
        return pairs[0][0]
    q = p / 100.0
    below = 0.0
    prev = None
    for x, w in pairs:
        at = below / (total - w)
        if at >= q:
            if prev is None or at == q or at == prev[1]:
                return x
            px, pat = prev
            return px + (q - pat) / (at - pat) * (x - px)
        prev = (x, at)
        below += w
    return pairs[-1][0]


def censored_geomean(samples, limit, weights=None):
    """Geometric mean of (seconds, killed) samples; a killed job counts
    as the limit, and no job counts for more than the limit.  With
    weights, each sample's log counts by its weight."""
    if not samples:
        raise ValueError("geometric mean of no samples")
    if weights is None:
        weights = [1.0] * len(samples)
    logs = [math.log(limit if killed else min(t, limit)) for t, killed in samples]
    return math.exp(sum(w * x for w, x in zip(weights, logs)) / sum(weights))


# ----------------------------------------------------------------------
# Spans: self time and layer attribution
# ----------------------------------------------------------------------


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Map span id to its self time: its duration minus the part of its
    interval that its children cover.  A span is a dict with id, parent,
    start and end (any one time unit)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
            if c["end"] > s["start"] and c["start"] < s["end"]
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# Span name (or name prefix ending in ".") to the per-layer metric its
# self time is charged to.  Spans not listed here ("job", "replay") only
# group others; "driver.verify_program" and "verusd.handler" are the real
# runs the replay attributes.
LAYER_OF_SPAN = {
    "typecheck": "typecheck.self_s",
    "ownership": "ownership.self_s",
    "vlint": "vlint.self_s",
    "encode": "encode.self_s",
    "prune": "prune.self_s",
    "vcache.fingerprint": "vcache.fingerprint_s",
    "vcache.lookup": "vcache.lookup_s",
    "vcache.open": "vcache.open_s",
    "vcache.flush": "vcache.flush_s",
    "vcache.store": "vcache.store_s",
    "vflow.prescreen": "vflow.prescreen_s",
    "vladder.attempt": "vladder.self_s",
    "smt.check_valid": "smt.solve_s",
    "smt.epr": "smt.solve_s",
    "smt.cert": "smt.cert_s",
    "modes.": "modes.self_s",
    "vcheck.check": "vcheck.replay_s",
}

DRIVER_SPANS = ("driver.verify_program", "verusd.handler")


def layer_of(name):
    if name in LAYER_OF_SPAN:
        return LAYER_OF_SPAN[name]
    for prefix, metric in LAYER_OF_SPAN.items():
        if prefix.endswith(".") and name.startswith(prefix):
            return metric
    return None


def spans_of_chrome(doc):
    """Spans (seconds) from a Chrome trace-event document."""
    return [
        {
            "id": e["args"]["id"],
            "parent": e["args"]["parent"],
            "job": e["args"]["job"],
            "tid": e["tid"],
            "name": e["name"],
            "start": e["ts"] / 1e6,
            "end": (e["ts"] + e["dur"]) / 1e6,
        }
        for e in doc["traceEvents"]
        if e.get("ph") == "X"
    ]


def attribute(spans):
    """Per-layer self times summed over all jobs, and per job the driver
    wall, the summed layer self time and the residue between them."""
    selfs = self_times(spans)
    layers = {}
    jobs = {}
    for s in spans:
        job = jobs.setdefault(s["job"], {"label": None, "driver_wall": 0.0, "layers": 0.0})
        if s["parent"] == 0:
            job["label"] = s["name"]
        metric = layer_of(s["name"])
        if metric is not None:
            layers[metric] = layers.get(metric, 0.0) + selfs[s["id"]]
            job["layers"] += selfs[s["id"]]
        elif s["name"] in DRIVER_SPANS:
            job["driver_wall"] += s["end"] - s["start"]
    for job in jobs.values():
        job["residue"] = job["driver_wall"] - job["layers"]
    return layers, jobs, selfs
