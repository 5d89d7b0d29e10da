"""Spans and counters for the traced run.

The benchmark wraps polyhom's functions at the names where callers look
them up (a module global such as polyhom.hurewicz.epsilon, or a method
of FinAbelianGroup), so polyhom itself is not changed.  Each wrapped
call records a span: name, start, end, parent span and instance id,
kept in flat integer arrays and written out when the run ends.  A
span's self time is its duration minus the time its child spans cover;
it is summed per name as the spans close.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

# (module, attribute, span name).  One span name may sit at several
# attributes: extract is reached through cli and through hurewicz.
SPANS = [
    ("cli", "check_axioms", "polygroupoid.check_axioms"),
    ("cli", "check_all_associativity", "polygroupoid.check_associativity"),
    ("polygroupoid", "check_horn_filling", "polygroupoid.check_horn_filling"),
    ("cli", "extract", "binding.extract"),
    ("hurewicz", "extract", "binding.extract"),
    ("binding", "transport_classes", "binding.transport_classes"),
    ("binding", "verify_action", "binding.verify_action"),
    ("binding", "group_from_addition", "algebra.group_from_addition"),
    ("hurewicz", "group_from_addition", "algebra.group_from_addition"),
    ("hurewicz", "iso_check", "algebra.iso_check"),
    ("cli", "verdict", "hurewicz.verdict"),
    ("hurewicz", "canonical_faces", "hurewicz.canonical_faces"),
    ("hurewicz", "epsilon", "hurewicz.epsilon"),
    ("hurewicz", "check_boundary_zero", "hurewicz.check_boundary_zero"),
    ("hurewicz", "natural_iso", "hurewicz.natural_iso"),
    ("cli", "check_tower", "tower.check_tower"),
    ("cli", "group_tower_from_poly", "tower.group_tower_from_poly"),
    ("tower", "induced_hom", "tower.induced_hom"),
    ("cli", "inverse_limit", "tower.inverse_limit"),
    ("cli", "_dump", "cli.emit"),
]

# Benchmark functions that wrap a layer's work, spanned the same way.
OWN_SPANS = [
    ("parse_instance", "polygroupoid.parse"),
    ("parse_tower", "polygroupoid.parse"),
    ("parse_with_action", "polygroupoid.parse"),
    ("run", "op"),
]

# Called too often for a span each: counted only.
COUNTED = [("polygroupoid", "count_horn_fillers", "polygroupoid.horns")]
GROUP_OPS = ("element", "add", "sub", "neg", "scale")


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.instance = -1
        self.stack = []
        self.self_ns = Counter()
        self.counts = Counter()
        self.reset()

    def reset(self):
        """Forget every span and count; the wrappers stay installed."""
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.owner = array("q")
        self.self_ns.clear()
        self.counts.clear()

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def spanned(self, fn, name):
        nid = self.name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            stack = self.stack
            frame = [0]
            self.name.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.owner.append(self.instance)
            self.end.append(0)
            stack.append((idx, frame))
            t0 = clock()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[idx] = t1
                self.self_ns[nid] += t1 - t0 - frame[0]
                if stack:
                    stack[-1][1][0] += t1 - t0

        return wrapper

    def counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, P, jobs_module):
        for module, attr, name in SPANS:
            mod = getattr(P, module)
            setattr(mod, attr, self.spanned(getattr(mod, attr), name))
        for attr, name in OWN_SPANS:
            setattr(jobs_module, attr, self.spanned(getattr(jobs_module, attr), name))
        for module, attr, name in COUNTED:
            mod = getattr(P, module)
            setattr(mod, attr, self.counted(getattr(mod, attr), name))
        cls = P.algebra.FinAbelianGroup
        for attr in GROUP_OPS:
            setattr(cls, attr, self.counted(getattr(cls, attr), "algebra.group_op_calls"))

    def self_s(self, name):
        nid = self.ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def calls(self):
        """Spans recorded, by name."""
        by_id = Counter(self.name)
        return Counter({name: by_id[nid] for name, nid in self.ids.items()})

    def write(self, path):
        """One JSON header line, then the five int64 arrays in native byte
        order: name id, start ns, end ns, parent span index (-1 for a
        root), instance id."""
        header = {"names": self.names, "count": len(self.start),
                  "fields": ["name", "start_ns", "end_ns", "parent", "instance"], "dtype": "int64"}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.start, self.end, self.parent, self.owner):
                arr.tofile(fh)
