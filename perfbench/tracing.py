"""Per-module spans for the traced run, recorded from outside the package.

Modules import their collaborators by name, so a call is traced by
replacing the name the *calling* module holds (`curesched.hop.solve_exact`,
`curesched.heuristic.derive_aux_sets`, ...) with a wrapper for the length
of one solve.  Every wrapped call becomes a span: name, start, end, parent
span and instance.  Spans stay in memory, in flat arrays, and are written
out once the run ends.  The bundled LP command runs in a child process;
its spans come back through a side file (see `lpsolve_traced.py`) and hang
under the parent's span for that child.
"""

import contextlib
import gzip
import json
import time
from array import array
from collections import Counter, defaultdict

import curesched.domain
import curesched.exact
import curesched.gen
import curesched.heuristic
import curesched.hop
import curesched.milp
from curesched import schedule_makespan

CHILD_SPANS_ENV = "PERFBENCH_CHILD_SPANS"
CHILD_SPAN = "exact.adapter.child"


class Tracer:
    """Spans of wrapped calls, kept in parallel arrays indexed by span id."""

    def __init__(self):
        self.names = []
        self.parent = array("l")
        self.instance = array("l")
        self.start = array("d")
        self.end = array("d")
        self.extra = {}          # span id -> value kept from the result
        self.instances = []      # instance index -> name
        self.missing = set()     # (module, name) the program no longer has
        self._stack = [-1]
        self._current = -1

    def wrap(self, fn, name, keep=None):
        names, parent, instance = self.names, self.parent, self.instance
        start, end, stack, extra = self.start, self.end, self._stack, self.extra
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parent.append(stack[-1])
            instance.append(self._current)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if keep is not None:
                extra[sid] = keep(out)
            return out

        return traced

    def add(self, name, t0, t1, parent):
        """Record a span measured elsewhere, in a child process."""
        self.names.append(name)
        self.parent.append(parent)
        self.instance.append(self.instance[parent])
        self.start.append(t0)
        self.end.append(t1)
        return len(self.names) - 1

    @contextlib.contextmanager
    def recording(self, instance_name, points):
        """Trace `points` for the length of one instance's solve."""
        self._current = len(self.instances)
        self.instances.append(instance_name)
        saved = []
        try:
            for module, attr, make in points:
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(f"{module.__name__}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, make(self, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._current = -1

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self, dur):
        """Duration minus the time direct children cover."""
        own = list(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[sid]
        return own

    def attach_children(self, path):
        """Hang each child's spans under the parent's span for that child.

        Children write one line each, in the order they ran, so the n-th
        line belongs to the n-th child span.
        """
        if not path.exists():
            return
        child_ids = [sid for sid, n in enumerate(self.names) if n == CHILD_SPAN]
        lines = path.read_text().splitlines()
        for sid, line in zip(child_ids, lines):
            spans = json.loads(line)
            main = [s for s in spans if s[0] == "lpsolve.main"]
            top = self.add(*main[0], sid) if main else sid
            for name, t0, t1 in spans:
                if name != "lpsolve.main":
                    self.add(name, t0, t1, top)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,instance,name,start,end\n")
            for sid, name in enumerate(self.names):
                inst = self.instance[sid]
                label = self.instances[inst] if inst >= 0 else ""
                fh.write(f"{sid},{self.parent[sid]},{label},{name},"
                         f"{self.start[sid]!r},{self.end[sid]!r}\n")


class _SubprocessShim:
    """Stands in for a module's `subprocess` with a traced `run`."""

    def __init__(self, real, run):
        self._real = real
        self.run = run

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _call(name, keep=None):
    return lambda tracer, fn: tracer.wrap(fn, name, keep)


def _child_process(tracer, module):
    return _SubprocessShim(module, tracer.wrap(module.run, CHILD_SPAN))


def _hop_model(out):
    stats = out[0].stats
    return (0, 0) if stats is None else (stats.n_constraints,
                                         stats.n_binary_vars)


def _exact_outcome(report):
    return report.status, report.nodes, report.wall_seconds


_heur, _hop, _exact = curesched.heuristic, curesched.hop, curesched.exact
_domain, _milp = curesched.domain, curesched.milp

# (calling module, name it holds, replacement factory)
POINTS = (
    (_heur, "run_heuristic", _call("heuristic.run_heuristic")),
    (_hop, "run_heuristic", _call("heuristic.run_heuristic")),
    (_heur, "mold_pairs_procedure", _call("heuristic.mold_pairs_procedure")),
    (_heur, "assignment_procedure", _call("heuristic.assignment_procedure")),
    (_heur, "improvement_procedure",
     _call("heuristic.improvement_procedure", schedule_makespan)),
    (_heur, "derive_aux_sets", _call("domain.derive_aux_sets")),
    (_milp, "derive_aux_sets", _call("domain.derive_aux_sets")),
    (_exact, "derive_aux_sets", _call("domain.derive_aux_sets")),
    (_heur, "plan_slot", _call("domain.plan_slot")),
    (_domain, "plan_slot", _call("domain.plan_slot")),
    (_milp, "plan_slot", _call("domain.plan_slot")),
    (_heur, "validate_schedule", _call("domain.validate_schedule")),
    (_hop, "validate_schedule", _call("domain.validate_schedule")),
    (_hop, "run_hop", _call("hop.run_hop", _hop_model)),
    (_hop, "build_model", _call("milp.build_model")),
    (_hop, "model_stats", _call("milp.model_stats")),
    (_exact, "model_stats", _call("milp.model_stats")),
    (_exact, "emit_lp", _call("milp.emit_lp", len)),
    (_exact, "extract_schedule", _call("milp.extract_schedule")),
    (_hop, "solve_exact", _call("exact.solve_exact", _exact_outcome)),
    (_hop, "solve_with_adapter", _call("exact.solve_with_adapter")),
    (_exact, "subprocess", _child_process),
)

GEN_POINTS = (
    (curesched.gen, "generate_instance", _call("gen.generate_instance")),
)


def layer_metrics(tracer, time_limit_s, outcomes):
    """Per-layer metrics of one traced pass, by name."""
    names, parent, extra = tracer.names, tracer.parent, tracer.extra
    dur = tracer.durations()
    own = tracer.self_times(dur)
    total, self_total, calls = defaultdict(float), defaultdict(float), Counter()
    for sid, name in enumerate(names):
        total[name] += dur[sid]
        self_total[name] += own[sid]
        calls[name] += 1

    def under(sid, parent_name):
        p = parent[sid]
        return p >= 0 and names[p] == parent_name

    rounds = sum(1 for sid, n in enumerate(names)
                 if n == "heuristic.assignment_procedure"
                 and under(sid, "heuristic.improvement_procedure"))
    improve_calls = calls["heuristic.improvement_procedure"]
    # each improvement call ends on the one round it rejects
    accepted = rounds - improve_calls

    starts_by_run = defaultdict(list)
    for sid, n in enumerate(names):
        if n == "heuristic.improvement_procedure" and sid in extra:
            starts_by_run[parent[sid]].append(extra[sid])
    starts = sum(len(v) for v in starts_by_run.values())
    at_best = sum(v.count(min(v)) for v in starts_by_run.values())

    heur_in_hop = sum(dur[sid] for sid, n in enumerate(names)
                      if n == "heuristic.run_heuristic"
                      and under(sid, "hop.run_hop"))
    hop_models = [extra[sid] for sid, n in enumerate(names)
                  if n == "hop.run_hop" and sid in extra]
    searches = [extra[sid] for sid, n in enumerate(names)
                if n == "exact.solve_exact" and sid in extra]
    limit = time_limit_s or float("inf")
    at_limit = [s for s in searches
                if s[0] in ("limit", "feasible") or s[2] >= limit]
    nodes = sum(s[1] for s in searches)
    hop_rows = [o for o in outcomes if o.horizon is not None]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "heuristic.run_heuristic.s": total["heuristic.run_heuristic"],
        "heuristic.starts_per_s": ratio(calls["heuristic.mold_pairs_procedure"],
                                        total["heuristic.run_heuristic"]),
        "heuristic.mold_pairs_procedure.s":
            total["heuristic.mold_pairs_procedure"],
        "heuristic.mold_pairs_procedure.calls":
            calls["heuristic.mold_pairs_procedure"],
        "heuristic.assignment_procedure.s":
            total["heuristic.assignment_procedure"],
        "heuristic.assignment_procedure.calls":
            calls["heuristic.assignment_procedure"],
        "heuristic.improvement_procedure.self_s":
            self_total["heuristic.improvement_procedure"],
        "heuristic.improve.accept_ratio": ratio(accepted, rounds),
        "heuristic.best_start_share": ratio(at_best, starts),
        "domain.derive_aux_sets.calls": calls["domain.derive_aux_sets"],
        "domain.derive_aux_sets.s": total["domain.derive_aux_sets"],
        "domain.plan_slot.calls": calls["domain.plan_slot"],
        "domain.plan_slot.s": total["domain.plan_slot"],
        "domain.validate_schedule.calls": calls["domain.validate_schedule"],
        "domain.validate_schedule.s": total["domain.validate_schedule"],
        "hop.run_hop.s": total["hop.run_hop"],
        "hop.heuristic_share": ratio(heur_in_hop, total["hop.run_hop"]),
        "hop.horizon_ratio": ratio(sum(o.horizon for o in hop_rows),
                                   sum(o.thb for o in hop_rows)),
        "milp.build_model.s": total["milp.build_model"],
        "milp.build_model.calls": calls["milp.build_model"],
        "milp.rows": sum(rows for rows, _ in hop_models),
        "milp.binary_vars": sum(binaries for _, binaries in hop_models),
        "milp.model_stats.s": total["milp.model_stats"],
        "milp.emit_lp.s": total["milp.emit_lp"],
        "milp.lp_bytes": sum(extra[sid] for sid, n in enumerate(names)
                             if n == "milp.emit_lp" and sid in extra),
        "milp.extract_schedule.s": total["milp.extract_schedule"],
        "exact.solve_exact.s": total["exact.solve_exact"],
        "exact.nodes": nodes,
        "exact.nodes_per_s": ratio(nodes, total["exact.solve_exact"]),
        "exact.limit_hits": len(at_limit),
        "exact.optimal_at_limit": sum(1 for s in at_limit if s[0] == "optimal"),
        "exact.solve_with_adapter.s": total["exact.solve_with_adapter"],
        "exact.adapter.child_s": total[CHILD_SPAN],
        "lpsolve.startup_s": self_total[CHILD_SPAN],
        "lpformat.parse_lp.s": total["lpformat.parse_lp"],
        "lpsolve.highs.s": total["lpsolve.highs"],
        "lpsolve.main.self_s": self_total["lpsolve.main"],
        "gen.generate_instance.s": total["gen.generate_instance"],
    }
