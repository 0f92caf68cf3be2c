"""Solve benchmark for curesched: one closed-loop client, one solve at a time.

    python3 perfbench/run.py --workload hop-lp --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing needs installing.  The corpus is fixed per workload (see
`workloads.py`); `--seed` sets the heuristic seed of the first pass, and
each further pass uses a seed derived from it.  `--seconds` sets how many
whole corpus passes a run makes, through each workload's nominal pass time,
so a run measures about that long on a 2-core machine and every run of a
workload does the same amount of work.

Times are reported in reference seconds.  Around every solve the run times
a fixed pure-Python job, the reference job, which takes REF_JOB_S at
reference speed; each solve's time is scaled by REF_JOB_S over the local
reference-job time (median over the solve and its two neighbours), so a
shared machine that slows down for a minute does not read as a slower
program.  Time a solve spends running its exact stage up to that stage's own
wall-clock limit is not scaled.  Raw wall times stay in the result record.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it makes one untraced pass, then one traced pass, and reports the per-layer
metrics and the tracing overhead.  The last stdout line is the JSON result;
the full record, one row per solve, goes to `perfbench/results/`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

REF_JOB_S = 0.020
PASS_SEED_STRIDE = 1_000_003


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _reference_job() -> float:
    """Seconds for a fixed pure-Python job: the machine's current speed."""
    clock = time.perf_counter()
    acc = {}
    for i in range(100_000):
        key = (i * 7919) % 1009
        acc[key] = acc.get(key, 0) + 1
    sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - clock


def _setup_seconds(workload_name: str) -> float:
    """Import plus corpus generation in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload_name],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _speed(outcomes) -> list:
    """Per solve: REF_JOB_S over the local reference-job time."""
    refs = [o.ref_s for o in outcomes]
    return [REF_JOB_S / statistics.median(refs[max(0, i - 1):i + 2])
            for i in range(len(refs))]


def _ref_seconds(outcomes) -> list:
    return [(o.solve_s - o.limit_wait_s) * f + o.limit_wait_s
            for o, f in zip(outcomes, _speed(outcomes))]


def _pass(workloads, tracing, workload, corpus, thbs, cfg, tracer=None,
          setup=None):
    """One closed-loop pass; `setup` collects a set-up sample per solve."""
    outcomes = []
    for inst, thb in zip(corpus, thbs):
        if setup is not None:
            setup.append(_setup_seconds(workload.name))
        ref0 = _reference_job()
        if tracer is None:
            solved = workloads.solve(workload, inst, cfg)
        else:
            with tracer.recording(inst.name, tracing.POINTS):
                solved = workloads.solve(workload, inst, cfg)
        ref1 = _reference_job()
        out = workloads.judge(workload, inst, thb, solved)
        out.ref_s = (ref0 + ref1) / 2
        outcomes.append(out)
    return outcomes


def _end_to_end(runs, setup):
    """End-to-end metrics, and comment lines, of an untraced run."""
    flat = [o for run in runs for o in run]
    # each instance's median over the passes
    times = [statistics.median(ts)
             for ts in zip(*(_ref_seconds(run) for run in runs))]
    setup_ref = [s * f for s, f in zip(setup, _speed(runs[0]))]
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "wall_s": sum(times),
        "solve_s_p50": statistics.median(times),
        "makespan_sum": statistics.fmean(
            sum(o.makespan or 0 for o in run) for run in runs),
        "solved_share": sum(o.solved for o in flat) / len(flat),
        "peak_rss_mb": _peak_rss_mb(),
    }
    info = {
        "passes": len(runs),
        "solves": len(flat),
        "solve_s_max": max(times),
        "raw_wall_s": statistics.median(sum(o.solve_s for o in run)
                                        for run in runs),
        "speed": statistics.median(f for run in runs for f in _speed(run)),
        "optimal_share": sum(o.optimal for o in flat) / len(flat),
        "failed_share": sum(o.failed for o in flat) / len(flat),
        "setup_raw_s": [round(s, 4) for s in setup],
    }
    return metrics, info


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "curesched").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "curesched" / "__init__.py").is_file():
        print("run.py: no package source under src/curesched; "
              "run it from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the setup probe and the LP solver command import from the same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in
                                 [os.environ.get("PYTHONPATH")] if p])
    import curesched
    import tracing
    import workloads
    from curesched import compute_thb

    if Path(curesched.__file__).resolve().parent != SRC / "curesched":
        print(f"run.py: imported curesched from {curesched.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    # the adapter writes its LP files to the temp dir; keep it in the tree
    tmp = RESULTS / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)

    corpus = workloads.make_corpus(workload)
    thbs = [compute_thb(inst) for inst in corpus]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    _reference_job()  # the first call in a process pays one-off costs

    if args.trace:
        cfg = workloads.solver_config(workload, args.seed)
        untraced = _pass(workloads, tracing, workload, corpus, thbs, cfg)
        tracer = tracing.Tracer()
        with tracer.recording("corpus", tracing.GEN_POINTS):
            workloads.make_corpus(workload)
        child_file = tmp / f"child-spans-{os.getpid()}.jsonl"
        child_file.unlink(missing_ok=True)
        os.environ[tracing.CHILD_SPANS_ENV] = str(child_file)
        cfg = workloads.solver_config(workload, args.seed,
                                      workloads.TRACED_LPSOLVE)
        traced = _pass(workloads, tracing, workload, corpus, thbs, cfg,
                       tracer=tracer)
        tracer.attach_children(child_file)
        child_file.unlink(missing_ok=True)
        runs = [untraced, traced]

        metrics = tracing.layer_metrics(tracer, workload.time_limit_s, traced)
        before, after = sum(_ref_seconds(untraced)), sum(_ref_seconds(traced))
        metrics.update({
            "trace.untraced_wall_s": before,
            "trace.traced_wall_s": after,
            "trace.overhead_share": after / before - 1.0,
            "trace.speed": statistics.median(_speed(traced)),
        })
        info = {"spans": len(tracer.names)}
        if tracer.missing:
            info["untraced_points"] = sorted(tracer.missing)
        tracer.write(RESULTS / f"{stem}-spans.csv.gz")
    else:
        passes = max(1, round(args.seconds / workload.nominal_pass_s))
        setup = []
        runs = []
        for p in range(passes):
            cfg = workloads.solver_config(workload,
                                          args.seed + p * PASS_SEED_STRIDE)
            # one set-up sample before each solve of the first pass
            runs.append(_pass(workloads, tracing, workload, corpus, thbs, cfg,
                              setup=setup if p == 0 else None))
        metrics, info = _end_to_end(runs, setup)

    flat = [o for run in runs for o in run]
    failed = sum(o.failed for o in flat)
    if set(metrics) != set(units):
        print(f"run.py: metrics {sorted(set(metrics) ^ set(units))} disagree "
              "with BENCHMARK.json", file=sys.stderr)
        return 1

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "platform": platform.platform(),
        "git_rev": _git_rev(), "src_sha256": _src_digest(),
        "limits": {"heuristic_starts": workloads.STARTS,
                   "time_limit_s": workload.time_limit_s},
        "metrics": metrics, "info": info,
        "rows": [dict(vars(o), run=i) for i, run in enumerate(runs)
                 for o in run],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for o in flat:
        if o.failed:
            print(f"FAILED {o.instance}: {'; '.join(o.problems)}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for name, value in info.items():
        print(f"# {name} {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(flat),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
