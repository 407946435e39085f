#!/usr/bin/env python3
"""privsynth benchmark: one command for every end-to-end and per-layer metric.

Usage, from the root of a checkout:

    python3 bench/run.py --workload landscape --seed 1729 --seconds 30 --trace 0
    python3 bench/run.py --smoke               # every workload at toy size, all checks
    python3 bench/run.py --record-reference    # rewrite bench/reference.json

The workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
root; ``bench/workloads.py`` says what each workload runs and why.

One run is a closed loop with a single client in one process: each op starts
when the previous one has ended. The run has three processes:

1. this one, which prints the result;
2. a fresh *setup* child that builds the inputs from ``--seed``
   ``SETUP_REPEATS`` times, timing each (``setup_s`` is the median);
3. a fresh *measure* child that runs whole passes over the workload's ops for
   at most ``--seconds`` (always at least one pass) and checks every op's
   output. Its own peak resident set is ``peak_rss_mb``, so neither the
   set-up nor another workload can leak into it.

With ``--trace 0`` the measure child takes no wrappers and reports the
end-to-end metrics. ``wall_s`` is the median time of a pass and
``op_s.p50`` the median time of an op. These and ``setup_s`` are given at
nominal machine speed: each timed interval is rescaled by a speed probe run
just before and after it (see ``speed_probe``), because the shared machines
this runs on drift by 10-20 % between runs. The raw medians and the
measured slowdowns are printed with the provenance and kept in the result
file under ``.bench_out/``.

With ``--trace 1`` the measure child runs untraced passes for half the
time (at least one), then installs the span recorder of ``bench/tracing.py``
and runs traced passes for the rest (at least two, which may overrun
``--seconds``), and reports the per-layer metrics, each the median over
traced passes of its per-pass value. Spans go to ``.bench_out/``.

Both children are limited to ``nproc`` threads, BLAS threads included. The
last line of standard output is the JSON result; everything before it is
the human-readable report and provenance.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 3
RUN_DEADLINE_S = 170
# The speed probe's usual time between ops on the reference box (2 vCPUs).
# It only sets the scale of the normalised times; see speed_probe().
PROBE_NOMINAL_S = 0.08
PROBE_EVERY_S = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def import_privsynth() -> dict:
    """The privsynth modules of this checkout, never an installed copy."""
    if not (SRC / "privsynth" / "__init__.py").is_file():
        raise BenchError(f"no privsynth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import privsynth
    from privsynth import (anonymity, classifiers, cli, data, metrics, noise, pipeline,
                           smote, surrogate)
    if SRC not in Path(privsynth.__file__).resolve().parents:
        raise BenchError(f"imported privsynth from {privsynth.__file__}, not {SRC}")
    return {"data": data, "smote": smote, "noise": noise, "anonymity": anonymity,
            "classifiers": classifiers, "metrics": metrics, "pipeline": pipeline,
            "cli": cli, "surrogate": surrogate}


def make_workload(args, m):
    from workloads import WORKLOADS
    reference = {} if args.record else json.loads(REFERENCE.read_text(encoding="utf-8"))
    return WORKLOADS[args.workload](m, args.profile, reference, args.seed)


def speed_probe() -> float:
    """Seconds taken by a fixed piece of work that runs no privsynth code.

    The machines this benchmark runs on are shared: for seconds to minutes
    at a time every instruction runs up to half again as slow, which moves
    a 30 s run by 10-20 %. The probe does the program's kinds of work in
    small: format floats to CSV, parse them back, group rows in a dict,
    compute a broadcast distance block, and stream arrays larger than the
    caches through memory. It runs between ops, never
    inside a timed interval, and ``normalise`` rescales each timed interval
    by the probes on either side of it.
    """
    import numpy as np
    started = time.perf_counter()
    text = "\n".join(",".join(repr(i * 0.37 + j) for j in range(23)) for i in range(1600))
    rows = [[float(cell) for cell in row] for row in csv.reader(io.StringIO(text))]
    groups = {}
    for i, row in enumerate(rows):
        groups.setdefault(tuple(int(v * 3) % 5 for v in row), []).append(i)
    points = np.asarray(rows[:400])
    for start in range(0, 400, 200):
        np.abs(points[start:start + 200, None, :] - points[None, :, :]).sum(axis=2)
    np.abs(np.linspace(0.0, 1.0, 3_000_000) - 0.5).sum()
    return time.perf_counter() - started


def timed_probe() -> tuple:
    start = time.perf_counter()
    value = speed_probe()
    return start, time.perf_counter(), value


def maybe_probe(probes) -> None:
    if not probes or time.perf_counter() - probes[-1][1] >= PROBE_EVERY_S:
        probes.append(timed_probe())


def normalise(intervals, probes) -> list:
    """Each ``(start, seconds)`` interval at nominal machine speed.

    The speed is the mean of the last probe that ended before the interval
    and the first that started after it; both always exist, because a probe
    precedes the first timed interval and follows the last.
    """
    ends = [end for start, end, value in probes]
    starts = [start for start, end, value in probes]
    out = []
    for start, seconds in intervals:
        before = probes[bisect.bisect_right(ends, start) - 1][2]
        after = probes[bisect.bisect_left(starts, start + seconds)][2]
        out.append(seconds * PROBE_NOMINAL_S * 2 / (before + after))
    return out


def child_setup(args) -> dict:
    m = import_privsynth()
    from workloads import sha256_file
    workload = make_workload(args, m)
    work = Path(args.workdir)
    times, probes = [], [timed_probe()]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        started = time.perf_counter()
        info = workload.setup(work, args.seed)
        times.append((started, time.perf_counter() - started))
        probes.append(timed_probe())
    info["input_sha256"] = sha256_file(work / "input.csv")
    info["schema_sha256"] = sha256_file(work / "schema.json")
    (work / "inputs.json").write_text(json.dumps(info), encoding="utf-8")
    return {"setup_s": [t for _, t in times], "setup_norm_s": normalise(times, probes),
            "probe_s": [p[2] for p in probes], "input_sha256": info["input_sha256"],
            "rows": info["rows"]}


def run_passes(workload, work, info, budget, state, tracer=None, min_passes=1):
    """Whole passes until the next one would overrun ``budget`` seconds."""
    started = time.perf_counter()
    while True:
        index = len(state["passes"])
        cycle_start = time.perf_counter()
        outputs = []
        maybe_probe(state["probes"])
        if tracer:
            tracer.op = (index, "prepare")
        prepare_start = time.perf_counter()
        prepared = workload.prepare(work, info)
        intervals = [(prepare_start, time.perf_counter() - prepare_start)]
        for op in workload.ops():
            maybe_probe(state["probes"])
            if tracer:
                tracer.op = (index, workload.op_name(op))
            op_start = time.perf_counter()
            try:
                output = workload.run_op(op, work, prepared)
            except Exception:  # a failed op is counted, and the run goes on
                output = traceback.format_exc()
            intervals.append((op_start, time.perf_counter() - op_start))
            outputs.append((op, output))
        if tracer:
            tracer.op = None
        for op, output in outputs:
            if isinstance(output, str):
                problems = [output.strip().splitlines()[-1]]
            elif state["record"] is not None:
                state["record"][workload.op_name(op)] = workload.digests(op, output)
                problems = []
            else:
                problems = workload.check(op, output, info)
            state["attempted"] += 1
            state["failed"] += bool(problems)
            state["problems"] += [f"{workload.op_name(op)}: {p}" for p in problems]
        # the next pass writes fresh files: rewriting a file in place makes
        # the file system flush it on close, which a first release never pays
        shutil.rmtree(work / "out", ignore_errors=True)
        state["passes"].append({"wall_s": sum(t for _, t in intervals), "ops": intervals[1:],
                                "intervals": intervals, "traced": tracer is not None})
        cycle = time.perf_counter() - cycle_start
        done = sum(p["traced"] == (tracer is not None) for p in state["passes"])
        if done >= min_passes and time.perf_counter() - started + cycle > budget:
            return


def layer_metrics(workload, tracer, state, per_layer, cpu_util) -> dict:
    """Per-layer metrics, each the median over traced passes of its per-pass value."""
    traced = [i for i, p in enumerate(state["passes"]) if p["traced"]]
    walls = {True: [], False: []}
    for p in state["passes"]:  # at nominal speed, so that drift does not pose as overhead
        walls[p["traced"]].append(sum(normalise(p["intervals"], state["probes"])))
    per_pass = []
    counts_by_op = tracer.counts_by_op()
    for index in traced:
        ops = {(index, workload.op_name(op)) for op in workload.ops()} | {(index, "prepare")}
        times = tracer.self_times(ops)
        values = {"trace.coverage": tracer.root_time(ops) / state["passes"][index]["wall_s"]}
        for name, (total, own, calls) in times.items():
            layer = name.split(".")[0]
            values[f"{name}.s"] = total
            values[f"{name}.self_s"] = own
            values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + own
        for op in ops:
            for span, name, value in counts_by_op.get(op, []):
                if name.endswith(".matrix_bytes"):
                    values[name] = max(values.get(name, 0), value)
                else:
                    values[name] = values.get(name, 0) + value
        per_pass.append(values)

    out = {}
    for metric in per_layer:
        name = metric["name"]
        if name == "trace.overhead_s":
            value = statistics.median(walls[True]) - statistics.median(walls[False])
        elif name == "pipeline.cpu_util":
            value = cpu_util
        else:
            value = statistics.median(v.get(name, 0) for v in per_pass)
        out[name] = value
    return out


def count_problems(workload, info, tracer, state) -> list[str]:
    """Counts must repeat exactly: across traced passes, and against closed forms."""
    problems = []
    by_op = tracer.counts_by_op()
    seen = {}
    for (index, op_name), entries in sorted(by_op.items(), key=lambda kv: str(kv[0])):
        first = seen.setdefault(op_name, entries)
        if first != entries:
            diff = [(a, b) for a, b in zip(first, entries) if a != b] or [(len(first), len(entries))]
            problems.append(f"{op_name}: counts differ between traced passes: {diff[0]}")
    names = {workload.op_name(op): op for op in workload.ops()}
    for (index, op_name), entries in by_op.items():
        if op_name not in names:
            continue
        sums = {}
        for span, name, value in entries:
            sums[name] = sums.get(name, 0) + value
        for name, expected in workload.expected_counts(names[op_name], info).items():
            if sums.get(name, 0) != expected:
                problems.append(f"{op_name}: {name} is {sums.get(name, 0)}, expected {expected}")
    return problems


def child_measure(args) -> dict:
    m = import_privsynth()
    workload = make_workload(args, m)
    work = Path(args.workdir)
    info = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    state = {"passes": [], "attempted": 0, "failed": 0, "problems": [],
             "record": {} if args.record else None, "probes": []}
    result = {}
    if not args.trace:
        run_passes(workload, work, info, args.seconds, state)
        state["probes"].append(timed_probe())
    else:
        from tracing import Tracer
        cpu_start = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        run_passes(workload, work, info, args.seconds / 2, state)
        cpu_end = resource.getrusage(resource.RUSAGE_SELF)
        cpu = sum(getattr(cpu_end, f) - getattr(cpu_start, f) for f in ("ru_utime", "ru_stime"))
        cpu_util = cpu / ((time.perf_counter() - started) * nproc())
        tracer = Tracer(m)
        tracer.install()
        try:
            # two traced passes at least, so that every count can be seen to repeat
            run_passes(workload, work, info, args.seconds - (time.perf_counter() - started),
                       state, tracer, min_passes=2)
        finally:
            tracer.uninstall()
        state["probes"].append(timed_probe())
        problems = count_problems(workload, info, tracer, state)
        state["failed"] += bool(problems)
        state["problems"] += problems
        result["per_layer"] = layer_metrics(workload, tracer, state,
                                            load_spec()["per_layer"], cpu_util)
        OUT_ROOT.mkdir(exist_ok=True)
        spans = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        result["spans"] = str(spans.relative_to(ROOT))
    timed = [p for p in state["passes"] if not p["traced"]]
    result.update({
        "probe_s": [p[2] for p in state["probes"]],
        "op_s": [t for p in timed for _, t in p["ops"]],
        "op_norm_s": normalise([i for p in timed for i in p["ops"]], state["probes"]),
        "pass_wall_s": [p["wall_s"] for p in timed],
        "pass_norm_s": [sum(normalise(p["intervals"], state["probes"])) for p in timed],
        "attempted": state["attempted"], "failed": state["failed"],
        "problems": state["problems"][:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "record": state["record"],
        "numpy": sys.modules["numpy"].__version__,
    })
    return result


# ---------------------------------------------------------------------------
# parent
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    threads = str(nproc())
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts in every run
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(SRC)])
    return env


def run_child(kind, args, workdir, deadline) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--child", kind,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--profile", args.profile, "--workdir", str(workdir)]
    if args.record:
        argv.append("--record")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{kind} child exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{kind} child exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def slowdown(child: dict) -> float:
    """How much slower than nominal the machine ran during a child (median probe)."""
    return statistics.median(child["probe_s"]) / PROBE_NOMINAL_S


def run_once(args) -> dict:
    spec = load_spec()
    if not (SRC / "privsynth" / "__init__.py").is_file():
        raise BenchError(f"no privsynth sources under {SRC}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        setup = run_child("setup", args, workdir, deadline)
        measure = run_child("measure", args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = measure["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup["setup_norm_s"]),
            "wall_s": statistics.median(measure["pass_norm_s"]),
            "op_s.p50": statistics.median(measure["op_norm_s"]),
            "peak_rss_mb": measure["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    provenance = {
        "workload": args.workload, "seed": args.seed, "profile": args.profile,
        "seconds": args.seconds, "trace": args.trace, "input_rows": setup["rows"],
        "input_sha256": setup["input_sha256"], "numpy": measure["numpy"],
        "python": platform.python_version(), "nproc": nproc(),
        "blas_threads": f"{child_env()['OPENBLAS_NUM_THREADS']} (OPENBLAS_NUM_THREADS)",
        "setup_samples": len(setup["setup_s"]), "pass_samples": len(measure["pass_wall_s"]),
        "op_samples": len(measure["op_s"]),
        "slowdown_setup": slowdown(setup), "slowdown_measure": slowdown(measure),
        "raw_setup_s": statistics.median(setup["setup_s"]),
        "raw_wall_s": statistics.median(measure["pass_wall_s"] or [math.nan]),
        "raw_op_s.p50": statistics.median(measure["op_s"] or [math.nan]),
    }
    return {"provenance": provenance, "measure": measure, "setup": setup,
            "result": {"correct": measure["failed"] == 0 and measure["attempted"] > 0,
                       "attempted": measure["attempted"], "failed": measure["failed"],
                       "metrics": metrics}}


def report(run: dict) -> None:
    prov, measure, result = run["provenance"], run["measure"], run["result"]
    for key, value in prov.items():
        print(f"# {key}: {value}")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6f} {metric['unit']}")
    ops = sorted(measure["op_s"])
    print(f"{'failed_frac':40s} {result['failed'] / result['attempted']:>16.6f} "
          f"({result['failed']} of {result['attempted']} ops)")
    if not prov["trace"]:
        if len(ops) >= 100:  # p90 only where at least ten samples lie beyond it
            print(f"{'op_s.p90':40s} {ops[int(0.9 * len(ops)) - 1]:>16.6f} s")
        else:
            print(f"{'op_s.p90':40s} {'n/a':>16s} (needs 100 ops, have {len(ops)})")
    for problem in measure["problems"]:
        print(f"! {problem}")
    OUT_ROOT.mkdir(exist_ok=True)
    name = f"result-{prov['workload']}-seed{prov['seed']}-trace{prov['trace']}.json"
    (OUT_ROOT / name).write_text(json.dumps({"provenance": prov, **result}, indent=2) + "\n",
                                 encoding="utf-8")


def smoke(args) -> int:
    """Every workload at toy size, untraced and traced, with every check on."""
    from workloads import WORKLOADS
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            run_args = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace,
                                             "profile": "smoke", "seconds": 1})
            run = run_once(run_args)
            report(run)
            ok &= run["result"]["correct"]
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def record_reference(args) -> int:
    """Rewrite reference.json from this checkout at the default seed."""
    from workloads import DEFAULT_SEED, PROFILES, WORKLOADS
    reference = {"seed": DEFAULT_SEED}
    for profile in PROFILES:
        reference[profile] = {}
        for workload in WORKLOADS:
            run_args = argparse.Namespace(**{**vars(args), "workload": workload, "trace": 0,
                                             "profile": profile, "seconds": 1,
                                             "seed": DEFAULT_SEED, "record": True})
            run = run_once(run_args)
            if run["measure"]["failed"]:
                raise BenchError(f"{workload}: {run['measure']['problems']}")
            reference[profile][workload] = run["measure"]["record"]
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def parse_args(argv=None):
    from workloads import DEFAULT_SEED, PROFILES, WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed for the generated inputs (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--profile", choices=sorted(PROFILES), default="full",
                   help=argparse.SUPPRESS)
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    p.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (args.child or args.smoke or args.record_reference or args.workload):
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    try:
        if args.child:
            result = (child_setup if args.child == "setup" else child_measure)(args)
            print(json.dumps(result))
            return 0
        if args.smoke:
            return smoke(args)
        if args.record_reference:
            return record_reference(args)
        run = run_once(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
