"""Benchmark of multimeixner: time to a verified verdict on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload identity-web --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one process each
    python3 perfbench/run.py --workload all --trace 1    # adds the traced per-layer split
    python3 perfbench/run.py --workload all --smoke      # tiny boxes, for the smoke test

The library is imported from ``src/`` of the checkout; nothing is installed.

``--seed`` orders the work: it shuffles the independent units of a workload
(each builds its own systems), so every seed does the same work in another
order.  ``--workload-seed`` chooses the systems: ``acceptance`` (the
default) reproduces the acceptance gate's systems, an integer draws other
systems through ``harness.random_matrix`` for held-out confirmation.

One run sets up ``SETUP_REPS`` times (import once, then matrix construction
and a warm-up pass at the smoke sizes, each time with the ``pochhammer``
cache cleared), then runs whole passes of the workload until ``--seconds``
would be exceeded (at least ``MIN_PASSES``).  End-to-end metrics come from
these untraced passes.  With ``--trace 1`` the matrix construction and one
pass are repeated with pass-through wrappers around every layer (see
``tracer.py``); they give the per-layer split, the traced pass must
reproduce the untraced digests, and its counts must repeat those of the
previous traced run of the same code.

Every op is checked: a report must pass, an exact discrepancy must be 0, a
float discrepancy must be within the acceptance tolerance, the op's digest
must equal the stored reference (exact workloads, acceptance systems), and
an exception fails the op without stopping the run.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
the metrics being those ``BENCHMARK.json`` lists for the mode.  Each run
also writes ``perfbench/out/result-*.json`` (environment, every metric,
every op) and, traced, ``perfbench/out/spans-<workload>.csv.gz``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DOCS = os.path.join(HERE, "workloads.json")

SETUP_REPS = 5
MIN_PASSES = 2
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("identity-web", "route-agreement", "float-orthogonality")
E2E_UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "fail_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no library, no spec)."""


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# environment and provenance


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_fingerprint():
    """Digest of the library and benchmark sources: identifies the code a
    run measured when the checkout is not a git repository."""
    files = sorted(glob.glob(os.path.join(SRC, "multimeixner", "**", "*.py"), recursive=True))
    files += sorted(glob.glob(os.path.join(HERE, "*.py")))
    h = hashlib.sha256()
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()[:16]


def environment(mm):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_fingerprint": source_fingerprint(),
        "kernel_backend": mm.KERNEL_BACKEND,
        "MULTIMEIXNER_KERNEL": os.environ.get("MULTIMEIXNER_KERNEL", "unset"),
        "load": "one process, one workload",
    }


# ---------------------------------------------------------------------------
# passes


def run_pass(units, rng):
    """Run every unit once, in an order drawn from rng.

    Returns (wall seconds, per-unit results in canonical order); a result
    is (key, ok, digest, seconds, error)."""
    order = list(range(len(units)))
    if rng is not None:
        rng.shuffle(order)
    results = [None] * len(units)
    start = perf_counter()
    for u in order:
        try:
            ops = units[u]()
        except Exception as exc:  # a unit that cannot be built fails as one op
            results[u] = [(f"unit{u}", False, "", 0.0, f"{type(exc).__name__}: {exc}")]
            continue
        out = []
        for key, fn in ops:
            o0 = perf_counter()
            try:
                ok, payload = fn()
                error = None
            except Exception as exc:  # counted as a failed op; the run goes on
                ok, payload, error = False, "", f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - o0
            if not ok and error is None:
                error = "verdict failed at the acceptance tolerance"
            out.append((key, bool(ok), digest(payload), seconds, error))
        results[u] = out
    wall = perf_counter() - start
    return wall, [op for unit in results for op in unit]


def tail(times, per_pass):
    """The op tail: the highest percentile that leaves at least TAIL_BEYOND
    ops beyond it in a run of MIN_PASSES passes, read from all ops of the
    run.  The percentile depends only on the ops per pass, so every run
    reads the same rank of the op-time distribution however many passes
    fit; with fewer ops than that (smoke sizes) it is the maximum.

    Returns (seconds, percentile, ops beyond it in this run)."""
    smallest = per_pass * MIN_PASSES
    keep = smallest - TAIL_BEYOND if smallest > TAIL_BEYOND else smallest
    ordered = sorted(times)
    idx = -(-keep * len(ordered) // smallest) - 1  # nearest rank, in integers
    return ordered[idx], 100.0 * keep / smallest, len(ordered) - 1 - idx


def check_against_reference(ops, reference):
    """Mark ops whose digest differs from the stored reference as failed."""
    checked = []
    for key, ok, dig, seconds, error in ops:
        want = reference.get(key)
        if want is None:
            ok, error = False, error or "no reference digest for this op"
        elif want != dig:
            ok, error = False, error or f"digest {dig} != reference {want}"
        checked.append((key, ok, dig, seconds, error))
    return checked


def overall_digest(ops):
    return digest("\n".join(f"{key} {dig}" for key, _ok, dig, _s, _e in ops))


# ---------------------------------------------------------------------------
# one workload in this process


def load_library():
    """Import the library from the checkout's src/ and the workload code."""
    if not os.path.isdir(os.path.join(SRC, "multimeixner")):
        raise SetupError(f"no library at {os.path.relpath(SRC, ROOT)}/multimeixner")
    if not os.path.isfile(SPEC):
        raise SetupError("BENCHMARK.json is missing")
    sys.path.insert(0, SRC)
    try:
        import multimeixner
        import workloads
    except ImportError as exc:
        raise SetupError(f"cannot import the library from src/: {exc}") from exc

    if not os.path.abspath(multimeixner.__file__).startswith(SRC + os.sep):
        raise SetupError(f"multimeixner imported from {multimeixner.__file__}, not the checkout")
    return multimeixner, workloads


def run_workload(args):
    t_import = perf_counter()
    mm, wl = load_library()
    import_s = perf_counter() - t_import

    name = args.workload
    wseed = args.workload_seed
    make_units = wl.WORKLOADS[name]
    sizes = wl.Sizes(args.smoke)
    warm_sizes = wl.Sizes(True)
    docs = load_json(DOCS)
    reference = {}
    if wseed == wl.ACCEPTANCE and not args.smoke and name in wl.PINNED:
        reference = docs["workloads"][name]["reference"]["ops"]

    problems = []
    setup_reps = []
    for _ in range(SETUP_REPS):
        mm.numerics.pochhammer.cache_clear()
        s0 = perf_counter()
        inputs = wl.build_inputs(wseed)
        _wall, warm_ops = run_pass(make_units(inputs, warm_sizes), None)
        setup_reps.append(perf_counter() - s0)
        for key, ok, _dig, _s, error in warm_ops:
            if not ok and f"warm-up op {key} failed: {error}" not in problems:
                problems.append(f"warm-up op {key} failed: {error}")
    setup_s = import_s + statistics.median(setup_reps)

    rng = random.Random(args.seed)
    unit_list = make_units(inputs, sizes)
    walls, passes = [], []
    started = perf_counter()
    while True:
        wall, ops = run_pass(unit_list, rng)
        if reference:
            ops = check_against_reference(ops, reference)
        walls.append(wall)
        passes.append(ops)
        if len(walls) >= MIN_PASSES and perf_counter() - started + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    first = passes[0]
    for later in passes[1:]:
        if [op[2] for op in later] != [op[2] for op in first]:
            problems.append("digests differ between untraced passes")
    all_ops = [op for ops in passes for op in ops]
    attempted = len(all_ops)
    failed = sum(1 for op in all_ops if not op[1])
    per_pass_ops = len(first)
    times = [op[3] for op in all_ops]
    tail_value, tail_pct, tail_beyond = tail(times, per_pass_ops)
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "fail_share": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    units = dict(E2E_UNITS)
    notes = {
        "wall_s": f"median of {len(walls)} passes",
        "op_p50_s": f"median of {attempted} ops",
        "op_tail_s": f"p{tail_pct:.1f} of {attempted} ops, {tail_beyond} beyond",
        "fail_share": f"{failed} of {attempted} ops failed",
        "setup_s": f"import {import_s:.4f} s + median of {SETUP_REPS} set-ups",
    }
    value_digest = overall_digest(first)
    want = docs["workloads"][name]["reference"].get("digest") if reference else None
    if want is not None and value_digest != want:
        problems.append(f"value digest {value_digest} != reference {want}")

    trace = None
    if args.trace:
        trace = traced_segment(mm, wl, args, make_units, sizes, first)
        problems.extend(trace["problems"])
        metrics["trace.overhead_share"] = trace["wall"] / metrics["wall_s"] - 1
        units["trace.overhead_share"] = "ratio"
        for key, (value, unit) in trace["layers"].items():
            metrics[key] = value
            units[key] = unit
        notes["kernel.mul_trunc.term_pairs"] = "computed from the inputs"
        notes["kernel.hyp_sum.terms"] = "computed from the inputs"
        notes["trace.overhead_share"] = f"traced pass {trace['wall']:.4f} s"

    correct = failed == 0 and not problems
    env = environment(mm)
    doc = docs["workloads"][name]
    lines = [
        f"# workload {name}: {workload_why(name)}",
        f"# op: {doc['op_unit']}; stresses {doc['stresses']}; bypasses {doc['bypasses']}",
        f"# seed {args.seed} (op order), workload seed {wseed}, "
        f"{'smoke sizes' if args.smoke else 'full sizes'}, value digest {value_digest}",
        "# env: " + ", ".join(f"{k}={v}" for k, v in env.items()),
    ]
    for key in sorted(metrics, key=lambda k: (k not in E2E_UNITS, k)):
        note = notes.get(key, "")
        lines.append(f"{key:<44} {metrics[key]!r:>24} {units[key]:<6} {note}".rstrip())
    for problem in problems:
        lines.append(f"# PROBLEM: {problem}")
    failures = Counter((key, error) for key, ok, _dig, _s, error in all_ops if not ok)
    for (key, error), count in failures.items():
        lines.append(f"# FAILED op {key} ({count} of {len(passes)} passes): {error}")
    print("\n".join(lines))

    write_json(
        result_path(args, name),
        {
            "workload": name,
            "seed": args.seed,
            "workload_seed": wseed,
            "smoke": args.smoke,
            "seconds": args.seconds,
            "environment": env,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "value_digest": value_digest,
            "metrics": {k: {"value": v, "unit": units[k], "note": notes.get(k)} for k, v in metrics.items()},
            "pass_walls_s": walls,
            "op_seconds_by_pass": [[op[3] for op in ops] for ops in passes],
            "setup_reps_s": setup_reps,
            "import_s": import_s,
            "ops": [
                {"key": k, "ok": ok, "digest": d, "seconds": s, "error": e}
                for k, ok, d, s, e in first
            ],
        },
    )
    return result_line(correct, attempted, failed, metrics, units, args.trace)


def traced_segment(mm, wl, args, make_units, sizes, untraced_ops):
    """Matrix construction and one pass, traced, from a cleared pochhammer
    cache (so every count repeats exactly); per-layer metrics and checks."""
    import tracer

    problems = []
    tr = tracer.Tracer()
    mm.numerics.pochhammer.cache_clear()
    tr.install()
    try:
        inputs = wl.build_inputs(args.workload_seed)
        wall, ops = run_pass(make_units(inputs, sizes), random.Random(args.seed))
    finally:
        tr.uninstall()
    layers = tr.layer_metrics()
    if [op[:3] for op in ops] != [op[:3] for op in untraced_ops]:
        problems.append("traced pass digests or verdicts differ from the untraced pass")
    problems.extend(check_counts(args, layers))
    tr.write_spans(os.path.join(OUT, f"spans-{args.workload}{'-smoke' if args.smoke else ''}.csv.gz"))
    return {"wall": wall, "layers": layers, "problems": problems}


COUNT_SUFFIXES = (".calls", ".term_pairs", ".terms", ".distinct", ".builds", ".hits", ".misses", ".entries")


def check_counts(args, layers):
    """Counts and computed op counts must repeat exactly between traced runs
    of the same code: compare with the last traced run of this code."""
    counts = {k: v for k, (v, _u) in layers.items() if k.endswith(COUNT_SUFFIXES)}
    path = os.path.join(
        OUT,
        f"counts-{args.workload}-{args.workload_seed}{'-smoke' if args.smoke else ''}.json",
    )
    fingerprint = source_fingerprint()
    problems = []
    previous = load_json(path) if os.path.isfile(path) else None
    if previous is not None and previous.get("source_fingerprint") == fingerprint:
        for key, value in counts.items():
            if previous["counts"].get(key) != value:
                problems.append(f"count {key} = {value}, previous traced run {previous['counts'].get(key)}")
    write_json(path, {"source_fingerprint": fingerprint, "counts": counts})
    return problems


def result_path(args, name):
    smoke = "-smoke" if args.smoke else ""
    return os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}{smoke}.json")


def result_line(correct, attempted, failed, metrics, units, trace):
    spec = load_json(SPEC)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for entry in wanted:
        key = entry["name"]
        if units.get(key) != entry["unit"]:
            raise SetupError(f"metric {key} has unit {units.get(key)}, BENCHMARK.json says {entry['unit']}")
        out[key] = {"value": metrics[key], "unit": entry["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}


def workload_why(name):
    for entry in load_json(SPEC)["workloads"]:
        if entry["name"] == name:
            return entry["why"]
    return ""


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1)
        handle.write("\n")


# ---------------------------------------------------------------------------
# every workload, one child process each


def run_all(args):
    """Each workload in its own process, so peak RSS and the pochhammer
    cache are per workload; prints a table of the end-to-end metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--workload-seed", str(args.workload_seed),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            raise SetupError(f"workload {name} printed no result (exit {done.returncode})")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
        table.append((name, load_json(result_path(args, name))["metrics"]))
        print()
    header = f"{'workload':<22}" + "".join(f"{k + ' [' + u + ']':>22}" for k, u in E2E_UNITS.items())
    print(header)
    for name, metrics in table:
        print(f"{name:<22}" + "".join(f"{metrics[k]['value']:>22.6g}" for k in E2E_UNITS))
    return combined


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="op-order seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workload-seed",
        default="acceptance",
        help="'acceptance' for the acceptance systems, or an integer for drawn systems",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny boxes")
    args = parser.parse_args(argv)
    if args.workload_seed != "acceptance":
        try:
            args.workload_seed = int(args.workload_seed)
        except ValueError:
            parser.error("--workload-seed must be 'acceptance' or an integer")
    return args


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
