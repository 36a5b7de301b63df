"""chowstab benchmark runner.

    python3 bench/run.py --workload torus|search|algebra --seed N \\
        --seconds S --trace 0|1 [--ops K]

Run from the root of a checkout; chowstab is imported from ``src/`` of that
checkout and from nowhere else, so a directory without the program fails
with exit code 2 before printing a result.

One client drives the seed's corpus closed-loop in this process: the next
op starts when the previous one returned, in whole passes over the corpus,
as many as fit in ``--seconds`` of op time and at least enough that every
op is timed MIN_PASSES times and the ops beyond the p90 TAIL_TIMINGS times.

The host's speed swings by up to about 1.8x, in stretches of seconds to
minutes, so raw timings of the same code taken minutes apart disagree by
more than any useful bound.  The runner therefore times a fixed reference
kernel (Fraction polynomial products, the kind of arithmetic chowstab
does) before the first op of a pass and after every op, and divides each
op's timing by the mean of the two reference timings around it.  An op's
latency is the median of these ratios over the passes, times
REFERENCE_MS: the op's cost in milliseconds on a host that runs the
reference kernel in REFERENCE_MS.  ``setup_s`` is scaled the same way
with the reference timed in the set-up's own process.  The raw timings
are printed as well.

Outputs are kept and checked after the timed loop.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``;
with ``--trace 1`` the per-layer metrics of the fastest of MIN_PASSES
extra, traced passes over the same corpus, plus the tracing overhead.
``--ops K`` keeps only the first K slots of the pool (a smoke-size run).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7  # spread over the run, one after each pass
PROBE_TIMEOUT_S = 120
MIN_PASSES = 3  # timings per op, at least
TAIL_TIMINGS = 10  # timings of the ops beyond the p90, at least

# The reference kernel and its time on the 2-vCPU host the benchmark was
# defined on, in a fast stretch (Python 3.11.7).  Changing either changes
# the unit of every time metric.
REFERENCE_FORM = {(3, 0, 0): Fraction(2, 3), (0, 3, 0): Fraction(-5, 7),
                  (0, 0, 3): Fraction(1, 2), (1, 1, 1): Fraction(3)}
REFERENCE_MS = 4.5

E2E_UNITS = {"ops_per_s": "ops/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Import chowstab from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import chowstab
    found = Path(chowstab.__file__).resolve().parent.parent
    if found != src:
        raise ImportError(f"chowstab was found at {found}, not under {src}")
    return chowstab


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("torus", "search", "algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="use only the first K slots (smoke-size run)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def time_reference() -> float:
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(5):
        checks.power(REFERENCE_FORM, 5, 0)
    return time.perf_counter() - t0


def setup(args):
    """Everything before the first timed op: imports, corpus, warm-up."""
    import workloads
    wl = workloads.WORKLOADS[args.workload]()
    ops = wl.corpus(args.seed, args.ops)
    for op in wl.warmup():
        op.call()
    time_reference()
    return wl, ops


def probe_setup(args):
    """Seconds from starting a fresh interpreter to the end of its setup,
    and the reference kernel's time in that interpreter afterwards."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    end, reference = map(float, done.stdout.split()[-2:])
    return end - start, reference


def timed_pass(ops, run):
    """One pass over ops, `run(i, op)` calling each.

    Returns each op's timing relative to the mean of the reference timings
    just before and just after it, the raw timings, and the outputs.
    """
    relative, raw, outputs = [], [], []
    before = time_reference()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = run(i, op)
        except Exception as exc:  # a failing op is counted, not fatal
            out = exc
        elapsed = time.perf_counter() - t0
        after = time_reference()
        relative.append(2 * elapsed / (before + after))
        raw.append(elapsed)
        outputs.append(out)
        before = after
    return relative, raw, outputs


def closed_loop(ops, seconds: float, min_passes: int, between):
    """Whole passes over ops, as many as fit in `seconds` of op time and at
    least `min_passes`; `between()` runs after each pass, untimed.

    Returns the relative and the raw timings (one row per pass, one column
    per op) and the outputs in the order they came.
    """
    relative, raw, outputs = [], [], []
    busy = 0.0
    while len(raw) < min_passes or busy + sum(raw[-1]) <= seconds:
        rel_row, raw_row, outs = timed_pass(ops, lambda i, op: op.call())
        relative.append(rel_row)
        raw.append(raw_row)
        outputs += outs
        busy += sum(raw_row)
        between()
    return relative, raw, outputs


def traced_passes(ops):
    """MIN_PASSES traced passes, each with its own tracer."""
    from spans import Tracer
    tracers, relative, raw, outputs = [], [], [], []
    for _ in range(MIN_PASSES):
        tracer = Tracer()
        tracer.install()
        try:
            rel_row, raw_row, outs = timed_pass(
                ops, lambda i, op: tracer.run_op(i, op.call))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        relative.append(rel_row)
        raw.append(raw_row)
        outputs += outs
    return tracers, relative, raw, outputs


def per_op(rows) -> list:
    """Each op's median over the passes."""
    return [statistics.median(column) for column in zip(*rows)]


def check(wl, ops, outputs, rechecked: set) -> list:
    """Problems with the outputs of ops cycled in order (one entry per op)."""
    failures = []
    for k, out in enumerate(outputs):
        i = k % len(ops)
        op = ops[i]
        if isinstance(out, Exception):
            failures.append(f"{op.slot}: raised {out!r}")
            continue
        try:
            got = wl.canonical(op, out)
            want = op.variant["expected"]
            problems = []
            if json.dumps(got, sort_keys=True) != json.dumps(want,
                                                             sort_keys=True):
                problems.append(f"answer {got} differs from recorded {want}")
            if i not in rechecked:
                rechecked.add(i)
                problems += wl.recheck(op, out)
        except Exception as exc:  # a malformed output is a failed op
            problems = [f"check raised {exc!r}"]
        if problems:
            failures.append(f"{op.slot}: {'; '.join(problems)}")
    return failures


def nearest_rank(values, q: float):
    """The q-quantile by nearest rank, and how many values lie beyond it."""
    ordered = sorted(values)
    idx = max(math.ceil(q * len(ordered)) - 1, 0)
    return ordered[idx], len(ordered) - 1 - idx


def passes_needed(n_ops: int) -> int:
    """Passes that time each op MIN_PASSES times and the ops beyond the
    p90 TAIL_TIMINGS times in all."""
    _, beyond = nearest_rank(range(n_ops), 0.9)
    if not beyond:  # a smoke-size corpus has no op beyond its p90
        return MIN_PASSES
    return max(MIN_PASSES, math.ceil(TAIL_TIMINGS / beyond))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"bench: cannot import chowstab from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args)
        end = time.monotonic()
        reference = statistics.median(time_reference() for _ in range(3))
        print(f"{end:.9f} {reference:.9f}")
        return 0

    probes = [probe_setup(args)]
    wl, ops = setup(args)
    gc.collect()

    def probe_between_passes():
        if len(probes) < SETUP_PROBES:
            probes.append(probe_setup(args))

    begin = time.perf_counter()
    relative, raw, outputs = closed_loop(
        ops, args.seconds, passes_needed(len(ops)), probe_between_passes)
    wall = time.perf_counter() - begin
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args))
    rechecked: set = set()
    failures = check(wl, ops, outputs, rechecked)
    attempted = len(outputs)

    latency_ms = [r * REFERENCE_MS for r in per_op(relative)]
    raw_ms = [t * 1000 for t in per_op(raw)]
    p90, beyond = nearest_rank(latency_ms, 0.9)
    e2e = {"ops_per_s": 1000 * len(ops) / sum(latency_ms),
           "op_ms_p50": statistics.median(latency_ms),
           "op_ms_p90": p90,
           "setup_s": statistics.median(
               s * REFERENCE_MS / 1000 / ref for s, ref in probes),
           "peak_rss_mb": peak_mb}
    passes = len(raw)
    print(f"bench: workload={args.workload} seed={args.seed} "
          f"slots={len(ops)} passes={passes} ops={attempted} "
          f"wall={wall:.3f}s; raw, unscaled: ops_per_s="
          f"{1000 * len(ops) / sum(raw_ms):.4f} op_ms_p50="
          f"{statistics.median(raw_ms):.4f} op_ms_p90="
          f"{nearest_rank(raw_ms, 0.9)[0]:.4f} setup_s="
          f"{statistics.median(s for s, _ in probes):.4f}")
    notes = {"ops_per_s": f"{len(ops)} ops, each the median of {passes}",
             "op_ms_p50": f"n={len(ops)} ops x {passes} timings",
             "op_ms_p90": f"n={len(ops)} ops x {passes} timings, {beyond} "
                          f"ops ({beyond * passes} timings) beyond",
             "setup_s": f"median of {len(probes)} set-ups"}
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.4f} {E2E_UNITS[name]:<6} "
              f"{notes.get(name, '')}")
    metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
               for name, value in e2e.items()}

    if args.trace:
        tracers, traced_relative, traced_raw, traced_outputs = \
            traced_passes(ops)
        failures += check(wl, ops, traced_outputs, rechecked)
        attempted += len(traced_outputs)
        best = min(range(len(tracers)), key=lambda k: sum(traced_raw[k]))
        tracer = tracers[best]
        layers = tracer.layer_metrics()
        layers["trace.untraced_ops_per_s"] = e2e["ops_per_s"]
        layers["trace.traced_ops_per_s"] = (
            1000 * len(ops) / REFERENCE_MS / sum(per_op(traced_relative)))
        layers["trace.overhead_frac"] = (
            e2e["ops_per_s"] / layers["trace.traced_ops_per_s"] - 1)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(span_file)
        print(f"  traced passes: {len(tracers)} of {len(ops)} ops; the "
              f"fastest has {layers['trace.spans']} spans "
              f"-> {span_file.relative_to(ROOT)}")
        from spans import metric_names
        metrics = {}
        for name, unit in metric_names():
            metrics[name] = {"value": layers[name], "unit": unit}
            print(f"  {name:<36} {layers[name]:14.4f} {unit}")

    failed = len(failures)
    print(f"  failed_frac    {failed / attempted:12.4f} ratio  "
          f"({failed} of {attempted})")
    for line in failures[:10]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
