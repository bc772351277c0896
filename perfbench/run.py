"""symquant benchmark: three size ladders timed end to end, plus a traced
run that splits a pass's time by layer.

Run from the root of a source checkout (the package is imported from
./src, nothing is installed):

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload phase-ladder --seed 7 --seconds 25
    python3 perfbench/run.py --workload spin-ladder --trace 1

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics; in both cases the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Every check
of every rung is counted; the exit code is 1 when any failed or raised.

End-to-end metrics (all lower is better):
  setup_s        median time of a fresh interpreter that imports
                 symquant, generates the inputs and runs the bottom rung once
  sweep_s        median time of one pass over every rung
  sweep_tail_s   the highest pass time with at least ten passes above it
  small_rung_ms  median time of the bottom rung, sampled once per pass
  peak_mib       tracemalloc peak over one pass, measured in its own pass
  failed_ratio   failed checks plus raised rungs over checks attempted;
                 printed, and carried in the result as failed/attempted

Times are speed-scaled: a shared host's CPU speed drifts by tens of percent
over tens of seconds, for every program on it alike. So a fixed calibration
kernel (``speed.calibrate``, no symquant code) runs before every rung and
after the last one, and a pass that took ``t`` wall seconds while the
kernel took a median ``c`` seconds around it is reported as
``t * CALIBRATION_REF_S / c``: the time the pass would take on a machine
where the kernel takes CALIBRATION_REF_S. The bottom rung is scaled by the
two samples taken just before and after it. The raw wall median and the speed
factor are printed beside the metrics. Per-layer span times are raw wall
times.

BLAS runs on one thread, so the process never uses more threads than
there are cores and runs compare on machines with different core counts.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

from speed import CALIBRATION_REF_S, bottom_factor, calibrate, speed_factors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TAIL_GAP = 10            # sweep_tail_s has this many passes above it
MIN_PASSES = TAIL_GAP + 1
SETUP_RUNS = 7
PROBE_TIMEOUT_S = 60
MIB = float(1 << 20)


def _import_symquant():
    """Import symquant from this checkout's src/, or exit 2."""
    if not (SRC / "symquant" / "__init__.py").is_file():
        print(f"error: no symquant sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import symquant
    if SRC not in Path(symquant.__file__).resolve().parents:
        print(f"error: imported symquant from {symquant.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return symquant


class Tally:
    """Checks attempted and failed; a rung that raises is one failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)

    def raised(self, name):
        self.add(f"{name}:raised", False)
        traceback.print_exc(file=sys.stderr)


def run_pass(rungs, tally, tracer=None):
    """Run every rung once; returns (pass seconds, bottom rung seconds,
    calibration samples), the times in wall seconds of the rungs alone.

    A full collection first puts every pass in the same garbage-collector
    state, so that a collection left over from the last pass does not land
    in this one's bottom rung. ``calibrate`` runs before every rung and
    after the last; it calls no symquant code, so the tracer, installed for
    the whole loop, records no span in it. Checks are read after the pass,
    outside its time.
    """
    ok = [True] * len(rungs)
    times = []
    gc.collect()
    cal = [calibrate()]
    if tracer is not None:
        tracer.install()
    for i, rung in enumerate(rungs):
        r0 = time.perf_counter()
        try:
            rung.run()
        except Exception:
            ok[i] = False
            tally.raised(rung.label)
        times.append(time.perf_counter() - r0)
        cal.append(calibrate())
    if tracer is not None:
        tracer.uninstall()
    for i, rung in enumerate(rungs):
        if not ok[i]:
            continue
        try:
            checks = rung.checks()
        except Exception:
            tally.raised(rung.label)
            continue
        for name, passed in checks:
            tally.add(name, passed)
    return sum(times), times[0], cal


def environment(symquant, traced):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "symquant": symquant.__version__,
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "trace": bool(traced),
    }


def _git_commit():
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or the thread variable we set."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def measure_setup(workload, seed, tolerance, tally):
    """Median time of SETUP_RUNS fresh interpreters running --probe,
    speed-scaled by the median of ``calibrate`` samples taken between them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    if tolerance is not None:
        cmd += ["--tolerance", repr(tolerance)]
    times, cal = [], [calibrate()]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        cal.append(calibrate())
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            tally.attempted += result["attempted"]
            tally.failed += result["failed"]
            tally.failures += [f"setup:{f}" for f in result["failures"]]
        except (IndexError, ValueError, KeyError):
            tally.add("setup:probe_result", False)
            sys.stderr.write(proc.stderr)
    return statistics.median(times) * CALIBRATION_REF_S / statistics.median(cal)


def probe(workload, seed, tolerance):
    """Child of measure_setup: inputs, then the bottom rung once, cold."""
    import workloads
    tally = Tally()
    with scratch_dir() as workdir:
        rungs = workloads.build_workload(workload, seed, workdir, tolerance,
                                         bottom_only=True)
        run_pass(rungs[:1], tally)
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "failures": tally.failures}))
    return 0 if tally.failed == 0 else 1


@contextlib.contextmanager
def scratch_dir():
    WORK_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()                   # only when no run still uses it


def timed_passes(rungs, tally, budget, min_passes, tracer_factory=None):
    """Passes until ``budget`` seconds have gone and at least ``min_passes``
    ran; returns the speed-scaled pass and bottom rung times, the raw wall
    pass times, the passes' speed factors and the tracers, if any. The
    bottom rung, a few milliseconds long, is scaled by the samples taken
    just around it rather than by its pass's pooled factor."""
    walls, bottoms, samples, tracers = [], [], [], []
    t_end = time.perf_counter() + budget
    while time.perf_counter() < t_end or len(walls) < min_passes:
        tracer = tracer_factory() if tracer_factory else None
        elapsed, bottom, cal = run_pass(rungs, tally, tracer)
        walls.append(elapsed)
        bottoms.append(bottom)
        samples.append(cal)
        tracers.append(tracer)
    factors = speed_factors(samples)
    return ([w * f for w, f in zip(walls, factors)],
            [b * bottom_factor(cal) for b, cal in zip(bottoms, samples)],
            walls, factors, tracers)


def measure(workload, seed, seconds, traced, tolerance, bottom_only):
    """One benchmark run of one workload; returns (metrics, tally, notes).

    Untraced: set-up interpreters, a warm-up pass, timed passes for
    ``seconds``, then the tracemalloc pass (after timing, so that the heap
    it leaves behind cannot shift the timed passes). Traced: a warm-up
    pass, untraced passes for half of ``seconds`` (the overhead baseline),
    then traced passes for the other half.
    """
    import symquant
    import workloads
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(traced)}")
    print("environment " + json.dumps(environment(symquant, traced), sort_keys=True))
    tally = Tally()
    with scratch_dir() as workdir:
        if traced:
            rungs = workloads.build_workload(workload, seed, workdir, tolerance,
                                             bottom_only)
            run_pass(rungs, tally)                         # warm-up
            passes = timed_passes(rungs, tally, seconds / 2.0, 3)[0]
            metrics, notes = measure_layers(rungs, tally, seconds / 2.0,
                                            statistics.median(passes))
            notes["trace.overhead_ratio"] += f", {len(passes)} untraced passes"
            return metrics, tally, notes

        setup = measure_setup(workload, seed, tolerance, tally)
        rungs = workloads.build_workload(workload, seed, workdir, tolerance,
                                         bottom_only)
        run_pass(rungs, tally)                             # warm-up
        passes, bottoms, walls, factors, _ = timed_passes(rungs, tally, seconds,
                                                          MIN_PASSES)
        tracemalloc.start()
        run_pass(rungs, tally)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    n = len(passes)
    metrics = {
        "setup_s": (setup, "s"),
        "sweep_s": (statistics.median(passes), "s"),
        "sweep_tail_s": (sorted(passes)[n - TAIL_GAP - 1], "s"),
        "small_rung_ms": (statistics.median(bottoms) * 1e3, "ms"),
        "peak_mib": (peak / MIB, "MiB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        "sweep_s": f"median of {n} passes; raw wall median "
                   f"{statistics.median(walls):.4g} s, speed factor median "
                   f"{statistics.median(factors):.4g}",
        "sweep_tail_s": f"{TAIL_GAP + 1}th highest of {n} passes "
                        f"(p{100.0 * (n - TAIL_GAP - 1) / n:.0f})",
        "small_rung_ms": f"median of {n} passes",
        "peak_mib": "1 pass under tracemalloc",
    }
    return metrics, tally, notes


def measure_layers(rungs, tally, budget, untraced_sweep):
    """Per-layer metrics of the median traced pass, and span peaks from one
    more traced pass under tracemalloc.

    Passes are ranked by speed-scaled time, but the spans and
    ``trace.sweep_s`` of the median one are raw wall times, so that layer
    self times add up to at most the pass. ``trace.overhead_ratio`` compares
    speed-scaled medians, traced over untraced."""
    import spans
    scaled, _, walls, _, tracers = timed_passes(rungs, tally, budget, 3, spans.Tracer)
    runs = sorted(zip(scaled, walls, tracers), key=lambda r: r[0])
    scaled, elapsed, tracer = runs[len(runs) // 2]
    metrics = spans.layer_metrics(tracer.spans, tracer.report_bytes)

    tracemalloc.start()
    mem_tracer = spans.Tracer(memory=True)
    run_pass(rungs, tally, mem_tracer)
    tracemalloc.stop()
    peaks = spans.layer_metrics(mem_tracer.spans, mem_tracer.report_bytes)
    metrics.update((name, v) for name, v in peaks.items() if v[1] == "MiB")
    metrics["trace.sweep_s"] = elapsed, "s"
    metrics["trace.overhead_ratio"] = scaled / untraced_sweep, "ratio"
    notes = {"trace.sweep_s": f"median of {len(runs)} traced passes",
             "trace.overhead_ratio": "traced over untraced sweep_s"}
    return metrics, notes


def print_block(metrics, tally, notes):
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_ratio':34s} {ratio:14.6g} {'ratio':6s} "
          f"{tally.failed} failed of {tally.attempted} checks")
    for name in tally.failures:
        print(f"  FAILED {name}")


def result_line(metrics, tally):
    return json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="phase-ladder, spin-ladder, group-ladder or all")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per run (per workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tolerance", type=float,
                        help="blanket override of every check tolerance")
    parser.add_argument("--bottom", action="store_true",
                        help="run only the smallest rung of each kind")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_symquant()
    from workloads import WORKLOAD_NAMES as names
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}")
    if args.probe:
        return probe(args.workload, args.seed, args.tolerance)

    selected = names if args.workload == "all" else (args.workload,)
    combined, total = {}, Tally()
    for name in selected:
        metrics, tally, notes = measure(name, args.seed, args.seconds,
                                        bool(args.trace), args.tolerance, args.bottom)
        print_block(metrics, tally, notes)
        total.attempted += tally.attempted
        total.failed += tally.failed
        if len(selected) == 1:
            combined = metrics
        else:
            print(result_line(metrics, tally))
            combined.update({f"{name}/{m}": v for m, v in metrics.items()})
    print(result_line(combined, total))
    return 0 if total.failed == 0 and total.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
