"""qmeasure benchmark: seeded scenario workloads through the public API.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload corrected_z --seed 1 --seconds 30 --trace 0

One client runs scenarios in a closed loop for ``--seconds`` seconds: each
scenario's JSON text is parsed, run and rendered (the timed unit), then its
report is checked.  Inputs are generated from ``--seed`` before timing.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

- ``scenarios_per_s``: verified scenarios per second of program time;
- ``latency_p50_ms`` and ``latency_tail_ms``: median scenario time and the
  highest percentile with at least ten samples beyond it (the percentile
  and sample count are printed beside it);
- ``peak_rss_mib``: ``ru_maxrss`` of this process, which runs one workload;
- ``setup_s``: ``import qmeasure`` plus the first, untimed scenario, in a
  fresh interpreter, median of several such processes.

The error rate (failed / attempted) is printed beside them.

``--trace 1`` runs untraced for half the time and traced for the other
half, and reports per-layer metrics from spans recorded around the calls
into each module (see ``spans.py``), the traced/untraced throughput ratio,
and the time of ``qmeasure run`` as a subprocess on the shipped scenarios.
Spans and a per-run record are written under ``.bench_out/``.

The launcher pins BLAS and OpenMP threads to one, so the oracle's dense
matrix products measure one core.

``BENCHMARK.json`` lists corrected_z, env_reject and small_scripts.
wide_branches (the per-branch Python path at 2^14 rows) runs the same way
but is left out of that list: on a shared 2-CPU host its median scenario
time moved by up to 0.29 (IQR/median over ten seeds) between slow and
fast phases of the host, more than any bound allows.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402  (the thread pins must precede any numpy import)
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import workloads  # noqa: E402

ROOT = workloads.ROOT
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REQUIRED = (SRC / "qmeasure" / "__init__.py", ROOT / "scenarios", ROOT / "tests" / "golden")
SETUP_PROBES = 5
IMPORT_PROBES = 3


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_qmeasure():
    """Import the package from this checkout's ``src`` and return it."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qmeasure
    import qmeasure.runner
    import qmeasure.scenario

    if Path(qmeasure.__file__).resolve().parent != SRC / "qmeasure":
        raise ImportError(f"qmeasure imported from {qmeasure.__file__}, not from {SRC}")
    return qmeasure


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time ``import qmeasure`` plus the first scenario, print seconds.

    The parent runs and checks the same first scenario as its warm-up.
    """
    w = workloads.WORKLOADS[workload]
    case = w.make_cases(seed, None)[0]
    start = time.perf_counter()
    qm = import_qmeasure()
    workloads.execute(qm, case.text, w.engines)
    print(repr(time.perf_counter() - start))


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Tally:
    """Outcomes of one closed-loop window."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.verified_time = 0.0
        self.verified = 0
        self.failures: list[str] = []
        self.compared = 0
        self.byte_mismatches = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def closed_loop(qm, w, cases, seconds: float, tally: Tally, tracer=None) -> None:
    """Run cases in order, cycling, one at a time, until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        case = cases[i % len(cases)]
        i += 1
        if tracer is not None:
            tracer.scenario = f"{case.name}#{i}"
        start = time.perf_counter()
        outcome = workloads.execute(qm, case.text, w.engines)
        elapsed = time.perf_counter() - start
        tally.latencies.append(elapsed)
        reason = w.check(case, outcome)
        if reason is None:
            tally.verified += 1
            tally.verified_time += elapsed
        else:
            tally.failures.append(f"{case.name}: {reason}")
        mismatch = workloads.byte_mismatch(case, outcome)
        if mismatch is not None:
            tally.compared += 1
            tally.byte_mismatches += mismatch
        # A caught RunError keeps the failing frames, and their arrays, alive
        # in reference cycles until the cyclic collector runs; free them so
        # that every scenario starts from a clean heap, as a fresh
        # ``qmeasure run`` process would, and peak memory covers one scenario.
        del outcome
        gc.collect()
        if time.perf_counter() >= deadline:
            return


def throughput(tally: Tally) -> float:
    return tally.verified / tally.verified_time if tally.verified_time else 0.0


def latency_tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest sample with at least ten samples beyond it."""
    ordered = sorted(latencies)
    k = len(ordered)
    if k <= 10:
        return ordered[-1], 100.0
    return ordered[k - 11], 100.0 * (k - 10) / k


def environment_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                            text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        l3 = ""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l3_bytes": int(l3) if l3.isdigit() else None,
        "machine": platform.machine(),
    }


def cli_probes(tally: Tally) -> tuple[float, float]:
    """Median wall time of ``qmeasure run`` on each shipped file, and of the import."""
    process = []
    for stem in workloads.SHIPPED:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "qmeasure.cli", "run", f"scenarios/{stem}.json"],
            cwd=ROOT, env=_child_env(), capture_output=True, timeout=120,
        )
        process.append(time.perf_counter() - start)
        golden = (ROOT / "tests" / "golden" / f"{stem}.txt").read_bytes()
        tally.latencies.append(process[-1])
        if done.returncode == 0 and done.stdout == golden:
            tally.verified += 1
        else:
            tally.failures.append(f"cli run {stem}: exit {done.returncode}, output differs")
    code = ("import time; t = time.perf_counter(); import qmeasure.cli; "
            "print(repr(time.perf_counter() - t))")
    imports = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        imports.append(float(done.stdout.strip()))
    return median(process), median(imports)


def end_to_end(qm, w, cases, args, warm: Tally):
    """Untraced run: the end-to-end metrics, with set-up timed in fresh processes."""
    setup_times = measure_setup(args.workload, args.seed)
    loop = Tally()
    closed_loop(qm, w, cases, args.seconds, loop)
    tail, pct = latency_tail(loop.latencies)
    metrics = {
        "scenarios_per_s": (throughput(loop), "1/s"),
        "latency_p50_ms": (median(loop.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (median(setup_times), "s"),
    }
    notes = {"latency_tail_ms": f"p{pct:.1f} of {loop.attempted} samples",
             "setup_s": f"median of {len(setup_times)} fresh processes"}
    extra = {"tail_percentile": pct, "setup_samples": setup_times, "latencies_s": loop.latencies}
    return metrics, [warm, loop], notes, extra


def per_layer(qm, w, cases, args, warm: Tally, spans_path: Path):
    """Half the time untraced, half traced: layer metrics and the tracing overhead."""
    import spans

    untraced, traced, cli = Tally(), Tally(), Tally()
    closed_loop(qm, w, cases, args.seconds / 2, untraced)
    tracer = spans.Tracer(qm)
    tracer.install()
    try:
        closed_loop(qm, w, cases, args.seconds / 2, traced, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed})
    process_s, import_s = cli_probes(cli)

    metrics = spans.layer_metrics(tracer.spans, traced.attempted)
    compared = untraced.compared + traced.compared
    mismatches = untraced.byte_mismatches + traced.byte_mismatches
    metrics["oracle.byte_mismatch_share"] = (mismatches / compared if compared else 0.0, "ratio")
    metrics["cli.process_s"] = (process_s, "s")
    metrics["cli.import_s"] = (import_s, "s")
    overhead = throughput(untraced) / throughput(traced) if throughput(traced) else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    notes = {"trace.overhead_ratio":
             f"{untraced.attempted} untraced vs {traced.attempted} traced scenarios"}
    extra = {"layer_shares": spans.layer_shares(tracer.spans),
             "traced_scenarios": traced.attempted}
    return metrics, [warm, untraced, traced, cli], notes, extra


def run_benchmark(args) -> int:
    w = workloads.WORKLOADS[args.workload]
    qm = import_qmeasure()
    cases = w.make_cases(args.seed, None)
    warm = Tally()
    closed_loop(qm, w, cases[:1], 0.0, warm)  # first, untimed scenario
    env = environment_record()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, tallies, notes, extra = per_layer(
            qm, w, cases, args, warm, stem.with_name(stem.name + "-spans.jsonl"))
    else:
        metrics, tallies, notes, extra = end_to_end(qm, w, cases, args, warm)

    attempted = sum(t.attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    compared = sum(t.compared for t in tallies)
    mismatches = sum(t.byte_mismatches for t in tallies)
    metric_values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "cases": len(cases), "metrics": metric_values,
              "attempted": attempted, "failed": len(failures), "failures": failures[:20],
              "byte_mismatches": mismatches, "byte_compared": compared, **extra}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} env={json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<38} {value:>16.6g} {unit:<15} {notes.get(name, '')}".rstrip())
    print(f"{'error_rate':<38} {len(failures) / attempted:>16.6g} {'ratio':<15} "
          f"{len(failures)} of {attempted} scenarios failed")
    if compared:
        print(f"{'engine byte mismatches':<38} {mismatches:>16d} {'count':<15} "
              f"of {compared} gates/oracle report pairs (numerically equal to 1e-10)")
    if args.trace:
        top = ", ".join(f"{k} {v:.0%}" for k, v in list(extra["layer_shares"].items())[:6])
        print(f"# self-time shares: {top}")
    for failure in failures[:5]:
        print(f"# FAILED {failure}", file=sys.stderr)

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metric_values}
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: not a qmeasure source checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run_benchmark(args)


if __name__ == "__main__":
    raise SystemExit(main())
