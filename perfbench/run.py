"""The rigid3d benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload calib_solve --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and prints each one's lines in turn.

Run from the root of a checkout; the library is imported from its ``src``.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced phase. Lines before it summarise the run for a reader, and
a full report (plus, when traced, the spans) is written to .perfbench_run/.
Every op is checked against an oracle outside the timed region. The
timed ops are all expected to pass; inputs on which the library is known
to fail are run once per run, before the timed loop, and reported apart.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
WORKLOADS = ("calib_solve", "pose_stream", "cli_files")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
MIN_OPS = 100  # so that ten ops lie beyond p90
MAX_SPANS = 1_000_000  # a traced phase ends at the first pool cycle past this many spans


@dataclass
class Phase:
    """Outcome of one timed loop over a workload's op pool."""

    round_len: int
    lat_ns: array = field(default_factory=lambda: array("q"))
    failed: list = field(default_factory=list)  # (pool index, reason)

    @property
    def ops(self) -> int:
        return len(self.lat_ns)

    def ops_per_s(self) -> tuple[float, int]:
        """Median over complete rounds of ops / busy time, and the round count."""
        import numpy as np

        n = self.ops // self.round_len
        per_round = np.frombuffer(self.lat_ns, dtype=np.int64)[: n * self.round_len].reshape(n, self.round_len)
        return float(np.median(self.round_len * 1e9 / per_round.sum(axis=1))), n

    def percentile_ms(self, q: float) -> float:
        import numpy as np

        return float(np.percentile(np.frombuffer(self.lat_ns, dtype=np.int64), q)) / 1e6


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def wall_ms(cmd: list, env: dict) -> float:
    # No timeout: with one, subprocess polls the child with sleeps of up to 50 ms.
    t0 = time.perf_counter_ns()
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    return (time.perf_counter_ns() - t0) / 1e6


def median_wall_ms(cmd: list, env: dict) -> tuple[float, int]:
    """Median over SETUP_REPEATS fresh interpreters, after one unmeasured run."""
    import statistics

    wall_ms(cmd, env)
    return statistics.median(wall_ms(cmd, env) for _ in range(SETUP_REPEATS)), SETUP_REPEATS


def build(name: str, seed: int, workdir: Path, env: dict):
    if name == "calib_solve":
        from calib_solve import CalibSolve

        return CalibSolve(seed)
    if name == "pose_stream":
        from pose_stream import PoseStream

        return PoseStream(seed)
    from cli_files import CliFiles

    return CliFiles(seed, workdir, env)


def measure(wl, seconds: float, tracer=None, stop_every: int | None = None, min_ops: int = 0, enough=lambda: False) -> Phase:
    """Closed loop, one op at a time, from pool index 0 until the time is up.

    Stops only at a multiple of ``stop_every`` ops (a round by default),
    after at least ``min_ops`` ops, once the time is up or ``enough()``.
    Only the op itself is timed.
    """
    stop_every = stop_every or wl.round_len
    phase = Phase(wl.round_len)
    deadline = time.perf_counter() + seconds
    clock = time.perf_counter_ns
    k = 0
    while k == 0 or k % stop_every or k < min_ops or (time.perf_counter() < deadline and not enough()):
        i = k % wl.pool_len
        if tracer is not None:
            tracer.op = k
        t0 = clock()
        out = wl.run_op(i)
        phase.lat_ns.append(clock() - t0)
        reason = wl.check(i, out)
        if reason:
            phase.failed.append((i, reason))
        k += 1
    return phase


def warm_up(wl) -> None:
    """One unmeasured round, so lazy set-up and first-call costs are paid."""
    for i in range(wl.round_len):
        wl.check(i, wl.run_op(i))


def end_to_end(wl, phase: Phase, setup_ms: float, setup_n: int, is_cli: bool) -> dict:
    ops_per_s, rounds = phase.ops_per_s()
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_ms / 1e3, "s", setup_n),
        "ops_per_s": (ops_per_s, "1/s", rounds),
        "latency_p50_ms": (phase.percentile_ms(50), "ms", phase.ops),
        "latency_p90_ms": (phase.percentile_ms(90), "ms", phase.ops),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB", 1),
    }


def traced(wl, seconds: float, env: dict, is_cli: bool, spans_path: Path) -> tuple[dict, list]:
    """Untraced then traced phase; per-layer metrics and both phases."""
    import tracing

    base = measure(wl, seconds / 2)
    tracer = tracing.Tracer()
    if is_cli:
        def enough():
            return sum(len(s.name) for s in wl.child_spans) >= MAX_SPANS

        wl.tracer = tracer
        try:
            phase = measure(wl, seconds / 2, tracer, stop_every=wl.pool_len, enough=enough)
        finally:
            wl.tracer = None
        spans = tracing.Spans.concat(wl.child_spans)
    else:
        with tracer:
            phase = measure(wl, seconds / 2, tracer, stop_every=wl.pool_len, enough=lambda: len(tracer) >= MAX_SPANS)
        spans = tracer.spans()
    spans.save(spans_path)
    busy_ns = float(sum(phase.lat_ns))
    metrics = tracing.layer_metrics(spans, phase.ops, busy_ns)
    cli = {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.parse_ms": 0.0, "cli.solve_ms": 0.0, "cli.serialize_ms": 0.0}
    if is_cli:
        cli["cli.interpreter_ms"] = median_wall_ms([sys.executable, "-c", "pass"], env)[0]
        cli.update(wl.layer_extras())
    metrics.update(cli)
    metrics["trace.overhead_ratio"] = phase.ops_per_s()[0] / base.ops_per_s()[0]
    return {n: (v, _layer_unit(n), phase.ops) for n, v in metrics.items()}, [base, phase]


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    return "ratio" if name.endswith((".share", "_ratio")) else "ms"


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":  # each workload in its own process, one after another
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode for w in WORKLOADS]
        return max(codes)

    # One BLAS thread (at most nproc) here and in every child; NumPy is not loaded yet.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (SRC / "rigid3d" / "__init__.py").is_file():
        print(f"error: no rigid3d sources under {SRC}; run from the root of a rigid3d checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    is_cli = args.workload == "cli_files"
    entry = "rigid3d.cli" if is_cli else "rigid3d"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if not args.trace:
            setup_ms, setup_n = median_wall_ms([sys.executable, "-c", f"import {entry}"], env)
        wl = build(args.workload, args.seed, workdir, env)
        warm_up(wl)
        defects = wl.known_defects()
        if args.trace:
            metrics, phases = traced(wl, args.seconds, env, is_cli, OUT / f"{args.workload}-spans.npz")
        else:
            phase = measure(wl, args.seconds, min_ops=MIN_OPS)
            metrics, phases = end_to_end(wl, phase, setup_ms, setup_n, is_cli), [phase]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.ops for p in phases)
    failures = [f for p in phases for f in p.failed]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": sorted({f"pool[{i}]: {r}" for i, r in failures}),
        "known_defects": defects,
        "metrics": {n: {"value": v, "unit": u, "samples": s} for n, (v, u, s) in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")

    env_line = ", ".join(f"{k} {v}" for k, v in report["environment"].items())
    print(f"environment: {env_line}")
    print(f"{args.workload} seed {args.seed}: {attempted} ops attempted, {len(failures)} failed")
    print(f"failed_ratio {report['failed_ratio']:.6g} ratio (n={attempted})")
    for reason in report["failures"]:
        print(f"FAILED {reason}")
    for name, reason in defects.items():
        print(f"known defect {name}: " + (f"still present ({reason})" if reason else "fixed, the input now passes"))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={samples})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
