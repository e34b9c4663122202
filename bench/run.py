"""End-to-end and per-layer benchmark of tikm.

    python3 bench/run.py --workload qip-map-L4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the benchmark imports the checkout's own
``src/tikm`` and ``tests/oracles.py``.  With ``--trace 0`` it runs whole
rounds of the workload's requests, closed loop in this one process, until
starting another round would pass ``--seconds`` (at least one round), then
checks every output and prints the end-to-end metrics.  With ``--trace 1`` it
runs a fixed number of rounds, each request twice: plain and with every
public function of the package wrapped (see ``tracer.py``), and prints per-layer
metrics per request and the tracing overhead; the spans go to
``bench/out/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("qip-map-L4", "critical-L8", "simulate-L10")
#: setup_s is the median of this many set-ups: this process and fresh ones.
SETUPS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_tikm():
    """Import the checkout's tikm, refusing to fall back on any other copy."""
    src = ROOT / "src"
    if not (src / "tikm" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        raise SystemExit(f"bench: {ROOT} holds no src/tikm and tests/oracles.py; run from a tikm checkout")
    sys.path.insert(0, str(src))
    import tikm
    import tikm.cli

    if Path(tikm.__file__).resolve().parent != (src / "tikm").resolve():
        raise SystemExit(f"bench: imported tikm from {tikm.__file__}, not from {src}")
    return tikm


def warm_up(tikm) -> None:
    """One small request of each kind, so lazy imports and first-call costs land in set-up."""
    from workloads import call_cli

    tikm.kondo_sim.sweep(tikm.kondo_sim.ChainModel(sites=4, jk=1.0), "idirect", [0.0, 1.0])
    for argv in (
        ["simulate", "--sites", "6", "--jk", "1", "--format", "json"],
        ["critical", "--sites", "4", "--param", "jk", "--min", "0.5", "--max", "6", "--tol", "0.01", "--format", "json"],
    ):
        result = call_cli(tikm.cli, argv)
        if result.code != 0:
            raise SystemExit(f"bench: warm-up {' '.join(argv)} exited {result.code}: {result.err.strip()}")


def setup_probe(args) -> float:
    """Set-up time of a fresh process of this script."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, rng, seconds: float):
    """Whole rounds, closed loop, until the next round would end past ``seconds``."""
    done, latencies, round_times = [], [], []
    control_s = 0.0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for request in workload.round(rng, len(round_times)):
            t = time.perf_counter()
            output = request.run()
            dt = time.perf_counter() - t
            ok = request.ok(output)
            done.append((request, output, ok))
            if not request.timed:
                control_s += dt
            elif ok:
                latencies.append(dt)
        now = time.perf_counter()
        round_times.append(now - round_start)
        if now - start + statistics.median(round_times) > seconds:
            break
    wall = time.perf_counter() - start - control_s
    return done, latencies, wall, peak_rss_mb()


def traced_run(tikm, workload, rng, out_path: Path):
    """Fixed rounds, each request run plain and traced; returns outputs, layer metrics and problems.

    The two copies of a request run back to back, plain first on even
    requests and traced first on odd ones, so that neither a slow spell of
    the machine nor the second copy's warmer caches land on one side of the
    overhead comparison only.
    """
    from tracer import Tracer

    requests = [r for k in range(workload.trace_rounds) for r in workload.round(rng, k)]
    tracer = Tracer()
    outputs = {False: [], True: []}
    seconds = {False: 0.0, True: 0.0}
    for k, request in enumerate(requests):
        for traced in (k % 2 == 1, k % 2 == 0):
            if traced and request.timed:
                tracer.install(tikm)
            with tracer:
                t = time.perf_counter()
                outputs[traced].append(request.run())
                seconds[traced] += (time.perf_counter() - t) * request.timed
    plain, traced = outputs[False], outputs[True]
    metrics = tracer.layer_metrics(sum(r.timed for r in requests))
    metrics["trace.overhead_pct"] = 100.0 * (seconds[True] - seconds[False]) / seconds[False]
    problems = [f"{r.label}: tracing changed the output" for r, a, b in zip(requests, plain, traced) if not r.same(a, b)]
    OUT.mkdir(exist_ok=True)
    out_path.write_text("\n".join(json.dumps(rec) for rec in tracer.records()) + "\n", encoding="utf-8")
    plain_done = [(r, o, r.ok(o)) for r, o in zip(requests, plain)]
    traced_done = [(r, o, r.ok(o)) for r, o in zip(requests, traced)]
    return plain_done + traced_done, metrics, problems + check_outputs(traced_done)


def check_outputs(done) -> list[str]:
    """Problems with the outputs of the operations that completed."""
    return [f"{r.label}: {p}" for r, output, ok in done if ok for p in r.check(output)]


def main(argv=None) -> int:
    args = parse_args(argv)
    # the sweep keeps its library defaults, whatever the caller's environment
    os.environ.pop("KE_THREADS", None)
    tikm = import_tikm()
    warm_up(tikm)
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import numpy as np

    import reference
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](tikm, reference.load_oracles(ROOT))
    blas = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    print(f"bench: {args.workload} seed {args.seed}: sweep pool {os.cpu_count()} workers, BLAS env {blas or 'unset'}", file=sys.stderr)
    rng = np.random.default_rng(args.seed)
    if args.trace:
        out_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        done, layer, problems = traced_run(tikm, workload, rng, out_path)
        metrics = {
            name: {"value": value, "unit": "%" if name.endswith("_pct") else "s/req" if name.endswith("_s") else "count/req"}
            for name, value in layer.items()
        }
    else:
        done, latencies, wall, rss = timed_run(workload, rng, args.seconds)
        problems = check_outputs(done) if latencies else ["no request completed"]
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUPS - 1)]
        print(f"bench: set-ups {' '.join(f'{t:.4f}' for t in setups)} s, this process first", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "requests_per_s": {"value": len(latencies) / wall, "unit": "1/s"},
            "latency_p50_ms": {"value": 1000.0 * statistics.median(latencies or [float("nan")]), "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    failed = [r.label for r, _, ok in done if not ok]
    for line in problems:
        print(f"bench: WRONG {line}", file=sys.stderr)
    for label in sorted(set(failed)):
        print(f"bench: FAILED {label}", file=sys.stderr)
    result = {"correct": not problems, "attempted": len(done), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
