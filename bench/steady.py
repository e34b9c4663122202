"""Steadiness of the end-to-end metrics on unchanged code.

    python3 bench/steady.py --runs 10 --out bench/out/steady-a.json
    python3 bench/steady.py --runs 10 --first-seed 101 --compare bench/out/steady-a.json

Runs ``bench/run.py`` ``--runs`` times on every workload of
``BENCHMARK.json``, each run with its own seed and ``run_seconds`` long,
cycling through the workloads so that a slow spell of the machine is shared
among them; the stderr of each run is passed through.  For every metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median, next to
the metric's bound in ``BENCHMARK.json``; a spread below a third of the bound
is marked steady.  It also prints each workload's share of failed operations.
With ``--compare`` it prints how far each median moved in the worse direction
since an earlier set, against the same bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    print(done.stderr, end="", file=sys.stderr)
    if done.returncode != 0:
        raise SystemExit(f"steady: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", type=Path, help="write the runs and summary here as JSON")
    p.add_argument("--compare", type=Path, help="an earlier --out file to compare medians with")
    args = p.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for k in range(args.runs):
        for name in names:
            result = run_once(name, args.first_seed + k, spec["run_seconds"])
            runs[name].append(result)
            print(f"{name} seed {args.first_seed + k}: {json.dumps(result)}", file=sys.stderr, flush=True)

    earlier = json.loads(args.compare.read_text(encoding="utf-8"))["summary"] if args.compare else {}
    summary: dict[str, dict] = {}
    for name in names:
        results = runs[name]
        if not all(r["correct"] for r in results):
            print(f"{name}: a run reported wrong output")
        share_set = sorted({f"{r['failed'] / r['attempted']:.12g}" for r in results})
        print(f"{name}: failed share {' '.join(share_set)} over {len(results)} runs")
        summary[name] = {"failed_shares": share_set}
        for metric, m in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in results])
            summary[name][metric] = s
            mark = "steady" if s["spread"] < m["bound"] / 3 else ("within bound" if s["spread"] <= m["bound"] else "TOO WIDE")
            line = (
                f"  {metric:15s} median {s['median']:.6g} {m['unit']:4s} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                f"spread {s['spread']:.3f} bound {m['bound']} {mark}"
            )
            if name in earlier:
                before = earlier[name][metric]["median"]
                worse = (s["median"] - before) / before * (1 if m["better"] == "lower" else -1)
                line += f" | vs earlier median {before:.6g}: worse by {worse:+.3f}"
                line += " ok" if worse <= m["bound"] else " REGRESSED"
            print(line)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
