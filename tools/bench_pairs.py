"""Alternating benchmark pairs of two checkouts: a parent and a change.

    python3 tools/bench_pairs.py PARENT CHANGE --workload infer_pipeline --seed 5151 \
        --seconds 40 --pairs 10 --record BENCH_infer.json --what "what the change does"

Runs ``perfbench/run.py --trace 0`` in each checkout, one after the other, the
parent first in odd pairs and the change first in even pairs, so a drift in the
machine's speed falls on both sides alike. Run nothing else meanwhile. Per
end-to-end metric of ``BENCHMARK.json`` it prints both medians, the change
against the parent, the pairs in which the change was better, and the parent's
interquartile range (inclusive quartiles). The summary and every run's metrics
are appended as one entry to the list in ``--record``, a ``BENCH_*.json`` file
at the root of the checkout this tool lives in, written in the file's own
indent. A run that exits non-zero or prints no result stops the tool before
anything is recorded. Nothing under ``perfbench/`` is changed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its run record and its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("run_record "):
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode} without a result\n{tail}")
    return {"record": json.loads(lines[-2][len("run_record "):]), "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: medians, quartiles, every run, and the pairs the change won."""
    out = {}
    for name, direction in better.items():
        values = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        medians = {side: statistics.median(values[side]) for side in SIDES}
        out[name] = {
            "better": direction,
            "parent_median": round(medians["parent"], 5),
            "change_median": round(medians["change"], 5),
            "change_vs_parent": f"{(medians['change'] / medians['parent'] - 1) * 100:+.1f}%",
            "parent_iqr": [round(v, 5) for v in quartiles(values["parent"])],
            "change_iqr": [round(v, 5) for v in quartiles(values["change"])],
            "change_better_pairs": f"{wins}/{len(values['parent'])}",
            "parent_runs": [round(v, 5) for v in values["parent"]],
            "change_runs": [round(v, 5) for v in values["change"]],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--record", required=True, help="BENCH_*.json file at the repository root")
    parser.add_argument("--what", default="", help="what the change does, stored with the runs")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs a side)")
    if not (args.record.startswith("BENCH_") and args.record.endswith(".json") and "/" not in args.record):
        parser.error("--record must name a root BENCH_*.json file")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            try:
                run = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            except RuntimeError as e:
                print(f"error: pair {pair}, {side}: {e}", file=sys.stderr)
                return 1
            runs[side].append(run)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in run["result"]["metrics"].items())
            print(f"pair {pair} {side}: correct={run['result']['correct']} {values}", flush=True)

    metrics = summarize(runs, better)
    records = {side: runs[side][0]["record"] for side in SIDES}
    entry = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": "alternating parent/change runs, parent first in odd pairs, change first in even pairs",
        "machine": {k: records["change"][k] for k in ("nproc", "python", "numpy", "blas", "blas_threads")},
        "git_rev": {side: records[side]["git_rev"] for side in SIDES},
        "src_lines": {side: records[side]["src_lines"] for side in SIDES},
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "pair_count": args.pairs,
        "correct": all(r["result"]["correct"] for side in SIDES for r in runs[side]),
        "failed_ops": [sum(r["result"]["failed"] for r in runs[side]) for side in SIDES],
        "attempted_ops": [sum(r["result"]["attempted"] for r in runs[side]) for side in SIDES],
        "metrics": metrics,
    }
    path = ROOT / args.record
    text = path.read_text() if path.is_file() else "[]"
    history = json.loads(text)
    history.append(entry)
    # Keep the file's own indent (its second line's), so a diff shows only the new entry.
    lines = text.splitlines()
    indent = len(lines[1]) - len(lines[1].lstrip()) if len(lines) > 1 else 1
    path.write_text(json.dumps(history, indent=indent) + "\n")

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s; "
          f"correct={entry['correct']} failed ops parent/change {entry['failed_ops']}")
    print(f"{'metric':<14}{'parent':>12}{'change':>12}{'change':>9}{'better':>8}  parent IQR")
    for name, m in metrics.items():
        lo, hi = m["parent_iqr"]
        print(f"{name:<14}{m['parent_median']:>12.5g}{m['change_median']:>12.5g}{m['change_vs_parent']:>9}"
              f"{m['change_better_pairs']:>8}  {lo:.5g}-{hi:.5g} ({hi - lo:.3g})")
    print(f"appended to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
