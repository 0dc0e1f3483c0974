"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Every workload runs at minimal length, untraced and traced, on a held-out
   seed, and must emit exactly the metrics BENCHMARK.json names, with their
   units, with no failed operation.
2. Every output check must fire on a deliberately corrupted output and stay
   quiet on the real one.
3. A directory holding only BENCHMARK.json and the benchmark's files (no
   sources) must make the benchmark exit non-zero without a result.

Exits 0 when everything holds; prints one line per failure otherwise.
"""

import run  # noqa: F401  (pins BLAS threads before numpy loads)

import csv
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# Not used while the benchmark was written or tuned; re-check later claims on it.
HELD_OUT_SEED = 90001
RUN_TIMEOUT_S = 300


def _bench_run(root: Path, workload: str, seed: int, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_emitted_metrics(spec: dict) -> list[str]:
    from workloads import WORKLOADS

    failures = []
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {names} != benchmark workloads {list(WORKLOADS)}")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if expected[0] != run.END_TO_END:
        failures.append("BENCHMARK.json end_to_end metrics differ from run.END_TO_END")
    if expected[1] != {name: unit for name, unit, _ in run.PER_LAYER}:
        failures.append("BENCHMARK.json per_layer metrics differ from run.PER_LAYER")
    for workload in names:
        for trace in (0, 1):
            code, lines = _bench_run(run.ROOT, workload, HELD_OUT_SEED, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                failures.append(f"{where}: exited {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                                f"failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{where}: metrics {sorted(set(got) ^ set(expected[trace]))} differ from spec")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                failures.append(f"{where}: an end-to-end metric is not positive: {result['metrics']}")
    return failures


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    rows = edit(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def _rewrite_jsonl(path: Path, edit) -> None:
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def check_checks_fire(work: Path) -> list[str]:
    """Run one real cycle of each kind, then corrupt copies of its outputs."""
    import numpy as np

    import checks
    import tinyembed.cli as cli
    from workloads import SWEEP_DIMS, WORKLOADS

    runner = run.Runner(cli)
    failures = []

    def expect(label: str, problems: list[str], should_fire: bool) -> None:
        if bool(problems) != should_fire:
            failures.append(f"{label}: check {'did not fire' if should_fire else 'fired'}: {problems}")

    def op_problems(ops) -> list[str]:
        return [f"{op.argv[0]} exited {op.code}" for op in ops if op.code] + [p for op in ops for p in op.problems]

    train = WORKLOADS["train_inbatch"]
    ctx = train.setup(work / "train", HELD_OUT_SEED, runner)
    expect("train (real)", op_problems(train.cycle(ctx, runner)), False)
    out = ctx["root"] / "run"

    def corrupt_train(label: str, mutate) -> None:
        bad = work / "bad-train"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        mutate(bad)
        expect(label, checks.check_train(bad, ctx["steps"], ctx["hidden"]), True)

    corrupt_train("train: NaN loss", lambda d: _rewrite_csv(
        d / "metrics.csv", lambda rows: rows[:3] + [[rows[3][0], "nan"] + rows[3][2:]] + rows[4:]))
    corrupt_train("train: missing step", lambda d: _rewrite_csv(d / "metrics.csv", lambda rows: rows[:-1]))
    corrupt_train("train: truncated weights", lambda d: (d / "checkpoint" / "weights.bin").write_bytes(
        (d / "checkpoint" / "weights.bin").read_bytes()[:-4]))

    infer = WORKLOADS["infer_pipeline"]
    ctx = infer.setup(work / "infer", HELD_OUT_SEED, runner)
    ops = infer.cycle(ctx, runner)
    expect("mine, prune, eval, sweep-mrl (real)", op_problems(ops), False)
    root = ctx["root"]
    canonical = root / "data" / "canonical.jsonl"

    def corrupt(label: str, src: Path, mutate, check) -> None:
        bad = work / ("bad-" + src.name)
        if src.is_dir():
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(src, bad)
        else:
            shutil.copyfile(src, bad)
        mutate(bad)
        expect(label, check(bad), True)

    def own_positive(records):
        records[5]["negatives"][2] = records[5]["positive"]

    corrupt("mine: own positive", root / "mined.jsonl", lambda p: _rewrite_jsonl(p, own_positive),
            lambda p: checks.check_mine(canonical, p, infer.k))
    corrupt("mine: k-1 negatives", root / "mined.jsonl",
            lambda p: _rewrite_jsonl(p, lambda rs: rs[0]["negatives"].pop()),
            lambda p: checks.check_mine(canonical, p, infer.k))

    def nudge_weight(d: Path) -> None:
        weights = d / "checkpoint" / "weights.bin"
        values = np.frombuffer(weights.read_bytes(), dtype="<f4").copy()
        values[len(values) // 2] += 1e-3
        weights.write_bytes(values.tobytes())

    corrupt("prune: one weight nudged", root / "pruned", nudge_weight,
            lambda d: checks.check_prune(root / "teacher", d, canonical))

    stdout = next(op.stdout for op in ops if op.argv[0] == "eval")
    corrupt("eval: score out of range", root / "scores.csv",
            lambda p: _rewrite_csv(p, lambda rows: rows[:1] + [rows[1][:2] + ["1.5"]] + rows[2:]),
            lambda p: checks.check_eval(stdout, p, ctx["tasks"])[0])
    corrupt("eval: printed mean disagrees", root / "scores.csv",
            lambda p: _rewrite_csv(p, lambda rows: rows[:1] + [rows[1][:2] + [str(float(rows[1][2]) * 0.5)]]
                                   + rows[2:]),
            lambda p: checks.check_eval(stdout, p, ctx["tasks"])[0])
    corrupt("sweep-mrl: missing dim", root / "sweep.csv", lambda p: _rewrite_csv(p, lambda rows: rows[:-1]),
            lambda p: checks.check_sweep(p, SWEEP_DIMS))
    corrupt("sweep-mrl: NaN score", root / "sweep.csv",
            lambda p: _rewrite_csv(p, lambda rows: rows[:2] + [[rows[2][0], "nan"]] + rows[3:]),
            lambda p: checks.check_sweep(p, SWEEP_DIMS))
    return failures


def check_fails_without_sources(work: Path) -> list[str]:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = _bench_run(bare, "train_inbatch", HELD_OUT_SEED, 0)
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"bare directory: exited {code} with output {lines[-1:]}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK))
    sys.path.insert(0, str(run.SRC))
    try:
        failures = check_fails_without_sources(work)
        failures += check_checks_fire(work)
        failures += check_emitted_metrics(spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print("FAIL", f)
    print(f"self-check: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
