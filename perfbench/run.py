"""tinyembed benchmark: drives the CLI in-process on a seeded workload.

    python3 perfbench/run.py --workload train_inbatch --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; the program is imported from ``src/`` next
to this directory and nothing is installed. The workload's inputs are made
from ``--seed`` and set up several times; then whole cycles of subcommands run
one after another while they fit in ``--seconds``. Every subcommand's output
is checked, and a failed check counts the operation as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics from the traced
ones, plus the tracing overhead between the two. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record (machine, versions, seed).
"""

import os

# One BLAS thread, set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from tracing import NODE_OPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5

# (name, unit, better) of every per-layer metric --trace 1 reports.
PER_LAYER = [
    ("tokenizer.calls", "count", "lower"),
    ("tokenizer.busy_s", "s", "lower"),
    ("autodiff.backward.calls", "count", "lower"),
    ("autodiff.backward.busy_s", "s", "lower"),
    ("autodiff.nodes_per_step", "count", "lower"),
    *((f"autodiff.nodes.{op}", "count", "lower") for op in NODE_OPS),
    ("model.forward_grad.calls", "count", "lower"),
    ("model.forward_grad.busy_s", "s", "lower"),
    ("model.forward_nograd.calls", "count", "lower"),
    ("model.forward_nograd.busy_s", "s", "lower"),
    ("model.checkpoint_io.busy_s", "s", "lower"),
    ("model.checkpoint_io.bytes", "bytes", "lower"),
    ("training.stage.self_s", "s", "lower"),
    ("training.loss.busy_s", "s", "lower"),
    ("training.distill.busy_s", "s", "lower"),
    ("training.adamw.busy_s", "s", "lower"),
    ("training.step_ms.p50", "ms", "lower"),
    ("training.step_ms.p90", "ms", "lower"),
    ("training.teacher_cache.hit_ratio", "ratio", "higher"),
    ("training.teacher_cache.requests", "count", "lower"),
    ("training.teacher_cache.forwards", "count", "lower"),
    ("training.loss_final", "loss", "lower"),
    ("data.consolidate.busy_s", "s", "lower"),
    ("data.read.busy_s", "s", "lower"),
    ("data.batching.busy_s", "s", "lower"),
    ("data.mine.self_s", "s", "lower"),
    ("pruning.collect_norms.busy_s", "s", "lower"),
    ("pruning.calibration_seqs", "count", "lower"),
    ("pruning.slice.self_s", "s", "lower"),
    ("evaluation.embed.busy_s", "s", "lower"),
    ("evaluation.score.self_s", "s", "lower"),
    ("evaluation.cache.hit_ratio", "ratio", "higher"),
    ("evaluation.unique_texts", "count", "lower"),
    ("evaluation.score_mean", "score", "higher"),
    ("synthetic.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    *((f"cli.{sub}.ref_s", "s", "lower") for sub in ("train", "mine", "prune", "eval", "sweep_mrl")),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.self_residual_s", "s", "lower"),
]

END_TO_END = {"setup_s": "s", "texts_per_s": "1/s", "peak_rss_mb": "MB"}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(-(-q * len(ordered) // 100)) - 1))]


def run_record(workload: str, seed: int) -> dict:
    """Machine, versions and source identity of this run."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    git_rev = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        git_rev = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            git_rev = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src_files),
    }


def _tree_digest(root: Path) -> str:
    """Hash of every file under a set-up directory, paths made relative."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Calls ``cli.main`` in-process, capturing output and timing the call.
    When ``tracer`` is set the call runs with the layer wrappers installed."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None

    def __call__(self, argv: list[str]):
        from workloads import Op

        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
        try:
            span = tracer.span("cli." + argv[0].replace("-", "_")) if tracer is not None else nullcontext()
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err), span:
                try:
                    code = self.cli.main(argv)
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 2
                except Exception:
                    traceback.print_exc()
                    code = -1
            end = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if code != 0:
            print(f"{argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
        return Op(list(argv), code, out.getvalue(), start, end)


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import tinyembed.cli as cli
    from speed import SpeedProbe
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    runner = Runner(cli)
    tracer = Tracer() if trace else None
    setups: list[tuple[float, float]] = []
    digests: list[str] = []
    root = workdir / "setup"

    def set_up():
        """One timed set-up into the same directory; every set-up must write the same files."""
        shutil.rmtree(root, ignore_errors=True)
        runner.tracer = tracer
        with tracer.unit("setup") if tracer else nullcontext():
            if tracer:
                tracer.install()
            start = time.perf_counter()
            ctx = workload.setup(root, seed, runner)
            setups.append((start, time.perf_counter()))
            if tracer:
                tracer.uninstall()
        digests.append(_tree_digest(root))
        return ctx

    cycles: list[tuple[bool, list]] = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            ctx = set_up()
        durations: list[float] = []
        begin = time.perf_counter()
        min_cycles = 2 if trace else 1
        while len(cycles) < min_cycles or time.perf_counter() - begin + statistics.median(durations) <= seconds:
            if cycles and not trace:
                # One more set-up sample per cycle spreads them over the whole run.
                set_up()
            traced = trace and len(cycles) % 2 == 1
            runner.tracer = tracer if traced else None
            start = time.perf_counter()
            with tracer.unit("cycle") if traced else nullcontext():
                ops = workload.cycle(ctx, runner)
            durations.append(time.perf_counter() - start)
            cycles.append((traced, ops))
        runner.tracer = None

    # Every duration below is at the probe's reference speed (see speed.py).
    ref = {id(op): probe.scaled(op.start, op.end) for _, ops in cycles for op in ops}
    setup_s = [probe.scaled(start, end) for start, end in setups]
    for i, (traced, ops) in enumerate(cycles, start=1):
        print(f"cycle {i}{' traced' if traced else ''}: "
              + ", ".join(f"{op.argv[0]} {op.end - op.start:.3f}s wall {ref[id(op)]:.3f}s ref" for op in ops),
              file=sys.stderr)
    print("set-ups (ref s): " + ", ".join(f"{t:.4f}" for t in setup_s), file=sys.stderr)

    problems = [] if len(set(digests)) == 1 else ["set-up: repeated set-ups wrote different files"]
    all_ops = [op for _, ops in cycles for op in ops]
    problems += [p for op in all_ops for p in op.problems]
    failed = sum(op.failed for op in all_ops)
    cycle_s = [(traced, sum(ref[id(op)] for op in ops)) for traced, ops in cycles]

    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "texts_per_s": ctx["texts"] / statistics.median(s for _, s in cycle_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        sub_s = {}
        for traced, ops in cycles:
            if not traced:
                for op in ops:
                    sub_s.setdefault(op.argv[0], []).append(ref[id(op)])
        metrics = layer_metrics(tracer, cycle_s, {k: statistics.median(v) for k, v in sub_s.items()}, ctx)
        residual = tracer.self_time_residual()
        if residual > 1e-6:
            problems.append(f"trace: span self times miss their parents' wall time by {residual:.3g}s")
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"trace-{workload_name}-{seed}.jsonl", "w") as f:
            for name, start, end, parent, unit in tracer.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "unit": unit}) + "\n")
    for p in problems:
        print(p, file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(tracer, cycle_s, sub_s: dict[str, float], ctx) -> dict:
    layers = tracer.layer_totals()
    counts = tracer.count_totals()

    def layer(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    backward_calls = layer("autodiff.backward", "calls")
    untraced = statistics.median(s for traced, s in cycle_s if not traced)
    overhead = statistics.median(s for traced, s in cycle_s if traced) - untraced

    values = {
        "tokenizer.calls": layer("tokenizer", "calls"),
        "tokenizer.busy_s": layer("tokenizer", "busy_s"),
        "autodiff.backward.calls": backward_calls,
        "autodiff.backward.busy_s": layer("autodiff.backward", "busy_s"),
        "autodiff.nodes_per_step": ratio(counts["autodiff.nodes"], backward_calls),
        "model.forward_grad.calls": layer("model.forward_grad", "calls"),
        "model.forward_grad.busy_s": layer("model.forward_grad", "busy_s"),
        "model.forward_nograd.calls": layer("model.forward_nograd", "calls"),
        "model.forward_nograd.busy_s": layer("model.forward_nograd", "busy_s"),
        "model.checkpoint_io.busy_s": layer("model.checkpoint_io", "busy_s"),
        "model.checkpoint_io.bytes": counts["model.checkpoint_io.bytes"],
        "training.stage.self_s": layer("training.stage", "self_s"),
        "training.loss.busy_s": layer("training.loss", "busy_s"),
        "training.distill.busy_s": layer("training.distill", "busy_s"),
        "training.adamw.busy_s": layer("training.adamw", "busy_s"),
        "training.step_ms.p50": _percentile(tracer.step_intervals_ms, 50),
        "training.step_ms.p90": _percentile(tracer.step_intervals_ms, 90),
        "training.teacher_cache.hit_ratio": ratio(
            counts["training.teacher_cache.requests"] - counts["training.teacher_cache.forwards"],
            counts["training.teacher_cache.requests"]),
        "training.teacher_cache.requests": counts["training.teacher_cache.requests"],
        "training.teacher_cache.forwards": counts["training.teacher_cache.forwards"],
        "training.loss_final": ctx.get("loss_final", 0.0),
        "data.consolidate.busy_s": layer("data.consolidate", "busy_s"),
        "data.read.busy_s": layer("data.read", "busy_s"),
        "data.batching.busy_s": layer("data.batching", "busy_s"),
        "data.mine.self_s": layer("data.mine", "self_s"),
        "pruning.collect_norms.busy_s": layer("pruning.collect_norms", "busy_s"),
        "pruning.calibration_seqs": counts["pruning.calibration_seqs"],
        "pruning.slice.self_s": layer("pruning.slice", "self_s"),
        "evaluation.embed.busy_s": layer("evaluation.embed", "busy_s"),
        "evaluation.score.self_s": layer("evaluation.score", "self_s"),
        "evaluation.cache.hit_ratio": ratio(counts["evaluation.cache.hits"], counts["evaluation.cache.requests"]),
        "evaluation.unique_texts": counts["evaluation.unique_texts"],
        "evaluation.score_mean": ctx.get("score", 0.0),
        "synthetic.busy_s": layer("synthetic", "busy_s"),
        "cli.self_s": sum(t["self_s"] for name, t in layers.items() if name.startswith("cli.")),
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": ratio(overhead, untraced),
        "trace.self_residual_s": tracer.self_time_residual(),
    }
    for op in NODE_OPS:
        values[f"autodiff.nodes.{op}"] = ratio(counts[f"autodiff.nodes.{op}"], backward_calls)
    for sub in ("train", "mine", "prune", "eval", "sweep_mrl"):
        values[f"cli.{sub}.ref_s"] = sub_s.get(sub.replace("_", "-"), 0.0)
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tinyembed" / "__init__.py").is_file():
        print(f"error: no tinyembed sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tinyembed

    if Path(tinyembed.__file__).resolve().parent != SRC / "tinyembed":
        print(f"error: imported tinyembed from {tinyembed.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; options: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("run_record " + json.dumps(run_record(args.workload, args.seed), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
