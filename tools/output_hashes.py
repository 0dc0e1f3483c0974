"""Compare the outputs of two checkouts on the benchmark workloads, byte for byte.

    python3 tools/output_hashes.py PARENT CHANGE --seeds 4141 77

For each seed and each workload of CHANGE's ``BENCHMARK.json``, it runs one
set-up and one cycle of the workload in a subprocess per checkout, importing
that checkout's ``src/`` and ``perfbench/`` (BLAS pinned to one thread, as the
benchmark does). Both sides write into the same work path, so the absolute
paths in ``plan.json`` and in the subcommands' output match. It prints every
output file, or subcommand's standard output, whose SHA-256 differs between
the two sides, or that only one side wrote, and every subcommand that failed
its exit code or its benchmark check. It exits 1 if there is any, and 0 when
every output is identical. Nothing under either checkout is changed.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# Runs in the subprocess: argv is CHECKOUT WORKLOAD SEED WORKDIR. Prints one JSON
# line: {"hashes": {output name: sha256}, "failed": [subcommand problems]}.
CHILD = r"""
import hashlib, json, sys
from pathlib import Path

checkout, workload, seed, work = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
from run import Runner  # sets the BLAS thread variables before numpy loads
import tinyembed.cli as cli
from workloads import WORKLOADS

if Path(cli.__file__).resolve().parent != (checkout / "src" / "tinyembed").resolve():
    sys.exit(f"imported tinyembed from {cli.__file__}, not {checkout / 'src'}")
runner, spec = Runner(cli), WORKLOADS[workload]
ops = spec.cycle(spec.setup(work, seed, runner), runner)
sha = lambda data: hashlib.sha256(data).hexdigest()
hashes = {str(p.relative_to(work)): sha(p.read_bytes()) for p in sorted(work.rglob("*")) if p.is_file()}
hashes.update({f"stdout of {op.argv[0]} (op {i})": sha(op.stdout.encode()) for i, op in enumerate(ops)})
failed = [f"{op.argv[0]}: exit {op.code}; " + "; ".join(op.problems) for op in ops if op.failed]
print(json.dumps({"hashes": hashes, "failed": failed}))
"""


def run_side(checkout: Path, workload: str, seed: int, work: Path) -> tuple[dict[str, str], list[str]]:
    """Hashes of one set-up and one cycle of workload in checkout, and its failures."""
    shutil.rmtree(work, ignore_errors=True)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(checkout), workload, str(seed), str(work)],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {}, [f"the run exited {proc.returncode} without a result\n{tail}"]
    result = json.loads(lines[-1])
    return result["hashes"], result["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = [w["name"] for w in json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["workloads"]]
    scratch = Path(tempfile.mkdtemp(prefix="output-hashes-"))
    problems = 0
    try:
        for seed in args.seeds:
            for workload in workloads:
                hashes, lines = {}, []
                for side, checkout in checkouts.items():
                    hashes[side], failed = run_side(checkout, workload, seed, scratch / "work")
                    lines += [f"  {side} failed: {f}" for f in failed]
                for name in sorted(hashes["parent"].keys() | hashes["change"].keys()):
                    parent, change = hashes["parent"].get(name), hashes["change"].get(name)
                    if parent != change:
                        lines.append(f"  differs: {name} (parent {(parent or 'missing')[:12]}, "
                                     f"change {(change or 'missing')[:12]})")
                status = "identical" if not lines else f"{len(lines)} problem(s)"
                print(f"seed {seed} {workload}: {len(hashes['change'])} outputs, {status}")
                for line in lines:
                    print(line)
                problems += len(lines)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
