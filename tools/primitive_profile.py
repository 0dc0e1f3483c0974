"""Per-primitive profile of one benchmark workload: calls, forward ms and vjp ms
of every autodiff primitive, and the total time of `backward`.

    python3 tools/primitive_profile.py --workload train_inbatch --seed 4321 --cycles 4

Run it from the root of a checkout: it imports the program from ``src/`` and the
workloads from ``perfbench/``, sets the workload up once, runs one untimed
warm-up cycle, then profiles ``--cycles`` whole cycles in-process with one BLAS
thread. The primitives, ``autodiff._make`` (which wraps each recorded vjp) and
``autodiff.backward`` are wrapped from outside by replacing module attributes,
so nothing under ``src/`` changes. Times are wall-clock milliseconds per cycle;
a primitive's forward time includes its ``_make`` and finite check.
``raw_embeddings`` runs its chunks on two threads, so the primitives' summed time
can exceed the cycle's wall time; the last lines give each cycle's wall and
process CPU milliseconds (user plus system), and the process's minor page
faults and system CPU milliseconds per cycle (``resource.getrusage``), where
allocator churn shows.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import resource
import shutil
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tinyembed.autodiff as ad  # noqa: E402
import tinyembed.cli as cli  # noqa: E402
from run import Runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Profile:
    """Installs the wrappers; `on` gates recording so set-up and warm-up are not
    counted. Updates hold a lock: primitives run on several threads at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.calls = defaultdict(int)
        self.forward_s = defaultdict(float)
        self.vjp_s = defaultdict(float)
        self.backward_s = 0.0
        self.backward_calls = 0
        self.on = False

    def install(self):
        for name in ad.primitive_set():
            setattr(ad, name, self._timed_primitive(name, getattr(ad, name)))
        make, backward = ad._make, ad.backward

        def timed_make(op, values, parents, vjp):
            def timed_vjp(g):
                start = time.perf_counter()
                try:
                    return vjp(g)
                finally:
                    if self.on:
                        elapsed = time.perf_counter() - start
                        with self.lock:
                            self.vjp_s[op] += elapsed

            return make(op, values, parents, timed_vjp)

        def timed_backward(loss):
            start = time.perf_counter()
            try:
                return backward(loss)
            finally:
                if self.on:
                    self.backward_s += time.perf_counter() - start
                    self.backward_calls += 1

        ad._make, ad.backward = timed_make, timed_backward

    def _timed_primitive(self, name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.on:
                    elapsed = time.perf_counter() - start
                    with self.lock:
                        self.calls[name] += 1
                        self.forward_s[name] += elapsed

        return wrapper

    def report(self, cycles: int) -> str:
        per = 1000.0 / cycles
        names = sorted(self.calls, key=lambda n: -(self.forward_s[n] + self.vjp_s[n]))
        lines = [f"{'primitive':<20}{'calls':>10}{'forward ms':>12}{'vjp ms':>10}"]
        for n in names:
            lines.append(f"{n:<20}{self.calls[n] / cycles:>10.0f}{self.forward_s[n] * per:>12.2f}{self.vjp_s[n] * per:>10.2f}")
        total_fwd, total_vjp = sum(self.forward_s.values()) * per, sum(self.vjp_s.values()) * per
        lines.append(f"{'all primitives':<20}{sum(self.calls.values()) / cycles:>10.0f}{total_fwd:>12.2f}{total_vjp:>10.2f}")
        lines.append(f"backward: {self.backward_calls / cycles:.0f} calls, {self.backward_s * per:.2f} ms "
                     f"({self.backward_s * per - total_vjp:.2f} ms outside the vjps); per cycle over {cycles} cycles")
        return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, default=4)
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error("--cycles must be at least 1")
    workload, runner, profile = WORKLOADS[args.workload], Runner(cli), Profile()
    profile.install()
    workdir = Path(tempfile.mkdtemp(prefix="primitive-profile-"))
    faults, system_s, cycle_ms = 0, 0.0, []
    try:
        ctx = workload.setup(workdir / "setup", args.seed, runner)
        for cycle in range(args.cycles + 1):
            profile.on = cycle > 0
            before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            ops = workload.cycle(ctx, runner)
            wall_s, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
            if profile.on:
                faults += after.ru_minflt - before.ru_minflt
                system_s += after.ru_stime - before.ru_stime
                cpu_s = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
                cycle_ms.append(f"{wall_s * 1000:.1f} wall / {cpu_s * 1000:.1f} CPU")
            failed = [op.argv[0] for op in ops if op.failed]
            if failed:
                print(f"error: cycle {cycle} failed in {', '.join(failed)}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(profile.report(args.cycles))
    print("cycles (ms): " + ", ".join(cycle_ms))
    print(f"process: {faults / args.cycles:.0f} minor page faults, {system_s * 1000 / args.cycles:.1f} ms system CPU per cycle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
