"""Memory profile of one benchmark workload, traced with ``tracemalloc``.

    python3 tools/memory_profile.py --workload train_distill --seed 91

Run it from the root of a checkout: it imports the program from ``src/`` and the
workloads from ``perfbench/``, sets the workload up once, runs one untraced
warm-up cycle, then traces one cycle with one BLAS thread. It prints:

- per train step, the traced peak MB before ``backward`` (from the previous
  step's ``backward``, or the subcommand's start, through this step's forward
  and loss), the MB of arrays the graph's vjp closures hold when ``backward``
  starts (distinct buffers, leaf values such as parameters left out), the
  traced MB live then, the peak MB inside ``backward`` and the MB live after it;
- the five vjp calls with the largest transients (peak inside the call over
  the MB live when it started);
- each subcommand's peak MB;
- the process's peak resident set (``ru_maxrss``), which covers set-up and the
  untraced warm-up too.

``autodiff.backward``, ``autodiff._make`` (which wraps each recorded vjp) and
the subcommand runner are wrapped from outside, so nothing under ``src/``
changes. ``tracemalloc`` counts numpy's array buffers and Python objects, not
the allocator's free lists or BLAS's own buffers, so its figures sit below the
resident set. Tracing slows the cycle several-fold.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import resource
import shutil
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import tinyembed.autodiff as ad  # noqa: E402
import tinyembed.cli as cli  # noqa: E402
from run import Runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MB = 1e6


def _buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def closure_bytes(nodes) -> int:
    """Bytes of the distinct array buffers that the nodes' vjp closures hold,
    through nested closures, tuples and lists, leaving out the leaves' values."""
    leaves = [n.tensor() for n in nodes if n.tensor is not None]
    seen = {id(_buffer(t.values)) for t in leaves if t is not None}
    stack, total = [n.vjp for n in nodes if n.vjp is not None], 0
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            obj = _buffer(obj)
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell not yet filled
                    pass
    return total


class MemoryProfile:
    """Peaks over nested windows (a subcommand, a backward, a vjp) from one
    tracemalloc peak counter: each window opens and closes by folding the peak
    so far into every open window and restarting the counter."""

    def __init__(self):
        self.on = False
        self._open: list[list[int]] = []
        # peak before backward, vjp closures' bytes, live at backward, peak in it, live after
        self.steps: list[tuple[int, int, int, int, int]] = []
        self.vjps: list[tuple[int, str, tuple, int, int]] = []  # transient, op, output shape, step, peak
        self.commands: list[tuple[str, int]] = []

    def _fold(self):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for window in self._open:
            window[0] = max(window[0], peak)

    @contextmanager
    def window(self):
        """Yields [peak], filled in on exit, and the traced bytes live on entry."""
        self._fold()
        peak = [0]
        self._open.append(peak)
        try:
            yield peak, tracemalloc.get_traced_memory()[0]
        finally:
            self._fold()
            self._open.pop()  # windows nest

    def install(self, runner: Runner):
        make, backward = ad._make, ad.backward

        def traced_make(op, values, parents, vjp):
            shape = values.shape

            def traced_vjp(g):
                if not self.on:
                    return vjp(g)
                with self.window() as (peak, live):
                    result = vjp(g)
                self.vjps.append((peak[0] - live, op, shape, len(self.steps) + 1, peak[0]))
                return result

            return make(op, values, parents, traced_vjp)

        def traced_backward(loss):
            if not self.on:
                return backward(loss)
            before = tracemalloc.get_traced_memory()[1]  # since the last window opened or closed
            held = closure_bytes(ad.trace(loss).nodes)
            with self.window() as (peak, live):
                graph = backward(loss)
            self.steps.append((before, held, live, peak[0], tracemalloc.get_traced_memory()[0]))
            return graph

        def traced_run(argv):
            if not self.on:
                return runner(argv)
            with self.window() as (peak, _):
                op = runner(argv)
            self.commands.append((argv[0], peak[0]))
            return op

        ad._make, ad.backward = traced_make, traced_backward
        return traced_run

    def report(self) -> str:
        lines = []
        if self.steps:
            lines.append(f"{'step':>4}{'peak before backward MB':>25}{'vjp closures MB':>17}{'live at backward MB':>21}"
                         f"{'peak in backward MB':>21}{'live after MB':>15}  peak in")
            for i, (before, held, live, peak, after) in enumerate(self.steps, 1):
                at = max((v for v in self.vjps if v[3] == i), key=lambda v: v[4], default=None)
                where = f"{at[1]} vjp, output {at[2]}" if at is not None and at[4] == peak else "backward, between vjps"
                lines.append(f"{i:>4}{before / MB:>25.2f}{held / MB:>17.2f}{live / MB:>21.2f}"
                             f"{peak / MB:>21.2f}{after / MB:>15.2f}  {where}")
            lines.append("largest vjp transients:")
            for transient, op, shape, step, _ in sorted(self.vjps, key=lambda v: -v[0])[:5]:
                lines.append(f"  {op:<20} output {str(shape):<14} step {step:>3} {transient / MB:>8.2f} MB")
        for name, peak in self.commands:
            lines.append(f"subcommand {name}: peak {peak / MB:.2f} MB")
        return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    workload, profile = WORKLOADS[args.workload], MemoryProfile()
    run_cli = profile.install(Runner(cli))
    workdir = Path(tempfile.mkdtemp(prefix="memory-profile-"))
    try:
        ctx = workload.setup(workdir / "setup", args.seed, run_cli)
        for cycle in range(2):
            profile.on = cycle > 0
            if profile.on:
                tracemalloc.start()
            try:
                failed = [op.argv[0] for op in workload.cycle(ctx, run_cli) if op.failed]
            finally:
                tracemalloc.stop()
            if failed:
                print(f"error: cycle {cycle} failed in {', '.join(failed)}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(profile.report())
    print(f"process peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB (ru_maxrss)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
