"""Peak resident set of each stage of one benchmark workload's plan.

    python3 tools/stage_rss.py CHECKOUT WORKLOAD [--seed N]

Runs `synth` and then each stage of WORKLOAD (a name in
CHECKOUT/perfbench/workloads.py) in a temporary directory, each stage in a
fresh interpreter that imports `epistyle.cli` from CHECKOUT/src, and prints
one line per stage: its name, its peak RSS in MB (the child's `ru_maxrss`,
as perfbench reports `peak_rss_mb`) and its arguments, with paths relative
to the temporary directory or the checkout. A first `(import)` line is the
peak of an interpreter that only imports `epistyle.cli`. A benchmark run
holds every stage in one process, so its peak is the largest stage's.

Every interpreter runs BLAS on one thread (`OPENBLAS_NUM_THREADS=1`), as the
benchmark does, and writes no bytecode. The plan comes from
`plan_digests.py`. Stage output goes to stderr; the exit code is 1 if a stage
fails, and the stages after it are not run.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from plan_digests import load_workloads, plan  # noqa: E402

CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); from epistyle.cli import main; "
         "sys.exit(main(sys.argv[2:]) if len(sys.argv) > 2 else 0)")


def run_stage(src: Path, argv: list[str]) -> tuple[int, float]:
    """Run `epistyle.cli.main(argv)` in a fresh interpreter (only the import
    when argv is empty); returns its exit code and peak RSS in MB."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(src), *argv], env=env,
                            stdout=sys.stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="root of the checkout to run")
    parser.add_argument("workload", help="a workload name of the checkout's perfbench")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    workloads = load_workloads(checkout)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(sorted(workloads.WORKLOADS))}")
    src = checkout / "src"
    with tempfile.TemporaryDirectory(prefix="stage-rss-") as tmp:
        root = Path(tmp)
        workload = workloads.WORKLOADS[args.workload]
        # lazy: the workload's stages read the labels that `synth` writes
        runs = plan(workloads, workload, root / "raw", root / "work", args.seed)
        for stage, stage_argv in itertools.chain([("(import)", [])], runs):
            rc, mb = run_stage(src, stage_argv)
            shown = " ".join(stage_argv[1:])
            for base in (root, checkout):
                shown = shown.replace(f"{base}{os.sep}", "")
            print(f"{stage:<16} {mb:8.1f}  {shown}".rstrip(), flush=True)
            if rc != 0:
                print(f"error: stage failed: {stage}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
