"""Digest every file the benchmark's workload plans write, for a byte-identity
check between two checkouts.

    python3 tools/plan_digests.py CHECKOUT SEED [SEED ...] [--exclude GLOB ...] > digests.txt

For each seed and each workload of CHECKOUT/perfbench/workloads.py, runs
`synth` and the workload's stages in a temporary directory through
`epistyle.cli.main`, imported from CHECKOUT/src, and prints one
`path sha256` line per output file (the synthetic corpus and manifests
included), path relative to the temporary directory, in sorted order. A
`diff` of the lists of two checkouts at the same seeds is the whole check.
`--exclude GLOB` (repeatable) leaves out each path that the `fnmatch` pattern
matches, for a change that deliberately rewrites some files, such as a new
file format and the manifests that hash those files.

BLAS runs on one thread, as in the benchmark: training outputs depend on the
thread count, so the script sets `OPENBLAS_NUM_THREADS=1` before it imports
`epistyle` (and with it numpy), whatever the environment says.

workloads.py is compiled from its source, so nothing (not even a bytecode
cache) is written under perfbench/; no bytecode is written under src/ either.
Stage output goes to stderr; the exit code is 1 if a stage fails.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import hashlib
import os
import sys
import tempfile
import types
from pathlib import Path


def load_workloads(checkout: Path):
    path = checkout / "perfbench" / "workloads.py"
    module = types.ModuleType("_perfbench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up by name
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def plan(workloads, workload, raw: Path, work: Path, seed: int):
    """(stage, argv) pairs: `synth` into `raw`, then the workload's stages,
    which read the labels that `synth` wrote."""
    yield "synth", ["synth", "--config", str(workload.config_path), "--seed", str(seed),
                    "--out", str(raw)]
    yield from workloads.stages(workload, raw, work, seed)


def run_plans(checkout: Path, seeds: list[int], root: Path) -> list[str]:
    """Run every workload's plan at each seed under `root`; returns the
    failed stages."""
    sys.dont_write_bytecode = True
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads OpenBLAS
    sys.path.insert(0, str(checkout / "src"))
    from epistyle.cli import main as cli_main

    workloads = load_workloads(checkout)
    failed = []
    for seed in seeds:
        for name, workload in sorted(workloads.WORKLOADS.items()):
            base = root / f"seed{seed}" / name
            for stage, argv in plan(workloads, workload, base / "raw", base / "work", seed):
                with contextlib.redirect_stdout(sys.stderr):
                    rc = cli_main(argv)
                if rc != 0:
                    failed.append(f"seed {seed} {name} {stage}")
                    break
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="root of the checkout to run")
    parser.add_argument("seeds", type=int, nargs="+", metavar="seed")
    parser.add_argument("--exclude", action="append", default=[], metavar="GLOB",
                        help="leave out the paths this fnmatch pattern matches (repeatable)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="plan-digests-") as tmp:
        root = Path(tmp)
        failed = run_plans(args.checkout.resolve(), args.seeds, root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            name = path.relative_to(root).as_posix()
            if not any(fnmatch.fnmatchcase(name, glob) for glob in args.exclude):
                print(f"{name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    for stage in failed:
        print(f"error: stage failed: {stage}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
