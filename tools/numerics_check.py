"""Run README "Declared numerics changes" on two checkouts and report each
run's MRR, both means and `compare`'s p-value.

    python3 tools/numerics_check.py PARENT CHANGE [--seeds N] [--config INI]

For each checkout, in a process and a temporary directory of its own, runs
the pipeline walkthrough through `epistyle.cli.main`, imported from
CHECKOUT/src: `synth`, `preprocess`, `split` and `train-tokenizer`, then
`build-graph`, `walk` and `graph-embed` for every market, all at seed 0;
then the multitask model (`--graph-init pretrained` on those embeddings) and
its `eval` at train seeds 0 .. N-1 (5 by default). Both checkouts run the
same config file, CHANGE/perfbench/configs/scale.ini unless `--config`
names another. CHANGE's `compare --metric mrr` then pairs the runs by market
and train seed; it needs at least 5 pairs.

BLAS runs on one thread, as in the benchmark and `tools/plan_digests.py`:
each process sets `OPENBLAS_NUM_THREADS=1` before it imports `epistyle` (and
with it numpy). No bytecode is written under either checkout. Stage output
goes to stderr; the exit code is 1 if a stage fails.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path


def stages(config: Path, work: Path, seeds: int):
    """The README procedure's argv lists, in order; the per-market stages
    list the markets that `synth` wrote, so this runs lazily."""
    raw, processed, split, vocab = (work / "raw", work / "processed", work / "split" / "split.csv",
                                    work / "vocab" / "vocab.txt")
    c = ["--config", str(config)]
    data = ["--processed", str(processed), "--split", str(split), "--vocab", str(vocab)]
    yield ["synth", *c, "--seed", "0", "--out", str(raw)]
    yield ["preprocess", *c, "--input", str(raw), "--out", str(processed)]
    yield ["split", *c, "--input", str(processed), "--out", str(split)]
    yield ["train-tokenizer", *c, "--input", str(processed), "--split", str(split), "--out", str(vocab)]
    markets = sorted(p.stem for p in raw.glob("*.jsonl"))
    for m in markets:
        graph, walks, emb = (work / "graph" / m / "graph.json", work / "walks" / m / "walks.txt",
                             work / "emb" / m)
        yield ["build-graph", *c, "--input", str(processed), "--split", str(split), "--market", m,
               "--out", str(graph)]
        yield ["walk", *c, "--seed", "0", "--graph", str(graph), "--out", str(walks)]
        yield ["graph-embed", *c, "--seed", "0", "--walks", str(walks), "--graph", str(graph),
               "--out", str(emb)]
    context = [arg for m in markets for arg in ("--context-init", f"{m}={work / 'emb' / m / 'context.tsv'}")]
    for seed in range(seeds):
        run = str(work / f"run-multi-{seed}")
        yield ["train", *c, "--seed", str(seed), *data, "--multitask", "--labels",
               str(raw / "labels.csv"), "--graph-init", "pretrained", *context, "--out", run]
        yield ["eval", *c, "--seed", "0", "--run", run, *data]


def run_checkout(checkout: Path, config: Path, work: Path, seeds: int, baseline: Path | None) -> None:
    """Run the procedure in `work`, then, given the `work` of a baseline run,
    `compare` the two into work/compare.json. Runs in a fresh process: it
    imports this checkout's `epistyle`."""
    sys.dont_write_bytecode = True
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads OpenBLAS
    sys.path.insert(0, str(checkout / "src"))
    from epistyle.cli import main as cli_main

    argvs = stages(config, work, seeds)
    if baseline is not None:
        runs = [f"run-multi-{seed}/metrics.json" for seed in range(seeds)]
        compare = ["compare", "--metric", "mrr", "--group-a", *(str(baseline / r) for r in runs),
                   "--group-b", *(str(work / r) for r in runs), "--out", str(work / "compare.json")]
        argvs = itertools.chain(argvs, [compare])
    for argv in argvs:
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli_main(argv)
        if rc != 0:
            sys.exit(f"error: {checkout}: stage failed: {argv[0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the checkout to compare against")
    parser.add_argument("change", type=Path, help="root of the checkout with the change")
    parser.add_argument("--seeds", type=int, default=5, help="train seeds 0 .. N-1 (default 5)")
    parser.add_argument("--config", type=Path, help="config file (default: CHANGE's scale.ini)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    parent, change = args.parent.resolve(), args.change.resolve()
    config = (args.config or change / "perfbench" / "configs" / "scale.ini").resolve()
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="numerics-parent-") as parent_tmp, \
            tempfile.TemporaryDirectory(prefix="numerics-change-") as change_tmp:
        works = Path(parent_tmp), Path(change_tmp)
        for checkout, work, baseline in ((parent, works[0], None), (change, works[1], works[0])):
            proc = spawn.Process(target=run_checkout, args=(checkout, config, work, args.seeds, baseline))
            proc.start()
            proc.join()
            if proc.exitcode != 0:
                return 1
        result = json.loads((works[1] / "compare.json").read_text(encoding="utf-8"))
    print(f"{'train seed':<12}{'market':<10}{'parent':>10}{'change':>10}")
    for pair in sorted(result["pairs"], key=lambda pair: (pair["key"][3], pair["key"][0])):
        market, seed = pair["key"][0], pair["key"][3]
        print(f"{seed:<12}{market:<10}{pair['a']:>10.6f}{pair['b']:>10.6f}")
    print(f"{'mean':<22}{result['mean_a']:>10.6f}{result['mean_b']:>10.6f}")
    print(f"compare --metric mrr: p = {result['p_value']:.4g} over {result['n_pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
