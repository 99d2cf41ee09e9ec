"""Pipeline benchmark for epistyle.

    python3 perfbench/run.py --workload desk-graph --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. One run is one process: it imports
`epistyle` from `src/`, synthesizes the workload's corpus from the seed
(set-up, repeated and timed), then runs the workload's CLI pipeline in-process
through `epistyle.cli.main` in fresh work directories until the next run
would pass `--seconds`. Times are medians over those repetitions.

With `--trace 0` the last line of stdout is the end-to-end result. With
`--trace 1` the repetitions alternate untraced and traced, and the result
holds the per-layer metrics, including the traced-minus-untraced wall time.
Metric names and units come from BENCHMARK.json. `--workload all` runs every
workload, each in its own process, and prints one table.

Every run checks its outputs: each stage exits 0, metrics.json is
byte-identical across repetitions and across runs of the same workload and
seed in this checkout, each market's MRR beats its random-ranking baseline,
the attribution completeness gap is finite, and the traced run enters
exactly the spans predicted for the workload. A failed check makes
`correct` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
# Times the import in a fresh interpreter; this process has imported it already.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import epistyle.cli; print(time.perf_counter() - t)")
CLI_STAGES = ("preprocess", "split", "pgp-pairs", "train-tokenizer", "build-graph", "walk",
              "graph-embed", "train", "eval", "sybil", "attribute")

sys.path.insert(0, str(HERE))
from tracer import COUNTED, TIMED, Tracer  # noqa: E402
from workloads import WORKLOADS, migrants, stages  # noqa: E402

# Training episodes are counted in untraced runs too: one counter on the
# per-step sampler, with no span and no clock read.
EPISODE_COUNTER = [("train", "sample_batch", "train.sample_batch",
                    lambda args, tracer: {"episodes": args[1]})]


@dataclass
class Rep:
    """One pass of a workload's pipeline."""

    traced: bool
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    stage_s: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    train_episodes: float = 0.0
    eval_queries: int = 0
    mrr: float = float("nan")
    sybil_hit_rate: float | None = None
    digest: str = ""
    peak_stage: str = ""  # the stage during which the process's peak RSS was last raised
    layer: dict[str, float] = field(default_factory=dict)


def _median(values):
    return statistics.median(values) if values else float("nan")


def environment(seed: int, workload: str) -> dict:
    import numpy as np

    env = {
        "workload": workload, "seed": seed, "cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": "unknown", "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": "unknown",
    }
    with contextlib.suppress(KeyError, TypeError):
        env["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                env["commit"] = out.stdout.strip()
    env["source_digest"] = _source_digest()
    return env


class Bench:
    def __init__(self, workload, seed: int, run_dir: Path, cli):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.cli = cli
        self.raw = run_dir / "raw0"
        self.reps: list[Rep] = []

    # ------------------------------------------------------------ set-up

    def setup(self) -> tuple[float, list[str]]:
        """Import `epistyle` in fresh interpreters and synthesize the corpus,
        each SETUP_REPEATS times; returns the median import time plus the
        median synth time, and any problems (a failed import or synth, or
        synth outputs that differ)."""
        imports, times, problems, digests = [], [], [], []
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                                  capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                problems.append(f"importing epistyle failed: {proc.stderr.strip()[-200:]}")
                break
            imports.append(float(proc.stdout))
        for k in range(SETUP_REPEATS):
            out = self.run_dir / f"raw{k}"
            argv = ["synth", "--config", str(self.workload.config_path),
                    "--seed", str(self.seed), "--out", str(out)]
            t = time.perf_counter()
            rc, _ = self._call(argv)
            times.append(time.perf_counter() - t)
            if rc != 0:
                problems.append(f"synth exited {rc}")
                break
            digests.append(_tree_digest(out))
        if len(set(digests)) > 1:
            problems.append("synth output differs between set-up repeats")
        for k in range(1, SETUP_REPEATS):
            shutil.rmtree(self.run_dir / f"raw{k}", ignore_errors=True)
        return _median(imports) + _median(times), problems

    # ---------------------------------------------------------- one pass

    def _call(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing stage is a failed stage, not a crashed benchmark
            traceback.print_exc()
            rc = 1
        return rc, buf.getvalue()

    def rep(self, traced: bool) -> Rep:
        gc.collect()  # garbage from the previous pass is not this pass's work
        k = len(self.reps)
        work = self.run_dir / f"rep{k}"
        rep = Rep(traced=traced)
        tracer = Tracer()
        tracer.install(TIMED if traced else [], (COUNTED if traced else []) + EPISODE_COUNTER)
        stdout = {}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            for name, argv in stages(self.workload, self.raw, work, self.seed):
                rep.attempted += 1
                span = tracer.span(f"cli.{name}") if traced else contextlib.nullcontext()
                t = time.perf_counter()
                with span:
                    rc, out = self._call(argv)
                dt = time.perf_counter() - t
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                if rss > peak:
                    peak, rep.peak_stage = rss, name
                rep.stage_s[name] = rep.stage_s.get(name, 0.0) + dt
                rep.wall_s += dt
                stdout[name] = out
                if rc != 0:
                    rep.failed += 1
                    rep.problems.append(f"stage {name} exited {rc}")
                    break
        finally:
            tracer.uninstall()
        rep.train_episodes = tracer.counts["train.sample_batch.episodes"]
        if not rep.failed:
            self._check_outputs(rep, work, stdout)
        if traced:
            rep.layer = layer_metrics(tracer, self.workload, rep)
        shutil.rmtree(work, ignore_errors=True)
        self.reps.append(rep)
        return rep

    def _check_outputs(self, rep: Rep, work: Path, stdout: dict) -> None:
        digest = hashlib.sha256()
        mrrs = []
        for path in sorted(work.glob("run-*/metrics.json")):
            blob = path.read_bytes()
            digest.update(path.parent.name.encode() + b"\0" + blob)
            doc = json.loads(blob)
            for market, block in sorted(doc["markets"].items()):
                rep.eval_queries += sum(b["n_queries"] for b in block.values())
                mrrs.append(block["all"]["mrr"])
                if not block["all"]["mrr"] > block["all"]["random_baseline_mrr"]:
                    rep.problems.append(f"{path.parent.name}/{market}: MRR does not beat "
                                        "the random baseline")
        rep.digest = digest.hexdigest()
        rep.mrr = sum(mrrs) / len(mrrs)

        sybil_files = sorted(work.glob("sybil-*.json"), key=lambda p: int(p.stem.split("-")[1]))
        if sybil_files:
            moved = migrants(self.raw / "labels.csv")
            hits = 0
            for path, (_, _, mb, ub) in zip(sybil_files, moved):
                found = json.loads(path.read_text())
                hits += (found["candidate_market"], found["candidate_user"]) == (mb, ub)
            rep.sybil_hit_rate = hits / len(sybil_files)

        if "attribute" in stdout:
            gap = re.search(r"completeness gap ([^\s,]+)", stdout["attribute"])
            if gap is None or not math.isfinite(float(gap.group(1))):
                rep.problems.append("attribute: completeness gap is not finite")


def _tree_digest(directory: Path) -> str:
    """Digest of the files under `directory`, except manifest.json, which
    names the directory itself."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------ per-layer


def layer_metrics(tracer: Tracer, workload, rep: Rep) -> dict[str, float]:
    """Per-layer metrics of one traced pass; also checks that exactly the
    predicted spans were entered."""
    summary = tracer.summary()
    counts = tracer.counts
    out: dict[str, float] = {}
    for name, row in summary.items():
        if name.startswith("model.EpisodeModel.embed_episodes."):
            base, mode = name.rsplit(".", 1)
            out[f"{base}.{mode}_s"] = row["s"]
            continue
        out[f"{name}.s"] = row["s"]
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.calls"] = row["calls"]
    out.update(counts)

    def ratio(num, den):
        return num / den if den else 0.0

    pairs = counts.get("hetgraph.train_skipgram.pairs", 0)
    skipgram_s = out.get("hetgraph.train_skipgram.s", 0.0)
    out["hetgraph.train_skipgram.us_per_pair"] = ratio(skipgram_s * 1e6, pairs)
    out["hetgraph.train_skipgram.pairs_per_s"] = ratio(pairs, skipgram_s)
    out["train.steps"] = out.get("numcore.adam_step.calls", 0)
    out["train.steps_per_s"] = ratio(out["train.steps"], out.get("train.train_multitask.s", 0.0))
    out["model.make_episode_batch.pad_ratio"] = ratio(
        counts.get("model.make_episode_batch.real_tokens", 0),
        counts.get("model.make_episode_batch.slots", 0))
    out["model.PostEncoder.ids.hit_ratio"] = 1.0 - ratio(
        out.get("tokenization.encode.calls", 0), counts.get("model.PostEncoder.ids.calls", 0))
    out["corpus.load_posts.reparse_ratio"] = ratio(
        counts.get("corpus.load_posts.posts", 0), len(tracer.distinct_posts))
    out["evaluation.topk_sybil.hit_rate"] = rep.sybil_hit_rate or 0.0

    spans = {row[0] for row in tracer.spans}
    spans |= {"model.EpisodeModel.embed_episodes" for s in spans
              if s.startswith("model.EpisodeModel.embed_episodes.")}
    predicted = {f"cli.{s}" for s in CLI_STAGES} | {name for _, _, name, _ in TIMED
                                                    if not name.startswith("synth.")}
    for name in sorted(predicted):
        expected = name not in workload.absent
        if expected and name not in spans:
            rep.problems.append(f"trace: span {name} predicted for {workload.name} is missing")
        if not expected and name in spans:
            rep.problems.append(f"trace: span {name} predicted absent from {workload.name} "
                                "was entered")
    return out


# ----------------------------------------------------------------- main


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    # One BLAS thread: the pipeline's matrices are small, and a second thread
    # that spins between calls makes times depend on what else the host runs.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import epistyle.cli as cli
    except ImportError as exc:
        print(f"perfbench: cannot import epistyle from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: imported epistyle from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    env = environment(args.seed, workload.name)
    print("perfbench env " + json.dumps(env, sort_keys=True))

    run_dir = WORK_ROOT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, run_dir, cli)
        setup_tracer = Tracer()
        if args.trace:
            setup_tracer.install(TIMED, [])
        try:
            setup_s, problems = bench.setup()
        finally:
            setup_tracer.uninstall()
        peak_rss_mb = None
        if not problems:
            start = time.perf_counter()
            # The first pass touches memory the process has not used yet and
            # runs up to twice as slow as later ones; it is checked, not timed.
            bench.rep(traced=False)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            pattern = (False, True) if args.trace else (False,)
            per_round = []
            while not any(r.failed for r in bench.reps):
                t = time.perf_counter()
                for traced in pattern:
                    bench.rep(traced)
                per_round.append(time.perf_counter() - t)
                if time.perf_counter() - start + _median(per_round) > args.seconds:
                    break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    reps = bench.reps
    for k, r in enumerate(reps):
        problems += r.problems
        stage_s = " ".join(f"{n}={v:.3f}" for n, v in r.stage_s.items())
        kind = "warm-up" if k == 0 else "traced" if r.traced else "untraced"
        print(f"perfbench rep {k} {kind} wall_s={r.wall_s:.3f} {stage_s}"
              f"{' peak_rss_set_by=' + r.peak_stage if r.peak_stage else ''}")
    digests = {r.digest for r in reps if r.digest}
    if len(digests) > 1:
        problems.append("metrics.json differs between repetitions")
    if len(digests) == 1:
        problems += _check_digest_across_runs(workload.name, args.seed, digests.pop())

    attempted = sum(r.attempted for r in reps) or 1
    failed = sum(r.failed for r in reps)
    timed = [r for r in reps[1:] if not r.traced and not r.failed]
    values = {
        "wall_s": _median([r.wall_s for r in timed]),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb or float("nan"),
        "train_episodes_per_s": _median([r.train_episodes / r.stage_s["train"] for r in timed]),
        "eval_queries_per_s": _median([r.eval_queries / r.stage_s["eval"] for r in timed]),
        "mrr": timed[0].mrr if timed else float("nan"),
        "stage_success_ratio": (attempted - failed) / attempted,
    }
    declared = spec["end_to_end"]
    if args.trace:
        traced = [r for r in reps if r.traced and not r.failed]
        layer = {}
        for name in {k for r in traced for k in r.layer}:
            layer[name] = _median([r.layer.get(name, 0.0) for r in traced])
        setup = setup_tracer.summary()
        for name in ("synth.generate_corpus", "synth.write_corpus"):
            row = setup.get(name)
            layer[f"{name}.s"] = row["s"] / row["calls"] if row else 0.0
        layer["trace.untraced_wall_s"] = values["wall_s"]
        layer["trace.traced_wall_s"] = _median([r.wall_s for r in traced])
        layer["trace.overhead_s"] = layer["trace.traced_wall_s"] - values["wall_s"]
        # a span predicted absent reads 0; one predicted present but missing
        # has already failed the span check
        values = {m["name"]: layer.get(m["name"], 0.0) for m in spec["per_layer"]}
        declared = spec["per_layer"]

    print(f"perfbench {workload.name}: {len(timed)} timed passes of {args.seconds:g} s window")
    for m in declared:
        print(f"perfbench {workload.name} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for p in problems:
        print(f"perfbench check failed: {p}")
    correct = not problems and failed == 0
    # a failed run may have no times, and JSON has no NaN
    metrics = {m["name"]: {"value": values[m["name"]] if math.isfinite(values[m["name"]]) else 0.0,
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _source_digest() -> str:
    """Digest of the program and benchmark sources: runs of different code
    may legitimately write different metrics."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _check_digest_across_runs(workload: str, seed: int, digest: str) -> list[str]:
    """Compare with the metrics.json digest of an earlier run of the same
    code, workload and seed in this checkout; the first run records it."""
    path = WORK_ROOT / "digests" / f"{workload}-seed{seed}-{_source_digest()}.sha256"
    if path.exists():
        if path.read_text().strip() != digest:
            return [f"metrics.json differs from an earlier run of {workload} at seed {seed}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n")
    return []


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith("perfbench"):
                print(line)
        if proc.returncode != 0:
            status = 1
            print(f"perfbench {name}: exit {proc.returncode}")
            sys.stderr.write(proc.stderr[-4000:])
        elif lines:
            result = json.loads(lines[-1])
            print(f"perfbench {name}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured window; repetitions stop before it would be passed")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
