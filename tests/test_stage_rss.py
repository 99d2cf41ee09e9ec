import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "stage_rss.py"

# A checkout whose `epistyle.cli` reports the BLAS thread count it saw at
# import and how many stages its interpreter has run; stage `big` touches
# 48 MB, and stage `bad` fails.
STUB_CLI = '''\
import os

SEEN = os.environ.get("OPENBLAS_NUM_THREADS")
RUNS = 0


def main(argv):
    global RUNS
    RUNS += 1
    print(f"stub {argv[0]} threads={SEEN} runs={RUNS}")
    blob = b"\\1" * (48 << 20) if argv[0] == "big" else b""
    return 3 if argv[0] == "bad" else 0
'''
STUB_WORKLOADS = '''\
from dataclasses import dataclass


@dataclass
class Workload:
    config_path: str
    names: tuple


WORKLOADS = {"stub": Workload("stub.ini", ("small", "big")),
             "broken": Workload("stub.ini", ("bad", "small"))}


def stages(workload, raw, work, seed):
    return [(name, [name, "--out", str(work / name)]) for name in workload.names]
'''


def _run(tmp_path, workload):
    checkout = tmp_path / "checkout"
    (checkout / "src" / "epistyle").mkdir(parents=True)
    (checkout / "src" / "epistyle" / "__init__.py").write_text("")
    (checkout / "src" / "epistyle" / "cli.py").write_text(STUB_CLI)
    (checkout / "perfbench").mkdir()
    (checkout / "perfbench" / "workloads.py").write_text(STUB_WORKLOADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    return subprocess.run([sys.executable, str(SCRIPT), str(checkout), workload, "--seed", "7"],
                          env=env, capture_output=True, text=True, timeout=60)


def test_stage_rss_runs_each_stage_alone_on_one_blas_thread(tmp_path):
    done = _run(tmp_path, "stub")
    assert done.returncode == 0, done.stderr
    rows = [line.split(None, 2) for line in done.stdout.splitlines()]
    assert [(r[0], r[2:]) for r in rows] == [
        ("(import)", []),
        ("synth", ["--config stub.ini --seed 7 --out raw"]),
        ("small", ["--out work/small"]),
        ("big", ["--out work/big"]),
    ]
    peak = {r[0]: float(r[1]) for r in rows}
    assert peak["big"] - peak["small"] > 40
    assert done.stderr.splitlines() == [f"stub {name} threads=1 runs=1"
                                        for name in ("synth", "small", "big")]


def test_stage_rss_stops_at_a_failed_stage(tmp_path):
    done = _run(tmp_path, "broken")
    assert done.returncode == 1
    assert [line.split()[0] for line in done.stdout.splitlines()] == ["(import)", "synth", "bad"]
    assert "error: stage failed: bad" in done.stderr
