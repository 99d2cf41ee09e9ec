import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "plan_digests.py"

# A checkout whose `epistyle.cli` records, at import, the BLAS thread count
# numpy would read, and whose one workload runs only `synth`.
STUB_CLI = '''\
import os

SEEN = os.environ.get("OPENBLAS_NUM_THREADS")


def main(argv):
    out = argv[argv.index("--out") + 1]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "threads.txt"), "w") as fh:
        fh.write(repr(SEEN))
    return 0
'''
STUB_WORKLOADS = '''\
from dataclasses import dataclass


@dataclass
class Workload:
    config_path: str


WORKLOADS = {"stub": Workload("stub.ini")}


def stages(workload, raw, work, seed):
    return iter(())
'''


@pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "two"])
def test_plan_digests_pins_one_blas_thread_before_epistyle_loads(tmp_path, threads):
    checkout = tmp_path / "checkout"
    (checkout / "src" / "epistyle").mkdir(parents=True)
    (checkout / "src" / "epistyle" / "__init__.py").write_text("")
    (checkout / "src" / "epistyle" / "cli.py").write_text(STUB_CLI)
    (checkout / "perfbench").mkdir()
    (checkout / "perfbench" / "workloads.py").write_text(STUB_WORKLOADS)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run([sys.executable, str(SCRIPT), str(checkout), "5"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    want = hashlib.sha256(repr("1").encode()).hexdigest()
    assert done.stdout == f"seed5/stub/raw/threads.txt {want}\n"
