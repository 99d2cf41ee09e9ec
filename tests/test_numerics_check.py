import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "numerics_check.py"

# Three small markets, so that two train seeds give compare its 5 pairs.
CONFIG = """\
[corpus]
markets = alpha, beta, gamma
authors_per_market = 6
posts_per_author = 24
migrant_count = 1
distinct_pair_count = 1
subforums_per_market = 3
communities = 2
weeks = 8

[tokenizer]
kind = char
size = 100

[graph]
walks_per_user = 4
walk_length = 7
dim = 12
window = 2
negatives = 2
epochs = 1

[model]
d_token = 8
d_text = 16
d_time = 8
d_context = 12
filter_sizes = 2, 3
filters_per_size = 8
max_tokens = 64

[train]
batch_size = 16
epochs = 1
episode_len = 2
p_cross = 0.3

[eval]
kappa = 100
"""


def test_numerics_check_of_a_checkout_against_itself_gives_equal_mrrs(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(CONFIG)
    done = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--seeds", "2",
                           "--config", str(config)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["train", "seed", "market", "parent", "change"]
    runs = [line.split() for line in lines[1:-2]]
    assert [run[:2] for run in runs] == [[s, m] for s in "01" for m in ("alpha", "beta", "gamma")]
    assert all(run[2] == run[3] and 0 < float(run[2]) <= 1 for run in runs)
    mean = lines[-2].split()
    assert mean[0] == "mean" and mean[1] == mean[2]
    assert lines[-1] == "compare --metric mrr: p = 1 over 6 pairs"
