"""The names the benchmark under perfbench/ uses from the program still
exist: traced functions, CLI subcommands and their options, and the config
keys its workloads set. A rename that misses perfbench/ then fails here
instead of in a benchmark run."""

import argparse
import importlib
import sys
import types
from pathlib import Path

import pytest

from epistyle import cli
from epistyle.cli import build_parser
from epistyle.config import load_config, section_values
from epistyle.hetgraph import _walk_pairs, train_skipgram

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """perfbench/<name>.py as a module, compiled from source so that nothing
    (not even a bytecode cache) is written under perfbench/."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"_perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up by name
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in tracer.TIMED + tracer.COUNTED])
def test_every_traced_name_resolves(module, attr):
    mod = importlib.import_module(f"epistyle.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name))  # the tracer patches the class dict
    else:
        assert callable(getattr(mod, attr))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_planned_stage_is_a_subcommand_that_parses(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "labels.csv").write_text("market_a,user_a,market_b,user_b,same_author\n"
                                    "alpha,alpha_u00,beta,beta_u00,true\n"
                                    "alpha,alpha_u01,beta,beta_u01,true\n")
    subcommands = _subcommands()
    assert set(workload.flags) <= set(subcommands)
    plan = workloads.stages(workload, raw, tmp_path / "work", 0)
    assert plan
    for stage, argv in plan:
        assert stage in subcommands and argv[0] == stage
        # exact names: argparse would also accept a flag that is now only a prefix
        options = subcommands[stage]._option_string_actions
        assert {a for a in argv if a.startswith("--")} <= set(options)
        build_parser().parse_args(argv)
    spans = {span for _, _, span, _ in tracer.TIMED} | {f"cli.{s}" for s in subcommands}
    assert workload.absent <= spans


@pytest.mark.parametrize("path", sorted({w.config_path for w in workloads.WORKLOADS.values()}),
                         ids=lambda p: p.name)
def test_every_key_of_a_workload_config_is_one_the_cli_reads(path):
    cfg = load_config(path, cli.SECTION_DEFAULTS)  # raises on an unknown section
    for section, defaults in cli.SECTION_DEFAULTS.items():
        section_values(cfg, section, defaults)  # raises on an unknown key


@pytest.mark.parametrize("window", [1, 3, 7])
def test_traced_skipgram_pairs_equal_the_pairs_trained(window):
    # us_per_pair divides the skip-gram span by this count
    lengths = (1, 2, 5, 9, 13)
    walks = [[f"U{i}" if i % 2 == 0 else f"T{i}" for i in range(n)] for n in lengths]
    emb = train_skipgram(walks, dim=4, window=window, negatives=2, epochs=3, rng_seed=0)
    ids = [list(range(n)) for n in lengths]
    counts = tracer._skipgram_counts((walks, 4, window, 2, 3), emb, None)
    assert counts == {"pairs": len(_walk_pairs(ids, window)[0]) * 3}
