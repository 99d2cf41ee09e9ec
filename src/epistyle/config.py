"""Key-value config files (INI sections) and per-stage run manifests.

Every pipeline stage writes a manifest.json recording its input and output
hashes, effective config hash, seed, and package version; a stage re-run with
--skip-if-fresh compares those and becomes a no-op when nothing changed.
Manifests carry no timestamps so identical runs stay byte-identical.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from pathlib import Path

from . import __version__

SECTIONS = ("corpus", "tokenizer", "graph", "model", "train", "eval")


class ValidationError(Exception):
    """User-facing input problem: exit code 2."""


def load_config(path=None) -> dict[str, dict[str, str]]:
    """Raw string config: section -> key -> value. Missing file is an error;
    no file at all yields empty sections."""
    cfg: dict[str, dict[str, str]] = {s: {} for s in SECTIONS}
    if path is None:
        return cfg
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive
    parser.read(path, encoding="utf-8")
    for section in parser.sections():
        if section not in cfg:
            raise ValidationError(f"{path}: unknown config section [{section}]")
        cfg[section] = dict(parser.items(section))
    return cfg


def _coerce(raw: str, like):
    if isinstance(like, bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValidationError(f"expected a boolean, got {raw!r}")
    if isinstance(like, int):
        return int(raw)
    if isinstance(like, float):
        return float(raw)
    if isinstance(like, tuple):
        items = [x.strip() for x in raw.replace(",", " ").split()]
        if like and isinstance(like[0], int):
            return tuple(int(x) for x in items)
        return tuple(items)
    return raw


def section_values(cfg: dict, section: str, defaults: dict, overrides: dict | None = None) -> dict:
    """Merge defaults <- config section <- CLI overrides, with types taken
    from the defaults."""
    out = dict(defaults)
    for key, raw in cfg.get(section, {}).items():
        if key not in defaults:
            raise ValidationError(f"[{section}] has no key {key!r}")
        out[key] = _coerce(raw, defaults[key])
    for key, val in (overrides or {}).items():
        if val is not None:
            out[key] = val
    return out


# ---------------------------------------------------------------- manifests


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(effective: dict) -> str:
    return hashlib.sha256(
        json.dumps(effective, sort_keys=True, default=str).encode()
    ).hexdigest()


def write_manifest(out_dir, stage: str, inputs: list, effective_config: dict,
                   seed: int | None, outputs: list, extra: dict | None = None,
                   name: str = "manifest.json") -> Path:
    manifest = {
        "stage": stage,
        "inputs": {str(p): file_sha256(p) for p in sorted(str(x) for x in inputs)},
        "config_hash": config_hash(effective_config),
        "config": effective_config,
        "seed": seed,
        "version": __version__,
        "outputs": {str(p): file_sha256(p) for p in sorted(str(x) for x in outputs)},
    }
    if extra:
        manifest["extra"] = extra
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def is_fresh(out_dir, stage: str, inputs: list, effective_config: dict, seed: int | None,
             name: str = "manifest.json") -> bool:
    """True when the manifest `name` in `out_dir` matches the would-be inputs
    and config and every recorded output still exists with its recorded hash."""
    path = Path(out_dir) / name
    if not path.exists():
        return False
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError:
        return False
    if manifest.get("stage") != stage or manifest.get("seed") != seed:
        return False
    if manifest.get("config_hash") != config_hash(effective_config):
        return False
    want = {str(p): file_sha256(p) for p in sorted(str(x) for x in inputs) if Path(p).exists()}
    if manifest.get("inputs") != want:
        return False
    outputs = manifest.get("outputs")
    if not isinstance(outputs, dict):  # older manifests list outputs without hashes
        return False
    return all(Path(o).exists() and file_sha256(o) == h for o, h in outputs.items())
