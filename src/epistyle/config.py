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
import os
from pathlib import Path

from . import __version__
from .atomic import atomic_write


class ValidationError(Exception):
    """User-facing input problem: exit code 2."""


def load_config(path, sections) -> dict[str, dict[str, str]]:
    """Raw string config: section -> key -> value, for `sections` only. A
    missing or unreadable file is an error; no file at all yields empty
    sections."""
    cfg: dict[str, dict[str, str]] = {s: {} for s in sections}
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        sections = {s: dict(parser.items(s)) for s in parser.sections()}
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read config file "
                              f"({getattr(exc, 'strerror', None) or exc})") from None
    except configparser.MissingSectionHeaderError as exc:
        raise ValidationError(f"{path}:{exc.lineno}: no [section] header before this line") from None
    except configparser.DuplicateOptionError as exc:
        raise ValidationError(f"{path}:{exc.lineno}: key {exc.option!r} set twice "
                              f"in [{exc.section}]") from None
    except configparser.Error as exc:  # its own text may span several lines
        raise ValidationError(f"{path}: {' '.join(str(exc).split())}") from None
    for section, values in sections.items():
        if section not in cfg:
            raise ValidationError(f"{path}: unknown config section [{section}]")
        cfg[section] = values
    return cfg


# what a value that fails to parse should have been, by the type of its default
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number", tuple: "integers"}
_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
             **dict.fromkeys(("false", "0", "no", "off"), False)}


def _coerce(raw: str, like):
    """`raw` read as the type of `like`; KeyError or ValueError when it does
    not parse."""
    if isinstance(like, bool):
        return _BOOLEANS[raw.strip().lower()]
    if isinstance(like, (int, float)):
        return type(like)(raw)
    if isinstance(like, tuple):
        items = raw.replace(",", " ").split()
        return tuple(map(int, items)) if like and isinstance(like[0], int) else tuple(items)
    return raw


def section_values(cfg: dict, section: str, defaults: dict) -> dict:
    """Merge defaults <- config section, with types taken from the defaults."""
    out = dict(defaults)
    for key, raw in cfg.get(section, {}).items():
        if key not in defaults:
            raise ValidationError(f"[{section}] has no key {key!r}")
        try:
            out[key] = _coerce(raw, defaults[key])
        except (KeyError, ValueError):
            raise ValidationError(f"[{section}] {key}: expected "
                                  f"{_EXPECTED[type(defaults[key])]}, got {raw!r}") from None
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


def manifest_key(path, base) -> str:
    """`path` as a manifest in directory `base` records it: relative to
    `base`, so a work directory moved as a whole keeps its manifests valid."""
    return Path(os.path.relpath(Path(path).resolve(), Path(base).resolve())).as_posix()


def write_manifest(out_dir, stage: str, inputs: list, effective_config: dict,
                   seed: int | None, outputs: list, extra: dict | None = None,
                   name: str = "manifest.json") -> Path:
    out_dir = Path(out_dir)
    manifest = {
        "stage": stage,
        "inputs": {manifest_key(p, out_dir): file_sha256(p) for p in inputs},
        "config_hash": config_hash(effective_config),
        "config": effective_config,
        "seed": seed,
        "version": __version__,
        "outputs": {manifest_key(p, out_dir): file_sha256(p) for p in outputs},
    }
    if extra:
        manifest["extra"] = extra
    path = out_dir / name
    with atomic_write(path, encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def read_manifest(path) -> dict | None:
    """The manifest at `path`, or None when it is missing, not UTF-8 or not a
    JSON object."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        return None
    return manifest if isinstance(manifest, dict) else None


def hashes_match(manifest: dict, base, inputs: list) -> bool:
    """True when `manifest`, read from directory `base`, records exactly
    `inputs` with their current sha256 and every output it records still
    exists with its recorded hash."""
    want = {manifest_key(p, base): file_sha256(p) for p in inputs if Path(p).exists()}
    if manifest.get("inputs") != want:
        return False
    outputs = manifest.get("outputs")
    if not isinstance(outputs, dict):  # older manifests list outputs without hashes
        return False
    base = Path(base)
    return all((base / o).is_file() and file_sha256(base / o) == h for o, h in outputs.items())


def is_fresh(out_dir, stage: str, inputs: list, outputs: list, effective_config: dict,
             seed: int | None, name: str = "manifest.json") -> bool:
    """True when the manifest `name` in `out_dir` matches the would-be inputs,
    outputs and config and every output still has its recorded hash."""
    manifest = read_manifest(Path(out_dir) / name)
    if (manifest is None or manifest.get("stage") != stage or manifest.get("seed") != seed
            or manifest.get("config_hash") != config_hash(effective_config)
            or not isinstance(manifest.get("outputs"), dict)
            or set(manifest["outputs"]) != {manifest_key(p, out_dir) for p in outputs}):
        return False
    return hashes_match(manifest, out_dir, inputs)
