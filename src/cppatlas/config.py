"""Application configuration loaded from a JSON file.

Unknown keys are rejected rather than ignored, so a typo in a config
file fails loudly instead of silently falling back to defaults. Every
value must have the type of the field default it replaces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .pipeline import PipelineConfig
from .repo import DEFAULT_INCLUDE_GLOBS, include_glob_parts
from .runner import RunnerConfig


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _check_keys(data, allowed: set[str], where: str):
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object")
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def _typed(where: str, default, value):
    """``value`` checked against the type of the field default it replaces.
    An int passes for a float and a bool never for an int; a None default
    (``scratch_root``) takes a string or null; a tuple default takes a list
    of strings or, for a tuple of numbers, a list of as many numbers."""
    if isinstance(default, tuple):
        numbers = bool(default) and type(default[0]) is float
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list")
        if numbers and len(value) != len(default):
            raise ValueError(f"{where} must have {len(default)} entries")
        item = default[0] if numbers else ""
        return tuple(_typed(f"{where} entry", item, v) for v in value)
    if default is None:
        ok, want = value is None or type(value) is str, "a string or null"
    elif type(default) is float:
        ok, want = type(value) in (int, float), "a number"
        value = float(value) if ok else value
    else:
        ok, want = type(value) is type(default), type(default).__name__
    if not ok:
        raise ValueError(f"{where} must be {want}, got {value!r}")
    return value


def _section(cls, raw: dict, name: str, skip: str = "") -> dict:
    """Keyword arguments for ``cls`` from the keys present in section
    ``name`` of ``raw``, each checked against the field's default."""
    section = raw.get(name, {})
    _check_keys(section, _field_names(cls) - {skip}, name)
    defaults = cls()
    return {
        key: _typed(f"{name}.{key}", getattr(defaults, key), value)
        for key, value in section.items()
    }


@dataclass(frozen=True)
class ProviderConfig:
    type: str = "hash"  # "hash" or "command"
    dim: int = 256
    command: tuple[str, ...] = ()
    name: str = ""

    def make(self):
        from .intent import CommandEmbeddingProvider, HashEmbeddingProvider

        if self.type == "hash":
            return HashEmbeddingProvider(dim=self.dim)
        if self.type == "command":
            if not self.command:
                raise ValueError("command provider needs a command")
            return CommandEmbeddingProvider(
                command=self.command,
                name=self.name or "command",
                dim=self.dim,
            )
        raise ValueError(f"unknown provider type {self.type!r}")


@dataclass(frozen=True)
class AppConfig:
    include_globs: tuple[str, ...] = DEFAULT_INCLUDE_GLOBS
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    @staticmethod
    def load(path: str | Path) -> "AppConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return AppConfig.from_dict(raw)

    @staticmethod
    def from_dict(raw: dict) -> "AppConfig":
        """Build from the keys present; omitted keys keep the field defaults.
        The ``runner`` section becomes ``pipeline.runner``. Raises
        ``ValueError`` for an unknown key, a value of the wrong type or an
        include glob that could name no file inside the root."""
        _check_keys(raw, _field_names(AppConfig) | {"runner"}, "config")
        top = {}
        if "include_globs" in raw:
            globs = _typed("include_globs", DEFAULT_INCLUDE_GLOBS, raw["include_globs"])
            for pattern in globs:
                include_glob_parts(pattern, "include_globs entry")
            top["include_globs"] = globs
        runner = RunnerConfig(**_section(RunnerConfig, raw, "runner"))
        return AppConfig(
            **top,
            provider=ProviderConfig(**_section(ProviderConfig, raw, "provider")),
            pipeline=PipelineConfig(
                **_section(PipelineConfig, raw, "pipeline", skip="runner"),
                runner=runner,
            ),
        )
