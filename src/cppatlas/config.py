"""Application configuration loaded from a JSON file.

Unknown keys are rejected rather than ignored, so a typo in a config
file fails loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .pipeline import PipelineConfig
from .repo import DEFAULT_INCLUDE_GLOBS
from .runner import RunnerConfig


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _check_keys(data: dict, allowed: set[str], where: str):
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


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
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    @staticmethod
    def load(path: str | Path) -> "AppConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return AppConfig.from_dict(raw)

    @staticmethod
    def from_dict(raw: dict) -> "AppConfig":
        """Build from the keys present; omitted keys keep the field defaults."""
        _check_keys(raw, _field_names(AppConfig), "config")
        provider_raw = dict(raw.get("provider", {}))
        _check_keys(provider_raw, _field_names(ProviderConfig), "provider")
        if "command" in provider_raw:
            provider_raw["command"] = tuple(provider_raw["command"])
        runner_raw = raw.get("runner", {})
        _check_keys(runner_raw, _field_names(RunnerConfig), "runner")
        runner = RunnerConfig(**runner_raw)
        pipeline_raw = dict(raw.get("pipeline", {}))
        _check_keys(
            pipeline_raw, _field_names(PipelineConfig) - {"runner"}, "pipeline"
        )
        if "vote_weights" in pipeline_raw:
            weights = pipeline_raw["vote_weights"]
            if len(weights) != 3:
                raise ValueError("vote_weights must have three entries")
            pipeline_raw["vote_weights"] = tuple(float(w) for w in weights)
        top = {}
        if "include_globs" in raw:
            top["include_globs"] = tuple(raw["include_globs"])
        return AppConfig(
            **top,
            provider=ProviderConfig(**provider_raw),
            runner=runner,
            pipeline=PipelineConfig(**pipeline_raw, runner=runner),
        )
