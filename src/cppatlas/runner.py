"""Sandboxed test execution against materialized repository snapshots.

A snapshot is written to a scratch directory and each test command runs
with that directory as its working directory. Outcomes are judged purely
by exit code: zero passes, anything else fails, and a wall-clock overrun
is reported as ``timeout``.
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MaterializationFailed, RunnerUnavailable
from .repo import Repository

log = logging.getLogger(__name__)

_OUTPUT_LIMIT = 65536


@dataclass(frozen=True)
class RunnerConfig:
    scratch_root: str | None = None
    timeout_seconds: float = 30.0
    output_limit_bytes: int = _OUTPUT_LIMIT
    keep_scratch: bool = False


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # not a pytest class, despite the name

    test_id: str
    command: tuple[str, ...]
    timeout_seconds: float | None = None
    description: str = ""

    def to_dict(self) -> dict:
        return {
            "test_id": self.test_id,
            "command": list(self.command),
            "timeout_seconds": self.timeout_seconds,
            "description": self.description,
        }

    @staticmethod
    def from_dict(data: dict) -> "TestCase":
        return TestCase(
            test_id=str(data["test_id"]),
            command=tuple(str(a) for a in data["command"]),
            timeout_seconds=data.get("timeout_seconds"),
            description=data.get("description", ""),
        )


@dataclass(frozen=True)
class TestOutcome:
    __test__ = False  # not a pytest class, despite the name

    test_id: str
    status: str  # pass | fail | timeout | error
    exit_code: int | None
    stdout: str
    stderr: str
    duration_seconds: float
    command: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "test_id": self.test_id,
            "status": self.status,
            "exit_code": self.exit_code,
            "stdout": self.stdout,
            "stderr": self.stderr,
            "duration_seconds": self.duration_seconds,
            "command": list(self.command),
        }


def materialize_repo(repo: Repository, dest: Path):
    """Write every unit under ``dest``; paths must stay inside it."""
    dest = dest.resolve()
    for unit in repo.units:
        rel = Path(unit.path)
        if rel.is_absolute() or ".." in rel.parts:
            raise MaterializationFailed(f"unsafe unit path: {unit.path}")
        target = dest / rel
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(unit.content, encoding="utf-8")
        except OSError as exc:
            raise MaterializationFailed(f"cannot write {unit.path}: {exc}") from exc


def _truncate(data: bytes, limit: int) -> str:
    text = data.decode("utf-8", errors="replace")
    if len(text) <= limit:
        return text
    return text[:limit] + "\n[truncated]"


def run_test(
    repo: Repository, test: TestCase, config: RunnerConfig | None = None
) -> TestOutcome:
    """Materialize ``repo`` and run one test command inside it."""
    config = config or RunnerConfig()
    scratch = tempfile.mkdtemp(prefix="cppatlas-run-", dir=config.scratch_root)
    scratch_path = Path(scratch)
    timeout = (
        test.timeout_seconds
        if test.timeout_seconds is not None
        else config.timeout_seconds
    )
    command = tuple(arg.replace("{root}", str(scratch_path)) for arg in test.command)
    started = time.monotonic()
    try:
        materialize_repo(repo, scratch_path)
        try:
            # a session of its own, so that the test's whole process group,
            # background children included, can be killed at once
            proc = subprocess.Popen(
                command,
                cwd=scratch_path,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                start_new_session=True,
            )
        except FileNotFoundError as exc:
            raise RunnerUnavailable(f"cannot launch {command[0]!r}: {exc}") from exc
        with proc:
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
                status = "pass" if proc.returncode == 0 else "fail"
            except subprocess.TimeoutExpired as exc:
                stdout, stderr = exc.stdout or b"", exc.stderr or b""
                status = "timeout"
            finally:
                _kill_group(proc)
        return TestOutcome(
            test_id=test.test_id,
            status=status,
            exit_code=None if status == "timeout" else proc.returncode,
            stdout=_truncate(stdout, config.output_limit_bytes),
            stderr=_truncate(stderr, config.output_limit_bytes),
            duration_seconds=time.monotonic() - started,
            command=command,
        )
    finally:
        if not config.keep_scratch:
            shutil.rmtree(scratch_path, ignore_errors=True)


def _kill_group(proc: subprocess.Popen):
    """SIGKILL the process group the test leads; it may be gone already."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_tests(
    repo: Repository, tests: list[TestCase], config: RunnerConfig | None = None
) -> list[TestOutcome]:
    """Run tests sequentially in their given order."""
    outcomes = []
    for test in tests:
        outcome = run_test(repo, test, config)
        log.debug("test %s: %s", test.test_id, outcome.status)
        outcomes.append(outcome)
    return outcomes
