"""Sandboxed test execution against materialized repository snapshots.

A snapshot is written to a scratch directory and each test command runs
with that directory as its working directory. Outcomes are judged purely
by exit code: zero passes, anything else fails, and a wall-clock overrun
is reported as ``timeout``.

A test finishes when its stdout and stderr have both reached end of file
and its process has exited, all before the deadline. One poll loop waits
for all three at once: the exit is watched through a pidfd, so the loop
wakes the moment the test exits and never sleeps between checks. Where
``os.pidfd_open`` is missing or fails, the loop waits on the pipes alone
and then on ``Popen.wait`` for what is left of the deadline, which polls
the exit with short sleeps.
"""

from __future__ import annotations

import os
import selectors
import shutil
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MaterializationFailed, RunnerUnavailable
from .repo import Repository

_OUTPUT_LIMIT = 65536
_READ_SIZE = 65536


@dataclass(frozen=True)
class RunnerConfig:
    scratch_root: str | None = None
    timeout_seconds: float = 30.0
    output_limit_bytes: int = _OUTPUT_LIMIT


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
        """Rejects a command that is not a list of strings, or a bad timeout."""
        command, timeout = data["command"], data.get("timeout_seconds")
        if not (isinstance(command, list) and all(isinstance(a, str) for a in command)):
            raise ValueError(f"bad test command {command!r}")
        in_range = type(timeout) in (int, float) and 0 <= timeout < float("inf")
        if timeout is not None and not in_range:
            raise ValueError(f"bad test timeout {timeout!r}")
        return TestCase(
            test_id=str(data["test_id"]),
            command=tuple(command),
            timeout_seconds=timeout,
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
    """Materialize ``repo`` and run one test command inside it. Raises
    ``RunnerUnavailable`` for a command that cannot be launched."""
    if not test.command:
        raise RunnerUnavailable(f"test {test.test_id!r} has an empty command")
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
        # OSError: no such program, or not one that runs; ValueError: an
        # argument holding a NUL byte or a lone surrogate
        except (OSError, ValueError) as exc:
            raise RunnerUnavailable(f"cannot launch {command[0]!r}: {exc}") from exc
        with proc:
            finished, stdout, stderr = _collect(proc, timeout)
        if not finished:
            status = "timeout"
        else:
            status = "pass" if proc.returncode == 0 else "fail"
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
        shutil.rmtree(scratch_path, ignore_errors=True)


def _collect(proc: subprocess.Popen, timeout: float) -> tuple[bool, bytes, bytes]:
    """Read the test's stdout and stderr until both reach end of file and
    the test has exited, or until ``timeout`` seconds pass; then SIGKILL
    its process group and reap it. Returns whether it finished in time,
    and what it wrote to each stream by then."""
    deadline = time.monotonic() + timeout
    out, err = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out: [], err: []}
    pidfd = _open_pidfd(proc.pid)
    try:
        with selectors.PollSelector() as selector:
            for fd in (out, err, pidfd):
                if fd is not None:
                    selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                ready = selector.select(remaining)
                if time.monotonic() > deadline:
                    break
                for key, _ in ready:
                    data = b"" if key.fd == pidfd else os.read(key.fd, _READ_SIZE)
                    if data:
                        chunks[key.fd].append(data)
                    else:  # end of file, or the test exited
                        selector.unregister(key.fd)
            finished = not selector.get_map()
        if finished and pidfd is None:
            try:
                proc.wait(timeout=deadline - time.monotonic())
            except subprocess.TimeoutExpired:
                finished = False
    finally:
        # Unless the fallback's wait reaped it, the leader is alive or an
        # unreaped zombie here, so its pid, which is the group's id, cannot
        # have passed to another process.
        _kill_group(proc)
        if pidfd is not None:
            os.close(pidfd)
    proc.wait()
    return finished, b"".join(chunks[out]), b"".join(chunks[err])


def _open_pidfd(pid: int) -> int | None:
    """A descriptor that polls readable once ``pid`` exits, or None where
    the platform has none to give."""
    try:
        return os.pidfd_open(pid)
    except (AttributeError, OSError):  # no pidfd_open, or it failed
        return None


def _kill_group(proc: subprocess.Popen):
    """SIGKILL the process group the test leads; it may be gone already."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
