"""Frozen copies of the test-execution path as it was before ``run_test``
woke on the test's exit through a pidfd and ``validate`` stopped running
the baseline of a regression test that passes on the patched snapshot.

``run_test`` waits with ``Popen.communicate(timeout=...)``, which polls the
test's exit with short sleeps once both pipes are closed, and kills the
test's process group after reaping its leader. ``validate`` asks the
baseline status of every regression test it reaches. `test_runner.py` and
`test_pipeline.py` compare the live code against these. Nothing in `src/`
imports this module; do not edit it to match `cppatlas.runner` or
`cppatlas.pipeline`.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import tempfile
import time
from pathlib import Path

from cppatlas.diffs import PatchCandidate, apply_patch
from cppatlas.errors import EngineError, MaterializationFailed, RunnerUnavailable
from cppatlas.repo import Repository
from cppatlas.runner import RunnerConfig, TestCase, TestOutcome


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
        shutil.rmtree(scratch_path, ignore_errors=True)


def _kill_group(proc: subprocess.Popen):
    """SIGKILL the process group the test leads; it may be gone already."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class BaselineCache:
    """Memoizes baseline test statuses per repository snapshot, so a
    pre-existing failure is computed once and never blamed on a patch."""

    def __init__(self):
        self._statuses: dict[tuple[str, str], str] = {}

    def status(
        self, repo: Repository, test: TestCase, runner: RunnerConfig
    ) -> str:
        key = (repo.snapshot_id, test.test_id)
        if key not in self._statuses:
            self._statuses[key] = run_test(repo, test, runner).status
        return self._statuses[key]

    def seed(self, repo: Repository, test_id: str, status: str):
        self._statuses[(repo.snapshot_id, test_id)] = status


def validate(
    repo: Repository,
    candidates: list[PatchCandidate],
    repro_tests: list[TestCase],
    regression_tests: list[TestCase],
    runner: RunnerConfig | None = None,
    cache: BaselineCache | None = None,
) -> dict[str, tuple[bool, str | None, list[TestOutcome]]]:
    """Per-candidate validation verdicts. A candidate is valid when all
    reproduction tests pass on the patched snapshot and no regression
    test that passed on the baseline fails on it."""
    runner = runner or RunnerConfig()
    cache = cache or BaselineCache()
    verdicts: dict[str, tuple[bool, str | None, list[TestOutcome]]] = {}
    for candidate in candidates:
        outcomes: list[TestOutcome] = []
        try:
            patched = apply_patch(repo, candidate)
        except EngineError as exc:
            verdicts[candidate.id] = (False, f"apply_failed:{exc.kind}", outcomes)
            continue
        verdict: tuple[bool, str | None, list[TestOutcome]] | None = None
        for test in repro_tests:
            outcome = run_test(patched, test, runner)
            outcomes.append(outcome)
            if outcome.status != "pass":
                verdict = (False, f"repro_still_failing:{test.test_id}", outcomes)
                break
        if verdict is None:
            for test in regression_tests:
                baseline_status = cache.status(repo, test, runner)
                outcome = run_test(patched, test, runner)
                outcomes.append(outcome)
                if baseline_status == "pass" and outcome.status != "pass":
                    verdict = (False, f"regression:{test.test_id}", outcomes)
                    break
        verdicts[candidate.id] = verdict or (True, None, outcomes)
    return verdicts
