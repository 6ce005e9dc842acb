import os
import pathlib
import subprocess
import sys

import pytest

from cppatlas.errors import MaterializationFailed, RunnerUnavailable
from cppatlas.repo import Repository, SourceUnit
from cppatlas.runner import RunnerConfig, TestCase, run_test, run_tests

PY = sys.executable


def repo_of(**files) -> Repository:
    units = tuple(SourceUnit.make(p, c) for p, c in files.items())
    return Repository("/virtual", units)


def py_test(test_id: str, code: str, **kw) -> TestCase:
    return TestCase(test_id=test_id, command=(PY, "-c", code), **kw)


def test_pass_and_fail_statuses(tmp_path):
    repo = repo_of(**{"src/flag.txt": "ok\n"})
    config = RunnerConfig(scratch_root=str(tmp_path))
    good = run_test(
        repo,
        py_test(
            "reads_file",
            "import sys,pathlib;"
            "sys.exit(0 if pathlib.Path('src/flag.txt').read_text()=='ok\\n' else 1)",
        ),
        config,
    )
    assert good.status == "pass" and good.passed and good.exit_code == 0

    bad = run_test(repo, py_test("fails", "import sys; sys.exit(3)"), config)
    assert bad.status == "fail" and not bad.passed and bad.exit_code == 3


def test_command_runs_in_materialized_copy(tmp_path):
    repo = repo_of(**{"note.txt": "contents here\n"})
    outcome = run_test(
        repo,
        py_test("cat", "print(open('note.txt').read().strip())"),
        RunnerConfig(scratch_root=str(tmp_path)),
    )
    assert outcome.stdout.strip() == "contents here"
    # scratch directory is cleaned up afterwards
    assert list(tmp_path.iterdir()) == []


def test_root_placeholder_substitution(tmp_path):
    repo = repo_of(**{"x.txt": "1\n"})
    outcome = run_test(
        repo,
        TestCase("echo_root", (PY, "-c", "import sys;print(sys.argv[1])", "{root}")),
        RunnerConfig(scratch_root=str(tmp_path)),
    )
    assert outcome.stdout.strip().startswith(str(tmp_path))


def test_timeout_outcome(tmp_path):
    repo = repo_of(**{"x.txt": "1\n"})
    outcome = run_test(
        repo,
        py_test("sleeper", "import time; time.sleep(30)", timeout_seconds=0.3),
        RunnerConfig(scratch_root=str(tmp_path)),
    )
    assert outcome.status == "timeout"
    assert not outcome.passed


# Runs in an interpreter of its own that is a child subreaper: the killed
# test's orphans become its children, and it reaps the dead ones at once
# rather than wait for init to. Prints the verdict, then "gone" once the
# test's process group and its background child are both gone, or "alive"
# after 3 s. The command prints its own pid, which leads its group, and
# the background child's.
_GROUP_CHECK = """
import ctypes, os, signal, sys, time
from cppatlas.repo import Repository
from cppatlas.runner import RunnerConfig, TestCase, run_test
PR_SET_CHILD_SUBREAPER = 36
assert ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
case = TestCase("bg", ("sh", "-c", sys.argv[2]), timeout_seconds=0.5)
outcome = run_test(Repository("/virtual", ()), case, RunnerConfig(sys.argv[1]))
pgid, child = map(int, outcome.stdout.split())
deadline = time.monotonic() + 3
while True:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        try:
            os.kill(child, 0)
        except ProcessLookupError:
            print(outcome.status, "gone")
            break
    if time.monotonic() > deadline:
        os.kill(child, signal.SIGKILL)
        print(outcome.status, "alive")
        break
    time.sleep(0.01)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="child subreapers are Linux-only")
@pytest.mark.parametrize(
    "script, verdict",
    [
        ("sleep 7.654 & echo $$ $!; wait", "timeout"),
        ("sleep 7.654 >/dev/null 2>&1 & echo $$ $!", "pass"),
    ],
    ids=["timeout", "exit"],
)
def test_no_process_of_the_test_survives(tmp_path, script, verdict):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    checked = subprocess.run(
        [PY, "-c", _GROUP_CHECK, str(tmp_path), script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert checked.stdout.split() == [verdict, "gone"], checked.stderr


def test_missing_binary_raises(tmp_path):
    repo = repo_of(**{"x.txt": "1\n"})
    with pytest.raises(RunnerUnavailable):
        run_test(
            repo,
            TestCase("nope", ("/no/such/binary-cppatlas",)),
            RunnerConfig(scratch_root=str(tmp_path)),
        )


def test_unsafe_paths_rejected(tmp_path):
    evil = Repository(
        "/virtual", (SourceUnit.make("../escape.txt", "x\n"),)
    )
    with pytest.raises(MaterializationFailed):
        run_test(
            evil,
            py_test("never", "pass"),
            RunnerConfig(scratch_root=str(tmp_path)),
        )


def test_output_truncation(tmp_path):
    repo = repo_of(**{"x.txt": "1\n"})
    outcome = run_test(
        repo,
        py_test("spam", "print('y' * 100000)"),
        RunnerConfig(scratch_root=str(tmp_path), output_limit_bytes=1000),
    )
    assert len(outcome.stdout.encode()) <= 1100  # limit plus truncation note


def test_run_tests_preserves_order(tmp_path):
    repo = repo_of(**{"x.txt": "1\n"})
    outcomes = run_tests(
        repo,
        [
            py_test("one", "pass"),
            py_test("two", "import sys;sys.exit(1)"),
        ],
        RunnerConfig(scratch_root=str(tmp_path)),
    )
    assert [o.test_id for o in outcomes] == ["one", "two"]
    assert [o.status for o in outcomes] == ["pass", "fail"]


def test_case_dict_round_trip():
    case = py_test("rt", "pass", timeout_seconds=5.0, description="round trip")
    assert TestCase.from_dict(case.to_dict()) == case
