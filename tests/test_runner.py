import dataclasses
import errno
import os
import pathlib
import subprocess
import sys
import time

import pytest

from cppatlas.errors import MaterializationFailed, RunnerUnavailable
from cppatlas.repo import Repository, SourceUnit
from cppatlas.runner import RunnerConfig, TestCase, run_test

import refrunner

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


# The ways run_test can wait for a test's exit: through a pidfd, and the
# fallback where os.pidfd_open is missing or raises OSError.
_WAITS = ["pidfd", "no pidfd_open", "pidfd_open fails"]


def _refuse_pidfd(pid, flags=0):
    raise OSError(errno.ENOSYS, "pidfd_open")


def _choose_wait(wait: str, monkeypatch):
    if wait == "pidfd":
        try:
            os.close(os.pidfd_open(os.getpid()))
        except (AttributeError, OSError):
            pytest.skip("no pidfds on this platform")
    elif wait == "no pidfd_open":
        monkeypatch.delattr(os, "pidfd_open", raising=False)
    else:
        monkeypatch.setattr(os, "pidfd_open", _refuse_pidfd, raising=False)


def _interleaved(stream_bytes: int) -> str:
    # writes each stream in turn, 3 KiB at a time, unbuffered: a reader
    # that drained one stream while the other's pipe was full would hang
    return (
        "import os\n"
        f"for i in range({stream_bytes // 3072}):\n"
        "    os.write(1, b'%03d' % i * 1024)\n"
        "    os.write(2, b'%03d' % (999 - i) * 1024)\n"
    )


# name: (test, output limit); each runs on the frozen runner once and on
# every wait of the live one
_CASES = {
    "pass": (py_test("pass", "import sys; print('out'); print('err', file=sys.stderr)"),
             65536),
    "exit 1": (py_test("exit1", "import sys; print('no'); sys.exit(1)"), 65536),
    "exit 2": (py_test("exit2", "import sys; print('bad', file=sys.stderr); sys.exit(2)"),
               65536),
    "exit 127": (TestCase("exit127", ("sh", "-c", "no-such-program-cppatlas")), 65536),
    "interleaved, over 64 KiB each": (py_test("big", _interleaved(200 * 1024)), 1 << 20),
    "truncated": (py_test(
        "trunc",
        "import os; os.write(1, b'\\xff\\xfe ' + 'é'.encode() * 3000 + b' tail');"
        "os.write(2, b'e' * 5000)"), 1000),
    "timeout of zero": (py_test("zero", "print('never')", timeout_seconds=0), 65536),
    "timeout, pipes open": (py_test(
        "open", "import time; print('before', flush=True); time.sleep(30)",
        timeout_seconds=0.5), 65536),
    "background child holds the pipe": (TestCase(
        "bg", ("sh", "-c", "echo hi; sleep 30 & exit 0"), timeout_seconds=0.5), 65536),
    "closes its pipes and sleeps on": (py_test(
        "closed",
        "import os, time; print('before', flush=True); os.close(1); os.close(2);"
        "time.sleep(30)", timeout_seconds=0.5), 65536),
}


@pytest.fixture(scope="module")
def reference_outcomes(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("reference"))
    repo = repo_of(**{"x.txt": "1\n"})
    return {
        name: refrunner.run_test(repo, test, RunnerConfig(root, output_limit_bytes=limit))
        for name, (test, limit) in _CASES.items()
    }


def _fields(outcome):
    return outcome.test_id, outcome.status, outcome.exit_code, outcome.stdout, outcome.stderr


@pytest.mark.parametrize("wait", _WAITS)
@pytest.mark.parametrize("name", list(_CASES))
def test_outcomes_match_the_frozen_runner(reference_outcomes, tmp_path, monkeypatch,
                                          name, wait):
    _choose_wait(wait, monkeypatch)
    test, limit = _CASES[name]
    started = time.monotonic()
    live = run_test(repo_of(**{"x.txt": "1\n"}), test,
                    RunnerConfig(str(tmp_path), output_limit_bytes=limit))
    elapsed = time.monotonic() - started
    reference = reference_outcomes[name]
    if name == "closes its pipes and sleeps on":
        # A declared difference: the frozen runner drops what a test wrote
        # before it closed its pipes and then overran; the live one keeps it.
        assert (reference.stdout, live.stdout) == ("", "before\n")
        reference = dataclasses.replace(reference, stdout=live.stdout)
        assert elapsed < test.timeout_seconds + 1
    assert _fields(live) == _fields(reference)
    assert list(tmp_path.iterdir()) == []


def test_the_pidfd_wait_never_sleeps(tmp_path, monkeypatch):
    # Popen.wait(timeout=...) polls the exit with time.sleep, and a test as
    # quick as this one has nearly always closed its pipes but not yet
    # exited when the pipes are read; through a pidfd, the wait wakes on
    # the exit itself
    _choose_wait("pidfd", monkeypatch)

    def no_sleep(seconds):
        raise AssertionError(f"slept {seconds} s")

    monkeypatch.setattr(time, "sleep", no_sleep)
    config = RunnerConfig(scratch_root=str(tmp_path))
    for _ in range(20):
        outcome = run_test(repo_of(**{"x.txt": "1\n"}),
                           TestCase("quick", ("sh", "-c", "exit 0")), config)
        assert outcome.status == "pass"


# Runs in an interpreter of its own that is a child subreaper: the killed
# test's orphans become its children, and it reaps the dead ones at once
# rather than wait for init to. Prints the verdict, then "gone" once the
# test's process group and its background child are both gone, or "alive"
# after 3 s. The command prints its own pid, which leads its group, and
# the background child's. The third argument picks the wait, as _choose_wait
# does.
_GROUP_CHECK = """
import ctypes, errno, os, signal, sys, time
from cppatlas.repo import Repository
from cppatlas.runner import RunnerConfig, TestCase, run_test
if sys.argv[3] == "no pidfd_open" and hasattr(os, "pidfd_open"):
    del os.pidfd_open
elif sys.argv[3] == "pidfd_open fails":
    def refuse(pid, flags=0):
        raise OSError(errno.ENOSYS, "pidfd_open")
    os.pidfd_open = refuse
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


_LINUX_ONLY = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                 reason="child subreapers are Linux-only")
_GROUP_SCRIPTS = pytest.mark.parametrize(
    "script, verdict",
    [
        ("sleep 7.654 & echo $$ $!; wait", "timeout"),
        ("sleep 7.654 >/dev/null 2>&1 & echo $$ $!", "pass"),
    ],
    ids=["timeout", "exit"],
)


def _check_group(tmp_path, script, verdict, wait):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    checked = subprocess.run(
        [PY, "-c", _GROUP_CHECK, str(tmp_path), script, wait],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert checked.stdout.split() == [verdict, "gone"], checked.stderr


@_LINUX_ONLY
@_GROUP_SCRIPTS
def test_no_process_of_the_test_survives(tmp_path, script, verdict):
    _check_group(tmp_path, script, verdict, "pidfd")


@_LINUX_ONLY
@pytest.mark.parametrize("wait", _WAITS[1:])
@_GROUP_SCRIPTS
def test_no_process_of_the_test_survives_the_fallback_wait(tmp_path, script,
                                                          verdict, wait):
    _check_group(tmp_path, script, verdict, wait)


def test_missing_binary_raises(tmp_path):
    repo = repo_of(**{"x.txt": "1\n"})
    with pytest.raises(RunnerUnavailable):
        run_test(
            repo,
            TestCase("nope", ("/no/such/binary-cppatlas",)),
            RunnerConfig(scratch_root=str(tmp_path)),
        )


@pytest.mark.parametrize("command", [(), ("",), (PY, "-c", "pass\0"), (PY, "\ud800")],
                         ids=["empty", "empty program", "NUL", "lone surrogate"])
def test_unlaunchable_command_raises(tmp_path, command):
    with pytest.raises(RunnerUnavailable):
        run_test(repo_of(**{"x.txt": "1\n"}), TestCase("bad", command),
                 RunnerConfig(scratch_root=str(tmp_path)))
    assert list(tmp_path.iterdir()) == []  # no scratch tree left behind


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


def test_case_dict_round_trip():
    case = py_test("rt", "pass", timeout_seconds=5.0, description="round trip")
    assert TestCase.from_dict(case.to_dict()) == case
