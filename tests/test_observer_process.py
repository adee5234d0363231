"""simulate's observers in a forked child process (diagnostics._ObserverRelay):
the same bytes as in-process, and every failure reaped and reported."""

import contextlib
import os
import signal
from pathlib import Path

import pytest

from transmission import cli, operators
from transmission.cli import EXIT_BLOWUP, EXIT_NUMERIC, EXIT_OK, main
from transmission.diagnostics import HolderModulus
from transmission.operators import NumericError

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SMALL = """
[geometry]
n = 8

[bulk_nonlinearity]
terms = 1.0:2.0

[interface_nonlinearity]
terms = 1.0:0.0

[time]
horizon = 0.2
"""


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returns to the parent, in order."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _cpus(monkeypatch, count: int) -> None:
    """Let the process run on `count` CPUs, as the relay's probe sees it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _assert_reaped(pid: int) -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds: float):
    """A hang inside the block fails the test instead."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _outputs(out: Path) -> dict:
    return {path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "run.log"}


# config, environment overrides, exit code
CASES = {
    "bounded-n96": ("bounded.ini", {"TRANSMISSION_GEOMETRY__N": "96"}, EXIT_OK),
    "blowup": ("blowup.ini", {}, EXIT_BLOWUP),
    "stalled": ("blowup.ini", {"TRANSMISSION_TIME__DT_MIN": "1e-4"}, EXIT_NUMERIC),
    "snapshots": ("bounded.ini", {"TRANSMISSION_RUN__SNAPSHOT_STRIDE": "40"}, EXIT_OK),
}


@pytest.mark.parametrize("case", CASES)
def test_observer_process_writes_the_bytes_of_the_in_process_run(
        tmp_path, capsys, monkeypatch, forks, case):
    config, env, code = CASES[case]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    runs = []
    for count in (1, 2):
        _cpus(monkeypatch, count)
        out = tmp_path / f"cpus{count}"
        assert main(["simulate", "--config", str(CONFIGS / config),
                     "--out", str(out)]) == code
        runs.append((capsys.readouterr(), _outputs(out)))
    # only the run with a second CPU forks, and its child is reaped
    assert len(forks) == 1
    _assert_reaped(forks[0])
    assert runs[0] == runs[1]
    snapshots = [path for path in runs[0][1] if path.parts[0] == "snapshots"]
    assert bool(snapshots) == (case == "snapshots")


def test_observer_exception_is_raised_in_the_parent(tmp_path, monkeypatch, forks):
    class Failing(HolderModulus):
        calls = 0

        def __call__(self, t, dt, U):
            Failing.calls += 1
            if Failing.calls == 20:     # past the ring's 16 slots
                raise LookupError("observer failed at state 20")
            super().__call__(t, dt, U)

    monkeypatch.setattr(cli, "HolderModulus", Failing)
    _cpus(monkeypatch, 2)
    (tmp_path / "cfg.ini").write_text(SMALL)
    with pytest.raises(LookupError, match="^observer failed at state 20$"):
        main(["simulate", "--config", str(tmp_path / "cfg.ini"),
              "--out", str(tmp_path / "out")])
    assert Failing.calls == 0       # it failed in the child
    assert len(forks) == 1
    _assert_reaped(forks[0])


def test_observer_process_that_dies_is_a_numeric_error(tmp_path, capsys,
                                                       monkeypatch, forks):
    parent = os.getpid()

    class Dying(HolderModulus):
        calls = 0

        def __call__(self, t, dt, U):
            # in-process it would end the test run itself
            assert os.getpid() != parent, "the observers ran in-process"
            Dying.calls += 1
            if Dying.calls == 20:
                os._exit(9)
            super().__call__(t, dt, U)

    monkeypatch.setattr(cli, "HolderModulus", Dying)
    _cpus(monkeypatch, 2)
    (tmp_path / "cfg.ini").write_text(SMALL)
    with _deadline(60):
        code = main(["simulate", "--config", str(tmp_path / "cfg.ini"),
                     "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err == "numeric error: the observer process ended without its result\n"
    assert len(forks) == 1
    _assert_reaped(forks[0])
    assert not (tmp_path / "out" / "trajectory.csv").exists()


@pytest.mark.parametrize("error", [NumericError, KeyboardInterrupt])
def test_parent_exception_reaps_the_observer_process(tmp_path, capsys, monkeypatch,
                                                     forks, error):
    solve = operators._GridSolver.solve
    calls = []

    def failing_solve(self, b):
        calls.append(1)
        if len(calls) == 30:
            raise error("solve failed")
        return solve(self, b)

    monkeypatch.setattr(operators._GridSolver, "solve", failing_solve)
    _cpus(monkeypatch, 2)
    (tmp_path / "cfg.ini").write_text(SMALL)
    argv = ["simulate", "--config", str(tmp_path / "cfg.ini"),
            "--out", str(tmp_path / "out")]
    if error is NumericError:
        assert main(argv) == EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric error: solve failed\n"
    else:
        with pytest.raises(KeyboardInterrupt, match="^solve failed$"):
            main(argv)
    assert len(calls) == 30
    assert len(forks) == 1
    _assert_reaped(forks[0])
    assert not (tmp_path / "out" / "trajectory.csv").exists()
