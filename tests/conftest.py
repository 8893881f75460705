from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import passthru
from passthru import pools
from passthru.panel_data import PanelDataset


@pytest.fixture
def passes_in_a_fork():
    """check -> None: run check() in an os.fork child; fail unless it returns True within 120 s."""
    def run(check) -> None:
        pid = os.fork()
        if pid == 0:  # the child must leave through os._exit, whatever happens
            code = 1
            try:
                code = 0 if check() else 2
            finally:
                try:
                    pools.discard()  # the child's own workers, which os._exit would leave running
                finally:
                    os._exit(code)
        deadline = time.monotonic() + 120
        while (ended := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if ended[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish within 120 s")
        assert os.waitstatus_to_exitcode(ended[1]) == 0

    return run


@pytest.fixture
def script_exits_cleanly(tmp_path):
    """source -> None: run the source as a script file that prints its pool's worker pids.

    The script must exit 0 with empty stderr, having started 2 workers, none
    of them left running.
    """
    def run(source: str) -> None:
        script = tmp_path / "script.py"
        script.write_text(source)
        src = str(Path(passthru.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0 and proc.stderr == ""
        workers = [int(pid) for pid in proc.stdout.split()]
        assert len(workers) == 2
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # signal 0 only checks that the process exists

    return run


@pytest.fixture
def toy_levels() -> PanelDataset:
    """Two countries, five years of index levels with one gap."""
    years = range(1990, 1995)
    cells = {
        "cpi": {
            ("AA", 1990): 100.0, ("AA", 1991): 102.0, ("AA", 1992): 105.0,
            ("AA", 1993): 105.0, ("AA", 1994): 108.0,
            ("BB", 1990): 50.0, ("BB", 1991): 51.0,
            ("BB", 1993): 53.0, ("BB", 1994): 55.0,
        },
        "ulc": {
            ("AA", y): 90.0 + 2.0 * (y - 1990) for y in years
        } | {
            ("BB", y): 70.0 + 1.5 * (y - 1990) for y in years
        },
    }
    return PanelDataset(["AA", "BB"], years, cells)


def make_panel(series: dict, countries, years) -> PanelDataset:
    return PanelDataset(countries, years, series)
