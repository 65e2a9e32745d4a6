"""The persistent pool's workers answer for themselves."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

# A server in miniature: an event loop with SIGTERM hooked (as
# ``run_server`` hooks it), then a pool whose worker forks on the
# first submit.  It prints the worker's pid, waits for a line on
# stdin, and prints whether its own SIGTERM handler ever ran.
_SERVER = textwrap.dedent("""
    import asyncio, os, signal, sys
    from repro.parallel.pool import PersistentPool

    async def main():
        loop = asyncio.get_running_loop()
        drained = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, drained.set)
        pool = PersistentPool(1)
        print(await pool.run(os.getpid, shard=0), flush=True)
        await loop.run_in_executor(None, sys.stdin.readline)
        print("drained" if drained.is_set() else "serving", flush=True)
        pool.shutdown(wait=False)

    asyncio.run(main())
""")


def _exited(pid: int) -> bool:
    """Whether ``pid`` is gone or a zombie waiting for its parent."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc for liveness"
)
def test_sigterm_stops_the_worker_not_the_server():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])]
    )
    server = subprocess.Popen(
        [sys.executable, "-c", _SERVER],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    worker = None
    try:
        ready, _, _ = select.select([server.stdout], [], [], 60.0)
        assert ready, "the server never reported its worker"
        worker = int(server.stdout.readline())
        os.kill(worker, signal.SIGTERM)
        deadline = time.monotonic() + 10.0
        while not _exited(worker) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert _exited(worker), "the worker ignored SIGTERM"
        assert server.poll() is None, "the server died with its worker"
        out, _ = server.communicate("\n", timeout=30)
        assert out.split() == ["serving"]
        assert server.returncode == 0
    finally:
        if worker is not None and not _exited(worker):
            os.kill(worker, signal.SIGKILL)
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
