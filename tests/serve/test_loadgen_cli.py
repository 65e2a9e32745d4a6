"""``python -m repro loadgen`` end to end against a live server process."""

import pytest

from repro.__main__ import main
from repro.trace.persist import save_trace
from repro.trace.trial import TrialConfig, run_fast_trial
from tests.serve.test_ring_transport import _shm_names, live_server, needs_dev_shm


@pytest.fixture(scope="module")
def stored_trace(tmp_path_factory):
    """A small seeded ``.wlt2`` trace and its received-record count."""
    output = run_fast_trial(
        TrialConfig(name="loadgen-cli", packets=600, mean_level=29.5, seed=41)
    )
    path = tmp_path_factory.mktemp("loadgen") / "small.wlt2"
    save_trace(output.trace, path)
    return path, output.trace.packets_received


def _ring_segments() -> set:
    return {name for name in _shm_names() if name.startswith("repro_ring_")}


@needs_dev_shm
def test_loadgen_replays_trace_through_live_server(stored_trace, tmp_path, capsys):
    path, records = stored_trace
    sock = str(tmp_path / "serve.sock")
    before = _ring_segments()
    with live_server(sock, jobs=1) as srv:
        code = main(
            [
                "loadgen",
                "--connect", sock,
                "--trace", str(path),
                "--sessions", "2",
                "--chunk-records", "128",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert f"2 sessions, {2 * records} records in " in out
        assert "2 ring sessions" in out
        code = main(
            ["loadgen", "--connect", sock, "--trace", str(path), "--sessions", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert f"1 sessions, {records} records in " in out
    assert srv.returncode == 0, srv.output
    leaked = _ring_segments() - before
    assert leaked == set(), f"leaked ring segments: {leaked}"


def test_bad_connect_is_rejected_by_the_top_level_parser(capsys):
    code = main(["loadgen", "--connect", "nonsense", "--trace", "absent.wlt2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage: python -m repro loadgen")
    assert "expected HOST:PORT or a socket path" in err
