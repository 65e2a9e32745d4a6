"""What a command loads at start-up, checked in fresh interpreters.

A command imports only what it runs: the serve path loads no experiment
module and none of the simulator layers a server never calls, and a
serial report loads no pool or event-loop machinery.  The registry
lists the experiments in canonical order, whichever module a process
happened to import first.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.experiments import MODULES

SRC = str(Path(repro.__file__).resolve().parents[1])


def _fresh(code: str):
    """Run ``code`` in a new interpreter; the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_registry_order_does_not_depend_on_import_order():
    """Importing two late experiments first leaves the order canonical."""
    seen = _fresh("""
        import json
        import repro.experiments.fec_eval
        import repro.experiments.mac_ablation
        from repro.experiments import engine
        from repro.experiments.report import report_specs

        specs = engine.specs()
        print(json.dumps({
            "modules": [s.module for s in specs],
            "names": [s.name for s in specs],
            "report": [s.name for s in report_specs()],
            "known": engine.known_names(),
        }))
    """)
    assert seen["modules"] == [f"repro.experiments.{m}" for m in MODULES]
    assert seen["names"][:2] == ["table2", "figure1"]
    assert seen["report"] == [n for n in seen["names"] if n in seen["report"]]
    assert len(seen["report"]) >= 13
    assert seen["known"][: len(MODULES)] == seen["names"]


def test_serve_path_loads_no_experiment_and_no_simulator_layer():
    loaded = _fresh("""
        import json
        import sys
        from repro import __main__

        __main__._build_parser(["serve"])
        import repro.serve.server

        print(json.dumps(sorted(sys.modules)))
    """)
    experiments = [
        name for name in loaded if name.startswith("repro.experiments.")
    ]
    assert experiments == ["repro.experiments.engine"]
    unused = ("repro.fec", "repro.mac", "repro.link", "repro.transport",
              "repro.scenario", "repro.trace.trial", "repro.serve.loadgen")
    assert [
        name for name in loaded
        if any(name == u or name.startswith(u + ".") for u in unused)
    ] == []


def test_serial_report_loads_no_pool_or_event_loop():
    loaded = _fresh("""
        import json
        import sys
        from repro.experiments import engine, report

        engine.load_all()
        report.build_report(scale=0.02, jobs=1)
        print(json.dumps(sorted(sys.modules)))
    """)
    for name in ("asyncio", "multiprocessing", "concurrent.futures.process",
                 "repro.parallel.pool"):
        assert name not in loaded


def test_load_all_imports_every_experiment_module():
    loaded = _fresh("""
        import json
        import sys
        from repro.experiments import engine

        engine.load_all()
        print(json.dumps(sorted(sys.modules)))
    """)
    for module in MODULES:
        assert f"repro.experiments.{module}" in loaded


def test_parser_without_a_command_accepts_every_name():
    """No command word, or a leading --help, still builds every command;
    each name's own parser accepts it too."""
    unparsed = _fresh("""
        import json
        from repro.__main__ import _build_parser
        from repro.experiments import engine

        missing = []
        for argv in (None, [], ["--help"]):
            parser = _build_parser(argv)
            for name in engine.known_names():
                args = parser.parse_args([name])
                if args.experiment != engine.canonical_name(name):
                    missing.append([argv, name])
        for name in engine.known_names():
            if _build_parser([name]).parse_args([name]).command != name:
                missing.append([[name], name])
        print(json.dumps(missing))
    """)
    assert unparsed == []
