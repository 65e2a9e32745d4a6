"""Declarative scenario layer: specs, compiler, registry, fleets.

The paper fixes a handful of physical setups (an office desk, the
Figure-4 concrete building, phone-cluttered conference rooms); each
used to be hand-coded inside its experiment module.  This package
makes topology *data*:

* :mod:`repro.scenario.spec` — the typed :class:`ScenarioSpec` model
  and fluent :class:`ScenarioBuilder`;
* :mod:`repro.scenario.compiler` — lowering to propagation models,
  floor plans, interference wiring, and engine-ready trial configs;
* :mod:`repro.scenario.registry` — the process-wide name registry
  (built-ins preloaded; YAML loadable);
* :mod:`repro.scenario.yamlio` — round-tripping specs through YAML;
* :mod:`repro.scenario.generate` — seeded fleets: grid sweeps, random
  layouts, multi-floor composition;
* :mod:`repro.scenario.fleet` — executing fleets through the
  experiment engine with ``jobs=N`` fan-out;
* :mod:`repro.scenario.render` — ASCII floor plans with signal
  contours;
* :mod:`repro.scenario.cli` — the ``python -m repro scenario``
  subcommands.

See ``docs/SCENARIOS.md`` for the YAML schema and a tour.
"""
