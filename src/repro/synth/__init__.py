"""Template-synthesis repair engine (rtl-repair style, ``engine="synth"``).

A second repair engine behind :mod:`repro.core.engines`: instead of
evolving patches with genetic programming, it enumerates the rtl-repair
template catalog over the fault-localized AST and brute-force-solves
each template's free choices against the instrumented testbench trace.
See ``docs/synthesis.md``.

Modules:

- :mod:`repro.synth.templates` — the template catalog (each the inverse
  of a :mod:`repro.mint.mutators` defect family);
- :mod:`repro.synth.solver` — deterministic free-choice domains
  (4-state literal search, oracle mining, fault-scope bookkeeping);
- :mod:`repro.synth.engine` — the :class:`SynthEngine` trial loop and
  the registered ``synth`` runner;
- :mod:`repro.synth.race` — ``engine="race"``: escalation from this
  engine to GP when it finds no plausible repair.
"""

from .engine import SynthEngine, synth_repair
from .race import race_repair
from .solver import SolveContext, literal_domain, mine_literals
from .templates import TEMPLATES, TEMPLATES_BY_NAME, SynthTemplate

__all__ = [
    "SolveContext",
    "SynthEngine",
    "SynthTemplate",
    "TEMPLATES",
    "TEMPLATES_BY_NAME",
    "literal_domain",
    "mine_literals",
    "race_repair",
    "synth_repair",
]
