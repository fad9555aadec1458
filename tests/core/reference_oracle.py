"""Reference golden-run input for the differential test in
``test_golden_runs.py``.

:func:`combine_sources` is the combine that printed the design and the
testbench and parsed the text back as one tree, so that a golden run
simulated exactly what codegen emits.
:func:`repro.core.oracle.combine_sources` concatenates the trees it is
given instead; a golden run on either must be the same run.
"""

from __future__ import annotations

from repro.hdl import ast, generate, parse


def combine_sources(design: ast.Source, testbench: ast.Source) -> ast.Source:
    """Regenerate design and testbench and reparse them as one tree."""
    return parse(generate(design) + "\n" + generate(testbench))
