"""Sketch-guided technology mapper.

Kept import-light on purpose: ``python -m sketchmap.solver`` pays for
this module on every start.  The portfolio's bundled solver child does
not: it runs the solver's code shipped over its stdin by the parent and
imports nothing of the package from disk.
"""

__version__ = "0.1.0"
