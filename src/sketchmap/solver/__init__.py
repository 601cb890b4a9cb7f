"""Bundled QF_BV solver: SMT-LIB2 front end, AIG bit-blaster, CDCL SAT.

Runs as a subprocess (``python -m sketchmap.solver``, or the portfolio's
bundled child, which runs the same modules' code sent over its stdin) so
the portfolio treats it exactly like any external solver.  Pure Python,
deterministic, no dependencies.
"""
