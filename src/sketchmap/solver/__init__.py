"""Bundled QF_BV solver: SMT-LIB2 front end, AIG bit-blaster, CDCL SAT.

Runs as a subprocess (``python -m sketchmap.solver``, or the portfolio's
bundled child, which runs the same modules' code sent over its stdin) so
the portfolio treats it exactly like any external solver.  Pure Python,
deterministic, no dependencies.

The package loads sat, aig and qfbv as the import system would and keeps
their code in CODE, which the portfolio ships to its children: a process
compiles the solver once even when no bytecode is written.
"""

import importlib.util
import sys

CODE = {}                               # module's short name -> its code
for _short in ("sat", "aig", "qfbv"):   # each after its imports
    _spec = importlib.util.find_spec(f"{__name__}.{_short}")
    CODE[_short] = _spec.loader.get_code(_spec.name)
    globals()[_short] = sys.modules[_spec.name] = \
        importlib.util.module_from_spec(_spec)
    exec(CODE[_short], vars(globals()[_short]))
