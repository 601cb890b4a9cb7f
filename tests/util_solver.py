"""Run a whole SMT-LIB script through the bundled solver in-process."""

from __future__ import annotations

from sketchmap.solver.qfbv import Script, parse_all


def run_script(text: str) -> str:
    s = Script()
    for cmd in parse_all(text):
        s.run_command(cmd)
    return "\n".join(s.output) + ("\n" if s.output else "")
