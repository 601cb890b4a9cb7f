"""Concurrent solver execution: first answer wins, stragglers die."""

import json
import os
import subprocess
import sys
import time

import pytest

import sketchmap
from sketchmap.portfolio import (
    AllSolversFailed, PortfolioTimeout, SolverConfig, SolverError,
    default_portfolio, load_solver_config, portfolio_solve,
)

SAT_QUERY = """\
(set-logic QF_BV)
(declare-const x (_ BitVec 4))
(assert (= (bvadd x #b0001) #b0100))
(check-sat)
(get-value (x))
(exit)
"""

UNSAT_QUERY = """\
(set-logic QF_BV)
(declare-const x (_ BitVec 4))
(assert (distinct (bvand x x) x))
(check-sat)
(exit)
"""

WEDGED = SolverConfig(
    "wedged", (sys.executable, "-c", "import time; time.sleep(600)"),
    timeout=600.0)
CRASHER = SolverConfig(
    "crasher", (sys.executable, "-c", "import sys; sys.exit(3)"))
LIAR = SolverConfig(
    "liar", (sys.executable, "-c", "print('maybe')"))


def test_builtin_sat():
    r = portfolio_solve(SAT_QUERY)
    assert r.status == "sat"
    assert r.model["x"].value == 3
    assert r.winner == "builtin"


def test_builtin_unsat():
    r = portfolio_solve(UNSAT_QUERY)
    assert r.status == "unsat"
    assert r.model == {}


def test_builtin_runs_from_the_imported_package(tmp_path):
    # A parent that found sketchmap through sys.path alone (no PYTHONPATH,
    # no installed package) must still be able to launch the solver.
    src = os.path.dirname(os.path.dirname(sketchmap.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "from sketchmap.portfolio import portfolio_solve; "
            f"print(portfolio_solve({SAT_QUERY!r}, timeout=60).status)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["sat"]


def test_wedged_loser_is_cancelled():
    start = time.monotonic()
    r = portfolio_solve(SAT_QUERY,
                        [WEDGED] + default_portfolio())
    elapsed = time.monotonic() - start
    assert r.status == "sat" and r.winner == "builtin"
    assert elapsed < 30, "the wedged solver's budget must not be awaited"


def test_all_wedged_times_out():
    start = time.monotonic()
    with pytest.raises(PortfolioTimeout):
        portfolio_solve(SAT_QUERY, [WEDGED], timeout=1.5)
    assert time.monotonic() - start < 20


def test_all_failing_raises():
    with pytest.raises(AllSolversFailed):
        portfolio_solve(SAT_QUERY, [CRASHER, LIAR], timeout=20)


def test_failures_do_not_mask_a_winner():
    r = portfolio_solve(SAT_QUERY,
                        [CRASHER, LIAR] + default_portfolio(), timeout=60)
    assert r.status == "sat" and r.winner == "builtin"


def test_empty_portfolio_rejected():
    with pytest.raises(SolverError):
        portfolio_solve(SAT_QUERY, [])


def test_config_loading(tmp_path):
    p = tmp_path / "solvers.json"
    p.write_text(json.dumps([
        {"name": "a", "command": ["prog", "--flag"], "timeout": 7},
        {"name": "b", "command": ["other"]},
    ]))
    cfgs = load_solver_config(str(p))
    assert cfgs[0] == SolverConfig("a", ("prog", "--flag"), 7.0)
    assert cfgs[1].timeout == 120.0
    (tmp_path / "bad.json").write_text("{}")
    with pytest.raises(SolverError):
        load_solver_config(str(tmp_path / "bad.json"))
    (tmp_path / "bad2.json").write_text(json.dumps([{"name": "x"}]))
    with pytest.raises(SolverError):
        load_solver_config(str(tmp_path / "bad2.json"))
