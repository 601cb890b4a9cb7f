"""Concurrent solver execution: first answer wins, stragglers die, and a
session's children serve query after query."""

import json
import os
import subprocess
import sys
import time

import pytest

import sketchmap
from sketchmap.arch import load_arch, packaged_arch_path
from sketchmap.bench import run_corpus, write_corpus
from sketchmap.portfolio import (
    AllSolversFailed, PortfolioTimeout, SolverConfig, SolverError,
    SolverSession, default_portfolio, load_solver_config, portfolio_solve,
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
# answers unsat to everything and prints echo strings with their quotes
QUOTING = SolverConfig("quoting", (sys.executable, "-c", (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    if line.startswith('(check-sat'):\n"
    "        print('unsat', flush=True)\n"
    "    elif line.startswith('(echo'):\n"
    "        print(line[len('(echo '):-len(')\\n')], flush=True)\n")))
# multiplication commutes, but 32-bit operands are far beyond the builtin
HARD_QUERY = """\
(declare-const x (_ BitVec 32))
(declare-const y (_ BitVec 32))
(assert (distinct (bvmul x y) (bvmul y x)))
(check-sat)
(exit)
"""


def _spy_on_children(monkeypatch) -> list:
    """Every process started from here on, for checking that each one
    was waited for."""
    spawned = []

    class Spy(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spawned.append(self)

    monkeypatch.setattr(subprocess, "Popen", Spy)
    return spawned


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


def test_session_serves_queries_from_one_child():
    with SolverSession() as session:
        children = set()
        for query in (SAT_QUERY, UNSAT_QUERY, SAT_QUERY):
            r = portfolio_solve(query, session=session)
            alone = portfolio_solve(query)
            assert (r.status, r.model, r.winner) == \
                (alone.status, alone.model, alone.winner)
            children.add(session._children["builtin"].pid)
    assert len(children) == 1


def test_session_respawns_a_timed_out_child():
    with SolverSession() as session:
        portfolio_solve(SAT_QUERY, session=session)
        first = session._children["builtin"]
        with pytest.raises(PortfolioTimeout):
            portfolio_solve(HARD_QUERY, session=session, timeout=1.0)
        assert first.returncode is not None, "killed and waited for"
        r = portfolio_solve(SAT_QUERY, session=session)
        assert r.status == "sat" and r.model["x"].value == 3
        assert session._children["builtin"] is not first


def test_session_reports_and_survives_a_malformed_query():
    with SolverSession() as session:
        with pytest.raises(AllSolversFailed,
                           match="unsupported command 'bogus'"):
            portfolio_solve("(bogus)\n(exit)\n", session=session)
        r = portfolio_solve(SAT_QUERY, session=session)
        assert r.status == "sat" and r.model["x"].value == 3


def test_session_accepts_a_quoted_marker():
    with SolverSession() as session:
        for _ in range(2):
            r = portfolio_solve(UNSAT_QUERY, [QUOTING], timeout=60,
                                session=session)
            assert (r.status, r.winner) == ("unsat", "quoting")
            child = session._children["quoting"]
            assert child.poll() is None
        assert session._children["quoting"] is child


def test_close_waits_for_every_child(monkeypatch):
    spawned = _spy_on_children(monkeypatch)
    builtin = default_portfolio()[0]
    twin = SolverConfig("twin", builtin.command)
    with SolverSession() as session:
        for query in (SAT_QUERY, UNSAT_QUERY, SAT_QUERY):
            portfolio_solve(query, [WEDGED, twin, builtin], timeout=60,
                            session=session)
    assert len(spawned) >= 4       # wedged twice, twin and builtin
    assert all(p.returncode is not None for p in spawned)


def test_run_corpus_jobs_agree_and_leave_no_child(tmp_path, monkeypatch):
    write_corpus(tmp_path)
    arch = load_arch(packaged_arch_path("minidsp.yml"))
    only = ["mul_w08_d0", "mul_add_w08_d1", "add_mul_xor_w08_d0",
            "sub_mul_or_w09_d2"]
    rows = {}
    for jobs in (1, 3):
        spawned = _spy_on_children(monkeypatch)
        rows[jobs] = sorted((r.name, r.outcome, r.solver) for r in
                            run_corpus(tmp_path, arch, jobs=jobs,
                                       sim_cycles=100, only=only))
        assert 1 <= len(spawned) <= jobs, "one child per session"
        assert all(p.returncode is not None for p in spawned)
    assert [name for name, _, _ in rows[1]] == sorted(only)
    assert rows[1] == rows[3]
