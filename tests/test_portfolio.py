"""Concurrent solver execution: first answer wins, stragglers die, and a
session's children serve query after query."""

import json
import marshal
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import sketchmap
from sketchmap import portfolio
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


def test_builtin_skips_site(tmp_path, monkeypatch):
    # the child runs under -S, so no sitecustomize (nor .pth file) runs
    (tmp_path / "sitecustomize.py").write_text(
        "raise SystemExit('sitecustomize ran')\n")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (str(tmp_path), os.environ.get("PYTHONPATH")) if p))
    assert portfolio_solve(SAT_QUERY).status == "sat"


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


_GOOD = {"name": "a", "command": ["prog"]}


@pytest.mark.parametrize("entries,why", [
    ([dict(_GOOD, command="z3 -in")], "list of strings as its command"),
    ([dict(_GOOD, command=[])], "list of strings as its command"),
    ([dict(_GOOD, command=["z3", 3])], "list of strings as its command"),
    ([dict(_GOOD, timeout="soon")], "positive number of seconds"),
    ([dict(_GOOD, timeout=0)], "positive number of seconds"),
    ([dict(_GOOD, timeout=True)], "positive number of seconds"),
    ([dict(_GOOD, timeout=float("inf"))], "positive number of seconds"),
    ([_GOOD, dict(_GOOD, name="")], "non-empty string name"),
    ([_GOOD, dict(_GOOD, name=7)], "non-empty string name"),
    ([_GOOD, dict(_GOOD, command=["other"])], "repeats the name 'a'"),
    ([_GOOD, ["a", "prog"]], "is not an object"),
])
def test_config_entries_are_validated_where_read(tmp_path, entries, why):
    p = tmp_path / "solvers.json"
    p.write_text(json.dumps(entries))
    entry = len(entries) - 1
    with pytest.raises(SolverError,
                       match=f"{re.escape(str(p))}: solver entry {entry} "
                             f".*{re.escape(why)}"):
        load_solver_config(str(p))


def test_config_that_is_not_json_is_a_solver_error(tmp_path):
    p = tmp_path / "solvers.json"
    p.write_text("[{")
    with pytest.raises(SolverError,
                       match=f"{re.escape(str(p))}: not valid JSON"):
        load_solver_config(str(p))


def test_portfolio_that_repeats_a_name_is_rejected():
    twice = default_portfolio() * 2
    with SolverSession() as session:
        with pytest.raises(SolverError, match="repeats a name"):
            session.solve(SAT_QUERY, twice)


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


def test_close_kills_a_wedged_child_at_once():
    session = SolverSession()
    child = session._child(WEDGED)
    start = time.monotonic()
    session.close()
    assert time.monotonic() - start < 1.0
    assert child.returncode is not None, "killed and waited for"
    assert not session._children


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


def test_children_read_no_source_and_write_no_file(tmp_path):
    # A mapper importing a copy of sketchmap, with bytecode writing off:
    # once the first child has started, the solver's sources can go, and
    # later children still answer, since each runs the code the parent
    # compiled once.  Neither side writes bytecode or a temp file.
    src = tmp_path / "src"
    shutil.copytree(os.path.dirname(sketchmap.__file__), src / "sketchmap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    code = (f"import glob, os, sys; sys.path.insert(0, {str(src)!r}); "
            "from sketchmap.portfolio import portfolio_solve; "
            f"print(portfolio_solve({SAT_QUERY!r}, timeout=60).status); "
            "[os.remove(f) for f in glob.glob("
            f"{str(src / 'sketchmap' / 'solver' / '*.py')!r})]; "
            "print([portfolio_solve(q, timeout=60).status for q in "
            f"({SAT_QUERY!r}, {UNSAT_QUERY!r}, {SAT_QUERY!r})])")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(tmp))
    r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["sat", "['sat', 'unsat', 'sat']"]
    assert not list((src / "sketchmap" / "solver").glob("*.py"))
    assert not list(src.rglob("__pycache__"))
    assert not list(tmp.iterdir())


def _hex_line(obj) -> bytes:
    return marshal.dumps(obj).hex().encode() + b"\n"


# each turns the good first line of a bundled child into a bad one
CORRUPTIONS = {
    "empty": lambda good: b"\n",
    "odd": lambda good: good[:1001] + b"\n",
    "short": lambda good: good[:1000] + b"\n",
    "unended": lambda good: good[:-1],      # the query's text runs on
    "garbage": lambda good: b"00" * 64 + b"\n",
    "not-modules": lambda good: _hex_line(42),
    "raises": lambda good: _hex_line((("sketchmap.solver.__main__", compile(
        "raise ImportError('no')", "m", "exec")),)),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(),
                         ids=list(CORRUPTIONS))
def test_corrupt_solver_code_fails_the_query(corrupt, monkeypatch):
    # the child says why and exits 1; the query fails at once and the
    # session's next child, sent good code, answers
    good = portfolio._bundled_code()
    monkeypatch.setattr(portfolio, "_bundled_code", lambda: corrupt(good))
    start = time.monotonic()
    with SolverSession() as session:
        with pytest.raises(AllSolversFailed,
                           match="builtin: \\(error \"cannot load the "
                                 "bundled solver"):
            portfolio_solve(SAT_QUERY, session=session, timeout=60)
        assert time.monotonic() - start < 30
        assert not session._children, "the failed child was retired"
        monkeypatch.setattr(portfolio, "_bundled_code", lambda: good)
        r = portfolio_solve(SAT_QUERY, session=session, timeout=60)
        assert r.status == "sat" and r.model["x"].value == 3


def test_external_solvers_get_the_query_alone():
    # only a child started with the bundled command gets the solver's code
    echo = SolverConfig("echo", (sys.executable, "-c", (
        "import sys\n"
        "data = sys.stdin.buffer.readline()\n"
        "print('unsat' if data == b'(reset)\\n' else 'sat', flush=True)\n"
        "print('sketchmap-end-of-query', flush=True)\n")))
    r = portfolio_solve(UNSAT_QUERY, [echo], timeout=60)
    assert (r.status, r.winner) == ("unsat", "echo")
