"""Self-tests of the benchmark harness: span accounting, restoration of every
wrapped binding, repeatable work counts and the correctness verdict.

    python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import pytest  # noqa: E402

import child  # noqa: E402
import compare  # noqa: E402
import run as bench  # noqa: E402
from tracer import CALLS, INCL, NO_CHILD, NO_EVAL, SELF, Tracer  # noqa: E402

SPECS = SRC / "atomcur" / "specs"


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _call_tree(tracer, clock):
    """outer (4s) -> leaf (1s), rec(2); rec(n) (2s) -> rec(n-1), leaf; plus a
    group pair where g_outer (1s) -> g_inner (3s)."""
    ns = {}

    def leaf():
        clock.advance(1.0)

    def rec(n):
        clock.advance(2.0)
        if n:
            ns["rec"](n - 1)
        ns["leaf"]()

    def outer():
        clock.advance(4.0)
        ns["leaf"]()
        ns["rec"](2)
        ns["g_outer"]()

    def g_outer():
        clock.advance(1.0)
        ns["g_inner"]()

    def g_inner():
        clock.advance(3.0)

    ns["leaf"] = tracer.wrap(leaf, "t.leaf")
    ns["rec"] = tracer.wrap(rec, "t.rec")
    ns["outer"] = tracer.wrap(outer, "t.outer")
    ns["g_outer"] = tracer.wrap(g_outer, "t.g_outer", ("t.group",))
    ns["g_inner"] = tracer.wrap(g_inner, "t.g_inner", ("t.group",))
    return ns


def test_self_time_nested_and_recursive():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    _call_tree(tracer, clock)["outer"]()
    totals, _ = tracer.totals()
    assert totals["t.outer"][CALLS] == 1
    assert totals["t.outer"][SELF] == 4.0
    assert totals["t.outer"][INCL] == 4.0 + 1.0 + 9.0 + 4.0
    assert totals["t.leaf"][CALLS] == 4
    assert totals["t.leaf"][SELF] == totals["t.leaf"][INCL] == 4.0
    assert totals["t.leaf"][NO_CHILD] == 4
    # three nested rec spans: self is 2s each; inclusive counts the
    # outermost span only (rec(2) covers 3 * 2s + 3 leaves)
    assert totals["t.rec"][CALLS] == 3
    assert totals["t.rec"][SELF] == 6.0
    assert totals["t.rec"][INCL] == 9.0
    assert totals["t.rec"][NO_CHILD] == 0
    # a group key is counted once for nested members
    assert totals["t.group"][INCL] == 4.0
    assert totals["t.g_outer"][SELF] == 1.0 and totals["t.g_inner"][SELF] == 3.0
    assert sum(row[SELF] for name, row in totals.items() if row[CALLS]) == clock.t
    names = {r[2]: r for r in tracer.records()}
    assert names["t.outer"][1] is None
    assert names["t.g_inner"][1] == names["t.g_outer"][0]


def test_spans_are_per_thread():
    tracer = Tracer()
    clock = FakeClock()   # advanced concurrently; only counts are checked
    ns = _call_tree(tracer, clock)
    threads = [threading.Thread(target=ns["outer"]) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    totals, _ = tracer.totals()
    assert totals["t.outer"][CALLS] == 4
    assert totals["t.rec"][CALLS] == 12
    assert totals["t.leaf"][NO_CHILD] == 16
    assert totals["t.rec"][NO_CHILD] == 0


def _bindings_snapshot():
    """Every module global, class attribute and suite-list entry that the
    tracer can replace, by identity."""
    from atomcur import suites
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "atomcur" or name.startswith("atomcur.")):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = member
    for suite, fns in list(suites.CHECKS.items()) + [("all", suites.SUITES["all"])]:
        for i, fn in enumerate(fns):
            snap[("list", suite, i)] = fn
    return snap


def _assert_same(before, after):
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed, changed[:5]


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import atomcur
    from atomcur import connection, expr, jets, suites
    before = _bindings_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert suites.curvature is connection.curvature is not before[("atomcur.connection",
                                                                       "curvature")]
        assert atomcur.eval_jet is expr.eval_jet is not before[("atomcur.expr", "eval_jet")]
        assert jets.Jet.__rmul__ is jets.Jet.__mul__
        assert jets.Jet.__mul__ is not before[("atomcur.jets", "Jet", "__mul__")]
        assert suites.SUITES["all"][0] is not before[("list", "all", 0)]
    finally:
        restored = tracer.uninstall()
    assert restored > 100
    _assert_same(before, _bindings_snapshot())


def _small_argv(tmp_path, suite="pbw"):
    return ["run", str(SPECS / "flat-r2.json"), "--suite", suite, "--mode", "rational",
            "--out", str(tmp_path / "r.json")]


def test_untraced_and_traced_runs_leave_originals_in_place(tmp_path):
    import atomcur.cli  # noqa: F401
    before = _bindings_snapshot()
    assert child.run(_small_argv(tmp_path))["exit"] == 0
    _assert_same(before, _bindings_snapshot())
    stamp = child.trace(str(tmp_path / "t.json"), _small_argv(tmp_path))
    assert stamp["exit"] == 0
    _assert_same(before, _bindings_snapshot())
    trace = json.loads((tmp_path / "t.json").read_text())
    assert trace["totals"]["suites.pbw"][CALLS] >= 1


def _traced_counts(tmp_path, tag):
    out = tmp_path / f"{tag}.json"
    argv = ["run", str(SPECS / "s2.json"), "--suite", "composition", "--mode", "float",
            "--trials", "2", "--out", str(tmp_path / f"{tag}-report.json")]
    env = bench.child_env()
    subprocess.run([sys.executable, str(HERE / "child.py"), "trace", str(out), "--", *argv],
                   check=True, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=120)
    trace = json.loads(out.read_text())
    counts = {name: (row[CALLS], row[NO_CHILD], row[NO_EVAL])
              for name, row in trace["totals"].items()}
    return counts, trace["madds"], trace["eval_keys"]


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = _traced_counts(tmp_path, "a")
    second = _traced_counts(tmp_path, "b")
    counts, madds, keys = first
    assert counts["jets.mul"][0] > 0 and counts["expr.eval_jet"][0] > 0
    assert counts["covderiv.nabla_word_jets"][0] > 0 and madds > 0 and keys > 0
    assert first == second


def _inv(report=None, exit=0, backend="pure"):
    stamp = {"t_done": 1.0, "exit": 0 if report is None or not report["summary"]["failed"]
             else 1, "backend": backend}
    return bench.Invocation(wall_s=1.0, exit=exit, stamp=stamp if exit == 0 else {},
                            rss_mb=20.0, cpu_s=1.0, report=report)


def _report(failed=0, checks=("a",)):
    return {"checks": list(checks), "summary": {"total": 5, "skipped": 1, "failed": failed},
            "timing": {"wall_seconds": 1.0}}


def test_verdict_counts_failures_mismatches_and_crashes():
    ok = _report()
    digest = bench.report_digest(ok)
    timing_differs = dict(ok, timing={"wall_seconds": 9.0})
    v = bench.judge([_inv(ok), _inv(timing_differs)], digest)
    assert (v.rows, v.fail_rows, v.mismatched, v.failed_invocations) == (8, 0, 0, 0)
    v = bench.judge([_inv(ok), _inv(_report(checks=("b",)))], None)
    assert v.mismatched == 1 and v.report_mismatch_frac == 0.5
    v = bench.judge([_inv(_report(failed=2)), _inv(exit=3)], None)
    assert v.fail_rows == 2 + 4 and v.rows == 8 and v.failed_invocations == 2
    assert v.check_fail_frac == pytest.approx(6 / 8)


def test_child_environment_drops_backend_override(monkeypatch):
    monkeypatch.setenv("ATOMCUR_JET_BACKEND", "pure")
    env = bench.child_env()
    assert "ATOMCUR_JET_BACKEND" not in env
    assert env["PYTHONPATH"] == str(SRC)
    assert os.environ["ATOMCUR_JET_BACKEND"] == "pure"


def _record(directory, name, backend, value):
    directory.mkdir(exist_ok=True)
    rec = {"workload": "sphere-float", "trace": 0, "backend": backend, "python": "3",
           "nproc": 2, "seed": 0, "correct": True,
           "metrics": {"run_s": {"value": value, "unit": "s"}}}
    (directory / name).write_text(json.dumps(rec))


def test_compare_refuses_results_from_different_backends(tmp_path, capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    _record(before, "a.json", "pure", 4.0)
    _record(after, "a.json", "pure", 3.0)
    assert compare.main([str(before), str(after)]) == 0
    assert "x   0.750" in capsys.readouterr().out
    _record(after, "b.json", "compiled", 1.0)
    assert compare.main([str(before), str(after)]) == 2
    assert "different backend" in capsys.readouterr().err
