import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from atomcur import cli

SPECS = Path(__file__).resolve().parent.parent / "src" / "atomcur" / "specs"


def run_cli(args):
    return cli.main(args)


def test_list_suites(capsys):
    assert run_cli(["suites"]) == 0
    out = capsys.readouterr().out
    assert "fundamental-commutation" in out
    assert "Fundamental Commutation Lemma" in out
    assert "pbw" in out and "forms a basis of the kernel" in out
    assert "boundary" in out and "boundary operator on finitely supported currents" in out


def test_run_flat_rational(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["run", str(SPECS / "flat-r2.json"), "--suite", "pbw",
                    "--mode", "rational", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 0
    assert all(row["residual"] == "0" or float(row["residual"]) == 0
               for row in report["checks"] if row["status"] == "pass")
    assert out.with_suffix(".csv").exists()


def test_out_to_a_device_writes_no_csv(tmp_path):
    # the CSV goes beside a regular file only; out.json here is /dev/null
    out = tmp_path / "out.json"
    out.symlink_to(os.devnull)
    assert run_cli(["run", str(SPECS / "flat-r1.json"), "--suite", "jets",
                    "--out", str(out)]) == 0
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("spec, order", [("flat-r3", "3"), ("flat-r2", "4")])
def test_pbw_suite_above_order_2(tmp_path, spec, order):
    """Above the default order the kernel basis is still a basis: its length
    equals the kernel dimension, and every pbw check passes."""
    out = tmp_path / "report.json"
    code = run_cli(["run", str(SPECS / f"{spec}.json"), "--suite", "pbw", "--order", order,
                    "--mode", "rational", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"] == {"total": 5, "passed": 5, "failed": 0, "skipped": 0}


def test_run_s2_coalgebra(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["run", str(SPECS / "s2.json"), "--suite", "coalgebra",
                    "--order", "2", "--degree", "1", "--mode", "float",
                    "--tol", "1e-7", "--seed", "42", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 0


def test_spec_error_torsion(tmp_path, capsys):
    bad = {
        "spec_version": 1, "name": "broken", "dimension": 2,
        "coordinates": ["x", "y"],
        "domain": {"x": [-1, 1], "y": [-1, 1]},
        "christoffel": {"0,0,1": "x"},
        "probe_points": [["0.5", "0.5"]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(bad))
    code = run_cli(["run", str(path), "--suite", "connection"])
    assert code == 2
    err = capsys.readouterr().err
    assert "torsion-free violation at probe" in err


def test_spec_error_schema(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"spec_version": 2}))
    assert run_cli(["run", str(path)]) == 2
    path.write_text("{not json")
    assert run_cli(["run", str(path)]) == 2
    # both metric and christoffel present
    path.write_text(json.dumps({
        "spec_version": 1, "name": "x", "dimension": 1, "coordinates": ["x"],
        "domain": {"x": [0, 1]}, "metric": [["1"]], "christoffel": {},
        "probe_points": [["0.5"]]}))
    assert run_cli(["run", str(path)]) == 2


def test_rational_mode_needs_rational_chart(capsys):
    code = run_cli(["run", str(SPECS / "s2.json"), "--suite", "pbw",
                    "--mode", "rational"])
    assert code == 2
    assert "rational mode" in capsys.readouterr().err


def test_evaluation_error_exit_code(tmp_path, capsys):
    # log leaves its domain at the second probe but not at the box midpoint
    spec = {
        "spec_version": 1, "name": "log-edge", "dimension": 1,
        "coordinates": ["x"], "domain": {"x": [0.1, 3.0]},
        "christoffel": {"0,0,0": "log(x - 1/2)"},
        "probe_points": [["2.0"], ["0.2"]],
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(spec))
    code = run_cli(["run", str(path), "--suite", "connection"])
    assert code == 3
    assert "evaluation error" in capsys.readouterr().err


def test_nonpositive_metric_determinant_exit_code(tmp_path):
    # det g = -1 - x^2 < 0: the Hodge star has no sqrt(det g), which is an
    # evaluation error (exit 3), not a crash, also where a worker raises it
    spec = {
        "spec_version": 1, "name": "negative-det", "dimension": 2,
        "coordinates": ["x", "y"], "domain": {"x": [-1, 1], "y": [-1, 1]},
        "metric": [["-1 - x^2", "0"], ["0", "1"]],
        "probe_points": [["1/4", "-1/3"]],
    }
    path = tmp_path / "negdet.json"
    path.write_text(json.dumps(spec))
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "atomcur.cli", "run", str(path), "--suite", "all",
             "--mode", "float", "--jobs", jobs, "--out", str(tmp_path / "report.json")],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(SPECS.parent.parent), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 3
        assert "evaluation error" in proc.stderr
        assert "Traceback" not in proc.stderr


_GOOD_2D = {
    "spec_version": 1, "name": "metric-2d", "dimension": 2,
    "coordinates": ["x", "y"], "domain": {"x": [-1, 1], "y": [-1, 1]},
    "metric": [["1", "0"], ["0", "1"]], "probe_points": [["1/4", "-1/3"]],
}
_BIG = "__1e400__"  # written into the spec file as the JSON number 1e400
_BAD_SPECS = {
    "domain-bounds-strings": {"domain": {"x": ["a", "b"], "y": [-1, 1]}},
    "domain-bounds-mixed": {"domain": {"x": ["a", 1], "y": [-1, 1]}},
    "coordinate-not-a-name": {"coordinates": [["x"], "y"]},
    "probe-coordinate": {"probe_points": [["abc", "0"]]},
    "probe-coordinate-overflow": {"probe_points": [["1e400", "0"]]},
    "metric-entry-null": {"metric": [[None, "0"], ["0", "1"]]},
    "metric-entry-object": {"metric": [[{}, "0"], ["0", "1"]]},
    "metric-entry-bool": {"metric": [[True, "0"], ["0", "1"]]},
    "christoffel-entry-list": {"metric": None, "christoffel": {"0,0,0": ["x"]}},
    "fiber-entry-null": {"fiber": {"dimension": 2, "connection": {"0,0,0": None}}},
    "christoffel-key-short": {"metric": None, "christoffel": {"0,0": "x"}},
    "christoffel-key-range": {"metric": None, "christoffel": {"5,0,0": "x"}},
    # "²" is a digit to str.isdigit but not to int(): a ValueError traceback
    "christoffel-key-superscript": {"metric": None, "christoffel": {"²,0,0": "x"}},
    "fiber-no-dimension": {"fiber": {"connection": {}}},
    "fiber-key-range": {"fiber": {"dimension": 2, "connection": {"3,0,0": "x"}}},
    "metric-1x1": {"metric": [["1"]]},
    "dimension-0": {"dimension": 0, "coordinates": [], "domain": {}},
    "domain-list": {"domain": [[-1, 1], [-1, 1]]},
    "probe-points-string": {"probe_points": "00"},
    "sampler-count": {"probe_points": None, "sampler": {"count": -2}},
    "sampler-no-grid-point": {"probe_points": None, "sampler": {"count": 2},
                              "domain": {"x": [0, 0.1], "y": [-1, 1]}},
    # JSON reads 1e400 as inf: every numeric entry and bound must be finite
    "metric-entry-1e400": {"metric": [[_BIG, "0"], ["0", "1"]]},
    "metric-entry-nan": {"metric": [[float("nan"), "0"], ["0", "1"]]},
    "christoffel-entry-1e400": {"metric": None, "christoffel": {"0,0,0": _BIG}},
    "fiber-entry-1e400": {"fiber": {"dimension": 2, "connection": {"0,0,0": _BIG}}},
    "domain-bound-1e400": {"domain": {"x": [-1, _BIG], "y": [-1, 1]}},
    "domain-bound-huge-int": {"domain": {"x": [-1, 10 ** 400], "y": [-1, 1]}},
    "sampler-domain-bound-1e400": {"probe_points": None, "sampler": {"count": 2},
                                   "domain": {"x": [-1, _BIG], "y": [-1, 1]}},
    # a coordinate must read back as one symbol of its expressions (each one
    # crashed the expression round-trip check with a traceback, exit 1)
    **{f"coordinate-{tag}": {"coordinates": [c, "y"], "domain": {c: [-1, 1], "y": [-1, 1]}}
       for tag, c in [("elementary-function", "sin"), ("empty", ""), ("with-space", "x y"),
                      ("leading-digit", "1x"), ("trailing-operator", "x+")]},
    "sampler-seed-list": {"probe_points": None, "sampler": {"count": 2, "seed": [1]}},
    "sampler-seed-object": {"probe_points": None, "sampler": {"count": 2, "seed": {}}},
    "sampler-seed-bool": {"probe_points": None, "sampler": {"count": 2, "seed": True}},
    "name-list": {"name": ["metric-2d"]},
    # two keys for one index triple: the later one silently won
    "christoffel-key-repeated": {"metric": None,
                                 "christoffel": {"0,0,0": "x", " 0,0,0": "y"}},
    "fiber-key-repeated": {"fiber": {"dimension": 2,
                                     "connection": {"0,0,0": "x", "0,0, 0": "y"}}},
}
_BAD_FLAGS = {
    "suite": ["--suite", "nosuch"],
    "order": ["--order", "-1"],
    "degree-negative": ["--degree", "-1"],
    "degree-above-fiber": ["--degree", "3"],
    "trials-zero": ["--suite", "composition", "--trials", "0"],
    "trials-negative": ["--suite", "composition", "--trials", "-1"],
    "jobs-zero": ["--jobs", "0"],
    "jobs-negative": ["--jobs", "-2"],
    # refused before any check runs, not after them all (a FileNotFoundError
    # or IsADirectoryError, exit 1, at the parent commit)
    "out-in-missing-dir": ["--out", "/nonexistent-atomcur-dir/r.json"],
    "out-is-a-dir": ["--out", "/"],
}


@pytest.mark.parametrize("case", sorted(_BAD_SPECS) + sorted(_BAD_FLAGS))
def test_malformed_input_exits_2_without_traceback(tmp_path, case):
    # a malformed spec or an out-of-range flag is a usage error (exit 2 with a
    # message), never a crash (exit 1 is kept for a failed check)
    spec = {k: v for k, v in {**_GOOD_2D, **_BAD_SPECS.get(case, {})}.items()
            if v is not None}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec).replace(f'"{_BIG}"', "1e400"))
    proc = subprocess.run(
        [sys.executable, "-m", "atomcur.cli", "run", str(path), "--suite", "jets",
         "--mode", "rational", *_BAD_FLAGS.get(case, [])],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SPECS.parent.parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2, proc.stderr
    assert "spec error" in proc.stderr or "usage" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_key_given_twice_in_the_spec_file_is_refused(tmp_path, capsys):
    # json.loads would keep the later of the two "0,0,0" entries
    spec = {k: v for k, v in _GOOD_2D.items() if k != "metric"}
    text = json.dumps({**spec, "christoffel": {"0,0,0": "x"}})
    path = tmp_path / "spec.json"
    path.write_text(text.replace('{"0,0,0": "x"}', '{"0,0,0": "x", "0,0,0": "y"}'))
    assert run_cli(["run", str(path), "--suite", "jets"]) == 2
    assert "key '0,0,0' is given twice" in capsys.readouterr().err


def test_coordinate_names_that_read_back_as_one_symbol_run(tmp_path):
    coords = ["α", "_a"]
    spec = {**_GOOD_2D, "coordinates": coords,
            "domain": {c: [-1, 1] for c in coords},
            "metric": [[f"1 + {coords[0]}^2", "0"], ["0", "1"]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    for mode in ("float", "rational"):
        assert run_cli(["run", str(path), "--suite", "jets", "--mode", mode]) == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_outside_its_range_is_a_usage_error(tol):
    # no residual meets a nan or negative tolerance and every one meets inf,
    # so such a --tol is refused before any check runs (exit 1 is kept for a
    # failed check)
    proc = subprocess.run(
        [sys.executable, "-m", "atomcur.cli", "run", str(SPECS / "poly2.json"),
         "--suite", "composition", "--tol", tol],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SPECS.parent.parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2, proc.stderr
    assert any(line.startswith("usage error: --tol") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


def test_check_failure_exit_code(tmp_path):
    # an impossible tolerance forces residuals above threshold
    out = tmp_path / "r.json"
    code = run_cli(["run", str(SPECS / "s2.json"), "--suite", "composition",
                    "--tol", "0", "--trials", "2", "--out", str(out)])
    assert code == 1


def test_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli(["run", str(SPECS / "s2.json"), "--suite", "f-action",
                        "--seed", "42", "--out", str(out)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timing")
    rb.pop("timing")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


@pytest.mark.parametrize("spec,mode,suite,trials", [
    ("flat-r1", "rational", "all", "2"),
    ("flat-r2", "float", "all", "1"),
    ("poly2", "float", "all", "1"),
    ("hyperbolic", "rational", "all", "1"),  # the exact oracle of the benchmark
    ("poly3", "rational", "all", "1"),  # its checks build and release probes
    ("poly2", "float", "operators", "1"),
    ("poly3", "float", "operators", "1"),  # sharp and Ddag on the n = 3 chart
])
def test_jobs_flag(tmp_path, capsys, spec, mode, suite, trials):
    """--jobs 2 writes the report, the CSV and the stderr rows of --jobs 1.
    Its timing gives the seconds of every registry check run, which the
    workers send back with their rows."""
    from atomcur import suites as su
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"r{jobs}.json"
        code = run_cli(["run", str(SPECS / f"{spec}.json"), "--suite", suite,
                        "--mode", mode, "--jobs", jobs, "--trials", trials,
                        "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        timing = report.pop("timing")
        per_check = timing["per_check"]
        assert sorted(per_check) == sorted(fn.__name__ for fn in su.SUITES[suite])
        assert all(secs >= 0 for secs in per_check.values())
        # the checks of a worker run one after another inside the wall time
        assert sum(per_check.values()) <= int(jobs) * timing["wall_seconds"]
        outputs.append((report, out.with_suffix(".csv").read_text(), capsys.readouterr().err))
    assert outputs[1][0]["summary"]["failed"] == 0
    assert outputs[1] == outputs[0]


def test_timed_check_releases_the_probes_it_built():
    """A probe field and its memos live only for the check that built them:
    after the check, no point cache of the chart holds a probe key."""
    from atomcur import suites as su
    data = cli.load_spec(SPECS / "hyperbolic.json")
    chart = cli.build_chart(data)
    ctx = su.SuiteContext(chart=chart, mode="rational",
                          probes=cli.resolve_probes(data, chart, "rational", 0))

    def probe_keys():
        return [key for cache in chart._cache.values() for key in cache
                if key[0] in ("probe", "dprobe")]

    held = []

    def check_boundary(ctx):
        rows = su.check_boundary(ctx)
        held.append(probe_keys())
        return rows

    rows, name, _secs = cli._timed_check(check_boundary, ctx)
    assert rows and name == "check_boundary"
    assert held[0], "the check reads probes"
    assert probe_keys() == []


@pytest.mark.parametrize("suite,jobs,workers", [
    ("composition", "64", 1),
    ("jets", "64", 4),
    ("operators", "3", 3),
    ("all", "1000", 37),
])
def test_jobs_pool_has_at_most_one_worker_per_check(tmp_path, monkeypatch, suite, jobs, workers):
    """The pool is sized from the suite.  Its stand-in maps in this process,
    so no worker process starts."""
    import concurrent.futures
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    code = run_cli(["run", str(SPECS / "flat-r1.json"), "--suite", suite, "--mode", "rational",
                    "--jobs", jobs, "--trials", "1", "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert sizes == [workers]


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "atomcur.cli", "suites"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SPECS.parent.parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "coalgebra" in proc.stdout


def test_import_loads_only_what_a_serial_run_uses():
    # --jobs > 1 imports concurrent.futures (and with it logging) and
    # multiprocessing itself
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, atomcur.cli; print(*sys.modules)"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SPECS.parent.parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "atomcur.suites" in loaded
    assert not loaded & {"dataclasses", "concurrent.futures", "logging", "inspect",
                         "multiprocessing"}


def test_gen_poly_spec_roundtrip(tmp_path):
    out = tmp_path / "gen.json"
    assert run_cli(["gen-poly", "--dimension", "2", "--seed", "3",
                    "--out", str(out)]) == 0
    report = tmp_path / "rep.json"
    code = run_cli(["run", str(out), "--suite", "pbw", "--mode", "rational",
                    "--out", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["summary"]["failed"] == 0


@pytest.mark.parametrize("dimension", ["0", "-1"])
def test_gen_poly_rejects_a_dimension_below_1(tmp_path, capsys, dimension):
    # such a spec would be refused by run, so none is written
    out = tmp_path / "gen.json"
    assert run_cli(["gen-poly", "--dimension", dimension, "--out", str(out)]) == 2
    assert "usage error: --dimension" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["/nonexistent-atomcur-dir/gen.json", "/"])
def test_gen_poly_refuses_an_out_it_cannot_write(capsys, out):
    assert run_cli(["gen-poly", "--dimension", "2", "--out", out]) == 2
    assert "usage error: --out" in capsys.readouterr().err
    assert not Path("/nonexistent-atomcur-dir").exists()


def test_run_refuses_a_bad_out_before_any_check(tmp_path, capsys, monkeypatch):
    """A bad --out is a usage error found before the first check, so no
    check runs and nothing is written."""
    from atomcur import suites as su
    ran = []
    monkeypatch.setitem(su.SUITES, "all", [lambda ctx: ran.append(ctx) or []])
    missing = tmp_path / "missing" / "r.json"
    for out in (missing, tmp_path):
        assert run_cli(["run", str(SPECS / "flat-r1.json"), "--out", str(out)]) == 2
        assert "usage error: --out" in capsys.readouterr().err
    assert ran == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode,order", [("float", "2"), ("float", "3"),
                                        ("rational", "2"), ("rational", "3")])
def test_curved_1d_spec_passes_every_suite(tmp_path, mode, order):
    # tr(DEdag)^2 lowers the degree by two, so on a 1-D chart it vanishes on
    # every element: its check skips there instead of failing
    spec = tmp_path / "g1.json"
    assert run_cli(["gen-poly", "--dimension", "1", "--out", str(spec)]) == 0
    out = tmp_path / "r.json"
    assert run_cli(["run", str(spec), "--suite", "all", "--mode", mode,
                    "--order", order, "--out", str(out)]) == 0
    status, note = _statuses(json.loads(out.read_text()))["trace-lift-not-differential"]
    assert status == "skip" and "dimension >= 2" in note


def _statuses(report):
    return {row["check"]: (row["status"], row["note"]) for row in report["checks"]}


def test_fiber_spec_block(tmp_path):
    # explicit fiber connection on a flat base: composition suite is
    # fiber-generic and must still hold; the flat-chart checks also need
    # R^E = 0, so on this curved fiber they skip
    spec = {
        "spec_version": 1, "name": "fibered", "dimension": 2,
        "coordinates": ["x", "y"],
        "domain": {"x": [-1, 1], "y": [-1, 1]},
        "christoffel": {},
        "fiber": {"dimension": 2,
                  "connection": {"0,0,1": "x", "1,0,0": "y/2", "0,1,0": "x*y"}},
        "probe_points": [["1/4", "1/2"]],
    }
    path = tmp_path / "fibered.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "rep.json"
    code = run_cli(["run", str(path), "--suite", "composition", "--mode", "rational",
                    "--trials", "6", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["summary"]["failed"] == 0
    code = run_cli(["run", str(path), "--suite", "all", "--mode", "rational",
                    "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0 and report["summary"]["failed"] == 0
    rows = _statuses(report)
    for check in ("flat-lemma", "pbw-flat-collapse"):
        assert rows[check] == ("skip", "chart is not flat")


def test_metric_fiber_spec_block(tmp_path):
    # a Levi-Civita base (metric) with an explicit expression fiber
    spec = {
        "spec_version": 1, "name": "metric-fibered", "dimension": 2,
        "coordinates": ["x", "y"],
        "domain": {"x": [-1, 1], "y": [-1, 1]},
        "metric": [["1 + x^2", "x*y/2"], ["x*y/2", "1 + y^2"]],
        "fiber": {"dimension": 2,
                  "connection": {"0,0,1": "x", "1,0,0": "y/2", "0,1,0": "x*y"}},
        "probe_points": [["1/4", "-1/3"]],
    }
    path = tmp_path / "metric-fibered.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "rep.json"
    code = run_cli(["run", str(path), "--suite", "composition", "--mode", "rational",
                    "--trials", "6", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 0 and report["summary"]["passed"] > 0
    # the metric-based adjoint checks need the tangent fiber, so they skip
    # instead of raising; the flat-chart checks skip as on any curved chart
    code = run_cli(["run", str(path), "--suite", "all", "--mode", "float",
                    "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0 and report["summary"]["failed"] == 0
    rows = _statuses(report)
    for check in ("op-adjoints", "op-DEdag-sign", "op-perp-duality"):
        assert rows[check] == ("skip", "needs metric + tangent fiber")
    for check in ("flat-lemma", "pbw-flat-collapse"):
        assert rows[check] == ("skip", "chart is not flat")


# sha256 of reports minus "timing", computed as perfbench/run.py::report_digest
# does.  Rational mode is the exact oracle: a refactor that moves one of its
# digests changed a result, not a rounding.
ORACLE_DIGESTS = [
    ("flat-r1", "all", "rational",
     "1dc97e505de4f2dc5d84f25a6c59750affe64f3193bfbb4940a5431f53281496"),
    ("poly2", "connection", "rational",
     "4af6f24eabc58f2e27b1b11ab96e96a75a27a8dc79317e7cbfcd8b4ea6aec8d3"),
    ("hyperbolic", "connection", "rational",
     "1a259b9de1795f7cadd20b9e217fe970ef6cae37a17e66ddc2d0ce18dcb84b62"),
    ("poly2", "boundary", "rational",
     "e158bc51c03979849674d3a8416b33afff354687c1e4841e69d0d7dd614e10d5"),
    # the exact oracle of the curved2-exact benchmark workload (about 4 s), read
    # from the digests the benchmark checks its own runs against
    ("hyperbolic", "all", "rational",
     json.loads((SPECS.parents[2] / "perfbench" / "reference.json")
                .read_text())["hyperbolic/rational"]["0"]),
    # poly2 evaluates no elementary function, so its float report depends only
    # on the order of the IEEE + - * / operations: this pins the float product's
    # summation order (about 3 s)
    ("poly2", "all", "float",
     "a19904564b545cb9468fa6278c7fb2dbd631f55665937aefdf12c37587ab140b"),
    # the operator suites of the curved3-float benchmark workload, whose
    # covariant-derivative values are memoized per field: every float
    # operation and its order must stay as before (about 5 s)
    ("poly3", "operators", "float",
     "2c839d672563c98a528d5d0319e3864603cdd08703753d8e7dddb60d9a34c29c"),
    # the only pinned rational run on an orthonormal chart with n >= 2, so the
    # exact star routes (op_Edag conjugation, adjoint_of_Edag, Clifford) run
    # here; hyperbolic rational skips them (about 1 s)
    ("flat-r2", "operators", "rational",
     "21ed0bd7f3e8d8070433e03a04786c7e234bcda4e2fce0d551795a839ff64395"),
    # the whole curved3-float benchmark workload: every float operation of
    # every suite, not only the operators, keeps its order (about 2.5 s)
    ("poly3", "all", "float",
     "66eb03edfc320575a4f927a8506b1d74b2d0018589c6a39d68764ef7462c5e4a"),
    # the only chart with an elementary function (about 1 s)
    ("s2", "all", "float",
     "916681578eaecde8838ea448015c1022aea06ccf683a53eb6ff3c3480a8b4bb9"),
    # the curved2-exact chart in float mode (about 1.5 s)
    ("hyperbolic", "all", "float",
     "8995966b7aed2d0a6b239c391dd37284f38f1c4be6feabd2adac6a38fec941a4"),
    # every exact star route across all suites, not only the operators (about 1 s)
    ("flat-r2", "all", "rational",
     "cc5fc8376485cbafa8b5611b90512c6f987e901e24c6e5d1025b663c972f34f2"),
    # the widest exact oracles: poly3 carries the largest denominators (lcm up
    # to 77 bits), flat-r3 the exact adjoint block on n = 3 (about 3 s each)
    ("poly3", "all", "rational",
     "17259044b1b66f23c71f3577ed57ac6ac84b50268431cab293a21c4efe81196a"),
    ("flat-r3", "all", "rational",
     "a8814d179e9b474d69fe1866cfb3bb7bdf4d06527c8d73f3f013aba64c51d812"),
    # the one n = 3 float report not pinned above, and the only one that runs
    # the float adjoint block on an orthonormal chart (about 2 s)
    ("flat-r3", "all", "float",
     "e54d07f6d25d7e4a8351d3ae0a17ede6cfa1f5ad8a4504fe65deae9c9abd7346"),
]


def test_reports_match_recorded_digests(tmp_path):
    import hashlib
    for spec, suite, mode, digest in ORACLE_DIGESTS:
        out = tmp_path / f"{spec}-{suite}-{mode}.json"
        code = run_cli(["run", str(SPECS / f"{spec}.json"), "--suite", suite,
                        "--mode", mode, "--seed", "0", "--out", str(out)])
        assert code == 0
        body = {k: v for k, v in json.loads(out.read_text()).items() if k != "timing"}
        got = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
        assert got == digest, (spec, suite, mode)
