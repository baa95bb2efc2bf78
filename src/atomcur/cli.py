"""Batch front door: read manifold spec files, run named verification
suites over probe points, emit JSON/CSV reports and CI exit codes.

Manifold spec files are JSON with a versioned schema (see README):

    {
      "spec_version": 1,
      "name": "round-s2",
      "dimension": 2,
      "coordinates": ["theta", "phi"],
      "domain": {"theta": [0.6, 2.5], "phi": [0.2, 6.0]},
      "metric": [["1", "0"], ["0", "sin(theta)^2"]],    # or "christoffel"
      "probe_points": [["1.1", "0.8"], ["1.7", "1.9"]]  # or "sampler"
    }

Exit codes: 0 all checks pass, 1 check failure, 2 spec or usage error,
3 evaluation/domain error.  Reports are deterministic for a fixed (spec,
seed, mode, flags): all keys are sorted and wall times live in a separate
"timing" section excluded from the determinism contract.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import suites as su
from .atomic import release_probes
from .connection import ChartConnection, ChartDomainError, ChartValidationError
from .jets import FLOAT, RATIONAL, EvalDomainError, ExactModeError
from .expr import ExprSyntaxError, UndeclaredSymbolError, is_symbol_name


class SpecFileError(ValueError):
    pass


def load_spec(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise SpecFileError(f"cannot read spec file {path}: {err}") from err

    def unique_keys(pairs):
        # json.loads alone keeps the last of two equal keys without a word
        seen = set()
        for key, _value in pairs:
            if key in seen:
                raise SpecFileError(f"{path}: key {key!r} is given twice in one object")
            seen.add(key)
        return dict(pairs)

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise SpecFileError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}") from err
    return validate_spec(data, str(path))


def _is_int(x, low=None):
    """An int, never a bool, and at least ``low`` when one is given."""
    return isinstance(x, int) and not isinstance(x, bool) and (low is None or x >= low)


def _is_finite_number(x):
    """A JSON number, never a bool, that converts to a finite float (JSON
    reads 1e400 as inf)."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(float(x))
    except OverflowError:  # an int beyond the float range
        return False


def _check_exprs(bad, field, entries):
    """Expression entries are strings or finite JSON numbers, never bools."""
    for x in entries:
        if not (isinstance(x, str) or _is_finite_number(x)):
            bad(f"{field} entry {x!r} must be an expression string or a finite number")


def _check_keys(bad, field, table, bounds):
    """Every key of ``table`` must be comma-separated indices below ``bounds``,
    and no two keys may name the same indices."""
    if not isinstance(table, dict):
        bad(f"{field} must be an object")
    seen = set()
    for key in table:
        parts = key.split(",")
        if len(parts) != len(bounds) or not all(
                x.strip().isdecimal() and int(x) < b for x, b in zip(parts, bounds)):
            bad(f"{field} key {key!r} must be indices below {','.join(map(str, bounds))}")
        idx = tuple(int(x) for x in parts)
        if idx in seen:
            bad(f"{field} key {key!r} repeats the indices of another key")
        seen.add(idx)
    _check_exprs(bad, field, table.values())


def validate_spec(data: dict, where: str = "<spec>") -> dict:
    """Reject a malformed spec with a :class:`SpecFileError` naming the field,
    so that the chart and its probes are built from well-formed data only."""
    def bad(msg):
        raise SpecFileError(f"{where}: {msg}")

    if not isinstance(data, dict):
        bad("spec must be a JSON object")
    if data.get("spec_version") != 1:
        bad("unsupported or missing spec_version (expected 1)")
    for key in ("name", "dimension", "coordinates", "domain"):
        if key not in data:
            bad(f"missing required field {key!r}")
    if not isinstance(data["name"], str):
        bad("name must be a string")
    n = data["dimension"]
    if not _is_int(n, 1):
        bad("dimension must be a positive integer")
    coords = data["coordinates"]
    if not (isinstance(coords, list) and all(isinstance(c, str) for c in coords)
            and len(set(coords)) == len(coords) == n):
        bad(f"coordinates must be {n} distinct names")
    for c in coords:
        if not is_symbol_name(c):
            bad(f"coordinate {c!r} must be one name (a letter or _, then letters, digits"
                " or _) that is not an elementary function")
    dom = data["domain"]
    if not isinstance(dom, dict) or set(dom) != set(coords):
        bad("domain must be an object giving one interval per coordinate")
    for c, box in dom.items():
        if not (isinstance(box, list) and len(box) == 2
                and all(_is_finite_number(x) for x in box) and box[0] < box[1]):
            bad(f"domain[{c!r}] must be a nonempty [lo, hi] of finite numbers")
    if ("metric" in data) == ("christoffel" in data):
        bad("exactly one of 'metric' or 'christoffel' is required")
    g = data.get("metric")
    if "metric" in data and not (isinstance(g, list) and len(g) == n and all(
            isinstance(row, list) and len(row) == n for row in g)):
        bad(f"metric must be a {n}x{n} matrix")
    _check_exprs(bad, "metric", (x for row in g or () for x in row))
    if "christoffel" in data:
        _check_keys(bad, "christoffel", data["christoffel"], (n, n, n))
    fiber = data.get("fiber")
    if fiber is not None:
        if not (isinstance(fiber, dict) and _is_int(fiber.get("dimension"), 1)):
            bad("fiber must give a positive integer dimension")
        d = fiber["dimension"]
        _check_keys(bad, "fiber connection", fiber.get("connection", {}), (d, n, d))
    if "probe_points" in data:
        rows = data["probe_points"]
        if not (isinstance(rows, list) and rows
                and all(isinstance(row, list) and len(row) == n for row in rows)):
            bad(f"probe_points must be a nonempty list of points with {n} coordinates")
        for x in (x for row in rows for x in row):
            try:
                float(Fraction(str(x)))  # OverflowError beyond the float range
            except (ValueError, ZeroDivisionError, OverflowError):
                bad(f"probe coordinate {x!r} is not a finite number")
    elif "sampler" in data:
        samp = data["sampler"]
        if not (isinstance(samp, dict) and _is_int(samp.get("count", 3), 1)):
            bad("sampler must be an object with a positive integer count")
        if not _is_int(samp.get("seed", 0)):
            bad("sampler seed must be an integer")
        for c in coords:
            # the sampler draws points k/8 strictly inside the box
            if int(float(dom[c][0]) * 8) + 1 > int(float(dom[c][1]) * 8) - 1:
                bad(f"domain[{c!r}] holds no sampler point k/8 inside it")
    else:
        bad("give probe_points or a sampler")
    return data


def build_chart(data: dict) -> ChartConnection:
    coords = data["coordinates"]
    domain = [tuple(data["domain"][c]) for c in coords]
    # construction-time validation (torsion, metric compatibility) runs at
    # the declared probe points, not only the domain midpoint
    check_points = None
    if "probe_points" in data:
        check_points = [tuple(float(Fraction(str(x))) for x in row)
                        for row in data["probe_points"]]
    fiber = data.get("fiber")
    fiber_gamma = None
    if fiber is not None:
        d = fiber["dimension"]
        n = data["dimension"]
        fiber_gamma = [[["0"] * d for _ in range(n)] for _ in range(d)]
        for key, text in fiber.get("connection", {}).items():
            b, i, a = (int(x) for x in key.split(","))
            fiber_gamma[b][i][a] = text
    if "metric" in data:
        return ChartConnection.from_metric(coords, data["metric"], domain,
                                           name=data["name"], check_points=check_points,
                                           fiber_gamma=fiber_gamma)
    n = data["dimension"]
    gamma = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for key, text in data["christoffel"].items():
        k, i, j = (int(x) for x in key.split(","))
        gamma[k][i][j] = text
    return ChartConnection(coords, gamma, domain, fiber_gamma=fiber_gamma,
                           name=data["name"], check_points=check_points)


def resolve_probes(data: dict, chart: ChartConnection, mode: str, seed: int):
    if "probe_points" in data:
        probes = []
        for row in data["probe_points"]:
            if mode == RATIONAL:
                p = tuple(Fraction(str(x)) for x in row)
            else:
                p = tuple(float(Fraction(str(x))) for x in row)
            probes.append(chart.resolve(p, mode))
        return probes
    import random
    samp = data["sampler"]
    rng = random.Random(samp.get("seed", seed))
    count = samp.get("count", 3)
    probes = []
    for _ in range(count):
        # rationals with small denominators keep rational mode exact
        p = tuple(Fraction(rng.randint(int(lo * 8) + 1, int(hi * 8) - 1), 8)
                  for (lo, hi) in chart.domain)
        if mode != RATIONAL:
            p = tuple(float(x) for x in p)
        probes.append(chart.resolve(p, mode))
    return probes


def _check_rational_ok(chart: ChartConnection):
    from . import expr as ex

    def rational(e):
        if isinstance(e, (ex.Const, ex.Sym)):
            return True
        if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
            return rational(e.a) and rational(e.b)
        if isinstance(e, ex.Neg):
            return rational(e.a)
        if isinstance(e, ex.Pow):
            return rational(e.a)
        return False  # elementary function call

    planes = [chart.metric] + list(chart.base_gamma or ()) + list(chart.fiber_gamma or ())
    return all(rational(e) for plane in planes if plane is not None
               for row in plane for e in row)


def run(spec_path, suite: str, r: int, k: int, mode: str, tol, seed: int,
        out_path, jobs: int = 1, trials=None) -> int:
    try:
        data = load_spec(spec_path)
        chart = build_chart(data)
        if mode == RATIONAL and not _check_rational_ok(chart):
            raise SpecFileError(
                f"{spec_path}: rational mode needs polynomial/rational chart expressions")
        probes = resolve_probes(data, chart, mode, seed)
        usage = _flag_error(chart, suite, r, k, trials, tol, jobs) or _out_error(out_path)
        if usage:
            print(f"usage error: {usage}", file=sys.stderr)
            return 2
    except (SpecFileError, ChartValidationError, ChartDomainError,
            ExprSyntaxError, UndeclaredSymbolError) as err:
        print(f"spec error: {err}", file=sys.stderr)
        return 2
    except (EvalDomainError, ExactModeError) as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return 3
    ctx = su.SuiteContext(chart=chart, mode=mode, tol=tol, seed=seed,
                          r=r, k=k, probes=probes, trials=trials)
    t0 = time.perf_counter()
    try:
        if jobs > 1:
            runs = _run_parallel(ctx, suite, jobs)
        else:
            runs = [_timed_check(fn, ctx) for fn in su.SUITES[suite]]
    except (EvalDomainError, ExactModeError, ChartDomainError) as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0
    results = [row for rows, _name, _secs in runs for row in rows]
    per_check = {}
    for _rows, name, secs in runs:
        per_check[name] = per_check.get(name, 0.0) + secs
    report = make_report(data, suite, ctx, results, wall, per_check)
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        out = Path(out_path)
        out.write_text(text + "\n", encoding="utf-8")
        # a device or pipe (--out /dev/null) gets the JSON alone
        if out.is_file():
            out.with_suffix(".csv").write_text(to_csv(results), encoding="utf-8")
    else:
        print(text)
    for row in results:
        print(f"[{row.status}] {row.check}: residual {row.residual:g} (tol {row.tol:g})",
              file=sys.stderr)
    return 1 if any(r.status == "FAIL" for r in results) else 0


def _flag_error(chart, suite, r, k, trials, tol, jobs):
    """What is wrong with the run flags for this chart, or None."""
    if suite not in su.SUITES:
        return f"--suite {suite!r} names no suite (see 'atomcur suites')"
    if r < 0:
        return "--order must be at least 0"
    if not 0 <= k <= chart.d:
        return f"--degree must lie in 0..{chart.d}, the fiber dimension"
    if trials is not None and trials < 1:
        return "--trials must be at least 1"
    if jobs < 1:
        return "--jobs must be at least 1"
    # no residual meets a nan or negative tolerance, and inf passes every one
    if tol is not None and not 0 <= tol < math.inf:
        return f"--tol must be a finite number >= 0, not {tol!r}"
    return None


def _out_error(out_path):
    """What is wrong with an --out path, or None: it must name a file (new
    or not) in an existing directory, so that no run fails at its last
    step, after every check."""
    if not out_path:
        return None
    out = Path(out_path)
    if out.is_dir():
        return f"--out {out_path!r} is a directory"
    if not out.parent.is_dir():
        return f"--out {out_path!r}: no directory {str(out.parent)!r}"
    return None


def _timed_check(fn, ctx):
    """The rows of one registry check, its name and its wall seconds.  The
    probes the check built are released after it, so none outlives it."""
    t0 = time.perf_counter()
    rows = fn(ctx)
    secs = time.perf_counter() - t0
    release_probes(ctx.chart)
    return rows, fn.__name__, secs


# the (context, suite) that the forked workers of _run_parallel inherit
_pool_task = None


def _run_check(i):
    ctx, suite = _pool_task
    return _timed_check(su.SUITES[suite][i], ctx)


def _run_parallel(ctx, suite, jobs):
    # checks share no state.  Forked workers inherit ctx and the registry
    # lists, so a task is an index; a serial run imports no multiprocessing
    global _pool_task
    import concurrent.futures
    import multiprocessing
    checks = su.SUITES[suite]
    _pool_task = ctx, suite
    try:
        with concurrent.futures.ProcessPoolExecutor(
                min(jobs, len(checks)), multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run_check, range(len(checks))))
    finally:
        _pool_task = None


def make_report(data, suite, ctx, results, wall, per_check):
    checks = sorted((r.row() for r in results),
                    key=lambda row: (row["check"], str(row["probe"])))
    return {
        "spec_version": 1,
        "spec_name": data["name"],
        "suite": suite,
        "mode": ctx.mode,
        "order": ctx.r,
        "degree": ctx.k,
        "seed": ctx.seed,
        "tol": None if ctx.tol is None else str(ctx.tol),
        "checks": checks,
        "summary": {
            "total": len(results),
            "passed": sum(1 for r in results if r.status == "pass"),
            "failed": sum(1 for r in results if r.status == "FAIL"),
            "skipped": sum(1 for r in results if r.status == "skip"),
        },
        # seconds per registry check function, summed over its probes
        "timing": {"wall_seconds": wall, "per_check": per_check},
    }


def to_csv(results):
    lines = ["check,status,residual,tol,probe,note"]
    for r in sorted(results, key=lambda r: (r.check, str(r.probe))):
        probe = "" if r.probe is None else " ".join(str(x) for x in r.probe)
        note = r.note.replace(",", ";")
        lines.append(f"{r.check},{r.status},{r.residual:g},{r.tol:g},{probe},{note}")
    return "\n".join(lines) + "\n"


def make_random_polynomial_spec(n: int, seed: int) -> dict:
    """A random positive-definite polynomial metric spec on the unit box.

    Diagonal dominance keeps the metric positive definite: off-diagonal
    entries carry small rational coefficients, diagonal entries are
    1 + (square terms).
    """
    import random
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(n)] if n != 2 else ["x", "y"]
    metric = [["0"] * n for _ in range(n)]
    for i in range(n):
        terms = [f"{names[i]}^2"]
        if rng.random() < 0.5:
            j = rng.randrange(n)
            terms.append(f"{names[j]}^2/{rng.randint(2, 4)}")
        metric[i][i] = "1 + " + " + ".join(terms)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                c = rng.randint(1, 2)
                metric[i][j] = metric[j][i] = f"{names[i]}*{names[j]}/{4 * c}"
    denom = 8
    probes = []
    for _ in range(3):
        probes.append([f"{rng.randint(-denom + 1, denom - 1)}/{denom}"
                       for _ in range(n)])
    return {
        "spec_version": 1,
        "name": f"poly-random-{n}d-seed{seed}",
        "dimension": n,
        "coordinates": names,
        "domain": {nm: [-1.0, 1.0] for nm in names},
        "metric": metric,
        "probe_points": probes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="atomcur",
        description="verification engine for higher covariant derivatives and "
                    "point-supported currents")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a verification suite against a manifold spec")
    runp.add_argument("spec", help="path to a manifold spec JSON file")
    runp.add_argument("--suite", default="all")
    runp.add_argument("--order", type=int, default=2, help="tensor order bound r")
    runp.add_argument("--degree", type=int, default=1, help="exterior degree k")
    runp.add_argument("--mode", choices=[RATIONAL, FLOAT], default=FLOAT)
    runp.add_argument("--tol", type=float, default=None)
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--out", default=None, help="write the JSON report here (CSV beside it)")
    runp.add_argument("--jobs", type=int, default=1)
    runp.add_argument("--trials", type=int, default=None,
                      help="override per-check trial counts (smoke runs)")
    listp = sub.add_parser("suites", help="list suites with their identity anchors")
    genp = sub.add_parser("gen-poly",
                          help="emit a random positive-definite polynomial metric spec")
    genp.add_argument("--dimension", type=int, default=2)
    genp.add_argument("--seed", type=int, default=0)
    genp.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.command == "suites":
        for name, desc, anchor in su.list_suites():
            line = f"{name:24s} {desc}"
            if anchor:
                line += f"  [{anchor}]"
            print(line)
        return 0
    if args.command == "gen-poly":
        if args.dimension < 1:
            print("usage error: --dimension must be at least 1", file=sys.stderr)
            return 2
        usage = _out_error(args.out)
        if usage:
            print(f"usage error: {usage}", file=sys.stderr)
            return 2
        spec = make_random_polynomial_spec(args.dimension, args.seed)
        text = json.dumps(spec, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
        return 0
    return run(args.spec, args.suite, args.order, args.degree, args.mode,
               args.tol, args.seed, args.out, args.jobs, args.trials)


if __name__ == "__main__":
    sys.exit(main())
