"""End-to-end benchmark of ``atomcur run SPEC --suite all``, with a traced
run for per-layer numbers.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root (any checkout holding ``src/atomcur``).
Each workload is a closed loop with one client: fresh ``atomcur`` processes
run back to back, the way a CI user's calls do, for about ``--seconds``
seconds.  ``--seed`` is passed to ``atomcur run --seed``.

``--trace 0`` reports the end-to-end metrics (medians over the run):

* ``run_s``: wall time of one invocation, from process start until the
  report is written;
* ``setup_s``: process start, ``import atomcur``, ``load_spec``,
  ``build_chart`` and ``resolve_probes``, measured in set-up-only
  processes started before the timed invocations;
* ``peak_rss_mb``: peak resident set of the invocation's process, read by
  the process itself at the end of the run (``VmHWM``).

``--trace 1`` runs one untraced and one traced invocation (wrappers from
``tracer.py``), plus the Cauchy-product microbenchmark, and reports the
per-layer metrics listed in ``BENCHMARK.json``.

Every invocation's report is checked: FAIL rows count against
``check_fail_frac``, and a report whose content minus ``timing`` differs
from its reference counts against ``report_mismatch_frac``.  Rational
reports are compared with the digests in ``reference.json`` (the jobs-2
workload with the jobs-1 digest), other reports with the first report of
the run.  Both fractions are printed, and a run with either above zero is
not correct.  The last line of standard output is the JSON result; a full
record (backend, Python version, nproc, seed, samples) is written under
``.perfbench_work/results`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import CALLS, INCL, NO_CHILD, NO_EVAL, SELF

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPECS = SRC / "atomcur" / "specs"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 8
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    spec: str
    mode: str
    jobs: int
    # workload whose report this one must reproduce byte for byte (minus timing)
    same_report_as: str | None = None

    @property
    def reference_key(self):
        return f"{self.spec}/{self.mode}"


WORKLOADS = {
    # the only bundled curved n=3 chart: largest jet spaces, heavy float
    # kernel, connection and operator work
    "curved3-float": Workload("poly3", "float", 1),
    # Fraction arithmetic dominates and the float kernel is never called;
    # its rational report is the oracle
    "curved2-exact": Workload("hyperbolic", "rational", 1),
    # small n=2 jets composed with sin: per-call overhead dominates.
    # BENCHMARK.json leaves it out: on a shared 2-vCPU host its 4-5 s
    # invocations slow together for minutes at a time, so the medians of
    # 40 s runs over ten seeds spread past the 0.25 bound; the cost of small
    # products stays measured as jets.cauchy_*_us_n2o4
    "sphere-float": Workload("s2", "float", 1),
    # the only workload through cli._run_parallel.  BENCHMARK.json leaves it
    # out: on a shared 2-vCPU host its two threads hand the interpreter lock
    # across CPUs, and host contention slowed it by up to 75% where the
    # single-threaded workloads lost 15-25%, beyond the 0.25 spread bound
    "curved2-exact-jobs2": Workload("hyperbolic", "rational", 2, "curved2-exact"),
}


@dataclass
class Invocation:
    """One child process: its stamps, exit, resource use and report."""
    wall_s: float
    exit: int
    stamp: dict
    rss_mb: float
    cpu_s: float
    report: dict | None = None

    @property
    def completed(self):
        return (self.exit == 0 and self.report is not None
                and self.stamp.get("exit") in (0, 1))


def child_env():
    env = dict(os.environ)
    env.pop("ATOMCUR_JET_BACKEND", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args) -> Invocation:
    """Start ``child.py ARGS`` and wait for it; wall time ends at its stamp."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stdout.close()
    end = time.perf_counter()
    stamp = {}
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            stamp = json.loads(lines[-1])
        except json.JSONDecodeError:
            stamp = {}
    done = stamp.get("t_done", end)
    return Invocation(wall_s=done - t0, exit=proc.returncode,
                      stamp=stamp, rss_mb=stamp.get("peak_rss_kb", 0) / 1024.0,
                      cpu_s=usage.ru_utime + usage.ru_stime)


def atomcur_argv(w: Workload, seed: int, out: Path):
    return ["run", str(SPECS / f"{w.spec}.json"), "--suite", "all", "--mode", w.mode,
            "--seed", str(seed), "--jobs", str(w.jobs), "--out", str(out)]


def invoke(w: Workload, seed: int, out: Path, trace_path: Path | None = None) -> Invocation:
    if out.exists():
        out.unlink()
    argv = atomcur_argv(w, seed, out)
    if trace_path is None:
        inv = spawn(["run", "--", *argv])
    else:
        inv = spawn(["trace", str(trace_path), "--", *argv])
    if inv.exit == 0 and out.is_file():
        try:
            inv.report = json.loads(out.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            inv.report = None
    return inv


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


@dataclass
class Verdict:
    """Correctness of a run's invocations, against the workload's reference."""
    rows: int = 0
    fail_rows: int = 0
    reports: int = 0
    mismatched: int = 0
    failed_invocations: int = 0
    backends: set = field(default_factory=set)

    @property
    def check_fail_frac(self):
        return self.fail_rows / self.rows if self.rows else 1.0

    @property
    def report_mismatch_frac(self):
        return self.mismatched / self.reports if self.reports else 1.0


def judge(invocations, reference_digest) -> Verdict:
    """A crashed invocation counts as many rows as a completed one of the run
    (or one, if none completed), all failed, and its report as mismatched."""
    v = Verdict()
    completed = [inv for inv in invocations if inv.completed]
    expected_rows = 1
    if completed:
        s = completed[0].report["summary"]
        expected_rows = s["total"] - s["skipped"]
    for inv in invocations:
        v.reports += 1
        if "backend" in inv.stamp:
            v.backends.add(inv.stamp["backend"])
        bad = False
        if inv.completed:
            s = inv.report["summary"]
            v.rows += s["total"] - s["skipped"]
            v.fail_rows += s["failed"]
            bad = s["failed"] > 0
            if reference_digest is None:
                reference_digest = report_digest(inv.report)
            if report_digest(inv.report) != reference_digest:
                v.mismatched += 1
                bad = True
        else:
            v.rows += expected_rows
            v.fail_rows += expected_rows
            v.mismatched += 1
            bad = True
        v.failed_invocations += bad
    return v


def load_reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def reference_for(w: Workload, seed, work: Path, extra: list):
    """Digest the reports of this run must match, or None for 'the first report'.

    Recorded digests exist for rational workloads.  For a seed without one,
    a workload that must reproduce another's report runs that workload once,
    untimed, as the reference; ``extra`` collects that invocation.
    """
    if w.mode == "rational":
        recorded = load_reference().get(w.reference_key, {}).get(str(seed))
        if recorded is not None:
            return recorded
    if w.same_report_as is not None:
        inv = invoke(WORKLOADS[w.same_report_as], seed, work / "reference.json")
        extra.append(inv)
        if inv.completed:
            return report_digest(inv.report)
        return "no reference report"
    return None


def preflight():
    if not (SRC / "atomcur" / "cli.py").is_file():
        sys.exit(f"perfbench: no atomcur sources under {SRC}; run from a checkout of the repository")
    # compile once so that no timed process pays for bytecode compilation
    if not compileall.compile_dir(str(SRC / "atomcur"), quiet=1):
        sys.exit("perfbench: atomcur sources do not compile")


def environment(seed):
    return {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}


def run_untraced(w: Workload, seed, seconds, work: Path):
    start = time.perf_counter()
    setup_args = ["setup", str(SPECS / f"{w.spec}.json"), w.mode, str(seed)]
    # half the set-up samples before the timed invocations and half after,
    # so that they see the host at both ends of the run
    setups = [spawn(setup_args) for _ in range(SETUP_REPEATS // 2)]
    extra = []
    reference = reference_for(w, seed, work, extra)
    timed = []
    while True:
        inv = invoke(w, seed, work / "report.json")
        timed.append(inv)
        elapsed = time.perf_counter() - start
        if elapsed + inv.wall_s > seconds:
            break
    setups += [spawn(setup_args) for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    if not all(s.exit == 0 and s.stamp for s in setups):
        sys.exit("perfbench: a set-up process failed")
    verdict = judge(extra + timed, reference)
    verdict.backends.update(s.stamp["backend"] for s in setups)
    metrics = {
        "run_s": (statistics.median(i.wall_s for i in timed), "s"),
        "setup_s": (statistics.median(s.wall_s for s in setups), "s"),
        "peak_rss_mb": (statistics.median(i.rss_mb for i in timed), "MB"),
    }
    samples = {"run_s": [i.wall_s for i in timed], "setup_s": [s.wall_s for s in setups],
               "peak_rss_mb": [i.rss_mb for i in timed]}
    return verdict, metrics, samples, len(extra) + len(timed)


def layer_metrics(trace: dict, cauchy: dict, untraced: Invocation, traced: Invocation,
                  w: Workload):
    totals = trace["totals"]

    def row(name):
        return totals.get(name, [0, 0.0, 0.0, 0, 0])

    def ratio(a, b):
        return a / b if b else 0.0

    mul = row("jets.mul")
    ev = row("expr.eval_jet")
    g1 = row("connection.gamma1_jet")
    nw = row("covderiv.nabla_word_jets")
    cj = row("covderiv.comp_jet")
    madds = trace["madds"]
    us = cauchy["us_per_product"]
    m = {
        "jets.mul_calls": (mul[CALLS], "count"),
        "jets.madds": (madds, "count"),
        "jets.mul_s": (mul[INCL], "s"),
        "jets.madds_per_s": (ratio(madds, mul[INCL]), "1/s"),
        "jets.terms_per_mul": (ratio(madds, mul[CALLS]), "count"),
        "jets.reciprocal_calls": (row("jets.reciprocal")[CALLS], "count"),
        "jets.compose_series_s": (row("jets.compose_series")[INCL], "s"),
        "jets.cauchy_f64_us_n3o6": (us["float/n3o6"], "us"),
        "jets.cauchy_f64_us_n2o4": (us["float/n2o4"], "us"),
        "jets.cauchy_q_us_n3o6": (us["rational/n3o6"], "us"),
        "jets.cauchy_q_us_n2o4": (us["rational/n2o4"], "us"),
        "expr.eval_jet_calls": (ev[CALLS], "count"),
        "expr.eval_jet_s": (ev[INCL], "s"),
        "expr.eval_jet_useful_ratio": (ratio(trace["eval_keys"], ev[CALLS]), "ratio"),
        "connection.gamma1_calls": (g1[CALLS], "count"),
        "connection.gamma1_hit_ratio": (ratio(g1[NO_EVAL], g1[CALLS]), "ratio"),
        "connection.higher_gamma_s": (row("connection.higher_gamma_jets")[INCL], "s"),
        "connection.from_metric_s": (row("connection.from_metric")[INCL], "s"),
        "covderiv.nabla_word_calls": (nw[CALLS], "count"),
        "covderiv.nabla_word_hit_ratio": (ratio(nw[NO_CHILD], nw[CALLS]), "ratio"),
        "covderiv.nabla_word_self_s": (nw[SELF], "s"),
        "covderiv.covariant_step_s": (row("covderiv.covariant_step")[INCL], "s"),
        "covderiv.covariant_product_s": (row("covderiv.covariant_product")[INCL], "s"),
        "covderiv.comp_jet_evals": (cj[CALLS] - cj[NO_EVAL], "count"),
        "multialg.self_s": (sum(r[SELF] for n, r in totals.items()
                                if n.startswith("multialg.")), "s"),
        "atomic.phi_apply_calls": (row("atomic.phi_apply")[CALLS], "count"),
        "atomic.phi_apply_s": (row("atomic.phi_apply")[INCL], "s"),
        "atomic.to_pbw_s": (row("atomic.to_pbw")[INCL], "s"),
        "atomic.kernel_basis_s": (row("atomic.kernel_basis")[INCL], "s"),
        "operators.sharp_s": (row("operators.sharp")[INCL], "s"),
        "operators.sharp_self_s": (row("operators.sharp")[SELF], "s"),
        "operators.adjoint_s": (row("operators.adjoint")[INCL], "s"),
        "operators.boundary_s": (row("operators.boundary_all")[INCL], "s"),
    }
    for suite in trace["suites"]:
        m[f"suites.{suite}_s"] = (row(f"suites.{suite}")[INCL], "s")
    m.update({
        "cli.load_spec_s": (row("cli.load_spec")[INCL], "s"),
        "cli.build_chart_s": (row("cli.build_chart")[INCL], "s"),
        "cli.resolve_probes_s": (row("cli.resolve_probes")[INCL], "s"),
        # after the suites, cli.run's own time is the JSON dump and the writes
        "cli.report_s": (row("cli.make_report")[INCL] + row("cli.to_csv")[INCL]
                         + row("cli.run")[SELF], "s"),
        # from the untraced invocation, whose threads the tracer does not slow
        "cli.parallel_cpu_util": (untraced.cpu_s / (untraced.wall_s * w.jobs), "ratio"),
        "trace.overhead_frac": (traced.wall_s / untraced.wall_s - 1.0, "ratio"),
    })
    return m


def run_traced(w: Workload, seed, work: Path):
    extra = []
    reference = reference_for(w, seed, work, extra)
    untraced = invoke(w, seed, work / "report.json")
    trace_path = work / "trace.json"
    if trace_path.exists():
        trace_path.unlink()
    traced = invoke(w, seed, work / "report.json", trace_path=trace_path)
    verdict = judge(extra + [untraced, traced], reference)
    if not (untraced.completed and traced.completed and trace_path.is_file()):
        sys.exit("perfbench: the traced run did not complete")
    cauchy = spawn(["cauchy"])
    if cauchy.exit != 0 or not cauchy.stamp:
        sys.exit("perfbench: the Cauchy-product microbenchmark failed")
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    metrics = layer_metrics(trace, cauchy.stamp, untraced, traced, w)
    samples = {"untraced_run_s": [untraced.wall_s], "traced_run_s": [traced.wall_s]}
    return verdict, metrics, samples, len(extra) + 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    preflight()
    w = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    if args.trace:
        verdict, metrics, samples, attempted = run_traced(w, args.seed, work)
    else:
        verdict, metrics, samples, attempted = run_untraced(w, args.seed, args.seconds, work)
    env = environment(args.seed)
    backend = ",".join(sorted(verdict.backends)) or "unknown"
    # one backend across every process of the run, and every invocation clean
    correct = len(verdict.backends) == 1 and verdict.failed_invocations == 0
    print(f"workload {args.workload}: {w.spec} {w.mode} --jobs {w.jobs}, seed {args.seed}, "
          f"backend {backend}, python {env['python']}, nproc {env['nproc']}")
    for key, (value, unit) in metrics.items():
        n = len(samples.get(key, ()))
        print(f"  {key:34s} {value:14.6g} {unit}" + (f"  (median of {n})" if n else ""))
    print(f"  {'check_fail_frac':34s} {verdict.check_fail_frac:14.6g} ratio"
          f"  ({verdict.fail_rows} FAIL of {verdict.rows} rows)")
    print(f"  {'report_mismatch_frac':34s} {verdict.report_mismatch_frac:14.6g} ratio"
          f"  ({verdict.mismatched} of {verdict.reports} reports)")
    record = {"workload": args.workload, "trace": args.trace, "backend": backend,
              **env, "seconds": args.seconds, "correct": correct,
              "check_fail_frac": verdict.check_fail_frac,
              "report_mismatch_frac": verdict.report_mismatch_frac,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "samples": samples}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": verdict.failed_invocations,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
