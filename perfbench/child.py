"""One benchmark process: started fresh by ``run.py`` for every measurement.

    python3 perfbench/child.py setup SPEC MODE SEED
    python3 perfbench/child.py run -- ATOMCUR_ARGS...
    python3 perfbench/child.py trace TRACE_JSON -- ATOMCUR_ARGS...
    python3 perfbench/child.py cauchy

``run`` is what a user's ``atomcur run ...`` does (the console script calls
``atomcur.cli.main``).  ``setup`` stops after the set-up part of a run:
``import atomcur``, ``load_spec``, ``build_chart`` and ``resolve_probes``.
``trace`` is ``run`` with the span tracer installed.  ``cauchy`` times
single truncated Cauchy products.  The last line of standard output is a
JSON object with ``time.perf_counter()`` stamps, which share the system-wide
monotonic clock with the parent on Linux.
"""

import json
import sys
import time


def _env():
    import atomcur
    return {"backend": "compiled" if atomcur.BACKEND_COMPILED else "pure",
            "python": sys.version.split()[0]}


def _peak_rss_kb():
    """Peak resident set of this process since exec (VmHWM).  ``ru_maxrss``
    would not do: exec carries the parent's peak over into it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(spec, mode, seed):
    from atomcur import cli
    data = cli.load_spec(spec)
    chart = cli.build_chart(data)
    cli.resolve_probes(data, chart, mode, int(seed))
    return {"t_done": time.perf_counter(), **_env()}


def run(argv):
    from atomcur import cli
    code = cli.main(argv)
    t_done = time.perf_counter()
    return {"t_done": t_done, "exit": code, "peak_rss_kb": _peak_rss_kb(), **_env()}


def trace(out_path, argv):
    from atomcur import cli, suites
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        t_done = time.perf_counter()
        restored = tracer.uninstall()
    totals, madds = tracer.totals()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"totals": totals, "madds": madds,
                   "eval_keys": len(tracer.eval_keys), "restored": restored,
                   "suites": list(suites.CHECKS),
                   "spans": tracer.records()}, fh)
    return {"t_done": t_done, "exit": code, **_env()}


# (n, order) of the Cauchy-product microbenchmark: the n=3 poly3 jets, where
# the kernel's bulk rate dominates, and the n=2 sphere jets, where per-call
# overhead does
CAUCHY_SHAPES = ((3, 6), (2, 4))


def cauchy(batch_s=0.05, batches=7):
    """Median microseconds per product, per (mode, n, order)."""
    import statistics
    from fractions import Fraction
    from atomcur.jets import FLOAT, RATIONAL, Jet, JetSpace
    out = {}
    for mode, x0, y0 in ((FLOAT, 0.3, -0.2), (RATIONAL, Fraction(3, 10), Fraction(-1, 5))):
        for n, order in CAUCHY_SHAPES:
            space = JetSpace(n, order)
            a = Jet.variable(space, mode, 0, x0)
            b = Jet.variable(space, mode, 1, y0)
            for _ in range(4):
                a = a * a + b
                b = b * a
            reps = 1
            while True:
                t0 = time.perf_counter()
                for _ in range(reps):
                    a * b
                if time.perf_counter() - t0 >= batch_s:
                    break
                reps *= 2
            per = []
            for _ in range(batches):
                t0 = time.perf_counter()
                for _ in range(reps):
                    a * b
                per.append((time.perf_counter() - t0) * 1e6 / reps)
            out[f"{mode}/n{n}o{order}"] = statistics.median(per)
    return {"us_per_product": out, **_env()}


def main(argv):
    cmd, rest = argv[0], argv[1:]
    if cmd == "setup":
        result = setup(*rest)
    elif cmd == "run":
        result = run(rest[rest.index("--") + 1:])
    elif cmd == "trace":
        result = trace(rest[0], rest[rest.index("--") + 1:])
    elif cmd == "cauchy":
        result = cauchy()
    else:
        raise SystemExit(f"unknown child command {cmd!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
