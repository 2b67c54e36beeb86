"""hiercomment benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload toy-pipeline --seed 1 --seconds 20 --trace 0

With `--trace 0` the command sequence of the workload (see workloads.py)
repeats back to back until `--seconds` have passed, and at least twice so
that reruns can be compared byte for byte; each end-to-end metric is the
median over passes.  With `--trace 1` it runs an untraced pass, a traced
pass and another untraced pass, and reports the per-layer metrics of the
traced pass plus the tracing overhead (traced minus mean untraced command
time).  `setup_s` is the median time to import numpy and the program
(this process and IMPORT_REPEATS fresh interpreters) plus the median
time of the workload's repeated set-ups, file creation of the generated
tree left out.  The last line of standard output is the result object;
the line before it carries provenance, generated input sizes and per-pass
detail.
The traced run also writes its spans to `.bench_out/`.

The program is imported from `src/` of the working directory; nothing is
installed.  BLAS threads are pinned per workload (BLAS_THREADS) before
numpy loads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread where BLAS calls are small: on a shared two-core machine a
# two-thread call stalls at its barrier whenever a neighbour takes the other
# core, turning a 50 ms eigh into a second.  corpus-scale keeps two threads
# for its 5,000 x 5,000 eigh, which takes twice as long on one.
BLAS_THREADS = {"toy-pipeline": 1, "paper-dims": 1, "corpus-scale": 2}
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "pipeline_s": "s",
    "train_tokens_per_s": "tok/s", "valid_nll": "nats/tok",
    "generate_examples_per_s": "ex/s",
}
# Stage figures measured over windows of about a second or less.  On a
# shared machine their run-to-run spread reached 20-45%, past any bound a
# gate may use, so they are printed in the detail line, not gated.
UNGATED_UNITS = {"mine_files_per_s": "files/s", "fit_s": "s",
                 "eval_examples_per_s": "ex/s", "compare_s": "s"}
WORKLOADS = ("toy-pipeline", "paper-dims", "corpus-scale")
WORK_DIR = ".bench_work"
IMPORT_REPEATS = 4      # fresh interpreters timed on top of this one
OUT_DIR = ".bench_out"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink every input size (for the benchmark's own tests)")
    return ap.parse_args(argv)


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "--git-dir", ".git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(workload: str, seed: int, threads: str) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    src = hashlib.sha256()
    pkg = os.path.join("src", "hiercomment")
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), "rb") as fh:
                src.update(fn.encode() + fh.read())
    why = None
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}.get(workload)
    return {
        "workload": workload, "seed": seed, "why": why,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": threads, "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def run(args) -> int:
    threads = str(min(BLAS_THREADS[args.workload], os.cpu_count() or 1))
    for var in BLAS_ENV:
        os.environ[var] = threads
    if not os.path.isfile(os.path.join("src", "hiercomment", "__init__.py")):
        print("error: run from a hiercomment checkout (src/hiercomment missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.abspath("src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (import cost belongs to set-up)
    import hiercomment.cli  # noqa: F401
    import_times = [time.perf_counter() - t0] + _import_times(IMPORT_REPEATS)
    import tracing
    import workloads as WL

    w = WL.workloads(smoke=args.smoke)[args.workload]
    if w.tree is None and not os.path.isdir(WL.TOY_CORPUS):
        print("error: bundled corpus %s missing" % WL.TOY_CORPUS, file=sys.stderr)
        return 2
    base = os.path.join(WORK_DIR, "%s-seed%d-%d" % (w.name, args.seed, os.getpid()))
    try:
        return _run_workload(args, w, WL, tracing, base, import_times, threads)
    finally:
        WL.remove(base)


def _import_times(n: int) -> list:
    """Seconds to import numpy and the program, in each of `n` fresh
    interpreters: a single import's time depends on what the page cache
    holds at that moment."""
    code = ("import time; t0 = time.perf_counter(); import numpy, hiercomment.cli; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    return [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(n)]


def _warm_up() -> float:
    """Finish the BLAS/LAPACK lazy initialisation before anything is timed.

    The first multi-threaded `eigh` of a process can cost about a second
    more than later ones; a user pays that once per process, the same
    for every commit, so it is kept out of the measured passes.
    """
    import numpy as np
    t0 = time.perf_counter()
    a = np.arange(64.0 * 64).reshape(64, 64) / 4096.0
    np.linalg.eigh(a + a.T)
    (a @ a).sum()
    return time.perf_counter() - t0


def _run_workload(args, w, WL, tracing, base, import_times, threads) -> int:
    attempted, failures = 0, []
    warmup_s = _warm_up()
    setup_times, setups = [], []
    for i in range(w.setup_repeats):
        t0 = time.perf_counter()
        setups.append(WL.build_setup(w, args.seed, os.path.join(base, "setup%d" % i)))
        # creating a tree's ~1,500 files takes 0.35-1.5 s depending on the
        # file system's writeback, not on the program; it is left out
        setup_times.append(time.perf_counter() - t0 - setups[-1].write_s)
    setup = setups[-1]
    attempted += 1
    if len({s.digest for s in setups}) != 1:
        failures.append("check setup_deterministic: repeated set-up wrote different inputs")
    for s in setups[:-1]:
        WL.remove(s.root)
    # objects alive now live for the whole run; keep the collector off them
    gc.collect()
    gc.freeze()

    passes = []
    tracer = None
    n = 0
    t_run = time.perf_counter()
    while True:
        traced = args.trace == 1 and n == 1
        if traced:
            tracer = tracing.Tracer(run_id="%s-seed%d" % (w.name, args.seed))
        res = WL.run_pass(w, setup, args.seed, os.path.join(base, "pass%d" % n),
                          tracer if traced else None)
        if passes and passes[0].hashes and res.hashes:
            WL.check_same(res, passes[0])
        if n == 0 and res.hashes:
            setup.info.update(WL.describe_inputs(os.path.join(base, "pass0")))
        WL.remove(os.path.join(base, "pass%d" % n))
        passes.append(res)
        attempted += res.attempted
        failures.extend(res.failures)
        n += 1
        if res.failures:
            break
        if args.trace == 1:
            if n == 3:
                break
        elif n >= 2 and time.perf_counter() - t_run >= args.seconds:
            break

    good = [p for p in passes if p.metrics]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures)}
    info = {
        "provenance": _provenance(w.name, args.seed, threads),
        "generated": setup.info,
        "setup_times_s": setup_times, "import_times_s": import_times,
        "tree_write_s": [s.write_s for s in setups], "warmup_s": warmup_s,
        "passes": [{"seconds": p.seconds, "pipeline_s": p.pipeline_s,
                    "stage_s": p.stage_s, "metrics": p.metrics,
                    "traced": args.trace == 1 and i == 1, **p.info}
                   for i, p in enumerate(passes)],
        "failures": failures,
    }
    if args.trace == 1 and len(good) == 3:
        untraced = (good[0].pipeline_s + good[2].pipeline_s) / 2
        overhead = good[1].pipeline_s - untraced
        layer = tracing.layer_metrics(tracer, overhead, untraced)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        _write_trace(w.name, args.seed, tracer, layer, info)
    elif args.trace == 0 and good:
        values = {k: statistics.median([p.metrics[k] for p in good]) for k in good[0].metrics}
        values["setup_s"] = statistics.median(import_times) + statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = {k: {"value": values[k], "unit": u}
                             for k, u in END_TO_END_UNITS.items()}
        info["ungated"] = {k: {"value": values[k], "unit": u}
                           for k, u in UNGATED_UNITS.items()}
    else:
        print(json.dumps(info, sort_keys=True))
        print("error: no pass completed; failures: %s" % failures, file=sys.stderr)
        return 1
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def _write_trace(workload, seed, tracer, layer, info) -> None:
    import tracing
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))
    payload = {
        "info": info,
        "per_layer": {k: v for k, (v, _) in layer.items()},
        "spans": tracing.span_records(tracer),
        "leaf_seconds": dict(tracer.leaf_time), "leaf_calls": dict(tracer.leaf_calls),
        "leaf_seconds_by_parent": {str(k): v for k, v in tracer.leaf_by_parent.items()},
        "counts": dict(tracer.counts),
        "model.generate": tracing.percentile_report(
            [e - s for _, n, s, e, _ in tracer.spans if n == "model.generate"]),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv=None) -> int:
    return run(_parse(argv))


if __name__ == "__main__":
    sys.exit(main())
