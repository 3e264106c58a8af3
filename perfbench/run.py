"""mixsel benchmark: times ``mixsel cluster`` / ``mixsel simulate`` calls made
through the public CLI entry point on seeded workloads and checks every output.

    python3 perfbench/run.py --workload cluster-bic-tall --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare BASE CHANGE   # result files or directories

Run it from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run (wrappers around
each module's public functions, installed from this directory). The last line
of standard output is one JSON object; the full result, with provenance and
samples, is written under ``.perfbench/results``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
import speed
from tracing import Tracer, per_call

START = time.perf_counter()
SETUP_REPS = 5
# stop starting new calls past this point so a run exits well within 180 s
DEADLINE_S = 120.0

SETUP_SNIPPET = "import mixsel.cli; mixsel.cli.build_parser()"
# One CLI call in a fresh interpreter: its own wall time and peak RSS, plus the
# peak of its largest pool worker (workers are joined when main returns).
FRESH_CALL_SNIPPET = """\
import json, resource, sys, time
from mixsel.cli import main
t0 = time.perf_counter()
rc = main(sys.argv[1:])
wall = time.perf_counter() - t0
print(json.dumps({"rc": rc, "call_s": wall,
                  "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
"""

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# name: (unit, better). setup_s and call_adj_s.p50 are wall times rescaled to
# the reference machine speed (speed.py); call_s.p50 is the raw wall time.
# objective.neg_mean is the negated mean selected criterion value, so it is
# positive and lower is better.
END_TO_END = {
    "setup_s": ("s", "lower"), "call_adj_s.p50": ("s", "lower"),
    "call_s.p50": ("s", "lower"),
    "ari.mean": ("ARI", "higher"), "objective.neg_mean": ("nats", "lower"),
    "peak_rss_mb": ("MB", "lower"), "error_rate": ("ratio", "lower"),
}


def _env(root: Path) -> dict:
    paths = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def measure_setup(root: Path, reps: int) -> tuple:
    """(wall times, speed-adjusted times) of a fresh interpreter importing
    mixsel.cli and building the argument parser, as every mixsel command does
    before reading input."""
    times, adjusted = [], []
    for _ in range(reps):
        wall, adj = speed.measure_child([sys.executable, "-c", SETUP_SNIPPET], 60,
                                        env=_env(root), cwd=root,
                                        stdout=subprocess.DEVNULL)
        times.append(wall)
        adjusted.append(adj)
    return times, adjusted


def fresh_call(root: Path, argv: list) -> dict:
    try:
        proc = subprocess.run([sys.executable, "-c", FRESH_CALL_SNIPPET, *argv],
                              env=_env(root), cwd=root, capture_output=True,
                              text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"no exit within {DEADLINE_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    return json.loads(lines[-1])


def reset_caches() -> None:
    """Empty the package's functools caches, so each in-process call starts
    as a fresh ``mixsel`` process would (e.g. the mixed-design calibration)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mixsel" or name.startswith("mixsel.")):
            continue
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def in_process_call(argv: list) -> tuple:
    """(wall seconds, exit code or None, captured output) of one CLI call."""
    import mixsel.cli

    reset_caches()
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = mixsel.cli.main(argv)
    except Exception as exc:  # a crash is a failed call, not a crashed benchmark
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, buf.getvalue()


class Run:
    """State of one benchmark run: inputs, call accounting and checks."""

    def __init__(self, root: Path, wl: W.Workload, seed: int, work: Path):
        from mixsel.util import derive_seed

        self.root, self.wl, self.seed, self.work = root, wl, seed, work
        self._derive = derive_seed
        self.inputs = W.make_inputs(wl, seed, str(work))
        self.attempted = 0
        self.failures = []
        self.quality = []          # (ari, objective) of each checked timed call
        self.reference = None      # (argv, repeatable outputs) of the first call 0

    def cli_seed(self, c: int) -> int:
        return self._derive(self.seed, 202, c)

    def argv(self, c: int, fresh: bool = False) -> list:
        inp = self.inputs[c % len(self.inputs)]
        out = str(self.work / f"out{c % len(self.inputs)}")
        return W.argv_for(self.wl, inp, self.cli_seed(c), out, fresh)

    def check(self, c: int, argv: list, rc, message: str, keep_quality: bool) -> None:
        """Check the outputs of call c (made with ``argv``); a failure is
        recorded and counted. The first call 0 is the same-seed reference:
        every later call with the same argv (but for ``--threads``) must
        repeat its outputs."""
        self.attempted += 1
        inp = self.inputs[c % len(self.inputs)]
        out = W.flag(argv, "--out")
        try:
            if rc != 0:
                raise W.CheckFailed(f"exit code {rc}: {message.strip()[-500:]}")
            if self.wl.command == "cluster":
                quality = W.check_cluster(out, inp, W.flag(self.wl.flags, "--criterion"))
            else:
                quality = W.check_simulate(out, self.wl)
            if c == 0:
                got = W.read_repeatable(self.wl, out)
                if self.reference is None:
                    self.reference = (argv, got)
                elif W.same_call(argv, self.reference[0]) and got != self.reference[1]:
                    raise W.CheckFailed("same-seed repeat changed " + ", ".join(
                        k for k in got if got[k] != self.reference[1][k]))
        except (W.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            self.failures.append(f"call {c}: {type(exc).__name__}: {exc}")
            return
        if keep_quality:
            self.quality.append(quality)

    def first_call_fresh(self, keep_quality: bool) -> dict:
        """Call 0 in a fresh interpreter, with the workload's flags as a user
        gives them: the repeat reference and the peak RSS. Its wall time is
        kept apart from the timed in-process calls."""
        argv = self.argv(0, fresh=True)
        res = fresh_call(self.root, argv)
        self.check(0, argv, res.get("rc"), res.get("error", ""), keep_quality)
        return res


def time_up(t_start: float, seconds: float) -> bool:
    now = time.perf_counter()
    return now - t_start >= seconds or now - START >= DEADLINE_S


def run_untraced(run: Run, seconds: float) -> dict:
    """Call 0 in a fresh interpreter (peak RSS, and the repeat reference),
    then timed in-process calls until ``seconds`` have passed; call 0 is
    repeated in-process to check reproducibility. Calls and set-ups are timed
    together with the reference kernel (speed.py), which gives their
    speed-adjusted times."""
    t_start = time.perf_counter()
    fresh = run.first_call_fresh(keep_quality=True)
    times, adjusted = [], []
    c = 0
    while True:
        argv = run.argv(c)
        (_, rc, msg), wall, adj = speed.measure(lambda: in_process_call(argv))
        times.append(wall)
        adjusted.append(adj)
        run.check(c, argv, rc, msg, keep_quality=True)
        c += 1
        if time_up(t_start, seconds):
            break
    rss_kb = fresh.get("rss_self_kb", 0) + fresh.get("rss_children_kb", 0)
    setup_wall, setup = measure_setup(run.root, SETUP_REPS)
    ari = [q[0] for q in run.quality]
    obj = [q[1] for q in run.quality]
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "call_adj_s.p50": (statistics.median(adjusted), len(adjusted)),
        "call_s.p50": (statistics.median(times), len(times)),
        "ari.mean": (statistics.fmean(ari) if ari else 0.0, len(ari)),
        "objective.neg_mean": (-statistics.fmean(obj) if obj else 0.0, len(obj)),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
        "error_rate": (len(run.failures) / run.attempted, run.attempted),
    }
    return {"metrics": _metrics(metrics, END_TO_END),
            "first_call_s": fresh.get("call_s"),
            "samples": {"call_s": times, "call_adj_s": adjusted,
                        "setup_wall_s": setup_wall, "setup_s": setup,
                        "ari": ari, "objective": obj}}


PER_LAYER = {
    "io.read_csv.s": ("s", "lower"), "io.read_csv.cells_per_s": ("cells/s", "higher"),
    "data.packed.s": ("s", "lower"),
    "densities.normal_logpdf.calls": ("count", "lower"),
    "densities.normal_logpdf.s": ("s", "lower"),
    "em.run_penalized_em.s": ("s", "lower"), "em.run_em.s": ("s", "lower"),
    "em.calls": ("count", "lower"), "em.iterations": ("count", "lower"),
    "em.starts_kept_frac": ("ratio", "higher"), "em.s_per_iteration": ("s", "lower"),
    "micl.run_micl.s": ("s", "lower"), "micl.partition_step.s": ("s", "lower"),
    "micl.candidate_values.calls": ("count", "lower"),
    "micl.candidate_values.s": ("s", "lower"), "micl.sweeps": ("count", "lower"),
    "micl.apply_move.calls": ("count", "lower"), "micl.move_ratio": ("ratio", "higher"),
    "micl.model_update.calls": ("count", "lower"),
    "criteria.select_model.s": ("s", "lower"),
    "criteria.log_integrated_complete.s": ("s", "lower"),
    "simulate.calibrate_delta.s": ("s", "lower"),
    "simulate.calibrate_delta.calls": ("count", "lower"),
    "simulate.generate.s": ("s", "lower"), "simulate.ari.s": ("s", "lower"),
    "campaign.run_replicate.s": ("s", "lower"), "campaign.busy_frac": ("ratio", "higher"),
    "util.dump_json.s": ("s", "lower"), "cli.self.s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _metrics(values: dict, table: dict) -> dict:
    """{name: (value, samples)} -> result entries with unit and direction."""
    return {k: {"value": v, "unit": table[k][0], "better": table[k][1], "samples": n}
            for k, (v, n) in values.items()}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(calls: dict, n_rows: int, workers: int, pool_wall: float,
                  overhead: float) -> dict:
    """Per-layer metrics: times are means over the traced calls; counts come
    from the first traced call, so they repeat exactly for a given seed."""
    ids = sorted(calls)
    first = calls[ids[0]]

    def mean_s(name):
        return statistics.fmean(calls[i]["s"][name] for i in ids)

    def total(key, name):
        return sum(calls[i][key][name] for i in ids)

    cand = first["calls"]["micl.candidate_values"]
    em_iters = int(first["info"]["em.run_penalized_em.iterations"]
                   + first["info"]["em.run_em.iterations"])
    em_starts = first["info"]["em.run_penalized_em.starts"] + first["info"]["em.run_em.starts"]
    em_kept = first["info"]["em.run_penalized_em.starts_kept"] \
        + first["info"]["em.run_em.starts_kept"]
    all_iters = total("info", "em.run_penalized_em.iterations") \
        + total("info", "em.run_em.iterations")
    return {
        "io.read_csv.s": mean_s("io.read_csv"),
        "io.read_csv.cells_per_s": _ratio(total("info", "io.read_csv.cells"),
                                          total("s", "io.read_csv")),
        "data.packed.s": mean_s("data.packed"),
        "densities.normal_logpdf.calls": first["calls"]["densities.normal_logpdf"],
        "densities.normal_logpdf.s": mean_s("densities.normal_logpdf"),
        "em.run_penalized_em.s": mean_s("em.run_penalized_em"),
        "em.run_em.s": mean_s("em.run_em"),
        "em.calls": first["calls"]["em.run_penalized_em"] + first["calls"]["em.run_em"],
        "em.iterations": em_iters,
        "em.starts_kept_frac": _ratio(em_kept, em_starts),
        "em.s_per_iteration": _ratio(total("s", "em.run_penalized_em")
                                     + total("s", "em.run_em"), all_iters),
        "micl.run_micl.s": mean_s("micl.run_micl"),
        "micl.partition_step.s": mean_s("micl.partition_step"),
        "micl.candidate_values.calls": cand,
        "micl.candidate_values.s": mean_s("micl.candidate_values"),
        "micl.sweeps": cand / n_rows,  # evaluations per row, summed over starts
        "micl.apply_move.calls": first["calls"]["micl.apply_move"],
        "micl.move_ratio": _ratio(first["calls"]["micl.apply_move"], cand),
        "micl.model_update.calls": first["calls"]["micl.model_update"],
        "criteria.select_model.s": mean_s("criteria.select_model"),
        "criteria.log_integrated_complete.s": mean_s("criteria.log_integrated_complete"),
        "simulate.calibrate_delta.s": mean_s("simulate.calibrate_delta"),
        "simulate.calibrate_delta.calls": first["calls"]["simulate.calibrate_delta"],
        "simulate.generate.s": mean_s("simulate.generate"),
        "simulate.ari.s": mean_s("simulate.ari"),
        "campaign.run_replicate.s": mean_s("campaign.run_replicate"),
        "campaign.busy_frac": _ratio(first["s"]["campaign.run_replicate"],
                                     workers * pool_wall) if workers > 1 else 0.0,
        "util.dump_json.s": mean_s("util.dump_json"),
        "cli.self.s": mean_s("cli.self"),
        "trace.overhead_frac": overhead,
    }


def run_traced(run: Run, seconds: float, spans_path: Path) -> dict:
    """Pairs of (untraced, traced) calls on the same argv; the traced argv
    runs simulate on one worker so every span stays in this process."""
    fresh = run.first_call_fresh(keep_quality=False)
    tracer = Tracer()
    untraced, traced = [], []
    t_start = time.perf_counter()
    c = 0
    while True:
        argv = run.argv(c)
        wall, rc, msg = in_process_call(argv)
        untraced.append(wall)
        run.check(c, argv, rc, msg, keep_quality=True)
        tracer.call_id = c
        tracer.install()
        try:
            wall, rc, msg = in_process_call(argv)
        finally:
            tracer.uninstall()
        traced.append(wall)
        run.check(c, argv, rc, msg, keep_quality=False)
        c += 1
        if time_up(t_start, seconds):
            break
    overhead = statistics.median(t / u - 1.0 for t, u in zip(traced, untraced))
    workers = int(W.flag(run.wl.flags, "--threads", "1"))
    calls = per_call(tracer.spans)
    values = layer_metrics(calls, run.wl.params["n"], workers,
                           fresh.get("call_s", 0.0), overhead)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.span_dicts(), "missing_targets": tracer.missing}, fh)
    self_s = {layer: statistics.fmean(calls[i]["self_s"][layer] for i in calls)
              for layer in sorted({k for i in calls for k in calls[i]["self_s"]})}
    return {"metrics": _metrics({k: (v, len(traced)) for k, v in values.items()},
                                PER_LAYER),
            "samples": {"untraced_call_s": untraced, "traced_call_s": traced},
            "self_s_per_layer": self_s, "missing_targets": tracer.missing,
            "spans_file": str(spans_path)}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git(root: Path, *args) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas() -> dict:
    import numpy as np

    info = {"name": None, "threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["name"] = deps["blas"]["name"]
    except (TypeError, KeyError):
        pass
    try:
        import ctypes
        libdir = Path(np.__file__).parent.parent / "numpy.libs"
        for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    info["threads"] = int(fn())
                    break
    except OSError:
        pass
    return info


def provenance(root: Path, wl: W.Workload, seed: int) -> dict:
    import multiprocessing
    import platform

    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "mp_start_method": multiprocessing.get_start_method(),
        "workload": wl.name,
        "workload_seed": seed,
        "generator_params": wl.params,
        "cli_flags": wl.flags,
        "data_pool": wl.pool,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _print_human(wl, seed, res, run) -> None:
    print(f"workload {wl.name}, seed {seed}: {run.attempted} calls checked, "
          f"{len(run.failures)} failed")
    for name, m in res["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<8} n={m['samples']}")
    if "self_s_per_layer" in res:
        print("  self time per layer, s per traced call:")
        for layer, v in res["self_s_per_layer"].items():
            print(f"    {layer:<12} {v:10.4f}")
    for f in run.failures:
        print(f"  FAILED {f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs (smoke test)")
    p.add_argument("--results", default=".perfbench/results",
                   help="directory for the full result files")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                   help="compare two sets of result files instead of running")
    args = p.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare)
    if args.workload is None:
        p.error("--workload is required")

    root = Path.cwd()
    if not (root / "src" / "mixsel" / "cli.py").is_file():
        print(f"error: {root} has no src/mixsel; run from the root of a mixsel "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))

    wl = W.WORKLOADS[args.workload]
    if args.toy:
        wl = W.toy(wl)
    stamp = f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = root / ".perfbench" / "work" / stamp
    results = root / args.results
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(root, wl, args.seed, work)
        if args.trace:
            res = run_traced(run, args.seconds, results / f"{stamp}.spans.json")
        else:
            res = run_untraced(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failures)
    full = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "toy": args.toy,
            "provenance": provenance(root, wl, args.seed),
            "attempted": run.attempted, "failed": failed,
            "error_rate": failed / run.attempted, "failures": run.failures, **res}
    with open(results / f"{stamp}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    _print_human(wl, args.seed, res, run)
    print(f"  result file: {results / (stamp + '.json')}")
    # the gated metrics: exactly the group BENCHMARK.json names for this mode
    group = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]}
               for m in group}
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
