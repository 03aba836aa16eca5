#!/usr/bin/env python3
"""Benchmark of the bistatic-radcom pipeline, measured from outside the package.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the package is imported from
``src/``). For one workload and seed the benchmark

1. records the environment and refuses to start when ``MemAvailable`` is below
   the workload's expected peak plus a margin;
2. writes the scenario JSON of each of the workload's seeded inputs (and, for
   ``capture_low_snr``, the ``rx.iq`` that ``run_scenario`` would write),
   timed on its own as ``gen_s``;
3. warms the import caches once, then starts one fresh child process after
   another, each timing its set-up and one pipeline call on the next input,
   until ``--seconds`` have passed and every input ran; a few set-up-only
   children top up the set-up samples;
4. checks every call's artifacts and hashes them;
5. prints the metrics by name and unit, then one JSON line as the last line.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes one
untraced call and then traced calls (see ``tracer.py``) and reports the
per-layer metrics, including the tracing overhead. Run state, per-run
reports, traces and an artifact-digest log go to ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import call_metrics, combine, metric_units, selfcheck
from workloads import (DEFAULT_SEED, WORKLOADS, Workload, echo_path, input_seeds,
                       scenario_doc)

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_runs"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "evm_rms_percent": "%"}
RUN_LIMIT_S = 165.0     # one invocation must end well inside 180 s
SETUP_SAMPLES = 5       # set-up is timed at least this often per run
MEM_MARGIN = 1.25       # pre-flight: MemAvailable >= peak * margin + slack
MEM_SLACK_MB = 256.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RX_ARTIFACTS = ("cir_evolution.csv", "constellation.csv", "detections.csv",
                "sync_report.json", "comm_metrics.json")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# environment

def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    mem = _proc_field("/proc/meminfo", "MemAvailable")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_available_mb": int(mem.split()[0]) // 1024 if mem else None,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": sys.version.split()[0],
    }


def preflight(w: Workload, env: dict) -> None:
    need = w.expected_peak_mb * MEM_MARGIN + MEM_SLACK_MB
    have = env["mem_available_mb"]
    if have is not None and have < need:
        raise BenchError(
            f"{w.name}: MemAvailable is {have:.0f} MB, below the {need:.0f} MB "
            f"this workload needs (expected peak {w.expected_peak_mb:.0f} MB "
            f"x {MEM_MARGIN} + {MEM_SLACK_MB:.0f} MB); not starting it")


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# children

def run_child(mode: str, w: Workload, scenario: Path, out: Path, deadline: float,
              iq: Path | None = None) -> tuple[dict | None, str, float]:
    """Start one child and wait for it. Returns (result or None, error, seconds)."""
    tag = out.name
    result = out.parent / f"{tag}.json"
    cmd = [sys.executable, str(CHILD), "--mode", mode, "--verb", w.verb,
           "--scenario", str(scenario), "--out", str(out), "--result", str(result)]
    if iq is not None:
        cmd += ["--iq", str(iq)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return None, f"{tag}: timed out", time.perf_counter() - t0
    spent = time.perf_counter() - t0
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"{tag}: exit {proc.returncode} {tail[0]}", spent
    return json.loads(result.read_text()), "", spent


def artifact_digests(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()}


def check_call(w: Workload, doc: dict, res: dict, outdir: Path) -> list[str]:
    """Output checks of one successful child; returns the failures."""
    missing = [a for a in RX_ARTIFACTS if not (outdir / a).is_file()]
    if missing:
        return [f"missing artifacts {missing}"]
    bad = []
    metrics = json.loads((outdir / "comm_metrics.json").read_text())
    sync = json.loads((outdir / "sync_report.json").read_text())
    imp = doc["channel"]["impairments"]
    if abs(sync["fine_start"] - imp["sto_samples"]) >= doc["frame"]["cp_len"]:
        bad.append(f"sync locked at {sync['fine_start']}, frame starts at {imp['sto_samples']}")
    if w.verb == "run":
        if metrics["post_fec_ber"] != 0 or not metrics["decoder_converged"]:
            bad.append(f"post_fec_ber {metrics['post_fec_ber']}, "
                       f"decoder_converged {metrics['decoder_converged']}")
    elif not metrics["post_fec_ber"] < metrics["pre_fec_ber"]:
        bad.append(f"post_fec_ber {metrics['post_fec_ber']} not below "
                   f"pre_fec_ber {metrics['pre_fec_ber']}")

    echo_r, echo_d = echo_path(doc)
    rows = [line.split(",") for line in
            (outdir / "detections.csv").read_text().splitlines()[1:]]
    for mode, res_cell in res["resolution"].items():
        hit = any(r[0] == mode
                  and abs(float(r[1]) - echo_r) <= res_cell["range_m"] / 2
                  and abs(float(r[2]) - echo_d) <= res_cell["doppler_hz"] / 2
                  for r in rows)
        if not hit:
            bad.append(f"{mode}: echo at {echo_r:.3f} m / {echo_d:.0f} Hz not detected")
    if doc["sensing"].get("write_map_csv", True):
        bad += [f"missing rd_map_{m}.csv" for m in res["resolution"]
                if not (outdir / f"rd_map_{m}.csv").is_file()]
    if "spans" in res:
        bad += selfcheck(res["spans"])
    return bad


# ---------------------------------------------------------------------------
# one workload

def bench(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    for needed in (ROOT / "src" / "bistatic_radcom" / "scenario.py",
                   ROOT / "scenarios" / f"{w.base}.json"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} not found; run from a "
                             "bistatic-radcom source checkout")
    env = environment()
    preflight(w, env)

    rundir = WORK / f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    seeds = input_seeds(w, seed)
    docs = [scenario_doc(ROOT, w, s) for s in seeds]

    # input generation is timed apart from set-up and the pipeline calls. The
    # first child also takes the first import after a checkout, which compiles
    # bytecode and reads the libraries from disk; users pay that once.
    t0 = time.perf_counter()
    scenarios, iqs = [], []
    for k, doc in enumerate(docs):
        scenarios.append(rundir / f"scenario{k}.json")
        scenarios[k].write_text(json.dumps(doc, indent=2) + "\n")
        if w.verb == "capture":
            warm, err, _ = run_child("gen", w, scenarios[k], rundir / f"input{k}", deadline)
            iqs.append(rundir / f"input{k}" / "rx.iq")
            if warm is None or not Path(f"{iqs[k]}.json").is_file():
                raise BenchError(f"input generation failed: {err or 'no rx.iq written'}")
    gen_s = time.perf_counter() - t0
    if not iqs:
        warm, err, _ = run_child("setup", w, scenarios[0], rundir / "warmup", deadline)
        if warm is None:
            raise BenchError(f"package set-up failed: {err}")

    calls, failures, setups = [], [], []
    t_measure = time.monotonic()
    min_calls = max(len(docs), 2 if trace else 1)
    while True:
        n = len(calls)
        k = n % len(docs)
        mode = "trace" if trace and n > 0 else "call"
        outdir = rundir / f"call{n}"
        res, err, spent = run_child(mode, w, scenarios[k], outdir, deadline,
                                    iq=iqs[k] if iqs else None)
        record = {"mode": mode, "input": k, "child_s": spent, "ok": False}
        if res is None:
            failures.append(err)
        else:
            problems = check_call(w, docs[k], res, outdir)
            failures += [f"call{n}: {p}" for p in problems]
            record.update(ok=not problems, setup_s=res["setup_s"], wall_s=res["wall_s"],
                          peak_rss_mb=res["peak_rss_mb"], summary=res["summary"],
                          digests=artifact_digests(outdir))
            setups.append(res["setup_s"])
            if "spans" in res:
                record["layers"] = call_metrics(res["spans"], res["wall_s"],
                                                res["load_scenario_s"],
                                                res["gather_taps"])
                (rundir / f"trace{n}.json").write_text(json.dumps(res["spans"]))
        calls.append(record)
        shutil.rmtree(outdir, ignore_errors=True)
        now = time.monotonic()
        if now + spent > deadline:
            break
        if now - t_measure >= seconds and len(calls) >= min_calls:
            break
    measured_s = time.monotonic() - t_measure

    while len(setups) < SETUP_SAMPLES and time.monotonic() + 10.0 < deadline:
        res, err, _ = run_child("setup", w, scenarios[0], rundir / f"setup{len(setups)}",
                                deadline)
        if res is None:
            failures.append(err)
            break
        setups.append(res["setup_s"])

    ok = [c for c in calls if c["ok"]]
    # each input's artifacts, from its first good call; they must not differ
    # between calls on the same input
    digests = {}
    for c in ok:
        digests.setdefault(c["input"], c["digests"])
    report = {
        "workload": w.name, "seed": seed, "trace": trace, "why": w.why,
        "input_seeds": seeds, "scenarios": docs, "environment": env,
        "versions": warm["versions"], "source_sha256": source_digest(),
        "gen_s": gen_s, "measured_s": measured_s,
        "calls": calls, "setup_samples": setups, "failures": failures,
        "digests_agree": all(c["digests"] == digests[c["input"]] for c in ok),
        "attempted": len(calls), "failed": len(calls) - len(ok),
    }
    report["digests_match_history"] = digest_history(report, digests)

    metrics: dict[str, float | None] = {}
    if trace:
        layered = [c["layers"] for c in ok if "layers" in c]
        plain = [c["wall_s"] for c in ok if c["mode"] == "call"]
        units = metric_units()
        if layered:
            metrics = combine(layered)
            if plain:
                metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(plain)
        metrics = {k: metrics.get(k) for k in units}
    else:
        units = END_TO_END
        if ok:
            metrics = {
                "wall_s": median(c["wall_s"] for c in ok),
                "setup_s": median(setups),
                "peak_rss_mb": median(c["peak_rss_mb"] for c in ok),
                # deterministic per input: one value per input, then their median
                "evm_rms_percent": median({c["input"]: c["summary"]["evm_rms_percent"]
                                           for c in ok}.values()),
            }
        metrics = {k: metrics.get(k) for k in units}
    report["metrics"] = metrics
    (WORK / f"report-{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n")
    for iq in iqs:
        shutil.rmtree(iq.parent, ignore_errors=True)

    correct = not failures and bool(ok) and all(v is not None for v in metrics.values())
    print_report(report, units, correct)
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def digest_history(report: dict, digests: dict[int, dict]) -> bool | None:
    """Compare each input's artifact digests with earlier runs of the same
    source, workload and scenario seed; append this run's to the log."""
    if not digests:
        return None
    log = WORK / "digests.jsonl"
    old = [json.loads(line) for line in log.read_text().splitlines()] if log.is_file() else []
    agree = True
    with open(log, "a") as f:
        for k, d in digests.items():
            key = {"source_sha256": report["source_sha256"],
                   "workload": report["workload"], "seed": report["input_seeds"][k]}
            agree &= all(e["digests"] == d for e in old
                          if all(e[x] == v for x, v in key.items()))
            f.write(json.dumps({**key, "digests": d}) + "\n")
    return agree


def print_report(report: dict, units: dict, correct: bool) -> None:
    calls = report["calls"]
    walls = [c["wall_s"] for c in calls if c["ok"]]
    print(f"{report['workload']} seed {report['seed']} trace {int(report['trace'])}: "
          f"{len(calls)} calls on {len(report['input_seeds'])} input(s) "
          f"in {report['measured_s']:.1f} s, "
          f"{report['failed']} failed; input generation {report['gen_s']:.2f} s")
    print(f"  wall_s samples {len(walls)}: {', '.join(f'{x:.3f}' for x in walls)}; "
          f"setup_s samples {len(report['setup_samples'])}")
    env, ver = report["environment"], report["versions"]
    threads = {k: v for k, v in env["thread_env"].items() if v is not None}
    print(f"  environment: numpy {ver['numpy']}, scipy {ver['scipy']}, "
          f"BLAS {ver['blas']['name']} {ver['blas']['version']}, nproc {env['nproc']}, "
          f"{env['cpu_model']}, MemAvailable {env['mem_available_mb']} MB, "
          f"thread variables {threads or 'unset'}")
    print(f"  artifact digests agree between calls: {report['digests_agree']}; "
          f"with earlier runs of this source: {report['digests_match_history']}")
    for name, value in report["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {units[name]}")
    for f in report["failures"]:
        print(f"  FAILED {f}")
    print(f"  outputs correct: {correct}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
