#!/usr/bin/env python3
"""perfbench — end-to-end and per-layer benchmark of dpbyz.

Run from the repository root:

  python3 perfbench/run.py --workload paper|wide|campaign --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py compare PARENT CHANGE

The first form builds the library and perfbench_driver into .bench_build/
(first run only; later runs rebuild incrementally), runs the workload,
checks its outputs and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  It exits non-zero when a check fails.  Every run's full result
(host fingerprint, raw samples, metrics) is also saved under
.bench_build/results/.

The compare form reads two result sets — each a directory of saved results
or one saved result — and prints, per (workload, metric), both
medians and quartiles, the pair-win fraction and a verdict.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("paper", "wide", "campaign")
DRIVER_TIMEOUT_S = 170
LAYER_PREFIXES = ("data.", "models.", "dp.", "attacks.", "aggregation.", "privacy.",
                  "core.checkpoint", "campaign.manifest_write")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(f"perfbench: no dpbyz sources next to {Path(__file__).parent.name}/ "
                         "(run from a full checkout)")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "perfbench_driver"


def run_driver(driver, args, workdir):
    raw = workdir / "raw.json"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw), "--spans", str(workdir / "spans.csv")]
    with open(workdir / "driver.log", "w") as out:
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=out)
        try:
            code = proc.wait(timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
    if code != 0:
        raise SystemExit(f"perfbench: driver exited with {code}")
    return json.loads(raw.read_text())


def check(raw, workdir):
    """Output checks beyond the driver's own; returns failure strings."""
    failures = list(raw["check_failures"])
    if len(set(raw["digests"])) != 1:
        failures.append(f"outputs differ across repeats: {sorted(set(raw['digests']))}")
    if raw["workload"] == "campaign":
        out = workdir / "campaign"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "check_campaign_artifacts.py"),
             str(out / "campaign.csv"), str(out / "campaign.json")],
            capture_output=True, text=True)
        if proc.returncode != 0:
            failures.append("check_campaign_artifacts: " + proc.stdout.strip()[-500:])
    return failures


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    failed = statistics.mean(raw["failed"])
    attempted = raw["attempted"][0]
    return {
        "job_s": metric(statistics.median(raw["job_s"]), "s"),
        "cpu_s": metric(statistics.median(raw["cpu_s"]), "s"),
        "setup_s": metric(statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
        # Rule-of-succession failure rate per job: (failed + 1)/(attempted + 2).
        "error_rate": metric((failed + 1) / (attempted + 2), "ratio"),
        "final_acc": metric(statistics.median(raw["final_acc"]), "ratio"),
    }


def per_layer(raw, spans):
    """Per-layer metrics from the traced job's spans and run records, plus the
    names of those this workload does not exercise (reported as 0)."""
    t = raw["traced"]
    runs = t["runs"]
    totals = benchlib.layer_totals(spans)

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def per_call(name, scale):
        c, _, own = totals.get(name, (0, 0, 0))
        return own / c / scale if c else 0.0

    grads = {}  # run -> its gradient spans (one call each)
    for s in spans:
        if s.name == "models.grad":
            grads.setdefault(s.run, []).append(s)
    rounds = [d for r in runs if r["fixed_roster"] and r["run"] in grads
              for d in benchlib.round_durations(grads[r["run"]], r["honest"])]
    noised = {s.run for s in spans if s.name == "dp.noise"}
    noise_coords = sum(len(grads.get(r["run"], ())) * r["dim"] for r in runs if r["run"] in noised)
    noise_self = totals.get("dp.noise", (0, 0, 0))[2]

    phase = {k: sum(r[k] for r in runs)
             for k in ("fill_wait_s", "fill_busy_s", "aggregate_s", "apply_s")}
    cells = sorted(s.duration / 1e9 for s in spans if s.name == "campaign.cell")
    untraced = statistics.median(raw["job_s"])
    layer_self = sum(v[2] for k, v in totals.items() if k.startswith(LAYER_PREFIXES))
    m = {
        "data.sample_us": metric(per_call("data.sample", 1e3), "us"),
        "data.sample_calls": metric(calls("data.sample"), "count"),
        "models.grad_us": metric(per_call("models.grad", 1e3), "us"),
        "models.grad_calls": metric(calls("models.grad"), "count"),
        "models.grad_flops": metric(sum(len(grads.get(r["run"], ())) * 2 * r["batch"] * r["dim"]
                                        for r in runs), "flop"),
        "models.loss_us": metric(per_call("models.loss", 1e3), "us"),
        "models.clip_us": metric(per_call("models.clip", 1e3), "us"),
        "models.eval_us": metric(per_call("models.eval", 1e3), "us"),
        "models.eval_calls": metric(calls("models.eval"), "count"),
        "models.apply_us": metric(per_call("models.apply", 1e3), "us"),
        "dp.noise_us": metric(per_call("dp.noise", 1e3), "us"),
        "dp.noise_calls": metric(calls("dp.noise"), "count"),
        "dp.noise_ns_per_coord": metric(noise_self / noise_coords if noise_coords else 0.0, "ns"),
        "attacks.forge_us": metric(per_call("attacks.forge", 1e3), "us"),
        "attacks.forge_calls": metric(t["forge_calls"], "count"),
        "attacks.shadow_evals": metric(t["shadow_evals"], "count"),
        "aggregation.aggregate_us": metric(per_call("aggregation.aggregate", 1e3), "us"),
        "aggregation.calls": metric(t["aggregate_calls"], "count"),
        "aggregation.pair_flops": metric(t["pair_flops"], "flop"),
        "core.fill_wait_s": metric(phase["fill_wait_s"], "s"),
        "core.fill_busy_s": metric(phase["fill_busy_s"], "s"),
        "core.aggregate_s": metric(phase["aggregate_s"], "s"),
        "core.apply_s": metric(phase["apply_s"], "s"),
        "core.overlap_share": metric((phase["fill_busy_s"] - phase["fill_wait_s"]) /
                                     phase["fill_busy_s"] if phase["fill_busy_s"] else 0.0,
                                     "ratio"),
        "core.round_us_p50": metric(benchlib.percentile(rounds, 50) / 1e3 if rounds else 0.0,
                                    "us"),
        "core.round_us_p99": metric(benchlib.percentile(rounds, 99) / 1e3 if rounds else 0.0,
                                    "us"),
        "core.checkpoint_ms": metric(per_call("core.checkpoint", 1e6), "ms"),
        "core.checkpoint_bytes": metric(t.get("checkpoint_bytes", 0), "B"),
        "net.bytes_sent": metric(sum(r["bytes_sent"] for r in runs), "B"),
        "net.retransmit_frames": metric(sum(r["retransmit_frames"] for r in runs), "count"),
        "net.rows_substituted": metric(sum(r["rows_substituted"] for r in runs), "count"),
        "privacy.mi_ms": metric(per_call("privacy.mi", 1e6), "ms"),
        "privacy.inversion_ms": metric(per_call("privacy.inversion", 1e6), "ms"),
        "campaign.cell_s_p50": metric(benchlib.percentile(cells, 50) if cells else 0.0, "s"),
        "campaign.cell_s_p90": metric(benchlib.percentile(cells, 90) if cells else 0.0, "s"),
        "campaign.manifest_write_ms": metric(per_call("campaign.manifest_write", 1e6), "ms"),
        "campaign.manifest_bytes": metric(t.get("manifest_bytes", 0), "B"),
        "campaign.cells_skipped": metric(t.get("cells_skipped", 0), "count"),
        "utils.cpu_share": metric(statistics.median(raw["cpu_s"]) /
                                  (untraced * raw["host"]["nproc"]), "ratio"),
        "trace.overhead": metric(t["job_s"] / untraced - 1.0, "ratio"),
        # Layer self time (replays at their measured cost) over the CPU time
        # of the untraced job: what the spans account for on every thread.
        "trace.coverage": metric(layer_self / 1e9 / statistics.median(raw["cpu_s"]), "ratio"),
    }
    idle = sorted(k for k, v in m.items() if v["value"] == 0)
    return m, idle


def run_workload(args):
    driver = build()
    workdir = BUILD / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        raw = run_driver(driver, args, workdir)
        failures = check(raw, workdir)
        if args.trace:
            metrics, idle = per_layer(raw, benchlib.read_spans(workdir / "spans.csv"))
        else:
            metrics, idle = end_to_end(raw), []
    finally:
        spans = workdir / "spans.csv"
        if spans.exists():
            (BUILD / "results").mkdir(exist_ok=True)
            shutil.move(str(spans), BUILD / "results" / f"{args.workload}-spans.csv")
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not failures,
        "attempted": int(sum(raw["attempted"])),
        "failed": int(sum(raw["failed"])),
        "metrics": metrics,
    }
    saved = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                 seconds=args.seconds, host=raw["host"], check_failures=failures,
                 not_exercised=idle,
                 raw={k: raw[k] for k in ("setup_s", "job_s", "cpu_s", "final_acc",
                                          "attempted", "failed", "digests")})
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(saved, indent=1) + "\n")

    print("host: " + json.dumps(raw["host"]))
    for f in failures:
        print("CHECK FAILED: " + f)
    if idle:
        print("not exercised by this workload (reported as 0): " + ", ".join(idle))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def load_results(path):
    """Saved results: a directory of them (like .bench_build/results) or one file."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def compare(parent, change):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    bounds.update({m["name"]: (0.1, m["better"]) for m in spec["per_layer"]})
    rows = benchlib.compare_sets(load_results(parent), load_results(change), bounds)
    print(f"{'workload':<9} {'metric':<26} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'runs':>7} {'wins':>5}  verdict")
    for r in rows:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        print(f"{r['workload']:<9} {r['metric']:<26} {fmt(r['parent']):>32} "
              f"{fmt(r['change']):>32} {'%d/%d' % r['runs']:>7} {r['wins']:>5.2f}  "
              f"{r['verdict']}")
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("parent")
        ap.add_argument("change")
        a = ap.parse_args(argv[1:])
        return compare(a.parent, a.change)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run_workload(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
