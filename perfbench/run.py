#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload repro-10k|ingest-small|ingest-large \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The script builds `repro` and the
`perfbench` harness (release, offline) into `$CARGO_TARGET_DIR`, default
`.bench_build`, runs the workload for about `--seconds`, checks its
outputs, prints every metric by name with its unit, and ends with one JSON
line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
the metrics are the end-to-end metrics of BENCHMARK.json; with
`--trace 1` they are its per-layer metrics. Each run's full record, host
fingerprint included, is written under `.bench_runs/` for `compare.py`.
See README.md for the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20160604
REPRO_SCALE = "10k"
REPRO_THREADS = 2


def log(msg):
    print(msg, flush=True)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def load_config():
    with open(os.path.join(HERE, "config.json")) as f:
        return json.load(f)


def load_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    """Builds `repro` and `perfbench`; returns their paths."""
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "ets-experiments", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 1)
    return (os.path.join(target, "release", "repro"),
            os.path.join(target, "release", "perfbench"))


def run_child(cmd, stdout_path, stderr_path):
    """Runs `cmd` to completion; returns (exit code, wall s, rusage)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def source_digest():
    """Digest of the sources the benchmark builds: identifies the code
    under test even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "perfbench", "vendor"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            h.update(sha256_file(path).encode())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def rustc_version():
    try:
        r = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
        return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def fingerprint(workload, config):
    """Host and configuration of a run. compare.py warns, and never
    passes silently, when the `host`/`config` parts differ."""
    return {
        "host": {
            "available_parallelism": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "rustc": rustc_version(),
        },
        "config": dict(config, workload=workload),
        "code": {"git_commit": git_commit(), "source_digest": source_digest()},
    }


def digests(out_dir):
    """sha256 of every non-bench results file."""
    return {
        name: sha256_file(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir))
        if name.endswith(".json") and not name.startswith("bench_")
    }


def repro_runs(repro, seed, seconds, work, config):
    """Untraced `repro all` runs for about `seconds`; returns the runs and
    the number that failed a check."""
    stored = config["repro"]["digests"] if seed == config["default_seed"] else None
    runs, failed, notes = [], 0, []
    t_start = time.monotonic()
    # Start another run only while it is expected to end within the
    # budget (with a tenth to spare), so the run count stays steady.
    while not runs or (time.monotonic() - t_start
                       + statistics.mean(r["wall_s"] for r in runs) <= 1.1 * seconds):
        out = os.path.join(work, "results")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        cmd = [repro, "all", "--scale", REPRO_SCALE, "--threads", str(REPRO_THREADS),
               "--seed", str(seed), "--out", out]
        code, wall, ru = run_child(cmd, os.path.join(work, "repro.out"),
                                   os.path.join(work, "repro.err"))
        run = {"exit": code, "wall_s": wall, "maxrss_mb": ru.ru_maxrss / 1024.0,
               "cpu_s": ru.ru_utime + ru.ru_stime}
        ok = code == 0
        if ok:
            with open(os.path.join(out, "bench_pipeline.json")) as f:
                stages = json.load(f)["stages"]
            run["world_build_s"] = next(
                (s["seconds"] for s in stages if s.get("stage") == "world_build"), None)
            run["digests"] = digests(out)
            if run["world_build_s"] is None:
                ok = False
                notes.append("bench_pipeline.json has no world_build stage")
            if runs and runs[0].get("digests") and run["digests"] != runs[0]["digests"]:
                ok = False
                notes.append(f"run {len(runs)}: results differ from run 0")
            if stored is not None and run["digests"] != stored:
                bad = sorted(k for k in set(stored) | set(run["digests"])
                             if stored.get(k) != run["digests"].get(k))
                ok = False
                notes.append(f"run {len(runs)}: results differ from the stored digests: {bad}")
        else:
            notes.append(f"run {len(runs)}: repro exited with {code}")
        failed += 0 if ok else 1
        runs.append(run)
    shutil.rmtree(os.path.join(work, "results"), ignore_errors=True)
    return runs, failed, notes, stored is not None


def med(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def workload_repro(args, config, binaries, work, spans):
    repro, perfbench = binaries
    runs, failed, notes, digest_checked = repro_runs(repro, args.seed, args.seconds, work, config)
    repro_s = med(r["wall_s"] for r in runs)
    e2e = {
        "setup_s": med(r.get("world_build_s") for r in runs),
        "peak_rss_mb": med(r["maxrss_mb"] for r in runs),
        "wall_s": repro_s,
    }
    lines = [
        f"  repro all --scale {REPRO_SCALE} --threads {REPRO_THREADS} --seed {args.seed}: "
        f"{len(runs)} runs, results checked against "
        + ("the stored digests and each other" if digest_checked else "each other"),
        f"  repro_s          {repro_s:10.3f} s     median of n={len(runs)} "
        "(" + ", ".join(f"{r['wall_s']:.3f}" for r in runs) + ")",
    ]
    detail = {"runs": runs, "repro_s": repro_s}
    per_layer = {}
    if args.trace:
        code, _, _ = run_child(
            [perfbench, "repro-trace", "--seed", str(args.seed),
             "--threads", str(REPRO_THREADS), "--spans", spans],
            os.path.join(work, "trace.out"), os.path.join(work, "trace.err"))
        if code != 0:
            fail(f"traced replay exited with {code}", 1)
        with open(os.path.join(work, "trace.out")) as f:
            t = json.loads(f.read().strip().splitlines()[-1])
        util = med(r["cpu_s"] / (r["wall_s"] * REPRO_THREADS) for r in runs)
        per_layer = dict(t["layers"])
        per_layer.update(t["counts"])
        per_layer.update({
            "parallel.utilization": util,
            "experiments.residual_s": repro_s - t["timed_s"],
            "trace.overhead_s": t["traced_wall_s"] - t["untraced_wall_s"],
            "trace.wall_s": t["traced_wall_s"],
            "trace.residual_s": t["traced_wall_s"] - t["timed_s"],
        })
        detail["trace"] = t
    return e2e, per_layer, len(runs), failed, notes, lines, detail, {
        "threads": REPRO_THREADS, "repro_scale": REPRO_SCALE}


def workload_ingest(args, config, binaries, work, spans):
    _, perfbench = binaries
    size = args.workload.split("-", 1)[1]
    rate = config["ingest"][args.workload]["offered_rate_per_s"]
    cmd = [perfbench, "ingest", "--size", size, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--rate", str(rate)]
    if args.trace:
        cmd += ["--trace", "--spans", spans]
    code, _, ru = run_child(cmd, os.path.join(work, "ingest.out"), os.path.join(work, "ingest.err"))
    if code != 0:
        with open(os.path.join(work, "ingest.err")) as f:
            sys.stderr.write(f.read())
        fail(f"ingest harness exited with {code}", 1)
    with open(os.path.join(work, "ingest.out")) as f:
        r = json.loads(f.read().strip().splitlines()[-1])
    d = r["detail"]
    e2e = dict(r["end_to_end"], peak_rss_mb=ru.ru_maxrss / 1024.0)
    lines = [
        f"  wall_s (median closed-loop pass over the pool, first send to last seal): "
        f"n={d['closed_batches']} batches",
        f"  closed loop: {d['closed_batches']} batches, {d['closed_sessions']} sessions, "
        f"{d['closed_stored']} stored on {r['config']['connections']} connections",
        f"  sessions_per_s   {d['sessions_per_s']:10.1f} 1/s",
        f"  stored_per_s     {d['stored_per_s']:10.1f} 1/s",
        f"  open loop at {r['config']['offered_rate_per_s']} sessions/s: "
        f"{d['open_sessions']} sessions over {d['open_wall_s']:.2f} s",
        f"  session_p50_ms   {d['session_p50_ms']:10.3f} ms    n={d['session_n']}",
        f"  session_p99_ms   {d['session_p99_ms']:10.3f} ms    n={d['session_n']}",
        f"  stored_p50_ms    {d['stored_p50_ms']:10.3f} ms    n={d['stored_n']}",
        f"  stored_p99_ms    {d['stored_p99_ms']:10.3f} ms    n={d['stored_n']}",
        f"  generator: lateness p99 {d['lateness_p99_ms']:.3f} ms, "
        f"client CPU share {d['client_cpu_share']:.3f}"
        + ("  ** FLAG: the generator fell behind its schedule"
           + (" (CPU-bound) **" if d["client_cpu_share"] > 0.5
              else " (sessions outlasted a client thread's period) **")
           if d["generator_behind"] else ""),
        f"  sampled records checked: {r['sample']['checked']} "
        f"({r['sample']['crlf_rewritten']} had bare-LF bodies that SMTP rewrote to CRLF)",
    ]
    return (e2e, r.get("per_layer", {}), r["attempted"], r["failed"], r["notes"], lines, r,
            dict(r["config"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["repro-10k", "ingest-small", "ingest-large"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        fail(f"{ROOT} is not a checkout of the repository (no Cargo.toml and crates/)")
    config = load_config()
    end_to_end, per_layer_spec = load_metric_names()
    binaries = build()

    runs_dir = os.path.join(ROOT, ".bench_runs")
    stem = os.path.join(runs_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    work = stem + ".work"
    os.makedirs(work, exist_ok=True)
    t0 = time.monotonic()
    handler = workload_repro if args.workload == "repro-10k" else workload_ingest
    e2e, per_layer, attempted, failed, notes, lines, detail, run_config = handler(
        args, config, binaries, work, stem + ".spans.jsonl")
    fp = fingerprint(args.workload, run_config)
    error_rate = failed / attempted if attempted else 1.0

    log(f"[perfbench] {args.workload} seed={args.seed} trace={args.trace} "
        f"({time.monotonic() - t0:.1f} s)")
    log(f"  host: {fp['host']['available_parallelism']} CPUs, {fp['host']['cpu_model']}, "
        f"{fp['host']['rustc']}; code {fp['code']['git_commit'] or '-'} "
        f"src {fp['code']['source_digest']}")
    log(f"  config: {json.dumps(fp['config'], sort_keys=True)}")
    for line in lines:
        log(line)
    log(f"  error_rate       {error_rate:10.4f} ratio ({failed} failed of {attempted} attempted)")
    for n in notes:
        log(f"  note: {n}")

    if args.trace:
        specs = per_layer_spec
        values = {s["name"]: float(per_layer.get(s["name"], 0.0)) for s in specs}
    else:
        specs = end_to_end
        values = {s["name"]: float(e2e[s["name"]]) for s in specs}
    samples = per_layer.get("samples", {}) if args.trace else {}
    for s in specs:
        n = samples.get(s["name"])
        log(f"  {s['name']:<34} {values[s['name']]:14.6f} {s['unit']}"
            + (f"    n={n}" if n is not None else ""))
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    correct = failed == 0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fp, "correct": correct,
        "attempted": attempted, "failed": failed, "error_rate": error_rate,
        "notes": notes, "metrics": metrics, "end_to_end": e2e, "per_layer": per_layer,
        "detail": detail,
    }
    record_path = stem + ".json"
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)
    log(f"  record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
