"""polybern benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

  python3 bench/run.py --workload tables-symbolic --seed 1 --seconds 32 --trace 0
  python3 bench/run.py --workload all --seed 1          # every workload, summaries
  python3 bench/run.py --record-golden                  # re-record bench/golden.json
  python3 bench/run.py --baseline                       # ROADMAP baseline numbers

Every pass of a library workload runs in a fresh worker process, so each
starts with cold caches, as a user's session does; cli-session runs every
op as a fresh ``python -m polybern`` process. Passes repeat until
``--seconds`` is spent, and times are medians over passes. At most two
processes are alive: this one and one worker or CLI process.

Every pass also times a fixed reference job between its ops (cli-session
runs it in fresh processes between the CLI processes), and the pass's
times are reported scaled by the host speed that job measured; see
``calibrate.py``. The summary prints the measured times too.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``. The lines
before it are a readable summary. The exit code is 2 if the checkout has
no polybern sources or golden references.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads
from calibrate import Calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"

SETUP_PROBES = 5        # extra set-ups per run, so setup_s is a median of many
MIN_PASSES = 2          # a traced run needs one untraced and one traced pass
HARD_STOP_S = 150       # no new pass after this, so a run ends within 180 s
PASS_TIMEOUT_S = 120
CLI_OP_TIMEOUT_S = 30
CLI_CAL_JOBS = 4        # reference jobs per calibration process in cli-session
CLI_CAL_EVERY_S = 1.0   # a calibration process once this much op time has passed
ERROR_LINE = re.compile(r"^polybern: error", re.MULTILINE)


class RunState:
    """Clock and pass accounting for one run of one workload."""

    def __init__(self, seconds: float):
        self.t0 = time.perf_counter()
        self.seconds = seconds
        self.pass_walls: list[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def another_pass(self, done: int, minimum: int) -> bool:
        if self.elapsed() > HARD_STOP_S:
            return False
        if done < minimum:
            return True
        typical = metrics.median(self.pass_walls)
        return self.elapsed() + typical <= self.seconds

    def timeout(self, limit: float) -> float:
        return max(5.0, min(limit, 170.0 - self.elapsed()))


def launch(cfg: dict, timeout: float):
    """Run one worker; (result, launch time), result None on failure."""
    cfg = dict(cfg, launched=time.perf_counter())
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(cfg)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, cfg["launched"]
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err[-2000:])
        return None, cfg["launched"]
    return json.loads(out.strip().splitlines()[-1]), cfg["launched"]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def check_cli(op: dict, code: int, stdout: str, stderr: str, golden: dict) -> bool:
    if op["expect"] == "error":
        return code == 2 and ERROR_LINE.search(stderr) is not None
    want = golden.get(workloads.op_key(op))
    return code == 0 and want == workloads.digest(workloads.cli_canonical(code, stdout))


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def calibrate_in_child(cal: Calibration, jobs: int, timeout: float) -> tuple[float, float]:
    """Time reference jobs in a fresh process, as cli-session runs its ops.

    Returns the wall and CPU seconds the process took, for the pass to leave out."""
    cpu0, start = children_cpu(), time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "calibrate.py"), str(jobs)], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=timeout)
    cal.jobs += [tuple(pair) for pair in json.loads(proc.stdout)]
    return time.perf_counter() - start, children_cpu() - cpu0


# -- library workloads -----------------------------------------------------------


def run_library(workload: str, seed: int, seconds: float, trace: bool, golden: Path) -> dict:
    state = RunState(seconds)
    base = {"mode": "setup", "workload": workload, "seed": seed, "golden": str(golden)}
    setups = []
    for _ in range(SETUP_PROBES):
        res, launched = launch(base, state.timeout(60))
        if res is not None:
            setups.append((res["ready"] - launched, res["scale"]))
    timed, traced = [], []
    attempted = failed = 0
    failures: list[tuple[str, str]] = []
    plan_len = len(workloads.make_plan(workload, seed))
    i = 0
    # A traced run alternates untraced and traced passes, so the pair gives
    # the tracing overhead; per-layer numbers come from the traced passes.
    while state.another_pass(i, MIN_PASSES):
        tracing = trace and i % 2 == 1
        cfg = dict(base, mode="pass", trace=tracing)
        if tracing and not traced:
            OUT.mkdir(exist_ok=True)
            cfg["spans"] = str(OUT / f"spans-{workload}-seed{seed}.jsonl")
        res, launched = launch(cfg, state.timeout(PASS_TIMEOUT_S))
        i += 1
        attempted += plan_len
        if res is None:
            failed += plan_len
            failures.append((f"pass {i}", "did not complete"))
            continue
        setups.append((res["ready"] - launched, res["scale"]))
        for name, _, ok, err in res["ops"]:
            if not ok:
                failed += 1
                failures.append((name, "wrong output" if err is None else err.strip().splitlines()[-1]))
        (traced if tracing else timed).append(res)
        if not tracing:
            state.pass_walls.append(res["end"] - launched)
    return {"setups": setups, "timed": timed, "traced": traced,
            "attempted": attempted, "failed": failed, "failures": failures,
            "known_breaches": 0}


def library_end_to_end(run: dict, scaled: bool = True) -> dict:
    """End-to-end metrics, in reference-host seconds unless ``scaled`` is off."""
    timed = run["timed"]

    def ref(res, key="scale"):
        return res[key] if scaled else 1.0

    latencies = [lat * ref(res) for res in timed for _, lat, _, _ in res["ops"]]
    return {
        "setup_s": metrics.median([s * (k if scaled else 1.0) for s, k in run["setups"]]),
        "wall_s": metrics.median([res["wall_s"] * ref(res) for res in timed]),
        "cpu_s": metrics.median([res["cpu_s"] * ref(res, "cpu_scale") for res in timed]),
        "op_p50_s": metrics.median(latencies),
        "op_p90_s": metrics.p90(latencies),
        "peak_rss_mb": max((res["rss_kb"] for res in timed), default=0) / 1024,
        "op_count": len(latencies),
    }


# -- cli-session -----------------------------------------------------------------


def run_cli_session(seed: int, seconds: float, trace: bool, golden: Path) -> dict:
    state = RunState(seconds)
    golden = json.loads(golden.read_text())
    env = cli_env()
    setups = []
    for _ in range(SETUP_PROBES):
        # input generation plus one "import polybern" process
        start = time.perf_counter()
        plan = workloads.make_plan("cli-session", seed)
        # captured output makes run() wake when the pipes close; without pipes
        # a wait with a timeout polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import polybern"], env=env, cwd=ROOT,
                       check=True, capture_output=True, timeout=state.timeout(60))
        setup = time.perf_counter() - start
        cal = Calibration()
        calibrate_in_child(cal, CLI_CAL_JOBS, state.timeout(60))
        setups.append((setup, cal.scale()))
    timed, traced = [], []
    attempted = failed = known = 0
    failures: list[tuple[str, str]] = []
    i = 0
    while state.another_pass(i, MIN_PASSES):
        tracing = trace and i % 2 == 1
        # paired untraced and traced passes of a traced run run the same ops
        index = i // 2 if trace else i
        rng = random.Random(f"cli-session/{seed}/pass{index}")
        ops = workloads.cli_pass(plan, rng, index)
        cal = Calibration()
        calibrate_in_child(cal, CLI_CAL_JOBS, state.timeout(60))
        cpu0 = children_cpu()
        start = time.perf_counter()
        cal_wall = cal_cpu = since = 0.0
        results = []
        for op_id, op in enumerate(ops):
            op_start = time.perf_counter()
            res = run_cli_op(op, op_id, env, tracing, state)
            since += time.perf_counter() - op_start
            if since >= CLI_CAL_EVERY_S:
                wall, cpu = calibrate_in_child(cal, CLI_CAL_JOBS, state.timeout(60))
                cal_wall, cal_cpu, since = cal_wall + wall, cal_cpu + cpu, 0.0
            attempted += 1
            ok = res is not None and check_cli(op, res["exit"], res["stdout"], res["stderr"], golden)
            if not ok:
                failed += 1
                known += op["name"] in workloads.BREACH_NAMES
                failures.append((op["name"], describe(res)))
            results.append((op, res))
        # the pass's wall and CPU leave out the calibration processes
        wall = time.perf_counter() - start - cal_wall
        cpu = children_cpu() - cpu0 - cal_cpu
        calibrate_in_child(cal, CLI_CAL_JOBS, state.timeout(60))
        entry = {"wall": wall, "cpu": cpu, "results": results, "scale": cal.scale(),
                 "cpu_scale": cal.cpu_scale()}
        (traced if tracing else timed).append(entry)
        if not tracing:
            state.pass_walls.append(wall)
        i += 1
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if traced:
        # span ids are unique within one op id (each op is its own process)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-cli-session-seed{seed}.jsonl", "w") as fh:
            for _, res in traced[0]["results"]:
                for span in [] if res is None else res["spans"]:
                    fh.write(json.dumps(span) + "\n")
    return {"setups": setups, "timed": timed, "traced": traced,
            "attempted": attempted, "failed": failed, "failures": failures,
            "known_breaches": known, "rss_kb": rss_kb}


def describe(res) -> str:
    if res is None:
        return "timed out"
    lines = res["stderr"].strip().splitlines()
    return f"exit {res['exit']}: {lines[-1] if lines else 'no stderr'}"


def run_cli_op(op: dict, op_id: int, env: dict, tracing: bool, state: RunState):
    """One CLI op: a fresh process; None if it timed out."""
    timeout = state.timeout(CLI_OP_TIMEOUT_S)
    start = time.perf_counter()
    if tracing:
        res, _ = launch({"mode": "cli", "argv": op["argv"], "op_id": op_id}, timeout)
        if res is not None:
            res["latency"] = time.perf_counter() - start
        return res
    try:
        proc = subprocess.run([sys.executable, "-m", "polybern", *op["argv"]], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "latency": time.perf_counter() - start}


def cli_end_to_end(run: dict, scaled: bool = True) -> dict:
    """End-to-end metrics, in reference-host seconds unless ``scaled`` is off."""
    timed = run["timed"]

    def ref(p, key="scale"):
        return p[key] if scaled else 1.0

    latencies = [res["latency"] * ref(p) for p in timed for _, res in p["results"]
                 if res is not None]
    return {
        "setup_s": metrics.median([s * (k if scaled else 1.0) for s, k in run["setups"]]),
        "wall_s": metrics.median([p["wall"] * ref(p) for p in timed]),
        "cpu_s": metrics.median([p["cpu"] * ref(p, "cpu_scale") for p in timed]),
        "op_p50_s": metrics.median(latencies),
        "op_p90_s": metrics.p90(latencies),
        "peak_rss_mb": run["rss_kb"] / 1024,
        "op_count": len(latencies),
    }


# -- traced run --------------------------------------------------------------------


def _median_dicts(rows: list[dict]) -> dict:
    return {key: metrics.median([row[key] for row in rows]) for key in rows[0]}


def per_layer(workload: str, run: dict, notes: list[str]) -> dict:
    """Per-layer metrics from the traced passes of a traced run."""
    # every time is in reference-host seconds, scaled by its own pass
    if workload == "cli-session":
        rows = [scale_times(cli_pass_layers(p), p["scale"]) for p in run["traced"]]
        snaps = [res["trace"] for p in run["traced"] for _, res in p["results"] if res is not None]
        untraced = [p["wall"] * p["scale"] for p in run["timed"]]
        traced_wall = [p["wall"] * p["scale"] for p in run["traced"]]
        for name in ("table_dpb_k2_n32", "eval_dpb_order32"):
            lats = [res["latency"] * p["scale"] for p in run["timed"] for op, res in p["results"]
                    if op["name"] == name and res is not None]
            for row in rows:
                row[f"cli.{name}.s"] = metrics.median(lats)
    else:
        snaps = [res["trace"] for res in run["traced"]]
        rows = [scale_times(metrics.layer_metrics(res["trace"]), res["scale"])
                for res in run["traced"]]
        untraced = [res["wall_s"] * res["scale"] for res in run["timed"]]
        traced_wall = [res["wall_s"] * res["scale"] for res in run["traced"]]
        dropped = sum(snap["spans_dropped"] for snap in snaps)
        if dropped:
            notes.append(f"{dropped} span records beyond the in-memory limit were not stored")
    if not rows:
        raise RuntimeError("the traced run completed no traced pass")
    missing = sorted({name for snap in snaps for name in snap["missing"]})
    if missing:
        notes.append("not found in this version of polybern, so not traced: " + ", ".join(missing))
    cli_only = [name for name, *_ in metrics.PER_LAYER
                if name.startswith("cli.") and name not in rows[0]]
    if cli_only:
        notes.append("cli.* read 0: the cli layer runs only in cli-session")
    out = {name: 0 for name in cli_only}
    out.update(_median_dicts(rows))
    for name in (n for n in metrics.EXACT if n in rows[0]):
        if any(row[name] != rows[0][name] for row in rows):
            notes.append(f"exact counter {name} differs between traced passes")
        out[name] = rows[0][name]
    out["trace.overhead_ratio"] = metrics.median(traced_wall) / metrics.median(untraced)
    zero = [name for name, *_ in metrics.PER_LAYER
            if not out[name] and not name.startswith("cli.")]
    if zero:
        notes.append("not exercised by this workload (read 0): " + ", ".join(zero))
    return {name: out[name] for name, *_ in metrics.PER_LAYER}


LAYER_UNITS = {name: unit for name, unit, *_ in metrics.PER_LAYER}


def scale_times(row: dict, scale: float) -> dict:
    return {name: v * scale if LAYER_UNITS.get(name) == "s" else v for name, v in row.items()}


def cli_pass_layers(entry: dict) -> dict:
    results = [res for _, res in entry["results"] if res is not None]
    row = metrics.layer_metrics(metrics.merge_snapshots([res["trace"] for res in results]))

    def per_op(fn):
        return metrics.median([fn(res) for res in results])

    def incl(res, name):
        return res["trace"]["stats"].get(name, (0, 0.0, 0.0))[1]

    row["cli.interp_s"] = per_op(lambda res: res["interp_s"])
    row["cli.import_s"] = per_op(lambda res: res["import_s"])
    row["cli.argparse_s"] = per_op(lambda res: incl(res, "cli.argparse"))
    row["cli.compute_s"] = per_op(lambda res: incl(res, "cli.compute") - incl(res, "cli.render"))
    row["cli.render_s"] = per_op(lambda res: incl(res, "cli.render"))
    row["cli.stdout_bytes"] = sum(res["stdout_bytes"] for res in results)
    return row


# -- reporting ---------------------------------------------------------------------


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def summary(workload: str, seed: int, run: dict, e2e: dict, measured: dict) -> list[str]:
    units = {name: unit for name, unit, *_ in metrics.END_TO_END}
    parts = [f"{name}={fmt(e2e[name])} {units[name]}"
             for name in ("setup_s", "wall_s", "cpu_s", "op_p50_s", "op_p90_s", "peak_rss_mb")]
    if e2e["op_p90_s"] is None:
        parts[4] += f" (needs >= 100 ops, have {e2e['op_count']})"
    ratio = run["failed"] / run["attempted"] if run["attempted"] else 0.0
    parts.append(f"fail_ratio={ratio:.6g} ratio ({run['failed']}/{run['attempted']})")
    passes = len(run["timed"]) + len(run["traced"])
    lines = [f"[{workload} seed={seed} passes={passes} ops={e2e['op_count']}] " + "  ".join(parts)]
    scales = [p["scale"] for p in run["timed"]]
    lines.append(f"  measured, before the host-speed scale (median {fmt(metrics.median(scales))}, "
                 f"from {fmt(min(scales, default=None))} to {fmt(max(scales, default=None))}): "
                 + "  ".join(f"{name}={fmt(measured[name])} s"
                             for name in ("setup_s", "wall_s", "cpu_s", "op_p50_s")))
    breaches = sorted({f"{name} ({detail})" for name, detail in run["failures"]
                       if name in workloads.BREACH_NAMES})
    if breaches:
        lines.append(f"  contract breaches counted as failed ({run['known_breaches']}): "
                     + "; ".join(breaches))
    other = sorted({f"{name} ({detail})" for name, detail in run["failures"]
                    if name not in workloads.BREACH_NAMES})
    if other:
        lines.append("  FAILED: " + "; ".join(other[:20]))
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 golden: Path = GOLDEN) -> tuple[dict, list[str]]:
    """One run: (the final-line result, the summary lines)."""
    if workload == "cli-session":
        run = run_cli_session(seed, seconds, trace, golden)
        e2e, measured = cli_end_to_end(run), cli_end_to_end(run, scaled=False)
    else:
        run = run_library(workload, seed, seconds, trace, golden)
        e2e, measured = library_end_to_end(run), library_end_to_end(run, scaled=False)
    lines = summary(workload, seed, run, e2e, measured)
    # Known contract breaches are failures, but not wrong answers; any other
    # failed op (wrong digest, exception, timeout) makes the run incorrect.
    correct = run["failed"] == run["known_breaches"] and bool(run["timed"])
    if trace:
        notes: list[str] = []
        values = per_layer(workload, run, notes)
        lines += [f"  note: {n}" for n in notes]
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
    else:
        values = {name: e2e[name] for name, _, _, final in metrics.END_TO_END if final}
        units = {name: unit for name, unit, *_ in metrics.END_TO_END}
    result = {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}
    return result, lines


# -- maintenance commands ------------------------------------------------------------


def record_golden():
    """Re-record bench/golden.json from this checkout's outputs."""
    res, _ = launch({"mode": "record"}, 3600)
    if res is None:
        raise SystemExit("recording the library references failed")
    digests = res["digests"]
    env = cli_env()
    for op in workloads.cli_menu() + list(workloads.MALFORMED_OPS) + list(workloads.BREACH_OPS):
        proc = subprocess.run([sys.executable, "-m", "polybern", *op["argv"]], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if op in workloads.BREACH_OPS:
            last = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            print(f"breach {op['name']!r}: exit {proc.returncode}, {last}")
            continue
        if op["expect"] == "error":
            if not check_cli(op, proc.returncode, proc.stdout, proc.stderr, {}):
                raise SystemExit(f"malformed op {op['name']!r} is not rejected with exit 2")
            continue
        if proc.returncode != 0:
            raise SystemExit(f"{op['name']!r} exited {proc.returncode}")
        library_key = cli_table_key(op)
        if library_key in digests:
            values = [line.split(None, 1)[1] for line in proc.stdout.splitlines()[1:]]
            if workloads.digest("\n".join(values)) != digests[library_key]:
                raise SystemExit(f"{op['name']!r} disagrees with {library_key}")
            res["cross_checked"] += 1
        digests[workloads.op_key(op)] = workloads.digest(
            workloads.cli_canonical(proc.returncode, proc.stdout))
    GOLDEN.write_text(json.dumps(dict(sorted(digests.items())), indent=0) + "\n")
    print(f"recorded {len(digests)} digests, {res['cross_checked']} cross-checked "
          "against an independent route or the library table")


def cli_table_key(op: dict):
    """Key of the library table op that a text-format CLI table op prints."""
    argv = op["argv"]
    if argv[0] != "table" or "--format" in argv or "--lambda" in argv:
        return None
    opts = dict(zip(argv[2::2], argv[3::2]))
    k = int(opts["--k"]) if "--k" in opts else None
    return workloads.op_key({"kind": "table", "family": argv[1], "n": int(opts["--n"]),
                             "k": k, "r": int(opts.get("--r", 1))})


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def baseline(repeats: int = 5):
    """The ROADMAP's hand-measured headline numbers, from this harness."""
    rows = []
    for k, precision, roadmap in ((2, 16, 0.12), (2, 32, 3.7)):
        times = []
        for _ in range(repeats):
            res, _ = launch({"mode": "build", "k": k, "precision": precision}, 600)
            times.append(res["build_s"])
        rows.append((f"families.dpb_gf.n{precision}.s", f"dpb_gf({k}, {precision}) cold",
                     times, roadmap))
    env = cli_env()
    for op, roadmap in zip(workloads.HEAVY_OPS, (3.2, 3.0)):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "polybern", *op["argv"]], env=env, cwd=ROOT,
                           capture_output=True, check=True, timeout=600)
            times.append(time.perf_counter() - start)
        rows.append((f"cli.{op['name']}.s", "polybern " + " ".join(op["argv"]), times, roadmap))
    loc = src_loc()
    host = f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}"
    records = [{"metric": name, "what": what, "median_s": metrics.median(times),
                "min_s": min(times), "repeats": repeats, "roadmap_s": roadmap,
                "src_loc": loc, "host": host}
               for name, what, times, roadmap in rows]
    for r in records:
        print(f"{r['metric']:28} median {r['median_s']:.3f} s  min {r['min_s']:.3f} s  "
              f"(ROADMAP {r['roadmap_s']} s; src/ {r['src_loc']} lines)")
    return records


def checkout_ok(need_golden: bool) -> bool:
    if not (SRC / "polybern" / "__init__.py").is_file():
        print(f"bench: no polybern sources under {SRC}", file=sys.stderr)
        return False
    if need_golden and not GOLDEN.is_file():
        print(f"bench: missing golden references {GOLDEN}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    ap.add_argument("--out", help="also write the result JSON to this file")
    args = ap.parse_args(argv)
    if not checkout_ok(need_golden=not args.record_golden):
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.baseline:
        result = {"baseline": baseline()}
    else:
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
        result = results[names[0]] if len(names) == 1 else results
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
