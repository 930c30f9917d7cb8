"""One benchmark worker process: fresh interpreter, cold polybern caches.

Usage: python3 bench/worker.py '<json config>'

Modes:
  setup   start, import polybern, build the plan, load the references, time
          a few reference jobs (``calibrate.py``), exit
  pass    the same set-up, then run the workload's plan once, with reference
          jobs between its ops
  cli     run one ``cli.main(argv)`` with stdout captured (traced cli-session)
  build   time one cold ``dpb_gf(k, precision)`` (the ROADMAP baseline)
  record  compute every library menu output, check it against the
          independent routes, and return its golden digest

The result is one JSON object on the last line of stdout. Times are
``time.perf_counter`` readings, which share one clock across processes on
Linux, so the parent can subtract its launch time from them.
"""

import time

T_START = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
GOLDEN = BENCH / "golden.json"


def import_polybern():
    """Import polybern from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import polybern
    import polybern.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(polybern.__file__).resolve().parent != (SRC / "polybern").resolve():
        raise SystemExit(f"polybern imported from {polybern.__file__}, not from {SRC}")
    return polybern


def run_pass(cfg, pb, plan, golden, ready):
    import workloads
    from calibrate import Calibration

    tracer = None
    if cfg.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(pb)
    ops = []
    cal = Calibration()
    cal.measure(2)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    first = time.perf_counter()
    cal_wall0, cal_cpu0 = cal.wall_s, cal.cpu_s
    for i, op in enumerate(plan):
        if tracer is not None:
            tracer.op_id = i
        start = time.perf_counter()
        try:
            result = workloads.run_op(op, pb)
        except Exception:  # an op that raises is a failed op, not a crash
            latency = time.perf_counter() - start
            ops.append([workloads.op_key(op), latency, False, traceback.format_exc(limit=1)])
            cal.after_op(latency)
            continue
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.op_id = -1  # canonical() below is checking, not the op
        text = workloads.canonical(op, result, pb)
        ok = golden.get(workloads.op_key(op)) == workloads.digest(text)
        if op["kind"] == "verify":
            ok = ok and result.status == "pass"
        ops.append([workloads.op_key(op), latency, ok, None])
        cal.after_op(latency)
    end = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cal_wall, cal_cpu = cal.wall_s - cal_wall0, cal.cpu_s - cal_cpu0
    cal.measure(1)
    # wall_s and cpu_s leave out the reference jobs run between the ops
    out = {"ready": ready, "first": first, "end": end, "ops": ops,
           "wall_s": end - first - cal_wall,
           "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime) - cal_cpu,
           "rss_kb": ru1.ru_maxrss, "scale": cal.scale(), "cpu_scale": cal.cpu_scale()}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.snapshot(pb)
        if cfg.get("spans"):
            tracer.write_spans(cfg["spans"])
    return out


def run_cli(cfg, pb, import_s):
    from tracer import Tracer

    tracer = Tracer()
    tracer.op_id = cfg["op_id"]
    tracer.install(pb, cli_mode=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr
    try:
        code = pb.cli.main(cfg["argv"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # what the interpreter does with an uncaught error
        traceback.print_exc(file=stderr)
        code = 1
    finally:
        sys.stdout, sys.stderr = real
        tracer.uninstall()
    text = stdout.getvalue()
    return {"exit": code, "stdout": text, "stderr": stderr.getvalue(),
            "interp_s": T_START - cfg["launched"], "import_s": import_s,
            "stdout_bytes": len(text.encode()), "trace": tracer.snapshot(pb),
            "spans": tracer.spans}


def run_build(cfg, pb):
    start = time.perf_counter()
    pb.families.dpb_gf(cfg["k"], cfg["precision"])
    return {"build_s": time.perf_counter() - start}


def run_record(pb):
    """Golden digests of every library menu op, each cross-checked first."""
    import oracles
    import workloads

    checked = 0
    digests = {}
    menu = workloads.symbolic_menu() + workloads.rational_menu() + workloads.catalog_menu()
    for op in menu:
        result = workloads.run_op(op, pb)
        if op["kind"] == "verify" and result.status != "pass":
            raise SystemExit(f"{workloads.op_key(op)} does not pass")
        want = reference(op, oracles)
        if want is not None:
            got = result.values if op["kind"] == "table" else result.coeffs
            if [oracles.as_lambda_list(v) for v in got] != want:
                raise SystemExit(f"{workloads.op_key(op)} disagrees with its independent route")
            checked += 1
        digests[workloads.op_key(op)] = workloads.digest(workloads.canonical(op, result, pb))
    return {"digests": digests, "cross_checked": checked}


def reference(op, oracles):
    """Values of a table or polynomial op by an independent route, or None."""
    if op["kind"] == "verify":
        return None
    family, k, n = op["family"], op["k"], op["n"]
    if family == "bernoulli":
        values = [oracles.trim([b]) for b in oracles.bernoulli_triangular(n)]
    elif family == "daehee":
        values = [oracles.trim([d]) for d in oracles.daehee_closed(n)]
    elif family == "poly-bernoulli":
        values = [oracles.trim([b]) for b in oracles.kaneko(k, n)]
    elif family == "dpb":
        values = oracles.dpb_stirling(k, n)
    elif family == "dpb-higher":
        values = oracles.exp_convolution_power(oracles.dpb_stirling(k, n), op["r"])
    else:
        return None
    if op["kind"] == "poly":
        return oracles.binomial_poly_coeffs(values, op["index"])
    return values


def main():
    cfg = json.loads(sys.argv[1])
    mode = cfg["mode"]
    start_import = time.perf_counter()
    pb = import_polybern()
    import_s = time.perf_counter() - start_import
    if mode == "cli":
        out = run_cli(cfg, pb, import_s)
    elif mode == "build":
        out = run_build(cfg, pb)
    elif mode == "record":
        out = run_record(pb)
    else:
        import workloads

        plan = workloads.make_plan(cfg["workload"], cfg["seed"])
        golden = json.loads(Path(cfg.get("golden", GOLDEN)).read_text())
        ready = time.perf_counter()
        if mode == "setup":
            from calibrate import Calibration

            cal = Calibration()
            cal.measure(3)
            out = {"ready": ready, "scale": cal.scale()}
        else:
            out = run_pass(cfg, pb, plan, golden, ready)
    out["start"] = T_START
    print(json.dumps(out))


if __name__ == "__main__":
    main()
