"""Names, units and derivations of every metric the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are the source of the lists in the
repository's BENCHMARK.json (``selftest.py`` checks that they agree).
Each per-layer entry names the end-to-end metric and workload it should
move, so a later change can state its prediction against these names.
"""

from __future__ import annotations

import statistics

# name, unit, better, reported in the final JSON line
END_TO_END = (
    ("setup_s", "s", "lower", True),
    ("wall_s", "s", "lower", True),
    ("cpu_s", "s", "lower", True),
    ("op_p50_s", "s", "lower", True),
    ("peak_rss_mb", "MB", "lower", True),
    # Printed in the summary only: p90 needs >= 100 ops in a run, which the
    # table workloads do not reach, and fail_ratio is 0 on three workloads
    # (the final line carries it as ``failed``/``attempted``).
    ("op_p90_s", "s", "lower", False),
    ("fail_ratio", "ratio", "lower", False),
)

SERIES_OPS = ("mul", "div", "compose", "pow", "log", "exp", "revert")
POLY_OPS = ("mul", "derivative", "shift", "specialize")
FAMILY_GFS = ("dpb_gf", "dpb_higher_gf", "carlitz_gf", "poly_bernoulli_gf",
              "bernoulli_gf", "daehee_gf", "elam")
CATALOG_IDS = ("eq5", "eq17", "eq18", "thm1", "thm2", "thm3", "thm4", "remark",
               "sheffer16", "sheffer23", "k0", "lambda0")
DPB_GROWTH_NS = (16, 24, 32)

_TABLES = "cpu_s/wall_s on tables-symbolic (about zero on tables-rational)"
_SERIES = "wall_s on tables-symbolic and tables-rational; op_p90_s on cli-session via eval"
_CATALOG = "wall_s on catalog-grid"


def _per_layer():
    rows = [
        ("ring.lp_mul.calls", "count", "lower", _TABLES),
        ("ring.lp_mul.s", "s", "lower", _TABLES),
        ("ring.lp_add.calls", "count", "lower", _TABLES),
        ("ring.lp_divide_exact.calls", "count", "lower", _TABLES),
        ("ring.max_num_bits", "bits", "lower", "peak_rss_mb and cpu_s on tables-*"),
        ("ring.max_den_bits", "bits", "lower", "peak_rss_mb and cpu_s on tables-*"),
        ("ring.max_lambda_degree", "count", "lower", "cpu_s on tables-symbolic"),
    ]
    for op in SERIES_OPS:
        rows.append((f"series.{op}.calls", "count", "lower", _SERIES))
        rows.append((f"series.{op}.s", "s", "lower", _SERIES))
    rows.append(("series.coeff_products", "count", "lower",
                 _SERIES + " (computed from operand precisions)"))
    for op in POLY_OPS:
        rows.append((f"polynomials.{op}.calls", "count", "lower", _CATALOG))
    rows.append(("polynomials.s", "s", "lower", _CATALOG))
    for gf in FAMILY_GFS:
        rows.append((f"families.{gf}.s", "s", "lower", "wall_s on tables-symbolic and tables-rational"))
    for n in DPB_GROWTH_NS:
        rows.append((f"families.dpb_gf.n{n}.s", "s", "lower",
                     "wall_s on tables-symbolic (growth of one table build with N)"))
    rows += [
        ("families.cache.hits", "count", "higher", "wall_s and peak_rss_mb on catalog-grid"),
        ("families.cache.misses", "count", "lower", "wall_s and peak_rss_mb on catalog-grid"),
        ("families.cache.hit_ratio", "ratio", "higher", "wall_s and peak_rss_mb on catalog-grid"),
        ("families.cache.entries", "count", "lower", "peak_rss_mb on catalog-grid"),
        ("umbral.pair.calls", "count", "lower", _CATALOG),
        ("umbral.pair.s", "s", "lower", _CATALOG),
        ("umbral.op_apply.calls", "count", "lower", _CATALOG),
        ("umbral.op_apply.s", "s", "lower", _CATALOG),
        ("umbral.bernoulli_operator.hit_ratio", "ratio", "higher", _CATALOG),
    ]
    for ident in CATALOG_IDS:
        rows.append((f"identities.{ident}.s", "s", "lower", "wall_s and op_p90_s on catalog-grid"))
    rows += [
        ("identities.calls", "count", "lower", "wall_s and op_p90_s on catalog-grid"),
        ("identities.pass_ratio", "ratio", "higher", "fail_ratio on catalog-grid"),
        ("parser.parse.calls", "count", "lower", "op_p50_s on cli-session"),
        ("parser.parse.s", "s", "lower", "op_p50_s on cli-session"),
        ("parser.eval_expr.calls", "count", "lower", "op_p50_s on cli-session"),
        ("parser.eval_expr.s", "s", "lower", "op_p50_s on cli-session"),
    ]
    for stage in ("interp", "import", "argparse", "compute", "render"):
        rows.append((f"cli.{stage}_s", "s", "lower", "op_p50_s and setup_s on cli-session"))
    rows += [
        ("cli.stdout_bytes", "bytes", "lower", "op_p50_s on cli-session"),
        ("cli.table_dpb_k2_n32.s", "s", "lower", "op_p90_s on cli-session"),
        ("cli.eval_dpb_order32.s", "s", "lower", "op_p90_s on cli-session"),
        ("trace.overhead_ratio", "ratio", "lower", "none: traced wall_s over untraced wall_s"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()

# Metrics that are exact counts or ratios of counts, so they must repeat
# across runs with one seed.
EXACT = tuple(name for name, unit, _, _ in PER_LAYER
              if unit != "s" and name != "trace.overhead_ratio")


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """The 90th percentile, or None with fewer than 10 samples above it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[8]


def layer_metrics(snap: dict) -> dict:
    """Per-layer metrics of one pass from its trace snapshot."""
    stats, counters, layer_s = snap["stats"], snap["counters"], snap["layer_s"]

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "ring.lp_mul.calls": calls("ring.lp_mul"),
        "ring.lp_mul.s": incl("ring.lp_mul"),
        "ring.lp_add.calls": calls("ring.lp_add"),
        "ring.lp_divide_exact.calls": calls("ring.lp_divide_exact"),
    }
    for key in ("ring.max_num_bits", "ring.max_den_bits", "ring.max_lambda_degree"):
        m[key] = counters.get(key, 0)
    for op in SERIES_OPS:
        m[f"series.{op}.calls"] = calls(f"series.{op}")
        m[f"series.{op}.s"] = incl(f"series.{op}")
    m["series.coeff_products"] = counters.get("series.coeff_products", 0)
    for op in POLY_OPS:
        m[f"polynomials.{op}.calls"] = calls(f"polynomials.{op}")
    m["polynomials.s"] = layer_s.get("polynomials", 0.0)
    for gf in FAMILY_GFS:
        m[f"families.{gf}.s"] = incl(f"families.{gf}")
    for n in DPB_GROWTH_NS:
        m[f"families.dpb_gf.n{n}.s"] = median([s for p, s in snap["dpb_builds"] if p == n])
    hits, misses = counters["families.cache.hits"], counters["families.cache.misses"]
    m.update({"families.cache.hits": hits, "families.cache.misses": misses,
              "families.cache.hit_ratio": ratio(hits, hits + misses),
              "families.cache.entries": counters["families.cache.entries"]})
    for fn in ("pair", "op_apply"):
        m[f"umbral.{fn}.calls"] = calls(f"umbral.{fn}")
        m[f"umbral.{fn}.s"] = incl(f"umbral.{fn}")
    bo_hits = counters.get("umbral.bernoulli_operator.hits", 0)
    m["umbral.bernoulli_operator.hit_ratio"] = ratio(
        bo_hits, bo_hits + counters.get("umbral.bernoulli_operator.misses", 0))
    for ident in CATALOG_IDS:
        m[f"identities.{ident}.s"] = incl(f"identities.{ident}")
    m["identities.calls"] = counters.get("identities.calls", 0)
    m["identities.pass_ratio"] = ratio(counters.get("identities.passed", 0), m["identities.calls"])
    for fn in ("parse", "eval_expr"):
        m[f"parser.{fn}.calls"] = calls(f"parser.{fn}")
        m[f"parser.{fn}.s"] = incl(f"parser.{fn}")
    return m


def merge_snapshots(snaps: list[dict]) -> dict:
    """One snapshot for several processes (the ops of one cli-session pass)."""
    out = {"stats": {}, "layer_s": {}, "counters": {}, "dpb_builds": [], "missing": []}
    for snap in snaps:
        for name, row in snap["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
        for layer, s in snap["layer_s"].items():
            out["layer_s"][layer] = out["layer_s"].get(layer, 0.0) + s
        for name, v in snap["counters"].items():
            if name.startswith("ring.max_"):
                out["counters"][name] = max(out["counters"].get(name, 0), v)
            else:
                out["counters"][name] = out["counters"].get(name, 0) + v
        out["dpb_builds"] += snap["dpb_builds"]
        out["missing"] = sorted(set(out["missing"]) | set(snap["missing"]))
    return out
