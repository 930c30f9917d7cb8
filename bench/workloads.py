"""Workload definitions: finite menus of ops and seeded plans over them.

An op is a plain dict, so plans travel to worker processes as JSON. The
seed picks draws and order from each menu; every draw is a menu point, so
every op has a golden digest recorded in ``golden.json``. Each plan has a
fixed composition by cost class, so runs with different seeds do about
the same amount of work: in the table workloads the set of gf builds is
the same for every seed, and the seed orders the ops and draws the ones
whose cost does not depend on the draw.

This module does not import polybern: ``run_op`` and ``canonical`` take the
package from the worker, which imports it during its timed set-up.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("tables-symbolic", "tables-rational", "catalog-grid", "cli-session")

KS = (-2, -1, 0, 1, 2, 3)
RS = (1, 2, 3)

# -- tables-symbolic ----------------------------------------------------------

SYMBOLIC_NS = (16, 24, 32)
SYMBOLIC_POLY_NS = (4, 9, 15)


def _table(family, n, k=None, r=1):
    return {"kind": "table", "family": family, "n": n, "k": k, "r": r}


def _poly(family, index, n, k=None, r=1):
    return {"kind": "poly", "family": family, "index": index, "n": n, "k": k, "r": r}


def symbolic_menu() -> list[dict]:
    ops = [_table("dpb", n, k) for n in SYMBOLIC_NS for k in KS]
    ops += [_table("carlitz", n) for n in SYMBOLIC_NS]
    ops += [_table("dpb-higher", n, k, r) for n in SYMBOLIC_NS for k in KS for r in (2, 3)]
    for n in SYMBOLIC_NS:
        for i in SYMBOLIC_POLY_NS:
            ops.append(_poly("carlitz", i, n))
            ops += [_poly("dpb", i, n, k) for k in KS]
            ops += [_poly("dpb-higher", i, n, k, r) for k in KS for r in (2, 3)]
    return ops


# The dpb gf builds of each pass. Build cost depends on k (at N = 32 from
# 2.5 to 3.4 s), so k is fixed where a build is dear; k = 2 at N = 24 and 32
# gives the growth curve of the ROADMAP's dpb_gf(2, N) headline.
SYMBOLIC_DPB_KS = {16: KS, 24: (2,), 32: (2,)}
SYMBOLIC_HIGHER_R = {24: 3, 32: 2}


def _plan_symbolic(rng: random.Random) -> list[dict]:
    # Each N has its dpb tables and the Carlitz table, which build the gfs,
    # then dpb-higher tables over those dpb gfs (at N = 16 one for each r,
    # on drawn k: the power costs little next to the dpb build), which reuse
    # them; N = 16 also has a drawn polynomial of one of its gfs. N rises
    # through the session, and the builders run before the reusers of their
    # N, each in drawn order. So each op pays the same share of the work for
    # every seed: were a dpb-higher table to run first, it would pay for the
    # dpb build too, and op_p50_s would depend on the seed. (An op's latency
    # also depends on how much earlier ops left in the caches, which the
    # garbage collector walks, so N is not shuffled either.) Of the 16 ops,
    # five cost less than an N = 16 dpb build and five more, so the median
    # op is in the middle of the six N = 16 builds.
    ops = []
    for n, ks in SYMBOLIC_DPB_KS.items():
        if n in SYMBOLIC_HIGHER_R:
            higher = [(ks[0], SYMBOLIC_HIGHER_R[n])]
        else:
            higher = [(rng.choice(ks), r) for r in (2, 3)]
        builders = [_table("dpb", n, k) for k in ks] + [_table("carlitz", n)]
        reusers = [_table("dpb-higher", n, k, r) for k, r in higher]
        if n == SYMBOLIC_NS[0]:
            sources = [("dpb", k, 1) for k in ks] + [("dpb-higher", k, r) for k, r in higher]
            family, k, r = rng.choice(sources + [("carlitz", None, 1)])
            reusers.append(_poly(family, rng.choice(SYMBOLIC_POLY_NS), n, k, r))
        rng.shuffle(builders)
        rng.shuffle(reusers)
        ops += builders + reusers
    return ops


# -- tables-rational ----------------------------------------------------------

RATIONAL_NS = (64, 96)
RATIONAL_BIG_N = 128
RATIONAL_POLY_NS = (8, 16, 31)


def rational_menu() -> list[dict]:
    ops = [_table("poly-bernoulli", n, k) for n in RATIONAL_NS for k in KS]
    ops += [_table("bernoulli", RATIONAL_BIG_N), _table("daehee", RATIONAL_BIG_N)]
    ops += [_poly("poly-bernoulli", i, n, k) for n in RATIONAL_NS for k in KS
            for i in RATIONAL_POLY_NS]
    ops += [_poly("bernoulli", i, RATIONAL_BIG_N) for i in RATIONAL_POLY_NS]
    return ops


# The poly-bernoulli gf builds of each pass; build cost depends on k.
RATIONAL_KS = {64: (-2, 0, 1, 3), 96: (-1, 2)}


def _plan_rational(rng: random.Random) -> list[dict]:
    # Eight tables: the bernoulli and daehee tables, which cost little, four
    # builds at N = 64 and two at N = 96, so the median op is in the middle
    # of the N = 64 builds. The seed draws the order.
    ops = [_table("poly-bernoulli", n, k) for n, ks in RATIONAL_KS.items() for k in ks]
    ops += [_table("bernoulli", RATIONAL_BIG_N), _table("daehee", RATIONAL_BIG_N)]
    rng.shuffle(ops)
    return ops


# -- catalog-grid -------------------------------------------------------------

CATALOG_IDS = ("eq5", "eq17", "eq18", "thm1", "thm2", "thm3", "thm4", "remark",
               "sheffer16", "sheffer23", "k0", "lambda0")
CATALOG_NMAX = (6, 8)
CATALOG_SEEDS = (0, 1, 2)
CATALOG_LAMS = ("1/2", "-3/2")
# cells (by index in k-major order) run at a rational lambda: a 1/6 share,
# one at each verify seed, nmax 6 and 8 and three different k
CATALOG_LAM_CELLS = {0: "1/2", 9: "-3/2", 16: "1/2"}

# Which verify() arguments each id reads; the rest leave its report unchanged.
_USES_K = set(CATALOG_IDS) - {"eq5", "k0"}
_USES_R = {"thm3", "thm4", "remark", "sheffer23"}
_USES_SEED = {"eq18", "thm1", "thm2", "thm3", "thm4"}
_USES_NMAX = set(CATALOG_IDS) - {"thm2", "thm3"}


def _verify(ident, k, r, nmax, seed, lam):
    return {"kind": "verify", "id": ident, "k": k, "r": r, "nmax": nmax,
            "seed": seed, "lam": lam}


def catalog_menu() -> list[dict]:
    """Every distinct report the grid can produce (arguments an id ignores
    are fixed, so the menu holds each report once)."""
    seen = {}
    for ident in CATALOG_IDS:
        for k in KS:
            for r in RS:
                for nmax in CATALOG_NMAX:
                    for seed in CATALOG_SEEDS:
                        for lam in (None,) + CATALOG_LAMS:
                            op = _verify(ident, k, r, nmax, seed, lam)
                            seen.setdefault(op_key(op), op)
    return list(seen.values())


def _plan_catalog(rng: random.Random) -> list[dict]:
    # Every id runs its 18 (k, r) cells with the same arguments for every
    # seed: half the cells at each nmax, a third at each verify seed (which
    # draws its random test polynomials), 3 at a rational lambda. A verify's
    # latency depends on those arguments, and drawing them per run seed
    # moved op_p50_s by 15% between seeds. The seed draws the order of the
    # cells within each id; whichever cell first needs a cached gf pays for
    # it, so the latencies of a pass are about the same set for every seed.
    # The ids run in catalog order, so the cache state an op meets does not
    # depend on the seed.
    cells = [(k, r) for k in KS for r in RS]
    ops = []
    for ident in CATALOG_IDS:
        group = [_verify(ident, k, r, CATALOG_NMAX[i % 2], CATALOG_SEEDS[i // 2 % 3],
                         CATALOG_LAM_CELLS.get(i))
                 for i, (k, r) in enumerate(cells)]
        rng.shuffle(group)
        ops += group
    return ops


# -- cli-session --------------------------------------------------------------


def _cli(argv, expect="ok", name=None):
    return {"kind": "cli", "argv": list(argv), "expect": expect,
            "name": name or " ".join(argv)}


README_OPS = (
    _cli(["table", "daehee", "--n", "4"]),
    _cli(["table", "carlitz", "--n", "3", "--lambda", "0"]),
    _cli(["poly", "dpb", "--k", "2", "--n", "1"]),
    _cli(["eval", "t/(elam(1)-1)", "--order", "3"]),
    _cli(["verify", "remark", "--k", "2", "--r", "3", "--n", "10"]),
    _cli(["verify", "li(1, 1-elam(-1)) == log(1+lambda*t)/lambda", "--order", "12"]),
)

HEAVY_OPS = (
    _cli(["table", "dpb", "--k", "2", "--n", "32"], name="table_dpb_k2_n32"),
    _cli(["eval", "li(2,1-elam(-1))/(elam(1)-1)"], name="eval_dpb_order32"),
)

# Inputs the CLI rejects as it should: exit 2 with a "polybern: error" line.
MALFORMED_OPS = (
    _cli(["table", "dpb", "--n", "5"], "error"),
    _cli(["table", "poly-bernoulli", "--k", "3", "--n", "40"], "error"),
    _cli(["eval", "1+"], "error"),
    _cli(["eval", "log(t)"], "error"),
    _cli(["verify", "nosuch"], "error"),
    _cli(["poly", "daehee", "--n", "3"], "error"),
    _cli(["table", "dpb-higher", "--k", "1", "--r", "0", "--n", "4"], "error"),
)

# Inputs that breach the CLI contract today (ROADMAP item 4). The contract
# asks for exit 2 with a "polybern: error" line; until the CLI gives that,
# each counts as a failed op. `table poly-bernoulli --k 99999999` is left
# out: it never finishes, so it would only measure the op timeout.
BREACH_OPS = (
    _cli(["eval", "0/0"], "error"),
    _cli(["eval", "elam(1/0)"], "error"),
    _cli(["eval", "li(2,t)", "--order", "0"], "error"),
    _cli(["verify", "thm1", "--n", "-1"], "error"),
)
BREACH_NAMES = frozenset(op["name"] for op in BREACH_OPS)

MID_FORMATS = ("text", "json", "csv")
MID_LAMS = ("symbolic", "1/2", "-3")
MID_EVAL = ("t/(exp(t)-1)", "log(1+t)/t", "li(2,1-exp(-t))/(exp(t)-1)",
            "t/(elam(1)-1)", "li(-1,1-elam(-1))/(elam(1)-1)")


def mid_menu() -> list[dict]:
    ops = []
    for fmt in MID_FORMATS:
        for lam in MID_LAMS:
            tail = ["--format", fmt, "--lambda", lam]
            ops += [_cli(["table", "dpb", "--k", str(k), "--n", "12"] + tail) for k in (-1, 2)]
            ops.append(_cli(["table", "dpb-higher", "--k", "1", "--r", "2", "--n", "10"] + tail))
            ops.append(_cli(["table", "carlitz", "--n", "16"] + tail))
            ops.append(_cli(["table", "poly-bernoulli", "--k", "3", "--n", "24"] + tail))
            ops.append(_cli(["poly", "dpb", "--k", "2", "--n", "8"] + tail))
            ops.append(_cli(["poly", "carlitz", "--n", "10"] + tail))
            ops.append(_cli(["eval", MID_EVAL[4], "--order", "10"] + tail))
        ops += [_cli(["eval", e, "--order", "12", "--format", fmt]) for e in MID_EVAL]
        ops += [_cli(["verify", ident, "--k", "2", "--r", "2", "--n", "6", "--format", fmt])
                for ident in ("eq17", "thm1", "thm4", "sheffer23")]
    return ops


CLI_MALFORMED_PER_PASS = 2


def _plan_cli(rng: random.Random) -> list[dict]:
    # One drawn op of each subcommand keeps the plan's cost about the same
    # for every seed.
    mid = mid_menu()
    ops = list(README_OPS)
    ops += [rng.choice([op for op in mid if op["argv"][0] == cmd])
            for cmd in ("table", "poly", "verify", "eval")]
    ops += rng.sample(MALFORMED_OPS, CLI_MALFORMED_PER_PASS) + list(BREACH_OPS)
    rng.shuffle(ops)
    return ops


def cli_pass(plan: list[dict], rng: random.Random, index: int) -> list[dict]:
    """Pass ``index`` of cli-session: the plan with one heavy op at a drawn place.

    The two heavy ops take about 3 s each, alike, and alternate between
    passes: with both in every pass, a 32 s run had only 2 or 3 passes to
    take the median over."""
    ops = list(plan)
    ops.insert(rng.randrange(len(ops) + 1), HEAVY_OPS[index % len(HEAVY_OPS)])
    return ops


def cli_menu() -> list[dict]:
    return list(README_OPS) + list(HEAVY_OPS) + mid_menu()


# -- shared ------------------------------------------------------------------

_PLANNERS = {
    "tables-symbolic": _plan_symbolic,
    "tables-rational": _plan_rational,
    "catalog-grid": _plan_catalog,
    "cli-session": _plan_cli,
}


def make_plan(workload: str, seed: int) -> list[dict]:
    return _PLANNERS[workload](random.Random(f"{workload}/{seed}"))


def golden_menu() -> list[dict]:
    """Every op a plan can draw whose output has a golden digest."""
    return symbolic_menu() + rational_menu() + catalog_menu() + cli_menu()


def op_key(op: dict) -> str:
    """Name of an op's output; ops with equal keys produce equal output."""
    kind = op["kind"]
    if kind == "cli":
        return "cli " + json.dumps(op["argv"])
    if kind == "verify":
        ident = op["id"]
        return (f"verify {ident} k={op['k'] if ident in _USES_K else '-'}"
                f" r={op['r'] if ident in _USES_R else '-'}"
                f" nmax={op['nmax'] if ident in _USES_NMAX else '-'}"
                f" seed={op['seed'] if ident in _USES_SEED else '-'}"
                f" lam={op['lam'] or 'symbolic'}")
    base = f"{kind} {op['family']} k={op['k']} r={op['r']} n={op['n']}"
    return base + (f" index={op['index']}" if kind == "poly" else "")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def run_op(op: dict, pb):
    """Run one library op against the polybern package ``pb``."""
    kind = op["kind"]
    if kind == "table":
        return pb.families.table(op["family"], op["n"], k=op["k"], r=op["r"])
    if kind == "poly":
        return pb.families.polynomial(op["family"], op["index"], op["n"],
                                      k=op["k"], r=op["r"])
    lam = None if op["lam"] is None else pb.Rational(op["lam"])
    return pb.identities.verify(op["id"], k=op["k"], r=op["r"], nmax=op["nmax"],
                                seed=op["seed"], lam=lam)


def canonical(op: dict, result, pb) -> str:
    """Canonical text of a library op's result (what the golden digest covers)."""
    kind = op["kind"]
    if kind == "table":
        return "\n".join(pb.ring.format_scalar(v) for v in result.values)
    if kind == "poly":
        return str(result)
    return json.dumps(result.to_json_dict(), sort_keys=True)


def cli_canonical(exit_code: int, stdout: str) -> str:
    return f"exit={exit_code}\n{stdout}"
