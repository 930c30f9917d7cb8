"""Outside-in tracing of polybern's layers for the traced benchmark run.

The tracer wraps public functions and methods from here, patching each
name where its caller looks it up (a class attribute, or the module
global a caller reads). Every wrapped call pushes a frame; on return its
duration is charged to the parent frame, which gives self time without
storing anything per call. Span records (name, start, end, parent, op id)
are kept in memory for every layer except ``ring``, whose calls are too
many to store, and written out once the run ends.

Nothing here changes polybern's behaviour: wrappers pass arguments and
results through unchanged, and ``Tracer.uninstall`` restores every name.
"""

from __future__ import annotations

import argparse
import functools
import json
from time import perf_counter

SPAN_LIMIT = 100_000


def series_products(name: str, args, result) -> int:
    """Coefficient products a dense Series op performs, computed from the
    operand precisions (an upper bound: the kernel skips zero terms)."""
    if name in ("series.mul", "series.div"):
        if not hasattr(args[1], "precision"):
            return result.precision  # scalar times series
        n = min(args[0].precision, args[1].precision)
        return n * (n + 1) // 2 if name == "series.mul" else n * (n - 1) // 2
    n = result.precision
    if name == "series.compose":
        # the power update is a truncated product per step, plus the
        # accumulation of f_i times that power
        return (n - 2) * n * (n + 1) // 2 + n * (n - 1) // 2
    if name in ("series.log", "series.exp"):
        return n * (n - 1) // 2 + n
    return 0  # pow and revert: their products are counted in mul and div


class Tracer:
    def __init__(self):
        self.stats = {}          # name -> [calls, inclusive s, self s]
        self.layer_s = {}        # layer -> outermost time in that layer
        self.counters = {}       # name -> exact count
        self.spans = []          # (id, parent id, op id, name, start, end)
        self.spans_dropped = 0
        self.op_id = -1
        self._stack = []         # [name, layer, start, child s, span id]
        self._depth = {}         # name or layer -> active frames
        self._next_id = 0
        self._patched = []
        self._seen_outputs = set()
        self.dpb_builds = []     # (precision, seconds) per dpb_gf cache miss
        self.missing = []        # names this version of polybern lacks
        self.max_bits = {"ring.max_num_bits": 0, "ring.max_den_bits": 0,
                         "ring.max_lambda_degree": 0}

    # -- recording --------------------------------------------------------

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name, store=True, on_return=None):
        """``fn`` wrapped so each call records a span named ``name``;
        ``name`` may be a callable of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            layer = span_name.split(".", 1)[0]
            frame = [span_name, layer, perf_counter(), 0.0, None]
            depth = tracer._depth
            depth[span_name] = depth.get(span_name, 0) + 1
            depth[layer] = depth.get(layer, 0) + 1
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._close(frame, end, store)
            if on_return is not None:
                on_return(span_name, args, result)
            return result

        return wrapper

    def _close(self, frame, end, store):
        name, layer, start, child, _ = frame
        dur = end - start
        depth = self._depth
        depth[name] -= 1
        depth[layer] -= 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[2] += dur - child
        if depth[name] == 0:
            st[1] += dur
        if depth[layer] == 0:
            self.layer_s[layer] = self.layer_s.get(layer, 0.0) + dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if store:
            if len(self.spans) < SPAN_LIMIT:
                span_id = self._next_id
                self._next_id += 1
                parent_id = None if parent is None else parent[4]
                self.spans.append((span_id, parent_id, self.op_id, name, start, end))
                frame[4] = span_id
            else:
                self.spans_dropped += 1

    def scan(self, value):
        """Record coefficient sizes of a Series, table or polynomial."""
        if id(value) in self._seen_outputs:
            return
        self._seen_outputs.add(id(value))
        coeffs = getattr(value, "coeffs", None)
        if coeffs is None:
            coeffs = getattr(value, "values", ())
        bits = self.max_bits
        for c in coeffs:
            inner = getattr(c, "coeffs", None)
            if inner is not None:
                bits["ring.max_lambda_degree"] = max(bits["ring.max_lambda_degree"],
                                                     len(inner) - 1)
            for q in (inner if inner is not None else (c,)):
                bits["ring.max_num_bits"] = max(bits["ring.max_num_bits"],
                                                q.numerator.bit_length())
                bits["ring.max_den_bits"] = max(bits["ring.max_den_bits"],
                                                q.denominator.bit_length())

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, name, store=True, on_return=None):
        """Wrap ``owner.attr``; a name this version lacks is listed, not fatal,
        so the same benchmark runs against earlier and later commits."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, store, on_return))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def install(self, pb, cli_mode=False):
        """Wrap every layer boundary of the imported polybern package."""
        ring, series, polynomials = pb.ring, pb.series, pb.polynomials
        families, umbral, identities, parser = pb.families, pb.umbral, pb.identities, pb.parser

        lp = ring.LambdaPoly
        for attr in ("__mul__", "__rmul__"):
            self.patch(lp, attr, "ring.lp_mul", store=False)
        for attr in ("__add__", "__radd__"):
            self.patch(lp, attr, "ring.lp_add", store=False)
        self.patch(lp, "divide_exact", "ring.lp_divide_exact", store=False)

        def count_products(name, args, result):
            self.count("series.coeff_products", series_products(name, args, result))

        # Series.__rmul__ calls through __mul__, but __truediv__ is bound to
        # the function div at class creation, so both names are patched.
        for attr, name in (("__mul__", "series.mul"), ("div", "series.div"),
                           ("__truediv__", "series.div"), ("compose", "series.compose"),
                           ("__pow__", "series.pow"), ("log", "series.log"),
                           ("exp", "series.exp"), ("revert", "series.revert")):
            self.patch(series.Series, attr, name, on_return=count_products)

        poly = polynomials.Polynomial
        for attr in ("__mul__", "derivative", "shift", "specialize"):
            self.patch(poly, attr, f"polynomials.{attr.strip('_')}")

        def scan_return(name, args, result):
            self.scan(result)

        for fn in ("dpb_higher_gf", "carlitz_gf", "poly_bernoulli_gf",
                   "bernoulli_gf", "daehee_gf", "elam"):
            self.patch(families, fn, f"families.{fn}", on_return=scan_return)
        self._patch_dpb_gf(families, scan_return)
        for fn in ("table", "polynomial"):
            self.patch(families, fn, f"families.{fn}")

        # identities binds pair and op_apply from umbral at import.
        for owner in (umbral, identities):
            self.patch(owner, "pair", "umbral.pair")
            self.patch(owner, "op_apply", "umbral.op_apply")

        def record_report(name, args, report):
            self.count("identities.calls")
            self.count("identities.passed", int(report.status == "pass"))

        self.patch(identities, "verify", lambda ident, **kw: f"identities.{ident}",
                   on_return=record_report)

        self.patch(parser, "parse", "parser.parse")
        self.patch(parser, "eval_expr", "parser.eval_expr", on_return=scan_return)

        if cli_mode:
            self._install_cli(pb.cli, poly)

    def _patch_dpb_gf(self, families, scan_return):
        """dpb_gf also records the time of each cache miss by precision,
        which gives the cost curve of one table build against N."""
        original = getattr(families, "dpb_gf", None)
        if original is None:
            self.missing.append("families.dpb_gf")
            return
        traced = self.wrap(original, "families.dpb_gf", on_return=scan_return)

        @functools.wraps(original)
        def dpb_gf(k, precision=families.DEFAULT_PRECISION):
            misses = original.cache_info().misses
            start = perf_counter()
            result = traced(k, precision)
            if original.cache_info().misses != misses:
                self.dpb_builds.append((precision, perf_counter() - start))
            return result

        self._patched.append((families, "dpb_gf", original))
        families.dpb_gf = dpb_gf

    def _install_cli(self, cli, poly):
        self.patch(cli, "build_arg_parser", "cli.argparse")
        self.patch(argparse.ArgumentParser, "parse_args", "cli.argparse")
        for fn in ("cmd_table", "cmd_poly", "cmd_verify", "cmd_eval"):
            self.patch(cli, fn, "cli.compute")
        for fn in ("render_record", "render_report", "_json_text", "_csv_text",
                   "_specialized_str", "format_scalar"):
            self.patch(cli, fn, "cli.render")
        # cmd_poly renders through str(p); identities also call str() on
        # polynomials while comparing, which is not rendering.
        self.patch(poly, "__str__", lambda p: "cli.render" if self._stack
                   and self._stack[-1][0] == "cli.compute" else "polynomials.str")

    # -- results ------------------------------------------------------------

    def snapshot(self, pb) -> dict:
        """Exact counts and times gathered so far, plus cache statistics."""
        families, umbral = pb.families, pb.umbral
        out = {"stats": {k: list(v) for k, v in self.stats.items()},
               "layer_s": dict(self.layer_s), "counters": dict(self.counters)}
        out["counters"].update(self.max_bits)
        # the public cached functions of families (__all__ also names
        # bernoulli_poly, which the module does not define)
        caches = [getattr(families, name, None) for name in families.__all__]
        caches = [fn for fn in caches if hasattr(fn, "cache_info")]
        hits = misses = entries = 0
        for fn in caches:
            info = fn.cache_info()
            hits, misses, entries = hits + info.hits, misses + info.misses, entries + info.currsize
        out["counters"].update({"families.cache.hits": hits, "families.cache.misses": misses,
                                "families.cache.entries": entries})
        operator = getattr(umbral, "bernoulli_operator", None)
        if hasattr(operator, "cache_info"):
            info = operator.cache_info()
            out["counters"]["umbral.bernoulli_operator.hits"] = info.hits
            out["counters"]["umbral.bernoulli_operator.misses"] = info.misses
        else:
            self.missing.append("umbral.bernoulli_operator.cache_info")
        out["dpb_builds"] = list(self.dpb_builds)
        out["spans_dropped"] = self.spans_dropped
        out["missing"] = sorted(set(self.missing))
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
