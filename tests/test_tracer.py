"""The benchmark's tracer against this version of the package: every name
``bench/tracer.py`` wraps must exist where it looks for it, and
``Tracer.uninstall`` must put every one back."""

from __future__ import annotations

import argparse
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import polybern
from polybern import cli, families, identities, parser, polynomials, ring, series, umbral

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parent.parent / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# every object whose attributes the tracer patches
OWNERS = (ring.LambdaPoly, series.Series, polynomials.Polynomial, families, umbral,
          identities, parser, cli, argparse.ArgumentParser)


@pytest.mark.parametrize("cli_mode", [False, True], ids=["library", "cli"])
def test_the_tracer_finds_every_hook_and_uninstall_restores_them(cli_mode):
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    t = tracer.Tracer()
    t.install(polybern, cli_mode=cli_mode)
    try:
        assert t.missing == []
        assert t._patched and all(owner in OWNERS for owner, _, _ in t._patched)
        for owner, attr, original in t._patched:
            assert vars(owner)[attr] is not original, attr
        # the row product and specialize that Series and Polynomial share
        # are traced under each class's own name, from either side
        f, p = series.Series.t(3), polynomials.Polynomial([1, ring.LAMBDA])
        f * f, 2 * f, p * p, p * 2, p.specialize(Fraction(1, 2)), f.specialize(1)
        calls = {name: st[0] for name, st in t.stats.items() if not name.startswith("ring.")}
        assert calls == {"series.mul": 2, "polynomials.mul": 2, "polynomials.specialize": 1}
        assert t.snapshot(polybern)["missing"] == []
    finally:
        t.uninstall()
    assert {owner: dict(vars(owner)) for owner in OWNERS} == before
