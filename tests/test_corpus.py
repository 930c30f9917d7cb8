"""A committed CLI corpus: every argv below runs through ``cli.main`` in
process, and its exit code, stdout and stderr must hash to the digest
recorded for it in DIGESTS, one line per argv.

The argvs cover every subcommand and ``--format``; every family id at
``--lambda`` symbolic, 1/2, 0 and -3; every catalog id at its defaults, and
each that specializes at a numeric lambda at ``--lambda`` 1/2, 0 and -3; each
``families.canonical_expression``; the README, mid-size (``MID_EVAL`` among
them) and malformed-input menus of ``bench/workloads.py``; and the usage
errors of ``test_cli.test_bad_usage_exits_two``. None is near a documented worst case.

A change that keeps every output keeps every digest. A deliberate change of
output re-records the table: ``PYTHONPATH=src python tests/test_corpus.py``
prints it, to paste over DIGESTS, and the reason goes to CHANGES.md. The
usage errors and ``--help`` hash argparse's own text, which can differ
between Python versions."""

from __future__ import annotations

import hashlib
import importlib.util
import io
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from polybern import cli, families, identities

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

FORMATS = ("text", "json", "csv")
LAMBDAS = ("symbolic", "1/2", "0", "-3")
# catalog ids whose check specializes both sides at a numeric --lambda
NUMERIC_LAMBDA_IDS = ("eq17", "eq18", "thm2", "thm3", "k0", "sheffer16", "sheffer23",
                      "stirling1")
BAD_USAGE = (
    ("table", "fibonacci", "--n", "3"),
    ("table", "dpb", "--n", "3"),
    ("table", "daehee"),
    ("poly", "daehee", "--n", "2"),
    ("table", "daehee", "--n", "40", "--order", "8"),
    ("frobnicate",),
    ("eval", "0/0"),
    ("eval", "elam(1/0)"),
    ("eval", "li(2,t)", "--order", "0"),
    ("verify", "t==t", "--order", "0"),
    ("verify", "thm1", "--n", "-1"),
    ("verify", "lambda0", "--order", "1"),
    ("verify", "lambda0", "--n", "5", "--order", "3"),
    ("eval", "²"),
    ("table", "poly-bernoulli", "--k", "99999999", "--n", "3"),
    ("eval", "li(99999999, t)", "--order", "4"),
    ("verify", "remark", "--r", "1000000000", "--n", "4"),
    ("eval", "exp(t)", "--order", "100000000"),
    ("verify", "t==t", "--order", "100000000"),
    ("table", "daehee", "--n", "129", "--order", "129"),
    ("eval", "9" * 5000, "--order", "2"),
)


def argvs() -> list[tuple[str, ...]]:
    """The corpus, in run order, each argv once."""
    out = [("--help",)]
    for family in families.FAMILY_IDS:
        for lam in LAMBDAS:
            for fmt in FORMATS:
                tail = ("--lambda", lam, "--format", fmt)
                out.append(("table", family, "--n", "8", "--k", "2", "--r", "2") + tail)
                out.append(("poly", family, "--n", "4", "--k", "-1", "--r", "3") + tail)
        for k, r in ((3, 2), (-2, 3)):
            out.append(("table", family, "--n", "24", "--k", str(k), "--r", str(r)))
            out.append(("eval", families.canonical_expression(family, k, r), "--order", "10"))
    out += [("verify", ident) for ident in identities.CATALOG_IDS]
    for ident in NUMERIC_LAMBDA_IDS:
        out += [("verify", ident, "--lambda", lam, "--format", "json") for lam in LAMBDAS[1:]]
    for fmt in FORMATS:
        out.append(("verify", "eq17", "--k", "-1", "--n", "6", "--format", fmt))
        out.append(("verify", "t*exp(t) == t + t^2", "--order", "4", "--format", fmt))
    ops = workloads.README_OPS + tuple(workloads.mid_menu()) + workloads.MALFORMED_OPS
    out += [tuple(op["argv"]) for op in ops]
    out += BAD_USAGE
    return list(dict.fromkeys(out))


def label(argv) -> str:
    """The argv as a shell line, an argument longer than 60 characters abbreviated."""
    return shlex.join(a if len(a) <= 60 else f"{a[:8]}...<{len(a)} chars>" for a in argv)


def run(argv) -> str:
    """sha256 (first 16 hex digits) of the exit code, stdout and stderr of one argv."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:  # argparse usage errors and --help
            code = stop.code
    return hashlib.sha256(repr((code, out.getvalue(), err.getvalue())).encode()).hexdigest()[:16]


DIGESTS = {
    '--help': 'be462d304c45c2d8',
    'table bernoulli --n 8 --k 2 --r 2 --lambda symbolic --format text': '17cd382669ceb31a',
    'poly bernoulli --n 4 --k -1 --r 3 --lambda symbolic --format text': '1ccd6f27fc686ed1',
    'table bernoulli --n 8 --k 2 --r 2 --lambda symbolic --format json': '6d6c08a8a4ed050e',
    'poly bernoulli --n 4 --k -1 --r 3 --lambda symbolic --format json': '45ee610cebef92a6',
    'table bernoulli --n 8 --k 2 --r 2 --lambda symbolic --format csv': '2931e3a686a713de',
    'poly bernoulli --n 4 --k -1 --r 3 --lambda symbolic --format csv': 'c5b50c80e7e1c4fa',
    'table bernoulli --n 8 --k 2 --r 2 --lambda 1/2 --format text': '17cd382669ceb31a',
    'poly bernoulli --n 4 --k -1 --r 3 --lambda 1/2 --format text': '1ccd6f27fc686ed1',
    'table bernoulli --n 8 --k 2 --r 2 --lambda 1/2 --format json': '0601c0708d352c55',
    'poly bernoulli --n 4 --k -1 --r 3 --lambda 1/2 --format json': '3df367559b3d254e',
    'table bernoulli --n 8 --k 2 --r 2 --lambda 1/2 --format csv': '2931e3a686a713de',
    'poly bernoulli --n 4 --k -1 --r 3 --lambda 1/2 --format csv': 'c5b50c80e7e1c4fa',
    'table bernoulli --n 8 --k 2 --r 2 --lambda 0 --format text': '17cd382669ceb31a',
    'poly bernoulli --n 4 --k -1 --r 3 --lambda 0 --format text': '1ccd6f27fc686ed1',
    'table bernoulli --n 8 --k 2 --r 2 --lambda 0 --format json': '4cb6a3ab46c7f6c0',
    'poly bernoulli --n 4 --k -1 --r 3 --lambda 0 --format json': '26df54da4683d399',
    'table bernoulli --n 8 --k 2 --r 2 --lambda 0 --format csv': '2931e3a686a713de',
    'poly bernoulli --n 4 --k -1 --r 3 --lambda 0 --format csv': 'c5b50c80e7e1c4fa',
    'table bernoulli --n 8 --k 2 --r 2 --lambda -3 --format text': '17cd382669ceb31a',
    'poly bernoulli --n 4 --k -1 --r 3 --lambda -3 --format text': '1ccd6f27fc686ed1',
    'table bernoulli --n 8 --k 2 --r 2 --lambda -3 --format json': '2512f85e9f13ba11',
    'poly bernoulli --n 4 --k -1 --r 3 --lambda -3 --format json': 'cfa63aea2ace5502',
    'table bernoulli --n 8 --k 2 --r 2 --lambda -3 --format csv': '2931e3a686a713de',
    'poly bernoulli --n 4 --k -1 --r 3 --lambda -3 --format csv': 'c5b50c80e7e1c4fa',
    'table bernoulli --n 24 --k 3 --r 2': 'd959e7249b8b15ac',
    "eval 't/(exp(t)-1)' --order 10": '2c70495e70937b62',
    'table bernoulli --n 24 --k -2 --r 3': 'd959e7249b8b15ac',
    'table daehee --n 8 --k 2 --r 2 --lambda symbolic --format text': '8f28ace53a2ef599',
    'poly daehee --n 4 --k -1 --r 3 --lambda symbolic --format text': 'b147aacfc7bed6dc',
    'table daehee --n 8 --k 2 --r 2 --lambda symbolic --format json': 'ee112d65a1a8e22e',
    'poly daehee --n 4 --k -1 --r 3 --lambda symbolic --format json': 'b147aacfc7bed6dc',
    'table daehee --n 8 --k 2 --r 2 --lambda symbolic --format csv': 'a7d928f8f5ad8ddc',
    'poly daehee --n 4 --k -1 --r 3 --lambda symbolic --format csv': 'b147aacfc7bed6dc',
    'table daehee --n 8 --k 2 --r 2 --lambda 1/2 --format text': '8f28ace53a2ef599',
    'poly daehee --n 4 --k -1 --r 3 --lambda 1/2 --format text': 'b147aacfc7bed6dc',
    'table daehee --n 8 --k 2 --r 2 --lambda 1/2 --format json': 'a0d9d231d819a4fe',
    'poly daehee --n 4 --k -1 --r 3 --lambda 1/2 --format json': 'b147aacfc7bed6dc',
    'table daehee --n 8 --k 2 --r 2 --lambda 1/2 --format csv': 'a7d928f8f5ad8ddc',
    'poly daehee --n 4 --k -1 --r 3 --lambda 1/2 --format csv': 'b147aacfc7bed6dc',
    'table daehee --n 8 --k 2 --r 2 --lambda 0 --format text': '8f28ace53a2ef599',
    'poly daehee --n 4 --k -1 --r 3 --lambda 0 --format text': 'b147aacfc7bed6dc',
    'table daehee --n 8 --k 2 --r 2 --lambda 0 --format json': '2aadfb0e06e59bf3',
    'poly daehee --n 4 --k -1 --r 3 --lambda 0 --format json': 'b147aacfc7bed6dc',
    'table daehee --n 8 --k 2 --r 2 --lambda 0 --format csv': 'a7d928f8f5ad8ddc',
    'poly daehee --n 4 --k -1 --r 3 --lambda 0 --format csv': 'b147aacfc7bed6dc',
    'table daehee --n 8 --k 2 --r 2 --lambda -3 --format text': '8f28ace53a2ef599',
    'poly daehee --n 4 --k -1 --r 3 --lambda -3 --format text': 'b147aacfc7bed6dc',
    'table daehee --n 8 --k 2 --r 2 --lambda -3 --format json': '446fda1be86615bd',
    'poly daehee --n 4 --k -1 --r 3 --lambda -3 --format json': 'b147aacfc7bed6dc',
    'table daehee --n 8 --k 2 --r 2 --lambda -3 --format csv': 'a7d928f8f5ad8ddc',
    'poly daehee --n 4 --k -1 --r 3 --lambda -3 --format csv': 'b147aacfc7bed6dc',
    'table daehee --n 24 --k 3 --r 2': 'ef48cea7cdc25adc',
    "eval 'log(1+t)/t' --order 10": 'a3f75e38c1a597b7',
    'table daehee --n 24 --k -2 --r 3': 'ef48cea7cdc25adc',
    'table carlitz --n 8 --k 2 --r 2 --lambda symbolic --format text': 'acbb0b8d04587740',
    'poly carlitz --n 4 --k -1 --r 3 --lambda symbolic --format text': 'c78a32defd4d6745',
    'table carlitz --n 8 --k 2 --r 2 --lambda symbolic --format json': 'a610628551071f6f',
    'poly carlitz --n 4 --k -1 --r 3 --lambda symbolic --format json': '82eff18f34c7f53f',
    'table carlitz --n 8 --k 2 --r 2 --lambda symbolic --format csv': '7f03afab51b47655',
    'poly carlitz --n 4 --k -1 --r 3 --lambda symbolic --format csv': 'a5bcff159d68178d',
    'table carlitz --n 8 --k 2 --r 2 --lambda 1/2 --format text': 'c1da904fcebe5e34',
    'poly carlitz --n 4 --k -1 --r 3 --lambda 1/2 --format text': 'e1d6149b9698b853',
    'table carlitz --n 8 --k 2 --r 2 --lambda 1/2 --format json': 'cd1973645b214dd1',
    'poly carlitz --n 4 --k -1 --r 3 --lambda 1/2 --format json': '5245621803dd5000',
    'table carlitz --n 8 --k 2 --r 2 --lambda 1/2 --format csv': '538379166f7f849a',
    'poly carlitz --n 4 --k -1 --r 3 --lambda 1/2 --format csv': '8158e73c3712a7ea',
    'table carlitz --n 8 --k 2 --r 2 --lambda 0 --format text': '17cd382669ceb31a',
    'poly carlitz --n 4 --k -1 --r 3 --lambda 0 --format text': '1ccd6f27fc686ed1',
    'table carlitz --n 8 --k 2 --r 2 --lambda 0 --format json': 'e3af063b06f0475d',
    'poly carlitz --n 4 --k -1 --r 3 --lambda 0 --format json': '4cdbbcc959f67b9b',
    'table carlitz --n 8 --k 2 --r 2 --lambda 0 --format csv': '2931e3a686a713de',
    'poly carlitz --n 4 --k -1 --r 3 --lambda 0 --format csv': 'c5b50c80e7e1c4fa',
    'table carlitz --n 8 --k 2 --r 2 --lambda -3 --format text': '59f0aa9184800ae0',
    'poly carlitz --n 4 --k -1 --r 3 --lambda -3 --format text': '52ffebec2f20c01c',
    'table carlitz --n 8 --k 2 --r 2 --lambda -3 --format json': '4fe2356ed80e5c31',
    'poly carlitz --n 4 --k -1 --r 3 --lambda -3 --format json': 'fd31e0653fbe0cca',
    'table carlitz --n 8 --k 2 --r 2 --lambda -3 --format csv': '9ae95f706e7dfcf9',
    'poly carlitz --n 4 --k -1 --r 3 --lambda -3 --format csv': '2f8a557c759f1979',
    'table carlitz --n 24 --k 3 --r 2': '71396e727409807c',
    "eval 't/(elam(1)-1)' --order 10": '7307c7314822a40a',
    'table carlitz --n 24 --k -2 --r 3': '71396e727409807c',
    'table poly-bernoulli --n 8 --k 2 --r 2 --lambda symbolic --format text': '6a638b5624a3e645',
    'poly poly-bernoulli --n 4 --k -1 --r 3 --lambda symbolic --format text': '2d8434d765d3ff45',
    'table poly-bernoulli --n 8 --k 2 --r 2 --lambda symbolic --format json': 'c3b023dd8b5536a9',
    'poly poly-bernoulli --n 4 --k -1 --r 3 --lambda symbolic --format json': 'ee6fe9519e22de4c',
    'table poly-bernoulli --n 8 --k 2 --r 2 --lambda symbolic --format csv': 'c2bff18f4c345e93',
    'poly poly-bernoulli --n 4 --k -1 --r 3 --lambda symbolic --format csv': '490f323f1c6bbcbd',
    'table poly-bernoulli --n 8 --k 2 --r 2 --lambda 1/2 --format text': '6a638b5624a3e645',
    'poly poly-bernoulli --n 4 --k -1 --r 3 --lambda 1/2 --format text': '2d8434d765d3ff45',
    'table poly-bernoulli --n 8 --k 2 --r 2 --lambda 1/2 --format json': '5f032364f600b7c9',
    'poly poly-bernoulli --n 4 --k -1 --r 3 --lambda 1/2 --format json': '0e7b84d0355a5238',
    'table poly-bernoulli --n 8 --k 2 --r 2 --lambda 1/2 --format csv': 'c2bff18f4c345e93',
    'poly poly-bernoulli --n 4 --k -1 --r 3 --lambda 1/2 --format csv': '490f323f1c6bbcbd',
    'table poly-bernoulli --n 8 --k 2 --r 2 --lambda 0 --format text': '6a638b5624a3e645',
    'poly poly-bernoulli --n 4 --k -1 --r 3 --lambda 0 --format text': '2d8434d765d3ff45',
    'table poly-bernoulli --n 8 --k 2 --r 2 --lambda 0 --format json': 'f95cfa2429c13c2f',
    'poly poly-bernoulli --n 4 --k -1 --r 3 --lambda 0 --format json': '65ff14a878a2544a',
    'table poly-bernoulli --n 8 --k 2 --r 2 --lambda 0 --format csv': 'c2bff18f4c345e93',
    'poly poly-bernoulli --n 4 --k -1 --r 3 --lambda 0 --format csv': '490f323f1c6bbcbd',
    'table poly-bernoulli --n 8 --k 2 --r 2 --lambda -3 --format text': '6a638b5624a3e645',
    'poly poly-bernoulli --n 4 --k -1 --r 3 --lambda -3 --format text': '2d8434d765d3ff45',
    'table poly-bernoulli --n 8 --k 2 --r 2 --lambda -3 --format json': 'd059dbde22ef0f95',
    'poly poly-bernoulli --n 4 --k -1 --r 3 --lambda -3 --format json': '4da7d495b41021b5',
    'table poly-bernoulli --n 8 --k 2 --r 2 --lambda -3 --format csv': 'c2bff18f4c345e93',
    'poly poly-bernoulli --n 4 --k -1 --r 3 --lambda -3 --format csv': '490f323f1c6bbcbd',
    'table poly-bernoulli --n 24 --k 3 --r 2': 'd95d75afd6dbc115',
    "eval 'li(3, 1-exp(-t))/(exp(t)-1)' --order 10": 'c0a8661d97e9a4f3',
    'table poly-bernoulli --n 24 --k -2 --r 3': '1fb5021fc91d1ae9',
    "eval 'li(-2, 1-exp(-t))/(exp(t)-1)' --order 10": '2c70d3feb72b35f3',
    'table dpb --n 8 --k 2 --r 2 --lambda symbolic --format text': '42d1241ed182d158',
    'poly dpb --n 4 --k -1 --r 3 --lambda symbolic --format text': '2cf9553d8f8ca20b',
    'table dpb --n 8 --k 2 --r 2 --lambda symbolic --format json': 'ccf98c71219a5f0a',
    'poly dpb --n 4 --k -1 --r 3 --lambda symbolic --format json': 'b6e25a1bff2576f8',
    'table dpb --n 8 --k 2 --r 2 --lambda symbolic --format csv': 'f689dce544062cfa',
    'poly dpb --n 4 --k -1 --r 3 --lambda symbolic --format csv': '8dcac3ec3937c811',
    'table dpb --n 8 --k 2 --r 2 --lambda 1/2 --format text': '1a1ec3201cb93c37',
    'poly dpb --n 4 --k -1 --r 3 --lambda 1/2 --format text': '1072079a050eceb3',
    'table dpb --n 8 --k 2 --r 2 --lambda 1/2 --format json': 'ce99c9f8f3fea41f',
    'poly dpb --n 4 --k -1 --r 3 --lambda 1/2 --format json': '865ac722b2adb6dd',
    'table dpb --n 8 --k 2 --r 2 --lambda 1/2 --format csv': '47694f30fbea5e56',
    'poly dpb --n 4 --k -1 --r 3 --lambda 1/2 --format csv': 'f8e1787a8b079b30',
    'table dpb --n 8 --k 2 --r 2 --lambda 0 --format text': '6a638b5624a3e645',
    'poly dpb --n 4 --k -1 --r 3 --lambda 0 --format text': '2d8434d765d3ff45',
    'table dpb --n 8 --k 2 --r 2 --lambda 0 --format json': 'd48c3369f6b8a394',
    'poly dpb --n 4 --k -1 --r 3 --lambda 0 --format json': '709db01846169326',
    'table dpb --n 8 --k 2 --r 2 --lambda 0 --format csv': 'c2bff18f4c345e93',
    'poly dpb --n 4 --k -1 --r 3 --lambda 0 --format csv': '490f323f1c6bbcbd',
    'table dpb --n 8 --k 2 --r 2 --lambda -3 --format text': 'aa69b242cc4becc8',
    'poly dpb --n 4 --k -1 --r 3 --lambda -3 --format text': 'a7011d5e90d008e9',
    'table dpb --n 8 --k 2 --r 2 --lambda -3 --format json': 'a4aeafe0cfba1cb4',
    'poly dpb --n 4 --k -1 --r 3 --lambda -3 --format json': 'b4b1e99d00f5e2bb',
    'table dpb --n 8 --k 2 --r 2 --lambda -3 --format csv': '3065ba0e5470a2a8',
    'poly dpb --n 4 --k -1 --r 3 --lambda -3 --format csv': 'a31e0b43e42501b0',
    'table dpb --n 24 --k 3 --r 2': '362a96590448bd5b',
    "eval 'li(3, 1-elam(-1))/(elam(1)-1)' --order 10": '04575560f4550024',
    'table dpb --n 24 --k -2 --r 3': 'f0fe42502603ae15',
    "eval 'li(-2, 1-elam(-1))/(elam(1)-1)' --order 10": '3607b9699ccfcd34',
    'table dpb-higher --n 8 --k 2 --r 2 --lambda symbolic --format text': 'faf883ca1e8f7e91',
    'poly dpb-higher --n 4 --k -1 --r 3 --lambda symbolic --format text': 'e94e19923ec21b35',
    'table dpb-higher --n 8 --k 2 --r 2 --lambda symbolic --format json': '43c0e564f570acf1',
    'poly dpb-higher --n 4 --k -1 --r 3 --lambda symbolic --format json': 'df0de43fc932375f',
    'table dpb-higher --n 8 --k 2 --r 2 --lambda symbolic --format csv': '2438b2bf5c772cd8',
    'poly dpb-higher --n 4 --k -1 --r 3 --lambda symbolic --format csv': '626c704c7d76965b',
    'table dpb-higher --n 8 --k 2 --r 2 --lambda 1/2 --format text': 'c21be9a5fc2d49a1',
    'poly dpb-higher --n 4 --k -1 --r 3 --lambda 1/2 --format text': 'fe6e8a8e91fe5673',
    'table dpb-higher --n 8 --k 2 --r 2 --lambda 1/2 --format json': 'b7e3a21c2c2b2760',
    'poly dpb-higher --n 4 --k -1 --r 3 --lambda 1/2 --format json': '01205081cdbd4896',
    'table dpb-higher --n 8 --k 2 --r 2 --lambda 1/2 --format csv': 'a4e941e3679b97c3',
    'poly dpb-higher --n 4 --k -1 --r 3 --lambda 1/2 --format csv': 'b91235c2d47ff91b',
    'table dpb-higher --n 8 --k 2 --r 2 --lambda 0 --format text': '5ea79c6aea2eec09',
    'poly dpb-higher --n 4 --k -1 --r 3 --lambda 0 --format text': 'afb987ef5373ad65',
    'table dpb-higher --n 8 --k 2 --r 2 --lambda 0 --format json': 'b4055151e50fa2cb',
    'poly dpb-higher --n 4 --k -1 --r 3 --lambda 0 --format json': '8a4cd0c8109e7ce6',
    'table dpb-higher --n 8 --k 2 --r 2 --lambda 0 --format csv': '89ea68afa5a85e89',
    'poly dpb-higher --n 4 --k -1 --r 3 --lambda 0 --format csv': 'aa50bbdab0c6f79a',
    'table dpb-higher --n 8 --k 2 --r 2 --lambda -3 --format text': '19c2b313ccdfe07c',
    'poly dpb-higher --n 4 --k -1 --r 3 --lambda -3 --format text': 'e314cbe18429b673',
    'table dpb-higher --n 8 --k 2 --r 2 --lambda -3 --format json': '5b3863106ffb65f9',
    'poly dpb-higher --n 4 --k -1 --r 3 --lambda -3 --format json': '3ab43e2065ffe6e0',
    'table dpb-higher --n 8 --k 2 --r 2 --lambda -3 --format csv': '9422a857f4feee62',
    'poly dpb-higher --n 4 --k -1 --r 3 --lambda -3 --format csv': 'f06e55dc559e4c0c',
    'table dpb-higher --n 24 --k 3 --r 2': 'e019bf7936d86277',
    "eval '(li(3, 1-elam(-1))/(elam(1)-1))^2' --order 10": '49466f637b7a2f91',
    'table dpb-higher --n 24 --k -2 --r 3': '945f3ff92021020c',
    "eval '(li(-2, 1-elam(-1))/(elam(1)-1))^3' --order 10": '2f12359775e46869',
    'verify eq5': '7f6508cb02132e1a',
    'verify eq17': 'e571d2cc33f33a87',
    'verify eq18': '73568f87251ff7fb',
    'verify thm1': '78112d62e3093d99',
    'verify thm2': '67ed53b699fff82b',
    'verify thm3': '3b67b021959ead42',
    'verify thm4': '3310297b13a28c7b',
    'verify remark': '5893fa846bf82666',
    'verify sheffer16': '8a053d138e8ded61',
    'verify sheffer23': 'c6949a07898532ec',
    'verify k0': 'd0196cee2ef7dbd4',
    'verify lambda0': '6f9ca31611388c5c',
    'verify stirling1': 'fdc4294799a4d5f6',
    'verify kaneko': '7bacf75e8e59d98b',
    'verify eq17 --lambda 1/2 --format json': '78a6cdaa4f427212',
    'verify eq17 --lambda 0 --format json': '3acacd9d1760aeb2',
    'verify eq17 --lambda -3 --format json': 'd1aaec57d00e9f4b',
    'verify eq18 --lambda 1/2 --format json': 'a760e840924c3ce7',
    'verify eq18 --lambda 0 --format json': 'a527006a93d1b705',
    'verify eq18 --lambda -3 --format json': '78fe7f1ba92c34c5',
    'verify thm2 --lambda 1/2 --format json': '5d18576087380520',
    'verify thm2 --lambda 0 --format json': '8598f9ee2d82f321',
    'verify thm2 --lambda -3 --format json': 'ff1f3b431f8f572d',
    'verify thm3 --lambda 1/2 --format json': '227509df3de5839f',
    'verify thm3 --lambda 0 --format json': '52feb75c45e85b1d',
    'verify thm3 --lambda -3 --format json': 'f54c4ebf5e324af2',
    'verify k0 --lambda 1/2 --format json': '256927681c2619b2',
    'verify k0 --lambda 0 --format json': '21c4dcad5a8e7c11',
    'verify k0 --lambda -3 --format json': '236e5d0bd3645d45',
    'verify sheffer16 --lambda 1/2 --format json': '6fdab1c496075f96',
    'verify sheffer16 --lambda 0 --format json': '17638572fb59106a',
    'verify sheffer16 --lambda -3 --format json': 'a10b0ebd2df936eb',
    'verify sheffer23 --lambda 1/2 --format json': '229c5da7c22d4403',
    'verify sheffer23 --lambda 0 --format json': 'd1114d0869819587',
    'verify sheffer23 --lambda -3 --format json': 'aae5d8bba943ecba',
    'verify stirling1 --lambda 1/2 --format json': '2384f0a93fae8d71',
    'verify stirling1 --lambda 0 --format json': 'ed20c2c2067a6d48',
    'verify stirling1 --lambda -3 --format json': 'b9e8a1a9ca7691f2',
    'verify eq17 --k -1 --n 6 --format text': 'e571d2cc33f33a87',
    "verify 't*exp(t) == t + t^2' --order 4 --format text": '20c97595b46f3160',
    'verify eq17 --k -1 --n 6 --format json': 'b3e36b4d77b67503',
    "verify 't*exp(t) == t + t^2' --order 4 --format json": '040bcae74f2fa8ea',
    'verify eq17 --k -1 --n 6 --format csv': '49b213adaa713aaa',
    "verify 't*exp(t) == t + t^2' --order 4 --format csv": '036258f1cda94d8f',
    'table daehee --n 4': 'e02a621a5a672db4',
    'table carlitz --n 3 --lambda 0': '23c01ff3f776099f',
    'poly dpb --k 2 --n 1': 'a2a0455e4b1f6b23',
    "eval 't/(elam(1)-1)' --order 3": 'c0b18a471d9e3365',
    'verify remark --k 2 --r 3 --n 10': '5893fa846bf82666',
    "verify 'li(1, 1-elam(-1)) == log(1+lambda*t)/lambda' --order 12": 'e3ea98bcf6efe426',
    'table dpb --k -1 --n 12 --format text --lambda symbolic': '03ffd2ae491be43f',
    'table dpb --k 2 --n 12 --format text --lambda symbolic': 'a7ffc4a1fd97f04c',
    'table dpb-higher --k 1 --r 2 --n 10 --format text --lambda symbolic': '87cbc4619c308a19',
    'table carlitz --n 16 --format text --lambda symbolic': '36a9e77c7a064c81',
    'table poly-bernoulli --k 3 --n 24 --format text --lambda symbolic': 'd95d75afd6dbc115',
    'poly dpb --k 2 --n 8 --format text --lambda symbolic': '2d8a1a467b4b6bc7',
    'poly carlitz --n 10 --format text --lambda symbolic': '3dfd4dc316fe9c43',
    "eval 'li(-1,1-elam(-1))/(elam(1)-1)' --order 10 --format text --lambda symbolic": 'aafb3f648474a85a',
    'table dpb --k -1 --n 12 --format text --lambda 1/2': 'cc135f4c48166269',
    'table dpb --k 2 --n 12 --format text --lambda 1/2': 'd752af01bef1cbbd',
    'table dpb-higher --k 1 --r 2 --n 10 --format text --lambda 1/2': 'b894d85741498e04',
    'table carlitz --n 16 --format text --lambda 1/2': '163152a7eb39df44',
    'table poly-bernoulli --k 3 --n 24 --format text --lambda 1/2': 'd95d75afd6dbc115',
    'poly dpb --k 2 --n 8 --format text --lambda 1/2': 'fdf772d0ef48f54f',
    'poly carlitz --n 10 --format text --lambda 1/2': '0f02f9635dcb9419',
    "eval 'li(-1,1-elam(-1))/(elam(1)-1)' --order 10 --format text --lambda 1/2": 'eee76d49eb4a6749',
    'table dpb --k -1 --n 12 --format text --lambda -3': '02018bdcbe8343cb',
    'table dpb --k 2 --n 12 --format text --lambda -3': '7f87a6cb92b6e0c6',
    'table dpb-higher --k 1 --r 2 --n 10 --format text --lambda -3': '8df1a85d6c83f5a7',
    'table carlitz --n 16 --format text --lambda -3': 'e64596b7310cae17',
    'table poly-bernoulli --k 3 --n 24 --format text --lambda -3': 'd95d75afd6dbc115',
    'poly dpb --k 2 --n 8 --format text --lambda -3': '323933dc398c5047',
    'poly carlitz --n 10 --format text --lambda -3': '1c3109fae1f5f83e',
    "eval 'li(-1,1-elam(-1))/(elam(1)-1)' --order 10 --format text --lambda -3": '20aeba95db326c27',
    "eval 't/(exp(t)-1)' --order 12 --format text": '7d592e148a30c96d',
    "eval 'log(1+t)/t' --order 12 --format text": '7a7f4dfb64cc22e4',
    "eval 'li(2,1-exp(-t))/(exp(t)-1)' --order 12 --format text": '64d422b37926e042',
    "eval 't/(elam(1)-1)' --order 12 --format text": '75a4ce33cb3705eb',
    "eval 'li(-1,1-elam(-1))/(elam(1)-1)' --order 12 --format text": 'a6c73f0d768942e2',
    'verify eq17 --k 2 --r 2 --n 6 --format text': 'e571d2cc33f33a87',
    'verify thm1 --k 2 --r 2 --n 6 --format text': '78112d62e3093d99',
    'verify thm4 --k 2 --r 2 --n 6 --format text': '3310297b13a28c7b',
    'verify sheffer23 --k 2 --r 2 --n 6 --format text': 'c6949a07898532ec',
    'table dpb --k -1 --n 12 --format json --lambda symbolic': '14b7d6b1fc2d7dac',
    'table dpb --k 2 --n 12 --format json --lambda symbolic': 'e7b34e695de2aefc',
    'table dpb-higher --k 1 --r 2 --n 10 --format json --lambda symbolic': 'ee95bbadef8b5961',
    'table carlitz --n 16 --format json --lambda symbolic': '7db27bb33b5b6db9',
    'table poly-bernoulli --k 3 --n 24 --format json --lambda symbolic': '898b7e9fa4466d7f',
    'poly dpb --k 2 --n 8 --format json --lambda symbolic': '44797db8686a9ec5',
    'poly carlitz --n 10 --format json --lambda symbolic': 'af1151b18714e681',
    "eval 'li(-1,1-elam(-1))/(elam(1)-1)' --order 10 --format json --lambda symbolic": 'b586b4f9953b6a1f',
    'table dpb --k -1 --n 12 --format json --lambda 1/2': '8c68b3a009c5f032',
    'table dpb --k 2 --n 12 --format json --lambda 1/2': 'ec94eee29fbe10dc',
    'table dpb-higher --k 1 --r 2 --n 10 --format json --lambda 1/2': '12d13c4418025a3f',
    'table carlitz --n 16 --format json --lambda 1/2': '3fc879e209268dba',
    'table poly-bernoulli --k 3 --n 24 --format json --lambda 1/2': '7bf5ffc94c10345e',
    'poly dpb --k 2 --n 8 --format json --lambda 1/2': '4b5572085a5fe794',
    'poly carlitz --n 10 --format json --lambda 1/2': '39fdc8197cb3a52f',
    "eval 'li(-1,1-elam(-1))/(elam(1)-1)' --order 10 --format json --lambda 1/2": '541f5587fe19712c',
    'table dpb --k -1 --n 12 --format json --lambda -3': '14c07e17d7fdcbaf',
    'table dpb --k 2 --n 12 --format json --lambda -3': 'd27b7120fea8a420',
    'table dpb-higher --k 1 --r 2 --n 10 --format json --lambda -3': 'c3f9af5018bf53eb',
    'table carlitz --n 16 --format json --lambda -3': '88746957238fccd2',
    'table poly-bernoulli --k 3 --n 24 --format json --lambda -3': 'dcc340d1fe0bea8d',
    'poly dpb --k 2 --n 8 --format json --lambda -3': '2228dfdfaca83c7c',
    'poly carlitz --n 10 --format json --lambda -3': '3fc5327fbd7dde1c',
    "eval 'li(-1,1-elam(-1))/(elam(1)-1)' --order 10 --format json --lambda -3": '4125367d0434d94f',
    "eval 't/(exp(t)-1)' --order 12 --format json": '0614bb71bfe7783e',
    "eval 'log(1+t)/t' --order 12 --format json": '148427a112119556',
    "eval 'li(2,1-exp(-t))/(exp(t)-1)' --order 12 --format json": 'ab6dad9fbc0b2130',
    "eval 't/(elam(1)-1)' --order 12 --format json": '6f1c7aae87dc301e',
    "eval 'li(-1,1-elam(-1))/(elam(1)-1)' --order 12 --format json": 'a48746d7d415a02f',
    'verify eq17 --k 2 --r 2 --n 6 --format json': '16f8d15c13acf18e',
    'verify thm1 --k 2 --r 2 --n 6 --format json': '82eaedd117936964',
    'verify thm4 --k 2 --r 2 --n 6 --format json': 'c49af59ffcebb6a7',
    'verify sheffer23 --k 2 --r 2 --n 6 --format json': '3e9ce6d070afc1e7',
    'table dpb --k -1 --n 12 --format csv --lambda symbolic': 'e4a86b2cf6caf359',
    'table dpb --k 2 --n 12 --format csv --lambda symbolic': '86697a1ec479a13f',
    'table dpb-higher --k 1 --r 2 --n 10 --format csv --lambda symbolic': 'bea47a4c605210b7',
    'table carlitz --n 16 --format csv --lambda symbolic': '83f701ab2eecfb89',
    'table poly-bernoulli --k 3 --n 24 --format csv --lambda symbolic': '76f2a4ebbde2912b',
    'poly dpb --k 2 --n 8 --format csv --lambda symbolic': '89b41761008ec7c3',
    'poly carlitz --n 10 --format csv --lambda symbolic': 'c4b670bf6966f2ab',
    "eval 'li(-1,1-elam(-1))/(elam(1)-1)' --order 10 --format csv --lambda symbolic": '10d3e52819fc7182',
    'table dpb --k -1 --n 12 --format csv --lambda 1/2': '958a49e09daa980f',
    'table dpb --k 2 --n 12 --format csv --lambda 1/2': '9c85078ce579c48b',
    'table dpb-higher --k 1 --r 2 --n 10 --format csv --lambda 1/2': '8b2eb58b8c88502a',
    'table carlitz --n 16 --format csv --lambda 1/2': 'e3f4460424ac108b',
    'table poly-bernoulli --k 3 --n 24 --format csv --lambda 1/2': '76f2a4ebbde2912b',
    'poly dpb --k 2 --n 8 --format csv --lambda 1/2': '3c93a694a2e3507a',
    'poly carlitz --n 10 --format csv --lambda 1/2': '6b059cd8f7b7abda',
    "eval 'li(-1,1-elam(-1))/(elam(1)-1)' --order 10 --format csv --lambda 1/2": '7164d172f13f9a32',
    'table dpb --k -1 --n 12 --format csv --lambda -3': '1e6520664606bc3e',
    'table dpb --k 2 --n 12 --format csv --lambda -3': '40c22aacd570ac52',
    'table dpb-higher --k 1 --r 2 --n 10 --format csv --lambda -3': '016787e16ed063c8',
    'table carlitz --n 16 --format csv --lambda -3': 'bf96a744ce94312a',
    'table poly-bernoulli --k 3 --n 24 --format csv --lambda -3': '76f2a4ebbde2912b',
    'poly dpb --k 2 --n 8 --format csv --lambda -3': '869777a894a49724',
    'poly carlitz --n 10 --format csv --lambda -3': '6a6f2210dd6afadf',
    "eval 'li(-1,1-elam(-1))/(elam(1)-1)' --order 10 --format csv --lambda -3": 'df4dc3f39a88d109',
    "eval 't/(exp(t)-1)' --order 12 --format csv": '703fc06ffd8c6776',
    "eval 'log(1+t)/t' --order 12 --format csv": '42fa7e503e0deb9a',
    "eval 'li(2,1-exp(-t))/(exp(t)-1)' --order 12 --format csv": '5eab36d206027d3f',
    "eval 't/(elam(1)-1)' --order 12 --format csv": 'fa105496b22b0262',
    "eval 'li(-1,1-elam(-1))/(elam(1)-1)' --order 12 --format csv": '401bdb7211149575',
    'verify eq17 --k 2 --r 2 --n 6 --format csv': '49b213adaa713aaa',
    'verify thm1 --k 2 --r 2 --n 6 --format csv': 'f65d98895139e678',
    'verify thm4 --k 2 --r 2 --n 6 --format csv': '8db4c6b23678b64b',
    'verify sheffer23 --k 2 --r 2 --n 6 --format csv': '0a7a07418e337ac7',
    'table dpb --n 5': '9f29224cd290999d',
    'table poly-bernoulli --k 3 --n 40': '0ea6e91ba9069cff',
    'eval 1+': '21def45574d92a98',
    "eval 'log(t)'": '94bfd8e487d42156',
    'verify nosuch': '0f076e11e5f33158',
    'poly daehee --n 3': 'b147aacfc7bed6dc',
    'table dpb-higher --k 1 --r 0 --n 4': '31a407bada4493f0',
    'table fibonacci --n 3': '7bfd8779a2e214fb',
    'table dpb --n 3': '9f29224cd290999d',
    'table daehee': '7280af60e95d27f6',
    'poly daehee --n 2': 'b147aacfc7bed6dc',
    'table daehee --n 40 --order 8': '4914a31b1d4d55e2',
    'frobnicate': 'c0c0484f438d05cf',
    'eval 0/0': '23ef673115aaf94b',
    "eval 'elam(1/0)'": 'c5dbb0a1a966885a',
    "eval 'li(2,t)' --order 0": 'f0a04a16937e2a59',
    'verify t==t --order 0': 'f0a04a16937e2a59',
    'verify thm1 --n -1': '88bff633eb4db8a8',
    'verify lambda0 --order 1': '6c5bccb0f9df45e2',
    'verify lambda0 --n 5 --order 3': 'fb7275865d0a5d57',
    "eval '²'": 'da0e3bc6b3992170',
    'table poly-bernoulli --k 99999999 --n 3': '19d98d7d2852edf6',
    "eval 'li(99999999, t)' --order 4": '11434de50aeb2ff1',
    'verify remark --r 1000000000 --n 4': 'd06a7c1907bb8136',
    "eval 'exp(t)' --order 100000000": 'cd6c8750cc5abf69',
    'verify t==t --order 100000000': 'cd6c8750cc5abf69',
    'table daehee --n 129 --order 129': '248da554d6193dde',
    "eval '99999999...<5000 chars>' --order 2": 'da9440ecbe97f5bd',
}


def test_every_corpus_argv_matches_its_recorded_digest(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
    corpus = {label(argv): argv for argv in argvs()}
    assert len(corpus) == len(argvs())
    changed = [name for name, argv in corpus.items() if DIGESTS.get(name) != run(argv)]
    assert not changed, "output changed for: " + "; ".join(changed)
    assert not set(DIGESTS) - set(corpus), "stale corpus entries"


if __name__ == "__main__":
    import os

    os.environ["COLUMNS"] = "80"
    print("DIGESTS = {")
    for argv in argvs():
        print(f"    {label(argv)!r}: {run(argv)!r},")
    print("}")
