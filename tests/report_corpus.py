"""The byte-identity corpus: seeded CLI inputs and the digest of each report.

``tests/data/report_digests.json`` lists cases.  A case is an argv whose
``@i`` arguments name input files, the files themselves, the exit code and
the SHA-256 of the canonical report (the printed JSON with ``wall_time_s``
removed).  ``tests/data/report_texts.json.xz`` holds the canonical reports,
so a mismatch can show the expected report next to the new one.

A file is either literal JSON or ``{"module_of": descriptor}`` plus an
optional ``"tamper": [generator, row, col, value]``: the ``module`` payload
of ``construct`` on that descriptor, with one entry replaced.

Regenerate both files, on purpose only, with::

    PYTHONPATH=src python tests/report_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import lzma
import random
import sys
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "report_digests.json"
TEXTS = DATA / "report_texts.json.xz"

XTYPES = ("DS", "DDa", "DDb", "SSa", "SSb")
MODULE_QS = (2, 3, -2)
# case row -> (d' - d, q-exponents of a'/a, b'/b, c'/c)
CASE_ROWS = {"i": (-2, (0, 0, 0)), "ii": (-1, (1, 1, 1)), "iii": (0, (2, 0, 0)),
             "iv": (0, (0, 2, 0)), "v": (0, (0, 0, 2)), "vi": (1, (-1, -1, -1)),
             "vii": (2, (0, 0, 0))}
PRIMES = (3, 5, 7, 11, 13)
SIGNS = ((), ("--sign", "plus"), ("--sign", "minus"))


def _json(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _module_cases(rng: random.Random) -> list[dict]:
    """construct, verify and extract on one sampled descriptor per
    (X-type, n <= 9, q); extract also on the descriptor itself for q = 2."""
    from dahalink.daha import XType, sample_params
    from dahalink.exactfield import QQ

    cases = []
    for xtype in XTYPES:
        for n in range(0 if xtype == "DS" else 1, 10, 2):
            for q in MODULE_QS:
                params = sample_params(rng, XType(xtype), n, QQ.rational(q))
                if params is None:
                    continue
                desc = {"xtype": xtype, "n": n, "q": q,
                        "k": [_json(k.rat) for k in params.k]}
                module = {"module_of": desc}
                cases.append({"argv": ["construct", "@0"], "files": [desc]})
                cases.append({"argv": ["verify", "@0"], "files": [module]})
                cases.append({"argv": ["extract", "@0"], "files": [module]})
                if q == 2:
                    cases.append({"argv": ["extract", "@0"], "files": [desc]})
                if n in (3, 4) and q == 3:
                    gen = rng.randrange(4)
                    tampered = dict(module, tamper=[gen, rng.randrange(n + 1),
                                                    rng.randrange(n + 1), 99])
                    for command in ("verify", "extract"):
                        cases.append({"argv": [command, "@0"], "files": [tampered]})
    # invalid descriptors, and the DS module over Q(sqrt 2)
    sqrt2 = lambda c: {"rat": "0", "irr": c, "disc": 2}
    for desc in ({"xtype": "DS", "n": 2, "q": 2, "k": [3, 5, 7, 11]},
                 {"xtype": "DDa", "n": 2, "q": 2, "k": ["1/4", 3, 7, 5]},
                 {"xtype": "SSb", "n": 3, "q": 2, "k": [3, 5, 7, 11]},
                 {"xtype": "DS", "n": 4, "q": 2, "k": [sqrt2("1"), 1, 3, sqrt2("1/192")]}):
        for command in ("construct", "verify", "extract"):
            cases.append({"argv": [command, "@0"], "files": [desc]})
    return cases


def _huang_pairs(rng: random.Random) -> list[tuple[bool, dict, dict]]:
    """(every sign, h1, h2) at q = 2: partners of every case row, near-misses
    with one scalar of the first datum moved to a power of q, then unrelated
    and inadmissible pairs.  "every sign" marks the partners of the DS rows
    ii and vi, where ``--sign`` picks a square root, and the pairs that do
    not link."""
    q = Fraction(2)
    scalar = lambda p: Fraction(p) if rng.random() < 0.5 else Fraction(1, p)
    huang = lambda a, b, c, d: {"a": _json(a), "b": _json(b), "c": _json(c), "d": d, "q": 2}
    pairs = []
    for case, (delta, exps) in CASE_ROWS.items():
        for d in range(max(0, -delta), 3 + max(0, -delta)):
            for near in (None, "a", "b", "c"):
                a, b, c = (scalar(p) for p in rng.sample(PRIMES, 3))
                if near is not None:
                    if d == 0 or case in ("i", "vii"):
                        continue
                    vals = {"a": a, "b": b, "c": c}
                    vals[near] = q ** rng.choice((-2 * d, 2 * d, -1, 1))
                    a, b, c = vals["a"], vals["b"], vals["c"]
                a2, b2, c2 = (v * q ** e for v, e in zip((a, b, c), exps))
                every = near is None and case in ("ii", "vi")
                pairs.append((every, huang(a, b, c, d), huang(a2, b2, c2, d + delta)))
    for _ in range(6):
        p = [scalar(x) for x in rng.sample(PRIMES, 5)] + [Fraction(17)]
        pairs.append((True, huang(*p[:3], rng.randrange(3)), huang(*p[3:], rng.randrange(3))))
    # inadmissible: a^2 = q^(2d - 2)
    two, three, five = Fraction(2), Fraction(3), Fraction(5)
    pairs.append((True, huang(two, three, five, 2), huang(two, three, five, 0)))
    return pairs


def _link_cases(rng: random.Random) -> list[dict]:
    """``link``, and ``link --construct`` under every ``--sign`` mode or one
    in turn, in both orders; then ``check-huang``."""
    cases = []
    for j, (every, h1, h2) in enumerate(_huang_pairs(rng)):
        for files in ([h1, h2], [h2, h1]):
            cases.append({"argv": ["link", "@0", "@1"], "files": files})
            for sign in SIGNS if every else [SIGNS[j % 3]]:
                cases.append({"argv": ["link", "@0", "@1", "--construct", *sign],
                              "files": files})
        cases.append({"argv": ["check-huang", "@0"], "files": [h1]})
        cases.append({"argv": ["check-huang", "@0", "@1"], "files": [h1, h2]})
    return cases


def corpus_cases(seed: int = 16) -> list[dict]:
    rng = random.Random(seed)
    return _module_cases(rng) + _link_cases(rng)


def _materialize(spec: dict, path: Path, modules: dict) -> None:
    """Write one input file; ``modules`` holds the module of each descriptor
    that ``construct`` has built in this run."""
    if "module_of" in spec:
        key = json.dumps(spec["module_of"], sort_keys=True)
        if key not in modules:
            _run(["construct", "@0"], [spec["module_of"]], path.parent, modules)
        module = json.loads(modules[key])
        if "tamper" in spec:
            gen, i, j, value = spec["tamper"]
            module["t"][gen]["entries"][i][j] = value
        spec = module
    path.write_text(json.dumps(spec))


def _run(argv: list[str], files: list[dict], workdir: Path,
         modules: dict) -> tuple[int, str]:
    """The exit code and canonical report of one case, run in-process."""
    from dahalink.cli import main

    paths = []
    for i, spec in enumerate(files):
        paths.append(workdir / f"{len(argv)}-{i}.json")
        _materialize(spec, paths[-1], modules)
    args = [str(paths[int(a[1:])]) if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    report = json.loads(out.getvalue())
    report.pop("wall_time_s", None)
    if argv[0] == "construct" and "module" in report:
        modules.setdefault(json.dumps(files[0], sort_keys=True), json.dumps(report["module"]))
    return code, json.dumps(report, indent=2)


def run_case(case: dict, workdir: Path, modules: dict) -> tuple[int, str, str]:
    """(exit code, canonical report, its SHA-256) of a corpus case; pass one
    ``modules`` dict to every case of a run, so each module is built once."""
    code, text = _run(case["argv"], case["files"], workdir, modules)
    return code, text, hashlib.sha256(text.encode()).hexdigest()


def load() -> tuple[list[dict], list[str]]:
    cases = json.loads(DIGESTS.read_text())["cases"]
    with lzma.open(TEXTS, "rt") as fh:
        texts = json.load(fh)
    return cases, texts


def main() -> None:
    import tempfile

    cases, texts, modules = corpus_cases(), [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            case["code"], text, case["sha256"] = run_case(case, Path(tmp), modules)
            texts.append(text)
    DATA.mkdir(exist_ok=True)
    DIGESTS.write_text('{"cases": [\n' + ",\n".join(json.dumps(c) for c in cases) + "\n]}\n")
    with lzma.open(TEXTS, "wt", preset=9) as fh:
        json.dump(texts, fh)
    codes = {}
    for case in cases:
        codes[case["code"]] = codes.get(case["code"], 0) + 1
    print(f"{len(cases)} reports, exit codes {dict(sorted(codes.items()))}", file=sys.stderr)


if __name__ == "__main__":
    main()
