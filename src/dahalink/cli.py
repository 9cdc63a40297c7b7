"""Command line interface: JSON in, JSON out, deterministic reports.

Subcommands
    construct   build a module from a descriptor file and verify it
    verify      re-run the relation checks on a module (or descriptor) file
    extract     restricted Leonard pairs and Huang data of a module file
    link        decide the linked relation between two Huang data files
    check-huang admissibility (and equivalence, given two files)
    suite       randomized property battery over all five X-types

Exit codes: 0 success, 1 parse error, 2 validation/verification failure,
3 not linked, 4 infeasible module.

File formats (all field elements are exact: ints, "p/q" strings, or
{"rat": "p/q", "irr": "p/q", "disc": D} objects):

    descriptor   {"xtype": "DDa", "n": 3, "q": 2, "k": ["1/4", 3, 7, 5]}
    module       descriptor plus "mu" and "t" (four matrices), as emitted
                 by ``construct``
    huang        {"a": 3, "b": 5, "c": 7, "d": 2, "q": 2}
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .exactfield import FieldContext, FieldElement, QQ, _json_int
from .exactlinalg import ExactMatrix
from .leonard import (
    HuangData,
    VerificationError,
    build_pair_from_huang,
    check_huang_admissible,
    huang_data_from_array,
    huang_equivalent,
    parameter_arrays,
)
from .daha import (
    MAX_N,
    Check,
    HqModule,
    HqParams,
    LinkError,
    Report,
    XType,
    _construct_from,
    _restricted_halves,
    build_module,
    derived_elements,
    eigenvalue_ladder,
    link_check,
    restricted_leonard_pairs,
    sample_params,
    twist,
    validate_params,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_NO_LINK = 3
EXIT_INFEASIBLE = 4


class CliParseError(Exception):
    """Bad arguments, unreadable files, or malformed JSON."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise CliParseError(message)


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:     # past the int digit limit, too deep
        raise CliParseError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliParseError(f"{path}: expected a JSON object")
    return data


def _field(value: object, what: str, ctx: Optional[FieldContext] = None) -> FieldElement:
    try:
        return FieldElement.from_json(value, ctx)
    except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
        raise CliParseError(f"cannot parse {what}: {exc}") from exc


def _unwrap_module(data: dict) -> dict:
    """Accept a report produced by ``construct``/``link --out`` wherever a
    module or descriptor file is expected, by descending into its
    "module" payload."""
    if "xtype" not in data and isinstance(data.get("module"), dict):
        return data["module"]
    return data


def _parse_descriptor(data: dict) -> tuple[XType, int, FieldElement, tuple]:
    try:
        xtype = XType(data["xtype"])
        n = _json_int(data["n"])
        kraw = data["k"]
        if not isinstance(kraw, list) or len(kraw) != 4:
            raise ValueError("k must be a list of four elements")
    except (KeyError, ValueError, TypeError) as exc:
        raise CliParseError(f"bad descriptor: {exc}") from exc
    q, *k = _fields([("q", data.get("q"))] + [(f"k{i}", x) for i, x in enumerate(kraw)])
    return xtype, n, q, tuple(k)


def _fields(items: Sequence[tuple[str, object]]) -> list[FieldElement]:
    """The named elements; the first with a discriminant fixes the field of the rest."""
    ctx, out = None, []
    for what, value in items:
        out.append(_field(value, what, ctx))
        ctx = out[-1].ctx if out[-1].ctx.disc != 1 else ctx
    return out


def _parse_huang(path: str) -> tuple[HuangData, FieldElement]:
    data = _load_json(path)
    try:
        d = _json_int(data["d"])
    except (KeyError, ValueError, TypeError) as exc:
        raise CliParseError(f"{path}: bad diameter: {exc}") from exc
    abc = _fields([("a", data.get("a")), ("b", data.get("b")), ("c", data.get("c", 1))])
    q = _field(data.get("q"), "q")
    try:
        return HuangData(*abc, d), q
    except ValueError as exc:
        raise CliParseError(f"{path}: {exc}") from exc


def _module_from_json(data: dict) -> tuple[HqModule, Report]:
    """A module from a descriptor or full module file, with its verification
    report.  Provided matrices are used as-is (and so genuinely verified);
    a bare descriptor is rebuilt through the standard construction."""
    xtype, n, q, k = _parse_descriptor(data)
    bad = validate_params(xtype, n, k, q)
    if bad:
        raise ValueError("; ".join(f"{xtype.value} {b}" for b in bad))
    if "t" not in data:
        module = build_module(xtype, n, k, q)
        return module, _with_ladder_check(module, module.relations)
    mu = eigenvalue_ladder(xtype, n, k, q)
    params = HqParams(q, n, k)
    ctx = params.ctx
    try:
        t = tuple(ExactMatrix.from_json(md, ctx) for md in data["t"])
    except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
        raise CliParseError(f"bad generator matrices: {exc}") from exc
    if any(m.shape != (n + 1, n + 1) for m in t) or len(t) != 4:
        raise ValueError("generator matrices must be four (n+1)x(n+1) blocks")
    module = HqModule(params, xtype, t, mu)
    return module, _with_ladder_check(module, module.relations)


def _with_ladder_check(module: HqModule, report: Report) -> Report:
    ok = module.x_diagonal_ladder
    residual = None if ok else module.X - ExactMatrix.diagonal(module.ctx, module.mu)
    return Report(report.checks + (Check("X-diagonal-ladder", ok, residual),))


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2)
    print(text)
    if out:
        Path(out).write_text(text + "\n")


def _finish(command: str, payload: dict, checks: Sequence[Check],
            started: float, out: Optional[str], code: int) -> int:
    body = {"command": command}
    body.update(payload)
    body["checks"] = [c.to_json() for c in checks]
    body["wall_time_s"] = round(time.perf_counter() - started, 6)
    _emit(body, out)
    return code


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_construct(args: argparse.Namespace, started: float) -> int:
    data = _unwrap_module(_load_json(args.descriptor))
    xtype, n, q, k = _parse_descriptor(data)
    bad = validate_params(xtype, n, k, q)
    if bad:
        payload = {"error": "parameter validation failed",
                   "violations": [f"{xtype.value} {b}" for b in bad]}
        return _finish("construct", payload, [], started, args.out,
                       EXIT_VALIDATION)
    module = build_module(xtype, n, k, q)
    report = _with_ladder_check(module, module.relations)
    code = EXIT_OK if report.ok else EXIT_VALIDATION
    return _finish("construct", {"module": module.to_json()}, report.checks,
                   started, args.out, code)


def cmd_verify(args: argparse.Namespace, started: float) -> int:
    data = _unwrap_module(_load_json(args.module))
    module, report = _module_from_json(data)
    code = EXIT_OK if report.ok else EXIT_VALIDATION
    return _finish("verify", {"descriptor": module.descriptor()},
                   report.checks, started, args.out, code)


def cmd_extract(args: argparse.Namespace, started: float) -> int:
    data = _unwrap_module(_load_json(args.module))
    module, report = _module_from_json(data)
    if not report.ok:
        return _finish("extract", {"error": "module verification failed"},
                       report.checks, started, args.out, EXIT_VALIDATION)
    feasible, feas_report = module.feasibility
    if not feasible:
        payload = {"error": "module is not feasible",
                   "failed": feas_report.failures()}
        return _finish("extract", payload, feas_report.checks, started,
                       args.out, EXIT_INFEASIBLE)
    halves = _restricted_halves(module)
    (_, h_plus, _), (_, h_minus, _) = halves
    q = module.params.q
    payload = {
        "huang_plus": dict(h_plus.to_json(), q=q.to_json()),
        "huang_minus": dict(h_minus.to_json(), q=q.to_json()),
    }
    # the generic Huang data, from the restricted bidiagonals, against the closed forms
    agree = all(g is not None and huang_equivalent(g, h) for _, h, g in halves)
    checks = list(feas_report.checks) + [Check("huang-dual-route-agreement", agree)]
    return _finish("extract", payload, checks, started, args.out,
                   EXIT_OK if agree else EXIT_VALIDATION)


def cmd_link(args: argparse.Namespace, started: float) -> int:
    h, q = _parse_huang(args.huang)
    h2, q2 = _parse_huang(args.huang2)
    if q != q2:
        raise ValueError("the two Huang files carry different q values")
    witnesses = link_check(h, h2, q)
    payload: dict = {"cases": [w.to_json() for w in witnesses]}
    if not witnesses:
        payload["error"] = "not linked"
        return _finish("link", payload, [], started, args.out, EXIT_NO_LINK)
    checks = [Check("linked", True)]
    if args.construct:
        lc = _construct_from(h, h2, q, args.sign, witnesses)
        payload["module"] = lc.module.to_json()
        payload["case_used"] = lc.case.to_json()
        payload["exchanged"] = lc.exchanged
        payload["extracted"] = {
            "huang_plus": dict(lc.plus.to_json(), q=q.to_json()),
            "huang_minus": dict(lc.minus.to_json(), q=q.to_json()),
        }
        checks.append(Check("extraction-reproduces-inputs", lc.reproduced))
    code = EXIT_OK if all(c.passed for c in checks) else EXIT_VALIDATION
    return _finish("link", payload, checks, started, args.out, code)


def cmd_check_huang(args: argparse.Namespace, started: float) -> int:
    h, q = _parse_huang(args.huang)
    adm = check_huang_admissible(h, q)
    payload: dict = {"admissible": adm}
    checks = [Check("admissible", adm)]
    if args.huang2:
        h2, q2 = _parse_huang(args.huang2)
        adm2 = check_huang_admissible(h2, q2)
        payload["admissible2"] = adm2
        payload["equivalent"] = huang_equivalent(h, h2)
        checks.append(Check("admissible2", adm2))
    ok = all(c.passed for c in checks)
    return _finish("check-huang", payload, checks, started, args.out,
                   EXIT_OK if ok else EXIT_VALIDATION)


def cmd_suite(args: argparse.Namespace, started: float) -> int:
    checks = run_suite(args.seed, args.max_n)
    ok = all(c.passed for c in checks)
    return _finish("suite", {"seed": args.seed, "max_n": args.max_n},
                   checks, started, args.out,
                   EXIT_OK if ok else EXIT_VALIDATION)


# ---------------------------------------------------------------------------
# The randomized property battery behind `suite`
# ---------------------------------------------------------------------------

def _sizes(xtype: XType, max_n: int) -> list[int]:
    start = 0 if xtype.even_n else 1
    return list(range(start, max_n + 1, 2))


def run_suite(seed: int, max_n: int) -> list[Check]:
    """The property battery: constructions, shape theorems, extraction
    agreement, twists, and link round trips on seeded random instances."""
    if max_n > MAX_N:
        raise ValueError(f"--max-n {max_n} exceeds the largest module size n = {MAX_N}")
    rng = random.Random(seed)
    qs = (QQ.rational(2), QQ.rational(3))
    checks: list[Check] = []
    sampled = built = feasible = extracted = linked = 0
    failures: list[str] = []
    feasible_types: set[XType] = set()
    twisted: set[XType] = set()
    for xtype in XType:
        for n in _sizes(xtype, max_n):
            for i in range(2):
                q = qs[(n + i) % 2]
                tag = f"{xtype.value}-n{n}-q{q.rat}-{i}"
                params = sample_params(rng, xtype, n, q)
                if params is None:
                    continue
                sampled += 1
                try:
                    module = build_module(xtype, n, params.k, q)
                    derived_elements(module)
                    built += 1
                    ok, _ = module.feasibility
                    if not ok:
                        continue
                    feasible += 1
                    feasible_types.add(xtype)
                    (_, hp), (_, hm) = restricted_leonard_pairs(module)
                    extracted += 1
                    if xtype not in twisted:
                        twist(module, "sigma")
                        twist(module, "rho")
                        twisted.add(xtype)
                    witnesses = link_check(hp, hm, q)
                    expect = xtype.row.case
                    if not any(w.case_id == expect for w in witnesses):
                        failures.append(f"{tag}: missing case {expect}")
                        continue
                    if not _construct_from(hp, hm, q, None, witnesses).reproduced:
                        failures.append(f"{tag}: synthesized module does not realize the inputs")
                        continue
                    linked += 1
                except Exception as exc:  # noqa: BLE001 - collected into the report
                    failures.append(f"{tag}: {exc}")
    checks.append(Check(f"modules-built ({built}/{sampled})",
                        sampled >= 1 and built == sampled))
    checks.append(Check(f"feasible-extractions ({extracted}/{feasible})",
                        extracted == feasible))
    checks.append(Check(f"link-round-trips ({linked}/{extracted})",
                        linked == extracted))
    checks.append(Check(
        f"twist-coverage ({len(twisted)}/{len(feasible_types)})",
        twisted == feasible_types))
    # Huang round trips through the Leonard-pair layer
    # (re-checks build_pair_from_huang on purpose: the CLI's only generic recognition)
    round_trips = 0
    rt_fail: list[str] = []
    pool = [3, 5, 7, 11, 13]
    for j in range(25):
        q = qs[j % 2]
        d = rng.randrange(0, 4)
        h = HuangData(QQ.rational(rng.choice(pool)),
                      QQ.rational(rng.choice(pool)),
                      QQ.rational(rng.choice(pool)), d)
        if not check_huang_admissible(h, q):
            continue
        try:
            pair = build_pair_from_huang(h, q)
            back = huang_data_from_array(parameter_arrays(pair)[0], q)
            if back is None or not huang_equivalent(back, h):
                rt_fail.append(f"round-trip-{j}")
                continue
            round_trips += 1
        except Exception as exc:  # noqa: BLE001
            rt_fail.append(f"round-trip-{j}: {exc}")
    checks.append(Check(f"huang-round-trips ({round_trips})",
                        round_trips >= 10 and not rt_fail))
    for f in failures + rt_fail:
        checks.append(Check(f, False))
    return checks


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="dahalink",
                     description="Exact modules of the rank-one double affine "
                                 "Hecke algebra and their linked Leonard pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and verify a module")
    p.add_argument("descriptor", help="descriptor JSON file")
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a module or descriptor file")
    p.add_argument("module", help="module or descriptor JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extract", help="restricted Leonard pairs and Huang data")
    p.add_argument("module", help="module or descriptor JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("link", help="decide the linked relation")
    p.add_argument("huang", help="first Huang JSON file")
    p.add_argument("huang2", help="second Huang JSON file")
    p.add_argument("--construct", action="store_true",
                   help="also synthesize a realizing module")
    p.add_argument("--sign", choices=("plus", "minus"), default=None,
                   help="square-root branch for the DS case")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("check-huang", help="admissibility / equivalence")
    p.add_argument("huang", help="Huang JSON file")
    p.add_argument("huang2", nargs="?", default=None,
                   help="optional second file for an equivalence check")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_huang)

    p = sub.add_parser("suite", help="randomized property battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=7, dest="max_n")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_suite)

    return parser


_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    try:
        args = _PARSER.parse_args(argv)
    except CliParseError as exc:
        _emit({"error": f"argument error: {exc}"}, None)
        return EXIT_PARSE
    try:
        return args.func(args, started)
    except CliParseError as exc:
        _emit({"command": args.command, "error": str(exc)}, args.out)
        return EXIT_PARSE
    except LinkError as exc:
        _emit({"command": args.command, "error": str(exc)}, args.out)
        return EXIT_NO_LINK
    except (ValueError, VerificationError) as exc:
        _emit({"command": args.command, "error": str(exc)}, args.out)
        return EXIT_VALIDATION


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
