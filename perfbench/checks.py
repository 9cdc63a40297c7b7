"""Output checks that do not trust the program under test.

They read the program's JSON forms and redo the arithmetic with plain
``fractions.Fraction`` values, so a fault in ``dahalink``'s own field or
matrix code cannot hide itself.  Each check returns a list of failure
messages; an empty list means the output is correct.
"""

from __future__ import annotations

from fractions import Fraction

# Diameters (d on V(k0), d on V(k0^{-1})) of the two restricted Leonard
# pairs of a feasible module of each X-type, from the t0-split dimensions.
DIAMETERS = {
    "DS": lambda n: (n // 2, n // 2 - 1),
    "DDa": lambda n: ((n + 1) // 2, (n - 3) // 2),
    "DDb": lambda n: ((n - 1) // 2, (n - 1) // 2),
    "SSa": lambda n: ((n - 1) // 2, (n - 1) // 2),
    "SSb": lambda n: ((n - 1) // 2, (n - 1) // 2),
}


def element(data) -> tuple[Fraction, Fraction, int]:
    """A field element's JSON form as (rat, irr, disc): rat + irr*sqrt(disc)."""
    if isinstance(data, (int, str)):
        return Fraction(data), Fraction(0), 1
    return Fraction(data["rat"]), Fraction(data.get("irr", 0)), int(data.get("disc", 1))


def rational(data) -> Fraction:
    rat, irr, _ = element(data)
    if irr:
        raise ValueError(f"expected a rational entry, got {data!r}")
    return rat


def _same(x, y) -> bool:
    return x[0] == y[0] and x[1] == y[1] and (x[1] == 0 or x[2] == y[2])


def _inverse(x):
    rat, irr, disc = x
    norm = rat * rat - disc * irr * irr
    return rat / norm, -irr / norm, disc


def _same_up_to_inverse(x, y) -> bool:
    return _same(x, y) or _same(_inverse(x), y)


def huang_equivalent(h1: dict, h2: dict) -> bool:
    """Equal diameters and (a, b, c) equal up to inverting each scalar;
    c is free at d = 0."""
    if int(h1["d"]) != int(h2["d"]):
        return False
    keys = "ab" if int(h1["d"]) == 0 else "abc"
    return all(_same_up_to_inverse(element(h1[k]), element(h2[k])) for k in keys)


def _matmul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))]
            for row in a]


def _shift(a, s):
    return [[x - s if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]


def check_construct(module: dict, expected: dict, report_ok: bool) -> list[str]:
    """The four quadratic relations and t0 t1 t2 t3 = q^{-1} I, over Q."""
    bad = []
    if not report_ok:
        bad.append("verify_hq_relations reported a failing relation")
    if module["xtype"] != expected["xtype"] or int(module["n"]) != expected["n"]:
        bad.append("module descriptor differs from the input")
    q = rational(module["q"])
    k = [rational(x) for x in module["k"]]
    if q != expected["q"] or k != list(expected["k"]):
        bad.append("module parameters differ from the input")
    t = [[[rational(x) for x in row] for row in m["entries"]] for m in module["t"]]
    dim = expected["n"] + 1
    if any(len(m) != dim or any(len(row) != dim for row in m) for m in t):
        return bad + ["generator matrices have the wrong size"]
    zero = [[0] * dim for _ in range(dim)]
    for i, (ti, ki) in enumerate(zip(t, k)):
        if _matmul(_shift(ti, ki), _shift(ti, 1 / ki)) != zero:
            bad.append(f"(t{i} - k{i})(t{i} - 1/k{i}) != 0")
    prod = _matmul(_matmul(_matmul(t[0], t[1]), t[2]), t[3])
    if _shift(prod, 1 / q) != zero:
        bad.append("t0 t1 t2 t3 != q^-1 I")
    return bad


def check_extract(xtype: str, n: int, halves: list[dict]) -> list[str]:
    """Diameters match the X-type table, and on each half the generic
    (split-sequence) Huang data agree with the closed form."""
    bad = []
    want = DIAMETERS[xtype](n)
    got = tuple(h["diameter"] for h in halves)
    if got != want:
        bad.append(f"diameters {got} differ from the {xtype} table {want}")
    for side, h in zip(("plus", "minus"), halves):
        if h["generic"] is None:
            bad.append(f"{side}: generic recognition found no Huang data")
        elif not (int(h["closed"]["d"]) == h["diameter"]
                  and huang_equivalent(h["generic"], h["closed"])):
            bad.append(f"{side}: generic and closed-form Huang data differ")
    return bad


def check_link(kind: str, case: str, code: int, report: dict) -> list[str]:
    """Partners of a case row link through that row and the built module
    reproduces the inputs; a near-miss never lists the row it violates;
    unrelated data are not linked."""
    cases = [c["case"] for c in report.get("cases", [])]
    reproduced = any(c["name"] == "extraction-reproduces-inputs" and c["passed"]
                     for c in report.get("checks", []))
    if kind == "partner":
        if code != 0 or case not in cases or not reproduced:
            return [f"case-{case} partner: exit {code}, cases {cases}, "
                    f"reproduced {reproduced}"]
    elif kind == "near":
        if case in cases or (code == 0 and not reproduced) or code not in (0, 3):
            return [f"case-{case} near-miss: exit {code}, cases {cases}"]
    elif code != 3 or cases:
        return [f"unrelated pair: exit {code}, cases {cases}"]
    return []
