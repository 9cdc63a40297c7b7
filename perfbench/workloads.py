"""The three benchmark workloads: the traffic mix, inputs, the timed op, the check.

Each workload gives every *slot* (an X-type and size, or a kind of Huang
pair) a weight.  :func:`schedule` turns the weights into one fixed order in
which every prefix holds each slot within one op of its share, so a run
has the same mix whatever its length, and only the parameter values come
from the seed.  No input repeats within a run, so a cache across calls
cannot help.

The weights:

* ``construct`` and ``extract`` run the same slots, weighted like the
  acceptance battery (``tests/test_acceptance.py``): its counts 14, 12, 8
  for the three smallest sizes of each X-type (n = 0, 2, 4 for DS and 1, 3,
  5 for the others), all five X-types alike, q alternating between 2 and 3
  on a slot's visits as there, without DS n = 0 and DDa n = 1,
  which are never feasible and so cannot be extracted.  Larger sizes are
  left out because one build and verify at n = 7 already takes about a
  second.  Without those two slots the median op of ``construct`` lies well
  inside the n = 3 ops rather than on the edge between them and the DS
  n = 2 ops, which are half as costly.
* ``link``: a third of the ops are pairs that are not linked (unrelated
  pairs and near-misses, half each); the other two thirds are case-row
  partners, every row i-vii alike.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

from checks import check_construct, check_extract, check_link

BATTERY_COUNTS = (14, 12, 8)
XTYPES = ("DS", "DDa", "DDb", "SSa", "SSb")
NEVER_FEASIBLE = {("DS", 0), ("DDa", 1)}


def battery_weights() -> dict:
    """The acceptance battery's counts for the three smallest sizes, on the
    sizes where a feasible module exists."""
    weights = {}
    for xtype in XTYPES:
        sizes = (0, 2, 4) if xtype == "DS" else (1, 3, 5)
        for n, count in zip(sizes, BATTERY_COUNTS):
            if (xtype, n) not in NEVER_FEASIBLE:
                weights[(xtype, n)] = count
    return weights


def schedule(weights: dict):
    """Endless slots in smooth weighted round-robin order: each step credits
    every slot its weight and takes the slot with the most credit."""
    total = sum(weights.values())
    credit = dict.fromkeys(weights, Fraction(0))
    while True:
        for slot, w in weights.items():
            credit[slot] += w
        best = max(credit, key=credit.__getitem__)
        credit[best] -= total
        yield best


def _bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def _fresh_params(dl, rng, xtype: str, n: int, visit: int, seen: set):
    """Seeded valid parameters for the slot, never drawn before in this run.
    Like the battery, q alternates between 2 and 3 on a slot's visits."""
    QQ = dl.exactfield.QQ
    q = 2 if (n + visit) % 2 == 0 else 3
    for _ in range(1000):
        params = dl.daha.sample_params(rng, dl.daha.XType(xtype), n, QQ.rational(q))
        if params is None:
            continue
        k = tuple(x.rat for x in params.k)
        if (xtype, n, q, k) not in seen:
            seen.add((xtype, n, q, k))
            return params
    raise RuntimeError(f"no fresh valid parameters for {xtype} n={n}")


class Construct:
    """build_module then verify_hq_relations over Q, q in {2, 3}.

    Dense products and rational scalar arithmetic do nearly all the work;
    there is no row reduction and no ``leonard`` call.
    """

    name = "construct"
    weights = battery_weights()
    smoke = (("DDb", 1), ("SSa", 1), ("SSb", 1))
    # inputs made during set-up; later ones are made between ops, untimed
    prebuilt = 150

    def make_input(self, dl, rng, slot, visit, seen, workdir):
        xtype, n = slot
        params = _fresh_params(dl, rng, xtype, n, visit, seen)
        return {"xtype": xtype, "n": n, "q": params.q.rat,
                "k": tuple(x.rat for x in params.k),
                "args": (xtype, n, params.k, params.q)}

    def op(self, dl, inp):
        module = dl.daha.build_module(*inp["args"])
        return module, dl.daha.verify_hq_relations(module)

    def check(self, inp, out):
        module, report = out
        return check_construct(module.to_json(), inp, report.ok)

    def describe(self, inp, out):
        return {"xtype": inp["xtype"], "n": inp["n"], "bits": _bits(inp["k"] + (inp["q"],))}


class Extract:
    """Restricted Leonard pairs, then generic recognition of each half.

    Generator matrices of seeded feasible modules are built with the
    inputs; each op wraps them in a fresh ``HqModule`` (derived matrices
    are cached per instance, so nothing carries over), runs
    ``restricted_leonard_pairs`` and then, on each half,
    ``recognize_leonard_pair`` without candidates, ``parameter_arrays`` and
    ``huang_data_from_array``.  Row reduction, ``char_poly`` and the
    rational-root search dominate.
    """

    name = "extract"
    weights = battery_weights()
    smoke = (("DDb", 1), ("SSa", 1), ("DS", 2))
    prebuilt = 8

    def make_input(self, dl, rng, slot, visit, seen, workdir):
        xtype, n = slot
        for _ in range(200):
            params = _fresh_params(dl, rng, xtype, n, visit, seen)
            module = dl.daha.build_module(xtype, n, params.k, params.q)
            if dl.daha.is_feasible(module)[0]:
                return {"xtype": xtype, "n": n,
                        "args": (module.params, xtype, module.t, module.mu)}
        raise RuntimeError(f"no feasible {xtype} module with n={n}")

    def op(self, dl, inp):
        module = dl.daha.HqModule(*inp["args"])
        leonard = dl.leonard
        halves = []
        for pair, closed in dl.daha.restricted_leonard_pairs(module):
            orderings = leonard.recognize_leonard_pair(pair.A, pair.Astar)
            generic = None
            if orderings is not None:
                generic = leonard.huang_data_from_array(
                    leonard.parameter_arrays(pair, orderings)[0], module.params.q)
            halves.append((pair, closed, generic))
        return halves

    def check(self, inp, out):
        halves = [{"diameter": pair.diameter, "closed": closed.to_json(),
                   "generic": None if generic is None else generic.to_json()}
                  for pair, closed, generic in out]
        return check_extract(inp["xtype"], inp["n"], halves)

    def describe(self, inp, out):
        entries = [x.rat for m in inp["args"][2] for row in m.rows for x in row]
        return {"xtype": inp["xtype"], "n": inp["n"], "bits": _bits(entries)}


# case row -> (d' - d, exponents of q in a'/a, b'/b, c'/c)
CASE_ROWS = {
    "i": (-2, (0, 0, 0)),
    "ii": (-1, (1, 1, 1)),
    "iii": (0, (2, 0, 0)),
    "iv": (0, (0, 2, 0)),
    "v": (0, (0, 0, 2)),
    "vi": (1, (-1, -1, -1)),
    "vii": (2, (0, 0, 0)),
}
# the diameters d <= 2 of the first datum whose partner also has d' <= 2
PARTNER_D = {"i": (2,), "ii": (1, 2), "iii": (0, 1, 2), "iv": (0, 1, 2),
             "v": (0, 1, 2), "vi": (0, 1), "vii": (0,)}
# near-misses: (case row, d, scalar, exponent e); setting the scalar to
# q^e violates exactly one inequality of that row.
NEAR_MISSES = (
    ("ii", 2, "a", -2), ("ii", 2, "b", -2),    # a^2 (b^2) = q^{-2d}
    ("iii", 2, "b", 2), ("iii", 1, "a", -1),   # b^2 = q^{2d};  a^2 = q^{-2}
    ("iv", 2, "a", 2), ("iv", 1, "b", -1),     # a^2 = q^{2d};  b^2 = q^{-2}
    ("v", 2, "a", 2), ("v", 1, "c", -1),       # a^2 = q^{2d};  c^2 = q^{-2}
)
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
LINK_Q = Fraction(2)


def _link_weights() -> dict:
    """A third not linked, half unrelated and half near-misses; two thirds
    partners, every case row alike and split evenly over its diameters."""
    weights = {("unrelated", None, None): Fraction(1, 6)}
    for miss in NEAR_MISSES:
        weights[("near",) + miss] = Fraction(1, 6 * len(NEAR_MISSES))
    for row, ds in PARTNER_D.items():
        for d in ds:
            weights[("partner", row, d)] = Fraction(2, 3 * len(PARTNER_D) * len(ds))
    return weights


class Link:
    """``cli.main(["link", h1, h2, "--construct"])`` on seeded Huang pairs
    at q = 2, with stdout captured.

    The only workload through ``cli``, and the only one over Q(sqrt D):
    case ii/vi constructions extend the field.
    """

    name = "link"
    # slots: ("unrelated", None, None), ("near", row, d, scalar, e) or
    # ("partner", row, d)
    weights = _link_weights()
    smoke = (("unrelated", None, None), ("near",) + NEAR_MISSES[3],
             ("partner", "iv", 0), ("partner", "ii", 1))
    prebuilt = 120

    def _pair(self, rng, kind, case, d, *miss):
        scalar = lambda p: Fraction(p) if rng.random() < 0.5 else Fraction(1, p)
        if kind == "unrelated":
            # six distinct odd primes: no ratio is a power of q = 2
            p = [scalar(x) for x in rng.sample(PRIMES, 6)]
            h1 = (p[0], p[1], p[2], rng.randrange(3))
            return h1, (p[3], p[4], p[5], rng.randrange(3))
        a, b, c = (scalar(x) for x in rng.sample(PRIMES, 3))
        if kind == "near":
            which, e = miss
            vals = {"a": a, "b": b, "c": c}
            vals[which] = LINK_Q ** e
            a, b, c = vals["a"], vals["b"], vals["c"]
        delta, exps = CASE_ROWS[case]
        h2 = tuple(v * LINK_Q ** x for v, x in zip((a, b, c), exps)) + (d + delta,)
        return (a, b, c, d), h2

    def make_input(self, dl, rng, slot, visit, seen, workdir):
        leonard, QQ = dl.leonard, dl.exactfield.QQ
        q = QQ.from_fraction(LINK_Q)
        while True:
            h1, h2 = self._pair(rng, *slot)
            data = [leonard.HuangData(*(QQ.from_fraction(x) for x in h[:3]), h[3])
                    for h in (h1, h2)]
            if (h1, h2) not in seen and all(
                    leonard.check_huang_admissible(h, q) for h in data):
                break
        seen.add((h1, h2))
        files = []
        for h in data:
            path = workdir / f"h{len(seen)}-{len(files)}.json"
            path.write_text(json.dumps(dict(h.to_json(), q=2)))
            files.append(str(path))
        return {"kind": slot[0], "case": slot[1], "h": (h1, h2), "files": tuple(files)}

    def op(self, dl, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = dl.cli.main(["link", inp["files"][0], inp["files"][1], "--construct"])
        return code, buf.getvalue()

    def check(self, inp, out):
        code, text = out
        return check_link(inp["kind"], inp["case"], code, json.loads(text))

    def describe(self, inp, out):
        code, text = out
        module = json.loads(text).get("module") if code == 0 else None
        fact = {"bits": _bits([x for h in inp["h"] for x in h[:3]]),
                "linked": code == 0, "report_bytes": len(text)}
        if module is not None:
            fact.update(xtype=module["xtype"], n=module["n"], extension=any(
                isinstance(k, dict) and int(k.get("disc", 1)) != 1 for k in module["k"]))
        return fact


WORKLOADS = {w.name: w for w in (Construct(), Extract(), Link())}
