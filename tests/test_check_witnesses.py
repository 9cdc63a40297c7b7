"""One row per check name that a report can emit: a CLI input under which
that check fails, or what implies it.

A witness must fail its check, and every other check that fails with it
must be one the table lists as implied by it.  An implied check names the
check, or the construction, that decides it.
"""

import json
import lzma
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

from dahalink.cli import main
from dahalink.daha import XType, build_module
from dahalink.exactfield import QQ
from dahalink.exactlinalg import ExactMatrix
from dahalink.leonard import HuangData

R = QQ.rational
TEXTS = Path(__file__).parent / "data" / "report_texts.json.xz"


class Witness(NamedTuple):
    """``argv`` with ``@i`` naming the i-th of ``files``, each a JSON object
    or a function returning one; ``mutant`` patches the library first."""

    argv: tuple[str, ...]
    files: tuple = ()
    mutant: Optional[Callable] = None


class Implied(NamedTuple):
    by: str


# decided by how a module or a report is built, not by another check
T_INV = "construction: HqModule.t_inv = (k + k^-1) I - t, so t + t_inv is scalar"
LADDER = ("construction: a CLI module's mu is eigenvalue_ladder of validated parameters, "
          "distinct by validate_params")
LINKED = "construction: link reports checks only when a case row matches (else exit 3)"


def _module(xtype, n, q, k):
    return build_module(XType(xtype), n, tuple(R(*x) if isinstance(x, tuple) else R(x)
                                               for x in k), R(q)).to_json()


def _flagship():
    return _module("DDa", 3, 2, ((1, 4), 3, 7, 5))


def _with_k(data, i, value):
    """The module file with k_i replaced: the matrices keep the old k_i."""
    data["k"][i] = R(value).to_json()
    return data


def _negated_t1():
    """t1 and k1 negated: every quadratic holds, and t0 t1 t2 t3 = -q^-1."""
    data = _with_k(_flagship(), 1, -3)
    data["t"][1] = (-ExactMatrix.from_json(data["t"][1], QQ)).to_json()
    return data


def _base_changed():
    """Every generator conjugated by P = I + E_01: X is no longer diag(mu)."""
    data = _flagship()
    P = ExactMatrix.from_rows(QQ, [[1 if j == i or (i, j) == (0, 1) else 0
                                    for j in range(4)] for i in range(4)])
    data["t"] = [(P.inverse() * ExactMatrix.from_json(t, QQ) * P).to_json()
                 for t in data["t"]]
    return data


def _wrong_generic_huang(monkeypatch):
    import dahalink.daha as daha

    wrong = HuangData(R(11), R(13), R(17), 2)
    monkeypatch.setattr(daha, "huang_data_from_array", lambda pa, q: wrong)


def _doubled_a(monkeypatch):
    import dahalink.daha as daha

    original = daha.restricted_leonard_pairs

    def doubled(m):
        (pair, h), minus = original(m)
        return (pair, HuangData(h.a * 2, h.b, h.c, h.d)), minus

    monkeypatch.setattr(daha, "restricted_leonard_pairs", doubled)


def _huang(a, b, c, d):
    return {"a": a, "b": b, "c": c, "d": d, "q": 2}


SSA = ("SSa", 3, 2, (3, (1, 4), 5, 11))        # k0 and k3 stay off its ladder
FLAGSHIP = {"xtype": "DDa", "n": 3, "q": 2, "k": ["1/4", 3, 7, 5]}

TABLE = {
    "t0-quadratic": Witness(("verify", "@0"), (lambda: _with_k(_module(*SSA), 0, 13),)),
    "t1-quadratic": Witness(("verify", "@0"), (lambda: _with_k(_flagship(), 1, 11),)),
    "t2-quadratic": Witness(("verify", "@0"), (lambda: _with_k(_flagship(), 2, 11),)),
    "t3-quadratic": Witness(("verify", "@0"), (lambda: _with_k(_module(*SSA), 3, 13),)),
    **{f"t{i}-inverse-{side}": Implied(f"t{i}-quadratic")
       for i in range(4) for side in ("right", "left")},
    **{f"central-t{i}-with-t{j}": Implied(T_INV) for i in range(4) for j in range(4)},
    "product-t0t1t2t3": Witness(("verify", "@0"), (_negated_t1,)),
    # conjugates of the first product
    **{f"product-{p}": Implied("product-t0t1t2t3")
       for p in ("t1t2t3t0", "t2t3t0t1", "t3t0t1t2")},
    "X-diagonal-ladder": Witness(("verify", "@0"), (_base_changed,)),
    "X-diagonalizable-simple-spectrum": Implied(LADDER),
    "Y-diagonalizable-simple-spectrum": Witness(
        ("extract", "@0"), ({"xtype": "DDb", "n": 5, "q": 3, "k": ["1/7", -11, -3, "1/27"]},)),
    "t0-two-eigenvalues": Witness(
        ("extract", "@0"), ({"xtype": "DDa", "n": 1, "q": 2, "k": ["1/2", 3, 7, 5]},)),
    "huang-dual-route-agreement": Witness(("extract", "@0"), (FLAGSHIP,), _wrong_generic_huang),
    "linked": Implied(LINKED),
    "extraction-reproduces-inputs": Witness(
        ("link", "@0", "@1", "--construct"), (_huang(3, 5, 7, 2), _huang(3, 5, 7, 0)),
        _doubled_a),
    "admissible": Witness(("check-huang", "@0"), (_huang(2, 5, 7, 2),)),       # a^2 = q^2
    "admissible2": Witness(("check-huang", "@0", "@1"), (_huang(3, 5, 7, 2), _huang(2, 5, 7, 2))),
}

WITNESSES = [name for name, row in TABLE.items() if isinstance(row, Witness)]


def _run(capsys, tmp_path, monkeypatch, witness):
    if witness.mutant:
        witness.mutant(monkeypatch)
    paths = []
    for i, f in enumerate(witness.files):
        p = tmp_path / f"in{i}.json"
        p.write_text(json.dumps(f() if callable(f) else f))
        paths.append(str(p))
    argv = [paths[int(a[1:])] if a.startswith("@") else a for a in witness.argv]
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_the_table_covers_every_check_name_the_corpus_emits():
    names = {c["name"] for text in json.loads(lzma.open(TEXTS).read())
             for c in json.loads(text).get("checks", [])}
    assert set(TABLE) == names
    for row in TABLE.values():
        assert isinstance(row, Witness) or row.by in TABLE or row.by.startswith("construction:")


@pytest.mark.parametrize("name", WITNESSES)
def test_each_witness_fails_its_check_and_only_what_it_implies(capsys, tmp_path, monkeypatch,
                                                               name):
    code, rep = _run(capsys, tmp_path, monkeypatch, TABLE[name])
    failed = {c["name"] for c in rep["checks"] if not c["passed"]}
    implied = {m for m, row in TABLE.items() if row == Implied(name)}
    assert code != 0 and failed == {name} | implied


def test_linked_is_reported_only_when_true(capsys, tmp_path, monkeypatch):
    unlinked = Witness(("link", "@0", "@1"), (_huang(3, 5, 7, 1), _huang(11, 13, 3, 1)))
    code, rep = _run(capsys, tmp_path, monkeypatch, unlinked)
    assert code == 3 and rep["checks"] == []
