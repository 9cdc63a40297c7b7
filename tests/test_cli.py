import json
import time

import pytest

from dahalink.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def flagship_descriptor(tmp_path):
    p = tmp_path / "flagship.json"
    p.write_text(json.dumps(
        {"xtype": "DDa", "n": 3, "q": 2, "k": ["1/4", 3, 7, 5]}))
    return str(p)


def write_huang(tmp_path, name, a, b, c, d, q=2):
    p = tmp_path / name
    p.write_text(json.dumps({"a": a, "b": b, "c": c, "d": d, "q": q}))
    return str(p)


def test_construct_flagship(capsys, flagship_descriptor, tmp_path):
    out_file = tmp_path / "report.json"
    code, rep = run(capsys, "construct", flagship_descriptor,
                    "--out", str(out_file))
    assert code == 0
    assert rep["command"] == "construct"
    assert all(c["passed"] for c in rep["checks"])
    assert rep["module"]["xtype"] == "DDa"
    assert [x["rat"] for x in rep["module"]["mu"]] == ["5/4", "1/5", "5", "1/20"]
    assert "wall_time_s" in rep
    # --out duplicates the report
    on_disk = json.loads(out_file.read_text())
    assert on_disk["module"] == rep["module"]


def test_construct_rejects_bad_defining_equation(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"xtype": "DS", "n": 2, "q": 2, "k": [3, 5, 7, 11]}))
    code, rep = run(capsys, "construct", str(p))
    assert code == 2
    assert rep["violations"] == ["DS defining-equation"]


def test_construct_rejects_malformed_json(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"xtype": "DS",')
    code, rep = run(capsys, "construct", str(p))
    assert code == 1
    assert "error" in rep


def test_construct_missing_file(capsys):
    code, rep = run(capsys, "construct", "/nonexistent/path.json")
    assert code == 1


def test_unknown_subcommand_is_parse_error(capsys):
    code, rep = run(capsys, "frobnicate")
    assert code == 1


def test_verify_round_trip(capsys, flagship_descriptor, tmp_path):
    code, rep = run(capsys, "construct", flagship_descriptor)
    module_file = tmp_path / "module.json"
    module_file.write_text(json.dumps(rep["module"]))
    code, rep = run(capsys, "verify", str(module_file))
    assert code == 0
    assert all(c["passed"] for c in rep["checks"])
    names = [c["name"] for c in rep["checks"]]
    assert "X-diagonal-ladder" in names


def test_verify_accepts_construct_out_file(capsys, flagship_descriptor, tmp_path):
    report_file = tmp_path / "report.json"
    run(capsys, "construct", flagship_descriptor, "--out", str(report_file))
    code, rep = run(capsys, "verify", str(report_file))
    assert code == 0
    assert rep["descriptor"]["xtype"] == "DDa"
    code, rep = run(capsys, "extract", str(report_file))
    assert code == 0
    assert rep["huang_plus"]["d"] == 2


def test_verify_catches_tampered_matrices(capsys, flagship_descriptor, tmp_path):
    code, rep = run(capsys, "construct", flagship_descriptor)
    module = rep["module"]
    module["t"][0]["entries"][0][0] = {"rat": "99", "irr": "0", "disc": 1}
    module_file = tmp_path / "tampered.json"
    module_file.write_text(json.dumps(module))
    code, rep = run(capsys, "verify", str(module_file))
    assert code == 2
    failed = [c for c in rep["checks"] if not c["passed"]]
    assert failed
    assert any("residual" in c for c in failed)


def test_extract_flagship(capsys, flagship_descriptor):
    code, rep = run(capsys, "extract", flagship_descriptor)
    assert code == 0
    plus, minus = rep["huang_plus"], rep["huang_minus"]
    assert [plus[x]["rat"] for x in "abc"] == ["3", "5", "7"] and plus["d"] == 2
    assert [minus[x]["rat"] for x in "abc"] == ["3", "5", "7"] and minus["d"] == 0
    assert plus["q"]["rat"] == "2"


def test_extract_infeasible_module(capsys, tmp_path):
    p = tmp_path / "dda1.json"
    p.write_text(json.dumps({"xtype": "DDa", "n": 1, "q": 2, "k": ["1/2", 3, 7, 5]}))
    code, rep = run(capsys, "extract", str(p))
    assert code == 4
    assert "t0-two-eigenvalues" in rep["failed"]


def test_extract_rejects_non_module_matrices(capsys, flagship_descriptor, tmp_path):
    code, rep = run(capsys, "construct", flagship_descriptor)
    module = rep["module"]
    module["t"][2]["entries"][1][1] = {"rat": "0", "irr": "0", "disc": 1}
    p = tmp_path / "notmodule.json"
    p.write_text(json.dumps(module))
    code, rep = run(capsys, "extract", str(p))
    assert code == 2


def test_link_flagship(capsys, tmp_path):
    h1 = write_huang(tmp_path, "h1.json", 3, 5, 7, 2)
    h2 = write_huang(tmp_path, "h2.json", 3, 5, 7, 0)
    code, rep = run(capsys, "link", h1, h2)
    assert code == 0
    assert [c["case"] for c in rep["cases"]] == ["i"]


def test_link_construct_flag(capsys, tmp_path):
    h1 = write_huang(tmp_path, "h1.json", 3, 5, 7, 2)
    h2 = write_huang(tmp_path, "h2.json", 3, 5, 7, 0)
    code, rep = run(capsys, "link", h1, h2, "--construct")
    assert code == 0
    assert rep["case_used"]["case"] == "i"
    assert rep["exchanged"] is False
    assert rep["module"]["xtype"] == "DDa" and rep["module"]["n"] == 3
    assert [x["rat"] for x in rep["module"]["k"]] == ["1/4", "3", "7", "5"]
    assert any(c["name"] == "extraction-reproduces-inputs" and c["passed"]
               for c in rep["checks"])


def _k_text(x):
    """A k entry of a report as text: "p/q", or "r*sqrt(D)" when purely irrational."""
    if x["irr"] == "0":
        return x["rat"]
    assert x["rat"] == "0"
    return f'{x["irr"]}*sqrt({x["disc"]})'


_DS_K = ["-1/2*sqrt(210)", "-1/140*sqrt(210)", "-1/60*sqrt(210)", "-1/84*sqrt(210)"]


# the decisions the case table makes: the witnessing row with its inversion
# patterns, and the module that realizes it
@pytest.mark.parametrize("h1, h2, q, case, variant2, xtype, n, k", [
    # one partner pair per case row; vi and vii are ii and i reversed
    ((3, 5, 7, 2), (3, 5, 7, 0), 2, "i", [1, 1, 1], "DDa", 3, ["1/4", "3", "7", "5"]),
    ((3, 5, 7, 2), (6, 10, 14, 1), 2, "ii", [1, 1, 1], "DS", 4, _DS_K),
    ((3, 5, 7, 1), (12, 5, 7, 1), 2, "iii", [1, 1, 1], "SSa", 3, ["6", "1/4", "5", "7"]),
    ((3, 5, 7, 1), (3, 20, 7, 1), 2, "iv", [1, 1, 1], "DDb", 3, ["10", "7", "3", "1/4"]),
    ((3, 5, 7, 1), (3, 5, 28, 1), 2, "v", [1, 1, 1], "SSb", 3, ["14", "5", "1/4", "3"]),
    ((6, 10, 14, 1), (3, 5, 7, 2), 2, "vi", [1, 1, 1], "DS", 4, _DS_K),
    ((3, 5, 7, 0), (3, 5, 7, 2), 2, "vii", [1, 1, 1], "DDa", 3, ["1/4", "3", "7", "5"]),
    # the partner's a and c inverted
    ((3, 5, 7, 1), ("1/12", 5, "1/7", 1), 2, "iii", [-1, 1, -1], "SSa", 3,
     ["6", "1/4", "5", "7"]),
    # d = d' = 0: c = 3 from the catalogue, as 1 is invalid and 2 has c^2 = q^{-2}
    ((2, 4, 7, 0), (2, 4, 9, 0), "1/2", "v", [1, 1, 1], "SSb", 1, ["3/2", "4", "2", "2"]),
])
def test_link_construct_pins_each_case_row(capsys, tmp_path, h1, h2, q, case, variant2,
                                           xtype, n, k):
    files = [write_huang(tmp_path, "h1.json", *h1, q=q),
             write_huang(tmp_path, "h2.json", *h2, q=q)]
    code, rep = run(capsys, "link", *files, "--construct")
    assert code == 0
    assert rep["case_used"] == {"case": case, "variant": [1, 1, 1], "variant2": variant2}
    assert rep["exchanged"] is (case in ("vi", "vii"))
    assert rep["module"]["xtype"] == xtype and rep["module"]["n"] == n
    assert [_k_text(x) for x in rep["module"]["k"]] == k


def _in_q210(rat):
    return {"rat": rat, "irr": "0", "disc": 210}


# Extracted Huang data of the case-ii module over Q(sqrt 210) realizing
# (3, 5, 7; d=2) on V(k0) and (6, 10, 14; d=1) on V(k0^{-1}).
_Q210_EXTRACTED = {
    "huang_plus": {"a": _in_q210("3"), "b": _in_q210("5"), "c": _in_q210("7"), "d": 2,
                   "q": {"rat": "2", "irr": "0", "disc": 1}},
    "huang_minus": {"a": _in_q210("6"), "b": _in_q210("10"), "c": _in_q210("14"), "d": 1,
                    "q": {"rat": "2", "irr": "0", "disc": 1}},
}


@pytest.mark.parametrize("order, case, exchanged", [
    ((0, 1), "ii", False),      # d' = d - 1: case ii, a DS module
    ((1, 0), "vi", True),       # the same pair reversed: case vi, exchanged
])
def test_link_construct_quadratic_field_report(capsys, tmp_path, order, case, exchanged):
    files = [write_huang(tmp_path, "h1.json", 3, 5, 7, 2),
             write_huang(tmp_path, "h2.json", 6, 10, 14, 1)]
    code, rep = run(capsys, "link", *(files[i] for i in order), "--construct")
    assert code == 0
    assert rep["case_used"] == {"case": case, "variant": [1, 1, 1], "variant2": [1, 1, 1]}
    assert rep["exchanged"] is exchanged
    assert rep["module"]["xtype"] == "DS" and rep["module"]["n"] == 4
    assert rep["module"]["k"][0] == {"rat": "0", "irr": "-1/2", "disc": 210}
    assert rep["extracted"] == _Q210_EXTRACTED
    assert rep["checks"] == [{"name": "linked", "passed": True},
                             {"name": "extraction-reproduces-inputs", "passed": True}]


def test_feasibility_is_evaluated_once_per_module(capsys, tmp_path, monkeypatch,
                                                   flagship_descriptor):
    import dahalink.daha as daha

    calls = []
    original = daha.is_feasible

    def counting(module):
        calls.append(module)
        return original(module)

    monkeypatch.setattr(daha, "is_feasible", counting)
    h1 = write_huang(tmp_path, "h1.json", 3, 5, 7, 2)
    h2 = write_huang(tmp_path, "h2.json", 6, 10, 14, 1)
    for args in ((h1, h2), (h2, h1)):       # direct and exchanged construction
        calls.clear()
        code, _ = run(capsys, "link", *args, "--construct")
        assert code == 0 and len(calls) == 1
    calls.clear()
    code, _ = run(capsys, "extract", flagship_descriptor)
    assert code == 0 and len(calls) == 1


def test_link_sign_flag(capsys, tmp_path):
    h1 = write_huang(tmp_path, "h1.json", 30, "1/140", 42, 1)
    h2 = write_huang(tmp_path, "h2.json", 60, "1/70", 84, 0)
    code, rep = run(capsys, "link", h1, h2, "--construct", "--sign", "minus")
    assert code == 0
    assert rep["module"]["k"][0]["rat"] == "-3"
    code, rep = run(capsys, "link", h1, h2, "--construct", "--sign", "plus")
    assert code == 0
    assert rep["module"]["k"][0]["rat"] == "3"


def test_main_calls_in_one_process_behave_as_fresh_runs(capsys, tmp_path, monkeypatch):
    import dahalink.cli as cli

    signs = []
    original = cli._construct_from

    def spying(h, h2, q, sign, witnesses):
        signs.append(sign)
        return original(h, h2, q, sign, witnesses)

    monkeypatch.setattr(cli, "_construct_from", spying)
    h1 = write_huang(tmp_path, "h1.json", 30, "1/140", 42, 1)
    h2 = write_huang(tmp_path, "h2.json", 60, "1/70", 84, 0)
    code, first = run(capsys, "link", h1, h2, "--construct")
    assert code == 0
    code, rep = run(capsys, "link", h1, h2, "--construct", "--sign", "plus")
    assert code == 0 and rep["module"]["k"][0]["rat"] == "3"
    code, rep = run(capsys, "link", h1, h2, "--sign", "sideways")
    assert code == 1 and "error" in rep
    code, last = run(capsys, "link", h1, h2, "--construct")
    assert code == 0 and signs == [None, "plus", None]
    for rep in (first, last):
        rep.pop("wall_time_s")
    assert last == first


def test_link_not_linked(capsys, tmp_path):
    h1 = write_huang(tmp_path, "h1.json", 3, 5, 7, 1)
    h2 = write_huang(tmp_path, "h2.json", 11, 13, 3, 1)
    code, rep = run(capsys, "link", h1, h2)
    assert code == 3
    assert rep["cases"] == []
    code, rep = run(capsys, "link", h1, h2, "--construct")
    assert code == 3


def test_link_mismatched_q(capsys, tmp_path):
    h1 = write_huang(tmp_path, "h1.json", 3, 5, 7, 2, q=2)
    h2 = write_huang(tmp_path, "h2.json", 3, 5, 7, 0, q=3)
    code, rep = run(capsys, "link", h1, h2)
    assert code == 2


def test_link_inadmissible_input(capsys, tmp_path):
    h1 = write_huang(tmp_path, "h1.json", 2, 5, 7, 2)  # a^2 = q^2
    h2 = write_huang(tmp_path, "h2.json", 3, 5, 7, 0)
    code, rep = run(capsys, "link", h1, h2)
    assert code == 2


def test_check_huang(capsys, tmp_path):
    h1 = write_huang(tmp_path, "h1.json", 3, 5, 7, 2)
    code, rep = run(capsys, "check-huang", h1)
    assert code == 0 and rep["admissible"] is True
    h2 = write_huang(tmp_path, "h2.json", "1/3", 5, "1/7", 2)
    code, rep = run(capsys, "check-huang", h1, h2)
    assert code == 0
    assert rep["equivalent"] is True
    bad = write_huang(tmp_path, "bad.json", 2, 5, 7, 2)
    code, rep = run(capsys, "check-huang", bad)
    assert code == 2 and rep["admissible"] is False


def test_suite_small_deterministic(capsys):
    code, rep1 = run(capsys, "suite", "--seed", "11", "--max-n", "3")
    assert code == 0
    assert all(c["passed"] for c in rep1["checks"])
    code, rep2 = run(capsys, "suite", "--seed", "11", "--max-n", "3")
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert rep1 == rep2


def test_suite_edge_bound(capsys):
    # n <= 1 exercises the single-vertex and zero-minus-space branches
    code, rep = run(capsys, "suite", "--seed", "0", "--max-n", "1")
    assert code == 0
    assert all(c["passed"] for c in rep["checks"])


def timed_run(capsys, *argv):
    started = time.perf_counter()
    code, rep = run(capsys, *argv)
    return code, rep, time.perf_counter() - started


def test_huge_discriminant_in_input_is_a_parse_error(capsys, tmp_path):
    # 2**61 - 1 is prime: trial division to the bound cannot settle it
    p = tmp_path / "h.json"
    p.write_text(json.dumps({"a": {"rat": "1", "irr": "1", "disc": 2 ** 61 - 1},
                             "b": 3, "c": 5, "d": 1, "q": 2}))
    code, rep, seconds = timed_run(capsys, "check-huang", str(p))
    assert code == 1 and "square-free" in rep["error"]
    assert seconds < 1


def test_huge_ds_radicand_is_a_validation_error(capsys, tmp_path):
    # case ii with c = 7p and 14p: the DS radicand is 105p/2, with p = 2**61 - 1
    p = 2 ** 61 - 1
    h1 = write_huang(tmp_path, "h1.json", 3, 5, 7 * p, 2)
    h2 = write_huang(tmp_path, "h2.json", 6, 10, 14 * p, 1)
    code, rep, seconds = timed_run(capsys, "link", h1, h2, "--construct")
    assert code == 2 and "square-free" in rep["error"]
    assert seconds < 1


def test_oversized_n_is_rejected_at_once(capsys, tmp_path):
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"xtype": "DS", "n": 100000, "q": 2, "k": ["1/4", 3, 7, 5]}))
    code, rep, seconds = timed_run(capsys, "construct", str(p))
    assert code == 2 and rep["violations"] == ["DS n-too-large"] and seconds < 1
    code, rep, seconds = timed_run(capsys, "extract", str(p))
    assert code == 2 and rep["error"] == "DS n-too-large" and seconds < 1
    code, rep, seconds = timed_run(capsys, "suite", "--max-n", "100000")
    assert code == 2 and "max-n" in rep["error"] and seconds < 1


def test_huang_diameter_past_the_bound_is_a_parse_error(capsys, tmp_path):
    big = write_huang(tmp_path, "big.json", 3, 5, 7, 10 ** 6)
    small = write_huang(tmp_path, "small.json", 3, 5, 7, 2)
    for argv in (("check-huang", big), ("link", big, small), ("link", small, big, "--construct")):
        code, rep, seconds = timed_run(capsys, *argv)
        assert code == 1 and "diameter" in rep["error"] and seconds < 1


@pytest.mark.parametrize("value", ["1e400", "-1e400", "3.7", '"3"'])
def test_non_integral_n_d_and_disc_are_parse_errors(capsys, tmp_path, value):
    # 1e400 reads as float infinity, which int() cannot take; a string
    # such as "3" (or "\u0661", which int() reads as 1) is not a number
    desc = tmp_path / "desc.json"
    desc.write_text('{"xtype": "DDa", "n": %s, "q": 2, "k": ["1/4", 3, 7, 5]}' % value)
    diam = tmp_path / "d.json"
    diam.write_text('{"a": 3, "b": 5, "c": 7, "d": %s, "q": 2}' % value)
    disc = tmp_path / "disc.json"
    disc.write_text('{"a": {"rat": 1, "irr": 1, "disc": %s}, "b": 5, "c": 7, "d": 1, "q": 2}'
                    % value)
    other = write_huang(tmp_path, "other.json", 3, 5, 7, 2)
    for argv in (("construct", str(desc)), ("extract", str(desc)), ("verify", str(desc)),
                 ("check-huang", str(diam)), ("link", str(diam), other),
                 ("check-huang", str(disc)), ("link", other, str(disc))):
        code, rep, seconds = timed_run(capsys, *argv)
        assert code == 1 and "error" in rep and seconds < 1


# no prime factor below the trial bound 2**20: one square-free check costs
# a full trial division
_SLOW_DISC = 1048583 * 1048589


@pytest.mark.parametrize("text", [
    '{"a": %s, "b": 5, "c": 7, "d": 2, "q": 2}' % ("1" * 5000),   # past the int digit limit
    "[" * 100000 + "]" * 100000,                                   # past the recursion limit
], ids=["digits", "nesting"])
def test_json_past_the_parser_limits_is_a_parse_error(capsys, tmp_path, text):
    p = tmp_path / "h.json"
    p.write_text(text)
    code, rep, seconds = timed_run(capsys, "check-huang", str(p))
    assert code == 1 and "malformed JSON" in rep["error"] and seconds < 1


def test_json_booleans_are_not_numbers(capsys, tmp_path):
    # true would read as 1: d = 1 links with d = 3 through case vii
    partner = write_huang(tmp_path, "partner.json", 3, 5, 7, 3)
    files = {
        "d": '{"a": 3, "b": 5, "c": 7, "d": true, "q": 2}',
        "a": '{"a": true, "b": 5, "c": 7, "d": 1, "q": 2}',
        "rat": '{"a": {"rat": true, "irr": 1, "disc": 2}, "b": 5, "c": 7, "d": 1, "q": 2}',
        "disc": '{"a": {"rat": 1, "irr": 1, "disc": true}, "b": 5, "c": 7, "d": 1, "q": 2}',
        "n": '{"xtype": "DDa", "n": true, "q": 2, "k": ["1/4", 3, 7, 5]}',
        "k": '{"xtype": "DDa", "n": 3, "q": 2, "k": ["1/4", true, 7, 5]}',
    }
    for name, text in files.items():
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        argvs = ((("construct", str(p)), ("extract", str(p))) if name in ("n", "k")
                 else (("check-huang", str(p)), ("link", str(p), partner)))
        for argv in argvs:
            code, rep, seconds = timed_run(capsys, *argv)
            assert code == 1 and "error" in rep and seconds < 1, (name, argv)


@pytest.mark.parametrize("value", ["1e10000000", "3.5", " 3", "1_000"])
def test_field_elements_are_integers_or_p_over_q_strings(capsys, tmp_path, value):
    # a string is "[+-]digits" or "[+-]digits/digits"; an exponent would
    # expand 1e10000000 into a 33-million-bit integer
    literal = json.dumps(value)
    huang = tmp_path / "h.json"
    huang.write_text('{"a": %s, "b": 5, "c": 7, "d": 1, "q": 2}' % literal)
    rat = tmp_path / "rat.json"
    rat.write_text('{"a": {"rat": %s, "irr": 0, "disc": 1}, "b": 5, "c": 7, "d": 1, "q": 2}'
                   % literal)
    desc = tmp_path / "desc.json"
    desc.write_text('{"xtype": "DDa", "n": 3, "q": 2, "k": [%s, 3, 7, 5]}' % literal)
    for argv in (("check-huang", str(huang)), ("check-huang", str(rat)),
                 ("construct", str(desc))):
        code, rep, seconds = timed_run(capsys, *argv)
        assert code == 1 and "error" in rep and seconds < 1, argv


def test_huang_file_builds_its_field_once(capsys, tmp_path, monkeypatch):
    import dahalink.exactfield as exactfield

    calls = []
    original = exactfield._square_free_int
    monkeypatch.setattr(exactfield, "_square_free_int",
                        lambda n: calls.append(n) or original(n))
    elem = {"rat": "1", "irr": "1", "disc": _SLOW_DISC}
    h = write_huang(tmp_path, "h.json", elem, dict(elem, rat="3"), dict(elem, irr="2"), 1)
    code, rep = run(capsys, "check-huang", h)
    assert code in (0, 2) and "admissible" in rep
    assert calls.count(_SLOW_DISC) == 1


def test_descriptor_builds_its_field_once(capsys, tmp_path, monkeypatch):
    import dahalink.exactfield as exactfield

    calls = []
    original = exactfield._square_free_int
    monkeypatch.setattr(exactfield, "_square_free_int",
                        lambda n: calls.append(n) or original(n))
    rational = lambda r: {"rat": r, "irr": "0", "disc": _SLOW_DISC}
    p = tmp_path / "desc.json"
    p.write_text(json.dumps({"xtype": "DDa", "n": 3, "q": rational("2"),
                             "k": [rational(r) for r in ("1/4", "3", "7", "5")]}))
    code, rep = run(capsys, "construct", str(p))
    assert code == 0 and rep["module"]["k"][1] == rational("3")
    assert calls.count(_SLOW_DISC) == 1


def test_descriptor_with_k_in_two_extensions_is_a_parse_error(capsys, tmp_path):
    root = lambda disc: {"rat": "0", "irr": "1", "disc": disc}
    p = tmp_path / "desc.json"
    p.write_text(json.dumps({"xtype": "DS", "n": 2, "q": 2, "k": [root(2), root(3), 7, 11]}))
    for command in ("construct", "verify", "extract"):
        code, rep = run(capsys, command, str(p))
        assert code == 1 and "k1" in rep["error"]


def test_module_entries_of_a_foreign_field_are_refused_at_once(capsys, tmp_path):
    n = 20
    t = [{"nrows": n + 1, "ncols": n + 1,
          "entries": [[{"rat": "1", "irr": "1", "disc": _SLOW_DISC}] * (n + 1)] * (n + 1)}] * 4
    p = tmp_path / "module.json"
    p.write_text(json.dumps({"xtype": "DS", "n": n, "q": 2,
                             "k": [3, 5, 7, "1/220200960"], "t": t}))
    for command in ("verify", "extract"):
        code, rep, seconds = timed_run(capsys, command, str(p))
        assert code == 1 and f"Q(sqrt({_SLOW_DISC}))" in rep["error"] and seconds < 1


def test_extract_dual_route_check_can_fail(capsys, monkeypatch, flagship_descriptor):
    import dahalink.daha as daha
    from dahalink.exactfield import QQ
    from dahalink.leonard import HuangData

    code, rep = run(capsys, "extract", flagship_descriptor)
    assert code == 0
    assert {"name": "huang-dual-route-agreement", "passed": True} in rep["checks"]
    wrong = HuangData(QQ.rational(11), QQ.rational(13), QQ.rational(17), 2)
    monkeypatch.setattr(daha, "huang_data_from_array", lambda pa, q: wrong)
    code, rep = run(capsys, "extract", flagship_descriptor)
    assert code == 2
    assert {"name": "huang-dual-route-agreement", "passed": False} in rep["checks"]
    assert rep["huang_plus"]["a"]["rat"] == "3"       # the closed forms are still reported


def test_extract_dual_route_check_over_an_irrational_spectrum(capsys, tmp_path):
    # DS with k0*k1 = sqrt 2: every restricted eigenvalue
    # sqrt2*q^(2r) + q^(-2r)/sqrt2 is pure irrational, beyond root search
    sqrt2 = lambda c: {"rat": "0", "irr": c, "disc": 2}
    p = tmp_path / "ds.json"
    p.write_text(json.dumps({"xtype": "DS", "n": 4, "q": 2,
                             "k": [sqrt2("1"), 1, 3, sqrt2("1/192")]}))
    code, rep = run(capsys, "extract", str(p))
    assert code == 0
    assert {"name": "huang-dual-route-agreement", "passed": True} in rep["checks"]
    assert rep["huang_plus"]["a"] == sqrt2("4")


def test_extract_certifies_each_half_once_without_recognition(capsys, monkeypatch,
                                                              flagship_descriptor):
    import dahalink.cli as cli
    import dahalink.daha as daha
    import dahalink.leonard as leonard

    calls = {name: 0 for name in ("recognize_leonard_pair", "split_sequence",
                                  "huang_data_from_array")}
    for name in calls:
        original = getattr(leonard, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for layer in (leonard, daha, cli):
            if hasattr(layer, name):
                monkeypatch.setattr(layer, name, counting)
    code, rep = run(capsys, "extract", flagship_descriptor)
    assert code == 0
    assert {"name": "huang-dual-route-agreement", "passed": True} in rep["checks"]
    # the array read off each half's bidiagonals and one Huang computation
    # per half are the certificate
    assert calls == {"recognize_leonard_pair": 0, "split_sequence": 0,
                     "huang_data_from_array": 2}


@pytest.mark.parametrize("descriptor", [
    {"xtype": "DS", "n": 2, "q": 2, "k": [3, 5, 7, "1/840"]},
    {"xtype": "DDa", "n": 3, "q": 2, "k": ["1/4", 3, 7, 5]},
    {"xtype": "DDb", "n": 3, "q": 2, "k": ["1/11", 5, "1/13", "-1/4"]},
    {"xtype": "SSa", "n": 3, "q": 2, "k": [3, "1/4", 5, 11]},
    {"xtype": "SSb", "n": 3, "q": 2, "k": ["1/13", 3, "1/4", "1/11"]},
], ids=lambda d: d["xtype"])
def test_extracted_pair_links_and_constructs_in_both_orders(capsys, tmp_path, descriptor):
    p = tmp_path / "module.json"
    p.write_text(json.dumps(descriptor))
    code, rep = run(capsys, "extract", str(p))
    assert code == 0
    files = []
    for name in ("huang_plus", "huang_minus"):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(rep[name]))
    for order in ((0, 1), (1, 0)):
        code, rep = run(capsys, "link", *(str(files[i]) for i in order), "--construct")
        assert code == 0, rep
        assert {"name": "extraction-reproduces-inputs", "passed": True} in rep["checks"]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])      # direct and exchanged
def test_link_reproduction_check_can_fail(capsys, tmp_path, monkeypatch, order):
    import dahalink.daha as daha
    from dahalink.leonard import HuangData

    original = daha.restricted_leonard_pairs

    def doubled_a(m):
        (pair, h), minus = original(m)
        return (pair, HuangData(h.a * 2, h.b, h.c, h.d)), minus

    monkeypatch.setattr(daha, "restricted_leonard_pairs", doubled_a)
    files = [write_huang(tmp_path, "h1.json", 3, 5, 7, 2),
             write_huang(tmp_path, "h2.json", 3, 5, 7, 0)]
    code, rep = run(capsys, "link", *(files[i] for i in order), "--construct")
    assert code == 2
    assert rep["checks"] == [{"name": "linked", "passed": True},
                             {"name": "extraction-reproduces-inputs", "passed": False}]
    assert rep["module"]["xtype"] == "DDa" and rep["module"]["n"] == 3
    assert rep["extracted"]["huang_plus"]["a"]["rat"] == "6"


def test_link_construct_scans_the_case_rows_once_per_construction(capsys, tmp_path, monkeypatch):
    import dahalink.cli as cli
    import dahalink.daha as daha

    calls = []
    original = daha.link_check

    def counting(h, h2, q):
        calls.append((h.d, h2.d))
        return original(h, h2, q)

    monkeypatch.setattr(daha, "link_check", counting)
    monkeypatch.setattr(cli, "link_check", counting)
    h1 = write_huang(tmp_path, "h1.json", 3, 5, 7, 2)
    h2 = write_huang(tmp_path, "h2.json", 3, 5, 7, 0)
    code, rep = run(capsys, "link", h1, h2, "--construct")
    assert code == 0 and rep["exchanged"] is False and calls == [(2, 0)]
    calls.clear()
    code, rep = run(capsys, "link", h2, h1, "--construct")
    assert code == 0 and rep["exchanged"] is True and rep["case_used"]["case"] == "vii"
    assert calls == [(0, 2), (2, 0)]      # the command's scan, then the exchanged inner one
