"""The command line under hypothesis: every subcommand on small descriptor,
module and Huang files written from drawn JSON values.

Whatever the files hold, ``main`` prints one JSON object and returns an
exit code of the CLI's contract (0 to 4); no exception escapes it.  Drawn
values mix well-formed inputs (the flagship module, linked Huang data) with
junk: non-finite and fractional numbers (json reads 1e400 as infinity),
strings, nulls, wrong shapes and foreign fields.  The examples are
derandomized and no example database is kept.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from dahalink.cli import main
from dahalink.daha import XType, build_module
from dahalink.exactfield import QQ

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

_FLAGSHIP = build_module(XType.DDa, 3, tuple(QQ.rational(*k) for k in ((1, 4), (3,), (7,), (5,))),
                         QQ.rational(2)).to_json()

_number = st.one_of(st.integers(-12, 12),
                    st.sampled_from([0.5, 3.0, 3.7, float("inf"), float("-inf"), float("nan"),
                                     10 ** 30]))
_scalar = st.one_of(_number, st.none(), st.booleans(),
                    st.sampled_from(["1/4", "-3/2", "2", "1/0", "x", "", "1e400"]))
_element = st.one_of(_scalar, st.fixed_dictionaries({}, optional={
    "rat": _scalar, "irr": _scalar,
    "disc": st.one_of(st.sampled_from([1, 2, 5, -1, 0, 4, 210]), _number, _scalar)}))
_junk = st.recursive(_scalar, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.sampled_from(["a", "n", "entries", "t"]), inner,
                                       max_size=3), max_leaves=6)

_descriptor = st.one_of(
    st.just({key: _FLAGSHIP[key] for key in ("xtype", "n", "q", "k")}),
    st.fixed_dictionaries({
        "xtype": st.one_of(st.sampled_from([x.value for x in XType] + ["XY"]), _scalar),
        "n": st.one_of(st.integers(-1, 5), _number, _scalar),
        "q": st.one_of(st.sampled_from([2, 3, "1/2", 1]), _element),
        "k": st.one_of(st.lists(_element, min_size=4, max_size=4), _junk),
    }),
)


def _perturbed(t, where, value):
    """The flagship generators with one entry replaced by ``value``."""
    out = json.loads(json.dumps(t))
    gen, i, j = where
    out[gen]["entries"][i][j] = value
    return out


_generators = st.one_of(
    st.just(_FLAGSHIP["t"]),
    st.builds(_perturbed, st.just(_FLAGSHIP["t"]),
              st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), _element),
    st.lists(st.fixed_dictionaries({"entries": st.lists(st.lists(_element, max_size=3),
                                                        max_size=3)}), max_size=5),
    _junk,
)
_module = st.builds(lambda desc, t: dict(desc, t=t), _descriptor, _generators)

_huang = st.one_of(
    st.sampled_from([{"a": 3, "b": 5, "c": 7, "d": 2, "q": 2},
                     {"a": 3, "b": 5, "c": 7, "d": 0, "q": 2},
                     {"a": 6, "b": 10, "c": 14, "d": 1, "q": 2}]),
    st.fixed_dictionaries({"a": _element, "b": _element, "d": st.one_of(
        st.integers(-1, 3), _number, _scalar), "q": st.one_of(st.just(2), _element)},
        optional={"c": _element}),
    _junk,
)
# a full suite run takes about half a second, so only its fast exits are drawn
_suite = st.sampled_from([["--max-n", "256"], ["--max-n", "x"], ["--seed", "1.5"],
                          ["--bogus"], ["--max-n", "1e400"]])


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    report = json.loads(buf.getvalue())
    assert isinstance(report, dict)
    assert code in range(5)


@FUZZ
@given(desc=_descriptor, module=_module, h1=_huang, h2=_huang, suite=_suite,
       sign=st.sampled_from([[], ["--sign", "plus"], ["--sign", "minus"], ["--sign", "x"]]))
def test_every_subcommand_reports_json_with_a_contract_exit_code(desc, module, h1, h2,
                                                                  suite, sign):
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, data in (("desc", desc), ("module", module), ("h1", h1), ("h2", h2)):
            files[name] = str(Path(tmp) / f"{name}.json")
            Path(files[name]).write_text(json.dumps(data))
        for command in ("construct", "verify", "extract"):
            _run([command, files["desc"]])
        for command in ("verify", "extract"):
            _run([command, files["module"]])
        _run(["check-huang", files["h1"]])
        _run(["check-huang", files["h1"], files["h2"]])
        _run(["link", files["h1"], files["h2"]])
        _run(["link", files["h2"], files["h1"], "--construct", *sign])
        _run(["suite", *suite])
