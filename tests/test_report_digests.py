"""Every report of the committed corpus is byte-identical to the recorded one.

The corpus (``tests/report_corpus.py``) covers ``construct``, ``verify``
and ``extract`` on every X-type for n <= 9 and q in {2, 3, -2}, infeasible,
invalid and tampered modules included, one module over Q(sqrt 2),
``link`` with and without ``--construct`` in both argument orders and all
three ``--sign`` modes, and ``check-huang``.
"""

import json

import report_corpus


def test_every_report_matches_its_recorded_digest(tmp_path):
    cases, texts = report_corpus.load()
    assert len(cases) >= 600
    mismatches, modules = [], {}
    for case, expected in zip(cases, texts):
        code, text, digest = report_corpus.run_case(case, tmp_path, modules)
        if (code, digest) != (case["code"], case["sha256"]):
            mismatches.append(
                f"argv {case['argv']}\nfiles {json.dumps(case['files'])}\n"
                f"exit code {code}, recorded {case['code']}\n"
                f"--- recorded report\n{expected}\n--- new report\n{text}")
    assert not mismatches, (f"{len(mismatches)} of {len(cases)} reports changed; "
                            "the first:\n" + "\n\n".join(mismatches[:3]))
