"""filterlet's outputs on seeded chains equal the recorded golden digests.

``golden.py`` computes them; an intended change to an output is recorded by
regenerating ``golden.json`` with ``PYTHONPATH=src python tests/golden.py``.
"""

import json

import golden


def test_outputs_match_the_recorded_digests():
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.compute()
    assert sorted(got) == sorted(want)
    changed = {name: sorted(k for k in want[name]
                            if got[name].get(k) != want[name][k])
               for name in want if got[name] != want[name]}
    assert changed == {}
