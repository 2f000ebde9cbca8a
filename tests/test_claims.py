"""The roadmap's recorded claims equal what the code computes now.

``claims.py`` computes them; a change that moves a claim regenerates
``claims.json`` with ``PYTHONPATH=src python tests/claims.py``.
"""

import json

import claims


def test_claims_match_the_recorded_entries():
    want = json.loads(claims.CLAIMS.read_text())
    assert claims.compute() == want
