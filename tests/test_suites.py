import hashlib
import json

import pytest

from domdimlab import suites

# sha256 of json.dumps(items, sort_keys=True): the items of a suite's JSON
# report, so any change to a reported value, field or order shows here
SUITE_DIGESTS = {
    "paper-core": "e8074b1cb9354edc6ee769b2fe2a66d4e52a21d9c07605fc82d2ba7fa2790fc9",
    "main-inequality": "d98bd19adde5587f15f4489374e17ade57515f7f1e2b5b34f7d8dc13d9ad72ef",
    "oracle-cross": "0d2c7c75fc5dbd6067c09faa3248473e189d880350995815d1b3a9ce7f726fbc",
}
# read from the session's one run of the suite (the rigidity_sweep fixture)
RIGIDITY_SWEEP_DIGEST = "dff7c16db346ad15a1c42d4aeba75c533975bcc28fb70646c8fbf49e64ac8362"


def _digest(items):
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", SUITE_DIGESTS)
def test_suite_reports_are_pinned(name, request):
    # oracle-cross is read from the session's one run (the oracle_cross fixture)
    items, failures = (request.getfixturevalue("oracle_cross") if name == "oracle-cross"
                       else suites.SUITES[name]())
    assert failures == []
    assert _digest(items) == SUITE_DIGESTS[name]


def test_rigidity_sweep_report_is_pinned(rigidity_sweep):
    items, failures = rigidity_sweep
    assert failures == []
    assert _digest(items) == RIGIDITY_SWEEP_DIGEST
