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


@pytest.mark.parametrize("name", SUITE_DIGESTS)
def test_suite_reports_are_pinned(name):
    items, failures = suites.SUITES[name]()
    assert failures == []
    text = json.dumps(items, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGESTS[name]
