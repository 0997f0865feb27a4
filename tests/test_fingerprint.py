"""The two digests of ``tests/fingerprint.py``, pinned.

``results`` covers the bases, flags, ``Stats`` and logs of 1,838 runs and
``calls`` the order in which the completion dequeues and cuts its pairs
(see the script's docstring).  A change that means to alter either
re-pins it here and says so, with the old and the new digest.
"""

import fingerprint

RESULTS = "fd996347fa75bfd39abce1aa1105b341af31052f74c39945008196b21dc41c2f"
CALLS = "68696fc27316b3fea3f988ac297118e176237ae5f40a7a4eb18bd2038ec8b676"


def test_fingerprint_digests_are_pinned():
    results, calls, runs = fingerprint.fingerprint()
    assert runs == 1838
    assert (results, calls) == (RESULTS, CALLS)
