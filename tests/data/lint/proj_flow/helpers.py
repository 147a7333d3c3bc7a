"""Nondeterminism sources for the proj_flow fixture.

``now`` is the single wall-clock read; everything downstream of it in
the other modules is reached only through these helpers.  DET001 fires
here, at the source, so a value derived from it can reach the event
queue, a seed or an exported trace field only through this one
reviewed line: no separate flow rule is needed downstream.
"""

import time


def now():
    return time.time()  # expect: DET001


def jittered(base):
    return base + now()
