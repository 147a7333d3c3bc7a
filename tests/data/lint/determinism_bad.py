"""Fixture: every determinism rule fires here (see test_lint_rules).

Lines carrying an ``expect`` marker comment must produce exactly that
finding; the test fails on both missed and spurious findings.
"""

import os
import random
import time
from datetime import datetime

from repro.measure.driver import run_queries
from repro.sim.engine import Simulator


def timestamp():
    return time.time()  # expect: DET001


def report_day():
    return datetime.now()  # expect: DET001


def session_token():
    return os.urandom(8)  # expect: DET002


def jitter():
    return random.random()  # expect: DET003


def pick_first(candidates):
    random.shuffle(candidates)  # expect: DET003
    return candidates[0]


def stream_seed(name):
    seed = hash(name)  # expect: DET004
    return seed


def seeded_rng(name):
    return random.Random(hash(name))  # expect: DET004


def order_sites(sites):
    return sorted(sites, key=hash)  # expect: DET004


def bucket_of(name):
    return hash(name) % 7  # expect: DET004


def schedule_all(sim: Simulator, nodes):
    pending = {node for node in nodes}
    for node in pending:  # expect: DET005
        sim.schedule(0.0, node.start)


def plan_all(scenario, vp, service, frontend, keywords):
    plan = []
    for keyword in set(keywords):  # expect: DET005
        plan.append((scenario.sim.now, vp, service, frontend, keyword))
    return run_queries(scenario, plan)
