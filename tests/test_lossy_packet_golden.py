"""A bit-for-bit golden of packet-tier outputs on lossy, jittery paths.

The e2e goldens check loss and jitter draws only in CI; this pins them
in tier-1.  A small Dataset-A campaign runs on the packet tier with the
replay cache off, over client links that drop 2% of packets and stock
service profiles whose FE-BE links jitter, and its every session event,
FE fetch record and BE query record hash to the recorded digest.
"""

import hashlib

from repro.content.keywords import KeywordCatalog
from repro.measure.driver import run_dataset_a
from repro.testbed.scenario import Scenario, ScenarioConfig

#: sha256 of the campaign below, recorded before the packet path was
#: flattened to one call per hop.
DIGEST = ("301847e6237015f841493bd0f9e4d468"
          "3aa24fd65b64b77933e205f78f747c9f")


def campaign_digest(scenario, dataset):
    """sha256 over every session event and the FE and BE logs."""
    digest = hashlib.sha256()
    for session in dataset.sessions:
        digest.update(repr((
            session.query_id, session.service, session.vp_name,
            session.fe_name, session.local_port, session.started_at,
            session.completed_at, session.failed, session.response_size,
            [(e.time, e.direction, e.src, e.dst, e.sport, e.dport,
              e.wire_size, e.payload_len, e.seq, e.ack, e.syn, e.fin,
              e.ack_flag, e.retransmit) for e in session.events],
        )).encode())
    for name in scenario.services:
        deployment = scenario.service(name)
        digest.update(repr(sorted(
            (key, rec.query_id, rec.forwarded_at, rec.completed_at,
             rec.response_size)
            for key, rec in deployment.merged_fetch_log().items())).encode())
        digest.update(repr(sorted(
            (key, rec.query_id, rec.keyword_text, rec.arrival_time,
             rec.tproc, rec.response_size, rec.completed_time)
            for key, rec in deployment.merged_query_log().items())).encode())
    return digest.hexdigest()


def test_lossy_jittery_packet_campaign_is_bit_identical():
    scenario = Scenario(ScenarioConfig(seed=5, vantage_count=4,
                                       client_loss_rate=0.02))
    keywords = KeywordCatalog(seed=5).figure3_set()[:2]
    dataset = run_dataset_a(scenario, keywords, repeats=3, tier="packet",
                            replay_cache=False)
    links = [link for node in scenario.topology.nodes.values()
             for link in node.links.values()]
    assert any(link.jitter for link in links)
    # Loss really happened on the captured paths: segments were resent.
    events = [e for s in dataset.sessions for e in s.events]
    assert any(e.retransmit for e in events)
    assert len(dataset.sessions) == 24
    assert all(s.complete for s in dataset.sessions)
    assert campaign_digest(scenario, dataset) == DIGEST
