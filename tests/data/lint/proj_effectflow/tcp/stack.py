"""Session-path TCP code whose effect the executor replicates."""


class Stack:
    def __init__(self, node):
        self.packet_log = {}

    def transmit(self, seq, frame):
        # In the replication root's closure via
        # record_replayed_packet: no finding.
        self.packet_log[seq] = frame

    def record_replayed_packet(self, seq, frame):
        # The replication mechanism the executor delegates to.
        self.packet_log[seq] = frame
