"""Fast-path executor: a simflow replication root with one fabricated
effect and one scope-mismatched metric replication."""


class SessionExecutor:
    def __init__(self, sim):
        self.sim = sim
        self.ghost_log = {}

    def materialize(self, service, stack, entry, start):
        service.register(entry.keyword)
        self.sim.schedule_timeline(start, [
            (entry.offset, self._server_effects,
             (service, stack, entry)),
            (entry.duration, self._finalize, (entry,)),
        ])

    def _server_effects(self, service, stack, entry):
        metrics.inc("fx.queries", scope=SCOPE_SIM)  # expect: EFF003
        stack.record_replayed_packet(entry.seq, entry.frame)

    def _finalize(self, entry):
        self.ghost_log[entry.qid] = entry  # expect: EFF002
