"""Session-path service code with a scope-consistent metric write."""


class Registry:
    def __init__(self):
        self.entries = {}

    def register(self, keyword):
        self.entries[keyword] = True

    def note_query(self, qid):
        # Host scope (the runtime default); the executor's replication
        # writes the same counter with sim scope -> EFF003 there.
        metrics.inc("fx.queries")
