"""Session driver: one replicated effect, one the fast path misses."""


def submit(service, stack, keyword, qid, seq, frame, outcome):
    service.register(keyword)
    service.note_query(qid)
    stack.transmit(seq, frame)
    service.result_log[qid] = outcome  # expect: EFF001
