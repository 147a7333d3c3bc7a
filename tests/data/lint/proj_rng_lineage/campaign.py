"""Campaign stream seeds: the namespace the pool module collides with."""


def stream_seed(seed, label):
    return derive_seed(seed, "pool/stream/%s" % label)
