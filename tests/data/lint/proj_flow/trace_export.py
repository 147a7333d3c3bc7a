"""A wall-clock value reaching an exported trace field.

The flow starts at ``helpers.now``, where DET001 fires.
"""

import json

from helpers import now


def export_spans(handle, spans):
    record = {"spans": spans, "generated_at": now()}
    handle.write(json.dumps(record))


def export_clean(handle, spans):
    handle.write(json.dumps({"spans": list(spans)}))
