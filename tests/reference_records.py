"""Reference canonical-line encoder: the differential oracle for
``repro.obs.records.TraceRecord.to_line``.

This is the body ``to_line`` had before the per-shape compiled encoder
replaced it: one ``json.dumps`` of the whole flat dict per record, keys
sorted, no whitespace, non-finite floats refused.  It is deliberately
slow and obvious.  The shipped encoder must produce the same ``str`` for
every record this accepts, and raise ``ValueError`` wherever this does —
which ``tests/test_records_differential.py`` holds it to.
"""

import json


def reference_line(record):
    return json.dumps(record.to_dict(), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)
