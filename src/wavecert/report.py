"""Deterministic report serialization.

Reports are emitted as JSON with keys sorted and two-space indentation.
Floats are spelled as Python's ``repr`` spells them, the shortest decimal
that reads back to the same double, so every value, ``-0.0`` included,
parses back bit for bit; non-finite ones are ``Infinity``, ``-Infinity`` and
``NaN``.  Text outside ASCII, a lone surrogate from a path byte that is not
UTF-8 included, is written as ``\\uXXXX`` escapes.  Identical inputs yield
byte-identical documents, which CI snapshot tests rely on; the wall-clock
duration field is the single intentionally nondeterministic entry and
consumers strip it (``strip_duration``) before comparing.  Grid dumps are
CSV (``write_csv``) and keep ``%.17g``.
"""

import numpy as np


def dumps_stable(obj) -> str:
    """Serialize to the stable JSON document, newline terminated."""
    import json  # imported on call, so importing this module does not load json

    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# rows per ``%`` in write_csv: 128 or 256 raised verify-3d peak RSS 1.6-1.9 MB over
# the value-by-value writer's, 16-64 at most 0.5 MB; 16 wrote ~7% slower than 32
CSV_BLOCK_ROWS = 32


def _spell_repeats(field):
    """``field``, or its ``%.17g`` strings formatted once per distinct float64
    bit pattern when it has at most one per four rows.  A Python set gathers
    the patterns a quarter of the rows at a time; sorting them (``np.sort``,
    ``np.unique``) was ~1.4 ms faster per ``verify-3d`` dump but faults in
    ~0.5 MB of numpy's sort code, which stays resident."""
    bits, distinct, quarter = field.view(np.int64), set(), len(field) // 4 + 1
    for start in range(0, len(field), quarter):
        distinct.update(bits[start : start + quarter].tolist())
        if 4 * len(distinct) > len(field):
            return field
    keys = np.array(sorted(distinct), dtype=np.int64)
    texts = np.array([format(v, ".17g") for v in keys.view(np.float64).tolist()], dtype=object)
    return texts[np.searchsorted(keys, bits)]


def write_csv(path, header, columns):
    """Write the header, then one CSV row per leading index of ``columns``.

    A 1-D column is one field, a 2-D one a field per entry of its second axis.
    Values print as ``%.17g`` of their float64 value (``inf``, ``nan``;
    integers below 1e17 as such), lines end with ``\\r\\n``: the output equals
    ``csv.writer`` over ``format(v, ".17g")`` fields.  A field with at most one
    distinct bit pattern per four rows (the grid axes, a ray dump's ``ray``
    and ``t_index``) is formatted once per pattern.  Bits, not values, key
    that lookup, so ``-0.0`` and ``0.0`` (or two NaN spellings) stay apart.
    """
    fields = [np.asarray(f, dtype=np.float64) for c in columns for f in (c.T if c.ndim == 2 else [c])]
    fields = [_spell_repeats(f) for f in fields]
    rows, width = len(columns[0]), len(fields)
    template = ",".join("%s" if f.dtype == object else "%.17g" for f in fields) + "\r\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            n = min(CSV_BLOCK_ROWS, rows - start)
            flat = [None] * (width * n)
            for k, field in enumerate(fields):
                flat[k::width] = field[start : start + n].tolist()
            handle.write(template * n % tuple(flat))


def strip_duration(text: str) -> str:
    """The report re-serialized without its top-level ``duration_seconds``,
    so two runs of the same config compare equal.  Every value reads back
    as it was written, a ``-0.0`` with its sign and an integer as an integer."""
    import json

    report = json.loads(text)
    report.pop("duration_seconds", None)
    return dumps_stable(report)
