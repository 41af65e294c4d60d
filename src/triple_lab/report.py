"""Structured pass/fail records and the package's one JSON encoding."""

from __future__ import annotations

import functools
import json
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_ADVISORY = "advisory"

_STATUSES = (STATUS_PASS, STATUS_FAIL, STATUS_ADVISORY)


def canonical_json(payload) -> str:
    """Sorted keys, no whitespace, ASCII: the bytes of every file the package writes.

    A dict may hold flat float64 ndarrays as values (the factor tensor and J
    of the wire format).  Each is written as ``json.dumps(values.tolist())``
    would write it, by ``_float_array_json``, without boxing its zeros; the
    dict's other values go through ``json.dumps`` as any other payload does.
    ``read_json`` reads every such file back, and ``read_json_array`` reads
    one array of it without boxing its zeros either: the writer/reader pair
    of the factor files.
    One ``json.dumps`` call runs CPython's C encoder; ``json.dump`` always
    streams through the pure-Python encoder, which is 4-5x slower on the
    dense factor files (0.65 s against 0.14 s for the 6.8 MB ``III_R(8)``).
    """
    if isinstance(payload, dict) and any(map(_is_flat_floats, payload.values())):
        items = (f"{_dumps(key)}:{_value_json(payload[key])}" for key in sorted(payload))
        return "{" + ",".join(items) + "}"
    return _dumps(payload)


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _is_flat_floats(value) -> bool:
    return isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64


def _value_json(value) -> str:
    return _float_array_json(value) if _is_flat_floats(value) else _dumps(value)


def _float_array_json(values: np.ndarray) -> str:
    """``json.dumps(values.tolist())`` for a flat float64 array, one run of zeros at a time.

    Only entries whose bits are +0.0 count as zeros; -0.0, subnormals, NaN and
    infinities are encoded with the nonzero entries by one ``json.dumps`` call
    and split on ",".  A run of k zeros is one k-fold string repeat.
    """
    zero = np.ascontiguousarray(values).view(np.uint64) == 0
    inner = _dumps(values[~zero].tolist())[1:-1]
    texts = inner.split(",") if inner else []
    # padded with False, the changes of ``zero`` alternate: run start, run end
    edges = np.flatnonzero(np.diff(zero, prepend=False, append=False)).tolist()
    pieces, done, zeros = [], 0, 0
    for start, end in zip(edges[0::2], edges[1::2]):
        before = start - zeros  # nonzero entries ahead of this run
        pieces += texts[done:before]
        pieces.append("0.0" + ",0.0" * (end - start - 1))
        done, zeros = before, zeros + end - start
    pieces += texts[done:]
    return "[" + ",".join(pieces) + "]"


def write_text(text: str, path, what: str) -> None:
    """Write ``text`` to ``path``; InvalidInput if the file cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write {what} file {path}: {exc}") from exc


def write_json(payload, path) -> None:
    write_text(canonical_json(payload), path, "JSON")


def read_json(path, what: str):
    """The parsed JSON file at ``path``; InvalidInput if it cannot be read or parsed.

    The reader of every file ``canonical_json`` writes; a factor file's tensor
    is read by ``read_json_array`` in place of this when it is in canonical form.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read {what} file {path}: {exc}") from exc


# bytes of the array text masked at once by ``_nonzero_bytes``: 1 MB
SCAN_CHUNK = 2**20
# a JSON number with a fraction or an exponent, as float repr writes it; an int
# token takes the json path, which parses "-0" to +0.0 where float() gives -0.0
_FLOAT_TOKEN = re.compile(rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)")


def read_json_array(path, what: str, key: str):
    """``read_json(path, what)`` with the flat float list under the top-level
    ``key`` as a float64 ndarray, read one run of zeros at a time.

    The inverse of ``canonical_json`` on a dict holding a flat float64 array:
    only the key's list, in the form ``_float_array_json`` writes, is cut out of
    the bytes, and ``json.loads`` parses the rest.  A file in any other form
    (whitespace, int or ``0.00`` tokens, nested lists, the key's name twice)
    goes through ``read_json``, with its InvalidInput messages.
    """
    try:
        with open(path, "rb") as fh:
            payload = _payload_with_array(fh.read(), key)
    except OSError:
        payload = None
    return read_json(path, what) if payload is None else payload


def _payload_with_array(data: bytes, key: str):
    """The JSON object in ``data`` with its ``key`` list parsed by
    ``_float_array_from_json``; None unless the file names the key once, as
    ``"key":[`` after ``{`` or ``,``, and the object parses around the list."""
    name = _dumps(key).encode("ascii")
    start = data.find(name)
    lo = start + len(name) + 2
    if start < 1 or data[start - 1] not in b"{," or data[lo - 2 : lo] != b":[":
        return None
    hi = data.find(b"]", lo)
    if hi < 0 or data.find(name, start + 1) >= 0:
        return None
    try:
        payload = json.loads((data[:lo] + data[hi:]).decode("utf-8"))
    except ValueError:
        return None
    if not isinstance(payload, dict) or payload.get(key) != []:
        return None
    values = _float_array_from_json(data, lo, hi)
    if values is None:
        return None
    payload[key] = values
    return payload


def _float_array_from_json(data: bytes, lo: int, hi: int):
    """The array ``_float_array_json`` wrote as the text ``data[lo:hi]`` between
    the brackets; None unless each run of k zeros is k "0.0" entries and every
    other entry a float token.

    A byte mask over the span finds the first byte outside "0.," of each
    nonzero entry; the run of zeros before the entry is checked by its length
    and one count.
    """
    index, values = [], []
    count, pos = 0, lo  # entries read; start of the next entry
    for found in _nonzero_bytes(data, lo, hi).tolist():
        if found < pos:
            continue  # the entry just read, cut by a chunk boundary
        comma = data.rfind(b",", pos, found)
        first = pos if comma < 0 else comma + 1
        last = data.find(b",", found, hi)
        last = hi if last < 0 else last
        zeros = _zero_run(data, pos, first)
        if zeros is None or _FLOAT_TOKEN.fullmatch(data, first, last) is None:
            return None
        index.append(count + zeros)
        values.append(float(data[first:last]))
        count, pos = count + zeros + 1, last + 1
    if lo < hi and pos <= hi:  # the list ends on a run of zeros
        zeros = _zero_run(data, pos, hi - 3) if data.endswith(b"0.0", pos, hi) else None
        if zeros is None:
            return None
        count += zeros + 1
    array = np.zeros(count)
    array[index] = values
    return array


def _nonzero_bytes(data: bytes, lo: int, hi: int) -> np.ndarray:
    """Ascending offsets in ``data[lo:hi]`` of the first byte outside "0.,"
    of each entry that has one: the bytes that neither a "0.0" entry nor a
    separator holds.  The span is masked one ``SCAN_CHUNK`` at a time; an
    entry cut by a chunk boundary may be listed twice."""
    span = np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)
    found = [np.zeros(0, dtype=np.intp)]
    for start in range(0, span.size, SCAN_CHUNK):
        chunk = span[start : start + SCAN_CHUNK]
        outside = np.flatnonzero((chunk != ord("0")) & (chunk != ord(".")) & (chunk != ord(",")))
        if outside.size:
            # an entry holds no comma: a byte starts one iff a comma lies between it and the last
            first = np.ones(outside.size, dtype=bool)
            first[1:] = np.logical_or.reduceat(chunk == ord(","), outside)[:-1]
            outside = outside[first]
        found.append(outside + (lo + start))
    return np.concatenate(found)


def _zero_run(data: bytes, start: int, stop: int):
    """k if ``data[start:stop]`` is "0.0," k times, else None."""
    k, rest = divmod(stop - start, 4)
    return k if rest == 0 and data.count(b"0.0,", start, stop) == k else None


def _plain(value):
    """Coerce numpy scalars/arrays into JSON-safe builtins."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if value is None or isinstance(value, (str, bool)):
        return value
    return str(value)


@dataclass
class Report:
    """Outcome of one verification statement.

    ``runtime_ms`` is volatile between runs, so the canonical JSON form omits
    it by default; pass ``include_timings=True`` to keep it.  A failing report
    must carry at least a residual, a witness, or failing sub-reports.
    """

    statement_id: str
    status: str
    residuals: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    seed: int | None = None
    runtime_ms: int = 0
    items: tuple = ()

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if (
            self.status == STATUS_FAIL
            and not self.residuals
            and not self.witnesses
            and not self.items
        ):
            raise ValueError("a failing report needs a residual or a witness")
        self.residuals = {str(k): float(v) for k, v in self.residuals.items()}
        self.witnesses = _plain(self.witnesses)
        self.items = tuple(self.items)

    @property
    def passed(self) -> bool:
        """Advisory statements never block."""
        return self.status != STATUS_FAIL

    @property
    def all_passed(self) -> bool:
        return self.passed and all(item.all_passed for item in self.items)

    def to_dict(self, include_timings: bool = False) -> dict:
        payload = {
            "statement_id": self.statement_id,
            "status": self.status,
            "residuals": self.residuals,
            "witnesses": self.witnesses,
            "seed": self.seed,
        }
        if include_timings:
            payload["runtime_ms"] = int(self.runtime_ms)
        if self.items:
            payload["items"] = [item.to_dict(include_timings) for item in self.items]
        return payload

    def to_json(self, include_timings: bool = False) -> str:
        return canonical_json(self.to_dict(include_timings))

    def worst_residual(self) -> float:
        values = [v for v in self.residuals.values()]
        values.extend(item.worst_residual() for item in self.items)
        values = [v for v in values if v == v]  # drop NaN placeholders
        return max(values) if values else float("nan")

    def to_markdown(self) -> str:
        lines = [
            f"# Report: {self.statement_id}",
            "",
            f"overall status: **{self.status}**" + (f" (seed {self.seed})" if self.seed is not None else ""),
            "",
            "| statement | status | worst residual |",
            "| --- | --- | --- |",
        ]
        reports = self.items if self.items else (self,)
        for rep in reports:
            worst = rep.worst_residual()
            shown = f"{worst:.3e}" if worst == worst else "-"
            lines.append(f"| {rep.statement_id} | {rep.status} | {shown} |")
        lines.append("")
        return "\n".join(lines)

    def flat_failures(self) -> list:
        found = [] if self.passed else [self]
        for item in self.items:
            found.extend(item.flat_failures())
        return found


def timed(fn):
    """Decorate a function returning a ``Report`` so that report carries the
    wall time of the call in ``runtime_ms``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        report = fn(*args, **kwargs)
        report.runtime_ms = int(1000 * (time.perf_counter() - start))
        return report

    return wrapper
