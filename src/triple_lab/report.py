"""Structured pass/fail records and the package's one JSON encoding."""

from __future__ import annotations

import functools
import json
import math
import re
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInput

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_ADVISORY = "advisory"

_STATUSES = (STATUS_PASS, STATUS_FAIL, STATUS_ADVISORY)


def canonical_json(payload) -> str:
    """Sorted keys, no whitespace, ASCII: the text of every file the package
    writes, ``canonical_bytes`` decoded."""
    return canonical_bytes(payload).decode("ascii")


def canonical_bytes(payload) -> bytes:
    """The bytes of ``canonical_json``: sorted keys, no whitespace, ASCII;
    ``_canonical_pieces`` joined."""
    return b"".join(_canonical_pieces(payload))


def _canonical_pieces(payload) -> list:
    """The bytes of ``canonical_json`` as pieces, which ``write_json`` writes
    one by one and ``canonical_bytes`` joins.

    A dict may hold flat float arrays as values, as ``FlatEntries`` or as flat
    float64 ndarrays (the factor tensor and J of the wire format).  Each is
    written as ``json.dumps`` would write its list, by ``_float_array_pieces``,
    without boxing its zeros; the dict's other values go through
    ``json.dumps`` as any other payload does.  ``read_json`` reads every such
    file back, and ``read_json_array`` reads one array of it as
    ``FlatEntries``: the writer/reader pair of the factor files.
    One ``json.dumps`` call runs CPython's C encoder; ``json.dump`` always
    streams through the pure-Python encoder, which is 4-5x slower on the
    dense factor files (0.65 s against 0.14 s for the 6.8 MB ``III_R(8)``).
    """
    if isinstance(payload, dict) and any(map(_is_flat_floats, payload.values())):
        pieces = [b"{"]
        for index, key in enumerate(sorted(payload)):
            value = payload[key]
            pieces.append(f"{',' if index else ''}{_dumps(key)}:".encode("ascii"))
            if _is_flat_floats(value):
                pieces += _float_array_pieces(FlatEntries.of(value))
            else:
                pieces.append(_dumps(value).encode("ascii"))
        pieces.append(b"}")
        return pieces
    return [_dumps(payload).encode("ascii")]


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


class FlatEntries:
    """A float64 array of shape ``shape`` (an int is a flat array), held as the
    entries whose bits are not +0.0 (so -0.0, subnormals, NaN and infinities
    too): their C-order flat positions ``index``, ascending, and their
    ``values``.  Every other entry is +0.0.  A triple system stores its
    structure tensor in this form, and the factor files write and read it.
    ``dense()`` builds the array on first read and keeps it."""

    __slots__ = ("shape", "index", "values", "_dense")

    def __init__(self, shape, index, values):
        self.shape = (int(shape),) if np.ndim(shape) == 0 else tuple(shape)
        self.index, self.values, self._dense = index, values, None

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @staticmethod
    def of(array) -> "FlatEntries":
        """The entries of a flat float64 ndarray, or ``array`` itself if it is ``FlatEntries``."""
        if isinstance(array, FlatEntries):
            return array
        array = np.ascontiguousarray(array)
        index = np.flatnonzero(array.view(np.uint64))
        return FlatEntries(array.size, index, array[index])

    def flat(self) -> np.ndarray:
        """The array itself, flat and writable: +0.0 with the entries written in."""
        array = np.zeros(self.size)
        array[self.index] = self.values
        return array

    def dense(self) -> np.ndarray:
        """The array in its shape, C-ordered and read-only, built on first read and kept."""
        if self._dense is None:
            dense = self.flat().reshape(self.shape)
            dense.flags.writeable = False
            self._dense = dense
        return self._dense


def _is_flat_floats(value) -> bool:
    if isinstance(value, FlatEntries):
        return True
    return isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64


def _float_array_pieces(array: FlatEntries) -> list:
    """``json.dumps`` of the flat array's list, as pieces to join.

    The entries are encoded by one ``json.dumps`` call.  Every entry is
    followed by a comma but the last: the pieces are slices of that call's
    bytes and, for a run of k zeros, whose length the gap between two
    indices gives, of one "0.0," repeat.
    """
    if not array.size:
        return [b"[]"]
    inner = _dumps(array.values.tolist())[1:-1].encode("ascii")
    text = memoryview(inner + b"," if inner else b"")
    # offsets in ``text`` after 0, 1, 2, ... entries
    after = [0, *(np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord(",")) + 1).tolist()]
    # the zeros ahead of each entry, and after the last one
    gaps = np.diff(array.index, prepend=-1, append=array.size) - 1
    runs = memoryview(b"0.0," * int(gaps.max()))
    pieces, done = [b"["], 0
    at = np.flatnonzero(gaps)
    for before, k in zip(at.tolist(), gaps[at].tolist()):  # k zeros after ``before`` entries
        pieces += (text[after[done] : after[before]], runs[: 4 * k])
        done = before
    if done < len(after) - 1:
        pieces.append(text[after[done] : -1])
    else:  # the list ends on a run of zeros
        pieces[-1] = pieces[-1][:-1]
    pieces.append(b"]")
    return pieces


def write_text(text: str, path, what: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; InvalidInput if the file cannot be written."""
    _write_pieces([text.encode("utf-8")], path, what)


def _write_pieces(pieces: list, path, what: str) -> None:
    """Write the bytes-like ``pieces`` to ``path`` in order; InvalidInput if
    the file cannot be written."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise InvalidInput(f"cannot write {what} file {path}: {exc}") from exc


def write_json(payload, path) -> None:
    """Write ``canonical_bytes(payload)`` piece by piece: a factor file's
    bytes, about 4 n^4, are never joined in memory."""
    _write_pieces(_canonical_pieces(payload), path, "JSON")


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
# JSON numbers with a fraction or an exponent, as float repr writes them, each
# followed by its separator; an int token takes the json path, which parses
# "-0" to +0.0 where float() gives -0.0
_FLOAT_TOKENS = re.compile(
    rb"(?:-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)[,\]])*"
)
# bytes around the first byte outside "0.," of a nonzero entry, _AHEAD of them
# before it: float repr writes at most "0.000" ahead of that byte and at most
# 24 bytes in all ("-2.2250738585072014e-308"), so the window holds the entry
# and a separator on each side; a longer entry takes the json path
_WINDOW, _AHEAD = 32, 7
_ZERO_TOKEN = np.frombuffer(b"0.0", dtype=np.uint8)


def read_json_array(path, what: str, key: str):
    """``read_json(path, what)`` with the flat float list under the top-level
    ``key`` as ``FlatEntries``, read through its nonzero entries.

    The inverse of ``canonical_bytes`` on a dict holding a flat float64 array:
    only the key's list, in the form ``_float_array_pieces`` writes, is cut out
    of the bytes, and ``json.loads`` parses the rest.  A file in any other form
    (whitespace, int or ``0.00`` tokens, tokens longer than float repr writes,
    nested lists, the key's name twice) goes through ``read_json``, with its
    InvalidInput messages, and the key's list comes back as a list.
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
    """``FlatEntries`` of the array ``_float_array_pieces`` wrote as the text
    ``data[lo:hi]`` between the brackets; None unless each run of k zeros is k
    "0.0" entries and every other entry a float token that fits its window.

    A byte mask over the span finds the first byte outside "0.," of each
    nonzero entry, and a window around that byte bounds the entry.  The gaps
    between the entries are checked against "0.0," by their length, their
    first four bytes and the offsets where the span is not 4-periodic; the
    tokens, joined, by one regex match.
    """
    if lo == hi:
        return FlatEntries(0, np.zeros(0, dtype=np.intp), np.zeros(0))
    view = np.frombuffer(data, dtype=np.uint8)
    if view.size < _WINDOW:
        return None
    hits = _nonzero_bytes(data, lo, hi)
    starts, ends, values = [], [], []
    batch = max(1, SCAN_CHUNK // _WINDOW)  # hits whose windows span one chunk
    for at in range(0, hits.size, batch):
        entries = _entries_at(view, hits[at : at + batch])
        if entries is None:
            return None
        first, stop, tokens = entries
        if _FLOAT_TOKENS.fullmatch(tokens) is None:
            return None
        starts.append(first)
        ends.append(stop)
        values.append(np.array(list(map(float, tokens[:-1].split(b",")))))
    # the gaps between entries, and after the last one up to the "]" read as
    # its separator, are "0.0," runs: the first four bytes and 4-periodic
    gap_lo = np.concatenate([[lo - 1], *ends]) + 1
    gap_hi = np.concatenate([*starts, [hi + 1]])
    width = gap_hi - gap_lo
    if np.any(width % 4):
        return None
    opens = gap_lo[width > 0]
    head = sliding_window_view(view, 4)[opens]
    breaks = _period_breaks(view, lo, hi)
    if (
        not np.all(head[:, :3] == _ZERO_TOKEN)
        or not np.all((head[:, 3] == ord(",")) | (opens + 3 == hi))
        or np.any(np.searchsorted(breaks, gap_lo) < np.searchsorted(breaks, gap_hi - 4))
    ):
        return None
    zeros = width // 4
    index = np.cumsum(zeros[:-1]) + np.arange(zeros.size - 1)
    return FlatEntries(int(zeros.sum()) + index.size, index, np.concatenate([[], *values]))


def _nonzero_bytes(data: bytes, lo: int, hi: int) -> np.ndarray:
    """Ascending offsets in ``data[lo:hi]`` of the first byte outside "0.,"
    of each entry that has one: the bytes that neither a "0.0" entry nor a
    separator holds.  The span is masked one ``SCAN_CHUNK`` at a time."""
    span = np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)
    found = [np.zeros(0, dtype=np.intp)]
    last = lo - 1  # the last byte outside "0.," so far, or the "[" before the span
    for start in range(lo, hi, SCAN_CHUNK):
        chunk = span[start - lo : start - lo + SCAN_CHUNK]
        outside = np.flatnonzero((chunk != ord("0")) & (chunk != ord(".")) & (chunk != ord(",")))
        if outside.size:
            # an entry holds no comma: a byte starts one iff a comma lies between it and the last
            first = np.ones(outside.size, dtype=bool)
            first[0] = last < lo or data.find(b",", last, start + outside[0]) >= 0
            first[1:] = np.logical_or.reduceat(chunk == ord(","), outside)[:-1]
            last = start + outside[-1]
            found.append(outside[first] + start)
    return np.concatenate(found)


def _entries_at(view: np.ndarray, hits: np.ndarray):
    """(starts, ends, tokens) of the entries that hold ``hits``, ascending
    offsets of their first nonzero bytes: each entry's first byte, its
    separator (a ",", or the "[" or "]" around the list) and the entries'
    bytes each followed by its separator, joined; None when a window holds no
    separator before or after its hit."""
    # the windows' first bytes; a window at either end of ``data`` is shifted to fit
    rows = np.clip(hits - _AHEAD, 0, view.size - _WINDOW)
    window = sliding_window_view(view, _WINDOW)[rows]
    col = np.arange(_WINDOW)
    hit = (hits - rows)[:, None]
    sep = (window == ord(",")) | (window == ord("[")) | (window == ord("]"))
    before = sep & (col < hit)
    after = sep & (col >= hit)
    if not (np.all(before.any(axis=1)) and np.all(after.any(axis=1))):
        return None
    first = _WINDOW - np.argmax(before[:, ::-1], axis=1)  # one past the last separator
    stop = np.argmax(after, axis=1)
    token = (col >= first[:, None]) & (col <= stop[:, None])
    return rows + first, rows + stop, window[token].tobytes()


def _period_breaks(view: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Ascending offsets i in [lo, hi - 4) with ``view[i] != view[i + 4]``,
    one ``SCAN_CHUNK`` at a time: a run of "0.0," entries holds none."""
    found = [np.zeros(0, dtype=np.intp)]
    for start in range(lo, hi - 4, SCAN_CHUNK):
        stop = min(start + SCAN_CHUNK, hi - 4)
        found.append(np.flatnonzero(view[start:stop] != view[start + 4 : stop + 4]) + start)
    return np.concatenate(found)


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

    ``runtime_ms`` is the wall time of the call in milliseconds, to the
    microsecond.  It is volatile between runs, so the canonical JSON form
    omits it by default; pass ``include_timings=True`` to keep it.  A failing
    report must carry at least a residual, a witness, or failing sub-reports.
    """

    statement_id: str
    status: str
    residuals: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    seed: int | None = None
    runtime_ms: float = 0.0
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
            payload["runtime_ms"] = round(float(self.runtime_ms), 3)
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
    wall time of the call in ``runtime_ms``, in milliseconds rounded to the
    microsecond, so a check faster than a millisecond does not read 0."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        report = fn(*args, **kwargs)
        report.runtime_ms = round(1000 * (time.perf_counter() - start), 3)
        return report

    return wrapper
