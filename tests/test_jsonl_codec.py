"""The ``.jsonl`` codec pinned from outside: bytes, columns, error lines.

``trace_to_jsonl`` / ``trace_from_jsonl`` work a column at a time.  The
per-event encoder and decoder they replaced live on here, as the
reference every property below compares against, next to a golden file
written by that per-event encoder before the column codec existed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.tracing.events import EventLog, EventType
from repro.tracing.reader import read_trace, trace_from_jsonl
from repro.tracing.trace import Trace
from repro.tracing.writer import FORMAT_VERSION, _jsonable_meta, trace_to_jsonl

from conftest import examples

GOLDEN = Path(__file__).parent / "data" / "trace_golden.jsonl"
GOLDEN_SHA256 = "b4847e5015e9515d187698d1a8e090c68cd8b7a4a1dbab0fa785a1f81379504b"

COLUMNS = ("timestamps", "etypes", "a", "b", "c", "d")
DTYPES = (np.float64, np.int8, np.int64, np.int64, np.int64, np.int64)


# ----------------------------------------------------------------------
# The reference: the per-event codec as it stood before the column codec
# ----------------------------------------------------------------------
def reference_to_jsonl(trace: Trace) -> str:
    lines = [
        json.dumps(
            {
                "kind": "header",
                "version": FORMAT_VERSION,
                "ranks": trace.ranks,
                "meta": _jsonable_meta(trace.meta),
            }
        )
    ]
    for rank in trace.ranks:
        log = trace.logs[rank]
        ts, et = log.timestamps, log.etypes
        a, b, c, d = log.a, log.b, log.c, log.d
        for i in range(len(log)):
            lines.append(
                json.dumps(
                    {
                        "kind": "event",
                        "rank": rank,
                        "ts": float(ts[i]),
                        "type": EventType(int(et[i])).name,
                        "a": int(a[i]),
                        "b": int(b[i]),
                        "c": int(c[i]),
                        "d": int(d[i]),
                    }
                )
            )
    return "\n".join(lines) + "\n"


def reference_from_jsonl(text: str) -> Trace:
    logs_raw: dict[int, list[dict]] = {}
    header = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if obj["kind"] == "header":
            header = obj
        else:
            logs_raw.setdefault(int(obj["rank"]), []).append(obj)
    logs = {}
    for rank in header["ranks"]:
        log = EventLog()
        for ev in logs_raw.get(int(rank), []):
            log.append(ev["ts"], EventType[ev["type"]], ev["a"], ev["b"], ev["c"], ev["d"])
        logs[int(rank)] = log.freeze()
    return Trace(logs, meta=header.get("meta", {}))


def assert_same_columns(got: Trace, want: Trace) -> None:
    assert got.ranks == want.ranks
    for rank in want.ranks:
        for name, dtype in zip(COLUMNS, DTYPES):
            g, w = getattr(got.logs[rank], name), getattr(want.logs[rank], name)
            assert g.dtype == w.dtype == dtype, (rank, name)
            if name == "timestamps":  # the text has one NaN, not 2**52 of them
                g, w = (np.where(np.isnan(x), np.nan, x) for x in (g, w))
            # Bit patterns, so that -0.0 != 0.0 and NaN == NaN.
            assert g.tobytes() == w.tobytes(), (rank, name)


# ----------------------------------------------------------------------
# (a) Golden bytes
# ----------------------------------------------------------------------
def golden_trace() -> Trace:
    """Every event type, awkward stamps and attributes, a rank with no events."""
    stamps = [-0.0, 5e-324, 1e22, float("nan"), float("inf"), float("-inf"),
              0.1, 1.0000000000000002, 123456.789e-9, 2.5, 3.0, 1e-7]
    log0 = EventLog()
    for i, (stamp, etype) in enumerate(zip(stamps, EventType)):
        log0.append(stamp, etype, a=-i, b=2**31 + i, c=-(2**63) + i, d=2**63 - 1 - i)
    log3 = EventLog()
    log3.append(1.5, EventType.SEND, a=0, b=7, c=64, d=0)
    log3.append(2.25, EventType.RECV, a=0, b=7, c=64, d=1)
    return Trace(
        {0: log0, 2: EventLog().freeze(), 3: log3},
        meta={
            "machine": "xeon",
            "locations": [(0, 0, 0), (1, 0, 1)],
            "offsets": np.array([0.5, -1e-6]),
            "text": "caf\u00e9 \u2028 \"quoted\"",
            "duration": 2.0,
            "lmin": None,
        },
    )


class TestGolden:
    def test_file_is_the_one_committed(self):
        assert hashlib.sha256(GOLDEN.read_bytes()).hexdigest() == GOLDEN_SHA256

    def test_encoder_writes_the_golden_bytes(self):
        assert trace_to_jsonl(golden_trace()).encode("utf-8") == GOLDEN.read_bytes()

    def test_decoder_reads_the_golden_columns(self):
        decoded = read_trace(GOLDEN)
        want = golden_trace()
        assert_same_columns(decoded, want)
        assert len(decoded.logs[2]) == 0
        assert decoded.meta == json.loads(json.dumps(_jsonable_meta(want.meta)))
        assert trace_to_jsonl(decoded).encode("utf-8") == GOLDEN.read_bytes()


# ----------------------------------------------------------------------
# (b) Column codec == per-event codec, on random traces and noisy text
# ----------------------------------------------------------------------
_int64 = st.integers(-(2**63), 2**63 - 1)
_stamp = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([-0.0, 5e-324, 1e22, 1e-7, 0.1]),
)
_event = st.tuples(_stamp, st.sampled_from(list(EventType)), _int64, _int64, _int64, _int64)
_trace_logs = st.dictionaries(
    st.integers(0, 40), st.lists(_event, max_size=12), min_size=1, max_size=4
)


def _build(logs: dict) -> Trace:
    built = {}
    for rank, events in logs.items():
        log = EventLog()
        for event in events:
            log.append(*event)
        built[rank] = log
    return Trace(built, meta={"nonce": sorted(logs), "t": (1, 2)})


@st.composite
def _noisy_text(draw):
    """Canonical text of a random trace, with everything a tolerant
    reader accepts mixed in: blank lines, CRLF, padding, a repeated
    header (last wins), events of a rank the header does not list."""
    trace = _build(draw(_trace_logs))
    lines = reference_to_jsonl(trace).splitlines()
    header, events = lines[0], lines[1:]
    stray_rank = max(trace.ranks) + 1
    stray = json.dumps({"kind": "event", "rank": stray_rank, "ts": 1.0,
                        "type": "ENTER", "a": 0, "b": 0, "c": 0, "d": 0})
    stale = json.dumps({"kind": "header", "version": FORMAT_VERSION,
                        "ranks": [stray_rank], "meta": {"stale": True}})
    body = list(events)
    for extra in draw(st.lists(st.sampled_from(["", "   ", stray]), max_size=4)):
        body.insert(draw(st.integers(0, len(body))), extra)
    body.insert(draw(st.integers(0, len(body))), header)
    body = draw(st.sampled_from([[], [""], ["", " "]])) + [stale] + body  # `header` is later: it wins
    pad = draw(st.sampled_from(["", " ", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return trace, "".join(f"{pad}{line}{pad}{newline}" for line in body)


class TestAgainstPerEventCodec:
    @examples(200)
    @given(logs=_trace_logs)
    def test_encoder_is_byte_identical_and_round_trips(self, logs):
        trace = _build(logs)
        text = trace_to_jsonl(trace)
        assert text == reference_to_jsonl(trace)
        assert_same_columns(trace_from_jsonl(text), trace)
        assert trace_to_jsonl(trace_from_jsonl(text)) == text

    @examples(200)
    @given(case=_noisy_text())
    def test_decoder_matches_column_for_column(self, case):
        trace, text = case
        decoded = trace_from_jsonl(text)
        assert_same_columns(decoded, reference_from_jsonl(text))
        assert_same_columns(decoded, trace)
        assert decoded.meta == reference_from_jsonl(text).meta

    def test_unknown_event_code_still_refuses_to_encode(self):
        log = EventLog.from_arrays([1.0, 2.0], [0, 99], [0, 0], [0, 0], [0, 0], [0, 0])
        with pytest.raises(ValueError, match="99 is not a valid EventType"):
            trace_to_jsonl(Trace({0: log}))
        with pytest.raises(ValueError, match="99 is not a valid EventType"):
            reference_to_jsonl(Trace({0: log}))

    def test_integer_stamps_decode_as_float64(self):
        text = _HEADER + _event_line(ts=3) + _event_line(ts=2**53 + 1)
        assert_same_columns(trace_from_jsonl(text), reference_from_jsonl(text))
        assert trace_from_jsonl(text).logs[0].timestamps.tolist() == [3.0, float(2**53)]


# ----------------------------------------------------------------------
# (c) Errors name the line, blank lines included, and the field
# ----------------------------------------------------------------------
_HEADER = '{"kind": "header", "version": 1, "ranks": [0], "meta": {}}\n'


def _event_line(**overrides) -> str:
    record = {"kind": "event", "rank": 0, "ts": 1.0, "type": "ENTER",
              "a": 0, "b": 0, "c": 0, "d": 0}
    record.update(overrides)
    return json.dumps({k: v for k, v in record.items() if v is not ...}) + "\n"


#: (the second event record of the payload, what the message must name)
MALFORMED = [
    pytest.param(_event_line(ts=...), "'ts'", id="no-ts"),
    pytest.param(_event_line(rank=...), "'rank'", id="no-rank"),
    pytest.param(_event_line(type=...), "'type'", id="no-type"),
    pytest.param(_event_line(a=...), "'a'", id="no-a"),
    pytest.param(_event_line(d=...), "'d'", id="no-d"),
    pytest.param("[1, 2]\n", "unknown record kind", id="not-an-object"),
    pytest.param('"event"\n', "unknown record kind", id="a-string"),
    pytest.param(_event_line(ts="abc"), "'ts' must be a JSON number", id="ts-string"),
    pytest.param(_event_line(ts=True), "'ts' must be a JSON number", id="ts-bool"),
    pytest.param(_event_line(ts=None), "'ts' must be a JSON number", id="ts-null"),
    pytest.param(_event_line(ts=10**400), "'ts' must be a JSON number", id="ts-huge"),
    pytest.param(_event_line(a=99999999999999999999999), "'a' must be a JSON integer within int64",
                 id="a-overflow"),
    pytest.param(_event_line(b=1.5), "'b' must be a JSON integer", id="b-fraction"),
    pytest.param(_event_line(c="7"), "'c' must be a JSON integer", id="c-string"),
    pytest.param(_event_line(d=False), "'d' must be a JSON integer", id="d-bool"),
    pytest.param(_event_line(rank=[]), "'rank' must be a JSON integer", id="rank-list"),
    pytest.param(_event_line(rank=0.0), "'rank' must be a JSON integer", id="rank-float"),
    pytest.param(_event_line(rank="0"), "'rank' must be a JSON integer", id="rank-string"),
    pytest.param(_event_line(rank=2**63), "'rank' must be a JSON integer within int64",
                 id="rank-overflow"),
    pytest.param(_event_line(type=[]), "unknown event type \\[\\]", id="type-list"),
    pytest.param(_event_line(type=3), "unknown event type 3", id="type-code"),
    pytest.param(_event_line(type="WAT"), "unknown event type 'WAT'", id="type-name"),
]


def malformed_payload(record: str) -> str:
    """Header, a blank line, a good event, then ``record`` on line 4."""
    return _HEADER + "\n" + _event_line() + record + _event_line(ts=2.0)


class TestMalformedRecords:
    @pytest.mark.parametrize("record, names", MALFORMED)
    def test_text_names_line_and_field(self, record, names):
        with pytest.raises(TraceFormatError, match=f"^<payload>:4: .*{names}"):
            trace_from_jsonl(malformed_payload(record), label="<payload>")

    @pytest.mark.parametrize("record, names", MALFORMED)
    def test_file_names_line_and_field(self, record, names, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(malformed_payload(record), encoding="utf-8")
        with pytest.raises(TraceFormatError, match=f"bad.jsonl:4: .*{names}"):
            read_trace(path)

    def test_first_bad_record_of_a_column_is_the_one_named(self):
        text = _HEADER + _event_line() + _event_line(a=1.5) + _event_line(a="x")
        with pytest.raises(TraceFormatError, match="^<jsonl>:3: 'a' must .* got 1.5$"):
            trace_from_jsonl(text)

    @pytest.mark.parametrize(
        "header",
        [
            '{"kind": "header", "version": 1, "meta": {}}',
            '{"kind": "header", "version": 1, "ranks": 3}',
            '{"kind": "header", "version": 1, "ranks": ["0"]}',
            '{"kind": "header", "version": 1, "ranks": [0.0]}',
            '{"kind": "header", "version": 1, "ranks": [true]}',
        ],
    )
    def test_header_ranks_must_be_integers(self, header):
        with pytest.raises(TraceFormatError, match="<jsonl>: header 'ranks' must be"):
            trace_from_jsonl(header + "\n" + _event_line())

    def test_header_meta_must_be_an_object(self):
        header = '{"kind": "header", "version": 1, "ranks": [0], "meta": [1, 2]}\n'
        with pytest.raises(TraceFormatError, match="<jsonl>: header .* 'meta' an object"):
            trace_from_jsonl(header)


class TestOneValuePerLine:
    """Per-line strictness: nothing a line-joining parser would let through."""

    def test_line_numbers_count_blank_lines(self):
        text = "\n\n" + _HEADER + "\r\n   \n" + _event_line() + "{not json\n"
        with pytest.raises(TraceFormatError, match="^<jsonl>:7: invalid JSON$"):
            trace_from_jsonl(text)

    @pytest.mark.parametrize(
        "bad",
        [
            _event_line().rstrip("\n") + " " + _event_line(),  # two values on one line
            _event_line().rstrip("\n") + ",\n",
            _event_line().replace(', "a"', ',\n"a"'),  # one value straddling two lines
            "\ufeff" + _event_line(),
            "{\n",
            "nul\n",
        ],
    )
    def test_rejected_as_invalid_json_on_line_2(self, bad):
        with pytest.raises(TraceFormatError, match="^<jsonl>:2: invalid JSON$"):
            trace_from_jsonl(_HEADER + bad)

    def test_unknown_kind_names_its_line(self):
        with pytest.raises(TraceFormatError, match="^<jsonl>:3: unknown record kind 'footer'$"):
            trace_from_jsonl(_HEADER + "\n" + '{"kind": "footer"}\n')

    def test_missing_header_and_version_texts_stay(self):
        with pytest.raises(TraceFormatError, match="^<jsonl>: missing header line$"):
            trace_from_jsonl(_event_line())
        with pytest.raises(TraceFormatError, match="^<jsonl>: format version 99 unsupported"):
            trace_from_jsonl('{"kind": "header", "version": 99, "ranks": [0]}\n')
