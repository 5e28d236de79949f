"""numpy's C reader and the row loop read every population file alike.

`load_population` hands a file body to numpy's C reader when it can and falls
back to the row loop otherwise; the row loop is the definition of a valid
file.  These tests check that the two paths give the same values, down to the
sign of each zero, or raise the same exception with the same text.  The row
loop alone is reached by patching the C reader out.
"""
import io
import os
import threading
from contextlib import contextmanager, suppress
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sysmean import (
    DomainError,
    FinitePopulation,
    ParseError,
    load_population,
    population,
    sorted_by_auxiliary,
)


def _outcome(read):
    """Values as reprs (keeping the sign of zero), or the exception type and text."""
    try:
        pop = read()
    except Exception as exc:  # noqa: BLE001 - the exception itself is the outcome
        return type(exc), str(exc)
    return tuple(map(repr, pop.y.tolist())), tuple(map(repr, pop.x.tolist()))


@contextmanager
def _c_reader_calls():
    """Record whether each `_load_table` call returned a table."""
    calls = []
    original = population._load_table

    def spy(*args):
        table = original(*args)
        calls.append(table is not None)
        return table

    with mock.patch.object(population, "_load_table", spy):
        yield calls


def _by_rows(read):
    with mock.patch.object(population, "_load_table", return_value=None):
        return _outcome(read)


@contextmanager
def _pipe(data: bytes):
    """A non-seekable text source holding `data`, fed by a thread, so `data`
    may exceed the pipe's buffer."""
    read_fd, write_fd = os.pipe()

    def feed():
        with suppress(BrokenPipeError), os.fdopen(write_fd, "wb") as writer:
            writer.write(data)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        with open(read_fd, "r", encoding="utf-8-sig", newline="") as handle:
            yield handle
    finally:
        feeder.join()


NAMED_CASES = {
    # name: (file bytes, expected outcome, whether the C reader takes the body)
    "crlf": (b"y,x\r\n1.5,2\r\n-0.0,4e1\r\n", (("1.5", "-0.0"), ("2.0", "40.0")), True),
    "bare_cr": (b"y,x\r1,2\r3,4\r", (("1.0", "3.0"), ("2.0", "4.0")), True),
    "tab": (b"x\ty\tz\n1\t2\tq\n3\t4\tr\n", (("2.0", "4.0"), ("1.0", "3.0")), True),
    "quoted_cells": (b'y,x\n"1",2\n3,"4"\n', (("1.0", "3.0"), ("2.0", "4.0")), True),
    "quote_spans_lines": (
        b'y,x,note\n1,2,"a\n3,4\n5,6,b"\n7,8,c\n',
        (("1.0", "7.0"), ("2.0", "8.0")),
        True,
    ),
    # Cells where csv and numpy quoting could part ways.
    "text_after_closing_quote": (b'y,x\n"1"2,3\n4,5\n', (("12.0", "4.0"), ("3.0", "5.0")), True),
    "space_before_opening_quote": (
        b'y,x\n "1",3\n4,5\n',
        (ParseError, "row 1, column 'y': cannot parse '\"1\"' as a number"),
        False,
    ),
    "doubled_quote": (
        b'y,x\n"1""",3\n4,5\n',
        (ParseError, "row 1, column 'y': cannot parse '1\"' as a number"),
        False,
    ),
    "quoted_empty_cell": (
        b'y,x\n"",3\n4,5\n',
        (ParseError, "row 1, column 'y': cannot parse '' as a number"),
        False,
    ),
    "quoted_empty_row": (b'y,x\n1,2\n"",""\n4,5\n', (("1.0", "4.0"), ("2.0", "5.0")), False),
    "quoted_nan": (
        b'y,x\n1,2\n3,"nan"\n',
        (ParseError, "row 2, column 'x': value nan is not finite"),
        False,
    ),
    "quoted_overflow": (
        b'y,x\n"1e500",2\n3,4\n',
        (ParseError, "row 1, column 'y': value inf is not finite"),
        False,
    ),
    "underscore": (b"y,x\n1_0,2\n3,4\n", (("10.0", "3.0"), ("2.0", "4.0")), False),
    "non_ascii_digits": ("y,x\n١,2\n3,4\n".encode(), (("1.0", "3.0"), ("2.0", "4.0")), False),
    "trailing_blank_lines": (b"y,x\n1,2\n3,4\n\n\n", (("1.0", "3.0"), ("2.0", "4.0")), True),
    "whitespace_only_row": (b"y,x\n1,2\n \t \n3,4\n", (("1.0", "3.0"), ("2.0", "4.0")), False),
    "one_row": (b"y,x\n1,2\n", (DomainError, "need at least 2 data rows, got 1"), False),
    "empty_body": (b"y,x\n", (DomainError, "need at least 2 data rows, got 0"), False),
    "non_finite": (
        b"y,x\n1,2\n3,1e500\n",
        (ParseError, "row 2, column 'x': value inf is not finite"),
        False,
    ),
    "short_row": (b"y,x,z\n1,2,3\n4\n", (ParseError, "row 2 has 1 fields, expected 3"), False),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(NAMED_CASES))
def test_named_file_cases(tmp_path, name):
    data, expected, fast = NAMED_CASES[name]
    path = tmp_path / "pop.csv"
    path.write_bytes(data)
    with _c_reader_calls() as calls:
        assert _outcome(lambda: load_population(path)) == expected
    assert calls == [fast]
    assert _by_rows(lambda: load_population(path)) == expected
    # numpy reads an open source's body from a copy in memory, not by path.
    source = io.StringIO(data.decode(), newline="")
    with _c_reader_calls() as calls:
        assert _outcome(lambda: load_population(source)) == expected
    assert calls == [fast]


@pytest.mark.filterwarnings("error")
def test_c_reader_takes_a_long_quoted_body(tmp_path):
    # Quotes on every row, so each chunk that numpy reads holds some.
    rows = [(f'"{i}.5"', f"{-i}e-3") for i in range(4000)]
    path = tmp_path / "pop.csv"
    path.write_text("y,x\n" + "".join(f"{y},{x}\n" for y, x in rows), encoding="utf-8")
    with _c_reader_calls() as calls:
        outcome = _outcome(lambda: load_population(path))
    assert calls == [True]
    assert outcome == (
        tuple(repr(float(y.strip('"'))) for y, _ in rows),
        tuple(repr(float(x)) for _, x in rows),
    )
    assert _by_rows(lambda: load_population(path)) == outcome


@pytest.mark.filterwarnings("error")
def test_string_io_source_uses_the_c_reader():
    text = "y,x\n1,2\n3,4\n5,-0.0\n"
    with _c_reader_calls() as calls:
        outcome = _outcome(lambda: load_population(io.StringIO(text)))
    assert calls == [True]
    assert outcome == (("1.0", "3.0", "5.0"), ("2.0", "4.0", "-0.0"))
    assert _by_rows(lambda: load_population(io.StringIO(text))) == outcome


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data", [b"y,x\n1,2\n3,4\n", b"y,x\n1,2\nz,4\n"])
def test_a_pipe_is_read_as_its_file_is(tmp_path, data):
    path = tmp_path / "pop.csv"
    path.write_bytes(data)
    with _c_reader_calls() as calls:
        expected = _outcome(lambda: load_population(path))
    with _c_reader_calls() as pipe_calls, _pipe(data) as handle:
        assert _outcome(lambda: load_population(handle)) == expected
    assert pipe_calls == calls
    assert expected == _by_rows(lambda: load_population(path))


@contextmanager
def _numpy_sources():
    """Record the source that each `np.loadtxt` call reads."""
    sources = []
    original = population.np.loadtxt

    def spy(source, *args, **kwargs):
        sources.append(source)
        return original(source, *args, **kwargs)

    with mock.patch.object(population.np, "loadtxt", spy):
        yield sources


def _is_body_copy(source, text):
    return isinstance(source, io.StringIO) and source.getvalue() == text.split("\n", 1)[1]


@pytest.mark.filterwarnings("error")
def test_numpy_opens_a_path_itself_and_reads_any_other_body_from_memory(tmp_path):
    text = "y,x\n1,2\n3,4\n5,-0.0\n"
    path = tmp_path / "pop.csv"
    path.write_text(text, encoding="utf-8")
    expected = (("1.0", "3.0", "5.0"), ("2.0", "4.0", "-0.0"))
    for source in (path, str(path)):
        with _numpy_sources() as sources:
            assert _outcome(lambda: load_population(source)) == expected
        assert sources == [str(path)]
    with _numpy_sources() as sources:
        assert _outcome(lambda: load_population(io.StringIO(text))) == expected
    assert len(sources) == 1 and _is_body_copy(sources[0], text)
    # numpy would decompress this name, so it gets a copy of the body.
    named = tmp_path / "pop.csv.gz"
    named.write_text(text, encoding="utf-8")
    with _numpy_sources() as sources:
        assert _outcome(lambda: load_population(named)) == expected
    assert len(sources) == 1 and _is_body_copy(sources[0], text)


@pytest.mark.filterwarnings("error")
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_path_that_cannot_seek_is_read_from_memory(tmp_path):
    # numpy reopening a named pipe by its path would wait for a writer forever.
    text = "y,x\n1,2\n3,4\n"
    fifo = tmp_path / "pop.fifo"
    os.mkfifo(fifo)
    sources = []

    def spy(source, *args, **kwargs):
        sources.append(source)
        if isinstance(source, str):
            raise AssertionError(f"numpy was given the path {source}")
        return original(source, *args, **kwargs)

    def feed():
        with open(fifo, "w", encoding="utf-8") as writer:
            writer.write(text)

    original = population.np.loadtxt
    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        with mock.patch.object(population.np, "loadtxt", spy):
            outcome = _outcome(lambda: load_population(fifo))
    finally:
        feeder.join()
    assert outcome == (("1.0", "3.0"), ("2.0", "4.0"))
    assert len(sources) == 1 and _is_body_copy(sources[0], text)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_a_plain_text_file_with_a_compressed_suffix_reads_as_text(tmp_path, suffix):
    data = b"y,x\r\n1.5,2\r\n-0.0,4e1\r\n"
    plain, named = tmp_path / "pop.csv", tmp_path / f"pop.csv{suffix}"
    plain.write_bytes(data)
    named.write_bytes(data)
    assert _outcome(lambda: load_population(named)) == _outcome(lambda: load_population(plain))


@pytest.mark.filterwarnings("error")
def test_a_relative_path_that_looks_like_a_url_is_read_locally(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy tried to fetch a local file as a URL")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "host").mkdir(parents=True)
    (tmp_path / "http:" / "host" / "pop.csv").write_bytes(b"y,x\n1,2\n3,4\n")
    monkeypatch.setattr("urllib.request.urlopen", refuse)
    with _c_reader_calls() as calls:
        assert _outcome(lambda: load_population("http://host/pop.csv")) == (
            ("1.0", "3.0"), ("2.0", "4.0"),
        )
    assert calls == [True]


@pytest.mark.filterwarnings("error")
def test_a_path_through_a_symlink_and_dotdot_reads_the_file_open_reads(tmp_path, monkeypatch):
    # link/.. is the symlink target's parent, not tmp_path, which holds a decoy.
    (tmp_path / "elsewhere" / "target").mkdir(parents=True)
    (tmp_path / "elsewhere" / "pop.csv").write_bytes(b"y,x\n1,2\n3,4\n")
    (tmp_path / "link").symlink_to(tmp_path / "elsewhere" / "target")
    monkeypatch.chdir(tmp_path)
    expected = (("1.0", "3.0"), ("2.0", "4.0"))
    for decoy in (None, "pop.csv", "pop.csv.gz"):
        if decoy:
            (tmp_path / decoy).write_bytes(b"y,x\n5,6\n7,8\n")
        for source in ("link/../pop.csv", tmp_path / "link" / ".." / "pop.csv"):
            with _c_reader_calls() as calls:
                assert _outcome(lambda: load_population(source)) == expected
            assert calls == [True]
        if decoy:
            (tmp_path / decoy).unlink()


LONG_CELL = "a" * 200_000
FIELD_LIMIT_CASES = {
    # name: (file text, where the error is); `1_0` keeps the body from the C reader.
    "unquoted": (f"y,x,note\n1,2,{LONG_CELL}\n3,1_0,b\n", "row 1"),
    "quoted": (f'y,x,note\n1,2,"{LONG_CELL}"\n3,1_0,b\n', "row 1"),
    "after_a_blank_row": (f"y,x,note\n1_0,2,c\n\n3,4,{LONG_CELL}\n", "row 3"),
    "header": (f"y,x,{LONG_CELL}\n1,2,c\n3,4,b\n", "header"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(FIELD_LIMIT_CASES))
def test_a_cell_past_the_csv_field_limit_is_a_parse_error(tmp_path, name):
    text, where = FIELD_LIMIT_CASES[name]
    path = tmp_path / "pop.csv"
    path.write_text(text, encoding="utf-8")
    with _pipe(text.encode()) as handle:
        outcomes = [_outcome(lambda: load_population(source)) for source in (path, handle)]
    for kind, message in outcomes:
        assert kind is ParseError
        assert message.startswith(f"{where}: field larger than field limit")


@pytest.mark.filterwarnings("error")
def test_the_c_reader_takes_a_long_cell_in_a_body_it_reads_whole(tmp_path):
    text = f"y,x,note\n1,2,{LONG_CELL}\n3,4,b\n"
    path = tmp_path / "pop.csv"
    path.write_text(text, encoding="utf-8")
    expected = (("1.0", "3.0"), ("2.0", "4.0"))
    with _c_reader_calls() as calls:
        assert _outcome(lambda: load_population(path)) == expected
        with _pipe(text.encode()) as handle:
            assert _outcome(lambda: load_population(handle)) == expected
    assert calls == [True, True]
    assert _by_rows(lambda: load_population(path))[0] is ParseError


UNDECODABLE = {
    # name: (file bytes, the `_load_table` results before the error is raised)
    "header": (b"y,\xffx\n1,2\n3,4\n", []),
    # Reading the header decodes the file's first buffer, which holds the byte.
    "unquoted_body": (b"y,x\n1,2\n\xff,4\n3,5\n", []),
    # Past that buffer numpy meets the byte; its UnicodeDecodeError is a
    # ValueError, so the row loop reads the body again and raises.
    "quoted_body": (b'y,x\n"1",2\n' + b"3,4\n" * 40_000 + b"\xff,4\n", [False]),
    "long_unquoted_body": (b"y,x\n1,2\n" + b"3,4\n" * 40_000 + b"\xff,4\n", [False]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_non_utf8_bytes_are_a_parse_error(tmp_path, name):
    data, table_results = UNDECODABLE[name]
    path = tmp_path / "pop.csv"
    path.write_bytes(data)
    expected = (ParseError, "input is not UTF-8 text: invalid start byte 0xff")
    with _c_reader_calls() as calls:
        assert _outcome(lambda: load_population(path)) == expected
    assert calls == table_results
    assert _by_rows(lambda: load_population(path)) == expected
    # Read from a pipe, the body is decoded whole before either reader sees it.
    with _c_reader_calls() as calls, _pipe(data) as handle:
        assert _outcome(lambda: load_population(handle)) == expected
    assert calls == []


HEADERS = ["y,x", "x,y", "y,x,z", "z\ty\tx", "y\tx"]
NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
CELL = st.one_of(
    NUMBER,
    st.sampled_from(["nan", "inf", "-inf", "1e500", "0", "-0.0", " 7 ", ""]),
    st.text(alphabet="0123456789.eE+-_ \t,\"", max_size=6),
)
DELIMITER = st.sampled_from([",", "\t"])
FIELD = st.one_of(NUMBER, CELL.map(lambda cell: f'"{cell}"'))
LINE = st.one_of(
    # A pair whose cells may each be quoted whole.
    st.tuples(FIELD, FIELD, DELIMITER).map(lambda t: t[0] + t[2] + t[1]),
    # A valid pair followed by a quote that csv reads as opening or closing a field.
    st.tuples(NUMBER, NUMBER, DELIMITER, st.sampled_from(['"', '"a', 'b"', '""'])).map(
        lambda t: t[2].join(t[:2] + t[3:])
    ),
    st.lists(CELL, max_size=5).flatmap(lambda cells: DELIMITER.map(lambda d: d.join(cells))),
    st.sampled_from(["", " ", "\t", " ,\t"]),
)
ENDING = st.sampled_from(["\n", "\r\n", "\r"])
LINES = st.lists(st.tuples(LINE, ENDING), max_size=8)


def _well_formed_lines(header):
    """2 to 8 rows of numbers in the header's delimiter and width, each cell
    optionally quoted whole: bodies that the C reader takes."""
    delimiter = "\t" if "\t" in header else ","
    width = len(header.split(delimiter))
    cell = st.one_of(NUMBER, NUMBER.map(lambda number: f'"{number}"'))
    row = st.lists(cell, min_size=width, max_size=width).map(delimiter.join)
    return st.lists(st.tuples(row, ENDING), min_size=2, max_size=8)


@pytest.fixture(scope="module")
def body_file(tmp_path_factory):
    return tmp_path_factory.mktemp("ingestion") / "pop.csv"


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    header_and_lines=st.sampled_from(HEADERS).flatmap(
        lambda header: st.tuples(st.just(header), st.one_of(LINES, _well_formed_lines(header)))
    ),
    last_ending=st.booleans(),
)
def test_c_reader_agrees_with_row_loop(body_file, header_and_lines, last_ending):
    header, lines = header_and_lines
    text = header + "\n" + "".join(line + ending for line, ending in lines)
    if lines and not last_ending:
        text = text[: -len(lines[-1][1])]
    body_file.write_text(text, encoding="utf-8", newline="")
    expected = _by_rows(lambda: load_population(body_file))
    assert _outcome(lambda: load_population(body_file)) == expected
    source = io.StringIO(text, newline="")
    assert _outcome(lambda: load_population(source)) == expected


def _sorted_by_python(pop, by):
    """The stable Python sort that `sorted_by_auxiliary` replaced."""
    y, x = pop.y.tolist(), pop.x.tolist()
    key = x if by == "x" else y
    order = sorted(range(pop.N), key=lambda i: key[i])
    return tuple(y[i] for i in order), tuple(x[i] for i in order)


TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e300])


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(TIED, TIED), min_size=2, max_size=40),
    by=st.sampled_from(["x", "y"]),
)
def test_sort_matches_stable_python_sort(pairs, by):
    pop = FinitePopulation(y=tuple(p[0] for p in pairs), x=tuple(p[1] for p in pairs))
    out = sorted_by_auxiliary(pop, by=by)
    expected_y, expected_x = _sorted_by_python(pop, by)
    assert tuple(map(repr, out.y.tolist())) == tuple(map(repr, expected_y))
    assert tuple(map(repr, out.x.tolist())) == tuple(map(repr, expected_x))
