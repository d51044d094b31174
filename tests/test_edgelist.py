import pytest

from convdom import Graph, ParseError, PreconditionError, make_Bn, make_cycle, make_path
from convdom.edgelist import decode, dump, parse, serialize


def test_parse_basic():
    g = parse("4 3\n0 1\n1 2\n2 3\n")
    assert g == make_path(4)


def test_parse_comments_blanks_and_crlf():
    text = "# a path\r\n\r\n4 3\r\n0 1  # first edge\r\n1 2\r\n2 3\r\n"
    assert parse(text) == make_path(4)


def test_round_trip_is_byte_identical():
    for g in (make_path(5), make_cycle(6), make_Bn(2), Graph.from_edges(1, [])):
        text = serialize(g)
        assert serialize(parse(text)) == text


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("", "missing", 1),
        ("3 1\n0 0\n", "loop", 2),
        ("3 2\n0 1\n0 1\n", "duplicate", 3),
        ("3 1\n1 0\n", "u < v", 2),
        ("3 1\n0 5\n", "outside", 2),
        ("3 2\n0 1\n", "declared 2", 1),
        ("3 1\n0 1\n1 2\n", "more than the declared", 3),
        ("3\n", "two integers", 1),
        ("3 x\n", "not a decimal integer", 1),
        # only LF or CRLF breaks a line
        ("3 2\x0c0 1\x0b1 2\n", "two integers", 1),
        ("2 1\r0 1\n", "two integers", 1),
        ("2 1\x1c0 1\n", "two integers", 1),
        ("2 1\x1d0 1\n", "two integers", 1),
        ("2 1\x1e0 1\n", "two integers", 1),
        ("2 1\r\r\n0 1\n", "not a decimal integer", 1),
        # integers are ASCII -?[0-9]+
        ("1_0 0\n", "not a decimal integer", 1),
        ("+3 0\n", "not a decimal integer", 1),
        ("3 1\n0 \uff12\n", "not a decimal integer", 2),
    ],
)
def test_parse_error_diagnostics(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_parse_error_column_points_at_token():
    with pytest.raises(ParseError) as err:
        parse("3 2\n0 1\n0 zz\n")
    assert err.value.line == 3
    assert err.value.column == 3


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("-1 -\n", 1, 4),
        ("3 1\n-0\t-\n", 2, 4),
        ("3 1\n0\t\tzz # 0 zz\n", 2, 4),
    ],
)
def test_parse_error_column_is_the_tokens_own(text, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)


def load(path):
    """Read an edge-list file the way the command line does."""
    return parse(decode(path.read_bytes()))


def test_file_round_trip(tmp_path):
    g = make_cycle(5)
    path = tmp_path / "c5.elist"
    dump(g, path)
    assert load(path) == g
    dump(g, path, comments=("hello",))
    assert load(path) == g
    assert path.read_text().startswith("# hello\n")


@pytest.mark.parametrize("comment", ["a\n5 0", "caf\xe9"])
def test_bad_comment_rejected_before_the_file_is_touched(tmp_path, comment):
    with pytest.raises(PreconditionError):
        serialize(make_path(2), (comment,))
    path = tmp_path / "kept.elist"
    dump(make_cycle(5), path)
    before = path.read_bytes()
    with pytest.raises(PreconditionError):
        dump(make_path(2), path, (comment,))
    assert path.read_bytes() == before


def test_non_ascii_rejected(tmp_path):
    path = tmp_path / "bad.elist"
    path.write_bytes("2 1\n0 1 # caf\xc3\xa9\n".encode("latin-1"))
    with pytest.raises(ParseError):
        load(path)
    with pytest.raises(ParseError):
        decode(b"2 1\n0 1 # \xff\n")


def test_load_breaks_lines_only_at_lf(tmp_path):
    path = tmp_path / "cr.elist"
    path.write_bytes(b"2 1\r0 1\r")
    with pytest.raises(ParseError):
        load(path)
    path.write_bytes(b"2 1\r\n0 1\r\n")
    assert load(path) == make_path(2)
