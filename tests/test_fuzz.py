"""Property tests: the three file readers never fail with anything but a ValueError.

Each reader gets arbitrary text and text shaped like its own format (a header
of small integers and keywords, then lines of integers).  Either it returns
a parsed object, or it raises a ValueError subclass, which the CLI maps to
exit code 2.
"""

import io

from hypothesis import given, settings, strategies as st

from minicode.cli import main
from minicode.families import FunctionSpec, read_function
from minicode.linalg import read_matrix
from minicode.minimality import Certificate, read_certificate

FUZZ = settings(max_examples=500, deadline=None, derandomize=True, database=None)

tiny_int = st.integers(-1, 4).map(str)
small_int = st.one_of(tiny_int, st.integers(-3, 300).map(str))
order = st.one_of(st.sampled_from(["2", "3", "4"]), small_int)
token = st.one_of(small_int, st.sampled_from(["", "x", "1.5", "|", "-", "0x3", "٣"]))
int_line = st.lists(tiny_int, max_size=5).map(" ".join)
class_line = st.tuples(int_line, int_line).map(" | ".join)
any_text = st.one_of(st.text(max_size=200), st.lists(token, max_size=12).map(" ".join))


@st.composite
def shaped(draw, fields, line=int_line):
    """A header, then up to three body lines; a count field "#" often matches them."""
    lines = draw(st.lists(line, max_size=3))
    count = st.one_of(st.just(str(len(lines))), small_int)
    head = [draw(count if f == "#" else f) for f in fields]
    return "\n".join([" ".join(head), *lines]) + "\n"


certificate_text = shaped(
    (order, small_int, tiny_int, "#", st.sampled_from(["indices", "vectors", "values"])),
    st.one_of(class_line, int_line),
)
function_text = shaped((order, tiny_int, st.sampled_from(
    ["table", "weight_threshold", "complement_threshold", "maiorana_mcfarland",
     "monomial_sum", "other"])))
matrix_text = shaped((order, tiny_int, "#"))


def parses_or_value_error(reader, text, kind):
    try:
        out = reader(io.StringIO(text))
    except ValueError:
        return
    assert isinstance(out, kind)


@FUZZ
@given(st.one_of(any_text, certificate_text))
def test_read_certificate_fuzz(text):
    parses_or_value_error(read_certificate, text, Certificate)


@FUZZ
@given(st.one_of(any_text, function_text))
def test_read_function_fuzz(text):
    parses_or_value_error(read_function, text, FunctionSpec)


@FUZZ
@given(st.one_of(any_text, matrix_text))
def test_read_matrix_fuzz(text):
    parses_or_value_error(read_matrix, text, tuple)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(function_text)
def test_cli_malformed_function_file_exits_2(tmp_path_factory, text):
    try:
        read_function(io.StringIO(text))
    except ValueError:
        path = tmp_path_factory.mktemp("fuzz") / "f.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["wdist", str(path)]) == 2
