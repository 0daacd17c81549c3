"""Property tests: the file readers never fail with anything but a ValueError.

Each reader gets arbitrary text and text shaped like its own format (a header
of small integers and keywords, then lines of integers).  Either it returns
a parsed object, or it raises a ValueError subclass, which the CLI maps to
exit code 2.  read_certificate is also compared with a line-by-line reader
that converts every token with int().
"""

import io

from hypothesis import given, settings, strategies as st

from minicode.cli import main
from minicode.code import DefiningSet, read_defining_set
from minicode.errors import CertificateFormatError
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
    parses_or_value_error(read_defining_set, text, DefiningSet)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(function_text)
def test_cli_malformed_function_file_exits_2(tmp_path_factory, text):
    try:
        read_function(io.StringIO(text))
    except ValueError:
        path = tmp_path_factory.mktemp("fuzz") / "f.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["wdist", str(path)]) == 2


def reference_read_certificate(src):
    """The certificate reader with one int() per token: the language read_certificate keeps."""
    lines = [ln for ln in src.read().splitlines() if ln.strip()]
    if not lines:
        raise CertificateFormatError("empty certificate file")
    head = lines[0].split()
    if len(head) != 5:
        raise CertificateFormatError(f"bad certificate header {lines[0]!r}")
    try:
        q, n, k, count = (int(t) for t in head[:4])
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from None
    if q < 2 or n < 1 or k < 1 or count < 0:
        raise CertificateFormatError(
            f"certificate header needs q >= 2, n >= 1, k >= 1 and count >= 0: {lines[0]!r}"
        )
    mode = head[4]
    if mode not in ("indices", "vectors"):
        raise CertificateFormatError(f"unknown certificate mode {mode!r}")
    if len(lines) - 1 != count:
        raise CertificateFormatError(f"expected {count} class lines, found {len(lines) - 1}")
    classes = []
    for ln in lines[1:]:
        if "|" not in ln:
            raise CertificateFormatError(f"class line without separator: {ln!r}")
        left, right = ln.split("|", 1)
        try:
            rep = tuple(int(t) for t in left.split())
            payload = [int(t) for t in right.split()]
        except ValueError as exc:
            raise CertificateFormatError(str(exc)) from None
        if len(rep) != k:
            raise CertificateFormatError(f"representative {rep} has length != k")
        if mode == "indices":
            items = tuple(payload)
        else:
            if len(payload) % k:
                raise CertificateFormatError("vector payload not a multiple of k")
            items = tuple(tuple(payload[i * k:(i + 1) * k]) for i in range(len(payload) // k))
        classes.append((rep, items))
    return Certificate(q=q, n=n, k=k, mode=mode, classes=tuple(classes))


# non-canonical spellings int() reads or refuses, and separators
odd_token = st.sampled_from(["+1", "-0", "007", "1_0", "١", "|", "2|", "0x3", "1.5"])
entry = st.one_of(st.integers(0, 12).map(str), st.integers(0, 300).map(str), odd_token)
line_break = st.sampled_from(["\n", "\r\n", "\x0b", "\x1c", "\n\n", "\n \t\n"])


@st.composite
def codec_text(draw):
    """A certificate over a small header whose lines mostly have the right shape."""
    q = draw(st.sampled_from(["2", "3", "9", "64", "256", "+3"]))
    n = draw(st.sampled_from(["1", "7", "12", "255", "100000"]))
    k = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["indices", "vectors"]))
    width = k if mode == "vectors" else 1
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        rep = draw(st.one_of(st.lists(entry, min_size=k, max_size=k), st.lists(entry, max_size=4)))
        size = draw(st.integers(0, 3)) * width + draw(st.sampled_from([0, 0, 0, 1]))
        payload = draw(st.lists(entry, min_size=size, max_size=size))
        sep = draw(st.sampled_from([" | ", "|", " | | ", " "]))
        lines.append(" ".join(rep) + sep + " ".join(payload))
    count = draw(st.one_of(st.just(str(len(lines))), small_int))
    text = f"{q} {n} {k} {count} {mode}"
    for ln in lines:
        text += draw(line_break) + ln
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


def read_outcome(reader, text):
    try:
        return reader(io.StringIO(text))
    except ValueError as exc:
        return type(exc), str(exc)


@FUZZ
@given(st.one_of(any_text, certificate_text, codec_text()))
def test_read_certificate_matches_int_per_token_reader(text):
    assert read_outcome(read_certificate, text) == read_outcome(reference_read_certificate, text)
