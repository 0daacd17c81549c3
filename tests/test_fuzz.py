"""Property tests: the file readers never fail with anything but a ValueError.

Each reader gets arbitrary text and text shaped like its own format (a header
of small integers and keywords, then lines of integers).  Either it returns
a parsed object, or it raises a ValueError subclass, which the CLI maps to
exit code 2.  Each reader is also compared with a reader of the strict token
grammar that splits the whole text into lines and checks each token with a
regular expression, a line at a time, also across its pieces of text.
np_ranks is compared with the scalar EchelonBasis of tests/scalar_reference.py
on random batches over F_2 to F_9.
"""

import io
import re
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from minicode.cli import main
from minicode.code import DefiningSet, read_defining_set
from minicode.errors import CertificateFormatError
import minicode.families as families_mod
from minicode.families import FunctionSpec, TheoremId, get_preset, read_function
from minicode.gf import field_by_order
import minicode.linalg as linalg_mod
from minicode.linalg import np_ranks, read_matrix
from minicode.minimality import Certificate, read_certificate, write_certificate
from minicode.witness import witness_certificate
from scalar_reference import EchelonBasis

FUZZ = settings(max_examples=500, deadline=None, derandomize=True, database=None)

tiny_int = st.integers(-1, 4).map(str)
small_int = st.one_of(tiny_int, st.integers(-3, 300).map(str))
order = st.one_of(st.sampled_from(["2", "3", "4"]), small_int)
token = st.one_of(small_int, st.sampled_from(["", "x", "1.5", "|", "-", "0x3", "٣"]))
int_line = st.lists(tiny_int, max_size=5).map(" ".join)
class_line = st.tuples(int_line, int_line).map(" | ".join)
any_text = st.one_of(st.text(max_size=200), st.lists(token, max_size=12).map(" ".join))
# spellings int() reads but the token grammar refuses ("+1", "-0", "1_0",
# the Arabic-Indic "١" and the fullwidth "１"), the plain "007", separators
# and other malformed numbers; line breaks of the grammar and others that
# str.splitlines also splits at
odd_token = st.sampled_from(["+1", "-0", "007", "1_0", "١", "１", "|", "2|", "0x3", "1.5"])
entry = st.one_of(st.integers(0, 12).map(str), st.integers(0, 300).map(str), odd_token)
odd_line = st.lists(st.one_of(tiny_int, entry), max_size=5).map(" ".join)
line_break = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\x0c", "\n\n", "\n \t\n"])


@st.composite
def shaped(draw, fields, line=int_line, breaks=st.just("\n")):
    """A header, then up to three body lines; a count field "#" often matches them."""
    lines = draw(st.lists(line, max_size=3))
    count = st.one_of(st.just(str(len(lines))), small_int)
    head = [draw(count if f == "#" else f) for f in fields]
    text = " ".join(head)
    for ln in lines:
        text += draw(breaks) + ln
    return text + "\n"


certificate_text = shaped(
    (order, small_int, tiny_int, "#", st.sampled_from(["indices", "vectors", "values"])),
    st.one_of(class_line, int_line),
)
function_text = shaped((order, tiny_int, st.sampled_from(
    ["table", "weight_threshold", "complement_threshold", "maiorana_mcfarland",
     "monomial_sum", "other"])), st.one_of(int_line, odd_line), line_break)
matrix_text = shaped((order, tiny_int, "#"), st.one_of(int_line, odd_line), line_break)
read_chars = st.one_of(st.integers(1, 24), st.just(2**16))


def mostly(plain, odd):
    """plain four times in five, else odd."""
    return st.integers(0, 4).flatmap(lambda i: odd if i == 0 else plain)


@st.composite
def table_text(draw):
    """A table function over F_2 or F_3 in one or two variables, two values a line,
    whose tokens and line breaks are mostly those of the grammar."""
    q, m = draw(st.sampled_from([2, 3])), draw(st.integers(1, 2))
    value = mostly(st.integers(0, q - 1).map(str), odd_token)
    values = draw(st.lists(value, min_size=q**m, max_size=q**m))
    text = f"{q} {m} table"
    for i in range(0, len(values), 2):
        text += draw(mostly(st.just("\n"), line_break)) + " ".join(values[i:i + 2])
    return text + "\n"


def read_outcome(reader, text, src=None):
    """What reader gives for text, or for src: the parsed object, or the ValueError's type and message."""
    try:
        return reader(io.StringIO(text) if src is None else src)
    except ValueError as exc:
        return type(exc), str(exc)


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
@given(st.one_of(any_text, function_text, table_text()), read_chars)
def test_read_function_fuzz(text, chars):
    # the same function, or the same error, as the reader of the strict
    # grammar, whatever the pieces of text
    with mock.patch.object(linalg_mod, "READ_CHARS", chars):
        out = read_outcome(read_function, text)
    assert isinstance(out, FunctionSpec) or out[0] is ValueError
    assert out == read_outcome(reference_read_function, text)


@FUZZ
@given(st.one_of(any_text, matrix_text), read_chars)
def test_read_matrix_fuzz(text, chars):
    with mock.patch.object(linalg_mod, "READ_CHARS", chars):
        out = read_outcome(read_matrix, text)
        parses_or_value_error(read_defining_set, text, DefiningSet)
    if isinstance(out[1], np.ndarray):  # the rows, n x m in int64
        field, rows = out
        assert rows.dtype == np.int64 and rows.ndim == 2
        out = field, rows.tolist()
    assert out == read_outcome(reference_read_matrix, text)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(function_text)
def test_cli_malformed_function_file_exits_2(tmp_path_factory, text):
    try:
        read_function(io.StringIO(text))
    except ValueError:
        path = tmp_path_factory.mktemp("fuzz") / "f.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["wdist", str(path)]) == 2


@st.composite
def rank_batches(draw):
    """A field F_2..F_9 and a B x r x c batch over it, with rows repeated and scaled."""
    field = field_by_order(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])))
    B, r, c = draw(st.integers(1, 4)), draw(st.integers(0, 6)), draw(st.integers(0, 12))
    element = st.integers(0, field.q - 1)
    M = [[draw(st.lists(element, min_size=c, max_size=c)) for _ in range(r)] for _ in range(B)]
    for rows in M:
        for i in range(1, r):
            if draw(st.booleans()):  # a multiple of an earlier row
                a, j = draw(element), draw(st.integers(0, i - 1))
                rows[i] = [field.mul(a, x) for x in rows[j]]
    return field, np.array(M, dtype=np.int64).reshape(B, r, c)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rank_batches())
def test_np_ranks_matches_echelon_basis(batch):
    field, M = batch
    expected = []
    for rows in M.tolist():
        basis = EchelonBasis(field, M.shape[2])
        for row in rows:
            basis.add(row)
        expected.append(basis.rank)
    assert np_ranks(field, M).tolist() == expected


def strict_header(text):
    """The header of text and the (number, line) of every line after it.

    Lines end at "\r\n", "\r" or "\n" and nowhere else, and the header is
    the first line that is not spaces and tabs alone.
    """
    lines = list(enumerate(re.split("\r\n|\r|\n", text), 1))
    at = next((i for i, (_, ln) in enumerate(lines) if ln.strip(" \t")), None)
    return (None, []) if at is None else (lines[at][1], lines[at + 1:])


def strict_fields(line, bar=False):
    return [t for t in re.split("[ \t|]" if bar else "[ \t]", line) if t]


def strict_value(t):
    """The value of a token, 1 to 19 ASCII digits below 2^63, or None."""
    return int(t) if re.fullmatch("[0-9]{1,19}", t) and int(t) < 2**63 else None


def strict_tokens(no, tokens, error):
    """The values of the tokens of line no; the first that is no token raises error."""
    for t in tokens:
        if not re.fullmatch("[0-9]+", t):
            raise error(f"line {no}: token {t!r} is not a run of ASCII digits")
        if strict_value(t) is None:
            raise error(f"line {no}: token {t!r} exceeds 19 digits or 2^63 - 1: "
                        "integers are of at most 64 bits")
    return [int(t) for t in tokens]


def reference_read_certificate(src):
    """The certificate format read a line and a token at a time, the first faulty line raising."""
    first, body = strict_header(src.read())
    if first is None:
        raise CertificateFormatError("empty certificate file")
    head = strict_fields(first)
    if len(head) != 5:
        raise CertificateFormatError(f"bad certificate header {first!r}")
    q, n, k, count = (strict_value(t) for t in head[:4])
    if None in (q, n, k, count) or q < 2 or n < 1 or k < 1:
        raise CertificateFormatError(
            f"certificate header needs q >= 2, n >= 1, k >= 1 and count >= 0: {first!r}"
        )
    mode = head[4]
    if mode not in ("indices", "vectors"):
        raise CertificateFormatError(f"unknown certificate mode {mode!r}")
    classes = []
    for no, ln in body:
        values = strict_tokens(no, strict_fields(ln, bar=True), CertificateFormatError)
        if not ln.strip(" \t"):
            continue
        if "|" not in ln:
            raise CertificateFormatError(f"line {no}: class line without separator: {ln!r}")
        left, right = ln.split("|", 1)
        if "|" in right:
            raise CertificateFormatError(f"line {no}: class line with more than one separator: {ln!r}")
        rep = tuple(values[:len(left.split())])
        payload = values[len(rep):]
        if len(rep) != k:
            raise CertificateFormatError(f"line {no}: representative {rep} has length != k")
        if mode == "indices":
            items = tuple(payload)
        else:
            if len(payload) % k:
                raise CertificateFormatError(f"line {no}: vector payload not a multiple of k")
            items = tuple(tuple(payload[i * k:(i + 1) * k]) for i in range(len(payload) // k))
        if len(items) != k - 1:
            raise CertificateFormatError(
                f"line {no}: class {rep} has {len(items)} entries, expected k - 1 = {k - 1}")
        classes.append((rep, items))
    if len(classes) != count:
        raise CertificateFormatError(f"expected {count} class lines, found {len(classes)}")
    return Certificate(q=q, n=n, k=k, mode=mode, classes=tuple(classes))


def reference_read_function(src):
    """The function format's header and tokens read a line at a time; the variant as read_function builds it."""
    first, body = strict_header(src.read())
    if first is None:
        raise ValueError("empty function file")
    head = strict_fields(first)
    q = strict_value(head[0]) if len(head) == 3 else None
    if q is None:
        raise ValueError(f"bad function header {first!r}")
    field, m, kind = field_by_order(q), strict_value(head[1]), head[2]
    if not m:
        raise ValueError(f"arity m = {head[1]} must be >= 1")
    flat = [v for no, ln in body for v in strict_tokens(no, strict_fields(ln), ValueError)]
    return families_mod._function_spec(field, m, kind, flat)


def reference_read_matrix(src):
    """The matrix format read a line and a token at a time, as (field, rows as lists)."""
    first, body = strict_header(src.read())
    if first is None:
        raise ValueError("empty matrix file")
    header = [strict_value(t) for t in strict_fields(first)]
    if len(header) != 3 or None in header:
        raise ValueError(f"bad matrix header {first!r}")
    q, m, nrows = header
    field = field_by_order(q)
    rows = []
    for no, ln in body:
        row = strict_tokens(no, strict_fields(ln), ValueError)
        if row and len(row) != m:
            raise ValueError(f"line {no}: row {ln!r} has length {len(row)}, expected {m}")
        rows += [row] if row else []
    if len(rows) != nrows:
        raise ValueError(f"expected {nrows} rows, found {len(rows)}")
    return field, rows


@st.composite
def codec_text(draw):
    """A certificate over a small header whose lines mostly have the right shape.

    Half the texts draw their tokens and line breaks from odd_token and
    line_break too, and the other half only those of the grammar.
    """
    q = draw(st.sampled_from(["2", "3", "9", "64", "256", "+3"]))
    n = draw(st.sampled_from(["1", "7", "12", "255", "100000"]))
    k = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["indices", "vectors"]))
    width = k if mode == "vectors" else 1
    odd = draw(st.booleans())
    token = entry if odd else st.one_of(st.integers(0, 12), st.integers(0, 300)).map(str)
    breaks = line_break if odd else st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \t\n"])
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        rep = draw(st.one_of(st.lists(token, min_size=k, max_size=k), st.lists(token, max_size=4)))
        size = draw(st.integers(0, 3)) * width + draw(st.sampled_from([0, 0, 0, 1]))
        payload = draw(st.lists(token, min_size=size, max_size=size))
        sep = draw(st.sampled_from([" | ", "|", " | | ", " "]))
        lines.append(" ".join(rep) + sep + " ".join(payload))
    count = draw(st.one_of(st.just(str(len(lines))), small_int))
    text = f"{q} {n} {k} {count} {mode}"
    for ln in lines:
        text += draw(breaks) + ln
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


@FUZZ
@given(st.one_of(any_text, certificate_text, codec_text()))
def test_read_certificate_matches_int_per_token_reader(text):
    assert read_outcome(read_certificate, text) == read_outcome(reference_read_certificate, text)


def typed_outcome(reader, text, src=None):
    """read_outcome, with the dtypes of a parsed certificate's two arrays."""
    out = read_outcome(reader, text, src)
    if isinstance(out, Certificate):
        return out, out.classes.reps.dtype, out.classes.entries.dtype
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(certificate_text, codec_text()), st.integers(1, 24))
# pieces whose token counts add up although a line's do not: a line's surplus
# made up by the next line's representative, or by its entries, and a line
# without "|" beside one with two when k = 1, or a line without "|" whose
# token makes up the next line's representative; at 16 characters a read,
# the class lines are one piece
@example("3 7 2 2 indices\n1 0 | 3 4\n1 | 5\n", 16)
@example("3 7 2 3 indices\n1 0 | 3\n5\n1 | 4\n", 16)
@example("3 7 2 2 indices\n1 0 2 |\n0 1 | 3\n", 16)
@example("3 7 1 2 indices\n1\n| 1 |\n", 16)
@example("3 7 1 2 vectors\n1 |\n| 1\n", 16)
def test_read_certificate_matches_int_per_token_reader_across_blocks(text, chars):
    # pieces of a few lines each give the same arrays, dtypes and first
    # error, with its line number, as one pass over the text
    with mock.patch.object(linalg_mod, "READ_CHARS", chars):
        assert typed_outcome(read_certificate, text) == typed_outcome(reference_read_certificate, text)


@pytest.fixture(scope="module")
def sec7_d1_lines():
    f = get_preset("sec7_f1").function
    buf = io.StringIO()
    write_certificate(buf, witness_certificate(TheoremId.D1, f))
    return buf.getvalue().splitlines()


def test_read_certificate_blocks_of_a_witness_certificate(sec7_d1_lines):
    # sec7_f1's D1 witness certificate is about 25 pieces of READ_CHARS
    # characters, each of about `piece` lines of one length; a change inside
    # one piece is refused, naming its line, or read, as the reader of the
    # strict grammar reads the whole text, and the first fault in file order
    # is the one raised, whichever piece each fault is in
    head, body = sec7_d1_lines[0], sec7_d1_lines[1:]
    q, n, k, count, mode = head.split()
    assert len(set(map(len, body))) == 1
    piece = linalg_mod.READ_CHARS // (len(body[0]) + 1)
    assert 24 * piece < len(body) <= 25 * piece
    line, late = 4 * piece + 100, 7 * piece + 5  # 0-based, in pieces 5 and 8

    def text(*changes, header=head):
        lines = list(body)
        for i, new in changes:
            lines[i] = new
        return "\n".join([header, *lines]) + "\n"

    def swap(i, at, token):  # token `at` of body line i replaced
        tokens = body[i].split()
        tokens[at] = token
        return i, " ".join(tokens)

    def drop(i, tokens):  # the last tokens of body line i dropped
        return i, body[i].rsplit(" ", tokens)[0]

    variants = {
        "unchanged": text(),
        "+1": text(swap(line, 0, "+1")),
        "007": text(swap(line, 12, "007")),  # plain digits
        "dropped entry at 5000": text(drop(4999, 1)),
        "19-digit token": text(swap(line, 12, "0" * 18 + "2")),
        "beyond 64 bits": text(swap(line, 12, "9" * 20)),
        "count off by one": text(header=f"{q} {n} {k} {int(count) + 1} {mode}"),
        "short class, then +1": text(drop(100, int(k)), swap(late, 0, "+1")),
        "beyond 64 bits, then short class": text(swap(piece + 5, 12, "9" * 20), drop(late, int(k))),
    }
    outcomes = {}
    for name, variant in variants.items():
        outcomes[name] = typed_outcome(read_certificate, variant)
        assert outcomes[name] == typed_outcome(reference_read_certificate, variant), name
    assert isinstance(outcomes["unchanged"][0], Certificate)
    assert outcomes["unchanged"][2] == np.uint8
    assert outcomes["19-digit token"][0] == read_certificate(io.StringIO(text(swap(line, 12, "2"))))
    assert outcomes["007"][2] == np.int64  # 7 lies outside F_3, so every piece is widened
    assert outcomes["+1"] == (
        CertificateFormatError, f"line {line + 2}: token '+1' is not a run of ASCII digits")
    assert outcomes["dropped entry at 5000"] == (
        CertificateFormatError, "line 5001: vector payload not a multiple of k")
    assert outcomes["beyond 64 bits"][0] is CertificateFormatError
    assert outcomes["beyond 64 bits"][1].startswith(f"line {line + 2}: token '{'9' * 20}'")
    assert outcomes["beyond 64 bits"][1].endswith("integers are of at most 64 bits")
    assert outcomes["short class, then +1"][1].startswith("line 102: class (")
    assert outcomes["short class, then +1"][1].endswith("has 7 entries, expected k - 1 = 8")
    assert outcomes["beyond 64 bits, then short class"][1] == outcomes["beyond 64 bits"][1].replace(
        f"line {line + 2}:", f"line {piece + 7}:")
    assert outcomes["count off by one"] == (
        CertificateFormatError, f"expected {int(count) + 1} class lines, found {count}")


@pytest.fixture(scope="module")
def sec4_a1_text():
    preset = get_preset("sec4_f1")
    buf = io.StringIO()
    write_certificate(buf, witness_certificate(preset.theorem, preset.function))
    return buf.getvalue()


@pytest.mark.parametrize("chars", [1, 7, 64, 2**16])
def test_read_certificate_at_piece_edges(sec4_a1_text, tmp_path, chars):
    # every line is longer than 7 characters, so at 1 and 7 a piece grows
    # past its read; CR LF and CR line breaks and blank lines put reads that
    # end between "\r" and "\n" and pieces that end at blank lines; a "+"
    # before the first class is refused, naming line 2, and every other
    # variant reads as the reader of the strict grammar reads the whole
    # text.  The same text is read from a path, with universal newlines,
    # and from two streams read as they are.
    lines = sec4_a1_text.splitlines()
    assert min(map(len, lines)) > 7
    spaced = [lines[0]]
    for i, ln in enumerate(lines[1:]):
        spaced += [ln, " \t"] if i % 3 == 0 else [ln, ""] if i % 3 == 1 else [ln]
    signed = [lines[0], "+" + lines[1], *lines[2:]]
    variants = {
        "lf": "\n".join(lines) + "\n",
        "crlf": "\r\n".join(lines) + "\r\n",
        "cr": "\r".join(lines) + "\r",
        "blank lines": "\n".join(spaced) + "\n",
        "crlf blank lines": "\r\n".join(spaced) + "\r\n",
        "+1 first": "\r\n".join(signed),
    }
    first = "+" + lines[1].split()[0]
    assert typed_outcome(reference_read_certificate, variants["+1 first"]) == (
        CertificateFormatError, f"line 2: token {first!r} is not a run of ASCII digits")
    # whether some read ends between "\r" and "\n"
    cut = any(variants["crlf"][i - 1:i + 1] == "\r\n"
              for i in range(chars, len(variants["crlf"]), chars))
    for name, text in variants.items():
        expected = typed_outcome(reference_read_certificate, text)
        assert isinstance(expected[0], Certificate) or name == "+1 first", name
        path = tmp_path / f"{name}.txt"
        path.write_bytes(text.encode("ascii"))
        with mock.patch.object(linalg_mod, "READ_CHARS", chars):
            for source in ("stream", "path", "stream without newline translation"):
                if source == "path":
                    got = typed_outcome(read_certificate, None, str(path))
                elif source == "stream":
                    got = typed_outcome(read_certificate, text)
                else:
                    with open(path, encoding="utf-8", newline="") as fh:
                        got = typed_outcome(read_certificate, None, fh)
                assert got == expected, (name, source)
    assert cut or chars == 2**16
