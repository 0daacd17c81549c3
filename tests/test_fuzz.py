"""Property tests: the file readers never fail with anything but a ValueError.

Each reader gets arbitrary text and text shaped like its own format (a header
of small integers and keywords, then lines of integers).  Either it returns
a parsed object, or it raises a ValueError subclass, which the CLI maps to
exit code 2.  read_certificate is also compared with a line-by-line reader
that converts every token with int(), also across its pieces of text.
np_ranks is compared with the scalar EchelonBasis of tests/scalar_reference.py
on random batches over F_2 to F_9.
"""

import io
import itertools
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from minicode.cli import main
from minicode.code import DefiningSet, read_defining_set
from minicode.errors import CertificateFormatError
from minicode.families import FunctionSpec, TheoremId, get_preset, read_function
from minicode.gf import field_by_order
import minicode.linalg as linalg_mod
from minicode.linalg import np_ranks, read_matrix, text_pieces
import minicode.minimality as minimality_mod
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


def typed_outcome(reader, text):
    """read_outcome, with the dtypes of a parsed certificate's two arrays."""
    out = read_outcome(reader, text)
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
    # pieces of a few lines each: a plain piece beside one read token by
    # token gives the same arrays, dtypes and first error as one pass over
    # the text
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
    # piece 5 that leaves it not plain makes that piece, and only it, go
    # token by token, and every variant reads as the int()-per-token reader
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
        "unchanged": (text(), 0),
        "+1": (text(swap(line, 0, "+1")), 1),
        "007": (text(swap(line, 12, "007")), 0),  # plain digits
        "dropped entry at 5000": (text(drop(4999, 1)), 1),
        "19-digit token": (text(swap(line, 12, "0" * 18 + "2")), 1),
        "beyond 64 bits": (text(swap(line, 12, "9" * 20)), 1),
        "count off by one": (text(header=f"{q} {n} {k} {int(count) + 1} {mode}"), 0),
        # a class short of one vector is reported after every line, and
        # before an integer beyond 64 bits, whichever piece each is in
        "short class, then +1": (text(drop(100, int(k)), swap(late, 0, "+1")), 2),
        "beyond 64 bits, then short class": (
            text(swap(piece + 5, 12, "9" * 20), drop(late, int(k))), 2),
    }
    token_block = minimality_mod._token_block
    outcomes = {}
    for name, (variant, slow_pieces) in variants.items():
        calls = []
        with mock.patch.object(minimality_mod, "_token_block",
                               lambda *a: calls.append(1) or token_block(*a)):
            outcomes[name] = typed_outcome(read_certificate, variant)
        assert outcomes[name] == typed_outcome(reference_read_certificate, variant), name
        assert len(calls) == slow_pieces, name
    assert isinstance(outcomes["unchanged"][0], Certificate)
    assert outcomes["unchanged"][2] == np.uint8
    assert outcomes["007"][2] == np.int64  # 7 lies outside F_3, so every piece is widened
    assert outcomes["dropped entry at 5000"] == (
        CertificateFormatError, "vector payload not a multiple of k")
    assert outcomes["beyond 64 bits"][0] is CertificateFormatError
    for name in ("short class, then +1", "beyond 64 bits, then short class"):
        assert outcomes[name][1].endswith("has 7 entries, expected k - 1 = 8"), name
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
    # past its read; CR LF and CR line breaks and blank lines put cuts
    # between "\r" and "\n" and at blank lines; a "+1" in the first class
    # makes its piece go token by token, and the plain pieces after it
    # still read as the int()-per-token reader reads the whole text.  The
    # same text is read from a path, with universal newlines, and from two
    # streams read as they are.
    lines = sec4_a1_text.splitlines()
    assert min(map(len, lines)) > 7
    spaced = [lines[0]]
    for i, ln in enumerate(lines[1:]):
        spaced += [ln, " \t"] if i % 3 == 0 else [ln, ""] if i % 3 == 1 else [ln]
    signed = [lines[0], "+" + lines[1], *lines[2:]]
    variants = {
        "lf": ("\n".join(lines) + "\n", 0),
        "crlf": ("\r\n".join(lines) + "\r\n", 0),
        "cr": ("\r".join(lines) + "\r", 0),
        "blank lines": ("\n".join(spaced) + "\n", 0),
        "crlf blank lines": ("\r\n".join(spaced) + "\r\n", 0),
        "+1 first": ("\r\n".join(signed), 1),
    }
    token_block = minimality_mod._token_block
    cut = False  # whether some piece ends between "\r" and "\n"
    for name, (text, slow_pieces) in variants.items():
        expected = typed_outcome(reference_read_certificate, text)
        assert isinstance(expected[0], Certificate), name
        path = tmp_path / f"{name}.txt"
        path.write_bytes(text.encode("ascii"))
        with mock.patch.object(linalg_mod, "READ_CHARS", chars):
            with text_pieces(io.StringIO(text)) as pieces:
                cut |= any(a.endswith("\r") and b.startswith("\n") for a, b in
                           itertools.pairwise(pieces))
            for source in ("stream", "path", "stream without newline translation"):
                calls = []
                with mock.patch.object(minimality_mod, "_token_block",
                                       lambda *a: calls.append(1) or token_block(*a)):
                    if source == "path":
                        got = read_certificate(str(path))
                    elif source == "stream":
                        got = read_certificate(io.StringIO(text))
                    else:
                        with open(path, encoding="utf-8", newline="") as fh:
                            got = read_certificate(fh)
                assert (got, got.classes.reps.dtype, got.classes.entries.dtype) == expected, name
                assert len(calls) == slow_pieces, (name, source)
    assert cut or chars == 2**16
