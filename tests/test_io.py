import hashlib
import importlib.util
import json
import random
import re
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xagsynth import (
    AND,
    BASELINE,
    OPTIMAL,
    XOR,
    BristolFormatError,
    CircuitBuilder,
    check_exhaustive,
    export_bristol,
    export_dot,
    export_json,
    import_bristol,
    io_formats,
    synthesize,
)

from oracles import all_inputs, json_dumps_circuit, naive_eval, reference_bristol, traced


def and_lines(doc):
    return [l for l in doc.splitlines() if l.endswith(" AND")]


# sha256 of export_bristol and export_dot of synthesize(n, c). The Bristol
# digests were recorded when input gates still carried their variable as
# ("INPUT", v); the optimal DOT digests for n >= 4 since XORs have two operands
_PINNED_BRISTOL_DOT = [
    (3, OPTIMAL, "ade57c7cbf445607f3f2a1bd95b165b07c977b9fa946b3e1e5f8a9147df38050",
     "b312ffc917cdf582d4393cc9a16a43df92b8aeeee5551719e4c16fb95ae7320c"),
    (4, OPTIMAL, "38497ad7b66ba69d2884d4dc3a30d1fa62b4a1a21306a15831764e199f175b67",
     "3bd62e40bb5f91ef4ca9e80b2dc306320a2fbacb11f970b56ee6c4195f8c988f"),
    (5, OPTIMAL, "a839e643a9c0d9d0b1bd0055c743684d0fc365dc3c15fa6e90d914de4423def8",
     "8de340d47bc91dbe1d2a2ebdb5e8f118d74f592977beded37b83be4f8e848472"),
    (6, OPTIMAL, "b7266944e22c58556112aff8958f799e11a6bb486639203e062e9ebef3f69c83",
     "e7952b5bbfbf94aae6f3592c93e8b51626e311fb0ac2f45241715567f207b8cc"),
    (37, OPTIMAL, "5dd27b71e08f655cf8f29d70f582edb523b825bf1ba5a0b0fb4b18981b768c7e",
     "e847c73fb9b0358c74dc0e93a1d0e4f622b589b27dd39795e55755eab6e45ff9"),
    (1000, OPTIMAL, "f0d4b1461dfd2fcc9a4787887163b790e679b0f0c8e9d7198bcdf728ba2400c6",
     "e18f0f53726439227e2aa57fd0731774323ffa75986fdcfdc4edadde16d0dc63"),
    (3, BASELINE, "a2c3a27fbc4b175804aa04342b31b6d0b94f327b68eaf7a0f3fae91eb62fcec4",
     "55f6a2470003e44dab2b23cecad800b595f7c9e4af2fce9f1331ea3b9fc3db1d"),
    (4, BASELINE, "c68d5ac254bbc748cb7c745aae639d7fa8439b8102e2959d0e308512ff652738",
     "6ebd47617237edfa62bf831c6417c7902b4ab8d4b7b2de4e0842ed4b3a18f925"),
    (5, BASELINE, "e1f4eee015f5bfcdd8231a172e194727e6d0ba1089d919ec1207859203c0350e",
     "149abbfac14fe90ecee0c8af3b6223ae41317a7d8534bd403fca0ba7031f23c7"),
    (6, BASELINE, "a7dfced8a8d6cf13142d1ef4ea58384ef1ee41f9d716c9197d1619075da216af",
     "057f8229e0b20212066903c1bf9fe3da8756ffe1043acacb5e4f6e699662bb6d"),
    (37, BASELINE, "5f694adeb5e13878530ea9b7e034c7c2015e2a74009ff4562c117d3ab44dd4f4",
     "222761d64b740999a2f3b77f11874504907f627baadc6e85d4592934e7f7dc2b"),
    (1000, BASELINE, "561d888481c12b16ce8e5ad07da027248154709ecdeae9b255c7976d9b5f6b80",
     "7f4fec6898331fb04117b557fa7ff7e0057f578cb4f23a053ed53a8f7998a58b"),
]

_PINNED_IDS = [f"{construction}-n{n}" for n, construction, *_ in _PINNED_BRISTOL_DOT]


def _random_circuit(rng):
    """A builder circuit with runs of dead gates and NOTs, XOR chains, bulk
    runs and outputs that may sit on inputs or share a gate."""
    b = CircuitBuilder(rng.randint(1, 6))
    size = b.arity
    for _ in range(rng.randrange(12)):
        step = rng.randrange(4)
        if step == 0:  # a run of NOTs, each a chain step or a dead branch
            for _ in range(rng.randint(1, 5)):
                size = b.not_(rng.randrange(size)) + 1
        elif step == 1:  # ANDs, most of them read by nothing
            for _ in range(rng.randint(1, 5)):
                size = b.and_(rng.randrange(size), rng.randrange(size)) + 1
        elif step == 2:
            size = b.xor(*(rng.randrange(size) for _ in range(rng.randint(2, 5)))) + 1
        else:
            p, count = rng.randint(1, 3), rng.randint(1, 4)
            lanes = [[rng.randrange(size) for _ in range(count)] for _ in range(2 * p)]
            size = b.run(rng.choices([AND, XOR], k=p), lanes[:p], lanes[p:], count).stop
    return b.finish([(f"o{k}", rng.randrange(size)) for k in range(rng.randint(1, 5))])


def _hand_built():
    """A NOT, a three-operand xor chain, an unreachable AND, two outputs on
    one gate and one output on an input."""
    b = CircuitBuilder(3)
    n1 = b.not_(0)
    b.and_(1, 2)  # unreachable
    y = b.xor(b.and_(n1, 1), 2, n1)
    return b.finish([("y", y), ("y again", y), ("x2", 1)])


class TestBristolExport:
    def test_single_not_gives_inv_line(self):
        b = CircuitBuilder(1)
        x1 = 0
        doc = export_bristol(b.finish([("y", b.not_(x1))]))
        assert sum(1 for l in doc.splitlines() if l.endswith(" INV")) == 1

    def test_no_outputs_rejected(self):
        b = CircuitBuilder(1)
        with pytest.raises(ValueError):
            export_bristol(b.finish([]))

    @pytest.mark.parametrize("n,construction,bristol,dot", _PINNED_BRISTOL_DOT, ids=_PINNED_IDS)
    def test_bytes_pinned(self, n, construction, bristol, dot):
        c = synthesize(n, construction)
        assert hashlib.sha256(export_bristol(c).encode()).hexdigest() == bristol
        assert hashlib.sha256(export_dot(c).encode()).hexdigest() == dot

    # sha256 of the three exports of _hand_built(); the Bristol digest was
    # recorded when the Bristol lowering still allocated wires through a
    # counter, the JSON and DOT digests since XORs have two operands
    def test_hand_built_bytes_pinned(self):
        c = _hand_built()
        digests = [hashlib.sha256(f(c).encode()).hexdigest()
                   for f in (export_bristol, export_json, export_dot)]
        assert digests == [
            "b8c2a9a7b72928a55bc9faf38af4a7ac4e93486dd31917c37bad9c3557f5f152",
            "ca82a55b0eddbaae6d622a6202c89afefec5b7da67658da832aa84e5eb974018",
            "25bd6cab67d019a0ca336ceca10fb03eab45dbecc7eaf9eeb1d54a496f64102f",
        ]

    @pytest.mark.parametrize("chunk", [1, 2, 4096])
    def test_hand_built_writers_match_exports(self, tmp_path, monkeypatch, chunk):
        # the pinned circuit above, streamed into a file; at one and two items
        # per write, chunk boundaries fall all through the document
        c = _hand_built()
        writers = {io_formats.write_bristol: export_bristol(c),
                   io_formats.write_json: export_json(c),
                   io_formats.write_dot: export_dot(c)}
        monkeypatch.setattr(io_formats, "_CHUNK", chunk)
        for write, expected in writers.items():
            path = tmp_path / "out"
            with open(path, "w") as fh:
                write(c, fh)
            assert path.read_text() == expected

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
    def test_writer_matches_reference(self, monkeypatch, chunk):
        # a chunk of one to three gates splits every run of dead gates, NOTs
        # and output copies somewhere
        monkeypatch.setattr(io_formats, "_CHUNK", chunk)
        rng = random.Random(chunk)
        circuits = [_random_circuit(rng) for _ in range(300)]
        for c in circuits + [synthesize(n, con) for n in (3, 4, 37) for con in (OPTIMAL, BASELINE)]:
            assert export_bristol(c) == reference_bristol(c)


class TestBristolRoundTrip:
    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("construction", [OPTIMAL, BASELINE])
    def test_equivalence_and_and_count(self, n, construction):
        c = synthesize(n, construction)
        expected = 2 * n - 3 if construction == OPTIMAL else 3 * n - 6
        doc = export_bristol(c)
        assert len(and_lines(doc)) == expected
        again = import_bristol(doc)
        assert check_exhaustive(again, expected_and_count=expected).passed

    def test_mixed_gate_kinds(self):
        b = CircuitBuilder(3)
        x1, x2, x3 = 0, 1, 2
        y = b.xor(b.and_(x1, b.not_(x2)), b.not_(b.xor(x1, x1)), x3)
        c = b.finish([("y", y)])
        again = import_bristol(export_bristol(c))
        for bits in all_inputs(3):
            assert again.output_columns(bits, 1) == naive_eval(c.gates, c.outputs, bits)

    @pytest.mark.parametrize("n", range(3, 65, 9))
    def test_and_line_conservation_larger(self, n):
        doc = export_bristol(synthesize(n, OPTIMAL))
        assert len(and_lines(doc)) == 2 * n - 3

    def test_wires_map_to_gates_in_definition_order(self):
        # wire 3 is defined first (gate 2), wire 2 second (gate 3)
        doc = "3 5\n1 2\n1 1\n\n2 1 0 1 3 AND\n2 1 3 1 2 XOR\n2 1 2 0 4 AND\n"
        assert io_formats._read_canonical(doc) is None  # the per-line parser reads it
        c = import_bristol(doc)
        assert c.gates == (("INPUT",), ("INPUT",), ("AND", 0, 1), ("XOR", 2, 1), ("AND", 3, 0))
        assert c.outputs == (("o1", 4),)

    @pytest.mark.parametrize("which", ["synthesized", "hand-built"])
    def test_whitespace_does_not_change_the_circuit(self, which):
        if which == "synthesized":
            c = synthesize(7)
        else:  # a NOT, a constant 1 and a four-operand XOR
            b = CircuitBuilder(3)
            y = b.xor(b.and_(0, b.not_(1)), b.not_(b.xor(0, 0)), 2, 1)
            c = b.finish([("y", y), ("x1", 0)])
        doc = export_bristol(c)
        # CRLF ends, tabs between tokens, padded lines, blank lines in the body
        messy = []
        for k, line in enumerate(doc.splitlines()):
            line = "\t".join(line.split(" "))
            messy.append(f" {line}\t " if k % 2 else line)
            if k > 3 and k % 3 == 0:
                messy += [" \t", ""]
        messy = "\r\n".join(messy) + "\r\n"
        assert io_formats._read_canonical(messy) is None  # the per-line parser reads it
        canonical, again = import_bristol(doc), import_bristol(messy)
        assert (again.gates, again.outputs) == (canonical.gates, canonical.outputs)

    def test_repeated_and_line_is_kept_and_counted(self):
        doc = "2 4\n1 2\n2 1 1\n\n2 1 0 1 2 AND\n2 1 0 1 3 AND\n"
        c = import_bristol(doc)
        assert c.gates[2:] == (("AND", 0, 1), ("AND", 0, 1))
        assert c.and_count() == 2


def _with_nots():
    b = CircuitBuilder(3)
    y = b.xor(b.and_(0, b.not_(1)), b.not_(b.xor(0, 2)), 2)
    return b.finish([("y", y), ("z", b.not_(b.and_(y, 1)))])


# the writer's dialect up to n = 37, whose body spans many lines, and a
# circuit whose INV lines leave it
_DIALECT_DOCS = [export_bristol(synthesize(n, c))
                 for n, c in [(3, OPTIMAL), (4, BASELINE), (5, OPTIMAL), (37, OPTIMAL)]]
_FUZZ_DOCS = _DIALECT_DOCS + [export_bristol(_with_nots())]
# "07" to "true": JSON reads these otherwise than int() does, or not at all
_FUZZ_TOKENS = st.one_of(st.integers(-2, 48).map(str),
                         st.sampled_from(["AND", "XOR", "INV", "EQW", "x", "",
                                          "+1", "0_1", "\u0661", "-0", "9" * 5000]),
                         st.sampled_from(["07", "1.5", "1e3", "NaN", "true", "false", "2.0", "1e0"]))


@st.composite
def mutated_bristol(draw):
    """A valid document after 1-4 line deletions, duplications, swaps or
    token replacements."""
    lines = draw(st.sampled_from(_FUZZ_DOCS)).split("\n")
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "token"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
    return "\n".join(lines)


# what may stand between two tokens, or at a line's start, instead of one space
_FUZZ_SEPARATORS = st.sampled_from(["", ",", "  ", "\t", "\r", "\n", ".", "x"])


@st.composite
def one_token_off(draw):
    """A document in the writer's dialect with one token, or the space before
    it, of one gate line replaced, so that the bulk branch reads up to there."""
    lines = draw(st.sampled_from(_DIALECT_DOCS)).split("\n")
    i = draw(st.integers(4, len(lines) - 2))  # past the header and the blank line
    tokens = lines[i].split(" ")
    k = draw(st.integers(0, len(tokens) - 1))
    if draw(st.booleans()):
        tokens[k] = draw(_FUZZ_TOKENS)
        lines[i] = " ".join(tokens)
    else:
        lines[i] = " ".join(tokens[:k]) + draw(_FUZZ_SEPARATORS) + " ".join(tokens[k:])
    return "\n".join(lines)


def _per_line(doc):
    """import_bristol with the bulk branch declining every document."""
    with mock.patch.object(io_formats, "_read_canonical", lambda text: None):
        return import_bristol(doc)


def _imported(read, doc):
    """The gate and output arrays ``read`` makes of ``doc``, or its message."""
    try:
        c = read(doc)
    except BristolFormatError as e:
        return str(e)
    return bytes(c._kinds), c._first, c._second, c._ids


class TestBristolImportFuzz:
    @given(st.one_of(mutated_bristol(), one_token_off()))
    @settings(max_examples=500, deadline=None)
    def test_valid_circuit_or_format_error(self, doc):
        assert _imported(import_bristol, doc) == _imported(_per_line, doc)


class TestBristolImportBranches:
    @pytest.mark.parametrize("n", [3, 4, 37, 1001, 10000])
    @pytest.mark.parametrize("construction", [OPTIMAL, BASELINE])
    def test_writer_dialect_takes_the_bulk_branch(self, monkeypatch, n, construction):
        doc = export_bristol(synthesize(n, construction))
        want = _imported(_per_line, doc)

        def refuse(text):
            raise AssertionError("the per-line parser ran")

        monkeypatch.setattr(io_formats, "_read_lines", refuse)
        assert _imported(import_bristol, doc) == want

    @pytest.mark.parametrize("doc,message", [
        ("1 4\n1 3\n1 1\n\n2 1 AND\n0 3 XOR\n", "header declares 1 gates, found 2"),
        ("1 4\n1 3\n1 1\n\n2 1 0 1 3 XOR\n5 AND\n", "header declares 1 gates, found 2"),
        ("2 5\n1 3\n1 1\n\n2 1 0 0 3 0 2 1 0 3 4 XOR\n", "header declares 2 gates, found 1"),
        ("2 5\n1 3\n2 1\n\n2 1 0 1 3 XOR\n2 1 3 2 4 AND\n", "line 3: bad output group declaration"),
        ("1 4\n1 3\n0\n\n2 1 0 1 3 XOR\n", "circuit must declare at least one output wire"),
        ("1 4\n1 3\n2 1 1\n\n2 1 0 1 3 XOR\n", "wire count smaller than declared inputs plus outputs"),
    ], ids=["line-split-at-op", "trailing-fields", "two-gates-one-line", "output-group-sizes",
            "no-outputs", "more-outputs-than-gates"])
    def test_near_dialect_takes_the_per_line_parser(self, doc, message):
        # each reads as a canonical body once line ends are mere separators
        assert io_formats._read_canonical(doc) is None
        with pytest.raises(BristolFormatError, match=f"^{message}$"):
            import_bristol(doc)

    def test_trailing_space_takes_the_per_line_parser(self, monkeypatch):
        monkeypatch.setattr(io_formats, "_BULK", 1)  # the space is a chunk of its own
        doc = export_bristol(synthesize(3, OPTIMAL))
        assert io_formats._read_canonical(doc + " ") is None
        assert _imported(import_bristol, doc + " ") == _imported(import_bristol, doc)

    @pytest.mark.parametrize("bulk", [1, 30, 1000])
    def test_chunk_boundaries(self, monkeypatch, bulk):
        # a step of one character ends every chunk at the next line's end
        monkeypatch.setattr(io_formats, "_BULK", bulk)
        for doc in [export_bristol(synthesize(n, c)) for n in range(3, 41) for c in (OPTIMAL, BASELINE)]:
            assert io_formats._read_canonical(doc) is not None
            assert _imported(import_bristol, doc) == _imported(_per_line, doc)


class TestBristolImportErrors:
    # a digit run past int()'s length limit: the message names the line and
    # the token, cut short, instead of echoing the whole line
    @pytest.mark.parametrize("doc,line", [
        ("9" * 5000 + " 4\n1 2\n1 1\n\n2 1 0 1 3 AND\n", 1),
        ("1 4\n1 " + "9" * 5000 + "\n1 1\n\n2 1 0 1 3 AND\n", 2),
        ("1 4\n1 2\n1 1\n\n2 1 0 " + "9" * 5000 + " 3 AND\n", 5),
        ("1 4\n1 2\n1 1\n\n2 " + "9" * 5000 + " 0 1 3 AND\n", 5),
    ], ids=["header", "input-group", "wire", "wire-count"])
    def test_overlong_number_message_is_short(self, doc, line):
        with pytest.raises(BristolFormatError) as info:
            import_bristol(doc)
        message = str(info.value)
        assert message.startswith(f"line {line}: expected an integer, got '9999")
        assert "(5000 characters)" in message and len(message) < 200

    # int() reads each of these as a number; the grammar takes ASCII digits only
    @pytest.mark.parametrize("doc,message", [
        ("1 4\n1 2\n1 1\n\n2 1 0 +1 3 AND\n", "line 5: unexpected '+'"),
        ("1 4\n1 2\n1 1\n\n2 1 0_0 1 3 AND\n", "line 5: unexpected '_'"),
        ("1 4\n1 2\n1 1\n\n2 1 0 \u0661 3 AND\n", "line 5: unexpected '\u0661'"),
        ("1 4\n2 3 -1\n1 1\n\n2 1 0 1 3 AND\n", "line 2: unexpected '-'"),
    ])
    def test_non_canonical_integer(self, doc, message):
        with pytest.raises(BristolFormatError, match=re.escape(message)):
            import_bristol(doc)

    # every message the importer writes, whole; _HEAD declares two inputs,
    # one output and four wires, so its one gate line is line 5
    _HEAD = "1 4\n1 2\n1 1\n\n"

    @pytest.mark.parametrize("doc,message", [
        ("1 2\n", "missing header lines"),
        ("1 4 4\n1 2\n1 1\n\n2 1 0 1 3 AND\n", "line 1: header must be '<ngates> <nwires>'"),
        ("x 4\n1 2\n1 1\n\n2 1 0 1 3 AND\n", "line 1: expected an integer, got 'x'"),
        ("3 5\n1 2\n1 1\n\n", "header declares 3 gates, found 0"),
        # the count is checked before any gate line is read
        ("2 4\n1 2\n1 1\n\n2 1 0 9 3 AND\n", "header declares 2 gates, found 1"),
        ("1 4\n2 2\n1 1\n\n2 1 0 1 3 AND\n", "line 2: bad input group declaration"),
        ("1 4\n1 2\n2 1\n\n2 1 0 1 3 AND\n", "line 3: bad output group declaration"),
        ("1 4\n1 0\n1 1\n\n2 1 0 1 3 AND\n", "circuit must declare at least one input wire"),
        ("1 2000001\n1 2000000\n1 1\n\n2 1 0 1 2000000 AND\n",
         "2000000 input wires declared, limit 1048576"),
        ("1 4\n1 2\n1 0\n\n2 1 0 1 3 AND\n", "circuit must declare at least one output wire"),
        ("1 2\n1 2\n1 1\n\n2 1 0 1 3 AND\n", "wire count smaller than declared inputs plus outputs"),
        ("1 4\n1 2\n1 1\n\n2 1 0 +1 3 AND\n", "line 5: unexpected '+'; numbers are ASCII digits"),
        (_HEAD + "2 1 AND\n", "line 5: truncated gate line"),
        (_HEAD + "2 1 0 1 3 NAND\n", "line 5: unknown op 'NAND'"),
        (_HEAD + "2 1 0 x 3 AND\n", "line 5: expected an integer, got 'x'"),
        (_HEAD + "2 1 0 1 " + "9" * 5000 + " AND\n",
         "line 5: expected an integer, got '99999999999999999999' (5000 characters)"),
        (_HEAD + "1 1 0 3 AND\n", "line 5: AND must have 2 inputs, 1 output"),
        # the op's shape is checked before its wires are read
        (_HEAD + "1 1 x 3 AND\n", "line 5: AND must have 2 inputs, 1 output"),
        (_HEAD + "2 1 0 1 3 INV\n", "line 5: INV must have 1 inputs, 1 output"),
        (_HEAD + "2 1 0 1 2 3 AND\n", "line 5: expected 3 wires"),
        (_HEAD + "2 1 9 0 3 XOR\n", "line 5: wire 9 used before definition"),
        (_HEAD + "2 1 0 9 3 AND\n", "line 5: wire 9 used before definition"),
        (_HEAD + "1 1 9 3 INV\n", "line 5: wire 9 used before definition"),
        (_HEAD + "2 1 0 1 4 AND\n", "line 5: output wire 4 out of range"),
        (_HEAD + "2 1 0 1 1 AND\n", "line 5: wire 1 defined twice"),
        ("2 4\n1 2\n1 1\n\n2 1 0 1 3 XOR\n2 1 0 1 3 XOR\n", "line 6: wire 3 defined twice"),
        # blank lines count toward line numbers but not toward gates
        ("1 4\n\n1 2\n1 1\n\n\n \n2 1 0 9 3 AND\n", "line 8: wire 9 used before definition"),
        ("1 5\n1 2\n1 1\n\n2 1 0 1 2 XOR\n", "output wire 4 is never driven"),
        # each output wire needs a gate line of its own to drive it
        ("1 6\n1 2\n1 2\n\n2 1 0 1 5 AND\n", "more output wires (2) than gate lines (1)"),
    ], ids=["missing-header", "header-three-fields", "header-not-integer", "no-gate-lines",
            "gate-count-before-lines", "input-group-sizes", "output-group-sizes", "no-inputs",
            "input-limit", "no-outputs", "wires-below-inputs-plus-outputs", "plus-sign",
            "truncated-gate", "unknown-op", "wire-not-integer", "overlong-wire", "and-arity",
            "arity-before-wires", "inv-arity", "extra-wire", "undefined-first-operand",
            "undefined-second-operand", "undefined-inv-operand", "output-wire-out-of-range",
            "output-wire-is-input", "wire-defined-twice", "blank-lines-numbered",
            "output-never-driven", "more-outputs-than-gates"])
    def test_message_pinned(self, doc, message):
        with pytest.raises(BristolFormatError) as info:
            import_bristol(doc)
        assert str(info.value) == message


class TestBristolImportLimits:
    # two million declared inputs, or four million outputs, in a document
    # under 50 bytes
    @pytest.mark.parametrize("doc,match", [
        ("1 2000001\n1 2000000\n1 1\n\n2 1 0 1 2000000 AND\n", "limit 1048576"),
        ("5 2000001\n1 2000000\n1 1\n\n2 1 0 1 2000000 AND\n", "declares 5 gates"),
        ("1 4000002\n1 2\n1 4000000\n\n2 1 0 1 4000001 AND\n", "more output wires"),
    ])
    def test_oversized_header_refused_before_allocating(self, doc, match):
        def refused():
            with pytest.raises(BristolFormatError, match=match):
                import_bristol(doc)

        t0 = time.perf_counter()
        _, _, peak = traced(refused)
        assert time.perf_counter() - t0 < 0.5
        assert peak < 1 << 20

    def test_input_cap_imports_in_bounded_memory(self):
        doc = "1 1048577\n1 1048576\n1 1\n\n2 1 0 1 1048576 AND\n"
        circuit, _, peak = traced(lambda: import_bristol(doc))
        assert circuit.arity == 1 << 20 and circuit.and_count() == 1
        assert peak < 32 << 20

    def test_input_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(io_formats, "MAX_BRISTOL_INPUTS", 4)
        assert import_bristol("1 6\n1 4\n1 1\n\n2 1 0 3 5 AND\n").arity == 4
        with pytest.raises(BristolFormatError, match="5 input wires declared, limit 4"):
            import_bristol("1 7\n1 5\n1 1\n\n2 1 0 4 6 AND\n")


class TestDot:
    def test_output_labels_present(self):
        dot = export_dot(synthesize(3, OPTIMAL))
        for i in (1, 2, 3):
            assert f"f_{i}" in dot

    def test_sigma_subcircuit_has_one_and_node(self):
        b = CircuitBuilder(3)
        x1, x2, x3 = 0, 1, 2
        s = b.xor(b.and_(b.xor(x1, x2), b.xor(x2, x3)), x2)
        dot = export_dot(b.finish([("s", s)]))
        assert sum(1 for l in dot.splitlines() if 'label="AND"' in l) == 1

    def test_label_quotes_and_backslashes_escaped(self):
        b = CircuitBuilder(2)
        c = b.finish([('a"b', b.and_(0, 1)), ("c\\d", 1)])
        lines = export_dot(c).splitlines()
        assert '  g1 [label="x2 (c\\\\d)" shape=box];' in lines
        assert '  g2 [label="AND (a\\"b)"];' in lines


def load_perfbench_checker():
    """perfbench/checker.py, which never imports xagsynth, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("perfbench_checker", path)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


class TestIndependentChecker:
    @pytest.mark.parametrize("n", [4, 5, 64, 1001])
    @pytest.mark.parametrize("construction", [OPTIMAL, BASELINE])
    def test_accepts_the_exports(self, n, construction):
        # the checker holds every circuit to 2n - 3 ANDs, so the baseline's
        # 3n - 6 is the only problem it may find
        checker = load_perfbench_checker()
        c = synthesize(n, construction)
        want = [] if construction == OPTIMAL else [
            f"{3 * n - 6} AND gates, expected 2n-3 = {2 * n - 3}"]
        assert checker.check_json(export_json(c, construction), n, seed=n) == want
        assert checker.check_bristol(export_bristol(c), n, seed=n) == want


# sha256 of export_json(synthesize(n, c), c), recorded from the json.dumps
# writer; the optimal digests for n >= 4 since XORs have two operands, and
# TestIndependentChecker holds those documents to the checker
_PINNED_JSON = [
    (3, OPTIMAL, "72aca4ecdd49e8a77f6c41b40cc0443fb565aa0895ca9aba455b7b48dd303b57"),
    (4, OPTIMAL, "87405cc3136f86c749b3418affb365947cfd6adaca71951b84bb4066e4c25003"),
    (5, OPTIMAL, "c8ba1405d558f6d7f3b703355963a878e491bd2b089e073163c9dad307999ef8"),
    (6, OPTIMAL, "937de7ded196c1b9c1afaec60dd9a077db3dd30543f2db007d926133e04b54d7"),
    (37, OPTIMAL, "e0891e13dc19e858402e175f0aa83ab52fcc41de9b0b5ece712c8adc1eb0bfe9"),
    (1000, OPTIMAL, "a46318db88c114f48fbfc9815e10689135cd1294b0da2d342cec46e04986e4e2"),
    (3, BASELINE, "345b40fe09314cb9da9f22b9b07d7d98f22efd528fd997682b0c4aa96d71f63a"),
    (4, BASELINE, "2fc605288aaee9a4970612545c625fce23e8cb3531f81b40668732c48ae67e9f"),
    (5, BASELINE, "f7c40929a6ca348134ad3e133e80556669d4d183019b8f0d1e0fe67c822361c0"),
    (6, BASELINE, "8d31e203f528336ee5f6d875159364905f9966689b727c1e4c073318eb892843"),
    (37, BASELINE, "48465ebc0f870d447a47d35adbb3cde97d838ed0831bda6d60099976500264b8"),
    (1000, BASELINE, "261d43a102b779ea1cf05749f3eaccbec98658ab3f9626acdcc14273719b6f53"),
]


class TestJson:
    def test_schema(self):
        import json

        doc = json.loads(export_json(synthesize(4, OPTIMAL), "optimal"))
        assert doc["arity"] == 4
        assert doc["construction"] == "optimal"
        assert doc["and_count"] == 5
        assert doc["gates"][0] == {"id": 0, "kind": "INPUT", "var": 1}
        assert [o["label"] for o in doc["outputs"]] == ["f_1", "f_2", "f_3", "f_4"]
        kinds = {g["kind"] for g in doc["gates"]}
        assert kinds <= {"INPUT", "AND", "XOR", "NOT"}

    @pytest.mark.parametrize("n,construction,digest", _PINNED_JSON,
                             ids=[f"{c}-n{n}" for n, c, _ in _PINNED_JSON])
    def test_bytes_pinned(self, n, construction, digest):
        text = export_json(synthesize(n, construction), construction)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [*range(3, 41), 1000, 1001])
    @pytest.mark.parametrize("construction", [OPTIMAL, BASELINE])
    def test_matches_json_dumps(self, n, construction):
        c = synthesize(n, construction)
        assert export_json(c, construction) == json_dumps_circuit(c, construction)

    @pytest.mark.parametrize("construction", [None, "weird\u2028", 'q"\\'])
    def test_edge_cases_match_json_dumps(self, construction):
        b = CircuitBuilder(3)
        y = b.xor(b.and_(0, b.not_(1)), b.not_(b.xor(0, 0)), 2)
        c = b.finish([('a"b\\c\u00e9\nd', y), ("x2", 1)])
        text = export_json(c, construction)
        assert text == json_dumps_circuit(c, construction)
        assert json.loads(text)["outputs"][0]["label"] == 'a"b\\c\u00e9\nd'

    def test_no_outputs(self):
        c = CircuitBuilder(2).finish([])
        text = export_json(c)
        assert text == json_dumps_circuit(c)
        assert '"outputs": []\n}' in text
