import hashlib
import json
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xagsynth import (
    BASELINE,
    OPTIMAL,
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

from oracles import all_inputs, json_dumps_circuit, naive_eval


def and_lines(doc):
    return [l for l in doc.splitlines() if l.endswith(" AND")]


# sha256 of export_bristol and export_dot of synthesize(n, c), recorded when
# input gates still carried their variable as ("INPUT", v)
_PINNED_BRISTOL_DOT = [
    (3, OPTIMAL, "ade57c7cbf445607f3f2a1bd95b165b07c977b9fa946b3e1e5f8a9147df38050",
     "b312ffc917cdf582d4393cc9a16a43df92b8aeeee5551719e4c16fb95ae7320c"),
    (4, OPTIMAL, "38497ad7b66ba69d2884d4dc3a30d1fa62b4a1a21306a15831764e199f175b67",
     "40f5745372c32de112b13a6cca73c7d31fae18dd894671998f9f31ce198153f3"),
    (5, OPTIMAL, "a839e643a9c0d9d0b1bd0055c743684d0fc365dc3c15fa6e90d914de4423def8",
     "377a755e00583997189471a8c55d057590c97fa0d7e5e468870042ea614cec9e"),
    (6, OPTIMAL, "b7266944e22c58556112aff8958f799e11a6bb486639203e062e9ebef3f69c83",
     "6aaeab60508c5a1549eb436dd2f6e2e7417b73b5bfa52c0c9b8e22df3604d97d"),
    (37, OPTIMAL, "5dd27b71e08f655cf8f29d70f582edb523b825bf1ba5a0b0fb4b18981b768c7e",
     "3769720fca3a814d87d8ba1609d8bb21a505f3510bf80bf2f93d2c55978d4759"),
    (1000, OPTIMAL, "f0d4b1461dfd2fcc9a4787887163b790e679b0f0c8e9d7198bcdf728ba2400c6",
     "a9561d870f3d7893765fe01487f7f63bdbe5f946755cc027d3fb1fc263b11b3a"),
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


class TestBristolExport:
    def test_n3_optimal_has_three_and_lines(self):
        assert len(and_lines(export_bristol(synthesize(3, OPTIMAL)))) == 3

    def test_single_not_gives_inv_line(self):
        b = CircuitBuilder(1)
        x1 = 0
        doc = export_bristol(b.finish([("y", b.not_(x1))]))
        assert sum(1 for l in doc.splitlines() if l.endswith(" INV")) == 1

    def test_no_outputs_rejected(self):
        b = CircuitBuilder(1)
        with pytest.raises(ValueError):
            export_bristol(b.finish([]))

    def test_header_shape(self):
        doc = export_bristol(synthesize(4, OPTIMAL))
        lines = doc.splitlines()
        ngates, nwires = map(int, lines[0].split())
        assert lines[1] == "1 4"
        assert lines[2] == "4 1 1 1 1"
        assert lines[3] == ""
        assert ngates == len(lines) - 4
        assert nwires >= 4 + 4

    def test_deterministic(self):
        c = synthesize(6, BASELINE)
        assert export_bristol(c) == export_bristol(c)

    @pytest.mark.parametrize("n,construction,bristol,dot", _PINNED_BRISTOL_DOT)
    def test_bytes_pinned(self, n, construction, bristol, dot):
        c = synthesize(n, construction)
        assert hashlib.sha256(export_bristol(c).encode()).hexdigest() == bristol
        assert hashlib.sha256(export_dot(c).encode()).hexdigest() == dot

    # sha256 of the three exports of a hand-built circuit with a NOT, a
    # 3-operand XOR, an unreachable AND, two outputs on one gate and one
    # output on an input, recorded when the Bristol lowering still allocated
    # wires through a counter
    def test_hand_built_bytes_pinned(self):
        b = CircuitBuilder(3)
        n1 = b.not_(0)
        b.and_(1, 2)  # unreachable
        y = b.xor(b.and_(n1, 1), 2, n1)
        c = b.finish([("y", y), ("y again", y), ("x2", 1)])
        digests = [hashlib.sha256(f(c).encode()).hexdigest()
                   for f in (export_bristol, export_json, export_dot)]
        assert digests == [
            "b8c2a9a7b72928a55bc9faf38af4a7ac4e93486dd31917c37bad9c3557f5f152",
            "81d084b89094fd31151685a0c666abf26509ca4871ae393b4945747dd0600c67",
            "e6d835e32a80f565202421fb4e532edc30d30fe30bc8aa25d61eb72840e931ce",
        ]

    @pytest.mark.parametrize("chunk", [1, 2, 4096])
    def test_hand_built_writers_match_exports(self, tmp_path, monkeypatch, chunk):
        # the pinned circuit above, streamed into a file; at one and two items
        # per write, chunk boundaries fall all through the document
        b = CircuitBuilder(3)
        n1 = b.not_(0)
        b.and_(1, 2)  # unreachable
        y = b.xor(b.and_(n1, 1), 2, n1)
        c = b.finish([("y", y), ("y again", y), ("x2", 1)])
        writers = {io_formats.write_bristol: export_bristol(c),
                   io_formats.write_json: export_json(c),
                   io_formats.write_dot: export_dot(c)}
        monkeypatch.setattr(io_formats, "_CHUNK", chunk)
        for write, expected in writers.items():
            path = tmp_path / "out"
            with open(path, "w") as fh:
                write(c, fh)
            assert path.read_text() == expected


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
        c = import_bristol(doc)
        assert c.gates == (("INPUT",), ("INPUT",), ("AND", 0, 1), ("XOR", 2, 1), ("AND", 3, 0))
        assert c.outputs == (("o1", 4),)

    def test_repeated_and_line_is_kept_and_counted(self):
        doc = "2 4\n1 2\n2 1 1\n\n2 1 0 1 2 AND\n2 1 0 1 3 AND\n"
        c = import_bristol(doc)
        assert c.gates[2:] == (("AND", 0, 1), ("AND", 0, 1))
        assert c.and_count() == 2


_FUZZ_DOCS = [export_bristol(synthesize(n, c))
              for n, c in [(3, OPTIMAL), (4, BASELINE), (5, OPTIMAL)]]
_FUZZ_TOKENS = st.one_of(st.integers(-2, 48).map(str),
                         st.sampled_from(["AND", "XOR", "INV", "EQW", "x", "1.5", "",
                                          "+1", "0_1", "\u0661", "-0", "9" * 5000]))


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


class TestBristolImportFuzz:
    @given(mutated_bristol())
    @settings(max_examples=300, deadline=None)
    def test_valid_circuit_or_format_error(self, doc):
        try:
            circuit = import_bristol(doc)
        except BristolFormatError:
            return
        circuit.validate()


class TestBristolImportErrors:
    def test_missing_header(self):
        with pytest.raises(BristolFormatError):
            import_bristol("1 2\n")

    def test_declared_gates_but_empty_body(self):
        with pytest.raises(BristolFormatError, match="declares 3 gates"):
            import_bristol("3 5\n1 2\n1 1\n\n")

    def test_undefined_wire(self):
        with pytest.raises(BristolFormatError, match="before definition"):
            import_bristol("1 4\n1 2\n1 1\n\n2 1 0 9 3 XOR\n")

    def test_unknown_op(self):
        with pytest.raises(BristolFormatError, match="unknown op"):
            import_bristol("1 4\n1 2\n1 1\n\n2 1 0 1 3 NAND\n")

    def test_redefined_wire(self):
        text = "2 4\n1 2\n1 1\n\n2 1 0 1 3 XOR\n2 1 0 1 3 XOR\n"
        with pytest.raises(BristolFormatError, match="defined twice"):
            import_bristol(text)

    def test_undriven_output_wire(self):
        with pytest.raises(BristolFormatError, match="never driven"):
            import_bristol("1 5\n1 2\n1 1\n\n2 1 0 1 2 XOR\n")

    def test_bad_op_arity(self):
        with pytest.raises(BristolFormatError, match="must have"):
            import_bristol("1 4\n1 2\n1 1\n\n1 1 0 3 AND\n")

    def test_non_integer_header(self):
        with pytest.raises(BristolFormatError):
            import_bristol("x y\n1 2\n1 1\n\n")

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


class TestBristolImportLimits:
    # two million declared inputs in a 45-byte document
    @pytest.mark.parametrize("doc,match", [
        ("1 2000001\n1 2000000\n1 1\n\n2 1 0 1 2000000 AND\n", "limit 1048576"),
        ("5 2000001\n1 2000000\n1 1\n\n2 1 0 1 2000000 AND\n", "declares 5 gates"),
    ])
    def test_oversized_header_refused_before_allocating(self, doc, match):
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(BristolFormatError, match=match):
                import_bristol(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 0.5
        assert peak < 1 << 20

    def test_input_cap_imports_in_bounded_memory(self):
        doc = "1 1048577\n1 1048576\n1 1\n\n2 1 0 1 1048576 AND\n"
        tracemalloc.start()
        try:
            circuit = import_bristol(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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

    def test_deterministic(self):
        c = synthesize(5, OPTIMAL)
        assert export_dot(c) == export_dot(c)

    def test_label_quotes_and_backslashes_escaped(self):
        b = CircuitBuilder(2)
        c = b.finish([('a"b', b.and_(0, 1)), ("c\\d", 1)])
        lines = export_dot(c).splitlines()
        assert '  g1 [label="x2 (c\\\\d)" shape=box];' in lines
        assert '  g2 [label="AND (a\\"b)"];' in lines


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

    def test_deterministic(self):
        c = synthesize(4, BASELINE)
        assert export_json(c) == export_json(c)

    # sha256 of export_json(synthesize(n, c), c), recorded from the json.dumps writer
    @pytest.mark.parametrize("n,construction,digest", [
        (3, OPTIMAL, "72aca4ecdd49e8a77f6c41b40cc0443fb565aa0895ca9aba455b7b48dd303b57"),
        (4, OPTIMAL, "cec3ef0381b953fe14be191514a527301484de4595cb0e34374307fe6baf5322"),
        (5, OPTIMAL, "534b19712668a351d6c64aab1423c72061fa779225ddbdc0cd21dff949e0fb51"),
        (6, OPTIMAL, "60f0ffd0c52085898844da79211c54bca6bbee07f2eb9c95c959c1247b241120"),
        (37, OPTIMAL, "e7c5fa0274235efaea3b0b442c20824823bb4e3da7e6fba342ae139f277cea0a"),
        (1000, OPTIMAL, "d8476888f395d88fc17928fbd56ea1a72c51d52fd60a00f1f63eb249ddab80a6"),
        (3, BASELINE, "345b40fe09314cb9da9f22b9b07d7d98f22efd528fd997682b0c4aa96d71f63a"),
        (4, BASELINE, "2fc605288aaee9a4970612545c625fce23e8cb3531f81b40668732c48ae67e9f"),
        (5, BASELINE, "f7c40929a6ca348134ad3e133e80556669d4d183019b8f0d1e0fe67c822361c0"),
        (6, BASELINE, "8d31e203f528336ee5f6d875159364905f9966689b727c1e4c073318eb892843"),
        (37, BASELINE, "48465ebc0f870d447a47d35adbb3cde97d838ed0831bda6d60099976500264b8"),
        (1000, BASELINE, "261d43a102b779ea1cf05749f3eaccbec98658ab3f9626acdcc14273719b6f53"),
    ])
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
