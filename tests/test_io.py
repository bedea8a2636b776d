import pytest

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
    synthesize,
)

from oracles import all_inputs


def and_lines(doc):
    return [l for l in doc.splitlines() if l.endswith(" AND")]


class TestBristolExport:
    def test_n3_optimal_has_three_and_lines(self):
        assert len(and_lines(export_bristol(synthesize(3, OPTIMAL)))) == 3

    def test_single_not_gives_inv_line(self):
        b = CircuitBuilder(1)
        (x1,) = b.add_inputs()
        doc = export_bristol(b.finish([("y", b.not_(x1))]))
        assert sum(1 for l in doc.splitlines() if l.endswith(" INV")) == 1

    def test_no_outputs_rejected(self):
        b = CircuitBuilder(1)
        b.add_inputs()
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

    def test_const1_lowering(self):
        b = CircuitBuilder(1)
        b.add_inputs()
        c = b.finish([("y", b.const1())])
        imported = import_bristol(export_bristol(c))
        for bits in all_inputs(1):
            assert imported.eval(bits) == (1,)


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
        x1, x2, x3 = b.add_inputs()
        y = b.xor(b.and_(x1, b.not_(x2)), b.const1(), x3)
        c = b.finish([("y", y)])
        again = import_bristol(export_bristol(c))
        for bits in all_inputs(3):
            assert again.eval(bits) == c.eval(bits)

    @pytest.mark.parametrize("n", range(3, 65, 9))
    def test_and_line_conservation_larger(self, n):
        doc = export_bristol(synthesize(n, OPTIMAL))
        assert len(and_lines(doc)) == 2 * n - 3

    def test_repeated_and_line_is_kept_and_counted(self):
        doc = "2 4\n1 2\n2 1 1\n\n2 1 0 1 2 AND\n2 1 0 1 3 AND\n"
        c = import_bristol(doc)
        assert c.gates[2:] == (("AND", 0, 1), ("AND", 0, 1))
        assert c.and_count() == 2


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


class TestDot:
    def test_output_labels_present(self):
        dot = export_dot(synthesize(3, OPTIMAL))
        for i in (1, 2, 3):
            assert f"f_{i}" in dot

    def test_sigma_subcircuit_has_one_and_node(self):
        b = CircuitBuilder(3)
        x1, x2, x3 = b.add_inputs()
        s = b.xor(b.and_(b.xor(x1, x2), b.xor(x2, x3)), x2)
        dot = export_dot(b.finish([("s", s)]))
        assert sum(1 for l in dot.splitlines() if 'label="AND"' in l) == 1

    def test_deterministic(self):
        c = synthesize(5, OPTIMAL)
        assert export_dot(c) == export_dot(c)


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
        assert kinds <= {"INPUT", "CONST1", "AND", "XOR", "NOT"}

    def test_deterministic(self):
        c = synthesize(4, BASELINE)
        assert export_json(c) == export_json(c)
