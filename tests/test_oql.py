"""Unit tests for the OQL front-end: lexer, parser, and translator."""

from __future__ import annotations

import pytest

from repro.calculus.evaluator import evaluate
from repro.calculus.terms import (
    BinOp,
    Comprehension,
    Const,
    Extent,
    Not,
    Null,
    Proj,
    RecordCons,
    Var,
)
from repro.data.datagen import company_database
from repro.oql.ast import (
    Aggregate,
    BinaryOp,
    Exists,
    ForAll,
    InCollection,
    Literal,
    Name,
    Path,
    Select,
    Struct,
    UnaryOp,
)
from repro.oql.lexer import OQLSyntaxError, tokenize
from repro.oql.parser import parse
from repro.oql.translator import TranslationError, parse_and_translate, translate


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SELECT Distinct fRoM")
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            ("keyword", "select"),
            ("keyword", "distinct"),
            ("keyword", "from"),
        ]

    def test_identifiers_case_sensitive(self):
        tokens = tokenize("Employees employees")
        assert tokens[0].value == "Employees"
        assert tokens[1].value == "employees"

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert (tokens[0].kind, tokens[0].value) == ("int", "42")
        assert (tokens[1].kind, tokens[1].value) == ("float", "3.14")

    def test_string_literal(self):
        tokens = tokenize('"DB title"')
        assert tokens[0].kind == "string"
        assert tokens[0].value == "DB title"

    def test_unterminated_string(self):
        with pytest.raises(OQLSyntaxError, match="unterminated"):
            tokenize('"oops')

    def test_symbols_longest_match(self):
        tokens = tokenize("<= >= != <>")
        assert [t.value for t in tokens[:-1]] == ["<=", ">=", "!=", "!="]

    def test_comments_skipped(self):
        tokens = tokenize("select -- a comment\n 1")
        assert [t.kind for t in tokens] == ["keyword", "int", "eof"]

    def test_unexpected_character(self):
        with pytest.raises(OQLSyntaxError, match="unexpected character"):
            tokenize("select @")

    def test_error_carries_line_and_column(self):
        with pytest.raises(OQLSyntaxError, match="line 2"):
            tokenize("select\n   @")

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"

    @pytest.mark.parametrize("literal", ["1\u00b2", "1.\u00b2"], ids=["int", "float"])
    def test_non_decimal_digit_is_a_syntax_error(self, literal):
        # "\u00b2" (superscript two) is a digit to str.isdigit but not to int().
        source = f"select e from e in Employees where e.age > {literal}"
        column = source.index("\u00b2") + 1
        message = f"unexpected character '\u00b2' \\(line 1, column {column}\\)"
        with pytest.raises(OQLSyntaxError, match=message):
            tokenize(source)
        with pytest.raises(OQLSyntaxError, match=message):
            parse(source)

    def test_other_decimal_digits_are_numbers(self):
        # Arabic-Indic three and one-point-five: int() and float() take them.
        assert parse("\u0663") == Literal(3)
        assert parse("\u0661.\u0665") == Literal(1.5)

    def test_token_end_is_past_its_source_text(self):
        source = 'e.name = "a\\"b" <> 42'
        spans = [source[t.position : t.end] for t in tokenize(source)]
        assert spans == ["e", ".", "name", "=", '"a\\"b"', "<>", "42", ""]


class TestParser:
    def test_simple_select(self):
        node = parse("select distinct e.name from e in Employees")
        assert isinstance(node, Select)
        assert node.distinct
        assert node.from_clauses[0].var == "e"
        assert node.from_clauses[0].domain == Name("Employees")
        assert node.items[0].expr == Path(Name("e"), "name")

    def test_sql_style_from(self):
        node = parse("select e.name from Employees e")
        assert node.from_clauses[0].var == "e"
        assert node.from_clauses[0].domain == Name("Employees")

    def test_from_with_as(self):
        node = parse("select e.name from Employees as e")
        assert node.from_clauses[0].var == "e"

    def test_multiple_from_clauses(self):
        node = parse("select 1 from e in Employees, c in e.children")
        assert len(node.from_clauses) == 2
        assert node.from_clauses[1].domain == Path(Name("e"), "children")

    def test_where(self):
        node = parse("select e from e in Employees where e.age > 30")
        assert node.where == BinaryOp(">", Path(Name("e"), "age"), Literal(30))

    def test_operator_precedence(self):
        node = parse("select e from e in X where a = 1 and b = 2 or c = 3")
        assert isinstance(node.where, BinaryOp) and node.where.op == "or"
        assert node.where.left.op == "and"

    def test_arithmetic_precedence(self):
        node = parse("select 1 + 2 * 3 from e in X")
        expr = node.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parenthesized(self):
        node = parse("select (1 + 2) * 3 from e in X")
        assert node.items[0].expr.op == "*"

    def test_unary_minus(self):
        node = parse("select -e.age from e in X")
        assert node.items[0].expr == UnaryOp("-", Path(Name("e"), "age"))

    def test_not(self):
        node = parse("select e from e in X where not e.flag")
        assert node.where == UnaryOp("not", Path(Name("e"), "flag"))

    def test_struct(self):
        node = parse("select struct( A: 1, B: e.name ) from e in X")
        assert node.items[0].expr == Struct(
            (("A", Literal(1)), ("B", Path(Name("e"), "name")))
        )

    def test_exists_quantifier(self):
        node = parse("select e from e in X where exists c in e.kids: c.age > 2")
        where = node.where
        assert isinstance(where, Exists)
        assert where.var == "c"
        assert where.domain == Path(Name("e"), "kids")

    def test_exists_nonempty_form(self):
        node = parse("select e from e in X where exists( select k from k in e.kids )")
        assert isinstance(node.where, Exists)
        assert node.where.predicate == Literal(True)

    def test_forall_quantifier(self):
        node = parse("select e from e in X where for all c in e.kids: c.age > 2")
        assert isinstance(node.where, ForAll)

    def test_membership(self):
        node = parse("select e from e in X where e.name in ( select n from n in Y )")
        assert isinstance(node.where, InCollection)

    def test_aggregates(self):
        for fn in ("count", "sum", "avg", "max", "min"):
            node = parse(f"select {fn}( select e.v from e in X ) from d in D")
            assert isinstance(node.items[0].expr, Aggregate)
            assert node.items[0].expr.function == fn

    def test_group_by_and_having(self):
        node = parse(
            "select e.dno, count(e) from Employees e group by e.dno "
            "having count(e) > 1"
        )
        assert node.group_by == (Path(Name("e"), "dno"),)
        assert node.having is not None

    def test_alias(self):
        node = parse("select e.dno as department from e in X")
        assert node.items[0].alias == "department"

    def test_nested_select_as_expression(self):
        node = parse("select ( select c from c in e.kids ) from e in X")
        assert isinstance(node.items[0].expr, Select)

    def test_literals(self):
        node = parse("select struct(A: true, B: false, C: nil) from e in X")
        fields = dict(node.items[0].expr.fields)
        assert fields["A"] == Literal(True)
        assert fields["B"] == Literal(False)
        assert fields["C"] == Literal(None)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(OQLSyntaxError, match="trailing"):
            parse("select e from e in X extra")

    def test_missing_from_rejected(self):
        with pytest.raises(OQLSyntaxError, match="expected keyword 'from'"):
            parse("select e")

    def test_top_level_expression(self):
        node = parse("1 + 2")
        assert node == BinaryOp("+", Literal(1), Literal(2))


class TestTranslator:
    def test_select_distinct_is_set(self):
        term = parse_and_translate("select distinct e from e in Employees")
        assert isinstance(term, Comprehension)
        assert term.monoid_name == "set"

    def test_select_plain_is_bag(self):
        term = parse_and_translate("select e from e in Employees")
        assert term.monoid_name == "bag"

    def test_struct_becomes_record(self):
        term = parse_and_translate("select distinct struct(N: e.name) from e in Employees")
        assert isinstance(term.head, RecordCons)

    def test_multi_item_projection_gets_names(self):
        term = parse_and_translate(
            "select distinct e.dno, e.name as who, count(select c from c in e.children) "
            "from e in Employees"
        )
        names = [n for n, _ in term.head.fields]
        assert names == ["dno", "who", "count"]

    def test_bound_name_is_var(self):
        term = parse_and_translate("select distinct e from e in Employees")
        assert term.head == Var("e")
        assert term.generators()[0].domain == Extent("Employees")

    def test_unknown_name_with_schema_rejected(self):
        from repro.errors import UnknownExtentError

        db = company_database(5, 2)
        with pytest.raises(UnknownExtentError, match="unknown name"):
            parse_and_translate("select distinct x from e in Employees", db.schema)

    def test_exists_becomes_some(self):
        term = parse_and_translate(
            "select distinct e from e in Employees where exists c in e.children: true"
        )
        pred = term.filters()[0].pred
        assert isinstance(pred, Comprehension) and pred.monoid_name == "some"

    def test_forall_becomes_all(self):
        term = parse_and_translate(
            "select distinct e from e in Employees "
            "where for all c in e.children: c.age > 1"
        )
        pred = term.filters()[0].pred
        assert isinstance(pred, Comprehension) and pred.monoid_name == "all"

    def test_membership_becomes_some_equality(self):
        term = parse_and_translate(
            "select distinct e from e in Employees "
            "where e.dno in ( select d.dno from d in Departments )"
        )
        pred = term.filters()[0].pred
        assert pred.monoid_name == "some"
        assert isinstance(pred.head, BinOp) and pred.head.op == "=="

    def test_count_fuses_into_sum_of_ones(self):
        term = parse_and_translate("count( select e from e in Employees )")
        assert term.monoid_name == "sum"
        assert term.head == Const(1)

    def test_aggregate_over_path(self):
        term = parse_and_translate(
            "select distinct sum(e.children) as k from e in Employees"
        )
        # sum over a path wraps the path in a generator
        inner = term.head.fields[0][1]
        assert inner.monoid_name == "sum"

    def test_avg_maps_to_avg_monoid(self):
        term = parse_and_translate("avg( select e.age from e in Employees )")
        assert term.monoid_name == "avg"

    def test_nil_is_null(self):
        term = parse_and_translate("select distinct nil from e in Employees")
        assert term.head == Null()

    def test_negation(self):
        term = parse_and_translate(
            "select distinct e from e in Employees where not (e.age > 3)"
        )
        assert isinstance(term.filters()[0].pred, Not)

    def test_unary_minus(self):
        term = parse_and_translate("select distinct -e.age from e in Employees")
        assert term.head == BinOp("-", Const(0), Proj(Var("e"), "age"))

    def test_group_by_shape_matches_paper(self):
        """Section 5: the group-by query translates to the implicitly
        nested form with a correlated avg comprehension."""
        term = parse_and_translate(
            "select distinct e.dno, avg(e.salary) as S from Employees e "
            "where e.age > 30 group by e.dno"
        )
        assert term.monoid_name == "set"
        avg_comp = term.head.fields[1][1]
        assert isinstance(avg_comp, Comprehension)
        assert avg_comp.monoid_name == "avg"
        # the inner comprehension re-ranges over Employees and correlates
        # on dno equality
        assert avg_comp.generators()[0].domain == Extent("Employees")

    def test_having_without_group_by_rejected(self):
        with pytest.raises(TranslationError, match="HAVING"):
            parse_and_translate(
                "select e from e in Employees having count(e) > 1"
            )

    def test_group_by_execution(self):
        db = company_database(20, 4)
        term = parse_and_translate(
            "select e.dno, count(e) as n from Employees e group by e.dno",
            db.schema,
        )
        result = evaluate(term, db)
        total = sum(record["n"] for record in result)
        assert total == db.cardinality("Employees")


class TestAggregatesOverADistinct:
    """An aggregate of a ``select distinct`` folds the set the select
    answers, not the stream it deduplicates.  Only a set-typed attribute's
    own elements (paper QUERY D's ``c <- e.children``) fuse into the fold."""

    @staticmethod
    def _expected(db) -> dict[str, object]:
        employees = list(db.extent("Employees"))
        dnos = {e["dno"] for e in employees}
        salaries = {e["salary"] for e in employees}
        ages = {c["age"] for e in employees for c in e["children"]}
        return {
            "count(select distinct e.dno from e in Employees)": len(dnos),
            "sum(select distinct e.salary from e in Employees)": sum(salaries),
            "avg(select distinct e.dno from e in Employees)": sum(dnos) / len(dnos),
            "max(select distinct e.dno from e in Employees)": max(dnos),
            "count(select distinct c.age from e in Employees, c in e.children)": len(ages),
            "sum(select count(select distinct c from c in e.children) "
            "from e in Employees)": sum(len(e["children"]) for e in employees),
        }

    def test_every_path_answers_what_the_extents_hold(self, company_db):
        from repro.testing.oracle import run_all_paths

        for source, expected in self._expected(company_db).items():
            for outcome in run_all_paths(source, {}, company_db):
                assert outcome.ok, (source, outcome.describe())
                assert repr(outcome.value) == repr(expected), (source, outcome.path)

    def test_a_bag_extent_holding_one_object_twice(self):
        from pathlib import Path

        from repro.testing.oracle import run_all_paths
        from repro.testing.repro_io import load_repro

        _, _, db = load_repro(
            Path(__file__).parent
            / "fuzz_repros"
            / "sqlite_one_object_twice_in_a_bag_extent.json"
        )
        objects = list(db.extent("X2"))
        assert len(objects) == 2
        source = "count(select distinct v from v in X2)"
        for outcome in run_all_paths(source, {}, db):
            assert outcome.ok and outcome.value == len({v.oid for v in objects})

    def test_only_a_set_attributes_elements_fuse(self, company_db):
        schema = company_db.schema
        fused = parse_and_translate(
            "select count(select distinct c from c in e.children where c.age > 3) "
            "from e in Employees",
            schema,
        ).head
        assert fused.monoid_name == "sum" and fused.head == Const(1)
        assert fused.generators()[0].domain == Proj(Var("e"), "children")
        for source in (
            "count(select distinct e.dno from e in Employees)",
            "count(select distinct e from e in Employees)",
            "sum(select distinct c.age from e in Employees, c in e.children)",
        ):
            term = parse_and_translate(source, schema)
            (generator,) = term.generators()
            assert generator.domain.monoid_name == "set", source
