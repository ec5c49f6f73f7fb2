import itertools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from trustgate.store import (
    DUA_NS,
    Graph,
    RDF_NS,
    SYN_NS,
    TST_NS,
    XSD_FLOAT,
    Term,
    Triple,
    TriplePattern,
    Var,
    iri,
    plain,
    serialize_term,
    typed,
)
from trustgate.middleware import AccessDecision, DataResponse
from trustgate.query import (
    BindingSet,
    ParseError,
    UnsupportedFeatureError,
    eval_ask,
    eval_select,
    eval_update,
    parse,
)

ASK_DUA_EXISTS = """ASK{
   ?dataCustodian a syn:Organization .
   ?dataCustodian rdfs:label "DataCustodian"^^rdf:PlainLiteral .
   ?user a tst:User .
   ?user rdfs:label "physician_105"^^rdf:PlainLiteral .
   ?user syn:isAffiliatedWith ?organization .
   ?dua a dua:DataUsageAgreement .
   ?dua dua:hasRecipient ?organization .
   ?dua dua:hasDataCustodian ?dataCustodian .
}"""

ASK_CUSTODIAN_HAS_CATEGORY = """ASK {
  ?dataCustodian a syn:Organization .
  ?dataCustodian rdfs:label "DataCustodian"^^rdf:PlainLiteral .
  ?user a tst:User .
  ?user rdfs:label "nurse_629"^^rdf:PlainLiteral .
  ?user syn:isAffiliatedWith ?org .
  ?dua a dua:DataUsageAgreement .
  ?dua dua:hasRecipient ?org .
  ?dua dua:hasDataCustodian ?dataCustodian .
  ?dua dua:requestedData ?requestedData.
  FILTER(STR(?requestedData) IN ( STR(syn:Encounter), STR(syn:Observation), STR(syn:Patient)))
}"""

UPDATE_BEHAVIOR_SCORE = """DELETE {
   ?user tst:behaviorTrust "1.0"^^xsd:float .
}
INSERT {
   ?user tst:behaviorTrust "0.9"^^xsd:float .
}
WHERE {
   ?user a tst:User .
   ?user rdfs:label "research_scientist_731"^^rdf:PlainLiteral .
}"""


class TestParse:
    def test_dua_exists_policy_shape(self):
        ast = parse(ASK_DUA_EXISTS)
        assert ast.form == "ask"
        assert len(ast.bgp) == 8
        assert ast.filters == []

    def test_category_filter_policy_shape(self):
        ast = parse(ASK_CUSTODIAN_HAS_CATEGORY)
        assert ast.form == "ask"
        assert len(ast.bgp) == 9
        assert len(ast.filters) == 1
        f = ast.filters[0]
        assert f.operator == "in"
        assert f.variable == "requestedData"
        assert [t.lexical for t in f.rhs] == [
            SYN_NS + "Encounter",
            SYN_NS + "Observation",
            SYN_NS + "Patient",
        ]

    def test_score_update_shape(self):
        ast = parse(UPDATE_BEHAVIOR_SCORE)
        assert ast.form == "update"
        assert len(ast.delete_template) == 1
        assert len(ast.insert_template) == 1
        assert len(ast.bgp) == 2
        deleted = ast.delete_template[0]
        assert deleted.object == typed("1.0", XSD_FLOAT)

    def test_empty_ask(self):
        ast = parse("ASK{}")
        assert ast.form == "ask"
        assert ast.bgp == []

    def test_plain_literal_datatype_normalized(self):
        ast = parse('ASK{ ?u rdfs:label "x"^^rdf:PlainLiteral . }')
        assert ast.bgp[0].object == plain("x")

    def test_iri_tagged_plain_literal_normalized(self):
        # the requested-data policy writes syn:Patient^^rdf:PlainLiteral
        ast = parse("ASK{ ?dua dua:requestedData syn:Patient^^rdf:PlainLiteral . }")
        assert ast.bgp[0].object == plain(SYN_NS + "Patient")

    def test_a_keyword_is_rdf_type(self):
        ast = parse("ASK{ ?x a syn:Patient . }")
        assert ast.bgp[0].predicate == iri(RDF_NS + "type")

    def test_prefix_declaration(self):
        ast = parse("PREFIX ex: <http://example.com/ns#>\nASK{ ?x a ex:Thing . }")
        assert ast.bgp[0].object == iri("http://example.com/ns#Thing")
        assert ast.prefixes == {"ex": "http://example.com/ns#"}

    def test_undeclared_prefix(self):
        with pytest.raises(ParseError) as exc:
            parse("ASK{ ?x a nope:Thing . }")
        assert "nope" in str(exc.value)

    def test_unsupported_construct_named(self):
        with pytest.raises(UnsupportedFeatureError) as exc:
            parse("SELECT ?x WHERE { ?x a syn:Patient . OPTIONAL { ?x syn:hasSymptom ?s . } }")
        assert exc.value.construct == "OPTIONAL"
        with pytest.raises(UnsupportedFeatureError):
            parse("SELECT DISTINCT ?x WHERE { ?x a syn:Patient . }")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse("ASK{ ?x a }")
        assert exc.value.line == 1

    def test_projection_var_must_be_in_bgp(self):
        with pytest.raises(ParseError):
            parse("SELECT ?y WHERE { ?x a syn:Patient . }")

    def test_filter_var_must_be_in_bgp(self):
        with pytest.raises(ParseError):
            parse("ASK{ ?x a syn:Patient . FILTER(STR(?y) IN (STR(syn:Patient))) }")

    def test_template_var_must_be_bound_by_where(self):
        with pytest.raises(ParseError):
            parse('DELETE { ?y tst:behaviorTrust "1.0"^^xsd:float . } WHERE { ?x a tst:User . }')

    def test_update_needs_some_template(self):
        with pytest.raises(ParseError):
            parse("WHERE { ?x a tst:User . }")


def demo_graph():
    g = Graph()
    cust = iri(SYN_NS + "org_custodian")
    org1 = iri(SYN_NS + "org_01")
    org2 = iri(SYN_NS + "org_02")
    user1 = iri(SYN_NS + "user_005")
    user2 = iri(SYN_NS + "user_015")
    dua1 = iri(SYN_NS + "dua_01")
    rdf_type = iri(RDF_NS + "type")
    label = iri("http://www.w3.org/2000/01/rdf-schema#label")
    g.add_all(
        [
            Triple(cust, rdf_type, iri(SYN_NS + "Organization")),
            Triple(cust, label, plain("DataCustodian")),
            Triple(org1, rdf_type, iri(SYN_NS + "Organization")),
            Triple(org2, rdf_type, iri(SYN_NS + "Organization")),
            Triple(user1, rdf_type, iri(TST_NS + "User")),
            Triple(user1, label, plain("physician_105")),
            Triple(user1, iri(SYN_NS + "isAffiliatedWith"), org1),
            Triple(user2, rdf_type, iri(TST_NS + "User")),
            Triple(user2, label, plain("nurse_629")),
            Triple(user2, iri(SYN_NS + "isAffiliatedWith"), org2),
            Triple(dua1, rdf_type, iri(DUA_NS + "DataUsageAgreement")),
            Triple(dua1, iri(DUA_NS + "hasRecipient"), org1),
            Triple(dua1, iri(DUA_NS + "hasDataCustodian"), cust),
            Triple(dua1, iri(DUA_NS + "requestedData"), plain(SYN_NS + "Encounter")),
        ]
    )
    return g


class TestEvalAsk:
    def test_empty_bgp_is_true(self):
        assert eval_ask(parse("ASK{}"), Graph()) is True
        assert eval_ask(parse("ASK{}"), demo_graph()) is True

    def test_dua_exists_true_for_dua_holding_user(self):
        assert eval_ask(parse(ASK_DUA_EXISTS), demo_graph()) is True

    def test_dua_exists_false_for_user_without_dua(self):
        text = ASK_DUA_EXISTS.replace("physician_105", "nurse_629")
        assert eval_ask(parse(text), demo_graph()) is False

    def test_filter_mismatch_fails(self):
        # custodian offers only Encounter; asking for Patient finds nothing
        g = demo_graph()
        text = ASK_CUSTODIAN_HAS_CATEGORY.replace("nurse_629", "physician_105").replace(
            "STR(syn:Encounter), STR(syn:Observation), STR(syn:Patient)",
            "STR(syn:Patient)",
        )
        assert eval_ask(parse(text), g) is False

    def test_filter_matches_iri_or_plain_literal_alike(self):
        base = "ASK{ ?dua dua:requestedData ?d . FILTER(STR(?d) IN (STR(syn:Encounter))) }"
        g1 = Graph()
        g1.insert(Triple(iri(SYN_NS + "dua_01"), iri(DUA_NS + "requestedData"), plain(SYN_NS + "Encounter")))
        g2 = Graph()
        g2.insert(Triple(iri(SYN_NS + "dua_01"), iri(DUA_NS + "requestedData"), iri(SYN_NS + "Encounter")))
        assert eval_ask(parse(base), g1) is True
        assert eval_ask(parse(base), g2) is True


class TestEvalSelect:
    def test_select_over_empty_graph(self):
        got = eval_select(parse("SELECT ?x WHERE { ?x a syn:Patient . }"), Graph())
        assert len(got) == 0

    def test_projection_of_constant_pattern(self):
        g = demo_graph()
        got = eval_select(parse("SELECT ?t WHERE { ?u a tst:User . ?u a ?t . }"), g)
        assert len(got) == 2
        assert all(row[0] == iri(TST_NS + "User") for row in got.rows)

    def test_rows_are_sorted(self):
        g = demo_graph()
        got = eval_select(parse("SELECT ?o WHERE { ?o a syn:Organization . }"), g)
        values = [row[0].lexical for row in got.rows]
        assert values == sorted(values)

    def test_select_star_covers_bgp_vars(self):
        g = demo_graph()
        got = eval_select(parse("SELECT * WHERE { ?u syn:isAffiliatedWith ?org . }"), g)
        assert set(got.variables) == {"u", "org"}
        assert len(got) == 2


class TestEvalUpdate:
    def update_fixture(self):
        g = Graph()
        user = iri(SYN_NS + "user_035")
        g.insert(Triple(user, iri(RDF_NS + "type"), iri(TST_NS + "User")))
        g.insert(
            Triple(user, iri("http://www.w3.org/2000/01/rdf-schema#label"), plain("research_scientist_731"))
        )
        g.insert(Triple(user, iri(TST_NS + "behaviorTrust"), typed("1.0", XSD_FLOAT)))
        return g, user

    def test_score_update_rewrites_score(self):
        g, user = self.update_fixture()
        summary = eval_update(parse(UPDATE_BEHAVIOR_SCORE), g)
        assert (summary.deleted, summary.inserted) == (1, 1)
        got = g.match(TriplePattern(user, iri(TST_NS + "behaviorTrust"), Var("v")))
        assert [t.object for t in got] == [typed("0.9", XSD_FLOAT)]

    def test_update_with_no_where_match(self):
        g, _ = self.update_fixture()
        text = UPDATE_BEHAVIOR_SCORE.replace("research_scientist_731", "nobody_at_all")
        before = g.triples()
        summary = eval_update(parse(text), g)
        assert (summary.deleted, summary.inserted) == (0, 0)
        assert g.triples() == before

    def test_delete_template_misses_but_insert_lands(self):
        g = Graph()
        user = iri(SYN_NS + "user_035")
        g.insert(Triple(user, iri(RDF_NS + "type"), iri(TST_NS + "User")))
        g.insert(
            Triple(user, iri("http://www.w3.org/2000/01/rdf-schema#label"), plain("research_scientist_731"))
        )
        summary = eval_update(parse(UPDATE_BEHAVIOR_SCORE), g)
        assert (summary.deleted, summary.inserted) == (0, 1)

    def test_snapshot_semantics_insert_not_rematched(self):
        # WHERE reads the triple the template rewrites; one solution only
        g = Graph()
        s = iri(SYN_NS + "x")
        p = iri(SYN_NS + "p")
        g.insert(Triple(s, p, plain("old")))
        text = (
            'DELETE { ?s syn:p "old" . }\n'
            'INSERT { ?s syn:p "new" . }\n'
            "WHERE { ?s syn:p ?v . }"
        )
        summary = eval_update(parse(text), g)
        assert (summary.deleted, summary.inserted) == (1, 1)
        assert g.match(TriplePattern(s, p, Var("v")))[0].object == plain("new")


# -- oracle equivalence -------------------------------------------------------


def brute_force_solutions(patterns, filters, graph):
    """Enumerate every assignment of pattern variables over the graph's terms."""
    universe = set()
    for t in graph:
        universe.update((t.subject, t.predicate, t.object))
    names = []
    for p in patterns:
        for v in p.variables():
            if v not in names:
                names.append(v)
    triples = set(graph)
    solutions = []
    for combo in itertools.product(sorted(universe, key=Term.sort_key), repeat=len(names)):
        binding = dict(zip(names, combo))
        ok = True
        for p in patterns:
            parts = []
            for node in p.positions():
                parts.append(binding[node.name] if isinstance(node, Var) else node)
            if parts[0].kind != "iri" or parts[1].kind != "iri":
                ok = False
                break
            if Triple(parts[0], parts[1], parts[2]) not in triples:
                ok = False
                break
        if ok:
            for f in filters:
                if not f.matches(binding[f.variable]):
                    ok = False
                    break
        if ok:
            solutions.append(binding)
    return solutions


def random_case(rng):
    subjects = [iri(f"s:n{i}") for i in range(5)]
    predicates = [iri(f"p:e{i}") for i in range(3)]
    objects = subjects + [plain("v1"), plain("v2")]
    g = Graph()
    for _ in range(rng.randrange(0, 31)):
        g.insert(Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects)))
    variables = [Var("a"), Var("b"), Var("c")]
    patterns = []
    for _ in range(rng.randrange(1, 5)):
        s = rng.choice(variables + subjects)
        p = rng.choice(variables + predicates)
        o = rng.choice(variables + objects)
        patterns.append(TriplePattern(s, p, o))
    return g, patterns


class TestOracleEquivalence:
    def test_nested_loop_matches_brute_force(self):
        rng = random.Random(20240)
        checked = 0
        for _ in range(220):
            g, patterns = random_case(rng)
            from trustgate.query import QueryAst

            ast = QueryAst(form="ask", bgp=patterns)
            expected = brute_force_solutions(patterns, [], g)
            assert eval_ask(ast, g) == (len(expected) > 0)
            select = replace(ast, form="select")
            got = eval_select(select, g)
            row_key = lambda row: tuple(t.sort_key() for t in row)
            expected_rows = sorted(
                (tuple(b[v] for v in got.variables) for b in expected), key=row_key
            )
            assert sorted(got.rows, key=row_key) == expected_rows
            checked += 1
        assert checked >= 200

    def test_join_order_permutation_stable(self):
        rng = random.Random(77)
        from trustgate.query import QueryAst

        for _ in range(60):
            g, patterns = random_case(rng)
            baseline = None
            for perm in itertools.islice(itertools.permutations(patterns), 6):
                ast = QueryAst(form="ask", bgp=list(perm))
                got = eval_ask(ast, g)
                if baseline is None:
                    baseline = got
                assert got == baseline

    def test_ask_equals_select_nonempty(self):
        rng = random.Random(99)
        from trustgate.query import QueryAst

        for _ in range(80):
            g, patterns = random_case(rng)
            ast = QueryAst(form="ask", bgp=patterns)
            assert eval_ask(ast, g) == (len(eval_select(replace(ast, form="select"), g)) > 0)


def full_key(row):
    return tuple(term.sort_key() for term in row)


_LEXICALS = st.sampled_from(["a:b", "a:b2", "a:B", "a:\u00e9", "b:a", "a:b\n"])
_IRIS = st.sampled_from(["a:b", "a:b2", "a:B", "a:\u00e9", "b:a"]).map(iri)
_OBJECTS = st.one_of(
    _IRIS,
    _LEXICALS.map(plain),
    _LEXICALS.map(lambda lex: typed(lex, "dt:one")),
    _LEXICALS.map(lambda lex: typed(lex, "dt:two")),
)
_PREDICATES = st.sampled_from([iri("p:a"), iri("p:b")])


class TestSelectOrder:
    """eval_select orders rows by each term's (lexical, kind, datatype);
    the lexical-only key for all-IRI single columns must agree with it."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_IRIS, _PREDICATES, _OBJECTS), max_size=40))
    def test_rows_follow_the_full_sort_key(self, triples):
        g = Graph()
        g.add_all(Triple(s, p, o) for s, p, o in triples)
        for text in (
            "SELECT ?s WHERE { ?s ?p ?o . }",  # all-IRI single column
            "SELECT ?o WHERE { ?s ?p ?o . }",  # IRIs, plain and typed literals
            "SELECT ?o ?s WHERE { ?s ?p ?o . }",
            "SELECT ?s WHERE { ?s <p:a> ?x . ?s <p:b> ?o . }",  # joined, all IRIs
            "SELECT ?o WHERE { ?s <p:a> ?x . ?s <p:b> ?o . }",
            "SELECT ?x ?o WHERE { ?s <p:a> ?x . ?s <p:b> ?o . }",
        ):
            rows = eval_select(parse(text), g).rows
            assert rows == sorted(rows, key=full_key), text

    def test_iri_and_literal_with_one_lexical_keep_their_kind_order(self):
        g = Graph()
        g.add_all([
            Triple(iri("s:1"), iri("p:a"), plain("a:b")),
            Triple(iri("s:2"), iri("p:a"), iri("a:b")),
            Triple(iri("s:3"), iri("p:a"), typed("a:b", "dt:one")),
        ])
        rows = eval_select(parse("SELECT ?o WHERE { ?s <p:a> ?o . }"), g).rows
        assert [row[0].kind for row in rows] == ["iri", "plain-literal", "typed-literal"]


def reference_solutions(patterns, filters, graph):
    """Every solution, by a nested loop over the graph's triples."""
    triples = list(graph)

    def extend(binding, rest):
        if not rest:
            if all(f.matches(binding[f.variable]) for f in filters):
                yield binding
            return
        for t in triples:
            grown = dict(binding)
            for node, term in zip(rest[0].positions(), (t.subject, t.predicate, t.object)):
                bound = grown.setdefault(node.name, term) if isinstance(node, Var) else node
                if bound != term:
                    break
            else:
                yield from extend(grown, rest[1:])

    return list(extend({}, patterns))


class TestOneVariableColumn:
    """A one-variable result is one flat column of terms; everything read
    from it must equal what one-term row tuples sorted by the full key give."""

    QUERIES = (
        "SELECT ?s WHERE { ?s <p:a> <a:b> . }",  # subjects of a ground (p, o)
        'SELECT ?s WHERE { ?s <p:b> "a:b" . }',
        'SELECT * WHERE { ?s <p:a> "a:b"^^<dt:one> . }',
        "SELECT ?o WHERE { ?s <p:a> ?o . }",  # IRIs, plain and typed literals
        "SELECT ?o WHERE { <a:b> ?p ?o . }",
        "SELECT ?s WHERE { ?s ?p ?o . }",
        "SELECT ?p WHERE { ?s ?p <a:b2> . }",
        "SELECT ?x WHERE { ?x <p:a> ?x . }",  # repeated variable: join path
        "SELECT ?o WHERE { ?s <p:a> ?x . ?s <p:b> ?o . }",
        'SELECT ?o WHERE { ?s ?p ?o . FILTER(STR(?o) IN ("a:b", "a:B")) }',
    )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_IRIS, _PREDICATES, _OBJECTS), max_size=40))
    def test_column_reads_like_sorted_row_tuples(self, triples):
        g = Graph()
        g.add_all(Triple(s, p, o) for s, p, o in triples)
        decision = AccessDecision(True, None, None, (), False)
        for text in self.QUERIES:
            ast = parse(text)
            got = eval_select(ast, g)
            (name,) = got.variables
            expected = sorted(
                ((b[name],) for b in reference_solutions(ast.bgp, ast.filters, g)), key=full_key
            )
            assert got.column is not None, text
            assert got.rows == expected, text
            assert len(got) == len(expected), text
            assert got.as_dicts() == [{name: t} for (t,) in expected], text
            response = DataResponse("r-1", decision, got, (), {"dataRetrieval": 0.5})
            assert response.to_json() == json.dumps({
                "requestId": "r-1",
                "decision": decision.to_dict(),
                "records": {
                    "variables": [name],
                    "rows": [[serialize_term(t)] for (t,) in expected],
                },
                "custodianNotices": [],
                "timings": {"dataRetrieval": 0.5},
            }), text

    def test_rows_given_to_the_constructor_become_the_column(self):
        terms = [iri("a:b"), plain("a:b"), typed("a:b", "dt:one")]
        one = BindingSet(("x",), [(t,) for t in terms])
        assert one.column == terms
        assert one.rows == [(t,) for t in terms]
        assert one == BindingSet(("x",), column=list(terms))
        two = BindingSet(("s", "o"), [(terms[0], terms[1])])
        assert two.column is None
        assert two.rows == [(terms[0], terms[1])]
        assert two.as_dicts() == [{"s": terms[0], "o": terms[1]}]
