import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from trustgate.store import (
    DUA_NS,
    RDF_NS,
    RDFS_NS,
    SYN_NS,
    TST_NS,
    XSD_FLOAT,
    Graph,
    LineFormatError,
    IRI,
    PLAIN_LITERAL,
    TYPED_LITERAL,
    Term,
    TermError,
    Triple,
    TriplePattern,
    Var,
    iri,
    json_term,
    load_lines,
    plain,
    serialize_lines,
    serialize_term,
    typed,
)

RDF_TYPE = iri(RDF_NS + "type")
RDFS_LABEL = iri(RDFS_NS + "label")


def t(s, p, o):
    return Triple(iri(s), iri(p), o if not isinstance(o, str) else iri(o))


def agreement_scenario_fixture():
    """Hand-enumerated 12-triple scenario: one custodian, one recipient org,
    one affiliated user, one DUA granting Patient for public health."""
    cust = SYN_NS + "org_custodian"
    org = SYN_NS + "org_01"
    user = SYN_NS + "user_005"
    dua = SYN_NS + "dua_01"
    return [
        t(cust, RDF_NS + "type", SYN_NS + "Organization"),
        Triple(iri(cust), RDFS_LABEL, plain("DataCustodian")),
        t(org, RDF_NS + "type", SYN_NS + "Organization"),
        Triple(iri(org), RDFS_LABEL, plain("Organization_01")),
        t(user, RDF_NS + "type", TST_NS + "User"),
        Triple(iri(user), RDFS_LABEL, plain("physician_105")),
        t(user, SYN_NS + "isAffiliatedWith", org),
        t(dua, RDF_NS + "type", DUA_NS + "DataUsageAgreement"),
        t(dua, DUA_NS + "hasRecipient", org),
        t(dua, DUA_NS + "hasDataCustodian", cust),
        Triple(iri(dua), iri(DUA_NS + "requestedData"), plain(SYN_NS + "Patient")),
        t(dua, DUA_NS + "hasPermittedUseOrDisclosure", DUA_NS + "PublicHealth"),
    ]


class TestTerm:
    def test_iri_rejects_empty_and_whitespace(self):
        with pytest.raises(TermError):
            iri("")
        with pytest.raises(TermError):
            iri("http://example.org/a b")

    def test_typed_literal_requires_datatype(self):
        with pytest.raises(TermError):
            typed("x", "")
        assert typed("x", RDFS_NS + "Literal").datatype == RDFS_NS + "Literal"

    def test_plain_literal_never_has_datatype(self):
        term = plain("hello world")
        assert term.datatype is None

    def test_float_literal_must_parse_finite(self):
        assert typed("0.99", XSD_FLOAT).lexical == "0.99"
        with pytest.raises(TermError):
            typed("abc", XSD_FLOAT)
        with pytest.raises(TermError):
            typed("Infinity", XSD_FLOAT)

    def test_lexical_pair_equality(self):
        assert typed("1.0", XSD_FLOAT) != typed("1.00", XSD_FLOAT)
        assert plain("a") != iri("a")
        assert iri("x:y") == iri("x:y")


class TestTriple:
    def test_subject_predicate_must_be_iris(self):
        with pytest.raises(TermError):
            Triple(plain("s"), iri("p:x"), iri("o:x"))
        with pytest.raises(TermError):
            Triple(iri("s:x"), typed("1", XSD_FLOAT), iri("o:x"))

    def test_object_any_term(self):
        Triple(iri("s:x"), iri("p:x"), plain("lit"))
        Triple(iri("s:x"), iri("p:x"), typed("1.0", XSD_FLOAT))


class TestInsertRemove:
    def test_insert_into_empty(self):
        g = Graph()
        assert g.insert(t("s:a", "p:p", "o:b")) is True
        assert len(g) == 1

    def test_insert_twice_is_idempotent(self):
        g = Graph()
        trip = t("s:a", "p:p", "o:b")
        assert g.insert(trip) is True
        assert g.insert(trip) is False
        assert len(g) == 1

    def test_remove_from_empty(self):
        g = Graph()
        assert g.remove(t("s:a", "p:p", "o:b")) is False

    def test_insert_then_remove(self):
        g = Graph()
        trip = t("s:a", "p:p", "o:b")
        g.insert(trip)
        assert g.remove(trip) is True
        assert len(g) == 0
        assert g.match(TriplePattern(Var("s"), Var("p"), Var("o"))) == []

    def test_agreement_scenario_fixture_bulk_insert(self):
        g = Graph()
        assert g.add_all(agreement_scenario_fixture()) == 12
        assert len(g) == 12
        pattern = TriplePattern(Var("x"), RDF_TYPE, iri(DUA_NS + "DataUsageAgreement"))
        assert len(g.match(pattern)) == 1

    def test_score_triple_removal_clears_match(self):
        # 3-triple fixture replaying the delete half of a score update by hand
        g = Graph()
        user = iri(SYN_NS + "user_035")
        score = Triple(user, iri(TST_NS + "behaviorTrust"), typed("1.0", XSD_FLOAT))
        g.insert(Triple(user, RDF_TYPE, iri(TST_NS + "User")))
        g.insert(Triple(user, RDFS_LABEL, plain("research_scientist_731")))
        g.insert(score)
        assert g.remove(score) is True
        assert g.match(TriplePattern(user, iri(TST_NS + "behaviorTrust"), typed("1.0", XSD_FLOAT))) == []


class TestMatch:
    def test_universal_pattern(self):
        g = Graph()
        for i in range(5):
            g.insert(t(f"s:{i}", "p:p", f"o:{i}"))
        assert len(g.match(TriplePattern(Var("s"), Var("p"), Var("o")))) == 5

    def test_ground_pattern_is_membership(self):
        g = Graph()
        trip = t("s:a", "p:p", "o:b")
        g.insert(trip)
        assert g.match(TriplePattern(trip.subject, trip.predicate, trip.object)) == [trip]
        assert g.match(TriplePattern(trip.subject, trip.predicate, iri("o:c"))) == []

    def test_match_order_is_sorted(self):
        g = Graph()
        g.insert(t("s:b", "p:p", "o:1"))
        g.insert(t("s:a", "p:p", "o:1"))
        g.insert(t("s:a", "p:p", "o:0"))
        got = g.match(TriplePattern(Var("s"), iri("p:p"), Var("o")))
        assert got == sorted(got, key=Triple.sort_key)
        assert got[0].subject.lexical == "s:a"

    def test_repeated_variable_requires_same_term(self):
        g = Graph()
        g.insert(t("s:a", "p:p", "s:a"))
        g.insert(t("s:a", "p:p", "s:b"))
        got = g.match(TriplePattern(Var("x"), iri("p:p"), Var("x")))
        assert len(got) == 1
        assert got[0].object.lexical == "s:a"

    def test_literal_in_subject_position_matches_nothing(self):
        g = Graph()
        g.insert(t("s:a", "p:p", "o:b"))
        assert g.match(TriplePattern(plain("s:a"), Var("p"), Var("o"))) == []


def brute_force_match(triples, pattern):
    """Independent oracle: scan-and-unify over the full triple list."""
    out = []
    for trip in triples:
        binding = {}
        ok = True
        for node, term in zip(pattern.positions(), (trip.subject, trip.predicate, trip.object)):
            if isinstance(node, Var):
                if binding.get(node.name, term) != term:
                    ok = False
                    break
                binding[node.name] = term
            elif node != term:
                ok = False
                break
        if ok:
            out.append(trip)
    return sorted(out, key=Triple.sort_key)


_subjects = st.sampled_from([iri(f"s:n{i}") for i in range(6)])
_predicates = st.sampled_from([iri(f"p:e{i}") for i in range(4)])
_objects = st.sampled_from(
    [iri(f"s:n{i}") for i in range(6)] + [plain("v1"), plain("v2"), typed("1.0", XSD_FLOAT)]
)
_triples = st.builds(Triple, _subjects, _predicates, _objects)
_vars = st.sampled_from([Var("a"), Var("b"), Var("c")])


@st.composite
def _patterns(draw):
    s = draw(st.one_of(_vars, _subjects))
    p = draw(st.one_of(_vars, _predicates))
    o = draw(st.one_of(_vars, _objects))
    return TriplePattern(s, p, o)


class TestMatchProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_triples, max_size=200), _patterns())
    def test_match_equals_brute_force(self, triples, pattern):
        g = Graph()
        g.add_all(triples)
        assert g.match(pattern) == brute_force_match(set(triples), pattern)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), _triples), max_size=60), _patterns())
    def test_size_tracks_distinct_inserts_minus_removes(self, ops, pattern):
        g = Graph()
        shadow = set()
        for is_insert, trip in ops:
            if is_insert:
                assert g.insert(trip) == (trip not in shadow)
                shadow.add(trip)
            else:
                assert g.remove(trip) == (trip in shadow)
                shadow.discard(trip)
            assert len(g) == len(shadow)
        universal = TriplePattern(Var("s"), Var("p"), Var("o"))
        assert set(g.match(universal)) == shadow
        # every pattern shape, the scanned (s, ?, o) and (?, ?, o) included,
        # still answers exactly after removals
        assert g.match(pattern) == brute_force_match(shadow, pattern)
        # iteration rebuilds triples from the indexes: each one exactly once
        listed = list(g)
        assert len(listed) == len(shadow) and set(listed) == shadow
        assert all(trip in g for trip in shadow)


class TestLineFormat:
    def test_empty_input(self):
        g = Graph()
        assert load_lines(g, "") == 0

    def test_one_line_loaded_twice(self):
        g = Graph()
        line = '<s:a> <p:p> "hello" .\n'
        assert load_lines(g, line) == 1
        assert load_lines(g, line) == 0
        assert len(g) == 1

    def test_comments_and_blank_lines_ignored(self):
        g = Graph()
        text = "# comment\n\n<s:a> <p:p> <o:b> .\n"
        assert load_lines(g, text) == 1

    def test_qname_subject_resolves_against_namespaces(self):
        g = Graph()
        assert load_lines(g, "syn:a rdf:type syn:Organization .\n") == 1
        got = g.triples()[0]
        assert got.subject.lexical == SYN_NS + "a"
        assert got.predicate.lexical == RDF_NS + "type"

    def test_unknown_prefix_is_named(self):
        g = Graph()
        with pytest.raises(LineFormatError) as exc:
            load_lines(g, "bogus:a rdf:type syn:Organization .\n")
        assert "bogus" in str(exc.value)
        assert exc.value.line == 1

    def test_syntax_error_reports_position(self):
        g = Graph()
        with pytest.raises(LineFormatError) as exc:
            load_lines(g, "<s:a> <p:p> <o:b>\n<s:a> <p:p> <o:c> .\n")
        assert exc.value.line == 1

    def test_typed_literal_roundtrip(self):
        g = Graph()
        load_lines(g, f'<s:a> <p:p> "0.9"^^<{XSD_FLOAT}> .\n')
        trip = g.triples()[0]
        assert trip.object.datatype == XSD_FLOAT

    def test_serialize_empty_graph(self):
        assert serialize_lines(Graph()) == ""

    def test_serialize_single_triple(self):
        g = Graph()
        g.insert(Triple(iri("s:a"), iri("p:p"), plain("x")))
        assert serialize_lines(g) == '<s:a> <p:p> "x" .\n'

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_triples, max_size=50))
    def test_roundtrip_identity(self, triples):
        g = Graph()
        g.add_all(triples)
        text = serialize_lines(g)
        g2 = Graph()
        load_lines(g2, text)
        assert g2.triples() == g.triples()
        assert serialize_lines(g2) == text

    def test_roundtrip_with_escapes(self):
        g = Graph()
        g.insert(Triple(iri("s:a"), iri("p:p"), plain('line1\nline2\t"quoted"\\')))
        g2 = Graph()
        load_lines(g2, serialize_lines(g))
        assert g2.triples() == g.triples()

    def test_load_shares_one_object_per_distinct_term(self):
        g = Graph()
        g.add_all([
            Triple(iri("s:a"), iri("p:p"), plain('two\nlines "quoted"\\')),
            Triple(iri("s:b"), iri("p:p"), plain('two\nlines "quoted"\\')),
            Triple(iri("s:a"), iri("p:q"), typed("0.5", XSD_FLOAT)),
            Triple(iri("s:b"), iri("p:q"), typed("0.5", XSD_FLOAT)),
            Triple(iri("s:a"), iri("p:r"), iri("s:b")),
            Triple(iri("s:b"), iri("p:r"), plain("s:b")),
        ])
        text = serialize_lines(g)
        g2 = Graph()
        load_lines(g2, text)
        assert serialize_lines(g2) == text
        seen = {}
        for trip in g2:
            for term in (trip.subject, trip.predicate, trip.object):
                assert seen.setdefault(term, term) is term
        # one object per distinct (kind, lexical, datatype): the IRI s:b
        # and the plain literal "s:b" stay apart
        assert len(seen) == 8
        for index in (g2._spo, g2._pos):
            for first, seconds in index.items():
                assert seen[first] is first
                for second, leaf in seconds.items():
                    assert seen[second] is second
                    assert all(seen[third] is third for third in leaf_members(leaf))


# quotes, backslashes, control characters, non-ASCII text and lone
# surrogates, beside arbitrary code points
_json_chars = st.one_of(
    st.sampled_from('"\\\n\r\t\x00\x1f\x7f\u2028é漢😀\ud800\udfff'),
    st.characters(exclude_categories=()),
)
_json_texts = st.text(_json_chars, max_size=20)
_iri_texts = _json_texts.filter(lambda text: text and not re.search(r"\s", text))
_json_terms = st.one_of(
    st.builds(Term, st.just(IRI), _iri_texts),
    st.builds(Term, st.just(PLAIN_LITERAL), _json_texts),
    st.builds(Term, st.just(TYPED_LITERAL), _json_texts, _iri_texts.filter(lambda d: d != XSD_FLOAT)),
    st.builds(typed, st.decimals(allow_nan=False, allow_infinity=False).map(str), st.just(XSD_FLOAT)),
)


class TestJsonTerm:
    @settings(max_examples=300, deadline=None)
    @given(_json_terms)
    def test_equals_json_dumps_of_serialized_term(self, term):
        assert json_term(term) == json.dumps(serialize_term(term))

    def test_text_is_built_once_and_kept_on_the_term(self):
        term = plain('say "hi"\n')
        first = json_term(term)
        assert json_term(term) is first
        # an equal term built apart gets its own, equal text
        assert json_term(plain('say "hi"\n')) == first

    def test_loading_fills_no_json_text(self):
        g = Graph()
        load_lines(g, '<s:a> <p:p> "x" .\n<s:a> <p:q> <s:b> .\n')
        for trip in g:
            for term in (trip.subject, trip.predicate, trip.object):
                assert not hasattr(term, "_json")


class TestIdentityEquality:
    def test_term_and_triple_equal_to_themselves_and_to_copies(self):
        term = typed("0.5", XSD_FLOAT)
        assert term == term and not (term != term)
        assert term == typed("0.5", XSD_FLOAT)
        assert term != typed("0.50", XSD_FLOAT)
        trip = Triple(iri("s:a"), iri("p:p"), term)
        assert trip == trip
        assert trip == Triple(iri("s:a"), iri("p:p"), typed("0.5", XSD_FLOAT))
        assert trip == Triple(trip.subject, trip.predicate, typed("0.5", XSD_FLOAT))
        assert trip != Triple(trip.subject, trip.predicate, plain("0.5"))
        assert trip != (trip.subject, trip.predicate, term)


def leaf_members(leaf):
    """An index leaf's members: a dict's keys in order, or the bare term."""
    if isinstance(leaf, dict):
        return list(leaf)
    assert isinstance(leaf, Term)
    return [leaf]


def index_leaves(graph):
    for index in (graph._spo, graph._pos):
        for seconds in index.values():
            yield from seconds.values()


def index_triples(graph):
    """Walk each of the two indexes and rebuild the triple set."""
    out = {}
    for label, index, arrange in (
        ("spo", graph._spo, lambda a, b, c: (a, b, c)),
        ("pos", graph._pos, lambda a, b, c: (c, a, b)),
    ):
        triples = set()
        for first, seconds in index.items():
            for second, leaf in seconds.items():
                for third in leaf_members(leaf):
                    s, p, o = arrange(first, second, third)
                    triples.add(Triple(s, p, o))
        out[label] = triples
    return out


class TestIndexConsistency:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), _triples), max_size=50))
    def test_every_index_holds_exactly_the_triple_set(self, ops):
        g = Graph()
        for is_insert, trip in ops:
            if is_insert:
                g.insert(trip)
            else:
                g.remove(trip)
        expected = set(g)
        for label, triples in index_triples(g).items():
            assert triples == expected, f"{label} index out of sync"
        # one member is a bare term, so churn leaves no small dict behind
        assert not any(isinstance(leaf, dict) and len(leaf) < 2 for leaf in index_leaves(g))


class TestLeafForms:
    """A leaf goes 0 -> 1 -> 2 -> 1 -> 0 members under one (s, p) and one
    (p, o); at each step every read agrees with the triples present, in
    insertion order, and the leaf is a dict exactly while it has two."""

    S1, S2, P = SYN_NS + "s1", SYN_NS + "s2", SYN_NS + "p"
    O1, O2 = SYN_NS + "o1", SYN_NS + "o2"

    def check(self, g, present, subject_order):
        # fresh terms, equal to the stored ones but not the same objects
        s1, p, o1 = iri(self.S1), iri(self.P), iri(self.O1)
        objects = [o for s, _, o in present if s == self.S1]
        subjects = [s for s, _, o in present if o == self.O1]
        assert [o.lexical for o in g.objects_for(s1, p)] == objects
        assert [s.lexical for s in g.subjects_for(p, o1)] == subjects
        for s, o in ((self.S1, self.O1), (self.S1, self.O2), (self.S2, self.O1)):
            assert g.contains_spo(iri(s), p, iri(o)) == ((s, self.P, o) in present)
        assert g.match(TriplePattern(s1, p, Var("o"))) == sorted(
            (t(self.S1, self.P, o) for o in objects), key=Triple.sort_key)
        assert g.match(TriplePattern(Var("s"), p, o1)) == sorted(
            (t(s, self.P, self.O1) for s in subjects), key=Triple.sort_key)
        scanned = [(a.lexical, b.lexical, c.lexical) for a, b, c in g.iter_terms(None, None, None)]
        assert scanned == [trip for s in subject_order for trip in present if trip[0] == s]
        assert len(g) == len(present)
        for leaf, members in ((g._spo.get(s1, {}).get(p), objects),
                              (g._pos.get(p, {}).get(o1), subjects)):
            if members:
                assert isinstance(leaf, dict) == (len(members) > 1)
            else:
                assert leaf is None
        if not present:
            assert g._spo == {} and g._pos == {}

    def test_leaf_grows_and_shrinks(self):
        a = (self.S1, self.P, self.O1)
        b = (self.S1, self.P, self.O2)
        c = (self.S2, self.P, self.O1)
        g = Graph()
        present, subject_order = [], []
        self.check(g, present, subject_order)
        # a, b, c grow (s1, p) to two members with b and (p, o1) with c; the
        # removals shrink both to none, and a put back while b and c remain
        # comes last in both leaves
        for op, trip in (("+", a), ("+", b), ("+", c), ("-", a), ("+", a), ("-", a),
                         ("-", a), ("-", b), ("-", c)):
            if op == "+":
                assert g.insert(t(*trip)) == (trip not in present)
                if trip[0] not in subject_order:
                    subject_order.append(trip[0])
                present.append(trip)
            else:
                assert g.remove(t(*trip)) == (trip in present)
                if trip in present:
                    present.remove(trip)
                if all(s != trip[0] for s, _, _ in present):
                    subject_order.remove(trip[0])
            self.check(g, present, subject_order)


class TestNamespaces:
    def test_default_prefixes_registered(self):
        g = Graph()
        for prefix in ("syn", "dua", "tst", "rdf", "rdfs", "xsd"):
            assert prefix in g.namespaces

    def test_expand_and_compact(self):
        g = Graph()
        assert g.expand("syn:Patient") == SYN_NS + "Patient"
        assert g.compact(SYN_NS + "Patient") == "syn:Patient"
        assert g.compact("urn:nowhere/else") is None
        with pytest.raises(TermError):
            g.expand("bogus:x")
