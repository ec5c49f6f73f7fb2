import copy
import json
import pickle
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from trustgate.store import (
    DUA_NS,
    RDF_NS,
    RDFS_NS,
    SYN_NS,
    TST_NS,
    XSD_FLOAT,
    XSD_NS,
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
    _json_row,
    _parse_line,
    iri,
    load_lines,
    plain,
    serialize_lines,
    serialize_term,
    typed,
)

from graph_match import match

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
        assert match(g, TriplePattern(Var("s"), Var("p"), Var("o"))) == []

    def test_agreement_scenario_fixture_bulk_insert(self):
        g = Graph()
        assert g.add_all(agreement_scenario_fixture()) == 12
        assert len(g) == 12
        pattern = TriplePattern(Var("x"), RDF_TYPE, iri(DUA_NS + "DataUsageAgreement"))
        assert len(match(g, pattern)) == 1

    def test_score_triple_removal_clears_match(self):
        # 3-triple fixture replaying the delete half of a score update by hand
        g = Graph()
        user = iri(SYN_NS + "user_035")
        score = Triple(user, iri(TST_NS + "behaviorTrust"), typed("1.0", XSD_FLOAT))
        g.insert(Triple(user, RDF_TYPE, iri(TST_NS + "User")))
        g.insert(Triple(user, RDFS_LABEL, plain("research_scientist_731")))
        g.insert(score)
        assert g.remove(score) is True
        assert match(g, TriplePattern(user, iri(TST_NS + "behaviorTrust"), typed("1.0", XSD_FLOAT))) == []


class TestMatch:
    def test_universal_pattern(self):
        g = Graph()
        for i in range(5):
            g.insert(t(f"s:{i}", "p:p", f"o:{i}"))
        assert len(match(g, TriplePattern(Var("s"), Var("p"), Var("o")))) == 5

    def test_ground_pattern_is_membership(self):
        g = Graph()
        trip = t("s:a", "p:p", "o:b")
        g.insert(trip)
        assert match(g, TriplePattern(trip.subject, trip.predicate, trip.object)) == [trip]
        assert match(g, TriplePattern(trip.subject, trip.predicate, iri("o:c"))) == []

    def test_match_order_is_sorted(self):
        g = Graph()
        g.insert(t("s:b", "p:p", "o:1"))
        g.insert(t("s:a", "p:p", "o:1"))
        g.insert(t("s:a", "p:p", "o:0"))
        got = match(g, TriplePattern(Var("s"), iri("p:p"), Var("o")))
        assert got == sorted(got, key=Triple.sort_key)
        assert got[0].subject.lexical == "s:a"

    def test_repeated_variable_requires_same_term(self):
        g = Graph()
        g.insert(t("s:a", "p:p", "s:a"))
        g.insert(t("s:a", "p:p", "s:b"))
        got = match(g, TriplePattern(Var("x"), iri("p:p"), Var("x")))
        assert len(got) == 1
        assert got[0].object.lexical == "s:a"

    def test_literal_in_subject_position_matches_nothing(self):
        g = Graph()
        g.insert(t("s:a", "p:p", "o:b"))
        assert match(g, TriplePattern(plain("s:a"), Var("p"), Var("o"))) == []


def brute_force_match(triples, pattern):
    """Independent oracle: scan-and-unify over the full triple list."""
    out = []
    for trip in triples:
        binding = {}
        ok = True
        for node, term in zip(pattern, (trip.subject, trip.predicate, trip.object)):
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
        assert match(g, pattern) == brute_force_match(set(triples), pattern)

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
        assert set(match(g, universal)) == shadow
        # every pattern shape, the scanned (s, ?, o) and (?, ?, o) included,
        # still answers exactly after removals
        assert match(g, pattern) == brute_force_match(shadow, pattern)
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


# quotes, backslashes, control characters (among them every one that
# `str.splitlines` breaks at), non-ASCII text and lone surrogates, beside
# arbitrary code points
_json_chars = st.one_of(
    st.sampled_from('"\\\n\r\t\x00\x0b\x0c\x1c\x1d\x1e\x1f\x7f\x85\u2028\u2029é漢😀\ud800\udfff'),
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
        assert _json_row(term) == json.dumps([serialize_term(term)]).encode()

    def test_loading_fills_no_json_text(self):
        # JSON rows are built on the first read of a leaf, never while loading
        g = Graph()
        load_lines(g, '<s:a> <p:p> "x" .\n<s:a> <p:q> <s:b> .\n<s:c> <p:q> <s:b> .\n')
        leaves = [leaf for inner in g._pos.values() for leaf in inner.values()]
        assert any(isinstance(leaf, dict) for leaf in leaves)
        for leaf in leaves:
            if isinstance(leaf, dict):
                assert list(leaf.values()) == [None] * len(leaf)


class TestLineSplitting:
    @settings(max_examples=200, deadline=None)
    @given(_json_texts)
    @example("a\x85b")
    @example("a\u2028b\x0b\x0c\x1c\x1d\x1e\u2029")
    def test_any_literal_text_round_trips_from_a_string_and_a_file(self, tmp_path_factory, text):
        g = Graph()
        g.add_all([
            Triple(iri("s:a"), iri("p:p"), plain(text)),
            Triple(iri("s:a"), iri("p:q"), typed(text, "dt:x")),
        ])
        lines = serialize_lines(g)
        from_string = Graph()
        load_lines(from_string, lines)
        path = tmp_path_factory.mktemp("lines") / "data.lines"
        path.write_text(lines, encoding="utf-8", errors="surrogatepass")
        from_file = Graph()
        with open(path, encoding="utf-8", errors="surrogatepass") as handle:
            load_lines(from_file, handle)
        assert from_string.triples() == from_file.triples() == g.triples()

    def test_a_string_splits_at_crlf_and_cr_as_a_file_does(self):
        g = Graph()
        assert load_lines(g, '<s:a> <p:p> "x" .\r\n<s:a> <p:p> "y" .\r<s:a> <p:p> "z" .') == 3


# Fragments of lines for comparing `load_lines` with the scanner alone. A
# line is leading whitespace, subject, separator, predicate, separator,
# object, datatype and terminator; each slot takes a well-formed fragment,
# except the one or two slots drawn as faults, which take a malformed one.
# Some well-formed fragments still make a bad line together, such as a
# datatype after an IRI object, or "inf" typed as xsd:float.
_GOOD_RESOURCES = ["<s:a>", "<http://example.org/contact-tracing#a>", "<p:p>", "syn:a", "rdf:type"]
_BAD_RESOURCES = ["<>", "<a b>", "<a\tb>", "<a\u2028b>", "<s:unclosed", "bogus:a", ":a", "plain", "?a"]
_GOOD_LITERALS = [
    '"x"', '""', '"a b"', '"0.5"', '"-1e3"', '"NaN"', '"inf"', '"abc"', '"tab\there"', '"a\x85b"',
    '"say \\"hi\\""', '"two\\nlines"', '"back\\\\slash"', '"\\""', '"\\t\\r"',
]
_BAD_LITERALS = ['"bad \\q"', '"dangling \\', '"unterminated', '"x"y"']
_SLOTS = {
    "lead": (["", " ", "\t "], ["\x0b", "\xa0"]),
    "subject": (_GOOD_RESOURCES, _BAD_RESOURCES + ['"x"']),
    "gap1": (["", " ", "\t", " \t  "], ["\x0b", "\x0c", "\xa0", "\u2003"]),
    "predicate": (_GOOD_RESOURCES, _BAD_RESOURCES + ['"x"']),
    "gap2": (["", " ", "\t", " \t  "], ["\x0b", "\x0c", "\xa0", "\u2003"]),
    "object": (_GOOD_RESOURCES + _GOOD_LITERALS, _BAD_RESOURCES + _BAD_LITERALS),
    "datatype": (
        ["", "", "^^<dt:x>", "^^<" + XSD_FLOAT + ">", "^^xsd:float"],
        [" ^^<dt:x>", "^^ <dt:x>", "\t^^<dt:x>", "^^", "^^<>", "^^<a b>", "^^bogus:x", "^^<dt:unclosed"],
    ),
    "end": ([".", " .", "\t.\t", ". "], ["", "..", ". .", ". x", ".x", ". # c", " ,", "\r", ".\x0b"]),
}


@st.composite
def _lines(draw):
    faults = draw(st.sets(st.sampled_from(sorted(_SLOTS)), max_size=2))
    return "".join(
        draw(st.sampled_from(bad if slot in faults else good))
        for slot, (good, bad) in _SLOTS.items()
    )


def _outcome(parse):
    try:
        trip = parse()
    except LineFormatError as exc:
        return ("error", exc.line, exc.column, str(exc))
    terms = (trip.subject, trip.predicate, trip.object)
    return tuple((term.kind, term.lexical, term.datatype) for term in terms)


def _load_one(raw):
    g = Graph()
    assert load_lines(g, [raw]) == 1
    [trip] = list(g)
    return trip


class TestParsePaths:
    @settings(max_examples=1000, deadline=None)
    @given(_lines())
    @example('<s:a> <p:p> "x" ^^<dt:x> .')
    @example("<a b> <p:p> <o:o> .")
    @example('<s:a> <p:p> "two\\nlines" .')
    @example("<s:a>\x0b<p:p> <o:o> .")
    def test_loading_a_line_agrees_with_the_scanner(self, raw):
        expected = _outcome(lambda: _parse_line(raw, 1, Term))
        assert _outcome(lambda: _load_one(raw)) == expected

    def test_prefixed_and_absolute_forms_share_one_term(self):
        g = Graph()
        load_lines(g, (
            "syn:a rdf:type syn:Organization .\n"
            f'<{SYN_NS}a> <{RDFS_NS}label> "a" .\n'
            f"<{SYN_NS}b> <{RDF_NS}type> <{SYN_NS}Organization> .\n"
            'syn:b rdfs:label "a" .\n'
        ))
        (a, type_, org), (b, type_again, org_again) = g.iter_terms(None, RDF_TYPE, None)
        (a_again, label, text), (b_again, label_again, text_again) = g.iter_terms(None, RDFS_LABEL, None)
        assert a is a_again and b is b_again
        assert type_ is type_again and org is org_again
        assert label is label_again and text is text_again


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


# few distinct fields, so that equal pairs are drawn often
_value_terms = st.one_of(
    st.builds(iri, st.sampled_from(["a", "s:a", "1.0"])),
    st.builds(plain, st.sampled_from(["a", "s:a", "1.0", ""])),
    st.builds(typed, st.sampled_from(["1.0", "1.00"]), st.sampled_from([XSD_FLOAT, "a"])),
    _json_terms,
)


def _fields(term):
    return (term.kind, term.lexical, term.datatype)


class TestValueSemantics:
    def test_terms_variables_and_patterns_compare_and_hash_as_tuples(self):
        for cls in (Term, Var, TriplePattern):
            assert cls.__eq__ is tuple.__eq__
            assert cls.__hash__ is tuple.__hash__
        assert iri("s:a") == (IRI, "s:a", None) and Var("x") == ("x",)

    @settings(max_examples=300, deadline=None)
    @given(_value_terms, _value_terms)
    def test_terms_are_equal_exactly_when_their_fields_are(self, a, b):
        assert (a == b) == (_fields(a) == _fields(b))
        assert (a != b) == (_fields(a) != _fields(b))
        assert hash(a) == hash(_fields(a))
        for other in (Var(a.lexical), Triple(iri("s:a"), iri("p:p"), a), TriplePattern(a, a, b)):
            assert not (a == other) and a != other

    @settings(max_examples=100, deadline=None)
    @given(_value_terms)
    def test_copy_and_pickle_keep_a_term(self, term):
        for twin in (copy.copy(term), pickle.loads(pickle.dumps(term))):
            assert type(twin) is Term and _fields(twin) == _fields(term)

    def test_copy_and_pickle_run_the_checks(self):
        forged = tuple.__new__(Term, (IRI, "a b", None))
        with pytest.raises(TermError):
            copy.copy(forged)
        with pytest.raises(TermError):
            pickle.loads(pickle.dumps(forged))


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
        assert match(g, TriplePattern(s1, p, Var("o"))) == sorted(
            (t(self.S1, self.P, o) for o in objects), key=Triple.sort_key)
        assert match(g, TriplePattern(Var("s"), p, o1)) == sorted(
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


_ROW_SUBJECTS = ["s:a", "s:b", "s:c", "s:é", 's:"q"', "s:\\", "s:😀", "s:A"]


class TestLeafRows:
    """`Graph.subject_rows` over one (p, o) whose members come and go: every
    read lists the current members' JSON rows in lexical order, and the
    members whose row is not yet filled are always the leaf's tail."""

    P, O = iri("p:type"), iri("o:Category")

    @staticmethod
    def expected_row(lexical):
        return json.dumps([serialize_term(iri(lexical))]).encode()

    def check_leaf(self, g):
        # every unsorted key names a live dict leaf
        assert all(isinstance(g._pos[p][o], dict) for p, o in g._unsorted)
        leaf = g._pos.get(self.P, {}).get(self.O)
        if not isinstance(leaf, dict):
            return
        rows = list(leaf.values())
        first_empty = next((i for i, row in enumerate(rows) if row is None), len(rows))
        assert all(row is None for row in rows[first_empty:]), rows
        for member, row in leaf.items():
            assert row is None or row == self.expected_row(member.lexical)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(["add", "remove"]), st.sampled_from(_ROW_SUBJECTS)),
        st.just(("read", None)),
    ), max_size=40))
    @example([("add", "s:b"), ("add", "s:c"), ("read", None), ("add", "s:a"),
              ("add", "s:é"), ("read", None), ("remove", "s:b"), ("remove", "s:a"),
              ("read", None), ("remove", "s:c"), ("read", None), ("add", "s:b"),
              ("read", None), ("remove", "s:é"), ("add", "s:é"), ("read", None)])
    # an out-of-order leaf shrunk to one member and back
    @example([("add", "s:b"), ("add", "s:a"), ("read", None), ("add", "s:c"), ("read", None),
              ("remove", "s:a"), ("read", None), ("remove", "s:c"), ("read", None)])
    @example([("add", "s:a"), ("add", "s:c"), ("add", "s:b"), ("read", None),
              ("remove", "s:b"), ("read", None), ("add", "s:b"), ("read", None)])
    def test_rows_follow_the_members(self, steps):
        g = Graph()
        g.insert(Triple(iri("s:other"), self.P, iri("o:Else")))  # a neighbouring leaf
        members = set()
        for op, lexical in steps:
            if op == "add":
                # a fresh term each time: the graph keeps the first one it saw
                assert g.insert(Triple(iri(lexical), self.P, self.O)) == (lexical not in members)
                members.add(lexical)
            elif op == "remove":
                assert g.remove(Triple(iri(lexical), self.P, self.O)) == (lexical in members)
                members.discard(lexical)
            else:
                assert g.subject_rows(self.P, self.O) == [
                    self.expected_row(lexical) for lexical in sorted(members)
                ]
            self.check_leaf(g)
        assert g.subject_rows(self.P, iri("o:Else")) == [self.expected_row("s:other")]
        assert g.subject_rows(self.P, iri("o:None")) == []
        assert g.subject_rows(iri("p:none"), self.O) == []

    def test_loading_fills_no_row(self):
        g = Graph()
        load_lines(g, "".join(f"<{s}> <p:type> <o:Category> .\n" for s in ("s:a", "s:c", "s:b")))
        assert list(g._pos[self.P][self.O].values()) == [None] * 3
        assert g.subject_rows(self.P, self.O) == [self.expected_row(s) for s in ("s:a", "s:b", "s:c")]


class TestNamespaces:
    def test_default_prefixes_registered(self):
        namespaces = {"syn": SYN_NS, "dua": DUA_NS, "tst": TST_NS, "rdf": RDF_NS,
                      "rdfs": RDFS_NS, "xsd": XSD_NS}
        for prefix, namespace in namespaces.items():
            g = Graph()
            assert load_lines(g, f"{prefix}:s {prefix}:p {prefix}:o .\n") == 1
            assert list(g) == [t(namespace + "s", namespace + "p", namespace + "o")]
