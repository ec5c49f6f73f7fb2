"""In-memory triple store with set semantics, two pattern-matching indexes,
and a line-oriented bulk format.

Terms, variables and patterns are checked named tuples: they compare and
hash as tuples, in C, and equal terms need not be one object. Graphs keep
subject- and predicate-keyed indexes, so a pattern with a bound predicate
is a couple of dict hops. Patterns with an unbound predicate scan SPO:
`(s, ?, o)` the subject's entry, `(?, ?, o)` the whole graph; no shipped
query binds the object without the predicate. An index leaf with one
member is that bare term; it becomes an insertion-ordered dict when a
second member arrives and a bare term again when it is down to one, so
both forms iterate in insertion order and capped, unsorted iteration is
deterministic for a given build sequence. A predicate-object dict leaf maps
each member subject to its JSON row as bytes, or to None until
`Graph.subject_rows` first reads it.
"""

from __future__ import annotations

import io
import re
from collections import namedtuple
from decimal import Decimal, InvalidOperation
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator, Optional

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
SYN_NS = "http://example.org/contact-tracing#"
DUA_NS = "http://example.org/dua#"
TST_NS = "http://example.org/trust#"

DEFAULT_NAMESPACES = {
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "xsd": XSD_NS,
    "syn": SYN_NS,
    "dua": DUA_NS,
    "tst": TST_NS,
}

XSD_FLOAT = XSD_NS + "float"

IRI = "iri"
PLAIN_LITERAL = "plain-literal"
TYPED_LITERAL = "typed-literal"


class StoreError(Exception):
    """Base class for store failures."""


class TermError(StoreError):
    """Malformed term or statement (bad IRI, stray datatype, bad float)."""


class LineFormatError(StoreError):
    """Syntax error in the line format, with position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_WHITESPACE_RE = re.compile(r"\s")


def _check_iri(value: str, what: str) -> None:
    if not value:
        raise TermError(f"{what} must be a non-empty IRI")
    if _WHITESPACE_RE.search(value):
        raise TermError(f"{what} contains whitespace: {value!r}")


class Term(namedtuple("Term", "kind lexical datatype")):
    """An IRI, plain literal, or typed literal.

    A term is its (kind, lexical, datatype) tuple: equality and hashing are
    the tuple's own, so "1.0" and "1.00" are distinct typed literals even
    though they denote the same number. `__new__` holds every check;
    `_make` and `_replace` skip them, and nothing calls them.
    """

    __slots__ = ()

    def __new__(cls, kind: str, lexical: str, datatype: Optional[str] = None):
        if kind == IRI:
            _check_iri(lexical, "IRI")
            if datatype is not None:
                raise TermError("IRIs carry no datatype")
        elif kind == PLAIN_LITERAL:
            if datatype is not None:
                raise TermError("plain literals carry no datatype")
        elif kind == TYPED_LITERAL:
            if not datatype:
                raise TermError("typed literals require a datatype IRI")
            _check_iri(datatype, "datatype")
            if datatype == XSD_FLOAT:
                try:
                    if not Decimal(lexical).is_finite():
                        raise TermError(f"non-finite float literal: {lexical!r}")
                except InvalidOperation:
                    raise TermError(f"unparsable float literal: {lexical!r}") from None
        else:
            raise TermError(f"unknown term kind: {kind!r}")
        return tuple.__new__(cls, (kind, lexical, datatype))

    def sort_key(self):
        return (self.lexical, self.kind, self.datatype or "")

    def __repr__(self):
        if self.kind == IRI:
            return f"<{self.lexical}>"
        if self.kind == PLAIN_LITERAL:
            return f'"{self.lexical}"'
        return f'"{self.lexical}"^^<{self.datatype}>'


def iri(value: str) -> Term:
    return Term(IRI, value)


def plain(value: str) -> Term:
    return Term(PLAIN_LITERAL, value)


def typed(lexical: str, datatype: str) -> Term:
    return Term(TYPED_LITERAL, lexical, datatype)


class Var(namedtuple("Var", "name")):
    """A named variable in a triple pattern."""

    __slots__ = ()

    def __repr__(self):
        return f"?{self.name}"


class Triple:
    """A subject-predicate-object statement; subject and predicate are IRIs."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Term, predicate: Term, object: Term):
        if not isinstance(subject, Term) or subject.kind != IRI:
            raise TermError(f"triple subject must be an IRI, got {subject!r}")
        if not isinstance(predicate, Term) or predicate.kind != IRI:
            raise TermError(f"triple predicate must be an IRI, got {predicate!r}")
        if not isinstance(object, Term):
            raise TermError(f"triple object must be a Term, got {object!r}")
        self.subject = subject
        self.predicate = predicate
        self.object = object

    def sort_key(self):
        return (self.subject.sort_key(), self.predicate.sort_key(), self.object.sort_key())

    def __eq__(self, other):
        return (
            isinstance(other, Triple)
            and self.subject == other.subject
            and self.predicate == other.predicate
            and self.object == other.object
        )

    def __hash__(self):
        return hash((self.subject, self.predicate, self.object))

    def __repr__(self):
        return f"({self.subject!r} {self.predicate!r} {self.object!r})"


class TriplePattern(namedtuple("TriplePattern", "subject predicate object")):
    """A triple whose positions may be variables; zero variables is a
    membership test. Iterating a pattern gives its three positions."""

    __slots__ = ()

    def __new__(cls, subject, predicate, object):
        for node in (subject, predicate, object):
            if not isinstance(node, (Term, Var)):
                raise TermError(f"pattern positions must be Term or Var, got {node!r}")
        return tuple.__new__(cls, (subject, predicate, object))

    def variables(self) -> tuple[str, ...]:
        return tuple(node.name for node in self if isinstance(node, Var))

    def __repr__(self):
        return f"({self.subject!r} {self.predicate!r} {self.object!r})"


class Graph:
    """Set of triples with SPO and POS indexes.

    The two indexes are the only storage: no `Triple` object is kept, and
    iteration builds them from the SPO index. `_spo[s][p]` holds the objects
    and `_pos[p][o]` the subjects: a bare `Term` while there is one, a dict
    (members as keys) from two on, since almost every subject has one value
    per predicate and a one-entry dict costs about 220 bytes. Passive with
    respect to locking: callers serialize access, as `ExchangeMiddleware`
    does by reading and writing only inside its one lock's sections, which
    run one at a time.

    `_unsorted` holds the `(p, o)` key of every POS dict leaf whose subjects
    may be out of lexical order; a dict leaf whose key is absent iterates in
    lexical order. An insert adds the key when its subject sorts below the
    leaf's last one; a removal keeps a leaf's order and drops the key when
    the leaf shrinks to a bare term, so every key names a live dict leaf.

    A POS dict leaf's value for a member is the member's JSON row as bytes
    (`_json_row`), or None until `subject_rows` first reads the leaf. Inserts
    append members with None, a promotion to a dict starts both members at
    None, and filling a value keeps the key's place, so the members without
    a row are always the leaf's tail.
    """

    def __init__(self):
        self._size = 0
        self._spo: dict[Term, dict[Term, Term | dict[Term, None]]] = {}
        self._pos: dict[Term, dict[Term, Term | dict[Term, Optional[bytes]]]] = {}
        self._unsorted: set[tuple[Term, Term]] = set()
        self.version = 0
        self._pred_versions: dict[Term, int] = {}

    def __len__(self):
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        for s, p, o in self.iter_terms(None, None, None):
            yield Triple(s, p, o)

    def __contains__(self, t: Triple) -> bool:
        return isinstance(t, Triple) and self.contains_spo(t.subject, t.predicate, t.object)

    def triples(self) -> list[Triple]:
        """All triples in canonical (sorted) order."""
        return sorted(self, key=Triple.sort_key)

    def insert(self, t: Triple) -> bool:
        """Add a triple; returns False if it was already present."""
        if not isinstance(t, Triple):
            raise TermError(f"expected a Triple, got {t!r}")
        return self._add(t.subject, t.predicate, t.object)

    def _add(self, s: Term, p: Term, o: Term) -> bool:
        """`insert` for terms a `Triple` would accept: IRIs `s` and `p`."""
        if not _link(self._spo, s, p, o):
            return False
        # the triple is new, so s is not yet under (p, o); the POS link is
        # spelled out here to note a subject that arrives out of order
        second = self._pos.get(p)
        if second is None:
            self._pos[p] = {o: s}
        else:
            leaf = second.get(o)
            if leaf is None:
                second[o] = s
            elif type(leaf) is dict:
                if s.lexical < next(reversed(leaf)).lexical:
                    self._unsorted.add((p, o))
                leaf[s] = None
            else:
                if s.lexical < leaf.lexical:
                    self._unsorted.add((p, o))
                second[o] = {leaf: None, s: None}
        self._size += 1
        self.version += 1
        self._pred_versions[p] = self._pred_versions.get(p, 0) + 1
        return True

    def remove(self, t: Triple) -> bool:
        """Remove a triple; returns False if it was absent."""
        if t not in self:
            return False
        s, p, o = t.subject, t.predicate, t.object
        _unlink(self._spo, s, p, o)
        if _unlink(self._pos, p, o, s) and self._unsorted:
            self._unsorted.discard((p, o))
        self._size -= 1
        self.version += 1
        self._pred_versions[p] = self._pred_versions.get(p, 0) + 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        added = 0
        for t in triples:
            if self.insert(t):
                added += 1
        return added

    # -- pattern access ------------------------------------------------

    def contains_spo(self, s: Term, p: Term, o: Term) -> bool:
        inner = self._spo.get(s)
        if inner is None:
            return False
        leaf = inner.get(p)
        if leaf is None:
            return False
        if type(leaf) is dict:
            return o in leaf
        return leaf == o

    def objects_for(self, s: Term, p: Term):
        """The objects of `(s, p)`: a one-term tuple, or the live index dict."""
        inner = self._spo.get(s)
        if inner is None:
            return ()
        leaf = inner.get(p)
        return () if leaf is None else _members(leaf)

    def subjects_for(self, p: Term, o: Term):
        """The subjects of `(p, o)`: a one-term tuple, or the live index dict."""
        inner = self._pos.get(p)
        if inner is None:
            return ()
        leaf = inner.get(o)
        return () if leaf is None else _members(leaf)

    def subject_rows(self, p: Term, o: Term) -> list[bytes]:
        """The subjects of `(p, o)` in lexical order, each as its JSON row
        `json.dumps([serialize_term(s)]).encode()`: a fresh list over the
        current members, read from the live leaf.

        A dict leaf's rows are filled from its end until the first member
        that has one, so a read after no insert checks one value; the list is
        then one copy of the leaf's values, and no term is touched per row.
        A leaf that may be out of order, and a one-member leaf, are read one
        member at a time.
        """
        inner = self._pos.get(p)
        leaf = None if inner is None else inner.get(o)
        if type(leaf) is not dict:
            return [] if leaf is None else [_json_row(leaf)]
        for s, row in reversed(leaf.items()):
            if row is not None:
                break
            leaf[s] = _json_row(s)
        if self._unsorted and (p, o) in self._unsorted:
            return [leaf[s] for s in sorted(leaf, key=attrgetter("lexical"))]
        return list(leaf.values())

    def predicate_version(self, p: Term) -> int:
        """Mutation counter for one predicate; a query whose patterns all
        carry ground predicates has the same solutions while the versions of
        those predicates are unchanged."""
        return self._pred_versions.get(p, 0)

    def estimate(self, s: Optional[Term], p: Optional[Term], o: Optional[Term]) -> int:
        """Cheap relative-cardinality signal for a pattern; None is a
        wildcard. Single-key shapes use first-level index sizes as proxies."""
        if s is not None and p is not None and o is not None:
            return 1 if self.contains_spo(s, p, o) else 0
        if s is not None and p is not None:
            return len(self.objects_for(s, p))
        if p is not None and o is not None:
            return len(self.subjects_for(p, o))
        if s is not None:
            return len(self._spo.get(s, ()))
        if p is not None:
            return len(self._pos.get(p, ()))
        return self._size

    def iter_terms(self, s: Optional[Term], p: Optional[Term], o: Optional[Term]):
        """Yield (s, p, o) term tuples for every triple matching the pattern.

        Positions given as None are wildcards; non-IRI terms in subject or
        predicate position simply match nothing.
        """
        if s is not None and s.kind != IRI:
            return
        if p is not None and p.kind != IRI:
            return
        if s is not None and p is not None:
            if o is not None:
                if self.contains_spo(s, p, o):
                    yield (s, p, o)
            else:
                for obj in self.objects_for(s, p):
                    yield (s, p, obj)
        elif p is not None:
            inner = self._pos.get(p)
            if inner:
                if o is not None:
                    for subj in self.subjects_for(p, o):
                        yield (subj, p, o)
                else:
                    for obj, subjs in inner.items():
                        for subj in _members(subjs):
                            yield (subj, p, obj)
        else:
            subjects = self._spo.items() if s is None else ((s, self._spo.get(s, {})),)
            for subj, preds in subjects:
                for pred, objs in preds.items():
                    if o is None:
                        for obj in _members(objs):
                            yield (subj, pred, obj)
                    elif o in _members(objs):
                        yield (subj, pred, o)


def _members(leaf):
    """An index leaf's members: the dict itself, or a bare term as a 1-tuple."""
    return leaf if type(leaf) is dict else (leaf,)


def _link(index: dict, a: Term, b: Term, c: Term) -> bool:
    """Add c under index[a][b]; False if it was already there."""
    second = index.get(a)
    if second is None:
        index[a] = {b: c}
        return True
    leaf = second.get(b)
    if leaf is None:
        second[b] = c
        return True
    if type(leaf) is dict:
        if c in leaf:
            return False
        leaf[c] = None
        return True
    if leaf == c:
        return False
    second[b] = {leaf: None, c: None}
    return True


def _unlink(index: dict, a: Term, b: Term, c: Term) -> bool:
    """Remove c, which must be present, from index[a][b]; True when that
    leaf shrank from a dict to a bare term."""
    second = index[a]
    leaf = second[b]
    if type(leaf) is dict:
        del leaf[c]
        # a dict leaf holds two members or more, so one is left at least
        if len(leaf) == 1:
            second[b] = next(iter(leaf))
            return True
        return False
    del second[b]
    if not second:
        del index[a]
    return False


# -- line format ---------------------------------------------------------
#
# One triple per line: `<subject> <predicate> <object> .`
# Objects are `<iri>`, `"lexical"`, or `"lexical"^^<datatype>`; subjects and
# predicates may also be written as prefix:local names resolved against
# DEFAULT_NAMESPACES. `#`-prefixed lines are comments.
#
# `load_lines` has two paths. The regex path (`_LINE_RE`) takes a line of
# absolute IRIs whose object is an IRI or a literal without escapes,
# optionally typed by an absolute datatype IRI: every line `serialize_lines`
# writes for a literal that `_escape` leaves as it is. The scanner fallback
# (`_parse_line`) takes every other line, and a matched line whose terms
# `Term` rejects; it is the only parser of prefixed names and escapes, and
# the only code that reports a `LineFormatError`.

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _escape(text: str) -> str:
    if not any(c in text for c in '\\"\n\r\t'):
        return text
    return "".join(_ESCAPES.get(c, c) for c in text)


class _LineScanner:
    def __init__(self, text: str, line_no: int):
        self.text = text
        self.pos = 0
        self.line_no = line_no

    def error(self, message: str) -> LineFormatError:
        return LineFormatError(message, self.line_no, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_iri(self) -> str:
        end = self.text.find(">", self.pos + 1)
        if end < 0:
            raise self.error("unterminated IRI (missing '>')")
        value = self.text[self.pos + 1 : end]
        self.pos = end + 1
        return value

    def take_string(self) -> str:
        chars = []
        i = self.pos + 1
        while True:
            if i >= len(self.text):
                self.pos = i
                raise self.error("unterminated string literal")
            c = self.text[i]
            if c == "\\":
                if i + 1 >= len(self.text):
                    self.pos = i
                    raise self.error("dangling escape in string literal")
                esc = self.text[i + 1]
                if esc not in _UNESCAPES:
                    self.pos = i
                    raise self.error(f"unknown escape sequence \\{esc}")
                chars.append(_UNESCAPES[esc])
                i += 2
            elif c == '"':
                self.pos = i + 1
                return "".join(chars)
            else:
                chars.append(c)
                i += 1

    def take_qname_iri(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in ":_-"
        ):
            self.pos += 1
        token = self.text[start : self.pos]
        if ":" not in token:
            self.pos = start
            raise self.error(f"expected an IRI or prefixed name, got {token!r}")
        prefix, _, local = token.partition(":")
        if prefix not in DEFAULT_NAMESPACES:
            self.pos = start
            raise self.error(f"unknown prefix {prefix!r}")
        return DEFAULT_NAMESPACES[prefix] + local


def _parse_resource(scanner: _LineScanner) -> str:
    if scanner.peek() == "<":
        return scanner.take_iri()
    return scanner.take_qname_iri()


def _parse_object(scanner: _LineScanner, term) -> Term:
    if scanner.peek() == '"':
        lexical = scanner.take_string()
        if scanner.text.startswith("^^", scanner.pos):
            scanner.pos += 2
            datatype = _parse_resource(scanner)
            return term(TYPED_LITERAL, lexical, datatype)
        return term(PLAIN_LITERAL, lexical)
    return term(IRI, _parse_resource(scanner))


def _parse_line(text: str, line_no: int, term) -> Triple:
    """One line as a triple, with `term(kind, lexical[, datatype])` building
    each term; `LineFormatError` gives the line and column of a fault."""
    scanner = _LineScanner(text, line_no)
    scanner.skip_ws()
    try:
        subject = term(IRI, _parse_resource(scanner))
        scanner.skip_ws()
        predicate = term(IRI, _parse_resource(scanner))
        scanner.skip_ws()
        obj = _parse_object(scanner, term)
    except TermError as exc:
        raise scanner.error(str(exc)) from None
    scanner.skip_ws()
    if scanner.peek() != ".":
        raise scanner.error("expected terminating '.'")
    scanner.pos += 1
    scanner.skip_ws()
    if not scanner.at_end():
        raise scanner.error("trailing content after '.'")
    return Triple(subject, predicate, obj)


# Tokens are separated by what `_LineScanner.skip_ws` skips: spaces and tabs.
_LINE_RE = re.compile(
    r'[ \t]*<([^>]*)>[ \t]*<([^>]*)>[ \t]*'
    r'(?:<([^>]*)>|"([^"\\]*)"(?:\^\^<([^>]*)>)?)'
    r'[ \t]*\.[ \t]*'
)


def load_lines(graph: Graph, source) -> int:
    """Load the line format into a graph; returns the number of new triples.

    `source` is a string or an iterable of lines. A string is split where a
    text-mode file would be: at `\\n`, `\\r\\n` and `\\r`. Raises
    LineFormatError with the position of the first bad line.

    Equal terms are built once per call and shared by every triple that uses
    them, so the indexes hold one object per distinct term. The tables live
    only for this call: later writes bring fresh terms of their own.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    iris: dict[str, Term] = {}
    plains: dict[str, Term] = {}
    typeds: dict[tuple[str, str], Term] = {}

    def term(kind: str, lexical: str, datatype: Optional[str] = None) -> Term:
        if kind == IRI:
            table, key = iris, lexical
        elif kind == PLAIN_LITERAL:
            table, key = plains, lexical
        else:
            table, key = typeds, (lexical, datatype)
        found = table.get(key)
        if found is None:
            found = table[key] = Term(kind, lexical, datatype)
        return found

    fullmatch = _LINE_RE.fullmatch
    add = graph._add
    added = 0
    for line_no, raw in enumerate(source, start=1):
        raw = raw.rstrip("\n")
        match = fullmatch(raw)
        if match is not None:
            s, p, o, lexical, datatype = match.groups()
            try:
                s = iris.get(s) or term(IRI, s)
                p = iris.get(p) or term(IRI, p)
                if o is not None:
                    o = iris.get(o) or term(IRI, o)
                elif datatype is None:
                    o = plains.get(lexical) or term(PLAIN_LITERAL, lexical)
                else:
                    o = typeds.get((lexical, datatype)) or term(TYPED_LITERAL, lexical, datatype)
            except TermError:
                match = None
        if match is None:
            if not raw.strip() or raw.startswith("#"):
                continue
            t = _parse_line(raw, line_no, term)
            s, p, o = t.subject, t.predicate, t.object
        if add(s, p, o):
            added += 1
    return added


def serialize_term(term: Term) -> str:
    if term.kind == IRI:
        return f"<{term.lexical}>"
    if term.kind == PLAIN_LITERAL:
        return f'"{_escape(term.lexical)}"'
    return f'"{_escape(term.lexical)}"^^<{term.datatype}>'


def _json_row(term: Term) -> bytes:
    """`json.dumps([serialize_term(term)]).encode()`: the bytes of the
    term's one-element JSON row, as a granted reply sends it."""
    return f"[{encode_basestring_ascii(serialize_term(term))}]".encode("ascii")


def serialize_lines(graph: Graph) -> str:
    """Canonical text form: one sorted triple per line, absolute IRIs only."""
    out = []
    for t in graph.triples():
        out.append(
            f"<{t.subject.lexical}> <{t.predicate.lexical}> {serialize_term(t.object)} .\n"
        )
    return "".join(out)
