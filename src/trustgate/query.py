"""Parser and evaluator for the SPARQL subset used by the access policies.

Supported: ASK and SELECT over basic graph patterns with FILTER(... IN ...)
or FILTER(... = ...) on STR() values, and DELETE/INSERT/WHERE updates.
Anything outside that subset fails with an explicit unsupported-feature
error naming the construct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .store import (
    DEFAULT_NAMESPACES,
    RDF_NS,
    Graph,
    Term,
    Triple,
    TriplePattern,
    Var,
    _UNESCAPES,
    iri,
    plain,
    typed,
)

RDF_TYPE = iri(RDF_NS + "type")
RDF_PLAIN_LITERAL = RDF_NS + "PlainLiteral"

ASK = "ask"
SELECT = "select"
UPDATE = "update"

PLACEHOLDER_RE = re.compile(r"\{([a-zA-Z]\w*)\}")

_UNSUPPORTED = {
    "OPTIONAL", "UNION", "GRAPH", "SERVICE", "MINUS", "BIND", "VALUES",
    "CONSTRUCT", "DESCRIBE", "LIMIT", "OFFSET", "ORDER", "GROUP", "HAVING",
    "DISTINCT", "REDUCED", "EXISTS", "BASE", "WITH", "USING", "LOAD", "CLEAR",
}


class QueryError(Exception):
    """Base class for query failures."""


class ParseError(QueryError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnsupportedFeatureError(QueryError):
    def __init__(self, construct: str, line: int = 0, column: int = 0):
        super().__init__(f"unsupported feature: {construct}")
        self.construct = construct
        self.line = line
        self.column = column


class EvalError(QueryError):
    pass


# -- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>[ \t\r]+)
  | (?P<NEWLINE>\n)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<IRIREF><[^<>\s]*>)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*")
  | (?P<VAR>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<QNAME>[A-Za-z_][A-Za-z0-9_-]*:[A-Za-z_][A-Za-z0-9_-]*)
  | (?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PARAM>\{[A-Za-z]\w*\})
  | (?P<DCARET>\^\^)
  | (?P<PUNCT>[{}().,=*;:])
    """,
    re.VERBOSE,
)

@dataclass
class _Token:
    kind: str
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        column = pos - line_start + 1
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
        elif kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, value, line, column))
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


def _unescape_string(raw: str, line: int, column: int) -> str:
    body = raw[1:-1]
    if "\\" not in body:
        return body
    out = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            esc = body[i + 1]
            if esc not in _UNESCAPES:
                raise ParseError(f"unknown escape sequence \\{esc}", line, column)
            out.append(_UNESCAPES[esc])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


# -- AST -------------------------------------------------------------------


@dataclass
class FilterExpr:
    """STR()/plain comparison of a variable against ground terms.

    `string_mode` is set when either side was written with STR(), in which
    case terms compare by their STR value (absolute IRI or lexical form).
    A parameter (`Var`) on the right is read from the evaluation's binding.
    """

    operator: str                 # "in" or "equals"
    variable: str
    rhs: list                     # terms and parameters, or one list parameter
    string_mode: bool = True

    def matches(self, term: Term, binding: Optional[dict] = None) -> bool:
        rhs = binding[self.rhs.name] if isinstance(self.rhs, Var) else self.rhs
        for t in rhs:
            if isinstance(t, Var):
                t = binding[t.name]
            if term.lexical == t.lexical if self.string_mode else term == t:
                return True
        return False


@dataclass
class QueryAst:
    form: str
    bgp: list[TriplePattern] = field(default_factory=list)
    filters: list[FilterExpr] = field(default_factory=list)
    projection: Optional[list[str]] = None      # None = all bgp variables
    delete_template: list[TriplePattern] = field(default_factory=list)
    insert_template: list[TriplePattern] = field(default_factory=list)
    parameters: list[str] = field(default_factory=list)  # a prepared query's, as Var names

    def bgp_variables(self) -> list[str]:
        seen: dict[str, None] = {}
        for pattern in self.bgp:
            for name in pattern.variables():
                seen.setdefault(name)
        return list(seen)


@dataclass
class BindingSet:
    """Solution rows over a fixed variable tuple, deterministically ordered."""

    variables: tuple[str, ...]
    rows: list[tuple[Term, ...]]

    def __len__(self):
        return len(self.rows)


@dataclass
class UpdateSummary:
    deleted: int
    inserted: int


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, params: Optional[dict[str, str]] = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.namespaces = dict(DEFAULT_NAMESPACES)
        self.params = params
        self.used: dict[str, None] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect_punct(self, value: str) -> _Token:
        tok = self.next()
        if tok.kind != "PUNCT" or tok.value != value:
            raise self.error(f"expected {value!r}, got {tok.value!r}", tok)
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "WORD" and tok.value.upper() == word

    def parse(self) -> QueryAst:
        self.parse_prologue()
        tok = self.peek()
        if tok.kind != "WORD":
            raise self.error(f"expected a query form, got {tok.value!r}")
        word = tok.value.upper()
        if word == "ASK":
            self.next()
            ast = QueryAst(form=ASK)
            ast.bgp, ast.filters = self.parse_group()
        elif word == "SELECT":
            self.next()
            ast = QueryAst(form=SELECT)
            ast.projection = self.parse_projection()
            if not self.at_keyword("WHERE"):
                raise self.error("expected WHERE after SELECT clause")
            self.next()
            ast.bgp, ast.filters = self.parse_group()
        elif word in ("DELETE", "INSERT"):
            ast = QueryAst(form=UPDATE)
            if self.at_keyword("DELETE"):
                self.next()
                ast.delete_template = self.parse_template()
            if self.at_keyword("INSERT"):
                self.next()
                ast.insert_template = self.parse_template()
            if not self.at_keyword("WHERE"):
                raise self.error("expected WHERE clause in update")
            self.next()
            ast.bgp, ast.filters = self.parse_group()
        elif word in _UNSUPPORTED:
            raise UnsupportedFeatureError(word, tok.line, tok.column)
        else:
            raise self.error(f"expected ASK, SELECT, DELETE, or INSERT, got {tok.value!r}")
        tok = self.peek()
        if tok.kind != "EOF":
            raise self.error(f"trailing content after query: {tok.value!r}", tok)
        self.validate(ast)
        ast.parameters = list(self.used)
        return ast

    def parse_prologue(self) -> None:
        while self.at_keyword("PREFIX"):
            self.next()
            tok = self.next()
            # prefix declaration arrives as a QNAME-like token "pfx:" only if
            # local part present; accept WORD ':' ... by re-splitting
            if tok.kind == "QNAME":
                raise self.error("prefix declaration must end with ':'", tok)
            if tok.kind != "WORD":
                raise self.error(f"expected prefix name, got {tok.value!r}", tok)
            name = tok.value
            colon = self.next()
            if colon.kind != "PUNCT" or colon.value != ":":
                raise self.error("expected ':' in prefix declaration", colon)
            ref = self.next()
            if ref.kind != "IRIREF":
                raise self.error("expected <iri> in prefix declaration", ref)
            self.namespaces[name] = ref.value[1:-1]

    def parse_projection(self) -> Optional[list[str]]:
        tok = self.peek()
        if tok.kind == "WORD" and tok.value.upper() in _UNSUPPORTED:
            raise UnsupportedFeatureError(tok.value.upper(), tok.line, tok.column)
        if tok.kind == "PUNCT" and tok.value == "*":
            self.next()
            return None
        names = []
        while self.peek().kind == "VAR":
            names.append(self.next().value[1:])
        if not names:
            raise self.error("SELECT needs projection variables or '*'")
        return names

    def parse_group(self) -> tuple[list[TriplePattern], list[FilterExpr]]:
        self.expect_punct("{")
        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.value == "}":
                self.next()
                return patterns, filters
            if tok.kind == "EOF":
                raise self.error("unterminated group (missing '}')", tok)
            if tok.kind == "WORD" and tok.value.upper() in _UNSUPPORTED:
                raise UnsupportedFeatureError(tok.value.upper(), tok.line, tok.column)
            if tok.kind == "WORD" and tok.value.upper() == "FILTER":
                self.next()
                filters.append(self.parse_filter())
                continue
            patterns.append(self.parse_pattern())

    def parse_template(self) -> list[TriplePattern]:
        patterns, filters = self.parse_group()
        if filters:
            raise self.error("FILTER is not allowed inside update templates")
        return patterns

    def parse_pattern(self) -> TriplePattern:
        s = self.parse_node()
        p = self.parse_node(predicate=True)
        o = self.parse_node()
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value == ".":
            self.next()
        return TriplePattern(s, p, o)

    def parse_node(self, predicate: bool = False):
        tok = self.next()
        if tok.kind == "VAR":
            return Var(tok.value[1:])
        if tok.kind == "PARAM":
            node = self.parameter(tok, tok.value, "term")
            if self.peek().kind == "DCARET":
                raise self.error(f"placeholder {tok.value} takes no datatype", self.peek())
            return node
        if tok.kind == "WORD":
            if tok.value == "a" and predicate:
                return RDF_TYPE
            if tok.value.upper() in _UNSUPPORTED:
                raise UnsupportedFeatureError(tok.value.upper(), tok.line, tok.column)
            raise self.error(f"unexpected token {tok.value!r} in pattern", tok)
        if tok.kind in ("IRIREF", "QNAME"):
            if self.params is not None and PLACEHOLDER_RE.search(tok.value):
                raise self.error(f"a placeholder must be a whole term, not in {tok.value}", tok)
            value = self.resolve(tok)
            if self.peek().kind == "DCARET":
                # the policy texts tag some IRIs with ^^rdf:PlainLiteral; that
                # normalizes to a plain literal of the absolute IRI string
                self.next()
                dtype = self.parse_datatype()
                if dtype != RDF_PLAIN_LITERAL:
                    raise self.error(f"datatype {dtype!r} cannot apply to an IRI", tok)
                return plain(value)
            return iri(value)
        if tok.kind == "STRING":
            lexical = _unescape_string(tok.value, tok.line, tok.column)
            if self.params is not None and PLACEHOLDER_RE.search(lexical):
                node = self.parameter(tok, lexical, "string")
                if self.peek().kind == "DCARET":
                    self.next()
                    if self.parse_datatype() != RDF_PLAIN_LITERAL:
                        raise self.error(f"placeholder {lexical} takes no datatype "
                                         "but rdf:PlainLiteral", tok)
                return node
            if self.peek().kind == "DCARET":
                self.next()
                dtype = self.parse_datatype()
                if dtype == RDF_PLAIN_LITERAL:
                    return plain(lexical)
                return typed(lexical, dtype)
            return plain(lexical)
        raise self.error(f"unexpected token {tok.value!r} in pattern", tok)

    def parameter(self, tok: _Token, text: str, form: str) -> Var:
        """The parameter `text` stands for, when it is one whole placeholder
        written in the form its name takes."""
        if self.params is None:
            raise self.error(f"unexpected token {tok.value!r} in pattern", tok)
        match = PLACEHOLDER_RE.fullmatch(text)
        if match is None:
            raise self.error(f"a placeholder must be a whole term, not in {tok.value}", tok)
        wanted = self.params.get(match[1])
        if wanted is None:
            raise self.error(f"unknown placeholder {text}", tok)
        if wanted != form:
            raise self.error(f"placeholder {text} must be written as a {wanted}, not a {form}", tok)
        self.used[text] = None
        return Var(text)

    def parse_datatype(self) -> str:
        tok = self.next()
        if tok.kind not in ("IRIREF", "QNAME"):
            raise self.error("expected datatype IRI after '^^'", tok)
        return self.resolve(tok)

    def resolve(self, tok: _Token) -> str:
        if tok.kind == "IRIREF":
            return tok.value[1:-1]
        prefix, _, local = tok.value.partition(":")
        if prefix not in self.namespaces:
            raise self.error(f"undeclared prefix {prefix!r}", tok)
        return self.namespaces[prefix] + local

    def parse_filter(self) -> FilterExpr:
        self.expect_punct("(")
        lhs_var, lhs_str = self.parse_operand()
        tok = self.next()
        if tok.kind == "PUNCT" and tok.value == "=":
            operator = "equals"
            term, rhs_str = self.parse_ground_operand()
            rhs_terms = [term]
        elif tok.kind == "WORD" and tok.value.upper() == "IN":
            operator = "in"
            self.expect_punct("(")
            tok = self.peek()
            if tok.kind == "PARAM" and (self.params or {}).get(tok.value[1:-1]) == "list":
                # one parameter is the whole list; its terms compare by STR value
                rhs_terms = self.parameter(self.next(), tok.value, "list")
                rhs_str = True
                self.expect_punct(")")
            else:
                rhs_terms = []
                rhs_str = False
                while True:
                    term, wrapped = self.parse_ground_operand()
                    rhs_terms.append(term)
                    rhs_str = rhs_str or wrapped
                    tok = self.next()
                    if tok.kind == "PUNCT" and tok.value == ",":
                        continue
                    if tok.kind == "PUNCT" and tok.value == ")":
                        break
                    raise self.error(f"expected ',' or ')' in IN list, got {tok.value!r}", tok)
        else:
            raise self.error(f"expected '=' or IN in FILTER, got {tok.value!r}", tok)
        self.expect_punct(")")
        return FilterExpr(operator, lhs_var, rhs_terms, string_mode=lhs_str or rhs_str)

    def parse_operand(self) -> tuple[str, bool]:
        tok = self.peek()
        wrapped = False
        if tok.kind == "WORD" and tok.value.upper() == "STR":
            self.next()
            self.expect_punct("(")
            inner = self.next()
            self.expect_punct(")")
            wrapped = True
            tok = inner
        else:
            tok = self.next()
        if tok.kind != "VAR":
            raise self.error("FILTER left-hand side must be a variable", tok)
        return tok.value[1:], wrapped

    def parse_ground_operand(self) -> tuple[Term, bool]:
        tok = self.peek()
        wrapped = False
        if tok.kind == "WORD" and tok.value.upper() == "STR":
            self.next()
            self.expect_punct("(")
            term = self.parse_ground_term()
            self.expect_punct(")")
            return term, True
        term = self.parse_ground_term()
        return term, wrapped

    def parse_ground_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "VAR":
            raise self.error("FILTER comparison values must be ground terms", tok)
        return self.parse_node()

    def validate(self, ast: QueryAst) -> None:
        bgp_vars = set(ast.bgp_variables())
        if ast.projection is not None:
            for name in ast.projection:
                if name not in bgp_vars:
                    raise ParseError(
                        f"projected variable ?{name} does not appear in the pattern", 0, 0
                    )
        for f in ast.filters:
            if f.variable not in bgp_vars:
                raise ParseError(
                    f"FILTER variable ?{f.variable} does not appear in the pattern", 0, 0
                )
        if ast.form == UPDATE:
            if not ast.delete_template and not ast.insert_template:
                raise ParseError("update needs a DELETE or INSERT template", 0, 0)
            for where, template in (("DELETE", ast.delete_template), ("INSERT", ast.insert_template)):
                for pattern in template:
                    for name in pattern.variables():
                        if name not in bgp_vars:
                            raise ParseError(
                                f"{where} template variable ?{name} is not bound by WHERE", 0, 0
                            )


def parse(text: str, params: Optional[dict[str, str]] = None) -> QueryAst:
    """Parse a query string into a QueryAst.

    `params` prepares the query: it maps each placeholder name the text may
    hold to the one form it is written in, and each becomes the `Var`
    "{name}" that an evaluation's binding gives a value. The forms: "string"
    is "{name}", a whole string whose only datatype may be rdf:PlainLiteral;
    "term" is {name} in place of a term; "list" is {name} as a FILTER's
    whole IN list, bound to a collection of terms. Without `params`, a
    placeholder is not a term.

    Raises ParseError with line/column, or UnsupportedFeatureError naming any
    construct outside the supported subset.
    """
    return _Parser(text, params).parse()


# -- evaluator ---------------------------------------------------------------

_BIG = 1 << 30


def order_patterns(patterns: list[TriplePattern], graph: Graph,
                   binding: Optional[dict] = None) -> list[TriplePattern]:
    """Greedy most-selective-first join order.

    Patterns whose remaining free variables are fewest go first; among those,
    prefer the smallest index-estimated candidate set. Positions holding
    already-bound variables count as ground but have no static estimate;
    a variable `binding` gives counts as the term it is bound to.
    Reordering never changes results, only runtime, so a caller that
    re-evaluates one query against a slowly-changing graph may compile its
    plan once and pass that to `eval_ask`.
    """
    given = binding or {}
    entries = []
    for idx, pattern in enumerate(patterns):
        lookup = tuple(given.get(node.name) if isinstance(node, Var) else node
                       for node in pattern)
        names = tuple(name for name in pattern.variables() if name not in given)
        entries.append((idx, pattern, lookup, names))
    bound: set[str] = set()
    order: list[TriplePattern] = []
    remaining = list(entries)
    while remaining:
        best_at = 0
        best_score = None
        for at, (idx, pattern, lookup, names) in enumerate(remaining):
            free = sum(1 for v in names if v not in bound)
            # a position holding an already-bound variable has no static
            # estimate; such patterns are cheap joins, ranked by free count
            if any(v in bound for v in names):
                estimate = _BIG
            else:
                estimate = graph.estimate(*lookup)
            score = (free, estimate, idx)
            if best_score is None or score < best_score:
                best_score = score
                best_at = at
        _, pattern, _, names = remaining.pop(best_at)
        order.append(pattern)
        bound.update(names)
    return order


class _Step:
    """One pattern compiled for evaluation: ground terms, variable names per
    position, and the filters that become checkable once it binds."""

    __slots__ = ("s", "p", "o", "svar", "pvar", "ovar", "filters")

    def __init__(self, pattern: TriplePattern):
        self.s = pattern.subject if isinstance(pattern.subject, Term) else None
        self.svar = pattern.subject.name if isinstance(pattern.subject, Var) else None
        self.p = pattern.predicate if isinstance(pattern.predicate, Term) else None
        self.pvar = pattern.predicate.name if isinstance(pattern.predicate, Var) else None
        self.o = pattern.object if isinstance(pattern.object, Term) else None
        self.ovar = pattern.object.name if isinstance(pattern.object, Var) else None
        self.filters: list[FilterExpr] = []


def compile_plan(ast: QueryAst, graph: Graph, binding: Optional[dict] = None) -> list[_Step]:
    """Compile the reordered patterns into evaluation steps with filters
    attached at the earliest step that binds their variable. Plans stay valid
    across graph mutations and bindings; only their efficiency can go stale."""
    steps = [_Step(pattern) for pattern in order_patterns(ast.bgp, graph, binding)]
    bound: set[str] = set()
    pending = list(ast.filters)
    for step in steps:
        bound.update(n for n in (step.svar, step.pvar, step.ovar) if n)
        still = []
        for f in pending:
            if f.variable in bound:
                step.filters.append(f)
            else:
                still.append(f)
        pending = still
    return steps


def _solutions(ast: QueryAst, graph: Graph, plan: Optional[list[_Step]] = None,
               initial: Optional[dict] = None) -> Iterator[dict]:
    """Nested-loop join over the compiled steps, from the `initial` binding
    (a query's parameters) on.

    The yielded binding dict is mutated in place as the search backtracks;
    consumers must copy out whatever they need before advancing.
    """
    steps = plan if plan is not None else compile_plan(ast, graph, initial)
    last = len(steps)
    binding: dict = dict(initial or ())
    get = binding.get

    def rec(i: int) -> Iterator[dict]:
        if i == last:
            yield binding
            return
        step = steps[i]
        s = step.s if step.svar is None else get(step.svar)
        p = step.p if step.pvar is None else get(step.pvar)
        o = step.o if step.ovar is None else get(step.ovar)
        free = []
        if step.svar is not None and s is None:
            free.append((0, step.svar))
        if step.pvar is not None and p is None:
            free.append((1, step.pvar))
        if step.ovar is not None and o is None:
            free.append((2, step.ovar))
        for terms in graph.iter_terms(s, p, o):
            added = None
            ok = True
            for slot, name in free:
                term = terms[slot]
                prev = get(name)
                if prev is None:
                    binding[name] = term
                    if added is None:
                        added = [name]
                    else:
                        added.append(name)
                elif prev != term:
                    ok = False
                    break
            if ok:
                for f in step.filters:
                    if not f.matches(binding[f.variable], binding):
                        ok = False
                        break
                if ok:
                    yield from rec(i + 1)
            if added:
                for name in added:
                    del binding[name]

    if last == 0:
        # vacuous pattern: one empty solution (filters cannot reference it)
        return iter(({},))
    return rec(0)


def eval_ask(ast: QueryAst, graph: Graph, plan: Optional[list[_Step]] = None,
             binding: Optional[dict] = None) -> bool:
    """True iff at least one solution, with the parameters `binding` gives,
    satisfies all patterns and filters."""
    if ast.form != ASK:
        raise EvalError(f"eval_ask needs an ASK query, got {ast.form}")
    for _ in _solutions(ast, graph, plan, binding):
        return True
    return False


def eval_select(ast: QueryAst, graph: Graph) -> BindingSet:
    """All solutions, projected and ordered by `Term.sort_key`."""
    if ast.form != SELECT:
        raise EvalError(f"eval_select needs a SELECT query, got {ast.form}")
    variables = tuple(ast.projection if ast.projection is not None else ast.bgp_variables())
    rows = [tuple(sol[name] for name in variables) for sol in _solutions(ast, graph)]
    rows.sort(key=lambda row: tuple(term.sort_key() for term in row))
    return BindingSet(variables, rows)


def _instantiate(pattern: TriplePattern, binding: dict) -> Triple:
    return Triple(*(binding[node.name] if isinstance(node, Var) else node for node in pattern))


def eval_update(ast: QueryAst, graph: Graph) -> UpdateSummary:
    """Apply DELETE/INSERT templates for every WHERE solution.

    All solutions are computed before any mutation, so templates touching
    triples the WHERE clause reads cannot interfere with the match.
    """
    if ast.form != UPDATE:
        raise EvalError(f"eval_update needs an update, got {ast.form}")
    solutions = [dict(sol) for sol in _solutions(ast, graph)]
    deleted = 0
    inserted = 0
    for binding in solutions:
        for pattern in ast.delete_template:
            if graph.remove(_instantiate(pattern, binding)):
                deleted += 1
        for pattern in ast.insert_template:
            if graph.insert(_instantiate(pattern, binding)):
                inserted += 1
    return UpdateSummary(deleted=deleted, inserted=inserted)
