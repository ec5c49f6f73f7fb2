"""Pattern matching over a `Graph` by its `iter_terms` index access, with
results in canonical order, for assertions that compare whole triple lists."""

from trustgate.store import Term, Triple, TriplePattern, Var


def match(graph, pattern: TriplePattern) -> list[Triple]:
    """Triples unifying with the pattern, sorted by `Triple.sort_key`.

    Variables are wildcards; a variable repeated within the pattern must
    bind the same term.
    """
    out = []
    for terms in graph.iter_terms(*(node if isinstance(node, Term) else None for node in pattern)):
        bound = {}
        if all(bound.setdefault(node.name, term) == term
               for node, term in zip(pattern, terms) if isinstance(node, Var)):
            out.append(Triple(*terms))
    return sorted(out, key=Triple.sort_key)
