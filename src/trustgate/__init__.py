"""Compliance-enforcement middleware for knowledge-graph data exchange.

Stores graph data, evaluates agreement-driven access policies written in a
small SPARQL subset, maintains behavior/identity/credibility trust scores,
and ships a benchmark harness for latency and score-trajectory experiments.
"""
