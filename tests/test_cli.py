import csv
import gc
import json
from importlib import resources

import pytest

from trustgate.cli import main
from trustgate.middleware import MiddlewareHTTPServer
from trustgate.ontology import vocabulary_text
from trustgate.store import Graph, SYN_NS, load_lines


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.lines"
    assert main(["gen", "--seed", "11", "--patients", "20", "-o", str(path)]) == 0
    return path


class TestGen:
    def test_gen_writes_loadable_dataset(self, dataset):
        graph = Graph()
        with open(dataset) as handle:
            count = load_lines(graph, handle)
        assert count == len(graph) > 0

    def test_gen_to_stdout(self, capsys):
        assert main(["gen", "--seed", "1", "--patients", "2", "-o", "-"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith(".")

    def test_gen_deterministic(self, tmp_path):
        a = tmp_path / "a.lines"
        b = tmp_path / "b.lines"
        main(["gen", "--seed", "5", "--patients", "10", "-o", str(a)])
        main(["gen", "--seed", "5", "--patients", "10", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_strip_properties_flag(self, tmp_path):
        path = tmp_path / "stripped.lines"
        main([
            "gen", "--seed", "5", "--patients", "10",
            "--strip-properties", SYN_NS + "Observation", "-o", str(path),
        ])
        assert "observationValue" not in path.read_text()


class TestQuery:
    def test_ask_true(self, dataset, tmp_path, capsys):
        query = tmp_path / "q.rq"
        query.write_text("ASK{ ?p a syn:Patient . }")
        assert main(["query", "--data", str(dataset), "--query", str(query)]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_ask_false(self, dataset, tmp_path, capsys):
        query = tmp_path / "q.rq"
        query.write_text("ASK{ ?p a syn:Symptom . }")
        main(["query", "--data", str(dataset), "--query", str(query)])
        assert capsys.readouterr().out.strip() == "false"

    def test_select_rows_tab_separated(self, dataset, tmp_path, capsys):
        query = tmp_path / "q.rq"
        query.write_text('SELECT ?u ?org WHERE { ?u syn:isAffiliatedWith ?org . }')
        main(["query", "--data", str(dataset), "--query", str(query)])
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 100
        assert all("\t" in row for row in rows)

    def test_update_summary(self, dataset, tmp_path, capsys):
        query = tmp_path / "u.rq"
        query.write_text(
            'DELETE { ?u tst:behaviorTrust "1.0"^^xsd:float . }\n'
            'INSERT { ?u tst:behaviorTrust "0.9"^^xsd:float . }\n'
            'WHERE { ?u a tst:User . ?u rdfs:label "physician_105"^^rdf:PlainLiteral . }'
        )
        main(["query", "--data", str(dataset), "--query", str(query)])
        assert capsys.readouterr().out.strip() == "deleted=1 inserted=1"


class TestValidate:
    def test_clean_dataset(self, dataset, capsys):
        assert main(["validate", "--data", str(dataset)]) == 0
        assert capsys.readouterr().out.strip() == "violations=0"

    def test_planted_defect(self, dataset, capsys):
        with open(dataset, "a") as handle:
            handle.write(
                f'<{SYN_NS}user_001> <{SYN_NS}isAffiliatedWith> <{SYN_NS}org_02> .\n'
            )
        assert main(["validate", "--data", str(dataset)]) == 1
        out = capsys.readouterr().out
        assert "user-affiliation" in out


class TestTrustShow:
    def test_show_prints_record(self, dataset, capsys):
        assert main(["trust", "show", SYN_NS + "user_001", "--data", str(dataset)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["scores"] == {"identity": "1.0", "behavior": "1.0"}


class TestServe:
    def test_serve_freezes_the_loaded_heap_before_serving(self, dataset, tmp_path, monkeypatch):
        frozen_at_serve = []

        def serve_forever(server, poll_interval=0.5):
            frozen_at_serve.append(gc.get_freeze_count())
            raise KeyboardInterrupt

        monkeypatch.setattr(MiddlewareHTTPServer, "serve_forever", serve_forever)
        monkeypatch.setattr(MiddlewareHTTPServer, "shutdown", lambda server: None)
        gc.unfreeze()
        try:
            assert main([
                "serve", "--data", str(dataset), "--listen", "127.0.0.1:0",
                "--log", str(tmp_path / "txns.ldjson"),
            ]) == 0
        finally:
            gc.unfreeze()
        assert frozen_at_serve and frozen_at_serve[0] > 0


class TestBenchCli:
    def test_latency_csv(self, tmp_path, capsys):
        out = tmp_path / "latency.csv"
        assert main([
            "bench", "latency", "--sizes", "30,60", "--txns", "5",
            "--seed", "2", "-o", str(out),
        ]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["stage", "metric", "30", "60"]

    def test_trajectory_json(self, tmp_path):
        out = tmp_path / "traj.json"
        assert main([
            "bench", "trajectory", "--prob", "1.0", "--runs", "1",
            "--seed", "2", "--scenario", "user-with-dua-violations",
            "--format", "json", "-o", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        runs = payload["scenarios"]["user-with-dua-violations"]
        assert runs[0]["transactionsToZero"] == 100

    def test_size_suffix_parsing(self):
        from trustgate.cli import _parse_sizes

        assert _parse_sizes("1k,10k,100k") == [1000, 10000, 100000]
        assert _parse_sizes("1m") == [1_000_000]
        assert _parse_sizes("250") == [250]


class TestVocabularyFile:
    def test_shipped_file_matches_bootstrap(self):
        shipped = resources.files("trustgate").joinpath("data/vocabulary.lines").read_text()
        assert shipped == vocabulary_text()
