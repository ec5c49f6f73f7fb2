import csv
import errno
import gc
import json
import os
import re
import socket
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from trustgate.cli import build_parser, main
from trustgate.middleware import MiddlewareHTTPServer
from trustgate.ontology import bootstrap_vocabulary
from trustgate.store import RDF_NS, SYN_NS, Graph, iri, load_lines, serialize_lines

SRC = str(Path(__file__).resolve().parent.parent / "src")


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

    def test_select_one_variable_lists_every_patient_in_order(self, dataset, tmp_path, capsys):
        query = tmp_path / "q.rq"
        query.write_text("SELECT ?p WHERE { ?p a syn:Patient . }")
        assert main(["query", "--data", str(dataset), "--query", str(query)]) == 0
        graph = Graph()
        with open(dataset) as handle:
            load_lines(graph, handle)
        patient = iri(SYN_NS + "Patient")
        patients = sorted(t.subject.lexical for t in graph if t.object == patient
                          and t.predicate.lexical == RDF_NS + "type")
        assert len(patients) == 20
        assert capsys.readouterr().out.splitlines() == patients

    def test_update_summary(self, dataset, tmp_path, capsys):
        query = tmp_path / "u.rq"
        query.write_text(
            'DELETE { ?u tst:behaviorTrust "1.0"^^xsd:float . }\n'
            'INSERT { ?u tst:behaviorTrust "0.9"^^xsd:float . }\n'
            'WHERE { ?u a tst:User . ?u rdfs:label "physician_105"^^rdf:PlainLiteral . }'
        )
        main(["query", "--data", str(dataset), "--query", str(query)])
        assert capsys.readouterr().out.strip() == "deleted=1 inserted=1"

    def test_query_that_does_not_parse_is_refused(self, dataset, tmp_path, capsys):
        # it ended in a ParseError traceback and exit status 1
        query = tmp_path / "q.rq"
        query.write_text("ASK { ?x ?y }")
        with pytest.raises(SystemExit) as exc:
            main(["query", "--data", str(dataset), "--query", str(query)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "trustgate: error: " in err and "Traceback" not in err


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
    def test_serve_freezes_the_loaded_heap_before_serving(self, dataset, tmp_path, monkeypatch, capsys):
        frozen_at_serve = []

        def serve_forever(server, poll_interval=0.5):
            frozen_at_serve.append(gc.get_freeze_count())
            raise KeyboardInterrupt

        monkeypatch.setattr(MiddlewareHTTPServer, "serve_forever", serve_forever)
        gc.unfreeze()
        try:
            assert main([
                "serve", "--data", str(dataset), "--listen", "127.0.0.1:0",
                "--log", str(tmp_path / "txns.ldjson"),
            ]) == 0
        finally:
            gc.unfreeze()
        assert frozen_at_serve and frozen_at_serve[0] > 0
        graph = Graph()
        bootstrap_vocabulary(graph)
        with open(dataset) as handle:
            load_lines(graph, handle)
        started = re.fullmatch(
            r"listening on http://127\.0\.0\.1:\d+ with (\d+) triples \(loaded in \d+\.\d\d s\)\n",
            capsys.readouterr().err,
        )
        assert started and int(started.group(1)) == len(graph)


    @pytest.mark.parametrize("value", ["-1", "0", "-0.5", "nan", "1e20", "soon"])
    def test_propagate_interval_must_be_a_usable_positive_sleep(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--data", "d", "--propagate-interval", value])
        assert exc.value.code == 2
        assert "--propagate-interval" in capsys.readouterr().err

    def test_propagate_interval_keeps_a_positive_value(self):
        args = build_parser().parse_args(["serve", "--data", "d", "--propagate-interval", "0.25"])
        assert args.propagate_interval == 0.25

    def test_serve_loads_no_http_client_or_tls(self):
        # a node with peers imports urllib.request when it first sends them scores
        code = ("import sys, trustgate.cli; print(sorted({'ssl', 'http.client', 'http.server', "
                "'email.parser', 'urllib.request'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
        assert out == "[]\n"

    @pytest.mark.parametrize("value", [
        "127.0.0.1:http",  # ended in a ValueError traceback
        "127.0.0.1:99999",  # ended in an OverflowError traceback
        "127.0.0.1:-1", "127.0.0.1:", "127.0.0.1", "127.0.0.1:８０",
    ])
    def test_listen_must_be_a_host_and_a_port(self, dataset, monkeypatch, capsys, value):
        served = []
        monkeypatch.setattr(MiddlewareHTTPServer, "serve_forever", served.append)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--data", str(dataset), "--listen", value])
        assert exc.value.code == 2
        assert "trustgate serve: error: argument --listen: must be HOST:PORT" in capsys.readouterr().err
        assert served == []

    @pytest.mark.parametrize("value, address", [
        ("127.0.0.1:0", ("127.0.0.1", 0)),
        ("0.0.0.0:65535", ("0.0.0.0", 65535)),
        (":8080", ("127.0.0.1", 8080)),
    ])
    def test_listen_reads_a_host_and_a_port(self, value, address):
        args = build_parser().parse_args(["serve", "--data", "d", "--listen", value])
        assert args.listen == address

    @pytest.mark.parametrize("option, name, text, message", [
        ("--config", "node.conf", "treshold=0.5\n", "unknown config key: treshold"),
        ("--policy-dir", "policies", '{"id": "requested-data-in-dua"}',
         "requested-data-in-dua: policy id already in use"),
        ("--policy-dir", "policies", '["scope"]',
         "scope.json: the sidecar must be a JSON object, its id a string"),
    ])
    def test_refused_settings_stop_serve_before_it_serves(
        self, dataset, tmp_path, monkeypatch, capsys, option, name, text, message
    ):
        served = []
        monkeypatch.setattr(MiddlewareHTTPServer, "serve_forever", served.append)
        target = tmp_path / name
        if option == "--policy-dir":
            target.mkdir()
            (target / "scope.rq").write_text('ASK{ ?user a tst:User . }')
            (target / "scope.json").write_text(text)
        else:
            target.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--data", str(dataset), "--listen", "127.0.0.1:0", option, str(target)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"trustgate: error: {message}\n")
        assert served == []

    def test_missing_data_file_stops_serve_before_it_serves(self, tmp_path, monkeypatch, capsys):
        served = []
        monkeypatch.setattr(MiddlewareHTTPServer, "serve_forever", served.append)
        missing = tmp_path / "absent.lines"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--data", str(missing), "--listen", "127.0.0.1:0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "trustgate: error: " in err and str(missing) in err
        assert served == []

    def test_address_in_use_stops_serve_before_it_serves(self, dataset, monkeypatch, capsys):
        served = []
        monkeypatch.setattr(MiddlewareHTTPServer, "serve_forever", served.append)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--data", str(dataset), "--listen", f"127.0.0.1:{port}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "trustgate: error: " in err and os.strerror(errno.EADDRINUSE) in err
        assert served == []


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
        graph = Graph()
        bootstrap_vocabulary(graph)
        assert shipped == serialize_lines(graph)
