import pytest

from trustgate import ontology as vocab
from trustgate.ontology import bootstrap_vocabulary, read_dua, validate_instances
from trustgate.query import eval_select, parse
from trustgate.store import Graph, SYN_NS, TriplePattern, Var, iri, serialize_lines
from trustgate.synth import (
    GeneratorSpec,
    SynthError,
    demographics_manifest,
    generate_dataset,
    generate_demographics,
    generate_patients,
    strip_category,
    strip_properties,
)

from graph_match import match


class TestSpec:
    def test_count_ordering_enforced(self):
        with pytest.raises(SynthError):
            GeneratorSpec(dua_count=11)
        with pytest.raises(SynthError):
            GeneratorSpec(public_health_dua_count=5)

    def test_defaults_match_experiment_demographics(self):
        spec = GeneratorSpec()
        assert (spec.org_count, spec.user_count, spec.dua_count) == (10, 100, 7)
        assert (spec.patient_dua_count, spec.public_health_dua_count) == (4, 2)


class TestDemographics:
    def test_exact_counts(self):
        spec = GeneratorSpec(seed=11)
        g = generate_demographics(spec)
        manifest = demographics_manifest(spec)
        orgs = match(g, TriplePattern(Var("o"), vocab.RDF_TYPE, vocab.SYN_ORGANIZATION))
        assert len(orgs) == 11  # ten recipients plus the custodian
        users = match(g, TriplePattern(Var("u"), vocab.RDF_TYPE, vocab.TST_USER))
        assert len(users) == 100
        duas = match(g, TriplePattern(Var("d"), vocab.RDF_TYPE, vocab.DUA_CLASS))
        assert len(duas) == 7
        recipients = match(
            g, TriplePattern(Var("d"), vocab.HAS_RECIPIENT, Var("org"))
        )
        assert len(recipients) == 7
        patient_duas = [
            org for org in manifest.orgs if SYN_NS + "Patient" in org.categories
        ]
        assert len(patient_duas) == 4
        ph = [
            org
            for org in patient_duas
            if vocab.PUBLIC_HEALTH.lexical in org.purposes
        ]
        assert len(ph) == 2

    def test_custodian_matches_seven_duas(self):
        g = generate_demographics(GeneratorSpec(seed=11))
        got = eval_select(
            parse("SELECT ?d WHERE { ?d dua:hasDataCustodian syn:org_custodian . }"), g
        )
        assert len(got) == 7

    def test_validates_clean(self):
        g = Graph()
        bootstrap_vocabulary(g)
        generate_demographics(GeneratorSpec(seed=11), into=g)
        assert validate_instances(g).ok()

    def test_named_users_present_and_placed(self):
        manifest = demographics_manifest(GeneratorSpec(seed=11))
        by_label = {u.label: u for u in manifest.users}
        assert by_label["physician_105"].org_iri == SYN_NS + "org_01"
        assert by_label["nurse_207"].org_iri == SYN_NS + "org_02"
        assert by_label["nurse_629"].org_iri == SYN_NS + "org_03"
        assert by_label["research_scientist_731"].org_iri == SYN_NS + "org_04"
        labels = [u.label for u in manifest.users]
        assert len(labels) == len(set(labels))

    def test_labels_unique_past_the_named_users_numbers(self):
        # policies find a user by label; from 731 users on, every named
        # user's number is also given to a generated user
        manifest = demographics_manifest(GeneratorSpec(seed=11, user_count=1000))
        labels = [u.label for u in manifest.users]
        assert len(labels) == len(set(labels))

    def test_first_dua_grants_patient_for_public_health(self):
        spec = GeneratorSpec(seed=11)
        g = generate_demographics(spec)
        manifest = demographics_manifest(spec)
        record = read_dua(g, manifest.orgs[0].dua_iri)
        assert SYN_NS + "Patient" in record.requested_data
        assert vocab.PUBLIC_HEALTH.lexical in record.permitted_use

    def test_last_dua_requests_missing_category(self):
        manifest = demographics_manifest(GeneratorSpec(seed=11))
        last = manifest.orgs[6]
        assert last.categories == (SYN_NS + "Symptom",)
        assert not set(last.categories) & set(manifest.inventory)

    def test_clean_requests_exclude_missing_category_org(self):
        manifest = demographics_manifest(GeneratorSpec(seed=11))
        orgs = {manifest.org(u.org_iri).dua_iri for u, _, _ in manifest.clean_requests()}
        assert manifest.orgs[6].dua_iri not in orgs
        assert len(manifest.clean_requests()) > 0


class TestPatients:
    def test_patient_count_oracle(self):
        g = generate_patients(GeneratorSpec(seed=1, patient_count=250))
        got = eval_select(parse("SELECT ?p WHERE { ?p a syn:Patient . }"), g)
        assert len(got) == 250

    def test_one_triple_per_facet(self):
        g = generate_patients(GeneratorSpec(seed=1, patient_count=10))
        patients = list(g.subjects_for(vocab.RDF_TYPE, vocab.SYN_PATIENT))
        for patient in patients:
            for prop in vocab.PATIENT_FACETS:
                assert len(g.objects_for(patient, prop)) == 1

    def test_encounters_and_observations_one_per_patient(self):
        g = generate_patients(GeneratorSpec(seed=1, patient_count=40))
        encounters = match(g, TriplePattern(Var("e"), vocab.RDF_TYPE, vocab.SYN_ENCOUNTER))
        observations = match(g, TriplePattern(Var("o"), vocab.RDF_TYPE, vocab.SYN_OBSERVATION))
        assert len(encounters) == 40
        assert len(observations) == 40

    def test_determinism_same_seed(self):
        a = serialize_lines(generate_patients(GeneratorSpec(seed=1, patient_count=50)))
        b = serialize_lines(generate_patients(GeneratorSpec(seed=1, patient_count=50)))
        assert a == b

    def test_seed_sensitivity(self):
        a = serialize_lines(generate_patients(GeneratorSpec(seed=1, patient_count=50)))
        b = serialize_lines(generate_patients(GeneratorSpec(seed=2, patient_count=50)))
        assert a != b
        ga = Graph()
        gb = Graph()
        from trustgate.store import load_lines

        load_lines(ga, a)
        load_lines(gb, b)
        count = lambda g: len(match(g, TriplePattern(Var("p"), vocab.RDF_TYPE, vocab.SYN_PATIENT)))
        assert count(ga) == count(gb) == 50

    def test_roundtrip_through_line_format_at_1k(self):
        from trustgate.store import load_lines

        g = generate_dataset(GeneratorSpec(seed=3, patient_count=1000))
        text = serialize_lines(g)
        g2 = Graph()
        load_lines(g2, text)
        assert g2.triples() == g.triples()
        assert serialize_lines(g2) == text

    def test_full_dataset_validates_clean(self):
        g = Graph()
        bootstrap_vocabulary(g)
        generate_dataset(GeneratorSpec(seed=5, patient_count=100), into=g)
        assert validate_instances(g).ok()


class TestStripping:
    def test_strip_category_removes_inventory_and_instances(self):
        spec = GeneratorSpec(seed=7, patient_count=20)
        g = generate_dataset(spec)
        manifest = demographics_manifest(spec)
        removed = strip_category(g, SYN_NS + "Encounter", manifest.custodian_iri)
        assert removed > 0
        assert (
            match(
                g, TriplePattern(
                    iri(manifest.custodian_iri), vocab.HAS_DATA_CATEGORY, vocab.SYN_ENCOUNTER
                )
            )
            == []
        )
        assert match(g, TriplePattern(Var("e"), vocab.RDF_TYPE, vocab.SYN_ENCOUNTER)) == []

    def test_strip_properties_keeps_instances(self):
        spec = GeneratorSpec(seed=7, patient_count=20)
        g = generate_dataset(spec, strip_property_categories=[SYN_NS + "Observation"])
        observations = match(g, TriplePattern(Var("o"), vocab.RDF_TYPE, vocab.SYN_OBSERVATION))
        assert len(observations) == 20
        for t in observations:
            assert len(g.objects_for(t.subject, vocab.OBSERVATION_VALUE)) == 0

    def test_aligned_corpora_same_seed(self):
        spec = GeneratorSpec(seed=9, patient_count=15)
        complete = generate_dataset(spec)
        stripped = generate_dataset(spec, strip_property_categories=[SYN_NS + "Observation"])
        missing = set(complete.triples()) - set(stripped.triples())
        assert all(t.predicate == vocab.OBSERVATION_VALUE for t in missing)
        assert len(missing) == 15
