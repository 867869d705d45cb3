//! The generator is deterministic, quality totals do not depend on the
//! seed, and the output check rejects a corrupted artifact.

use std::sync::Arc;

use paulihedral::parse::parse_program;
use perfbench::check::{check_artifact, decode_artifact};
use perfbench::gen::{Class, Program, Stream, Workload};
use perfbench::load::Report;
use ph_engine::cache::CacheEntry;
use ph_engine::json::Json;
use ph_engine::{persist, proto, Engine, Pipeline, Target};
use qcircuit::Gate;

fn compile(p: &Program, text: &str) -> CacheEntry {
    let ir = parse_program(text).expect("generated text parses");
    let target = Target::parse_spec(p.backend, ir.num_qubits()).expect("valid backend");
    let out = Engine::new(Pipeline::standard(p.scheduler), Target::FaultTolerant)
        .compile_with(&ir, Some(&target), Some(p.scheduler))
        .expect("compiles");
    CacheEntry {
        compiled: out.compiled,
        report: out.report,
    }
}

/// The entry as the wire carries it: a report with a hex artifact.
fn wire(entry: &CacheEntry) -> Report {
    Report {
        id: 0,
        ok: true,
        cache_hit: true,
        key: String::new(),
        counts: [0; 4],
        wall_ms: 0.0,
        queue_wait_ms: 0.0,
        artifact: Some(proto::hex_encode(&persist::encode_entry(entry))),
        error: None,
    }
}

fn counts(entry: &CacheEntry) -> [u64; 4] {
    let s = entry.compiled.circuit.mapped_stats();
    [s.cnot, s.single, s.total, s.depth].map(|c| c as u64)
}

#[test]
fn same_seed_gives_a_byte_identical_request_stream() {
    for w in [Workload::Table1, Workload::Kernels] {
        let programs = w.programs();
        let a = Stream::generate(w, &programs, 7).encode(&programs);
        let b = Stream::generate(w, &programs, 7).encode(&programs);
        let c = Stream::generate(w, &programs, 8).encode(&programs);
        assert_eq!(a, b, "{w:?}: same seed, same bytes");
        assert_ne!(a, c, "{w:?}: another seed, other parameters");
    }
}

#[test]
fn kernels_rounds_keep_their_mix() {
    let programs = Workload::Kernels.programs();
    let s = Stream::generate(Workload::Kernels, &programs, 3);
    for round in &s.rounds {
        let misses = round
            .iter()
            .flatten()
            .filter(|&&i| s.reqs[i].class == Class::Miss)
            .count();
        assert_eq!((misses, round.len()), (2, 10), "two misses in every ten");
    }
    for r in &s.reqs {
        match (r.class, r.resend) {
            (Class::Miss, None) => assert!(r.text >= programs.len(), "a miss sends a variant"),
            (Class::Hit, resend) => {
                assert_eq!(r.text, r.program, "a hit repeats its base text");
                if let Some(j) = resend {
                    assert_eq!((s.reqs[j].class, s.reqs[j].text), (Class::Hit, r.text));
                }
            }
            (Class::Miss, Some(_)) => panic!("a miss never resends"),
        }
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_result_line_carries() {
    let json = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
    let names = |key: &str| -> Vec<String> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("a metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(names("end_to_end"), perfbench::END_TO_END);
    assert_eq!(names("per_layer"), perfbench::PER_LAYER);
}

#[test]
fn scale_repeats_resend_their_miss_line() {
    let programs = Workload::Scale.programs();
    let s = Stream::generate(Workload::Scale, &programs, 5);
    let e = s.encode(&programs);
    for (i, r) in s.reqs.iter().enumerate() {
        match r.class {
            Class::Miss => assert_eq!(r.resend, None),
            Class::Hit => {
                let j = r.resend.expect("a repeat resends its miss");
                assert_eq!((s.reqs[j].class, s.reqs[j].text), (Class::Miss, r.text));
                assert!(Arc::ptr_eq(&e.lines[i], &e.lines[j]));
                assert_eq!(e.ids[i], e.ids[j]);
            }
        }
    }
}

#[test]
fn different_seeds_give_identical_quality_totals() {
    // The run sums each program's first timed fresh-parameter variant, so
    // compile exactly those texts: the seed changes every parameter, and
    // the totals must not move.
    let programs = Workload::Kernels.programs();
    let first_variants = |seed: u64| -> Vec<String> {
        let s = Stream::generate(Workload::Kernels, &programs, seed);
        (0..programs.len())
            .map(|p| {
                let r = s
                    .reqs
                    .iter()
                    .find(|r| r.program == p && r.class == Class::Miss)
                    .expect("every program has a fresh-parameter variant");
                s.texts[r.text].clone()
            })
            .collect()
    };
    let totals = |texts: &[String]| -> [u64; 4] {
        let mut t = [0u64; 4];
        for (p, text) in programs.iter().zip(texts) {
            for (acc, c) in t.iter_mut().zip(counts(&compile(p, text))) {
                *acc += c;
            }
        }
        t
    };
    let (a, b) = (first_variants(1), first_variants(2));
    for ((x, y), p) in a.iter().zip(&b).zip(&programs) {
        assert_ne!(x, y, "{}: another seed, other parameters", p.label);
        assert_ne!(x, &p.text, "{}: a variant is not the base text", p.label);
    }
    assert_eq!(totals(&a), totals(&b));
}

#[test]
fn artifact_with_one_corrupted_gate_is_rejected() {
    let programs = Workload::Kernels.programs();
    let small: Vec<&Program> = programs
        .iter()
        .filter(|p| p.label == "UCCSD-8@linear:8" || p.label == "Heisen-8@ft")
        .collect();
    assert_eq!(small.len(), 2);
    for p in small {
        let entry = compile(p, &p.text);
        let good = decode_artifact(&wire(&entry)).expect("decodes");
        assert_eq!(
            check_artifact(p, &p.text, &good, counts(&entry)),
            Ok(true),
            "{}: the intact artifact passes, dense check included",
            p.label
        );

        // Nudge one rotation angle: every count stays the same, so only
        // the dense check can see it.
        let mut gates = entry.compiled.circuit.gates().to_vec();
        let i = gates
            .iter()
            .position(|g| matches!(g, Gate::Rz(..)))
            .expect("has a rotation");
        if let Gate::Rz(q, theta) = gates[i] {
            gates[i] = Gate::Rz(q, theta + 0.25);
        }
        let mut compiled = (*entry.compiled).clone();
        compiled.circuit.set_gates(gates);
        let bad = CacheEntry {
            compiled: Arc::new(compiled),
            report: entry.report.clone(),
        };
        let decoded = decode_artifact(&wire(&bad)).expect("still a valid encoding");
        assert!(
            check_artifact(p, &p.text, &decoded, counts(&entry)).is_err(),
            "{}: a corrupted gate must be rejected",
            p.label
        );
    }
}

#[test]
fn variant_artifact_is_checked_against_the_text_that_was_sent() {
    let programs = Workload::Kernels.programs();
    let s = Stream::generate(Workload::Kernels, &programs, 11);
    let r = s
        .reqs
        .iter()
        .find(|r| r.class == Class::Miss)
        .expect("the stream has variants");
    let (p, text) = (&programs[r.program], &s.texts[r.text]);
    let entry = compile(p, text);
    let decoded = decode_artifact(&wire(&entry)).expect("decodes");
    assert!(check_artifact(p, text, &decoded, counts(&entry)).is_ok());
    // Same strings and counts, other angles: the base text's parameters
    // must not pass for the variant's artifact.
    assert!(check_artifact(p, &p.text, &decoded, counts(&entry)).is_err());
}
