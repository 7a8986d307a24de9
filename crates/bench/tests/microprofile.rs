//! Manual micro-profiling aid for the seed_thematic_broadcast hot path.
//!
//! Ignored by default; run with
//! `cargo test --release -p tep-bench --test microprofile -- --ignored --nocapture`
//! to print a per-component cost breakdown of one thematic match test.

use std::time::Instant;
use tep::prelude::*;
use tep::semantics::{intern_term, theme_for_tags};
use tep_eval::{EvalConfig, MatcherStack, Workload};

#[test]
#[ignore = "manual profiling aid, run with --ignored --nocapture"]
fn thematic_match_cost_breakdown() {
    let cfg = EvalConfig::tiny();
    let stack = MatcherStack::build(&cfg);
    let workload = Workload::generate(&cfg);
    let th = Thesaurus::eurovoc_like();
    let domain_tags: Vec<String> = Domain::ALL
        .iter()
        .map(|d| th.top_terms(*d)[0].as_str().to_string())
        .collect();
    let events: Vec<Event> = workload
        .events()
        .iter()
        .take(128)
        .map(|e| e.with_theme_tags(domain_tags.clone()))
        .collect();
    let subs: Vec<Subscription> = workload
        .subscriptions()
        .iter()
        .take(8)
        .map(|s| s.with_theme_tags(domain_tags.clone()))
        .collect();
    let matcher = stack.thematic_cached();

    // Warm every cache exactly like a bench round does.
    for s in &subs {
        matcher.prepare_subscription(s);
        for e in &events {
            let _ = matcher.match_event(s, e);
        }
    }

    let tests = subs.len() * events.len();
    let rounds = 8;

    let start = Instant::now();
    let mut matched = 0usize;
    for _ in 0..rounds {
        for s in &subs {
            for e in &events {
                if !matcher.match_event(s, e).is_empty() {
                    matched += 1;
                }
            }
        }
    }
    let full = start.elapsed();
    println!(
        "match_event       {:>8.0} ns/test   ({} tests, {} matched)",
        full.as_nanos() as f64 / (tests * rounds) as f64,
        tests * rounds,
        matched
    );

    let (n, m) = (subs[0].predicates().len(), events[0].tuples().len());
    println!("shape             {n} predicates x {m} tuples");
    let mut pred_terms = std::collections::HashSet::new();
    let mut tuple_terms = std::collections::HashSet::new();
    for s in &subs {
        for p in s.predicates() {
            pred_terms.insert(p.attribute().to_string());
            pred_terms.insert(p.value().to_string());
        }
    }
    for e in &events {
        for t in e.tuples() {
            tuple_terms.insert(t.attribute().to_string());
            tuple_terms.insert(t.value().to_string());
        }
    }
    println!(
        "vocab             {} pred terms x {} tuple terms (≤ {} measure keys)",
        pred_terms.len(),
        tuple_terms.len(),
        pred_terms.len() * tuple_terms.len()
    );

    let start = Instant::now();
    for _ in 0..rounds {
        for s in &subs {
            for e in &events {
                std::hint::black_box(matcher.similarity_matrix(s, e));
            }
        }
    }
    let matrix = start.elapsed();
    println!(
        "similarity_matrix {:>8.0} ns/test   (allocating unpruned build)",
        matrix.as_nanos() as f64 / (tests * rounds) as f64
    );

    {
        use tep::semantics::SemanticMeasure;
        let measure = matcher.measure();
        let ths = theme_for_tags(subs[0].theme_tags());
        let the = theme_for_tags(events[0].theme_tags());
        let pred_ids: Vec<_> = pred_terms.iter().map(|t| intern_term(t)).collect();
        let tuple_ids: Vec<_> = tuple_terms.iter().map(|t| intern_term(t)).collect();
        let probes = pred_ids.len() * tuple_ids.len();
        for &p in &pred_ids {
            for &t in &tuple_ids {
                std::hint::black_box(measure.relatedness_ids(p, ths, t, the));
            }
        }
        let start = Instant::now();
        let mut acc = 0.0;
        for _ in 0..4 {
            for &p in &pred_ids {
                for &t in &tuple_ids {
                    acc += measure.relatedness_ids(p, ths, t, the);
                }
            }
        }
        let rel = start.elapsed();
        println!(
            "relatedness_ids   {:>8.0} ns/call   ({} probes, acc={acc:.1})",
            rel.as_nanos() as f64 / (probes * 4) as f64,
            probes * 4
        );
    }

    {
        // Per-pair kernel cost over the same probe set: the sorted Eq. 5
        // merge against the dense-row Gram gather the PVSM hot path runs
        // (one scatter per subscription term, as a slot miss pays).
        let pvsm = stack.pvsm();
        let ths = theme_for_tags(subs[0].theme_tags());
        let the = theme_for_tags(events[0].theme_tags());
        let project = |terms: &std::collections::HashSet<String>, theme| {
            terms
                .iter()
                .map(|t| pvsm.project_normalized_ids(intern_term(t), theme))
                .filter(|v| !v.is_zero())
                .collect::<Vec<_>>()
        };
        let (pred_vecs, tuple_vecs) = (project(&pred_terms, ths), project(&tuple_terms, the));
        let pairs = (pred_vecs.len() * tuple_vecs.len()).max(1) * 4;
        let start = Instant::now();
        let mut acc = 0.0;
        for _ in 0..4 {
            for vs in &pred_vecs {
                for ve in &tuple_vecs {
                    acc += vs.euclidean_distance(ve);
                }
            }
        }
        let merge = start.elapsed();
        let mut row = vec![0.0f32; pvsm.space().index().num_docs()];
        let start = Instant::now();
        for _ in 0..4 {
            for vs in &pred_vecs {
                vs.scatter(&mut row);
                let norm_squared = vs.norm_squared();
                for ve in &tuple_vecs {
                    acc += ve.gram_distance_to_row(&row, norm_squared);
                }
                vs.unscatter(&mut row);
            }
        }
        let gather = start.elapsed();
        println!(
            "kernel merge/row  {:>5.0} / {:<5.0} ns/pair ({pairs} pairs, acc={acc:.1})",
            merge.as_nanos() as f64 / pairs as f64,
            gather.as_nanos() as f64 / pairs as f64,
        );
    }

    let start = Instant::now();
    for _ in 0..rounds {
        for s in &subs {
            for e in &events {
                std::hint::black_box(theme_for_tags(s.theme_tags()));
                std::hint::black_box(theme_for_tags(e.theme_tags()));
            }
        }
    }
    let themes = start.elapsed();
    println!(
        "theme_for_tags x2 {:>8.0} ns/test",
        themes.as_nanos() as f64 / (tests * rounds) as f64
    );

    let start = Instant::now();
    for _ in 0..rounds {
        for s in &subs {
            for e in &events {
                for p in s.predicates() {
                    std::hint::black_box(intern_term(p.attribute()));
                    std::hint::black_box(intern_term(p.value()));
                }
                for t in e.tuples() {
                    std::hint::black_box(intern_term(t.attribute()));
                    std::hint::black_box(intern_term(t.value()));
                }
            }
        }
    }
    let interning = start.elapsed();
    println!(
        "interning         {:>8.0} ns/test",
        interning.as_nanos() as f64 / (tests * rounds) as f64
    );

    let start = Instant::now();
    for _ in 0..rounds {
        for s in &subs {
            for e in &events {
                std::hint::black_box(matcher.cache_miss_count());
                let _ = (s, e);
            }
        }
    }
    let miss = start.elapsed();
    println!(
        "cache_miss_count  {:>8.0} ns/test",
        miss.as_nanos() as f64 / (tests * rounds) as f64
    );
}
