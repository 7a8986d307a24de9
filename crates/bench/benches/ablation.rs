//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **combiner** — how attribute/value similarities merge into one cell
//!   (Product vs means vs Min);
//! * **caching** — the memoized vs uncached thematic measure (the paper's
//!   §5.3.2 "caching" optimization opportunity);
//! * **raw vs normalized** distance (DESIGN.md §5: Eq. 5 verbatim vs the
//!   unit-norm variant the measure uses), and the dense-row Gram kernel
//!   the thematic hot path scores normalized pairs with (DESIGN.md §10).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use tep::prelude::*;
use tep_eval::{EvalConfig, MatcherStack, Workload};

fn bench_ablation(c: &mut Criterion) {
    let cfg = EvalConfig::tiny();
    let stack = MatcherStack::build(&cfg);
    let workload = Workload::generate(&cfg);
    let th = Thesaurus::eurovoc_like();
    let tags: Vec<String> = Domain::ALL
        .iter()
        .map(|d| th.top_terms(*d)[0].as_str().to_string())
        .collect();
    let sub = workload.subscriptions()[0].with_theme_tags(tags.clone());
    let events: Vec<Event> = workload
        .events()
        .iter()
        .take(32)
        .map(|e| e.with_theme_tags(tags.clone()))
        .collect();

    let mut group = c.benchmark_group("combiner");
    group.sample_size(20);
    for (name, combiner) in [
        ("product", Combiner::Product),
        ("arith_mean", Combiner::ArithmeticMean),
        ("geo_mean", Combiner::GeometricMean),
        ("min", Combiner::Min),
    ] {
        let matcher = ProbabilisticMatcher::new(
            ThematicEsaMeasure::new(Arc::clone(stack.pvsm())),
            MatcherConfig::top1().with_combiner(combiner),
        );
        group.bench_function(BenchmarkId::new("combiner", name), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for e in &events {
                    acc += matcher.match_event(&sub, e).score();
                }
                acc
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("measure_caching");
    group.sample_size(10);
    let theme = Theme::new(tags.iter().map(|s| s.as_str()));
    let pairs: Vec<(&str, &str)> = vec![
        ("energy consumption", "electricity usage"),
        ("laptop", "computer"),
        ("parking", "garage spot"),
        ("room 112", "chamber 112"),
    ];
    group.bench_function("uncached_projection", |b| {
        b.iter(|| {
            stack.pvsm().clear_caches();
            let mut acc = 0.0;
            for (a, x) in &pairs {
                acc += stack.pvsm().relatedness(a, &theme, x, &theme);
            }
            acc
        })
    });
    group.bench_function("cached_projection", |b| {
        // Warm once, then measure pure cache hits.
        for (a, x) in &pairs {
            stack.pvsm().relatedness(a, &theme, x, &theme);
        }
        b.iter(|| {
            let mut acc = 0.0;
            for (a, x) in &pairs {
                acc += stack.pvsm().relatedness(a, &theme, x, &theme);
            }
            acc
        })
    });
    group.finish();

    let mut group = c.benchmark_group("distance_variant");
    group.sample_size(50);
    let va = stack.space().term_vector("energy consumption");
    let vb = stack.space().term_vector("electricity usage");
    let na = va.normalized();
    let nb = vb.normalized();
    group.bench_function("raw_eq5", |b| b.iter(|| va.euclidean_distance(&vb)));
    group.bench_function("normalized", |b| b.iter(|| na.euclidean_distance(&nb)));
    // The subscription side scattered once into a dense row (a slot hit),
    // the event side gathered per call.
    let mut row = vec![0.0f32; stack.space().index().num_docs()];
    na.scatter(&mut row);
    let na_norm_squared = na.norm_squared();
    group.bench_function("row_gram", |b| {
        b.iter(|| nb.gram_distance_to_row(&row, na_norm_squared))
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
