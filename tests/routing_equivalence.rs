//! Property test for theme-indexed routing: under
//! `RoutingPolicy::ThemeOverlap`, dispatch through the broker's routing
//! table must deliver exactly the notification set of brute-force
//! dispatch applying the same theme-overlap gate — routing may skip work,
//! never a match. Theme-less subscriptions opt out of routing and must
//! stay broadcast. The aggregation property also runs with the explain
//! ring and the quality sampler installed, which turn covering off and
//! must see every tested (event, candidate subscriber) pair.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use tep::prelude::*;

const TAG_POOL: [&str; 4] = ["power", "transport", "water", "networking"];

/// The attribute/value pools for the aggregation property: deliberately
/// tiny so random populations are full of duplicate predicate sets,
/// permuted orders, and exact-subset (covering) pairs. Attributes are
/// unique per subscription/event (the builders enforce it); a value
/// mismatch on a shared attribute is a miss.
const ATTR_POOL: [&str; 3] = ["a", "b", "c"];
const VALUE_POOL: [&str; 2] = ["x", "y"];

/// A random subset of the tag pool (possibly empty = theme-less side).
fn tag_set() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::btree_set(0usize..TAG_POOL.len(), 0..=3)
        .prop_map(|s| s.into_iter().map(|i| TAG_POOL[i].to_string()).collect())
}

/// A random non-empty attribute→value assignment over the pools, in
/// either ascending or descending attribute order so duplicate sets also
/// exercise the per-member predicate-order permutations.
fn pair_set(min: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    (
        proptest::collection::btree_set(0usize..ATTR_POOL.len(), min..=3),
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(|(attrs, value_bits, rev)| {
            let mut v: Vec<(usize, usize)> = attrs
                .into_iter()
                .map(|a| (a, usize::from(value_bits >> a & 1) % VALUE_POOL.len()))
                .collect();
            if rev {
                v.reverse();
            }
            v
        })
}

/// Whether exact conjunctive matching accepts the pair: every predicate
/// pair is present among the event tuples.
fn exact_match(s: &Subscription, e: &Event) -> bool {
    s.predicates().iter().all(|p| {
        e.tuples()
            .iter()
            .any(|t| t.attribute() == p.attribute() && t.value() == p.value())
    })
}

/// Ground truth for the quality sampler: exact conjunctive matching.
struct ExactOracle;

impl QualityOracle for ExactOracle {
    fn judge(&self, s: &Subscription, e: &Event) -> Option<bool> {
        Some(exact_match(s, e))
    }
}

proptest! {
    #[test]
    fn theme_routing_equals_brute_force_dispatch(
        sub_tags in proptest::collection::vec(tag_set(), 1..6),
        event_tags in proptest::collection::vec(tag_set(), 1..8),
    ) {
        // Every subscription's predicate matches every event, so which
        // notifications arrive is decided purely by the routing gate.
        let broker = Broker::start(
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default()
                .with_workers(1)
                .with_routing_policy(RoutingPolicy::ThemeOverlap),
        );
        let mut subs = Vec::new();
        for tags in &sub_tags {
            let s = Subscription::builder()
                .theme_tags(tags.iter().map(String::as_str))
                .predicate_exact("k", "v")
                .build()
                .unwrap();
            let (id, rx) = broker.subscribe(s.clone()).unwrap();
            subs.push((id, s, rx));
        }
        let mut events = Vec::new();
        for (i, tags) in event_tags.iter().enumerate() {
            let e = Event::builder()
                .theme_tags(tags.iter().map(String::as_str))
                .tuple("k", "v")
                .tuple("seq", &format!("n{i}"))
                .build()
                .unwrap();
            broker.publish(e.clone()).unwrap();
            events.push(e);
        }
        broker.flush().unwrap();

        // Brute force over all pairs: theme-less subscriptions receive
        // everything (broadcast opt-out); themed ones need a shared tag.
        let mut expected = BTreeSet::new();
        for (id, s, _) in &subs {
            for (i, e) in events.iter().enumerate() {
                if s.theme_tags().is_empty() || s.shares_theme_with(e) {
                    expected.insert((id.0, i));
                }
            }
        }

        let mut delivered = BTreeSet::new();
        for (id, _, rx) in &subs {
            while let Ok(n) = rx.try_recv() {
                let seq = n.event.value_of("seq").expect("seq tuple");
                let i: usize = seq[1..].parse().expect("seq number");
                delivered.insert((id.0, i));
            }
        }
        prop_assert_eq!(
            &delivered,
            &expected,
            "routed dispatch must deliver exactly the brute-force gate's set"
        );
        broker.shutdown();
    }

    /// The subscription index aggregates duplicate subscriptions onto
    /// shared entries and prunes/short-circuits through covering edges;
    /// none of that may change *what* is delivered. This drives a
    /// randomized population over a deliberately tiny predicate pool —
    /// so duplicate subscriptions, permuted predicate orders, and
    /// exact-subset (covering) pairs all occur constantly — and checks
    /// index dispatch against brute force over all pairs under both
    /// routing policies, with and without the diagnostic side-channels.
    #[test]
    fn index_dispatch_equals_brute_force_over_duplicates_and_subsets(
        sub_specs in proptest::collection::vec((tag_set(), pair_set(1)), 1..12),
        event_specs in proptest::collection::vec((tag_set(), pair_set(0)), 1..8),
    ) {
        let policies = [RoutingPolicy::Broadcast, RoutingPolicy::ThemeOverlap];
        for (policy, diagnostic) in policies.into_iter().flat_map(|p| [(p, false), (p, true)]) {
            let config = BrokerConfig::default()
                .with_workers(1)
                .with_routing_policy(policy);
            let broker = if diagnostic {
                Broker::start(
                    Arc::new(ExactMatcher::new()),
                    config.with_explain_capacity(1024),
                )
                .with_quality_sampling(1, Box::new(ExactOracle))
            } else {
                Broker::start(Arc::new(ExactMatcher::new()), config)
            };
            let mut subs = Vec::new();
            for (tags, preds) in &sub_specs {
                let mut b = Subscription::builder().theme_tags(tags.iter().map(String::as_str));
                for &(a, v) in preds {
                    b = b.predicate_exact(ATTR_POOL[a], VALUE_POOL[v]);
                }
                let s = b.build().unwrap();
                let (id, rx) = broker.subscribe(s.clone()).unwrap();
                subs.push((id, s, rx));
            }
            let mut events = Vec::new();
            for (i, (tags, tuples)) in event_specs.iter().enumerate() {
                let mut b = Event::builder()
                    .theme_tags(tags.iter().map(String::as_str))
                    .tuple("seq", &format!("n{i}"));
                for &(a, v) in tuples {
                    b = b.tuple(ATTR_POOL[a], VALUE_POOL[v]);
                }
                let e = b.build().unwrap();
                broker.publish(e.clone()).unwrap();
                events.push(e);
            }
            broker.flush().unwrap();

            // Brute force over all pairs: the routing gate (policy-
            // dependent), then exact conjunctive matching.
            let mut routed_pairs = BTreeSet::new();
            let mut expected = BTreeSet::new();
            for (id, s, _) in &subs {
                for (i, e) in events.iter().enumerate() {
                    let routed = match policy {
                        RoutingPolicy::Broadcast => true,
                        RoutingPolicy::ThemeOverlap => {
                            s.theme_tags().is_empty() || s.shares_theme_with(e)
                        }
                    };
                    if routed {
                        routed_pairs.insert((id.0, i as u64));
                        if exact_match(s, e) {
                            expected.insert((id.0, i));
                        }
                    }
                }
            }

            let mut delivered = BTreeSet::new();
            for (id, _, rx) in &subs {
                while let Ok(n) = rx.try_recv() {
                    let seq = n.event.value_of("seq").expect("seq tuple");
                    let i: usize = seq[1..].parse().expect("seq number");
                    // Every delivered result indexes predicates in *this*
                    // subscriber's declaration order: with exact matching
                    // each correspondence's predicate pair must be among
                    // the event tuples, whatever entry representative
                    // actually ran the test.
                    let sub = &subs.iter().find(|(i2, _, _)| i2 == id).unwrap().1;
                    for m in n.result.mappings() {
                        for c in m.correspondences() {
                            let p = &sub.predicates()[c.predicate];
                            prop_assert!(
                                events[i].tuples().iter().any(|t| {
                                    t.attribute() == p.attribute() && t.value() == p.value()
                                }),
                                "correspondence points at a predicate the event cannot satisfy"
                            );
                        }
                    }
                    delivered.insert((id.0, i));
                }
            }
            prop_assert_eq!(
                &delivered,
                &expected,
                "index dispatch under {:?} must deliver exactly the brute-force set",
                policy
            );

            // Aggregation bookkeeping: hash-consing never reports more
            // entries (distinct predicate-set × theme combinations) or
            // distinct predicate sets than registered subscriptions, and
            // splitting a predicate set across themes only adds entries.
            let stats = broker.stats();
            prop_assert!(stats.index_entries <= sub_specs.len() as u64);
            prop_assert!(stats.distinct_subscriptions <= sub_specs.len() as u64);
            prop_assert!(stats.index_entries >= stats.distinct_subscriptions);

            // With diagnostics on, covering is off and every routed pair
            // is tested: exactly one explanation and one quality sample
            // each, with the live decisions agreeing with ground truth.
            if diagnostic {
                let explained: Vec<(u64, u64)> = broker
                    .explain_last(1024)
                    .iter()
                    .map(|e| (e.subscription.0, e.seq))
                    .collect();
                prop_assert_eq!(explained.len(), routed_pairs.len());
                prop_assert_eq!(&explained.into_iter().collect::<BTreeSet<_>>(), &routed_pairs);
                let quality = broker.quality().expect("oracle installed");
                prop_assert_eq!(quality.judged(), routed_pairs.len() as u64);
                prop_assert_eq!(quality.false_positives + quality.false_negatives, 0);
                prop_assert_eq!(stats.covered_skips, 0);
            }
            broker.shutdown();
        }
    }
}
