//! Steady-state zero-allocation guarantee for the exact-match hot path.
//!
//! Registers the counting global allocator (the same `#[path]` include
//! the `probe` binary uses), warms a broker until every reusable buffer
//! has reached its high-water mark, then asserts that a sustained
//! publish→dequeue→match→drain run performs **zero** heap allocations:
//! the `Arc<Event>` is wrapped once by the caller, the channel ring and
//! worker batch/inflight/candidate scratches are pre-sized, stat shards
//! and histograms are wait-free fixed arrays, and `ExactMatcher`'s
//! no-match verdict never touches the heap.
//!
//! The counting allocator is process-global, so each test holds
//! [`MEASURE`] for its broker's whole lifetime, start to teardown: a
//! sibling test's broker start-up or shutdown can never allocate inside
//! another test's counting window under the parallel test runner.

#[path = "../src/counting_alloc.rs"]
mod counting_alloc;

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use tep::prelude::*;

const FLUSH: Duration = Duration::from_secs(60);

/// Serializes every broker lifetime in this binary (see the module docs).
static MEASURE: Mutex<()> = Mutex::new(());

/// Takes [`MEASURE`]; a sibling's failed assertion poisons the lock but
/// leaves nothing to protect, so poisoning is ignored.
fn measure() -> MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn exact_no_match_steady_state_allocates_nothing() {
    let _measure = measure();
    let broker = Broker::start(
        Arc::new(ExactMatcher::new()),
        BrokerConfig::default().with_workers(1),
    );
    // A subscription that never matches: the steady state under test is
    // the dominant publish→match→miss path, which must stay off the heap.
    let never = Subscription::builder()
        .predicate_exact("device", "never-present")
        .build()
        .expect("subscription");
    let (_id, _rx) = broker.subscribe(never).expect("subscribe");
    let event = Arc::new(
        Event::builder()
            .tuple("device", "computer")
            .tuple("office", "room 112")
            .build()
            .expect("event"),
    );

    // Warmup: first-touch growth (worker candidate scratch, OS-level
    // lazy init in mutexes/condvars) happens here, outside the window.
    for _ in 0..512 {
        broker.publish_arc(Arc::clone(&event)).expect("publish");
    }
    broker.flush_timeout(FLUSH).expect("warmup flush");

    let before = tep_bench::alloc::allocation_count();
    for _ in 0..2048 {
        broker.publish_arc(Arc::clone(&event)).expect("publish");
    }
    broker.flush_timeout(FLUSH).expect("flush");
    let allocated = tep_bench::alloc::allocation_count() - before;

    assert_eq!(
        allocated, 0,
        "steady-state exact no-match path performed {allocated} heap allocations \
         over 2048 events; the hot path must be allocation-free"
    );
    // Join the workers while still holding the lock: their teardown
    // must not land in the sibling test's window.
    broker.shutdown();
}

#[test]
fn theme_routed_steady_state_allocates_nothing() {
    // The regression under test: the old routing table built a fresh
    // candidate `Vec` (plus a dedup set) per event on the ThemeOverlap
    // path. The subscription index serves candidates from the worker's
    // reusable scratch, so the routed path must now hold the same
    // zero-allocation guarantee as the broadcast path above.
    let _measure = measure();
    let broker = Broker::start(
        Arc::new(ExactMatcher::new()),
        BrokerConfig::default()
            .with_workers(1)
            .with_routing_policy(RoutingPolicy::ThemeOverlap),
    );
    // A mixed population exercising every candidate source: two themed
    // subscriptions sharing a tag with the event (one a predicate subset
    // of the other, so a covering edge is live), one disjoint theme that
    // must be skipped without a test, and one theme-less broadcast entry.
    let subs = [
        Subscription::builder()
            .theme_tag("power")
            .predicate_exact("device", "never-present")
            .build()
            .expect("subscription"),
        Subscription::builder()
            .theme_tag("power")
            .predicate_exact("device", "never-present")
            .predicate_exact("office", "nowhere")
            .build()
            .expect("subscription"),
        Subscription::builder()
            .theme_tag("transport")
            .predicate_exact("device", "never-present")
            .build()
            .expect("subscription"),
        Subscription::builder()
            .predicate_exact("office", "never-present")
            .build()
            .expect("subscription"),
    ];
    for sub in subs {
        let (_id, _rx) = broker.subscribe(sub).expect("subscribe");
    }
    let event = Arc::new(
        Event::builder()
            .theme_tag("power")
            .theme_tag("grid")
            .tuple("device", "computer")
            .tuple("office", "room 112")
            .build()
            .expect("event"),
    );

    // Warmup grows the dispatch scratch to the index high-water mark and
    // seeds the interner's theme front cache for this tag list.
    for _ in 0..512 {
        broker.publish_arc(Arc::clone(&event)).expect("publish");
    }
    broker.flush_timeout(FLUSH).expect("warmup flush");

    let before = tep_bench::alloc::allocation_count();
    for _ in 0..2048 {
        broker.publish_arc(Arc::clone(&event)).expect("publish");
    }
    broker.flush_timeout(FLUSH).expect("flush");
    let allocated = tep_bench::alloc::allocation_count() - before;

    assert_eq!(
        allocated, 0,
        "steady-state theme-routed no-match path performed {allocated} heap \
         allocations over 2048 events; candidate collection must reuse the \
         worker scratch"
    );
    // Join the workers while still holding the lock: their teardown
    // must not land in the sibling test's window.
    broker.shutdown();
}
