//! The decorators must not change what the broker does: a traced and an
//! untraced broker over the same small workload deliver the same
//! (subscription, publication) pairs — exactly the reference's — and
//! run the same number of match tests, covered skips and notifications.

use std::sync::Arc;
use tep_broker::BrokerConfig;
use tep_ledger::load::Arena;
use tep_ledger::run::{fixed_run, reference, ExactStack, SemanticStack, Stack, System};
use tep_ledger::trace::Ledger;
use tep_ledger::workload::{Kind, Scale, Workload};

/// More publications than arena slots, so slot reuse is exercised.
const EVENTS: usize = 600;
const SLOTS: usize = 256;

fn traced_and_untraced_agree<S: Stack>(kind: Kind) {
    let workload = Workload::generate(kind, Scale::Test);
    let (stack, _) = S::build(&workload);
    let threshold = BrokerConfig::default().delivery_threshold;
    let (expected, _) = reference(&stack.plain(), &workload, threshold);
    let arena = Arena::new(&workload, 3, SLOTS);
    let ledger = Arc::new(Ledger::new(&arena.slots, EVENTS, 1 << 16, 1024));

    let plain = fixed_run(
        System::start(stack.plain(), &workload),
        &ledger,
        &arena,
        &expected,
        &workload,
        EVENTS,
        false,
    );
    ledger.reset(0);
    let traced = fixed_run(
        System::start(stack.traced(&ledger), &workload),
        &ledger,
        &arena,
        &expected,
        &workload,
        EVENTS,
        true,
    );

    assert!(
        plain.verdict.expected > 0,
        "{kind:?}: the workload delivers"
    );
    for run in [&plain, &traced] {
        assert_eq!(run.verdict.missing, 0, "{kind:?}: {:?}", run.verdict);
        assert_eq!(run.verdict.extra, 0, "{kind:?}: {:?}", run.verdict);
        assert_eq!(run.failed, 0, "{kind:?}");
    }
    assert_eq!(
        plain.pairs, traced.pairs,
        "{kind:?}: delivered pairs differ"
    );
    assert_eq!(
        (plain.match_tests, plain.covered_skips, plain.notifications),
        (
            traced.match_tests,
            traced.covered_skips,
            traced.notifications
        ),
        "{kind:?}: broker counters differ under tracing"
    );
    assert_eq!(
        ledger.totals().match_calls,
        traced.match_tests,
        "{kind:?}: the matcher decorator saw every match test"
    );
}

#[test]
fn paper_thematic_is_unchanged_by_tracing() {
    traced_and_untraced_agree::<SemanticStack>(Kind::PaperThematic);
}

#[test]
fn exact_fanout_is_unchanged_by_tracing() {
    traced_and_untraced_agree::<ExactStack>(Kind::ExactFanout);
}

#[test]
fn hot_thematic_is_unchanged_by_tracing() {
    traced_and_untraced_agree::<SemanticStack>(Kind::HotThematicChurn);
}
