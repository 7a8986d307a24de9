//! Load generation: the publication arena, the open-loop publisher (the
//! calling thread), the collector thread, and the churn loop.

use crate::trace::{Ledger, SampleBuf};
use crate::workload::Workload;
use crossbeam::channel::{bounded, Receiver, Sender};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tep_broker::{Broker, Notification, SubscriptionId};
use tep_events::{Event, Subscription};

/// Publications cycle over this many preallocated `Arc<Event>` slots.
/// A slot is reused only once nothing else references it.
pub const SLOTS: usize = 8192;

/// How long a phase waits for its notifications to reach the collector;
/// any still missing at the end of the run fail it.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Idle sleep of the collector after a pass that found nothing while
/// notifications are outstanding, in phases that record latencies; with
/// the default timer slack it lasts about 70 µs. Spinning instead would
/// take a core from the broker during long sweeps.
const COLLECTOR_IDLE: Duration = Duration::from_micros(20);
/// The collector's idle sleep in phases that record no latencies. With
/// [`COLLECTOR_IDLE`] during a flood, its wake-ups preempted the broker's
/// workers about 14,000 times a second each on `hot_thematic_churn`.
/// A millisecond is far from filling any subscriber channel: no workload
/// sends a subscriber more than about five notifications per millisecond,
/// against 4096 slots.
const COLLECTOR_UNRECORDED_IDLE: Duration = Duration::from_millis(1);
/// Interval of the collector's sweep over every receiver, which finds
/// notifications the reference did not expect.
const SWEEP_EVERY_NS: u64 = 10_000_000;
/// Interval between ingress-depth samples.
const DEPTH_EVERY_NS: u64 = 1_000_000;
/// How long an unsubscribed churn receiver is kept (and drained) so a
/// dispatch already in flight never delivers into a dropped channel.
const RETIRE_AFTER_NS: u64 = 200_000_000;

/// Asks Linux for 1 ns of timer slack on the calling thread, so the
/// publisher's sleeps end at the scheduled send time rather than up to the
/// default 50 µs late. The collector keeps the default: with tight slack
/// its 20 µs idle sleeps woke so often that they slowed the broker.
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_ulong};
        const PR_SET_TIMERSLACK: c_int = 29;
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        // SAFETY: `prctl(PR_SET_TIMERSLACK, n)` only sets the calling
        // thread's timer slack to `n` nanoseconds; it takes no pointers.
        // A failure leaves the default slack, which only coarsens sleeps.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }
}

/// The publication arena: slot `s` always carries pool event
/// `content[s]`; publication `k` uses slot `k % SLOTS`.
pub struct Arena {
    pub slots: Vec<Arc<Event>>,
    pub content: Vec<u32>,
}

impl Arena {
    /// Fills `len` slots with the pool in seeded shuffled passes.
    pub fn new(workload: &Workload, seed: u64, len: usize) -> Arena {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA2E4_0002);
        let n = workload.pool.len();
        let mut content = Vec::with_capacity(len);
        while content.len() < len {
            let mut pass: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                pass.swap(i, rng.gen_range(0..=i));
            }
            content.extend(pass.into_iter().take(len - content.len()));
        }
        let slots = content
            .iter()
            .map(|&c| Arc::new(workload.pool[c as usize].clone()))
            .collect();
        Arena { slots, content }
    }

    /// Pool index of publication `id`.
    pub fn content_of(&self, id: u64) -> usize {
        self.content[(id % self.slots.len() as u64) as usize] as usize
    }
}

/// Send schedule of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Open loop at this many events per second.
    Rate(f64),
    /// As fast as `PublishPolicy::Block` admits.
    Flood,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseStats {
    pub first_id: u64,
    pub events: u64,
    /// First send → broker flushed, seconds.
    pub wall_s: f64,
    /// Per checked notification: receipt − scheduled send (ns).
    pub latencies: Vec<u64>,
    /// Per event: actual send − scheduled send (ns).
    pub lag: Vec<u64>,
    /// Time inside `publish_arc` per event (ns).
    pub publish_ns: Vec<u64>,
    /// Ingress depth, sampled about once per millisecond.
    pub depth: Vec<u64>,
    /// Collector pass durations (ns), in phases that record latencies.
    pub passes: Vec<u64>,
    pub publish_errors: u64,
}

struct CollectorState {
    stop: AtomicBool,
    record_latency: AtomicBool,
    traced: AtomicBool,
    received: AtomicU64,
    unknown: AtomicU64,
    latencies: SampleBuf,
    passes: SampleBuf,
}

/// The churn loop: one churn subscription registered, then removed, at a
/// fixed rate.
struct Churn {
    subscriptions: Vec<Arc<Subscription>>,
    period_ns: u64,
    next_at: u64,
    next: usize,
    live: Option<(SubscriptionId, Receiver<Notification>)>,
    retired: VecDeque<(u64, Receiver<Notification>)>,
    subscribe_ns: Vec<u64>,
    unsubscribe_ns: Vec<u64>,
}

impl Churn {
    fn receivers(&self) -> impl Iterator<Item = &Receiver<Notification>> {
        let live = self.live.iter().map(|(_, rx)| rx);
        live.chain(self.retired.iter().map(|(_, rx)| rx))
    }
}

/// Checked deliveries after a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub expected: u64,
    pub delivered: u64,
    pub missing: u64,
    pub extra: u64,
    pub true_positives: u64,
    pub relevant: u64,
}

impl Verdict {
    /// Delivered-set F1 against the workload's ground truth.
    pub fn f1(&self) -> f64 {
        let precision = crate::report::ratio(self.true_positives as f64, self.delivered as f64);
        let recall = crate::report::ratio(self.true_positives as f64, self.relevant as f64);
        crate::report::ratio(2.0 * precision * recall, precision + recall)
    }
}

/// Drives one broker: publishes phases from the calling thread while a
/// collector thread drains every stable subscriber.
pub struct Harness<'a> {
    broker: &'a Broker,
    ledger: Arc<Ledger>,
    arena: &'a Arena,
    expected: &'a [Vec<u32>],
    next_id: u64,
    expected_total: u64,
    state: Arc<CollectorState>,
    /// Announces each publication to the collector before it is sent.
    announce: Sender<u64>,
    collector: Option<JoinHandle<(Vec<Vec<u32>>, u64)>>,
    churn: Option<Churn>,
    traced: bool,
}

impl<'a> Harness<'a> {
    /// Starts the collector over `receivers` (stable subscriber `i` is
    /// `receivers[i]`). `planned_ids` bounds the publications of the
    /// whole run, so every buffer is sized before timing starts. Phases
    /// that record latencies may last `record_seconds` in all; with 0,
    /// no latency or collector-pass samples are kept.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        broker: &'a Broker,
        ledger: Arc<Ledger>,
        arena: &'a Arena,
        expected: &'a [Vec<u32>],
        receivers: Vec<Receiver<Notification>>,
        planned_ids: u64,
        record_seconds: f64,
        traced: bool,
    ) -> Harness<'a> {
        let mut per_sub = vec![0usize; receivers.len()];
        for id in 0..planned_ids {
            for &i in &expected[arena.content_of(id)] {
                per_sub[i as usize] += 1;
            }
        }
        // A pass either files a notification, takes an announcement, or
        // sleeps for at least `COLLECTOR_IDLE`.
        let (latency_capacity, pass_capacity) = if record_seconds > 0.0 {
            let notifications: usize = per_sub.iter().sum();
            let idle = (record_seconds / COLLECTOR_IDLE.as_secs_f64()) as usize;
            (notifications, notifications + planned_ids as usize + idle)
        } else {
            (0, 0)
        };
        let received: Vec<Vec<u32>> = per_sub
            .iter()
            .map(|&n| Vec::with_capacity(n + 64))
            .collect();
        let state = Arc::new(CollectorState {
            stop: AtomicBool::new(false),
            record_latency: AtomicBool::new(false),
            traced: AtomicBool::new(traced),
            received: AtomicU64::new(0),
            unknown: AtomicU64::new(0),
            latencies: SampleBuf::with_capacity(latency_capacity),
            passes: SampleBuf::with_capacity(pass_capacity),
        });
        let (announce, announced) = bounded(1 << 16);
        let collector = {
            let state = Arc::clone(&state);
            let ledger = Arc::clone(&ledger);
            let expected: Vec<Vec<u32>> = expected.to_vec();
            let content = arena.content.clone();
            std::thread::Builder::new()
                .name("ledger-collector".into())
                .spawn(move || {
                    let expected_of = |id: u64| {
                        &expected[content[(id % content.len() as u64) as usize] as usize][..]
                    };
                    collect(
                        &state,
                        &ledger,
                        &receivers,
                        received,
                        &announced,
                        expected_of,
                    )
                })
                .expect("spawn collector")
        };
        Harness {
            broker,
            ledger,
            arena,
            expected,
            next_id: 0,
            expected_total: 0,
            state,
            announce,
            collector: Some(collector),
            churn: None,
            traced,
        }
    }

    /// Adds the churn loop: `per_sec` subscribe calls a second over
    /// `subscriptions`, each removed again half a period later.
    pub fn with_churn(
        mut self,
        subscriptions: Vec<Arc<Subscription>>,
        per_sec: f64,
        planned_ops: usize,
    ) -> Harness<'a> {
        if per_sec > 0.0 && !subscriptions.is_empty() {
            self.churn = Some(Churn {
                subscriptions,
                period_ns: (1e9 / (2.0 * per_sec)) as u64,
                next_at: 0,
                next: 0,
                live: None,
                retired: VecDeque::with_capacity(1024),
                subscribe_ns: Vec::with_capacity(planned_ops),
                unsubscribe_ns: Vec::with_capacity(planned_ops),
            });
        }
        self
    }

    /// Latency and pass samples dropped because their buffers were full.
    pub fn dropped_samples(&self) -> u64 {
        self.state.latencies.overflow() + self.state.passes.overflow()
    }

    /// Publications so far.
    pub fn published(&self) -> u64 {
        self.next_id
    }

    /// Churn `(subscribe, unsubscribe)` call durations so far (ns).
    pub fn churn_samples(&self) -> (Vec<u64>, Vec<u64>) {
        self.churn
            .as_ref()
            .map(|c| (c.subscribe_ns.clone(), c.unsubscribe_ns.clone()))
            .unwrap_or_default()
    }

    /// Runs one phase of `count` events and waits until the broker has
    /// processed them and the collector has received every expected
    /// notification.
    pub fn run_phase(&mut self, pace: Pace, count: usize, record_latency: bool) -> PhaseStats {
        let ledger = Arc::clone(&self.ledger);
        let first_id = self.next_id;
        let latency_mark = self.state.latencies.mark();
        let pass_mark = self.state.passes.mark();
        self.state
            .record_latency
            .store(record_latency, Ordering::Relaxed);
        let mut stats = PhaseStats {
            first_id,
            events: count as u64,
            lag: Vec::with_capacity(count),
            publish_ns: Vec::with_capacity(if self.traced { count } else { 0 }),
            ..PhaseStats::default()
        };
        let interval = match pace {
            Pace::Rate(r) => 1e9 / r,
            Pace::Flood => 0.0,
        };
        // Churn runs beside paced load only: during a flood its calls
        // would time the saturated queue, not the index.
        let paced = matches!(pace, Pace::Rate(_));
        let planned_ns = (interval * count as f64) as u64;
        stats.depth = Vec::with_capacity((planned_ns / DEPTH_EVERY_NS) as usize + 4096);
        let t0 = ledger.now() + 1_000_000;
        if let Some(churn) = &mut self.churn {
            churn.next_at = t0;
        }
        let mut next_depth = t0;
        while ledger.now() < t0 {
            std::hint::spin_loop();
        }
        for i in 0..count as u64 {
            let id = first_id + i;
            let slot = (id % self.arena.slots.len() as u64) as usize;
            let sched = match pace {
                Pace::Rate(_) => t0 + (interval * i as f64) as u64,
                Pace::Flood => 0,
            };
            // Open loop: wait for the scheduled time, doing chores.
            loop {
                let now = ledger.now();
                if now >= next_depth {
                    stats.depth.push(self.broker.publish_queue_depth() as u64);
                    next_depth = now + DEPTH_EVERY_NS;
                }
                if paced {
                    self.churn_chores(now);
                }
                if now >= sched {
                    break;
                }
                // Sleep rather than spin, which would take a core from the
                // broker; with tight timer slack the sleep wakes on time.
                let wait = sched - now;
                if wait > 2_000 {
                    std::thread::sleep(Duration::from_nanos(wait));
                } else {
                    std::hint::spin_loop();
                }
            }
            let event = &self.arena.slots[slot];
            while Arc::strong_count(event) > 1 {
                // The slot's previous publication is still referenced.
                std::thread::yield_now();
            }
            let send = ledger.now();
            let sched = if sched == 0 { send } else { sched };
            stats.lag.push(send - sched);
            ledger.assign(slot, id, sched);
            self.announce
                .send(id)
                .expect("collector outlives the harness");
            let span = if self.traced { ledger.span(id) } else { None };
            if let Some(span) = span {
                span.sched.store(sched, Ordering::Relaxed);
                span.publish_start.store(send, Ordering::Relaxed);
            }
            let result = self.broker.publish_arc(Arc::clone(event));
            if self.traced {
                let end = ledger.now();
                stats.publish_ns.push(end - send);
                if let Some(span) = span {
                    span.publish_end.store(end, Ordering::Relaxed);
                }
            }
            match result {
                Ok(()) => {
                    self.expected_total += self.expected[self.arena.content_of(id)].len() as u64;
                }
                Err(_) => stats.publish_errors += 1,
            }
        }
        self.next_id += count as u64;
        // A flush that times out leaves notifications missing, which the
        // run's verdict counts.
        let _ = self.broker.flush_timeout(Duration::from_secs(60));
        stats.wall_s = (ledger.now() - t0) as f64 / 1e9;
        let deadline = ledger.now() + DRAIN_DEADLINE.as_nanos() as u64;
        while self.state.received.load(Ordering::Acquire) < self.expected_total
            && ledger.now() < deadline
        {
            self.churn_drain();
            std::thread::sleep(Duration::from_micros(200));
        }
        self.churn_retire_all();
        self.state.record_latency.store(false, Ordering::Relaxed);
        stats.latencies = self.state.latencies.since(latency_mark);
        stats.passes = self.state.passes.since(pass_mark);
        stats
    }

    fn churn_chores(&mut self, now: u64) {
        let Some(churn) = &mut self.churn else {
            return;
        };
        for rx in churn.receivers() {
            while rx.try_recv().is_ok() {}
        }
        while churn.retired.front().is_some_and(|(at, _)| *at <= now) {
            churn.retired.pop_front();
        }
        if now < churn.next_at {
            return;
        }
        churn.next_at += churn.period_ns;
        let ledger = &self.ledger;
        match churn.live.take() {
            None => {
                let sub = Arc::clone(&churn.subscriptions[churn.next % churn.subscriptions.len()]);
                churn.next += 1;
                let start = ledger.now();
                let registered = self.broker.subscribe_arc(sub);
                churn.subscribe_ns.push(ledger.now() - start);
                churn.live = registered.ok();
            }
            Some((id, rx)) => {
                let start = ledger.now();
                self.broker.unsubscribe(id);
                let end = ledger.now();
                churn.unsubscribe_ns.push(end - start);
                churn.retired.push_back((end + RETIRE_AFTER_NS, rx));
            }
        }
    }

    fn churn_drain(&mut self) {
        if let Some(churn) = &mut self.churn {
            for rx in churn.receivers() {
                while rx.try_recv().is_ok() {}
            }
        }
    }

    /// After a flush nothing is in flight, so every churn registration
    /// can go.
    fn churn_retire_all(&mut self) {
        if let Some(churn) = &mut self.churn {
            if let Some((id, rx)) = churn.live.take() {
                let start = self.ledger.now();
                self.broker.unsubscribe(id);
                churn.unsubscribe_ns.push(self.ledger.now() - start);
                while rx.try_recv().is_ok() {}
            }
            for (_, rx) in churn.retired.drain(..) {
                while rx.try_recv().is_ok() {}
            }
        }
    }

    /// Stops the collector and checks every stable subscriber's delivered
    /// publications against the reference, and against the ground truth
    /// `relevant` for F1. Also returns each stable subscriber's sorted
    /// delivered publication ids.
    pub fn finish(mut self, relevant: &[Vec<u32>]) -> (Verdict, Vec<Vec<u32>>) {
        self.churn_retire_all();
        self.state.stop.store(true, Ordering::Release);
        let (mut received, overflow) = self
            .collector
            .take()
            .expect("collector running")
            .join()
            .expect("collector thread panicked");
        let unknown = self.state.unknown.load(Ordering::Relaxed);
        let mut verdict = Verdict::default();
        for list in &mut received {
            list.sort_unstable();
        }
        let mut cursor = vec![0usize; received.len()];
        for id in 0..self.next_id {
            let content = self.arena.content_of(id);
            verdict.relevant += relevant[content].len() as u64;
            for &i in &self.expected[content] {
                let (list, at) = (&received[i as usize], &mut cursor[i as usize]);
                verdict.expected += 1;
                while *at < list.len() && u64::from(list[*at]) < id {
                    verdict.extra += 1;
                    *at += 1;
                }
                if *at < list.len() && u64::from(list[*at]) == id {
                    *at += 1;
                } else {
                    verdict.missing += 1;
                }
            }
        }
        for (i, list) in received.iter().enumerate() {
            verdict.extra += (list.len() - cursor[i]) as u64;
            verdict.delivered += list.len() as u64;
            for &id in list {
                if relevant[self.arena.content_of(u64::from(id))]
                    .binary_search(&(i as u32))
                    .is_ok()
                {
                    verdict.true_positives += 1;
                }
            }
        }
        // Notifications the collector could not file are extras too.
        verdict.extra += overflow + unknown;
        verdict.delivered += overflow + unknown;
        (verdict, received)
    }
}

impl Drop for Harness<'_> {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::Release);
        if let Some(handle) = self.collector.take() {
            let _ = handle.join();
        }
    }
}

/// The collector loop. It learns each publication before it is sent,
/// so it polls only the receivers that have notifications outstanding
/// (its pass time grows with the notifications in flight, not with the
/// population), and sweeps every receiver each `SWEEP_EVERY_NS` for
/// notifications the reference did not expect. Each notification is
/// filed under its subscriber and timed from its event's scheduled send.
/// Returns the per-subscriber publication ids and the count of
/// notifications that did not fit the preallocated lists.
fn collect<'e>(
    state: &CollectorState,
    ledger: &Ledger,
    receivers: &[Receiver<Notification>],
    mut received: Vec<Vec<u32>>,
    announced: &Receiver<u64>,
    expected_of: impl Fn(u64) -> &'e [u32],
) -> (Vec<Vec<u32>>, u64) {
    let mut overflow = 0u64;
    let mut pending = vec![0u32; receivers.len()];
    let mut listed = vec![false; receivers.len()];
    let mut worklist: Vec<u32> = Vec::with_capacity(receivers.len());
    // Marks the subscribers a newly announced publication will notify.
    let expect = |id: u64, pending: &mut [u32], listed: &mut [bool], worklist: &mut Vec<u32>| {
        for &i in expected_of(id) {
            let i = i as usize;
            pending[i] += 1;
            if !listed[i] {
                listed[i] = true;
                worklist.push(i as u32);
            }
        }
    };
    let mut next_sweep = ledger.now() + SWEEP_EVERY_NS;
    let mut file = |i: usize, n: Notification, at: u64, overflow: &mut u64| {
        let Some((id, sched)) = ledger.publication(&n.event) else {
            state.unknown.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let list = &mut received[i];
        if list.len() < list.capacity() {
            list.push(id as u32);
        } else {
            *overflow += 1;
        }
        if state.record_latency.load(Ordering::Relaxed) {
            state.latencies.push(at.saturating_sub(sched));
        }
        if state.traced.load(Ordering::Relaxed) {
            if let Some(span) = ledger.span(id) {
                span.last_notify.fetch_max(at, Ordering::Relaxed);
                span.notifications.fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    loop {
        let pass_start = ledger.now();
        while let Ok(id) = announced.try_recv() {
            expect(id, &mut pending, &mut listed, &mut worklist);
        }
        let mut got = 0u64;
        let sweep = pass_start >= next_sweep;
        if sweep {
            next_sweep = pass_start + SWEEP_EVERY_NS;
        }
        let mut kept = 0;
        for w in 0..worklist.len() {
            let i = worklist[w] as usize;
            while let Ok(n) = receivers[i].try_recv() {
                got += 1;
                pending[i] = pending[i].saturating_sub(1);
                file(i, n, ledger.now(), &mut overflow);
            }
            if pending[i] > 0 {
                worklist[kept] = i as u32;
                kept += 1;
            } else {
                listed[i] = false;
            }
        }
        worklist.truncate(kept);
        if sweep {
            for (i, rx) in receivers.iter().enumerate() {
                while let Ok(n) = rx.try_recv() {
                    got += 1;
                    pending[i] = pending[i].saturating_sub(1);
                    file(i, n, ledger.now(), &mut overflow);
                }
            }
        }
        if state.record_latency.load(Ordering::Relaxed) {
            state.passes.push(ledger.now() - pass_start);
        }
        if got > 0 {
            state.received.fetch_add(got, Ordering::Release);
        } else if state.stop.load(Ordering::Acquire) {
            // One last sweep: nothing may be left in any channel.
            for (i, rx) in receivers.iter().enumerate() {
                while let Ok(n) = rx.try_recv() {
                    file(i, n, ledger.now(), &mut overflow);
                }
            }
            return (received, overflow);
        } else if worklist.is_empty() {
            // Nothing outstanding: wait for the next announcement.
            if let Ok(id) = announced.recv_timeout(Duration::from_millis(1)) {
                expect(id, &mut pending, &mut listed, &mut worklist);
            }
        } else if state.record_latency.load(Ordering::Relaxed) {
            std::thread::sleep(COLLECTOR_IDLE);
        } else {
            std::thread::sleep(COLLECTOR_UNRECORDED_IDLE);
        }
    }
}
