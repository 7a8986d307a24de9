//! The traced run's recording side: event identity, per-event spans and
//! the `Matcher` / `SemanticMeasure` decorators that time each call into
//! the matcher and semantics layers.
//!
//! Every span of one publication shares its publication id. Events are
//! published from a fixed arena of `Arc<Event>` slots, so the `Arc`
//! pointer names a slot (mapped once, before timing starts) and the slot
//! names the publication currently using it (written by the publisher
//! before each send; a slot is only reused once no notification or job
//! still holds it).
//!
//! Probe and kernel calls are far too frequent to keep one span each (a
//! `paper_thematic` event makes ~700 relatedness probes), so the measure
//! decorators add their time and count into thread-local accumulators
//! that the enclosing `match` span takes over when it closes: a match
//! span carries the summed child time of its `relatedness` and `kernel`
//! calls. Kernel calls additionally keep one duration sample each.
//!
//! All storage is preallocated before the traced phase; recording never
//! allocates.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tep_events::{Event, Subscription};
use tep_matcher::{CacheStats, DegradedMatching, MatchDetail, MatchResult, Matcher};
use tep_semantics::{RelatednessDetail, SemanticMeasure, TermId, Theme, ThemeId};

/// Sentinel for "no publication" in [`Ledger::slot_pub`].
const NO_PUB: u64 = u64::MAX;

/// A fixed-capacity, lock-free sample buffer of `u32` durations.
/// Pushes past the capacity are counted in `overflow` and dropped.
pub struct SampleBuf {
    data: Box<[AtomicU32]>,
    len: AtomicUsize,
    overflow: AtomicU64,
}

impl SampleBuf {
    /// A buffer holding up to `capacity` samples.
    pub fn with_capacity(capacity: usize) -> SampleBuf {
        SampleBuf {
            data: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            len: AtomicUsize::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    /// Appends one sample, saturating at `u32::MAX`.
    pub fn push(&self, value: u64) {
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        match self.data.get(i) {
            Some(slot) => slot.store(value.min(u32::MAX as u64) as u32, Ordering::Relaxed),
            None => {
                self.overflow.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Forgets every sample (call only while no thread pushes).
    pub fn clear(&self) {
        self.len.store(0, Ordering::Relaxed);
        self.overflow.store(0, Ordering::Relaxed);
    }

    /// The current write position, for [`SampleBuf::since`].
    pub fn mark(&self) -> usize {
        self.len.load(Ordering::Acquire).min(self.data.len())
    }

    /// Copies out the samples recorded after `mark`.
    pub fn since(&self, mark: usize) -> Vec<u64> {
        let n = self.mark();
        self.data[mark.min(n)..n]
            .iter()
            .map(|v| u64::from(v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Samples dropped because the buffer was full.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }
}

/// One publication's spans, as nanoseconds since [`Ledger::epoch`]
/// (0 = not reached). Each field has a single writer: the publisher
/// (`sched`, `publish_*`), the worker that dispatched the event
/// (`dispatch_begin`, `match_*`, sums), or the collector (`notify_*`).
#[derive(Default)]
pub struct EventSpan {
    pub sched: AtomicU64,
    pub publish_start: AtomicU64,
    pub publish_end: AtomicU64,
    pub dispatch_begin: AtomicU64,
    pub first_match_start: AtomicU64,
    pub last_match_end: AtomicU64,
    pub match_ns: AtomicU64,
    pub relatedness_ns: AtomicU64,
    pub kernel_ns: AtomicU64,
    pub matches: AtomicU64,
    pub last_notify: AtomicU64,
    pub notifications: AtomicU64,
}

/// Totals the decorators accumulate across all threads.
#[derive(Default)]
struct LayerCounters {
    pub match_calls: AtomicU64,
    pub match_ns: AtomicU64,
    pub probes: AtomicU64,
    pub probe_ns: AtomicU64,
    pub kernel_calls: AtomicU64,
    pub kernel_ns: AtomicU64,
}

/// A plain copy of [`LayerCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub match_calls: u64,
    pub match_ns: u64,
    pub probes: u64,
    pub probe_ns: u64,
    pub kernel_calls: u64,
    pub kernel_ns: u64,
}

/// Shared recording state: event identity for every run, spans and
/// layer counters for traced runs.
pub struct Ledger {
    epoch: Instant,
    slot_of: HashMap<usize, u32>,
    slot_pub: Box<[AtomicU64]>,
    slot_sched: Box<[AtomicU64]>,
    /// First publication id covered by `spans`.
    span_base: AtomicU64,
    spans: Box<[EventSpan]>,
    counters: LayerCounters,
    /// Per-call `match` durations (ns).
    pub match_samples: SampleBuf,
    /// Per-call `kernel` durations (ns): memo misses only.
    pub kernel_samples: SampleBuf,
    /// Per-call `prepare_subscription` durations (ns).
    pub prepare_samples: SampleBuf,
}

thread_local! {
    /// The event this thread is dispatching: (`Event` address, publication id).
    static CURRENT: Cell<(usize, u64)> = const { Cell::new((0, NO_PUB)) };
    /// Relatedness time and calls inside the open `match` span.
    static PROBE_NS: Cell<u64> = const { Cell::new(0) };
    static PROBES: Cell<u64> = const { Cell::new(0) };
    /// Kernel time and calls inside the open `match` span.
    static KERNEL_NS: Cell<u64> = const { Cell::new(0) };
    static KERNELS: Cell<u64> = const { Cell::new(0) };
}

impl Ledger {
    /// A ledger over the publication arena `slots`, with room for
    /// `span_capacity` traced publications, `sample_capacity` match and
    /// kernel samples each, and `prepare_capacity` prepare samples.
    pub fn new(
        slots: &[Arc<Event>],
        span_capacity: usize,
        sample_capacity: usize,
        prepare_capacity: usize,
    ) -> Ledger {
        Ledger {
            epoch: Instant::now(),
            slot_of: slots
                .iter()
                .enumerate()
                .map(|(i, e)| (Arc::as_ptr(e) as usize, i as u32))
                .collect(),
            slot_pub: (0..slots.len()).map(|_| AtomicU64::new(NO_PUB)).collect(),
            slot_sched: (0..slots.len()).map(|_| AtomicU64::new(0)).collect(),
            span_base: AtomicU64::new(0),
            spans: (0..span_capacity).map(|_| EventSpan::default()).collect(),
            counters: LayerCounters::default(),
            match_samples: SampleBuf::with_capacity(sample_capacity),
            kernel_samples: SampleBuf::with_capacity(sample_capacity),
            prepare_samples: SampleBuf::with_capacity(prepare_capacity),
        }
    }

    /// Nanoseconds since the ledger's epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Marks `slot` as carrying publication `id`, scheduled at `sched`.
    pub fn assign(&self, slot: usize, id: u64, sched: u64) {
        self.slot_sched[slot].store(sched, Ordering::Relaxed);
        self.slot_pub[slot].store(id, Ordering::Release);
    }

    /// The (publication id, scheduled time) of the publication `event`
    /// belongs to; `None` for an event outside the arena.
    #[inline]
    pub fn publication(&self, event: &Event) -> Option<(u64, u64)> {
        let slot = *self.slot_of.get(&(event as *const Event as usize))? as usize;
        let id = self.slot_pub[slot].load(Ordering::Acquire);
        (id != NO_PUB).then(|| (id, self.slot_sched[slot].load(Ordering::Relaxed)))
    }

    /// Points the span arena at publications `[base, base + capacity)`
    /// and clears spans, counters and match/kernel samples (prepare
    /// samples accumulate over the run). Call while idle.
    pub fn reset(&self, base: u64) {
        self.span_base.store(base, Ordering::Relaxed);
        for s in self.spans.iter() {
            for f in [
                &s.sched,
                &s.publish_start,
                &s.publish_end,
                &s.dispatch_begin,
                &s.first_match_start,
                &s.last_match_end,
                &s.match_ns,
                &s.relatedness_ns,
                &s.kernel_ns,
                &s.matches,
                &s.last_notify,
                &s.notifications,
            ] {
                f.store(0, Ordering::Relaxed);
            }
        }
        let c = &self.counters;
        for f in [
            &c.match_calls,
            &c.match_ns,
            &c.probes,
            &c.probe_ns,
            &c.kernel_calls,
            &c.kernel_ns,
        ] {
            f.store(0, Ordering::Relaxed);
        }
        self.match_samples.clear();
        self.kernel_samples.clear();
    }

    /// The span of publication `id`, if it falls in the arena.
    #[inline]
    pub fn span(&self, id: u64) -> Option<&EventSpan> {
        let base = self.span_base.load(Ordering::Relaxed);
        id.checked_sub(base)
            .and_then(|i| self.spans.get(usize::try_from(i).ok()?))
    }

    /// The spans of publications `[base, base + n)`.
    pub fn spans(&self, n: usize) -> &[EventSpan] {
        &self.spans[..n.min(self.spans.len())]
    }

    /// Current layer totals.
    pub fn totals(&self) -> LayerTotals {
        let c = &self.counters;
        LayerTotals {
            match_calls: c.match_calls.load(Ordering::Relaxed),
            match_ns: c.match_ns.load(Ordering::Relaxed),
            probes: c.probes.load(Ordering::Relaxed),
            probe_ns: c.probe_ns.load(Ordering::Relaxed),
            kernel_calls: c.kernel_calls.load(Ordering::Relaxed),
            kernel_ns: c.kernel_ns.load(Ordering::Relaxed),
        }
    }

    /// Publication id of the event this worker is dispatching.
    #[inline]
    fn current_id(&self, event: &Event) -> u64 {
        let addr = event as *const Event as usize;
        let (cur, id) = CURRENT.get();
        if cur == addr {
            return id;
        }
        self.publication(event).map_or(NO_PUB, |(id, _)| id)
    }

    fn begin_event(&self, event: &Event) {
        let id = self.publication(event).map_or(NO_PUB, |(id, _)| id);
        CURRENT.set((event as *const Event as usize, id));
        if let Some(span) = self.span(id) {
            span.dispatch_begin.store(self.now(), Ordering::Relaxed);
        }
    }

    fn close_match(&self, id: u64, start: u64, end: u64) {
        let took = end.saturating_sub(start);
        let (probe_ns, probes) = (PROBE_NS.replace(0), PROBES.replace(0));
        let (kernel_ns, kernels) = (KERNEL_NS.replace(0), KERNELS.replace(0));
        let c = &self.counters;
        c.match_calls.fetch_add(1, Ordering::Relaxed);
        c.match_ns.fetch_add(took, Ordering::Relaxed);
        if probes > 0 {
            c.probes.fetch_add(probes, Ordering::Relaxed);
            c.probe_ns.fetch_add(probe_ns, Ordering::Relaxed);
        }
        if kernels > 0 {
            c.kernel_calls.fetch_add(kernels, Ordering::Relaxed);
            c.kernel_ns.fetch_add(kernel_ns, Ordering::Relaxed);
        }
        self.match_samples.push(took);
        if let Some(span) = self.span(id) {
            if span.first_match_start.load(Ordering::Relaxed) == 0 {
                span.first_match_start.store(start, Ordering::Relaxed);
            }
            span.last_match_end.store(end, Ordering::Relaxed);
            span.match_ns.fetch_add(took, Ordering::Relaxed);
            span.relatedness_ns.fetch_add(probe_ns, Ordering::Relaxed);
            span.kernel_ns.fetch_add(kernel_ns, Ordering::Relaxed);
            span.matches.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The `Matcher` decorator: opens a `match` span around every match test
/// and times `prepare_subscription`. Every trait method is forwarded, so
/// the broker takes the same path with and without it.
pub struct TracedMatcher<M> {
    inner: M,
    ledger: Arc<Ledger>,
}

impl<M> TracedMatcher<M> {
    /// Wraps `inner`, recording into `ledger`.
    pub fn new(inner: M, ledger: Arc<Ledger>) -> TracedMatcher<M> {
        TracedMatcher { inner, ledger }
    }

    /// The wrapped matcher.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    fn timed(&self, event: &Event, f: impl FnOnce() -> MatchResult) -> MatchResult {
        let id = self.ledger.current_id(event);
        PROBE_NS.set(0);
        PROBES.set(0);
        KERNEL_NS.set(0);
        KERNELS.set(0);
        let start = self.ledger.now();
        let result = f();
        let end = self.ledger.now();
        self.ledger.close_match(id, start, end);
        result
    }
}

impl<M: Matcher> Matcher for TracedMatcher<M> {
    fn match_event(&self, subscription: &Subscription, event: &Event) -> MatchResult {
        self.timed(event, || self.inner.match_event(subscription, event))
    }

    fn match_event_degraded(
        &self,
        subscription: &Subscription,
        event: &Event,
        mode: DegradedMatching,
    ) -> MatchResult {
        self.timed(event, || {
            self.inner.match_event_degraded(subscription, event, mode)
        })
    }

    fn begin_event(&self, event: &Event) {
        self.ledger.begin_event(event);
        self.inner.begin_event(event);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn explain_match(
        &self,
        subscription: &Subscription,
        event: &Event,
        result: &MatchResult,
    ) -> MatchDetail {
        self.inner.explain_match(subscription, event, result)
    }

    fn prepare_subscription(&self, subscription: &Subscription) {
        let start = self.ledger.now();
        self.inner.prepare_subscription(subscription);
        self.ledger
            .prepare_samples
            .push(self.ledger.now().saturating_sub(start));
    }

    fn release_subscription(&self, subscription: &Subscription) {
        self.inner.release_subscription(subscription);
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn cache_miss_count(&self) -> u64 {
        self.inner.cache_miss_count()
    }

    fn covering_safe(&self) -> bool {
        self.inner.covering_safe()
    }
}

/// Where a [`TracedMeasure`] sits in the measure stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureRole {
    /// Outside the memo: every relatedness probe.
    Relatedness,
    /// Inside the memo, around the thematic measure: memo misses, which
    /// pay the PVSM projection and the sparse distance.
    Kernel,
}

/// The `SemanticMeasure` decorator. Scoring calls are timed into the
/// open match span's accumulators; every other method is forwarded.
pub struct TracedMeasure<M> {
    inner: M,
    role: MeasureRole,
    ledger: Arc<Ledger>,
}

impl<M> TracedMeasure<M> {
    /// Wraps `inner` in the given role.
    pub fn new(inner: M, role: MeasureRole, ledger: Arc<Ledger>) -> TracedMeasure<M> {
        TracedMeasure {
            inner,
            role,
            ledger,
        }
    }

    /// The wrapped measure.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    #[inline]
    fn timed(&self, f: impl FnOnce() -> f64) -> f64 {
        let start = self.ledger.now();
        let score = f();
        let took = self.ledger.now().saturating_sub(start);
        match self.role {
            MeasureRole::Relatedness => {
                PROBE_NS.set(PROBE_NS.get() + took);
                PROBES.set(PROBES.get() + 1);
            }
            MeasureRole::Kernel => {
                KERNEL_NS.set(KERNEL_NS.get() + took);
                KERNELS.set(KERNELS.get() + 1);
                self.ledger.kernel_samples.push(took);
            }
        }
        score
    }
}

impl<M: fmt::Debug> fmt::Debug for TracedMeasure<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracedMeasure")
            .field("role", &self.role)
            .field("inner", &self.inner)
            .finish()
    }
}

impl<M: SemanticMeasure> SemanticMeasure for TracedMeasure<M> {
    fn relatedness(&self, term_s: &str, theme_s: &Theme, term_e: &str, theme_e: &Theme) -> f64 {
        self.timed(|| self.inner.relatedness(term_s, theme_s, term_e, theme_e))
    }

    fn relatedness_ids(
        &self,
        term_s: TermId,
        theme_s: ThemeId,
        term_e: TermId,
        theme_e: ThemeId,
    ) -> f64 {
        self.timed(|| self.inner.relatedness_ids(term_s, theme_s, term_e, theme_e))
    }

    fn explain(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> RelatednessDetail {
        self.inner.explain(term_s, theme_s, term_e, theme_e)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare_term(&self, term: &str, theme: &Theme) {
        self.inner.prepare_term(term, theme);
    }

    fn release_term(&self, term: &str, theme: &Theme) {
        self.inner.release_term(term, theme);
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn cache_miss_count(&self) -> u64 {
        self.inner.cache_miss_count()
    }

    fn relatedness_warm(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> Option<f64> {
        self.inner
            .relatedness_warm(term_s, theme_s, term_e, theme_e)
    }
}
