//! One benchmark invocation: set-up, the reference pass, the load phases
//! and the metrics.

use crate::load::{Arena, Harness, Pace, PhaseStats, Verdict, SLOTS};
use crate::report::{median, peak_rss_mb, quantile, ratio, Outcome};
use crate::trace::{EventSpan, LayerTotals, Ledger, MeasureRole, TracedMatcher, TracedMeasure};
use crate::workload::{Kind, Scale, Spec, Workload};
use crossbeam::channel::Receiver;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use tep_broker::{Broker, BrokerConfig, BrokerStats, Notification, RoutingPolicy, StageLatencies};
use tep_corpus::CorpusGenerator;
use tep_eval::EvalConfig;
use tep_index::InvertedIndex;
use tep_matcher::{CacheStats, ExactMatcher, Matcher, MatcherConfig, ProbabilisticMatcher};
use tep_semantics::{
    CachedMeasure, DistributionalSpace, ParametricVectorSpace, ThematicEsaMeasure,
};
use tep_thesaurus::Thesaurus;

/// Rounds of the traced run. Each round runs one reference window and one
/// saturation burst per broker, so the medians sample the whole run
/// rather than one stretch of it. Also the fewest measured bursts of the
/// untraced run.
const ROUNDS: usize = 8;
/// Extra set-ups run in two batches, one before the load brokers start
/// and one after they are torn down, so the median samples both ends of
/// the run and no set-up's stack counts towards the load's `peak_rss_mb`.
/// A batch runs at least `SETUP_BATCH` set-ups and lasts at least
/// `SETUP_BATCH_S` seconds. `setup_s` is the median of all set-ups:
/// these, the reference stack's and each load broker's.
const SETUP_BATCH: usize = 8;
const SETUP_BATCH_S: f64 = 1.0;
/// Shares of `--seconds` spent in the warm-up and in the reference
/// windows of one broker.
const WARMUP_SHARE: f64 = 0.05;
const WINDOWS_SHARE: f64 = 0.3;
/// Broker workers under the production default configuration.
const WORKERS: f64 = 2.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut kind = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    kind = Some(
                        Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed".to_string())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds".to_string())?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Options {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Matchers the benchmark runs, with the memo counters each exposes.
pub trait BenchMatcher: Matcher + Send + Sync + 'static {
    /// Counters of the relatedness memo (zeros without one).
    fn memo(&self) -> CacheStats {
        CacheStats::default()
    }
}

/// The production thematic matcher (`MatcherStack::thematic_cached`).
pub type Thematic = ProbabilisticMatcher<CachedMeasure<ThematicEsaMeasure>>;
/// The thematic matcher with the three decorators in place.
pub type TracedThematic = TracedMatcher<
    ProbabilisticMatcher<TracedMeasure<CachedMeasure<TracedMeasure<ThematicEsaMeasure>>>>,
>;

impl BenchMatcher for ExactMatcher {}
impl BenchMatcher for TracedMatcher<ExactMatcher> {}
impl BenchMatcher for Thematic {
    fn memo(&self) -> CacheStats {
        self.measure().memo_stats()
    }
}
impl BenchMatcher for TracedThematic {
    fn memo(&self) -> CacheStats {
        self.inner().measure().inner().memo_stats()
    }
}

/// Times of one set-up, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Thesaurus and corpus generation.
    pub corpus: f64,
    /// Inverted index.
    pub index: f64,
    /// Distributional space and PVSM.
    pub space: f64,
    /// The initial `subscribe` calls (projection pinning included).
    pub subscribe: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.corpus + self.index + self.space + self.subscribe
    }
}

/// What a workload's matcher is built from.
pub trait Stack: Sized {
    type Plain: BenchMatcher;
    type Traced: BenchMatcher;
    /// Builds the stack, timing each builder.
    fn build(workload: &Workload) -> (Self, SetupTimes);
    /// The production matcher.
    fn plain(&self) -> Self::Plain;
    /// The production matcher inside the decorators.
    fn traced(&self, ledger: &Arc<Ledger>) -> Self::Traced;
}

/// The thematic stack: thesaurus, corpus, index, space and PVSM.
pub struct SemanticStack {
    pvsm: Arc<ParametricVectorSpace>,
}

impl Stack for SemanticStack {
    type Plain = Thematic;
    type Traced = TracedThematic;

    fn build(workload: &Workload) -> (SemanticStack, SetupTimes) {
        let cfg: &EvalConfig = workload.eval.as_ref().expect("thematic workload config");
        let t = Instant::now();
        let thesaurus = Thesaurus::eurovoc_like();
        let corpus = CorpusGenerator::new(&thesaurus, cfg.corpus.clone()).generate();
        let corpus_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let index = InvertedIndex::build(&corpus);
        let index_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(index)));
        let space_s = t.elapsed().as_secs_f64();
        (
            SemanticStack { pvsm },
            SetupTimes {
                corpus: corpus_s,
                index: index_s,
                space: space_s,
                subscribe: 0.0,
            },
        )
    }

    fn plain(&self) -> Thematic {
        ProbabilisticMatcher::new(
            CachedMeasure::new(ThematicEsaMeasure::new(Arc::clone(&self.pvsm))),
            MatcherConfig::top1(),
        )
    }

    fn traced(&self, ledger: &Arc<Ledger>) -> TracedThematic {
        let kernel = TracedMeasure::new(
            ThematicEsaMeasure::new(Arc::clone(&self.pvsm)),
            MeasureRole::Kernel,
            Arc::clone(ledger),
        );
        let probe = TracedMeasure::new(
            CachedMeasure::new(kernel),
            MeasureRole::Relatedness,
            Arc::clone(ledger),
        );
        TracedMatcher::new(
            ProbabilisticMatcher::new(probe, MatcherConfig::top1()),
            Arc::clone(ledger),
        )
    }
}

/// The exact matcher needs no semantic stack.
pub struct ExactStack;

impl Stack for ExactStack {
    type Plain = ExactMatcher;
    type Traced = TracedMatcher<ExactMatcher>;

    fn build(_: &Workload) -> (ExactStack, SetupTimes) {
        (ExactStack, SetupTimes::default())
    }

    fn plain(&self) -> ExactMatcher {
        ExactMatcher::new()
    }

    fn traced(&self, ledger: &Arc<Ledger>) -> TracedMatcher<ExactMatcher> {
        TracedMatcher::new(ExactMatcher::new(), Arc::clone(ledger))
    }
}

/// A started broker with the stable population subscribed.
pub struct System<M> {
    pub broker: Broker,
    pub matcher: Arc<M>,
    pub receivers: Vec<Receiver<Notification>>,
    /// Duration of each initial `subscribe` call (ns).
    pub subscribe_ns: Vec<u64>,
}

impl<M: BenchMatcher> System<M> {
    /// Starts a broker with production defaults (apart from the
    /// workload's routing policy) and subscribes the stable population.
    pub fn start(matcher: M, workload: &Workload) -> System<M> {
        let matcher = Arc::new(matcher);
        let config = BrokerConfig::default().with_routing_policy(workload.routing);
        let broker = Broker::start(Arc::clone(&matcher), config);
        let mut receivers = Vec::with_capacity(workload.subscriptions.len());
        let mut subscribe_ns = Vec::with_capacity(workload.subscriptions.len());
        for sub in &workload.subscriptions {
            let t = Instant::now();
            let (_, rx) = broker
                .subscribe_arc(Arc::clone(sub))
                .expect("broker accepts subscriptions");
            subscribe_ns.push(t.elapsed().as_nanos() as u64);
            receivers.push(rx);
        }
        System {
            broker,
            matcher,
            receivers,
            subscribe_ns,
        }
    }

    fn subscribe_s(&self) -> f64 {
        self.subscribe_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Shuts the broker down and drops the matcher and the receivers.
    pub fn shutdown(self) {
        self.broker.shutdown();
    }
}

/// The single-threaded reference: per pool event, the sorted stable
/// subscribers the matcher delivers to at `threshold` under the
/// workload's routing. Subscribers sharing one subscription are tested
/// once. Returns the sets and the pass's events per second.
pub fn reference<M: Matcher>(
    matcher: &M,
    workload: &Workload,
    threshold: f64,
) -> (Vec<Vec<u32>>, f64) {
    let mut distinct: Vec<(usize, Vec<u32>)> = Vec::new();
    let mut by_ptr: HashMap<*const tep_events::Subscription, usize> = HashMap::new();
    for (i, sub) in workload.subscriptions.iter().enumerate() {
        let at = *by_ptr.entry(Arc::as_ptr(sub)).or_insert_with(|| {
            distinct.push((i, Vec::new()));
            distinct.len() - 1
        });
        distinct[at].1.push(i as u32);
    }
    let start = Instant::now();
    let expected = workload
        .pool
        .iter()
        .map(|event| {
            matcher.begin_event(event);
            let mut hits = Vec::new();
            for (first, members) in &distinct {
                let sub = &workload.subscriptions[*first];
                let routed = workload.routing == RoutingPolicy::Broadcast
                    || sub.theme_tags().is_empty()
                    || sub.shares_theme_with(event);
                if !routed {
                    continue;
                }
                let result = matcher.match_event(sub, event);
                if !result.is_empty() && result.is_match(threshold) {
                    hits.extend_from_slice(members);
                }
            }
            hits.sort_unstable();
            hits
        })
        .collect();
    let eps = workload.pool.len() as f64 / start.elapsed().as_secs_f64();
    (expected, eps)
}

/// Event counts of a run's phases, derived from `--seconds`.
#[derive(Debug, Clone)]
pub struct Plan {
    pub warmup: usize,
    /// Events per reference window.
    pub window: usize,
    pub burst: usize,
    /// Measured saturation bursts of the untraced run.
    pub bursts: usize,
}

impl Plan {
    /// Splits `seconds`: [`WARMUP_SHARE`] warm-up and [`WINDOWS_SHARE`]
    /// reference windows (per broker) at the reference rate. A
    /// saturation burst has a fixed event count, halved in the traced
    /// run, which bursts on two brokers; the untraced run floods
    /// `spec.flood_per_s` events per second of `seconds`.
    pub fn new(spec: &Spec, seconds: f64) -> Plan {
        let at = |share: f64| ((spec.reference_eps * seconds * share).round() as usize).max(1);
        let flood = spec.flood_per_s * seconds / spec.saturation_events as f64;
        Plan {
            warmup: at(WARMUP_SHARE),
            window: at(WINDOWS_SHARE / ROUNDS as f64),
            burst: spec.saturation_events,
            bursts: (flood.round() as usize).max(ROUNDS),
        }
    }

    /// Publications of the untraced run's broker, whose warm-up ends
    /// with one unmeasured saturation burst.
    fn untraced_ids(&self) -> u64 {
        (self.warmup + (1 + self.bursts) * self.burst) as u64
    }

    /// Publications of each broker of the traced run.
    fn traced_ids(&self) -> u64 {
        (self.warmup + ROUNDS * (self.window + self.traced_burst())) as u64
    }

    /// Events per saturation burst in the traced run.
    fn traced_burst(&self) -> usize {
        self.burst / 2
    }

    /// Seconds of open-loop sending, which bounds the churn operations
    /// and the collector passes.
    fn paced_seconds(&self, spec: &Spec) -> f64 {
        (self.warmup + ROUNDS * self.window) as f64 / spec.reference_eps
    }

    /// An upper bound on the churn calls of one broker.
    fn churn_ops(&self, spec: &Spec) -> usize {
        (spec.churn_per_sec * self.paced_seconds(spec) * 2.0) as usize + ROUNDS * 1024
    }
}

/// Broker counters that count failed deliveries or events.
fn failures(stats: &BrokerStats) -> u64 {
    stats.dropped_full
        + stats.dropped_disconnected
        + stats.rejected_publishes
        + stats.quarantined
        + stats.breaker_open
        + stats.shed_deadline
        + stats.shed_load
}

/// Events per second over all `bursts`: their events over their summed
/// wall time. The host's speed switches between fast and slow stretches
/// of a few seconds, and a median of the bursts followed whichever
/// stretch most of them fell in; the pooled rate averages over all.
fn saturation_eps<'p>(bursts: impl Iterator<Item = &'p PhaseStats>) -> f64 {
    let (events, wall_s) = bursts.fold((0, 0.0), |(e, w), p| (e + p.events, w + p.wall_s));
    ratio(events as f64, wall_s)
}

/// Runs one invocation. The calling thread is the publisher.
pub fn bench(options: &Options) -> Outcome {
    crate::load::tighten_timer_slack();
    let workload = Workload::generate(options.kind, Scale::Bench);
    if options.kind.thematic() {
        drive::<SemanticStack>(options, &workload)
    } else {
        drive::<ExactStack>(options, &workload)
    }
}

/// The set-up samples of a run.
#[derive(Default)]
struct Setups {
    times: Vec<SetupTimes>,
    /// Every initial `subscribe` call (ns) of every set-up.
    subscribe_ns: Vec<u64>,
}

impl Setups {
    fn record<M: BenchMatcher>(&mut self, mut times: SetupTimes, system: &System<M>) {
        times.subscribe = system.subscribe_s();
        self.subscribe_ns.extend_from_slice(&system.subscribe_ns);
        self.times.push(times);
    }

    /// A batch of set-ups, each torn down again.
    fn batch<S: Stack>(&mut self, workload: &Workload) {
        let start = Instant::now();
        for n in 1.. {
            let (stack, times) = S::build(workload);
            let system = System::start(stack.plain(), workload);
            self.record(times, &system);
            system.shutdown();
            if n >= SETUP_BATCH && start.elapsed().as_secs_f64() >= SETUP_BATCH_S {
                break;
            }
        }
    }

    fn median(&self, f: fn(&SetupTimes) -> f64) -> f64 {
        median(&self.times.iter().map(f).collect::<Vec<_>>())
    }
}

/// What every phase of a run shares.
struct Ctx<'a> {
    workload: &'a Workload,
    spec: Spec,
    plan: Plan,
    arena: &'a Arena,
    expected: &'a [Vec<u32>],
    ledger: Arc<Ledger>,
}

impl Ctx<'_> {
    /// A harness over `system` sized for `planned_ids` publications. Only
    /// a harness that `records` keeps latency and collector-pass samples
    /// (in its paced phases).
    fn harness<'s, M: BenchMatcher>(
        &'s self,
        system: &'s System<M>,
        planned_ids: u64,
        records: bool,
        traced: bool,
    ) -> Harness<'s> {
        let paced_s = self.plan.paced_seconds(&self.spec);
        Harness::start(
            &system.broker,
            Arc::clone(&self.ledger),
            self.arena,
            self.expected,
            system.receivers.clone(),
            planned_ids,
            if records { paced_s } else { 0.0 },
            traced,
        )
        .with_churn(
            self.workload.churn.clone(),
            self.spec.churn_per_sec,
            self.plan.churn_ops(&self.spec),
        )
    }
}

/// Everything one broker's load run produced.
struct LoadRun {
    verdict: Verdict,
    failed: u64,
    phases: Vec<(&'static str, PhaseStats)>,
    churn: (Vec<u64>, Vec<u64>),
}

impl LoadRun {
    fn phases(&self, name: &'static str) -> impl Iterator<Item = &PhaseStats> {
        self.phases
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|(_, p)| p)
    }
}

fn drive<S: Stack>(options: &Options, workload: &Workload) -> Outcome {
    let spec = options.kind.spec();
    let plan = Plan::new(&spec, options.seconds);
    let arena = Arena::new(workload, options.seed, SLOTS);
    let threshold = BrokerConfig::default().delivery_threshold;
    let mut setups = Setups::default();
    // The first set-up carries the reference pass, on a stack no load
    // has touched.
    let (stack, times) = S::build(workload);
    let system = System::start(stack.plain(), workload);
    setups.record(times, &system);
    system.shutdown();
    let (expected, reference_eps) = reference(&stack.plain(), workload, threshold);
    drop(stack);
    setups.batch::<S>(workload);

    // The traced broker's set-up subscribes and churn calls prepare.
    let (spans, samples, prepares) = if options.trace {
        let prepares = workload.subscriptions.len() + plan.churn_ops(&spec);
        (ROUNDS * plan.window, 1 << 22, prepares)
    } else {
        (0, 0, 0)
    };
    let ctx = Ctx {
        workload,
        spec,
        ledger: Arc::new(Ledger::new(&arena.slots, spans, samples, prepares)),
        plan,
        arena: &arena,
        expected: &expected,
    };
    let (mut outcome, verdict, failed) = if options.trace {
        traced::<S>(&ctx, &mut setups, options, reference_eps)
    } else {
        untraced::<S>(&ctx, &mut setups)
    };
    outcome.attempted = verdict.expected;
    outcome.failed = failed + verdict.missing + verdict.extra;
    outcome.correct = outcome.failed == 0;
    outcome
}

/// The end-to-end run: a warm-up, then flood bursts back to back. The
/// host's speed drifts over tens of seconds, so the more of the run
/// `saturation_eps` pools, the steadier it is.
fn untraced<S: Stack>(ctx: &Ctx, setups: &mut Setups) -> (Outcome, Verdict, u64) {
    let (spec, plan) = (&ctx.spec, &ctx.plan);
    let (stack, times) = S::build(ctx.workload);
    let system = System::start(stack.plain(), ctx.workload);
    setups.record(times, &system);
    let before = system.broker.stats();
    let mut h = ctx.harness(&system, plan.untraced_ids(), false, false);
    let rate = Pace::Rate(spec.reference_eps);
    // The flood warm-up fills the semantic memo to its steady state, which
    // a paced warm-up on `paper_thematic` did not reach: the first
    // measured burst ran about a fifth slower than the rest.
    let mut phases = vec![
        ("warmup", h.run_phase(rate, plan.warmup, false)),
        ("warmup", h.run_phase(Pace::Flood, plan.burst, false)),
    ];
    for _ in 0..plan.bursts {
        phases.push(("saturation", h.run_phase(Pace::Flood, plan.burst, false)));
    }
    let run = finish(&system, h, ctx.workload, &before, phases);
    system.shutdown();
    drop(stack);
    let peak_rss = peak_rss_mb();
    setups.batch::<S>(ctx.workload);

    let saturation = saturation_eps(run.phases("saturation"));
    let mut out = Outcome::default();
    out.push("saturation_eps", saturation, "1/s");
    out.push("f1", run.verdict.f1(), "ratio");
    out.push("setup_s", setups.median(SetupTimes::total), "s");
    out.push("peak_rss_mb", peak_rss, "MiB");
    (out, run.verdict, run.failed)
}

fn finish<M: BenchMatcher>(
    system: &System<M>,
    harness: Harness<'_>,
    workload: &Workload,
    before: &BrokerStats,
    phases: Vec<(&'static str, PhaseStats)>,
) -> LoadRun {
    let churn = harness.churn_samples();
    let (verdict, _) = harness.finish(&workload.relevant);
    let after = system.broker.stats();
    let errors: u64 = phases.iter().map(|(_, p)| p.publish_errors).sum();
    LoadRun {
        verdict,
        failed: failures(&after) - failures(before) + errors,
        phases,
        churn,
    }
}

/// What the traced run measured.
struct TracedRun {
    /// The traced broker's contiguous reference phase.
    reference: PhaseStats,
    totals: LayerTotals,
    match_samples: Vec<u64>,
    kernel_samples: Vec<u64>,
    prepare_samples: Vec<u64>,
    stats: (BrokerStats, BrokerStats),
    stages: StageLatencies,
    memo: (CacheStats, CacheStats),
    /// `(subscribe, unsubscribe)` call durations (ns).
    writes: (Vec<u64>, Vec<u64>),
    failed: u64,
    reference_eps: f64,
    /// Pooled burst rate of the untraced and the traced broker.
    saturation: (f64, f64),
    /// Medians of the baseline's per-window notify p50 and p99 (ms).
    baseline_notify: (f64, f64),
    allocs_per_event: f64,
    /// Samples any buffer dropped for lack of room (0 in a valid run).
    dropped_samples: u64,
}

/// The traced run: an untraced baseline broker and a traced broker side
/// by side. The traced broker runs the reference phase in one stretch
/// (the per-layer window); then each round runs one reference window on
/// the baseline and one saturation burst on each broker in alternating
/// order (for the tracing overhead). Allocations are counted around the
/// baseline's bursts.
fn traced<S: Stack>(
    ctx: &Ctx,
    setups: &mut Setups,
    options: &Options,
    reference_eps: f64,
) -> (Outcome, Verdict, u64) {
    let (spec, plan, ledger) = (&ctx.spec, &ctx.plan, &ctx.ledger);
    let (plain_stack, times) = S::build(ctx.workload);
    let plain = System::start(plain_stack.plain(), ctx.workload);
    setups.record(times, &plain);
    let (traced_stack, times) = S::build(ctx.workload);
    let traced = System::start(traced_stack.traced(ledger), ctx.workload);
    setups.record(times, &traced);
    let (plain_before, traced_before) = (plain.broker.stats(), traced.broker.stats());
    let mut hp = ctx.harness(&plain, plan.traced_ids(), true, false);
    let mut ht = ctx.harness(&traced, plan.traced_ids(), true, true);
    let rate = Pace::Rate(spec.reference_eps);
    let mut plain_phases = vec![("warmup", hp.run_phase(rate, plan.warmup, false))];
    let mut traced_phases = vec![("warmup", ht.run_phase(rate, plan.warmup, false))];

    ledger.reset(ht.published());
    let stats_before = traced.broker.stats();
    let stages_before = traced.broker.stage_latencies();
    let memo_before = traced.matcher.memo();
    // Half the reference rate for the same time: on the cheap paths the
    // decorators nearly double the cost of an event, and at the full rate
    // the traced broker queued behind its own tracing.
    let half = Pace::Rate(spec.reference_eps / 2.0);
    let reference = ht.run_phase(half, ROUNDS * plan.window / 2, true);
    let stats_after = traced.broker.stats();
    let stages = traced.broker.stage_latencies().delta_since(&stages_before);
    let memo_after = traced.matcher.memo();
    let totals = ledger.totals();
    let match_samples = ledger.match_samples.since(0);
    let kernel_samples = ledger.kernel_samples.since(0);
    // Buffers may overflow in the later bursts, which nothing reads.
    let dropped_samples = ht.dropped_samples()
        + ledger.match_samples.overflow()
        + ledger.kernel_samples.overflow()
        + ledger.prepare_samples.overflow();

    let (mut allocs, mut baseline_events) = (0u64, 0u64);
    for round in 0..ROUNDS {
        plain_phases.push(("reference", hp.run_phase(rate, plan.window, true)));
        for baseline in [round % 2 == 0, round % 2 == 1] {
            if baseline {
                let start = crate::alloc::allocation_count();
                let p = hp.run_phase(Pace::Flood, plan.traced_burst(), false);
                allocs += crate::alloc::allocation_count() - start;
                baseline_events += p.events;
                plain_phases.push(("saturation", p));
            } else {
                traced_phases.push((
                    "saturation",
                    ht.run_phase(Pace::Flood, plan.traced_burst(), false),
                ));
            }
        }
    }
    let prepare_samples = ledger.prepare_samples.since(0);
    let plain_run = finish(&plain, hp, ctx.workload, &plain_before, plain_phases);
    let traced_run = finish(&traced, ht, ctx.workload, &traced_before, traced_phases);
    // No writes under load: the set-up subscribes, and the stable
    // population's unsubscribes, timed once nothing is in flight.
    let unsubscribe: Option<Vec<u64>> = traced_run.churn.0.is_empty().then(|| {
        (0..ctx.workload.subscriptions.len() as u64)
            .map(|id| {
                let t = Instant::now();
                traced.broker.unsubscribe(tep_broker::SubscriptionId(id));
                t.elapsed().as_nanos() as u64
            })
            .collect()
    });
    plain.shutdown();
    traced.shutdown();
    drop((plain_stack, traced_stack));
    setups.batch::<S>(ctx.workload);
    let writes = match unsubscribe {
        Some(unsubscribe) => (setups.subscribe_ns.clone(), unsubscribe),
        None => traced_run.churn.clone(),
    };
    let window_ms = |q: f64| {
        let per_window: Vec<f64> = plain_run
            .phases("reference")
            .map(|p| quantile(&mut p.latencies.clone(), q) as f64 / 1e6)
            .collect();
        median(&per_window)
    };

    let t = TracedRun {
        reference,
        totals,
        match_samples,
        kernel_samples,
        prepare_samples,
        stats: (stats_before, stats_after),
        stages,
        memo: (memo_before, memo_after),
        writes,
        failed: traced_run.failed,
        reference_eps,
        saturation: (
            saturation_eps(plain_run.phases("saturation")),
            saturation_eps(traced_run.phases("saturation")),
        ),
        baseline_notify: (window_ms(0.50), window_ms(0.99)),
        allocs_per_event: ratio(allocs as f64, baseline_events as f64),
        dropped_samples,
    };
    let mut out = Outcome::default();
    layer_metrics(&mut out, ledger, &t, setups);
    if let Ok(dir) = std::env::var("LEDGER_OUT") {
        write_spans(&dir, options, ledger, &t);
    }
    let verdict = add(plain_run.verdict, traced_run.verdict);
    (out, verdict, plain_run.failed + traced_run.failed)
}

fn add(a: Verdict, b: Verdict) -> Verdict {
    Verdict {
        expected: a.expected + b.expected,
        delivered: a.delivered + b.delivered,
        missing: a.missing + b.missing,
        extra: a.extra + b.extra,
        true_positives: a.true_positives + b.true_positives,
        relevant: a.relevant + b.relevant,
    }
}

/// What [`fixed_run`] observed.
#[derive(Debug)]
pub struct FixedRun {
    /// Per stable subscriber, the sorted publication ids delivered.
    pub pairs: Vec<Vec<u32>>,
    pub verdict: Verdict,
    /// Failed deliveries counted by the broker.
    pub failed: u64,
    pub match_tests: u64,
    pub covered_skips: u64,
    pub notifications: u64,
}

/// Publishes `events` as fast as the broker admits through `system`
/// (no churn), checks the deliveries, and shuts the broker down. The
/// benchmark's tests compare a traced and an untraced broker with it.
pub fn fixed_run<M: BenchMatcher>(
    system: System<M>,
    ledger: &Arc<Ledger>,
    arena: &Arena,
    expected: &[Vec<u32>],
    workload: &Workload,
    events: usize,
    traced: bool,
) -> FixedRun {
    let before = system.broker.stats();
    let mut h = Harness::start(
        &system.broker,
        Arc::clone(ledger),
        arena,
        expected,
        system.receivers.clone(),
        events as u64,
        0.0,
        traced,
    );
    let phase = h.run_phase(Pace::Flood, events, false);
    let (verdict, pairs) = h.finish(&workload.relevant);
    let after = system.broker.stats();
    system.shutdown();
    FixedRun {
        pairs,
        verdict,
        failed: failures(&after) - failures(&before) + phase.publish_errors,
        match_tests: after.match_tests - before.match_tests,
        covered_skips: after.covered_skips - before.covered_skips,
        notifications: after.notifications - before.notifications,
    }
}

/// Per-event layer self times (ns) of one traced publication, in the
/// order of [`LAYERS`], and its traced end-to-end latency: scheduled send
/// until the event is fully dispatched and its last notification is
/// received. The rows split that interval at the spans' timestamps, so
/// they sum to it by construction: they attribute the latency, they do
/// not check it (see [`ledger_rows`] for the check). An out-of-order
/// interval is clamped to 0. A worker may begin the dispatch before
/// `publish_arc` has returned to the publisher; the rest of that call is
/// off the event's path, so `publish` ends at the dispatch start.
/// `None` for events that produced no notification.
fn event_layers(span: &EventSpan) -> Option<([f64; 8], f64)> {
    let get = |f: &std::sync::atomic::AtomicU64| f.load(Ordering::Relaxed) as f64;
    let (sched, p0, p1) = (
        get(&span.sched),
        get(&span.publish_start),
        get(&span.publish_end),
    );
    let (begin, last_match, notify) = (
        get(&span.dispatch_begin),
        get(&span.last_match_end),
        get(&span.last_notify),
    );
    if notify == 0.0 || begin == 0.0 || last_match == 0.0 || p1 == 0.0 {
        return None;
    }
    let (m, r, k) = (
        get(&span.match_ns),
        get(&span.relatedness_ns),
        get(&span.kernel_ns),
    );
    let gap = |a: f64, b: f64| (b - a).max(0.0);
    let p1 = p1.min(begin);
    let layers = [
        gap(sched, p0),             // generator lag
        gap(p0, p1),                // inside publish_arc, until dispatch starts
        gap(p1, begin),             // ingress queue, dequeue, candidate fetch
        gap(m, last_match - begin), // dispatch between and around match tests
        gap(r, m),                  // matcher self
        gap(k, r),                  // semantics self: memo probes
        k,                          // semantics kernel: memo misses
        gap(last_match, notify),    // last delivery, channel, collector
    ];
    Some((layers, notify.max(last_match) - sched))
}

/// Names of the per-event ledger rows.
const LAYERS: [&str; 8] = [
    "ledger.gen_lag_us.mean",
    "ledger.publish_us.mean",
    "ledger.queue_us.mean",
    "ledger.dispatch_us.mean",
    "ledger.matcher_self_us.mean",
    "ledger.semantics_self_us.mean",
    "ledger.kernel_us.mean",
    "ledger.notify_us.mean",
];

fn layer_metrics(out: &mut Outcome, ledger: &Ledger, t: &TracedRun, setups: &Setups) {
    let p = &t.reference;
    let events = p.events as f64;
    let (s0, s1) = &t.stats;
    let d = |f: fn(&BrokerStats) -> u64| (f(s1) - f(s0)) as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let q = |v: &[u64], q: f64| quantile(&mut v.to_vec(), q);
    let (subscribe, unsubscribe) = &t.writes;

    // Publish→notification latency at the reference rate: untraced (the
    // baseline broker, median of its window percentiles), and traced.
    out.push("baseline.notify_p50_ms", t.baseline_notify.0, "ms");
    out.push("baseline.notify_p99_ms", t.baseline_notify.1, "ms");
    out.push(
        "trace.notify_p50_ms",
        q(&p.latencies, 0.50) as f64 / 1e6,
        "ms",
    );
    out.push(
        "trace.notify_p99_ms",
        q(&p.latencies, 0.99) as f64 / 1e6,
        "ms",
    );

    // broker
    out.push("broker.publish_ns.p50", q(&p.publish_ns, 0.50) as f64, "ns");
    out.push("broker.publish_ns.p99", q(&p.publish_ns, 0.99) as f64, "ns");
    out.push(
        "broker.queue_wait_us.p50",
        t.stages.queue_wait.p50().as_nanos() as f64 / 1e3,
        "us",
    );
    out.push(
        "broker.queue_wait_us.p99",
        t.stages.queue_wait.p99().as_nanos() as f64 / 1e3,
        "us",
    );
    out.push(
        "broker.backlog.max",
        p.depth.iter().copied().max().unwrap_or(0) as f64,
        "count",
    );
    out.push(
        "broker.deliver_us.p99",
        t.stages.deliver.p99().as_nanos() as f64 / 1e3,
        "us",
    );
    out.push(
        "broker.notifications_per_event",
        ratio(d(|s| s.notifications), events),
        "count",
    );
    out.push("broker.failed", t.failed as f64, "count");
    out.push("broker.subscribe_us.p50", us(q(subscribe, 0.50)), "us");
    out.push("broker.subscribe_us.p99", us(q(subscribe, 0.99)), "us");
    out.push("broker.unsubscribe_us.p99", us(q(unsubscribe, 0.99)), "us");
    out.push("broker.allocs_per_event", t.allocs_per_event, "count");

    // subindex
    out.push("subindex.entries", s1.index_entries as f64, "count");
    out.push(
        "subindex.match_tests_per_event",
        ratio(d(|s| s.match_tests), events),
        "count",
    );
    out.push(
        "subindex.covered_skips_per_event",
        ratio(d(|s| s.covered_skips), events),
        "count",
    );
    out.push(
        "subindex.routing_skipped_per_event",
        ratio(d(|s| s.routing_skipped), events),
        "count",
    );
    out.push(
        "subindex.hit_ratio",
        ratio(d(|s| s.notifications), d(|s| s.match_tests)),
        "ratio",
    );

    // matcher
    let tot = &t.totals;
    out.push(
        "matcher.calls_per_event",
        ratio(tot.match_calls as f64, events),
        "count",
    );
    out.push(
        "matcher.match_ns.p50",
        q(&t.match_samples, 0.50) as f64,
        "ns",
    );
    out.push(
        "matcher.match_ns.p99",
        q(&t.match_samples, 0.99) as f64,
        "ns",
    );
    out.push(
        "matcher.self_ns.mean",
        ratio(
            tot.match_ns.saturating_sub(tot.probe_ns) as f64,
            tot.match_calls as f64,
        ),
        "ns",
    );
    out.push(
        "matcher.busy_frac",
        ratio(tot.match_ns as f64, p.wall_s * 1e9 * WORKERS),
        "ratio",
    );
    out.push("matcher.reference_eps", t.reference_eps, "1/s");

    // semantics
    out.push(
        "semantics.probes_per_match",
        ratio(tot.probes as f64, tot.match_calls as f64),
        "count",
    );
    out.push(
        "semantics.memo_hit_ratio",
        if tot.probes == 0 {
            0.0
        } else {
            1.0 - tot.kernel_calls as f64 / tot.probes as f64
        },
        "ratio",
    );
    out.push(
        "semantics.probe_ns.mean",
        ratio(tot.probe_ns as f64, tot.probes as f64),
        "ns",
    );
    out.push(
        "semantics.kernel_ns.mean",
        ratio(tot.kernel_ns as f64, tot.kernel_calls as f64),
        "ns",
    );
    out.push(
        "semantics.kernel_ns.p99",
        q(&t.kernel_samples, 0.99) as f64,
        "ns",
    );
    out.push(
        "semantics.evictions_per_event",
        ratio((t.memo.1.evictions - t.memo.0.evictions) as f64, events),
        "count",
    );
    out.push(
        "semantics.prepare_us.p99",
        us(q(&t.prepare_samples, 0.99)),
        "us",
    );

    // setup
    let med = |f: fn(&SetupTimes) -> f64| setups.median(f);
    out.push("setup.corpus_s", med(|s| s.corpus), "s");
    out.push("setup.index_s", med(|s| s.index), "s");
    out.push("setup.space_s", med(|s| s.space), "s");
    out.push("setup.subscribe_s", med(|s| s.subscribe), "s");

    // generator validity and the ledger
    out.push("gen.lag_us.p99", us(q(&p.lag, 0.99)), "us");
    out.push("gen.collect_pass_us.p99", us(q(&p.passes, 0.99)), "us");
    out.push("gen.dropped_samples", t.dropped_samples as f64, "count");
    // Two clocks around the same match tests: the broker's own match
    // stage and the matcher decorator.
    let broker_match_ns = t.stages.match_combined().sum().as_nanos() as f64;
    out.push(
        "trace.match_vs_broker",
        ratio(tot.match_ns as f64, broker_match_ns),
        "ratio",
    );
    out.push(
        "trace.overhead_frac",
        ratio(t.saturation.0, t.saturation.1) - 1.0,
        "ratio",
    );
    // Every match test the broker ran went through the decorator: 1.
    out.push(
        "trace.match_calls_vs_broker",
        ratio(tot.match_calls as f64, d(|s| s.match_tests)),
        "ratio",
    );
    for (name, value) in ledger_rows(ledger, p.events as usize, &t.stages) {
        out.push(
            name,
            value,
            if name.ends_with("_frac") {
                "ratio"
            } else {
                "us"
            },
        );
    }
}

/// Mean per-event self time of each layer, the mean traced end-to-end
/// latency, and the share of it that no directly timed span explains.
///
/// The layer rows sum to the end-to-end latency by construction, so the
/// check uses spans that each have their own start and stop: generator
/// lag, the `publish_arc` call, the broker's own enqueue-to-dequeue
/// `queue_wait` (mean per event), the decorator's match tests
/// (relatedness and kernel inside them), and the broker's own `deliver`
/// stage (per notifying event). `trace.unexplained_frac` is 1 − their
/// summed means ÷ the mean end-to-end latency. It is what no timer
/// covers: dequeue bookkeeping, candidate fetch and covering, per-test
/// bookkeeping, the subscriber channel and the collector's pickup. A
/// value below −0.05 means the spans claim more time than elapsed: a
/// span counted twice or filed under the wrong publication, or two
/// clocks that disagree.
fn ledger_rows(
    ledger: &Ledger,
    events: usize,
    stages: &StageLatencies,
) -> Vec<(&'static str, f64)> {
    let get = |f: &std::sync::atomic::AtomicU64| f.load(Ordering::Relaxed) as f64;
    let mut sums = [0.0f64; LAYERS.len()];
    let (mut e2e_sum, mut direct_sum, mut count) = (0.0, 0.0, 0usize);
    for span in ledger.spans(events) {
        let Some((layers, e2e)) = event_layers(span) else {
            continue;
        };
        count += 1;
        e2e_sum += e2e;
        for (sum, layer) in sums.iter_mut().zip(layers) {
            *sum += layer;
        }
        let publish = get(&span.publish_end) - get(&span.publish_start);
        direct_sum += layers[0] + publish + get(&span.match_ns);
    }
    let n = count.max(1) as f64;
    let direct = direct_sum / n
        + stages.queue_wait.mean().as_nanos() as f64
        + stages.deliver.sum().as_nanos() as f64 / n;
    let mut rows: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .zip(sums)
        .map(|(&name, sum)| (name, sum / n / 1e3))
        .collect();
    rows.push(("ledger.e2e_us.mean", e2e_sum / n / 1e3));
    rows.push(("trace.unexplained_frac", 1.0 - ratio(direct, e2e_sum / n)));
    rows
}

/// Writes the traced reference phase's spans, one publication a line.
fn write_spans(dir: &str, options: &Options, ledger: &Ledger, t: &TracedRun) {
    let path = std::path::Path::new(dir).join(format!(
        "{}-seed{}.spans.tsv",
        options.kind.name(),
        options.seed
    ));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            out,
            "publication\tsched\tpublish_start\tpublish_end\tdispatch_begin\t\
             first_match_start\tlast_match_end\tmatch_ns\trelatedness_ns\tkernel_ns\t\
             matches\tlast_notify\tnotifications"
        )?;
        for (i, s) in ledger.spans(t.reference.events as usize).iter().enumerate() {
            let f = [
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
            ]
            .map(|v| v.load(Ordering::Relaxed).to_string());
            writeln!(out, "{}\t{}", t.reference.first_id + i as u64, f.join("\t"))?;
        }
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("tep-ledger: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_command_line() {
        let o = Options::parse(args(
            "--workload exact_fanout --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.kind, Kind::ExactFanout);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 20.0, true));
        assert!(Options::parse(args("--workload nope")).is_err());
        assert!(Options::parse(args("--workload exact_fanout --trace 2")).is_err());
        assert!(Options::parse(args("--seed 1")).is_err());
    }

    #[test]
    fn ledger_layers_split_the_end_to_end_latency() {
        let span = EventSpan::default();
        let set = |f: &std::sync::atomic::AtomicU64, v: u64| f.store(v, Ordering::Relaxed);
        set(&span.sched, 1_000);
        set(&span.publish_start, 1_100);
        set(&span.publish_end, 1_300);
        set(&span.dispatch_begin, 2_000);
        set(&span.last_match_end, 5_000);
        set(&span.match_ns, 2_000);
        set(&span.relatedness_ns, 1_200);
        set(&span.kernel_ns, 500);
        set(&span.last_notify, 5_600);
        let (layers, e2e) = event_layers(&span).expect("complete span");
        assert_eq!(
            layers,
            [100.0, 200.0, 700.0, 1000.0, 800.0, 700.0, 500.0, 600.0]
        );
        assert_eq!(e2e, 4_600.0);
        assert_eq!(layers.iter().sum::<f64>(), e2e);

        // The worker started before publish_arc returned: the publish
        // layer ends at the dispatch start and the sum still holds.
        set(&span.publish_end, 2_500);
        let (layers, e2e) = event_layers(&span).expect("complete span");
        assert_eq!((layers[1], layers[2]), (900.0, 0.0));
        assert_eq!(layers.iter().sum::<f64>(), e2e);
    }
}
