//! The three benchmark workloads. Their subscriptions and events are
//! drawn from fixed seeds of their own; the run seed orders the
//! publications (`load::Arena`). Per-seed content added a workload spread
//! on top of run-to-run timing noise. The broker receives only the
//! generated subscriptions and events.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use tep_broker::RoutingPolicy;
use tep_eval::{EvalConfig, ThemeSampler};
use tep_events::{Event, Subscription};
use tep_thesaurus::{Domain, Thesaurus};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's configuration through the broker: the thematic matcher
    /// with its relatedness memo, the quick-scale evaluation workload,
    /// themes drawn per event and per subscription by the §5.2.4 sampler
    /// over the size grid, broadcast routing. The semantic working set
    /// overflows the memo, so the `semantics` kernel and the `matcher` do
    /// most of the work. The only workload with a paper-comparable F1.
    PaperThematic,
    /// `ExactMatcher` under theme-overlap routing: a few hundred distinct
    /// exact subscriptions (with subset/superset covering pairs)
    /// replicated to thousands of subscribers under single-domain themes,
    /// and events with a controlled hit rate. A match test costs tens of
    /// nanoseconds, so the ingress queue, batch dequeue, the `subindex`
    /// candidate fetch and covering, and per-member delivery dominate;
    /// `semantics` does no work.
    ExactFanout,
    /// The thematic stack with a hot cache and writes: events repeat from
    /// a small pool of producers with fixed themes (memo hit ratio
    /// ~0.99), while a separate churn set calls `subscribe` and
    /// `unsubscribe` at a fixed rate beside the stable population. The
    /// cache-hit path and the matcher's own work replace the kernel;
    /// index inserts and projection pinning run beside dispatch reads.
    ///
    /// Only the stable population is checked against the reference:
    /// whether a churn subscriber sees an event published while it
    /// registers or unregisters is a race by design.
    HotThematicChurn,
}

/// Fixed per-workload load parameters. They were chosen once from the
/// saturation throughput measured at the commit that introduced this
/// benchmark, on a 2-core box, and are not to be retuned per change.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Open-loop rate (events/s) of the paced phases: the windows beside
    /// which the churn calls and the notification latencies are timed.
    pub reference_eps: f64,
    /// Events per saturation burst.
    pub saturation_events: usize,
    /// Events the untraced run floods per second of `--seconds`: the
    /// share of the run to spend at saturation times the saturation
    /// rate measured when the benchmark was written.
    pub flood_per_s: f64,
    /// Churn subscribe calls per second (each followed by an
    /// unsubscribe), zero for workloads without churn.
    pub churn_per_sec: f64,
}

impl Kind {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [
        Kind::PaperThematic,
        Kind::ExactFanout,
        Kind::HotThematicChurn,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperThematic => "paper_thematic",
            Kind::ExactFanout => "exact_fanout",
            Kind::HotThematicChurn => "hot_thematic_churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload runs the thematic matcher.
    pub fn thematic(self) -> bool {
        !matches!(self, Kind::ExactFanout)
    }

    /// The fixed load parameters.
    pub fn spec(self) -> Spec {
        match self {
            Kind::PaperThematic => Spec {
                reference_eps: 280.0,
                saturation_events: 2000,
                flood_per_s: 800.0,
                churn_per_sec: 0.0,
            },
            Kind::ExactFanout => Spec {
                reference_eps: 3200.0,
                saturation_events: 12000,
                flood_per_s: 10500.0,
                churn_per_sec: 0.0,
            },
            Kind::HotThematicChurn => Spec {
                reference_eps: 5500.0,
                saturation_events: 32000,
                flood_per_s: 13500.0,
                churn_per_sec: 400.0,
            },
        }
    }
}

/// Workload size: the benchmark scale, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Test,
}

/// One generated workload.
#[derive(Debug)]
pub struct Workload {
    pub kind: Kind,
    pub routing: RoutingPolicy,
    /// Configuration of the semantic stack (thematic workloads only).
    pub eval: Option<EvalConfig>,
    /// The stable subscriber population; subscribers with equal content
    /// share one `Arc`. Checked against the reference.
    pub subscriptions: Vec<Arc<Subscription>>,
    /// Subscriptions the churn loop registers and removes (unchecked).
    pub churn: Vec<Arc<Subscription>>,
    /// The distinct event contents; publications cycle over them.
    pub pool: Vec<Event>,
    /// Ground truth: per pool event, the sorted indices of the stable
    /// subscribers it is relevant to.
    pub relevant: Vec<Vec<u32>>,
}

impl Workload {
    /// Generates workload `kind`.
    pub fn generate(kind: Kind, scale: Scale) -> Workload {
        match kind {
            Kind::PaperThematic | Kind::HotThematicChurn => thematic(kind, scale),
            Kind::ExactFanout => exact_fanout(scale),
        }
    }
}

/// The quick-scale evaluation workload (tiny for tests) with its own
/// fixed seed: the subscription population is the same for every run
/// seed.
fn eval_config(scale: Scale) -> EvalConfig {
    match scale {
        Scale::Bench => EvalConfig::quick(),
        Scale::Test => EvalConfig::tiny(),
    }
}

/// Draws theme tags the §5.2.4 way: a cell of the size grid, then one
/// side of a sampled combination.
struct ThemeDraw {
    sampler: ThemeSampler,
    rng: SmallRng,
    grid: Vec<usize>,
}

impl ThemeDraw {
    fn new(thesaurus: &Thesaurus, grid: &[usize], seed: u64) -> ThemeDraw {
        ThemeDraw {
            sampler: ThemeSampler::new(thesaurus, seed),
            rng: SmallRng::seed_from_u64(seed ^ 0x7E4E_0001),
            grid: grid.to_vec(),
        }
    }

    fn tags(&mut self, event_side: bool) -> Vec<String> {
        let e = self.grid[self.rng.gen_range(0..self.grid.len())];
        let s = self.grid[self.rng.gen_range(0..self.grid.len())];
        let combo = self.sampler.sample(e, s);
        if event_side {
            combo.event_tags
        } else {
            combo.subscription_tags
        }
    }
}

/// The thematic workloads. Subscriptions, events and their themes are
/// drawn from the evaluation config's own seed.
fn thematic(kind: Kind, scale: Scale) -> Workload {
    let cfg = eval_config(scale);
    let thesaurus = Thesaurus::eurovoc_like();
    let eval = tep_eval::Workload::generate_with(&thesaurus, &cfg);
    let mut fixed = ThemeDraw::new(&thesaurus, &cfg.subscription_theme_sizes, cfg.seed);
    // A seed of their own: with the subscriptions' seed, event draw `j`
    // would be the other side of subscription draw `j`'s combination.
    let mut events = ThemeDraw::new(&thesaurus, &cfg.event_theme_sizes, cfg.seed ^ 1);
    let gt = eval.ground_truth();
    match kind {
        Kind::PaperThematic => {
            let subscriptions: Vec<Arc<Subscription>> = eval
                .subscriptions()
                .iter()
                .map(|s| Arc::new(s.with_theme_tags(fixed.tags(false))))
                .collect();
            let pool: Vec<Event> = eval
                .events()
                .iter()
                .map(|e| e.with_theme_tags(events.tags(true)))
                .collect();
            let relevant = (0..pool.len())
                .map(|e| {
                    (0..subscriptions.len() as u32)
                        .filter(|&s| gt.is_relevant(s as usize, e))
                        .collect()
                })
                .collect();
            Workload {
                kind,
                routing: RoutingPolicy::Broadcast,
                eval: Some(cfg),
                subscriptions,
                churn: Vec::new(),
                pool,
                relevant,
            }
        }
        _ => {
            let (stable, producers) = match scale {
                Scale::Bench => (8, 128),
                Scale::Test => (4, 16),
            };
            let all = eval.subscriptions();
            let subscriptions: Vec<Arc<Subscription>> = all[..stable]
                .iter()
                .map(|s| Arc::new(s.with_theme_tags(fixed.tags(false))))
                .collect();
            let churn = all[stable..]
                .iter()
                .map(|s| Arc::new(s.with_theme_tags(fixed.tags(false))))
                .collect();
            let mut pick = SmallRng::seed_from_u64(cfg.seed ^ 0x7E4E_0002);
            let mut picked: Vec<usize> = (0..eval.events().len()).collect();
            for i in 0..producers {
                let j = pick.gen_range(i..picked.len());
                picked.swap(i, j);
            }
            picked.truncate(producers);
            let pool = picked
                .iter()
                .map(|&e| eval.events()[e].with_theme_tags(events.tags(true)))
                .collect();
            let relevant = picked
                .iter()
                .map(|&e| {
                    (0..stable as u32)
                        .filter(|&s| gt.is_relevant(s as usize, e))
                        .collect()
                })
                .collect();
            Workload {
                kind,
                routing: RoutingPolicy::Broadcast,
                eval: Some(cfg),
                subscriptions,
                churn,
                pool,
                relevant,
            }
        }
    }
}

/// Attributes in the exact workload's vocabulary.
const ATTRIBUTES: usize = 24;
/// Values per attribute.
const VALUES: usize = 8;
/// Tuples per event.
const TUPLES: usize = 6;

/// Seed of the exact workload's subscriptions and events.
const EXACT_SEED: u64 = 0xE8AC_7000;

/// The exact workload.
fn exact_fanout(scale: Scale) -> Workload {
    let (distinct, members_per_theme, pool_len) = match scale {
        Scale::Bench => (300, 2, 2048),
        Scale::Test => (40, 2, 128),
    };
    let mut rng = SmallRng::seed_from_u64(EXACT_SEED);
    let thesaurus = Thesaurus::eurovoc_like();
    let themes: Vec<String> = Domain::ALL
        .iter()
        .map(|d| thesaurus.top_terms(*d)[0].as_str().to_string())
        .collect();
    let attr = |a: usize| format!("sensor{a:02}");
    let value = |v: usize| format!("level{v}");

    // Distinct predicate sets: fresh ones of 1-3 predicates, and about a
    // third built by adding one predicate to an earlier set, so the
    // index has subset (covering) pairs to prune.
    let mut sets: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut seen: HashSet<Vec<(usize, usize)>> = HashSet::new();
    while sets.len() < distinct {
        let mut set: Vec<(usize, usize)> = if !sets.is_empty() && rng.gen_bool(0.35) {
            let base = &sets[rng.gen_range(0..sets.len())];
            if base.len() >= 3 {
                continue;
            }
            let mut set = base.clone();
            let a = rng.gen_range(0..ATTRIBUTES);
            if set.iter().any(|&(x, _)| x == a) {
                continue;
            }
            set.push((a, rng.gen_range(0..VALUES)));
            set
        } else {
            let n = match rng.gen_range(0..10) {
                0..=3 => 1,
                4..=7 => 2,
                _ => 3,
            };
            let mut set: Vec<(usize, usize)> = Vec::new();
            while set.len() < n {
                let a = rng.gen_range(0..ATTRIBUTES);
                if !set.iter().any(|&(x, _)| x == a) {
                    set.push((a, rng.gen_range(0..VALUES)));
                }
            }
            set
        };
        set.sort_unstable();
        if seen.insert(set.clone()) {
            sets.push(set);
        }
    }

    // Every distinct set under every single-domain theme, with
    // `members_per_theme` subscribers sharing each (set, theme) entry.
    let mut subscriptions = Vec::new();
    let mut member_of = Vec::new();
    for (d, set) in sets.iter().enumerate() {
        for theme in &themes {
            let mut builder = Subscription::builder().theme_tag(theme);
            for &(a, v) in set {
                builder = builder.predicate_exact(&attr(a), &value(v));
            }
            let sub = Arc::new(builder.build().expect("valid exact subscription"));
            for _ in 0..members_per_theme {
                subscriptions.push(Arc::clone(&sub));
                member_of.push(d);
            }
        }
    }

    // Events: four in five embed a random distinct set (so it and every
    // subset match), the rest are random; six tuples over distinct
    // attributes and one domain theme.
    let mut pool = Vec::with_capacity(pool_len);
    let mut pairs_of = Vec::with_capacity(pool_len);
    for _ in 0..pool_len {
        let mut tuples: Vec<(usize, usize)> = if rng.gen_bool(0.8) {
            sets[rng.gen_range(0..sets.len())].clone()
        } else {
            Vec::new()
        };
        while tuples.len() < TUPLES {
            let a = rng.gen_range(0..ATTRIBUTES);
            if !tuples.iter().any(|&(x, _)| x == a) {
                tuples.push((a, rng.gen_range(0..VALUES)));
            }
        }
        for i in (1..tuples.len()).rev() {
            let j = rng.gen_range(0..=i);
            tuples.swap(i, j);
        }
        let theme = rng.gen_range(0..themes.len());
        let mut builder = Event::builder().theme_tag(&themes[theme]);
        for &(a, v) in &tuples {
            builder = builder.tuple(&attr(a), &value(v));
        }
        pool.push(builder.build().expect("valid event"));
        pairs_of.push((theme, tuples));
    }

    // Ground truth by construction: every predicate appears among the
    // event's tuples, and the subscriber's theme is the event's theme.
    let relevant = pairs_of
        .iter()
        .map(|(theme, tuples)| {
            (0..subscriptions.len())
                .filter(|&i| {
                    subscriptions[i].theme_tags()[0] == themes[*theme]
                        && sets[member_of[i]].iter().all(|p| tuples.contains(p))
                })
                .map(|i| i as u32)
                .collect()
        })
        .collect();
    Workload {
        kind: Kind::ExactFanout,
        routing: RoutingPolicy::ThemeOverlap,
        eval: None,
        subscriptions,
        churn: Vec::new(),
        pool,
        relevant,
    }
}
