//! Match explainability: why each tested (event, candidate subscriber)
//! pair was accepted or rejected, with the semantic evidence behind the
//! decision.
//!
//! When [`crate::BrokerConfig::explain_capacity`] is non-zero the broker
//! keeps the newest explanations in a bounded ring
//! ([`crate::Broker::explain_last`]); individual subscribers can also opt
//! in per subscription ([`crate::SubscribeOptions::explain`]) to have the
//! explanation attached to each delivered [`crate::Notification`].
//! Explanations are computed *after* the match test from its result, in
//! each subscriber's own predicate order — the matcher is never re-run,
//! so duplicate subscribers sharing one index entry share one test, and
//! an unexplained broker pays only a branch.

use crate::broker::SubscriptionId;
use std::fmt::Write as _;
use tep_matcher::{MatchDetail, PredicateExplanation};
use tep_obs::escape_json;

/// How a match test's semantic work was served, mirroring the three-way
/// stage-latency split ([`crate::StageLatencies`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTemperature {
    /// The subscription has no approximate (`~`) predicate; no semantic
    /// machinery ran at all.
    Exact,
    /// At least one semantic cache missed: the test paid a projection or
    /// vector computation.
    ThematicCold,
    /// Every lookup was served from warm semantic caches.
    CacheWarm,
}

impl CacheTemperature {
    /// Stable lower-kebab label (`exact`, `thematic-cold`, `cache-warm`).
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheTemperature::Exact => "exact",
            CacheTemperature::ThematicCold => "thematic-cold",
            CacheTemperature::CacheWarm => "cache-warm",
        }
    }
}

/// The final disposition of one subscription × event match test.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchOutcome {
    /// Scored at or above the delivery threshold and handed to the
    /// subscriber's channel.
    Delivered,
    /// Scored at or above the threshold, but the subscriber overload
    /// policy dropped the notification.
    DeliveryDropped,
    /// A valid mapping exists but its score is below the delivery
    /// threshold.
    BelowThreshold,
    /// No valid mapping between predicates and tuples exists at all.
    NoMapping,
    /// Every match attempt panicked; the event was quarantined.
    Panicked {
        /// The panic payload, when it was a string (matcher panics
        /// usually are).
        reason: String,
    },
}

impl MatchOutcome {
    /// Stable lower-kebab label (`delivered`, `delivery-dropped`,
    /// `below-threshold`, `no-mapping`, `panicked`).
    pub fn as_str(&self) -> &'static str {
        match self {
            MatchOutcome::Delivered => "delivered",
            MatchOutcome::DeliveryDropped => "delivery-dropped",
            MatchOutcome::BelowThreshold => "below-threshold",
            MatchOutcome::NoMapping => "no-mapping",
            MatchOutcome::Panicked { .. } => "panicked",
        }
    }

    /// Whether the test cleared the delivery threshold (delivered or
    /// dropped by an overload policy).
    pub fn is_accepted(&self) -> bool {
        matches!(
            self,
            MatchOutcome::Delivered | MatchOutcome::DeliveryDropped
        )
    }
}

/// One tested (event, candidate subscriber) pair, explained: the score
/// against the threshold, the themes both sides projected under, how the
/// semantic caches served the test, and (when the matcher exposes it)
/// per-predicate distances and projection dimensionalities.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchExplanation {
    /// Publish-order sequence number of the event.
    pub seq: u64,
    /// The subscription tested.
    pub subscription: SubscriptionId,
    /// The best mapping's score (0.0 when none exists or the test
    /// panicked).
    pub score: f64,
    /// The broker's delivery threshold the score was compared against.
    pub threshold: f64,
    /// The subscription's theme tags — the projection context its terms
    /// were scored under.
    pub subscription_themes: Vec<String>,
    /// The event's theme tags.
    pub event_themes: Vec<String>,
    /// How the semantic caches served the test.
    pub temperature: CacheTemperature,
    /// The final disposition.
    pub outcome: MatchOutcome,
    /// Per-predicate evidence (pairings, similarities, distances,
    /// projection dimensionalities). `None` when the test panicked before
    /// producing a result.
    pub detail: Option<MatchDetail>,
}

impl MatchExplanation {
    /// Whether the test cleared the delivery threshold.
    pub fn is_accepted(&self) -> bool {
        self.outcome.is_accepted()
    }

    /// Renders this explanation as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"seq\": {}, \"subscription\": \"{}\", \"score\": {}, \"threshold\": {}, \
             \"temperature\": \"{}\", \"outcome\": \"{}\"",
            self.seq,
            self.subscription,
            json_f64(self.score),
            json_f64(self.threshold),
            self.temperature.as_str(),
            self.outcome.as_str(),
        );
        if let MatchOutcome::Panicked { reason } = &self.outcome {
            let _ = write!(out, ", \"panic_reason\": \"{}\"", escape_json(reason));
        }
        push_string_array(&mut out, "subscription_themes", &self.subscription_themes);
        push_string_array(&mut out, "event_themes", &self.event_themes);
        match &self.detail {
            None => out.push_str(", \"detail\": null"),
            Some(d) => {
                let _ = write!(
                    out,
                    ", \"detail\": {{\"matcher\": \"{}\", \"mapped\": {}, \"predicates\": [",
                    escape_json(d.matcher),
                    d.mapped,
                );
                for (i, p) in d.predicates.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    push_predicate(&mut out, p);
                }
                out.push_str("]}");
            }
        }
        out.push('}');
        out
    }
}

/// Renders a batch of explanations as a JSON array, oldest first — the
/// payload behind the scrape server's `/explain` endpoint.
pub fn render_explanations_json(explanations: &[MatchExplanation]) -> String {
    let mut out = String::from("[");
    for (i, e) in explanations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&e.to_json());
    }
    out.push_str("\n]\n");
    out
}

/// Finite floats render as themselves; NaN/inf have no JSON spelling and
/// degrade to null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn push_string_array(out: &mut String, key: &str, values: &[String]) {
    let _ = write!(out, ", \"{key}\": [");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", escape_json(v));
    }
    out.push(']');
}

fn push_predicate(out: &mut String, p: &PredicateExplanation) {
    let _ = write!(
        out,
        "{{\"predicate\": {}, \"attribute\": \"{}\", \"value\": \"{}\", \"tuple\": {}, \
         \"similarity\": {}",
        p.predicate,
        escape_json(&p.attribute),
        escape_json(&p.value),
        p.tuple
            .map_or_else(|| "null".to_string(), |t| t.to_string()),
        json_f64(p.similarity),
    );
    if let Some(a) = &p.tuple_attribute {
        let _ = write!(out, ", \"tuple_attribute\": \"{}\"", escape_json(a));
    }
    if let Some(v) = &p.tuple_value {
        let _ = write!(out, ", \"tuple_value\": \"{}\"", escape_json(v));
    }
    for (key, detail) in [
        ("attribute_detail", &p.attribute_detail),
        ("value_detail", &p.value_detail),
    ] {
        if let Some(d) = detail {
            let _ = write!(
                out,
                ", \"{key}\": {{\"score\": {}, \"distance\": {}, \"dims_full\": [{}, {}], \
                 \"dims_projected\": [{}, {}]}}",
                json_f64(d.score),
                d.distance.map_or_else(|| "null".to_string(), json_f64),
                d.dims_full_s,
                d.dims_full_e,
                d.dims_projected_s,
                d.dims_projected_e,
            );
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use tep_matcher::RelatednessDetail;

    fn explanation(outcome: MatchOutcome) -> MatchExplanation {
        MatchExplanation {
            seq: 42,
            subscription: SubscriptionId(3),
            score: 0.5,
            threshold: 0.25,
            subscription_themes: vec!["energy policy".to_string()],
            event_themes: vec!["power \"grid\"".to_string()],
            temperature: CacheTemperature::ThematicCold,
            outcome,
            detail: Some(MatchDetail {
                matcher: "probabilistic",
                score: 0.5,
                mapped: true,
                predicates: vec![PredicateExplanation {
                    predicate: 0,
                    attribute: "type".to_string(),
                    value: "energy usage".to_string(),
                    tuple: Some(1),
                    tuple_attribute: Some("type".to_string()),
                    tuple_value: Some("energy consumption".to_string()),
                    similarity: 0.5,
                    attribute_detail: Some(RelatednessDetail::score_only(1.0)),
                    value_detail: None,
                }],
            }),
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CacheTemperature::Exact.as_str(), "exact");
        assert_eq!(CacheTemperature::ThematicCold.as_str(), "thematic-cold");
        assert_eq!(CacheTemperature::CacheWarm.as_str(), "cache-warm");
        assert_eq!(MatchOutcome::Delivered.as_str(), "delivered");
        assert_eq!(MatchOutcome::DeliveryDropped.as_str(), "delivery-dropped");
        assert_eq!(MatchOutcome::BelowThreshold.as_str(), "below-threshold");
        assert_eq!(MatchOutcome::NoMapping.as_str(), "no-mapping");
        assert_eq!(
            MatchOutcome::Panicked {
                reason: "x".to_string()
            }
            .as_str(),
            "panicked"
        );
        assert!(MatchOutcome::Delivered.is_accepted());
        assert!(MatchOutcome::DeliveryDropped.is_accepted());
        assert!(!MatchOutcome::NoMapping.is_accepted());
    }

    #[test]
    fn json_is_balanced_and_escaped() {
        let json = explanation(MatchOutcome::Delivered).to_json();
        assert!(json.contains("\"seq\": 42"));
        assert!(json.contains("\"subscription\": \"s3\""));
        assert!(json.contains("\"outcome\": \"delivered\""));
        assert!(json.contains("\"temperature\": \"thematic-cold\""));
        assert!(
            json.contains("power \\\"grid\\\""),
            "theme tags must be JSON-escaped: {json}"
        );
        assert!(json.contains("\"attribute_detail\""));
        assert!(!json.contains("\"value_detail\""));
        assert_eq!(
            json.matches(['{', '[']).count(),
            json.matches(['}', ']']).count()
        );
    }

    #[test]
    fn panic_outcome_carries_the_reason() {
        let mut e = explanation(MatchOutcome::Panicked {
            reason: "injected \"fault\"".to_string(),
        });
        e.detail = None;
        let json = e.to_json();
        assert!(json.contains("\"outcome\": \"panicked\""));
        assert!(json.contains("\"panic_reason\": \"injected \\\"fault\\\"\""));
        assert!(json.contains("\"detail\": null"));
    }

    #[test]
    fn array_rendering_separates_entries() {
        let batch = [
            explanation(MatchOutcome::Delivered),
            explanation(MatchOutcome::BelowThreshold),
        ];
        let json = render_explanations_json(&batch);
        assert!(json.starts_with('['));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches("\"seq\": 42").count(), 2);
        assert_eq!(render_explanations_json(&[]), "[\n]\n");
    }

    #[test]
    fn non_finite_floats_degrade_to_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(0.25), "0.25");
    }
}
