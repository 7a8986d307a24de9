//! Global term/theme interning: `u32` symbols for the semantic hot path.
//!
//! Every `(Theme, String)` cache key the PVSM used to build allocated a
//! fresh `String` and cloned a `Theme` *even on a cache hit*. Interning
//! replaces those keys with copyable `(ThemeId, TermId)` pairs: the interner
//! is probed with borrowed data (`&str` / `&Theme`), so the steady state —
//! every term and theme already interned — performs zero allocations.
//!
//! The tables are sharded and guarded by cheap read-locks (the workspace
//! forbids `unsafe`, so a true lock-free table is off the menu); after
//! warm-up essentially every access is a read-lock acquire plus one hash
//! probe, which is uncontended across broker workers.
//!
//! Ids are process-global and stable for the lifetime of the process. They
//! are never recycled; the tables only grow with the *vocabulary*, not with
//! event volume, so growth is bounded by the corpus and workload schema.

use crate::fxhash::{fx_hash64, FxBuildHasher};
use crate::theme::Theme;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

type FxMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Interned symbol for a vocabulary term (attribute name, value term, …).
///
/// Two `TermId`s are equal iff the exact strings they intern are equal (no
/// normalization is applied at interning time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The raw symbol value.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// A placeholder id for pre-zeroed cache slots (never handed out for
    /// a real term by itself — only meaningful alongside a liveness tag).
    pub(crate) const fn placeholder() -> TermId {
        TermId(0)
    }
}

/// Interned symbol for a normalized [`Theme`].
///
/// Aliased spellings of the same tag set (different order, case, or
/// whitespace) intern to the **same** `ThemeId`, because interning goes
/// through the canonical `Theme` representation. [`ThemeId::EMPTY`] is
/// reserved for the empty theme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThemeId(u32);

impl ThemeId {
    /// The id of the empty theme (no thematic information).
    pub const EMPTY: ThemeId = ThemeId(0);

    /// The raw symbol value.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Whether this is the empty theme's id.
    pub fn is_empty_theme(self) -> bool {
        self == ThemeId::EMPTY
    }
}

const TERM_SHARDS: usize = 16;

struct Interner {
    /// term string → id, sharded by string hash so concurrent interning of
    /// disjoint vocabularies does not contend.
    term_ids: [RwLock<FxMap<Box<str>, u32>>; TERM_SHARDS],
    /// id → term string (index = id).
    terms: RwLock<Vec<Arc<str>>>,
    /// canonical theme → id. `Theme` hashes by its precomputed fingerprint,
    /// so probing is O(1) and allocation-free.
    theme_ids: RwLock<FxMap<Theme, u32>>,
    /// id → canonical theme (index = id). Slot 0 is the empty theme.
    themes: RwLock<Vec<Arc<Theme>>>,
    /// Verbatim tag-list → theme id front cache, so callers holding a raw
    /// `&[String]` tag slice (events, subscriptions) skip `Theme::new`'s
    /// normalize-sort-dedup-hash work entirely on repeat sightings.
    /// `Vec<String>: Borrow<[String]>` makes the probe allocation-free.
    tags_front: RwLock<FxMap<Vec<String>, u32>>,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| {
        let empty = Arc::new(Theme::empty());
        let mut theme_ids = FxMap::default();
        theme_ids.insert((*empty).clone(), 0);
        Interner {
            term_ids: std::array::from_fn(|_| RwLock::new(FxMap::default())),
            terms: RwLock::new(Vec::new()),
            theme_ids: RwLock::new(theme_ids),
            themes: RwLock::new(vec![empty]),
            tags_front: RwLock::new(FxMap::default()),
        }
    })
}

fn term_shard(term: &str) -> usize {
    // High word: the shard's inner map hashes with the same function and
    // indexes buckets by the low bits (see `ShardedCache::shard`).
    ((fx_hash64(&term) >> 32) as usize) % TERM_SHARDS
}

/// Interns `term`, returning its stable id. Alloc-free when the term is
/// already interned.
pub fn intern_term(term: &str) -> TermId {
    let it = interner();
    let shard = &it.term_ids[term_shard(term)];
    if let Some(&id) = shard.read().get(term) {
        return TermId(id);
    }
    // Miss path: allocate the key, assign the next id under the `terms`
    // write lock (double-checked under the shard write lock).
    let mut map = shard.write();
    if let Some(&id) = map.get(term) {
        return TermId(id);
    }
    let mut terms = it.terms.write();
    let id = u32::try_from(terms.len()).expect("interner overflow: > 4 billion terms");
    terms.push(Arc::from(term));
    map.insert(Box::from(term), id);
    TermId(id)
}

/// The string a [`TermId`] was interned from.
///
/// # Panics
///
/// Panics if `id` was not produced by [`intern_term`] in this process.
pub fn resolve_term(id: TermId) -> Arc<str> {
    Arc::clone(&interner().terms.read()[id.0 as usize])
}

/// Interns a (canonical) theme, returning its stable id. Alloc-free when
/// the theme is already interned; probing hashes only the theme's
/// precomputed fingerprint.
pub fn intern_theme(theme: &Theme) -> ThemeId {
    let it = interner();
    if let Some(&id) = it.theme_ids.read().get(theme) {
        return ThemeId(id);
    }
    let mut map = it.theme_ids.write();
    if let Some(&id) = map.get(theme) {
        return ThemeId(id);
    }
    let mut themes = it.themes.write();
    let id = u32::try_from(themes.len()).expect("interner overflow: > 4 billion themes");
    themes.push(Arc::new(theme.clone()));
    map.insert(theme.clone(), id);
    ThemeId(id)
}

/// The canonical [`Theme`] a [`ThemeId`] was interned from.
///
/// # Panics
///
/// Panics if `id` was not produced by this process's interner.
pub fn resolve_theme(id: ThemeId) -> Arc<Theme> {
    Arc::clone(&interner().themes.read()[id.0 as usize])
}

/// Resolves a raw tag list (as carried by events and subscriptions) to its
/// interned theme, building the canonical [`Theme`] only on first sighting.
///
/// This is the matcher's per-call entry point: the old hot path ran
/// `Theme::new(tags)` — normalize, sort, dedup, hash, allocate — for both
/// sides of *every* `match_event`. With the front cache a repeat tag list
/// costs one read-lock probe. Callers that need the canonical theme
/// itself follow up with [`resolve_theme`].
pub fn theme_for_tags(tags: &[String]) -> ThemeId {
    let it = interner();
    if let Some(&id) = it.tags_front.read().get(tags) {
        return ThemeId(id);
    }
    let id = intern_theme(&Theme::new(tags));
    it.tags_front.write().insert(tags.to_vec(), id.0);
    id
}

/// Number of interned terms and themes, for diagnostics: `(terms, themes)`.
pub fn interner_sizes() -> (usize, usize) {
    let it = interner();
    (it.terms.read().len(), it.themes.read().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn term_ids_are_stable_and_resolve_round_trips() {
        let a = intern_term("energy consumption");
        let b = intern_term("energy consumption");
        assert_eq!(a, b);
        assert_eq!(&*resolve_term(a), "energy consumption");
        let c = intern_term("electricity usage");
        assert_ne!(a, c);
        assert_eq!(&*resolve_term(c), "electricity usage");
    }

    #[test]
    fn terms_are_not_normalized() {
        // Interning is exact: case variants are distinct symbols. (The
        // semantic layer normalizes *before* interning where it matters.)
        assert_ne!(intern_term("Parking"), intern_term("parking"));
    }

    #[test]
    fn empty_theme_has_reserved_id() {
        assert_eq!(intern_theme(&Theme::empty()), ThemeId::EMPTY);
        assert!(resolve_theme(ThemeId::EMPTY).is_empty());
        assert!(ThemeId::EMPTY.is_empty_theme());
    }

    #[test]
    fn aliased_theme_spellings_share_an_id() {
        let a = intern_theme(&Theme::new(["Energy Policy", "land transport"]));
        let b = intern_theme(&Theme::new(["land  transport", "energy policy"]));
        assert_eq!(a, b);
        assert_eq!(
            resolve_theme(a).tags(),
            &["energy policy".to_string(), "land transport".to_string()]
        );
    }

    #[test]
    fn tags_front_cache_matches_canonical_interning() {
        let tags = vec!["Air Quality".to_string(), "ozone".to_string()];
        let id1 = theme_for_tags(&tags);
        let id2 = theme_for_tags(&tags);
        assert_eq!(id1, id2);
        assert!(Arc::ptr_eq(&resolve_theme(id1), &resolve_theme(id2)));
        // A different spelling of the same set resolves to the same id.
        let respelled = vec!["ozone".to_string(), "air quality".to_string()];
        let id3 = theme_for_tags(&respelled);
        assert_eq!(id1, id3);
        assert_eq!(id1, intern_theme(&Theme::new(["ozone", "air quality"])));
    }

    #[test]
    fn concurrent_interning_returns_stable_ids() {
        let words: Vec<String> = (0..64).map(|i| format!("concurrent term {i}")).collect();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let words = words.clone();
                thread::spawn(move || words.iter().map(|w| intern_term(w)).collect::<Vec<_>>())
            })
            .collect();
        let results: Vec<Vec<TermId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &results[1..] {
            assert_eq!(ids, &results[0], "all threads must agree on ids");
        }
        for (word, id) in words.iter().zip(&results[0]) {
            assert_eq!(&*resolve_term(*id), word.as_str());
        }
    }

    #[test]
    fn concurrent_theme_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                thread::spawn(move || {
                    (0..32)
                        .map(|i| intern_theme(&Theme::new([format!("shared tag {i}")])))
                        .collect::<Vec<_>>()
                        // Also exercise the front cache concurrently.
                        .into_iter()
                        .chain(
                            (0..4).map(|i| theme_for_tags(&[format!("front tag {}", (t + i) % 4)])),
                        )
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<ThemeId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &results[1..] {
            assert_eq!(ids[..32], results[0][..32]);
        }
    }
}
