//! Memo tables for the four expensive judgments: head normalization,
//! definitional equality, row normalization, and disjointness verdicts.
//!
//! All four tables key on canonical [`ConId`]s (see [`crate::intern`]) plus
//! the *semantic generation* of the [`crate::env::Env`] the judgment ran
//! under: two envs share a generation only when they have identical
//! constructor bindings and disjointness facts, so a `(ConId, env_gen)` key
//! pins down every input the judgment reads — except the metavariable
//! store.
//!
//! Metavariable solutions are **write-once and monotone**: `MetaCx::solve`
//! / `solve_kind` assert the slot was unsolved, and elaborator error
//! recovery never rolls the store back. Each entry therefore records the
//! meta generation at store time and is served only while no further
//! solution has been recorded — *unless* the entry is `stable`, meaning no
//! future solution can change it:
//!
//! * `hnf` results containing no `Con::Meta` node (hnf never reads kinds,
//!   so kind metas are irrelevant to it);
//! * `defeq == true` (solving metas only makes more terms equal, never
//!   fewer);
//! * row normal forms all of whose components are meta-free, con and kind
//!   alike (`normalize_row` zonks kinds into `elem_kind`);
//! * prover verdicts `Proved` and `Refuted` (both are preserved under
//!   refinement: literal-name evidence cannot change, and fact matches are
//!   `defeq`-based, which is monotone). `NotYet` is exactly the verdict
//!   that later solutions revise, so it is generation-guarded.
//!
//! Law configuration is part of the judgment semantics too: if
//! [`crate::Cx::laws`] changes between calls, every table is cleared.
//!
//! On top of the per-`Cx` tables sits **one process-global stable-entry
//! layer** (sharded, `RwLock`-protected): stable entries whose key terms
//! are meta-free are published there and fetched by every worker, so N
//! workers no longer each pay for the same ground judgment. See the
//! "global stable-entry layer" section below for the soundness argument.
//!
//! Fuel interaction (see `docs/PERFORMANCE.md`): callers never store a
//! result computed under exhausted fuel (it would be a degenerate value,
//! not the judgment's answer), and a cache hit still charges one
//! normalization step so cached elaboration remains fuel-bounded.

use crate::con::RCon;
use crate::disjoint::ProveResult;
use crate::intern::{self, ConId};
use crate::row::{FieldKey, RowNf};
use crate::LawConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

#[derive(Clone, Debug)]
struct Entry<T> {
    value: T,
    /// Meta generation at store time; ignored when `stable`.
    meta_gen: u64,
    /// True when no future meta solution can change the value.
    stable: bool,
}

impl<T: Clone> Entry<T> {
    fn new(value: T, meta_gen: u64, stable: bool) -> Entry<T> {
        Entry {
            value,
            meta_gen,
            stable,
        }
    }

    fn get(&self, meta_gen: u64) -> Option<T> {
        if self.stable || self.meta_gen == meta_gen {
            Some(self.value.clone())
        } else {
            None
        }
    }
}

// ---------------- global stable-entry layer ----------------
//
// With the arena, a `ConId` means the same term on every thread and env
// generations come from one process-global counter, so *stable* entries
// (those no future meta solution can change) are valid process-wide.
// They live in one shared, sharded table: each per-`Cx` [`Memo`] stays
// the first level (and the only home of generation-guarded entries,
// since meta generations are per-`Cx`), and stable results are published
// to / fetched from the global layer so a judgment one worker paid for
// is a hit on every other worker. Law bits join the key because
// different `Cx`s may run under different law configurations
// simultaneously — the global layer is never cleared on a law flip,
// entries for other configurations simply live under other keys. The
// whole layer *is* cleared by [`crate::arena::try_reset`] (registered as
// an `on_reset` hook at first use): ids die with the arena generation.

/// Packs the law configuration into key bits.
fn law_bits(l: LawConfig) -> u64 {
    u64::from(l.identity) | (u64::from(l.distrib) << 1) | (u64::from(l.fusion) << 2)
}

/// True when `c` may participate in a *global* memo key. `MetaId`/`KMetaId`
/// are per-`Cx` dense indexes, so `Con::Meta(3)` names different
/// metavariables in different workers even though it interns to one
/// `ConId`; only meta-free terms (con *and* kind metas) mean the same
/// judgment input process-wide. Free variables are fine: `Sym` ids come
/// from one process-global counter.
fn globally_keyable(c: &RCon) -> bool {
    let f = intern::flags_of(c);
    !f.has_meta() && !f.has_kmeta()
}

const G_SHARDS: usize = 16;

#[derive(Default)]
struct GShard {
    hnf: RwLock<HashMap<(ConId, u64, u64), RCon>>,
    defeq: RwLock<HashMap<(ConId, ConId, u64, u64), bool>>,
    rows: RwLock<HashMap<(ConId, u64, u64), RowNf>>,
    disjoint: RwLock<HashMap<(ConId, ConId, u64, u64), ProveResult>>,
}

struct Global {
    shards: [GShard; G_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

fn read_lock<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

fn global() -> &'static Global {
    static G: OnceLock<Global> = OnceLock::new();
    G.get_or_init(|| {
        crate::arena::on_reset(clear_global);
        Global {
            shards: std::array::from_fn(|_| GShard::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    })
}

fn gshard(c: ConId, env_gen: u64) -> &'static GShard {
    let g = global();
    let ix = (c.0 as u64 ^ env_gen.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize % G_SHARDS;
    &g.shards[ix]
}

fn gnote(hit: bool) {
    let g = global();
    if hit {
        g.hits.fetch_add(1, Ordering::Relaxed);
    } else {
        g.misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drops every entry in the global stable-entry layer. Runs as an arena
/// reset hook; also callable directly from tests.
pub fn clear_global() {
    let g = global();
    for s in &g.shards {
        write_lock(&s.hnf).clear();
        write_lock(&s.defeq).clear();
        write_lock(&s.rows).clear();
        write_lock(&s.disjoint).clear();
    }
}

/// Total entries in the global layer `(hnf, defeq, rows, disjoint)`.
pub fn global_sizes() -> (usize, usize, usize, usize) {
    let g = global();
    let mut out = (0, 0, 0, 0);
    for s in &g.shards {
        out.0 += read_lock(&s.hnf).len();
        out.1 += read_lock(&s.defeq).len();
        out.2 += read_lock(&s.rows).len();
        out.3 += read_lock(&s.disjoint).len();
    }
    out
}

/// Lifetime `(hits, misses)` of the global layer's lookups.
pub fn global_hit_stats() -> (u64, u64) {
    let g = global();
    (g.hits.load(Ordering::Relaxed), g.misses.load(Ordering::Relaxed))
}

/// Unordered pair key: `defeq` and the prover are symmetric, so both
/// orientations of a query share one entry.
fn pair_key(a: ConId, b: ConId, env_gen: u64) -> (ConId, ConId, u64) {
    if a <= b {
        (a, b, env_gen)
    } else {
        (b, a, env_gen)
    }
}

/// True when every constructor and kind in `nf` is meta-free, so the
/// normal form can never be refined by later solutions.
fn row_nf_stable(nf: &RowNf) -> bool {
    let con_ok = |c: &RCon| {
        let f = intern::flags_of(c);
        !f.has_meta() && !f.has_kmeta()
    };
    let key_ok = |k: &FieldKey| match k {
        FieldKey::Lit(_) => true,
        FieldKey::Neutral(c) => con_ok(c),
    };
    nf.elem_kind.as_ref().is_none_or(|k| k.is_ground())
        && nf.fields.iter().all(|(k, v)| key_ok(k) && con_ok(v))
        && nf
            .atoms
            .iter()
            .all(|a| con_ok(&a.base) && a.map.as_ref().is_none_or(|(f, k)| con_ok(f) && k.is_ground()))
}

/// The per-[`crate::Cx`] memo store.
#[derive(Clone, Debug)]
pub struct Memo {
    /// Master switch; benches flip this off for uncached comparison runs.
    /// When disabled, callers skip both lookups and stores.
    pub enabled: bool,
    laws: Option<LawConfig>,
    hnf: HashMap<(ConId, u64), Entry<RCon>>,
    defeq: HashMap<(ConId, ConId, u64), Entry<bool>>,
    rows: HashMap<(ConId, u64), Entry<RowNf>>,
    disjoint: HashMap<(ConId, ConId, u64), Entry<ProveResult>>,
}

impl Default for Memo {
    fn default() -> Memo {
        Memo {
            enabled: true,
            laws: None,
            hnf: HashMap::new(),
            defeq: HashMap::new(),
            rows: HashMap::new(),
            disjoint: HashMap::new(),
        }
    }
}

/// Loads `key` from `table`, serving the entry only while it is valid
/// for `meta_gen`.
fn load<K, T>(table: &HashMap<K, Entry<T>>, key: K, meta_gen: u64) -> Option<T>
where
    K: Eq + std::hash::Hash,
    T: Clone,
{
    table.get(&key).and_then(|e| e.get(meta_gen))
}

impl Memo {
    /// Clears every table when the law configuration differs from the one
    /// the entries were computed under (law toggles change `defeq`, row
    /// normalization, and prover outcomes).
    pub fn check_laws(&mut self, laws: LawConfig) {
        if self.laws != Some(laws) {
            self.hnf.clear();
            self.defeq.clear();
            self.rows.clear();
            self.disjoint.clear();
            self.laws = Some(laws);
        }
    }

    pub fn hnf_get(&mut self, c: ConId, env_gen: u64, meta_gen: u64) -> Option<RCon> {
        if let Some(v) = load(&self.hnf, (c, env_gen), meta_gen) {
            return Some(v);
        }
        if !globally_keyable(&c) {
            return None;
        }
        let lb = law_bits(self.laws?);
        let hit = read_lock(&gshard(c, env_gen).hnf).get(&(c, env_gen, lb)).copied();
        gnote(hit.is_some());
        let v = hit?;
        // Promote into the local table (stable by construction).
        self.hnf.insert((c, env_gen), Entry::new(v, meta_gen, true));
        Some(v)
    }

    pub fn hnf_put(&mut self, c: ConId, env_gen: u64, meta_gen: u64, out: &RCon) {
        let stable = !intern::flags_of(out).has_meta();
        if stable && globally_keyable(&c) {
            if let Some(laws) = self.laws {
                write_lock(&gshard(c, env_gen).hnf)
                    .insert((c, env_gen, law_bits(laws)), *out);
            }
        }
        self.hnf
            .insert((c, env_gen), Entry::new(RCon::clone(out), meta_gen, stable));
    }

    pub fn defeq_get(&mut self, a: ConId, b: ConId, env_gen: u64, meta_gen: u64) -> Option<bool> {
        let k = pair_key(a, b, env_gen);
        if let Some(v) = load(&self.defeq, k, meta_gen) {
            return Some(v);
        }
        if !globally_keyable(&a) || !globally_keyable(&b) {
            return None;
        }
        let lb = law_bits(self.laws?);
        let hit = read_lock(&gshard(k.0, env_gen).defeq).get(&(k.0, k.1, k.2, lb)).copied();
        gnote(hit.is_some());
        let v = hit?;
        self.defeq.insert(k, Entry::new(v, meta_gen, true));
        Some(v)
    }

    pub fn defeq_put(&mut self, a: ConId, b: ConId, env_gen: u64, meta_gen: u64, eq: bool) {
        let k = pair_key(a, b, env_gen);
        // Meta-free inputs can't be refined by later solutions, so *both*
        // verdicts are final process-wide (the local `false` stays
        // generation-guarded only because the local table doesn't re-check
        // keyability on load).
        if globally_keyable(&a) && globally_keyable(&b) {
            if let Some(laws) = self.laws {
                write_lock(&gshard(k.0, env_gen).defeq)
                    .insert((k.0, k.1, k.2, law_bits(laws)), eq);
            }
        }
        self.defeq.insert(k, Entry::new(eq, meta_gen, eq));
    }

    pub fn row_get(&mut self, c: ConId, env_gen: u64, meta_gen: u64) -> Option<RowNf> {
        if let Some(v) = load(&self.rows, (c, env_gen), meta_gen) {
            return Some(v);
        }
        if !globally_keyable(&c) {
            return None;
        }
        let lb = law_bits(self.laws?);
        let hit = read_lock(&gshard(c, env_gen).rows).get(&(c, env_gen, lb)).cloned();
        gnote(hit.is_some());
        let v = hit?;
        self.rows.insert((c, env_gen), Entry::new(v.clone(), meta_gen, true));
        Some(v)
    }

    pub fn row_put(&mut self, c: ConId, env_gen: u64, meta_gen: u64, nf: &RowNf) {
        let stable = row_nf_stable(nf);
        if stable && globally_keyable(&c) {
            if let Some(laws) = self.laws {
                write_lock(&gshard(c, env_gen).rows)
                    .insert((c, env_gen, law_bits(laws)), nf.clone());
            }
        }
        self.rows
            .insert((c, env_gen), Entry::new(nf.clone(), meta_gen, stable));
    }

    pub fn disjoint_get(
        &mut self,
        a: ConId,
        b: ConId,
        env_gen: u64,
        meta_gen: u64,
    ) -> Option<ProveResult> {
        let k = pair_key(a, b, env_gen);
        if let Some(v) = load(&self.disjoint, k, meta_gen) {
            return Some(v);
        }
        if !globally_keyable(&a) || !globally_keyable(&b) {
            return None;
        }
        let lb = law_bits(self.laws?);
        let hit = read_lock(&gshard(k.0, env_gen).disjoint).get(&(k.0, k.1, k.2, lb)).copied();
        gnote(hit.is_some());
        let v = hit?;
        self.disjoint.insert(k, Entry::new(v, meta_gen, true));
        Some(v)
    }

    pub fn disjoint_put(
        &mut self,
        a: ConId,
        b: ConId,
        env_gen: u64,
        meta_gen: u64,
        out: ProveResult,
    ) {
        let k = pair_key(a, b, env_gen);
        let stable = matches!(out, ProveResult::Proved | ProveResult::Refuted);
        if stable && globally_keyable(&a) && globally_keyable(&b) {
            if let Some(laws) = self.laws {
                write_lock(&gshard(k.0, env_gen).disjoint)
                    .insert((k.0, k.1, k.2, law_bits(laws)), out);
            }
        }
        self.disjoint.insert(k, Entry::new(out, meta_gen, stable));
    }

    /// Entry counts per table `(hnf, defeq, rows, disjoint)`, for
    /// instrumentation.
    pub fn table_sizes(&self) -> (usize, usize, usize, usize) {
        (self.hnf.len(), self.defeq.len(), self.rows.len(), self.disjoint.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::con::Con;
    use crate::kind::Kind;

    #[test]
    fn defeq_true_survives_meta_generations() {
        let mut m = Memo::default();
        let a = intern::id_of(&Con::int());
        let b = intern::id_of(&Con::int());
        m.defeq_put(a, b, 0, 0, true);
        assert_eq!(m.defeq_get(a, b, 0, 99), Some(true));
        // ... and is symmetric in the key.
        assert_eq!(m.defeq_get(b, a, 0, 99), Some(true));
    }

    #[test]
    fn defeq_false_is_generation_guarded() {
        let mut m = Memo::default();
        let a = intern::id_of(&Con::int());
        let b = intern::id_of(&Con::float());
        m.defeq_put(a, b, 0, 3, false);
        assert_eq!(m.defeq_get(a, b, 0, 3), Some(false));
        assert_eq!(m.defeq_get(a, b, 0, 4), None);
    }

    #[test]
    fn notyet_is_generation_guarded_but_proved_is_not() {
        let mut m = Memo::default();
        let a = intern::id_of(&Con::row_nil(Kind::Type));
        let b = intern::id_of(&Con::int());
        m.disjoint_put(a, b, 0, 1, ProveResult::NotYet);
        assert_eq!(m.disjoint_get(a, b, 0, 2), None);
        m.disjoint_put(a, b, 0, 1, ProveResult::Proved);
        assert_eq!(m.disjoint_get(a, b, 0, 2), Some(ProveResult::Proved));
    }

    #[test]
    fn law_change_clears_tables() {
        let mut m = Memo::default();
        let a = intern::id_of(&Con::int());
        m.check_laws(LawConfig::default());
        m.defeq_put(a, a, 0, 0, true);
        m.check_laws(LawConfig::default());
        assert_eq!(m.defeq_get(a, a, 0, 0), Some(true), "same laws keep entries");
        m.check_laws(LawConfig { identity: false, ..LawConfig::default() });
        assert_eq!(m.defeq_get(a, a, 0, 0), None, "law flip clears entries");
    }

    /// Serializes tests that touch the process-global stable layer, so a
    /// `clear_global` in one test can't wipe another's entries mid-flight.
    fn global_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static L: std::sync::Mutex<()> = std::sync::Mutex::new(());
        L.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn stable_entries_are_shared_across_memos() {
        let _g = global_test_lock();
        let laws = LawConfig::default();
        let env_gen = crate::env::fresh_gen();
        let c = intern::id_of(&Con::arrow(Con::int(), Con::string()));
        let nf = Con::int();

        let mut producer = Memo::default();
        producer.check_laws(laws);
        producer.hnf_put(c, env_gen, 0, &nf);
        producer.defeq_put(c, c, env_gen, 0, true);

        // A different worker's Memo sees the published entries.
        let mut consumer = Memo::default();
        consumer.check_laws(laws);
        let (h0, _) = global_hit_stats();
        assert_eq!(consumer.hnf_get(c, env_gen, 42), Some(nf));
        assert_eq!(consumer.defeq_get(c, c, env_gen, 42), Some(true));
        let (h1, _) = global_hit_stats();
        assert!(h1 >= h0 + 2, "both lookups must count as global hits");

        // ... and the hit was promoted into the consumer's local table.
        assert!(consumer.table_sizes().0 >= 1);
    }

    #[test]
    fn different_laws_do_not_share_entries() {
        let _g = global_test_lock();
        let env_gen = crate::env::fresh_gen();
        let c = intern::id_of(&Con::arrow(Con::string(), Con::int()));

        let mut producer = Memo::default();
        producer.check_laws(LawConfig::default());
        producer.hnf_put(c, env_gen, 0, &Con::int());

        let mut consumer = Memo::default();
        consumer.check_laws(LawConfig { fusion: false, ..LawConfig::default() });
        assert_eq!(
            consumer.hnf_get(c, env_gen, 0),
            None,
            "entries computed under other law configurations must not leak"
        );
    }

    #[test]
    fn meta_bearing_keys_never_go_global() {
        let _g = global_test_lock();
        let env_gen = crate::env::fresh_gen();
        // `MetaId`s are per-Cx, so this ConId names *different* metas in
        // different workers — it must stay confined to its own Memo.
        let c = intern::id_of(&Con::meta(crate::con::MetaId(903_000)));

        let mut producer = Memo::default();
        producer.check_laws(LawConfig::default());
        producer.hnf_put(c, env_gen, 0, &Con::int());
        producer.defeq_put(c, c, env_gen, 0, true);

        let mut consumer = Memo::default();
        consumer.check_laws(LawConfig::default());
        assert_eq!(consumer.hnf_get(c, env_gen, 0), None);
        assert_eq!(consumer.defeq_get(c, c, env_gen, 0), None);
    }

    #[test]
    fn clear_global_drops_shared_entries() {
        let _g = global_test_lock();
        let env_gen = crate::env::fresh_gen();
        let c = intern::id_of(&Con::pair(Con::int(), Con::string()));

        let mut producer = Memo::default();
        producer.check_laws(LawConfig::default());
        producer.hnf_put(c, env_gen, 0, &Con::int());
        let (hnf, _, _, _) = global_sizes();
        assert!(hnf >= 1);

        clear_global();

        let mut consumer = Memo::default();
        consumer.check_laws(LawConfig::default());
        assert_eq!(consumer.hnf_get(c, env_gen, 0), None, "reset must drop global entries");
        // The producer still has its own local copy.
        assert_eq!(producer.hnf_get(c, env_gen, 0), Some(Con::int()));
    }

    #[test]
    fn meta_bearing_hnf_results_are_guarded() {
        let mut m = Memo::default();
        let c = Con::meta(crate::con::MetaId(902_000));
        let id = intern::id_of(&c);
        m.hnf_put(id, 0, 5, &c);
        assert!(m.hnf_get(id, 0, 5).is_some());
        assert!(m.hnf_get(id, 0, 6).is_none());
        // A meta-free result is stable across generations.
        let ground = Con::int();
        m.hnf_put(id, 0, 5, &ground);
        assert!(m.hnf_get(id, 0, 6).is_some());
    }
}
