//! Hash-consing properties of the interned core ([`ur::core::arena`]),
//! plus the judgment behaviours that sit closest to it.
//!
//! Two layers of guarantees are pinned down here:
//!
//! 1. **Interning soundness/completeness** — structurally identical closed
//!    constructors built independently intern to the *same* node (handle
//!    equality), and equal handles always imply definitional equality.
//! 2. **Judgments over shared terms** — `defeq` tracks the metavariable
//!    solution state, the deep near-miss chain trips the same budget
//!    every time, and a wide disjointness goal asked repeatedly gets the
//!    same verdict with every call counted.
//!
//! Randomness comes from the deterministic [`ur_testutil::Rng`]; every
//! test fixes its seed, so failures reproduce exactly.

use ur::core::arena::ConId;
use ur::core::con::{Con, RCon};
use ur::core::defeq::defeq;
use ur::core::disjoint::prove;
use ur::core::env::Env;
use ur::core::kind::Kind;
use ur::core::prelude::Cx;
use ur::core::sym::Sym;
use ur_testutil::Rng;

const CASES: usize = 96;

const NAME_POOL: &[&str] = &["A", "B", "C", "D", "E", "F", "G", "H"];

fn prim_type(rng: &mut Rng) -> RCon {
    match rng.below(4) {
        0 => Con::int(),
        1 => Con::float(),
        2 => Con::string(),
        _ => Con::bool_(),
    }
}

/// A random *closed* constructor (no variables, no metavariables) of
/// bounded depth. Two generators driven by equal-seeded `Rng`s produce
/// structurally identical terms, which is what the sharing tests exploit.
fn gen_closed(rng: &mut Rng, depth: u32) -> RCon {
    if depth == 0 {
        return prim_type(rng);
    }
    match rng.below(7) {
        0 => prim_type(rng),
        1 => Con::arrow(gen_closed(rng, depth - 1), gen_closed(rng, depth - 1)),
        2 => Con::pair(gen_closed(rng, depth - 1), gen_closed(rng, depth - 1)),
        3 => Con::name(*rng.pick(NAME_POOL)),
        4 => Con::row_one(Con::name(*rng.pick(NAME_POOL)), gen_closed(rng, depth - 1)),
        5 => Con::row_cat(
            Con::row_one(Con::name(*rng.pick(NAME_POOL)), gen_closed(rng, depth - 1)),
            Con::row_nil(Kind::Type),
        ),
        _ => Con::record(Con::row_one(
            Con::name(*rng.pick(NAME_POOL)),
            gen_closed(rng, depth - 1),
        )),
    }
}

fn to_row(fields: &[(String, RCon)]) -> RCon {
    Con::row_of(
        Kind::Type,
        fields
            .iter()
            .map(|(n, t)| (Con::name(n.as_str()), (*t)))
            .collect(),
    )
}

// ---------------------------------------------------------------------
// 1. Interning: structural sharing and id-equality soundness.
// ---------------------------------------------------------------------

/// Independently built, structurally identical closed terms intern to
/// one shared node: both builds return the same `ConId`.
#[test]
fn identical_builds_share_one_node() {
    for seed in 0..CASES as u64 {
        let mut r1 = Rng::new(0x1A7E_0000 + seed);
        let mut r2 = Rng::new(0x1A7E_0000 + seed);
        let a = gen_closed(&mut r1, 4);
        let b = gen_closed(&mut r2, 4);
        assert!(a == b, "hash-consing must share: {a} vs {b}");
    }
}

/// Equal handles imply definitional equality (handle equality is
/// syntactic equality, which is finer than defeq).
#[test]
fn id_equality_implies_defeq() {
    let mut rng = Rng::new(0x1A7E_1000);
    for _ in 0..CASES {
        let a = gen_closed(&mut rng, 4);
        let b = gen_closed(&mut rng, 4);
        let env = Env::new();
        let mut cx = Cx::new();
        if a == b {
            assert!(defeq(&env, &mut cx, &a, &b));
        }
        // Reflexivity is O(1) under hash-consing but must still hold.
        assert!(defeq(&env, &mut cx, &a, &a));
    }
}

/// Name literals are interned: equal labels share one `IStr`.
#[test]
fn name_literals_are_pointer_shared() {
    let a = Con::name("SharedLabel");
    let b = Con::name(String::from("Shared") + "Label");
    match (&*a, &*b) {
        (Con::Name(x), Con::Name(y)) => {
            assert!(x == y, "labels must share one allocation");
        }
        _ => unreachable!(),
    }
}

/// Flags are conservative but exact on closed terms: a generated closed
/// constructor is always flagged closed.
#[test]
fn generated_closed_terms_are_flagged_closed() {
    let mut rng = Rng::new(0x1A7E_2000);
    for _ in 0..CASES {
        let c = gen_closed(&mut rng, 4);
        assert!(c.flags().is_closed(), "{c} must be closed");
    }
    // And a term with a variable is not.
    let v = Con::var(&Sym::fresh("x"));
    assert!(!Con::arrow(v, Con::int()).flags().is_closed());
}

/// 8-thread intern hammer: every thread races to build the *same*
/// deterministic term sequence, and the sharded arena must hand all of
/// them identical ids (same shallow key ⇒ same id), keep distinct terms
/// on distinct ids, and leave every id dereferenceable afterwards.
#[test]
fn hammer_concurrent_interning_agrees_across_threads() {
    use std::sync::{Arc, Barrier};

    const THREADS: usize = 8;
    const ROUNDS: u64 = 256;

    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                (0..ROUNDS)
                    .map(|seed| {
                        let mut rng = Rng::new(0x4A44_0000 + seed);
                        gen_closed(&mut rng, 4)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let per_thread: Vec<Vec<ConId>> = handles
        .into_iter()
        .map(|h| h.join().expect("hammer thread must not panic"))
        .collect();

    // Same shallow key ⇒ same id, regardless of which thread interned it
    // first: all threads observed the identical id sequence.
    for (t, ids) in per_thread.iter().enumerate().skip(1) {
        assert_eq!(&per_thread[0], ids, "thread {t} disagrees on intern ids");
    }

    // Uniqueness: one id never names two structurally distinct terms.
    let mut seen: std::collections::HashMap<ConId, String> =
        std::collections::HashMap::new();
    for (seed, id) in per_thread[0].iter().enumerate() {
        let mut rng = Rng::new(0x4A44_0000 + seed as u64);
        let printed = gen_closed(&mut rng, 4).to_string();
        if let Some(prev) = seen.insert(*id, printed.clone()) {
            assert_eq!(prev, printed, "id {id:?} maps to two distinct terms");
        }
    }

    // Stability: re-interning the same sequence afterwards (single
    // threaded, warm table) reproduces every id.
    for (seed, id) in per_thread[0].iter().enumerate() {
        let mut rng = Rng::new(0x4A44_0000 + seed as u64);
        assert_eq!(gen_closed(&mut rng, 4), *id);
    }
}

// ---------------------------------------------------------------------
// 2. Judgments over shared terms.
// ---------------------------------------------------------------------

/// `defeq` sees a metavariable solved after an earlier `false` answer:
/// the verdict tracks the solution state, never a stale one.
#[test]
fn defeq_sees_a_meta_solved_after_a_false_answer() {
    let env = Env::new();
    let mut cx = Cx::new();
    let m = cx.metas.fresh_con(Kind::Type, "t");
    // ?t vs int: not equal while unsolved...
    assert!(!defeq(&env, &mut cx, &m, &Con::int()));
    // ...then ?t := int makes the same query true.
    let Con::Meta(id) = &*m else { unreachable!() };
    cx.metas.solve(*id, Con::int());
    assert!(defeq(&env, &mut cx, &m, &Con::int()));
}

/// The deep near-miss arrow chain answers the conservative `false` and
/// trips the same budget on two independent runs.
#[test]
fn adversarial_deep_defeq_trips_the_same_budget_twice() {
    let deep = |leaf: RCon, n: usize| {
        let mut c = leaf;
        for _ in 0..n {
            c = Con::arrow(c, Con::int());
        }
        c
    };
    let env = Env::new();
    let verdicts: Vec<_> = (0..2)
        .map(|_| {
            let mut cx = Cx::new();
            let (a, b) = (deep(Con::int(), 10_000), deep(Con::float(), 10_000));
            let eq = defeq(&env, &mut cx, &a, &b);
            (eq, cx.fuel.exhausted())
        })
        .collect();
    assert_eq!(verdicts[0], verdicts[1], "the budget is counted in steps");
    assert!(!verdicts[0].0);
    assert!(verdicts[0].1.is_some(), "10,000 levels must exhaust the budget");
}

/// Repeated wide-row disjointness queries (the same pair asked many
/// times) get the same verdict, and every call counts for Figure 5.
#[test]
fn repeated_wide_disjoint_queries_are_stable() {
    let fields: Vec<(String, RCon)> = (0..64)
        .map(|i| (format!("F{i}"), Con::int()))
        .collect();
    let other: Vec<(String, RCon)> = (0..64)
        .map(|i| (format!("G{i}"), Con::int()))
        .collect();
    let env = Env::new();
    let mut cx = Cx::new();
    let (r1, r2) = (to_row(&fields), to_row(&other));
    let first = prove(&env, &mut cx, &r1, &r2);
    for _ in 0..100 {
        assert_eq!(prove(&env, &mut cx, &r1, &r2), first);
    }
    assert_eq!(first, ur::core::disjoint::ProveResult::Proved);
    assert_eq!(cx.stats.disjoint_prover_calls, 101);
}
