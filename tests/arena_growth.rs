//! Arena growth bound (tentpole acceptance test): repeated sessions must
//! not grow the shared intern arena without bound.
//!
//! Every `Session` takes an [`ur::core::arena::ArenaLease`]; while any
//! lease is live, [`ur::core::arena::try_reset`] refuses to run, and once
//! the last session drops the arena may be drained in place (generation
//! bump, hash-cons maps cleared).
//!
//! This lives in its own test binary on purpose: `try_reset` demands
//! process-wide quiescence, which concurrent tests in a shared binary
//! could not guarantee. The tests of this binary take [`ARENA`] so that
//! they run one at a time.
//!
//! The second test bounds a long-lived session: repeated evaluations of
//! one expression shape with fresh literals are served by the prepared
//! function of the shape, so they grow neither the arena nor the
//! session's metavariable context.

use std::sync::Mutex;
use ur::core::arena;

/// Serializes the tests of this binary: each reads process-wide arena
/// counters, and the first resets the arena.
static ARENA: Mutex<()> = Mutex::new(());

const SRC: &str = "val r = { A = 1, B = \"two\", C = 40 + 2 }\n\
                   val total = r.A + r.C\n\
                   val label = r.B";

/// One full session cycle: build, elaborate, evaluate, drop.
fn run_cycle() {
    let mut sess = ur::Session::new().expect("session");
    let (vals, diags) = sess.run_all(SRC);
    assert!(diags.is_empty(), "cycle must elaborate cleanly: {diags:?}");
    assert_eq!(vals.len(), 3);
}

#[test]
fn arena_growth_is_bounded_over_100_session_cycles() {
    let _serial = ARENA.lock().unwrap_or_else(|e| e.into_inner());
    // While a session is alive its lease must veto the reset.
    {
        let sess = ur::Session::new().expect("session");
        assert!(arena::lease_count() >= 1);
        assert!(!arena::try_reset(), "live lease must block reset");
        drop(sess);
    }

    // Establish the per-cycle footprint: one cycle from a clean slate.
    assert!(arena::try_reset(), "quiescent arena must reset");
    run_cycle();
    let per_cycle = arena::stats();
    assert!(per_cycle.con_nodes > 0, "a cycle must intern terms");
    let bound = (per_cycle.con_nodes + per_cycle.expr_nodes) * 2;

    let gen_before = arena::generation();
    for i in 0..100 {
        assert!(
            arena::try_reset(),
            "cycle {i}: no live sessions, reset must run"
        );
        run_cycle();
        let s = arena::stats();
        assert!(
            s.con_nodes + s.expr_nodes <= bound,
            "cycle {i}: arena grew past the per-cycle bound: \
             {} + {} > {bound}",
            s.con_nodes,
            s.expr_nodes,
        );
    }
    assert_eq!(
        arena::generation(),
        gen_before + 100,
        "every reset must bump the generation"
    );

    // A reset drains the term stores entirely (strings survive — labels
    // may be cached in diagnostics beyond term lifetime).
    assert!(arena::try_reset());
    let drained = arena::stats();
    assert_eq!(drained.con_nodes, 0);
    assert_eq!(drained.expr_nodes, 0);

    // The arena remains fully serviceable after many resets.
    run_cycle();
}

#[test]
fn same_shape_evals_do_not_grow_the_arena_or_the_metas() {
    let _serial = ARENA.lock().unwrap_or_else(|e| e.into_inner());
    let mut sess = ur::Session::new().expect("session");
    sess.run(
        "val t = createTable \"kv\" {K = sqlInt, V = sqlString, W = sqlFloat}\n\
         val u = insert t {K = const 0, V = const \"v\", W = const 0.5}",
    )
    .expect("setup");
    let eval = |sess: &mut ur::Session, i: usize| {
        let src = format!(
            "updateRows t {{V = const \"v{i}\", W = const {i}.25}} \
             (sqlEq (column [#K]) (const {}))",
            i % 2
        );
        let v = sess.eval(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
        let rows = if i.is_multiple_of(2) { "1" } else { "0" };
        assert_eq!(v.to_string(), rows, "{src}");
    };
    let nodes = || {
        let s = arena::stats();
        s.con_nodes + s.expr_nodes
    };
    eval(&mut sess, 0);
    let (nodes0, metas0) = (nodes(), sess.elab.cx.metas.len());
    for i in 1..5_000 {
        eval(&mut sess, i);
        assert_eq!(nodes(), nodes0, "eval {i} grew the arena");
        assert_eq!(sess.elab.cx.metas.len(), metas0, "eval {i} grew the metas");
    }
    assert_eq!(sess.stats().eval_prepared_hits, 4_999);
}
