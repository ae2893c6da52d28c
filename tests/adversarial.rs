//! Adversarial-input harness: pathological programs must yield a
//! structured diagnostic within the resource budget — never a panic, a
//! stack overflow, or a hang.
//!
//! Three families of hostile input, mirroring the fuel dimensions
//! (`ur_core::limits`):
//!
//! * **deep** — ≥10k-deep nesting (parser recursion, constructor
//!   recursion, map nests);
//! * **cyclic** — programs whose constraints loop back on themselves
//!   (occurs checks, self-application);
//! * **wide** — ≥5k-field rows whose disjointness goals have quadratic
//!   cross products.
//!
//! Plus the multi-error contract: one elaboration pass reports every
//! independent error.

use std::time::{Duration, Instant};
use ur::core::prelude::*;
use ur::infer::{Elaborator, Unify};
use ur::syntax::{Code, Diagnostic};

/// Generous wall-clock ceiling per adversarial case (debug builds on slow
/// CI runners included). The point is "terminates promptly", not a
/// micro-benchmark.
const TIME_BUDGET: Duration = Duration::from_secs(60);

fn assert_bounded(start: Instant, what: &str) {
    let elapsed = start.elapsed();
    assert!(
        elapsed < TIME_BUDGET,
        "{what} took {elapsed:?}, over the {TIME_BUDGET:?} budget"
    );
}

// ---------------- deep ----------------

#[test]
fn ten_k_nested_parens_diagnose_not_overflow() {
    let start = Instant::now();
    let src = format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000));
    let err = ur::syntax::parse_expr(&src).expect_err("should be rejected");
    let d: Diagnostic = err.into();
    assert_eq!(d.code, Code::ParseTooDeep, "got: {d}");
    assert_bounded(start, "deep parens");
}

#[test]
fn ten_k_nested_parens_in_type_position_diagnose() {
    let start = Instant::now();
    let src = format!("{}int{}", "(".repeat(12_000), ")".repeat(12_000));
    let err = ur::syntax::parse_con(&src).expect_err("should be rejected");
    let d: Diagnostic = err.into();
    assert_eq!(d.code, Code::ParseTooDeep);
    assert_bounded(start, "deep type parens");
}

#[test]
fn ten_k_deep_map_nest_normalizes_within_budget() {
    // map f (map f (... r)) nested 10,000 deep. The fusion law collapses
    // adjacent maps one iterative step at a time, and every step charges
    // fuel — so this terminates whether or not the budget runs out.
    let start = Instant::now();
    let mut env = Env::new();
    let mut cx = Cx::new();
    let f = Sym::fresh("f");
    let r = Sym::fresh("r");
    env.bind_con(f, Kind::arrow(Kind::Type, Kind::Type));
    env.bind_con(r, Kind::row(Kind::Type));
    let mut c = Con::var(&r);
    for _ in 0..10_000 {
        c = Con::map_app(Kind::Type, Kind::Type, Con::var(&f), c);
    }
    let _nf = ur::core::hnf::hnf(&env, &mut cx, &c);
    assert!(
        cx.fuel.norm_steps_used() <= cx.fuel.limits.max_norm_steps,
        "normalization must stay within its step budget"
    );
    assert_bounded(start, "10k map nest");
}

#[test]
fn ten_k_deep_arrow_defeq_hits_depth_budget() {
    // Two 10,000-deep arrow types that differ only at the innermost leaf.
    // (Identical chains would be hash-consed to the *same* node and compare
    // in O(1), so the near-miss is what forces structural recursion.)
    // That recursion would need 10k stack frames; the depth budget (512)
    // cuts it off and returns the conservative answer.
    let start = Instant::now();
    let env = Env::new();
    let mut cx = Cx::new();
    let deep = |leaf: ur::core::con::RCon, n: usize| {
        let mut c = leaf;
        for _ in 0..n {
            c = Con::arrow(c, Con::int());
        }
        c
    };
    let (a, b) = (deep(Con::int(), 10_000), deep(Con::float(), 10_000));
    let eq = ur::core::defeq::defeq(&env, &mut cx, &a, &b);
    assert_eq!(
        cx.fuel.exhausted(),
        Some(ResourceKind::Depth),
        "10k-deep recursion must trip the depth budget"
    );
    // The degenerate answer is the conservative "not equal", never a
    // false positive.
    assert!(!eq);
    assert_bounded(start, "deep defeq");
}

#[test]
fn ten_k_deep_arrow_unify_postpones_not_overflows() {
    // As above: distinct leaves keep the chains from being hash-consed to
    // one shared node, so unification actually has to walk them.
    let start = Instant::now();
    let env = Env::new();
    let mut cx = Cx::new();
    let deep = |leaf: ur::core::con::RCon, n: usize| {
        let mut c = leaf;
        for _ in 0..n {
            c = Con::arrow(c, Con::int());
        }
        c
    };
    let (a, b) = (deep(Con::int(), 10_000), deep(Con::float(), 10_000));
    let out = ur::infer::unify(&env, &mut cx, &a, &b);
    assert!(
        !matches!(out, Unify::Fail(_)),
        "budget exhaustion must degrade to Solved/Postpone, got {out:?}"
    );
    assert_bounded(start, "deep unify");
}

#[test]
fn deep_program_text_is_rejected_with_span() {
    let start = Instant::now();
    let mut elab = Elaborator::new();
    let src = format!("val x = {}1{}", "(".repeat(20_000), ")".repeat(20_000));
    let err = elab.elab_source(&src).expect_err("should be rejected");
    assert_eq!(err.code(), Code::ParseTooDeep);
    // The session survives and works afterwards.
    assert!(elab.elab_source("val ok = 1").is_ok());
    assert_bounded(start, "deep program");
}

// ---------------- cyclic ----------------

#[test]
fn cyclic_meta_fails_occurs_check_not_hangs() {
    let start = Instant::now();
    let env = Env::new();
    let mut cx = Cx::new();
    let m = cx.metas.fresh_con(Kind::Type, "t");
    let cyclic = Con::arrow(m, Con::int());
    assert!(matches!(
        ur::infer::unify(&env, &mut cx, &m, &cyclic),
        Unify::Fail(_)
    ));
    assert_bounded(start, "cyclic meta");
}

#[test]
fn self_application_program_errors_not_hangs() {
    // fn x => x x: the classic occurs-check program. Must produce a
    // diagnostic, not loop.
    let start = Instant::now();
    let mut elab = Elaborator::new();
    let err = elab
        .elab_source("val omega = fn x => x x")
        .expect_err("self-application must not typecheck");
    assert!(!err.message.is_empty());
    assert!(elab.elab_source("val ok = 2").is_ok(), "session survives");
    assert_bounded(start, "self application");
}

#[test]
fn mutually_cyclic_row_metas_terminate() {
    // ?a = [A = int] ++ ?b and ?b = [B = int] ++ ?a: the second solve
    // must either fail the occurs check or postpone — never diverge.
    let start = Instant::now();
    let env = Env::new();
    let mut cx = Cx::new();
    let a = cx.metas.fresh_con(Kind::row(Kind::Type), "a");
    let b = cx.metas.fresh_con(Kind::row(Kind::Type), "b");
    let lhs1 = a;
    let rhs1 = Con::row_cat(
        Con::row_one(Con::name("A"), Con::int()),
        b,
    );
    let first = ur::infer::unify(&env, &mut cx, &lhs1, &rhs1);
    assert!(!matches!(first, Unify::Fail(_)), "first equation is fine");
    let lhs2 = b;
    let rhs2 = Con::row_cat(
        Con::row_one(Con::name("B"), Con::int()),
        a,
    );
    let second = ur::infer::unify(&env, &mut cx, &lhs2, &rhs2);
    assert!(
        !matches!(second, Unify::Solved),
        "cyclic second equation must not claim success, got {second:?}"
    );
    assert_bounded(start, "cyclic rows");
}

// ---------------- wide ----------------

fn wide_row(prefix: &str, n: usize) -> ur::core::con::RCon {
    Con::row_of(
        Kind::Type,
        (0..n)
            .map(|i| (Con::name(format!("{prefix}{i}")), Con::int()))
            .collect(),
    )
}

#[test]
fn five_k_field_disjointness_exhausts_budget_not_time() {
    // 2,600 × 2,600 distinct literal names = 6.76M cross pairs, over the
    // 2M default budget: the prover must stop at the budget with the
    // conservative NotYet, never claim Proved, and never hang.
    let start = Instant::now();
    let env = Env::new();
    let mut cx = Cx::new();
    let r1 = wide_row("A", 2_600);
    let r2 = wide_row("B", 2_600);
    let out = ur::core::disjoint::prove(&env, &mut cx, &r1, &r2);
    assert_eq!(out, ur::core::disjoint::ProveResult::NotYet);
    assert_eq!(cx.fuel.exhausted(), Some(ResourceKind::ProverPairs));
    assert_bounded(start, "wide disjointness");
}

#[test]
fn wide_row_program_yields_resource_diagnostic() {
    // End-to-end: a record concatenation whose disjointness goal is over
    // budget surfaces as an E0900 diagnostic at the declaration, and the
    // elaborator stays usable.
    let start = Instant::now();
    let mut elab = Elaborator::new();
    elab.cx = Cx::with_limits(Limits::strict());
    let fields = |prefix: &str, n: usize| {
        (0..n)
            .map(|i| format!("{prefix}{i} = {i}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let src = format!(
        "val wide = {{{}}} ++ {{{}}}",
        fields("A", 150),
        fields("B", 150)
    );
    let err = elab.elab_source(&src).expect_err("over budget");
    assert_eq!(err.code(), Code::ResourceExhausted, "got: {err}");
    // Fuel was reset at the declaration boundary: small programs still
    // work in the same session.
    assert!(elab.elab_source("val ok = {A = 1}.A").is_ok());
    assert_bounded(start, "wide program");
}

#[test]
fn five_k_field_record_literal_elaborates_or_diagnoses() {
    // A single 5,000-field record literal (no disjointness pressure) is
    // legitimate input and must elaborate — wideness alone is not an
    // error.
    let start = Instant::now();
    let mut elab = Elaborator::new();
    let body = (0..5_000)
        .map(|i| format!("F{i} = {i}"))
        .collect::<Vec<_>>()
        .join(", ");
    let src = format!("val big = {{{body}}}");
    elab.elab_source(&src).expect("a flat wide record is fine");
    assert_bounded(start, "5k-field record");
}

// ---------------- multi-error ----------------

#[test]
fn three_independent_errors_reported_in_one_pass() {
    let mut elab = Elaborator::new();
    let src = "val a : int = \"not an int\"\n\
               val b = missingVariable\n\
               val c : string = 42\n\
               val good = 7";
    let (decls, diags) = elab.elab_source_all(src);
    assert!(
        diags.len() >= 3,
        "expected at least 3 diagnostics, got {}: {:?}",
        diags.len(),
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
    );
    // Recovery at declaration boundaries: the clean declaration made it.
    assert!(decls.iter().any(|d| d.name() == "good"));
    // Spans point at three different lines.
    let mut lines: Vec<u32> = diags.iter().map(|d| d.span.line).collect();
    lines.dedup();
    assert!(lines.len() >= 3, "spans should cover distinct declarations");
}

#[test]
fn multi_error_diagnostics_are_complete_and_span_sorted() {
    let mut elab = Elaborator::new();
    let src =
        "val a : int = \"not an int\"\nval b = missingVariable\nval c : string = 42\nval good = 7";
    let (decls, diags) = elab.elab_source_all(src);
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert_eq!(decls.len(), 1, "only `good` elaborates");
    assert!(diags.windows(2).all(|w| w[0].span <= w[1].span));
    let lines: Vec<u32> = diags.iter().map(|d| d.span.line).collect();
    assert_eq!(lines, vec![1, 2, 3]);
}

#[test]
fn multi_error_pass_classifies_codes() {
    let mut elab = Elaborator::new();
    let src = "val a : int = \"s\"\nval b = nowhere\nval c : string = 42";
    let (_, diags) = elab.elab_source_all(src);
    assert!(diags.iter().any(|d| d.code == Code::Unbound));
    assert!(diags
        .iter()
        .any(|d| matches!(d.code, Code::TypeMismatch | Code::Unresolved)));
}

#[test]
fn parse_error_in_multi_mode_is_a_single_diagnostic() {
    let mut elab = Elaborator::new();
    let (decls, diags) = elab.elab_source_all("val x = (((");
    assert!(decls.is_empty());
    assert_eq!(diags.len(), 1);
    assert!(matches!(diags[0].code, Code::Parse | Code::ParseTooDeep));
}

// ---------------- session survival ----------------

#[test]
fn session_survives_a_gauntlet_of_malformed_input() {
    let start = Instant::now();
    let mut sess = ur::Session::new().expect("prelude installs");
    let hostile = [
        "val x = ",
        "val = 3",
        "}{",
        "val s = \"unterminated",
        "val t : = 1",
        "fun f [ = 2",
        "val u = {A = 1, A = 2} ++ {A = 3}",
        "val v = missing ++ alsoMissing",
        "con k :: Type = #A #B #C",
    ];
    for src in hostile {
        assert!(sess.run(src).is_err(), "hostile input accepted: {src}");
    }
    // After all of that, the session still elaborates and evaluates.
    sess.run("val fine = 1 + 2").expect("session survives");
    assert_eq!(sess.get_int("fine").expect("fine exists"), 3);
    assert_bounded(start, "gauntlet");
}
