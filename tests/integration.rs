//! Cross-crate integration tests: the full pipeline (parse → elaborate →
//! evaluate) over the paper's examples and every case study.

use ur::studies::{run_study, studies, study};
use ur::{Session, SessionError};

#[test]
fn all_studies_run_end_to_end() {
    for s in studies() {
        let rep = run_study(&s).unwrap_or_else(|e| panic!("study {} failed: {e}", s.id));
        assert!(rep.impl_loc > 0);
        assert!(!rep.usage_values.is_empty(), "study {} has no usage output", s.id);
    }
}

#[test]
fn figure5_shape_holds() {
    // The qualitative claims of Figure 5 (see EXPERIMENTS.md):
    // implementations dominate interfaces; the disjointness prover is
    // invoked far more often than the algebraic laws; map-heavy
    // components exercise distributivity and fusion.
    let mut total_disj = 0;
    let mut total_laws = 0;
    for s in studies() {
        let rep = run_study(&s).unwrap();
        assert!(
            rep.impl_loc > rep.interface_loc,
            "{}: impl {} <= int {}",
            s.id,
            rep.impl_loc,
            rep.interface_loc
        );
        total_disj += rep.stats.disjoint_prover_calls;
        total_laws += rep.stats.law_map_identity
            + rep.stats.law_map_distrib
            + rep.stats.law_map_fusion;
    }
    assert!(
        total_disj > total_laws,
        "prover calls ({total_disj}) should dominate law uses ({total_laws})"
    );
    // Law-heavy rows.
    let sql_sheet = run_study(&study("spreadsheet_sql")).unwrap();
    assert!(sql_sheet.stats.law_map_fusion >= 1);
    assert!(sql_sheet.stats.law_map_identity >= 1);
    assert!(sql_sheet.stats.law_map_distrib >= 1);
    let versioned = run_study(&study("versioned")).unwrap();
    assert!(versioned.stats.law_map_fusion >= 1);
}

/// Golden Figure-5 counters: (Disj., Id., Dist., Fuse) per component, in
/// table order. Every normalization replays its rewrites, so Dist. counts
/// each distributivity rewrite the elaborator performs.
#[test]
fn figure5_counts_are_pinned() {
    let golden: [(&str, [u64; 4]); 11] = [
        ("folders", [9, 0, 2, 0]),
        ("mktable", [18, 0, 8, 0]),
        ("todb", [7, 0, 7, 1]),
        ("selector", [23, 0, 1, 0]),
        ("orm", [16, 0, 8, 0]),
        ("orm_links", [9, 0, 8, 0]),
        ("versioned", [64, 0, 19, 2]),
        ("admin", [30, 0, 21, 0]),
        ("admin2", [21, 0, 11, 0]),
        ("spreadsheet", [39, 0, 24, 0]),
        ("spreadsheet_sql", [40, 12, 31, 22]),
    ];
    let measured: Vec<(&str, [u64; 4])> = studies()
        .iter()
        .map(|s| {
            let st = run_study(s).unwrap_or_else(|e| panic!("study {} failed: {e}", s.id)).stats;
            let counts = [
                st.disjoint_prover_calls,
                st.law_map_identity,
                st.law_map_distrib,
                st.law_map_fusion,
            ];
            (s.id, counts)
        })
        .collect();
    assert_eq!(measured, golden);
    let total_disj: u64 = golden.iter().map(|(_, c)| c[0]).sum();
    assert_eq!(total_disj, 276);
}

#[test]
fn swap_without_retyping_is_rejected() {
    // {a = x.b, b = x.a} has type $([a = u] ++ [b = t]); annotating the
    // *unswapped* type must be a static error.
    let mut sess = Session::new().unwrap();
    sess.run(
        "fun swap [a :: Name] [b :: Name] [t :: Type] [u :: Type] [[a] ~ [b]] \
             (x : $([a = t] ++ [b = u])) : $([a = t] ++ [b = u]) = {a = x.b, b = x.a}",
    )
    .unwrap_err();
}

#[test]
fn swap_with_retyping_is_accepted() {
    // The same body with the honest (swapped) result type is fine.
    let mut sess = Session::new().unwrap();
    sess.run(
        "fun swap [a :: Name] [b :: Name] [t :: Type] [u :: Type] [[a] ~ [b]] \
             (x : $([a = t] ++ [b = u])) : $([a = u] ++ [b = t]) = {a = x.b, b = x.a}\n\
         val y = swap [#P] [#Q] {P = 1, Q = \"s\"}\n\
         val q = y.P",
    )
    .unwrap();
    assert_eq!(sess.get_str("q").unwrap(), "s");
}

#[test]
fn swap_with_correct_types_accepted() {
    let mut sess = Session::new().unwrap();
    sess.run(
        "fun swap [a :: Name] [b :: Name] [t :: Type] [u :: Type] [[a] ~ [b]] \
             (x : $([a = t] ++ [b = u])) = {a = x.a, b = x.b}\n\
         val y = swap [#P] [#Q] {P = 1, Q = \"s\"}\n\
         val p = y.P",
    )
    .unwrap();
    assert_eq!(sess.get_int("p").unwrap(), 1);
}

#[test]
fn metaprogram_misuse_is_a_type_error_not_a_crash() {
    let mut sess = Session::new().unwrap();
    sess.run(study("mktable").implementation()).unwrap();
    // Wrong Show type for the field value.
    let err = sess
        .run(
            "val f = mkTable {A = {Label = \"A\", Show = showInt}}\n\
             val bad = f {A = \"not an int\"}",
        )
        .unwrap_err();
    assert!(matches!(err, SessionError::Elab(_)));
}

#[test]
fn duplicate_columns_rejected_statically() {
    let mut sess = Session::new().unwrap();
    sess.run(study("selector").implementation()).unwrap();
    let err = sess
        .run("val p = selector ({A = 1} ++ {A = 2})")
        .unwrap_err();
    assert!(matches!(err, SessionError::Elab(_)));
}

#[test]
fn database_state_persists_across_runs_in_a_session() {
    let mut sess = Session::new().unwrap();
    sess.run("val t = createTable \"kv\" {K = sqlString, V = sqlInt}")
        .unwrap();
    sess.run("val a = insert t {K = const \"x\", V = const 1}")
        .unwrap();
    sess.run("val b = insert t {K = const \"y\", V = const 2}")
        .unwrap();
    assert_eq!(sess.db().row_count("kv").unwrap(), 2);
    let n = sess.eval("rowCount t").unwrap();
    assert_eq!(n.as_int().unwrap(), 2);
}

#[test]
fn xml_and_sql_injection_are_both_neutralized() {
    let mut sess = Session::new().unwrap();
    let payload = "\\\"'><script>alert(1)</script>; DROP TABLE x; --";
    sess.run(&format!(
        "val t = createTable \"msgs\" {{Body = sqlString}}\n\
         val u = insert t {{Body = const \"{payload}\"}}\n\
         val rows = selectAll t (sqlTrue)\n\
         val render = renderXml (tagP (cdata \"{payload}\"))"
    ))
    .unwrap();
    let render = sess.get_str("render").unwrap();
    assert!(!render.contains("<script>"));
    assert_eq!(sess.db().row_count("msgs").unwrap(), 1);
    // The raw payload survives as data.
    let rows = sess.eval("selectAll t (sqlTrue)").unwrap();
    let body = rows.as_list().unwrap()[0].as_record().unwrap()["Body"]
        .as_str()
        .unwrap();
    assert!(body.contains("DROP TABLE"));
}

#[test]
fn stats_accumulate_monotonically() {
    let mut sess = Session::new().unwrap();
    let s0 = sess.stats().clone();
    sess.run(study("mktable").implementation()).unwrap();
    let s1 = sess.stats().clone();
    let d = s1.since(&s0);
    assert!(d.unify_calls > 0);
    assert!(d.row_normalizations > 0);
}

#[test]
fn usage_code_requires_no_fancy_types() {
    // Design principle 2, checked syntactically: no usage file contains a
    // kind annotation (`::`), a disjointness guard, or a `$` record-type
    // former — except the documented `fn (x : t) => ...` parameter
    // annotations and explicit name arguments, which mainstream languages
    // have.
    for s in studies() {
        if s.id == "folders" {
            // The folder-combinator usage is itself metaprogramming (it
            // defines a generic countFields); it is expert-facing.
            continue;
        }
        let usage = s.usage;
        assert!(
            !usage.contains("::"),
            "study {} usage contains a kind annotation",
            s.id
        );
        assert!(
            !usage.contains('~'),
            "study {} usage contains a disjointness constraint",
            s.id
        );
        assert!(
            !usage.contains('$'),
            "study {} usage contains a record-type former",
            s.id
        );
    }
}
