//! Dependency-graph coverage (`ur_infer::batch::DepGraph`): the edges
//! the incremental engine folds into each declaration's fingerprint —
//! references, forward references, shadowing, unknown names, and
//! `let`-local binders.

use ur_infer::{DepGraph, Elaborator};
use ur_syntax::parse_program;

fn graph_of(src: &str) -> DepGraph {
    let prog = parse_program(src).expect("parse");
    DepGraph::build(&prog.decls)
}

#[test]
fn references_draw_edges_to_the_binding_declaration() {
    let g = graph_of("val x = 1\nval y = x");
    assert_eq!(g.deps(0), &[] as &[usize]);
    assert_eq!(g.deps(1), &[0]);
}

#[test]
fn long_chains_complete() {
    // A 20-deep chain: one edge per link, and the whole chain elaborates.
    let mut src = String::from("val c0 = 1\n");
    for i in 1..20 {
        src.push_str(&format!("val c{i} = c{}\n", i - 1));
    }
    let g = graph_of(&src);
    for i in 1..20 {
        assert_eq!(g.deps(i), &[i - 1], "link {i}");
    }
    let mut elab = Elaborator::new();
    let (decls, diags) = elab.elab_source_all(&src);
    assert_eq!(decls.len(), 20);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn forward_references_get_no_edge() {
    // `a` references `laterName` before it is bound; that is an
    // unbound-variable error, so the graph must NOT point forward.
    let g = graph_of("val a = laterName\nval laterName = 2\nval b = laterName");
    assert_eq!(g.deps(0), &[] as &[usize], "no forward edge");
    assert_eq!(g.deps(2), &[1], "later use binds to the declaration");
}

#[test]
fn shadowing_draws_edges_to_every_earlier_binder() {
    // If the second `x` fails to elaborate, error recovery falls back to
    // the first `x` — so a dependent's outcome depends on BOTH binders.
    let g = graph_of("val x = 1\nval x = 2\nval y = x");
    assert_eq!(g.deps(1), &[] as &[usize], "the shadower itself uses no x");
    assert_eq!(g.deps(2), &[0, 1]);
}

#[test]
fn diamond_dependencies_draw_one_edge_per_reference() {
    let g = graph_of("val a = 1\nval b = a\nval c = a\nval d = c");
    assert_eq!(g.deps(1), &[0]);
    assert_eq!(g.deps(2), &[0]);
    assert_eq!(g.deps(3), &[2], "no transitive edge to a");
}

#[test]
fn unknown_names_contribute_no_edges() {
    let g = graph_of("val a = nowhere\nval b = 1");
    assert_eq!(g.deps(0), &[] as &[usize]);
    assert_eq!(g.deps(1), &[] as &[usize]);
}

#[test]
fn unknown_names_fail_as_unbound() {
    // The unknown name fails as unbound; the rest still elaborates.
    let src = "val a = nowhere\nval b = 1";
    let mut elab = Elaborator::new();
    let (decls, diags) = elab.elab_source_all(src);
    assert_eq!(decls.len(), 1, "only b elaborates");
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("unbound"), "{}", diags[0]);
}

#[test]
fn let_local_binders_do_not_leak_into_the_graph() {
    let g = graph_of("val a = let val q = 1 in q end\nval b = q");
    assert_eq!(g.deps(1), &[] as &[usize], "q is local to a's let");
}

#[test]
fn graphs_built_from_source_are_always_acyclic() {
    // Shadowing, self-reference, forward reference: none of these can
    // produce a cycle, because edges only ever point to earlier indices.
    for src in [
        "val x = 1\nval x = x\nval x = x",
        "fun f (x : int) = f x",
        "val a = b\nval b = a",
    ] {
        let n = parse_program(src).expect("parse").decls.len();
        let g = graph_of(src);
        for i in 0..n {
            assert!(
                g.deps(i).iter().all(|&d| d < i),
                "source {src:?}: declaration {i} has a non-backward edge"
            );
        }
    }
}
