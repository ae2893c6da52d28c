//! VM-vs-interpreter differential on the case studies' page renders:
//! the spreadsheet, admin and mkTable pages at 0, 1, 100 and 1,000
//! rows must be byte-identical on both engines. These renders fold
//! `xcat` over every row, so they are also where shared XML subtrees
//! and the VM's resolution memo do their work.

use ur_eval::EvalEngine;
use ur_studies::{load_deps, study};
use ur_web::Session;

const ROW_COUNTS: [usize; 4] = [0, 1, 100, 1000];

/// A session on `engine` with `study_id` loaded, plus `rows`: a list of
/// `n` records `{Id, A, B}`, built by doubling so the source stays
/// shallow.
fn session(engine: EvalEngine, study_id: &str, n: usize) -> Session {
    let s = study(study_id);
    let mut sess = Session::new().expect("session");
    sess.engine = engine;
    load_deps(&mut sess, &s).expect("deps");
    sess.run(s.implementation()).expect("implementation");
    let mut src = String::from("val u0 = cons 0 nil\n");
    for i in 1..=10 {
        src.push_str(&format!("val u{i} = appendList u{0} u{0}\n", i - 1));
    }
    src.push_str(&format!(
        "val rows = foldList (fn (u : int) (acc : list {{Id : int, A : int, B : bool}}) =>\n\
           cons {{Id = lengthList acc, A = lengthList acc * 7, B = lengthList acc > 500}} acc)\n\
           nil (takeL {n} u10)\n"
    ));
    sess.run(&src).expect("rows");
    sess
}

/// Runs `setup` then evaluates `page` on both engines and checks the
/// outputs are the same string; returns it.
fn same_page(study_id: &str, n: usize, setup: &str, page: &str) -> String {
    let mut out = Vec::new();
    for engine in [EvalEngine::Vm, EvalEngine::Interp] {
        let mut sess = session(engine, study_id, n);
        sess.run(setup).expect("setup");
        let v = sess.eval(page).expect("page");
        out.push(v.as_str().expect("a string page").to_string());
    }
    assert!(
        out[0] == out[1],
        "{study_id} at {n} rows: the VM and the interpreter rendered different pages"
    );
    out.pop().unwrap_or_default()
}

fn count(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

#[test]
fn spreadsheet_render_is_identical_on_both_engines() {
    let setup = "val s = sheet \"Bench\" \
         {Id = {Label = \"Id\", Show = showInt}, A = {Label = \"A\", Show = showInt}, \
          B = {Label = \"B\", Show = showBool}} \
         {DA = {Label = \"2A\", Fn = fn x => 2 * x.A, Show = showInt}} \
         {Sum = {Label = \"Sum\", Init = 0, Step = fn x n => x.A + n, Show = showInt}}";
    for n in ROW_COUNTS {
        let html = same_page("spreadsheet", n, setup, "s.Render rows");
        // Header, one row per record, and the aggregate row.
        assert_eq!(count(&html, "<tr>"), n + 2, "{n} rows");
        let sum: usize = (0..n).map(|i| i * 7).sum();
        assert!(
            html.contains(&format!("<td>{sum}</td></tr></table>")),
            "{n} rows"
        );
    }
}

#[test]
fn admin_page_is_identical_on_both_engines() {
    let setup = "val inv = adminTable \"Inventory\" \"inv_items\" \
         {Name = {Label = \"Name\", Show = fn (s : string) => s, \
                  Parse = fn (s : string) => s, SqlType = sqlString}, \
          Qty = {Label = \"Qty\", Show = showInt, Parse = parseInt, SqlType = sqlInt}}\n\
         val added = foldList (fn (x : {Id : int, A : int, B : bool}) (u : unit) => \
           inv.AddRow {Name = \"<item \" ^ showInt x.Id ^ \">\", Qty = showInt x.A}) () rows";
    for n in ROW_COUNTS {
        let html = same_page("admin", n, setup, "inv.Page ()");
        assert_eq!(count(&html, "<tr>"), n + 1, "{n} rows");
        assert_eq!(count(&html, "&lt;item "), n, "{n} rows: names are escaped");
    }
}

#[test]
fn mktable_fold_is_identical_on_both_engines() {
    let setup = "val fx = mkXmlTable {A = {Label = \"A\", Show = showInt}, \
                                      B = {Label = \"B\", Show = showBool}}";
    let page = "renderXml (foldList (fn (x : {Id : int, A : int, B : bool}) (acc : xml #body) => \
                  xcat acc (fx (x -- #Id))) xempty rows)";
    for n in ROW_COUNTS {
        let html = same_page("mktable", n, setup, page);
        assert_eq!(count(&html, "<table>"), n, "{n} rows");
        assert_eq!(count(&html, "<th>A</th>"), n, "{n} rows");
    }
}
