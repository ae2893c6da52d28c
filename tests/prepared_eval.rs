//! Differential test for prepared evaluation: `Session::eval` elaborates
//! each expression shape once and binds its literals per call. The
//! oracle is a second session that runs the same expression as
//! `val it = …` through `Session::run` — a full, unprepared elaboration
//! every time — in lockstep, so both sessions see the same effects in
//! the same order. Values must be identical; an elaboration error must
//! be byte-identical to the unprepared one (`Session::type_of`, which
//! elaborates `src` itself).
//!
//! Both sessions use the engine `UR_EVAL` selects (the VM by default);
//! CI also runs this file with `UR_EVAL=interp`. The app requests are
//! additionally checked on both engines explicitly.

use ur::eval::EvalEngine;
use ur::studies::{studies, study, Study};
use ur::{Session, SessionError};
use ur_testutil::Rng;

/// `Ok(value)` or the error text of one evaluation.
fn shown(r: Result<ur::eval::Value, SessionError>) -> Result<String, String> {
    r.map(|v| v.to_string()).map_err(|e| e.to_string())
}

/// A prepared session and its oracle, driven in lockstep.
struct Pair {
    prepared: Session,
    oracle: Session,
}

impl Pair {
    fn new(engine: Option<EvalEngine>) -> Pair {
        let mut prepared = Session::new().expect("session");
        let mut oracle = Session::new().expect("session");
        if let Some(e) = engine {
            prepared.engine = e;
            oracle.engine = e;
        }
        Pair { prepared, oracle }
    }

    /// Runs declarations in both sessions.
    fn run(&mut self, src: &str) {
        let a = self
            .prepared
            .run(src)
            .map(|_| ())
            .map_err(|e| e.to_string());
        let b = self.oracle.run(src).map(|_| ()).map_err(|e| e.to_string());
        assert_eq!(a, b, "sessions diverged on run of {src}");
        a.unwrap_or_else(|e| panic!("run failed: {e}\n{src}"));
    }

    /// Evaluates `expr` in both sessions and checks they agree; returns
    /// the prepared session's result.
    fn eval(&mut self, expr: &str) -> Result<String, String> {
        let got = self.prepared.eval(expr);
        let elab_error = matches!(got, Err(SessionError::Elab(_)));
        let got = shown(got);
        let want = self.oracle.run(&format!("val it = {expr}"));
        match want {
            Ok(defs) => {
                let (_, v) = defs.last().expect("one value");
                assert_eq!(got, Ok(v.to_string()), "value of {expr}");
            }
            Err(SessionError::Elab(_)) => {
                assert!(
                    elab_error,
                    "{expr}: oracle failed to elaborate, prepared gave {got:?}"
                );
                let unprepared = self
                    .prepared
                    .type_of(expr)
                    .map(|_| ())
                    .map_err(|e| e.to_string());
                assert_eq!(got, Err(unprepared.unwrap_err()), "error text of {expr}");
            }
            Err(e) => assert_eq!(got, Err(e.to_string()), "runtime error of {expr}"),
        }
        got
    }

    /// [`Pair::eval`] for a call whose agreement is all that matters.
    fn check(&mut self, expr: &str) {
        let _ = self.eval(expr);
    }

    fn hits(&self) -> u64 {
        self.prepared.stats().eval_prepared_hits
    }

    fn misses(&self) -> u64 {
        self.prepared.stats().eval_prepared_misses
    }
}

// ------------------------------------------------------------ the app

const PEOPLE: i64 = 20;
const SHEET: i64 = 12;
const INV: i64 = 6;

/// The served application of the `app_write` benchmark: the ORM, admin
/// and SQL-spreadsheet libraries and one instantiation of each.
fn app_program() -> String {
    let mut src = String::new();
    for s in studies() {
        if [
            "folders",
            "selector",
            "orm",
            "admin",
            "spreadsheet",
            "spreadsheet_sql",
        ]
        .contains(&s.id)
        {
            src.push_str(s.implementation());
            src.push('\n');
        }
    }
    src.push_str(
        r#"val people = ormTable "people"
  {Id = {SqlType = sqlInt, Show = showInt}, Owner = {SqlType = sqlInt, Show = showInt},
   Name = {SqlType = sqlString, Show = fn (s : string) => s}, Age = {SqlType = sqlInt, Show = showInt}}
val inv = adminTable "Inventory" "inv_items"
  {Id = {Label = "Id", Show = showInt, Parse = parseInt, SqlType = sqlInt},
   Name = {Label = "Name", Show = fn (s : string) => s, Parse = fn (s : string) => s, SqlType = sqlString},
   Qty = {Label = "Qty", Show = showInt, Parse = parseInt, SqlType = sqlInt}}
val sheet = sqlSheetSame "Sheet" "sheet_data"
  {Id = {Label = "Id", Show = showInt, SqlType = sqlInt},
   A = {Label = "A", Show = showInt, SqlType = sqlInt}}
  {DA = {Label = "2A", Fn = fn x => 2 * x.A, Show = showInt}}
  {Sum = {Label = "Sum", Init = 0, Step = fn x n => x.A + n, Show = showInt}}
"#,
    );
    src
}

fn person(id: i64, age: i64) -> String {
    format!(
        "{{Id = {id}, Owner = {}, Name = \"n{id}\", Age = {age}}}",
        id % 2
    )
}

/// A loaded and populated app in both sessions, with the ages the
/// people table holds.
fn app_pair(engine: Option<EvalEngine>) -> (Pair, Vec<i64>) {
    let mut p = Pair::new(engine);
    p.run(&app_program());
    let ages: Vec<i64> = (0..PEOPLE).map(|id| 20 + id % 50).collect();
    for id in 0..PEOPLE {
        p.check(&format!("people.Add {}", person(id, ages[id as usize])));
    }
    for id in 0..SHEET {
        p.check(&format!("sheet.Insert {{Id = {id}, A = {}}}", id % 17));
    }
    for id in 0..INV {
        p.check(&format!(
            "inv.AddRow {{Id = \"{id}\", Name = \"item{id}\", Qty = \"{}\"}}",
            id * 3
        ));
    }
    (p, ages)
}

/// Every request kind of the `app_write` workload, with seeded literals.
fn app_requests(p: &mut Pair, ages: &mut [i64], seed: u64, n: usize) {
    let mut rng = Rng::new(seed);
    for i in 0..n {
        let id = rng.below(PEOPLE as usize) as i64;
        let expr = match i % 10 {
            0 => "people.Count ()".to_string(),
            1 => "lengthList (people.List ())".to_string(),
            2 => format!("people.FindWhere (sqlEq (column [#Id]) (const {id}))"),
            3 => "sheet.Totals ()".to_string(),
            4 => "sheet.Render ()".to_string(),
            5 => "inv.Page ()".to_string(),
            6 => format!(
                "mapL (fn (x : {{Id : int, A : int}}) => x.Id) \
                 (selectOrdered [#A] sheet.Table (sqlTrue) {} {})",
                rng.below(SHEET as usize - 4),
                1 + rng.below(4)
            ),
            7 | 8 => format!(
                "updateRows sheet.Table {{A = const {}}} (sqlEq (column [#Id]) (const {}))",
                rng.below(100),
                rng.below(SHEET as usize)
            ),
            _ => {
                let age = 18 + rng.below(60) as i64;
                let old = std::mem::replace(&mut ages[id as usize], age);
                format!(
                    "let val d = people.Delete {} val a = people.Add {} in d end",
                    person(id, old),
                    person(id, age)
                )
            }
        };
        let got = p.eval(&expr);
        assert!(got.is_ok(), "{expr}: {got:?}");
    }
}

#[test]
fn app_write_requests_match_the_oracle() {
    let (mut p, mut ages) = app_pair(None);
    let before = p.hits();
    app_requests(&mut p, &mut ages, 21, 120);
    // Nine shapes, each elaborated once: everything after is a hit.
    assert!(
        p.hits() - before >= 120 - 9,
        "hits {} misses {}",
        p.hits(),
        p.misses()
    );
}

#[test]
fn app_write_requests_match_the_oracle_on_both_engines() {
    for engine in [EvalEngine::Vm, EvalEngine::Interp] {
        let (mut p, mut ages) = app_pair(Some(engine));
        app_requests(&mut p, &mut ages, 22, 40);
        assert!(p.hits() > 0, "{engine:?}: no prepared hits");
    }
}

// ----------------------------------------------------- the case studies

/// Each `val` of each study's usage demo, evaluated twice as an
/// expression (a miss, then a hit) before the declaration itself runs.
/// Both sessions roll the two evaluations back, so the declaration runs
/// on the state it was written for.
#[test]
fn case_study_usage_expressions_match_the_oracle() {
    for s in studies() {
        let mut p = Pair::new(None);
        load(&mut p, &s);
        let prog = ur::syntax::parse_program(s.usage).expect("usage parses");
        let mut hits = 0;
        for d in &prog.decls {
            if let ur::syntax::SDecl::Val(_, _, _, e) = d {
                let expr = ur::syntax::pretty::expr_to_string(e);
                let (a, b) = (p.prepared.snapshot(), p.oracle.snapshot());
                // A miss, then a hit. Each answer is checked against the
                // oracle, which repeats the effects in the same order.
                let h0 = p.hits();
                p.check(&expr);
                p.check(&expr);
                // The rollback rewinds the statistics too.
                hits += p.hits() - h0;
                p.prepared.rollback(a);
                p.oracle.rollback(b);
            }
            p.run(&ur::syntax::pretty::decl_to_string(d));
        }
        assert!(hits > 0, "{}: no prepared hits", s.id);
    }
}

fn load(p: &mut Pair, s: &Study) {
    for dep in s.deps {
        load(p, &study(dep));
    }
    p.run(s.implementation());
}

// ------------------------------------------------------------ literals

#[test]
fn int_then_string_in_one_slot_reports_the_unprepared_error() {
    let mut p = Pair::new(None);
    p.run(
        "val t = createTable \"people\" {Id = sqlInt, Name = sqlString}\n\
           val u = insert t {Id = const 4, Name = const \"d\"}",
    );
    assert_eq!(
        p.eval("selectAll t (sqlEq (column [#Id]) (const 4))"),
        Ok("[{Id = 4, Name = \"d\"}]".to_string())
    );
    let misses = p.misses();
    let err = p
        .eval("selectAll t (sqlEq (column [#Id]) (const \"4\"))")
        .unwrap_err();
    assert_eq!(p.misses(), misses + 1, "a string slot is a new shape");
    // The text the unprepared elaboration gave before prepared evals.
    assert_eq!(
        err,
        "error at 1:14: type mismatch: types string and int differ"
    );
    // The int shape is still prepared.
    let hits = p.hits();
    assert_eq!(
        p.eval("selectAll t (sqlEq (column [#Id]) (const 5))"),
        Ok("[]".to_string())
    );
    assert_eq!(p.hits(), hits + 1);
}

#[test]
fn negative_ints_floats_and_escaped_strings_bind_exactly() {
    let mut p = Pair::new(None);
    for expr in [
        "neg 17",
        "0 - 17 * 3",
        "neg (neg 9223372036854775807)",
        "showFloat (mulFloat 2.5 0.1)",
        "showFloat (addFloat 1.0 0.000001)",
        "\"tab\\there \\\"quoted\\\" back\\\\slash\\nnewline\"",
        "\"a\" ^ \"\" ^ \"b\"",
        "if True then \"yes\" else \"no\"",
        "let fun f (x : int) = x + 3 in f 4 + f 40 end",
        "{A = 1, B = \"two\", C = 3.0}.B",
        "showInt (floatToInt 7.9) ^ showInt 2",
    ] {
        p.check(expr);
        p.check(expr);
    }
    // Same shapes, other literals: hits that still bind exactly.
    assert_eq!(p.eval("neg 40"), Ok("-40".into()));
    p.check("showFloat (mulFloat 4.0 0.5)");
    assert_eq!(p.eval("\"x\\\\y\\\"z\""), Ok("\"x\\\\y\\\"z\"".to_string()));
    assert!(p.hits() >= 11, "hits {}", p.hits());
}

#[test]
fn pair_projections_in_type_annotations_are_not_holes() {
    let mut p = Pair::new(None);
    let fst = "(5 : (fn (q :: Type * Type) => q.1) (int, string))";
    let snd = "(5 : (fn (q :: Type * Type) => q.2) (int, string))";
    assert_eq!(p.eval(fst), Ok("5".into()));
    assert_eq!(p.eval(fst), Ok("5".into()));
    // `.2` is part of the shape: not a hit on the `.1` function, but
    // the unprepared type error.
    let err = p.eval(snd).unwrap_err();
    assert_eq!(
        err,
        "error at 1:2: type mismatch: types int and string differ"
    );
    assert_eq!(
        p.eval("(\"s\" : (fn (q :: Type * Type) => q.2) (int, string))"),
        Ok("\"s\"".into())
    );
}

#[test]
fn hole_names_cannot_be_written_in_source() {
    let mut p = Pair::new(None);
    assert_eq!(p.eval("1 + 2"), Ok("3".into()));
    // `?` is not a token: the unprepared parse error, not a hole.
    let err = p.eval("?i0 + 2").unwrap_err();
    assert!(
        err.contains("parse error") || err.contains("unexpected"),
        "{err}"
    );
}

// ---------------------------------------------- scope changes and cache

#[test]
fn run_that_shadows_a_name_forces_a_fresh_elaboration() {
    let mut p = Pair::new(None);
    p.run("val k = 10");
    assert_eq!(p.eval("k + 1"), Ok("11".into()));
    assert_eq!(p.eval("k + 2"), Ok("12".into()));
    let misses = p.misses();
    p.run("val k = \"ten\"");
    // `k` is a string now: the cached int function must not be served.
    assert!(p.eval("k + 1").is_err());
    assert_eq!(p.eval("k ^ \"!\""), Ok("\"ten!\"".into()));
    assert_eq!(p.misses(), misses + 2);
}

#[test]
fn rollback_forces_a_fresh_elaboration() {
    let mut p = Pair::new(None);
    p.run("val k = 10");
    let (a, b) = (p.prepared.snapshot(), p.oracle.snapshot());
    p.run("val k = 100");
    assert_eq!(p.eval("k + 1"), Ok("101".into()));
    assert_eq!(p.eval("k + 2"), Ok("102".into()));
    p.prepared.rollback(a);
    p.oracle.rollback(b);
    // The rollback rewinds the statistics too.
    let misses = p.misses();
    assert_eq!(p.eval("k + 1"), Ok("11".into()));
    assert_eq!(p.misses(), misses + 1);
}

#[test]
fn reelaborate_forces_a_fresh_elaboration() {
    let dir = std::env::temp_dir().join(format!("ur-prepared-incr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sess = Session::new().unwrap();
    sess.cache_dir = Some(dir.clone());
    let (_, d) = sess.reelaborate("val k = 10");
    assert!(d.is_empty(), "{d:?}");
    assert_eq!(shown(sess.eval("k + 1")), Ok("11".into()));
    let (_, d) = sess.reelaborate("val k = \"ten\"");
    assert!(d.is_empty(), "{d:?}");
    assert_eq!(shown(sess.eval("k ^ \"!\"")), Ok("\"ten!\"".into()));
    assert!(sess.eval("k + 2").is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runtime_errors_match_the_oracle() {
    let mut p = Pair::new(None);
    for expr in ["10 / 0", "10 / 0", "7 / 0", "10 % 0", "4 % 0"] {
        let got = p.eval(expr);
        assert!(got.is_err(), "{expr}: {got:?}");
    }
}
