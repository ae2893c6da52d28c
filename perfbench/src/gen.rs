//! Seeded inputs. Every program and request the benchmark sends is
//! a pure function of `--seed`, so one seed always gives the same run.

use std::fmt::Write as _;
use ur_studies::studies;
use ur_testutil::Rng;

/// The generator for one stream of draws. `Rng` is xorshift, whose first
/// outputs follow small seeds closely, so the seed is mixed first.
fn rng(seed: u64) -> Rng {
    Rng::new(ur_core::fingerprint::splitmix64(seed))
}

/// Every case study's implementation followed by its usage demo, in
/// dependency order: the library half of every generated program.
pub fn case_studies() -> String {
    let mut out = String::new();
    for s in studies() {
        out.push_str(s.implementation());
        out.push('\n');
        out.push_str(s.usage);
        out.push('\n');
    }
    out
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Str,
    Bool,
}

/// The column types of one generated record; field `Fi` has type `tys[i]`
/// and `F0` is always an int (the spreadsheet aggregates sum it).
struct Shape {
    tys: Vec<Ty>,
}

impl Shape {
    /// `F0` an int, and the other fields a third each of ints, strings
    /// and bools, in an order the draw shuffles.
    fn draw(rng: &mut Rng, width: usize) -> Shape {
        let mut tys: Vec<Ty> = (0..width)
            .map(|i| [Ty::Int, Ty::Str, Ty::Bool][i % 3])
            .collect();
        for i in (2..width).rev() {
            tys.swap(i, 1 + rng.below(i));
        }
        Shape { tys }
    }

    /// `{F0 = f(0, ty0), F1 = ...}`.
    fn record(&self, mut f: impl FnMut(usize, Ty) -> String) -> String {
        let fields: Vec<String> = self
            .tys
            .iter()
            .enumerate()
            .map(|(i, &t)| format!("F{i} = {}", f(i, t)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    fn row(&self, rng: &mut Rng) -> String {
        self.record(|_, t| lit(rng, t))
    }
}

fn lit(rng: &mut Rng, t: Ty) -> String {
    match t {
        Ty::Int => rng.below(1000).to_string(),
        Ty::Str => format!("\"s{}\"", rng.below(1000)),
        Ty::Bool => if rng.below(2) == 0 { "True" } else { "False" }.to_string(),
    }
}

fn show(t: Ty) -> &'static str {
    match t {
        Ty::Int => "showInt",
        Ty::Str => "fn (v : string) => v",
        Ty::Bool => "showBool",
    }
}

fn sql_type(t: Ty) -> &'static str {
    match t {
        Ty::Int => "sqlInt",
        Ty::Str => "sqlString",
        Ty::Bool => "sqlBool",
    }
}

/// Program `idx` of the `programs` a `build` run compiles: the case
/// studies plus three seeded clients (a `mkTable`, an `ormTable` and a
/// `sqlSheet` instantiation) with record widths from 1..=64. Even
/// programs are read programs, which only query their tables; odd ones
/// write programs, which insert and delete rows as well. Every seed
/// compiles programs of the same sizes, so that runs with different
/// seeds do the same work: within each half, program `k` takes its three
/// widths from the `k`-th of `programs / 2` equal bands of 1..=64 (its
/// low end, middle and high end), and a record of width `w` has a fixed
/// number of int, string and bool fields. The seed picks which field has
/// which type, and every literal.
pub fn build_program(seed: u64, idx: usize, programs: usize) -> String {
    let half = (programs / 2).max(1);
    let (band, slot, writes) = (64 / half, (idx / 2) % half, idx % 2 == 1);
    let mut rng = rng(seed.wrapping_mul(1_000_003).wrapping_add(idx as u64));
    let mut src = case_studies();
    let _ = writeln!(src, "(* ---- generated clients ---- *)");
    let width = |rng: &mut Rng, j: usize| Shape::draw(rng, 1 + slot * band + (band - 1) * j / 2);

    let sh = width(&mut rng, 0);
    let meta = sh.record(|i, t| format!("{{Label = \"F{i}\", Show = {}}}", show(t)));
    let _ = writeln!(src, "val gen_t = mkTable {meta}");
    let _ = writeln!(src, "val gen_t_h = gen_t {}", sh.row(&mut rng));
    let _ = writeln!(src, "val gen_x = mkXmlTable {meta}");
    let _ = writeln!(src, "val gen_x_h = renderXml (gen_x {})", sh.row(&mut rng));

    let sh = width(&mut rng, 1);
    let meta = sh.record(|_, t| format!("{{SqlType = {}, Show = {}}}", sql_type(t), show(t)));
    let _ = writeln!(src, "val gen_o = ormTable \"gen_o\" {meta}");
    if writes {
        let (r1, r2) = (sh.row(&mut rng), sh.row(&mut rng));
        let _ = writeln!(src, "val gen_o_a1 = gen_o.Add {r1}");
        let _ = writeln!(src, "val gen_o_a2 = gen_o.Add {r2}");
        let _ = writeln!(src, "val gen_o_d = gen_o.Delete {r2}");
    }
    let _ = writeln!(src, "val gen_o_c = gen_o.Count ()");
    let _ = writeln!(src, "val gen_o_l = lengthList (gen_o.List ())");
    let _ = writeln!(
        src,
        "val gen_o_f = lengthList (gen_o.FindWhere (sqlLt (column [#F0]) (const 500)))"
    );
    let _ = writeln!(src, "val gen_o_r = gen_o.Render {}", sh.row(&mut rng));

    let sh = width(&mut rng, 2);
    let meta = sh.record(|i, t| {
        format!(
            "{{Label = \"F{i}\", Show = {}, SqlType = {}}}",
            show(t),
            sql_type(t)
        )
    });
    let _ = writeln!(
        src,
        "val gen_s = sqlSheetSame \"Generated\" \"gen_s\" {meta}\n  \
         {{C = {{Label = \"C\", Fn = fn x => x.F0 + 1, Show = showInt}}}}\n  \
         {{Sum = {{Label = \"Sum\", Init = 0, Step = fn x n => x.F0 + n, Show = showInt}}}}"
    );
    if writes {
        for k in 0..3 {
            let _ = writeln!(src, "val gen_s_i{k} = gen_s.Insert {}", sh.row(&mut rng));
        }
    }
    let _ = writeln!(src, "val gen_s_c = gen_s.Count ()");
    let _ = writeln!(src, "val gen_s_t = gen_s.Totals ()");
    let _ = writeln!(src, "val gen_s_r = gen_s.Render ()");
    src
}

// ------------------------------------------------------------------- app

/// Rows per table in the app workloads; fixed, so every run scans the same.
pub const PEOPLE_ROWS: i64 = 200;
pub const SHEET_ROWS: i64 = 100;
pub const INV_ROWS: i64 = 60;

/// The served application: the ORM, admin and SQL-spreadsheet libraries
/// and one instantiation of each.
pub fn app_program() -> String {
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
        r#"(* ---- the served application ---- *)
val people = ormTable "people"
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

pub fn person_age0(id: i64) -> i64 {
    20 + id % 50
}

pub fn sheet_a0(id: i64) -> i64 {
    id % 17
}

pub fn person(id: i64, age: i64) -> String {
    format!(
        "{{Id = {id}, Owner = {}, Name = \"n{id}\", Age = {age}}}",
        id % 2
    )
}

/// The population evals connection `conn` sends at set-up: its own rows
/// (ids of its parity), in batches of `batch` inserts per eval.
pub fn population(conn: i64, batch: usize) -> Vec<String> {
    let mut stmts = Vec::new();
    for id in (conn..PEOPLE_ROWS).step_by(2) {
        stmts.push(format!("people.Add {}", person(id, person_age0(id))));
    }
    for id in (conn..SHEET_ROWS).step_by(2) {
        stmts.push(format!("sheet.Insert {{Id = {id}, A = {}}}", sheet_a0(id)));
    }
    for id in (conn..INV_ROWS).step_by(2) {
        stmts.push(format!(
            "inv.AddRow {{Id = \"{id}\", Name = \"item{id}\", Qty = \"{}\"}}",
            id * 3
        ));
    }
    stmts
        .chunks(batch)
        .map(|c| {
            let binds: Vec<String> = c
                .iter()
                .enumerate()
                .map(|(i, s)| format!("val b{i} = {s}"))
                .collect();
            format!("let {} in 0 end", binds.join(" "))
        })
        .collect()
}

/// One app request and what the client knows about its answer.
#[derive(Clone, Debug)]
pub enum AppReq {
    /// `people.Count ()`, always the fixed size.
    CountPeople,
    /// `lengthList (people.List ())`.
    ListPeople,
    /// `people.FindWhere` on an id this connection owns.
    FindPerson(i64),
    /// `sheet.Totals ()`.
    Totals,
    /// `sheet.Render ()`.
    Render,
    /// `inv.Page ()`, the admin page.
    AdminPage,
    /// `selectOrdered` paging over the sheet: (offset, limit).
    Page(i64, i64),
    /// The `db` snapshot report.
    DbReport,
    /// `updateRows` of an owned sheet row: (id, new A).
    UpdateSheet(i64, i64),
    /// Delete-and-add of an owned person, changing the age: (id, new age).
    ReplacePerson(i64, i64),
}

impl AppReq {
    pub fn is_write(&self) -> bool {
        matches!(self, AppReq::UpdateSheet(..) | AppReq::ReplacePerson(..))
    }

    pub fn kind(&self) -> &'static str {
        match self {
            AppReq::CountPeople => "count",
            AppReq::ListPeople => "list",
            AppReq::FindPerson(_) => "find",
            AppReq::Totals => "totals",
            AppReq::Render => "render",
            AppReq::AdminPage => "admin_page",
            AppReq::Page(..) => "page",
            AppReq::DbReport => "db",
            AppReq::UpdateSheet(..) => "update",
            AppReq::ReplacePerson(..) => "replace",
        }
    }
}

/// The Ur expression an app request evaluates (`None` for `db`), given
/// the age the client's model holds for a replaced person.
pub fn app_expr(r: &AppReq, old_age: i64) -> Option<String> {
    Some(match r {
        AppReq::CountPeople => "people.Count ()".into(),
        AppReq::ListPeople => "lengthList (people.List ())".into(),
        AppReq::FindPerson(id) => format!("people.FindWhere (sqlEq (column [#Id]) (const {id}))"),
        AppReq::Totals => "sheet.Totals ()".into(),
        AppReq::Render => "sheet.Render ()".into(),
        AppReq::AdminPage => "inv.Page ()".into(),
        AppReq::Page(off, lim) => format!(
            "mapL (fn (x : {{Id : int, A : int}}) => x.Id) \
             (selectOrdered [#A] sheet.Table (sqlTrue) {off} {lim})"
        ),
        AppReq::DbReport => return None,
        AppReq::UpdateSheet(id, a) => {
            format!("updateRows sheet.Table {{A = const {a}}} (sqlEq (column [#Id]) (const {id}))")
        }
        AppReq::ReplacePerson(id, age) => format!(
            "let val d = people.Delete {} val a = people.Add {} in d end",
            person(*id, old_age),
            person(*id, *age)
        ),
    })
}

/// Percent of the app requests that are writes.
const WRITE_PCT: usize = 90;

/// The reads, in twentieths: 5 finds, 3 counts, 2 lists, 2 totals,
/// 4 renders, 1 admin page, 2 pages and 1 `db` report. In a closed loop
/// each ~20 ms render on one connection holds up about one request of
/// the other, which is a write 9 times in 10. With 2 renders in 20
/// reads that was ~1% of the writes, so the writes' p99 fell on the
/// edge between writes that waited and writes that did not, and jumped
/// between runs (7 to 16 ms). With 4 it lies among the writes that
/// waited.
const READ_MIX: [usize; 8] = [5, 3, 2, 2, 4, 1, 2, 1];

/// `n` requests for one connection, [`WRITE_PCT`] percent of them writes.
/// The mix is exact, so every seed does the same work: writes split
/// evenly between sheet updates and person replacements; reads follow
/// [`READ_MIX`]. The seed shuffles the order and picks the rows and
/// values.
pub fn app_requests(seed: u64, conn: i64, n: usize) -> Vec<AppReq> {
    let mut rng = rng(seed ^ 0xA99 ^ ((conn as u64) << 40));
    let own = |rng: &mut Rng, rows: i64| conn + 2 * rng.below((rows / 2) as usize) as i64;
    let writes = n * WRITE_PCT / 100;
    let reads = n - writes;
    // Kind indices: 0..8 reads in `READ_MIX` order, 8 and 9 the writes.
    let mut kinds: Vec<usize> = (0..writes).map(|i| 8 + i % 2).collect();
    for i in 0..reads {
        // The i-th twentieth-slot, so any prefix of the reads keeps the mix.
        let mut slot = i % 20;
        let kind = READ_MIX.iter().position(|&w| {
            let hit = slot < w;
            slot = slot.saturating_sub(w);
            hit
        });
        kinds.push(kind.unwrap_or(0));
    }
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    kinds
        .into_iter()
        .map(|k| match k {
            0 => AppReq::FindPerson(own(&mut rng, PEOPLE_ROWS)),
            1 => AppReq::CountPeople,
            2 => AppReq::ListPeople,
            3 => AppReq::Totals,
            4 => AppReq::Render,
            5 => AppReq::AdminPage,
            6 => AppReq::Page(rng.below(SHEET_ROWS as usize - 10) as i64, 10),
            7 => AppReq::DbReport,
            8 => AppReq::UpdateSheet(own(&mut rng, SHEET_ROWS), rng.below(100) as i64),
            _ => AppReq::ReplacePerson(own(&mut rng, PEOPLE_ROWS), 18 + rng.below(60) as i64),
        })
        .collect()
}
