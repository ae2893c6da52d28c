//! The untraced end-to-end runs: the release `urc` as a child process,
//! closed-loop clients, and a check of every answer.
//!
//! Server workloads run in *rounds*: a fresh server in a fresh temp
//! directory, set-up, then a fixed number of requests per connection.
//! Rounds repeat until `--seconds` have passed, so every figure comes
//! from rounds of equal request count however fast the program is (the
//! server's memory and latency drift with the requests it has served).

use crate::gen::{self, AppReq};
use crate::proc::{self, Client, Res, Server};
use crate::{quantile, Ctx, Outcome};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client connections (and in-flight requests) against a server.
pub const CONNS: usize = 2;
/// Distinct programs a `build` run cycles through.
pub const BUILD_PROGRAMS: usize = 8;
/// Compiles per `build` round: four passes over the programs.
const BUILD_ROUND: usize = 4 * BUILD_PROGRAMS;
/// Requests per connection per `app_write` round: enough writes that
/// every round crosses the server's 4096-record auto-checkpoint.
pub const APP_REQS: usize = 1000;

/// Each connection's requests for one round of `app_write`.
pub fn app_requests(ctx: &Ctx) -> Vec<Vec<AppReq>> {
    (0..CONNS as i64)
        .map(|c| gen::app_requests(ctx.seed, c, APP_REQS))
        .collect()
}
/// Inserts per population eval.
const POPULATE_BATCH: usize = 25;
const DRAIN: Duration = Duration::from_secs(60);

/// Latency samples of one run, in ms, plus the per-round figures.
#[derive(Default)]
pub struct Samples {
    pub all: Vec<f64>,
    pub read: Vec<f64>,
    pub write: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub rss_mb: Vec<f64>,
    pub ops_per_s: Vec<f64>,
    /// Each round's p99 of `all`, `read` and `write`.
    round_p99: [Vec<f64>; 3],
    /// Where the current round starts in `all`, `read` and `write`.
    round_start: [usize; 3],
}

impl Samples {
    fn push(&mut self, ms: f64, write: bool) {
        self.all.push(ms);
        if write {
            self.write.push(ms);
        } else {
            self.read.push(ms);
        }
    }

    fn absorb(&mut self, other: Samples) {
        self.all.extend(other.all);
        self.read.extend(other.read);
        self.write.extend(other.write);
    }

    /// Closes a round: records the p99 of the samples taken since the
    /// last call. The run's p99 is the median of these, which a few
    /// stalls of a shared machine move far less than a pooled p99.
    fn end_round(&mut self) {
        for (k, v) in [&self.all, &self.read, &self.write].into_iter().enumerate() {
            if v.len() > self.round_start[k] {
                self.round_p99[k].push(quantile(&v[self.round_start[k]..], 0.99));
            }
            self.round_start[k] = v.len();
        }
    }

    pub fn into_outcome(self, out: &mut Outcome) {
        let m = |v: &[f64], q: f64| quantile(v, q);
        out.metric("setup_s", m(&self.setup_s, 0.5), "s");
        out.metric("p50_ms", m(&self.all, 0.5), "ms");
        out.metric("p99_ms", m(&self.round_p99[0], 0.5), "ms");
        out.metric("ops_per_s", m(&self.ops_per_s, 0.5), "1/s");
        out.metric("rss_mb", m(&self.rss_mb, 0.5), "MiB");
        out.metric("read_p50_ms", m(&self.read, 0.5), "ms");
        out.metric("read_p99_ms", m(&self.round_p99[1], 0.5), "ms");
        out.metric("write_p50_ms", m(&self.write, 0.5), "ms");
        out.metric("write_p99_ms", m(&self.round_p99[2], 0.5), "ms");
        out.note(format!(
            "samples: {} ops ({} read, {} write), {} rounds, {} set-ups",
            self.all.len(),
            self.read.len(),
            self.write.len(),
            self.round_p99[0].len(),
            self.setup_s.len()
        ));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ----------------------------------------------------------------- build

/// Writes the `build` programs into `dir`: (file name, source). Odd
/// programs are the write programs.
pub fn write_build_programs(ctx: &Ctx, dir: &Path) -> Res<Vec<(String, String)>> {
    (0..BUILD_PROGRAMS)
        .map(|i| {
            let name = format!("prog{i}.ur");
            let src = gen::build_program(ctx.seed, i, BUILD_PROGRAMS);
            std::fs::write(dir.join(&name), &src).map_err(|e| format!("write {name}: {e}"))?;
            Ok((name, src))
        })
        .collect()
}

/// One cold `urc empty.ur`: process start plus prelude, in seconds.
pub fn empty_run_s(ctx: &Ctx) -> Res<f64> {
    let r = proc::run_urc(&ctx.urc, &ctx.tmp, &["empty.ur"], &[])?;
    if !r.status.success() {
        return Err(format!("urc empty.ur exited {}", r.status));
    }
    Ok(r.elapsed.as_secs_f64())
}

/// `build`: cold `urc --print FILE` compiles, one at a time, each
/// checked against a one-thread interpreter run of the same program.
/// The set-up time is `urc` on an empty file, run once before every
/// compile, so its samples spread over the whole run like the compiles'.
pub fn build(ctx: &Ctx, out: &mut Outcome) -> Res<Samples> {
    let dir = &ctx.tmp;
    let mut s = Samples::default();
    std::fs::write(dir.join("empty.ur"), "").map_err(|e| e.to_string())?;
    let progs = write_build_programs(ctx, dir)?;
    let mut expected = Vec::new();
    for (name, _) in &progs {
        let args = ["--print", "--jobs", "1", "--eval=interp", name.as_str()];
        let r = proc::run_urc(&ctx.urc, dir, &args, &[("UR_EVAL", "interp")])?;
        if !r.status.success() || r.stdout.is_empty() {
            return Err(format!("oracle run of {name} failed: exit {}", r.status));
        }
        expected.push(r.stdout);
    }
    let t0 = Instant::now();
    let mut compiling = Duration::ZERO;
    let mut done = 0u64;
    while done == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        for (i, (name, _)) in progs.iter().cycle().take(BUILD_ROUND).enumerate() {
            s.setup_s.push(empty_run_s(ctx)?);
            let r = proc::run_urc(&ctx.urc, dir, &["--print", name.as_str()], &[])?;
            compiling += r.elapsed;
            out.attempted += 1;
            done += 1;
            if !r.status.success() || r.stdout != expected[i % BUILD_PROGRAMS] {
                out.fail(format!(
                    "{name}: exit {}, output differs from the oracle",
                    r.status
                ));
            }
            s.push(ms(r.elapsed), i % 2 == 1);
            s.rss_mb.push(r.max_rss_kib as f64 / 1024.0);
        }
        s.end_round();
    }
    s.ops_per_s.push(done as f64 / compiling.as_secs_f64());
    Ok(s)
}

// ------------------------------------------------------------------- app

/// The rows one connection owns, as its client model holds them.
#[derive(Clone, Default)]
pub struct Model {
    pub ages: HashMap<i64, i64>,
    pub sheet: HashMap<i64, i64>,
}

impl Model {
    pub fn new(conn: i64) -> Model {
        Model {
            ages: (conn..gen::PEOPLE_ROWS)
                .step_by(2)
                .map(|id| (id, gen::person_age0(id)))
                .collect(),
            sheet: (conn..gen::SHEET_ROWS)
                .step_by(2)
                .map(|id| (id, gen::sheet_a0(id)))
                .collect(),
        }
    }
}

/// How the displayed value of a one-row `FindWhere` reads.
fn person_value(id: i64, age: i64) -> String {
    format!(
        "[{{Age = {age}, Id = {id}, Name = \"n{id}\", Owner = {}}}]",
        id % 2
    )
}

/// Checks one app answer against the client's model, updating the
/// model on an acknowledged write. `Err` describes a wrong answer.
pub fn check_app(req: &AppReq, resp: &str, model: &mut Model) -> Result<(), String> {
    if !proc::is_ok(resp) {
        return Err(format!("{}: {}", req.kind(), &resp[..resp.len().min(200)]));
    }
    let value = proc::str_field(resp, "value").unwrap_or_default();
    let rows = |v: &str| v.matches("<tr>").count() as i64;
    let good = match req {
        AppReq::CountPeople | AppReq::ListPeople => value == gen::PEOPLE_ROWS.to_string(),
        AppReq::FindPerson(id) => model
            .ages
            .get(id)
            .is_some_and(|&a| value == person_value(*id, a)),
        AppReq::Totals => value.starts_with("\"<tr><td>") && value.ends_with("</td></tr>\""),
        AppReq::Render => rows(&value) == gen::SHEET_ROWS + 2,
        AppReq::AdminPage => rows(&value) == gen::INV_ROWS + 1,
        AppReq::Page(_, lim) => value.matches(',').count() as i64 + 1 == *lim,
        AppReq::DbReport => {
            let db = proc::str_field(resp, "db").unwrap_or_default();
            db.contains(&format!("people: {} row(s)", gen::PEOPLE_ROWS))
                && db.contains(&format!("sheet_data: {} row(s)", gen::SHEET_ROWS))
                && db.contains(&format!("inv_items: {} row(s)", gen::INV_ROWS))
        }
        AppReq::UpdateSheet(id, a) => {
            let ok = value == "1";
            if ok {
                model.sheet.insert(*id, *a);
            }
            ok
        }
        AppReq::ReplacePerson(id, age) => {
            let ok = value == "1";
            if ok {
                model.ages.insert(*id, *age);
            }
            ok
        }
    };
    if good {
        Ok(())
    } else {
        Err(format!(
            "{req:?}: unexpected answer {}",
            &value[..value.len().min(200)]
        ))
    }
}

/// The Ur expression `req` evaluates given the model's current state
/// (`None` for a `db` report).
pub fn model_expr(req: &AppReq, model: &Model) -> Option<String> {
    let old_age = match req {
        AppReq::ReplacePerson(id, _) => model.ages.get(id).copied().unwrap_or(0),
        _ => 0,
    };
    gen::app_expr(req, old_age)
}

/// The request line for `req` given the model's current state.
pub fn app_line(req: &AppReq, model: &Model) -> String {
    match model_expr(req, model) {
        Some(e) => proc::eval_req(&e),
        None => "{\"cmd\":\"db\"}".to_string(),
    }
}

/// `app_write`: a durable `urc --listen --db-dir` serving
/// the ORM, admin and spreadsheet apps over fixed-size tables.
pub fn app(ctx: &Ctx, out: &mut Outcome) -> Res<Samples> {
    let program = gen::app_program();
    let reqs = app_requests(ctx);
    let mut s = Samples::default();
    let t0 = Instant::now();
    let mut round = 0;
    while round == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        let dir = ctx.tmp.join(format!("app-{round}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let db_dir = dir.join("db");
        let (db, cache) = (db_dir.to_string_lossy(), dir.join("cache"));
        let cache = cache.to_string_lossy();
        let start = Instant::now();
        let server = Server::spawn(
            &ctx.urc,
            &dir,
            &["--db-dir", &db, "--cache-dir", &cache, "--pool", "2"],
        )?;
        let mut first = Client::connect(server.addr)?;
        let resp = first.call(&proc::load_req(&program))?;
        if !(proc::is_ok(&resp) && resp.contains("\"diagnostics\":[]")) {
            return Err(format!("app load failed: {}", &resp[..resp.len().min(300)]));
        }
        let barrier = Barrier::new(reqs.len() + 1);
        let (results, wall) = std::thread::scope(|sc| {
            let handles: Vec<_> = reqs
                .iter()
                .enumerate()
                .map(|(c, list)| {
                    let barrier = &barrier;
                    sc.spawn(move || app_session(server.addr, c as i64, list, barrier))
                })
                .collect();
            barrier.wait();
            s.setup_s.push(start.elapsed().as_secs_f64());
            let measured = Instant::now();
            let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            (results, measured.elapsed().as_secs_f64())
        });
        let mut models = Vec::new();
        let mut ops = 0;
        for r in results {
            let (samples, model, wrong) = r.map_err(|_| "app client panicked".to_string())??;
            out.attempted += samples.all.len() as u64;
            ops += samples.all.len();
            for w in wrong {
                out.fail(w);
            }
            s.absorb(samples);
            models.push(model);
        }
        s.end_round();
        s.ops_per_s.push(ops as f64 / wall);
        quiesced_checks(&mut first, &models, out)?;
        drop(first);
        s.rss_mb.push(server.rss_mib()?);
        server.shutdown(DRAIN)?;
        check_store(&db_dir, &models, out);
        let _ = std::fs::remove_dir_all(&dir);
        round += 1;
    }
    out.note(format!("app rounds: {round}"));
    Ok(s)
}

type AppResult = Res<(Samples, Model, Vec<String>)>;

fn app_session(
    addr: std::net::SocketAddr,
    conn: i64,
    reqs: &[AppReq],
    barrier: &Barrier,
) -> AppResult {
    let populated = Client::connect(addr).and_then(|mut c| {
        for stmt in gen::population(conn, POPULATE_BATCH) {
            let resp = c.call(&proc::eval_req(&stmt))?;
            if !proc::is_ok(&resp) {
                return Err(format!(
                    "population failed: {}",
                    &resp[..resp.len().min(300)]
                ));
            }
        }
        Ok(c)
    });
    barrier.wait();
    let mut c = populated?;
    let mut model = Model::new(conn);
    let mut s = Samples::default();
    let mut wrong = Vec::new();
    for req in reqs {
        let line = app_line(req, &model);
        let t = Instant::now();
        let resp = c.call(&line)?;
        s.push(ms(t.elapsed()), req.is_write());
        if let Err(e) = check_app(req, &resp, &mut model) {
            wrong.push(e);
        }
    }
    Ok((s, model, wrong))
}

/// Final reads once both connections are done: the totals over every
/// row must match the union of the client models.
fn quiesced_checks(c: &mut Client, models: &[Model], out: &mut Outcome) -> Res<()> {
    let sum_a: i64 = models.iter().flat_map(|m| m.sheet.values()).sum();
    let weighted: i64 = models
        .iter()
        .flat_map(|m| m.ages.iter().map(|(id, a)| id * a))
        .sum();
    let checks = [
        (
            "sheet.Totals ()".to_string(),
            format!("\"<tr><td>{sum_a}</td></tr>\""),
        ),
        (
            "foldList (fn (r : {Id : int, Owner : int, Name : string, Age : int}) (acc : int) \
             => r.Id * r.Age + acc) 0 (people.List ())"
                .to_string(),
            weighted.to_string(),
        ),
        ("people.Count ()".to_string(), gen::PEOPLE_ROWS.to_string()),
        ("sheet.Count ()".to_string(), gen::SHEET_ROWS.to_string()),
    ];
    for (expr, want) in checks {
        out.attempted += 1;
        let resp = c.call(&proc::eval_req(&expr))?;
        let got = proc::str_field(&resp, "value");
        if got.as_deref() != Some(want.as_str()) {
            out.fail(format!("quiesced {expr}: got {got:?}, want {want}"));
        }
    }
    Ok(())
}

/// After the drain: reopen the store from disk; every acknowledged
/// write must be there.
fn check_store(db_dir: &Path, models: &[Model], out: &mut Outcome) {
    out.attempted += 1;
    let mut db = match ur_db::Db::open(db_dir) {
        Ok(db) => db,
        Err(e) => return out.fail(format!("reopen store: {e}")),
    };
    let mut lost = 0;
    for (table, key, val) in [("people", "Id", "Age"), ("sheet_data", "Id", "A")] {
        let want: HashMap<i64, i64> = models
            .iter()
            .flat_map(|m| {
                if table == "people" {
                    m.ages.clone()
                } else {
                    m.sheet.clone()
                }
            })
            .collect();
        match read_pairs(&mut db, table, key, val) {
            Ok(rows) => {
                let got: HashMap<i64, i64> = rows.iter().copied().collect();
                lost += want.iter().filter(|(k, v)| got.get(k) != Some(v)).count();
                lost += rows.len().abs_diff(want.len());
            }
            Err(e) => return out.fail(format!("read {table} from the reopened store: {e}")),
        }
    }
    if lost > 0 {
        out.fail(format!(
            "{lost} acknowledged writes missing or wrong in the reopened store"
        ));
    }
}

/// `(key, val)` of every row of an int-keyed table.
pub fn read_pairs(
    db: &mut ur_db::Db,
    table: &str,
    key: &str,
    val: &str,
) -> Result<Vec<(i64, i64)>, String> {
    let schema = db.schema(table).map_err(|e| e.to_string())?;
    let (k, v) = match (schema.index_of(key), schema.index_of(val)) {
        (Some(k), Some(v)) => (k, v),
        _ => return Err(format!("{table} lacks {key}/{val}")),
    };
    let all = ur_db::SqlExpr::lit(ur_db::DbVal::Bool(true));
    let rows = db.select(table, &all).map_err(|e| e.to_string())?;
    Ok(rows
        .iter()
        .filter_map(|r| match (&r[k], &r[v]) {
            (ur_db::DbVal::Int(a), ur_db::DbVal::Int(b)) => Some((*a, *b)),
            _ => None,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn person_value_sorts_fields() {
        assert_eq!(
            person_value(3, 40),
            "[{Age = 40, Id = 3, Name = \"n3\", Owner = 1}]"
        );
    }
}
