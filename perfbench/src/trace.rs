//! The traced run (`--trace 1`): the workload's seeded inputs replayed
//! in-process, with spans recorded around the calls this file makes into
//! each crate's public functions. Nothing inside the program is
//! instrumented.
//!
//! Four passes over the same inputs:
//!
//! 1. **layers** — a hand-driven pipeline (parse, dependency graph,
//!    elaboration, query engine, compile, VM) with one span per call,
//!    caching chunks and globals as `Session` does. Work the benchmark
//!    cannot wrap from outside (the parse, graph and elaboration inside
//!    `Engine::run`) is timed by replaying the same call right after and
//!    charged as a child of the enclosing span. Run once to warm up,
//!    then with spans off and on.
//! 2. **serve** — `protocol::handle_line` on real `Session`s, for the
//!    serve layer's handling time and every counter (read from the
//!    in-process `Session`, not over the wire), then the program loaded
//!    again by a fresh session on the same disk cache, as a restarted
//!    server would. Run twice: the counts must repeat exactly.
//! 3. **db** — the workload's statement shapes replayed through
//!    `ur_db::Db` on a durable store of the same size.
//! 4. **client** — one short untraced round against the real binary, for
//!    the wait a request sees outside `handle_line`; plus `urc` on an
//!    empty file for the start-up cost.
//!
//! Spans are kept in memory and written to `.bench_out/` at the end.

use crate::e2e::{self, Model, Samples};
use crate::gen::{self, AppReq};
use crate::proc::{self, Res};
use crate::{quantile, Ctx, Outcome};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use ur_core::expr::RExpr;
use ur_core::sym::Sym;
use ur_eval::vm::ConsEnv;
use ur_eval::{Builtin, Chunk, Interp, VEnv, World};
use ur_infer::{DepGraph, ElabDecl, ElabSnapshot, Elaborator};
use ur_web::Session;

// ------------------------------------------------------------------ spans

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    req: u64,
    /// Timed by a replay outside the parent's interval: counted by
    /// duration when computing the parent's self time.
    replayed: bool,
}

/// In-memory span recorder. Disabled, it only runs the closures, which
/// is how the cost of tracing is measured.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_req: u64,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn req(&self) -> u64 {
        self.stack
            .first()
            .map_or(self.next_req, |&i| self.spans[i].req)
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let (req, parent) = (self.req(), self.stack.last().copied());
        let ix = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
            replayed: false,
        });
        self.stack.push(ix);
        let out = f(self);
        self.stack.pop();
        self.spans[ix].end = self.now();
        out
    }

    /// A root span: one request, with a fresh request id.
    fn request<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let out = self.span("request", f);
        self.next_req += 1;
        out
    }

    /// Times `f` and records it as a replayed child of the current span.
    fn replay<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.replayed_ns(name, end - start);
        out
    }

    /// Records a replayed child of the current span lasting `ns`.
    fn replayed_ns(&mut self, name: &'static str, ns: u64) {
        if self.on {
            let (req, parent) = (self.req(), self.stack.last().copied());
            let start = self.now();
            self.spans.push(Span {
                name,
                start,
                end: start + ns,
                parent,
                req,
                replayed: true,
            });
        }
    }

    /// Self time of every span, in ns.
    fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Median over requests of each span name's per-request self time, ms.
    fn layer_p50_ms(&self, name: &str) -> f64 {
        let st = self.self_times();
        let mut per_req: HashMap<u64, u64> = HashMap::new();
        for (s, t) in self.spans.iter().zip(&st) {
            if s.name == name {
                *per_req.entry(s.req).or_default() += t;
            }
        }
        let v: Vec<f64> = per_req.values().map(|&ns| ns as f64 / 1e6).collect();
        quantile(&v, 0.5)
    }

    /// Share of request time no layer span accounts for.
    fn unattributed_share(&self) -> f64 {
        let st = self.self_times();
        let (mut unattributed, mut total) = (0u64, 0u64);
        for (s, t) in self.spans.iter().zip(&st) {
            if s.parent.is_none() {
                unattributed += t;
                total += s.end - s.start;
            }
        }
        unattributed as f64 / total.max(1) as f64
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"req\":{},\"replayed\":{}}}",
                s.name, s.start, s.end, s.req, s.replayed
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

// -------------------------------------------------------- layer pipeline

/// Bound on the chunk cache, the one `Session` applies.
const CHUNK_CACHE_CAP: usize = 1 << 10;

/// The steps `Session` takes, driven by hand from public functions so
/// that each call can carry its own span. It keeps the caches `Session`
/// keeps: compiled chunks by body (cleared when a rebuild restores the
/// base, flushed when full), and `top` shared for VM runs until it
/// changes. What it does not replicate: the breaker, fuel ceilings, and
/// the parallel batch (every call here runs on one thread).
struct Pipe {
    elab: Elaborator,
    world: World,
    builtins: HashMap<Sym, Rc<Builtin>>,
    top: VEnv,
    chunks: HashMap<RExpr, Arc<Chunk>>,
    globals: Option<(Rc<VEnv>, ConsEnv)>,
    base: Option<(ElabSnapshot, World, VEnv)>,
    engine: Option<ur_query::Engine>,
    _lease: ur_core::arena::ArenaLease,
}

impl Pipe {
    fn new() -> Res<Pipe> {
        let lease = ur_core::arena::lease();
        let mut elab = Elaborator::new();
        let decls = elab
            .elab_source(ur_web::PRELUDE)
            .map_err(|e| e.to_string())?;
        let impls = ur_web::builtins::registry();
        let mut builtins = HashMap::new();
        for d in &decls {
            if let ElabDecl::Val {
                name,
                sym,
                body: None,
                ..
            } = d
            {
                let b = impls
                    .get(name)
                    .ok_or_else(|| format!("no builtin {name}"))?;
                builtins.insert(*sym, Rc::clone(b));
            }
        }
        Ok(Pipe {
            elab,
            world: World::new(),
            builtins,
            top: VEnv::new(),
            chunks: HashMap::new(),
            globals: None,
            base: None,
            engine: None,
            _lease: lease,
        })
    }

    /// Compiles and runs every value declaration, in order.
    fn eval_decls(&mut self, tr: &mut Tracer, decls: &[ElabDecl]) -> usize {
        let mut errors = 0;
        for d in decls {
            if let ElabDecl::Val {
                name,
                sym,
                body: Some(body),
                ..
            } = d
            {
                match self.run_body(tr, body, name) {
                    Ok(v) => {
                        self.top.vals.insert(*sym, v);
                        self.globals = None;
                    }
                    Err(_) => errors += 1,
                }
            }
        }
        errors
    }

    fn run_body(
        &mut self,
        tr: &mut Tracer,
        body: &RExpr,
        label: &str,
    ) -> Result<ur_eval::Value, ur_eval::EvalError> {
        let genv = &self.elab.genv;
        let chunk = match self.chunks.get(body) {
            Some(c) => Arc::clone(c),
            None => {
                let c = tr.span("eval.compile", |_| {
                    ur_eval::compile(genv, &mut ur_core::Cx::new(), body, label)
                });
                if self.chunks.len() >= CHUNK_CACHE_CAP {
                    self.chunks.clear();
                }
                self.chunks.insert(*body, Arc::clone(&c));
                c
            }
        };
        let (globals, cons) = {
            let g = self
                .globals
                .get_or_insert_with(|| ur_eval::vm::share_globals(&self.top));
            (Rc::clone(&g.0), g.1.clone())
        };
        let mut interp = Interp::new(&mut self.world, genv, &self.builtins);
        tr.span("eval.vm", |_| {
            ur_eval::vm::run_shared(&mut interp, &chunk, &globals, &cons)
        })
    }

    /// A cold whole-program run (`urc FILE`).
    fn program(&mut self, tr: &mut Tracer, src: &str) -> Res<usize> {
        let prog = tr
            .span("syntax.parse", |_| ur_syntax::parse_program(src))
            .map_err(|e| format!("parse: {e:?}"))?;
        let graph = tr.span("infer.depgraph", |_| DepGraph::build(&prog.decls));
        let elab = &mut self.elab;
        let (decls, diags) = tr.span("infer.elab", |_| {
            ur_infer::batch::elab_program_all_with_graph(elab, &prog, 1, &graph)
        });
        Ok(diags.len() + self.eval_decls(tr, &decls))
    }

    /// A rebuild (`load`), as `Session::reelaborate` does it, with its
    /// disk cache in `cache`. `cold_elab_ns` is the program's cold
    /// sequential elaboration time: the replayed elaboration charges it
    /// in proportion to the declarations the engine found red, which is
    /// exact for the all-red and all-green loads this benchmark makes.
    fn rebuild(&mut self, tr: &mut Tracer, src: &str, cache: &Path, cold_elab_ns: u64) -> Res<usize> {
        if self.base.is_none() {
            self.base = Some((self.elab.snapshot(), self.world.clone(), self.top.clone()));
            self.engine = Some(ur_query::Engine::new(ur_query::EngineConfig {
                cache_dir: Some(cache.to_path_buf()),
                base_tag: ur_core::fingerprint::hash_str(ur_web::PRELUDE),
            }));
        }
        let (Some((snap, world, top)), Some(engine)) = (&self.base, &mut self.engine) else {
            return Err("no base".into());
        };
        let elab = &mut self.elab;
        let (decls, diags, _report) = tr.span("query.run", |tr| {
            let kept = elab.cx.stats.clone();
            elab.restore(snap.clone());
            elab.cx.stats = kept;
            let out = engine.run(elab, src, 1);
            // The parse, graph and elaboration inside `Engine::run`,
            // replayed: the same parse and graph again, and the red
            // declarations' share of the cold elaboration time.
            if let Ok(prog) = tr.replay("syntax.parse", || ur_syntax::parse_program(src)) {
                tr.replay("infer.depgraph", || DepGraph::build(&prog.decls));
            }
            let r = &out.2;
            let red_ns = cold_elab_ns * r.red as u64 / r.decls_total.max(1) as u64;
            tr.replayed_ns("infer.elab", red_ns);
            out
        });
        self.world = world.clone();
        self.world.db.persist_rebase();
        self.top = top.clone();
        self.globals = None;
        self.chunks.clear();
        Ok(diags.len() + self.eval_decls(tr, &decls))
    }

    /// One expression (`eval`).
    fn expr(&mut self, tr: &mut Tracer, src: &str) -> Res<ur_eval::Value> {
        let elab = &mut self.elab;
        let (body, _ty) = tr
            .span("infer.elab", |tr| {
                tr.replay("syntax.parse", || ur_syntax::parse_expr(src).is_ok());
                elab.elab_expr_source(src)
            })
            .map_err(|e| e.to_string())?;
        self.run_body(tr, &body, "<expr>")
            .map_err(|e| e.to_string())
    }
}

/// The cold, sequential elaboration time of `src` in a fresh elaborator,
/// median of three, in ns.
fn cold_elab_ns(src: &str) -> Res<u64> {
    let prog = ur_syntax::parse_program(src).map_err(|e| format!("parse: {e:?}"))?;
    let mut times = Vec::new();
    for _ in 0..3 {
        let _lease = ur_core::arena::lease();
        let mut elab = Elaborator::new();
        elab.elab_source(ur_web::PRELUDE)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        elab.elab_program_all(&prog);
        times.push(t.elapsed().as_nanos() as f64);
    }
    ur_core::arena::try_reset();
    Ok(quantile(&times, 0.5) as u64)
}

// ------------------------------------------------------------- counters

/// Counters of one serve pass, read from the in-process sessions.
#[derive(Default, Debug)]
struct Counts {
    requests: u64,
    norm_steps: u64,
    prover_calls: u64,
    unify_calls: u64,
    memo_hits: u64,
    memo_misses: u64,
    queries: u64,
    green: u64,
    disk_hits: u64,
    chunks: u64,
    chunk_hits: u64,
    vm_ops: u64,
    /// Arena gauges at the end of the pass.
    arena_nodes: u64,
    arena_bytes: u64,
}

impl Counts {
    fn add_session(&mut self, s: &ur_core::stats::Stats) {
        self.prover_calls += s.disjoint_prover_calls;
        self.unify_calls += s.unify_calls;
        self.memo_hits +=
            s.hnf_memo_hits + s.defeq_memo_hits + s.row_memo_hits + s.disjoint_memo_hits;
        self.memo_misses +=
            s.hnf_memo_misses + s.defeq_memo_misses + s.row_memo_misses + s.disjoint_memo_misses;
        self.add_queries(s);
        self.chunks += s.eval_chunks_compiled;
        self.chunk_hits += s.eval_chunk_hits;
        self.vm_ops += s.eval_vm_ops;
    }

    /// The query engine's counters only: for the restart loads, which
    /// are not requests of the workload.
    fn add_queries(&mut self, s: &ur_core::stats::Stats) {
        self.queries += s.queries_total;
        self.green += s.green_reused;
        self.disk_hits += s.disk_hits;
    }
}

/// One served request: its line, and its kind for the wait estimate
/// (`write`: a rebuild or a write, else a read).
struct Line {
    text: String,
    write: bool,
}

/// Runs `lines` through `handle_line` on `sess`, one `serve.handle`
/// request span each; returns the responses.
fn serve_lines(
    tr: &mut Tracer,
    sess: &mut Session,
    lines: &[Line],
    handle: &mut [Vec<f64>; 2],
    counts: &mut Counts,
) -> Vec<String> {
    let mut ctx = ur_serve::ReqCtx::new(None);
    let base_steps = sess.elab.cx.fuel.lifetime_norm_steps();
    let mut out = Vec::with_capacity(lines.len());
    for l in lines {
        let before = sess.elab.cx.fuel.lifetime_norm_steps();
        let t = Instant::now();
        let (resp, _) = tr.request(|tr| {
            tr.span("serve.handle", |_| {
                ur_serve::protocol::handle_line(sess, &mut ctx, &l.text, None)
            })
        });
        handle[usize::from(l.write)].push(t.elapsed().as_secs_f64() * 1e3);
        let after = sess.elab.cx.fuel.lifetime_norm_steps();
        let rebuild = l.text.starts_with("{\"cmd\":\"load\"");
        counts.norm_steps += after.saturating_sub(if rebuild { base_steps } else { before });
        counts.requests += 1;
        out.push(resp);
    }
    out
}

fn fresh_session(cache: PathBuf) -> Res<Session> {
    let mut sess = Session::new().map_err(|e| e.to_string())?;
    sess.threads = 1;
    sess.cache_dir = Some(cache);
    Ok(sess)
}

/// Loads `src` in a fresh session whose disk cache is `cache`, as a
/// server (re)started on that cache would, and adds the load's query
/// engine counters to `counts`. True when the load is clean.
fn cached_load(cache: PathBuf, src: &str, counts: &mut Counts) -> Res<bool> {
    let mut sess = fresh_session(cache)?;
    let (_, diags) = sess.reelaborate(src);
    counts.add_queries(&sess.stats_snapshot());
    Ok(diags.is_empty())
}

// ------------------------------------------------------------ workloads

/// Everything a workload's traced run produced.
struct Traced {
    layers: Tracer,
    layers_untraced_s: f64,
    serve: Tracer,
    handle_ms: [Vec<f64>; 2],
    counts: Counts,
    counts_again: Counts,
    db: DbFigures,
    db_again: DbFigures,
    client: Samples,
}

/// Runs `pass` once to warm up, then once with tracing off and once with
/// it on; returns the untraced pass's seconds and the traced pass's spans.
fn both_ways(mut pass: impl FnMut(&mut Tracer) -> Res<()>) -> Res<(f64, Tracer)> {
    let mut untraced_s = 0.0;
    for i in 0..2 {
        let mut tr = Tracer::new(false);
        let t = Instant::now();
        pass(&mut tr)?;
        untraced_s = t.elapsed().as_secs_f64();
        if i == 0 {
            ur_core::arena::try_reset();
        }
    }
    ur_core::arena::try_reset();
    let mut traced = Tracer::new(true);
    pass(&mut traced)?;
    ur_core::arena::try_reset();
    Ok((untraced_s, traced))
}

/// What recording one span costs, in seconds: a request span around an
/// empty span, 100 000 times, the fastest of three tries. Passes differ
/// by more than this from run to run, so the cost of tracing is this
/// times the spans a pass records, not the difference of two passes.
fn span_cost_s() -> f64 {
    const N: u32 = 100_000;
    (0..3)
        .map(|_| {
            let mut tr = Tracer::new(true);
            let t = Instant::now();
            for _ in 0..N {
                tr.request(|tr| tr.span("probe", |_| ()));
            }
            t.elapsed().as_secs_f64() / f64::from(2 * N)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs the serve pass twice on fresh state; the second one's counts
/// are the determinism check.
fn serve_twice(
    mut pass: impl FnMut(&mut Tracer, &mut [Vec<f64>; 2], &mut Counts) -> Res<()>,
) -> Res<(Tracer, [Vec<f64>; 2], Counts, Counts)> {
    let mut tr = Tracer::new(true);
    let mut handle = [Vec::new(), Vec::new()];
    let mut counts = Counts::default();
    pass(&mut tr, &mut handle, &mut counts)?;
    let arena = ur_core::arena::stats();
    counts.arena_nodes = arena.con_nodes + arena.expr_nodes;
    counts.arena_bytes = arena.bytes;
    ur_core::arena::try_reset();
    let mut again = Counts::default();
    pass(
        &mut Tracer::new(false),
        &mut [Vec::new(), Vec::new()],
        &mut again,
    )?;
    ur_core::arena::try_reset();
    Ok((tr, handle, counts, again))
}

fn check(ok: bool, what: &str, out: &mut Outcome) {
    out.attempted += 1;
    if !ok {
        out.fail(format!("traced replay: {what}"));
    }
}

fn build(ctx: &Ctx, out: &mut Outcome) -> Res<Traced> {
    let dir = ctx.tmp.join("programs");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let progs = e2e::write_build_programs(ctx, &dir)?;
    let elab_ns: Vec<u64> = progs
        .iter()
        .map(|(_, src)| cold_elab_ns(src))
        .collect::<Res<_>>()?;
    let mut errors = 0;
    let (u, layers) = both_ways(|tr| {
        for (i, (_, src)) in progs.iter().enumerate() {
            let mut pipe = Pipe::new()?;
            errors += tr.request(|tr| pipe.program(tr, src))?;
            // The same program as a first `load`: the query engine's
            // cold cost, every declaration red.
            let cache = fresh_dir(ctx, "layer-cache");
            let mut pipe = Pipe::new()?;
            errors += tr.request(|tr| pipe.rebuild(tr, src, &cache, elab_ns[i]))?;
        }
        Ok(())
    })?;
    check(errors == 0, "build programs elaborate and run cleanly", out);
    let (serve, handle_ms, counts, counts_again) = serve_twice(|tr, handle, counts| {
        // What `urc FILE` does once started: one `run_all` per program.
        for (i, (_, src)) in progs.iter().enumerate() {
            let mut sess = Session::new().map_err(|e| e.to_string())?;
            sess.threads = 1;
            let before = sess.elab.cx.fuel.lifetime_norm_steps();
            let t = Instant::now();
            let (_, diags) = tr.request(|tr| tr.span("serve.handle", |_| sess.run_all(src)));
            handle[i % 2].push(t.elapsed().as_secs_f64() * 1e3);
            check(
                diags.is_empty(),
                "build program runs cleanly in-process",
                out,
            );
            counts.requests += 1;
            counts.norm_steps += sess.elab.cx.fuel.lifetime_norm_steps() - before;
            counts.add_session(&sess.stats_snapshot());
        }
        // Each program loaded twice on one disk cache: cold, then by a
        // restarted session that finds every declaration on disk.
        for (_, src) in &progs {
            let cache = fresh_dir(ctx, "serve-cache");
            let clean = cached_load(cache.clone(), src, counts)?
                && cached_load(cache, src, counts)?;
            check(clean, "build program loads cleanly through the disk cache", out);
        }
        Ok(())
    })?;
    let db = db_replay_programs(ctx, progs.iter().map(|(_, s)| s.as_str()))?;
    let db_again = db_replay_programs(ctx, progs.iter().map(|(_, s)| s.as_str()))?;
    let client = e2e::build(
        &Ctx {
            seconds: 0.0,
            ..ctx.clone()
        },
        out,
    )?;
    Ok(Traced {
        layers,
        layers_untraced_s: u,
        serve,
        handle_ms,
        counts,
        counts_again,
        db,
        db_again,
        client,
    })
}

fn app(ctx: &Ctx, out: &mut Outcome) -> Res<Traced> {
    let program = gen::app_program();
    let reqs = e2e::app_requests(ctx);
    let population: Vec<String> = (0..e2e::CONNS as i64)
        .flat_map(|c| gen::population(c, 25))
        .collect();
    let elab_ns = cold_elab_ns(&program)?;
    let (u, layers) = both_ways(|tr| {
        let mut pipe = Pipe::new()?;
        let cache = fresh_dir(ctx, "layer-cache");
        let mut errors = tr.request(|tr| pipe.rebuild(tr, &program, &cache, elab_ns))?;
        for stmt in &population {
            errors += usize::from(tr.request(|tr| pipe.expr(tr, stmt)).is_err());
        }
        let mut models: Vec<Model> = (0..e2e::CONNS as i64).map(Model::new).collect();
        for (c, r) in interleave(&reqs) {
            let Some(expr) = e2e::model_expr(r, &models[c]) else {
                continue;
            };
            let resp = match tr.request(|tr| pipe.expr(tr, &expr)) {
                Ok(v) => format!(
                    "{{\"ok\":true,\"value\":\"{}\"}}",
                    ur_query::json::escape(&v.to_string())
                ),
                Err(e) => format!(
                    "{{\"ok\":false,\"error\":\"{}\"}}",
                    ur_query::json::escape(&e)
                ),
            };
            errors += usize::from(e2e::check_app(r, &resp, &mut models[c]).is_err());
        }
        check(
            errors == 0,
            "app requests answer as the client models expect",
            out,
        );
        Ok(())
    })?;
    let (serve, handle_ms, counts, counts_again) = serve_twice(|tr, handle, counts| {
        let cache = fresh_dir(ctx, "serve-cache");
        let mut sess = fresh_session(cache.clone())?;
        let db_dir = fresh_dir(ctx, "serve-db");
        *sess.db() = ur_db::Db::open(&db_dir).map_err(|e| e.to_string())?;
        let mut lines = vec![Line {
            text: proc::load_req(&program),
            write: true,
        }];
        lines.extend(population.iter().map(|s| Line {
            text: proc::eval_req(s),
            write: true,
        }));
        let resp = serve_lines(tr, &mut sess, &lines, handle, counts);
        check(resp.iter().all(|r| proc::is_ok(r)), "app set-up", out);
        let mut models: Vec<Model> = (0..e2e::CONNS as i64).map(Model::new).collect();
        let mut wrong = 0;
        for (c, r) in interleave(&reqs) {
            let line = Line {
                text: e2e::app_line(r, &models[c]),
                write: r.is_write(),
            };
            let resp = serve_lines(tr, &mut sess, std::slice::from_ref(&line), handle, counts);
            wrong += resp
                .iter()
                .filter(|resp| e2e::check_app(r, resp, &mut models[c]).is_err())
                .count();
        }
        check(
            wrong == 0,
            "served app answers match the client models",
            out,
        );
        counts.add_session(&sess.stats_snapshot());
        // A restarted server: a fresh session on the same disk cache.
        let clean = cached_load(cache, &program, counts)?;
        check(clean, "a restarted session loads the app cleanly", out);
        Ok(())
    })?;
    let db = db_replay_app(ctx, &reqs)?;
    let db_again = db_replay_app(ctx, &reqs)?;
    let client = e2e::app(
        &Ctx {
            seconds: 0.0,
            ..ctx.clone()
        },
        out,
    )?;
    Ok(Traced {
        layers,
        layers_untraced_s: u,
        serve,
        handle_ms,
        counts,
        counts_again,
        db,
        db_again,
        client,
    })
}

/// The connections' request lists, alternating: (connection, request).
fn interleave(reqs: &[Vec<AppReq>]) -> Vec<(usize, &AppReq)> {
    let n = reqs.iter().map(Vec::len).max().unwrap_or(0);
    (0..n)
        .flat_map(|i| {
            reqs.iter()
                .enumerate()
                .filter_map(move |(c, l)| l.get(i).map(|r| (c, r)))
        })
        .collect()
}

// -------------------------------------------------------------- db pass

#[derive(Default)]
struct DbFigures {
    tracer: Option<Tracer>,
    writes: u64,
    fsyncs: u64,
    wal_bytes: u64,
    checkpoints: u64,
    scans: u64,
    probes: u64,
}

/// A durable store with automatic checkpoints off: the replay takes them
/// itself, at the same WAL length, so each gets a span of its own.
struct DurableReplay {
    db: ur_db::Db,
    tr: Tracer,
    fig: DbFigures,
    since_checkpoint: u64,
    /// WAL records between checkpoints: the serving default.
    every: u64,
}

impl DurableReplay {
    fn open(dir: &std::path::Path) -> Res<DurableReplay> {
        let every = ur_db::DurabilityConfig::default().snapshot_every;
        let cfg = ur_db::DurabilityConfig {
            snapshot_every: 0,
            ..ur_db::DurabilityConfig::default()
        };
        Ok(DurableReplay {
            every,
            db: ur_db::Db::open_with(dir, cfg).map_err(|e| e.to_string())?,
            tr: Tracer::new(true),
            fig: DbFigures::default(),
            since_checkpoint: 0,
        })
    }

    fn read<T>(&mut self, f: impl FnOnce(&mut ur_db::Db) -> Result<T, ur_db::DbError>) -> Res<T> {
        let db = &mut self.db;
        self.tr
            .request(|tr| tr.span("db.select", |_| f(db)))
            .map_err(|e| e.to_string())
    }

    fn write<T>(&mut self, f: impl FnOnce(&mut ur_db::Db) -> Result<T, ur_db::DbError>) -> Res<T> {
        let before = self.db.stats().clone();
        let db = &mut self.db;
        let r = self
            .tr
            .request(|tr| tr.span("db.write", |_| f(db)))
            .map_err(|e| e.to_string())?;
        let after = self.db.stats();
        self.fig.writes += 1;
        self.fig.fsyncs += after.wal_fsyncs - before.wal_fsyncs;
        self.fig.wal_bytes += after.wal_bytes - before.wal_bytes;
        self.since_checkpoint += after.wal_records - before.wal_records;
        if self.since_checkpoint >= self.every {
            self.since_checkpoint = 0;
            let db = &mut self.db;
            self.tr
                .request(|tr| tr.span("db.checkpoint", |_| db.checkpoint()))
                .map_err(|e| e.to_string())?;
            self.fig.checkpoints += 1;
        }
        Ok(r)
    }

    /// Takes the closing checkpoint, then reads the engine's counters.
    fn finish(mut self) -> Res<DbFigures> {
        let db = &mut self.db;
        self.tr
            .request(|tr| tr.span("db.checkpoint", |_| db.checkpoint()))
            .map_err(|e| e.to_string())?;
        self.fig.checkpoints += 1;
        let s = self.db.stats();
        self.fig.scans = s.full_scans;
        self.fig.probes = s.index_probes;
        self.fig.tracer = Some(self.tr);
        Ok(self.fig)
    }
}

/// A directory under the run's temp dir that does not exist yet.
fn fresh_dir(ctx: &Ctx, tag: &str) -> PathBuf {
    (0..)
        .map(|i| ctx.tmp.join(format!("{tag}-{i}")))
        .find(|d| !d.exists())
        .unwrap_or_default()
}

fn lit_i(v: i64) -> ur_db::SqlExpr {
    ur_db::SqlExpr::lit(ur_db::DbVal::Int(v))
}

fn all() -> ur_db::SqlExpr {
    ur_db::SqlExpr::lit(ur_db::DbVal::Bool(true))
}

fn eq_id(id: i64) -> ur_db::SqlExpr {
    ur_db::SqlExpr::Eq(Box::new(ur_db::SqlExpr::col("Id")), Box::new(lit_i(id)))
}

fn person_row(id: i64, age: i64) -> Vec<(String, ur_db::SqlExpr)> {
    vec![
        ("Id".into(), lit_i(id)),
        ("Owner".into(), lit_i(id % 2)),
        (
            "Name".into(),
            ur_db::SqlExpr::lit(ur_db::DbVal::Str(format!("n{id}"))),
        ),
        ("Age".into(), lit_i(age)),
    ]
}

/// The app workloads' statements: the population, then each request's
/// selects and writes, on fixed-size tables.
fn db_replay_app(ctx: &Ctx, reqs: &[Vec<AppReq>]) -> Res<DbFigures> {
    use ur_db::{ColTy, Schema};
    let mut r = DurableReplay::open(&fresh_dir(ctx, "db-replay"))?;
    let schema = |cols: &[(&str, ColTy)]| {
        Schema::new(
            cols.iter()
                .map(|(n, t)| (n.to_string(), t.clone()))
                .collect(),
        )
        .map_err(|e| e.to_string())
    };
    let people = schema(&[
        ("Id", ColTy::Int),
        ("Owner", ColTy::Int),
        ("Name", ColTy::Str),
        ("Age", ColTy::Int),
    ])?;
    let sheet = schema(&[("Id", ColTy::Int), ("A", ColTy::Int)])?;
    let inv = schema(&[
        ("Id", ColTy::Int),
        ("Name", ColTy::Str),
        ("Qty", ColTy::Int),
    ])?;
    r.write(|db| db.create_table("people", people))?;
    r.write(|db| db.create_table("sheet_data", sheet))?;
    r.write(|db| db.create_table("inv_items", inv))?;
    for id in 0..gen::PEOPLE_ROWS {
        r.write(|db| db.insert("people", &person_row(id, gen::person_age0(id))))?;
    }
    for id in 0..gen::SHEET_ROWS {
        r.write(|db| {
            db.insert(
                "sheet_data",
                &[
                    ("Id".into(), lit_i(id)),
                    ("A".into(), lit_i(gen::sheet_a0(id))),
                ],
            )
        })?;
    }
    for id in 0..gen::INV_ROWS {
        let row = [
            ("Id".into(), lit_i(id)),
            (
                "Name".into(),
                ur_db::SqlExpr::lit(ur_db::DbVal::Str(format!("item{id}"))),
            ),
            ("Qty".into(), lit_i(id * 3)),
        ];
        r.write(|db| db.insert("inv_items", &row))?;
    }
    let mut models: Vec<Model> = (0..e2e::CONNS as i64).map(Model::new).collect();
    for (c, req) in interleave(reqs) {
        match req {
            AppReq::CountPeople => drop(r.read(|db| db.row_count("people"))?),
            AppReq::ListPeople => drop(r.read(|db| db.select("people", &all()))?),
            AppReq::FindPerson(id) => drop(r.read(|db| db.select("people", &eq_id(*id)))?),
            AppReq::Totals | AppReq::Render => drop(r.read(|db| db.select("sheet_data", &all()))?),
            AppReq::AdminPage => drop(r.read(|db| db.select("inv_items", &all()))?),
            AppReq::Page(off, lim) => drop(r.read(|db| {
                db.select_ordered("sheet_data", &all(), "A", *off as usize, *lim as usize)
            })?),
            AppReq::DbReport => {
                for t in ["people", "sheet_data", "inv_items"] {
                    r.read(|db| db.row_count(t))?;
                }
            }
            AppReq::UpdateSheet(id, a) => {
                r.write(|db| db.update("sheet_data", &[("A".into(), lit_i(*a))], &eq_id(*id)))?;
                models[c].sheet.insert(*id, *a);
            }
            AppReq::ReplacePerson(id, age) => {
                r.write(|db| db.delete("people", &eq_id(*id)))?;
                r.write(|db| db.insert("people", &person_row(*id, *age)))?;
                models[c].ages.insert(*id, *age);
            }
        }
    }
    r.finish()
}

/// The build programs' statements: each table the program
/// creates, filled with the rows it inserts, then read back whole.
fn db_replay_programs<'a>(ctx: &Ctx, srcs: impl Iterator<Item = &'a str>) -> Res<DbFigures> {
    let mut r = DurableReplay::open(&fresh_dir(ctx, "db-replay"))?;
    for (p, src) in srcs.enumerate() {
        let mut sess = Session::new().map_err(|e| e.to_string())?;
        sess.threads = 1;
        sess.run_all(src);
        let mem = sess.db();
        let mut tables = Vec::new();
        for t in mem.table_names() {
            let schema = mem.schema(&t).map_err(|e| e.to_string())?.clone();
            let rows = mem.select(&t, &all()).map_err(|e| e.to_string())?;
            tables.push((t, schema, rows));
        }
        drop(sess);
        for (t, schema, rows) in tables {
            let name = format!("p{p}_{t}");
            let cols: Vec<String> = schema.columns().iter().map(|(c, _)| c.clone()).collect();
            r.write(|db| db.create_table(&name, schema))?;
            for row in rows {
                let vals: Vec<(String, ur_db::SqlExpr)> = cols
                    .iter()
                    .cloned()
                    .zip(row.into_iter().map(ur_db::SqlExpr::lit))
                    .collect();
                r.write(|db| db.insert(&name, &vals))?;
            }
            for _ in 0..3 {
                r.read(|db| db.select(&name, &all()))?;
            }
        }
    }
    ur_core::arena::try_reset();
    r.finish()
}

// ------------------------------------------------------------------ run

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Res<()> {
    let t = match ctx.workload.as_str() {
        "build" => build(ctx, out)?,
        _ => app(ctx, out)?,
    };
    std::fs::write(ctx.tmp.join("empty.ur"), "").map_err(|e| e.to_string())?;
    let startup: Vec<f64> = (0..31)
        .map(|_| e2e::empty_run_s(ctx).map(|s| s * 1e3))
        .collect::<Res<_>>()?;

    // Determinism: the named counts repeat exactly on a second pass.
    let det = |c: &Counts| (c.queries, c.green, c.disk_hits, c.vm_ops, c.prover_calls);
    let db_det = |d: &DbFigures| (d.writes, d.fsyncs, d.wal_bytes, d.checkpoints);
    let same = det(&t.counts) == det(&t.counts_again) && db_det(&t.db) == db_det(&t.db_again);
    check(same, "counts repeat exactly for the seed", out);
    if !same {
        out.note(format!(
            "counts differ between passes: {:?} vs {:?}; db {:?} vs {:?}",
            t.counts,
            t.counts_again,
            db_det(&t.db),
            db_det(&t.db_again)
        ));
    }

    let l = &t.layers;
    let c = &t.counts;
    let per_req = |v: u64| v as f64 / c.requests.max(1) as f64;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    out.metric("syntax.parse_ms", l.layer_p50_ms("syntax.parse"), "ms");
    out.metric("infer.depgraph_ms", l.layer_p50_ms("infer.depgraph"), "ms");
    out.metric("infer.elab_ms", l.layer_p50_ms("infer.elab"), "ms");
    out.metric("infer.unify_calls", per_req(c.unify_calls), "count");
    out.metric("core.norm_steps", per_req(c.norm_steps), "count");
    out.metric("core.prover_calls", per_req(c.prover_calls), "count");
    out.metric(
        "core.memo_hit_ratio",
        ratio(c.memo_hits, c.memo_hits + c.memo_misses),
        "ratio",
    );
    out.metric("core.arena_nodes", c.arena_nodes as f64, "count");
    out.metric("core.arena_bytes", c.arena_bytes as f64, "bytes");
    out.metric("query.run_ms", l.layer_p50_ms("query.run"), "ms");
    out.metric("query.green_ratio", ratio(c.green, c.queries), "ratio");
    out.metric("query.disk_hits", c.disk_hits as f64, "count");
    out.metric("eval.compile_ms", l.layer_p50_ms("eval.compile"), "ms");
    out.metric("eval.vm_ms", l.layer_p50_ms("eval.vm"), "ms");
    out.metric(
        "eval.chunk_hit_ratio",
        ratio(c.chunk_hits, c.chunk_hits + c.chunks),
        "ratio",
    );
    out.metric("eval.vm_ops", per_req(c.vm_ops), "count");

    let d = &t.db;
    let dt = d.tracer.as_ref().ok_or("db pass left no spans")?;
    out.metric("db.select_ms", dt.layer_p50_ms("db.select"), "ms");
    out.metric("db.write_ms", dt.layer_p50_ms("db.write"), "ms");
    out.metric("db.checkpoint_ms", dt.layer_p50_ms("db.checkpoint"), "ms");
    out.metric("db.fsyncs_per_write", ratio(d.fsyncs, d.writes), "count");
    out.metric(
        "db.wal_bytes_per_write",
        ratio(d.wal_bytes, d.writes),
        "bytes",
    );
    out.metric("db.checkpoints", d.checkpoints as f64, "count");
    out.metric("db.scan_ratio", ratio(d.scans, d.scans + d.probes), "ratio");

    let handle_p50 = |k: usize| quantile(&t.handle_ms[k], 0.5);
    let all_handle: Vec<f64> = t.handle_ms.iter().flatten().copied().collect();
    out.metric("serve.handle_ms", quantile(&all_handle, 0.5), "ms");
    // Client latency minus handling time, per request kind, weighted by
    // how many requests of each kind the client sent.
    let (cr, cw) = (&t.client.read, &t.client.write);
    let wait =
        |client: &[f64], k: usize| (quantile(client, 0.5) - handle_p50(k), client.len() as f64);
    let parts: Vec<(f64, f64)> = [wait(cr, 0), wait(cw, 1)]
        .into_iter()
        .filter(|(w, n)| w.is_finite() && *n > 0.0)
        .collect();
    let n: f64 = parts.iter().map(|p| p.1).sum();
    out.metric(
        "serve.wait_ms",
        parts.iter().map(|(w, k)| w * k).sum::<f64>() / n.max(1.0),
        "ms",
    );
    out.metric("urc.startup_ms", quantile(&startup, 0.5), "ms");
    out.metric("trace.unattributed_share", l.unattributed_share(), "ratio");
    let tracing_s = l.spans.len() as f64 * span_cost_s();
    out.metric(
        "trace.overhead_ratio",
        (t.layers_untraced_s + tracing_s) / t.layers_untraced_s.max(1e-9),
        "ratio",
    );

    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_out");
    let stem = format!("{}-{}", ctx.workload, ctx.seed);
    for (tag, tr) in [("layers", &t.layers), ("serve", &t.serve), ("db", dt)] {
        let path = dir.join(format!("trace-{stem}-{tag}.jsonl"));
        tr.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    out.note(format!("spans written to .bench_out/trace-{stem}-*.jsonl"));
    Ok(())
}
