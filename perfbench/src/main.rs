//! `perfbench`: the end-to-end benchmark of `urc`.
//!
//! ```text
//! perfbench --urc PATH --workload build|app_write
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it drives the release `urc` binary as a child process
//! and prints the end-to-end metrics; with `--trace 1` it replays the same
//! seeded inputs in-process, timing calls into each crate's public
//! functions, and prints the per-layer metrics. Either way the last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Human-readable notes go to stderr. See `README.md` here.

mod e2e;
mod gen;
mod proc;
mod trace;

use std::path::PathBuf;

/// Parsed command line plus the run's private temp directory.
#[derive(Clone)]
pub struct Ctx {
    pub urc: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub tmp: PathBuf,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `q` quantile of `v` by linear interpolation (NaN when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn parse_args() -> Result<(Ctx, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut urc, mut workload, mut seed, mut seconds, mut trace) = (None, None, 1u64, 10.0, false);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--urc" => urc = Some(PathBuf::from(val()?)),
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => seconds = val()?.parse().map_err(|_| "--seconds: not a number")?,
            "--trace" => trace = val()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["build", "app_write"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (build|app_write)"
        ));
    }
    let urc = urc.ok_or("--urc is required")?;
    let tmp = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_tmp")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok((
        Ctx {
            urc,
            workload,
            seed,
            seconds,
            tmp,
        },
        trace,
    ))
}

fn run(ctx: &Ctx, traced: bool, out: &mut Outcome) -> Result<(), String> {
    if traced {
        return trace::run(ctx, out);
    }
    let samples = match ctx.workload.as_str() {
        "build" => e2e::build(ctx, out)?,
        _ => e2e::app(ctx, out)?,
    };
    samples.into_outcome(out);
    Ok(())
}

fn main() -> std::process::ExitCode {
    let (ctx, traced) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("perfbench: create {}: {e}", ctx.tmp.display());
        return std::process::ExitCode::FAILURE;
    }
    let mut out = Outcome::default();
    let result = run(&ctx, traced, &mut out);
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    if let Some(parent) = ctx.tmp.parent() {
        // Removes `.bench_tmp` only when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", ctx.workload);
        return std::process::ExitCode::FAILURE;
    }
    eprintln!("perfbench {} seed {}:", ctx.workload, ctx.seed);
    for n in &out.notes {
        eprintln!("  {n}");
    }
    for (n, v, u) in &out.metrics {
        eprintln!("  {n:<28} {v:>14.4} {u}");
    }
    eprintln!(
        "  fail_ratio {:.4} ({} of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        eprintln!("  FAILED: {f}");
    }
    println!("{}", out.json());
    std::process::ExitCode::SUCCESS
}
