//! A minimal Ur REPL on top of [`ur::Session`].
//!
//! ```sh
//! cargo run -p ur --example repl [-- --db-dir DIR] [--eval=vm|interp]
//! ```
//!
//! Enter expressions to evaluate them, declarations (`val`/`fun`/`type`/
//! `con`) to extend the session, `:t e` for the type of an expression,
//! `:stats` for the Figure-5 counters plus the intern-table, arena,
//! and eval-engine columns, `:db` for the database report (tables,
//! WAL, durability counters), and `:quit` to exit. With `--db-dir DIR`
//! the session's database effects go through the crash-safe WAL +
//! snapshot store; `--eval=` picks the execution engine (the bytecode VM
//! by default, the tree-walking interpreter as the oracle).

use std::io::{BufRead, Write};
use ur::{Session, SessionError};

/// Renders elaboration errors in the coded diagnostic format the
/// declaration path uses, so every REPL error looks the same.
fn render(e: SessionError) -> String {
    match e {
        SessionError::Elab(e) => ur::syntax::Diagnostic::from(e).to_string(),
        other => other.to_string(),
    }
}

fn main() {
    let mut sess = match Session::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start session: {e}");
            std::process::exit(1);
        }
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--db-dir" => {
                let Some(dir) = args.next().filter(|d| !d.is_empty()) else {
                    continue; // empty = in-memory, same as urc
                };
                match ur::db::Db::open(&dir) {
                    Ok(db) => *sess.db() = db,
                    Err(e) => {
                        eprintln!("--db-dir {dir}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            other if other.starts_with("--eval=") => {
                let name = &other["--eval=".len()..];
                match ur::eval::EvalEngine::parse(name) {
                    Some(engine) => sess.engine = engine,
                    None => {
                        eprintln!("--eval=: unknown engine {name} (vm|interp)");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "unknown option {other} (supported: --db-dir DIR, --eval=vm|interp)"
                );
                std::process::exit(2);
            }
        }
    }
    println!(
        "Ur REPL — :t <expr> for types, :stats for counters, :db for the \
         database, :quit to exit"
    );
    let stdin = std::io::stdin();
    loop {
        print!("ur> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            break;
        }
        if line == ":stats" {
            println!("{}", sess.stats_snapshot());
            println!("eval engine: {}", sess.engine.name());
            continue;
        }
        if line == ":db" {
            print!("{}", sess.db_report());
            continue;
        }
        if let Some(rest) = line.strip_prefix(":t ") {
            match sess.type_of(rest) {
                Ok(t) => println!("{rest} : {t}"),
                Err(e) => println!("{}", render(e)),
            }
            continue;
        }
        let is_decl = ["val ", "fun ", "type ", "con "]
            .iter()
            .any(|kw| line.starts_with(kw));
        if is_decl {
            // Multi-error mode: a line holding several declarations
            // reports every error and still defines the good ones; the
            // session survives arbitrary malformed input.
            let (defs, diags) = sess.run_all(line);
            for d in &diags {
                println!("{d}");
            }
            for (name, v) in defs {
                println!("{name} = {v}");
            }
        } else {
            match sess.eval(line) {
                Ok(v) => println!("{v}"),
                Err(e) => println!("{}", render(e)),
            }
        }
    }
}
