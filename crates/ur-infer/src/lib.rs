// Library code must be panic-free: unwrap/expect/panic are denied
// outside cfg(test) (see docs/ROBUSTNESS.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! # ur-infer — the Ur type-inference engine (paper §4)
//!
//! Implements the heuristic, domain-specific inference the paper argues
//! makes dependent-type-style record metaprogramming practical:
//!
//! * [`mod@unify`] — head-normalize-and-compare unification, the special **row
//!   unification** (§4.3), and **reverse-engineering unification** (§4.2);
//! * [`elab`] — bidirectional elaboration from surface syntax to core,
//!   implicit-argument insertion, the postpone-and-retry constraint loop,
//!   automatic disjointness proofs (§4.1, via `ur-core::disjoint`), and
//!   **folder generation** (§4.4);
//! * Figure-5 statistics are accumulated in the shared
//!   [`Cx`](ur_core::Cx).
//!
//! ## Example: the paper's §2 opener
//!
//! ```
//! use ur_infer::Elaborator;
//!
//! let mut elab = Elaborator::new();
//! let decls = elab
//!     .elab_source(
//!         "fun proj [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r] \
//!              (x : $([nm = t] ++ r)) = x.nm \
//!          val a : int = proj [#A] {A = 1, B = 2.3}",
//!     )
//!     .unwrap();
//! assert_eq!(decls.len(), 2);
//! assert!(elab.cx.stats.disjoint_prover_calls > 0);
//! ```

pub mod batch;
pub mod elab;
pub mod error;
pub mod unify;

pub use batch::{run_incremental_sequential, ConBind, DeclRecord, DepGraph, Outcome, Seed};
pub use elab::{ElabDecl, ElabSnapshot, Elaborator};
pub use error::{ElabError, EResult};
pub use unify::{unify, unify_kind, Unify};
pub use ur_core::{Limits, ResourceKind};
pub use ur_syntax::{Code, Diagnostic, Diagnostics};
