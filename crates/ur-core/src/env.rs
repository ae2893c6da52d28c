//! Typing contexts.
//!
//! A single context `G` carries, as in the paper (§3.2): kinding assertions
//! `a :: k` (with an optional transparent definition, for `type`
//! declarations), typing assertions `x : t`, and row disjointness
//! assumptions `c1 ~ c2`.

use crate::con::RCon;
use crate::kind::Kind;
use crate::sym::Sym;
use std::collections::HashMap;

/// Binding of a constructor variable: its kind and, when transparent, its
/// definition (unfolded on demand during head normalization).
#[derive(Clone, Debug)]
pub struct CBind {
    pub kind: Kind,
    pub def: Option<RCon>,
}

/// A typing context. Cloning is cheap enough at our scale; scopes are
/// handled by clone-and-extend.
#[derive(Clone, Debug, Default)]
pub struct Env {
    cons: HashMap<Sym, CBind>,
    vals: HashMap<Sym, RCon>,
    facts: Vec<(RCon, RCon)>,
}

impl Env {
    pub fn new() -> Env {
        Env::default()
    }

    /// Adds an abstract constructor variable `a :: k`.
    pub fn bind_con(&mut self, a: Sym, k: Kind) {
        self.cons.insert(a, CBind { kind: k, def: None });
    }

    /// Adds a transparent constructor definition `a :: k = c`.
    pub fn define_con(&mut self, a: Sym, k: Kind, c: RCon) {
        self.cons.insert(a, CBind { kind: k, def: Some(c) });
    }

    /// Adds a value binding `x : t`.
    pub fn bind_val(&mut self, x: Sym, t: RCon) {
        self.vals.insert(x, t);
    }

    /// Records a disjointness assumption `c1 ~ c2`.
    pub fn assume_disjoint(&mut self, c1: RCon, c2: RCon) {
        self.facts.push((c1, c2));
    }

    /// Looks up a constructor variable.
    pub fn lookup_con(&self, a: &Sym) -> Option<&CBind> {
        self.cons.get(a)
    }

    /// Looks up a value variable's type.
    pub fn lookup_val(&self, x: &Sym) -> Option<&RCon> {
        self.vals.get(x)
    }

    /// All recorded disjointness assumptions.
    pub fn facts(&self) -> &[(RCon, RCon)] {
        &self.facts
    }

    /// Number of value bindings (used by tests).
    pub fn val_count(&self) -> usize {
        self.vals.len()
    }

    /// Iterates over all value bindings.
    pub fn vals(&self) -> impl Iterator<Item = (&Sym, &RCon)> {
        self.vals.iter()
    }

    /// Iterates over all constructor bindings.
    pub fn cons(&self) -> impl Iterator<Item = (&Sym, &CBind)> {
        self.cons.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::con::Con;

    #[test]
    fn bind_and_lookup_con() {
        let mut env = Env::new();
        let a = Sym::fresh("a");
        env.bind_con(a, Kind::Type);
        let b = env.lookup_con(&a).unwrap();
        assert_eq!(b.kind, Kind::Type);
        assert!(b.def.is_none());
    }

    #[test]
    fn transparent_definition() {
        let mut env = Env::new();
        let a = Sym::fresh("meta");
        env.define_con(a, Kind::arrow(Kind::Type, Kind::Type), Con::int());
        assert!(env.lookup_con(&a).unwrap().def.is_some());
    }

    #[test]
    fn val_binding() {
        let mut env = Env::new();
        let x = Sym::fresh("x");
        env.bind_val(x, Con::int());
        assert!(env.lookup_val(&x).is_some());
        assert!(env.lookup_val(&Sym::fresh("x")).is_none());
    }

    #[test]
    fn facts_accumulate() {
        let mut env = Env::new();
        env.assume_disjoint(Con::name("A"), Con::name("B"));
        let inner = {
            let mut e = env.clone();
            e.assume_disjoint(Con::name("C"), Con::name("D"));
            e
        };
        assert_eq!(env.facts().len(), 1);
        assert_eq!(inner.facts().len(), 2);
    }
}
