//! Implementations of the standard-library primitives declared in
//! [`crate::prelude`].

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use ur_core::con::RCon;
use ur_db::{ColTy, DbVal, Schema, SqlExpr};
use ur_eval::value::XmlVal;
use ur_eval::{Builtin, EvalError, Interp, Value};

type BFn = dyn Fn(&mut Interp<'_>, &[RCon], &[Value]) -> Result<Value, EvalError>;

fn bi(
    map: &mut HashMap<String, Rc<Builtin>>,
    name: &str,
    con_arity: usize,
    arity: usize,
    f: impl Fn(&mut Interp<'_>, &[RCon], &[Value]) -> Result<Value, EvalError> + 'static,
) {
    map.insert(
        name.to_string(),
        Rc::new(Builtin {
            name: name.to_string(),
            con_arity,
            arity,
            run: Rc::new(f) as Rc<BFn>,
        }),
    );
}

/// Converts an Ur runtime value into a database value.
///
/// # Errors
///
/// Fails for values with no database representation (functions, XML, ...).
pub fn value_to_db(v: &Value) -> Result<DbVal, EvalError> {
    match v {
        Value::Int(n) => Ok(DbVal::Int(*n)),
        Value::Float(x) => Ok(DbVal::Float(*x)),
        Value::Str(s) => Ok(DbVal::Str(s.to_string())),
        Value::Bool(b) => Ok(DbVal::Bool(*b)),
        Value::Opt(None) => Ok(DbVal::Null),
        Value::Opt(Some(inner)) => value_to_db(inner),
        other => Err(EvalError::new(format!(
            "value {other} has no SQL representation"
        ))),
    }
}

/// Converts a database value back into an Ur value at a column type.
pub fn db_to_value(v: &DbVal, ty: &ColTy) -> Value {
    match ty {
        ColTy::Nullable(inner) => match v {
            DbVal::Null => Value::Opt(None),
            other => Value::Opt(Some(Rc::new(db_to_value(other, inner)))),
        },
        _ => match v {
            DbVal::Int(n) => Value::Int(*n),
            DbVal::Float(x) => Value::Float(*x),
            DbVal::Str(s) => Value::str(s.as_str()),
            DbVal::Bool(b) => Value::Bool(*b),
            DbVal::Null => Value::Opt(None),
        },
    }
}

fn tag(map: &mut HashMap<String, Rc<Builtin>>, builtin: &str, element: &'static str) {
    bi(map, builtin, 0, 1, move |_, _, args| {
        Ok(Value::Xml(Rc::new(XmlVal::Tag {
            name: element.to_string(),
            attrs: vec![],
            children: vec![Rc::clone(args[0].as_xml()?)],
        })))
    });
}

/// Builds the full builtin registry, keyed by prelude declaration name.
pub fn registry() -> HashMap<String, Rc<Builtin>> {
    let mut m = HashMap::new();

    // ---------- integers, booleans, floats ----------
    bi(&mut m, "add", 0, 2, |_, _, a| {
        Ok(Value::Int(a[0].as_int()?.wrapping_add(a[1].as_int()?)))
    });
    bi(&mut m, "sub", 0, 2, |_, _, a| {
        Ok(Value::Int(a[0].as_int()?.wrapping_sub(a[1].as_int()?)))
    });
    bi(&mut m, "mul", 0, 2, |_, _, a| {
        Ok(Value::Int(a[0].as_int()?.wrapping_mul(a[1].as_int()?)))
    });
    bi(&mut m, "div", 0, 2, |_, _, a| {
        let d = a[1].as_int()?;
        if d == 0 {
            return Err(EvalError::new("division by zero"));
        }
        Ok(Value::Int(a[0].as_int()? / d))
    });
    bi(&mut m, "mod", 0, 2, |_, _, a| {
        let d = a[1].as_int()?;
        if d == 0 {
            return Err(EvalError::new("modulo by zero"));
        }
        Ok(Value::Int(a[0].as_int()? % d))
    });
    bi(&mut m, "neg", 0, 1, |_, _, a| {
        Ok(Value::Int(-a[0].as_int()?))
    });
    bi(&mut m, "lt", 0, 2, |_, _, a| {
        Ok(Value::Bool(a[0].as_int()? < a[1].as_int()?))
    });
    bi(&mut m, "le", 0, 2, |_, _, a| {
        Ok(Value::Bool(a[0].as_int()? <= a[1].as_int()?))
    });
    bi(&mut m, "gt", 0, 2, |_, _, a| {
        Ok(Value::Bool(a[0].as_int()? > a[1].as_int()?))
    });
    bi(&mut m, "ge", 0, 2, |_, _, a| {
        Ok(Value::Bool(a[0].as_int()? >= a[1].as_int()?))
    });
    bi(&mut m, "eq", 0, 2, |_, _, a| {
        Ok(Value::Bool(a[0].as_int()? == a[1].as_int()?))
    });
    bi(&mut m, "ne", 0, 2, |_, _, a| {
        Ok(Value::Bool(a[0].as_int()? != a[1].as_int()?))
    });
    bi(&mut m, "andb", 0, 2, |_, _, a| {
        Ok(Value::Bool(a[0].as_bool()? && a[1].as_bool()?))
    });
    bi(&mut m, "orb", 0, 2, |_, _, a| {
        Ok(Value::Bool(a[0].as_bool()? || a[1].as_bool()?))
    });
    bi(&mut m, "notb", 0, 1, |_, _, a| {
        Ok(Value::Bool(!a[0].as_bool()?))
    });
    bi(&mut m, "addFloat", 0, 2, |_, _, a| {
        Ok(Value::Float(a[0].as_float()? + a[1].as_float()?))
    });
    bi(&mut m, "mulFloat", 0, 2, |_, _, a| {
        Ok(Value::Float(a[0].as_float()? * a[1].as_float()?))
    });
    bi(&mut m, "intToFloat", 0, 1, |_, _, a| {
        Ok(Value::Float(a[0].as_int()? as f64))
    });
    bi(&mut m, "floatToInt", 0, 1, |_, _, a| {
        Ok(Value::Int(a[0].as_float()? as i64))
    });

    // ---------- strings ----------
    bi(&mut m, "strcat", 0, 2, |_, _, a| {
        let mut s = a[0].as_str()?.to_string();
        s.push_str(&a[1].as_str()?);
        Ok(Value::str(s))
    });
    bi(&mut m, "eqString", 0, 2, |_, _, a| {
        Ok(Value::Bool(a[0].as_str()? == a[1].as_str()?))
    });
    bi(&mut m, "showInt", 0, 1, |_, _, a| {
        Ok(Value::str(a[0].as_int()?.to_string()))
    });
    bi(&mut m, "showFloat", 0, 1, |_, _, a| {
        Ok(Value::str(format!("{:?}", a[0].as_float()?)))
    });
    bi(&mut m, "showBool", 0, 1, |_, _, a| {
        Ok(Value::str(if a[0].as_bool()? { "True" } else { "False" }))
    });
    bi(&mut m, "parseInt", 0, 1, |_, _, a| {
        Ok(Value::Int(a[0].as_str()?.trim().parse().unwrap_or(0)))
    });
    bi(&mut m, "parseFloat", 0, 1, |_, _, a| {
        Ok(Value::Float(a[0].as_str()?.trim().parse().unwrap_or(0.0)))
    });
    bi(&mut m, "parseBool", 0, 1, |_, _, a| {
        let s = a[0].as_str()?;
        Ok(Value::Bool(s.trim() == "True" || s.trim() == "true"))
    });

    // ---------- control ----------
    bi(&mut m, "error", 1, 1, |_, _, a| {
        Err(EvalError::new(format!("error: {}", a[0].as_str()?)))
    });
    bi(&mut m, "debug", 0, 1, |interp, _, a| {
        let msg = a[0].as_str()?.to_string();
        interp.world.out.push(msg);
        Ok(Value::Unit)
    });
    bi(&mut m, "seq", 1, 2, |_, _, a| Ok(a[1].clone()));
    bi(&mut m, "ignore", 1, 1, |_, _, _| Ok(Value::Unit));

    // ---------- lists ----------
    bi(&mut m, "nil", 1, 0, |_, _, _| {
        Ok(Value::List(Rc::new(vec![])))
    });
    bi(&mut m, "cons", 1, 2, |_, _, a| {
        let mut items = vec![a[0].clone()];
        items.extend(a[1].as_list()?.iter().cloned());
        Ok(Value::List(Rc::new(items)))
    });
    bi(&mut m, "foldList", 2, 3, |interp, _, a| {
        let f = a[0].clone();
        let mut acc = a[1].clone();
        for item in a[2].as_list()?.to_vec() {
            acc = interp.apply2(f.clone(), item, acc)?;
        }
        Ok(acc)
    });
    bi(&mut m, "mapL", 2, 2, |interp, _, a| {
        let f = a[0].clone();
        let mut out = Vec::new();
        for item in a[1].as_list()?.to_vec() {
            out.push(interp.apply(f.clone(), item)?);
        }
        Ok(Value::List(Rc::new(out)))
    });
    bi(&mut m, "filterL", 1, 2, |interp, _, a| {
        let f = a[0].clone();
        let mut out = Vec::new();
        for item in a[1].as_list()?.to_vec() {
            if interp.apply(f.clone(), item.clone())?.as_bool()? {
                out.push(item);
            }
        }
        Ok(Value::List(Rc::new(out)))
    });
    bi(&mut m, "appendList", 1, 2, |_, _, a| {
        let mut out = a[0].as_list()?.to_vec();
        out.extend(a[1].as_list()?.iter().cloned());
        Ok(Value::List(Rc::new(out)))
    });
    bi(&mut m, "lengthList", 1, 1, |_, _, a| {
        Ok(Value::Int(a[0].as_list()?.len() as i64))
    });
    bi(&mut m, "nullList", 1, 1, |_, _, a| {
        Ok(Value::Bool(a[0].as_list()?.is_empty()))
    });
    bi(&mut m, "revList", 1, 1, |_, _, a| {
        let mut out = a[0].as_list()?.to_vec();
        out.reverse();
        Ok(Value::List(Rc::new(out)))
    });
    bi(&mut m, "takeL", 1, 2, |_, _, a| {
        let n = a[0].as_int()?.max(0) as usize;
        let items = a[1].as_list()?;
        Ok(Value::List(Rc::new(
            items.iter().take(n).cloned().collect(),
        )))
    });
    bi(&mut m, "dropL", 1, 2, |_, _, a| {
        let n = a[0].as_int()?.max(0) as usize;
        let items = a[1].as_list()?;
        Ok(Value::List(Rc::new(
            items.iter().skip(n).cloned().collect(),
        )))
    });
    bi(&mut m, "sortByInt", 1, 2, |interp, _, a| {
        let f = a[0].clone();
        let mut keyed: Vec<(i64, Value)> = Vec::new();
        for item in a[1].as_list()?.to_vec() {
            let k = interp.apply(f.clone(), item.clone())?.as_int()?;
            keyed.push((k, item));
        }
        keyed.sort_by_key(|(k, _)| *k);
        Ok(Value::List(Rc::new(
            keyed.into_iter().map(|(_, v)| v).collect(),
        )))
    });
    bi(&mut m, "joinStrings", 0, 2, |_, _, a| {
        let sep = a[0].as_str()?;
        let parts: Result<Vec<String>, EvalError> = a[1]
            .as_list()?
            .iter()
            .map(|v| v.as_str().map(|s| s.to_string()))
            .collect();
        Ok(Value::str(parts?.join(&sep)))
    });

    // ---------- options ----------
    bi(&mut m, "some", 1, 1, |_, _, a| {
        Ok(Value::Opt(Some(Rc::new(a[0].clone()))))
    });
    bi(&mut m, "none", 1, 0, |_, _, _| Ok(Value::Opt(None)));
    bi(&mut m, "isSome", 1, 1, |_, _, a| match &a[0] {
        Value::Opt(o) => Ok(Value::Bool(o.is_some())),
        other => Err(EvalError::new(format!("expected option, got {other}"))),
    });
    bi(&mut m, "getOpt", 1, 2, |_, _, a| match &a[0] {
        Value::Opt(Some(v)) => Ok((**v).clone()),
        Value::Opt(None) => Ok(a[1].clone()),
        other => Err(EvalError::new(format!("expected option, got {other}"))),
    });

    // ---------- XML ----------
    bi(&mut m, "cdata", 1, 1, |_, _, a| {
        Ok(Value::Xml(Rc::new(XmlVal::Text(a[0].as_str()?.to_string()))))
    });
    bi(&mut m, "xempty", 1, 0, |_, _, _| {
        Ok(Value::Xml(Rc::new(XmlVal::Empty)))
    });
    bi(&mut m, "xcat", 1, 2, |_, _, a| {
        Ok(Value::Xml(Rc::new(XmlVal::Seq(vec![
            Rc::clone(a[0].as_xml()?),
            Rc::clone(a[1].as_xml()?),
        ]))))
    });
    tag(&mut m, "tagTable", "table");
    tag(&mut m, "tagTr", "tr");
    tag(&mut m, "tagTh", "th");
    tag(&mut m, "tagTd", "td");
    tag(&mut m, "tagP", "p");
    tag(&mut m, "tagDiv", "div");
    tag(&mut m, "tagH1", "h1");
    tag(&mut m, "tagH2", "h2");
    tag(&mut m, "tagUl", "ul");
    tag(&mut m, "tagLi", "li");
    tag(&mut m, "tagSpan", "span");
    tag(&mut m, "tagB", "b");
    bi(&mut m, "inputText", 0, 1, |_, _, a| {
        Ok(Value::Xml(Rc::new(XmlVal::Tag {
            name: "input".into(),
            attrs: vec![
                ("type".into(), "text".into()),
                ("name".into(), a[0].as_str()?.to_string()),
            ],
            children: vec![],
        })))
    });
    bi(&mut m, "button", 0, 1, |_, _, a| {
        Ok(Value::Xml(Rc::new(XmlVal::Tag {
            name: "button".into(),
            attrs: vec![],
            children: vec![Rc::new(XmlVal::Text(a[0].as_str()?.to_string()))],
        })))
    });
    bi(&mut m, "renderXml", 1, 1, |_, _, a| {
        Ok(Value::str(a[0].as_xml()?.render()))
    });
    bi(&mut m, "page", 0, 2, |_, _, a| {
        let title = ur_eval::value::escape_text(&a[0].as_str()?);
        let body = a[1].as_xml()?.render();
        Ok(Value::str(format!(
            "<html><head><title>{title}</title></head><body>{body}</body></html>"
        )))
    });

    // ---------- SQL type witnesses ----------
    bi(&mut m, "sqlInt", 0, 0, |_, _, _| Ok(Value::SqlType(ColTy::Int)));
    bi(&mut m, "sqlFloat", 0, 0, |_, _, _| {
        Ok(Value::SqlType(ColTy::Float))
    });
    bi(&mut m, "sqlString", 0, 0, |_, _, _| {
        Ok(Value::SqlType(ColTy::Str))
    });
    bi(&mut m, "sqlBool", 0, 0, |_, _, _| {
        Ok(Value::SqlType(ColTy::Bool))
    });
    bi(&mut m, "sqlOption", 1, 1, |_, _, a| match &a[0] {
        Value::SqlType(t) => Ok(Value::SqlType(ColTy::Nullable(Box::new(t.clone())))),
        other => Err(EvalError::new(format!("expected sql_type, got {other}"))),
    });

    // ---------- DDL ----------
    bi(&mut m, "createTable", 1, 2, |interp, _, a| {
        let name = a[0].as_str()?;
        let rec = a[1].as_record()?;
        let mut cols = Vec::new();
        for (col, v) in rec {
            match v {
                Value::SqlType(t) => cols.push((col.to_string(), t.clone())),
                other => {
                    return Err(EvalError::new(format!(
                        "expected sql_type for column {col}, got {other}"
                    )))
                }
            }
        }
        let schema = Schema::new(cols).map_err(EvalError::from)?;
        interp
            .world
            .db
            .create_table(&name, schema)
            .map_err(EvalError::from)?;
        Ok(Value::SqlTable(name))
    });
    bi(&mut m, "createSequence", 0, 1, |interp, _, a| {
        interp.world.db.create_sequence(&a[0].as_str()?);
        Ok(Value::Unit)
    });
    bi(&mut m, "nextval", 0, 1, |interp, _, a| {
        Ok(Value::Int(
            interp
                .world
                .db
                .nextval(&a[0].as_str()?)
                .map_err(EvalError::from)?,
        ))
    });

    // ---------- SQL expressions ----------
    bi(&mut m, "const", 2, 1, |_, _, a| {
        Ok(Value::SqlExp(Rc::new(SqlExpr::Const(value_to_db(&a[0])?))))
    });
    bi(&mut m, "column", 3, 0, |interp, cons, _| {
        let venv = ur_eval::VEnv::new();
        let name = interp.resolve_name(&venv, &cons[0])?;
        Ok(Value::SqlExp(Rc::new(SqlExpr::col(name.to_string()))))
    });
    bi(&mut m, "sqlEq", 2, 2, |_, _, a| {
        Ok(Value::SqlExp(Rc::new(SqlExpr::eq(
            a[0].as_sql_exp()?.clone(),
            a[1].as_sql_exp()?.clone(),
        ))))
    });
    bi(&mut m, "sqlLt", 1, 2, |_, _, a| {
        Ok(Value::SqlExp(Rc::new(SqlExpr::Lt(
            Box::new(a[0].as_sql_exp()?.clone()),
            Box::new(a[1].as_sql_exp()?.clone()),
        ))))
    });
    bi(&mut m, "sqlLe", 1, 2, |_, _, a| {
        Ok(Value::SqlExp(Rc::new(SqlExpr::Le(
            Box::new(a[0].as_sql_exp()?.clone()),
            Box::new(a[1].as_sql_exp()?.clone()),
        ))))
    });
    bi(&mut m, "sqlAnd", 1, 2, |_, _, a| {
        Ok(Value::SqlExp(Rc::new(SqlExpr::and(
            a[0].as_sql_exp()?.clone(),
            a[1].as_sql_exp()?.clone(),
        ))))
    });
    bi(&mut m, "sqlOr", 1, 2, |_, _, a| {
        Ok(Value::SqlExp(Rc::new(SqlExpr::or(
            a[0].as_sql_exp()?.clone(),
            a[1].as_sql_exp()?.clone(),
        ))))
    });
    bi(&mut m, "sqlNot", 1, 1, |_, _, a| {
        Ok(Value::SqlExp(Rc::new(SqlExpr::not(
            a[0].as_sql_exp()?.clone(),
        ))))
    });
    bi(&mut m, "sqlIsNull", 2, 1, |_, _, a| {
        Ok(Value::SqlExp(Rc::new(SqlExpr::is_null(
            a[0].as_sql_exp()?.clone(),
        ))))
    });
    bi(&mut m, "sqlTrue", 1, 0, |_, _, _| {
        Ok(Value::SqlExp(Rc::new(SqlExpr::lit(DbVal::Bool(true)))))
    });
    // Environment weakening is a no-op at runtime: the expression is
    // unchanged, only its static environment row grows.
    bi(&mut m, "weaken", 3, 1, |_, _, a| Ok(a[0].clone()));

    // ---------- DML ----------
    bi(&mut m, "insert", 1, 2, |interp, _, a| {
        let table = table_name(&a[0])?;
        let rec = a[1].as_record()?;
        let mut values = Vec::new();
        for (col, v) in rec {
            values.push((col.to_string(), v.as_sql_exp()?.clone()));
        }
        interp
            .world
            .db
            .insert(&table, &values)
            .map_err(EvalError::from)?;
        Ok(Value::Unit)
    });
    bi(&mut m, "deleteRows", 1, 2, |interp, _, a| {
        let table = table_name(&a[0])?;
        let n = interp
            .world
            .db
            .delete(&table, a[1].as_sql_exp()?)
            .map_err(EvalError::from)?;
        Ok(Value::Int(n as i64))
    });
    bi(&mut m, "updateRows", 2, 3, |interp, _, a| {
        let table = table_name(&a[0])?;
        let rec = a[1].as_record()?;
        let mut changes = Vec::new();
        for (col, v) in rec {
            changes.push((col.to_string(), v.as_sql_exp()?.clone()));
        }
        let n = interp
            .world
            .db
            .update(&table, &changes, a[2].as_sql_exp()?)
            .map_err(EvalError::from)?;
        Ok(Value::Int(n as i64))
    });
    bi(&mut m, "selectAll", 1, 2, |interp, _, a| {
        let table = table_name(&a[0])?;
        let schema = interp
            .world
            .db
            .schema(&table)
            .map_err(EvalError::from)?
            .clone();
        let rows = interp
            .world
            .db
            .select(&table, a[1].as_sql_exp()?)
            .map_err(EvalError::from)?;
        let mut out = Vec::new();
        for row in rows {
            let mut rec = BTreeMap::new();
            for ((col, ty), v) in schema.columns().iter().zip(&row) {
                rec.insert(Rc::from(col.as_str()), db_to_value(v, ty));
            }
            out.push(Value::record(rec));
        }
        Ok(Value::List(Rc::new(out)))
    });
    bi(&mut m, "selectOrdered", 3, 4, |interp, cons, a| {
        let venv = ur_eval::VEnv::new();
        let order_col = interp.resolve_name(&venv, &cons[0])?;
        let table = table_name(&a[0])?;
        let offset = a[2].as_int()?.max(0) as usize;
        let limit = a[3].as_int()?.max(0) as usize;
        let schema = interp
            .world
            .db
            .schema(&table)
            .map_err(EvalError::from)?
            .clone();
        let rows = interp
            .world
            .db
            .select_ordered(&table, a[1].as_sql_exp()?, &order_col, offset, limit)
            .map_err(EvalError::from)?;
        let mut out = Vec::new();
        for row in rows {
            let mut rec = BTreeMap::new();
            for ((col, ty), v) in schema.columns().iter().zip(&row) {
                rec.insert(Rc::from(col.as_str()), db_to_value(v, ty));
            }
            out.push(Value::record(rec));
        }
        Ok(Value::List(Rc::new(out)))
    });
    bi(&mut m, "rowCount", 1, 1, |interp, _, a| {
        let table = table_name(&a[0])?;
        Ok(Value::Int(
            interp
                .world
                .db
                .row_count(&table)
                .map_err(EvalError::from)? as i64,
        ))
    });

    m
}

fn table_name(v: &Value) -> Result<Rc<str>, EvalError> {
    match v {
        Value::SqlTable(t) => Ok(Rc::clone(t)),
        other => Err(EvalError::new(format!("expected table handle, got {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_prelude() {
        // Every `val` in the prelude without a body must have an
        // implementation.
        let prog = ur_syntax::parse_program(crate::prelude::PRELUDE).unwrap();
        let reg = registry();
        for d in &prog.decls {
            if let ur_syntax::SDecl::ValAbs(_, name, _) = d {
                assert!(reg.contains_key(name), "missing builtin impl for {name}");
            }
        }
    }

    #[test]
    fn registry_has_no_extras() {
        let prog = ur_syntax::parse_program(crate::prelude::PRELUDE).unwrap();
        let declared: std::collections::HashSet<&str> = prog
            .decls
            .iter()
            .filter_map(|d| match d {
                ur_syntax::SDecl::ValAbs(_, name, _) => Some(name.as_str()),
                _ => None,
            })
            .collect();
        for name in registry().keys() {
            assert!(declared.contains(name.as_str()), "extra builtin {name}");
        }
    }

    #[test]
    fn value_db_roundtrip() {
        let v = Value::Int(42);
        let db = value_to_db(&v).unwrap();
        assert_eq!(db, DbVal::Int(42));
        let back = db_to_value(&db, &ColTy::Int);
        assert!(matches!(back, Value::Int(42)));
    }

    #[test]
    fn option_db_roundtrip() {
        let v = Value::Opt(Some(Rc::new(Value::str("x"))));
        let db = value_to_db(&v).unwrap();
        assert_eq!(db, DbVal::Str("x".into()));
        let nullable = ColTy::Nullable(Box::new(ColTy::Str));
        assert!(matches!(db_to_value(&db, &nullable), Value::Opt(Some(_))));
        assert!(matches!(
            db_to_value(&DbVal::Null, &nullable),
            Value::Opt(None)
        ));
    }

    #[test]
    fn xcat_and_tags_share_their_operands() {
        let reg = registry();
        let genv = ur_core::env::Env::new();
        let builtins = HashMap::new();
        let mut world = ur_eval::World::new();
        let mut interp = Interp::new(&mut world, &genv, &builtins);
        let mut run = |name: &str, args: &[Value]| (reg[name].run)(&mut interp, &[], args).unwrap();
        let a = run("cdata", &[Value::str("a")]);
        let b = run("cdata", &[Value::str("<b>")]);
        let cat = run("xcat", &[a.clone(), b.clone()]);
        let td = run("tagTd", std::slice::from_ref(&cat));
        let (a, b, cat, td) = (
            a.as_xml().unwrap(),
            b.as_xml().unwrap(),
            cat.as_xml().unwrap(),
            td.as_xml().unwrap(),
        );
        match (&**cat, &**td) {
            (XmlVal::Seq(items), XmlVal::Tag { children, .. }) => {
                assert!(Rc::ptr_eq(&items[0], a) && Rc::ptr_eq(&items[1], b));
                assert!(Rc::ptr_eq(&children[0], cat));
            }
            other => panic!("unexpected shapes {other:?}"),
        }
        assert_eq!(td.render(), "<td>a&lt;b&gt;</td>");
    }

    #[test]
    fn closures_have_no_db_representation() {
        let reg = registry();
        assert!(reg.contains_key("const"));
        let v = Value::Unit;
        assert!(value_to_db(&v).is_err());
    }
}
