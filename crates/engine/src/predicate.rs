//! SARGable predicates.
//!
//! The paper's scanners "apply SARGable predicates" (§2.2.3): simple
//! `attribute ⟨op⟩ literal` comparisons evaluable directly on stored bytes.
//! Text comparisons are bytewise on the zero-padded fixed-width value, which
//! matches lexicographic order for the generated data.

use std::sync::Arc;

use rodb_types::{DataType, Error, Result, Schema, Value};

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Eq,
    Ne,
    Ge,
    Gt,
}

impl CmpOp {
    pub(crate) fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Ge => ord != Less,
            CmpOp::Gt => ord == Greater,
        }
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        };
        write!(f, "{s}")
    }
}

/// `column ⟨op⟩ literal` over a base-table column index.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub col: usize,
    pub op: CmpOp,
    pub literal: Value,
}

impl Predicate {
    pub fn new(col: usize, op: CmpOp, literal: Value) -> Predicate {
        Predicate { col, op, literal }
    }

    /// Shorthand builders.
    pub fn lt(col: usize, v: impl Into<Value>) -> Predicate {
        Predicate::new(col, CmpOp::Lt, v.into())
    }
    pub fn le(col: usize, v: impl Into<Value>) -> Predicate {
        Predicate::new(col, CmpOp::Le, v.into())
    }
    pub fn eq(col: usize, v: impl Into<Value>) -> Predicate {
        Predicate::new(col, CmpOp::Eq, v.into())
    }
    pub fn ge(col: usize, v: impl Into<Value>) -> Predicate {
        Predicate::new(col, CmpOp::Ge, v.into())
    }
    pub fn gt(col: usize, v: impl Into<Value>) -> Predicate {
        Predicate::new(col, CmpOp::Gt, v.into())
    }

    /// Validate against a schema (column exists, literal type compatible).
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        if self.col >= schema.len() {
            return Err(Error::UnknownColumn(format!("index {}", self.col)));
        }
        let dt = schema.dtype(self.col);
        let ok = match (&self.literal, dt) {
            (Value::Int(_), DataType::Int) => true,
            (Value::Long(_), DataType::Long) => true,
            (Value::Int(_) | Value::Long(_), DataType::Long | DataType::Int) => true,
            (Value::Text(b), DataType::Text(n)) => b.len() <= n,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(Error::TypeMismatch {
                expected: dt.name(),
                got: self.literal.dtype().name(),
            })
        }
    }

    /// Evaluate against an `Int` value (fast path for int columns).
    #[inline]
    pub fn eval_int(&self, v: i32) -> bool {
        match &self.literal {
            Value::Int(l) => self.op.holds(v.cmp(l)),
            Value::Long(l) => self.op.holds((v as i64).cmp(l)),
            Value::Text(_) => false,
        }
    }

    /// Evaluate against the raw stored bytes of the column value.
    /// `raw` must be exactly the column's declared width.
    pub fn eval_raw(&self, dt: DataType, raw: &[u8]) -> bool {
        match dt {
            DataType::Int => {
                let v = i32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]);
                self.eval_int(v)
            }
            DataType::Long => {
                let v = i64::from_le_bytes([
                    raw[0], raw[1], raw[2], raw[3], raw[4], raw[5], raw[6], raw[7],
                ]);
                match &self.literal {
                    Value::Int(l) => self.op.holds(v.cmp(&(*l as i64))),
                    Value::Long(l) => self.op.holds(v.cmp(l)),
                    Value::Text(_) => false,
                }
            }
            DataType::Text(n) => match &self.literal {
                Value::Text(lit) => {
                    // Compare against the literal zero-padded to width n.
                    let mut ord = std::cmp::Ordering::Equal;
                    for (i, &rb) in raw.iter().enumerate().take(n) {
                        let lb = lit.get(i).copied().unwrap_or(0);
                        ord = rb.cmp(&lb);
                        if ord != std::cmp::Ordering::Equal {
                            break;
                        }
                    }
                    self.op.holds(ord)
                }
                _ => false,
            },
        }
    }

    /// Evaluate against an owned [`Value`] (slow path; tests & oracles).
    pub fn eval_value(&self, v: &Value) -> bool {
        match (v, &self.literal) {
            (Value::Int(a), _) => self.eval_int(*a),
            (Value::Long(a), Value::Int(l)) => self.op.holds(a.cmp(&(*l as i64))),
            (Value::Long(a), Value::Long(l)) => self.op.holds(a.cmp(l)),
            (Value::Text(a), Value::Text(_)) => self.eval_raw(DataType::Text(a.len()), a),
            _ => false,
        }
    }
}

/// Validate a scan's projection and predicates against the base `schema`
/// and return the projected output schema.
pub(crate) fn scan_schema(
    schema: &Schema,
    projection: &[usize],
    predicates: &[Predicate],
) -> Result<Arc<Schema>> {
    if projection.is_empty() {
        return Err(Error::InvalidPlan("empty projection".into()));
    }
    for p in predicates {
        p.validate(schema)?;
    }
    Ok(Arc::new(schema.project(projection)?))
}

/// Column order of a column scan: predicate columns first (deepest, so
/// nodes that yield few qualifying tuples run early), in predicate order,
/// then the remaining projected columns in projection order.
pub fn scan_columns(projection: &[usize], predicates: &[Predicate]) -> Vec<usize> {
    let mut cols: Vec<usize> = Vec::new();
    for c in predicates
        .iter()
        .map(|p| p.col)
        .chain(projection.iter().copied())
    {
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "col{} {} {}", self.col, self.op, self.literal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_types::Column;

    #[test]
    fn int_comparisons() {
        let p = Predicate::lt(0, 10);
        assert!(p.eval_int(9));
        assert!(!p.eval_int(10));
        assert!(Predicate::le(0, 10).eval_int(10));
        assert!(Predicate::eq(0, -5).eval_int(-5));
        assert!(Predicate::ge(0, 3).eval_int(3));
        assert!(Predicate::gt(0, 3).eval_int(4));
        assert!(Predicate::new(0, CmpOp::Ne, Value::Int(3)).eval_int(4));
    }

    #[test]
    fn raw_int_matches_eval_int() {
        let p = Predicate::lt(0, 1000);
        for v in [-5i32, 0, 999, 1000, 2000] {
            assert_eq!(p.eval_raw(DataType::Int, &v.to_le_bytes()), p.eval_int(v));
        }
    }

    #[test]
    fn long_comparisons() {
        let p = Predicate::new(0, CmpOp::Gt, Value::Long(4_000_000_000));
        let raw = 5_000_000_000i64.to_le_bytes();
        assert!(p.eval_raw(DataType::Long, &raw));
        assert!(p.eval_value(&Value::Long(5_000_000_000)));
        assert!(!p.eval_value(&Value::Long(0)));
        // Int literal against a Long value widens.
        let p = Predicate::new(0, CmpOp::Ge, Value::Int(10));
        assert!(p.eval_value(&Value::Long(10)));
    }

    #[test]
    fn text_comparisons_on_padded_bytes() {
        let p = Predicate::eq(0, "AIR");
        let mut raw = b"AIR".to_vec();
        raw.extend([0u8; 7]);
        assert!(p.eval_raw(DataType::Text(10), &raw));
        let p2 = Predicate::lt(0, "SHIP");
        assert!(p2.eval_raw(DataType::Text(10), &raw)); // "AIR" < "SHIP"
        let p3 = Predicate::gt(0, "AA");
        assert!(p3.eval_raw(DataType::Text(10), &raw));
        // eval_value agrees.
        assert!(p.eval_value(&Value::text("AIR")));
        assert!(!p.eval_value(&Value::text("SHIP")));
    }

    #[test]
    fn validation() {
        let s = Schema::new(vec![Column::int("a"), Column::text("t", 3)]).unwrap();
        assert!(Predicate::lt(0, 5).validate(&s).is_ok());
        assert!(Predicate::eq(1, "ab").validate(&s).is_ok());
        assert!(Predicate::eq(1, "toolong").validate(&s).is_err());
        assert!(Predicate::lt(1, 5).validate(&s).is_err());
        assert!(Predicate::eq(0, "x").validate(&s).is_err());
        assert!(Predicate::lt(7, 5).validate(&s).is_err());
    }

    #[test]
    fn type_confusion_is_false_not_panic() {
        let p = Predicate::eq(0, "x");
        assert!(!p.eval_int(5));
        assert!(!p.eval_value(&Value::Int(5)));
        let p = Predicate::lt(0, 5);
        assert!(!p.eval_value(&Value::text("x")));
    }
}
