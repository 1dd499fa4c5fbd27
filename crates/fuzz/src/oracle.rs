//! Model oracle: the expected result of a [`CasePlan`], computed over the
//! plan's in-memory `Vec<Vec<Value>>` rows with none of the engine's scan,
//! page, or codec machinery. The only shared vocabulary is the plan itself
//! (`Predicate`, `AggSpec`); evaluation is reimplemented from the documented
//! semantics:
//!
//! * predicates: integer comparison widened to `i64`; text comparison is
//!   bytewise over the zero-padded stored value vs. the literal padded to
//!   the declared width;
//! * projection returns stored (padded) values;
//! * aggregates accumulate in `i64`, AVG is the truncating `sum / count`;
//! * hash aggregation orders groups by the raw little-endian key bytes,
//!   sorted aggregation preserves run (first-appearance) order;
//! * zero input rows produce zero output rows, grouped or scalar.

use std::collections::HashMap;

use rodb_engine::AggFunc;
use rodb_types::{DataType, Value};

use crate::gen::CasePlan;

/// Expected `QueryResult::rows` for the plan.
pub fn expected(plan: &CasePlan) -> Vec<Vec<Value>> {
    let schema = &plan.schema;
    let surviving: Vec<&Vec<Value>> = plan
        .rows
        .iter()
        .filter(|r| {
            plan.predicates
                .iter()
                .all(|p| holds(&r[p.col], p.op, &p.literal, schema.dtype(p.col)))
        })
        .collect();
    let projected: Vec<Vec<Value>> = surviving
        .iter()
        .map(|r| plan.projection.iter().map(|&c| r[c].clone()).collect())
        .collect();
    if plan.aggs.is_empty() {
        return projected;
    }
    aggregate(plan, &projected)
}

/// Independent predicate evaluation.
fn holds(stored: &Value, op: rodb_engine::CmpOp, literal: &Value, dtype: DataType) -> bool {
    use rodb_engine::CmpOp::*;
    let ord = match dtype {
        DataType::Int | DataType::Long => {
            let a = num(stored);
            let b = num(literal);
            a.cmp(&b)
        }
        DataType::Text(w) => {
            let a = text(stored);
            let mut b = text(literal).to_vec();
            b.resize(w, 0);
            a.cmp(&b[..])
        }
    };
    match op {
        Lt => ord.is_lt(),
        Le => ord.is_le(),
        Eq => ord.is_eq(),
        Ne => ord.is_ne(),
        Ge => ord.is_ge(),
        Gt => ord.is_gt(),
    }
}

fn num(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i as i64,
        Value::Long(l) => *l,
        Value::Text(_) => unreachable!("numeric compare on text"),
    }
}

fn text(v: &Value) -> &[u8] {
    match v {
        Value::Text(b) => b,
        _ => unreachable!("text compare on numeric"),
    }
}

/// Raw stored bytes of a value — the engine's group keys are exactly these.
fn key_bytes(dtype: DataType, v: &Value) -> Vec<u8> {
    match dtype {
        DataType::Int => match v {
            Value::Int(i) => i.to_le_bytes().to_vec(),
            _ => unreachable!(),
        },
        DataType::Long => match v {
            Value::Long(l) => l.to_le_bytes().to_vec(),
            _ => unreachable!(),
        },
        DataType::Text(w) => {
            let mut b = text(v).to_vec();
            b.resize(w, 0);
            b
        }
    }
}

#[derive(Clone)]
struct Acc {
    count: i64,
    sum: i64,
    min: i64,
    max: i64,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }
    fn update(&mut self, v: i64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
    fn result(&self, f: AggFunc) -> i64 {
        match f {
            AggFunc::Count => self.count,
            AggFunc::Sum => self.sum,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Avg => {
                if self.count == 0 {
                    0
                } else {
                    self.sum / self.count
                }
            }
        }
    }
}

fn aggregate(plan: &CasePlan, projected: &[Vec<Value>]) -> Vec<Vec<Value>> {
    // Group column as a position within the projection (it is always
    // projected — the builder enforces that).
    let gpos = plan.group_by.map(|base| {
        plan.projection
            .iter()
            .position(|&c| c == base)
            .expect("group column is projected")
    });
    let key_dtype = plan.group_by.map(|base| plan.schema.dtype(base));

    // first-seen order, with an index for O(1) lookup
    let mut groups: Vec<(Vec<u8>, Option<Value>, Vec<Acc>)> = Vec::new();
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    for row in projected {
        let (key, gval) = match gpos {
            Some(g) => (
                key_bytes(key_dtype.expect("key dtype"), &row[g]),
                Some(row[g].clone()),
            ),
            None => (Vec::new(), None),
        };
        let gi = match index.get(&key) {
            Some(&i) => i,
            None => {
                groups.push((key.clone(), gval, vec![Acc::new(); plan.aggs.len()]));
                index.insert(key, groups.len() - 1);
                groups.len() - 1
            }
        };
        for (si, spec) in plan.aggs.iter().enumerate() {
            let v = if spec.func == AggFunc::Count {
                0
            } else {
                num(&row[spec.col])
            };
            groups[gi].2[si].update(v);
        }
    }

    // Hash aggregation sorts by key bytes; sorted aggregation keeps run
    // order (identical to first-seen order for a globally sorted key).
    if !plan.sorted_agg {
        groups.sort_by(|a, b| a.0.cmp(&b.0));
    }

    groups
        .into_iter()
        .map(|(_, gval, accs)| {
            let mut out = Vec::with_capacity(plan.aggs.len() + 1);
            if let Some(v) = gval {
                out.push(v);
            }
            for (spec, acc) in plan.aggs.iter().zip(&accs) {
                out.push(Value::Long(acc.result(spec.func)));
            }
            out
        })
        .collect()
}

/// Expected rows of an inner equi-join of `left` and `right` on
/// `left[lkey] == right[rkey]`: a nested loop, left-major — the order a
/// merge join emits when both inputs are sorted on their keys.
pub fn expected_join(
    left: &[Vec<Value>],
    lkey: usize,
    right: &[Vec<Value>],
    rkey: usize,
) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for l in left {
        for r in right.iter().filter(|r| r[rkey] == l[lkey]) {
            out.push(l.iter().chain(r).cloned().collect());
        }
    }
    out
}
