//! The field table: one declaration per accounted struct.
//!
//! The paper's method is a fixed list of counted events (§3.2) turned into
//! one breakdown (§4.1). [`crate::fields!`] declares such a list once — the
//! struct and its [`Field`] impl — and every consumer derives from it:
//! `merge`, `delta`, `scaled`, `to_json`, and, through a [`Keys`] table,
//! "write me onto a span under this prefix" and "read me back from a metric
//! map". A new counter is one line in the declaration plus the increment.

use std::marker::PhantomData;

use crate::json::Json;

/// A leaf counter (`u64`, `f64`) or a nested table declared by
/// [`crate::fields!`].
pub trait Field: Copy + Default + PartialEq {
    /// `self += other`, leaf by leaf.
    fn merge(&mut self, other: &Self);
    /// `self - base`, leaf by leaf.
    fn delta(&self, base: &Self) -> Self;
    /// Rebuild with every leaf, in declaration order, passed through `f`.
    fn map(&self, f: &mut impl FnMut(f64) -> f64) -> Self;
    /// Push every leaf name under `path`; a nested table's read `outer.inner`.
    fn names(path: &str, out: &mut Vec<String>);
    /// Leaves as numbers, nested tables as objects, keyed by field name.
    fn to_json(&self) -> Json;

    /// Every leaf value in [`Field::names`] order.
    fn values(&self, mut f: impl FnMut(f64)) {
        self.map(&mut |v| {
            f(v);
            v
        });
    }

    /// Build from one value per leaf, pulled in [`Field::names`] order.
    fn from_values(mut next: impl FnMut() -> f64) -> Self {
        Self::default().map(&mut |_| next())
    }

    /// Every leaf multiplied by `k`.
    fn scaled(&self, k: f64) -> Self {
        self.map(&mut |v| v * k)
    }
}

macro_rules! leaf {
    ($ty:ty) => {
        impl Field for $ty {
            fn merge(&mut self, other: &Self) {
                *self += *other;
            }
            fn delta(&self, base: &Self) -> Self {
                *self - *base
            }
            fn map(&self, f: &mut impl FnMut(f64) -> f64) -> Self {
                f(*self as f64) as $ty
            }
            fn names(path: &str, out: &mut Vec<String>) {
                out.push(path.to_string());
            }
            fn to_json(&self) -> Json {
                (*self).into()
            }
        }
    };
}
leaf!(u64);
leaf!(f64);

/// `outer` + `.` + `field`, or `field` alone at the top of a table.
pub fn join(path: &str, field: &str) -> String {
    if path.is_empty() || path.ends_with('.') {
        format!("{path}{field}")
    } else {
        format!("{path}.{field}")
    }
}

/// Put a derived total after the last leaf of a table's JSON object (before
/// its first nested table) — the position every `results/*.json` has it in.
pub fn with_total(obj: Json, key: &str, total: f64) -> Json {
    let Json::Obj(mut fields) = obj else {
        panic!("with_total on a non-object");
    };
    let at = fields
        .iter()
        .position(|(_, v)| matches!(v, Json::Obj(_)))
        .unwrap_or(fields.len());
    fields.insert(at, (key.to_string(), total.into()));
    Json::Obj(fields)
}

/// Declare an accounted struct and its field table in one place. The struct
/// keeps its attributes, docs and public fields; it gains [`Field`] plus
/// inherent `merge`, `delta` and `to_json`. `total "key" = method;` adds a
/// derived total to the JSON object.
#[macro_export]
macro_rules! fields {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty ),* $(,)?
        }
        $( total $tkey:literal = $tfn:ident; )?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty ),*
        }

        impl $crate::Field for $name {
            fn merge(&mut self, other: &Self) {
                $( $crate::Field::merge(&mut self.$field, &other.$field); )*
            }
            fn delta(&self, base: &Self) -> Self {
                $name { $( $field: $crate::Field::delta(&self.$field, &base.$field) ),* }
            }
            fn map(&self, f: &mut impl FnMut(f64) -> f64) -> Self {
                $name { $( $field: $crate::Field::map(&self.$field, f) ),* }
            }
            fn names(path: &str, out: &mut Vec<String>) {
                $( <$ty as $crate::Field>::names(
                    &$crate::fields::join(path, stringify!($field)), out); )*
            }
            fn to_json(&self) -> $crate::Json {
                let obj = $crate::Json::obj()
                    $( .set(stringify!($field), $crate::Field::to_json(&self.$field)) )*;
                $( let obj = $crate::fields::with_total(obj, $tkey, self.$tfn()); )?
                obj
            }
        }

        impl $name {
            /// Element-wise accumulate (merging per-worker accounting).
            pub fn merge(&mut self, other: &$name) {
                $crate::Field::merge(self, other)
            }

            /// Element-wise `self - base`: what happened since `base` was
            /// snapshotted.
            pub fn delta(&self, base: &$name) -> $name {
                $crate::Field::delta(self, base)
            }

            /// Std-only JSON emission shared by fuzz `--json`, the bench
            /// bins and the tracer. Keys are the field names.
            pub fn to_json(&self) -> $crate::Json {
                $crate::Field::to_json(self)
            }
        }
    };
}

/// The metric-map keys of one table under one naming rule
/// (`prefix` + leaf name + `suffix`), built once and index-aligned with
/// [`Field::values`] — so writing a table onto a span allocates nothing.
#[derive(Debug)]
pub struct Keys<T> {
    keys: Vec<String>,
    table: PhantomData<fn() -> T>,
}

impl<T: Field> Keys<T> {
    pub fn new(prefix: &str, suffix: &str) -> Keys<T> {
        let mut keys = Vec::new();
        T::names(prefix, &mut keys);
        for k in &mut keys {
            k.push_str(suffix);
        }
        Keys {
            keys,
            table: PhantomData,
        }
    }

    /// The keys, in [`Field::names`] order.
    pub fn names(&self) -> &[String] {
        &self.keys
    }

    /// Hand every `(key, leaf value)` of `table` to `put`.
    pub fn write(&self, table: &T, mut put: impl FnMut(&str, f64)) {
        let mut keys = self.keys.iter();
        table.values(|v| put(keys.next().expect("one key per leaf"), v));
    }

    /// Rebuild a table from whatever `get` holds under each key.
    pub fn read(&self, get: impl Fn(&str) -> f64) -> T {
        let mut keys = self.keys.iter();
        T::from_values(|| get(keys.next().expect("one key per leaf")))
    }
}
