//! One value encoding behind every pinned digest: the fuzzer's replay table
//! and the modeled and executor golden tables.
//!
//! A [`Digest`] is FNV-1a over the bytes of the facts written into it, each
//! in a fixed binary form: integers as little-endian `u64`, `f64` by its
//! bits, sequences behind their length. It never hashes `Debug` text, so a
//! digest moves when a pinned value moves and not when a struct gains,
//! loses or renames a field nobody pinned.

use rodb_engine::{Predicate, RunReport};
use rodb_trace::Field;
use rodb_types::{DataType, Value};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a accumulator with one writer per kind of fact.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(OFFSET)
    }
}

impl Digest {
    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    pub fn usize(&mut self, v: usize) -> &mut Digest {
        self.u64(v as u64)
    }

    pub fn bool(&mut self, v: bool) -> &mut Digest {
        self.u64(v as u64)
    }

    pub fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }

    /// Length-prefixed bytes.
    pub fn str(&mut self, s: &str) -> &mut Digest {
        self.usize(s.len()).bytes(s.as_bytes())
    }

    /// `0` for `None`, `1` then the value for `Some`.
    pub fn opt(&mut self, v: Option<u64>) -> &mut Digest {
        match v {
            None => self.u64(0),
            Some(v) => self.u64(1).u64(v),
        }
    }

    /// A length-prefixed list of integers.
    pub fn u64s(&mut self, vs: impl ExactSizeIterator<Item = u64>) -> &mut Digest {
        self.usize(vs.len());
        for v in vs {
            self.u64(v);
        }
        self
    }

    pub fn dtype(&mut self, t: DataType) -> &mut Digest {
        match t {
            DataType::Int => self.u64(0),
            DataType::Long => self.u64(1),
            DataType::Text(w) => self.u64(2).usize(w),
        }
    }

    pub fn value(&mut self, v: &Value) -> &mut Digest {
        match v {
            Value::Int(i) => self.u64(0).u64(*i as i64 as u64),
            Value::Long(i) => self.u64(1).u64(*i as u64),
            Value::Text(b) => self.u64(2).usize(b.len()).bytes(b),
        }
    }

    pub fn rows(&mut self, rows: &[Vec<Value>]) -> &mut Digest {
        self.usize(rows.len());
        for row in rows {
            self.usize(row.len());
            for v in row {
                self.value(v);
            }
        }
        self
    }

    pub fn predicates(&mut self, preds: &[Predicate]) -> &mut Digest {
        self.usize(preds.len());
        for p in preds {
            self.usize(p.col).u64(p.op as u64).value(&p.literal);
        }
        self
    }

    /// Every non-zero leaf of an accounted table, by its name under
    /// `prefix`: a leaf that reads zero in every pinned cell can be deleted
    /// without moving a digest.
    pub fn fields<T: Field>(&mut self, prefix: &str, table: &T) -> &mut Digest {
        let mut names = Vec::new();
        T::names(prefix, &mut names);
        let mut names = names.into_iter();
        table.values(|v| {
            let name = names.next().expect("one name per leaf");
            if v != 0.0 {
                self.str(&name).f64(v);
            }
        });
        self
    }

    /// A run's row and block counts, its elapsed time, and the non-zero
    /// leaves of its I/O and CPU tables.
    pub fn report(&mut self, r: &RunReport) -> &mut Digest {
        self.u64(r.rows).u64(r.blocks).f64(r.elapsed_s);
        self.fields("io", &r.io).fields("cpu", &r.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_io::{CacheStats, IoStats};

    fn of(f: impl FnOnce(&mut Digest)) -> u64 {
        let mut d = Digest::default();
        f(&mut d);
        d.finish()
    }

    #[test]
    fn zero_leaves_are_invisible_and_non_zero_ones_are_named() {
        let io = IoStats {
            seeks: 3,
            ..IoStats::default()
        };
        let bare = of(|d| {
            d.str("io.seeks").f64(3.0);
        });
        assert_eq!(
            of(|d| {
                d.fields("io", &io);
            }),
            bare
        );
        let hit = IoStats {
            cache: CacheStats {
                hits: 1,
                ..CacheStats::default()
            },
            ..io
        };
        assert_ne!(
            of(|d| {
                d.fields("io", &hit);
            }),
            bare
        );
    }
}
