//! Lightweight, fixed-width database compression (§2.2.1 of the paper).
//!
//! Three schemes are implemented exactly as the paper describes — **Bit
//! packing** (null suppression), **Dictionary** (with bit-packed codes), and
//! **FOR / FOR-delta** (frame of reference with per-page base values) — plus
//! the trivial raw codec and a byte-level text packer. All codes are fixed
//! width, so values are addressable by position; only FOR-delta sacrifices
//! random access (a tradeoff Figure 9 of the paper measures).
//!
//! The [`advisor`] module is the format half of the "compression advisor" box
//! of the paper's Figure 1: given a sample of column values it lists the
//! schemes that fit and their widths (`rodb_core::design` prices them).

pub mod advisor;
pub mod bits;
pub mod codec;
pub mod dict;
pub mod simd;

pub use advisor::{candidates, compression_for};
pub use bits::{bits_for, BitReader, BitWriter, BLOCK};
pub use codec::{
    Codec, CodecKind, ColumnCompression, EncodedValues, Encoder, Field, PageValues, SeqValues,
};
pub use dict::Dictionary;
pub use simd::{active_tier, KernelTier};
