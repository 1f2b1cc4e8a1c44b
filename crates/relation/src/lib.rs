//! In-memory relational substrate for `catmark`.
//!
//! The watermarking algorithms of *Proving Ownership over Categorical
//! Data* (Sion, ICDE 2004) operate on relations of shape `(K, A, B)` — a
//! primary key plus categorical attributes. The paper ran against a
//! Wal-Mart sales database behind JDBC; this crate is the stand-in
//! substrate: a small, fully-tested relational engine providing exactly
//! the operations the watermarking pipeline and the adversary model
//! need:
//!
//! * typed values and schemas with primary-key designation ([`value`],
//!   [`schema`]),
//! * a primary-key-indexed table with in-place attribute updates, read
//!   through typed column views ([`relation`], [`mod@column`]),
//! * categorical value domains with stable, sortable indexing
//!   ([`domain`]) — the `{a_1 … a_nA}` sets of the paper,
//! * sampling / projection / sorting / shuffling / union operators
//!   ([`ops`]) — the raw material of attacks A1/A2/A4/A5,
//! * occurrence-frequency statistics ([`stats`]) — the
//!   frequency-transform channel of Section 4.2,
//! * segmented spill-to-disk storage for relations beyond RAM
//!   ([`segment`]) — fixed-size, self-contained columnar segments with
//!   segment-local dictionaries (a segment's blob depends only on its
//!   rows), streamed under a resident budget through range-addressed
//!   byte stores ([`spill`]),
//! * content-addressed versioned storage ([`versioned`]) — SHA-256
//!   keyed blob piles with `CMKVER1` manifest commit logs (ordered blob
//!   hashes, no dictionary state), so relation versions share
//!   unchanged segment blobs and any historical version reopens for
//!   detection,
//! * delta-encoded marked copies ([`delta`]) — ordered patch records
//!   (plus dictionary extensions) turning a shared base into any
//!   recipient's fingerprinted copy without materializing a clone,
//! * CSV import/export for interoperability ([`csv`]).
//!
//! # Example
//!
//! ```
//! use catmark_relation::{Relation, Schema, AttrType, Value};
//!
//! let schema = Schema::builder()
//!     .key_attr("visit_nbr", AttrType::Integer)
//!     .categorical_attr("item_nbr", AttrType::Integer)
//!     .build()
//!     .unwrap();
//! let mut rel = Relation::new(schema);
//! rel.push(vec![Value::Int(1), Value::Int(42)]).unwrap();
//! rel.push(vec![Value::Int(2), Value::Int(17)]).unwrap();
//! assert_eq!(rel.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod csv;
pub mod delta;
pub mod domain;
pub mod error;
pub mod ops;
pub mod relation;
pub mod schema;
pub mod segment;
pub mod spill;
pub mod stats;
pub mod value;
pub mod versioned;

pub use column::{Column, ColumnMut, ColumnView, Dictionary, TextColumnMut};
pub use delta::{MarkDelta, MarkDeltaBuilder};
pub use domain::CategoricalDomain;
pub use error::RelationError;
pub use relation::Relation;
pub use schema::{AttrDef, AttrType, Schema, SchemaBuilder};
pub use segment::{CacheStats, SegmentedRelation, SegmentedRelationBuilder};
pub use spill::{FileStore, MemStore, SegmentStore, SpillHandle};
pub use stats::FrequencyHistogram;
pub use value::{CanonicalInt, CanonicalText, Value};
pub use versioned::{
    hash_hex, BlobHash, ContentStore, GcStats, SegmentRef, VersionLog, VersionManifest,
};
