//! The flash-resident search-result database (§5.2.2, Figure 13).
//!
//! PocketSearch stores search results in a custom database of plain files
//! on NAND flash. Each result is stored **once** — §5.2.1 found only ~60%
//! of cached results unique, so storing per-query copies would waste ~8×
//! the space — and results are spread across `N` files by `hash(url) mod
//! N` to balance two costs that pull in opposite directions (Figure 12):
//!
//! * **few files** → long headers that take many page reads and parse
//!   cycles per retrieval;
//! * **many files** → every file's tail block is half wasted
//!   (fragmentation), and filesystem metadata pressure grows.
//!
//! The paper lands on 32 files as the best tradeoff; [`DbConfig::default`]
//! does the same, and the `file_count_sweep` bench regenerates the curve.
//!
//! Each file is laid out as `[capacity | count | (hash, offset) ... | records]`
//! with a fixed-capacity header region, mirroring Figure 13: the first
//! "line" maps result hashes to byte offsets, and new results are appended
//! to the end while the header is augmented in place.
//!
//! Every read checks what it reads: the header preamble against the
//! in-memory mirror, then the record's bounds, UTF-8, CRC-32 and hash.
//! The record half of that is needed once per write of the flash, not
//! once per read: [`ResultDb::mark_verified`] decodes every record and
//! marks each file that passes with the store's content stamp
//! ([`FlashStore::stamp`](mobsim::flash::FlashStore::stamp)), and
//! [`ResultDb::fetch_time`] skips the record decode only while a file's
//! mark equals the current stamp. Any change to the store redraws the
//! stamp, and any change to a file through the database clears its
//! mark. [`ResultDb::get`] always decodes.
//!
//! # Example
//!
//! ```
//! use flashdb::{DbConfig, ResultDb, ResultRecord};
//! use mobsim::flash::{FlashModel, FlashStore};
//!
//! let mut flash = FlashStore::new(FlashModel::default());
//! let record = ResultRecord::new(7, "Title", "example.com", "A snippet.");
//! let mut db = ResultDb::build([record.clone()], DbConfig::default(), &mut flash);
//! let (fetched, time) = db.get(7, &flash).expect("record is stored");
//! assert_eq!(fetched, record);
//! assert!(time.as_millis_f64() < 20.0);
//! ```

pub mod allocator;
pub mod db;
pub mod patch;
pub mod record;

pub use allocator::{DbWearReport, FileWear, RotationReport};
pub use db::{DbConfig, DbError, DbStats, ResultDb};
pub use patch::{DbPatch, PatchReport};
pub use record::{RecordView, ResultRecord};
