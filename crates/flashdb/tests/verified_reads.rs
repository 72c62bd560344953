//! Stamp-verified reads against an always-decode oracle.
//!
//! [`ResultDb::mark_verified`] lets [`ResultDb::fetch_time`] skip the
//! record decode of a file whose records all passed it at the store's
//! current stamp. That is exact only if every change to the bytes a
//! read returns moves the stamp or clears the mark. This property runs
//! random interleavings of database writes, raw flash corruption, wear,
//! file loss and marking passes on a subject database, and the same
//! history minus the marking passes on an oracle whose fetches always
//! decode; after every step each hash must fetch to the same time or
//! the same error on both.

use flashdb::{DbConfig, DbError, ResultDb, ResultRecord};
use mobsim::flash::{FlashModel, FlashStore, WearModel};
use mobsim::time::SimDuration;
use proptest::prelude::*;

/// Hashes the operations draw from; about half are stored at the start.
const HASHES: u64 = 40;
/// Database files: few, so each holds several records.
const FILES: usize = 4;

fn record(hash: u64) -> ResultRecord {
    ResultRecord::new(
        hash,
        format!("Title {hash}"),
        format!("site{hash}.example"),
        "s".repeat(300 + (hash as usize % 7) * 40),
    )
}

/// One step of a history.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    /// Rebuilds a file from authoritative copies of the hashes it holds.
    Restore(usize),
    Rewrite(usize),
    /// Raw erase-and-write of one byte at a position in the file;
    /// `header` aims at its first bytes, where the preamble lives.
    Overwrite {
        file: usize,
        at: u64,
        header: bool,
        byte: u8,
    },
    /// Raw NAND program (bitwise AND) of one byte.
    Program {
        file: usize,
        at: u64,
        header: bool,
        mask: u8,
    },
    /// Erase cycles on one of a file's blocks, past the wear threshold.
    Age {
        file: usize,
        block: u64,
        cycles: u64,
    },
    /// The flash file behind a database file disappears.
    RemoveFile(usize),
    /// The marking pass (subject only).
    Mark,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..HASHES).prop_map(Op::Insert),
        2 => (0..HASHES).prop_map(Op::Remove),
        1 => (0..FILES).prop_map(Op::Restore),
        1 => (0..FILES).prop_map(Op::Rewrite),
        2 => (0..FILES, any::<u64>(), any::<bool>(), any::<u8>())
            .prop_map(|(file, at, header, byte)| Op::Overwrite { file, at, header, byte }),
        2 => (0..FILES, any::<u64>(), any::<bool>(), any::<u8>())
            .prop_map(|(file, at, header, mask)| Op::Program { file, at, header, mask }),
        2 => (0..FILES, any::<u64>(), 1u64..24)
            .prop_map(|(file, block, cycles)| Op::Age { file, block, cycles }),
        1 => (0..FILES).prop_map(Op::RemoveFile),
        4 => Just(Op::Mark),
    ]
}

/// A byte position in file `file`: within the first 16 bytes when
/// `header`, anywhere otherwise. `None` for a missing or empty file.
fn position(db: &ResultDb, flash: &FlashStore, file: usize, at: u64, header: bool) -> Option<u64> {
    let size = flash.file_size(db.file_id(file)).filter(|&s| s > 0)?;
    Some(at % if header { size.min(16) } else { size })
}

/// Applies `op` to one database and its store. Failures are part of
/// the history (a write to a lost file fails on both sides alike).
fn apply(op: &Op, db: &mut ResultDb, flash: &mut FlashStore) {
    match *op {
        Op::Insert(hash) => {
            let _ = db.insert(record(hash), flash);
        }
        Op::Remove(hash) => {
            let _ = db.remove(hash, flash);
        }
        Op::Restore(file) => {
            let records: Vec<ResultRecord> = db.file_hashes(file).into_iter().map(record).collect();
            db.restore_file(file, records, flash);
        }
        Op::Rewrite(file) => {
            let _ = db.rewrite_file(file, flash);
        }
        Op::Overwrite {
            file,
            at,
            header,
            byte,
        } => {
            if let Some(at) = position(db, flash, file, at, header) {
                // In range by construction, so this cannot fail.
                let _ = flash.overwrite(db.file_id(file), at, &[byte]);
            }
        }
        Op::Program {
            file,
            at,
            header,
            mask,
        } => {
            if let Some(at) = position(db, flash, file, at, header) {
                let _ = flash.program(db.file_id(file), at, &[mask]);
            }
        }
        Op::Age {
            file,
            block,
            cycles,
        } => {
            let blocks = flash.file_block_ids(db.file_id(file)).unwrap_or(&[]);
            if let Some(&block) = blocks.get((block % blocks.len().max(1) as u64) as usize) {
                flash.age_block(block, cycles);
            }
        }
        Op::RemoveFile(file) => {
            flash.remove(db.file_id(file));
        }
        Op::Mark => {
            db.mark_verified(flash);
        }
    }
}

fn fetch_all(db: &ResultDb, flash: &FlashStore) -> Vec<Result<SimDuration, DbError>> {
    (0..HASHES).map(|h| db.fetch_time([h], flash)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stamp_verified_fetches_match_an_always_decode_oracle(
        ops in proptest::collection::vec(op(), 1..32),
        wear_seed in any::<u64>(),
    ) {
        let model = FlashModel {
            wear: WearModel {
                enabled: true,
                safe_erase_cycles: 6,
                bit_failure_every: 1,
                seed: wear_seed,
            },
            ..FlashModel::default()
        };
        let mut flash = FlashStore::new(model);
        let mut db = ResultDb::build(
            (0..HASHES).step_by(2).map(record),
            DbConfig::with_files(FILES),
            &mut flash,
        );
        let (mut oracle, mut oracle_flash) = (db.clone(), flash.clone());
        prop_assert_eq!(db.mark_verified(&flash), FILES, "a fresh database verifies");

        for (step, op) in ops.iter().enumerate() {
            apply(op, &mut db, &mut flash);
            if !matches!(op, Op::Mark) {
                apply(op, &mut oracle, &mut oracle_flash);
            }
            prop_assert!(db == oracle && flash == oracle_flash, "step {step} {op:?}: histories diverged");
            prop_assert_eq!(
                fetch_all(&db, &flash),
                fetch_all(&oracle, &oracle_flash),
                "step {} {:?}: marked fetches differ from decoding ones",
                step,
                op
            );
        }
        // The pair fetch of a search hit sums the same way.
        for h in 0..HASHES {
            let pair = [h, (h + 1) % HASHES];
            prop_assert_eq!(db.fetch_time(pair, &flash), oracle.fetch_time(pair, &oracle_flash));
        }
    }
}
