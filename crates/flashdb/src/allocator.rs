//! Wear-aware block placement for the result database.
//!
//! The flash substrate owns physical block allocation (see
//! [`mobsim::flash::AllocPolicy`]): under `LeastWorn` every rewrite lands
//! on the least-erased free block. This module adds the database-level
//! half of wear management: per-file wear telemetry (which `psdb-*` files
//! sit on tired blocks) and *rotation* — proactively rewriting a file
//! whose backing blocks are past a cycle budget so the allocator can
//! migrate it onto healthier media before bits start sticking.

use std::collections::BTreeMap;

use mobsim::flash::{FlashStore, WearSummary};
use mobsim::time::SimDuration;

use crate::db::{DbError, ResultDb};

/// Wear telemetry for one database file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FileWear {
    /// Database file index.
    pub file: usize,
    /// Physical blocks currently backing the file.
    pub blocks: usize,
    /// Highest erase count among those blocks.
    pub max_erase_cycles: u64,
    /// Stuck bits across those blocks (0 unless wear injection ran).
    pub stuck_bits: usize,
}

/// Wear telemetry for the whole database plus its flash store.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DbWearReport {
    /// Per-file wear, indexed by database file.
    pub files: Vec<FileWear>,
    /// Store-wide aggregate (includes blocks not owned by the database).
    pub store: WearSummary,
}

impl DbWearReport {
    /// Files whose worst block exceeds `max_cycles` erases.
    pub fn files_past(&self, max_cycles: u64) -> impl Iterator<Item = &FileWear> {
        self.files
            .iter()
            .filter(move |f| f.max_erase_cycles > max_cycles)
    }
}

/// Collects per-file and store-wide wear telemetry.
pub fn wear_report(db: &ResultDb, flash: &FlashStore) -> DbWearReport {
    let per_block: BTreeMap<u64, (u64, usize)> = flash
        .block_wear()
        .map(|(id, cycles, stuck)| (id, (cycles, stuck)))
        .collect();
    let files = (0..db.config().n_files)
        .map(|i| {
            let mut wear = FileWear {
                file: i,
                ..FileWear::default()
            };
            let ids = flash.file_block_ids(db.file_id(i)).unwrap_or(&[]);
            wear.blocks = ids.len();
            for id in ids {
                let (cycles, stuck) = per_block.get(id).copied().unwrap_or((0, 0));
                wear.max_erase_cycles = wear.max_erase_cycles.max(cycles);
                wear.stuck_bits += stuck;
            }
            wear
        })
        .collect();
    DbWearReport {
        files,
        store: flash.wear_summary(),
    }
}

/// Outcome of a rotation pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RotationReport {
    /// Files that were rewritten onto fresh blocks.
    pub rotated: Vec<usize>,
    /// Simulated flash time the rewrites took.
    pub flash_time: SimDuration,
}

// api-ok: ROADMAP item 4's power-cut sweep covers it; it is the §5.4
// wear-levelling rewrite that LeastWorn allocation exists for.
/// Rewrites every database file whose worst backing block has more than
/// `max_cycles` erases, letting the allocation policy place the new copy.
/// Under [`mobsim::flash::AllocPolicy::LeastWorn`] this migrates hot
/// files off tired blocks; under the naive lowest-id policy it is a
/// no-op in effect (the same blocks are reused) but still safe.
///
/// # Errors
///
/// Propagates flash and decode failures from the rewrite; a file whose
/// old bytes no longer decode needs
/// [`ResultDb::restore_file`] with authoritative records instead.
pub fn rotate_worn_files(
    db: &mut ResultDb,
    flash: &mut FlashStore,
    max_cycles: u64,
) -> Result<RotationReport, DbError> {
    let worn: Vec<usize> = wear_report(db, flash)
        .files_past(max_cycles)
        .map(|f| f.file)
        .collect();
    let mut report = RotationReport::default();
    for file in worn {
        report.flash_time += db.rewrite_file(file, flash)?;
        report.rotated.push(file);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use crate::record::ResultRecord;
    use mobsim::flash::{AllocPolicy, FileId, FlashError, FlashModel};

    fn record(hash: u64) -> ResultRecord {
        ResultRecord::new(hash, format!("T{hash}"), format!("u{hash}.com"), "s")
    }

    fn build(alloc: AllocPolicy) -> (ResultDb, FlashStore) {
        let model = FlashModel {
            alloc,
            ..FlashModel::default()
        };
        let mut flash = FlashStore::new(model);
        let db = ResultDb::build((0..12).map(record), DbConfig::with_files(4), &mut flash);
        (db, flash)
    }

    #[test]
    fn wear_report_tracks_per_file_blocks_and_cycles() {
        let (mut db, mut flash) = build(AllocPolicy::LowestId);
        let report = wear_report(&db, &flash);
        assert_eq!(report.files.len(), 4);
        assert!(report.files.iter().all(|f| f.blocks >= 1));
        assert!(report.store.total_erases >= 4, "one erase per built file");

        // Hammer file 0 with inserts + rewrites; its wear rises.
        for i in 0..20u64 {
            db.insert(record(i * 4 + 400), &mut flash).unwrap();
        }
        let after = wear_report(&db, &flash);
        assert!(after.files[0].max_erase_cycles > report.files[0].max_erase_cycles);
        assert_eq!(after.files_past(u64::MAX).count(), 0);
    }

    #[test]
    fn rotation_migrates_files_off_worn_blocks_under_least_worn() {
        let (mut db, mut flash) = build(AllocPolicy::LeastWorn { spares: 8 });
        let file = db.file_id(0);
        let old_blocks: Vec<u64> = flash.file_block_ids(file).unwrap().to_vec();
        for &b in &old_blocks {
            flash.age_block(b, 50);
        }

        let report = rotate_worn_files(&mut db, &mut flash, 25).unwrap();
        assert_eq!(report.rotated, vec![0]);
        assert!(report.flash_time > SimDuration::ZERO);
        let new_blocks = flash.file_block_ids(file).unwrap();
        assert!(
            new_blocks.iter().all(|b| !old_blocks.contains(b)),
            "least-worn allocation moved the file: {old_blocks:?} -> {new_blocks:?}"
        );
        db.verify(&flash).unwrap();
        let (r, _) = db.get(0, &flash).unwrap();
        assert_eq!(r, record(0));

        // Nothing else is past the budget; a second pass is a no-op.
        let again = rotate_worn_files(&mut db, &mut flash, 25).unwrap();
        assert!(again.rotated.is_empty());
    }

    #[test]
    fn rotation_below_threshold_is_a_no_op() {
        let (mut db, mut flash) = build(AllocPolicy::LowestId);
        let report = rotate_worn_files(&mut db, &mut flash, 1_000).unwrap();
        assert_eq!(report, RotationReport::default());
    }

    #[test]
    fn file_ids_survive_rewrite_restore_and_rotation() {
        let (mut db, mut flash) = build(AllocPolicy::LeastWorn { spares: 8 });
        let ids: Vec<FileId> = (0..4).map(|i| db.file_id(i)).collect();
        let same_handles = |db: &ResultDb, flash: &FlashStore| {
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(db.file_id(i), id);
                assert_eq!(flash.file_name(id), format!("psdb-{i:03}"));
            }
            assert_eq!(flash.files().map(|(id, _)| id).collect::<Vec<_>>(), ids);
        };

        db.rewrite_file(1, &mut flash).unwrap();
        same_handles(&db, &flash);
        db.restore_file(2, (0..12).map(record), &mut flash);
        same_handles(&db, &flash);
        for b in flash.file_block_ids(ids[0]).unwrap().to_vec() {
            flash.age_block(b, 50);
        }
        assert_eq!(
            rotate_worn_files(&mut db, &mut flash, 25).unwrap().rotated,
            vec![0]
        );
        same_handles(&db, &flash);
        for h in 0..12 {
            assert_eq!(db.get(h, &flash).unwrap().0, record(h));
        }

        // A removed file's handle names it and reads nothing else.
        assert!(flash.remove(ids[3]));
        assert_eq!(
            db.get(3, &flash),
            Err(DbError::Flash(FlashError::FileNotFound(
                "psdb-003".to_owned()
            )))
        );
        assert_eq!(db.get(2, &flash).unwrap().0, record(2));
        db.restore_file(3, (0..12).map(record), &mut flash);
        assert_eq!(db.file_id(3), ids[3]);
        assert_eq!(db.get(3, &flash).unwrap().0, record(3));
    }
}
