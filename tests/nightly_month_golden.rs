//! A golden §5.4 month: one test-scale PocketSearch device serves and
//! clicks part of each replay day, then runs the nightly cycle (mine the
//! sliding 28-day window, build the update, apply the table and the
//! database patch, repair) 28 times — the loop `pipeline-bench`'s
//! device-month runs at full scale. Everything the cycle decides folds
//! into one `u64`: every night's `UpdateCycleReport`, the final hash
//! table's records, every database file's record hashes and the flash
//! erase count. A change to mining, the update merge, the table or the
//! database that moves any simulated outcome moves the digest.

use pocket_cloudlets::core::hashtable::EntryRecord;
use pocket_cloudlets::mobsim::flash::AllocPolicy;
use pocket_cloudlets::mobsim::mix64;
use pocket_cloudlets::pocketsearch::engine::{EngineError, UpdateCycleReport};
use pocket_cloudlets::pocketsearch::experiment::sliding_window_server;
use pocket_cloudlets::prelude::*;

/// Queries served and clicked per replay day, in log order.
const SERVES_PER_DAY: usize = 150;

/// The digest of the month below.
const GOLDEN_MONTH_DIGEST: u64 = 0xbf76_b7ca_e153_02e5;

#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 = mix64(self.0 ^ w);
    }

    fn report(&mut self, r: &UpdateCycleReport) {
        self.word(r.upload_bytes as u64);
        self.word(r.download_bytes as u64);
        self.word(r.patch.added as u64);
        self.word(r.patch.removed as u64);
        self.word(r.patch.flash_time.as_micros());
    }

    fn record(&mut self, r: &EntryRecord) {
        self.word(r.query_hash);
        self.word(u64::from(r.salt));
        self.word(r.slots.iter().flatten().count() as u64);
        for s in r.slots.iter().flatten() {
            self.word(s.result_hash);
            self.word(u64::from(s.score.to_bits()));
            self.word(u64::from(s.accessed));
        }
    }
}

/// The month's digest, or the error of the first night whose update
/// failed (none does: the store does not wear).
fn month_digest() -> Result<u64, EngineError> {
    let inputs = StudyInputs::build(GeneratorConfig::test_scale(), 2011, 0.55);
    let catalog = &inputs.catalog;
    let mut engine = inputs.engine(PocketSearchConfig::default());
    engine
        .device_mut()
        .flash_mut()
        .set_alloc_policy(AllocPolicy::LeastWorn { spares: 16 });
    let mut digest = Digest::default();
    let (mut nights, mut added, mut removed) = (0, 0, 0);
    for day in 0..inputs.replay_month.days() {
        let today = inputs
            .replay_month
            .iter()
            .filter(|e| e.time.day == day)
            .take(SERVES_PER_DAY);
        for entry in today {
            let query = catalog.query_hash(entry.query);
            let served = engine.serve(query);
            digest.word(u64::from(served.hit));
            engine.click(query, catalog.result_hash(entry.result), || {
                catalog.record(entry.result)
            });
        }
        let server = sliding_window_server(&inputs, day, RankingPolicy::default());
        let report = engine.nightly_update(&server, catalog)?;
        digest.report(&report);
        added += report.patch.added;
        removed += report.patch.removed;
        engine.recover_corrupted(catalog);
        nights += 1;
    }
    assert_eq!(nights, 28);
    let records = engine.cache().table().to_records();
    // The month exercises every path the digest is meant to guard:
    // patches that add and remove records, and accessed flags that
    // survive the prune.
    assert!(added > 0 && removed > 0, "added {added}, removed {removed}");
    assert!(records
        .iter()
        .any(|r| r.slots.iter().flatten().any(|s| s.accessed)));
    digest.word(records.len() as u64);
    for r in &records {
        digest.record(r);
    }
    let db = engine.db();
    for file in 0..db.config().n_files {
        let hashes = db.file_hashes(file);
        digest.word(hashes.len() as u64);
        for h in hashes {
            digest.word(h);
        }
    }
    digest.word(engine.device().flash().wear_summary().total_erases);
    Ok(digest.0)
}

#[test]
fn the_nightly_month_is_pinned() {
    let digest = month_digest();
    assert_eq!(digest, Ok(GOLDEN_MONTH_DIGEST), "digest was {digest:#x?}");
}
