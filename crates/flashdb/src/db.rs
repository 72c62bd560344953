//! The N-file result database over simulated flash.

use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use bytes::{Buf, BufMut, BytesMut};
use mobsim::flash::{FileId, FlashError, FlashStore};
use mobsim::time::SimDuration;
use mobsim::Mix64Hasher;
use serde::{Deserialize, Serialize};

use crate::record::{DecodeError, RecordView, ResultRecord};

/// Bytes of one header index entry: a 64-bit hash and a 32-bit offset.
const HEADER_ENTRY_BYTES: u64 = 12;
/// Bytes of the header preamble: capacity and live count.
const HEADER_PREAMBLE_BYTES: u64 = 8;

/// Database configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DbConfig {
    /// Number of database files results are hashed across.
    pub n_files: usize,
    /// CPU cost of parsing one header entry during retrieval.
    pub header_parse_per_entry: SimDuration,
    /// Minimum header capacity (entries) of a freshly built file.
    pub initial_header_capacity: usize,
}

impl Default for DbConfig {
    /// The paper's choice: 32 files (§5.2.2, Figure 12).
    fn default() -> Self {
        DbConfig {
            n_files: 32,
            header_parse_per_entry: SimDuration::from_micros(10),
            initial_header_capacity: 8,
        }
    }
}

impl DbConfig {
    /// A config with a different file count (for the Figure 12 sweep).
    pub fn with_files(n_files: usize) -> Self {
        DbConfig {
            n_files,
            ..DbConfig::default()
        }
    }

    fn validate(&self) {
        assert!(self.n_files > 0, "the database needs at least one file");
    }

    /// Header slots for a file written with `records` records: room to
    /// double before a rebuild, and never fewer than the configured
    /// minimum.
    fn header_capacity(&self, records: usize) -> usize {
        records
            .saturating_mul(2)
            .next_power_of_two()
            .max(self.initial_header_capacity)
    }
}

/// Errors from database operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// No record with this hash is stored.
    NotFound {
        /// The requested record hash.
        result_hash: u64,
    },
    /// The underlying flash store failed.
    Flash(FlashError),
    /// Stored bytes failed to decode.
    Corrupt(DecodeError),
    /// A file's on-flash header disagrees with the database's in-memory
    /// mirror — the header region was damaged or written by something
    /// else.
    CorruptHeader {
        /// Index of the damaged file.
        file: usize,
        /// What check failed.
        detail: String,
    },
    /// A record's stored bytes ended before its encoded fields did.
    TruncatedRecord {
        /// The record whose bytes were short.
        result_hash: u64,
    },
    /// The bytes at a record's slot decoded to a good record with
    /// another hash: a stale or aliased offset, or a file rewritten
    /// behind the mirror's back.
    WrongRecord {
        /// The hash that was asked for.
        result_hash: u64,
        /// The hash of the record found in its place.
        found: u64,
    },
}

impl DbError {
    /// Whether this error indicates damaged on-flash state (corrupt
    /// bytes, broken headers, lost files) as opposed to a merely absent
    /// record. Damage is the class of failures a cloudlet can repair by
    /// re-fetching the affected file's records over the radio.
    pub fn is_corruption(&self) -> bool {
        !matches!(self, DbError::NotFound { .. })
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::NotFound { result_hash } => {
                write!(f, "no record stored for hash {result_hash:#018x}")
            }
            DbError::Flash(e) => write!(f, "flash error: {e}"),
            DbError::Corrupt(e) => write!(f, "corrupt record: {e}"),
            DbError::CorruptHeader { file, detail } => {
                write!(f, "corrupt header in database file {file}: {detail}")
            }
            DbError::TruncatedRecord { result_hash } => {
                write!(f, "truncated record for hash {result_hash:#018x}")
            }
            DbError::WrongRecord { result_hash, found } => write!(
                f,
                "the slot for hash {result_hash:#018x} holds the record of {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for DbError {}

impl From<DbError> for cloudlet_core::service::CloudletError {
    /// Storage errors surface to the service layer as
    /// [`CloudletError::Storage`](cloudlet_core::service::CloudletError::Storage)
    /// text; this is the orphan-rule-legal home for the conversion.
    fn from(e: DbError) -> Self {
        cloudlet_core::service::CloudletError::Storage {
            detail: e.to_string(),
        }
    }
}

impl From<FlashError> for DbError {
    fn from(e: FlashError) -> Self {
        DbError::Flash(e)
    }
}

impl From<DecodeError> for DbError {
    fn from(e: DecodeError) -> Self {
        DbError::Corrupt(e)
    }
}

/// Space accounting for the database (feeds Figures 8 and 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DbStats {
    /// Number of database files.
    pub files: usize,
    /// Live records stored.
    pub records: usize,
    /// Logical bytes across all files (headers + data).
    pub logical_bytes: u64,
    /// Block-rounded bytes the files occupy on flash.
    pub allocated_bytes: u64,
    /// Bytes lost to block rounding.
    pub fragmentation_bytes: u64,
    /// Dead record bytes awaiting compaction.
    pub dead_bytes: u64,
}

/// A file's live entries: hash → (offset, encoded length). The keys
/// are result hashes that reach the database only from its own build
/// and from the update server, so [`Mix64Hasher`] replaces SipHash on a
/// path probed twice per search hit. Its iteration order is arbitrary,
/// so every pass that writes or returns entries in order sorts them
/// first.
type FileIndex = HashMap<u64, (u32, u32), BuildHasherDefault<Mix64Hasher>>;

/// Bytes of a file header with room for `capacity` entries.
fn header_len(capacity: usize) -> u64 {
    HEADER_PREAMBLE_BYTES + capacity as u64 * HEADER_ENTRY_BYTES
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct FileState {
    /// Live entries: hash → (offset, encoded length).
    index: FileIndex,
    /// Header slots available before a rebuild is needed.
    capacity: usize,
    /// Bytes of dead records in the data region.
    dead_bytes: u64,
    /// The flash [stamp](FlashStore::stamp) at which every live record
    /// of this file decoded to its own hash, set by
    /// [`ResultDb::mark_verified`]. Any change to the file clears it.
    verified_at: Option<u64>,
}

/// Two file states are equal when their entries and space are: the
/// verification mark records when the bytes were last checked, and a
/// marked file answers every fetch as an unmarked one does.
impl PartialEq for FileState {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && self.capacity == other.capacity
            && self.dead_bytes == other.dead_bytes
    }
}

impl FileState {
    fn header_bytes(&self) -> u64 {
        header_len(self.capacity)
    }
}

/// The flash-resident result database (Figure 13).
///
/// The struct holds an in-memory mirror of each file's header; the
/// authoritative bytes live in the [`FlashStore`] and every operation
/// charges the flash timing model for what it touches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultDb {
    config: DbConfig,
    files: Vec<FileState>,
    /// Flash handle of each file (named `psdb-NNN`), created once at
    /// build so that no read looks up a name.
    ids: Vec<FileId>,
}

impl ResultDb {
    /// Builds a database from an initial record set, writing every file.
    /// Records may be owned, borrowed, or shared (`Arc<ResultRecord>`) —
    /// anything that borrows as a record serializes without cloning it.
    ///
    /// Records are deduplicated by hash (each result is stored once).
    pub fn build<R: Borrow<ResultRecord>>(
        records: impl IntoIterator<Item = R>,
        config: DbConfig,
        flash: &mut FlashStore,
    ) -> Self {
        config.validate();
        let mut buckets: Vec<Vec<R>> = (0..config.n_files).map(|_| Vec::new()).collect();
        let mut seen = std::collections::HashSet::new();
        for r in records {
            let hash = r.borrow().result_hash;
            if seen.insert(hash) {
                buckets[(hash % config.n_files as u64) as usize].push(r);
            }
        }
        let mut files = Vec::with_capacity(config.n_files);
        let mut ids = Vec::with_capacity(config.n_files);
        for (i, bucket) in buckets.into_iter().enumerate() {
            let capacity = config.header_capacity(bucket.len());
            let (bytes, state) = Self::serialize_file(&bucket, capacity);
            let id = flash.create(&format!("psdb-{i:03}"));
            flash.write_file(id, bytes);
            files.push(state);
            ids.push(id);
        }
        ResultDb { config, files, ids }
    }

    /// The database configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// The file index that stores (or would store) `result_hash` — the
    /// `hash % n_files` placement rule of Figure 13. Exposed so serving
    /// layers can partition files across workers consistently with it.
    pub fn file_index(&self, result_hash: u64) -> usize {
        self.file_for(result_hash)
    }

    /// The flash handle of database file `index`. It stays the file's
    /// handle through every rewrite, restore and rotation.
    ///
    /// # Panics
    ///
    /// Panics when `index >= n_files`.
    pub fn file_id(&self, index: usize) -> FileId {
        assert!(
            index < self.config.n_files,
            "file index {index} out of range ({} files)",
            self.config.n_files
        );
        self.ids[index]
    }

    fn file_for(&self, result_hash: u64) -> usize {
        (result_hash % self.config.n_files as u64) as usize
    }

    /// Hashes of every record the mirror places in file `index`, sorted.
    /// This is the re-fetch manifest when that file is damaged: the
    /// authoritative copies live on the server, keyed by these hashes.
    ///
    /// # Panics
    ///
    /// Panics when `index >= n_files`.
    pub fn file_hashes(&self, index: usize) -> Vec<u64> {
        let mut hashes: Vec<u64> = self.files[index].index.keys().copied().collect();
        hashes.sort_unstable();
        hashes
    }

    /// Rebuilds file `index` from fresh, authoritative record bodies
    /// (e.g. re-fetched over the radio after corruption), replacing
    /// whatever bytes were on flash. Records that do not belong to this
    /// file under the `hash % n_files` rule are ignored. Returns the
    /// simulated flash time spent.
    ///
    /// Unlike [`compact`](Self::compact), this never reads the old file,
    /// so it works even when the old bytes are unreadable; the rewrite
    /// also lands on freshly allocated blocks, which is what lets a
    /// wear-leveling allocator migrate the file off worn media.
    pub fn restore_file<R: Borrow<ResultRecord>>(
        &mut self,
        index: usize,
        records: impl IntoIterator<Item = R>,
        flash: &mut FlashStore,
    ) -> SimDuration {
        let file = self.file_id(index);
        let mut bucket: Vec<R> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for r in records {
            let hash = r.borrow().result_hash;
            if self.file_for(hash) == index && seen.insert(hash) {
                bucket.push(r);
            }
        }
        let capacity = self.config.header_capacity(bucket.len());
        let (bytes, state) = Self::serialize_file(&bucket, capacity);
        let time = flash.write_file(file, bytes);
        self.files[index] = state;
        time
    }

    /// Rewrites file `index` in place from its own live records — a
    /// single-file compaction used to rotate a file off worn blocks.
    ///
    /// # Errors
    ///
    /// Propagates flash and decode failures; a file whose records no
    /// longer decode cannot be rotated and needs
    /// [`restore_file`](Self::restore_file) instead.
    pub fn rewrite_file(
        &mut self,
        index: usize,
        flash: &mut FlashStore,
    ) -> Result<SimDuration, DbError> {
        self.rebuild_file_with(index, None, flash)
    }

    /// The image of a file with header room for `capacity` entries,
    /// holding `records` in order, and the file's mirror.
    fn serialize_file<R: Borrow<ResultRecord>>(
        records: &[R],
        capacity: usize,
    ) -> (Vec<u8>, FileState) {
        let mut out = vec![0; header_len(capacity) as usize];
        let mut entries = Vec::with_capacity(records.len());
        for r in records {
            let r = r.borrow();
            let encoded = r.encode();
            entries.push((r.result_hash, out.len() as u32, encoded.len() as u32));
            out.extend_from_slice(&encoded);
        }
        let state = Self::seal_file(&mut out, capacity, entries);
        (out, state)
    }

    /// Writes the header of a file image whose first
    /// [`header_len`]`(capacity)` bytes are reserved for it and whose
    /// records, listed in `entries` as `(hash, offset, length)`, follow,
    /// and returns the file's mirror.
    fn seal_file(out: &mut [u8], capacity: usize, entries: Vec<(u64, u32, u32)>) -> FileState {
        let mut at = 0;
        let mut put = |bytes: &[u8]| {
            out[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        put(&(capacity as u32).to_le_bytes());
        put(&(entries.len() as u32).to_le_bytes());
        for &(hash, offset, _) in &entries {
            put(&hash.to_le_bytes());
            put(&offset.to_le_bytes());
        }
        FileState {
            index: entries
                .into_iter()
                .map(|(hash, offset, len)| (hash, (offset, len)))
                .collect(),
            capacity,
            ..FileState::default()
        }
    }

    /// Whether a record with this hash is stored.
    pub fn contains(&self, result_hash: u64) -> bool {
        self.files[self.file_for(result_hash)]
            .index
            .contains_key(&result_hash)
    }

    /// Number of live records.
    pub fn record_count(&self) -> usize {
        self.files.iter().map(|f| f.index.len()).sum()
    }

    /// Retrieves a record, charging the full §5.2.2 path: file open,
    /// header page reads, per-entry parse time, and record page reads.
    /// It always decodes the record, marked or not
    /// ([`mark_verified`](Self::mark_verified)): it returns an owned copy.
    ///
    /// # Errors
    ///
    /// As [`fetch_time`](Self::fetch_time).
    pub fn get(
        &self,
        result_hash: u64,
        flash: &FlashStore,
    ) -> Result<(ResultRecord, SimDuration), DbError> {
        let (_, bytes, time) = self.read_record(result_hash, flash)?;
        Ok((Self::check_record(result_hash, &bytes)?.to_owned(), time))
    }

    /// Retrieves several records (e.g. the two results of a hash-table
    /// entry), summing their retrieval times.
    ///
    /// # Errors
    ///
    /// Fails on the first missing or corrupt record.
    pub fn get_many(
        &self,
        hashes: impl IntoIterator<Item = u64>,
        flash: &FlashStore,
    ) -> Result<(Vec<ResultRecord>, SimDuration), DbError> {
        let mut out = Vec::new();
        let mut total = SimDuration::ZERO;
        for h in hashes {
            let (r, t) = self.get(h, flash)?;
            out.push(r);
            total += t;
        }
        Ok((out, total))
    }

    /// The time [`get_many`](Self::get_many) would take to fetch these
    /// records, with every check it makes, but without copying a record
    /// out: each one is checked in place.
    ///
    /// A record of a file that [`mark_verified`](Self::mark_verified)
    /// marked at the store's current [stamp](FlashStore::stamp) skips
    /// only its decode (bounds, UTF-8, CRC-32 and hash): those bytes
    /// already passed it and cannot have changed since. The header read
    /// and its charge, the preamble check, the index lookup and the
    /// record read (its range check and stuck-bit overlay) always run,
    /// so the time and every error are those of an unmarked fetch.
    ///
    /// # Errors
    ///
    /// Fails on the first record that fails: [`DbError::NotFound`] when
    /// no record has its hash; [`DbError::CorruptHeader`] when the
    /// on-flash header preamble disagrees with the in-memory mirror;
    /// [`DbError::TruncatedRecord`] when the record's bytes end early;
    /// [`DbError::WrongRecord`] when they hold a good record with
    /// another hash; flash or decode errors otherwise.
    pub fn fetch_time(
        &self,
        hashes: impl IntoIterator<Item = u64>,
        flash: &FlashStore,
    ) -> Result<SimDuration, DbError> {
        let mut total = SimDuration::ZERO;
        for h in hashes {
            let (file_idx, bytes, time) = self.read_record(h, flash)?;
            if self.files[file_idx].verified_at != Some(flash.stamp()) {
                Self::check_record(h, &bytes)?;
            }
            total += time;
        }
        Ok(total)
    }

    /// Reads the bytes stored for `result_hash` along the §5.2.2 path —
    /// file open, the header (its preamble checked against the mirror),
    /// the index lookup, the record — without decoding them. Returns
    /// the file's index, the bytes, and the simulated time of the read.
    fn read_record<'f>(
        &self,
        result_hash: u64,
        flash: &'f FlashStore,
    ) -> Result<(usize, Cow<'f, [u8]>, SimDuration), DbError> {
        let file_idx = self.file_for(result_hash);
        let state = &self.files[file_idx];
        let file = self.ids[file_idx];

        let mut time = flash.open_cost();

        // Read and parse the header region. The read borrows the stored
        // header and is charged in full; only its preamble is checked.
        let header = flash.read(file, 0, state.header_bytes())?;
        time += header.time;
        time += self.config.header_parse_per_entry * state.index.len() as u64;
        Self::check_preamble(file_idx, &header.data, state)?;

        let &(offset, len) = state
            .index
            .get(&result_hash)
            .ok_or(DbError::NotFound { result_hash })?;

        let record = flash.read(file, u64::from(offset), u64::from(len))?;
        time += record.time;
        Ok((file_idx, record.data, time))
    }

    /// Decodes every live record of every file in full, as a fetch
    /// would, and marks each file whose records all decode to their own
    /// hash as verified at `flash`'s current [stamp](FlashStore::stamp);
    /// a file with any record that fails stays unmarked, so its fetches
    /// keep decoding and fail as before. Returns the number of files
    /// marked.
    ///
    /// The mark lets [`fetch_time`](Self::fetch_time) skip the decode
    /// while the stamp holds, and only then: any change to the store
    /// redraws the stamp, and any change to a file through this
    /// database clears the file's mark. Run it on a database whose
    /// store will be read many times without a write.
    pub fn mark_verified(&mut self, flash: &FlashStore) -> usize {
        let stamp = flash.stamp();
        let mut marked = 0;
        for file_idx in 0..self.files.len() {
            let file = self.ids[file_idx];
            let state = &self.files[file_idx];
            let decodes = state.index.iter().all(|(&hash, &(offset, len))| {
                flash
                    .read(file, u64::from(offset), u64::from(len))
                    .is_ok_and(|record| Self::check_record(hash, &record.data).is_ok())
            });
            self.files[file_idx].verified_at = decodes.then_some(stamp);
            marked += usize::from(decodes);
        }
        marked
    }

    /// Decodes the bytes stored for `result_hash` and checks that they
    /// hold that record.
    fn check_record(result_hash: u64, bytes: &[u8]) -> Result<RecordView<'_>, DbError> {
        match RecordView::decode(bytes) {
            Ok(view) if view.result_hash == result_hash => Ok(view),
            Ok(view) => Err(DbError::WrongRecord {
                result_hash,
                found: view.result_hash,
            }),
            Err(DecodeError::Truncated) => Err(DbError::TruncatedRecord { result_hash }),
            Err(e) => Err(DbError::Corrupt(e)),
        }
    }

    /// Checks a freshly read header preamble against the in-memory
    /// mirror `state`.
    fn check_preamble(file_idx: usize, data: &[u8], state: &FileState) -> Result<(), DbError> {
        let mut buf = data;
        if buf.remaining() < HEADER_PREAMBLE_BYTES as usize {
            return Err(DbError::CorruptHeader {
                file: file_idx,
                detail: format!("preamble truncated at {} bytes", buf.remaining()),
            });
        }
        let capacity = buf.get_u32_le() as usize;
        let count = buf.get_u32_le() as usize;
        if capacity != state.capacity || count != state.index.len() {
            return Err(DbError::CorruptHeader {
                file: file_idx,
                detail: format!(
                    "preamble says capacity {capacity} / count {count}, \
                     mirror has capacity {} / count {}",
                    state.capacity,
                    state.index.len()
                ),
            });
        }
        Ok(())
    }

    /// Inserts a record: appends it to its file and augments the header in
    /// place (Figure 13's add path). A record whose hash is already stored
    /// is left untouched. Accepts owned, borrowed, or shared records; the
    /// record is only cloned on the rare header-overflow rebuild. Returns
    /// the simulated time spent.
    ///
    /// # Errors
    ///
    /// Propagates flash failures.
    pub fn insert(
        &mut self,
        record: impl Borrow<ResultRecord>,
        flash: &mut FlashStore,
    ) -> Result<SimDuration, DbError> {
        let record = record.borrow();
        let file_idx = self.file_for(record.result_hash);
        if self.files[file_idx].index.contains_key(&record.result_hash) {
            return Ok(SimDuration::ZERO);
        }

        if self.files[file_idx].index.len() == self.files[file_idx].capacity {
            return self.rebuild_file_with(file_idx, Some(record.clone()), flash);
        }

        let file = self.ids[file_idx];
        let encoded = record.encode();
        let state = &mut self.files[file_idx];
        state.verified_at = None;
        let (offset, append_time) = flash.append(file, &encoded)?;
        let mut time = append_time;

        // Augment the header: bump the live count and fill the next slot.
        let slot = state.index.len() as u64;
        let mut slot_bytes = BytesMut::with_capacity(HEADER_ENTRY_BYTES as usize);
        slot_bytes.put_u64_le(record.result_hash);
        slot_bytes.put_u32_le(offset as u32);
        time += flash.overwrite(
            file,
            HEADER_PREAMBLE_BYTES + slot * HEADER_ENTRY_BYTES,
            &slot_bytes,
        )?;
        let mut count_bytes = BytesMut::with_capacity(4);
        count_bytes.put_u32_le(state.index.len() as u32 + 1);
        time += flash.overwrite(file, 4, &count_bytes)?;

        state
            .index
            .insert(record.result_hash, (offset as u32, encoded.len() as u32));
        Ok(time)
    }

    /// Removes a record's index entry; its bytes become dead until the
    /// next [`compact`](Self::compact). Returns whether it existed.
    ///
    /// # Errors
    ///
    /// Propagates flash failures from the header rewrite.
    pub fn remove(&mut self, result_hash: u64, flash: &mut FlashStore) -> Result<bool, DbError> {
        let file_idx = self.file_for(result_hash);
        let state = &mut self.files[file_idx];
        let Some((_, len)) = state.index.remove(&result_hash) else {
            return Ok(false);
        };
        state.dead_bytes += u64::from(len);
        state.verified_at = None;
        self.rewrite_header(file_idx, flash)?;
        Ok(true)
    }

    /// Rewrites every file that carries dead bytes, reclaiming space.
    /// Returns the bytes freed and the simulated time spent.
    ///
    /// # Errors
    ///
    /// Propagates flash failures.
    pub fn compact(&mut self, flash: &mut FlashStore) -> Result<(u64, SimDuration), DbError> {
        let mut freed = 0;
        let mut time = SimDuration::ZERO;
        for i in 0..self.files.len() {
            if self.files[i].dead_bytes == 0 {
                continue;
            }
            freed += self.files[i].dead_bytes;
            time += self.rebuild_file_with(i, None, flash)?;
        }
        Ok((freed, time))
    }

    /// Space accounting across all database files.
    pub fn stats(&self, flash: &FlashStore) -> DbStats {
        let mut logical = 0u64;
        let mut allocated = 0u64;
        for &file in &self.ids {
            let size = flash.file_size(file).unwrap_or(0);
            logical += size;
            allocated += flash.model().allocated_bytes(size);
        }
        DbStats {
            files: self.files.len(),
            records: self.record_count(),
            logical_bytes: logical,
            allocated_bytes: allocated,
            fragmentation_bytes: allocated - logical,
            dead_bytes: self.files.iter().map(|f| f.dead_bytes).sum(),
        }
    }

    /// Re-reads every header from flash and checks it against the
    /// in-memory mirror. Used by tests and after patch application.
    ///
    /// # Errors
    ///
    /// [`DbError::CorruptHeader`] when a header preamble or index entry
    /// disagrees with the mirror; flash errors when a file cannot be
    /// read.
    pub fn verify(&self, flash: &FlashStore) -> Result<(), DbError> {
        for (i, (state, &file)) in self.files.iter().zip(&self.ids).enumerate() {
            let header = flash.read(file, 0, state.header_bytes())?;
            Self::check_preamble(i, &header.data, state)?;
            let mut buf = &header.data[HEADER_PREAMBLE_BYTES as usize..];
            for slot in 0..state.index.len() {
                if buf.remaining() < HEADER_ENTRY_BYTES as usize {
                    return Err(DbError::CorruptHeader {
                        file: i,
                        detail: format!("index entry {slot} truncated"),
                    });
                }
                let hash = buf.get_u64_le();
                let offset = buf.get_u32_le();
                match state.index.get(&hash) {
                    Some(&(o, _)) if o == offset => {}
                    _ => {
                        return Err(DbError::CorruptHeader {
                            file: i,
                            detail: format!(
                                "index entry {slot} ({hash:#018x} @ {offset}) \
                                 is not in the mirror"
                            ),
                        })
                    }
                }
            }
        }
        Ok(())
    }

    fn rewrite_header(
        &mut self,
        file_idx: usize,
        flash: &mut FlashStore,
    ) -> Result<SimDuration, DbError> {
        let state = &self.files[file_idx];
        let mut out = BytesMut::with_capacity(state.header_bytes() as usize);
        out.put_u32_le(state.capacity as u32);
        out.put_u32_le(state.index.len() as u32);
        let mut entries: Vec<(u64, u32)> = state.index.iter().map(|(&h, &(o, _))| (h, o)).collect();
        entries.sort_unstable();
        for (hash, offset) in entries {
            out.put_u64_le(hash);
            out.put_u32_le(offset);
        }
        out.resize(state.header_bytes() as usize, 0);
        Ok(flash.overwrite(self.ids[file_idx], 0, &out)?)
    }

    /// Rewrites file `file_idx` from its live records, plus `extra` when
    /// given, onto fresh blocks. Each live record is read and checked
    /// ([`check_record`](Self::check_record)) in offset order, and its
    /// checked bytes are copied as they are into the new file image:
    /// they are exactly the record's encoding, so the image is the one
    /// re-encoding the decoded records would write. A record that fails
    /// its check fails the rebuild before anything is written.
    fn rebuild_file_with(
        &mut self,
        file_idx: usize,
        extra: Option<ResultRecord>,
        flash: &mut FlashStore,
    ) -> Result<SimDuration, DbError> {
        let file = self.ids[file_idx];
        let state = &self.files[file_idx];
        let mut live: Vec<(u64, (u32, u32))> = state.index.iter().map(|(&h, &v)| (h, v)).collect();
        live.sort_unstable_by_key(|&(_, (o, _))| o);
        let count = live.len() + usize::from(extra.is_some());
        let capacity = self.config.header_capacity(count);
        let header_bytes = header_len(capacity) as usize;
        let data_bytes: usize = live.iter().map(|&(_, (_, len))| len as usize).sum();
        let mut out = Vec::with_capacity(header_bytes + data_bytes);
        out.resize(header_bytes, 0);
        let mut entries = Vec::with_capacity(count);

        let mut time = flash.open_cost();
        for (hash, (offset, len)) in live {
            let read = flash.read(file, u64::from(offset), u64::from(len))?;
            time += read.time;
            let encoded_len = Self::check_record(hash, &read.data)?.encoded_len();
            entries.push((hash, out.len() as u32, encoded_len as u32));
            out.extend_from_slice(&read.data[..encoded_len]);
        }
        if let Some(r) = extra {
            let encoded = r.encode();
            entries.push((r.result_hash, out.len() as u32, encoded.len() as u32));
            out.extend_from_slice(&encoded);
        }

        let state = Self::seal_file(&mut out, capacity, entries);
        time += flash.write_file(file, out);
        self.files[file_idx] = state;
        Ok(time)
    }

    /// The rebuild [`rebuild_file_with`](Self::rebuild_file_with)
    /// replaced, kept as its test oracle: decode every live record to an
    /// owned copy and serialize the file from those records afresh.
    #[cfg(test)]
    fn rebuild_file_by_reencode(
        &mut self,
        file_idx: usize,
        extra: Option<ResultRecord>,
        flash: &mut FlashStore,
    ) -> Result<SimDuration, DbError> {
        let file = self.ids[file_idx];
        let mut live = Vec::with_capacity(self.files[file_idx].index.len() + 1);
        let mut time = flash.open_cost();
        {
            let state = &self.files[file_idx];
            let mut entries: Vec<(u64, (u32, u32))> =
                state.index.iter().map(|(&h, &v)| (h, v)).collect();
            entries.sort_unstable_by_key(|&(_, (o, _))| o);
            for (hash, (offset, len)) in entries {
                let read = flash.read(file, u64::from(offset), u64::from(len))?;
                time += read.time;
                live.push(Self::check_record(hash, &read.data)?.to_owned());
            }
        }
        if let Some(r) = extra {
            live.push(r);
        }
        let capacity = self.config.header_capacity(live.len());
        let (bytes, state) = Self::serialize_file(&live, capacity);
        time += flash.write_file(file, bytes);
        self.files[file_idx] = state;
        Ok(time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobsim::flash::{FlashModel, WearModel};
    use proptest::prelude::*;

    fn record(hash: u64) -> ResultRecord {
        ResultRecord::new(
            hash,
            format!("Title {hash}"),
            format!("site{hash}.com"),
            "x".repeat(400),
        )
    }

    fn build(n_records: u64, n_files: usize) -> (ResultDb, FlashStore) {
        let mut flash = FlashStore::new(FlashModel::default());
        let db = ResultDb::build(
            (0..n_records).map(record),
            DbConfig::with_files(n_files),
            &mut flash,
        );
        (db, flash)
    }

    #[test]
    fn build_and_get_round_trip() {
        let (db, flash) = build(100, 32);
        assert_eq!(db.record_count(), 100);
        for h in [0u64, 17, 99] {
            let (r, t) = db.get(h, &flash).unwrap();
            assert_eq!(r, record(h));
            assert!(t > SimDuration::ZERO);
        }
        assert!(matches!(
            db.get(1_000, &flash),
            Err(DbError::NotFound { result_hash: 1_000 })
        ));
        db.verify(&flash).unwrap();
    }

    #[test]
    fn duplicate_hashes_are_stored_once() {
        let mut flash = FlashStore::new(FlashModel::default());
        let db = ResultDb::build(
            vec![record(1), record(1), record(2)],
            DbConfig::default(),
            &mut flash,
        );
        assert_eq!(db.record_count(), 2);
    }

    #[test]
    fn two_result_fetch_is_about_ten_milliseconds() {
        // Table 4: "Fetch Search Results" ~10 ms with the paper's 32-file
        // database at its evaluation size (~2,500 records).
        let (db, flash) = build(2_500, 32);
        let (records, time) = db.get_many([3, 1_204], &flash).unwrap();
        assert_eq!(records.len(), 2);
        let ms = time.as_millis_f64();
        assert!(
            (5.0..16.0).contains(&ms),
            "two-result fetch took {ms:.1} ms"
        );
    }

    #[test]
    fn figure12_tradeoff_few_files_slow_many_files_fragmented() {
        let fetch_ms = |n_files: usize| {
            let (db, flash) = build(2_500, n_files);
            let (_, t) = db.get_many([3, 1_204], &flash).unwrap();
            t.as_millis_f64()
        };
        let frag = |n_files: usize| {
            build(2_500, n_files)
                .0
                .stats(&build(2_500, n_files).1)
                .fragmentation_bytes
        };

        // Retrieval gets cheaper from 1 file to 32 files...
        assert!(
            fetch_ms(1) > 2.0 * fetch_ms(32),
            "1-file header scan should dominate"
        );
        // ...but fragmentation keeps growing with the file count.
        assert!(frag(256) > frag(32));
        assert!(frag(32) >= frag(4));
    }

    #[test]
    fn insert_appends_and_augments_header() {
        let (mut db, mut flash) = build(10, 4);
        let t = db.insert(record(500), &mut flash).unwrap();
        assert!(t > SimDuration::ZERO);
        assert!(db.contains(500));
        let (r, _) = db.get(500, &flash).unwrap();
        assert_eq!(r, record(500));
        db.verify(&flash).unwrap();
        // Re-inserting the same record is free and harmless.
        assert_eq!(
            db.insert(record(500), &mut flash).unwrap(),
            SimDuration::ZERO
        );
        assert_eq!(db.record_count(), 11);
    }

    #[test]
    fn header_overflow_triggers_rebuild() {
        let mut flash = FlashStore::new(FlashModel::default());
        let mut db = ResultDb::build(
            (0..8).map(|i| record(i * 2)), // all even hashes, 2 files
            DbConfig {
                n_files: 2,
                initial_header_capacity: 4,
                ..DbConfig::default()
            },
            &mut flash,
        );
        // Fill file 0 beyond any initial capacity.
        for i in 0..40u64 {
            db.insert(record(i * 2), &mut flash).unwrap();
        }
        assert_eq!(
            db.record_count(),
            40,
            "8 initial hashes overlap the 40 inserted"
        );
        db.verify(&flash).unwrap();
        for i in 0..40u64 {
            assert!(db.contains(i * 2));
        }
    }

    #[test]
    fn remove_then_compact_reclaims_space() {
        let (mut db, mut flash) = build(50, 8);
        let before = db.stats(&flash);
        for h in 0..25u64 {
            assert!(db.remove(h, &mut flash).unwrap());
        }
        assert!(!db.remove(0, &mut flash).unwrap(), "double remove is false");
        assert!(db.get(0, &flash).is_err());
        let mid = db.stats(&flash);
        assert_eq!(mid.records, 25);
        assert!(mid.dead_bytes > 0);

        let (freed, _) = db.compact(&mut flash).unwrap();
        assert_eq!(freed, mid.dead_bytes);
        let after = db.stats(&flash);
        assert_eq!(after.dead_bytes, 0);
        assert!(after.logical_bytes < before.logical_bytes);
        db.verify(&flash).unwrap();
        // Survivors still readable.
        let (r, _) = db.get(30, &flash).unwrap();
        assert_eq!(r, record(30));
    }

    #[test]
    fn stats_account_fragmentation() {
        let (db, flash) = build(100, 32);
        let s = db.stats(&flash);
        assert_eq!(s.files, 32);
        assert_eq!(s.records, 100);
        assert_eq!(s.allocated_bytes - s.logical_bytes, s.fragmentation_bytes);
        assert!(s.allocated_bytes % flash.model().block_bytes == 0);
    }

    #[test]
    fn evaluation_size_database_fits_the_papers_footprint() {
        // §6.1: ~2,500 results occupy ~1 MB of flash.
        let (db, flash) = build(2_500, 32);
        let s = db.stats(&flash);
        let mb = s.allocated_bytes as f64 / 1e6;
        assert!((1.0..2.0).contains(&mb), "database occupied {mb:.2} MB");
    }

    /// Database files in the rebuild checks: few, so each holds several
    /// records.
    const REBUILD_FILES: usize = 4;

    /// A worn store: every erase past the sixth sticks a bit somewhere
    /// in the block, and reads return the stuck bits.
    fn worn_store(seed: u64) -> FlashStore {
        FlashStore::new(FlashModel {
            wear: WearModel {
                enabled: true,
                safe_erase_cycles: 6,
                bit_failure_every: 1,
                seed,
            },
            ..FlashModel::default()
        })
    }

    /// A record whose snippet length varies with its hash.
    fn sized_record(hash: u64) -> ResultRecord {
        ResultRecord::new(
            hash,
            format!("Title {hash}"),
            format!("site{hash}.example"),
            "s".repeat(200 + (hash as usize % 9) * 37),
        )
    }

    /// Rebuilds `file` (with `extra`) through the checked-bytes path on
    /// one copy of `db`/`flash` and through the re-encode oracle on
    /// another, and checks that the two agree on everything: the result
    /// (time or error), the database mirror and its verification marks,
    /// the store (every file's bytes and blocks, the erase count),
    /// whether the stamp moved, and every later fetch.
    fn rebuild_matches_the_oracle(
        db: &ResultDb,
        flash: &FlashStore,
        file: usize,
        extra: Option<ResultRecord>,
    ) -> Result<(), DbError> {
        let (mut subject, mut subject_flash) = (db.clone(), flash.clone());
        let (mut oracle, mut oracle_flash) = (db.clone(), flash.clone());
        let stamp = flash.stamp();
        let got = subject.rebuild_file_with(file, extra.clone(), &mut subject_flash);
        let want = oracle.rebuild_file_by_reencode(file, extra, &mut oracle_flash);
        assert_eq!(got, want);
        assert!(subject == oracle, "mirrors differ");
        let marks = |db: &ResultDb| db.files.iter().map(|f| f.verified_at).collect::<Vec<_>>();
        assert_eq!(marks(&subject), marks(&oracle));
        assert!(subject_flash == oracle_flash, "stores differ");
        assert_eq!(
            subject_flash.stamp() != stamp,
            oracle_flash.stamp() != stamp,
            "one rebuild moved the stamp and the other did not"
        );
        for h in 0..64 {
            assert_eq!(
                subject.fetch_time([h], &subject_flash),
                oracle.fetch_time([h], &oracle_flash)
            );
        }
        got.map(|_| ())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Copying checked bytes builds the file the re-encode did, on
        /// databases with dead bytes, an extra record, and worn blocks
        /// whose stuck bits can fail a record's check.
        #[test]
        fn rebuild_from_checked_bytes_equals_the_reencode(
            stored in 1u64..40,
            removes in proptest::collection::vec(0u64..40, 0..12),
            ages in proptest::collection::vec((0usize..REBUILD_FILES, any::<u64>(), 0u64..12), 0..4),
            extra in 0u64..80,
            file in 0usize..REBUILD_FILES,
            wear_seed in any::<u64>(),
        ) {
            let mut flash = worn_store(wear_seed);
            let mut db = ResultDb::build(
                (0..stored).map(sized_record),
                DbConfig::with_files(REBUILD_FILES),
                &mut flash,
            );
            for h in removes {
                db.remove(h, &mut flash).unwrap();
            }
            for (f, block, cycles) in ages {
                let blocks = flash.file_block_ids(db.file_id(f)).unwrap_or(&[]).to_vec();
                if !blocks.is_empty() {
                    flash.age_block(blocks[(block % blocks.len() as u64) as usize], cycles);
                }
            }
            // Hashes from 40 up are not stored: those go in as the extra.
            let extra = (extra >= 40).then(|| sized_record(extra));
            let _ = rebuild_matches_the_oracle(&db, &flash, file, extra);
        }
    }

    #[test]
    fn a_stuck_bit_fails_both_rebuilds_alike() {
        let mut failed = 0;
        for seed in 0..16 {
            let mut flash = worn_store(seed);
            let db = ResultDb::build(
                (0..24).map(sized_record),
                DbConfig::with_files(REBUILD_FILES),
                &mut flash,
            );
            let blocks = flash.file_block_ids(db.file_id(0)).unwrap_or(&[]).to_vec();
            for block in blocks {
                flash.age_block(block, 12);
            }
            if let Err(e) = rebuild_matches_the_oracle(&db, &flash, 0, None) {
                assert!(e.is_corruption(), "{e}");
                failed += 1;
            }
        }
        assert!(failed > 0, "no stuck bit landed in a record");
    }
}
