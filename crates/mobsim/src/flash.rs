//! NAND flash storage model.
//!
//! §5.2.2 of the paper highlights two flash realities that shape the
//! PocketSearch database layout: space is allocated in fixed-size blocks
//! (2/4/8 KB), so a 500-byte file can occupy 4–16× its logical size
//! (*fragmentation*); and reads happen at page granularity with a fixed
//! per-page latency, so scanning a large file header costs real time.
//! [`FlashStore`] is a simulated file store that accounts for both, and is
//! the substrate under the `flashdb` crate.
//!
//! The store also models NAND media wear: every file carries a list of
//! physical blocks, each block counts its erase cycles, and once a block
//! is erased past [`WearModel::safe_erase_cycles`] it deterministically
//! develops stuck-at-0/stuck-at-1 bit failures that corrupt subsequent
//! reads. Programming is physically a bitwise AND (NAND cells can only be
//! cleared without an erase — see [`FlashStore::program`]), which is what
//! makes the corruption model consistent: an erase resets content, but a
//! stuck cell keeps lying no matter what lands on it. Wear injection is
//! off by default and provably zero-cost when disabled: erase accounting
//! runs unconditionally (it is cheap, deterministic bookkeeping), but no
//! read is ever altered unless [`WearModel::enabled`] is set.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::mix64;
use crate::time::SimDuration;

/// Media-wear parameters: when blocks start failing and how fast.
///
/// Disabled by default; with `enabled = false` the store still counts
/// erase cycles (telemetry) but never corrupts a read, so all existing
/// behavior is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WearModel {
    /// Whether worn blocks corrupt reads. Off by default.
    pub enabled: bool,
    /// Erase cycles a block tolerates before bit failures begin.
    pub safe_erase_cycles: u64,
    /// Past the safe threshold, a new stuck bit appears every this many
    /// additional erases (1 = every erase). Values of 0 are treated as 1.
    pub bit_failure_every: u64,
    /// Seed for the deterministic stuck-bit position/polarity draw.
    pub seed: u64,
}

impl Default for WearModel {
    /// Wear injection disabled; threshold parameters sized for a small
    /// simulated part (real NAND tolerates 10⁴–10⁵ cycles, but tests and
    /// month-scale scenarios need failures within hundreds of erases).
    fn default() -> Self {
        WearModel {
            enabled: false,
            safe_erase_cycles: 100,
            bit_failure_every: 4,
            seed: 0x5EED_F1A5,
        }
    }
}

/// How the store picks a physical block when a file needs one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AllocPolicy {
    /// Reuse the lowest-numbered free block (the naive baseline: rewrites
    /// hammer the same physical blocks, concentrating wear).
    #[default]
    LowestId,
    /// Wear-leveling: keep at least `spares` free blocks in rotation and
    /// always program the least-erased one, spreading erase cycles across
    /// the pool. Ties break on the lowest block id, so allocation is fully
    /// deterministic.
    LeastWorn {
        /// Minimum free-pool size the allocator maintains; larger pools
        /// spread wear over more blocks at the cost of reserved space.
        spares: u32,
    },
}

/// Timing and geometry parameters of the NAND flash part.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashModel {
    /// Allocation granularity in bytes; files occupy whole blocks.
    pub block_bytes: u64,
    /// Read/program granularity in bytes.
    pub page_bytes: u64,
    /// Latency to read one page.
    pub read_page: SimDuration,
    /// Latency to program one page.
    pub program_page: SimDuration,
    /// Fixed filesystem overhead to open a file.
    pub file_open: SimDuration,
    /// Per-existing-file directory lookup cost added to every open; models
    /// filesystem metadata pressure as the file population grows.
    pub dir_lookup_per_file: SimDuration,
    /// Media-wear model (disabled by default).
    pub wear: WearModel,
    /// Block allocation policy (naive lowest-id by default).
    pub alloc: AllocPolicy,
}

impl FlashModel {
    /// Bytes a file of `logical` size actually occupies on flash.
    ///
    /// Saturates instead of overflowing for absurd logical sizes near
    /// `u64::MAX` (the rounded size cannot be represented; the caller
    /// gets the largest representable allocation rather than a panic).
    pub fn allocated_bytes(&self, logical: u64) -> u64 {
        if logical == 0 {
            0
        } else {
            let blocks = self.block_bytes.max(1);
            logical.div_ceil(blocks).saturating_mul(blocks)
        }
    }

    /// Number of pages a byte range `[offset, offset+len)` touches.
    ///
    /// A zero-length range touches zero pages regardless of offset, and
    /// ranges whose end would overflow `u64` saturate at the last page
    /// instead of wrapping around to page zero.
    pub fn pages_touched(&self, offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let pages = self.page_bytes.max(1);
        let first = offset / pages;
        let last = offset.saturating_add(len - 1) / pages;
        last - first + 1
    }

    /// Effective sequential read bandwidth in bytes per second.
    pub fn read_bandwidth_bps(&self) -> f64 {
        self.page_bytes as f64 / self.read_page.as_secs_f64()
    }
}

impl Default for FlashModel {
    /// A mid-2000s managed-NAND part behind a mobile filesystem: 4 KiB
    /// blocks, 2 KiB pages, 300 µs page reads — slow enough that fetching
    /// and parsing search results costs the ~10 ms the paper reports.
    fn default() -> Self {
        FlashModel {
            block_bytes: 4_096,
            page_bytes: 2_048,
            read_page: SimDuration::from_micros(300),
            program_page: SimDuration::from_micros(600),
            file_open: SimDuration::from_micros(2_500),
            dir_lookup_per_file: SimDuration::from_micros(6),
            wear: WearModel::default(),
            alloc: AllocPolicy::default(),
        }
    }
}

/// Errors returned by [`FlashStore`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// The named file does not exist.
    FileNotFound(String),
    /// A read extended past the end of the file.
    ReadPastEnd {
        /// File that was read.
        file: String,
        /// Logical file size in bytes.
        size: u64,
        /// Requested read offset.
        offset: u64,
        /// Requested read length.
        len: u64,
    },
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::FileNotFound(name) => write!(f, "flash file not found: {name}"),
            FlashError::ReadPastEnd {
                file,
                size,
                offset,
                len,
            } => write!(
                f,
                "read past end of {file}: offset {offset} + len {len} > size {size}"
            ),
        }
    }
}

impl std::error::Error for FlashError {}

/// A timed read: the bytes plus the simulated time the read took.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRead<'a> {
    /// The bytes read: borrowed from the stored file, or an owned copy
    /// carrying the stuck-bit overlay when a failed cell lies in range.
    pub data: Cow<'a, [u8]>,
    /// Simulated time spent (page reads only; see [`FlashStore::open_cost`]).
    pub time: SimDuration,
}

/// A permanently failed NAND cell: one bit in one block that reads back
/// the same value no matter what was programmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StuckBit {
    /// Byte offset of the failed cell within its block.
    pub offset: u32,
    /// Single-bit mask selecting the failed cell within the byte.
    pub mask: u8,
    /// `true` = stuck-at-1 (reads OR in the mask), `false` = stuck-at-0
    /// (reads AND out the mask).
    pub stuck_one: bool,
}

/// Per-block wear state: erase cycles plus any failed cells.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct BlockState {
    erase_cycles: u64,
    stuck: Vec<StuckBit>,
}

/// Aggregate wear telemetry over every block the store has ever erased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WearSummary {
    /// Blocks with at least one erase on record.
    pub tracked_blocks: usize,
    /// Total erase operations performed by the store.
    pub total_erases: u64,
    /// Highest per-block erase count (0 when nothing was erased).
    pub max_erase_cycles: u64,
    /// Lowest per-block erase count among tracked blocks (0 when nothing
    /// was erased).
    pub min_erase_cycles: u64,
    /// Blocks past the wear model's safe threshold.
    pub worn_blocks: usize,
    /// Total stuck bits injected so far.
    pub stuck_bits: usize,
}

impl WearSummary {
    /// Spread between the most- and least-erased tracked block; the
    /// quantity a wear-leveling allocator minimizes.
    pub fn erase_spread(&self) -> u64 {
        self.max_erase_cycles - self.min_erase_cycles
    }
}

/// A handle to one named file of a [`FlashStore`], issued by
/// [`FlashStore::create`].
///
/// The handle is the file's slot in the store's file table. A slot
/// belongs to one name for the life of the store: rewriting, removing
/// and re-creating a file keeps its handle, and no other file ever takes
/// the slot. A handle of a removed file therefore reads as
/// [`FlashError::FileNotFound`] naming that file, never as another
/// file's bytes. A handle means nothing to a store that did not issue it
/// (or to a clone taken before it was issued).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(u32);

/// One stored file: its bytes and the physical blocks backing them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct FlashFile {
    data: Vec<u8>,
    /// Physical blocks backing `data`, in logical order.
    blocks: Vec<u64>,
}

impl FlashFile {
    /// `[offset, offset + len)` as indices into `data`: the one bounds
    /// check behind reads and in-place writes. `name` names the file in
    /// the error.
    fn range(&self, name: &str, offset: u64, len: u64) -> Result<Range<usize>, FlashError> {
        let size = self.data.len() as u64;
        match offset.checked_add(len) {
            Some(end) if end <= size => Ok(offset as usize..end as usize),
            _ => Err(FlashError::ReadPastEnd {
                file: name.to_owned(),
                size,
                offset,
                len,
            }),
        }
    }
}

/// One slot of the file table: the name it was created under, and the
/// file while it exists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FileSlot {
    name: String,
    file: Option<FlashFile>,
}

/// Indices of the blocks covering `[offset, offset + len)` of a file,
/// for blocks of `block_bytes` (at least 1): empty for a zero-length
/// range. The end saturates instead of overflowing `u64`, which can
/// only drop a block index no file reaches.
fn block_span(block_bytes: u64, offset: u64, len: u64) -> Range<u64> {
    if len == 0 {
        return 0..0;
    }
    let last = offset.saturating_add(len - 1) / block_bytes;
    offset / block_bytes..last.saturating_add(1)
}

/// The source of every [`FlashStore::stamp`]: one counter for the whole
/// process, so no two states of any two stores ever draw the same value.
/// Starts at 1; stamp 0 belongs to a store that was never changed.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// A simulated flash file store with block-granular allocation accounting
/// and a NAND wear model (per-block erase cycles, stuck-bit failures).
///
/// Files are addressed by [`FileId`] handles. A name maps to its handle
/// once, at [`create`](Self::create); every read and write after that
/// indexes the file table directly, and the name is kept only for
/// display and error messages.
///
/// Every change to the store draws a new [content stamp](Self::stamp),
/// so a reader that checked bytes at one stamp knows they still read the
/// same while the stamp is unchanged.
///
/// # Example
///
/// ```
/// use mobsim::flash::{FlashModel, FlashStore};
///
/// let mut flash = FlashStore::new(FlashModel::default());
/// let db = flash.create("db-00");
/// flash.write_file(db, vec![0u8; 500]);
/// // A 500-byte file still occupies one whole 4 KiB block.
/// assert_eq!(flash.allocated_bytes(), 4_096);
/// assert_eq!(flash.fragmentation_bytes(), 3_596);
/// // And that block has been erased exactly once.
/// assert_eq!(flash.wear_summary().total_erases, 1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlashStore {
    model: FlashModel,
    /// The file table, indexed by [`FileId`]; slots are never reused.
    slots: Vec<FileSlot>,
    /// Every name ever created, to its slot.
    ids: BTreeMap<String, FileId>,
    /// Slots holding a file: the population [`open_cost`](Self::open_cost)
    /// charges for.
    live_files: u64,
    /// Wear state per physical block id.
    blocks: BTreeMap<u64, BlockState>,
    /// Blocks released by rewrites/removals, available for reuse.
    free: BTreeSet<u64>,
    /// Next never-used physical block id.
    next_block: u64,
    /// Total erase operations performed.
    total_erases: u64,
    /// Content stamp: redrawn by every `&mut` method, kept by a clone.
    stamp: u64,
}

/// Two stores are equal when their files, wear and model are: the
/// [stamp](FlashStore::stamp) says when a store last changed, not what
/// it holds, so it takes no part.
impl PartialEq for FlashStore {
    fn eq(&self, other: &Self) -> bool {
        let FlashStore {
            model,
            slots,
            ids,
            live_files,
            blocks,
            free,
            next_block,
            total_erases,
            stamp: _,
        } = self;
        *model == other.model
            && *slots == other.slots
            && *ids == other.ids
            && *live_files == other.live_files
            && *blocks == other.blocks
            && *free == other.free
            && *next_block == other.next_block
            && *total_erases == other.total_erases
    }
}

impl FlashStore {
    /// Creates an empty store over the given part.
    pub fn new(model: FlashModel) -> Self {
        FlashStore {
            model,
            ..FlashStore::default()
        }
    }

    /// The flash part parameters.
    pub fn model(&self) -> &FlashModel {
        &self.model
    }

    /// The content stamp: a value that changes whenever anything a read
    /// could return may have changed. Every `&mut` method draws a fresh
    /// one from a process-wide counter, so a stamp names one state of
    /// one store's history; a clone keeps the stamp, because it holds
    /// the same bytes. Reads never change it.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Marks the store changed: the one way [`stamp`](Self::stamp) moves.
    fn restamp(&mut self) {
        // relaxed-ok: the stamp only has to be unique; it orders no other memory
        self.stamp = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
    }

    /// Replaces the wear model (threshold, seed, enablement) in place.
    pub fn set_wear(&mut self, wear: WearModel) {
        self.restamp();
        self.model.wear = wear;
    }

    /// Replaces the block allocation policy in place.
    pub fn set_alloc_policy(&mut self, alloc: AllocPolicy) {
        self.restamp();
        self.model.alloc = alloc;
    }

    /// The handle of the file called `name`, creating it empty when no
    /// such file exists. A name keeps one handle for the life of the
    /// store, so calling this again — even after the file was removed —
    /// returns the same handle.
    pub fn create(&mut self, name: &str) -> FileId {
        self.restamp();
        let id = match self.ids.get(name) {
            Some(&id) => id,
            None => {
                let id = FileId(self.slots.len() as u32);
                self.slots.push(FileSlot {
                    name: name.to_owned(),
                    file: None,
                });
                self.ids.insert(name.to_owned(), id);
                id
            }
        };
        let slot = &mut self.slots[id.0 as usize];
        if slot.file.is_none() {
            slot.file = Some(FlashFile::default());
            self.live_files += 1;
        }
        id
    }

    /// The handles and names of all files, in name order.
    pub fn files(&self) -> impl Iterator<Item = (FileId, &str)> {
        self.ids
            .iter()
            .filter(|(_, id)| self.slot(**id).file.is_some())
            .map(|(name, id)| (*id, name.as_str()))
    }

    /// The name `file` was created under.
    ///
    /// # Panics
    ///
    /// Panics when `file` was not issued by this store.
    pub fn file_name(&self, file: FileId) -> &str {
        &self.slot(file).name
    }

    /// Logical size of a file, if it exists.
    ///
    /// # Panics
    ///
    /// Panics when `file` was not issued by this store.
    pub fn file_size(&self, file: FileId) -> Option<u64> {
        self.slot(file).file.as_ref().map(|f| f.data.len() as u64)
    }

    /// The existing files.
    fn live(&self) -> impl Iterator<Item = &FlashFile> {
        self.slots.iter().filter_map(|s| s.file.as_ref())
    }

    /// Sum of logical file sizes.
    pub fn logical_bytes(&self) -> u64 {
        self.live().map(|f| f.data.len() as u64).sum()
    }

    /// Sum of block-rounded file sizes (what the flash actually loses).
    pub fn allocated_bytes(&self) -> u64 {
        self.live()
            .map(|f| self.model.allocated_bytes(f.data.len() as u64))
            .sum()
    }

    /// Bytes wasted to block rounding across all files.
    pub fn fragmentation_bytes(&self) -> u64 {
        self.allocated_bytes() - self.logical_bytes()
    }

    /// Cost of opening any file given the current file population.
    pub fn open_cost(&self) -> SimDuration {
        self.model.file_open + self.model.dir_lookup_per_file * self.live_files
    }

    /// The slot behind a handle.
    fn slot(&self, file: FileId) -> &FileSlot {
        &self.slots[file.0 as usize]
    }

    /// The file behind a handle, or [`FlashError::FileNotFound`] naming
    /// it when it was removed.
    fn file(&self, file: FileId) -> Result<(&str, &FlashFile), FlashError> {
        let slot = self.slot(file);
        match &slot.file {
            Some(f) => Ok((&slot.name, f)),
            None => Err(FlashError::FileNotFound(slot.name.clone())),
        }
    }

    // ---- wear accounting ------------------------------------------------

    /// Whole blocks a file of `len` logical bytes needs.
    fn blocks_needed(&self, len: u64) -> u64 {
        if len == 0 {
            0
        } else {
            len.div_ceil(self.model.block_bytes.max(1))
        }
    }

    /// Erase cycles recorded for a block (0 if never erased).
    pub fn erase_cycles(&self, block: u64) -> u64 {
        self.blocks.get(&block).map_or(0, |s| s.erase_cycles)
    }

    /// Physical blocks backing a file, in logical order.
    ///
    /// # Panics
    ///
    /// Panics when `file` was not issued by this store.
    pub fn file_block_ids(&self, file: FileId) -> Option<&[u64]> {
        self.slot(file).file.as_ref().map(|f| f.blocks.as_slice())
    }

    /// Per-block wear telemetry: `(block id, erase cycles, stuck bits)`.
    pub fn block_wear(&self) -> impl Iterator<Item = (u64, u64, usize)> + '_ {
        self.blocks
            .iter()
            .map(|(id, s)| (*id, s.erase_cycles, s.stuck.len()))
    }

    /// Aggregate wear telemetry across all tracked blocks.
    pub fn wear_summary(&self) -> WearSummary {
        let mut summary = WearSummary {
            tracked_blocks: self.blocks.len(),
            total_erases: self.total_erases,
            ..WearSummary::default()
        };
        let mut min = u64::MAX;
        for state in self.blocks.values() {
            summary.max_erase_cycles = summary.max_erase_cycles.max(state.erase_cycles);
            min = min.min(state.erase_cycles);
            summary.stuck_bits += state.stuck.len();
            if state.erase_cycles > self.model.wear.safe_erase_cycles {
                summary.worn_blocks += 1;
            }
        }
        if !self.blocks.is_empty() {
            summary.min_erase_cycles = min;
        }
        summary
    }

    /// Counts one erase of `block`, injecting a stuck bit if the block is
    /// past its safe life and the failure cadence fires. Deterministic in
    /// `(seed, block id, erase count)`.
    fn record_erase(&mut self, block: u64) {
        self.restamp();
        let wear = self.model.wear;
        let block_bytes = self.model.block_bytes.max(1);
        self.total_erases += 1;
        let state = self.blocks.entry(block).or_default();
        state.erase_cycles += 1;
        if !wear.enabled || state.erase_cycles <= wear.safe_erase_cycles {
            return;
        }
        let past = state.erase_cycles - wear.safe_erase_cycles;
        if !past.is_multiple_of(wear.bit_failure_every.max(1)) {
            return;
        }
        let draw = mix64(wear.seed ^ mix64(block).wrapping_add(mix64(state.erase_cycles)));
        let stuck = StuckBit {
            offset: (draw % block_bytes) as u32,
            mask: 1u8 << ((draw >> 40) % 8),
            stuck_one: (draw >> 50) & 1 == 1,
        };
        // A re-draw of an already-failed cell replaces it (at most one
        // record per cell keeps the overlay bounded and deterministic).
        state
            .stuck
            .retain(|s| !(s.offset == stuck.offset && s.mask == stuck.mask));
        state.stuck.push(stuck);
    }

    // api-ok: the wear checks of tests/fault_injection.rs and
    // crates/flashdb/tests/verified_reads.rs age blocks past the §5.4
    // erase threshold with it; ROADMAP item 4's sweep will too.
    /// Bumps a block's erase count by `cycles` without moving any data —
    /// a test accelerant for reaching the wear threshold quickly. Each
    /// simulated cycle runs the same failure-injection draw a real erase
    /// would (and so redraws the stamp); zero cycles change nothing.
    pub fn age_block(&mut self, block: u64, cycles: u64) {
        for _ in 0..cycles {
            self.record_erase(block);
        }
    }

    /// Picks (and erases) a physical block for new data according to the
    /// allocation policy.
    fn allocate_block(&mut self) -> u64 {
        let reused = match self.model.alloc {
            AllocPolicy::LowestId => self.free.iter().next().copied(),
            AllocPolicy::LeastWorn { spares } => {
                // Keep the rotation pool stocked so wear can spread.
                while self.free.len() < spares as usize {
                    self.free.insert(self.next_block);
                    self.next_block += 1;
                }
                self.free
                    .iter()
                    .copied()
                    .min_by_key(|b| (self.erase_cycles(*b), *b))
            }
        };
        let block = match reused {
            Some(block) => {
                self.free.remove(&block);
                block
            }
            None => {
                let block = self.next_block;
                self.next_block += 1;
                block
            }
        };
        self.record_erase(block);
        block
    }

    /// What a read of `stored` (the bytes at `offset` of the file backed
    /// by `ids`) returns: the stored bytes, borrowed, unless a stuck bit
    /// from a worn block lies in the range — then an owned copy with every
    /// such bit overlaid. Always borrowed unless wear injection is enabled.
    fn overlay_stuck_bits<'a>(&self, ids: &[u64], offset: u64, stored: &'a [u8]) -> Cow<'a, [u8]> {
        let mut data = Cow::Borrowed(stored);
        if !self.model.wear.enabled {
            return data;
        }
        let block_bytes = self.model.block_bytes.max(1);
        let len = stored.len() as u64;
        for index in block_span(block_bytes, offset, len) {
            let Some(state) = usize::try_from(index)
                .ok()
                .and_then(|i| ids.get(i))
                .and_then(|id| self.blocks.get(id))
            else {
                continue;
            };
            for bit in &state.stuck {
                let position = index * block_bytes + u64::from(bit.offset);
                if position < offset || position >= offset.saturating_add(len) {
                    continue;
                }
                let byte = &mut data.to_mut()[(position - offset) as usize];
                if bit.stuck_one {
                    *byte |= bit.mask;
                } else {
                    *byte &= !bit.mask;
                }
            }
        }
        data
    }

    // ---- file operations ------------------------------------------------

    /// Replaces a file's contents, returning the simulated program time.
    /// A removed file comes back under its name and handle.
    ///
    /// The old blocks return to the free pool and the new content lands
    /// on freshly allocated ones (one erase per block it needs), which is
    /// what makes rewrite-heavy update protocols wear the media.
    ///
    /// # Panics
    ///
    /// Panics when `file` was not issued by this store.
    pub fn write_file(&mut self, file: FileId, data: Vec<u8>) -> SimDuration {
        self.restamp();
        let pages = self.model.pages_touched(0, data.len() as u64);
        self.remove(file);
        let needed = self.blocks_needed(data.len() as u64);
        let blocks = (0..needed).map(|_| self.allocate_block()).collect();
        self.slots[file.0 as usize].file = Some(FlashFile { data, blocks });
        self.live_files += 1;
        self.model.program_page * pages
    }

    /// Appends to a file, returning `(offset at which the data landed,
    /// simulated program time)`.
    ///
    /// Only newly allocated blocks are erased; programming into the free
    /// tail of the last block costs no erase (NAND programs erased cells
    /// directly).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::FileNotFound`] for a removed file.
    ///
    /// # Panics
    ///
    /// Panics when `file` was not issued by this store.
    pub fn append(&mut self, file: FileId, data: &[u8]) -> Result<(u64, SimDuration), FlashError> {
        self.restamp();
        let slot = &mut self.slots[file.0 as usize];
        let Some(mut stored) = slot.file.take() else {
            return Err(FlashError::FileNotFound(slot.name.clone()));
        };
        let offset = stored.data.len() as u64;
        stored.data.extend_from_slice(data);
        let needed = self.blocks_needed(stored.data.len() as u64);
        while (stored.blocks.len() as u64) < needed {
            stored.blocks.push(self.allocate_block());
        }
        self.slots[file.0 as usize].file = Some(stored);
        let pages = self.model.pages_touched(offset, data.len() as u64);
        Ok((offset, self.model.program_page * pages))
    }

    /// Overwrites bytes at `offset` in place (a managed-NAND
    /// read-modify-write), charging program time for the pages touched.
    /// Every block the range covers takes one erase cycle — in-place
    /// updates are where wear actually comes from.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::FileNotFound`] for a removed file and
    /// [`FlashError::ReadPastEnd`] when the range exceeds the file.
    ///
    /// # Panics
    ///
    /// Panics when `file` was not issued by this store.
    pub fn overwrite(
        &mut self,
        file: FileId,
        offset: u64,
        data: &[u8],
    ) -> Result<SimDuration, FlashError> {
        self.restamp();
        let time = self.program_range(file, offset, data, |cells, new| {
            cells.copy_from_slice(new);
        })?;
        let block_bytes = self.model.block_bytes.max(1);
        for index in block_span(block_bytes, offset, data.len() as u64) {
            let block = self
                .file_block_ids(file)
                .and_then(|ids| ids.get(usize::try_from(index).ok()?))
                .copied();
            if let Some(block) = block {
                self.record_erase(block);
            }
        }
        Ok(time)
    }

    // api-ok: ROADMAP item 4's power-cut sweep leaves partly programmed
    // pages through it; crates/flashdb/tests/verified_reads.rs programs
    // stuck bits under a marked database with it.
    /// Programs bytes at `offset` without an erase: NAND programming can
    /// only clear cells, so each stored byte becomes `old & new`. Costs
    /// program time but no erase cycles — the cheap (and lossy) way to
    /// update in place.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::FileNotFound`] for a removed file and
    /// [`FlashError::ReadPastEnd`] when the range exceeds the file.
    ///
    /// # Panics
    ///
    /// Panics when `file` was not issued by this store.
    pub fn program(
        &mut self,
        file: FileId,
        offset: u64,
        data: &[u8],
    ) -> Result<SimDuration, FlashError> {
        self.restamp();
        self.program_range(file, offset, data, |cells, new| {
            for (cell, programmed) in cells.iter_mut().zip(new) {
                *cell &= programmed;
            }
        })
    }

    /// Writes `data` over the stored bytes at `offset` with `write` (no
    /// erase accounting), returning the program time of the pages touched.
    fn program_range(
        &mut self,
        file: FileId,
        offset: u64,
        data: &[u8],
        write: impl FnOnce(&mut [u8], &[u8]),
    ) -> Result<SimDuration, FlashError> {
        let slot = &mut self.slots[file.0 as usize];
        let stored = slot
            .file
            .as_mut()
            .ok_or_else(|| FlashError::FileNotFound(slot.name.clone()))?;
        let len = data.len() as u64;
        let range = stored.range(&slot.name, offset, len)?;
        write(&mut stored.data[range], data);
        Ok(self.model.program_page * self.model.pages_touched(offset, len))
    }

    /// Reads `len` bytes at `offset`, charging page-granular read time.
    ///
    /// The [`open_cost`](Self::open_cost) is *not* included; callers that
    /// model an open-per-access pattern add it explicitly. The bytes are
    /// borrowed from the stored file. When wear injection is enabled,
    /// stuck bits in worn blocks corrupt the returned bytes: a range
    /// holding one comes back as an owned copy with the overlay applied
    /// (the stored data is untouched — the cells lie on the way out).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::FileNotFound`] for a removed file and
    /// [`FlashError::ReadPastEnd`] when the range exceeds the file.
    ///
    /// # Panics
    ///
    /// Panics when `file` was not issued by this store.
    pub fn read(&self, file: FileId, offset: u64, len: u64) -> Result<TimedRead<'_>, FlashError> {
        let (name, stored) = self.file(file)?;
        let range = stored.range(name, offset, len)?;
        let data = self.overlay_stuck_bits(&stored.blocks, offset, &stored.data[range]);
        let time = self.model.read_page * self.model.pages_touched(offset, len);
        Ok(TimedRead { data, time })
    }

    /// Removes a file, returning whether it existed. Its blocks return to
    /// the free pool without an erase; its handle stays its own.
    ///
    /// # Panics
    ///
    /// Panics when `file` was not issued by this store.
    pub fn remove(&mut self, file: FileId) -> bool {
        self.restamp();
        match self.slots[file.0 as usize].file.take() {
            Some(stored) => {
                self.free.extend(stored.blocks);
                self.live_files -= 1;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_rounds_up_to_blocks() {
        let m = FlashModel::default();
        assert_eq!(m.allocated_bytes(0), 0);
        assert_eq!(m.allocated_bytes(1), 4_096);
        assert_eq!(m.allocated_bytes(4_096), 4_096);
        assert_eq!(m.allocated_bytes(4_097), 8_192);
    }

    #[test]
    fn a_500_byte_result_wastes_most_of_its_block() {
        // §5.2.2: a 500-byte search result file occupies 4-16x its size
        // depending on block size. With 4 KiB blocks that is ~8x.
        let m = FlashModel::default();
        let factor = m.allocated_bytes(500) as f64 / 500.0;
        assert!((factor - 8.192).abs() < 0.01);
    }

    #[test]
    fn pages_touched_counts_straddles() {
        let m = FlashModel::default();
        assert_eq!(m.pages_touched(0, 0), 0);
        assert_eq!(m.pages_touched(0, 1), 1);
        assert_eq!(m.pages_touched(0, 2_048), 1);
        assert_eq!(m.pages_touched(2_047, 2), 2);
        assert_eq!(m.pages_touched(1_000, 4_096), 3);
    }

    #[test]
    fn pages_touched_boundary_cases() {
        let m = FlashModel::default();
        // Offset exactly on a page boundary.
        assert_eq!(m.pages_touched(2_048, 1), 1);
        assert_eq!(m.pages_touched(2_048, 2_048), 1);
        assert_eq!(m.pages_touched(2_048, 2_049), 2);
        // A whole block's worth of bytes from a block boundary.
        assert_eq!(m.pages_touched(4_096, 4_096), 2);
        // Zero-length at any offset, including extreme ones.
        assert_eq!(m.pages_touched(u64::MAX, 0), 0);
        // Ranges whose end would overflow u64 must not wrap to page 0.
        let huge = m.pages_touched(u64::MAX - 1, 4);
        assert!(huge >= 1, "saturated, not wrapped: {huge}");
    }

    #[test]
    fn allocated_bytes_saturates_instead_of_overflowing() {
        let m = FlashModel::default();
        // Rounding u64::MAX up to a block multiple cannot be represented;
        // saturating beats panicking or wrapping to a tiny number.
        assert_eq!(m.allocated_bytes(u64::MAX), u64::MAX);
        assert_eq!(m.allocated_bytes(u64::MAX - 4_096), u64::MAX - 4_095);
    }

    #[test]
    fn bounds_checks_do_not_overflow() {
        let mut fs = FlashStore::new(FlashModel::default());
        let f = fs.create("f");
        fs.write_file(f, vec![0u8; 16]);
        // offset + len wraps u64 — must be an error, not a successful
        // read through a wrapped bounds check.
        assert!(matches!(
            fs.read(f, u64::MAX, 2),
            Err(FlashError::ReadPastEnd { .. })
        ));
        assert!(matches!(
            fs.overwrite(f, u64::MAX, &[1, 2]),
            Err(FlashError::ReadPastEnd { .. })
        ));
        assert!(matches!(
            fs.program(f, u64::MAX, &[1, 2]),
            Err(FlashError::ReadPastEnd { .. })
        ));
    }

    #[test]
    fn write_read_round_trip() {
        let mut fs = FlashStore::new(FlashModel::default());
        let f = fs.create("f");
        fs.write_file(f, b"hello flash".to_vec());
        let r = fs.read(f, 6, 5).unwrap();
        assert_eq!(r.data, Cow::Borrowed(b"flash".as_slice()));
        assert_eq!(r.time, FlashModel::default().read_page);
    }

    #[test]
    fn reads_borrow_the_stored_bytes_when_wear_is_off() {
        let mut fs = FlashStore::new(FlashModel::default());
        let f = fs.create("f");
        for _ in 0..500 {
            fs.write_file(f, b"hello flash".to_vec());
        }
        let r = fs.read(f, 0, 11).unwrap();
        assert!(matches!(r.data, Cow::Borrowed(b"hello flash")));
    }

    /// The copying read the borrowing one replaced: copy the range, then
    /// overlay every stuck bit of the file's blocks that lands in it.
    /// Returns the bytes and whether any stuck bit landed.
    fn copying_read(fs: &FlashStore, file: FileId, offset: u64, len: u64) -> (Vec<u8>, bool) {
        let file = fs.file(file).unwrap().1;
        let mut data = file.data[offset as usize..(offset + len) as usize].to_vec();
        let mut stuck_in_range = false;
        for (index, id) in file.blocks.iter().enumerate() {
            for bit in fs.blocks.get(id).map_or(&[][..], |s| &s.stuck) {
                let position = index as u64 * fs.model.block_bytes + u64::from(bit.offset);
                if (offset..offset + len).contains(&position) {
                    stuck_in_range = true;
                    let byte = &mut data[(position - offset) as usize];
                    if bit.stuck_one {
                        *byte |= bit.mask;
                    } else {
                        *byte &= !bit.mask;
                    }
                }
            }
        }
        (data, stuck_in_range)
    }

    #[test]
    fn worn_reads_copy_only_ranges_holding_a_stuck_bit() {
        let model = FlashModel {
            wear: WearModel {
                enabled: true,
                seed: 11,
                ..WearModel::default()
            },
            ..FlashModel::default()
        };
        let mut fs = FlashStore::new(model);
        let f = fs.create("f");
        fs.write_file(f, (0..8_192u32).map(|i| (i * 7) as u8).collect());
        let second = fs.file_block_ids(f).unwrap()[1];
        fs.age_block(second, 400);
        assert!(fs.wear_summary().stuck_bits > 0);

        let (mut borrowed, mut owned) = (0, 0);
        for offset in (0..8_192 - 600).step_by(250) {
            let read = fs.read(f, offset, 600).unwrap();
            let (expected, stuck_in_range) = copying_read(&fs, f, offset, 600);
            assert_eq!(read.data, expected, "overlay at offset {offset}");
            match read.data {
                Cow::Owned(_) => owned += 1,
                Cow::Borrowed(_) => borrowed += 1,
            }
            assert_eq!(
                matches!(read.data, Cow::Owned(_)),
                stuck_in_range,
                "a read copies exactly when a stuck bit is in range (offset {offset})"
            );
        }
        assert!(
            borrowed > 0 && owned > 0,
            "{borrowed} borrowed, {owned} owned"
        );
    }

    #[test]
    fn read_errors_are_specific() {
        let mut fs = FlashStore::new(FlashModel::default());
        let f = fs.create("f");
        let missing = fs.create("missing");
        fs.remove(missing);
        fs.write_file(f, vec![0; 10]);
        assert!(matches!(
            fs.read(missing, 0, 1),
            Err(FlashError::FileNotFound(_))
        ));
        assert!(matches!(
            fs.read(f, 8, 5),
            Err(FlashError::ReadPastEnd { size: 10, .. })
        ));
    }

    #[test]
    fn append_returns_offset_and_extends() {
        let mut fs = FlashStore::new(FlashModel::default());
        let log = fs.create("log");
        let (off0, _) = fs.append(log, b"aaaa").unwrap();
        let (off1, _) = fs.append(log, b"bb").unwrap();
        assert_eq!((off0, off1), (0, 4));
        assert_eq!(fs.file_size(log), Some(6));
    }

    #[test]
    fn fragmentation_grows_with_file_count() {
        let model = FlashModel::default();
        let payload = vec![0u8; 10_000];
        let mut one = FlashStore::new(model);
        let all = one.create("all");
        one.write_file(all, payload.clone());

        let mut many = FlashStore::new(model);
        for (i, chunk) in payload.chunks(100).enumerate() {
            let f = many.create(&format!("f{i}"));
            many.write_file(f, chunk.to_vec());
        }
        assert_eq!(one.logical_bytes(), many.logical_bytes());
        assert!(many.fragmentation_bytes() > one.fragmentation_bytes());
    }

    #[test]
    fn open_cost_scales_with_population() {
        let mut fs = FlashStore::new(FlashModel::default());
        let empty = fs.open_cost();
        for i in 0..100 {
            let f = fs.create(&format!("f{i}"));
            fs.write_file(f, vec![0]);
        }
        assert_eq!(
            fs.open_cost(),
            empty + FlashModel::default().dir_lookup_per_file * 100
        );
    }

    #[test]
    fn overwrite_modifies_in_place_and_charges_pages() {
        let mut fs = FlashStore::new(FlashModel::default());
        let f = fs.create("f");
        let missing = fs.create("missing");
        fs.remove(missing);
        fs.write_file(f, vec![0u8; 100]);
        let t = fs.overwrite(f, 10, b"xyz").unwrap();
        assert_eq!(t, FlashModel::default().program_page);
        assert_eq!(*fs.read(f, 10, 3).unwrap().data, *b"xyz");
        assert_eq!(fs.file_size(f), Some(100), "size unchanged");
        assert!(
            fs.overwrite(f, 99, b"ab").is_err(),
            "cannot grow via overwrite"
        );
        assert!(fs.overwrite(missing, 0, b"a").is_err());
    }

    #[test]
    fn a_name_keeps_its_handle_and_a_removed_handle_reads_nothing_else() {
        let mut fs = FlashStore::new(FlashModel::default());
        let a = fs.create("a");
        fs.write_file(a, b"first".to_vec());
        let b = fs.create("b");
        fs.write_file(b, b"other".to_vec());
        assert_ne!(a, b);
        fs.write_file(a, b"rewritten".to_vec());
        assert_eq!(fs.create("a"), a, "a rewrite keeps the handle");
        assert_eq!(fs.file_name(a), "a");

        assert!(fs.remove(a));
        assert_eq!(
            fs.open_cost(),
            fs.model().file_open + fs.model().dir_lookup_per_file
        );
        let c = fs.create("c");
        fs.write_file(c, b"newer".to_vec());
        assert_ne!(c, a, "a new name never takes a removed file's slot");
        assert_eq!(
            fs.read(a, 0, 5),
            Err(FlashError::FileNotFound("a".to_owned())),
            "the removed file's handle names it and reads no other bytes"
        );
        assert_eq!(fs.file_size(a), None);
        assert_eq!(
            fs.files()
                .map(|(id, name)| (id, name.to_owned()))
                .collect::<Vec<_>>(),
            vec![(b, "b".to_owned()), (c, "c".to_owned())]
        );

        // Writing the handle again brings the file back under it.
        fs.write_file(a, b"restored".to_vec());
        assert_eq!(fs.create("a"), a);
        assert_eq!(*fs.read(a, 0, 8).unwrap().data, *b"restored");
        assert_eq!(
            fs.open_cost(),
            fs.model().file_open + fs.model().dir_lookup_per_file * 3
        );
    }

    #[test]
    fn remove_frees_allocation() {
        let mut fs = FlashStore::new(FlashModel::default());
        let f = fs.create("f");
        fs.write_file(f, vec![0; 100]);
        assert!(fs.remove(f));
        assert!(!fs.remove(f));
        assert_eq!(fs.allocated_bytes(), 0);
    }

    #[test]
    fn read_bandwidth_is_pages_per_second() {
        let m = FlashModel::default();
        // 2048 B / 300 us = ~6.8 MB/s.
        assert!((m.read_bandwidth_bps() / 1e6 - 6.83).abs() < 0.01);
    }

    // ---- wear model -----------------------------------------------------

    #[test]
    fn erase_cycles_count_per_operation() {
        let mut fs = FlashStore::new(FlashModel::default());
        let f = fs.create("f");
        let g = fs.create("g");
        // Fresh two-block file: one erase per block.
        fs.write_file(f, vec![0u8; 8_192]);
        assert_eq!(fs.wear_summary().total_erases, 2);
        // In-place overwrite inside one block: one more erase on that block.
        fs.overwrite(f, 0, &[1, 2, 3]).unwrap();
        assert_eq!(fs.wear_summary().total_erases, 3);
        // Overwrite straddling both blocks: two erases.
        fs.overwrite(f, 4_090, &[0u8; 12]).unwrap();
        assert_eq!(fs.wear_summary().total_erases, 5);
        // Append within the last block's free space: no erase...
        fs.write_file(g, vec![0u8; 100]);
        let erases = fs.wear_summary().total_erases;
        fs.append(g, &[7; 10]).unwrap();
        assert_eq!(fs.wear_summary().total_erases, erases);
        // ...but growing past the block allocates (and erases) a new one.
        fs.append(g, &vec![7u8; 4_096]).unwrap();
        assert_eq!(fs.wear_summary().total_erases, erases + 1);
    }

    #[test]
    fn zero_length_writes_to_worn_blocks_are_free_and_harmless() {
        let model = FlashModel {
            wear: WearModel {
                enabled: true,
                seed: 7,
                ..WearModel::default()
            },
            ..FlashModel::default()
        };
        let mut fs = FlashStore::new(model);
        let f = fs.create("f");
        fs.write_file(f, vec![0xAA; 64]);
        let block = fs.file_block_ids(f).unwrap()[0];
        fs.age_block(block, 500);
        let before = fs.wear_summary();
        assert!(before.stuck_bits > 0, "aging injected failures");

        let t = fs.overwrite(f, 0, &[]).unwrap();
        assert_eq!(t, SimDuration::ZERO);
        let (off, t) = fs.append(f, &[]).unwrap();
        assert_eq!((off, t), (64, SimDuration::ZERO));
        assert_eq!(
            fs.wear_summary(),
            before,
            "zero-len writes cost no erases and inject nothing"
        );
        // Zero-length reads of a worn file are legal and empty.
        assert_eq!(fs.read(f, 64, 0).unwrap().data, Vec::<u8>::new());
    }

    #[test]
    fn wear_disabled_reads_are_clean_even_after_heavy_rewrites() {
        let mut fs = FlashStore::new(FlashModel::default());
        let f = fs.create("f");
        for _ in 0..1_000 {
            fs.write_file(f, vec![0x5A; 256]);
        }
        assert!(fs.wear_summary().max_erase_cycles >= 1_000);
        assert_eq!(fs.wear_summary().stuck_bits, 0, "injection is off");
        assert_eq!(fs.read(f, 0, 256).unwrap().data, vec![0x5A; 256]);
    }

    #[test]
    fn worn_blocks_develop_deterministic_stuck_bits() {
        let build = || {
            let model = FlashModel {
                wear: WearModel {
                    enabled: true,
                    safe_erase_cycles: 10,
                    bit_failure_every: 2,
                    seed: 42,
                },
                ..FlashModel::default()
            };
            let mut fs = FlashStore::new(model);
            let f = fs.create("f");
            fs.write_file(f, vec![0x00; 4_096]);
            for _ in 0..29 {
                fs.write_file(f, vec![0x00; 4_096]);
            }
            (fs, f)
        };
        let (a, f) = build();
        let (b, _) = build();
        // 30 erases, threshold 10, cadence 2 -> draws at cycles 12,14,...,30.
        assert!(a.wear_summary().stuck_bits > 0);
        assert!(a.wear_summary().stuck_bits <= 10);
        assert_eq!(a, b, "identical history => identical wear state");
        assert_eq!(
            a.read(f, 0, 4_096).unwrap().data,
            b.read(f, 0, 4_096).unwrap().data,
            "corruption is deterministic in the seed"
        );
        // Stored zeros read back with every stuck-at-1 cell set.
        let ones: usize = a
            .read(f, 0, 4_096)
            .unwrap()
            .data
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum();
        let expected: usize = a
            .blocks
            .values()
            .flat_map(|s| &s.stuck)
            .filter(|s| s.stuck_one)
            .count();
        assert_eq!(ones, expected, "exactly the stuck-at-1 cells read as 1");
    }

    #[test]
    fn stuck_at_zero_clears_bits_on_read() {
        let model = FlashModel {
            wear: WearModel {
                enabled: true,
                safe_erase_cycles: 0,
                bit_failure_every: 1,
                seed: 3,
            },
            ..FlashModel::default()
        };
        let mut fs = FlashStore::new(model);
        let f = fs.create("f");
        fs.write_file(f, vec![0xFF; 4_096]);
        let block = fs.file_block_ids(f).unwrap()[0];
        fs.age_block(block, 64);
        let zeros: usize = fs
            .read(f, 0, 4_096)
            .unwrap()
            .data
            .iter()
            .map(|b| b.count_zeros() as usize)
            .sum();
        let expected: usize = fs
            .blocks
            .values()
            .flat_map(|s| &s.stuck)
            .filter(|s| !s.stuck_one)
            .count();
        assert_eq!(
            zeros, expected,
            "stored 0xFF reads back 0 exactly at stuck-at-0 cells"
        );
        // The stored bytes themselves are untouched: disabling wear
        // makes the file read clean again (cells lie only on the way out).
        fs.set_wear(WearModel::default());
        assert_eq!(fs.read(f, 0, 4_096).unwrap().data, vec![0xFF; 4_096]);
    }

    #[test]
    fn stuck_bits_outside_the_read_range_do_not_corrupt_it() {
        let model = FlashModel {
            wear: WearModel {
                enabled: true,
                seed: 9,
                ..WearModel::default()
            },
            ..FlashModel::default()
        };
        let mut fs = FlashStore::new(model);
        let f = fs.create("f");
        fs.write_file(f, vec![0x00; 8_192]);
        let second = fs.file_block_ids(f).unwrap()[1];
        fs.age_block(second, 400);
        assert!(fs.wear_summary().stuck_bits > 0);
        // Block 0 is healthy; reads confined to it stay clean.
        assert_eq!(fs.read(f, 0, 4_096).unwrap().data, vec![0x00; 4_096]);
    }

    #[test]
    fn program_is_bitwise_and_without_erase() {
        let mut fs = FlashStore::new(FlashModel::default());
        let f = fs.create("f");
        let missing = fs.create("missing");
        fs.remove(missing);
        fs.write_file(f, vec![0b1111_0000; 4]);
        let erases = fs.wear_summary().total_erases;
        let t = fs.program(f, 0, &[0b1010_1010; 4]).unwrap();
        assert_eq!(t, FlashModel::default().program_page);
        assert_eq!(
            fs.read(f, 0, 4).unwrap().data,
            vec![0b1010_0000; 4],
            "program can only clear bits"
        );
        assert_eq!(
            fs.wear_summary().total_erases,
            erases,
            "programming erased nothing"
        );
        assert!(fs.program(missing, 0, &[0]).is_err());
    }

    #[test]
    fn lowest_id_policy_concentrates_wear() {
        let mut fs = FlashStore::new(FlashModel::default());
        let f = fs.create("f");
        for _ in 0..50 {
            fs.write_file(f, vec![0u8; 100]);
        }
        // The naive allocator reuses block 0 every time.
        assert_eq!(fs.file_block_ids(f), Some(&[0u64][..]));
        assert_eq!(fs.erase_cycles(0), 50);
        assert_eq!(fs.wear_summary().tracked_blocks, 1);
    }

    #[test]
    fn least_worn_policy_rotates_across_spares() {
        let model = FlashModel {
            alloc: AllocPolicy::LeastWorn { spares: 4 },
            ..FlashModel::default()
        };
        let mut fs = FlashStore::new(model);
        let f = fs.create("f");
        for _ in 0..50 {
            fs.write_file(f, vec![0u8; 100]);
        }
        let summary = fs.wear_summary();
        assert!(
            summary.tracked_blocks >= 4,
            "wear spread over the spare pool: {summary:?}"
        );
        assert!(
            summary.erase_spread() <= 2,
            "least-worn keeps blocks within a couple cycles: {summary:?}"
        );
        assert_eq!(summary.total_erases, 50);
    }

    // ---- content stamp --------------------------------------------------

    /// A store with wear injection on (every erase past the first draws a
    /// stuck bit) and one 8 KiB file.
    fn worn_store() -> (FlashStore, FileId) {
        let model = FlashModel {
            wear: WearModel {
                enabled: true,
                safe_erase_cycles: 1,
                bit_failure_every: 1,
                seed: 5,
            },
            ..FlashModel::default()
        };
        let mut fs = FlashStore::new(model);
        let f = fs.create("f");
        fs.write_file(f, vec![0x0F; 8_192]);
        (fs, f)
    }

    #[test]
    fn every_mutation_redraws_the_stamp_and_reads_keep_it() {
        type Mutation = fn(&mut FlashStore, FileId);
        let mutations: [(&str, Mutation); 12] = [
            ("create (new name)", |fs, _| {
                fs.create("g");
            }),
            ("create (existing name)", |fs, _| {
                fs.create("f");
            }),
            ("write_file", |fs, f| {
                fs.write_file(f, vec![0x0F; 8_192]);
            }),
            ("append", |fs, f| {
                fs.append(f, &[1, 2, 3]).unwrap();
            }),
            ("overwrite", |fs, f| {
                fs.overwrite(f, 10, &[9]).unwrap();
            }),
            ("program", |fs, f| {
                fs.program(f, 20, &[0x01]).unwrap();
            }),
            ("program (bits already clear)", |fs, f| {
                fs.program(f, 20, &[0xFF]).unwrap();
            }),
            ("age_block", |fs, f| {
                let block = fs.file_block_ids(f).unwrap()[1];
                fs.age_block(block, 1);
            }),
            ("set_wear", |fs, _| fs.set_wear(WearModel::default())),
            ("set_alloc_policy", |fs, _| {
                fs.set_alloc_policy(AllocPolicy::LeastWorn { spares: 2 })
            }),
            ("remove", |fs, f| {
                fs.remove(f);
            }),
            ("remove (already gone)", |fs, f| {
                fs.remove(f);
            }),
        ];
        let (mut fs, f) = worn_store();
        let mut seen = BTreeSet::from([fs.stamp()]);
        for (name, mutate) in mutations {
            let before = fs.stamp();
            let _ = fs.read(f, 0, 64);
            let _ = fs.file_size(f);
            assert_eq!(fs.stamp(), before, "reads before {name} keep the stamp");
            mutate(&mut fs, f);
            assert!(seen.insert(fs.stamp()), "{name} drew a stamp never held");
        }
    }

    #[test]
    fn clones_share_the_stamp_until_one_of_them_changes() {
        let (a, f) = worn_store();
        let (mut b, mut c) = (a.clone(), a.clone());
        assert_eq!((b.stamp(), c.stamp()), (a.stamp(), a.stamp()));
        // The same change applied apart still draws two stamps.
        b.program(f, 0, &[0x01]).unwrap();
        c.program(f, 0, &[0x01]).unwrap();
        assert_eq!(b, c, "same bytes");
        let stamps = BTreeSet::from([a.stamp(), b.stamp(), c.stamp()]);
        assert_eq!(stamps.len(), 3, "no two clones changed apart share one");
        b.overwrite(f, 0, &[1]).unwrap();
        c.overwrite(f, 0, &[2]).unwrap();
        assert_ne!(b, c);
        assert_ne!(b.stamp(), c.stamp());
    }

    #[test]
    fn stores_with_one_history_compare_equal_whatever_their_stamps() {
        let (mut a, f) = worn_store();
        let (mut b, _) = worn_store();
        for fs in [&mut a, &mut b] {
            let block = fs.file_block_ids(f).unwrap()[0];
            fs.age_block(block, 3);
            fs.append(f, b"tail").unwrap();
        }
        assert_ne!(a.stamp(), b.stamp());
        assert_eq!(a, b);
    }

    #[test]
    fn removed_files_release_blocks_for_reuse() {
        let mut fs = FlashStore::new(FlashModel::default());
        let a = fs.create("a");
        let b = fs.create("b");
        fs.write_file(a, vec![0u8; 100]);
        fs.write_file(b, vec![0u8; 100]);
        assert_eq!(fs.file_block_ids(b), Some(&[1u64][..]));
        fs.remove(a);
        let c = fs.create("c");
        fs.write_file(c, vec![0u8; 100]);
        assert_eq!(
            fs.file_block_ids(c),
            Some(&[0u64][..]),
            "lowest-id reuses the freed block"
        );
    }
}
