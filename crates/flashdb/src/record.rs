//! Search-result records and their wire encoding.
//!
//! For every search result the database stores "its title, which serves as
//! the hyperlink to the landing page, a short description of the landing
//! page and the human readable form of the hyperlink" (§5.2.2) — about
//! 500 bytes per result on average.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 lookup tables. `CRC32_TABLES[0][b]` is the CRC of the
/// single byte `b`; `CRC32_TABLES[k][b]` is the CRC of `b` followed by
/// `k` zero bytes, so sixteen input bytes fold into the state with
/// sixteen independent lookups instead of 128 shift/xor steps.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 0 {
                crc >> 1
            } else {
                (crc >> 1) ^ CRC32_POLY
            };
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32 (IEEE 802.3 reflected polynomial, the zlib/PNG one).
///
/// Every [`ResultRecord`] carries this checksum over its encoded bytes so
/// that media corruption — e.g. a stuck NAND cell flipping one bit of a
/// snippet — is always *detected*: a corrupted record decodes to a typed
/// error, never to a silently different record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds bytes into the checksum, sixteen at a time through the
    /// slice-by-16 tables and the tail one byte at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut crc = self.state;
        let (blocks, tail) = bytes.as_chunks::<16>();
        for b in blocks {
            let lo = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
                ^ u64::from(crc);
            let hi = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]);
            crc = t[15][lo as u8 as usize]
                ^ t[14][(lo >> 8) as u8 as usize]
                ^ t[13][(lo >> 16) as u8 as usize]
                ^ t[12][(lo >> 24) as u8 as usize]
                ^ t[11][(lo >> 32) as u8 as usize]
                ^ t[10][(lo >> 40) as u8 as usize]
                ^ t[9][(lo >> 48) as u8 as usize]
                ^ t[8][(lo >> 56) as usize]
                ^ t[7][hi as u8 as usize]
                ^ t[6][(hi >> 8) as u8 as usize]
                ^ t[5][(hi >> 16) as u8 as usize]
                ^ t[4][(hi >> 24) as u8 as usize]
                ^ t[3][(hi >> 32) as u8 as usize]
                ^ t[2][(hi >> 40) as u8 as usize]
                ^ t[1][(hi >> 48) as u8 as usize]
                ^ t[0][(hi >> 56) as usize];
        }
        for &byte in tail {
            crc = (crc >> 8) ^ t[0][(crc as u8 ^ byte) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }

    /// One-shot checksum of a byte slice.
    pub fn of(bytes: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(bytes);
        crc.finish()
    }
}

/// One stored search result.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResultRecord {
    /// Stable hash of the result URL; the record's database key.
    pub result_hash: u64,
    /// Title text (the tappable hyperlink).
    pub title: String,
    /// Human-readable form of the hyperlink.
    pub display_url: String,
    /// Short description of the landing page.
    pub snippet: String,
}

/// Errors from decoding a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the record did.
    Truncated,
    /// A field was not valid UTF-8.
    InvalidUtf8,
    /// The stored CRC-32 does not match the decoded bytes: the record was
    /// damaged in a way that still parsed (e.g. a flipped bit inside a
    /// text field).
    ChecksumMismatch {
        /// Checksum stored with the record.
        stored: u32,
        /// Checksum recomputed from the decoded bytes.
        computed: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "record bytes were truncated"),
            DecodeError::InvalidUtf8 => write!(f, "record field was not valid utf-8"),
            DecodeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "record checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One record decoded in place: its text fields borrow the bytes it
/// was decoded from, so a reader that only needs to know the record is
/// good (or needs a field or two) copies nothing.
///
/// [`RecordView::decode`] is the one record decoder: it checks the
/// bounds of every field, UTF-8, and the CRC-32, and
/// [`ResultRecord::decode`] is this decoder plus [`RecordView::to_owned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Stable hash of the result URL; the record's database key.
    pub result_hash: u64,
    /// Title text (the tappable hyperlink).
    pub title: &'a str,
    /// Human-readable form of the hyperlink.
    pub display_url: &'a str,
    /// Short description of the landing page.
    pub snippet: &'a str,
}

impl<'a> RecordView<'a> {
    /// Decodes the record at the front of `bytes`, verifying its CRC-32;
    /// bytes past the record are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] when `bytes` is too short,
    /// [`DecodeError::InvalidUtf8`] for corrupt text fields, and
    /// [`DecodeError::ChecksumMismatch`] when the bytes parsed but do not
    /// match the stored checksum.
    pub fn decode(bytes: &'a [u8]) -> Result<RecordView<'a>, DecodeError> {
        Reader { bytes, pos: 0 }.view()
    }

    /// Bytes of the record's encoding: what [`decode`](Self::decode)
    /// consumed, and what [`ResultRecord::encode`] writes for it.
    pub fn encoded_len(&self) -> usize {
        encoded_len(self.title, self.display_url, self.snippet)
    }

    /// An owned copy of the record.
    pub fn to_owned(&self) -> ResultRecord {
        ResultRecord {
            result_hash: self.result_hash,
            title: self.title.to_owned(),
            display_url: self.display_url.to_owned(),
            snippet: self.snippet.to_owned(),
        }
    }
}

/// The encoded size of a record with these fields: an 8-byte hash,
/// three 16-bit length-prefixed fields, and a trailing CRC-32.
fn encoded_len(title: &str, display_url: &str, snippet: &str) -> usize {
    8 + 2 + title.len() + 2 + display_url.len() + 2 + snippet.len() + 4
}

/// A cursor over one contiguous record encoding. `pos` counts the bytes
/// consumed so far, and an error leaves it just past the last field that
/// was read whole — the length prefix of a short field, the bytes of a
/// field that is not UTF-8, the whole record on a checksum mismatch.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Consumes the next `len` bytes, or nothing when fewer remain.
    fn take(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let taken = self
            .bytes
            .get(self.pos..self.pos + len)
            .ok_or(DecodeError::Truncated)?;
        self.pos += len;
        Ok(taken)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.take(N)?.try_into().map_err(|_| DecodeError::Truncated)
    }

    /// A 16-bit length prefix and that many bytes of UTF-8 text.
    fn text(&mut self) -> Result<&'a str, DecodeError> {
        let len = usize::from(u16::from_le_bytes(self.array()?));
        std::str::from_utf8(self.take(len)?).map_err(|_| DecodeError::InvalidUtf8)
    }

    fn view(&mut self) -> Result<RecordView<'a>, DecodeError> {
        let result_hash = u64::from_le_bytes(self.array()?);
        let title = self.text()?;
        let display_url = self.text()?;
        let snippet = self.text()?;
        let bytes = self.bytes;
        let body = &bytes[..self.pos];
        let stored = u32::from_le_bytes(self.array()?);
        let computed = Crc32::of(body);
        if stored != computed {
            return Err(DecodeError::ChecksumMismatch { stored, computed });
        }
        Ok(RecordView {
            result_hash,
            title,
            display_url,
            snippet,
        })
    }
}

impl ResultRecord {
    /// Creates a record.
    ///
    /// # Panics
    ///
    /// Panics if any field exceeds `u16::MAX` bytes — fields are
    /// length-prefixed with 16 bits.
    pub fn new(
        result_hash: u64,
        title: impl Into<String>,
        display_url: impl Into<String>,
        snippet: impl Into<String>,
    ) -> Self {
        let record = ResultRecord {
            result_hash,
            title: title.into(),
            display_url: display_url.into(),
            snippet: snippet.into(),
        };
        for (name, field) in [
            ("title", &record.title),
            ("display_url", &record.display_url),
            ("snippet", &record.snippet),
        ] {
            assert!(
                field.len() <= usize::from(u16::MAX),
                "{name} exceeds the 16-bit length prefix"
            );
        }
        record
    }

    /// Encoded size in bytes: an 8-byte hash, three length-prefixed
    /// fields, and a trailing CRC-32.
    pub fn encoded_len(&self) -> usize {
        encoded_len(&self.title, &self.display_url, &self.snippet)
    }

    /// Encodes the record. The trailing CRC-32 covers every preceding
    /// byte, so any single corrupted bit is detectable at decode time.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_u64_le(self.result_hash);
        for field in [&self.title, &self.display_url, &self.snippet] {
            buf.put_u16_le(field.len() as u16);
            buf.put_slice(field.as_bytes());
        }
        buf.put_u32_le(Crc32::of(&buf));
        buf.freeze()
    }

    /// Decodes one record from the front of `buf`, verifying its CRC-32:
    /// [`RecordView::decode`] over the contiguous [`Buf::chunk`], then
    /// [`RecordView::to_owned`], so the text is copied out only once the
    /// record is known good. `buf` advances past the record, or on an
    /// error past the fields read before it. A record split across
    /// chunks reads as truncated; every `Buf` this crate decodes from is
    /// a single chunk.
    ///
    /// # Errors
    ///
    /// As [`RecordView::decode`].
    pub fn decode(buf: &mut impl Buf) -> Result<ResultRecord, DecodeError> {
        let mut reader = Reader {
            bytes: buf.chunk(),
            pos: 0,
        };
        let view = reader.view();
        let consumed = reader.pos;
        let record = view.map(|v| v.to_owned());
        buf.advance(consumed);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> ResultRecord {
        ResultRecord::new(
            0xdead_beef,
            "Michael Jackson — IMDb",
            "imdb.com/name/nm0001391",
            "Biography of the King of Pop.",
        )
    }

    /// The bit-at-a-time CRC-32 the table-driven one replaced: the
    /// reference every table lookup must agree with.
    fn bitwise_update(state: &mut u32, bytes: &[u8]) {
        for &byte in bytes {
            *state ^= u32::from(byte);
            for _ in 0..8 {
                let lsb = *state & 1;
                *state >>= 1;
                if lsb != 0 {
                    *state ^= CRC32_POLY;
                }
            }
        }
    }

    fn bitwise_crc(bytes: &[u8]) -> u32 {
        let mut state = !0;
        bitwise_update(&mut state, bytes);
        !state
    }

    /// The streaming decoder the in-place one replaced, checksumming
    /// piecewise with the bitwise CRC: the reference for every error,
    /// record, and byte consumed.
    fn reference_decode(buf: &mut impl Buf) -> Result<ResultRecord, DecodeError> {
        fn field(buf: &mut impl Buf, crc: &mut u32) -> Result<String, DecodeError> {
            if buf.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            let len = buf.get_u16_le();
            bitwise_update(crc, &len.to_le_bytes());
            let len = usize::from(len);
            if buf.remaining() < len {
                return Err(DecodeError::Truncated);
            }
            let mut bytes = vec![0u8; len];
            buf.copy_to_slice(&mut bytes);
            bitwise_update(crc, &bytes);
            String::from_utf8(bytes).map_err(|_| DecodeError::InvalidUtf8)
        }
        let mut crc = !0;
        if buf.remaining() < 8 {
            return Err(DecodeError::Truncated);
        }
        let result_hash = buf.get_u64_le();
        bitwise_update(&mut crc, &result_hash.to_le_bytes());
        let title = field(buf, &mut crc)?;
        let display_url = field(buf, &mut crc)?;
        let snippet = field(buf, &mut crc)?;
        if buf.remaining() < 4 {
            return Err(DecodeError::Truncated);
        }
        let stored = buf.get_u32_le();
        let computed = !crc;
        if stored != computed {
            return Err(DecodeError::ChecksumMismatch { stored, computed });
        }
        Ok(ResultRecord {
            result_hash,
            title,
            display_url,
            snippet,
        })
    }

    /// Decodes `bytes` with both decoders and asserts they agree on the
    /// result and on how many bytes they consumed.
    fn assert_matches_reference(bytes: &[u8]) {
        let mut fast = bytes;
        let mut reference = bytes;
        assert_eq!(
            ResultRecord::decode(&mut fast),
            reference_decode(&mut reference),
            "decoders disagree on {bytes:02x?}"
        );
        assert_eq!(
            fast.len(),
            reference.len(),
            "decoders consumed different byte counts of {bytes:02x?}"
        );
    }

    /// Text with one- to three-byte UTF-8 characters, so a flipped byte
    /// can break a multi-byte sequence.
    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u32..0x3000, 0..60)
            .prop_map(|chars| chars.into_iter().filter_map(char::from_u32).collect())
    }

    fn record() -> impl Strategy<Value = ResultRecord> {
        (any::<u64>(), text(), text(), text())
            .prop_map(|(hash, title, url, snippet)| ResultRecord::new(hash, title, url, snippet))
    }

    /// Bytes shaped like a record — a hash and three fields whose length
    /// prefixes may or may not match what follows — plus a random tail.
    fn record_shaped_bytes() -> impl Strategy<Value = Vec<u8>> {
        (
            any::<u64>(),
            proptest::collection::vec(
                (0u16..40, proptest::collection::vec(any::<u8>(), 0..40)),
                0..4,
            ),
            proptest::collection::vec(any::<u8>(), 0..12),
        )
            .prop_map(|(hash, fields, tail)| {
                let mut bytes = hash.to_le_bytes().to_vec();
                for (len, body) in fields {
                    bytes.extend_from_slice(&len.to_le_bytes());
                    bytes.extend_from_slice(&body);
                }
                bytes.extend_from_slice(&tail);
                bytes
            })
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = sample();
        let encoded = r.encode();
        assert_eq!(encoded.len(), r.encoded_len());
        let decoded = ResultRecord::decode(&mut encoded.clone()).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn truncation_is_detected_at_every_boundary() {
        let full = sample().encode();
        for cut in [0, 4, 8, 9, 12, full.len() - 1] {
            let mut slice = full.slice(..cut);
            assert_eq!(
                ResultRecord::decode(&mut slice),
                Err(DecodeError::Truncated),
                "cut at {cut} should truncate"
            );
        }
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut bytes = BytesMut::new();
        bytes.put_u64_le(1);
        bytes.put_u16_le(2);
        bytes.put_slice(&[0xff, 0xfe]); // invalid UTF-8 title
        bytes.put_u16_le(0);
        bytes.put_u16_le(0);
        assert_eq!(
            ResultRecord::decode(&mut bytes.freeze()),
            Err(DecodeError::InvalidUtf8)
        );
    }

    #[test]
    fn empty_fields_are_legal() {
        let r = ResultRecord::new(5, "", "", "");
        let decoded = ResultRecord::decode(&mut r.encode()).unwrap();
        assert_eq!(decoded, r);
        // 8-byte hash + 3 empty length-prefixed fields + 4-byte CRC.
        assert_eq!(r.encoded_len(), 18);
    }

    #[test]
    fn crc32_matches_the_ieee_test_vector() {
        assert_eq!(Crc32::of(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc32::of(b""), 0);
        // Streaming in pieces equals one-shot.
        let mut crc = Crc32::new();
        crc.update(b"1234");
        crc.update(b"56789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }

    #[test]
    fn any_single_flipped_bit_is_detected() {
        let encoded = sample().encode().to_vec();
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut damaged = encoded.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    ResultRecord::decode(&mut damaged.as_slice()).is_err(),
                    "flip of byte {byte} bit {bit} must not decode silently"
                );
            }
        }
    }

    #[test]
    fn decode_consumes_exactly_one_record() {
        let a = sample();
        let b = ResultRecord::new(2, "t", "u", "s");
        let mut buf = BytesMut::new();
        buf.put_slice(&a.encode());
        buf.put_slice(&b.encode());
        let mut bytes = buf.freeze();
        assert_eq!(ResultRecord::decode(&mut bytes).unwrap(), a);
        assert_eq!(ResultRecord::decode(&mut bytes).unwrap(), b);
        assert_eq!(bytes.remaining(), 0);
    }

    proptest! {
        #[test]
        fn crc32_streamed_at_any_split_equals_the_bitwise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..1_200),
            splits in proptest::collection::vec(any::<usize>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = splits
                .into_iter()
                .map(|s| s % (bytes.len() + 1))
                .collect();
            cuts.push(0);
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            for pair in cuts.windows(2) {
                crc.update(&bytes[pair[0]..pair[1]]);
            }
            prop_assert_eq!(crc.finish(), bitwise_crc(&bytes));
            prop_assert_eq!(Crc32::of(&bytes), bitwise_crc(&bytes));
        }

        #[test]
        fn decode_of_arbitrary_bytes_matches_the_reference_decoder(
            bytes in prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..64),
                record_shaped_bytes(),
            ],
        ) {
            assert_matches_reference(&bytes);
        }

        #[test]
        fn view_decoder_and_to_owned_match_the_reference_on_hostile_bytes(
            r in record(),
            edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            keep in any::<usize>(),
            noise in proptest::collection::vec(any::<u8>(), 0..64),
            from_noise in any::<bool>(),
        ) {
            // Either pure noise, or a good encoding with a few bytes
            // overwritten and a random cut.
            let bytes = if from_noise {
                noise
            } else {
                let mut bytes = r.encode().to_vec();
                for (at, value) in edits {
                    let at = at % bytes.len();
                    bytes[at] = value;
                }
                bytes.truncate(keep % (bytes.len() + 1));
                bytes
            };
            prop_assert_eq!(
                RecordView::decode(&bytes).map(|v| v.to_owned()),
                reference_decode(&mut bytes.as_slice())
            );
        }

        #[test]
        fn decode_of_damaged_encodings_matches_the_reference_decoder(
            r in record(),
            truncate in any::<bool>(),
            at in any::<usize>(),
            mask in 1u8..=255,
            tail in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            let mut bytes = r.encode().to_vec();
            assert_matches_reference(&bytes);
            if truncate {
                bytes.truncate(at % bytes.len());
            } else {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
            bytes.extend_from_slice(&tail);
            assert_matches_reference(&bytes);
        }
    }
}
