//! The versioned, checksummed envelope around one encoded artifact.
//!
//! Every artifact a store persists (and every artifact a bounded memory
//! tier accounts by bytes) is wrapped in a frame:
//!
//! ```text
//! magic     8 bytes  b"PALOART\0"
//! format    u32 LE   FORMAT_VERSION of this envelope layout
//! pass      len-prefixed UTF-8 — the producing pass's stable name
//! pass_ver  u32 LE   the producing pass's schema version
//! length    u64 LE   payload byte count
//! checksum  u64 LE   FNV-1a 64 of the payload bytes
//! payload   `length` bytes — the artifact's [`Codec`] encoding
//! ```
//!
//! [`decode_frame`] validates everything before handing the payload
//! back: magic, envelope format, pass-name sanity, the declared length
//! against the actual byte count (both truncation *and* trailing
//! garbage), and the checksum. Every failure is a typed [`FrameError`]
//! — a store treats any of them as a cache miss plus a recorded
//! anomaly, never as a hard error, because a corrupt or torn on-disk
//! entry must cost a recompute, not an outage. [`read_verified_frame`]
//! reads bytes that already passed [`decode_frame`] without hashing the
//! payload again.
//!
//! [`Codec`]: crate::Codec

use crate::bytes::{ByteReader, ByteWriter};
use std::fmt;

/// The frame magic: identifies a palo artifact file.
pub const MAGIC: [u8; 8] = *b"PALOART\0";

/// Version of the envelope layout itself (not of any payload schema —
/// those are the per-pass versions folded into cache keys and stamped in
/// the frame header).
pub const FORMAT_VERSION: u32 = 1;

/// Longest accepted pass name; anything larger is header corruption.
const MAX_PASS_NAME: usize = 256;

/// Why a frame failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The input ended inside the header or the declared payload.
    Truncated,
    /// The first eight bytes are not [`MAGIC`].
    BadMagic,
    /// The envelope format version is not [`FORMAT_VERSION`].
    UnsupportedFormat(u32),
    /// The pass-name field is unreadable (bad length or invalid UTF-8).
    CorruptHeader,
    /// The declared payload length disagrees with the bytes present.
    LengthMismatch {
        /// Bytes the header declared.
        declared: u64,
        /// Bytes actually present after the header.
        present: u64,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated artifact frame"),
            FrameError::BadMagic => write!(f, "not an artifact frame (bad magic)"),
            FrameError::UnsupportedFormat(v) => {
                write!(f, "unsupported frame format {v} (expected {FORMAT_VERSION})")
            }
            FrameError::CorruptHeader => write!(f, "corrupt artifact frame header"),
            FrameError::LengthMismatch { declared, present } => {
                write!(f, "frame length mismatch: declared {declared}, present {present}")
            }
            FrameError::ChecksumMismatch => write!(f, "artifact frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A validated frame borrowed from its raw bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The producing pass's stable name.
    pub pass: &'a str,
    /// The producing pass's schema version.
    pub pass_version: u32,
    /// The artifact's encoded payload (checksum already verified).
    pub payload: &'a [u8],
}

/// FNV-1a 64 over `bytes` — the frame checksum. Not cryptographic; it
/// guards against torn writes and bit rot, not adversaries (the cache
/// directory is as trusted as the binary reading it).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wraps `payload` in a validated envelope.
pub fn encode_frame(pass: &str, pass_version: u32, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.write_raw(&MAGIC);
    w.write_u32(FORMAT_VERSION);
    w.write_str(pass);
    w.write_u32(pass_version);
    w.write_u64(payload.len() as u64);
    w.write_u64(checksum(payload));
    w.write_raw(payload);
    w.into_bytes()
}

/// Validates an envelope and returns the borrowed frame.
///
/// # Errors
///
/// A typed [`FrameError`] for every way bytes can fail to be a frame;
/// callers degrade all of them to a cache miss.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame<'_>, FrameError> {
    let (frame, sum) = parse_frame(bytes)?;
    if checksum(frame.payload) != sum {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok(frame)
}

/// Reads bytes that already passed [`decode_frame`] (a disk tier
/// validates every entry before it serves it): the same header and
/// length checks, without hashing the payload a second time.
///
/// # Errors
///
/// As [`decode_frame`], except that a checksum mismatch goes undetected.
pub fn read_verified_frame(bytes: &[u8]) -> Result<Frame<'_>, FrameError> {
    parse_frame(bytes).map(|(frame, _)| frame)
}

/// Checks everything but the checksum, and returns the frame with the
/// checksum its header declares.
fn parse_frame(bytes: &[u8]) -> Result<(Frame<'_>, u64), FrameError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.read_raw(MAGIC.len()).map_err(|_| FrameError::Truncated)?;
    if magic != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let format = r.read_u32().map_err(|_| FrameError::Truncated)?;
    if format != FORMAT_VERSION {
        return Err(FrameError::UnsupportedFormat(format));
    }
    // The name length doubles as a corruption tripwire: a huge value
    // means the header itself is damaged, not that a pass has a long
    // name. A sane length with too few bytes behind it is truncation.
    let pass_len = r.read_usize().map_err(|_| FrameError::Truncated)?;
    if pass_len > MAX_PASS_NAME {
        return Err(FrameError::CorruptHeader);
    }
    if pass_len > r.remaining() {
        return Err(FrameError::Truncated);
    }
    let pass_bytes = r.read_raw(pass_len).map_err(|_| FrameError::Truncated)?;
    let pass = std::str::from_utf8(pass_bytes).map_err(|_| FrameError::CorruptHeader)?;
    let pass_version = r.read_u32().map_err(|_| FrameError::Truncated)?;
    let declared = r.read_u64().map_err(|_| FrameError::Truncated)?;
    let sum = r.read_u64().map_err(|_| FrameError::Truncated)?;
    let present = r.remaining() as u64;
    if declared != present {
        return Err(FrameError::LengthMismatch { declared, present });
    }
    let payload = r.read_raw(present as usize).map_err(|_| FrameError::Truncated)?;
    Ok((Frame { pass, pass_version, payload }, sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let bytes = encode_frame("optimize", 3, b"payload bytes");
        let frame = decode_frame(&bytes).unwrap();
        assert_eq!(frame.pass, "optimize");
        assert_eq!(frame.pass_version, 3);
        assert_eq!(frame.payload, b"payload bytes");

        let empty = encode_frame("validate", 1, b"");
        assert_eq!(decode_frame(&empty).unwrap().payload, b"");
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let bytes = encode_frame("simulate", 2, &[7; 32]);
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated | FrameError::LengthMismatch { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn garbage_and_wrong_magic_are_rejected() {
        assert_eq!(
            decode_frame(b"not an artifact frame!!!").unwrap_err(),
            FrameError::BadMagic
        );
        assert_eq!(decode_frame(&[0xFF; 64]).unwrap_err(), FrameError::BadMagic);
    }

    #[test]
    fn wrong_format_version_is_typed() {
        let mut bytes = encode_frame("lower", 1, b"x");
        bytes[8] = 0xEE; // format version field
        assert!(matches!(decode_frame(&bytes).unwrap_err(), FrameError::UnsupportedFormat(_)));
    }

    #[test]
    fn flipped_payload_bit_fails_the_checksum() {
        let mut bytes = encode_frame("classify", 1, &[1, 2, 3, 4]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert_eq!(decode_frame(&bytes).unwrap_err(), FrameError::ChecksumMismatch);
    }

    #[test]
    fn read_verified_frame_skips_only_the_checksum() {
        let good = encode_frame("simulate", 3, b"payload");
        assert_eq!(read_verified_frame(&good), decode_frame(&good));
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(decode_frame(&flipped).unwrap_err(), FrameError::ChecksumMismatch);
        assert_eq!(read_verified_frame(&flipped).unwrap().payload, b"payloae");
        for cut in 0..good.len() {
            assert!(read_verified_frame(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_a_length_mismatch() {
        let mut bytes = encode_frame("degrade", 1, b"abc");
        bytes.push(0);
        assert!(matches!(
            decode_frame(&bytes).unwrap_err(),
            FrameError::LengthMismatch { declared: 3, present: 4 }
        ));
    }

    #[test]
    fn corrupt_pass_name_length_is_header_corruption() {
        let mut bytes = encode_frame("optimize", 1, b"x");
        // The pass-name length field sits right after magic + format.
        bytes[12] = 0xFF;
        bytes[13] = 0xFF;
        let err = decode_frame(&bytes).unwrap_err();
        assert!(matches!(err, FrameError::CorruptHeader | FrameError::Truncated), "{err:?}");
    }

    #[test]
    fn checksum_is_stable() {
        // Pinned: the on-disk contract depends on this exact function.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"palo"), {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in b"palo" {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        });
    }
}
