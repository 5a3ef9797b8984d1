//! The framed wire format: length-prefixed, versioned, CRC-checked.
//!
//! Every message on a link is one **frame**:
//!
//! ```text
//! offset  size  field
//!      0     2  magic        0x5046 ("PF"), little-endian
//!      2     1  version      WIRE_VERSION
//!      3     1  kind         FrameKind (state update / heartbeat)
//!      4     4  sender       originating processor index, little-endian
//!      8     4  seq          per-sender sequence number, little-endian
//!     12     2  payload_len  payload byte count, little-endian
//!     14     L  payload      register snapshot (WireState encoding)
//!  14 + L     4  crc32       IEEE CRC32 over bytes [0, 14 + L)
//! ```
//!
//! [`encode_frame`] and [`decode_frame`] are pure functions over caller
//! buffers — no allocation happens inside them (the encoder appends to a
//! caller `Vec` it first clears, so a reused buffer settles at its high
//! -water capacity). A receiver applies a payload to its register cache
//! **only** if the whole frame decodes: wrong magic, wrong version,
//! inconsistent lengths or a failed checksum reject the frame. CRC32
//! detects every single-bit error (and all burst errors up to 32 bits),
//! so the transport's bit-flip corruption mode can never smuggle a
//! damaged register snapshot past the decoder — the property E13's
//! `corrupt_applied == 0` column certifies.

use std::fmt;

use pif_core::{Phase, PifState};
use pif_graph::ProcId;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt};

use crate::error::FrameError;

/// The two magic bytes leading every frame (`"PF"` little-endian).
pub const WIRE_MAGIC: u16 = 0x4650;

/// The wire format version this crate encodes and accepts.
pub const WIRE_VERSION: u8 = 1;

/// Fixed bytes before the payload.
pub const HEADER_LEN: usize = 14;

/// Fixed bytes after the payload (the CRC32 trailer).
pub const TRAILER_LEN: usize = 4;

/// Largest payload the 16-bit length field can carry.
pub const MAX_PAYLOAD_LEN: usize = u16::MAX as usize;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A register snapshot sent because the sender's state changed.
    StateUpdate,
    /// A periodic re-send of an unchanged state (the retransmission the
    /// state-dissemination transform needs for fault recovery).
    Heartbeat,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::StateUpdate => 0,
            FrameKind::Heartbeat => 1,
        }
    }

    fn from_u8(b: u8) -> Result<FrameKind, FrameError> {
        match b {
            0 => Ok(FrameKind::StateUpdate),
            1 => Ok(FrameKind::Heartbeat),
            found => Err(FrameError::BadKind { found }),
        }
    }
}

/// The decoded fixed header of a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the payload is.
    pub kind: FrameKind,
    /// The originating processor.
    pub sender: ProcId,
    /// Per-sender sequence number (wraps at `u32::MAX`).
    pub seq: u32,
}

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table
/// and `CRC_TABLES[k][b]` is the CRC state after byte `b` is followed by
/// `k` zero bytes, so one lookup per byte of an 8-byte block replaces
/// eight dependent bytewise steps.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// IEEE CRC32 (reflected, init `!0`, xorout `!0`) of `bytes`, eight
/// bytes per step (slicing-by-8) with a bytewise tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Encodes one frame into `out` (cleared first), returning its length.
///
/// Pure and allocation-free once `out` has warmed up to the frame size.
///
/// # Errors
///
/// [`FrameError::Oversize`] — the only failure — when the payload does
/// not fit the 16-bit length field.
pub fn encode_frame(
    header: FrameHeader,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<usize, FrameError> {
    if payload.len() > MAX_PAYLOAD_LEN {
        return Err(FrameError::Oversize { len: payload.len() });
    }
    out.clear();
    out.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(header.kind.to_u8());
    out.extend_from_slice(&(header.sender.index() as u32).to_le_bytes());
    out.extend_from_slice(&header.seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out.len())
}

/// Decodes one frame, returning the header and a borrow of the payload.
///
/// The payload borrow lets the caller parse the register snapshot in
/// place — no copy and no allocation on the receive path. Any structural
/// or checksum problem rejects the whole frame; callers must treat every
/// `Err` as "drop this frame", never applying a partial decode.
///
/// # Errors
///
/// A [`FrameError`] naming the structural defect: truncation, bad magic
/// or version, an unknown kind, a length field disagreeing with the
/// buffer, or a CRC32 checksum mismatch.
pub fn decode_frame(buf: &[u8]) -> Result<(FrameHeader, &[u8]), FrameError> {
    if buf.len() < HEADER_LEN + TRAILER_LEN {
        return Err(FrameError::TooShort { len: buf.len() });
    }
    let magic = u16::from_le_bytes([buf[0], buf[1]]);
    if magic != WIRE_MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    if buf[2] != WIRE_VERSION {
        return Err(FrameError::BadVersion { found: buf[2] });
    }
    let kind = FrameKind::from_u8(buf[3])?;
    let sender = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let seq = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    let claimed = usize::from(u16::from_le_bytes([buf[12], buf[13]]));
    let actual = buf.len() - HEADER_LEN - TRAILER_LEN;
    if claimed != actual {
        return Err(FrameError::LengthMismatch { header: claimed, actual });
    }
    let body = &buf[..buf.len() - TRAILER_LEN];
    let computed = crc32(body);
    let carried = u32::from_le_bytes([
        buf[buf.len() - 4],
        buf[buf.len() - 3],
        buf[buf.len() - 2],
        buf[buf.len() - 1],
    ]);
    if computed != carried {
        return Err(FrameError::ChecksumMismatch { computed, carried });
    }
    let header = FrameHeader {
        kind,
        sender: ProcId::from_index(sender as usize),
        seq,
    };
    Ok((header, &buf[HEADER_LEN..buf.len() - TRAILER_LEN]))
}

/// A register state that can ride in a frame payload.
///
/// The transport is generic over any protocol whose state implements
/// this trait. `decode_wire` must accept exactly the bytes `encode_wire`
/// produces (round-trip identity) and reject everything else with
/// `None` — a `None` counts as a rejected frame, same as a CRC failure.
/// `scrambled` draws an arbitrary wire-expressible state; the fault
/// plan's cache-scramble campaign uses it to forge frames, so corruption
/// campaigns flow through the channel layer instead of poking caches
/// directly.
pub trait WireState: Clone + PartialEq + fmt::Debug {
    /// Appends this state's wire encoding to `out`.
    fn encode_wire(&self, out: &mut Vec<u8>);
    /// Parses a state from exactly `bytes`, or rejects with `None`.
    fn decode_wire(bytes: &[u8]) -> Option<Self>;
    /// Draws an arbitrary decodable state claiming to belong to `owner`.
    fn scrambled(rng: &mut StdRng, owner: ProcId) -> Self;
}

impl WireState for PifState {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        out.push(match self.phase {
            Phase::B => 0,
            Phase::F => 1,
            Phase::C => 2,
        });
        out.extend_from_slice(&(self.par.index() as u32).to_le_bytes());
        out.extend_from_slice(&self.level.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.push(u8::from(self.fok));
    }

    fn decode_wire(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 12 {
            return None;
        }
        let phase = match bytes[0] {
            0 => Phase::B,
            1 => Phase::F,
            2 => Phase::C,
            _ => return None,
        };
        let par = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]);
        let level = u16::from_le_bytes([bytes[5], bytes[6]]);
        let count = u32::from_le_bytes([bytes[7], bytes[8], bytes[9], bytes[10]]);
        let fok = match bytes[11] {
            0 => false,
            1 => true,
            _ => return None,
        };
        Some(PifState {
            phase,
            par: ProcId::from_index(par as usize),
            level,
            count,
            fok,
        })
    }

    fn scrambled(rng: &mut StdRng, owner: ProcId) -> Self {
        PifState {
            phase: [Phase::B, Phase::F, Phase::C][rng.random_range(0..3usize)],
            par: owner,
            level: rng.random_range(0..8u16),
            count: rng.random_range(0..8u32),
            fok: rng.random_bool(0.5),
        }
    }
}

macro_rules! int_wire_state {
    ($($t:ty),*) => {$(
        impl WireState for $t {
            fn encode_wire(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_wire(bytes: &[u8]) -> Option<Self> {
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
            fn scrambled(rng: &mut StdRng, _owner: ProcId) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_wire_state!(u8, u16, u32, u64, i8, i16, i32, i64);

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_states() -> Vec<PifState> {
        vec![
            PifState::clean(ProcId(0)),
            PifState { phase: Phase::B, par: ProcId(3), level: 2, count: 5, fok: true },
            PifState { phase: Phase::F, par: ProcId(1), level: 7, count: 0, fok: false },
        ]
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_preserves_header_and_payload() {
        let mut payload = Vec::new();
        let mut frame = Vec::new();
        for (i, s) in sample_states().into_iter().enumerate() {
            payload.clear();
            s.encode_wire(&mut payload);
            let header = FrameHeader {
                kind: if i % 2 == 0 { FrameKind::StateUpdate } else { FrameKind::Heartbeat },
                sender: ProcId(i as u32),
                seq: 41 + i as u32,
            };
            encode_frame(header, &payload, &mut frame).unwrap();
            let (h, body) = decode_frame(&frame).unwrap();
            assert_eq!(h, header);
            assert_eq!(PifState::decode_wire(body).unwrap(), s);
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // CRC32 detects all single-bit errors; the transport's corruption
        // mode flips exactly one bit, so rejection must be total.
        let mut payload = Vec::new();
        let mut frame = Vec::new();
        for (i, s) in sample_states().into_iter().enumerate() {
            payload.clear();
            s.encode_wire(&mut payload);
            let header =
                FrameHeader { kind: FrameKind::StateUpdate, sender: ProcId(i as u32), seq: i as u32 };
            encode_frame(header, &payload, &mut frame).unwrap();
            for bit in 0..frame.len() * 8 {
                let mut damaged = frame.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    decode_frame(&damaged).is_err(),
                    "bit {bit} of frame {i} slipped through"
                );
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_rejected() {
        let mut frame = Vec::new();
        let header = FrameHeader { kind: FrameKind::Heartbeat, sender: ProcId(2), seq: 9 };
        encode_frame(header, &[1, 2, 3], &mut frame).unwrap();
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "truncation to {cut} accepted");
        }
        let mut longer = frame.clone();
        longer.push(0);
        assert!(decode_frame(&longer).is_err());
    }

    #[test]
    fn oversize_payload_is_a_typed_error()  {
        let big = vec![0u8; MAX_PAYLOAD_LEN + 1];
        let header = FrameHeader { kind: FrameKind::StateUpdate, sender: ProcId(0), seq: 0 };
        let mut out = Vec::new();
        assert_eq!(
            encode_frame(header, &big, &mut out),
            Err(FrameError::Oversize { len: MAX_PAYLOAD_LEN + 1 })
        );
    }

    #[test]
    fn pif_state_wire_rejects_bad_discriminants() {
        let s = PifState { phase: Phase::B, par: ProcId(1), level: 1, count: 1, fok: true };
        let mut bytes = Vec::new();
        s.encode_wire(&mut bytes);
        assert_eq!(bytes.len(), 12);
        let mut bad_phase = bytes.clone();
        bad_phase[0] = 3;
        assert_eq!(PifState::decode_wire(&bad_phase), None);
        let mut bad_fok = bytes.clone();
        bad_fok[11] = 2;
        assert_eq!(PifState::decode_wire(&bad_fok), None);
        assert_eq!(PifState::decode_wire(&bytes[..11]), None);
    }
}
