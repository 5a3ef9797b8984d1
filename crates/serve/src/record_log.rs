//! Packed storage behind [`crate::DeliveryLedger`].
//!
//! A [`RequestRecord`] takes 104 bytes in memory, yet its fields are
//! mostly small counts. A service keeps every record it writes, so the
//! ledger is the one part of a long-lived service that grows with the
//! requests it serves. A [`RecordLog`] stores each record as one flag
//! byte and LEB128-packed numbers (about 24 bytes on the benchmark
//! topologies), in chunks of at most 16 KiB so that growth never copies
//! the whole log, and unpacks records as they are read. The packing is lossless: unpacking
//! yields records equal to the ones appended, in order.

use pif_graph::ProcId;

use crate::ledger::{RequestOutcome, RequestRecord, ShedCause};
use crate::request::{AggregateKind, RequestId};

/// Bytes per chunk. A packed record never spans two chunks.
const CHUNK: usize = 16 * 1024;
/// The flag byte, eleven varints of at most 10 bytes, and the feedback.
const MAX_PACKED: usize = 1 + 12 * 10;

/// Flag bits: the outcome in the low two bits, then its verdicts, then
/// the aggregate kind's index in [`AggregateKind::ALL`] in the top two.
const COMPLETED: u8 = 0;
const SHED: u8 = 1;
const TIMED_OUT: u8 = 2;
const OUTCOME: u8 = 0b11;
const PIF1: u8 = 1 << 2;
const PIF2: u8 = 1 << 3;
const HAS_FEEDBACK: u8 = 1 << 4;
const RETIRED: u8 = 1 << 5;
const AGGREGATE_SHIFT: u32 = 6;

/// An append-only sequence of packed [`RequestRecord`]s.
#[derive(Clone, Debug, Default)]
pub(crate) struct RecordLog {
    chunks: Vec<Vec<u8>>,
}

impl RecordLog {
    /// Appends one record.
    pub(crate) fn push(&mut self, record: &RequestRecord) {
        let mut buf = [0u8; MAX_PACKED];
        let n = pack(record, &mut buf);
        if self.chunks.last().is_none_or(|c| c.len() + n > CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks.last_mut().expect("a chunk was just ensured").extend_from_slice(&buf[..n]);
    }

    /// Appends every record of `other`, in order.
    pub(crate) fn append(&mut self, other: &RecordLog) {
        self.chunks.extend(other.chunks.iter().cloned());
    }

    /// The records, unpacked, in the order they were appended.
    pub(crate) fn iter(&self) -> impl Iterator<Item = RequestRecord> + '_ {
        self.chunks.iter().flat_map(|chunk| {
            let mut at = 0;
            std::iter::from_fn(move || (at < chunk.len()).then(|| unpack(chunk, &mut at)))
        })
    }
}

fn pack(r: &RequestRecord, out: &mut [u8; MAX_PACKED]) -> usize {
    let kind = AggregateKind::ALL.iter().position(|&k| k == r.aggregate).expect("a listed kind");
    let mut flags = (kind as u8) << AGGREGATE_SHIFT;
    let feedback = match r.outcome {
        RequestOutcome::Completed { pif1, pif2, feedback } => {
            flags |= COMPLETED;
            if pif1 {
                flags |= PIF1;
            }
            if pif2 {
                flags |= PIF2;
            }
            if feedback.is_some() {
                flags |= HAS_FEEDBACK;
            }
            feedback
        }
        RequestOutcome::Shed { cause } => {
            flags |= SHED;
            if cause == ShedCause::Retired {
                flags |= RETIRED;
            }
            None
        }
        RequestOutcome::TimedOut => {
            flags |= TIMED_OUT;
            None
        }
    };
    out[0] = flags;
    let mut n = 1;
    for v in [
        r.id.0,
        u64::from(r.initiator.0),
        r.shard as u64,
        u64::from(r.initiated_epoch),
        u64::from(r.completed_epoch),
        r.broadcast_steps,
        r.feedback_steps,
        r.cycle_steps,
        r.cycle_rounds,
        r.turnaround_steps,
        u64::from(r.height),
    ] {
        n += put(v, &mut out[n..]);
    }
    if let Some(f) = feedback {
        // Zigzag: small magnitudes of either sign stay short.
        n += put(((f << 1) ^ (f >> 63)) as u64, &mut out[n..]);
    }
    n
}

fn unpack(bytes: &[u8], at: &mut usize) -> RequestRecord {
    let flags = bytes[*at];
    *at += 1;
    let mut next = || get(bytes, at);
    let id = RequestId(next());
    let initiator = ProcId(narrow(next()));
    let shard = usize::try_from(next()).expect("packed from a usize");
    let initiated_epoch = narrow(next());
    let completed_epoch = narrow(next());
    let broadcast_steps = next();
    let feedback_steps = next();
    let cycle_steps = next();
    let cycle_rounds = next();
    let turnaround_steps = next();
    let height = narrow(next());
    let outcome = match flags & OUTCOME {
        COMPLETED => RequestOutcome::Completed {
            pif1: flags & PIF1 != 0,
            pif2: flags & PIF2 != 0,
            feedback: (flags & HAS_FEEDBACK != 0).then(|| {
                let z = next();
                (z >> 1) as i64 ^ -((z & 1) as i64)
            }),
        },
        SHED => RequestOutcome::Shed {
            cause: if flags & RETIRED != 0 { ShedCause::Retired } else { ShedCause::Displaced },
        },
        _ => RequestOutcome::TimedOut,
    };
    RequestRecord {
        id,
        initiator,
        shard,
        aggregate: AggregateKind::ALL[usize::from(flags >> AGGREGATE_SHIFT)],
        outcome,
        initiated_epoch,
        completed_epoch,
        broadcast_steps,
        feedback_steps,
        cycle_steps,
        cycle_rounds,
        turnaround_steps,
        height,
    }
}

/// Writes `v` as LEB128; returns the bytes written.
fn put(mut v: u64, out: &mut [u8]) -> usize {
    let mut n = 0;
    while v >= 0x80 {
        out[n] = (v as u8) | 0x80;
        v >>= 7;
        n += 1;
    }
    out[n] = v as u8;
    n + 1
}

/// Reads one LEB128 value at `*at` and advances past it.
fn get(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

fn narrow(v: u64) -> u32 {
    u32::try_from(v).expect("packed from a u32")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u64, outcome: RequestOutcome) -> RequestRecord {
        RequestRecord {
            id: RequestId(i),
            initiator: ProcId(i as u32 % 1_000),
            shard: (i % 3) as usize,
            aggregate: AggregateKind::ALL[(i % 4) as usize],
            outcome,
            initiated_epoch: (i % 7) as u32,
            completed_epoch: (i % 9) as u32,
            broadcast_steps: i * 31,
            feedback_steps: i << 20,
            cycle_steps: u64::MAX - i,
            cycle_rounds: i % 200,
            turnaround_steps: i * i,
            height: u32::MAX - i as u32,
        }
    }

    #[test]
    fn records_unpack_equal_to_what_was_pushed() {
        let outcomes = [
            RequestOutcome::Completed { pif1: true, pif2: true, feedback: Some(524_800) },
            RequestOutcome::Completed { pif1: true, pif2: false, feedback: Some(i64::MIN) },
            RequestOutcome::Completed { pif1: false, pif2: true, feedback: Some(-1) },
            RequestOutcome::Completed { pif1: false, pif2: false, feedback: None },
            RequestOutcome::Completed { pif1: true, pif2: true, feedback: Some(i64::MAX) },
            RequestOutcome::Shed { cause: ShedCause::Displaced },
            RequestOutcome::Shed { cause: ShedCause::Retired },
            RequestOutcome::TimedOut,
        ];
        // Enough records to fill several chunks.
        let want: Vec<RequestRecord> =
            (0..3_000u64).map(|i| record(i, outcomes[i as usize % outcomes.len()].clone())).collect();
        let mut log = RecordLog::default();
        for r in &want {
            log.push(r);
        }
        assert!(log.chunks.len() > 1);
        assert_eq!(log.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn varints_round_trip_at_the_edges() {
        for v in [0, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::from(u32::MAX), u64::MAX] {
            let mut buf = [0u8; 10];
            let n = put(v, &mut buf);
            let mut at = 0;
            assert_eq!(get(&buf[..n], &mut at), v);
            assert_eq!(at, n);
        }
    }
}
