//! Property tests of the `pif-net` transport.
//!
//! * **Differential**: on fault-free channels, a schedule-independent
//!   protocol (max propagation) driven through the message-passing
//!   transport settles to exactly the terminal configuration the
//!   shared-memory [`pif_daemon::Simulator`] reaches — across chains,
//!   tori, and random connected graphs up to n = 64.
//! * **Replay**: the full [`pif_net::NetStats`] ledger and the final
//!   configuration of a lossy run are a pure function of the seed.
//! * **Codec**: the slicing-by-8 [`pif_net::crc32`] agrees with the
//!   bytewise table loop; [`pif_net::decode_frame`] answers any byte
//!   string — random, truncated, overwritten or one bit off a valid
//!   frame — with `Ok` or a typed [`pif_net::FrameError`], never a panic;
//!   and every valid frame round-trips.

use pif_daemon::daemons::Synchronous;
use pif_daemon::{ActionId, ActionSet, Protocol, RunLimits, Simulator, View};
use pif_graph::{generators, Graph, ProcId};
use pif_net::{
    crc32, decode_frame, encode_frame, FaultPlan, FrameError, FrameHeader, FrameKind, NetBuilder,
    Transport, HEADER_LEN, TRAILER_LEN,
};
use proptest::prelude::*;

/// Max propagation: every processor adopts the largest value it can see.
/// The fixpoint (everyone holds the global max) is schedule-independent,
/// which makes it the right differential probe — PIF itself never
/// terminates, so terminal configurations cannot be compared there.
#[derive(Clone, Debug)]
struct MaxProto;

impl Protocol for MaxProto {
    type State = u64;
    fn action_names(&self) -> &'static [&'static str] {
        &["adopt"]
    }
    fn enabled_actions(&self, view: View<'_, u64>) -> ActionSet {
        let adopt = view.neighbor_states().any(|(_, &s)| s > *view.me());
        if adopt { ActionSet::of(ActionId(0)) } else { ActionSet::EMPTY }
    }
    fn execute(&self, view: View<'_, u64>, _: ActionId) -> u64 {
        view.neighbor_states().map(|(_, &s)| s).max().unwrap_or(0).max(*view.me())
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The bytewise table of the IEEE CRC32 (reflected polynomial).
const fn bytewise_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const BYTEWISE_TABLE: [u32; 256] = bytewise_table();

/// The bytewise table loop the transport shipped before slicing-by-8:
/// the oracle the fast version must agree with.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ BYTEWISE_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

fn frame_of(kind: bool, sender: u32, seq: u32, payload: &[u8]) -> (FrameHeader, Vec<u8>) {
    let header = FrameHeader {
        kind: if kind { FrameKind::Heartbeat } else { FrameKind::StateUpdate },
        sender: ProcId(sender),
        seq,
    };
    let mut frame = Vec::new();
    encode_frame(header, payload, &mut frame).unwrap();
    (header, frame)
}

/// Decodes hostile input. A panic fails the test; every rejection is one
/// of the typed reasons a receiver can count, and the encode-only
/// `Oversize` never comes back from the decoder.
fn decode_is_total(buf: &[u8]) -> Result<(), TestCaseError> {
    match decode_frame(buf) {
        Ok((_, payload)) => {
            prop_assert_eq!(payload.len(), buf.len() - HEADER_LEN - TRAILER_LEN);
        }
        Err(e) => {
            prop_assert!(!matches!(e, FrameError::Oversize { .. }), "decoder said {e}");
        }
    }
    Ok(())
}

fn graph_for(family: u8, n: usize, seed: u64) -> Graph {
    match family {
        0 => generators::chain(n).unwrap(),
        1 => {
            let w = (n as f64).sqrt().ceil() as usize;
            generators::torus(w, n.div_ceil(w)).unwrap()
        }
        _ => generators::random_connected(n, 0.15, seed).unwrap(),
    }
}

fn assert_net_matches_shared_memory(g: Graph, init: Vec<u64>, seed: u64) {
    let mut shm = Simulator::new(g.clone(), MaxProto, init.clone());
    shm.run_to_fixpoint(&mut Synchronous::first_action(), RunLimits::default()).unwrap();
    let mut net = NetBuilder::new(g, MaxProto).states(init).seed(seed).build().unwrap();
    let stats = net.run(4_000_000);
    assert!(net.is_settled(), "fault-free run must settle: {stats:?}");
    assert_eq!(net.states(), shm.states(), "terminal configurations diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fault_free_transport_matches_shared_memory(
        family in 0u8..3,
        size in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let n = [8usize, 16, 64][size];
        let g = graph_for(family, n, seed);
        let init: Vec<u64> = (0..g.len() as u64).map(|i| splitmix(i ^ seed)).collect();
        assert_net_matches_shared_memory(g, init, seed);
    }

    #[test]
    fn lossy_stats_replay_bit_identically(
        seed in 0u64..1_000_000,
        drop in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
        corrupt in 0.0f64..0.1,
    ) {
        let plan = FaultPlan::fault_free()
            .drop_rate(drop)
            .duplicate_rate(0.05)
            .reorder_rate(reorder)
            .corrupt_rate(corrupt);
        let run = || {
            let g = generators::ring(8).unwrap();
            let init: Vec<u64> = (0..8u64).map(|i| splitmix(i ^ seed)).collect();
            let mut net = NetBuilder::new(g, MaxProto)
                .states(init)
                .fault_plan(plan)
                .seed(seed)
                .build()
                .unwrap();
            for _ in 0..30_000 {
                net.tick();
            }
            (net.stats(), net.states().to_vec())
        };
        let (s1, c1) = run();
        let (s2, c2) = run();
        prop_assert_eq!(s1, s2, "NetStats must be a pure function of the seed");
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(s1.corrupt_applied, 0, "CRC gate must hold under any rates");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn crc32_matches_the_bytewise_oracle(
        bytes in prop::collection::vec(any::<u8>(), 300),
    ) {
        // Every prefix length 0..=300: each count of 8-byte blocks and
        // each length of the bytewise tail.
        for len in 0..=bytes.len() {
            prop_assert_eq!(crc32(&bytes[..len]), crc32_bytewise(&bytes[..len]));
        }
    }

    #[test]
    fn valid_frames_round_trip(
        kind in any::<bool>(),
        sender in any::<u32>(),
        seq in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..=300),
    ) {
        let (header, frame) = frame_of(kind, sender, seq, &payload);
        prop_assert_eq!(frame.len(), HEADER_LEN + payload.len() + TRAILER_LEN);
        let (got, body) = decode_frame(&frame).expect("a valid frame decodes");
        prop_assert_eq!(got, header);
        prop_assert_eq!(body, &payload[..]);
    }

    #[test]
    fn decoder_answers_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..=80),
    ) {
        decode_is_total(&bytes)?;
    }

    #[test]
    fn decoder_answers_damaged_frames(
        sender in any::<u32>(),
        seq in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..=40),
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let (_, frame) = frame_of(false, sender, seq, &payload);
        // Truncated, overwritten and extended frames all pass through the
        // header checks before the checksum, so they reach every branch.
        decode_is_total(&frame[..cut % (frame.len() + 1)])?;
        let mut overwritten = frame.clone();
        let i = at % overwritten.len();
        overwritten[i] = byte;
        decode_is_total(&overwritten)?;
        let mut extended = frame.clone();
        extended.push(byte);
        decode_is_total(&extended)?;
        prop_assert!(decode_frame(&extended).is_err(), "a trailing byte was accepted");
    }

    #[test]
    fn every_single_bit_flip_of_a_valid_frame_is_rejected(
        kind in any::<bool>(),
        sender in any::<u32>(),
        seq in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..=40),
    ) {
        let (_, frame) = frame_of(kind, sender, seq, &payload);
        let mut damaged = frame.clone();
        for bit in 0..frame.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            decode_is_total(&damaged)?;
            prop_assert!(decode_frame(&damaged).is_err(), "flip of bit {} accepted", bit);
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
