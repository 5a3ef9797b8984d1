//! Register state of one processor: the variables of Algorithms 1 & 2
//! (`Pif`, `Par`, `L`, `Count`, `Fok`) with their exact domains, plus the
//! space accounting used by the space-complexity experiment.

use std::fmt;

use pif_graph::ProcId;

/// The phase register `Pif_p` of the algorithm.
///
/// * `C` — the processor is ready to participate in the next PIF cycle
///   (*cleaning* done);
/// * `B` — the processor is in the *broadcast* phase: it received the
///   message from its parent (or is the root and initiated the wave) and is
///   offering it to its neighbors;
/// * `F` — the processor is in the *feedback* phase: every processor it
///   forwarded the message to has acknowledged it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Phase {
    /// Broadcast phase.
    B,
    /// Feedback phase.
    F,
    /// Clean — ready for the next cycle.
    #[default]
    C,
}

impl Phase {
    /// All phase values, for exhaustive fuzzing.
    pub const ALL: [Phase; 3] = [Phase::B, Phase::F, Phase::C];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::B => "B",
            Phase::F => "F",
            Phase::C => "C",
        };
        f.write_str(s)
    }
}

/// The register state of one processor in the PIF protocol.
///
/// Mirrors the variables of Algorithms 1 and 2 exactly:
///
/// | Field   | Paper    | Domain                                   |
/// |---------|----------|------------------------------------------|
/// | `phase` | `Pif_p`  | `{B, F, C}`                              |
/// | `par`   | `Par_p`  | `Neig_p` (constant `⊥` at the root)      |
/// | `level` | `L_p`    | `[1, L_max]` (constant `0` at the root)  |
/// | `count` | `Count_p`| `[1, N']`                                |
/// | `fok`   | `Fok_p`  | `bool`                                   |
///
/// For the root, `par` and `level` are *constants* of the program, not
/// variables: the protocol ignores the stored values and always treats them
/// as `⊥` (represented as the root's own id) and `0`. Fuzzers must respect
/// the domains above — they describe what the registers are physically able
/// to hold, which is what "arbitrary initial configuration" ranges over.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PifState {
    /// Phase register `Pif_p`.
    pub phase: Phase,
    /// Parent pointer `Par_p`; must name a neighbor (ignored at the root).
    pub par: ProcId,
    /// Level `L_p ∈ [1, L_max]` (ignored at the root, where `L_r = 0`).
    pub level: u16,
    /// Subtree population counter `Count_p ∈ [1, N']`.
    pub count: u32,
    /// Feedback-ok wave flag `Fok_p`.
    pub fok: bool,
}

impl PifState {
    /// The canonical "clean" state used in the normal starting
    /// configuration: phase `C` with in-domain don't-care values for the
    /// other registers.
    pub fn clean(par: ProcId) -> Self {
        PifState { phase: Phase::C, par, level: 1, count: 1, fok: false }
    }
}

impl pif_daemon::TraceState for PifState {
    /// Compact trace token `⟨phase⟩:⟨par⟩:⟨level⟩:⟨count⟩:⟨fok⟩`, e.g.
    /// `B:2:3:5:1` — chosen over the pretty [`fmt::Display`] form so trace
    /// files stay ASCII and cheap to parse.
    fn encode(&self, out: &mut String) {
        use fmt::Write as _;
        let _ = write!(
            out,
            "{}:{}:{}:{}:{}",
            self.phase,
            self.par.index(),
            self.level,
            self.count,
            u8::from(self.fok)
        );
    }

    fn decode(token: &str) -> Option<Self> {
        let mut parts = token.split(':');
        let phase = match parts.next()? {
            "B" => Phase::B,
            "F" => Phase::F,
            "C" => Phase::C,
            _ => return None,
        };
        let par = ProcId::from_index(parts.next()?.parse::<usize>().ok()?);
        let level = parts.next()?.parse().ok()?;
        let count = parts.next()?.parse().ok()?;
        let fok = match parts.next()? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(PifState { phase, par, level, count, fok })
    }
}

impl fmt::Display for PifState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}⟨par={},L={},cnt={},fok={}⟩",
            self.phase, self.par, self.level, self.count, u8::from(self.fok)
        )
    }
}

/// Number of bits a processor of degree `degree` needs to store one
/// [`PifState`], given the protocol parameters `l_max` and `n_prime`.
///
/// This is the quantity behind the space-complexity experiment (E9 in
/// DESIGN.md): the algorithm uses `O(log N)` bits per processor —
/// `⌈log₂ 3⌉` for the phase, `⌈log₂ degree⌉` for the parent pointer,
/// `⌈log₂ L_max⌉` for the level, `⌈log₂ N'⌉` for the counter and one bit
/// for `Fok`.
pub fn state_bits(degree: usize, l_max: u16, n_prime: u32) -> u32 {
    fn ceil_log2(x: u64) -> u32 {
        if x <= 1 {
            0
        } else {
            64 - (x - 1).leading_zeros()
        }
    }
    ceil_log2(3)
        + ceil_log2(degree.max(1) as u64)
        + ceil_log2(u64::from(l_max))
        + ceil_log2(u64::from(n_prime))
        + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_display() {
        assert_eq!(Phase::B.to_string(), "B");
        assert_eq!(Phase::F.to_string(), "F");
        assert_eq!(Phase::C.to_string(), "C");
    }

    #[test]
    fn phase_default_is_clean() {
        assert_eq!(Phase::default(), Phase::C);
    }

    #[test]
    fn clean_state_is_in_domain() {
        let s = PifState::clean(ProcId(4));
        assert_eq!(s.phase, Phase::C);
        assert_eq!(s.par, ProcId(4));
        assert!(s.level >= 1);
        assert!(s.count >= 1);
        assert!(!s.fok);
    }

    #[test]
    fn state_display_is_compact() {
        let s = PifState { phase: Phase::B, par: ProcId(2), level: 3, count: 5, fok: true };
        assert_eq!(s.to_string(), "B⟨par=p2,L=3,cnt=5,fok=1⟩");
    }

    #[test]
    fn trace_token_roundtrips_every_phase() {
        use pif_daemon::TraceState;
        for phase in Phase::ALL {
            let s = PifState { phase, par: ProcId(7), level: 12, count: 99, fok: true };
            let mut token = String::new();
            s.encode(&mut token);
            assert_eq!(PifState::decode(&token), Some(s));
        }
        assert_eq!(PifState::decode("B:1:2:3"), None);
        assert_eq!(PifState::decode("X:1:2:3:0"), None);
        assert_eq!(PifState::decode("B:1:2:3:0:extra"), None);
        assert_eq!(PifState::decode("B:1:2:3:2"), None);
    }

    #[test]
    fn state_bits_grow_logarithmically() {
        // Degree 4, L_max 15, N' 16: 2 + 2 + 4 + 4 + 1.
        assert_eq!(state_bits(4, 15, 16), 13);
        // Doubling N' adds one bit to the counter (and level if it doubles).
        assert_eq!(state_bits(4, 15, 32), 14);
        // Degenerate degrees don't underflow.
        assert_eq!(state_bits(0, 1, 1), 2 + 1);
    }
}
