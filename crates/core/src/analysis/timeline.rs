//! ASCII phase-timeline rendering: one row per processor, one column per
//! recorded step, showing how the `B`/`F`/`C` phases sweep across the
//! network — the visual intuition behind the paper's wave terminology.

use pif_daemon::{Observer, StepDelta};
use pif_graph::{Graph, ProcId};

use crate::protocol::PifProtocol;
use crate::state::{Phase, PifState};

/// A phase timeline under construction: an [`Observer`] that appends one
/// column per computation step, holding every processor's phase after
/// the step, uppercase where the processor executed in it.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    rows: Vec<String>,
    steps: usize,
}

impl Observer<PifProtocol> for Timeline {
    fn step(&mut self, _graph: &Graph, delta: &StepDelta<'_, PifProtocol>, after: &[PifState]) {
        self.rows.resize(after.len(), String::new());
        for (i, (row, s)) in self.rows.iter_mut().zip(after).enumerate() {
            let executed = delta.executed().iter().any(|&(q, _)| q.index() == i);
            row.push(phase_char(s, executed));
        }
        self.steps += 1;
    }
}

/// Renders an observed execution as a phase timeline, the root's row
/// marked `r`.
///
/// # Examples
///
/// ```
/// use pif_core::analysis::timeline::{render, Timeline};
/// use pif_core::{initial, PifProtocol};
/// use pif_daemon::daemons::Synchronous;
/// use pif_daemon::{RunLimits, Simulator, StopPolicy};
/// use pif_graph::{generators, ProcId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::chain(3)?;
/// let proto = PifProtocol::new(ProcId(0), &g);
/// let mut sim = Simulator::new(g, proto.clone(), initial::normal_starting(&g2()));
/// # fn g2() -> pif_graph::Graph { generators::chain(3).unwrap() }
/// let mut timeline = Timeline::default();
/// let mut stop = |s: &Simulator<PifProtocol>| {
///     s.steps() > 0 && initial::is_normal_starting(s.states())
/// };
/// sim.run(
///     &mut Synchronous::first_action(), &mut timeline,
///     StopPolicy::Predicate(RunLimits::default(), &mut stop))?;
/// let chart = render(&proto, &timeline);
/// assert!(chart.contains("p0"));
/// # Ok(())
/// # }
/// ```
pub fn render(protocol: &PifProtocol, timeline: &Timeline) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "phase timeline ({} steps, root {}):", timeline.steps, protocol.root());
    for (i, row) in timeline.rows.iter().enumerate() {
        let p = ProcId::from_index(i);
        let marker = if p == protocol.root() { "r" } else { " " };
        let _ = writeln!(out, "{p:>4}{marker} {row}");
    }
    out
}

fn phase_char(s: &PifState, executed: bool) -> char {
    match (s.phase, executed) {
        (Phase::B, true) => 'B',
        (Phase::B, false) => 'b',
        (Phase::F, true) => 'F',
        (Phase::F, false) => 'f',
        (Phase::C, true) => 'C',
        (Phase::C, false) => '.',
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial;
    use pif_daemon::daemons::Synchronous;
    use pif_daemon::{RunLimits, Simulator};
    use pif_graph::generators;

    fn observed_cycle(n: usize) -> (PifProtocol, Timeline) {
        let g = generators::chain(n).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let init = initial::normal_starting(&g);
        let mut sim = Simulator::new(g, proto.clone(), init);
        let mut timeline = Timeline::default();
        let mut stop = |s: &Simulator<PifProtocol>| {
            s.steps() > 0 && initial::is_normal_starting(s.states())
        };
        sim.run(
            &mut Synchronous::first_action(),
            &mut timeline,
            pif_daemon::StopPolicy::Predicate(RunLimits::default(), &mut stop),
        )
        .unwrap();
        (proto, timeline)
    }

    #[test]
    fn timeline_shows_the_wave_sweep() {
        let (proto, timeline) = observed_cycle(4);
        let chart = render(&proto, &timeline);
        // One row per processor plus a header.
        assert_eq!(chart.lines().count(), 5);
        // The root's row starts with its B-action.
        let root_row = chart.lines().nth(1).unwrap();
        assert!(root_row.contains('B'), "{chart}");
        // Every row ends clean.
        for row in chart.lines().skip(1) {
            assert!(row.ends_with('.') || row.ends_with('C'), "{chart}");
        }
    }

    #[test]
    fn timeline_without_configs_degrades_gracefully() {
        // A timeline that observed no configuration renders its header.
        let g = generators::chain(2).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let chart = render(&proto, &Timeline::default());
        assert_eq!(chart, "phase timeline (0 steps, root p0):\n");
    }
}
