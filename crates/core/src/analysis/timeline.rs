//! ASCII phase-timeline rendering: one row per processor, one column per
//! recorded step, showing how the `B`/`F`/`C` phases sweep across the
//! network — the visual intuition behind the paper's wave terminology.

use pif_daemon::trace::Trace;
use pif_graph::ProcId;

use crate::protocol::PifProtocol;
use crate::state::PifState;

/// Renders a recorded execution as a phase timeline.
///
/// Requires a trace recorded with
/// [`Trace::with_configurations`](pif_daemon::trace::Trace::with_configurations);
/// each column shows every processor's phase after one computation step,
/// with `*` marking processors that executed in that step.
///
/// # Examples
///
/// ```
/// use pif_core::analysis::timeline::render;
/// use pif_core::{initial, PifProtocol};
/// use pif_daemon::daemons::Synchronous;
/// use pif_daemon::trace::Trace;
/// use pif_daemon::{RunLimits, Simulator, StopPolicy};
/// use pif_graph::{generators, ProcId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::chain(3)?;
/// let proto = PifProtocol::new(ProcId(0), &g);
/// let mut sim = Simulator::new(g, proto.clone(), initial::normal_starting(&g2()));
/// # fn g2() -> pif_graph::Graph { generators::chain(3).unwrap() }
/// let mut trace = Trace::with_configurations();
/// let mut stop = |s: &Simulator<PifProtocol>| {
///     s.steps() > 0 && initial::is_normal_starting(s.states())
/// };
/// sim.run(
///     &mut Synchronous::first_action(), &mut trace,
///     StopPolicy::Predicate(RunLimits::default(), &mut stop))?;
/// let chart = render(&proto, &trace);
/// assert!(chart.contains("p0"));
/// # Ok(())
/// # }
/// ```
pub fn render(protocol: &PifProtocol, trace: &Trace<PifProtocol>) -> String {
    use std::fmt::Write as _;
    let Some(configs) = trace.configurations() else {
        return String::from("(no configurations recorded; use Trace::with_configurations)");
    };
    let mut out = String::new();
    let n = configs.first().map_or(0, Vec::len);
    let _ = writeln!(out, "phase timeline ({} steps, root {}):", trace.len(), protocol.root());
    for i in 0..n {
        let p = ProcId::from_index(i);
        let marker = if p == protocol.root() { "r" } else { " " };
        let _ = write!(out, "{p:>4}{marker} ");
        for (step, cfg) in configs.iter().enumerate() {
            let executed = trace.steps()[step].executed.iter().any(|&(q, _)| q == p);
            let c = phase_char(&cfg[i], executed);
            out.push(c);
        }
        out.push('\n');
    }
    out
}

fn phase_char(s: &PifState, executed: bool) -> char {
    use crate::state::Phase;
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

    fn traced_cycle(n: usize) -> (PifProtocol, Trace<PifProtocol>) {
        let g = generators::chain(n).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let init = initial::normal_starting(&g);
        let mut sim = Simulator::new(g, proto.clone(), init);
        let mut trace = Trace::with_configurations();
        let mut stop = |s: &Simulator<PifProtocol>| {
            s.steps() > 0 && initial::is_normal_starting(s.states())
        };
        sim.run(
            &mut Synchronous::first_action(),
            &mut trace,
            pif_daemon::StopPolicy::Predicate(RunLimits::default(), &mut stop),
        )
        .unwrap();
        (proto, trace)
    }

    #[test]
    fn timeline_shows_the_wave_sweep() {
        let (proto, trace) = traced_cycle(4);
        let chart = render(&proto, &trace);
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
        let trace: Trace<PifProtocol> = Trace::new();
        let g = generators::chain(2).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let chart = render(&proto, &trace);
        assert!(chart.contains("no configurations"));
    }
}
