//! Configuration classification — Definitions 8–14 of the paper.

use pif_daemon::View;
use pif_graph::{Graph, ProcId};

use crate::analysis::trees::legal_tree;
use crate::protocol::PifProtocol;
use crate::state::{Phase, PifState};

/// The configuration classes of Definitions 8–14. A configuration can
/// belong to several classes at once (e.g. SBN implies SB and Normal);
/// [`ConfigSummary::classes`] lists all that apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConfigClass {
    /// Definition 8 — every processor satisfies `Normal(p)`.
    Normal,
    /// Definition 9 — `Pif_r = B ∧ ¬Fok_r`: a broadcast is in progress.
    Broadcast,
    /// Definition 10 — `Pif_r = C`: the root could start a broadcast.
    StartBroadcast,
    /// Definition 11 — SB and Normal; equivalently `∀p: Pif_p = C` (the
    /// normal starting configuration).
    StartBroadcastNormal,
    /// Definition 12 — Normal, `¬Fok_r`, and `∀p: Pif_p = B`: the
    /// broadcast phase has just covered the network.
    EndBroadcastNormal,
    /// Definition 13 — `Pif_r = F`: the feedback reached the root.
    EndFeedback,
    /// Definition 14 — EF and Normal.
    EndFeedbackNormal,
    /// Definition 15 — a *Good Configuration* (see
    /// [`crate::analysis::good_configuration`]).
    Good,
}

/// Everything the classifier observed about one configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigSummary {
    /// All classes the configuration belongs to.
    pub classes: Vec<ConfigClass>,
    /// The abnormal processors.
    pub abnormal: Vec<ProcId>,
    /// Size of the legal tree.
    pub legal_size: usize,
    /// Height of the legal tree.
    pub legal_height: u32,
    /// The root's phase.
    pub root_phase: Phase,
    /// The root's `Fok` flag.
    pub root_fok: bool,
}

impl ConfigSummary {
    /// Whether the configuration belongs to `class`.
    pub fn is(&self, class: ConfigClass) -> bool {
        self.classes.contains(&class)
    }
}

/// Definition 8 — whether every processor is normal.
pub fn is_normal_config(protocol: &PifProtocol, graph: &Graph, states: &[PifState]) -> bool {
    graph.procs().all(|p| protocol.normal(View::new(graph, states, p)))
}

/// Definition 9 — Broadcast configuration: `Pif_r = B ∧ Fok_r = false`.
pub fn is_broadcast(protocol: &PifProtocol, states: &[PifState]) -> bool {
    let r = &states[protocol.root().index()];
    r.phase == Phase::B && !r.fok
}

/// Definition 10 — Start Broadcast configuration: `Pif_r = C`.
pub fn is_start_broadcast(protocol: &PifProtocol, states: &[PifState]) -> bool {
    states[protocol.root().index()].phase == Phase::C
}

/// Definition 11 — Start Broadcast Normal configuration. In such a
/// configuration every processor is in phase `C` (the paper's remark under
/// the definition; asserted in tests).
pub fn is_sbn(protocol: &PifProtocol, graph: &Graph, states: &[PifState]) -> bool {
    is_start_broadcast(protocol, states) && is_normal_config(protocol, graph, states)
        && states.iter().all(|s| s.phase == Phase::C)
}

/// Definition 12 — End Broadcast Normal configuration: normal,
/// `Fok_r = false`, and every processor in phase `B`.
pub fn is_ebn(protocol: &PifProtocol, graph: &Graph, states: &[PifState]) -> bool {
    !states[protocol.root().index()].fok
        && states.iter().all(|s| s.phase == Phase::B)
        && is_normal_config(protocol, graph, states)
}

/// Definition 13 — End Feedback configuration: `Pif_r = F`.
pub fn is_end_feedback(protocol: &PifProtocol, states: &[PifState]) -> bool {
    states[protocol.root().index()].phase == Phase::F
}

/// Definition 14 — End Feedback Normal configuration.
pub fn is_efn(protocol: &PifProtocol, graph: &Graph, states: &[PifState]) -> bool {
    is_end_feedback(protocol, states) && is_normal_config(protocol, graph, states)
}

/// Classifies a configuration against every definition at once.
pub fn classify(protocol: &PifProtocol, graph: &Graph, states: &[PifState]) -> ConfigSummary {
    let decomp = legal_tree(protocol, graph, states);
    let normal = decomp.abnormal.is_empty();
    let root = &states[protocol.root().index()];
    let mut classes = Vec::new();
    if normal {
        classes.push(ConfigClass::Normal);
    }
    if root.phase == Phase::B && !root.fok {
        classes.push(ConfigClass::Broadcast);
    }
    if root.phase == Phase::C {
        classes.push(ConfigClass::StartBroadcast);
        if normal {
            classes.push(ConfigClass::StartBroadcastNormal);
        }
    }
    if normal && !root.fok && states.iter().all(|s| s.phase == Phase::B) {
        classes.push(ConfigClass::EndBroadcastNormal);
    }
    if root.phase == Phase::F {
        classes.push(ConfigClass::EndFeedback);
        if normal {
            classes.push(ConfigClass::EndFeedbackNormal);
        }
    }
    if super::good_configuration(protocol, graph, states) {
        classes.push(ConfigClass::Good);
    }
    let legal_size = decomp.legal_size();
    let legal_height = decomp.legal_height();
    ConfigSummary {
        classes,
        abnormal: decomp.abnormal,
        legal_size,
        legal_height,
        root_phase: root.phase,
        root_fok: root.fok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial;
    use pif_graph::generators;

    fn setup() -> (Graph, PifProtocol) {
        let g = generators::ring(5).unwrap();
        let p = PifProtocol::new(ProcId(0), &g);
        (g, p)
    }

    #[test]
    fn normal_starting_is_sbn() {
        let (g, p) = setup();
        let s = initial::normal_starting(&g);
        assert!(is_sbn(&p, &g, &s));
        let summary = classify(&p, &g, &s);
        assert!(summary.is(ConfigClass::StartBroadcastNormal));
        assert!(summary.is(ConfigClass::Normal));
        assert!(summary.is(ConfigClass::Good));
        assert!(!summary.is(ConfigClass::EndFeedback));
        assert_eq!(summary.abnormal, vec![]);
    }

    #[test]
    fn all_b_configuration_is_ebn() {
        let (g, p) = setup();
        // Hand-build the EBN configuration of a completed broadcast on the
        // ring: levels are BFS depths, counts are subtree sizes, fok false.
        let mut s = initial::normal_starting(&g);
        let parents = [0usize, 0, 1, 4, 0]; // 0 root; 1,4 children; 2 under 1; 3 under 4
        let levels = [0u16, 1, 2, 2, 1];
        let counts = [5u32, 2, 1, 1, 2];
        for i in 0..5 {
            s[i] = PifState {
                phase: Phase::B,
                par: ProcId(parents[i] as u32),
                level: levels[i].max(1),
                count: counts[i],
                fok: false,
            };
        }
        // GoodFok(r) needs Fok_r = (Count_r = N): count 5 = N so fok must
        // be true... unless the root has not yet executed Count-action.
        // Use count 4 (tree not fully counted yet) to stay normal.
        s[0].count = 4;
        assert!(is_ebn(&p, &g, &s), "abnormal: {:?}", classify(&p, &g, &s).abnormal);
        assert!(is_broadcast(&p, &s));
    }

    #[test]
    fn ef_detection() {
        let (g, p) = setup();
        let mut s = initial::normal_starting(&g);
        s[0].phase = Phase::F;
        assert!(is_end_feedback(&p, &s));
        // Remaining processors clean: the root is trivially normal, F at
        // the root needs no parent consistency.
        assert!(is_efn(&p, &g, &s));
    }

    #[test]
    fn corrupted_config_is_not_normal() {
        let (g, p) = setup();
        let mut s = initial::normal_starting(&g);
        s[2] = PifState { phase: Phase::B, par: ProcId(1), level: 3, count: 1, fok: false };
        assert!(!is_normal_config(&p, &g, &s));
        let summary = classify(&p, &g, &s);
        assert_eq!(summary.abnormal, vec![ProcId(2)]);
        assert!(!summary.is(ConfigClass::Normal));
        assert!(summary.is(ConfigClass::StartBroadcast), "root is still C");
        assert!(!summary.is(ConfigClass::StartBroadcastNormal));
    }

    #[test]
    fn summary_reports_root_registers() {
        let (g, p) = setup();
        let mut s = initial::normal_starting(&g);
        s[0] = PifState { phase: Phase::B, par: ProcId(0), level: 1, count: 5, fok: true };
        let summary = classify(&p, &g, &s);
        assert_eq!(summary.root_phase, Phase::B);
        assert!(summary.root_fok);
        assert!(!summary.is(ConfigClass::Broadcast), "Broadcast requires ¬Fok_r");
    }

    #[test]
    fn random_configs_always_get_some_classification() {
        let (g, p) = setup();
        for seed in 0..30 {
            let s = initial::random_config(&g, &p, seed);
            let summary = classify(&p, &g, &s);
            // At least the root phase maps to one of SB / Broadcast-or-B / EF.
            let has_root_class = summary.is(ConfigClass::StartBroadcast)
                || summary.is(ConfigClass::EndFeedback)
                || summary.root_phase == Phase::B;
            assert!(has_root_class);
        }
    }
}
