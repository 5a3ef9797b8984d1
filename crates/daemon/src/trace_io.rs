//! Versioned JSONL trace capture and deterministic replay.
//!
//! A *trace* is a committable artifact of one simulation run: the network,
//! the initial configuration, the daemon identity/seed, every executed
//! `(processor, action)` pair, and a footer with the final configuration
//! plus phase-resolved metrics. Traces turn a failing fuzz seed into a
//! file that replays bit-identically.
//!
//! The file format is JSON Lines (one JSON document per line):
//!
//! 1. a header `{"format":"pif-trace","version":1,"graph":{...},
//!    "actions":[...],"daemon":"...","seed":...,"init":[...]}`;
//! 2. one line `{"step":k,"exec":[[p,a],...]}` per computation step;
//! 3. a footer `{"final":[...],"totals":[steps,rounds,moves],
//!    "phases":{...},"abnormal":...}`.
//!
//! States are carried as opaque tokens produced by [`TraceState`]; the
//! replayer decodes them for the concrete protocol. Replay re-executes the
//! recorded selections through the normal simulator with validation on, so
//! any divergence (protocol change, nondeterminism) surfaces as a typed
//! [`TraceError::Divergence`], never a panic. See `DESIGN.md` §10.

use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

use pif_graph::{Graph, GraphError, ProcId};

use crate::json::{self, Json};
use crate::metrics::{MetricsObserver, PhaseReport};
use crate::{ActionId, Daemon, EnabledSet, Fanout, Observer, PhaseTag, Protocol, Simulator,
            StepDelta};

/// The trace format version this build reads and writes.
pub const TRACE_VERSION: u64 = 1;

/// Per-processor state that can round-trip through a trace file as a
/// compact token. The token must be free of newlines (it is JSON-escaped,
/// so any other characters are fine) and `decode(encode(s)) == s` must
/// hold exactly — replay compares decoded configurations bit-for-bit.
pub trait TraceState: Sized {
    /// Appends the token for `self` to `out`.
    fn encode(&self, out: &mut String);

    /// Parses a token produced by [`TraceState::encode`]; `None` on any
    /// malformed input (the replayer converts this into a typed error).
    fn decode(token: &str) -> Option<Self>;
}

macro_rules! impl_trace_state_via_display {
    ($($t:ty),*) => {$(
        impl TraceState for $t {
            fn encode(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn decode(token: &str) -> Option<Self> {
                token.parse().ok()
            }
        }
    )*};
}

impl_trace_state_via_display!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

/// Error raised while reading, parsing or replaying a trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A line of the trace file is not valid JSON or misses required
    /// fields (`line` is 1-based).
    Parse {
        /// 1-based line number in the trace file.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// The trace was written by an incompatible format version.
    UnsupportedVersion {
        /// The version the file declared.
        found: u64,
    },
    /// The recorded edge list does not describe a valid network.
    Graph(GraphError),
    /// A recorded state token did not decode for the replaying protocol.
    BadState {
        /// Index of the processor whose state failed to decode.
        proc: usize,
        /// The offending token.
        token: String,
    },
    /// Replay disagreed with the recording: a recorded selection was not
    /// enabled, the run ended early, or the final configurations or phase
    /// metrics differ.
    Divergence {
        /// Zero-based step at which replay diverged (or the recorded step
        /// count if the divergence was detected after the run).
        step: u64,
        /// Human-readable description of the disagreement.
        detail: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceError::Parse { line, msg } => write!(f, "trace line {line}: {msg}"),
            TraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace version {found} (this build reads {TRACE_VERSION})")
            }
            TraceError::Graph(e) => write!(f, "recorded graph is invalid: {e}"),
            TraceError::BadState { proc, token } => {
                write!(f, "state token {token:?} of p{proc} does not decode for this protocol")
            }
            TraceError::Divergence { step, detail } => {
                write!(f, "replay diverged at step {step}: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<GraphError> for TraceError {
    fn from(e: GraphError) -> Self {
        TraceError::Graph(e)
    }
}

/// A fully parsed (or fully recorded) trace: everything needed to replay
/// the run and to compare two runs for equality.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordedTrace {
    /// Format version ([`TRACE_VERSION`] for traces written by this build).
    pub version: u64,
    /// Number of processors.
    pub n: usize,
    /// Display name of the network.
    pub graph_name: String,
    /// Undirected edge list, each `(u, v)` with `u < v`.
    pub edges: Vec<(u32, u32)>,
    /// Action names of the recorded protocol, indexed by [`ActionId`].
    pub actions: Vec<String>,
    /// Name of the daemon that drove the recorded run (provenance).
    pub daemon: String,
    /// Seed of the recorded daemon (provenance).
    pub seed: u64,
    /// Initial configuration, one [`TraceState`] token per processor.
    pub init: Vec<String>,
    /// Executed `(processor, action)` pairs, one entry per step.
    pub steps: Vec<Vec<(ProcId, ActionId)>>,
    /// Final configuration, one token per processor.
    pub final_states: Vec<String>,
    /// Steps, completed rounds and moves of the recorded run.
    pub totals: (u64, u64, u64),
    /// Phase-resolved metrics of the recorded run.
    pub phases: PhaseReport,
}

impl RecordedTrace {
    /// Rebuilds the recorded network.
    ///
    /// # Errors
    ///
    /// [`TraceError::Graph`] if the edge list is not a valid connected
    /// topology.
    pub fn graph(&self) -> Result<Graph, TraceError> {
        Ok(Graph::from_edges(self.n, self.edges.iter().copied())?
            .with_name(self.graph_name.clone()))
    }

    /// Decodes the initial configuration for a concrete state type.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadState`] on the first token that fails to decode.
    pub fn decode_init<S: TraceState>(&self) -> Result<Vec<S>, TraceError> {
        decode_states(&self.init)
    }

    /// Serializes the trace to its JSONL file representation (ends with a
    /// newline). Serialization is deterministic: equal traces produce
    /// byte-identical files.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        // Header.
        let _ = write!(out, "{{\"format\":\"pif-trace\",\"version\":{}", self.version);
        let _ = write!(out, ",\"graph\":{{\"n\":{},\"name\":", self.n);
        json::write_string(&self.graph_name, &mut out);
        out.push_str(",\"edges\":[");
        for (i, (u, v)) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{u},{v}]");
        }
        out.push_str("]},\"actions\":[");
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(a, &mut out);
        }
        out.push_str("],\"daemon\":");
        json::write_string(&self.daemon, &mut out);
        let _ = write!(out, ",\"seed\":{},\"init\":[", self.seed);
        for (i, s) in self.init.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(s, &mut out);
        }
        out.push_str("]}\n");
        // Steps.
        for (k, sel) in self.steps.iter().enumerate() {
            let _ = write!(out, "{{\"step\":{k},\"exec\":[");
            for (i, (p, a)) in sel.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{}]", p.index(), a.index());
            }
            out.push_str("]}\n");
        }
        // Footer.
        out.push_str("{\"final\":[");
        for (i, s) in self.final_states.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(s, &mut out);
        }
        let _ = write!(
            out,
            "],\"totals\":[{},{},{}],\"phases\":{{",
            self.totals.0, self.totals.1, self.totals.2
        );
        for (i, tag) in PhaseTag::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":[{},{},{}]",
                tag.name(),
                self.phases.moves_of(*tag),
                self.phases.steps_of(*tag),
                self.phases.rounds_of(*tag)
            );
        }
        let _ = write!(out, "}},\"abnormal\":{}}}", self.phases.abnormal_procs);
        out.push('\n');
        out
    }

    /// Parses a trace from its JSONL representation.
    ///
    /// # Errors
    ///
    /// [`TraceError::Parse`] on malformed JSON or missing fields,
    /// [`TraceError::UnsupportedVersion`] on a version mismatch.
    pub fn from_jsonl(text: &str) -> Result<Self, TraceError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .map(|(i, l)| (i + 1, l));
        let (header_no, header_line) = lines
            .next()
            .ok_or_else(|| parse_err(1, "empty trace file"))?;
        let header = parse_json_line(header_no, header_line)?;
        if header.get("format").and_then(Json::as_str) != Some("pif-trace") {
            return Err(parse_err(header_no, "missing or wrong \"format\" marker"));
        }
        let version = header
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| parse_err(header_no, "missing \"version\""))?;
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        let graph = header
            .get("graph")
            .ok_or_else(|| parse_err(header_no, "missing \"graph\""))?;
        let n = graph
            .get("n")
            .and_then(Json::as_usize)
            .ok_or_else(|| parse_err(header_no, "missing graph size \"n\""))?;
        let graph_name = graph
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("unnamed")
            .to_string();
        let mut edges = Vec::new();
        for e in required_array(graph.get("edges"), header_no, "graph \"edges\"")? {
            let pair = e.as_array().filter(|a| a.len() == 2);
            let (u, v) = match pair {
                Some([u, v]) => (u.as_u64(), v.as_u64()),
                _ => (None, None),
            };
            match (u, v) {
                (Some(u), Some(v)) => edges.push((u as u32, v as u32)),
                _ => return Err(parse_err(header_no, "malformed edge entry")),
            }
        }
        let actions = string_array(header.get("actions"), header_no, "\"actions\"")?;
        let daemon = header
            .get("daemon")
            .and_then(Json::as_str)
            .ok_or_else(|| parse_err(header_no, "missing \"daemon\""))?
            .to_string();
        let seed = header
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| parse_err(header_no, "missing \"seed\""))?;
        let init = string_array(header.get("init"), header_no, "\"init\"")?;
        if init.len() != n {
            return Err(parse_err(header_no, "\"init\" does not cover every processor"));
        }

        let mut steps: Vec<Vec<(ProcId, ActionId)>> = Vec::new();
        let mut footer: Option<(usize, Json)> = None;
        for (line_no, line) in lines {
            if footer.is_some() {
                return Err(parse_err(line_no, "content after footer line"));
            }
            let doc = parse_json_line(line_no, line)?;
            if doc.get("final").is_some() {
                footer = Some((line_no, doc));
                continue;
            }
            let k = doc
                .get("step")
                .and_then(Json::as_usize)
                .ok_or_else(|| parse_err(line_no, "step line missing \"step\""))?;
            if k != steps.len() {
                return Err(parse_err(line_no, "step indices out of order"));
            }
            let mut sel = Vec::new();
            for e in required_array(doc.get("exec"), line_no, "\"exec\"")? {
                let pair = e.as_array().filter(|a| a.len() == 2);
                let (p, a) = match pair {
                    Some([p, a]) => (p.as_usize(), a.as_usize()),
                    _ => (None, None),
                };
                match (p, a) {
                    (Some(p), Some(a)) if p < n => sel.push((ProcId::from_index(p), ActionId(a))),
                    _ => return Err(parse_err(line_no, "malformed \"exec\" entry")),
                }
            }
            steps.push(sel);
        }
        let (footer_no, footer) =
            footer.ok_or_else(|| parse_err(0, "trace has no footer line"))?;
        let final_states = string_array(footer.get("final"), footer_no, "\"final\"")?;
        if final_states.len() != n {
            return Err(parse_err(footer_no, "\"final\" does not cover every processor"));
        }
        let totals_arr = required_array(footer.get("totals"), footer_no, "\"totals\"")?;
        let totals = match totals_arr {
            [s, r, m] => match (s.as_u64(), r.as_u64(), m.as_u64()) {
                (Some(s), Some(r), Some(m)) => (s, r, m),
                _ => return Err(parse_err(footer_no, "non-numeric \"totals\"")),
            },
            _ => return Err(parse_err(footer_no, "\"totals\" must have three entries")),
        };
        let phases_obj = footer
            .get("phases")
            .ok_or_else(|| parse_err(footer_no, "missing \"phases\""))?;
        let mut phases = PhaseReport {
            total_steps: totals.0,
            total_rounds: totals.1,
            total_moves: totals.2,
            abnormal_procs: footer
                .get("abnormal")
                .and_then(Json::as_u64)
                .ok_or_else(|| parse_err(footer_no, "missing \"abnormal\""))?,
            ..PhaseReport::default()
        };
        for tag in PhaseTag::ALL {
            let triple = required_array(phases_obj.get(tag.name()), footer_no, "phase entry")?;
            match triple {
                [m, s, r] => match (m.as_u64(), s.as_u64(), r.as_u64()) {
                    (Some(m), Some(s), Some(r)) => {
                        phases.moves[tag.index()] = m;
                        phases.steps[tag.index()] = s;
                        phases.rounds[tag.index()] = r;
                    }
                    _ => return Err(parse_err(footer_no, "non-numeric phase entry")),
                },
                _ => return Err(parse_err(footer_no, "phase entry must have three counters")),
            }
        }

        Ok(RecordedTrace {
            version,
            n,
            graph_name,
            edges,
            actions,
            daemon,
            seed,
            init,
            steps,
            final_states,
            totals,
            phases,
        })
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on filesystem failure.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        std::fs::write(path, self.to_jsonl())?;
        Ok(())
    }

    /// Reads and parses a trace file.
    ///
    /// # Errors
    ///
    /// Same as [`RecordedTrace::from_jsonl`], plus [`TraceError::Io`].
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::from_jsonl(&std::fs::read_to_string(path)?)
    }
}

fn parse_err(line: usize, msg: impl Into<String>) -> TraceError {
    TraceError::Parse { line, msg: msg.into() }
}

fn parse_json_line(line_no: usize, line: &str) -> Result<Json, TraceError> {
    json::parse(line).map_err(|e| parse_err(line_no, e.to_string()))
}

fn required_array<'j>(
    value: Option<&'j Json>,
    line: usize,
    what: &str,
) -> Result<&'j [Json], TraceError> {
    value
        .and_then(Json::as_array)
        .ok_or_else(|| parse_err(line, format!("missing or non-array {what}")))
}

fn string_array(value: Option<&Json>, line: usize, what: &str) -> Result<Vec<String>, TraceError> {
    required_array(value, line, what)?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| parse_err(line, format!("non-string entry in {what}")))
        })
        .collect()
}

fn decode_states<S: TraceState>(tokens: &[String]) -> Result<Vec<S>, TraceError> {
    tokens
        .iter()
        .enumerate()
        .map(|(i, t)| {
            S::decode(t).ok_or_else(|| TraceError::BadState { proc: i, token: t.clone() })
        })
        .collect()
}

fn encode_states<S: TraceState>(states: &[S]) -> Vec<String> {
    states
        .iter()
        .map(|s| {
            let mut token = String::new();
            s.encode(&mut token);
            token
        })
        .collect()
}

/// Observer that records every executed selection, for later serialization
/// into a [`RecordedTrace`].
///
/// Start it on a freshly configured simulator with
/// [`TraceRecorder::start`], attach it to the run (typically alongside a
/// [`MetricsObserver`] via [`Fanout`]), then seal the trace with
/// [`TraceRecorder::finish`].
pub struct TraceRecorder {
    trace: RecordedTrace,
    start_steps: u64,
    start_rounds: u64,
}

impl TraceRecorder {
    /// Captures the run preamble (network, actions, initial configuration)
    /// from `sim` plus the daemon's identity for provenance.
    pub fn start<P>(sim: &Simulator<P>, daemon_name: &str, seed: u64) -> Self
    where
        P: Protocol,
        P::State: TraceState,
    {
        let g = sim.graph();
        TraceRecorder {
            trace: RecordedTrace {
                version: TRACE_VERSION,
                n: g.len(),
                graph_name: g.name().to_string(),
                edges: g.edges().map(|(u, v)| (u.0, v.0)).collect(),
                actions: sim
                    .protocol()
                    .action_names()
                    .iter()
                    .map(ToString::to_string)
                    .collect(),
                daemon: daemon_name.to_string(),
                seed,
                init: encode_states(sim.states()),
                steps: Vec::new(),
                final_states: Vec::new(),
                totals: (0, 0, 0),
                phases: PhaseReport::default(),
            },
            start_steps: sim.steps(),
            start_rounds: sim.rounds(),
        }
    }

    /// Seals the trace with the final configuration read from `sim` and
    /// the run's phase metrics.
    pub fn finish<P>(mut self, sim: &Simulator<P>, phases: PhaseReport) -> RecordedTrace
    where
        P: Protocol,
        P::State: TraceState,
    {
        self.trace.final_states = encode_states(sim.states());
        let moves = self.trace.steps.iter().map(|s| s.len() as u64).sum();
        self.trace.totals =
            (sim.steps() - self.start_steps, sim.rounds() - self.start_rounds, moves);
        self.trace.phases = phases;
        self.trace
    }
}

impl<P: Protocol> Observer<P> for TraceRecorder {
    fn step(&mut self, _: &Graph, delta: &StepDelta<'_, P>, _: &[P::State]) {
        self.trace.steps.push(delta.executed().to_vec());
    }
}

/// Daemon that replays exactly one prerecorded selection.
struct OneShot<'a>(&'a [(ProcId, ActionId)]);

impl<S> Daemon<S> for OneShot<'_> {
    fn select(&mut self, _: &EnabledSet<'_, S>, out: &mut Vec<(ProcId, ActionId)>) {
        out.extend_from_slice(self.0);
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

/// Replays `trace` under `protocol`, re-recording it step by step.
///
/// The recorded selections are fed back through the simulator with
/// validation enabled, so a selection that is no longer enabled (protocol
/// drift, nondeterminism) is caught immediately. Returns the re-recorded
/// trace, which for a faithful replay is **equal** to the input —
/// [`diff`] or `==` checks that.
///
/// # Errors
///
/// [`TraceError::UnsupportedVersion`], [`TraceError::Graph`],
/// [`TraceError::BadState`] for a trace this protocol cannot host, and
/// [`TraceError::Divergence`] when execution disagrees with the recording.
pub fn replay<P>(trace: &RecordedTrace, protocol: P) -> Result<RecordedTrace, TraceError>
where
    P: Protocol,
    P::State: TraceState,
{
    if trace.version != TRACE_VERSION {
        return Err(TraceError::UnsupportedVersion { found: trace.version });
    }
    let graph = trace.graph()?;
    let init: Vec<P::State> = trace.decode_init()?;
    let mut metrics = MetricsObserver::for_protocol(&protocol, trace.n);
    let mut sim = Simulator::builder(graph, protocol).states(init).validation(true).build();
    let mut recorder = TraceRecorder::start(&sim, &trace.daemon, trace.seed);
    for (k, sel) in trace.steps.iter().enumerate() {
        if sim.is_terminal() {
            return Err(TraceError::Divergence {
                step: k as u64,
                detail: "configuration terminal before recorded step".into(),
            });
        }
        let mut observers = Fanout::new(&mut metrics, &mut recorder);
        sim.step_observed(&mut OneShot(sel), &mut observers).map_err(|e| {
            TraceError::Divergence { step: k as u64, detail: e.to_string() }
        })?;
    }
    Ok(recorder.finish(&sim, metrics.report()))
}

/// Compares two traces field by field, returning one human-readable line
/// per difference (empty means the traces are identical).
pub fn diff(a: &RecordedTrace, b: &RecordedTrace) -> Vec<String> {
    fn field(out: &mut Vec<String>, name: &str, left: &str, right: &str) {
        if left != right {
            out.push(format!("{name}: {left} != {right}"));
        }
    }
    let mut out = Vec::new();
    field(&mut out, "version", &a.version.to_string(), &b.version.to_string());
    field(&mut out, "graph.n", &a.n.to_string(), &b.n.to_string());
    field(&mut out, "graph.name", &a.graph_name, &b.graph_name);
    field(
        &mut out,
        "graph.edges",
        &format!("{} edges", a.edges.len()),
        &format!("{} edges", b.edges.len()),
    );
    if a.edges.len() == b.edges.len() && a.edges != b.edges {
        out.push("graph.edges: same count, different links".into());
    }
    field(&mut out, "actions", &a.actions.join(","), &b.actions.join(","));
    field(&mut out, "daemon", &a.daemon, &b.daemon);
    field(&mut out, "seed", &a.seed.to_string(), &b.seed.to_string());
    if let Some(p) = (0..a.init.len().min(b.init.len())).find(|&i| a.init[i] != b.init[i]) {
        out.push(format!("init[p{p}]: {} != {}", a.init[p], b.init[p]));
    }
    if a.steps.len() != b.steps.len() {
        out.push(format!("steps: {} != {}", a.steps.len(), b.steps.len()));
    } else if let Some(k) = (0..a.steps.len()).find(|&k| a.steps[k] != b.steps[k]) {
        out.push(format!("step {k}: selections differ"));
    }
    if let Some(p) =
        (0..a.final_states.len().min(b.final_states.len())).find(|&i| {
            a.final_states[i] != b.final_states[i]
        })
    {
        out.push(format!("final[p{p}]: {} != {}", a.final_states[p], b.final_states[p]));
    }
    field(&mut out, "totals", &format!("{:?}", a.totals), &format!("{:?}", b.totals));
    for tag in PhaseTag::ALL {
        if (a.phases.moves_of(tag), a.phases.steps_of(tag), a.phases.rounds_of(tag))
            != (b.phases.moves_of(tag), b.phases.steps_of(tag), b.phases.rounds_of(tag))
        {
            out.push(format!("phase {}: counters differ", tag.name()));
        }
    }
    if a.phases.abnormal_procs != b.phases.abnormal_procs {
        out.push(format!(
            "abnormal: {} != {}",
            a.phases.abnormal_procs, b.phases.abnormal_procs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemons::CentralRandom;
    use crate::{ActionSet, RunLimits, StopPolicy, View};
    use pif_graph::generators;

    /// Max-propagation toy protocol with a correction flavor: adopting a
    /// larger neighbor value is Broadcast; clamping a negative value to
    /// zero is Correction.
    struct MaxProto;

    impl Protocol for MaxProto {
        type State = i32;
        fn action_names(&self) -> &'static [&'static str] {
            &["adopt-max", "clamp"]
        }
        fn enabled_actions(&self, v: View<'_, i32>) -> ActionSet {
            match *v.me() {
                x if x < 0 => ActionSet::of(ActionId(1)),
                x if v.neighbor_states().any(|(_, &s)| s > x) => ActionSet::of(ActionId(0)),
                _ => ActionSet::EMPTY,
            }
        }
        fn execute(&self, v: View<'_, i32>, a: ActionId) -> i32 {
            match a {
                ActionId(1) => 0,
                _ => v.neighbor_states().map(|(_, &s)| s).max().unwrap().max(*v.me()),
            }
        }
        fn classify(&self, action: ActionId) -> PhaseTag {
            match action {
                ActionId(1) => PhaseTag::Correction,
                _ => PhaseTag::Broadcast,
            }
        }
    }

    fn record_run(seed: u64) -> RecordedTrace {
        let g = generators::torus(3, 3).unwrap();
        let init = vec![-3, 0, 7, 0, -1, 2, 0, 5, 0];
        let mut metrics = MetricsObserver::for_protocol(&MaxProto, 9);
        let mut sim = Simulator::builder(g, MaxProto).states(init).validation(true).build();
        let mut recorder = TraceRecorder::start(&sim, "central-random", seed);
        let mut daemon = CentralRandom::new(seed);
        {
            let mut observers = Fanout::new(&mut metrics, &mut recorder);
            sim.run(
                &mut daemon,
                &mut observers,
                StopPolicy::Fixpoint(RunLimits::default()),
            )
            .unwrap();
        }
        recorder.finish(&sim, metrics.report())
    }

    #[test]
    fn record_serialize_parse_roundtrip() {
        let trace = record_run(0xFEED);
        let text = trace.to_jsonl();
        let parsed = RecordedTrace::from_jsonl(&text).unwrap();
        assert_eq!(trace, parsed);
        assert_eq!(text, parsed.to_jsonl(), "serialization must be deterministic");
    }

    #[test]
    fn replay_reproduces_run_exactly() {
        let trace = record_run(0xBEEF);
        let replayed = replay(&trace, MaxProto).unwrap();
        assert_eq!(diff(&trace, &replayed), Vec::<String>::new());
        assert_eq!(trace, replayed);
        assert_eq!(trace.to_jsonl(), replayed.to_jsonl());
    }

    #[test]
    fn replay_detects_tampered_selection() {
        let mut trace = record_run(0xDEAD);
        // Corrupt one recorded action into one that cannot be enabled.
        let k = trace.steps.len() / 2;
        trace.steps[k][0].1 = ActionId(7);
        let err = replay(&trace, MaxProto).unwrap_err();
        assert!(matches!(err, TraceError::Divergence { step, .. } if step == k as u64));
    }

    #[test]
    fn corrupted_jsonl_line_is_a_typed_error() {
        let trace = record_run(0xC0FFEE);
        let text = trace.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        // Chop a step line in half: parse must fail, not panic.
        let mut corrupted = String::new();
        for (i, l) in lines.iter().enumerate() {
            if i == 1 {
                corrupted.push_str(&l[..l.len() / 2]);
            } else {
                corrupted.push_str(l);
            }
            corrupted.push('\n');
        }
        let err = RecordedTrace::from_jsonl(&corrupted).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "got {err}");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut trace = record_run(1);
        trace.version = 99;
        assert!(matches!(
            replay(&trace, MaxProto),
            Err(TraceError::UnsupportedVersion { found: 99 })
        ));
        let text = trace.to_jsonl();
        assert!(matches!(
            RecordedTrace::from_jsonl(&text),
            Err(TraceError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn diff_pinpoints_differences() {
        let a = record_run(7);
        let mut b = a.clone();
        b.seed = 8;
        b.final_states[0] = "42".into();
        let d = diff(&a, &b);
        assert!(d.iter().any(|l| l.starts_with("seed")));
        assert!(d.iter().any(|l| l.starts_with("final[p0]")));
    }

    #[test]
    fn bad_state_token_is_typed() {
        let mut trace = record_run(3);
        trace.init[2] = "not-a-number".into();
        let err = replay(&trace, MaxProto).unwrap_err();
        assert!(matches!(err, TraceError::BadState { proc: 2, .. }));
    }
}
