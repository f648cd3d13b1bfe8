//! Capture records: everything that arrives at a honeypot.

use serde::{Content, DeError, Deserialize, Serialize};
use shadow_netsim::engine::Ctx;
use shadow_netsim::time::SimTime;
use shadow_packet::dns::DnsName;
use shadow_telemetry::EventKind;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A honeypot's name ("US", "DE", "SG", "AUTH").
///
/// `Arc`-backed: every arrival carries its capturing honeypot's label, so
/// the per-capture copy must be a reference-count bump, not a fresh heap
/// string. Serializes as a plain string — capture-log and journal
/// encodings are unchanged from the `String` representation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(Arc<str>);

impl Label {
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label(Arc::from(s))
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Label(Arc::from(s))
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Serialize for Label {
    fn serialize_content(&self) -> Content {
        Content::Str(self.0.to_string())
    }
}

impl Deserialize for Label {
    fn deserialize_content(content: &Content) -> Result<Self, DeError> {
        String::deserialize_content(content).map(Label::from)
    }
}

/// The protocol an arrival came in over — the `Request` half of the paper's
/// `Decoy-Request` protocol-combination labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ArrivalProtocol {
    Dns,
    Http,
    /// TLS arrivals on 443 ("HTTPS" in the paper's labels).
    Https,
}

impl ArrivalProtocol {
    pub fn as_str(self) -> &'static str {
        match self {
            ArrivalProtocol::Dns => "DNS",
            ArrivalProtocol::Http => "HTTP",
            ArrivalProtocol::Https => "HTTPS",
        }
    }
}

/// One request that reached a honeypot bearing an experiment domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    pub at: SimTime,
    pub src: Ipv4Addr,
    pub protocol: ArrivalProtocol,
    /// The experiment domain the request bears (QNAME / Host / SNI).
    pub domain: DnsName,
    /// For HTTP arrivals: the requested path (payload analysis, §5).
    pub http_path: Option<String>,
    /// Which honeypot captured it ("US", "DE", "SG").
    pub honeypot: Label,
}

/// An append-only capture log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CaptureLog {
    entries: Vec<Arrival>,
}

impl CaptureLog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, arrival: Arrival) {
        self.entries.push(arrival);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Arrival> {
        self.entries.iter()
    }
}

/// The capture-time verdict a streaming sink returns for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkDecision {
    /// Did the arrival's domain resolve to a registered decoy?
    pub classified: bool,
    /// Was it classified unsolicited?
    pub unsolicited: bool,
    /// The unsolicited rule name, when `unsolicited`. Solicited-class
    /// attribution is deliberately unnamed: which of two same-millisecond
    /// duplicates counts as the solicited resolution depends on engine
    /// event order, and journals must stay shard-invariant.
    pub rule: Option<&'static str>,
}

impl SinkDecision {
    /// The verdict for an arrival no sink wants to interpret.
    pub fn unclassified() -> Self {
        Self {
            classified: false,
            unsolicited: false,
            rule: None,
        }
    }
}

/// A streaming consumer of honeypot arrivals, installed by the campaign
/// layer. Hosts call [`ArrivalSink::offer`] from the capture funnel for
/// every arrival, at capture time and in capture order. A host with a sink
/// installed keeps no local copy: the sink's aggregates are the only record.
pub trait ArrivalSink: Send {
    fn offer(&mut self, arrival: &Arrival) -> SinkDecision;

    /// Downcast hook so the installing layer can take its state back out
    /// after the run (the hosts only know the trait object).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// The shared handle hosts hold: one sink per shard engine, shared by that
/// engine's authoritative server and honey web hosts. Single-threaded
/// within a shard, so the mutex is uncontended — it exists to satisfy the
/// `Send` bound the sharded executor needs when worlds cross threads.
pub type SharedArrivalSink = Arc<parking_lot::Mutex<Box<dyn ArrivalSink>>>;

/// Record `arrival` into the engine's telemetry (the per-protocol
/// `arrivals_captured` counter plus an [`EventKind::ArrivalCaptured`]
/// journal event), then offer it to the streaming `sink` if one is
/// installed, or append it to `log` if none is (the pre-flight's
/// sink-less captures). Every honeypot capture path
/// funnels through here, so the counters, the journal, the sink
/// aggregates, and the capture log can never disagree.
pub fn capture_with_telemetry(
    log: &mut CaptureLog,
    sink: Option<&SharedArrivalSink>,
    arrival: Arrival,
    ctx: &Ctx<'_>,
) {
    let telemetry = ctx.telemetry();
    if telemetry.is_enabled() {
        if let Some(m) = telemetry.metrics() {
            m.arrivals_captured.inc(arrival.protocol.as_str());
        }
        // The owned copy of the label is built inside the closure, so it
        // is only paid for when a journal is actually attached.
        telemetry.event(arrival.at.millis(), Some(ctx.node().0), || {
            EventKind::ArrivalCaptured {
                honeypot: arrival.honeypot.as_str().to_owned(),
                protocol: arrival.protocol.as_str().to_string(),
                domain: arrival.domain.as_str().to_string(),
                src: arrival.src,
            }
        });
    }
    let Some(sink) = sink else {
        log.push(arrival);
        return;
    };
    let decision = sink.lock().offer(&arrival);
    if decision.classified && telemetry.is_enabled() {
        if let Some(m) = telemetry.metrics() {
            m.arrivals_classified.inc();
        }
        telemetry.event(arrival.at.millis(), Some(ctx.node().0), || {
            EventKind::ArrivalClassified {
                honeypot: arrival.honeypot.as_str().to_owned(),
                protocol: arrival.protocol.as_str().to_string(),
                domain: arrival.domain.as_str().to_string(),
                src: arrival.src,
                unsolicited: decision.unsolicited,
                rule: decision.rule.map(str::to_string),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(at: u64, proto: ArrivalProtocol, hp: &str) -> Arrival {
        Arrival {
            at: SimTime(at),
            src: Ipv4Addr::new(192, 0, 2, 1),
            protocol: proto,
            domain: DnsName::parse("x.www.experiment.example").unwrap(),
            http_path: None,
            honeypot: hp.into(),
        }
    }

    #[test]
    fn log_accumulates() {
        let mut log = CaptureLog::new();
        assert!(log.is_empty());
        log.push(arrival(5, ArrivalProtocol::Dns, "US"));
        log.push(arrival(1, ArrivalProtocol::Http, "US"));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(ArrivalProtocol::Dns.as_str(), "DNS");
        assert_eq!(ArrivalProtocol::Https.as_str(), "HTTPS");
    }
}
