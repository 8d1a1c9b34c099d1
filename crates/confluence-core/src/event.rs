//! Timestamped, wave-stamped events: the unit of data in a continuous
//! workflow.
//!
//! Raw [`Token`]s are encapsulated into [`CwEvent`]s when they enter a
//! receiver, as dictated by the timekeeping components: each event carries
//! the time it was produced and its [`WaveTag`] lineage. The timestamp of
//! the wave's initiating external event (`event.wave.origin()`) is what QoS
//! metrics such as response time are measured against.

use crate::time::Timestamp;
use crate::token::Token;
use crate::wave::WaveTag;

/// A token wrapped with timing and lineage metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CwEvent {
    /// The payload.
    pub token: Token,
    /// When this event was produced (stamped by the director's clock).
    pub timestamp: Timestamp,
    /// Lineage: which external event this derives from, and how.
    pub wave: WaveTag,
}

impl CwEvent {
    /// An external event entering the system at `ts`: it initiates a new
    /// wave whose tag is its own timestamp.
    pub fn external(token: Token, ts: Timestamp) -> Self {
        CwEvent {
            token,
            timestamp: ts,
            wave: WaveTag::external(ts),
        }
    }

    /// An internal event derived from `parent`'s wave: the `index`-th
    /// (1-based) event produced by one firing, `last` marking the firing's
    /// final production.
    pub fn derived(token: Token, produced_at: Timestamp, parent: &WaveTag, index: u32, last: bool) -> Self {
        CwEvent {
            token,
            timestamp: produced_at,
            wave: parent.child(index, last),
        }
    }

    /// Timestamp of the initiating external event — the reference point for
    /// response-time (latency) measurements.
    pub fn origin(&self) -> Timestamp {
        self.wave.origin()
    }

    /// Age of this event's wave at time `now` (response time if measured at
    /// an output actor).
    pub fn latency_at(&self, now: Timestamp) -> crate::time::Micros {
        now.since(self.origin())
    }
}

/// Stamps the productions of a single actor firing with consecutive wave
/// serial numbers, marking the last one.
///
/// Stamping waits until the firing completes (only then is the last
/// production known). Directors stamp through
/// [`Fabric::stamp`](crate::director::Fabric::stamp), which assigns the
/// same serials in its routing pass; this is the standalone per-event
/// form.
#[derive(Debug)]
pub struct WaveStamper {
    parent: WaveTag,
}

impl WaveStamper {
    /// Stamper for productions triggered by an event of wave `parent`.
    pub fn new(parent: WaveTag) -> Self {
        WaveStamper { parent }
    }

    /// Stamp `tokens` as the complete production set of one firing,
    /// produced at `now`. The final token is marked last-of-firing.
    pub fn stamp_all(&self, tokens: Vec<Token>, now: Timestamp) -> Vec<CwEvent> {
        let n = tokens.len();
        tokens
            .into_iter()
            .enumerate()
            .map(|(i, token)| {
                CwEvent::derived(token, now, &self.parent, (i + 1) as u32, i + 1 == n)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Micros;

    #[test]
    fn external_event_initiates_wave() {
        let e = CwEvent::external(Token::Int(1), Timestamp(100));
        assert_eq!(e.origin(), Timestamp(100));
        assert_eq!(e.timestamp, Timestamp(100));
        assert_eq!(e.wave.depth(), 0);
    }

    #[test]
    fn derived_event_extends_wave() {
        let root = CwEvent::external(Token::Unit, Timestamp(5));
        let d = CwEvent::derived(Token::Int(9), Timestamp(20), &root.wave, 2, true);
        assert_eq!(d.origin(), Timestamp(5)); // origin is inherited
        assert_eq!(d.timestamp, Timestamp(20)); // production time is new
        assert_eq!(d.wave.depth(), 1);
        assert!(d.wave.on_last_spine());
    }

    #[test]
    fn latency_measures_against_wave_origin() {
        let root = CwEvent::external(Token::Unit, Timestamp(1_000));
        let d = CwEvent::derived(Token::Unit, Timestamp(4_000), &root.wave, 1, true);
        assert_eq!(d.latency_at(Timestamp(6_000)), Micros(5_000));
    }

    #[test]
    fn stamper_numbers_and_marks_last() {
        let root = WaveTag::external(Timestamp(1));
        let stamper = WaveStamper::new(root);
        let events = stamper.stamp_all(
            vec![Token::Int(1), Token::Int(2), Token::Int(3)],
            Timestamp(10),
        );
        assert_eq!(events.len(), 3);
        let tags: Vec<String> = events.iter().map(|e| e.wave.to_string()).collect();
        assert_eq!(tags, vec!["t1.1", "t1.2", "t1.3!"]);
        assert!(events.iter().all(|e| e.timestamp == Timestamp(10)));
    }

    #[test]
    fn stamper_empty_production() {
        let stamper = WaveStamper::new(WaveTag::external(Timestamp(1)));
        assert!(stamper.stamp_all(vec![], Timestamp(2)).is_empty());
    }
}
