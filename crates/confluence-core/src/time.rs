//! Time keeping: timestamps, durations, and the clock abstraction.
//!
//! CONFLuEnCE stamps every event with a microsecond-resolution
//! [`Timestamp`]. Directors read the current time from a [`Clock`], which is
//! either the wall clock ([`WallClock`], used by the thread-based PNCWF
//! director) or a [`VirtualClock`] advanced explicitly by a discrete-event
//! executor (used by the STAFiLOS SCWF director when running experiments in
//! virtual time).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in time, in microseconds since an arbitrary epoch.
///
/// For wall-clock execution the epoch is the moment the clock was created;
/// for virtual execution the epoch is the start of the simulation. Using a
/// relative epoch keeps runs reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span of time in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(pub u64);

impl Timestamp {
    /// The zero timestamp (the epoch).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Microseconds since the epoch.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating difference `self - earlier`.
    #[inline]
    pub fn since(self, earlier: Timestamp) -> Micros {
        Micros(self.0.saturating_sub(earlier.0))
    }

    /// This timestamp advanced by `d`.
    #[inline]
    pub fn plus(self, d: Micros) -> Timestamp {
        Timestamp(self.0 + d.0)
    }

    /// Construct from whole seconds.
    #[inline]
    pub fn from_secs(s: u64) -> Timestamp {
        Timestamp(s * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: u64) -> Timestamp {
        Timestamp(ms * 1_000)
    }
}

impl Micros {
    /// Zero duration.
    pub const ZERO: Micros = Micros(0);

    /// Construct from whole seconds.
    #[inline]
    pub fn from_secs(s: u64) -> Micros {
        Micros(s * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: u64) -> Micros {
        Micros(ms * 1_000)
    }

    /// Raw microseconds.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Convert to a `std::time::Duration` (for wall-clock sleeps).
    #[inline]
    pub fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_micros(self.0)
    }
}

impl From<std::time::Duration> for Micros {
    /// Whole microseconds of a wall-clock duration (saturating).
    fn from(d: std::time::Duration) -> Micros {
        Micros(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
    }
}

impl std::ops::Add<Micros> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: Micros) -> Timestamp {
        self.plus(rhs)
    }
}

impl std::ops::Add for Micros {
    type Output = Micros;
    #[inline]
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Micros {
    #[inline]
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Micros {
    type Output = Micros;
    #[inline]
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Mul<u64> for Micros {
    type Output = Micros;
    #[inline]
    fn mul(self, rhs: u64) -> Micros {
        Micros(self.0 * rhs)
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

/// Source of the current time for a director.
///
/// Implementations must be cheap and thread-safe: the thread-based director
/// reads the clock concurrently from every actor thread.
pub trait Clock: Send + Sync {
    /// The current time.
    fn now(&self) -> Timestamp;
}

/// Wall clock, anchored at the moment of construction.
#[derive(Debug)]
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    /// A wall clock whose epoch is "now".
    pub fn new() -> Self {
        WallClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.origin.elapsed().as_micros() as u64)
    }
}

/// A virtual clock advanced explicitly by a discrete-event executor.
///
/// The SCWF director charges each actor firing's (measured or modeled) cost
/// to this clock, so a 600-second Linear Road run completes in milliseconds
/// of wall time while preserving all queueing behaviour.
#[derive(Debug, Default)]
pub struct VirtualClock {
    micros: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at the epoch.
    pub fn new() -> Self {
        VirtualClock {
            micros: AtomicU64::new(0),
        }
    }

    /// Advance the clock by `d` and return the new time.
    pub fn advance(&self, d: Micros) -> Timestamp {
        let newv = self.micros.fetch_add(d.0, Ordering::Relaxed) + d.0;
        Timestamp(newv)
    }

    /// Move the clock forward to `t`. Moving backwards is a no-op: virtual
    /// time is monotone.
    pub fn advance_to(&self, t: Timestamp) {
        self.micros.fetch_max(t.0, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.micros.load(Ordering::Relaxed))
    }
}

/// A shareable clock handle.
pub type SharedClock = Arc<dyn Clock>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(2);
        assert_eq!(t.as_micros(), 2_000_000);
        assert_eq!(t.plus(Micros::from_millis(500)).as_micros(), 2_500_000);
        assert_eq!(t.since(Timestamp::from_secs(1)), Micros::from_secs(1));
        // saturating difference
        assert_eq!(Timestamp::ZERO.since(t), Micros::ZERO);
        assert_eq!((t + Micros(5)).as_micros(), 2_000_005);
    }

    #[test]
    fn micros_arithmetic() {
        let d = Micros::from_millis(3);
        assert_eq!((d + Micros(1)).as_micros(), 3_001);
        assert_eq!((d - Micros::from_millis(1)).as_micros(), 2_000);
        assert_eq!((Micros(10) - Micros(20)).as_micros(), 0);
        assert_eq!((Micros(7) * 3).as_micros(), 21);
        let mut a = Micros(1);
        a += Micros(2);
        assert_eq!(a, Micros(3));
        assert_eq!(Micros::from_secs(1).to_std(), std::time::Duration::from_secs(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Timestamp::from_secs(1).to_string(), "1.000000s");
        assert_eq!(Micros(42).to_string(), "42µs");
    }

    #[test]
    fn wall_clock_monotone() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Timestamp::ZERO);
        assert_eq!(c.advance(Micros(10)), Timestamp(10));
        assert_eq!(c.now(), Timestamp(10));
        c.advance_to(Timestamp(100));
        assert_eq!(c.now(), Timestamp(100));
        // moving backwards is ignored
        c.advance_to(Timestamp(50));
        assert_eq!(c.now(), Timestamp(100));
    }

    #[test]
    fn clock_is_object_safe_and_shareable() {
        let c: SharedClock = Arc::new(VirtualClock::new());
        assert_eq!(c.now(), Timestamp::ZERO);
    }
}
