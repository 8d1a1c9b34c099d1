//! The toll output probe: a delegating wrapper around the TollNotification
//! sink that timestamps every notification on the wall clock as the sink
//! receives it, the way a client of the system would see it.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use confluence_core::actor::{Actor, FireContext, IoSignature, SdfRates};
use confluence_core::error::Result;
use confluence_core::time::Timestamp;
use confluence_core::token::Token;
use confluence_core::window::Window;
use confluence_linearroad::TollNotification;

/// One toll notification as the probe saw it.
#[derive(Debug, Clone, Copy)]
pub struct Seen {
    pub toll: TollNotification,
    /// Wall microseconds since the run's clock epoch.
    pub at_us: u64,
}

/// Shared state of a probe: the run's clock epoch and what it saw.
#[derive(Default)]
pub struct ProbeLog {
    epoch: OnceLock<Instant>,
    seen: Mutex<Vec<Seen>>,
}

impl ProbeLog {
    /// Fix the clock epoch (call right where the director's clock starts).
    pub fn start_clock(&self) {
        self.epoch
            .set(Instant::now())
            .expect("probe clock started once");
    }

    /// Everything seen, in receipt order.
    pub fn take(&self) -> Vec<Seen> {
        std::mem::take(&mut *self.seen.lock().expect("probe log lock"))
    }
}

/// The delegating sink wrapper.
pub struct TollProbe {
    inner: Box<dyn Actor>,
    log: Arc<ProbeLog>,
}

impl TollProbe {
    pub fn new(inner: Box<dyn Actor>, log: Arc<ProbeLog>) -> Self {
        TollProbe { inner, log }
    }
}

/// A [`FireContext`] that records every window handed to the sink.
struct ProbeCtx<'a> {
    inner: &'a mut dyn FireContext,
    log: &'a ProbeLog,
}

impl ProbeCtx<'_> {
    fn record(&self, w: &Window) {
        let epoch = self
            .log
            .epoch
            .get()
            .expect("probe clock started before the run");
        let at_us = epoch.elapsed().as_micros() as u64;
        let mut seen = self.log.seen.lock().expect("probe log lock");
        for e in &w.events {
            let toll = TollNotification::from_token(&e.token).expect("toll notification token");
            seen.push(Seen { toll, at_us });
        }
    }
}

impl FireContext for ProbeCtx<'_> {
    fn now(&self) -> Timestamp {
        self.inner.now()
    }
    fn get(&mut self, port: usize) -> Option<Window> {
        let w = self.inner.get(port)?;
        self.record(&w);
        Some(w)
    }
    fn get_any(&mut self) -> Option<(usize, Window)> {
        let (port, w) = self.inner.get_any()?;
        self.record(&w);
        Some((port, w))
    }
    fn emit(&mut self, port: usize, token: Token) {
        self.inner.emit(port, token)
    }
    fn report_shed(&mut self, events: u64) {
        self.inner.report_shed(events)
    }
}

impl Actor for TollProbe {
    fn signature(&self) -> IoSignature {
        self.inner.signature()
    }
    fn initialize(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.inner.initialize(ctx)
    }
    fn prefire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.inner.prefire(ctx)
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let mut probe = ProbeCtx {
            inner: ctx,
            log: &self.log,
        };
        self.inner.fire(&mut probe)
    }
    fn postfire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.inner.postfire(ctx)
    }
    fn finish(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let mut probe = ProbeCtx {
            inner: ctx,
            log: &self.log,
        };
        self.inner.finish(&mut probe)
    }
    fn wrapup(&mut self) -> Result<()> {
        self.inner.wrapup()
    }
    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        self.inner.save_state()
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.restore_state(bytes)
    }
    fn replicate(&self) -> Option<Box<dyn Actor>> {
        let inner = self.inner.replicate()?;
        Some(Box::new(TollProbe::new(inner, self.log.clone())))
    }
    fn is_source(&self) -> bool {
        self.inner.is_source()
    }
    fn next_arrival(&self) -> Option<Timestamp> {
        self.inner.next_arrival()
    }
    fn rates(&self) -> Option<SdfRates> {
        self.inner.rates()
    }
}
