//! Checkpoint & recovery: quiesced snapshots plus source event logs.
//!
//! A checkpoint captures everything a continuous workflow needs to resume
//! mid-stream and *reconverge* on the uninterrupted run's results:
//!
//! * per-actor durable state ([`crate::actor::Actor::save_state`]);
//! * the fabric's in-flight data — windows queued in actor inboxes and
//!   partial windows buffered inside each port's window operator
//!   ([`FabricState`]);
//! * engine-registered external resources such as relational stores
//!   ([`CheckpointResource`]);
//! * each source's read offset into its **event log** ([`EventLog`] /
//!   [`LoggedSource`]): every emission a source makes is appended to a
//!   length-prefixed log so a recovered run can replay the exact token
//!   stream the killed run produced past the snapshot point.
//!
//! Both file formats are versioned and checksummed: a snapshot ends in a
//! CRC-32 of everything before it, and every log frame carries the CRC-32
//! of its payload. A flipped bit or an old-version file reads as
//! [`Error::Checkpoint`], never as wrong state.
//!
//! The directors cooperate through a [`QuiesceHook`]: when a checkpoint is
//! due the engine requests a pause, the director stops sources, drains
//! in-flight work to a firing boundary, and deposits the captured
//! [`FabricState`] instead of running its end-of-stream teardown.

pub mod codec;

use std::collections::VecDeque;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::actor::{Actor, FireContext, IoSignature, SdfRates};
use crate::error::{Error, Result};
use crate::time::Timestamp;
use crate::token::Token;
use crate::window::{GroupSnapshot, OperatorSnapshot, Window};
use codec::{crc32, Decoder, Encoder};

/// Magic bytes opening every checkpoint file.
const MAGIC: &[u8; 4] = b"CFLC";
/// Checkpoint file format version (2: closing CRC-32).
const VERSION: u32 = 2;
/// Magic bytes opening every event log.
const LOG_MAGIC: &[u8; 4] = b"CFLG";
/// Event log format version (2: file header, per-frame CRC-32; version 1
/// logs had neither).
const LOG_VERSION: u32 = 2;
/// Bytes before each log frame's payload: length, its complement, CRC.
const FRAME_HEADER: usize = 12;

/// File name of the snapshot inside a checkpoint directory.
pub const SNAPSHOT_FILE: &str = "checkpoint.bin";

/// Path of the event log for the named source inside a checkpoint
/// directory.
pub fn log_path(dir: &Path, actor: &str) -> PathBuf {
    // Actor names are workflow identifiers, but guard against separators
    // so a hostile name cannot escape the directory.
    let safe: String = actor
        .chars()
        .map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    dir.join(format!("log-{safe}.bin"))
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Checkpoint(format!("{what}: {e}"))
}

// ---------------------------------------------------------------------------
// Fabric state
// ---------------------------------------------------------------------------

/// Captured in-flight state of one actor: its ready-window inbox and the
/// window-operator state of each input port.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ActorFabricState {
    /// Queued `(input port, window)` pairs, front first.
    pub inbox: Vec<(usize, Window)>,
    /// Per-input-port operator snapshots, in port order.
    pub ports: Vec<OperatorSnapshot>,
}

/// Captured in-flight state of the whole fabric, indexed by actor id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FabricState {
    /// Per-actor state, in actor-id order.
    pub actors: Vec<ActorFabricState>,
}

fn encode_events(e: &mut Encoder, events: &[crate::event::CwEvent]) {
    e.u32(events.len() as u32);
    for ev in events {
        e.event(ev);
    }
}

fn decode_events(d: &mut Decoder<'_>) -> Result<Vec<crate::event::CwEvent>> {
    let n = d.u32()? as usize;
    let mut events = Vec::with_capacity(d.capacity(n));
    for _ in 0..n {
        events.push(d.event()?);
    }
    Ok(events)
}

fn encode_windows(e: &mut Encoder, windows: &[Window]) {
    e.u32(windows.len() as u32);
    for w in windows {
        e.window(w);
    }
}

fn decode_windows(d: &mut Decoder<'_>) -> Result<Vec<Window>> {
    let n = d.u32()? as usize;
    let mut windows = Vec::with_capacity(d.capacity(n));
    for _ in 0..n {
        windows.push(d.window()?);
    }
    Ok(windows)
}

fn encode_group(e: &mut Encoder, g: &GroupSnapshot) {
    match g {
        GroupSnapshot::Tuples {
            key,
            events,
            front_seq,
            next_seq,
            next_start,
        } => {
            e.u8(0);
            e.token(key);
            encode_events(e, events);
            e.u64(*front_seq);
            e.u64(*next_seq);
            e.u64(*next_start);
        }
        GroupSnapshot::Time {
            key,
            events,
            watermark,
            next_k,
        } => {
            e.u8(1);
            e.token(key);
            encode_events(e, events);
            e.u64(*watermark);
            e.u64(*next_k);
        }
        GroupSnapshot::Wave { key, events } => {
            e.u8(2);
            e.token(key);
            encode_events(e, events);
        }
    }
}

fn decode_group(d: &mut Decoder<'_>) -> Result<GroupSnapshot> {
    match d.u8()? {
        0 => {
            let key = d.token()?;
            let events = decode_events(d)?;
            Ok(GroupSnapshot::Tuples {
                key,
                events,
                front_seq: d.u64()?,
                next_seq: d.u64()?,
                next_start: d.u64()?,
            })
        }
        1 => {
            let key = d.token()?;
            let events = decode_events(d)?;
            Ok(GroupSnapshot::Time {
                key,
                events,
                watermark: d.u64()?,
                next_k: d.u64()?,
            })
        }
        2 => Ok(GroupSnapshot::Wave {
            key: d.token()?,
            events: decode_events(d)?,
        }),
        tag => Err(Error::Checkpoint(format!("unknown group snapshot tag {tag}"))),
    }
}

fn encode_operator(e: &mut Encoder, op: &OperatorSnapshot) {
    e.u32(op.groups.len() as u32);
    for g in &op.groups {
        encode_group(e, g);
    }
    encode_windows(e, &op.ready);
    encode_events(e, &op.expired);
}

fn decode_operator(d: &mut Decoder<'_>) -> Result<OperatorSnapshot> {
    let n = d.u32()? as usize;
    let mut groups = Vec::with_capacity(d.capacity(n));
    for _ in 0..n {
        groups.push(decode_group(d)?);
    }
    Ok(OperatorSnapshot {
        groups,
        ready: decode_windows(d)?,
        expired: decode_events(d)?,
    })
}

impl FabricState {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.actors.len() as u32);
        for actor in &self.actors {
            e.u32(actor.inbox.len() as u32);
            for (port, window) in &actor.inbox {
                e.u32(*port as u32);
                e.window(window);
            }
            e.u32(actor.ports.len() as u32);
            for op in &actor.ports {
                encode_operator(e, op);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<FabricState> {
        let n = d.u32()? as usize;
        let mut actors = Vec::with_capacity(d.capacity(n));
        for _ in 0..n {
            let k = d.u32()? as usize;
            let mut inbox = Vec::with_capacity(d.capacity(k));
            for _ in 0..k {
                let port = d.u32()? as usize;
                inbox.push((port, d.window()?));
            }
            let p = d.u32()? as usize;
            let mut ports = Vec::with_capacity(d.capacity(p));
            for _ in 0..p {
                ports.push(decode_operator(d)?);
            }
            actors.push(ActorFabricState { inbox, ports });
        }
        Ok(FabricState { actors })
    }

    /// Total windows and buffered events captured (diagnostics).
    pub fn item_count(&self) -> usize {
        self.actors
            .iter()
            .map(|a| {
                a.inbox.len()
                    + a.ports
                        .iter()
                        .map(|p| p.groups.len() + p.ready.len() + p.expired.len())
                        .sum::<usize>()
            })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Checkpoint container
// ---------------------------------------------------------------------------

/// External durable state saved and restored alongside a checkpoint —
/// anything actors share through handles rather than own, e.g. the
/// relational store behind [`crate::graph`] workflows.
pub trait CheckpointResource: Send + Sync {
    /// Serialize the resource's current contents.
    fn save(&self) -> Result<Vec<u8>>;
    /// Replace the resource's contents with a previously saved snapshot.
    fn restore(&self, bytes: &[u8]) -> Result<()>;
}

/// One complete, self-contained snapshot of a quiesced workflow.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    /// `(actor name, state bytes)` for every stateful actor.
    pub actors: Vec<(String, Vec<u8>)>,
    /// In-flight fabric state (inboxes + window operators).
    pub fabric: FabricState,
    /// `(resource name, bytes)` for every registered
    /// [`CheckpointResource`].
    pub resources: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// Serialize to the checkpoint wire format: magic, version, body, and
    /// the CRC-32 of all of it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        for b in MAGIC {
            e.u8(*b);
        }
        e.u32(VERSION);
        e.u32(self.actors.len() as u32);
        for (name, bytes) in &self.actors {
            e.str(name);
            e.bytes(bytes);
        }
        self.fabric.encode(&mut e);
        e.u32(self.resources.len() as u32);
        for (name, bytes) in &self.resources {
            e.str(name);
            e.bytes(bytes);
        }
        let mut bytes = e.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Parse the checkpoint wire format. Bad magic, another version, a
    /// checksum mismatch, or a malformed body is [`Error::Checkpoint`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint> {
        let mut d = Decoder::new(bytes);
        for want in MAGIC {
            if d.u8()? != *want {
                return Err(Error::Checkpoint("not a checkpoint file (bad magic)".into()));
            }
        }
        let version = d.u32()?;
        if version != VERSION {
            return Err(Error::Checkpoint(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }
        let Some(body_end) = bytes.len().checked_sub(4).filter(|&end| end >= 8) else {
            return Err(Error::Checkpoint("truncated checkpoint (no checksum)".into()));
        };
        let stored = u32::from_le_bytes(bytes[body_end..].try_into().expect("4-byte slice"));
        if crc32(&bytes[..body_end]) != stored {
            return Err(Error::Checkpoint("checkpoint checksum mismatch".into()));
        }
        let mut d = Decoder::new(&bytes[8..body_end]);
        let n = d.u32()? as usize;
        let mut actors = Vec::with_capacity(d.capacity(n));
        for _ in 0..n {
            let name = d.str()?.to_string();
            let state = d.bytes()?.to_vec();
            actors.push((name, state));
        }
        let fabric = FabricState::decode(&mut d)?;
        let n = d.u32()? as usize;
        let mut resources = Vec::with_capacity(d.capacity(n));
        for _ in 0..n {
            let name = d.str()?.to_string();
            let state = d.bytes()?.to_vec();
            resources.push((name, state));
        }
        if !d.is_exhausted() {
            return Err(Error::Checkpoint("trailing bytes after checkpoint".into()));
        }
        Ok(Checkpoint {
            actors,
            fabric,
            resources,
        })
    }

    /// Atomically write the snapshot into `dir` (temp file + rename), so a
    /// crash mid-write never corrupts the previous checkpoint.
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf> {
        Self::write_bytes_to_dir(dir, &self.to_bytes())
    }

    /// [`Checkpoint::write_to_dir`] for a snapshot already encoded with
    /// [`Checkpoint::to_bytes`].
    pub fn write_bytes_to_dir(dir: &Path, bytes: &[u8]) -> Result<PathBuf> {
        fs::create_dir_all(dir).map_err(|e| io_err("create checkpoint dir", e))?;
        let path = dir.join(SNAPSHOT_FILE);
        let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("create checkpoint temp", e))?;
        f.write_all(bytes)
            .and_then(|_| f.sync_all())
            .map_err(|e| io_err("write checkpoint", e))?;
        drop(f);
        fs::rename(&tmp, &path).map_err(|e| io_err("publish checkpoint", e))?;
        Ok(path)
    }

    /// Read the snapshot from a checkpoint directory.
    pub fn read_from_dir(dir: &Path) -> Result<Checkpoint> {
        let path = dir.join(SNAPSHOT_FILE);
        let bytes = fs::read(&path)
            .map_err(|e| io_err(&format!("read checkpoint {}", path.display()), e))?;
        Self::from_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Quiesce hook
// ---------------------------------------------------------------------------

/// The coordination surface between the engine and a director for
/// checkpoint pauses.
///
/// The engine (through its checkpoint watcher) calls
/// [`QuiesceHook::request_pause`]; the director notices at a firing
/// boundary, stops sources, drains in-flight work, and deposits the
/// captured [`FabricState`] instead of running end-of-stream teardown.
/// Before a resumed segment the engine stages the state to re-inject and
/// marks the segment as resuming so directors skip `initialize`.
///
/// The hook also times the pause for checkpoint telemetry: when it was
/// requested, when the fabric drained, and how long the capture took.
#[derive(Default)]
pub struct QuiesceHook {
    pause: AtomicBool,
    resuming: AtomicBool,
    captured: Mutex<Option<FabricState>>,
    restore: Mutex<Option<FabricState>>,
    marks: Mutex<PauseMarks>,
}

/// Wall-clock marks of the current pause.
#[derive(Debug, Default, Clone, Copy)]
struct PauseMarks {
    requested: Option<Instant>,
    drained: Option<Instant>,
    capture: Duration,
}

impl QuiesceHook {
    /// A fresh hook, shared between engine and director.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Ask the director to quiesce at the next firing boundary.
    pub fn request_pause(&self) {
        if !self.pause.swap(true, Ordering::SeqCst) {
            self.marks.lock().requested = Some(Instant::now());
        }
    }

    /// How long ago the current pause was requested (`None` when no pause
    /// is pending). Directors bound a pause that never drains with it.
    pub fn pause_age(&self) -> Option<Duration> {
        self.marks.lock().requested.map(|t| t.elapsed())
    }

    /// Director side: the fabric has drained for the pending pause. The
    /// first mark counts; [`crate::director::fire::quiesce`] marks it too,
    /// for directors that only notice at their capture.
    pub fn mark_drained(&self) {
        self.marks.lock().drained.get_or_insert_with(Instant::now);
    }

    /// Director side: the capture of the drained fabric took `took`.
    pub fn record_capture(&self, took: Duration) {
        self.marks.lock().capture = took;
    }

    /// Engine side: the pause's quiesce wait (request until drained) and
    /// capture time.
    pub fn pause_times(&self) -> (Duration, Duration) {
        let marks = *self.marks.lock();
        let quiesce = match (marks.requested, marks.drained) {
            (Some(requested), Some(drained)) => drained.saturating_duration_since(requested),
            _ => Duration::ZERO,
        };
        (quiesce, marks.capture)
    }

    /// Whether a pause has been requested (directors poll this).
    pub fn pause_requested(&self) -> bool {
        self.pause.load(Ordering::SeqCst)
    }

    /// Director side: deposit the captured in-flight state after a
    /// successful quiesce.
    pub fn deposit(&self, state: FabricState) {
        *self.captured.lock() = Some(state);
    }

    /// Engine side: take the state the director captured, if the run
    /// ended in a pause (an end-of-stream run deposits nothing).
    pub fn take_captured(&self) -> Option<FabricState> {
        self.captured.lock().take()
    }

    /// Engine side: stage in-flight state for the director to re-inject
    /// at the start of its next run.
    pub fn stage_restore(&self, state: FabricState) {
        *self.restore.lock() = Some(state);
    }

    /// Director side: take staged state to re-inject into a fresh fabric.
    pub fn take_restore(&self) -> Option<FabricState> {
        self.restore.lock().take()
    }

    /// Mark the next run as a resumed segment (directors skip
    /// `Actor::initialize`).
    pub fn set_resuming(&self, on: bool) {
        self.resuming.store(on, Ordering::SeqCst);
    }

    /// Whether the current run resumes restored state.
    pub fn resuming(&self) -> bool {
        self.resuming.load(Ordering::SeqCst)
    }

    /// Clear the pause flag and its timing before the next segment.
    pub fn reset(&self) {
        *self.marks.lock() = PauseMarks::default();
        self.pause.store(false, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Event log
// ---------------------------------------------------------------------------

/// One logged source emission.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Emission sequence number (position in the source's output stream).
    pub seq: u64,
    /// Output port the token left on.
    pub port: u32,
    /// The emitted token.
    pub token: Token,
}

/// Append-only writer for a source event log.
///
/// The log opens with an 8-byte header (magic, format version). Each
/// record is then a frame of `[len u32, !len u32, crc32 u32]` followed by
/// a `len`-byte payload `[seq u64, port u32, token]` in the [`codec`] wire
/// vocabulary, flushed per append so a crash loses at most the frame being
/// written. A torn trailing frame is skipped on read; a frame whose length
/// and complement disagree, or whose payload fails its CRC, is corruption.
pub struct EventLog {
    file: fs::File,
}

/// The header opening every event log.
fn log_header() -> [u8; 8] {
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(LOG_MAGIC);
    header[4..].copy_from_slice(&LOG_VERSION.to_le_bytes());
    header
}

/// One log frame around `payload`.
fn log_frame(payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&(!len).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"))
}

impl EventLog {
    /// Create (truncating any previous log) at `path`.
    pub fn create(path: &Path) -> Result<EventLog> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| io_err("create log dir", e))?;
        }
        let mut file = fs::File::create(path).map_err(|e| io_err("create event log", e))?;
        file.write_all(&log_header())
            .map_err(|e| io_err("write event log header", e))?;
        Ok(EventLog { file })
    }

    /// Open an existing log for appending (recovery continues the stream),
    /// creating it with its header if it does not exist.
    pub fn append(path: &Path) -> Result<EventLog> {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open event log", e))?;
        let len = file
            .metadata()
            .map_err(|e| io_err("stat event log", e))?
            .len();
        if len == 0 {
            file.write_all(&log_header())
                .map_err(|e| io_err("write event log header", e))?;
        }
        Ok(EventLog { file })
    }

    /// Append one emission record and flush it to the OS.
    pub fn record(&mut self, seq: u64, port: u32, token: &Token) -> Result<()> {
        let mut e = Encoder::new();
        e.u64(seq);
        e.u32(port);
        e.token(token);
        self.file
            .write_all(&log_frame(&e.into_bytes()))
            .and_then(|_| self.file.flush())
            .map_err(|e| io_err("append event log", e))
    }

    /// Read every complete record in the log at `path`. A truncated
    /// trailing frame (torn by a crash mid-write) is ignored; a missing
    /// file reads as empty. A bad header, a frame whose length fails its
    /// complement, or a payload failing its CRC is [`Error::Checkpoint`].
    pub fn read_all(path: &Path) -> Result<Vec<LogEntry>> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err("read event log", e)),
        };
        let header = log_header();
        if bytes.len() < header.len() && header.starts_with(&bytes) {
            return Ok(Vec::new()); // torn while writing the header
        }
        if bytes.len() < header.len() || bytes[..4] != header[..4] {
            return Err(Error::Checkpoint("not an event log (bad magic)".into()));
        }
        let version = le_u32(&bytes, 4);
        if version != LOG_VERSION {
            return Err(Error::Checkpoint(format!(
                "unsupported event log version {version} (expected {LOG_VERSION})"
            )));
        }
        let mut entries = Vec::new();
        let mut pos = header.len();
        while pos + FRAME_HEADER <= bytes.len() {
            let len = le_u32(&bytes, pos);
            if le_u32(&bytes, pos + 4) != !len {
                return Err(Error::Checkpoint(format!(
                    "corrupt event log frame header at byte {pos}"
                )));
            }
            let start = pos + FRAME_HEADER;
            let Some(end) = start.checked_add(len as usize).filter(|&e| e <= bytes.len()) else {
                break; // torn trailing frame
            };
            let payload = &bytes[start..end];
            if crc32(payload) != le_u32(&bytes, pos + 8) {
                return Err(Error::Checkpoint(format!(
                    "event log frame checksum mismatch at byte {pos}"
                )));
            }
            let mut d = Decoder::new(payload);
            let seq = d.u64()?;
            let port = d.u32()?;
            let token = d.token()?;
            if !d.is_exhausted() {
                return Err(Error::Checkpoint("trailing bytes in log frame".into()));
            }
            entries.push(LogEntry { seq, port, token });
            pos = end;
        }
        Ok(entries)
    }
}

// ---------------------------------------------------------------------------
// Logged source
// ---------------------------------------------------------------------------

/// A source wrapper that journals every emission to an [`EventLog`] and,
/// after recovery, *replays* the logged stream in place of the inner
/// source's re-derived emissions until the log tail is exhausted — so a
/// recovered run reproduces the killed run's exact token stream past the
/// snapshot point, then seamlessly continues live.
pub struct LoggedSource {
    inner: Box<dyn Actor>,
    path: PathBuf,
    writer: Option<EventLog>,
    /// Sequence number of the next emission (== emissions so far).
    seq: u64,
    /// Logged `(port, token)` tail still to substitute for live emissions.
    replay: VecDeque<(u32, Token)>,
    /// Log-append failure stashed from inside `emit` (which cannot fail).
    io_error: Option<Error>,
}

impl LoggedSource {
    /// Wrap `inner`, journaling to `path`. `fresh` truncates any previous
    /// log (first run); recovery opens the existing log for append and
    /// derives the replay tail in [`Actor::restore_state`].
    pub fn new(inner: Box<dyn Actor>, path: PathBuf, fresh: bool) -> Result<Self> {
        let writer = if fresh {
            Some(EventLog::create(&path)?)
        } else {
            None
        };
        Ok(LoggedSource {
            inner,
            path,
            writer,
            seq: 0,
            replay: VecDeque::new(),
            io_error: None,
        })
    }

    /// Emissions produced so far (the source's read offset).
    pub fn offset(&self) -> u64 {
        self.seq
    }

    /// Logged emissions not yet re-consumed by the recovered run.
    pub fn replay_remaining(&self) -> usize {
        self.replay.len()
    }

    fn check_io(&mut self) -> Result<()> {
        match self.io_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// The [`FireContext`] the inner source sees: emissions are journaled (or
/// substituted from the replay tail) before reaching the real context.
struct LogCtx<'a> {
    ctx: &'a mut dyn FireContext,
    writer: &'a mut Option<EventLog>,
    path: &'a Path,
    seq: &'a mut u64,
    replay: &'a mut VecDeque<(u32, Token)>,
    io_error: &'a mut Option<Error>,
}

impl FireContext for LogCtx<'_> {
    fn now(&self) -> Timestamp {
        self.ctx.now()
    }

    fn get(&mut self, port: usize) -> Option<Window> {
        self.ctx.get(port)
    }

    fn get_any(&mut self) -> Option<(usize, Window)> {
        self.ctx.get_any()
    }

    fn emit(&mut self, port: usize, token: Token) {
        // Replay: substitute the logged emission for the inner source's
        // re-derived one (they agree for deterministic sources; the log is
        // authoritative either way) and do not re-append.
        if let Some((logged_port, logged_token)) = self.replay.pop_front() {
            *self.seq += 1;
            self.ctx.emit(logged_port as usize, logged_token);
            return;
        }
        if self.io_error.is_none() {
            if self.writer.is_none() {
                match EventLog::append(self.path) {
                    Ok(w) => *self.writer = Some(w),
                    Err(e) => {
                        *self.io_error = Some(e);
                        return;
                    }
                }
            }
            let w = self.writer.as_mut().expect("writer just ensured");
            if let Err(e) = w.record(*self.seq, port as u32, &token) {
                *self.io_error = Some(e);
                return;
            }
        }
        *self.seq += 1;
        self.ctx.emit(port, token);
    }
}

impl Actor for LoggedSource {
    fn signature(&self) -> IoSignature {
        self.inner.signature()
    }

    fn initialize(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let LoggedSource {
            inner,
            path,
            writer,
            seq,
            replay,
            io_error,
        } = self;
        let r = inner.initialize(&mut LogCtx {
            ctx,
            writer,
            path,
            seq,
            replay,
            io_error,
        });
        self.check_io()?;
        r
    }

    fn prefire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.inner.prefire(ctx)
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let LoggedSource {
            inner,
            path,
            writer,
            seq,
            replay,
            io_error,
        } = self;
        let r = inner.fire(&mut LogCtx {
            ctx,
            writer,
            path,
            seq,
            replay,
            io_error,
        });
        self.check_io()?;
        r
    }

    fn postfire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.inner.postfire(ctx)
    }

    fn finish(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let LoggedSource {
            inner,
            path,
            writer,
            seq,
            replay,
            io_error,
        } = self;
        let r = inner.finish(&mut LogCtx {
            ctx,
            writer,
            path,
            seq,
            replay,
            io_error,
        });
        self.check_io()?;
        r
    }

    fn wrapup(&mut self) -> Result<()> {
        self.inner.wrapup()
    }

    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        let mut e = Encoder::new();
        e.u64(self.seq);
        match self.inner.save_state()? {
            Some(bytes) => {
                e.bool(true);
                e.bytes(&bytes);
            }
            None => e.bool(false),
        }
        Ok(Some(e.into_bytes()))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut d = Decoder::new(bytes);
        let saved_seq = d.u64()?;
        if d.bool()? {
            let inner_bytes = d.bytes()?.to_vec();
            self.inner.restore_state(&inner_bytes)?;
        }
        let entries = EventLog::read_all(&self.path)?;
        self.replay = entries
            .into_iter()
            .filter(|e| e.seq >= saved_seq)
            .map(|e| (e.port, e.token))
            .collect();
        self.seq = saved_seq;
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::VecSource;
    use crate::event::CwEvent;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "confluence-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_checkpoint() -> Checkpoint {
        let window = Window {
            group: Token::Unit,
            events: vec![CwEvent::external(Token::Int(7), Timestamp(3))],
            formed_at: Timestamp(3),
            timed_out: false,
        };
        Checkpoint {
            actors: vec![("src".into(), vec![1, 2, 3]), ("sink".into(), vec![])],
            fabric: FabricState {
                actors: vec![
                    ActorFabricState {
                        inbox: vec![(0, window.clone())],
                        ports: vec![OperatorSnapshot {
                            groups: vec![GroupSnapshot::Tuples {
                                key: Token::Unit,
                                events: vec![CwEvent::external(Token::Int(9), Timestamp(5))],
                                front_seq: 4,
                                next_seq: 5,
                                next_start: 6,
                            }],
                            ready: vec![window],
                            expired: vec![CwEvent::external(Token::Unit, Timestamp(1))],
                        }],
                    },
                    ActorFabricState::default(),
                ],
            },
            resources: vec![("store".into(), vec![9, 9])],
        }
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let dir = tmpdir("roundtrip");
        let ckpt = sample_checkpoint();
        ckpt.write_to_dir(&dir).unwrap();
        let back = Checkpoint::read_from_dir(&dir).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.fabric.item_count(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let ckpt = sample_checkpoint();
        let mut bytes = ckpt.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(Error::Checkpoint(_))
        ));
        let bytes = ckpt.to_bytes();
        for cut in [5, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err());
        }
        let mut bytes = ckpt.to_bytes();
        bytes.push(0);
        assert!(Checkpoint::from_bytes(&bytes).is_err(), "trailing bytes");
    }

    /// Every single-bit flip anywhere in a checkpoint file is an error.
    #[test]
    fn flipped_bits_in_a_checkpoint_are_errors() {
        let bytes = sample_checkpoint().to_bytes();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(Checkpoint::from_bytes(&flipped), Err(Error::Checkpoint(_))),
                "bit {bit} flipped"
            );
        }
    }

    #[test]
    fn old_version_checkpoints_are_errors() {
        // The version-1 layout: no checksum, version field 1.
        let mut bytes = sample_checkpoint().to_bytes();
        bytes.truncate(bytes.len() - 4);
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(matches!(&err, Error::Checkpoint(m) if m.contains("version 1")), "{err:?}");
        let dir = tmpdir("old-version");
        fs::write(dir.join(SNAPSHOT_FILE), &bytes).unwrap();
        assert!(matches!(
            Checkpoint::read_from_dir(&dir),
            Err(Error::Checkpoint(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every single-bit flip in a log's header or in a complete frame is
    /// an error, never a silently shorter or different log.
    #[test]
    fn flipped_bits_in_an_event_log_are_errors() {
        let dir = tmpdir("log-flip");
        let path = dir.join("log.bin");
        let mut log = EventLog::create(&path).unwrap();
        log.record(0, 0, &Token::Int(1)).unwrap();
        log.record(1, 1, &Token::record().field("x", 5).build())
            .unwrap();
        drop(log);
        let bytes = fs::read(&path).unwrap();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &flipped).unwrap();
            assert!(
                matches!(EventLog::read_all(&path), Err(Error::Checkpoint(_))),
                "bit {bit} flipped"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_version_event_logs_are_errors() {
        let dir = tmpdir("log-old");
        let path = dir.join("log.bin");
        // A version-1 log: bare length-prefixed frames, no header.
        let mut e = Encoder::new();
        e.u64(0);
        e.u32(0);
        e.token(&Token::Int(1));
        let frame = e.into_bytes();
        let mut bytes = (frame.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&frame);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            EventLog::read_all(&path),
            Err(Error::Checkpoint(_))
        ));
        let mut bytes = log_header().to_vec();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            EventLog::read_all(&path),
            Err(Error::Checkpoint(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_log_round_trips_and_tolerates_torn_tail() {
        let dir = tmpdir("log");
        let path = log_path(&dir, "cars/1");
        assert!(path.to_string_lossy().contains("log-cars_1.bin"));
        let mut log = EventLog::create(&path).unwrap();
        log.record(0, 0, &Token::Int(1)).unwrap();
        log.record(1, 2, &Token::record().field("x", 5).build())
            .unwrap();
        drop(log);
        let entries = EventLog::read_all(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], LogEntry {
            seq: 0,
            port: 0,
            token: Token::Int(1)
        });
        assert_eq!(entries[1].port, 2);

        // Torn trailing frames: every proper prefix of a third frame.
        let whole = fs::read(&path).unwrap();
        let mut e = Encoder::new();
        e.u64(2);
        e.u32(0);
        e.token(&Token::Int(3));
        let third = log_frame(&e.into_bytes());
        for cut in 1..third.len() {
            let mut torn = whole.clone();
            torn.extend_from_slice(&third[..cut]);
            fs::write(&path, &torn).unwrap();
            let entries = EventLog::read_all(&path).unwrap();
            assert_eq!(entries.len(), 2, "torn tail of {cut} bytes ignored");
        }
        // A log torn inside its header reads as empty.
        fs::write(&path, &whole[..5]).unwrap();
        assert_eq!(EventLog::read_all(&path).unwrap(), Vec::new());

        assert_eq!(
            EventLog::read_all(&dir.join("missing.bin")).unwrap(),
            Vec::new()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The two forged tokens from outside the process that used to abort
    /// (a ~171 GB reservation) or overflow the stack.
    fn forged_tokens() -> Vec<Vec<u8>> {
        let mut deep = Vec::new();
        for _ in 0..2_000_000 {
            deep.extend_from_slice(&[6, 1, 0, 0, 0]);
        }
        deep.push(0);
        vec![vec![5, 0xff, 0xff, 0xff, 0xff], deep]
    }

    #[test]
    fn forged_tokens_in_a_checkpoint_are_errors() {
        for token in forged_tokens() {
            // One actor whose inbox holds one window with the forged token
            // as its group key.
            let mut e = Encoder::new();
            for b in MAGIC {
                e.u8(*b);
            }
            e.u32(VERSION);
            e.u32(0); // no actor state
            e.u32(1); // one fabric actor
            e.u32(1); // one inbox window
            e.u32(0); // on port 0
            let mut bytes = e.into_bytes();
            bytes.extend_from_slice(&token);
            // A valid checksum, so the forged body reaches the decoder.
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            let err = Checkpoint::from_bytes(&bytes).unwrap_err();
            assert!(matches!(err, Error::Checkpoint(_)), "{err:?}");
        }
    }

    #[test]
    fn forged_tokens_in_an_event_log_are_errors() {
        let dir = tmpdir("forged-log");
        let path = dir.join("log.bin");
        for token in forged_tokens() {
            let mut frame = Encoder::new();
            frame.u64(0);
            frame.u32(0);
            let mut frame = frame.into_bytes();
            frame.extend_from_slice(&token);
            let mut bytes = log_header().to_vec();
            bytes.extend_from_slice(&log_frame(&frame));
            fs::write(&path, &bytes).unwrap();
            let err = EventLog::read_all(&path).unwrap_err();
            assert!(matches!(err, Error::Checkpoint(_)), "{err:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    struct SinkCtx {
        emitted: Vec<(usize, Token)>,
    }
    impl FireContext for SinkCtx {
        fn now(&self) -> Timestamp {
            Timestamp(0)
        }
        fn get(&mut self, _port: usize) -> Option<Window> {
            None
        }
        fn get_any(&mut self) -> Option<(usize, Window)> {
            None
        }
        fn emit(&mut self, port: usize, token: Token) {
            self.emitted.push((port, token));
        }
    }

    #[test]
    fn logged_source_journals_then_replays() {
        let dir = tmpdir("replay");
        let path = log_path(&dir, "src");
        let items: Vec<Token> = (0..6).map(Token::Int).collect();

        // First run: fire 3 times (one item per firing), checkpoint at 3.
        let mut src =
            LoggedSource::new(Box::new(VecSource::new(items.clone())), path.clone(), true)
                .unwrap();
        let mut ctx = SinkCtx { emitted: vec![] };
        for _ in 0..3 {
            src.fire(&mut ctx).unwrap();
        }
        let saved = src.save_state().unwrap().expect("logged source is stateful");
        assert_eq!(src.offset(), 3);
        // Killed run continues past the checkpoint: 2 more firings land in
        // the log but not in the snapshot.
        for _ in 0..2 {
            src.fire(&mut ctx).unwrap();
        }
        assert_eq!(src.offset(), 5);
        drop(src);

        // Recovery: fresh inner source (as a rebuilt workflow provides),
        // restore from the snapshot, and run to completion.
        let mut src =
            LoggedSource::new(Box::new(VecSource::new(items.clone())), path.clone(), false)
                .unwrap();
        src.restore_state(&saved).unwrap();
        assert_eq!(src.replay_remaining(), 2, "post-checkpoint tail replays");
        assert_eq!(src.offset(), 3);
        // The inner VecSource restored its own remaining-items state.
        let mut ctx2 = SinkCtx { emitted: vec![] };
        for _ in 0..3 {
            src.fire(&mut ctx2).unwrap();
        }
        assert_eq!(src.replay_remaining(), 0);
        assert_eq!(src.offset(), 6);
        let tokens: Vec<i64> = ctx2
            .emitted
            .iter()
            .map(|(_, t)| t.as_int().unwrap())
            .collect();
        assert_eq!(tokens, vec![3, 4, 5], "resumes exactly past the snapshot");
        // The sixth emission was live (not replayed) and must have been
        // appended to the log.
        let entries = EventLog::read_all(&path).unwrap();
        assert_eq!(entries.len(), 6);
        assert_eq!(entries[5].token, Token::Int(5));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quiesce_hook_round_trips_state() {
        let hook = QuiesceHook::new();
        assert!(!hook.pause_requested());
        hook.request_pause();
        assert!(hook.pause_requested());
        assert!(hook.take_captured().is_none());
        hook.deposit(FabricState::default());
        assert!(hook.take_captured().is_some());
        assert!(hook.take_captured().is_none(), "deposit is consumed");
        hook.stage_restore(FabricState::default());
        hook.set_resuming(true);
        assert!(hook.resuming());
        assert!(hook.take_restore().is_some());
        hook.reset();
        assert!(!hook.pause_requested());
    }
}
