//! Deterministic checkpoint/restore: versioned snapshots of a run's replay
//! frontier, policy-driven capture, crash injection, and byte-exact
//! recovery verification.
//!
//! ## Why a snapshot records a *frontier*, not a heap
//!
//! The engine's queue holds boxed `FnOnce` closures — they capture arbitrary
//! world references and cannot be serialized. Freezing the process image is
//! exactly the non-portable, non-auditable design the paper's "design for
//! choice" guideline warns against. Instead a [`Snapshot`] records everything
//! needed to *reconstruct and verify* the run state deterministically:
//!
//! * the scope-global **event cursor** (how many events have dispatched),
//! * the engine clock, next sequence number, and the exact **queue shape**
//!   (scheduled times, sequence numbers, parent links, spans — digested),
//! * the [`SimRng`](crate::SimRng) **seed and stream position** (ChaCha
//!   output is pure in `(seed, word position)`, so this pins the entire
//!   remaining stream),
//! * trace length / drop count / open spans and the trace digest,
//! * the rolling [`RunDigest`](crate::RunDigest) over trace + metrics,
//! * per-component substrate digests via [`Snapshottable`].
//!
//! Restore re-runs the same deterministic construction up to the cursor and
//! verifies every recorded field byte-exactly; any mismatch is a structured
//! [`RestoreError::Divergence`], never silent drift. Checkpoint *writing*
//! therefore costs a few digest folds plus (for directory sinks) one
//! atomic write — cheap enough to take every thousand events.
//!
//! What is deliberately **excluded** from snapshots: wall-clock time (never
//! deterministic), the [`obs`](crate::obs) capture log and provenance capture
//! (diagnostic views *of* the run, not state *in* it — they regrow on
//! replay), and derived caches like the route memo (rebuilt and explicitly
//! invalidated at the restore boundary). See DESIGN.md §8.
//!
//! Like [`obs`](crate::obs), the capture scope is ambient and thread-local:
//! [`begin`] a scope, run experiments, [`CheckpointGuard::finish`] to
//! collect the [`CheckpointRecord`]. The engine feeds the scope from its
//! dispatch loop; a scope can also *kill* the run at a chosen event index
//! (crash injection) or *verify* a prior snapshot when the replay reaches
//! its cursor (recovery).

use crate::digest::{Fnv1a, RunDigest};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::path::{Path, PathBuf};

/// Format version stamped into every snapshot and manifest. Bump on any
/// change to the digest recipe or field layout; [`Snapshot::validate`]
/// rejects other versions with a structured error.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Identity of the run a snapshot belongs to.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotMeta {
    /// Experiment id (e.g. `"E9"`), or empty for ad-hoc engine snapshots.
    pub experiment: String,
    /// The run's seed.
    pub seed: u64,
}

/// The engine-side replay frontier: everything the engine itself must
/// reproduce for a restore to be exact. All digests render as 16 lowercase
/// hex digits so snapshots stay `jq`-able.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineState {
    /// Virtual clock, in microseconds.
    pub now_micros: u64,
    /// Next scheduling sequence number (total-order tiebreak position).
    pub next_seq: u64,
    /// Events dispatched by this engine so far.
    pub events_processed: u64,
    /// Events still waiting in the queue.
    pub queued: u64,
    /// FNV-1a digest over the sorted queue shape: each pending event's
    /// `(time, seq, parent, span)`. The closures themselves cannot be
    /// digested; their scheduling coordinates can, and a replay that
    /// rebuilds a different queue is caught here.
    pub queue_digest: String,
    /// The run rng's 32-byte seed, hex-encoded.
    pub rng_seed: String,
    /// 32-bit words consumed from the rng stream ([`crate::SimRng::word_pos`]).
    pub rng_word_pos: u64,
    /// Entries currently retained in the trace ring.
    pub trace_entries: u64,
    /// Entries evicted from the trace ring so far.
    pub trace_dropped: u64,
    /// Spans entered but not yet exited.
    pub open_spans: u64,
    /// Digest of the retained trace stream.
    pub trace_digest: String,
    /// The rolling run digest over trace + metrics — the same value
    /// [`RunDigest::of_run`](crate::RunDigest) reports at run end.
    pub run_digest: String,
}

impl EngineState {
    fn absorb_into(&self, h: &mut Fnv1a) {
        h.write_u8(0xB1);
        h.write_u64(self.now_micros);
        h.write_u64(self.next_seq);
        h.write_u64(self.events_processed);
        h.write_u64(self.queued);
        h.write_str(&self.queue_digest);
        h.write_str(&self.rng_seed);
        h.write_u64(self.rng_word_pos);
        h.write_u64(self.trace_entries);
        h.write_u64(self.trace_dropped);
        h.write_u64(self.open_spans);
        h.write_str(&self.trace_digest);
        h.write_str(&self.run_digest);
    }
}

/// One substrate component's digest inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentState {
    /// Stable component name (e.g. `"network"`).
    pub name: String,
    /// The component's [`Snapshottable::state_digest`], hex-encoded.
    pub digest: String,
}

impl ComponentState {
    /// Capture one component's current state digest.
    pub fn of(component: &impl Snapshottable) -> Self {
        ComponentState {
            name: component.component().to_string(),
            digest: component.state_digest().to_hex(),
        }
    }
}

/// Substrate state that participates in checkpoints.
///
/// Implementors digest their *logical* state — the fields that determine
/// future behavior — and exclude derived caches and bookkeeping that a
/// restore rebuilds (for `tussle-net::Network`: the topology generation
/// counter and the next-hop route memo).
pub trait Snapshottable {
    /// Stable name identifying this component in snapshots.
    fn component(&self) -> &'static str;

    /// Digest of the component's logical state. Two components with equal
    /// digests must behave identically for the remainder of the run.
    fn state_digest(&self) -> RunDigest;

    /// Called after a successful restore/verify at this component.
    ///
    /// This is the cache-invalidation boundary: implementations must drop
    /// or version-bump any derived caches so nothing cached before the
    /// crash can leak across it. Default: nothing to invalidate.
    fn post_restore(&mut self) {}
}

/// A versioned, self-digesting snapshot of one run position.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Format version ([`SNAPSHOT_VERSION`] when written by this build).
    pub version: u32,
    /// Which run this snapshot belongs to.
    pub meta: SnapshotMeta,
    /// Scope-global event cursor at capture time (events dispatched across
    /// *all* engines under the scope; an experiment may run several).
    pub cursor: u64,
    /// The engine replay frontier.
    pub engine: EngineState,
    /// Substrate component digests, in capture order.
    pub components: Vec<ComponentState>,
    /// Self-digest over every field above; an edited or truncated snapshot
    /// fails [`Snapshot::validate`] before any field is trusted.
    pub digest: String,
}

impl Snapshot {
    /// Build a snapshot and seal it with its self-digest.
    pub fn sealed(
        meta: SnapshotMeta,
        cursor: u64,
        engine: EngineState,
        components: Vec<ComponentState>,
    ) -> Snapshot {
        let mut snap = Snapshot {
            version: SNAPSHOT_VERSION,
            meta,
            cursor,
            engine,
            components,
            digest: String::new(),
        };
        snap.digest = snap.compute_digest();
        snap
    }

    /// Recompute the self-digest from the current field values.
    pub fn compute_digest(&self) -> String {
        let mut h = Fnv1a::new();
        h.write_u64(self.version as u64);
        h.write_str(&self.meta.experiment);
        h.write_u64(self.meta.seed);
        h.write_u64(self.cursor);
        self.engine.absorb_into(&mut h);
        h.write_u8(0xB2);
        h.write_u64(self.components.len() as u64);
        for c in &self.components {
            h.write_str(&c.name);
            h.write_str(&c.digest);
        }
        RunDigest(h.finish()).to_hex()
    }

    /// Check version and integrity. Every load path calls this before any
    /// field is acted on.
    pub fn validate(&self) -> Result<(), RestoreError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(RestoreError::VersionMismatch {
                found: self.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let expected = self.compute_digest();
        if self.digest != expected {
            return Err(RestoreError::Corrupted { expected, found: self.digest.clone() });
        }
        Ok(())
    }
}

/// When to capture snapshots.
///
/// The default policy never fires on its own (useful for scopes that only
/// verify or kill); combine event-count and virtual-time triggers freely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    every: Option<u64>,
    at_micros: Vec<u64>,
}

impl CheckpointPolicy {
    /// Never checkpoint automatically (verify/kill-only scopes).
    pub fn manual() -> Self {
        CheckpointPolicy::default()
    }

    /// Checkpoint after every `n` dispatched events. `n` must be ≥ 1; the
    /// CLI validates user input before reaching this assertion.
    pub fn every_n_events(n: u64) -> Self {
        assert!(n >= 1, "checkpoint interval must be at least 1 event");
        CheckpointPolicy { every: Some(n), at_micros: Vec::new() }
    }

    /// Checkpoint the first time the clock reaches each given virtual
    /// time (each threshold fires once, in order).
    pub fn at_virtual_times(times: impl IntoIterator<Item = SimTime>) -> Self {
        let mut at_micros: Vec<u64> = times.into_iter().map(|t| t.as_micros()).collect();
        at_micros.sort_unstable();
        at_micros.dedup();
        CheckpointPolicy { every: None, at_micros }
    }

    /// Whether a checkpoint is due at this cursor/clock. `times_fired`
    /// tracks how many time thresholds have already fired.
    fn due(&self, cursor: u64, now_micros: u64, times_fired: &mut usize) -> bool {
        let mut due = false;
        if let Some(n) = self.every {
            due |= cursor.is_multiple_of(n);
        }
        while *times_fired < self.at_micros.len() && now_micros >= self.at_micros[*times_fired] {
            *times_fired += 1;
            due = true;
        }
        due
    }
}

/// Where captured snapshots go.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CheckpointSink {
    /// Keep snapshots in memory only (the recovery oracle's mode).
    #[default]
    Memory,
    /// Additionally persist each snapshot into this directory as
    /// `ck_<cursor>.json` via write-to-temp + atomic rename, maintaining a
    /// `manifest.json` of chained per-checkpoint digests.
    Dir(PathBuf),
}

/// Configuration for one checkpoint scope.
#[derive(Debug, Clone, Default)]
pub struct CheckpointConfig {
    /// Capture policy.
    pub policy: CheckpointPolicy,
    /// Snapshot destination.
    pub sink: CheckpointSink,
    /// Crash injection: panic when the scope's engine-event cursor reaches
    /// this index. Every experiment schedules its work as engine events, so
    /// the cursor is the complete crash surface — the same index space the
    /// capture policy and recovery verification run on.
    pub kill_at: Option<u64>,
    /// Recovery verification: when the replay reaches this snapshot's
    /// cursor, compare the live state against it byte-for-byte.
    pub verify: Option<Snapshot>,
    /// Identity stamped into captured snapshots.
    pub meta: SnapshotMeta,
}

impl CheckpointConfig {
    /// A memory-sink scope with the given capture policy.
    pub fn new(policy: CheckpointPolicy) -> Self {
        CheckpointConfig { policy, ..CheckpointConfig::default() }
    }

    /// Persist snapshots into `dir` (atomic write-rename + manifest).
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.sink = CheckpointSink::Dir(dir.into());
        self
    }

    /// Inject a crash when the scope-global event cursor reaches `event`.
    pub fn kill_at(mut self, event: u64) -> Self {
        self.kill_at = Some(event);
        self
    }

    /// Verify the replay against `snapshot` when its cursor is reached.
    pub fn verify(mut self, snapshot: Snapshot) -> Self {
        self.verify = Some(snapshot);
        self
    }

    /// Stamp snapshots with the run's experiment id and seed.
    pub fn meta(mut self, experiment: &str, seed: u64) -> Self {
        self.meta = SnapshotMeta { experiment: experiment.to_string(), seed };
        self
    }
}

/// Structured restore/verification failure. `Divergence` is the oracle's
/// key error: it names the first field whose replayed value differs from
/// the snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestoreError {
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// Version found in the snapshot file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The snapshot file could not be read.
    Unreadable {
        /// Path that failed.
        path: String,
        /// Underlying I/O error.
        error: String,
    },
    /// The snapshot file is not valid snapshot JSON.
    Malformed {
        /// Path that failed.
        path: String,
        /// Parse error.
        error: String,
    },
    /// The snapshot's self-digest does not match its contents.
    Corrupted {
        /// Digest recomputed from the fields.
        expected: String,
        /// Digest recorded in the file.
        found: String,
    },
    /// The replayed state differs from the snapshot.
    Divergence {
        /// First differing field (e.g. `"rng_word_pos"`).
        field: String,
        /// Value recorded in the snapshot.
        expected: String,
        /// Value observed in the live state.
        found: String,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot version mismatch: found {found}, this build reads version {expected}"
                )
            }
            RestoreError::Unreadable { path, error } => {
                write!(f, "cannot read snapshot {path}: {error}")
            }
            RestoreError::Malformed { path, error } => {
                write!(f, "malformed snapshot {path}: {error}")
            }
            RestoreError::Corrupted { expected, found } => {
                write!(f, "snapshot corrupted: digest {found} recorded, {expected} recomputed")
            }
            RestoreError::Divergence { field, expected, found } => {
                write!(
                    f,
                    "restore diverged at {field}: snapshot has {expected}, live state has {found}"
                )
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// One entry in a checkpoint directory's manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Snapshot file name within the directory.
    pub file: String,
    /// The snapshot's event cursor.
    pub cursor: u64,
    /// The snapshot's self-digest.
    pub digest: String,
    /// Chained digest: `fnv(previous chain, this digest)`. Any dropped,
    /// reordered, or substituted snapshot breaks every later link.
    pub chain: String,
}

/// The `manifest.json` a directory sink maintains: the run identity plus
/// the digest chain of every checkpoint written, in order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version.
    pub version: u32,
    /// Experiment id the checkpoints belong to.
    pub experiment: String,
    /// The run's seed.
    pub seed: u64,
    /// Checkpoints in capture order.
    pub checkpoints: Vec<ManifestEntry>,
}

impl Manifest {
    /// Recompute and verify the digest chain.
    pub fn verify_chain(&self) -> bool {
        let mut prev = String::new();
        for entry in &self.checkpoints {
            if entry.chain != chain_digest(&prev, &entry.digest) {
                return false;
            }
            prev.clone_from(&entry.chain);
        }
        true
    }
}

fn chain_digest(prev: &str, digest: &str) -> String {
    let mut h = Fnv1a::new();
    h.write_u8(0xB3);
    h.write_str(prev);
    h.write_str(digest);
    RunDigest(h.finish()).to_hex()
}

/// Load a snapshot from disk, checking version and integrity.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, RestoreError> {
    let text = std::fs::read_to_string(path).map_err(|e| RestoreError::Unreadable {
        path: path.display().to_string(),
        error: e.to_string(),
    })?;
    let snap: Snapshot = serde_json::from_str(&text).map_err(|e| RestoreError::Malformed {
        path: path.display().to_string(),
        error: e.to_string(),
    })?;
    snap.validate()?;
    Ok(snap)
}

/// Load and chain-verify a directory sink's `manifest.json`.
pub fn load_manifest(path: &Path) -> Result<Manifest, RestoreError> {
    let text = std::fs::read_to_string(path).map_err(|e| RestoreError::Unreadable {
        path: path.display().to_string(),
        error: e.to_string(),
    })?;
    let manifest: Manifest = serde_json::from_str(&text).map_err(|e| RestoreError::Malformed {
        path: path.display().to_string(),
        error: e.to_string(),
    })?;
    if manifest.version != SNAPSHOT_VERSION {
        return Err(RestoreError::VersionMismatch {
            found: manifest.version,
            expected: SNAPSHOT_VERSION,
        });
    }
    if !manifest.verify_chain() {
        return Err(RestoreError::Corrupted {
            expected: "a consistent digest chain".to_string(),
            found: "a broken manifest chain".to_string(),
        });
    }
    Ok(manifest)
}

/// Compare two engine frontiers field by field, reporting the first
/// divergence by name.
pub fn engine_divergence(expected: &EngineState, found: &EngineState) -> Result<(), RestoreError> {
    check("now_micros", &expected.now_micros, &found.now_micros)?;
    check("next_seq", &expected.next_seq, &found.next_seq)?;
    check("events_processed", &expected.events_processed, &found.events_processed)?;
    check("queued", &expected.queued, &found.queued)?;
    check("queue_digest", &expected.queue_digest, &found.queue_digest)?;
    check("rng_seed", &expected.rng_seed, &found.rng_seed)?;
    check("rng_word_pos", &expected.rng_word_pos, &found.rng_word_pos)?;
    check("trace_entries", &expected.trace_entries, &found.trace_entries)?;
    check("trace_dropped", &expected.trace_dropped, &found.trace_dropped)?;
    check("open_spans", &expected.open_spans, &found.open_spans)?;
    check("trace_digest", &expected.trace_digest, &found.trace_digest)?;
    check("run_digest", &expected.run_digest, &found.run_digest)?;
    Ok(())
}

/// Compare component digest lists, reporting the first divergence.
pub fn components_divergence(
    expected: &[ComponentState],
    found: &[ComponentState],
) -> Result<(), RestoreError> {
    check("components", &expected.len(), &found.len())?;
    for (e, f) in expected.iter().zip(found) {
        check(&format!("component {}", e.name), &e.name, &f.name)?;
        check(&format!("{} digest", e.name), &e.digest, &f.digest)?;
    }
    Ok(())
}

fn check<T: PartialEq + fmt::Display>(
    field: &str,
    expected: &T,
    found: &T,
) -> Result<(), RestoreError> {
    if expected == found {
        Ok(())
    } else {
        Err(RestoreError::Divergence {
            field: field.to_string(),
            expected: expected.to_string(),
            found: found.to_string(),
        })
    }
}

// ---------------------------------------------------------------------------
// Ambient checkpoint scope (same shape as `obs`: one mode byte on the hot
// path, full state behind a RefCell, RAII guard with panic-safe restore).
// ---------------------------------------------------------------------------

const MODE_OFF: u8 = 0;
const MODE_ON: u8 = 1;

thread_local! {
    static MODE: Cell<u8> = const { Cell::new(MODE_OFF) };
    static STATE: RefCell<Option<CkState>> = const { RefCell::new(None) };
}

struct CkState {
    policy: CheckpointPolicy,
    sink: CheckpointSink,
    kill_at: Option<u64>,
    verify: Option<Snapshot>,
    meta: SnapshotMeta,
    cursor: u64,
    times_fired: usize,
    snapshots: Vec<Snapshot>,
    files: Vec<PathBuf>,
    manifest_path: Option<PathBuf>,
    manifest_entries: Vec<ManifestEntry>,
    verified_at: Option<u64>,
    divergence: Option<RestoreError>,
    killed_at: Option<u64>,
    io_error: Option<String>,
}

impl CkState {
    fn new(config: CheckpointConfig) -> Self {
        CkState {
            policy: config.policy,
            sink: config.sink,
            kill_at: config.kill_at,
            verify: config.verify,
            meta: config.meta,
            cursor: 0,
            times_fired: 0,
            snapshots: Vec::new(),
            files: Vec::new(),
            manifest_path: None,
            manifest_entries: Vec::new(),
            verified_at: None,
            divergence: None,
            killed_at: None,
            io_error: None,
        }
    }

    fn into_record(self) -> CheckpointRecord {
        CheckpointRecord {
            cursor: self.cursor,
            snapshots: self.snapshots,
            files: self.files,
            manifest: self.manifest_path,
            verified_at: self.verified_at,
            divergence: self.divergence,
            killed_at: self.killed_at,
            io_error: self.io_error,
        }
    }

    fn persist(&mut self, snap: &Snapshot) {
        let CheckpointSink::Dir(dir) = self.sink.clone() else { return };
        if self.io_error.is_some() {
            // One failed write poisons the sink; later snapshots stay
            // memory-only rather than leaving gaps in the chain.
            return;
        }
        if let Err(e) = self.persist_to(&dir, snap) {
            self.io_error = Some(e);
        }
    }

    fn persist_to(&mut self, dir: &Path, snap: &Snapshot) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let name = format!("ck_{:012}.json", snap.cursor);
        let path = dir.join(&name);
        let json =
            serde_json::to_string_pretty(snap).map_err(|e| format!("serialize {name}: {e}"))?;
        atomic_write(&path, &json)?;
        let prev = self.manifest_entries.last().map(|e| e.chain.clone()).unwrap_or_default();
        self.manifest_entries.push(ManifestEntry {
            file: name,
            cursor: snap.cursor,
            digest: snap.digest.clone(),
            chain: chain_digest(&prev, &snap.digest),
        });
        let manifest = Manifest {
            version: SNAPSHOT_VERSION,
            experiment: self.meta.experiment.clone(),
            seed: self.meta.seed,
            checkpoints: self.manifest_entries.clone(),
        };
        let manifest_path = dir.join("manifest.json");
        let manifest_json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| format!("serialize manifest: {e}"))?;
        atomic_write(&manifest_path, &manifest_json)?;
        self.files.push(path);
        self.manifest_path = Some(manifest_path);
        Ok(())
    }
}

fn atomic_write(path: &Path, contents: &str) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))?;
    Ok(())
}

/// Everything one checkpoint scope observed, returned by
/// [`CheckpointGuard::finish`].
#[derive(Debug, Clone, Default)]
pub struct CheckpointRecord {
    /// Total events dispatched under the scope (across all engines). The
    /// shared index space for capture policy, crash injection and recovery
    /// verification.
    pub cursor: u64,
    /// Snapshots captured, in order (always populated, even with a
    /// directory sink).
    pub snapshots: Vec<Snapshot>,
    /// Snapshot files written (directory sinks only).
    pub files: Vec<PathBuf>,
    /// Path of the manifest maintained alongside the files.
    pub manifest: Option<PathBuf>,
    /// Cursor at which a configured verification snapshot matched.
    pub verified_at: Option<u64>,
    /// First verification divergence, if any.
    pub divergence: Option<RestoreError>,
    /// Cursor at which an injected crash fired.
    pub killed_at: Option<u64>,
    /// First persistence failure, if any (later writes are skipped).
    pub io_error: Option<String>,
}

/// RAII handle for an ambient checkpoint scope.
///
/// Call [`CheckpointGuard::finish`] to collect the record; merely dropping
/// the guard (e.g. on a panic that unwinds past it) discards the scope and
/// restores whatever scope was active before. The recovery harness
/// therefore holds the guard *outside* its `catch_unwind` so snapshots
/// survive the injected crash.
#[must_use = "checkpoint scopes must be finished to collect their record"]
pub struct CheckpointGuard {
    prev_mode: u8,
    prev_state: Option<CkState>,
}

/// Open an ambient checkpoint scope on this thread. Nesting is allowed;
/// the inner scope shadows the outer until finished or dropped.
pub fn begin(config: CheckpointConfig) -> CheckpointGuard {
    let prev_state = STATE.with(|s| s.borrow_mut().replace(CkState::new(config)));
    let prev_mode = MODE.with(|m| m.replace(MODE_ON));
    CheckpointGuard { prev_mode, prev_state }
}

impl CheckpointGuard {
    /// Close the scope and return everything it captured.
    pub fn finish(self) -> CheckpointRecord {
        // Take the record now; `Drop` then restores the previous scope.
        STATE.with(|s| s.borrow_mut().take()).map(CkState::into_record).unwrap_or_default()
    }
}

impl Drop for CheckpointGuard {
    fn drop(&mut self) {
        let prev = self.prev_state.take();
        STATE.with(|s| *s.borrow_mut() = prev);
        MODE.with(|m| m.set(self.prev_mode));
    }
}

/// Whether a checkpoint scope is active on this thread (one byte-load; the
/// engine's per-event fast path).
#[inline]
pub fn active() -> bool {
    MODE.with(|m| m.get()) != MODE_OFF
}

fn with_state<R>(f: impl FnOnce(&mut CkState) -> R) -> Option<R> {
    if !active() {
        return None;
    }
    STATE.with(|s| s.borrow_mut().as_mut().map(f))
}

/// What the engine should do after dispatching the current event.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StepDirective {
    /// Capture a snapshot at this cursor.
    pub checkpoint: bool,
    /// Verify the scope's recovery snapshot against live state.
    pub verify: bool,
    /// Panic with an injected crash.
    pub kill: bool,
}

/// Advance the scope cursor past one dispatched event and decide what the
/// engine must do next. Called by the engine after every dispatch; the
/// cursor is the only index space — capture, verify and crash injection
/// all key on it.
pub(crate) fn on_event(now: SimTime) -> StepDirective {
    with_state(|s| {
        s.cursor += 1;
        StepDirective {
            checkpoint: s.policy.due(s.cursor, now.as_micros(), &mut s.times_fired),
            verify: s.verify.as_ref().is_some_and(|v| v.cursor == s.cursor),
            kill: s.kill_at == Some(s.cursor),
        }
    })
    .unwrap_or_default()
}

/// Capture a snapshot of the given frontier at the current cursor. Skips
/// silently if the cursor was already snapshotted (the budget-exhaustion
/// hook and an `every_n_events` boundary can land on the same event).
pub(crate) fn record(engine: EngineState, components: Vec<ComponentState>) {
    with_state(|s| {
        if s.snapshots.last().is_some_and(|p| p.cursor == s.cursor) {
            return;
        }
        let snap = Snapshot::sealed(s.meta.clone(), s.cursor, engine, components);
        s.persist(&snap);
        s.snapshots.push(snap);
    });
}

/// Whether the budget-exhaustion hook should emit a final snapshot: a
/// scope is active, events have run, and the current cursor is not already
/// covered by the latest snapshot.
pub(crate) fn halt_checkpoint_due() -> bool {
    with_state(|s| s.cursor > 0 && s.snapshots.last().is_none_or(|p| p.cursor != s.cursor))
        .unwrap_or(false)
}

/// Compare the live frontier against the scope's recovery snapshot.
/// Returns `true` on an exact match (the engine then runs its restore
/// hook); records the first divergence otherwise.
pub(crate) fn verify_frontier(engine: EngineState, components: Vec<ComponentState>) -> bool {
    with_state(|s| {
        let Some(snap) = s.verify.as_ref() else { return false };
        let result = engine_divergence(&snap.engine, &engine)
            .and_then(|()| components_divergence(&snap.components, &components));
        match result {
            Ok(()) => {
                s.verified_at = Some(s.cursor);
                true
            }
            Err(e) => {
                s.divergence.get_or_insert(e);
                false
            }
        }
    })
    .unwrap_or(false)
}

/// Mark the injected crash as fired and build its panic message.
pub(crate) fn kill_now() -> String {
    with_state(|s| {
        s.killed_at = Some(s.cursor);
        format!("checkpoint: injected crash at event {}", s.cursor)
    })
    .unwrap_or_else(|| "checkpoint: injected crash".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_state(events: u64) -> EngineState {
        EngineState {
            now_micros: events * 10,
            next_seq: events + 1,
            events_processed: events,
            queued: 1,
            queue_digest: "00000000000000aa".into(),
            rng_seed: "ab".repeat(32),
            rng_word_pos: events * 2,
            trace_entries: events,
            trace_dropped: 0,
            open_spans: 0,
            trace_digest: "00000000000000bb".into(),
            run_digest: "00000000000000cc".into(),
        }
    }

    fn snap(cursor: u64) -> Snapshot {
        Snapshot::sealed(
            SnapshotMeta { experiment: "E1".into(), seed: 7 },
            cursor,
            engine_state(cursor),
            vec![ComponentState { name: "network".into(), digest: "00000000000000dd".into() }],
        )
    }

    #[test]
    fn sealed_snapshots_validate_and_detect_tampering() {
        let s = snap(100);
        assert_eq!(s.version, SNAPSHOT_VERSION);
        assert!(s.validate().is_ok());

        let mut edited = s.clone();
        edited.engine.rng_word_pos += 1;
        assert!(matches!(edited.validate(), Err(RestoreError::Corrupted { .. })));

        let mut wrong_version = s.clone();
        wrong_version.version = 99;
        assert_eq!(
            wrong_version.validate(),
            Err(RestoreError::VersionMismatch { found: 99, expected: SNAPSHOT_VERSION })
        );
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let s = snap(42);
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn policy_every_n_fires_on_multiples() {
        let p = CheckpointPolicy::every_n_events(3);
        let mut fired = 0;
        let fires: Vec<u64> = (1..=10).filter(|&c| p.due(c, 0, &mut fired)).collect();
        assert_eq!(fires, vec![3, 6, 9]);
    }

    #[test]
    fn policy_at_times_fires_each_threshold_once() {
        let p = CheckpointPolicy::at_virtual_times([
            SimTime::from_micros(50),
            SimTime::from_micros(10),
            SimTime::from_micros(50),
        ]);
        let mut fired = 0;
        // Clock 5: nothing due yet.
        assert!(!p.due(1, 5, &mut fired));
        // Clock 60 crosses both thresholds at once: one snapshot, both
        // thresholds consumed.
        assert!(p.due(2, 60, &mut fired));
        assert_eq!(fired, 2);
        assert!(!p.due(3, 70, &mut fired));
    }

    #[test]
    #[should_panic(expected = "at least 1 event")]
    fn zero_interval_is_rejected() {
        let _ = CheckpointPolicy::every_n_events(0);
    }

    #[test]
    fn scope_records_deduplicates_and_kills() {
        let guard = begin(
            CheckpointConfig::new(CheckpointPolicy::every_n_events(2)).kill_at(5).meta("E1", 7),
        );
        for i in 1..=5u64 {
            let d = on_event(SimTime::from_micros(i * 10));
            if d.checkpoint {
                record(engine_state(i), Vec::new());
                // A second record at the same cursor must be a no-op.
                record(engine_state(i), Vec::new());
            }
            if d.kill {
                assert_eq!(i, 5);
                let msg = kill_now();
                assert!(msg.contains("injected crash at event 5"), "{msg}");
            }
        }
        // Simulate the budget hook firing right after event 5: cursor 5 has
        // no snapshot yet, so a final one is due — and then no longer.
        assert!(halt_checkpoint_due());
        record(engine_state(5), Vec::new());
        assert!(!halt_checkpoint_due());

        let rec = guard.finish();
        assert_eq!(rec.cursor, 5);
        assert_eq!(rec.snapshots.iter().map(|s| s.cursor).collect::<Vec<_>>(), vec![2, 4, 5]);
        assert_eq!(rec.killed_at, Some(5));
        assert_eq!(rec.snapshots[0].meta.experiment, "E1");
        assert!(!active(), "finish must close the scope");
    }

    #[test]
    fn verify_matches_and_reports_first_divergence() {
        let reference = snap(3);

        // Exact replay: verified at the cursor.
        let guard =
            begin(CheckpointConfig::new(CheckpointPolicy::manual()).verify(reference.clone()));
        for i in 1..=3u64 {
            let d = on_event(SimTime::from_micros(i));
            if d.verify {
                assert!(verify_frontier(
                    engine_state(i),
                    vec![ComponentState {
                        name: "network".into(),
                        digest: "00000000000000dd".into()
                    }],
                ));
            }
        }
        let rec = guard.finish();
        assert_eq!(rec.verified_at, Some(3));
        assert!(rec.divergence.is_none());

        // Diverged replay: the first differing field is named.
        let guard = begin(CheckpointConfig::new(CheckpointPolicy::manual()).verify(reference));
        for i in 1..=3u64 {
            let d = on_event(SimTime::from_micros(i));
            if d.verify {
                let mut wrong = engine_state(i);
                wrong.rng_word_pos += 7;
                assert!(!verify_frontier(wrong, Vec::new()));
            }
        }
        let rec = guard.finish();
        assert_eq!(rec.verified_at, None);
        match rec.divergence {
            Some(RestoreError::Divergence { ref field, .. }) => assert_eq!(field, "rng_word_pos"),
            other => panic!("expected a divergence, got {other:?}"),
        }
    }

    #[test]
    fn scopes_nest_and_restore_on_drop() {
        assert!(!active());
        let outer = begin(CheckpointConfig::new(CheckpointPolicy::manual()));
        on_event(SimTime::from_micros(1));
        {
            let inner = begin(CheckpointConfig::new(CheckpointPolicy::manual()));
            on_event(SimTime::from_micros(2));
            on_event(SimTime::from_micros(3));
            let rec = inner.finish();
            assert_eq!(rec.cursor, 2, "inner scope counts only its own events");
        }
        on_event(SimTime::from_micros(4));
        let rec = outer.finish();
        assert_eq!(rec.cursor, 2, "outer scope resumes after the inner closes");
        assert!(!active());
    }

    #[test]
    fn dir_sink_persists_atomically_with_chained_manifest() {
        let dir = std::env::temp_dir().join(format!(
            "tussle-ck-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let guard = begin(
            CheckpointConfig::new(CheckpointPolicy::every_n_events(1)).dir(&dir).meta("E2", 9),
        );
        for i in 1..=3u64 {
            let d = on_event(SimTime::from_micros(i));
            assert!(d.checkpoint);
            record(engine_state(i), Vec::new());
        }
        let rec = guard.finish();
        assert!(rec.io_error.is_none(), "{:?}", rec.io_error);
        assert_eq!(rec.files.len(), 3);

        // No temp files may survive the renames.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");

        // Every written snapshot loads back and validates.
        for (file, snap) in rec.files.iter().zip(&rec.snapshots) {
            assert_eq!(&load_snapshot(file).unwrap(), snap);
        }

        // The manifest chain holds, and breaks under tampering.
        let manifest = load_manifest(rec.manifest.as_deref().unwrap()).unwrap();
        assert_eq!(manifest.experiment, "E2");
        assert_eq!(manifest.seed, 9);
        assert_eq!(manifest.checkpoints.len(), 3);
        assert!(manifest.verify_chain());
        let mut tampered = manifest.clone();
        tampered.checkpoints.remove(1);
        assert!(!tampered.verify_chain());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_snapshot_reports_structured_errors() {
        let dir = std::env::temp_dir().join(format!(
            "tussle-ck-load-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        let missing = dir.join("nope.json");
        assert!(matches!(load_snapshot(&missing), Err(RestoreError::Unreadable { .. })));

        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        assert!(matches!(load_snapshot(&garbage), Err(RestoreError::Malformed { .. })));

        let mut wrong = snap(5);
        wrong.version = 99;
        let path = dir.join("wrong-version.json");
        std::fs::write(&path, serde_json::to_string_pretty(&wrong).unwrap()).unwrap();
        assert_eq!(
            load_snapshot(&path),
            Err(RestoreError::VersionMismatch { found: 99, expected: SNAPSHOT_VERSION })
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
