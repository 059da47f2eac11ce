//! Crash-safe controller state: versioned checkpoints plus a
//! write-ahead epoch journal.
//!
//! Durability model. The controller's evolving state is a pure
//! function of the run seed: a master RNG draws one `(trace_seed,
//! fault_seed)` pair per epoch, and everything an epoch does is
//! deterministic given that pair. Two artifacts make a crash at any
//! point recoverable:
//!
//! * the **journal** — before an epoch executes, its [`EpochRecord`]
//!   (the seed pair) is appended to an append-only log (write-ahead),
//!   so an epoch interrupted mid-solve re-executes on restart;
//! * the **checkpoint** — a versioned, digest-protected snapshot of
//!   the slow-moving controller state (last-known-good policy, static
//!   priors, warm-start basis cache) plus the epoch cursor, taken
//!   every `checkpoint_every` epochs so recovery does not have to
//!   replay from genesis.
//!
//! [`DurableController::recover`] loads the checkpoint if it parses,
//! verifies and matches the current version; re-derives the canonical
//! seed stream and validates the journal against it (repairing gaps,
//! dropping corrupt or divergent tails); re-executes the journaled
//! epochs past the checkpoint; and resumes. A recovered controller is
//! *bit-identical* to one that never crashed: every subsequent
//! [`RobustReport`] and per-epoch deterministic [`RunReport`] matches
//! the uninterrupted run byte for byte — the property the tests here
//! and the crash/recovery property test in `tests/properties.rs` pin
//! down. Because even a corrupted checkpoint or a lost journal tail
//! only changes *where* replay starts, never *what* it computes, every
//! recovery converges to the same state.

use crate::faults::{
    FaultPersistence, FaultPlan, PlanError, PredictorFaultKind, PredictorFaults, SolverFaultKind,
    SolverFaults, TelemetryFaults, TunnelFaults,
};
use crate::robust::{RobustController, RobustReport};
use prete_lp::{BasisCacheSnapshot, EtaUpdate, Pricing, SolverBackend};
use prete_obs::{Recorder, RunReport};
use prete_optical::trace::{synthesize, LossTrace, ScriptedDegradation, TraceConfig};
use prete_topology::FiberId;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Format version of [`ControllerCheckpoint`]; bumped on any change to
/// the serialized shape. Recovery treats a version mismatch like
/// corruption: the checkpoint is rejected and the journal replays from
/// genesis.
///
/// v2: added the `backend` field (LP engine choice survives restarts).
/// v3: `basis_cache` carries LRU recency/capacity/eviction state (the
/// bounded cache must resume the exact eviction stream).
/// v4: native-bounds basis representation (`at_upper` flags inside the
/// cached bases) plus the `pricing`/`eta_update` solver configuration;
/// pre-bounds snapshots are rejected and rebuilt from the journal.
/// v5: `last_known_good` carries the KKT certification record
/// (`TeSolution::quality`); solves may now resume from a
/// `NumericallySuspect` baseline, which pre-v5 controllers would have
/// treated as plain Optimal.
pub const CHECKPOINT_VERSION: u32 = 5;

// ---------------------------------------------------------------------------
// Storage backends
// ---------------------------------------------------------------------------

/// An error from the durable storage backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError(pub String);

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store error: {}", self.0)
    }
}

impl std::error::Error for StoreError {}

/// Durable storage for one controller: a single replaceable checkpoint
/// blob plus an append-only journal of one line per epoch.
///
/// The trait is deliberately line-oriented rather than byte-oriented:
/// recovery reasons about whole records, and a torn final line is
/// indistinguishable from a corrupt one (both are dropped as dead
/// tail).
pub trait Store {
    /// The checkpoint blob, if one was ever written.
    fn load_checkpoint(&self) -> Result<Option<String>, StoreError>;
    /// Replaces the checkpoint blob.
    fn save_checkpoint(&mut self, json: &str) -> Result<(), StoreError>;
    /// All journal lines, oldest first.
    fn journal(&self) -> Result<Vec<String>, StoreError>;
    /// Appends one line to the journal (the write-ahead step).
    fn append_journal(&mut self, line: &str) -> Result<(), StoreError>;
    /// Truncates the journal to its first `keep` lines. Recovery uses
    /// this to drop corrupt tails; the chaos harness uses it to inject
    /// stale ones.
    fn truncate_journal(&mut self, keep: usize) -> Result<(), StoreError>;
}

/// In-memory [`Store`]: survives a simulated crash (dropping the
/// controller) but not the process. Fields are public so chaos tests
/// can corrupt them directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStore {
    /// The checkpoint blob.
    pub checkpoint: Option<String>,
    /// Journal lines, oldest first.
    pub journal: Vec<String>,
}

impl Store for MemStore {
    fn load_checkpoint(&self) -> Result<Option<String>, StoreError> {
        Ok(self.checkpoint.clone())
    }

    fn save_checkpoint(&mut self, json: &str) -> Result<(), StoreError> {
        self.checkpoint = Some(json.to_string());
        Ok(())
    }

    fn journal(&self) -> Result<Vec<String>, StoreError> {
        Ok(self.journal.clone())
    }

    fn append_journal(&mut self, line: &str) -> Result<(), StoreError> {
        self.journal.push(line.to_string());
        Ok(())
    }

    fn truncate_journal(&mut self, keep: usize) -> Result<(), StoreError> {
        self.journal.truncate(keep);
        Ok(())
    }
}

/// Filesystem [`Store`]: `checkpoint.json` (replaced via a temp file +
/// rename so a crash mid-write never leaves a half-written blob where
/// a valid one used to be) and an append-only `journal.jsonl` under
/// one directory.
#[derive(Debug, Clone)]
pub struct FileStore {
    dir: PathBuf,
}

impl FileStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError(format!("create {dir:?}: {e}")))?;
        Ok(Self { dir })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("checkpoint.json")
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }
}

impl Store for FileStore {
    fn load_checkpoint(&self) -> Result<Option<String>, StoreError> {
        match std::fs::read_to_string(self.checkpoint_path()) {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError(format!("read checkpoint: {e}"))),
        }
    }

    fn save_checkpoint(&mut self, json: &str) -> Result<(), StoreError> {
        // Write-fsync-rename: the rename must not be allowed to land
        // before the tmp file's *contents* are durable, or a power cut
        // can leave a fully-renamed checkpoint full of zero pages —
        // exactly the torn state the tmp file exists to prevent.
        let tmp = self.dir.join("checkpoint.json.tmp");
        let mut f = std::fs::File::create(&tmp)
            .map_err(|e| StoreError(format!("create checkpoint tmp: {e}")))?;
        f.write_all(json.as_bytes())
            .map_err(|e| StoreError(format!("write checkpoint: {e}")))?;
        f.sync_all().map_err(|e| StoreError(format!("fsync checkpoint: {e}")))?;
        drop(f);
        std::fs::rename(&tmp, self.checkpoint_path())
            .map_err(|e| StoreError(format!("install checkpoint: {e}")))?;
        // Make the rename itself durable. Not all platforms allow
        // fsync on a directory handle; failing that is non-fatal (the
        // data is safe, only the name could revert to the previous —
        // also valid — checkpoint).
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn journal(&self) -> Result<Vec<String>, StoreError> {
        match std::fs::read_to_string(self.journal_path()) {
            Ok(s) => Ok(s.lines().map(str::to_string).collect()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(StoreError(format!("read journal: {e}"))),
        }
    }

    fn append_journal(&mut self, line: &str) -> Result<(), StoreError> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.journal_path())
            .map_err(|e| StoreError(format!("open journal: {e}")))?;
        writeln!(f, "{line}").map_err(|e| StoreError(format!("append journal: {e}")))?;
        // The journal is the write-ahead log: the epoch only executes
        // after its record is durable.
        f.sync_all().map_err(|e| StoreError(format!("fsync journal: {e}")))
    }

    fn truncate_journal(&mut self, keep: usize) -> Result<(), StoreError> {
        let kept = self.journal()?.into_iter().take(keep).collect::<Vec<_>>();
        let mut body = kept.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        std::fs::write(self.journal_path(), body)
            .map_err(|e| StoreError(format!("truncate journal: {e}")))
    }
}

// ---------------------------------------------------------------------------
// Checkpoint + journal records
// ---------------------------------------------------------------------------

/// One write-ahead journal entry: the full input of one epoch. The
/// record is appended *before* the epoch executes, so a crash at any
/// later point leaves enough on disk to re-run the epoch exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Seed for the epoch's telemetry trace synthesis.
    pub trace_seed: u64,
    /// Seed for the epoch's fault plan.
    pub fault_seed: u64,
}

/// A versioned, digest-protected snapshot of the slow-moving
/// controller state. Everything an epoch reads that outlives the
/// epoch is here: the standing policy, the static priors, the
/// warm-start basis cache (contents *and* hit/miss counters — the
/// counters feed [`SolverStats`](prete_core::prelude::SolverStats), so
/// resuming them is part of bit-identity), and the epoch cursor that
/// positions the master RNG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerCheckpoint {
    /// Format version; see [`CHECKPOINT_VERSION`].
    pub version: u32,
    /// Epochs completed when the checkpoint was taken (also the master
    /// RNG cursor: `epoch` seed pairs have been consumed).
    pub epoch: u64,
    /// The standing last-known-good policy.
    pub last_known_good: prete_core::prelude::TeSolution,
    /// Static per-fiber cut priors.
    pub priors: Vec<f64>,
    /// Warm-start basis cache contents and counters.
    pub basis_cache: BasisCacheSnapshot,
    /// LP engine the controller was solving with; restored so a
    /// recovered run keeps producing bit-identical solver work.
    pub backend: SolverBackend,
    /// Entering-variable pricing rule in force when the checkpoint was
    /// taken; restored for the same bit-identity reason as `backend`.
    pub pricing: Pricing,
    /// Basis-update scheme in force when the checkpoint was taken;
    /// restored for the same bit-identity reason as `backend`.
    pub eta_update: EtaUpdate,
    /// FNV-1a digest of the canonical JSON with this field zeroed;
    /// detects torn writes and bit rot on load.
    pub digest: u64,
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds bytes into a running FNV-1a hash (chainable across calls).
pub(crate) fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_OFFSET, bytes)
}

impl ControllerCheckpoint {
    fn canonical_json(&self) -> Result<String, CheckpointError> {
        let mut plain = self.clone();
        plain.digest = 0;
        encode(&plain)
    }

    /// Stamps the integrity digest; call after filling every other
    /// field.
    pub fn seal(mut self) -> Result<Self, CheckpointError> {
        self.digest = fnv1a64(self.canonical_json()?.as_bytes());
        Ok(self)
    }

    /// Whether the stored digest matches the contents.
    pub fn verify(&self) -> bool {
        match self.canonical_json() {
            Ok(json) => self.digest == fnv1a64(json.as_bytes()),
            Err(_) => false,
        }
    }
}

/// An error from the durability layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The storage backend failed.
    Store(StoreError),
    /// A record or checkpoint would not serialize.
    Encode(String),
    /// The workload produced a fault plan that fails validation.
    InvalidPlan(PlanError),
}

impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> Self {
        CheckpointError::Store(e)
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Store(e) => write!(f, "{e}"),
            CheckpointError::Encode(e) => write!(f, "encode error: {e}"),
            CheckpointError::InvalidPlan(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn encode<T: Serialize>(value: &T) -> Result<String, CheckpointError> {
    serde_json::to_string(value).map_err(|e| CheckpointError::Encode(e.to_string()))
}

// ---------------------------------------------------------------------------
// The durable controller
// ---------------------------------------------------------------------------

/// The per-epoch workload: how to turn a journaled seed pair into the
/// epoch's telemetry trace and fault plan. Implementations must be
/// pure functions of their arguments — recovery re-invokes them to
/// re-execute journaled epochs, and any hidden state would break
/// bit-identical replay.
pub trait EpochWorkload {
    /// Synthesizes the epoch's telemetry trace.
    fn trace(&self, epoch: u64, trace_seed: u64) -> LossTrace;
    /// Builds the epoch's fault plan.
    fn plan(&self, epoch: u64, fault_seed: u64) -> FaultPlan;
}

/// References forward to the referent, so `&dyn EpochWorkload` (how
/// the fleet runtime holds heterogeneous tenant workloads) satisfies
/// the `impl EpochWorkload` bounds on [`DurableController`].
impl<W: EpochWorkload + ?Sized> EpochWorkload for &W {
    fn trace(&self, epoch: u64, trace_seed: u64) -> LossTrace {
        (**self).trace(epoch, trace_seed)
    }

    fn plan(&self, epoch: u64, fault_seed: u64) -> FaultPlan {
        (**self).plan(epoch, fault_seed)
    }
}

/// The standard soak workload: §5-shaped degradation→cut traces whose
/// degree wobbles with the epoch, alternating between two fibers (so
/// warm-cache hits and misses both occur), plus light seeded faults in
/// every stage. A pure function of its arguments, as
/// [`EpochWorkload`] requires.
#[derive(Debug, Clone, Copy)]
pub struct ScriptedWorkload {
    /// Fibers in the network under test; the trace alternates between
    /// fiber 0 and fiber `n_fibers / 2`.
    pub n_fibers: usize,
}

impl ScriptedWorkload {
    /// A workload alternating over `n_fibers` fibers.
    pub fn new(n_fibers: usize) -> Self {
        Self { n_fibers }
    }
}

impl EpochWorkload for ScriptedWorkload {
    fn trace(&self, epoch: u64, trace_seed: u64) -> LossTrace {
        let deg = ScriptedDegradation {
            start_s: 65,
            duration_s: 45,
            degree_db: 6.0 + 0.1 * (epoch % 5) as f64,
            wobble_db: 0.2,
        };
        let fiber = if epoch.is_multiple_of(2) {
            FiberId(0)
        } else {
            FiberId((self.n_fibers / 2).max(1) % self.n_fibers.max(1))
        };
        synthesize(fiber, 0, 160, &[deg], Some(110), TraceConfig::default(), trace_seed)
    }

    fn plan(&self, _epoch: u64, fault_seed: u64) -> FaultPlan {
        FaultPlan {
            seed: fault_seed,
            telemetry: fault_seed.is_multiple_of(3).then(TelemetryFaults::light),
            predictor: fault_seed.is_multiple_of(7).then_some(PredictorFaults {
                kind: PredictorFaultKind::Unavailable,
                persistence: FaultPersistence::Transient(1),
            }),
            solver: fault_seed.is_multiple_of(11).then_some(SolverFaults {
                kind: SolverFaultKind::BudgetExceeded,
                persistence: FaultPersistence::Transient(1),
            }),
            tunnels: fault_seed
                .is_multiple_of(2)
                .then_some(TunnelFaults { fail_prob: 0.5, permanent_prob: 0.2 }),
        }
    }
}

/// Configuration of a durable run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurableConfig {
    /// Seed of the master RNG that draws every epoch's seed pair.
    pub run_seed: u64,
    /// Checkpoint every this many epochs (0 = journal only, never
    /// checkpoint).
    pub checkpoint_every: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self { run_seed: 0, checkpoint_every: 8 }
    }
}

/// Everything one completed epoch produced. `run` is recorded with a
/// fresh deterministic recorder per epoch, so its JSON is
/// byte-comparable across runs and across crash/recovery boundaries.
#[derive(Debug, Clone, Serialize)]
pub struct EpochOutcome {
    /// The journaled input that produced this outcome.
    pub record: EpochRecord,
    /// The robust controller's replay report.
    pub report: RobustReport,
    /// The epoch's deterministic observability report.
    pub run: RunReport,
}

impl EpochOutcome {
    /// The epoch's byte-level fingerprint: the robust report's JSON
    /// with the solver's wall-clock timings zeroed (the only
    /// machine-dependent bytes — report *equality* already ignores
    /// them), plus the deterministic run report's JSON. Two epochs
    /// with equal fingerprints are bit-identical in every logical
    /// respect; the crash-recovery tests and the chaos invariants
    /// compare these.
    pub fn fingerprint(&self) -> Result<(String, String), CheckpointError> {
        let mut report = self.report.clone();
        report.solver.total_ms = 0.0;
        report.solver.subproblem_ms = 0.0;
        report.solver.master_ms = 0.0;
        report.solver.polish_ms = 0.0;
        // Like the wall times, the thread count is an execution
        // parameter, not a result: runs at different thread counts
        // must fingerprint identically.
        report.solver.threads = 0;
        Ok((encode(&report)?, self.run.to_json()))
    }
}

/// What [`DurableController::recover`] found and did.
#[derive(Debug, Serialize)]
pub struct Recovery {
    /// Epoch of the checkpoint that was installed, if one was usable.
    pub checkpoint_epoch: Option<u64>,
    /// Whether a checkpoint blob existed but was rejected (unparseable,
    /// wrong version, or digest mismatch).
    pub checkpoint_rejected: bool,
    /// Epoch the controller resumed at (= epochs completed).
    pub resumed_at: u64,
    /// Journal lines dropped as dead tail (unparseable, or divergent
    /// from the canonical seed stream).
    pub dropped_records: u64,
    /// Journal records re-derived and re-appended to close a gap below
    /// the checkpoint epoch.
    pub repaired_records: u64,
    /// Outcomes of the journaled epochs past the checkpoint that were
    /// re-executed during recovery. Byte-identical to what the
    /// uninterrupted run produced for the same epochs.
    pub reexecuted: Vec<EpochOutcome>,
}

/// A [`RobustController`] wrapped in checkpoint + write-ahead-journal
/// durability. Drive it with [`run_epoch`](Self::run_epoch); after a
/// crash (dropping the controller), rebuild it with
/// [`recover`](Self::recover) over the surviving store.
pub struct DurableController<'a, S: Store> {
    /// The wrapped robust controller.
    pub robust: RobustController<'a>,
    store: S,
    cfg: DurableConfig,
    master: StdRng,
    epoch: u64,
    lifecycle: Recorder,
}

fn draw_record(master: &mut StdRng, epoch: u64) -> EpochRecord {
    EpochRecord { epoch, trace_seed: master.next_u64(), fault_seed: master.next_u64() }
}

fn execute_epoch(
    robust: &mut RobustController<'_>,
    record: &EpochRecord,
    workload: &impl EpochWorkload,
) -> Result<EpochOutcome, CheckpointError> {
    let trace = workload.trace(record.epoch, record.trace_seed);
    let plan = workload.plan(record.epoch, record.fault_seed);
    plan.validate().map_err(CheckpointError::InvalidPlan)?;
    // Fresh logical clock per epoch: the epoch's RunReport depends only
    // on the epoch's inputs, never on when it ran.
    robust.inner.obs = Recorder::deterministic();
    let report = robust.replay_trace(&trace, &plan);
    let run = robust.inner.obs.report();
    Ok(EpochOutcome { record: *record, report, run })
}

impl<'a, S: Store> DurableController<'a, S> {
    /// Builds (or rebuilds) a durable controller over whatever `store`
    /// holds.
    ///
    /// `robust` must be *freshly constructed* (the genesis state):
    /// recovery installs checkpointed state over it, or — when the
    /// checkpoint is missing or rejected — replays the entire journal
    /// on top of it. An empty store is simply the fresh-start case
    /// (`resumed_at == 0`, nothing re-executed).
    ///
    /// Recovery performs three steps, all deterministic:
    ///
    /// 1. install the checkpoint if it parses, verifies and matches
    ///    [`CHECKPOINT_VERSION`] — otherwise reject it and fall back to
    ///    genesis;
    /// 2. validate the journal against the canonical seed stream
    ///    re-derived from `cfg.run_seed`: the valid prefix is kept, a
    ///    divergent or unparseable tail is dropped, and a gap below the
    ///    checkpoint epoch is repaired by re-appending re-derived
    ///    records (the digest-verified checkpoint is authoritative);
    /// 3. re-execute the surviving journal records past the checkpoint
    ///    epoch, producing the same outcomes the pre-crash run did.
    pub fn recover(
        mut robust: RobustController<'a>,
        mut store: S,
        cfg: DurableConfig,
        workload: &impl EpochWorkload,
    ) -> Result<(Self, Recovery), CheckpointError> {
        let lifecycle = Recorder::deterministic();
        let span = lifecycle.span("recover");

        // 1. The checkpoint, if usable.
        let mut checkpoint_rejected = false;
        let checkpoint: Option<ControllerCheckpoint> = match store.load_checkpoint()? {
            None => None,
            Some(blob) => match serde_json::from_str::<ControllerCheckpoint>(&blob) {
                Ok(c) if c.version == CHECKPOINT_VERSION && c.verify() => Some(c),
                _ => {
                    checkpoint_rejected = true;
                    None
                }
            },
        };
        let base = match &checkpoint {
            Some(c) => {
                robust.set_last_known_good(c.last_known_good.clone());
                robust.set_priors(c.priors.clone());
                robust.inner.cache.borrow_mut().restore(&c.basis_cache);
                robust.inner.backend = c.backend;
                robust.inner.pricing = c.pricing;
                robust.inner.eta_update = c.eta_update;
                c.epoch
            }
            None => 0,
        };

        // 2. The journal: parse greedily, then find the longest prefix
        // matching the canonical seed stream.
        let lines = store.journal()?;
        let mut records: Vec<EpochRecord> = Vec::with_capacity(lines.len());
        for line in &lines {
            match serde_json::from_str::<EpochRecord>(line) {
                Ok(r) => records.push(r),
                Err(_) => break,
            }
        }
        let horizon = records.len().max(base as usize) as u64;
        let mut probe = StdRng::seed_from_u64(cfg.run_seed);
        let canonical: Vec<EpochRecord> = (0..horizon).map(|e| draw_record(&mut probe, e)).collect();
        let mut good = 0usize;
        while good < records.len() && records[good] == canonical[good] {
            good += 1;
        }
        let resume_to = (base as usize).max(good);
        let dropped_records = (lines.len() - good) as u64;
        let repaired_records = (resume_to - good) as u64;
        if good < lines.len() {
            store.truncate_journal(good)?;
        }
        for rec in &canonical[good..resume_to] {
            store.append_journal(&encode(rec)?)?;
        }

        // 3. Re-execute the journaled epochs past the checkpoint.
        let mut reexecuted = Vec::with_capacity(resume_to - base as usize);
        for rec in &canonical[base as usize..resume_to] {
            reexecuted.push(execute_epoch(&mut robust, rec, workload)?);
        }

        lifecycle.annotate("recovered_from", &base.to_string());
        lifecycle.annotate("resumed_at", &resume_to.to_string());
        lifecycle.event_with("fleet.recovered", || {
            format!(
                "from={base} resumed_at={resume_to} reexecuted={} dropped={dropped_records} \
                 repaired={repaired_records} checkpoint_rejected={checkpoint_rejected}",
                reexecuted.len()
            )
        });
        drop(span);

        // The master RNG cursor sits exactly past the consumed pairs.
        let mut master = StdRng::seed_from_u64(cfg.run_seed);
        for _ in 0..resume_to {
            let _ = master.next_u64();
            let _ = master.next_u64();
        }

        let recovery = Recovery {
            checkpoint_epoch: checkpoint.as_ref().map(|c| c.epoch),
            checkpoint_rejected,
            resumed_at: resume_to as u64,
            dropped_records,
            repaired_records,
            reexecuted,
        };
        let controller =
            Self { robust, store, cfg, master, epoch: resume_to as u64, lifecycle };
        Ok((controller, recovery))
    }

    /// Epochs completed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The storage backend (chaos tests corrupt it through here).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the controller, releasing the store — the simulated
    /// crash: in-memory state dies, the store survives.
    pub fn into_store(self) -> S {
        self.store
    }

    /// The lifecycle report: recovery spans (with their
    /// `recovered_from` annotations) and checkpoint events.
    pub fn lifecycle_report(&self) -> RunReport {
        self.lifecycle.report()
    }

    /// Draws the next epoch's seeds and journals them *without*
    /// executing — the write-ahead step alone. [`run_epoch`]
    /// (Self::run_epoch) is `stage_epoch` + [`complete_epoch`]
    /// (Self::complete_epoch); the chaos harness calls `stage_epoch`
    /// and then drops the controller to simulate a crash mid-solve.
    pub fn stage_epoch(&mut self) -> Result<EpochRecord, CheckpointError> {
        let record = draw_record(&mut self.master, self.epoch);
        self.store.append_journal(&encode(&record)?)?;
        Ok(record)
    }

    /// Executes a staged epoch and advances the cursor, checkpointing
    /// on the configured cadence.
    pub fn complete_epoch(
        &mut self,
        record: &EpochRecord,
        workload: &impl EpochWorkload,
    ) -> Result<EpochOutcome, CheckpointError> {
        let outcome = execute_epoch(&mut self.robust, record, workload)?;
        self.epoch += 1;
        if self.cfg.checkpoint_every > 0 && self.epoch.is_multiple_of(self.cfg.checkpoint_every) {
            self.checkpoint_now()?;
        }
        Ok(outcome)
    }

    /// Runs one full epoch: journal the inputs (write-ahead), execute,
    /// advance, checkpoint on cadence.
    pub fn run_epoch(
        &mut self,
        workload: &impl EpochWorkload,
    ) -> Result<EpochOutcome, CheckpointError> {
        let record = self.stage_epoch()?;
        self.complete_epoch(&record, workload)
    }

    /// Writes a checkpoint of the current state immediately.
    pub fn checkpoint_now(&mut self) -> Result<(), CheckpointError> {
        let checkpoint = ControllerCheckpoint {
            version: CHECKPOINT_VERSION,
            epoch: self.epoch,
            last_known_good: self.robust.last_known_good().clone(),
            priors: self.robust.priors().to_vec(),
            basis_cache: self.robust.inner.cache.borrow().snapshot(),
            backend: self.robust.inner.backend,
            pricing: self.robust.inner.pricing,
            eta_update: self.robust.inner.eta_update,
            digest: 0,
        }
        .seal()?;
        self.store.save_checkpoint(&encode(&checkpoint)?)?;
        let epoch = self.epoch;
        self.lifecycle.event_with("fleet.checkpoint-written", || format!("epoch={epoch}"));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robust::RetryPolicy;
    use crate::Controller;
    use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
    use prete_core::examples::{triangle, triangle_flows};
    use prete_core::prelude::*;
    use prete_nn::Predictor;
    use prete_optical::DegradationEvent;

    struct OptimistPredictor;
    impl Predictor for OptimistPredictor {
        fn predict_proba(&self, _e: &DegradationEvent) -> f64 {
            0.8
        }
    }

    /// Binds the triangle testbed leaves and a `$mk` closure building a
    /// fresh (genesis) robust controller over them.
    macro_rules! testbed {
        ($mk:ident) => {
            let net = triangle();
            let model = FailureModel::new(&net, 42);
            let flows: Vec<Flow> = triangle_flows()
                .into_iter()
                .map(|f| Flow { demand_gbps: 4.0, ..f })
                .collect();
            let base = TunnelSet::initialize(&net, &flows, 1);
            let truth = TrueConditionals::ground_truth(&net, &model, 50, 1);
            let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
            let predictor = OptimistPredictor;
            let $mk = || {
                RobustController::new(
                    Controller::new(&net, &model, &flows, &base, &predictor, &scheme),
                    // Benders exercises the warm-start cache, so the
                    // checkpoint's cache snapshot genuinely matters for
                    // bit-identity.
                    SolveMethod::benders(),
                    RetryPolicy::default(),
                )
            };
        };
    }

    const CFG: DurableConfig = DurableConfig { run_seed: 7, checkpoint_every: 3 };

    fn fingerprint(o: &EpochOutcome) -> (String, String) {
        o.fingerprint().unwrap()
    }

    #[test]
    fn checkpoint_digest_detects_corruption() {
        let ckpt = ControllerCheckpoint {
            version: CHECKPOINT_VERSION,
            epoch: 5,
            last_known_good: TeSolution {
                allocation: vec![1.0, 2.0],
                max_loss: 0.25,
                delta: vec![vec![0], vec![1]],
                lp_solves: 3,
                benders_iters: 1,
                quality: None,
            },
            priors: vec![0.1, 0.2, 0.3],
            basis_cache: BasisCacheSnapshot::default(),
            backend: SolverBackend::default(),
            pricing: Pricing::default(),
            eta_update: EtaUpdate::default(),
            digest: 0,
        }
        .seal()
        .unwrap();
        assert!(ckpt.verify());
        // Round-trip through JSON keeps the digest valid.
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: ControllerCheckpoint = serde_json::from_str(&json).unwrap();
        assert!(back.verify());
        assert_eq!(back, ckpt);
        // Any field flip invalidates it.
        let tampered = ControllerCheckpoint { epoch: 6, ..ckpt.clone() };
        assert!(!tampered.verify());
        let tampered = ControllerCheckpoint { priors: vec![0.1, 0.2, 0.4], ..ckpt };
        assert!(!tampered.verify());
    }

    #[test]
    fn file_store_round_trips_and_survives_reopen() {
        let dir = std::env::temp_dir()
            .join(format!("prete-filestore-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = FileStore::open(&dir).unwrap();
        assert_eq!(store.load_checkpoint().unwrap(), None);
        assert_eq!(store.journal().unwrap(), Vec::<String>::new());
        store.save_checkpoint("{\"a\":1}").unwrap();
        store.append_journal("r0").unwrap();
        store.append_journal("r1").unwrap();
        store.append_journal("r2").unwrap();
        // Reopen: everything persisted.
        let mut store = FileStore::open(&dir).unwrap();
        assert_eq!(store.load_checkpoint().unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(store.journal().unwrap(), vec!["r0", "r1", "r2"]);
        store.truncate_journal(1).unwrap();
        assert_eq!(store.journal().unwrap(), vec!["r0"]);
        store.save_checkpoint("{\"a\":2}").unwrap();
        assert_eq!(store.load_checkpoint().unwrap().as_deref(), Some("{\"a\":2}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_file_recovers_from_journal() {
        testbed!(mk);
        let w = ScriptedWorkload::new(3);
        let (mut golden, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        let golden_fp: Vec<_> =
            (0..6).map(|_| fingerprint(&golden.run_epoch(&w).unwrap())).collect();

        let dir = std::env::temp_dir()
            .join(format!("prete-truncated-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut durable, _) =
            DurableController::recover(mk(), FileStore::open(&dir).unwrap(), CFG, &w).unwrap();
        for (e, want) in golden_fp.iter().enumerate().take(5) {
            let out = durable.run_epoch(&w).unwrap();
            assert_eq!(&fingerprint(&out), want, "epoch {e} diverged pre-crash");
        }
        drop(durable); // crash: only the files survive

        // Torn write: the checkpoint file is cut mid-byte (the shape a
        // power loss without the fsync-before-rename could leave).
        let path = dir.join("checkpoint.json");
        let blob = std::fs::read(&path).unwrap();
        assert!(blob.len() > 2, "checkpoint must exist to be torn");
        std::fs::write(&path, &blob[..blob.len() / 2]).unwrap();

        let (mut recovered, rec) =
            DurableController::recover(mk(), FileStore::open(&dir).unwrap(), CFG, &w).unwrap();
        assert!(rec.checkpoint_rejected, "half a checkpoint must be rejected");
        assert_eq!(rec.checkpoint_epoch, None);
        assert_eq!(rec.resumed_at, 5);
        assert_eq!(rec.reexecuted.len(), 5, "journal replays from genesis");
        for (i, out) in rec.reexecuted.iter().enumerate() {
            assert_eq!(fingerprint(out), golden_fp[i], "re-executed epoch {i} diverged");
        }
        let out = recovered.run_epoch(&w).unwrap();
        assert_eq!(fingerprint(&out), golden_fp[5]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dyn_workload_references_satisfy_the_bounds() {
        testbed!(mk);
        let boxed: Box<dyn EpochWorkload> = Box::new(ScriptedWorkload::new(3));
        let w: &dyn EpochWorkload = boxed.as_ref();
        let (mut durable, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        let via_dyn = fingerprint(&durable.run_epoch(&w).unwrap());
        // Identical to driving the sized workload directly.
        let sized = ScriptedWorkload::new(3);
        let (mut direct, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &sized).unwrap();
        assert_eq!(via_dyn, fingerprint(&direct.run_epoch(&sized).unwrap()));
    }

    #[test]
    fn recovery_after_crash_is_bit_identical() {
        testbed!(mk);
        let w = ScriptedWorkload::new(3);

        // Golden: 8 uninterrupted epochs.
        let (mut golden, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        let golden_fp: Vec<_> =
            (0..8).map(|_| fingerprint(&golden.run_epoch(&w).unwrap())).collect();

        // Crash after 5 epochs (checkpoint fired at 3).
        let (mut durable, fresh) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        assert_eq!(fresh.resumed_at, 0);
        assert!(fresh.reexecuted.is_empty());
        for e in 0..5 {
            let out = durable.run_epoch(&w).unwrap();
            assert_eq!(fingerprint(&out), golden_fp[e as usize], "epoch {e} diverged pre-crash");
        }
        let store = durable.into_store(); // crash: memory gone, store survives

        // Recover on a freshly built controller.
        let (mut recovered, rec) = DurableController::recover(mk(), store, CFG, &w).unwrap();
        assert_eq!(rec.checkpoint_epoch, Some(3));
        assert!(!rec.checkpoint_rejected);
        assert_eq!(rec.resumed_at, 5);
        assert_eq!(rec.dropped_records, 0);
        // Epochs 3 and 4 re-execute from the journal, byte-identically.
        assert_eq!(rec.reexecuted.len(), 2);
        for (i, out) in rec.reexecuted.iter().enumerate() {
            assert_eq!(fingerprint(out), golden_fp[3 + i], "re-executed epoch {} diverged", 3 + i);
        }
        // Subsequent epochs are byte-identical to the uninterrupted run.
        for e in 5..8 {
            let out = recovered.run_epoch(&w).unwrap();
            assert_eq!(fingerprint(&out), golden_fp[e as usize], "epoch {e} diverged post-crash");
        }
        // The recovery is visible in the lifecycle report.
        let life = recovered.lifecycle_report();
        let root = &life.spans[0];
        assert_eq!(root.name, "recover");
        assert_eq!(root.annotation("recovered_from"), Some("3"));
        assert_eq!(root.annotation("resumed_at"), Some("5"));
    }

    #[test]
    fn crash_between_wal_append_and_execution_reexecutes_the_epoch() {
        testbed!(mk);
        let w = ScriptedWorkload::new(3);
        let (mut golden, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        let golden_fp: Vec<_> =
            (0..7).map(|_| fingerprint(&golden.run_epoch(&w).unwrap())).collect();

        let (mut durable, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        for _ in 0..5 {
            durable.run_epoch(&w).unwrap();
        }
        // The write-ahead append lands, then the process dies mid-solve.
        let staged = durable.stage_epoch().unwrap();
        assert_eq!(staged.epoch, 5);
        let store = durable.into_store();

        let (mut recovered, rec) = DurableController::recover(mk(), store, CFG, &w).unwrap();
        // The staged epoch re-executes: nothing is lost.
        assert_eq!(rec.resumed_at, 6);
        assert_eq!(rec.reexecuted.len(), 3); // epochs 3, 4 and the staged 5
        assert_eq!(fingerprint(&rec.reexecuted[2]), golden_fp[5]);
        let out = recovered.run_epoch(&w).unwrap();
        assert_eq!(fingerprint(&out), golden_fp[6]);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_full_journal_replay() {
        testbed!(mk);
        let w = ScriptedWorkload::new(3);
        let (mut golden, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        let golden_fp: Vec<_> =
            (0..6).map(|_| fingerprint(&golden.run_epoch(&w).unwrap())).collect();

        let (mut durable, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        for _ in 0..5 {
            durable.run_epoch(&w).unwrap();
        }
        let mut store = durable.into_store();
        store.checkpoint = Some("{ this is not a checkpoint".into());

        let (mut recovered, rec) = DurableController::recover(mk(), store, CFG, &w).unwrap();
        assert!(rec.checkpoint_rejected);
        assert_eq!(rec.checkpoint_epoch, None);
        assert_eq!(rec.resumed_at, 5);
        assert_eq!(rec.reexecuted.len(), 5, "genesis replay covers every journaled epoch");
        for (i, out) in rec.reexecuted.iter().enumerate() {
            assert_eq!(fingerprint(out), golden_fp[i]);
        }
        let out = recovered.run_epoch(&w).unwrap();
        assert_eq!(fingerprint(&out), golden_fp[5]);
    }

    #[test]
    fn version_mismatch_rejects_the_checkpoint() {
        testbed!(mk);
        let w = ScriptedWorkload::new(3);
        let (mut durable, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        for _ in 0..4 {
            durable.run_epoch(&w).unwrap();
        }
        let mut store = durable.into_store();
        // Re-seal under a future version: digest is valid, version not.
        let blob = store.checkpoint.clone().unwrap();
        let mut ckpt: ControllerCheckpoint = serde_json::from_str(&blob).unwrap();
        ckpt.version = CHECKPOINT_VERSION + 1;
        let ckpt = ckpt.seal().unwrap();
        store.checkpoint = Some(serde_json::to_string(&ckpt).unwrap());

        let (_, rec) = DurableController::recover(mk(), store, CFG, &w).unwrap();
        assert!(rec.checkpoint_rejected);
        assert_eq!(rec.resumed_at, 4);
    }

    #[test]
    fn stale_journal_tail_resumes_at_the_surviving_record() {
        testbed!(mk);
        let w = ScriptedWorkload::new(3);
        let (mut golden, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        let golden_fp: Vec<_> =
            (0..8).map(|_| fingerprint(&golden.run_epoch(&w).unwrap())).collect();

        let (mut durable, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        for _ in 0..5 {
            durable.run_epoch(&w).unwrap();
        }
        let mut store = durable.into_store();
        // The last journal record is lost (torn write): only 4 survive.
        store.journal.truncate(4);

        let (mut recovered, rec) = DurableController::recover(mk(), store, CFG, &w).unwrap();
        assert_eq!(rec.checkpoint_epoch, Some(3));
        assert_eq!(rec.resumed_at, 4, "resumes at the surviving journal length");
        assert_eq!(rec.reexecuted.len(), 1);
        assert_eq!(fingerprint(&rec.reexecuted[0]), golden_fp[3]);
        // The lost epoch 4 simply happens again — with identical bytes,
        // because its seeds re-derive from the master stream.
        for e in 4..8 {
            let out = recovered.run_epoch(&w).unwrap();
            assert_eq!(fingerprint(&out), golden_fp[e as usize], "epoch {e} diverged");
        }
    }

    #[test]
    fn journal_gap_below_the_checkpoint_is_repaired() {
        testbed!(mk);
        let w = ScriptedWorkload::new(3);
        let (mut golden, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        let golden_fp: Vec<_> =
            (0..5).map(|_| fingerprint(&golden.run_epoch(&w).unwrap())).collect();

        let (mut durable, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        for _ in 0..3 {
            durable.run_epoch(&w).unwrap(); // checkpoint fires at 3
        }
        let mut store = durable.into_store();
        // Journal mangled below the checkpoint: one surviving record
        // plus garbage.
        store.journal.truncate(1);
        store.journal.push("not json".into());

        let (mut recovered, rec) = DurableController::recover(mk(), store, CFG, &w).unwrap();
        assert_eq!(rec.checkpoint_epoch, Some(3));
        assert_eq!(rec.resumed_at, 3, "checkpoint is authoritative");
        assert_eq!(rec.dropped_records, 1);
        assert_eq!(rec.repaired_records, 2);
        assert!(rec.reexecuted.is_empty());
        // The repaired journal is the canonical one, byte for byte.
        let mut probe = StdRng::seed_from_u64(CFG.run_seed);
        for (e, line) in recovered.store_mut().journal.clone().iter().enumerate() {
            let want = draw_record(&mut probe, e as u64);
            assert_eq!(serde_json::from_str::<EpochRecord>(line).unwrap(), want);
        }
        for (e, want) in golden_fp.iter().enumerate().skip(3) {
            let out = recovered.run_epoch(&w).unwrap();
            assert_eq!(&fingerprint(&out), want, "epoch {e} diverged");
        }
    }

    #[test]
    fn checkpoints_fire_on_the_configured_cadence() {
        testbed!(mk);
        let w = ScriptedWorkload::new(3);
        let (mut durable, _) =
            DurableController::recover(mk(), MemStore::default(), CFG, &w).unwrap();
        assert!(durable.store_mut().checkpoint.is_none());
        for _ in 0..2 {
            durable.run_epoch(&w).unwrap();
        }
        assert!(durable.store_mut().checkpoint.is_none(), "before the cadence");
        durable.run_epoch(&w).unwrap();
        let blob = durable.store_mut().checkpoint.clone().expect("cadence hit at epoch 3");
        let ckpt: ControllerCheckpoint = serde_json::from_str(&blob).unwrap();
        assert_eq!(ckpt.epoch, 3);
        assert!(ckpt.verify());
        // The warm cache made it into the checkpoint.
        assert!(
            ckpt.basis_cache.hits + ckpt.basis_cache.misses > 0,
            "Benders solves must touch the warm cache"
        );
    }
}
