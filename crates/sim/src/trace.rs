//! Simulation trace recording and analysis.
//!
//! A [`TraceHandle`] collects time-stamped trace records during a run in
//! an unbounded in-memory buffer. The kernel can contribute low-level
//! scheduling records (opt-in through [`TraceConfig::kernel_records`]);
//! models contribute semantic records — most importantly *spans*
//! (`SpanBegin`/`SpanEnd` on a named track), which the analysis functions
//! turn into execution segments like the simulation traces in Figure 8 of
//! the paper.
//!
//! ## Hot path
//!
//! Track and label names are interned once into `u32` ids ([`TrackId`] /
//! [`LabelId`]); the per-record payload ([`CompactRecord`]) is `Copy` and
//! allocation-free, so recording costs one mutex acquisition and a few
//! stores. [`snapshot`](TraceHandle::snapshot) resolves ids back into the
//! string-based [`Record`] form the analysis functions consume.
//!
//! Export to Chrome/Perfetto JSON lives in the bench crate
//! (`bench::trace`).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::sync::Mutex;

use crate::ids::{EventId, ProcessId};
use crate::time::SimTime;

/// Why a process was suspended (kernel-level record detail).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuspendReason {
    /// Blocked in `wait`/`wait_any`/`wait_timeout`.
    WaitEvent,
    /// Blocked in `waitfor`.
    WaitTime,
    /// Blocked joining `par` children.
    Join,
}

/// Why the RTOS scheduler made a dispatch decision — carried by
/// [`RecordKind::SchedDecision`] so traces *explain* scheduling instead of
/// just showing its effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionReason {
    /// The CPU was idle (or freshly started) and a task became ready.
    Activation,
    /// A higher-priority task displaced the running task at a preemption
    /// point.
    Preemption,
    /// The running task exhausted its round-robin quantum.
    TimesliceExpiry,
    /// The running task yielded voluntarily (`task_sleep`).
    Yield,
    /// The running task blocked on an RTOS event.
    Block,
    /// The running task finished a periodic cycle (`task_endcycle`).
    EndCycle,
    /// The running task terminated.
    Terminate,
    /// A deadline-miss policy removed the running task (`KillTask`).
    MissPolicy,
    /// The running task forked children (`par_start`) and left the CPU.
    ParFork,
}

impl DecisionReason {
    /// Stable lowercase name, used in Chrome-trace output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionReason::Activation => "activation",
            DecisionReason::Preemption => "preemption",
            DecisionReason::TimesliceExpiry => "timeslice_expiry",
            DecisionReason::Yield => "yield",
            DecisionReason::Block => "block",
            DecisionReason::EndCycle => "endcycle",
            DecisionReason::Terminate => "terminate",
            DecisionReason::MissPolicy => "miss_policy",
            DecisionReason::ParFork => "par_fork",
        }
    }
}

impl fmt::Display for DecisionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One kind of trace record (resolved, string-based form).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecordKind {
    /// A process was created (kernel record).
    ProcessSpawned {
        /// New process id.
        pid: ProcessId,
        /// Debug name.
        name: String,
    },
    /// A process received the run token (kernel record).
    ProcessResumed {
        /// Resumed process.
        pid: ProcessId,
    },
    /// A process suspended itself (kernel record).
    ProcessSuspended {
        /// Suspended process.
        pid: ProcessId,
        /// What it is blocked on.
        reason: SuspendReason,
    },
    /// A process finished (kernel record).
    ProcessFinished {
        /// Finished process.
        pid: ProcessId,
    },
    /// An event was notified (kernel record).
    EventNotified {
        /// Notified event.
        event: EventId,
    },
    /// A point annotation on a named track (e.g. "interrupt").
    Marker {
        /// Track (row) the marker belongs to.
        track: String,
        /// Marker label.
        label: String,
    },
    /// Start of an execution segment on a named track.
    SpanBegin {
        /// Track (row) the segment belongs to.
        track: String,
        /// Segment label (e.g. the delay annotation name "d6").
        label: String,
    },
    /// End of the currently open segment on a named track.
    SpanEnd {
        /// Track (row) whose segment closes.
        track: String,
    },
    /// An RTOS scheduler decision: who got the CPU, who lost it, and why.
    SchedDecision {
        /// Decision track, conventionally `"{pe}:sched"`.
        track: String,
        /// Task that received the CPU (`None` if the CPU went idle).
        dispatched: Option<String>,
        /// Task that lost the CPU (`None` if the CPU was idle before).
        displaced: Option<String>,
        /// Why the scheduler acted.
        reason: DecisionReason,
    },
    /// A task started waiting on a contended RTOS mutex — one wait-for
    /// edge (`task` → `owner`) of a potential blocking chain.
    MutexWait {
        /// Mutex track, conventionally `"{pe}:mutex"`.
        track: String,
        /// Task that blocked.
        task: String,
        /// Task holding the mutex at block time.
        owner: String,
        /// Stable mutex id (its kernel event index).
        mutex: u32,
    },
    /// A task acquired an RTOS mutex (outermost acquisition only; recursive
    /// re-entry is not re-recorded).
    MutexAcquired {
        /// Mutex track, conventionally `"{pe}:mutex"`.
        track: String,
        /// New owner.
        task: String,
        /// Stable mutex id (its kernel event index).
        mutex: u32,
    },
    /// A task fully released an RTOS mutex (recursion depth reached zero).
    MutexReleased {
        /// Mutex track, conventionally `"{pe}:mutex"`.
        track: String,
        /// Previous owner.
        task: String,
        /// Stable mutex id (its kernel event index).
        mutex: u32,
    },
    /// A new task release: the start of an activation in the
    /// response-time sense. Emitted when the kernel establishes a release
    /// time — first activation and each periodic re-release — *not* on
    /// requeues after preemption or wakeup. The record's own time is the
    /// bookkeeping moment; `release` is the nominal release, which can be
    /// in the future (sleep until next period) or the past (overrun).
    TaskReleased {
        /// The task's own track (its name).
        track: String,
        /// Task that was released.
        task: String,
        /// Nominal release time of the new activation.
        release: SimTime,
    },
}

impl RecordKind {
    /// Stable lowercase kind name.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            RecordKind::ProcessSpawned { .. } => "process_spawned",
            RecordKind::ProcessResumed { .. } => "process_resumed",
            RecordKind::ProcessSuspended { .. } => "process_suspended",
            RecordKind::ProcessFinished { .. } => "process_finished",
            RecordKind::EventNotified { .. } => "event_notified",
            RecordKind::Marker { .. } => "marker",
            RecordKind::SpanBegin { .. } => "span_begin",
            RecordKind::SpanEnd { .. } => "span_end",
            RecordKind::SchedDecision { .. } => "sched_decision",
            RecordKind::MutexWait { .. } => "mutex_wait",
            RecordKind::MutexAcquired { .. } => "mutex_acquired",
            RecordKind::MutexReleased { .. } => "mutex_released",
            RecordKind::TaskReleased { .. } => "task_released",
        }
    }

    /// The track this record belongs to, for track-addressed kinds
    /// (spans, markers, scheduler decisions, mutex records).
    #[must_use]
    pub fn track(&self) -> Option<&str> {
        match self {
            RecordKind::Marker { track, .. }
            | RecordKind::SpanBegin { track, .. }
            | RecordKind::SpanEnd { track }
            | RecordKind::SchedDecision { track, .. }
            | RecordKind::MutexWait { track, .. }
            | RecordKind::MutexAcquired { track, .. }
            | RecordKind::MutexReleased { track, .. }
            | RecordKind::TaskReleased { track, .. } => Some(track),
            _ => None,
        }
    }
}

/// A time-stamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Simulated time of the record.
    pub time: SimTime,
    /// What happened.
    pub kind: RecordKind,
}

/// Interned track name (index into the handle's [`Interner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(u32);

/// Interned label name (index into the handle's [`Interner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(u32);

impl TrackId {
    /// Raw table index.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl LabelId {
    /// Raw table index.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// String intern table shared by tracks and labels. Interning the same
/// string twice returns the same id; lookup on a hit is allocation-free.
#[derive(Debug, Default)]
pub struct Interner {
    map: HashMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("intern table overflow");
        self.names.push(s.to_string());
        self.map.insert(s.to_string(), id);
        id
    }

    /// Resolves an id back to its string.
    #[must_use]
    pub fn resolve(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Resolves a track id.
    #[must_use]
    pub fn track(&self, id: TrackId) -> &str {
        self.resolve(id.0)
    }

    /// Resolves a label id.
    #[must_use]
    pub fn label(&self, id: LabelId) -> &str {
        self.resolve(id.0)
    }

    /// Number of interned strings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One kind of trace record in interned, `Copy` form — the shape that moves
/// through the hot path and sits in the trace buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompactKind {
    /// See [`RecordKind::ProcessSpawned`].
    ProcessSpawned {
        /// New process id.
        pid: ProcessId,
        /// Interned debug name.
        name: LabelId,
    },
    /// See [`RecordKind::ProcessResumed`].
    ProcessResumed {
        /// Resumed process.
        pid: ProcessId,
    },
    /// See [`RecordKind::ProcessSuspended`].
    ProcessSuspended {
        /// Suspended process.
        pid: ProcessId,
        /// What it is blocked on.
        reason: SuspendReason,
    },
    /// See [`RecordKind::ProcessFinished`].
    ProcessFinished {
        /// Finished process.
        pid: ProcessId,
    },
    /// See [`RecordKind::EventNotified`].
    EventNotified {
        /// Notified event.
        event: EventId,
    },
    /// See [`RecordKind::Marker`].
    Marker {
        /// Interned track.
        track: TrackId,
        /// Interned label.
        label: LabelId,
    },
    /// See [`RecordKind::SpanBegin`].
    SpanBegin {
        /// Interned track.
        track: TrackId,
        /// Interned label.
        label: LabelId,
    },
    /// See [`RecordKind::SpanEnd`].
    SpanEnd {
        /// Interned track.
        track: TrackId,
    },
    /// See [`RecordKind::SchedDecision`].
    SchedDecision {
        /// Interned decision track.
        track: TrackId,
        /// Task that received the CPU.
        dispatched: Option<LabelId>,
        /// Task that lost the CPU.
        displaced: Option<LabelId>,
        /// Why the scheduler acted.
        reason: DecisionReason,
    },
    /// See [`RecordKind::MutexWait`].
    MutexWait {
        /// Interned mutex track.
        track: TrackId,
        /// Task that blocked.
        task: LabelId,
        /// Task holding the mutex.
        owner: LabelId,
        /// Stable mutex id.
        mutex: u32,
    },
    /// See [`RecordKind::MutexAcquired`].
    MutexAcquired {
        /// Interned mutex track.
        track: TrackId,
        /// New owner.
        task: LabelId,
        /// Stable mutex id.
        mutex: u32,
    },
    /// See [`RecordKind::MutexReleased`].
    MutexReleased {
        /// Interned mutex track.
        track: TrackId,
        /// Previous owner.
        task: LabelId,
        /// Stable mutex id.
        mutex: u32,
    },
    /// See [`RecordKind::TaskReleased`].
    TaskReleased {
        /// Interned task track.
        track: TrackId,
        /// Released task.
        task: LabelId,
        /// Nominal release time.
        release: SimTime,
    },
}

/// A time-stamped record in interned form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactRecord {
    /// Simulated time of the record.
    pub time: SimTime,
    /// What happened (interned).
    pub kind: CompactKind,
}

/// Resolves a compact record back into the string-based [`Record`] form.
#[must_use]
pub fn resolve_record(rec: &CompactRecord, interner: &Interner) -> Record {
    let kind = match rec.kind {
        CompactKind::ProcessSpawned { pid, name } => RecordKind::ProcessSpawned {
            pid,
            name: interner.label(name).to_string(),
        },
        CompactKind::ProcessResumed { pid } => RecordKind::ProcessResumed { pid },
        CompactKind::ProcessSuspended { pid, reason } => {
            RecordKind::ProcessSuspended { pid, reason }
        }
        CompactKind::ProcessFinished { pid } => RecordKind::ProcessFinished { pid },
        CompactKind::EventNotified { event } => RecordKind::EventNotified { event },
        CompactKind::Marker { track, label } => RecordKind::Marker {
            track: interner.track(track).to_string(),
            label: interner.label(label).to_string(),
        },
        CompactKind::SpanBegin { track, label } => RecordKind::SpanBegin {
            track: interner.track(track).to_string(),
            label: interner.label(label).to_string(),
        },
        CompactKind::SpanEnd { track } => RecordKind::SpanEnd {
            track: interner.track(track).to_string(),
        },
        CompactKind::SchedDecision {
            track,
            dispatched,
            displaced,
            reason,
        } => RecordKind::SchedDecision {
            track: interner.track(track).to_string(),
            dispatched: dispatched.map(|l| interner.label(l).to_string()),
            displaced: displaced.map(|l| interner.label(l).to_string()),
            reason,
        },
        CompactKind::MutexWait {
            track,
            task,
            owner,
            mutex,
        } => RecordKind::MutexWait {
            track: interner.track(track).to_string(),
            task: interner.label(task).to_string(),
            owner: interner.label(owner).to_string(),
            mutex,
        },
        CompactKind::MutexAcquired { track, task, mutex } => RecordKind::MutexAcquired {
            track: interner.track(track).to_string(),
            task: interner.label(task).to_string(),
            mutex,
        },
        CompactKind::MutexReleased { track, task, mutex } => RecordKind::MutexReleased {
            track: interner.track(track).to_string(),
            task: interner.label(task).to_string(),
            mutex,
        },
        CompactKind::TaskReleased {
            track,
            task,
            release,
        } => RecordKind::TaskReleased {
            track: interner.track(track).to_string(),
            task: interner.label(task).to_string(),
            release,
        },
    };
    Record {
        time: rec.time,
        kind,
    }
}

/// Configuration for
/// [`SimulationBuilder::trace`](crate::SimulationBuilder::trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Also record kernel-level scheduling records (spawn/resume/suspend/
    /// finish/notify). Cheap since interning made records allocation-free,
    /// but still high-volume.
    pub kernel_records: bool,
}

/// Kernel self-metrics, updated unconditionally (and allocation-free) by
/// the discrete-event kernel during every run; exposed via
/// [`Simulation::kernel_stats`](crate::Simulation::kernel_stats) and
/// [`Report::kernel`](crate::Report).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Delta-cycle rounds executed (same-timestamp notification waves).
    pub delta_cycles: u64,
    /// Event notifications delivered to at least the kernel's notify list.
    pub events_notified: u64,
    /// Processes spawned over the run.
    pub processes_spawned: u64,
    /// Run-token handoffs to a process.
    pub processes_resumed: u64,
    /// Process suspensions (wait / waitfor / join).
    pub processes_suspended: u64,
    /// Timed-queue operations (pushes + pops on the timer heap).
    pub timer_ops: u64,
    /// High-water mark of the ready queue depth.
    pub max_ready_depth: u64,
    /// Kernel-level context switches (consecutive resumes of different
    /// processes).
    pub context_switches: u64,
    /// Process spawns served by recycling a parked worker thread from the
    /// process-global pool ([`crate::pool`]) instead of an OS
    /// `thread::spawn`. Always ≤ `processes_spawned`.
    pub threads_recycled: u64,
    /// Host wall-clock time of the run loop.
    pub wall_time: Duration,
}

#[derive(Default)]
struct TraceInner {
    interner: Interner,
    records: Vec<CompactRecord>,
}

/// Shared, clonable handle to an in-memory trace: the records in arrival
/// order plus their intern table.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Arc<Mutex<TraceInner>>,
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("TraceHandle")
            .field("records", &inner.records.len())
            .field("interned", &inner.interner.len())
            .finish()
    }
}

impl TraceHandle {
    /// Creates an empty handle (usually obtained from
    /// [`Simulation::trace_handle`](crate::Simulation::trace_handle) after
    /// configuring tracing through the builder).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a track name, returning a stable id for the handle's
    /// lifetime.
    #[must_use]
    pub fn intern_track(&self, name: &str) -> TrackId {
        TrackId(self.inner.lock().interner.intern(name))
    }

    /// Interns a label, returning a stable id for the handle's lifetime.
    #[must_use]
    pub fn intern_label(&self, name: &str) -> LabelId {
        LabelId(self.inner.lock().interner.intern(name))
    }

    /// Appends a record in interned form — the allocation-free hot path.
    pub fn emit(&self, time: SimTime, kind: CompactKind) {
        self.inner.lock().records.push(CompactRecord { time, kind });
    }

    /// Begins a span with pre-interned ids.
    pub fn span_begin(&self, time: SimTime, track: TrackId, label: LabelId) {
        self.emit(time, CompactKind::SpanBegin { track, label });
    }

    /// Begins a span, interning the label under the same lock (one
    /// acquisition; allocation only on first sight of the label).
    pub fn span_begin_dyn(&self, time: SimTime, track: TrackId, label: &str) {
        let mut inner = self.inner.lock();
        let label = LabelId(inner.interner.intern(label));
        inner.records.push(CompactRecord {
            time,
            kind: CompactKind::SpanBegin { track, label },
        });
    }

    /// Ends the open span on `track`.
    pub fn span_end(&self, time: SimTime, track: TrackId) {
        self.emit(time, CompactKind::SpanEnd { track });
    }

    /// Records a marker with pre-interned ids.
    pub fn marker(&self, time: SimTime, track: TrackId, label: LabelId) {
        self.emit(time, CompactKind::Marker { track, label });
    }

    /// Records a scheduler decision.
    pub fn sched_decision(
        &self,
        time: SimTime,
        track: TrackId,
        dispatched: Option<LabelId>,
        displaced: Option<LabelId>,
        reason: DecisionReason,
    ) {
        self.emit(
            time,
            CompactKind::SchedDecision {
                track,
                dispatched,
                displaced,
                reason,
            },
        );
    }

    /// Records a process spawn, interning the name under the same lock.
    pub fn process_spawned(&self, time: SimTime, pid: ProcessId, name: &str) {
        let mut inner = self.inner.lock();
        let name = LabelId(inner.interner.intern(name));
        inner.records.push(CompactRecord {
            time,
            kind: CompactKind::ProcessSpawned { pid, name },
        });
    }

    /// Appends a record in resolved (string) form, interning as needed.
    /// Convenience path for models; prefer [`emit`](Self::emit) with
    /// pre-interned ids on hot paths.
    pub fn record(&self, time: SimTime, kind: RecordKind) {
        let mut inner = self.inner.lock();
        let compact = match &kind {
            RecordKind::ProcessSpawned { pid, name } => CompactKind::ProcessSpawned {
                pid: *pid,
                name: LabelId(inner.interner.intern(name)),
            },
            RecordKind::ProcessResumed { pid } => CompactKind::ProcessResumed { pid: *pid },
            RecordKind::ProcessSuspended { pid, reason } => CompactKind::ProcessSuspended {
                pid: *pid,
                reason: *reason,
            },
            RecordKind::ProcessFinished { pid } => CompactKind::ProcessFinished { pid: *pid },
            RecordKind::EventNotified { event } => CompactKind::EventNotified { event: *event },
            RecordKind::Marker { track, label } => CompactKind::Marker {
                track: TrackId(inner.interner.intern(track)),
                label: LabelId(inner.interner.intern(label)),
            },
            RecordKind::SpanBegin { track, label } => CompactKind::SpanBegin {
                track: TrackId(inner.interner.intern(track)),
                label: LabelId(inner.interner.intern(label)),
            },
            RecordKind::SpanEnd { track } => CompactKind::SpanEnd {
                track: TrackId(inner.interner.intern(track)),
            },
            RecordKind::SchedDecision {
                track,
                dispatched,
                displaced,
                reason,
            } => CompactKind::SchedDecision {
                track: TrackId(inner.interner.intern(track)),
                dispatched: dispatched
                    .as_deref()
                    .map(|s| LabelId(inner.interner.intern(s))),
                displaced: displaced
                    .as_deref()
                    .map(|s| LabelId(inner.interner.intern(s))),
                reason: *reason,
            },
            RecordKind::MutexWait {
                track,
                task,
                owner,
                mutex,
            } => CompactKind::MutexWait {
                track: TrackId(inner.interner.intern(track)),
                task: LabelId(inner.interner.intern(task)),
                owner: LabelId(inner.interner.intern(owner)),
                mutex: *mutex,
            },
            RecordKind::MutexAcquired { track, task, mutex } => CompactKind::MutexAcquired {
                track: TrackId(inner.interner.intern(track)),
                task: LabelId(inner.interner.intern(task)),
                mutex: *mutex,
            },
            RecordKind::MutexReleased { track, task, mutex } => CompactKind::MutexReleased {
                track: TrackId(inner.interner.intern(track)),
                task: LabelId(inner.interner.intern(task)),
                mutex: *mutex,
            },
            RecordKind::TaskReleased {
                track,
                task,
                release,
            } => CompactKind::TaskReleased {
                track: TrackId(inner.interner.intern(track)),
                task: LabelId(inner.interner.intern(task)),
                release: *release,
            },
        };
        inner.records.push(CompactRecord {
            time,
            kind: compact,
        });
    }

    /// Number of records recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().records.is_empty()
    }

    /// Resolves the records, in arrival order, to the string-based
    /// [`Record`] form.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Record> {
        let inner = self.inner.lock();
        inner
            .records
            .iter()
            .map(|r| resolve_record(r, &inner.interner))
            .collect()
    }
}

/// One contiguous execution segment on a track, produced by
/// [`segments`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Track the segment belongs to.
    pub track: String,
    /// Label given at `SpanBegin`.
    pub label: String,
    /// Segment start time.
    pub start: SimTime,
    /// Segment end time.
    pub end: SimTime,
}

impl Segment {
    /// Length of the segment.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.saturating_since(self.start)
    }

    /// Whether this segment overlaps `other` in time (shared boundary
    /// points do not count as overlap).
    #[must_use]
    pub fn overlaps(&self, other: &Segment) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Extracts execution segments per track from span records.
///
/// Spans still open at the end of the records are closed at the time of the
/// last record. Unmatched `SpanEnd`s are ignored.
///
/// ```
/// use sldl_sim::trace::{segments, RecordKind, TraceHandle};
/// use sldl_sim::SimTime;
///
/// let t = TraceHandle::new();
/// t.record(SimTime::from_micros(0), RecordKind::SpanBegin {
///     track: "task".into(), label: "d1".into() });
/// t.record(SimTime::from_micros(5), RecordKind::SpanEnd { track: "task".into() });
/// let segs = segments(&t.snapshot());
/// assert_eq!(segs["task"].len(), 1);
/// assert_eq!(segs["task"][0].duration().as_micros(), 5);
/// ```
#[must_use]
pub fn segments(records: &[Record]) -> HashMap<String, Vec<Segment>> {
    let mut open: HashMap<String, (String, SimTime)> = HashMap::new();
    let mut out: HashMap<String, Vec<Segment>> = HashMap::new();
    let mut last_time = SimTime::ZERO;
    for r in records {
        last_time = last_time.max(r.time);
        match &r.kind {
            RecordKind::SpanBegin { track, label } => {
                // Implicitly close a dangling open span on the same track.
                if let Some((old_label, start)) = open.remove(track) {
                    out.entry(track.clone()).or_default().push(Segment {
                        track: track.clone(),
                        label: old_label,
                        start,
                        end: r.time,
                    });
                }
                open.insert(track.clone(), (label.clone(), r.time));
            }
            RecordKind::SpanEnd { track } => {
                if let Some((label, start)) = open.remove(track) {
                    out.entry(track.clone()).or_default().push(Segment {
                        track: track.clone(),
                        label,
                        start,
                        end: r.time,
                    });
                }
            }
            _ => {}
        }
    }
    for (track, (label, start)) in open {
        out.entry(track.clone()).or_default().push(Segment {
            track,
            label,
            start,
            end: last_time,
        });
    }
    for segs in out.values_mut() {
        segs.sort_by_key(|s| (s.start, s.end));
    }
    out
}

/// All markers on a given track, as `(time, label)` pairs in time order.
#[must_use]
pub fn markers(records: &[Record], track: &str) -> Vec<(SimTime, String)> {
    let mut out: Vec<(SimTime, String)> = records
        .iter()
        .filter_map(|r| match &r.kind {
            RecordKind::Marker { track: t, label } if t == track => Some((r.time, label.clone())),
            _ => None,
        })
        .collect();
    out.sort_by_key(|(t, _)| *t);
    out
}

/// Total simulated time during which any segment of track `a` overlaps any
/// segment of track `b`. Nonzero overlap between two tasks proves truly
/// parallel execution (paper Fig. 8(a)); an RTOS-scheduled model must show
/// zero overlap (Fig. 8(b)).
#[must_use]
pub fn overlap(a: &[Segment], b: &[Segment]) -> Duration {
    let mut total = Duration::ZERO;
    for x in a {
        for y in b {
            if x.overlaps(y) {
                let start = x.start.max(y.start);
                let end = x.end.min(y.end);
                total += end.saturating_since(start);
            }
        }
    }
    total
}

/// Renders tracks of segments as an ASCII Gantt chart (one row per track),
/// `width` characters across the `[start, end]` window. Used by the
/// Figure 8 reproduction binary. Segments are filled with the first
/// character of their label when it is printable ASCII, `#` otherwise.
#[must_use]
pub fn render_gantt(
    tracks: &[(&str, &[Segment])],
    start: SimTime,
    end: SimTime,
    width: usize,
) -> String {
    assert!(end > start, "empty time window");
    assert!(width >= 10, "width too small to render");
    let span_ns = (end - start).as_nanos() as f64;
    let name_w = tracks
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0)
        .max(4);
    let mut out = String::new();
    for (name, segs) in tracks {
        let mut row = vec![b'.'; width];
        for s in segs.iter() {
            if s.end <= start || s.start >= end {
                continue;
            }
            let a =
                ((s.start.max(start) - start).as_nanos() as f64 / span_ns * width as f64) as usize;
            let b = ((s.end.min(end) - start).as_nanos() as f64 / span_ns * width as f64).ceil()
                as usize;
            let b = b.clamp(a + 1, width);
            // Multi-byte first characters (non-ASCII labels) fall back to
            // '#' so the row stays valid single-byte ASCII.
            let fill = s
                .label
                .chars()
                .next()
                .filter(char::is_ascii_graphic)
                .map(|c| c as u8)
                .unwrap_or(b'#');
            for c in &mut row[a..b] {
                *c = fill;
            }
        }
        out.push_str(&format!(
            "{name:>name_w$} |{}|\n",
            String::from_utf8(row).expect("ascii fill")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: &str, label: &str, start_us: u64, end_us: u64) -> Segment {
        Segment {
            track: track.into(),
            label: label.into(),
            start: SimTime::from_micros(start_us),
            end: SimTime::from_micros(end_us),
        }
    }

    #[test]
    fn segments_pairs_begin_end() {
        let t = TraceHandle::new();
        t.record(
            SimTime::from_micros(1),
            RecordKind::SpanBegin {
                track: "a".into(),
                label: "x".into(),
            },
        );
        t.record(
            SimTime::from_micros(4),
            RecordKind::SpanEnd { track: "a".into() },
        );
        t.record(
            SimTime::from_micros(6),
            RecordKind::SpanBegin {
                track: "a".into(),
                label: "y".into(),
            },
        );
        t.record(
            SimTime::from_micros(9),
            RecordKind::SpanEnd { track: "a".into() },
        );
        let segs = segments(&t.snapshot());
        assert_eq!(segs["a"].len(), 2);
        assert_eq!(segs["a"][0].label, "x");
        assert_eq!(segs["a"][1].label, "y");
        assert_eq!(segs["a"][1].duration(), Duration::from_micros(3));
    }

    #[test]
    fn open_span_closed_at_last_record() {
        let t = TraceHandle::new();
        t.record(
            SimTime::from_micros(2),
            RecordKind::SpanBegin {
                track: "a".into(),
                label: "x".into(),
            },
        );
        t.record(
            SimTime::from_micros(7),
            RecordKind::Marker {
                track: "m".into(),
                label: "end".into(),
            },
        );
        let segs = segments(&t.snapshot());
        assert_eq!(segs["a"][0].end, SimTime::from_micros(7));
    }

    #[test]
    fn begin_begin_closes_implicitly() {
        let t = TraceHandle::new();
        t.record(
            SimTime::from_micros(0),
            RecordKind::SpanBegin {
                track: "a".into(),
                label: "x".into(),
            },
        );
        t.record(
            SimTime::from_micros(3),
            RecordKind::SpanBegin {
                track: "a".into(),
                label: "y".into(),
            },
        );
        t.record(
            SimTime::from_micros(5),
            RecordKind::SpanEnd { track: "a".into() },
        );
        let segs = segments(&t.snapshot());
        assert_eq!(segs["a"].len(), 2);
        assert_eq!(segs["a"][0].end, SimTime::from_micros(3));
    }

    #[test]
    fn overlap_measures_shared_time() {
        let a = [span("a", "x", 0, 10)];
        let b = [span("b", "y", 5, 15)];
        assert_eq!(overlap(&a, &b), Duration::from_micros(5));
        let c = [span("c", "z", 10, 20)];
        assert_eq!(overlap(&a, &c), Duration::ZERO);
    }

    #[test]
    fn markers_filters_and_sorts() {
        let t = TraceHandle::new();
        t.record(
            SimTime::from_micros(9),
            RecordKind::Marker {
                track: "irq".into(),
                label: "late".into(),
            },
        );
        t.record(
            SimTime::from_micros(2),
            RecordKind::Marker {
                track: "irq".into(),
                label: "early".into(),
            },
        );
        t.record(
            SimTime::from_micros(5),
            RecordKind::Marker {
                track: "other".into(),
                label: "skip".into(),
            },
        );
        let ms = markers(&t.snapshot(), "irq");
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].1, "early");
        assert_eq!(ms[1].1, "late");
    }

    #[test]
    fn gantt_renders_rows() {
        let a = [span("taskA", "d", 0, 50)];
        let b = [span("taskB", "e", 50, 100)];
        let g = render_gantt(
            &[("taskA", &a), ("taskB", &b)],
            SimTime::ZERO,
            SimTime::from_micros(100),
            20,
        );
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("taskA |dddddddddd..........|"));
        assert!(lines[1].contains("taskB |..........eeeeeeeeee|"));
    }

    #[test]
    fn gantt_non_ascii_label_falls_back_to_hash() {
        // Regression: `label.bytes().next()` used to take the first *byte*
        // of a multi-byte char, producing invalid UTF-8 and panicking in
        // `from_utf8`.
        let a = [span("t", "λ-stage", 0, 100)];
        let g = render_gantt(&[("t", &a)], SimTime::ZERO, SimTime::from_micros(100), 10);
        assert!(g.contains("t |##########|"), "got: {g}");
        // Empty labels also fall back.
        let b = [span("t", "", 0, 100)];
        let g = render_gantt(&[("t", &b)], SimTime::ZERO, SimTime::from_micros(100), 10);
        assert!(g.contains("t |##########|"), "got: {g}");
    }

    /// Records `recs` through a fresh handle's string path and returns the
    /// resolved snapshot.
    fn round_trip(recs: &[Record]) -> Vec<Record> {
        let t = TraceHandle::new();
        for r in recs {
            t.record(r.time, r.kind.clone());
        }
        t.snapshot()
    }

    #[test]
    fn records_round_trip_fields() {
        let recs = vec![
            Record {
                time: SimTime::from_micros(1),
                kind: RecordKind::SpanBegin {
                    track: "taskA".into(),
                    label: "d1".into(),
                },
            },
            Record {
                time: SimTime::from_micros(2),
                kind: RecordKind::SpanEnd {
                    track: "taskA".into(),
                },
            },
            Record {
                time: SimTime::from_micros(3),
                kind: RecordKind::Marker {
                    track: "irq".into(),
                    label: "fire".into(),
                },
            },
        ];
        assert_eq!(round_trip(&recs), recs);
    }

    #[test]
    fn sched_decisions_round_trip() {
        let recs = vec![Record {
            time: SimTime::from_micros(5),
            kind: RecordKind::SchedDecision {
                track: "dsp:sched".into(),
                dispatched: Some("enc".into()),
                displaced: Some("dec".into()),
                reason: DecisionReason::Preemption,
            },
        }];
        assert_eq!(round_trip(&recs), recs);
        assert_eq!(DecisionReason::Preemption.as_str(), "preemption");
    }

    #[test]
    fn mutex_records_round_trip() {
        let recs = vec![
            Record {
                time: SimTime::from_micros(1),
                kind: RecordKind::MutexWait {
                    track: "dsp:mutex".into(),
                    task: "enc".into(),
                    owner: "dec".into(),
                    mutex: 7,
                },
            },
            Record {
                time: SimTime::from_micros(2),
                kind: RecordKind::MutexAcquired {
                    track: "dsp:mutex".into(),
                    task: "enc".into(),
                    mutex: 7,
                },
            },
            Record {
                time: SimTime::from_micros(3),
                kind: RecordKind::MutexReleased {
                    track: "dsp:mutex".into(),
                    task: "enc".into(),
                    mutex: 7,
                },
            },
        ];
        assert_eq!(round_trip(&recs), recs);
        for (r, want) in recs
            .iter()
            .zip(["mutex_wait", "mutex_acquired", "mutex_released"])
        {
            assert_eq!(r.kind.kind_name(), want);
            assert_eq!(r.kind.track(), Some("dsp:mutex"));
        }
    }

    #[test]
    fn handle_len_and_empty() {
        let t = TraceHandle::new();
        assert!(t.is_empty());
        t.record(SimTime::ZERO, RecordKind::SpanEnd { track: "a".into() });
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn interning_is_stable_and_shared() {
        let t = TraceHandle::new();
        let a1 = t.intern_track("taskA");
        let a2 = t.intern_track("taskA");
        assert_eq!(a1, a2);
        let l = t.intern_label("d1");
        t.span_begin(SimTime::from_micros(1), a1, l);
        t.span_end(SimTime::from_micros(4), a1);
        let snap = t.snapshot();
        assert_eq!(
            snap[0].kind,
            RecordKind::SpanBegin {
                track: "taskA".into(),
                label: "d1".into()
            }
        );
        assert_eq!(
            snap[1].kind,
            RecordKind::SpanEnd {
                track: "taskA".into()
            }
        );
    }

    #[test]
    fn compact_records_are_copy_and_small() {
        // The hot-path payload must stay `Copy` (compile-time check) and
        // reasonably small.
        fn assert_copy<T: Copy>() {}
        assert_copy::<CompactRecord>();
        assert!(std::mem::size_of::<CompactRecord>() <= 40);
    }
}
