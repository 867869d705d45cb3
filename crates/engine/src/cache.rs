//! Content-addressed compilation cache: bounded LRU memory tier, optional
//! persistent disk tier, single-flight miss coalescing, all behind one
//! entry point, [`CompileCache::get_or_compute`].
//!
//! Keys are canonical 64-bit FNV-1a fingerprints of the complete request:
//! the Pauli IR (operator words, weights, parameters), the pipeline
//! configuration (pass signature sequence), and the target (device edges
//! and noise figures). Identical requests — repeated Trotter steps,
//! re-compiled suite benchmarks — are served from memory and counted.
//!
//! Serving-tier behavior:
//!
//! * **Bounded.** The memory tier is a recency-ordered map (a tick → key
//!   index whose first tick is the least recently used entry) with optional
//!   entry-count and approximate-byte budgets ([`CacheConfig`]); evictions
//!   are counted in [`CacheStats`] and the resident footprint never exceeds
//!   the budget.
//! * **Persistent.** With [`CacheConfig::disk_dir`] set, every compiled
//!   entry is also written to `<dir>/<key:016x>.phc` (atomically, via a
//!   temp file + rename) and memory misses are filled from disk. Keys are
//!   process-stable, so a cache directory is shared across runs and across
//!   machines of the same endianness-independent encoding. Corrupt or
//!   partial files are treated as misses, never as errors.
//! * **Single-flight.** Concurrent requests for one key compile it once:
//!   followers block on the leader's in-flight compilation and share the
//!   resulting `Arc` ([`CacheStats::coalesced`] counts the waits).
//! * **Degrading.** The disk tier is an accelerator, not a store of
//!   record: after [`CacheConfig::disk_error_threshold`] *consecutive*
//!   real I/O errors (injected or organic — `NotFound` and corrupt files
//!   don't count) the cache flips to memory-only
//!   ([`CacheStats::disk_disabled`], `cache.disk_disabled` telemetry
//!   instant) and re-probes the tier every
//!   [`CacheConfig::disk_reprobe`], healing automatically when the disk
//!   recovers (`cache.disk_recovered`).

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use paulihedral::ir::PauliIR;
use paulihedral::Compiled;
use ph_telemetry::Telemetry;

use crate::fault::{DiskReadFault, DiskWriteFault, Fault};
use crate::persist;
use crate::report::CompileReport;

/// Streaming 64-bit FNV-1a hasher.
///
/// Deliberately *not* `std::hash::DefaultHasher`: FNV-1a is specified, so
/// keys are stable across processes and Rust releases — the property the
/// disk tier relies on to share entries across runs.
#[derive(Clone, Debug)]
pub struct Fingerprint(u64);

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fingerprint {
        Fingerprint(Self::OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize` (widened to `u64` for cross-platform stability).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` by bit pattern (distinguishes `-0.0` from `0.0`;
    /// canonical for every value a compilation request can contain).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated 64-bit key.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// Feeds a canonical encoding of the IR into the fingerprint: qubit count,
/// block structure, operator words, weights, and parameters.
pub fn fingerprint_ir(ir: &PauliIR, h: &mut Fingerprint) {
    h.write_usize(ir.num_qubits());
    h.write_usize(ir.num_blocks());
    for block in ir.blocks() {
        h.write_usize(block.terms.len());
        for term in &block.terms {
            for &w in term.string.x_words() {
                h.write_u64(w);
            }
            for &w in term.string.z_words() {
                h.write_u64(w);
            }
            h.write_f64(term.weight);
        }
        match &block.parameter.name {
            Some(name) => h.write_str(name),
            None => h.write_str(""),
        }
        h.write_f64(block.parameter.value);
    }
}

/// What one cache entry stores: the compiled artifact plus the report of
/// the compilation that produced it.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// The compiled artifact (shared, never copied out).
    pub compiled: Arc<Compiled>,
    /// The per-pass report of the original compilation.
    pub report: CompileReport,
}

impl CacheEntry {
    /// Approximate resident size of this entry in bytes, charged against
    /// [`CacheConfig::max_bytes`]. Counts the dominant heap blocks (gate
    /// list, emitted strings, layouts, per-pass records); allocator
    /// overhead is ignored.
    pub fn approx_bytes(&self) -> usize {
        let c = &self.compiled;
        let mut bytes = std::mem::size_of::<CacheEntry>() + std::mem::size_of::<Compiled>();
        bytes += c.circuit.len() * std::mem::size_of::<qcircuit::Gate>();
        for (s, _theta) in &c.emitted {
            // Two bit planes plus the (string, f64) tuple shell.
            bytes += 16 * s.x_words().len() + 24;
        }
        for l2p in [&c.initial_l2p, &c.final_l2p].into_iter().flatten() {
            bytes += l2p.len() * std::mem::size_of::<usize>();
        }
        for p in &self.report.passes {
            bytes += std::mem::size_of_val(p) + p.name.len() + p.note.len();
        }
        bytes
    }
}

/// Memory- and disk-tier configuration of a [`CompileCache`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Maximum number of entries resident in memory (`None` = unbounded).
    pub max_entries: Option<usize>,
    /// Approximate memory-tier byte budget (`None` = unbounded). An entry
    /// larger than the whole budget is never admitted, so the resident
    /// footprint stays within the budget instead of thrashing to zero.
    pub max_bytes: Option<usize>,
    /// Directory of the persistent tier (`None` = memory only). Created on
    /// first write; shared between processes.
    pub disk_dir: Option<PathBuf>,
    /// Consecutive disk I/O errors before the disk tier is disabled and
    /// the cache degrades to memory-only. `NotFound` reads and corrupt
    /// files are misses, not errors, and never trip this.
    pub disk_error_threshold: u32,
    /// How often a disabled disk tier lets one operation through as a
    /// health probe; a probe that succeeds re-enables the tier.
    pub disk_reprobe: Duration,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            max_entries: None,
            max_bytes: None,
            disk_dir: None,
            disk_error_threshold: 3,
            disk_reprobe: Duration::from_secs(5),
        }
    }
}

/// Cache effectiveness counters, exposed through
/// [`crate::Engine::cache_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the memory tier.
    pub hits: u64,
    /// Requests that had to compile.
    pub misses: u64,
    /// Memory misses served from the disk tier.
    pub disk_hits: u64,
    /// Requests that waited on another worker's in-flight compilation of
    /// the same key instead of compiling it again.
    pub coalesced: u64,
    /// Entries evicted from the memory tier to stay within budget.
    pub evictions: u64,
    /// Orphaned `*.tmp` files swept from the disk tier when the cache
    /// opened (left behind by writers that crashed between temp-file
    /// creation and the atomic rename).
    pub tmp_swept: u64,
    /// Real disk-tier I/O errors observed (`NotFound` and corrupt files
    /// excluded — those are misses).
    pub disk_errors: u64,
    /// Times a disabled disk tier healed after a successful re-probe.
    pub disk_heals: u64,
    /// `true` while the disk tier is disabled after
    /// [`CacheConfig::disk_error_threshold`] consecutive I/O errors (the
    /// cache is serving memory-only and re-probing periodically).
    pub disk_disabled: bool,
    /// Entries currently resident in memory.
    pub entries: usize,
    /// Approximate bytes currently resident in memory.
    pub resident_bytes: usize,
}

/// How [`CompileCache::get_or_compute`] satisfied a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the memory tier.
    MemoryHit,
    /// Served from the disk tier (and promoted to memory).
    DiskHit,
    /// Waited for another worker's in-flight compilation of the same key.
    Coalesced,
    /// Compiled by this request.
    Compiled,
}

/// A poison-tolerant lock: a worker that panicked while holding the lock
/// never wrote a half-updated state (the critical sections below only
/// swap complete values), so later jobs recover the guard instead of
/// propagating the panic forever.
pub(crate) fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A poison-tolerant [`Condvar::wait_while`]: blocks while `blocked`
/// holds, recovering the guard from poisoning as [`relock`] does.
pub(crate) fn rewait<'a, T>(
    cv: &Condvar,
    mut guard: MutexGuard<'a, T>,
    mut blocked: impl FnMut(&mut T) -> bool,
) -> MutexGuard<'a, T> {
    while blocked(&mut guard) {
        guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
    }
    guard
}

/// One memory-tier slot: the entry, its charged cost, and its recency
/// tick (its key in [`Lru::order`]).
#[derive(Debug)]
struct Slot {
    entry: CacheEntry,
    cost: usize,
    tick: u64,
}

/// The memory tier: slots by key plus a recency index from tick to key.
/// Every touch or insert gives its key a fresh tick, so the first tick
/// in `order` is always the least recently used key.
#[derive(Debug, Default)]
struct Lru {
    slots: HashMap<u64, Slot>,
    order: BTreeMap<u64, u64>,
    clock: u64,
    bytes: usize,
}

impl Lru {
    /// Gets and marks the entry as most recently used.
    fn touch(&mut self, key: u64) -> Option<CacheEntry> {
        let slot = self.slots.get_mut(&key)?;
        self.order.remove(&slot.tick);
        self.clock += 1;
        slot.tick = self.clock;
        self.order.insert(self.clock, key);
        Some(slot.entry.clone())
    }

    /// Inserts (or replaces) an entry as most recently used.
    fn insert(&mut self, key: u64, entry: CacheEntry, cost: usize) {
        self.clock += 1;
        self.order.insert(self.clock, key);
        self.bytes += cost;
        let tick = self.clock;
        if let Some(old) = self.slots.insert(key, Slot { entry, cost, tick }) {
            self.order.remove(&old.tick);
            self.bytes -= old.cost;
        }
    }

    /// Evicts the least recently used entry; `false` when empty.
    fn pop_lru(&mut self) -> bool {
        let Some((_, key)) = self.order.pop_first() else {
            return false;
        };
        if let Some(slot) = self.slots.remove(&key) {
            self.bytes -= slot.cost;
        }
        true
    }
}

/// One in-flight compilation other workers can wait on.
#[derive(Debug)]
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

#[derive(Debug)]
enum FlightState {
    Pending,
    Done(CacheEntry),
    /// The leader's compilation returned an error (or panicked): waiters
    /// retry — and become the new leader — instead of sharing a failure
    /// that may have been request-specific.
    Failed,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }
}

/// Publishes `Failed` if the leader unwinds before publishing a result, so
/// coalesced waiters never hang on a panicked compilation.
struct FlightGuard<'a> {
    cache: &'a CompileCache,
    key: u64,
    flight: Arc<Flight>,
    published: bool,
}

impl FlightGuard<'_> {
    fn publish(&mut self, state: FlightState) {
        self.published = true;
        relock(&self.cache.inflight).remove(&self.key);
        *relock(&self.flight.state) = state;
        self.flight.done.notify_all();
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.publish(FlightState::Failed);
        }
    }
}

/// Disk-tier health: the current run of consecutive real I/O errors and,
/// while the tier is disabled, the earliest instant of its next health
/// probe (`probe_at.is_some()` *is* the disabled state).
#[derive(Debug, Default)]
struct DiskHealth {
    streak: u32,
    probe_at: Option<Instant>,
}

/// A thread-safe, content-addressed map from request fingerprints to
/// compiled artifacts: bounded LRU in memory, optionally persistent on
/// disk, with single-flight miss coalescing.
#[derive(Debug, Default)]
pub struct CompileCache {
    config: CacheConfig,
    entries: Mutex<Lru>,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    tmp_swept: u64,
    disk_errors: AtomicU64,
    disk_heals: AtomicU64,
    health: Mutex<DiskHealth>,
    tmp_sweep_reported: bool,
    telemetry: Telemetry,
    fault: Fault,
}

impl CompileCache {
    /// An empty, unbounded, memory-only cache.
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// An empty cache with the given bounds and disk tier. Opening a disk
    /// tier sweeps orphaned `*.tmp` files (a writer that crashed between
    /// temp-file creation and the atomic rename would otherwise leak them
    /// forever); [`CacheStats::tmp_swept`] counts the removals.
    pub fn with_config(config: CacheConfig) -> CompileCache {
        CompileCache {
            tmp_swept: config.disk_dir.as_deref().map_or(0, sweep_tmp),
            config,
            ..CompileCache::default()
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Attaches a telemetry handle: every counter bump also emits a
    /// same-named trace event (`cache.hit`, `cache.miss`,
    /// `cache.disk_read`, `cache.disk_write`, `cache.eviction`,
    /// `cache.coalesce`), so trace event counts always equal
    /// [`CacheStats`] counters, and waits on the entries lock feed the
    /// `cache.lock_wait_ns` histogram.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        // The open-time tmp sweep ran before any handle was attached;
        // report it now, exactly once even if re-attached.
        if self.tmp_swept > 0 && self.telemetry.is_enabled() && !self.tmp_sweep_reported {
            self.tmp_sweep_reported = true;
            self.telemetry
                .mark("cache.tmp_sweep", &[("files", self.tmp_swept.into())]);
        }
    }

    /// Attaches a fault-injection handle (disk reads/writes consult it).
    /// The default [`Fault::disabled`] handle costs one `Option` check.
    pub fn set_fault(&mut self, fault: Fault) {
        self.fault = fault;
    }

    /// Whether the disk tier may be touched right now: yes while healthy;
    /// while disabled, yes for exactly one operation per
    /// [`CacheConfig::disk_reprobe`] window (that operation *is* the
    /// health probe — its success heals the tier, its failure pushes the
    /// next probe out another window).
    fn disk_gate(&self) -> bool {
        let mut health = relock(&self.health);
        let Some(probe_at) = health.probe_at else {
            return true;
        };
        let now = Instant::now();
        if now < probe_at {
            return false;
        }
        health.probe_at = Some(now + self.config.disk_reprobe);
        true
    }

    /// Records a successful disk operation: resets the error streak and
    /// heals a disabled tier.
    fn disk_ok(&self) {
        let mut health = relock(&self.health);
        health.streak = 0;
        if health.probe_at.take().is_some() {
            drop(health);
            self.disk_heals.fetch_add(1, Ordering::Relaxed);
            self.telemetry.mark("cache.disk_recovered", &[]);
        }
    }

    /// Records a real disk I/O error; at
    /// [`CacheConfig::disk_error_threshold`] consecutive errors the tier
    /// is disabled and the cache degrades to memory-only.
    fn disk_error(&self) {
        self.disk_errors.fetch_add(1, Ordering::Relaxed);
        self.telemetry.mark("cache.disk_error", &[]);
        let mut health = relock(&self.health);
        health.streak = health.streak.saturating_add(1);
        if health.probe_at.is_some() || health.streak < self.config.disk_error_threshold {
            return;
        }
        health.probe_at = Some(Instant::now() + self.config.disk_reprobe);
        let streak = u64::from(health.streak);
        drop(health);
        self.telemetry.mark(
            "cache.disk_disabled",
            &[("consecutive_errors", streak.into())],
        );
    }

    /// Locks the memory tier, recording how long the lock was contended.
    fn lock_entries(&self) -> MutexGuard<'_, Lru> {
        if self.telemetry.is_enabled() {
            let t0 = Instant::now();
            let guard = relock(&self.entries);
            self.telemetry
                .record_duration("cache.lock_wait_ns", t0.elapsed());
            guard
        } else {
            relock(&self.entries)
        }
    }

    /// The disk-tier path of a key.
    fn disk_path(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{key:016x}.phc"))
    }

    /// Probes both tiers and counts the hit in the tier that answered. A
    /// disk hit is promoted into the memory tier.
    fn probe(&self, key: u64) -> Option<(CacheEntry, CacheOutcome)> {
        let resident = self.lock_entries().touch(key);
        if let Some(entry) = resident {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.telemetry.mark("cache.hit", &[]);
            return Some((entry, CacheOutcome::MemoryHit));
        }
        let dir = self.config.disk_dir.as_deref()?;
        if !self.disk_gate() {
            return None;
        }
        let t0 = Instant::now();
        let path = Self::disk_path(dir, key);
        let read = match self.fault.disk_read() {
            DiskReadFault::Error(kind) => Err(std::io::Error::from(kind)),
            DiskReadFault::BitFlip => std::fs::read(&path).map(|mut b| {
                self.fault.corrupt(&mut b);
                b
            }),
            DiskReadFault::None => std::fs::read(&path),
        };
        let bytes = match read {
            Ok(b) => {
                self.disk_ok();
                b
            }
            // A missing file is a healthy miss — the tier answered.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.disk_ok();
                return None;
            }
            Err(_) => {
                self.disk_error();
                return None;
            }
        };
        // Corrupt, truncated, or foreign files are misses, not errors.
        let entry = persist::decode_entry(&bytes).ok()?;
        self.telemetry.mark(
            "cache.disk_read",
            &[
                ("bytes", bytes.len().into()),
                (
                    "read_us",
                    u64::try_from(t0.elapsed().as_micros())
                        .unwrap_or(u64::MAX)
                        .into(),
                ),
            ],
        );
        self.admit(key, entry.clone());
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        Some((entry, CacheOutcome::DiskHit))
    }

    /// Inserts into the memory tier, evicting LRU entries until the
    /// configured budgets hold again.
    fn admit(&self, key: u64, entry: CacheEntry) {
        let cost = entry.approx_bytes();
        if self.config.max_bytes.is_some_and(|budget| cost > budget) {
            // Admitting would force the tier to exceed its budget or hold
            // nothing else; serve this entry un-cached instead.
            return;
        }
        let mut evicted = 0;
        let (entries, resident_bytes) = {
            let mut lru = self.lock_entries();
            lru.insert(key, entry, cost);
            let over = |lru: &Lru| {
                self.config.max_entries.is_some_and(|m| lru.slots.len() > m)
                    || self.config.max_bytes.is_some_and(|m| lru.bytes > m)
            };
            while over(&lru) && lru.pop_lru() {
                evicted += 1;
            }
            (lru.slots.len(), lru.bytes)
        };
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        for _ in 0..evicted {
            self.telemetry.mark("cache.eviction", &[]);
        }
        self.telemetry.gauge("cache.entries", entries as f64);
        self.telemetry
            .gauge("cache.resident_bytes", resident_bytes as f64);
    }

    /// Best-effort write-back to the disk tier (atomic via temp + rename;
    /// IO failures never fail the request — the cache is an accelerator,
    /// not a store of record — but they do feed the disk-health streak).
    fn write_back(&self, key: u64, entry: &CacheEntry) {
        let Some(dir) = self.config.disk_dir.as_deref() else {
            return;
        };
        if !self.disk_gate() {
            return;
        }
        if std::fs::create_dir_all(dir).is_err() {
            self.disk_error();
            return;
        }
        // Overwrite unconditionally: write-back only runs after both tiers
        // missed, so an existing file is either corrupt (heal it) or a
        // concurrent writer's identical bytes (rename keeps it atomic).
        let path = Self::disk_path(dir, key);
        let bytes = persist::encode_entry(entry);
        let tmp = dir.join(format!("{key:016x}.{}.tmp", std::process::id()));
        let t0 = Instant::now();
        let written = match self.fault.disk_write() {
            DiskWriteFault::Error(kind) => Err(std::io::Error::from(kind)),
            // A torn write that still renames into place: the trailing
            // checksum turns it into a miss on the next read.
            DiskWriteFault::Short => std::fs::write(&tmp, &bytes[..bytes.len() / 2]),
            DiskWriteFault::None => std::fs::write(&tmp, &bytes),
        };
        match written {
            Ok(()) => {
                if std::fs::rename(&tmp, &path).is_ok() {
                    self.disk_ok();
                } else {
                    let _ = std::fs::remove_file(&tmp);
                    self.disk_error();
                }
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
                self.disk_error();
            }
        }
        self.telemetry.mark(
            "cache.disk_write",
            &[
                ("bytes", bytes.len().into()),
                (
                    "write_us",
                    u64::try_from(t0.elapsed().as_micros())
                        .unwrap_or(u64::MAX)
                        .into(),
                ),
            ],
        );
    }

    /// Returns the cached entry for `key`, computing (and caching) it with
    /// `compute` on a miss — the cache's one entry point. Concurrent calls
    /// for the same key run `compute` exactly once: one caller leads, the
    /// rest block until the leader publishes and then share its `Arc`. If
    /// the leader fails or panics, one waiter takes over and retries.
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<CacheEntry, E>,
    ) -> Result<(CacheEntry, CacheOutcome), E> {
        loop {
            if let Some(hit) = self.probe(key) {
                return Ok(hit);
            }

            let (flight, leader) = {
                let mut inflight = relock(&self.inflight);
                match inflight.get(&key) {
                    Some(f) => (Arc::clone(f), false),
                    None => {
                        let f = Arc::new(Flight::new());
                        inflight.insert(key, Arc::clone(&f));
                        (f, true)
                    }
                }
            };

            if !leader {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                self.telemetry.mark("cache.coalesce", &[]);
                let state = rewait(&flight.done, relock(&flight.state), |s| {
                    matches!(s, FlightState::Pending)
                });
                match &*state {
                    FlightState::Done(entry) => {
                        return Ok((entry.clone(), CacheOutcome::Coalesced))
                    }
                    // Leader failed — retry (and likely lead) from the top.
                    _ => continue,
                }
            }

            let mut guard = FlightGuard {
                cache: self,
                key,
                flight,
                published: false,
            };
            // Double-check under leadership: a previous leader may have
            // published between our probe and our registration.
            if let Some((entry, outcome)) = self.probe(key) {
                guard.publish(FlightState::Done(entry.clone()));
                return Ok((entry, outcome));
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.telemetry.mark("cache.miss", &[]);
            return match compute() {
                Ok(entry) => {
                    self.write_back(key, &entry);
                    self.admit(key, entry.clone());
                    guard.publish(FlightState::Done(entry.clone()));
                    Ok((entry, CacheOutcome::Compiled))
                }
                Err(e) => {
                    guard.publish(FlightState::Failed);
                    Err(e)
                }
            };
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let (entries, resident_bytes) = {
            let lru = self.lock_entries();
            (lru.slots.len(), lru.bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            tmp_swept: self.tmp_swept,
            disk_errors: self.disk_errors.load(Ordering::Relaxed),
            disk_heals: self.disk_heals.load(Ordering::Relaxed),
            disk_disabled: relock(&self.health).probe_at.is_some(),
            entries,
            resident_bytes,
        }
    }
}

/// Removes every `*.tmp` file in a disk-tier directory and returns how
/// many went. Only called at open: a tmp file observable then belongs to a
/// dead writer (or to a live one whose best-effort write-back harmlessly
/// degrades to a dropped cache fill when its rename fails).
fn sweep_tmp(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") && std::fs::remove_file(&path).is_ok() {
            swept += 1;
        }
    }
    swept
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        let mut h = Fingerprint::new();
        h.write_bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fingerprint::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fingerprint::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn ir_fingerprint_is_sensitive_to_every_field() {
        use paulihedral::parse::parse_program;
        let key = |text: &str| {
            let ir = parse_program(text).unwrap();
            let mut h = Fingerprint::new();
            fingerprint_ir(&ir, &mut h);
            h.finish()
        };
        let base = key("{(ZZY, 0.5), 1.0}; {(ZZI, 0.3), 1.0};");
        assert_eq!(base, key("{(ZZY, 0.5), 1.0}; {(ZZI, 0.3), 1.0};"));
        // Operator, weight, parameter, and block-structure changes all
        // produce different keys.
        assert_ne!(base, key("{(ZZX, 0.5), 1.0}; {(ZZI, 0.3), 1.0};"));
        assert_ne!(base, key("{(ZZY, 0.25), 1.0}; {(ZZI, 0.3), 1.0};"));
        assert_ne!(base, key("{(ZZY, 0.5), 2.0}; {(ZZI, 0.3), 1.0};"));
        assert_ne!(base, key("{(ZZY, 0.5), (ZZI, 0.3), 1.0};"));
        assert_ne!(base, key("{(ZZY, 0.5), theta}; {(ZZI, 0.3), 1.0};"));
    }

    /// A small synthetic entry (`gates` scales its byte cost).
    fn entry_with(gates: usize) -> CacheEntry {
        let mut circuit = qcircuit::Circuit::new(2);
        for _ in 0..gates {
            circuit.push(qcircuit::Gate::Cx(0, 1));
        }
        CacheEntry {
            compiled: Arc::new(Compiled {
                circuit,
                emitted: Vec::new(),
                initial_l2p: None,
                final_l2p: None,
            }),
            report: CompileReport::default(),
        }
    }

    /// Requests `key`, compiling an `entry_with(gates)` on a miss.
    fn fill(cache: &CompileCache, key: u64, gates: usize) -> CacheOutcome {
        let (_, outcome) = cache
            .get_or_compute::<()>(key, || Ok(entry_with(gates)))
            .expect("compute succeeds");
        outcome
    }

    /// Whether `key` is cached: a hit, or a counted miss whose failing
    /// compute caches nothing.
    fn cached(cache: &CompileCache, key: u64) -> bool {
        cache.get_or_compute(key, || Err(())).is_ok()
    }

    #[test]
    fn counters_track_lookups() {
        let cache = CompileCache::new();
        assert!(!cached(&cache, 42));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 0));
        assert_eq!(fill(&cache, 42, 1), CacheOutcome::Compiled);
        assert!(cached(&cache, 42));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn lru_evicts_in_recency_order() {
        let cache = CompileCache::with_config(CacheConfig {
            max_entries: Some(2),
            ..CacheConfig::default()
        });
        fill(&cache, 1, 1);
        fill(&cache, 2, 1);
        // Touch 1 so 2 becomes least recently used.
        assert!(cached(&cache, 1));
        fill(&cache, 3, 1);
        assert!(!cached(&cache, 2), "LRU key must be evicted");
        assert!(cached(&cache, 1));
        assert!(cached(&cache, 3));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn byte_budget_is_never_exceeded() {
        let unit = entry_with(1).approx_bytes();
        let cache = CompileCache::with_config(CacheConfig {
            max_bytes: Some(3 * unit),
            ..CacheConfig::default()
        });
        for key in 0..10 {
            fill(&cache, key, 1);
            assert!(cache.stats().resident_bytes <= 3 * unit);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 7);
        // An entry bigger than the whole budget is served un-cached.
        assert_eq!(fill(&cache, 100, 10_000), CacheOutcome::Compiled);
        assert!(cache.stats().resident_bytes <= 3 * unit);
        assert!(!cached(&cache, 100));
    }

    #[test]
    fn replacing_a_key_updates_cost_not_count() {
        // Two workers that both miss memory and both hit the disk each
        // admit the same key; the second admission replaces the first.
        let cache = CompileCache::new();
        fill(&cache, 7, 100);
        let big = cache.stats().resident_bytes;
        cache.admit(7, entry_with(1));
        let small = cache.stats().resident_bytes;
        assert_eq!(cache.stats().entries, 1);
        assert!(small < big, "replacement must release the old cost");
    }

    /// Regression test for the poisoned-lock bug: one panicking worker
    /// used to poison the entries mutex, after which every later job died
    /// in `.lock().expect("cache poisoned")`. The cache now recovers the
    /// guard (critical sections only ever swap complete values).
    #[test]
    fn survives_a_poisoned_lock() {
        let cache = CompileCache::new();
        fill(&cache, 1, 1);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.entries.lock().unwrap();
            panic!("worker died while holding the cache lock");
        }));
        assert!(result.is_err());
        assert!(cache.entries.is_poisoned(), "test must actually poison");
        // Every hot-path operation still works.
        assert!(cached(&cache, 1));
        fill(&cache, 2, 1);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(fill(&cache, 3, 1), CacheOutcome::Compiled);
        assert_eq!(cache.stats().entries, 3);
    }

    /// The memory tier against a naive recency model: a `Vec` of
    /// `(key, cost)` pairs, least recently used first, over seeded streams
    /// of requests and replacing admissions under every budget shape.
    #[test]
    fn memory_tier_matches_a_recency_model() {
        use crate::fault::Stream;

        let unit = entry_with(1).approx_bytes();
        // Fixed per-key sizes; the larger ones exceed some byte budgets.
        let gates = |key: u64| [1, 2, 3, 40][key as usize % 4];
        // Replacements, hits and oversize admissions seen across all rounds.
        let mut seen = [0; 3];
        for (round, (max_entries, max_bytes)) in [None, Some(1), Some(3), Some(8)]
            .into_iter()
            .flat_map(|e| [None, Some(2 * unit), Some(5 * unit)].map(|b| (e, b)))
            .enumerate()
        {
            let cache = CompileCache::with_config(CacheConfig {
                max_entries,
                max_bytes,
                ..CacheConfig::default()
            });
            let mut rng = Stream(0x5eed ^ round as u64);
            let mut model: Vec<(u64, usize)> = Vec::new();
            let mut evictions = 0;
            for _ in 0..2000 {
                let key = rng.next_u64() % 16;
                let resident = model.iter().position(|&(k, _)| k == key);
                // The cost the operation admits, if it admits anything.
                let admitted = match resident {
                    Some(_) if rng.next_u64().is_multiple_of(5) => {
                        // Replace a resident key with a new size.
                        let entry = entry_with(1 + rng.next_u64() as usize % 6);
                        let cost = entry.approx_bytes();
                        cache.admit(key, entry);
                        seen[0] += 1;
                        Some(cost)
                    }
                    Some(i) => {
                        assert_eq!(fill(&cache, key, gates(key)), CacheOutcome::MemoryHit);
                        let hit = model.remove(i);
                        model.push(hit);
                        seen[1] += 1;
                        None
                    }
                    None => {
                        assert_eq!(fill(&cache, key, gates(key)), CacheOutcome::Compiled);
                        Some(entry_with(gates(key)).approx_bytes())
                    }
                };
                let oversize = admitted.is_some_and(|c| max_bytes.is_some_and(|b| c > b));
                seen[2] += usize::from(oversize);
                if let Some(cost) = admitted.filter(|_| !oversize) {
                    model.retain(|&(k, _)| k != key);
                    model.push((key, cost));
                    let bytes = |m: &[(u64, usize)]| m.iter().map(|&(_, c)| c).sum::<usize>();
                    while max_entries.is_some_and(|m| model.len() > m)
                        || max_bytes.is_some_and(|b| bytes(&model) > b)
                    {
                        model.remove(0);
                        evictions += 1;
                    }
                }
                let stats = cache.stats();
                assert_eq!(stats.entries, model.len());
                assert_eq!(stats.resident_bytes, model.iter().map(|&(_, c)| c).sum());
                assert_eq!(stats.evictions, evictions);
                let lru = relock(&cache.entries);
                let order: Vec<u64> = lru.order.values().copied().collect();
                let expected: Vec<u64> = model.iter().map(|&(k, _)| k).collect();
                assert_eq!(order, expected, "recency order");
                assert!(
                    !(oversize && lru.slots.contains_key(&key)),
                    "oversize entry admitted"
                );
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every path exercised: {seen:?}"
        );
    }

    #[test]
    fn single_flight_coalesces_concurrent_misses() {
        use std::sync::mpsc;

        let cache = Arc::new(CompileCache::new());
        let key = 99;
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();

        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute::<()>(key, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(entry_with(1))
                })
            })
        };
        // The leader is inside its compute closure; a second request for
        // the same key must wait, not compile.
        started_rx.recv().unwrap();
        let follower = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute::<()>(key, || panic!("duplicate compile of an in-flight key"))
            })
        };
        // Deterministic rendezvous: wait until the follower is counted as
        // coalesced before letting the leader finish.
        while cache.stats().coalesced == 0 {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();

        let (leader_entry, leader_outcome) = leader.join().unwrap().unwrap();
        let (follower_entry, follower_outcome) = follower.join().unwrap().unwrap();
        assert_eq!(leader_outcome, CacheOutcome::Compiled);
        assert_eq!(follower_outcome, CacheOutcome::Coalesced);
        assert!(Arc::ptr_eq(
            &leader_entry.compiled,
            &follower_entry.compiled
        ));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.coalesced), (1, 1));
    }

    #[test]
    fn opening_a_disk_tier_sweeps_orphan_tmp_files() {
        let dir = std::env::temp_dir().join(format!("ph_cache_tmp_sweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Seed a valid entry plus two crashed-writer orphans.
        {
            let cache = CompileCache::with_config(CacheConfig {
                disk_dir: Some(dir.clone()),
                ..CacheConfig::default()
            });
            fill(&cache, 42, 1);
            assert_eq!(cache.stats().tmp_swept, 0, "clean dir has nothing to sweep");
        }
        std::fs::write(dir.join("00000000000000ff.12345.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("00000000000000aa.99.tmp"), b"partial").unwrap();

        let cache = CompileCache::with_config(CacheConfig {
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        });
        assert_eq!(cache.stats().tmp_swept, 2);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "orphans must be removed");
        // The completed entry survives the sweep and still decodes.
        assert!(cached(&cache, 42));
        assert_eq!(cache.stats().disk_hits, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The disk tier trips on exactly the threshold's consecutive error,
    /// lets one probe through per re-probe window, and heals when that
    /// probe succeeds.
    #[test]
    fn disk_tier_trips_at_the_threshold_and_heals_on_a_probe() {
        use crate::fault::FaultPlan;

        let dir = std::env::temp_dir().join(format!("ph_cache_health_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = CompileCache::with_config(CacheConfig {
            disk_dir: Some(dir.clone()),
            disk_error_threshold: 4,
            disk_reprobe: Duration::from_secs(3600),
            ..CacheConfig::default()
        });
        let fault = Fault::seeded(FaultPlan::parse("disk.read=1.0,disk.write=1.0").unwrap());
        cache.set_fault(fault.clone());
        let health = |cache: &CompileCache| {
            let s = cache.stats();
            (s.disk_errors, s.disk_disabled, s.disk_heals)
        };
        // A miss reads twice (the probe and the re-probe under
        // leadership) and writes once: three errors. The next miss's
        // first read is the fourth and trips the tier, so its re-probe
        // and write-back are skipped.
        fill(&cache, 1, 1);
        assert_eq!(health(&cache), (3, false, 0));
        fill(&cache, 2, 1);
        assert_eq!(health(&cache), (4, true, 0));
        // Inside the window the disk is not touched.
        fill(&cache, 3, 1);
        assert_eq!(health(&cache), (4, true, 0));
        // Window over: exactly one operation probes; its failure keeps
        // the tier disabled for another window.
        relock(&cache.health).probe_at = Some(Instant::now());
        fill(&cache, 4, 1);
        assert_eq!(health(&cache), (5, true, 0));
        // The disk recovers: the next probe (a clean miss) heals the tier
        // and the write-back goes through.
        fault.pause();
        relock(&cache.health).probe_at = Some(Instant::now());
        fill(&cache, 5, 1);
        assert_eq!(health(&cache), (5, false, 1));
        assert!(dir.join(format!("{:016x}.phc", 5)).exists());
        // The heal reset the streak: one more failing miss does not trip.
        fault.resume();
        fill(&cache, 6, 1);
        assert_eq!(health(&cache), (8, false, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_leader_hands_over_to_a_waiter() {
        use std::sync::mpsc;

        let cache = Arc::new(CompileCache::new());
        let key = 7;
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();

        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute::<&str>(key, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Err("compile error")
                })
            })
        };
        started_rx.recv().unwrap();
        let follower = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.get_or_compute::<&str>(key, || Ok(entry_with(1))))
        };
        while cache.stats().coalesced == 0 {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();

        assert_eq!(leader.join().unwrap().unwrap_err(), "compile error");
        // The waiter retried, took over leadership, and compiled.
        let (_, outcome) = follower.join().unwrap().expect("retry succeeds");
        assert_eq!(outcome, CacheOutcome::Compiled);
        assert_eq!(cache.stats().misses, 2);
    }
}
