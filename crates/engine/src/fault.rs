//! Deterministic, seeded fault injection for the engine's three I/O seams.
//!
//! A [`FaultPlan`] describes *what* can fail and how often; a [`Fault`]
//! handle threads the plan through the disk cache tier
//! ([`crate::cache`]/[`crate::persist`]: injected `ErrorKind` failures,
//! short writes, bit-flips), the compile workers ([`crate::batch`] /
//! [`crate::engine`]: injected panics and configurable delays), and the
//! serve connections ([`crate::serve`]: dropped sockets, truncated
//! response lines, stalls). The chaos suite and the CI smoke step drive
//! the whole service through randomized plans and assert that every
//! accepted request still terminates with a report or a typed error.
//!
//! Design rules, mirroring [`ph_telemetry::Telemetry`]:
//!
//! * **Zero-cost off.** [`Fault::disabled`] (the default everywhere) is a
//!   `None`; every injection site is one `Option` check.
//! * **Deterministic.** Decisions come from splitmix64 streams seeded
//!   from [`FaultPlan::seed`], one independent stream per seam (disk /
//!   worker / connection), so a pinned seed replays the same fault
//!   sequence regardless of how the *other* seams are exercised.
//! * **Observable.** Every injected fault is counted
//!   ([`Fault::counters`]) so tests can assert the plan actually fired.

use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::cache::relock;

/// Probabilities and knobs of one fault-injection campaign.
///
/// All rates are probabilities in `[0, 1]`, drawn independently per
/// operation. The textual form accepted by [`FaultPlan::parse`] (and
/// `phc --fault-plan`) is a comma-separated `key=value` list:
///
/// ```text
/// seed=7,disk.read=0.2,disk.write=0.1,disk.flip=0.05,worker.panic=0.15,
/// worker.delay=0.3,worker.delay_ms=20,conn.drop=0.1,conn.truncate=0.05,
/// conn.stall=0.1,conn.stall_ms=50
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic decision streams.
    pub seed: u64,
    /// P(a disk-tier read fails with an injected I/O error).
    pub disk_read_error: f64,
    /// P(a disk-tier write fails with an injected I/O error).
    pub disk_write_error: f64,
    /// P(a disk-tier write persists only a truncated prefix — a torn
    /// write that still renames into place; the checksum catches it on
    /// the next read).
    pub disk_short_write: f64,
    /// P(one byte of a successful disk read is flipped in flight).
    pub disk_bit_flip: f64,
    /// P(a compile panics at the top of the worker path).
    pub worker_panic: f64,
    /// P(a compile is delayed by [`FaultPlan::worker_delay_ms`]).
    pub worker_delay: f64,
    /// Injected compile delay, milliseconds.
    pub worker_delay_ms: u64,
    /// P(a response write drops the connection instead).
    pub conn_drop: f64,
    /// P(a response line is truncated mid-write and the connection
    /// dropped).
    pub conn_truncate: f64,
    /// P(a response write stalls for [`FaultPlan::conn_stall_ms`] first).
    pub conn_stall: f64,
    /// Injected connection stall, milliseconds.
    pub conn_stall_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            disk_read_error: 0.0,
            disk_write_error: 0.0,
            disk_short_write: 0.0,
            disk_bit_flip: 0.0,
            worker_panic: 0.0,
            worker_delay: 0.0,
            worker_delay_ms: 20,
            conn_drop: 0.0,
            conn_truncate: 0.0,
            conn_stall: 0.0,
            conn_stall_ms: 50,
        }
    }
}

impl FaultPlan {
    /// Parses the comma-separated `key=value` spec of `phc --fault-plan`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown keys, unparseable
    /// values, or rates outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan entry `{part}` is not key=value"))?;
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("bad fault rate `{v}` for `{key}`"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("fault rate `{key}={v}` must be in [0, 1]"));
                }
                Ok(r)
            };
            let count = |v: &str| -> Result<u64, String> {
                v.parse().map_err(|_| format!("bad `{key}={v}`"))
            };
            match key {
                "seed" => plan.seed = count(value)?,
                "disk.read" => plan.disk_read_error = rate(value)?,
                "disk.write" => plan.disk_write_error = rate(value)?,
                "disk.short" => plan.disk_short_write = rate(value)?,
                "disk.flip" => plan.disk_bit_flip = rate(value)?,
                "worker.panic" => plan.worker_panic = rate(value)?,
                "worker.delay" => plan.worker_delay = rate(value)?,
                "worker.delay_ms" => plan.worker_delay_ms = count(value)?,
                "conn.drop" => plan.conn_drop = rate(value)?,
                "conn.truncate" => plan.conn_truncate = rate(value)?,
                "conn.stall" => plan.conn_stall = rate(value)?,
                "conn.stall_ms" => plan.conn_stall_ms = count(value)?,
                other => {
                    return Err(format!(
                        "unknown fault-plan key `{other}` (seed, disk.read, disk.write, \
                         disk.short, disk.flip, worker.panic, worker.delay, worker.delay_ms, \
                         conn.drop, conn.truncate, conn.stall, conn.stall_ms)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

/// What to do to one disk-tier read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskReadFault {
    /// Perform the read normally.
    None,
    /// Fail the read with this injected error kind.
    Error(ErrorKind),
    /// Perform the read, then flip one byte of the result.
    BitFlip,
}

/// What to do to one disk-tier write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskWriteFault {
    /// Perform the write normally.
    None,
    /// Fail the write with this injected error kind.
    Error(ErrorKind),
    /// Persist only a truncated prefix (torn write).
    Short,
}

/// What to do to one compile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFault {
    /// Compile normally.
    None,
    /// Panic at the top of the compile path (caught per job and reported
    /// as a `panicked` error value).
    Panic,
    /// Sleep this long before compiling.
    Delay(Duration),
}

/// What to do to one connection write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnFault {
    /// Write normally.
    None,
    /// Drop the connection without writing.
    Drop,
    /// Write half the line, then drop the connection.
    Truncate,
    /// Sleep this long, then write normally.
    Stall(Duration),
}

/// Counts of faults actually injected, per seam and kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Disk reads failed with an injected error.
    pub disk_read_errors: u64,
    /// Disk reads whose payload was bit-flipped.
    pub disk_bit_flips: u64,
    /// Disk writes failed with an injected error.
    pub disk_write_errors: u64,
    /// Disk writes torn to a truncated prefix.
    pub disk_short_writes: u64,
    /// Compiles made to panic.
    pub worker_panics: u64,
    /// Compiles delayed.
    pub worker_delays: u64,
    /// Connections dropped mid-response.
    pub conn_drops: u64,
    /// Response lines truncated.
    pub conn_truncates: u64,
    /// Response writes stalled.
    pub conn_stalls: u64,
}

/// One splitmix64 stream. Tiny and deterministic; each owner (a fault
/// plan's disk, worker and connection streams, a client's backoff jitter)
/// holds its own, so no RNG state is shared across the process.
#[derive(Debug)]
pub(crate) struct Stream(pub(crate) u64);

impl Stream {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` (53-bit mantissa).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn chance(&mut self, p: f64) -> bool {
        // The draw is unconditional so a plan's decision sequence is a
        // pure function of (seed, operation index), not of the rates.
        let roll = self.next_f64();
        p > 0.0 && roll < p
    }
}

#[derive(Debug)]
struct FaultInner {
    plan: FaultPlan,
    /// `false` pauses injection without discarding the handle — tests use
    /// this to let a degraded disk tier heal on its re-probe.
    active: AtomicBool,
    /// Injected delays wait on this condvar, so [`Fault::pause`] can end
    /// them early.
    sleepers: (Mutex<()>, Condvar),
    disk: Mutex<Stream>,
    worker: Mutex<Stream>,
    conn: Mutex<Stream>,
    counters: [AtomicU64; 9],
}

/// The injected error kinds, cycled deterministically; `NotFound` is
/// deliberately absent — it means "healthy miss" to the cache, never an
/// I/O failure.
const ERROR_KINDS: [ErrorKind; 4] = [
    ErrorKind::PermissionDenied,
    ErrorKind::TimedOut,
    ErrorKind::Interrupted,
    ErrorKind::OutOfMemory,
];

const C_DISK_READ_ERR: usize = 0;
const C_DISK_FLIP: usize = 1;
const C_DISK_WRITE_ERR: usize = 2;
const C_DISK_SHORT: usize = 3;
const C_PANIC: usize = 4;
const C_DELAY: usize = 5;
const C_DROP: usize = 6;
const C_TRUNCATE: usize = 7;
const C_STALL: usize = 8;

/// A cheap, cloneable fault-injection handle. [`Fault::disabled`] (the
/// `Default`) injects nothing and costs one `Option` check per site;
/// [`Fault::seeded`] activates a [`FaultPlan`].
#[derive(Clone, Debug, Default)]
pub struct Fault(Option<Arc<FaultInner>>);

impl Fault {
    /// The no-op handle every builder starts with.
    pub fn disabled() -> Fault {
        Fault(None)
    }

    /// A handle injecting per `plan`, deterministically from
    /// [`FaultPlan::seed`].
    pub fn seeded(plan: FaultPlan) -> Fault {
        // Independent per-seam streams: decisions at one seam never
        // perturb the sequence at another.
        let stream = |salt: u64| Mutex::new(Stream(plan.seed ^ salt));
        Fault(Some(Arc::new(FaultInner {
            active: AtomicBool::new(true),
            sleepers: (Mutex::new(()), Condvar::new()),
            disk: stream(0xd15c_d15c_d15c_d15c),
            worker: stream(0x3033_7c0d_e5a1_7b0b),
            conn: stream(0xc022_c022_c022_c022),
            counters: Default::default(),
            plan,
        })))
    }

    /// `true` when a plan is attached (even if currently paused).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Pauses injection (the handle survives; decision streams freeze)
    /// and ends every injected delay or stall still in flight.
    pub fn pause(&self) {
        if let Some(inner) = &self.0 {
            inner.active.store(false, Ordering::SeqCst);
            // Taking the lock orders this store before any sleeper's next
            // check, so no sleeper misses the wake-up.
            let _sleepers = relock(&inner.sleepers.0);
            inner.sleepers.1.notify_all();
        }
    }

    /// Resumes a paused handle.
    pub fn resume(&self) {
        if let Some(inner) = &self.0 {
            inner.active.store(true, Ordering::SeqCst);
        }
    }

    /// Waits out an injected delay or stall of `d`, returning early once
    /// the handle is paused.
    pub(crate) fn sleep(&self, d: Duration) {
        let Some(inner) = &self.0 else {
            return std::thread::sleep(d);
        };
        let (lock, cv) = &inner.sleepers;
        let _ = cv.wait_timeout_while(relock(lock), d, |()| inner.active.load(Ordering::SeqCst));
    }

    /// Counts of faults injected so far.
    pub fn counters(&self) -> FaultCounters {
        let Some(inner) = &self.0 else {
            return FaultCounters::default();
        };
        let c = |i: usize| inner.counters[i].load(Ordering::Relaxed);
        FaultCounters {
            disk_read_errors: c(C_DISK_READ_ERR),
            disk_bit_flips: c(C_DISK_FLIP),
            disk_write_errors: c(C_DISK_WRITE_ERR),
            disk_short_writes: c(C_DISK_SHORT),
            worker_panics: c(C_PANIC),
            worker_delays: c(C_DELAY),
            conn_drops: c(C_DROP),
            conn_truncates: c(C_TRUNCATE),
            conn_stalls: c(C_STALL),
        }
    }

    fn inner(&self) -> Option<&Arc<FaultInner>> {
        let inner = self.0.as_ref()?;
        inner.active.load(Ordering::SeqCst).then_some(inner)
    }

    fn count(inner: &FaultInner, which: usize) {
        inner.counters[which].fetch_add(1, Ordering::Relaxed);
    }

    fn error_kind(roll: u64) -> ErrorKind {
        ERROR_KINDS[(roll % ERROR_KINDS.len() as u64) as usize]
    }

    /// The decision for one disk-tier read.
    pub fn disk_read(&self) -> DiskReadFault {
        let Some(inner) = self.inner() else {
            return DiskReadFault::None;
        };
        let mut rng = relock(&inner.disk);
        if rng.chance(inner.plan.disk_read_error) {
            let kind = Self::error_kind(rng.next_u64());
            drop(rng);
            Self::count(inner, C_DISK_READ_ERR);
            return DiskReadFault::Error(kind);
        }
        if rng.chance(inner.plan.disk_bit_flip) {
            drop(rng);
            Self::count(inner, C_DISK_FLIP);
            return DiskReadFault::BitFlip;
        }
        DiskReadFault::None
    }

    /// The decision for one disk-tier write.
    pub fn disk_write(&self) -> DiskWriteFault {
        let Some(inner) = self.inner() else {
            return DiskWriteFault::None;
        };
        let mut rng = relock(&inner.disk);
        if rng.chance(inner.plan.disk_write_error) {
            let kind = Self::error_kind(rng.next_u64());
            drop(rng);
            Self::count(inner, C_DISK_WRITE_ERR);
            return DiskWriteFault::Error(kind);
        }
        if rng.chance(inner.plan.disk_short_write) {
            drop(rng);
            Self::count(inner, C_DISK_SHORT);
            return DiskWriteFault::Short;
        }
        DiskWriteFault::None
    }

    /// Flips one pseudo-randomly chosen byte of `bytes` (the
    /// [`DiskReadFault::BitFlip`] payload corruption).
    pub fn corrupt(&self, bytes: &mut [u8]) {
        let Some(inner) = self.inner() else {
            return;
        };
        if bytes.is_empty() {
            return;
        }
        let roll = relock(&inner.disk).next_u64();
        let i = (roll % bytes.len() as u64) as usize;
        bytes[i] ^= 0x40;
    }

    /// The decision for one compile.
    pub fn worker(&self) -> WorkerFault {
        let Some(inner) = self.inner() else {
            return WorkerFault::None;
        };
        let mut rng = relock(&inner.worker);
        if rng.chance(inner.plan.worker_panic) {
            drop(rng);
            Self::count(inner, C_PANIC);
            return WorkerFault::Panic;
        }
        if rng.chance(inner.plan.worker_delay) {
            drop(rng);
            Self::count(inner, C_DELAY);
            return WorkerFault::Delay(Duration::from_millis(inner.plan.worker_delay_ms));
        }
        WorkerFault::None
    }

    /// The decision for one connection write.
    pub fn conn_write(&self) -> ConnFault {
        let Some(inner) = self.inner() else {
            return ConnFault::None;
        };
        let mut rng = relock(&inner.conn);
        if rng.chance(inner.plan.conn_drop) {
            drop(rng);
            Self::count(inner, C_DROP);
            return ConnFault::Drop;
        }
        if rng.chance(inner.plan.conn_truncate) {
            drop(rng);
            Self::count(inner, C_TRUNCATE);
            return ConnFault::Truncate;
        }
        if rng.chance(inner.plan.conn_stall) {
            drop(rng);
            Self::count(inner, C_STALL);
            return ConnFault::Stall(Duration::from_millis(inner.plan.conn_stall_ms));
        }
        ConnFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_key() {
        let plan = FaultPlan::parse(
            "seed=7, disk.read=0.25,disk.write=0.5,disk.short=0.125,disk.flip=1,\
             worker.panic=0.1,worker.delay=0.2,worker.delay_ms=15,\
             conn.drop=0.3,conn.truncate=0.4,conn.stall=0.6,conn.stall_ms=99",
        )
        .unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                seed: 7,
                disk_read_error: 0.25,
                disk_write_error: 0.5,
                disk_short_write: 0.125,
                disk_bit_flip: 1.0,
                worker_panic: 0.1,
                worker_delay: 0.2,
                worker_delay_ms: 15,
                conn_drop: 0.3,
                conn_truncate: 0.4,
                conn_stall: 0.6,
                conn_stall_ms: 99,
            }
        );
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for (spec, needle) in [
            ("disk.read", "not key=value"),
            ("disk.read=1.5", "must be in [0, 1]"),
            ("disk.read=-0.1", "must be in [0, 1]"),
            ("disk.read=abc", "bad fault rate"),
            ("worker.delay_ms=abc", "bad `worker.delay_ms=abc`"),
            ("frobnicate=1", "unknown fault-plan key"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(needle), "{spec:?} gave {err:?}");
        }
    }

    #[test]
    fn disabled_handle_never_injects() {
        let fault = Fault::disabled();
        assert!(!fault.is_enabled());
        for _ in 0..100 {
            assert_eq!(fault.disk_read(), DiskReadFault::None);
            assert_eq!(fault.disk_write(), DiskWriteFault::None);
            assert_eq!(fault.worker(), WorkerFault::None);
            assert_eq!(fault.conn_write(), ConnFault::None);
        }
        assert_eq!(fault.counters(), FaultCounters::default());
    }

    #[test]
    fn same_seed_replays_the_same_decisions() {
        let plan = FaultPlan {
            seed: 42,
            disk_read_error: 0.3,
            disk_bit_flip: 0.2,
            worker_panic: 0.25,
            conn_drop: 0.4,
            ..FaultPlan::default()
        };
        let a = Fault::seeded(plan.clone());
        let b = Fault::seeded(plan.clone());
        let run = |f: &Fault| -> Vec<String> {
            (0..200)
                .map(|i| match i % 3 {
                    0 => format!("{:?}", f.disk_read()),
                    1 => format!("{:?}", f.worker()),
                    _ => format!("{:?}", f.conn_write()),
                })
                .collect()
        };
        assert_eq!(run(&a), run(&b));
        let c = Fault::seeded(FaultPlan { seed: 43, ..plan });
        assert_ne!(run(&a), run(&c), "different seeds must diverge");
    }

    #[test]
    fn seams_draw_from_independent_streams() {
        let plan = FaultPlan {
            seed: 9,
            worker_panic: 0.5,
            ..FaultPlan::default()
        };
        // Interleaving disk decisions must not change the worker stream.
        let a = Fault::seeded(plan.clone());
        let plain: Vec<_> = (0..50).map(|_| a.worker()).collect();
        let b = Fault::seeded(plan);
        let interleaved: Vec<_> = (0..50)
            .map(|_| {
                let _ = b.disk_read();
                let _ = b.conn_write();
                b.worker()
            })
            .collect();
        assert_eq!(plain, interleaved);
    }

    #[test]
    fn rates_are_roughly_honored_and_counted() {
        let fault = Fault::seeded(FaultPlan {
            seed: 1,
            worker_panic: 0.25,
            ..FaultPlan::default()
        });
        let panics = (0..2000)
            .filter(|_| fault.worker() == WorkerFault::Panic)
            .count();
        assert!(
            (350..650).contains(&panics),
            "0.25 rate gave {panics}/2000 panics"
        );
        assert_eq!(fault.counters().worker_panics, panics as u64);
    }

    #[test]
    fn pause_and_resume_gate_injection() {
        let fault = Fault::seeded(FaultPlan {
            seed: 3,
            worker_panic: 1.0,
            ..FaultPlan::default()
        });
        assert_eq!(fault.worker(), WorkerFault::Panic);
        fault.pause();
        assert_eq!(fault.worker(), WorkerFault::None);
        assert!(fault.is_enabled(), "paused is still enabled");
        fault.resume();
        assert_eq!(fault.worker(), WorkerFault::Panic);
    }

    #[test]
    fn pause_ends_an_injected_delay_in_flight() {
        use std::time::Instant;

        use crate::{Engine, Pipeline, Target};

        let fault = Fault::seeded(
            FaultPlan::parse("seed=1,worker.delay=1.0,worker.delay_ms=60000").unwrap(),
        );
        let engine = Engine::new(Pipeline::auto(), Target::FaultTolerant).with_fault(fault.clone());
        let ir = paulihedral::parse::parse_program("{(ZZY, 0.5), 1.0};").unwrap();
        std::thread::scope(|scope| {
            let compile = scope.spawn(|| engine.compile_with(&ir, None, None));
            let deadline = Instant::now() + Duration::from_secs(10);
            while fault.counters().worker_delays == 0 {
                assert!(
                    Instant::now() < deadline,
                    "the compile never entered the delay"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let paused = Instant::now();
            fault.pause();
            let out = compile.join().expect("compile thread");
            assert!(out.is_ok(), "{out:?}");
            assert!(
                paused.elapsed() < Duration::from_secs(5),
                "pause left the 60 s delay running for {:?}",
                paused.elapsed()
            );
        });
    }

    #[test]
    fn corrupt_flips_exactly_one_byte() {
        let fault = Fault::seeded(FaultPlan {
            seed: 5,
            ..FaultPlan::default()
        });
        let original = vec![0u8; 64];
        let mut copy = original.clone();
        fault.corrupt(&mut copy);
        let diffs = original.iter().zip(&copy).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
        let mut empty: Vec<u8> = Vec::new();
        fault.corrupt(&mut empty); // must not panic
    }
}
