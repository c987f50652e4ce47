//! The thread-safe compilation engine: template cache + sweep front-end.

use std::panic::{catch_unwind, AssertUnwindSafe};
// Stage timing below uses the real wall clock on purpose: stage metrics
// are observability, not modeled state, and their `Instant`s never meet
// the deadline/singleflight `Instant`s from `crate::sync`.
use std::time::Instant;

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{Arc, Mutex, PoisonError};

use quclear_circuit::qasm::from_qasm;
use quclear_circuit::Gate;
use quclear_core::{
    lift, AbsorbedObservables, MeasurementPlan, QuClearConfig, QuClearResult, ShotBatch,
};
use quclear_pauli::{PauliRotation, SignedPauli};
use quclear_sim::StateVector;
use quclear_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::LruCache;
use crate::deadline::Deadline;
use crate::error::EngineError;
use crate::fingerprint::ProgramFingerprint;
use crate::singleflight::{Role, SingleFlight};
use crate::template::{CompiledTemplate, StageMetrics};

/// Metric name of the engine's per-stage latency histograms (labeled by
/// `stage`: `fingerprint`, `extract`, `bind`, `peephole`, `render`,
/// `absorb_pre`, `diagonalize`, `simulate`, `sample`, `readout`).
pub const ENGINE_STAGE_METRIC: &str = "quclear_engine_stage_duration_ns";

/// Metric name of the single-flight latency histograms (labeled by `role`:
/// `leader` — the full compile a flight leader performs — vs `waiter` — how
/// long a coalesced request blocked on someone else's flight).
pub const ENGINE_SINGLEFLIGHT_METRIC: &str = "quclear_engine_singleflight_duration_ns";

/// Default number of cached templates.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// A point-in-time snapshot of the engine's counters.
///
/// # Staleness contract
///
/// The engine mutates its counters with relaxed atomics on the request hot
/// paths; [`Engine::stats`] reads them without stopping the world. A
/// snapshot is therefore **consistent but stale**: each field is a value the
/// counter actually held at some instant during the `stats()` call, and the
/// cross-field invariants below are guaranteed to hold *within one
/// snapshot*, but the fields need not all come from the same instant — a
/// request that completed mid-snapshot may be reflected in one counter and
/// not yet in another. Serving dashboards (`/stats` endpoints) should treat
/// a snapshot as "correct as of roughly now", not as a transactional view.
///
/// Within every snapshot:
///
/// * [`EngineStats::hit_rate`] is in `[0, 1]`,
/// * `entries <= capacity`,
/// * `coalesced_waits <= hits + misses`,
/// * every counter is monotone across successive snapshots (each counter
///   only ever increments, and `stats()` reads each one exactly once).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Template-cache hits. A lookup served by an in-flight compilation
    /// (see [`EngineStats::coalesced_waits`]) counts as a hit: it was
    /// answered without running a compilation of its own.
    pub hits: u64,
    /// Template-cache misses (each one attempted — or, for a coalesced
    /// request, shared the outcome of — a full template compilation; failed
    /// compilations count as misses too).
    pub misses: u64,
    /// Lookups that found their structure already compiling on another
    /// thread and waited for that single flight instead of racing it.
    pub coalesced_waits: u64,
    /// Templates evicted by the LRU policy.
    pub evictions: u64,
    /// Total successful `bind` operations served.
    pub binds: u64,
    /// Templates currently cached (never above `capacity`).
    pub entries: usize,
    /// Configured cache capacity.
    pub capacity: usize,
}

impl EngineStats {
    /// Fraction of template lookups served from the cache, in `[0, 1]`.
    ///
    /// Guaranteed to stay in `[0, 1]` even for a snapshot taken while
    /// requests are mutating the counters: the ratio is computed from the
    /// two fields of *this* snapshot, not re-read from the live engine.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            // `hits <= total` by construction; the division cannot exceed 1.
            (self.hits.min(total)) as f64 / total as f64
        }
    }
}

/// A high-throughput compilation engine with a shared template cache.
///
/// The engine memoizes [`CompiledTemplate`]s keyed by the angle-independent
/// [`ProgramFingerprint`], so recompiling the same circuit *structure* with
/// new angles (the inner loop of VQE/QAOA parameter sweeps) costs one cheap
/// `bind` instead of a full extraction. All methods take `&self`; the engine
/// is `Send + Sync` and is typically shared behind an [`Arc`].
///
/// # Examples
///
/// ```
/// use quclear_engine::Engine;
/// use quclear_pauli::PauliRotation;
///
/// let engine = Engine::new(64);
/// let program = vec![
///     PauliRotation::parse("ZZZZ", 0.3)?,
///     PauliRotation::parse("YYXX", 0.7)?,
/// ];
/// let first = engine.compile(&program)?;   // cache miss: full extraction
/// let again = engine.compile(&program)?;   // cache hit: O(gates) rebind
/// assert_eq!(first.cnot_count(), again.cnot_count());
/// let stats = engine.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Deadlines
///
/// An `Engine` is a cheap handle: the cache, single-flight table and
/// metrics live in one shared core, and the handle adds the [`Deadline`]
/// its operations run under. [`Engine::new`] and [`Engine::default`] build a
/// handle with [`Deadline::none`], which never fails with
/// [`EngineError::DeadlineExceeded`]. [`Engine::with_deadline`] returns a
/// handle on the **same** core under a request budget — a serving front
/// end makes one per request.
///
/// The budget is cooperative. It is checked between pipeline stages, and
/// inside an estimate's simulation every ~2^20 amplitude updates; it never
/// preempts a running extraction. A template lookup that hits the
/// cache is served even past the deadline (answering is cheaper than
/// composing the error); later stages still check the budget. A coalesced
/// single-flight waiter parks on the leader's flight **at most** until the
/// deadline, then detaches; the leader's template still lands in the cache,
/// so a retry typically hits. The deadline is one absolute instant, so every
/// stage (and every bind of a sweep) shares one budget rather than each
/// getting a fresh allowance.
///
/// ```
/// use std::time::Duration;
/// use quclear_engine::{Deadline, Engine, EngineError};
/// use quclear_pauli::PauliRotation;
///
/// let engine = Engine::new(64);
/// let program = vec![PauliRotation::parse("ZZZZ", 0.3)?];
/// let spent = engine.with_deadline(Deadline::within(Duration::ZERO));
/// assert_eq!(spent.compile(&program).unwrap_err(), EngineError::DeadlineExceeded);
/// engine.compile(&program)?; // the plain handle has no budget...
/// assert!(spent.template_for(&program).is_ok()); // ...and warmed the shared cache
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    core: Arc<EngineCore>,
    /// The request budget this handle's operations run under.
    deadline: Deadline,
}

/// The state every handle of one engine shares.
#[derive(Debug)]
struct EngineCore {
    config: QuClearConfig,
    cache: LruCache<ProgramFingerprint, CompiledTemplate>,
    /// Coalesces concurrent compilations of the same structure: one leader
    /// extracts, everyone else waits for its result (`singleflight`).
    inflight: SingleFlight<ProgramFingerprint, Result<Arc<CompiledTemplate>, EngineError>>,
    /// The engine's metric registry. The counters below are *handles into
    /// this registry* — `stats()` and the metrics exposition read the same
    /// atomic cells, so the two views cannot drift apart.
    metrics: Arc<MetricsRegistry>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    coalesced_waits: Arc<Counter>,
    evictions: Arc<Counter>,
    binds: Arc<Counter>,
    cache_entries: Arc<Gauge>,
    measurement_groups: Arc<Gauge>,
    measurement_dense_passes: Arc<Gauge>,
    rotation_passes: Arc<Gauge>,
    stage_fingerprint: Arc<Histogram>,
    stage_extract: Arc<Histogram>,
    stage_simulate: Arc<Histogram>,
    stage_sample: Arc<Histogram>,
    stage_readout: Arc<Histogram>,
    singleflight_leader: Arc<Histogram>,
    singleflight_waiter: Arc<Histogram>,
    /// Handles handed to every compiled template (bind / peephole /
    /// absorb_pre run template-side).
    template_metrics: StageMetrics,
    /// Test-support fault injection (see [`Engine::inject_lookup_panic`]).
    /// The flag makes the hot path pay one relaxed load instead of a mutex.
    fault_armed: AtomicBool,
    fault_fingerprint: Mutex<Option<ProgramFingerprint>>,
    /// Test-support compile slowdown (see [`Engine::inject_compile_delay`]).
    delay_armed: AtomicBool,
    fault_delay: Mutex<Option<(ProgramFingerprint, std::time::Duration)>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(DEFAULT_CACHE_CAPACITY)
    }
}

/// Widest register the engine compiles. Extraction, its Clifford frames and
/// the QASM lift grow with the square of the width, so a wider program is
/// refused as [`EngineError::TooManyQubits`] before it is fingerprinted,
/// lifted or extracted. Table II's widest program has 20 qubits.
pub const MAX_QUBITS: usize = 1024;

/// Largest register [`Engine::estimate_observables`] will simulate: the
/// dense statevector simulator's own guard rail.
pub const MAX_ESTIMABLE_QUBITS: usize = 26;

/// Largest per-group shot count [`Engine::estimate_observables`] will
/// sample. A group's draw materializes one index per shot before packing,
/// so larger requests are refused as [`EngineError::NotEstimable`] before
/// anything is allocated.
pub const MAX_ESTIMATE_SHOTS: u64 = 1 << 20;

/// The deterministic per-group sampling seed used by
/// [`Engine::estimate_observables`]: a SplitMix64-style mix of the request
/// seed and the group index. Public so differential tests can reproduce a
/// group's shot batch exactly.
#[must_use]
pub fn group_shot_seed(seed: u64, group: usize) -> u64 {
    let mut z = seed ^ (group as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The result of [`Engine::estimate_observables`]: per-observable sampled
/// expectations plus the grouping that produced them.
#[derive(Clone, Debug, PartialEq)]
pub struct EstimateResult {
    /// Estimated `⟨O_i⟩` in input observable order, signs included.
    pub expectations: Vec<f64>,
    /// Member indices (into the input observable list) of each commuting
    /// group; one shot batch was sampled per group.
    pub groups: Vec<Vec<usize>>,
    /// `observables / groups` — how many times fewer shot batches the
    /// grouped plan needed compared to per-observable estimation.
    pub shot_budget_divisor: f64,
}

impl Engine {
    /// Creates an engine with the default pipeline configuration and room
    /// for `capacity` cached templates (clamped to at least one).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cache = LruCache::new(capacity);
        let metrics = Arc::new(MetricsRegistry::new());
        let stage = |name: &str| {
            metrics.histogram_labeled(
                ENGINE_STAGE_METRIC,
                "engine pipeline stage latency in nanoseconds",
                ("stage", name),
            )
        };
        let flight = |role: &str| {
            metrics.histogram_labeled(
                ENGINE_SINGLEFLIGHT_METRIC,
                "single-flight compile latency in nanoseconds, by role",
                ("role", role),
            )
        };
        metrics
            .gauge(
                "quclear_engine_cache_capacity",
                "configured template-cache capacity",
            )
            .set(cache.capacity() as i64);
        metrics
            .gauge(
                "quclear_engine_kernel_lane_words",
                "lane width of the bit-plane kernels in 64-bit words",
            )
            .set(quclear_pauli::kernel_lane_words() as i64);
        let core = EngineCore {
            inflight: SingleFlight::new(),
            hits: metrics.counter(
                "quclear_engine_cache_hits_total",
                "template lookups served from the cache (or a shared flight)",
            ),
            misses: metrics.counter(
                "quclear_engine_cache_misses_total",
                "template lookups that compiled (or shared a failed compile)",
            ),
            coalesced_waits: metrics.counter(
                "quclear_engine_coalesced_waits_total",
                "lookups that waited on another thread's in-flight compile",
            ),
            evictions: metrics.counter(
                "quclear_engine_cache_evictions_total",
                "templates evicted by the LRU policy",
            ),
            binds: metrics.counter(
                "quclear_engine_binds_total",
                "successful template bind operations",
            ),
            cache_entries: metrics
                .gauge("quclear_engine_cache_entries", "templates currently cached"),
            measurement_groups: metrics.gauge(
                "quclear_engine_measurement_groups",
                "commuting groups in the most recently built measurement plan",
            ),
            measurement_dense_passes: metrics.gauge(
                "quclear_engine_measurement_dense_passes",
                "state-vector passes (one gather plus one per Hadamard, per group) to run \
                 the diagonalizers of the most recently built measurement plan",
            ),
            rotation_passes: metrics.gauge(
                "quclear_engine_rotation_passes",
                "state-vector passes (one per run of commuting same-X rotations) that \
                 the most recent estimate ran to simulate its program",
            ),
            stage_fingerprint: stage("fingerprint"),
            stage_extract: stage("extract"),
            stage_simulate: stage("simulate"),
            stage_sample: stage("sample"),
            stage_readout: stage("readout"),
            singleflight_leader: flight("leader"),
            singleflight_waiter: flight("waiter"),
            template_metrics: StageMetrics {
                bind: stage("bind"),
                peephole: stage("peephole"),
                absorb_pre: stage("absorb_pre"),
                diagonalize: stage("diagonalize"),
                render: stage("render"),
            },
            metrics,
            config: QuClearConfig::default(),
            cache,
            fault_armed: AtomicBool::new(false),
            fault_fingerprint: Mutex::new(None),
            delay_armed: AtomicBool::new(false),
            fault_delay: Mutex::new(None),
        };
        Engine {
            core: Arc::new(core),
            deadline: Deadline::none(),
        }
    }

    /// A handle on this engine's cache, counters and metric registry whose
    /// operations run under `deadline` instead of this handle's budget (see
    /// [Deadlines](Engine#deadlines)). Costs one `Arc` clone.
    #[must_use]
    pub fn with_deadline(&self, deadline: Deadline) -> Engine {
        Engine {
            core: Arc::clone(&self.core),
            deadline,
        }
    }

    /// The pipeline configuration used for every compilation.
    #[must_use]
    pub fn config(&self) -> &QuClearConfig {
        &self.core.config
    }

    /// Returns the cached template for `axes`, compiling it on a miss.
    ///
    /// Concurrent misses on the **same** structure are single-flighted: one
    /// caller runs the extraction, the others block on its flight and share
    /// the result (counted in [`EngineStats::coalesced_waits`]). Misses on
    /// *different* structures never serialize — the in-flight table is keyed
    /// by fingerprint and compilation runs outside every lock.
    ///
    /// Under a deadline, a hit is always served, a miss checks the budget
    /// before extracting, and a coalesced waiter detaches from a leader that
    /// outlives the budget; the leader's template still lands in the cache.
    ///
    /// # Errors
    ///
    /// [`EngineError::TooManyQubits`] when the first axis is wider than
    /// [`MAX_QUBITS`], before anything is fingerprinted. Propagates
    /// template-compilation failures (inconsistent register sizes,
    /// contained panics). A coalesced caller receives a clone of the
    /// leader's error; failed compilations are never cached, so a later
    /// request retries from scratch. [`EngineError::DeadlineExceeded`] once
    /// the handle's budget is spent; a detached waiter counts as a miss
    /// without a `coalesced_waits` increment, preserving the
    /// `coalesced_waits <= hits + misses` snapshot invariant.
    pub fn template(&self, axes: &[SignedPauli]) -> Result<Arc<CompiledTemplate>, EngineError> {
        check_width(axes.first().map_or(0, SignedPauli::num_qubits))?;
        let core = &*self.core;
        let fingerprint_start = Instant::now();
        let fingerprint = ProgramFingerprint::of_axes(axes, &core.config);
        core.stage_fingerprint
            .record_duration(fingerprint_start.elapsed());
        self.maybe_injected_panic(&fingerprint);
        // Hit fast path: the cache's *read* lock plus an atomic recency bump —
        // concurrent hits never serialize, even on the same template. Hits
        // are served even past the deadline: answering from the cache is
        // cheaper than composing the error.
        if let Some(template) = core.cache.get(&fingerprint) {
            core.hits.inc();
            return Ok(template);
        }

        let flight_start = Instant::now();
        let Some((result, role)) = core
            .inflight
            .run(&fingerprint, self.deadline.instant(), || {
                self.compile_into_cache(fingerprint, axes)
            })
        else {
            // Detached: the leader outlived this request's budget. The
            // flight keeps running and will populate the cache; this lookup
            // was answered by neither the cache nor a shared result, so it
            // counts as a miss (and *not* as a coalesced wait).
            core.singleflight_waiter
                .record_duration(flight_start.elapsed());
            core.misses.inc();
            return Err(EngineError::DeadlineExceeded);
        };
        match role {
            Role::Led => core
                .singleflight_leader
                .record_duration(flight_start.elapsed()),
            Role::Coalesced => {
                core.singleflight_waiter
                    .record_duration(flight_start.elapsed());
                // The waiter was answered without compiling: a hit when the
                // leader succeeded, a miss when its compilation failed
                // (keeping the "misses count failed compilations"
                // convention). The hit/miss lands *before* the Release
                // increment of `coalesced_waits`, and `stats()` reads
                // `coalesced_waits` first with Acquire — so every snapshot
                // observes `coalesced_waits <= hits + misses`.
                match &result {
                    Ok(_) => core.hits.inc(),
                    Err(_) => core.misses.inc(),
                };
                // ordering: Release pairs with stats()'s Acquire read.
                core.coalesced_waits.add_ordered(1, Ordering::Release);
            }
        }
        result
    }

    /// Single-flight leader body: re-check the cache, then compile outside
    /// any lock and publish the template. Extraction is the expensive part,
    /// and concurrent misses on *different* programs must not serialize.
    fn compile_into_cache(
        &self,
        fingerprint: ProgramFingerprint,
        axes: &[SignedPauli],
    ) -> Result<Arc<CompiledTemplate>, EngineError> {
        // Re-check under flight leadership: a previous leader may have
        // published the template between our cache probe and our election.
        if let Some(template) = self.core.cache.get(&fingerprint) {
            self.core.hits.inc();
            return Ok(template);
        }
        self.core.misses.inc();
        // Last cooperative checkpoint before the expensive extraction: a
        // leader whose budget is already spent fails fast instead of
        // compiling a template nobody is waiting for. (Waiters coalesced on
        // this flight share the error, never cache it — the next request
        // retries from scratch, exactly like any other failed compile.)
        self.deadline.check()?;
        self.maybe_injected_delay(&fingerprint);
        let extract_start = Instant::now();
        let compiled = contain_panics(|| CompiledTemplate::compile(axes, &self.core.config));
        self.core
            .stage_extract
            .record_duration(extract_start.elapsed());
        let mut template = compiled?;
        template.set_stage_metrics(self.core.template_metrics.clone());
        let template = Arc::new(template);
        // Only displacement of a different structure counts as an eviction,
        // which is exactly what the cache's insert reports.
        if self
            .core
            .cache
            .insert(fingerprint, Arc::clone(&template))
            .is_some()
        {
            self.core.evictions.inc();
        }
        self.refresh_cache_entries();
        Ok(template)
    }

    /// Sets the occupancy gauge from the live cache length.
    fn refresh_cache_entries(&self) {
        self.core.cache_entries.set(self.core.cache.len() as i64);
    }

    /// Test-support fault injection: every template lookup whose structural
    /// fingerprint equals `fingerprint` panics **before** the cache is
    /// consulted, modeling an unexpected panic on the lookup path. Pass
    /// `None` to disarm. Hidden from docs; it exists so the panic
    /// containment of `quclear-serve` request workers can be exercised
    /// end-to-end without depending on a coincidental panicking input.
    #[doc(hidden)]
    pub fn inject_lookup_panic(&self, fingerprint: Option<ProgramFingerprint>) {
        *self
            .core
            .fault_fingerprint
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = fingerprint;
        self.core
            .fault_armed
            .store(fingerprint.is_some(), Ordering::Release);
    }

    /// Test-support fault injection: makes the single-flight *leader* for
    /// `fingerprint` sleep for the given duration before compiling, so
    /// coalescing tests can create a guaranteed-overlapping in-flight window
    /// instead of racing the (fast) real extraction. Pass `None` to disarm.
    /// Hidden from docs, like [`Self::inject_lookup_panic`].
    #[doc(hidden)]
    pub fn inject_compile_delay(&self, delay: Option<(ProgramFingerprint, std::time::Duration)>) {
        *self
            .core
            .fault_delay
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = delay;
        self.core
            .delay_armed
            .store(delay.is_some(), Ordering::Release);
    }

    /// Sleeps when a compile delay is armed for this fingerprint.
    fn maybe_injected_delay(&self, fingerprint: &ProgramFingerprint) {
        if !self.core.delay_armed.load(Ordering::Acquire) {
            return;
        }
        let armed = *self
            .core
            .fault_delay
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((target, duration)) = armed {
            if target == *fingerprint {
                std::thread::sleep(duration);
            }
        }
    }

    /// Fires the injected lookup panic when armed for this fingerprint.
    /// Disarmed (the overwhelmingly common case) this is one relaxed load.
    fn maybe_injected_panic(&self, fingerprint: &ProgramFingerprint) {
        if !self.core.fault_armed.load(Ordering::Acquire) {
            return;
        }
        let armed = *self
            .core
            .fault_fingerprint
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if armed == Some(*fingerprint) {
            panic!("injected template-lookup panic for {fingerprint}");
        }
    }

    /// Returns the cached template for a rotation program's structure.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::template`].
    pub fn template_for(
        &self,
        program: &[PauliRotation],
    ) -> Result<Arc<CompiledTemplate>, EngineError> {
        let axes: Vec<SignedPauli> = program
            .iter()
            .map(|r| SignedPauli::positive(r.pauli().clone()))
            .collect();
        self.template(&axes)
    }

    /// Compiles one program, reusing a cached template when available:
    /// [`Self::template_for`], then [`Self::bind`] with its angles.
    ///
    /// # Errors
    ///
    /// Propagates template and binding failures for this program, and
    /// [`EngineError::DeadlineExceeded`] once the handle's budget is spent.
    pub fn compile(&self, program: &[PauliRotation]) -> Result<QuClearResult, EngineError> {
        let template = self.template_for(program)?;
        let angles: Vec<f64> = program.iter().map(PauliRotation::angle).collect();
        self.bind(&template, &angles)
    }

    /// Binds `angles` to a template this engine handed out: the deadline is
    /// checked first, a panicking bind is contained as
    /// [`EngineError::CompilationPanicked`], and each success counts in
    /// [`EngineStats::binds`]. Every compile, sweep and QASM compile binds
    /// through here, after one template lookup.
    ///
    /// # Errors
    ///
    /// [`EngineError::DeadlineExceeded`] once the handle's budget is spent;
    /// otherwise as [`CompiledTemplate::bind`].
    pub fn bind(
        &self,
        template: &CompiledTemplate,
        angles: &[f64],
    ) -> Result<QuClearResult, EngineError> {
        self.deadline.check()?;
        let result = contain_panics(|| template.bind(angles))?;
        self.core.binds.inc();
        Ok(result)
    }

    /// Parameter-sweep fast path: compiles `program`'s structure once and
    /// binds every angle set in order on the calling thread.
    ///
    /// Equivalent to one [`Self::compile`] per angle set, but pays the
    /// cache lookup once instead of per set. The handle's deadline is
    /// shared by the template compilation and every bind.
    ///
    /// # Errors
    ///
    /// Returns the template error if the *structure* fails to compile;
    /// per-angle-set failures are isolated in the output vector. Angle sets
    /// bound after the budget is spent get
    /// [`EngineError::DeadlineExceeded`] in their slot.
    #[allow(clippy::type_complexity)]
    pub fn sweep(
        &self,
        program: &[PauliRotation],
        angle_sets: &[Vec<f64>],
    ) -> Result<Vec<Result<QuClearResult, EngineError>>, EngineError> {
        let template = self.template_for(program)?;
        Ok(angle_sets
            .iter()
            .map(|angles| self.bind(&template, angles))
            .collect())
    }

    /// Compiles OpenQASM 2.0 text, reusing a cached template when available.
    ///
    /// The circuit is parsed ([`quclear_circuit::qasm::from_qasm`]) and
    /// lifted into a Pauli-rotation program plus a trailing Clifford
    /// ([`quclear_core::lift()`]); the rotation structure is fingerprinted and
    /// template-cached exactly like a native program, and the trailing
    /// Clifford is composed into the returned result's extracted circuit
    /// and Heisenberg map. QASM programs that differ only in rotation
    /// angles therefore share one template: the second
    /// `compile_qasm` of an ansatz costs one parse + lift + `O(gates)`
    /// bind. The deadline is checked after the parse + lift stage and at
    /// every later stage boundary.
    ///
    /// # Errors
    ///
    /// [`EngineError::QasmParse`] when the text does not parse;
    /// [`EngineError::TooManyQubits`] when it declares more than
    /// [`MAX_QUBITS`] qubits; otherwise the same conditions as
    /// [`Self::compile`].
    ///
    /// # Examples
    ///
    /// ```
    /// use quclear_engine::Engine;
    ///
    /// let engine = Engine::new(16);
    /// let qasm = "
    ///     OPENQASM 2.0;
    ///     qreg q[2];
    ///     cx q[0], q[1]; rz(pi/3) q[1]; cx q[0], q[1];
    /// ";
    /// let result = engine.compile_qasm(qasm)?;
    /// assert!(result.cnot_count() <= 2);
    /// # Ok::<(), quclear_engine::EngineError>(())
    /// ```
    pub fn compile_qasm(&self, qasm: &str) -> Result<QuClearResult, EngineError> {
        self.compile_lifted(qasm, None)
    }

    /// Compiles OpenQASM 2.0 text with the rotation angles overridden.
    ///
    /// `angles[i]` replaces the angle of the i-th rotation gate of the
    /// circuit (in gate order, counting `t`/`tdg` as rotations) — the
    /// parameter-sweep fast path for QASM-origin ansätze: the structure is
    /// parsed, lifted and template-compiled once, then every angle set is
    /// an `O(gates)` bind. The deadline is checked as for
    /// [`Self::compile_qasm`].
    ///
    /// # Errors
    ///
    /// As [`Self::compile_qasm`], plus [`EngineError::AngleCountMismatch`]
    /// when `angles.len()` differs from the circuit's rotation count.
    pub fn bind_qasm(&self, qasm: &str, angles: &[f64]) -> Result<QuClearResult, EngineError> {
        self.compile_lifted(qasm, Some(angles))
    }

    /// Parses and lifts QASM text, then compiles the lifted program through
    /// the template cache, binding either its native angles
    /// (`angles = None`) or an explicit override. The width bound is
    /// checked before the lift, whose frame grows with its square.
    ///
    /// The template is keyed on the lifted *signed* axes, so circuits whose
    /// conjugated axes differ only by sign do not collide. The trailing
    /// Clifford is composed into the result via
    /// [`quclear_core::LiftedProgram::attach`].
    fn compile_lifted(
        &self,
        qasm: &str,
        angles: Option<&[f64]>,
    ) -> Result<QuClearResult, EngineError> {
        let circuit = from_qasm(qasm)?;
        check_width(circuit.num_qubits())?;
        let lifted = lift(&circuit);
        self.deadline.check()?;
        let template = self.template(lifted.axes())?;
        let result = self.bind(&template, angles.unwrap_or(lifted.native_angles()))?;
        Ok(lifted.attach(result))
    }

    /// CA-Pre for a program's observable set, served through the template
    /// cache: the observable set is conjugated through the extracted
    /// Clifford in one word-parallel frame sweep on first sight, and a
    /// template cache hit with a previously seen set returns the memoized
    /// rewriting without re-conjugating anything. The deadline is checked
    /// between the template lookup and the conjugation sweep.
    ///
    /// # Errors
    ///
    /// Propagates template-compilation failures and
    /// [`EngineError::DeadlineExceeded`]. A register-size mismatch
    /// between the program and the observables surfaces as
    /// [`EngineError::CompilationPanicked`] (the absorption panic is
    /// contained, like every other compilation panic).
    pub fn absorb_observables(
        &self,
        program: &[PauliRotation],
        observables: &[SignedPauli],
    ) -> Result<Arc<AbsorbedObservables>, EngineError> {
        let template = self.template_for(program)?;
        self.deadline.check()?;
        contain_panics(|| Ok(template.absorb_observables(observables)))
    }

    /// The measurement-reduction plan for a program + observable set, served
    /// through the template cache: CA-Pre absorbs the set, the absorbed
    /// frame is partitioned into general-commuting groups, and each group
    /// gets a diagonalizing Clifford with a composed affine readout map. The
    /// plan is memoized on the template (shared across clones), and the
    /// grouping + diagonalization work records under the `diagonalize` stage
    /// histogram; the group count is exported on the
    /// `quclear_engine_measurement_groups` gauge and the plan's
    /// [`MeasurementPlan::dense_passes`] on the
    /// `quclear_engine_measurement_dense_passes` gauge. The deadline is
    /// checked between the template lookup and the diagonalization sweep.
    ///
    /// # Errors
    ///
    /// Propagates template-compilation failures and
    /// [`EngineError::DeadlineExceeded`]; a register-size mismatch
    /// between program and observables surfaces as
    /// [`EngineError::CompilationPanicked`] (contained, like every other
    /// compilation panic).
    pub fn measurement_plan(
        &self,
        program: &[PauliRotation],
        observables: &[SignedPauli],
    ) -> Result<Arc<MeasurementPlan>, EngineError> {
        let template = self.template_for(program)?;
        self.plan_on(&template, observables)
    }

    /// The plan-building half of [`Self::measurement_plan`], on a template
    /// the caller already looked up.
    fn plan_on(
        &self,
        template: &CompiledTemplate,
        observables: &[SignedPauli],
    ) -> Result<Arc<MeasurementPlan>, EngineError> {
        self.deadline.check()?;
        let plan = contain_panics(|| Ok(template.measurement_plan(observables)))?;
        self.core.measurement_groups.set(plan.num_groups() as i64);
        self.core
            .measurement_dense_passes
            .set(plan.dense_passes() as i64);
        Ok(plan)
    }

    /// Estimates every observable of a program by sampled simultaneous
    /// measurement: simulate the state the *optimized* circuit prepares
    /// once (the extracted Clifford is absorbed into the observables — the
    /// CA identity), then for each commuting group of the
    /// [`Self::measurement_plan`] apply the group's diagonalizing Clifford,
    /// draw one seeded `shots`-sized batch, and read *all* group members
    /// from that single batch through the composed affine map. The total
    /// sample cost is `groups` batches instead of `observables` batches —
    /// the reported [`EstimateResult::shot_budget_divisor`]. One template
    /// lookup serves both the plan and the simulation.
    ///
    /// A group costs `1 + |A|` dense passes and O(1) expected work per shot:
    /// its diagonalizer's monomial CX/S/CZ prefix runs as one gather of the
    /// shared state into one scratch state reused by every group (no
    /// per-group clone), then one `H` pass per qubit of `A`
    /// ([`quclear_core::GroupDiagonalizer::hadamard_qubits`]), then
    /// guide-table draws ([`StateVector::sample_indices`]). The amplitudes
    /// are `==` to running the diagonalizer gate by gate, and each draw
    /// lands where a binary search over the CDF would.
    ///
    /// The optimized circuit `U'` satisfies `program = U_CL · U'`, so its
    /// state is built as `U_CL† · U_program|0⟩` (equal up to global phase,
    /// which sampling cannot see): one in-place pass per run of consecutive
    /// commuting rotations that share an X mask ([`RotationRun`](quclear_sim::RotationRun), planned
    /// once per template; a UCC excitation's 2 or 8 strings are one run),
    /// then the template's short resynthesized `U_CL` inverted — far fewer
    /// passes than the program has rotations, and no bind. The pass count
    /// is exported on the `quclear_engine_rotation_passes` gauge.
    ///
    /// Deterministic: the same `(program, observables, shots, seed)` always
    /// produces the same batches (group `g` samples with
    /// [`group_shot_seed`]`(seed, g)`) and hence the same estimates. The
    /// deadline is checked between the template lookup, the plan build and
    /// every per-group sampling, and inside the simulation before every
    /// run of about 2^20 amplitude updates, so a spent budget stops even a
    /// long simulation promptly.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NotEstimable`] when `shots` is zero or above
    /// [`MAX_ESTIMATE_SHOTS`], or the register exceeds the dense simulator's
    /// 26-qubit budget; [`EngineError::NonFiniteAngle`] for a NaN or
    /// infinite angle; otherwise as [`Self::measurement_plan`].
    pub fn estimate_observables(
        &self,
        program: &[PauliRotation],
        observables: &[SignedPauli],
        shots: u64,
        seed: u64,
    ) -> Result<EstimateResult, EngineError> {
        if shots == 0 {
            return Err(EngineError::NotEstimable {
                reason: "shot count must be positive".to_string(),
            });
        }
        if shots > MAX_ESTIMATE_SHOTS {
            return Err(EngineError::NotEstimable {
                reason: format!(
                    "{shots} shots per group exceed the budget of {MAX_ESTIMATE_SHOTS}"
                ),
            });
        }
        let template = self.template_for(program)?;
        let plan = self.plan_on(&template, observables)?;
        if plan.num_qubits() > MAX_ESTIMABLE_QUBITS {
            return Err(EngineError::NotEstimable {
                reason: format!(
                    "register of {} qubits exceeds the dense simulator budget of {MAX_ESTIMABLE_QUBITS}",
                    plan.num_qubits()
                ),
            });
        }
        let groups: Vec<Vec<usize>> = plan.groups().iter().map(|g| g.members().to_vec()).collect();
        if plan.num_groups() == 0 {
            return Ok(EstimateResult {
                expectations: Vec::new(),
                groups,
                shot_budget_divisor: plan.shot_budget_divisor(),
            });
        }
        template.check_angles(program.iter().map(PauliRotation::angle))?;
        let simulate_start = Instant::now();
        let base = contain_panics(|| self.simulate_optimized(&template, program))?;
        self.core
            .stage_simulate
            .record_duration(simulate_start.elapsed());
        let mut batches = Vec::with_capacity(plan.num_groups());
        let mut rotated = StateVector::zero_state(plan.num_qubits());
        for (g, group) in plan.groups().iter().enumerate() {
            self.deadline.check()?;
            let sample_start = Instant::now();
            let batch = contain_panics(|| {
                let diagonalizer = group.diagonalizer();
                rotated.gather(&base, diagonalizer.monomial());
                for &q in diagonalizer.hadamard_qubits() {
                    rotated.apply_gate(&Gate::H(q));
                }
                let mut rng = StdRng::seed_from_u64(group_shot_seed(seed, g));
                let indices = rotated.sample_indices(shots as usize, &mut rng);
                Ok(ShotBatch::from_indices(plan.num_qubits(), &indices))
            })?;
            self.core
                .stage_sample
                .record_duration(sample_start.elapsed());
            batches.push(batch);
        }
        let readout_start = Instant::now();
        let expectations = plan.estimate(&batches);
        self.core
            .stage_readout
            .record_duration(readout_start.elapsed());
        Ok(EstimateResult {
            expectations,
            groups,
            shot_budget_divisor: plan.shot_budget_divisor(),
        })
    }

    /// `U_CL† · U_program|0⟩`, the optimized circuit's state up to global
    /// phase: one pass per run of `program`'s memoized [`RotationRun`](quclear_sim::RotationRun)
    /// plan, then the inverse extracted gates the template stores. Passes go in
    /// batches of `max(1, 2^20 / 2^n)` (about 10^6 amplitude updates), with
    /// a deadline check before each batch.
    fn simulate_optimized(
        &self,
        template: &CompiledTemplate,
        program: &[PauliRotation],
    ) -> Result<StateVector, EngineError> {
        let n = template.num_qubits();
        let batch = ((1usize << 20) >> n).max(1);
        let runs = template.rotation_runs(program);
        self.core.rotation_passes.set(runs.len() as i64);
        let mut state = StateVector::zero_state(n);
        for runs in runs.chunks(batch) {
            self.deadline.check()?;
            for run in runs {
                state.apply_rotation_run(run, &program[run.range()]);
            }
        }
        for gates in template.inverse_extracted_gates().chunks(batch) {
            self.deadline.check()?;
            gates.iter().for_each(|gate| state.apply_gate(gate));
        }
        Ok(state)
    }

    /// The engine's metric registry: per-stage latency histograms
    /// ([`ENGINE_STAGE_METRIC`], [`ENGINE_SINGLEFLIGHT_METRIC`]) plus the
    /// cache counters behind [`Engine::stats`]. Other subsystems (the
    /// `quclear-serve` front-end) register their own metrics here so one
    /// snapshot covers the whole process.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.core.metrics
    }

    /// A coherent snapshot of every metric in [`Engine::metrics`], with the
    /// cache-occupancy gauge refreshed first (it is a derived quantity the
    /// hot path does not maintain exactly — see [`EngineStats::entries`]).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.refresh_cache_entries();
        self.core.metrics.snapshot()
    }

    /// A point-in-time snapshot of the counters.
    ///
    /// Safe to call concurrently with requests; see the staleness contract
    /// on [`EngineStats`]. Each counter is read exactly once (so successive
    /// snapshots are monotone per field), and the read order pins the
    /// cross-field invariants:
    /// `coalesced_waits` is read *first* (Acquire, pairing with the Release
    /// increment that every coalesced request performs after its hit/miss),
    /// so `coalesced_waits <= hits + misses` in every snapshot, and the
    /// `hits`/`misses` pair can only make the reported hit rate
    /// conservative, never push [`EngineStats::hit_rate`] out of `[0, 1]`.
    ///
    /// The counters read here are the *same atomic cells* the telemetry
    /// registry snapshots ([`Engine::metrics_snapshot`]) — registering a
    /// counter twice returns one shared cell — so there is one source of
    /// truth and the two views cannot drift. `stats()` keeps its own read
    /// path (instead of going through the registry snapshot) for exactly one
    /// reason: the `coalesced_waits`-first Acquire read order above, which a
    /// name-ordered registry sweep would not preserve.
    pub fn stats(&self) -> EngineStats {
        // ordering: Acquire, and read *first* — pairs with the Release
        // increment above so `coalesced_waits <= hits + misses` holds in
        // every snapshot (model-checked in tests/sched_models.rs).
        let core = &*self.core;
        let coalesced_waits = core.coalesced_waits.get_ordered(Ordering::Acquire);
        let hits = core.hits.get();
        let misses = core.misses.get();
        EngineStats {
            hits,
            misses,
            coalesced_waits,
            evictions: core.evictions.get(),
            binds: core.binds.get(),
            entries: core.cache.len(),
            capacity: core.cache.capacity(),
        }
    }

    /// Drops every cached template (counters are kept).
    pub fn clear_cache(&self) {
        self.core.cache.clear();
        self.core.cache_entries.set(0);
    }
}

/// Refuses a register wider than [`MAX_QUBITS`].
fn check_width(qubits: usize) -> Result<(), EngineError> {
    if qubits > MAX_QUBITS {
        return Err(EngineError::TooManyQubits {
            qubits,
            limit: MAX_QUBITS,
        });
    }
    Ok(())
}

/// Runs `f`, converting a panic into [`EngineError::CompilationPanicked`].
fn contain_panics<T>(f: impl FnOnce() -> Result<T, EngineError>) -> Result<T, EngineError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(EngineError::CompilationPanicked { message })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn rot(s: &str, angle: f64) -> PauliRotation {
        PauliRotation::parse(s, angle).unwrap()
    }

    fn program_a() -> Vec<PauliRotation> {
        vec![rot("ZZZZ", 0.3), rot("YYXX", 0.7)]
    }

    #[test]
    fn cache_hits_on_structural_match() {
        let engine = Engine::new(8);
        engine.compile(&program_a()).unwrap();
        // Same axes, new angles: must hit.
        engine
            .compile(&[rot("ZZZZ", -1.2), rot("YYXX", 0.001)])
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.binds, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_is_counted() {
        let engine = Engine::new(2);
        let programs = [
            vec![rot("XX", 0.1)],
            vec![rot("YY", 0.1)],
            vec![rot("ZZ", 0.1)],
        ];
        for p in &programs {
            engine.compile(p).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // The evicted (oldest) structure misses again.
        engine.compile(&programs[0]).unwrap();
        assert_eq!(engine.stats().misses, 4);
    }

    #[test]
    fn default_engine_evicts_exact_lru() {
        let engine = Engine::new(2);
        let (a, b, c) = (
            vec![rot("XX", 0.1)],
            vec![rot("YY", 0.1)],
            vec![rot("ZZ", 0.1)],
        );
        engine.compile(&a).unwrap();
        engine.compile(&b).unwrap();
        engine.compile(&a).unwrap(); // hit: b becomes least recently used
        engine.compile(&c).unwrap(); // evicts b, whatever the keys hash to
        assert_eq!((engine.stats().hits, engine.stats().misses), (1, 3));
        engine.compile(&a).unwrap();
        assert_eq!(
            (engine.stats().hits, engine.stats().misses),
            (2, 3),
            "a stayed"
        );
        engine.compile(&b).unwrap();
        assert_eq!(
            (engine.stats().hits, engine.stats().misses),
            (2, 4),
            "b was evicted"
        );
    }

    #[test]
    fn sweep_reuses_one_template() {
        let engine = Engine::new(8);
        let program = program_a();
        let angle_sets: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![0.1 * f64::from(i), -0.05 * f64::from(i)])
            .collect();
        let results = engine.sweep(&program, &angle_sets).unwrap();
        assert_eq!(results.len(), 20);
        assert!(results.iter().all(Result::is_ok));
        let stats = engine.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.binds, 20);
        // Slot i holds exactly what compiling angle set i would return.
        for (result, angles) in results.iter().zip(&angle_sets) {
            let program: Vec<PauliRotation> = program
                .iter()
                .zip(angles)
                .map(|(r, &angle)| PauliRotation::new(r.pauli().clone(), angle))
                .collect();
            let (swept, direct) = (result.as_ref().unwrap(), engine.compile(&program).unwrap());
            assert_eq!(swept.optimized.gates(), direct.optimized.gates());
            assert_eq!(swept.extracted.gates(), direct.extracted.gates());
        }
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = Arc::new(Engine::new(8));
        let program = program_a();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = Arc::clone(&engine);
                let program = program.clone();
                scope.spawn(move || {
                    for i in 0..10 {
                        engine
                            .compile(&[rot("ZZZZ", 0.01 * f64::from(i)), rot("YYXX", 0.5)])
                            .unwrap();
                    }
                    drop(program);
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.hits + stats.misses, 40);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.binds, 40);
    }

    #[test]
    fn clear_cache_keeps_counters() {
        let engine = Engine::new(8);
        engine.compile(&program_a()).unwrap();
        engine.clear_cache();
        let stats = engine.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);
        engine.compile(&program_a()).unwrap();
        assert_eq!(engine.stats().misses, 2);
    }

    #[test]
    fn qasm_programs_share_templates_across_angle_changes() {
        let engine = Engine::new(8);
        let ansatz = |theta: f64| {
            format!("qreg q[3];\ncx q[0], q[1];\ncx q[1], q[2];\nrz({theta}) q[2];\ncx q[1], q[2];\ncx q[0], q[1];\n")
        };
        let first = engine.compile_qasm(&ansatz(0.25)).unwrap();
        let second = engine.compile_qasm(&ansatz(-1.75)).unwrap();
        assert_eq!(first.optimized.len(), second.optimized.len());
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // bind_qasm overrides the textual angle through the same template.
        let bound = engine.bind_qasm(&ansatz(0.0), &[2.5]).unwrap();
        assert_eq!(engine.stats().hits, 2);
        assert_eq!(bound.optimized.len(), first.optimized.len());
    }

    #[test]
    fn bind_qasm_validates_the_angle_count() {
        let engine = Engine::new(8);
        let qasm = "qreg q[2];\nrz(0.5) q[0];\nrx(0.25) q[1];\n";
        assert!(matches!(
            engine.bind_qasm(qasm, &[0.1]).unwrap_err(),
            EngineError::AngleCountMismatch {
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn qasm_parse_errors_surface_with_their_location() {
        let engine = Engine::new(8);
        let err = engine.compile_qasm("qreg q[1];\nccx q[0];\n").unwrap_err();
        let EngineError::QasmParse(inner) = err else {
            panic!("expected a parse error");
        };
        assert_eq!(inner.line, 2);
    }

    #[test]
    fn expired_deadline_fails_a_cold_compile_fast() {
        let engine = Engine::new(8);
        let err = engine
            .with_deadline(Deadline::within(std::time::Duration::ZERO))
            .compile(&program_a())
            .unwrap_err();
        assert_eq!(err, EngineError::DeadlineExceeded);
        // The budget check fired before extraction: nothing was cached.
        assert_eq!(engine.stats().entries, 0);
    }

    #[test]
    fn expired_deadline_still_serves_cache_hits() {
        let engine = Engine::new(8);
        engine.compile(&program_a()).unwrap();
        // A hit costs microseconds; serving it beats composing the error.
        let template = engine
            .with_deadline(Deadline::within(std::time::Duration::ZERO))
            .template_for(&program_a())
            .unwrap();
        assert!(template.num_params() > 0);
        assert_eq!(engine.stats().hits, 1);
    }

    #[test]
    fn qasm_deadlines_cover_the_lifted_pipeline() {
        let engine = Engine::new(8);
        let qasm = "qreg q[2];\ncx q[0], q[1];\nrz(0.5) q[1];\ncx q[0], q[1];\n";
        let err = engine
            .with_deadline(Deadline::within(std::time::Duration::ZERO))
            .compile_qasm(qasm)
            .unwrap_err();
        assert_eq!(err, EngineError::DeadlineExceeded);
        let generous = engine.with_deadline(Deadline::within(std::time::Duration::from_secs(60)));
        generous.compile_qasm(qasm).unwrap();
        generous.bind_qasm(qasm, &[1.5]).unwrap();
    }

    #[test]
    fn deadline_handles_share_the_cache_and_registry() {
        let engine = Engine::new(8);
        let handle = engine.with_deadline(Deadline::within(std::time::Duration::from_secs(60)));
        handle.compile(&program_a()).unwrap();
        assert_eq!((engine.stats().hits, engine.stats().misses), (0, 1));
        // The plain engine sees the template the handle compiled.
        engine.compile(&program_a()).unwrap();
        assert_eq!((engine.stats().hits, engine.stats().misses), (1, 1));
        assert_eq!(handle.stats(), engine.stats());
        assert!(Arc::ptr_eq(engine.metrics(), handle.metrics()));
    }

    #[test]
    fn a_plain_engine_never_exceeds_a_deadline() {
        let engine = Engine::new(8);
        let slow = ProgramFingerprint::of_program(&program_a(), engine.config());
        engine.inject_compile_delay(Some((slow, std::time::Duration::from_millis(20))));
        engine.compile(&program_a()).unwrap();
        engine.inject_compile_delay(None);
        engine.compile(&program_a()).unwrap();
        engine.compile(&[rot("XX", 0.1)]).unwrap();
        engine.sweep(&program_a(), &[vec![0.1, 0.2]]).unwrap()[0]
            .as_ref()
            .unwrap();
        engine
            .compile_qasm("qreg q[2];\ncx q[0], q[1];\nrz(0.5) q[1];\n")
            .unwrap();
    }

    #[test]
    fn contained_panics_become_errors() {
        let err = contain_panics::<()>(|| panic!("boom")).unwrap_err();
        assert_eq!(
            err,
            EngineError::CompilationPanicked {
                message: "boom".to_string()
            }
        );
    }

    #[test]
    fn hit_rate_handles_zero_lookups_and_saturation() {
        // Zero lookups: defined as 0.0, not NaN.
        assert_eq!(EngineStats::default().hit_rate(), 0.0);
        // Saturating totals stay in [0, 1] even at the u64 extremes.
        let extreme = EngineStats {
            hits: u64::MAX,
            misses: u64::MAX,
            ..EngineStats::default()
        };
        let rate = extreme.hit_rate();
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
        // All hits: exactly 1.
        let all_hits = EngineStats {
            hits: 7,
            ..EngineStats::default()
        };
        assert_eq!(all_hits.hit_rate(), 1.0);
    }

    #[test]
    fn stats_and_metrics_snapshot_read_the_same_cells() {
        let engine = Engine::new(8);
        engine.compile(&program_a()).unwrap();
        engine.compile(&program_a()).unwrap();
        let stats = engine.stats();
        let snapshot = engine.metrics_snapshot();
        assert_eq!(
            snapshot.counter_value("quclear_engine_cache_hits_total", None),
            Some(stats.hits)
        );
        assert_eq!(
            snapshot.counter_value("quclear_engine_cache_misses_total", None),
            Some(stats.misses)
        );
        assert_eq!(
            snapshot.counter_value("quclear_engine_binds_total", None),
            Some(stats.binds)
        );
        assert_eq!(
            snapshot.counter_value("quclear_engine_coalesced_waits_total", None),
            Some(stats.coalesced_waits)
        );
        assert_eq!(
            snapshot.gauge_value("quclear_engine_cache_entries", None),
            Some(stats.entries as i64)
        );
        assert_eq!(
            snapshot.gauge_value("quclear_engine_cache_capacity", None),
            Some(stats.capacity as i64)
        );
    }

    #[test]
    fn pipeline_stages_record_into_the_registry() {
        let engine = Engine::new(8);
        engine.compile(&program_a()).unwrap();
        engine.compile(&program_a()).unwrap();
        let observables: Vec<SignedPauli> = vec!["+ZIII".parse().unwrap()];
        engine
            .absorb_observables(&program_a(), &observables)
            .unwrap();
        let stage = |name: &str| {
            engine
                .metrics_snapshot()
                .histogram(ENGINE_STAGE_METRIC, Some(("stage", name)))
                .unwrap_or_else(|| panic!("stage `{name}` not registered"))
                .count()
        };
        // Two compiles: two fingerprint timings (plus one from absorb's
        // template lookup), one extract, two binds.
        assert!(stage("fingerprint") >= 2);
        assert_eq!(stage("extract"), 1);
        assert_eq!(stage("bind"), 2);
        assert_eq!(stage("absorb_pre"), 1);
        // Compiles render nothing; a served render of a bind is one stage.
        assert_eq!(stage("render"), 0);
        let template = engine.template_for(&program_a()).unwrap();
        let bound = engine.bind(&template, &[0.3, 0.7]).unwrap();
        let _ = template.render_qasm(&bound.optimized);
        assert_eq!(stage("render"), 1);
        // Uncontended compiles lead their own flights.
        let leader = engine
            .metrics_snapshot()
            .histogram(ENGINE_SINGLEFLIGHT_METRIC, Some(("role", "leader")))
            .unwrap();
        assert_eq!(leader.count(), 1);
        // A plan for the absorbed set reuses its CA-Pre result and is itself
        // memoized: one diagonalization, no new frame sweep.
        engine.measurement_plan(&program_a(), &observables).unwrap();
        let plan = engine.measurement_plan(&program_a(), &observables).unwrap();
        assert_eq!(stage("absorb_pre"), 1);
        assert_eq!(stage("diagonalize"), 1);
        let gauge = |name: &str| engine.metrics_snapshot().gauge_value(name, None);
        assert_eq!(gauge("quclear_engine_measurement_groups"), Some(1));
        assert_eq!(
            gauge("quclear_engine_measurement_dense_passes"),
            Some(plan.dense_passes() as i64)
        );
        // A new set pays one sweep and one diagonalization, and the gauges
        // follow the newest plan: one gather plus one Hadamard pass.
        let other: Vec<SignedPauli> = vec!["+XIII".parse().unwrap()];
        let plan = engine.measurement_plan(&program_a(), &other).unwrap();
        assert_eq!(stage("absorb_pre"), 2);
        assert_eq!(stage("diagonalize"), 2);
        assert_eq!(
            plan.dense_passes(),
            1 + plan.groups()[0].diagonalizer().hadamard_qubits().len()
        );
        assert_eq!(
            gauge("quclear_engine_measurement_dense_passes"),
            Some(plan.dense_passes() as i64)
        );
        // An estimate runs one pass per rotation run: ZZZZ and YYXX have
        // different X masks, so two.
        assert_eq!(gauge("quclear_engine_rotation_passes"), Some(0));
        engine
            .estimate_observables(&program_a(), &other, 16, 3)
            .unwrap();
        assert_eq!(stage("simulate"), 1);
        assert_eq!(gauge("quclear_engine_rotation_passes"), Some(2));
    }

    #[test]
    fn registers_wider_than_the_bound_are_refused_before_any_work() {
        let engine = Engine::new(8);
        let too_wide = |qubits: usize| EngineError::TooManyQubits {
            qubits,
            limit: MAX_QUBITS,
        };
        let axis = |width: usize| -> SignedPauli { "Z".repeat(width).parse().unwrap() };
        assert_eq!(
            engine.template(&[axis(MAX_QUBITS + 1)]).unwrap_err(),
            too_wide(MAX_QUBITS + 1)
        );
        let qasm = format!("qreg q[{}];\nh q[0];\n", MAX_QUBITS + 1);
        assert_eq!(
            engine.compile_qasm(&qasm).unwrap_err(),
            too_wide(MAX_QUBITS + 1)
        );
        assert_eq!(
            engine.bind_qasm(&qasm, &[]).unwrap_err(),
            too_wide(MAX_QUBITS + 1)
        );
        // Nothing was fingerprinted, looked up or compiled.
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        let fingerprints = engine
            .metrics_snapshot()
            .histogram(ENGINE_STAGE_METRIC, Some(("stage", "fingerprint")))
            .map_or(0, |h| h.count());
        assert_eq!(fingerprints, 0);
        // The bound itself is served.
        engine.template(&[axis(MAX_QUBITS)]).unwrap();
    }
}
