//! The traced replay. Spans are recorded from the benchmark's own code,
//! around public calls into each layer: the client-side encode and decode
//! during the traced round trip, and every server-side layer by replaying
//! the same request in-process after the window, one request at a time.
//!
//! A span's self time is its duration minus the layers it re-runs that are
//! also timed on their own: `Engine::template` re-fingerprints (and, on a
//! miss, re-extracts), `Engine::measurement_plan` and `Engine::sweep`
//! re-run the fingerprint and the lookup. The round trip's own self time —
//! what no layer accounts for: frame I/O, wakeups, queueing — is
//! `protocol.transport_residual`.

use std::collections::BTreeMap;
use std::time::Instant;

use quclear_circuit::qasm::to_qasm;
use quclear_core::ShotBatch;
use quclear_engine::{
    group_shot_seed, CompiledTemplate, Engine, ProgramFingerprint, ENGINE_STAGE_METRIC,
};
use quclear_pauli::{PauliRotation, SignedPauli};
use quclear_serve::{CompiledSummary, Request, RequestKind, Response, ResponseBody};
use quclear_sim::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::drive::Traced;

/// Timed layers, in report order, with the unit of their per-call median.
pub const LAYERS: [(&str, Unit); 18] = [
    ("client.req_encode", Unit::Us),
    ("client.resp_decode", Unit::Us),
    ("protocol.req_decode", Unit::Us),
    ("protocol.resp_encode", Unit::Us),
    ("protocol.transport_residual", Unit::Us),
    ("pauli.parse", Unit::Us),
    ("engine.fingerprint", Unit::Us),
    ("engine.cache_lookup", Unit::Us),
    ("core.extract", Unit::Ms),
    ("engine.bind", Unit::Us),
    ("engine.sweep", Unit::Ms),
    ("circuit.qasm_render", Unit::Us),
    ("core.plan", Unit::Us),
    ("sim.simulate", Unit::Ms),
    ("sim.diagonalize", Unit::Ms),
    ("sim.sample", Unit::Ms),
    ("core.pack", Unit::Ms),
    ("core.readout", Unit::Ms),
];

const RESIDUAL: &str = "protocol.transport_residual";

#[derive(Clone, Copy, Debug)]
pub enum Unit {
    Us,
    Ms,
}

impl Unit {
    pub fn suffix(self) -> &'static str {
        match self {
            Unit::Us => "us",
            Unit::Ms => "ms",
        }
    }

    pub fn of_ns(self, ns: f64) -> f64 {
        match self {
            Unit::Us => ns / 1e3,
            Unit::Ms => ns / 1e6,
        }
    }
}

/// Positive axes (the engine's cache key), sign-folded rotations, and
/// observables of a replayed request.
type Parsed = (Vec<SignedPauli>, Vec<PauliRotation>, Vec<SignedPauli>);

/// One span: a timed call on behalf of one request.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub self_ns: u64,
    /// False for probes that re-run work a sibling span already covers
    /// (the sequential per-point binds of a sweep, whose parallel binds the
    /// `engine.sweep` span holds); probes stay out of the coverage sum.
    pub on_path: bool,
}

/// In-memory span store plus the per-request counts measured alongside.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Named per-request counts (medians are reported).
    pub counts: BTreeMap<&'static str, Vec<f64>>,
    /// Root span of every replayed request.
    pub roots: Vec<usize>,
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
            counts: BTreeMap::new(),
            roots: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        ns(t.saturating_duration_since(self.epoch))
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: usize,
        self_ns: Option<u64>,
        on_path: bool,
    ) -> u64 {
        let duration = ns(end - start);
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent: Some(parent),
            request,
            self_ns: self_ns.unwrap_or(duration),
            on_path,
        });
        duration
    }

    /// Times `f` as a span under `parent`; returns its value and duration.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let end = Instant::now();
        let duration = self.push(name, start, end, parent, None, true);
        (value, duration)
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Records a traced round trip's client-side spans and replays its
    /// request through the server-side layers. Fails when the replay's
    /// answer differs from the one the server sent: the replay must walk
    /// the path the request took.
    pub fn replay(
        &mut self,
        engine: &Engine,
        cold: bool,
        request_id: u64,
        traced: &Traced,
    ) -> Result<(), String> {
        let [t0, t1, t2, t3] = traced.marks;
        let root = self.spans.len();
        self.spans.push(Span {
            name: "round_trip",
            start_ns: self.at(t0),
            end_ns: self.at(t3),
            parent: None,
            request: request_id,
            self_ns: 0,
            on_path: false,
        });
        self.roots.push(root);
        self.push("client.req_encode", t0, t1, root, None, true);
        self.push("client.resp_decode", t2, t3, root, None, true);
        self.count("protocol.req_bytes", traced.request.len() as f64);
        self.count("protocol.resp_bytes", traced.response_bytes as f64);

        let (decoded, _) = self.time("protocol.req_decode", root, || {
            Request::decode(&traced.request)
        });
        let request = decoded.map_err(|e| format!("replay decode: {e}"))?;
        let body = match request.kind {
            RequestKind::Compile { program, angles } => {
                self.compile(engine, cold, root, &program, &angles)?
            }
            RequestKind::Sweep {
                program,
                angle_sets,
            } => self.sweep(engine, root, &program, &angle_sets)?,
            RequestKind::Estimate {
                program,
                angles,
                observables,
                shots,
                seed,
            } => self.estimate(engine, root, &program, &angles, &observables, shots, seed)?,
            other => {
                return Err(format!(
                    "replay of unexpected request kind {}",
                    other.name()
                ))
            }
        };
        if body != traced.body {
            return Err(format!(
                "replayed {} answer differs from the served one",
                request.id
            ));
        }
        let response = Response {
            id: request.id,
            body: Ok(body),
        };
        self.time("protocol.resp_encode", root, || response.encode());
        Ok(())
    }

    /// Parses axes (and folds their signs into the angles) as the server
    /// does, returning the positive axes the engine keys on.
    fn parse(
        &mut self,
        root: usize,
        program: &[String],
        angles: &[f64],
        observables: &[String],
    ) -> Result<Parsed, String> {
        let (parsed, _) = self.time("pauli.parse", root, || -> Result<_, String> {
            let axes = program
                .iter()
                .map(|a| {
                    a.parse::<SignedPauli>()
                        .map_err(|e| format!("axis {a}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let rotations: Vec<PauliRotation> = axes
                .iter()
                .zip(angles)
                .map(|(axis, &angle)| PauliRotation::with_signed_pauli(axis.clone(), angle))
                .collect();
            let positive = rotations
                .iter()
                .map(|r| SignedPauli::positive(r.pauli().clone()))
                .collect();
            let observables = observables
                .iter()
                .map(|o| {
                    o.parse::<SignedPauli>()
                        .map_err(|e| format!("observable {o}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((positive, rotations, observables))
        });
        parsed
    }

    /// Fingerprint plus template lookup. A cold replay first times the
    /// extraction on its own, then clears the cache so the lookup misses as
    /// the served request did.
    fn lookup(
        &mut self,
        engine: &Engine,
        cold: bool,
        root: usize,
        axes: &[SignedPauli],
    ) -> Result<(std::sync::Arc<CompiledTemplate>, u64), String> {
        let (_, fingerprint_ns) = self.time("engine.fingerprint", root, || {
            ProgramFingerprint::of_axes(axes, engine.config())
        });
        if cold {
            let (compiled, _) = self.time("core.extract", root, || {
                CompiledTemplate::compile(axes, engine.config())
            });
            compiled.map_err(|e| format!("replay extract: {e}"))?;
            engine.clear_cache();
        }
        // A miss extracts inside the lookup; the engine's own extract-stage
        // histogram says exactly how long, so the lookup's self time is what
        // the cache and single-flight add around it.
        let extract_stage = engine
            .metrics()
            .find_histogram(ENGINE_STAGE_METRIC, Some(("stage", "extract")));
        let extracted_ns = || extract_stage.as_ref().map_or(0, |h| h.snapshot().sum());
        let extracted_before = extracted_ns();
        let start = Instant::now();
        let template = engine.template(axes);
        let end = Instant::now();
        let inner_extract = extracted_ns().saturating_sub(extracted_before);
        let self_ns = ns(end - start).saturating_sub(fingerprint_ns + inner_extract);
        self.push("engine.cache_lookup", start, end, root, Some(self_ns), true);
        let template = template.map_err(|e| format!("replay lookup: {e}"))?;
        self.count("core.extracted_gates", template.extracted().len() as f64);
        self.count("core.skeleton_cx", template.skeleton_cnot_count() as f64);
        Ok((template, fingerprint_ns + self_ns))
    }

    fn summarize(&mut self, root: usize, result: &quclear_core::QuClearResult) -> CompiledSummary {
        let (optimized_qasm, _) =
            self.time("circuit.qasm_render", root, || to_qasm(&result.optimized));
        let (extracted_qasm, _) =
            self.time("circuit.qasm_render", root, || to_qasm(&result.extracted));
        self.count(
            "circuit.qasm_bytes",
            (optimized_qasm.len() + extracted_qasm.len()) as f64,
        );
        CompiledSummary {
            optimized_qasm,
            extracted_qasm,
            num_qubits: result.optimized.num_qubits(),
            cnot_count: result.cnot_count(),
            gate_count: result.optimized.len(),
        }
    }

    fn compile(
        &mut self,
        engine: &Engine,
        cold: bool,
        root: usize,
        program: &[String],
        angles: &[f64],
    ) -> Result<ResponseBody, String> {
        let (axes, rotations, _) = self.parse(root, program, angles, &[])?;
        let (template, _) = self.lookup(engine, cold, root, &axes)?;
        let (bound, _) = self.time("engine.bind", root, || template.bind_program(&rotations));
        let bound = bound.map_err(|e| format!("replay bind: {e}"))?;
        Ok(ResponseBody::Compiled(self.summarize(root, &bound)))
    }

    fn sweep(
        &mut self,
        engine: &Engine,
        root: usize,
        program: &[String],
        angle_sets: &[Vec<f64>],
    ) -> Result<ResponseBody, String> {
        let (axes, rotations, _) = self.parse(root, program, &vec![0.0; program.len()], &[])?;
        let (template, lookup_ns) = self.lookup(engine, false, root, &axes)?;
        let start = Instant::now();
        let results = std::hint::black_box(engine.sweep(&rotations, angle_sets));
        let end = Instant::now();
        let self_ns = ns(end - start).saturating_sub(lookup_ns);
        self.push("engine.sweep", start, end, root, Some(self_ns), true);
        let results = results.map_err(|e| format!("replay sweep: {e}"))?;
        for angles in angle_sets {
            let start = Instant::now();
            let _ = std::hint::black_box(template.bind(angles));
            self.push("engine.bind", start, Instant::now(), root, None, false);
        }
        let mut summaries = Vec::with_capacity(results.len());
        for result in results {
            let result = result.map_err(|e| format!("replay sweep point: {e}"))?;
            summaries.push(Ok(self.summarize(root, &result)));
        }
        Ok(ResponseBody::Sweep(summaries))
    }

    #[allow(clippy::too_many_arguments)]
    fn estimate(
        &mut self,
        engine: &Engine,
        root: usize,
        program: &[String],
        angles: &[f64],
        observables: &[String],
        shots: u64,
        seed: u64,
    ) -> Result<ResponseBody, String> {
        let (axes, rotations, observables) = self.parse(root, program, angles, observables)?;
        let plan_start = Instant::now();
        let plan = engine.measurement_plan(&rotations, &observables);
        let plan_end = Instant::now();
        let (template, lookup_ns) = self.lookup(engine, false, root, &axes)?;
        let plan_self = ns(plan_end - plan_start).saturating_sub(lookup_ns);
        self.push(
            "core.plan",
            plan_start,
            plan_end,
            root,
            Some(plan_self),
            true,
        );
        let plan = plan.map_err(|e| format!("replay plan: {e}"))?;
        self.count("core.groups", plan.num_groups() as f64);
        self.count("core.shot_budget_divisor", plan.shot_budget_divisor());

        let (bound, _) = self.time("engine.bind", root, || template.bind_program(&rotations));
        let bound = bound.map_err(|e| format!("replay bind: {e}"))?;
        let (base, _) = self.time("sim.simulate", root, || {
            StateVector::from_circuit(&bound.optimized)
        });
        self.count(
            "sim.amp_gate_ops",
            ((1u64 << plan.num_qubits()) * bound.optimized.len() as u64) as f64,
        );
        let shots =
            usize::try_from(shots).map_err(|_| "shot count does not fit in memory".to_string())?;
        let mut batches = Vec::with_capacity(plan.num_groups());
        for (g, group) in plan.groups().iter().enumerate() {
            let (rotated, _) = self.time("sim.diagonalize", root, || {
                let mut rotated = base.clone();
                rotated.apply_circuit(group.diagonalizer().circuit());
                rotated
            });
            let (indices, _) = self.time("sim.sample", root, || {
                let mut rng = StdRng::seed_from_u64(group_shot_seed(seed, g));
                rotated.sample_indices(shots, &mut rng)
            });
            let (batch, _) = self.time("core.pack", root, || {
                ShotBatch::from_indices(plan.num_qubits(), &indices)
            });
            batches.push(batch);
        }
        let (expectations, _) = self.time("core.readout", root, || plan.estimate(&batches));
        Ok(ResponseBody::Estimated {
            expectations,
            groups: plan.groups().iter().map(|g| g.members().to_vec()).collect(),
            shot_budget_divisor: plan.shot_budget_divisor(),
        })
    }

    /// Per-layer calls, per-call median self time (ns) and share of the
    /// summed round trips; plus the trace coverage.
    pub fn layers(&self) -> (BTreeMap<&'static str, LayerStats>, f64) {
        let mut per_layer: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut covered: BTreeMap<usize, u64> = BTreeMap::new();
        for span in &self.spans {
            let Some(parent) = span.parent else { continue };
            per_layer.entry(span.name).or_default().push(span.self_ns);
            if span.on_path {
                *covered.entry(parent).or_default() += span.self_ns;
            }
        }
        // Guards the shares against an empty trace, which the caller reports.
        let mut round_trip_total = f64::MIN_POSITIVE;
        let mut residuals = Vec::with_capacity(self.roots.len());
        for &root in &self.roots {
            let rt = (self.spans[root].end_ns - self.spans[root].start_ns) as f64;
            round_trip_total += rt;
            residuals.push(rt - covered.get(&root).copied().unwrap_or(0) as f64);
        }
        let mut stats = BTreeMap::new();
        for (name, mut selfs) in per_layer {
            selfs.sort_unstable();
            let sum: u64 = selfs.iter().sum();
            stats.insert(
                name,
                LayerStats {
                    calls: selfs.len(),
                    median_ns: median_u64(&selfs),
                    share: sum as f64 / round_trip_total,
                },
            );
        }
        residuals.sort_by(f64::total_cmp);
        let residual_sum: f64 = residuals.iter().sum();
        stats.insert(
            RESIDUAL,
            LayerStats {
                calls: residuals.len(),
                median_ns: median_f64(&residuals),
                share: residual_sum / round_trip_total,
            },
        );
        let coverage = 1.0 - residual_sum / round_trip_total;
        (stats, coverage)
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStats {
    pub calls: usize,
    pub median_ns: f64,
    pub share: f64,
}

pub fn median_u64(sorted: &[u64]) -> f64 {
    let v: Vec<f64> = sorted.iter().map(|&x| x as f64).collect();
    median_f64(&v)
}

pub fn median_f64(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
