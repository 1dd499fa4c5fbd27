//! The test space: a case is a [`CasePlan`] plus an [`Axes`] value — six
//! orthogonal axes saying *how* the plan is run (DESIGN.md, "Model oracle",
//! has the table). The harness visits every cell of `threads × fast ×
//! cache × damage` under the case's source, runner and window.
//!
//! The seven historical modes are fixed projections ([`Axes::for_mode`])
//! that draw from the same SplitMix64 streams they always did, so every
//! old seed replays the same plan, riders and schedule. [`Mode::Composed`]
//! draws every axis independently, restricted only by [`Axes::legal`].

use rodb_compress::{Codec, ColumnCompression};
use rodb_engine::{AggSpec, CmpOp, Predicate};
use rodb_types::{DataType, FaultSpec, IngestSpec, OnCorrupt, ServiceSpec, SplitMix64, Value};

use crate::gen::CasePlan;

const CONCURRENT_STREAM: u64 = 0xc0c0_17ab_5eed_5eed;
const OBSERVE_STREAM: u64 = 0x0b5e_7e5e_ed15_c0de;
const INGEST_STREAM: u64 = 0x16e5_7a11_0c5e_ed17;
const COMPOSED_STREAM: u64 = 0xc0a1_e5ce_0a11_a8e5;

/// Which projection of the axis space a seed is run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Faults,
    Recovery,
    Cache,
    Concurrent,
    Observe,
    Ingest,
    Composed,
}

impl Mode {
    pub const ALL: [Mode; 8] = [
        Mode::Plain,
        Mode::Faults,
        Mode::Recovery,
        Mode::Cache,
        Mode::Concurrent,
        Mode::Observe,
        Mode::Ingest,
        Mode::Composed,
    ];

    /// The `--mode` spelling.
    pub fn name(self) -> String {
        format!("{self:?}").to_lowercase()
    }

    pub fn parse(name: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// Fault injection and the policy that meets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    None,
    /// Every primary read damaged, clean second replica, `OnCorrupt::Retry`.
    Retry,
    /// Single replica, `OnCorrupt::Skip`, pages damaged at this rate (ppm).
    Skip(u32),
    /// Every read damaged, single replica, `OnCorrupt::Fail`.
    Fail,
}

impl Damage {
    /// `(faults, mirror, on_corrupt)` for `SystemConfig`.
    pub fn config(self, seed: u64) -> (Option<FaultSpec>, usize, OnCorrupt) {
        match self {
            Damage::None => (None, 1, OnCorrupt::Fail),
            Damage::Retry => (Some(FaultSpec::always(seed)), 2, OnCorrupt::Retry),
            Damage::Skip(ppm) => (Some(FaultSpec::at_rate(seed, ppm)), 1, OnCorrupt::Skip),
            Damage::Fail => (Some(FaultSpec::always(seed)), 1, OnCorrupt::Fail),
        }
    }
}

/// The knobs of an ingest source, plus the stream its insert/merge/crash
/// schedule continues to draw from.
#[derive(Debug, Clone)]
pub struct IngestDraw {
    pub sort_by: Option<usize>,
    pub spec: IngestSpec,
    pub rng: SplitMix64,
    /// Read the snapshot of a store recovered from the full WAL image
    /// instead of the live store's.
    pub recovered: bool,
}

impl IngestDraw {
    /// Adapt `plan` for ingest and draw the ingest-only knobs.
    ///
    /// A merge re-sorts on at most one key, so the first FOR-delta column
    /// (which *requires* sorted input) becomes the sort key and any further
    /// FOR-delta columns are demoted to uncompressed; without one the key
    /// is a free draw. Sorted aggregation is dropped: merges re-order rows
    /// and the staged tail is unsorted, so the "globally sorted group key"
    /// precondition no longer holds.
    fn draw(mut rng: SplitMix64, plan: &mut CasePlan, recovered: bool) -> IngestDraw {
        let is_fordelta = |c: &ColumnCompression| matches!(c.codec, Codec::ForDelta { .. });
        let sort_by = match plan.comps.iter().position(is_fordelta) {
            Some(k) => Some(k),
            None if rng.bool() => Some(rng.below(plan.schema.len() as u64) as usize),
            None => None,
        };
        for (i, c) in plan.comps.iter_mut().enumerate() {
            if is_fordelta(c) && Some(i) != sort_by {
                *c = ColumnCompression::none();
            }
        }
        plan.sorted_agg = false;
        let mut spec = IngestSpec::manual();
        if rng.below(10) < 3 {
            spec = spec.with_auto_merge(1 + rng.below(6) as usize);
        }
        IngestDraw {
            sort_by,
            spec,
            rng,
            recovered,
        }
    }
}

#[derive(Debug, Clone)]
pub enum Source {
    /// The bulk-loaded table.
    Built,
    /// An `IngestStore` snapshot (ROS + staged tail) after a drawn schedule.
    Ingest(IngestDraw),
}

/// The query part of a plan: what one service rider (or the solo run) asks.
#[derive(Debug, Clone)]
pub struct Rider {
    pub projection: Vec<usize>,
    pub predicates: Vec<Predicate>,
    pub group_by: Option<usize>,
    pub aggs: Vec<AggSpec>,
    pub sorted_agg: bool,
}

impl Rider {
    pub fn of(plan: &CasePlan) -> Rider {
        Rider {
            projection: plan.projection.clone(),
            predicates: plan.predicates.clone(),
            group_by: plan.group_by,
            aggs: plan.aggs.clone(),
            sorted_agg: plan.sorted_agg,
        }
    }

    /// Draw one extra rider within the same validity envelope as
    /// [`crate::gen::generate`]: shuffled-prefix projection, mostly
    /// sampled-literal predicates, optional (grouped) aggregation over
    /// projected int positions.
    fn draw(rng: &mut SplitMix64, plan: &CasePlan) -> Rider {
        let ncols = plan.schema.len();
        let mut idx: Vec<usize> = (0..ncols).collect();
        for i in (1..ncols).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            idx.swap(i, j);
        }
        let nproj = 1 + rng.below(ncols as u64) as usize;
        let projection = idx[..nproj].to_vec();

        use CmpOp::*;
        const OPS: [CmpOp; 6] = [Lt, Le, Eq, Ne, Ge, Gt];
        let npred = rng.below(3) as usize;
        let mut predicates = Vec::with_capacity(npred);
        for _ in 0..npred {
            let c = rng.below(ncols as u64) as usize;
            let op = OPS[rng.below(6) as usize];
            let sample = !plan.rows.is_empty() && rng.below(10) < 7;
            let lit = if sample {
                plan.rows[rng.below(plan.rows.len() as u64) as usize][c].clone()
            } else {
                match plan.schema.dtype(c) {
                    DataType::Int => Value::Int(rng.range_i32(-1100, 1100)),
                    DataType::Text(w) => {
                        let len = rng.below(w as u64 + 1) as usize;
                        let bytes: Vec<u8> = (0..len).map(|_| b'a' + rng.below(26) as u8).collect();
                        Value::Text(bytes.into_boxed_slice())
                    }
                    DataType::Long => unreachable!("generator never emits Long columns"),
                }
            };
            predicates.push(Predicate::new(c, op, lit));
        }

        let mut group_by = None;
        let mut aggs: Vec<AggSpec> = Vec::new();
        if rng.below(100) < 35 {
            if rng.below(10) < 6 {
                group_by = Some(projection[rng.below(nproj as u64) as usize]);
            }
            let int_positions: Vec<usize> = projection
                .iter()
                .enumerate()
                .filter(|&(_, &c)| plan.schema.dtype(c) == DataType::Int)
                .map(|(p, _)| p)
                .collect();
            for _ in 0..1 + rng.below(2) as usize {
                let choice = if int_positions.is_empty() {
                    0
                } else {
                    rng.below(4)
                };
                aggs.push(if choice == 0 {
                    AggSpec::count()
                } else {
                    let p = int_positions[rng.below(int_positions.len() as u64) as usize];
                    match choice {
                        1 => AggSpec::sum(p),
                        2 => AggSpec::min(p),
                        _ => AggSpec::max(p),
                    }
                });
            }
        }
        Rider {
            projection,
            predicates,
            group_by,
            aggs,
            sorted_agg: false,
        }
    }
}

/// One drawn service workload: rider 0 is the seed's own plan.
#[derive(Debug, Clone)]
pub struct ServiceDraw {
    pub riders: Vec<Rider>,
    pub arrivals: Vec<f64>,
    pub tenants: Vec<&'static str>,
    pub spec: ServiceSpec,
}

impl ServiceDraw {
    fn draw(rng: &mut SplitMix64, plan: &CasePlan) -> ServiceDraw {
        let mut riders = vec![Rider::of(plan)];
        let k = 2 + rng.below(3) as usize;
        while riders.len() < k {
            riders.push(Rider::draw(rng, plan));
        }
        let arrival = |i| if i == 0 { 0.0 } else { rng.f64() * 1.5 };
        let arrivals = (0..k).map(arrival).collect();
        let tenant = |_| ["a", "b", "c"][rng.below(3) as usize];
        let tenants = (0..k).map(tenant).collect();
        // A priority per rider used to be drawn here, and an admission
        // discipline after the slice; the draws stay so every later draw of
        // an old seed replays.
        for _ in 0..k {
            rng.below(10);
        }
        let spec = ServiceSpec::new(1 + rng.below(k as u64) as usize)
            .with_slice([0.1, 0.25, 0.5][rng.below(3) as usize]);
        rng.bool();
        ServiceDraw {
            riders,
            arrivals,
            tenants,
            spec,
        }
    }

    /// Half the windowed cases run with a deadline, so the rejection and
    /// deadline-miss paths (and their flight-recorder retention) are hit.
    fn draw_deadline(&mut self, rng: &mut SplitMix64) {
        if rng.bool() {
            self.spec = self.spec.with_deadline(0.25 + rng.f64());
        }
    }
}

/// A timeline / flight-recorder window for the riders' `ServiceSpec`.
fn draw_observe(rng: &mut SplitMix64) -> f64 {
    let window_s = [0.25, 0.5, 1.0][rng.below(3) as usize];
    // The two flight-recorder sizes used to be drawn here; the draws stay
    // so every later draw of an old seed replays.
    rng.below(4);
    rng.below(5);
    window_s
}

#[derive(Debug, Clone)]
pub enum Runner {
    Solo,
    Service(ServiceDraw),
}

/// One point (or small sweep) in the test space. `cache` is off or
/// `plan.cache`; `window` is a drawn [`ServiceSpec::window_s`] for the
/// service's books (`None`: the default window).
#[derive(Debug, Clone)]
pub struct Axes {
    pub threads: Vec<usize>,
    pub fast: Vec<bool>,
    pub cache: Vec<bool>,
    pub damage: Vec<Damage>,
    pub source: Source,
    pub runner: Runner,
    pub window: Option<f64>,
}

/// Why a combination is not run, or `None` when it is legal. Every
/// exclusion is listed here with its reason — nowhere else.
fn excluded(damage: &[Damage], service: bool, window: bool) -> Option<&'static str> {
    let lossy = |d: &Damage| matches!(d, Damage::Skip(_) | Damage::Fail);
    if service && damage.iter().any(lossy) {
        return Some(
            "service x Skip/Fail: one rider's Corrupt fails the whole batch and a degraded \
             segment has no per-rider dropped_rows — rider-error semantics are undefined",
        );
    }
    if window && !service {
        return Some("a window without a service: only QueryService keeps windowed books");
    }
    None
}

impl Axes {
    /// `Err(reason)` when this combination is excluded from the test space.
    pub fn legal(&self) -> Result<(), &'static str> {
        excluded(&self.damage, self.is_service(), self.window.is_some()).map_or(Ok(()), Err)
    }

    pub fn is_service(&self) -> bool {
        matches!(self.runner, Runner::Service(_))
    }

    /// Combinations that have nothing to run on an empty table: no pages to
    /// corrupt, no page for a shared cursor to segment, no pool to sample
    /// inserts from.
    pub fn needs_rows(&self) -> bool {
        let ingest = matches!(self.source, Source::Ingest(_));
        self.damage.contains(&Damage::Fail) || self.is_service() || ingest
    }

    /// The axes a seed runs under in `mode`. Choosing an ingest source
    /// adapts `plan` (see [`IngestDraw`]).
    pub fn for_mode(mode: Mode, plan: &mut CasePlan) -> Axes {
        let seed = plan.seed;
        let stream = |s: u64| SplitMix64::new(seed ^ s);
        let (pool, drawn_fast) = (vec![plan.threads], vec![plan.scan_fast_path]);
        let skips = [Damage::Skip(1_000_000), Damage::Skip(150_000)];
        let base = Axes {
            threads: if plan.threads == 1 {
                pool.clone()
            } else {
                vec![1, plan.threads]
            },
            fast: vec![false, true],
            cache: vec![false],
            damage: vec![Damage::None],
            source: Source::Built,
            runner: Runner::Solo,
            window: None,
        };
        match mode {
            Mode::Plain => base,
            Mode::Faults => Axes {
                fast: drawn_fast,
                damage: vec![Damage::Fail],
                ..base
            },
            Mode::Recovery => Axes {
                fast: drawn_fast,
                damage: vec![Damage::Retry, skips[0], skips[1]],
                ..base
            },
            Mode::Cache => Axes {
                cache: vec![false, true],
                damage: vec![Damage::None, Damage::Retry],
                ..base
            },
            Mode::Concurrent => Axes {
                threads: pool,
                fast: drawn_fast,
                cache: vec![false, true],
                runner: Runner::Service(ServiceDraw::draw(&mut stream(CONCURRENT_STREAM), plan)),
                ..base
            },
            Mode::Observe => {
                let mut rng = stream(OBSERVE_STREAM);
                let mut draw = ServiceDraw::draw(&mut rng, plan);
                draw.draw_deadline(&mut rng);
                Axes {
                    threads: pool,
                    fast: drawn_fast,
                    cache: vec![rng.bool()],
                    runner: Runner::Service(draw),
                    window: Some(draw_observe(&mut rng)),
                    ..base
                }
            }
            Mode::Ingest => Axes {
                cache: vec![false, true],
                source: Source::Ingest(IngestDraw::draw(stream(INGEST_STREAM), plan, false)),
                ..base
            },
            Mode::Composed => {
                // Every axis drawn independently from a fresh stream; only the
                // draws `legal()` looks at are redrawn until it accepts them.
                let mut rng = stream(COMPOSED_STREAM);
                let fast = [drawn_fast, base.fast][rng.bool() as usize].clone();
                let cache = vec![rng.bool()];
                // 0, 1: built; 2: live snapshot; 3: snapshot of the recovered store.
                let source = match rng.below(4) {
                    0 | 1 => Source::Built,
                    s => {
                        let schedule = SplitMix64::new(rng.next_u64());
                        Source::Ingest(IngestDraw::draw(schedule, plan, s == 3))
                    }
                };
                let (damage, service, window) = loop {
                    let none_or_retry = [Damage::None, Damage::Retry][rng.bool() as usize];
                    let damages = [
                        none_or_retry,
                        none_or_retry,
                        skips[0],
                        skips[1],
                        Damage::Fail,
                    ];
                    let shape = (damages[rng.below(5) as usize], rng.below(5) < 2, rng.bool());
                    if excluded(&[shape.0], shape.1, shape.2).is_none() {
                        break shape;
                    }
                };
                let mut runner = Runner::Solo;
                if service {
                    let mut draw = ServiceDraw::draw(&mut rng, plan);
                    if window {
                        draw.draw_deadline(&mut rng);
                    }
                    runner = Runner::Service(draw);
                }
                Axes {
                    threads: if service { pool } else { base.threads },
                    fast,
                    cache,
                    damage: vec![damage],
                    source,
                    runner,
                    window: window.then(|| draw_observe(&mut rng)),
                }
            }
        }
    }
}
