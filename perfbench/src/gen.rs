//! Deterministic workload generation: the program sets, fresh-parameter
//! variants, and the request streams of each workload.
//!
//! Base programs come from the `workloads` crate and never depend on the
//! seed, so quality totals repeat exactly across seeds. The seed only
//! picks variant parameters and the order of the kernels mix.

use std::sync::Arc;

use paulihedral::ir::{Parameter, PauliBlock, PauliIR};
use paulihedral::parse::print_program;
use paulihedral::Scheduler;
use ph_engine::json::Json;
use ph_engine::{CompileRequest, Request};
use workloads::{scale, suite};

/// Fresh-parameter variants (misses) and repeats (hits) in each `kernels`
/// round of ten requests: 20% misses, in a seeded order.
pub const KERNELS_MIX: (usize, usize) = (2, 8);
/// Whole rounds `kernels` runs at least: 1000 requests.
pub const KERNELS_MIN_ROUNDS: usize = 100;
/// Rounds `kernels` generates ahead of time: more than the reference
/// machine answers in 15 s (about 900 requests a second).
pub const KERNELS_MAX_ROUNDS: usize = 2500;
/// Whole rounds `table1` runs at least: 4 × 31 = 124 requests, so p90
/// has ten samples beyond it.
pub const TABLE1_MIN_ROUNDS: usize = 4;
/// Rounds `table1` generates ahead of time (a round holds about 4 MB of
/// program text).
pub const TABLE1_MAX_ROUNDS: usize = 8;
/// Whole rounds `scale` runs at least (5 misses and 22 hits each), so
/// p90 and the miss median have ten samples beyond them.
pub const SCALE_MIN_ROUNDS: usize = 5;
/// Rounds `scale` generates ahead of time; each holds about 22 MB of
/// program text, so this bounds the load generator's memory and time.
pub const SCALE_MAX_ROUNDS: usize = 8;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 1 without the six slowest FT programs, every request a miss.
    Table1,
    /// Five 256–2000-qubit lattices: per lattice one miss, then hits.
    Scale,
    /// Small programs, 80% hits, with a disk tier.
    Kernels,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "table1" => Some(Workload::Table1),
            "scale" => Some(Workload::Scale),
            "kernels" => Some(Workload::Kernels),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Scale => "scale",
            Workload::Kernels => "kernels",
        }
    }

    /// Whole closed-loop rounds a run makes at least.
    pub fn min_rounds(self) -> usize {
        match self {
            Workload::Table1 => TABLE1_MIN_ROUNDS,
            Workload::Scale => SCALE_MIN_ROUNDS,
            Workload::Kernels => KERNELS_MIN_ROUNDS,
        }
    }

    /// The server's memory-tier entry bound. `table1` and `scale` hold
    /// about one round, so peak memory does not grow with the number of
    /// rounds a run happens to fit; `kernels` holds fewer than its 17
    /// distinct programs, so misses push repeats out to the disk tier.
    pub fn cache_entries(self) -> usize {
        match self {
            Workload::Table1 => 31,
            Workload::Scale => 8,
            Workload::Kernels => 12,
        }
    }

    /// The distinct programs, in the order a round sends them (largest
    /// first, so two connections finish a round close together).
    pub fn programs(self) -> Vec<Program> {
        let sc = |name: &str| Program::suite(name, "manhattan", Scheduler::Depth);
        let ft = |name: &str| Program::suite(name, "ft", Scheduler::Auto);
        match self {
            Workload::Table1 => {
                let mut v: Vec<Program> = [
                    "UCCSD-28",
                    "UCCSD-24",
                    "UCCSD-20",
                    "TSP-5",
                    "Rand-20-0.5",
                    "REG-20-12",
                    "UCCSD-16",
                    "TSP-4",
                    "REG-20-8",
                    "Rand-20-0.3",
                    "UCCSD-12",
                    "REG-20-4",
                    "UCCSD-8",
                    "Rand-20-0.1",
                ]
                .into_iter()
                .map(sc)
                .collect();
                v.extend(
                    [
                        "MgO",
                        "CO2",
                        "Rand-30",
                        "H2S",
                        "N2",
                        "Heisen-1D",
                        "Heisen-3D",
                        "Heisen-2D",
                        "Ising-3D",
                        "Ising-2D",
                        "Ising-1D",
                    ]
                    .into_iter()
                    .map(ft),
                );
                // SC and FT mixed, largest first; the order is fixed and
                // only parameters vary by seed.
                v.sort_by(|a, b| b.cost_rank().total_cmp(&a.cost_rank()));
                // Weights that put p50 inside N2's narrow latency band and
                // p90 inside CO2's, instead of on the gap between two
                // programs (see README.md): 31 requests a round.
                for p in &mut v {
                    p.copies = match p.label.as_str() {
                        "N2@ft" => 4,
                        "REG-20-12@manhattan" | "H2S@ft" | "CO2@ft" => 2,
                        _ => 1,
                    };
                }
                v
            }
            Workload::Scale => {
                let mut v = vec![
                    Program::lattice("Heisen-32x32", "grid:32x32"),
                    Program::lattice("Ising-32x32", "grid:32x32"),
                    Program::lattice("Heisen-2000", "ft"),
                    Program::lattice("Heisen-1000", "ft"),
                    Program::lattice("Heisen-16x16", "grid:16x16"),
                ];
                // Hits per miss: seven of Heisen-32x32, whose hit band
                // lies alone between the smaller lattices' and the
                // misses', six of Heisen-2000, three of the rest. Ten of
                // a round's 27 requests are faster than that band and ten
                // slower, so the median sits in its middle, not on the gap
                // below it (see README.md).
                for p in &mut v {
                    p.copies = match p.label.as_str() {
                        "Heisen-32x32@grid:32x32" => 7,
                        "Heisen-2000@ft" => 6,
                        _ => 3,
                    };
                }
                v
            }
            Workload::Kernels => {
                let mut v: Vec<Program> = [
                    "UCCSD-8",
                    "UCCSD-12",
                    "REG-20-4",
                    "REG-20-8",
                    "REG-20-12",
                    "Rand-20-0.1",
                    "Rand-20-0.3",
                    "Rand-20-0.5",
                    "TSP-4",
                ]
                .into_iter()
                .map(sc)
                .collect();
                v.extend(
                    [
                        "Ising-1D",
                        "Ising-2D",
                        "Ising-3D",
                        "Heisen-1D",
                        "Heisen-2D",
                        "Heisen-3D",
                    ]
                    .into_iter()
                    .map(ft),
                );
                v.push(Program::suite("UCCSD-8", "linear:8", Scheduler::Depth));
                v.push(Program::lattice("Heisen-8", "ft"));
                // Miss weights: the ten programs that compile in under
                // 3 ms four times, the rest once. That puts the miss median
                // inside the cheap programs' band, not on the gap above it
                // (see README.md).
                for p in &mut v {
                    p.copies = match p.label.as_str() {
                        l if l.starts_with("Ising")
                            || l.starts_with("Heisen")
                            || l.starts_with("UCCSD-8@")
                            || l == "Rand-20-0.1@manhattan" =>
                        {
                            4
                        }
                        _ => 1,
                    };
                }
                v
            }
        }
    }
}

/// One distinct program of a workload: the generator's IR, its wire text,
/// and the target it is compiled for.
#[derive(Clone, Debug)]
pub struct Program {
    /// Display name, `NAME@BACKEND`.
    pub label: String,
    /// Backend spec sent on the wire.
    pub backend: &'static str,
    /// Scheduler sent on the wire.
    pub scheduler: Scheduler,
    /// The generator's own IR.
    pub ir: PauliIR,
    /// The base program text (named parameters parse as 1.0).
    pub text: String,
    /// Weight in the mix: variants per round on `table1`, hits after each
    /// miss on `scale`, entries in the miss deck on `kernels`.
    pub copies: usize,
}

impl Program {
    fn suite(name: &str, backend: &'static str, scheduler: Scheduler) -> Program {
        Program::new(name, backend, scheduler, suite::generate(name).ir)
    }

    fn lattice(name: &str, backend: &'static str) -> Program {
        let ir = scale::named_scale_ir(name).expect("lattice names are valid scale names");
        Program::new(name, backend, Scheduler::Auto, ir)
    }

    fn new(name: &str, backend: &'static str, scheduler: Scheduler, ir: PauliIR) -> Program {
        Program {
            label: format!("{name}@{backend}"),
            backend,
            scheduler,
            text: print_program(&ir),
            ir,
            copies: 1,
        }
    }

    /// A static size proxy (strings × qubits) used only to order a round.
    fn cost_rank(&self) -> f64 {
        (self.ir.total_strings() * self.ir.num_qubits()) as f64
    }

    /// The program text with every block parameter replaced by a seeded
    /// random number: the same compile work under a new cache key.
    pub fn variant_text(&self, rng: &mut Rng) -> String {
        let mut ir = PauliIR::new(self.ir.num_qubits());
        for b in self.ir.blocks() {
            let value = 0.05 + rng.next_f64();
            ir.push_block(PauliBlock::new(b.terms.clone(), Parameter::time(value)));
        }
        print_program(&ir)
    }

    /// The encoded `compile` request line for `text`.
    pub fn line(&self, id: u64, text: &str, artifact: bool) -> String {
        Request::Compile(CompileRequest {
            id,
            name: Some(self.label.clone()),
            ir: text.to_string(),
            backend: Some(self.backend.to_string()),
            scheduler: Some(self.scheduler),
            deadline_ms: None,
            artifact,
        })
        .to_line()
    }
}

/// SplitMix64: a small seeded generator, so streams are reproducible
/// without depending on any other crate's algorithm.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// What a timed request is, for classifying its latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A fresh-parameter variant: must compile.
    Miss,
    /// A repeat of text the server has compiled before.
    Hit,
}

/// One timed request, encoded ahead of time.
#[derive(Clone, Debug)]
pub struct Req {
    /// Index into the workload's programs.
    pub program: usize,
    /// Expected cache class.
    pub class: Class,
    /// Index into [`Stream::texts`]: requests sharing a text share it.
    pub text: usize,
    /// A repeat resends the line, wire id included, of this earlier
    /// request. Each connection has one request in flight and reports
    /// come back on the connection that asked, so ids need not be unique.
    pub resend: Option<usize>,
}

/// A unit of closed-loop work: requests one connection sends back to
/// back (a `scale` miss and the hits that repeat it stay in order).
pub type Unit = Vec<usize>;

/// The generated timed traffic of one run.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Program texts: the base texts first (index = program index), then
    /// every variant.
    pub texts: Vec<String>,
    /// Timed requests; request `i` has wire id `TIMED_ID_BASE + i`.
    pub reqs: Vec<Req>,
    /// Closed-loop units grouped in rounds.
    pub rounds: Vec<Vec<Unit>>,
}

/// Id offset of timed requests, so warm-up and check ids never collide.
pub const TIMED_ID_BASE: u64 = 1_000_000;

impl Stream {
    /// Generates the timed traffic of `workload` for `seed`: the most
    /// rounds a run may send.
    pub fn generate(workload: Workload, programs: &[Program], seed: u64) -> Stream {
        let mut rng = Rng::new(seed);
        let mut s = Stream {
            texts: programs.iter().map(|p| p.text.clone()).collect(),
            reqs: Vec::new(),
            rounds: Vec::new(),
        };
        match workload {
            Workload::Table1 => {
                for _ in 0..TABLE1_MAX_ROUNDS {
                    let round = (0..programs.len())
                        .flat_map(|p| std::iter::repeat_n(p, programs[p].copies))
                        .map(|p| vec![s.push_variant(programs, p, &mut rng)])
                        .collect();
                    s.rounds.push(round);
                }
            }
            Workload::Scale => {
                for _ in 0..SCALE_MAX_ROUNDS {
                    let mut round = Vec::new();
                    for p in 0..programs.len() {
                        let miss = s.push_variant(programs, p, &mut rng);
                        let text = s.reqs[miss].text;
                        let mut unit = vec![miss];
                        for _ in 0..programs[p].copies {
                            unit.push(s.push(p, Class::Hit, text, Some(miss)));
                        }
                        round.push(unit);
                    }
                    s.rounds.push(round);
                }
            }
            Workload::Kernels => {
                // Stratified: every program gets its share of misses (by
                // its weight) and of hits (equal), so only the order
                // varies with the seed, not the mix.
                let miss_deck: Vec<usize> = (0..programs.len())
                    .flat_map(|p| std::iter::repeat_n(p, programs[p].copies))
                    .collect();
                let hit_deck: Vec<usize> = (0..programs.len()).collect();
                let (mut misses, mut hits) = (Vec::new(), Vec::new());
                // Every repeat of a program resends its first repeat's line.
                let mut first_hit: Vec<Option<usize>> = vec![None; programs.len()];
                for _ in 0..KERNELS_MAX_ROUNDS {
                    let mut block =
                        [vec![true; KERNELS_MIX.0], vec![false; KERNELS_MIX.1]].concat();
                    rng.shuffle(&mut block);
                    let mut round = Vec::new();
                    for miss in block {
                        let (deck, full) = if miss {
                            (&mut misses, &miss_deck)
                        } else {
                            (&mut hits, &hit_deck)
                        };
                        if deck.is_empty() {
                            deck.clone_from(full);
                            rng.shuffle(deck);
                        }
                        let p = deck.pop().expect("refilled above");
                        let i = if miss {
                            s.push_variant(programs, p, &mut rng)
                        } else {
                            let i = s.push(p, Class::Hit, p, first_hit[p]);
                            first_hit[p].get_or_insert(i);
                            i
                        };
                        round.push(vec![i]);
                    }
                    s.rounds.push(round);
                }
            }
        }
        s
    }

    fn push(&mut self, program: usize, class: Class, text: usize, resend: Option<usize>) -> usize {
        self.reqs.push(Req {
            program,
            class,
            text,
            resend,
        });
        self.reqs.len() - 1
    }

    fn push_variant(&mut self, programs: &[Program], p: usize, rng: &mut Rng) -> usize {
        self.texts.push(programs[p].variant_text(rng));
        let text = self.texts.len() - 1;
        self.push(p, Class::Miss, text, None)
    }

    /// Encodes every timed request line. Request `i` gets wire id
    /// `TIMED_ID_BASE + i`, or shares the line and id of the request it
    /// resends, so a repeat costs no memory of its own.
    pub fn encode(&self, programs: &[Program]) -> Encoded {
        let mut out = Encoded {
            lines: Vec::with_capacity(self.reqs.len()),
            ids: Vec::with_capacity(self.reqs.len()),
        };
        for (i, r) in self.reqs.iter().enumerate() {
            let (line, id) = match r.resend {
                Some(j) => (Arc::clone(&out.lines[j]), out.ids[j]),
                None => {
                    let id = TIMED_ID_BASE + i as u64;
                    (
                        programs[r.program]
                            .line(id, &self.texts[r.text], false)
                            .into(),
                        id,
                    )
                }
            };
            out.lines.push(line);
            out.ids.push(id);
        }
        out
    }
}

/// The encoded timed requests: request `i` goes out as `lines[i]` with
/// wire id `ids[i]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Encoded {
    /// Request lines, newline included.
    pub lines: Vec<Arc<str>>,
    /// Wire ids.
    pub ids: Vec<u64>,
}

/// Every parameter a run depends on, as recorded in its output.
pub fn config_json(workload: Workload, programs: &[Program], seed: u64, seconds: f64) -> Json {
    let programs_json = programs
        .iter()
        .map(|p| {
            Json::obj([
                ("program", Json::str(&p.label)),
                ("backend", Json::str(p.backend)),
                (
                    "scheduler",
                    Json::str(match p.scheduler {
                        Scheduler::Auto => "auto",
                        Scheduler::GateCount => "gco",
                        Scheduler::Depth => "do",
                    }),
                ),
                ("qubits", Json::U64(p.ir.num_qubits() as u64)),
                ("strings", Json::U64(p.ir.total_strings() as u64)),
                ("text_bytes", Json::U64(p.text.len() as u64)),
                ("variant_weight", Json::U64(p.copies as u64)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::U64(seed)),
        ("seconds", Json::F64(seconds)),
        ("server", Json::str("phc serve --threads 2")),
        ("cache_entries", Json::U64(workload.cache_entries() as u64)),
        ("programs", Json::Arr(programs_json)),
    ];
    match workload {
        Workload::Table1 => {
            fields.push(("loop", Json::str("closed, 2 connections")));
            fields.push(("mix", Json::str("every request a fresh-parameter variant")));
            fields.push(("min_rounds", Json::U64(TABLE1_MIN_ROUNDS as u64)));
            fields.push(("max_rounds", Json::U64(TABLE1_MAX_ROUNDS as u64)));
        }
        Workload::Scale => {
            fields.push(("loop", Json::str("closed, 2 connections")));
            fields.push((
                "mix",
                Json::str(
                    "per lattice and round: one variant miss, then variant_weight repeats of its text",
                ),
            ));
            fields.push(("min_rounds", Json::U64(SCALE_MIN_ROUNDS as u64)));
            fields.push(("max_rounds", Json::U64(SCALE_MAX_ROUNDS as u64)));
        }
        Workload::Kernels => {
            fields.push(("loop", Json::str("closed, 2 connections")));
            fields.push((
                "mix",
                Json::str(format!(
                    "per round of 10: {} fresh-parameter misses and {} repeats, seeded order",
                    KERNELS_MIX.0, KERNELS_MIX.1
                )),
            ));
            fields.push(("min_rounds", Json::U64(KERNELS_MIN_ROUNDS as u64)));
            fields.push(("max_rounds", Json::U64(KERNELS_MAX_ROUNDS as u64)));
            fields.push(("cache_dir", Json::str("fresh per server")));
        }
    }
    Json::obj(fields)
}
