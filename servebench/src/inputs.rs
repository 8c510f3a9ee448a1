//! Seeded inputs: tenants, request streams, arrival schedules.
//!
//! Everything a run sends is a pure function of `--seed`: tenant engine
//! seeds, model weights, feature vectors, the open-loop arrival times and
//! the churn rounds. Each tenant encrypts its own requests in index
//! order, so request `r` of tenant `t` has the same ciphertext bytes in
//! every run with that seed, however long the run.

use fides_api::{CkksEngine, Session};
use fides_client::wire::{EvalRequest, OpProgram, ProgramOp, SessionRequest};
use fides_core::CkksParameters;
use fides_workloads::serve_lr::{synthetic_features, synthetic_model, ServeLrModel};

/// The parameter chain every workload shares: logN 10, 6 levels,
/// 40-bit scales, dnum 3, 8 device streams.
pub const LOG_N: usize = 10;
/// Multiplicative levels of the chain.
pub const LEVELS: usize = 6;
const SCALE_BITS: u32 = 40;
const DNUM: usize = 3;
const STREAMS: usize = 8;
/// Requests one batch tick executes.
pub const BATCH: usize = 8;
/// Feature dimension of the scoring model.
pub const DIM: usize = 16;
/// Scoring tenants on `score-steady` and `score-open`.
pub const SCORE_TENANTS: usize = 8;
/// Churn tenants resident at once (the registry bound), and the tenants
/// that arrive together in one churn round: every arrival evicts the
/// least-recently-used one.
pub const CHURN_RESIDENT: usize = 8;
/// Churn tenant pool, larger than the registry bound.
pub const CHURN_POOL: usize = 24;
/// Light requests each churn arrival sends and verifies: a round's
/// requests fill two batches.
pub const CHURN_K: usize = 2;
/// Values per light request.
pub const LIGHT_LEN: usize = 8;

/// The server's parameter chain.
pub fn params() -> CkksParameters {
    CkksParameters::new(LOG_N, LEVELS, SCALE_BITS, DNUM)
        .expect("benchmark parameters are valid")
        .with_num_streams(STREAMS)
}

/// splitmix64: a tiny, well-mixed deterministic generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on an independent `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix(seed, stream))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Combines a seed with a stream label into a 64-bit key.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    r.next_u64()
}

fn engine(seed: u64, rotations: &[i32]) -> CkksEngine {
    CkksEngine::builder()
        .log_n(LOG_N)
        .levels(LEVELS)
        .scale_bits(SCALE_BITS)
        .dnum(DNUM)
        .rotations(rotations)
        .seed(seed)
        .build()
        .expect("tenant engine")
}

/// What a tenant asks the server to compute, and how to check it.
#[derive(Clone, Debug)]
pub enum Task {
    /// Logistic-regression scoring against a preloaded weight plaintext.
    Score(ServeLrModel),
    /// The affine map `y = mul·x + add` (no key switching).
    Light {
        /// `MulScalar` constant.
        mul: f64,
        /// `AddScalar` constant.
        add: f64,
    },
}

/// One client: its keys, its upload and its program.
pub struct Tenant {
    /// Client half of the tenant's engine.
    pub session: Session,
    /// The keygen upload (built once; every session open sends it).
    pub upload: SessionRequest,
    /// The request program.
    pub program: OpProgram,
    /// What the program computes.
    pub task: Task,
    /// Feature stream key for [`Tenant::inputs`].
    pub key: u64,
}

impl Tenant {
    /// The plaintext inputs of this tenant's request `r`.
    pub fn inputs(&self, r: u64) -> Vec<f64> {
        match &self.task {
            Task::Score(_) => synthetic_features(DIM, self.key, r),
            Task::Light { .. } => {
                let mut rng = Rng::new(self.key, r);
                (0..LIGHT_LEN).map(|_| rng.unit() * 2.0 - 1.0).collect()
            }
        }
    }

    /// What a correct response decrypts to for `inputs`.
    pub fn expected(&self, inputs: &[f64]) -> Vec<f64> {
        match &self.task {
            Task::Score(model) => vec![model.score_plain(inputs)],
            Task::Light { mul, add } => inputs.iter().map(|x| mul * x + add).collect(),
        }
    }

    /// Meaningful output values (slot 0 carries the score).
    pub fn output_len(&self) -> usize {
        match self.task {
            Task::Score(_) => 1,
            Task::Light { .. } => LIGHT_LEN,
        }
    }

    /// Encrypts request `r` for session `sid`; returns it with its inputs.
    pub fn request(&self, sid: u64, r: u64) -> (EvalRequest, Vec<f64>) {
        let x = self.inputs(r);
        let req = self
            .session
            .eval_request(sid, &[&x], &self.program)
            .expect("encrypt request");
        (req, x)
    }
}

/// The scoring tenants of a seed: each with its own model and rotation
/// keys.
pub fn score_tenants(seed: u64) -> Vec<Tenant> {
    (0..SCORE_TENANTS)
        .map(|t| {
            let key = mix(seed, 100 + t as u64);
            let model = synthetic_model(DIM, key);
            let session = engine(key, &model.required_rotations()).session();
            let plains = model.session_plains(session.engine().max_level());
            let refs: Vec<(&[f64], usize)> =
                plains.iter().map(|(v, l)| (v.as_slice(), *l)).collect();
            let upload = session.session_request(&refs).expect("score upload");
            Tenant {
                program: model.scoring_program(0),
                upload,
                session,
                task: Task::Score(model),
                key,
            }
        })
        .collect()
}

/// The churn tenant pool of a seed: relinearization keys only, each with
/// its own affine map.
pub fn churn_tenants(seed: u64) -> Vec<Tenant> {
    (0..CHURN_POOL)
        .map(|t| {
            let key = mix(seed, 200 + t as u64);
            let mut rng = Rng::new(key, 0);
            let mul = 0.5 + rng.unit();
            let add = rng.unit() - 0.5;
            let session = engine(key, &[]).session();
            let upload = session.session_request(&[]).expect("churn upload");
            Tenant {
                program: light_program(mul, add),
                upload,
                session,
                task: Task::Light { mul, add },
                key,
            }
        })
        .collect()
}

/// `y = mul·x + add`: one rescale, no key switching.
pub fn light_program(mul: f64, add: f64) -> OpProgram {
    let mut p = OpProgram::new(1);
    let m = p.push(ProgramOp::MulScalar { a: 0, c: mul });
    let y = p.push(ProgramOp::AddScalar { a: m, c: add });
    p.output(y);
    p
}

/// Open-loop arrivals over `seconds` at `rate` per second: due offsets
/// (seconds from the window start), each paired with a tenant.
///
/// The gaps are one fixed realization of a Poisson process conditioned on
/// its expected count (`round(rate·seconds)` uniform arrival times). The
/// seed picks the cyclic phase of that gap sequence and each arrival's
/// tenant. A p95 over a few hundred arrivals is set by a handful of
/// bursts, so a fresh realization per seed would move it by a third;
/// with one burst mix, every seed offers the same load shape.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64, tenants: usize) -> Vec<(f64, usize)> {
    let n = (rate * seconds).round() as usize;
    let mut base = Rng::new(0, 300);
    let mut at: Vec<f64> = (0..n).map(|_| base.unit() * seconds).collect();
    at.sort_by(f64::total_cmp);
    // Gap i leads to arrival i; the first wraps around from the last.
    let gaps: Vec<f64> = (0..n)
        .map(|i| match i {
            0 => at[0] + seconds - at[n - 1],
            _ => at[i] - at[i - 1],
        })
        .collect();
    let mut rng = Rng::new(seed, 300);
    let phase = rng.below(n.max(1));
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            t += gaps[(phase + i) % n];
            // The first gap is a full gap from 0; the wrap keeps the sum
            // at most `seconds`.
            (t * (seconds - 1e-9) / seconds, rng.below(tenants))
        })
        .collect()
}

/// Churn rounds: an endless seeded draw of [`CHURN_RESIDENT`] distinct
/// tenants from the pool per round.
pub fn churn_rounds(seed: u64) -> impl Iterator<Item = Vec<usize>> {
    let mut rng = Rng::new(seed, 400);
    std::iter::repeat_with(move || {
        let mut pool: Vec<usize> = (0..CHURN_POOL).collect();
        for i in 0..CHURN_RESIDENT {
            let j = i + rng.below(CHURN_POOL - i);
            pool.swap(i, j);
        }
        pool.truncate(CHURN_RESIDENT);
        pool
    })
}

/// Whether request `id` of a run belongs to the seeded sample that is
/// byte-compared against an unloaded serial server (about one in eight).
pub fn sampled(seed: u64, id: u64) -> bool {
    mix(seed, 500 + id) % 8 == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_and_differ_across_seeds() {
        let a = poisson_schedule(7, 20.0, 5.0, SCORE_TENANTS);
        assert_eq!(a, poisson_schedule(7, 20.0, 5.0, SCORE_TENANTS));
        let b = poisson_schedule(8, 20.0, 5.0, SCORE_TENANTS);
        assert_ne!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        // Same gap multiset, another phase.
        let gaps = |s: &[(f64, usize)]| {
            let mut g: Vec<u64> = s
                .windows(2)
                .map(|w| ((w[1].0 - w[0].0) * 1e6) as u64)
                .collect();
            g.sort_unstable();
            g
        };
        let (ga, gb) = (gaps(&a), gaps(&b));
        let common = ga.iter().filter(|g| gb.binary_search(g).is_ok()).count();
        assert!(
            common >= ga.len() - 3,
            "{common} of {} gaps shared",
            ga.len()
        );
        assert_eq!(a.len(), 100);
        assert!(a
            .iter()
            .all(|&(d, t)| (0.0..5.0).contains(&d) && t < SCORE_TENANTS));
        let rounds: Vec<Vec<usize>> = churn_rounds(3).take(20).collect();
        assert_eq!(rounds, churn_rounds(3).take(20).collect::<Vec<_>>());
        assert_ne!(rounds, churn_rounds(4).take(20).collect::<Vec<_>>());
        for r in &rounds {
            let mut d = r.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), CHURN_RESIDENT);
            assert!(d.iter().all(|&t| t < CHURN_POOL));
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        let encode = |seed| {
            let pool = churn_tenants(seed);
            let mut frames = pool[0].upload.to_bytes();
            for r in 0..2 {
                frames.extend(pool[0].request(1, r).0.to_bytes());
            }
            frames
        };
        let a = encode(11);
        assert_eq!(a, encode(11));
        assert_ne!(a, encode(12));
    }
}
