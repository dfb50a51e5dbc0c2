//! Seeded inputs. Every circuit a workload touches is an [`Instance`]:
//! a `(family, width, generator seed)` triple derived from `--seed`, so
//! the same seed gives the same inputs and the program under test only
//! ever receives generated circuits.

use crate::layers::{self, Circuit};

/// Ω for every job the benchmark submits (the paper's default).
pub const OMEGA: usize = 200;

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Instance {
    pub family: &'static str,
    pub qubits: u32,
    pub gen_seed: u64,
}

impl Instance {
    pub fn generate(&self) -> Circuit {
        layers::generate(self.family, self.qubits, self.gen_seed)
    }

    /// Stable text key: names the instance in `golden.json`, in the worker
    /// protocol and in reports.
    pub fn key(&self) -> String {
        format!("{}-{}-{:016x}", self.family, self.qubits, self.gen_seed)
    }

    pub fn parse_key(key: &str) -> Option<Instance> {
        let mut parts = key.split('-');
        let family = parts.next()?;
        let qubits = parts.next()?.parse().ok()?;
        let gen_seed = u64::from_str_radix(parts.next()?, 16).ok()?;
        let family = layers::paper_families()
            .into_iter()
            .chain([layers::parameterized_family()])
            .find(|f| f.name == family)?
            .name;
        Some(Instance {
            family,
            qubits,
            gen_seed,
        })
    }
}

/// SplitMix64: one well-mixed stream per `(seed, salt)`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in salt.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Sizes of a run. `quick` shrinks every corpus so a whole pass over all
/// four workloads takes seconds; it reports the same metrics, bounds off.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Quick,
}

/// engine-large: the paper's families at the top of its size ladder plus
/// a million-gate StateVec (quick: the laptop ladder's third rung).
pub fn engine_large(seed: u64, scale: Scale) -> Vec<Instance> {
    let mut rng = Rng::new(seed, "engine-large");
    let mut out: Vec<Instance> = layers::paper_families()
        .into_iter()
        .map(|f| Instance {
            family: f.name,
            qubits: match scale {
                Scale::Full => f.paper_top,
                Scale::Quick => f.ladder[2],
            },
            gen_seed: rng.next_u64(),
        })
        .collect();
    if scale == Scale::Full {
        out.push(Instance {
            family: "StateVec",
            qubits: 10,
            gen_seed: rng.next_u64(),
        });
    }
    out
}

/// The engine probe of the traced run: the paper's families at the
/// laptop ladder's third rung (the OAC comparison's size).
pub fn engine_probe(seed: u64) -> Vec<Instance> {
    engine_large(seed ^ 0x5052_4F42, Scale::Quick)
}

/// serve-cold: eight families × the two smallest ladder rungs × sixteen
/// generator seeds (quick: two). Duplicates by fingerprint are the
/// caller's to drop once it has generated the circuits.
pub fn serve_cold(seed: u64, scale: Scale) -> Vec<Instance> {
    let per_shape = match scale {
        Scale::Full => 16,
        Scale::Quick => 2,
    };
    let mut rng = Rng::new(seed, "serve-cold");
    let mut out = Vec::new();
    for _ in 0..per_shape {
        for f in layers::paper_families() {
            for rung in 0..2 {
                out.push(Instance {
                    family: f.name,
                    qubits: f.ladder[rung],
                    gen_seed: rng.next_u64(),
                });
            }
        }
    }
    out
}

/// Circuits for a server's untimed warm-up requests; disjoint from the
/// corpus by construction (another salt).
pub fn serve_warmup(seed: u64) -> Vec<Instance> {
    let mut rng = Rng::new(seed, "serve-warmup");
    layers::paper_families()
        .into_iter()
        .map(|f| Instance {
            family: f.name,
            qubits: f.ladder[0],
            gen_seed: rng.next_u64(),
        })
        .collect()
}

/// serve-warm: four circuits per shape of the cold corpus (quick: one).
pub fn serve_warm(seed: u64, scale: Scale) -> Vec<Instance> {
    let per_shape = match scale {
        Scale::Full => 4,
        Scale::Quick => 1,
    };
    let mut rng = Rng::new(seed, "serve-warm");
    let mut out = Vec::new();
    for _ in 0..per_shape {
        for f in layers::paper_families() {
            for rung in 0..2 {
                out.push(Instance {
                    family: f.name,
                    qubits: f.ladder[rung],
                    gen_seed: rng.next_u64(),
                });
            }
        }
    }
    out
}

/// sweep-segcache: per width one warming circuit and a pool of
/// fresh-angle resubmissions of the same skeleton.
pub struct Sweep {
    pub warm: Vec<Instance>,
    pub pool: Vec<Instance>,
}

pub fn sweep_segcache(seed: u64, scale: Scale) -> Sweep {
    let family = layers::parameterized_family();
    let (widths, per_width): (&[u32], usize) = match scale {
        Scale::Full => (&[12, 16, 20, 24], 24),
        Scale::Quick => (&[12, 16], 4),
    };
    let mut rng = Rng::new(seed, "sweep-segcache");
    let warm = widths
        .iter()
        .map(|&qubits| Instance {
            family: family.name,
            qubits,
            gen_seed: rng.next_u64(),
        })
        .collect();
    let mut pool = Vec::new();
    for _ in 0..per_width {
        for &qubits in widths {
            pool.push(Instance {
                family: family.name,
                qubits,
                gen_seed: rng.next_u64(),
            });
        }
    }
    Sweep { warm, pool }
}
