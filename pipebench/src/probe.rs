//! The reference probe: a fixed allocation-heavy kernel timed between runs,
//! used to express run times at a fixed machine speed.
//!
//! On a shared host the speed of one vCPU swings by up to ~1.8x for seconds
//! at a time (other tenants on the same cores), so raw wall-clock medians of
//! the same code differ by 30% from one process to the next.  A run's
//! wall-clock divided by the probe's duration measured around it moves far
//! less, because the probe slows down with the run.  Multiplying that ratio
//! by the probe's nominal duration turns it back into milliseconds:
//! *reference milliseconds*, what the run would take on a quiet machine
//! where the probe takes [`NOMINAL_MS`].  The probe's code is the
//! benchmark's own, so a change to the library cannot move it.
//!
//! The kernel mimics the pipeline's memory behaviour — many small string
//! and vector allocations, random reads over them and a hash-map build —
//! because that tracked the workloads' slowdowns best.  Across three
//! processes on a machine whose speed varied by 40%, the median
//! run-to-probe ratio of `corpus_cold` and `edit_stream` moved by 2–3% with
//! this kernel, against 9% for ordered-map inserts plus random writes over
//! a 2 MiB table, and 13–15% for random writes or pointer chasing over
//! 8–16 MiB.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The probe's duration on a quiet 2-vCPU container of the kind the
/// baseline was recorded on.  It fixes the unit, nothing else.
pub const NOMINAL_MS: f64 = 1.7;

/// Objects the kernel allocates per probe.
const OBJECTS: u32 = 8000;
/// Slots of the scrub table (16 MiB of `u64`).
const SCRUB: usize = 1 << 21;
/// Bytes the scrub table keeps resident for the whole process.
pub const SCRUB_BYTES: usize = SCRUB * std::mem::size_of::<u64>();

/// The probe, owning the table it scrubs the caches with.
pub struct Probe {
    scrub: Vec<u64>,
}

impl Probe {
    /// A probe with its scrub table allocated and touched.
    pub fn new() -> Self {
        Probe { scrub: vec![1; SCRUB] }
    }

    /// Runs the kernel once and returns its wall-clock in ms.  Random writes
    /// over the scrub table first put the caches in the same (cold) state
    /// whatever ran before; they are not timed.  The timed work is the same
    /// on every call: a fixed xorshift stream and a fixed-key hasher.
    pub fn run_ms(&mut self) -> f64 {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..150_000 {
            let r = next();
            let slot = (r as usize) & (SCRUB - 1);
            self.scrub[slot] = self.scrub[slot].wrapping_add(r);
        }
        black_box(&self.scrub);

        let started = Instant::now();
        let mut objects: Vec<(String, Vec<u32>)> = Vec::with_capacity(OBJECTS as usize);
        for i in 0..OBJECTS {
            let r = next();
            objects.push((format!("m{}", r % 100_000), vec![i; 1 + (r % 7) as usize]));
        }
        let mut touched = 0usize;
        for _ in 0..OBJECTS {
            let (name, values) = &objects[next() as usize % objects.len()];
            touched += name.len() + values.len();
        }
        let mut map: HashMap<String, Vec<u32>, BuildHasherDefault<DefaultHasher>> =
            HashMap::default();
        map.extend(objects);
        black_box((touched, &map));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        drop(map);
        ms
    }
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

/// Converts a wall-clock duration to reference units, given the probe
/// durations measured just before and just after it.
pub fn to_reference(wall: f64, probe_before_ms: f64, probe_after_ms: f64) -> f64 {
    wall * NOMINAL_MS / ((probe_before_ms + probe_after_ms) / 2.0)
}
