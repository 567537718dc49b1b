//! The host's speed, measured by a fixed reference loop.
//!
//! The benchmark runs on shared machines whose cores slow down and
//! speed up by tens of percent over minutes, as other tenants come and
//! go. An ALU loop or a pointer chase does not follow that drift, but a
//! small discrete-event loop does: a binary heap of timers, a hash map of
//! per-flow state and scattered writes to a table of a few megabytes,
//! the same mix of work the simulator does. The benchmark's parent
//! process times this loop before the first run's child and after each
//! child ends, and scales a run's wall-clock seconds by [`NOMINAL_S`]
//! over the mean of the loop times just before and just after it, which
//! gives seconds at a fixed host speed. Set-up follows the host's speed less closely than
//! the event loop does, so its seconds are scaled by the square root of
//! that ratio.
//!
//! The loop uses only `std` and lives in the benchmark, so a change to
//! the simulator cannot change it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Timers the reference loop keeps pending.
const TIMERS: u32 = 1 << 15;
/// Slots in the reference loop's state table (8 MiB of `u64`).
const TABLE: usize = 1 << 20;
/// Events the reference loop processes.
const EVENTS: u64 = 2_000_000;

/// Seconds the reference loop takes at the nominal host speed: a round
/// figure inside the range of its times (0.2-0.6 s) on the 2.1 GHz Xeon
/// VM the bounds were set on. Scaled times read as seconds on a
/// host where the loop takes this long.
pub const NOMINAL_S: f64 = 0.300;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Run the reference loop once and return its wall-clock seconds.
pub fn reference_s() -> f64 {
    let mut table = vec![0u64; TABLE];
    let start = Instant::now();
    let mut timers: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(TIMERS as usize);
    let mut flows: HashMap<u32, u64> = HashMap::with_capacity(TIMERS as usize);
    let mut rng = 0x1234_5678_u64;
    for id in 0..TIMERS {
        timers.push(Reverse((xorshift(&mut rng) % 1000, id)));
    }
    for _ in 0..EVENTS {
        let Reverse((at, id)) = timers.pop().expect("a timer is always pending");
        let r = xorshift(&mut rng);
        let state = flows.entry(id).or_insert(0);
        *state = state.wrapping_add(r);
        let slot = (r % TABLE as u64) as usize;
        table[slot] = table[slot].wrapping_add(at);
        timers.push(Reverse((at + 1 + (r >> 40) % 500, id)));
    }
    std::hint::black_box((&flows, &table));
    start.elapsed().as_secs_f64()
}

/// The host's speed during one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpeed {
    /// Mean of the reference loop's times before and after the run.
    pub reference_s: f64,
    /// The factor that turns the event loop's wall-clock seconds into
    /// seconds at the nominal host speed: [`NOMINAL_S`] over
    /// `reference_s`.
    pub scale: f64,
    /// The same for set-up: the square root of `scale`. Set-up in a fresh
    /// process slows less than the loop on a slow host. Between a slow
    /// and a fast period under `README.md`'s Measured, the loop's time
    /// changed 1.9-2.0x and the event loop's 2.0-2.2x, but set-up's only
    /// about 1.5x.
    pub setup_scale: f64,
}

impl HostSpeed {
    /// The speed from the reference loop's times before and after a run.
    pub fn from_reference(before_s: f64, after_s: f64) -> Self {
        let reference_s = (before_s + after_s) / 2.0;
        let scale = NOMINAL_S / reference_s;
        HostSpeed {
            reference_s,
            scale,
            setup_scale: scale.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_one_at_nominal_speed_and_shrink_on_a_slower_host() {
        assert_eq!(HostSpeed::from_reference(NOMINAL_S, NOMINAL_S).scale, 1.0);
        let slow = HostSpeed::from_reference(1.5 * NOMINAL_S, 2.5 * NOMINAL_S);
        assert_eq!(slow.reference_s, 2.0 * NOMINAL_S);
        assert!((slow.scale - 0.5).abs() < 1e-12);
        assert!((slow.setup_scale - 0.5f64.sqrt()).abs() < 1e-12);
    }
}
