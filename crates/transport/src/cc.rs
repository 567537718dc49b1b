//! Window-based congestion control on ECN and RTT.
//!
//! The paper's RNIC runs "an in-house, window-based congestion control
//! algorithm that adjusts based on ECN and RTT". This module implements a
//! DCTCP-flavoured window:
//!
//! * additive increase of one MTU per RTT while ACKs are clean;
//! * multiplicative decrease proportional to the EWMA ECN fraction, at
//!   most once per RTT;
//! * sharp decrease on RTO loss;
//! * an RTT guard that stops growth when measured RTT exceeds a target
//!   (the "and RTT" part of the paper's description).
//!
//! One [`CongestionControl`] instance is a *congestion-control context*
//! (CCC). Stellar shares a single CCC across all 128 paths; the §9
//! ablation instantiates one per path over a reduced path count — see
//! `stellar-transport::sim`'s `per_path_cc` switch.

use stellar_sim::{SimDuration, SimTime};

/// CC parameters.
#[derive(Debug, Clone)]
pub struct CcConfig {
    /// MTU (window arithmetic quantum), bytes.
    pub mtu: u64,
    /// Initial window, bytes.
    pub init_window: u64,
    /// Floor, bytes.
    pub min_window: u64,
    /// Ceiling, bytes.
    pub max_window: u64,
    /// DCTCP g: EWMA gain for the ECN fraction.
    pub ecn_gain: f64,
    /// RTT above which growth pauses (latency guard).
    pub rtt_target: SimDuration,
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig {
            mtu: 4096,
            // ~BDP of 200 Gbps × 8 µs ≈ 200 KB.
            init_window: 192 * 1024,
            min_window: 2 * 4096,
            max_window: 1024 * 1024,
            ecn_gain: 1.0 / 16.0,
            rtt_target: SimDuration::from_micros(50),
        }
    }
}

/// One congestion-control context.
#[derive(Debug, Clone)]
pub struct CongestionControl {
    config: CcConfig,
    cwnd: u64,
    ecn_fraction: f64,
    acked_since_rtt: u64,
    marked_since_rtt: u64,
    last_decrease: SimTime,
    srtt: SimDuration,
    decreases: u64,
    rto_resets: u64,
}

impl CongestionControl {
    /// A fresh context.
    pub fn new(config: CcConfig) -> Self {
        let cwnd = config.init_window;
        CongestionControl {
            config,
            cwnd,
            ecn_fraction: 0.0,
            acked_since_rtt: 0,
            marked_since_rtt: 0,
            last_decrease: SimTime::ZERO,
            srtt: SimDuration::ZERO,
            decreases: 0,
            rto_resets: 0,
        }
    }

    /// Current window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Smoothed RTT (zero before the first sample).
    pub fn srtt(&self) -> SimDuration {
        self.srtt
    }

    /// Whether `bytes` more may be put in flight given `inflight`. An
    /// idle context always releases one packet, even one larger than the
    /// window; otherwise such a packet would never be sent.
    pub fn can_send(&self, inflight: u64, bytes: u64) -> bool {
        inflight == 0 || inflight + bytes <= self.cwnd
    }

    /// Process one ACK at `now` for a packet of `bytes` with RTT `rtt`,
    /// ECN-echo `ecn`.
    pub fn on_ack(&mut self, now: SimTime, bytes: u64, rtt: SimDuration, ecn: bool) {
        self.srtt = if self.srtt == SimDuration::ZERO {
            rtt
        } else {
            SimDuration::from_nanos((self.srtt.as_nanos() * 7 + rtt.as_nanos()) / 8)
        };
        self.acked_since_rtt += 1;
        if ecn {
            self.marked_since_rtt += 1;
        }

        let rtt_elapsed =
            now.saturating_duration_since(self.last_decrease) >= self.srtt;
        if rtt_elapsed && self.acked_since_rtt > 0 {
            // Fold the last window's mark fraction into the EWMA (DCTCP).
            let frac = self.marked_since_rtt as f64 / self.acked_since_rtt as f64;
            self.ecn_fraction = (1.0 - self.config.ecn_gain) * self.ecn_fraction
                + self.config.ecn_gain * frac;
            if frac > 0.0 {
                let cut = (self.cwnd as f64 * self.ecn_fraction / 2.0) as u64;
                self.cwnd = (self.cwnd - cut).max(self.config.min_window);
                self.decreases += 1;
            }
            self.acked_since_rtt = 0;
            self.marked_since_rtt = 0;
            self.last_decrease = now;
        }

        // Additive increase: +MTU per cwnd's worth of clean ACKs, gated by
        // the RTT target.
        if !ecn && self.srtt <= self.config.rtt_target {
            let inc = self.config.mtu * bytes.max(1) / self.cwnd.max(1);
            self.cwnd = (self.cwnd + inc.max(1)).min(self.config.max_window);
        }
    }

    /// Process an RTO-detected loss.
    ///
    /// `path_share` is the fraction of this congestion-control context the
    /// losing path represents: 1.0 for per-path CCCs or single path (the
    /// classic halving), `1/128` when one of 128 sprayed paths loses a
    /// packet — a loss on one path says nothing about the other 127, so a
    /// shared CCC only sheds that path's share (§9's high-fanout design).
    pub fn on_rto(&mut self, path_share: f64) {
        assert!((0.0..=1.0).contains(&path_share), "share out of range");
        let cut = (self.cwnd as f64 * path_share * 0.5) as u64;
        self.cwnd = (self.cwnd - cut.min(self.cwnd)).max(self.config.min_window);
        self.rto_resets += 1;
    }

    /// `(ecn-triggered decreases, rto resets)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.decreases, self.rto_resets)
    }

    /// The configuration.
    pub fn config(&self) -> &CcConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }
    fn rtt(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn clean_acks_grow_window() {
        let mut cc = CongestionControl::new(CcConfig::default());
        let w0 = cc.cwnd();
        for i in 0..200 {
            cc.on_ack(t(i * 10), 4096, rtt(8), false);
        }
        assert!(cc.cwnd() > w0);
        assert!(cc.cwnd() <= cc.config().max_window);
    }

    #[test]
    fn growth_caps_at_max_window() {
        let mut cc = CongestionControl::new(CcConfig::default());
        for i in 0..100_000 {
            cc.on_ack(t(i), 4096, rtt(8), false);
        }
        assert_eq!(cc.cwnd(), cc.config().max_window);
    }

    #[test]
    fn ecn_marks_shrink_window() {
        let mut cc = CongestionControl::new(CcConfig::default());
        // Warm up srtt.
        cc.on_ack(t(0), 4096, rtt(8), false);
        let w0 = cc.cwnd();
        // One full RTT of fully-marked ACKs, repeated.
        for round in 1..20u64 {
            for i in 0..48 {
                cc.on_ack(t(round * 100 + i), 4096, rtt(8), true);
            }
        }
        assert!(cc.cwnd() < w0, "cwnd={} w0={w0}", cc.cwnd());
        assert!(cc.counters().0 > 0);
    }

    #[test]
    fn window_never_collapses_below_floor() {
        let mut cc = CongestionControl::new(CcConfig::default());
        cc.on_ack(t(0), 4096, rtt(8), false);
        for round in 1..200u64 {
            for i in 0..16 {
                cc.on_ack(t(round * 100 + i), 4096, rtt(8), true);
            }
            cc.on_rto(1.0);
        }
        assert_eq!(cc.cwnd(), cc.config().min_window);
    }

    #[test]
    fn rto_halves_window_at_full_share() {
        let mut cc = CongestionControl::new(CcConfig::default());
        let w0 = cc.cwnd();
        cc.on_rto(1.0);
        assert_eq!(cc.cwnd(), w0 / 2);
        assert_eq!(cc.counters().1, 1);
    }

    #[test]
    fn rto_with_small_share_barely_moves_window() {
        let mut cc = CongestionControl::new(CcConfig::default());
        let w0 = cc.cwnd();
        cc.on_rto(1.0 / 128.0);
        let cut = w0 - cc.cwnd();
        assert!(cut > 0 && cut < w0 / 64, "cut={cut}");
    }

    #[test]
    fn rtt_guard_pauses_growth() {
        let mut cc = CongestionControl::new(CcConfig::default());
        let w0 = cc.cwnd();
        // Clean ACKs but RTT far above target: no growth.
        for i in 0..100 {
            cc.on_ack(t(i * 10), 4096, rtt(500), false);
        }
        assert_eq!(cc.cwnd(), w0);
    }

    #[test]
    fn can_send_respects_window() {
        let cc = CongestionControl::new(CcConfig::default());
        assert!(cc.can_send(0, 4096));
        assert!(cc.can_send(cc.cwnd() - 4096, 4096));
        assert!(!cc.can_send(cc.cwnd(), 4096));
    }

    #[test]
    fn idle_context_releases_a_packet_larger_than_the_window() {
        let cc = CongestionControl::new(CcConfig::default());
        let jumbo = cc.cwnd() + 64 * 1024;
        assert!(cc.can_send(0, jumbo));
        assert!(!cc.can_send(1, jumbo));
    }

    #[test]
    fn srtt_converges() {
        let mut cc = CongestionControl::new(CcConfig::default());
        for i in 0..100 {
            cc.on_ack(t(i * 10), 4096, rtt(12), false);
        }
        let srtt_us = cc.srtt().as_micros();
        assert!((11..=12).contains(&srtt_us), "srtt={srtt_us}");
    }
}
