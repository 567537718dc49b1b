//! RC connection state: message segmentation, sender bookkeeping, and the
//! out-of-order receive path.
//!
//! A posted message is not expanded into per-packet queue entries: the
//! sender walks a `(message, index)` cursor over [`Connection::messages`],
//! so posting costs one `MessageState` push however many packets the
//! message has. Only a QP re-establishment materialises packets, into the
//! replay queue (see [`Connection::replay_unacked`]).
//!
//! Spraying packets over 128 paths guarantees heavy reordering at the
//! receiver. Like the paper's RNIC (Direct Packet Placement, paper ref. 19), the
//! receiver writes each packet straight to its memory slot — modelled by a
//! per-message bitmap — and completes the message exactly once when every
//! packet has landed, regardless of arrival order. Duplicates (RTO
//! retransmissions racing the original) are absorbed idempotently.

use std::collections::VecDeque;

use stellar_net::NicId;
use stellar_sim::SimTime;

/// Connection identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// Message identifier, unique within a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId(pub u64);

/// A packet not yet sent: what [`Connection::next_packet`] hands the pump,
/// and the replay queue's entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingPacket {
    /// Owning message.
    pub msg: MsgId,
    /// Packet index within the message.
    pub idx: u64,
    /// Payload bytes.
    pub bytes: u64,
}

/// A packet in flight (sender view).
#[derive(Debug, Clone, Copy)]
pub struct InflightPacket {
    /// Owning message.
    pub msg: MsgId,
    /// Packet index within the message.
    pub idx: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Path it was sent on.
    pub path: u32,
    /// Send timestamp (for RTT).
    pub sent_at: SimTime,
    /// Retransmission count.
    pub retx: u32,
}

/// Direct-mapped table of in-flight packets keyed by sequence number.
///
/// Sequence numbers are dense and monotone, and the live span (newest
/// minus oldest unacked) tracks the congestion window, so a power-of-two
/// ring indexed by `seq & mask` almost never collides; when the span
/// outgrows the table it doubles and re-places every entry. Single-probe
/// get/insert/remove beats a hash map on the per-packet fast path
/// (deliver, ack, and RTO each hit this table once per packet).
#[derive(Debug, Default)]
pub struct InflightTable {
    /// `slots[seq & mask]` holds `(seq, packet)`; allocation is lazy so
    /// idle connections (large-cluster sims) cost nothing.
    slots: Vec<Option<(u64, InflightPacket)>>,
    len: usize,
}

impl InflightTable {
    /// Initial slot count on first insert. Small on purpose: a 16k-rank
    /// ring keeps one packet in flight per connection, and every unused
    /// slot is 56 bytes of connection state to keep in cache. Windowed
    /// flows double their way up to the window in a handful of
    /// re-placements.
    const MIN_SLOTS: usize = 4;

    #[inline]
    fn mask(&self) -> u64 {
        self.slots.len() as u64 - 1
    }

    /// Number of packets in flight.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packet with sequence number `seq`, if in flight.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&InflightPacket> {
        match self.slots.get((seq & self.mask()) as usize)? {
            Some((s, pkt)) if *s == seq => Some(pkt),
            _ => None,
        }
    }

    /// Mutable access to the packet with sequence number `seq`.
    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut InflightPacket> {
        let mask = self.mask();
        match self.slots.get_mut((seq & mask) as usize)? {
            Some((s, pkt)) if *s == seq => Some(pkt),
            _ => None,
        }
    }

    /// Insert `pkt` under `seq`. `seq` must not already be present (the
    /// transport allocates each sequence number once).
    pub fn insert(&mut self, seq: u64, pkt: InflightPacket) {
        if self.slots.is_empty() {
            self.slots.resize_with(Self::MIN_SLOTS, || None);
        }
        loop {
            let slot = (seq & self.mask()) as usize;
            match &self.slots[slot] {
                None => {
                    self.slots[slot] = Some((seq, pkt));
                    self.len += 1;
                    return;
                }
                Some((s, _)) => {
                    debug_assert_ne!(*s, seq, "sequence number inserted twice");
                    self.grow();
                }
            }
        }
    }

    /// Remove and return the packet under `seq`, if in flight.
    pub fn remove(&mut self, seq: u64) -> Option<InflightPacket> {
        let mask = self.mask();
        let slot = self.slots.get_mut((seq & mask) as usize)?;
        match slot {
            Some((s, _)) if *s == seq => {
                let (_, pkt) = slot.take().expect("just matched");
                self.len -= 1;
                Some(pkt)
            }
            _ => None,
        }
    }

    /// Drop every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    /// The slot `seq` maps to, whether or not it holds `seq` (`None`
    /// before the first insert: the mask wraps to all ones and the empty
    /// table has no slot under it). Only for cache prefetching: reading
    /// it answers nothing about what is in flight.
    #[inline]
    pub(crate) fn slot_hint(&self, seq: u64) -> Option<&Option<(u64, InflightPacket)>> {
        let mask = (self.slots.len() as u64).wrapping_sub(1);
        self.slots.get((seq & mask) as usize)
    }

    /// Iterate over the in-flight packets (arbitrary order).
    pub fn values(&self) -> impl Iterator<Item = &InflightPacket> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(_, p)| p))
    }

    /// Double the table until the colliding span fits, re-placing every
    /// entry at its new slot.
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(new_len, || None);
        for entry in old.into_iter().flatten() {
            let slot = (entry.0 & self.mask()) as usize;
            debug_assert!(self.slots[slot].is_none(), "doubling separates live seqs");
            self.slots[slot] = Some(entry);
        }
    }
}

/// Per-message receive/ack progress.
#[derive(Debug)]
pub struct MessageState {
    /// Total packets in the message.
    pub total_packets: u64,
    /// Message length in bytes.
    pub bytes: u64,
    /// When the sender posted it.
    pub posted_at: SimTime,
    /// Receiver-side bitmap of landed packets: word 0 inline, so
    /// messages of up to 64 packets never touch the heap.
    received_head: u64,
    /// Bitmap words 1.. (empty for messages of up to 64 packets).
    received_tail: Vec<u64>,
    received_count: u64,
    /// Sender-side count of acknowledged packets.
    pub acked_packets: u64,
    /// Set when the receiver completed the message.
    pub completed_at: Option<SimTime>,
}

impl MessageState {
    /// A fresh message of `total_packets` packets.
    pub fn new(total_packets: u64, bytes: u64, posted_at: SimTime) -> Self {
        MessageState {
            total_packets,
            bytes,
            posted_at,
            received_head: 0,
            received_tail: vec![0u64; total_packets.div_ceil(64).saturating_sub(1) as usize],
            received_count: 0,
            acked_packets: 0,
            completed_at: None,
        }
    }

    /// Payload bytes of packet `idx` when segmented at `mtu`: `mtu`,
    /// except for a short tail.
    #[inline]
    pub(crate) fn packet_bytes(&self, idx: u64, mtu: u64) -> u64 {
        debug_assert!(idx < self.total_packets, "packet index out of range");
        if idx == self.total_packets - 1 {
            self.bytes - idx * mtu
        } else {
            mtu
        }
    }

    #[inline]
    fn word(&self, idx: u64) -> u64 {
        match idx / 64 {
            0 => self.received_head,
            w => self.received_tail[w as usize - 1],
        }
    }

    /// Record packet `idx` landing at the receiver. Returns `true` if it
    /// was new (not a duplicate).
    pub fn place_packet(&mut self, idx: u64) -> bool {
        assert!(idx < self.total_packets, "packet index out of range");
        let bit = 1 << (idx % 64);
        let word = match idx / 64 {
            0 => &mut self.received_head,
            w => &mut self.received_tail[w as usize - 1],
        };
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.received_count += 1;
        true
    }

    /// Whether every packet has landed.
    pub fn fully_received(&self) -> bool {
        self.received_count == self.total_packets
    }

    /// Whether packet `idx` has landed at the receiver.
    pub fn is_received(&self, idx: u64) -> bool {
        assert!(idx < self.total_packets, "packet index out of range");
        self.word(idx) & (1 << (idx % 64)) != 0
    }

    /// Packets landed so far.
    pub fn received_count(&self) -> u64 {
        self.received_count
    }
}

/// Why a two-sided send could not be accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// No receive buffer posted (the RC "receiver not ready" NAK).
    ReceiverNotReady,
    /// The matched receive buffer is smaller than the message.
    RecvBufferTooSmall {
        /// Posted buffer size.
        posted: u64,
        /// Message size.
        message: u64,
    },
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::ReceiverNotReady => write!(f, "RNR NAK: no receive posted"),
            SendError::RecvBufferTooSmall { posted, message } => {
                write!(f, "recv buffer {posted} B < message {message} B")
            }
        }
    }
}

impl std::error::Error for SendError {}

/// Why a connection entered the terminal [`ConnState::Error`] state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FatalError {
    /// One packet was retransmitted `retries` times without an ACK —
    /// the IB `retry_cnt` exceeded semantics. The QP is broken; the
    /// application must tear down and re-establish.
    RetryBudgetExhausted {
        /// Sequence number of the packet that exhausted the budget.
        seq: u64,
        /// Retransmissions attempted before giving up.
        retries: u32,
    },
    /// The connection's virtual device was torn out from under it —
    /// vStellar device churn (host driver restart, device error,
    /// container reschedule). Injected via
    /// [`TransportSim::device_churn`](crate::TransportSim::device_churn);
    /// only terminal if the recovery attempt budget is already spent.
    DeviceChurned,
}

impl std::fmt::Display for FatalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FatalError::RetryBudgetExhausted { seq, retries } => {
                write!(f, "retry budget exhausted: seq {seq} after {retries} retransmits")
            }
            FatalError::DeviceChurned => {
                write!(f, "virtual device churned beneath the connection")
            }
        }
    }
}

impl std::error::Error for FatalError {}

/// Connection lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnState {
    /// Transmitting normally.
    #[default]
    Active,
    /// The QP was torn down after a fatal transport error and a
    /// re-establishment is pending (recovery policy is active). The
    /// connection sends nothing until the reconnect fires; unacked
    /// messages will be replayed from the receiver bitmap.
    Recovering,
    /// Terminal error — the transport gave up (see
    /// [`Connection::fatal`]); no further packets are sent or accepted.
    Error,
}

/// Cumulative connection statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Packets sent (first transmissions).
    pub sent_packets: u64,
    /// Packets retransmitted after RTO.
    pub retransmits: u64,
    /// RTO events.
    pub rto_events: u64,
    /// Packets delivered to the receiver (deduplicated).
    pub delivered_packets: u64,
    /// Payload bytes delivered (deduplicated).
    pub delivered_bytes: u64,
    /// Messages completed.
    pub completed_messages: u64,
    /// ACKs with ECN echo.
    pub ecn_acks: u64,
    /// Total ACKs.
    pub acks: u64,
    /// Two-sided sends rejected with RNR (no receive posted).
    pub rnr_naks: u64,
    /// Completed connection recoveries (teardown → re-establish).
    pub recoveries: u64,
    /// Packets re-queued from incomplete receiver bitmaps at
    /// re-establishment (exactly the not-yet-received indices).
    pub replayed_packets: u64,
}

impl ConnStats {
    /// Field-wise accumulation (see `TransportSim::total_stats`).
    pub fn merge(&mut self, other: &ConnStats) {
        self.sent_packets += other.sent_packets;
        self.retransmits += other.retransmits;
        self.rto_events += other.rto_events;
        self.delivered_packets += other.delivered_packets;
        self.delivered_bytes += other.delivered_bytes;
        self.completed_messages += other.completed_messages;
        self.ecn_acks += other.ecn_acks;
        self.acks += other.acks;
        self.rnr_naks += other.rnr_naks;
        self.recoveries += other.recoveries;
        self.replayed_packets += other.replayed_packets;
    }
}

impl std::ops::AddAssign for ConnStats {
    fn add_assign(&mut self, other: ConnStats) {
        self.merge(&other);
    }
}

impl std::iter::Sum for ConnStats {
    fn sum<I: Iterator<Item = ConnStats>>(iter: I) -> ConnStats {
        let mut total = ConnStats::default();
        for s in iter {
            total += s;
        }
        total
    }
}

/// The packet a send cursor at packet `idx` of message `msg` points to;
/// `None` once the cursor is past the last posted message.
#[inline]
fn cursor_packet(messages: &[MessageState], msg: u64, idx: u64, mtu: u64) -> Option<PendingPacket> {
    let m = messages.get(msg as usize)?;
    Some(PendingPacket {
        msg: MsgId(msg),
        idx,
        bytes: m.packet_bytes(idx, mtu),
    })
}

/// Move a send cursor that points at a packet one packet on, to the next
/// message's first packet after a message's last.
#[inline]
fn cursor_step(messages: &[MessageState], msg: &mut u64, idx: &mut u64) {
    *idx += 1;
    if *idx == messages[*msg as usize].total_packets {
        *msg += 1;
        *idx = 0;
    }
}

/// One RC connection (sender and receiver state in one place — both ends
/// live in the same simulation).
#[derive(Debug)]
pub struct Connection {
    /// Identifier.
    pub id: ConnId,
    /// Source NIC.
    pub src: NicId,
    /// Destination NIC.
    pub dst: NicId,
    /// Packets re-queued by [`Connection::replay_unacked`], sent before
    /// the cursor resumes. Empty except after a QP re-establishment.
    pub(crate) replay: VecDeque<PendingPacket>,
    /// Send cursor: the next never-sent packet is packet `cursor_idx` of
    /// message `cursor_msg`; every earlier message has been sent in full.
    /// At `cursor_msg == messages.len()` nothing new is queued.
    cursor_msg: u64,
    cursor_idx: u64,
    /// In-flight packets by sequence number (deliver, ack and RTO each
    /// look up here once per packet, so this is a direct-mapped table,
    /// not a hash map).
    pub inflight: InflightTable,
    /// In-flight payload bytes (window accounting).
    pub inflight_bytes: u64,
    /// Per-message state, indexed by [`MsgId`] (ids are dense sequence
    /// numbers and messages live for the connection's lifetime, so a
    /// plain vector beats any map on the per-packet lookup path).
    pub messages: Vec<MessageState>,
    /// Posted receive buffers (two-sided verbs), FIFO-matched.
    pub recv_queue: VecDeque<u64>,
    /// Statistics.
    pub stats: ConnStats,
    /// Lifecycle state ([`ConnState::Error`] is terminal).
    pub state: ConnState,
    /// The error that killed the connection, if any.
    pub fatal: Option<FatalError>,
    /// Consecutive recovery attempts since the last successful ACK
    /// (drives the reconnect backoff; an ACK proves the new QP works and
    /// resets the ladder).
    pub recovery_attempts: u32,
    /// When the in-progress recovery began (teardown time), if any.
    pub recovering_since: Option<SimTime>,
    next_seq: u64,
    next_msg: u64,
}

impl Connection {
    /// A new idle connection.
    pub fn new(id: ConnId, src: NicId, dst: NicId) -> Self {
        Connection {
            id,
            src,
            dst,
            replay: VecDeque::new(),
            cursor_msg: 0,
            cursor_idx: 0,
            inflight: InflightTable::default(),
            inflight_bytes: 0,
            messages: Vec::new(),
            recv_queue: VecDeque::new(),
            stats: ConnStats::default(),
            state: ConnState::Active,
            fatal: None,
            recovery_attempts: 0,
            recovering_since: None,
            next_seq: 0,
            next_msg: 0,
        }
    }

    /// Queue a message of `bytes`, segmented into MTU-sized packets. The
    /// packets are not materialised: the send cursor reaches them once
    /// every earlier message has been sent.
    pub fn post_message(&mut self, now: SimTime, bytes: u64, mtu: u64) -> MsgId {
        assert!(bytes > 0, "empty message");
        let id = MsgId(self.next_msg);
        self.next_msg += 1;
        debug_assert_eq!(self.messages.len() as u64, id.0);
        self.messages
            .push(MessageState::new(bytes.div_ceil(mtu), bytes, now));
        id
    }

    /// The packet the pump sends next: the replay queue's head, else the
    /// packet under the cursor. `mtu` must be the one the message was
    /// posted with.
    #[inline]
    pub(crate) fn next_packet(&self, mtu: u64) -> Option<PendingPacket> {
        if let Some(&pkt) = self.replay.front() {
            return Some(pkt);
        }
        cursor_packet(&self.messages, self.cursor_msg, self.cursor_idx, mtu)
    }

    /// Consume the packet [`next_packet`](Self::next_packet) returned.
    #[inline]
    pub(crate) fn advance(&mut self) {
        if self.replay.pop_front().is_none() {
            cursor_step(&self.messages, &mut self.cursor_msg, &mut self.cursor_idx);
        }
    }

    /// Whether any packet waits to be sent (replay queue or cursor).
    #[inline]
    pub(crate) fn has_pending(&self) -> bool {
        !self.replay.is_empty() || (self.cursor_msg as usize) < self.messages.len()
    }

    /// Every packet waiting to be sent, in send order: the replay queue,
    /// then the packets a copy of the cursor steps over on its way past
    /// the last posted message (the same steps the pump takes through
    /// [`next_packet`](Self::next_packet) and [`advance`](Self::advance)).
    pub fn pending(&self, mtu: u64) -> impl Iterator<Item = PendingPacket> + '_ {
        let (mut msg, mut idx) = (self.cursor_msg, self.cursor_idx);
        let fresh = std::iter::from_fn(move || {
            let pkt = cursor_packet(&self.messages, msg, idx, mtu)?;
            cursor_step(&self.messages, &mut msg, &mut idx);
            Some(pkt)
        });
        self.replay.iter().copied().chain(fresh)
    }

    /// Teardown: discard everything queued and in flight. The cursor
    /// moves past every posted message; whatever never landed comes back
    /// through [`replay_unacked`](Self::replay_unacked) if the QP is
    /// re-established.
    pub(crate) fn drain(&mut self) {
        self.replay.clear();
        self.cursor_msg = self.messages.len() as u64;
        self.cursor_idx = 0;
        self.inflight.clear();
        self.inflight_bytes = 0;
    }

    /// Post a receive buffer of `bytes` (two-sided verbs, IBTA ordering:
    /// buffers match incoming sends in FIFO order).
    pub fn post_recv(&mut self, bytes: u64) {
        assert!(bytes > 0, "empty receive buffer");
        self.recv_queue.push_back(bytes);
    }

    /// Two-sided send: consume the head receive buffer, then queue the
    /// message like a write.
    ///
    /// Returns [`SendError::ReceiverNotReady`] (and counts an RNR NAK) if
    /// no receive is posted, or [`SendError::RecvBufferTooSmall`] if the
    /// matched buffer cannot hold the message (a fatal RC completion
    /// error on real hardware — the buffer is consumed either way, per
    /// the IBTA spec).
    pub fn post_send(
        &mut self,
        now: SimTime,
        bytes: u64,
        mtu: u64,
    ) -> Result<MsgId, SendError> {
        let Some(posted) = self.recv_queue.pop_front() else {
            self.stats.rnr_naks += 1;
            stellar_telemetry::count(stellar_telemetry::Subsystem::Transport, "rnr_nak", 1);
            return Err(SendError::ReceiverNotReady);
        };
        if posted < bytes {
            return Err(SendError::RecvBufferTooSmall {
                posted,
                message: bytes,
            });
        }
        Ok(self.post_message(now, bytes, mtu))
    }

    /// Allocate the next sequence number.
    pub fn next_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Whether nothing remains to send or await.
    pub fn is_idle(&self) -> bool {
        !self.has_pending() && self.inflight.is_empty()
    }

    /// Rebuild the send queue from the receiver bitmaps after a QP
    /// re-establishment: every packet of every incomplete message that
    /// has not landed is queued for replay, in `(message, index)` order,
    /// and the cursor moves past them all — including messages posted
    /// while the connection was down, so each of their packets is sent
    /// once. Returns the number of packets queued.
    ///
    /// This is the exactly-once replay. Indices already set in the
    /// bitmap are skipped — the receiver keeps its partial state across
    /// the re-establishment (DPP writes packets straight to their memory
    /// slots, so landed data survives the QP) — and a replayed packet
    /// racing a late original is absorbed idempotently by
    /// [`MessageState::place_packet`].
    pub fn replay_unacked(&mut self, mtu: u64) -> u64 {
        debug_assert!(
            self.replay.is_empty() && self.inflight.is_empty(),
            "replay requires a drained connection"
        );
        let mut queued = 0;
        for (idx, m) in self.messages.iter().enumerate() {
            if m.completed_at.is_some() {
                continue;
            }
            let id = MsgId(idx as u64);
            for idx in 0..m.total_packets {
                if m.is_received(idx) {
                    continue;
                }
                self.replay.push_back(PendingPacket {
                    msg: id,
                    idx,
                    bytes: m.packet_bytes(idx, mtu),
                });
                queued += 1;
            }
        }
        self.cursor_msg = self.messages.len() as u64;
        self.cursor_idx = 0;
        queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn() -> Connection {
        Connection::new(ConnId(0), NicId(0), NicId(1))
    }

    #[test]
    fn segmentation_counts_and_tail() {
        let mut c = conn();
        let id = c.post_message(SimTime::ZERO, 10_000, 4096);
        let m = &c.messages[id.0 as usize];
        assert_eq!(m.total_packets, 3);
        let sizes: Vec<u64> = c.pending(4096).map(|p| p.bytes).collect();
        assert_eq!(sizes, vec![4096, 4096, 1808]);
    }

    #[test]
    fn single_packet_message() {
        let mut c = conn();
        let id = c.post_message(SimTime::ZERO, 8, 4096);
        assert_eq!(c.messages[id.0 as usize].total_packets, 1);
        assert_eq!(c.next_packet(4096).map(|p| p.bytes), Some(8));
    }

    #[test]
    fn out_of_order_placement_completes_once() {
        let mut m = MessageState::new(5, 5 * 4096, SimTime::ZERO);
        for idx in [4, 0, 2, 1] {
            assert!(m.place_packet(idx));
            assert!(!m.fully_received());
        }
        // Duplicate of an already-placed packet.
        assert!(!m.place_packet(2));
        assert!(!m.fully_received());
        assert!(m.place_packet(3));
        assert!(m.fully_received());
        assert_eq!(m.received_count(), 5);
    }

    #[test]
    fn bitmap_handles_many_packets() {
        let mut m = MessageState::new(1000, 1000 * 4096, SimTime::ZERO);
        for idx in (0..1000).rev() {
            m.place_packet(idx);
        }
        assert!(m.fully_received());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn placement_beyond_range_panics() {
        let mut m = MessageState::new(3, 3 * 4096, SimTime::ZERO);
        m.place_packet(3);
    }

    #[test]
    fn send_requires_posted_recv() {
        let mut c = conn();
        assert_eq!(
            c.post_send(SimTime::ZERO, 100, 4096),
            Err(SendError::ReceiverNotReady)
        );
        assert_eq!(c.stats.rnr_naks, 1);
        c.post_recv(4096);
        assert!(c.post_send(SimTime::ZERO, 100, 4096).is_ok());
        // The buffer was consumed.
        assert_eq!(
            c.post_send(SimTime::ZERO, 100, 4096),
            Err(SendError::ReceiverNotReady)
        );
    }

    #[test]
    fn send_larger_than_recv_fails_and_consumes() {
        let mut c = conn();
        c.post_recv(64);
        assert_eq!(
            c.post_send(SimTime::ZERO, 100, 4096),
            Err(SendError::RecvBufferTooSmall {
                posted: 64,
                message: 100
            })
        );
        // Per IBTA, the mismatched buffer is gone.
        assert!(c.recv_queue.is_empty());
    }

    #[test]
    fn recvs_match_fifo() {
        let mut c = conn();
        c.post_recv(100);
        c.post_recv(10_000);
        // First send matches the 100-byte buffer even though the second
        // would fit better (no reordering, per spec).
        assert!(matches!(
            c.post_send(SimTime::ZERO, 5_000, 4096),
            Err(SendError::RecvBufferTooSmall { posted: 100, .. })
        ));
        assert!(c.post_send(SimTime::ZERO, 5_000, 4096).is_ok());
    }

    #[test]
    fn sequence_numbers_are_unique() {
        let mut c = conn();
        let a = c.next_seq();
        let b = c.next_seq();
        assert_ne!(a, b);
    }

    #[test]
    fn idle_detection() {
        let mut c = conn();
        assert!(c.is_idle());
        c.post_message(SimTime::ZERO, 100, 4096);
        assert!(!c.is_idle());
    }

    #[test]
    fn stats_merge_is_fieldwise() {
        let a = ConnStats {
            sent_packets: 1,
            retransmits: 2,
            rto_events: 3,
            delivered_packets: 4,
            delivered_bytes: 5,
            completed_messages: 6,
            ecn_acks: 7,
            acks: 8,
            rnr_naks: 9,
            recoveries: 10,
            replayed_packets: 11,
        };
        let total: ConnStats = [a, a, a].into_iter().sum();
        assert_eq!(total.sent_packets, 3);
        assert_eq!(total.retransmits, 6);
        assert_eq!(total.rto_events, 9);
        assert_eq!(total.delivered_packets, 12);
        assert_eq!(total.delivered_bytes, 15);
        assert_eq!(total.completed_messages, 18);
        assert_eq!(total.ecn_acks, 21);
        assert_eq!(total.acks, 24);
        assert_eq!(total.rnr_naks, 27);
        assert_eq!(total.recoveries, 30);
        assert_eq!(total.replayed_packets, 33);
    }

    #[test]
    fn replay_requeues_exactly_the_missing_indices() {
        let mut c = conn();
        let id = c.post_message(SimTime::ZERO, 10_000, 4096); // 3 packets
        c.drain(); // simulate all packets in flight, then drained
        c.messages.get_mut(id.0 as usize).unwrap().place_packet(1);
        let queued = c.replay_unacked(4096);
        assert_eq!(queued, 2);
        let idxs: Vec<u64> = c.pending(4096).map(|p| p.idx).collect();
        assert_eq!(idxs, vec![0, 2]);
        // Byte sizes match the original segmentation (tail included).
        let sizes: Vec<u64> = c.pending(4096).map(|p| p.bytes).collect();
        assert_eq!(sizes, vec![4096, 1808]);
        // A completed message is never replayed.
        let m = c.messages.get_mut(id.0 as usize).unwrap();
        m.place_packet(0);
        m.place_packet(2);
        m.completed_at = Some(SimTime::ZERO);
        c.replay.clear();
        assert_eq!(c.replay_unacked(4096), 0);
    }

    #[test]
    fn cursor_walks_messages_in_post_order() {
        let mut c = conn();
        c.post_message(SimTime::ZERO, 5_000, 4096); // 2 packets
        c.post_message(SimTime::ZERO, 100, 4096); // 1 packet
        let mut sent = Vec::new();
        while let Some(p) = c.next_packet(4096) {
            sent.push((p.msg.0, p.idx, p.bytes));
            c.advance();
        }
        assert_eq!(sent, vec![(0, 0, 4096), (0, 1, 904), (1, 0, 100)]);
        assert!(!c.has_pending() && c.is_idle());
        // A message posted after the cursor drained is next in line.
        c.post_message(SimTime::ZERO, 10, 4096);
        assert_eq!(
            c.next_packet(4096).map(|p| (p.msg.0, p.bytes)),
            Some((2, 10))
        );
    }

    #[test]
    fn replay_covers_messages_posted_while_down_and_skips_them() {
        let mut c = conn();
        c.post_message(SimTime::ZERO, 3 * 4096, 4096);
        c.advance(); // packet 0 sent, then the QP died
        c.drain();
        assert!(!c.has_pending(), "teardown discards the queue");
        c.post_message(SimTime::ZERO, 2 * 4096, 4096); // posted while down
        assert_eq!(c.replay_unacked(4096), 5);
        let order: Vec<(u64, u64)> = c.pending(4096).map(|p| (p.msg.0, p.idx)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]);
        for _ in 0..5 {
            c.advance();
        }
        assert!(
            !c.has_pending(),
            "the cursor moved past the replayed messages"
        );
    }

    #[test]
    fn bitmap_word_boundaries() {
        for total in [1, 63, 64, 65, 128, 129] {
            let mut m = MessageState::new(total, total * 4096, SimTime::ZERO);
            for idx in (0..total).rev() {
                assert!(!m.is_received(idx));
                assert!(m.place_packet(idx));
                assert!(m.is_received(idx));
                assert!(!m.place_packet(idx));
            }
            assert!(m.fully_received());
        }
    }

    #[test]
    fn inflight_table_grows_from_its_minimum() {
        let mut t = InflightTable::default();
        assert!(t.slot_hint(9).is_none(), "no slot before the first insert");
        let pkt = |seq: u64| InflightPacket {
            msg: MsgId(0),
            idx: seq,
            bytes: 1,
            path: 0,
            sent_at: SimTime::ZERO,
            retx: 0,
        };
        for seq in 0..100 {
            t.insert(seq, pkt(seq));
        }
        assert_eq!(t.len(), 100);
        assert!((0..100).all(|s| t.get(s).map(|p| p.idx) == Some(s)));
        assert!(t.remove(7).is_some() && t.get(7).is_none() && t.len() == 99);
        assert!(t.slot_hint(9).is_some());
    }

    #[test]
    fn new_connection_is_active_without_error() {
        let c = conn();
        assert_eq!(c.state, ConnState::Active);
        assert!(c.fatal.is_none());
    }
}
