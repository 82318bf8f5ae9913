//! `binsym-des` — a discrete-event simulation kernel in the style of the
//! SystemC reference simulator.
//!
//! The paper's SymEx-VP baseline executes software inside a SystemC virtual
//! prototype: every instruction advances simulated time, memory traffic goes
//! through TLM transactions, and the SystemC kernel schedules processes via
//! an event queue with delta cycles. The paper attributes SymEx-VP's
//! slowdown relative to BinSym to exactly this simulation environment
//! (§V-B). This crate provides that substrate: a virtual-time event queue
//! with delta-cycle semantics ([`EventQueue`]) and a latency-annotating
//! TLM-style bus model ([`Bus`]). The benchmark harness obtains the
//! SymEx-VP persona from an observer on the BinSym engine that drives the
//! queue once per retired instruction.
//!
//! # Example
//! ```
//! use binsym_des::{Bus, EventQueue, ProcessId, Time};
//!
//! const CPU: ProcessId = ProcessId(0);
//! const TIMER: ProcessId = ProcessId(1);
//!
//! let bus = Bus::default();
//! let mut queue = EventQueue::new();
//! queue.schedule(TIMER, Time::from_ns(50));
//! let mut timer_ticks = 0;
//! for _ in 0..5 {
//!     // Retire one instruction: fetch over the bus plus a 10 ns quantum,
//!     // then run the kernel until the CPU is due again.
//!     queue.schedule(CPU, Time::from_ns(10) + bus.transport(4));
//!     while let Some((_, pid)) = queue.pop() {
//!         if pid == CPU {
//!             break;
//!         }
//!         timer_ticks += 1;
//!         queue.schedule(TIMER, Time::from_ns(50));
//!     }
//! }
//! assert_eq!(queue.now(), Time::from_ns(125));
//! assert_eq!(timer_ticks, 2);
//! assert_eq!(queue.processed(), 7);
//! ```

#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Simulated time, in picoseconds (the SystemC default resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// Zero time.
    pub const ZERO: Time = Time(0);

    /// Constructs from nanoseconds.
    pub fn from_ns(ns: u64) -> Time {
        Time(ns * 1000)
    }

    /// Constructs from picoseconds.
    pub fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Value in nanoseconds (truncating).
    pub fn as_ns(self) -> u64 {
        self.0 / 1000
    }

    /// Saturating addition.
    #[must_use]
    pub fn saturating_add(self, other: Time) -> Time {
        Time(self.0.saturating_add(other.0))
    }
}

impl std::ops::Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ps", self.0)
    }
}

/// Identifier of a scheduled process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u32);

/// Kernel event: a process activation at `(time, delta)`.
///
/// Ordering follows SystemC: primary by timestamp, then by delta cycle, then
/// by insertion order (deterministic tie-breaking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: Time,
    delta: u32,
    seq: u64,
    pid: ProcessId,
}

/// The virtual-time event queue with delta-cycle semantics.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    now: Time,
    delta: u32,
    seq: u64,
    processed: u64,
}

impl EventQueue {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Current delta cycle within the current timestamp.
    pub fn delta_cycle(&self) -> u32 {
        self.delta
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Schedules an activation of `pid` after `delay` (0 = next delta
    /// cycle at the current time).
    pub fn schedule(&mut self, pid: ProcessId, delay: Time) {
        let (time, delta) = if delay == Time::ZERO {
            (self.now, self.delta + 1)
        } else {
            (self.now + delay, 0)
        };
        self.seq += 1;
        self.heap.push(Reverse(Event {
            time,
            delta,
            seq: self.seq,
            pid,
        }));
    }

    /// Pops the next event, advancing simulation time.
    pub fn pop(&mut self) -> Option<(Time, ProcessId)> {
        let Reverse(ev) = self.heap.pop()?;
        debug_assert!(ev.time >= self.now);
        self.now = ev.time;
        self.delta = ev.delta;
        self.processed += 1;
        Some((ev.time, ev.pid))
    }
}

/// A latency-annotating TLM-style bus: every transport returns the time the
/// access costs, and the initiating process waits for it.
#[derive(Debug, Clone, Copy)]
pub struct Bus {
    /// Latency of a single beat (one word) on the bus.
    pub beat_latency: Time,
    /// Fixed arbitration overhead per transaction.
    pub arbitration: Time,
}

impl Default for Bus {
    fn default() -> Self {
        Bus {
            beat_latency: Time::from_ns(10),
            arbitration: Time::from_ns(5),
        }
    }
}

impl Bus {
    /// Latency of a transaction of `bytes` bytes.
    pub fn transport(&self, bytes: u32) -> Time {
        let beats = u64::from(bytes.div_ceil(4).max(1));
        Time(self.arbitration.0 + beats * self.beat_latency.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        assert_eq!(Time::from_ns(1).0, 1000);
        assert_eq!((Time::from_ns(1) + Time::from_ps(500)).0, 1500);
        assert_eq!(Time::from_ns(3).as_ns(), 3);
    }

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(ProcessId(1), Time::from_ns(30));
        q.schedule(ProcessId(2), Time::from_ns(10));
        q.schedule(ProcessId(3), Time::from_ns(20));
        assert_eq!(q.pop().unwrap().1, ProcessId(2));
        assert_eq!(q.pop().unwrap().1, ProcessId(3));
        assert_eq!(q.pop().unwrap().1, ProcessId(1));
        assert_eq!(q.now(), Time::from_ns(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn delta_cycles_order_within_timestamp() {
        let mut q = EventQueue::new();
        q.schedule(ProcessId(1), Time::from_ns(10));
        let _ = q.pop(); // now = 10ns, delta 0
        q.schedule(ProcessId(2), Time::ZERO); // delta 1 at 10ns
        q.schedule(ProcessId(3), Time::ZERO); // delta 1 at 10ns (later seq)
        q.schedule(ProcessId(4), Time::from_ns(1));
        let (t2, p2) = q.pop().unwrap();
        assert_eq!((t2, p2), (Time::from_ns(10), ProcessId(2)));
        assert_eq!(q.delta_cycle(), 1);
        let (_, p3) = q.pop().unwrap();
        assert_eq!(p3, ProcessId(3));
        let (t4, _) = q.pop().unwrap();
        assert_eq!(t4, Time::from_ns(11));
        assert_eq!(q.delta_cycle(), 0);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(ProcessId(i), Time::from_ns(5));
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().1, ProcessId(i));
        }
    }

    #[test]
    fn bus_latency_scales_with_beats() {
        let bus = Bus::default();
        let one_word = bus.transport(4);
        let two_words = bus.transport(8);
        let byte = bus.transport(1);
        assert_eq!(byte, one_word, "sub-word access costs one beat");
        assert!(two_words > one_word);
        assert_eq!(
            two_words.0 - one_word.0,
            bus.beat_latency.0,
            "each extra beat adds one beat latency"
        );
    }
}
