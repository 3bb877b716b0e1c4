//! 2D-mesh on-chip network model.
//!
//! The paper's machine connects cores, L2 banks and directory modules with
//! a 2D mesh (5 cycles/hop, 256-bit links). This crate models that mesh
//! with dimension-ordered (XY) routing, per-link FIFO serialization, and
//! byte-level traffic accounting split into first-attempt and retry traffic
//! (Table 4 reports the retry-induced traffic increase).
//!
//! The model is *latency plus link-occupancy*: when a message is injected,
//! its route is walked immediately; each directed link has a `busy_until`
//! horizon, the message waits for the link, occupies it for its
//! serialization time, and pays the per-hop latency. Messages therefore
//! never overtake each other on a link, and hot links add queueing delay.
//!
//! # Examples
//!
//! ```
//! use asymfence_noc::{Mesh, Network};
//!
//! let mesh = Mesh::new(3, 3, 8); // 8 nodes on a 3x3 grid
//! let mut net: Network<&str> = Network::new(mesh, 5, 32);
//! net.send(0, 0, 7, 8, false, "hello");
//! let mut t = 0;
//! loop {
//!     if let Some((node, m)) = net.pop_arrival(t) {
//!         assert_eq!(node, 7);
//!         assert_eq!(m, "hello");
//!         break;
//!     }
//!     t += 1;
//! }
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use asymfence_common::ids::Cycle;
use asymfence_common::stats::TrafficStats;

/// Geometry of the mesh: a `cols x rows` grid hosting `nodes` endpoints,
/// numbered row-major starting at the origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mesh {
    cols: usize,
    rows: usize,
    nodes: usize,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if the grid cannot hold `nodes` endpoints or any dimension is
    /// zero.
    pub fn new(cols: usize, rows: usize, nodes: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be nonzero");
        assert!(
            nodes >= 1 && nodes <= cols * rows,
            "mesh too small for nodes"
        );
        Mesh { cols, rows, nodes }
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Grid dimensions `(cols, rows)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Grid coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coords(&self, node: usize) -> (usize, usize) {
        assert!(node < self.nodes, "node {node} out of range");
        (node % self.cols, node / self.cols)
    }

    /// Manhattan hop count between two nodes under XY routing.
    pub fn hops(&self, src: usize, dst: usize) -> u64 {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        (sx.abs_diff(dx) + sy.abs_diff(dy)) as u64
    }

    /// Directed links traversed by the XY route from `src` to `dst`.
    ///
    /// Each link is identified by `(from_tile, direction)` flattened into a
    /// dense index; see [`Mesh::link_count`].
    pub fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        let mut links = Vec::with_capacity(self.hops(src, dst) as usize);
        self.walk_route(src, dst, |l| links.push(l));
        links
    }

    /// Visits the directed links of the XY route from `src` to `dst` in
    /// order without materializing the route — the injection hot path
    /// walks links through this, so sending never allocates.
    pub fn walk_route(&self, src: usize, dst: usize, mut f: impl FnMut(usize)) {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        while x != dx {
            let dir = if dx > x { Dir::East } else { Dir::West };
            f(self.link_index(x, y, dir));
            if dx > x {
                x += 1;
            } else {
                x -= 1;
            }
        }
        while y != dy {
            let dir = if dy > y { Dir::South } else { Dir::North };
            f(self.link_index(x, y, dir));
            if dy > y {
                y += 1;
            } else {
                y -= 1;
            }
        }
    }

    /// Total number of directed links modelled (4 per tile; edge links are
    /// allocated but never used, which keeps indexing trivial).
    pub fn link_count(&self) -> usize {
        self.cols * self.rows * 4
    }

    fn link_index(&self, x: usize, y: usize, dir: Dir) -> usize {
        (y * self.cols + x) * 4 + dir as usize
    }
}

#[derive(Clone, Copy, Debug)]
enum Dir {
    East = 0,
    West = 1,
    South = 2,
    North = 3,
}

/// Heap key of an in-flight message. The payload waits in the
/// network's slab at `slot`, so sifting the arrival heap moves this
/// small `Copy` key, never the message. Ordered by `(arrival, seq)`
/// (`seq` is unique, so `node` and `slot` never break a tie).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Flight {
    arrival: Cycle,
    seq: u64,
    node: u32,
    slot: u32,
}

/// The mesh network carrying messages of type `M`.
///
/// Determinism: two messages arriving at the same cycle are delivered in
/// injection order.
#[derive(Debug)]
pub struct Network<M> {
    mesh: Mesh,
    hop_cycles: u64,
    link_bytes_per_cycle: u64,
    link_busy: Vec<Cycle>,
    in_flight: BinaryHeap<Reverse<Flight>>,
    /// Payloads of in-flight messages, indexed by their key's `slot`.
    payloads: Vec<Option<M>>,
    /// Vacant `payloads` slots, reused before the slab grows.
    free_slots: Vec<u32>,
    seq: u64,
    traffic: TrafficStats,
    /// Latest arrival scheduled per (src, dst) pair, flat at
    /// `src * nodes + dst`. Injected delays ([`Network::send_delayed`])
    /// are clamped against this so the point-to-point FIFO property
    /// survives arbitrary jitter.
    pair_floor: Vec<Cycle>,
}

impl<M> Network<M> {
    /// Creates a network over `mesh` with the given per-hop latency and
    /// link bandwidth (bytes per cycle).
    ///
    /// # Panics
    ///
    /// Panics if `link_bytes_per_cycle` is zero.
    pub fn new(mesh: Mesh, hop_cycles: u64, link_bytes_per_cycle: u64) -> Self {
        assert!(link_bytes_per_cycle > 0);
        Network {
            link_busy: vec![0; mesh.link_count()],
            pair_floor: vec![0; mesh.nodes() * mesh.nodes()],
            mesh,
            hop_cycles,
            link_bytes_per_cycle,
            in_flight: BinaryHeap::new(),
            payloads: Vec::new(),
            free_slots: Vec::new(),
            seq: 0,
            traffic: TrafficStats::default(),
        }
    }

    /// The mesh geometry.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Injects a message at cycle `now`; it will arrive at `dst` after
    /// routing, serialization and queueing delay. `retry` marks the bytes
    /// as retry traffic for Table 4 accounting.
    ///
    /// Self-sends (`src == dst`) take one cycle through the local switch.
    pub fn send(
        &mut self,
        now: Cycle,
        src: usize,
        dst: usize,
        bytes: u64,
        retry: bool,
        payload: M,
    ) {
        self.send_delayed(now, src, dst, bytes, retry, 0, payload);
    }

    /// Like [`Network::send`], but the message arrives `extra` cycles
    /// later than its natural time — the injection point for the schedule
    /// explorer's NoC jitter and invalidation-delay perturbations.
    ///
    /// Delivery order between the same `(src, dst)` pair is preserved no
    /// matter the delays (the coherence protocol relies on point-to-point
    /// FIFO): a delayed message pushes the pair's arrival floor forward,
    /// so later sends cannot overtake it.
    #[allow(clippy::too_many_arguments)]
    pub fn send_delayed(
        &mut self,
        now: Cycle,
        src: usize,
        dst: usize,
        bytes: u64,
        retry: bool,
        extra: Cycle,
        payload: M,
    ) {
        let ser = bytes.div_ceil(self.link_bytes_per_cycle).max(1);
        let mut t = now;
        let mesh = self.mesh;
        let hops = mesh.hops(src, dst);
        let weighted_bytes = bytes * hops.max(1);
        if hops == 0 {
            t += 1; // local switch traversal
        } else {
            let hop_cycles = self.hop_cycles;
            mesh.walk_route(src, dst, |link| {
                let start = t.max(self.link_busy[link]);
                self.link_busy[link] = start + ser;
                t = start + hop_cycles;
            });
        }
        t += extra;
        // FIFO clamp: never arrive before an earlier same-pair message.
        // (Unperturbed arrivals are already monotone per pair, so this is
        // a no-op when `extra` is 0 everywhere.)
        let floor = &mut self.pair_floor[src * mesh.nodes() + dst];
        t = t.max(*floor);
        *floor = t;
        self.traffic.messages += 1;
        if retry {
            self.traffic.retry_bytes += weighted_bytes;
        } else {
            self.traffic.base_bytes += weighted_bytes;
        }
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.payloads[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.payloads.push(Some(payload));
                u32::try_from(self.payloads.len() - 1).expect("fewer than 2^32 messages in flight")
            }
        };
        self.in_flight.push(Reverse(Flight {
            arrival: t,
            seq: self.seq,
            node: u32::try_from(dst).expect("mesh node indices fit in u32"),
            slot,
        }));
        self.seq += 1;
    }

    /// Pops the next message whose arrival time is `<= now`, if any.
    ///
    /// Call repeatedly each cycle until it returns `None`.
    pub fn pop_arrival(&mut self, now: Cycle) -> Option<(usize, M)> {
        let Reverse(f) = *self.in_flight.peek()?;
        if f.arrival > now {
            return None;
        }
        self.in_flight.pop();
        let payload = self.payloads[f.slot as usize]
            .take()
            .expect("in-flight slot holds its payload");
        self.free_slots.push(f.slot);
        Some((f.node as usize, payload))
    }

    /// Earliest pending arrival time, if any message is in flight.
    pub fn next_arrival(&self) -> Option<Cycle> {
        self.in_flight.peek().map(|Reverse(f)| f.arrival)
    }

    /// Whether any message is still in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Traffic counters accumulated so far.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Restores the as-new state for machine reuse, keeping the link
    /// table, heap, payload slab and pair-floor allocations.
    pub fn reset(&mut self) {
        self.link_busy.fill(0);
        self.in_flight.clear();
        self.payloads.clear();
        self.free_slots.clear();
        self.seq = 0;
        self.traffic = TrafficStats::default();
        self.pair_floor.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network<u32> {
        Network::new(Mesh::new(3, 3, 8), 5, 32)
    }

    #[test]
    fn coords_row_major() {
        let m = Mesh::new(3, 3, 8);
        assert_eq!(m.coords(0), (0, 0));
        assert_eq!(m.coords(2), (2, 0));
        assert_eq!(m.coords(3), (0, 1));
        assert_eq!(m.coords(7), (1, 2));
    }

    #[test]
    fn hops_manhattan() {
        let m = Mesh::new(3, 3, 8);
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 2), 2);
        assert_eq!(m.hops(0, 7), 3);
        assert_eq!(m.hops(2, 3), 3);
    }

    #[test]
    fn route_length_equals_hops() {
        let m = Mesh::new(4, 4, 16);
        for s in 0..16 {
            for d in 0..16 {
                assert_eq!(m.route(s, d).len() as u64, m.hops(s, d));
            }
        }
    }

    #[test]
    fn xy_routes_never_reuse_a_link() {
        let m = Mesh::new(4, 4, 16);
        for s in 0..16 {
            for d in 0..16 {
                let r = m.route(s, d);
                let mut sorted = r.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), r.len(), "{s}->{d}");
            }
        }
    }

    #[test]
    fn uncontended_latency_is_hops_times_hop_cycles() {
        let mut n = net();
        n.send(0, 0, 7, 8, false, 1);
        let hops = n.mesh().hops(0, 7);
        assert_eq!(n.next_arrival(), Some(hops * 5));
        assert!(n.pop_arrival(hops * 5 - 1).is_none());
        assert_eq!(n.pop_arrival(hops * 5), Some((7, 1)));
        assert!(n.is_idle());
    }

    #[test]
    fn local_send_takes_one_cycle() {
        let mut n = net();
        n.send(10, 3, 3, 8, false, 9);
        assert_eq!(n.pop_arrival(11), Some((3, 9)));
    }

    #[test]
    fn contention_delays_second_message() {
        let mut n = net();
        n.send(0, 0, 2, 64, false, 1);
        n.send(0, 0, 2, 64, false, 2);
        let a1 = n.next_arrival().unwrap();
        assert_eq!(n.pop_arrival(a1), Some((2, 1)));
        let a2 = n.next_arrival().unwrap();
        assert!(a2 > a1, "second message must queue behind the first");
        assert_eq!(n.pop_arrival(a2), Some((2, 2)));
    }

    #[test]
    fn same_cycle_delivery_is_fifo() {
        let mut n = net();
        n.send(0, 0, 0, 8, false, 1);
        n.send(0, 0, 0, 8, false, 2);
        assert_eq!(n.pop_arrival(100), Some((0, 1)));
        assert_eq!(n.pop_arrival(100), Some((0, 2)));
    }

    #[test]
    fn traffic_accounting_splits_retries() {
        let mut n = net();
        n.send(0, 0, 1, 16, false, 1);
        n.send(0, 0, 1, 16, true, 2);
        let t = n.traffic();
        assert_eq!(t.base_bytes, 16);
        assert_eq!(t.retry_bytes, 16);
        assert_eq!(t.messages, 2);
    }

    #[test]
    fn traffic_weighted_by_hops() {
        let mut n = net();
        n.send(0, 0, 7, 8, false, 1); // 3 hops
        assert_eq!(n.traffic().base_bytes, 24);
    }

    #[test]
    #[should_panic(expected = "mesh too small")]
    fn mesh_too_small_panics() {
        let _ = Mesh::new(2, 2, 5);
    }

    #[test]
    fn delayed_send_adds_latency() {
        let mut n = net();
        n.send_delayed(0, 0, 7, 8, false, 13, 1);
        let hops = n.mesh().hops(0, 7);
        assert_eq!(n.next_arrival(), Some(hops * 5 + 13));
    }

    #[test]
    fn delayed_send_preserves_pair_fifo() {
        let mut n = net();
        // First message massively delayed, second not: the second must
        // still arrive after (or with) the first, in injection order.
        n.send_delayed(0, 0, 2, 8, false, 500, 1);
        n.send_delayed(0, 0, 2, 8, false, 0, 2);
        let a1 = n.next_arrival().unwrap();
        assert_eq!(n.pop_arrival(a1), Some((2, 1)));
        let a2 = n.next_arrival().unwrap();
        assert!(a2 >= a1);
        assert_eq!(n.pop_arrival(a2), Some((2, 2)));
    }

    #[test]
    fn reset_clears_the_pair_floor() {
        let mut n = net();
        n.send_delayed(0, 0, 2, 8, false, 500, 1);
        n.reset();
        n.send(0, 0, 2, 8, false, 2);
        let hops = n.mesh().hops(0, 2);
        assert_eq!(
            n.next_arrival(),
            Some(hops * 5),
            "the pre-reset delay must not carry over"
        );
        assert_eq!(n.pop_arrival(hops * 5), Some((2, 2)));
        assert!(n.is_idle());
    }

    #[test]
    fn delay_on_one_pair_does_not_hold_up_other_pairs() {
        let mut n = net();
        n.send_delayed(0, 0, 2, 8, false, 500, 1);
        n.send_delayed(0, 1, 2, 8, false, 0, 2);
        // The undelayed 1->2 message arrives first.
        let (node, id) = {
            let a = n.next_arrival().unwrap();
            n.pop_arrival(a).unwrap()
        };
        assert_eq!((node, id), (2, 2));
    }

    #[test]
    fn zero_extra_matches_plain_send() {
        let mut a = net();
        let mut b = net();
        for (s, d) in [(0, 7), (1, 3), (0, 7), (4, 4)] {
            a.send(3, s, d, 16, false, 1);
            b.send_delayed(3, s, d, 16, false, 0, 1);
        }
        let mut arrivals_a = Vec::new();
        let mut arrivals_b = Vec::new();
        while let Some(t) = a.next_arrival() {
            arrivals_a.push(t);
            a.pop_arrival(t);
        }
        while let Some(t) = b.next_arrival() {
            arrivals_b.push(t);
            b.pop_arrival(t);
        }
        assert_eq!(arrivals_a, arrivals_b);
    }
}
