//! Property tests of the mesh: routing correctness and delivery-order
//! invariants on arbitrary geometries.
//!
//! Runs on the in-repo property harness (`asymfence_common::prop`):
//! failing case seeds persist to `tests/regressions/prop_noc.seeds` and
//! replay before fresh cases. `ASF_PROP_CASES` / `ASF_PROP_SEED`
//! override the budget and base seed.

use asymfence_common::prop::{check, pairs, triples, u64s, usizes, vecs, Config};
use asymfence_noc::{Mesh, Network};

fn prop_cfg(cases: u32) -> Config {
    Config::from_env(cases).regressions("tests/regressions/prop_noc.seeds")
}

/// Route length always equals the Manhattan distance, on any mesh.
#[test]
fn route_length_is_manhattan() {
    let gen = triples(
        usizes(1, 6),
        usizes(1, 6),
        vecs(pairs(usizes(0, 35), usizes(0, 35)), 1, 16),
    );
    check(
        "route_length_is_manhattan",
        &prop_cfg(48),
        &gen,
        |(cols, rows, endpoint_pairs)| {
            let nodes = cols * rows;
            let mesh = Mesh::new(*cols, *rows, nodes);
            for (s, d) in endpoint_pairs {
                let (s, d) = (s % nodes, d % nodes);
                if mesh.route(s, d).len() as u64 != mesh.hops(s, d) {
                    return Err(format!("route {s}->{d} length != hops"));
                }
            }
            Ok(())
        },
    );
}

/// Symmetry: distance is the same in both directions.
#[test]
fn hops_are_symmetric() {
    let gen = pairs(
        pairs(usizes(1, 6), usizes(1, 6)),
        pairs(usizes(0, 35), usizes(0, 35)),
    );
    check(
        "hops_are_symmetric",
        &prop_cfg(48),
        &gen,
        |((cols, rows), (s, d))| {
            let nodes = cols * rows;
            let mesh = Mesh::new(*cols, *rows, nodes);
            let (s, d) = (s % nodes, d % nodes);
            if mesh.hops(s, d) != mesh.hops(d, s) {
                return Err(format!("asymmetric hops {s}<->{d}"));
            }
            Ok(())
        },
    );
}

/// Per source-destination pair, messages are delivered in send order
/// (the protocol relies on this point-to-point FIFO property).
#[test]
fn point_to_point_fifo() {
    let gen = vecs(triples(usizes(0, 8), usizes(0, 8), u64s(1, 127)), 2, 24);
    check("point_to_point_fifo", &prop_cfg(48), &gen, |sends| {
        let mesh = Mesh::new(3, 3, 9);
        let mut net: Network<usize> = Network::new(mesh, 5, 32);
        for (i, (s, d, bytes)) in sends.iter().enumerate() {
            net.send(0, *s, *d, *bytes, false, i);
        }
        let mut arrived: Vec<(usize, usize)> = Vec::new();
        let mut t = 0;
        while !net.is_idle() {
            while let Some((node, id)) = net.pop_arrival(t) {
                arrived.push((node, id));
            }
            t += 1;
            if t >= 1_000_000 {
                return Err("network must drain".into());
            }
        }
        if arrived.len() != sends.len() {
            return Err(format!(
                "{} arrivals for {} sends",
                arrived.len(),
                sends.len()
            ));
        }
        for (i, (s1, d1, _)) in sends.iter().enumerate() {
            for (j, (s2, d2, _)) in sends.iter().enumerate().skip(i + 1) {
                if (s1, d1) == (s2, d2) {
                    let pi = arrived.iter().position(|&(_, id)| id == i).unwrap();
                    let pj = arrived.iter().position(|&(_, id)| id == j).unwrap();
                    if pi >= pj {
                        return Err(format!("messages {i} and {j} reordered on {s1}->{d1}"));
                    }
                }
            }
        }
        Ok(())
    });
}

/// Traffic accounting equals the sum of bytes x hops (min 1).
#[test]
fn traffic_is_bytes_times_hops() {
    let gen = vecs(triples(usizes(0, 8), usizes(0, 8), u64s(1, 63)), 1, 12);
    check(
        "traffic_is_bytes_times_hops",
        &prop_cfg(48),
        &gen,
        |sends| {
            let mesh = Mesh::new(3, 3, 9);
            let mut net: Network<u8> = Network::new(mesh, 5, 32);
            let mut expect = 0u64;
            for (s, d, bytes) in sends {
                net.send(0, *s, *d, *bytes, false, 0);
                expect += bytes * mesh.hops(*s, *d).max(1);
            }
            if net.traffic().base_bytes != expect {
                return Err(format!(
                    "traffic {} != expected {expect}",
                    net.traffic().base_bytes
                ));
            }
            if net.traffic().messages != sends.len() as u64 {
                return Err("message count mismatch".into());
            }
            Ok(())
        },
    );
}

/// Interleaved sends and pops, with payload slots freed and reused
/// along the way, deliver every message exactly once, to its
/// destination, and in `(arrival, send order)` order — the order a
/// reference sort of the deliveries gives.
#[test]
fn interleaved_traffic_delivers_in_arrival_then_send_order() {
    // Each op: a send `src -> dst` delayed by `extra` cycles, then
    // `advance` cycles pass and everything due is popped.
    let gen = vecs(
        pairs(
            triples(usizes(0, 8), usizes(0, 8), u64s(0, 60)),
            u64s(0, 30),
        ),
        1,
        48,
    );
    check(
        "interleaved_traffic_delivers_in_arrival_then_send_order",
        &prop_cfg(64),
        &gen,
        |ops| {
            let mesh = Mesh::new(3, 3, 9);
            let mut net: Network<usize> = Network::new(mesh, 5, 32);
            // (arrival, send index, node) per delivery, in pop order.
            let mut delivered: Vec<(u64, usize, usize)> = Vec::new();
            let mut pop_due = |net: &mut Network<usize>, t: u64| -> Result<(), String> {
                while let Some(arrival) = net.next_arrival().filter(|&a| a <= t) {
                    let Some((node, id)) = net.pop_arrival(t) else {
                        return Err(format!("arrival {arrival} due at {t} did not pop"));
                    };
                    delivered.push((arrival, id, node));
                }
                Ok(())
            };
            let mut t = 0;
            for (i, ((src, dst, extra), advance)) in ops.iter().enumerate() {
                net.send_delayed(t, *src, *dst, 8, false, *extra, i);
                t += advance;
                pop_due(&mut net, t)?;
            }
            while let Some(a) = net.next_arrival() {
                pop_due(&mut net, a)?;
            }
            if !net.is_idle() {
                return Err("network must drain".into());
            }
            let mut reference = delivered.clone();
            reference.sort_unstable();
            if delivered != reference {
                return Err(format!(
                    "delivered out of (arrival, seq) order: {delivered:?}"
                ));
            }
            let mut ids: Vec<usize> = delivered.iter().map(|&(_, id, _)| id).collect();
            ids.sort_unstable();
            if ids != (0..ops.len()).collect::<Vec<_>>() {
                return Err(format!("not delivered exactly once each: {ids:?}"));
            }
            for &(_, id, node) in &delivered {
                let ((_, dst, _), _) = ops[id];
                if node != dst {
                    return Err(format!("message {id} for {dst} delivered at {node}"));
                }
            }
            Ok(())
        },
    );
}
