//! Typed per-node counter slots behind [`Fabric::counters`]
//! (crate::Fabric::counters).
//!
//! The fabric bumps a handful of counters on every packet — the
//! simulated PCM PCIe counters of Fig. 3/10 (`PCIeRdCur`, `ItoM`, `RFO`,
//! `PCIeItoM`) plus fabric events such as `RxMsgs` or `NicQpMiss`. Each
//! is a [`Counter`] variant indexing a fixed array, so an update is one
//! add and one bit-or rather than a search over name strings. Readers
//! still get a name-keyed [`CounterSet`]: [`CounterSlots::to_set`] lists
//! every counter touched at least once, even if only with 0, exactly as
//! string-keyed `CounterSet::add` calls would have.

use simcore::stats::CounterSet;

/// A fabric counter. The discriminant indexes [`NAMES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Counter {
    Atomics,
    ConnSetups,
    ConnSetupsAborted,
    ConnSetupsStarted,
    DdioAllocBursts,
    DmaHitDdio,
    DmaHitMain,
    DroppedAtRx,
    ItoM,
    NicQpMiss,
    NodeCrashes,
    NodeStalls,
    PcieItoM,
    PcieRdCur,
    Rfo,
    RemoteAccessErrors,
    RnrDrops,
    RxMsgs,
    TxVerbs,
    UdDrops,
}

/// Reported counter names, indexed by [`Counter`] discriminant. Kept in
/// name order, the order `CounterSet` iterates in.
const NAMES: [&str; 20] = [
    "Atomics",
    "ConnSetups",
    "ConnSetupsAborted",
    "ConnSetupsStarted",
    "DdioAllocBursts",
    "DmaHitDdio",
    "DmaHitMain",
    "DroppedAtRx",
    "ItoM",
    "NicQpMiss",
    "NodeCrashes",
    "NodeStalls",
    "PCIeItoM",
    "PCIeRdCur",
    "RFO",
    "RemoteAccessErrors",
    "RnrDrops",
    "RxMsgs",
    "TxVerbs",
    "UdDrops",
];

// The last variant has the last name, and the touched mask has a bit
// for every counter.
const _: () = assert!(Counter::UdDrops as usize + 1 == NAMES.len() && NAMES.len() <= 32);

/// One node's counters.
#[derive(Clone, Debug, Default)]
pub(crate) struct CounterSlots {
    values: [u64; NAMES.len()],
    /// Bit `c` is set once counter `c` has been added to, even with 0.
    touched: u32,
}

impl CounterSlots {
    /// Adds `n` to counter `c`, marking it touched.
    #[inline]
    pub(crate) fn add(&mut self, c: Counter, n: u64) {
        self.values[c as usize] += n; // every discriminant is < NAMES.len()
        self.touched |= 1 << c as u32;
    }

    /// Increments counter `c` by one.
    #[inline]
    pub(crate) fn inc(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// The touched counters under their names.
    pub(crate) fn to_set(&self) -> CounterSet {
        let mut set = CounterSet::new();
        for (i, (&name, &v)) in NAMES.iter().zip(&self.values).enumerate() {
            if self.touched & 1 << i != 0 {
                set.add(name, v);
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Fabric, FabricEvent, FabricParams, MrId, NodeId, QpId, RemoteAddr, Transport, WorkRequest,
    };
    use bytes::Bytes;
    use simcore::EventQueue;

    const ALL: [Counter; NAMES.len()] = [
        Counter::Atomics,
        Counter::ConnSetups,
        Counter::ConnSetupsAborted,
        Counter::ConnSetupsStarted,
        Counter::DdioAllocBursts,
        Counter::DmaHitDdio,
        Counter::DmaHitMain,
        Counter::DroppedAtRx,
        Counter::ItoM,
        Counter::NicQpMiss,
        Counter::NodeCrashes,
        Counter::NodeStalls,
        Counter::PcieItoM,
        Counter::PcieRdCur,
        Counter::Rfo,
        Counter::RemoteAccessErrors,
        Counter::RnrDrops,
        Counter::RxMsgs,
        Counter::TxVerbs,
        Counter::UdDrops,
    ];

    #[test]
    fn name_table_matches_variants_and_is_sorted() {
        for (i, c) in ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
            assert!(
                format!("{c:?}").eq_ignore_ascii_case(NAMES[i]),
                "{c:?} is reported as {}",
                NAMES[i]
            );
        }
        assert!(
            NAMES.windows(2).all(|w| w[0] < w[1]),
            "names sorted, unique"
        );
    }

    #[test]
    fn typed_updates_match_string_keyed_updates() {
        let mut typed = CounterSlots::default();
        let mut named = CounterSet::new();
        // Deterministic script over a subset of counters, zeros included.
        for step in 0..200u64 {
            let c = ALL[(step * 7 % 13) as usize];
            let n = step % 4;
            typed.add(c, n);
            named.add(NAMES[c as usize], n);
            assert_eq!(typed.to_set(), named, "after step {step}");
        }
        assert_eq!(
            typed.to_set().iter().count(),
            13,
            "untouched counters stay absent"
        );
    }

    /// Runs the fabric until no event is pending.
    fn drain(fabric: &mut Fabric, q: &mut EventQueue<FabricEvent>) {
        let mut staged = Vec::new();
        while let Some((t, ev)) = q.pop() {
            fabric.handle(t, ev, &mut |at, e| staged.push((at, e)), &mut Vec::new());
            for (at, e) in staged.drain(..) {
                q.push(at, e);
            }
        }
    }

    /// Posts one line-aligned 64-byte write on `qp` to offset 0 of `mr`
    /// and runs it to completion.
    fn write_line(fabric: &mut Fabric, q: &mut EventQueue<FabricEvent>, qp: QpId, mr: MrId) {
        let now = q.now();
        let wr = WorkRequest::Write {
            data: Bytes::from(vec![7u8; 64]),
            remote: RemoteAddr { mr, offset: 0 },
            imm: None,
        };
        fabric
            .post(now, qp, wr, true, None, &mut |at, e| {
                q.push(at, e);
            })
            .expect("post");
        drain(fabric, q);
    }

    fn names(set: &CounterSet) -> Vec<&'static str> {
        set.iter().map(|(name, _)| name).collect()
    }

    /// Nodes `a` and `b` joined by one RC connection, and a region on
    /// `b`: returns the fabric, both nodes, `a`'s QP and the region.
    fn setup() -> (Fabric, NodeId, NodeId, QpId, MrId) {
        let mut fabric = Fabric::new(FabricParams::default());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let mr = fabric.register_mr(b, 4096).expect("mr");
        let cq_a = fabric.create_cq(a).expect("cq");
        let cq_b = fabric.create_cq(b).expect("cq");
        let qa = fabric.create_qp(a, Transport::Rc, cq_a, cq_a).expect("qp");
        let qb = fabric.create_qp(b, Transport::Rc, cq_b, cq_b).expect("qp");
        fabric.connect(qa, qb).expect("connect");
        (fabric, a, b, qa, mr)
    }

    #[test]
    fn fabric_reports_touched_counters_including_zeros() {
        let (mut fabric, a, b, qa, mr) = setup();
        let mut q = EventQueue::new();
        write_line(&mut fabric, &mut q, qa, mr);
        let rx = fabric.counters(b).expect("node b");
        // The responder's write arm touches exactly these, in name order.
        assert_eq!(
            names(&rx),
            [
                "DdioAllocBursts",
                "DmaHitDdio",
                "DmaHitMain",
                "ItoM",
                "PCIeItoM",
                "RFO",
                "RxMsgs"
            ]
        );
        // A whole-line write has no partial line: RFO was added only 0.
        assert_eq!(rx.iter().find(|&(n, _)| n == "RFO"), Some(("RFO", 0)));
        assert_eq!(rx.get("ItoM"), 1);
        assert_eq!(rx.get("RxMsgs"), 1);
        let tx = fabric.counters(a).expect("node a");
        assert!(names(&tx).contains(&"PCIeRdCur"));
        assert_eq!(tx.get("TxVerbs"), 1);
        for never in ["Atomics", "UdDrops", "NodeCrashes", "RxMsgs"] {
            assert!(!names(&tx).contains(&never), "{never} untouched on a");
        }
    }

    #[test]
    fn shard_replica_copies_counters() {
        let (mut fabric, a, b, qa, mr) = setup();
        let mut q = EventQueue::new();
        write_line(&mut fabric, &mut q, qa, mr);
        let replica = fabric.shard_replica(&[a]);
        for node in [a, b] {
            assert_eq!(replica.counters(node), fabric.counters(node));
        }
    }

    #[test]
    fn delta_since_spans_a_window() {
        let (mut fabric, _, b, qa, mr) = setup();
        let mut q = EventQueue::new();
        write_line(&mut fabric, &mut q, qa, mr);
        let snap = fabric.counters(b).expect("node b");
        write_line(&mut fabric, &mut q, qa, mr);
        let after = fabric.counters(b).expect("node b");
        let delta = after.delta_since(&snap);
        assert_eq!(names(&delta), names(&after), "zero deltas stay listed");
        assert_eq!(delta.get("RxMsgs"), 1);
        assert_eq!(delta.get("ItoM"), 1);
        assert_eq!(delta.get("RFO"), 0);
    }
}
