//! The per-CPU link: the one `ipintrq`, coalesced IPI-wakeup flags, and
//! per-CPU steal buffers.
//!
//! Each CPU in a cluster runs its own complete [`RouterKernel`], and
//! every kernel holds a [`CpuLink`] — the paper's uniprocessor is a
//! cluster of one, whose link has no sibling on the other end. This
//! module holds the only state those kernels share, and its fields are
//! private: the link's methods are the whole cross-CPU channel. The
//! `ipintrq` models the classic single-IP-layer SMP bottleneck: every
//! CPU's unmodified receive handler feeds it, only CPU 0 drains it, and
//! CPU 0 pays a per-packet lock-contention cost scaled by the number of
//! contending siblings (zero for a lone CPU). The steal buffers model
//! the opposite design point: a CPU whose receive ring overflows parks
//! the frame in its own bounded buffer, and an *idle* sibling poller
//! pulls it instead of letting it drop.
//!
//! Mutation discipline: kernels use their link only inside their own
//! interleaver slice (the cluster never runs two engines concurrently),
//! and cross-CPU *signals* travel exclusively through the coalesced IPI
//! flags, taken at slice boundaries by the experiment harness's
//! `before_slice` hook — so a run is a pure function of the
//! configuration and seed, bit-identical at any host job count.
//!
//! [`RouterKernel`]: super::RouterKernel

use std::cell::{RefCell, RefMut};
use std::collections::VecDeque;
use std::rc::Rc;

use livelock_machine::cpu::CpuId;
use livelock_net::packet::Packet;
use livelock_net::queue::{DropTailQueue, Enqueued};
use livelock_sim::Cycles;

use crate::config::{KernelConfig, Topology};

/// Capacity of each CPU's steal buffer, in frames. Deliberately ring-
/// sized: stealing absorbs short imbalance between siblings, it is not
/// extra queueing capacity (an unbounded buffer would just move the
/// livelock drop point).
pub(crate) const STEAL_BUF_CAP: usize = 64;

/// State shared by every CPU of one cluster.
struct Shared {
    /// The single IP input queue of the unmodified path. All CPUs
    /// enqueue; CPU 0 alone drains it under contention cost.
    ipintrq: DropTailQueue<Packet>,
    /// Coalesced IPI flags, one per CPU: "you have cross-CPU work". Set
    /// by any sibling, cleared by the interleaver's slice hook when it
    /// injects the corresponding `Event::Ipi` — at most one IPI per CPU
    /// per slice, and never a lost wakeup because every enqueue sets the
    /// flag again.
    ipi_pending: Vec<bool>,
    /// Per-CPU steal buffers: `steal_bufs[k]` holds frames CPU `k`
    /// published when its own receive ring was full.
    steal_bufs: Vec<VecDeque<Packet>>,
    /// Frames each CPU published to its steal buffer.
    steals_published: Vec<u64>,
    /// Frames each CPU pulled from a sibling's steal buffer.
    steals_taken: Vec<u64>,
}

impl Shared {
    fn new(ncpus: usize, ipintrq_cap: usize) -> Rc<RefCell<Shared>> {
        Rc::new(RefCell::new(Shared {
            ipintrq: DropTailQueue::new("ipintrq", ipintrq_cap),
            ipi_pending: vec![false; ncpus],
            steal_bufs: (0..ncpus).map(|_| VecDeque::new()).collect(),
            steals_published: vec![0; ncpus],
            steals_taken: vec![0; ncpus],
        }))
    }
}

/// One CPU's end of the cluster's shared state.
pub(crate) struct CpuLink {
    cpu: CpuId,
    ncpus: usize,
    /// Work stealing in effect (see [`CpuLink::stealing`]).
    steal: bool,
    shared: Rc<RefCell<Shared>>,
}

impl CpuLink {
    /// Whether a topology steals: it asks to and there is a sibling to
    /// steal from. A lone CPU with the flag set is a plain CPU.
    pub(crate) fn stealing(topology: &Topology) -> bool {
        topology.steal && topology.ncpus > 1
    }

    /// Whether a configuration's CPUs share a channel, so its cluster is
    /// sliced: more than one CPU, and either the unmodified path's one
    /// `ipintrq` (every sibling's enqueue flags CPU 0) or work stealing
    /// (a publish flags every sibling). A polled cluster that does not
    /// steal sets no IPI flag and touches no steal buffer or `ipintrq`,
    /// so its CPUs share nothing and each can run on a thread of its own
    /// ([`CpuLink::unshared`]).
    pub(crate) fn coupled(cfg: &KernelConfig) -> bool {
        cfg.topology.ncpus > 1 && (cfg.polled_config().is_none() || Self::stealing(&cfg.topology))
    }

    /// The link of a CPU with no siblings: a cluster of one.
    pub(crate) fn lone(ipintrq_cap: usize) -> CpuLink {
        Self::unshared(CpuId(0), &Topology::default(), ipintrq_cap)
    }

    /// The link of CPU `cpu` of a `topology.ncpus`-CPU cluster whose
    /// CPUs share no channel: the shared state is its own, and no
    /// sibling's link reaches it. For a configuration that is not
    /// [`coupled`](CpuLink::coupled) this is the same link
    /// [`CpuLink::cluster`] would give, minus the `Rc` to its siblings.
    pub(crate) fn unshared(cpu: CpuId, topology: &Topology, ipintrq_cap: usize) -> CpuLink {
        CpuLink {
            cpu,
            ncpus: topology.ncpus,
            steal: Self::stealing(topology),
            shared: Shared::new(topology.ncpus, ipintrq_cap),
        }
    }

    /// The links of a `topology.ncpus`-CPU cluster in [`CpuId`] order,
    /// around one `ipintrq` of the configured capacity.
    pub(crate) fn cluster(topology: &Topology, ipintrq_cap: usize) -> Vec<CpuLink> {
        let ncpus = topology.ncpus;
        let shared = Shared::new(ncpus, ipintrq_cap);
        (0..ncpus)
            .map(|k| CpuLink {
                cpu: CpuId(k),
                ncpus,
                steal: Self::stealing(topology),
                shared: Rc::clone(&shared),
            })
            .collect()
    }

    /// This link's CPU.
    pub(crate) fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Takes this CPU's coalesced IPI flag: true when a sibling signalled
    /// since the last take.
    pub(crate) fn take_ipi(&self) -> bool {
        std::mem::take(&mut self.shared.borrow_mut().ipi_pending[self.cpu.0])
    }

    /// Frames this CPU `(published to its steal buffer, pulled from
    /// siblings' buffers)`.
    pub(crate) fn steals(&self) -> (u64, u64) {
        let sh = self.shared.borrow();
        (sh.steals_published[self.cpu.0], sh.steals_taken[self.cpu.0])
    }

    /// Frames still parked in this CPU's steal buffer: summed over a
    /// cluster's CPUs, the conservation residual.
    pub(crate) fn steal_parked(&self) -> usize {
        self.shared.borrow().steal_bufs[self.cpu.0].len()
    }

    /// CPUs in the cluster.
    pub(super) fn ncpus(&self) -> usize {
        self.ncpus
    }

    /// Whether work stealing is in effect on this cluster.
    pub(super) fn steals_frames(&self) -> bool {
        self.steal
    }

    /// Whether this CPU runs the softnet drain of the `ipintrq`: CPU 0
    /// alone does.
    pub(super) fn drains_ipintrq(&self) -> bool {
        self.cpu.0 == 0
    }

    /// Appends to the `ipintrq` (dropping the packet when full). An
    /// enqueue from a sibling flags CPU 0, which cannot see it otherwise.
    pub(super) fn ipintrq_enqueue(&self, pkt: Packet) -> Enqueued {
        let mut sh = self.shared.borrow_mut();
        let enqueued = sh.ipintrq.enqueue(pkt);
        if enqueued.is_ok() && !self.drains_ipintrq() {
            sh.ipi_pending[0] = true;
        }
        enqueued
    }

    /// The `ipintrq`, for everything but appending to it (which goes
    /// through [`CpuLink::ipintrq_enqueue`], so the drainer hears of
    /// it): a handler takes it once and peeks, stamps, counts or
    /// dequeues under that one borrow.
    pub(super) fn ipintrq(&self) -> RefMut<'_, DropTailQueue<Packet>> {
        RefMut::map(self.shared.borrow_mut(), |sh| &mut sh.ipintrq)
    }

    /// Parks a frame in this CPU's steal buffer and flags every sibling
    /// (the interleaver turns each flag into at most one IPI per slice).
    /// Hands the frame back when the buffer is full.
    pub(super) fn steal_publish(&self, pkt: Packet) -> Result<(), Packet> {
        let me = self.cpu.0;
        let mut sh = self.shared.borrow_mut();
        if sh.steal_bufs[me].len() >= STEAL_BUF_CAP {
            return Err(pkt);
        }
        sh.steal_bufs[me].push_back(pkt);
        sh.steals_published[me] += 1;
        for (j, flag) in sh.ipi_pending.iter_mut().enumerate() {
            if j != me {
                *flag = true;
            }
        }
        Ok(())
    }

    /// Pulls the next parked frame this CPU can take at `now`: the oldest
    /// of the nearest sibling (in CPU order after this one) whose oldest
    /// has arrived by `now` and `fits`. A sibling that runs earlier in
    /// the slice may have parked frames that arrive later in this CPU's
    /// time; when one is left for that reason, this CPU's IPI flag is
    /// raised again, so the next slice boundary wakes it to take it.
    pub(super) fn steal_take(&self, now: Cycles, fits: impl Fn(&Packet) -> bool) -> Option<Packet> {
        let me = self.cpu.0;
        let mut sh = self.shared.borrow_mut();
        let mut ahead = false;
        let from = (1..self.ncpus).map(|d| (me + d) % self.ncpus).find(|&k| {
            match sh.steal_bufs[k].front() {
                Some(p) if p.arrived_at > now => {
                    ahead = true;
                    false
                }
                Some(p) => fits(p),
                None => false,
            }
        });
        let Some(pkt) = from.and_then(|k| sh.steal_bufs[k].pop_front()) else {
            sh.ipi_pending[me] |= ahead;
            return None;
        };
        sh.steals_taken[me] += 1;
        Some(pkt)
    }
}
