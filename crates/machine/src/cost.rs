//! The cycle cost model.
//!
//! Every kernel code path in the simulation is charged a cycle cost from
//! this table. The `calibrated()` preset targets the paper's testbed — a
//! DECstation 3000/300 (SPECint92 66.2) forwarding minimum-size UDP packets
//! between 10 Mbit/s Ethernets — so the simulated router lands near the
//! paper's measured rates:
//!
//! - unmodified kernel, no screend: MLFRR ≈ 4700 pkts/s, degrading above;
//! - unmodified kernel, screend: peak ≈ 2000 pkts/s, livelock by ≈ 6000;
//! - modified kernel: slightly higher MLFRR, flat thereafter.
//!
//! The back-of-envelope: at 100 MHz, the no-screend forwarding path costs
//! about `rx_device_per_pkt + 2*queue_op + ip_forward_per_pkt +
//! tx_start_per_pkt + tx_done_per_pkt` ≈ 20.6 k cycles ≈ 206 µs/packet
//! ≈ 4850 pkts/s; screend adds ≈ 250 µs of user-mode work per packet,
//! halving-and-some the peak. A calibration test in `livelock-kernel`
//! asserts the preset stays in these bands.

use livelock_sim::{Cycles, Freq};

/// Cycle costs for every simulated code path, plus clock parameters.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// CPU clock frequency (cycles ↔ seconds).
    pub freq: Freq,

    // --- Interrupt path ---
    /// Fixed cost of taking any interrupt (vectoring, register save,
    /// dispatch). "Dispatching an interrupt is a costly operation" (§4.1).
    pub intr_dispatch: Cycles,
    /// Body of the *modified* kernel's receive interrupt handler: set the
    /// "service needed" flag, schedule the polling thread, return (§6.4).
    pub intr_stub: Cycles,
    /// Per-packet work at device IPL in the unmodified driver: buffer
    /// management and link-level processing (§4.1).
    pub rx_device_per_pkt: Cycles,
    /// One enqueue or dequeue on an inter-layer packet queue, including the
    /// spl synchronization around it (the `ipintrq` costs the paper's
    /// modifications eliminate).
    pub queue_op: Cycles,
    /// Activating the network software interrupt (thread dispatch in
    /// Digital UNIX).
    pub softnet_dispatch: Cycles,
    /// Body of an inter-processor interrupt handler: cross-CPU wakeup
    /// delivery in the SMP model (the dispatch cost `intr_dispatch` is
    /// charged on top, as for any interrupt).
    pub ipi: Cycles,
    /// Per-packet cost of the shared-`ipintrq` lock handoff and cache-line
    /// transfer when more than one CPU feeds the queue — the COREC-style
    /// contention the per-CPU polled path avoids. Charged once per
    /// contending *sibling* CPU on the draining side.
    pub smp_queue_lock: Cycles,

    // --- IP and transmit path ---
    /// Per-packet IP input + forwarding work: validate, route, ARP, rewrite
    /// headers, choose output interface.
    pub ip_forward_per_pkt: Cycles,
    /// Moving one packet from the output ifqueue into the transmit ring
    /// (`if_start`).
    pub tx_start_per_pkt: Cycles,
    /// Reclaiming one completed transmit descriptor and freeing its buffer.
    pub tx_done_per_pkt: Cycles,

    // --- screend ---
    /// Full per-packet cost of consulting the user-mode screend process:
    /// syscall entry, copyout/copyin, rule evaluation, syscall return
    /// ("this user-mode program does one system call per packet", §6.1).
    pub screend_per_pkt: Cycles,

    // --- Polling thread (modified kernel) ---
    /// Scheduling the polling thread from the interrupt stub.
    pub poll_wakeup: Cycles,
    /// Invoking one registered callback (function dispatch, device state
    /// check).
    pub poll_callback: Cycles,
    /// One pass of the polling loop's own bookkeeping (flag scan, cycle
    /// counter reads for the §7 limiter).
    pub poll_loop_check: Cycles,

    // --- Process scheduling ---
    /// A full context switch between threads.
    pub ctx_switch: Cycles,
    /// The hardware clock interrupt handler.
    pub clock_tick_handler: Cycles,
    /// Periodic housekeeping charged at each tick (callouts, scheduler
    /// bookkeeping, device watchdogs). Sized so a completely idle system
    /// leaves ≈ 94% of the CPU to a compute-bound user process, matching
    /// the paper's Figure 7-1 baseline.
    pub housekeeping_per_tick: Cycles,
    /// Granularity of the compute-bound user process's work units.
    pub user_chunk: Cycles,
    /// Per-request cost of the local application consuming a delivered
    /// packet (socket read, RPC decode, reply build) — the end-system
    /// extension of §7.1.
    pub app_per_pkt: Cycles,

    // --- Clock geometry ---
    /// Hardware clock tick interval (the paper's machine: ~1 ms).
    pub clock_tick_interval: Cycles,
    /// Cycle-limiter accounting period, in ticks (paper §7: 10 ms, "chosen
    /// arbitrarily to match the scheduler's quantum").
    pub cycle_limit_period_ticks: u32,
    /// Scheduler quantum, in ticks.
    pub quantum_ticks: u32,
}

impl CostModel {
    /// The calibrated preset described in the module docs (100 MHz clock).
    pub fn calibrated() -> Self {
        let freq = Freq::mhz(100);
        let us = |n: u64| freq.cycles_from_micros(n);
        CostModel {
            freq,
            intr_dispatch: us(20),
            intr_stub: us(5),
            rx_device_per_pkt: us(50),
            queue_op: us(8),
            softnet_dispatch: us(10),
            ipi: us(15),
            smp_queue_lock: us(20),
            ip_forward_per_pkt: us(100),
            tx_start_per_pkt: us(15),
            tx_done_per_pkt: us(25),
            screend_per_pkt: us(250),
            poll_wakeup: us(10),
            poll_callback: us(15),
            poll_loop_check: us(5),
            ctx_switch: us(10),
            clock_tick_handler: us(10),
            housekeeping_per_tick: us(40),
            user_chunk: us(500),
            app_per_pkt: us(200),
            clock_tick_interval: freq.cycles_from_millis(1),
            cycle_limit_period_ticks: 10,
            quantum_ticks: 10,
        }
    }

    /// A machine `speedup` times faster than the calibrated testbed: every
    /// per-packet cost shrinks by the factor while the clock geometry
    /// (ticks, periods, quanta) stays in wall-clock terms. The paper notes
    /// its tunables depend on CPU speed ("for other CPUs and network
    /// interfaces, the proper value may differ"); this is how experiments
    /// explore that.
    ///
    /// # Panics
    ///
    /// Panics unless `speedup` is positive and finite.
    pub fn scaled(speedup: f64) -> Self {
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "speedup must be positive"
        );
        let base = CostModel::calibrated();
        let scale = |c: Cycles| Cycles::new(((c.raw() as f64 / speedup).round() as u64).max(1));
        CostModel {
            intr_dispatch: scale(base.intr_dispatch),
            intr_stub: scale(base.intr_stub),
            rx_device_per_pkt: scale(base.rx_device_per_pkt),
            queue_op: scale(base.queue_op),
            softnet_dispatch: scale(base.softnet_dispatch),
            ipi: scale(base.ipi),
            smp_queue_lock: scale(base.smp_queue_lock),
            ip_forward_per_pkt: scale(base.ip_forward_per_pkt),
            tx_start_per_pkt: scale(base.tx_start_per_pkt),
            tx_done_per_pkt: scale(base.tx_done_per_pkt),
            screend_per_pkt: scale(base.screend_per_pkt),
            poll_wakeup: scale(base.poll_wakeup),
            poll_callback: scale(base.poll_callback),
            poll_loop_check: scale(base.poll_loop_check),
            ctx_switch: scale(base.ctx_switch),
            clock_tick_handler: scale(base.clock_tick_handler),
            housekeeping_per_tick: scale(base.housekeeping_per_tick),
            user_chunk: base.user_chunk,
            app_per_pkt: scale(base.app_per_pkt),
            ..base
        }
    }

    /// The cycle-limiter period in cycles.
    pub fn cycle_limit_period(&self) -> Cycles {
        self.clock_tick_interval * u64::from(self.cycle_limit_period_ticks)
    }

    /// The scheduler quantum in cycles.
    pub fn quantum(&self) -> Cycles {
        self.clock_tick_interval * u64::from(self.quantum_ticks)
    }

    /// Analytic per-packet forwarding cost on the *unmodified* kernel path
    /// (excluding interrupt dispatch amortization): a sanity anchor used by
    /// calibration tests, not by the simulation itself.
    pub fn analytic_unmodified_fwd_cost(&self) -> Cycles {
        self.rx_device_per_pkt
            + self.queue_op * 2
            + self.ip_forward_per_pkt
            + self.tx_start_per_pkt
            + self.tx_done_per_pkt
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The MLFRR (pkts/s) the analytic forwarding cost implies.
    fn analytic_mlfrr(c: &CostModel) -> f64 {
        c.freq.as_hz() as f64 / c.analytic_unmodified_fwd_cost().raw() as f64
    }

    #[test]
    fn calibrated_anchors() {
        let c = CostModel::calibrated();
        // ~216 us/packet -> ~4630 pkts/s, the paper's "peaked at 4700".
        let mlfrr = analytic_mlfrr(&c);
        assert!(
            (4_000.0..5_500.0).contains(&mlfrr),
            "analytic MLFRR {mlfrr} out of the paper's band"
        );
        // screend halves-and-more the peak: 1/(fwd+screend) ~ 2000.
        let with_screend = c.freq.as_hz() as f64
            / (c.analytic_unmodified_fwd_cost() + c.screend_per_pkt).raw() as f64;
        assert!(
            (1_500.0..2_500.0).contains(&with_screend),
            "screend peak {with_screend}"
        );
    }

    #[test]
    fn clock_geometry() {
        let c = CostModel::calibrated();
        assert_eq!(
            c.clock_tick_interval,
            Cycles::new(100_000),
            "1 ms at 100 MHz"
        );
        assert_eq!(c.cycle_limit_period(), Cycles::new(1_000_000), "10 ms");
        assert_eq!(
            c.quantum(),
            c.cycle_limit_period(),
            "paper: quantum == period"
        );
    }

    #[test]
    fn housekeeping_overhead_leaves_94_percent() {
        let c = CostModel::calibrated();
        let per_tick = (c.clock_tick_handler + c.housekeeping_per_tick).raw() as f64;
        let overhead = per_tick / c.clock_tick_interval.raw() as f64;
        // ~5-6% system overhead at idle: the paper saw a 94% user share.
        assert!((0.04..0.07).contains(&overhead), "overhead {overhead}");
    }

    #[test]
    fn scaled_costs_shrink_proportionally() {
        let fast = CostModel::scaled(2.0);
        let base = CostModel::calibrated();
        assert_eq!(
            fast.ip_forward_per_pkt.raw(),
            base.ip_forward_per_pkt.raw() / 2
        );
        assert_eq!(fast.screend_per_pkt.raw(), base.screend_per_pkt.raw() / 2);
        assert_eq!(fast.ipi.raw(), base.ipi.raw() / 2);
        assert_eq!(fast.smp_queue_lock.raw(), base.smp_queue_lock.raw() / 2);
        // Clock geometry stays in wall-clock terms.
        assert_eq!(fast.clock_tick_interval, base.clock_tick_interval);
        assert_eq!(fast.quantum(), base.quantum());
        // The analytic MLFRR doubles.
        let ratio = analytic_mlfrr(&fast) / analytic_mlfrr(&base);
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
        assert_eq!(
            CostModel::scaled(1.0).analytic_unmodified_fwd_cost(),
            base.analytic_unmodified_fwd_cost()
        );
    }

    #[test]
    #[should_panic(expected = "speedup must be positive")]
    fn scaled_rejects_nonpositive() {
        let _ = CostModel::scaled(0.0);
    }

    #[test]
    fn stub_is_much_cheaper_than_device_work() {
        let c = CostModel::calibrated();
        // The whole point of §6.4: the modified handler does almost nothing.
        assert!(c.intr_stub.raw() * 5 <= c.rx_device_per_pkt.raw());
    }
}
