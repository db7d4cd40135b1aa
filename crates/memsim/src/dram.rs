//! A DDR4-like main-memory model: banks with open-row state, a shared data
//! bus, periodic refresh, and per-operation ECC latency hooks.
//!
//! The model is service-time based rather than event-queued: the CPU is
//! in-order and blocking (gem5 `TimingSimpleCPU`-like), so at most one
//! demand request is outstanding; background traffic (write-backs, metadata
//! fetches) still occupies banks and the bus and delays later demands.

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Leave rows open after access (exploits row-buffer locality).
    #[default]
    Open,
    /// Auto-precharge after every access (uniform latency, no conflicts).
    Closed,
}

/// DRAM timing/geometry parameters, in CPU cycles (3.4 GHz by default).
#[derive(Debug, Clone, Copy)]
pub struct DramConfig {
    /// Number of banks (a power of two).
    pub banks: usize,
    /// Row (page) size in bytes (a power of two).
    pub row_bytes: u64,
    /// Row-activate latency tRCD.
    pub t_rcd: u64,
    /// Column access latency tCAS.
    pub t_cas: u64,
    /// Precharge latency tRP.
    pub t_rp: u64,
    /// Data-burst occupancy of the shared bus per 64-byte transfer.
    pub t_burst: u64,
    /// Write recovery (bank busy after a write burst).
    pub t_wr: u64,
    /// Refresh interval tREFI.
    pub t_refi: u64,
    /// Refresh duration tRFC (all banks blocked).
    pub t_rfc: u64,
    /// Row-buffer policy.
    pub page_policy: PagePolicy,
}

impl Default for DramConfig {
    /// DDR4-2400-ish timings expressed in 3.4 GHz CPU cycles
    /// (tRCD = tCAS = tRP ≈ 14.2 ns ≈ 48 cycles; burst ≈ 3.3 ns ≈ 11;
    /// tREFI = 7.8 µs; tRFC = 350 ns).
    fn default() -> Self {
        Self {
            banks: 16,
            row_bytes: 8192,
            t_rcd: 48,
            t_cas: 48,
            t_rp: 48,
            t_burst: 11,
            t_wr: 51,
            t_refi: 26_520,
            t_rfc: 1_190,
            page_policy: PagePolicy::Open,
        }
    }
}

/// Additional latency injected by the ECC engine on the memory interface
/// (paper Section VII-C: encoder cycles delay writes; under
/// always-correction the corrector delays reads).
#[derive(Debug, Clone, Copy, Default)]
pub struct EccLatency {
    /// Cycles added to every write (encoding).
    pub encode: u64,
    /// Cycles added to every read (correction).
    pub correct: u64,
}

impl EccLatency {
    /// No ECC on the interface.
    pub const NONE: Self = Self {
        encode: 0,
        correct: 0,
    };
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read bursts serviced.
    pub reads: u64,
    /// Write bursts serviced.
    pub writes: u64,
    /// Row activations.
    pub activates: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
}

impl DramStats {
    /// All data operations.
    pub fn operations(&self) -> u64 {
        self.reads + self.writes
    }

    /// Row-buffer hit ratio over data operations.
    pub fn row_hit_ratio(&self) -> f64 {
        if self.operations() == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.operations() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// The memory device + controller state.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    ecc: EccLatency,
    banks: Vec<Bank>,
    /// `log2(row_bytes)`.
    row_shift: u32,
    /// `log2(banks)`.
    bank_bits: u32,
    bus_free_at: u64,
    /// Start of the next refresh not yet applied: `(refreshes + 1) * tREFI`.
    next_refresh: u64,
    refresh_done: u64,
    stats: DramStats,
}

impl Dram {
    /// Builds a DRAM with the given timing and ECC interface latency.
    ///
    /// # Panics
    ///
    /// Panics unless `row_bytes` and `banks` are powers of two.
    pub fn new(config: DramConfig, ecc: EccLatency) -> Self {
        assert!(
            config.row_bytes.is_power_of_two() && config.banks.is_power_of_two(),
            "row size and bank count must be powers of two"
        );
        Self {
            banks: vec![Bank::default(); config.banks],
            row_shift: config.row_bytes.trailing_zeros(),
            bank_bits: config.banks.trailing_zeros(),
            next_refresh: config.t_refi,
            config,
            ecc,
            bus_free_at: 0,
            refresh_done: 0,
            stats: DramStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The timing configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Banks interleave by row address: the low bits of the row address
    /// pick the bank, the rest is the row within it.
    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        let row_addr = addr >> self.row_shift;
        (
            (row_addr & ((1 << self.bank_bits) - 1)) as usize,
            row_addr >> self.bank_bits,
        )
    }

    /// Applies pending refreshes up to `now`, returning the time the channel
    /// becomes usable.
    fn refresh_barrier(&mut self, now: u64) -> u64 {
        // Refresh fires every tREFI; while refreshing, all banks stall.
        if now >= self.next_refresh {
            let due = now / self.config.t_refi;
            self.stats.refreshes = due;
            self.refresh_done = due * self.config.t_refi + self.config.t_rfc;
            self.next_refresh = (due + 1) * self.config.t_refi;
        }
        now.max(self.refresh_done)
    }

    /// Services a read burst issued at `now`; returns the cycle the data is
    /// available to the requester (including ECC correction latency).
    pub fn read(&mut self, addr: u64, now: u64) -> u64 {
        let done = self.operate(addr, now);
        self.stats.reads += 1;
        done + self.ecc.correct
    }

    /// Services a write burst issued at `now`; returns the cycle the write
    /// completes (the encoder delay applies before the burst starts).
    pub fn write(&mut self, addr: u64, now: u64) -> u64 {
        let done = self.operate(addr, now + self.ecc.encode);
        self.stats.writes += 1;
        done + self.config.t_wr
    }

    fn operate(&mut self, addr: u64, now: u64) -> u64 {
        let start = self.refresh_barrier(now);
        let (bank_idx, row) = self.bank_and_row(addr);
        let bank = &mut self.banks[bank_idx];
        let mut t = start.max(bank.busy_until);
        match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
            }
            Some(_) => {
                // Conflict: precharge + activate.
                t += self.config.t_rp + self.config.t_rcd;
                self.stats.activates += 1;
            }
            None => {
                t += self.config.t_rcd;
                self.stats.activates += 1;
            }
        }
        bank.open_row = match self.config.page_policy {
            PagePolicy::Open => Some(row),
            PagePolicy::Closed => None, // auto-precharge folded into t_rcd next time
        };
        // Column access, then the burst occupies the shared bus.
        t += self.config.t_cas;
        let burst_start = t.max(self.bus_free_at);
        let done = burst_start + self.config.t_burst;
        self.bus_free_at = done;
        bank.busy_until = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default(), EccLatency::NONE)
    }

    #[test]
    fn closed_page_never_hits_or_conflicts() {
        let config = DramConfig {
            page_policy: PagePolicy::Closed,
            ..DramConfig::default()
        };
        let mut d = Dram::new(config, EccLatency::NONE);
        let c = d.config;
        let first = d.read(0, 0);
        // Same row again: still pays activate under closed-page.
        let second = d.read(64, first);
        assert_eq!(second - first, c.t_rcd + c.t_cas + c.t_burst);
        assert_eq!(d.stats().row_hits, 0);
        assert_eq!(d.stats().activates, 2);
    }

    #[test]
    fn first_read_pays_activate() {
        let mut d = dram();
        let c = d.config;
        let done = d.read(0, 0);
        assert_eq!(done, c.t_rcd + c.t_cas + c.t_burst);
        assert_eq!(d.stats().activates, 1);
        assert_eq!(d.stats().row_hits, 0);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = dram();
        let c = d.config;
        let first = d.read(0, 0);
        let second = d.read(64, first);
        assert_eq!(second - first, c.t_cas + c.t_burst);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = dram();
        let c = d.config;
        let first = d.read(0, 0);
        // Same bank, different row: banks interleave by row address, so the
        // conflicting address is banks*row_bytes away.
        let conflict_addr = c.banks as u64 * c.row_bytes;
        let second = d.read(conflict_addr, first);
        assert_eq!(second - first, c.t_rp + c.t_rcd + c.t_cas + c.t_burst);
    }

    #[test]
    fn bus_serializes_parallel_banks() {
        let mut d = dram();
        let c = d.config;
        // Two different banks at the same instant: second burst queues on
        // the bus behind the first.
        let a = d.read(0, 0);
        let b = d.read(c.row_bytes, 0); // bank 1
        assert_eq!(b - a, c.t_burst);
    }

    #[test]
    fn ecc_latency_applies() {
        let mut plain = dram();
        let mut ecc = Dram::new(
            DramConfig::default(),
            EccLatency {
                encode: 4,
                correct: 3,
            },
        );
        let r0 = plain.read(0, 0);
        let r1 = ecc.read(0, 0);
        assert_eq!(r1 - r0, 3);
        let w0 = plain.write(4096, 1000);
        let w1 = ecc.write(4096, 1000);
        assert_eq!(w1 - w0, 4);
    }

    #[test]
    fn refresh_blocks_the_channel() {
        let mut d = dram();
        let c = d.config;
        // Issue a read just after the first tREFI boundary: it waits out tRFC.
        let done = d.read(0, c.t_refi + 1);
        assert!(done >= c.t_refi + c.t_rfc + c.t_rcd + c.t_cas + c.t_burst);
        assert_eq!(d.stats().refreshes, 1);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn bank_count_must_be_a_power_of_two() {
        let config = DramConfig {
            banks: 12,
            ..DramConfig::default()
        };
        Dram::new(config, EccLatency::NONE);
    }

    #[test]
    fn refresh_skips_idle_periods() {
        let mut d = dram();
        let c = d.config;
        // Idle for several tREFI: the count catches up in one step, and only
        // the latest refresh can still block the channel.
        let done = d.read(0, 5 * c.t_refi + c.t_rfc);
        assert_eq!(d.stats().refreshes, 5);
        assert_eq!(done, 5 * c.t_refi + c.t_rfc + c.t_rcd + c.t_cas + c.t_burst);
        // An earlier issue time neither refreshes again nor skips the wait.
        let again = d.read(64, 2 * c.t_refi);
        assert_eq!(d.stats().refreshes, 5);
        assert!(again > done);
    }

    #[test]
    fn counters_add_up() {
        let mut d = dram();
        let mut t = 0;
        for i in 0..10u64 {
            t = d.read(i * 64, t);
        }
        for i in 0..5u64 {
            t = d.write((i * 64 + 1) << 20, t);
        }
        assert_eq!(d.stats().reads, 10);
        assert_eq!(d.stats().writes, 5);
        assert_eq!(d.stats().operations(), 15);
        assert!(d.stats().row_hit_ratio() > 0.0);
    }
}
