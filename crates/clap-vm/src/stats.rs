//! Execution statistics, feeding the paper's Table 1 columns
//! (#Threads, #Inst, #Br, #SAPs).

/// Counters accumulated over one VM run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed (excluding terminators).
    pub instructions: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Shared access points executed (shared loads/stores + sync ops).
    pub saps: u64,
    /// Threads created (including main).
    pub threads: u32,
    /// Scheduler steps taken (instructions + drains + blocked retries).
    pub steps: u64,
    /// Store-buffer drains performed.
    pub drains: u64,
}
