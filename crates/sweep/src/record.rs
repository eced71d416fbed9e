//! Per-scenario result records, fingerprints, and the streamed
//! JSONL/CSV encodings.
//!
//! The JSON here is hand-formatted like the rest of the repo's JSON
//! output; the workspace has no serialization dependency.

use gaat_sim::mix64;

/// Everything recorded about one finished scenario. The *deterministic*
/// fields (simulated time, checksum, counters) feed the fingerprint;
/// the wall-clock fields (`wall_ns`, `setup_ns`) are measurement
/// metadata and deliberately excluded, so fingerprints are comparable
/// across worker counts and hosts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioRecord {
    /// The scenario's stable grid index.
    pub index: usize,
    /// Group key (label minus the seed axis).
    pub group: String,
    /// Human-readable identity.
    pub label: String,
    /// Whether the run completed (false = blocks stalled, retries off,
    /// or the scenario was rejected before it was built).
    pub ok: bool,
    /// Stalled-block count (0 when `ok`).
    pub stalled: u64,
    /// Simulated makespan; for a stalled run, the virtual time at which
    /// the queue drained (still deterministic).
    pub makespan_ns: u64,
    /// Simulated time per iteration/sweep/step/round, 0 when stalled.
    pub unit_ns: u64,
    /// Field checksum, when the workload computes one.
    pub checksum: Option<f64>,
    /// Entry methods executed.
    pub entries: u64,
    /// Fabric: messages admitted.
    pub net_messages: u64,
    /// Fabric: bytes sent.
    pub net_bytes: u64,
    /// Fabric: fault-plan drops.
    pub net_drops: u64,
    /// Fabric: retransmissions admitted.
    pub net_retransmits: u64,
    /// Transport: retransmits issued.
    pub ucx_retransmits: u64,
    /// Transport: ack timeouts fired.
    pub ucx_timeouts: u64,
    /// Transport: duplicate deliveries suppressed.
    pub ucx_duplicates: u64,
    /// Collectives: payload bytes through channels (ML proxies).
    pub coll_bytes: u64,
    /// Collectives: chunks sent (ML proxies).
    pub coll_chunks: u64,
    /// Host wall time for the whole scenario.
    pub wall_ns: u64,
    /// Host wall time for engine + machine + application construction.
    pub setup_ns: u64,
    /// Why the scenario's configuration was rejected, in which case
    /// nothing ran and every outcome field is zero; `None` for every
    /// scenario that was built. The text is a `ConfigError` message,
    /// which, like a label, holds no `"` or `\`, so JSONL carries it
    /// verbatim.
    pub error: Option<String>,
}

impl ScenarioRecord {
    /// Order-independent digest of the deterministic fields. Two runs of
    /// the same scenario — different workers, different dequeue order,
    /// forked or run from `t = 0` — must produce the same fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0x5eed_5eed_5eed_5eed;
        for v in [
            self.index as u64,
            self.ok as u64,
            self.stalled,
            self.makespan_ns,
            self.unit_ns,
            self.checksum.map_or(0, f64::to_bits),
            self.entries,
            self.net_messages,
            self.net_bytes,
            self.net_drops,
            self.net_retransmits,
            self.ucx_retransmits,
            self.ucx_timeouts,
            self.ucx_duplicates,
            self.coll_bytes,
            self.coll_chunks,
        ] {
            h = mix64(h ^ v);
        }
        // Only rejected records carry text, so every other fingerprint
        // is the numeric fold alone.
        for b in self.error.iter().flat_map(|e| e.bytes()) {
            h = mix64(h ^ u64::from(b));
        }
        h
    }

    /// One JSONL line (no trailing newline). A rejected record ends with
    /// an `"error"` string field.
    pub fn jsonl(&self) -> String {
        let checksum = match self.checksum {
            Some(c) => format!("{c:?}"),
            None => "null".to_string(),
        };
        let error = match &self.error {
            Some(e) => format!(", \"error\": \"{e}\""),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\"i\": {}, \"label\": \"{}\", \"fingerprint\": \"{:016x}\", ",
                "\"ok\": {}, \"stalled\": {}, \"makespan_ns\": {}, \"unit_ns\": {}, ",
                "\"checksum\": {}, \"entries\": {}, ",
                "\"net\": {{\"messages\": {}, \"bytes\": {}, \"drops\": {}, \"retransmits\": {}}}, ",
                "\"ucx\": {{\"retransmits\": {}, \"timeouts\": {}, \"duplicates\": {}}}, ",
                "\"coll\": {{\"bytes\": {}, \"chunks\": {}}}, ",
                "\"wall_ns\": {}, \"setup_ns\": {}{}}}"
            ),
            self.index,
            self.label,
            self.fingerprint(),
            self.ok,
            self.stalled,
            self.makespan_ns,
            self.unit_ns,
            checksum,
            self.entries,
            self.net_messages,
            self.net_bytes,
            self.net_drops,
            self.net_retransmits,
            self.ucx_retransmits,
            self.ucx_timeouts,
            self.ucx_duplicates,
            self.coll_bytes,
            self.coll_chunks,
            self.wall_ns,
            self.setup_ns,
            error,
        )
    }
}

/// One aggregate row: records grouped by everything but the seed.
#[derive(Debug, Clone, Default)]
pub struct AggregateRow {
    /// Group key.
    pub group: String,
    /// Scenarios in the group.
    pub count: usize,
    /// Of those, how many completed.
    pub ok: usize,
    /// Total stalled blocks across the group.
    pub stalled: u64,
    /// Mean simulated makespan over completed runs, ns.
    pub mean_makespan_ns: f64,
    /// Mean simulated time per unit over completed runs, ns.
    pub mean_unit_ns: f64,
    /// Mean host wall time per scenario, ns.
    pub mean_wall_ns: f64,
}

impl AggregateRow {
    /// CSV header for [`AggregateRow::csv`].
    pub fn csv_header() -> &'static str {
        "group,count,ok,stalled,mean_makespan_ns,mean_unit_ns,mean_wall_ns"
    }

    /// One CSV row.
    pub fn csv(&self) -> String {
        format!(
            "{},{},{},{},{:.0},{:.0},{:.0}",
            self.group,
            self.count,
            self.ok,
            self.stalled,
            self.mean_makespan_ns,
            self.mean_unit_ns,
            self.mean_wall_ns
        )
    }
}
