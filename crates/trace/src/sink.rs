//! The structured event sink the timing simulator emits into.
//!
//! Events are small `Copy` records stamped in *simulated cycles* — the
//! recorder never consults a clock, so the same simulation produces the
//! same event stream on every run, at any thread count. Tiles and
//! memory are identified by endpoint index (the simulator's
//! `ENDPOINTS` space: the eleven tile kinds plus memory last);
//! exporters resolve indices to names through a caller-supplied table.

/// One structured simulator event, stamped in simulated cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A temporal instruction began executing.
    TinstBegin {
        /// Stage index within the schedule.
        stage: u32,
        /// Global cycle at which the stage starts.
        cycle: u64,
        /// Spatial instructions resident in this stage.
        nodes: u32,
    },
    /// A temporal instruction finished (including the memory startup
    /// latency charged to the stage).
    TinstEnd {
        /// Stage index within the schedule.
        stage: u32,
        /// Global cycle at which the stage ends.
        cycle: u64,
    },
    /// Tile occupancy over one simulation quantum: `busy` instructions
    /// of tile kind `tile` moved data during `[cycle, cycle + dt)`.
    TileBusy {
        /// Endpoint index of the tile kind.
        tile: u16,
        /// Global cycle at the start of the quantum.
        cycle: u64,
        /// Quantum length in cycles.
        dt: u32,
        /// Number of busy instructions of this kind.
        busy: u16,
    },
    /// Aggregate memory traffic over one simulation quantum.
    MemSample {
        /// Global cycle at the start of the quantum.
        cycle: u64,
        /// Quantum length in cycles.
        dt: u32,
        /// Bytes read from memory during the quantum.
        read_bytes: f64,
        /// Bytes written to memory during the quantum.
        write_bytes: f64,
    },
    /// A NoC link reached a new peak bandwidth during a stage (sampled
    /// from the simulator's connection matrix at stage end).
    LinkPeak {
        /// Stage index that set the new peak.
        stage: u32,
        /// Global cycle at the end of the stage.
        cycle: u64,
        /// Source endpoint index.
        src: u16,
        /// Destination endpoint index.
        dst: u16,
        /// The new peak, in GB/s.
        gbps: f64,
    },
    /// Stream-buffer volumes of one stage: bytes filled from memory
    /// (base tables plus spilled intermediates re-read) and bytes
    /// spilled to memory (cross-stage intermediates plus final
    /// results).
    StageMem {
        /// Stage index.
        stage: u32,
        /// Global cycle at the start of the stage.
        cycle: u64,
        /// Bytes streamed in from memory.
        fill_bytes: u64,
        /// Bytes streamed out to memory.
        spill_bytes: u64,
    },
    /// One simulation quantum executed with derating factors active
    /// (`degraded.quantum`). Programmatic consumers use this to measure
    /// how much of a run was spent degraded; the Chrome exporter skips
    /// it (one event per quantum would dwarf the other tracks).
    DegradedQuantum {
        /// Stage index within the schedule.
        stage: u32,
        /// Global cycle at the start of the quantum.
        cycle: u64,
        /// Quantum length in cycles.
        dt: u32,
    },
    /// One request's lifetime through the serving layer
    /// (`serve.request`): from arrival to final disposition on the
    /// service's virtual clock. The Chrome exporter renders it as a
    /// complete slice on a dedicated "Serving" process.
    ServeRequest {
        /// Arrival cycle on the service's virtual clock.
        cycle: u64,
        /// Cycle at which the request reached its final disposition.
        end_cycle: u64,
        /// Tenant index within the service's tenant table.
        tenant: u16,
        /// Query index within the service's query table.
        query: u16,
        /// Disposition code: 0 = completed on Q100, 1 = shed,
        /// 2 = degraded to software, 3 = deadline missed.
        disposition: u16,
    },
    /// Stall-blame cycles attributed during one simulation quantum,
    /// aggregated over the running stage's nodes. Emitted only when a
    /// [`BlameRecorder`](crate::analyze) rides along a traced run; the
    /// Chrome exporter renders one counter track per cause.
    BlameSample {
        /// Stage index within the schedule.
        stage: u32,
        /// Global cycle at the start of the quantum.
        cycle: u64,
        /// Quantum length in cycles.
        dt: u32,
        /// [`BlameCause`](crate::analyze::BlameCause) index.
        cause: u16,
        /// Blamed cycles (summed over the stage's nodes).
        cycles: f64,
    },
}

impl TraceEvent {
    /// The event's timestamp in simulated cycles.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::TinstBegin { cycle, .. }
            | TraceEvent::TinstEnd { cycle, .. }
            | TraceEvent::TileBusy { cycle, .. }
            | TraceEvent::MemSample { cycle, .. }
            | TraceEvent::LinkPeak { cycle, .. }
            | TraceEvent::StageMem { cycle, .. }
            | TraceEvent::DegradedQuantum { cycle, .. }
            | TraceEvent::ServeRequest { cycle, .. }
            | TraceEvent::BlameSample { cycle, .. } => cycle,
        }
    }
}

/// Receives simulator events. Implementations must be cheap: the
/// simulator calls [`TraceSink::record`] from its per-quantum hot loop
/// whenever tracing is enabled.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, event: TraceEvent);
}

/// A sink that drops everything. Exists so call sites can be written
/// against `&mut dyn TraceSink` unconditionally; the simulator itself
/// skips event construction entirely when no sink is attached.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: TraceEvent) {}
}

/// A bounded in-memory recorder: keeps the most recent `capacity`
/// events, counting (not storing) the overflow.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    capacity: usize,
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl RingRecorder {
    /// Default capacity: generous for any single-query trace at the
    /// evaluation scale factors while bounding memory at ~32 MB.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A recorder holding at most [`Self::DEFAULT_CAPACITY`] events.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A recorder holding at most `capacity` events (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingRecorder { capacity, buf: Vec::new(), head: 0, dropped: 0 }
    }

    /// Events recorded and still retained, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forgets all retained events and the drop count.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

impl Default for RingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::TinstEnd { stage: 0, cycle }
    }

    #[test]
    fn recorder_keeps_order_and_wraps() {
        let mut r = RingRecorder::with_capacity(3);
        assert!(r.is_empty());
        for c in 0..5 {
            r.record(ev(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let cycles: Vec<u64> = r.events().iter().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "oldest evicted first, order preserved");
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut s = NullSink;
        s.record(ev(1));
    }
}
