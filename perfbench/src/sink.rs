//! The benchmark's own recording probe: keeps the in-window event
//! streams the layer replays feed back through the public component
//! and sink APIs, plus the counts no shipped sink keeps.

use nicsim::{Event, FmStream, Probe};
use nicsim_sim::Ps;

/// One crossbar grant.
#[derive(Debug, Clone, Copy)]
pub struct Grant {
    pub at: Ps,
    pub port: u16,
    pub addr: u32,
    pub write: bool,
}

/// One frame-memory burst.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    pub stream: FmStream,
    pub write: bool,
    pub bytes: u32,
    pub start: Ps,
}

/// One frame on the NIC's wire: `rx` arrivals come in from the peer,
/// the others leave the NIC.
#[derive(Debug, Clone, Copy)]
pub struct WireFrame {
    pub at: Ps,
    pub seq: u32,
    pub rx: bool,
}

/// In-window events kept verbatim for the sink replay.
const KEEP_EVENTS: usize = 200_000;

#[derive(Debug, Clone, Default)]
pub struct Recorder {
    pub events: u64,
    /// The first [`KEEP_EVENTS`] events of the window.
    pub kept: Vec<Event>,
    pub handler_enters: u64,
    pub grants: Vec<Grant>,
    pub bursts: Vec<Burst>,
    pub wire: Vec<WireFrame>,
}

impl Probe for Recorder {
    fn emit(&mut self, ev: Event) {
        self.events += 1;
        if self.kept.len() < KEEP_EVENTS {
            self.kept.push(ev);
        }
        match ev {
            Event::WindowReset { .. } => *self = Recorder::default(),
            Event::HandlerEnter { .. } => self.handler_enters += 1,
            Event::SpGrant {
                port,
                addr,
                write,
                at,
                ..
            } => self.grants.push(Grant {
                at,
                port: port as u16,
                addr,
                write,
            }),
            Event::FmBurst {
                stream,
                write,
                bytes,
                start,
                ..
            } => self.bursts.push(Burst {
                stream,
                write,
                bytes,
                start,
            }),
            Event::MacRxArrival {
                seq,
                dropped: false,
                at,
                ..
            } => self.wire.push(WireFrame { at, seq, rx: true }),
            Event::MacTxWireDone { seq, at } => self.wire.push(WireFrame { at, seq, rx: false }),
            _ => {}
        }
    }
}
