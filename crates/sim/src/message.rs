//! The unit of simulated communication.

use pim_array::grid::ProcId;
use pim_trace::ids::DataId;

/// Why a transfer happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// A referencing processor pulls the datum from its center: `volume`
    /// copies of the value cross the network within one window.
    Fetch,
    /// The datum itself migrates to the next window's center.
    Move,
}

/// One routed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Source processor (the datum's center).
    pub src: ProcId,
    /// Destination processor.
    pub dst: ProcId,
    /// Transfer volume in data units.
    pub volume: u32,
    /// The datum being transferred.
    pub data: DataId,
    /// The execution window the transfer belongs to. For a
    /// [`MessageKind::Move`] it is the window being *left*.
    pub window: u32,
    /// Fetch or move.
    pub kind: MessageKind,
}

impl Message {
    /// True for zero-distance transfers (local reference) that never enter
    /// the network.
    pub fn is_local(&self) -> bool {
        self.src == self.dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality() {
        let m = Message {
            src: ProcId(3),
            dst: ProcId(3),
            volume: 2,
            data: DataId(0),
            window: 0,
            kind: MessageKind::Fetch,
        };
        assert!(m.is_local());
        let m2 = Message {
            dst: ProcId(4),
            ..m
        };
        assert!(!m2.is_local());
    }
}
