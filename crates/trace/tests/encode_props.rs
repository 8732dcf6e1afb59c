//! Property tests for the trace encodings: arbitrary windowed traces
//! round-trip bit-identically through the `.pimb` binary container, and
//! the `.pimb` decoder plus the two text decode paths the serve daemon
//! exposes to untrusted input — the flat-trace text format and the
//! `TraceDelta` JSON codec — return typed errors on arbitrary corruption,
//! truncation and out-of-range ids, never panic.

use pim_array::grid::{Grid, ProcId};
use pim_trace::binfmt::{encode_flat, read_flat};
use pim_trace::edit::{EditableTrace, TraceDelta};
use pim_trace::flat::{FlatRecord, FlatTrace};
use pim_trace::ids::DataId;
use pim_trace::window::WindowRefs;
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = FlatTrace> {
    (1u32..=6, 1u32..=6).prop_flat_map(|(w, h)| {
        let grid = Grid::new(w, h);
        let m = grid.num_procs() as u32;
        (1usize..=4, 1usize..=5).prop_flat_map(move |(nd, nw)| {
            proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0..m, 1u32..100), 0..5),
                    nw..=nw,
                ),
                nd..=nd,
            )
            .prop_map(move |data| {
                let per_data = data
                    .into_iter()
                    .map(|windows| {
                        windows
                            .into_iter()
                            .map(|pairs| {
                                WindowRefs::from_pairs(
                                    pairs.into_iter().map(|(p, n)| (ProcId(p), n)),
                                )
                            })
                            .collect()
                    })
                    .collect();
                FlatTrace::from_windows(grid, per_data).expect("procs are on the grid")
            })
        })
    })
}

proptest! {
    #[test]
    fn roundtrip(trace in arb_trace()) {
        let bytes = encode_flat(&trace);
        let back = read_flat(&bytes).expect("well-formed encoding decodes");
        prop_assert_eq!(back, trace);
    }
}

fn arb_flat() -> impl Strategy<Value = FlatTrace> {
    (1u32..=6, 1u32..=6, 1usize..=5, 1usize..=6).prop_flat_map(|(w, h, nw, nd)| {
        let m = w * h;
        proptest::collection::vec((0..nd as u32, 0..nw as u32, 0..m, 1u32..100), 0..12).prop_map(
            move |rows| {
                let records = rows.into_iter().map(|(d, win, p, n)| FlatRecord {
                    datum: DataId(d),
                    window: win,
                    proc: ProcId(p),
                    count: n,
                });
                FlatTrace::from_records(Grid::new(w, h), nw, nd, records)
                    .expect("in-range records build")
            },
        )
    })
}

fn arb_delta() -> impl Strategy<Value = TraceDelta> {
    let set_run = (
        0u32..50,
        0u32..50,
        proptest::collection::vec((0u32..50, 0u32..1000), 0..4),
    )
        .prop_map(|(d, w, refs)| (Some((d, w, refs)), None));
    let append = proptest::collection::vec((0u32..50, 0u32..50, 0u32..1000), 0..4)
        .prop_map(|rows| (None, Some(rows)));
    type OneOp = (
        Option<(u32, u32, Vec<(u32, u32)>)>,
        Option<Vec<(u32, u32, u32)>>,
    );
    proptest::collection::vec(prop_oneof![set_run, append], 0..5).prop_map(|ops: Vec<OneOp>| {
        let mut delta = TraceDelta::new();
        for (set, app) in ops {
            if let Some((d, w, refs)) = set {
                delta.set_run(DataId(d), w, refs.into_iter().map(|(p, n)| (ProcId(p), n)));
            }
            if let Some(rows) = app {
                delta.append_window(rows.into_iter().map(|(d, p, n)| (DataId(d), ProcId(p), n)));
            }
        }
        delta
    })
}

proptest! {
    // --- flat text decode path (serve `load` requests) ---

    #[test]
    fn flat_text_roundtrip(flat in arb_flat()) {
        let text = flat.to_text();
        let back = FlatTrace::from_reader(text.as_bytes())
            .expect("canonical text parses");
        prop_assert_eq!(back, flat);
    }

    #[test]
    fn flat_text_corruption_never_panics(
        flat in arb_flat(),
        byte in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let mut raw = flat.to_text().into_bytes();
        let idx = byte % raw.len();
        raw[idx] ^= flip;
        // Must return a Result — Ok when the flip lands on an equivalent
        // spelling, a typed Err otherwise — and never panic. (Invalid
        // UTF-8 surfaces as FlatTraceError::Io via the line reader.)
        let _ = FlatTrace::from_reader(&raw[..]);
    }

    #[test]
    fn flat_text_truncation_never_panics(flat in arb_flat(), frac in 0u32..100) {
        let text = flat.to_text();
        let cut = (text.len() as u64 * frac as u64 / 100) as usize;
        // Truncation may cut at a record boundary (still a valid, smaller
        // trace) or mid-record / mid-header (typed parse error); the
        // property is only that it never panics or misattributes.
        let _ = FlatTrace::from_reader(&text.as_bytes()[..cut.min(text.len())]);
    }

    // --- binary `.pimb` container (pack/unpack, mmap load path) ---

    #[test]
    fn binfmt_text_binary_text_is_bit_identical(flat in arb_flat()) {
        let bytes = encode_flat(&flat);
        let back = read_flat(&bytes)
            .expect("well-formed container decodes");
        prop_assert_eq!(&back, &flat);
        // The full loop text -> binary -> text reproduces the text
        // byte-for-byte, and re-encoding the decoded trace reproduces
        // the container byte-for-byte (canonical encoding).
        prop_assert_eq!(back.to_text(), flat.to_text());
        prop_assert_eq!(encode_flat(&back), bytes);
    }

    #[test]
    fn binfmt_corruption_is_typed_never_panics(
        flat in arb_flat(),
        byte in 0usize..16384,
        flip in 1u8..=255,
    ) {
        let mut raw = encode_flat(&flat);
        let idx = byte % raw.len();
        raw[idx] ^= flip;
        // Payload flips are caught by the checksum; count flips by the
        // exact-length check; magic/version/checksum flips by their own
        // header checks. Only the structurally-validated header fields —
        // grid dims (bytes 8..16) and the window count (16..24) — can
        // absorb a flip and still decode (e.g. widening the grid keeps
        // every ref in range). Never a panic or out-of-bounds read.
        match read_flat(&raw) {
            Err(_) => {}
            Ok(_) => prop_assert!(
                (8..24).contains(&idx),
                "flip at byte {} decoded anyway", idx
            ),
        }
    }

    #[test]
    fn binfmt_truncation_is_typed(flat in arb_flat(), frac in 0u32..100) {
        let raw = encode_flat(&flat);
        let cut = (raw.len() as u64 * frac as u64 / 100) as usize;
        let cut = cut.min(raw.len() - 1);
        // The container's exact-length contract makes any truncation a
        // typed error (short header or length mismatch), never a panic.
        prop_assert!(read_flat(&raw[..cut]).is_err());
        // Trailing garbage is equally rejected: the total length must
        // match the header-declared counts exactly.
        let mut extended = raw.clone();
        extended.push(0);
        prop_assert!(read_flat(&extended).is_err());
    }

    // --- TraceDelta JSON decode path (serve `edit` requests) ---

    #[test]
    fn delta_json_roundtrip(delta in arb_delta()) {
        let text = delta.to_json();
        let back = TraceDelta::from_json(&text).expect("canonical JSON parses");
        prop_assert_eq!(back, delta);
    }

    #[test]
    fn delta_json_corruption_never_panics(
        delta in arb_delta(),
        byte in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let mut raw = delta.to_json().into_bytes();
        let idx = byte % raw.len();
        raw[idx] ^= flip;
        if let Ok(text) = String::from_utf8(raw) {
            // Parse may succeed (flip hit a digit) or fail with a typed
            // DeltaJsonError — never panic.
            let _ = TraceDelta::from_json(&text);
        }
    }

    // --- range validation: check/apply agree and reject atomically ---

    #[test]
    fn delta_check_apply_agree_and_are_atomic(flat in arb_flat(), delta in arb_delta()) {
        let mut editable = EditableTrace::new(flat);
        let before = editable.materialize();
        let version = editable.version();
        let checked = editable.check(&delta).is_ok();
        match editable.apply(&delta) {
            Ok(()) => prop_assert!(checked, "apply succeeded but check rejected"),
            Err(_) => {
                // Typed error, and the trace is untouched (atomicity).
                prop_assert!(!checked, "check passed but apply failed");
                prop_assert_eq!(editable.version(), version);
                prop_assert_eq!(editable.materialize(), before);
            }
        }
    }
}
