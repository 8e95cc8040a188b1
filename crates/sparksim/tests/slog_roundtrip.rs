//! Property tests for the SLOG wire format: arbitrary event sequences must
//! survive encode/decode, and no truncation of a log may panic the decoder.

use lite_sparksim::eventlog::{decode, encode, Event};
use lite_sparksim::plan::{OpDag, OpKind};
use proptest::prelude::*;

fn arb_dag() -> impl Strategy<Value = OpDag> {
    let ops = OpKind::all();
    let node = (0..ops.len()).prop_map(move |i| ops[i]);
    (prop::collection::vec(node, 0..8), prop::collection::vec((0usize..64, 0usize..64), 0..12))
        .prop_map(|(nodes, edges)| OpDag { nodes, edges })
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        ("[a-zA-Z0-9 _.-]{0,24}", any::<u32>())
            .prop_map(|(app, stages)| Event::AppStart { app, stages }),
        (any::<u32>(), "[a-zA-Z0-9 _.-]{0,24}", arb_dag())
            .prop_map(|(stage_id, name, dag)| Event::StageSubmitted { stage_id, name, dag }),
        (any::<u32>(), 0.0f64..1e9, any::<u32>(), any::<u64>()).prop_map(
            |(stage_id, duration_s, num_tasks, input_bytes)| Event::StageCompleted {
                stage_id,
                duration_s,
                num_tasks,
                input_bytes,
            }
        ),
        (any::<bool>(), 0.0f64..1e9)
            .prop_map(|(success, total_time_s)| Event::AppEnd { success, total_time_s }),
    ]
}

proptest! {
    #[test]
    fn random_event_sequences_roundtrip(events in prop::collection::vec(arb_event(), 0..40)) {
        let bytes = encode(&events);
        prop_assert_eq!(&bytes[..4], b"SLOG");
        prop_assert_eq!(decode(&bytes).unwrap(), events);
    }

    #[test]
    fn truncating_any_log_never_panics(events in prop::collection::vec(arb_event(), 1..12),
                                       frac in 0.0f64..1.0) {
        let bytes = encode(&events);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        // Every strict prefix must be a decode error, never a panic or a
        // silently shortened event list.
        prop_assert!(decode(&bytes[..cut]).is_err());
    }
}
