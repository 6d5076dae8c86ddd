//! Fuzzes the one JSON parser: mutated copies of the checked-in BENCH
//! baselines and the golden Chrome trace must parse to `Ok` or `Err` and
//! never panic, and every generated document with finite numbers must
//! survive `parse(write(v)) == v`.

use cusfft_telemetry::json::{parse, write, JsonValue};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const CORPUS: [&str; 7] = [
    include_str!("../../../results/baselines/BENCH_backends.json"),
    include_str!("../../../results/baselines/BENCH_chaos.json"),
    include_str!("../../../results/baselines/BENCH_fleet.json"),
    include_str!("../../../results/baselines/BENCH_serve_overload.json"),
    include_str!("../../../results/baselines/BENCH_serve_throughput.json"),
    include_str!("../../../results/baselines/BENCH_telemetry.json"),
    include_str!("../../bench/tests/golden/trace.json"),
];

/// Cuts `s` at the char boundary at or below byte `at`.
fn floor_boundary(s: &str, mut at: usize) -> usize {
    at = at.min(s.len());
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One mutation of a corpus document: a truncation, a few ASCII byte
/// flips, or a splice of two documents at arbitrary cut points.
fn mutate(kind: u64, doc: usize, other: usize, r: (u64, u64, u64)) -> String {
    let s = CORPUS[doc];
    match kind {
        0 => s[..floor_boundary(s, (r.0 % (s.len() as u64 + 1)) as usize)].to_string(),
        1 => {
            let mut bytes = s.as_bytes().to_vec();
            let mut x = r.1;
            for _ in 0..=(r.2 % 4) {
                let i = (x % bytes.len() as u64) as usize;
                if bytes[i].is_ascii() {
                    // Stay ASCII so the document remains a valid `&str`.
                    bytes[i] = b" \"\\,:[]{}0-.eEtfnu9x"[(x >> 32) as usize % 20];
                }
                x = x.rotate_left(17).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            String::from_utf8(bytes).expect("ASCII flips keep UTF-8 valid")
        }
        _ => {
            let t = CORPUS[other];
            let a = floor_boundary(s, (r.0 % (s.len() as u64 + 1)) as usize);
            let b = floor_boundary(t, (r.1 % (t.len() as u64 + 1)) as usize);
            format!("{}{}", &s[..a], &t[b..])
        }
    }
}

/// Strategy for arbitrary documents with finite numbers, nested up to
/// `depth` levels.
struct Docs {
    depth: u32,
}

fn gen_string(rng: &mut TestRng) -> String {
    const CHARS: [char; 12] = [
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'µ', '≤', '🚀',
    ];
    (0..rng.below(8))
        .map(|_| CHARS[rng.below(12) as usize])
        .collect()
}

fn gen_value(rng: &mut TestRng, depth: u32) -> JsonValue {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.below(2) == 1),
        2 => {
            let v = match rng.below(3) {
                0 => rng.below(1 << 40) as f64,
                1 => (rng.unit_f64() - 0.5) * 1e6,
                _ => f64::from_bits(rng.next_u64()),
            };
            JsonValue::Number(if v.is_finite() { v } else { 0.5 })
        }
        3 => JsonValue::Str(gen_string(rng)),
        4 => (0..rng.below(5))
            .map(|_| gen_value(rng, depth - 1))
            .collect(),
        _ => JsonValue::Object(
            (0..rng.below(5))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

impl Strategy for Docs {
    type Value = JsonValue;
    fn generate(&self, rng: &mut TestRng) -> JsonValue {
        gen_value(rng, self.depth)
    }
}

#[test]
fn corpus_parses_and_round_trips() {
    for doc in CORPUS {
        let v = parse(doc).expect("checked-in documents are valid JSON");
        assert_eq!(parse(&write(&v)).unwrap(), v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn mutated_documents_never_panic(
        kind in 0u64..3,
        doc in 0usize..7,
        other in 0usize..7,
        r in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let text = mutate(kind, doc, other, r);
        // Either outcome is fine; reaching this line means no panic.
        let _ = parse(&text);
    }

    #[test]
    fn written_documents_parse_back_unchanged(v in Docs { depth: 6 }) {
        prop_assert_eq!(parse(&write(&v)).unwrap(), v);
    }
}
