//! Property tests for the OCI layer: JSON round-trips over arbitrary
//! values, and runtime-spec round-trips over arbitrary specs. Runs on the
//! offline `simkernel::prop` harness.

use std::collections::BTreeMap;

use oci_spec_lite::json::{parse, Value};
use oci_spec_lite::{LinuxSpec, MemoryResources, MountSpec, ProcessSpec, RootSpec, RuntimeSpec};
use simkernel::prop::check;
use simkernel::rng::SplitMix64;

const PLAIN: &[char] =
    &['a', 'b', 'c', 'x', 'y', 'z', 'A', 'Z', '0', '5', '9', ' ', '_', '.', '/', '-'];
const ESCAPY: &[char] = &['"', '\\', '\n', '\t', 'é', '世', 'a', 'k', 'q'];

fn gen_json(g: &mut SplitMix64, depth: u32) -> Value {
    let max = if depth == 0 { 5 } else { 7 };
    match g.index(max) {
        0 => Value::Null,
        1 => Value::Bool(g.next_bool()),
        // Integers in the f64-exact range round-trip precisely.
        2 => Value::Number(g.range_i64(-1_000_000_000, 1_000_000_000) as f64),
        3 => Value::String(g.string_upto(PLAIN, 0, 25)),
        // Strings exercising escapes.
        4 => Value::String(g.string_upto(ESCAPY, 0, 12)),
        5 => Value::Array((0..g.index(4)).map(|_| gen_json(g, depth - 1)).collect()),
        _ => {
            let mut obj = BTreeMap::new();
            for _ in 0..g.index(4) {
                let key = g.string_upto(&['a', 'b', 'c', 'd', 'm', 'z'], 1, 9);
                obj.insert(key, gen_json(g, depth - 1));
            }
            Value::Object(obj)
        }
    }
}

#[test]
fn json_roundtrip() {
    check("json_roundtrip", 256, |g| {
        let v = gen_json(g, 3);
        let text = v.to_json();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
    });
}

#[test]
fn parser_never_panics_on_garbage() {
    const SOUP: &[char] = &[
        '{', '}', '[', ']', '"', ':', ',', '\\', 'n', 't', 'e', '1', '9', '-', '+', '.', 'E', ' ',
        '\n', 'é', '\u{0}', 'u', '0', 'x',
    ];
    check("parser_never_panics_on_garbage", 512, |g| {
        let input = g.string_upto(SOUP, 0, 64);
        let _ = parse(&input);
        let _ = RuntimeSpec::from_json(&input);
    });
}

#[test]
fn parser_never_panics_on_bytes() {
    check("parser_never_panics_on_bytes", 512, |g| {
        let input: Vec<u8> = (0..g.index(64)).map(|_| g.next_u32() as u8).collect();
        if let Ok(s) = std::str::from_utf8(&input) {
            let _ = parse(s);
            let _ = RuntimeSpec::from_json(s);
        }
    });
}

/// Everything the string writer escapes (`"`, `\`, the short escapes,
/// other control characters), DEL, `/`, non-ASCII of every UTF-8 width,
/// and plain letters.
const ESCAPE_SET: &[char] = &[
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', '/', 'é',
    '世', '😀', 'a', 'Z', '=',
];

/// A string from the escape set, sometimes empty.
fn text(g: &mut SplitMix64) -> String {
    g.string_upto(ESCAPE_SET, 0, 9)
}

/// Up to three strings; a quarter of the time none.
fn texts(g: &mut SplitMix64) -> Vec<String> {
    (0..g.index(4)).map(|_| text(g)).collect()
}

/// Any spec at all: every string drawn from the escape set, any namespace
/// names, any mounts, an absent limit or any `u64`, and every list, map
/// and string sometimes empty — the domain over which `Bundle::load_spec`
/// reuses a kept spec, on the law `from_json(to_json(s)) == s`.
fn gen_spec(g: &mut SplitMix64) -> RuntimeSpec {
    RuntimeSpec {
        oci_version: text(g),
        process: ProcessSpec {
            args: texts(g),
            env: texts(g),
            cwd: text(g),
            terminal: g.next_bool(),
        },
        root: RootSpec { path: text(g), readonly: g.next_bool() },
        hostname: text(g),
        mounts: (0..g.index(3))
            .map(|_| MountSpec {
                destination: text(g),
                source: text(g),
                fstype: text(g),
                options: texts(g),
            })
            .collect(),
        annotations: (0..g.index(4)).map(|_| (text(g), text(g))).collect(),
        linux: LinuxSpec {
            namespaces: texts(g),
            cgroups_path: text(g),
            // Every magnitude equally often.
            memory: MemoryResources { limit: g.next_bool().then(|| g.next_u64() >> g.index(64)) },
        },
    }
}

#[test]
fn runtime_spec_roundtrip() {
    let (mut big_limits, mut empty_lists) = (0, 0);
    check("runtime_spec_roundtrip", 512, |g| {
        let spec = gen_spec(g);
        let json = spec.to_json();
        let back = RuntimeSpec::from_json(&json).unwrap();
        assert_eq!(back, spec, "{json}");
        big_limits += spec.linux.memory.limit.is_some_and(|l| l >= 1 << 53) as u32;
        empty_lists += (spec.mounts.is_empty() && spec.linux.namespaces.is_empty()) as u32;
    });
    // The generator reaches past f64's exact integers, and the empty ends.
    assert!(big_limits > 20 && empty_lists > 20, "{big_limits} {empty_lists}");
    let empty = RuntimeSpec::default();
    assert_eq!(RuntimeSpec::from_json(&empty.to_json()).unwrap(), empty);
}
